//! The five BE control actions (paper §3.5.2).

use std::fmt;

/// Decision of the top-level controller for one period.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum BeAction {
    /// Kill all running BE jobs and release all their resources
    /// (the SLA is already violated).
    StopBe,
    /// Pause all running BE jobs; they keep their memory
    /// (the request load exceeds the loadlimit).
    SuspendBe,
    /// Keep BE jobs running but reduce part of their resources
    /// (slack below half the slacklimit).
    CutBe,
    /// Freeze the BE population: no new jobs, no new resources
    /// (slack between half the slacklimit and the slacklimit).
    DisallowBeGrowth,
    /// Allow subcontrollers to add BE jobs and grow their resources
    /// (comfortable slack).
    AllowBeGrowth,
}

impl BeAction {
    /// True for the two actions that take resources away from BE jobs.
    pub fn is_restrictive(&self) -> bool {
        matches!(
            self,
            BeAction::StopBe | BeAction::SuspendBe | BeAction::CutBe
        )
    }

    /// Severity order: higher means more restrictive (useful for
    /// hysteresis and reporting).
    pub fn severity(&self) -> u8 {
        match self {
            BeAction::AllowBeGrowth => 0,
            BeAction::DisallowBeGrowth => 1,
            BeAction::CutBe => 2,
            BeAction::SuspendBe => 3,
            BeAction::StopBe => 4,
        }
    }
}

impl rhythm_snapshot::Snapshot for BeAction {
    fn encode(&self, w: &mut rhythm_snapshot::Writer) {
        w.u8(self.severity());
    }

    fn decode(r: &mut rhythm_snapshot::Reader<'_>) -> Result<Self, rhythm_snapshot::SnapshotError> {
        Ok(match r.u8()? {
            0 => BeAction::AllowBeGrowth,
            1 => BeAction::DisallowBeGrowth,
            2 => BeAction::CutBe,
            3 => BeAction::SuspendBe,
            4 => BeAction::StopBe,
            t => {
                return Err(rhythm_snapshot::SnapshotError::Corrupt(format!(
                    "unknown BeAction severity {t}"
                )))
            }
        })
    }
}

impl fmt::Display for BeAction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            BeAction::StopBe => "StopBE",
            BeAction::SuspendBe => "SuspendBE",
            BeAction::CutBe => "CutBE",
            BeAction::DisallowBeGrowth => "DisallowBEGrowth",
            BeAction::AllowBeGrowth => "AllowBEGrowth",
        };
        f.write_str(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn severity_is_strictly_ordered() {
        let order = [
            BeAction::AllowBeGrowth,
            BeAction::DisallowBeGrowth,
            BeAction::CutBe,
            BeAction::SuspendBe,
            BeAction::StopBe,
        ];
        for w in order.windows(2) {
            assert!(w[0].severity() < w[1].severity());
        }
    }

    #[test]
    fn restrictive_classification() {
        assert!(BeAction::StopBe.is_restrictive());
        assert!(BeAction::SuspendBe.is_restrictive());
        assert!(BeAction::CutBe.is_restrictive());
        assert!(!BeAction::DisallowBeGrowth.is_restrictive());
        assert!(!BeAction::AllowBeGrowth.is_restrictive());
    }

    #[test]
    fn display_matches_paper_names() {
        assert_eq!(BeAction::StopBe.to_string(), "StopBE");
        assert_eq!(BeAction::AllowBeGrowth.to_string(), "AllowBEGrowth");
    }
}
