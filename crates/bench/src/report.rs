//! Result reporting: aligned text plus JSON under `results/`.

use serde::Serialize;
use std::fs;
use std::io::Write as _;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};

/// When set, [`Report::finish`] prints the machine-readable JSON
/// document to stdout instead of the text table (the files written
/// under the results directory are unchanged). Toggled by the `repro`
/// binary's `--json` flag.
static JSON_STDOUT: AtomicBool = AtomicBool::new(false);

/// Switches stdout reporting between text tables (default) and JSON.
pub fn set_json_stdout(on: bool) {
    JSON_STDOUT.store(on, Ordering::Relaxed);
}

/// Whether stdout reporting is in JSON mode.
pub fn json_stdout() -> bool {
    JSON_STDOUT.load(Ordering::Relaxed)
}

/// Where results land: `RHYTHM_RESULTS_DIR` if set, else `results/`.
pub fn results_dir() -> PathBuf {
    std::env::var("RHYTHM_RESULTS_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|_| PathBuf::from("results"))
}

/// A report for one experiment id.
pub struct Report {
    id: String,
    title: String,
    text: String,
    out_dir: PathBuf,
}

impl Report {
    /// Starts a report for experiment `id` (e.g. "fig09").
    pub fn new(id: &str, title: &str) -> Report {
        Report {
            id: id.to_string(),
            title: title.to_string(),
            text: format!("== {id}: {title} ==\n"),
            out_dir: results_dir(),
        }
    }

    /// Appends a text line.
    pub fn line(&mut self, s: impl AsRef<str>) {
        self.text.push_str(s.as_ref());
        self.text.push('\n');
    }

    /// Appends a blank line.
    pub fn blank(&mut self) {
        self.text.push('\n');
    }

    /// The accumulated text.
    pub fn text(&self) -> &str {
        &self.text
    }

    /// The experiment id.
    pub fn id(&self) -> &str {
        &self.id
    }

    /// The experiment title.
    pub fn title(&self) -> &str {
        &self.title
    }

    /// Writes `<id>.txt` and `<id>.json` under the results directory and
    /// prints the text (or, in [`set_json_stdout`] mode, the JSON
    /// document) to stdout.
    pub fn finish<T: Serialize>(self, data: &T) -> std::io::Result<()> {
        fs::create_dir_all(&self.out_dir)?;
        let txt = self.out_dir.join(format!("{}.txt", self.id));
        fs::write(&txt, &self.text)?;
        let json = self.out_dir.join(format!("{}.json", self.id));
        let mut f = fs::File::create(&json)?;
        serde_json::to_writer_pretty(&mut f, data)?;
        writeln!(f)?;
        if json_stdout() {
            let doc = serde_json::to_string_pretty(data)?;
            println!("{doc}");
        } else {
            print!("{}", self.text);
            println!("[written {} and {}]", txt.display(), json.display());
        }
        Ok(())
    }
}

/// Formats a fraction as a percent with one decimal.
pub fn pct(x: f64) -> String {
    format!("{:.1}%", x * 100.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_accumulates_and_writes() {
        std::env::set_var(
            "RHYTHM_RESULTS_DIR",
            std::env::temp_dir().join("rhythm-test-results"),
        );
        let mut r = Report::new("test-exp", "unit test");
        r.line("row 1");
        r.blank();
        r.line(format!("value {}", pct(0.123)));
        assert!(r.text().contains("row 1"));
        assert!(r.text().contains("12.3%"));
        r.finish(&serde_json::json!({"ok": true})).unwrap();
        let p = std::env::temp_dir().join("rhythm-test-results/test-exp.json");
        assert!(p.exists());
        std::env::remove_var("RHYTHM_RESULTS_DIR");
    }

    #[test]
    fn pct_formats() {
        assert_eq!(pct(0.5), "50.0%");
        assert_eq!(pct(1.317), "131.7%");
    }
}
