//! In-memory span recorder for the traced run.
//!
//! The benchmark wraps every layer call it makes in a span: name, start,
//! end, parent span and run id. Spans stay in memory until the run ends
//! and are then written out as JSON lines. A span's self time is its
//! duration minus the part of its interval that its child spans cover.

use std::time::Instant;

/// A host-time stopwatch: the benchmark's only wall-clock read.
#[derive(Clone, Copy, Debug)]
pub struct Stopwatch(Instant);

impl Stopwatch {
    pub fn start() -> Stopwatch {
        // lint:allow(D02) -- the benchmark measures host time; no simulated value ever reads it
        Stopwatch(Instant::now())
    }

    pub fn elapsed_s(&self) -> f64 {
        self.0.elapsed().as_secs_f64()
    }

    fn elapsed_ns(&self) -> u64 {
        u64::try_from(self.0.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }
}

/// One closed (or still open) span. Times are nanoseconds since the
/// recorder's epoch.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub run: usize,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Records nested spans on one thread.
pub struct Spans {
    epoch: Stopwatch,
    run: usize,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Spans {
    pub fn new(run: usize) -> Spans {
        Spans {
            epoch: Stopwatch::start(),
            run,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed_ns()
    }

    /// Runs `f` inside a span named `name`, a child of the innermost open
    /// span. `f` gets the recorder back so it can open child spans.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Spans) -> T) -> T {
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            run: self.run,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end_ns = self.now_ns();
        out
    }

    /// Tags the spans opened from now on with run id `run`.
    pub fn set_run(&mut self, run: usize) {
        self.run = run;
    }

    /// Total duration of every span named `name`, in seconds.
    pub fn total_s(&self, name: &str) -> f64 {
        total_s(&self.spans, name, |s, _| s.duration_ns())
    }

    /// Total self time of every span named `name`, in seconds.
    pub fn self_s(&self, name: &str) -> f64 {
        total_s(&self.spans, name, |_, i| self_time_ns(&self.spans, i))
    }

    /// Durations of the spans named `name`, in seconds, in opening order.
    pub fn durations_s(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration_ns() as f64 / 1e9)
            .collect()
    }

    /// The spans as JSON lines, in the order they were opened.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            out.push_str(&format!(
                "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"run\":{},\"self_ns\":{}}}\n",
                s.name,
                s.start_ns,
                s.end_ns,
                s.run,
                self_time_ns(&self.spans, id)
            ));
        }
        out
    }
}

#[cfg(test)]
impl Spans {
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    pub fn count(&self, name: &str) -> u64 {
        self.spans.iter().filter(|s| s.name == name).count() as u64
    }
}

fn total_s(spans: &[Span], name: &str, ns: impl Fn(&Span, usize) -> u64) -> f64 {
    let total: u64 = spans
        .iter()
        .enumerate()
        .filter(|(_, s)| s.name == name)
        .map(|(i, s)| ns(s, i))
        .sum();
    total as f64 / 1e9
}

/// Self time of span `id`: its duration minus the union of its direct
/// children's intervals, clipped to the span itself.
pub fn self_time_ns(spans: &[Span], id: usize) -> u64 {
    let me = &spans[id];
    let mut children: Vec<(u64, u64)> = spans
        .iter()
        .filter(|s| s.parent == Some(id))
        .map(|s| (s.start_ns.max(me.start_ns), s.end_ns.min(me.end_ns)))
        .filter(|(a, b)| b > a)
        .collect();
    children.sort_unstable();
    let mut covered = 0;
    let mut cursor = me.start_ns;
    for (a, b) in children {
        let a = a.max(cursor);
        if b > a {
            covered += b - a;
            cursor = b;
        }
    }
    me.duration_ns() - covered
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            run: 0,
        }
    }

    #[test]
    fn self_time_subtracts_children() {
        let spans = vec![
            span("root", 0, 100, None),
            span("a", 10, 30, Some(0)),
            span("b", 40, 70, Some(0)),
            span("a.child", 12, 20, Some(1)),
        ];
        assert_eq!(self_time_ns(&spans, 0), 100 - 20 - 30);
        assert_eq!(self_time_ns(&spans, 1), 20 - 8);
        assert_eq!(self_time_ns(&spans, 2), 30);
        assert_eq!(self_time_ns(&spans, 3), 8);
    }

    #[test]
    fn overlapping_children_count_once_and_are_clipped() {
        let spans = vec![
            span("root", 10, 100, None),
            span("a", 0, 50, Some(0)),
            span("b", 40, 60, Some(0)),
            span("c", 90, 120, Some(0)),
        ];
        // Covered: [10, 60) and [90, 100) = 60 of the root's 90 ns.
        assert_eq!(self_time_ns(&spans, 0), 30);
    }

    #[test]
    fn leaf_self_time_is_its_duration() {
        let spans = vec![span("leaf", 5, 17, None)];
        assert_eq!(self_time_ns(&spans, 0), 12);
    }

    #[test]
    fn recorder_nests_and_sums() {
        let mut tr = Spans::new(7);
        tr.time("outer", |tr| {
            tr.time("inner", |_| std::hint::black_box(1 + 1));
            tr.time("inner", |_| ());
        });
        let s = tr.spans();
        assert_eq!(s.len(), 3);
        assert_eq!(s[0].parent, None);
        assert_eq!(s[1].parent, Some(0));
        assert_eq!(s[2].parent, Some(0));
        assert!(s.iter().all(|x| x.run == 7 && x.end_ns >= x.start_ns));
        assert_eq!(tr.count("inner"), 2);
        assert_eq!(tr.durations_s("inner").len(), 2);
        tr.set_run(8);
        tr.time("later", |_| ());
        assert_eq!(tr.spans()[3].run, 8);
        let outer = tr.total_s("outer");
        let inner = tr.total_s("inner");
        assert!((tr.self_s("outer") - (outer - inner)).abs() < 1e-9);
        assert_eq!(tr.to_jsonl().lines().count(), 4);
    }
}
