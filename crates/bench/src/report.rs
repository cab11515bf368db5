//! Result reporting: aligned text plus JSON under `results/`.

use std::fs;
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
}

impl Report {
    /// Starts a report for experiment `id` (e.g. "fig09").
    pub fn new(id: &str, title: &str) -> Report {
        Report {
            id: id.to_string(),
            title: title.to_string(),
            text: format!("== {id}: {title} ==\n"),
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

    /// Writes `<id>.txt` and `<id>.json` (see [`write_json`]) under the
    /// results directory and prints the text (or, in [`set_json_stdout`]
    /// mode, the JSON document) to stdout.
    pub fn finish(self, json: String) -> std::io::Result<()> {
        let (path, doc) = write_json(&self.id, &json)?;
        let txt = results_dir().join(format!("{}.txt", self.id));
        fs::write(&txt, &self.text)?;
        if json_stdout() {
            print!("{doc}");
        } else {
            print!("{}", self.text);
            println!("[written {} and {}]", txt.display(), path.display());
        }
        Ok(())
    }
}

/// Writes `<id>.json` under the results directory and returns its path
/// and text. `json` is compact text from [`rhythm_telemetry::json`]; the
/// file holds it re-indented by `pretty`, then a newline and a blank
/// line, the ending every `results/` document has.
pub fn write_json(id: &str, json: &str) -> std::io::Result<(PathBuf, String)> {
    let dir = results_dir();
    fs::create_dir_all(&dir)?;
    let path = dir.join(format!("{id}.json"));
    let mut doc = pretty(json);
    doc.push_str("\n\n");
    fs::write(&path, &doc)?;
    Ok((path, doc))
}

/// Re-indents compact JSON into the `results/` layout: 2-space indent,
/// `"key": value`, one item per line, empty `[]`/`{}` inline. String
/// contents (a `{`, `,` or `:` included) are copied as they are.
fn pretty(compact: &str) -> String {
    fn newline(out: &mut String, depth: usize) {
        out.push('\n');
        for _ in 0..depth {
            out.push_str("  ");
        }
    }
    let mut out = String::with_capacity(2 * compact.len());
    let mut depth = 0;
    let (mut in_str, mut escaped) = (false, false);
    let mut chars = compact.chars().peekable();
    while let Some(c) = chars.next() {
        if in_str {
            out.push(c);
            if escaped {
                escaped = false;
            } else if c == '\\' {
                escaped = true;
            } else if c == '"' {
                in_str = false;
            }
            continue;
        }
        match c {
            '{' | '[' => {
                out.push(c);
                match chars.next_if(|&n| n == '}' || n == ']') {
                    Some(close) => out.push(close),
                    None => {
                        depth += 1;
                        newline(&mut out, depth);
                    }
                }
            }
            '}' | ']' => {
                depth -= 1;
                newline(&mut out, depth);
                out.push(c);
            }
            ',' => {
                out.push(',');
                newline(&mut out, depth);
            }
            ':' => out.push_str(": "),
            _ => {
                in_str = c == '"';
                out.push(c);
            }
        }
    }
    out
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
        r.finish(rhythm_telemetry::json::object(|o| {
            o.field("ok", true);
        }))
        .unwrap();
        let p = std::env::temp_dir().join("rhythm-test-results/test-exp.json");
        assert!(p.exists());
        std::env::remove_var("RHYTHM_RESULTS_DIR");
    }

    /// The layout the vendored `serde_json::to_string_pretty` printed
    /// for these shapes, recorded from it before it was deleted.
    #[test]
    fn pretty_matches_the_recorded_serde_json_layout() {
        use rhythm_telemetry::json::{object, to_string};
        let doc = object(|o| {
            o.field("empty_arr", Vec::<u64>::new())
                .obj("empty_obj", |_| {})
                .field("nested", vec![vec![1.5f64, 2.0], vec![], vec![-0.25]])
                .field("tuple", (1u32, "x", 2.5f64))
                .field("none", None::<f64>)
                .field("nan", f64::NAN)
                .field("inf", f64::INFINITY)
                .field("neg_inf", f64::NEG_INFINITY)
                .field("neg_zero", -0.0f64)
                .field("u64_max", u64::MAX)
                .field("i64_min", i64::MIN)
                .field("escapes", "q\"b\\s\nc\u{1}")
                .field("punct", "{a,b:c}[d]")
                .arr("objs", [true, false], |out, full| {
                    let mut o = rhythm_telemetry::json::Obj::open(out);
                    if full {
                        o.field("k", 1u8).field("t", true);
                    }
                    o.close();
                });
        });
        assert_eq!(
            pretty(&doc),
            "{\n  \"empty_arr\": [],\n  \"empty_obj\": {},\n  \"nested\": [\n    [\n      1.5,\n      2\n    ],\n    [],\n    [\n      -0.25\n    ]\n  ],\n  \"tuple\": [\n    1,\n    \"x\",\n    2.5\n  ],\n  \"none\": null,\n  \"nan\": null,\n  \"inf\": null,\n  \"neg_inf\": null,\n  \"neg_zero\": -0,\n  \"u64_max\": 18446744073709551615,\n  \"i64_min\": -9223372036854775808,\n  \"escapes\": \"q\\\"b\\\\s\\nc\\u0001\",\n  \"punct\": \"{a,b:c}[d]\",\n  \"objs\": [\n    {\n      \"k\": 1,\n      \"t\": true\n    },\n    {}\n  ]\n}"
        );
        assert_eq!(pretty(&to_string(&Vec::<u64>::new())), "[]");
        assert_eq!(pretty(&object(|_| {})), "{}");
        assert_eq!(
            pretty(&to_string(&(vec![(1u32, "a")], None::<u8>, -0.0f64))),
            "[\n  [\n    [\n      1,\n      \"a\"\n    ]\n  ],\n  null,\n  -0\n]"
        );
    }

    #[test]
    fn pct_formats() {
        assert_eq!(pct(0.5), "50.0%");
        assert_eq!(pct(1.317), "131.7%");
    }
}
