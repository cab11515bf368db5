//! A minimal streaming JSON writer: objects are appended straight into
//! one output `String`, with no intermediate value tree.
//!
//! Output contract (pinned against a value-tree oracle in
//! `tests/telemetry.rs`):
//! * keys are `&'static str` written raw — callers pass plain ASCII
//!   identifiers only;
//! * integers are formatted in decimal without allocating;
//! * floats use Rust's shortest round-trip `{}` `Display`; NaN and ±inf
//!   have no JSON form and become `null`;
//! * strings escape `"`, `\`, `\n`, `\r`, `\t` as two-character escapes
//!   and every other control character below U+0020 as `\u00xx`
//!   (lowercase hex); everything else, non-ASCII included, is copied.

use std::fmt::Write;

/// One JSON object being written into `out`; [`Obj::close`] ends it.
pub(crate) struct Obj<'a> {
    out: &'a mut String,
    empty: bool,
}

impl<'a> Obj<'a> {
    /// Opens an object at the end of `out`.
    pub(crate) fn open(out: &'a mut String) -> Obj<'a> {
        out.push('{');
        Obj { out, empty: true }
    }

    fn key(&mut self, key: &'static str) -> &mut String {
        if !self.empty {
            self.out.push(',');
        }
        self.empty = false;
        self.out.push('"');
        self.out.push_str(key);
        self.out.push_str("\":");
        self.out
    }

    pub(crate) fn uint(&mut self, key: &'static str, v: impl Into<u64>) -> &mut Self {
        push_u64(self.key(key), v.into());
        self
    }

    pub(crate) fn int(&mut self, key: &'static str, v: impl Into<i64>) -> &mut Self {
        let v = v.into();
        let out = self.key(key);
        if v < 0 {
            out.push('-');
        }
        push_u64(out, v.unsigned_abs());
        self
    }

    pub(crate) fn float(&mut self, key: &'static str, v: f64) -> &mut Self {
        let out = self.key(key);
        if v.is_finite() {
            write!(out, "{v}").expect("writing to a String cannot fail");
        } else {
            out.push_str("null");
        }
        self
    }

    pub(crate) fn str(&mut self, key: &'static str, v: &str) -> &mut Self {
        push_escaped(self.key(key), v);
        self
    }

    pub(crate) fn null(&mut self, key: &'static str) -> &mut Self {
        self.key(key).push_str("null");
        self
    }

    /// Writes `key` with a nested object filled by `fill`.
    pub(crate) fn obj(&mut self, key: &'static str, fill: impl FnOnce(&mut Obj<'_>)) -> &mut Self {
        let mut inner = Obj::open(self.key(key));
        fill(&mut inner);
        inner.close();
        self
    }

    /// Ends the object.
    pub(crate) fn close(&mut self) {
        self.out.push('}');
    }
}

/// Appends `v` in decimal.
fn push_u64(out: &mut String, mut v: u64) {
    let mut buf = [0u8; 20];
    let mut i = buf.len();
    loop {
        i -= 1;
        buf[i] = b'0' + (v % 10) as u8;
        v /= 10;
        if v == 0 {
            break;
        }
    }
    out.push_str(std::str::from_utf8(&buf[i..]).expect("ASCII digits"));
}

/// Appends `s` as a quoted, escaped JSON string. Clean runs are copied
/// whole; every byte that needs escaping is ASCII, so each cut falls on
/// a character boundary.
fn push_escaped(out: &mut String, s: &str) {
    const HEX: &[u8; 16] = b"0123456789abcdef";
    out.push('"');
    let mut start = 0;
    for (i, b) in s.bytes().enumerate() {
        let esc = match b {
            b'"' => "\\\"",
            b'\\' => "\\\\",
            b'\n' => "\\n",
            b'\r' => "\\r",
            b'\t' => "\\t",
            0..=0x1f => "",
            _ => continue,
        };
        out.push_str(&s[start..i]);
        start = i + 1;
        if esc.is_empty() {
            out.push_str("\\u00");
            out.push(char::from(HEX[usize::from(b >> 4)]));
            out.push(char::from(HEX[usize::from(b & 0xf)]));
        } else {
            out.push_str(esc);
        }
    }
    out.push_str(&s[start..]);
    out.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;

    fn render(fill: impl FnOnce(&mut Obj<'_>)) -> String {
        let mut s = String::new();
        let mut o = Obj::open(&mut s);
        fill(&mut o);
        o.close();
        s
    }

    #[test]
    fn numbers_and_null() {
        let s = render(|o| {
            o.uint("a", u64::MAX)
                .int("b", i64::MIN)
                .int("c", 7)
                .uint("z", 0u64);
            o.float("d", -0.0)
                .float("e", f64::NAN)
                .float("f", 0.1)
                .null("g");
        });
        let want = concat!(
            r#"{"a":18446744073709551615,"b":-9223372036854775808,"c":7,"z":0,"#,
            r#""d":-0,"e":null,"f":0.1,"g":null}"#
        );
        assert_eq!(s, want);
    }

    #[test]
    fn strings_escape_like_the_value_tree() {
        let s = render(|o| {
            o.str("s", "a\"b\\c\nd\re\tf\u{1}g\u{1f}\u{7f}é");
        });
        assert_eq!(
            s,
            r#"{"s":"a\"b\\c\nd\re\tf\u0001g\u001f"#.to_owned() + "\u{7f}é\"}"
        );
    }

    #[test]
    fn nested_objects_and_empty() {
        assert_eq!(render(|_| {}), "{}");
        let s = render(|o| {
            o.obj("args", |a| {
                a.uint("x", 1u8);
            })
            .str("k", "v");
        });
        assert_eq!(s, r#"{"args":{"x":1},"k":"v"}"#);
    }
}
