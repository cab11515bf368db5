//! The workspace's one JSON writer: values are appended straight into
//! one output `String`, compact, with no intermediate value tree. The
//! telemetry exports stream through it, and every `results/` document
//! is written with it (the bench harness re-indents the compact text).
//!
//! Output contract (pinned against a value-tree oracle in
//! `tests/telemetry.rs`):
//! * object keys are `&'static str` written raw — callers pass plain
//!   ASCII identifiers only;
//! * integers are formatted in decimal without allocating;
//! * floats use Rust's shortest round-trip `{}` `Display`; NaN and ±inf
//!   have no JSON form and become `null`;
//! * `None` is `null`; slices, `Vec`s and tuples are arrays;
//! * strings escape `"`, `\`, `\n`, `\r`, `\t` as two-character escapes
//!   and every other control character below U+0020 as `\u00xx`
//!   (lowercase hex); everything else, non-ASCII included, is copied.

use std::fmt::Write;

/// A value with a JSON form. Output types implement it by hand in the
/// crate that owns them, writing their fields in declaration order.
pub trait ToJson {
    /// Appends `self` as compact JSON to `out`.
    fn write_json(&self, out: &mut String);
}

/// `v` as compact JSON text.
pub fn to_string<T: ToJson + ?Sized>(v: &T) -> String {
    let mut out = String::new();
    v.write_json(&mut out);
    out
}

/// One object filled by `fill`, as compact JSON text.
pub fn object(fill: impl FnOnce(&mut Obj<'_>)) -> String {
    let mut out = String::new();
    let mut o = Obj::open(&mut out);
    fill(&mut o);
    o.close();
    out
}

/// One JSON object being written into `out`; [`Obj::close`] ends it.
pub struct Obj<'a> {
    out: &'a mut String,
    empty: bool,
}

impl<'a> Obj<'a> {
    /// Opens an object at the end of `out`.
    pub fn open(out: &'a mut String) -> Obj<'a> {
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

    /// Writes `key` with the value `v`.
    pub fn field(&mut self, key: &'static str, v: impl ToJson) -> &mut Self {
        v.write_json(self.key(key));
        self
    }

    /// Writes `key` with a nested object filled by `fill`.
    pub fn obj(&mut self, key: &'static str, fill: impl FnOnce(&mut Obj<'_>)) -> &mut Self {
        let mut inner = Obj::open(self.key(key));
        fill(&mut inner);
        inner.close();
        self
    }

    /// Writes `key` with an array of `items`, each written by `write`.
    pub fn arr<I: IntoIterator>(
        &mut self,
        key: &'static str,
        items: I,
        write: impl FnMut(&mut String, I::Item),
    ) -> &mut Self {
        array(self.key(key), items, write);
        self
    }

    /// Ends the object.
    pub fn close(&mut self) {
        self.out.push('}');
    }
}

macro_rules! unsigned {
    ($($t:ty),*) => {$(
        impl ToJson for $t {
            #[allow(clippy::cast_lossless, reason = "`u64` and `usize` share the macro and have no `From` into `u64`; every listed type fits")]
            fn write_json(&self, out: &mut String) {
                push_u64(out, *self as u64);
            }
        }
    )*};
}

unsigned!(u8, u16, u32, u64, usize);

macro_rules! signed {
    ($($t:ty),*) => {$(
        impl ToJson for $t {
            fn write_json(&self, out: &mut String) {
                if *self < 0 {
                    out.push('-');
                }
                push_u64(out, u64::from(self.unsigned_abs()));
            }
        }
    )*};
}

signed!(i16, i32, i64);

impl ToJson for f64 {
    fn write_json(&self, out: &mut String) {
        if self.is_finite() {
            write!(out, "{self}").expect("writing to a String cannot fail");
        } else {
            out.push_str("null");
        }
    }
}

impl ToJson for bool {
    fn write_json(&self, out: &mut String) {
        out.push_str(if *self { "true" } else { "false" });
    }
}

impl ToJson for str {
    fn write_json(&self, out: &mut String) {
        push_escaped(out, self);
    }
}

impl ToJson for String {
    fn write_json(&self, out: &mut String) {
        push_escaped(out, self);
    }
}

impl<T: ToJson + ?Sized> ToJson for &T {
    fn write_json(&self, out: &mut String) {
        (**self).write_json(out);
    }
}

impl<T: ToJson> ToJson for Option<T> {
    fn write_json(&self, out: &mut String) {
        match self {
            Some(v) => v.write_json(out),
            None => out.push_str("null"),
        }
    }
}

impl<T: ToJson> ToJson for [T] {
    fn write_json(&self, out: &mut String) {
        array(out, self, |out, v| v.write_json(out));
    }
}

impl<T: ToJson> ToJson for Vec<T> {
    fn write_json(&self, out: &mut String) {
        self[..].write_json(out);
    }
}

macro_rules! tuple {
    ($(($($n:tt $t:ident),+))+) => {$(
        impl<A: ToJson, $($t: ToJson),+> ToJson for (A, $($t,)+) {
            fn write_json(&self, out: &mut String) {
                out.push('[');
                self.0.write_json(out);
                $(
                    out.push(',');
                    self.$n.write_json(out);
                )+
                out.push(']');
            }
        }
    )+};
}

tuple! {
    (1 B)
    (1 B, 2 C)
    (1 B, 2 C, 3 D)
}

/// Appends `items` as a JSON array, each element written by `write`.
fn array<I: IntoIterator>(out: &mut String, items: I, mut write: impl FnMut(&mut String, I::Item)) {
    out.push('[');
    for (i, item) in items.into_iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        write(out, item);
    }
    out.push(']');
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

    #[test]
    fn numbers_and_null() {
        let s = object(|o| {
            o.field("a", u64::MAX)
                .field("b", i64::MIN)
                .field("c", 7i32)
                .field("z", 0u64);
            o.field("d", -0.0)
                .field("e", f64::NAN)
                .field("f", 0.1)
                .field("g", None::<u32>)
                .field("t", true);
        });
        let want = concat!(
            r#"{"a":18446744073709551615,"b":-9223372036854775808,"c":7,"z":0,"#,
            r#""d":-0,"e":null,"f":0.1,"g":null,"t":true}"#
        );
        assert_eq!(s, want);
    }

    #[test]
    fn strings_escape_like_the_value_tree() {
        let s = object(|o| {
            o.field("s", "a\"b\\c\nd\re\tf\u{1}g\u{1f}\u{7f}é");
        });
        assert_eq!(
            s,
            r#"{"s":"a\"b\\c\nd\re\tf\u0001g\u001f"#.to_owned() + "\u{7f}é\"}"
        );
    }

    #[test]
    fn nested_objects_arrays_and_empty() {
        assert_eq!(object(|_| {}), "{}");
        let s = object(|o| {
            o.obj("args", |a| {
                a.field("x", 1u8);
            })
            .field("k", "v")
            .arr("rows", [1u8, 2], |out, r| {
                Obj::open(out).field("r", r).close();
            })
            .field("none", Vec::<u8>::new());
        });
        assert_eq!(
            s,
            r#"{"args":{"x":1},"k":"v","rows":[{"r":1},{"r":2}],"none":[]}"#
        );
    }

    #[test]
    fn tuples_and_vecs_are_arrays() {
        let v: Vec<(String, f64, Option<i16>)> =
            vec![("a".into(), 1.5, None), ("b".into(), 2.0, Some(-3))];
        assert_eq!(to_string(&v), r#"[["a",1.5,null],["b",2,-3]]"#);
        assert_eq!(to_string(&vec![vec![0.5f64], vec![]]), "[[0.5],[]]");
    }
}
