//! The workspace's one JSON writer: values are written straight into a
//! [`Sink`], compact, with no intermediate value tree. The telemetry
//! exports stream through it, and every `results/` document is written
//! with it (the bench harness re-indents the compact text).
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
//!
//! Sink contract: every value is written through the four [`Sink`]
//! primitives — raw ASCII, an unsigned integer, a float and an escaped
//! string. A `String` appends the text. The crate's byte counter
//! (`Count`) adds up lengths instead: raw text, integers and strings
//! exactly, a float as an upper bound on its `Display` length. Running a
//! writer over the counter first sizes its text without formatting it.

use std::fmt::Write;

/// Where JSON text goes: the writer's four primitives.
pub trait Sink {
    /// Appends `s` as it is: keys, punctuation and literals (ASCII).
    fn raw(&mut self, s: &str);
    /// Appends `v` in decimal.
    fn uint(&mut self, v: u64);
    /// Appends `v` with `{}` `Display`, or `null` if it is not finite.
    fn float(&mut self, v: f64);
    /// Appends `s` as a quoted, escaped JSON string.
    fn string(&mut self, s: &str);
}

impl Sink for String {
    fn raw(&mut self, s: &str) {
        self.push_str(s);
    }

    fn uint(&mut self, v: u64) {
        push_u64(self, v);
    }

    fn float(&mut self, v: f64) {
        if v.is_finite() {
            write!(self, "{v}").expect("writing to a String cannot fail");
        } else {
            self.push_str("null");
        }
    }

    fn string(&mut self, s: &str) {
        push_escaped(self, s);
    }
}

/// A sink that writes nothing and counts the bytes a `String` would
/// receive, floats by their upper bound ([`float_len_bound`]).
#[derive(Debug, Default)]
pub(crate) struct Count(pub(crate) usize);

impl Sink for Count {
    fn raw(&mut self, s: &str) {
        self.0 += s.len();
    }

    fn uint(&mut self, v: u64) {
        self.0 += v.checked_ilog10().map_or(1, |d| d as usize + 1);
    }

    fn float(&mut self, v: f64) {
        self.0 += float_len_bound(v);
    }

    fn string(&mut self, s: &str) {
        self.0 += 2 + s
            .bytes()
            .map(|b| match b {
                b'"' | b'\\' | b'\n' | b'\r' | b'\t' => 2,
                0..=0x1f => 6,
                _ => 1,
            })
            .sum::<usize>();
    }
}

/// An upper bound on the length of `v` as written by [`Sink::float`]:
/// `null`, `0`/`-0`, or `{}` `Display`, which never uses an exponent:
/// at most 20 characters of sign, point and digits plus one digit or
/// leading zero per factor of ten in the magnitude, which is below
/// `|e2| · log10 2 + 2` for binary exponent `e2`.
fn float_len_bound(v: f64) -> usize {
    if !v.is_finite() {
        return 4;
    }
    if v == 0.0 {
        return 2;
    }
    let biased = (v.to_bits() >> 52) & 0x7ff;
    // Subnormals sit below 2^-1022, down to 2^-1074.
    let e2 = if biased == 0 {
        1074
    } else {
        biased.abs_diff(1023)
    };
    // 1233 / 4096 < log10 2 by less than 1 / 100,000.
    24 + ((e2 * 1233) >> 12) as usize
}

/// A value with a JSON form. Output types implement it by hand in the
/// crate that owns them, writing their fields in declaration order.
pub trait ToJson {
    /// Writes `self` as compact JSON to `out`.
    fn write_json(&self, out: &mut impl Sink);
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
pub struct Obj<'a, S: Sink = String> {
    out: &'a mut S,
    empty: bool,
}

impl<'a, S: Sink> Obj<'a, S> {
    /// Opens an object at the end of `out`.
    pub fn open(out: &'a mut S) -> Obj<'a, S> {
        out.raw("{");
        Obj { out, empty: true }
    }

    fn key(&mut self, key: &'static str) -> &mut S {
        if !self.empty {
            self.out.raw(",");
        }
        self.empty = false;
        self.out.raw("\"");
        self.out.raw(key);
        self.out.raw("\":");
        self.out
    }

    /// Writes `key` with the value `v`.
    pub fn field(&mut self, key: &'static str, v: impl ToJson) -> &mut Self {
        v.write_json(self.key(key));
        self
    }

    /// Writes `key` with a nested object filled by `fill`.
    pub fn obj(&mut self, key: &'static str, fill: impl FnOnce(&mut Obj<'_, S>)) -> &mut Self {
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
        write: impl FnMut(&mut S, I::Item),
    ) -> &mut Self {
        array(self.key(key), items, write);
        self
    }

    /// Ends the object.
    pub fn close(&mut self) {
        self.out.raw("}");
    }
}

macro_rules! unsigned {
    ($($t:ty),*) => {$(
        impl ToJson for $t {
            #[allow(clippy::cast_lossless, reason = "`u64` and `usize` share the macro and have no `From` into `u64`; every listed type fits")]
            fn write_json(&self, out: &mut impl Sink) {
                out.uint(*self as u64);
            }
        }
    )*};
}

unsigned!(u8, u16, u32, u64, usize);

macro_rules! signed {
    ($($t:ty),*) => {$(
        impl ToJson for $t {
            fn write_json(&self, out: &mut impl Sink) {
                if *self < 0 {
                    out.raw("-");
                }
                out.uint(u64::from(self.unsigned_abs()));
            }
        }
    )*};
}

signed!(i16, i32, i64);

impl ToJson for f64 {
    fn write_json(&self, out: &mut impl Sink) {
        out.float(*self);
    }
}

impl ToJson for bool {
    fn write_json(&self, out: &mut impl Sink) {
        out.raw(if *self { "true" } else { "false" });
    }
}

impl ToJson for str {
    fn write_json(&self, out: &mut impl Sink) {
        out.string(self);
    }
}

impl ToJson for String {
    fn write_json(&self, out: &mut impl Sink) {
        out.string(self);
    }
}

impl<T: ToJson + ?Sized> ToJson for &T {
    fn write_json(&self, out: &mut impl Sink) {
        (**self).write_json(out);
    }
}

impl<T: ToJson> ToJson for Option<T> {
    fn write_json(&self, out: &mut impl Sink) {
        match self {
            Some(v) => v.write_json(out),
            None => out.raw("null"),
        }
    }
}

impl<T: ToJson> ToJson for [T] {
    fn write_json(&self, out: &mut impl Sink) {
        array(out, self, |out, v| v.write_json(out));
    }
}

impl<T: ToJson> ToJson for Vec<T> {
    fn write_json(&self, out: &mut impl Sink) {
        self[..].write_json(out);
    }
}

macro_rules! tuple {
    ($(($($n:tt $t:ident),+))+) => {$(
        impl<A: ToJson, $($t: ToJson),+> ToJson for (A, $($t,)+) {
            fn write_json(&self, out: &mut impl Sink) {
                out.raw("[");
                self.0.write_json(out);
                $(
                    out.raw(",");
                    self.$n.write_json(out);
                )+
                out.raw("]");
            }
        }
    )+};
}

tuple! {
    (1 B)
    (1 B, 2 C)
    (1 B, 2 C, 3 D)
}

/// Writes `items` as a JSON array, each element written by `write`.
fn array<S: Sink, I: IntoIterator>(out: &mut S, items: I, mut write: impl FnMut(&mut S, I::Item)) {
    out.raw("[");
    for (i, item) in items.into_iter().enumerate() {
        if i > 0 {
            out.raw(",");
        }
        write(out, item);
    }
    out.raw("]");
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

    /// A float-free object holding every escape class and the widest
    /// integers.
    fn float_free<S: Sink>(out: &mut S) {
        Obj::open(out)
            .field("s", "q\"b\\n\nr\rt\t\u{1}\u{1f}\u{7f}é")
            .field("u", u64::MAX)
            .field("z", 0u8)
            .field("i", i64::MIN)
            .field("o", None::<u8>)
            .field("b", (true, false))
            .arr("a", [9u32, 10, 99, 100], |out, v| v.write_json(out))
            .obj("n", |n| {
                n.field("e", "");
            })
            .close();
    }

    #[test]
    fn count_is_exact_without_floats() {
        let mut text = String::new();
        let mut size = Count::default();
        float_free(&mut text);
        float_free(&mut size);
        assert_eq!(size.0, text.len(), "{text}");
    }

    #[test]
    fn float_bound_covers_display_at_every_exponent() {
        let mut values = vec![
            f64::MAX,
            f64::MIN,
            f64::MIN_POSITIVE,
            f64::EPSILON,
            5e-324,
            -f64::from_bits(0x000f_ffff_ffff_ffff),
            0.1,
            -0.30000000000000004,
            1e-5,
            123_456_789.123_456_78,
            1e21,
            1.797_693_134_862_315_7e308,
            -0.0,
            f64::NAN,
            f64::NEG_INFINITY,
        ];
        for e in -1074..=1023 {
            let x = 2f64.powi(e);
            values.extend([x, x * 1.999_999_999_999_999_8, -x * 1.1, x * 0.7]);
        }
        for v in values {
            let text = to_string(&v);
            assert!(
                text.len() <= float_len_bound(v),
                "{v:e}: {} > {}",
                text.len(),
                float_len_bound(v)
            );
        }
        assert_eq!(float_len_bound(f64::NAN), "null".len());
    }
}
