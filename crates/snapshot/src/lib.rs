//! Durable state: a hand-rolled, dependency-free binary codec plus the
//! [`Snapshot`] capture/restore trait the rest of the workspace
//! implements.
//!
//! A snapshot file is a versioned container:
//!
//! ```text
//! magic   b"RSNP"                      (4 bytes)
//! version u32 LE                       (FORMAT_VERSION)
//! schemas u64 count, then per schema:  (crate name, FNV-1a layout hash)
//! sections u64 count, then per section: name, u64 byte length, bytes
//! ```
//!
//! Every encoder in the workspace follows the same rules, which together
//! make snapshot bytes *deterministic*: identical state encodes to
//! identical bytes on every platform.
//!
//! * Fixed-width integers are little-endian; container lengths are
//!   `u64`. Encoders may instead write an integer as an unsigned LEB128
//!   varint ([`Writer::varint`]: 7 bits per byte, low group first, the
//!   high bit set on every byte but the last) or a signed one as a
//!   zigzag varint ([`Writer::ivarint`]). A varint has exactly one
//!   encoding: the reader refuses a redundant trailing zero group
//!   (overlong), a tenth byte above 1 (overflow) and a buffer that ends
//!   mid-varint.
//! * `f64` is encoded as its IEEE-754 bit pattern (`to_bits`), never as
//!   text — a restored accumulator continues bit-identically.
//! * Collections encode in their iteration order, which for the
//!   workspace's state types is always a deterministic order (`Vec`,
//!   `VecDeque`, `BTreeMap`); `HashMap`/`HashSet` are banned from
//!   snapshot modules (rhythm-lint rule S01).
//! * Decoders never panic on foreign bytes: a short buffer is
//!   [`SnapshotError::Truncated`], an out-of-range tag is
//!   [`SnapshotError::Corrupt`], and a magic/version/schema mismatch is
//!   [`SnapshotError::Incompatible`] — garbage in never becomes garbage
//!   state.
//!
//! The schema table is the compatibility contract: each crate that
//! contributes state declares a layout-description string (see e.g.
//! `rhythm_sim::SNAPSHOT_SCHEMA`) whose [`schema_hash`] is written into
//! the header. [`SnapshotFile::verify_schemas`] refuses to decode a file
//! whose hashes do not match the code doing the decoding, so a field
//! added to any state type fails loudly instead of mis-aligning every
//! later section.
// The workspace is unsafe-free; lock that in at the crate root. If a
// crate ever genuinely needs `unsafe`, downgrade its forbid to
// `#![deny(unsafe_op_in_unsafe_fn)]` and justify every block with a
// `// SAFETY:` comment (clippy's `undocumented_unsafe_blocks` enforces it).
#![forbid(unsafe_code)]

use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::fmt;

/// File magic: the first four bytes of every snapshot.
pub const MAGIC: [u8; 4] = *b"RSNP";

/// Container format version. Bump on any change to the container layout
/// itself; per-crate layout changes are caught by the schema hashes.
pub const FORMAT_VERSION: u32 = 1;

/// Why a snapshot could not be decoded.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SnapshotError {
    /// The file comes from a different format version or a different
    /// code layout (schema hash mismatch) — decoding would misread
    /// every byte after the divergence.
    Incompatible {
        /// What the running code expected (version or `crate=hash`).
        expected: String,
        /// What the file declared.
        found: String,
    },
    /// The buffer ended before the declared data did.
    Truncated,
    /// Structurally invalid bytes: a bad tag, an impossible length, a
    /// missing section.
    Corrupt(String),
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::Incompatible { expected, found } => {
                write!(
                    f,
                    "incompatible snapshot: expected {expected}, found {found}"
                )
            }
            SnapshotError::Truncated => write!(f, "truncated snapshot"),
            SnapshotError::Corrupt(what) => write!(f, "corrupt snapshot: {what}"),
        }
    }
}

impl std::error::Error for SnapshotError {}

/// FNV-1a over a byte string. Used for schema hashes and for snapshot
/// byte fingerprints (the same hash the cluster uses for machine
/// fingerprints, so goldens read uniformly).
pub const fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    let mut i = 0;
    while i < bytes.len() {
        hash ^= bytes[i] as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        i += 1;
    }
    hash
}

/// Hash of a crate's layout-description string.
pub const fn schema_hash(schema: &str) -> u64 {
    fnv1a(schema.as_bytes())
}

/// An append-only little-endian byte sink.
#[derive(Clone, Debug, Default)]
pub struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    /// An empty writer.
    pub fn new() -> Writer {
        Writer::default()
    }

    /// An empty writer with room for `n` bytes.
    pub fn with_capacity(n: usize) -> Writer {
        Writer {
            buf: Vec::with_capacity(n),
        }
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True if nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Consumes the writer into its bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Appends raw bytes verbatim (no length prefix).
    pub fn raw(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    pub fn bool(&mut self, v: bool) {
        self.buf.push(v as u8);
    }

    pub fn u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub fn u128(&mut self, v: u128) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub fn i16(&mut self, v: i16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub fn i32(&mut self, v: i32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub fn i64(&mut self, v: i64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// IEEE-754 bit pattern — restores bit-identically, NaN included.
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// Length-prefixed UTF-8.
    pub fn str(&mut self, s: &str) {
        self.u64(s.len() as u64);
        self.buf.extend_from_slice(s.as_bytes());
    }

    /// Length-prefixed bytes.
    pub fn bytes(&mut self, b: &[u8]) {
        self.u64(b.len() as u64);
        self.buf.extend_from_slice(b);
    }

    /// Unsigned LEB128: one byte below 128, at most ten for `u64::MAX`.
    #[expect(
        clippy::cast_possible_truncation,
        reason = "each pushed byte is masked to its low seven bits or is below 128"
    )]
    pub fn varint(&mut self, mut v: u64) {
        // Groups go to a stack buffer first, so the output takes one
        // capacity check per value, not one per byte.
        let mut groups = [0u8; 10];
        let mut n = 0;
        while v >= 0x80 {
            groups[n] = (v as u8 & 0x7f) | 0x80;
            v >>= 7;
            n += 1;
        }
        groups[n] = v as u8;
        self.buf.extend_from_slice(&groups[..=n]);
    }

    /// A signed value as the varint of its zigzag form (0, −1, 1, −2, …
    /// map to 0, 1, 2, 3, …), so small magnitudes of either sign take
    /// one byte.
    pub fn ivarint(&mut self, v: i64) {
        self.varint(((v << 1) ^ (v >> 63)).cast_unsigned());
    }
}

/// A cursor over snapshot bytes. Every read checks bounds and returns
/// [`SnapshotError::Truncated`] instead of panicking.
#[derive(Clone, Debug)]
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// A reader over the whole buffer.
    pub fn new(buf: &'a [u8]) -> Reader<'a> {
        Reader { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// True if every byte has been consumed.
    pub fn is_empty(&self) -> bool {
        self.remaining() == 0
    }

    /// Takes the next `n` bytes.
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], SnapshotError> {
        if self.remaining() < n {
            return Err(SnapshotError::Truncated);
        }
        let out = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    pub fn u8(&mut self) -> Result<u8, SnapshotError> {
        Ok(self.take(1)?[0])
    }

    pub fn bool(&mut self) -> Result<bool, SnapshotError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            b => Err(SnapshotError::Corrupt(format!("bool byte {b}"))),
        }
    }

    pub fn u16(&mut self) -> Result<u16, SnapshotError> {
        // PANIC: take(n) returned exactly n bytes.
        Ok(u16::from_le_bytes(
            self.take(2)?.try_into().expect("len checked"),
        ))
    }

    pub fn u32(&mut self) -> Result<u32, SnapshotError> {
        // PANIC: take(n) returned exactly n bytes.
        Ok(u32::from_le_bytes(
            self.take(4)?.try_into().expect("len checked"),
        ))
    }

    pub fn u64(&mut self) -> Result<u64, SnapshotError> {
        // PANIC: take(n) returned exactly n bytes.
        Ok(u64::from_le_bytes(
            self.take(8)?.try_into().expect("len checked"),
        ))
    }

    pub fn u128(&mut self) -> Result<u128, SnapshotError> {
        // PANIC: take(n) returned exactly n bytes.
        Ok(u128::from_le_bytes(
            self.take(16)?.try_into().expect("len checked"),
        ))
    }

    pub fn i16(&mut self) -> Result<i16, SnapshotError> {
        // PANIC: take(n) returned exactly n bytes.
        Ok(i16::from_le_bytes(
            self.take(2)?.try_into().expect("len checked"),
        ))
    }

    pub fn i32(&mut self) -> Result<i32, SnapshotError> {
        // PANIC: take(n) returned exactly n bytes.
        Ok(i32::from_le_bytes(
            self.take(4)?.try_into().expect("len checked"),
        ))
    }

    pub fn i64(&mut self) -> Result<i64, SnapshotError> {
        // PANIC: take(n) returned exactly n bytes.
        Ok(i64::from_le_bytes(
            self.take(8)?.try_into().expect("len checked"),
        ))
    }

    pub fn f64(&mut self) -> Result<f64, SnapshotError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// A length declared by the stream, validated against the bytes
    /// actually left (`min_elem_bytes` is the smallest possible encoding
    /// of one element) so corrupt lengths fail instead of allocating.
    pub fn len(&mut self, min_elem_bytes: usize) -> Result<usize, SnapshotError> {
        let n = self.u64()?;
        let floor = n.saturating_mul(min_elem_bytes.max(1) as u64);
        if floor > self.remaining() as u64 {
            return Err(SnapshotError::Truncated);
        }
        usize::try_from(n).map_err(|_| SnapshotError::Truncated)
    }

    /// A `usize` (an index) the stream stores as a `u64`; one this host's
    /// `usize` cannot hold is [`SnapshotError::Corrupt`].
    pub fn usize(&mut self) -> Result<usize, SnapshotError> {
        let v = self.u64()?;
        usize::try_from(v).map_err(|_| SnapshotError::Corrupt(format!("index {v} exceeds usize")))
    }

    /// Length-prefixed UTF-8.
    pub fn str(&mut self) -> Result<String, SnapshotError> {
        let n = self.len(1)?;
        let bytes = self.take(n)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|_| SnapshotError::Corrupt("non-UTF-8 string".into()))
    }

    /// Length-prefixed bytes.
    pub fn bytes(&mut self) -> Result<&'a [u8], SnapshotError> {
        let n = self.len(1)?;
        self.take(n)
    }

    /// An unsigned LEB128 varint in its one canonical encoding. A buffer
    /// that ends mid-varint is [`SnapshotError::Truncated`]; an overlong
    /// form (a final zero group after the first byte) or a value past
    /// `u64::MAX` is [`SnapshotError::Corrupt`].
    pub fn varint(&mut self) -> Result<u64, SnapshotError> {
        let mut v = 0u64;
        let mut shift = 0;
        loop {
            let b = self.u8()?;
            // The tenth group holds bit 63 alone: anything above 1 (a
            // continuation included) overflows.
            if shift == 63 && b > 1 {
                return Err(SnapshotError::Corrupt("varint overflows u64".into()));
            }
            v |= u64::from(b & 0x7f) << shift;
            if b & 0x80 == 0 {
                if b == 0 && shift > 0 {
                    return Err(SnapshotError::Corrupt("overlong varint".into()));
                }
                return Ok(v);
            }
            shift += 7;
        }
    }

    /// A zigzag varint ([`Writer::ivarint`]).
    pub fn ivarint(&mut self) -> Result<i64, SnapshotError> {
        let z = self.varint()?;
        Ok((z >> 1).cast_signed() ^ -((z & 1).cast_signed()))
    }

    /// A varint that must fit `T` (a narrower integer or a `usize`);
    /// a wider value is [`SnapshotError::Corrupt`] naming `what`.
    pub fn varint_as<T: TryFrom<u64>>(&mut self, what: &str) -> Result<T, SnapshotError> {
        let v = self.varint()?;
        T::try_from(v).map_err(|_| SnapshotError::Corrupt(format!("{what} {v} out of range")))
    }

    /// A zigzag varint that must fit `T`; a wider value is
    /// [`SnapshotError::Corrupt`] naming `what`.
    pub fn ivarint_as<T: TryFrom<i64>>(&mut self, what: &str) -> Result<T, SnapshotError> {
        let v = self.ivarint()?;
        T::try_from(v).map_err(|_| SnapshotError::Corrupt(format!("{what} {v} out of range")))
    }

    /// A varint length, validated like [`Reader::len`]: at least
    /// `min_elem_bytes` per element must remain.
    pub fn varint_len(&mut self, min_elem_bytes: usize) -> Result<usize, SnapshotError> {
        let n = self.varint()?;
        let floor = n.saturating_mul(min_elem_bytes.max(1) as u64);
        if floor > self.remaining() as u64 {
            return Err(SnapshotError::Truncated);
        }
        usize::try_from(n).map_err(|_| SnapshotError::Truncated)
    }
}

/// Deterministic capture/restore of one value.
///
/// Implementations live in the *defining module* of each state type (so
/// private fields stay private) and must satisfy the round-trip law
/// `decode(encode(x)) == x` — property-tested for the stateful types in
/// `tests/properties.rs`.
pub trait Snapshot: Sized {
    /// Appends this value's bytes to `w`.
    fn encode(&self, w: &mut Writer);
    /// Reads one value back. Must consume exactly the bytes `encode`
    /// wrote.
    fn decode(r: &mut Reader<'_>) -> Result<Self, SnapshotError>;
}

macro_rules! snapshot_prim {
    ($($t:ty => $wf:ident),* $(,)?) => {$(
        impl Snapshot for $t {
            fn encode(&self, w: &mut Writer) {
                w.$wf(*self);
            }
            fn decode(r: &mut Reader<'_>) -> Result<Self, SnapshotError> {
                r.$wf()
            }
        }
    )*};
}

snapshot_prim! {
    u8 => u8,
    u16 => u16,
    u32 => u32,
    u64 => u64,
    u128 => u128,
    i16 => i16,
    i32 => i32,
    i64 => i64,
    f64 => f64,
    bool => bool,
}

impl Snapshot for String {
    fn encode(&self, w: &mut Writer) {
        w.str(self);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, SnapshotError> {
        r.str()
    }
}

impl<T: Snapshot> Snapshot for Option<T> {
    fn encode(&self, w: &mut Writer) {
        match self {
            None => w.u8(0),
            Some(v) => {
                w.u8(1);
                v.encode(w);
            }
        }
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, SnapshotError> {
        match r.u8()? {
            0 => Ok(None),
            1 => Ok(Some(T::decode(r)?)),
            t => Err(SnapshotError::Corrupt(format!("Option tag {t}"))),
        }
    }
}

impl<T: Snapshot> Snapshot for Vec<T> {
    fn encode(&self, w: &mut Writer) {
        w.u64(self.len() as u64);
        for v in self {
            v.encode(w);
        }
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, SnapshotError> {
        let n = r.len(1)?;
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            out.push(T::decode(r)?);
        }
        Ok(out)
    }
}

impl<T: Snapshot> Snapshot for VecDeque<T> {
    fn encode(&self, w: &mut Writer) {
        w.u64(self.len() as u64);
        for v in self {
            v.encode(w);
        }
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, SnapshotError> {
        let n = r.len(1)?;
        let mut out = VecDeque::with_capacity(n);
        for _ in 0..n {
            out.push_back(T::decode(r)?);
        }
        Ok(out)
    }
}

impl<K: Snapshot + Ord, V: Snapshot> Snapshot for BTreeMap<K, V> {
    fn encode(&self, w: &mut Writer) {
        w.u64(self.len() as u64);
        for (k, v) in self {
            k.encode(w);
            v.encode(w);
        }
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, SnapshotError> {
        let n = r.len(2)?;
        let mut out = BTreeMap::new();
        for _ in 0..n {
            let k = K::decode(r)?;
            let v = V::decode(r)?;
            // `encode` writes keys strictly ascending; anything else
            // would decode to fewer entries than the stream declares.
            if out.last_key_value().is_some_and(|(last, _)| *last >= k) {
                return Err(SnapshotError::Corrupt(
                    "map keys duplicated or out of order".into(),
                ));
            }
            out.insert(k, v);
        }
        Ok(out)
    }
}

impl<T: Snapshot + Ord> Snapshot for BTreeSet<T> {
    fn encode(&self, w: &mut Writer) {
        w.u64(self.len() as u64);
        for v in self {
            v.encode(w);
        }
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, SnapshotError> {
        let n = r.len(1)?;
        let mut out = BTreeSet::new();
        for _ in 0..n {
            let v = T::decode(r)?;
            if out.last().is_some_and(|last| *last >= v) {
                return Err(SnapshotError::Corrupt(
                    "set elements duplicated or out of order".into(),
                ));
            }
            out.insert(v);
        }
        Ok(out)
    }
}

impl<A: Snapshot, B: Snapshot> Snapshot for (A, B) {
    fn encode(&self, w: &mut Writer) {
        self.0.encode(w);
        self.1.encode(w);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, SnapshotError> {
        Ok((A::decode(r)?, B::decode(r)?))
    }
}

impl<A: Snapshot, B: Snapshot, C: Snapshot> Snapshot for (A, B, C) {
    fn encode(&self, w: &mut Writer) {
        self.0.encode(w);
        self.1.encode(w);
        self.2.encode(w);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, SnapshotError> {
        Ok((A::decode(r)?, B::decode(r)?, C::decode(r)?))
    }
}

impl<A: Snapshot, B: Snapshot, C: Snapshot, D: Snapshot> Snapshot for (A, B, C, D) {
    fn encode(&self, w: &mut Writer) {
        self.0.encode(w);
        self.1.encode(w);
        self.2.encode(w);
        self.3.encode(w);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, SnapshotError> {
        Ok((A::decode(r)?, B::decode(r)?, C::decode(r)?, D::decode(r)?))
    }
}

/// Assembles a snapshot file: schema table plus named sections.
#[derive(Clone, Debug, Default)]
pub struct SnapshotBuilder {
    schemas: Vec<(String, u64)>,
    sections: Vec<(String, Vec<u8>)>,
}

impl SnapshotBuilder {
    /// An empty builder.
    pub fn new() -> SnapshotBuilder {
        SnapshotBuilder::default()
    }

    /// Declares one crate's schema hash.
    pub fn schema(&mut self, crate_name: &str, hash: u64) {
        self.schemas.push((crate_name.to_string(), hash));
    }

    /// Appends one named section.
    pub fn section(&mut self, name: &str, body: Writer) {
        self.sections.push((name.to_string(), body.into_bytes()));
    }

    /// Serializes the container. Identical builder contents produce
    /// identical bytes. The output is allocated once, at its exact size.
    pub fn finish(self) -> Vec<u8> {
        let named = |name: &str| 8 + name.len();
        let size = MAGIC.len()
            + 4
            + 8
            + self
                .schemas
                .iter()
                .map(|(n, _)| named(n) + 8)
                .sum::<usize>()
            + 8
            + self
                .sections
                .iter()
                .map(|(n, body)| named(n) + 8 + body.len())
                .sum::<usize>();
        let mut w = Writer::with_capacity(size);
        w.raw(&MAGIC);
        w.u32(FORMAT_VERSION);
        w.u64(self.schemas.len() as u64);
        for (name, hash) in &self.schemas {
            w.str(name);
            w.u64(*hash);
        }
        w.u64(self.sections.len() as u64);
        for (name, body) in &self.sections {
            w.str(name);
            w.bytes(body);
        }
        debug_assert_eq!(w.len(), size, "container size computed exactly");
        w.into_bytes()
    }
}

/// A parsed snapshot container: validated header plus section table.
/// Section names and bodies borrow the parsed bytes; nothing is copied.
#[derive(Clone, Debug)]
pub struct SnapshotFile<'a> {
    /// The file's declared format version (always [`FORMAT_VERSION`]
    /// after a successful parse).
    pub version: u32,
    schemas: Vec<(String, u64)>,
    sections: Vec<(&'a str, &'a [u8])>,
}

impl<'a> SnapshotFile<'a> {
    /// Parses and validates the container framing: magic, version,
    /// schema table, section table (each name at most once). Section
    /// *bodies* are not decoded — that happens against
    /// [`SnapshotFile::section`] readers.
    pub fn parse(bytes: &'a [u8]) -> Result<SnapshotFile<'a>, SnapshotError> {
        let mut r = Reader::new(bytes);
        let magic = r.take(4)?;
        if magic != MAGIC {
            return Err(SnapshotError::Incompatible {
                // PANIC: MAGIC is a const ASCII byte string.
                expected: format!("magic {:?}", std::str::from_utf8(&MAGIC).expect("ascii")),
                found: format!("magic {magic:?}"),
            });
        }
        let version = r.u32()?;
        if version != FORMAT_VERSION {
            return Err(SnapshotError::Incompatible {
                expected: format!("format v{FORMAT_VERSION}"),
                found: format!("format v{version}"),
            });
        }
        let n_schemas = r.len(9)?;
        let mut schemas = Vec::with_capacity(n_schemas);
        for _ in 0..n_schemas {
            let name = r.str()?;
            let hash = r.u64()?;
            schemas.push((name, hash));
        }
        let n_sections = r.len(9)?;
        let mut sections: Vec<(&'a str, &'a [u8])> = Vec::with_capacity(n_sections);
        for _ in 0..n_sections {
            let name = std::str::from_utf8(r.bytes()?)
                .map_err(|_| SnapshotError::Corrupt("non-UTF-8 section name".into()))?;
            if sections.iter().any(|&(n, _)| n == name) {
                return Err(SnapshotError::Corrupt(format!(
                    "section `{name}` appears twice"
                )));
            }
            sections.push((name, r.bytes()?));
        }
        if !r.is_empty() {
            return Err(SnapshotError::Corrupt(format!(
                "{} trailing bytes after the last section",
                r.remaining()
            )));
        }
        Ok(SnapshotFile {
            version,
            schemas,
            sections,
        })
    }

    /// The declared (crate, schema hash) table.
    pub fn schemas(&self) -> &[(String, u64)] {
        &self.schemas
    }

    /// Section names in file order.
    pub fn section_names(&self) -> impl Iterator<Item = &'a str> + '_ {
        self.sections.iter().map(|&(n, _)| n)
    }

    /// Section names and body lengths in file order.
    pub fn section_sizes(&self) -> impl Iterator<Item = (&'a str, usize)> + '_ {
        self.sections.iter().map(|&(n, body)| (n, body.len()))
    }

    /// Checks the file's schema table against what the running code
    /// expects: every expected crate must be present with the same hash.
    pub fn verify_schemas(&self, expected: &[(&str, u64)]) -> Result<(), SnapshotError> {
        for (name, hash) in expected {
            match self.schemas.iter().find(|(n, _)| n == name) {
                Some((_, found)) if found == hash => {}
                Some((_, found)) => {
                    return Err(SnapshotError::Incompatible {
                        expected: format!("{name}={hash:#018x}"),
                        found: format!("{name}={found:#018x}"),
                    });
                }
                None => {
                    return Err(SnapshotError::Incompatible {
                        expected: format!("{name}={hash:#018x}"),
                        found: format!("{name} absent"),
                    });
                }
            }
        }
        Ok(())
    }

    /// A reader over one section's bytes.
    pub fn section(&self, name: &str) -> Result<Reader<'a>, SnapshotError> {
        self.sections
            .iter()
            .find(|&&(n, _)| n == name)
            .map(|&(_, body)| Reader::new(body))
            .ok_or_else(|| SnapshotError::Corrupt(format!("missing section `{name}`")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip<T: Snapshot + PartialEq + std::fmt::Debug>(v: T) {
        let mut w = Writer::new();
        v.encode(&mut w);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        let back = T::decode(&mut r).expect("decode");
        assert_eq!(back, v);
        assert!(r.is_empty(), "decode consumed exactly the encoding");
    }

    #[test]
    fn primitives_round_trip() {
        round_trip(0u8);
        round_trip(u8::MAX);
        round_trip(u16::MAX);
        round_trip(0xdead_beefu32);
        round_trip(u64::MAX);
        round_trip(u128::MAX);
        round_trip(i64::MIN);
        round_trip(-1i32);
        round_trip(-1i16);
        round_trip(true);
        round_trip(false);
        round_trip(String::from("héllo"));
        round_trip(String::new());
    }

    #[test]
    fn f64_round_trips_bit_exact() {
        for v in [
            0.0,
            -0.0,
            1.5,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::MIN_POSITIVE,
        ] {
            let mut w = Writer::new();
            v.encode(&mut w);
            let bytes = w.into_bytes();
            let back = f64::decode(&mut Reader::new(&bytes)).unwrap();
            assert_eq!(back.to_bits(), v.to_bits());
        }
        // NaN payload survives too.
        let nan = f64::from_bits(0x7ff8_0000_0000_1234);
        let mut w = Writer::new();
        nan.encode(&mut w);
        let bytes = w.into_bytes();
        assert_eq!(
            f64::decode(&mut Reader::new(&bytes)).unwrap().to_bits(),
            nan.to_bits()
        );
    }

    #[test]
    fn containers_round_trip() {
        round_trip(vec![1u64, 2, 3]);
        round_trip(Vec::<u64>::new());
        round_trip(Some(7u32));
        round_trip(Option::<u32>::None);
        round_trip(VecDeque::from([(1u64, 2u32), (3, 4)]));
        round_trip(BTreeMap::from([
            (String::from("a"), 1u64),
            (String::from("b"), 2),
        ]));
        round_trip(BTreeSet::from([(3u8, 9u64, -2i64, 4u64), (1, 2, 3, 4)]));
        round_trip((1u8, 2u64, -3i64));
    }

    #[test]
    fn sorted_containers_refuse_keys_encode_never_writes() {
        for keys in [[2u64, 2], [3, 1]] {
            let mut w = Writer::new();
            w.u64(2);
            for k in keys {
                w.u64(k);
                w.u8(0);
            }
            let bytes = w.into_bytes();
            assert!(matches!(
                BTreeMap::<u64, u8>::decode(&mut Reader::new(&bytes)),
                Err(SnapshotError::Corrupt(_))
            ));
            let mut w = Writer::new();
            w.u64(2);
            w.u64(keys[0]);
            w.u64(keys[1]);
            assert!(matches!(
                BTreeSet::<u64>::decode(&mut Reader::new(&w.into_bytes())),
                Err(SnapshotError::Corrupt(_))
            ));
        }
    }

    #[test]
    fn identical_state_identical_bytes() {
        let enc = |m: &BTreeMap<String, f64>| {
            let mut w = Writer::new();
            m.encode(&mut w);
            w.into_bytes()
        };
        let a = BTreeMap::from([(String::from("x"), 1.5), (String::from("y"), -0.0)]);
        let b = a.clone();
        assert_eq!(enc(&a), enc(&b));
    }

    #[test]
    fn truncated_reads_error() {
        let mut w = Writer::new();
        vec![1u64, 2, 3].encode(&mut w);
        let bytes = w.into_bytes();
        for cut in 0..bytes.len() {
            let err = Vec::<u64>::decode(&mut Reader::new(&bytes[..cut]));
            assert!(err.is_err(), "cut at {cut} must fail");
        }
    }

    #[test]
    fn absurd_length_is_truncated_not_oom() {
        let mut w = Writer::new();
        w.u64(u64::MAX); // Claims 2^64-1 elements.
        let bytes = w.into_bytes();
        assert_eq!(
            Vec::<u64>::decode(&mut Reader::new(&bytes)),
            Err(SnapshotError::Truncated)
        );
    }

    #[test]
    fn bad_tags_are_corrupt() {
        assert!(matches!(
            Option::<u8>::decode(&mut Reader::new(&[9, 0])),
            Err(SnapshotError::Corrupt(_))
        ));
        assert!(matches!(
            bool::decode(&mut Reader::new(&[2])),
            Err(SnapshotError::Corrupt(_))
        ));
    }

    fn demo_file() -> Vec<u8> {
        let mut b = SnapshotBuilder::new();
        b.schema("rhythm-sim", schema_hash("rng:seed,state"));
        b.schema("rhythm-cluster", schema_hash("sched:v1"));
        let mut body = Writer::new();
        body.u64(42);
        b.section("meta", body);
        let mut body = Writer::new();
        body.str("payload");
        b.section("scheduler", body);
        b.finish()
    }

    #[test]
    fn container_round_trips() {
        let bytes = demo_file();
        let f = SnapshotFile::parse(&bytes).unwrap();
        assert_eq!(f.version, FORMAT_VERSION);
        assert_eq!(f.schemas().len(), 2);
        assert_eq!(
            f.section_names().collect::<Vec<_>>(),
            vec!["meta", "scheduler"]
        );
        assert_eq!(f.section("meta").unwrap().u64().unwrap(), 42);
        assert_eq!(f.section("scheduler").unwrap().str().unwrap(), "payload");
        f.verify_schemas(&[("rhythm-sim", schema_hash("rng:seed,state"))])
            .unwrap();
    }

    #[test]
    fn deterministic_container_bytes() {
        assert_eq!(demo_file(), demo_file());
    }

    #[test]
    fn bad_magic_is_incompatible() {
        let mut bytes = demo_file();
        bytes[0] = b'X';
        assert!(matches!(
            SnapshotFile::parse(&bytes),
            Err(SnapshotError::Incompatible { .. })
        ));
    }

    #[test]
    fn future_version_is_incompatible() {
        let mut bytes = demo_file();
        bytes[4] = 0xFF; // version LE low byte
        let err = SnapshotFile::parse(&bytes).unwrap_err();
        match err {
            SnapshotError::Incompatible { expected, found } => {
                assert!(
                    expected.contains(&format!("v{FORMAT_VERSION}")),
                    "{expected}"
                );
                assert!(found.contains("v255"), "{found}");
            }
            other => panic!("expected Incompatible, got {other:?}"),
        }
    }

    #[test]
    fn schema_mismatch_is_incompatible() {
        let bytes = demo_file();
        let f = SnapshotFile::parse(&bytes).unwrap();
        let err = f
            .verify_schemas(&[("rhythm-sim", schema_hash("rng:seed,state,EXTRA"))])
            .unwrap_err();
        assert!(matches!(err, SnapshotError::Incompatible { .. }));
        let err = f.verify_schemas(&[("rhythm-missing", 1)]).unwrap_err();
        assert!(matches!(err, SnapshotError::Incompatible { .. }));
    }

    #[test]
    fn truncated_file_errors() {
        let bytes = demo_file();
        for cut in 0..bytes.len() {
            assert!(
                SnapshotFile::parse(&bytes[..cut]).is_err(),
                "cut at {cut} must fail"
            );
        }
    }

    #[test]
    fn trailing_bytes_are_corrupt() {
        let mut bytes = demo_file();
        bytes.push(0);
        assert!(matches!(
            SnapshotFile::parse(&bytes),
            Err(SnapshotError::Corrupt(_))
        ));
    }

    #[test]
    fn missing_section_is_corrupt() {
        let bytes = demo_file();
        let f = SnapshotFile::parse(&bytes).unwrap();
        assert!(matches!(
            f.section("engines"),
            Err(SnapshotError::Corrupt(_))
        ));
    }

    #[test]
    fn varints_round_trip_at_every_width() {
        let mut edges = vec![0u64, 1, 127, 128, 255, 300, u64::MAX - 1, u64::MAX];
        edges.extend((1..64).flat_map(|b| [(1u64 << b) - 1, 1 << b]));
        for v in edges {
            let mut w = Writer::new();
            w.varint(v);
            let bytes = w.into_bytes();
            let bits = 64 - (v | 1).leading_zeros() as usize;
            assert_eq!(bytes.len(), bits.div_ceil(7), "{v}: 7 bits a byte");
            let mut r = Reader::new(&bytes);
            assert_eq!(r.varint(), Ok(v));
            assert!(r.is_empty());
        }
        for v in [0i64, -1, 1, -64, 63, 64, -65, i64::MIN, i64::MAX] {
            let mut w = Writer::new();
            w.ivarint(v);
            let bytes = w.into_bytes();
            assert_eq!(Reader::new(&bytes).ivarint(), Ok(v));
            if (-64..64).contains(&v) {
                assert_eq!(bytes.len(), 1, "{v} takes one byte");
            }
        }
    }

    #[test]
    fn varints_refuse_every_form_encode_never_writes() {
        let corrupt =
            |bytes: &[u8]| matches!(Reader::new(bytes).varint(), Err(SnapshotError::Corrupt(_)));
        // Overlong: a redundant zero group.
        assert!(corrupt(&[0x80, 0x00]));
        assert!(corrupt(&[0xff, 0x80, 0x00]));
        // Overflow: a tenth byte above 1, or one that continues.
        assert!(corrupt(&[
            0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x02
        ]));
        assert!(corrupt(&[
            0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x81, 0x00
        ]));
        // Cut off: the buffer ends while the high bit promises more.
        for cut in [&[][..], &[0x80], &[0xff, 0xff]] {
            assert_eq!(Reader::new(cut).varint(), Err(SnapshotError::Truncated));
        }
        // Narrowing and lengths.
        let mut w = Writer::new();
        w.varint(70_000);
        let bytes = w.into_bytes();
        assert!(matches!(
            Reader::new(&bytes).varint_as::<u16>("machine"),
            Err(SnapshotError::Corrupt(_))
        ));
        assert_eq!(Reader::new(&bytes).varint_as::<u32>("instance"), Ok(70_000));
        assert_eq!(
            Reader::new(&bytes).varint_len(1),
            Err(SnapshotError::Truncated)
        );
        let mut w = Writer::new();
        w.ivarint(-40_000);
        assert!(matches!(
            Reader::new(&w.into_bytes()).ivarint_as::<i16>("slack"),
            Err(SnapshotError::Corrupt(_))
        ));
    }

    #[test]
    fn container_is_allocated_at_its_exact_size() {
        let bytes = demo_file();
        assert_eq!(bytes.capacity(), bytes.len());
        let f = SnapshotFile::parse(&bytes).unwrap();
        assert_eq!(
            f.section_sizes().collect::<Vec<_>>(),
            vec![("meta", 8), ("scheduler", 15)]
        );
    }

    #[test]
    fn duplicated_section_is_corrupt() {
        let mut b = SnapshotBuilder::new();
        for _ in 0..2 {
            let mut body = Writer::new();
            body.u64(42);
            b.section("meta", body);
        }
        assert!(matches!(
            SnapshotFile::parse(&b.finish()),
            Err(SnapshotError::Corrupt(_))
        ));
    }

    #[test]
    fn fnv1a_matches_reference_vector() {
        // FNV-1a 64-bit test vectors.
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
    }
}
