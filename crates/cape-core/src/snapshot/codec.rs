//! Byte-level wire codec for the snapshot format: little-endian integer
//! primitives, length-prefixed strings, CRC-32, and the [`Value`] /
//! [`Model`] encoders shared by every section.
//!
//! Readers are *adversarial-input safe*: every read is bounds-checked
//! against the remaining input and every count prefix is validated
//! against the bytes that could possibly back it before anything is
//! allocated, so a corrupted length field can never trigger an
//! out-of-memory allocation or an out-of-bounds slice.

use cape_data::{AggFunc, Value, ValueType};
use cape_regress::{Model, ModelType};

/// IEEE CRC-32 (polynomial `0xEDB88320`) tables for slice-by-8:
/// `tables[0]` is the bytewise table, and `tables[k][b]` is the CRC
/// register after byte `b` followed by `k` zero bytes, so eight table
/// loads advance the register by eight bytes at once.
const fn crc_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 { 0xEDB8_8320 ^ (c >> 1) } else { c >> 1 };
            k += 1;
        }
        tables[0][i] = c;
        i += 1;
    }
    let mut i = 0;
    while i < 256 {
        let mut k = 1;
        while k < 8 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            k += 1;
        }
        i += 1;
    }
    tables
}

static CRC_TABLES: [[u32; 256]; 8] = crc_tables();

/// CRC-32 of a byte slice (IEEE, as used by zip/png), eight bytes per
/// step, then the tail one byte at a time.
pub fn crc32(bytes: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut c = 0xFFFF_FFFFu32;
    let mut chunks = bytes.chunks_exact(8);
    for chunk in &mut chunks {
        let lo = c ^ u32::from_le_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]);
        let hi = u32::from_le_bytes([chunk[4], chunk[5], chunk[6], chunk[7]]);
        c = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xFF) as usize]
            ^ t[2][((hi >> 8) & 0xFF) as usize]
            ^ t[1][((hi >> 16) & 0xFF) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &b in chunks.remainder() {
        c = t[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    c ^ 0xFFFF_FFFF
}

/// Canonical bit pattern of an `f64` for serialization: every NaN
/// collapses to the one canonical quiet NaN and `-0.0` collapses to
/// `+0.0`, mirroring the canonicalization [`Value`] applies for hashing
/// and equality. Byte-identical snapshots for semantically equal stores.
pub fn canonical_f64_bits(x: f64) -> u64 {
    if x.is_nan() {
        f64::NAN.to_bits()
    } else if x == 0.0 {
        0
    } else {
        x.to_bits()
    }
}

/// A decoding failure inside a section payload. The snapshot layer maps
/// this to `SnapshotError::SectionCorrupt` with the section's name.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WireError {
    /// The input ended before the value was complete.
    Short,
    /// A tag, count, or string was structurally invalid.
    Invalid(&'static str),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Short => f.write_str("input too short"),
            WireError::Invalid(what) => write!(f, "invalid {what}"),
        }
    }
}

/// Growable little-endian byte sink.
#[derive(Debug, Default)]
pub struct ByteWriter {
    buf: Vec<u8>,
}

impl ByteWriter {
    /// Empty writer.
    pub fn new() -> Self {
        ByteWriter::default()
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True when nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Finish and take the buffer.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Append a single byte.
    pub fn u8(&mut self, x: u8) {
        self.buf.push(x);
    }

    /// Append a `u32`, little-endian.
    pub fn u32(&mut self, x: u32) {
        self.buf.extend_from_slice(&x.to_le_bytes());
    }

    /// Append a `u64`, little-endian.
    pub fn u64(&mut self, x: u64) {
        self.buf.extend_from_slice(&x.to_le_bytes());
    }

    /// Append an `i64`, little-endian.
    pub fn i64(&mut self, x: i64) {
        self.buf.extend_from_slice(&x.to_le_bytes());
    }

    /// Append an `f64` as its [canonical](canonical_f64_bits) bit pattern.
    pub fn f64(&mut self, x: f64) {
        self.u64(canonical_f64_bits(x));
    }

    /// Append raw bytes (no length prefix).
    pub fn bytes(&mut self, b: &[u8]) {
        self.buf.extend_from_slice(b);
    }

    /// Append a `u32`-length-prefixed UTF-8 string.
    pub fn str(&mut self, s: &str) {
        self.u32(s.len() as u32);
        self.buf.extend_from_slice(s.as_bytes());
    }
}

/// Bounds-checked little-endian byte source.
#[derive(Debug)]
pub struct ByteReader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> ByteReader<'a> {
    /// Read from a slice.
    pub fn new(bytes: &'a [u8]) -> Self {
        ByteReader { bytes, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    /// True when every byte has been consumed.
    pub fn is_empty(&self) -> bool {
        self.remaining() == 0
    }

    /// Take `n` raw bytes.
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        if self.remaining() < n {
            return Err(WireError::Short);
        }
        let out = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    /// Read one byte.
    pub fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }

    /// Read a little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, WireError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("4 bytes")))
    }

    /// Read a little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, WireError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8 bytes")))
    }

    /// Read a little-endian `i64`.
    pub fn i64(&mut self) -> Result<i64, WireError> {
        Ok(i64::from_le_bytes(self.take(8)?.try_into().expect("8 bytes")))
    }

    /// Read an `f64` from its bit pattern.
    pub fn f64(&mut self) -> Result<f64, WireError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Read a `u64` that must fit a `usize` (counts, supports).
    pub fn usize(&mut self) -> Result<usize, WireError> {
        usize::try_from(self.u64()?).map_err(|_| WireError::Invalid("count"))
    }

    /// Read a `u32` element count and validate it against the remaining
    /// input: each element occupies at least `min_elem_bytes`, so a count
    /// larger than `remaining / min_elem_bytes` is corrupt — rejecting it
    /// here keeps a flipped length byte from requesting a giant
    /// allocation.
    pub fn count(&mut self, min_elem_bytes: usize) -> Result<usize, WireError> {
        let n = self.u32()? as usize;
        if n > self.remaining() / min_elem_bytes.max(1) {
            return Err(WireError::Invalid("count"));
        }
        Ok(n)
    }

    /// Read a `u32`-length-prefixed UTF-8 string.
    pub fn str(&mut self) -> Result<String, WireError> {
        let n = self.count(1)?;
        let bytes = self.take(n)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| WireError::Invalid("utf-8 string"))
    }
}

// --- domain codecs ---------------------------------------------------------

const VALUE_NULL: u8 = 0;
const VALUE_INT: u8 = 1;
const VALUE_FLOAT: u8 = 2;
const VALUE_STR: u8 = 3;

/// Encode one [`Value`].
pub fn write_value(w: &mut ByteWriter, v: &Value) {
    match v {
        Value::Null => w.u8(VALUE_NULL),
        Value::Int(i) => {
            w.u8(VALUE_INT);
            w.i64(*i);
        }
        Value::Float(f) => {
            w.u8(VALUE_FLOAT);
            w.f64(*f);
        }
        Value::Str(s) => {
            w.u8(VALUE_STR);
            w.str(s);
        }
    }
}

/// Decode one [`Value`].
pub fn read_value(r: &mut ByteReader) -> Result<Value, WireError> {
    match r.u8()? {
        VALUE_NULL => Ok(Value::Null),
        VALUE_INT => Ok(Value::Int(r.i64()?)),
        VALUE_FLOAT => Ok(Value::Float(r.f64()?)),
        VALUE_STR => Ok(Value::str(r.str()?)),
        _ => Err(WireError::Invalid("value tag")),
    }
}

/// Encode a [`ValueType`] as one byte.
pub fn write_value_type(w: &mut ByteWriter, ty: ValueType) {
    w.u8(match ty {
        ValueType::Int => 0,
        ValueType::Float => 1,
        ValueType::Str => 2,
    });
}

/// Decode a [`ValueType`].
pub fn read_value_type(r: &mut ByteReader) -> Result<ValueType, WireError> {
    match r.u8()? {
        0 => Ok(ValueType::Int),
        1 => Ok(ValueType::Float),
        2 => Ok(ValueType::Str),
        _ => Err(WireError::Invalid("value type tag")),
    }
}

/// Encode an [`AggFunc`] as one byte.
pub fn write_agg(w: &mut ByteWriter, agg: AggFunc) {
    w.u8(match agg {
        AggFunc::Count => 0,
        AggFunc::Sum => 1,
        AggFunc::Min => 2,
        AggFunc::Max => 3,
        AggFunc::Avg => 4,
    });
}

/// Decode an [`AggFunc`].
pub fn read_agg(r: &mut ByteReader) -> Result<AggFunc, WireError> {
    match r.u8()? {
        0 => Ok(AggFunc::Count),
        1 => Ok(AggFunc::Sum),
        2 => Ok(AggFunc::Min),
        3 => Ok(AggFunc::Max),
        4 => Ok(AggFunc::Avg),
        _ => Err(WireError::Invalid("aggregate tag")),
    }
}

/// Encode a [`ModelType`] as one byte.
pub fn write_model_type(w: &mut ByteWriter, ty: ModelType) {
    w.u8(match ty {
        ModelType::Const => 0,
        ModelType::Lin => 1,
        ModelType::Quad => 2,
    });
}

/// Decode a [`ModelType`].
pub fn read_model_type(r: &mut ByteReader) -> Result<ModelType, WireError> {
    match r.u8()? {
        0 => Ok(ModelType::Const),
        1 => Ok(ModelType::Lin),
        2 => Ok(ModelType::Quad),
        _ => Err(WireError::Invalid("model type tag")),
    }
}

fn write_coefs(w: &mut ByteWriter, coefs: &[f64]) {
    w.u32(coefs.len() as u32);
    for &c in coefs {
        w.f64(c);
    }
}

fn read_coefs(r: &mut ByteReader) -> Result<Vec<f64>, WireError> {
    let n = r.count(8)?;
    (0..n).map(|_| r.f64()).collect()
}

/// Encode a fitted [`Model`].
pub fn write_model(w: &mut ByteWriter, m: &Model) {
    match m {
        Model::Constant { beta } => {
            w.u8(0);
            w.f64(*beta);
        }
        Model::Linear { intercept, coefs } => {
            w.u8(1);
            w.f64(*intercept);
            write_coefs(w, coefs);
        }
        Model::Quadratic { intercept, lin, quad } => {
            w.u8(2);
            w.f64(*intercept);
            write_coefs(w, lin);
            write_coefs(w, quad);
        }
    }
}

/// Decode a fitted [`Model`].
pub fn read_model(r: &mut ByteReader) -> Result<Model, WireError> {
    match r.u8()? {
        0 => Ok(Model::Constant { beta: r.f64()? }),
        1 => Ok(Model::Linear { intercept: r.f64()?, coefs: read_coefs(r)? }),
        2 => {
            Ok(Model::Quadratic { intercept: r.f64()?, lin: read_coefs(r)?, quad: read_coefs(r)? })
        }
        _ => Err(WireError::Invalid("model tag")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_known_vectors() {
        // Standard check value for the ASCII digits.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"The quick brown fox jumps over the lazy dog"), 0x414F_A339);
    }

    /// The bytewise table loop, one byte per step.
    fn crc32_bytewise(bytes: &[u8]) -> u32 {
        let mut c = 0xFFFF_FFFFu32;
        for &b in bytes {
            c = CRC_TABLES[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
        }
        c ^ 0xFFFF_FFFF
    }

    #[test]
    fn crc32_equals_the_bytewise_loop() {
        // splitmix64 bytes: random lengths 0–4,096 at unaligned starts.
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = || {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        let buf: Vec<u8> = (0..4096 + 8).map(|_| next() as u8).collect();
        for start in 0..8 {
            for len in 0..=64 {
                let s = &buf[start..start + len];
                assert_eq!(crc32(s), crc32_bytewise(s), "start {start} len {len}");
            }
        }
        for _ in 0..500 {
            let start = (next() % 8) as usize;
            let len = (next() % 4097) as usize;
            let s = &buf[start..start + len];
            assert_eq!(crc32(s), crc32_bytewise(s), "start {start} len {len}");
        }
    }

    #[test]
    fn primitives_roundtrip() {
        let mut w = ByteWriter::new();
        w.u8(7);
        w.u32(0xDEAD_BEEF);
        w.u64(u64::MAX - 3);
        w.i64(-42);
        w.f64(3.5);
        w.str("héllo");
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        assert_eq!(r.u8().unwrap(), 7);
        assert_eq!(r.u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.u64().unwrap(), u64::MAX - 3);
        assert_eq!(r.i64().unwrap(), -42);
        assert_eq!(r.f64().unwrap(), 3.5);
        assert_eq!(r.str().unwrap(), "héllo");
        assert!(r.is_empty());
    }

    #[test]
    fn short_input_is_an_error_not_a_panic() {
        let mut r = ByteReader::new(&[1, 2]);
        assert_eq!(r.u32(), Err(WireError::Short));
        let mut r = ByteReader::new(&[]);
        assert_eq!(r.u8(), Err(WireError::Short));
    }

    #[test]
    fn count_rejects_absurd_lengths() {
        // A length prefix claiming 4 billion elements over a 2-byte tail.
        let mut w = ByteWriter::new();
        w.u32(u32::MAX);
        w.u8(0);
        w.u8(0);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        assert_eq!(r.count(8), Err(WireError::Invalid("count")));
    }

    #[test]
    fn nan_and_negative_zero_canonicalized() {
        assert_eq!(canonical_f64_bits(f64::NAN), canonical_f64_bits(-f64::NAN));
        assert_eq!(canonical_f64_bits(-0.0), canonical_f64_bits(0.0));
        assert_ne!(canonical_f64_bits(1.0), canonical_f64_bits(-1.0));
    }

    #[test]
    fn value_and_model_roundtrip() {
        let values = [
            Value::Null,
            Value::Int(i64::MIN),
            Value::Float(-2.5),
            Value::Float(f64::NAN),
            Value::str("a|b %20 \n 北京"),
            Value::str(""),
        ];
        for v in &values {
            let mut w = ByteWriter::new();
            write_value(&mut w, v);
            let bytes = w.into_bytes();
            let mut r = ByteReader::new(&bytes);
            assert_eq!(&read_value(&mut r).unwrap(), v);
            assert!(r.is_empty());
        }
        let models = [
            Model::Constant { beta: 4.5 },
            Model::Linear { intercept: -1.25, coefs: vec![0.5, 3.0] },
            Model::Quadratic { intercept: 0.5, lin: vec![1.0, -2.0], quad: vec![0.25, 4.0] },
        ];
        for m in &models {
            let mut w = ByteWriter::new();
            write_model(&mut w, m);
            let bytes = w.into_bytes();
            let mut r = ByteReader::new(&bytes);
            assert_eq!(&read_model(&mut r).unwrap(), m);
            assert!(r.is_empty());
        }
    }
}
