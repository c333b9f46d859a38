//! Typed columnar storage: the slab-backed `Column` behind [`crate::Relation`].
//!
//! Each attribute is stored as a compact typed slab — `i64` / `f64` data
//! words, dictionary-coded strings, and a null bitmap — instead of a
//! `Vec<Value>`. Hot paths (grouping, sorting, fragment fitting) read the
//! raw slabs without per-cell enum dispatch; the `Value`-level API is
//! materialized on demand. A column whose incoming values violate its
//! declared type degrades losslessly to [`Column::Mixed`] (a plain
//! `Vec<Value>`), so the typed layout is an optimization, never a
//! constraint.
//!
//! Slabs are either owned vectors or zero-copy views into a shared
//! [`crate::mmap::MapRegion`] (an mmapped snapshot). Mutating a mapped
//! slab first promotes it to an owned copy (copy-on-write).
//!
//! Float slabs store canonicalized bits: every NaN collapses to the one
//! canonical NaN and `-0.0` to `+0.0`, matching [`crate::value::Value`]'s
//! equality/hashing and the snapshot codec's canonical float encoding.

use crate::mmap::MapRegion;
use crate::value::{Value, ValueType};
use std::collections::HashMap;
use std::sync::Arc;

/// Bit-packed null flags for one column (bit set ⇒ NULL).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct NullBitmap {
    words: Vec<u64>,
    len: usize,
    ones: usize,
}

impl NullBitmap {
    /// Empty bitmap.
    pub fn new() -> Self {
        NullBitmap::default()
    }

    /// Empty bitmap pre-sized for `capacity` rows.
    pub fn with_capacity(capacity: usize) -> Self {
        NullBitmap { words: Vec::with_capacity(capacity.div_ceil(64)), len: 0, ones: 0 }
    }

    /// Rebuild from raw words (e.g. a snapshot section). Bits past `len`
    /// are ignored and cleared so equality stays canonical.
    pub fn from_words(mut words: Vec<u64>, len: usize) -> Self {
        words.truncate(len.div_ceil(64));
        words.resize(len.div_ceil(64), 0);
        if !len.is_multiple_of(64) {
            if let Some(last) = words.last_mut() {
                *last &= (1u64 << (len % 64)) - 1;
            }
        }
        let ones = words.iter().map(|w| w.count_ones() as usize).sum();
        NullBitmap { words, len, ones }
    }

    /// The raw words (for serialization).
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// Number of rows tracked.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no rows are tracked.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of NULL rows.
    pub fn null_count(&self) -> usize {
        self.ones
    }

    /// True when no row is NULL (the dense fast-path guard).
    pub fn no_nulls(&self) -> bool {
        self.ones == 0
    }

    /// Append one flag.
    pub fn push(&mut self, is_null: bool) {
        let (word, bit) = (self.len / 64, self.len % 64);
        if bit == 0 {
            self.words.push(0);
        }
        if is_null {
            self.words[word] |= 1u64 << bit;
            self.ones += 1;
        }
        self.len += 1;
    }

    /// Whether row `i` is NULL.
    #[inline]
    pub fn get(&self, i: usize) -> bool {
        debug_assert!(i < self.len);
        (self.words[i / 64] >> (i % 64)) & 1 == 1
    }

    /// Set row `i`'s flag in place.
    pub fn set(&mut self, i: usize, is_null: bool) {
        let was = self.get(i);
        if was == is_null {
            return;
        }
        let mask = 1u64 << (i % 64);
        if is_null {
            self.words[i / 64] |= mask;
            self.ones += 1;
        } else {
            self.words[i / 64] &= !mask;
            self.ones -= 1;
        }
    }

    /// Bitmap of `indices.len()` rows gathered from `self`.
    pub fn take(&self, indices: &[usize]) -> NullBitmap {
        let mut out = NullBitmap::with_capacity(indices.len());
        if self.ones == 0 {
            out.words = vec![0; indices.len().div_ceil(64)];
            out.len = indices.len();
            return out;
        }
        for &i in indices {
            out.push(self.get(i));
        }
        out
    }
}

/// A typed data slab: an owned vector or a zero-copy view into a shared
/// mmapped region. `Deref`s to `&[T]`; mutation promotes to owned.
#[derive(Debug, Clone)]
pub enum Slab<T: Copy> {
    /// Heap-owned storage.
    Owned(Vec<T>),
    /// Borrowed from an mmapped (or heap-loaded) snapshot region. The
    /// region is kept alive by the `Arc`; the bytes are immutable and
    /// validated (CRC) before the view is created.
    Mapped {
        /// First element (8-byte aligned for `i64`/`f64` payloads).
        ptr: *const T,
        /// Element count.
        len: usize,
        /// Keep-alive for the backing mapping.
        region: Arc<MapRegion>,
    },
}

// SAFETY: a Mapped slab is an immutable view into an immutable, read-only
// region whose lifetime is pinned by the Arc. `T` is a plain Copy scalar.
unsafe impl<T: Copy + Send> Send for Slab<T> {}
unsafe impl<T: Copy + Sync> Sync for Slab<T> {}

impl<T: Copy> Slab<T> {
    /// Elements as a slice.
    #[inline]
    pub fn as_slice(&self) -> &[T] {
        match self {
            Slab::Owned(v) => v,
            // SAFETY: ptr/len were validated against the region's bounds
            // and alignment at construction; the region outlives `self`.
            Slab::Mapped { ptr, len, .. } => unsafe { std::slice::from_raw_parts(*ptr, *len) },
        }
    }

    /// Element count.
    #[inline]
    pub fn len(&self) -> usize {
        match self {
            Slab::Owned(v) => v.len(),
            Slab::Mapped { len, .. } => *len,
        }
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// True when backed by a mapped region (no decode happened at load).
    pub fn is_mapped(&self) -> bool {
        matches!(self, Slab::Mapped { .. })
    }

    /// Mutable access, promoting a mapped view to an owned copy first.
    pub fn make_mut(&mut self) -> &mut Vec<T> {
        if let Slab::Mapped { .. } = self {
            *self = Slab::Owned(self.as_slice().to_vec());
        }
        match self {
            Slab::Owned(v) => v,
            Slab::Mapped { .. } => unreachable!("promoted above"),
        }
    }

    /// Append one element (copy-on-write for mapped slabs).
    #[inline]
    pub fn push(&mut self, v: T) {
        match self {
            Slab::Owned(vec) => vec.push(v),
            Slab::Mapped { .. } => self.make_mut().push(v),
        }
    }
}

impl<T: Copy> std::ops::Deref for Slab<T> {
    type Target = [T];
    fn deref(&self) -> &[T] {
        self.as_slice()
    }
}

impl<T: Copy> From<Vec<T>> for Slab<T> {
    fn from(v: Vec<T>) -> Self {
        Slab::Owned(v)
    }
}

/// Hard ceiling on dictionary codes: they must fit `u32`. Kept as a
/// variable so tests can exercise the overflow path without 4 Gi strings.
pub const DICT_MAX_CODES: u32 = u32::MAX;

/// Order-of-first-appearance string dictionary for one column.
#[derive(Debug, Clone, Default)]
pub struct Dict {
    values: Vec<Arc<str>>,
    index: HashMap<Arc<str>, u32>,
    /// Maximum number of distinct codes before interning fails (columns
    /// then degrade to [`Column::Mixed`]). `DICT_MAX_CODES` in production.
    max_codes: u32,
}

impl Dict {
    /// Empty dictionary with the production code limit.
    pub fn new() -> Self {
        Dict { values: Vec::new(), index: HashMap::new(), max_codes: DICT_MAX_CODES }
    }

    /// Empty dictionary with a custom code cap (for overflow tests).
    pub fn with_max_codes(max_codes: u32) -> Self {
        Dict { values: Vec::new(), index: HashMap::new(), max_codes }
    }

    /// Intern a string, returning its code, or `None` when the dictionary
    /// is full (the caller degrades the column to `Mixed`).
    pub fn intern(&mut self, s: &Arc<str>) -> Option<u32> {
        if let Some(&c) = self.index.get(s.as_ref()) {
            return Some(c);
        }
        if self.values.len() as u64 >= self.max_codes as u64 {
            return None;
        }
        let code = self.values.len() as u32;
        self.values.push(Arc::clone(s));
        self.index.insert(Arc::clone(s), code);
        Some(code)
    }

    /// The code of `s`, or `None` when the dictionary has never interned it.
    pub fn code_of(&self, s: &str) -> Option<u32> {
        self.index.get(s).copied()
    }

    /// The string of a code.
    #[inline]
    pub fn value(&self, code: u32) -> &Arc<str> {
        &self.values[code as usize]
    }

    /// Number of distinct strings.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// True when no string has been interned.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// All distinct strings in code order.
    pub fn values(&self) -> &[Arc<str>] {
        &self.values
    }

    /// Rebuild from a code-ordered string list (snapshot decode).
    pub fn from_values(values: Vec<Arc<str>>) -> Self {
        let index = values.iter().enumerate().map(|(i, s)| (Arc::clone(s), i as u32)).collect();
        Dict { values, index, max_codes: DICT_MAX_CODES }
    }
}

/// An `i64` column: data slab + null bitmap (NULL rows hold 0).
#[derive(Debug, Clone)]
pub struct IntColumn {
    /// Raw values; entries at NULL rows are 0.
    pub data: Slab<i64>,
    /// Null flags.
    pub nulls: NullBitmap,
}

/// An `f64` column: canonicalized data slab + null bitmap (NULLs hold 0.0).
#[derive(Debug, Clone)]
pub struct FloatColumn {
    /// Raw values, canonicalized (one NaN bit pattern, `-0.0 → +0.0`);
    /// entries at NULL rows are 0.0.
    pub data: Slab<f64>,
    /// Null flags.
    pub nulls: NullBitmap,
}

/// A dictionary-coded string column (NULL rows hold code 0).
#[derive(Debug, Clone)]
pub struct StrColumn {
    /// Per-row dictionary codes; entries at NULL rows are 0.
    pub codes: Slab<u32>,
    /// The column's dictionary.
    pub dict: Dict,
    /// Null flags.
    pub nulls: NullBitmap,
}

/// One attribute's storage.
#[derive(Debug, Clone)]
pub enum Column {
    /// Typed `i64` slab.
    Int(IntColumn),
    /// Typed `f64` slab (canonical float bits).
    Float(FloatColumn),
    /// Dictionary-coded strings.
    Str(StrColumn),
    /// Fallback `Vec<Value>` storage for columns whose values violate the
    /// declared type (or whose dictionary overflowed).
    Mixed(Vec<Value>),
}

/// Canonical float bits for slab storage: all NaNs collapse to the one
/// canonical NaN, `-0.0` to `+0.0` — identical to `Value`'s equality
/// canonicalization and the snapshot codec.
#[inline]
pub fn canon_f64(f: f64) -> f64 {
    if f.is_nan() {
        f64::NAN
    } else if f == 0.0 {
        0.0
    } else {
        f
    }
}

impl Column {
    /// Empty column of the declared type.
    pub fn new(ty: ValueType) -> Self {
        Column::with_capacity(ty, 0)
    }

    /// Empty column of the declared type, pre-sized for `capacity` rows.
    pub fn with_capacity(ty: ValueType, capacity: usize) -> Self {
        match ty {
            ValueType::Int => Column::Int(IntColumn {
                data: Slab::Owned(Vec::with_capacity(capacity)),
                nulls: NullBitmap::with_capacity(capacity),
            }),
            ValueType::Float => Column::Float(FloatColumn {
                data: Slab::Owned(Vec::with_capacity(capacity)),
                nulls: NullBitmap::with_capacity(capacity),
            }),
            ValueType::Str => Column::Str(StrColumn {
                codes: Slab::Owned(Vec::with_capacity(capacity)),
                dict: Dict::new(),
                nulls: NullBitmap::with_capacity(capacity),
            }),
        }
    }

    /// Row count.
    pub fn len(&self) -> usize {
        match self {
            Column::Int(c) => c.data.len(),
            Column::Float(c) => c.data.len(),
            Column::Str(c) => c.codes.len(),
            Column::Mixed(v) => v.len(),
        }
    }

    /// True when the column holds no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Whether the column kept its typed slab layout.
    pub fn is_typed(&self) -> bool {
        !matches!(self, Column::Mixed(_))
    }

    /// Whether row `i` is NULL.
    #[inline]
    pub fn is_null(&self, i: usize) -> bool {
        match self {
            Column::Int(c) => c.nulls.get(i),
            Column::Float(c) => c.nulls.get(i),
            Column::Str(c) => c.nulls.get(i),
            Column::Mixed(v) => v[i].is_null(),
        }
    }

    /// Materialize row `i` as an owned [`Value`].
    #[inline]
    pub fn get(&self, i: usize) -> Value {
        match self {
            Column::Int(c) => {
                if c.nulls.get(i) {
                    Value::Null
                } else {
                    Value::Int(c.data[i])
                }
            }
            Column::Float(c) => {
                if c.nulls.get(i) {
                    Value::Null
                } else {
                    Value::Float(c.data[i])
                }
            }
            Column::Str(c) => {
                if c.nulls.get(i) {
                    Value::Null
                } else {
                    Value::Str(Arc::clone(c.dict.value(c.codes[i])))
                }
            }
            Column::Mixed(v) => v[i].clone(),
        }
    }

    /// Numeric view of row `i` (`None` for NULL / non-numeric), without
    /// materializing a `Value`.
    #[inline]
    pub fn get_f64(&self, i: usize) -> Option<f64> {
        match self {
            Column::Int(c) => {
                if c.nulls.get(i) {
                    None
                } else {
                    Some(c.data[i] as f64)
                }
            }
            Column::Float(c) => {
                if c.nulls.get(i) {
                    None
                } else {
                    Some(c.data[i])
                }
            }
            Column::Str(_) => None,
            Column::Mixed(v) => v[i].as_f64(),
        }
    }

    /// Append one value. Values that do not fit the typed layout degrade
    /// the column to `Mixed` first (lossless, never an error):
    /// * `Int` columns accept `Int` and exactly-integral `Float`s;
    /// * `Float` columns accept `Float` and exactly-representable `Int`s;
    /// * `Str` columns accept `Str` until the dictionary overflows;
    /// * every column accepts `Null`.
    pub fn push(&mut self, v: Value) {
        match self {
            Column::Int(c) => match v {
                Value::Null => {
                    c.data.push(0);
                    c.nulls.push(true);
                }
                Value::Int(i) => {
                    c.data.push(i);
                    c.nulls.push(false);
                }
                // An exactly-integral float is stored as its integer; the
                // two compare and hash identically at the Value level.
                Value::Float(f) if f.fract() == 0.0 && (f as i64) as f64 == f => {
                    c.data.push(f as i64);
                    c.nulls.push(false);
                }
                other => {
                    self.degrade();
                    self.push(other);
                }
            },
            Column::Float(c) => match v {
                Value::Null => {
                    c.data.push(0.0);
                    c.nulls.push(true);
                }
                Value::Float(f) => {
                    c.data.push(canon_f64(f));
                    c.nulls.push(false);
                }
                // An i64 that survives the f64 round-trip is stored
                // losslessly; Int(3) == Float(3.0) at the Value level.
                Value::Int(i) if (i as f64) as i64 == i => {
                    c.data.push(i as f64);
                    c.nulls.push(false);
                }
                other => {
                    self.degrade();
                    self.push(other);
                }
            },
            Column::Str(c) => match v {
                Value::Null => {
                    c.codes.push(0);
                    c.nulls.push(true);
                }
                Value::Str(s) => match c.dict.intern(&s) {
                    Some(code) => {
                        c.codes.push(code);
                        c.nulls.push(false);
                    }
                    None => {
                        cape_obs::counter_add("data.column.dict_overflow", 1);
                        self.degrade();
                        self.push(Value::Str(s));
                    }
                },
                other => {
                    self.degrade();
                    self.push(other);
                }
            },
            Column::Mixed(vec) => vec.push(v),
        }
    }

    /// Overwrite row `i` in place (degrades to `Mixed` when the new value
    /// does not fit the typed layout).
    pub fn set(&mut self, i: usize, v: Value) {
        match self {
            Column::Int(c) => match v {
                Value::Null => {
                    c.data.make_mut()[i] = 0;
                    c.nulls.set(i, true);
                }
                Value::Int(x) => {
                    c.data.make_mut()[i] = x;
                    c.nulls.set(i, false);
                }
                Value::Float(f) if f.fract() == 0.0 && (f as i64) as f64 == f => {
                    c.data.make_mut()[i] = f as i64;
                    c.nulls.set(i, false);
                }
                other => {
                    self.degrade();
                    self.set(i, other);
                }
            },
            Column::Float(c) => match v {
                Value::Null => {
                    c.data.make_mut()[i] = 0.0;
                    c.nulls.set(i, true);
                }
                Value::Float(f) => {
                    c.data.make_mut()[i] = canon_f64(f);
                    c.nulls.set(i, false);
                }
                Value::Int(x) if (x as f64) as i64 == x => {
                    c.data.make_mut()[i] = x as f64;
                    c.nulls.set(i, false);
                }
                other => {
                    self.degrade();
                    self.set(i, other);
                }
            },
            Column::Str(c) => match v {
                Value::Null => {
                    c.codes.make_mut()[i] = 0;
                    c.nulls.set(i, true);
                }
                Value::Str(s) => match c.dict.intern(&s) {
                    Some(code) => {
                        c.codes.make_mut()[i] = code;
                        c.nulls.set(i, false);
                    }
                    None => {
                        self.degrade();
                        self.set(i, Value::Str(s));
                    }
                },
                other => {
                    self.degrade();
                    self.set(i, other);
                }
            },
            Column::Mixed(vec) => vec[i] = v,
        }
    }

    /// Convert to `Mixed` storage in place (the lossless escape hatch).
    pub fn degrade(&mut self) {
        if let Column::Mixed(_) = self {
            return;
        }
        cape_obs::counter_add("data.column.degraded_to_mixed", 1);
        let values: Vec<Value> = (0..self.len()).map(|i| self.get(i)).collect();
        *self = Column::Mixed(values);
    }

    /// Gather rows at `indices` (in order) into a new column. Dictionary
    /// columns share the dictionary (codes may reference entries that no
    /// longer occur; that only widens packed group-ids, never breaks them).
    pub fn take(&self, indices: &[usize]) -> Column {
        match self {
            Column::Int(c) => Column::Int(IntColumn {
                data: Slab::Owned(indices.iter().map(|&i| c.data[i]).collect()),
                nulls: c.nulls.take(indices),
            }),
            Column::Float(c) => Column::Float(FloatColumn {
                data: Slab::Owned(indices.iter().map(|&i| c.data[i]).collect()),
                nulls: c.nulls.take(indices),
            }),
            Column::Str(c) => Column::Str(StrColumn {
                codes: Slab::Owned(indices.iter().map(|&i| c.codes[i]).collect()),
                dict: c.dict.clone(),
                nulls: c.nulls.take(indices),
            }),
            Column::Mixed(v) => Column::Mixed(indices.iter().map(|&i| v[i].clone()).collect()),
        }
    }

    /// Append all rows of `other` (same attribute of a same-shape
    /// relation). Falls back to value-wise pushes across layout
    /// mismatches (different dictionaries are re-interned).
    pub fn extend_from(&mut self, other: &Column) {
        match (&mut *self, other) {
            (Column::Int(a), Column::Int(b)) if b.nulls.no_nulls() && a.nulls.no_nulls() => {
                a.data.make_mut().extend_from_slice(&b.data);
                for _ in 0..b.data.len() {
                    a.nulls.push(false);
                }
            }
            (Column::Float(a), Column::Float(b)) if b.nulls.no_nulls() && a.nulls.no_nulls() => {
                a.data.make_mut().extend_from_slice(&b.data);
                for _ in 0..b.data.len() {
                    a.nulls.push(false);
                }
            }
            _ => {
                for i in 0..other.len() {
                    self.push(other.get(i));
                }
            }
        }
    }

    /// Whether rows `i` and `j` hold equal values (Value-level equality,
    /// without materializing either).
    #[inline]
    pub fn rows_equal(&self, i: usize, j: usize) -> bool {
        match self {
            Column::Int(c) => match (c.nulls.get(i), c.nulls.get(j)) {
                (true, true) => true,
                (false, false) => c.data[i] == c.data[j],
                _ => false,
            },
            Column::Float(c) => match (c.nulls.get(i), c.nulls.get(j)) {
                (true, true) => true,
                // Stored bits are canonical, so bit equality == Value
                // equality (incl. NaN == NaN).
                (false, false) => c.data[i].to_bits() == c.data[j].to_bits(),
                _ => false,
            },
            Column::Str(c) => match (c.nulls.get(i), c.nulls.get(j)) {
                (true, true) => true,
                (false, false) => c.codes[i] == c.codes[j],
                _ => false,
            },
            Column::Mixed(v) => v[i] == v[j],
        }
    }

    /// Compare rows `i` and `j` with [`Value`]'s total order, without
    /// materializing either.
    #[inline]
    pub fn cmp_rows(&self, i: usize, j: usize) -> std::cmp::Ordering {
        use std::cmp::Ordering;
        match self {
            Column::Int(c) => match (c.nulls.get(i), c.nulls.get(j)) {
                (true, true) => Ordering::Equal,
                (true, false) => Ordering::Less,
                (false, true) => Ordering::Greater,
                (false, false) => c.data[i].cmp(&c.data[j]),
            },
            Column::Float(c) => match (c.nulls.get(i), c.nulls.get(j)) {
                (true, true) => Ordering::Equal,
                (true, false) => Ordering::Less,
                (false, true) => Ordering::Greater,
                (false, false) => c.data[i].total_cmp(&c.data[j]),
            },
            Column::Str(c) => match (c.nulls.get(i), c.nulls.get(j)) {
                (true, true) => Ordering::Equal,
                (true, false) => Ordering::Less,
                (false, true) => Ordering::Greater,
                (false, false) => {
                    if c.codes[i] == c.codes[j] {
                        Ordering::Equal
                    } else {
                        c.dict.value(c.codes[i]).cmp(c.dict.value(c.codes[j]))
                    }
                }
            },
            Column::Mixed(v) => v[i].cmp(&v[j]),
        }
    }

    /// Numeric slab view, when the column kept a typed numeric layout.
    #[inline]
    pub fn num_view(&self) -> Option<NumView<'_>> {
        match self {
            Column::Int(c) => Some(NumView::Int { data: &c.data, nulls: &c.nulls }),
            Column::Float(c) => Some(NumView::Float { data: &c.data, nulls: &c.nulls }),
            _ => None,
        }
    }

    /// Heap bytes of the column's payload (slab bytes; dictionaries and
    /// `Mixed` values estimated), for the bench's memory accounting.
    pub fn payload_bytes(&self) -> usize {
        match self {
            Column::Int(c) => c.data.len() * 8 + c.nulls.words().len() * 8,
            Column::Float(c) => c.data.len() * 8 + c.nulls.words().len() * 8,
            Column::Str(c) => {
                c.codes.len() * 4
                    + c.nulls.words().len() * 8
                    + c.dict.values().iter().map(|s| s.len() + 16).sum::<usize>()
            }
            Column::Mixed(v) => v.len() * std::mem::size_of::<Value>(),
        }
    }
}

/// A borrowed numeric slab: the monomorphic gather target for batched
/// fitting (one branch per column, not one per cell).
#[derive(Debug, Clone, Copy)]
pub enum NumView<'a> {
    /// `i64` slab.
    Int {
        /// Raw values (0 at NULL rows).
        data: &'a [i64],
        /// Null flags.
        nulls: &'a NullBitmap,
    },
    /// `f64` slab.
    Float {
        /// Raw values (0.0 at NULL rows).
        data: &'a [f64],
        /// Null flags.
        nulls: &'a NullBitmap,
    },
}

impl<'a> NumView<'a> {
    /// Value at row `i` (`None` when NULL).
    #[inline]
    pub fn get_f64(&self, i: usize) -> Option<f64> {
        match self {
            NumView::Int { data, nulls } => {
                if nulls.get(i) {
                    None
                } else {
                    Some(data[i] as f64)
                }
            }
            NumView::Float { data, nulls } => {
                if nulls.get(i) {
                    None
                } else {
                    Some(data[i])
                }
            }
        }
    }

    /// True when the column has no NULL rows.
    pub fn no_nulls(&self) -> bool {
        match self {
            NumView::Int { nulls, .. } | NumView::Float { nulls, .. } => nulls.no_nulls(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bitmap_push_get_set() {
        let mut b = NullBitmap::new();
        for i in 0..130 {
            b.push(i % 3 == 0);
        }
        assert_eq!(b.len(), 130);
        assert!(b.get(0) && !b.get(1) && b.get(129 / 3 * 3));
        assert_eq!(b.null_count(), (0..130).filter(|i| i % 3 == 0).count());
        b.set(1, true);
        b.set(0, false);
        assert!(b.get(1) && !b.get(0));
        let roundtrip = NullBitmap::from_words(b.words().to_vec(), b.len());
        assert_eq!(roundtrip, b);
    }

    #[test]
    fn typed_pushes_and_reads() {
        let mut c = Column::new(ValueType::Int);
        c.push(Value::Int(7));
        c.push(Value::Null);
        c.push(Value::Float(3.0)); // integral float folds into the int slab
        assert!(c.is_typed());
        assert_eq!(c.get(0), Value::Int(7));
        assert_eq!(c.get(1), Value::Null);
        assert_eq!(c.get(2), Value::Int(3));
        assert_eq!(c.get_f64(2), Some(3.0));
    }

    #[test]
    fn mismatch_degrades_losslessly() {
        let mut c = Column::new(ValueType::Int);
        c.push(Value::Int(1));
        c.push(Value::str("oops"));
        assert!(!c.is_typed());
        assert_eq!(c.get(0), Value::Int(1));
        assert_eq!(c.get(1), Value::str("oops"));
    }

    #[test]
    fn float_slab_canonicalizes() {
        let mut c = Column::new(ValueType::Float);
        c.push(Value::Float(-0.0));
        c.push(Value::Float(f64::NAN));
        match &c {
            Column::Float(fc) => {
                assert_eq!(fc.data[0].to_bits(), 0.0f64.to_bits());
                assert_eq!(fc.data[1].to_bits(), f64::NAN.to_bits());
            }
            _ => panic!("expected float column"),
        }
        assert!(c.rows_equal(1, 1), "canonical NaN must equal itself");
    }

    #[test]
    fn dict_overflow_degrades() {
        let mut c = Column::Str(StrColumn {
            codes: Slab::Owned(Vec::new()),
            dict: Dict::with_max_codes(2),
            nulls: NullBitmap::new(),
        });
        c.push(Value::str("a"));
        c.push(Value::str("b"));
        c.push(Value::str("a"));
        assert!(c.is_typed());
        c.push(Value::str("c")); // third distinct string overflows
        assert!(!c.is_typed());
        for (i, want) in ["a", "b", "a", "c"].iter().enumerate() {
            assert_eq!(c.get(i), Value::str(want));
        }
    }

    #[test]
    fn take_and_extend() {
        let mut c = Column::new(ValueType::Str);
        for s in ["x", "y", "x", "z"] {
            c.push(Value::str(s));
        }
        let t = c.take(&[3, 0]);
        assert_eq!(t.get(0), Value::str("z"));
        assert_eq!(t.get(1), Value::str("x"));
        let mut d = Column::new(ValueType::Str);
        d.push(Value::str("q"));
        d.extend_from(&t);
        assert_eq!(d.len(), 3);
        assert_eq!(d.get(2), Value::str("x"));
    }

    #[test]
    fn row_compare_matches_value_compare() {
        let mut c = Column::new(ValueType::Float);
        for v in [Value::Float(2.5), Value::Null, Value::Float(-1.0), Value::Float(2.5)] {
            c.push(v);
        }
        for i in 0..4 {
            for j in 0..4 {
                assert_eq!(c.cmp_rows(i, j), c.get(i).cmp(&c.get(j)), "rows {i},{j}");
                assert_eq!(c.rows_equal(i, j), c.get(i) == c.get(j));
            }
        }
    }

    #[test]
    fn slab_cow_promotion() {
        let mut s: Slab<i64> = Slab::Owned(vec![1, 2, 3]);
        s.push(4);
        assert_eq!(&*s, &[1, 2, 3, 4]);
        assert!(!s.is_mapped());
    }
}
