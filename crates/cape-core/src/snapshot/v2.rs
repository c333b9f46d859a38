//! Snapshot format **version 2**: version 1's sections plus an aligned,
//! mmappable relation section (`RELC`), so a process can cold-start with
//! the full dataset *and* the mined patterns from one file — no CSV
//! parse, no per-cell decode. Both versions share the container framing
//! (header, tagged CRC-checked sections, commit footer) and its one
//! parser in the parent module; this module holds the relation payload
//! and the readers that decode it.
//!
//! The `RELC` payload stores each column's slabs in their exact
//! in-memory layout, padded so every `i64`/`f64` slab begins at a file
//! offset divisible by 8 (and every `u32` code slab at one divisible
//! by 4). Because [`MapRegion`](cape_data::mmap::MapRegion) hands out
//! 8-byte-aligned bases, an aligned *file* offset is an aligned *memory*
//! address, and the loader can alias `Slab::Mapped` views straight into
//! the mapping:
//!
//! ```text
//! u64 row count · u32 column count · per column:
//!   u8 kind (0=Int, 1=Float, 2=Str, 3=Mixed)
//!   Int/Float: u32 null-word count · pad8 · null words (u64 LE each)
//!              · pad8 · rows × i64/f64 LE        ← mapped zero-copy
//!   Str:       u32 dict size · dict strings (u32-len-prefixed UTF-8)
//!              · u32 null-word count · pad8 · null words
//!              · pad4 · rows × u32 codes LE      ← mapped zero-copy
//!   Mixed:     rows × Value (v1 value codec)     ← decoded owned
//! ```
//!
//! `pad8`/`pad4` are zero bytes inserted until the *absolute file
//! offset* reaches the alignment; the reader recomputes the identical
//! offsets, so padding needs no length fields.
//!
//! ## mmap safety argument (DESIGN.md §17)
//!
//! * The mapping is **read-only and private**; mutation of a mapped slab
//!   copy-on-write promotes to an owned `Vec` first.
//! * Every section's CRC — and the whole-file CRC — is validated against
//!   the mapped bytes **before** any typed view is created, so a torn or
//!   corrupted file is rejected as a typed [`SnapshotError`], never read
//!   as slab data.
//! * Typed views are only created at offsets whose alignment is
//!   recomputed and checked at load time.
//! * Dictionary codes are range-checked against the decoded dictionary
//!   before the column is assembled, so a crafted code can never index
//!   out of bounds.
//! * Writers publish via atomic rename ([`super::write_atomic`]); a live
//!   mapping keeps seeing the old inode.
//!
//! Numeric slabs are stored little-endian and aliased directly on
//! little-endian targets (every supported platform); big-endian targets
//! fall back to an owned byte-swapped decode.

use super::codec::{self, ByteReader, ByteWriter};
use super::{
    counted, decode_config_section, decode_patterns_section, decode_schema_section, parse_frames,
    rebuild_store, save, Framed, SnapshotError,
};
use crate::config::MiningConfig;
use crate::store::PatternStore;
use cape_data::column::{Column, Dict, FloatColumn, IntColumn, NullBitmap, Slab, StrColumn};
use cape_data::mmap::MapRegion;
use cape_data::{Relation, Schema};
use std::path::Path;
use std::sync::Arc;

/// The v2 format version (v1 sections + mmappable relation slabs).
pub const FORMAT_VERSION_V2: u32 = 2;

const KIND_INT: u8 = 0;
const KIND_FLOAT: u8 = 1;
const KIND_STR: u8 = 2;
const KIND_MIXED: u8 = 3;

/// Everything a v2 snapshot contains: the v1 contents plus the relation
/// itself, reconstructed from the file's own slabs (zero-copy on the
/// mmap path).
#[derive(Debug)]
pub struct SnapshotV2Contents {
    /// The relation schema recorded at save time.
    pub schema: Schema,
    /// The mining configuration the store was produced with.
    pub config: MiningConfig,
    /// The reloaded pattern store, with group data recomputed from the
    /// embedded relation.
    pub store: PatternStore,
    /// The embedded relation. On the [`load_snapshot_v2`] path its
    /// numeric and code slabs alias the mapped file.
    pub relation: Relation,
}

// --- encoding --------------------------------------------------------------

/// A byte writer that knows its absolute position in the final file, so
/// it can pad slabs to absolute 8-/4-byte alignment.
struct RelcWriter {
    w: ByteWriter,
    abs0: usize,
}

impl RelcWriter {
    fn abs(&self) -> usize {
        self.abs0 + self.w.len()
    }

    fn pad_to(&mut self, align: usize) {
        while !self.abs().is_multiple_of(align) {
            self.w.u8(0);
        }
    }
}

#[cfg(target_endian = "little")]
fn write_pod_slice<T: Copy>(w: &mut ByteWriter, xs: &[T]) {
    // SAFETY: T is a plain-old-data scalar (u64/i64/f64/u32) and the
    // target is little-endian, so the in-memory bytes are the wire bytes.
    let bytes =
        unsafe { std::slice::from_raw_parts(xs.as_ptr() as *const u8, std::mem::size_of_val(xs)) };
    w.bytes(bytes);
}

fn write_words(w: &mut ByteWriter, xs: &[u64]) {
    #[cfg(target_endian = "little")]
    write_pod_slice(w, xs);
    #[cfg(not(target_endian = "little"))]
    for &x in xs {
        w.u64(x);
    }
}

fn write_i64s(w: &mut ByteWriter, xs: &[i64]) {
    #[cfg(target_endian = "little")]
    write_pod_slice(w, xs);
    #[cfg(not(target_endian = "little"))]
    for &x in xs {
        w.i64(x);
    }
}

fn write_f64s(w: &mut ByteWriter, xs: &[f64]) {
    // Slab floats are already canonical (one NaN bit pattern, no -0.0);
    // raw bits are the canonical wire encoding.
    #[cfg(target_endian = "little")]
    write_pod_slice(w, xs);
    #[cfg(not(target_endian = "little"))]
    for &x in xs {
        w.u64(x.to_bits());
    }
}

fn write_u32s(w: &mut ByteWriter, xs: &[u32]) {
    #[cfg(target_endian = "little")]
    write_pod_slice(w, xs);
    #[cfg(not(target_endian = "little"))]
    for &x in xs {
        w.u32(x);
    }
}

fn write_nulls(rw: &mut RelcWriter, nulls: &NullBitmap) {
    rw.w.u32(nulls.words().len() as u32);
    rw.pad_to(8);
    write_words(&mut rw.w, nulls.words());
}

/// Encode the `RELC` payload. `abs0` is the absolute file offset the
/// payload will start at (needed for alignment padding).
pub(super) fn encode_relation_section(rel: &Relation, abs0: usize) -> Vec<u8> {
    let mut rw = RelcWriter { w: ByteWriter::new(), abs0 };
    rw.w.u64(rel.num_rows() as u64);
    rw.w.u32(rel.schema().arity() as u32);
    for c in 0..rel.schema().arity() {
        match rel.col(c) {
            Column::Int(ic) => {
                rw.w.u8(KIND_INT);
                write_nulls(&mut rw, &ic.nulls);
                rw.pad_to(8);
                write_i64s(&mut rw.w, &ic.data);
            }
            Column::Float(fc) => {
                rw.w.u8(KIND_FLOAT);
                write_nulls(&mut rw, &fc.nulls);
                rw.pad_to(8);
                write_f64s(&mut rw.w, &fc.data);
            }
            Column::Str(sc) => {
                rw.w.u8(KIND_STR);
                rw.w.u32(sc.dict.len() as u32);
                for s in sc.dict.values() {
                    rw.w.str(s);
                }
                write_nulls(&mut rw, &sc.nulls);
                rw.pad_to(4);
                write_u32s(&mut rw.w, &sc.codes);
            }
            Column::Mixed(values) => {
                rw.w.u8(KIND_MIXED);
                for v in values {
                    codec::write_value(&mut rw.w, v);
                }
            }
        }
    }
    rw.w.into_bytes()
}

/// Encode a v2 snapshot to bytes (the pure half of [`save_snapshot_v2`]).
pub fn encode_snapshot_v2(
    schema: &Schema,
    cfg: &MiningConfig,
    store: &PatternStore,
    rel: &Relation,
) -> Vec<u8> {
    super::encode(schema, cfg, store, Some(rel))
}

/// Atomically write a v2 snapshot (same durability protocol and the same
/// `store.save_ns` / `store.bytes` counters as
/// [`super::save_snapshot`]). Returns the byte size written.
pub fn save_snapshot_v2(
    path: impl AsRef<Path>,
    schema: &Schema,
    cfg: &MiningConfig,
    store: &PatternStore,
    rel: &Relation,
) -> Result<u64, SnapshotError> {
    save(path.as_ref(), || encode_snapshot_v2(schema, cfg, store, rel))
}

// --- relation decode -------------------------------------------------------

fn relc_err() -> SnapshotError {
    SnapshotError::SectionCorrupt { section: "relation" }
}

fn read_words_le(bytes: &[u8]) -> Vec<u64> {
    bytes.chunks_exact(8).map(|c| u64::from_le_bytes(c.try_into().expect("8 bytes"))).collect()
}

/// Skip padding until the absolute offset is `align`-divisible, then
/// take `len` bytes, returning them plus their absolute start offset.
fn take_aligned<'a>(
    r: &mut ByteReader<'a>,
    payload_len: usize,
    abs0: usize,
    align: usize,
    len: usize,
) -> Result<(&'a [u8], usize), SnapshotError> {
    let abs = abs0 + (payload_len - r.remaining());
    let pad = (align - abs % align) % align;
    r.take(pad).map_err(|_| relc_err())?;
    let start = abs0 + (payload_len - r.remaining());
    debug_assert_eq!(start % align, 0);
    let bytes = r.take(len).map_err(|_| relc_err())?;
    Ok((bytes, start))
}

/// Build a numeric slab over `bytes` at absolute offset `abs`: a
/// zero-copy view into `region` when available (little-endian targets),
/// an owned decode otherwise.
fn numeric_slab<T: Copy>(
    bytes: &[u8],
    abs: usize,
    rows: usize,
    region: Option<&Arc<MapRegion>>,
) -> Slab<T> {
    debug_assert_eq!(bytes.len(), rows * std::mem::size_of::<T>());
    #[cfg(target_endian = "little")]
    if let Some(region) = region {
        if rows > 0 {
            debug_assert_eq!(abs % std::mem::align_of::<T>(), 0);
            // SAFETY: `abs` lies within the region (the ByteReader
            // bounds-checked the take), the offset is aligned for T, the
            // region is immutable and outlives the slab via the Arc, and
            // T is a plain scalar for which any bit pattern is valid.
            let ptr = unsafe { region.base_ptr().add(abs) as *const T };
            return Slab::Mapped { ptr, len: rows, region: Arc::clone(region) };
        }
    }
    let _ = abs;
    // Owned fallback (big-endian, heapless read, or zero rows).
    let elem = std::mem::size_of::<T>();
    let mut out: Vec<T> = Vec::with_capacity(rows);
    for i in 0..rows {
        let chunk = &bytes[i * elem..(i + 1) * elem];
        // SAFETY: T is u32/i64/f64; reading `elem` bytes into it is a
        // plain (little-endian) bit copy.
        let mut v = std::mem::MaybeUninit::<T>::uninit();
        unsafe {
            let src = chunk.as_ptr();
            #[cfg(target_endian = "little")]
            std::ptr::copy_nonoverlapping(src, v.as_mut_ptr() as *mut u8, elem);
            #[cfg(not(target_endian = "little"))]
            {
                let dst = v.as_mut_ptr() as *mut u8;
                for b in 0..elem {
                    *dst.add(b) = *src.add(elem - 1 - b);
                }
            }
            out.push(v.assume_init());
        }
    }
    Slab::Owned(out)
}

/// Decode the `RELC` payload into columns. `abs0` is the payload's byte
/// offset within the file; `region` enables zero-copy slab views.
fn decode_relation_section(
    payload: &[u8],
    abs0: usize,
    schema: &Schema,
    region: Option<&Arc<MapRegion>>,
) -> Result<Relation, SnapshotError> {
    let mut r = ByteReader::new(payload);
    let rows = r.usize().map_err(|_| relc_err())?;
    let ncols = r.u32().map_err(|_| relc_err())? as usize;
    if ncols != schema.arity() {
        return Err(relc_err());
    }
    // Guard counts against the bytes that could possibly back them.
    if rows > payload.len().saturating_mul(64) {
        return Err(relc_err());
    }
    let word_count = rows.div_ceil(64);
    let mut columns = Vec::with_capacity(ncols);
    for _ in 0..ncols {
        let kind = r.u8().map_err(|_| relc_err())?;
        let col = match kind {
            KIND_INT | KIND_FLOAT => {
                let wc = r.u32().map_err(|_| relc_err())? as usize;
                if wc != word_count {
                    return Err(relc_err());
                }
                let (word_bytes, _) = take_aligned(&mut r, payload.len(), abs0, 8, wc * 8)?;
                let nulls = NullBitmap::from_words(read_words_le(word_bytes), rows);
                let (data, abs) = take_aligned(&mut r, payload.len(), abs0, 8, rows * 8)?;
                if kind == KIND_INT {
                    Column::Int(IntColumn { data: numeric_slab(data, abs, rows, region), nulls })
                } else {
                    Column::Float(FloatColumn {
                        data: numeric_slab(data, abs, rows, region),
                        nulls,
                    })
                }
            }
            KIND_STR => {
                let dn = r.count(4).map_err(|_| relc_err())?;
                let mut values: Vec<Arc<str>> = Vec::with_capacity(dn);
                for _ in 0..dn {
                    values.push(Arc::from(r.str().map_err(|_| relc_err())?));
                }
                let dict = Dict::from_values(values);
                let wc = r.u32().map_err(|_| relc_err())? as usize;
                if wc != word_count {
                    return Err(relc_err());
                }
                let (word_bytes, _) = take_aligned(&mut r, payload.len(), abs0, 8, wc * 8)?;
                let nulls = NullBitmap::from_words(read_words_le(word_bytes), rows);
                let (code_bytes, abs) = take_aligned(&mut r, payload.len(), abs0, 4, rows * 4)?;
                let codes: Slab<u32> = numeric_slab(code_bytes, abs, rows, region);
                // Range-check every non-NULL code before the dictionary
                // can be indexed with it (NULL rows hold placeholder 0,
                // which may exceed an empty dictionary).
                let dict_len = dict.len() as u32;
                for (i, &c) in codes.as_slice().iter().enumerate() {
                    if c >= dict_len && !nulls.get(i) {
                        return Err(relc_err());
                    }
                }
                Column::Str(StrColumn { codes, dict, nulls })
            }
            KIND_MIXED => {
                let mut values = Vec::with_capacity(rows.min(payload.len()));
                for _ in 0..rows {
                    values.push(codec::read_value(&mut r).map_err(|_| relc_err())?);
                }
                Column::Mixed(values)
            }
            _ => return Err(relc_err()),
        };
        if col.len() != rows {
            return Err(relc_err());
        }
        columns.push(col);
    }
    if !r.is_empty() {
        return Err(relc_err());
    }
    Relation::from_columns(schema.clone(), columns).map_err(|_| relc_err())
}

// --- loading ---------------------------------------------------------------

/// Verify the framing of a version 2 file and decode its schema and
/// relation. A version 1 file has no relation to decode.
fn frames_with_relation<'a>(
    bytes: &'a [u8],
    region: Option<&Arc<MapRegion>>,
) -> Result<(Framed<'a>, Schema, Relation), SnapshotError> {
    let framed = parse_frames(bytes)?;
    if framed.version != FORMAT_VERSION_V2 {
        return Err(SnapshotError::VersionUnsupported { found: framed.version });
    }
    let (_, schema) = decode_schema_section(framed.payload(0))?;
    let relc = framed.sections[3].1.start;
    let relation = decode_relation_section(framed.payload(3), relc, &schema, region)?;
    Ok((framed, schema, relation))
}

fn read_v2_inner(
    bytes: &[u8],
    region: Option<&Arc<MapRegion>>,
) -> Result<SnapshotV2Contents, SnapshotError> {
    let (framed, schema, relation) = frames_with_relation(bytes, region)?;
    let config = decode_config_section(framed.payload(1))?;
    let store = rebuild_store(decode_patterns_section(framed.payload(2))?, &relation)?;
    Ok(SnapshotV2Contents { schema, config, store, relation })
}

/// Decode a v2 snapshot from a plain byte slice (owned slabs — no
/// mapping to alias). The mmap path is [`load_snapshot_v2`]. Counts like
/// [`super::read_snapshot`].
pub fn read_snapshot_v2(bytes: &[u8]) -> Result<SnapshotV2Contents, SnapshotError> {
    counted(bytes, |bytes| read_v2_inner(bytes, None))
}

/// Map a v2 snapshot file and reconstruct its contents with zero-copy
/// relation slabs: CRCs are validated against the mapped bytes, then
/// numeric and dictionary-code slabs alias the mapping directly. Counts
/// like [`super::read_snapshot`].
pub fn load_snapshot_v2(path: impl AsRef<Path>) -> Result<SnapshotV2Contents, SnapshotError> {
    let region =
        MapRegion::open(path.as_ref()).map_err(|e| SnapshotError::Io(format!("map: {e}")))?;
    counted(region.bytes(), |bytes| read_v2_inner(bytes, Some(&region)))
}

/// Map a v2 snapshot and reconstruct **only** the relation (schema +
/// slabs), skipping pattern decode and group-data rebuild. This is the
/// measured cold-start primitive: its cost is framing + CRC + O(dict)
/// string decode, independent of row count materialization.
pub fn load_relation_v2(path: impl AsRef<Path>) -> Result<(Schema, Relation), SnapshotError> {
    let region =
        MapRegion::open(path.as_ref()).map_err(|e| SnapshotError::Io(format!("map: {e}")))?;
    counted(region.bytes(), |bytes| {
        frames_with_relation(bytes, Some(&region)).map(|(_, schema, relation)| (schema, relation))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Thresholds;
    use crate::mining::{Miner, ShareGrpMiner};
    use cape_data::{Value, ValueType};

    fn mined() -> (Relation, MiningConfig, PatternStore) {
        let schema = Schema::new([
            ("author", ValueType::Str),
            ("year", ValueType::Int),
            ("score", ValueType::Float),
        ])
        .unwrap();
        let mut rel = Relation::new(schema);
        for a in 0..4 {
            for y in 0..6 {
                for p in 0..3 {
                    rel.push_row(vec![
                        Value::str(format!("auth {a}")),
                        Value::Int(2000 + y),
                        if (a + y + p) % 5 == 0 {
                            Value::Null
                        } else {
                            Value::Float(0.5 * (p as f64) + a as f64)
                        },
                    ])
                    .unwrap();
                }
            }
        }
        let cfg = MiningConfig {
            thresholds: Thresholds::new(0.2, 3, 0.4, 2),
            psi: 3,
            exclude: vec![2],
            ..MiningConfig::default()
        };
        let store = ShareGrpMiner.mine(&rel, &cfg).unwrap().store;
        (rel, cfg, store)
    }

    fn tmp(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("cape-v2-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    #[test]
    fn v2_roundtrip_owned() {
        let (rel, cfg, store) = mined();
        assert!(!store.is_empty());
        let bytes = encode_snapshot_v2(rel.schema(), &cfg, &store, &rel);
        let loaded = read_snapshot_v2(&bytes).unwrap();
        assert_eq!(loaded.relation, rel);
        assert_eq!(loaded.store.len(), store.len());
        assert_eq!(loaded.config.thresholds, cfg.thresholds);
        for ((_, a), (_, b)) in store.iter().zip(loaded.store.iter()) {
            assert_eq!(a.arp, b.arp);
            assert_eq!(a.locals, b.locals);
        }
    }

    #[test]
    fn v2_encoding_is_deterministic() {
        let (rel, cfg, store) = mined();
        let a = encode_snapshot_v2(rel.schema(), &cfg, &store, &rel);
        let b = encode_snapshot_v2(rel.schema(), &cfg, &store, &rel);
        assert_eq!(a, b);
    }

    #[test]
    fn v2_mmap_load_aliases_slabs() {
        let (rel, cfg, store) = mined();
        let path = tmp("mapped.cape");
        save_snapshot_v2(&path, rel.schema(), &cfg, &store, &rel).unwrap();
        let loaded = load_snapshot_v2(&path).unwrap();
        assert_eq!(loaded.relation, rel);
        // Typed slabs alias the mapping (zero decode).
        match loaded.relation.col(1) {
            Column::Int(c) => assert!(c.data.is_mapped(), "int slab must alias the map"),
            other => panic!("expected int column, got {other:?}"),
        }
        match loaded.relation.col(2) {
            Column::Float(c) => assert!(c.data.is_mapped(), "float slab must alias the map"),
            other => panic!("expected float column, got {other:?}"),
        }
        match loaded.relation.col(0) {
            Column::Str(c) => assert!(c.codes.is_mapped(), "code slab must alias the map"),
            other => panic!("expected str column, got {other:?}"),
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn mapped_relation_mutation_is_copy_on_write() {
        let (rel, cfg, store) = mined();
        let path = tmp("cow.cape");
        save_snapshot_v2(&path, rel.schema(), &cfg, &store, &rel).unwrap();
        let mut loaded = load_snapshot_v2(&path).unwrap();
        let n = loaded.relation.num_rows();
        loaded
            .relation
            .push_row(vec![Value::str("new author"), Value::Int(2099), Value::Float(1.5)])
            .unwrap();
        assert_eq!(loaded.relation.num_rows(), n + 1);
        assert_eq!(loaded.relation.value(n, 1), Value::Int(2099));
        match loaded.relation.col(1) {
            Column::Int(c) => assert!(!c.data.is_mapped(), "mutation must promote to owned"),
            other => panic!("expected int column, got {other:?}"),
        }
        // The file on disk is untouched.
        let again = load_snapshot_v2(&path).unwrap();
        assert_eq!(again.relation.num_rows(), n);
        std::fs::remove_file(&path).ok();
    }

    /// Field-by-field equality of two stores (instances, locals, bounds).
    fn assert_same_store(a: &PatternStore, b: &PatternStore) {
        assert_eq!(a.len(), b.len());
        for ((_, x), (_, y)) in a.iter().zip(b.iter()) {
            assert_eq!(x.arp, y.arp);
            assert_eq!(x.confidence, y.confidence);
            assert_eq!(x.num_supported, y.num_supported);
            assert_eq!(x.locals, y.locals);
            assert_eq!(x.max_pos_dev, y.max_pos_dev);
            assert_eq!(x.max_neg_dev, y.max_neg_dev);
        }
    }

    #[test]
    fn read_snapshot_reads_v2_like_v1() {
        let (rel, cfg, store) = mined();
        let v1 = super::super::read_snapshot(
            &super::super::encode_snapshot(rel.schema(), &cfg, &store),
            &rel,
        )
        .unwrap();
        let v2 = super::super::read_snapshot(
            &encode_snapshot_v2(rel.schema(), &cfg, &store, &rel),
            &rel,
        )
        .unwrap();
        assert_eq!(v2.schema, v1.schema);
        assert_eq!(v2.config.thresholds, v1.config.thresholds);
        assert_eq!(v2.config.exclude, v1.config.exclude);
        assert_same_store(&v2.store, &v1.store);
        assert_same_store(&v2.store, &store);
    }

    #[test]
    fn v1_rejected_by_v2_reader_with_typed_error() {
        let (rel, cfg, store) = mined();
        let bytes = super::super::encode_snapshot(rel.schema(), &cfg, &store);
        match read_snapshot_v2(&bytes) {
            Err(SnapshotError::VersionUnsupported { found: 1 }) => {}
            other => panic!("expected VersionUnsupported {{ found: 1 }}, got {other:?}"),
        }
    }

    #[test]
    fn load_snapshot_reads_both_versions() {
        let (rel, cfg, store) = mined();
        let p1 = tmp("both_v1.cape");
        let p2 = tmp("both_v2.cape");
        super::super::save_snapshot(&p1, rel.schema(), &cfg, &store).unwrap();
        save_snapshot_v2(&p2, rel.schema(), &cfg, &store, &rel).unwrap();
        let version = |p: &std::path::Path| {
            let bytes = std::fs::read(p).unwrap();
            u32::from_le_bytes(bytes[8..12].try_into().unwrap())
        };
        assert_eq!(version(&p1), super::super::FORMAT_VERSION);
        assert_eq!(version(&p2), FORMAT_VERSION_V2);
        let a = super::super::load_snapshot(&p1, &rel).unwrap();
        let b = super::super::load_snapshot(&p2, &rel).unwrap();
        assert_same_store(&a.store, &store);
        assert_same_store(&b.store, &store);
        std::fs::remove_file(&p1).ok();
        std::fs::remove_file(&p2).ok();
    }

    #[test]
    fn corrupt_relation_section_is_typed() {
        let (rel, cfg, store) = mined();
        let mut bytes = encode_snapshot_v2(rel.schema(), &cfg, &store, &rel);
        // Flip a byte near the end of the RELC payload (before footer).
        let i = bytes.len() - 20;
        bytes[i] ^= 0xFF;
        match read_snapshot_v2(&bytes) {
            Err(SnapshotError::SectionCorrupt { .. }) => {}
            other => panic!("expected SectionCorrupt, got {other:?}"),
        }
    }

    #[test]
    fn truncated_v2_is_typed() {
        let (rel, cfg, store) = mined();
        let bytes = encode_snapshot_v2(rel.schema(), &cfg, &store, &rel);
        for cut in [bytes.len() - 1, bytes.len() - 13, 20, 4] {
            let out = read_snapshot_v2(&bytes[..cut]);
            assert!(out.is_err(), "cut at {cut} must fail");
        }
    }

    #[test]
    fn zero_row_relation_roundtrips() {
        let schema = Schema::new([("a", ValueType::Str), ("x", ValueType::Float)]).unwrap();
        let rel = Relation::new(schema);
        let cfg = MiningConfig::default();
        let store = PatternStore::new();
        let bytes = encode_snapshot_v2(rel.schema(), &cfg, &store, &rel);
        let loaded = read_snapshot_v2(&bytes).unwrap();
        assert_eq!(loaded.relation.num_rows(), 0);
        assert_eq!(loaded.relation, rel);
        let path = tmp("zero.cape");
        save_snapshot_v2(&path, rel.schema(), &cfg, &store, &rel).unwrap();
        assert_eq!(load_snapshot_v2(&path).unwrap().relation.num_rows(), 0);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn all_null_and_mixed_columns_roundtrip() {
        let schema =
            Schema::new([("s", ValueType::Str), ("n", ValueType::Int), ("m", ValueType::Int)])
                .unwrap();
        let mut rel = Relation::new(schema);
        rel.push_row(vec![Value::Null, Value::Null, Value::Int(1)]).unwrap();
        rel.push_row(vec![Value::Null, Value::Null, Value::str("degrade me")]).unwrap();
        rel.push_row(vec![Value::Null, Value::Null, Value::Float(2.5)]).unwrap();
        assert!(!rel.fully_typed(), "column m must have degraded to Mixed");
        let cfg = MiningConfig::default();
        let store = PatternStore::new();
        let path = tmp("nulls.cape");
        save_snapshot_v2(&path, rel.schema(), &cfg, &store, &rel).unwrap();
        let loaded = load_snapshot_v2(&path).unwrap();
        assert_eq!(loaded.relation, rel);
        assert!(loaded.relation.is_null(0, 0) && loaded.relation.is_null(2, 1));
        assert_eq!(loaded.relation.value(1, 2), Value::str("degrade me"));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn nan_and_negative_zero_survive_v2() {
        let schema = Schema::new([("x", ValueType::Float)]).unwrap();
        let mut rel = Relation::new(schema);
        rel.push_row(vec![Value::Float(f64::NAN)]).unwrap();
        rel.push_row(vec![Value::Float(-0.0)]).unwrap();
        rel.push_row(vec![Value::Float(-1.25)]).unwrap();
        let bytes =
            encode_snapshot_v2(rel.schema(), &MiningConfig::default(), &PatternStore::new(), &rel);
        let loaded = read_snapshot_v2(&bytes).unwrap();
        match loaded.relation.col(0) {
            Column::Float(c) => {
                assert_eq!(c.data[0].to_bits(), f64::NAN.to_bits(), "canonical NaN");
                assert_eq!(c.data[1].to_bits(), 0.0f64.to_bits(), "-0.0 canonicalized");
                assert_eq!(c.data[2], -1.25);
            }
            other => panic!("expected float column, got {other:?}"),
        }
        assert_eq!(loaded.relation, rel);
    }

    #[test]
    fn relation_only_load_skips_patterns() {
        let (rel, cfg, store) = mined();
        let path = tmp("relonly.cape");
        save_snapshot_v2(&path, rel.schema(), &cfg, &store, &rel).unwrap();
        let (schema, relation) = load_relation_v2(&path).unwrap();
        assert_eq!(&schema, rel.schema());
        assert_eq!(relation, rel);
        std::fs::remove_file(&path).ok();
    }
}
