//! `cape-store` — the durable, versioned binary snapshot of a mined
//! [`PatternStore`].
//!
//! CAPE splits its pipeline into an *offline* mining phase and an
//! *online* explanation phase (§1 of the paper); this module is the
//! durable boundary between the two. `cape mine --save store.cape`
//! persists the miner's output once, and every later `explain`,
//! `batch-explain`, or `cape-serve` process cold-starts from the
//! snapshot instead of re-mining, so start-up cost scales with pattern
//! count rather than relation size.
//!
//! ## File format (versions 1 and 2)
//!
//! ```text
//! ┌─ header ─────────────────────────────────────────────┐
//! │ magic    8B  b"CAPESNAP"                             │
//! │ version  u32 LE (1 or 2)                             │
//! │ sections u32 LE (3 in version 1, 4 in version 2)     │
//! ├─ section × N, in tag order ──────────────────────────┤
//! │ tag      u32 LE (b"SCHM" / b"CONF" / b"PATS" /       │
//! │                  version 2 only: b"RELC")            │
//! │ len      u64 LE  payload length in bytes             │
//! │ payload  len bytes                                   │
//! │ crc32    u32 LE  CRC-32 (IEEE) of the payload        │
//! ├─ footer (commit marker) ─────────────────────────────┤
//! │ magic    8B  b"CAPECMIT"                             │
//! │ crc32    u32 LE  CRC-32 of every preceding byte      │
//! └──────────────────────────────────────────────────────┘
//! ```
//!
//! The version names the sections that follow. Both versions store the
//! pattern metadata and fitted models; version 2 also embeds the
//! relation's column slabs ([`v2`]). One parser walks the framing of
//! either version and checks every CRC before any payload is decoded.
//! [`read_snapshot`] reads either version against the live relation and
//! recomputes the aggregated group data from it (one group-by per
//! `F ∪ V` — far cheaper than mining, which also had to enumerate, sort,
//! and fit); a version 2 file's relation section is checked, not
//! decoded.
//!
//! ## Durability protocol
//!
//! [`save_snapshot`] writes the encoded bytes to a sibling temporary
//! file, `fsync`s it, atomically renames it over the destination, and
//! `fsync`s the parent directory. The footer's commit marker is written
//! last inside the buffer, so a torn write (rename observed before the
//! data was flushed) is detected as [`SnapshotError::Truncated`] rather
//! than being half-read.
//!
//! ## Failure taxonomy
//!
//! Every way a file can fail to load maps to one [`SnapshotError`]
//! variant — never a panic, hang, or silently wrong store. The
//! `snapshot::inject` fault-injection harness and the
//! `store_corruption` test matrix enforce this byte-by-byte.

pub mod codec;
pub mod inject;
pub mod v2;

pub use v2::{
    load_relation_v2, load_snapshot_v2, read_snapshot_v2, save_snapshot_v2, SnapshotV2Contents,
    FORMAT_VERSION_V2,
};

use crate::config::{AggSelection, MiningConfig, Thresholds};
use crate::group_data::GroupData;
use crate::pattern::Arp;
use crate::store::{fold_dev_bounds, FragKey, LocalPattern, Locals, PatternInstance, PatternStore};
use cape_data::{AggFunc, AttrId, Relation, Schema};
use cape_regress::Fitted;
use codec::{ByteReader, ByteWriter, WireError};
use std::collections::HashMap;
use std::io::Write;
use std::ops::Range;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Leading file magic: identifies a CAPE snapshot.
pub const MAGIC: &[u8; 8] = b"CAPESNAP";
/// Trailing commit marker: present only once the file is fully written.
pub const FOOTER_MAGIC: &[u8; 8] = b"CAPECMIT";
/// The v1 format version (patterns only; relation recomputed from CSV).
pub const FORMAT_VERSION: u32 = 1;

/// `(tag, display name)` of every section, in file order. A version 1
/// file holds the first three, a version 2 file all four.
const SECTIONS: [(u32, &str); 4] = [
    (u32::from_le_bytes(*b"SCHM"), "schema"),
    (u32::from_le_bytes(*b"CONF"), "config"),
    (u32::from_le_bytes(*b"PATS"), "patterns"),
    (u32::from_le_bytes(*b"RELC"), "relation"),
];

/// Magic, version and section count.
const HEADER_LEN: usize = 16;
/// A section's tag and length, before its payload.
const FRAME_HEAD: usize = 12;
/// A section's CRC, after its payload.
const FRAME_TAIL: usize = 4;
/// The commit marker and the body CRC.
const FOOTER_LEN: usize = 12;

/// The sections a file of `version` holds, in file order.
fn sections_of(version: u32) -> Option<&'static [(u32, &'static str)]> {
    match version {
        FORMAT_VERSION => Some(&SECTIONS[..3]),
        FORMAT_VERSION_V2 => Some(&SECTIONS),
        _ => None,
    }
}

/// Why a snapshot was rejected. One variant per failure class so callers
/// (the CLI's exit code 3, `cape-serve` construction, the corruption
/// test matrix) can react to the class, not a string.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapshotError {
    /// The file does not start with the snapshot magic.
    BadMagic,
    /// The file declares a format version this build cannot read, or a
    /// reader that needs the embedded relation was given a version 1
    /// file.
    VersionUnsupported {
        /// The version the file declared.
        found: u32,
    },
    /// A section failed its structural or CRC check.
    SectionCorrupt {
        /// Which section (`"header"`, `"schema"`, `"config"`,
        /// `"patterns"`, `"relation"`, or `"footer"`).
        section: &'static str,
    },
    /// The file ends early or its commit marker is missing (torn write).
    Truncated,
    /// The snapshot was mined against a different relation schema.
    SchemaMismatch(String),
    /// Filesystem failure (stringified to keep the error `Clone`).
    Io(String),
}

impl std::fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SnapshotError::BadMagic => f.write_str("bad magic (not a cape snapshot)"),
            SnapshotError::VersionUnsupported { found } => {
                write!(
                    f,
                    "unsupported snapshot version {found} (this build reads v{FORMAT_VERSION} \
                     and v{FORMAT_VERSION_V2}; only v{FORMAT_VERSION_V2} embeds the relation)"
                )
            }
            SnapshotError::SectionCorrupt { section } => write!(f, "section corrupt: {section}"),
            SnapshotError::Truncated => f.write_str("truncated snapshot (missing commit marker)"),
            SnapshotError::SchemaMismatch(m) => write!(f, "schema mismatch: {m}"),
            SnapshotError::Io(m) => write!(f, "io error: {m}"),
        }
    }
}

impl std::error::Error for SnapshotError {}

/// What a snapshot contains after validation against a live relation.
#[derive(Debug, Clone)]
pub struct SnapshotContents {
    /// The relation schema recorded at save time (validated to match the
    /// live relation on load).
    pub schema: Schema,
    /// The mining configuration the store was produced with. Initial
    /// FDs are not persisted and carry their default.
    pub config: MiningConfig,
    /// The reloaded pattern store, with group data recomputed from the
    /// live relation.
    pub store: PatternStore,
}

/// FNV-1a 64-bit fingerprint of a schema: attribute names and types in
/// order. Cheap to compare, stable across processes, and independent of
/// the in-memory layout.
pub fn schema_fingerprint(schema: &Schema) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |b: u8| {
        h ^= b as u64;
        h = h.wrapping_mul(0x1_0000_0000_01b3);
    };
    for attr in schema.iter() {
        for b in attr.name().bytes() {
            eat(b);
        }
        eat(0xFF);
        eat(match attr.value_type() {
            cape_data::ValueType::Int => 0,
            cape_data::ValueType::Float => 1,
            cape_data::ValueType::Str => 2,
        });
    }
    h
}

// --- encoding --------------------------------------------------------------

fn encode_schema_section(schema: &Schema) -> Vec<u8> {
    let mut w = ByteWriter::new();
    w.u64(schema_fingerprint(schema));
    w.u32(schema.arity() as u32);
    for attr in schema.iter() {
        w.str(attr.name());
        codec::write_value_type(&mut w, attr.value_type());
    }
    w.into_bytes()
}

fn encode_config_section(cfg: &MiningConfig) -> Vec<u8> {
    let mut w = ByteWriter::new();
    w.f64(cfg.thresholds.theta);
    w.u64(cfg.thresholds.delta as u64);
    w.f64(cfg.thresholds.lambda);
    w.u64(cfg.thresholds.global_support as u64);
    w.u64(cfg.psi as u64);
    w.u8(cfg.fd_pruning as u8);
    w.u32(cfg.models.len() as u32);
    for &m in &cfg.models {
        codec::write_model_type(&mut w, m);
    }
    w.u32(cfg.exclude.len() as u32);
    for &a in &cfg.exclude {
        w.u32(a as u32);
    }
    match &cfg.aggs {
        AggSelection::CountStar => w.u8(0),
        AggSelection::AllNumeric => w.u8(1),
        AggSelection::Explicit(list) => {
            w.u8(2);
            w.u32(list.len() as u32);
            for (func, attr) in list {
                codec::write_agg(&mut w, *func);
                match attr {
                    Some(a) => {
                        w.u8(1);
                        w.u32(*a as u32);
                    }
                    None => w.u8(0),
                }
            }
        }
    }
    w.into_bytes()
}

fn write_attr_list(w: &mut ByteWriter, ids: &[AttrId]) {
    w.u32(ids.len() as u32);
    for &a in ids {
        w.u32(a as u32);
    }
}

fn encode_patterns_section(store: &PatternStore) -> Vec<u8> {
    let mut w = ByteWriter::new();
    w.u32(store.len() as u32);
    for (_, inst) in store.iter() {
        write_attr_list(&mut w, inst.arp.f());
        write_attr_list(&mut w, inst.arp.v());
        codec::write_agg(&mut w, inst.arp.agg);
        match inst.arp.agg_attr {
            Some(a) => {
                w.u8(1);
                w.u32(a as u32);
            }
            None => w.u8(0),
        }
        codec::write_model_type(&mut w, inst.arp.model);
        w.f64(inst.confidence);
        w.u64(inst.num_supported as u64);
        // Locals in sorted key order: byte-identical files for equal stores.
        let mut locals: Vec<(&FragKey, &Arc<LocalPattern>)> = inst.locals.iter().collect();
        locals.sort_unstable_by(|a, b| a.0.cmp(b.0));
        w.u32(locals.len() as u32);
        for (key, local) in locals {
            w.u32(key.len() as u32);
            for v in key.iter() {
                codec::write_value(&mut w, v);
            }
            w.u64(local.support as u64);
            w.f64(local.fitted.gof);
            w.f64(local.max_pos_dev);
            w.f64(local.max_neg_dev);
            codec::write_model(&mut w, &local.fitted.model);
        }
    }
    w.into_bytes()
}

/// Encode a snapshot to bytes (the pure half of [`save_snapshot`]).
pub fn encode_snapshot(schema: &Schema, cfg: &MiningConfig, store: &PatternStore) -> Vec<u8> {
    encode(schema, cfg, store, None)
}

/// Encode a version 1 file, or a version 2 file when `rel` is given.
fn encode(
    schema: &Schema,
    cfg: &MiningConfig,
    store: &PatternStore,
    rel: Option<&Relation>,
) -> Vec<u8> {
    let mut payloads = vec![
        encode_schema_section(schema),
        encode_config_section(cfg),
        encode_patterns_section(store),
    ];
    let mut version = FORMAT_VERSION;
    if let Some(rel) = rel {
        // The relation pads its slabs to absolute file offsets, so it
        // needs to know where its payload will start.
        let at = HEADER_LEN
            + payloads.iter().map(|p| FRAME_HEAD + p.len() + FRAME_TAIL).sum::<usize>()
            + FRAME_HEAD;
        payloads.push(v2::encode_relation_section(rel, at));
        version = FORMAT_VERSION_V2;
    }
    let mut w = ByteWriter::new();
    w.bytes(MAGIC);
    w.u32(version);
    w.u32(payloads.len() as u32);
    for ((tag, _), payload) in SECTIONS.iter().zip(&payloads) {
        w.u32(*tag);
        w.u64(payload.len() as u64);
        w.bytes(payload);
        w.u32(codec::crc32(payload));
    }
    let mut out = w.into_bytes();
    let body_crc = codec::crc32(&out);
    out.extend_from_slice(FOOTER_MAGIC);
    out.extend_from_slice(&body_crc.to_le_bytes());
    out
}

// --- framing ---------------------------------------------------------------

/// A snapshot whose framing checked out: the magic, a known version, that
/// version's section tags in order, every section's CRC, the commit
/// marker, nothing after it, and the body CRC. No payload is decoded.
struct Framed<'a> {
    version: u32,
    /// `(section name, payload range)` in file order.
    sections: Vec<(&'static str, Range<usize>)>,
    bytes: &'a [u8],
}

impl<'a> Framed<'a> {
    /// The payload of the `i`-th section (0 schema, 1 config, 2 patterns,
    /// 3 relation).
    fn payload(&self, i: usize) -> &'a [u8] {
        &self.bytes[self.sections[i].1.clone()]
    }
}

/// The one walk over a snapshot's framing, for every reader and
/// [`layout`]. Each failure maps to the class the corruption matrix
/// expects at that offset.
fn parse_frames(bytes: &[u8]) -> Result<Framed<'_>, SnapshotError> {
    // A short prefix of the valid magic is a truncation, any other
    // leading bytes are not a snapshot at all.
    if bytes.len() < MAGIC.len() {
        return if *bytes == MAGIC[..bytes.len()] {
            Err(SnapshotError::Truncated)
        } else {
            Err(SnapshotError::BadMagic)
        };
    }
    let mut r = ByteReader::new(bytes);
    if r.take(8).expect("checked above") != MAGIC {
        return Err(SnapshotError::BadMagic);
    }
    let version = r.u32().map_err(|_| SnapshotError::Truncated)?;
    let table = sections_of(version).ok_or(SnapshotError::VersionUnsupported { found: version })?;
    let n_sections = r.u32().map_err(|_| SnapshotError::Truncated)?;
    if n_sections as usize != table.len() {
        return Err(SnapshotError::SectionCorrupt { section: "header" });
    }

    // Sections, in fixed order, each CRC-checked.
    let mut sections = Vec::with_capacity(table.len());
    for &(expected_tag, name) in table {
        let tag = r.u32().map_err(|_| SnapshotError::Truncated)?;
        if tag != expected_tag {
            return Err(SnapshotError::SectionCorrupt { section: name });
        }
        let len = r.u64().map_err(|_| SnapshotError::Truncated)?;
        let len = usize::try_from(len).map_err(|_| SnapshotError::Truncated)?;
        if len > r.remaining() {
            return Err(SnapshotError::Truncated);
        }
        let start = bytes.len() - r.remaining();
        let payload = r.take(len).expect("length checked");
        let crc = r.u32().map_err(|_| SnapshotError::Truncated)?;
        if codec::crc32(payload) != crc {
            return Err(SnapshotError::SectionCorrupt { section: name });
        }
        sections.push((name, start..start + len));
    }

    // Footer: commit marker + whole-body CRC. Absence ⇒ the write never
    // committed (torn write) ⇒ Truncated.
    let body_end = bytes.len() - r.remaining();
    let footer = r.take(FOOTER_LEN).map_err(|_| SnapshotError::Truncated)?;
    if &footer[..8] != FOOTER_MAGIC {
        return Err(SnapshotError::Truncated);
    }
    if !r.is_empty() {
        return Err(SnapshotError::SectionCorrupt { section: "footer" });
    }
    let file_crc = u32::from_le_bytes(footer[8..12].try_into().expect("4 bytes"));
    if codec::crc32(&bytes[..body_end]) != file_crc {
        return Err(SnapshotError::SectionCorrupt { section: "footer" });
    }
    Ok(Framed { version, sections, bytes })
}

// --- layout (for fault injection and tooling) ------------------------------

/// Byte ranges of the structural regions of a snapshot. Produced by
/// [`layout`]; consumed by the fault injector to mutate *at* boundaries.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SnapshotLayout {
    /// Magic + version + section count.
    pub header: Range<usize>,
    /// `(section name, full byte range incl. tag/len/crc)` in file order.
    pub sections: Vec<(&'static str, Range<usize>)>,
    /// Footer magic + file CRC.
    pub footer: Range<usize>,
}

impl SnapshotLayout {
    /// Every region boundary offset, ascending (truncation targets).
    pub fn boundaries(&self) -> Vec<usize> {
        let mut out = vec![self.header.start, self.header.end];
        for (_, r) in &self.sections {
            out.push(r.end);
        }
        out.push(self.footer.end);
        out
    }
}

/// The structural layout of a *valid* snapshot of either version, from
/// the same walk the readers make.
pub fn layout(bytes: &[u8]) -> Result<SnapshotLayout, SnapshotError> {
    let framed = parse_frames(bytes)?;
    let sections = framed
        .sections
        .into_iter()
        .map(|(name, p)| (name, p.start - FRAME_HEAD..p.end + FRAME_TAIL))
        .collect();
    Ok(SnapshotLayout {
        header: 0..HEADER_LEN,
        sections,
        footer: bytes.len() - FOOTER_LEN..bytes.len(),
    })
}

// --- decoding --------------------------------------------------------------

fn corrupt(section: &'static str) -> impl Fn(WireError) -> SnapshotError {
    move |_| SnapshotError::SectionCorrupt { section }
}

fn decode_schema_section(payload: &[u8]) -> Result<(u64, Schema), SnapshotError> {
    let e = corrupt("schema");
    let mut r = ByteReader::new(payload);
    let fingerprint = r.u64().map_err(&e)?;
    let arity = r.count(5).map_err(&e)?;
    let mut attrs = Vec::with_capacity(arity);
    for _ in 0..arity {
        let name = r.str().map_err(&e)?;
        let ty = codec::read_value_type(&mut r).map_err(&e)?;
        attrs.push((name, ty));
    }
    if !r.is_empty() {
        return Err(SnapshotError::SectionCorrupt { section: "schema" });
    }
    let schema =
        Schema::new(attrs).map_err(|_| SnapshotError::SectionCorrupt { section: "schema" })?;
    if schema_fingerprint(&schema) != fingerprint {
        return Err(SnapshotError::SectionCorrupt { section: "schema" });
    }
    Ok((fingerprint, schema))
}

fn decode_config_section(payload: &[u8]) -> Result<MiningConfig, SnapshotError> {
    let e = corrupt("config");
    let mut r = ByteReader::new(payload);
    let theta = r.f64().map_err(&e)?;
    let delta = r.usize().map_err(&e)?;
    let lambda = r.f64().map_err(&e)?;
    let global_support = r.usize().map_err(&e)?;
    let psi = r.usize().map_err(&e)?;
    let fd_pruning = match r.u8().map_err(&e)? {
        0 => false,
        1 => true,
        _ => return Err(SnapshotError::SectionCorrupt { section: "config" }),
    };
    let n_models = r.count(1).map_err(&e)?;
    let models = (0..n_models)
        .map(|_| codec::read_model_type(&mut r).map_err(&e))
        .collect::<Result<Vec<_>, _>>()?;
    let n_exclude = r.count(4).map_err(&e)?;
    let exclude = (0..n_exclude)
        .map(|_| r.u32().map(|a| a as AttrId).map_err(&e))
        .collect::<Result<Vec<_>, _>>()?;
    let aggs = match r.u8().map_err(&e)? {
        0 => AggSelection::CountStar,
        1 => AggSelection::AllNumeric,
        2 => {
            let n = r.count(2).map_err(&e)?;
            let mut list = Vec::with_capacity(n);
            for _ in 0..n {
                let func = codec::read_agg(&mut r).map_err(&e)?;
                let attr = match r.u8().map_err(&e)? {
                    0 => None,
                    1 => Some(r.u32().map_err(&e)? as AttrId),
                    _ => return Err(SnapshotError::SectionCorrupt { section: "config" }),
                };
                list.push((func, attr));
            }
            AggSelection::Explicit(list)
        }
        _ => return Err(SnapshotError::SectionCorrupt { section: "config" }),
    };
    if !r.is_empty() {
        return Err(SnapshotError::SectionCorrupt { section: "config" });
    }
    Ok(MiningConfig {
        thresholds: Thresholds::new(theta, delta, lambda, global_support),
        psi,
        aggs,
        models,
        exclude,
        fd_pruning,
        ..MiningConfig::default()
    })
}

struct PendingPattern {
    arp: Arp,
    confidence: f64,
    num_supported: usize,
    locals: Locals,
}

fn read_attr_list(r: &mut ByteReader) -> Result<Vec<AttrId>, WireError> {
    let n = r.count(4)?;
    (0..n).map(|_| r.u32().map(|a| a as AttrId)).collect()
}

fn decode_patterns_section(payload: &[u8]) -> Result<Vec<PendingPattern>, SnapshotError> {
    let e = corrupt("patterns");
    let mut r = ByteReader::new(payload);
    let n = r.count(1).map_err(&e)?;
    let mut out = Vec::with_capacity(n);
    // Every pattern holding on a fragment shares one key, as when mined.
    // Keys are shared by their encoded bytes, so each decodes to exactly
    // the values the file holds (`Int(1)` and `Float(1.0)` compare equal
    // but encode apart).
    let mut keys: HashMap<&[u8], FragKey> = HashMap::new();
    for _ in 0..n {
        let f = read_attr_list(&mut r).map_err(&e)?;
        let v = read_attr_list(&mut r).map_err(&e)?;
        let agg = codec::read_agg(&mut r).map_err(&e)?;
        let agg_attr = match r.u8().map_err(&e)? {
            0 => None,
            1 => Some(r.u32().map_err(&e)? as AttrId),
            _ => return Err(SnapshotError::SectionCorrupt { section: "patterns" }),
        };
        let model = codec::read_model_type(&mut r).map_err(&e)?;
        let confidence = r.f64().map_err(&e)?;
        let num_supported = r.usize().map_err(&e)?;
        let n_locals = r.count(1).map_err(&e)?;
        let mut locals = Locals::with_capacity(n_locals);
        for _ in 0..n_locals {
            let key_start = payload.len() - r.remaining();
            let key_len = r.count(1).map_err(&e)?;
            let key = (0..key_len)
                .map(|_| codec::read_value(&mut r).map_err(&e))
                .collect::<Result<Vec<_>, _>>()?;
            let key_bytes = &payload[key_start..payload.len() - r.remaining()];
            let key = Arc::clone(keys.entry(key_bytes).or_insert_with(|| key.into()));
            let support = r.usize().map_err(&e)?;
            let gof = r.f64().map_err(&e)?;
            let max_pos_dev = r.f64().map_err(&e)?;
            let max_neg_dev = r.f64().map_err(&e)?;
            let fit_model = codec::read_model(&mut r).map_err(&e)?;
            locals.insert(
                key,
                Arc::new(LocalPattern {
                    fitted: Fitted { model: fit_model, gof, n: support },
                    support,
                    max_pos_dev,
                    max_neg_dev,
                }),
            );
        }
        out.push(PendingPattern {
            arp: Arp::new(f, v, agg, agg_attr, model),
            confidence,
            num_supported,
            locals,
        });
    }
    if !r.is_empty() {
        return Err(SnapshotError::SectionCorrupt { section: "patterns" });
    }
    Ok(out)
}

/// Check the recorded schema against the live relation's.
fn validate_schema(recorded: &Schema, live: &Schema) -> Result<(), SnapshotError> {
    if schema_fingerprint(recorded) == schema_fingerprint(live) && recorded.arity() == live.arity()
    {
        return Ok(());
    }
    if recorded.arity() != live.arity() {
        return Err(SnapshotError::SchemaMismatch(format!(
            "snapshot was mined over {} attributes, live relation has {}",
            recorded.arity(),
            live.arity()
        )));
    }
    for (a, b) in recorded.iter().zip(live.iter()) {
        if a.name() != b.name() || a.value_type() != b.value_type() {
            return Err(SnapshotError::SchemaMismatch(format!(
                "attribute `{}:{}` in snapshot vs `{}:{}` in live relation",
                a.name(),
                a.value_type(),
                b.name(),
                b.value_type()
            )));
        }
    }
    Err(SnapshotError::SchemaMismatch("schema fingerprints differ".into()))
}

/// Rebuild pattern instances: recompute the shared group data per
/// `(F ∪ V, aggregates)` from the live relation.
fn rebuild_store(
    pendings: Vec<PendingPattern>,
    rel: &Relation,
) -> Result<PatternStore, SnapshotError> {
    let mut aggs_by_g: HashMap<Vec<AttrId>, Vec<(AggFunc, Option<AttrId>)>> = HashMap::new();
    for p in &pendings {
        let list = aggs_by_g.entry(p.arp.g_attrs()).or_default();
        let key = (p.arp.agg, p.arp.agg_attr);
        if !list.contains(&key) {
            list.push(key);
        }
    }
    let arity = rel.schema().arity();
    let mut cache: HashMap<Vec<AttrId>, Arc<GroupData>> = HashMap::new();
    let mut store = PatternStore::new();
    for p in pendings {
        let g = p.arp.g_attrs();
        if g.iter().any(|&a| a >= arity) {
            return Err(SnapshotError::SchemaMismatch(format!(
                "pattern references attribute {} but the relation has arity {arity}",
                g.iter().max().copied().unwrap_or(0)
            )));
        }
        let gd = match cache.get(&g) {
            Some(gd) => Arc::clone(gd),
            None => {
                let gd = Arc::new(
                    GroupData::compute(rel, &g, &aggs_by_g[&g])
                        .map_err(|e| SnapshotError::SchemaMismatch(e.to_string()))?,
                );
                cache.insert(g.clone(), Arc::clone(&gd));
                gd
            }
        };
        let agg_col = gd
            .agg_col(p.arp.agg, p.arp.agg_attr)
            .ok_or_else(|| SnapshotError::SchemaMismatch("aggregate column missing".into()))?;
        let mut inst = PatternInstance {
            arp: p.arp,
            data: gd,
            agg_col,
            locals: p.locals,
            confidence: p.confidence,
            num_supported: p.num_supported,
            max_pos_dev: 0.0,
            max_neg_dev: 0.0,
        };
        fold_dev_bounds(&mut inst);
        store.push(inst);
    }
    Ok(store)
}

/// A snapshot of either version whose framing is verified, whose schema
/// matches the live relation, and whose config is decoded. The patterns
/// (and a version 2 file's relation) are still encoded.
struct Checked<'a> {
    schema: Schema,
    config: MiningConfig,
    framed: Framed<'a>,
}

fn check<'a>(bytes: &'a [u8], live: &Schema) -> Result<Checked<'a>, SnapshotError> {
    let framed = parse_frames(bytes)?;
    let (_, schema) = decode_schema_section(framed.payload(0))?;
    validate_schema(&schema, live)?;
    let config = decode_config_section(framed.payload(1))?;
    Ok(Checked { schema, config, framed })
}

/// Run `read` over `bytes`, counting `store.load_ns` / `store.bytes` on
/// success and `store.corrupt_rejects` on every rejection. Every reader
/// of either version goes through here.
fn counted<T>(
    bytes: &[u8],
    read: impl FnOnce(&[u8]) -> Result<T, SnapshotError>,
) -> Result<T, SnapshotError> {
    let t0 = std::time::Instant::now();
    let out = read(bytes);
    match &out {
        Ok(_) => {
            cape_obs::observe_ns("store.load_ns", t0.elapsed().as_nanos() as u64);
            cape_obs::counter_add("store.bytes", bytes.len() as u64);
        }
        Err(SnapshotError::Io(_)) => {}
        Err(_) => cape_obs::counter_add("store.corrupt_rejects", 1),
    }
    out
}

/// Decode and validate a snapshot of either version from bytes,
/// recomputing group data from `rel`: the caller's relation is
/// authoritative (it may have grown past the snapshot), so a version 2
/// file's relation section is CRC-checked but not decoded. Counts
/// `store.load_ns` / `store.bytes` on success and
/// `store.corrupt_rejects` on every rejection.
pub fn read_snapshot(bytes: &[u8], rel: &Relation) -> Result<SnapshotContents, SnapshotError> {
    counted(bytes, |bytes| {
        let Checked { schema, config, framed } = check(bytes, rel.schema())?;
        let store = rebuild_store(decode_patterns_section(framed.payload(2))?, rel)?;
        Ok(SnapshotContents { schema, config, store })
    })
}

/// The format version and mining configuration of the snapshot file at
/// `path`, after every check [`read_snapshot`] makes except decoding the
/// patterns and rebuilding their group data — for callers that re-mine
/// the store.
pub(crate) fn load_snapshot_config(
    path: &Path,
    live: &Schema,
) -> Result<(u32, MiningConfig), SnapshotError> {
    let bytes = std::fs::read(path).map_err(|e| SnapshotError::Io(format!("read: {e}")))?;
    counted(&bytes, |bytes| check(bytes, live).map(|c| (c.framed.version, c.config)))
}

/// Load and validate a snapshot file of either version against `rel`.
pub fn load_snapshot(
    path: impl AsRef<Path>,
    rel: &Relation,
) -> Result<SnapshotContents, SnapshotError> {
    let bytes =
        std::fs::read(path.as_ref()).map_err(|e| SnapshotError::Io(format!("read: {e}")))?;
    read_snapshot(&bytes, rel)
}

/// Atomically write a snapshot: encode, write to a sibling temp file,
/// `fsync`, rename over `path`, `fsync` the directory. Returns the byte
/// size written. Counts `store.save_ns` and `store.bytes`.
pub fn save_snapshot(
    path: impl AsRef<Path>,
    schema: &Schema,
    cfg: &MiningConfig,
    store: &PatternStore,
) -> Result<u64, SnapshotError> {
    save(path.as_ref(), || encode_snapshot(schema, cfg, store))
}

/// Encode with `encode`, publish the bytes at `path` with
/// [`write_atomic`], and count `store.save_ns` / `store.bytes` (the
/// savers of both versions).
fn save(path: &Path, encode: impl FnOnce() -> Vec<u8>) -> Result<u64, SnapshotError> {
    let t0 = std::time::Instant::now();
    let bytes = encode();
    write_atomic(path, &bytes).map_err(|e| SnapshotError::Io(e.to_string()))?;
    cape_obs::observe_ns("store.save_ns", t0.elapsed().as_nanos() as u64);
    cape_obs::counter_add("store.bytes", bytes.len() as u64);
    Ok(bytes.len() as u64)
}

/// Durably publish `bytes` at `path`: write to a sibling temp file,
/// `fsync`, atomically rename, `fsync` the directory. The one writer
/// behind snapshots and the WAL's header and compaction rewrites.
///
/// The temp file is `<file name>.tmp.<pid>`. It is a function of the
/// whole target name, so two writers publishing different files — a
/// snapshot and the `.wal` beside it — never share a temp file.
pub(crate) fn write_atomic(path: &Path, bytes: &[u8]) -> std::io::Result<()> {
    let tmp = temp_path(path);
    {
        let mut f = std::fs::File::create(&tmp)?;
        f.write_all(bytes)?;
        // Data must be on disk *before* the rename publishes the file;
        // the commit-marker footer catches the case where it was not.
        f.sync_all()?;
    }
    if let Err(e) = std::fs::rename(&tmp, path) {
        let _ = std::fs::remove_file(&tmp);
        return Err(e);
    }
    // Persist the rename itself (directory entry). Best effort: some
    // filesystems reject directory fsync; the rename is still atomic.
    if let Some(parent) = path.parent() {
        let dir = if parent.as_os_str().is_empty() { Path::new(".") } else { parent };
        if let Ok(d) = std::fs::File::open(dir) {
            let _ = d.sync_all();
        }
    }
    Ok(())
}

/// The sibling temp file [`write_atomic`] writes before the rename.
fn temp_path(path: &Path) -> PathBuf {
    let mut name = path.as_os_str().to_os_string();
    name.push(format!(".tmp.{}", std::process::id()));
    PathBuf::from(name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mining::{Miner, ShareGrpMiner};
    use cape_data::{Value, ValueType};

    fn mined() -> (Relation, MiningConfig, PatternStore) {
        let schema = Schema::new([
            ("author", ValueType::Str),
            ("year", ValueType::Int),
            ("venue", ValueType::Str),
        ])
        .unwrap();
        let mut rel = Relation::new(schema);
        for a in 0..4 {
            for y in 0..6 {
                for p in 0..3 {
                    rel.push_row(vec![
                        Value::str(format!("a {a}|x%")),
                        Value::Int(2000 + y),
                        Value::str(if p % 2 == 0 { "KDD" } else { "ICDE" }),
                    ])
                    .unwrap();
                }
            }
        }
        let cfg = MiningConfig {
            thresholds: Thresholds::new(0.2, 3, 0.4, 2),
            psi: 3,
            ..MiningConfig::default()
        };
        let store = ShareGrpMiner.mine(&rel, &cfg).unwrap().store;
        (rel, cfg, store)
    }

    /// The snapshot and the WAL beside it are published through one
    /// writer; their temp files must differ and stay in the target's
    /// directory, where the rename is atomic.
    #[test]
    fn snapshot_and_wal_temp_files_never_collide() {
        let store = Path::new("dir/s.cape");
        let wal = crate::incr::wal_path_for(store);
        assert_ne!(temp_path(store), temp_path(&wal));
        assert_eq!(temp_path(store).parent(), store.parent());
        assert_eq!(temp_path(&wal).parent(), store.parent());
    }

    #[test]
    fn roundtrip_preserves_everything() {
        let (rel, cfg, store) = mined();
        assert!(!store.is_empty());
        let bytes = encode_snapshot(rel.schema(), &cfg, &store);
        let loaded = read_snapshot(&bytes, &rel).unwrap();
        assert_eq!(loaded.store.len(), store.len());
        assert_eq!(loaded.config.thresholds, cfg.thresholds);
        assert_eq!(loaded.config.psi, cfg.psi);
        assert_eq!(loaded.config.models, cfg.models);
        for ((_, a), (_, b)) in store.iter().zip(loaded.store.iter()) {
            assert_eq!(a.arp, b.arp);
            assert_eq!(a.confidence, b.confidence);
            assert_eq!(a.num_supported, b.num_supported);
            assert_eq!(a.locals, b.locals);
            assert_eq!(a.max_pos_dev, b.max_pos_dev);
            assert_eq!(a.max_neg_dev, b.max_neg_dev);
            for i in 0..a.data.relation.num_rows().min(5) {
                assert_eq!(a.predict_row(i), b.predict_row(i));
            }
        }
    }

    #[test]
    fn encoding_is_deterministic() {
        let (rel, cfg, store) = mined();
        let a = encode_snapshot(rel.schema(), &cfg, &store);
        let b = encode_snapshot(rel.schema(), &cfg, &store);
        assert_eq!(a, b, "same store must serialize to identical bytes");
    }

    #[test]
    fn layout_covers_the_whole_file() {
        let (rel, cfg, store) = mined();
        let bytes = encode_snapshot(rel.schema(), &cfg, &store);
        let lay = layout(&bytes).unwrap();
        assert_eq!(lay.header, 0..16);
        assert_eq!(lay.sections.len(), 3);
        assert_eq!(lay.sections[0].1.start, 16);
        assert_eq!(lay.footer.end, bytes.len());
        let mut prev = lay.header.end;
        for (_, r) in &lay.sections {
            assert_eq!(r.start, prev);
            prev = r.end;
        }
        assert_eq!(lay.footer.start, prev);
    }

    #[test]
    fn schema_mismatch_detected() {
        let (rel, cfg, store) = mined();
        let bytes = encode_snapshot(rel.schema(), &cfg, &store);
        // Same arity, different attribute type.
        let other = Schema::new([
            ("author", ValueType::Str),
            ("year", ValueType::Str),
            ("venue", ValueType::Str),
        ])
        .unwrap();
        let other_rel = Relation::new(other);
        match read_snapshot(&bytes, &other_rel) {
            Err(SnapshotError::SchemaMismatch(m)) => assert!(m.contains("year"), "{m}"),
            other => panic!("expected SchemaMismatch, got {other:?}"),
        }
        // Different arity.
        let narrow = Relation::new(Schema::new([("author", ValueType::Str)]).unwrap());
        assert!(matches!(read_snapshot(&bytes, &narrow), Err(SnapshotError::SchemaMismatch(_))));
    }

    #[test]
    fn version_and_magic_rejections() {
        let (rel, cfg, store) = mined();
        let mut bytes = encode_snapshot(rel.schema(), &cfg, &store);
        assert!(matches!(read_snapshot(b"hello world", &rel), Err(SnapshotError::BadMagic)));
        assert!(matches!(read_snapshot(b"CAPE", &rel), Err(SnapshotError::Truncated)));
        assert!(matches!(read_snapshot(b"", &rel), Err(SnapshotError::Truncated)));
        bytes[8] = 99; // version field
        assert!(matches!(
            read_snapshot(&bytes, &rel),
            Err(SnapshotError::VersionUnsupported { found: 99 })
        ));
    }

    #[test]
    fn empty_store_roundtrips() {
        let schema = Schema::new([("a", ValueType::Str)]).unwrap();
        let rel = Relation::new(schema);
        let bytes = encode_snapshot(rel.schema(), &MiningConfig::default(), &PatternStore::new());
        let loaded = read_snapshot(&bytes, &rel).unwrap();
        assert!(loaded.store.is_empty());
    }

    #[test]
    fn save_and_load_via_filesystem() {
        let (rel, cfg, store) = mined();
        let dir = std::env::temp_dir().join(format!("cape-snap-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("store.cape");
        let written = save_snapshot(&path, rel.schema(), &cfg, &store).unwrap();
        assert_eq!(written, std::fs::metadata(&path).unwrap().len());
        let loaded = load_snapshot(&path, &rel).unwrap();
        assert_eq!(loaded.store.len(), store.len());
        // No temp file left behind.
        let leftovers: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.file_name().to_string_lossy().contains("tmp"))
            .collect();
        assert!(leftovers.is_empty(), "temp files left behind: {leftovers:?}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn missing_file_is_io_not_corrupt() {
        let (rel, _, _) = mined();
        assert!(matches!(
            load_snapshot("/nonexistent/path/store.cape", &rel),
            Err(SnapshotError::Io(_))
        ));
    }
}
