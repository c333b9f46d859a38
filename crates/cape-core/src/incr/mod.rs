//! Incremental ARP maintenance: streaming appends over a mined store.
//!
//! [`IncrStore`] keeps the mining state of a relation *live*. It is built
//! with the batch miners' kernels: one [`GroupData`] per group set — the
//! only copy of its aggregates — fragments from the packed group index,
//! and one fit per fragment. Appending a batch of rows folds each row
//! into its group's aggregate cells in place (resuming each aggregate
//! from its stored value), refits only the fragments whose membership or
//! aggregate outputs actually changed — with the batch miners' own
//! per-fragment fitter, over the fragment's grouped rows — and re-derives
//! the global holds from the updated local counts. Untouched fragments
//! share their local patterns between epochs; the regenerated
//! [`PatternStore`] lists instances in the exact order the batch miners
//! produce (group sets in lattice order × `(F, V)` splits × candidates),
//! so an incremental store is interchangeable with a re-mined one.
//!
//! Durability is a hot/durable tier split: the base relation's snapshot
//! (either version) plus a write-ahead log of append deltas beside it
//! ([`wal`]). Every append is committed to the WAL — fsync'd — *before*
//! the in-memory state changes; [`IncrStore::open`] replays the WAL over
//! the base relation and rebuilds the fragment state, and
//! [`IncrStore::compact`] folds the accumulated delta into a fresh
//! snapshot of the version it opened and rewrites the WAL to a single
//! consolidated record.
//!
//! FD pruning changes the candidate space dynamically, and a stored `avg`
//! cannot be resumed from its mean; both are rejected up front.

pub mod wal;

use crate::config::{AggSelection, MiningConfig, Thresholds};
use crate::group_data::GroupData;
use crate::mining::candidates::{group_sets, splits_of, Split};
use crate::mining::fit::{FitOutcome, FragmentFitter, SplitCandidate};
use crate::mining::{make_instance, share_grp::build_candidates, validate_config};
use crate::pattern::Arp;
use crate::snapshot::{
    load_snapshot_config, save_snapshot, save_snapshot_v2, schema_fingerprint, SnapshotError,
    FORMAT_VERSION_V2,
};
use crate::store::{FragKey, Locals, PatternStore};
use cape_data::agg::Accumulator;
use cape_data::ops::group_key_index;
use cape_data::{AggFunc, AttrId, Relation, Schema, Value, ValueType};
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use wal::WalError;

/// Why an incremental operation failed.
#[derive(Debug)]
pub enum IncrError {
    /// The mining configuration cannot be maintained incrementally.
    Config(String),
    /// An appended row has the wrong arity.
    Arity {
        /// Index of the offending row within the appended batch.
        row: usize,
        /// Expected arity (the relation schema's).
        expected: usize,
        /// The row's actual length.
        actual: usize,
    },
    /// An appended row holds a value incompatible with the schema.
    ValueType {
        /// Index of the offending row within the appended batch.
        row: usize,
        /// Column of the offending value.
        col: usize,
    },
    /// The base snapshot could not be loaded or saved.
    Snapshot(SnapshotError),
    /// The write-ahead log could not be read or written.
    Wal(WalError),
    /// `compact` was called on a store with no attached snapshot/WAL.
    NotDurable,
    /// A core mining/aggregation failure (stringified).
    Core(String),
}

impl std::fmt::Display for IncrError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IncrError::Config(m) => write!(f, "config not incrementally maintainable: {m}"),
            IncrError::Arity { row, expected, actual } => {
                write!(f, "appended row {row}: arity {actual}, schema expects {expected}")
            }
            IncrError::ValueType { row, col } => {
                write!(f, "appended row {row}: value in column {col} does not match the schema")
            }
            IncrError::Snapshot(e) => write!(f, "snapshot: {e}"),
            IncrError::Wal(e) => write!(f, "wal: {e}"),
            IncrError::NotDurable => {
                f.write_str("store has no attached snapshot/WAL (in-memory only)")
            }
            IncrError::Core(m) => write!(f, "{m}"),
        }
    }
}

impl std::error::Error for IncrError {}

impl From<SnapshotError> for IncrError {
    fn from(e: SnapshotError) -> Self {
        IncrError::Snapshot(e)
    }
}

impl From<WalError> for IncrError {
    fn from(e: WalError) -> Self {
        IncrError::Wal(e)
    }
}

/// What one append did: rows ingested, fragments re-validated, resulting
/// pattern count, and the WAL position the batch was committed at.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AppendReport {
    /// Rows ingested by this append.
    pub appended_rows: usize,
    /// Fragments whose local patterns were recomputed (summed over all
    /// group sets and splits).
    pub touched_fragments: usize,
    /// Pattern instances in the regenerated store.
    pub patterns: usize,
    /// WAL sequence number the batch committed at (`None` for in-memory
    /// stores and for empty batches, which write no record).
    pub wal_seq: Option<u64>,
    /// Bytes appended to the WAL.
    pub wal_bytes: u64,
    /// Whether this append pushed the WAL past its size threshold and
    /// triggered an automatic [`IncrStore::compact`].
    pub auto_compacted: bool,
}

/// Default WAL auto-compaction threshold (bytes). Once the on-disk log
/// grows past this, the next committed append folds it into the snapshot.
pub const DEFAULT_WAL_COMPACT_BYTES: u64 = 64 * 1024 * 1024;

/// Durable-tier state: where the snapshot and WAL live.
struct Durability {
    store_path: PathBuf,
    /// The snapshot's format version; compaction rewrites the same one.
    version: u32,
    wal_path: PathBuf,
    schema_fp: u64,
    last_seq: u64,
    /// Current on-disk WAL size, maintained incrementally (append adds
    /// the record's bytes, compaction resets to the rewritten file's).
    wal_size: u64,
}

/// One fragment (`t[F] = f`) of one split: its key and its member
/// grouped rows, in ascending order.
struct FragState {
    key: FragKey,
    slots: Vec<usize>,
}

/// One `(F, V)` split of a group set: its candidates, fragment states and
/// live local patterns.
struct SplitState {
    split: Split,
    f_cols: Vec<usize>,
    v_cols: Vec<usize>,
    candidates: Vec<SplitCandidate>,
    frag_index: HashMap<FragKey, usize>,
    frags: Vec<FragState>,
    /// `locals[ci]`: candidate `ci`'s local patterns, one entry per
    /// fragment where it holds. A refit replaces the entries of the
    /// fragments it touched; an epoch clones the maps of the candidates
    /// that hold globally, so it shares every untouched entry.
    locals: Vec<Locals>,
    /// Fragments with support ≥ δ (the batch path's `|frag_supp|`).
    supported: usize,
}

impl SplitState {
    /// Group `data`'s rows into the split's fragments with the packed
    /// group index — first-appearance ids and ascending slot lists, the
    /// state an append's fold keeps — and fit every fragment.
    fn build(
        data: &GroupData,
        split: Split,
        candidates: Vec<SplitCandidate>,
        thresholds: &Thresholds,
    ) -> Self {
        let grouped = &data.relation;
        let f_cols = data.cols_of_attrs(&split.f).expect("F within G");
        let v_cols = data.cols_of_attrs(&split.v).expect("V within G");
        let idx = group_key_index(grouped, &f_cols);
        let mut frags: Vec<FragState> = idx
            .first_rows
            .iter()
            .map(|&r| FragState {
                key: f_cols.iter().map(|&c| grouped.value(r as usize, c)).collect(),
                slots: Vec::new(),
            })
            .collect();
        for (slot, &fi) in idx.slots.iter().enumerate() {
            frags[fi as usize].slots.push(slot);
        }
        let frag_index = frags.iter().enumerate().map(|(fi, f)| (Arc::clone(&f.key), fi)).collect();
        let supported = frags.iter().filter(|f| f.slots.len() >= thresholds.delta).count();
        let mut sp = SplitState {
            split,
            f_cols,
            v_cols,
            locals: vec![Locals::new(); candidates.len()],
            candidates,
            frag_index,
            frags,
            supported,
        };
        // The live maps are empty: fit straight into them.
        sp.fit(grouped, 0..sp.frags.len(), thresholds);
        sp
    }

    /// Fit fragments `frag_ids` over `grouped` with the batch miners'
    /// fitter, inserting each holding local into its candidate's live
    /// map. The maps must hold no entry for these fragments.
    fn fit(
        &mut self,
        grouped: &Relation,
        frag_ids: impl IntoIterator<Item = usize>,
        thresholds: &Thresholds,
    ) {
        let SplitState { v_cols, candidates, frags, locals, .. } = self;
        let mut fitter = FragmentFitter::new(grouped, v_cols, candidates, thresholds);
        for fi in frag_ids {
            let frag = &frags[fi];
            if frag.slots.len() >= thresholds.delta {
                fitter.fit(&frag.slots, |ci, local| {
                    locals[ci].insert(Arc::clone(&frag.key), Arc::new(local));
                });
            }
        }
    }

    /// Refit the fragments an append touched: drop their entries, then
    /// fit them again. Every other entry, and the epochs that share it,
    /// is left alone.
    fn refit(&mut self, grouped: &Relation, frag_ids: &[usize], thresholds: &Thresholds) {
        for &fi in frag_ids {
            let key = &self.frags[fi].key;
            for cand_locals in &mut self.locals {
                cand_locals.remove(key);
            }
        }
        self.fit(grouped, frag_ids.iter().copied(), thresholds);
    }
}

/// One group set `G`: its aggregation — the only copy of each group's
/// aggregates and row count — the index from a group's `G` values to
/// its grouped row, and its splits.
struct GroupState {
    /// Appends fold into `data.relation` in place.
    data: GroupData,
    aggs: Vec<(AggFunc, Option<AttrId>)>,
    index: HashMap<Vec<Value>, usize>,
    splits: Vec<SplitState>,
}

impl GroupState {
    /// Aggregate `rel` by `g` with the batch miners' group-by and build
    /// every split that has candidates.
    fn build(
        rel: &Relation,
        cfg: &MiningConfig,
        g: &[AttrId],
        aggs: Vec<(AggFunc, Option<AttrId>)>,
    ) -> Result<Self, IncrError> {
        let data = GroupData::compute(rel, g, &aggs).map_err(|e| IncrError::Core(e.to_string()))?;
        let key_cols: Vec<usize> = (0..g.len()).collect();
        let index = (0..data.relation.num_rows())
            .map(|slot| (data.relation.row_project(slot, &key_cols), slot))
            .collect();
        let mut splits = Vec::new();
        for split in splits_of(g) {
            let candidates = build_candidates(rel, cfg, &data, &split, &aggs);
            if !candidates.is_empty() {
                splits.push(SplitState::build(&data, split, candidates, &cfg.thresholds));
            }
        }
        Ok(GroupState { data, aggs, index, splits })
    }

    /// Fold rows `start..` of `rel` into their groups' aggregate cells,
    /// then refit every fragment they touched. Returns the number of
    /// touched fragments.
    fn ingest(
        &mut self,
        rel: &Relation,
        start: usize,
        thresholds: &Thresholds,
    ) -> Result<usize, IncrError> {
        let GroupState { data, aggs, index, splits } = self;
        let base = data.group_attrs.len();
        // Phase 1: route each new row to its grouped slot and fold it into
        // the slot's cells. Slots from `first_new` on are created by this
        // batch, starting from an empty group's cells.
        let first_new = data.relation.num_rows();
        let mut touched: Vec<usize> = Vec::new();
        for i in start..rel.num_rows() {
            let key = rel.row_project(i, &data.group_attrs);
            let slot = match index.get(&key) {
                Some(&s) => s,
                None => {
                    let s = data.relation.num_rows();
                    let mut row = key.clone();
                    row.extend(aggs.iter().map(|&(func, _)| Accumulator::new(func).finish()));
                    row.push(Value::Int(0));
                    data.relation.push_row(row).expect("grouped arity is fixed");
                    index.insert(key, s);
                    s
                }
            };
            touched.push(slot);
            for (j, &(func, attr)) in aggs.iter().enumerate() {
                let col = base + j;
                let mut acc = Accumulator::resume(func, &data.relation.value(slot, col))
                    .expect("check_maintainable admits only aggregates that resume");
                acc.update(attr.map(|a| rel.value(i, a)).as_ref())
                    .map_err(|e| IncrError::Core(e.to_string()))?;
                data.relation.set_value(slot, col, acc.finish());
            }
            let rows = data.relation.value(slot, data.rows_col).as_i64().expect("__rows is Int");
            data.relation.set_value(slot, data.rows_col, Value::Int(rows + 1));
        }

        // Sorting by slot appends each batch's new slots to their
        // fragments in ascending order, so every fragment's slot list
        // stays ascending: one order per fragment, whatever the batching,
        // for the fitter to gather its points in.
        touched.sort_unstable();
        touched.dedup();

        // Phase 2: per split, add each new slot to its fragment, then
        // refit every touched fragment.
        let delta = thresholds.delta;
        let grouped = &data.relation;
        let mut touched_frags_total = 0usize;
        for sp in splits.iter_mut() {
            let mut touched_frags: Vec<usize> = Vec::new();
            for &slot in &touched {
                let f_key = grouped.row_project(slot, &sp.f_cols);
                let fi = match sp.frag_index.get(f_key.as_slice()) {
                    Some(&fi) => fi,
                    None => {
                        let fi = sp.frags.len();
                        let key: FragKey = f_key.into();
                        sp.frags.push(FragState { key: Arc::clone(&key), slots: Vec::new() });
                        sp.frag_index.insert(key, fi);
                        fi
                    }
                };
                let frag = &mut sp.frags[fi];
                if slot >= first_new {
                    frag.slots.push(slot);
                    // Support is monotone: count the δ-crossing once.
                    if frag.slots.len() == delta.max(1) {
                        sp.supported += 1;
                    }
                }
                touched_frags.push(fi);
            }
            touched_frags.sort_unstable();
            touched_frags.dedup();
            touched_frags_total += touched_frags.len();
            sp.refit(grouped, &touched_frags, thresholds);
        }
        Ok(touched_frags_total)
    }
}

/// Reject configurations that cannot be maintained incrementally:
/// invalid ones; `fd_pruning`, whose candidate space changes with the
/// data; and explicit `avg` aggregates, whose stored mean does not
/// determine the running sum an append would resume from.
fn check_maintainable(cfg: &MiningConfig) -> Result<(), IncrError> {
    validate_config(cfg).map_err(|e| IncrError::Config(e.to_string()))?;
    if cfg.fd_pruning {
        return Err(IncrError::Config(
            "fd_pruning prunes candidates data-dependently; maintain without it".to_string(),
        ));
    }
    if let AggSelection::Explicit(list) = &cfg.aggs {
        if list.iter().any(|&(func, _)| func == AggFunc::Avg) {
            return Err(IncrError::Config(
                "avg cannot resume from its stored mean; maintain without it".to_string(),
            ));
        }
    }
    Ok(())
}

/// A mined store maintained incrementally under streaming appends.
pub struct IncrStore {
    relation: Relation,
    cfg: MiningConfig,
    groups: Vec<GroupState>,
    store: Arc<PatternStore>,
    /// Rows of the base relation; the rows after them are the delta the
    /// WAL holds.
    base_rows: usize,
    durability: Option<Durability>,
    /// Auto-compaction threshold: once the WAL exceeds this many bytes,
    /// `append` compacts before returning. Always
    /// [`DEFAULT_WAL_COMPACT_BYTES`] outside this module's tests, which
    /// also use `None` to disable it.
    wal_compact_bytes: Option<u64>,
}

impl IncrStore {
    /// Build the incremental state with the batch miners' kernels: each
    /// group set is [`GroupData::compute`]'s aggregation, each split's
    /// fragments come from the packed group index over it, and every
    /// fragment is fitted once by the fitter appends refit with. The
    /// resulting store is order- and content-equivalent to a batch mine
    /// of `relation` under `cfg`.
    ///
    /// Rejects configurations that cannot be maintained incrementally:
    /// `fd_pruning`, whose candidate space changes with the data, and
    /// explicit `avg` aggregates.
    pub fn build(relation: Relation, cfg: MiningConfig) -> Result<Self, IncrError> {
        check_maintainable(&cfg)?;
        let attrs = cfg.candidate_attrs(&relation);
        let mut groups = Vec::new();
        for g in group_sets(&attrs, cfg.psi) {
            let aggs = cfg.resolve_aggs(&relation, &g);
            if aggs.is_empty() {
                continue;
            }
            let gs = GroupState::build(&relation, &cfg, &g, aggs)?;
            if !gs.splits.is_empty() {
                groups.push(gs);
            }
        }
        let mut incr = IncrStore {
            base_rows: relation.num_rows(),
            relation,
            cfg,
            groups,
            store: Arc::new(PatternStore::new()),
            durability: None,
            wal_compact_bytes: Some(DEFAULT_WAL_COMPACT_BYTES),
        };
        incr.store = Arc::new(incr.regenerate());
        Ok(incr)
    }

    /// Open a durable store: validate the snapshot at `store_path` (either
    /// version) and read its mining configuration (its patterns are
    /// rebuilt, not decoded; a version 2 file's relation is checked, not
    /// read), replay the sidecar WAL over `base`, and rebuild the
    /// incremental state over the combined relation. Creates an empty
    /// WAL beside the snapshot if none exists — but only once the
    /// snapshot's configuration has passed the checks of
    /// [`build`](Self::build), so a rejected store is left as it was.
    ///
    /// A WAL that fails validation is a typed error — a partial or
    /// reordered delta is never installed.
    pub fn open(store_path: impl Into<PathBuf>, base: &Relation) -> Result<Self, IncrError> {
        let store_path = store_path.into();
        let (version, config) = load_snapshot_config(&store_path, base.schema())?;
        // Before the WAL is touched: a store that cannot be maintained
        // must not gain a `.wal` that sends every later read down this path.
        check_maintainable(&config)?;
        let schema_fp = schema_fingerprint(base.schema());
        let wal_path = wal_path_for(&store_path);
        let arity = base.schema().arity();

        let mut relation = base.clone();
        let last_seq = match wal::load_wal(&wal_path, schema_fp, arity)? {
            Some(replay) => {
                for (seq, batch) in replay.batches {
                    for row in batch {
                        validate_row(relation.schema(), &row)
                            .map_err(|_| WalError::Corrupt { seq, what: "row values" })?;
                        relation.push_row(row).expect("arity validated");
                    }
                }
                replay.last_seq
            }
            None => {
                wal::init_wal(&wal_path, schema_fp, 0)?;
                0
            }
        };

        let mut incr = Self::build(relation, config)?;
        incr.base_rows = base.num_rows();
        let wal_size = std::fs::metadata(&wal_path).map(|m| m.len()).unwrap_or(0);
        incr.durability =
            Some(Durability { store_path, version, wal_path, schema_fp, last_seq, wal_size });
        Ok(incr)
    }

    /// Append a batch of rows. The batch is committed to the WAL (fsync'd)
    /// before any in-memory state changes; then only the fragments it
    /// touches are re-validated and the pattern store is regenerated.
    ///
    /// An empty batch is a no-op: no WAL record, no new store.
    pub fn append(&mut self, rows: Vec<Vec<Value>>) -> Result<AppendReport, IncrError> {
        let span = cape_obs::span_with_histogram("incr.append", "incr.append_ns");
        if rows.is_empty() {
            drop(span);
            return Ok(AppendReport {
                appended_rows: 0,
                touched_fragments: 0,
                patterns: self.store.len(),
                wal_seq: None,
                wal_bytes: 0,
                auto_compacted: false,
            });
        }
        for (i, row) in rows.iter().enumerate() {
            validate_row(self.relation.schema(), row).map_err(|e| match e {
                RowError::Arity { expected, actual } => {
                    IncrError::Arity { row: i, expected, actual }
                }
                RowError::ValueType { col } => IncrError::ValueType { row: i, col },
            })?;
        }

        // WAL first: the delta must be durable before it is visible.
        let (wal_seq, wal_bytes) = match &mut self.durability {
            Some(d) => {
                let seq = d.last_seq + 1;
                let bytes = wal::append_record(&d.wal_path, seq, &rows)?;
                d.last_seq = seq;
                d.wal_size += bytes;
                cape_obs::counter_add("incr.wal_bytes", bytes);
                (Some(seq), bytes)
            }
            None => (None, 0),
        };

        let start = self.relation.num_rows();
        let appended_rows = rows.len();
        for row in rows {
            self.relation.push_row(row).expect("arity validated");
        }

        let mut touched_fragments = 0usize;
        for gs in &mut self.groups {
            touched_fragments += gs.ingest(&self.relation, start, &self.cfg.thresholds)?;
        }
        cape_obs::counter_add("incr.fragments_revalidated", touched_fragments as u64);
        self.store = Arc::new(self.regenerate());

        // Size-triggered auto-compaction: once the log outgrows the
        // threshold, fold it into the snapshot so sustained appends keep
        // the WAL bounded by (threshold + one consolidated delta). The
        // batch itself is already durable at this point — a compaction
        // failure surfaces as an error but loses nothing on replay.
        let auto_compacted = match (self.wal_compact_bytes, &self.durability) {
            (Some(limit), Some(d)) if d.wal_size > limit => {
                self.compact()?;
                cape_obs::counter_add("incr.auto_compactions", 1);
                true
            }
            _ => false,
        };
        drop(span);
        Ok(AppendReport {
            appended_rows,
            touched_fragments,
            patterns: self.store.len(),
            wal_seq,
            wal_bytes,
            auto_compacted,
        })
    }

    /// Fold the WAL into a fresh snapshot: write the current patterns to
    /// the snapshot path (atomic) in the version the store was opened
    /// from, then rewrite the WAL as one consolidated record with the
    /// compaction watermark advanced to the last committed sequence
    /// number. A version 2 file keeps embedding the *base* relation (the
    /// live one without the appended rows), since the WAL still replays
    /// the delta over it. A crash between the two writes leaves a newer
    /// snapshot with an older watermark — recovery simply replays the
    /// full WAL over the base relation, which is correct (rows never
    /// double-apply) just not yet compacted.
    pub fn compact(&mut self) -> Result<(), IncrError> {
        let delta = self.delta_rows();
        let Some(d) = &mut self.durability else { return Err(IncrError::NotDurable) };
        let schema = self.relation.schema();
        if d.version == FORMAT_VERSION_V2 {
            let base = self.relation.take(&(0..self.base_rows).collect::<Vec<_>>());
            save_snapshot_v2(&d.store_path, schema, &self.cfg, &self.store, &base)?;
        } else {
            save_snapshot(&d.store_path, schema, &self.cfg, &self.store)?;
        }
        let size = wal::write_compacted(&d.wal_path, d.schema_fp, d.last_seq, &delta)?;
        d.wal_size = size;
        cape_obs::counter_add("incr.compactions", 1);
        Ok(())
    }

    /// The live relation (base plus every appended row).
    pub fn relation(&self) -> &Relation {
        &self.relation
    }

    /// The current pattern store, regenerated after each append. Clones of
    /// this `Arc` are snapshot-isolated: later appends install a new store
    /// without mutating this one.
    pub fn store(&self) -> Arc<PatternStore> {
        Arc::clone(&self.store)
    }

    /// Last committed WAL sequence number (`None` for in-memory stores).
    pub fn wal_seq(&self) -> Option<u64> {
        self.durability.as_ref().map(|d| d.last_seq)
    }

    /// Path of the attached WAL, if durable.
    pub fn wal_path(&self) -> Option<&Path> {
        self.durability.as_ref().map(|d| d.wal_path.as_path())
    }

    /// Current on-disk WAL size in bytes (`None` for in-memory stores).
    pub fn wal_size(&self) -> Option<u64> {
        self.durability.as_ref().map(|d| d.wal_size)
    }

    /// Rows appended since the base relation (the WAL's logical content),
    /// read back from the live relation.
    fn delta_rows(&self) -> Vec<Vec<Value>> {
        (self.base_rows..self.relation.num_rows()).map(|i| self.relation.row(i)).collect()
    }

    /// Derive the pattern store from the live local patterns, in the
    /// exact order the batch miners emit instances: group sets in lattice
    /// order, `(F, V)` splits in enumeration order, candidates in
    /// `build_candidates` order. Each holding candidate's instance gets a
    /// clone of its live map: pointers are copied, patterns are not.
    fn regenerate(&self) -> PatternStore {
        let th = &self.cfg.thresholds;
        let mut store = PatternStore::new();
        for gs in &self.groups {
            // A copy of the group set's data, made once its first instance
            // holds and shared by all of them; old epochs keep their own
            // (snapshot isolation).
            let mut gd: Option<Arc<GroupData>> = None;
            for sp in &gs.splits {
                if sp.supported == 0 {
                    continue;
                }
                for (cand, locals) in sp.candidates.iter().zip(&sp.locals) {
                    let good = locals.len();
                    let confidence = good as f64 / sp.supported as f64;
                    if good >= th.global_support && confidence >= th.lambda {
                        let arp = Arp::new(
                            sp.split.f.iter().copied(),
                            sp.split.v.iter().copied(),
                            cand.agg,
                            cand.agg_attr,
                            cand.model,
                        );
                        let outcome = FitOutcome {
                            locals: locals.clone(),
                            confidence,
                            num_supported: sp.supported,
                        };
                        let gd = gd.get_or_insert_with(|| Arc::new(gs.data.clone()));
                        store.push(make_instance(arp, Arc::clone(gd), cand.agg_col, outcome));
                    }
                }
            }
        }
        store
    }
}

/// Sidecar WAL path of a snapshot: `<store>.wal`.
pub fn wal_path_for(store_path: &Path) -> PathBuf {
    let mut os = store_path.as_os_str().to_os_string();
    os.push(".wal");
    PathBuf::from(os)
}

enum RowError {
    Arity { expected: usize, actual: usize },
    ValueType { col: usize },
}

/// Check one row against the schema: exact arity; each value NULL or of
/// the column's type (integers are accepted in float columns).
fn validate_row(schema: &Schema, row: &[Value]) -> Result<(), RowError> {
    if row.len() != schema.arity() {
        return Err(RowError::Arity { expected: schema.arity(), actual: row.len() });
    }
    for (col, v) in row.iter().enumerate() {
        let want = schema.attr(col).expect("arity checked").value_type();
        let ok = match v {
            Value::Null => true,
            Value::Int(_) => matches!(want, ValueType::Int | ValueType::Float),
            Value::Float(_) => matches!(want, ValueType::Float),
            Value::Str(_) => matches!(want, ValueType::Str),
        };
        if !ok {
            return Err(RowError::ValueType { col });
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mining::share_grp::tests::pubs;
    use crate::mining::{Miner, ShareGrpMiner};
    use crate::snapshot::FORMAT_VERSION;

    fn lenient_cfg() -> MiningConfig {
        MiningConfig {
            thresholds: Thresholds::new(0.5, 3, 0.5, 2),
            psi: 2,
            ..MiningConfig::default()
        }
    }

    /// Full-store equivalence: same order, same ARPs, same locals (keys,
    /// supports, fits, deviation bounds) to 1e-9.
    fn assert_stores_match(incr: &PatternStore, mined: &PatternStore) {
        assert_eq!(incr.len(), mined.len(), "pattern count");
        for ((_, a), (_, b)) in incr.iter().zip(mined.iter()) {
            assert_eq!(a.arp, b.arp);
            assert_eq!(a.num_supported, b.num_supported);
            assert!((a.confidence - b.confidence).abs() < 1e-9);
            assert_eq!(a.locals.len(), b.locals.len(), "locals of {:?}", a.arp);
            for (key, la) in &a.locals {
                let lb = b.locals.get(key).unwrap_or_else(|| panic!("missing local {key:?}"));
                assert_eq!(la.support, lb.support);
                assert_eq!(la.fitted.n, lb.fitted.n);
                assert!((la.fitted.gof - lb.fitted.gof).abs() < 1e-9);
                assert!((la.max_pos_dev - lb.max_pos_dev).abs() < 1e-9);
                assert!((la.max_neg_dev - lb.max_neg_dev).abs() < 1e-9);
            }
            assert!((a.max_pos_dev - b.max_pos_dev).abs() < 1e-9);
            assert!((a.max_neg_dev - b.max_neg_dev).abs() < 1e-9);
        }
    }

    fn mine_store(rel: &Relation, cfg: &MiningConfig) -> PatternStore {
        ShareGrpMiner.mine(rel, cfg).expect("mine").store
    }

    #[test]
    fn build_matches_batch_mine() {
        let rel = pubs(6, 8, 2);
        let cfg = lenient_cfg();
        let incr = IncrStore::build(rel.clone(), cfg.clone()).unwrap();
        assert!(!incr.store().is_empty(), "fixture should yield patterns");
        assert_stores_match(&incr.store(), &mine_store(&rel, &cfg));
    }

    #[test]
    fn append_matches_mine_of_combined_relation() {
        let full = pubs(6, 8, 2);
        let cfg = lenient_cfg();
        // Split: first 2/3 of rows are the base, the rest arrive in two
        // appended batches (including a single-row batch).
        let n = full.num_rows();
        let cut = 2 * n / 3;
        let base_idx: Vec<usize> = (0..cut).collect();
        let base = full.take(&base_idx);
        let mut incr = IncrStore::build(base, cfg.clone()).unwrap();
        let rest: Vec<Vec<Value>> = (cut..n).map(|i| full.row(i)).collect();
        let (single, bulk) = rest.split_at(1);
        let r1 = incr.append(single.to_vec()).unwrap();
        assert_eq!(r1.appended_rows, 1);
        assert!(r1.touched_fragments > 0);
        let r2 = incr.append(bulk.to_vec()).unwrap();
        assert_eq!(r2.appended_rows, bulk.len());
        assert_stores_match(&incr.store(), &mine_store(&full, &cfg));
    }

    #[test]
    fn empty_append_is_a_noop_without_new_store() {
        let rel = pubs(4, 6, 2);
        let mut incr = IncrStore::build(rel, lenient_cfg()).unwrap();
        let before = incr.store();
        let report = incr.append(Vec::new()).unwrap();
        assert_eq!(report.appended_rows, 0);
        assert_eq!(report.wal_seq, None);
        assert_eq!(report.wal_bytes, 0);
        // Same Arc: no new epoch was created.
        assert!(Arc::ptr_eq(&before, &incr.store()));
    }

    #[test]
    fn append_to_store_mined_from_zero_rows() {
        let full = pubs(5, 8, 2);
        let cfg = lenient_cfg();
        let empty = Relation::new(full.schema().clone());
        let mut incr = IncrStore::build(empty, cfg.clone()).unwrap();
        assert_eq!(incr.store().len(), 0);
        let rows: Vec<Vec<Value>> = full.iter_rows().collect();
        incr.append(rows).unwrap();
        assert_stores_match(&incr.store(), &mine_store(&full, &cfg));
    }

    #[test]
    fn invalid_rows_rejected_before_any_state_change() {
        let rel = pubs(4, 6, 2);
        let mut incr = IncrStore::build(rel.clone(), lenient_cfg()).unwrap();
        let before = incr.store();
        let err = incr.append(vec![vec![Value::Int(1)]]).unwrap_err();
        assert!(matches!(err, IncrError::Arity { row: 0, actual: 1, .. }));
        let bad_type: Vec<Value> = vec![Value::Int(7), Value::Int(2000), Value::Int(1)]; // author must be Str
        let arity = rel.schema().arity();
        assert_eq!(bad_type.len(), arity);
        let err = incr.append(vec![bad_type]).unwrap_err();
        assert!(matches!(err, IncrError::ValueType { row: 0, col: 0 }));
        assert!(Arc::ptr_eq(&before, &incr.store()));
        assert_eq!(incr.relation().num_rows(), rel.num_rows());
    }

    #[test]
    fn fd_pruning_rejected() {
        let rel = pubs(3, 4, 1);
        let fd = MiningConfig { fd_pruning: true, ..lenient_cfg() };
        // A stored mean does not determine its sum, so avg cannot resume.
        let avg = MiningConfig {
            aggs: AggSelection::Explicit(vec![(AggFunc::Count, None), (AggFunc::Avg, Some(1))]),
            ..lenient_cfg()
        };
        for cfg in [fd, avg] {
            assert!(matches!(IncrStore::build(rel.clone(), cfg), Err(IncrError::Config(_))));
        }
    }

    #[test]
    fn durable_roundtrip_open_replays_wal() {
        for version in [FORMAT_VERSION, FORMAT_VERSION_V2] {
            durable_roundtrip(version);
        }
    }

    /// Save, open, append, replay and compact a store saved as `version`.
    fn durable_roundtrip(version: u32) {
        let dir =
            std::env::temp_dir().join(format!("cape_incr_test_{}_v{version}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let store_path = dir.join("pubs.cape");
        let full = pubs(6, 8, 2);
        let cfg = lenient_cfg();
        let n = full.num_rows();
        let cut = 3 * n / 4;
        let base = full.take(&(0..cut).collect::<Vec<_>>());
        let version_on_disk = || {
            let bytes = std::fs::read(&store_path).unwrap();
            u32::from_le_bytes(bytes[8..12].try_into().unwrap())
        };

        // Mine the base, save its snapshot, then append durably.
        let mined = mine_store(&base, &cfg);
        if version == FORMAT_VERSION_V2 {
            save_snapshot_v2(&store_path, base.schema(), &cfg, &mined, &base).unwrap();
        } else {
            save_snapshot(&store_path, base.schema(), &cfg, &mined).unwrap();
        }
        let mut incr = IncrStore::open(&store_path, &base).unwrap();
        assert_eq!(incr.wal_seq(), Some(0));
        let rows: Vec<Vec<Value>> = (cut..n).map(|i| full.row(i)).collect();
        let report = incr.append(rows).unwrap();
        assert_eq!(report.wal_seq, Some(1));
        assert!(report.wal_bytes > 0);

        // A fresh open (fresh process in CI) replays the WAL and matches a
        // full mine of the combined relation.
        let reopened = IncrStore::open(&store_path, &base).unwrap();
        assert_eq!(reopened.wal_seq(), Some(1));
        assert_eq!(reopened.relation().num_rows(), n);
        assert_stores_match(&reopened.store(), &mine_store(&full, &cfg));

        // Compaction folds the delta into the snapshot and keeps replay
        // working (consolidated record, advanced watermark). The file
        // keeps its version, and a version 2 file its base relation.
        let mut reopened = reopened;
        reopened.compact().unwrap();
        assert_eq!(version_on_disk(), version);
        if version == FORMAT_VERSION_V2 {
            let (_, embedded) = crate::snapshot::load_relation_v2(&store_path).unwrap();
            assert_eq!(embedded, base);
        }
        let after_compact = IncrStore::open(&store_path, &base).unwrap();
        assert_eq!(after_compact.wal_seq(), Some(1));
        assert_stores_match(&after_compact.store(), &mine_store(&full, &cfg));
        assert_eq!(after_compact.delta_rows().len(), n - cut);

        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn sustained_appends_keep_wal_bounded() {
        let dir = std::env::temp_dir().join(format!("cape_autocompact_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let store_path = dir.join("pubs.cape");
        let full = pubs(6, 8, 2);
        let cfg = lenient_cfg();
        let n = full.num_rows();
        let base = full.take(&(0..2).collect::<Vec<_>>());
        let mined = mine_store(&base, &cfg);
        save_snapshot(&store_path, base.schema(), &cfg, &mined).unwrap();

        let mut incr = IncrStore::open(&store_path, &base).unwrap();
        assert_eq!(incr.wal_compact_bytes, Some(DEFAULT_WAL_COMPACT_BYTES));
        let threshold = 512u64;
        incr.wal_compact_bytes = Some(threshold);

        // One consolidated record holds the *entire* delta, so the lower
        // bound grows with it; what auto-compaction must bound is the
        // tail of per-append records on top of that.
        let mut compactions = 0usize;
        let mut max_excess = 0u64;
        for i in 2..n {
            let report = incr.append(vec![full.row(i)]).unwrap();
            if report.auto_compacted {
                compactions += 1;
            }
            let on_disk = std::fs::metadata(incr.wal_path().unwrap()).unwrap().len();
            assert_eq!(Some(on_disk), incr.wal_size(), "tracked size matches disk");
            let compacted_floor =
                wal::encode_header(0, 0).len() as u64 + compacted_record_len(&incr.delta_rows());
            max_excess = max_excess.max(on_disk.saturating_sub(compacted_floor));
        }
        assert!(compactions >= 2, "sustained appends must compact repeatedly ({compactions})");
        // Between compactions the tail of loose records never exceeds the
        // threshold plus the one record that crossed it.
        assert!(
            max_excess <= threshold + 256,
            "WAL tail grew unbounded: {max_excess} bytes over the compacted floor"
        );

        // Everything still replays: a fresh open matches the full mine.
        let reopened = IncrStore::open(&store_path, &base).unwrap();
        assert_eq!(reopened.relation().num_rows(), n);
        assert_stores_match(&reopened.store(), &mine_store(&full, &cfg));

        // Disabling the threshold stops auto-compaction.
        let mut incr = reopened;
        incr.wal_compact_bytes = None;
        let before = std::fs::metadata(incr.wal_path().unwrap()).unwrap().len();
        let report = incr.append(vec![full.row(0)]).unwrap();
        assert!(!report.auto_compacted);
        assert!(std::fs::metadata(incr.wal_path().unwrap()).unwrap().len() > before);

        std::fs::remove_dir_all(&dir).ok();
    }

    /// Size of the consolidated record compaction would write for `rows`.
    fn compacted_record_len(rows: &[Vec<Value>]) -> u64 {
        if rows.is_empty() {
            0
        } else {
            wal::encode_record(1, rows).len() as u64
        }
    }

    #[test]
    fn in_memory_compact_is_typed_error() {
        let rel = pubs(3, 4, 1);
        let mut incr = IncrStore::build(rel, lenient_cfg()).unwrap();
        assert!(matches!(incr.compact(), Err(IncrError::NotDurable)));
    }
}
