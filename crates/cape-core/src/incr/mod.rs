//! Incremental ARP maintenance: streaming appends over a mined store.
//!
//! [`IncrStore`] keeps the mining state of a relation *live*: appending a
//! batch of rows updates the per-group aggregates in place, re-validates
//! only the fragments whose membership or aggregate outputs actually
//! changed (via per-fragment sufficient statistics — [`stats`]), and
//! re-derives the global holds from the updated local counts. Untouched
//! fragments keep their local patterns bit-for-bit; the regenerated
//! [`PatternStore`] lists instances in the exact order the batch miners
//! produce (group sets in lattice order × `(F, V)` splits × candidates),
//! so an incremental store is interchangeable with a re-mined one.
//!
//! Durability is a hot/durable tier split: the base relation's snapshot
//! (PR-4 format, untouched) plus a write-ahead log of append deltas beside
//! it ([`wal`]). Every append is committed to the WAL — fsync'd — *before*
//! the in-memory state changes; [`IncrStore::open`] replays the WAL over
//! the base relation and rebuilds the statistics, and
//! [`IncrStore::compact`] folds the accumulated delta into a fresh
//! snapshot and rewrites the WAL to a single consolidated record.
//!
//! What stays out of scope (and falls back to the batch path): candidates
//! whose fit has no compact sufficient statistics — multi-predictor
//! linear and quadratic models — are refit from the touched fragment's
//! rows only; deviation extremes are always recomputed by one scan of the
//! touched fragment (a running max cannot be maintained under value
//! updates). FD pruning changes the candidate space dynamically and is
//! rejected up front.

pub mod stats;
pub mod wal;

use crate::config::MiningConfig;
use crate::group_data::GroupData;
use crate::mining::candidates::{group_sets, splits_of, Split};
use crate::mining::fit::{FitOutcome, SplitCandidate};
use crate::mining::{make_instance, share_grp::build_candidates, validate_config};
use crate::pattern::Arp;
use crate::snapshot::{load_snapshot_config, save_snapshot, schema_fingerprint, SnapshotError};
use crate::store::{LocalPattern, PatternStore};
use cape_data::agg::Accumulator;
use cape_data::{AggFunc, AggSpec, AttrId, Relation, Schema, Value, ValueType};
use cape_regress::{fit, Fitted, ModelType};
use stats::{ConstStats, LinStats};
use std::collections::{HashMap, HashSet};
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
    wal_path: PathBuf,
    schema_fp: u64,
    last_seq: u64,
    /// Current on-disk WAL size, maintained incrementally (append adds
    /// the record's bytes, compaction resets to the rewritten file's).
    wal_size: u64,
}

/// Per-candidate sufficient statistics within one fragment.
enum CandStats {
    /// Constant fit from running moments.
    Const(ConstStats),
    /// Single-predictor linear fit from running moments.
    Lin1(LinStats),
    /// No compact statistics (multi-predictor linear, quadratic): refit
    /// from the fragment's rows when touched.
    Refit,
}

/// One fragment (`t[F] = f`) of one split: its member grouped rows and
/// per-candidate statistics plus current local patterns.
struct FragState {
    key: Vec<Value>,
    slots: Vec<usize>,
    cand_stats: Vec<CandStats>,
    locals: Vec<Option<LocalPattern>>,
}

impl FragState {
    fn new(key: Vec<Value>, candidates: &[SplitCandidate], n_v: usize) -> Self {
        let cand_stats = candidates
            .iter()
            .map(|c| match c.model {
                ModelType::Const => CandStats::Const(ConstStats::new()),
                ModelType::Lin if n_v == 1 => CandStats::Lin1(LinStats::new()),
                _ => CandStats::Refit,
            })
            .collect();
        FragState { key, slots: Vec::new(), cand_stats, locals: vec![None; candidates.len()] }
    }
}

/// One `(F, V)` split of a group set: its candidates and fragment states.
struct SplitState {
    split: Split,
    f_cols: Vec<usize>,
    v_cols: Vec<usize>,
    candidates: Vec<SplitCandidate>,
    frag_index: HashMap<Vec<Value>, usize>,
    frags: Vec<FragState>,
    /// Fragments with support ≥ δ (the batch path's `|frag_supp|`).
    supported: usize,
}

/// One group set `G`: the live aggregation (accumulators + grouped
/// relation) and its splits.
struct GroupState {
    g: Vec<AttrId>,
    aggs: Vec<(AggFunc, Option<AttrId>)>,
    grouped: Relation,
    accs: Vec<Vec<Accumulator>>,
    row_counts: Vec<u64>,
    index: HashMap<Vec<Value>, usize>,
    splits: Vec<SplitState>,
}

impl GroupState {
    fn new(
        rel: &Relation,
        cfg: &MiningConfig,
        g: Vec<AttrId>,
        aggs: Vec<(AggFunc, Option<AttrId>)>,
    ) -> Result<Self, IncrError> {
        let schema = grouped_schema(rel.schema(), &g, &aggs)?;
        let grouped = Relation::new(schema);
        // Throwaway GroupData over the empty grouped relation, used only
        // to enumerate candidates with the exact batch logic.
        let gd = GroupData::from_parts(g.clone(), grouped.clone(), &aggs);
        let mut splits = Vec::new();
        for split in splits_of(&g) {
            let f_cols = gd.cols_of_attrs(&split.f).expect("F within G");
            let v_cols = gd.cols_of_attrs(&split.v).expect("V within G");
            let candidates = build_candidates(rel, cfg, &gd, &split, &aggs);
            if candidates.is_empty() {
                continue;
            }
            splits.push(SplitState {
                split,
                f_cols,
                v_cols,
                candidates,
                frag_index: HashMap::new(),
                frags: Vec::new(),
                supported: 0,
            });
        }
        Ok(GroupState {
            g,
            aggs,
            grouped,
            accs: Vec::new(),
            row_counts: Vec::new(),
            index: HashMap::new(),
            splits,
        })
    }

    /// Fold rows `start..` of `rel` into the live aggregation, then
    /// re-validate every fragment they touched. Returns the number of
    /// touched fragments.
    fn ingest(
        &mut self,
        rel: &Relation,
        start: usize,
        thresholds: &crate::config::Thresholds,
    ) -> Result<usize, IncrError> {
        // Phase 1: route each new row to its grouped slot, capturing the
        // slot's aggregate outputs before its first update (`None` marks a
        // slot created by this batch).
        let mut touched: HashMap<usize, Option<Vec<Value>>> = HashMap::new();
        for i in start..rel.num_rows() {
            let key = rel.row_project(i, &self.g);
            let slot = match self.index.get(&key) {
                Some(&s) => {
                    touched
                        .entry(s)
                        .or_insert_with(|| Some(self.accs[s].iter().map(|a| a.finish()).collect()));
                    s
                }
                None => {
                    let s = self.grouped.num_rows();
                    self.accs
                        .push(self.aggs.iter().map(|&(func, _)| Accumulator::new(func)).collect());
                    self.row_counts.push(0);
                    let mut row = key.clone();
                    row.extend(self.aggs.iter().map(|_| Value::Null));
                    row.push(Value::Int(0));
                    self.grouped.push_row(row).expect("grouped arity is fixed");
                    self.index.insert(key, s);
                    touched.insert(s, None);
                    s
                }
            };
            for (j, &(_, attr)) in self.aggs.iter().enumerate() {
                self.accs[slot][j]
                    .update(attr.map(|a| rel.value(i, a)).as_ref())
                    .map_err(|e| IncrError::Core(e.to_string()))?;
            }
            self.row_counts[slot] += 1;
        }

        // The map's iteration order is arbitrary, but phases 3–4 fold
        // floating-point statistics in iteration order — sort by slot so
        // every run (and the batch path, which gathers fragment rows in
        // ascending grouped-row order) folds in the same order. Without
        // this, a fragment whose GoF sits a few ulps from θ can flip its
        // hold decision between two runs of the same build.
        let mut touched: Vec<(usize, Option<Vec<Value>>)> = touched.into_iter().collect();
        touched.sort_unstable_by_key(|&(slot, _)| slot);

        // Phase 2: refresh the touched grouped rows' aggregate outputs.
        let base = self.g.len();
        for &(slot, _) in &touched {
            for (j, acc) in self.accs[slot].iter().enumerate() {
                self.grouped.set_value(slot, base + j, acc.finish());
            }
            self.grouped.set_value(
                slot,
                base + self.aggs.len(),
                Value::Int(self.row_counts[slot] as i64),
            );
        }

        // Phase 3: per split, move each touched slot's old aggregate
        // values out of its fragment's statistics and the new ones in,
        // then recompute the locals of every touched fragment.
        let delta = thresholds.delta;
        let grouped = &self.grouped;
        let mut touched_frags_total = 0usize;
        for sp in &mut self.splits {
            let mut touched_frags: HashSet<usize> = HashSet::new();
            for (slot, old) in &touched {
                let slot = *slot;
                let f_key = grouped.row_project(slot, &sp.f_cols);
                let fi = match sp.frag_index.get(&f_key) {
                    Some(&fi) => fi,
                    None => {
                        let fi = sp.frags.len();
                        sp.frags.push(FragState::new(
                            f_key.clone(),
                            &sp.candidates,
                            sp.v_cols.len(),
                        ));
                        sp.frag_index.insert(f_key, fi);
                        fi
                    }
                };
                let frag = &mut sp.frags[fi];
                if old.is_none() {
                    frag.slots.push(slot);
                    // Support is monotone: count the δ-crossing once.
                    if frag.slots.len() == delta.max(1) {
                        sp.supported += 1;
                    }
                }
                for (ci, cand) in sp.candidates.iter().enumerate() {
                    let agg_idx = cand.agg_col - base;
                    let new_y = grouped.value(slot, cand.agg_col).as_f64();
                    // `None` = new slot (nothing to remove); `Some(None)`
                    // = the old aggregate output was NULL.
                    let old_y: Option<Option<f64>> =
                        old.as_ref().map(|finishes| finishes[agg_idx].as_f64());
                    match &mut frag.cand_stats[ci] {
                        CandStats::Const(st) => {
                            if let Some(oy) = old_y {
                                st.remove(oy);
                            }
                            st.add(new_y);
                        }
                        CandStats::Lin1(st) => {
                            let x = grouped.value(slot, sp.v_cols[0]).as_f64();
                            if let Some(oy) = old_y {
                                st.remove(x, oy);
                            }
                            st.add(x, new_y);
                        }
                        CandStats::Refit => {}
                    }
                }
                touched_frags.insert(fi);
            }

            // Phase 4: recompute the locals of the touched fragments only.
            let SplitState { candidates, v_cols, frags, .. } = sp;
            for &fi in &touched_frags {
                let frag = &mut frags[fi];
                let supported = frag.slots.len() >= delta;
                for (ci, cand) in candidates.iter().enumerate() {
                    let local = if supported {
                        compute_local(
                            grouped,
                            &frag.slots,
                            &frag.cand_stats[ci],
                            cand,
                            v_cols,
                            thresholds,
                        )
                    } else {
                        None
                    };
                    frag.locals[ci] = local;
                }
            }
            touched_frags_total += touched_frags.len();
        }
        Ok(touched_frags_total)
    }
}

/// When a stats-path GoF lands this close to θ, the hold decision is
/// decided by floating-point noise (the incremental and batch sums differ
/// in their last ulps). Inside this band the fragment is refit exactly
/// like the batch path, so `gof < θ` flips identically on both sides.
const GOF_EDGE: f64 = 1e-9;

/// Refit one fragment from its rows with the exact batch-path gathering
/// rules: non-NULL `y`; for models that read predictors, additionally all
/// `V` values present. `None` on < δ usable rows or a failed fit.
fn exact_refit(
    grouped: &Relation,
    slots: &[usize],
    cand: &SplitCandidate,
    v_cols: &[usize],
    th: &crate::config::Thresholds,
) -> Option<Fitted> {
    let lin = cand.model.requires_numeric_predictors();
    let mut xs: Vec<Vec<f64>> = Vec::new();
    let mut ys: Vec<f64> = Vec::new();
    for &slot in slots {
        let Some(y) = grouped.value(slot, cand.agg_col).as_f64() else { continue };
        if lin {
            let Some(x) = predictor_row(grouped, slot, v_cols) else { continue };
            xs.push(x);
        }
        ys.push(y);
    }
    if ys.len() < th.delta {
        return None;
    }
    fit(cand.model, &xs, &ys).ok()
}

/// Compute one fragment's local pattern for one candidate, mirroring the
/// batch gates of `fit_split`: usable evidence ≥ δ, a successful fit, GoF
/// ≥ θ, then one scan for the deviation extremes.
fn compute_local(
    grouped: &Relation,
    slots: &[usize],
    stats: &CandStats,
    cand: &SplitCandidate,
    v_cols: &[usize],
    th: &crate::config::Thresholds,
) -> Option<LocalPattern> {
    let fast = match stats {
        CandStats::Const(st) => {
            if st.n() < th.delta {
                return None;
            }
            Some(st.fit()?)
        }
        CandStats::Lin1(st) => {
            if st.n() < th.delta {
                return None;
            }
            Some(st.fit()?)
        }
        CandStats::Refit => None,
    };
    let fitted: Fitted = match fast {
        Some(f) if (f.gof - th.theta).abs() >= GOF_EDGE => f,
        // Knife-edge GoF (or no sufficient statistics): take the batch
        // path's exact number.
        _ => exact_refit(grouped, slots, cand, v_cols, th)?,
    };
    if fitted.gof < th.theta {
        return None;
    }

    // Deviation extremes cannot be maintained as running values (an
    // update can retire the current maximum), so rescan the touched
    // fragment's usable rows — still O(|fragment|), never O(|grouped|).
    let lin = cand.model.requires_numeric_predictors();
    let mut max_pos = 0.0f64;
    let mut max_neg = 0.0f64;
    for &slot in slots {
        let Some(y) = grouped.value(slot, cand.agg_col).as_f64() else { continue };
        let dev = if lin {
            let Some(x) = predictor_row(grouped, slot, v_cols) else { continue };
            y - fitted.model.predict(&x)
        } else {
            y - fitted.model.predict(&[])
        };
        max_pos = max_pos.max(dev);
        max_neg = max_neg.min(dev);
    }
    Some(LocalPattern { fitted, support: slots.len(), max_pos_dev: max_pos, max_neg_dev: max_neg })
}

/// The numeric predictor vector of one grouped row, or `None` when any
/// predictor is NULL/non-numeric (the batch path drops such rows for
/// models that read predictors).
fn predictor_row(grouped: &Relation, slot: usize, v_cols: &[usize]) -> Option<Vec<f64>> {
    let mut x = Vec::with_capacity(v_cols.len());
    for &c in v_cols {
        x.push(grouped.value(slot, c).as_f64()?);
    }
    Some(x)
}

/// The grouped relation's schema: `G` columns, one output column per
/// aggregate (`count` is integer, everything else float), then `__rows`.
/// Mirrors `cape-data`'s internal `grouped_output_schema`.
fn grouped_schema(
    base: &Schema,
    g: &[AttrId],
    aggs: &[(AggFunc, Option<AttrId>)],
) -> Result<Schema, IncrError> {
    let mut schema = base.project(g).map_err(|e| IncrError::Core(e.to_string()))?;
    for &(func, attr) in aggs {
        let spec = AggSpec { func, attr };
        let attr_name = match attr {
            Some(a) => {
                Some(base.attr(a).map_err(|e| IncrError::Core(e.to_string()))?.name().to_string())
            }
            None => None,
        };
        let ty = match func {
            AggFunc::Count => ValueType::Int,
            _ => ValueType::Float,
        };
        schema
            .push(cape_data::Attribute::new(spec.output_name(attr_name.as_deref()), ty))
            .map_err(|e| IncrError::Core(e.to_string()))?;
    }
    schema
        .push(cape_data::Attribute::new("__rows", ValueType::Int))
        .map_err(|e| IncrError::Core(e.to_string()))?;
    Ok(schema)
}

/// A mined store maintained incrementally under streaming appends.
pub struct IncrStore {
    relation: Relation,
    cfg: MiningConfig,
    groups: Vec<GroupState>,
    store: Arc<PatternStore>,
    delta_rows: Vec<Vec<Value>>,
    durability: Option<Durability>,
    /// Auto-compaction threshold: once the WAL exceeds this many bytes,
    /// `append` compacts before returning. `None` disables.
    wal_compact_bytes: Option<u64>,
}

impl IncrStore {
    /// Build the incremental state by streaming `relation` through the
    /// same fold the appends use, then derive the initial pattern store.
    /// The resulting store is order- and content-equivalent to a batch
    /// mine of `relation` under `cfg`.
    ///
    /// Rejects configurations that cannot be maintained incrementally
    /// (currently: `fd_pruning`, whose candidate space changes with the
    /// data).
    pub fn build(relation: Relation, cfg: MiningConfig) -> Result<Self, IncrError> {
        validate_config(&cfg).map_err(|e| IncrError::Config(e.to_string()))?;
        if cfg.fd_pruning {
            return Err(IncrError::Config(
                "fd_pruning prunes candidates data-dependently; maintain without it".to_string(),
            ));
        }
        let attrs = cfg.candidate_attrs(&relation);
        let mut groups = Vec::new();
        for g in group_sets(&attrs, cfg.psi) {
            let aggs = cfg.resolve_aggs(&relation, &g);
            if aggs.is_empty() {
                continue;
            }
            groups.push(GroupState::new(&relation, &cfg, g, aggs)?);
        }
        let mut incr = IncrStore {
            relation,
            cfg,
            groups,
            store: Arc::new(PatternStore::new()),
            delta_rows: Vec::new(),
            durability: None,
            wal_compact_bytes: Some(DEFAULT_WAL_COMPACT_BYTES),
        };
        incr.ingest_range(0)?;
        incr.store = Arc::new(incr.regenerate());
        Ok(incr)
    }

    /// Open a durable store: validate the snapshot at `store_path` and
    /// read its mining configuration (its patterns are rebuilt, not
    /// decoded), replay the sidecar WAL over `base`, and rebuild the
    /// incremental state over the combined relation. Creates an empty
    /// WAL beside the snapshot if none exists.
    ///
    /// A WAL that fails validation is a typed error — a partial or
    /// reordered delta is never installed.
    pub fn open(store_path: impl Into<PathBuf>, base: &Relation) -> Result<Self, IncrError> {
        let store_path = store_path.into();
        let config = load_snapshot_config(&store_path, base.schema())?;
        let schema_fp = schema_fingerprint(base.schema());
        let wal_path = wal_path_for(&store_path);
        let arity = base.schema().arity();

        let mut relation = base.clone();
        let mut delta_rows: Vec<Vec<Value>> = Vec::new();
        let last_seq = match wal::load_wal(&wal_path, schema_fp, arity)? {
            Some(replay) => {
                for (seq, batch) in replay.batches {
                    for row in batch {
                        validate_row(relation.schema(), &row)
                            .map_err(|_| WalError::Corrupt { seq, what: "row values" })?;
                        relation.push_row(row.clone()).expect("arity validated");
                        delta_rows.push(row);
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
        incr.delta_rows = delta_rows;
        let wal_size = std::fs::metadata(&wal_path).map(|m| m.len()).unwrap_or(0);
        incr.durability = Some(Durability { store_path, wal_path, schema_fp, last_seq, wal_size });
        Ok(incr)
    }

    /// Attach a snapshot/WAL pair to an in-memory store, creating an
    /// empty WAL beside `store_path` (and refusing a non-empty one — its
    /// rows would not be part of this store's relation). The snapshot
    /// itself is written by [`IncrStore::compact`] or `save_snapshot`.
    pub fn attach_durability(&mut self, store_path: impl Into<PathBuf>) -> Result<(), IncrError> {
        let store_path = store_path.into();
        let wal_path = wal_path_for(&store_path);
        let schema_fp = schema_fingerprint(self.relation.schema());
        if let Some(replay) = wal::load_wal(&wal_path, schema_fp, self.relation.schema().arity())? {
            if !replay.batches.is_empty() || replay.folded_seq != 0 {
                return Err(IncrError::Config(format!(
                    "refusing to attach existing non-empty WAL {}",
                    wal_path.display()
                )));
            }
        } else {
            wal::init_wal(&wal_path, schema_fp, 0)?;
        }
        let wal_size = std::fs::metadata(&wal_path).map(|m| m.len()).unwrap_or(0);
        self.durability =
            Some(Durability { store_path, wal_path, schema_fp, last_seq: 0, wal_size });
        Ok(())
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
        for row in &rows {
            self.relation.push_row(row.clone()).expect("arity validated");
        }
        let appended_rows = rows.len();
        self.delta_rows.extend(rows);

        let touched_fragments = self.ingest_range(start)?;
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
    /// the snapshot path (atomic), then rewrite the WAL as one
    /// consolidated record with the compaction watermark advanced to the
    /// last committed sequence number. A crash between the two writes
    /// leaves a newer snapshot with an older watermark — recovery simply
    /// replays the full WAL over the base relation, which is correct
    /// (rows never double-apply) just not yet compacted.
    pub fn compact(&mut self) -> Result<(), IncrError> {
        let Some(d) = &mut self.durability else { return Err(IncrError::NotDurable) };
        save_snapshot(&d.store_path, self.relation.schema(), &self.cfg, &self.store)?;
        let size = wal::write_compacted(&d.wal_path, d.schema_fp, d.last_seq, &self.delta_rows)?;
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

    /// The mining configuration the store is maintained under.
    pub fn config(&self) -> &MiningConfig {
        &self.cfg
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

    /// The auto-compaction threshold, if enabled (the default is
    /// [`DEFAULT_WAL_COMPACT_BYTES`]).
    pub fn wal_compact_threshold(&self) -> Option<u64> {
        self.wal_compact_bytes
    }

    /// Set (or with `None`, disable) the WAL size threshold past which
    /// [`IncrStore::append`] compacts automatically.
    pub fn set_wal_compact_threshold(&mut self, threshold: Option<u64>) {
        self.wal_compact_bytes = threshold;
    }

    /// Rows appended since the base relation (the WAL's logical content).
    pub fn delta_rows(&self) -> &[Vec<Value>] {
        &self.delta_rows
    }

    fn ingest_range(&mut self, start: usize) -> Result<usize, IncrError> {
        let relation = &self.relation;
        let thresholds = &self.cfg.thresholds;
        let mut touched = 0usize;
        for gs in &mut self.groups {
            touched += gs.ingest(relation, start, thresholds)?;
        }
        Ok(touched)
    }

    /// Derive the pattern store from the live fragment states, in the
    /// exact order the batch miners emit instances: group sets in lattice
    /// order, `(F, V)` splits in enumeration order, candidates in
    /// `build_candidates` order.
    fn regenerate(&self) -> PatternStore {
        let th = &self.cfg.thresholds;
        let mut store = PatternStore::new();
        for gs in &self.groups {
            if gs.splits.is_empty() || gs.grouped.is_empty() {
                continue;
            }
            // Fresh per-group data shared by this group's instances; old
            // epochs keep their own Arc (snapshot isolation).
            let gd = Arc::new(GroupData::from_parts(gs.g.clone(), gs.grouped.clone(), &gs.aggs));
            for sp in &gs.splits {
                if sp.supported == 0 {
                    continue;
                }
                for (ci, cand) in sp.candidates.iter().enumerate() {
                    let mut locals: HashMap<Vec<Value>, LocalPattern> = HashMap::new();
                    for frag in &sp.frags {
                        if frag.slots.len() < th.delta {
                            continue;
                        }
                        if let Some(local) = &frag.locals[ci] {
                            locals.insert(frag.key.clone(), local.clone());
                        }
                    }
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
                        store.push(make_instance(
                            arp,
                            Arc::clone(&gd),
                            cand.agg_col,
                            FitOutcome { locals, confidence, num_supported: sp.supported },
                        ));
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
    use crate::config::Thresholds;
    use crate::mining::share_grp::tests::pubs;
    use crate::mining::{Miner, ShareGrpMiner};

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
        let cfg = MiningConfig { fd_pruning: true, ..lenient_cfg() };
        assert!(matches!(IncrStore::build(rel, cfg), Err(IncrError::Config(_))));
    }

    #[test]
    fn durable_roundtrip_open_replays_wal() {
        let dir = std::env::temp_dir().join(format!("cape_incr_test_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let store_path = dir.join("pubs.cape");
        let full = pubs(6, 8, 2);
        let cfg = lenient_cfg();
        let n = full.num_rows();
        let cut = 3 * n / 4;
        let base = full.take(&(0..cut).collect::<Vec<_>>());

        // Mine the base, save its snapshot, then append durably.
        let mined = mine_store(&base, &cfg);
        save_snapshot(&store_path, base.schema(), &cfg, &mined).unwrap();
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
        // working (consolidated record, advanced watermark).
        let mut reopened = reopened;
        reopened.compact().unwrap();
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
        assert_eq!(incr.wal_compact_threshold(), Some(DEFAULT_WAL_COMPACT_BYTES));
        let threshold = 512u64;
        incr.set_wal_compact_threshold(Some(threshold));

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
                wal::encode_header(0, 0).len() as u64 + compacted_record_len(incr.delta_rows());
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
        incr.set_wal_compact_threshold(None);
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
