//! Shared drill-down: enumerate counterbalance tuples for one
//! `(relevant pattern, refinement)` pair and offer them to the top-k heap.
//!
//! The work splits into two halves with very different reuse profiles:
//!
//! * [`raw_candidates`] — the **question-independent** scan. It depends
//!   only on `(F, t[F], P')`: which rows of `P'`'s grouped data match the
//!   fragment value, hold locally, and by how much they deviate. Two
//!   questions over the same relation that share a fragment value (same
//!   author, same shop, …) produce identical raw candidate lists, which
//!   is what `cape-serve` caches and shares across concurrent requests.
//! * [`offer_candidates`] — the **question-dependent** filter and scorer:
//!   direction of counterbalance, exclusion of the question tuple itself,
//!   distance, NORM, and the top-k offer.
//!
//! Both halves read the refinement's grouped relation in place: a
//! candidate is its row there, and only a candidate that clears the full
//! top-k's threshold is materialized as a tuple of values.
//!
//! [`drill_down`], which EXPL-GEN-NAIVE runs, keeps the definitions
//! literal where the two halves use kernels: it tests `t'[F] = t[F]` cell
//! by cell instead of through the key-match kernel, and its offer builds
//! each candidate's tuple, tests condition 4b by value equality and
//! scores it with [`tuple_distance`](crate::explain::DistanceModel::tuple_distance).
//! The oracle shares only the per-row candidate construction with the
//! optimized path, which looks the local model up by the row's `F'`
//! values.

use crate::explain::candidate::Explanation;
use crate::explain::score::score_value;
use crate::explain::topk::TopK;
use crate::explain::{ExplainConfig, ExplainStats};
use crate::question::UserQuestion;
use crate::store::PatternInstance;
use cape_data::ops::{rows_matching, CellProbe};
use cape_data::{AttrId, Value};

/// One tuple `t'` of a refinement's grouped data that matches the
/// fragment value and holds locally, together with its deviation — before
/// any question-specific filtering.
#[derive(Debug, Clone, PartialEq)]
pub struct RawCandidate {
    /// Row of `t'` in the refinement's grouped relation; its values are
    /// that row over [`DrillResult::cols`].
    pub row: usize,
    /// Actual aggregate value of `t'`.
    pub agg_value: f64,
    /// Local-model prediction for `t'`.
    pub predicted: f64,
    /// `agg_value − predicted` (Definition 8), any sign.
    pub deviation: f64,
}

/// The question-independent part of one `(F, t[F], P')` drill-down:
/// matching, locally-holding rows with their deviations.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DrillResult {
    /// Attributes of each candidate tuple, in `F'` then `V` order.
    pub attrs: Vec<AttrId>,
    /// Columns of [`attrs`](Self::attrs) in the refinement's grouped
    /// relation.
    pub cols: Vec<usize>,
    /// Candidate tuples (both deviation signs — callers filter by
    /// direction).
    pub candidates: Vec<RawCandidate>,
    /// Rows of the refinement's grouped relation that were scanned;
    /// feeds the `tuples_checked` statistic.
    pub rows_scanned: usize,
}

/// Scan refinement `p2` for rows whose `F`-projection equals `f_vals`
/// (condition 4a of Definition 7) and that hold locally under `P'`
/// (condition 3), recording each row's deviation. Depends only on
/// `(f_attrs, f_vals, p2)` — never on the user question — so the result
/// is cacheable and shareable across questions.
///
/// Condition 4a is tested on column codes by
/// [`rows_matching`](cape_data::ops::rows_matching); per-row work is done
/// only for the rows it returns, and allocates nothing: the `F'` key of
/// the local-model lookup and the predictors go into buffers reused from
/// row to row, and a candidate records its row, not its values, so a
/// cached result holds rows too. Every row is still tested, so
/// `rows_scanned` is the grouped relation's row count.
pub fn raw_candidates(f_attrs: &[AttrId], f_vals: &[Value], p2: &PatternInstance) -> DrillResult {
    let Some(cols) = DrillCols::of(f_attrs, p2) else {
        return DrillResult::default(); // refinement must contain P's partition attributes
    };
    let rows = rows_matching(&p2.data.relation, &cols.f, f_vals);
    candidates_at(p2, &cols, rows)
}

/// Where one drill-down's attributes sit among the columns of the
/// refinement's grouped relation.
struct DrillCols {
    /// `F`, tested by condition 4a.
    f: Vec<usize>,
    /// `F'`, the key of the local model.
    fprime: Vec<usize>,
    /// `V`, the predictors.
    v: Vec<usize>,
    /// The candidate tuple's attributes: `F'` then `V`.
    attrs: Vec<AttrId>,
    /// Their columns.
    t: Vec<usize>,
}

impl DrillCols {
    /// `None` when `p2`'s data lacks one of `f_attrs`.
    fn of(f_attrs: &[AttrId], p2: &PatternInstance) -> Option<Self> {
        let f = p2.data.cols_of_attrs(f_attrs)?;
        let mut attrs: Vec<AttrId> = p2.arp.f().to_vec();
        attrs.extend_from_slice(p2.arp.v());
        let t = p2.data.cols_of_attrs(&attrs)?;
        let fprime = p2.data.cols_of_attrs(p2.arp.f()).expect("F' within its own data");
        let v = p2.data.cols_of_attrs(p2.arp.v()).expect("V within its own data");
        Some(DrillCols { f, fprime, v, attrs, t })
    }
}

/// The candidates among `rows`, rows of `p2`'s grouped relation that
/// already satisfy condition 4a: those that hold locally under `P'`
/// (condition 3), with their deviations.
fn candidates_at(
    p2: &PatternInstance,
    cols: &DrillCols,
    rows: impl IntoIterator<Item = usize>,
) -> DrillResult {
    let rel = &p2.data.relation;
    let mut candidates = Vec::new();
    let mut key: Vec<Value> = Vec::with_capacity(cols.fprime.len());
    let mut x: Vec<f64> = Vec::with_capacity(cols.v.len());
    for i in rows {
        key.clear();
        key.extend(cols.fprime.iter().map(|&c| rel.value(i, c)));
        let Some(local) = p2.local(&key) else {
            continue;
        };
        if !p2.predictors_into(i, &cols.v, &mut x) {
            continue;
        }
        let Some(actual) = p2.data.agg_value(i, p2.agg_col) else { continue };
        let predicted = local.fitted.model.predict(&x);
        candidates.push(RawCandidate {
            row: i,
            agg_value: actual,
            predicted,
            deviation: actual - predicted,
        });
    }
    DrillResult {
        attrs: cols.attrs.clone(),
        cols: cols.t.clone(),
        candidates,
        rows_scanned: rel.num_rows(),
    }
}

/// Apply the question-dependent conditions of Definition 7 to a raw
/// drill-down result — counterbalancing direction (condition 5) and
/// exclusion of the question tuple itself when `G_{P'}` equals the
/// question's group-by set (condition 4b) — then score survivors against
/// the relevant pattern's NORM and push them into `topk`.
///
/// Condition 4b and the distance (Definition 9) read each candidate's
/// cells in `p2`'s grouped relation, against the question's values
/// compiled once per call; a candidate's tuple is built only when its
/// score clears the full top-k's threshold.
#[allow(clippy::too_many_arguments)]
pub fn offer_candidates(
    drill: &DrillResult,
    p_idx: usize,
    p2_idx: usize,
    p2: &PatternInstance,
    norm: f64,
    uq: &UserQuestion,
    cfg: &ExplainConfig,
    topk: &mut TopK,
    stats: &mut ExplainStats,
) {
    let rel = &p2.data.relation;
    let own = own_tuple(drill, p2, uq);
    let uq_probes: Option<Vec<CellProbe>> = own.as_ref().map(|own| {
        drill.cols.iter().zip(own).map(|(&c, v)| CellProbe::new(rel.col(c), v)).collect()
    });
    let distance_to =
        cfg.distance.to_rows(&uq.group_attrs, &uq.tuple, &drill.attrs, rel, &drill.cols);
    // Only an offer changes the top-k, so its threshold is read again
    // after each offer rather than for every candidate.
    let mut kth = topk.threshold();

    for cand in &drill.candidates {
        // (4b) t' ≠ t when over the same schema.
        if let Some(probes) = &uq_probes {
            if probes.iter().all(|p| p.matches(cand.row)) {
                continue;
            }
        }
        // (5) Deviation in the opposite direction.
        if !uq.dir.counterbalances(cand.deviation) {
            continue;
        }
        stats.candidates_generated += 1;

        let distance = distance_to.at(cand.row);
        let score = score_value(cand.deviation, uq.dir.is_low_sign(), distance, norm);
        // A full top-k refuses a score strictly below its k-th best: a
        // duplicate's live copy scores at least that much, and a new key
        // must beat it. Skip such a candidate before building it.
        if kth.is_some_and(|kth| score < kth) {
            continue;
        }
        topk.offer(Explanation {
            pattern_idx: p_idx,
            refinement_idx: p2_idx,
            attrs: drill.attrs.clone(),
            tuple: rel.row_project(cand.row, &drill.cols),
            agg_value: cand.agg_value,
            predicted: cand.predicted,
            deviation: cand.deviation,
            distance,
            norm,
            score,
        });
        kth = topk.threshold();
    }
}

/// The question's values over `drill.attrs` when `G_{P'}` equals the
/// question's group-by set: then `t' = t` must be excluded (condition 4b
/// of Definition 7).
fn own_tuple(drill: &DrillResult, p2: &PatternInstance, uq: &UserQuestion) -> Option<Vec<Value>> {
    let mut uq_sorted: Vec<AttrId> = uq.group_attrs.clone();
    uq_sorted.sort_unstable();
    (p2.arp.g_attrs() == uq_sorted).then(|| {
        drill.attrs.iter().map(|&a| uq.value_of(a).expect("covered attr").clone()).collect()
    })
}

/// [`offer_candidates`] as Definitions 7, 9 and 10 state it: each
/// candidate's tuple is projected from its row, condition 4b compares it
/// with the question's by value, [`tuple_distance`] scores it, and every
/// survivor is offered.
///
/// [`tuple_distance`]: crate::explain::DistanceModel::tuple_distance
#[allow(clippy::too_many_arguments)]
fn offer_literal(
    drill: &DrillResult,
    p_idx: usize,
    p2_idx: usize,
    p2: &PatternInstance,
    norm: f64,
    uq: &UserQuestion,
    cfg: &ExplainConfig,
    topk: &mut TopK,
    stats: &mut ExplainStats,
) {
    let own = own_tuple(drill, p2, uq);
    for cand in &drill.candidates {
        let tuple = p2.data.relation.row_project(cand.row, &drill.cols);
        // (4b) t' ≠ t when over the same schema.
        if own.as_ref() == Some(&tuple) {
            continue;
        }
        // (5) Deviation in the opposite direction.
        if !uq.dir.counterbalances(cand.deviation) {
            continue;
        }
        stats.candidates_generated += 1;
        let distance =
            cfg.distance.tuple_distance(&uq.group_attrs, &uq.tuple, &drill.attrs, &tuple);
        topk.offer(Explanation {
            pattern_idx: p_idx,
            refinement_idx: p2_idx,
            attrs: drill.attrs.clone(),
            tuple,
            agg_value: cand.agg_value,
            predicted: cand.predicted,
            deviation: cand.deviation,
            distance,
            norm,
            score: score_value(cand.deviation, uq.dir.is_low_sign(), distance, norm),
        });
    }
}

/// Iterate all tuples `t' ∈ γ_{F'∪V, agg(A)}(R)` for refinement `p2`,
/// apply the conditions of Definition 7, score survivors against the
/// relevant pattern's NORM, and push them into `topk`. Condition 4a is
/// the literal `t'[F] = t[F]` over materialized values, and the offer is
/// [`offer_literal`], so EXPL-GEN-NAIVE checks [`raw_candidates`]'
/// key-match kernel and [`offer_candidates`]' row kernels rather than
/// sharing them.
#[allow(clippy::too_many_arguments)]
pub(crate) fn drill_down(
    p_idx: usize,
    p: &PatternInstance,
    f_vals: &[Value],
    norm: f64,
    p2_idx: usize,
    p2: &PatternInstance,
    uq: &UserQuestion,
    cfg: &ExplainConfig,
    topk: &mut TopK,
    stats: &mut ExplainStats,
) {
    let drill = match DrillCols::of(p.arp.f(), p2) {
        Some(cols) => {
            let rel = &p2.data.relation;
            let rows = (0..rel.num_rows())
                .filter(|&i| cols.f.iter().zip(f_vals).all(|(&c, w)| rel.value(i, c) == *w));
            candidates_at(p2, &cols, rows)
        }
        None => DrillResult::default(),
    };
    stats.tuples_checked += drill.rows_scanned;
    offer_literal(&drill, p_idx, p2_idx, p2, norm, uq, cfg, topk, stats);
}
