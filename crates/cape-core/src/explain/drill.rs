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
//! [`drill_down`], which EXPL-GEN-NAIVE runs, composes the same two
//! halves but tests `t'[F] = t[F]` cell by cell, as Definition 7 states
//! it, instead of through the key-match kernel: the oracle shares only
//! the per-row candidate construction with the optimized path.

use crate::explain::candidate::Explanation;
use crate::explain::score::score_value;
use crate::explain::topk::TopK;
use crate::explain::{ExplainConfig, ExplainStats};
use crate::question::UserQuestion;
use crate::store::PatternInstance;
use cape_data::ops::rows_matching;
use cape_data::{AttrId, Value};

/// One tuple `t'` of a refinement's grouped data that matches the
/// fragment value and holds locally, together with its deviation — before
/// any question-specific filtering.
#[derive(Debug, Clone, PartialEq)]
pub struct RawCandidate {
    /// Values of `t'` over [`DrillResult::attrs`] (`F'` then `V` order).
    pub tuple: Vec<Value>,
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
/// only for the rows it returns. Every row is still tested, so
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
    for i in rows {
        let Some(local) = p2.local(&rel.row_project(i, &cols.fprime)) else {
            continue;
        };
        let Some(x) = p2.predictors(i, &cols.v) else { continue };
        let Some(actual) = p2.data.agg_value(i, p2.agg_col) else { continue };
        let predicted = local.fitted.model.predict(&x);
        candidates.push(RawCandidate {
            tuple: rel.row_project(i, &cols.t),
            agg_value: actual,
            predicted,
            deviation: actual - predicted,
        });
    }
    DrillResult { attrs: cols.attrs.clone(), candidates, rows_scanned: rel.num_rows() }
}

/// Apply the question-dependent conditions of Definition 7 to a raw
/// drill-down result — counterbalancing direction (condition 5) and
/// exclusion of the question tuple itself when `G_{P'}` equals the
/// question's group-by set (condition 4b) — then score survivors against
/// the relevant pattern's NORM and push them into `topk`.
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
    // Same-schema check data: when G_{P'} equals the question's group-by
    // set, t' = t must be excluded (condition 4 of Definition 7).
    let mut uq_sorted: Vec<AttrId> = uq.group_attrs.clone();
    uq_sorted.sort_unstable();
    let same_schema = p2.arp.g_attrs() == uq_sorted;
    let uq_vals_for_t: Option<Vec<Value>> = if same_schema {
        Some(drill.attrs.iter().map(|&a| uq.value_of(a).expect("covered attr").clone()).collect())
    } else {
        None
    };

    for cand in &drill.candidates {
        // (4b) t' ≠ t when over the same schema.
        if let Some(uq_vals) = &uq_vals_for_t {
            if &cand.tuple == uq_vals {
                continue;
            }
        }
        // (5) Deviation in the opposite direction.
        if !uq.dir.counterbalances(cand.deviation) {
            continue;
        }
        stats.candidates_generated += 1;

        let distance =
            cfg.distance.tuple_distance(&uq.group_attrs, &uq.tuple, &drill.attrs, &cand.tuple);
        let score = score_value(cand.deviation, uq.dir.is_low_sign(), distance, norm);
        // A full top-k refuses a score strictly below its k-th best: a
        // duplicate's live copy scores at least that much, and a new key
        // must beat it. Skip such a candidate before building it.
        if topk.threshold().is_some_and(|kth| score < kth) {
            continue;
        }
        topk.offer(Explanation {
            pattern_idx: p_idx,
            refinement_idx: p2_idx,
            attrs: drill.attrs.clone(),
            tuple: cand.tuple.clone(),
            agg_value: cand.agg_value,
            predicted: cand.predicted,
            deviation: cand.deviation,
            distance,
            norm,
            score,
        });
    }
}

/// Iterate all tuples `t' ∈ γ_{F'∪V, agg(A)}(R)` for refinement `p2`,
/// apply the conditions of Definition 7, score survivors against the
/// relevant pattern's NORM, and push them into `topk`. Condition 4a is
/// the literal `t'[F] = t[F]` over materialized values, so EXPL-GEN-NAIVE
/// checks [`raw_candidates`]' key-match kernel rather than sharing it.
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
    offer_candidates(&drill, p_idx, p2_idx, p2, norm, uq, cfg, topk, stats);
}
