//! Fragment fitting: the FitPattern procedure (Algorithm 6) evaluating
//! whether patterns hold locally/globally by one scan of a sorted
//! aggregation result, for *all* candidates sharing an `(F, V)` split.
//!
//! Its per-fragment body, `FragmentFitter`, is the only fitter: the
//! batch miners run it through [`fit_split`], and `IncrStore` runs it over
//! each fragment an append touched. NAIVE keeps its own retrieval queries
//! but settles knife-edge GoFs with the same `settle_in_band`.

use crate::config::Thresholds;
use crate::store::{FragKey, LocalPattern, Locals};
use cape_data::ops::perm_block_starts;
use cape_data::{AggFunc, AttrId, NumView, Relation};
use cape_regress::{fit, fit_constant_batch, fit_linear1_batch, Fitted, ModelType, RegressError};
use std::cmp::Ordering;
use std::sync::Arc;

/// The batched kernels, the exact kernel, and every gather order agree
/// on a fragment's GoF to far below this band, so only a GoF landing
/// within it of θ can fall on different sides of θ on different paths.
/// [`settle_in_band`] redoes such fits in one canonical order.
const GOF_EDGE: f64 = 1e-9;

/// One pattern candidate sharing a given `(F, V)` split: the aggregate
/// call (with its column in the grouped relation) and the model type.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SplitCandidate {
    /// Aggregate function.
    pub agg: AggFunc,
    /// Aggregated attribute (`None` = `count(*)`).
    pub agg_attr: Option<AttrId>,
    /// Column index of `agg(A)` in the grouped relation being scanned.
    pub agg_col: usize,
    /// Regression model type to fit.
    pub model: ModelType,
}

/// The evidence that one candidate holds globally: its local models and
/// global-confidence bookkeeping.
#[derive(Debug, Clone)]
pub struct FitOutcome {
    /// Local models keyed by fragment value (F values, `f_cols` order).
    pub locals: Locals,
    /// `|frag_good| / |frag_supp|`.
    pub confidence: f64,
    /// `|frag_supp|`.
    pub num_supported: usize,
}

/// Scan `grouped` — a grouped relation (`γ_{F∪V, aggs}`) — *through* the
/// sort permutation `perm` (virtual row `i` is `grouped`'s row `perm[i]`,
/// ordered so that all rows of a fragment `t[F] = f` are consecutive) and
/// evaluate every candidate. Returns one entry per candidate:
/// `Some(outcome)` if the pattern holds globally under `thresholds`, else
/// `None`.
///
/// Reading through the permutation means no sorted copy of the grouped
/// relation is ever materialized — one permutation vector replaces a full
/// relation clone per `(F, V)` split.
///
/// This is the "evaluate multiple patterns in parallel with one scan"
/// optimization of Section 4.2.
///
/// Extraction runs over the typed column slabs (one enum branch per
/// column per block, raw `i64`/`f64` loads per row) and falls back to
/// per-cell `Value` dispatch only for columns that degraded to `Mixed`.
pub fn fit_split(
    grouped: &Relation,
    perm: &[usize],
    f_cols: &[usize],
    v_cols: &[usize],
    candidates: &[SplitCandidate],
    thresholds: &Thresholds,
) -> Vec<Option<FitOutcome>> {
    // The whole gather-and-fit scan is the miner's regression stage:
    // sample extraction plus the model fits. Classifying it under
    // `regress.` makes `MiningStats::regression_time` measure what the
    // batched kernels actually move. Inner `regress.fit` spans nest below
    // and are not double-counted by the phase breakdown.
    let _span = cape_obs::span("regress.fit_split");
    cape_obs::counter_add("mining.candidates_considered", candidates.len() as u64);
    let mut fragments_fitted = 0u64;
    let mut patterns_found = 0u64;

    let mut locals: Vec<Locals> = candidates.iter().map(|_| Locals::new()).collect();
    let mut num_supported = 0usize;
    let mut fitter = FragmentFitter::new(grouped, v_cols, candidates, thresholds);
    let starts = perm_block_starts(grouped, perm, f_cols);
    for w in starts.windows(2) {
        let block = &perm[w[0]..w[1]];
        if block.len() < thresholds.delta {
            continue; // insufficient evidence: excluded from frag_supp
        }
        num_supported += 1;
        // One key per fragment, shared by every candidate holding there.
        let f_key: FragKey = grouped.row_project(block[0], f_cols).into();
        fragments_fitted += fitter.fit(block, |ci, local| {
            locals[ci].insert(f_key.clone(), Arc::new(local));
        });
    }

    let out: Vec<Option<FitOutcome>> = locals
        .into_iter()
        .map(|locals| {
            if num_supported == 0 {
                return None;
            }
            let good = locals.len();
            let confidence = good as f64 / num_supported as f64;
            if good >= thresholds.global_support && confidence >= thresholds.lambda {
                patterns_found += 1;
                Some(FitOutcome { locals, confidence, num_supported })
            } else {
                None
            }
        })
        .collect();
    cape_obs::counter_add("mining.fragments_fitted", fragments_fitted);
    cape_obs::counter_add("mining.patterns_found", patterns_found);
    out
}

/// The per-fragment body of FitPattern, shared by [`fit_split`] and
/// `IncrStore`'s refit of the fragments an append touched: gather one
/// fragment's points from the grouped relation's slabs, fit every
/// candidate (the batched kernels for Const and single-predictor Lin,
/// the exact `fit` otherwise), settle in-band GoFs with
/// [`settle_in_band`], and take each holding fit's deviation extremes.
/// The scratch buffers are reused from fragment to fragment.
pub(crate) struct FragmentFitter<'a> {
    grouped: &'a Relation,
    v_cols: &'a [usize],
    candidates: &'a [SplitCandidate],
    thresholds: &'a Thresholds,
    needs_numeric_x: bool,
    /// Distinct aggregate columns, and each candidate's slot among them.
    distinct_cols: Vec<usize>,
    col_slot: Vec<usize>,
    // Predictor rows are only materialized when some candidate actually
    // reads them — models that ignore predictors fit straight from the
    // y buffer.
    xs_rows: Vec<Vec<f64>>,
    xs_flat: Vec<f64>,
    x_missing: Vec<bool>,
    ys_raw: Vec<Vec<Option<f64>>>,
    ys_dense: Vec<Vec<f64>>,
    ys_is_dense: Vec<bool>,
}

impl<'a> FragmentFitter<'a> {
    pub(crate) fn new(
        grouped: &'a Relation,
        v_cols: &'a [usize],
        candidates: &'a [SplitCandidate],
        thresholds: &'a Thresholds,
    ) -> Self {
        let mut distinct_cols: Vec<usize> = Vec::new();
        let col_slot: Vec<usize> = candidates
            .iter()
            .map(|c| {
                distinct_cols.iter().position(|&d| d == c.agg_col).unwrap_or_else(|| {
                    distinct_cols.push(c.agg_col);
                    distinct_cols.len() - 1
                })
            })
            .collect();
        let n_cols = distinct_cols.len();
        FragmentFitter {
            grouped,
            v_cols,
            candidates,
            thresholds,
            needs_numeric_x: candidates.iter().any(|c| c.model.requires_numeric_predictors()),
            distinct_cols,
            col_slot,
            xs_rows: Vec::new(),
            xs_flat: Vec::new(),
            x_missing: Vec::new(),
            ys_raw: vec![Vec::new(); n_cols],
            ys_dense: vec![Vec::new(); n_cols],
            ys_is_dense: vec![false; n_cols],
        }
    }

    /// Fit every candidate over one fragment — the grouped rows `block`,
    /// whose count is the fragment's support — and hand each local
    /// pattern that holds to `hold` with its candidate's index. Returns
    /// the number of candidates with at least δ usable points (the fits
    /// attempted).
    pub(crate) fn fit(
        &mut self,
        block: &[usize],
        mut hold: impl FnMut(usize, LocalPattern),
    ) -> u64 {
        let th = self.thresholds;
        let mut fitted_count = 0u64;

        // Pre-extract predictor rows once per block; nulls become 0.0 and
        // are flagged so models needing numeric predictors can drop the
        // row.
        let mut n_x_missing = 0usize;
        if self.needs_numeric_x {
            gather_xs(self.grouped, self.v_cols, block, &mut self.xs_rows, &mut self.x_missing);
            n_x_missing = self.x_missing.iter().filter(|&&m| m).count();
            // Flat predictor slab for the batched single-predictor OLS
            // kernel (row-major `xs_rows` stays the fallback shape).
            if self.v_cols.len() == 1 {
                self.xs_flat.clear();
                self.xs_flat.extend(self.xs_rows.iter().map(|r| r[0]));
            }
        }

        // Pre-extract each distinct aggregate column once per block,
        // keeping the null-free dense form so the common case fits
        // straight from the shared buffers with no per-candidate copies.
        for (j, &col) in self.distinct_cols.iter().enumerate() {
            let raw = &mut self.ys_raw[j];
            let dense = &mut self.ys_dense[j];
            raw.clear();
            dense.clear();
            self.ys_is_dense[j] = gather_ys(self.grouped, col, block, raw, dense);
        }

        for (ci, (cand, &slot)) in self.candidates.iter().zip(&self.col_slot).enumerate() {
            let lin = cand.model.requires_numeric_predictors();
            let dense = self.ys_is_dense[slot] && (!lin || n_x_missing == 0);
            let mut xs_owned: Vec<Vec<f64>> = Vec::new();
            let mut ys_owned: Vec<f64> = Vec::new();
            // Dense fast path: no nulls anywhere — fit directly from the
            // shared block buffers. `xs_rows` is empty for models that
            // ignore predictors (their `predict` never reads `x`).
            let (xs, ys): (&[Vec<f64>], &[f64]) = if dense {
                (&self.xs_rows, &self.ys_dense[slot])
            } else {
                for (i, y_opt) in self.ys_raw[slot].iter().enumerate() {
                    let Some(y) = y_opt else { continue };
                    if lin && self.x_missing[i] {
                        continue; // missing numeric predictor: drop row
                    }
                    if lin {
                        xs_owned.push(self.xs_rows[i].clone());
                    }
                    ys_owned.push(*y);
                }
                (&xs_owned, &ys_owned)
            };
            if ys.len() < th.delta {
                continue; // nulls reduced the usable evidence below δ
            }
            fitted_count += 1;
            // Const and single-predictor Lin fits run the chunked slab
            // kernels over the flat buffers; a kernel error falls back to
            // the exact kernel.
            let batched = match cand.model {
                ModelType::Const => Some(fit_constant_batch(ys)),
                ModelType::Lin if lin && self.v_cols.len() == 1 && dense => {
                    Some(fit_linear1_batch(&self.xs_flat, ys))
                }
                _ => None,
            };
            let fitted = match batched {
                Some(Ok(f)) => Ok(f),
                _ => fit(cand.model, xs, ys),
            };
            let Ok(fitted) = fitted.and_then(|f| settle_in_band(cand.model, xs, ys, f, th.theta))
            else {
                continue;
            };
            if fitted.gof < th.theta {
                continue;
            }
            // Holds locally: record per-tuple deviation extremes for the
            // upper score bound (§3.5). `xs` may be empty for models that
            // ignore predictors (their `predict` never reads `x`).
            let mut max_pos = 0.0f64;
            let mut max_neg = 0.0f64;
            for (i, y) in ys.iter().enumerate() {
                let x: &[f64] = xs.get(i).map(Vec::as_slice).unwrap_or(&[]);
                let dev = y - fitted.model.predict(x);
                max_pos = max_pos.max(dev);
                max_neg = max_neg.min(dev);
            }
            hold(
                ci,
                LocalPattern {
                    fitted,
                    support: block.len(),
                    max_pos_dev: max_pos,
                    max_neg_dev: max_neg,
                },
            );
        }
        fitted_count
    }
}

/// Settle a fit whose GoF lands within [`GOF_EDGE`] of θ: redo it with
/// the exact `fit` over the points in one canonical order — sorted by
/// `x`, then `y` (`f64::total_cmp`), or by `y` alone for models that
/// ignore `x`. Every path then computes the same number from the same
/// ordered points, so the hold decision depends only on the fragment's
/// points, not on the order a path gathered them in. Fits outside the
/// band pass through unchanged; only in-band fits sort.
pub(crate) fn settle_in_band(
    model: ModelType,
    xs: &[Vec<f64>],
    ys: &[f64],
    fitted: Fitted,
    theta: f64,
) -> Result<Fitted, RegressError> {
    if (fitted.gof - theta).abs() >= GOF_EDGE {
        return Ok(fitted);
    }
    if !model.requires_numeric_predictors() {
        let mut ys = ys.to_vec();
        ys.sort_by(f64::total_cmp);
        return fit(model, &[], &ys);
    }
    let mut order: Vec<usize> = (0..ys.len()).collect();
    order.sort_by(|&a, &b| {
        let by_x = xs[a].iter().zip(&xs[b]).map(|(p, q)| p.total_cmp(q)).find(|o| o.is_ne());
        by_x.unwrap_or(Ordering::Equal).then(ys[a].total_cmp(&ys[b]))
    });
    let xs: Vec<Vec<f64>> = order.iter().map(|&i| xs[i].clone()).collect();
    let ys: Vec<f64> = order.iter().map(|&i| ys[i]).collect();
    fit(model, &xs, &ys)
}

/// Gather the aggregate column `col` through the permutation block into
/// the shared `raw`/`dense` buffers, returning whether every row was
/// present. The column's enum is matched once per block; inner loops run
/// over raw slab words. Produces `Value::as_f64` of each cell in block
/// order.
fn gather_ys(
    grouped: &Relation,
    col: usize,
    block: &[usize],
    raw: &mut Vec<Option<f64>>,
    dense: &mut Vec<f64>,
) -> bool {
    match grouped.num_view(col) {
        Some(NumView::Float { data, nulls }) => {
            if nulls.no_nulls() {
                for &p in block {
                    let y = data[p];
                    raw.push(Some(y));
                    dense.push(y);
                }
                true
            } else {
                let mut all_present = true;
                for &p in block {
                    if nulls.get(p) {
                        raw.push(None);
                        all_present = false;
                    } else {
                        raw.push(Some(data[p]));
                        dense.push(data[p]);
                    }
                }
                all_present
            }
        }
        Some(NumView::Int { data, nulls }) => {
            if nulls.no_nulls() {
                for &p in block {
                    let y = data[p] as f64;
                    raw.push(Some(y));
                    dense.push(y);
                }
                true
            } else {
                let mut all_present = true;
                for &p in block {
                    if nulls.get(p) {
                        raw.push(None);
                        all_present = false;
                    } else {
                        let y = data[p] as f64;
                        raw.push(Some(y));
                        dense.push(y);
                    }
                }
                all_present
            }
        }
        // Mixed (or string) column: per-cell dispatch.
        None => {
            let mut all_present = true;
            for &p in block {
                let v = grouped.value_f64(p, col);
                raw.push(v);
                match v {
                    Some(y) => dense.push(y),
                    None => all_present = false,
                }
            }
            all_present
        }
    }
}

/// Gather predictor rows through the permutation block, column by column,
/// into the reused row-major buffers. Missing (NULL / non-numeric) cells
/// become 0.0 with the row flagged.
fn gather_xs(
    grouped: &Relation,
    v_cols: &[usize],
    block: &[usize],
    xs_rows: &mut Vec<Vec<f64>>,
    x_missing: &mut Vec<bool>,
) {
    let n = block.len();
    let width = v_cols.len();
    // Reuse the outer Vec and each row's allocation across blocks.
    xs_rows.truncate(n);
    for row in xs_rows.iter_mut() {
        row.clear();
        row.resize(width, 0.0);
    }
    while xs_rows.len() < n {
        xs_rows.push(vec![0.0; width]);
    }
    x_missing.clear();
    x_missing.resize(n, false);

    for (j, &c) in v_cols.iter().enumerate() {
        match grouped.num_view(c) {
            Some(NumView::Float { data, nulls }) => {
                if nulls.no_nulls() {
                    for (i, &p) in block.iter().enumerate() {
                        xs_rows[i][j] = data[p];
                    }
                } else {
                    for (i, &p) in block.iter().enumerate() {
                        if nulls.get(p) {
                            x_missing[i] = true;
                        } else {
                            xs_rows[i][j] = data[p];
                        }
                    }
                }
            }
            Some(NumView::Int { data, nulls }) => {
                if nulls.no_nulls() {
                    for (i, &p) in block.iter().enumerate() {
                        xs_rows[i][j] = data[p] as f64;
                    }
                } else {
                    for (i, &p) in block.iter().enumerate() {
                        if nulls.get(p) {
                            x_missing[i] = true;
                        } else {
                            xs_rows[i][j] = data[p] as f64;
                        }
                    }
                }
            }
            None => {
                for (i, &p) in block.iter().enumerate() {
                    match grouped.value_f64(p, c) {
                        Some(v) => xs_rows[i][j] = v,
                        None => x_missing[i] = true,
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cape_data::ops::sort_perm;
    use cape_data::{Schema, Value, ValueType};

    /// Grouped data shaped like γ_{author, year, count(*)}: two authors
    /// with near-constant counts, one wildly varying author.
    fn grouped() -> Relation {
        let schema = Schema::new([
            ("author", ValueType::Str),
            ("year", ValueType::Int),
            ("cnt", ValueType::Int),
        ])
        .unwrap();
        let mut rows = Vec::new();
        for y in 0..6 {
            rows.push(vec![Value::str("stable1"), Value::Int(2000 + y), Value::Int(4)]);
            rows.push(vec![
                Value::str("stable2"),
                Value::Int(2000 + y),
                Value::Int(if y % 2 == 0 { 5 } else { 6 }),
            ]);
            rows.push(vec![
                Value::str("wild"),
                Value::Int(2000 + y),
                Value::Int(if y % 2 == 0 { 1 } else { 60 }),
            ]);
        }
        // A tiny fragment below δ.
        rows.push(vec![Value::str("tiny"), Value::Int(2000), Value::Int(3)]);
        Relation::from_rows(schema, rows).unwrap()
    }

    fn thresholds() -> Thresholds {
        Thresholds::new(0.5, 3, 0.5, 2)
    }

    /// Run `f` under a fresh recorder and return its result plus telemetry.
    fn recorded<T>(f: impl FnOnce() -> T) -> (T, cape_obs::TelemetrySnapshot) {
        let rec = cape_obs::Recorder::new();
        let guard = rec.install();
        let out = f();
        drop(guard);
        (out, rec.snapshot())
    }

    #[test]
    fn constant_pattern_holds_for_stable_authors() {
        let g = grouped();
        let perm = sort_perm(&g, &[0, 1]);
        let cands = [SplitCandidate {
            agg: AggFunc::Count,
            agg_attr: None,
            agg_col: 2,
            model: ModelType::Const,
        }];
        let (out, telemetry) = recorded(|| fit_split(&g, &perm, &[0], &[1], &cands, &thresholds()));
        let outcome = out[0].as_ref().expect("pattern should hold globally");
        // tiny is excluded (support 1 < δ); stable1+stable2 hold, wild does not.
        assert_eq!(outcome.num_supported, 3);
        assert_eq!(outcome.locals.len(), 2);
        assert!((outcome.confidence - 2.0 / 3.0).abs() < 1e-12);
        assert!(outcome.locals.contains_key(&[Value::str("stable1")][..]));
        assert!(outcome.locals.contains_key(&[Value::str("stable2")][..]));
        assert_eq!(telemetry.counter("mining.candidates_considered"), 1);
        assert_eq!(telemetry.counter("mining.fragments_fitted"), 3);
        assert_eq!(telemetry.counter("mining.patterns_found"), 1);
    }

    #[test]
    fn local_support_recorded() {
        let g = grouped();
        let perm = sort_perm(&g, &[0, 1]);
        let cands = [SplitCandidate {
            agg: AggFunc::Count,
            agg_attr: None,
            agg_col: 2,
            model: ModelType::Const,
        }];
        let out = fit_split(&g, &perm, &[0], &[1], &cands, &thresholds());
        let outcome = out[0].as_ref().unwrap();
        assert_eq!(outcome.locals[&[Value::str("stable1")][..]].support, 6);
        // Perfect constant fit: GoF 1, zero deviations.
        let local = &outcome.locals[&[Value::str("stable1")][..]];
        assert_eq!(local.fitted.gof, 1.0);
        assert_eq!(local.max_pos_dev, 0.0);
        assert_eq!(local.max_neg_dev, 0.0);
        // stable2 oscillates ±0.5 around 5.5.
        let local2 = &outcome.locals[&[Value::str("stable2")][..]];
        assert!((local2.max_pos_dev - 0.5).abs() < 1e-9);
        assert!((local2.max_neg_dev + 0.5).abs() < 1e-9);
    }

    #[test]
    fn strict_global_support_fails() {
        let g = grouped();
        let perm = sort_perm(&g, &[0, 1]);
        let cands = [SplitCandidate {
            agg: AggFunc::Count,
            agg_attr: None,
            agg_col: 2,
            model: ModelType::Const,
        }];
        let tight = Thresholds::new(0.5, 3, 0.5, 10); // Δ = 10 unreachable
        let out = fit_split(&g, &perm, &[0], &[1], &cands, &tight);
        assert!(out[0].is_none());
    }

    #[test]
    fn strict_confidence_fails() {
        let g = grouped();
        let perm = sort_perm(&g, &[0, 1]);
        let cands = [SplitCandidate {
            agg: AggFunc::Count,
            agg_attr: None,
            agg_col: 2,
            model: ModelType::Const,
        }];
        // 2/3 fragments hold; λ = 0.9 rejects.
        let tight = Thresholds::new(0.5, 3, 0.9, 2);
        let out = fit_split(&g, &perm, &[0], &[1], &cands, &tight);
        assert!(out[0].is_none());
    }

    #[test]
    fn multiple_candidates_one_scan() {
        let g = grouped();
        let perm = sort_perm(&g, &[0, 1]);
        let cands = [
            SplitCandidate {
                agg: AggFunc::Count,
                agg_attr: None,
                agg_col: 2,
                model: ModelType::Const,
            },
            SplitCandidate {
                agg: AggFunc::Count,
                agg_attr: None,
                agg_col: 2,
                model: ModelType::Lin,
            },
        ];
        let (out, telemetry) = recorded(|| fit_split(&g, &perm, &[0], &[1], &cands, &thresholds()));
        assert_eq!(out.len(), 2);
        assert!(out[0].is_some());
        // Linear fits constants perfectly too (slope ~0 is fine, R² = 1 for
        // stable1 which is exactly constant) — at least stable1 holds; the
        // pattern may or may not hold globally depending on stable2's R².
        assert_eq!(telemetry.counter("mining.candidates_considered"), 2);
    }

    /// A `sum(float)` fragment of three equal 0.1s, whose computed mean is
    /// not exactly 0.1, holds Lin with R² = 1, as a constant does.
    #[test]
    fn constant_float_fragment_holds_lin() {
        let schema =
            Schema::new([("k", ValueType::Str), ("x", ValueType::Int), ("s", ValueType::Float)])
                .unwrap();
        let rows = (2000..2003).map(|x| vec![Value::str("a"), Value::Int(x), Value::Float(0.1)]);
        let g = Relation::from_rows(schema, rows).unwrap();
        let cands = [SplitCandidate {
            agg: AggFunc::Sum,
            agg_attr: Some(2),
            agg_col: 2,
            model: ModelType::Lin,
        }];
        let th = Thresholds::new(0.5, 3, 0.5, 1);
        let mut held = Vec::new();
        FragmentFitter::new(&g, &[1], &cands, &th).fit(&[0, 1, 2], |ci, l| held.push((ci, l)));
        assert_eq!(held.len(), 1, "the fragment holds Lin");
        assert_eq!(held[0].1.fitted.gof, 1.0);
    }

    #[test]
    fn empty_relation_yields_none() {
        let empty = Relation::new(grouped().schema().clone());
        let perm: Vec<usize> = Vec::new();
        let cands = [SplitCandidate {
            agg: AggFunc::Count,
            agg_attr: None,
            agg_col: 2,
            model: ModelType::Const,
        }];
        let out = fit_split(&empty, &perm, &[0], &[1], &cands, &thresholds());
        assert!(out[0].is_none());
    }
}
