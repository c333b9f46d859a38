//! EXPL-GEN-OPT (§3.5): explanation generation with upper-score-bound
//! pruning of refinement pairs.
//!
//! For every `(P, P')` pair we bound the achievable score by combining the
//! refinement's precomputed deviation extremes (`dev_↑`), a lower bound on
//! the distance from the schema difference (`d_↓`), and `P`'s NORM. Pairs
//! whose bound cannot beat the current k-th best score are skipped without
//! enumerating any tuple.
//!
//! Ordering note: the paper's text says to iterate patterns "in decreasing
//! order of NORM"; since the score is *inversely* proportional to NORM,
//! processing small-NORM patterns first fills the heap with high-scoring
//! explanations sooner and prunes more, so we iterate in **increasing**
//! NORM order and flag the deviation here.
//!
//! [`expl_gen_opt`] is the loop itself, shared by every answering path:
//! [`OptimizedExplainer`] runs it with a direct scan as the drill-down
//! step, and `cape-serve` runs it with its drill-down cache and the
//! request's deadline.

use crate::explain::drill::{offer_candidates, raw_candidates, DrillResult};
use crate::explain::score::{relevant_fragment, score_upper_bound, QuestionNorms};
use crate::explain::topk::TopK;
use crate::explain::{ExplainConfig, ExplainStats, Explanation, TopKExplainer};
use crate::question::{Direction, UserQuestion};
use crate::store::{PatternInstance, PatternStore};
use cape_data::{AttrId, Value};
use std::borrow::Borrow;
use std::time::Instant;

/// The pruning explanation generator.
#[derive(Debug, Clone, Copy, Default)]
pub struct OptimizedExplainer;

/// The direction-appropriate deviation magnitude bound `dev_↑(φ, P')`.
fn dev_bound(p2: &PatternInstance, dir: Direction) -> f64 {
    match dir {
        Direction::Low => p2.max_pos_dev,
        Direction::High => -p2.max_neg_dev,
    }
}

/// EXPL-GEN-OPT over `store`: the one loop every answering path runs.
///
/// `drill(F, t[F], p2_idx, P')` performs the question-independent half
/// of a drill-down ([`raw_candidates`]) and returns it together with the
/// number of rows it actually scanned — zero when it reused an earlier
/// result — which is what `tuples_checked` counts. The `deadline` is
/// checked before each `(P, P')` pair; once it passes, the top-k found so
/// far is returned with `partial = true`.
///
/// Returns `(top-k, stats, partial)` and publishes the stats.
pub fn expl_gen_opt<R: Borrow<DrillResult>>(
    store: &PatternStore,
    uq: &UserQuestion,
    cfg: &ExplainConfig,
    deadline: Option<Instant>,
    mut drill: impl FnMut(&[AttrId], &[Value], usize, &PatternInstance) -> (R, usize),
) -> (Vec<Explanation>, ExplainStats, bool) {
    let t0 = Instant::now();
    let mut stats = ExplainStats::default();
    let mut topk = TopK::new(cfg.k);
    let mut partial = false;

    // Collect relevant patterns with their fragments and NORM factors.
    let mut norms = QuestionNorms::new(uq);
    let mut relevant: Vec<(usize, Vec<Value>, f64)> = store
        .iter()
        .filter_map(|(idx, p)| relevant_fragment(p, uq).map(|f| (idx, f, norms.norm(p))))
        .collect();
    stats.patterns_relevant = relevant.len();
    // Small NORM ⇒ large potential scores ⇒ process first.
    relevant.sort_by(|a, b| a.2.total_cmp(&b.2));

    'patterns: for (p_idx, f_vals, norm) in relevant {
        let p = store.get(p_idx).expect("relevant index");
        for &p2_idx in store.refinements_of(p_idx) {
            if deadline.is_some_and(|d| Instant::now() >= d) {
                partial = true;
                break 'patterns;
            }
            stats.refinements_considered += 1;
            let p2 = store.get(p2_idx).expect("refinement index");

            // Upper bound for any explanation from this (P, P') pair.
            let dev_up = dev_bound(p2, uq.dir);
            if dev_up <= 0.0 {
                // No tuple of P' deviates in the counterbalancing
                // direction at all.
                stats.refinements_pruned += 1;
                continue;
            }
            if let Some(threshold) = topk.threshold() {
                let mut t_attrs: Vec<AttrId> = p2.arp.f().to_vec();
                t_attrs.extend_from_slice(p2.arp.v());
                let d_low = cfg.distance.lower_bound(&uq.group_attrs, &t_attrs);
                let bound = score_upper_bound(dev_up, d_low, norm);
                // Strictly below the k-th best only: a candidate whose
                // score *equals* the threshold can still enter via the
                // deterministic tie-break, and skipping it here would
                // make the result depend on pattern iteration order.
                if bound < threshold {
                    stats.refinements_pruned += 1;
                    continue;
                }
            }
            let (raw, scanned) = drill(p.arp.f(), &f_vals, p2_idx, p2);
            stats.tuples_checked += scanned;
            offer_candidates(raw.borrow(), p_idx, p2_idx, p2, norm, uq, cfg, &mut topk, &mut stats);
        }
    }

    stats.time = t0.elapsed();
    stats.publish();
    (topk.into_sorted_vec(), stats, partial)
}

impl TopKExplainer for OptimizedExplainer {
    fn name(&self) -> &'static str {
        "EXPL-GEN-OPT"
    }

    fn explain(
        &self,
        store: &PatternStore,
        uq: &UserQuestion,
        cfg: &ExplainConfig,
    ) -> (Vec<Explanation>, ExplainStats) {
        let _span = cape_obs::span("explain.run");
        let (expls, stats, _) = expl_gen_opt(store, uq, cfg, None, |f, f_vals, _, p2| {
            let result = raw_candidates(f, f_vals, p2);
            let scanned = result.rows_scanned;
            (result, scanned)
        });
        (expls, stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::explain::naive::tests::{mine, planted, question};
    use crate::explain::NaiveExplainer;

    #[test]
    fn optimized_matches_naive_results() {
        let rel = planted();
        let store = mine(&rel);
        let cfg = ExplainConfig::default_for(&rel, 10);
        let uq = question();
        let (naive, _) = NaiveExplainer.explain(&store, &uq, &cfg);
        let (opt, _) = OptimizedExplainer.explain(&store, &uq, &cfg);
        assert_eq!(naive.len(), opt.len());
        for (a, b) in naive.iter().zip(&opt) {
            assert_eq!(a.key(), b.key(), "top-k sets diverge");
            assert!((a.score - b.score).abs() < 1e-9);
        }
    }

    #[test]
    fn optimized_checks_no_more_tuples() {
        let rel = planted();
        let store = mine(&rel);
        // Small k makes the threshold bite early.
        let cfg = ExplainConfig::default_for(&rel, 2);
        let uq = question();
        let (_, s_naive) = NaiveExplainer.explain(&store, &uq, &cfg);
        let (_, s_opt) = OptimizedExplainer.explain(&store, &uq, &cfg);
        assert!(
            s_opt.tuples_checked <= s_naive.tuples_checked,
            "opt {} vs naive {}",
            s_opt.tuples_checked,
            s_naive.tuples_checked
        );
    }

    #[test]
    fn dev_bound_follows_direction() {
        let rel = planted();
        let store = mine(&rel);
        let (_, p) = store.iter().next().unwrap();
        assert_eq!(dev_bound(p, Direction::Low), p.max_pos_dev);
        assert_eq!(dev_bound(p, Direction::High), -p.max_neg_dev);
    }

    #[test]
    fn stats_report_pruning_with_tiny_k() {
        let rel = planted();
        let store = mine(&rel);
        let cfg = ExplainConfig::default_for(&rel, 1);
        let (expls, stats) = OptimizedExplainer.explain(&store, &question(), &cfg);
        assert_eq!(expls.len(), 1);
        assert!(stats.refinements_considered > 0);
    }
}
