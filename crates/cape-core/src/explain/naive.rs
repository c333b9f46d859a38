//! EXPL-GEN-NAIVE (Algorithm 1): exhaustively check every tuple of every
//! refinement of every relevant pattern.

use crate::explain::drill::drill_down;
use crate::explain::score::{norm_factor, relevant_fragment};
use crate::explain::topk::TopK;
use crate::explain::{ExplainConfig, ExplainStats, Explanation, TopKExplainer};
use crate::question::UserQuestion;
use crate::store::PatternStore;
use std::time::Instant;

/// The brute-force explanation generator.
#[derive(Debug, Clone, Copy, Default)]
pub struct NaiveExplainer;

impl TopKExplainer for NaiveExplainer {
    fn name(&self) -> &'static str {
        "EXPL-GEN-NAIVE"
    }

    fn explain(
        &self,
        store: &PatternStore,
        uq: &UserQuestion,
        cfg: &ExplainConfig,
    ) -> (Vec<Explanation>, ExplainStats) {
        let t0 = Instant::now();
        let span = cape_obs::span("explain.run");
        let mut stats = ExplainStats::default();
        let mut topk = TopK::new(cfg.k);

        for (p_idx, p) in store.iter() {
            let Some(f_vals) = relevant_fragment(p, uq) else {
                continue;
            };
            stats.patterns_relevant += 1;
            let norm = norm_factor(p, uq);
            for &p2_idx in store.refinements_of(p_idx) {
                stats.refinements_considered += 1;
                let p2 = store.get(p2_idx).expect("index from store");
                drill_down(p_idx, p, &f_vals, norm, p2_idx, p2, uq, cfg, &mut topk, &mut stats);
            }
        }

        drop(span);
        stats.time = t0.elapsed();
        stats.publish();
        (topk.into_sorted_vec(), stats)
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::config::{MiningConfig, Thresholds};
    use crate::mining::{Miner, ShareGrpMiner};
    use crate::question::Direction;
    use cape_data::{AggFunc, Relation, Schema, Value, ValueType};

    /// A DBLP-like relation with a planted counterbalance: author a0
    /// usually publishes 2 papers per venue per year (venues KDD, ICDE),
    /// but in 2003 published 0 in KDD and 4 in ICDE.
    pub(crate) fn planted() -> Relation {
        let schema = Schema::new([
            ("author", ValueType::Str),
            ("year", ValueType::Int),
            ("venue", ValueType::Str),
        ])
        .unwrap();
        let mut rel = Relation::new(schema);
        for a in 0..4 {
            let name = format!("a{a}");
            for y in 2000..2008 {
                for venue in ["KDD", "ICDE"] {
                    let mut n = 2;
                    if a == 0 && y == 2003 {
                        n = if venue == "KDD" { 1 } else { 4 };
                    }
                    for _ in 0..n {
                        rel.push_row(vec![Value::str(&name), Value::Int(y), Value::str(venue)])
                            .unwrap();
                    }
                }
            }
        }
        rel
    }

    pub(crate) fn mine(rel: &Relation) -> crate::store::PatternStore {
        let cfg = MiningConfig {
            thresholds: Thresholds::new(0.1, 3, 0.5, 2),
            psi: 3,
            ..MiningConfig::default()
        };
        ShareGrpMiner.mine(rel, &cfg).unwrap().store
    }

    pub(crate) fn question() -> UserQuestion {
        UserQuestion::new(
            vec![0, 1, 2],
            AggFunc::Count,
            None,
            vec![Value::str("a0"), Value::Int(2003), Value::str("KDD")],
            1.0,
            Direction::Low,
        )
    }

    #[test]
    fn finds_the_planted_counterbalance() {
        let rel = planted();
        let store = mine(&rel);
        assert!(!store.is_empty(), "mining found nothing");
        let cfg = ExplainConfig::default_for(&rel, 10);
        let (expls, stats) = NaiveExplainer.explain(&store, &question(), &cfg);
        assert!(!expls.is_empty(), "no explanations generated");
        assert!(stats.patterns_relevant > 0);
        assert!(stats.candidates_generated > 0);
        // The ICDE-2003 spike must appear among the top explanations.
        let found = expls
            .iter()
            .any(|e| e.tuple.contains(&Value::str("ICDE")) && e.tuple.contains(&Value::Int(2003)));
        assert!(
            found,
            "expected (a0, ICDE, 2003) counterbalance, got:\n{}",
            crate::explain::render_table(&expls, rel.schema())
        );
    }

    #[test]
    fn top_explanation_is_the_same_year_spike() {
        let rel = planted();
        let store = mine(&rel);
        let cfg = ExplainConfig::default_for(&rel, 5);
        let (expls, _) = NaiveExplainer.explain(&store, &question(), &cfg);
        let top = &expls[0];
        // Highest score: the deviating ICDE count in the *same* year.
        assert!(top.tuple.contains(&Value::Int(2003)), "top = {top:?}");
        assert!(top.deviation > 0.0);
        assert!(top.score > 0.0);
    }

    #[test]
    fn scores_are_sorted_descending() {
        let rel = planted();
        let store = mine(&rel);
        let cfg = ExplainConfig::default_for(&rel, 10);
        let (expls, _) = NaiveExplainer.explain(&store, &question(), &cfg);
        for w in expls.windows(2) {
            assert!(w[0].score >= w[1].score);
        }
    }

    #[test]
    fn high_question_finds_negative_deviations() {
        let rel = planted();
        let store = mine(&rel);
        let cfg = ExplainConfig::default_for(&rel, 10);
        let uq = UserQuestion::new(
            vec![0, 1, 2],
            AggFunc::Count,
            None,
            vec![Value::str("a0"), Value::Int(2003), Value::str("ICDE")],
            4.0,
            Direction::High,
        );
        let (expls, _) = NaiveExplainer.explain(&store, &uq, &cfg);
        assert!(!expls.is_empty());
        for e in &expls {
            assert!(e.deviation < 0.0, "high question needs negative deviations: {e:?}");
            assert!(e.score > 0.0);
        }
        // The KDD 2003 dip should be among them.
        assert!(expls
            .iter()
            .any(|e| e.tuple.contains(&Value::str("KDD")) && e.tuple.contains(&Value::Int(2003))));
    }

    #[test]
    fn question_tuple_itself_is_never_an_explanation() {
        let rel = planted();
        let store = mine(&rel);
        let cfg = ExplainConfig::default_for(&rel, 50);
        let uq = question();
        let (expls, _) = NaiveExplainer.explain(&store, &uq, &cfg);
        for e in &expls {
            if e.attrs.len() == 3 {
                // Same schema as the question: must differ somewhere.
                let same = e.attrs.iter().zip(&e.tuple).all(|(&a, v)| uq.value_of(a) == Some(v));
                assert!(!same, "question tuple leaked into explanations");
            }
        }
    }

    #[test]
    fn no_patterns_no_explanations() {
        let rel = planted();
        let cfg = ExplainConfig::default_for(&rel, 10);
        let (expls, stats) = NaiveExplainer.explain(&PatternStore::new(), &question(), &cfg);
        assert!(expls.is_empty());
        assert_eq!(stats.patterns_relevant, 0);
    }
}
