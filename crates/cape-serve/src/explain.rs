//! Cache-backed, deadline-aware explanation generation.
//!
//! [`explain_cached`] runs `cape_core`'s EXPL-GEN-OPT loop
//! ([`expl_gen_opt`]) with the request's deadline and with a drill-down
//! step that looks the question-independent half of each drill-down up in
//! a shared [`DrillCache`] keyed by `(F, t[F], P')`, so concurrent and
//! repeated questions reuse scans.
//!
//! Without a deadline the result is **identical** to the sequential
//! explainers: caching only changes *who computes* a drill-down, never
//! its value, and the deterministic top-k tie-break makes the surviving
//! set independent of candidate arrival order.

use crate::cache::LruCache;
use crate::shared::PatternStoreHandle;
use cape_core::explain::{expl_gen_opt, raw_candidates, DrillResult, ExplainConfig};
use cape_core::explain::{ExplainStats, Explanation};
use cape_core::question::UserQuestion;
use cape_data::{AttrId, Value};
use std::sync::Arc;
use std::time::Instant;

/// Cache key for one question-independent drill-down: the relevant
/// pattern's partition attributes `F`, the fragment value `t[F]`, and the
/// refinement index. Questions sharing a fragment (same author, same
/// shop, …) map to the same keys regardless of direction, k, or the rest
/// of the question tuple.
pub type DrillKey = (Vec<AttrId>, Vec<Value>, usize);

/// Shared LRU of drill-down scans.
pub type DrillCache = LruCache<DrillKey, Arc<DrillResult>>;

/// Answer `uq` against the shared store, reusing cached drill-downs and
/// respecting `deadline`. Returns `(explanations, stats, partial)`;
/// `partial` is true when the deadline expired mid-search.
pub fn explain_cached(
    handle: &PatternStoreHandle,
    cache: &DrillCache,
    uq: &UserQuestion,
    cfg: &ExplainConfig,
    deadline: Option<Instant>,
) -> (Vec<Explanation>, ExplainStats, bool) {
    let _span = cape_obs::span("serve.explain");
    expl_gen_opt(handle.store(), uq, cfg, deadline, |f, f_vals, p2_idx, p2| {
        let key: DrillKey = (f.to_vec(), f_vals.to_vec(), p2_idx);
        if let Some(hit) = cache.get(&key) {
            cape_obs::counter_add("serve.cache.hits", 1);
            return (hit, 0);
        }
        cape_obs::counter_add("serve.cache.misses", 1);
        let computed = Arc::new(raw_candidates(f, f_vals, p2));
        cache.insert(key, Arc::clone(&computed));
        let scanned = computed.rows_scanned;
        (computed, scanned)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use cape_core::config::{MiningConfig, Thresholds};
    use cape_core::mining::{Miner, ShareGrpMiner};
    use cape_core::prelude::{NaiveExplainer, OptimizedExplainer, TopKExplainer};
    use cape_core::question::Direction;
    use cape_data::{AggFunc, Relation, Schema, ValueType};

    /// A DBLP-like relation with a planted counterbalance (a0 publishes a
    /// dip in KDD-2003 and a spike in ICDE-2003).
    fn planted() -> Relation {
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

    fn handle() -> PatternStoreHandle {
        let rel = planted();
        let cfg = MiningConfig {
            thresholds: Thresholds::new(0.1, 3, 0.5, 2),
            psi: 3,
            ..MiningConfig::default()
        };
        let store = ShareGrpMiner.mine(&rel, &cfg).unwrap().store;
        PatternStoreHandle::new(rel, store)
    }

    fn question() -> UserQuestion {
        UserQuestion::new(
            vec![0, 1, 2],
            AggFunc::Count,
            None,
            vec![Value::str("a0"), Value::Int(2003), Value::str("KDD")],
            1.0,
            Direction::Low,
        )
    }

    fn assert_same(a: &[Explanation], b: &[Explanation]) {
        assert_eq!(a.len(), b.len(), "lengths differ");
        for (x, y) in a.iter().zip(b) {
            assert_eq!(x.key(), y.key());
            assert!((x.score - y.score).abs() < 1e-9);
        }
    }

    #[test]
    fn matches_sequential_explainers() {
        let handle = handle();
        let cfg = ExplainConfig::default_for(handle.relation(), 10);
        let uq = question();
        let cache = DrillCache::new(64);
        let (served, _, partial) = explain_cached(&handle, &cache, &uq, &cfg, None);
        assert!(!partial);
        let (naive, _) = NaiveExplainer.explain(handle.store(), &uq, &cfg);
        let (opt, _) = OptimizedExplainer.explain(handle.store(), &uq, &cfg);
        assert_same(&served, &naive);
        assert_same(&served, &opt);
        assert!(!served.is_empty());
    }

    #[test]
    fn warm_cache_gives_identical_answers_with_fewer_scans() {
        let handle = handle();
        let cfg = ExplainConfig::default_for(handle.relation(), 10);
        let uq = question();
        let cache = DrillCache::new(64);
        let (cold, cold_stats, _) = explain_cached(&handle, &cache, &uq, &cfg, None);
        assert!(cache.misses() > 0);
        let (warm, warm_stats, _) = explain_cached(&handle, &cache, &uq, &cfg, None);
        assert_same(&cold, &warm);
        assert!(cache.hits() > 0, "second run should hit the cache");
        assert!(
            warm_stats.tuples_checked < cold_stats.tuples_checked,
            "warm run should scan fewer rows ({} vs {})",
            warm_stats.tuples_checked,
            cold_stats.tuples_checked
        );
    }

    #[test]
    fn zero_deadline_degrades_to_empty_partial() {
        let handle = handle();
        let cfg = ExplainConfig::default_for(handle.relation(), 10);
        let cache = DrillCache::new(64);
        let past = Instant::now();
        let (expls, _, partial) = explain_cached(&handle, &cache, &question(), &cfg, Some(past));
        assert!(partial, "expired deadline must mark the answer partial");
        assert!(expls.is_empty());
    }

    #[test]
    fn zero_capacity_cache_still_correct() {
        let handle = handle();
        let cfg = ExplainConfig::default_for(handle.relation(), 10);
        let uq = question();
        let cache = DrillCache::new(0);
        let (served, _, _) = explain_cached(&handle, &cache, &uq, &cfg, None);
        let (naive, _) = NaiveExplainer.explain(handle.store(), &uq, &cfg);
        assert_same(&served, &naive);
        assert_eq!(cache.hits(), 0);
    }
}
