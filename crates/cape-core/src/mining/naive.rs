//! NAIVE pattern discovery (Algorithms 3 and 4): one retrieval query per
//! fragment per pattern candidate. Kept as the faithful baseline for the
//! mining benchmarks — it is deliberately slow.

use crate::config::MiningConfig;
use crate::error::Result;
use crate::group_data::GroupData;
use crate::mining::candidates::{group_sets, model_valid_for, splits_of};
use crate::mining::fit::{settle_in_band, FitOutcome};
use crate::mining::{make_instance, record_mining_run, validate_config, Miner, MiningOutput};
use crate::pattern::Arp;
use crate::store::{FragKey, LocalPattern, Locals, PatternStore};
use cape_data::ops::{aggregate_with_row_count, distinct_project, select};
use cape_data::{AggSpec, AttrId, Predicate, Relation, Value};
use cape_regress::fit;
use std::collections::{HashMap, HashSet};
use std::sync::Arc;

/// The brute-force miner.
#[derive(Debug, Clone, Copy, Default)]
pub struct NaiveMiner;

impl Miner for NaiveMiner {
    fn name(&self) -> &'static str {
        "NAIVE"
    }

    fn mine(&self, rel: &Relation, cfg: &MiningConfig) -> Result<MiningOutput> {
        validate_config(cfg)?;
        record_mining_run(|| {
            let mut store = PatternStore::new();
            let attrs = cfg.candidate_attrs(rel);
            // Shared aggregations are only computed for patterns that hold, to
            // attach the `data` needed by explanation generation; the mining
            // work itself is per-fragment as in Algorithm 4.
            let mut data_cache: HashMap<Vec<AttrId>, Arc<GroupData>> = HashMap::new();

            for g in group_sets(&attrs, cfg.psi) {
                let aggs = cfg.resolve_aggs(rel, &g);
                for split in splits_of(&g) {
                    // The split's fragment keys, one per fragment, shared by
                    // every candidate holding there.
                    let mut keys: HashSet<FragKey> = HashSet::new();
                    for &(agg, agg_attr) in &aggs {
                        if let Some(a) = agg_attr {
                            if g.contains(&a) {
                                continue;
                            }
                        }
                        for &model in &cfg.models {
                            if !model_valid_for(rel, model, &split.v) {
                                continue;
                            }
                            cape_obs::counter_add("mining.candidates_considered", 1);
                            let outcome = naive_pattern_holds(
                                rel, &split.f, &split.v, agg, agg_attr, model, cfg, &mut keys,
                            )?;
                            if let Some(outcome) = outcome {
                                cape_obs::counter_add("mining.patterns_found", 1);
                                let gd = match data_cache.get(&g) {
                                    Some(gd) => Arc::clone(gd),
                                    None => {
                                        let gd = Arc::new(GroupData::compute(rel, &g, &aggs)?);
                                        cape_obs::counter_add("mining.group_queries", 1);
                                        data_cache.insert(g.clone(), Arc::clone(&gd));
                                        gd
                                    }
                                };
                                let agg_col =
                                    gd.agg_col(agg, agg_attr).expect("agg in shared data");
                                let arp = Arp::new(
                                    split.f.iter().copied(),
                                    split.v.iter().copied(),
                                    agg,
                                    agg_attr,
                                    model,
                                );
                                store.push(make_instance(arp, gd, agg_col, outcome));
                            }
                        }
                    }
                }
            }

            Ok((store, cfg.initial_fds.clone()))
        })
    }
}

/// NaivePatternHolds (Algorithm 4): enumerate fragments via `π_F(R)`, run
/// one retrieval query `γ_{V, agg}(σ_{F=f}(R))` per fragment, fit, and
/// apply the global thresholds. A holding fragment's key is taken from
/// (or added to) `keys`, the split's keys.
#[allow(clippy::too_many_arguments)]
fn naive_pattern_holds(
    rel: &Relation,
    f: &[AttrId],
    v: &[AttrId],
    agg: cape_data::AggFunc,
    agg_attr: Option<AttrId>,
    model: cape_regress::ModelType,
    cfg: &MiningConfig,
    keys: &mut HashSet<FragKey>,
) -> Result<Option<FitOutcome>> {
    let th = &cfg.thresholds;
    let frags = distinct_project(rel, f)?;
    cape_obs::counter_add("mining.group_queries", 1);

    let mut locals = Locals::new();
    let mut num_supported = 0usize;

    for fi in 0..frags.num_rows() {
        let f_key: Vec<Value> = frags.row(fi);

        // Retrieval query Q_{P,f}.
        let selected = select(rel, &Predicate::key_match(f, &f_key));
        let spec = AggSpec { func: agg, attr: agg_attr };
        let grouped = aggregate_with_row_count(&selected, v, &[spec])?.relation;
        cape_obs::counter_add("mining.group_queries", 1);

        let support = grouped.num_rows();
        if support < th.delta {
            continue;
        }
        num_supported += 1;

        // Build the training set h_{P,f} : V → agg(A).
        let agg_col = v.len();
        let lin = model.requires_numeric_predictors();
        let mut xs: Vec<Vec<f64>> = Vec::with_capacity(support);
        let mut ys: Vec<f64> = Vec::with_capacity(support);
        'row: for i in 0..grouped.num_rows() {
            let Some(y) = grouped.value(i, agg_col).as_f64() else { continue };
            let mut x = Vec::with_capacity(v.len());
            for c in 0..v.len() {
                match grouped.value(i, c).as_f64() {
                    Some(xv) => x.push(xv),
                    None if !lin => x.push(0.0),
                    None => continue 'row,
                }
            }
            xs.push(x);
            ys.push(y);
        }
        if ys.len() < th.delta {
            continue;
        }

        cape_obs::counter_add("mining.fragments_fitted", 1);
        // The batch miners settle a knife-edge GoF the same way, so the
        // hold decision does not depend on the order of this query's rows.
        let fitted =
            fit(model, &xs, &ys).and_then(|f| settle_in_band(model, &xs, &ys, f, th.theta));
        let Ok(fitted) = fitted else { continue };
        if fitted.gof < th.theta {
            continue;
        }
        let mut max_pos = 0.0f64;
        let mut max_neg = 0.0f64;
        for (x, y) in xs.iter().zip(&ys) {
            let dev = y - fitted.model.predict(x);
            max_pos = max_pos.max(dev);
            max_neg = max_neg.min(dev);
        }
        let key = match keys.get(f_key.as_slice()) {
            Some(key) => Arc::clone(key),
            None => {
                let key: FragKey = f_key.into();
                keys.insert(Arc::clone(&key));
                key
            }
        };
        locals.insert(
            key,
            Arc::new(LocalPattern { fitted, support, max_pos_dev: max_pos, max_neg_dev: max_neg }),
        );
    }

    if num_supported == 0 {
        return Ok(None);
    }
    let good = locals.len();
    let confidence = good as f64 / num_supported as f64;
    if good >= th.global_support && confidence >= th.lambda {
        Ok(Some(FitOutcome { locals, confidence, num_supported }))
    } else {
        Ok(None)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Thresholds;
    use crate::mining::share_grp::ShareGrpMiner;

    fn cfg() -> MiningConfig {
        MiningConfig {
            thresholds: Thresholds::new(0.3, 3, 0.5, 2),
            psi: 2,
            ..MiningConfig::default()
        }
    }

    #[test]
    fn naive_agrees_with_share_grp() {
        let rel = crate::mining::share_grp::tests::pubs(3, 6, 3);
        let a = NaiveMiner.mine(&rel, &cfg()).unwrap();
        let b = ShareGrpMiner.mine(&rel, &cfg()).unwrap();
        let set_a: std::collections::HashSet<_> =
            a.store.iter().map(|(_, p)| p.arp.clone()).collect();
        let set_b: std::collections::HashSet<_> =
            b.store.iter().map(|(_, p)| p.arp.clone()).collect();
        assert_eq!(set_a, set_b);
        // Same local fragments for the author/year pattern.
        let find = |out: &crate::mining::MiningOutput| {
            out.store
                .iter()
                .find(|(_, p)| {
                    p.arp.f() == [0]
                        && p.arp.v() == [1]
                        && p.arp.model == cape_regress::ModelType::Const
                })
                .map(|(_, p)| p.locals.len())
        };
        assert_eq!(find(&a), find(&b));
    }

    #[test]
    fn naive_runs_many_more_queries() {
        let rel = crate::mining::share_grp::tests::pubs(3, 6, 3);
        let a = NaiveMiner.mine(&rel, &cfg()).unwrap();
        let b = ShareGrpMiner.mine(&rel, &cfg()).unwrap();
        assert!(
            a.stats.group_queries > 5 * b.stats.group_queries,
            "naive {} vs share-grp {}",
            a.stats.group_queries,
            b.stats.group_queries
        );
    }
}
