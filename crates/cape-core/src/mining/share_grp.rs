//! SHARE-GRP: one group-by query per `F ∪ V`, one sort per `(F, V)`.
//!
//! Implements the "one query per F ∪ V" optimization (§4.1): all pattern
//! candidates sharing a group-by set `G` reuse a single materialized
//! aggregation; each `(F, V)` split re-sorts that materialization and all
//! `(agg, A, M)` combinations are fitted in one scan.

use crate::config::MiningConfig;
use crate::error::Result;
use crate::group_data::GroupData;
use crate::mining::candidates::{group_sets, model_valid_for, splits_of, Split};
use crate::mining::fit::{fit_split, SplitCandidate};
use crate::mining::rank_sort::{rank_columns, rank_sort_perm, ColRanks};
use crate::mining::{make_instance, record_mining_run, validate_config, Miner, MiningOutput};
use crate::pattern::Arp;
use crate::store::PatternStore;
use cape_data::{AggFunc, AttrId, Relation};
use std::sync::Arc;

/// The SHARE-GRP miner.
#[derive(Debug, Clone, Copy, Default)]
pub struct ShareGrpMiner;

impl Miner for ShareGrpMiner {
    fn name(&self) -> &'static str {
        "SHARE-GRP"
    }

    fn mine(&self, rel: &Relation, cfg: &MiningConfig) -> Result<MiningOutput> {
        validate_config(cfg)?;
        record_mining_run(|| {
            let mut store = PatternStore::new();
            for g in group_sets(&cfg.candidate_attrs(rel), cfg.psi) {
                let aggs = cfg.resolve_aggs(rel, &g);
                if aggs.is_empty() {
                    continue;
                }
                let gd = Arc::new(GroupData::compute(rel, &g, &aggs)?);
                cape_obs::counter_add("mining.group_queries", 1);
                mine_group_set(rel, cfg, &gd, &aggs, &mut store);
            }
            Ok((store, cfg.initial_fds.clone()))
        })
    }
}

/// Mine every `(F, V)` split of one materialized group set, one sort per
/// split, each split's candidates fitted in one scan. Shared with the
/// CUBE miner.
///
/// Each sort is a permutation *view* over the shared [`GroupData`] — no
/// sorted relation copy is materialized — computed from the group-by
/// columns' ranks, which are taken once for the whole group set.
pub(crate) fn mine_group_set(
    rel: &Relation,
    cfg: &MiningConfig,
    gd: &Arc<GroupData>,
    aggs: &[(AggFunc, Option<AttrId>)],
    store: &mut PatternStore,
) {
    let ranks = rank_columns(&gd.relation, gd.group_attrs.len());
    for split in splits_of(&gd.group_attrs) {
        mine_split(rel, cfg, gd, &ranks, &split, aggs, store);
    }
}

/// Sort the group set for one `(F, V)` split (keys `F` then `V`) and fit
/// every `(agg, A, M)` candidate in one scan of the sorted order.
fn mine_split(
    rel: &Relation,
    cfg: &MiningConfig,
    gd: &Arc<GroupData>,
    ranks: &[ColRanks],
    split: &Split,
    aggs: &[(AggFunc, Option<AttrId>)],
    store: &mut PatternStore,
) {
    let candidates = build_candidates(rel, cfg, gd, split, aggs);
    if candidates.is_empty() {
        return;
    }
    let f_cols = gd.cols_of_attrs(&split.f).expect("F within G");
    let v_cols = gd.cols_of_attrs(&split.v).expect("V within G");
    cape_obs::counter_add("mining.sort_queries", 1);
    let sort_keys: Vec<usize> = f_cols.iter().chain(&v_cols).copied().collect();
    let perm = rank_sort_perm(ranks, &sort_keys);
    let outcomes = fit_split(&gd.relation, &perm, &f_cols, &v_cols, &candidates, &cfg.thresholds);
    for (cand, outcome) in candidates.iter().zip(outcomes) {
        if let Some(outcome) = outcome {
            let arp = Arp::new(
                split.f.iter().copied(),
                split.v.iter().copied(),
                cand.agg,
                cand.agg_attr,
                cand.model,
            );
            store.push(make_instance(arp, Arc::clone(gd), cand.agg_col, outcome));
        }
    }
}

/// Expand `(agg, A)` pairs × model types into [`SplitCandidate`]s, dropping
/// model types invalid for the split's predictor attributes.
pub(crate) fn build_candidates(
    rel: &Relation,
    cfg: &MiningConfig,
    gd: &GroupData,
    split: &Split,
    aggs: &[(AggFunc, Option<AttrId>)],
) -> Vec<SplitCandidate> {
    let mut out = Vec::new();
    for &(agg, agg_attr) in aggs {
        // The aggregated attribute must lie outside F ∪ V (Definition 2);
        // resolve_aggs guarantees A ∉ G for generated lists, but explicit
        // lists are filtered per G, so double-check here for CUBE reuse.
        if let Some(a) = agg_attr {
            if split.f.contains(&a) || split.v.contains(&a) {
                continue;
            }
        }
        let Some(agg_col) = gd.agg_col(agg, agg_attr) else { continue };
        for &model in &cfg.models {
            if model_valid_for(rel, model, &split.v) {
                out.push(SplitCandidate { agg, agg_attr, agg_col, model });
            }
        }
    }
    out
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::config::Thresholds;
    use cape_data::{Schema, Value, ValueType};

    /// A publications-like relation where "authors" publish a constant
    /// number of papers per year.
    pub(crate) fn pubs(n_authors: usize, n_years: usize, per_year: usize) -> Relation {
        let schema = Schema::new([
            ("author", ValueType::Str),
            ("year", ValueType::Int),
            ("venue", ValueType::Str),
        ])
        .unwrap();
        let mut rel = Relation::new(schema);
        for a in 0..n_authors {
            for y in 0..n_years {
                for p in 0..per_year {
                    rel.push_row(vec![
                        Value::str(format!("a{a}")),
                        Value::Int(2000 + y as i64),
                        Value::str(if p % 2 == 0 { "KDD" } else { "ICDE" }),
                    ])
                    .unwrap();
                }
            }
        }
        rel
    }

    fn cfg() -> MiningConfig {
        MiningConfig {
            thresholds: Thresholds::new(0.3, 3, 0.5, 2),
            psi: 2,
            ..MiningConfig::default()
        }
    }

    #[test]
    fn finds_constant_author_year_pattern() {
        let rel = pubs(4, 6, 3);
        let out = ShareGrpMiner.mine(&rel, &cfg()).unwrap();
        // [author]: year ~Const~> count(*) must be among the found patterns.
        let found = out.store.iter().any(|(_, p)| {
            p.arp.f() == [0] && p.arp.v() == [1] && p.arp.model == cape_regress::ModelType::Const
        });
        assert!(
            found,
            "expected [author]: year pattern, got:\n{}",
            out.store.describe(rel.schema())
        );
        assert!(out.stats.group_queries >= 1);
        assert!(out.stats.sort_queries >= 2);
        assert!(out.stats.total_time >= out.stats.query_time);
    }

    #[test]
    fn psi_bounds_pattern_size() {
        let rel = pubs(4, 6, 3);
        let mut c = cfg();
        c.psi = 3;
        let out = ShareGrpMiner.mine(&rel, &c).unwrap();
        assert!(out.store.iter().all(|(_, p)| p.arp.size() <= 3));
        // Larger ψ explores at least as many candidates.
        let out2 = ShareGrpMiner.mine(&rel, &cfg()).unwrap();
        assert!(out.stats.candidates_considered >= out2.stats.candidates_considered);
    }

    #[test]
    fn local_models_predict_constant() {
        let rel = pubs(3, 6, 4);
        let out = ShareGrpMiner.mine(&rel, &cfg()).unwrap();
        let (_, p) = out
            .store
            .iter()
            .find(|(_, p)| {
                p.arp.f() == [0]
                    && p.arp.v() == [1]
                    && p.arp.model == cape_regress::ModelType::Const
            })
            .unwrap();
        let local = p.local(&[Value::str("a0")]).expect("a0 holds locally");
        // 4 papers per year.
        assert!((local.fitted.model.predict(&[2003.0]) - 4.0).abs() < 1e-9);
        assert_eq!(local.support, 6);
    }

    #[test]
    fn excluded_attrs_never_appear() {
        let rel = pubs(3, 6, 3);
        let mut c = cfg();
        c.exclude = vec![2];
        let out = ShareGrpMiner.mine(&rel, &c).unwrap();
        assert!(out.store.iter().all(|(_, p)| !p.arp.g_attrs().contains(&2)));
    }
}
