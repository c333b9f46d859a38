//! CUBE mining: a single cube query materializes the data for every
//! pattern candidate (paper §4.1, "Using the CUBE BY operator").
//!
//! Fidelity note: the paper's SQL CUBE computes *all* groupings and
//! filters with `GROUPING()`. Our cube scan builds only the maximal
//! groupings — every attribute subset of size `min(ψ, |attrs|)` — and
//! derives each smaller grouping from them by lattice roll-up (falling
//! back to a base scan when no cached parent is cheap enough). The
//! characteristic CUBE cost — one scan maintaining every maximal
//! grouping's hash table simultaneously, including the aggregates that
//! are invalid for a particular grouping — is preserved, and the
//! benchmark still shows CUBE's growing overhead with the attribute
//! count.

use crate::config::{AggSelection, MiningConfig};
use crate::error::Result;
use crate::group_data::GroupData;
use crate::mining::candidates::{group_sets, splits_of};
use crate::mining::rollup::{materialize_group, plan_order, LatticeRollup};
use crate::mining::share_grp::mine_split;
use crate::mining::{record_mining_run, validate_config, Miner, MiningOutput};
use crate::store::PatternStore;
use cape_data::ops::cube;
use cape_data::{AggFunc, AggSpec, AttrId, Relation};
use std::sync::{Arc, Mutex};

/// The CUBE miner.
#[derive(Debug, Clone, Copy, Default)]
pub struct CubeMiner;

impl Miner for CubeMiner {
    fn name(&self) -> &'static str {
        "CUBE"
    }

    fn mine(&self, rel: &Relation, cfg: &MiningConfig) -> Result<MiningOutput> {
        validate_config(cfg)?;
        record_mining_run(|| {
            let attrs = cfg.candidate_attrs(rel);

            // The single cube query must evaluate the union of all aggregate
            // calls any grouping needs (invalid combinations — A inside the
            // grouping — are computed and discarded, as in SQL).
            let union_aggs = union_agg_list(rel, cfg);
            let specs: Vec<AggSpec> =
                union_aggs.iter().map(|&(func, attr)| AggSpec { func, attr }).collect();

            // Only the *maximal* groupings come from the cube scan; every
            // smaller grouping derives from them through the lattice (the
            // slices carry the full union aggregate list, so any child's
            // aggregates compose).
            let min_size = cfg.psi.min(attrs.len());
            let slices = cube(rel, &attrs, min_size, cfg.psi, &specs)?;
            cape_obs::counter_add("mining.group_queries", 1); // one cube query

            let lattice = Mutex::new(LatticeRollup::new(rel.num_rows()));
            for slice in slices {
                let gd = Arc::new(GroupData::from_parts(slice.dims, slice.relation, &union_aggs));
                lattice.lock().expect("lattice").insert(gd, specs.clone());
            }

            let gs = group_sets(&attrs, cfg.psi);
            let mut stores: Vec<PatternStore> = gs.iter().map(|_| PatternStore::new()).collect();
            for &i in &plan_order(&gs) {
                let g = &gs[i];
                // Only the aggregates valid for this grouping (A ∉ G).
                let aggs: Vec<(AggFunc, Option<AttrId>)> = union_aggs
                    .iter()
                    .filter(|(_, attr)| attr.is_none_or(|a| !g.contains(&a)))
                    .cloned()
                    .collect();
                if aggs.is_empty() {
                    continue;
                }
                let gd = materialize_group(rel, g, &aggs, &lattice)?;
                for split in splits_of(g) {
                    mine_split(rel, cfg, &gd, &split, &aggs, &mut stores[i])?;
                }
                gd.clear_sort_cache();
            }

            let mut store = PatternStore::new();
            for slice in stores {
                for (_, inst) in slice.iter() {
                    store.push(inst.clone());
                }
            }
            Ok((store, cfg.initial_fds.clone()))
        })
    }
}

/// The union of aggregate calls over all groupings.
fn union_agg_list(rel: &Relation, cfg: &MiningConfig) -> Vec<(AggFunc, Option<AttrId>)> {
    match &cfg.aggs {
        AggSelection::CountStar => vec![(AggFunc::Count, None)],
        AggSelection::AllNumeric => {
            let mut out = vec![(AggFunc::Count, None)];
            for a in 0..rel.schema().arity() {
                if cfg.exclude.contains(&a) {
                    continue;
                }
                if rel.schema().attr(a).expect("valid id").value_type().is_numeric() {
                    for func in [AggFunc::Sum, AggFunc::Min, AggFunc::Max] {
                        out.push((func, Some(a)));
                    }
                }
            }
            out
        }
        AggSelection::Explicit(list) => list.clone(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Thresholds;
    use crate::mining::share_grp::ShareGrpMiner;
    use crate::mining::Miner;

    fn cfg() -> MiningConfig {
        MiningConfig {
            thresholds: Thresholds::new(0.3, 3, 0.5, 2),
            psi: 2,
            ..MiningConfig::default()
        }
    }

    #[test]
    fn cube_agrees_with_share_grp() {
        let rel = crate::mining::share_grp::tests::pubs(3, 6, 3);
        let a = CubeMiner.mine(&rel, &cfg()).unwrap();
        let b = ShareGrpMiner.mine(&rel, &cfg()).unwrap();
        let set_a: std::collections::HashSet<_> =
            a.store.iter().map(|(_, p)| p.arp.clone()).collect();
        let set_b: std::collections::HashSet<_> =
            b.store.iter().map(|(_, p)| p.arp.clone()).collect();
        assert_eq!(set_a, set_b);
        assert_eq!(a.store.num_local_patterns(), b.store.num_local_patterns());
    }

    #[test]
    fn cube_uses_one_group_query() {
        let rel = crate::mining::share_grp::tests::pubs(3, 6, 3);
        let out = CubeMiner.mine(&rel, &cfg()).unwrap();
        assert_eq!(out.stats.group_queries, 1);
    }

    #[test]
    fn cube_with_all_numeric_aggs() {
        use crate::config::AggSelection;
        let rel = crate::mining::share_grp::tests::pubs(3, 6, 3);
        let mut c = cfg();
        c.aggs = AggSelection::AllNumeric;
        let a = CubeMiner.mine(&rel, &c).unwrap();
        let b = ShareGrpMiner.mine(&rel, &c).unwrap();
        let set_a: std::collections::HashSet<_> =
            a.store.iter().map(|(_, p)| p.arp.clone()).collect();
        let set_b: std::collections::HashSet<_> =
            b.store.iter().map(|(_, p)| p.arp.clone()).collect();
        assert_eq!(set_a, set_b);
    }
}
