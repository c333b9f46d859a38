//! ARP-MINE (Algorithm 2): shared group-by queries, sort-order reuse
//! across `(F, V)` splits, and the FD optimizations of Appendix D.

use crate::config::MiningConfig;
use crate::error::Result;
use crate::group_data::GroupData;
use crate::mining::candidates::{group_sets, splits_of, Split};
use crate::mining::fit::fit_split;
use crate::mining::share_grp::build_candidates;
use crate::mining::{make_instance, record_mining_run, validate_config, Miner, MiningOutput};
use crate::pattern::Arp;
use crate::store::{PatternInstance, PatternStore};
use cape_data::stats::attr_stats;
use cape_data::{AttrId, FdDiscovery, FdSet, Relation};
use std::collections::{BTreeSet, HashMap, HashSet};
use std::sync::Arc;

/// The ARP-MINE miner with optional FD pruning.
#[derive(Debug, Clone, Copy, Default)]
pub struct ArpMiner;

impl Miner for ArpMiner {
    fn name(&self) -> &'static str {
        "ARP-MINE"
    }

    fn mine(&self, rel: &Relation, cfg: &MiningConfig) -> Result<MiningOutput> {
        validate_config(cfg)?;
        record_mining_run(|| {
            let mut store = PatternStore::new();
            let mut fds = cfg.initial_fds.clone();
            let mut fd_disc = FdDiscovery::new();
            let attrs = cfg.candidate_attrs(rel);

            // Seed FD discovery with singleton cardinalities (|π_A(R)|): the
            // group-size map needs them to test FDs A → B at |G| = 2.
            if cfg.fd_pruning {
                for &a in &attrs {
                    let s = attr_stats(rel, a)?;
                    let distinct = s.distinct + usize::from(s.nulls > 0);
                    fd_disc.record([a], distinct);
                }
            }

            for g in group_sets(&attrs, cfg.psi) {
                let aggs = cfg.resolve_aggs(rel, &g);
                if aggs.is_empty() {
                    continue;
                }
                let gd = Arc::new(GroupData::compute(rel, &g, &aggs)?);
                cape_obs::counter_add("mining.group_queries", 1);

                // Record |π_G(R)| and detect new FDs (detectFDs, Appendix D).
                if cfg.fd_pruning {
                    let g_set: BTreeSet<AttrId> = g.iter().copied().collect();
                    fd_disc.record(g.iter().copied(), gd.relation.num_rows());
                    let found = fd_disc.detect(&g_set, &mut fds);
                    cape_obs::counter_add("mining.fds_discovered", found.len() as u64);
                }

                explore_sort_orders(rel, cfg, &gd, &g, &fds, &mut store)?;
                gd.clear_sort_cache();
            }

            Ok((store, fds))
        })
    }
}

/// ExploreSortOrders (Algorithm 5): enumerate permutations `S` of `G`,
/// sort once per *useful* permutation, and evaluate every `(F, V)` pair
/// whose `F` is a prefix set of `S` that has not been covered yet.
///
/// Patterns are pushed in [`splits_of`] order, not in the order the
/// permutations find them — the order every other miner and `IncrStore`
/// use, so top-k ties rank the same whichever of them built the store.
pub(crate) fn explore_sort_orders(
    rel: &Relation,
    cfg: &MiningConfig,
    gd: &Arc<GroupData>,
    g: &[AttrId],
    fds: &FdSet,
    store: &mut PatternStore,
) -> Result<()> {
    let aggs = cfg.resolve_aggs(rel, g);
    let mut covered: HashSet<Vec<AttrId>> = HashSet::new(); // F sets (sorted)
    let mut found: HashMap<Vec<AttrId>, Vec<PatternInstance>> = HashMap::new(); // by F

    // FD admissibility is independent of the sort order, so check it up
    // front: an FD-pruned (F, V) counts as covered without ever requiring
    // a sort — this is where the Appendix-D optimization saves queries,
    // not just regressions.
    if cfg.fd_pruning && !fds.is_empty() {
        for split in splits_of(g) {
            if !validate_fds(&split.f, &split.v, fds) {
                cape_obs::counter_add("mining.skipped_by_fd", 1);
                covered.insert(split.f);
            }
        }
    }

    for perm in permutations(g) {
        // Which prefix F-sets of this permutation are still uncovered?
        let mut new_fs: Vec<Vec<AttrId>> = Vec::new();
        for k in 1..perm.len() {
            let mut f: Vec<AttrId> = perm[..k].to_vec();
            f.sort_unstable();
            if !covered.contains(&f) {
                new_fs.push(f);
            }
        }
        if new_fs.is_empty() {
            continue; // nothing new — skip the sort entirely (line 2 of Alg. 5)
        }

        // One sort order covers every prefix split of this permutation; a
        // cached permutation whose prefixes match each needed F as a set
        // (from another permutation of G, or a prior mine_split) serves
        // without re-sorting. `sort_queries` still counts the logical
        // request, as in the paper's cost model.
        let perm_cols: Vec<usize> =
            perm.iter().map(|&a| gd.col_of_attr(a).expect("attr in G")).collect();
        cape_obs::counter_add("mining.sort_queries", 1);
        let prefix_lens: Vec<usize> = new_fs.iter().map(|f| f.len()).collect();
        let sort_perm = gd.sort_perm_covering(&perm_cols, &prefix_lens);

        for f in new_fs {
            covered.insert(f.clone());
            let v: Vec<AttrId> = g.iter().copied().filter(|a| !f.contains(a)).collect();
            let split = Split { f, v };
            let f_cols = gd.cols_of_attrs(&split.f).expect("F within G");
            let v_cols = gd.cols_of_attrs(&split.v).expect("V within G");
            let candidates = build_candidates(rel, cfg, gd, &split, &aggs);
            if candidates.is_empty() {
                continue;
            }
            let outcomes =
                fit_split(&gd.relation, &sort_perm, &f_cols, &v_cols, &candidates, &cfg.thresholds);
            for (cand, outcome) in candidates.iter().zip(outcomes) {
                if let Some(outcome) = outcome {
                    let arp = Arp::new(
                        split.f.iter().copied(),
                        split.v.iter().copied(),
                        cand.agg,
                        cand.agg_attr,
                        cand.model,
                    );
                    let inst = make_instance(arp, Arc::clone(gd), cand.agg_col, outcome);
                    found.entry(split.f.clone()).or_default().push(inst);
                }
            }
        }
    }
    for split in splits_of(g) {
        for inst in found.remove(&split.f).unwrap_or_default() {
            store.push(inst);
        }
    }
    Ok(())
}

/// The FD admissibility check of Appendix D: `F` must be minimal w.r.t.
/// the FDs (no `A ∈ F` implied by `F − {A}`) and must not determine all of
/// `V` (otherwise every fragment has a single row and can never meet δ).
pub(crate) fn validate_fds(f: &[AttrId], v: &[AttrId], fds: &FdSet) -> bool {
    if fds.is_empty() {
        return true;
    }
    let f_set: BTreeSet<AttrId> = f.iter().copied().collect();
    let v_set: BTreeSet<AttrId> = v.iter().copied().collect();
    fds.is_minimal(&f_set) && !fds.determines_all(&f_set, &v_set)
}

/// All permutations of `items` (lexicographic by input order).
fn permutations(items: &[AttrId]) -> Vec<Vec<AttrId>> {
    fn rec(remaining: &mut Vec<AttrId>, cur: &mut Vec<AttrId>, out: &mut Vec<Vec<AttrId>>) {
        if remaining.is_empty() {
            out.push(cur.clone());
            return;
        }
        for i in 0..remaining.len() {
            let item = remaining.remove(i);
            cur.push(item);
            rec(remaining, cur, out);
            cur.pop();
            remaining.insert(i, item);
        }
    }
    let mut out = Vec::new();
    rec(&mut items.to_vec(), &mut Vec::new(), &mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Thresholds;
    use crate::mining::share_grp::ShareGrpMiner;
    use cape_data::{Fd, Schema, Value, ValueType};

    fn pubs() -> Relation {
        crate::mining::share_grp::tests::pubs(4, 6, 3)
    }

    fn cfg() -> MiningConfig {
        MiningConfig {
            thresholds: Thresholds::new(0.3, 3, 0.5, 2),
            psi: 3,
            ..MiningConfig::default()
        }
    }

    #[test]
    fn permutation_count() {
        assert_eq!(permutations(&[0]).len(), 1);
        assert_eq!(permutations(&[0, 1]).len(), 2);
        assert_eq!(permutations(&[0, 1, 2]).len(), 6);
        assert_eq!(permutations(&[0, 1, 2, 3]).len(), 24);
        // Every permutation is a permutation of the input.
        for p in permutations(&[0, 1, 2]) {
            let mut s = p.clone();
            s.sort_unstable();
            assert_eq!(s, vec![0, 1, 2]);
        }
    }

    #[test]
    fn agrees_with_share_grp() {
        let rel = pubs();
        let a = ArpMiner.mine(&rel, &cfg()).unwrap();
        let b = ShareGrpMiner.mine(&rel, &cfg()).unwrap();
        // Same set of globally holding ARPs.
        let set_a: std::collections::HashSet<_> =
            a.store.iter().map(|(_, p)| p.arp.clone()).collect();
        let set_b: std::collections::HashSet<_> =
            b.store.iter().map(|(_, p)| p.arp.clone()).collect();
        assert_eq!(set_a, set_b);
        assert_eq!(a.store.num_local_patterns(), b.store.num_local_patterns());
    }

    #[test]
    fn fewer_sorts_than_share_grp() {
        let rel = pubs();
        let a = ArpMiner.mine(&rel, &cfg()).unwrap();
        let b = ShareGrpMiner.mine(&rel, &cfg()).unwrap();
        // Sort-order reuse: ARP-MINE sorts strictly less often for |G| ≥ 3.
        assert!(
            a.stats.sort_queries < b.stats.sort_queries,
            "ARP-MINE {} vs SHARE-GRP {}",
            a.stats.sort_queries,
            b.stats.sort_queries
        );
    }

    #[test]
    fn fd_pruning_skips_redundant_partitions() {
        // venue2 is functionally determined by venue (duplicate column).
        let schema = Schema::new([
            ("author", ValueType::Str),
            ("year", ValueType::Int),
            ("venue", ValueType::Str),
            ("venue2", ValueType::Str),
        ])
        .unwrap();
        let mut rel = Relation::new(schema);
        for a in 0..4 {
            for y in 0..6 {
                for p in 0..3 {
                    let venue = if p % 2 == 0 { "KDD" } else { "ICDE" };
                    rel.push_row(vec![
                        Value::str(format!("a{a}")),
                        Value::Int(2000 + y),
                        Value::str(venue),
                        Value::str(format!("{venue}-dup")),
                    ])
                    .unwrap();
                }
            }
        }
        let mut c = cfg();
        c.fd_pruning = true;
        let with_fd = ArpMiner.mine(&rel, &c).unwrap();
        assert!(with_fd.stats.skipped_by_fd > 0, "expected FD-based skips");
        assert!(with_fd.stats.fds_discovered > 0, "expected discovered FDs");
        // No pattern may partition on both venue and venue2 (non-minimal F).
        for (_, p) in with_fd.store.iter() {
            let f = p.arp.f();
            assert!(!(f.contains(&2) && f.contains(&3)), "non-minimal F survived: {:?}", f);
        }
        // Without pruning, mining still works but skips nothing.
        c.fd_pruning = false;
        let without = ArpMiner.mine(&rel, &c).unwrap();
        assert_eq!(without.stats.skipped_by_fd, 0);
        // Pruning only removes redundant patterns, so every pattern found
        // with pruning also exists without it.
        let set_without: std::collections::HashSet<_> =
            without.store.iter().map(|(_, p)| p.arp.clone()).collect();
        for (_, p) in with_fd.store.iter() {
            assert!(set_without.contains(&p.arp));
        }
    }

    #[test]
    fn validate_fds_rules() {
        let mut fds = FdSet::new();
        fds.add(Fd::new([0], 1));
        // F = {0,1} non-minimal (1 implied by 0).
        assert!(!validate_fds(&[0, 1], &[2], &fds));
        assert!(validate_fds(&[0], &[2], &fds));
        // F → V: fragments would be single rows.
        assert!(!validate_fds(&[0], &[1], &fds));
        // Empty FD set admits everything.
        assert!(validate_fds(&[0, 1], &[2], &FdSet::new()));
    }

    #[test]
    fn provided_initial_fds_are_used() {
        let rel = pubs();
        let mut c = cfg();
        c.fd_pruning = true;
        // Claim author → venue (false in the data, but mining must honor it).
        c.initial_fds.add(Fd::new([0], 2));
        let out = ArpMiner.mine(&rel, &c).unwrap();
        for (_, p) in out.store.iter() {
            let f = p.arp.f();
            assert!(!(f.contains(&0) && f.contains(&2)), "F={f:?} should be pruned");
        }
    }
}
