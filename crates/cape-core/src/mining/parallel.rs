//! Multi-threaded ARP mining: group-by sets are independent work units,
//! so they parallelize across scoped threads pulling from a shared work
//! queue (an atomic cursor over the group sets), which keeps
//! workers busy on skewed lattices where static striping would idle them.
//!
//! Semantics match [`crate::mining::ArpMiner`] with one exception: FD
//! *discovery* (Appendix D) requires processing group sets in increasing
//! size so that subset cardinalities are recorded before they are
//! needed — an inherently sequential dependency — so the parallel miner
//! runs a cheap sequential cardinality pre-pass (distinct counts only)
//! before fanning out, and then prunes with the discovered FDs exactly
//! like the sequential miner. Each claimed group set runs ARP-MINE's
//! per-group-set body: one group-by query over the base relation, then
//! ExploreSortOrders (Algorithm 5).

use crate::config::MiningConfig;
use crate::error::Result;
use crate::group_data::GroupData;
use crate::mining::arp_mine::explore_sort_orders;
use crate::mining::candidates::group_sets;
use crate::mining::{record_mining_run, validate_config, Miner, MiningOutput};
use crate::store::PatternStore;
use cape_data::ops::distinct_project;
use cape_data::stats::attr_stats;
use cape_data::{AttrId, FdDiscovery, Relation};
use std::collections::BTreeSet;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// A parallel ARP-MINE over `threads` worker threads
/// (`0` = use the machine's available parallelism).
#[derive(Debug, Clone, Copy, Default)]
pub struct ParallelMiner {
    /// Number of worker threads; `0` selects
    /// [`std::thread::available_parallelism`].
    pub threads: usize,
}

impl ParallelMiner {
    fn effective_threads(&self) -> usize {
        if self.threads > 0 {
            self.threads
        } else {
            std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
        }
    }
}

impl Miner for ParallelMiner {
    fn name(&self) -> &'static str {
        "PAR-ARP-MINE"
    }

    fn mine(&self, rel: &Relation, cfg: &MiningConfig) -> Result<MiningOutput> {
        validate_config(cfg)?;
        record_mining_run(|| {
            let attrs = cfg.candidate_attrs(rel);
            let gs = group_sets(&attrs, cfg.psi);
            let threads = self.effective_threads().min(gs.len().max(1));

            // Sequential FD pre-pass: record |π_G(R)| for every candidate
            // set with distinct-count queries (no aggregates, no sorting),
            // then derive the FD set once.
            let mut fds = cfg.initial_fds.clone();
            if cfg.fd_pruning {
                let mut fd_disc = FdDiscovery::new();
                for &a in &attrs {
                    let s = attr_stats(rel, a)?;
                    fd_disc.record([a], s.distinct + usize::from(s.nulls > 0));
                }
                for g in &gs {
                    let count = distinct_project(rel, g)?.num_rows();
                    fd_disc.record(g.iter().copied(), count);
                }
                // Detect in increasing-size order (gs is size-ordered).
                for g in &gs {
                    let g_set: BTreeSet<AttrId> = g.iter().copied().collect();
                    let found = fd_disc.detect(&g_set, &mut fds);
                    cape_obs::counter_add("mining.fds_discovered", found.len() as u64);
                }
            }
            let fds = fds; // frozen; shared read-only below

            // Fan out over a shared work queue: an atomic cursor walks the
            // group sets, so a worker stuck on a heavy group set never
            // blocks the rest of the lattice. Each worker attaches the
            // spawning thread's observability context so its spans and
            // counters land in the same recorders.
            struct Slice {
                index: usize,
                store: PatternStore,
            }
            let cursor = AtomicUsize::new(0);
            let ctx = cape_obs::ThreadContext::capture();
            let results: Result<Vec<Vec<Slice>>> = std::thread::scope(|scope| {
                let mut handles = Vec::with_capacity(threads);
                for _ in 0..threads {
                    let gs = &gs;
                    let fds = &fds;
                    let ctx = &ctx;
                    let cursor = &cursor;
                    handles.push(scope.spawn(move || -> Result<Vec<Slice>> {
                        let _obs = ctx.attach();
                        let mut out = Vec::new();
                        loop {
                            let i = cursor.fetch_add(1, Ordering::Relaxed);
                            let Some(g) = gs.get(i) else { break };
                            let mut store = PatternStore::new();
                            let aggs = cfg.resolve_aggs(rel, g);
                            if !aggs.is_empty() {
                                let gd = Arc::new(GroupData::compute(rel, g, &aggs)?);
                                cape_obs::counter_add("mining.group_queries", 1);
                                explore_sort_orders(rel, cfg, &gd, g, fds, &mut store)?;
                            }
                            out.push(Slice { index: i, store });
                        }
                        Ok(out)
                    }));
                }
                handles.into_iter().map(|h| h.join().expect("worker panicked")).collect()
            });

            // Merge deterministically in group-set order. Phase times are
            // summed CPU across workers and may exceed the wall clock —
            // `MiningStats::fractions` normalizes for that.
            let mut slices: Vec<Slice> = results?.into_iter().flatten().collect();
            slices.sort_by_key(|s| s.index);
            let mut store = PatternStore::new();
            for slice in slices {
                for (_, inst) in slice.store.iter() {
                    store.push(inst.clone());
                }
            }
            Ok((store, fds))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Thresholds;
    use crate::mining::ArpMiner;
    use std::collections::BTreeSet as Set;

    fn cfg(fd: bool) -> MiningConfig {
        MiningConfig {
            thresholds: Thresholds::new(0.3, 3, 0.5, 2),
            psi: 3,
            fd_pruning: fd,
            ..MiningConfig::default()
        }
    }

    fn pattern_names(out: &MiningOutput, rel: &Relation) -> Set<String> {
        out.store.iter().map(|(_, p)| p.arp.display(rel.schema())).collect()
    }

    #[test]
    fn parallel_matches_sequential() {
        let rel = crate::mining::share_grp::tests::pubs(4, 6, 3);
        let seq = ArpMiner.mine(&rel, &cfg(false)).unwrap();
        for threads in [1, 2, 4] {
            let par = ParallelMiner { threads }.mine(&rel, &cfg(false)).unwrap();
            assert_eq!(pattern_names(&par, &rel), pattern_names(&seq, &rel));
            assert_eq!(par.store.num_local_patterns(), seq.store.num_local_patterns());
            assert_eq!(par.stats.candidates_considered, seq.stats.candidates_considered);
        }
    }

    #[test]
    fn parallel_result_order_is_deterministic() {
        let rel = crate::mining::share_grp::tests::pubs(4, 6, 3);
        let a = ParallelMiner { threads: 3 }.mine(&rel, &cfg(false)).unwrap();
        let b = ParallelMiner { threads: 3 }.mine(&rel, &cfg(false)).unwrap();
        let names = |o: &MiningOutput| -> Vec<String> {
            o.store.iter().map(|(_, p)| p.arp.display(rel.schema())).collect()
        };
        assert_eq!(names(&a), names(&b));
    }

    #[test]
    fn parallel_fd_pruning_matches_sequential() {
        // Duplicate column ⇒ FD venue → venue2.
        use cape_data::{Schema, Value, ValueType};
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
        let seq = ArpMiner.mine(&rel, &cfg(true)).unwrap();
        let par = ParallelMiner { threads: 2 }.mine(&rel, &cfg(true)).unwrap();
        assert_eq!(pattern_names(&par, &rel), pattern_names(&seq, &rel));
        assert!(par.stats.skipped_by_fd > 0);
        assert_eq!(par.stats.skipped_by_fd, seq.stats.skipped_by_fd);
        assert!(par.stats.fds_discovered > 0);
    }

    #[test]
    fn zero_threads_uses_available_parallelism() {
        let rel = crate::mining::share_grp::tests::pubs(3, 6, 3);
        let out = ParallelMiner::default().mine(&rel, &cfg(false)).unwrap();
        assert!(!out.store.is_empty());
    }
}
