//! Mining benchmark: wall-clock and per-stage times for the optimized
//! miner variants (lattice roll-up, the sort-permutation cache, and the
//! batched columnar fit path — all always on) at DBLP and Crime scales.
//! Each configuration is mined [`REPS`] times and the fastest run is
//! reported, so `bench-diff` trajectories compare capability rather than
//! scheduler luck. Results are written to `results/BENCH_mine.json` in
//! addition to the rendered table; the `scale` section of that file
//! belongs to the `scale-bench` experiment and is preserved across
//! reruns.
//!
//! Each entry's `kernels` record holds the absolute times `bench-diff`
//! tracks against the committed baseline. Peak RSS per configuration
//! rides along as `peak_rss_bytes` (informational, not a gated metric).

use crate::datasets::{crime_prefix, crime_rows, dblp_rows, Scale};
use crate::report::{section, SeriesTable};
use cape_core::config::MiningConfig;
use cape_core::mining::{ArpMiner, CubeMiner, Miner, MiningOutput, ParallelMiner, ShareGrpMiner};
use cape_data::Relation;
use cape_obs::Json;

/// Number of crime attributes kept (the paper's core query attributes).
const CRIME_ATTRS: usize = 5;

/// Runs per configuration; the per-metric minimum is reported.
const REPS: usize = 5;

fn miners() -> Vec<(&'static str, Box<dyn Miner>)> {
    vec![
        ("SHARE-GRP", Box::new(ShareGrpMiner)),
        ("CUBE", Box::new(CubeMiner)),
        ("ARP-MINE", Box::new(ArpMiner)),
        ("PAR-2", Box::new(ParallelMiner { threads: 2 })),
    ]
}

fn threads_of(name: &str) -> usize {
    if name == "PAR-2" {
        2
    } else {
        1
    }
}

fn base_cfg(exclude: Vec<usize>) -> MiningConfig {
    MiningConfig {
        thresholds: cape_core::config::Thresholds::new(0.15, 4, 0.3, 3),
        psi: 3,
        exclude,
        ..MiningConfig::default()
    }
}

struct Run {
    wall_s: f64,
    query_s: f64,
    regress_s: f64,
    other_s: f64,
    peak_rss_bytes: Option<u64>,
    patterns: usize,
    group_queries: usize,
    sort_queries: usize,
    rollup_hits: usize,
    sort_cache_hits: usize,
    scan_rows_saved: usize,
}

fn run_once(miner: &dyn Miner, rel: &Relation, cfg: &MiningConfig) -> Run {
    crate::rss::reset_peak();
    let out: MiningOutput = miner.mine(rel, cfg).expect("mining");
    let peak_rss_bytes = crate::rss::peak_rss_bytes();
    let s = &out.stats;
    Run {
        wall_s: s.total_time.as_secs_f64(),
        query_s: s.query_time.as_secs_f64(),
        regress_s: s.regression_time.as_secs_f64(),
        other_s: s.other_time().as_secs_f64(),
        peak_rss_bytes,
        patterns: out.store.len(),
        group_queries: s.group_queries,
        sort_queries: s.sort_queries,
        rollup_hits: s.rollup_hits,
        sort_cache_hits: s.sort_cache_hits,
        scan_rows_saved: s.scan_rows_saved,
    }
}

/// Per-metric minimum across [`REPS`] runs. The minimum is the least-noisy
/// estimator of each timing (anything above it is scheduler interference),
/// which matters doubly for the parallel miner on small hosts where
/// per-stage times sum across contending threads. Taking minima
/// independently means stage times need not sum to `wall_s`; counters are
/// deterministic and come from the first run, as does peak RSS (the first
/// run faults the configuration's pages in fresh, so its high-water mark
/// is the honest footprint — later reps mostly reuse warm allocations).
fn best_run(miner: &dyn Miner, rel: &Relation, cfg: &MiningConfig) -> Run {
    let mut best = run_once(miner, rel, cfg);
    for _ in 1..REPS {
        let r = run_once(miner, rel, cfg);
        best.wall_s = best.wall_s.min(r.wall_s);
        best.query_s = best.query_s.min(r.query_s);
        best.regress_s = best.regress_s.min(r.regress_s);
        best.other_s = best.other_s.min(r.other_s);
    }
    best
}

/// JSON for one run. Per-stage times are recorded only for
/// single-threaded miners (`with_stages`): the parallel miner sums stage
/// times across contending worker threads, so on a small host they
/// measure the scheduler, not the kernels, and would make the bench-diff
/// trajectory gate flaky.
fn run_json(label: &str, r: &Run, with_stages: bool) -> (String, Json) {
    let mut fields = vec![("wall_s".into(), Json::Num(r.wall_s))];
    if let Some(rss) = r.peak_rss_bytes {
        fields.push(("peak_rss_bytes".into(), Json::Num(rss as f64)));
    }
    if with_stages {
        fields.push((
            "per_stage".into(),
            Json::Obj(vec![
                ("query_s".into(), Json::Num(r.query_s)),
                ("regress_s".into(), Json::Num(r.regress_s)),
                ("other_s".into(), Json::Num(r.other_s)),
            ]),
        ));
    }
    fields.extend([
        ("patterns".into(), Json::Num(r.patterns as f64)),
        ("group_queries".into(), Json::Num(r.group_queries as f64)),
        ("sort_queries".into(), Json::Num(r.sort_queries as f64)),
        ("rollup_hits".into(), Json::Num(r.rollup_hits as f64)),
        ("sort_cache_hits".into(), Json::Num(r.sort_cache_hits as f64)),
        ("scan_rows_saved".into(), Json::Num(r.scan_rows_saved as f64)),
    ]);
    (label.into(), Json::Obj(fields))
}

/// The mine-bench experiment: for each dataset scale and miner, report
/// the best of [`REPS`] mining runs.
pub fn mine_bench(scale: Scale) -> String {
    let row_sweep: Vec<usize> = match scale {
        Scale::Quick => vec![10_000],
        Scale::Full => vec![10_000, 30_000, 100_000],
    };
    let host_cpus = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);

    let mut entries = Vec::new();
    let mut report = String::new();
    for &rows in &row_sweep {
        let datasets: Vec<(&str, Relation, Vec<usize>)> = vec![
            ("dblp", dblp_rows(rows), vec![cape_datagen::dblp::attrs::PUBID]),
            ("crime", crime_prefix(&crime_rows(rows), CRIME_ATTRS), vec![]),
        ];
        for (dataset, rel, exclude) in datasets {
            let cfg = base_cfg(exclude);
            let mut walls = Vec::new();
            let names: Vec<String> = miners().iter().map(|(n, _)| n.to_string()).collect();
            for (name, miner) in miners() {
                let run = best_run(miner.as_ref(), &rel, &cfg);
                eprintln!(
                    "  mine-bench: {dataset}/{rows} {name}: {:.3}s (rollup hits {}, sort-cache \
                     hits {}, rows saved {})",
                    run.wall_s, run.rollup_hits, run.sort_cache_hits, run.scan_rows_saved,
                );
                walls.push(Some(run.wall_s));
                entries.push(Json::Obj(vec![
                    ("dataset".into(), Json::Str(dataset.into())),
                    ("rows".into(), Json::Num(rel.num_rows() as f64)),
                    ("miner".into(), Json::Str(name.into())),
                    ("threads".into(), Json::Num(threads_of(name) as f64)),
                    run_json("kernels", &run, threads_of(name) == 1),
                ]));
            }

            let mut table = SeriesTable::new("miner", names);
            table.push_series("kernels [s]", walls);
            report.push_str(&format!(
                "{}{} rows\n{}",
                section(&format!("Mining kernels: {dataset} @ {rows}")),
                rel.num_rows(),
                table.render()
            ));
        }
    }

    let payload = Json::Obj(vec![
        ("experiment".into(), Json::Str("mine-bench".into())),
        ("host_cpus".into(), Json::Num(host_cpus as f64)),
        ("psi".into(), Json::Num(3.0)),
        ("reps".into(), Json::Num(REPS as f64)),
        ("crime_attrs".into(), Json::Num(CRIME_ATTRS as f64)),
        ("entries".into(), Json::Arr(entries)),
    ]);
    crate::envelope::write_bench_preserving(
        "results/BENCH_mine.json",
        "mine-bench",
        payload,
        &["scale"],
    );
    report.push_str("wrote results/BENCH_mine.json\n");
    report
}
