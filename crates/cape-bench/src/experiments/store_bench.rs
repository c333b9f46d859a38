//! Snapshot cold-start benchmark (ISSUE 5): how much faster is loading a
//! `.cape` snapshot than re-mining the same relation?
//!
//! `store-bench` mines DBLP and Crime at the requested scale, saves each
//! store to `results/store_{scale}_{dataset}.cape`, times save and load,
//! and writes `results/BENCH_store.json` with the mine-vs-load speedup.
//! Each timing is the best of [`REPS`] runs so `bench-diff` trajectories
//! compare capability rather than scheduler luck.
//! A sanity differential (optimized explainer on original vs reloaded
//! store) guards against benchmarking a store that answers differently.
//!
//! `store-verify` is the cross-process half: it regenerates the same
//! relations, loads the `.cape` files a *previous process* wrote (the CI
//! artifact step), re-mines, and asserts the explanations agree — proving
//! the file on disk, not just the in-memory bytes, is the durable truth.

use crate::datasets::{crime_prefix, crime_rows, dblp_rows, Scale};
use crate::experiments::best_of;
use crate::questions::generate_questions;
use crate::report::{section, SeriesTable};
use cape_core::explain::ExplainConfig;
use cape_core::mining::{ArpMiner, Miner};
use cape_core::prelude::{OptimizedExplainer, TopKExplainer};
use cape_core::snapshot;
use cape_core::{MiningConfig, PatternStore};
use cape_data::Relation;
use cape_obs::Json;

const TOP_K: usize = 8;
const QUESTIONS: usize = 12;
const SCORE_TOL: f64 = 1e-9;

/// Runs per timing; the fastest is reported.
const REPS: usize = 3;

struct Dataset {
    name: &'static str,
    rel: Relation,
    cfg: MiningConfig,
    question_attrs: Vec<usize>,
}

fn datasets(scale: Scale) -> Vec<Dataset> {
    let rows = match scale {
        Scale::Quick => 10_000,
        Scale::Full => 100_000,
    };
    let mut dblp_cfg = super::explain_perf::lenient_mining_config(3);
    dblp_cfg.exclude = vec![cape_datagen::dblp::attrs::PUBID];
    let crime = crime_rows(rows);
    vec![
        Dataset {
            name: "dblp",
            rel: dblp_rows(rows),
            cfg: dblp_cfg,
            question_attrs: vec![
                cape_datagen::dblp::attrs::AUTHOR,
                cape_datagen::dblp::attrs::YEAR,
                cape_datagen::dblp::attrs::VENUE,
            ],
        },
        Dataset {
            name: "crime",
            rel: crime_prefix(&crime, 5),
            cfg: super::explain_perf::lenient_mining_config(3),
            question_attrs: vec![
                cape_datagen::crime::attrs::PRIMARY_TYPE,
                cape_datagen::crime::attrs::COMMUNITY,
                cape_datagen::crime::attrs::YEAR,
            ],
        },
    ]
}

fn snapshot_path(scale: Scale, name: &str) -> String {
    let scale_tag = match scale {
        Scale::Quick => "quick",
        Scale::Full => "full",
    };
    format!("results/store_{scale_tag}_{name}.cape")
}

/// Explanations on both stores must agree — the benchmark is meaningless
/// (and dangerous) if the reloaded store answers differently.
fn assert_stores_agree(ds: &Dataset, original: &PatternStore, reloaded: &PatternStore) {
    let questions = generate_questions(&ds.rel, &ds.question_attrs, QUESTIONS, 71);
    let cfg = ExplainConfig::default_for(&ds.rel, TOP_K);
    let mut answered = 0;
    for (i, q) in questions.iter().enumerate() {
        let (a, _) = OptimizedExplainer.explain(original, q, &cfg);
        let (b, _) = OptimizedExplainer.explain(reloaded, q, &cfg);
        assert_eq!(a.len(), b.len(), "{}: question {i}: candidate counts differ", ds.name);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.key(), y.key(), "{}: question {i}: candidates differ", ds.name);
            assert!(
                (x.score - y.score).abs() < SCORE_TOL,
                "{}: question {i}: scores differ ({} vs {})",
                ds.name,
                x.score,
                y.score
            );
        }
        answered += usize::from(!a.is_empty());
    }
    assert!(answered > 0, "{}: differential sanity check is vacuous", ds.name);
}

/// `store-bench`: mine, save, reload, time all three, write the JSON.
pub fn store_bench(scale: Scale) -> String {
    std::fs::create_dir_all("results").expect("create results dir");
    let host_cpus = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);

    let mut entries = Vec::new();
    let mut names = Vec::new();
    let mut mine_col = Vec::new();
    let mut load_col = Vec::new();
    let mut speedup_col = Vec::new();

    for ds in datasets(scale) {
        eprintln!("  store-bench: mining {} ({} rows) ...", ds.name, ds.rel.num_rows());
        let (mine_s, store) =
            best_of(REPS, || ArpMiner.mine(&ds.rel, &ds.cfg).expect("mining").store);
        assert!(!store.is_empty(), "{}: mined no patterns", ds.name);

        // Save is atomic (tmp + rename), so re-saving to the same path per
        // rep is safe and each rep measures a complete write.
        let path = snapshot_path(scale, ds.name);
        let (save_s, bytes) = best_of(REPS, || {
            snapshot::save_snapshot(&path, ds.rel.schema(), &ds.cfg, &store).expect("save")
        });

        let (load_s, loaded) =
            best_of(REPS, || snapshot::load_snapshot(&path, &ds.rel).expect("load"));
        assert_eq!(loaded.store.len(), store.len());
        assert_stores_agree(&ds, &store, &loaded.store);

        let speedup = mine_s / load_s.max(1e-9);
        eprintln!(
            "  store-bench: {}: mine {:.3}s, save {:.4}s ({} KiB), load {:.4}s ({:.0}x)",
            ds.name,
            mine_s,
            save_s,
            bytes / 1024,
            load_s,
            speedup
        );

        names.push(ds.name.to_string());
        mine_col.push(Some(mine_s));
        load_col.push(Some(load_s));
        speedup_col.push(Some(speedup));
        entries.push(Json::Obj(vec![
            ("dataset".into(), Json::Str(ds.name.into())),
            ("rows".into(), Json::Num(ds.rel.num_rows() as f64)),
            ("patterns".into(), Json::Num(store.len() as f64)),
            ("local_patterns".into(), Json::Num(store.num_local_patterns() as f64)),
            ("snapshot_bytes".into(), Json::Num(bytes as f64)),
            ("mine_s".into(), Json::Num(mine_s)),
            ("save_s".into(), Json::Num(save_s)),
            ("load_s".into(), Json::Num(load_s)),
            ("load_speedup_vs_mine".into(), Json::Num(speedup)),
            ("snapshot_file".into(), Json::Str(path)),
        ]));
    }

    let payload = Json::Obj(vec![
        ("experiment".into(), Json::Str("store-bench".into())),
        (
            "scale".into(),
            Json::Str(match scale {
                Scale::Quick => "quick".into(),
                Scale::Full => "full".into(),
            }),
        ),
        ("host_cpus".into(), Json::Num(host_cpus as f64)),
        ("questions".into(), Json::Num(QUESTIONS as f64)),
        ("k".into(), Json::Num(TOP_K as f64)),
        ("reps".into(), Json::Num(REPS as f64)),
        ("datasets".into(), Json::Arr(entries)),
    ]);
    crate::envelope::write_bench("results/BENCH_store.json", "store-bench", payload);

    let mut table = SeriesTable::new("dataset", names);
    table.push_series("mine [s]", mine_col);
    table.push_series("load [s]", load_col);
    table.push_series("speedup", speedup_col);
    format!(
        "{}snapshot cold-start vs re-mining (host cpus: {host_cpus})\n\
         wrote results/BENCH_store.json\n{}",
        section("Store: snapshot load vs re-mine"),
        table.render()
    )
}

/// `store-verify`: the cross-process leg. Loads the `.cape` files a
/// previous `store-bench` run wrote, re-mines the same relations, and
/// asserts explanation agreement. Exits the experiment with a panic if a
/// file is missing or answers differ — CI treats that as failure.
pub fn store_verify(scale: Scale) -> String {
    let mut lines = Vec::new();
    for ds in datasets(scale) {
        let path = snapshot_path(scale, ds.name);
        eprintln!("  store-verify: loading {path} ...");
        let loaded = snapshot::load_snapshot(&path, &ds.rel)
            .unwrap_or_else(|e| panic!("{path}: run store-bench first in another process: {e}"));
        eprintln!("  store-verify: re-mining {} for the reference ...", ds.name);
        let store = ArpMiner.mine(&ds.rel, &ds.cfg).expect("mining").store;
        assert_eq!(
            loaded.store.len(),
            store.len(),
            "{}: snapshot holds {} patterns, re-mine found {}",
            ds.name,
            loaded.store.len(),
            store.len()
        );
        assert_stores_agree(&ds, &store, &loaded.store);
        lines.push(format!(
            "{}: {} patterns from {} verified against a fresh mine",
            ds.name,
            loaded.store.len(),
            path
        ));
    }
    format!("{}{}\n", section("Store: cross-process snapshot verification"), lines.join("\n"))
}
