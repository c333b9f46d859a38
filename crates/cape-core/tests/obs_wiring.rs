//! Wiring tests: running the miners and explainers produces the
//! documented `mining.*` / `explain.*` metric names with plausible
//! values, both in `MiningOutput::telemetry` and in an enclosing
//! session recorder (the `cape --metrics` path).

use cape_core::explain::{BaselineExplainer, ExplainConfig, TopKExplainer};
use cape_core::mining::{ArpMiner, CubeMiner, Miner, NaiveMiner, ParallelMiner, ShareGrpMiner};
use cape_core::prelude::OptimizedExplainer;
use cape_core::session::CapeSession;
use cape_core::{Direction, MiningConfig, Thresholds};
use cape_data::{AggFunc, Relation, Schema, Value, ValueType};
use cape_obs::{SpanNode, TelemetrySnapshot};

/// Shops × days with a planted dip (A, day 3) and spike (A, day 4).
fn shops() -> Relation {
    let schema = Schema::new([("shop", ValueType::Str), ("day", ValueType::Int)]).unwrap();
    let mut rel = Relation::new(schema);
    for shop in ["A", "B", "C"] {
        for day in 0..8i64 {
            let n = match (shop, day) {
                ("A", 3) => 1,
                ("A", 4) => 7,
                _ => 4,
            };
            for _ in 0..n {
                rel.push_row(vec![Value::str(shop), Value::Int(day)]).unwrap();
            }
        }
    }
    rel
}

fn config() -> MiningConfig {
    MiningConfig { thresholds: Thresholds::new(0.1, 3, 0.3, 2), psi: 2, ..MiningConfig::default() }
}

fn span_names(nodes: &[SpanNode], out: &mut Vec<String>) {
    for n in nodes {
        out.push(n.name.clone());
        span_names(&n.children, out);
    }
}

fn assert_mining_telemetry(miner: &dyn Miner, name: &str) -> TelemetrySnapshot {
    let out = miner.mine(&shops(), &config()).expect("mining succeeds");
    let t = &out.telemetry;
    assert!(t.counter("mining.candidates_considered") > 0, "{name}: no candidates");
    assert!(t.counter("mining.fragments_fitted") > 0, "{name}: no fits");
    assert!(t.counter("mining.patterns_found") > 0, "{name}: no patterns");
    assert!(
        t.counter("mining.group_queries") + t.counter("mining.sort_queries") > 0,
        "{name}: no relational queries recorded"
    );
    let hist = t.histograms.get("mining.run_ns").unwrap_or_else(|| panic!("{name}: no run_ns"));
    assert_eq!(hist.count, 1, "{name}: one run, one observation");
    let mut names = Vec::new();
    span_names(&t.spans, &mut names);
    assert!(names.iter().any(|n| n == "mining.mine"), "{name}: no root span in {names:?}");
    out.telemetry.clone()
}

#[test]
fn every_miner_emits_the_documented_metrics() {
    let miners: [(&str, &dyn Miner); 5] = [
        ("NAIVE", &NaiveMiner),
        ("CUBE", &CubeMiner),
        ("SHARE-GRP", &ShareGrpMiner),
        ("ARP-MINE", &ArpMiner),
        ("PARALLEL", &ParallelMiner::default()),
    ];
    for (name, miner) in miners {
        assert_mining_telemetry(miner, name);
    }
}

#[test]
fn session_recorder_observes_nested_mining_run() {
    let recorder = cape_obs::Recorder::new();
    let install = recorder.install();
    let out = ArpMiner.mine(&shops(), &config()).unwrap();
    drop(install);
    let outer = recorder.snapshot();
    // The miner's own recorder and the outer session recorder both saw
    // the same counters.
    assert_eq!(
        outer.counter("mining.candidates_considered"),
        out.telemetry.counter("mining.candidates_considered")
    );
    assert_eq!(
        outer.counter("mining.candidates_considered") as usize,
        out.stats.candidates_considered
    );
    assert!(outer.histograms.contains_key("mining.run_ns"));
}

#[test]
fn explainers_publish_metrics_to_installed_recorder() {
    let session = CapeSession::mine(shops(), &config()).unwrap();
    let uq = session
        .question(
            AggFunc::Count,
            None,
            &[("shop", Value::str("A")), ("day", Value::Int(3))],
            Direction::Low,
        )
        .unwrap();
    let cfg = ExplainConfig::default_for(session.relation(), 2);

    let recorder = cape_obs::Recorder::new();
    let install = recorder.install();
    let (expls, stats) = OptimizedExplainer.explain(session.store(), &uq, &cfg);
    drop(install);
    assert!(!expls.is_empty());

    let snap = recorder.snapshot();
    assert_eq!(snap.counter("explain.patterns_relevant") as usize, stats.patterns_relevant);
    assert!(snap.counter("explain.tuples_checked") > 0);
    // Zero-valued counters are still published so snapshots always carry
    // the full explain.* key set.
    for key in [
        "explain.patterns_relevant",
        "explain.refinements_considered",
        "explain.refinements_pruned",
        "explain.tuples_checked",
        "explain.candidates_generated",
    ] {
        assert!(snap.counters.contains_key(key), "missing {key}");
    }
    assert_eq!(snap.histograms.get("explain.run_ns").map(|h| h.count), Some(1));
    let mut names = Vec::new();
    span_names(&snap.spans, &mut names);
    assert!(names.iter().any(|n| n == "explain.run"), "no explain.run span in {names:?}");
}

#[test]
fn snapshot_store_publishes_save_load_and_reject_metrics() {
    let rel = shops();
    let cfg = config();
    let store = ArpMiner.mine(&rel, &cfg).unwrap().store;
    let dir = std::env::temp_dir().join(format!("cape-obs-snap-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("store.cape");

    let recorder = cape_obs::Recorder::new();
    let install = recorder.install();
    let written = cape_core::snapshot::save_snapshot(&path, rel.schema(), &cfg, &store).unwrap();
    let loaded = cape_core::snapshot::load_snapshot(&path, &rel).unwrap();
    drop(install);
    assert_eq!(loaded.store.len(), store.len());

    let snap = recorder.snapshot();
    // One save, one load, and the byte counter saw the file twice.
    assert_eq!(snap.histograms.get("store.save_ns").map(|h| h.count), Some(1));
    assert_eq!(snap.histograms.get("store.load_ns").map(|h| h.count), Some(1));
    assert_eq!(snap.counter("store.bytes"), 2 * written as u64);
    assert_eq!(snap.counter("store.corrupt_rejects"), 0);

    // A corrupted file increments the reject counter and records no
    // additional successful load.
    let mut bytes = std::fs::read(&path).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0xFF;
    std::fs::write(&path, &bytes).unwrap();
    let recorder = cape_obs::Recorder::new();
    let install = recorder.install();
    assert!(cape_core::snapshot::load_snapshot(&path, &rel).is_err());
    drop(install);
    let snap = recorder.snapshot();
    assert_eq!(snap.counter("store.corrupt_rejects"), 1);
    assert!(!snap.histograms.contains_key("store.save_ns"));

    std::fs::remove_dir_all(&dir).ok();
}

/// A version 2 file is saved and read through the same counters as a
/// version 1 file, and a damaged relation section counts as a reject.
#[test]
fn v2_snapshot_publishes_the_same_metrics() {
    use cape_core::snapshot::{self, SnapshotError};
    let rel = shops();
    let cfg = config();
    let store = ArpMiner.mine(&rel, &cfg).unwrap().store;
    let dir = std::env::temp_dir().join(format!("cape-obs-snap-v2-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("store.cape");

    let recorder = cape_obs::Recorder::new();
    let install = recorder.install();
    let written = snapshot::save_snapshot_v2(&path, rel.schema(), &cfg, &store, &rel).unwrap();
    let snap = recorder.snapshot();
    assert_eq!(snap.histograms.get("store.save_ns").map(|h| h.count), Some(1));
    assert_eq!(snap.counter("store.bytes"), written);
    let loaded = snapshot::load_snapshot(&path, &rel).unwrap();
    drop(install);
    assert_eq!(loaded.store.len(), store.len());
    let snap = recorder.snapshot();
    assert_eq!(snap.histograms.get("store.load_ns").map(|h| h.count), Some(1));
    assert_eq!(snap.counter("store.bytes") - written, std::fs::metadata(&path).unwrap().len());
    assert_eq!(snap.counter("store.corrupt_rejects"), 0);

    // One flipped byte inside the relation section's payload.
    let mut bytes = std::fs::read(&path).unwrap();
    let (name, relc) = snapshot::layout(&bytes).unwrap().sections[3].clone();
    assert_eq!(name, "relation");
    bytes[(relc.start + relc.end) / 2] ^= 0xFF;
    std::fs::write(&path, &bytes).unwrap();
    let recorder = cape_obs::Recorder::new();
    let install = recorder.install();
    let err = snapshot::load_snapshot(&path, &rel).unwrap_err();
    drop(install);
    assert_eq!(err, SnapshotError::SectionCorrupt { section: "relation" });
    let snap = recorder.snapshot();
    assert_eq!(snap.counter("store.corrupt_rejects"), 1);
    assert!(!snap.histograms.contains_key("store.load_ns"));

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn baseline_explainer_is_instrumented() {
    let session = CapeSession::mine(shops(), &config()).unwrap();
    let uq = session
        .question(
            AggFunc::Count,
            None,
            &[("shop", Value::str("A")), ("day", Value::Int(3))],
            Direction::Low,
        )
        .unwrap();
    let cfg = ExplainConfig::default_for(session.relation(), 5);

    let recorder = cape_obs::Recorder::new();
    let install = recorder.install();
    let (_, stats) = BaselineExplainer.explain(session.relation(), &uq, &cfg).unwrap();
    drop(install);

    let snap = recorder.snapshot();
    assert_eq!(snap.counter("explain.baseline_tuples_checked") as usize, stats.tuples_checked);
    let mut names = Vec::new();
    span_names(&snap.spans, &mut names);
    assert!(names.iter().any(|n| n == "explain.baseline"));
}
