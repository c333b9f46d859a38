//! Snapshot differential suite (ISSUE 5): mine → save → load → explain
//! must be bit-identical to the in-memory pipeline.
//!
//! For DBLP and Crime, a store is mined in memory, persisted to a
//! `.cape` snapshot on disk, reloaded through
//! [`snapshot::load_snapshot`] into a [`PatternStoreHandle`] (the
//! path `cape serve` takes for a read-only store), and driven through the same deterministic question grid as the
//! in-memory handle — via the sequential optimized explainer and the
//! concurrent `ExplainService` at 1 and 4 workers. Candidate keys,
//! ranks, and scores (to 1e-9) must match the in-memory answers.

use cape_core::config::MiningConfig;
use cape_core::explain::{ExplainConfig, Explanation};
use cape_core::mining::{ArpMiner, Miner};
use cape_core::prelude::{OptimizedExplainer, TopKExplainer};
use cape_core::question::{Direction, UserQuestion};
use cape_core::snapshot;
use cape_data::ops::aggregate;
use cape_data::{AggFunc, AggSpec, AttrId, Relation};
use cape_serve::{ExplainRequest, ExplainService, PatternStoreHandle, ServeConfig};

const TOP_K: usize = 8;
const QUESTIONS_PER_DATASET: usize = 16;
const SCORE_TOL: f64 = 1e-9;

/// Same deterministic grid as `tests/differential.rs`: rank the count
/// query's rows descending, alternate High/Low directions.
fn question_grid(rel: &Relation, group_attrs: &[AttrId], n: usize) -> Vec<UserQuestion> {
    let result = aggregate(rel, group_attrs, &[AggSpec { func: AggFunc::Count, attr: None }])
        .expect("count query")
        .relation;
    let agg_col = group_attrs.len();
    let key_cols: Vec<usize> = (0..group_attrs.len()).collect();
    let mut order: Vec<usize> = (0..result.num_rows()).collect();
    order.sort_by(|&a, &b| {
        let ca = result.value(a, agg_col).as_f64().unwrap_or(0.0);
        let cb = result.value(b, agg_col).as_f64().unwrap_or(0.0);
        cb.total_cmp(&ca)
            .then_with(|| result.row_project(a, &key_cols).cmp(&result.row_project(b, &key_cols)))
    });
    order
        .iter()
        .take(n)
        .enumerate()
        .map(|(i, &row)| {
            let tuple = result.row_project(row, &key_cols);
            let agg_value = result.value(row, agg_col).as_f64().unwrap_or(0.0);
            let dir = if i % 2 == 0 { Direction::Low } else { Direction::High };
            UserQuestion::new(group_attrs.to_vec(), AggFunc::Count, None, tuple, agg_value, dir)
        })
        .collect()
}

fn assert_identical(label: &str, qi: usize, reference: &[Explanation], got: &[Explanation]) {
    assert_eq!(reference.len(), got.len(), "{label}: question {qi}: lengths differ");
    for (j, (a, b)) in reference.iter().zip(got).enumerate() {
        assert_eq!(a.key(), b.key(), "{label}: question {qi}: rank {j} candidate differs");
        assert!(
            (a.score - b.score).abs() < SCORE_TOL,
            "{label}: question {qi}: rank {j} score {} vs {}",
            a.score,
            b.score
        );
        assert_eq!(a.pattern_idx, b.pattern_idx, "{label}: question {qi}: rank {j} pattern");
    }
}

/// Mine in memory, snapshot to disk, reload, and prove both handles
/// answer identically — sequentially and through the service.
fn run_snapshot_matrix(
    label: &str,
    rel: Relation,
    mcfg: &MiningConfig,
    questions: Vec<UserQuestion>,
) {
    let store = ArpMiner.mine(&rel, mcfg).expect("mining").store;
    assert!(!store.is_empty(), "{label}: mining found no patterns");

    let dir = std::env::temp_dir().join(format!("cape-snapdiff-{}-{label}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("store.cape");
    snapshot::save_snapshot(&path, rel.schema(), mcfg, &store).expect("save");

    let memory = PatternStoreHandle::new(rel.clone(), store);
    let loaded = snapshot::load_snapshot(&path, &rel).expect("load");
    let durable = PatternStoreHandle::new(rel, loaded.store);
    assert_eq!(memory.store().len(), durable.store().len(), "{label}: store size changed");

    let cfg = ExplainConfig::default_for(memory.relation(), TOP_K);
    let reference: Vec<Vec<Explanation>> =
        questions.iter().map(|q| OptimizedExplainer.explain(memory.store(), q, &cfg).0).collect();
    let answered = reference.iter().filter(|r| !r.is_empty()).count();
    assert!(answered > 0, "{label}: no question produced any explanation — suite is vacuous");

    // Sequential over the reloaded store.
    for (i, q) in questions.iter().enumerate() {
        let (got, _) = OptimizedExplainer.explain(durable.store(), q, &cfg);
        assert_identical(&format!("{label}/reloaded-sequential"), i, &reference[i], &got);
    }

    // Concurrent service built from the snapshot, 1 and 4 workers.
    for threads in [1, 4] {
        let service = ExplainService::start(durable.clone(), ServeConfig::with_threads(threads));
        let responses = service
            .batch(questions.iter().map(|q| ExplainRequest::new(q.clone(), TOP_K)).collect());
        for (i, resp) in responses.iter().enumerate() {
            assert!(!resp.partial);
            assert_identical(
                &format!("{label}/reloaded-service-{threads}t"),
                i,
                &reference[i],
                &resp.explanations,
            );
        }
    }

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn dblp_snapshot_roundtrip_is_bit_identical() {
    let rel = cape_datagen::dblp::generate(&cape_datagen::dblp::DblpConfig::with_rows(6000));
    let mut mcfg = MiningConfig {
        thresholds: cape_core::config::Thresholds::new(0.15, 4, 0.3, 3),
        psi: 3,
        ..MiningConfig::default()
    };
    mcfg.exclude = vec![cape_datagen::dblp::attrs::PUBID];
    let questions = question_grid(
        &rel,
        &[
            cape_datagen::dblp::attrs::AUTHOR,
            cape_datagen::dblp::attrs::YEAR,
            cape_datagen::dblp::attrs::VENUE,
        ],
        QUESTIONS_PER_DATASET,
    );
    run_snapshot_matrix("dblp", rel, &mcfg, questions);
}

#[test]
fn crime_snapshot_roundtrip_is_bit_identical() {
    let rel = cape_datagen::crime::generate(&cape_datagen::crime::CrimeConfig::with_rows(6000));
    let mcfg = MiningConfig {
        thresholds: cape_core::config::Thresholds::new(0.15, 4, 0.3, 3),
        psi: 3,
        ..MiningConfig::default()
    };
    let questions = question_grid(
        &rel,
        &[
            cape_datagen::crime::attrs::PRIMARY_TYPE,
            cape_datagen::crime::attrs::COMMUNITY,
            cape_datagen::crime::attrs::YEAR,
        ],
        QUESTIONS_PER_DATASET,
    );
    run_snapshot_matrix("crime", rel, &mcfg, questions);
}

/// A snapshot written for one schema must refuse to serve a different
/// relation — the read-only serve path surfaces the typed error.
#[test]
fn snapshot_for_wrong_relation_is_rejected_at_service_construction() {
    let rel = cape_datagen::dblp::generate(&cape_datagen::dblp::DblpConfig::with_rows(1000));
    let mcfg = MiningConfig::default();
    let store = ArpMiner.mine(&rel, &mcfg).expect("mining").store;
    let dir = std::env::temp_dir().join(format!("cape-snapdiff-wrong-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("store.cape");
    snapshot::save_snapshot(&path, rel.schema(), &mcfg, &store).expect("save");

    let other = cape_datagen::crime::generate(&cape_datagen::crime::CrimeConfig::with_rows(100));
    match snapshot::load_snapshot(&path, &other)
        .map(|loaded| PatternStoreHandle::new(other, loaded.store))
    {
        Err(snapshot::SnapshotError::SchemaMismatch { .. }) => {}
        other => panic!("expected SchemaMismatch, got {other:?}"),
    }
    std::fs::remove_dir_all(&dir).ok();
}
