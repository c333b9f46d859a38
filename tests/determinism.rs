//! Determinism guarantees: identical inputs yield byte-identical mining
//! artifacts and identical explanations — the property that makes the
//! offline/online split and the benchmark comparisons trustworthy.

use cape::core::explain::TopKExplainer;
use cape::core::mining::{ArpMiner, Miner};
use cape::core::prelude::*;
use cape::data::{AggFunc, Value};
use cape::datagen::{dblp, DblpConfig};

fn mining_config() -> MiningConfig {
    MiningConfig {
        thresholds: Thresholds::new(0.15, 4, 0.3, 3),
        psi: 3,
        exclude: vec![dblp::attrs::PUBID],
        ..MiningConfig::default()
    }
}

#[test]
fn mining_twice_persists_identically() {
    let rel = dblp::generate(&DblpConfig::with_rows(3_000));
    let mut bytes = Vec::new();
    for _ in 0..2 {
        let cfg = mining_config();
        let store = ArpMiner.mine(&rel, &cfg).unwrap().store;
        bytes.push(cape::core::snapshot::encode_snapshot(rel.schema(), &cfg, &store));
    }
    assert_eq!(bytes[0], bytes[1], "persisted stores differ between runs");
}

#[test]
fn generation_mining_explanation_chain_is_deterministic() {
    let run = || {
        let rel = dblp::generate(&DblpConfig::with_rows(3_000));
        let store = ArpMiner.mine(&rel, &mining_config()).unwrap().store;
        let uq = UserQuestion::from_query(
            &rel,
            vec![dblp::attrs::AUTHOR, dblp::attrs::VENUE, dblp::attrs::YEAR],
            AggFunc::Count,
            None,
            vec![
                Value::str(cape::datagen::CASE_STUDY_AUTHOR),
                Value::str("SIGKDD"),
                Value::Int(2007),
            ],
            Direction::Low,
        )
        .unwrap();
        let cfg = ExplainConfig::default_for(&rel, 10);
        let (expls, _) = OptimizedExplainer.explain(&store, &uq, &cfg);
        expls.into_iter().map(|e| (e.tuple, e.score.to_bits())).collect::<Vec<_>>()
    };
    assert_eq!(run(), run(), "explanations differ between identical runs");
}

#[test]
fn store_describe_is_stable() {
    let rel = dblp::generate(&DblpConfig::with_rows(2_000));
    let a = ArpMiner.mine(&rel, &mining_config()).unwrap().store;
    let b = ArpMiner.mine(&rel, &mining_config()).unwrap().store;
    assert_eq!(a.describe(rel.schema()), b.describe(rel.schema()));
}
