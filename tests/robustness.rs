//! Failure-injection / robustness tests: nulls, degenerate relations,
//! pathological values — the pipeline must never panic and must keep its
//! invariants.

use cape::core::explain::TopKExplainer;
use cape::core::mining::{ArpMiner, CubeMiner, Miner, NaiveMiner, ShareGrpMiner};
use cape::core::prelude::*;
use cape::data::{AggFunc, Relation, Schema, Value, ValueType};

fn all_miners() -> Vec<Box<dyn Miner>> {
    vec![Box::new(NaiveMiner), Box::new(CubeMiner), Box::new(ShareGrpMiner), Box::new(ArpMiner)]
}

fn lenient() -> MiningConfig {
    MiningConfig { thresholds: Thresholds::new(0.1, 2, 0.1, 1), psi: 2, ..MiningConfig::default() }
}

#[test]
fn empty_relation_mines_nothing() {
    let schema = Schema::new([("a", ValueType::Str), ("x", ValueType::Int)]).unwrap();
    let rel = Relation::new(schema);
    for miner in all_miners() {
        let out = miner.mine(&rel, &lenient()).unwrap();
        assert!(out.store.is_empty(), "{} found patterns in nothing", miner.name());
    }
}

#[test]
fn single_row_relation() {
    let schema = Schema::new([("a", ValueType::Str), ("x", ValueType::Int)]).unwrap();
    let rel = Relation::from_rows(schema, vec![vec![Value::str("q"), Value::Int(1)]]).unwrap();
    for miner in all_miners() {
        let out = miner.mine(&rel, &lenient()).unwrap();
        // δ = 2 cannot be met by one distinct predictor value.
        assert!(out.store.is_empty(), "{}", miner.name());
    }
}

#[test]
fn null_heavy_columns_do_not_panic() {
    let schema =
        Schema::new([("a", ValueType::Str), ("x", ValueType::Int), ("m", ValueType::Float)])
            .unwrap();
    let mut rel = Relation::new(schema);
    for i in 0..60i64 {
        let a = if i % 7 == 0 { Value::Null } else { Value::str(format!("g{}", i % 3)) };
        let x = if i % 5 == 0 { Value::Null } else { Value::Int(i % 6) };
        let m = if i % 3 == 0 { Value::Null } else { Value::Float(i as f64) };
        rel.push_row(vec![a, x, m]).unwrap();
    }
    let mut cfg = lenient();
    cfg.aggs = AggSelection::Explicit(vec![
        (AggFunc::Count, None),
        (AggFunc::Sum, Some(2)),
        (AggFunc::Min, Some(2)),
    ]);
    for miner in all_miners() {
        let out = miner.mine(&rel, &cfg).unwrap();
        // Whatever was found must respect the invariants.
        for (_, p) in out.store.iter() {
            assert!(p.confidence >= 0.0 && p.confidence <= 1.0);
            for local in p.locals.values() {
                assert!(local.fitted.gof.is_finite());
            }
        }
    }
}

#[test]
fn all_null_predictor_column() {
    let schema = Schema::new([("a", ValueType::Str), ("x", ValueType::Int)]).unwrap();
    let mut rel = Relation::new(schema);
    for i in 0..30 {
        rel.push_row(vec![Value::str(format!("g{}", i % 3)), Value::Null]).unwrap();
    }
    for miner in all_miners() {
        let out = miner.mine(&rel, &lenient()).unwrap();
        // x as a *predictor* has a single (null) value per fragment —
        // support 1 < δ — so no pattern may use it in V. As a *partition*
        // attribute it is fine (one Null fragment over the other column).
        for (_, p) in out.store.iter() {
            assert!(!p.arp.v().contains(&1), "{}: {:?}", miner.name(), p.arp);
        }
    }
}

#[test]
fn constant_relation_yields_perfect_patterns() {
    let schema = Schema::new([("a", ValueType::Str), ("x", ValueType::Int)]).unwrap();
    let mut rel = Relation::new(schema);
    for g in 0..3 {
        for x in 0..5i64 {
            for _ in 0..4 {
                rel.push_row(vec![Value::str(format!("g{g}")), Value::Int(x)]).unwrap();
            }
        }
    }
    let out = ArpMiner.mine(&rel, &lenient()).unwrap();
    let (_, p) = out
        .store
        .iter()
        .find(|(_, p)| p.arp.f() == [0] && p.arp.model == cape::regress::ModelType::Const)
        .expect("constant pattern");
    for local in p.locals.values() {
        assert_eq!(local.fitted.gof, 1.0);
        assert_eq!(local.max_pos_dev, 0.0);
        assert_eq!(local.max_neg_dev, 0.0);
    }
}

#[test]
fn explanation_on_store_from_other_relation_is_graceful() {
    // A store mined on one relation, questioned with attributes that don't
    // line up semantically — must not panic, just produce nothing useful.
    let schema = Schema::new([("a", ValueType::Str), ("x", ValueType::Int)]).unwrap();
    let mut rel = Relation::new(schema);
    for g in 0..3 {
        for x in 0..6i64 {
            for _ in 0..3 {
                rel.push_row(vec![Value::str(format!("g{g}")), Value::Int(x)]).unwrap();
            }
        }
    }
    let store = ArpMiner.mine(&rel, &lenient()).unwrap().store;
    let uq = UserQuestion::new(
        vec![0, 1],
        AggFunc::Count,
        None,
        vec![Value::str("nonexistent"), Value::Int(999)],
        3.0,
        Direction::Low,
    );
    let cfg = ExplainConfig::default_for(&rel, 5);
    let (expls, _) = OptimizedExplainer.explain(&store, &uq, &cfg);
    // The fragment "nonexistent" holds no local pattern ⇒ nothing relevant.
    assert!(expls.is_empty());
}

#[test]
fn extreme_values_stay_finite() {
    let schema =
        Schema::new([("a", ValueType::Str), ("x", ValueType::Int), ("v", ValueType::Float)])
            .unwrap();
    let mut rel = Relation::new(schema);
    for g in 0..2 {
        for x in 0..6i64 {
            rel.push_row(vec![
                Value::str(format!("g{g}")),
                Value::Int(x),
                Value::Float(1e12 * (x as f64 + 1.0)),
            ])
            .unwrap();
            rel.push_row(vec![Value::str(format!("g{g}")), Value::Int(x), Value::Float(-1e12)])
                .unwrap();
        }
    }
    let mut cfg = lenient();
    cfg.aggs = AggSelection::Explicit(vec![(AggFunc::Sum, Some(2))]);
    let out = ArpMiner.mine(&rel, &cfg).unwrap();
    for (_, p) in out.store.iter() {
        assert!(p.max_pos_dev.is_finite());
        assert!(p.max_neg_dev.is_finite());
        for local in p.locals.values() {
            assert!(local.fitted.gof.is_finite());
            assert!(local.fitted.model.predict(&[3.0]).is_finite());
        }
    }
}

#[test]
fn zero_row_relation_snapshot_roundtrips() {
    // A zero-row relation still has a schema and a (possibly empty)
    // mined store; the durable snapshot must round-trip it cleanly.
    let schema = Schema::new([("a", ValueType::Str), ("x", ValueType::Int)]).unwrap();
    let rel = Relation::new(schema);
    let cfg = lenient();
    let store = ShareGrpMiner.mine(&rel, &cfg).unwrap().store;
    assert!(store.is_empty());
    let bytes = cape::core::snapshot::encode_snapshot(rel.schema(), &cfg, &store);
    let back = cape::core::snapshot::read_snapshot(&bytes, &rel).unwrap();
    assert!(back.store.is_empty());
    assert_eq!(back.config.psi, cfg.psi);
    // And the store loaded from the empty snapshot answers gracefully.
    let uq = UserQuestion::new(
        vec![0, 1],
        AggFunc::Count,
        None,
        vec![Value::str("q"), Value::Int(1)],
        1.0,
        Direction::High,
    );
    let ecfg = ExplainConfig::default_for(&rel, 5);
    let (expls, _) = OptimizedExplainer.explain(&back.store, &uq, &ecfg);
    assert!(expls.is_empty());
}

#[test]
fn all_null_group_by_key_fragments_survive_save_load() {
    // A partition column that is entirely Null yields fragments keyed by
    // Value::Null. Those Null keys must survive the binary snapshot and
    // produce bit-identical explanations after reload.
    let schema =
        Schema::new([("n", ValueType::Str), ("a", ValueType::Str), ("x", ValueType::Int)]).unwrap();
    let mut rel = Relation::new(schema);
    for i in 0..40i64 {
        rel.push_row(vec![
            Value::Null, // the group-by key column: all NULL
            Value::str(format!("g{}", i % 2)),
            Value::Int(i % 5),
        ])
        .unwrap();
    }
    let cfg = lenient();
    let store = ShareGrpMiner.mine(&rel, &cfg).unwrap().store;
    assert!(!store.is_empty());
    let null_keyed = store
        .iter()
        .flat_map(|(_, p)| p.locals.keys())
        .filter(|k| k.iter().any(|v| matches!(v, Value::Null)))
        .count();
    assert!(null_keyed > 0, "fixture must produce Null-keyed fragments");

    let bytes = cape::core::snapshot::encode_snapshot(rel.schema(), &cfg, &store);
    let back = cape::core::snapshot::read_snapshot(&bytes, &rel).unwrap();
    assert_eq!(back.store.len(), store.len());
    for ((_, p), (_, q)) in store.iter().zip(back.store.iter()) {
        assert_eq!(p.arp, q.arp);
        assert_eq!(p.locals, q.locals, "Null-keyed locals must survive the roundtrip");
    }

    // An explanation over a Null fragment is identical on both stores.
    let uq = UserQuestion::from_query(
        &rel,
        vec![0, 2],
        AggFunc::Count,
        None,
        vec![Value::Null, Value::Int(0)],
        Direction::High,
    )
    .unwrap();
    let ecfg = ExplainConfig::default_for(&rel, 5);
    let (a, _) = OptimizedExplainer.explain(&store, &uq, &ecfg);
    let (b, _) = OptimizedExplainer.explain(&back.store, &uq, &ecfg);
    assert_eq!(a.len(), b.len());
    for (ea, eb) in a.iter().zip(b.iter()) {
        assert!((ea.score - eb.score).abs() < 1e-9);
        assert_eq!(ea.tuple, eb.tuple);
    }
}

#[test]
fn unicode_and_weird_strings_survive_the_pipeline() {
    let schema = Schema::new([("a", ValueType::Str), ("x", ValueType::Int)]).unwrap();
    let weird = ["北京大学", "O'Reilly \"&\" Sons", "a,b|c%d", "  spaces  ", ""];
    let mut rel = Relation::new(schema);
    for (i, w) in weird.iter().enumerate() {
        for x in 0..5i64 {
            for _ in 0..(2 + i % 2) {
                rel.push_row(vec![Value::str(*w), Value::Int(x)]).unwrap();
            }
        }
    }
    let store = ArpMiner.mine(&rel, &lenient()).unwrap().store;
    assert!(!store.is_empty());
    // Persistence round-trips the weird keys.
    let bytes = cape::core::snapshot::encode_snapshot(rel.schema(), &lenient(), &store);
    let back = cape::core::snapshot::read_snapshot(&bytes, &rel).unwrap().store;
    assert_eq!(back.num_local_patterns(), store.num_local_patterns());
    // Explanation for one of the weird fragments works.
    let uq = UserQuestion::from_query(
        &rel,
        vec![0, 1],
        AggFunc::Count,
        None,
        vec![Value::str("北京大学"), Value::Int(0)],
        Direction::Low,
    )
    .unwrap();
    let cfg = ExplainConfig::default_for(&rel, 5);
    let (_expls, stats) = OptimizedExplainer.explain(&back, &uq, &cfg);
    assert!(stats.patterns_relevant > 0);
}
