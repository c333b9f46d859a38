//! Property-based round-trip tests for the durable snapshot format:
//! arbitrary values survive the wire codec, arbitrary local-pattern maps
//! survive a full snapshot encode/decode, and float canonicalization
//! keeps the encoding byte-deterministic (no NaN payload or signed-zero
//! leakage into the file).

use cape_core::mining::{Miner, ShareGrpMiner};
use cape_core::snapshot::codec::{
    canonical_f64_bits, read_value, write_value, ByteReader, ByteWriter,
};
use cape_core::snapshot::{encode_snapshot, read_snapshot};
use cape_core::store::{LocalPattern, Locals, PatternStore};
use cape_core::{MiningConfig, Thresholds};
use cape_data::{Relation, Schema, Value, ValueType};
use cape_regress::{Fitted, Model};
use proptest::prelude::*;
use std::sync::Arc;

/// Build a `Value` from a generated spec tuple.
fn value_from_spec((tag, i, s): (u8, i64, u8)) -> Value {
    match tag % 4 {
        0 => Value::Null,
        1 => Value::Int(i),
        2 => Value::Float(i as f64 / 3.0),
        _ => Value::str(format!("s{} {{}}|,%\"{s}", s)),
    }
}

/// A small mined fixture whose store has at least one instance.
fn mined() -> (Relation, MiningConfig, PatternStore) {
    let schema = Schema::new([("a", ValueType::Str), ("x", ValueType::Int)]).unwrap();
    let mut rel = Relation::new(schema);
    for g in 0..3 {
        for x in 0..5i64 {
            for _ in 0..3 {
                rel.push_row(vec![Value::str(format!("g{g}")), Value::Int(x)]).unwrap();
            }
        }
    }
    let cfg = MiningConfig {
        thresholds: Thresholds::new(0.1, 2, 0.1, 1),
        psi: 2,
        ..MiningConfig::default()
    };
    let store = ShareGrpMiner.mine(&rel, &cfg).unwrap().store;
    assert!(!store.is_empty());
    (rel, cfg, store)
}

proptest! {
    /// Every `Value` the pipeline can produce survives the wire codec
    /// bit-for-bit (under `Value`'s canonical equality).
    #[test]
    fn value_codec_roundtrips(specs in collection::vec((0u8..4, -1000i64..1000, 0u8..50), 1..40)) {
        let values: Vec<Value> = specs.into_iter().map(value_from_spec).collect();
        let mut w = ByteWriter::new();
        for v in &values {
            write_value(&mut w, v);
        }
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        for v in &values {
            prop_assert_eq!(&read_value(&mut r).unwrap(), v);
        }
        prop_assert!(r.is_empty(), "codec left trailing bytes");
    }

    /// An arbitrary fragment→local-pattern map — including keys that do
    /// not occur in the relation's data — survives a full snapshot
    /// encode/decode with `Eq`-identical locals.
    #[test]
    fn arbitrary_locals_roundtrip(
        key_specs in collection::vec((0u8..4, -5i64..6, 0u8..4), 0..12),
        val_specs in collection::vec((0.0f64..100.0, 0.0f64..1.0, 1usize..40, 0.0f64..10.0), 12..13),
    ) {
        let (rel, cfg, mut store) = mined();
        let arity = store.get(0).unwrap().arp.f().len();
        let mut locals = Locals::new();
        for (i, spec) in key_specs.iter().enumerate() {
            // Cycle the spec into a key of the pattern's partition arity.
            let key: Vec<Value> = (0..arity)
                .map(|j| value_from_spec((spec.0.wrapping_add(j as u8), spec.1 + j as i64, spec.2)))
                .collect();
            let (beta, gof, support, dev) = val_specs[i % val_specs.len()];
            locals.insert(key.into(), Arc::new(LocalPattern {
                fitted: Fitted { model: Model::Constant { beta }, gof, n: support },
                support,
                max_pos_dev: dev,
                max_neg_dev: -dev,
            }));
        }
        let instances: Vec<_> = store.iter().map(|(_, p)| p.clone()).collect();
        let mut first = instances[0].clone();
        first.locals = locals.clone();
        store = PatternStore::from_instances(
            std::iter::once(first).chain(instances.into_iter().skip(1)).collect(),
        );

        let bytes = encode_snapshot(rel.schema(), &cfg, &store);
        let back = read_snapshot(&bytes, &rel).unwrap();
        prop_assert_eq!(back.store.len(), store.len());
        prop_assert_eq!(&back.store.get(0).unwrap().locals, &locals);
        for ((_, a), (_, b)) in store.iter().zip(back.store.iter()) {
            prop_assert_eq!(&a.arp, &b.arp);
            prop_assert_eq!(&a.locals, &b.locals);
            prop_assert_eq!(a.confidence.to_bits(), b.confidence.to_bits());
        }
        // Determinism: re-encoding the decoded store reproduces the file.
        prop_assert_eq!(&encode_snapshot(rel.schema(), &back.config, &back.store), &bytes);
    }
}

#[test]
fn nan_and_signed_zero_canonicalize_in_the_file() {
    // Two different NaN payloads and the two signed zeros must produce
    // byte-identical encodings, or snapshots stop being deterministic.
    let quiet = f64::NAN;
    let payload = f64::from_bits(f64::NAN.to_bits() ^ 0xdead);
    assert!(payload.is_nan());
    assert_eq!(canonical_f64_bits(quiet), canonical_f64_bits(payload));
    assert_eq!(canonical_f64_bits(0.0), canonical_f64_bits(-0.0));

    let encode = |x: f64| {
        let mut w = ByteWriter::new();
        write_value(&mut w, &Value::Float(x));
        w.into_bytes()
    };
    assert_eq!(encode(quiet), encode(payload));
    assert_eq!(encode(0.0), encode(-0.0));

    // And a NaN value still round-trips to a NaN (Value's canonical
    // equality treats all NaNs as equal).
    let bytes = encode(f64::NAN);
    let mut r = ByteReader::new(&bytes);
    assert_eq!(read_value(&mut r).unwrap(), Value::Float(f64::NAN));
}

#[test]
fn empty_store_roundtrip() {
    let schema = Schema::new([("a", ValueType::Str)]).unwrap();
    let rel = Relation::new(schema);
    let cfg = MiningConfig::default();
    let bytes = encode_snapshot(rel.schema(), &cfg, &PatternStore::new());
    let back = read_snapshot(&bytes, &rel).unwrap();
    assert!(back.store.is_empty());
}

#[test]
fn single_pattern_roundtrip() {
    let (rel, cfg, store) = mined();
    let one = PatternStore::from_instances(vec![store.get(0).unwrap().clone()]);
    let bytes = encode_snapshot(rel.schema(), &cfg, &one);
    let back = read_snapshot(&bytes, &rel).unwrap();
    assert_eq!(back.store.len(), 1);
    assert_eq!(back.store.get(0).unwrap().arp, one.get(0).unwrap().arp);
    assert_eq!(back.store.get(0).unwrap().locals, one.get(0).unwrap().locals);
}
