//! Property tests of `IncrStore`'s refit: after every append — single-row
//! and bulk batches cut from random small relations whose measures hold
//! NULLs, NaN, −0.0 and repeated values — the maintained store must equal
//! a SHARE-GRP mine of the same rows: the same ARPs in the same order,
//! the same supports and confidences, and every local's fit, goodness of
//! fit and deviation bounds to 1e-9. It must also encode to the same
//! snapshot bytes as an `IncrStore` built over those rows, so the
//! kernel build and the append's row fold cannot drift apart.

use cape_core::config::AggSelection;
use cape_core::mining::{Miner, ShareGrpMiner};
use cape_core::snapshot::encode_snapshot;
use cape_core::store::PatternStore;
use cape_core::{Arp, IncrStore, LocalPattern, MiningConfig, Thresholds};
use cape_data::{AggFunc, Relation, Schema, Value, ValueType};
use cape_regress::{Model, ModelType};
use proptest::prelude::*;
use std::sync::Arc;

const TOL: f64 = 1e-9;

/// Column ids of the fixture schema.
const K: usize = 0;
const X: usize = 1;
const M: usize = 2;
const F: usize = 3;

fn schema() -> Schema {
    Schema::new([
        ("k", ValueType::Str),
        ("x", ValueType::Int),
        ("m", ValueType::Int),
        ("f", ValueType::Float),
    ])
    .unwrap()
}

/// Sum/min/max over both measures, Lin over the Int key `x`, and
/// thresholds low enough that small relations hold patterns.
fn cfg() -> MiningConfig {
    MiningConfig {
        thresholds: Thresholds::new(0.3, 2, 0.3, 1),
        psi: 2,
        aggs: AggSelection::AllNumeric,
        ..MiningConfig::default()
    }
}

fn row(k: &str, x: i64, m: Option<i64>, f: Option<f64>) -> Vec<Value> {
    vec![
        Value::str(k),
        Value::Int(x),
        m.map_or(Value::Null, Value::Int),
        f.map_or(Value::Null, Value::Float),
    ]
}

/// Int measure: ~25% NULL, else a small value (so repeats are common).
fn arb_m() -> impl Strategy<Value = Option<i64>> {
    (0u8..4, -3i64..6).prop_map(|(kind, v)| if kind == 0 { None } else { Some(v) })
}

/// Float measure: NULL, NaN, −0.0, or one of a few exactly representable
/// values, so sums of equal values stay exact and repeats are common.
fn arb_f() -> impl Strategy<Value = Option<f64>> {
    (0u8..12, 0usize..5).prop_map(|(kind, i)| match kind {
        0 | 1 => None,
        2 => Some(f64::NAN),
        3 => Some(-0.0),
        _ => Some([0.0, 0.5, 1.25, 2.0, -3.5][i]),
    })
}

fn arb_rows() -> impl Strategy<Value = Vec<Vec<Value>>> {
    let r = (0u8..3, 0i64..4, arb_m(), arb_f());
    collection::vec(r, 1..36).prop_map(|rows| {
        rows.into_iter().map(|(k, x, m, f)| row(["a", "b", "c"][k as usize], x, m, f)).collect()
    })
}

fn params(m: &Model) -> Vec<f64> {
    match m {
        Model::Constant { beta } => vec![*beta],
        Model::Linear { intercept, coefs } => {
            std::iter::once(*intercept).chain(coefs.clone()).collect()
        }
        Model::Quadratic { intercept, lin, quad } => {
            std::iter::once(*intercept).chain(lin.clone()).chain(quad.clone()).collect()
        }
    }
}

fn close(a: f64, b: f64) -> bool {
    (a - b).abs() <= TOL
}

/// The maintained store equals the mined one: ARP order, global
/// bookkeeping, and every local pattern to 1e-9.
fn assert_same_store(incr: &PatternStore, mined: &PatternStore, ctx: &str) {
    let arps = |s: &PatternStore| s.iter().map(|(_, p)| p.arp.clone()).collect::<Vec<_>>();
    assert_eq!(arps(incr), arps(mined), "{ctx}: ARP sequences differ");
    for ((_, a), (_, b)) in incr.iter().zip(mined.iter()) {
        let ctx = format!("{ctx}/{:?}", a.arp);
        assert_eq!(a.num_supported, b.num_supported, "{ctx}: num_supported");
        assert!(close(a.confidence, b.confidence), "{ctx}: confidence");
        assert_eq!(a.locals.len(), b.locals.len(), "{ctx}: local count");
        for (key, la) in &a.locals {
            let lb = b.locals.get(key).unwrap_or_else(|| panic!("{ctx}: missing local {key:?}"));
            assert_eq!(la.support, lb.support, "{ctx}/{key:?}: support");
            assert_eq!(la.fitted.n, lb.fitted.n, "{ctx}/{key:?}: n");
            assert!(close(la.fitted.gof, lb.fitted.gof), "{ctx}/{key:?}: gof");
            assert!(close(la.max_pos_dev, lb.max_pos_dev), "{ctx}/{key:?}: max_pos_dev");
            assert!(close(la.max_neg_dev, lb.max_neg_dev), "{ctx}/{key:?}: max_neg_dev");
            let (pa, pb) = (params(&la.fitted.model), params(&lb.fitted.model));
            assert_eq!(pa.len(), pb.len(), "{ctx}/{key:?}: model arity");
            assert!(
                pa.iter().zip(&pb).all(|(p, q)| close(*p, *q)),
                "{ctx}/{key:?}: {pa:?} vs {pb:?}"
            );
        }
    }
}

/// Build over `rows[..cut]`, append the rest in batches of `sizes`
/// (cycled), and compare against a mine of the rows so far after the
/// build and after every append — and, after every append, against the
/// snapshot bytes of a build over the rows so far. Returns the
/// maintained store after each step.
fn check_appends(rows: &[Vec<Value>], cut: usize, sizes: &[usize]) -> Vec<PatternStore> {
    let cfg = cfg();
    let rel = |n: usize| Relation::from_rows(schema(), rows[..n].iter().cloned()).unwrap();
    let mine = |n: usize| ShareGrpMiner.mine(&rel(n), &cfg).unwrap().store;
    let bytes = |store: &PatternStore| encode_snapshot(&schema(), &cfg, store);
    let mut incr = IncrStore::build(rel(cut), cfg.clone()).unwrap();
    assert_same_store(&incr.store(), &mine(cut), "build");
    let mut stores = vec![(*incr.store()).clone()];
    let mut at = cut;
    for &size in sizes.iter().cycle() {
        if at == rows.len() {
            break;
        }
        let end = (at + size).min(rows.len());
        incr.append(rows[at..end].to_vec()).unwrap();
        at = end;
        assert_same_store(&incr.store(), &mine(at), &format!("append up to row {at}"));
        let built = IncrStore::build(rel(at), cfg.clone()).unwrap();
        assert!(
            bytes(&incr.store()) == bytes(&built.store()),
            "append up to row {at}: the maintained store's bytes differ from a build's"
        );
        stores.push((*incr.store()).clone());
    }
    stores
}

/// The local of the `[k] : x ~model~> agg(attr)` instance on fragment
/// `k = key`, if the instance holds and the fragment holds in it.
fn local(
    store: &PatternStore,
    agg: AggFunc,
    agg_attr: Option<usize>,
    model: ModelType,
    key: &str,
) -> Option<LocalPattern> {
    let arp = Arp::new([K], [X], agg, agg_attr, model);
    let (_, p) = store.iter().find(|(_, p)| p.arp == arp)?;
    p.local(&[Value::str(key)]).cloned()
}

proptest! {
    #[test]
    fn appends_match_a_mine_of_the_same_rows(
        rows in arb_rows(),
        cut in 0usize..36,
        sizes in collection::vec(1usize..6, 1..4),
    ) {
        let cut = cut.min(rows.len());
        check_appends(&rows, cut, &sizes);
    }
}

/// A group whose measure was NULL gains a value: its min goes from NULL
/// to a number, and the fragment gains a usable point.
#[test]
fn null_aggregate_gains_a_value() {
    let mut rows = Vec::new();
    for x in 0..4 {
        rows.push(row("a", x, if x == 2 { None } else { Some(x + 1) }, Some(1.25)));
        rows.push(row("b", x, Some(2 * x), Some(0.5)));
    }
    rows.push(row("a", 2, Some(3), Some(1.25)));
    let stores = check_appends(&rows, rows.len() - 1, &[1]);
    let n =
        |s: &PatternStore| local(s, AggFunc::Min, Some(M), ModelType::Lin, "a").map(|l| l.fitted.n);
    assert_eq!(n(&stores[0]), Some(3));
    assert_eq!(n(&stores[1]), Some(4));
}

/// A NaN measure makes its group's sum NaN: the fragment's sum(f) fit
/// fails, on both paths, while the rest of the store is maintained.
#[test]
fn nan_sum_fits_nothing() {
    let mut rows = Vec::new();
    for x in 0..4 {
        rows.push(row("a", x, Some(1), Some(0.5 * x as f64)));
        rows.push(row("b", x, Some(1), Some(0.5 * x as f64)));
    }
    rows.push(row("a", 1, Some(1), Some(f64::NAN)));
    let stores = check_appends(&rows, rows.len() - 1, &[1]);
    let sum_f = |s: &PatternStore, key| local(s, AggFunc::Sum, Some(F), ModelType::Lin, key);
    assert!(sum_f(&stores[0], "a").is_some());
    assert!(sum_f(&stores[1], "a").is_none());
    assert!(sum_f(&stores[1], "b").is_some());
}

/// A fragment whose counts differ becomes constant after an append: its
/// Const and Lin fits become perfect (GoF exactly 1) on both paths.
#[test]
fn fragment_values_become_equal() {
    let mut rows = Vec::new();
    for x in 0..4 {
        let copies = if x == 1 { 1 } else { 2 };
        for _ in 0..copies {
            rows.push(row("a", x, Some(x), Some(-0.0)));
        }
        for _ in 0..3 {
            rows.push(row("b", x, Some(x), Some(1.25)));
        }
    }
    rows.push(row("a", 1, Some(1), Some(-0.0)));
    let stores = check_appends(&rows, rows.len() - 1, &[1]);
    let gof =
        |s: &PatternStore, model| local(s, AggFunc::Count, None, model, "a").map(|l| l.fitted.gof);
    let before = gof(&stores[0], ModelType::Const);
    assert!(before.is_none_or(|g| g < 1.0), "counts 2,1,2,2 are not constant: {before:?}");
    assert_eq!(gof(&stores[1], ModelType::Const), Some(1.0));
    assert_eq!(gof(&stores[1], ModelType::Lin), Some(1.0));
}

/// Every local pattern of a store, deep-copied, in a canonical order.
type DeepLocals = Vec<(Arp, Vec<(Vec<Value>, LocalPattern)>)>;

fn deep_locals(store: &PatternStore) -> DeepLocals {
    let instance = |(_, p): (usize, &cape_core::PatternInstance)| {
        let mut locals: Vec<(Vec<Value>, LocalPattern)> =
            p.locals.iter().map(|(k, l)| (k.to_vec(), (**l).clone())).collect();
        locals.sort_by(|a, b| a.0.cmp(&b.0));
        (p.arp.clone(), locals)
    };
    store.iter().map(instance).collect()
}

/// An append shares the epochs' untouched local patterns: in every
/// instance that holds before and after, each fragment the row does not
/// touch keeps the very same `Arc`, each touched one that holds gets a
/// new one, and the earlier epoch's store is left as it was.
#[test]
fn epochs_share_untouched_local_patterns() {
    let mut rows = Vec::new();
    for x in 0..4 {
        for k in ["a", "b", "c"] {
            rows.push(row(k, x, Some(x + 1), Some(1.25)));
        }
    }
    let base = Relation::from_rows(schema(), rows).unwrap();
    let mut incr = IncrStore::build(base, cfg()).unwrap();
    let s0 = incr.store();
    let before = deep_locals(&s0);
    let appended = row("a", 1, Some(3), Some(0.5));
    incr.append(vec![appended.clone()]).unwrap();
    let s1 = incr.store();

    let (mut shared, mut renewed) = (0usize, 0usize);
    for (_, p0) in s0.iter() {
        let Some((_, p1)) = s1.iter().find(|(_, p)| p.arp == p0.arp) else { continue };
        let touched: Vec<Value> = p0.arp.f().iter().map(|&a| appended[a].clone()).collect();
        for (key, l0) in &p0.locals {
            if **key == touched[..] {
                continue;
            }
            let l1 = p1.locals.get(key).unwrap_or_else(|| panic!("{:?}: lost {key:?}", p0.arp));
            assert!(Arc::ptr_eq(l0, l1), "{:?}: untouched {key:?} was copied", p0.arp);
            shared += 1;
        }
        if let Some(l1) = p1.locals.get(&touched[..]) {
            let kept = p0.locals.get(&touched[..]).is_some_and(|l0| Arc::ptr_eq(l0, l1));
            assert!(!kept, "{:?}: touched {touched:?} kept its Arc", p0.arp);
            renewed += 1;
        }
    }
    assert!(shared > 0, "no untouched local was shared");
    assert!(renewed > 0, "no touched local was refit");
    assert_eq!(deep_locals(&s0), before, "the earlier epoch changed");
}
