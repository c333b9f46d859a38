//! Mining differential suite: every optimized miner produces the pattern
//! store of the paper's NAIVE miner (Algorithms 3–4), the oracle.
//!
//! For each input (synthetic DBLP and Crime samples, a repetitive
//! relation on which the lattice kernels fire, and edge relations with
//! zero rows or an all-NULL float column), assert that
//!
//! * `ShareGrpMiner` (one query per `F ∪ V`),
//! * `CubeMiner` (a single cube query),
//! * `ArpMiner` (ARP-MINE, the miner `cape mine` runs),
//! * `ParallelMiner { threads: 1 }` and `ParallelMiner { threads: 4 }`,
//! * `IncrStore::build` (the store `cape serve --store` rebuilds)
//!
//! produce the *same* ARP sequence as `NaiveMiner` — the order matters,
//! because top-k breaks exact score ties by pattern index — and that
//! every local pattern agrees on its fitted model parameters, goodness
//! of fit, support, and deviation bounds to 1e-9 — the tolerance
//! absorbing float summation-order differences between roll-up
//! derivation, the batched fit kernels, and NAIVE's per-fragment
//! queries.

use cape::core::config::{AggSelection, MiningConfig, Thresholds};
use cape::core::mining::candidates::group_sets;
use cape::core::mining::{ArpMiner, CubeMiner, Miner, NaiveMiner, ParallelMiner, ShareGrpMiner};
use cape::core::{IncrStore, PatternStore};
use cape::data::{Relation, Schema, Value, ValueType};
use cape::datagen::{crime, dblp, CrimeConfig, DblpConfig};
use cape::regress::Model;
use std::collections::{BTreeMap, BTreeSet};

const TOL: f64 = 1e-9;

fn dblp_sample() -> Relation {
    dblp::generate(&DblpConfig { target_rows: 1_500, ..DblpConfig::default() })
}

fn crime_sample() -> Relation {
    crime::generate(&CrimeConfig { target_rows: 1_000, ..CrimeConfig::default() })
}

/// A highly repetitive relation: the apex group-by (author × year ×
/// venue) has far fewer groups than the base has rows, so the roll-up
/// cost guard (parent ≤ 2/3 of the base row count) admits the apex as a
/// roll-up source and the lattice kernels genuinely fire.
fn repetitive_sample() -> Relation {
    let schema = Schema::new([
        ("author", ValueType::Str),
        ("year", ValueType::Int),
        ("venue", ValueType::Str),
        ("cites", ValueType::Int),
    ])
    .unwrap();
    let mut rel = Relation::new(schema);
    for a in 0..12 {
        for y in 0..8 {
            for p in 0..4 {
                rel.push_row(vec![
                    Value::str(format!("a{a}")),
                    Value::Int(2000 + y),
                    Value::str(if p % 2 == 0 { "KDD" } else { "ICDE" }),
                    Value::Int((a * 7 + y * 3 + p) % 11),
                ])
                .unwrap();
            }
        }
    }
    rel
}

/// Edge relations: `(k, x, y)` with zero rows, and with every `y` NULL.
fn edge_samples() -> [Relation; 2] {
    let schema =
        Schema::new([("k", ValueType::Str), ("x", ValueType::Int), ("y", ValueType::Float)])
            .unwrap();
    let empty = Relation::new(schema.clone());
    let mut all_null = Relation::new(schema);
    for k in ["a", "b", "c"] {
        for x in 0..4 {
            all_null.push_row(vec![Value::str(k), Value::Int(x), Value::Null]).unwrap();
        }
    }
    [empty, all_null]
}

fn repetitive_cfg() -> MiningConfig {
    MiningConfig {
        thresholds: Thresholds::new(0.15, 4, 0.3, 3),
        psi: 3,
        aggs: AggSelection::AllNumeric,
        ..MiningConfig::default()
    }
}

fn dblp_cfg() -> MiningConfig {
    MiningConfig {
        thresholds: Thresholds::new(0.15, 4, 0.3, 3),
        psi: 3,
        // Sum/min/max over `year` exercise the non-count roll-up
        // derivations inside the miners.
        aggs: AggSelection::AllNumeric,
        exclude: vec![dblp::attrs::PUBID],
        ..MiningConfig::default()
    }
}

fn crime_cfg() -> MiningConfig {
    MiningConfig {
        thresholds: Thresholds::new(0.15, 4, 0.3, 3),
        psi: 3,
        // Keep the first four attributes (the core of the paper's crime
        // queries) so the grid stays fast.
        exclude: (4..crime::N_ATTRS).collect(),
        ..MiningConfig::default()
    }
}

fn edge_cfg() -> MiningConfig {
    MiningConfig {
        thresholds: Thresholds::new(0.2, 2, 0.3, 1),
        psi: 2,
        // min/max over the all-NULL `y` are NULL in every group.
        aggs: AggSelection::AllNumeric,
        ..MiningConfig::default()
    }
}

fn model_params(m: &Model) -> Vec<f64> {
    match m {
        Model::Constant { beta } => vec![*beta],
        Model::Linear { intercept, coefs } => {
            let mut p = vec![*intercept];
            p.extend_from_slice(coefs);
            p
        }
        Model::Quadratic { intercept, lin, quad } => {
            let mut p = vec![*intercept];
            p.extend_from_slice(lin);
            p.extend_from_slice(quad);
            p
        }
    }
}

/// One local pattern, flattened to comparable numbers.
#[derive(Debug)]
struct LocalCanon {
    support: usize,
    n: usize,
    gof: f64,
    max_pos_dev: f64,
    max_neg_dev: f64,
    params: Vec<f64>,
}

/// One global pattern: confidence/support plus its locals keyed by the
/// partition tuple's debug rendering (deterministic for our `Value`).
#[derive(Debug)]
struct ArpCanon {
    confidence: f64,
    num_supported: usize,
    locals: BTreeMap<String, LocalCanon>,
}

/// The store's ARPs in store order, each keyed by its display form.
fn canonicalize(store: &PatternStore, rel: &Relation) -> Vec<(String, ArpCanon)> {
    let mut seq = Vec::new();
    let mut seen = BTreeSet::new();
    for (_, p) in store.iter() {
        let mut locals = BTreeMap::new();
        for (key, local) in &p.locals {
            locals.insert(
                format!("{key:?}"),
                LocalCanon {
                    support: local.support,
                    n: local.fitted.n,
                    gof: local.fitted.gof,
                    max_pos_dev: local.max_pos_dev,
                    max_neg_dev: local.max_neg_dev,
                    params: model_params(&local.fitted.model),
                },
            );
        }
        let arp = p.arp.display(rel.schema());
        assert!(seen.insert(arp.clone()), "duplicate ARP {arp} in one store");
        seq.push((
            arp,
            ArpCanon { confidence: p.confidence, num_supported: p.num_supported, locals },
        ));
    }
    seq
}

fn assert_close(a: f64, b: f64, what: &str) {
    assert!((a - b).abs() <= TOL, "{what}: {a} vs {b} (|diff| = {})", (a - b).abs());
}

fn assert_equiv(
    reference: &[(String, ArpCanon)],
    store: &PatternStore,
    rel: &Relation,
    label: &str,
) {
    let got = canonicalize(store, rel);
    let ref_keys: Vec<&String> = reference.iter().map(|(arp, _)| arp).collect();
    let got_keys: Vec<&String> = got.iter().map(|(arp, _)| arp).collect();
    assert_eq!(ref_keys, got_keys, "{label}: ARP sequences differ");
    for ((arp, a), (_, b)) in reference.iter().zip(&got) {
        assert_close(a.confidence, b.confidence, &format!("{label}/{arp}: confidence"));
        assert_eq!(a.num_supported, b.num_supported, "{label}/{arp}: num_supported");
        let la: Vec<&String> = a.locals.keys().collect();
        let lb: Vec<&String> = b.locals.keys().collect();
        assert_eq!(la, lb, "{label}/{arp}: local keys differ");
        for (key, x) in &a.locals {
            let y = &b.locals[key];
            let ctx = format!("{label}/{arp}/{key}");
            assert_eq!(x.support, y.support, "{ctx}: support");
            assert_eq!(x.n, y.n, "{ctx}: sample count");
            assert_close(x.gof, y.gof, &format!("{ctx}: gof"));
            assert_close(x.max_pos_dev, y.max_pos_dev, &format!("{ctx}: max_pos_dev"));
            assert_close(x.max_neg_dev, y.max_neg_dev, &format!("{ctx}: max_neg_dev"));
            assert_eq!(x.params.len(), y.params.len(), "{ctx}: model arity");
            for (i, (pa, pb)) in x.params.iter().zip(&y.params).enumerate() {
                assert_close(*pa, *pb, &format!("{ctx}: model param {i}"));
            }
        }
    }
}

/// Mine `rel` with NAIVE, every optimized miner and `IncrStore::build`,
/// assert they all agree, and return the number of ARPs NAIVE found.
fn run_grid(rel: &Relation, cfg: &MiningConfig, dataset: &str) -> usize {
    let reference = canonicalize(&NaiveMiner.mine(rel, cfg).unwrap().store, rel);
    let miners: Vec<(&str, Box<dyn Miner>)> = vec![
        ("SHARE-GRP", Box::new(ShareGrpMiner)),
        ("CUBE", Box::new(CubeMiner)),
        ("ARP-MINE", Box::new(ArpMiner)),
        ("PAR-1", Box::new(ParallelMiner { threads: 1 })),
        ("PAR-4", Box::new(ParallelMiner { threads: 4 })),
    ];
    for (name, miner) in miners {
        let out = miner.mine(rel, cfg).unwrap();
        assert_equiv(&reference, &out.store, rel, &format!("{dataset}/{name}"));
    }
    let incr = IncrStore::build(rel.clone(), cfg.clone()).unwrap();
    assert_equiv(&reference, &incr.store(), rel, &format!("{dataset}/INCR"));
    reference.len()
}

#[test]
fn dblp_five_way_differential() {
    let n = run_grid(&dblp_sample(), &dblp_cfg(), "dblp");
    assert!(n > 0, "dblp: no patterns mined — the grid proves nothing");
}

#[test]
fn crime_five_way_differential() {
    let n = run_grid(&crime_sample(), &crime_cfg(), "crime");
    assert!(n > 0, "crime: no patterns mined — the grid proves nothing");
}

#[test]
fn repetitive_five_way_differential() {
    let n = run_grid(&repetitive_sample(), &repetitive_cfg(), "repetitive");
    assert!(n > 0, "repetitive: no patterns mined — the grid proves nothing");
}

/// A zero-row relation mines nothing on every path; an all-NULL float
/// column neither panics nor diverges from NAIVE.
#[test]
fn edge_relations_match_naive() {
    let [empty, all_null] = edge_samples();
    assert_eq!(run_grid(&empty, &edge_cfg(), "zero-rows"), 0);
    let n = run_grid(&all_null, &edge_cfg(), "all-null");
    assert!(n > 0, "all-null: no patterns mined — the grid proves nothing");
}

/// The kernels must actually fire on this workload — otherwise the
/// differential grid never exercises roll-up derivation or cached sort
/// orders.
#[test]
fn kernels_are_exercised() {
    let rel = repetitive_sample();
    let cfg = repetitive_cfg();
    let out = ShareGrpMiner.mine(&rel, &cfg).unwrap();
    assert!(out.stats.rollup_hits > 0, "roll-up never fired");
    assert!(out.stats.sort_cache_hits > 0, "sort cache never hit");
    assert!(out.stats.scan_rows_saved > 0, "no scan rows saved");
    // Roll-up replaces base scans: fewer group queries than group sets.
    let sets = group_sets(&cfg.candidate_attrs(&rel), cfg.psi).len();
    assert!(out.stats.group_queries < sets, "{} queries for {sets} sets", out.stats.group_queries);
}
