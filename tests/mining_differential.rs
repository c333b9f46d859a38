//! Mining differential suite: every optimized miner produces the pattern
//! store of the paper's NAIVE miner (Algorithms 3–4), the oracle.
//!
//! For each input (synthetic DBLP and Crime samples, a repetitive
//! relation whose group sets are much smaller than the base relation,
//! and edge relations with zero rows or an all-NULL float column),
//! assert that
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
//! absorbing float summation-order differences between the batched fit
//! kernels and NAIVE's per-fragment queries.
//!
//! A tolerance cannot absorb a hold decision, so more inputs put a
//! fragment's GoF within a few ulps of θ and shuffle its rows: every
//! path must keep the same locals in every order. One more test checks
//! that the miners issue the paper's queries (§4.1).

use cape::core::config::{AggSelection, MiningConfig, Thresholds};
use cape::core::mining::candidates::{group_sets, splits_of};
use cape::core::mining::{ArpMiner, CubeMiner, Miner, NaiveMiner, ParallelMiner, ShareGrpMiner};
use cape::core::{Arp, IncrStore, PatternStore};
use cape::data::{AggFunc, Relation, Schema, Value, ValueType};
use cape::datagen::{crime, dblp, CrimeConfig, DblpConfig};
use cape::regress::{fit, Model, ModelType};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::{BTreeMap, BTreeSet};

const TOL: f64 = 1e-9;

fn dblp_sample() -> Relation {
    dblp::generate(&DblpConfig { target_rows: 1_500, ..DblpConfig::default() })
}

fn crime_sample() -> Relation {
    crime::generate(&CrimeConfig { target_rows: 1_000, ..CrimeConfig::default() })
}

/// A highly repetitive relation: the apex group-by (author × year ×
/// venue) has far fewer groups than the base has rows, so every group
/// set's fragments hold many grouped rows.
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
        // Sum/min/max over `year` beside count(*).
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
    assert_optimized_paths_match(&reference, rel, cfg, dataset);
    reference.len()
}

/// Every optimized miner and `IncrStore::build` produce `reference`.
fn assert_optimized_paths_match(
    reference: &[(String, ArpCanon)],
    rel: &Relation,
    cfg: &MiningConfig,
    dataset: &str,
) {
    let miners: Vec<(&str, Box<dyn Miner>)> = vec![
        ("SHARE-GRP", Box::new(ShareGrpMiner)),
        ("CUBE", Box::new(CubeMiner)),
        ("ARP-MINE", Box::new(ArpMiner)),
        ("PAR-1", Box::new(ParallelMiner { threads: 1 })),
        ("PAR-4", Box::new(ParallelMiner { threads: 4 })),
    ];
    for (name, miner) in miners {
        let out = miner.mine(rel, cfg).unwrap();
        assert_equiv(reference, &out.store, rel, &format!("{dataset}/{name}"));
    }
    let incr = IncrStore::build(rel.clone(), cfg.clone()).unwrap();
    assert_equiv(reference, &incr.store(), rel, &format!("{dataset}/INCR"));
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

/// The knife-edge fragment of Crime's `[community, location] : month
/// ~Lin~> count(*)`: month → count(*). Its R² is 3/20 in exact
/// arithmetic, and plain `fit` lands a few ulps either side of 0.15
/// depending on the order it receives the points in.
const KNIFE_EDGE: [(i64, usize); 9] =
    [(3, 1), (4, 1), (5, 2), (6, 1), (7, 2), (8, 3), (9, 2), (10, 1), (11, 2)];

/// An integer affine image of the knife-edge points: month → a·month + b
/// and count → c·count + d, with a, c ≥ 1. R² is invariant under both
/// maps, so every image keeps the exact R² at 3/20 while its rounding
/// differs.
#[derive(Debug, Clone, Copy)]
struct Affine {
    a: i64,
    b: i64,
    c: usize,
    d: usize,
}

/// The identity first, then images that stretch and shift both axes.
const KNIFE_EDGE_IMAGES: [Affine; 6] = [
    Affine { a: 1, b: 0, c: 1, d: 0 },
    Affine { a: 2, b: 0, c: 1, d: 0 },
    Affine { a: 1, b: 2000, c: 1, d: 0 },
    Affine { a: 1, b: 0, c: 3, d: 0 },
    Affine { a: 3, b: 1990, c: 2, d: 1 },
    Affine { a: 12, b: -7, c: 5, d: 4 },
];

/// The image `t` of the knife-edge fragment `k`, plus four fragments
/// whose counts rise linearly with the (mapped) month, so
/// `[frag] : month ~Lin~> count(*)` holds globally whatever `k` decides.
fn knife_edge_rows(t: Affine) -> Vec<Vec<Value>> {
    let mut rows = Vec::new();
    for (month, count) in KNIFE_EDGE {
        for _ in 0..t.c * count + t.d {
            rows.push(vec![Value::str("k"), Value::Int(t.a * month + t.b)]);
        }
    }
    for c in 0..4 {
        for month in 3..12i64 {
            for _ in 0..month - 2 {
                rows.push(vec![Value::str(format!("c{c}")), Value::Int(t.a * month + t.b)]);
            }
        }
    }
    rows
}

/// R² of plain `fit` over fragment `k`'s points in the order their
/// months first appear in `rows` — the order a per-fragment retrieval
/// query groups them in.
fn first_appearance_r2(rows: &[Vec<Value>]) -> f64 {
    let mut points: Vec<(i64, f64)> = Vec::new();
    for r in rows.iter().filter(|r| r[0] == Value::str("k")) {
        let Value::Int(m) = r[1] else { unreachable!("month is an Int") };
        match points.iter_mut().find(|(month, _)| *month == m) {
            Some((_, count)) => *count += 1.0,
            None => points.push((m, 1.0)),
        }
    }
    let xs: Vec<Vec<f64>> = points.iter().map(|&(m, _)| vec![m as f64]).collect();
    let ys: Vec<f64> = points.iter().map(|&(_, count)| count).collect();
    fit(ModelType::Lin, &xs, &ys).unwrap().gof
}

/// A GoF within a few ulps of θ is decided the same way by every path,
/// in every row order of every affine image: NAIVE, the batch miners,
/// `IncrStore::build`, and an `IncrStore` fed the rows as a base plus
/// appends all keep the same locals as NAIVE over the image's first
/// order.
#[test]
fn knife_edge_fit_is_decided_alike_in_every_order() {
    let schema = Schema::new([("frag", ValueType::Str), ("month", ValueType::Int)]).unwrap();
    let cfg = MiningConfig {
        thresholds: Thresholds::new(0.15, 4, 0.3, 2),
        psi: 2,
        ..MiningConfig::default()
    };
    let arp = Arp::new([0], [1], AggFunc::Count, None, ModelType::Lin);
    let mut plain_fit_holds = 0;
    for image in KNIFE_EDGE_IMAGES {
        let mut reference = None;
        for seed in 0..24u64 {
            let mut rows = knife_edge_rows(image);
            let mut rng = SmallRng::seed_from_u64(seed);
            for i in (1..rows.len()).rev() {
                rows.swap(i, rng.gen_range(0..=i));
            }
            if first_appearance_r2(&rows) >= cfg.thresholds.theta {
                plain_fit_holds += 1;
            }
            let rel = Relation::from_rows(schema.clone(), rows.clone()).unwrap();
            let label = format!("knife-edge {image:?}/seed {seed}");
            let naive = NaiveMiner.mine(&rel, &cfg).unwrap().store;
            assert!(naive.iter().any(|(_, p)| p.arp == arp), "{label}: the Lin pattern must hold");
            let reference = reference.get_or_insert_with(|| canonicalize(&naive, &rel));
            assert_equiv(reference, &naive, &rel, &format!("{label}/NAIVE"));
            assert_optimized_paths_match(reference, &rel, &cfg, &label);

            let cut = rows.len() / 2;
            let base = Relation::from_rows(schema.clone(), rows[..cut].to_vec()).unwrap();
            let mut incr = IncrStore::build(base, cfg.clone()).unwrap();
            incr.append(rows[cut..cut + 1].to_vec()).unwrap();
            incr.append(rows[cut + 1..].to_vec()).unwrap();
            assert_equiv(reference, &incr.store(), &rel, &format!("{label}/INCR-APPEND"));
        }
    }
    assert!(plain_fit_holds > 0, "no tested order puts plain fit on the holding side of θ");
}

/// The miners issue the paper's queries (§4.1): SHARE-GRP, ARP-MINE and
/// the parallel miner one group-by per group set, SHARE-GRP one sort per
/// `(F, V)` split, and CUBE one cube query for every grouping. The
/// group-bys run the packed group-id kernel.
#[test]
fn miners_issue_the_papers_queries() {
    let inputs = [
        ("crime", crime_sample(), crime_cfg()),
        ("repetitive", repetitive_sample(), repetitive_cfg()),
    ];
    for (dataset, rel, cfg) in inputs {
        let sets = group_sets(&cfg.candidate_attrs(&rel), cfg.psi);
        let splits: usize = sets.iter().map(|g| splits_of(g).len()).sum();
        let per_set: Vec<(&str, Box<dyn Miner>)> = vec![
            ("SHARE-GRP", Box::new(ShareGrpMiner)),
            ("ARP-MINE", Box::new(ArpMiner)),
            ("PAR-1", Box::new(ParallelMiner { threads: 1 })),
            ("PAR-4", Box::new(ParallelMiner { threads: 4 })),
        ];
        for (name, miner) in per_set {
            let out = miner.mine(&rel, &cfg).unwrap();
            let label = format!("{dataset}/{name}");
            assert_eq!(out.stats.group_queries, sets.len(), "{label}: one group-by per group set");
            let packed = out.telemetry.counter("data.group_keys.packed");
            assert!(packed > 0, "{label}: the packed group-id kernel never ran");
            if name == "SHARE-GRP" {
                assert_eq!(out.stats.sort_queries, splits, "{label}: one sort per split");
            }
        }
        let cube = CubeMiner.mine(&rel, &cfg).unwrap();
        assert_eq!(cube.stats.group_queries, 1, "{dataset}/CUBE: one cube query");
    }
}
