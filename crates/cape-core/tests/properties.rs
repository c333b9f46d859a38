//! Property-based tests of the CAPE core: candidate enumeration, the
//! top-k heap (including deterministic tie-breaking), the scoring
//! function's monotonicity, the distance model, miner agreement on
//! random data, and EXPL-GEN-OPT's column-code kernels (NORM, the row
//! distance and the offer) against Definitions 7, 9 and 10 computed on
//! values.

use cape_core::explain::{
    norm_factor, offer_candidates, relative_loss, score_value, summarize, AttrDistanceFn,
    DistanceModel, DrillResult, ExplainConfig, ExplainStats, Explanation, QuestionNorms,
    RawCandidate, SummarizeConfig, TopK,
};
use cape_core::group_data::GroupData;
use cape_core::mining::{splits_of, ArpMiner, Miner, ShareGrpMiner};
use cape_core::store::{PatternInstance, PatternStore};
use cape_core::{Arp, Direction, MiningConfig, Thresholds, UserQuestion};
use cape_data::{AggFunc, AttrId, Relation, Schema, Value, ValueType};
use cape_regress::ModelType;
use proptest::prelude::*;
use std::collections::{BTreeSet, HashMap};
use std::sync::Arc;

fn arb_relation(max_rows: usize) -> impl Strategy<Value = Relation> {
    let row = (0u8..3, 0i64..5, 0u8..3);
    proptest::collection::vec(row, 8..max_rows).prop_map(|rows| {
        let schema =
            Schema::new([("a", ValueType::Str), ("x", ValueType::Int), ("b", ValueType::Str)])
                .unwrap();
        Relation::from_rows(
            schema,
            rows.into_iter().map(|(a, x, b)| {
                vec![Value::str(format!("a{a}")), Value::Int(x), Value::str(format!("b{b}"))]
            }),
        )
        .unwrap()
    })
}

fn expl(refinement: usize, tag: i64, score: f64) -> Explanation {
    Explanation {
        pattern_idx: 0,
        refinement_idx: refinement,
        attrs: vec![0],
        tuple: vec![Value::Int(tag)],
        agg_value: 0.0,
        predicted: 0.0,
        deviation: 0.0,
        distance: 0.0,
        norm: 1.0,
        score,
    }
}

/// A mined store over a dense `a × x × b` cross product: every split of
/// the three attributes fits a constant count model perfectly, so the
/// refinement lattice contains `[a]: x`, `[b]: x`, and `[a, b]: x`.
/// Returns the store and the index of the `[a, b]: x` refinement.
fn lattice_store() -> (PatternStore, usize) {
    let schema =
        Schema::new([("a", ValueType::Str), ("x", ValueType::Int), ("b", ValueType::Str)]).unwrap();
    let mut rel = Relation::new(schema);
    for a in 0..3u8 {
        for x in 0..6i64 {
            for b in 0..4u8 {
                for _ in 0..2 {
                    rel.push_row(vec![
                        Value::str(format!("a{a}")),
                        Value::Int(x),
                        Value::str(format!("b{b}")),
                    ])
                    .unwrap();
                }
            }
        }
    }
    let cfg = MiningConfig {
        thresholds: Thresholds::new(0.0, 2, 0.0, 1),
        psi: 3,
        ..MiningConfig::default()
    };
    let store = ArpMiner.mine(&rel, &cfg).unwrap().store;
    let ridx = store
        .iter()
        .find(|(_, p)| p.arp.f() == [0, 2] && p.arp.v() == [1])
        .map(|(i, _)| i)
        .expect("[a,b]: x must be mined");
    assert!(
        store.iter().any(|(_, p)| p.arp.f() == [0] && p.arp.v() == [1]),
        "[a]: x ancestor must be mined"
    );
    (store, ridx)
}

/// A refined explanation over `[a, b]: x` for the summarizer properties.
fn refined_expl(ridx: usize, a: u8, b: u8, x: i64, score: f64) -> Explanation {
    Explanation {
        pattern_idx: 0,
        refinement_idx: ridx,
        attrs: vec![0, 2, 1],
        tuple: vec![Value::str(format!("a{a}")), Value::str(format!("b{b}")), Value::Int(x)],
        agg_value: 0.0,
        predicted: 0.0,
        deviation: 0.0,
        distance: 0.0,
        norm: 1.0,
        score,
    }
}

proptest! {
    #[test]
    fn splits_enumerate_all_partitions(n in 2usize..6) {
        let g: Vec<usize> = (0..n).collect();
        let splits = splits_of(&g);
        prop_assert_eq!(splits.len(), (1usize << n) - 2);
        let mut seen = BTreeSet::new();
        for s in &splits {
            prop_assert!(!s.f.is_empty() && !s.v.is_empty());
            let f: BTreeSet<usize> = s.f.iter().copied().collect();
            let v: BTreeSet<usize> = s.v.iter().copied().collect();
            prop_assert!(f.is_disjoint(&v));
            let mut all: Vec<usize> = f.union(&v).copied().collect();
            all.sort_unstable();
            prop_assert_eq!(&all, &g);
            prop_assert!(seen.insert(s.f.clone()), "duplicate split");
        }
    }

    #[test]
    fn topk_matches_sorted_reference(
        scores in proptest::collection::vec(0.0f64..100.0, 0..60),
        k in 1usize..10,
    ) {
        let mut tk = TopK::new(k);
        for (i, &s) in scores.iter().enumerate() {
            tk.offer(expl(0, i as i64, s));
        }
        let got: Vec<f64> = tk.into_sorted_vec().iter().map(|e| e.score).collect();
        let mut expect = scores.clone();
        expect.sort_by(|a, b| b.total_cmp(a));
        expect.truncate(k);
        prop_assert_eq!(got.len(), expect.len());
        for (g, e) in got.iter().zip(&expect) {
            prop_assert_eq!(g, e);
        }
    }

    #[test]
    fn topk_dedupes_to_max_per_key(
        scores in proptest::collection::vec((0i64..5, 0.0f64..100.0), 0..60),
    ) {
        let mut tk = TopK::new(50);
        for &(tag, s) in &scores {
            tk.offer(expl(1, tag, s));
        }
        let got = tk.into_sorted_vec();
        // One survivor per distinct tag, carrying the max score.
        use std::collections::HashMap;
        let mut best: HashMap<i64, f64> = HashMap::new();
        for &(tag, s) in &scores {
            let e = best.entry(tag).or_insert(f64::NEG_INFINITY);
            if s > *e { *e = s; }
        }
        prop_assert_eq!(got.len(), best.len());
        for e in &got {
            let tag = e.tuple[0].as_i64().unwrap();
            prop_assert_eq!(e.score, best[&tag]);
        }
    }

    #[test]
    fn distance_is_a_semimetric(
        v1 in 0i64..20, v2 in 0i64..20, s1 in 0u8..4, s2 in 0u8..4,
    ) {
        let schema = Schema::new([("s", ValueType::Str), ("n", ValueType::Int)]).unwrap();
        let mut rel = Relation::new(schema);
        for n in 0..20 {
            rel.push_row(vec![Value::str("x"), Value::Int(n)]).unwrap();
        }
        let dm = DistanceModel::default_for(&rel);
        let t1 = [Value::str(format!("s{s1}")), Value::Int(v1)];
        let t2 = [Value::str(format!("s{s2}")), Value::Int(v2)];
        let d12 = dm.tuple_distance(&[0, 1], &t1, &[0, 1], &t2);
        let d21 = dm.tuple_distance(&[0, 1], &t2, &[0, 1], &t1);
        prop_assert!((d12 - d21).abs() < 1e-12, "asymmetric");
        prop_assert!((0.0..=1.0 + 1e-12).contains(&d12));
        if s1 == s2 && v1 == v2 {
            prop_assert_eq!(d12, 0.0);
        }
        // Lower bound never exceeds the actual distance.
        let lb = dm.lower_bound(&[0, 1], &[1]);
        let cross = dm.tuple_distance(&[0, 1], &t1, &[1], &t2[1..]);
        prop_assert!(lb <= cross + 1e-12);
    }

    /// The surviving top-k set is a pure function of the candidate *set*:
    /// any insertion order — including heavy score ties from quantized
    /// scores — keeps exactly the k best candidates under the total order
    /// (score desc, then refinement, then tuple).
    #[test]
    fn topk_survivors_are_order_independent(
        entries in proptest::collection::vec((0usize..3, 0i64..8, 0u8..4), 1..40),
        priorities in proptest::collection::vec(0u32..1000, 40..41),
        k in 1usize..8,
    ) {
        // Quantized scores force ties; (refinement, tag) pairs collide too.
        let candidates: Vec<Explanation> = entries
            .iter()
            .map(|&(r, tag, q)| expl(r, tag, f64::from(q)))
            .collect();

        // Reference: dedup each key to its max score, then apply the
        // documented total order and truncate to k.
        use std::collections::HashMap;
        let mut best: HashMap<(usize, i64), f64> = HashMap::new();
        for &(r, tag, q) in &entries {
            let e = best.entry((r, tag)).or_insert(f64::NEG_INFINITY);
            if f64::from(q) > *e { *e = f64::from(q); }
        }
        let mut expect: Vec<((usize, i64), f64)> = best.into_iter().collect();
        expect.sort_by(|a, b| b.1.total_cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        expect.truncate(k);

        // A generated permutation of the insertion order.
        let mut order: Vec<usize> = (0..candidates.len()).collect();
        order.sort_by_key(|&i| (priorities[i % priorities.len()], i));

        for ord in [&(0..candidates.len()).collect::<Vec<_>>(), &order] {
            let mut tk = TopK::new(k);
            for &i in ord {
                tk.offer(candidates[i].clone());
            }
            let got: Vec<((usize, i64), f64)> = tk
                .into_sorted_vec()
                .iter()
                .map(|e| ((e.refinement_idx, e.tuple[0].as_i64().unwrap()), e.score))
                .collect();
            prop_assert_eq!(&got, &expect, "insertion order changed the survivors");
        }
    }

    /// Definition 10: the score grows strictly with the counterbalancing
    /// deviation and shrinks strictly as the explanation tuple moves away
    /// from the question tuple. Holds for both question directions.
    #[test]
    fn score_monotone_in_deviation_antimonotone_in_distance(
        dev in 0.01f64..50.0,
        bump in 0.01f64..10.0,
        dist in 0.0f64..5.0,
        step in 0.01f64..5.0,
        norm in 0.1f64..20.0,
        low in 0u8..2,
    ) {
        // A Low question counterbalances with positive deviations, a High
        // question with negative ones; the isLow factor flips the sign
        // back so the score stays positive either way.
        let is_low = if low == 0 { 1.0 } else { -1.0 };
        let base = score_value(is_low * dev, is_low, dist, norm);
        prop_assert!(base > 0.0);

        let more_dev = score_value(is_low * (dev + bump), is_low, dist, norm);
        prop_assert!(
            more_dev > base,
            "larger deviation must score higher: {} vs {}", more_dev, base
        );

        let farther = score_value(is_low * dev, is_low, dist + step, norm);
        prop_assert!(
            farther < base,
            "farther tuple must score lower: {} vs {}", farther, base
        );
    }

    /// Summarization is a lossless partition of the top-k: every tuple
    /// lands in exactly one summary, every member satisfies its summary
    /// fragment's predicate (subsumption in the lattice), the per-summary
    /// relative score loss respects the bound, and summaries emit in
    /// best-member-score order.
    #[test]
    fn summaries_partition_cover_and_respect_loss(
        entries in proptest::collection::vec((0u8..3, 0u8..4, 0i64..6, 0u8..5), 1..40),
        k in 1usize..10,
        min_members in 1usize..4,
        max_loss in 0.0f64..1.0,
    ) {
        let (store, ridx) = lattice_store();
        let mut tk = TopK::new(k);
        for &(a, b, x, q) in &entries {
            tk.offer(refined_expl(ridx, a, b, x, f64::from(q)));
        }
        let expls = tk.into_sorted_vec();
        let cfg = SummarizeConfig { min_members, max_loss };
        let summaries = summarize(&expls, &store, &cfg);

        // Partition: each index exactly once, none dropped.
        let mut seen = BTreeSet::new();
        for s in &summaries {
            for &m in &s.members {
                prop_assert!(m < expls.len(), "member out of range");
                prop_assert!(seen.insert(m), "tuple {m} in two summaries");
            }
        }
        prop_assert_eq!(seen.len(), expls.len(), "summaries dropped a tuple");

        for s in &summaries {
            // Subsumption: the fragment predicate holds for every member.
            for &m in &s.members {
                prop_assert!(
                    s.fragment.covers(&expls[m].attrs, &expls[m].tuple),
                    "member {m} not covered by its summary fragment"
                );
            }
            // Score range is the members' actual best/worst, and the
            // representative is the best member.
            let best = s.members.iter().map(|&m| expls[m].score).fold(f64::MIN, f64::max);
            let worst = s.members.iter().map(|&m| expls[m].score).fold(f64::MAX, f64::min);
            prop_assert_eq!(s.score_range, (best, worst));
            prop_assert_eq!(expls[s.representative].score, best);
            // Loss bound: merged summaries stay within max_loss.
            if s.members.len() > 1 {
                prop_assert!(
                    relative_loss(best, worst) <= max_loss + 1e-12,
                    "loss {} exceeds bound {max_loss}", relative_loss(best, worst)
                );
            }
        }

        // Emission order: best member score descending.
        for pair in summaries.windows(2) {
            prop_assert!(pair[0].score_range.0 >= pair[1].score_range.0);
        }
    }

    /// Summaries are a pure function of the candidate *set*: permuting
    /// the insertion order into the top-k heap (with heavy forced ties
    /// from quantized scores) yields identical summaries.
    #[test]
    fn summaries_are_insertion_order_independent(
        entries in proptest::collection::vec((0u8..3, 0u8..4, 0i64..6, 0u8..4), 1..40),
        priorities in proptest::collection::vec(0u32..1000, 40..41),
        k in 1usize..8,
    ) {
        let (store, ridx) = lattice_store();
        let candidates: Vec<Explanation> = entries
            .iter()
            .map(|&(a, b, x, q)| refined_expl(ridx, a, b, x, f64::from(q)))
            .collect();
        let mut order: Vec<usize> = (0..candidates.len()).collect();
        order.sort_by_key(|&i| (priorities[i % priorities.len()], i));

        let cfg = SummarizeConfig::default();
        let mut outputs = Vec::new();
        for ord in [&(0..candidates.len()).collect::<Vec<_>>(), &order] {
            let mut tk = TopK::new(k);
            for &i in ord {
                tk.offer(candidates[i].clone());
            }
            outputs.push(summarize(&tk.into_sorted_vec(), &store, &cfg));
        }
        prop_assert_eq!(&outputs[0], &outputs[1], "insertion order changed the summaries");
    }

    #[test]
    fn miners_agree_on_random_relations(rel in arb_relation(80)) {
        let cfg = MiningConfig {
            thresholds: Thresholds::new(0.2, 2, 0.3, 1),
            psi: 3,
            ..MiningConfig::default()
        };
        let a = ArpMiner.mine(&rel, &cfg).unwrap();
        let b = ShareGrpMiner.mine(&rel, &cfg).unwrap();
        let sa: BTreeSet<String> =
            a.store.iter().map(|(_, p)| p.arp.display(rel.schema())).collect();
        let sb: BTreeSet<String> =
            b.store.iter().map(|(_, p)| p.arp.display(rel.schema())).collect();
        prop_assert_eq!(sa, sb);
    }

    #[test]
    fn mined_locals_respect_thresholds(rel in arb_relation(80)) {
        let th = Thresholds::new(0.3, 2, 0.4, 1);
        let cfg = MiningConfig { thresholds: th, psi: 2, ..MiningConfig::default() };
        let out = ArpMiner.mine(&rel, &cfg).unwrap();
        for (_, p) in out.store.iter() {
            prop_assert!(p.global_support() >= th.global_support);
            prop_assert!(p.confidence >= th.lambda - 1e-12);
            for local in p.locals.values() {
                prop_assert!(local.support >= th.delta);
                prop_assert!(local.fitted.gof >= th.theta);
                prop_assert!(local.max_pos_dev >= 0.0);
                prop_assert!(local.max_neg_dev <= 0.0);
            }
            prop_assert!(p.max_pos_dev >= 0.0);
            prop_assert!(p.max_neg_dev <= 0.0);
        }
    }
}

proptest! {
    /// The refinement table, kept per pattern shape `(V, agg, A)`, lists
    /// exactly the brute-force refinements (Definition 6) of every
    /// pattern, ascending, over random ARP sets whose shapes often repeat.
    #[test]
    fn refinement_table_matches_brute_force(
        arps in proptest::collection::vec((1u8..8, 0usize..3, 0usize..3, 0usize..2), 0..40),
    ) {
        let (mined, _) = lattice_store();
        let template = mined.get(0).unwrap();
        let instances = arps.iter().map(|&(f_mask, v, agg, model)| {
            let f = (0..3).filter(|a| (f_mask >> a) & 1 == 1);
            let v = [vec![3], vec![4], vec![3, 4]][v].clone();
            let (agg, attr) =
                [(AggFunc::Count, None), (AggFunc::Sum, Some(5)), (AggFunc::Max, Some(5))][agg];
            let model = [ModelType::Const, ModelType::Lin][model];
            PatternInstance { arp: Arp::new(f, v, agg, attr, model), ..template.clone() }
        });
        let store = PatternStore::from_instances(instances.collect());
        for (i, p) in store.iter() {
            let want: Vec<usize> =
                store.iter().filter(|(_, q)| p.arp.is_refined_by(&q.arp)).map(|(j, _)| j).collect();
            prop_assert_eq!(store.refinements_of(i), &want[..], "pattern {}", i);
        }
    }
}

/// Cells of the grouped relations the kernel properties build. Each
/// attribute draws from a small pool, so keys repeat and questions hit;
/// the pools hold NULL, NaN, −0.0 and, in `m`, values of three types,
/// which turn its column into a `Mixed` one.
fn cell(attr: usize, code: u8) -> Value {
    match (attr, code % 5) {
        (_, 0) => Value::Null,
        (0, c) => Value::str(["s1", "s2", "s3", "s4"][c as usize - 1]),
        (1, c) => Value::Int(i64::from(c)),
        (2, c) => Value::Float([f64::NAN, -0.0, 0.0, 2.0][c as usize - 1]),
        (3, c) => [Value::Int(1), Value::str("one"), Value::Float(1.5), Value::Int(2)]
            [c as usize - 1]
            .clone(),
        (4, c) => Value::Int([25, 26, 77, 99][c as usize - 1]),
        (_, c) => Value::str(["north", "south", "east", "west"][c as usize - 1]),
    }
}

/// A question value for an attribute whose cell in some row is `v`:
/// `v` itself, its cross-type twin (`Int(2)` ↔ `Float(2.0)`, `0.0` ↔
/// `−0.0`, another NaN), NULL, or a value no row holds (a string the
/// dictionary lacks).
fn question_cell(v: &Value, code: u8) -> Value {
    match code % 6 {
        0..=2 => v.clone(),
        3 => match v {
            Value::Int(i) => Value::Float(*i as f64),
            Value::Float(f) if f.is_nan() => Value::Float(-f64::NAN),
            Value::Float(f) if *f == 0.0 => Value::Float(-*f),
            Value::Float(f) if f.fract() == 0.0 => Value::Int(*f as i64),
            other => other.clone(),
        },
        4 => Value::Null,
        _ => match v {
            Value::Str(_) => Value::str("absent"),
            _ => Value::Int(1_000),
        },
    }
}

/// A grouped relation over base attributes `group_attrs` with the
/// aggregates `count(*)` and `sum(#9)` and the trailing `__rows`, one row
/// per code tuple. Keys may repeat: a hand-built relation checks that
/// NORM reads the *first* matching row.
fn grouped(group_attrs: &[AttrId], rows: &[(Vec<u8>, i64)]) -> Arc<GroupData> {
    let types = [
        ValueType::Str,
        ValueType::Int,
        ValueType::Float,
        ValueType::Int,
        ValueType::Int,
        ValueType::Str,
    ];
    let mut cols: Vec<(String, ValueType)> =
        group_attrs.iter().map(|&a| (format!("g{a}"), types[a])).collect();
    cols.extend([
        ("count".to_string(), ValueType::Int),
        ("total".to_string(), ValueType::Float),
        ("__rows".to_string(), ValueType::Int),
    ]);
    let mut rel = Relation::new(Schema::new(cols).unwrap());
    // One string in `m` degrades its column to `Mixed`.
    if group_attrs.contains(&3) {
        let row = group_attrs.iter().map(|&a| if a == 3 { cell(3, 2) } else { Value::Null });
        rel.push_row(row.chain([Value::Int(7), Value::Float(-3.5), Value::Int(7)]).collect())
            .unwrap();
    }
    for (codes, n) in rows {
        let key = group_attrs.iter().zip(codes).map(|(&a, &c)| cell(a, c));
        let total = if n % 3 == 0 { Value::Null } else { Value::Float(*n as f64 * -1.25) };
        rel.push_row(key.chain([Value::Int(*n), total, Value::Int(*n)]).collect()).unwrap();
    }
    let aggs = [(AggFunc::Count, None), (AggFunc::Sum, Some(9))];
    Arc::new(GroupData::from_parts(group_attrs.to_vec(), rel, &aggs))
}

/// A pattern over `data`; NORM reads only its shape and grouped data.
fn norm_pattern(f: &[AttrId], v: &[AttrId], sum: bool, data: &Arc<GroupData>) -> PatternInstance {
    let (agg, attr) = if sum { (AggFunc::Sum, Some(9)) } else { (AggFunc::Count, None) };
    PatternInstance {
        arp: Arp::new(f.iter().copied(), v.iter().copied(), agg, attr, ModelType::Const),
        agg_col: data.agg_col(agg, attr).unwrap(),
        data: Arc::clone(data),
        locals: Default::default(),
        confidence: 1.0,
        num_supported: 0,
        max_pos_dev: 0.0,
        max_neg_dev: 0.0,
    }
}

proptest! {
    /// The NORM that EXPL-GEN-OPT uses ([`QuestionNorms`], one key-match
    /// search per grouped relation) equals Definition 10's cell-by-cell
    /// scan ([`norm_factor`]) bit for bit, for patterns that share a
    /// grouped relation and patterns that do not: over NULL keys, NaN and
    /// −0.0, a `Mixed` column, cross-type question values, strings the
    /// dictionary lacks, and groups absent at `P`'s granularity (1.0).
    #[test]
    fn question_norms_equal_the_literal_scan(
        wide in collection::vec((collection::vec(0u8..5, 4..5), 1i64..9), 0..24),
        narrow in collection::vec((collection::vec(0u8..5, 2..3), 1i64..9), 0..12),
        pick in 0usize..64,
        codes in collection::vec(0u8..6, 4..5),
    ) {
        let full = grouped(&[0, 1, 2, 3], &wide);
        let pair = grouped(&[1, 0], &narrow);
        let patterns = [
            norm_pattern(&[0], &[1, 2, 3], false, &full),
            norm_pattern(&[0, 3], &[1, 2], true, &full),
            norm_pattern(&[2], &[0, 1, 3], false, &full),
            norm_pattern(&[0], &[1], false, &pair),
            norm_pattern(&[1], &[0], true, &pair),
        ];
        // The question's tuple starts from a row of the wide relation, so
        // it often has a group there, then each value may change.
        let row: Vec<Value> = match wide.get(pick % wide.len().max(1)) {
            Some((c, _)) => (0..4).map(|a| cell(a, c[a])).collect(),
            None => vec![Value::Null; 4],
        };
        let group_attrs = vec![3, 1, 0, 2];
        let tuple = group_attrs.iter().zip(&codes).map(|(&a, &c)| question_cell(&row[a], c));
        let uq = UserQuestion::new(
            group_attrs.clone(), AggFunc::Count, None, tuple.collect(), 1.0, Direction::Low,
        );
        let mut norms = QuestionNorms::new(&uq);
        for p in patterns.iter().chain(&patterns) {
            let (kernel, literal) = (norms.norm(p), norm_factor(p, &uq));
            prop_assert_eq!(kernel.to_bits(), literal.to_bits(), "{:?}", p.arp);
        }
        // A value no row holds: the group is absent, NORM is 1.0.
        let mut absent = uq.clone();
        absent.tuple[2] = Value::str("absent");
        let mut norms = QuestionNorms::new(&absent);
        for p in &patterns {
            prop_assert_eq!(norms.norm(p).to_bits(), 1.0f64.to_bits());
            prop_assert_eq!(norm_factor(p, &absent).to_bits(), 1.0f64.to_bits());
        }
    }

    /// The distance EXPL-GEN-OPT computes from a grouped row's cells
    /// ([`DistanceModel::to_rows`]) equals [`DistanceModel::tuple_distance`]
    /// over the row's projection, bit for bit: `NumericScaled`, `Exact`
    /// and `Classes` attributes (on strings and on numbers), NULL cells, a
    /// `Mixed` column, zero weights, cross-type question values, and
    /// attributes present on one side only.
    #[test]
    fn row_distance_equals_tuple_distance(
        rows in collection::vec(collection::vec(0u8..5, 6..7), 1..16),
        weights in collection::vec((0u8..4, 0.05f64..2.0), 6..7),
        masks in (1u8..64, 1u8..64, 0usize..6, 0usize..6),
        picks in (0usize..16, collection::vec(0u8..6, 6..7)),
    ) {
        // Column j of the relation holds attribute (j + 2) % 6.
        let attr_of = |j: usize| (j + 2) % 6;
        let types = [ValueType::Str, ValueType::Int, ValueType::Float, ValueType::Int,
            ValueType::Int, ValueType::Str];
        let schema = Schema::new((0..6).map(|j| (format!("c{j}"), types[attr_of(j)]))).unwrap();
        let mut rel = Relation::new(schema);
        rel.push_row((0..6).map(|j| cell(attr_of(j), 2)).collect()).unwrap();
        for codes in &rows {
            rel.push_row((0..6).map(|j| cell(attr_of(j), codes[j])).collect()).unwrap();
        }
        let classes = |vals: &[Value], ids: &[u32]| -> HashMap<Value, u32> {
            vals.iter().cloned().zip(ids.iter().copied()).collect()
        };
        let fns = vec![
            AttrDistanceFn::Exact,
            AttrDistanceFn::NumericScaled { scale: 3.0 },
            AttrDistanceFn::NumericScaled { scale: 2.9 },
            AttrDistanceFn::Classes {
                classes: classes(&[Value::Int(1), Value::str("one"), Value::Float(1.5)], &[1, 1, 2]),
                within_class: 0.5,
            },
            AttrDistanceFn::Classes {
                classes: classes(&[Value::Int(25), Value::Int(26), Value::Int(77)], &[1, 1, 2]),
                within_class: 0.3,
            },
            AttrDistanceFn::Classes {
                classes: classes(&[Value::str("north"), Value::str("south")], &[4, 4]),
                within_class: 0.25,
            },
        ];
        // Zero weights are allowed, but not all of them. Weights drawn
        // from a continuous range, and scales that leave distances below
        // the cap of 1 with long mantissas, make a reordered sum or
        // product round differently.
        let mut w: Vec<f64> = weights.iter().map(|&(c, x)| if c == 0 { 0.0 } else { x }).collect();
        w[0] += 0.1;
        let dm = DistanceModel::new(w, fns);

        let (mask1, mask2, rot1, rot2) = masks;
        let subset = |mask: u8, rot: usize| -> Vec<AttrId> {
            (0..6).map(|i| (i + rot) % 6).filter(|a| (mask >> a) & 1 == 1).collect()
        };
        let (attrs1, attrs2) = (subset(mask1, rot1), subset(mask2, rot2));
        let cols2: Vec<usize> =
            attrs2.iter().map(|&a| (0..6).find(|&j| attr_of(j) == a).unwrap()).collect();
        let (pick, codes) = picks;
        let src = pick % rel.num_rows();
        let vals1: Vec<Value> = attrs1
            .iter()
            .map(|&a| {
                let j = (0..6).find(|&j| attr_of(j) == a).unwrap();
                question_cell(&rel.value(src, j), codes[a])
            })
            .collect();

        let rows_from = dm.to_rows(&attrs1, &vals1, &attrs2, &rel, &cols2);
        for i in 0..rel.num_rows() {
            let t2 = rel.row_project(i, &cols2);
            let literal = dm.tuple_distance(&attrs1, &vals1, &attrs2, &t2);
            prop_assert_eq!(rows_from.at(i).to_bits(), literal.to_bits(), "row {}", i);
        }
    }

    /// The offer ([`offer_candidates`]) tests condition 4b with the
    /// question's values compiled against the row's columns, scores each
    /// candidate from its row's cells, and builds a tuple only for a
    /// candidate that clears the top-k's threshold. Its top-k equals
    /// offering every candidate built with `row_project`, value equality
    /// and [`DistanceModel::tuple_distance`], bit for bit: `NumericScaled`,
    /// `Exact` and `Classes` attributes (on strings and on numbers), NULL
    /// cells, a `Mixed` column, repeated rows, zero weights, cross-type
    /// question values, attributes present on one side only, and
    /// questions over `P'`'s own schema, where 4b excludes the question's
    /// tuple.
    #[test]
    fn offer_matches_the_literal_offer(
        rows in collection::vec((collection::vec(0u8..5, 6..7), -4i64..5), 1..16),
        weights in collection::vec((0u8..4, 0.05f64..2.0), 6..7),
        shape in (0u8..64, 0usize..6, 1u8..64, 0usize..6, 0u8..2),
        picks in (0usize..16, collection::vec(0u8..6, 6..7), 0u8..2, 1usize..8, 0.0f64..4.0),
    ) {
        let (g_mask, g_rot, q_mask, q_rot, same_schema) = shape;
        let (pick, codes, low, k, norm) = picks;
        // `P'` over `G` (two or more attributes, in rotated order): `F'` is
        // its first, `V` the rest.
        let subset = |mask: u8, rot: usize| -> Vec<AttrId> {
            (0..6).map(|i| (i + rot) % 6).filter(|a| (mask >> a) & 1 == 1).collect()
        };
        let g_mask = g_mask | 1 << g_rot | 1 << ((g_rot + 1) % 6);
        let g = subset(g_mask, g_rot);
        let data = grouped(&g, &rows.iter().map(|(c, _)| (c.clone(), 1)).collect::<Vec<_>>());
        let p2 = norm_pattern(&g[..1], &g[1..], false, &data);
        let rel = &data.relation;

        let classes = |vals: &[Value], ids: &[u32]| -> HashMap<Value, u32> {
            vals.iter().cloned().zip(ids.iter().copied()).collect()
        };
        let fns = vec![
            AttrDistanceFn::Exact,
            AttrDistanceFn::NumericScaled { scale: 3.0 },
            AttrDistanceFn::NumericScaled { scale: 2.9 },
            AttrDistanceFn::Classes {
                classes: classes(&[Value::Int(1), Value::str("one"), Value::Float(1.5)], &[1, 1, 2]),
                within_class: 0.5,
            },
            AttrDistanceFn::Classes {
                classes: classes(&[Value::Int(25), Value::Int(26), Value::Int(77)], &[1, 1, 2]),
                within_class: 0.3,
            },
            AttrDistanceFn::Classes {
                classes: classes(&[Value::str("north"), Value::str("south")], &[4, 4]),
                within_class: 0.25,
            },
        ];
        // Zero weights are allowed, but not all of them. Weights drawn
        // from a continuous range, and scales that leave distances below
        // the cap of 1 with long mantissas, make a reordered sum or
        // product round differently.
        let mut w: Vec<f64> = weights.iter().map(|&(c, x)| if c == 0 { 0.0 } else { x }).collect();
        w[0] += 0.1;
        let cfg = ExplainConfig { k, distance: DistanceModel::new(w, fns) };

        // The question is over `G` itself (in another order) or over any
        // other set of attributes; its values start from one row's.
        let q_attrs = if same_schema == 1 { subset(g_mask, q_rot) } else { subset(q_mask, q_rot) };
        let src = pick % rel.num_rows();
        let tuple: Vec<Value> = q_attrs
            .iter()
            .map(|&a| match g.iter().position(|&b| b == a) {
                Some(j) => question_cell(&rel.value(src, j), codes[a]),
                None => cell(a, codes[a] % 5),
            })
            .collect();
        let dir = if low == 1 { Direction::Low } else { Direction::High };
        let uq = UserQuestion::new(q_attrs.clone(), AggFunc::Count, None, tuple, 1.0, dir);

        // One candidate per row; the aggregate names the row, and both
        // deviation signs (and zero) occur.
        let mut attrs: Vec<AttrId> = p2.arp.f().to_vec();
        attrs.extend_from_slice(p2.arp.v());
        let cols = data.cols_of_attrs(&attrs).unwrap();
        let deviation = |i: usize| rows.get(i).map_or(2, |r| r.1) as f64 * 0.75;
        let candidates: Vec<RawCandidate> = (0..rel.num_rows())
            .map(|i| RawCandidate {
                row: i,
                agg_value: i as f64,
                predicted: i as f64 - deviation(i),
                deviation: deviation(i),
            })
            .collect();
        let drill = DrillResult {
            attrs: attrs.clone(),
            cols: cols.clone(),
            candidates: candidates.clone(),
            rows_scanned: rel.num_rows(),
        };
        let mut topk = TopK::new(k);
        let mut stats = ExplainStats::default();
        offer_candidates(&drill, 0, 1, &p2, norm, &uq, &cfg, &mut topk, &mut stats);

        let mut uq_g = q_attrs.clone();
        uq_g.sort_unstable();
        let own: Option<Vec<Value>> = (uq_g == p2.arp.g_attrs())
            .then(|| attrs.iter().map(|&a| uq.value_of(a).unwrap().clone()).collect());
        let mut literal = TopK::new(k);
        let mut generated = 0;
        for cand in &candidates {
            let t2 = rel.row_project(cand.row, &cols);
            if own.as_ref() == Some(&t2) || !dir.counterbalances(cand.deviation) {
                continue;
            }
            generated += 1;
            let distance = cfg.distance.tuple_distance(&q_attrs, &uq.tuple, &attrs, &t2);
            literal.offer(Explanation {
                pattern_idx: 0,
                refinement_idx: 1,
                attrs: attrs.clone(),
                tuple: t2,
                agg_value: cand.agg_value,
                predicted: cand.predicted,
                deviation: cand.deviation,
                distance,
                norm,
                score: score_value(cand.deviation, dir.is_low_sign(), distance, norm),
            });
        }
        prop_assert_eq!(stats.candidates_generated, generated);
        let (got, want) = (topk.into_sorted_vec(), literal.into_sorted_vec());
        prop_assert_eq!(got.len(), want.len());
        for (e, r) in got.iter().zip(&want) {
            prop_assert_eq!(e, r);
            prop_assert_eq!(e.distance.to_bits(), r.distance.to_bits());
            prop_assert_eq!(e.score.to_bits(), r.score.to_bits());
        }
    }
}
