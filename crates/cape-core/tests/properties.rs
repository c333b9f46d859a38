//! Property-based tests of the CAPE core: candidate enumeration, the
//! top-k heap (including deterministic tie-breaking), the scoring
//! function's monotonicity, the distance model, and miner agreement on
//! random data.

use cape_core::explain::{
    relative_loss, score_value, summarize, DistanceModel, Explanation, SummarizeConfig, TopK,
};
use cape_core::mining::{splits_of, ArpMiner, Miner, ShareGrpMiner};
use cape_core::store::{PatternInstance, PatternStore};
use cape_core::{Arp, MiningConfig, Thresholds};
use cape_data::{AggFunc, Relation, Schema, Value, ValueType};
use cape_regress::ModelType;
use proptest::prelude::*;
use std::collections::BTreeSet;

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
