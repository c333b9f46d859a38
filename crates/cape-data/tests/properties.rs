//! Property-based tests of the relational operators.

use cape_data::agg::Accumulator;
use cape_data::ops::{
    aggregate, aggregate_with_row_count, cube, distinct, distinct_project, project, rows_matching,
    select, sort_by, sort_perm, sorted_block_starts,
};
use cape_data::stats::{attr_range, attr_stats};
use cape_data::{AggFunc, AggSpec, Predicate, Relation, Schema, Value, ValueType};
use proptest::prelude::*;

/// Random relation over (cat: Str[0..4], num: Int[0..6], val: Int).
fn arb_relation(max_rows: usize) -> impl Strategy<Value = Relation> {
    let row = (0u8..4, 0i64..6, -20i64..20);
    proptest::collection::vec(row, 0..max_rows).prop_map(|rows| {
        let schema = Schema::new([
            ("cat", ValueType::Str),
            ("num", ValueType::Int),
            ("val", ValueType::Int),
        ])
        .unwrap();
        Relation::from_rows(
            schema,
            rows.into_iter()
                .map(|(c, n, v)| vec![Value::str(format!("c{c}")), Value::Int(n), Value::Int(v)]),
        )
        .unwrap()
    })
}

proptest! {
    #[test]
    fn group_counts_sum_to_rows(rel in arb_relation(60)) {
        let out = aggregate(&rel, &[0], &[AggSpec::count_star()]).unwrap().relation;
        let total: i64 = (0..out.num_rows())
            .map(|i| out.value(i, 1).as_i64().unwrap())
            .sum();
        prop_assert_eq!(total as usize, rel.num_rows());
    }

    #[test]
    fn row_count_column_matches_count_star(rel in arb_relation(60)) {
        let out = aggregate_with_row_count(&rel, &[0, 1], &[AggSpec::count_star()])
            .unwrap()
            .relation;
        let rows_col = out.schema().attr_id("__rows").unwrap();
        for i in 0..out.num_rows() {
            prop_assert_eq!(out.value(i, 2), out.value(i, rows_col));
        }
    }

    #[test]
    fn sum_aggregate_matches_manual(rel in arb_relation(60)) {
        let out = aggregate(&rel, &[0], &[AggSpec::over(AggFunc::Sum, 2)]).unwrap().relation;
        for i in 0..out.num_rows() {
            let key = out.value(i, 0).clone();
            let manual: f64 = (0..rel.num_rows())
                .filter(|&r| rel.value(r, 0) == key)
                .map(|r| rel.value(r, 2).as_f64().unwrap())
                .sum();
            prop_assert_eq!(out.value(i, 1).as_f64().unwrap(), manual);
        }
    }

    #[test]
    fn sort_perm_is_a_permutation(rel in arb_relation(60)) {
        let mut perm = sort_perm(&rel, &[1, 0]);
        perm.sort_unstable();
        let expect: Vec<usize> = (0..rel.num_rows()).collect();
        prop_assert_eq!(perm, expect);
    }

    #[test]
    fn sort_is_ordered_and_preserves_bag(rel in arb_relation(60)) {
        let sorted = sort_by(&rel, &[0, 1]);
        prop_assert_eq!(sorted.num_rows(), rel.num_rows());
        for i in 1..sorted.num_rows() {
            let prev = (sorted.value(i - 1, 0), sorted.value(i - 1, 1));
            let cur = (sorted.value(i, 0), sorted.value(i, 1));
            prop_assert!(prev <= cur);
        }
        // Multiset equality via sorted row lists.
        let mut a: Vec<Vec<Value>> = rel.iter_rows().collect();
        let mut b: Vec<Vec<Value>> = sorted.iter_rows().collect();
        a.sort();
        b.sort();
        prop_assert_eq!(a, b);
    }

    #[test]
    fn block_starts_partition_sorted_relation(rel in arb_relation(60)) {
        let sorted = sort_by(&rel, &[0]);
        let starts = sorted_block_starts(&sorted, &[0]);
        prop_assert_eq!(*starts.last().unwrap(), sorted.num_rows());
        for w in starts.windows(2) {
            let (s, e) = (w[0], w[1]);
            prop_assert!(s < e);
            // Homogeneous within, different across.
            for i in s + 1..e {
                prop_assert_eq!(sorted.value(i, 0), sorted.value(s, 0));
            }
            if e < sorted.num_rows() {
                prop_assert_ne!(sorted.value(e, 0), sorted.value(s, 0));
            }
        }
    }

    #[test]
    fn select_partitions_with_complement(rel in arb_relation(60), pivot in 0i64..6) {
        let p = Predicate::Lt(1, Value::Int(pivot));
        let yes = select(&rel, &p);
        let no = select(&rel, &Predicate::Not(Box::new(p)));
        prop_assert_eq!(yes.num_rows() + no.num_rows(), rel.num_rows());
    }

    #[test]
    fn distinct_project_bounds(rel in arb_relation(60)) {
        let d = distinct_project(&rel, &[0, 1]).unwrap();
        prop_assert!(d.num_rows() <= rel.num_rows());
        let d0 = distinct_project(&rel, &[0]).unwrap();
        prop_assert!(d0.num_rows() <= d.num_rows());
        // Number of groups equals distinct projection size.
        let g = aggregate(&rel, &[0, 1], &[AggSpec::count_star()]).unwrap();
        prop_assert_eq!(g.num_groups, d.num_rows());
    }

    #[test]
    fn distinct_is_idempotent(rel in arb_relation(40)) {
        let once = distinct(&rel);
        let twice = distinct(&once);
        prop_assert_eq!(once, twice);
    }

    #[test]
    fn cube_slices_match_direct_group_bys(rel in arb_relation(40)) {
        let slices = cube(&rel, &[0, 1], 1, 2, &[AggSpec::count_star()]).unwrap();
        for slice in slices {
            let direct = aggregate_with_row_count(&rel, &slice.dims, &[AggSpec::count_star()])
                .unwrap()
                .relation;
            prop_assert_eq!(slice.relation.num_rows(), direct.num_rows());
            // Same multiset of rows.
            let mut a: Vec<Vec<Value>> = slice.relation.iter_rows().collect();
            let mut b: Vec<Vec<Value>> = direct.iter_rows().collect();
            a.sort();
            b.sort();
            prop_assert_eq!(a, b);
        }
    }

    #[test]
    fn projection_keeps_row_count(rel in arb_relation(40)) {
        let p = project(&rel, &[2, 0]).unwrap();
        prop_assert_eq!(p.num_rows(), rel.num_rows());
        for i in 0..rel.num_rows() {
            prop_assert_eq!(p.value(i, 0), rel.value(i, 2));
            prop_assert_eq!(p.value(i, 1), rel.value(i, 0));
        }
    }

    #[test]
    fn csv_roundtrip(rel in arb_relation(40)) {
        let mut buf = Vec::new();
        cape_data::csv::write_csv(&mut buf, &rel).unwrap();
        let back = cape_data::csv::read_csv(&buf[..], rel.schema().clone()).unwrap();
        prop_assert_eq!(back, rel);
    }
}

mod kernel_properties {
    use cape_data::ops::{aggregate_with_row_count, aggregate_with_row_count_unpacked};
    use cape_data::{AggFunc, AggSpec, Relation, Schema, Value, ValueType};
    use proptest::prelude::*;

    /// Random relation with nulls in both a group column and the
    /// aggregated column: `(cat: Str?, num: Int, val: Int?)`.
    fn arb_nullable_relation(max_rows: usize) -> impl Strategy<Value = Relation> {
        let row = (0u8..5, 0i64..6, -24i64..28);
        collection::vec(row, 0..max_rows).prop_map(|rows| {
            let schema = Schema::new([
                ("cat", ValueType::Str),
                ("num", ValueType::Int),
                ("val", ValueType::Int),
            ])
            .unwrap();
            Relation::from_rows(
                schema,
                rows.into_iter().map(|(c, n, v)| {
                    let cat = if c == 4 { Value::Null } else { Value::str(format!("c{c}")) };
                    let val = if v >= 24 { Value::Null } else { Value::Int(v) };
                    vec![cat, Value::Int(n), val]
                }),
            )
            .unwrap()
        })
    }

    /// A 30-column relation grouped on every column: the per-column code
    /// widths can exceed the 128-bit pack budget (forcing the scratch-key
    /// fallback) or fit, depending on the drawn cardinalities — the
    /// equivalence must hold on both paths.
    fn arb_wide_relation(max_rows: usize) -> impl Strategy<Value = Relation> {
        const COLS: usize = 30;
        collection::vec(collection::vec(0i64..40, COLS..COLS + 1), 0..max_rows).prop_map(|rows| {
            let schema = Schema::new((0..COLS).map(|c| (format!("g{c}"), ValueType::Int))).unwrap();
            Relation::from_rows(
                schema,
                rows.into_iter().map(|r| r.into_iter().map(Value::Int).collect::<Vec<_>>()),
            )
            .unwrap()
        })
    }

    fn all_specs() -> Vec<AggSpec> {
        vec![
            AggSpec::count_star(),
            AggSpec::over(AggFunc::Count, 2),
            AggSpec::over(AggFunc::Sum, 2),
            AggSpec::over(AggFunc::Min, 2),
            AggSpec::over(AggFunc::Max, 2),
            AggSpec::over(AggFunc::Avg, 2),
        ]
    }

    proptest! {
        /// Packed group-id aggregation is byte-identical to the legacy
        /// `Vec<Value>` scratch-key hash aggregation, nulls included.
        #[test]
        fn packed_matches_unpacked(rel in arb_nullable_relation(80)) {
            for group in [&[0usize][..], &[1], &[0, 1]] {
                let packed = aggregate_with_row_count(&rel, group, &all_specs()).unwrap();
                let unpacked =
                    aggregate_with_row_count_unpacked(&rel, group, &all_specs()).unwrap();
                prop_assert_eq!(&packed.relation, &unpacked.relation);
                prop_assert_eq!(packed.num_groups, unpacked.num_groups);
            }
        }

        /// Same equivalence on a wide schema where the packed key can
        /// overflow 128 bits and take the fallback path internally.
        #[test]
        fn wide_key_matches_unpacked(rel in arb_wide_relation(64)) {
            let group: Vec<usize> = (0..rel.schema().arity()).collect();
            let specs = [AggSpec::count_star()];
            let packed = aggregate_with_row_count(&rel, &group, &specs).unwrap();
            let unpacked = aggregate_with_row_count_unpacked(&rel, &group, &specs).unwrap();
            prop_assert_eq!(&packed.relation, &unpacked.relation);
        }
    }
}

mod sql_properties {
    use super::arb_relation_pub;
    use cape_data::sql::{execute, parse};
    use proptest::prelude::*;

    proptest! {
        /// WHERE partitions: `p` plus `NOT p` cover every row exactly once.
        #[test]
        fn where_and_not_where_partition(rel in arb_relation_pub(50), pivot in 0i64..6) {
            let q1 = parse(&format!("SELECT * FROM t WHERE num < {pivot}")).unwrap();
            let q2 = parse(&format!("SELECT * FROM t WHERE NOT num < {pivot}")).unwrap();
            let a = execute(&q1, &rel).unwrap();
            let b = execute(&q2, &rel).unwrap();
            prop_assert_eq!(a.num_rows() + b.num_rows(), rel.num_rows());
        }

        /// GROUP BY counts through SQL agree with the raw operator.
        #[test]
        fn sql_group_by_matches_operator(rel in arb_relation_pub(50)) {
            let q = parse("SELECT cat, count(*) AS n FROM t GROUP BY cat").unwrap();
            let out = execute(&q, &rel).unwrap();
            let direct = cape_data::ops::aggregate(&rel, &[0], &[cape_data::AggSpec::count_star()])
                .unwrap()
                .relation;
            prop_assert_eq!(out.num_rows(), direct.num_rows());
            let total: i64 = (0..out.num_rows())
                .map(|i| out.value(i, 1).as_i64().unwrap())
                .sum();
            prop_assert_eq!(total as usize, rel.num_rows());
        }

        /// ORDER BY + LIMIT k returns the k smallest keys.
        #[test]
        fn order_limit_returns_prefix(rel in arb_relation_pub(50), k in 1usize..10) {
            let q = parse(&format!("SELECT num FROM t ORDER BY num LIMIT {k}")).unwrap();
            let out = execute(&q, &rel).unwrap();
            prop_assert_eq!(out.num_rows(), k.min(rel.num_rows()));
            let mut all: Vec<i64> = rel.column_iter(1).map(|v| v.as_i64().unwrap()).collect();
            all.sort_unstable();
            for (i, &expected) in all.iter().take(out.num_rows()).enumerate() {
                prop_assert_eq!(out.value(i, 0).as_i64().unwrap(), expected);
            }
        }

        /// IN lists behave like a disjunction of equalities.
        #[test]
        fn in_list_equals_or(rel in arb_relation_pub(50), a in 0i64..6, b in 0i64..6) {
            let q1 = parse(&format!("SELECT * FROM t WHERE num IN ({a}, {b})")).unwrap();
            let q2 = parse(&format!("SELECT * FROM t WHERE num = {a} OR num = {b}")).unwrap();
            let r1 = execute(&q1, &rel).unwrap();
            let r2 = execute(&q2, &rel).unwrap();
            prop_assert_eq!(r1, r2);
        }
    }
}

/// Random relation helper shared with the SQL property tests.
fn arb_relation_pub(max_rows: usize) -> impl Strategy<Value = Relation> {
    let row = (0u8..4, 0i64..6, -20i64..20);
    proptest::collection::vec(row, 1..max_rows).prop_map(|rows| {
        let schema = Schema::new([
            ("cat", ValueType::Str),
            ("num", ValueType::Int),
            ("val", ValueType::Int),
        ])
        .unwrap();
        Relation::from_rows(
            schema,
            rows.into_iter()
                .map(|(c, n, v)| vec![Value::str(format!("c{c}")), Value::Int(n), Value::Int(v)]),
        )
        .unwrap()
    })
}

/// Cell `i` of a pool with NULL, small ints, floats with NaN, −0.0 and
/// integral values, and strings, one of which no generated column holds.
fn cell(i: usize) -> Value {
    match i {
        0 => Value::Null,
        1..=4 => Value::Int(i as i64 - 1),
        5 => Value::Float(0.0),
        6 => Value::Float(-0.0),
        7 => Value::Float(f64::NAN),
        8 => Value::Float(1.5),
        9 => Value::Float(2.0),
        10 => Value::str("a"),
        11 => Value::str("b"),
        _ => Value::str("absent"),
    }
}

/// Relations over (s: Str, n: Int, f: Float, m: Int) with NULLs in every
/// column; `m` takes any cell of the pool, so it is usually `Mixed`.
fn arb_keyed_relation() -> impl Strategy<Value = Relation> {
    let row = (0usize..4, 0usize..5, 0usize..6, 0usize..13);
    proptest::collection::vec(row, 0..40).prop_map(|rows| {
        let schema = Schema::new([
            ("s", ValueType::Str),
            ("n", ValueType::Int),
            ("f", ValueType::Float),
            ("m", ValueType::Int),
        ])
        .unwrap();
        let s = |i: usize| ["", "a", "b", "c"][i];
        Relation::from_rows(
            schema,
            rows.into_iter().map(|(si, ni, fi, mi)| {
                let s = if si == 0 { Value::Null } else { Value::str(s(si)) };
                let f = if fi == 0 { Value::Null } else { cell(fi + 4) };
                vec![s, cell(ni), f, cell(mi)]
            }),
        )
        .unwrap()
    })
}

proptest! {
    /// The key-match kernel is the filter `rel.value(i, c) == v` for every
    /// column subset: typed probes, NULL probes, Int/Float cross-type
    /// probes, `Mixed` columns and strings absent from the dictionary.
    #[test]
    fn rows_matching_equals_value_filter(
        rel in arb_keyed_relation(),
        pool in proptest::collection::vec(0usize..13, 4..5),
        from_row in proptest::collection::vec(0u8..2, 4..5),
        row in 0usize..64,
    ) {
        // Key values come from the pool or, so that keys often match, from
        // one row of the relation.
        let key: Vec<Value> = (0..4)
            .map(|c| match rel.num_rows() {
                n if n > 0 && from_row[c] == 1 => rel.value(row % n, c),
                _ => cell(pool[c]),
            })
            .collect();
        for mask in 0u32..16 {
            let cols: Vec<usize> = (0..4).filter(|c| (mask >> c) & 1 == 1).collect();
            let vals: Vec<Value> = cols.iter().map(|&c| key[c].clone()).collect();
            let want: Vec<usize> = (0..rel.num_rows())
                .filter(|&i| cols.iter().zip(&vals).all(|(&c, v)| rel.value(i, c) == *v))
                .collect();
            prop_assert_eq!(rows_matching(&rel, &cols, &vals), want, "cols {:?} key {:?}", cols, vals);
        }
    }
}

proptest! {
    /// `attr_range`'s one min/max pass gives `attr_stats`' range bit for
    /// bit over Int, Float, Str and (usually) `Mixed` columns holding
    /// NULL, NaN and −0.0; the prefixes of 0–3 rows add relations with no
    /// rows and columns holding a single value.
    #[test]
    fn attr_range_equals_the_stats_range(rel in arb_keyed_relation(), len in 0usize..4) {
        let prefix: Vec<usize> = (0..len.min(rel.num_rows())).collect();
        for r in [rel.take(&prefix), rel] {
            for c in 0..r.schema().arity() {
                let want = attr_stats(&r, c).unwrap().range().map(f64::to_bits);
                prop_assert_eq!(attr_range(&r, c).unwrap().map(f64::to_bits), want, "column {}", c);
            }
        }
    }
}

/// Aggregate inputs of one type: NULL or an Int, or NULL or a Float that
/// may be NaN, −0.0 or infinite.
fn arb_agg_inputs() -> impl Strategy<Value = Vec<Value>> {
    let float = [f64::NAN, -0.0, 0.0, 1.25, -3.5, f64::INFINITY, 1e300];
    (0u8..2, proptest::collection::vec((0u8..5, -4i64..6, 0usize..7), 0..24)).prop_map(
        move |(ty, cells)| {
            cells
                .into_iter()
                .map(|(kind, i, f)| match kind {
                    0 => Value::Null,
                    _ if ty == 0 => Value::Int(i),
                    _ => Value::Float(float[f]),
                })
                .collect()
        },
    )
}

/// `v` as a grouped relation's aggregate column keeps it: an Int column
/// for count, a Float column otherwise.
fn stored(func: AggFunc, v: Value) -> Value {
    let ty = if func == AggFunc::Count { ValueType::Int } else { ValueType::Float };
    let schema = Schema::new([("agg", ty)]).unwrap();
    Relation::from_rows(schema, [vec![v]]).unwrap().value(0, 0)
}

/// A stored aggregate's exact bits.
fn bits(v: &Value) -> (u8, u64) {
    match v {
        Value::Null => (0, 0),
        Value::Int(i) => (1, *i as u64),
        Value::Float(f) => (2, f.to_bits()),
        Value::Str(_) => unreachable!("aggregates are numeric"),
    }
}

proptest! {
    /// Folding a prefix, storing its `finish()`, resuming from the stored
    /// value and folding the suffix gives one fold of everything, bit for
    /// bit once stored — the exactness incremental maintenance rests on.
    /// A stored mean cannot resume.
    #[test]
    fn resumed_fold_equals_one_fold(inputs in arb_agg_inputs(), cut in 0usize..24) {
        let cut = cut.min(inputs.len());
        let calls = [
            (AggFunc::Count, true),
            (AggFunc::Count, false),
            (AggFunc::Sum, false),
            (AggFunc::Min, false),
            (AggFunc::Max, false),
        ];
        for (func, star) in calls {
            let fold = |acc: &mut Accumulator, values: &[Value]| {
                for v in values {
                    acc.update((!star).then_some(v)).unwrap();
                }
            };
            let mut whole = Accumulator::new(func);
            fold(&mut whole, &inputs);
            let mut prefix = Accumulator::new(func);
            fold(&mut prefix, &inputs[..cut]);
            let mut resumed = Accumulator::resume(func, &stored(func, prefix.finish())).unwrap();
            fold(&mut resumed, &inputs[cut..]);
            prop_assert_eq!(
                bits(&stored(func, resumed.finish())),
                bits(&stored(func, whole.finish())),
                "{}(star: {}) cut at {}", func, star, cut
            );
        }
        let mut avg = Accumulator::new(AggFunc::Avg);
        for v in &inputs[..cut] {
            avg.update(Some(v)).unwrap();
        }
        prop_assert!(Accumulator::resume(AggFunc::Avg, &stored(AggFunc::Avg, avg.finish())).is_none());
    }
}
