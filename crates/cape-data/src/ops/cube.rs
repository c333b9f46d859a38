//! A CUBE-style operator: aggregate over every subset of a dimension set.
//!
//! SQL's `CUBE BY` evaluates one aggregation per subset of the group-by
//! attributes in a single statement. We emulate it by maintaining one hash
//! table per admissible subset during a *single scan* of the input — the
//! same cost profile (shared scan, per-subset hash maintenance, group count
//! exponential in the number of dimensions) that makes the paper's CUBE
//! mining variant cheaper than NAIVE but more expensive than SHARE-GRP.

use crate::agg::{Accumulator, AggSpec};
use crate::error::Result;
use crate::ops::aggregate::grouped_output_schema;
use crate::relation::Relation;
use crate::schema::AttrId;
use crate::value::Value;
use std::collections::HashMap;

/// One grouping of the cube: the dimension subset and its aggregated slice.
#[derive(Debug, Clone)]
pub struct CubeSlice {
    /// The group-by attributes (ids into the *input* schema) of this slice.
    pub dims: Vec<AttrId>,
    /// Aggregated relation: `dims` columns, aggregate columns, then `__rows`.
    pub relation: Relation,
}

/// Evaluate the cube over all subsets `S ⊆ dims` with
/// `min_size ≤ |S| ≤ max_size`, computing every aggregate in `aggs` plus a
/// trailing `__rows` raw-count column, in one scan of `rel`.
///
/// This corresponds to the paper's `CUBE BY` + `GROUPING()` filter that
/// discards groupings outside the pattern-size bound ψ.
pub fn cube(
    rel: &Relation,
    dims: &[AttrId],
    min_size: usize,
    max_size: usize,
    aggs: &[AggSpec],
) -> Result<Vec<CubeSlice>> {
    let mut span = cape_obs::span("data.cube");
    span.add("rows_in", rel.num_rows() as u64);
    let subsets = subsets_in_range(dims, min_size, max_size);
    span.add("slices_out", subsets.len() as u64);

    struct SliceAcc {
        dims: Vec<AttrId>,
        groups: HashMap<Vec<Value>, usize>,
        keys: Vec<Vec<Value>>,
        accs: Vec<Vec<Accumulator>>,
        rows: Vec<u64>,
    }
    let mut slices: Vec<SliceAcc> = subsets
        .into_iter()
        .map(|dims| SliceAcc {
            dims,
            groups: HashMap::new(),
            keys: Vec::new(),
            accs: Vec::new(),
            rows: Vec::new(),
        })
        .collect();

    // Single shared scan; one reused scratch key avoids a per-row
    // allocation in every slice (same optimization as `aggregate`).
    let mut scratch: Vec<Value> = Vec::new();
    for i in 0..rel.num_rows() {
        for slice in &mut slices {
            scratch.clear();
            for &d in &slice.dims {
                scratch.push(rel.value(i, d).clone());
            }
            let slot = match slice.groups.get(&scratch) {
                Some(&s) => s,
                None => {
                    slice.keys.push(scratch.clone());
                    slice.accs.push(aggs.iter().map(|s| Accumulator::new(s.func)).collect());
                    slice.rows.push(0);
                    let s = slice.accs.len() - 1;
                    slice.groups.insert(scratch.clone(), s);
                    s
                }
            };
            slice.rows[slot] += 1;
            for (acc, spec) in slice.accs[slot].iter_mut().zip(aggs) {
                acc.update(spec.attr.map(|a| rel.value(i, a)).as_ref())?;
            }
        }
    }

    // Materialize each slice.
    let mut out = Vec::with_capacity(slices.len());
    for slice in slices {
        let schema = grouped_output_schema(rel.schema(), &slice.dims, aggs, true)?;
        let mut relation = Relation::with_capacity(schema, slice.keys.len());
        for (slot, key) in slice.keys.into_iter().enumerate() {
            let mut row = key;
            for acc in &slice.accs[slot] {
                row.push(acc.finish());
            }
            row.push(Value::Int(slice.rows[slot] as i64));
            relation.push_row(row)?;
        }
        out.push(CubeSlice { dims: slice.dims, relation });
    }
    Ok(out)
}

/// All subsets of `dims` whose size lies in `[min_size, max_size]`,
/// enumerated in increasing size then lexicographic order.
pub(crate) fn subsets_in_range(
    dims: &[AttrId],
    min_size: usize,
    max_size: usize,
) -> Vec<Vec<AttrId>> {
    fn combos(
        dims: &[AttrId],
        start: usize,
        left: usize,
        cur: &mut Vec<AttrId>,
        out: &mut Vec<Vec<AttrId>>,
    ) {
        if left == 0 {
            out.push(cur.clone());
            return;
        }
        // Not enough elements remain to complete the combination.
        if dims.len().saturating_sub(start) < left {
            return;
        }
        for i in start..=dims.len() - left {
            cur.push(dims[i]);
            combos(dims, i + 1, left - 1, cur, out);
            cur.pop();
        }
    }
    let mut out = Vec::new();
    for size in min_size..=max_size.min(dims.len()) {
        combos(dims, 0, size, &mut Vec::new(), &mut out);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::agg::AggFunc;
    use crate::schema::Schema;
    use crate::value::ValueType;

    fn rel() -> Relation {
        let schema =
            Schema::new([("a", ValueType::Str), ("b", ValueType::Int), ("x", ValueType::Int)])
                .unwrap();
        Relation::from_rows(
            schema,
            vec![
                vec![Value::str("p"), Value::Int(1), Value::Int(10)],
                vec![Value::str("p"), Value::Int(2), Value::Int(20)],
                vec![Value::str("q"), Value::Int(1), Value::Int(30)],
            ],
        )
        .unwrap()
    }

    #[test]
    fn subset_enumeration() {
        let subsets = subsets_in_range(&[0, 1, 2], 1, 2);
        assert_eq!(subsets, vec![vec![0], vec![1], vec![2], vec![0, 1], vec![0, 2], vec![1, 2],]);
        assert_eq!(subsets_in_range(&[0, 1], 1, 5).len(), 3);
        assert_eq!(subsets_in_range(&[0, 1, 2, 3], 2, 2).len(), 6);
    }

    #[test]
    fn cube_matches_individual_group_bys() {
        let r = rel();
        let slices = cube(&r, &[0, 1], 1, 2, &[AggSpec::over(AggFunc::Sum, 2)]).unwrap();
        assert_eq!(slices.len(), 3); // {a}, {b}, {a,b}
        let by_a = &slices[0];
        assert_eq!(by_a.dims, vec![0]);
        assert_eq!(by_a.relation.num_rows(), 2);
        // p sums to 30, q to 30
        assert_eq!(by_a.relation.value(0, 1), Value::Float(30.0));
        let by_ab = &slices[2];
        assert_eq!(by_ab.relation.num_rows(), 3);
        // __rows column is last
        let rows_col = by_ab.relation.schema().attr_id("__rows").unwrap();
        assert_eq!(by_ab.relation.value(0, rows_col), Value::Int(1));
    }

    #[test]
    fn cube_agrees_with_aggregate_operator() {
        let r = rel();
        let slices = cube(&r, &[0, 1], 1, 2, &[AggSpec::count_star()]).unwrap();
        for slice in &slices {
            let direct =
                crate::ops::aggregate_with_row_count(&r, &slice.dims, &[AggSpec::count_star()])
                    .unwrap()
                    .relation;
            assert_eq!(slice.relation.num_rows(), direct.num_rows());
        }
    }

    #[test]
    fn empty_input() {
        let r = Relation::new(rel().schema().clone());
        let slices = cube(&r, &[0, 1], 1, 2, &[AggSpec::count_star()]).unwrap();
        assert!(slices.iter().all(|s| s.relation.is_empty()));
    }
}
