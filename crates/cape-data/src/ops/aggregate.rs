//! Hash group-by aggregation with multi-aggregate evaluation in one scan.
//!
//! The mining optimizations of the paper ("one query for all patterns
//! sharing F and V", "one query per F∪V") rely on evaluating *all*
//! aggregate calls of interest in a single pass; [`aggregate`] supports an
//! arbitrary list of [`AggSpec`]s.

use crate::agg::{Accumulator, AggSpec};
use crate::error::{DataError, Result};
use crate::ops::group_index::{group_key_index, group_key_index_unpacked};
use crate::relation::Relation;
use crate::schema::{AttrId, Schema};
use crate::value::{Value, ValueType};

/// Result of a group-by: the output relation plus bookkeeping that mining
/// uses (number of groups = `|π_G(R)|`, used for FD discovery).
#[derive(Debug, Clone)]
pub struct GroupByResult {
    /// Output relation: group-by columns followed by one column per aggregate.
    pub relation: Relation,
    /// Number of distinct groups (`relation.num_rows()`, kept for clarity).
    pub num_groups: usize,
}

/// `γ_{G, aggs}(R)`: hash aggregation.
///
/// The output schema is the group-by attributes (in the order given)
/// followed by one column per aggregate, named like `count(*)` / `sum(x)`.
/// Group order is the order of first appearance (deterministic).
pub fn aggregate(rel: &Relation, group: &[AttrId], aggs: &[AggSpec]) -> Result<GroupByResult> {
    aggregate_impl(rel, group, aggs, false, false)
}

/// Like [`aggregate`] but additionally appends a trailing `__rows` column
/// holding each group's raw row count; mining uses it to evaluate local
/// support without requiring `count(*)` among the requested aggregates.
pub fn aggregate_with_row_count(
    rel: &Relation,
    group: &[AttrId],
    aggs: &[AggSpec],
) -> Result<GroupByResult> {
    aggregate_impl(rel, group, aggs, true, false)
}

/// Like [`aggregate_with_row_count`] but forcing the legacy `Vec<Value>`
/// hash-key path, so the packed group-id kernel can be differentially
/// tested against it.
#[doc(hidden)]
pub fn aggregate_with_row_count_unpacked(
    rel: &Relation,
    group: &[AttrId],
    aggs: &[AggSpec],
) -> Result<GroupByResult> {
    aggregate_impl(rel, group, aggs, true, true)
}

/// Output schema of `γ_{group, aggs}`: the projected group columns, one
/// column per aggregate (`count` → Int, everything else → Float), and an
/// optional trailing `__rows` Int column. Shared with the cube operator,
/// so each of its slices is schema-identical to this operator's output.
pub(crate) fn grouped_output_schema(
    base: &Schema,
    group: &[AttrId],
    aggs: &[AggSpec],
    with_rows: bool,
) -> Result<Schema> {
    let mut schema = base.project(group)?;
    for spec in aggs {
        let attr_name = match spec.attr {
            Some(a) => Some(base.attr(a)?.name().to_string()),
            None => None,
        };
        let name = spec.output_name(attr_name.as_deref());
        let ty = match spec.func {
            crate::agg::AggFunc::Count => ValueType::Int,
            _ => ValueType::Float,
        };
        schema.push(crate::schema::Attribute::new(name, ty))?;
    }
    if with_rows {
        schema.push(crate::schema::Attribute::new("__rows", ValueType::Int))?;
    }
    Ok(schema)
}

fn aggregate_impl(
    rel: &Relation,
    group: &[AttrId],
    aggs: &[AggSpec],
    with_rows: bool,
    force_unpacked: bool,
) -> Result<GroupByResult> {
    let mut span = cape_obs::span("data.group_by");
    span.add("rows_in", rel.num_rows() as u64);
    if aggs.is_empty() && !with_rows {
        return Err(DataError::EmptyInput("aggregate list"));
    }
    for spec in aggs {
        if let Some(a) = spec.attr {
            let attr = rel.schema().attr(a)?;
            if spec.func.requires_numeric() && !attr.value_type().is_numeric() {
                return Err(DataError::NonNumericAggregate(attr.name().to_string()));
            }
        }
    }
    let schema = grouped_output_schema(rel.schema(), group, aggs, with_rows)?;

    // Assign dense group slots (first-appearance order) via the packed
    // group-id kernel, then accumulate with direct slot indexing.
    let idx = if force_unpacked {
        group_key_index_unpacked(rel, group)
    } else {
        group_key_index(rel, group)
    };
    let num_groups = idx.num_groups();
    let mut accs: Vec<Vec<Accumulator>> = (0..num_groups)
        .map(|_| aggs.iter().map(|sp| Accumulator::new(sp.func)).collect())
        .collect();
    let mut row_counts: Vec<u64> = vec![0; num_groups];
    for i in 0..rel.num_rows() {
        let slot = idx.slots[i] as usize;
        row_counts[slot] += 1;
        for (acc, spec) in accs[slot].iter_mut().zip(aggs) {
            let value = spec.attr.map(|a| rel.value(i, a));
            acc.update(value.as_ref())?;
        }
    }

    // Materialize; group keys come from each slot's first row, so no
    // per-group key vectors are ever stored during the scan.
    let mut out = Relation::with_capacity(schema, num_groups);
    for slot in 0..num_groups {
        let mut row = rel.row_project(idx.first_rows[slot] as usize, group);
        for acc in &accs[slot] {
            row.push(acc.finish());
        }
        if with_rows {
            row.push(Value::Int(row_counts[slot] as i64));
        }
        out.push_row(row)?;
    }
    span.add("groups_out", num_groups as u64);
    Ok(GroupByResult { relation: out, num_groups })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::agg::AggFunc;
    use crate::schema::Schema;

    fn pubs() -> Relation {
        let schema = Schema::new([
            ("author", ValueType::Str),
            ("year", ValueType::Int),
            ("cites", ValueType::Int),
        ])
        .unwrap();
        Relation::from_rows(
            schema,
            vec![
                vec![Value::str("ax"), Value::Int(2004), Value::Int(10)],
                vec![Value::str("ax"), Value::Int(2004), Value::Int(20)],
                vec![Value::str("ax"), Value::Int(2005), Value::Int(5)],
                vec![Value::str("ay"), Value::Int(2004), Value::Int(7)],
            ],
        )
        .unwrap()
    }

    #[test]
    fn count_star_per_group() {
        let r = pubs();
        let out = aggregate(&r, &[0, 1], &[AggSpec::count_star()]).unwrap().relation;
        assert_eq!(out.num_rows(), 3);
        assert_eq!(out.schema().names(), vec!["author", "year", "count(*)"]);
        // (ax, 2004) appears first and has count 2.
        assert_eq!(out.value(0, 2), Value::Int(2));
        assert_eq!(out.value(1, 2), Value::Int(1));
    }

    #[test]
    fn multiple_aggregates_single_pass() {
        let r = pubs();
        let out = aggregate(
            &r,
            &[0],
            &[
                AggSpec::count_star(),
                AggSpec::over(AggFunc::Sum, 2),
                AggSpec::over(AggFunc::Min, 2),
                AggSpec::over(AggFunc::Max, 2),
                AggSpec::over(AggFunc::Avg, 2),
            ],
        )
        .unwrap()
        .relation;
        assert_eq!(out.num_rows(), 2);
        // ax: 3 rows, cites 10+20+5
        assert_eq!(out.value(0, 1), Value::Int(3));
        assert_eq!(out.value(0, 2), Value::Float(35.0));
        assert_eq!(out.value(0, 3), Value::Float(5.0));
        assert_eq!(out.value(0, 4), Value::Float(20.0));
        assert_eq!(out.value(0, 5), Value::Float(35.0 / 3.0));
    }

    #[test]
    fn group_on_all_attrs() {
        let r = pubs();
        let out = aggregate(&r, &[0, 1, 2], &[AggSpec::count_star()]).unwrap();
        assert_eq!(out.num_groups, 4);
    }

    #[test]
    fn empty_group_list_is_single_group() {
        let r = pubs();
        let out = aggregate(&r, &[], &[AggSpec::count_star()]).unwrap().relation;
        assert_eq!(out.num_rows(), 1);
        assert_eq!(out.value(0, 0), Value::Int(4));
    }

    #[test]
    fn rejects_non_numeric_sum() {
        let r = pubs();
        let err = aggregate(&r, &[1], &[AggSpec::over(AggFunc::Sum, 0)]);
        assert!(matches!(err, Err(DataError::NonNumericAggregate(_))));
    }

    #[test]
    fn rejects_empty_agg_list() {
        let r = pubs();
        assert!(aggregate(&r, &[0], &[]).is_err());
    }

    #[test]
    fn row_count_column() {
        let r = pubs();
        let out =
            aggregate_with_row_count(&r, &[0], &[AggSpec::over(AggFunc::Sum, 2)]).unwrap().relation;
        let rows_col = out.schema().attr_id("__rows").unwrap();
        assert_eq!(out.value(0, rows_col), Value::Int(3));
        assert_eq!(out.value(1, rows_col), Value::Int(1));
    }

    #[test]
    fn empty_input_produces_empty_output() {
        let r = Relation::new(pubs().schema().clone());
        let out = aggregate(&r, &[0], &[AggSpec::count_star()]).unwrap();
        assert_eq!(out.num_groups, 0);
    }
}
