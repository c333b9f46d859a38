//! Materialized group-by results shared across patterns.
//!
//! The mining optimization "one query per F ∪ V" (paper §4.1) computes a
//! single aggregation per group-by attribute set `G` and reuses it for
//! every `(F, V)` split and every aggregate call. [`GroupData`] is that
//! materialization: the aggregated relation plus the column bookkeeping
//! needed to find a given aggregate output or base attribute again.

use cape_data::ops::aggregate_with_row_count;
use cape_data::{AggFunc, AggSpec, AttrId, Relation, Result, Value};
use std::collections::HashMap;

/// The materialized result of `γ_{G, aggs}(R)` with column metadata.
#[derive(Debug, Clone)]
pub struct GroupData {
    /// The group-by attributes (ids into the *base* schema), in the order
    /// they appear as the leading columns of [`GroupData::relation`].
    pub group_attrs: Vec<AttrId>,
    /// Aggregated relation: `group_attrs` columns, one column per
    /// aggregate, then a trailing `__rows` raw-count column.
    pub relation: Relation,
    /// Column index of each aggregate output in `relation`.
    agg_cols: HashMap<(AggFunc, Option<AttrId>), usize>,
    /// Column index of the `__rows` count.
    pub rows_col: usize,
}

impl GroupData {
    /// Run the shared group-by query for `group_attrs` evaluating all
    /// `aggs` (pairs of function and optional base attribute) in one scan.
    pub fn compute(
        rel: &Relation,
        group_attrs: &[AttrId],
        aggs: &[(AggFunc, Option<AttrId>)],
    ) -> Result<Self> {
        let specs: Vec<AggSpec> = aggs.iter().map(|&(func, attr)| AggSpec { func, attr }).collect();
        let result = aggregate_with_row_count(rel, group_attrs, &specs)?;
        Ok(Self::from_parts(group_attrs.to_vec(), result.relation, aggs))
    }

    /// Wrap an already-aggregated relation whose columns are
    /// `group_attrs…, aggs…, __rows` (used by the CUBE miner, which
    /// produces the same layout through the cube operator).
    pub fn from_parts(
        group_attrs: Vec<AttrId>,
        relation: Relation,
        aggs: &[(AggFunc, Option<AttrId>)],
    ) -> Self {
        let base = group_attrs.len();
        let agg_cols = aggs.iter().enumerate().map(|(i, &key)| (key, base + i)).collect();
        let rows_col = base + aggs.len();
        debug_assert_eq!(rows_col + 1, relation.schema().arity());
        GroupData { group_attrs, relation, agg_cols, rows_col }
    }

    /// Column index (into [`GroupData::relation`]) of the given aggregate.
    pub fn agg_col(&self, func: AggFunc, attr: Option<AttrId>) -> Option<usize> {
        self.agg_cols.get(&(func, attr)).copied()
    }

    /// Column index of a *base-schema* attribute within this group-by
    /// output, if it is one of the group-by attributes.
    pub fn col_of_attr(&self, attr: AttrId) -> Option<usize> {
        self.group_attrs.iter().position(|&a| a == attr)
    }

    /// Column indices for a list of base attributes (all must be present).
    pub fn cols_of_attrs(&self, attrs: &[AttrId]) -> Option<Vec<usize>> {
        attrs.iter().map(|&a| self.col_of_attr(a)).collect()
    }

    /// Project row `i` onto base attributes `attrs` (values cloned).
    pub fn key_of(&self, i: usize, attrs: &[AttrId]) -> Option<Vec<Value>> {
        let cols = self.cols_of_attrs(attrs)?;
        Some(self.relation.row_project(i, &cols))
    }

    /// The numeric aggregate value of row `i` in column `col`.
    pub fn agg_value(&self, i: usize, col: usize) -> Option<f64> {
        self.relation.value_f64(i, col)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cape_data::{Schema, ValueType};

    fn rel() -> Relation {
        let schema = Schema::new([
            ("author", ValueType::Str),
            ("year", ValueType::Int),
            ("cites", ValueType::Int),
        ])
        .unwrap();
        Relation::from_rows(
            schema,
            vec![
                vec![Value::str("ax"), Value::Int(2004), Value::Int(1)],
                vec![Value::str("ax"), Value::Int(2004), Value::Int(2)],
                vec![Value::str("ax"), Value::Int(2005), Value::Int(3)],
                vec![Value::str("ay"), Value::Int(2004), Value::Int(4)],
            ],
        )
        .unwrap()
    }

    #[test]
    fn compute_and_lookup() {
        let g =
            GroupData::compute(&rel(), &[0, 1], &[(AggFunc::Count, None), (AggFunc::Sum, Some(2))])
                .unwrap();
        assert_eq!(g.relation.num_rows(), 3);
        let count_col = g.agg_col(AggFunc::Count, None).unwrap();
        let sum_col = g.agg_col(AggFunc::Sum, Some(2)).unwrap();
        assert_eq!(count_col, 2);
        assert_eq!(sum_col, 3);
        assert_eq!(g.rows_col, 4);
        // (ax, 2004): count 2, sum 3.
        assert_eq!(g.agg_value(0, count_col), Some(2.0));
        assert_eq!(g.agg_value(0, sum_col), Some(3.0));
        assert_eq!(g.agg_col(AggFunc::Max, Some(2)), None);
    }

    #[test]
    fn attr_mapping() {
        let g = GroupData::compute(&rel(), &[1, 0], &[(AggFunc::Count, None)]).unwrap();
        assert_eq!(g.col_of_attr(1), Some(0));
        assert_eq!(g.col_of_attr(0), Some(1));
        assert_eq!(g.col_of_attr(2), None);
        assert_eq!(g.cols_of_attrs(&[0, 1]), Some(vec![1, 0]));
        assert_eq!(g.cols_of_attrs(&[0, 2]), None);
        let key = g.key_of(0, &[0]).unwrap();
        assert_eq!(key, vec![Value::str("ax")]);
    }
}
