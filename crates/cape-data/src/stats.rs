//! Per-attribute dataset statistics (domains, cardinalities, ranges).
//!
//! Explanation scoring needs attribute ranges to normalize numeric
//! distances; mining uses distinct counts to size candidate spaces.

use crate::error::Result;
use crate::relation::Relation;
use crate::schema::AttrId;
use crate::value::Value;
use std::collections::HashSet;

/// Statistics for one attribute of a relation.
#[derive(Debug, Clone)]
pub struct AttrStats {
    /// Number of distinct non-null values.
    pub distinct: usize,
    /// Number of null cells.
    pub nulls: usize,
    /// Minimum numeric value (numeric attributes only).
    pub min: Option<f64>,
    /// Maximum numeric value (numeric attributes only).
    pub max: Option<f64>,
}

impl AttrStats {
    /// The numeric range (`max - min`) when defined and positive.
    pub fn range(&self) -> Option<f64> {
        positive_range(self.min, self.max)
    }
}

fn positive_range(min: Option<f64>, max: Option<f64>) -> Option<f64> {
    match (min, max) {
        (Some(lo), Some(hi)) if hi > lo => Some(hi - lo),
        _ => None,
    }
}

/// The numeric range of one attribute, [`AttrStats::range`] without the
/// distinct count: one min/max pass over the column, no hashing.
pub fn attr_range(rel: &Relation, attr: AttrId) -> Result<Option<f64>> {
    rel.schema().attr(attr)?;
    let (min, max) = min_max(rel, attr);
    Ok(positive_range(min, max))
}

/// Minimum and maximum of an attribute's numeric cells, in row order
/// (`f64::min`/`max`, so a NaN is replaced by the next value it meets).
/// `None` when no cell is numeric.
fn min_max(rel: &Relation, attr: AttrId) -> (Option<f64>, Option<f64>) {
    use crate::column::Column;
    let mut min: Option<f64> = None;
    let mut max: Option<f64> = None;
    let mut upd = |x: f64| {
        min = Some(min.map_or(x, |m| m.min(x)));
        max = Some(max.map_or(x, |m| m.max(x)));
    };
    match rel.col(attr) {
        Column::Int(c) => {
            (0..rel.num_rows()).filter(|&i| !c.nulls.get(i)).for_each(|i| upd(c.data[i] as f64))
        }
        Column::Float(c) => {
            (0..rel.num_rows()).filter(|&i| !c.nulls.get(i)).for_each(|i| upd(c.data[i]))
        }
        Column::Str(_) => {}
        Column::Mixed(values) => values.iter().filter_map(Value::as_f64).for_each(upd),
    }
    (min, max)
}

/// Compute [`AttrStats`] for a single attribute.
pub fn attr_stats(rel: &Relation, attr: AttrId) -> Result<AttrStats> {
    let mut span = cape_obs::span("data.attr_stats");
    span.add("rows_in", rel.num_rows() as u64);
    rel.schema().attr(attr)?;
    use crate::column::Column;
    let n = rel.num_rows();
    let (distinct, nulls) = match rel.col(attr) {
        Column::Int(c) => {
            let mut seen: HashSet<i64> = HashSet::new();
            for i in 0..n {
                if c.nulls.get(i) {
                    continue;
                }
                seen.insert(c.data[i]);
            }
            (seen.len(), c.nulls.null_count())
        }
        Column::Float(c) => {
            let mut seen: HashSet<u64> = HashSet::new();
            for i in 0..n {
                if c.nulls.get(i) {
                    continue;
                }
                seen.insert(c.data[i].to_bits());
            }
            (seen.len(), c.nulls.null_count())
        }
        Column::Str(c) => {
            let mut used = vec![false; c.dict.len()];
            for i in 0..n {
                if !c.nulls.get(i) {
                    used[c.codes[i] as usize] = true;
                }
            }
            (used.iter().filter(|&&u| u).count(), c.nulls.null_count())
        }
        Column::Mixed(values) => {
            let seen: HashSet<&Value> = values.iter().filter(|v| !v.is_null()).collect();
            (seen.len(), values.iter().filter(|v| v.is_null()).count())
        }
    };
    let (min, max) = min_max(rel, attr);
    Ok(AttrStats { distinct, nulls, min, max })
}

/// Compute stats for every attribute of `rel`.
pub fn all_attr_stats(rel: &Relation) -> Result<Vec<AttrStats>> {
    (0..rel.schema().arity()).map(|a| attr_stats(rel, a)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Schema;
    use crate::value::ValueType;

    fn rel() -> Relation {
        let schema = Schema::new([("v", ValueType::Str), ("y", ValueType::Int)]).unwrap();
        Relation::from_rows(
            schema,
            vec![
                vec![Value::str("a"), Value::Int(2000)],
                vec![Value::str("a"), Value::Int(2010)],
                vec![Value::Null, Value::Int(2005)],
                vec![Value::str("b"), Value::Null],
            ],
        )
        .unwrap()
    }

    #[test]
    fn distinct_and_nulls() {
        let s = attr_stats(&rel(), 0).unwrap();
        assert_eq!(s.distinct, 2);
        assert_eq!(s.nulls, 1);
        assert_eq!(s.min, None);
        assert_eq!(s.range(), None);
    }

    #[test]
    fn numeric_range() {
        let s = attr_stats(&rel(), 1).unwrap();
        assert_eq!(s.distinct, 3);
        assert_eq!(s.min, Some(2000.0));
        assert_eq!(s.max, Some(2010.0));
        assert_eq!(s.range(), Some(10.0));
    }

    #[test]
    fn all_stats() {
        let all = all_attr_stats(&rel()).unwrap();
        assert_eq!(all.len(), 2);
    }

    #[test]
    fn invalid_attr() {
        assert!(attr_stats(&rel(), 5).is_err());
    }

    #[test]
    fn constant_column_has_no_range() {
        let schema = Schema::new([("x", ValueType::Int)]).unwrap();
        let r =
            Relation::from_rows(schema, vec![vec![Value::Int(3)], vec![Value::Int(3)]]).unwrap();
        let s = attr_stats(&r, 0).unwrap();
        assert_eq!(s.range(), None);
        assert_eq!(s.distinct, 1);
    }
}
