//! Columnar in-memory relations.
//!
//! A [`Relation`] stores tuples column-wise in compact typed slabs
//! ([`crate::column::Column`]): `i64`/`f64` data words, dictionary-coded
//! strings, and null bitmaps. This favours the access patterns of CAPE's
//! workload — aggregation, sorting and fragment fitting touch a few
//! columns of many rows — and lets the snapshot v2 loader alias slabs
//! straight out of an mmapped file. Cells are materialized as owned
//! [`Value`]s on demand; hot paths use the typed views instead
//! ([`Relation::col`], [`crate::column::NumView`]).

use crate::column::{Column, NumView};
use crate::error::{DataError, Result};
use crate::schema::{AttrId, Schema};
use crate::value::Value;
use std::fmt;

/// A columnar relation (bag of tuples) with a fixed [`Schema`].
#[derive(Debug, Clone)]
pub struct Relation {
    schema: Schema,
    columns: Vec<Column>,
    rows: usize,
}

impl Relation {
    /// Create an empty relation with the given schema.
    pub fn new(schema: Schema) -> Self {
        let columns = schema.iter().map(|a| Column::new(a.value_type())).collect();
        Relation { schema, columns, rows: 0 }
    }

    /// Create an empty relation, pre-allocating `capacity` rows per column.
    pub fn with_capacity(schema: Schema, capacity: usize) -> Self {
        let columns =
            schema.iter().map(|a| Column::with_capacity(a.value_type(), capacity)).collect();
        Relation { schema, columns, rows: 0 }
    }

    /// Assemble a relation from pre-built columns (snapshot v2 load).
    /// Every column must match the schema's arity and share one length.
    pub fn from_columns(schema: Schema, columns: Vec<Column>) -> Result<Self> {
        if columns.len() != schema.arity() {
            return Err(DataError::ArityMismatch {
                expected: schema.arity(),
                actual: columns.len(),
            });
        }
        let rows = columns.first().map_or(0, Column::len);
        if columns.iter().any(|c| c.len() != rows) {
            return Err(DataError::ArityMismatch { expected: rows, actual: 0 });
        }
        Ok(Relation { schema, columns, rows })
    }

    /// Build a relation from rows (convenience for tests and examples).
    pub fn from_rows<I>(schema: Schema, rows: I) -> Result<Self>
    where
        I: IntoIterator<Item = Vec<Value>>,
    {
        let mut rel = Relation::new(schema);
        for row in rows {
            rel.push_row(row)?;
        }
        Ok(rel)
    }

    /// The relation's schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Number of rows.
    pub fn num_rows(&self) -> usize {
        self.rows
    }

    /// True when the relation holds no tuples.
    pub fn is_empty(&self) -> bool {
        self.rows == 0
    }

    /// Append one row; the row arity must match the schema.
    pub fn push_row(&mut self, row: Vec<Value>) -> Result<()> {
        if row.len() != self.schema.arity() {
            return Err(DataError::ArityMismatch {
                expected: self.schema.arity(),
                actual: row.len(),
            });
        }
        for (col, v) in self.columns.iter_mut().zip(row) {
            col.push(v);
        }
        self.rows += 1;
        Ok(())
    }

    /// Read a single cell (materialized as an owned value).
    #[inline]
    pub fn value(&self, row: usize, col: AttrId) -> Value {
        self.columns[col].get(row)
    }

    /// Whether a cell is NULL, without materializing it.
    #[inline]
    pub fn is_null(&self, row: usize, col: AttrId) -> bool {
        self.columns[col].is_null(row)
    }

    /// Numeric view of a cell (`None` for NULL / non-numeric).
    #[inline]
    pub fn value_f64(&self, row: usize, col: AttrId) -> Option<f64> {
        self.columns[col].get_f64(row)
    }

    /// Overwrite a single cell in place. Used by incremental maintenance
    /// to fold appended rows into a grouped row's aggregate cells without
    /// rebuilding the relation.
    pub fn set_value(&mut self, row: usize, col: AttrId, v: Value) {
        self.columns[col].set(row, v);
    }

    /// Borrow a column's typed storage.
    #[inline]
    pub fn col(&self, col: AttrId) -> &Column {
        &self.columns[col]
    }

    /// Numeric slab view of a column, when it kept a typed layout.
    #[inline]
    pub fn num_view(&self, col: AttrId) -> Option<NumView<'_>> {
        self.columns[col].num_view()
    }

    /// Materialize an entire column as owned values.
    pub fn column_values(&self, col: AttrId) -> Vec<Value> {
        (0..self.rows).map(|i| self.columns[col].get(i)).collect()
    }

    /// Iterate a column's values without materializing the whole column.
    pub fn column_iter(&self, col: AttrId) -> impl Iterator<Item = Value> + '_ {
        let c = &self.columns[col];
        (0..self.rows).map(move |i| c.get(i))
    }

    /// Materialize row `i` as an owned vector.
    pub fn row(&self, i: usize) -> Vec<Value> {
        self.columns.iter().map(|c| c.get(i)).collect()
    }

    /// Materialize the projection of row `i` onto `cols`.
    pub fn row_project(&self, i: usize, cols: &[AttrId]) -> Vec<Value> {
        cols.iter().map(|&c| self.columns[c].get(i)).collect()
    }

    /// Whether rows `i` and `j` agree on every column in `cols`
    /// (Value-level equality over the typed slabs; no materialization).
    #[inline]
    pub fn rows_equal_on(&self, i: usize, j: usize, cols: &[AttrId]) -> bool {
        cols.iter().all(|&c| self.columns[c].rows_equal(i, j))
    }

    /// Iterate over all rows as owned vectors.
    pub fn iter_rows(&self) -> impl Iterator<Item = Vec<Value>> + '_ {
        (0..self.rows).map(move |i| self.row(i))
    }

    /// Keep only the rows at the given indices (in the given order).
    pub fn take(&self, indices: &[usize]) -> Relation {
        let columns = self.columns.iter().map(|col| col.take(indices)).collect();
        Relation { schema: self.schema.clone(), columns, rows: indices.len() }
    }

    /// Append all rows of `other`; schemas must have identical shape.
    pub fn extend(&mut self, other: &Relation) -> Result<()> {
        if !self.schema.same_shape(&other.schema) {
            return Err(DataError::ArityMismatch {
                expected: self.schema.arity(),
                actual: other.schema.arity(),
            });
        }
        for (dst, src) in self.columns.iter_mut().zip(&other.columns) {
            dst.extend_from(src);
        }
        self.rows += other.rows;
        Ok(())
    }

    /// Approximate resident payload bytes across all columns (slab data,
    /// null bitmaps, dictionaries) — bench memory accounting.
    pub fn payload_bytes(&self) -> usize {
        self.columns.iter().map(Column::payload_bytes).sum()
    }

    /// True when every column kept its typed slab layout (no `Mixed`
    /// fallback in play) — the precondition for zero-copy snapshots.
    pub fn fully_typed(&self) -> bool {
        self.columns.iter().all(Column::is_typed)
    }

    /// Render the first `limit` rows as an ASCII table (for examples/demos).
    pub fn to_ascii(&self, limit: usize) -> String {
        let names = self.schema.names();
        let shown = self.rows.min(limit);
        let mut widths: Vec<usize> = names.iter().map(|n| n.len()).collect();
        let mut cells: Vec<Vec<String>> = Vec::with_capacity(shown);
        for i in 0..shown {
            let row: Vec<String> =
                (0..self.schema.arity()).map(|c| self.value(i, c).to_string()).collect();
            for (w, cell) in widths.iter_mut().zip(&row) {
                *w = (*w).max(cell.len());
            }
            cells.push(row);
        }
        let mut out = String::new();
        let sep = |out: &mut String| {
            out.push('+');
            for w in &widths {
                out.push_str(&"-".repeat(w + 2));
                out.push('+');
            }
            out.push('\n');
        };
        sep(&mut out);
        out.push('|');
        for (n, w) in names.iter().zip(&widths) {
            out.push_str(&format!(" {n:<w$} |"));
        }
        out.push('\n');
        sep(&mut out);
        for row in &cells {
            out.push('|');
            for (cell, w) in row.iter().zip(&widths) {
                out.push_str(&format!(" {cell:<w$} |"));
            }
            out.push('\n');
        }
        sep(&mut out);
        if shown < self.rows {
            out.push_str(&format!("... {} more rows\n", self.rows - shown));
        }
        out
    }
}

/// Logical equality: same schema and the same tuples in the same order,
/// regardless of physical layout (typed slab vs. `Mixed`, owned vs.
/// mapped). An `Int` stored in a `Float` column equals its float form,
/// mirroring [`Value`]'s cross-type numeric equality.
impl PartialEq for Relation {
    fn eq(&self, other: &Self) -> bool {
        self.schema == other.schema
            && self.rows == other.rows
            && (0..self.rows)
                .all(|i| (0..self.schema.arity()).all(|c| self.value(i, c) == other.value(i, c)))
    }
}

impl fmt::Display for Relation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_ascii(20))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::ValueType;

    fn sample() -> Relation {
        let schema = Schema::new([("author", ValueType::Str), ("year", ValueType::Int)]).unwrap();
        Relation::from_rows(
            schema,
            vec![
                vec![Value::str("ax"), Value::Int(2004)],
                vec![Value::str("ax"), Value::Int(2005)],
                vec![Value::str("ay"), Value::Int(2004)],
            ],
        )
        .unwrap()
    }

    #[test]
    fn push_and_read() {
        let r = sample();
        assert_eq!(r.num_rows(), 3);
        assert_eq!(r.value(1, 1), Value::Int(2005));
        assert_eq!(r.row(2), vec![Value::str("ay"), Value::Int(2004)]);
        assert_eq!(r.row_project(0, &[1]), vec![Value::Int(2004)]);
        assert_eq!(r.column_values(0).len(), 3);
        assert!(r.fully_typed());
    }

    #[test]
    fn arity_checked() {
        let mut r = sample();
        assert!(r.push_row(vec![Value::Int(1)]).is_err());
        assert_eq!(r.num_rows(), 3);
    }

    #[test]
    fn set_value_overwrites_in_place() {
        let mut r = sample();
        r.set_value(1, 1, Value::Int(2006));
        assert_eq!(r.value(1, 1), Value::Int(2006));
        assert_eq!(r.num_rows(), 3);
        // Neighbours untouched.
        assert_eq!(r.value(0, 1), Value::Int(2004));
        assert_eq!(r.value(1, 0), Value::str("ax"));
    }

    #[test]
    fn take_reorders() {
        let r = sample();
        let t = r.take(&[2, 0]);
        assert_eq!(t.num_rows(), 2);
        assert_eq!(t.value(0, 0), Value::str("ay"));
        assert_eq!(t.value(1, 0), Value::str("ax"));
    }

    #[test]
    fn extend_checks_shape() {
        let mut r = sample();
        let other = sample();
        r.extend(&other).unwrap();
        assert_eq!(r.num_rows(), 6);
        let bad = Relation::new(Schema::new([("x", ValueType::Int)]).unwrap());
        assert!(r.extend(&bad).is_err());
    }

    #[test]
    fn ascii_rendering() {
        let r = sample();
        let s = r.to_ascii(2);
        assert!(s.contains("author"));
        assert!(s.contains("2004"));
        assert!(s.contains("1 more rows"));
        assert!(r.to_string().contains("ay"));
    }

    #[test]
    fn iter_rows_yields_all() {
        let r = sample();
        assert_eq!(r.iter_rows().count(), 3);
    }

    #[test]
    fn rows_equal_on_typed_slabs() {
        let r = sample();
        assert!(r.rows_equal_on(0, 2, &[1])); // both year 2004
        assert!(!r.rows_equal_on(0, 2, &[0, 1])); // different authors
        assert!(r.rows_equal_on(0, 1, &[0])); // same author
    }

    #[test]
    fn logical_eq_across_layouts() {
        let r = sample();
        let mut mixed = sample();
        // Force one column to Mixed; logical equality must not care.
        mixed.set_value(0, 1, Value::str("not-a-year"));
        mixed.set_value(0, 1, Value::Int(2004));
        assert_eq!(r, mixed);
    }

    #[test]
    fn mismatched_values_degrade_not_error() {
        let schema = Schema::new([("n", ValueType::Int)]).unwrap();
        let mut r = Relation::new(schema);
        r.push_row(vec![Value::Int(1)]).unwrap();
        r.push_row(vec![Value::str("x")]).unwrap();
        assert!(!r.fully_typed());
        assert_eq!(r.value(0, 0), Value::Int(1));
        assert_eq!(r.value(1, 0), Value::str("x"));
    }
}
