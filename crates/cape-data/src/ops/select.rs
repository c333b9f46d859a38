//! Selection (`σ`) over relations.

use crate::column::{canon_f64, Column, NullBitmap};
use crate::pred::Predicate;
use crate::relation::Relation;
use crate::schema::AttrId;
use crate::value::Value;

/// `σ_pred(rel)`: keep the rows satisfying the predicate.
pub fn select(rel: &Relation, pred: &Predicate) -> Relation {
    let mut span = cape_obs::span("data.select");
    span.add("rows_in", rel.num_rows() as u64);
    let indices: Vec<usize> = (0..rel.num_rows()).filter(|&i| pred.eval(rel, i)).collect();
    span.add("rows_out", indices.len() as u64);
    rel.take(&indices)
}

/// Selection by arbitrary closure over the row index.
pub fn filter<F: FnMut(&Relation, usize) -> bool>(rel: &Relation, mut keep: F) -> Relation {
    let mut span = cape_obs::span("data.select");
    span.add("rows_in", rel.num_rows() as u64);
    let indices: Vec<usize> = (0..rel.num_rows()).filter(|&i| keep(rel, i)).collect();
    span.add("rows_out", indices.len() as u64);
    rel.take(&indices)
}

/// The ascending ids of the rows whose `cols` equal `key` under
/// [`Value`]'s `==`, found without materializing a `Value` per cell.
///
/// Each key value is compiled once into a typed probe against its
/// column: a string into its dictionary code (a string the dictionary
/// has never seen matches no row), an `Int` into the `i64`, a `Float`
/// into its canonical bits, and `Null` into the null bitmap. Typed slabs
/// hold 0, 0.0 or code 0 at NULL rows, so a non-NULL probe also tests
/// the bitmap. A `Mixed` column, or a value whose type differs from its
/// column's (`Float(2007.0)` against an `Int` column, which `==`
/// matches), is compared cell by cell instead.
///
/// # Panics
/// Panics if `cols` and `key` differ in length or a column id is out of
/// range (programming errors).
pub fn rows_matching(rel: &Relation, cols: &[AttrId], key: &[Value]) -> Vec<usize> {
    assert_eq!(cols.len(), key.len(), "key must align with cols");
    let mut probes = cols.iter().zip(key).map(|(&c, v)| CellProbe::new(rel.col(c), v));
    let Some(first) = probes.next() else {
        return (0..rel.num_rows()).collect();
    };
    let mut rows = first.keep(0..rel.num_rows());
    for probe in probes {
        if rows.is_empty() {
            break;
        }
        rows = probe.keep(rows.into_iter());
    }
    rows
}

/// One key value compiled against its column: whether a cell equals the
/// value under [`Value`]'s `==`, answered without materializing the
/// cell. [`rows_matching`] compiles one per key column; callers that test
/// chosen rows compile their own and ask [`CellProbe::matches`].
pub enum CellProbe<'a> {
    /// `Null` against a typed column.
    Null(&'a NullBitmap),
    /// An `Int` against an `Int` slab.
    Int(&'a [i64], &'a NullBitmap, i64),
    /// A `Float` against a `Float` slab, as canonical bits.
    Float(&'a [f64], &'a NullBitmap, u64),
    /// A string against a dictionary-coded column, as its code.
    Code(&'a [u32], &'a NullBitmap, u32),
    /// A string the column's dictionary does not hold.
    Never,
    /// Any other pairing, compared cell by cell.
    Cell(&'a Column, &'a Value),
}

impl<'a> CellProbe<'a> {
    /// Compile `v` against `col`.
    pub fn new(col: &'a Column, v: &'a Value) -> Self {
        match (col, v) {
            (Column::Int(c), Value::Null) => CellProbe::Null(&c.nulls),
            (Column::Float(c), Value::Null) => CellProbe::Null(&c.nulls),
            (Column::Str(c), Value::Null) => CellProbe::Null(&c.nulls),
            (Column::Int(c), Value::Int(x)) => CellProbe::Int(c.data.as_slice(), &c.nulls, *x),
            (Column::Float(c), Value::Float(f)) => {
                CellProbe::Float(c.data.as_slice(), &c.nulls, canon_f64(*f).to_bits())
            }
            (Column::Str(c), Value::Str(s)) => match c.dict.code_of(s) {
                Some(code) => CellProbe::Code(c.codes.as_slice(), &c.nulls, code),
                None => CellProbe::Never,
            },
            _ => CellProbe::Cell(col, v),
        }
    }

    /// Whether the cell at row `i` equals the value.
    #[inline]
    pub fn matches(&self, i: usize) -> bool {
        match *self {
            CellProbe::Null(nulls) => nulls.get(i),
            CellProbe::Int(data, nulls, x) => data[i] == x && !nulls.get(i),
            CellProbe::Float(data, nulls, bits) => data[i].to_bits() == bits && !nulls.get(i),
            CellProbe::Code(codes, nulls, code) => codes[i] == code && !nulls.get(i),
            CellProbe::Never => false,
            CellProbe::Cell(col, v) => col.get(i) == *v,
        }
    }

    /// The ids among `rows` that match, in the order given: one loop per
    /// probe kind, so the kind is not re-tested per row. The compiler
    /// does not hoist that test out of `rows.filter(|&i| self.matches(i))`,
    /// which made condition 4a's scan 2–3× slower on DBLP 100k: 0.9–1.7
    /// → 2.9–3.8 ms per explain over five alternating in-process runs
    /// (release build, 2-CPU VM).
    fn keep(&self, rows: impl Iterator<Item = usize>) -> Vec<usize> {
        match *self {
            CellProbe::Null(nulls) => rows.filter(|&i| nulls.get(i)).collect(),
            CellProbe::Int(data, nulls, x) => {
                rows.filter(|&i| data[i] == x && !nulls.get(i)).collect()
            }
            CellProbe::Float(data, nulls, bits) => {
                rows.filter(|&i| data[i].to_bits() == bits && !nulls.get(i)).collect()
            }
            CellProbe::Code(codes, nulls, code) => {
                rows.filter(|&i| codes[i] == code && !nulls.get(i)).collect()
            }
            CellProbe::Never => Vec::new(),
            CellProbe::Cell(col, v) => rows.filter(|&i| col.get(i) == *v).collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Schema;
    use crate::value::{Value, ValueType};

    fn rel() -> Relation {
        let schema = Schema::new([("a", ValueType::Int), ("b", ValueType::Str)]).unwrap();
        Relation::from_rows(
            schema,
            (0..10)
                .map(|i| vec![Value::Int(i), Value::str(if i % 2 == 0 { "even" } else { "odd" })]),
        )
        .unwrap()
    }

    #[test]
    fn select_by_predicate() {
        let r = rel();
        let out = select(&r, &Predicate::Eq(1, Value::str("even")));
        assert_eq!(out.num_rows(), 5);
        assert!(out.iter_rows().all(|row| row[1] == Value::str("even")));
    }

    #[test]
    fn select_true_is_identity() {
        let r = rel();
        let out = select(&r, &Predicate::True);
        assert_eq!(out.num_rows(), r.num_rows());
    }

    #[test]
    fn filter_by_closure() {
        let r = rel();
        let out = filter(&r, |rel, i| rel.value(i, 0).as_i64().unwrap() >= 7);
        assert_eq!(out.num_rows(), 3);
    }

    #[test]
    fn empty_result() {
        let r = rel();
        let out = select(&r, &Predicate::Eq(0, Value::Int(99)));
        assert!(out.is_empty());
        assert_eq!(out.schema(), r.schema());
    }
}
