//! Aggregate functions and their streaming accumulators.

use crate::error::{DataError, Result};
use crate::schema::AttrId;
use crate::value::Value;
use std::fmt;

/// The aggregate functions supported by CAPE patterns
/// (`count`, `sum`, `min`, `max` per Definition 2; `avg` added for the
/// baseline explainer).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AggFunc {
    /// Row / non-null count.
    Count,
    /// Numeric sum.
    Sum,
    /// Numeric minimum.
    Min,
    /// Numeric maximum.
    Max,
    /// Numeric mean (extension; not in Definition 2).
    Avg,
}

impl AggFunc {
    /// All functions usable inside an ARP (Definition 2 of the paper).
    pub const ARP_FUNCS: [AggFunc; 4] = [AggFunc::Count, AggFunc::Sum, AggFunc::Min, AggFunc::Max];

    /// SQL-ish name.
    pub fn name(self) -> &'static str {
        match self {
            AggFunc::Count => "count",
            AggFunc::Sum => "sum",
            AggFunc::Min => "min",
            AggFunc::Max => "max",
            AggFunc::Avg => "avg",
        }
    }

    /// Whether the function needs a numeric input attribute.
    pub fn requires_numeric(self) -> bool {
        !matches!(self, AggFunc::Count)
    }
}

impl fmt::Display for AggFunc {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// An aggregate call: function plus input attribute (`None` = `count(*)`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct AggSpec {
    /// The aggregate function.
    pub func: AggFunc,
    /// The aggregated attribute (`None` = `count(*)`).
    pub attr: Option<AttrId>,
}

impl AggSpec {
    /// `count(*)`.
    pub fn count_star() -> Self {
        AggSpec { func: AggFunc::Count, attr: None }
    }

    /// An aggregate over a specific attribute.
    pub fn over(func: AggFunc, attr: AttrId) -> Self {
        AggSpec { func, attr: Some(attr) }
    }

    /// Output column name, e.g. `count(*)` or `sum(price)`.
    pub fn output_name(&self, attr_name: Option<&str>) -> String {
        match (self.func, attr_name) {
            (AggFunc::Count, None) => "count(*)".to_string(),
            (f, Some(a)) => format!("{f}({a})"),
            (f, None) => format!("{f}(*)"),
        }
    }
}

/// Streaming accumulator for one aggregate over one group.
#[derive(Debug, Clone)]
pub enum Accumulator {
    /// Running count.
    Count(u64),
    /// Running sum.
    Sum(f64),
    /// Running minimum (`None` until the first non-null input).
    Min(Option<f64>),
    /// Running maximum (`None` until the first non-null input).
    Max(Option<f64>),
    /// Running mean state.
    Avg {
        /// Sum of non-null inputs.
        sum: f64,
        /// Count of non-null inputs.
        n: u64,
    },
}

impl Accumulator {
    /// Fresh accumulator for a function.
    pub fn new(func: AggFunc) -> Self {
        match func {
            AggFunc::Count => Accumulator::Count(0),
            AggFunc::Sum => Accumulator::Sum(0.0),
            AggFunc::Min => Accumulator::Min(None),
            AggFunc::Max => Accumulator::Max(None),
            AggFunc::Avg => Accumulator::Avg { sum: 0.0, n: 0 },
        }
    }

    /// Resume the fold whose [`finish`](Self::finish) was `stored`, as a
    /// grouped relation's aggregate column keeps it: folding further
    /// inputs then gives, bit for bit once stored, what one fold of all
    /// of them gives. `None` for `avg`, whose stored mean does not
    /// determine its running sum, and for a value `finish` cannot return.
    pub fn resume(func: AggFunc, stored: &Value) -> Option<Self> {
        match (func, stored) {
            (AggFunc::Count, Value::Int(n)) => u64::try_from(*n).ok().map(Accumulator::Count),
            (AggFunc::Sum, Value::Float(s)) => Some(Accumulator::Sum(*s)),
            (AggFunc::Min, Value::Null) => Some(Accumulator::Min(None)),
            (AggFunc::Min, Value::Float(m)) => Some(Accumulator::Min(Some(*m))),
            (AggFunc::Max, Value::Null) => Some(Accumulator::Max(None)),
            (AggFunc::Max, Value::Float(m)) => Some(Accumulator::Max(Some(*m))),
            _ => None,
        }
    }

    /// Fold in one input value. `value` is `None` for `count(*)`.
    /// `Null` inputs are skipped for value aggregates (SQL semantics) but
    /// counted by `count(*)`.
    pub fn update(&mut self, value: Option<&Value>) -> Result<()> {
        match self {
            Accumulator::Count(n) => {
                // count(attr) skips NULLs; count(*) counts every row.
                match value {
                    Some(v) if v.is_null() => {}
                    _ => *n += 1,
                }
            }
            Accumulator::Sum(s) => {
                if let Some(v) = value {
                    if !v.is_null() {
                        *s += numeric(v)?;
                    }
                }
            }
            Accumulator::Min(m) => {
                if let Some(v) = value {
                    if !v.is_null() {
                        let x = numeric(v)?;
                        *m = Some(m.map_or(x, |cur| cur.min(x)));
                    }
                }
            }
            Accumulator::Max(m) => {
                if let Some(v) = value {
                    if !v.is_null() {
                        let x = numeric(v)?;
                        *m = Some(m.map_or(x, |cur| cur.max(x)));
                    }
                }
            }
            Accumulator::Avg { sum, n } => {
                if let Some(v) = value {
                    if !v.is_null() {
                        *sum += numeric(v)?;
                        *n += 1;
                    }
                }
            }
        }
        Ok(())
    }

    /// Final aggregate value (`Null` for min/max/avg of an empty group).
    pub fn finish(&self) -> Value {
        match self {
            Accumulator::Count(n) => Value::Int(*n as i64),
            Accumulator::Sum(s) => Value::Float(*s),
            Accumulator::Min(m) | Accumulator::Max(m) => m.map_or(Value::Null, Value::Float),
            Accumulator::Avg { sum, n } => {
                if *n == 0 {
                    Value::Null
                } else {
                    Value::Float(sum / *n as f64)
                }
            }
        }
    }
}

fn numeric(v: &Value) -> Result<f64> {
    v.as_f64().ok_or(DataError::TypeMismatch {
        expected: "numeric",
        actual: match v {
            Value::Str(_) => "str",
            Value::Null => "null",
            _ => "other",
        },
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(func: AggFunc, inputs: &[Value]) -> Value {
        let mut acc = Accumulator::new(func);
        for v in inputs {
            acc.update(Some(v)).unwrap();
        }
        acc.finish()
    }

    #[test]
    fn count_star_counts_every_row() {
        let mut acc = Accumulator::new(AggFunc::Count);
        acc.update(None).unwrap();
        acc.update(None).unwrap();
        assert_eq!(acc.finish(), Value::Int(2));
    }

    #[test]
    fn count_attr_skips_nulls() {
        let v = run(AggFunc::Count, &[Value::Int(1), Value::Null, Value::Int(3)]);
        assert_eq!(v, Value::Int(2));
    }

    #[test]
    fn sum_min_max_avg() {
        let xs = [Value::Int(4), Value::Float(1.5), Value::Null, Value::Int(-2)];
        assert_eq!(run(AggFunc::Sum, &xs), Value::Float(3.5));
        assert_eq!(run(AggFunc::Min, &xs), Value::Float(-2.0));
        assert_eq!(run(AggFunc::Max, &xs), Value::Float(4.0));
        assert_eq!(run(AggFunc::Avg, &xs), Value::Float(3.5 / 3.0));
    }

    #[test]
    fn empty_groups_yield_null_or_zero() {
        assert_eq!(Accumulator::new(AggFunc::Min).finish(), Value::Null);
        assert_eq!(Accumulator::new(AggFunc::Max).finish(), Value::Null);
        assert_eq!(Accumulator::new(AggFunc::Avg).finish(), Value::Null);
        assert_eq!(Accumulator::new(AggFunc::Sum).finish(), Value::Float(0.0));
        assert_eq!(Accumulator::new(AggFunc::Count).finish(), Value::Int(0));
    }

    #[test]
    fn non_numeric_input_rejected() {
        let mut acc = Accumulator::new(AggFunc::Sum);
        assert!(acc.update(Some(&Value::str("x"))).is_err());
    }

    #[test]
    fn spec_names() {
        assert_eq!(AggSpec::count_star().output_name(None), "count(*)");
        assert_eq!(AggSpec::over(AggFunc::Sum, 2).output_name(Some("price")), "sum(price)");
        assert!(AggFunc::Sum.requires_numeric());
        assert!(!AggFunc::Count.requires_numeric());
    }
}
