//! User questions (Definition 1): "why is this aggregate value high/low?".

use cape_data::ops::rows_matching;
use cape_data::{AggFunc, AttrId, Schema, Value};

/// Whether the user considers the value higher or lower than expected.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Direction {
    /// The value is higher than the user expected.
    High,
    /// The value is lower than the user expected.
    Low,
}

impl Direction {
    /// The `isLow` factor of the scoring function (Definition 10):
    /// `1` for low questions, `−1` for high questions.
    pub fn is_low_sign(self) -> f64 {
        match self {
            Direction::Low => 1.0,
            Direction::High => -1.0,
        }
    }

    /// A counterbalance must deviate in the opposite direction: positive
    /// deviation for a low question, negative for a high question.
    pub fn counterbalances(self, deviation: f64) -> bool {
        match self {
            Direction::Low => deviation > 0.0,
            Direction::High => deviation < 0.0,
        }
    }
}

impl std::fmt::Display for Direction {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Direction::High => "high",
            Direction::Low => "low",
        })
    }
}

/// A user question `φ = (Q, R, t, dir)` (Definition 1) about the result of
/// `Q = γ_{G, agg(A)}(R)`. The relation `R` is passed separately to the
/// explanation APIs; the question records the query shape and the tuple.
#[derive(Debug, Clone, PartialEq)]
pub struct UserQuestion {
    /// Group-by attributes `G` of the aggregate query (base-schema ids).
    pub group_attrs: Vec<AttrId>,
    /// The aggregate function of the query.
    pub agg: AggFunc,
    /// Aggregated attribute (`None` = `count(*)`).
    pub agg_attr: Option<AttrId>,
    /// The group-by values of the questioned tuple `t`, aligned with
    /// `group_attrs`.
    pub tuple: Vec<Value>,
    /// The aggregate value `t[agg(A)]` the user finds surprising.
    pub agg_value: f64,
    /// Whether the value is surprisingly high or low.
    pub dir: Direction,
}

impl UserQuestion {
    /// Construct a question; `tuple` must align with `group_attrs`.
    ///
    /// # Panics
    /// Panics if the lengths differ (a programming error).
    pub fn new(
        group_attrs: Vec<AttrId>,
        agg: AggFunc,
        agg_attr: Option<AttrId>,
        tuple: Vec<Value>,
        agg_value: f64,
        dir: Direction,
    ) -> Self {
        assert_eq!(group_attrs.len(), tuple.len(), "tuple must align with group attrs");
        UserQuestion { group_attrs, agg, agg_attr, tuple, agg_value, dir }
    }

    /// Build a question by evaluating the aggregate of `t`'s group on
    /// `rel` — so the question's `agg_value` always matches the data.
    ///
    /// Only the rows of `t`'s group are read: they are found with
    /// [`rows_matching`] and one accumulator is folded over
    /// them in ascending row order, which is the order `aggregate` folds
    /// the same group in, so `agg_value` is bit-identical to the value in
    /// `γ_{G, agg(A)}(rel)`. A non-numeric cell of a `Mixed` aggregate
    /// column therefore fails only questions about its own group.
    ///
    /// Returns an error when an attribute id is unknown, the aggregate
    /// needs a numeric attribute, or the tuple does not align with `G` or
    /// does not appear in the result.
    pub fn from_query(
        rel: &cape_data::Relation,
        group_attrs: Vec<AttrId>,
        agg: AggFunc,
        agg_attr: Option<AttrId>,
        tuple: Vec<Value>,
        dir: Direction,
    ) -> crate::error::Result<Self> {
        use crate::error::CapeError;
        use cape_data::agg::Accumulator;
        use cape_data::column::canon_f64;
        use cape_data::DataError;
        // The checks `aggregate` makes before it groups, in its order.
        if let Some(a) = agg_attr {
            let attr = rel.schema().attr(a)?;
            if agg.requires_numeric() && !attr.value_type().is_numeric() {
                return Err(DataError::NonNumericAggregate(attr.name().to_string()).into());
            }
        }
        rel.schema().project(&group_attrs)?;
        if group_attrs.len() != tuple.len() {
            return Err(CapeError::InvalidQuestion("tuple must align with group attrs".into()));
        }
        let rows = rows_matching(rel, &group_attrs, &tuple);
        if rows.is_empty() {
            return Err(CapeError::InvalidQuestion(format!(
                "tuple {tuple:?} not in the query result"
            )));
        }
        let mut acc = Accumulator::new(agg);
        for i in rows {
            acc.update(agg_attr.map(|a| rel.value(i, a)).as_ref())?;
        }
        // The grouped relation stores a float aggregate in a float slab,
        // which canonicalizes it; do the same.
        let agg_value = match acc.finish() {
            Value::Float(f) => Some(canon_f64(f)),
            other => other.as_f64(),
        }
        .ok_or_else(|| CapeError::InvalidQuestion("non-numeric aggregate".into()))?;
        Ok(UserQuestion::new(group_attrs, agg, agg_attr, tuple, agg_value, dir))
    }

    /// Build a question from a SQL aggregate query of the paper's shape
    /// (`SELECT G, agg(A) FROM R GROUP BY G`, Definition 1) plus the
    /// group-by values of the surprising tuple.
    ///
    /// The query may not contain WHERE/ORDER/LIMIT — a CAPE question is
    /// about a plain group-by aggregation over the full relation.
    pub fn from_sql(
        rel: &cape_data::Relation,
        sql: &str,
        tuple: Vec<Value>,
        dir: Direction,
    ) -> crate::error::Result<Self> {
        use cape_data::sql::{parse, SelectItem};
        let invalid = |m: String| crate::error::CapeError::InvalidQuestion(m);
        let stmt = parse(sql).map_err(|e| invalid(e.to_string()))?;
        if !stmt.is_cape_query() {
            return Err(invalid(
                "question queries must have the shape SELECT G, agg(A) FROM R GROUP BY G"
                    .to_string(),
            ));
        }
        if stmt.selection.is_some() || !stmt.order_by.is_empty() || stmt.limit.is_some() {
            return Err(invalid(
                "question queries may not use WHERE / ORDER BY / LIMIT".to_string(),
            ));
        }
        let group_attrs: crate::error::Result<Vec<AttrId>> = stmt
            .group_by
            .iter()
            .map(|name| rel.schema().attr_id(name).map_err(crate::error::CapeError::from))
            .collect();
        let agg_item = stmt
            .items
            .iter()
            .find_map(|i| match i {
                SelectItem::Aggregate { call, .. } => Some(call.clone()),
                _ => None,
            })
            .expect("is_cape_query guarantees one aggregate");
        let agg_attr = match &agg_item.arg {
            Some(name) => Some(
                rel.schema()
                    .attr_id(name)
                    .map_err(|_| crate::error::CapeError::UnknownAggregateColumn(name.clone()))?,
            ),
            None => None,
        };
        Self::from_query(rel, group_attrs?, agg_item.func, agg_attr, tuple, dir)
    }

    /// Build a **zero-count question**: "why did this group not appear at
    /// all?" — the missing-answer case the paper's conclusion names as an
    /// open problem (e.g. *AX had no SIGKDD paper in 2007 at all*).
    ///
    /// The tuple must be *absent* from `γ_{G, count(*)}(rel)` while every
    /// individual value exists somewhere in its attribute's column
    /// (otherwise the question is about a value the data has never seen
    /// and no pattern could possibly relate to it). The direction is
    /// necessarily [`Direction::Low`] and the aggregate `count(*) = 0`.
    pub fn zero_count(
        rel: &cape_data::Relation,
        group_attrs: Vec<AttrId>,
        tuple: Vec<Value>,
    ) -> crate::error::Result<Self> {
        use crate::error::CapeError;
        if group_attrs.len() != tuple.len() {
            return Err(CapeError::InvalidQuestion("tuple must align with group attrs".into()));
        }
        // Each value must occur in its column…
        for (&a, v) in group_attrs.iter().zip(&tuple) {
            rel.schema().attr(a).map_err(CapeError::Data)?;
            if rows_matching(rel, &[a], std::slice::from_ref(v)).is_empty() {
                return Err(CapeError::InvalidQuestion(format!(
                    "value {v} never occurs in attribute #{a}; cannot pose a question about it"
                )));
            }
        }
        // …but the combination must not.
        if !rows_matching(rel, &group_attrs, &tuple).is_empty() {
            return Err(CapeError::InvalidQuestion(
                "the group exists — use from_query for questions about existing answers".into(),
            ));
        }
        Ok(UserQuestion::new(group_attrs, AggFunc::Count, None, tuple, 0.0, Direction::Low))
    }

    /// The questioned tuple's value for a base attribute, if grouped on it.
    pub fn value_of(&self, attr: AttrId) -> Option<&Value> {
        self.group_attrs.iter().position(|&a| a == attr).map(|i| &self.tuple[i])
    }

    /// Values for several attributes (all must be in `G`), e.g. `t[F]`.
    pub fn values_of(&self, attrs: &[AttrId]) -> Option<Vec<Value>> {
        attrs.iter().map(|&a| self.value_of(a).cloned()).collect()
    }

    /// Whether every attribute in `attrs` is part of the question's `G`
    /// (the "generalizes φ" half of relevance, Definition 5).
    pub fn covers_attrs(&self, attrs: &[AttrId]) -> bool {
        attrs.iter().all(|a| self.group_attrs.contains(a))
    }

    /// Render like `why is count(*) = 1 for (author=AX, venue=SIGKDD,
    /// year=2007) low?`.
    pub fn display(&self, schema: &Schema) -> String {
        let parts: Vec<String> = self
            .group_attrs
            .iter()
            .zip(&self.tuple)
            .map(|(&a, v)| {
                let name = schema
                    .attr(a)
                    .map(|at| at.name().to_string())
                    .unwrap_or_else(|_| format!("#{a}"));
                format!("{name}={v}")
            })
            .collect();
        let agg_name = match self.agg_attr {
            Some(a) => {
                schema.attr(a).map(|at| at.name().to_string()).unwrap_or_else(|_| format!("#{a}"))
            }
            None => "*".to_string(),
        };
        format!(
            "why is {}({}) = {} for ({}) {}?",
            self.agg,
            agg_name,
            self.agg_value,
            parts.join(", "),
            self.dir
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cape_data::{Schema, ValueType};

    fn q() -> UserQuestion {
        UserQuestion::new(
            vec![0, 3, 2],
            AggFunc::Count,
            None,
            vec![Value::str("AX"), Value::str("SIGKDD"), Value::Int(2007)],
            1.0,
            Direction::Low,
        )
    }

    #[test]
    fn direction_semantics() {
        assert_eq!(Direction::Low.is_low_sign(), 1.0);
        assert_eq!(Direction::High.is_low_sign(), -1.0);
        assert!(Direction::Low.counterbalances(2.0));
        assert!(!Direction::Low.counterbalances(-2.0));
        assert!(!Direction::Low.counterbalances(0.0));
        assert!(Direction::High.counterbalances(-0.1));
        assert!(!Direction::High.counterbalances(0.1));
        assert_eq!(Direction::Low.to_string(), "low");
    }

    #[test]
    fn attribute_lookup() {
        let uq = q();
        assert_eq!(uq.value_of(3), Some(&Value::str("SIGKDD")));
        assert_eq!(uq.value_of(1), None);
        assert_eq!(uq.values_of(&[2, 0]), Some(vec![Value::Int(2007), Value::str("AX")]));
        assert_eq!(uq.values_of(&[1]), None);
        assert!(uq.covers_attrs(&[0, 2]));
        assert!(!uq.covers_attrs(&[0, 1]));
    }

    #[test]
    #[should_panic(expected = "align")]
    fn misaligned_tuple_rejected() {
        UserQuestion::new(
            vec![0, 1],
            AggFunc::Count,
            None,
            vec![Value::Int(1)],
            1.0,
            Direction::Low,
        );
    }

    #[test]
    fn from_query_reads_the_actual_value() {
        use cape_data::ops::aggregate;
        use cape_data::{AggSpec, Relation, Schema, ValueType};
        let schema = Schema::new([
            ("author", ValueType::Str),
            ("year", ValueType::Int),
            ("score", ValueType::Float),
        ])
        .unwrap();
        let row = |author: Option<&str>, year, score| {
            vec![author.map_or(Value::Null, Value::str), Value::Int(year), Value::Float(score)]
        };
        let rel = Relation::from_rows(
            schema,
            vec![
                row(Some("AX"), 2007, 0.1),
                row(Some("AX"), 2007, 0.2),
                row(Some("AX"), 2008, 0.3),
                row(None, 2008, 1e16),
                row(None, 2008, 1.0),
                row(None, 2008, -1e16),
            ],
        )
        .unwrap();
        let uq = UserQuestion::from_query(
            &rel,
            vec![0, 1],
            AggFunc::Count,
            None,
            vec![Value::str("AX"), Value::Int(2007)],
            Direction::Low,
        )
        .unwrap();
        assert_eq!(uq.agg_value, 2.0);
        // Every group, the NULL author's included, reads the aggregate's
        // value bit for bit, float sums and means too (their fold order
        // shows in the low bits).
        for (agg, attr) in
            [(AggFunc::Count, None), (AggFunc::Sum, Some(2)), (AggFunc::Avg, Some(2))]
        {
            let result = aggregate(&rel, &[0, 1], &[AggSpec { func: agg, attr }]).unwrap().relation;
            for i in 0..result.num_rows() {
                let tuple = result.row_project(i, &[0, 1]);
                let uq =
                    UserQuestion::from_query(&rel, vec![0, 1], agg, attr, tuple, Direction::Low)
                        .unwrap();
                let want = result.value(i, 2).as_f64().unwrap();
                assert_eq!(uq.agg_value.to_bits(), want.to_bits(), "{agg} of group {i}");
            }
        }
        // Missing tuple is rejected.
        let missing = UserQuestion::from_query(
            &rel,
            vec![0, 1],
            AggFunc::Count,
            None,
            vec![Value::str("AX"), Value::Int(1999)],
            Direction::Low,
        );
        assert!(missing.is_err());
    }

    #[test]
    fn from_sql_parses_the_paper_question() {
        use cape_data::{Relation, Schema, ValueType};
        let schema = Schema::new([
            ("author", ValueType::Str),
            ("year", ValueType::Int),
            ("venue", ValueType::Str),
        ])
        .unwrap();
        let rel = Relation::from_rows(
            schema,
            vec![
                vec![Value::str("AX"), Value::Int(2007), Value::str("SIGKDD")],
                vec![Value::str("AX"), Value::Int(2007), Value::str("ICDE")],
                vec![Value::str("AX"), Value::Int(2007), Value::str("ICDE")],
            ],
        )
        .unwrap();
        let uq = UserQuestion::from_sql(
            &rel,
            "SELECT author, year, venue, count(*) AS pubcnt FROM Pub GROUP BY author, year, venue",
            vec![Value::str("AX"), Value::Int(2007), Value::str("SIGKDD")],
            Direction::Low,
        )
        .unwrap();
        assert_eq!(uq.group_attrs, vec![0, 1, 2]);
        assert_eq!(uq.agg, AggFunc::Count);
        assert_eq!(uq.agg_value, 1.0);

        // Wrong shapes are rejected.
        for bad in [
            "SELECT author FROM pub",                                   // no aggregate
            "SELECT author, count(*) FROM pub GROUP BY author LIMIT 3", // limit
            "SELECT author, count(*) FROM pub WHERE year = 2007 GROUP BY author", // where
            "SELECT venue, count(*) FROM pub GROUP BY author",          // projection ≠ G
        ] {
            let r = UserQuestion::from_sql(&rel, bad, vec![Value::str("AX")], Direction::Low);
            assert!(r.is_err(), "should reject `{bad}`");
        }
    }

    #[test]
    fn display_mentions_everything() {
        let schema = Schema::new([
            ("author", ValueType::Str),
            ("pubid", ValueType::Str),
            ("year", ValueType::Int),
            ("venue", ValueType::Str),
        ])
        .unwrap();
        let s = q().display(&schema);
        assert!(s.contains("author=AX"));
        assert!(s.contains("venue=SIGKDD"));
        assert!(s.contains("count(*) = 1"));
        assert!(s.contains("low"));
    }
}
