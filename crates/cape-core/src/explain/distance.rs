//! Tuple distance (Definition 9): weighted L2 over per-attribute distances.
//!
//! Default per-attribute distances follow the paper's description: an
//! attribute's domain is (implicitly) partitioned into proximity classes —
//! identical values have distance 0, nearby values low distance, far
//! values distance 1. For numeric attributes we realize this with a
//! scaled absolute difference `min(1, |a−b| / scale)`; for categorical
//! attributes with exact match (optionally a user-supplied class map,
//! e.g. adjacent community areas). Attributes present in only one of the
//! two schemas contribute the maximal distance 1.

use cape_data::ops::CellProbe;
use cape_data::stats::attr_range;
use cape_data::{AttrId, Column, Relation, Value};
use std::borrow::Cow;
use std::collections::HashMap;

/// Distance between two values of one attribute, in `[0, 1]`.
#[derive(Debug, Clone)]
pub enum AttrDistanceFn {
    /// `min(1, |a − b| / scale)` for numeric values; 1 when either side is
    /// non-numeric and they differ.
    NumericScaled {
        /// Difference treated as "maximally far".
        scale: f64,
    },
    /// 0 if equal, 1 otherwise.
    Exact,
    /// Class-based: 0 if equal, `within_class` if both values map to the
    /// same class, 1 otherwise (values missing from the map are their own
    /// class).
    Classes {
        /// Value → class id.
        classes: HashMap<Value, u32>,
        /// Distance for distinct values within one class.
        within_class: f64,
    },
}

impl AttrDistanceFn {
    /// Evaluate the distance.
    pub fn dist(&self, a: &Value, b: &Value) -> f64 {
        if a == b {
            return 0.0;
        }
        self.dist_apart(a, b.as_f64(), || Cow::Borrowed(b))
    }

    /// [`dist`](Self::dist) from `a` to the cell at row `row` of `col`,
    /// with `probe` being `a` compiled against `col`. The cell is
    /// materialized only for a class map's lookup.
    fn dist_to_cell(&self, a: &Value, col: &Column, probe: &CellProbe<'_>, row: usize) -> f64 {
        if probe.matches(row) {
            return 0.0;
        }
        self.dist_apart(a, col.get_f64(row), || Cow::Owned(col.get(row)))
    }

    /// The distance between `a` and a value `b` that differs from it,
    /// given `b`'s numeric view and a way to get `b` itself.
    fn dist_apart<'b>(
        &self,
        a: &Value,
        b_num: Option<f64>,
        b: impl FnOnce() -> Cow<'b, Value>,
    ) -> f64 {
        match self {
            AttrDistanceFn::NumericScaled { scale } => match (a.as_f64(), b_num) {
                (Some(x), Some(y)) => ((x - y).abs() / scale.max(f64::MIN_POSITIVE)).min(1.0),
                _ => 1.0,
            },
            AttrDistanceFn::Exact => 1.0,
            AttrDistanceFn::Classes { classes, within_class } => {
                match (classes.get(a), classes.get(b().as_ref())) {
                    (Some(ca), Some(cb)) if ca == cb => *within_class,
                    _ => 1.0,
                }
            }
        }
    }
}

/// Per-attribute weights and distance functions for one base relation.
#[derive(Debug, Clone)]
pub struct DistanceModel {
    weights: Vec<f64>,
    fns: Vec<AttrDistanceFn>,
}

impl DistanceModel {
    /// The paper's defaults: equal weights for all attributes; numeric
    /// attributes use a scaled difference with `scale = max(1, range/4)`
    /// (a quarter of the observed range counts as "far"), categorical
    /// attributes use exact matching.
    pub fn default_for(rel: &Relation) -> Self {
        let arity = rel.schema().arity();
        let weights = vec![1.0 / arity.max(1) as f64; arity];
        let fns = (0..arity)
            .map(|a| {
                let ty = rel.schema().attr(a).expect("valid id").value_type();
                if ty.is_numeric() {
                    let scale =
                        attr_range(rel, a).ok().flatten().map_or(1.0, |r| (r / 4.0).max(1.0));
                    AttrDistanceFn::NumericScaled { scale }
                } else {
                    AttrDistanceFn::Exact
                }
            })
            .collect();
        DistanceModel { weights, fns }
    }

    /// Construct with explicit weights (will be normalized to sum 1) and
    /// distance functions; lengths must equal the base-schema arity.
    pub fn new(weights: Vec<f64>, fns: Vec<AttrDistanceFn>) -> Self {
        assert_eq!(weights.len(), fns.len(), "weights and fns must align");
        let total: f64 = weights.iter().sum();
        assert!(total > 0.0, "weights must not all be zero");
        let weights = weights.into_iter().map(|w| w / total).collect();
        DistanceModel { weights, fns }
    }

    /// Replace the distance function for one attribute (e.g. install a
    /// class map for community areas).
    pub fn set_fn(&mut self, attr: AttrId, f: AttrDistanceFn) {
        self.fns[attr] = f;
    }

    /// Number of base attributes covered.
    pub fn arity(&self) -> usize {
        self.weights.len()
    }

    /// The distance of Definition 9 between tuple `t1` (attributes
    /// `attrs1`, values `vals1`) and `t2`:
    ///
    /// `d(t1, t2) = sqrt( (1/W) Σ_{A ∈ T1∪T2} w_A · d_A(t1[A], t2[A])² )`
    ///
    /// with `d_A = 1` for attributes appearing in only one schema and
    /// `W = Σ_{A ∈ T1∪T2} w_A`.
    pub fn tuple_distance(
        &self,
        attrs1: &[AttrId],
        vals1: &[Value],
        attrs2: &[AttrId],
        vals2: &[Value],
    ) -> f64 {
        debug_assert_eq!(attrs1.len(), vals1.len());
        debug_assert_eq!(attrs2.len(), vals2.len());
        let mut w_total = 0.0;
        let mut acc = 0.0;
        // Attributes of t1 (shared or t1-only).
        for (&a, v1) in attrs1.iter().zip(vals1) {
            let w = self.weights[a];
            w_total += w;
            let d = match attrs2.iter().position(|&b| b == a) {
                Some(j) => self.fns[a].dist(v1, &vals2[j]),
                None => 1.0,
            };
            acc += w * d * d;
        }
        // Attributes only in t2.
        for &b in attrs2 {
            if !attrs1.contains(&b) {
                let w = self.weights[b];
                w_total += w;
                acc += w; // d = 1, squared
            }
        }
        if w_total == 0.0 {
            return 0.0;
        }
        (acc / w_total).sqrt()
    }

    /// [`tuple_distance`](Self::tuple_distance) from `t1` to each row of
    /// `rel`, read in place: `t2` is a row over the columns `cols2`,
    /// aligned with `attrs2`. `t1`'s values are compiled against those
    /// columns once; [`RowDistance::at`] then does `tuple_distance`'s
    /// operations in the same order, so the two agree bit for bit.
    pub fn to_rows<'a>(
        &'a self,
        attrs1: &'a [AttrId],
        vals1: &'a [Value],
        attrs2: &[AttrId],
        rel: &'a Relation,
        cols2: &[usize],
    ) -> RowDistance<'a> {
        debug_assert_eq!(attrs1.len(), vals1.len());
        debug_assert_eq!(attrs2.len(), cols2.len());
        let mut w_total = 0.0;
        let mut t1 = Vec::with_capacity(attrs1.len());
        for (&a, v1) in attrs1.iter().zip(vals1) {
            w_total += self.weights[a];
            let shared = attrs2.iter().position(|&b| b == a).map(|j| {
                let col = rel.col(cols2[j]);
                (col, CellProbe::new(col, v1))
            });
            t1.push((a, v1, shared));
        }
        let mut t2_only = Vec::new();
        for &b in attrs2 {
            if !attrs1.contains(&b) {
                w_total += self.weights[b];
                t2_only.push(b);
            }
        }
        RowDistance { model: self, t1, t2_only, w_total }
    }

    /// Lower bound `d_↓(φ, P')` on the distance between the question tuple
    /// (schema `attrs1`) and *any* tuple over schema `attrs2` (§3.5):
    /// attributes in the symmetric difference are guaranteed to contribute
    /// the maximal distance 1; shared attributes may contribute 0.
    pub fn lower_bound(&self, attrs1: &[AttrId], attrs2: &[AttrId]) -> f64 {
        let mut w_total = 0.0;
        let mut acc = 0.0;
        for &a in attrs1 {
            w_total += self.weights[a];
            if !attrs2.contains(&a) {
                acc += self.weights[a];
            }
        }
        for &b in attrs2 {
            if !attrs1.contains(&b) {
                w_total += self.weights[b];
                acc += self.weights[b];
            }
        }
        if w_total == 0.0 {
            return 0.0;
        }
        (acc / w_total).sqrt()
    }
}

/// An attribute of `t1` with its value and, when the rows have the
/// attribute too, their column with the value compiled against it.
type CompiledAttr<'a> = (AttrId, &'a Value, Option<(&'a Column, CellProbe<'a>)>);

/// One tuple `t1` compiled against the columns of a relation's rows, from
/// [`DistanceModel::to_rows`].
pub struct RowDistance<'a> {
    model: &'a DistanceModel,
    /// `t1`'s attributes, in order.
    t1: Vec<CompiledAttr<'a>>,
    /// Attributes only the rows have.
    t2_only: Vec<AttrId>,
    /// `W`, summed in `tuple_distance`'s order; it does not vary by row.
    w_total: f64,
}

impl RowDistance<'_> {
    /// The distance from `t1` to row `row`.
    pub fn at(&self, row: usize) -> f64 {
        let mut acc = 0.0;
        for (a, v1, shared) in &self.t1 {
            let w = self.model.weights[*a];
            let d = match shared {
                Some((col, probe)) => self.model.fns[*a].dist_to_cell(v1, col, probe, row),
                None => 1.0,
            };
            acc += w * d * d;
        }
        for &b in &self.t2_only {
            acc += self.model.weights[b]; // d = 1, squared
        }
        if self.w_total == 0.0 {
            return 0.0;
        }
        (acc / self.w_total).sqrt()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cape_data::{Schema, ValueType};

    fn rel() -> Relation {
        let schema = Schema::new([
            ("author", ValueType::Str),
            ("venue", ValueType::Str),
            ("year", ValueType::Int),
        ])
        .unwrap();
        let mut r = Relation::new(schema);
        for y in 2000..2017 {
            r.push_row(vec![Value::str("a"), Value::str("v"), Value::Int(y)]).unwrap();
        }
        r
    }

    #[test]
    fn numeric_scaled_distance() {
        let f = AttrDistanceFn::NumericScaled { scale: 4.0 };
        assert_eq!(f.dist(&Value::Int(2007), &Value::Int(2007)), 0.0);
        assert!((f.dist(&Value::Int(2007), &Value::Int(2006)) - 0.25).abs() < 1e-12);
        assert_eq!(f.dist(&Value::Int(2007), &Value::Int(2020)), 1.0);
        assert_eq!(f.dist(&Value::Int(2007), &Value::str("x")), 1.0);
    }

    #[test]
    fn class_distance() {
        let mut classes = HashMap::new();
        classes.insert(Value::Int(25), 1u32);
        classes.insert(Value::Int(26), 1u32);
        classes.insert(Value::Int(77), 2u32);
        let f = AttrDistanceFn::Classes { classes, within_class: 0.5 };
        assert_eq!(f.dist(&Value::Int(25), &Value::Int(25)), 0.0);
        assert_eq!(f.dist(&Value::Int(25), &Value::Int(26)), 0.5);
        assert_eq!(f.dist(&Value::Int(25), &Value::Int(77)), 1.0);
        assert_eq!(f.dist(&Value::Int(25), &Value::Int(99)), 1.0);
    }

    #[test]
    fn defaults_scale_numeric_by_range() {
        let dm = DistanceModel::default_for(&rel());
        // year range 16 ⇒ scale 4; adjacent years at distance 0.25.
        let d = dm.tuple_distance(&[2], &[Value::Int(2007)], &[2], &[Value::Int(2006)]);
        assert!((d - 0.25).abs() < 1e-9, "d = {d}");
    }

    #[test]
    fn identical_tuples_have_zero_distance() {
        let dm = DistanceModel::default_for(&rel());
        let attrs = [0, 1, 2];
        let vals = [Value::str("a"), Value::str("v"), Value::Int(2007)];
        assert_eq!(dm.tuple_distance(&attrs, &vals, &attrs, &vals), 0.0);
    }

    #[test]
    fn missing_attributes_cost_one() {
        let dm = DistanceModel::default_for(&rel());
        // t1 over (author, venue, year), t2 over (author, year): venue
        // contributes 1², equal author/year contribute 0.
        let d = dm.tuple_distance(
            &[0, 1, 2],
            &[Value::str("a"), Value::str("v"), Value::Int(2007)],
            &[0, 2],
            &[Value::str("a"), Value::Int(2007)],
        );
        // sqrt((1/3·1)/(3·1/3)) = sqrt(1/3)
        assert!((d - (1.0f64 / 3.0).sqrt()).abs() < 1e-9, "d = {d}");
    }

    #[test]
    fn closer_years_are_closer_explanations() {
        // Ranking from the paper's Table 3: same-year other venue beats
        // adjacent-year, which beats far-year.
        let dm = DistanceModel::default_for(&rel());
        let q_attrs = [0, 1, 2];
        let q_vals = [Value::str("AX"), Value::str("SIGKDD"), Value::Int(2007)];
        let d_same_year = dm.tuple_distance(
            &q_attrs,
            &q_vals,
            &[0, 1, 2],
            &[Value::str("AX"), Value::str("ICDE"), Value::Int(2007)],
        );
        let d_adjacent = dm.tuple_distance(
            &q_attrs,
            &q_vals,
            &[0, 1, 2],
            &[Value::str("AX"), Value::str("ICDE"), Value::Int(2006)],
        );
        let d_far = dm.tuple_distance(
            &q_attrs,
            &q_vals,
            &[0, 1, 2],
            &[Value::str("AX"), Value::str("ICDE"), Value::Int(2012)],
        );
        assert!(d_same_year < d_adjacent && d_adjacent < d_far);
    }

    #[test]
    fn lower_bound_properties() {
        let dm = DistanceModel::default_for(&rel());
        // Same schema: bound 0 (values could coincide on shared attrs).
        assert_eq!(dm.lower_bound(&[0, 1, 2], &[0, 1, 2]), 0.0);
        // Disjoint additional attribute forces positive bound ≤ actual.
        let lb = dm.lower_bound(&[0, 1, 2], &[0, 2]);
        assert!(lb > 0.0);
        let actual = dm.tuple_distance(
            &[0, 1, 2],
            &[Value::str("a"), Value::str("v"), Value::Int(2007)],
            &[0, 2],
            &[Value::str("b"), Value::Int(1999)],
        );
        assert!(lb <= actual + 1e-12);
    }

    #[test]
    fn custom_weights_normalized() {
        let dm = DistanceModel::new(
            vec![2.0, 1.0, 1.0],
            vec![AttrDistanceFn::Exact, AttrDistanceFn::Exact, AttrDistanceFn::Exact],
        );
        // author mismatch weighs double: d = sqrt(0.5·1 / 1) over {author,venue}
        let d = dm.tuple_distance(
            &[0, 1],
            &[Value::str("a"), Value::str("v")],
            &[0, 1],
            &[Value::str("b"), Value::str("v")],
        );
        assert!((d - (0.5f64 / 0.75).sqrt()).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "align")]
    fn mismatched_weights_rejected() {
        DistanceModel::new(vec![1.0], vec![AttrDistanceFn::Exact, AttrDistanceFn::Exact]);
    }
}
