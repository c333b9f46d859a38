//! Pattern instances (globally holding ARPs with their local models) and
//! the pattern store queried during explanation generation.

use crate::group_data::GroupData;
use crate::pattern::Arp;
use cape_data::{AggFunc, AttrId, Schema, Value};
use cape_regress::Fitted;
use std::collections::HashMap;
use std::sync::Arc;

/// A fragment value `f = t[F]` (values in `arp.f()` order). One
/// allocation per fragment, shared by every candidate holding there and
/// by every epoch of an incrementally maintained store.
pub type FragKey = Arc<[Value]>;

/// Local models keyed by fragment value. Both halves are shared values:
/// cloning the map copies pointers, and a local pattern is never mutated,
/// only replaced.
pub type Locals = HashMap<FragKey, Arc<LocalPattern>>;

/// A pattern holding *locally* on one fragment `f ∈ frag(R, P)`
/// (Definition 3): the fitted model `g_{P,f}` plus bookkeeping used by
/// explanation scoring and pruning.
#[derive(Debug, Clone, PartialEq)]
pub struct LocalPattern {
    /// The fitted regression model and its goodness-of-fit.
    pub fitted: Fitted,
    /// Local support `|Q_{P,f}(R)|` — distinct predictor values in the fragment.
    pub support: usize,
    /// Largest positive deviation `t[agg(A)] − g(t[V])` within the fragment.
    pub max_pos_dev: f64,
    /// Most negative deviation within the fragment (≤ 0).
    pub max_neg_dev: f64,
}

/// A globally holding ARP (Definition 4) together with its local models
/// and the shared aggregate data it was mined from.
#[derive(Debug, Clone)]
pub struct PatternInstance {
    /// The pattern shape.
    pub arp: Arp,
    /// The materialized `γ_{F∪V, agg(A)}(R)` this pattern was fitted on.
    pub data: Arc<GroupData>,
    /// Column of `agg(A)` within `data.relation`.
    pub agg_col: usize,
    /// Local models keyed by the fragment value `f = t[F]`
    /// (values in `arp.f()` order).
    pub locals: Locals,
    /// Global confidence `|frag_good| / |frag_supp|`.
    pub confidence: f64,
    /// `|frag_supp|`: fragments with local support ≥ δ.
    pub num_supported: usize,
    /// Largest positive deviation across *all* fragments (pruning bound).
    pub max_pos_dev: f64,
    /// Most negative deviation across all fragments (pruning bound).
    pub max_neg_dev: f64,
}

impl PatternInstance {
    /// Global support `|frag_good|`.
    pub fn global_support(&self) -> usize {
        self.locals.len()
    }

    /// Look up the local model for fragment value `f` (in `arp.f()` order).
    pub fn local(&self, f: &[Value]) -> Option<&LocalPattern> {
        self.locals.get(f).map(Arc::as_ref)
    }

    /// Predict the aggregate for row `i` of `data.relation` using the
    /// local model of that row's fragment. Returns `None` when the
    /// pattern does not hold locally there or a predictor is non-numeric
    /// under a linear model.
    pub fn predict_row(&self, i: usize) -> Option<f64> {
        let f_key = self.data.key_of(i, self.arp.f())?;
        let local = self.local(&f_key)?;
        let x = self.predictor_vec(i)?;
        Some(local.fitted.model.predict(&x))
    }

    /// Deviation `dev_P(t)` (Definition 8) of row `i` of `data.relation`.
    pub fn deviation_row(&self, i: usize) -> Option<f64> {
        let actual = self.data.agg_value(i, self.agg_col)?;
        Some(actual - self.predict_row(i)?)
    }

    /// Numeric predictor vector of row `i` (values of `V` as `f64`).
    ///
    /// For constant models the values are not used by `predict`, but we
    /// still build the vector for uniformity; categorical predictors under
    /// a `Const` model are encoded as 0.0 placeholders.
    pub fn predictor_vec(&self, i: usize) -> Option<Vec<f64>> {
        self.predictors(i, &self.data.cols_of_attrs(self.arp.v())?)
    }

    /// [`predictor_vec`](Self::predictor_vec) with `V`'s columns in
    /// `data.relation` already looked up, for callers that visit many rows.
    pub(crate) fn predictors(&self, i: usize, v_cols: &[usize]) -> Option<Vec<f64>> {
        let needs_numeric = self.arp.model.requires_numeric_predictors();
        let mut out = Vec::with_capacity(v_cols.len());
        for &c in v_cols {
            match self.data.relation.value_f64(i, c) {
                Some(x) => out.push(x),
                None if !needs_numeric => out.push(0.0),
                None => return None,
            }
        }
        Some(out)
    }
}

/// A set of globally holding patterns, indexed for relevance and
/// refinement lookups during explanation generation.
#[derive(Debug, Clone, Default)]
pub struct PatternStore {
    instances: Vec<PatternInstance>,
    /// `refinements[i]`: ascending indices of every pattern refining
    /// pattern `i`, itself included. Kept current by [`push`](Self::push),
    /// so explanation never rescans the store for refinements.
    refinements: Vec<Vec<usize>>,
    /// Ascending indices of the patterns of each shape `(V, agg, A)`.
    /// Refinement (Definition 6) requires all three to be equal, so
    /// [`push`](Self::push) compares a new pattern within its shape only.
    by_shape: HashMap<(Vec<AttrId>, AggFunc, Option<AttrId>), Vec<usize>>,
}

impl PatternStore {
    /// Empty store.
    pub fn new() -> Self {
        PatternStore::default()
    }

    /// Build from mined instances.
    pub fn from_instances(instances: Vec<PatternInstance>) -> Self {
        let mut store = PatternStore::new();
        for instance in instances {
            store.push(instance);
        }
        store
    }

    /// Add a pattern instance; returns its index. Updates the refinement
    /// table both ways: the new pattern joins the list of every pattern
    /// it refines, and gets its own list of the patterns refining it.
    pub fn push(&mut self, instance: PatternInstance) -> usize {
        let idx = self.instances.len();
        let arp = &instance.arp;
        let shape = self.by_shape.entry((arp.v().to_vec(), arp.agg, arp.agg_attr)).or_default();
        let mut own = Vec::new();
        for &i in shape.iter() {
            let other = &self.instances[i].arp;
            if other.is_refined_by(arp) {
                self.refinements[i].push(idx);
            }
            if arp.is_refined_by(other) {
                own.push(i);
            }
        }
        shape.push(idx);
        own.push(idx);
        self.instances.push(instance);
        self.refinements.push(own);
        idx
    }

    /// Number of stored patterns.
    pub fn len(&self) -> usize {
        self.instances.len()
    }

    /// True when no pattern is stored.
    pub fn is_empty(&self) -> bool {
        self.instances.is_empty()
    }

    /// Access a pattern by index.
    pub fn get(&self, idx: usize) -> Option<&PatternInstance> {
        self.instances.get(idx)
    }

    /// Iterate over `(index, instance)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (usize, &PatternInstance)> {
        self.instances.iter().enumerate()
    }

    /// Indices of all patterns `P'` that refine the pattern at `idx`
    /// (Definition 6: `F' ⊇ F`, same `V`, same aggregate), ascending. The
    /// pattern itself is included (`P' = P`): the drill-down with
    /// `F' = F` is a legal explanation source. Empty for an unknown index.
    pub fn refinements_of(&self, idx: usize) -> &[usize] {
        self.refinements.get(idx).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Total number of local patterns across all instances — the paper's
    /// `N_P` knob in the explanation-generation experiments (§5.2).
    pub fn num_local_patterns(&self) -> usize {
        self.instances.iter().map(|p| p.locals.len()).sum()
    }

    /// Keep only the first `n` local patterns (in store order), dropping
    /// instances that lose all locals. Used by the `N_P` sweeps.
    pub fn truncate_locals(&self, n: usize) -> PatternStore {
        let mut remaining = n;
        let mut out = Vec::new();
        for inst in &self.instances {
            if remaining == 0 {
                break;
            }
            let take = inst.locals.len().min(remaining);
            remaining -= take;
            if take == inst.locals.len() {
                out.push(inst.clone());
            } else {
                // Deterministic subset: sort fragment keys.
                let mut kept: Vec<(&FragKey, &Arc<LocalPattern>)> = inst.locals.iter().collect();
                kept.sort_unstable_by(|a, b| a.0.cmp(b.0));
                let kept: Locals =
                    kept.into_iter().take(take).map(|(k, l)| (k.clone(), l.clone())).collect();
                let mut trimmed = inst.clone();
                trimmed.locals = kept;
                out.push(trimmed);
            }
        }
        PatternStore::from_instances(out)
    }

    /// Human-readable summary of the stored patterns.
    pub fn describe(&self, schema: &Schema) -> String {
        let mut lines = Vec::new();
        for (i, inst) in self.iter() {
            lines.push(format!(
                "#{i} {} | fragments: {} / supported: {} | confidence: {:.2}",
                inst.arp.display(schema),
                inst.global_support(),
                inst.num_supported,
                inst.confidence
            ));
        }
        lines.join("\n")
    }
}

/// Helper used by miners: fold per-fragment deviation extremes into the
/// instance-level bounds.
pub fn fold_dev_bounds(instance: &mut PatternInstance) {
    let mut pos = 0.0f64;
    let mut neg = 0.0f64;
    for local in instance.locals.values() {
        pos = pos.max(local.max_pos_dev);
        neg = neg.min(local.max_neg_dev);
    }
    instance.max_pos_dev = pos;
    instance.max_neg_dev = neg;
}

/// Extract, for a list of wanted attributes, the values they take in a
/// tuple given as parallel `(attrs, values)` arrays. Returns `None` when
/// a wanted attribute is absent.
pub fn project_tuple(attrs: &[AttrId], values: &[Value], wanted: &[AttrId]) -> Option<Vec<Value>> {
    wanted.iter().map(|w| attrs.iter().position(|a| a == w).map(|i| values[i].clone())).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use cape_data::{AggFunc, Relation, Schema, ValueType};
    use cape_regress::{Model, ModelType};

    fn mk_instance(f: Vec<AttrId>, v: Vec<AttrId>, model: ModelType) -> PatternInstance {
        // Base schema: author(0), year(1), venue(2)
        let base = Schema::new([
            ("author", ValueType::Str),
            ("year", ValueType::Int),
            ("venue", ValueType::Str),
        ])
        .unwrap();
        let mut g: Vec<AttrId> = f.iter().chain(&v).copied().collect();
        g.sort_unstable();
        let mut rel = Relation::new(base);
        // rows: (ax, 2004, KDD) x2, (ax, 2005, KDD), (ay, 2004, ICDE)
        for (a, y, ve) in
            [("ax", 2004, "KDD"), ("ax", 2004, "KDD"), ("ax", 2005, "KDD"), ("ay", 2004, "ICDE")]
        {
            rel.push_row(vec![Value::str(a), Value::Int(y), Value::str(ve)]).unwrap();
        }
        let data = GroupData::compute(&rel, &g, &[(AggFunc::Count, None)]).unwrap();
        let agg_col = data.agg_col(AggFunc::Count, None).unwrap();
        let arp = Arp::new(f.clone(), v, AggFunc::Count, None, model);
        let mut locals = HashMap::new();
        // One local for fragment (ax).
        let f_cols_key: Vec<Value> = if f == vec![0] {
            vec![Value::str("ax")]
        } else {
            vec![Value::str("ax"), Value::str("KDD")]
        };
        locals.insert(
            f_cols_key.into(),
            Arc::new(LocalPattern {
                fitted: Fitted { model: Model::Constant { beta: 1.5 }, gof: 0.9, n: 2 },
                support: 2,
                max_pos_dev: 0.5,
                max_neg_dev: -0.5,
            }),
        );
        let mut inst = PatternInstance {
            arp,
            data: Arc::new(data),
            agg_col,
            locals,
            confidence: 1.0,
            num_supported: 1,
            max_pos_dev: 0.0,
            max_neg_dev: 0.0,
        };
        fold_dev_bounds(&mut inst);
        inst
    }

    #[test]
    fn predict_and_deviation() {
        let inst = mk_instance(vec![0], vec![1], ModelType::Const);
        // Row 0 of grouped data is (ax, 2004) with count 2; model predicts 1.5.
        assert_eq!(inst.predict_row(0), Some(1.5));
        assert_eq!(inst.deviation_row(0), Some(0.5));
        // Fragment (ay) has no local model.
        let ay_row = (0..inst.data.relation.num_rows())
            .find(|&i| inst.data.relation.value(i, 0) == Value::str("ay"))
            .unwrap();
        assert_eq!(inst.predict_row(ay_row), None);
    }

    #[test]
    fn dev_bounds_folded() {
        let inst = mk_instance(vec![0], vec![1], ModelType::Const);
        assert_eq!(inst.max_pos_dev, 0.5);
        assert_eq!(inst.max_neg_dev, -0.5);
        assert_eq!(inst.global_support(), 1);
    }

    #[test]
    fn store_refinements() {
        let p1 = mk_instance(vec![0], vec![1], ModelType::Const);
        let p2 = mk_instance(vec![0, 2], vec![1], ModelType::Const);
        let mut store = PatternStore::new();
        let i1 = store.push(p1);
        let i2 = store.push(p2);
        assert_eq!(store.refinements_of(i1), [i1, i2]); // self, then the strict refinement
        assert_eq!(store.refinements_of(i2), [i2]);
        assert!(store.refinements_of(99).is_empty());
        assert!(PatternStore::new().refinements_of(0).is_empty());
    }

    #[test]
    fn local_pattern_counting_and_truncation() {
        let p1 = mk_instance(vec![0], vec![1], ModelType::Const);
        let p2 = mk_instance(vec![0, 2], vec![1], ModelType::Const);
        let store = PatternStore::from_instances(vec![p1, p2]);
        assert_eq!(store.num_local_patterns(), 2);
        let cut = store.truncate_locals(1);
        assert_eq!(cut.num_local_patterns(), 1);
        assert_eq!(cut.len(), 1);
        let all = store.truncate_locals(10);
        assert_eq!(all.num_local_patterns(), 2);
    }

    #[test]
    fn project_tuple_helper() {
        let attrs = vec![0, 2, 1];
        let values = vec![Value::str("ax"), Value::str("KDD"), Value::Int(2004)];
        assert_eq!(
            project_tuple(&attrs, &values, &[1, 0]),
            Some(vec![Value::Int(2004), Value::str("ax")])
        );
        assert_eq!(project_tuple(&attrs, &values, &[5]), None);
    }

    #[test]
    fn describe_mentions_pattern() {
        let schema = Schema::new([
            ("author", ValueType::Str),
            ("year", ValueType::Int),
            ("venue", ValueType::Str),
        ])
        .unwrap();
        let store =
            PatternStore::from_instances(vec![mk_instance(vec![0], vec![1], ModelType::Const)]);
        let d = store.describe(&schema);
        assert!(d.contains("[author]"));
        assert!(d.contains("confidence"));
    }
}
