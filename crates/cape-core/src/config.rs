//! Mining thresholds and configuration.

use cape_data::{AggFunc, AttrId, FdSet, Relation};
use cape_regress::ModelType;

/// The four thresholds of Definition 4: local model quality θ, local
/// support δ, global confidence λ, global support Δ.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Thresholds {
    /// Local model quality threshold θ ∈ [0, 1]: minimum goodness-of-fit
    /// for a pattern to hold locally.
    pub theta: f64,
    /// Local support threshold δ: minimum number of distinct predictor
    /// values in a fragment.
    pub delta: usize,
    /// Global confidence threshold λ ∈ [0, 1]: minimum fraction of
    /// sufficiently supported fragments on which the pattern holds locally.
    pub lambda: f64,
    /// Global support threshold Δ: minimum number of fragments on which
    /// the pattern holds locally.
    pub global_support: usize,
}

impl Default for Thresholds {
    /// The setting used in the paper's mining experiments (§5.1):
    /// θ = 0.5, λ = 0.5, δ = 15, Δ = 15.
    fn default() -> Self {
        Thresholds { theta: 0.5, delta: 15, lambda: 0.5, global_support: 15 }
    }
}

impl Thresholds {
    /// Convenience constructor in the paper's `(θ, δ), (λ, Δ)` order.
    pub fn new(theta: f64, delta: usize, lambda: f64, global_support: usize) -> Self {
        Thresholds { theta, delta, lambda, global_support }
    }
}

/// Which aggregate calls to mine patterns for.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AggSelection {
    /// Only `count(*)` — the cheapest useful setting and what both paper
    /// datasets' example patterns use.
    CountStar,
    /// `count(*)` plus every ARP aggregate function over every *numeric*
    /// attribute outside `F ∪ V` (the paper's full candidate space).
    AllNumeric,
    /// An explicit list of `(function, attribute)` pairs
    /// (`None` = `count(*)`).
    Explicit(Vec<(AggFunc, Option<AttrId>)>),
}

/// Full mining configuration.
#[derive(Debug, Clone)]
pub struct MiningConfig {
    /// The `(θ, δ), (λ, Δ)` thresholds.
    pub thresholds: Thresholds,
    /// Maximum pattern size ψ = max |F ∪ V| (paper §4.1). The minimum
    /// size is always 2 (one partition plus one predictor attribute).
    pub psi: usize,
    /// Aggregates to consider.
    pub aggs: AggSelection,
    /// Regression model types to fit.
    pub models: Vec<ModelType>,
    /// Attributes excluded from `F`/`V` (near-unique identifiers such as
    /// `pubid`; the paper drops these in preprocessing).
    pub exclude: Vec<AttrId>,
    /// Whether to apply the FD optimizations of Appendix D.
    pub fd_pruning: bool,
    /// FDs known up front (e.g. from key constraints). Discovered FDs are
    /// added on top when `fd_pruning` is enabled.
    pub initial_fds: FdSet,
}

impl Default for MiningConfig {
    fn default() -> Self {
        MiningConfig {
            thresholds: Thresholds::default(),
            psi: 4,
            aggs: AggSelection::CountStar,
            models: vec![ModelType::Const, ModelType::Lin],
            exclude: Vec::new(),
            fd_pruning: false,
            initial_fds: FdSet::new(),
        }
    }
}

impl MiningConfig {
    /// The attribute ids eligible for `F ∪ V`.
    pub fn candidate_attrs(&self, rel: &Relation) -> Vec<AttrId> {
        (0..rel.schema().arity()).filter(|a| !self.exclude.contains(a)).collect()
    }

    /// Resolve [`AggSelection`] into concrete `(function, attribute)` pairs
    /// for a given group-by set `g` (attribute must lie outside `F ∪ V`).
    pub fn resolve_aggs(&self, rel: &Relation, g: &[AttrId]) -> Vec<(AggFunc, Option<AttrId>)> {
        match &self.aggs {
            AggSelection::CountStar => vec![(AggFunc::Count, None)],
            AggSelection::AllNumeric => {
                let mut out = vec![(AggFunc::Count, None)];
                for a in 0..rel.schema().arity() {
                    if g.contains(&a) || self.exclude.contains(&a) {
                        continue;
                    }
                    let ty = rel.schema().attr(a).expect("valid id").value_type();
                    if ty.is_numeric() {
                        for func in [AggFunc::Sum, AggFunc::Min, AggFunc::Max] {
                            out.push((func, Some(a)));
                        }
                    }
                }
                out
            }
            AggSelection::Explicit(list) => list
                .iter()
                .filter(|(_, attr)| attr.is_none_or(|a| !g.contains(&a)))
                .cloned()
                .collect(),
        }
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
            ("venue", ValueType::Str),
            ("cites", ValueType::Int),
        ])
        .unwrap();
        Relation::new(schema)
    }

    #[test]
    fn default_thresholds_match_paper() {
        let t = Thresholds::default();
        assert_eq!(t.theta, 0.5);
        assert_eq!(t.delta, 15);
        assert_eq!(t.lambda, 0.5);
        assert_eq!(t.global_support, 15);
    }

    #[test]
    fn candidate_attrs_respects_exclusions() {
        let cfg = MiningConfig { exclude: vec![3], ..MiningConfig::default() };
        assert_eq!(cfg.candidate_attrs(&rel()), vec![0, 1, 2]);
    }

    #[test]
    fn count_star_selection() {
        let cfg = MiningConfig::default();
        assert_eq!(cfg.resolve_aggs(&rel(), &[0, 1]), vec![(AggFunc::Count, None)]);
    }

    #[test]
    fn all_numeric_selection_excludes_group_attrs() {
        let cfg = MiningConfig { aggs: AggSelection::AllNumeric, ..MiningConfig::default() };
        let aggs = cfg.resolve_aggs(&rel(), &[0, 2]);
        // count(*) + {sum,min,max} over year and cites (both numeric, not in G)
        assert_eq!(aggs.len(), 1 + 3 + 3);
        let aggs_with_year_grouped = cfg.resolve_aggs(&rel(), &[0, 1]);
        assert_eq!(aggs_with_year_grouped.len(), 1 + 3);
    }

    #[test]
    fn explicit_selection_filters_grouped_attrs() {
        let cfg = MiningConfig {
            aggs: AggSelection::Explicit(vec![(AggFunc::Count, None), (AggFunc::Sum, Some(3))]),
            ..MiningConfig::default()
        };
        assert_eq!(cfg.resolve_aggs(&rel(), &[0, 3]).len(), 1);
        assert_eq!(cfg.resolve_aggs(&rel(), &[0, 1]).len(), 2);
    }
}
