//! Explanation generation (Section 3): relevant patterns, drill-down via
//! refinements, scoring, and top-k selection — in a naive variant
//! (Algorithm 1) and an optimized variant with upper-bound pruning
//! (§3.5), plus the non-pattern baseline of Appendix A.2.

pub mod baseline;
pub mod candidate;
pub mod distance;
pub mod drill;
pub mod generalize;
pub mod naive;
pub mod optimized;
pub mod provenance;
pub mod score;
pub mod summarize;
pub mod topk;

pub use baseline::BaselineExplainer;
pub use candidate::{render_table, Explanation};
pub use distance::{AttrDistanceFn, DistanceModel, RowDistance};
pub use drill::{offer_candidates, raw_candidates, DrillResult, RawCandidate};
pub use generalize::{generalizations, GeneralizationFinding};
pub use naive::NaiveExplainer;
pub use optimized::{expl_gen_opt, OptimizedExplainer};
pub use provenance::{provenance_of, summarize as summarize_provenance, ProvenanceSummary};
pub use score::{norm_factor, relevant_fragment, score_value, QuestionNorms, SCORE_EPSILON};
pub use summarize::{
    relative_loss, render_summaries, summarize, SummarizeConfig, Summary, SummaryFragment,
    DEFAULT_MAX_LOSS, DEFAULT_MIN_MEMBERS,
};
pub use topk::TopK;

use crate::question::UserQuestion;
use crate::store::PatternStore;
use cape_data::Relation;
use std::time::Duration;

/// Configuration for explanation generation.
#[derive(Debug, Clone)]
pub struct ExplainConfig {
    /// Number of explanations to return.
    pub k: usize,
    /// Tuple distance model (weights + per-attribute distances).
    pub distance: DistanceModel,
}

impl ExplainConfig {
    /// Default distances for `rel`, returning the top `k` explanations.
    pub fn default_for(rel: &Relation, k: usize) -> Self {
        ExplainConfig { k, distance: DistanceModel::default_for(rel) }
    }
}

/// Instrumentation collected during one explanation run (Figure 6).
#[derive(Debug, Clone, Default)]
pub struct ExplainStats {
    /// Wall-clock time of the run.
    pub time: Duration,
    /// Patterns relevant to the question.
    pub patterns_relevant: usize,
    /// `(P, P')` refinement pairs considered.
    pub refinements_considered: usize,
    /// Refinement pairs skipped by the upper score bound.
    pub refinements_pruned: usize,
    /// Candidate tuples `t'` examined.
    pub tuples_checked: usize,
    /// Candidates satisfying all conditions of Definition 7.
    pub candidates_generated: usize,
}

impl ExplainStats {
    /// Publish this run's statistics to the installed recorders as
    /// `explain.*` counters plus an `explain.run_ns` histogram sample.
    /// Zero-valued counters are published too, so a snapshot always
    /// contains the full `explain.*` key set after a run.
    pub fn publish(&self) {
        cape_obs::counter_add("explain.patterns_relevant", self.patterns_relevant as u64);
        cape_obs::counter_add("explain.refinements_considered", self.refinements_considered as u64);
        cape_obs::counter_add("explain.refinements_pruned", self.refinements_pruned as u64);
        cape_obs::counter_add("explain.tuples_checked", self.tuples_checked as u64);
        cape_obs::counter_add("explain.candidates_generated", self.candidates_generated as u64);
        cape_obs::observe_ns("explain.run_ns", self.time.as_nanos() as u64);
    }
}

/// A top-k explanation generator over a mined pattern store.
pub trait TopKExplainer {
    /// Name used in benchmark output.
    fn name(&self) -> &'static str;

    /// Generate the top-k explanations for `uq` from `store`.
    fn explain(
        &self,
        store: &PatternStore,
        uq: &UserQuestion,
        cfg: &ExplainConfig,
    ) -> (Vec<Explanation>, ExplainStats);
}
