//! Post-top-k summarization: merge high-scoring counterbalance tuples
//! into maximal common-ancestor summaries in the refinement lattice.
//!
//! Ten near-duplicate tuples from the same fragment are one insight, not
//! ten. Following "Summarized Causal Explanations For Aggregate Views"
//! (Youngmann et al.), the top-k heap is post-processed greedily: each
//! high-scoring tuple is coarsened to the **coarsest** `F''`-fragment in
//! the existing lattice (an ancestor `P''` with `F'' ⊆ F'`, same `V`,
//! same aggregate — Definition 6 read upward) that covers at least
//! `min_members` top-k tuples whose relative score loss against the best
//! member stays within `max_loss`. Tuples that cannot be merged fall back
//! to singleton summaries — **no tuple is ever dropped**, so the member
//! union of the summaries is exactly the raw top-k.
//!
//! Summarization is strictly a post-processing layer: it consumes the
//! deterministic sorted output of [`TopK`](crate::explain::TopK) and
//! touches neither drill-down caching nor deadline handling upstream.

use crate::explain::candidate::Explanation;
use crate::explain::score::SCORE_EPSILON;
use crate::store::{project_tuple, PatternStore};
use cape_data::{AttrId, Schema, Value};
use std::time::Instant;

/// Default minimum members for a merged (non-singleton) summary.
pub const DEFAULT_MIN_MEMBERS: usize = 2;
/// Default bound on the relative score loss within one summary.
pub const DEFAULT_MAX_LOSS: f64 = 0.5;

/// Knobs of the greedy coarsening.
#[derive(Debug, Clone, PartialEq)]
pub struct SummarizeConfig {
    /// A common-ancestor fragment must cover at least this many top-k
    /// tuples to be emitted as a merged summary (values < 1 behave as 1).
    pub min_members: usize,
    /// Maximum relative score loss of any member against the summary's
    /// best member: `(best − score) / max(|best|, ε) ≤ max_loss`.
    pub max_loss: f64,
}

impl Default for SummarizeConfig {
    fn default() -> Self {
        SummarizeConfig { min_members: DEFAULT_MIN_MEMBERS, max_loss: DEFAULT_MAX_LOSS }
    }
}

/// A fragment predicate `⋀ attr = value` in the refinement lattice. The
/// attrs are a (sorted) `F''` of some stored pattern; every member tuple
/// of the summary satisfies the predicate, so the rows matching a
/// member's full `F' ∪ V` tuple are a subset of the rows matching the
/// fragment (predicate subsumption).
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct SummaryFragment {
    /// Fragment attributes (sorted, as stored in the pattern's `F`).
    pub attrs: Vec<AttrId>,
    /// Fragment values, aligned with `attrs`.
    pub values: Vec<Value>,
}

impl SummaryFragment {
    /// Whether a tuple given as parallel `(attrs, values)` arrays
    /// satisfies this fragment's predicate.
    pub fn covers(&self, attrs: &[AttrId], tuple: &[Value]) -> bool {
        project_tuple(attrs, tuple, &self.attrs).is_some_and(|vals| vals == self.values)
    }

    /// Render as `[author=AX, year=2007]`.
    pub fn display(&self, schema: &Schema) -> String {
        let parts: Vec<String> = self
            .attrs
            .iter()
            .zip(&self.values)
            .map(|(&a, v)| {
                let name = schema
                    .attr(a)
                    .map(|at| at.name().to_string())
                    .unwrap_or_else(|_| format!("#{a}"));
                format!("{name}={v}")
            })
            .collect();
        format!("[{}]", parts.join(", "))
    }
}

/// One merged (or singleton) summary over the input top-k slice.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    /// The common-ancestor fragment covering every member.
    pub fragment: SummaryFragment,
    /// Indices into the input explanation slice, ascending (best first,
    /// since the input is sorted best-first).
    pub members: Vec<usize>,
    /// `(best, worst)` member scores.
    pub score_range: (f64, f64),
    /// Index of the best-scoring member (always `members[0]`).
    pub representative: usize,
}

impl Summary {
    /// Relative score loss between the best and worst member.
    pub fn loss(&self) -> f64 {
        relative_loss(self.score_range.0, self.score_range.1)
    }
}

/// Relative score loss of `score` against `best` (non-negative when
/// `best ≥ score`; the ε guard keeps near-zero best scores finite).
pub fn relative_loss(best: f64, score: f64) -> f64 {
    (best - score) / best.abs().max(SCORE_EPSILON)
}

/// Candidate ancestor fragments of one explanation, coarsest first: for
/// every stored pattern `P''` that the explanation's refinement `P'`
/// refines (`F'' ⊆ F'`, same `V`, same aggregate), the projection of the
/// counterbalance tuple onto `F''`. Deterministically ordered by
/// `(|F''|, attrs, values)` and deduplicated — two ancestor patterns
/// differing only in model type yield one fragment.
fn ancestor_fragments(e: &Explanation, store: &PatternStore) -> Vec<SummaryFragment> {
    let Some(refinement) = store.get(e.refinement_idx) else {
        return Vec::new();
    };
    let mut out: Vec<SummaryFragment> = Vec::new();
    for (_, inst) in store.iter() {
        if !inst.arp.is_refined_by(&refinement.arp) {
            continue;
        }
        let attrs = inst.arp.f().to_vec();
        let Some(values) = project_tuple(&e.attrs, &e.tuple, &attrs) else {
            continue;
        };
        let frag = SummaryFragment { attrs, values };
        if !out.contains(&frag) {
            out.push(frag);
        }
    }
    out.sort_by(|a, b| a.attrs.len().cmp(&b.attrs.len()).then_with(|| a.cmp(b)));
    out
}

/// The fallback fragment of an unmergeable tuple: its refinement's own
/// `F'` fragment when the refinement is in the store, else the full
/// `(attrs, tuple)` of the explanation (covers the baseline explainer's
/// `NO_PATTERN` sentinel and stores with no matching lattice node).
fn singleton_fragment(e: &Explanation, store: &PatternStore) -> SummaryFragment {
    if let Some(inst) = store.get(e.refinement_idx) {
        let attrs = inst.arp.f().to_vec();
        if let Some(values) = project_tuple(&e.attrs, &e.tuple, &attrs) {
            return SummaryFragment { attrs, values };
        }
    }
    SummaryFragment { attrs: e.attrs.clone(), values: e.tuple.clone() }
}

/// Greedily coarsen a sorted top-k slice into common-ancestor summaries.
///
/// `expls` must be sorted best-first (the deterministic order produced by
/// [`TopK::into_sorted_vec`](crate::explain::TopK::into_sorted_vec));
/// the output is then itself deterministic and insertion-order
/// independent, sorted by best member score descending (each summary's
/// representative is the best unassigned tuple at the time it seeded).
///
/// Every input index appears in exactly one summary's `members`.
/// Publishes `explain.summarize_ns`, `explain.summaries_emitted`, and
/// `explain.tuples_merged` to the installed `cape-obs` recorders.
pub fn summarize(
    expls: &[Explanation],
    store: &PatternStore,
    cfg: &SummarizeConfig,
) -> Vec<Summary> {
    let start = Instant::now();
    let min_members = cfg.min_members.max(1);
    let mut assigned = vec![false; expls.len()];
    let mut out = Vec::new();
    for seed in 0..expls.len() {
        if assigned[seed] {
            continue;
        }
        let best = expls[seed].score;
        // Pick the coarsest qualifying ancestor fragment; among equally
        // coarse candidates, the one covering the most tuples (ties are
        // already broken by the candidates' (attrs, values) order).
        let mut chosen: Option<(SummaryFragment, Vec<usize>)> = None;
        for frag in ancestor_fragments(&expls[seed], store) {
            if let Some((cf, _)) = &chosen {
                if frag.attrs.len() > cf.attrs.len() {
                    break; // candidates are coarsest-first
                }
            }
            let members: Vec<usize> = (seed..expls.len())
                .filter(|&j| {
                    !assigned[j]
                        && relative_loss(best, expls[j].score) <= cfg.max_loss
                        && frag.covers(&expls[j].attrs, &expls[j].tuple)
                })
                .collect();
            if members.len() < min_members {
                continue;
            }
            let better = match &chosen {
                None => true,
                Some((_, cm)) => members.len() > cm.len(),
            };
            if better {
                chosen = Some((frag, members));
            }
        }
        match chosen {
            Some((fragment, members)) => {
                for &m in &members {
                    assigned[m] = true;
                }
                let worst = members.iter().map(|&m| expls[m].score).fold(f64::INFINITY, f64::min);
                out.push(Summary {
                    fragment,
                    representative: members[0],
                    score_range: (expls[members[0]].score, worst),
                    members,
                });
            }
            None => {
                assigned[seed] = true;
                out.push(Summary {
                    fragment: singleton_fragment(&expls[seed], store),
                    members: vec![seed],
                    score_range: (best, best),
                    representative: seed,
                });
            }
        }
    }
    let merged = expls.len().saturating_sub(out.len());
    cape_obs::observe_ns("explain.summarize_ns", start.elapsed().as_nanos() as u64);
    cape_obs::counter_add("explain.summaries_emitted", out.len() as u64);
    cape_obs::counter_add("explain.tuples_merged", merged as u64);
    out
}

/// Render summaries as an ASCII table beneath the raw explanation table.
/// Member ranks are 1-based positions in the raw top-k list.
pub fn render_summaries(summaries: &[Summary], expls: &[Explanation], schema: &Schema) -> String {
    let mut out = String::new();
    out.push_str("summary | fragment\n");
    out.push_str("--------+---------\n");
    for (i, s) in summaries.iter().enumerate() {
        let ranks: Vec<String> = s.members.iter().map(|&m| format!("{}", m + 1)).collect();
        let members = if s.members.len() == 1 {
            format!("rank {}", ranks[0])
        } else {
            format!("{} members (ranks {})", s.members.len(), ranks.join(","))
        };
        let _ = &expls; // ranks refer into this slice; scores are carried on the summary
        out.push_str(&format!(
            "{:>7} | {} {} — score {:.2}..{:.2}\n",
            i + 1,
            s.fragment.display(schema),
            members,
            s.score_range.0,
            s.score_range.1,
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::group_data::GroupData;
    use crate::pattern::Arp;
    use crate::store::{fold_dev_bounds, LocalPattern, PatternInstance};
    use cape_data::{AggFunc, Relation, Schema, ValueType};
    use cape_regress::{Fitted, Model, ModelType};
    use std::collections::HashMap;
    use std::sync::Arc;

    // Schema: author(0), year(1), venue(2).
    fn schema() -> Schema {
        Schema::new([
            ("author", ValueType::Str),
            ("year", ValueType::Int),
            ("venue", ValueType::Str),
        ])
        .unwrap()
    }

    fn instance(f: Vec<AttrId>, v: Vec<AttrId>) -> PatternInstance {
        let mut rel = Relation::new(schema());
        for (a, y, ve) in
            [("ax", 2004, "KDD"), ("ax", 2005, "KDD"), ("ay", 2004, "ICDE"), ("ay", 2005, "ICDE")]
        {
            rel.push_row(vec![Value::str(a), Value::Int(y), Value::str(ve)]).unwrap();
        }
        let mut g: Vec<AttrId> = f.iter().chain(&v).copied().collect();
        g.sort_unstable();
        let data = GroupData::compute(&rel, &g, &[(AggFunc::Count, None)]).unwrap();
        let agg_col = data.agg_col(AggFunc::Count, None).unwrap();
        let arp = Arp::new(f, v, AggFunc::Count, None, ModelType::Const);
        let mut locals = HashMap::new();
        locals.insert(
            vec![Value::str("ax")].into(),
            Arc::new(LocalPattern {
                fitted: Fitted { model: Model::Constant { beta: 1.0 }, gof: 0.9, n: 2 },
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

    /// Store with the two-level lattice `[author] ⊑ [author, venue]`.
    fn lattice_store() -> PatternStore {
        PatternStore::from_instances(vec![
            instance(vec![0], vec![1]),    // 0: [author]: year
            instance(vec![0, 2], vec![1]), // 1: [author,venue]: year
        ])
    }

    fn expl(refinement: usize, attrs: Vec<AttrId>, tuple: Vec<Value>, score: f64) -> Explanation {
        Explanation {
            pattern_idx: 0,
            refinement_idx: refinement,
            attrs,
            tuple,
            agg_value: 1.0,
            predicted: 1.0,
            deviation: 0.0,
            distance: 1.0,
            norm: 1.0,
            score,
        }
    }

    /// Refined explanation over `[author,venue]: year` for one
    /// (author, venue, year) counterbalance.
    fn refined(author: &str, venue: &str, year: i64, score: f64) -> Explanation {
        expl(1, vec![0, 2, 1], vec![Value::str(author), Value::str(venue), Value::Int(year)], score)
    }

    #[test]
    fn merges_same_author_into_common_ancestor() {
        let store = lattice_store();
        let expls = vec![
            refined("ax", "KDD", 2004, 10.0),
            refined("ax", "ICDE", 2005, 9.0),
            refined("ay", "KDD", 2004, 1.0),
        ];
        let sums = summarize(&expls, &store, &SummarizeConfig::default());
        assert_eq!(sums.len(), 2);
        // The two ax tuples merge under the coarse [author] fragment even
        // though their venues differ.
        assert_eq!(sums[0].fragment.attrs, vec![0]);
        assert_eq!(sums[0].fragment.values, vec![Value::str("ax")]);
        assert_eq!(sums[0].members, vec![0, 1]);
        assert_eq!(sums[0].representative, 0);
        assert_eq!(sums[0].score_range, (10.0, 9.0));
        // ay stays a singleton (score loss vs ax is irrelevant — it seeds
        // its own summary; it just has no second member).
        assert_eq!(sums[1].members, vec![2]);
        assert_eq!(sums[1].score_range, (1.0, 1.0));
    }

    #[test]
    fn max_loss_splits_a_would_be_merge() {
        let store = lattice_store();
        let expls = vec![refined("ax", "KDD", 2004, 10.0), refined("ax", "ICDE", 2005, 1.0)];
        // 90% loss > 50% bound: two singletons.
        let sums = summarize(&expls, &store, &SummarizeConfig::default());
        assert_eq!(sums.len(), 2);
        assert!(sums.iter().all(|s| s.members.len() == 1));
        // A permissive bound merges them.
        let sums = summarize(&expls, &store, &SummarizeConfig { min_members: 2, max_loss: 1.0 });
        assert_eq!(sums.len(), 1);
        assert_eq!(sums[0].members, vec![0, 1]);
        assert!((sums[0].loss() - 0.9).abs() < 1e-9);
    }

    #[test]
    fn min_members_gates_merging() {
        let store = lattice_store();
        let expls = vec![
            refined("ax", "KDD", 2004, 10.0),
            refined("ax", "ICDE", 2005, 9.0),
            refined("ax", "KDD", 2006, 8.5),
        ];
        let sums = summarize(&expls, &store, &SummarizeConfig { min_members: 4, max_loss: 0.5 });
        assert_eq!(sums.len(), 3, "a 4-member floor over 3 tuples forces singletons");
        let sums = summarize(&expls, &store, &SummarizeConfig { min_members: 3, max_loss: 0.5 });
        assert_eq!(sums.len(), 1);
        assert_eq!(sums[0].members, vec![0, 1, 2]);
    }

    #[test]
    fn every_member_covered_and_no_tuple_dropped() {
        let store = lattice_store();
        let expls = vec![
            refined("ax", "KDD", 2004, 10.0),
            refined("ay", "KDD", 2004, 9.5),
            refined("ax", "ICDE", 2005, 9.0),
            refined("ay", "ICDE", 2005, 8.0),
        ];
        let sums = summarize(&expls, &store, &SummarizeConfig::default());
        let mut seen = vec![false; expls.len()];
        for s in &sums {
            assert_eq!(s.representative, s.members[0]);
            for &m in &s.members {
                assert!(!seen[m], "member {m} assigned twice");
                seen[m] = true;
                assert!(s.fragment.covers(&expls[m].attrs, &expls[m].tuple));
                assert!(relative_loss(s.score_range.0, expls[m].score) <= 0.5 + 1e-12);
            }
        }
        assert!(seen.iter().all(|&s| s), "every top-k tuple is a member of some summary");
    }

    #[test]
    fn empty_and_singleton_topk() {
        let store = lattice_store();
        assert!(summarize(&[], &store, &SummarizeConfig::default()).is_empty());
        let one = vec![refined("ax", "KDD", 2004, 5.0)];
        let sums = summarize(&one, &store, &SummarizeConfig::default());
        assert_eq!(sums.len(), 1);
        assert_eq!(sums[0].members, vec![0]);
        // Singleton falls back to the refinement's own F' fragment.
        assert_eq!(sums[0].fragment.attrs, vec![0, 2]);
    }

    #[test]
    fn unknown_refinement_falls_back_to_full_tuple() {
        let store = lattice_store();
        // The baseline explainer's NO_PATTERN sentinel: refinement index
        // outside the store.
        let e = expl(usize::MAX, vec![0, 1], vec![Value::str("ax"), Value::Int(2004)], 3.0);
        let sums = summarize(std::slice::from_ref(&e), &store, &SummarizeConfig::default());
        assert_eq!(sums.len(), 1);
        assert_eq!(sums[0].fragment.attrs, e.attrs);
        assert_eq!(sums[0].fragment.values, e.tuple);
    }

    #[test]
    fn null_values_merge_like_any_other() {
        let store = lattice_store();
        let mk = |venue: &str, year: i64, score: f64| {
            expl(1, vec![0, 2, 1], vec![Value::Null, Value::str(venue), Value::Int(year)], score)
        };
        let expls = vec![mk("KDD", 2004, 4.0), mk("ICDE", 2005, 3.5)];
        let sums = summarize(&expls, &store, &SummarizeConfig::default());
        assert_eq!(sums.len(), 1, "NULL fragment values compare equal and merge");
        assert_eq!(sums[0].fragment.values, vec![Value::Null]);
    }

    #[test]
    fn tied_scores_have_zero_loss_and_merge() {
        let store = lattice_store();
        let expls = vec![
            refined("ax", "KDD", 2004, 7.0),
            refined("ax", "ICDE", 2005, 7.0),
            refined("ax", "KDD", 2006, 7.0),
        ];
        let sums = summarize(&expls, &store, &SummarizeConfig { min_members: 2, max_loss: 0.0 });
        assert_eq!(sums.len(), 1, "zero max_loss still merges exact ties");
        assert_eq!(sums[0].score_range, (7.0, 7.0));
        assert_eq!(sums[0].loss(), 0.0);
    }

    #[test]
    fn no_common_ancestor_store_yields_singletons() {
        // Two patterns with disjoint F sets: [author] and [venue] —
        // neither refines the other, so cross-pattern tuples cannot merge.
        let store = PatternStore::from_instances(vec![
            instance(vec![0], vec![1]), // [author]: year
            instance(vec![2], vec![1]), // [venue]: year
        ]);
        let expls = vec![
            expl(0, vec![0, 1], vec![Value::str("ax"), Value::Int(2004)], 5.0),
            expl(1, vec![2, 1], vec![Value::str("KDD"), Value::Int(2004)], 4.5),
        ];
        let sums = summarize(&expls, &store, &SummarizeConfig::default());
        assert_eq!(sums.len(), 2, "no common ancestor: singletons, nothing dropped");
        assert_eq!(sums[0].members, vec![0]);
        assert_eq!(sums[1].members, vec![1]);
    }

    #[test]
    fn counters_published() {
        let rec = cape_obs::Recorder::new();
        let guard = rec.install();
        let store = lattice_store();
        let expls = vec![refined("ax", "KDD", 2004, 10.0), refined("ax", "ICDE", 2005, 9.0)];
        let _ = summarize(&expls, &store, &SummarizeConfig::default());
        drop(guard);
        let snap = rec.snapshot();
        assert_eq!(snap.counters.get("explain.summaries_emitted").copied(), Some(1));
        assert_eq!(snap.counters.get("explain.tuples_merged").copied(), Some(1));
        assert!(snap.histograms.contains_key("explain.summarize_ns"));
    }

    #[test]
    fn render_is_deterministic_text() {
        let store = lattice_store();
        let expls = vec![
            refined("ax", "KDD", 2004, 10.0),
            refined("ax", "ICDE", 2005, 9.0),
            refined("ay", "KDD", 2004, 8.0),
        ];
        let sums = summarize(&expls, &store, &SummarizeConfig::default());
        let text = render_summaries(&sums, &expls, &schema());
        assert!(text.contains("[author=ax]"), "{text}");
        assert!(text.contains("2 members (ranks 1,2)"), "{text}");
        assert!(text.contains("score 10.00..9.00"), "{text}");
    }
}
