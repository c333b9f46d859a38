//! Scoring (Definition 10): `score(E) = dev·isLow / (d · NORM)` with the
//! NORM factor taken from the relevant pattern's aggregation at the user
//! question's coordinates.

use crate::group_data::GroupData;
use crate::question::UserQuestion;
use crate::store::PatternInstance;
use cape_data::ops::rows_matching;
use cape_data::Value;
use std::sync::Arc;

/// Added to the denominator to avoid division by zero when NORM or the
/// distance degenerates (footnote 2 of the paper).
pub const SCORE_EPSILON: f64 = 1e-6;

/// The normalization factor NORM for a relevant pattern `P` and question
/// `φ`:
/// `NORM = π_{agg(A)}(σ_{F=t[F] ∧ V=t[V]}(γ_{F∪V, agg(A)}(R)))`,
/// i.e. the question's aggregate value re-aggregated at `P`'s granularity.
/// The absolute value is used so that negative aggregates (e.g. `sum` of
/// negative numbers) cannot flip the score's sign or break the pruning
/// bound's monotonicity.
///
/// When the group is **absent** at this granularity — which happens for
/// zero-count "missing answer" questions (the open problem of the paper's
/// conclusion) — NORM degenerates; we return the neutral factor 1.0 so
/// that the score reduces to `dev / d` and the distance still
/// discriminates between candidates.
///
/// This is Definition 10's scan, cell by cell, as EXPL-GEN-NAIVE runs it.
/// EXPL-GEN-OPT finds the same row on column codes with [`QuestionNorms`].
pub fn norm_factor(pattern: &PatternInstance, uq: &UserQuestion) -> f64 {
    let g = pattern.arp.g_attrs();
    let Some(wanted) = uq.values_of(&g) else {
        return 1.0;
    };
    let Some(cols) = pattern.data.cols_of_attrs(&g) else {
        return 1.0;
    };
    let rel = &pattern.data.relation;
    for i in 0..rel.num_rows() {
        if cols.iter().zip(&wanted).all(|(&c, w)| rel.value(i, c) == *w) {
            return pattern.data.agg_value(i, pattern.agg_col).unwrap_or(0.0).abs();
        }
    }
    1.0
}

/// [`norm_factor`] for the relevant patterns of one question, found on
/// column codes. The question's group row in a grouped relation is found
/// once with [`rows_matching`] and shared by every pattern over that
/// relation; each pattern reads its own aggregate column there. A
/// pattern's grouped relation is `γ_{F∪V}`, so patterns that share the
/// `Arc<GroupData>` share `G` too. The kernel returns matching rows in
/// ascending order, so its first is the row the literal scan stops at.
#[derive(Debug)]
pub struct QuestionNorms<'a> {
    uq: &'a UserQuestion,
    /// Grouped relations searched so far, each with the question's group
    /// row there (`None` when absent).
    found: Vec<(&'a Arc<GroupData>, Option<usize>)>,
}

impl<'a> QuestionNorms<'a> {
    /// No relation searched yet.
    pub fn new(uq: &'a UserQuestion) -> Self {
        QuestionNorms { uq, found: Vec::new() }
    }

    /// NORM of `pattern` for the question; equal, bit for bit, to
    /// [`norm_factor`].
    pub fn norm(&mut self, pattern: &'a PatternInstance) -> f64 {
        let data = &pattern.data;
        let row = match self.found.iter().find(|(d, _)| Arc::ptr_eq(d, data)) {
            Some(&(_, row)) => row,
            None => {
                let row = self.group_row(pattern);
                self.found.push((data, row));
                row
            }
        };
        row.map_or(1.0, |i| data.agg_value(i, pattern.agg_col).unwrap_or(0.0).abs())
    }

    /// The first row of `pattern`'s grouped relation that holds the
    /// question's values on `G`.
    fn group_row(&self, pattern: &PatternInstance) -> Option<usize> {
        let g = pattern.arp.g_attrs();
        let wanted = self.uq.values_of(&g)?;
        let cols = pattern.data.cols_of_attrs(&g)?;
        rows_matching(&pattern.data.relation, &cols, &wanted).first().copied()
    }
}

/// The score of Definition 10 from its ingredients.
pub fn score_value(deviation: f64, is_low_sign: f64, distance: f64, norm: f64) -> f64 {
    deviation * is_low_sign / (distance * norm + SCORE_EPSILON)
}

/// The upper score bound `score_↑(φ, P, P')` of §3.5 from the refinement's
/// deviation bound, the distance lower bound, and `P`'s NORM.
pub fn score_upper_bound(dev_bound: f64, dist_lower: f64, norm: f64) -> f64 {
    dev_bound / (dist_lower * norm + SCORE_EPSILON)
}

/// Whether a pattern is **relevant** for a question (Definition 5): the
/// pattern uses the same aggregate, generalizes the question
/// (`F ∪ V ⊆ G`), and holds locally on `t[F]`. Returns the fragment key
/// `t[F]` on success so callers can reuse it.
pub fn relevant_fragment(pattern: &PatternInstance, uq: &UserQuestion) -> Option<Vec<Value>> {
    if pattern.arp.agg != uq.agg || pattern.arp.agg_attr != uq.agg_attr {
        return None;
    }
    if !uq.covers_attrs(&pattern.arp.g_attrs()) {
        return None;
    }
    let f_vals = uq.values_of(pattern.arp.f())?;
    if pattern.local(&f_vals).is_some() {
        Some(f_vals)
    } else {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{MiningConfig, Thresholds};
    use crate::mining::{Miner, ShareGrpMiner};
    use crate::question::Direction;
    use cape_data::{AggFunc, Relation, Schema, ValueType};

    /// Authors with constant publication counts; author a0 publishes 4/yr.
    fn mined() -> (Relation, crate::store::PatternStore) {
        let schema = Schema::new([
            ("author", ValueType::Str),
            ("year", ValueType::Int),
            ("venue", ValueType::Str),
        ])
        .unwrap();
        let mut rel = Relation::new(schema);
        for a in 0..3 {
            for y in 0..6 {
                for p in 0..4 {
                    rel.push_row(vec![
                        Value::str(format!("a{a}")),
                        Value::Int(2000 + y),
                        Value::str(if p % 2 == 0 { "KDD" } else { "ICDE" }),
                    ])
                    .unwrap();
                }
            }
        }
        let cfg = MiningConfig {
            thresholds: Thresholds::new(0.3, 3, 0.5, 2),
            psi: 2,
            ..MiningConfig::default()
        };
        let out = ShareGrpMiner.mine(&rel, &cfg).unwrap();
        (rel, out.store)
    }

    fn question() -> UserQuestion {
        UserQuestion::new(
            vec![0, 1, 2],
            AggFunc::Count,
            None,
            vec![Value::str("a0"), Value::Int(2003), Value::str("KDD")],
            2.0,
            Direction::Low,
        )
    }

    #[test]
    fn relevance_requires_local_hold_and_coverage() {
        let (_, store) = mined();
        let uq = question();
        let (_, author_year) = store
            .iter()
            .find(|(_, p)| p.arp.f() == [0] && p.arp.v() == [1])
            .expect("author/year pattern mined");
        let frag = relevant_fragment(author_year, &uq);
        assert_eq!(frag, Some(vec![Value::str("a0")]));

        // A question grouped only on (author, year) cannot use patterns
        // mentioning venue.
        let narrow = UserQuestion::new(
            vec![0, 1],
            AggFunc::Count,
            None,
            vec![Value::str("a0"), Value::Int(2003)],
            4.0,
            Direction::Low,
        );
        let venue_pattern = store.iter().find(|(_, p)| p.arp.g_attrs().contains(&2));
        if let Some((_, venue_pattern)) = venue_pattern {
            assert_eq!(relevant_fragment(venue_pattern, &narrow), None);
        };
    }

    #[test]
    fn relevance_requires_same_aggregate() {
        let (_, store) = mined();
        let mut uq = question();
        uq.agg = AggFunc::Sum;
        uq.agg_attr = Some(1);
        for (_, p) in store.iter() {
            assert_eq!(relevant_fragment(p, &uq), None);
        }
    }

    #[test]
    fn norm_is_the_question_value_at_pattern_granularity() {
        let (_, store) = mined();
        let uq = question();
        let (_, author_year) =
            store.iter().find(|(_, p)| p.arp.f() == [0] && p.arp.v() == [1]).unwrap();
        // a0 publishes 4 papers in 2003 overall.
        assert_eq!(norm_factor(author_year, &uq), 4.0);
    }

    #[test]
    fn norm_neutral_when_group_missing() {
        // Missing groups (zero-count questions) get the neutral factor 1.
        let (_, store) = mined();
        let mut uq = question();
        uq.tuple[0] = Value::str("nobody");
        let (_, author_year) =
            store.iter().find(|(_, p)| p.arp.f() == [0] && p.arp.v() == [1]).unwrap();
        assert_eq!(norm_factor(author_year, &uq), 1.0);
        assert_eq!(QuestionNorms::new(&uq).norm(author_year), 1.0);
    }

    #[test]
    fn question_norms_search_each_grouped_relation_once() {
        let (_, store) = mined();
        let uq = question();
        let mut norms = QuestionNorms::new(&uq);
        for (_, p) in store.iter() {
            assert_eq!(norms.norm(p).to_bits(), norm_factor(p, &uq).to_bits());
        }
        let distinct: std::collections::HashSet<*const GroupData> =
            store.iter().map(|(_, p)| Arc::as_ptr(&p.data)).collect();
        assert_eq!(norms.found.len(), distinct.len());
    }

    #[test]
    fn score_math() {
        // low question: positive deviation, closer and smaller-NORM wins.
        let s1 = score_value(2.0, 1.0, 0.5, 4.0);
        let s2 = score_value(2.0, 1.0, 0.9, 4.0);
        assert!(s1 > s2);
        let s3 = score_value(2.0, 1.0, 0.5, 40.0);
        assert!(s1 > s3);
        // high question: negative deviation yields positive score.
        assert!(score_value(-2.0, -1.0, 0.5, 4.0) > 0.0);
        // epsilon guards zero denominators.
        assert!(score_value(2.0, 1.0, 0.0, 0.0).is_finite());
        // Upper bound dominates any same-ingredient score.
        assert!(score_upper_bound(2.0, 0.5, 4.0) >= s1);
    }
}
