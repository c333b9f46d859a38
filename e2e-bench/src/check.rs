//! The answer check: wire answers against in-process answers.
//!
//! Every wire explain is compared, outside the timed path, with what
//! `OptimizedExplainer` returns in-process for the same question over the
//! same store: the same top-k tuples in the same order, from the same
//! pattern and refinement, with scores equal to within 1e-9 (relative to
//! the score's magnitude when that exceeds 1).

use crate::workload::value_json;
use cape_core::explain::{ExplainConfig, OptimizedExplainer, TopKExplainer};
use cape_core::mining::{ArpMiner, Miner};
use cape_core::{Direction, MiningConfig, PatternStore, Thresholds, UserQuestion};
use cape_data::{AggFunc, AttrId, Relation, Value};
use cape_obs::Json;
use std::collections::HashMap;

/// Score tolerance.
pub const SCORE_TOL: f64 = 1e-9;

/// One explanation in comparable form.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    /// Display of the relevant pattern.
    pub pattern: String,
    /// Display of the refinement.
    pub refinement: String,
    /// Attribute names of the counterbalance tuple.
    pub attrs: Vec<String>,
    /// The counterbalance tuple, as wire JSON.
    pub tuple: String,
    /// Its score.
    pub score: f64,
}

/// A wire explain answer in comparable form.
#[derive(Debug, Clone)]
pub struct WireAnswer {
    /// Snapshot generation the server answered from.
    pub generation: u64,
    /// Whether a deadline cut the search short.
    pub partial: bool,
    /// The top-k.
    pub rows: Vec<Row>,
}

fn field<'a>(obj: &'a Json, key: &str) -> Result<&'a Json, String> {
    obj.get(key).ok_or_else(|| format!("answer lacks `{key}`"))
}

fn str_field(obj: &Json, key: &str) -> Result<String, String> {
    Ok(match field(obj, key)? {
        Json::Str(s) => s.clone(),
        Json::Null => String::new(),
        other => return Err(format!("`{key}` is not a string: {other}")),
    })
}

/// Parse a wire explain body.
pub fn parse_wire(body: &[u8]) -> Result<WireAnswer, String> {
    let text = std::str::from_utf8(body).map_err(|e| format!("body is not UTF-8: {e}"))?;
    let json = Json::parse(text).map_err(|e| format!("body is not JSON: {e}"))?;
    let generation = field(&json, "generation")?.as_u64().ok_or("bad `generation`")?;
    let partial = field(&json, "partial")?.as_bool().ok_or("bad `partial`")?;
    let rows = field(&json, "explanations")?
        .as_arr()
        .ok_or("bad `explanations`")?
        .iter()
        .map(|e| {
            let attrs = field(e, "attrs")?
                .as_arr()
                .ok_or("bad `attrs`")?
                .iter()
                .map(|a| a.as_str().map(str::to_string).ok_or("bad attr name"))
                .collect::<Result<Vec<_>, _>>()?;
            Ok(Row {
                pattern: str_field(e, "pattern")?,
                refinement: str_field(e, "refinement")?,
                attrs,
                tuple: field(e, "tuple")?.to_string(),
                score: field(e, "score")?.as_f64().ok_or("bad `score`")?,
            })
        })
        .collect::<Result<Vec<_>, String>>()?;
    Ok(WireAnswer { generation, partial, rows })
}

/// The comparable form of in-process explanations.
pub fn rows_of(
    expls: &[cape_core::explain::Explanation],
    store: &PatternStore,
    rel: &Relation,
) -> Vec<Row> {
    let schema = rel.schema();
    let name = |id: &AttrId| {
        schema.attr(*id).map(|a| a.name().to_string()).unwrap_or_else(|_| format!("#{id}"))
    };
    let display = |idx: usize| store.get(idx).map_or(String::new(), |p| p.arp.display(schema));
    expls
        .iter()
        .map(|e| Row {
            pattern: display(e.pattern_idx),
            refinement: display(e.refinement_idx),
            attrs: e.attrs.iter().map(name).collect(),
            tuple: Json::Arr(e.tuple.iter().map(value_json).collect()).to_string(),
            score: e.score,
        })
        .collect()
}

fn same_score(a: f64, b: f64) -> bool {
    (a - b).abs() <= SCORE_TOL * a.abs().max(b.abs()).max(1.0)
}

fn same_explanation(a: &Row, b: &Row) -> bool {
    a.pattern == b.pattern
        && a.refinement == b.refinement
        && a.attrs == b.attrs
        && a.tuple == b.tuple
}

/// Compare a wire top-k with the expected one from the same store: the
/// same explanations in the same order, scores within [`SCORE_TOL`].
pub fn compare(wire: &[Row], expected: &[Row]) -> Result<(), String> {
    if wire.len() != expected.len() {
        return Err(format!("{} explanations, expected {}", wire.len(), expected.len()));
    }
    for (i, (w, e)) in wire.iter().zip(expected).enumerate() {
        if !same_explanation(w, e) {
            return Err(format!("rank {i}: got {w:?}, expected {e:?}"));
        }
        if !same_score(w.score, e.score) {
            return Err(format!("rank {i}: score {} vs {}", w.score, e.score));
        }
    }
    Ok(())
}

/// Compare a wire top-`k` with the top-(k + slack) of a store whose
/// pattern order may differ: scores must agree rank by rank, and each
/// wire explanation must be a distinct expected one with the same score.
/// Only the order among exactly tied explanations may differ.
pub fn compare_up_to_ties(wire: &[Row], expected: &[Row], k: usize) -> Result<(), String> {
    if wire.len() != expected.len().min(k) {
        return Err(format!("{} explanations, expected {}", wire.len(), expected.len().min(k)));
    }
    for (i, (w, e)) in wire.iter().zip(expected).enumerate() {
        if !same_score(w.score, e.score) {
            return Err(format!("rank {i}: score {} vs {}", w.score, e.score));
        }
        let tied = |x: &Row| same_score(x.score, w.score) && same_explanation(x, w);
        if !expected.iter().any(tied) {
            return Err(format!("rank {i}: {w:?} is not among the expected explanations"));
        }
        if wire[..i].iter().any(|x| same_explanation(x, w)) {
            return Err(format!("rank {i}: {w:?} appears twice"));
        }
    }
    Ok(())
}

/// The mining configuration `cape mine` uses with the benchmark's flags.
pub fn mining_config(rel: &Relation, exclude: &[&str]) -> MiningConfig {
    let flag = |name: &str| {
        crate::cli::MINE_FLAGS.iter().find(|(f, _)| *f == name).expect("pinned flag").1
    };
    MiningConfig {
        thresholds: Thresholds::new(
            flag("theta").parse().expect("theta"),
            flag("delta").parse().expect("delta"),
            flag("lambda").parse().expect("lambda"),
            flag("support").parse().expect("support"),
        ),
        psi: flag("psi").parse().expect("psi"),
        exclude: exclude
            .iter()
            .map(|n| rel.schema().attr_id(n).expect("excluded column"))
            .collect(),
        ..MiningConfig::default()
    }
}

/// `count(*)` per group, kept current as rows are appended.
#[derive(Debug, Clone)]
pub struct Counts {
    attrs: Vec<AttrId>,
    counts: HashMap<Vec<Value>, f64>,
}

impl Counts {
    /// Counts over `rel`.
    pub fn new(rel: &Relation, attrs: &[AttrId]) -> Self {
        let mut counts = Counts { attrs: attrs.to_vec(), counts: HashMap::new() };
        for i in 0..rel.num_rows() {
            counts.add(&rel.row(i));
        }
        counts
    }

    /// Count one more row.
    pub fn add(&mut self, row: &[Value]) {
        let key: Vec<Value> = self.attrs.iter().map(|&a| row[a].clone()).collect();
        *self.counts.entry(key).or_insert(0.0) += 1.0;
    }

    /// The question about `tuple` in direction `dir`.
    pub fn question(&self, tuple: &[Value], dir: Direction) -> UserQuestion {
        let value = self.counts.get(tuple).copied().unwrap_or(0.0);
        UserQuestion::new(self.attrs.clone(), AggFunc::Count, None, tuple.to_vec(), value, dir)
    }
}

/// The in-process top-`k` answer to `uq` over `store`.
pub fn expected(store: &PatternStore, rel: &Relation, uq: &UserQuestion, k: usize) -> Vec<Row> {
    let cfg = ExplainConfig::default_for(rel, k);
    let (expls, _) = OptimizedExplainer.explain(store, uq, &cfg);
    rows_of(&expls, store, rel)
}

/// Failure tallies of one operation type.
#[derive(Debug, Clone, Copy, Default)]
pub struct Tally {
    /// Operations started.
    pub attempted: usize,
    /// Answered 2xx and checked correct.
    pub succeeded: usize,
    /// Connect, write or read failed.
    pub transport: usize,
    /// Answered with a non-2xx status.
    pub http_status: usize,
    /// Answered 2xx with a wrong answer.
    pub wrong_answer: usize,
}

impl Tally {
    /// All failures.
    pub fn failed(&self) -> usize {
        self.transport + self.http_status + self.wrong_answer
    }
}

/// Mine `base` plus the `appended` rows from scratch.
pub fn from_scratch(
    base: &Relation,
    appended: &[Vec<Value>],
    cfg: &MiningConfig,
) -> Result<(Relation, PatternStore), String> {
    let mut rel = base.clone();
    for row in appended {
        rel.push_row(row.clone()).map_err(|e| format!("appended row: {e}"))?;
    }
    let out = ArpMiner.mine(&rel, cfg).map_err(|e| format!("from-scratch mine: {e}"))?;
    Ok((rel, out.store))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(tuple: &str, score: f64) -> Row {
        Row {
            pattern: "[a]: b ~Const~> count(*)".into(),
            refinement: "[a,b]: c ~Const~> count(*)".into(),
            attrs: vec!["a".into(), "b".into(), "c".into()],
            tuple: tuple.into(),
            score,
        }
    }

    #[test]
    fn same_store_answers_must_match_exactly() {
        let want = [row("[1]", 3.0), row("[2]", 2.0), row("[3]", 2.0)];
        assert!(compare(&want, &want).is_ok());
        assert!(
            compare(&[row("[1]", 3.0 + 1e-12), row("[2]", 2.0), row("[3]", 2.0)], &want).is_ok()
        );
        assert!(
            compare(&[row("[1]", 3.0 + 1e-6), row("[2]", 2.0), row("[3]", 2.0)], &want).is_err()
        );
        // Tied explanations in another order are a mismatch for the same store.
        assert!(compare(&[row("[1]", 3.0), row("[3]", 2.0), row("[2]", 2.0)], &want).is_err());
        assert!(compare(&want[..2], &want).is_err());
    }

    #[test]
    fn answers_from_a_reordered_store_match_up_to_ties() {
        // Top-2 of a store whose top-(2 + slack) ties [2] and [3] at 2.0.
        let want = [row("[1]", 3.0), row("[2]", 2.0), row("[3]", 2.0), row("[4]", 1.0)];
        assert!(compare_up_to_ties(&[row("[1]", 3.0), row("[2]", 2.0)], &want, 2).is_ok());
        assert!(compare_up_to_ties(&[row("[1]", 3.0), row("[3]", 2.0)], &want, 2).is_ok());
        // Not tied with the k-th, not expected at all, or repeated.
        assert!(compare_up_to_ties(&[row("[1]", 3.0), row("[4]", 2.0)], &want, 2).is_err());
        assert!(compare_up_to_ties(&[row("[1]", 3.0), row("[9]", 2.0)], &want, 2).is_err());
        assert!(compare_up_to_ties(&[row("[2]", 2.0), row("[2]", 2.0)], &want, 2).is_err());
        assert!(compare_up_to_ties(&[row("[1]", 3.0)], &want, 2).is_err());
    }
}
