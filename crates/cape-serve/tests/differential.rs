//! Differential correctness harness (ISSUE 2).
//!
//! For a deterministic grid of user questions over the synthetic DBLP and
//! Crime generators, assert that every execution strategy produces the
//! *same* top-k explanation list:
//!
//! * `NaiveExplainer` (exhaustive, the reference semantics),
//! * `OptimizedExplainer` (upper-bound pruning),
//! * `explain_cached` cold and warm (shared drill cache),
//! * `ExplainService` with 1 worker and with 4 workers (concurrent).
//!
//! "Same" means same candidate keys (pattern refinement + tuple), in the
//! same order, with scores equal to 1e-9 — the deterministic tie-break in
//! `cape_core::explain::topk` is what makes this well-defined.
//!
//! A deadline may cut an answer short but never make it wrong: every
//! entry of a `partial` answer is a candidate of the full enumeration,
//! with the same score.

use cape_core::config::MiningConfig;
use cape_core::explain::{
    norm_factor, offer_candidates, raw_candidates, relevant_fragment, ExplainConfig, ExplainStats,
    Explanation, TopK,
};
use cape_core::mining::{ArpMiner, Miner};
use cape_core::prelude::{NaiveExplainer, OptimizedExplainer, TopKExplainer};
use cape_core::question::{Direction, UserQuestion};
use cape_core::store::PatternStore;
use cape_data::ops::aggregate;
use cape_data::{AggFunc, AggSpec, AttrId, Relation, Value};
use cape_serve::{DrillCache, ExplainRequest, ExplainService, PatternStoreHandle, ServeConfig};
use std::collections::HashMap;
use std::time::{Duration, Instant};

const TOP_K: usize = 8;
const QUESTIONS_PER_DATASET: usize = 24;
const SCORE_TOL: f64 = 1e-9;

/// A deterministic grid of questions: group by `group_attrs`, rank the
/// result rows by count descending (ties broken by tuple values), take
/// the top `n` with alternating High/Low directions. No RNG — the grid is
/// a pure function of the relation.
fn question_grid(rel: &Relation, group_attrs: &[AttrId], n: usize) -> Vec<UserQuestion> {
    let result = aggregate(rel, group_attrs, &[AggSpec { func: AggFunc::Count, attr: None }])
        .expect("count query")
        .relation;
    let agg_col = group_attrs.len();
    let key_cols: Vec<usize> = (0..group_attrs.len()).collect();
    let mut order: Vec<usize> = (0..result.num_rows()).collect();
    order.sort_by(|&a, &b| {
        let ca = result.value(a, agg_col).as_f64().unwrap_or(0.0);
        let cb = result.value(b, agg_col).as_f64().unwrap_or(0.0);
        cb.total_cmp(&ca)
            .then_with(|| result.row_project(a, &key_cols).cmp(&result.row_project(b, &key_cols)))
    });
    order
        .iter()
        .take(n)
        .enumerate()
        .map(|(i, &row)| {
            let tuple = result.row_project(row, &key_cols);
            let agg_value = result.value(row, agg_col).as_f64().unwrap_or(0.0);
            let dir = if i % 2 == 0 { Direction::Low } else { Direction::High };
            let uq = UserQuestion::new(
                group_attrs.to_vec(),
                AggFunc::Count,
                None,
                tuple,
                agg_value,
                dir,
            );
            // Resolving the question from the relation must give exactly
            // the question read off the full aggregate.
            let resolved = UserQuestion::from_query(
                rel,
                uq.group_attrs.clone(),
                uq.agg,
                uq.agg_attr,
                uq.tuple.clone(),
                uq.dir,
            )
            .expect("tuple is in the aggregate");
            assert_eq!(resolved, uq);
            assert_eq!(resolved.agg_value.to_bits(), uq.agg_value.to_bits());
            uq
        })
        .collect()
}

fn assert_identical(label: &str, qi: usize, reference: &[Explanation], got: &[Explanation]) {
    assert_eq!(
        reference.len(),
        got.len(),
        "{label}: question {qi}: lengths differ ({} vs {})",
        reference.len(),
        got.len()
    );
    for (j, (a, b)) in reference.iter().zip(got).enumerate() {
        assert_eq!(a.key(), b.key(), "{label}: question {qi}: rank {j} candidate differs");
        assert!(
            (a.score - b.score).abs() < SCORE_TOL,
            "{label}: question {qi}: rank {j} score {} vs {}",
            a.score,
            b.score
        );
        assert_eq!(a.pattern_idx, b.pattern_idx, "{label}: question {qi}: rank {j} pattern");
    }
}

/// The full differential matrix for one mined dataset.
fn run_matrix(label: &str, rel: Relation, store: PatternStore, questions: Vec<UserQuestion>) {
    assert!(questions.len() >= 20, "{label}: differential grid too small ({})", questions.len());
    let cfg = ExplainConfig::default_for(&rel, TOP_K);
    let handle = PatternStoreHandle::new(rel, store);

    // Reference: the sequential naive explainer.
    let reference: Vec<Vec<Explanation>> =
        questions.iter().map(|q| NaiveExplainer.explain(handle.store(), q, &cfg).0).collect();
    let answered = reference.iter().filter(|r| !r.is_empty()).count();
    assert!(answered > 0, "{label}: no question produced any explanation — harness is vacuous");

    // Optimized sequential.
    for (i, q) in questions.iter().enumerate() {
        let (opt, _) = OptimizedExplainer.explain(handle.store(), q, &cfg);
        assert_identical(&format!("{label}/optimized"), i, &reference[i], &opt);
    }

    // Cached, cold then warm, on one shared cache.
    let cache = DrillCache::new(4096);
    for pass in ["cold", "warm"] {
        for (i, q) in questions.iter().enumerate() {
            let (served, _, partial) = cape_serve::explain_cached(&handle, &cache, q, &cfg, None);
            assert!(!partial);
            assert_identical(&format!("{label}/cached-{pass}"), i, &reference[i], &served);
        }
    }
    assert!(cache.hits() > 0, "{label}: warm pass never hit the cache");

    // Concurrent service, 1 and 4 workers — observed by a recorder so the
    // run doubles as an end-to-end check of the flight recorder.
    for threads in [1, 4] {
        let rec = cape_obs::Recorder::new();
        let guard = rec.install();
        let service = ExplainService::start(handle.clone(), ServeConfig::with_threads(threads));
        let responses = service
            .batch(questions.iter().map(|q| ExplainRequest::new(q.clone(), TOP_K)).collect());
        for (i, resp) in responses.iter().enumerate() {
            assert!(!resp.partial);
            assert_identical(
                &format!("{label}/service-{threads}t"),
                i,
                &reference[i],
                &resp.explanations,
            );
        }
        drop(service);
        drop(guard);
        assert_flight_separates_phases(&format!("{label}/service-{threads}t"), &rec, &responses);
    }
}

/// The flight recorder must have summarized every request, and each
/// retained slowest-request span tree must show queue wait and execution
/// as separate phases under the request root.
fn assert_flight_separates_phases(
    label: &str,
    rec: &cape_obs::Recorder,
    responses: &[cape_serve::ExplainResponse],
) {
    let snap = rec.snapshot();
    let flight = snap.requests.unwrap_or_else(|| panic!("{label}: no flight snapshot"));
    assert_eq!(flight.recorded, responses.len() as u64, "{label}: every request summarized");
    assert!(!flight.slowest.is_empty(), "{label}: slowest-N capture is empty");
    for slow in &flight.slowest {
        let root = &slow.spans[0];
        assert_eq!(root.name, "serve.request", "{label}: flight span root");
        let wait = root.children.iter().find(|c| c.name == "serve.queue_wait");
        let exec = root.children.iter().find(|c| c.name == "serve.exec");
        assert!(wait.is_some(), "{label}: span tree missing queue-wait phase");
        let exec = exec.unwrap_or_else(|| panic!("{label}: span tree missing execution phase"));
        assert!(exec.total_ns > 0, "{label}: execution phase empty");
        assert!(
            slow.summary.queue_ns + slow.summary.exec_ns <= slow.summary.total_ns,
            "{label}: phase split exceeds the request total"
        );
        // The summary's trace id matches a response the caller saw.
        assert!(
            responses.iter().any(|r| r.trace_id.as_u64() == slow.summary.trace_id),
            "{label}: flight trace id not found among responses"
        );
    }
}

/// The DBLP relation, its mined store, and its question grid.
fn dblp_grid() -> (Relation, PatternStore, Vec<UserQuestion>) {
    let rel = cape_datagen::dblp::generate(&cape_datagen::dblp::DblpConfig::with_rows(6000));
    let mut mcfg = MiningConfig {
        thresholds: cape_core::config::Thresholds::new(0.15, 4, 0.3, 3),
        psi: 3,
        ..MiningConfig::default()
    };
    mcfg.exclude = vec![cape_datagen::dblp::attrs::PUBID];
    let store = ArpMiner.mine(&rel, &mcfg).expect("mining").store;
    assert!(!store.is_empty(), "DBLP mining found no patterns");
    let questions = question_grid(
        &rel,
        &[
            cape_datagen::dblp::attrs::AUTHOR,
            cape_datagen::dblp::attrs::YEAR,
            cape_datagen::dblp::attrs::VENUE,
        ],
        QUESTIONS_PER_DATASET,
    );
    (rel, store, questions)
}

#[test]
fn dblp_grid_all_strategies_agree() {
    let (rel, store, questions) = dblp_grid();
    run_matrix("dblp", rel, store, questions);
}

/// Every `(P, P', t')` candidate that Definition 7 admits for `q`, with
/// its score. Each relevant `P` offers into its own unbounded [`TopK`],
/// so no candidate is deduplicated away against another `P`'s copy.
fn full_enumeration(
    store: &PatternStore,
    q: &UserQuestion,
    cfg: &ExplainConfig,
) -> HashMap<(usize, usize, Vec<Value>), f64> {
    let mut stats = ExplainStats::default();
    let mut all = HashMap::new();
    for (p_idx, p) in store.iter() {
        let Some(f_vals) = relevant_fragment(p, q) else { continue };
        let norm = norm_factor(p, q);
        let mut topk = TopK::new(usize::MAX);
        for &p2_idx in store.refinements_of(p_idx) {
            let p2 = store.get(p2_idx).expect("refinement index");
            let drill = raw_candidates(p.arp.f(), &f_vals, p2);
            offer_candidates(&drill, p_idx, p2_idx, p2, norm, q, cfg, &mut topk, &mut stats);
        }
        for e in topk.into_sorted_vec() {
            all.insert((e.pattern_idx, e.refinement_idx, e.tuple), e.score);
        }
    }
    all
}

/// Deadlines of 1 µs, 2 µs, 4 µs, … until the answer comes back
/// complete: each partial answer holds at most k entries in top-k order,
/// and each entry is a candidate of the full enumeration with the same
/// score. Entries are compared per `(P, P', t')`, because a partial
/// answer may hold a lower-scored `P` for the same `(P', t')` when the
/// deadline cut the search before the better one.
#[test]
fn deadline_truncates_answers_but_never_corrupts_them() {
    let (rel, store, questions) = dblp_grid();
    let cfg = ExplainConfig::default_for(&rel, TOP_K);
    let handle = PatternStoreHandle::new(rel, store);
    let mut nonempty_partials = 0usize;
    for (qi, q) in questions.iter().enumerate() {
        let full = full_enumeration(handle.store(), q, &cfg);
        let (complete, _) = OptimizedExplainer.explain(handle.store(), q, &cfg);
        let mut budget = Duration::from_micros(1);
        loop {
            let cache = DrillCache::new(4096);
            let deadline = Some(Instant::now() + budget);
            let (got, _, partial) = cape_serve::explain_cached(&handle, &cache, q, &cfg, deadline);
            let label = format!("question {qi}, deadline {budget:?}");
            assert!(got.len() <= TOP_K, "{label}: {} entries", got.len());
            for pair in got.windows(2) {
                let in_order = pair[0]
                    .score
                    .total_cmp(&pair[1].score)
                    .then_with(|| pair[1].key().cmp(&pair[0].key()))
                    .is_gt();
                assert!(in_order, "{label}: entries out of top-k order");
            }
            for e in &got {
                let key = (e.pattern_idx, e.refinement_idx, e.tuple.clone());
                let want =
                    full.get(&key).unwrap_or_else(|| panic!("{label}: {key:?} is not a candidate"));
                assert!(
                    (want - e.score).abs() < SCORE_TOL,
                    "{label}: {key:?} scored {} vs {want}",
                    e.score
                );
            }
            if !partial {
                assert_identical(&format!("dblp/deadline-{budget:?}"), qi, &complete, &got);
                break;
            }
            if !got.is_empty() {
                nonempty_partials += 1;
            }
            budget *= 2;
        }
    }
    assert!(nonempty_partials > 0, "no deadline produced a non-empty partial answer");
}

#[test]
fn crime_grid_all_strategies_agree() {
    let rel = cape_datagen::crime::generate(&cape_datagen::crime::CrimeConfig::with_rows(6000));
    let mcfg = MiningConfig {
        thresholds: cape_core::config::Thresholds::new(0.15, 4, 0.3, 3),
        psi: 3,
        ..MiningConfig::default()
    };
    let store = ArpMiner.mine(&rel, &mcfg).expect("mining").store;
    assert!(!store.is_empty(), "Crime mining found no patterns");
    let questions = question_grid(
        &rel,
        &[
            cape_datagen::crime::attrs::PRIMARY_TYPE,
            cape_datagen::crime::attrs::COMMUNITY,
            cape_datagen::crime::attrs::YEAR,
        ],
        QUESTIONS_PER_DATASET,
    );
    run_matrix("crime", rel, store, questions);
}

/// Mixed directions and k values through the concurrent service still
/// match per-question sequential answers (requests are heterogeneous, so
/// this exercises per-request config rather than shared state).
#[test]
fn heterogeneous_requests_match_sequential() {
    let rel = cape_datagen::dblp::generate(&cape_datagen::dblp::DblpConfig::with_rows(4000));
    let mut mcfg = MiningConfig {
        thresholds: cape_core::config::Thresholds::new(0.15, 4, 0.3, 3),
        psi: 3,
        ..MiningConfig::default()
    };
    mcfg.exclude = vec![cape_datagen::dblp::attrs::PUBID];
    let store = ArpMiner.mine(&rel, &mcfg).expect("mining").store;
    let questions = question_grid(
        &rel,
        &[cape_datagen::dblp::attrs::AUTHOR, cape_datagen::dblp::attrs::YEAR],
        10,
    );
    let handle = PatternStoreHandle::new(rel, store);
    let service = ExplainService::start(handle.clone(), ServeConfig::with_threads(3));
    let reqs: Vec<ExplainRequest> = questions
        .iter()
        .enumerate()
        .map(|(i, q)| ExplainRequest::new(q.clone(), 1 + (i % 5)))
        .collect();
    let responses = service.batch(reqs);
    for (i, (q, resp)) in questions.iter().zip(&responses).enumerate() {
        let cfg = ExplainConfig::default_for(handle.relation(), 1 + (i % 5));
        let (expected, _) = NaiveExplainer.explain(handle.store(), q, &cfg);
        assert_identical("dblp/heterogeneous", i, &expected, &resp.explanations);
    }
}
