//! The traced run: the set-up and a prefix of the same request stream,
//! replayed in-process through the public functions of each module, with
//! a span around every call.
//!
//! The replay mirrors what `cape mine --save` and `cape serve` do: read
//! the CSV, mine, save the snapshot; read the CSV again, open the
//! incremental store, build the serving handle and start the worker
//! pool. A request is then decoded, resolved, executed and rendered the
//! way the HTTP front-end does it, and an append commits, re-validates
//! and installs a new epoch the way the store registry does it.

use crate::check::mining_config;
use crate::load::{Op, OpKind};
use crate::trace::{Closed, Tracer};
use crate::workload::{append_body, Inputs, Question, Stream, Workload};
use cape_core::mining::{ArpMiner, Miner};
use cape_core::snapshot::save_snapshot;
use cape_core::{IncrStore, UserQuestion};
use cape_net::json_api::{explain_response_json, parse_append_body, parse_explain_body};
use cape_net::HttpResponse;
use cape_obs::{Json, TraceId};
use cape_serve::{ExplainRequest, ExplainService, PatternStoreHandle, ServeConfig};
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Appends of the tail the replay repeats.
const TAIL_REPLAY: usize = 20;
/// Explain pairs (untraced, traced) timed for the tracing overhead.
const OVERHEAD_PAIRS: usize = 48;
/// Time budget for those pairs.
const OVERHEAD_BUDGET: Duration = Duration::from_secs(4);

/// The serving configuration of the benchmark's `cape serve`.
fn serve_config() -> ServeConfig {
    ServeConfig {
        threads: crate::cli::SERVE_THREADS,
        cache_capacity: crate::cli::SERVE_CACHE,
        distance: None,
        access_log: None,
    }
}

/// One snapshot version being served, as the registry holds it.
struct Epoch {
    generation: u64,
    handle: PatternStoreHandle,
    service: ExplainService,
}

/// Counts read at the layer boundaries of the replay.
#[derive(Debug, Default)]
pub struct LayerCounts {
    /// Patterns the mine found.
    pub patterns: usize,
    /// Local patterns the mine found.
    pub local_patterns: usize,
    /// Snapshot bytes written.
    pub snapshot_bytes: u64,
    /// Drill-cache hits over every epoch.
    pub cache_hits: u64,
    /// Drill-cache lookups over every epoch.
    pub cache_lookups: u64,
    /// `ExplainStats::tuples_checked` per explain.
    pub tuples_checked: Vec<f64>,
    /// `ExplainStats::refinements_considered` per explain.
    pub refinements_considered: Vec<f64>,
    /// `ExplainStats::patterns_relevant` per explain.
    pub patterns_relevant: Vec<f64>,
    /// Response body bytes per explain.
    pub response_bytes: Vec<f64>,
    /// `AppendReport::touched_fragments` per append.
    pub fragments_revalidated: Vec<f64>,
    /// `AppendReport::wal_bytes` per append.
    pub wal_bytes: Vec<f64>,
}

impl LayerCounts {
    fn absorb_cache(&mut self, service: &ExplainService) {
        let (hits, misses) = (service.cache().hits(), service.cache().misses());
        self.cache_hits += hits;
        self.cache_lookups += hits + misses;
    }
}

/// What the traced run measured.
pub struct Replay {
    /// Spans of the set-up and the replayed stream.
    pub tracer: Tracer,
    /// Counts.
    pub counts: LayerCounts,
    /// Untraced explain wall times of the overhead pairs, ms.
    pub untraced_ms: Vec<f64>,
    /// Traced explain wall times of the same pairs, ms.
    pub traced_ms: Vec<f64>,
}

fn err(what: &str) -> impl Fn(String) -> String + '_ {
    move |e| format!("{what}: {e}")
}

/// Build a serving epoch from the incremental store, as the registry
/// does: relation clone + `from_arcs`, then `ExplainService::start`.
fn build_epoch(
    tracer: &Tracer,
    parent: &crate::trace::Span<'_>,
    request: u64,
    incr: &IncrStore,
    generation: u64,
) -> Epoch {
    let span = tracer.span("cape-serve.handle_build", Some(parent), request);
    let handle = PatternStoreHandle::from_arcs(Arc::new(incr.relation().clone()), incr.store());
    drop(span);
    let span = tracer.span("cape-serve.service_start", Some(parent), request);
    let service = ExplainService::start(handle.clone(), serve_config());
    drop(span);
    Epoch { generation, handle, service }
}

/// Counters an explain returns besides its timing.
struct ExplainOut {
    parse: Closed,
    bytes: usize,
    tuples_checked: usize,
    refinements_considered: usize,
    patterns_relevant: usize,
}

/// One explain, the way the front-end handles `POST /v1/{store}/explain`.
fn explain(tracer: &Tracer, request: u64, epoch: &Epoch, body: &str) -> Result<ExplainOut, String> {
    let root = tracer.span("explain", None, request);
    let span = tracer.span("cape-obs.json_parse", Some(&root), request);
    let json = Json::parse(body).map_err(err("request JSON"))?;
    drop(span);
    let span = tracer.span("cape-net.parse_body", Some(&root), request);
    let parsed =
        parse_explain_body(&json, epoch.handle.relation()).map_err(|e| format!("{e:?}"))?;
    let parse = span.close();
    let span = tracer.span("cape-serve.batch", Some(&root), request);
    let submitted = Instant::now();
    let req = ExplainRequest::new(parsed.question, parsed.k).with_trace(TraceId::next());
    let resp = epoch.service.batch(vec![req]).pop().ok_or("no answer")?;
    tracer.record("cape-serve.queue_wait", &span, submitted, resp.queue_wait);
    tracer.record("cape-serve.exec", &span, submitted + resp.queue_wait, resp.exec_time);
    drop(span);
    let span = tracer.span("cape-net.render", Some(&root), request);
    let schema = epoch.handle.relation().schema();
    let json =
        explain_response_json("bench", epoch.generation, &resp, schema, epoch.handle.store());
    let http = HttpResponse::json(200, &json);
    drop(span);
    drop(root);
    Ok(ExplainOut {
        parse,
        bytes: http.body.len(),
        tuples_checked: resp.stats.tuples_checked,
        refinements_considered: resp.stats.refinements_considered,
        patterns_relevant: resp.stats.patterns_relevant,
    })
}

/// The question resolution inside `parse_explain_body`, timed on its own
/// and recorded as a child of that call's span.
fn resolve_probe(
    tracer: &Tracer,
    parse: &Closed,
    rel: &cape_data::Relation,
    sql: &str,
    q: &Question,
) -> Result<(), String> {
    let t0 = Instant::now();
    UserQuestion::from_sql(rel, sql, q.tuple.clone(), q.dir).map_err(|e| e.to_string())?;
    tracer.record_in("cape-core.question.resolve", parse, t0.elapsed());
    Ok(())
}

/// One append, the way the front-end handles `POST
/// /admin/stores/{store}/append` and the registry installs the epoch.
fn append(
    tracer: &Tracer,
    request: u64,
    epoch: &mut Epoch,
    incr: &mut IncrStore,
    body: &str,
    counts: &mut LayerCounts,
) -> Result<(), String> {
    let root = tracer.span("append", None, request);
    let span = tracer.span("cape-obs.json_parse", Some(&root), request);
    let json = Json::parse(body).map_err(err("append JSON"))?;
    drop(span);
    let span = tracer.span("cape-net.append_parse", Some(&root), request);
    let rows = parse_append_body(&json, incr.relation().schema()).map_err(|e| format!("{e:?}"))?;
    drop(span);
    let span = tracer.span("cape-core.incr.append", Some(&root), request);
    let report = incr.append(rows).map_err(|e| e.to_string())?;
    drop(span);
    let span = tracer.span("cape-net.epoch_install", Some(&root), request);
    let next = build_epoch(tracer, &span, request, incr, epoch.generation + 1);
    let previous = std::mem::replace(epoch, next);
    counts.absorb_cache(&previous.service);
    drop(previous); // joins the old worker pool, as the registry does
    drop(span);
    let span = tracer.span("cape-net.append_render", Some(&root), request);
    let json = Json::Obj(vec![
        ("store".into(), Json::Str("bench".into())),
        ("generation".into(), Json::Num(epoch.generation as f64)),
        ("appended_rows".into(), Json::Num(report.appended_rows as f64)),
        ("fragments_revalidated".into(), Json::Num(report.touched_fragments as f64)),
        ("patterns".into(), Json::Num(report.patterns as f64)),
        ("wal_seq".into(), report.wal_seq.map_or(Json::Null, |s| Json::Num(s as f64))),
        ("wal_bytes".into(), Json::Num(report.wal_bytes as f64)),
        ("auto_compacted".into(), Json::Bool(report.auto_compacted)),
    ]);
    let _ = HttpResponse::json(200, &json);
    drop(span);
    drop(root);
    counts.fragments_revalidated.push(report.touched_fragments as f64);
    counts.wal_bytes.push(report.wal_bytes as f64);
    Ok(())
}

/// Replay the set-up, then each client's first `w.replay_ops` operations
/// of the measured phase, then the first appends of the tail.
pub fn run(
    w: &Workload,
    inputs: &Inputs,
    csv: &Path,
    dir: &Path,
    phase: &[Op],
    tail: &[Op],
) -> Result<Replay, String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let tracer = Tracer::default();
    let mut counts = LayerCounts::default();
    let store_path = dir.join("store.cape");
    let schema = inputs.base.schema().clone();
    let read_csv = |tracer: &Tracer, root: &crate::trace::Span<'_>| {
        let span = tracer.span("cape-data.read_csv", Some(root), 0);
        let file = std::fs::File::open(csv).map_err(|e| format!("{}: {e}", csv.display()))?;
        let rel = cape_data::csv::read_csv(file, schema.clone()).map_err(|e| e.to_string());
        drop(span);
        rel
    };

    // Set-up: `cape mine --save`, then `cape serve --store`.
    let root = tracer.span("setup", None, 0);
    let rel = read_csv(&tracer, &root)?;
    let cfg = mining_config(&rel, w.exclude);
    let span = tracer.span("cape-core.mining.mine", Some(&root), 0);
    let out = ArpMiner.mine(&rel, &cfg).map_err(|e| e.to_string())?;
    drop(span);
    let span = tracer.span("cape-core.snapshot.save", Some(&root), 0);
    counts.snapshot_bytes =
        save_snapshot(&store_path, rel.schema(), &cfg, &out.store).map_err(|e| e.to_string())?;
    drop(span);
    counts.patterns = out.store.len();
    counts.local_patterns = out.store.num_local_patterns();
    drop((out, rel));
    let rel = read_csv(&tracer, &root)?;
    let span = tracer.span("cape-core.incr.open", Some(&root), 0);
    let mut incr = IncrStore::open(&store_path, &rel).map_err(|e| e.to_string())?;
    drop(span);
    let mut epoch = build_epoch(&tracer, &root, 0, &incr, 1);
    drop(root);
    drop(rel);

    let body_of = |op: &Op| -> String {
        match op.kind {
            OpKind::Explain => inputs.questions[op.index].body.clone(),
            OpKind::Append => append_body(&inputs.appends[op.index]),
        }
    };
    if w.stream == Stream::Hot {
        for q in &inputs.questions {
            explain(&Tracer::disabled(), 0, &epoch, &q.body)?;
        }
    }

    // Tracing overhead: the same explains untraced and traced, in
    // alternating order, each side on a fresh worker pool of its own.
    let (untraced_ms, traced_ms) = overhead(w, inputs, &epoch, phase)?;

    // The stream prefix, one thread per client as in the measured phase.
    let per_client: Vec<Vec<&Op>> = (0..w.clients)
        .map(|c| phase.iter().filter(|o| o.client == c).take(w.replay_ops).collect())
        .collect();
    let next_request = std::sync::atomic::AtomicU64::new(1);
    let rid = || next_request.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    let traced_explain = |epoch: &Epoch, op: &Op| -> Result<ExplainOut, String> {
        let out = explain(&tracer, rid(), epoch, &body_of(op))?;
        let q = &inputs.questions[op.index];
        resolve_probe(&tracer, &out.parse, epoch.handle.relation(), &inputs.sql, q)?;
        Ok(out)
    };
    if w.clients > 1 {
        let outs: Vec<Result<Vec<ExplainOut>, String>> = std::thread::scope(|s| {
            let handles: Vec<_> = per_client
                .iter()
                .map(|ops| {
                    let (epoch, traced_explain) = (&epoch, &traced_explain);
                    s.spawn(move || {
                        ops.iter()
                            .filter(|op| op.kind == OpKind::Explain)
                            .map(|op| traced_explain(epoch, op))
                            .collect()
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().expect("replay client")).collect()
        });
        for out in outs {
            for o in out? {
                counts_explain(&mut counts, &o);
            }
        }
    } else {
        for op in &per_client[0] {
            match op.kind {
                OpKind::Explain => counts_explain(&mut counts, &traced_explain(&epoch, op)?),
                OpKind::Append => {
                    append(&tracer, rid(), &mut epoch, &mut incr, &body_of(op), &mut counts)?
                }
            }
        }
    }
    for op in tail.iter().take(TAIL_REPLAY) {
        append(&tracer, rid(), &mut epoch, &mut incr, &body_of(op), &mut counts)?;
    }
    counts.absorb_cache(&epoch.service);
    Ok(Replay { tracer, counts, untraced_ms, traced_ms })
}

fn counts_explain(counts: &mut LayerCounts, out: &ExplainOut) {
    counts.tuples_checked.push(out.tuples_checked as f64);
    counts.refinements_considered.push(out.refinements_considered as f64);
    counts.patterns_relevant.push(out.patterns_relevant as f64);
    counts.response_bytes.push(out.bytes as f64);
}

/// Time the first explains of the phase once untraced and once traced,
/// alternating which goes first; returns (untraced ms, traced ms).
fn overhead(
    w: &Workload,
    inputs: &Inputs,
    epoch: &Epoch,
    phase: &[Op],
) -> Result<(Vec<f64>, Vec<f64>), String> {
    let off = Tracer::disabled();
    let on = Tracer::default();
    // Each side has a worker pool and drill cache of its own, so both see
    // the same cache history.
    let side = || Epoch {
        generation: epoch.generation,
        handle: epoch.handle.clone(),
        service: ExplainService::start(epoch.handle.clone(), serve_config()),
    };
    let (untraced_side, traced_side) = (side(), side());
    if w.stream == Stream::Hot {
        for q in &inputs.questions {
            explain(&off, 0, &untraced_side, &q.body)?;
            explain(&off, 0, &traced_side, &q.body)?;
        }
    }
    let time = |tracer: &Tracer, side: &Epoch, request: u64, body: &str| {
        let t0 = Instant::now();
        explain(tracer, request, side, body).map(|_| t0.elapsed().as_secs_f64() * 1e3)
    };
    let mut untraced = Vec::new();
    let mut traced = Vec::new();
    let started = Instant::now();
    let explains = phase.iter().filter(|op| op.kind == OpKind::Explain);
    for (i, op) in explains.take(OVERHEAD_PAIRS).enumerate() {
        if started.elapsed() > OVERHEAD_BUDGET {
            break;
        }
        let body = &inputs.questions[op.index].body;
        let request = i as u64 + 1;
        if i % 2 == 0 {
            untraced.push(time(&off, &untraced_side, request, body)?);
            traced.push(time(&on, &traced_side, request, body)?);
        } else {
            traced.push(time(&on, &traced_side, request, body)?);
            untraced.push(time(&off, &untraced_side, request, body)?);
        }
    }
    Ok((untraced, traced))
}
