//! `cape-e2e-bench`: one command from CSV to TCP answers.
//!
//! ```text
//! cape-e2e-bench --cape PATH --workload NAME [--seed N] [--seconds S]
//!                [--trace 0|1] [--workdir DIR]
//! ```
//!
//! Generates the workload's data from the seed as CSV, runs the release
//! binaries the way a user does (`cape mine --save`, then `cape serve
//! --store ... --listen 127.0.0.1:0`), drives the workload over TCP from
//! this one process, checks every answer against an in-process oracle,
//! and prints every end-to-end metric with its unit and sample count.
//! With `--trace 1` it also replays the set-up and the same request
//! stream in-process with spans around each module's public calls and
//! prints the per-layer metrics instead. The last stdout line is one
//! JSON object: `{"correct", "attempted", "failed", "metrics"}`.

mod check;
mod cli;
mod client;
mod host;
mod load;
mod replay;
mod report;
mod stats;
mod trace;
mod workload;

use cape_core::IncrStore;
use check::{compare, expected, parse_wire, Counts, Row, Tally};
use load::{Op, OpKind, Outcome};
use report::{lookup, Metric, END_TO_END, PER_LAYER};
use stats::Sample;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::Arc;
use workload::{Inputs, Stream, Workload, K};

/// Seed used when `--seed` is not given.
pub const DEFAULT_SEED: u64 = 1;
/// A second seed, never used while tuning, for validating later claims.
pub const VALIDATION_SEED: u64 = 2;
/// Store name the server registers.
const STORE: &str = "bench";

/// Print a progress line on stderr with the seconds since start.
fn note(what: impl std::fmt::Display) {
    static START: std::sync::OnceLock<std::time::Instant> = std::sync::OnceLock::new();
    let t = START.get_or_init(std::time::Instant::now).elapsed().as_secs_f64();
    eprintln!("[cape-e2e-bench {t:7.2}s] {what}");
}

struct Args {
    cape: PathBuf,
    workload: &'static Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    workdir: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut cape = None;
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = 20.0;
    let mut trace = false;
    let mut workdir = PathBuf::from(".bench_build/e2e-runs");
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--cape" => cape = Some(PathBuf::from(value()?)),
            "--workload" => {
                let name = value()?;
                let names: Vec<&str> = workload::WORKLOADS.iter().map(|w| w.name).collect();
                workload = Some(workload::by_name(&name).ok_or_else(|| {
                    format!("unknown workload `{name}` (one of {})", names.join(", "))
                })?);
            }
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds > 0.0 && seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, got `{other}`")),
                }
            }
            "--workdir" => workdir = PathBuf::from(value()?),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(Args {
        cape: cape.ok_or("--cape PATH is required")?,
        workload: workload.ok_or("--workload NAME is required")?,
        seed,
        seconds,
        trace,
        workdir,
    })
}

/// A per-run directory, removed on every exit path.
struct RunDir(PathBuf);

impl RunDir {
    fn create(root: &Path, w: &Workload, seed: u64) -> Result<RunDir, String> {
        let dir = root.join(format!("{}-{seed}-{}", w.name, std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir)
            .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
        Ok(RunDir(dir))
    }
}

impl Drop for RunDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("cape-e2e-bench: {e}");
            return ExitCode::from(2);
        }
    };
    if !args.cape.is_file() {
        eprintln!("cape-e2e-bench: no cape binary at {}", args.cape.display());
        return ExitCode::from(2);
    }
    let result =
        RunDir::create(&args.workdir, args.workload, args.seed).and_then(|dir| run(&args, &dir.0));
    match result {
        Ok(correct) if correct => ExitCode::SUCCESS,
        Ok(_) => {
            eprintln!("cape-e2e-bench: wrong or failed operations (see the tallies above)");
            ExitCode::from(1)
        }
        Err(e) => {
            eprintln!("cape-e2e-bench: {e}");
            ExitCode::from(1)
        }
    }
}

/// Everything the untraced run measured.
struct Measured {
    setups_s: Vec<f64>,
    phase: load::Phase,
    tail: Vec<Op>,
    finals: Vec<Outcome>,
    stores: Result<Vec<u8>, String>,
    server_cpu_s: f64,
    rss_mb: f64,
    noise: host::HostNoise,
}

fn measure(args: &Args, inputs: &Inputs, csv: &Path, dir: &Path) -> Result<Measured, String> {
    let w = args.workload;
    let mut setups_s = Vec::new();
    let mut server = None;
    for rep in 0..w.setup_reps {
        drop(server.take()); // stop the previous cold start's server first
        let rep_dir = dir.join(format!("setup-{rep}"));
        let (started, secs) =
            cli::cold_start(&args.cape, csv, &inputs.schema_spec, w.exclude, &rep_dir, STORE)?;
        setups_s.push(secs);
        server = Some(started);
    }
    let server = server.ok_or("no set-up ran")?;
    note(format!("{} cold start(s) timed", setups_s.len()));
    if w.stream == Stream::Hot {
        load::warm_up(server.addr, STORE, inputs)?;
    }
    let pid = server.pid();
    let cpu0 = host::process_cpu_s(pid).ok_or("cannot read the server's CPU time")?;
    let meter = host::NoiseMeter::start();
    let phase = load::run(server.addr, STORE, w, inputs, args.seconds);
    let tail = load::append_tail(server.addr, STORE, inputs, w.tail_appends);
    let noise = meter.finish();
    let server_cpu_s = host::process_cpu_s(pid).ok_or("cannot read the server's CPU time")? - cpu0;
    let rss_mb = host::peak_rss_mb(pid).ok_or("cannot read the server's peak RSS")?;
    let finals = load::final_answers(server.addr, STORE, inputs);
    let stores = load::get(server.addr, "/v1/stores");
    drop(server);
    Ok(Measured { setups_s, phase, tail, finals, stores, server_cpu_s, rss_mb, noise })
}

/// Tallies per operation type.
#[derive(Debug, Default)]
struct Tallies {
    explain: Tally,
    append: Tally,
    final_check: Tally,
}

impl Tallies {
    fn attempted(&self) -> usize {
        self.explain.attempted + self.append.attempted + self.final_check.attempted
    }

    fn failed(&self) -> usize {
        self.explain.failed() + self.append.failed() + self.final_check.failed()
    }
}

/// Count an outcome whose 2xx body `verdict` judged.
fn tally(t: &mut Tally, outcome: &Outcome, verdict: impl FnOnce(&[u8]) -> Result<(), String>) {
    t.attempted += 1;
    match outcome {
        Outcome::Transport(e) => {
            t.transport += 1;
            eprintln!("transport error: {e}");
        }
        Outcome::Status(s) => {
            t.http_status += 1;
            eprintln!("HTTP status {s}");
        }
        Outcome::Ok(body) => match verdict(body) {
            Ok(()) => t.succeeded += 1,
            Err(e) => {
                t.wrong_answer += 1;
                eprintln!("wrong answer: {e}");
            }
        },
    }
}

fn check_explain(body: &[u8], generation: u64, want: &[Row]) -> Result<(), String> {
    let got = parse_wire(body)?;
    if got.generation != generation {
        return Err(format!("generation {}, expected {generation}", got.generation));
    }
    if got.partial {
        return Err("partial answer".into());
    }
    compare(&got.rows, want)
}

fn check_append(
    body: &[u8],
    index: usize,
    rows: usize,
    report: Option<&cape_core::AppendReport>,
) -> Result<(), String> {
    let text = std::str::from_utf8(body).map_err(|e| e.to_string())?;
    let json = cape_obs::Json::parse(text)?;
    let num = |k: &str| json.get(k).and_then(cape_obs::Json::as_f64).unwrap_or(-1.0);
    let want = [
        ("appended_rows", rows as f64),
        ("generation", index as f64 + 2.0),
        ("wal_seq", index as f64 + 1.0),
    ];
    for (key, value) in want {
        if num(key) != value {
            return Err(format!("append {index}: `{key}` is {}, expected {value}", num(key)));
        }
    }
    if num("wal_bytes") <= 0.0 {
        return Err(format!("append {index}: no WAL bytes reported"));
    }
    if let Some(r) = report {
        let want = [
            ("fragments_revalidated", r.touched_fragments as f64),
            ("patterns", r.patterns as f64),
        ];
        for (key, value) in want {
            if num(key) != value {
                return Err(format!("append {index}: `{key}` is {}, in-process {value}", num(key)));
            }
        }
    }
    Ok(())
}

/// A question to answer in-process: its index, tuple and direction.
type Job = (usize, Vec<cape_data::Value>, cape_core::Direction);

/// Explanations beyond k the final check asks for, to see every
/// explanation tied with the k-th.
const TIE_SLACK: usize = 10;

/// Compute in-process top-`k` answers for `jobs` on `threads` threads.
fn answers(
    threads: usize,
    k: usize,
    jobs: &[Job],
    store: &cape_core::PatternStore,
    rel: &cape_data::Relation,
    counts: &Counts,
) -> Vec<(usize, Vec<Row>)> {
    let chunk = jobs.len().div_ceil(threads).max(1);
    std::thread::scope(|s| {
        let handles: Vec<_> = jobs
            .chunks(chunk)
            .map(|part| {
                s.spawn(move || {
                    part.iter()
                        .map(|(i, tuple, dir)| {
                            (*i, expected(store, rel, &counts.question(tuple, *dir), k))
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles.into_iter().flat_map(|h| h.join().expect("oracle thread")).collect()
    })
}

/// Check every operation; returns the tallies.
fn check_all(w: &Workload, inputs: &Inputs, csv: &Path, m: &Measured) -> Result<Tallies, String> {
    let file = std::fs::File::open(csv).map_err(|e| e.to_string())?;
    let rel =
        cape_data::csv::read_csv(file, inputs.base.schema().clone()).map_err(|e| e.to_string())?;
    let cfg = check::mining_config(&rel, w.exclude);
    let threads = host::cpus().clamp(1, 4);
    let mut t = Tallies::default();
    let ops: Vec<&Op> = m.phase.ops.iter().chain(&m.tail).collect();
    let acked = ops
        .iter()
        .filter(|o| o.kind == OpKind::Append && matches!(o.outcome, Outcome::Ok(_)))
        .count();
    let appended = &inputs.appends[..acked];

    // Explains of the phase, grouped by the generation they were sent at.
    let mut wanted: std::collections::BTreeMap<usize, Vec<usize>> = Default::default();
    for op in ops.iter().filter(|o| o.kind == OpKind::Explain) {
        wanted.entry(op.appends_before).or_default().push(op.index);
    }
    for qs in wanted.values_mut() {
        qs.sort_unstable();
        qs.dedup();
    }
    let jobs_for = |gen: usize| -> Vec<Job> {
        wanted
            .get(&gen)
            .map(|qs| {
                qs.iter()
                    .map(|&i| (i, inputs.questions[i].tuple.clone(), inputs.questions[i].dir))
                    .collect()
            })
            .unwrap_or_default()
    };
    // The server serves the store `IncrStore::open` rebuilds from the
    // snapshot. Rebuild the same store here, replay the acknowledged
    // appends on it, and answer each explain from the epoch it was asked
    // at; one thread answers epoch g while the next append runs.
    let mut incr = IncrStore::build(rel.clone(), cfg.clone())
        .map_err(|e| format!("incremental rebuild: {e}"))?;
    note("incremental store rebuilt for the check");
    let mut counts = Counts::new(&rel, &inputs.group_attrs);
    let mut reports = Vec::new();
    type Epoch = (usize, Arc<cape_core::PatternStore>, cape_data::Relation, Counts);
    let (tx, rx) = std::sync::mpsc::sync_channel::<Epoch>(1);
    let jobs_for = &jobs_for;
    let expect: std::collections::HashMap<(usize, usize), Vec<Row>> =
        std::thread::scope(|s| -> Result<_, String> {
            let worker = s.spawn(move || {
                let mut out = std::collections::HashMap::new();
                for (g, store, rel, counts) in rx {
                    for (i, rows) in answers(threads, K, &jobs_for(g), &store, &rel, &counts) {
                        out.insert((g, i), rows);
                    }
                }
                out
            });
            let send = |g, incr: &IncrStore, counts: &Counts| {
                let epoch = (g, incr.store(), incr.relation().clone(), counts.clone());
                tx.send(epoch).map_err(|_| "oracle thread stopped".to_string())
            };
            send(0, &incr, &counts)?;
            for (g, rows) in appended.iter().enumerate() {
                let report =
                    incr.append(rows.to_vec()).map_err(|e| format!("replaying append {g}: {e}"))?;
                reports.push(report);
                for row in rows {
                    counts.add(row);
                }
                if !jobs_for(g + 1).is_empty() {
                    send(g + 1, &incr, &counts)?;
                }
            }
            drop(tx);
            Ok(worker.join().expect("oracle thread"))
        })?;
    drop(incr);
    for op in &ops {
        match op.kind {
            OpKind::Explain => {
                let want = &expect[&(op.appends_before, op.index)];
                tally(&mut t.explain, &op.outcome, |b| {
                    check_explain(b, op.appends_before as u64 + 1, want)
                });
            }
            OpKind::Append => {
                tally(&mut t.append, &op.outcome, |b| {
                    check_append(b, op.index, w.append_rows, reports.get(op.index))
                });
            }
        }
    }

    note("every phase answer compared");
    // The final epoch against a from-scratch mine of base + appended.
    let (full, store) = check::from_scratch(&rel, &appended.concat(), &cfg)?;
    note("from-scratch mine done");
    let full_counts = Counts::new(&full, &inputs.group_attrs);
    let finals = load::final_questions(inputs);
    let jobs: Vec<_> =
        finals.iter().enumerate().map(|(i, q)| (i, q.tuple.clone(), q.dir)).collect();
    // A batch mine orders patterns differently from the incremental
    // store, and pattern order breaks exact score ties, so compare with
    // the from-scratch top-(k + TIE_SLACK) up to ties.
    let mut want = answers(threads, K + TIE_SLACK, &jobs, &store, &full, &full_counts);
    want.sort_by_key(|(i, _)| *i);
    for (outcome, (_, rows)) in m.finals.iter().zip(&want) {
        tally(&mut t.final_check, outcome, |body| {
            let got = parse_wire(body)?;
            if got.generation != acked as u64 + 1 {
                return Err(format!("final generation {}, expected {}", got.generation, acked + 1));
            }
            check::compare_up_to_ties(&got.rows, rows, K)
        });
    }
    let listing = match &m.stores {
        Ok(body) => Outcome::Ok(body.clone()),
        Err(e) => Outcome::Transport(e.clone()),
    };
    tally(&mut t.final_check, &listing, |body| {
        let json = cape_obs::Json::parse(std::str::from_utf8(body).map_err(|e| e.to_string())?)?;
        let entry = json
            .get("stores")
            .and_then(|s| s.as_arr())
            .and_then(|s| s.first())
            .ok_or("no store listed")?;
        let num = |k: &str| entry.get(k).and_then(cape_obs::Json::as_f64).unwrap_or(-1.0);
        let want = [
            ("patterns", store.len() as f64),
            ("rows", full.num_rows() as f64),
            ("generation", acked as f64 + 1.0),
        ];
        for (key, value) in want {
            if num(key) != value {
                return Err(format!("final store `{key}` is {}, from scratch {value}", num(key)));
            }
        }
        Ok(())
    });
    Ok(t)
}

fn latencies(ops: &[Op], kind: OpKind) -> Sample {
    Sample::new(
        ops.iter()
            .filter(|o| o.kind == kind && matches!(o.outcome, Outcome::Ok(_)))
            .map(|o| o.latency_ms)
            .collect(),
    )
}

fn percentile_metric(name: &str, s: &Sample, p: f64) -> Metric {
    if !s.supports(p) {
        eprintln!(
            "note: {name} rests on {} samples; the rule asks for {}",
            s.len(),
            stats::min_samples(p)
        );
    }
    Metric {
        def: lookup(&END_TO_END, name),
        value: s.percentile(p).unwrap_or(f64::NAN),
        samples: s.len(),
    }
}

fn end_to_end(m: &Measured) -> Vec<Metric> {
    let ops: Vec<Op> = m.phase.ops.iter().chain(&m.tail).cloned().collect();
    let explains = latencies(&m.phase.ops, OpKind::Explain);
    let appends = latencies(&ops, OpKind::Append);
    let setups = Sample::new(m.setups_s.clone());
    let e2e = |name, value, samples| Metric { def: lookup(&END_TO_END, name), value, samples };
    vec![
        e2e("setup_s", setups.median().unwrap_or(f64::NAN), setups.len()),
        percentile_metric("explain_p50_ms", &explains, 0.5),
        percentile_metric("explain_p75_ms", &explains, 0.75),
        e2e("explain_rps", explains.len() as f64 / m.phase.elapsed_s, explains.len()),
        percentile_metric("append_p50_ms", &appends, 0.5),
        percentile_metric("append_p75_ms", &appends, 0.75),
        e2e("rss_mb", m.rss_mb, 1),
    ]
}

fn tally_report(t: &Tallies) -> String {
    let line = |name: &str, t: &Tally| {
        format!(
            "  {name:<8} attempted {:>6}  succeeded {:>6}  failed {:>4} (transport {}, http status {}, wrong answer {})\n",
            t.attempted, t.succeeded, t.failed(), t.transport, t.http_status, t.wrong_answer
        )
    };
    let rate = t.failed() as f64 / t.attempted().max(1) as f64;
    format!(
        "operations\n{}{}{}  error_rate {rate} ({} failed / {} attempted)\n",
        line("explain", &t.explain),
        line("append", &t.append),
        line("final", &t.final_check),
        t.failed(),
        t.attempted()
    )
}

fn noise_report(n: &host::HostNoise) -> String {
    format!(
        "host noise (not gated): host_cpus {} loadavg_1m {:.2} steal_s {:.2} probe_before_ms {:.3} probe_after_ms {:.3}\n",
        n.cpus, n.loadavg_1m, n.steal_s, n.probe_before_ms, n.probe_after_ms
    )
}

fn run(args: &Args, dir: &Path) -> Result<bool, String> {
    let w = args.workload;
    let inputs = workload::generate(w, args.seed);
    let csv = dir.join("data.csv");
    {
        let file = std::fs::File::create(&csv).map_err(|e| format!("{}: {e}", csv.display()))?;
        let mut out = std::io::BufWriter::new(file);
        cape_data::csv::write_csv(&mut out, &inputs.base).map_err(|e| e.to_string())?;
        std::io::Write::flush(&mut out).map_err(|e| e.to_string())?;
    }
    note(format!("inputs of {} written", w.name));
    let m = measure(args, &inputs, &csv, dir)?;
    note("measured; checking answers");
    let tallies = check_all(w, &inputs, &csv, &m)?;
    note("answers checked");
    let correct = tallies.failed() == 0;
    let e2e = end_to_end(&m);
    println!(
        "workload {} seed {} seconds {} trace {} ({} clients, {} base rows)",
        w.name,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        w.clients,
        inputs.base.num_rows()
    );
    print!("{}", tally_report(&tallies));
    print!("{}", noise_report(&m.noise));
    print!("{}", report::table("end-to-end (tracing off)", &e2e));
    let metrics = if args.trace {
        let layers = traced(args, &inputs, &csv, dir, &m, &tallies)?;
        print!("{}", report::table("per layer (traced run)", &layers));
        layers
    } else {
        e2e
    };
    println!("{}", report::result_line(correct, tallies.attempted(), tallies.failed(), &metrics));
    Ok(correct)
}

fn traced(
    args: &Args,
    inputs: &Inputs,
    csv: &Path,
    dir: &Path,
    m: &Measured,
    tallies: &Tallies,
) -> Result<Vec<Metric>, String> {
    let w = args.workload;
    let r = replay::run(w, inputs, csv, &dir.join("replay"), &m.phase.ops, &m.tail)?;
    note("traced replay done");
    let spans = r.tracer.spans();
    let spans_path = args.workdir.join(format!("{}-{}.spans.jsonl", w.name, args.seed));
    trace::write_jsonl(&spans, &spans_path)
        .map_err(|e| format!("cannot write {}: {e}", spans_path.display()))?;
    println!("spans: {} written to {}", spans.len(), spans_path.display());
    let selfs = trace::self_times(&spans);
    let durations = |name: &str, self_time: bool, scale: f64| -> Sample {
        Sample::new(
            spans
                .iter()
                .filter(|s| s.name == name)
                .map(|s| if self_time { selfs[&s.id] } else { s.dur() } as f64 / scale)
                .collect(),
        )
    };
    let mut out = Vec::new();
    let mut push = |name: &str, value: f64, samples: usize| {
        out.push(Metric { def: lookup(&PER_LAYER, name), value, samples });
    };
    let p50 = |s: &Sample| s.percentile(0.5).unwrap_or(f64::NAN);
    const S: f64 = 1e9;
    const MS: f64 = 1e6;
    for (metric, span, self_time, scale) in [
        ("cape-data.read_csv_s", "cape-data.read_csv", false, S),
        ("cape-core.mining.mine_s", "cape-core.mining.mine", false, S),
        ("cape-core.snapshot.save_s", "cape-core.snapshot.save", false, S),
        ("cape-core.incr.open_s", "cape-core.incr.open", false, S),
        ("cape-serve.handle_build_ms", "cape-serve.handle_build", false, MS),
        ("cape-serve.service_start_ms", "cape-serve.service_start", false, MS),
    ] {
        let s = durations(span, self_time, scale);
        push(metric, p50(&s), s.len());
    }
    let c = &r.counts;
    push("cape-core.mining.patterns", c.patterns as f64, 1);
    push("cape-core.mining.local_patterns", c.local_patterns as f64, 1);
    push("cape-core.snapshot.bytes", c.snapshot_bytes as f64, 1);

    let mut breakdowns = String::new();
    for (root, scale, unit, wall_name, rest_name) in [
        ("setup", S, "s", "setup.traced_wall_s", "setup.unattributed_s"),
        ("explain", MS, "ms", "explain.traced_wall_ms", "explain.unattributed_ms"),
        ("append", MS, "ms", "append.traced_wall_ms", "append.unattributed_ms"),
    ] {
        let b = trace::breakdown(&spans, root);
        breakdowns.push_str(&breakdown_report(root, &b, scale, unit));
        push(wall_name, b.wall_ns / scale, b.roots);
        push(rest_name, b.unattributed_ns / scale, b.roots);
    }
    for (metric, span, self_time) in [
        ("cape-obs.json_parse_ms", "cape-obs.json_parse", false),
        ("cape-net.parse_body_ms", "cape-net.parse_body", true),
        ("cape-core.question.resolve_ms", "cape-core.question.resolve", false),
        ("cape-serve.queue_wait_ms", "cape-serve.queue_wait", false),
        ("cape-serve.exec_ms", "cape-serve.exec", false),
        ("cape-serve.handoff_ms", "cape-serve.batch", true),
        ("cape-net.render_ms", "cape-net.render", false),
        ("cape-net.append_parse_ms", "cape-net.append_parse", false),
        ("cape-core.incr.append_ms", "cape-core.incr.append", false),
        ("cape-net.epoch_install_ms", "cape-net.epoch_install", false),
    ] {
        let s = durations(span, self_time, MS);
        push(metric, p50(&s), s.len());
    }
    push(
        "cape-serve.cache_hit_ratio",
        c.cache_hits as f64 / c.cache_lookups.max(1) as f64,
        c.cache_lookups as usize,
    );
    for (metric, values) in [
        ("cape-core.explain.tuples_checked", &c.tuples_checked),
        ("cape-core.explain.refinements_considered", &c.refinements_considered),
        ("cape-core.explain.patterns_relevant", &c.patterns_relevant),
        ("cape-net.response_bytes", &c.response_bytes),
        ("cape-core.incr.fragments_revalidated", &c.fragments_revalidated),
        ("cape-core.incr.wal_bytes", &c.wal_bytes),
    ] {
        let s = Sample::new(values.clone());
        push(metric, p50(&s), s.len());
    }
    // The same requests over the wire and in-process.
    let replayed: Vec<Op> = (0..w.clients)
        .flat_map(|c| m.phase.ops.iter().filter(move |o| o.client == c).take(w.replay_ops))
        .cloned()
        .collect();
    let wire = latencies(&replayed, OpKind::Explain);
    let in_process = durations("explain", false, MS);
    push("cape-net.wire_overhead_ms", p50(&wire) - p50(&in_process), in_process.len());
    let ops = m.phase.ops.len() + m.tail.len();
    push("server.cpu_ms_per_op", m.server_cpu_s * 1e3 / ops.max(1) as f64, ops);
    let (off, on) = (Sample::new(r.untraced_ms.clone()), Sample::new(r.traced_ms.clone()));
    push("trace.explain_overhead_ms", p50(&on) - p50(&off), on.len());
    push("trace.spans", spans.len() as f64, spans.len());
    let n = &m.noise;
    push("host.cpus", n.cpus as f64, 1);
    push("host.loadavg_1m", n.loadavg_1m, 1);
    push("host.steal_s", n.steal_s, 1);
    push("host.probe_before_ms", n.probe_before_ms, 1);
    push("host.probe_after_ms", n.probe_after_ms, 1);
    push(
        "error_rate",
        tallies.failed() as f64 / tallies.attempted().max(1) as f64,
        tallies.attempted(),
    );
    print!("{breakdowns}");
    println!(
        "tracing overhead: explain p50 {:.4} ms traced vs {:.4} ms untraced in-process ({} pairs)",
        p50(&on),
        p50(&off),
        on.len()
    );
    // Keep the printed order of BENCHMARK.json.
    out.sort_by_key(|x| PER_LAYER.iter().position(|d| d.name == x.def.name));
    Ok(out)
}

fn breakdown_report(root: &str, b: &trace::Breakdown, scale: f64, unit: &str) -> String {
    let mut s =
        format!("{root}: traced wall {:.6} {unit} (mean of {})\n", b.wall_ns / scale, b.roots);
    let mut sum = 0.0;
    for (layer, ns) in &b.layers {
        sum += ns;
        s.push_str(&format!(
            "  {layer:<32} {:>12.6} {unit}  {:>5.1}%\n",
            ns / scale,
            100.0 * ns / b.wall_ns.max(1.0)
        ));
    }
    sum += b.unattributed_ns;
    s.push_str(&format!(
        "  {:<32} {:>12.6} {unit}  {:>5.1}%\n  {:<32} {:>12.6} {unit}\n",
        "unattributed",
        b.unattributed_ns / scale,
        100.0 * b.unattributed_ns / b.wall_ns.max(1.0),
        "sum (= traced wall)",
        sum / scale
    ));
    s
}
