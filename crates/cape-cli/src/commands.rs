//! The `cape` subcommands.

use crate::args::Args;
use crate::io::{load_csv, parse_schema, parse_tuple};
use crate::CliError;
use cape_core::explain::{render_table, BaselineExplainer, ExplainConfig, TopKExplainer};
use cape_core::incr::{wal, wal_path_for};
use cape_core::mining::{ArpMiner, Miner};
use cape_core::prelude::OptimizedExplainer;
use cape_core::report::narrate_all;
use cape_core::snapshot::{self, SnapshotError};
use cape_core::{Direction, IncrError, IncrStore, MiningConfig, Thresholds, UserQuestion};
use cape_data::sql;
use cape_data::Relation;
use std::path::Path;

/// CLI usage text.
pub const USAGE: &str = "\
cape — explaining aggregate query answers with pattern-based counterbalances

USAGE:
  cape demo
      Run the built-in DBLP walk-through end to end.

  cape mine --csv FILE --schema SPEC [--psi N] [--theta F] [--delta N]
            [--lambda F] [--support N] [--fd] [--exclude COLS]
            --save FILE [--v2]
      Mine aggregate regression patterns and save them as a versioned,
      checksummed binary snapshot (written atomically; load it back with
      --store). --v2 writes format version 2, which also embeds the
      relation's column slabs; every command that takes --store (append,
      --compact and serve included) reads either version.

  cape append --csv FILE --schema SPEC --store FILE --rows FILE [--compact]
      Append rows (a CSV with the same schema) to a mined --store snapshot
      incrementally: only fragments whose membership changed are
      re-validated, and the delta is made durable in a write-ahead log
      beside the snapshot (STORE.wal) before any state changes. --compact
      folds the log back into the snapshot afterwards. Every command that
      reads --store replays a WAL found beside it, so an appended store
      serves the refreshed patterns without re-mining.

  cape patterns --csv FILE --schema SPEC --store FILE
      List the patterns in a persisted store.

  cape explain --csv FILE --schema SPEC --store FILE
               --sql QUERY --tuple VALUES --dir high|low
               [--k N] [--narrate] [--baseline]
               [--summarize [--min-members N] [--max-loss X]]
      Explain why a query-result tuple is surprisingly high or low.
      --summarize appends common-ancestor summaries of the top-k (the
      coarsest lattice fragments covering ≥ --min-members answers within
      relative score loss --max-loss); the top-k table is unchanged.

  cape batch-explain --csv FILE --schema SPEC --store FILE
                     --sql QUERY --questions FILE [--k N] [--threads N]
                     [--timeout-ms MS] [--cache N] [--fail-on-timeout]
                     [--access-log FILE]
                     [--summarize [--min-members N] [--max-loss X]]
      Answer a file of questions concurrently over one shared pattern
      store. Each non-empty, non-# line of FILE is `VALUES high|low`
      (e.g. 'AX,SIGKDD,2007 low'). Answers print in input order; requests
      that exceed --timeout-ms return a partial top-k marked [partial]
      (exit 1 instead with --fail-on-timeout). --access-log appends one
      JSON line per request (trace id, question, deadline, cache
      hits/misses, outcome).

  cape serve --listen ADDR --csv FILE --schema SPEC
             --store FILE [--name NAME] [--threads N]
             [--queue N] [--cache N] [--max-body BYTES] [--deadline-ms MS]
             [--max-connections N] [--access-log FILE]
      Serve explanations over HTTP/1.1 (std-only, keep-alive and
      pipelining). Routes: POST /v1/NAME/explain, POST
      /v1/NAME/batch-explain, GET /v1/stores, POST
      /admin/stores/NAME/swap (hot-swap the --store snapshot under live
      traffic), GET /healthz, GET /metrics. --queue bounds concurrent
      requests (overflow answers 429 + Retry-After); --deadline-ms sets a
      default per-request deadline (exceeded requests degrade to a
      partial top-k, marked \"partial\": true). Prints one `listening on
      ADDR` line to stdout when ready; runs until killed.

  cape serve-report --snapshot FILE [--top N]
      Render the flight-recorder section of a --metrics snapshot: recent
      request summaries plus the slowest requests with their span trees
      (queue wait vs execution per request).

  cape query --csv FILE --schema SPEC --sql QUERY
      Run a SQL query against a CSV file.

GLOBAL OPTIONS:
  -v, --verbose     Debug-level progress on stderr (--trace for spans too).
  -q, --quiet       Errors only on stderr.
  --metrics FILE    Write a JSON telemetry snapshot (spans, counters,
                    histograms, per-phase timings, flight recorder) after
                    the command.
  --trace-out FILE  Write a Chrome trace_event timeline of the command
                    (open in about:tracing or https://ui.perfetto.dev).

  SPEC is name:type[,name:type...] with types int, float, str.
  VALUES are comma-separated group-by values, e.g. 'AX,SIGKDD,2007'.

EXIT CODES:
  0 success; 1 runtime error (I/O, mining, query evaluation);
  2 usage error; 3 corrupt or incompatible --store snapshot file;
  4 question references an aggregate column not in the relation schema.
";

fn usage(e: impl ToString) -> CliError {
    CliError::Usage(e.to_string())
}

fn runtime(e: impl ToString) -> CliError {
    CliError::Runtime(e.to_string())
}

/// Classify a question-construction failure: an unknown aggregate column
/// is the *question's* fault (exit 4), everything else is a runtime
/// error (exit 1).
fn question_err(e: cape_core::error::CapeError) -> CliError {
    match e {
        cape_core::error::CapeError::UnknownAggregateColumn(_) => CliError::Question(e.to_string()),
        other => runtime(other),
    }
}

fn load(args: &Args) -> Result<Relation, CliError> {
    let schema = parse_schema(args.require("schema").map_err(usage)?).map_err(usage)?;
    load_csv(args.require("csv").map_err(usage)?, schema).map_err(runtime)
}

fn mining_config(args: &Args, rel: &Relation) -> Result<MiningConfig, CliError> {
    let mut cfg = MiningConfig {
        thresholds: Thresholds::new(
            args.get_parse("theta", 0.15).map_err(usage)?,
            args.get_parse("delta", 4usize).map_err(usage)?,
            args.get_parse("lambda", 0.3).map_err(usage)?,
            args.get_parse("support", 3usize).map_err(usage)?,
        ),
        psi: args.get_parse("psi", 3usize).map_err(usage)?,
        fd_pruning: args.flag("fd"),
        ..MiningConfig::default()
    };
    if let Some(excluded) = args.get("exclude") {
        for name in excluded.split(',') {
            let id = rel
                .schema()
                .attr_id(name.trim())
                .map_err(|_| usage(format!("--exclude: unknown column `{name}`")))?;
            cfg.exclude.push(id);
        }
    }
    Ok(cfg)
}

/// `cape mine`.
pub fn mine(args: &Args) -> Result<(), CliError> {
    let rel = load(args)?;
    let path = args.require("save").map_err(usage)?;
    let cfg = mining_config(args, &rel)?;
    cape_obs::info("cli", || {
        format!(
            "mining {} rows (psi={}, thresholds={:?}) ...",
            rel.num_rows(),
            cfg.psi,
            cfg.thresholds
        )
    });
    let out = ArpMiner.mine(&rel, &cfg).map_err(runtime)?;
    cape_obs::info("cli", || {
        format!(
            "found {} patterns ({} local) in {:?}; {} candidates, {} skipped by FDs",
            out.store.len(),
            out.store.num_local_patterns(),
            out.stats.total_time,
            out.stats.candidates_considered,
            out.stats.skipped_by_fd,
        )
    });
    // --v2 embeds the relation's column slabs so later cold starts can
    // mmap the dataset instead of re-parsing the CSV.
    let bytes = if args.flag("v2") {
        snapshot::save_snapshot_v2(path, rel.schema(), &cfg, &out.store, &rel)
    } else {
        snapshot::save_snapshot(path, rel.schema(), &cfg, &out.store)
    }
    .map_err(|e| runtime(format!("cannot save snapshot {path}: {e}")))?;
    println!("saved {} patterns to {path} ({bytes} bytes)", out.store.len());
    Ok(())
}

/// `cape patterns`.
pub fn patterns(args: &Args) -> Result<(), CliError> {
    let (rel, store) = load_store(args)?;
    println!("{}", store.describe(rel.schema()));
    Ok(())
}

/// Classify an incremental-maintenance failure against `--store PATH`
/// into the CLI exit-code taxonomy: a snapshot or WAL the loader rejects
/// is a corrupt store (exit 3), a plain read failure stays a runtime
/// error, everything else (bad delta rows, mining) is runtime too.
fn incr_err(path: &str, e: IncrError) -> CliError {
    match e {
        IncrError::Snapshot(SnapshotError::Io(m)) => {
            runtime(format!("cannot read store {path}: {m}"))
        }
        IncrError::Snapshot(other) => {
            CliError::Store(format!("store file {path} rejected: {other}"))
        }
        IncrError::Wal(w) => CliError::Store(format!("wal beside store {path} rejected: {w}")),
        IncrError::Config(m) => {
            CliError::Store(format!("store file {path} cannot be maintained incrementally: {m}"))
        }
        other => runtime(other),
    }
}

/// Load the base relation (`--csv`/`--schema`) and the pattern store.
/// When `--store` has a write-ahead log beside it, the log is replayed:
/// the returned relation includes the appended rows and the store is the
/// refreshed (re-validated) one, so every read path serves what `cape
/// append` last committed.
fn load_store(args: &Args) -> Result<(Relation, cape_core::PatternStore), CliError> {
    let rel = load(args)?;
    read_patterns(args, rel)
}

/// Load the pattern store from `--store` (binary snapshot of either
/// version, validated against the live relation, WAL-aware). A rejected snapshot becomes
/// [`CliError::Store`] (exit 3) — except a plain read failure (absent
/// file, permissions), which stays a runtime error like any other
/// missing input. A store that cannot be maintained incrementally is
/// read as it is when the WAL beside it replays no rows (earlier builds
/// left a header-only WAL beside such stores); one that replays rows is
/// refused.
fn read_patterns(
    args: &Args,
    rel: Relation,
) -> Result<(Relation, cape_core::PatternStore), CliError> {
    let path = args.require("store").map_err(usage)?;
    let wal_path = wal_path_for(Path::new(path));
    if wal_path.exists() {
        match IncrStore::open(path, &rel) {
            Ok(incr) => {
                let replayed = incr.relation().clone();
                let store = incr.store();
                drop(incr);
                let store = std::sync::Arc::try_unwrap(store).unwrap_or_else(|arc| (*arc).clone());
                return Ok((replayed, store));
            }
            Err(IncrError::Config(m)) => {
                let schema_fp = snapshot::schema_fingerprint(rel.schema());
                let replay = wal::load_wal(&wal_path, schema_fp, rel.schema().arity())
                    .map_err(|e| incr_err(path, IncrError::Wal(e)))?;
                if replay.is_some_and(|r| r.batches.iter().any(|(_, rows)| !rows.is_empty())) {
                    return Err(incr_err(path, IncrError::Config(m)));
                }
            }
            Err(e) => return Err(incr_err(path, e)),
        }
    }
    let loaded = snapshot::load_snapshot(path, &rel).map_err(|e| match e {
        SnapshotError::Io(m) => runtime(format!("cannot read store {path}: {m}")),
        other => CliError::Store(format!("store file {path} rejected: {other}")),
    })?;
    Ok((rel, loaded.store))
}

/// `cape append` — stream rows into a mined snapshot incrementally.
///
/// The delta is WAL-committed before any in-memory state changes, so a
/// crash mid-append replays cleanly on the next load; `--compact` folds
/// the log into the snapshot once the append lands.
pub fn append(args: &Args) -> Result<(), CliError> {
    let rel = load(args)?;
    let store_path = args
        .require("store")
        .map_err(|_| usage("append needs --store FILE (a snapshot from `cape mine --save`)"))?;
    let rows_path = args
        .require("rows")
        .map_err(|_| usage("append needs --rows FILE (CSV of rows to append, same schema)"))?;
    let schema = parse_schema(args.require("schema").map_err(usage)?).map_err(usage)?;
    let delta = load_csv(rows_path, schema).map_err(runtime)?;

    let mut incr = IncrStore::open(store_path, &rel).map_err(|e| incr_err(store_path, e))?;
    let replayed = incr.relation().num_rows() - rel.num_rows();
    if replayed > 0 {
        cape_obs::info("cli", || format!("replayed {replayed} rows from the write-ahead log"));
    }
    let rows: Vec<_> = (0..delta.num_rows()).map(|i| delta.row(i)).collect();
    let report = incr.append(rows).map_err(|e| incr_err(store_path, e))?;
    println!(
        "appended {} rows ({} fragments re-validated); {} patterns over {} rows",
        report.appended_rows,
        report.touched_fragments,
        report.patterns,
        incr.relation().num_rows()
    );
    if let Some(seq) = report.wal_seq {
        println!("wal: record {seq} committed ({} bytes)", report.wal_bytes);
    }
    if args.flag("compact") {
        incr.compact().map_err(|e| incr_err(store_path, e))?;
        println!("compacted: snapshot {store_path} refreshed, wal folded");
    }
    Ok(())
}

/// Parse `--summarize [--min-members N] [--max-loss X]` into a config;
/// `None` when the flag is absent.
fn summarize_config(args: &Args) -> Result<Option<cape_core::explain::SummarizeConfig>, CliError> {
    use cape_core::explain::{SummarizeConfig, DEFAULT_MAX_LOSS, DEFAULT_MIN_MEMBERS};
    if !args.flag("summarize") {
        if args.get("min-members").is_some() || args.get("max-loss").is_some() {
            return Err(usage("--min-members/--max-loss require --summarize"));
        }
        return Ok(None);
    }
    let min_members = args.get_parse("min-members", DEFAULT_MIN_MEMBERS).map_err(usage)?;
    if min_members < 1 {
        return Err(usage("--min-members must be at least 1"));
    }
    let max_loss = args.get_parse("max-loss", DEFAULT_MAX_LOSS).map_err(usage)?;
    if !max_loss.is_finite() || max_loss < 0.0 {
        return Err(usage("--max-loss must be a non-negative number"));
    }
    Ok(Some(SummarizeConfig { min_members, max_loss }))
}

/// `cape explain`.
pub fn explain(args: &Args) -> Result<(), CliError> {
    let (rel, store) = load_store(args)?;
    let sql_text = args.require("sql").map_err(usage)?;
    let dir = match args.require("dir").map_err(usage)? {
        "high" => Direction::High,
        "low" => Direction::Low,
        other => return Err(usage(format!("--dir must be high or low, got `{other}`"))),
    };

    // Resolve group attrs from the query so the tuple can be typed.
    let stmt = sql::parse(sql_text).map_err(usage)?;
    let group_attrs: Result<Vec<usize>, CliError> =
        stmt.group_by.iter().map(|n| rel.schema().attr_id(n).map_err(usage)).collect();
    let tuple = parse_tuple(args.require("tuple").map_err(usage)?, rel.schema(), &group_attrs?)
        .map_err(usage)?;

    let uq = UserQuestion::from_sql(&rel, sql_text, tuple, dir).map_err(question_err)?;
    println!("question: {}\n", uq.display(rel.schema()));

    let k = args.get_parse("k", 10usize).map_err(usage)?;
    let cfg = ExplainConfig::default_for(&rel, k);
    cape_obs::debug("cli", || format!("explaining against {} patterns (k={k})", store.len()));
    let (expls, stats) = OptimizedExplainer.explain(&store, &uq, &cfg);
    println!(
        "top-{} explanations ({} relevant patterns, {} tuples checked, {:?}):",
        expls.len(),
        stats.patterns_relevant,
        stats.tuples_checked,
        stats.time
    );
    println!("{}", render_table(&expls, rel.schema()));
    if let Some(scfg) = summarize_config(args)? {
        let summaries = cape_core::explain::summarize(&expls, &store, &scfg);
        println!(
            "summaries (min_members={}, max_loss={:.2}): {} from {} explanations",
            scfg.min_members,
            scfg.max_loss,
            summaries.len(),
            expls.len()
        );
        println!("{}", cape_core::explain::render_summaries(&summaries, &expls, rel.schema()));
    }
    if args.flag("narrate") {
        println!("{}", narrate_all(&expls, &store, &uq, rel.schema()));
    }
    if args.flag("baseline") {
        let (base, _) = BaselineExplainer.explain(&rel, &uq, &cfg).map_err(runtime)?;
        println!("baseline (no patterns):\n{}", render_table(&base, rel.schema()));
    }
    Ok(())
}

/// `cape batch-explain` — answer a file of questions concurrently via
/// `cape-serve` over one shared pattern store.
///
/// Stdout is deterministic: answers print in input order and contain no
/// timings or thread counts, so runs with different `--threads` values
/// are byte-identical (the golden-file tests rely on this). Concurrency
/// diagnostics go to stderr / `--metrics` instead.
pub fn batch_explain(args: &Args) -> Result<(), CliError> {
    use cape_serve::{ExplainRequest, ExplainService, PatternStoreHandle, ServeConfig};
    use std::time::Duration;

    let (rel, store) = load_store(args)?;
    let sql_text = args.require("sql").map_err(usage)?;
    let stmt = sql::parse(sql_text).map_err(usage)?;
    let group_attrs: Vec<usize> = stmt
        .group_by
        .iter()
        .map(|n| rel.schema().attr_id(n).map_err(usage))
        .collect::<Result<_, _>>()?;

    // Detect an unknown aggregate column up front, before reading the
    // questions file — the query is shared by every question, so this
    // fails once with exit 4 instead of surfacing per-line.
    if let Some(arg) = stmt.items.iter().find_map(|i| match i {
        sql::SelectItem::Aggregate { call, .. } => call.arg.as_ref(),
        _ => None,
    }) {
        rel.schema().attr_id(arg).map_err(|_| {
            question_err(cape_core::error::CapeError::UnknownAggregateColumn(arg.clone()))
        })?;
    }

    let k = args.get_parse("k", 10usize).map_err(usage)?;
    let threads = args.get_parse("threads", 1usize).map_err(usage)?;
    if threads == 0 {
        return Err(usage("--threads must be at least 1"));
    }
    let cache = args.get_parse("cache", 4096usize).map_err(usage)?;
    let timeout = match args.get("timeout-ms") {
        Some(_) => Some(Duration::from_millis(args.get_parse("timeout-ms", 0u64).map_err(usage)?)),
        None => None,
    };

    // Parse the questions file: `VALUES high|low` per line.
    let qpath = args.require("questions").map_err(usage)?;
    let text =
        std::fs::read_to_string(qpath).map_err(|e| runtime(format!("cannot read {qpath}: {e}")))?;
    let mut questions = Vec::new();
    for (lineno, raw) in text.lines().enumerate() {
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let Some((values, dir_word)) = line.rsplit_once(char::is_whitespace) else {
            return Err(usage(format!(
                "{qpath}:{}: expected `VALUES high|low`, got `{line}`",
                lineno + 1
            )));
        };
        let dir = match dir_word {
            "high" => Direction::High,
            "low" => Direction::Low,
            other => {
                return Err(usage(format!(
                    "{qpath}:{}: direction must be high or low, got `{other}`",
                    lineno + 1
                )))
            }
        };
        let tuple = parse_tuple(values.trim(), rel.schema(), &group_attrs).map_err(usage)?;
        let uq = UserQuestion::from_sql(&rel, sql_text, tuple, dir).map_err(question_err)?;
        questions.push(uq);
    }
    if questions.is_empty() {
        return Err(runtime(format!("{qpath} contains no questions")));
    }

    cape_obs::info("cli", || {
        format!(
            "batch-explain: {} questions, {} threads, cache capacity {}",
            questions.len(),
            threads,
            cache
        )
    });
    let access_log = match args.get("access-log") {
        Some(path) => Some(std::sync::Arc::new(
            cape_obs::JsonLinesWriter::create(path)
                .map_err(|e| runtime(format!("cannot open access log {path}: {e}")))?,
        )),
        None => None,
    };
    let handle = PatternStoreHandle::new(rel, store);
    let service = ExplainService::start(
        handle.clone(),
        ServeConfig { threads, cache_capacity: cache, distance: None, access_log },
    );
    // Each request is its own top-level operation: mint a fresh trace id
    // rather than inheriting the session scope, so access-log lines and
    // Chrome-trace slices are attributable per question.
    let scfg = summarize_config(args)?;
    let requests: Vec<ExplainRequest> = questions
        .iter()
        .map(|q| {
            let mut req = ExplainRequest::new(q.clone(), k).with_trace(cape_obs::TraceId::next());
            if let Some(t) = timeout {
                req = req.with_timeout(t);
            }
            if let Some(s) = &scfg {
                req = req.with_summarize(s.clone());
            }
            req
        })
        .collect();
    let responses = service.batch(requests);

    let schema = handle.relation().schema();
    let mut partial_count = 0usize;
    for (i, (uq, resp)) in questions.iter().zip(&responses).enumerate() {
        let marker = if resp.partial {
            partial_count += 1;
            " [partial]"
        } else {
            ""
        };
        println!("[{i}] question: {}{marker}", uq.display(schema));
        println!("{}", render_table(&resp.explanations, schema));
        if let Some(summaries) = &resp.summaries {
            println!(
                "[{i}] summaries: {} from {} explanations",
                summaries.len(),
                resp.explanations.len()
            );
            println!(
                "{}",
                cape_core::explain::render_summaries(summaries, &resp.explanations, schema)
            );
        }
    }
    println!("answered {} questions ({partial_count} partial)", questions.len());
    cape_obs::info("cli", || {
        format!(
            "batch-explain: cache hits {} / misses {}",
            service.cache().hits(),
            service.cache().misses()
        )
    });
    if args.flag("fail-on-timeout") && partial_count > 0 {
        return Err(runtime(format!("{partial_count} request(s) exceeded the deadline")));
    }
    Ok(())
}

fn fmt_ms(ns: u64) -> String {
    format!("{:.3} ms", ns as f64 / 1e6)
}

fn render_span_tree(node: &cape_obs::SpanNode, depth: usize, out: &mut String) {
    use std::fmt::Write;
    let _ = writeln!(
        out,
        "{:indent$}{} — {} (x{})",
        "",
        node.name,
        fmt_ms(node.total_ns),
        node.count,
        indent = 4 + depth * 2
    );
    for child in &node.children {
        render_span_tree(child, depth + 1, out);
    }
}

/// `cape serve` — the network front-end: serve explanations over
/// std-only HTTP/1.1 with a hot-swappable store registry.
///
/// Prints a single `listening on ADDR` line to stdout once the listener
/// is bound (scripts wait on it), then parks until the process is
/// killed. The bound address includes the ephemeral port when `--listen`
/// ends in `:0`.
pub fn serve(args: &Args) -> Result<(), CliError> {
    use cape_net::http::HttpLimits;
    use cape_net::registry::StoreRegistry;
    use cape_net::server::{NetConfig, Server};
    use cape_serve::{PatternStoreHandle, ServeConfig};
    use std::time::Duration;

    let listen = args.require("listen").map_err(usage)?;
    let rel = load(args)?;
    let name = args.get("name").unwrap_or("default").to_string();

    let threads = args.get_parse("threads", 2usize).map_err(usage)?;
    let cache = args.get_parse("cache", 4096usize).map_err(usage)?;
    let queue = args.get_parse("queue", 64usize).map_err(usage)?;
    let max_body = args.get_parse("max-body", HttpLimits::default().max_body).map_err(usage)?;
    let max_connections = args.get_parse("max-connections", 256usize).map_err(usage)?;
    let default_deadline = match args.get("deadline-ms") {
        Some(_) => Some(Duration::from_millis(args.get_parse("deadline-ms", 0u64).map_err(usage)?)),
        None => None,
    };
    let access_log = match args.get("access-log") {
        Some(path) => Some(std::sync::Arc::new(
            cape_obs::JsonLinesWriter::create(path)
                .map_err(|e| runtime(format!("cannot open access log {path}: {e}")))?,
        )),
        None => None,
    };

    let serve_cfg = ServeConfig { threads, cache_capacity: cache, distance: None, access_log };
    let registry = std::sync::Arc::new(StoreRegistry::new());
    // The `--store` snapshot is served with incremental backing so `POST
    // /admin/stores/NAME/append` streams rows in live — unless the
    // snapshot was mined with a config the incremental layer can't
    // maintain (e.g. FD pruning), which degrades to read-only serving.
    let path = args.require("store").map_err(usage)?;
    match IncrStore::open(path, &rel) {
        Ok(incr) => {
            registry.register_incremental(&name, rel, incr, serve_cfg);
        }
        Err(IncrError::Config(m)) => {
            cape_obs::info("cli", || format!("serving read-only (no appends): {m}"));
            let (rel, store) = read_patterns(args, rel)?;
            registry.register(&name, PatternStoreHandle::new(rel, store), serve_cfg);
        }
        Err(e) => return Err(incr_err(path, e)),
    }

    // The session recorder is installed on this thread; Server::bind
    // captures it, so request counters/gauges feed --metrics and
    // GET /metrics alike.
    let net_cfg = NetConfig {
        limits: HttpLimits { max_body, ..HttpLimits::default() },
        admission_capacity: queue,
        max_connections,
        default_deadline,
        metrics: cape_obs::current_recorder(),
        ..NetConfig::default()
    };
    let server = Server::bind(listen, registry, net_cfg)
        .map_err(|e| runtime(format!("cannot bind {listen}: {e}")))?;
    println!("listening on {}", server.local_addr());
    use std::io::Write as _;
    let _ = std::io::stdout().flush();
    cape_obs::info("cli", || {
        format!(
            "serving store `{name}` on {} ({threads} workers, queue {queue})",
            server.local_addr()
        )
    });
    loop {
        std::thread::park();
    }
}

/// `cape serve-report` — render the flight-recorder section of a
/// `--metrics` telemetry snapshot.
pub fn serve_report(args: &Args) -> Result<(), CliError> {
    let path = args
        .require("snapshot")
        .map_err(|_| usage("serve-report needs --snapshot FILE (a --metrics output)"))?;
    let top = args.get_parse("top", 5usize).map_err(usage)?;
    let text =
        std::fs::read_to_string(path).map_err(|e| runtime(format!("cannot read {path}: {e}")))?;
    let json = cape_obs::Json::parse(&text)
        .map_err(|e| runtime(format!("{path} is not valid JSON: {e}")))?;
    let snap = cape_obs::TelemetrySnapshot::from_json(&json)
        .map_err(|e| runtime(format!("{path} is not a telemetry snapshot: {e}")))?;

    let Some(flight) = &snap.requests else {
        println!("no requests recorded in {path}");
        return Ok(());
    };
    println!(
        "{} request(s) recorded (slow-capture threshold {})",
        flight.recorded,
        fmt_ms(flight.threshold_ns)
    );
    for name in ["serve.request_ns", "serve.queue_wait_ns", "serve.exec_ns"] {
        if let Some(h) = snap.histograms.get(name) {
            println!(
                "  {name}: p50 {} / p95 {} / max {} ({} samples)",
                fmt_ms(h.p50_ns),
                fmt_ms(h.p95_ns),
                fmt_ms(h.max_ns),
                h.count
            );
        }
    }

    println!("\nslowest {} request(s):", flight.slowest.len().min(top));
    for slow in flight.slowest.iter().take(top) {
        let s = &slow.summary;
        println!(
            "  [{:016x}] {} — total {} (queue {}, exec {}), cache {}/{} hit/miss, {}",
            s.trace_id,
            s.label,
            fmt_ms(s.total_ns),
            fmt_ms(s.queue_ns),
            fmt_ms(s.exec_ns),
            s.cache_hits,
            s.cache_misses,
            s.outcome
        );
        let mut tree = String::new();
        for root in &slow.spans {
            render_span_tree(root, 0, &mut tree);
        }
        print!("{tree}");
    }

    let tail = flight.recent.len().min(top);
    println!("\nmost recent {tail} of {} summarie(s):", flight.recent.len());
    for s in flight.recent.iter().rev().take(tail) {
        println!(
            "  [{:016x}] {} — total {} (queue {}, exec {}), {}",
            s.trace_id,
            s.label,
            fmt_ms(s.total_ns),
            fmt_ms(s.queue_ns),
            fmt_ms(s.exec_ns),
            s.outcome
        );
    }
    Ok(())
}

/// `cape query`.
pub fn query(args: &Args) -> Result<(), CliError> {
    let rel = load(args)?;
    let stmt = sql::parse(args.require("sql").map_err(usage)?).map_err(usage)?;
    let out = sql::execute(&stmt, &rel).map_err(runtime)?;
    println!("{}", out.to_ascii(50));
    println!("({} rows)", out.num_rows());
    Ok(())
}

/// `cape demo` — generate DBLP data, mine, explain the paper's φ₀.
pub fn demo(_args: &Args) -> Result<(), CliError> {
    use cape_data::Value;
    use cape_datagen::{dblp, DblpConfig};

    println!("generating synthetic DBLP data (8,000 rows) ...");
    let rel = dblp::generate(&DblpConfig::with_rows(8_000));
    let cfg = MiningConfig {
        thresholds: Thresholds::new(0.15, 4, 0.3, 3),
        psi: 3,
        exclude: vec![dblp::attrs::PUBID],
        ..MiningConfig::default()
    };
    println!("mining patterns ...");
    let out = ArpMiner.mine(&rel, &cfg).map_err(runtime)?;
    println!(
        "found {} patterns ({} local) in {:?}\n",
        out.store.len(),
        out.store.num_local_patterns(),
        out.stats.total_time
    );
    println!("patterns:\n{}\n", out.store.describe(rel.schema()));

    let uq = UserQuestion::from_sql(
        &rel,
        "SELECT author, venue, year, count(*) AS pubcnt FROM pub GROUP BY author, venue, year",
        vec![Value::str(dblp::CASE_STUDY_AUTHOR), Value::str("SIGKDD"), Value::Int(2007)],
        Direction::Low,
    )
    .map_err(runtime)?;
    println!("question: {}\n", uq.display(rel.schema()));

    let ecfg = ExplainConfig::default_for(&rel, 10);
    let (expls, _) = OptimizedExplainer.explain(&out.store, &uq, &ecfg);
    println!("{}", render_table(&expls, rel.schema()));
    println!("{}", narrate_all(&expls[..expls.len().min(3)], &out.store, &uq, rel.schema()));
    Ok(())
}
