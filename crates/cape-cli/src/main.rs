//! `cape` — command-line interface to the CAPE reproduction.
//!
//! ```text
//! cape demo                                # built-in DBLP walk-through
//! cape mine    --csv pub.csv --schema author:str,pubid:str,year:int,venue:str \
//!              --psi 3 --theta 0.15 --delta 4 --lambda 0.3 --support 3 \
//!              [--fd] [--exclude pubid] --save store.cape
//! cape append  --csv pub.csv --schema ... --store store.cape --rows delta.csv [--compact]
//! cape patterns --csv pub.csv --schema ... --store store.cape
//! cape explain --csv pub.csv --schema ... --store store.cape \
//!              --sql "SELECT author, venue, year, count(*) FROM pub GROUP BY author, venue, year" \
//!              --tuple "AX,SIGKDD,2007" --dir low [--k 10] [--narrate] [--baseline]
//! cape query   --csv pub.csv --schema ... --sql "SELECT ..."
//! ```
//!
//! Global options (any command): `-v`/`--verbose`, `-q`/`--quiet`,
//! `--trace`, `--metrics FILE` to dump a JSON telemetry snapshot, and
//! `--trace-out FILE` to dump a Chrome `trace_event` timeline (loadable
//! in `about:tracing` / <https://ui.perfetto.dev>).

mod args;
mod commands;
mod io;

use args::Args;

/// A CLI failure, classified so `main` can pick an exit code: usage
/// errors (bad flags, malformed option values) exit 2, runtime errors
/// (I/O, mining, query evaluation) exit 1, corrupt or incompatible
/// `--store` snapshot files exit 3, and questions referencing an
/// aggregate column that is not in the relation schema exit 4 — scripts
/// restarting a service can tell "re-mine the store" (3) and "fix the
/// question set" (4) apart from "fix the invocation" (2) and "transient
/// environment problem" (1).
#[derive(Debug)]
pub enum CliError {
    Usage(String),
    Runtime(String),
    Store(String),
    Question(String),
}

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CliError::Usage(m)
            | CliError::Runtime(m)
            | CliError::Store(m)
            | CliError::Question(m) => f.write_str(m),
        }
    }
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let code = match run(&argv) {
        Ok(()) => 0,
        Err(e) => {
            eprintln!("error: {e}");
            match e {
                CliError::Usage(_) => 2,
                CliError::Runtime(_) => 1,
                CliError::Store(_) => 3,
                CliError::Question(_) => 4,
            }
        }
    };
    std::process::exit(code);
}

/// The event level implied by `-q` / default / `-v` / `--trace`.
fn verbosity(args: &Args) -> cape_obs::Level {
    if args.flag("trace") {
        cape_obs::Level::Trace
    } else if args.flag("verbose") {
        cape_obs::Level::Debug
    } else if args.flag("quiet") {
        cape_obs::Level::Error
    } else {
        cape_obs::Level::Info
    }
}

/// Root span name for a subcommand (span names must be `'static`).
fn span_name(cmd: &str) -> &'static str {
    match cmd {
        "demo" => "cli.demo",
        "mine" => "cli.mine",
        "append" => "cli.append",
        "patterns" => "cli.patterns",
        "explain" => "cli.explain",
        "batch-explain" => "cli.batch_explain",
        "serve" => "cli.serve",
        "serve-report" => "cli.serve_report",
        "query" => "cli.query",
        _ => "cli.run",
    }
}

fn run(argv: &[String]) -> Result<(), CliError> {
    let args = Args::parse(argv).map_err(CliError::Usage)?;

    // A session-wide recorder: events go to stderr at the requested
    // level; spans/counters from every layer accumulate for --metrics.
    let recorder = cape_obs::Recorder::new();
    recorder.set_level(verbosity(&args));
    recorder.add_sink(Box::new(cape_obs::StderrSink));
    if args.get("trace-out").is_some() {
        recorder.enable_trace_capture();
    }
    let install = recorder.install();

    let cmd = args.command.clone().unwrap_or_else(|| "help".to_string());
    let result = {
        // The whole invocation is one trace: requests submitted inside
        // (e.g. by batch-explain) mint their own ids, everything else is
        // attributed to the session id.
        let _session = cape_obs::trace_scope(cape_obs::TraceId::next());
        let _root = cape_obs::span(span_name(&cmd));
        dispatch(&cmd, &args)
    };
    drop(install);

    if let Some(path) = args.get("metrics") {
        let json = recorder.snapshot().to_json();
        std::fs::write(path, format!("{json}\n"))
            .map_err(|e| CliError::Runtime(format!("cannot write {path}: {e}")))?;
    }
    if let Some(path) = args.get("trace-out") {
        recorder
            .write_chrome_trace(path, &format!("cape {cmd}"))
            .map_err(|e| CliError::Runtime(format!("cannot write {path}: {e}")))?;
    }
    result
}

fn dispatch(cmd: &str, args: &Args) -> Result<(), CliError> {
    match cmd {
        "demo" => commands::demo(args),
        "mine" => commands::mine(args),
        "append" => commands::append(args),
        "patterns" => commands::patterns(args),
        "explain" => commands::explain(args),
        "batch-explain" => commands::batch_explain(args),
        "serve" => commands::serve(args),
        "serve-report" => commands::serve_report(args),
        "query" => commands::query(args),
        "help" => {
            print!("{}", commands::USAGE);
            Ok(())
        }
        other => Err(CliError::Usage(format!("unknown command `{other}` (try `cape help`)"))),
    }
}
