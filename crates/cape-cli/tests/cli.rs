//! End-to-end tests of the `cape` binary: mine → save → explain over
//! a real temporary CSV file, plus usage/error behavior.

use std::io::Write;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn cape() -> Command {
    Command::new(env!("CARGO_BIN_EXE_cape"))
}

fn run(args: &[&str]) -> Output {
    cape().args(args).output().expect("binary runs")
}

fn temp_dir(test: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("cape-cli-test-{}-{test}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// A tiny publications CSV with a planted dip/counterbalance.
fn write_csv(dir: &Path) -> String {
    let path = dir.join("pub.csv");
    let mut f = std::fs::File::create(&path).unwrap();
    writeln!(f, "author,year,venue").unwrap();
    for a in 0..5 {
        for y in 2000..2010 {
            for v in ["KDD", "ICDE"] {
                let n = match (a, y, v) {
                    (0, 2005, "KDD") => 1,
                    (0, 2005, "ICDE") => 5,
                    _ => 3,
                };
                for _ in 0..n {
                    writeln!(f, "a{a},{y},{v}").unwrap();
                }
            }
        }
    }
    path.to_string_lossy().into_owned()
}

const SCHEMA: &str = "author:str,year:int,venue:str";

#[test]
fn help_prints_usage() {
    let out = run(&["help"]);
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("cape mine"));
    assert!(text.contains("cape explain"));
}

#[test]
fn unknown_command_fails() {
    let out = run(&["bogus"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown command"));
}

#[test]
fn missing_options_reported() {
    let out = run(&["mine"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("--schema"));
}

#[test]
fn full_workflow_mine_patterns_explain_query() {
    let dir = temp_dir("workflow");
    let csv = write_csv(&dir);
    let patterns = dir.join("patterns.cape").to_string_lossy().into_owned();

    // mine
    let out = run(&[
        "mine",
        "--csv",
        &csv,
        "--schema",
        SCHEMA,
        "--theta",
        "0.1",
        "--delta",
        "3",
        "--lambda",
        "0.3",
        "--support",
        "2",
        "--psi",
        "3",
        "--save",
        &patterns,
    ]);
    assert!(out.status.success(), "mine failed: {}", String::from_utf8_lossy(&out.stderr));
    assert!(String::from_utf8_lossy(&out.stdout).contains("saved"));

    // patterns listing
    let out = run(&["patterns", "--csv", &csv, "--schema", SCHEMA, "--store", &patterns]);
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("confidence"));

    // explain
    let out = run(&[
        "explain",
        "--csv",
        &csv,
        "--schema",
        SCHEMA,
        "--store",
        &patterns,
        "--sql",
        "SELECT author, year, venue, count(*) FROM pub GROUP BY author, year, venue",
        "--tuple",
        "a0,2005,KDD",
        "--dir",
        "low",
        "--k",
        "5",
        "--narrate",
    ]);
    assert!(out.status.success(), "explain failed: {}", String::from_utf8_lossy(&out.stderr));
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("ICDE"), "counterbalance missing:\n{text}");
    assert!(text.contains("Even though"), "narration missing");

    // query
    let out = run(&[
        "query",
        "--csv",
        &csv,
        "--schema",
        SCHEMA,
        "--sql",
        "SELECT venue, count(*) AS n FROM pub GROUP BY venue ORDER BY n DESC",
    ]);
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("ICDE") && text.contains("(2 rows)"));

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn explain_rejects_bad_direction_and_tuple() {
    let dir = temp_dir("baddir");
    let csv = write_csv(&dir);
    let patterns = dir.join("p2.cape").to_string_lossy().into_owned();
    let out = run(&[
        "mine",
        "--csv",
        &csv,
        "--schema",
        SCHEMA,
        "--theta",
        "0.1",
        "--delta",
        "3",
        "--lambda",
        "0.3",
        "--support",
        "2",
        "--psi",
        "2",
        "--save",
        &patterns,
    ]);
    assert!(out.status.success());

    let out = run(&[
        "explain",
        "--csv",
        &csv,
        "--schema",
        SCHEMA,
        "--store",
        &patterns,
        "--sql",
        "SELECT author, count(*) FROM pub GROUP BY author",
        "--tuple",
        "a0",
        "--dir",
        "sideways",
    ]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("high or low"));

    let out = run(&[
        "explain",
        "--csv",
        &csv,
        "--schema",
        SCHEMA,
        "--store",
        &patterns,
        "--sql",
        "SELECT author, year, count(*) FROM pub GROUP BY author, year",
        "--tuple",
        "a0",
        "--dir",
        "low",
    ]);
    assert!(!out.status.success(), "tuple arity mismatch accepted");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn query_reports_sql_errors() {
    let dir = temp_dir("sqlerr");
    let csv = write_csv(&dir);
    let out = run(&["query", "--csv", &csv, "--schema", SCHEMA, "--sql", "SELECT bogus FROM t"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("bogus"));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn exit_codes_distinguish_usage_from_runtime() {
    // Usage errors (bad invocation) exit 2.
    assert_eq!(run(&["mine"]).status.code(), Some(2), "missing options");
    assert_eq!(run(&["bogus"]).status.code(), Some(2), "unknown command");
    assert_eq!(run(&["mine", "-x"]).status.code(), Some(2), "unknown short flag");

    // Runtime errors (environment) exit 1: well-formed invocation, absent file.
    let dir = temp_dir("exitcodes");
    let out_path = dir.join("p.cape").to_string_lossy().into_owned();
    let out = run(&[
        "mine",
        "--csv",
        "/nonexistent/cape-test.csv",
        "--schema",
        SCHEMA,
        "--save",
        &out_path,
    ]);
    assert_eq!(out.status.code(), Some(1), "missing CSV: {}", String::from_utf8_lossy(&out.stderr));
    std::fs::remove_dir_all(&dir).ok();
}

/// Mine the planted CSV into a snapshot in `dir` and return its path.
fn mine_planted(dir: &Path, csv: &str) -> String {
    let patterns = dir.join("patterns.cape").to_string_lossy().into_owned();
    let out = run(&[
        "mine",
        "--csv",
        csv,
        "--schema",
        SCHEMA,
        "--theta",
        "0.1",
        "--delta",
        "3",
        "--lambda",
        "0.3",
        "--support",
        "2",
        "--psi",
        "3",
        "--save",
        &patterns,
    ]);
    assert!(out.status.success(), "mine failed: {}", String::from_utf8_lossy(&out.stderr));
    patterns
}

/// A questions file exercising both directions, comments, and blanks.
fn write_questions(dir: &Path) -> String {
    let path = dir.join("questions.txt");
    std::fs::write(
        &path,
        "# planted dip and its counterbalance\n\
         a0,2005,KDD low\n\
         a0,2005,ICDE high\n\
         \n\
         a1,2003,KDD low\n\
         a2,2007,ICDE high\n",
    )
    .unwrap();
    path.to_string_lossy().into_owned()
}

const BATCH_SQL: &str =
    "SELECT author, year, venue, count(*) FROM pub GROUP BY author, year, venue";

#[test]
fn batch_explain_matches_golden_and_is_thread_invariant() {
    let dir = temp_dir("batchgolden");
    let csv = write_csv(&dir);
    let patterns = mine_planted(&dir, &csv);
    let questions = write_questions(&dir);

    let base = [
        "batch-explain",
        "--csv",
        &csv,
        "--schema",
        SCHEMA,
        "--store",
        &patterns,
        "--sql",
        BATCH_SQL,
        "--questions",
        &questions,
        "--k",
        "5",
    ];
    let mut one: Vec<&str> = base.to_vec();
    one.extend(["--threads", "1"]);
    let out1 = run(&one);
    assert!(out1.status.success(), "batch failed: {}", String::from_utf8_lossy(&out1.stderr));
    let stdout1 = String::from_utf8_lossy(&out1.stdout).into_owned();

    // Golden comparison; bless with CAPE_BLESS=1.
    let golden_path = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/batch_explain.txt");
    if std::env::var_os("CAPE_BLESS").is_some() {
        std::fs::create_dir_all(golden_path.parent().unwrap()).unwrap();
        std::fs::write(&golden_path, &stdout1).unwrap();
    }
    let golden =
        std::fs::read_to_string(&golden_path).expect("golden file (CAPE_BLESS=1 to create)");
    assert_eq!(stdout1, golden, "batch-explain output drifted from the golden file");

    // The answers must mention the planted counterbalance and the summary.
    assert!(stdout1.contains("ICDE"), "counterbalance missing:\n{stdout1}");
    assert!(stdout1.contains("answered 4 questions (0 partial)"));

    // Different worker counts must be byte-identical on stdout.
    for threads in ["2", "4"] {
        let mut many: Vec<&str> = base.to_vec();
        many.extend(["--threads", threads]);
        let out = run(&many);
        assert!(out.status.success());
        assert_eq!(
            String::from_utf8_lossy(&out.stdout),
            stdout1,
            "--threads {threads} changed stdout"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// A tiny crime-like CSV (primary_type, community, year) with a planted
/// dip/counterbalance at (THEFT, community 1, 2012→2013).
fn write_crime_csv(dir: &Path) -> String {
    let path = dir.join("crime.csv");
    let mut f = std::fs::File::create(&path).unwrap();
    writeln!(f, "primary_type,community,year").unwrap();
    for t in ["THEFT", "BATTERY", "ASSAULT"] {
        for c in 1..=4 {
            for y in 2010..2016 {
                let n = match (t, c, y) {
                    ("THEFT", 1, 2012) => 1,
                    ("THEFT", 1, 2013) => 5,
                    _ => 3,
                };
                for _ in 0..n {
                    writeln!(f, "{t},{c},{y}").unwrap();
                }
            }
        }
    }
    path.to_string_lossy().into_owned()
}

const CRIME_SCHEMA: &str = "primary_type:str,community:int,year:int";
const CRIME_SQL: &str =
    "SELECT primary_type, community, year, count(*) FROM crime GROUP BY primary_type, community, year";

fn mine_for(dir: &Path, csv: &str, schema: &str, name: &str) -> String {
    let patterns = dir.join(name).to_string_lossy().into_owned();
    let out = run(&[
        "mine",
        "--csv",
        csv,
        "--schema",
        schema,
        "--theta",
        "0.1",
        "--delta",
        "3",
        "--lambda",
        "0.3",
        "--support",
        "2",
        "--psi",
        "3",
        "--save",
        &patterns,
    ]);
    assert!(out.status.success(), "mine failed: {}", String::from_utf8_lossy(&out.stderr));
    patterns
}

/// Every line of `needle` appears, in order, somewhere in `hay`.
fn is_line_subsequence(needle: &str, hay: &str) -> bool {
    let mut lines = hay.lines();
    needle.lines().all(|n| lines.any(|h| h == n))
}

/// Differential golden: `--summarize` is strictly additive. Without it,
/// stdout is byte-identical across worker counts and untouched by the
/// feature existing; with it, the plain output survives as an ordered
/// line-subsequence plus appended summary sections — on the DBLP-like
/// and Crime-like datasets, at 1 and 4 workers.
#[test]
fn summarize_is_strictly_additive_and_thread_invariant() {
    let dir = temp_dir("sumadditive");
    let dblp_csv = write_csv(&dir);
    let crime_csv = write_crime_csv(&dir);
    let dblp_q = write_questions(&dir);
    let crime_q = dir.join("crime_questions.txt");
    std::fs::write(&crime_q, "THEFT,1,2012 low\nTHEFT,1,2013 high\nBATTERY,2,2011 low\n").unwrap();
    let crime_q = crime_q.to_string_lossy().into_owned();

    let datasets = [
        ("dblp", dblp_csv.as_str(), SCHEMA, BATCH_SQL, dblp_q.as_str(), "a0,2005,KDD"),
        ("crime", crime_csv.as_str(), CRIME_SCHEMA, CRIME_SQL, crime_q.as_str(), "THEFT,1,2012"),
    ];
    for (label, csv, schema, sql, questions, tuple) in datasets {
        let patterns = mine_for(&dir, csv, schema, &format!("{label}.cape"));
        let base = [
            "batch-explain",
            "--csv",
            csv,
            "--schema",
            schema,
            "--store",
            &patterns,
            "--sql",
            sql,
            "--questions",
            questions,
            "--k",
            "5",
        ];
        let batch = |extra: &[&str]| -> String {
            let mut args: Vec<&str> = base.to_vec();
            args.extend_from_slice(extra);
            let out = run(&args);
            assert!(
                out.status.success(),
                "{label} {extra:?} failed: {}",
                String::from_utf8_lossy(&out.stderr)
            );
            String::from_utf8_lossy(&out.stdout).into_owned()
        };

        let plain = batch(&["--threads", "1"]);
        assert_eq!(plain, batch(&["--threads", "4"]), "{label}: plain output thread-variant");
        let summarized = batch(&["--threads", "1", "--summarize"]);
        assert_eq!(
            summarized,
            batch(&["--threads", "4", "--summarize"]),
            "{label}: summarized output thread-variant"
        );

        // Strictly additive: the plain transcript survives verbatim as an
        // ordered subsequence, and summaries actually appeared.
        assert!(
            is_line_subsequence(&plain, &summarized),
            "{label}: --summarize rewrote plain output lines"
        );
        assert!(summarized.len() > plain.len(), "{label}: --summarize added nothing");
        assert!(summarized.contains("summaries:"), "{label}: no summary section\n{summarized}");

        // Single-question explain: the plain output is an exact prefix.
        let explain = |extra: &[&str]| -> String {
            let mut args = vec![
                "explain", "--csv", csv, "--schema", schema, "--store", &patterns, "--sql", sql,
                "--tuple", tuple, "--dir", "low", "--k", "5",
            ];
            args.extend_from_slice(extra);
            let out = run(&args);
            assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
            String::from_utf8_lossy(&out.stdout).into_owned()
        };
        // The explain header embeds a wall-clock duration; blank it out
        // before comparing (everything else is deterministic).
        let normalize = |s: &str| -> String {
            s.lines()
                .map(|l| l.find(" tuples checked, ").map_or(l, |i| &l[..i]))
                .collect::<Vec<_>>()
                .join("\n")
        };
        let plain_one = normalize(&explain(&[]));
        let summarized_one = normalize(&explain(&["--summarize"]));
        assert!(
            summarized_one.starts_with(&plain_one),
            "{label}: explain --summarize must append, not rewrite"
        );
        assert!(summarized_one.contains("summaries (min_members=2, max_loss=0.50)"));
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn batch_explain_timeout_degrades_and_exit_codes() {
    let dir = temp_dir("batchtimeout");
    let csv = write_csv(&dir);
    let patterns = mine_planted(&dir, &csv);
    let questions = write_questions(&dir);
    let base = [
        "batch-explain",
        "--csv",
        &csv,
        "--schema",
        SCHEMA,
        "--store",
        &patterns,
        "--sql",
        BATCH_SQL,
        "--questions",
        &questions,
        "--timeout-ms",
        "0",
    ];

    // Zero deadline: every answer is partial, but that is still success.
    let out = run(&base);
    assert!(out.status.success(), "partial answers must not fail by default");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("[partial]"), "no partial marker:\n{stdout}");
    assert!(stdout.contains("answered 4 questions (4 partial)"), "summary wrong:\n{stdout}");

    // With --fail-on-timeout the same run is a runtime failure (exit 1).
    let mut strict: Vec<&str> = base.to_vec();
    strict.push("--fail-on-timeout");
    let out = run(&strict);
    assert_eq!(out.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&out.stderr).contains("deadline"));

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn batch_explain_usage_and_runtime_errors() {
    let dir = temp_dir("batcherr");
    let csv = write_csv(&dir);
    let patterns = mine_planted(&dir, &csv);
    let questions = write_questions(&dir);
    let base = |extra: &[&str]| {
        let mut v = vec![
            "batch-explain",
            "--csv",
            &csv,
            "--schema",
            SCHEMA,
            "--store",
            &patterns,
            "--sql",
            BATCH_SQL,
        ];
        v.extend_from_slice(extra);
        run(&v)
    };

    // Usage errors exit 2.
    assert_eq!(base(&[]).status.code(), Some(2), "missing --questions");
    assert_eq!(
        base(&["--questions", &questions, "--threads", "0"]).status.code(),
        Some(2),
        "--threads 0"
    );
    assert_eq!(
        base(&["--questions", &questions, "--threads", "abc"]).status.code(),
        Some(2),
        "non-numeric --threads"
    );
    let bad_dir = dir.join("bad.txt");
    std::fs::write(&bad_dir, "a0,2005,KDD sideways\n").unwrap();
    let bad_dir = bad_dir.to_string_lossy().into_owned();
    let out = base(&["--questions", &bad_dir]);
    assert_eq!(out.status.code(), Some(2), "bad direction in questions file");
    assert!(String::from_utf8_lossy(&out.stderr).contains("high or low"));

    // Runtime errors exit 1.
    assert_eq!(
        base(&["--questions", "/nonexistent/questions.txt"]).status.code(),
        Some(1),
        "missing questions file"
    );
    let empty = dir.join("empty.txt");
    std::fs::write(&empty, "# only comments\n\n").unwrap();
    let empty = empty.to_string_lossy().into_owned();
    assert_eq!(base(&["--questions", &empty]).status.code(), Some(1), "no questions");

    std::fs::remove_dir_all(&dir).ok();
}

/// Mine the planted CSV into a binary snapshot and return its path.
fn mine_snapshot(dir: &Path, csv: &str) -> String {
    let store = dir.join("store.cape").to_string_lossy().into_owned();
    let out = run(&[
        "mine",
        "--csv",
        csv,
        "--schema",
        SCHEMA,
        "--theta",
        "0.1",
        "--delta",
        "3",
        "--lambda",
        "0.3",
        "--support",
        "2",
        "--psi",
        "3",
        "--save",
        &store,
    ]);
    assert!(out.status.success(), "mine --save failed: {}", String::from_utf8_lossy(&out.stderr));
    assert!(String::from_utf8_lossy(&out.stdout).contains("saved"));
    store
}

#[test]
fn snapshot_workflow_mine_save_explain_store() {
    let dir = temp_dir("snapworkflow");
    let csv = write_csv(&dir);
    let store = mine_snapshot(&dir, &csv);

    // patterns listing from the snapshot.
    let out = run(&["patterns", "--csv", &csv, "--schema", SCHEMA, "--store", &store]);
    assert!(out.status.success(), "patterns --store: {}", String::from_utf8_lossy(&out.stderr));
    assert!(String::from_utf8_lossy(&out.stdout).contains("confidence"));

    // explain against the snapshot finds the planted counterbalance.
    let out = run(&[
        "explain",
        "--csv",
        &csv,
        "--schema",
        SCHEMA,
        "--store",
        &store,
        "--sql",
        BATCH_SQL,
        "--tuple",
        "a0,2005,KDD",
        "--dir",
        "low",
        "--k",
        "5",
    ]);
    assert!(out.status.success(), "explain --store: {}", String::from_utf8_lossy(&out.stderr));
    assert!(String::from_utf8_lossy(&out.stdout).contains("ICDE"));

    // batch-explain from the snapshot answers every question.
    let questions = write_questions(&dir);
    let out = run(&[
        "batch-explain",
        "--csv",
        &csv,
        "--schema",
        SCHEMA,
        "--store",
        &store,
        "--sql",
        BATCH_SQL,
        "--questions",
        &questions,
        "--k",
        "5",
    ]);
    assert!(out.status.success(), "batch --store: {}", String::from_utf8_lossy(&out.stderr));
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("answered 4 questions (0 partial)"), "summary wrong:\n{text}");

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn corrupt_store_files_exit_3_with_typed_stderr() {
    let dir = temp_dir("snapcorrupt");
    let csv = write_csv(&dir);
    let store = mine_snapshot(&dir, &csv);
    let bytes = std::fs::read(&store).unwrap();

    // Run `explain --store PATH` and return (exit code, stderr).
    let explain_with = |path: &str, schema: &str| {
        let out = run(&[
            "explain",
            "--csv",
            &csv,
            "--schema",
            schema,
            "--store",
            path,
            "--sql",
            BATCH_SQL,
            "--tuple",
            "a0,2005,KDD",
            "--dir",
            "low",
        ]);
        (out.status.code(), String::from_utf8_lossy(&out.stderr).into_owned())
    };
    let write_variant = |name: &str, content: &[u8]| {
        let path = dir.join(name).to_string_lossy().into_owned();
        std::fs::write(&path, content).unwrap();
        path
    };

    // Not a snapshot at all → bad magic.
    let p = write_variant("garbage.cape", b"NOTASNAPSHOTFILE-and-then-some-padding");
    let (code, stderr) = explain_with(&p, SCHEMA);
    assert_eq!(code, Some(3), "bad magic: {stderr}");
    assert!(stderr.contains("bad magic"), "stderr: {stderr}");

    // Version byte bumped → unsupported version.
    let mut v = bytes.clone();
    v[8] ^= 0xFF;
    let p = write_variant("version.cape", &v);
    let (code, stderr) = explain_with(&p, SCHEMA);
    assert_eq!(code, Some(3), "version: {stderr}");
    assert!(stderr.contains("unsupported snapshot version"), "stderr: {stderr}");

    // First section tag flipped → section corrupt.
    let mut v = bytes.clone();
    v[16] ^= 0xFF;
    let p = write_variant("section.cape", &v);
    let (code, stderr) = explain_with(&p, SCHEMA);
    assert_eq!(code, Some(3), "section: {stderr}");
    assert!(stderr.contains("section corrupt"), "stderr: {stderr}");

    // Last byte missing → truncated (torn write).
    let p = write_variant("torn.cape", &bytes[..bytes.len() - 1]);
    let (code, stderr) = explain_with(&p, SCHEMA);
    assert_eq!(code, Some(3), "truncated: {stderr}");
    assert!(stderr.contains("truncated"), "stderr: {stderr}");

    // Valid file, different schema → schema mismatch.
    let (code, stderr) = explain_with(&store, "author:str,year:str,venue:str");
    assert_eq!(code, Some(3), "schema: {stderr}");
    assert!(stderr.contains("schema mismatch"), "stderr: {stderr}");

    // A *missing* store file is an environment problem, not corruption:
    // exit 1, same as any other unreadable input.
    let (code, stderr) = explain_with("/nonexistent/store.cape", SCHEMA);
    assert_eq!(code, Some(1), "missing store file: {stderr}");
    assert!(stderr.contains("cannot read store"), "stderr: {stderr}");

    // Usage taxonomy stays intact: --store absent.
    let out = run(&[
        "explain",
        "--csv",
        &csv,
        "--schema",
        SCHEMA,
        "--sql",
        BATCH_SQL,
        "--tuple",
        "a0,2005,KDD",
        "--dir",
        "low",
    ]);
    assert_eq!(out.status.code(), Some(2), "no pattern source is a usage error");

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn mine_without_save_is_usage_error() {
    let dir = temp_dir("minesave");
    let csv = write_csv(&dir);
    let out = run(&["mine", "--csv", &csv, "--schema", SCHEMA]);
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("--save"));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn metrics_flag_writes_telemetry_snapshot() {
    let dir = temp_dir("metrics");
    let csv = write_csv(&dir);
    let patterns = dir.join("patterns.cape").to_string_lossy().into_owned();
    let mine_metrics = dir.join("mine.json").to_string_lossy().into_owned();
    let explain_metrics = dir.join("explain.json").to_string_lossy().into_owned();

    let out = run(&[
        "mine",
        "--csv",
        &csv,
        "--schema",
        SCHEMA,
        "--theta",
        "0.1",
        "--delta",
        "3",
        "--lambda",
        "0.3",
        "--support",
        "2",
        "--psi",
        "3",
        "--save",
        &patterns,
        "--metrics",
        &mine_metrics,
    ]);
    assert!(out.status.success(), "mine failed: {}", String::from_utf8_lossy(&out.stderr));
    let json = std::fs::read_to_string(&mine_metrics).expect("metrics file written");
    for key in [
        "\"phases\"",
        "\"counters\"",
        "\"spans\"",
        "\"histograms\"",
        "mining.candidates_considered",
        "mining.fragments_fitted",
        "cli.mine",
    ] {
        assert!(json.contains(key), "mine metrics missing {key}:\n{json}");
    }

    let out = run(&[
        "explain",
        "--csv",
        &csv,
        "--schema",
        SCHEMA,
        "--store",
        &patterns,
        "--sql",
        "SELECT author, year, venue, count(*) FROM pub GROUP BY author, year, venue",
        "--tuple",
        "a0,2005,KDD",
        "--dir",
        "low",
        "--metrics",
        &explain_metrics,
    ]);
    assert!(out.status.success(), "explain failed: {}", String::from_utf8_lossy(&out.stderr));
    let json = std::fs::read_to_string(&explain_metrics).expect("metrics file written");
    for key in ["\"phases\"", "explain.refinements_pruned", "explain.run_ns", "explain.run"] {
        assert!(json.contains(key), "explain metrics missing {key}:\n{json}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn batch_explain_trace_out_emits_valid_chrome_trace() {
    use cape_obs::Json;

    let dir = temp_dir("traceout");
    let csv = write_csv(&dir);
    let patterns = mine_planted(&dir, &csv);
    let questions = write_questions(&dir);
    let trace_path = dir.join("trace.json").to_string_lossy().into_owned();

    let out = run(&[
        "batch-explain",
        "--csv",
        &csv,
        "--schema",
        SCHEMA,
        "--store",
        &patterns,
        "--sql",
        BATCH_SQL,
        "--questions",
        &questions,
        "--threads",
        "2",
        "--trace-out",
        &trace_path,
    ]);
    assert!(out.status.success(), "batch failed: {}", String::from_utf8_lossy(&out.stderr));

    let text = std::fs::read_to_string(&trace_path).expect("trace file written");
    let doc = Json::parse(&text).expect("trace file is valid JSON");
    let events = doc.get("traceEvents").and_then(Json::as_arr).expect("traceEvents array");
    assert!(events.len() > 1, "trace has only the metadata event");

    // Metadata names the process; slices are complete-duration events
    // with numeric ts/dur and at least the serve-side phases present.
    assert_eq!(events[0].get("ph").and_then(Json::as_str), Some("M"));
    let mut names = std::collections::BTreeSet::new();
    let mut request_trace_ids = std::collections::BTreeSet::new();
    for slice in &events[1..] {
        assert_eq!(slice.get("ph").and_then(Json::as_str), Some("X"));
        assert!(slice.get("ts").and_then(Json::as_f64).is_some(), "slice missing ts");
        assert!(slice.get("dur").and_then(Json::as_f64).is_some(), "slice missing dur");
        let name = slice.get("name").and_then(Json::as_str).expect("slice name");
        names.insert(name.to_string());
        if name == "serve.request" {
            let id = slice
                .get("args")
                .and_then(|a| a.get("trace_id"))
                .and_then(Json::as_str)
                .expect("request slice carries its trace id");
            request_trace_ids.insert(id.to_string());
        }
    }
    for expected in ["cli.batch_explain", "serve.request", "serve.queue_wait", "serve.exec"] {
        assert!(names.contains(expected), "trace missing {expected} slices: {names:?}");
    }
    assert_eq!(request_trace_ids.len(), 4, "each of the 4 questions has its own trace id");
    assert_eq!(
        doc.get("otherData").and_then(|o| o.get("dropped_events")).and_then(Json::as_u64),
        Some(0)
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn access_log_and_serve_report_workflow() {
    use cape_obs::Json;

    let dir = temp_dir("accesslog");
    let csv = write_csv(&dir);
    let patterns = mine_planted(&dir, &csv);
    let questions = write_questions(&dir);
    let log_path = dir.join("access.jsonl").to_string_lossy().into_owned();
    let metrics_path = dir.join("metrics.json").to_string_lossy().into_owned();

    let out = run(&[
        "batch-explain",
        "--csv",
        &csv,
        "--schema",
        SCHEMA,
        "--store",
        &patterns,
        "--sql",
        BATCH_SQL,
        "--questions",
        &questions,
        "--threads",
        "2",
        "--access-log",
        &log_path,
        "--metrics",
        &metrics_path,
    ]);
    assert!(out.status.success(), "batch failed: {}", String::from_utf8_lossy(&out.stderr));

    // One parseable line per question with the attribution fields.
    let log = std::fs::read_to_string(&log_path).expect("access log written");
    let lines: Vec<&str> = log.lines().collect();
    assert_eq!(lines.len(), 4, "one access-log line per question:\n{log}");
    for line in &lines {
        let v = Json::parse(line).expect("access-log line parses");
        for key in ["trace_id", "question", "outcome", "queue_ns", "exec_ns", "total_ns"] {
            assert!(v.get(key).is_some(), "access-log line missing {key}: {line}");
        }
        assert_eq!(v.get("outcome").and_then(Json::as_str), Some("ok"));
    }

    // The metrics snapshot carries the flight-recorder section, and
    // serve-report renders it with the queue-wait/execution split.
    let out = run(&["serve-report", "--snapshot", &metrics_path, "--top", "3"]);
    assert!(out.status.success(), "serve-report: {}", String::from_utf8_lossy(&out.stderr));
    let report = String::from_utf8_lossy(&out.stdout);
    assert!(report.contains("4 request(s) recorded"), "report:\n{report}");
    assert!(report.contains("slowest"), "report:\n{report}");
    assert!(report.contains("serve.request"), "span tree missing:\n{report}");
    assert!(report.contains("serve.queue_wait"), "queue-wait phase missing:\n{report}");
    assert!(report.contains("serve.exec"), "execution phase missing:\n{report}");
    assert!(report.contains("serve.queue_wait_ns: p50"), "histogram line missing:\n{report}");

    // serve-report without --snapshot is a usage error.
    assert_eq!(run(&["serve-report"]).status.code(), Some(2));
    // A snapshot with no requests section reports that and succeeds.
    let empty = dir.join("empty.json").to_string_lossy().into_owned();
    std::fs::write(&empty, "{\"counters\":{}}\n").unwrap();
    let out = run(&["serve-report", "--snapshot", &empty]);
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("no requests recorded"));

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn quiet_suppresses_progress_verbose_keeps_it() {
    let dir = temp_dir("verbosity");
    let csv = write_csv(&dir);
    let patterns = dir.join("p.cape").to_string_lossy().into_owned();
    let base = [
        "mine",
        "--csv",
        &csv,
        "--schema",
        SCHEMA,
        "--theta",
        "0.1",
        "--delta",
        "3",
        "--lambda",
        "0.3",
        "--support",
        "2",
        "--psi",
        "2",
        "--save",
        &patterns,
    ];

    let out = run(&base);
    assert!(out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("mining") && stderr.contains("rows"), "no progress:\n{stderr}");

    let mut quiet: Vec<&str> = base.to_vec();
    quiet.push("-q");
    let out = run(&quiet);
    assert!(out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!stderr.contains("mining"), "-q still noisy:\n{stderr}");
    assert!(String::from_utf8_lossy(&out.stdout).contains("saved"), "data output suppressed");
    std::fs::remove_dir_all(&dir).ok();
}

/// Mine a snapshot for the unknown-aggregate-column tests.
fn mined_patterns(dir: &Path, csv: &str) -> String {
    let patterns = dir.join("p.cape").to_string_lossy().into_owned();
    let out = run(&[
        "mine",
        "--csv",
        csv,
        "--schema",
        SCHEMA,
        "--theta",
        "0.1",
        "--delta",
        "3",
        "--lambda",
        "0.3",
        "--support",
        "2",
        "--psi",
        "3",
        "--save",
        &patterns,
    ]);
    assert!(out.status.success(), "mine failed: {}", String::from_utf8_lossy(&out.stderr));
    patterns
}

const GOLDEN_UNKNOWN_COLUMN: &str =
    "error: unknown aggregate column `royalties`: not in the relation schema";

#[test]
fn explain_unknown_aggregate_column_exits_4() {
    let dir = temp_dir("unknown-agg-explain");
    let csv = write_csv(&dir);
    let patterns = mined_patterns(&dir, &csv);

    let out = run(&[
        "explain",
        "--csv",
        &csv,
        "--schema",
        SCHEMA,
        "--store",
        &patterns,
        "--sql",
        "SELECT author, year, venue, sum(royalties) FROM pub GROUP BY author, year, venue",
        "--tuple",
        "a0,2005,KDD",
        "--dir",
        "low",
    ]);
    // Distinct exit code: 4, not the generic runtime error (1).
    assert_eq!(out.status.code(), Some(4), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    let stderr = String::from_utf8_lossy(&out.stderr);
    // Golden last line: the typed error, naming the column.
    assert_eq!(stderr.lines().last(), Some(GOLDEN_UNKNOWN_COLUMN), "stderr:\n{stderr}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn batch_explain_unknown_aggregate_column_exits_4_before_reading_questions() {
    let dir = temp_dir("unknown-agg-batch");
    let csv = write_csv(&dir);
    let patterns = mined_patterns(&dir, &csv);
    // The questions file does not even exist: the shared query is
    // validated up front, so the column error wins with exit 4 (a
    // missing file alone would be a runtime error, exit 1).
    let questions = dir.join("absent.txt").to_string_lossy().into_owned();

    let out = run(&[
        "batch-explain",
        "--csv",
        &csv,
        "--schema",
        SCHEMA,
        "--store",
        &patterns,
        "--sql",
        "SELECT author, year, venue, sum(royalties) FROM pub GROUP BY author, year, venue",
        "--questions",
        &questions,
    ]);
    assert_eq!(out.status.code(), Some(4), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(stderr.lines().last(), Some(GOLDEN_UNKNOWN_COLUMN), "stderr:\n{stderr}");

    // Control: the same invocation with a valid aggregate column fails
    // on the missing questions file instead — exit 1, different message.
    let out = run(&[
        "batch-explain",
        "--csv",
        &csv,
        "--schema",
        SCHEMA,
        "--store",
        &patterns,
        "--sql",
        "SELECT author, year, venue, count(*) FROM pub GROUP BY author, year, venue",
        "--questions",
        &questions,
    ]);
    assert_eq!(out.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&out.stderr).contains("cannot read"));
    std::fs::remove_dir_all(&dir).ok();
}

/// Split the planted CSV into a base prefix and a delta suffix, so that
/// base + delta (in order) is exactly the full file.
fn write_split_csv(dir: &Path, delta_lines: usize) -> (String, String) {
    let full = write_csv(dir);
    let text = std::fs::read_to_string(&full).unwrap();
    let lines: Vec<&str> = text.lines().collect();
    let (header, data) = (lines[0], &lines[1..]);
    let cut = data.len() - delta_lines;
    let base_path = dir.join("base.csv");
    let delta_path = dir.join("delta.csv");
    std::fs::write(&base_path, format!("{header}\n{}\n", data[..cut].join("\n"))).unwrap();
    std::fs::write(&delta_path, format!("{header}\n{}\n", data[cut..].join("\n"))).unwrap();
    (base_path.to_string_lossy().into_owned(), delta_path.to_string_lossy().into_owned())
}

#[test]
fn append_workflow_wal_replay_and_compaction() {
    let dir = temp_dir("append");
    let (base, delta) = write_split_csv(&dir, 40);
    let store = mine_snapshot(&dir, &base);
    let wal = format!("{store}.wal");

    // Append the delta: the WAL appears beside the snapshot.
    let out =
        run(&["append", "--csv", &base, "--schema", SCHEMA, "--store", &store, "--rows", &delta]);
    assert!(out.status.success(), "append failed: {}", String::from_utf8_lossy(&out.stderr));
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("appended 40 rows"), "summary wrong:\n{text}");
    assert!(text.contains("wal: record 1 committed"), "wal line missing:\n{text}");
    assert!(Path::new(&wal).exists(), "no WAL beside the snapshot");

    // Read paths replay the WAL: explain over the *base* CSV serves the
    // appended store and still finds the planted counterbalance.
    let explain = |store: &str| {
        run(&[
            "explain",
            "--csv",
            &base,
            "--schema",
            SCHEMA,
            "--store",
            store,
            "--sql",
            BATCH_SQL,
            "--tuple",
            "a0,2005,KDD",
            "--dir",
            "low",
            "--k",
            "5",
        ])
    };
    let out = explain(&store);
    assert!(out.status.success(), "explain after append: {}", String::from_utf8_lossy(&out.stderr));
    assert!(String::from_utf8_lossy(&out.stdout).contains("ICDE"));

    // A second append replays the first from the WAL before committing
    // record 2 (the CLI passes the base CSV each time).
    let out = run(&[
        "append",
        "--csv",
        &base,
        "--schema",
        SCHEMA,
        "--store",
        &store,
        "--rows",
        &delta,
        "--compact",
    ]);
    assert!(out.status.success(), "append 2 failed: {}", String::from_utf8_lossy(&out.stderr));
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("wal: record 2 committed"), "sequence did not advance:\n{text}");
    assert!(text.contains("compacted"), "no compaction line:\n{text}");

    // After compaction the snapshot itself holds the appended rows'
    // patterns; but the base CSV no longer matches the compacted
    // snapshot's row set, so loading demands the WAL-aware path, which
    // replays an empty (folded) log — still success.
    let out = explain(&store);
    assert!(
        out.status.success(),
        "explain after compact: {}",
        String::from_utf8_lossy(&out.stderr)
    );

    // Corrupt the folded WAL header: reads now exit 3 with a typed error.
    let mut bytes = std::fs::read(&wal).unwrap();
    bytes[0] ^= 0xFF;
    std::fs::write(&wal, &bytes).unwrap();
    let out = explain(&store);
    assert_eq!(out.status.code(), Some(3), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    assert!(String::from_utf8_lossy(&out.stderr).contains("wal"), "untyped wal error");

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn append_usage_and_store_errors() {
    let dir = temp_dir("appenderr");
    let (base, delta) = write_split_csv(&dir, 10);

    // Usage: --store and --rows are both required.
    let out = run(&["append", "--csv", &base, "--schema", SCHEMA, "--rows", &delta]);
    assert_eq!(out.status.code(), Some(2), "missing --store");
    let store = mine_snapshot(&dir, &base);
    let out = run(&["append", "--csv", &base, "--schema", SCHEMA, "--store", &store]);
    assert_eq!(out.status.code(), Some(2), "missing --rows");

    // Runtime: absent delta file.
    let out = run(&[
        "append",
        "--csv",
        &base,
        "--schema",
        SCHEMA,
        "--store",
        &store,
        "--rows",
        "/nonexistent/delta.csv",
    ]);
    assert_eq!(out.status.code(), Some(1), "missing delta CSV");

    // Store: a garbage snapshot is rejected with exit 3 before any append.
    let garbage = dir.join("garbage.cape").to_string_lossy().into_owned();
    std::fs::write(&garbage, b"NOTASNAPSHOTFILE-and-then-some-padding").unwrap();
    let out =
        run(&["append", "--csv", &base, "--schema", SCHEMA, "--store", &garbage, "--rows", &delta]);
    assert_eq!(out.status.code(), Some(3), "stderr: {}", String::from_utf8_lossy(&out.stderr));

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn usage_documents_exit_code_4() {
    let out = run(&["help"]);
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("cape serve --listen"), "serve missing from usage:\n{text}");
    assert!(text.contains("4 question references an aggregate column"), "exit 4 undocumented");
}

/// Kills the wrapped server process when the test ends, pass or fail.
struct KillOnDrop(std::process::Child);

impl Drop for KillOnDrop {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

/// A store mined with `--fd` cannot be maintained incrementally. `append`
/// refuses it with exit 3 and leaves no `.wal` beside it, so reads keep
/// working, and `serve` falls back to read-only serving: explain answers
/// 200 and append answers 409.
#[test]
fn fd_store_serves_read_only_and_never_gains_a_wal() {
    use cape_net::testclient::Client;
    use cape_obs::Json;
    use std::io::{BufRead, BufReader, Read};
    use std::process::Stdio;

    let dir = temp_dir("fdstore");
    let (base, delta) = write_split_csv(&dir, 10);
    let store = dir.join("fd.cape").to_string_lossy().into_owned();
    let wal = format!("{store}.wal");
    let out = cape()
        .args(["mine", "--csv", &base, "--schema", SCHEMA, "--theta", "0.1", "--delta", "3"])
        .args(["--lambda", "0.3", "--support", "2", "--psi", "3", "--fd", "--save", &store])
        .output()
        .expect("binary runs");
    assert!(out.status.success(), "mine --fd failed: {}", String::from_utf8_lossy(&out.stderr));

    let out =
        run(&["append", "--csv", &base, "--schema", SCHEMA, "--store", &store, "--rows", &delta]);
    assert_eq!(out.status.code(), Some(3), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("cannot be maintained incrementally"),
        "untyped refusal: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(!Path::new(&wal).exists(), "append left a WAL beside the store");

    let explain = || {
        cape()
            .args(["explain", "--csv", &base, "--schema", SCHEMA, "--store", &store])
            .args(["--sql", BATCH_SQL, "--tuple", "a0,2005,KDD", "--dir", "low", "--k", "5"])
            .output()
            .expect("binary runs")
    };
    let out = explain();
    assert!(out.status.success(), "explain after append: {}", String::from_utf8_lossy(&out.stderr));

    let child = cape()
        .args(["serve", "--listen", "127.0.0.1:0", "--csv", &base, "--schema", SCHEMA])
        .args(["--store", &store, "--name", "pub", "-q"])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("serve starts");
    let mut server = KillOnDrop(child);
    let mut line = String::new();
    BufReader::new(server.0.stdout.take().expect("stdout")).read_line(&mut line).unwrap();
    let Some(addr) = line.trim().strip_prefix("listening on ") else {
        let mut stderr = String::new();
        server.0.stderr.take().expect("stderr").read_to_string(&mut stderr).unwrap();
        panic!("serve did not start: {stderr}");
    };
    let mut client = Client::connect(addr).expect("connect");
    let body = Json::parse(&format!(
        r#"{{"sql": "{BATCH_SQL}", "tuple": ["a0", 2005, "KDD"], "dir": "low", "k": 5}}"#
    ))
    .unwrap();
    let resp = client.post_json("/v1/pub/explain", &body).expect("explain");
    assert_eq!(resp.status, 200, "{}", String::from_utf8_lossy(&resp.body));
    let rows = Json::parse(r#"{"rows": [["a0", 2005, "KDD"]]}"#).unwrap();
    let resp = client.post_json("/admin/stores/pub/append", &rows).expect("append");
    assert_eq!(resp.status, 409, "{}", String::from_utf8_lossy(&resp.body));
    drop(server);
    assert!(!Path::new(&wal).exists(), "serve left a WAL beside the store");

    let out = explain();
    assert!(out.status.success(), "explain after serve: {}", String::from_utf8_lossy(&out.stderr));
    std::fs::remove_dir_all(&dir).ok();
}

/// A WAL beside an `--fd` store that replays no rows (earlier builds
/// left a header-only one there) does not block reads: `explain` and
/// `patterns` read the snapshot as it is. A WAL that holds rows is still
/// refused with exit 3, since the store cannot take them.
#[test]
fn fd_store_reads_past_a_wal_without_rows() {
    let dir = temp_dir("fdwal");
    let (base, delta) = write_split_csv(&dir, 10);
    let empty = dir.join("empty.csv").to_string_lossy().into_owned();
    std::fs::write(&empty, "author,year,venue\n").unwrap();
    let plain = mine_snapshot(&dir, &base);
    let fd = dir.join("fd.cape").to_string_lossy().into_owned();
    let out = cape()
        .args(["mine", "--csv", &base, "--schema", SCHEMA, "--theta", "0.1", "--delta", "3"])
        .args(["--lambda", "0.3", "--support", "2", "--psi", "3", "--fd", "--save", &fd])
        .output()
        .expect("binary runs");
    assert!(out.status.success(), "mine --fd failed: {}", String::from_utf8_lossy(&out.stderr));
    let explain = || {
        cape()
            .args(["explain", "--csv", &base, "--schema", SCHEMA, "--store", &fd])
            .args(["--sql", BATCH_SQL, "--tuple", "a0,2005,KDD", "--dir", "low", "--k", "5"])
            .output()
            .expect("binary runs")
    };

    // An empty append leaves a header-only WAL beside the plain store.
    let out =
        run(&["append", "--csv", &base, "--schema", SCHEMA, "--store", &plain, "--rows", &empty]);
    assert!(out.status.success(), "empty append: {}", String::from_utf8_lossy(&out.stderr));
    std::fs::copy(format!("{plain}.wal"), format!("{fd}.wal")).unwrap();
    let out = explain();
    assert!(
        out.status.success(),
        "explain past an empty WAL: {:?} {}",
        out.status.code(),
        String::from_utf8_lossy(&out.stderr)
    );
    let out = run(&["patterns", "--csv", &base, "--schema", SCHEMA, "--store", &fd]);
    assert!(
        out.status.success(),
        "patterns past an empty WAL: {}",
        String::from_utf8_lossy(&out.stderr)
    );

    // A WAL that holds rows is refused.
    let out =
        run(&["append", "--csv", &base, "--schema", SCHEMA, "--store", &plain, "--rows", &delta]);
    assert!(out.status.success(), "append: {}", String::from_utf8_lossy(&out.stderr));
    std::fs::copy(format!("{plain}.wal"), format!("{fd}.wal")).unwrap();
    let out = explain();
    assert_eq!(out.status.code(), Some(3), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("cannot be maintained incrementally"),
        "untyped refusal: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// One v2 file from `mine` to `append`, `explain`, `--compact` and
/// `serve`. The append lands in a WAL beside the file; explain over the
/// base CSV and that WAL prints what explain prints over a store mined
/// from base + delta; compaction keeps the file at version 2; and the
/// server answers an explain, an append and a swap to the same file.
#[test]
fn v2_store_appends_compacts_and_serves() {
    use cape_net::testclient::Client;
    use cape_obs::Json;
    use std::io::{BufRead, BufReader, Read};
    use std::process::Stdio;

    let dir = temp_dir("v2store");
    let (base, delta) = write_split_csv(&dir, 50);
    let full = dir.join("pub.csv").to_string_lossy().into_owned();
    let empty = dir.join("empty.csv").to_string_lossy().into_owned();
    std::fs::write(&empty, "author,year,venue\n").unwrap();
    let store = dir.join("v2.cape").to_string_lossy().into_owned();
    let reference = dir.join("full.cape").to_string_lossy().into_owned();
    let mine = |csv: &str, save: &str, extra: &[&str]| {
        let out = cape()
            .args(["mine", "--csv", csv, "--schema", SCHEMA, "--theta", "0.1", "--delta", "3"])
            .args(["--lambda", "0.3", "--support", "2", "--psi", "3", "--save", save])
            .args(extra)
            .output()
            .expect("binary runs");
        assert!(out.status.success(), "mine failed: {}", String::from_utf8_lossy(&out.stderr));
    };
    mine(&base, &store, &["--v2"]);
    mine(&full, &reference, &[]);
    let version = || {
        let bytes = std::fs::read(&store).unwrap();
        u32::from_le_bytes(bytes[8..12].try_into().unwrap())
    };
    assert_eq!(version(), 2);
    // The explain header embeds a wall-clock duration; cut it off.
    let explain = |csv: &str, store: &str| -> String {
        let out = cape()
            .args(["explain", "--csv", csv, "--schema", SCHEMA, "--store", store])
            .args(["--sql", BATCH_SQL, "--tuple", "a0,2005,KDD", "--dir", "low", "--k", "5"])
            .output()
            .expect("binary runs");
        assert!(out.status.success(), "explain failed: {}", String::from_utf8_lossy(&out.stderr));
        String::from_utf8_lossy(&out.stdout)
            .lines()
            .map(|l| l.find(" checked, ").map_or(l, |i| &l[..i]))
            .collect::<Vec<_>>()
            .join("\n")
    };
    let expected = explain(&full, &reference);

    let out =
        run(&["append", "--csv", &base, "--schema", SCHEMA, "--store", &store, "--rows", &delta]);
    assert!(out.status.success(), "append failed: {}", String::from_utf8_lossy(&out.stderr));
    assert!(String::from_utf8_lossy(&out.stdout).contains("appended 50 rows"));
    assert_eq!(explain(&base, &store), expected, "replayed v2 store differs from a full mine");

    let out = run(&[
        "append",
        "--csv",
        &base,
        "--schema",
        SCHEMA,
        "--store",
        &store,
        "--rows",
        &empty,
        "--compact",
    ]);
    assert!(out.status.success(), "compact failed: {}", String::from_utf8_lossy(&out.stderr));
    assert!(String::from_utf8_lossy(&out.stdout).contains("compacted"));
    assert_eq!(version(), 2, "compaction changed the file's version");
    assert_eq!(explain(&base, &store), expected, "compacted v2 store differs from a full mine");

    let child = cape()
        .args(["serve", "--listen", "127.0.0.1:0", "--csv", &base, "--schema", SCHEMA])
        .args(["--store", &store, "--name", "pub", "-q"])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("serve starts");
    let mut server = KillOnDrop(child);
    let mut line = String::new();
    BufReader::new(server.0.stdout.take().expect("stdout")).read_line(&mut line).unwrap();
    let Some(addr) = line.trim().strip_prefix("listening on ") else {
        let mut stderr = String::new();
        server.0.stderr.take().expect("stderr").read_to_string(&mut stderr).unwrap();
        panic!("serve did not start: {stderr}");
    };
    let mut client = Client::connect(addr).expect("connect");
    let body = Json::parse(&format!(
        r#"{{"sql": "{BATCH_SQL}", "tuple": ["a0", 2005, "KDD"], "dir": "low", "k": 5}}"#
    ))
    .unwrap();
    let resp = client.post_json("/v1/pub/explain", &body).expect("explain");
    assert_eq!(resp.status, 200, "{}", String::from_utf8_lossy(&resp.body));
    let rows = Json::parse(r#"{"rows": [["a0", 2005, "KDD"]]}"#).unwrap();
    let resp = client.post_json("/admin/stores/pub/append", &rows).expect("append");
    assert_eq!(resp.status, 200, "{}", String::from_utf8_lossy(&resp.body));
    let swap = Json::Obj(vec![("path".into(), Json::Str(store.clone()))]);
    let resp = client.post_json("/admin/stores/pub/swap", &swap).expect("swap");
    assert_eq!(resp.status, 200, "{}", String::from_utf8_lossy(&resp.body));
    let resp = client.post_json("/v1/pub/explain", &body).expect("explain after swap");
    assert_eq!(resp.status, 200, "{}", String::from_utf8_lossy(&resp.body));
    drop(server);
    std::fs::remove_dir_all(&dir).ok();
}
