//! Out-of-core scale benchmark: mine + explain DBLP and Crime at 250k
//! (quick) / 1M (full) rows, then save a v2 snapshot and time the mmap
//! cold-start relation load against a full owned decode.
//!
//! Each phase — mine, the explain grid, save, mmap load, owned decode — is
//! timed [`REPS`] times and the fastest run is reported, as `mine-bench`
//! and `store-bench` do: one run of each let the bench-diff gate at 25%
//! trip on scheduler noise. The point of this experiment is that the
//! pipeline *completes* at scale with the expected ratios:
//!
//! * `mine_columnar` — absolute mining times (wall, query, regression)
//!   that `bench-diff` tracks against the committed baseline.
//! * `mmap_relation_load_s` vs `owned_decode_s` — the v2 cold-start
//!   primitive ([`load_relation_v2`]) maps the file and aliases its
//!   slabs, so its cost is framing + CRC + dictionary decode, while the
//!   owned path decodes patterns and rebuilds group data. The gap *is*
//!   the decode-independence claim, in wall-clock form.
//! * `peak_rss_bytes` — recorded per phase (informational; the mmap load
//!   should fault pages, not copy slabs).
//!
//! Results land in the `scale` section of `results/BENCH_mine.json`
//! (the rest of that file belongs to `mine-bench`; the two experiments
//! share it through [`crate::envelope::merge_bench_section`] /
//! `write_bench_preserving`), so the CI bench-trajectory gate diffs both
//! against the same committed baseline.

use crate::datasets::{crime_prefix, crime_rows, dblp_rows, Scale};
use crate::experiments::best_of;
use crate::questions::generate_questions;
use crate::report::{section, SeriesTable};
use cape_core::config::MiningConfig;
use cape_core::explain::{ExplainConfig, TopKExplainer};
use cape_core::mining::{ArpMiner, Miner, MiningOutput};
use cape_core::prelude::OptimizedExplainer;
use cape_core::snapshot::{load_relation_v2, read_snapshot_v2, save_snapshot_v2};
use cape_data::Relation;
use cape_obs::Json;

/// Number of crime attributes kept (matches `mine-bench`).
const CRIME_ATTRS: usize = 5;

/// User questions explained per dataset.
const QUESTIONS: usize = 8;

/// Top-k for explanation generation.
const TOP_K: usize = 10;

/// Timed runs per phase; the per-metric minimum is reported.
const REPS: usize = 3;

fn base_cfg(exclude: Vec<usize>) -> MiningConfig {
    MiningConfig {
        thresholds: cape_core::config::Thresholds::new(0.15, 4, 0.3, 3),
        psi: 3,
        exclude,
        ..MiningConfig::default()
    }
}

struct MinePhase {
    wall_s: f64,
    query_s: f64,
    regress_s: f64,
    patterns: usize,
    peak_rss_bytes: Option<u64>,
}

fn mine_once(rel: &Relation, cfg: &MiningConfig) -> (MinePhase, MiningOutput) {
    crate::rss::reset_peak();
    let out = ArpMiner.mine(rel, cfg).expect("mining");
    let peak_rss_bytes = crate::rss::peak_rss_bytes();
    let s = &out.stats;
    let phase = MinePhase {
        wall_s: s.total_time.as_secs_f64(),
        query_s: s.query_time.as_secs_f64(),
        regress_s: s.regression_time.as_secs_f64(),
        patterns: out.store.len(),
        peak_rss_bytes,
    };
    (phase, out)
}

/// Per-metric minimum over [`REPS`] mines, with the last mine's output.
/// Each output is freed before the next mine starts, so the peak RSS,
/// the first mine's, covers one store.
fn best_mine(rel: &Relation, cfg: &MiningConfig) -> (MinePhase, MiningOutput) {
    let (mut best, mut out) = mine_once(rel, cfg);
    for _ in 1..REPS {
        drop(out);
        let (r, next) = mine_once(rel, cfg);
        best.wall_s = best.wall_s.min(r.wall_s);
        best.query_s = best.query_s.min(r.query_s);
        best.regress_s = best.regress_s.min(r.regress_s);
        out = next;
    }
    (best, out)
}

fn mine_json(m: &MinePhase) -> Json {
    let mut fields = vec![
        ("wall_s".into(), Json::Num(m.wall_s)),
        ("query_s".into(), Json::Num(m.query_s)),
        ("regress_s".into(), Json::Num(m.regress_s)),
        ("patterns".into(), Json::Num(m.patterns as f64)),
    ];
    if let Some(rss) = m.peak_rss_bytes {
        fields.push(("peak_rss_bytes".into(), Json::Num(rss as f64)));
    }
    Json::Obj(fields)
}

/// One dataset's full pass; returns the JSON entry and a rendered table.
fn run_dataset(
    dataset: &str,
    rel: Relation,
    exclude: Vec<usize>,
    question_attrs: &[usize],
    seed: u64,
) -> (Json, String) {
    let rows = rel.num_rows();

    // --- mine ----------------------------------------------------------
    let col_cfg = base_cfg(exclude);
    eprintln!("  scale-bench: {dataset}/{rows} mining ...");
    let (col, mined) = best_mine(&rel, &col_cfg);
    eprintln!("  scale-bench: {dataset}/{rows}: {:.2}s ({} patterns)", col.wall_s, col.patterns);

    // --- explain: the question grid against the columnar store --------
    let questions = generate_questions(&rel, question_attrs, QUESTIONS, seed);
    let ecfg = ExplainConfig::default_for(&rel, TOP_K);
    let mut explain_s = f64::INFINITY;
    let mut answered = 0usize;
    for _ in 0..REPS {
        let mut total_s = 0.0;
        answered = 0;
        for q in &questions {
            let (explanations, s) = OptimizedExplainer.explain(&mined.store, q, &ecfg);
            total_s += s.time.as_secs_f64();
            answered += usize::from(!explanations.is_empty());
        }
        explain_s = explain_s.min(total_s);
    }
    assert!(answered > 0, "{dataset}: no question produced an explanation at scale");
    eprintln!(
        "  scale-bench: {dataset}/{rows}: {answered}/{} questions answered in {explain_s:.3}s",
        questions.len(),
    );

    // --- snapshot v2: save, mmap cold-start, owned decode --------------
    let path = std::env::temp_dir().join(format!("cape_scale_{dataset}.cape"));
    let (save_s, bytes) = best_of(REPS, || {
        save_snapshot_v2(&path, rel.schema(), &col_cfg, &mined.store, &rel).expect("save v2")
    });

    // Peak RSS of the first load, which maps the file fresh. Each timed
    // closure returns what it built, so freeing it is not timed.
    crate::rss::reset_peak();
    let mut mmap_peak_rss = None;
    let (mmap_relation_load_s, (_, mapped)) = best_of(REPS, || {
        let loaded = load_relation_v2(&path).expect("mmap relation load");
        mmap_peak_rss = mmap_peak_rss.or_else(crate::rss::peak_rss_bytes);
        loaded
    });
    assert_eq!(mapped.num_rows(), rows, "mapped relation lost rows");
    drop(mapped);

    let (owned_decode_s, (raw, owned)) = best_of(REPS, || {
        let raw = std::fs::read(&path).expect("read snapshot");
        let owned = read_snapshot_v2(&raw).expect("owned decode");
        (raw, owned)
    });
    assert_eq!(owned.relation.num_rows(), rows, "owned relation lost rows");
    assert_eq!(owned.store.len(), col.patterns, "owned decode lost patterns");
    drop((raw, owned));
    let _ = std::fs::remove_file(&path);
    eprintln!(
        "  scale-bench: {dataset}/{rows}: snapshot {bytes}B, save {save_s:.3}s, \
         mmap load {:.1}ms, owned decode {:.1}ms",
        mmap_relation_load_s * 1e3,
        owned_decode_s * 1e3,
    );

    let mut snapshot_fields = vec![
        ("bytes".into(), Json::Num(bytes as f64)),
        ("save_s".into(), Json::Num(save_s)),
        ("mmap_relation_load_s".into(), Json::Num(mmap_relation_load_s)),
        ("owned_decode_s".into(), Json::Num(owned_decode_s)),
    ];
    if let Some(rss) = mmap_peak_rss {
        snapshot_fields.push(("mmap_peak_rss_bytes".into(), Json::Num(rss as f64)));
    }

    let entry = Json::Obj(vec![
        ("dataset".into(), Json::Str(dataset.into())),
        ("rows".into(), Json::Num(rows as f64)),
        ("miner".into(), Json::Str("ARP-MINE".into())),
        ("mine_columnar".into(), mine_json(&col)),
        (
            "explain".into(),
            Json::Obj(vec![
                ("questions".into(), Json::Num(questions.len() as f64)),
                ("answered".into(), Json::Num(answered as f64)),
                ("total_s".into(), Json::Num(explain_s)),
            ]),
        ),
        ("snapshot".into(), Json::Obj(snapshot_fields)),
    ]);

    let mut table = SeriesTable::new(
        "metric",
        vec![
            "mine columnar [s]".into(),
            "explain total [s]".into(),
            "v2 save [s]".into(),
            "mmap relation load [s]".into(),
            "owned decode [s]".into(),
        ],
    );
    table.push_series(
        "value",
        vec![
            Some(col.wall_s),
            Some(explain_s),
            Some(save_s),
            Some(mmap_relation_load_s),
            Some(owned_decode_s),
        ],
    );
    let report = format!(
        "{}{} rows, {} patterns\n{}",
        section(&format!("Out-of-core scale: {dataset} @ {rows}")),
        rows,
        col.patterns,
        table.render()
    );
    (entry, report)
}

/// The scale-bench experiment: 250k rows on quick, 1M on full.
pub fn scale_bench(scale: Scale) -> String {
    let rows = match scale {
        Scale::Quick => 250_000,
        Scale::Full => 1_000_000,
    };
    let scale_label = match scale {
        Scale::Quick => "quick",
        Scale::Full => "full",
    };

    // (name, relation, excluded attrs, question attrs, question seed)
    type Dataset = (&'static str, Relation, Vec<usize>, Vec<usize>, u64);

    let mut entries = Vec::new();
    let mut report = String::new();
    let datasets: Vec<Dataset> = vec![
        (
            "dblp",
            dblp_rows(rows),
            vec![cape_datagen::dblp::attrs::PUBID],
            vec![
                cape_datagen::dblp::attrs::AUTHOR,
                cape_datagen::dblp::attrs::YEAR,
                cape_datagen::dblp::attrs::VENUE,
            ],
            91,
        ),
        (
            "crime",
            crime_prefix(&crime_rows(rows), CRIME_ATTRS),
            vec![],
            vec![
                cape_datagen::crime::attrs::PRIMARY_TYPE,
                cape_datagen::crime::attrs::COMMUNITY,
                cape_datagen::crime::attrs::YEAR,
            ],
            92,
        ),
    ];
    for (dataset, rel, exclude, question_attrs, seed) in datasets {
        let (mut entry, section) = run_dataset(dataset, rel, exclude, &question_attrs, seed);
        if let Json::Obj(fields) = &mut entry {
            fields.insert(2, ("scale".into(), Json::Str(scale_label.into())));
        }
        entries.push(entry);
        report.push_str(&section);
    }

    let payload = Json::Obj(vec![
        ("scale".into(), Json::Str(scale_label.into())),
        ("rows".into(), Json::Num(rows as f64)),
        ("miner".into(), Json::Str("ARP-MINE".into())),
        ("questions".into(), Json::Num(QUESTIONS as f64)),
        ("top_k".into(), Json::Num(TOP_K as f64)),
        ("crime_attrs".into(), Json::Num(CRIME_ATTRS as f64)),
        ("reps".into(), Json::Num(REPS as f64)),
        ("entries".into(), Json::Arr(entries)),
    ]);
    crate::envelope::merge_bench_section("results/BENCH_mine.json", "mine-bench", "scale", payload);
    report.push_str("merged `scale` section into results/BENCH_mine.json\n");
    report
}
