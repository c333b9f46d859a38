//! Microbenches for the explanation-engine primitives: top-k maintenance,
//! tuple distance, store snapshots, and the SQL layer.

use cape_bench::datasets::dblp_rows;
use cape_core::explain::{DistanceModel, Explanation, TopK};
use cape_core::mining::{ArpMiner, Miner};
use cape_core::snapshot::{encode_snapshot, read_snapshot};
use cape_core::{MiningConfig, Thresholds};
use cape_data::sql::{execute, parse};
use cape_data::Value;
use criterion::{criterion_group, criterion_main, Criterion};

fn expl(tag: i64, score: f64) -> Explanation {
    Explanation {
        pattern_idx: 0,
        refinement_idx: tag as usize % 7,
        attrs: vec![0, 1],
        tuple: vec![Value::Int(tag), Value::Int(tag * 31 % 97)],
        agg_value: 1.0,
        predicted: 0.5,
        deviation: 0.5,
        distance: 0.3,
        norm: 1.0,
        score,
    }
}

fn bench_topk(c: &mut Criterion) {
    let mut group = c.benchmark_group("topk");
    group.bench_function("offer_10000_into_k10", |b| {
        b.iter(|| {
            let mut tk = TopK::new(10);
            for i in 0..10_000i64 {
                tk.offer(expl(i, ((i * 7919) % 1000) as f64));
            }
            tk.into_sorted_vec()
        })
    });
    group.bench_function("offer_with_duplicates", |b| {
        b.iter(|| {
            let mut tk = TopK::new(10);
            for i in 0..10_000i64 {
                tk.offer(expl(i % 50, ((i * 7919) % 1000) as f64));
            }
            tk.into_sorted_vec()
        })
    });
    group.finish();
}

fn bench_distance(c: &mut Criterion) {
    let rel = dblp_rows(2_000);
    let dm = DistanceModel::default_for(&rel);
    let t1 = [Value::str("AX"), Value::str("SIGKDD"), Value::Int(2007)];
    let t2 = [Value::str("AX"), Value::str("ICDE"), Value::Int(2006)];
    let attrs = [0usize, 3, 2];
    c.bench_function("tuple_distance", |b| b.iter(|| dm.tuple_distance(&attrs, &t1, &attrs, &t2)));
}

fn bench_snapshot(c: &mut Criterion) {
    let rel = dblp_rows(5_000);
    let cfg = MiningConfig {
        thresholds: Thresholds::new(0.15, 4, 0.3, 3),
        psi: 2,
        exclude: vec![cape_datagen::dblp::attrs::PUBID],
        ..MiningConfig::default()
    };
    let store = ArpMiner.mine(&rel, &cfg).expect("mining").store;
    let mut group = c.benchmark_group("snapshot");
    group.sample_size(20);
    group.bench_function("encode_snapshot", |b| {
        b.iter(|| encode_snapshot(rel.schema(), &cfg, &store))
    });
    let bytes = encode_snapshot(rel.schema(), &cfg, &store);
    group.bench_function("read_snapshot", |b| b.iter(|| read_snapshot(&bytes, &rel).unwrap()));
    group.finish();
}

fn bench_sql(c: &mut Criterion) {
    let rel = dblp_rows(10_000);
    let mut group = c.benchmark_group("sql");
    group.bench_function("parse", |b| {
        b.iter(|| {
            parse(
                "SELECT author, venue, count(*) AS n FROM pub \
                 WHERE year BETWEEN 2004 AND 2012 AND venue IN ('SIGKDD','ICDE') \
                 GROUP BY author, venue ORDER BY n DESC LIMIT 20",
            )
            .unwrap()
        })
    });
    let stmt = parse(
        "SELECT author, venue, count(*) AS n FROM pub \
         WHERE year BETWEEN 2004 AND 2012 GROUP BY author, venue ORDER BY n DESC LIMIT 20",
    )
    .unwrap();
    group.bench_function("execute_filter_group_sort", |b| b.iter(|| execute(&stmt, &rel).unwrap()));
    group.finish();
}

criterion_group!(benches, bench_topk, bench_distance, bench_snapshot, bench_sql);
criterion_main!(benches);
