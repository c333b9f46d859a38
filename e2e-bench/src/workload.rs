//! The workloads and the inputs each one generates from the seed.
//!
//! All workloads are closed loops: each client waits for an answer
//! before it asks the next question. Every question asks for `k = 10`.

use cape_core::Direction;
use cape_data::ops::aggregate;
use cape_data::{AggSpec, AttrId, Relation, Value, ValueType};
use cape_obs::Json;

/// Top-k every question asks for.
pub const K: usize = 10;

/// Which in-repo generator makes the data.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Dataset {
    /// `cape_datagen::dblp`: `Pub(author, pubid, year, venue)`.
    Dblp,
    /// `cape_datagen::crime`: the 11-attribute Chicago-crime schema.
    Crime,
}

/// How a workload's request stream is built.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stream {
    /// A fixed question list cycled by every client after one untimed
    /// warm-up pass, so drill-downs hit the cache.
    Hot,
    /// Every request asks about a different result tuple.
    Cold,
    /// The question list cycled by one connection, no warm-up.
    Mixed,
}

/// Questions in the cycled list of [`Stream::Hot`] and [`Stream::Mixed`].
pub const CYCLED_QUESTIONS: usize = 32;
/// Rows generated past the base for appends. Fixed, so the same seed
/// gives the same base rows whatever the run length.
pub const APPEND_POOL_ROWS: usize = 5_000;

/// One benchmark workload.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    /// Name on the command line and in `BENCHMARK.json`.
    pub name: &'static str,
    /// Generator.
    pub dataset: Dataset,
    /// Base rows written to the CSV.
    pub rows: usize,
    /// Columns excluded from mining.
    pub exclude: &'static [&'static str],
    /// Group-by columns of the question query.
    pub group_by: &'static [&'static str],
    /// Concurrent closed-loop clients.
    pub clients: usize,
    /// Request stream.
    pub stream: Stream,
    /// Cold starts timed per run; `setup_s` is their median.
    pub setup_reps: usize,
    /// Rows per append.
    pub append_rows: usize,
    /// Explains the first client sends between two appends of the
    /// measured phase (0: no appends in the phase). Spread over the whole
    /// phase, the appends meet the host's drifting speed as the explains
    /// do; sent in one burst they would not. A count, not a clock, so each
    /// epoch serves as many explains (and drill-cache hits) however fast
    /// the host runs.
    pub explains_per_append: usize,
    /// Appends sent one after another once the explain phase ends.
    pub tail_appends: usize,
    /// Operations per client the traced run replays in-process.
    pub replay_ops: usize,
}

/// Every workload; `BENCHMARK.json` lists the gated ones in this order.
pub const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "explain-hot",
        dataset: Dataset::Dblp,
        rows: 20_000,
        exclude: &["pubid"],
        group_by: &["author", "year", "venue"],
        clients: 2,
        stream: Stream::Hot,
        setup_reps: 9,
        // On 20k rows a 10-row append is mostly fixed per-append cost
        // (epoch install, thread start and join), which the host's noise
        // swamps; 100 rows make the append's own work visible.
        append_rows: 100,
        explains_per_append: 0,
        tail_appends: 40,
        replay_ops: 256,
    },
    Workload {
        name: "explain-cold",
        dataset: Dataset::Dblp,
        rows: 100_000,
        exclude: &["pubid"],
        group_by: &["author", "year", "venue"],
        clients: 1,
        stream: Stream::Cold,
        setup_reps: 5,
        append_rows: 10,
        explains_per_append: 4,
        tail_appends: 0,
        replay_ops: 64,
    },
    Workload {
        name: "append-mixed",
        dataset: Dataset::Crime,
        rows: 50_000,
        exclude: &[],
        group_by: &["primary_type", "community", "year"],
        clients: 1,
        stream: Stream::Mixed,
        // A ~10 s set-up, so only two cold starts keep the run short;
        // their median (the mean of the two) is steadier than one.
        setup_reps: 2,
        append_rows: 10,
        explains_per_append: 10,
        tail_appends: 0,
        replay_ops: 220,
    },
];

/// Look a workload up by name.
pub fn by_name(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// SplitMix64: a small deterministic generator for the question draws.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// Seeded generator.
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = (self.next_u64() % (i as u64 + 1)) as usize;
            items.swap(i, j);
        }
    }
}

/// One question of the stream.
#[derive(Debug, Clone)]
pub struct Question {
    /// Group-by values of the questioned tuple.
    pub tuple: Vec<Value>,
    /// Direction asked about.
    pub dir: Direction,
    /// The JSON body sent to `POST /v1/{store}/explain`.
    pub body: String,
}

/// Everything a run derives from its seed.
pub struct Inputs {
    /// Rows written to the CSV.
    pub base: Relation,
    /// The appends in order, each `append_rows` rows of the generator's
    /// continuation past the base.
    pub appends: Vec<Vec<Vec<Value>>>,
    /// `--schema` spec for the CLI.
    pub schema_spec: String,
    /// The question query.
    pub sql: String,
    /// Group-by attribute ids of the query.
    pub group_attrs: Vec<AttrId>,
    /// The questions, in stream order (cycled for hot and mixed).
    pub questions: Vec<Question>,
}

/// Value as wire JSON.
pub fn value_json(v: &Value) -> Json {
    match v {
        Value::Null => Json::Null,
        Value::Int(n) => Json::Num(*n as f64),
        Value::Float(f) => Json::Num(*f),
        Value::Str(s) => Json::Str(s.to_string()),
    }
}

fn schema_spec(rel: &Relation) -> String {
    rel.schema()
        .iter()
        .map(|a| {
            let ty = match a.value_type() {
                ValueType::Int => "int",
                ValueType::Float => "float",
                ValueType::Str => "str",
            };
            format!("{}:{ty}", a.name())
        })
        .collect::<Vec<_>>()
        .join(",")
}

/// The explain body for one question.
pub fn explain_body(sql: &str, tuple: &[Value], dir: Direction) -> String {
    let dir = match dir {
        Direction::High => "high",
        Direction::Low => "low",
    };
    Json::Obj(vec![
        ("sql".into(), Json::Str(sql.to_string())),
        ("tuple".into(), Json::Arr(tuple.iter().map(value_json).collect())),
        ("dir".into(), Json::Str(dir.into())),
        ("k".into(), Json::Num(K as f64)),
    ])
    .to_string()
}

/// The append body for a batch of rows.
pub fn append_body(rows: &[Vec<Value>]) -> String {
    Json::Obj(vec![(
        "rows".into(),
        Json::Arr(rows.iter().map(|r| Json::Arr(r.iter().map(value_json).collect())).collect()),
    )])
    .to_string()
}

/// Maximum questions a cold stream prepares; far more than a run of the
/// longest allowed phase can ask.
const COLD_STREAM_CAP: usize = 8_192;

/// Generate the inputs of `w` from `seed`.
pub fn generate(w: &Workload, seed: u64) -> Inputs {
    let data_seed = seed ^ 0xCA9E_5EED;
    let target_rows = w.rows + APPEND_POOL_ROWS;
    let (all, table) = match w.dataset {
        Dataset::Dblp => {
            let cfg = cape_datagen::dblp::DblpConfig {
                target_rows,
                seed: data_seed,
                ..cape_datagen::dblp::DblpConfig::default()
            };
            (cape_datagen::dblp::generate(&cfg), "pub")
        }
        Dataset::Crime => {
            let cfg = cape_datagen::crime::CrimeConfig {
                target_rows,
                seed: data_seed,
                ..cape_datagen::crime::CrimeConfig::default()
            };
            (cape_datagen::crime::generate(&cfg), "crime")
        }
    };
    // The base is a prefix; appends continue the generator's output.
    let split = w.rows.min(all.num_rows());
    let base = all.take(&(0..split).collect::<Vec<_>>());
    let mut continuation: Vec<Vec<Value>> = (split..all.num_rows()).map(|i| all.row(i)).collect();
    if w.stream != Stream::Mixed {
        // On the explain workloads an append measures what an append costs
        // on this table, so each append takes rows drawn across the whole
        // continuation; in generator order a 10-row append holds one
        // author's rows and its cost depends on which author the seed put
        // there.
        Rng::new(seed ^ 0x0A99_E9D5).shuffle(&mut continuation);
    }
    let appends = continuation.chunks_exact(w.append_rows).map(<[_]>::to_vec).collect();
    let group_attrs: Vec<AttrId> = w
        .group_by
        .iter()
        .map(|n| base.schema().attr_id(n).expect("workload columns exist"))
        .collect();
    let sql = format!(
        "SELECT {cols}, count(*) FROM {table} GROUP BY {cols}",
        cols = w.group_by.join(", ")
    );

    // Result tuples ranked by count (largest first, ties in result order).
    let result = aggregate(&base, &group_attrs, &[AggSpec::count_star()])
        .expect("count(*) group-by")
        .relation;
    let agg_col = group_attrs.len();
    let mut ranked: Vec<usize> = (0..result.num_rows()).collect();
    ranked.sort_by(|&a, &b| {
        let count = |i| result.value(i, agg_col).as_f64().unwrap_or(0.0);
        count(b).total_cmp(&count(a)).then(a.cmp(&b))
    });
    let mut rng = Rng::new(seed);
    // Paper §5.2: questions from the largest-count quartile, in a seeded
    // order without replacement.
    let mut quartile = ranked[..(ranked.len() / 4).max(1)].to_vec();
    rng.shuffle(&mut quartile);
    let picked: Vec<usize> = match w.stream {
        Stream::Hot | Stream::Mixed => quartile.into_iter().take(CYCLED_QUESTIONS).collect(),
        Stream::Cold => quartile.into_iter().take(COLD_STREAM_CAP).collect(),
    };
    let key_cols: Vec<usize> = (0..group_attrs.len()).collect();
    let questions = picked
        .iter()
        .enumerate()
        .map(|(i, &row)| {
            let tuple = result.row_project(row, &key_cols);
            let dir = if i % 2 == 0 { Direction::High } else { Direction::Low };
            let body = explain_body(&sql, &tuple, dir);
            Question { tuple, dir, body }
        })
        .collect();
    Inputs { schema_spec: schema_spec(&base), base, appends, sql, group_attrs, questions }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs() {
        let w = Workload { rows: 2_000, ..WORKLOADS[0] };
        let (a, b) = (generate(&w, 7), generate(&w, 7));
        assert_eq!(a.base.num_rows(), b.base.num_rows());
        assert_eq!(a.base.row(1_234), b.base.row(1_234));
        let bodies = |i: &Inputs| i.questions.iter().map(|q| q.body.clone()).collect::<Vec<_>>();
        assert_eq!(bodies(&a), bodies(&b));
        assert_eq!(a.questions.len(), CYCLED_QUESTIONS);
        assert_ne!(bodies(&a), bodies(&generate(&w, 8)));
    }

    #[test]
    fn cold_questions_are_distinct_and_mixed_has_a_continuation() {
        let cold = Workload { rows: 2_000, ..WORKLOADS[1] };
        let inputs = generate(&cold, 1);
        let mut tuples: Vec<String> =
            inputs.questions.iter().map(|q| format!("{:?}", q.tuple)).collect();
        let n = tuples.len();
        tuples.sort();
        tuples.dedup();
        assert_eq!(tuples.len(), n, "a cold stream never repeats a tuple");

        let mixed = Workload { rows: 3_000, ..WORKLOADS[2] };
        let inputs = generate(&mixed, 1);
        assert_eq!(inputs.base.num_rows(), 3_000);
        assert!(inputs.appends.len() * mixed.append_rows >= APPEND_POOL_ROWS / 2);
        assert_eq!(inputs.appends[0].len(), mixed.append_rows);
        assert_eq!(inputs.appends[0][0].len(), inputs.base.schema().arity());
    }
}
