//! Metric names, the printed report, and the result line.
//!
//! The names here are the ones `BENCHMARK.json` lists; a unit test keeps
//! the two in agreement.

use cape_obs::Json;

/// Direction in which a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    /// The word `BENCHMARK.json` uses.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// A metric's fixed definition.
#[derive(Debug, Clone, Copy)]
pub struct Def {
    /// Name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Which way is better.
    pub better: Better,
}

const fn def(name: &'static str, unit: &'static str, better: Better) -> Def {
    Def { name, unit, better }
}

use Better::{Higher, Lower};

/// End-to-end metrics, measured with tracing off.
pub const END_TO_END: [Def; 7] = [
    def("setup_s", "s", Lower),
    def("explain_p50_ms", "ms", Lower),
    def("explain_p75_ms", "ms", Lower),
    def("explain_rps", "1/s", Higher),
    def("append_p50_ms", "ms", Lower),
    def("append_p75_ms", "ms", Lower),
    def("rss_mb", "MiB", Lower),
];

/// Per-layer metrics of the traced run: p50 per call unless the unit is
/// a count, a byte size or a ratio.
pub const PER_LAYER: [Def; 42] = [
    // Set-up: `cape mine --save`, then `cape serve --store`.
    def("cape-data.read_csv_s", "s", Lower),
    def("cape-core.mining.mine_s", "s", Lower),
    def("cape-core.mining.patterns", "count", Lower),
    def("cape-core.mining.local_patterns", "count", Lower),
    def("cape-core.snapshot.save_s", "s", Lower),
    def("cape-core.snapshot.bytes", "bytes", Lower),
    def("cape-core.incr.open_s", "s", Lower),
    def("cape-serve.handle_build_ms", "ms", Lower),
    def("cape-serve.service_start_ms", "ms", Lower),
    def("setup.traced_wall_s", "s", Lower),
    def("setup.unattributed_s", "s", Lower),
    // Explain.
    def("cape-obs.json_parse_ms", "ms", Lower),
    def("cape-net.parse_body_ms", "ms", Lower),
    def("cape-core.question.resolve_ms", "ms", Lower),
    def("cape-serve.queue_wait_ms", "ms", Lower),
    def("cape-serve.exec_ms", "ms", Lower),
    def("cape-serve.handoff_ms", "ms", Lower),
    def("cape-serve.cache_hit_ratio", "ratio", Higher),
    def("cape-core.explain.tuples_checked", "count", Lower),
    def("cape-core.explain.refinements_considered", "count", Lower),
    def("cape-core.explain.patterns_relevant", "count", Lower),
    def("cape-net.render_ms", "ms", Lower),
    def("cape-net.response_bytes", "bytes", Lower),
    def("cape-net.wire_overhead_ms", "ms", Lower),
    def("explain.traced_wall_ms", "ms", Lower),
    def("explain.unattributed_ms", "ms", Lower),
    // Append.
    def("cape-net.append_parse_ms", "ms", Lower),
    def("cape-core.incr.append_ms", "ms", Lower),
    def("cape-core.incr.fragments_revalidated", "count", Lower),
    def("cape-core.incr.wal_bytes", "bytes", Lower),
    def("cape-net.epoch_install_ms", "ms", Lower),
    def("append.traced_wall_ms", "ms", Lower),
    def("append.unattributed_ms", "ms", Lower),
    // Server process, tracing and host.
    def("server.cpu_ms_per_op", "ms", Lower),
    def("trace.explain_overhead_ms", "ms", Lower),
    def("trace.spans", "count", Lower),
    def("host.cpus", "count", Higher),
    def("host.loadavg_1m", "count", Lower),
    def("host.steal_s", "s", Lower),
    def("host.probe_before_ms", "ms", Lower),
    def("host.probe_after_ms", "ms", Lower),
    def("error_rate", "ratio", Lower),
];

/// One measured value.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Its definition.
    pub def: Def,
    /// The value.
    pub value: f64,
    /// Measurements behind it.
    pub samples: usize,
}

/// Look up a definition by name.
pub fn lookup(defs: &[Def], name: &str) -> Def {
    *defs.iter().find(|d| d.name == name).unwrap_or_else(|| panic!("unknown metric `{name}`"))
}

/// The human-readable table: name, value, unit, samples, direction.
pub fn table(title: &str, metrics: &[Metric]) -> String {
    let mut out = format!(
        "{title}\n  {:<42} {:>16} {:<6} {:>8}  better\n",
        "metric", "value", "unit", "samples"
    );
    for m in metrics {
        out.push_str(&format!(
            "  {:<42} {:>16.6} {:<6} {:>8}  {}\n",
            m.def.name,
            m.value,
            m.def.unit,
            m.samples,
            m.def.better.as_str()
        ));
    }
    out
}

/// The result line: one JSON object with exactly `correct`, `attempted`,
/// `failed` and `metrics`.
pub fn result_line(correct: bool, attempted: usize, failed: usize, metrics: &[Metric]) -> String {
    let metrics = metrics
        .iter()
        .map(|m| {
            let value = Json::Obj(vec![
                ("value".into(), Json::Num(m.value)),
                ("unit".into(), Json::Str(m.def.unit.into())),
            ]);
            (m.def.name.to_string(), value)
        })
        .collect();
    Json::Obj(vec![
        ("correct".into(), Json::Bool(correct)),
        ("attempted".into(), Json::Num(attempted as f64)),
        ("failed".into(), Json::Num(failed as f64)),
        ("metrics".into(), Json::Obj(metrics)),
    ])
    .to_string()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::WORKLOADS;

    /// Whether `name` is a valid metric or workload name: it starts with a
    /// letter or digit and has at most 64 letters, digits, `_`, `.` and `-`.
    fn valid_name(name: &str) -> bool {
        let starts_ok = name.chars().next().is_some_and(|c| c.is_ascii_alphanumeric());
        starts_ok
            && name.len() <= 64
            && name.chars().all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    /// Whether `unit` is a valid unit: at most 16 letters, digits, `_`, `/`,
    /// `%`, `.` and `-`.
    fn valid_unit(unit: &str) -> bool {
        !unit.is_empty()
            && unit.len() <= 16
            && unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
    }

    #[test]
    fn metric_names_and_units_use_the_allowed_characters() {
        for d in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(valid_name(d.name), "bad name {}", d.name);
            assert!(valid_unit(d.unit), "bad unit {} of {}", d.unit, d.name);
        }
        let mut names: Vec<&str> = END_TO_END.iter().chain(&PER_LAYER).map(|d| d.name).collect();
        let n = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), n, "a metric name is used twice");
        for w in &WORKLOADS {
            assert!(valid_name(w.name), "bad workload name {}", w.name);
        }
        assert!(!valid_name("-starts-with-dash"));
        assert!(!valid_name("has space"));
        assert!(!valid_name(&"x".repeat(65)));
        assert!(!valid_name(""));
        assert!(valid_unit("1/s") && valid_unit("%") && !valid_unit("m s"));
    }

    #[test]
    fn result_line_has_exactly_four_keys() {
        let m = Metric { def: END_TO_END[0], value: 0.8127, samples: 3 };
        let line = result_line(true, 10, 0, &[m]);
        let json = Json::parse(&line).unwrap();
        let keys: Vec<&str> = json.as_obj().unwrap().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let setup = json.get("metrics").unwrap().get("setup_s").unwrap();
        assert_eq!(setup.get("value").unwrap().as_f64(), Some(0.8127));
        assert_eq!(setup.get("unit").unwrap().as_str(), Some("s"));
    }

    fn manifest() -> Json {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
        Json::parse(&text).expect("BENCHMARK.json is JSON")
    }

    fn listed(json: &Json, key: &str) -> Vec<(String, String, String)> {
        json.get(key)
            .and_then(Json::as_arr)
            .unwrap_or_else(|| panic!("BENCHMARK.json lacks `{key}`"))
            .iter()
            .map(|m| {
                let field = |k| m.get(k).and_then(Json::as_str).unwrap_or_default().to_string();
                (field("name"), field("unit"), field("better"))
            })
            .collect()
    }

    fn printed(defs: &[Def]) -> Vec<(String, String, String)> {
        defs.iter()
            .map(|d| (d.name.to_string(), d.unit.to_string(), d.better.as_str().to_string()))
            .collect()
    }

    #[test]
    fn benchmark_json_lists_the_printed_metrics_and_workloads() {
        let json = manifest();
        assert_eq!(listed(&json, "end_to_end"), printed(&END_TO_END));
        assert_eq!(listed(&json, "per_layer"), printed(&PER_LAYER));
        // The gated workloads, in the order the benchmark defines them.
        // `explain-hot` runs but is left out of the gated set (see the
        // README).
        let gated: Vec<String> = listed(&json, "workloads").into_iter().map(|w| w.0).collect();
        let ours: Vec<&str> =
            WORKLOADS.iter().map(|w| w.name).filter(|n| *n != "explain-hot").collect();
        assert_eq!(gated, ours);
        for m in json.get("end_to_end").and_then(Json::as_arr).unwrap() {
            let bound = m.get("bound").and_then(Json::as_f64).unwrap();
            assert!(bound > 0.0 && bound <= 0.25, "bound {bound} out of range");
        }
        let setup_bound = |name| {
            json.get("end_to_end")
                .and_then(Json::as_arr)
                .unwrap()
                .iter()
                .find(|m| m.get("name").and_then(Json::as_str) == Some(name))
                .and_then(|m| m.get("bound").and_then(Json::as_f64))
                .unwrap()
        };
        let largest = END_TO_END.iter().map(|d| setup_bound(d.name)).fold(0.0, f64::max);
        assert_eq!(setup_bound("setup_s"), largest, "setup_s carries the largest bound");
    }
}
