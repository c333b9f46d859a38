//! The flight recorder: a fixed-size ring of completed request summaries
//! plus automatic full-span capture of the slowest requests.
//!
//! Serving layers push one [`RequestSummary`] per completed request; the
//! recorder keeps the most recent `ring_capacity` of them and, for
//! requests whose total latency meets the configured threshold, retains
//! the request's full span tree (slowest-N, so a burst of slow requests
//! cannot evict the evidence of the worst one). The result answers "what
//! were the worst requests and why" *after the fact*, without having had
//! tracing switched on in advance.
//!
//! The hot path takes one short mutex per completed request — pushes are
//! O(1) with no allocation once the ring is warm, and span trees are only
//! cloned for requests that qualify as slowest-N.

use crate::json::Json;
use crate::snapshot::SpanNode;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;

/// The closed-loop record of one completed request.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct RequestSummary {
    /// The request's trace id (raw u64; 0 = untraced).
    pub trace_id: u64,
    /// Human-readable request label (the rendered question).
    pub label: String,
    /// Outcome: `"ok"`, `"partial"` (deadline expired), …
    pub outcome: String,
    /// Time spent queued before a worker picked the request up.
    pub queue_ns: u64,
    /// Time spent executing on the worker.
    pub exec_ns: u64,
    /// Submission-to-completion latency (`queue + exec` plus reply costs).
    pub total_ns: u64,
    /// Drill-cache hits attributed to this request.
    pub cache_hits: u64,
    /// Drill-cache misses attributed to this request.
    pub cache_misses: u64,
    /// Completion time, nanoseconds since the recorder started (orders
    /// summaries across worker threads).
    pub end_off_ns: u64,
}

/// A slow request retained with its full span tree.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SlowRequest {
    /// The request's summary.
    pub summary: RequestSummary,
    /// The request's span tree (queue-wait and execution phases appear as
    /// separate children under the request root).
    pub spans: Vec<SpanNode>,
}

struct FlightInner {
    ring: VecDeque<RequestSummary>,
    /// Slowest-first; truncated to `slow_capacity`.
    slow: Vec<SlowRequest>,
    recorded: u64,
}

/// Thread-safe flight recorder. One lives in every
/// [`Recorder`](crate::Recorder); serving layers feed it through
/// [`crate::flight_record`].
#[derive(Debug)]
pub struct FlightRecorder {
    inner: Mutex<FlightInner>,
    enabled: AtomicBool,
    threshold_ns: u64,
    ring_capacity: usize,
    slow_capacity: usize,
}

impl std::fmt::Debug for FlightInner {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FlightInner")
            .field("ring_len", &self.ring.len())
            .field("slow_len", &self.slow.len())
            .field("recorded", &self.recorded)
            .finish()
    }
}

/// Default ring size: recent-history window for post-hoc inspection.
pub const DEFAULT_RING_CAPACITY: usize = 128;
/// Default slowest-N retention.
pub const DEFAULT_SLOW_CAPACITY: usize = 8;

impl Default for FlightRecorder {
    fn default() -> Self {
        FlightRecorder::new(DEFAULT_RING_CAPACITY, DEFAULT_SLOW_CAPACITY, 0)
    }
}

impl FlightRecorder {
    /// A recorder keeping `ring_capacity` recent summaries and the
    /// `slow_capacity` slowest span captures at or above `threshold_ns`
    /// total latency (0 = capture spans for the slowest-N regardless of
    /// absolute latency).
    pub fn new(ring_capacity: usize, slow_capacity: usize, threshold_ns: u64) -> Self {
        FlightRecorder {
            inner: Mutex::new(FlightInner {
                ring: VecDeque::with_capacity(ring_capacity),
                slow: Vec::new(),
                recorded: 0,
            }),
            enabled: AtomicBool::new(true),
            threshold_ns,
            ring_capacity,
            slow_capacity,
        }
    }

    /// Whether recording is accepted (callers may also skip building
    /// summaries entirely when false).
    pub fn enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed) && self.ring_capacity > 0
    }

    /// Turn recording on or off.
    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::Relaxed);
    }

    /// The slow-capture latency threshold.
    pub fn threshold_ns(&self) -> u64 {
        self.threshold_ns
    }

    /// Record one completed request. `spans` is the request's span tree;
    /// it is only kept when the request qualifies for slowest-N capture
    /// (the summary always enters the ring).
    pub fn record(&self, summary: RequestSummary, spans: &[SpanNode]) {
        if !self.enabled() {
            return;
        }
        let qualifies = summary.total_ns >= self.threshold_ns();
        let mut inner = self.inner.lock().expect("flight lock");
        inner.recorded += 1;
        if inner.ring.len() == self.ring_capacity {
            inner.ring.pop_front();
        }
        inner.ring.push_back(summary.clone());
        if qualifies && self.slow_capacity > 0 {
            let full = inner.slow.len() >= self.slow_capacity;
            let beats_min =
                inner.slow.last().is_none_or(|worst| summary.total_ns > worst.summary.total_ns);
            if !full || beats_min {
                let pos = inner
                    .slow
                    .iter()
                    .position(|s| s.summary.total_ns < summary.total_ns)
                    .unwrap_or(inner.slow.len());
                inner.slow.insert(pos, SlowRequest { summary, spans: spans.to_vec() });
                inner.slow.truncate(self.slow_capacity);
            }
        }
    }

    /// Export the current state.
    pub fn snapshot(&self) -> FlightSnapshot {
        let inner = self.inner.lock().expect("flight lock");
        FlightSnapshot {
            recorded: inner.recorded,
            threshold_ns: self.threshold_ns(),
            recent: inner.ring.iter().cloned().collect(),
            slowest: inner.slow.clone(),
        }
    }
}

/// A point-in-time export of a [`FlightRecorder`]: part of
/// [`TelemetrySnapshot`](crate::TelemetrySnapshot) as the `requests`
/// section.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FlightSnapshot {
    /// Requests recorded since the recorder started (including those the
    /// ring has since evicted).
    pub recorded: u64,
    /// Slow-capture threshold in effect.
    pub threshold_ns: u64,
    /// Most recent summaries, oldest first.
    pub recent: Vec<RequestSummary>,
    /// Slowest retained requests with span trees, slowest first.
    pub slowest: Vec<SlowRequest>,
}

fn summary_to_json(s: &RequestSummary) -> Json {
    Json::Obj(vec![
        ("trace_id".into(), Json::Str(format!("{:016x}", s.trace_id))),
        ("label".into(), Json::Str(s.label.clone())),
        ("outcome".into(), Json::Str(s.outcome.clone())),
        ("queue_ns".into(), Json::Num(s.queue_ns as f64)),
        ("exec_ns".into(), Json::Num(s.exec_ns as f64)),
        ("total_ns".into(), Json::Num(s.total_ns as f64)),
        ("cache_hits".into(), Json::Num(s.cache_hits as f64)),
        ("cache_misses".into(), Json::Num(s.cache_misses as f64)),
        ("end_off_ns".into(), Json::Num(s.end_off_ns as f64)),
    ])
}

fn summary_from_json(v: &Json) -> Result<RequestSummary, String> {
    let num =
        |name: &str| v.get(name).and_then(Json::as_u64).ok_or_else(|| format!("missing {name}"));
    let trace_hex = v.get("trace_id").and_then(Json::as_str).ok_or("missing trace_id")?;
    Ok(RequestSummary {
        trace_id: u64::from_str_radix(trace_hex, 16)
            .map_err(|_| format!("bad trace_id `{trace_hex}`"))?,
        label: v.get("label").and_then(Json::as_str).unwrap_or_default().to_string(),
        outcome: v.get("outcome").and_then(Json::as_str).unwrap_or_default().to_string(),
        queue_ns: num("queue_ns")?,
        exec_ns: num("exec_ns")?,
        total_ns: num("total_ns")?,
        cache_hits: num("cache_hits")?,
        cache_misses: num("cache_misses")?,
        end_off_ns: num("end_off_ns")?,
    })
}

impl FlightSnapshot {
    /// Serialize to the `requests` JSON section.
    pub fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("recorded".into(), Json::Num(self.recorded as f64)),
            ("threshold_ns".into(), Json::Num(self.threshold_ns as f64)),
            ("recent".into(), Json::Arr(self.recent.iter().map(summary_to_json).collect())),
            (
                "slowest".into(),
                Json::Arr(
                    self.slowest
                        .iter()
                        .map(|s| {
                            Json::Obj(vec![
                                ("summary".into(), summary_to_json(&s.summary)),
                                (
                                    "spans".into(),
                                    Json::Arr(
                                        s.spans.iter().map(crate::snapshot::span_to_json).collect(),
                                    ),
                                ),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }

    /// Parse a section produced by [`FlightSnapshot::to_json`].
    pub fn from_json(v: &Json) -> Result<FlightSnapshot, String> {
        let mut out = FlightSnapshot {
            recorded: v.get("recorded").and_then(Json::as_u64).ok_or("missing recorded")?,
            threshold_ns: v.get("threshold_ns").and_then(Json::as_u64).unwrap_or(0),
            ..FlightSnapshot::default()
        };
        if let Some(items) = v.get("recent").and_then(Json::as_arr) {
            out.recent = items.iter().map(summary_from_json).collect::<Result<_, _>>()?;
        }
        if let Some(items) = v.get("slowest").and_then(Json::as_arr) {
            for item in items {
                let summary =
                    summary_from_json(item.get("summary").ok_or("slow request missing summary")?)?;
                let spans = match item.get("spans").and_then(Json::as_arr) {
                    Some(nodes) => nodes
                        .iter()
                        .map(crate::snapshot::span_from_json)
                        .collect::<Result<_, _>>()?,
                    None => Vec::new(),
                };
                out.slowest.push(SlowRequest { summary, spans });
            }
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn summary(total_ns: u64) -> RequestSummary {
        RequestSummary {
            trace_id: total_ns,
            label: format!("q{total_ns}"),
            outcome: "ok".into(),
            queue_ns: 1,
            exec_ns: total_ns.saturating_sub(1),
            total_ns,
            ..RequestSummary::default()
        }
    }

    #[test]
    fn ring_keeps_most_recent() {
        let fr = FlightRecorder::new(3, 0, 0);
        for t in 1..=5u64 {
            fr.record(summary(t), &[]);
        }
        let snap = fr.snapshot();
        assert_eq!(snap.recorded, 5);
        let totals: Vec<u64> = snap.recent.iter().map(|s| s.total_ns).collect();
        assert_eq!(totals, vec![3, 4, 5]);
    }

    #[test]
    fn slowest_n_survive_later_fast_requests() {
        let fr = FlightRecorder::new(2, 2, 0);
        let tree = vec![SpanNode { name: "serve.request".into(), ..SpanNode::default() }];
        fr.record(summary(500), &tree);
        fr.record(summary(100), &tree);
        fr.record(summary(900), &tree);
        for t in 1..=10u64 {
            fr.record(summary(t), &tree);
        }
        let snap = fr.snapshot();
        let slow: Vec<u64> = snap.slowest.iter().map(|s| s.summary.total_ns).collect();
        assert_eq!(slow, vec![900, 500], "slowest-first, unaffected by later fast requests");
        assert_eq!(snap.slowest[0].spans.len(), 1);
        // The ring, by contrast, only remembers the most recent two.
        assert_eq!(snap.recent.iter().map(|s| s.total_ns).collect::<Vec<_>>(), vec![9, 10]);
    }

    #[test]
    fn threshold_gates_span_capture_not_the_ring() {
        let fr = FlightRecorder::new(8, 4, 200);
        fr.record(summary(100), &[]);
        fr.record(summary(300), &[]);
        let snap = fr.snapshot();
        assert_eq!(snap.recent.len(), 2);
        assert_eq!(snap.slowest.len(), 1);
        assert_eq!(snap.slowest[0].summary.total_ns, 300);
    }

    #[test]
    fn disabled_recorder_drops_everything() {
        let fr = FlightRecorder::default();
        fr.set_enabled(false);
        fr.record(summary(1), &[]);
        assert_eq!(fr.snapshot().recorded, 0);
    }

    #[test]
    fn snapshot_json_round_trips() {
        let fr = FlightRecorder::new(4, 2, 0);
        let tree = vec![SpanNode {
            name: "serve.request".into(),
            count: 1,
            total_ns: 42,
            children: vec![SpanNode { name: "serve.queue_wait".into(), ..SpanNode::default() }],
            ..SpanNode::default()
        }];
        fr.record(summary(42), &tree);
        let snap = fr.snapshot();
        let parsed = FlightSnapshot::from_json(&Json::parse(&snap.to_json().to_string()).unwrap())
            .expect("round trip");
        assert_eq!(parsed, snap);
    }
}
