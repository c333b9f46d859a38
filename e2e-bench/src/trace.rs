//! In-memory spans recorded by the benchmark around public calls.
//!
//! A span has a name, start, end, parent and request id; spans of one
//! request share the id. Spans stay in memory until the run ends. A
//! span's *self time* is its duration minus the part of it that its
//! children cover.

use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// One finished span. Times are nanoseconds since the tracer started.
#[derive(Debug, Clone)]
pub struct SpanRec {
    /// Unique id.
    pub id: u64,
    /// Enclosing span, if any.
    pub parent: Option<u64>,
    /// Request (or set-up) the span belongs to.
    pub request: u64,
    /// Layer name.
    pub name: &'static str,
    /// Start, ns.
    pub start: u64,
    /// End, ns.
    pub end: u64,
}

impl SpanRec {
    /// Duration in ns.
    pub fn dur(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }
}

/// The span store of one traced run.
pub struct Tracer {
    enabled: bool,
    t0: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<SpanRec>>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            enabled: true,
            t0: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }
}

/// An open span; it is recorded when dropped or closed.
pub struct Span<'t> {
    tracer: &'t Tracer,
    id: u64,
    parent: Option<u64>,
    request: u64,
    name: &'static str,
    start: Instant,
}

/// A span after it ended.
#[derive(Debug, Clone, Copy)]
pub struct Closed {
    id: u64,
    request: u64,
    start: Instant,
    end: Instant,
}

impl Tracer {
    /// A tracer that reads no clock and records nothing: the untraced
    /// side of the tracing-overhead measurement.
    pub fn disabled() -> Self {
        Tracer { enabled: false, ..Tracer::default() }
    }

    fn ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.t0).as_nanos() as u64
    }

    /// Open a span.
    pub fn span(&self, name: &'static str, parent: Option<&Span<'_>>, request: u64) -> Span<'_> {
        let (id, start) = match self.enabled {
            true => (self.next_id.fetch_add(1, Ordering::Relaxed), Instant::now()),
            false => (0, self.t0),
        };
        Span { tracer: self, id, parent: parent.map(|p| p.id), request, name, start }
    }

    /// Record a span measured by other means (for instance the queue
    /// wait a response reports), clipped to its parent's interval so far.
    pub fn record(&self, name: &'static str, parent: &Span<'_>, start: Instant, dur: Duration) {
        if !self.enabled {
            return;
        }
        let lo = self.ns(start.max(parent.start));
        let hi = self.ns(Instant::now()).min(lo + dur.as_nanos() as u64);
        self.push(name, parent.id, parent.request, lo, hi.max(lo));
    }

    /// Record a child of an ended span covering the last `dur` of it: a
    /// call timed separately on the same inputs because it runs inside a
    /// public function the benchmark cannot wrap.
    pub fn record_in(&self, name: &'static str, parent: &Closed, dur: Duration) {
        if !self.enabled {
            return;
        }
        let hi = self.ns(parent.end);
        let lo = hi.saturating_sub(dur.as_nanos() as u64).max(self.ns(parent.start));
        self.push(name, parent.id, parent.request, lo, hi);
    }

    fn push(&self, name: &'static str, parent: u64, request: u64, start: u64, end: u64) {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let rec = SpanRec { id, parent: Some(parent), request, name, start, end };
        self.spans.lock().expect("span store").push(rec);
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> Vec<SpanRec> {
        self.spans.lock().expect("span store").clone()
    }
}

impl Span<'_> {
    /// Close the span now and keep its interval.
    pub fn close(self) -> Closed {
        let end = if self.tracer.enabled { Instant::now() } else { self.start };
        Closed { id: self.id, request: self.request, start: self.start, end }
        // `self` drops here and records the span.
    }
}

impl Drop for Span<'_> {
    fn drop(&mut self) {
        if !self.tracer.enabled {
            return;
        }
        let end = Instant::now();
        let rec = SpanRec {
            id: self.id,
            parent: self.parent,
            request: self.request,
            name: self.name,
            start: self.tracer.ns(self.start),
            end: self.tracer.ns(end),
        };
        // Never panic in drop: a poisoned store just loses the span.
        if let Ok(mut spans) = self.tracer.spans.lock() {
            spans.push(rec);
        }
    }
}

/// Self time of every span: its duration minus the union of its
/// children's intervals, each clipped to the parent.
pub fn self_times(spans: &[SpanRec]) -> HashMap<u64, u64> {
    let by_id: HashMap<u64, &SpanRec> = spans.iter().map(|s| (s.id, s)).collect();
    let mut children: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
    for s in spans {
        if let Some(parent) = s.parent.and_then(|p| by_id.get(&p)) {
            let lo = s.start.max(parent.start);
            let hi = s.end.min(parent.end);
            if hi > lo {
                children.entry(parent.id).or_default().push((lo, hi));
            }
        }
    }
    spans
        .iter()
        .map(|s| {
            let mut covered = 0u64;
            if let Some(iv) = children.get_mut(&s.id) {
                iv.sort_unstable();
                let (mut cur_lo, mut cur_hi) = iv[0];
                for &(lo, hi) in &iv[1..] {
                    if lo > cur_hi {
                        covered += cur_hi - cur_lo;
                        (cur_lo, cur_hi) = (lo, hi);
                    } else {
                        cur_hi = cur_hi.max(hi);
                    }
                }
                covered += cur_hi - cur_lo;
            }
            (s.id, s.dur().saturating_sub(covered))
        })
        .collect()
}

/// Write spans as JSON lines: id, parent, request, name, start and end
/// in ns since the tracer started.
pub fn write_jsonl(spans: &[SpanRec], path: &std::path::Path) -> std::io::Result<()> {
    use std::io::Write;
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        writeln!(
            out,
            r#"{{"id":{},"parent":{parent},"request":{},"name":"{}","start_ns":{},"end_ns":{}}}"#,
            s.id, s.request, s.name, s.start, s.end
        )?;
    }
    out.flush()
}

/// Per-layer breakdown of the root spans named `root`: the mean wall
/// time per root, each descendant layer's mean self time per root, and
/// the root's own mean self time as the `unattributed` remainder. The
/// parts add up to the wall time exactly.
#[derive(Debug, Clone, Default)]
pub struct Breakdown {
    /// Roots summarised.
    pub roots: usize,
    /// Mean root wall time, ns.
    pub wall_ns: f64,
    /// (layer, mean self ns per root), largest first.
    pub layers: Vec<(&'static str, f64)>,
    /// Mean root self time, ns: time inside the root no layer covers.
    pub unattributed_ns: f64,
}

/// Summarise the requests whose root span is named `root`: every other
/// span of such a request counts towards its layer.
pub fn breakdown(spans: &[SpanRec], root: &str) -> Breakdown {
    let selfs = self_times(spans);
    let roots: Vec<&SpanRec> = spans.iter().filter(|s| s.name == root).collect();
    let requests: HashSet<u64> = roots.iter().map(|s| s.request).collect();
    let mut layers: HashMap<&'static str, u64> = HashMap::new();
    for s in spans.iter().filter(|s| s.name != root && requests.contains(&s.request)) {
        *layers.entry(s.name).or_default() += selfs[&s.id];
    }
    let n = roots.len().max(1) as f64;
    let mut layers: Vec<(&'static str, f64)> =
        layers.into_iter().map(|(k, v)| (k, v as f64 / n)).collect();
    layers.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(b.0)));
    Breakdown {
        roots: roots.len(),
        wall_ns: roots.iter().map(|s| s.dur() as f64).sum::<f64>() / n,
        layers,
        unattributed_ns: roots.iter().map(|s| selfs[&s.id] as f64).sum::<f64>() / n,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(
        id: u64,
        parent: Option<u64>,
        request: u64,
        name: &'static str,
        span: (u64, u64),
    ) -> SpanRec {
        SpanRec { id, parent, request, name, start: span.0, end: span.1 }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            rec(1, None, 1, "root", (0, 100)),
            rec(2, Some(1), 1, "a", (10, 30)),
            rec(3, Some(1), 1, "b", (20, 50)), // overlaps a: union 10..50
            rec(4, Some(3), 1, "c", (25, 35)),
            rec(5, Some(1), 1, "d", (90, 120)), // clipped to 90..100
        ];
        let selfs = self_times(&spans);
        assert_eq!(selfs[&1], 100 - 40 - 10);
        assert_eq!(selfs[&2], 20);
        assert_eq!(selfs[&3], 30 - 10);
        assert_eq!(selfs[&4], 10);
    }

    #[test]
    fn breakdown_adds_up_to_the_wall_time() {
        let spans = vec![
            rec(1, None, 1, "explain", (0, 100)),
            rec(2, Some(1), 1, "parse", (0, 40)),
            rec(3, Some(2), 1, "resolve", (10, 30)),
            rec(4, Some(1), 1, "exec", (50, 90)),
            rec(5, None, 2, "explain", (200, 260)),
            rec(6, Some(5), 2, "exec", (200, 250)),
            rec(7, None, 3, "other", (0, 1_000)),
            rec(8, Some(7), 3, "exec", (0, 900)),
        ];
        let b = breakdown(&spans, "explain");
        assert_eq!(b.roots, 2);
        assert_eq!(b.wall_ns, 80.0);
        let sum: f64 = b.layers.iter().map(|l| l.1).sum::<f64>() + b.unattributed_ns;
        assert!((sum - b.wall_ns).abs() < 1e-9, "{b:?}");
        assert_eq!(b.layers[0], ("exec", 45.0));
        assert_eq!(b.unattributed_ns, 15.0);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::disabled();
        let root = t.span("root", None, 1);
        t.record("x", &root, Instant::now(), Duration::from_nanos(5));
        let closed = root.close();
        t.record_in("y", &closed, Duration::from_nanos(5));
        assert!(t.spans().is_empty());
    }

    #[test]
    fn spans_record_with_parents_and_request_ids() {
        let t = Tracer::default();
        {
            let root = t.span("root", None, 7);
            let child = t.span("child", Some(&root), 7);
            t.record("synthetic", &child, Instant::now(), Duration::from_nanos(1));
            let closed = child.close();
            t.record_in("probe", &closed, Duration::from_secs(1));
        }
        let spans = t.spans();
        assert_eq!(spans.len(), 4);
        let find = |name| spans.iter().find(|s| s.name == name).unwrap();
        let (root, child, probe) = (find("root"), find("child"), find("probe"));
        assert_eq!(child.parent, Some(root.id));
        assert_eq!(probe.parent, Some(child.id));
        assert!(spans.iter().all(|s| s.request == 7));
        assert!(root.start <= child.start && child.end <= root.end);
        // A probe longer than its parent is clipped to the parent.
        assert!(probe.start >= child.start && probe.end <= child.end + 1);
    }
}
