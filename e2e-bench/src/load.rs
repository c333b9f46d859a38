//! The closed-loop load generator: one process, one thread per client,
//! one keep-alive connection per thread.

use crate::client::{self, Conn};
use crate::workload::{append_body, Inputs, Stream, Workload, CYCLED_QUESTIONS};
use std::net::SocketAddr;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// Operation type.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpKind {
    /// `POST /v1/{store}/explain`.
    Explain,
    /// `POST /admin/stores/{store}/append`.
    Append,
}

/// What came back for one operation.
#[derive(Debug, Clone)]
pub enum Outcome {
    /// A 2xx response with its body.
    Ok(Vec<u8>),
    /// A non-2xx response.
    Status(u16),
    /// Connect, write or read failed.
    Transport(String),
}

/// One timed operation.
#[derive(Debug, Clone)]
pub struct Op {
    /// Operation type.
    pub kind: OpKind,
    /// Client (connection) that sent it.
    pub client: usize,
    /// Question index into `Inputs::questions`, or the 0-based append
    /// number.
    pub index: usize,
    /// Appends acknowledged on this connection before the op was sent.
    pub appends_before: usize,
    /// First byte sent to last byte read, ms (transport errors: until
    /// the error).
    pub latency_ms: f64,
    /// The response.
    pub outcome: Outcome,
}

/// The measured phase's record.
#[derive(Debug, Default)]
pub struct Phase {
    /// Every operation started in the phase, per client in send order.
    pub ops: Vec<Op>,
    /// Wall seconds from phase start until the last client stopped.
    pub elapsed_s: f64,
}

/// The explain route of the benchmark's store.
pub fn explain_path(store: &str) -> String {
    format!("/v1/{store}/explain")
}

/// The append route of the benchmark's store.
pub fn append_path(store: &str) -> String {
    format!("/admin/stores/{store}/append")
}

/// A client's connection, re-opened after a transport error.
struct Session {
    addr: SocketAddr,
    conn: Option<Conn>,
}

impl Session {
    fn send(&mut self, request: &[u8]) -> (f64, Outcome) {
        let t0 = Instant::now();
        let result = match &mut self.conn {
            Some(conn) => conn.send(request),
            None => Conn::connect(self.addr).and_then(|mut c| {
                let reply = c.send(request);
                self.conn = Some(c);
                reply
            }),
        };
        match result {
            Ok(reply) => {
                let ms = reply.latency.as_secs_f64() * 1e3;
                if (200..300).contains(&reply.status) {
                    (ms, Outcome::Ok(reply.body))
                } else {
                    (ms, Outcome::Status(reply.status))
                }
            }
            Err(e) => {
                self.conn = None;
                (t0.elapsed().as_secs_f64() * 1e3, Outcome::Transport(e.to_string()))
            }
        }
    }
}

/// Send each question once, untimed, so the drill cache is warm.
pub fn warm_up(addr: SocketAddr, store: &str, inputs: &Inputs) -> Result<(), String> {
    let mut conn = Conn::connect(addr).map_err(|e| format!("warm-up connect: {e}"))?;
    for q in &inputs.questions {
        let reply = conn
            .send(&client::post(&explain_path(store), &q.body))
            .map_err(|e| format!("warm-up: {e}"))?;
        if reply.status != 200 {
            return Err(format!("warm-up answered {}", reply.status));
        }
    }
    Ok(())
}

/// Drive `w`'s stream against the server at `addr` for `seconds`.
pub fn run(addr: SocketAddr, store: &str, w: &Workload, inputs: &Inputs, seconds: f64) -> Phase {
    let explain_reqs: Vec<Vec<u8>> =
        inputs.questions.iter().map(|q| client::post(&explain_path(store), &q.body)).collect();
    let append_reqs = append_requests(store, inputs);
    let next_cold = AtomicUsize::new(0);
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(seconds);
    let per_client: Vec<Vec<Op>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..w.clients)
            .map(|c| {
                let explain_reqs = &explain_reqs;
                let append_reqs = &append_reqs;
                let next_cold = &next_cold;
                s.spawn(move || {
                    let mut session = Session { addr, conn: None };
                    let mut ops = Vec::new();
                    let mut appends = 0usize;
                    let mut explains = 0usize;
                    let mut sent = 0usize;
                    while Instant::now() < deadline {
                        let (kind, index, request) = if is_append(w, c, sent) {
                            let Some(req) = append_reqs.get(appends) else { break };
                            (OpKind::Append, appends, req)
                        } else {
                            let cycled = explain_reqs.len();
                            let i = match w.stream {
                                // Clients start half a list apart.
                                Stream::Hot => {
                                    (c * CYCLED_QUESTIONS / w.clients + explains) % cycled
                                }
                                Stream::Mixed => explains % cycled,
                                Stream::Cold => next_cold.fetch_add(1, Ordering::SeqCst),
                            };
                            let Some(req) = explain_reqs.get(i) else { break };
                            explains += 1;
                            (OpKind::Explain, i, req)
                        };
                        let (latency_ms, outcome) = session.send(request);
                        let ok = matches!(outcome, Outcome::Ok(_));
                        ops.push(Op {
                            kind,
                            client: c,
                            index,
                            appends_before: appends,
                            latency_ms,
                            outcome,
                        });
                        if kind == OpKind::Append && ok {
                            appends += 1;
                        }
                        sent += 1;
                    }
                    ops
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("client thread")).collect()
    });
    let elapsed_s = start.elapsed().as_secs_f64();
    Phase { ops: per_client.into_iter().flatten().collect(), elapsed_s }
}

/// Whether client `c`'s operation number `sent` (from 0) is an append:
/// the first client appends after every `explains_per_append` explains.
fn is_append(w: &Workload, c: usize, sent: usize) -> bool {
    let per = w.explains_per_append;
    c == 0 && per > 0 && sent % (per + 1) == per
}

fn append_requests(store: &str, inputs: &Inputs) -> Vec<Vec<u8>> {
    inputs
        .appends
        .iter()
        .map(|rows| client::post(&append_path(store), &append_body(rows)))
        .collect()
}

/// Send `count` appends one after another on one connection, timed.
pub fn append_tail(addr: SocketAddr, store: &str, inputs: &Inputs, count: usize) -> Vec<Op> {
    let mut session = Session { addr, conn: None };
    let mut appends = 0usize;
    append_requests(store, inputs)
        .iter()
        .take(count)
        .enumerate()
        .map(|(index, request)| {
            let (latency_ms, outcome) = session.send(request);
            let op = Op {
                kind: OpKind::Append,
                client: 0,
                index,
                appends_before: appends,
                latency_ms,
                outcome,
            };
            if matches!(op.outcome, Outcome::Ok(_)) {
                appends += 1;
            }
            op
        })
        .collect()
}

/// The questions asked again after the last append to check the final
/// epoch: the cycled list, or the first as many of a cold stream.
pub fn final_questions(inputs: &Inputs) -> &[crate::workload::Question] {
    &inputs.questions[..inputs.questions.len().min(CYCLED_QUESTIONS)]
}

/// After the phase: ask the final questions once more (untimed) so the
/// final epoch's answers can be checked.
pub fn final_answers(addr: SocketAddr, store: &str, inputs: &Inputs) -> Vec<Outcome> {
    let mut session = Session { addr, conn: None };
    final_questions(inputs)
        .iter()
        .map(|q| session.send(&client::post(&explain_path(store), &q.body)).1)
        .collect()
}

/// `GET path`, untimed; the body of a 200 or an error.
pub fn get(addr: SocketAddr, path: &str) -> Result<Vec<u8>, String> {
    let mut session = Session { addr, conn: None };
    match session.send(&client::get(path)).1 {
        Outcome::Ok(body) => Ok(body),
        Outcome::Status(s) => Err(format!("GET {path} answered {s}")),
        Outcome::Transport(e) => Err(format!("GET {path}: {e}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::WORKLOADS;

    #[test]
    fn appends_follow_a_count_of_explains_on_the_first_client() {
        let pattern = |w: &Workload, c: usize| -> String {
            (0..10).map(|sent| if is_append(w, c, sent) { 'A' } else { 'E' }).collect()
        };
        let [hot, cold, mixed] = &WORKLOADS;
        assert_eq!(pattern(cold, 0), "EEEEAEEEEA");
        assert_eq!(pattern(mixed, 0), "EEEEEEEEEE");
        assert!(is_append(mixed, 0, 10));
        assert_eq!(pattern(hot, 0), "EEEEEEEEEE", "explain-hot appends only in its tail");
        let two_clients = Workload { clients: 2, ..*cold };
        assert_eq!(pattern(&two_clients, 1), "EEEEEEEEEE", "only the first client appends");
    }
}
