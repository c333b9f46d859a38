//! The experiment suite: one module per figure/table family.

pub mod ablation;
pub mod explain_perf;
pub mod fd_opt;
pub mod incr_bench;
pub mod mine_bench;
pub mod mining_scaling;
pub mod quality;
pub mod scale_bench;
pub mod sensitivity;
pub mod serve;
pub mod serve_net;
pub mod store_bench;
pub mod subtasks;
pub mod tables;
pub mod user_study;

/// Seconds of the fastest of `reps` timed runs of `f`, with the last
/// run's result. The minimum is the least-noisy estimate of a timing:
/// anything above it is scheduler interference. Each run's result is
/// freed, untimed, before the next run starts, so no two results are
/// resident at once.
pub(crate) fn best_of<T>(reps: usize, mut f: impl FnMut() -> T) -> (f64, T) {
    let mut best = f64::INFINITY;
    let mut last = None;
    for _ in 0..reps {
        drop(last.take());
        let t0 = std::time::Instant::now();
        let value = f();
        best = best.min(t0.elapsed().as_secs_f64());
        last = Some(value);
    }
    (best, last.expect("reps > 0"))
}
