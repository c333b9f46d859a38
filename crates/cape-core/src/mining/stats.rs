//! Mining instrumentation for the subtask-breakdown experiment (Figure 4).

use cape_obs::TelemetrySnapshot;
use std::time::Duration;

/// Timing and counting statistics collected during one mining run.
///
/// `query_time` covers relational work (aggregation, sorting, selection,
/// cube); `regression_time` covers model fitting and GoF computation;
/// everything else (candidate enumeration, bookkeeping, FD reasoning) is
/// `other_time = total_time − query_time − regression_time`.
///
/// The numbers are derived from a [`TelemetrySnapshot`]: phase times from
/// the span tree (`data.*` spans → query, `regress.*` spans → regression)
/// and counts from the `mining.*` counters.
#[derive(Debug, Clone, Default)]
pub struct MiningStats {
    /// Wall-clock time of the whole mining run.
    pub total_time: Duration,
    /// Time in relational operators.
    pub query_time: Duration,
    /// Time in regression fitting.
    pub regression_time: Duration,
    /// Pattern candidates `(F, V, agg, A, M)` considered.
    pub candidates_considered: usize,
    /// Patterns found to hold globally.
    pub patterns_found: usize,
    /// Fragments on which a regression was fitted.
    pub fragments_fitted: usize,
    /// `(F, V)` splits skipped by the FD optimizations (Appendix D).
    pub skipped_by_fd: usize,
    /// Group-by queries executed.
    pub group_queries: usize,
    /// Sort queries executed.
    pub sort_queries: usize,
    /// Functional dependencies discovered from group cardinalities.
    pub fds_discovered: usize,
}

impl MiningStats {
    /// Derive Figure-4 statistics from a mining run's telemetry.
    pub fn from_telemetry(snapshot: &TelemetrySnapshot) -> Self {
        let phases = snapshot.phase_breakdown();
        let c = |name: &str| snapshot.counter(name) as usize;
        MiningStats {
            total_time: Duration::from_nanos(phases.total_ns),
            query_time: Duration::from_nanos(phases.query_ns),
            regression_time: Duration::from_nanos(phases.regression_ns),
            candidates_considered: c("mining.candidates_considered"),
            patterns_found: c("mining.patterns_found"),
            fragments_fitted: c("mining.fragments_fitted"),
            skipped_by_fd: c("mining.skipped_by_fd"),
            group_queries: c("mining.group_queries"),
            sort_queries: c("mining.sort_queries"),
            fds_discovered: c("mining.fds_discovered"),
        }
    }

    /// Time spent outside queries and regression.
    ///
    /// Saturates at zero: in a parallel run the per-thread phase times can
    /// sum past the wall-clock total.
    pub fn other_time(&self) -> Duration {
        self.total_time.saturating_sub(self.query_time).saturating_sub(self.regression_time)
    }

    /// Fractions `(query, regression, other)` of total time, for the
    /// normalized stacked bars of Figure 4. Returns zeros for an empty run.
    ///
    /// Invariant: for any non-empty run the three fractions sum to 1. The
    /// denominator is `max(total, query + regression)` so that when summed
    /// per-thread phase times exceed the wall-clock total (parallel mining)
    /// the bars still normalize instead of overflowing past 100%.
    pub fn fractions(&self) -> (f64, f64, f64) {
        let measured = self.query_time + self.regression_time;
        let denom = self.total_time.max(measured).as_secs_f64();
        if denom == 0.0 {
            return (0.0, 0.0, 0.0);
        }
        (
            self.query_time.as_secs_f64() / denom,
            self.regression_time.as_secs_f64() / denom,
            self.other_time().as_secs_f64() / denom,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn other_time_is_residual() {
        let s = MiningStats {
            total_time: Duration::from_millis(100),
            query_time: Duration::from_millis(60),
            regression_time: Duration::from_millis(25),
            ..Default::default()
        };
        assert_eq!(s.other_time(), Duration::from_millis(15));
        let (q, r, o) = s.fractions();
        assert!((q - 0.6).abs() < 1e-9);
        assert!((r - 0.25).abs() < 1e-9);
        assert!((o - 0.15).abs() < 1e-9);
    }

    #[test]
    fn residual_saturates() {
        // Query + regression can exceed total when threads overlap.
        let s = MiningStats {
            total_time: Duration::from_millis(10),
            query_time: Duration::from_millis(8),
            regression_time: Duration::from_millis(5),
            ..Default::default()
        };
        assert_eq!(s.other_time(), Duration::ZERO);
    }

    #[test]
    fn fractions_sum_to_one_even_when_phases_exceed_total() {
        let s = MiningStats {
            total_time: Duration::from_millis(10),
            query_time: Duration::from_millis(8),
            regression_time: Duration::from_millis(5),
            ..Default::default()
        };
        let (q, r, o) = s.fractions();
        assert!((q + r + o - 1.0).abs() < 1e-9, "fractions must sum to 1, got {}", q + r + o);
        assert!((q - 8.0 / 13.0).abs() < 1e-9);
        assert!((r - 5.0 / 13.0).abs() < 1e-9);
        assert_eq!(o, 0.0);
    }

    #[test]
    fn empty_run_fractions() {
        assert_eq!(MiningStats::default().fractions(), (0.0, 0.0, 0.0));
    }

    #[test]
    fn from_empty_telemetry_is_default() {
        let rec = cape_obs::Recorder::new();
        let s = MiningStats::from_telemetry(&rec.snapshot());
        assert_eq!(s.candidates_considered, 0);
        assert_eq!(s.total_time, Duration::ZERO);
    }
}
