//! ARP mining: the NAIVE, CUBE, SHARE-GRP and ARP-MINE algorithm variants
//! of Section 4, sharing candidate enumeration and fragment fitting.

pub mod arp_mine;
pub mod candidates;
pub mod cube;
pub mod fit;
pub mod naive;
pub mod parallel;
mod rank_sort;
pub mod share_grp;
mod stats;

pub use arp_mine::ArpMiner;
pub use candidates::{splits_of, Split};
pub use cube::CubeMiner;
pub use naive::NaiveMiner;
pub use parallel::ParallelMiner;
pub use share_grp::ShareGrpMiner;
pub use stats::MiningStats;

use crate::config::MiningConfig;
use crate::error::Result;
use crate::store::PatternStore;
use cape_data::{FdSet, Relation};
use cape_obs::TelemetrySnapshot;

/// The output of a mining run: the globally holding patterns, the FDs
/// that were known or discovered, and timing/count statistics.
#[derive(Debug, Clone)]
pub struct MiningOutput {
    /// Globally holding patterns with their local models.
    pub store: PatternStore,
    /// Functional dependencies (initial + discovered).
    pub fds: FdSet,
    /// Instrumentation for the subtask-breakdown experiment (Figure 4),
    /// derived from [`MiningOutput::telemetry`].
    pub stats: MiningStats,
    /// Full telemetry of the run: span tree, counters, histograms.
    pub telemetry: TelemetrySnapshot,
}

/// Run one miner body under a fresh [`cape_obs::Recorder`] with a root
/// `mining.mine` span, and package the result with the run's telemetry.
///
/// The recorder is *installed* (pushed on the thread's recorder stack), so
/// an outer session recorder — e.g. the CLI's `--metrics` recorder — still
/// observes everything the run records.
pub(crate) fn record_mining_run(
    body: impl FnOnce() -> Result<(PatternStore, FdSet)>,
) -> Result<MiningOutput> {
    let recorder = cape_obs::Recorder::new();
    let install = recorder.install();
    let t_total = std::time::Instant::now();
    let result = {
        let _root = cape_obs::span("mining.mine");
        body()
    };
    let (store, fds) = result?;
    cape_obs::observe_ns("mining.run_ns", t_total.elapsed().as_nanos() as u64);
    drop(install);
    let telemetry = recorder.snapshot();
    let stats = MiningStats::from_telemetry(&telemetry);
    Ok(MiningOutput { store, fds, stats, telemetry })
}

/// A pattern-mining algorithm. All four paper variants implement this.
pub trait Miner {
    /// Short name used in benchmark output (`NAIVE`, `CUBE`, …).
    fn name(&self) -> &'static str;

    /// Mine all ARPs that hold globally on `rel` under `cfg`.
    fn mine(&self, rel: &Relation, cfg: &MiningConfig) -> Result<MiningOutput>;
}

/// Build a [`crate::store::PatternInstance`] from a fitting outcome.
pub(crate) fn make_instance(
    arp: crate::pattern::Arp,
    data: std::sync::Arc<crate::group_data::GroupData>,
    agg_col: usize,
    outcome: fit::FitOutcome,
) -> crate::store::PatternInstance {
    let mut inst = crate::store::PatternInstance {
        arp,
        data,
        agg_col,
        locals: outcome.locals,
        confidence: outcome.confidence,
        num_supported: outcome.num_supported,
        max_pos_dev: 0.0,
        max_neg_dev: 0.0,
    };
    crate::store::fold_dev_bounds(&mut inst);
    inst
}

/// Validate a mining configuration before running (ψ ≥ 2, sane thresholds).
pub fn validate_config(cfg: &MiningConfig) -> Result<()> {
    use crate::error::CapeError;
    if cfg.psi < 2 {
        return Err(CapeError::InvalidConfig(format!(
            "psi must be ≥ 2 (one partition + one predictor attribute), got {}",
            cfg.psi
        )));
    }
    let t = &cfg.thresholds;
    if !(0.0..=1.0).contains(&t.theta) || !(0.0..=1.0).contains(&t.lambda) {
        return Err(CapeError::InvalidConfig("theta and lambda must lie in [0, 1]".to_string()));
    }
    if cfg.models.is_empty() {
        return Err(CapeError::InvalidConfig("no regression model types selected".into()));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_validation() {
        let mut cfg = MiningConfig::default();
        assert!(validate_config(&cfg).is_ok());
        cfg.psi = 1;
        assert!(validate_config(&cfg).is_err());
        cfg.psi = 4;
        cfg.thresholds.theta = 1.5;
        assert!(validate_config(&cfg).is_err());
        cfg.thresholds.theta = 0.5;
        cfg.models.clear();
        assert!(validate_config(&cfg).is_err());
    }
}
