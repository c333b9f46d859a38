//! A high-level session API tying the pipeline together: load data, mine
//! once, then ask any number of questions by attribute *name*.

use crate::config::MiningConfig;
use crate::error::{CapeError, Result};
use crate::explain::{BaselineExplainer, ExplainConfig, ExplainStats, Explanation, TopKExplainer};
use crate::mining::{ArpMiner, Miner, MiningStats};
use crate::prelude::{NaiveExplainer, OptimizedExplainer};
use crate::question::{Direction, UserQuestion};
use crate::store::PatternStore;
use cape_data::{AggFunc, Relation, Value};

/// Which explanation algorithm a session uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ExplainAlgo {
    /// EXPL-GEN-OPT (upper-bound pruning) — the default.
    #[default]
    Optimized,
    /// EXPL-GEN-NAIVE (exhaustive).
    Naive,
}

/// An explanation session: a relation, its mined patterns, and an
/// explanation configuration.
///
/// ```
/// use cape_core::session::CapeSession;
/// use cape_core::{Direction, MiningConfig, Thresholds};
/// use cape_data::{AggFunc, Relation, Schema, Value, ValueType};
///
/// let schema = Schema::new([("shop", ValueType::Str), ("day", ValueType::Int)]).unwrap();
/// let mut rel = Relation::new(schema);
/// for shop in ["A", "B", "C"] {
///     for day in 0..8i64 {
///         let n = if shop == "A" && day == 3 { 1 } else { 4 };
///         let n = if shop == "A" && day == 4 { 7 } else { n };
///         for _ in 0..n {
///             rel.push_row(vec![Value::str(shop), Value::Int(day)]).unwrap();
///         }
///     }
/// }
/// let cfg = MiningConfig {
///     thresholds: Thresholds::new(0.1, 3, 0.3, 2),
///     psi: 2,
///     ..MiningConfig::default()
/// };
/// let session = CapeSession::mine(rel, &cfg).unwrap();
/// let (expls, _) = session
///     .why_count(&[("shop", Value::str("A")), ("day", Value::Int(3))], Direction::Low)
///     .unwrap();
/// assert!(expls.iter().any(|e| e.tuple.contains(&Value::Int(4))));
/// ```
#[derive(Debug)]
pub struct CapeSession {
    relation: Relation,
    store: PatternStore,
    explain_cfg: ExplainConfig,
    algo: ExplainAlgo,
    mining_stats: Option<MiningStats>,
    mining_telemetry: Option<cape_obs::TelemetrySnapshot>,
}

impl CapeSession {
    /// Mine patterns for `relation` and build a session.
    pub fn mine(relation: Relation, cfg: &MiningConfig) -> Result<Self> {
        let out = ArpMiner.mine(&relation, cfg)?;
        let explain_cfg = ExplainConfig::default_for(&relation, 10);
        Ok(CapeSession {
            relation,
            store: out.store,
            explain_cfg,
            algo: ExplainAlgo::default(),
            mining_stats: Some(out.stats),
            mining_telemetry: Some(out.telemetry),
        })
    }

    /// Build a session around an existing (e.g. reloaded) pattern store.
    pub fn with_store(relation: Relation, store: PatternStore) -> Self {
        let explain_cfg = ExplainConfig::default_for(&relation, 10);
        CapeSession {
            relation,
            store,
            explain_cfg,
            algo: ExplainAlgo::default(),
            mining_stats: None,
            mining_telemetry: None,
        }
    }

    /// The underlying relation.
    pub fn relation(&self) -> &Relation {
        &self.relation
    }

    /// The mined pattern store.
    pub fn store(&self) -> &PatternStore {
        &self.store
    }

    /// Mining statistics, when the session mined its own patterns.
    pub fn mining_stats(&self) -> Option<&MiningStats> {
        self.mining_stats.as_ref()
    }

    /// Full mining telemetry (span tree, counters, histograms), when the
    /// session mined its own patterns.
    pub fn mining_telemetry(&self) -> Option<&cape_obs::TelemetrySnapshot> {
        self.mining_telemetry.as_ref()
    }

    /// Change how many explanations questions return (default 10).
    pub fn with_top_k(mut self, k: usize) -> Self {
        self.explain_cfg.k = k;
        self
    }

    /// Replace the distance model.
    pub fn with_distance(mut self, distance: crate::explain::DistanceModel) -> Self {
        self.explain_cfg.distance = distance;
        self
    }

    /// Select the explanation algorithm.
    pub fn with_algo(mut self, algo: ExplainAlgo) -> Self {
        self.algo = algo;
        self
    }

    /// Build a user question from attribute *names*: the group-by
    /// attributes are exactly the named ones, the aggregate value is read
    /// from the data.
    pub fn question(
        &self,
        agg: AggFunc,
        agg_attr: Option<&str>,
        keys: &[(&str, Value)],
        dir: Direction,
    ) -> Result<UserQuestion> {
        let schema = self.relation.schema();
        let group_attrs: Result<Vec<usize>> =
            keys.iter().map(|(name, _)| schema.attr_id(name).map_err(CapeError::Data)).collect();
        let agg_attr = match agg_attr {
            Some(name) => Some(schema.attr_id(name).map_err(CapeError::Data)?),
            None => None,
        };
        let tuple: Vec<Value> = keys.iter().map(|(_, v)| v.clone()).collect();
        UserQuestion::from_query(&self.relation, group_attrs?, agg, agg_attr, tuple, dir)
    }

    /// Explain an already-built question.
    pub fn explain(&self, uq: &UserQuestion) -> (Vec<Explanation>, ExplainStats) {
        match self.algo {
            ExplainAlgo::Optimized => {
                OptimizedExplainer.explain(&self.store, uq, &self.explain_cfg)
            }
            ExplainAlgo::Naive => NaiveExplainer.explain(&self.store, uq, &self.explain_cfg),
        }
    }

    /// One-call convenience for count queries: "why is the count for
    /// these group-by values high/low?".
    pub fn why_count(
        &self,
        keys: &[(&str, Value)],
        dir: Direction,
    ) -> Result<(Vec<Explanation>, ExplainStats)> {
        let uq = self.question(AggFunc::Count, None, keys, dir)?;
        Ok(self.explain(&uq))
    }

    /// The Appendix-A.2 baseline for the same question shape.
    pub fn baseline(&self, uq: &UserQuestion) -> Result<Vec<Explanation>> {
        let (expls, _) = BaselineExplainer
            .explain(&self.relation, uq, &self.explain_cfg)
            .map_err(CapeError::Data)?;
        Ok(expls)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Thresholds;
    use cape_data::{Schema, ValueType};

    fn shops() -> Relation {
        let schema = Schema::new([("shop", ValueType::Str), ("day", ValueType::Int)]).unwrap();
        let mut rel = Relation::new(schema);
        for shop in ["A", "B", "C"] {
            for day in 0..8i64 {
                let n = match (shop, day) {
                    ("A", 3) => 1,
                    ("A", 4) => 7,
                    _ => 4,
                };
                for _ in 0..n {
                    rel.push_row(vec![Value::str(shop), Value::Int(day)]).unwrap();
                }
            }
        }
        rel
    }

    fn session() -> CapeSession {
        let cfg = MiningConfig {
            thresholds: Thresholds::new(0.1, 3, 0.3, 2),
            psi: 2,
            ..MiningConfig::default()
        };
        CapeSession::mine(shops(), &cfg).unwrap()
    }

    #[test]
    fn end_to_end_by_name() {
        let s = session();
        assert!(!s.store().is_empty());
        assert!(s.mining_stats().is_some());
        let (expls, stats) = s
            .why_count(&[("shop", Value::str("A")), ("day", Value::Int(3))], Direction::Low)
            .unwrap();
        assert!(!expls.is_empty());
        assert!(stats.patterns_relevant > 0);
        assert!(expls.iter().any(|e| e.tuple.contains(&Value::Int(4))));
    }

    #[test]
    fn unknown_attribute_is_an_error() {
        let s = session();
        let err = s.why_count(&[("bogus", Value::Int(1))], Direction::Low);
        assert!(err.is_err());
    }

    #[test]
    fn naive_and_optimized_sessions_agree() {
        let cfg = MiningConfig {
            thresholds: Thresholds::new(0.1, 3, 0.3, 2),
            psi: 2,
            ..MiningConfig::default()
        };
        let opt = CapeSession::mine(shops(), &cfg).unwrap();
        let naive = CapeSession::mine(shops(), &cfg).unwrap().with_algo(ExplainAlgo::Naive);
        let keys = [("shop", Value::str("A")), ("day", Value::Int(3))];
        let (a, _) = opt.why_count(&keys, Direction::Low).unwrap();
        let (b, _) = naive.why_count(&keys, Direction::Low).unwrap();
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.key(), y.key());
        }
    }

    #[test]
    fn top_k_is_respected() {
        let s = session().with_top_k(2);
        let (expls, _) = s
            .why_count(&[("shop", Value::str("A")), ("day", Value::Int(3))], Direction::Low)
            .unwrap();
        assert!(expls.len() <= 2);
    }

    #[test]
    fn with_store_roundtrip() {
        let s = session();
        let rel = s.relation();
        let bytes =
            crate::snapshot::encode_snapshot(rel.schema(), &MiningConfig::default(), s.store());
        let store = crate::snapshot::read_snapshot(&bytes, rel).unwrap().store;
        let s2 = CapeSession::with_store(shops(), store);
        assert!(s2.mining_stats().is_none());
        let keys = [("shop", Value::str("A")), ("day", Value::Int(3))];
        let (a, _) = s.why_count(&keys, Direction::Low).unwrap();
        let (b, _) = s2.why_count(&keys, Direction::Low).unwrap();
        assert_eq!(a.len(), b.len());
    }

    #[test]
    fn baseline_available() {
        let s = session();
        let uq = s
            .question(
                AggFunc::Count,
                None,
                &[("shop", Value::str("A")), ("day", Value::Int(3))],
                Direction::Low,
            )
            .unwrap();
        let base = s.baseline(&uq).unwrap();
        assert!(!base.is_empty());
    }
}
