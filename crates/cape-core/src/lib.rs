#![warn(missing_docs)]

//! # cape-core — CAPE: pattern-based counterbalance explanations
//!
//! A Rust implementation of the CAPE system from *"Going Beyond
//! Provenance: Explaining Query Answers with Pattern-based
//! Counterbalances"* (SIGMOD 2019):
//!
//! * [`pattern::Arp`] — aggregate regression patterns `[F]: V ~M~> agg(A)`;
//! * [`mining`] — the NAIVE / CUBE / SHARE-GRP / ARP-MINE discovery
//!   algorithms with FD optimizations;
//! * [`explain`] — counterbalance explanation generation with scoring and
//!   top-k pruning, plus the non-pattern baseline.
//!
//! ## Quick start
//!
//! ```
//! use cape_core::prelude::*;
//! use cape_data::{Relation, Schema, Value, ValueType};
//!
//! // Authors publishing a constant number of papers per year …
//! let schema = Schema::new([("author", ValueType::Str), ("year", ValueType::Int)]).unwrap();
//! let mut rel = Relation::new(schema);
//! for a in 0..5 {
//!     for y in 2000..2010 {
//!         for _ in 0..3 {
//!             rel.push_row(vec![Value::str(format!("a{a}")), Value::Int(y)]).unwrap();
//!         }
//!     }
//! }
//! // … are found by mining:
//! let cfg = MiningConfig {
//!     thresholds: Thresholds::new(0.3, 3, 0.5, 2),
//!     psi: 2,
//!     ..MiningConfig::default()
//! };
//! let out = ArpMiner.mine(&rel, &cfg).unwrap();
//! assert!(out.store.len() > 0);
//! ```

pub mod config;
pub mod error;
pub mod explain;
pub mod group_data;
pub mod incr;
pub mod mining;
pub mod pattern;
pub mod question;
pub mod report;
pub mod session;
pub mod snapshot;
pub mod store;

pub use config::{AggSelection, MiningConfig, Thresholds};
pub use error::{CapeError, Result};
pub use incr::{AppendReport, IncrError, IncrStore, DEFAULT_WAL_COMPACT_BYTES};
pub use pattern::Arp;
pub use question::{Direction, UserQuestion};
pub use session::{CapeSession, ExplainAlgo};
pub use snapshot::{SnapshotContents, SnapshotError};
pub use store::{LocalPattern, PatternInstance, PatternStore};

/// Convenient glob-import surface for examples and applications.
pub mod prelude {
    pub use crate::config::{AggSelection, MiningConfig, Thresholds};
    pub use crate::error::{CapeError, Result};
    pub use crate::explain::{
        BaselineExplainer, ExplainConfig, Explanation, NaiveExplainer, OptimizedExplainer,
        TopKExplainer,
    };
    pub use crate::incr::{AppendReport, IncrError, IncrStore};
    pub use crate::mining::{
        ArpMiner, CubeMiner, Miner, MiningOutput, NaiveMiner, ParallelMiner, ShareGrpMiner,
    };
    pub use crate::pattern::Arp;
    pub use crate::question::{Direction, UserQuestion};
    pub use crate::session::{CapeSession, ExplainAlgo};
    pub use crate::snapshot::{load_snapshot, save_snapshot, SnapshotContents, SnapshotError};
    pub use crate::store::{PatternInstance, PatternStore};
}
