//! Concurrent explanation serving over a shared, immutable pattern store.
//!
//! The offline phase of CAPE mines aggregate regression patterns once;
//! after that the store never changes. That makes it the ideal substrate
//! for an interactive workload: many user questions `φ = (Q, R, t, dir)`
//! answered concurrently against the *same* `Arc`-shared [`PatternStore`]
//! and relation, with the question-independent half of each drill-down
//! cached in an LRU so repeated and nearby questions reuse work.
//!
//! The crate provides three layers:
//!
//! * [`PatternStoreHandle`] — cheaply clonable shared state: the relation
//!   and the store (which owns the refinement table).
//! * [`explain_cached`] — runs `cape_core`'s EXPL-GEN-OPT loop
//!   (`cape_core::explain::expl_gen_opt`) with the drill-down cache as its
//!   drill step and the request's deadline. Without a deadline it returns
//!   **byte-identical** results to the sequential explainers (the
//!   differential tests in `tests/differential.rs` assert this); with a
//!   deadline it degrades gracefully to a partial top-k whose entries
//!   are all correct.
//! * [`ExplainService`] — a worker thread pool consuming a queue of
//!   [`ExplainRequest`]s, instrumented via `cape-obs` (queue-depth gauge,
//!   request-latency histogram, cache hit/miss counters).
//!
//! [`PatternStore`]: cape_core::store::PatternStore

#![warn(missing_docs)]

pub mod cache;
pub mod explain;
pub mod request;
pub mod service;
pub mod shared;

pub use cache::LruCache;
pub use explain::{explain_cached, DrillCache, DrillKey};
pub use request::{ExplainRequest, ExplainResponse};
pub use service::{ExplainService, ServeConfig};
pub use shared::PatternStoreHandle;
