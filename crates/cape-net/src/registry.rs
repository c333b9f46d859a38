//! The hot-swappable multi-store registry.
//!
//! A [`StoreRegistry`] maps store names to [`StoreSlot`]s. Each slot owns
//! an immutable relation plus a *current epoch*: the pattern store, its
//! worker pool, and a monotonically increasing generation number, all
//! bundled behind one `Arc`. A request clones that `Arc` exactly once at
//! routing time, so everything it touches — patterns, cache, workers, the
//! generation it stamps into the response — belongs to one epoch by
//! construction. [`StoreSlot::swap_snapshot`] installs a new epoch
//! atomically: new requests see it immediately, in-flight requests finish
//! on the old epoch's `Arc`, and the old worker pool is joined when the
//! last in-flight reference drops. There is no drain, no barrier, and no
//! window where a request can observe half of two snapshots.

use cape_core::incr::{AppendReport, IncrStore};
use cape_core::snapshot::{load_snapshot, SnapshotError};
use cape_core::IncrError;
use cape_data::{Relation, Value};
use cape_serve::{ExplainService, PatternStoreHandle, ServeConfig};
use std::collections::HashMap;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock};

/// Why [`StoreSlot::append_rows`] refused or failed.
#[derive(Debug)]
pub enum AppendError {
    /// The slot was registered without incremental backing (no snapshot
    /// path / WAL to make the delta durable against).
    NotIncremental,
    /// The incremental layer rejected the rows or failed to commit them.
    Incr(IncrError),
}

impl std::fmt::Display for AppendError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AppendError::NotIncremental => {
                f.write_str("store was not registered with incremental backing")
            }
            AppendError::Incr(e) => e.fmt(f),
        }
    }
}

impl std::error::Error for AppendError {}

/// One snapshot version of a store: handle + worker pool + generation.
///
/// Everything a request needs to answer is reachable from here, so
/// holding the `Arc<StoreEpoch>` is all the consistency a request needs.
pub struct StoreEpoch {
    /// Monotonic per-slot version, starting at 1 for the initial load.
    pub generation: u64,
    /// Relation + store for this version.
    pub handle: PatternStoreHandle,
    /// Worker pool bound to this version (cache is epoch-local, so a new
    /// snapshot always starts cache-cold — no stale entries can leak
    /// across versions).
    pub service: ExplainService,
}

impl std::fmt::Debug for StoreEpoch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StoreEpoch")
            .field("generation", &self.generation)
            .field("patterns", &self.handle.store().len())
            .finish()
    }
}

/// A named store: a fixed *base* relation, a swappable epoch, and
/// optionally an incremental backing (an [`IncrStore`] whose WAL makes
/// live appends durable). The base relation is what snapshots are
/// validated against; each epoch's handle carries its own relation,
/// which grows past the base as appends land.
pub struct StoreSlot {
    name: String,
    relation: Arc<Relation>,
    serve_cfg: ServeConfig,
    epoch: RwLock<Arc<StoreEpoch>>,
    swaps: AtomicU64,
    /// Incremental backing, if registered with one. The mutex serializes
    /// appends (and swaps) against each other; explain traffic never
    /// takes it.
    incr: Mutex<Option<IncrStore>>,
}

/// The handle an incremental slot serves: `incr`'s live relation (base
/// plus appended rows) and its current pattern store.
fn incr_handle(incr: &IncrStore) -> PatternStoreHandle {
    PatternStoreHandle::from_arcs(Arc::new(incr.relation().clone()), incr.store())
}

impl StoreSlot {
    /// A slot whose first epoch (generation 1) serves `handle`. `base` is
    /// the relation snapshots are validated against; `incr`, when given,
    /// makes the slot accept appends.
    fn new(
        name: String,
        base: Arc<Relation>,
        handle: PatternStoreHandle,
        incr: Option<IncrStore>,
        serve_cfg: ServeConfig,
    ) -> Self {
        let service = ExplainService::start(handle.clone(), serve_cfg.clone());
        let epoch = Arc::new(StoreEpoch { generation: 1, handle, service });
        StoreSlot {
            name,
            relation: base,
            serve_cfg,
            epoch: RwLock::new(epoch),
            swaps: AtomicU64::new(0),
            incr: Mutex::new(incr),
        }
    }

    /// Install `handle` as the next epoch; returns its generation and the
    /// epoch it replaced. The worker pool starts *before* the epoch write
    /// lock is taken, so the lock protects only the pointer swap. The
    /// generation is allocated *inside* the critical section so
    /// assignment and installation are atomic: two concurrent installs
    /// can never land out of generation order (an earlier loader
    /// overwriting a later one would make observed generations go
    /// backwards). The caller drops the returned epoch once it has
    /// released its own locks: if that is the last reference, the old
    /// pool joins its workers there.
    fn install(&self, handle: PatternStoreHandle) -> (u64, Arc<StoreEpoch>) {
        let service = ExplainService::start(handle.clone(), self.serve_cfg.clone());
        let mut slot = self.epoch.write().expect("epoch lock");
        let generation = slot.generation + 1;
        let next = Arc::new(StoreEpoch { generation, handle, service });
        (generation, std::mem::replace(&mut *slot, next))
    }

    /// The store's registry name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The fixed *base* relation snapshots are validated against. An
    /// epoch's served relation (`epoch().handle.relation()`) may be
    /// longer once appends have landed.
    pub fn relation(&self) -> &Relation {
        &self.relation
    }

    /// The current epoch. Cloning the returned `Arc` is the *only*
    /// synchronization a request performs; the lock is held just long
    /// enough to clone.
    pub fn epoch(&self) -> Arc<StoreEpoch> {
        Arc::clone(&self.epoch.read().expect("epoch lock"))
    }

    /// Completed swaps since the slot was created.
    pub fn swap_count(&self) -> u64 {
        self.swaps.load(Ordering::SeqCst)
    }

    /// Current generation number.
    pub fn generation(&self) -> u64 {
        self.epoch.read().expect("epoch lock").generation
    }

    /// Atomically replace the current epoch with one loaded from a
    /// `.cape` snapshot. The expensive work (file read, validation,
    /// store rebuild, worker spawn) happens *before* the epoch write lock
    /// is taken (see `install`). On any error the current epoch is
    /// untouched.
    pub fn swap_snapshot(&self, path: impl AsRef<Path>) -> Result<u64, SnapshotError> {
        // Serialize with appends: an append committing to the *old* WAL
        // while the swap re-targets the slot would install epochs whose
        // durable history diverges from what they serve.
        let mut incr_guard = self.incr.lock().expect("incr lock");
        let (handle, next_incr) = if incr_guard.is_some() {
            // Incremental slot: re-open against the new snapshot so a
            // WAL beside it is replayed and future appends commit there.
            let incr = IncrStore::open(path.as_ref(), &self.relation).map_err(|e| match e {
                IncrError::Snapshot(s) => s,
                other => SnapshotError::Io(other.to_string()),
            })?;
            (incr_handle(&incr), Some(incr))
        } else {
            let contents = load_snapshot(path, &self.relation)?;
            let handle =
                PatternStoreHandle::from_arcs(Arc::clone(&self.relation), Arc::new(contents.store));
            (handle, None)
        };
        let (generation, previous) = self.install(handle);
        *incr_guard = next_incr;
        drop(incr_guard);
        self.swaps.fetch_add(1, Ordering::SeqCst);
        cape_obs::counter_add("net.store.swaps", 1);
        drop(previous);
        Ok(generation)
    }

    /// Append rows to an incrementally-backed slot and install the
    /// refreshed store as a new epoch. The delta is WAL-committed
    /// *before* any served state changes, so a crash between commit and
    /// install replays cleanly; on any error the current epoch — and the
    /// incremental state — are untouched. Appends are serialized by the
    /// slot's incremental mutex; explain traffic is never blocked (it
    /// only clones the epoch `Arc`).
    pub fn append_rows(&self, rows: Vec<Vec<Value>>) -> Result<(u64, AppendReport), AppendError> {
        let mut guard = self.incr.lock().expect("incr lock");
        let incr = guard.as_mut().ok_or(AppendError::NotIncremental)?;
        let report = incr.append(rows).map_err(AppendError::Incr)?;
        if report.appended_rows == 0 {
            // Zero-delta: no WAL record was written, serve the epoch
            // already installed.
            return Ok((self.generation(), report));
        }
        let (generation, previous) = self.install(incr_handle(incr));
        drop(guard);
        cape_obs::counter_add("net.store.appends", 1);
        drop(previous);
        Ok((generation, report))
    }
}

impl std::fmt::Debug for StoreSlot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StoreSlot")
            .field("name", &self.name)
            .field("generation", &self.generation())
            .field("swaps", &self.swap_count())
            .finish()
    }
}

/// Named stores, each independently hot-swappable.
#[derive(Default)]
pub struct StoreRegistry {
    slots: RwLock<HashMap<String, Arc<StoreSlot>>>,
}

impl StoreRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        StoreRegistry::default()
    }

    /// Register a store under `name`, replacing any previous slot with
    /// that name. Returns the new slot.
    pub fn register(
        &self,
        name: &str,
        handle: PatternStoreHandle,
        serve_cfg: ServeConfig,
    ) -> Arc<StoreSlot> {
        let base = handle.relation_arc();
        let slot = Arc::new(StoreSlot::new(name.to_string(), base, handle, None, serve_cfg));
        self.slots.write().expect("registry lock").insert(name.to_string(), Arc::clone(&slot));
        slot
    }

    /// Register a store with incremental backing: live appends via
    /// `POST /admin/stores/{name}/append` commit to `incr`'s WAL and
    /// install refreshed epochs. `base` is the relation *before* WAL
    /// replay (what future snapshot swaps re-open against).
    pub fn register_incremental(
        &self,
        name: &str,
        base: Relation,
        incr: IncrStore,
        serve_cfg: ServeConfig,
    ) -> Arc<StoreSlot> {
        let handle = incr_handle(&incr);
        let slot = Arc::new(StoreSlot::new(
            name.to_string(),
            Arc::new(base),
            handle,
            Some(incr),
            serve_cfg,
        ));
        self.slots.write().expect("registry lock").insert(name.to_string(), Arc::clone(&slot));
        slot
    }

    /// Look up a store by name.
    pub fn get(&self, name: &str) -> Option<Arc<StoreSlot>> {
        self.slots.read().expect("registry lock").get(name).cloned()
    }

    /// All slots, sorted by name (for `GET /v1/stores`).
    pub fn list(&self) -> Vec<Arc<StoreSlot>> {
        let mut slots: Vec<_> =
            self.slots.read().expect("registry lock").values().cloned().collect();
        slots.sort_by(|a, b| a.name().cmp(b.name()));
        slots
    }
}

impl std::fmt::Debug for StoreRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let names: Vec<String> = self.list().iter().map(|s| s.name().to_string()).collect();
        f.debug_struct("StoreRegistry").field("stores", &names).finish()
    }
}
