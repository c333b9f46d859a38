//! The shared, immutable state every worker answers questions against.

use cape_core::store::PatternStore;
use cape_data::Relation;
use std::sync::Arc;

/// A cheaply clonable handle to the relation and its mined pattern
/// store.
///
/// `PatternStore` and `Relation` contain no interior mutability, so a
/// handle can be cloned into any number of worker threads; all of them
/// read the same instances without locking.
#[derive(Debug, Clone)]
pub struct PatternStoreHandle {
    relation: Arc<Relation>,
    store: Arc<PatternStore>,
}

impl PatternStoreHandle {
    /// Wrap a relation and its mined store.
    pub fn new(relation: Relation, store: PatternStore) -> Self {
        PatternStoreHandle::from_arcs(Arc::new(relation), Arc::new(store))
    }

    /// Same, from already-shared values.
    pub fn from_arcs(relation: Arc<Relation>, store: Arc<PatternStore>) -> Self {
        PatternStoreHandle { relation, store }
    }

    /// The underlying relation.
    pub fn relation(&self) -> &Relation {
        &self.relation
    }

    /// The relation's shared ownership handle. Network front-ends clone
    /// this so a hot-swapped store can keep serving in-flight requests
    /// against the same relation without copying it.
    pub fn relation_arc(&self) -> Arc<Relation> {
        Arc::clone(&self.relation)
    }

    /// The mined pattern store.
    pub fn store(&self) -> &PatternStore {
        &self.store
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cape_data::{Schema, ValueType};

    #[test]
    fn handle_clones_share_state() {
        let schema = Schema::new([("a", ValueType::Str)]).unwrap();
        let handle = PatternStoreHandle::new(Relation::new(schema), PatternStore::new());
        let clone = handle.clone();
        assert!(std::ptr::eq(handle.store(), clone.store()));
        assert!(std::ptr::eq(handle.relation(), clone.relation()));
    }
}
