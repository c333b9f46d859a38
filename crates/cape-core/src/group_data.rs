//! Materialized group-by results shared across patterns.
//!
//! The mining optimization "one query per F ∪ V" (paper §4.1) computes a
//! single aggregation per group-by attribute set `G` and reuses it for
//! every `(F, V)` split and every aggregate call. [`GroupData`] is that
//! materialization: the aggregated relation plus the column bookkeeping
//! needed to find a given aggregate output or base attribute again.

use cape_data::ops::{aggregate_with_row_count, column_ranks};
use cape_data::{AggFunc, AggSpec, AttrId, Relation, Result, Value};
use std::collections::HashMap;
use std::sync::{Arc, Mutex};

/// One cached sort order of the grouped relation: the key columns the
/// permutation was computed under, and the permutation itself.
#[derive(Debug, Clone)]
struct SortEntry {
    keys: Vec<usize>,
    perm: Arc<Vec<usize>>,
}

/// Dense ranks of one column plus the distinct-value count.
type ColRanks = Arc<(Vec<u32>, u32)>;

/// The materialized result of `γ_{G, aggs}(R)` with column metadata.
#[derive(Debug)]
pub struct GroupData {
    /// The group-by attributes (ids into the *base* schema), in the order
    /// they appear as the leading columns of [`GroupData::relation`].
    pub group_attrs: Vec<AttrId>,
    /// Aggregated relation: `group_attrs` columns, one column per
    /// aggregate, then a trailing `__rows` raw-count column.
    pub relation: Relation,
    /// Column index of each aggregate output in `relation`.
    agg_cols: HashMap<(AggFunc, Option<AttrId>), usize>,
    /// Column index of the `__rows` count.
    pub rows_col: usize,
    /// Sort permutations computed over `relation`, reusable for any split
    /// whose `F` columns form a prefix *set* of a cached key sequence
    /// (blocks of equal `F` values stay contiguous under any internal
    /// reordering of the prefix).
    sort_cache: Mutex<Vec<SortEntry>>,
    /// Lazily computed dense ranks per column of `relation`. Computing the
    /// ranks costs one single-key sort per column, after which every
    /// multi-key sort over this group compares packed integers instead of
    /// `Value`s.
    ranks: Mutex<Vec<Option<ColRanks>>>,
}

impl Clone for GroupData {
    fn clone(&self) -> Self {
        GroupData {
            group_attrs: self.group_attrs.clone(),
            relation: self.relation.clone(),
            agg_cols: self.agg_cols.clone(),
            rows_col: self.rows_col,
            sort_cache: Mutex::new(self.sort_cache.lock().expect("sort cache poisoned").clone()),
            ranks: Mutex::new(self.ranks.lock().expect("rank cache poisoned").clone()),
        }
    }
}

impl GroupData {
    /// Run the shared group-by query for `group_attrs` evaluating all
    /// `aggs` (pairs of function and optional base attribute) in one scan.
    pub fn compute(
        rel: &Relation,
        group_attrs: &[AttrId],
        aggs: &[(AggFunc, Option<AttrId>)],
    ) -> Result<Self> {
        let specs: Vec<AggSpec> = aggs.iter().map(|&(func, attr)| AggSpec { func, attr }).collect();
        let result = aggregate_with_row_count(rel, group_attrs, &specs)?;
        Ok(Self::from_parts(group_attrs.to_vec(), result.relation, aggs))
    }

    /// Wrap an already-aggregated relation whose columns are
    /// `group_attrs…, aggs…, __rows` (used by the CUBE miner, which
    /// produces the same layout through the cube operator).
    pub fn from_parts(
        group_attrs: Vec<AttrId>,
        relation: Relation,
        aggs: &[(AggFunc, Option<AttrId>)],
    ) -> Self {
        let base = group_attrs.len();
        let agg_cols = aggs.iter().enumerate().map(|(i, &key)| (key, base + i)).collect();
        let rows_col = base + aggs.len();
        debug_assert_eq!(rows_col + 1, relation.schema().arity());
        let arity = relation.schema().arity();
        GroupData {
            group_attrs,
            relation,
            agg_cols,
            rows_col,
            sort_cache: Mutex::new(Vec::new()),
            ranks: Mutex::new(vec![None; arity]),
        }
    }

    /// Dense ranks of column `col`, computed once per group and shared by
    /// every sort request.
    fn col_ranks(&self, col: usize) -> ColRanks {
        let mut cache = self.ranks.lock().expect("rank cache poisoned");
        Arc::clone(cache[col].get_or_insert_with(|| Arc::new(column_ranks(&self.relation, col))))
    }

    /// Multi-key sort via per-column dense ranks. When the rank widths fit
    /// a `u64` the key columns are packed (with the row index as the low
    /// bits, making the unstable sort deterministic and equivalent to a
    /// stable sort); otherwise rank tuples are compared directly.
    fn rank_sort_perm(&self, key_cols: &[usize]) -> Vec<usize> {
        let n = self.relation.num_rows();
        let cols: Vec<ColRanks> = key_cols.iter().map(|&c| self.col_ranks(c)).collect();
        let bits: Vec<u32> = cols.iter().map(|c| bits_for(c.1)).collect();
        let idx_bits = bits_for(n as u32);
        let total: u32 = bits.iter().sum::<u32>() + idx_bits;
        let mut perm: Vec<usize> = (0..n).collect();
        if total <= 64 {
            let mut keyed: Vec<u64> = Vec::with_capacity(n);
            for row in 0..n {
                let mut k = 0u64;
                for (c, &b) in cols.iter().zip(&bits) {
                    k = (k << b) | u64::from(c.0[row]);
                }
                keyed.push((k << idx_bits) | row as u64);
            }
            perm.sort_unstable_by_key(|&r| keyed[r]);
        } else {
            perm.sort_by(|&a, &b| {
                for c in &cols {
                    match c.0[a].cmp(&c.0[b]) {
                        std::cmp::Ordering::Equal => continue,
                        o => return o,
                    }
                }
                std::cmp::Ordering::Equal
            });
        }
        perm
    }

    /// A sort permutation of [`GroupData::relation`] under `key_cols`,
    /// reusable for every prefix length in `prefix_lens`: a cached entry
    /// is served when, for each requested length `k`, its first `k` keys
    /// form the same *set* as `key_cols[..k]` (so each `F` block is
    /// contiguous, which is all fragment fitting needs).
    pub fn sort_perm_covering(&self, key_cols: &[usize], prefix_lens: &[usize]) -> Arc<Vec<usize>> {
        {
            let cache = self.sort_cache.lock().expect("sort cache poisoned");
            for entry in cache.iter() {
                let serves = prefix_lens
                    .iter()
                    .all(|&k| k <= entry.keys.len() && set_eq(&entry.keys[..k], &key_cols[..k]));
                if serves {
                    cape_obs::counter_add("mining.sort_cache_hits", 1);
                    cape_obs::counter_add(
                        "mining.scan_rows_saved",
                        self.relation.num_rows() as u64,
                    );
                    return Arc::clone(&entry.perm);
                }
            }
        }
        let perm = {
            let mut span = cape_obs::span("data.sort");
            span.add("rows_in", self.relation.num_rows() as u64);
            Arc::new(self.rank_sort_perm(key_cols))
        };
        cape_obs::counter_add("mining.sort_cache_misses", 1);
        self.sort_cache
            .lock()
            .expect("sort cache poisoned")
            .push(SortEntry { keys: key_cols.to_vec(), perm: Arc::clone(&perm) });
        perm
    }

    /// Drop all cached sort permutations (mining calls this once a group
    /// set is fully processed, so pattern instances holding `Arc<GroupData>`
    /// do not pin permutation memory in the store).
    pub fn clear_sort_cache(&self) {
        self.sort_cache.lock().expect("sort cache poisoned").clear();
    }

    /// Column index (into [`GroupData::relation`]) of the given aggregate.
    pub fn agg_col(&self, func: AggFunc, attr: Option<AttrId>) -> Option<usize> {
        self.agg_cols.get(&(func, attr)).copied()
    }

    /// Column index of a *base-schema* attribute within this group-by
    /// output, if it is one of the group-by attributes.
    pub fn col_of_attr(&self, attr: AttrId) -> Option<usize> {
        self.group_attrs.iter().position(|&a| a == attr)
    }

    /// Column indices for a list of base attributes (all must be present).
    pub fn cols_of_attrs(&self, attrs: &[AttrId]) -> Option<Vec<usize>> {
        attrs.iter().map(|&a| self.col_of_attr(a)).collect()
    }

    /// Project row `i` onto base attributes `attrs` (values cloned).
    pub fn key_of(&self, i: usize, attrs: &[AttrId]) -> Option<Vec<Value>> {
        let cols = self.cols_of_attrs(attrs)?;
        Some(self.relation.row_project(i, &cols))
    }

    /// The numeric aggregate value of row `i` in column `col`.
    pub fn agg_value(&self, i: usize, col: usize) -> Option<f64> {
        self.relation.value(i, col).as_f64()
    }
}

/// Bits needed to store any value in `0..card` (0 when there is at most
/// one value).
fn bits_for(card: u32) -> u32 {
    if card <= 1 {
        0
    } else {
        32 - (card - 1).leading_zeros()
    }
}

/// Set equality of two equal-length column-id slices (tiny: |G| ≤ ψ).
fn set_eq(a: &[usize], b: &[usize]) -> bool {
    debug_assert_eq!(a.len(), b.len());
    a.iter().all(|x| b.contains(x)) && b.iter().all(|x| a.contains(x))
}

#[cfg(test)]
mod tests {
    use super::*;
    use cape_data::{Schema, ValueType};

    fn rel() -> Relation {
        let schema = Schema::new([
            ("author", ValueType::Str),
            ("year", ValueType::Int),
            ("cites", ValueType::Int),
        ])
        .unwrap();
        Relation::from_rows(
            schema,
            vec![
                vec![Value::str("ax"), Value::Int(2004), Value::Int(1)],
                vec![Value::str("ax"), Value::Int(2004), Value::Int(2)],
                vec![Value::str("ax"), Value::Int(2005), Value::Int(3)],
                vec![Value::str("ay"), Value::Int(2004), Value::Int(4)],
            ],
        )
        .unwrap()
    }

    #[test]
    fn compute_and_lookup() {
        let g =
            GroupData::compute(&rel(), &[0, 1], &[(AggFunc::Count, None), (AggFunc::Sum, Some(2))])
                .unwrap();
        assert_eq!(g.relation.num_rows(), 3);
        let count_col = g.agg_col(AggFunc::Count, None).unwrap();
        let sum_col = g.agg_col(AggFunc::Sum, Some(2)).unwrap();
        assert_eq!(count_col, 2);
        assert_eq!(sum_col, 3);
        assert_eq!(g.rows_col, 4);
        // (ax, 2004): count 2, sum 3.
        assert_eq!(g.agg_value(0, count_col), Some(2.0));
        assert_eq!(g.agg_value(0, sum_col), Some(3.0));
        assert_eq!(g.agg_col(AggFunc::Max, Some(2)), None);
    }

    #[test]
    fn sort_cache_prefix_set_reuse() {
        let g = GroupData::compute(&rel(), &[0, 1], &[(AggFunc::Count, None)]).unwrap();
        let rec = cape_obs::Recorder::new();
        let guard = rec.install();
        let p1 = g.sort_perm_covering(&[0, 1], &[1]);
        // Same leading set {0}: served from cache.
        let p2 = g.sort_perm_covering(&[0, 1], &[1]);
        assert!(Arc::ptr_eq(&p1, &p2));
        // Prefix set {1, 0} of length 2 matches [0, 1]'s first two keys as
        // a set, so [1, 0] with prefix_len 2 is a hit too.
        let p3 = g.sort_perm_covering(&[1, 0], &[2]);
        assert!(Arc::ptr_eq(&p1, &p3));
        // Prefix {1} of [1, 0] is NOT the set {0}: miss, new sort.
        let p4 = g.sort_perm_covering(&[1, 0], &[1]);
        assert!(!Arc::ptr_eq(&p1, &p4));
        drop(guard);
        let snap = rec.snapshot();
        assert_eq!(snap.counter("mining.sort_cache_hits"), 2);
        assert_eq!(snap.counter("mining.sort_cache_misses"), 2);
        assert!(snap.counter("mining.scan_rows_saved") > 0);
    }

    #[test]
    fn cached_perm_actually_sorts() {
        let g = GroupData::compute(&rel(), &[0, 1], &[(AggFunc::Count, None)]).unwrap();
        let perm = g.sort_perm_covering(&[1, 0], &[1]);
        for w in perm.windows(2) {
            assert!(g.relation.value(w[0], 1) <= g.relation.value(w[1], 1));
        }
    }

    #[test]
    fn rank_sort_matches_value_sort() {
        let g =
            GroupData::compute(&rel(), &[0, 1], &[(AggFunc::Count, None), (AggFunc::Sum, Some(2))])
                .unwrap();
        for keys in [vec![0usize, 1], vec![1, 0], vec![3, 0, 1], vec![2]] {
            g.clear_sort_cache();
            let ours = g.sort_perm_covering(&keys, &[1]);
            let legacy = cape_data::ops::sort_perm(&g.relation, &keys);
            assert_eq!(*ours, legacy, "keys {keys:?}");
        }
    }

    #[test]
    fn bit_widths() {
        assert_eq!(bits_for(0), 0);
        assert_eq!(bits_for(1), 0);
        assert_eq!(bits_for(2), 1);
        assert_eq!(bits_for(3), 2);
        assert_eq!(bits_for(4), 2);
        assert_eq!(bits_for(5), 3);
        assert_eq!(bits_for(u32::MAX), 32);
    }

    #[test]
    fn attr_mapping() {
        let g = GroupData::compute(&rel(), &[1, 0], &[(AggFunc::Count, None)]).unwrap();
        assert_eq!(g.col_of_attr(1), Some(0));
        assert_eq!(g.col_of_attr(0), Some(1));
        assert_eq!(g.col_of_attr(2), None);
        assert_eq!(g.cols_of_attrs(&[0, 1]), Some(vec![1, 0]));
        assert_eq!(g.cols_of_attrs(&[0, 2]), None);
        let key = g.key_of(0, &[0]).unwrap();
        assert_eq!(key, vec![Value::str("ax")]);
    }
}
