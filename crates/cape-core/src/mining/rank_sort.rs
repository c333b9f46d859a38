//! The miners' sort of a grouped relation: dense ranks of its group-by
//! columns, computed once per group set, packed into one integer key per
//! row for every sort of that group set.
//!
//! Ranking a column costs one single-key sort; after that, each
//! multi-key sort (one per `(F, V)` split in SHARE-GRP and CUBE, one per
//! useful permutation in ARP-MINE) compares packed integers instead of
//! `Value`s.

use cape_data::ops::column_ranks;
use cape_data::Relation;
use std::cmp::Ordering;

/// Dense ranks of one column plus its distinct-value count.
pub(crate) type ColRanks = (Vec<u32>, u32);

/// Dense ranks of columns `0..n_cols` of `grouped` (the group-by columns
/// lead a grouped relation).
pub(crate) fn rank_columns(grouped: &Relation, n_cols: usize) -> Vec<ColRanks> {
    let mut span = cape_obs::span("data.rank");
    span.add("rows_in", grouped.num_rows() as u64);
    (0..n_cols).map(|c| column_ranks(grouped, c)).collect()
}

/// Multi-key sort permutation under `key_cols`, read from the rank
/// columns `ranks` (indexed by column). When the rank widths fit a `u64`
/// the key columns are packed, with the row index as the low bits, which
/// makes the unstable sort deterministic and equal to a stable sort;
/// otherwise rank tuples are compared directly.
pub(crate) fn rank_sort_perm(ranks: &[ColRanks], key_cols: &[usize]) -> Vec<usize> {
    let n = ranks.first().map_or(0, |r| r.0.len());
    let mut span = cape_obs::span("data.sort");
    span.add("rows_in", n as u64);
    let cols: Vec<&ColRanks> = key_cols.iter().map(|&c| &ranks[c]).collect();
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
            cols.iter().map(|c| c.0[a].cmp(&c.0[b])).find(|o| o.is_ne()).unwrap_or(Ordering::Equal)
        });
    }
    perm
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::group_data::GroupData;
    use cape_data::{AggFunc, Schema, Value, ValueType};

    fn grouped() -> Relation {
        let schema = Schema::new([
            ("author", ValueType::Str),
            ("year", ValueType::Int),
            ("cites", ValueType::Int),
        ])
        .unwrap();
        let rel = Relation::from_rows(
            schema,
            vec![
                vec![Value::str("ax"), Value::Int(2004), Value::Int(1)],
                vec![Value::str("ax"), Value::Int(2004), Value::Int(2)],
                vec![Value::str("ax"), Value::Int(2005), Value::Int(3)],
                vec![Value::str("ay"), Value::Int(2004), Value::Int(4)],
            ],
        )
        .unwrap();
        let aggs = [(AggFunc::Count, None), (AggFunc::Sum, Some(2))];
        GroupData::compute(&rel, &[0, 1], &aggs).unwrap().relation
    }

    #[test]
    fn rank_sort_matches_value_sort() {
        let g = grouped();
        let ranks = rank_columns(&g, g.schema().arity());
        for keys in [vec![0usize, 1], vec![1, 0], vec![3, 0, 1], vec![2]] {
            let ours = rank_sort_perm(&ranks, &keys);
            let legacy = cape_data::ops::sort_perm(&g, &keys);
            assert_eq!(ours, legacy, "keys {keys:?}");
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
}
