//! Relational operators: selection, projection, sorting, aggregation
//! and CUBE.

mod aggregate;
mod cube;
mod group_index;
mod project;
mod select;
mod sort;

#[doc(hidden)]
pub use aggregate::aggregate_with_row_count_unpacked;
pub use aggregate::{aggregate, aggregate_with_row_count, GroupByResult};
pub use cube::{cube, CubeSlice};
#[doc(hidden)]
pub use group_index::group_key_index_unpacked;
pub use group_index::{group_key_index, GroupKeyIndex};
pub use project::{distinct, distinct_project, project};
pub use select::{filter, rows_matching, select};
pub use sort::{column_ranks, perm_block_starts, sort_by, sort_perm, sorted_block_starts};
