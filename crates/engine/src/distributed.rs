//! Shard-plan primitives.
//!
//! The survey grounds two backend metrics in distributed systems:
//! **throughput** (Atlas measures speedup as query throughput vs server
//! count) and **scalability** (DICE's node sweep shows diminishing
//! returns past ~8 nodes). This module holds the *canonical* primitives
//! every sharded layer of the stack shares — deterministic shard
//! assignment, cell-key hashing, partition materialization, mergeable
//! partial-aggregate merging, replica routing, and the coordination
//! cost model. The cluster itself (hash/range partition schemes, the
//! scatter-gather executor, replication, sharded progressive
//! refinement) lives in `ids-shard` and is built from exactly these
//! functions, which is what guarantees a row lands on the same shard no
//! matter which layer asked.
//!
//! Determinism discipline (the same one `exec::run_histogram`'s chunked bin
//! phase follows for threads): shard assignment is a pure function of `(key, shards)`,
//! partials are merged in fixed shard order, and only *mergeable*
//! aggregates (COUNT sums, histogram bin-wise sums) are distributable —
//! so the merged answer is byte-identical at 1/4/16 shards and any
//! worker-thread count.
//!
//! Fault model: shards may be **replicated**. A query answers exactly as
//! long as every shard has at least one surviving replica
//! ([`surviving_replica`]); when all replicas of a shard are lost the
//! plan fails with the typed [`EngineError::ShardUnavailable`] instead
//! of silently extrapolating from the survivors — approximate answers
//! are the progressive layer's job, where they carry explicit error
//! bounds.

use ids_simclock::SimDuration;

use crate::column::{Column, ColumnBuilder};
use crate::error::{EngineError, EngineResult};
use crate::query::Query;
use crate::result::{Histogram, ResultSet};
use crate::table::{Table, TableBuilder};

/// Cost knobs specific to the coordination layer of a scatter-gather
/// plan.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClusterParams {
    /// Per-query coordination overhead per participating node, ns
    /// (scheduling, result collection).
    pub per_node_overhead_ns: u64,
    /// Merging one partial group/row from one node, ns.
    pub merge_per_group_ns: u64,
    /// Fixed coordinator startup, ns.
    pub coordinator_ns: u64,
}

impl ClusterParams {
    /// A calibration that yields near-linear speedup to ~8 nodes and
    /// diminishing returns beyond — the DICE shape.
    pub const fn default_cluster() -> ClusterParams {
        ClusterParams {
            per_node_overhead_ns: 500_000, // 0.5 ms per node per query
            merge_per_group_ns: 10_000,    // 10 µs per partial group
            coordinator_ns: 1_000_000,     // 1 ms
        }
    }

    /// Coordination cost of gathering `nodes` partials totalling
    /// `merge_groups` groups: the part of a scatter-gather plan that
    /// does *not* get faster with more shards.
    pub fn coordination(&self, nodes: usize, merge_groups: u64) -> SimDuration {
        SimDuration::from_micros(
            (self.coordinator_ns
                + self.per_node_overhead_ns * nodes as u64
                + self.merge_per_group_ns * merge_groups)
                / 1_000,
        )
    }
}

/// SplitMix64: the canonical bit-mixing finalizer behind every shard
/// hash in the stack (`ids-shard` reuses it for key partitioning, the
/// simtest scenario grammar for seed derivation).
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// FNV-1a over raw bytes — the dependency-free string hash shard keys
/// use (dictionary codes are partition-local, so the *string bytes* are
/// what must hash identically on every layer).
pub fn fnv1a_bytes(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The shard a *row index* lands on: round-robin, the hash partition on
/// a synthetic key. Deterministic, total, and exactly balanced.
pub fn shard_of_row(row: usize, shards: usize) -> usize {
    row % shards.max(1)
}

/// The shard a pre-hashed 64-bit key lands on, after one more mixing
/// round so weak keys (sequential integers, duplicate-heavy dimensions)
/// still spread.
pub fn shard_of_hash(seed: u64, hash: u64, shards: usize) -> usize {
    (splitmix64(seed ^ hash) % shards.max(1) as u64) as usize
}

/// Canonical 64-bit key of one cell, identical across partitions and
/// layers:
///
/// - `Int` → the value's two's-complement bits;
/// - `Float` → the IEEE bits with `-0.0` folded into `0.0` and every
///   NaN folded into the canonical quiet NaN (so equal-comparing floats
///   always co-locate);
/// - `Str` → FNV-1a of the string bytes (dictionary codes are
///   partition-local and must not leak into the key).
pub fn cell_key(col: &Column, row: usize) -> u64 {
    match col {
        Column::Int(v) => v[row] as u64,
        Column::Float(v) => {
            let x = v[row];
            if x.is_nan() {
                f64::NAN.to_bits()
            } else if x == 0.0 {
                0.0f64.to_bits()
            } else {
                x.to_bits()
            }
        }
        Column::Str { codes, dict } => fnv1a_bytes(dict[codes[row] as usize].as_bytes()),
    }
}

/// Materializes the selected rows of `table` as a new table with the
/// same name and schema (string dictionaries are shared, not
/// re-encoded).
pub fn take_table(table: &Table, rows: &[usize]) -> EngineResult<Table> {
    let mut builder = TableBuilder::new(table.name());
    for (col_idx, col_name) in table.column_names().enumerate() {
        let col = table.column_at(col_idx).take(rows);
        builder = builder.column(col_name, column_to_builder(&col));
    }
    builder.build()
}

/// Re-wraps a materialized column in a builder (partition tables are
/// assembled through the normal [`TableBuilder`] path so stats and zone
/// maps are rebuilt per shard).
fn column_to_builder(col: &Column) -> ColumnBuilder {
    match col {
        Column::Int(v) => ColumnBuilder::int(v.iter().copied()),
        Column::Float(v) => ColumnBuilder::float(v.iter().copied()),
        Column::Str { codes, dict } => {
            ColumnBuilder::str(codes.iter().map(|&c| dict[c as usize].as_ref()))
        }
    }
}

/// Rejects query shapes that are not distributable under a row
/// partition with the typed error every sharded layer reports: COUNT
/// sums and histograms sum bin-wise; paginated selects and joins would
/// need a shuffle, which this engine intentionally does not model.
pub fn require_mergeable(query: &Query) -> EngineResult<()> {
    match query {
        Query::Count { .. } | Query::Histogram { .. } => Ok(()),
        _ => Err(EngineError::TypeMismatch {
            column: query.table().to_string(),
            expected: "a mergeable query (COUNT or histogram) for distributed execution",
        }),
    }
}

/// Merges two mergeable partial results: COUNT sums, histograms sum
/// bin-wise. Partials must be merged in *fixed shard order* — `u64`
/// sums commute, but keeping one canonical order is what lets every
/// layer assert byte-identical output instead of arguing about it.
pub fn merge_partials(a: ResultSet, b: ResultSet) -> EngineResult<ResultSet> {
    match (a, b) {
        (ResultSet::Count(x), ResultSet::Count(y)) => Ok(ResultSet::Count(x + y)),
        (ResultSet::Histogram(x), ResultSet::Histogram(y)) => {
            if x.bins() != y.bins() {
                return Err(EngineError::InvalidBinSpec(
                    "partition histograms disagree on bin count".into(),
                ));
            }
            let counts = x
                .counts()
                .iter()
                .zip(y.counts())
                .map(|(&p, &q)| p + q)
                .collect();
            Ok(ResultSet::Histogram(Histogram::from_counts(counts)))
        }
        _ => Err(EngineError::TypeMismatch {
            column: "<merge>".into(),
            expected: "matching partial result shapes",
        }),
    }
}

/// The node hosting replica `replica` of shard `shard` in the canonical
/// striped layout: nodes `0..shards` hold copy 0, `shards..2*shards`
/// copy 1, and so on.
pub fn replica_node(shard: usize, shards: usize, replica: usize) -> usize {
    replica * shards + shard
}

/// The lowest-numbered surviving node hosting `shard`, or `None` when
/// every replica is in `lost`. Deterministic: the same loss set always
/// routes to the same replica.
pub fn surviving_replica(
    shard: usize,
    shards: usize,
    replicas: usize,
    lost: &[usize],
) -> Option<usize> {
    (0..replicas)
        .map(|r| replica_node(shard, shards, r))
        .find(|node| !lost.contains(node))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn replica_layout_is_striped() {
        assert_eq!(replica_node(2, 4, 0), 2);
        assert_eq!(replica_node(2, 4, 1), 6);
        // Node 2 lost: shard 2 routes to its copy on node 6.
        assert_eq!(surviving_replica(2, 4, 2, &[2]), Some(6));
        // Both copies lost: unavailable.
        assert_eq!(surviving_replica(2, 4, 2, &[2, 6]), None);
        // Unreplicated: the shard is its only copy.
        assert_eq!(surviving_replica(2, 4, 1, &[2]), None);
    }

    #[test]
    fn cell_keys_are_canonical() {
        let f = ColumnBuilder::float([0.0, -0.0, f64::NAN, 1.5]).build();
        assert_eq!(cell_key(&f, 0), cell_key(&f, 1), "-0.0 folds into 0.0");
        assert_eq!(cell_key(&f, 2), f64::NAN.to_bits());
        let s = ColumnBuilder::str(["a", "b", "a"]).build();
        assert_eq!(cell_key(&s, 0), cell_key(&s, 2));
        assert_ne!(cell_key(&s, 0), cell_key(&s, 1));
        // The string key survives re-encoding under a different dict.
        let s2 = ColumnBuilder::str(["b", "a"]).build();
        assert_eq!(cell_key(&s, 0), cell_key(&s2, 1));
    }
}
