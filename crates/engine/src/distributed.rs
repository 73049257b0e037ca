//! Shard-plan primitives and the in-engine cluster facade.
//!
//! The survey grounds two backend metrics in distributed systems:
//! **throughput** (Atlas measures speedup as query throughput vs server
//! count) and **scalability** (DICE's node sweep shows diminishing
//! returns past ~8 nodes). This module holds the *canonical* primitives
//! every sharded layer of the stack shares — deterministic shard
//! assignment, cell-key hashing, partition materialization, mergeable
//! partial-aggregate merging, and the coordination cost model — plus a
//! thin [`Cluster`] facade over them. The full subsystem (hash/range
//! partition schemes, the scatter-gather executor, sharded progressive
//! refinement) lives in `ids-shard` and reuses exactly these functions,
//! which is what guarantees a row lands on the same shard no matter
//! which layer asked.
//!
//! Determinism discipline (the same one `exec::run_histogram`'s chunked bin
//! phase follows for threads): shard assignment is a pure function of `(key, shards)`,
//! partials are merged in fixed shard order, and only *mergeable*
//! aggregates (COUNT sums, histogram bin-wise sums) are distributable —
//! so the merged answer is byte-identical at 1/4/16 shards and any
//! worker-thread count.
//!
//! Fault model: shards may be **replicated**. A query answers exactly as
//! long as every shard has at least one surviving replica; when all
//! replicas of a shard are lost the plan fails with the typed
//! [`EngineError::ShardUnavailable`] instead of silently extrapolating
//! from the survivors (the old behavior — an estimate masquerading as an
//! answer — is gone; approximate answers are the progressive layer's
//! job, where they carry explicit error bounds).

use ids_simclock::SimDuration;

use crate::backend::{Database, ResultQuality};
use crate::column::{Column, ColumnBuilder};
use crate::cost::{CostModel, CostParams, LinearCostModel};
use crate::error::{EngineError, EngineResult};
use crate::exec::run_query;
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
pub fn column_to_builder(col: &Column) -> ColumnBuilder {
    match col {
        Column::Int(v) => ColumnBuilder::int(v.iter().copied()),
        Column::Float(v) => ColumnBuilder::float(v.iter().copied()),
        Column::Str { codes, dict } => {
            ColumnBuilder::str(codes.iter().map(|&c| dict[c as usize].as_ref()))
        }
    }
}

/// `true` if the query shape is distributable under a row partition:
/// COUNT sums and histograms sum bin-wise; paginated selects and joins
/// would need a shuffle, which this engine intentionally does not model.
pub fn is_mergeable(query: &Query) -> bool {
    matches!(query, Query::Count { .. } | Query::Histogram { .. })
}

/// Rejects non-mergeable query shapes with the typed error every
/// sharded layer reports.
pub fn require_mergeable(query: &Query) -> EngineResult<()> {
    if is_mergeable(query) {
        Ok(())
    } else {
        Err(EngineError::TypeMismatch {
            column: query.table().to_string(),
            expected: "a mergeable query (COUNT or histogram) for distributed execution",
        })
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

/// Outcome of one distributed query.
#[derive(Debug, Clone)]
pub struct DistributedOutcome {
    /// Merged result — always identical to single-node execution (no
    /// extrapolation: a shard with no surviving replica is a typed
    /// error, not an estimate).
    pub result: ResultSet,
    /// Virtual wall time: slowest shard + coordination + merge.
    pub elapsed: SimDuration,
    /// Sum of all shards' compute time (the throughput denominator).
    pub total_work: SimDuration,
    /// Number of shards that executed.
    pub nodes: usize,
    /// Always [`ResultQuality::Exact`]; kept so callers recording
    /// quality alongside chaos-degraded paths keep one shape.
    pub quality: ResultQuality,
}

/// A simulated shared-nothing cluster: the thin in-engine facade over
/// the shard-plan primitives above. Every table of the source database
/// is row-partitioned across `shards` shards, each shard logically
/// hosted on `replicas` nodes (replicas share one partition image —
/// this is a simulator, so replication is an availability property, not
/// extra bytes).
///
/// `ids-shard` builds the full subsystem (hash/range key partitioning,
/// threaded scatter-gather, sharded progressive refinement) on the same
/// primitives; this facade keeps the engine's scalability experiments
/// and the chaos node-loss tests self-contained.
#[derive(Debug)]
pub struct Cluster {
    /// Per-shard databases holding the partitions, in shard order.
    partitions: Vec<Database>,
    replicas: usize,
    model: LinearCostModel,
    params: ClusterParams,
}

impl Cluster {
    /// Partitions every table of `db` across `shards` single-replica
    /// shards (round-robin on row index — [`shard_of_row`]).
    pub fn partition(db: &Database, shards: usize) -> EngineResult<Cluster> {
        Self::partition_with(
            db,
            shards,
            CostParams::disk_default(),
            ClusterParams::default_cluster(),
        )
    }

    /// [`partition`](Self::partition) with `replicas` copies of every
    /// shard, striped as [`replica_node`] describes: a query stays
    /// exact under node loss as long as each shard keeps one survivor.
    pub fn partition_replicated(
        db: &Database,
        shards: usize,
        replicas: usize,
    ) -> EngineResult<Cluster> {
        let mut cluster = Self::partition(db, shards)?;
        cluster.replicas = replicas.max(1);
        Ok(cluster)
    }

    /// [`partition`](Self::partition) with explicit cost calibrations.
    pub fn partition_with(
        db: &Database,
        shards: usize,
        node_costs: CostParams,
        params: ClusterParams,
    ) -> EngineResult<Cluster> {
        let shards = shards.max(1);
        let partitions: Vec<Database> = (0..shards).map(|_| Database::new()).collect();
        for name in db.table_names() {
            let table = db.table(&name)?;
            let mut selections: Vec<Vec<usize>> = vec![Vec::new(); shards];
            for row in 0..table.rows() {
                selections[shard_of_row(row, shards)].push(row);
            }
            for (shard, rows) in selections.iter().enumerate() {
                partitions[shard].register(take_table(&table, rows)?);
            }
        }
        Ok(Cluster {
            partitions,
            replicas: 1,
            model: LinearCostModel::new(node_costs),
            params,
        })
    }

    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.partitions.len()
    }

    /// Replicas per shard.
    pub fn replicas(&self) -> usize {
        self.replicas
    }

    /// Total nodes (`shards × replicas`).
    pub fn nodes(&self) -> usize {
        self.partitions.len() * self.replicas
    }

    /// Executes a query across all shards and merges in shard order.
    ///
    /// Only mergeable shapes are supported ([`is_mergeable`]).
    pub fn execute(&self, query: &Query) -> EngineResult<DistributedOutcome> {
        self.execute_excluding(query, &[])
    }

    /// Executes with the nodes in `lost` excluded — node failures
    /// mid-session. Each shard routes to its lowest-numbered surviving
    /// replica ([`surviving_replica`]); the answer is therefore *exact*
    /// under any loss pattern that leaves every shard one survivor. A
    /// shard with no survivor fails the whole plan with the typed
    /// [`EngineError::ShardUnavailable`] — no silent extrapolation.
    pub fn execute_excluding(
        &self,
        query: &Query,
        lost: &[usize],
    ) -> EngineResult<DistributedOutcome> {
        require_mergeable(query)?;
        let shards = self.shards();
        for shard in 0..shards {
            if surviving_replica(shard, shards, self.replicas, lost).is_none() {
                return Err(EngineError::ShardUnavailable {
                    shard,
                    replicas: self.replicas,
                });
            }
        }

        let mut slowest = SimDuration::ZERO;
        let mut total_work = SimDuration::ZERO;
        let mut merged: Option<ResultSet> = None;
        let mut merge_groups = 0u64;
        for db in &self.partitions {
            let (partial, footprint) = run_query(db, query)?;
            let cost = self.model.price(&footprint);
            slowest = slowest.max(cost);
            total_work += cost;
            merge_groups += partial.len() as u64;
            merged = Some(match merged.take() {
                None => partial,
                Some(acc) => merge_partials(acc, partial)?,
            });
        }

        let coordination = self.params.coordination(shards, merge_groups);
        let merged = merged.ok_or(EngineError::ShardUnavailable {
            shard: 0,
            replicas: self.replicas,
        })?;
        Ok(DistributedOutcome {
            result: merged,
            elapsed: slowest + coordination,
            total_work: total_work + coordination,
            nodes: shards,
            quality: ResultQuality::Exact,
        })
    }
}

/// Throughput of a cluster on a query mix: queries per second of virtual
/// time, each query routed through the scatter-gather plan above and
/// executed back to back (the Atlas measurement). Any per-query failure
/// — including a typed [`EngineError::ShardUnavailable`] — propagates
/// instead of skewing the rate.
pub fn cluster_throughput(cluster: &Cluster, queries: &[Query]) -> EngineResult<f64> {
    if queries.is_empty() {
        return Ok(0.0);
    }
    let mut elapsed = SimDuration::ZERO;
    for q in queries {
        elapsed += cluster.execute(q)?.elapsed;
    }
    Ok(queries.len() as f64 / elapsed.as_secs_f64().max(1e-12))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::column::ColumnBuilder;
    use crate::predicate::Predicate;
    use crate::query::BinSpec;
    use crate::table::TableBuilder;
    use crate::{Backend, MemBackend};

    fn db(rows: usize) -> Database {
        let db = Database::new();
        db.register(
            TableBuilder::new("pts")
                .column(
                    "x",
                    ColumnBuilder::float((0..rows).map(|i| (i % 1000) as f64)),
                )
                .column(
                    "label",
                    ColumnBuilder::str((0..rows).map(|i| if i % 2 == 0 { "even" } else { "odd" })),
                )
                .build()
                .unwrap(),
        );
        db
    }

    fn histogram_query() -> Query {
        Query::histogram(
            "pts",
            BinSpec::new("x", 0.0, 1000.0, 20),
            Predicate::between("x", 100.0, 900.0),
        )
    }

    #[test]
    fn distributed_results_match_single_node() {
        let database = db(30_000);
        let single = MemBackend::over(database.clone());
        let expected = single.execute(&histogram_query()).unwrap().result;
        for nodes in [1usize, 2, 4, 8] {
            let cluster = Cluster::partition(&database, nodes).unwrap();
            let out = cluster.execute(&histogram_query()).unwrap();
            assert_eq!(out.result, expected, "{nodes} nodes");
            assert_eq!(out.nodes, nodes);
            assert_eq!(out.quality, ResultQuality::Exact);
        }
    }

    #[test]
    fn count_merges_across_partitions() {
        let database = db(10_001); // odd count exercises uneven partitions
        let cluster = Cluster::partition(&database, 4).unwrap();
        let out = cluster
            .execute(&Query::count("pts", Predicate::True))
            .unwrap();
        assert_eq!(out.result.scalar_count(), Some(10_001));
    }

    #[test]
    fn speedup_is_near_linear_then_diminishes() {
        let database = db(200_000);
        let q = histogram_query();
        let mut elapsed = Vec::new();
        for nodes in [1usize, 2, 4, 8, 16, 32] {
            let cluster = Cluster::partition(&database, nodes).unwrap();
            elapsed.push((nodes, cluster.execute(&q).unwrap().elapsed));
        }
        let t1 = elapsed[0].1.as_secs_f64();
        let speedup: Vec<(usize, f64)> = elapsed
            .iter()
            .map(|&(n, t)| (n, t1 / t.as_secs_f64()))
            .collect();
        // Near-linear at small scale.
        let s2 = speedup[1].1;
        assert!(s2 > 1.6, "2-node speedup {s2:.2}");
        let s8 = speedup[3].1;
        assert!(s8 > 4.0, "8-node speedup {s8:.2}");
        // Diminishing returns: the 16→32 step gains far less than 2x.
        let s16 = speedup[4].1;
        let s32 = speedup[5].1;
        assert!(
            s32 / s16 < 1.5,
            "16->32 nodes should flatten: {s16:.1} -> {s32:.1}"
        );
    }

    #[test]
    fn unsupported_shapes_are_rejected() {
        let database = db(100);
        let cluster = Cluster::partition(&database, 2).unwrap();
        let select = Query::select("pts", vec![], Predicate::True, Some(10), 0);
        assert!(cluster.execute(&select).is_err());
    }

    #[test]
    fn throughput_grows_with_nodes() {
        let database = db(100_000);
        let queries: Vec<Query> = (0..10).map(|_| histogram_query()).collect();
        let one = Cluster::partition(&database, 1).unwrap();
        let eight = Cluster::partition(&database, 8).unwrap();
        let t1 = cluster_throughput(&one, &queries).unwrap();
        let t8 = cluster_throughput(&eight, &queries).unwrap();
        assert!(t8 > t1 * 3.0, "throughput {t1:.1} -> {t8:.1} q/s");
    }

    #[test]
    fn empty_query_mix() {
        let database = db(10);
        let cluster = Cluster::partition(&database, 2).unwrap();
        assert_eq!(cluster_throughput(&cluster, &[]).unwrap(), 0.0);
    }

    #[test]
    fn string_columns_survive_partitioning() {
        let database = db(1_000);
        let cluster = Cluster::partition(&database, 3).unwrap();
        let q = Query::count("pts", Predicate::eq("label", "even"));
        let out = cluster.execute(&q).unwrap();
        assert_eq!(out.result.scalar_count(), Some(500));
    }

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
    fn replicated_cluster_stays_exact_under_node_loss() {
        let database = db(4_000);
        let cluster = Cluster::partition_replicated(&database, 4, 2).unwrap();
        assert_eq!(cluster.nodes(), 8);
        let q = Query::count("pts", Predicate::True);
        let full = cluster.execute(&q).unwrap();
        // Losing one copy of shards 1 and 2 changes nothing: the
        // surviving replicas answer and the result stays exact.
        let lossy = cluster.execute_excluding(&q, &[1, 2]).unwrap();
        assert_eq!(lossy.result, full.result);
        assert_eq!(lossy.quality, ResultQuality::Exact);
        assert_eq!(lossy.result.scalar_count(), Some(4_000));
    }

    #[test]
    fn losing_every_replica_of_a_shard_is_a_typed_error() {
        let database = db(4_000);
        let cluster = Cluster::partition_replicated(&database, 4, 2).unwrap();
        let q = Query::count("pts", Predicate::True);
        // Shard 1's copies live on nodes 1 and 5 (striped layout).
        let err = cluster.execute_excluding(&q, &[1, 5]).unwrap_err();
        assert_eq!(
            err,
            EngineError::ShardUnavailable {
                shard: 1,
                replicas: 2
            }
        );
        assert!(err.is_transient(), "lost nodes recover; retries may help");
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
