//! Replicated sharded cluster: availability routing on top of the
//! scatter-gather executor.
//!
//! Replication here is an *availability* property, not extra bytes:
//! every replica of a shard shares one partition image (this is a
//! simulator), striped across nodes exactly as the engine's
//! [`replica_node`] layout describes — nodes `0..shards` hold copy 0,
//! `shards..2*shards` copy 1, and so on. A query stays **exact** under
//! any node-loss pattern that leaves each shard one survivor; when
//! every replica of a shard is lost the plan fails with the typed
//! [`EngineError::ShardUnavailable`](ids_engine::EngineError) instead
//! of extrapolating an estimate from the survivors.

use ids_engine::distributed::{replica_node, surviving_replica};
use ids_engine::{Database, EngineError, EngineResult, Query};

use crate::partition::{partition_database, PartitionScheme};
use crate::plan::{ScatterGather, ShardOutcome};

/// A sharded, replicated fleet database.
#[derive(Debug)]
pub struct ShardedCluster {
    executor: ScatterGather,
    replicas: usize,
}

impl ShardedCluster {
    /// Partitions `db` under `scheme` into `shards` single-replica
    /// shards.
    pub fn partition(
        db: &Database,
        scheme: PartitionScheme,
        seed: u64,
        shards: usize,
    ) -> EngineResult<ShardedCluster> {
        let parts = partition_database(db, &scheme, seed, shards)?;
        Ok(ShardedCluster {
            executor: ScatterGather::over(parts),
            replicas: 1,
        })
    }

    /// Adds `replicas` copies of every shard (striped node layout).
    pub fn with_replicas(mut self, replicas: usize) -> ShardedCluster {
        self.replicas = replicas.max(1);
        self
    }

    /// Runs shards on up to `threads` worker threads (wall-clock only;
    /// results and virtual costs are thread-count invariant).
    pub fn with_threads(mut self, threads: usize) -> ShardedCluster {
        self.executor = self.executor.with_threads(threads);
        self
    }

    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.executor.shards()
    }

    /// Total nodes (`shards × replicas`).
    pub fn nodes(&self) -> usize {
        self.shards() * self.replicas
    }

    /// The scatter-gather executor (and through it the shard
    /// databases).
    pub fn executor(&self) -> &ScatterGather {
        &self.executor
    }

    /// Executes `query` with every node healthy.
    pub fn execute(&self, query: &Query) -> EngineResult<ShardOutcome> {
        self.executor.execute(query)
    }

    /// Executes with the nodes in `lost` excluded. Routing is
    /// deterministic — each shard answers from its lowest-numbered
    /// surviving replica — and the result is exact whenever every shard
    /// keeps one survivor. Otherwise: typed
    /// [`ShardUnavailable`](EngineError::ShardUnavailable), which
    /// `is_transient()` since lost nodes recover at the end of their
    /// fault window.
    pub fn execute_excluding(&self, query: &Query, lost: &[usize]) -> EngineResult<ShardOutcome> {
        let shards = self.shards();
        for shard in 0..shards {
            if surviving_replica(shard, shards, self.replicas, lost).is_none() {
                return Err(EngineError::ShardUnavailable {
                    shard,
                    replicas: self.replicas,
                });
            }
        }
        self.executor.execute(query)
    }

    /// The nodes hosting `shard`, lowest replica first.
    pub fn nodes_of_shard(&self, shard: usize) -> Vec<usize> {
        (0..self.replicas)
            .map(|r| replica_node(shard, self.shards(), r))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ids_engine::exec::run_query;
    use ids_engine::{ColumnBuilder, Predicate, TableBuilder};

    fn db(rows: usize) -> Database {
        let db = Database::new();
        db.register(
            TableBuilder::new("t")
                .column("k", ColumnBuilder::int((0..rows).map(|i| (i % 13) as i64)))
                .column("v", ColumnBuilder::float((0..rows).map(|i| i as f64)))
                .build()
                .unwrap(),
        );
        db
    }

    #[test]
    fn exact_under_partial_node_loss() {
        let source = db(8_000);
        let cluster = ShardedCluster::partition(&source, PartitionScheme::hash_key("k"), 3, 4)
            .unwrap()
            .with_replicas(2);
        assert_eq!(cluster.nodes(), 8);
        let q = Query::count("t", Predicate::True);
        let (expected, _) = run_query(&source, &q).unwrap();
        // Lose one copy of shards 0 and 3: still exact.
        let out = cluster.execute_excluding(&q, &[0, 7]).unwrap();
        assert_eq!(out.result, expected);
    }

    #[test]
    fn losing_all_replicas_is_typed_and_transient() {
        let source = db(1_000);
        let cluster = ShardedCluster::partition(&source, PartitionScheme::HashRows, 0, 4)
            .unwrap()
            .with_replicas(2);
        // Shard 1 lives on nodes 1 and 5.
        assert_eq!(cluster.nodes_of_shard(1), vec![1, 5]);
        let err = cluster
            .execute_excluding(&Query::count("t", Predicate::True), &[1, 5])
            .unwrap_err();
        assert_eq!(
            err,
            EngineError::ShardUnavailable {
                shard: 1,
                replicas: 2
            }
        );
        assert!(err.is_transient());
    }
}
