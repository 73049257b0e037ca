//! Sharded scatter-gather execution for million-session fleets.
//!
//! The paper's scalability guideline (§3.2) says an interactive backend
//! must hold its latency distribution as sessions and rows grow — and
//! the only lever past a single node is horizontal partitioning. This
//! crate is that lever, and the only place shard routing and
//! coordination live; the engine contributes only the merge rule
//! (`ids_engine::distributed::merge_partials`):
//!
//! - [`partition`] — deterministic hash-rows / hash-key / range
//!   partitioning of columnar tables, each shard with its own rebuilt
//!   stats and zone maps ([`PartitionScheme`], [`partition_database`]).
//! - [`plan`] — the scatter-gather executor ([`ScatterGather`]): fused
//!   kernels run per shard on the calling thread and on helper threads
//!   the executor keeps for its lifetime (a statement spawns nothing),
//!   partials merge in fixed shard order, per-shard obs spans feed the
//!   telemetry lakehouse ("p99 by shard"); [`ShardedCluster`] partitions
//!   a database and holds the executor over it.
//!
//! Determinism discipline, everywhere: shard assignment is a pure
//! function of `(scheme, seed, value, shards)`; worker threads decide
//! only *when* a shard runs; merges happen in fixed shard order. A
//! scenario therefore renders byte-identical results, metrics, and
//! telemetry at 1, 4, or 16 shards and any thread count — which is
//! exactly what the simtest `shard-invariance` oracle replays.

#![warn(missing_docs)]

pub mod partition;
pub mod plan;

pub use partition::{partition_database, partition_table, shard_assignments, PartitionScheme};
pub use plan::{ScatterGather, ShardExecution, ShardOutcome, ShardedCluster};
