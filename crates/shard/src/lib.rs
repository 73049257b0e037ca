//! Sharded scatter-gather execution for million-session fleets.
//!
//! The paper's scalability guideline (§3.2) says an interactive backend
//! must hold its latency distribution as sessions and rows grow — and
//! the only lever past a single node is horizontal partitioning. This
//! crate is that lever, built on the engine's canonical shard-plan
//! primitives (`ids_engine::distributed`) so a row lands on the same
//! shard no matter which layer asked:
//!
//! - [`partition`] — deterministic hash-rows / hash-key / range
//!   partitioning of columnar tables, each shard with its own rebuilt
//!   stats and zone maps ([`PartitionScheme`], [`partition_database`]).
//! - [`plan`] — the scatter-gather executor ([`ScatterGather`]): fused
//!   kernels run per shard through the engine's ordered fan-out
//!   (`ids_engine::parallel::ordered_map`), partials merge in fixed
//!   shard order, per-shard obs spans feed the telemetry lakehouse
//!   ("p99 by shard").
//! - [`cluster`] — replicated routing ([`ShardedCluster`]): exact
//!   answers while every shard keeps one surviving replica, typed
//!   `ShardUnavailable` when one does not.
//! - [`progressive`] — sharded online aggregation
//!   ([`ShardedProgressive`]): per-shard block-sampled refinement with
//!   summed error bounds, final step byte-identical to the exact plan.
//!
//! Determinism discipline, everywhere: shard assignment is a pure
//! function of `(scheme, seed, value, shards)`; worker threads decide
//! only *when* a shard runs; merges happen in fixed shard order. A
//! scenario therefore renders byte-identical results, metrics, and
//! telemetry at 1, 4, or 16 shards and any thread count — which is
//! exactly what the simtest `shard-invariance` oracle replays.

#![warn(missing_docs)]

pub mod cluster;
pub mod partition;
pub mod plan;
pub mod progressive;

pub use cluster::ShardedCluster;
pub use partition::{partition_database, partition_table, shard_assignments, PartitionScheme};
pub use plan::{ScatterGather, ShardExecution, ShardOutcome};
pub use progressive::ShardedProgressive;
