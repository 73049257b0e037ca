//! Deterministic scatter-gather execution over a set of shard
//! databases.
//!
//! The executor scatters one mergeable query (COUNT or histogram — the
//! shapes the engine's fused filter+bin / filter+probe kernels serve)
//! to every shard, runs the shard fragments through the engine's one
//! ordered fan-out ([`ordered_map`]), and gathers the partials **in
//! fixed shard order**. Worker threads only decide *when* a shard
//! runs, never *what* it contributes or *where* its partial sits in
//! the merge, so the merged result, the virtual costs, and the
//! recorded telemetry are byte-identical at any thread count.
//!
//! Every shard fragment runs through [`ids_engine::exec::run_query`],
//! the engine's only executor.
//!
//! Virtual time: each shard's compute cost is priced by the engine's
//! [`LinearCostModel`] on that shard's real footprint; plan latency is
//! the *slowest* shard plus the coordination term ([`coordination`])
//! that does not parallelize. That is exactly the shape the paper's
//! scalability guideline predicts: near linear to ~8 shards, then
//! coordination-bound.

use ids_engine::distributed::{coordination, merge_partials, require_mergeable};
use ids_engine::exec::run_query;
use ids_engine::parallel::ordered_map;
use ids_engine::{
    CostModel, CostParams, Database, EngineError, EngineResult, LinearCostModel, Query,
    QueryFootprint, ResultSet,
};
use ids_simclock::SimDuration;

/// One shard's contribution to a scatter-gather plan.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardExecution {
    /// Shard index (also its merge position).
    pub shard: usize,
    /// Rows scanned on this shard.
    pub rows_scanned: u64,
    /// Zone-map blocks this shard pruned without touching data.
    pub blocks_pruned: u64,
    /// Virtual compute cost of this shard's partial.
    pub cost: SimDuration,
}

/// Outcome of one scatter-gather execution.
#[derive(Debug, Clone)]
pub struct ShardOutcome {
    /// Merged result — byte-identical to single-table execution.
    pub result: ResultSet,
    /// Virtual latency: slowest shard + coordination.
    pub elapsed: SimDuration,
    /// Sum of every shard's compute plus coordination (the throughput
    /// denominator).
    pub total_work: SimDuration,
    /// Per-shard breakdown, in shard order.
    pub per_shard: Vec<ShardExecution>,
}

impl ShardOutcome {
    /// Number of shards that executed.
    pub fn shards(&self) -> usize {
        self.per_shard.len()
    }
}

/// Scatter-gather executor over pre-partitioned shard databases.
#[derive(Debug)]
pub struct ScatterGather {
    shards: Vec<Database>,
    model: LinearCostModel,
    threads: usize,
}

impl ScatterGather {
    /// Executor over `shards` databases with disk-calibrated node costs
    /// and the default coordination model.
    pub fn over(shards: Vec<Database>) -> ScatterGather {
        ScatterGather {
            shards,
            model: LinearCostModel::new(CostParams::disk_default()),
            threads: 1,
        }
    }

    /// Replaces the per-node cost calibration.
    pub fn with_costs(mut self, costs: CostParams) -> ScatterGather {
        self.model = LinearCostModel::new(costs);
        self
    }

    /// Runs shards on up to `threads` OS worker threads. Purely a
    /// wall-clock knob: results, virtual costs, and telemetry do not
    /// depend on it.
    pub fn with_threads(mut self, threads: usize) -> ScatterGather {
        self.threads = threads.max(1);
        self
    }

    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.shards.len()
    }

    /// The shard databases, in shard order.
    pub fn partitions(&self) -> &[Database] {
        &self.shards
    }

    /// Executes `query` on every shard and merges the partials in shard
    /// order. Non-mergeable shapes are rejected with the engine's typed
    /// error before any shard runs; a failing shard fails the plan with
    /// its error (the lowest-numbered shard's, if several), a panicking
    /// fragment with `SchedulerClosed`.
    pub fn execute(&self, query: &Query) -> EngineResult<ShardOutcome> {
        require_mergeable(query)?;
        let partials = ordered_map(self.shards.len(), self.threads, |shard| {
            run_query(&self.shards[shard], query)
        })?
        .into_iter()
        .collect::<EngineResult<Vec<_>>>()?;
        self.gather(query, partials)
    }

    /// [`ScatterGather::execute`] under its old second name. The engine
    /// has one executor, so there is no planned variant to dispatch to;
    /// the name stays only because the frozen `benchmark/` crate calls
    /// it, and goes when that benchmark is next re-baselined.
    pub fn execute_planned(&self, query: &Query) -> EngineResult<ShardOutcome> {
        self.execute(query)
    }

    /// Merges shard partials in fixed shard order, prices each shard's
    /// footprint, and records one obs span per shard so the telemetry
    /// lakehouse can answer "p99 by shard".
    fn gather(
        &self,
        query: &Query,
        partials: Vec<(ResultSet, QueryFootprint)>,
    ) -> EngineResult<ShardOutcome> {
        let mut slowest = SimDuration::ZERO;
        let mut total_work = SimDuration::ZERO;
        let mut merged: Option<ResultSet> = None;
        let mut merge_groups = 0u64;
        let mut per_shard = Vec::with_capacity(partials.len());
        let observe = ids_obs::enabled();
        for (shard, (partial, footprint)) in partials.into_iter().enumerate() {
            let cost = self.model.price(&footprint);
            slowest = slowest.max(cost);
            total_work += cost;
            merge_groups += partial.len() as u64;
            if observe {
                let rec = ids_obs::recorder();
                let track = rec.track(&format!("shard/{shard}"));
                rec.record_span(
                    "shard",
                    query.table().to_string(),
                    track,
                    ids_obs::vnow(),
                    cost,
                    vec![
                        ("tenant", ids_obs::ArgValue::Str(format!("shard/{shard}"))),
                        (
                            "rows_scanned",
                            ids_obs::ArgValue::U64(footprint.rows_scanned),
                        ),
                        ("cost_us", ids_obs::ArgValue::U64(cost.as_micros())),
                    ],
                );
            }
            per_shard.push(ShardExecution {
                shard,
                rows_scanned: footprint.rows_scanned,
                blocks_pruned: footprint.blocks_pruned,
                cost,
            });
            merged = Some(match merged.take() {
                None => partial,
                Some(acc) => merge_partials(acc, partial)?,
            });
        }
        let merged = merged.ok_or(EngineError::ShardUnavailable {
            shard: 0,
            replicas: 0,
        })?;
        let coordination = coordination(per_shard.len(), merge_groups);
        Ok(ShardOutcome {
            result: merged,
            elapsed: slowest + coordination,
            total_work: total_work + coordination,
            per_shard,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::partition::{partition_database, PartitionScheme};
    use ids_engine::{BinSpec, ColumnBuilder, Predicate, TableBuilder};

    fn db(rows: usize) -> Database {
        let db = Database::new();
        db.register(
            TableBuilder::new("t")
                .column(
                    "x",
                    ColumnBuilder::float((0..rows).map(|i| (i % 500) as f64)),
                )
                .column("k", ColumnBuilder::int((0..rows).map(|i| (i % 11) as i64)))
                .build()
                .unwrap(),
        );
        db
    }

    fn hist() -> Query {
        Query::histogram(
            "t",
            BinSpec::new("x", 0.0, 500.0, 25),
            Predicate::between("x", 50.0, 450.0),
        )
    }

    #[test]
    fn merged_result_matches_single_table_at_any_thread_count() {
        let source = db(20_000);
        let (expected, _) = run_query(&source, &hist()).unwrap();
        for scheme in [
            PartitionScheme::HashRows,
            PartitionScheme::hash_key("k"),
            PartitionScheme::range("x"),
        ] {
            for shards in [1usize, 4, 16] {
                let parts = partition_database(&source, &scheme, 17, shards).unwrap();
                let mut outcomes = Vec::new();
                for threads in [1usize, 3, 8] {
                    let sg = ScatterGather::over(parts.clone()).with_threads(threads);
                    outcomes.push(sg.execute(&hist()).unwrap());
                }
                for out in &outcomes {
                    assert_eq!(out.result, expected, "{scheme:?} x{shards}");
                    assert_eq!(out.shards(), shards);
                    assert_eq!(out.elapsed, outcomes[0].elapsed);
                    assert_eq!(out.total_work, outcomes[0].total_work);
                }
            }
        }
    }

    #[test]
    fn per_shard_breakdown_covers_all_rows() {
        let source = db(9_999);
        let parts = partition_database(&source, &PartitionScheme::HashRows, 0, 4).unwrap();
        let out = ScatterGather::over(parts)
            .execute(&Query::count("t", Predicate::True))
            .unwrap();
        assert_eq!(out.result.scalar_count(), Some(9_999));
        assert_eq!(
            out.per_shard.iter().map(|s| s.rows_scanned).sum::<u64>(),
            9_999
        );
    }

    #[test]
    fn latency_is_slowest_shard_plus_coordination() {
        let source = db(40_000);
        let parts = partition_database(&source, &PartitionScheme::HashRows, 0, 8).unwrap();
        let sg = ScatterGather::over(parts);
        let out = sg.execute(&hist()).unwrap();
        let slowest = out.per_shard.iter().map(|s| s.cost).max().unwrap();
        assert!(out.elapsed > slowest);
        assert!(out.elapsed < out.total_work);
    }

    #[test]
    fn selects_are_rejected_before_any_shard_runs() {
        let source = db(100);
        let parts = partition_database(&source, &PartitionScheme::HashRows, 0, 2).unwrap();
        let sg = ScatterGather::over(parts);
        let select = Query::select("t", vec![], Predicate::True, Some(5), 0);
        assert!(matches!(
            sg.execute(&select),
            Err(EngineError::TypeMismatch { .. })
        ));
    }

    #[test]
    fn range_partitioned_shards_prune_out_of_range_blocks() {
        let source = db(64_000);
        let parts = partition_database(&source, &PartitionScheme::range("x"), 0, 4).unwrap();
        let out = ScatterGather::over(parts)
            .execute(&Query::count("t", Predicate::between("x", 0.0, 100.0)))
            .unwrap();
        // Clustering preserved: shards whose range misses the predicate
        // prune everything via their zone maps.
        assert!(out.per_shard.iter().any(|s| s.blocks_pruned > 0));
    }
}
