//! Deterministic scatter-gather execution over a set of shard
//! databases.
//!
//! The executor scatters one mergeable query (COUNT or histogram — the
//! shapes the engine's fused filter+bin / filter+probe kernels serve)
//! to every shard, runs the shard fragments on the calling thread and
//! on the executor's long-lived helper threads, and gathers the
//! partials **in fixed shard order**. Threads only decide *when* a
//! shard runs, never *what* it contributes or *where* its partial sits
//! in the merge, so the merged result, the virtual costs, and the
//! recorded telemetry are byte-identical at any thread count.
//!
//! Every shard fragment runs through [`ids_engine::exec::run_query`],
//! the engine's only executor.
//!
//! Virtual time: each shard's compute cost is priced by the engine's
//! [`LinearCostModel`] on that shard's real footprint; plan latency is
//! the *slowest* shard plus the coordination term (`coordination`)
//! that does not parallelize. That is exactly the shape the paper's
//! scalability guideline predicts: near linear to ~8 shards, then
//! coordination-bound.
//!
//! [`ShardedCluster`] is the partition step and the executor in one
//! value: what `experiments::scalability` sweeps over node counts.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex};

use ids_engine::distributed::merge_partials;
use ids_engine::exec::run_query;
use ids_engine::{
    CostModel, CostParams, Database, EngineError, EngineResult, LinearCostModel, Query,
    QueryFootprint, ResultSet,
};
use ids_simclock::SimDuration;

use crate::partition::{partition_database, PartitionScheme};

/// Coordination cost of gathering `nodes` partials totalling
/// `merge_groups` groups: the part of a scatter-gather plan that does
/// *not* get faster with more shards. Calibrated for near-linear speedup
/// to ~8 nodes and diminishing returns beyond — the DICE shape.
fn coordination(nodes: usize, merge_groups: u64) -> SimDuration {
    const COORDINATOR_NS: u64 = 1_000_000; // fixed coordinator startup
    const PER_NODE_NS: u64 = 500_000; // scheduling, result collection
    const MERGE_PER_GROUP_NS: u64 = 10_000; // one partial group from one node
    SimDuration::from_micros(
        (COORDINATOR_NS + PER_NODE_NS * nodes as u64 + MERGE_PER_GROUP_NS * merge_groups) / 1_000,
    )
}

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

type Partial = EngineResult<(ResultSet, QueryFootprint)>;

/// One statement's scatter, owned by every thread that drains it, so a
/// helper that wakes after the statement returned touches only the `Arc`.
struct Scatter {
    shards: Arc<[Database]>,
    query: Query,
    /// Next shard to claim; partials are published through `slots`.
    next: AtomicUsize,
    slots: Mutex<Vec<Option<Partial>>>,
    all_filled: Condvar,
}

impl Scatter {
    /// Runs shards off the cursor until it runs out. A fragment reads no
    /// obs state, the clock included (`gather` stamps shard spans on the
    /// caller). A panicking fragment fills its slot with
    /// `SchedulerClosed`: the thread survives.
    fn drain(&self) {
        loop {
            let shard = self.next.fetch_add(1, Ordering::Relaxed);
            let Some(db) = self.shards.get(shard) else {
                return;
            };
            let partial = catch_unwind(AssertUnwindSafe(|| run_query(db, &self.query)))
                .unwrap_or(Err(EngineError::SchedulerClosed));
            let mut slots = self.slots.lock().expect("no fragment runs under it");
            slots[shard] = Some(partial);
            if slots.iter().all(Option::is_some) {
                self.all_filled.notify_one();
            }
        }
    }
}

/// Helper threads that live as long as their executor, each blocked on
/// its own channel; dropping them closes each channel and joins.
#[derive(Debug, Default)]
struct Helpers(Vec<(mpsc::Sender<Arc<Scatter>>, std::thread::JoinHandle<()>)>);

impl Helpers {
    /// Starts up to `n` helpers; one that fails to spawn is left out,
    /// and the caller drains its shards instead.
    fn start(n: usize) -> Helpers {
        let spawn = |i| {
            let (tx, rx) = mpsc::channel::<Arc<Scatter>>();
            std::thread::Builder::new()
                .name(format!("scatter-gather-{i}"))
                .spawn(move || rx.iter().for_each(|scatter| scatter.drain()))
                .ok()
                .map(|thread| (tx, thread))
        };
        Helpers((0..n).filter_map(spawn).collect())
    }
}

impl Drop for Helpers {
    fn drop(&mut self) {
        for (tasks, thread) in self.0.drain(..) {
            drop(tasks);
            let _ = thread.join(); // a helper catches every fragment panic
        }
    }
}

/// Scatter-gather executor over pre-partitioned shard databases.
#[derive(Debug)]
pub struct ScatterGather {
    shards: Arc<[Database]>,
    model: LinearCostModel,
    helpers: Helpers,
}

impl ScatterGather {
    /// Executor over `shards` databases with disk-calibrated node costs
    /// and the default coordination model.
    pub fn over(shards: Vec<Database>) -> ScatterGather {
        ScatterGather {
            shards: shards.into(),
            model: LinearCostModel::new(CostParams::disk_default()),
            helpers: Helpers::default(),
        }
    }

    /// Replaces the per-node cost calibration.
    pub fn with_costs(mut self, costs: CostParams) -> ScatterGather {
        self.model = LinearCostModel::new(costs);
        self
    }

    /// Runs shards on the caller plus up to `threads - 1` helper threads
    /// kept until the executor drops. Wall-clock only: results, virtual
    /// costs, and telemetry do not depend on it.
    pub fn with_threads(mut self, threads: usize) -> ScatterGather {
        self.helpers = Helpers::start(threads.min(self.shards.len()).saturating_sub(1));
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
    ///
    /// Spawns nothing: the caller drains shards beside the helpers and
    /// never waits for a helper that woke too late to claim one.
    pub fn execute(&self, query: &Query) -> EngineResult<ShardOutcome> {
        // Only COUNTs and histograms merge under a row partition;
        // paginated selects and joins would need a shuffle, which this
        // engine intentionally does not model.
        if !matches!(query, Query::Count { .. } | Query::Histogram { .. }) {
            return Err(EngineError::TypeMismatch {
                column: query.table().to_string(),
                expected: "a mergeable query (COUNT or histogram) for distributed execution",
            });
        }
        let scatter = Arc::new(Scatter {
            shards: Arc::clone(&self.shards),
            query: query.clone(),
            next: AtomicUsize::new(0),
            slots: Mutex::new((0..self.shards.len()).map(|_| None).collect()),
            all_filled: Condvar::new(),
        });
        for (tasks, _) in &self.helpers.0 {
            // A helper that has exited leaves its shards to the caller.
            let _ = tasks.send(Arc::clone(&scatter));
        }
        scatter.drain();
        let slots = scatter.slots.lock().expect("no fragment runs under it");
        let mut slots = scatter
            .all_filled
            .wait_while(slots, |slots| slots.iter().any(Option::is_none))
            .expect("no fragment runs under it");
        let partials = slots
            .iter_mut()
            .filter_map(Option::take)
            .collect::<EngineResult<_>>()?;
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
        let merged = merged.ok_or_else(|| EngineError::TypeMismatch {
            column: query.table().to_string(),
            expected: "at least one shard for distributed execution",
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

/// A database partitioned into shards, with the executor over them.
#[derive(Debug)]
pub struct ShardedCluster {
    executor: ScatterGather,
}

impl ShardedCluster {
    /// Partitions `db` under `scheme` into `shards` shards.
    pub fn partition(
        db: &Database,
        scheme: PartitionScheme,
        seed: u64,
        shards: usize,
    ) -> EngineResult<ShardedCluster> {
        let parts = partition_database(db, &scheme, seed, shards)?;
        Ok(ShardedCluster {
            executor: ScatterGather::over(parts),
        })
    }

    /// Runs shards on up to `threads` worker threads (wall-clock only;
    /// results and virtual costs are thread-count invariant).
    pub fn with_threads(mut self, threads: usize) -> ShardedCluster {
        self.executor = self.executor.with_threads(threads);
        self
    }

    /// The scatter-gather executor (and through it the shard
    /// databases).
    pub fn executor(&self) -> &ScatterGather {
        &self.executor
    }

    /// Executes `query` on every shard.
    pub fn execute(&self, query: &Query) -> EngineResult<ShardOutcome> {
        self.executor.execute(query)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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

    /// Shard `i`'s row of the breakdown is partition `i`'s own footprint,
    /// as a lone run on that partition counts it: range partitions of `x`
    /// under a filter the first shard scans and the others prune, and
    /// key-hash partitions of unequal sizes. Neither list of footprints
    /// reads the same reversed, so a shard labelled with another's shows.
    #[test]
    fn each_shard_reports_its_own_partitions_footprint() {
        let source = db(64_000);
        let q = Query::count("t", Predicate::between("x", 0.0, 100.0));
        for scheme in [PartitionScheme::range("x"), PartitionScheme::hash_key("k")] {
            let parts = partition_database(&source, &scheme, 3, 4).unwrap();
            let own = |(i, part): (usize, &Database)| {
                let (_, fp) = run_query(part, &q).unwrap();
                (i, fp.rows_scanned, fp.blocks_pruned)
            };
            let want: Vec<_> = parts.iter().enumerate().map(own).collect();
            let footprints = want.iter().map(|&(_, rows, pruned)| (rows, pruned));
            assert!(footprints.clone().ne(footprints.rev()), "{scheme:?}");
            let out = ScatterGather::over(parts).execute(&q).unwrap();
            let got = out
                .per_shard
                .iter()
                .map(|s| (s.shard, s.rows_scanned, s.blocks_pruned));
            assert_eq!(got.collect::<Vec<_>>(), want, "{scheme:?}");
        }
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
    fn zero_shards_is_a_typed_error() {
        let count = Query::count("t", Predicate::True);
        assert!(matches!(
            ScatterGather::over(vec![]).execute(&count),
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
