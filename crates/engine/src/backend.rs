//! Execution backends: one logical query layer, two latency regimes.

use std::collections::HashMap;
use std::ops::Range;
use std::sync::{Arc, PoisonError, RwLock, RwLockReadGuard};

use ids_simclock::SimDuration;

use crate::buffer::{BufferPool, BufferPoolStats, EvictionPolicy};
use crate::cost::{CostModel, CostParams, LinearCostModel, QueryFootprint};
use crate::error::{EngineError, EngineResult};
use crate::exec::run_query;
use crate::page::Pager;
use crate::predicate::Predicate;
use crate::query::{page_window, Query};
use crate::result::ResultSet;
use crate::table::Table;

/// A registry of tables shared by backends, schedulers, and tests.
/// Cloning yields another handle to the same registry.
#[derive(Debug, Clone, Default)]
pub struct Database {
    inner: Arc<RwLock<DbInner>>,
}

#[derive(Debug, Default)]
struct DbInner {
    tables: HashMap<Arc<str>, (u32, Table)>,
    next_id: u32,
}

impl Database {
    /// Creates an empty registry.
    pub fn new() -> Database {
        Database::default()
    }

    /// `register` leaves the map valid at every step, so a lock poisoned
    /// by a panicking holder is recovered rather than propagated.
    fn read(&self) -> RwLockReadGuard<'_, DbInner> {
        self.inner.read().unwrap_or_else(PoisonError::into_inner)
    }

    /// Registers (or replaces) a table under its own name and returns its
    /// stable numeric id.
    pub fn register(&self, table: Table) -> u32 {
        let mut inner = self.inner.write().unwrap_or_else(PoisonError::into_inner);
        let name: Arc<str> = Arc::from(table.name());
        if let Some(existing_id) = inner.tables.get(&name).map(|(id, _)| *id) {
            inner.tables.insert(name, (existing_id, table));
            return existing_id;
        }
        let id = inner.next_id;
        inner.next_id += 1;
        inner.tables.insert(name, (id, table));
        id
    }

    /// Fetches a table by name (cheap clone of column handles).
    pub fn table(&self, name: &str) -> EngineResult<Table> {
        self.table_with_id(name).map(|(_, t)| t)
    }

    /// A table and the numeric id assigned to it, in one lookup.
    pub fn table_with_id(&self, name: &str) -> EngineResult<(u32, Table)> {
        self.read()
            .tables
            .get(name)
            .cloned()
            .ok_or_else(|| EngineError::UnknownTable(name.to_string()))
    }

    /// Names of all registered tables.
    pub fn table_names(&self) -> Vec<String> {
        self.read().tables.keys().map(|k| k.to_string()).collect()
    }
}

/// How trustworthy a query's answer is, for consumers that must decide
/// whether to render, annotate, or discard it.
///
/// Healthy execution always yields [`ResultQuality::Exact`]. The degraded
/// paths (latency-budget truncation in the resilient scheduler, node loss
/// in the cluster) return approximate answers instead of blocking, and
/// mark them so the frontend can badge the view.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ResultQuality {
    /// The full, exact answer.
    Exact,
    /// An estimate extrapolated from a fraction of the data (progressive
    /// truncation, deadline-bounded refinement, or surviving cluster
    /// partitions).
    Partial {
        /// Fraction of the data actually consumed, in `(0, 1)`.
        fraction: f64,
        /// Conservative absolute error bound: every value in the
        /// reported result is within this many rows of the exact
        /// answer. Producers must report a sound (finite, non-negative)
        /// bound; the simtest partial-bounds oracle verifies it.
        error_bound: f64,
    },
    /// Execution failed terminally; the result is a placeholder (empty)
    /// answer emitted so the session can continue.
    Failed,
}

impl ResultQuality {
    /// `true` unless the result is exact.
    pub fn is_degraded(&self) -> bool {
        !matches!(self, ResultQuality::Exact)
    }
}

/// Result of executing one query on a backend: the answer, the work done,
/// and the *virtual* execution time.
#[derive(Debug, Clone)]
pub struct QueryOutcome {
    /// The query answer.
    pub result: ResultSet,
    /// Work counters (including page I/O for disk backends).
    pub footprint: QueryFootprint,
    /// Virtual execution time charged by the backend's cost model.
    pub cost: SimDuration,
    /// Whether the answer is exact or a degraded-mode approximation.
    pub quality: ResultQuality,
}

impl QueryOutcome {
    /// Convenience accessor mirroring `ResultSet::scalar_count`.
    pub fn scalar_count(&self) -> Option<u64> {
        self.result.scalar_count()
    }
}

/// A query execution backend with a deterministic virtual-time cost.
pub trait Backend: Send + Sync {
    /// Short backend name ("mem", "disk"), used in experiment reports.
    fn name(&self) -> &str;
    /// A handle to the backend's table registry.
    fn database(&self) -> Database;
    /// Executes a query and prices its cost.
    fn execute(&self, query: &Query) -> EngineResult<QueryOutcome>;
}

/// In-memory columnar backend — the MemSQL role in case study 2.
#[derive(Debug)]
pub struct MemBackend {
    db: Database,
    model: LinearCostModel,
}

impl Default for MemBackend {
    fn default() -> Self {
        Self::new()
    }
}

impl MemBackend {
    /// Creates a backend with the default in-memory cost calibration.
    pub fn new() -> MemBackend {
        MemBackend::with_params(CostParams::mem_default())
    }

    /// Creates a backend with explicit cost parameters.
    pub fn with_params(params: CostParams) -> MemBackend {
        MemBackend {
            db: Database::new(),
            model: LinearCostModel::new(params),
        }
    }

    /// Creates a backend over an existing registry (sharing tables with
    /// another backend, as the paper's study runs both DBMSs on one
    /// dataset).
    pub fn over(db: Database) -> MemBackend {
        Self::over_with(db, CostParams::mem_default())
    }

    /// Creates a backend over an existing registry with explicit cost
    /// parameters.
    pub fn over_with(db: Database, params: CostParams) -> MemBackend {
        MemBackend {
            db,
            model: LinearCostModel::new(params),
        }
    }
}

impl Backend for MemBackend {
    fn name(&self) -> &str {
        "mem"
    }

    fn database(&self) -> Database {
        self.db.clone()
    }

    fn execute(&self, query: &Query) -> EngineResult<QueryOutcome> {
        let (result, footprint) = run_query(&self.db, query)?;
        let cost = self.model.price(&footprint);
        Ok(QueryOutcome {
            result,
            footprint,
            cost,
            quality: ResultQuality::Exact,
        })
    }
}

/// Disk-based row-store backend — the PostgreSQL role in case study 2.
///
/// Every scan is routed through a [`BufferPool`]; cold pages are charged
/// at disk-read cost, resident pages at buffered cost.
#[derive(Debug)]
pub struct DiskBackend {
    db: Database,
    model: LinearCostModel,
    pool: BufferPool,
}

impl Default for DiskBackend {
    fn default() -> Self {
        Self::new()
    }
}

impl DiskBackend {
    /// Default pool capacity in pages (32 MiB at 8 KiB pages).
    pub const DEFAULT_POOL_PAGES: usize = 4_096;

    /// Creates a backend with the default disk calibration and pool.
    pub fn new() -> DiskBackend {
        DiskBackend::with_config(
            CostParams::disk_default(),
            Self::DEFAULT_POOL_PAGES,
            EvictionPolicy::Lru,
        )
    }

    /// Creates a backend with explicit cost and pool configuration.
    pub fn with_config(
        params: CostParams,
        pool_pages: usize,
        policy: EvictionPolicy,
    ) -> DiskBackend {
        DiskBackend {
            db: Database::new(),
            model: LinearCostModel::new(params),
            pool: BufferPool::new(pool_pages, policy),
        }
    }

    /// Creates a backend over an existing registry.
    pub fn over(db: Database) -> DiskBackend {
        Self::over_with(db, CostParams::disk_default())
    }

    /// Creates a backend over an existing registry with explicit cost
    /// parameters and the default pool.
    pub fn over_with(db: Database, params: CostParams) -> DiskBackend {
        DiskBackend {
            db,
            model: LinearCostModel::new(params),
            pool: BufferPool::new(Self::DEFAULT_POOL_PAGES, EvictionPolicy::Lru),
        }
    }

    /// Buffer pool statistics (the paper's cache-hit-rate metric).
    pub fn pool_stats(&self) -> BufferPoolStats {
        self.pool.stats()
    }

    /// Drops the buffer pool contents (cold restart).
    pub fn flush_pool(&self) {
        self.pool.reset();
    }

    /// Charges page touches for scanning `rows` of the table registered
    /// as `id` and returns `(hits, misses)`.
    fn charge_scan(&self, id: u32, table: &Table, rows: Range<usize>) -> (u64, u64) {
        let pager = Pager::new(table.rows(), table.row_disk_width());
        self.pool
            .touch_range(id, pager.pages_for_range(rows.start, rows.end))
    }
}

impl Backend for DiskBackend {
    fn name(&self) -> &str {
        "disk"
    }

    fn database(&self) -> Database {
        self.db.clone()
    }

    fn execute(&self, query: &Query) -> EngineResult<QueryOutcome> {
        let (result, mut footprint) = run_query(&self.db, query)?;

        // Charge page I/O for every base-table scan the query performed.
        let (hits, misses) = match query {
            Query::Select(spec) => {
                let (id, table) = self.db.table_with_id(&spec.table)?;
                // Early-terminating scans touch only the leading pages.
                let rows = match &spec.filter {
                    Predicate::True => footprint.rows_scanned as usize,
                    _ => table.rows(),
                };
                self.charge_scan(id, &table, 0..rows)
            }
            Query::Join(spec) => {
                let (left_id, left) = self.db.table_with_id(&spec.left)?;
                let (right_id, right) = self.db.table_with_id(&spec.right)?;
                // The paginated left side touches its slice's pages; the
                // probe side is a full scan.
                let page = page_window(spec.limit, spec.offset, left.rows());
                let (lh, lm) = self.charge_scan(left_id, &left, page);
                let (rh, rm) = self.charge_scan(right_id, &right, 0..right.rows());
                (lh + rh, lm + rm)
            }
            Query::Histogram { table, .. } | Query::Count { table, .. } => {
                let (id, table) = self.db.table_with_id(table)?;
                self.charge_scan(id, &table, 0..table.rows())
            }
        };
        footprint.pages_hot = hits;
        footprint.pages_cold = misses;

        // Telemetry only — must not affect the outcome. Samples are
        // stamped with the virtual time published by the scheduler.
        let rec = ids_obs::recorder();
        if rec.is_enabled() {
            let now = rec.vnow();
            let stats = self.pool.stats();
            rec.record_counter("engine.buffer.hit_rate", now, stats.hit_rate());
            rec.record_counter(
                "engine.buffer.resident_pages",
                now,
                self.pool.resident() as f64,
            );
            if misses > 0 {
                let track = rec.track("engine.buffer");
                rec.record_instant(
                    "buffer",
                    "fault",
                    track,
                    now,
                    vec![
                        ("pages_cold", ids_obs::ArgValue::U64(misses)),
                        ("pages_hot", ids_obs::ArgValue::U64(hits)),
                    ],
                );
            }
        }

        let cost = self.model.price(&footprint);
        Ok(QueryOutcome {
            result,
            footprint,
            cost,
            quality: ResultQuality::Exact,
        })
    }
}

/// A backend decorator that retries transient failures of its inner
/// backend, charging each retry's backoff into the final outcome's
/// virtual cost.
///
/// The schedule is fixed: 3 attempts, waiting 5 ms before the first
/// retry and twice that before the second, so an exhausted query has
/// waited 15 ms, well inside the ~100 ms interactivity budget the paper
/// uses.
///
/// Deterministic: the retry schedule depends only on the inner backend's
/// (deterministic) failure decisions, never on wall time.
pub struct RetryingBackend<'a> {
    inner: &'a (dyn Backend + Sync),
    name: String,
    retries: Arc<ids_obs::Counter>,
    exhausted: Arc<ids_obs::Counter>,
}

impl<'a> RetryingBackend<'a> {
    /// Total execution attempts, the first included.
    const RETRY_ATTEMPTS: u32 = 3;
    /// Virtual-time wait before the first retry; each later retry waits
    /// twice as long as the one before.
    const FIRST_BACKOFF: SimDuration = SimDuration::from_millis(5);

    /// Wraps `inner`.
    pub fn new(inner: &'a (dyn Backend + Sync)) -> RetryingBackend<'a> {
        let reg = ids_obs::metrics();
        RetryingBackend {
            name: format!("retry({})", inner.name()),
            inner,
            retries: reg.counter("engine.retry.attempts"),
            exhausted: reg.counter("engine.retry.exhausted"),
        }
    }
}

impl Backend for RetryingBackend<'_> {
    fn name(&self) -> &str {
        &self.name
    }

    fn database(&self) -> Database {
        self.inner.database()
    }

    fn execute(&self, query: &Query) -> EngineResult<QueryOutcome> {
        let mut waited = SimDuration::ZERO;
        let mut backoff = Self::FIRST_BACKOFF;
        for attempt in 1..=Self::RETRY_ATTEMPTS {
            match self.inner.execute(query) {
                Ok(mut outcome) => {
                    outcome.cost += waited;
                    return Ok(outcome);
                }
                Err(err) if err.is_transient() && attempt < Self::RETRY_ATTEMPTS => {
                    self.retries.inc();
                    waited += backoff;
                    backoff += backoff;
                }
                Err(err) => {
                    if err.is_transient() {
                        self.exhausted.inc();
                    }
                    return Err(err);
                }
            }
        }
        unreachable!("loop returns on the last attempt")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::column::ColumnBuilder;
    use crate::query::BinSpec;
    use crate::table::TableBuilder;

    fn road(n: usize) -> Table {
        TableBuilder::new("road")
            .column("x", ColumnBuilder::float((0..n).map(|i| i as f64)))
            .column("y", ColumnBuilder::float((0..n).map(|i| (i * 2) as f64)))
            .build()
            .unwrap()
    }

    #[test]
    fn database_registry() {
        let db = Database::new();
        let id = db.register(road(10));
        assert_eq!(db.table_with_id("road").unwrap().0, id);
        assert_eq!(db.table("road").unwrap().rows(), 10);
        assert!(db.table("nope").is_err());
        // Re-registering keeps the id.
        let id2 = db.register(road(20));
        assert_eq!(id, id2);
        assert_eq!(db.table("road").unwrap().rows(), 20);
        assert_eq!(db.table_names(), vec!["road".to_string()]);
    }

    #[test]
    fn mem_and_disk_agree_on_results() {
        let mem = MemBackend::new();
        mem.database().register(road(1000));
        let disk = DiskBackend::new();
        disk.database().register(road(1000));

        let q = Query::histogram(
            "road",
            BinSpec::new("y", 0.0, 2000.0, 20),
            Predicate::between("x", 100.0, 499.0),
        );
        let a = mem.execute(&q).unwrap();
        let b = disk.execute(&q).unwrap();
        assert_eq!(a.result, b.result);
        assert!(b.cost > a.cost, "disk must be slower than mem");
    }

    #[test]
    fn disk_warms_its_buffer_pool() {
        let disk = DiskBackend::new();
        disk.database().register(road(100_000));
        let q = Query::count("road", Predicate::True);
        let cold = disk.execute(&q).unwrap();
        let warm = disk.execute(&q).unwrap();
        assert!(cold.footprint.pages_cold > 0);
        assert_eq!(warm.footprint.pages_cold, 0);
        assert!(warm.footprint.pages_hot > 0);
        assert!(warm.cost < cold.cost);
        assert!(disk.pool_stats().hit_rate() > 0.0);
        disk.flush_pool();
        let recold = disk.execute(&q).unwrap();
        assert!(recold.footprint.pages_cold > 0);
    }

    #[test]
    fn early_terminating_select_touches_few_pages() {
        let disk = DiskBackend::new();
        disk.database().register(road(100_000));
        let q = Query::select("road", vec![], Predicate::True, Some(100), 0);
        let out = disk.execute(&q).unwrap();
        let full = disk
            .execute(&Query::count("road", Predicate::True))
            .unwrap();
        assert!(
            out.footprint.pages_cold + out.footprint.pages_hot
                < full.footprint.pages_cold + full.footprint.pages_hot
        );
    }

    #[test]
    fn shared_registry_across_backends() {
        let db = Database::new();
        db.register(road(50));
        let mem = MemBackend::over(db.clone());
        let disk = DiskBackend::over(db);
        let q = Query::count("road", Predicate::True);
        assert_eq!(mem.execute(&q).unwrap().scalar_count(), Some(50));
        assert_eq!(disk.execute(&q).unwrap().scalar_count(), Some(50));
    }
}
