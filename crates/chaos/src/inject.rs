//! The fault injector: a [`Backend`] decorator that consults a
//! [`FaultPlan`] on every execution.
//!
//! [`ChaosBackend`] sits between a scheduler (or any other executor) and
//! the real backend. On each `execute` it reads the current *virtual*
//! time — published on the calling thread by the replay loops via
//! [`ids_obs::set_vnow`] — and applies whatever the plan says is active
//! at that instant: transient failures surface as
//! [`EngineError::TransientFailure`], latency spikes multiply the
//! outcome's cost, stalls pin completion to the window end, and
//! buffer-pressure windows evict an attached disk backend's pool.
//! Every injection is counted in the metrics registry and, when the
//! recorder is on, marked as a trace instant on a `chaos` track.

use std::collections::HashMap;
use std::sync::{Arc, Mutex, PoisonError};

use ids_engine::{Backend, Database, DiskBackend, EngineError, EngineResult, Query, QueryOutcome};

use crate::plan::{query_fingerprint, FaultPlan};

/// A backend decorator injecting the faults a [`FaultPlan`] prescribes.
///
/// Attempt counting: under a positive failure rate the injector keeps
/// one counter per query fingerprint, so re-executions of the same query
/// (scheduler retries, repeated slider positions) advance through the
/// plan's per-attempt failure decisions deterministically.
pub struct ChaosBackend<'a> {
    inner: &'a (dyn Backend + Sync),
    plan: FaultPlan,
    /// Flushed on buffer-pressure windows when attached.
    pressure_target: Option<&'a DiskBackend>,
    /// Per-fingerprint execution attempt counts.
    attempts: Mutex<HashMap<u64, u32>>,
    /// Buffer-pressure windows already triggered (flush once per window).
    triggered_pressure: Mutex<Vec<usize>>,
    name: String,
    failures: Arc<ids_obs::Counter>,
    spikes: Arc<ids_obs::Counter>,
    stalls: Arc<ids_obs::Counter>,
    stall_wait_us: Arc<ids_obs::Counter>,
    flushes: Arc<ids_obs::Counter>,
}

impl<'a> ChaosBackend<'a> {
    /// Wraps `inner`, injecting faults from `plan`.
    pub fn new(inner: &'a (dyn Backend + Sync), plan: FaultPlan) -> ChaosBackend<'a> {
        let reg = ids_obs::metrics();
        ChaosBackend {
            name: format!("chaos({})", inner.name()),
            inner,
            plan,
            pressure_target: None,
            attempts: Mutex::new(HashMap::new()),
            triggered_pressure: Mutex::new(Vec::new()),
            failures: reg.counter("chaos.failures_injected"),
            spikes: reg.counter("chaos.spiked_queries"),
            stalls: reg.counter("chaos.stalled_queries"),
            stall_wait_us: reg.counter("chaos.stall_wait_us"),
            flushes: reg.counter("chaos.pool_flushes"),
        }
    }

    /// Attaches the disk backend whose buffer pool the plan's
    /// buffer-pressure windows evict. Without a target those windows are
    /// inert (the mem backend has no pool to pressure).
    pub fn with_pressure_target(mut self, disk: &'a DiskBackend) -> ChaosBackend<'a> {
        self.pressure_target = Some(disk);
        self
    }

    /// The plan this injector executes.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// Marks an injection on the trace timeline, naming the query by its
    /// fingerprint (no-op, and no fingerprint, when disabled).
    fn record_injection(&self, what: &str, at: ids_simclock::SimTime, query: &Query) {
        let rec = ids_obs::recorder();
        if !rec.is_enabled() {
            return;
        }
        let track = rec.track("chaos");
        rec.record_instant(
            "chaos",
            what.to_string(),
            track,
            at,
            vec![("query", ids_obs::ArgValue::U64(query_fingerprint(query)))],
        );
    }
}

impl Backend for ChaosBackend<'_> {
    fn name(&self) -> &str {
        &self.name
    }

    fn database(&self) -> Database {
        self.inner.database()
    }

    fn execute(&self, query: &Query) -> EngineResult<QueryOutcome> {
        let now = ids_obs::vnow();

        // Buffer pressure first: entering a pressure window cold-starts
        // the pool before this query's scan charges page I/O.
        if let (Some(window), Some(disk)) =
            (self.plan.pressure_window_at(now), self.pressure_target)
        {
            let mut triggered = self
                .triggered_pressure
                .lock()
                .unwrap_or_else(PoisonError::into_inner);
            if !triggered.contains(&window) {
                triggered.push(window);
                disk.flush_pool();
                self.flushes.inc();
                self.record_injection("buffer_pressure", now, query);
            }
        }

        // Formatting a query to fingerprint it costs more than a cheap
        // execution; a plan that never fails never reads the attempts.
        if self.plan.failure_rate() > 0.0 {
            let fp = query_fingerprint(query);
            let attempt = {
                let mut attempts = self.attempts.lock().unwrap_or_else(PoisonError::into_inner);
                let slot = attempts.entry(fp).or_insert(0);
                let attempt = *slot;
                *slot += 1;
                attempt
            };
            if self.plan.should_fail(fp, attempt) {
                self.failures.inc();
                self.record_injection("transient_failure", now, query);
                return Err(EngineError::TransientFailure {
                    reason: format!("injected fault (attempt {attempt})"),
                });
            }
        }

        let mut outcome = self.inner.execute(query)?;
        let multiplier = self.plan.cost_multiplier_at(now);
        if multiplier > 1.0 {
            outcome.cost = outcome.cost.mul_f64(multiplier);
            self.spikes.inc();
            self.record_injection("latency_spike", now, query);
        }
        if let Some(until) = self.plan.stall_until(now) {
            let extra = until.saturating_since(now);
            outcome.cost += extra;
            self.stalls.inc();
            self.stall_wait_us.add(extra.as_micros());
            self.record_injection("stall", now, query);
        }
        Ok(outcome)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ids_engine::{ColumnBuilder, CostParams, MemBackend, Predicate, TableBuilder};
    use ids_simclock::{SimDuration, SimTime};

    fn backend(rows: usize) -> MemBackend {
        let b = MemBackend::with_params(CostParams {
            startup_ns: 10_000_000, // 10 ms per query
            page_cold_ns: 0,
            page_hot_ns: 0,
            tuple_scan_ns: 0,
            tuple_agg_ns: 0,
            join_build_ns: 0,
            join_probe_ns: 0,
            row_output_ns: 0,
            predicate_eval_ns: 0,
        });
        b.database().register(
            TableBuilder::new("t")
                .column("x", ColumnBuilder::float((0..rows).map(|i| i as f64)))
                .build()
                .unwrap(),
        );
        b
    }

    fn q() -> Query {
        Query::count("t", Predicate::True)
    }

    #[test]
    fn calm_plan_is_transparent() {
        let inner = backend(100);
        let chaos = ChaosBackend::new(&inner, FaultPlan::calm(1));
        ids_obs::set_vnow(SimTime::from_millis(5));
        let direct = inner.execute(&q()).unwrap();
        let wrapped = chaos.execute(&q()).unwrap();
        assert_eq!(wrapped.result, direct.result);
        assert_eq!(wrapped.cost, direct.cost);
        assert_eq!(chaos.database().table("t").unwrap().rows(), 100);
        assert!(chaos.name().starts_with("chaos("));
    }

    #[test]
    fn spike_multiplies_cost_inside_window_only() {
        let inner = backend(100);
        let plan = FaultPlan::builder(2)
            .latency_spike(SimTime::from_millis(100), SimDuration::from_millis(50), 3.0)
            .build();
        let chaos = ChaosBackend::new(&inner, plan);
        ids_obs::set_vnow(SimTime::from_millis(10));
        let outside = chaos.execute(&q()).unwrap();
        ids_obs::set_vnow(SimTime::from_millis(120));
        let inside = chaos.execute(&q()).unwrap();
        assert_eq!(inside.cost, outside.cost.mul_f64(3.0));
        assert_eq!(
            inside.result, outside.result,
            "faults never corrupt answers"
        );
    }

    #[test]
    fn stall_pins_completion_to_window_end() {
        let inner = backend(100);
        let plan = FaultPlan::builder(3)
            .stall(SimTime::from_millis(100), SimDuration::from_millis(200))
            .build();
        let chaos = ChaosBackend::new(&inner, plan);
        ids_obs::set_vnow(SimTime::from_millis(150));
        let stalled = chaos.execute(&q()).unwrap();
        // 10 ms of work + 150 ms left in the stall window.
        assert_eq!(stalled.cost.as_millis(), 160);
    }

    #[test]
    fn transient_failures_fire_then_clear_on_retry() {
        let inner = backend(100);
        // Rate 1.0 on attempt parity via hash is not controllable, so use
        // rate 1.0: every attempt fails.
        let all_fail = ChaosBackend::new(
            &inner,
            FaultPlan::builder(4).transient_failures(1.0).build(),
        );
        ids_obs::set_vnow(SimTime::ZERO);
        let err = all_fail.execute(&q()).unwrap_err();
        assert!(err.is_transient());
        // At a moderate rate, retrying the same query eventually succeeds
        // because the attempt counter advances the hash axis.
        let flaky = ChaosBackend::new(
            &inner,
            FaultPlan::builder(4).transient_failures(0.6).build(),
        );
        let ok = (0..32).any(|_| flaky.execute(&q()).is_ok());
        assert!(ok, "32 attempts at rate 0.6 virtually surely succeed once");
    }

    #[test]
    fn buffer_pressure_evicts_attached_pool_once_per_window() {
        let disk = DiskBackend::over(backend(50_000).database());
        let plan = FaultPlan::builder(5)
            .buffer_pressure(SimTime::from_millis(100), SimDuration::from_millis(50))
            .build();
        let chaos = ChaosBackend::new(&disk, plan).with_pressure_target(&disk);
        // Warm the pool outside the window.
        ids_obs::set_vnow(SimTime::from_millis(10));
        chaos.execute(&q()).unwrap();
        let warm = chaos.execute(&q()).unwrap();
        assert_eq!(warm.footprint.pages_cold, 0, "pool is warm");
        // Inside the window the pool is evicted: pages go cold again.
        ids_obs::set_vnow(SimTime::from_millis(120));
        let pressured = chaos.execute(&q()).unwrap();
        assert!(pressured.footprint.pages_cold > 0, "flush re-chilled pool");
        // But only once per window: the next query re-warms.
        let rewarmed = chaos.execute(&q()).unwrap();
        assert_eq!(rewarmed.footprint.pages_cold, 0);
    }

    #[test]
    fn injection_instants_name_the_query_fingerprint() {
        use ids_obs::{ArgValue, TraceEvent};
        // The mem backend records no instants of its own; the disk over
        // the same tables is only the pressure target.
        let inner = backend(100);
        let disk = DiskBackend::over(inner.database());
        let plan = FaultPlan::builder(8)
            .latency_spike(SimTime::from_millis(100), SimDuration::from_millis(50), 2.0)
            .stall(SimTime::from_millis(200), SimDuration::from_millis(50))
            .buffer_pressure(SimTime::from_millis(300), SimDuration::from_millis(50))
            .transient_failures(0.5)
            .build();
        let chaos = ChaosBackend::new(&inner, plan).with_pressure_target(&disk);
        let rec = ids_obs::recorder();
        rec.enable();
        let mut kinds = std::collections::BTreeSet::new();
        for window_ms in [120, 220, 320] {
            ids_obs::set_vnow(SimTime::from_millis(window_ms));
            for hi in 0..8 {
                let q = Query::count("t", Predicate::between("x", 0.0, f64::from(hi)));
                let mark = rec.event_count();
                let _ = chaos.execute(&q);
                for event in rec.events_since(mark) {
                    if let TraceEvent::Instant { name, args, .. } = event {
                        assert_eq!(args, [("query", ArgValue::U64(query_fingerprint(&q)))]);
                        kinds.insert(name);
                    }
                }
            }
        }
        rec.disable();
        assert_eq!(kinds.len(), 4, "every injection kind fired: {kinds:?}");
    }

    #[test]
    fn retrying_backend_rides_through_injected_failures() {
        use ids_engine::{ResultQuality, RetryingBackend};
        let inner = backend(100);
        let chaos = ChaosBackend::new(
            &inner,
            FaultPlan::builder(6).transient_failures(0.4).build(),
        );
        let retrying = RetryingBackend::new(&chaos);
        ids_obs::set_vnow(SimTime::ZERO);
        let mut successes = 0;
        for _ in 0..50 {
            if let Ok(out) = retrying.execute(&q()) {
                successes += 1;
                assert_eq!(out.scalar_count(), Some(100));
                assert_eq!(out.quality, ResultQuality::Exact);
            }
        }
        assert!(
            successes >= 45,
            "3 attempts at rate 0.4 fail ~6% of the time, got {successes}/50"
        );
    }
}
