//! Virtual-time query scheduling: replaying an issued-query stream
//! through a multi-worker FIFO queue.
//!
//! This is the substrate for the paper's **latency constraint violation**
//! analysis (Fig 2): when a user issues queries faster than the backend
//! drains them, execution delay cascades — Q4's perceived latency includes
//! the queueing time behind Q1–Q3. The scheduler computes, for every query
//! in a trace, when it started (queue head reached + worker free) and when
//! it finished, in *virtual* time.
//!
//! A replay runs under a [`ResiliencePolicy`]: [`Rigid`] answers in full
//! however late, [`DegradeAfter`] cuts an over-budget query to a partial
//! estimate and [`Deadline`] refines one progressively up to its budget.
//! The cut is one rule, [`over_budget_fraction`], which the serving
//! layer's deadline routing applies as well.
//!
//! [`Rigid`]: ResiliencePolicy::Rigid
//! [`DegradeAfter`]: ResiliencePolicy::DegradeAfter
//! [`Deadline`]: ResiliencePolicy::Deadline

use ids_simclock::{SimDuration, SimTime};

use crate::backend::{Backend, QueryOutcome, ResultQuality};
use crate::cost::QueryFootprint;
use crate::error::EngineResult;
use crate::progressive::{degrade_result, ProgressiveExecutor};
use crate::query::Query;
use crate::result::{Histogram, ResultSet};

/// A query stamped with the virtual time the frontend issued it.
#[derive(Debug, Clone)]
pub struct IssuedQuery {
    /// Frontend issue timestamp.
    pub issued_at: SimTime,
    /// The query.
    pub query: Query,
    /// Caller-assigned tag (e.g. trace event index) carried through to
    /// the timing record.
    pub tag: u64,
}

impl IssuedQuery {
    /// Creates an issued query.
    pub fn new(issued_at: SimTime, query: Query, tag: u64) -> IssuedQuery {
        IssuedQuery {
            issued_at,
            query,
            tag,
        }
    }
}

/// When one query was issued, started, and finished.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QueryTiming {
    /// Caller-assigned tag.
    pub tag: u64,
    /// Frontend issue time.
    pub issued_at: SimTime,
    /// Execution start (after queueing).
    pub started_at: SimTime,
    /// Execution end.
    pub finished_at: SimTime,
}

impl QueryTiming {
    /// Query-scheduling latency: time spent waiting in the queue.
    pub fn scheduling_delay(&self) -> SimDuration {
        self.started_at.saturating_since(self.issued_at)
    }

    /// Pure execution time.
    pub fn execution(&self) -> SimDuration {
        self.finished_at.saturating_since(self.started_at)
    }

    /// End-to-end latency perceived from issue to completion.
    pub fn latency(&self) -> SimDuration {
        self.finished_at.saturating_since(self.issued_at)
    }
}

/// Degraded-mode policy for [`replay_resilient`]:
/// instead of letting latency cascade unboundedly (or aborting the whole
/// replay on a transient failure), queries that would blow their budget
/// return progressive-style partial estimates, and terminally failed
/// queries return an empty placeholder so the session continues.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ResiliencePolicy {
    /// No degradation: full answers at whatever latency it takes.
    /// Terminal failures still produce placeholders rather than abort,
    /// charged 100 ms each.
    Rigid,
    /// Past the budget (issue → finish), simulate a truncated scan: the
    /// cost is cut by [`over_budget_fraction`] and the exact answer is
    /// scaled down to that fraction and extrapolated back up
    /// ([`degrade_result`]).
    DegradeAfter(SimDuration),
    /// Spend the budget instead of violating it: an over-budget query
    /// runs block-sampled progressive refinement
    /// ([`ProgressiveExecutor::run_bounded`]) and returns the best-so-far
    /// estimate with its confidence-backed error bound. Query shapes
    /// progressive execution cannot handle (selects, joins) fall back to
    /// [`DegradeAfter`](Self::DegradeAfter)'s cut.
    Deadline(SimDuration),
}

impl ResiliencePolicy {
    /// The per-query latency budget (issue → finish); `None` under
    /// [`Rigid`](Self::Rigid).
    const fn budget(&self) -> Option<SimDuration> {
        match *self {
            ResiliencePolicy::Rigid => None,
            ResiliencePolicy::DegradeAfter(budget) | ResiliencePolicy::Deadline(budget) => {
                Some(budget)
            }
        }
    }

    /// Virtual cost charged for a query whose backend failed terminally
    /// (the timeout the frontend waits before giving up): the budget, or
    /// 100 ms under [`Rigid`](Self::Rigid).
    pub fn failure_charge(&self) -> SimDuration {
        self.budget().unwrap_or(SimDuration::from_millis(100))
    }
}

/// Floor on the fraction an over-budget query keeps: even a hopelessly
/// late query reads at least this share of its data, so estimates never
/// come from nothing.
const MIN_FRACTION: f64 = 0.1;

/// The over-budget cut: the fraction of its cost (and data) a query that
/// waited `wait` and costs `cost` keeps under `budget`, or `None` when
/// it fits (`wait + cost <= budget`) or costs nothing. The fraction fills
/// what the wait left of the budget, and is never below 10 %.
/// [`replay_resilient`] and the serving layer's deadline routing both
/// cut by this rule.
pub fn over_budget_fraction(
    wait: SimDuration,
    cost: SimDuration,
    budget: SimDuration,
) -> Option<f64> {
    if cost.is_zero() || wait + cost <= budget {
        return None;
    }
    let allowed = budget.saturating_sub(wait);
    let fraction = (allowed.as_secs_f64() / cost.as_secs_f64()).clamp(MIN_FRACTION, 1.0);
    (fraction < 1.0).then_some(fraction)
}

/// The scheduler's queueing core: `workers` equivalent execution slots
/// plus the FIFO backlog in front of them, advanced in virtual time.
///
/// [`replay_resilient`] drives this for single-session replays; the
/// multi-tenant serving layer (`ids-serve`) and case study 2's replay
/// (`ids-opt`) drive it directly, so every virtual-clock queue shares
/// one set of queueing semantics. Queries must be offered in nondecreasing
/// `ready_at` order.
#[derive(Debug, Clone)]
pub struct WorkerPool {
    /// Earliest instant each slot is free.
    free: Vec<SimTime>,
    /// Start times of assigned queries that had to wait, oldest first.
    /// Popped lazily as the clock (the `now` of observation calls)
    /// passes them; the remainder is the queue backlog.
    pending_starts: std::collections::VecDeque<SimTime>,
}

impl WorkerPool {
    /// Creates a pool with the given number of parallel slots (clamped
    /// to at least one).
    pub fn new(workers: usize) -> WorkerPool {
        WorkerPool {
            free: vec![SimTime::ZERO; workers.max(1)],
            pending_starts: std::collections::VecDeque::new(),
        }
    }

    /// Number of execution slots.
    pub fn workers(&self) -> usize {
        self.free.len()
    }

    /// Assigns a query that becomes ready at `ready_at` and costs `cost`
    /// to the earliest-free slot, returning `(slot, started_at,
    /// finished_at)`. FIFO: the query starts at
    /// `max(ready_at, earliest slot free time)`.
    pub fn assign(&mut self, ready_at: SimTime, cost: SimDuration) -> (usize, SimTime, SimTime) {
        // The constructor clamps to ≥ 1 worker, so the fallback arm is
        // unreachable in practice; it keeps the hot path panic-free.
        let (slot, slot_free) = self
            .free
            .iter()
            .enumerate()
            .min_by_key(|(_, &t)| t)
            .map(|(i, &t)| (i, t))
            .unwrap_or((0, SimTime::ZERO));
        let started_at = ready_at.max(slot_free);
        let finished_at = started_at + cost;
        if let Some(free) = self.free.get_mut(slot) {
            *free = finished_at;
        }
        if started_at > ready_at {
            self.pending_starts.push_back(started_at);
        }
        (slot, started_at, finished_at)
    }

    /// The instant the next assigned query would start if offered at
    /// `ready_at` — what [`assign`](Self::assign) will return as
    /// `started_at` — without committing the assignment. Callers that
    /// shrink a query's cost based on its queueing delay (degraded-mode
    /// policies) peek here first.
    pub fn next_start(&self, ready_at: SimTime) -> SimTime {
        let earliest = self.free.iter().copied().min().unwrap_or(SimTime::ZERO);
        ready_at.max(earliest)
    }

    /// Queue backlog at `now`: assigned queries that have not yet started
    /// executing. This is the depth an admission controller bounds.
    pub fn backlog_at(&mut self, now: SimTime) -> usize {
        while self
            .pending_starts
            .front()
            .is_some_and(|&start| start <= now)
        {
            self.pending_starts.pop_front();
        }
        self.pending_starts.len()
    }
}

/// Replays an issued-query stream under `policy` through a FIFO queue
/// in front of `workers` equivalent execution slots (clamped to at least
/// one), returning each query's timing and outcome (result + footprint
/// + cost) in issue order.
///
/// The paper's setup forks one OS process per concurrent query with
/// independent database connections; `workers` models that connection
/// pool size.
///
/// `stream` must be sorted by `issued_at`; queries execute in issue
/// order (FIFO), each starting at
/// `max(issued_at, earliest worker free time)`. Beyond that:
///
/// - under a latency budget (none in [`ResiliencePolicy::Rigid`]), a
///   query whose queueing delay plus execution would exceed it is
///   cut by [`over_budget_fraction`] (or refined to the budget under
///   [`ResiliencePolicy::Deadline`]), and its result becomes an
///   estimate marked [`ResultQuality::Partial`];
/// - a transient backend failure (after any retries a wrapping
///   [`crate::backend::RetryingBackend`] already performed) yields an
///   empty placeholder marked [`ResultQuality::Failed`] and charges
///   [`ResiliencePolicy::failure_charge`], instead of aborting the
///   whole replay.
///
/// Non-transient errors (unknown tables, type mismatches) still
/// propagate — those are bugs, not adversity.
pub fn replay_resilient(
    backend: &dyn Backend,
    stream: &[IssuedQuery],
    workers: usize,
    policy: &ResiliencePolicy,
) -> EngineResult<Vec<(QueryTiming, QueryOutcome)>> {
    debug_assert!(
        stream.windows(2).all(|w| w[0].issued_at <= w[1].issued_at),
        "issued-query stream must be sorted by issue time"
    );
    let name = backend.name();
    let mut pool = WorkerPool::new(workers);
    let telemetry = SchedulerTelemetry::new(name, pool.workers());
    let reg = ids_obs::metrics();
    let degraded_ctr = reg.counter("sched.degraded");
    let failed_ctr = reg.counter("sched.failed");
    let mut out = Vec::with_capacity(stream.len());
    for iq in stream {
        // Publish virtual time so deeper layers (buffer pool, fault
        // injection) can timestamp their own telemetry at query
        // granularity.
        ids_obs::set_vnow(iq.issued_at);
        let mut outcome = match backend.execute(&iq.query) {
            Ok(outcome) => outcome,
            Err(err) if err.is_transient() => {
                failed_ctr.inc();
                record_resilience(name, "fail", iq, 0.0, None);
                QueryOutcome {
                    result: placeholder_result(&iq.query),
                    footprint: QueryFootprint::default(),
                    cost: policy.failure_charge(),
                    quality: ResultQuality::Failed,
                }
            }
            Err(err) => return Err(err),
        };
        let wait = pool.next_start(iq.issued_at).saturating_since(iq.issued_at);
        let cut = match (policy.budget(), outcome.quality) {
            (Some(budget), ResultQuality::Exact) => {
                over_budget_fraction(wait, outcome.cost, budget)
            }
            _ => None,
        };
        if let Some(fraction) = cut {
            // Deadline spends the remaining budget on real block-sampled
            // refinement; shapes progressive execution rejects (selects,
            // joins) fall back to the simulated truncation below.
            let refined = match *policy {
                ResiliencePolicy::Deadline(budget) => ProgressiveExecutor::new(backend.database())
                    .run_bounded(&iq.query, outcome.cost, budget.saturating_sub(wait))
                    .ok(),
                ResiliencePolicy::Rigid | ResiliencePolicy::DegradeAfter(_) => None,
            };
            match refined {
                Some(r) if r.fraction < 1.0 => {
                    degraded_ctr.inc();
                    record_resilience(name, "deadline", iq, r.fraction, Some(r.error_bound));
                    outcome.cost = r.elapsed;
                    outcome.result = r.estimate;
                    outcome.quality = ResultQuality::Partial {
                        fraction: r.fraction,
                        error_bound: r.error_bound,
                    };
                }
                // An empty table refines to the exact answer in one
                // step: nothing to degrade.
                Some(_) => {}
                None => {
                    degraded_ctr.inc();
                    record_resilience(name, "degrade", iq, fraction, None);
                    outcome.cost = outcome.cost.mul_f64(fraction);
                    outcome.result = degrade_result(outcome.result, fraction);
                    outcome.quality = ResultQuality::Partial {
                        fraction,
                        // The degrade round trip only rounds: scaling
                        // down truncates at most one row's worth per
                        // value, scaling back up multiplies that by
                        // 1/fraction and rounds once more.
                        error_bound: 0.5 / fraction + 1.0,
                    };
                }
            }
        }
        let (slot, started_at, finished_at) = pool.assign(iq.issued_at, outcome.cost);
        let timing = QueryTiming {
            tag: iq.tag,
            issued_at: iq.issued_at,
            started_at,
            finished_at,
        };
        let queued = pool.backlog_at(iq.issued_at);
        telemetry.observe(iq, &timing, &outcome, slot, queued);
        out.push((timing, outcome));
    }
    Ok(out)
}

/// Empty placeholder answer matching the query's result shape.
fn placeholder_result(query: &Query) -> ResultSet {
    match query {
        Query::Count { .. } => ResultSet::Count(0),
        Query::Histogram { bins, .. } => {
            ResultSet::Histogram(Histogram::zeros(bins.bucket_count()))
        }
        Query::Select(_) | Query::Join(_) => ResultSet::Rows(Vec::new()),
    }
}

/// Marks a resilience decision on the trace timeline: `fail`,
/// `degrade` (simulated truncation), or `deadline` (budget spent on
/// refinement, carrying the reported error bound alongside the covered
/// fraction, so lakehouse queries can tell the two cut-offs apart).
/// No-op when the recorder is off.
fn record_resilience(
    backend_name: &str,
    what: &'static str,
    iq: &IssuedQuery,
    fraction: f64,
    error_bound: Option<f64>,
) {
    let rec = ids_obs::recorder();
    if !rec.is_enabled() {
        return;
    }
    let track = rec.track(&format!("{backend_name}/resilience"));
    let mut args = vec![
        ("tag", ids_obs::ArgValue::U64(iq.tag)),
        ("fraction", ids_obs::ArgValue::F64(fraction)),
    ];
    args.extend(error_bound.map(|b| ("error_bound", ids_obs::ArgValue::F64(b))));
    rec.record_instant("resilience", what, track, iq.issued_at, args);
}

/// Always-on metric handles plus (when the recorder is enabled) trace
/// tracks for the replay loop. Registry lookups happen once per replay,
/// not per query, so the per-query cost is a handful of relaxed
/// `fetch_add`s — and recording spans never alters timings or outcomes.
struct SchedulerTelemetry {
    queries: std::sync::Arc<ids_obs::Counter>,
    rows_scanned: std::sync::Arc<ids_obs::Counter>,
    rows_joined: std::sync::Arc<ids_obs::Counter>,
    rows_aggregated: std::sync::Arc<ids_obs::Counter>,
    rows_output: std::sync::Arc<ids_obs::Counter>,
    wait_us: std::sync::Arc<ids_obs::Histogram>,
    exec_us: std::sync::Arc<ids_obs::Histogram>,
    latency_us: std::sync::Arc<ids_obs::Histogram>,
    queue_depth: std::sync::Arc<ids_obs::Gauge>,
    /// One trace track per worker slot; empty when the recorder is off.
    worker_tracks: Vec<ids_obs::TrackId>,
    queue_track: Option<ids_obs::TrackId>,
}

impl SchedulerTelemetry {
    fn new(backend_name: &str, workers: usize) -> SchedulerTelemetry {
        let reg = ids_obs::metrics();
        let rec = ids_obs::recorder();
        let (worker_tracks, queue_track) = if rec.is_enabled() {
            (
                (0..workers)
                    .map(|i| rec.track(&format!("{backend_name}/worker-{i}")))
                    .collect(),
                Some(rec.track(&format!("{backend_name}/queue"))),
            )
        } else {
            (Vec::new(), None)
        };
        SchedulerTelemetry {
            queries: reg.counter("sched.queries"),
            rows_scanned: reg.counter("exec.rows_scanned"),
            rows_joined: reg.counter("exec.rows_joined"),
            rows_aggregated: reg.counter("exec.rows_aggregated"),
            rows_output: reg.counter("exec.rows_output"),
            wait_us: reg.histogram("sched.wait_us"),
            exec_us: reg.histogram("sched.exec_us"),
            latency_us: reg.histogram("sched.latency_us"),
            queue_depth: reg.gauge("sched.queue_depth"),
            worker_tracks,
            queue_track,
        }
    }

    fn observe(
        &self,
        iq: &IssuedQuery,
        timing: &QueryTiming,
        outcome: &QueryOutcome,
        slot: usize,
        queue_depth: usize,
    ) {
        self.queries.inc();
        self.rows_scanned.add(outcome.footprint.rows_scanned);
        self.rows_joined
            .add(outcome.footprint.build_rows + outcome.footprint.probe_rows);
        self.rows_aggregated.add(outcome.footprint.rows_aggregated);
        self.rows_output.add(outcome.footprint.rows_output);
        self.wait_us.record(timing.scheduling_delay().as_micros());
        self.exec_us.record(timing.execution().as_micros());
        self.latency_us.record(timing.latency().as_micros());
        self.queue_depth.set(queue_depth as i64);

        let rec = ids_obs::recorder();
        if !rec.is_enabled() {
            return;
        }
        let kind = iq.query.kind();
        rec.record_span(
            "exec",
            kind,
            self.worker_tracks[slot],
            timing.started_at,
            timing.execution(),
            vec![
                ("tag", ids_obs::ArgValue::U64(timing.tag)),
                (
                    "rows_scanned",
                    ids_obs::ArgValue::U64(outcome.footprint.rows_scanned),
                ),
                (
                    "rows_output",
                    ids_obs::ArgValue::U64(outcome.footprint.rows_output),
                ),
                (
                    "pages_cold",
                    ids_obs::ArgValue::U64(outcome.footprint.pages_cold),
                ),
                (
                    "pages_hot",
                    ids_obs::ArgValue::U64(outcome.footprint.pages_hot),
                ),
            ],
        );
        let wait = timing.scheduling_delay();
        if let (Some(track), false) = (self.queue_track, wait.is_zero()) {
            rec.record_span(
                "queue",
                format!("wait:{kind}"),
                track,
                timing.issued_at,
                wait,
                vec![("tag", ids_obs::ArgValue::U64(timing.tag))],
            );
        }
        rec.record_counter("sched.queue_depth", timing.issued_at, queue_depth as f64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::{Backend, MemBackend, RetryingBackend};
    use crate::column::ColumnBuilder;
    use crate::cost::CostParams;
    use crate::error::EngineError;
    use crate::predicate::Predicate;
    use crate::table::TableBuilder;
    use std::sync::atomic::{AtomicU32, Ordering};

    /// A backend whose every query costs exactly `cost_ms` of virtual time.
    fn fixed_cost_backend(cost_ms: u64, rows: usize) -> MemBackend {
        // Zero all marginal costs; put everything in startup.
        let params = CostParams {
            startup_ns: cost_ms * 1_000_000,
            page_cold_ns: 0,
            page_hot_ns: 0,
            tuple_scan_ns: 0,
            tuple_agg_ns: 0,
            join_build_ns: 0,
            join_probe_ns: 0,
            row_output_ns: 0,
            predicate_eval_ns: 0,
        };
        let backend = MemBackend::with_params(params);
        backend.database().register(
            TableBuilder::new("t")
                .column("x", ColumnBuilder::float((0..rows).map(|i| i as f64)))
                .build()
                .unwrap(),
        );
        backend
    }

    fn stream(intervals_ms: &[u64]) -> Vec<IssuedQuery> {
        let mut t = 0;
        intervals_ms
            .iter()
            .enumerate()
            .map(|(i, &dt)| {
                t += dt;
                IssuedQuery::new(
                    SimTime::from_millis(t),
                    Query::count("t", Predicate::True),
                    i as u64,
                )
            })
            .collect()
    }

    /// The timings of a rigid replay on `workers` slots.
    fn timings(workers: usize, backend: &MemBackend, stream: &[IssuedQuery]) -> Vec<QueryTiming> {
        replay_resilient(backend, stream, workers, &ResiliencePolicy::Rigid)
            .unwrap()
            .into_iter()
            .map(|(t, _)| t)
            .collect()
    }

    /// A fixed-cost backend whose first `.1` attempts fail transiently.
    struct FailsFirst(MemBackend, u32, AtomicU32);

    impl Backend for FailsFirst {
        fn name(&self) -> &str {
            "fails-first"
        }
        fn database(&self) -> crate::backend::Database {
            self.0.database()
        }
        fn execute(&self, query: &Query) -> EngineResult<QueryOutcome> {
            match self.2.fetch_add(1, Ordering::Relaxed) < self.1 {
                true => Err(EngineError::TransientFailure { reason: "".into() }),
                false => self.0.execute(query),
            }
        }
    }

    /// The retry schedule (3 attempts, 5 ms then 10 ms of backoff
    /// charged into the cost) and what a terminally failed query
    /// charges under each policy: 100 ms when rigid, else the budget.
    #[test]
    fn retries_charge_their_backoff_and_failures_charge_the_policy() {
        let ms = SimDuration::from_millis;
        let fails_first = |fails| FailsFirst(fixed_cost_backend(7, 1), fails, AtomicU32::new(0));
        let reg = ids_obs::metrics();
        let counted =
            || ["attempts", "exhausted"].map(|c| reg.counter(&format!("engine.retry.{c}")).get());
        // (failed attempts, attempts made, cost or else the transient
        // error, retries and exhaustions counted)
        for (fails, attempts, cost, retries) in [
            (0, 1, Some(ms(7)), [0, 0]),
            (1, 2, Some(ms(7 + 5)), [1, 0]),
            (2, 3, Some(ms(7 + 15)), [2, 0]),
            (3, 3, None, [2, 1]),
        ] {
            let (backend, before) = (fails_first(fails), counted());
            let got = RetryingBackend::new(&backend).execute(&Query::count("t", Predicate::True));
            let got = got.map(|o| o.cost).map_err(|e| e.is_transient());
            assert_eq!((got, backend.2.into_inner()), (cost.ok_or(true), attempts));
            assert_eq!([0, 1].map(|i| counted()[i] - before[i]), retries);
        }
        for (policy, charge) in [
            (ResiliencePolicy::Rigid, ms(100)),
            (ResiliencePolicy::DegradeAfter(ms(40)), ms(40)),
            (ResiliencePolicy::Deadline(ms(40)), ms(40)),
        ] {
            let backend = fails_first(u32::MAX);
            let out = replay_resilient(&RetryingBackend::new(&backend), &stream(&[1]), 1, &policy);
            let (timing, outcome) = &out.unwrap()[0];
            let got = (outcome.quality, outcome.cost, timing.latency());
            assert_eq!(got, (ResultQuality::Failed, charge, charge), "{policy:?}");
        }
    }

    #[test]
    fn fast_backend_keeps_up() {
        let backend = fixed_cost_backend(5, 10);
        // Queries 20 ms apart, each costing 5 ms: no queueing.
        let timings = timings(1, &backend, &stream(&[20, 20, 20]));
        for t in &timings {
            assert_eq!(t.scheduling_delay(), SimDuration::ZERO);
            assert_eq!(t.latency().as_millis(), 5);
        }
    }

    #[test]
    fn slow_backend_cascades_delay() {
        let backend = fixed_cost_backend(50, 10);
        // Queries 10 ms apart, each costing 50 ms: delay accumulates.
        let timings = timings(1, &backend, &stream(&[10, 10, 10, 10]));
        assert_eq!(timings[0].latency().as_millis(), 50);
        assert_eq!(timings[1].scheduling_delay().as_millis(), 40);
        assert_eq!(timings[1].latency().as_millis(), 90);
        assert_eq!(timings[3].latency().as_millis(), 170);
        // Latency grows monotonically — the Fig 2 cascade.
        assert!(timings.windows(2).all(|w| w[0].latency() <= w[1].latency()));
    }

    /// `sched.queue_depth` samples the backlog behind the workers: on
    /// the Fig 2 cascade it grows by one per query.
    #[test]
    fn queue_depth_samples_the_backlog() {
        let backend = fixed_cost_backend(50, 10);
        ids_obs::enable();
        timings(1, &backend, &stream(&[10, 10, 10, 10]));
        let samples: Vec<_> = ids_obs::recorder()
            .events()
            .into_iter()
            .filter_map(|e| match e {
                ids_obs::TraceEvent::Counter { name, value, .. } => Some((name, value)),
                _ => None,
            })
            .collect();
        let peak = ids_obs::metrics()
            .gauge("sched.queue_depth")
            .high_watermark();
        ids_obs::disable();
        ids_obs::reset_all();
        let depths = [0.0, 1.0, 2.0, 3.0].map(|d| ("sched.queue_depth", d));
        assert_eq!(samples, depths);
        assert_eq!(peak, 3);
    }

    #[test]
    fn more_workers_absorb_bursts() {
        let backend = fixed_cost_backend(50, 10);
        let stream = stream(&[10, 10, 10, 10]);
        let one = timings(1, &backend, &stream);
        let four = timings(4, &backend, &stream);
        let total_one: u64 = one.iter().map(|t| t.latency().as_millis()).sum();
        let total_four: u64 = four.iter().map(|t| t.latency().as_millis()).sum();
        assert!(total_four < total_one);
        assert!(four
            .iter()
            .all(|t| t.scheduling_delay() == SimDuration::ZERO));
    }

    #[test]
    fn outcomes_are_returned_in_issue_order() {
        let backend = fixed_cost_backend(1, 7);
        let out =
            replay_resilient(&backend, &stream(&[1, 1, 1]), 2, &ResiliencePolicy::Rigid).unwrap();
        assert_eq!(out.len(), 3);
        for (i, (timing, outcome)) in out.iter().enumerate() {
            assert_eq!(timing.tag, i as u64);
            assert_eq!(outcome.scalar_count(), Some(7));
        }
    }

    #[test]
    fn zero_workers_clamps_to_one() {
        let backend = fixed_cost_backend(1, 1);
        assert_eq!(timings(0, &backend, &stream(&[1])).len(), 1);
    }

    #[test]
    fn worker_pool_tracks_backlog_and_drain() {
        let ms = SimDuration::from_millis;
        let at = SimTime::from_millis;
        let mut pool = WorkerPool::new(1);
        assert_eq!(pool.workers(), 1);
        assert_eq!(pool.backlog_at(at(0)), 0);
        // Three queries arriving every 10 ms, each costing 50 ms: the
        // second and third wait behind the first.
        let (_, s0, f0) = pool.assign(at(0), ms(50));
        assert_eq!((s0, f0), (at(0), at(50)));
        assert_eq!(pool.next_start(at(10)), at(50));
        let (_, s1, f1) = pool.assign(at(10), ms(50));
        assert_eq!((s1, f1), (at(50), at(100)));
        let (_, s2, _) = pool.assign(at(20), ms(50));
        assert_eq!(s2, at(100));
        // At t=20 both later queries are still queued; at t=60 one
        // started, one remains; by t=100 the queue is empty.
        assert_eq!(pool.backlog_at(at(20)), 2);
        assert_eq!(pool.backlog_at(at(60)), 1);
        assert_eq!(pool.backlog_at(at(100)), 0);
        assert_eq!(pool.next_start(at(0)), at(150));
    }

    #[test]
    fn worker_pool_matches_replay_scheduler_timings() {
        let backend = fixed_cost_backend(50, 10);
        let stream = stream(&[10, 10, 10, 10]);
        for workers in [1, 2, 3] {
            let timings = timings(workers, &backend, &stream);
            let mut pool = WorkerPool::new(workers);
            for t in &timings {
                let (_, started, finished) = pool.assign(t.issued_at, SimDuration::from_millis(50));
                assert_eq!(started, t.started_at, "{workers} workers");
                assert_eq!(finished, t.finished_at, "{workers} workers");
            }
        }
    }
}
