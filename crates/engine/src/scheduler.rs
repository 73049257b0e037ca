//! Virtual-time query scheduling: replaying an issued-query stream
//! through a multi-worker FIFO queue.
//!
//! This is the substrate for the paper's **latency constraint violation**
//! analysis (Fig 2): when a user issues queries faster than the backend
//! drains them, execution delay cascades — Q4's perceived latency includes
//! the queueing time behind Q1–Q3. The scheduler computes, for every query
//! in a trace, when it started (queue head reached + worker free) and when
//! it finished, in *virtual* time.

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
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ResiliencePolicy {
    /// Per-query latency budget (issue → finish). When queueing plus
    /// execution would exceed it, execution is truncated and the result
    /// extrapolated from the fraction of data actually read. `None`
    /// disables degradation.
    pub latency_budget: Option<SimDuration>,
    /// Floor on the truncation fraction: even a hopelessly late query
    /// reads at least this share of its data, so estimates never come
    /// from nothing.
    pub min_fraction: f64,
    /// Virtual cost charged for a query whose backend failed terminally
    /// (models the timeout the frontend waits before giving up).
    pub failure_penalty: SimDuration,
    /// How an over-budget query is answered (see [`ResilienceMode`]).
    pub mode: ResilienceMode,
}

/// What an over-budget query returns under
/// [`replay_resilient`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ResilienceMode {
    /// Simulate a truncated scan: scale the exact answer down to the
    /// fraction a cut-off would have seen and extrapolate back up
    /// ([`degrade_result`]).
    Degrade,
    /// Actually spend the remaining budget: run block-sampled
    /// progressive refinement ([`ProgressiveExecutor::run_bounded`])
    /// and return the best-so-far estimate with its confidence-backed
    /// error bound. Query shapes progressive execution cannot handle
    /// (selects, joins) fall back to [`ResilienceMode::Degrade`].
    Deadline,
}

impl ResiliencePolicy {
    /// No degradation: full answers at whatever latency it takes.
    /// Terminal failures still produce placeholders rather than abort.
    pub const fn rigid() -> ResiliencePolicy {
        ResiliencePolicy {
            latency_budget: None,
            min_fraction: 1.0,
            failure_penalty: SimDuration::from_millis(100),
            mode: ResilienceMode::Degrade,
        }
    }

    /// Degrade to partial results past `budget`, reading no less than 10%
    /// of the data.
    pub const fn degrade_after(budget: SimDuration) -> ResiliencePolicy {
        ResiliencePolicy {
            latency_budget: Some(budget),
            min_fraction: 0.1,
            failure_penalty: budget,
            mode: ResilienceMode::Degrade,
        }
    }

    /// Spend the budget instead of violating it: over-budget queries are
    /// re-run as deadline-bounded progressive refinements, returning the
    /// best-so-far answer with a sound error bound.
    pub const fn deadline(budget: SimDuration) -> ResiliencePolicy {
        ResiliencePolicy {
            latency_budget: Some(budget),
            min_fraction: 0.1,
            failure_penalty: budget,
            mode: ResilienceMode::Deadline,
        }
    }
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
/// - under a latency budget (none in [`ResiliencePolicy::rigid`]), a
///   query whose queueing delay plus execution would exceed it is
///   truncated: its cost shrinks to fit the budget
///   (down to `min_fraction` of the full scan) and its result becomes
///   a scaled estimate marked [`ResultQuality::Partial`];
/// - a transient backend failure (after any retries a wrapping
///   [`crate::backend::RetryingBackend`] already performed) yields an
///   empty placeholder marked [`ResultQuality::Failed`] and charges
///   `failure_penalty`, instead of aborting the whole replay.
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
                    cost: policy.failure_penalty,
                    quality: ResultQuality::Failed,
                }
            }
            Err(err) => return Err(err),
        };
        let wait = pool.next_start(iq.issued_at).saturating_since(iq.issued_at);
        if let (Some(budget), ResultQuality::Exact) = (policy.latency_budget, outcome.quality) {
            if wait + outcome.cost > budget && !outcome.cost.is_zero() {
                let allowed = budget.saturating_sub(wait);
                // Deadline mode spends the remaining budget on real
                // block-sampled refinement; shapes progressive
                // execution rejects (selects, joins) fall back to
                // the simulated truncation below.
                let refined = if policy.mode == ResilienceMode::Deadline {
                    ProgressiveExecutor::new(backend.database())
                        .run_bounded(&iq.query, outcome.cost, allowed)
                        .ok()
                } else {
                    None
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
                    // An empty table refines to the exact answer in
                    // one step: nothing to degrade.
                    Some(_) => {}
                    None => {
                        let fraction = (allowed.as_secs_f64() / outcome.cost.as_secs_f64())
                            .clamp(policy.min_fraction.clamp(f64::MIN_POSITIVE, 1.0), 1.0);
                        if fraction < 1.0 {
                            degraded_ctr.inc();
                            record_resilience(name, "degrade", iq, fraction, None);
                            outcome.cost = outcome.cost.mul_f64(fraction);
                            outcome.result = degrade_result(outcome.result, fraction);
                            outcome.quality = ResultQuality::Partial {
                                fraction,
                                // The degrade round trip only rounds:
                                // scaling down truncates at most one
                                // row's worth per value, scaling back
                                // up multiplies that by 1/fraction
                                // and rounds once more.
                                error_bound: 0.5 / fraction + 1.0,
                            };
                        }
                    }
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
    use crate::backend::{Backend, MemBackend};
    use crate::column::ColumnBuilder;
    use crate::cost::CostParams;
    use crate::predicate::Predicate;
    use crate::table::TableBuilder;

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
        replay_resilient(backend, stream, workers, &ResiliencePolicy::rigid())
            .unwrap()
            .into_iter()
            .map(|(t, _)| t)
            .collect()
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
            replay_resilient(&backend, &stream(&[1, 1, 1]), 2, &ResiliencePolicy::rigid()).unwrap();
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
