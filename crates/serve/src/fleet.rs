//! The serving loop: one shared engine, thousands of sessions, a
//! deterministic admission decision per offered query.
//!
//! Serving is split into two pure stages so that the admission-on and
//! no-admission conditions of an experiment are *exactly* comparable:
//!
//! 1. [`measure_costs`] executes every offered query once, in global
//!    offered order, against the (optionally chaos-wrapped) shared
//!    backend. This fixes each query's execution cost — including fault
//!    windows, retries, and buffer-pool state — as a pure function of
//!    the offered stream and the fault plan.
//! 2. [`simulate_service`] replays those fixed costs through a
//!    [`WorkerPool`] queueing simulation under a given
//!    [`AdmissionPolicy`]. Because both conditions replay the *same*
//!    cost sequence, any difference in tail latency is attributable to
//!    admission alone, and the whole pipeline is bit-deterministic.
//!
//! Node-loss windows from the fault plan shrink serving capacity during
//! the window: surviving workers absorb the lost slots' share (costs
//! inflate by `workers / available`), and a total outage defers starts
//! to the window's end. Capacity loss therefore *degrades* throughput
//! and tail latency but can never wedge the loop — every query still
//! starts and finishes at a finite virtual instant.

use std::collections::HashMap;

use ids_chaos::{ChaosBackend, FaultKind, FaultPlan};
use ids_engine::scheduler::{over_budget_fraction, WorkerPool};
use ids_engine::{Backend, DiskBackend, RetryingBackend};
use ids_metrics::lcv::{budget_violations, LcvReport, QuerySpan};
use ids_metrics::qif::QifReport;
use ids_obs::Histogram;
use ids_simclock::{SimDuration, SimTime};

use crate::admission::{AdmissionController, AdmissionPolicy, ShedCounts};
use crate::session::{Lane, OfferedQuery};

/// Queueing-stage parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServeParams {
    /// Parallel worker slots the shared engine exposes.
    pub workers: usize,
    /// Per-query latency budget (drives the fleet LCV).
    pub latency_budget: SimDuration,
    /// Cut over-budget interactive queries by the engine's
    /// [`over_budget_fraction`] (to what the wait left of the budget, down
    /// to its floor): the cut `ResiliencePolicy::DegradeAfter` applies,
    /// not the progressive refinement `ResiliencePolicy::Deadline` runs.
    pub deadline: bool,
    /// Shard groups the worker pool is split into. Tenants map to
    /// groups (`tenant % shards`), each group owning
    /// `max(1, workers / shards)` of the worker slots, so one hot
    /// tenant's backlog queues on its own shard group instead of the
    /// whole fleet. `1` (the default everywhere) is the single shared
    /// pool and is arithmetically identical to the pre-shard behavior.
    pub shards: usize,
}

impl ServeParams {
    /// Shard groups in force (at least 1).
    pub fn shard_groups(&self) -> usize {
        self.shards.max(1)
    }

    /// Worker slots per shard group.
    pub fn workers_per_group(&self) -> usize {
        (self.workers / self.shard_groups()).max(1)
    }
}

/// Aggregated result of one serving simulation.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetOutcome {
    /// Queries offered by the fleet.
    pub offered: usize,
    /// Queries admitted (offered − shed).
    pub admitted: usize,
    /// Interactive-lane subset of the admitted queries.
    pub interactive_admitted: usize,
    /// Shed accounting by reason.
    pub shed: ShedCounts,
    /// Budget-form LCV over admitted interactive queries, folded from
    /// per-session reports.
    pub lcv: LcvReport,
    /// Median admitted interactive latency.
    pub p50: SimDuration,
    /// 95th-percentile admitted interactive latency.
    pub p95: SimDuration,
    /// 99th-percentile admitted interactive latency.
    pub p99: SimDuration,
    /// Admitted interactive issuing rate, queries/second.
    pub admitted_qps: f64,
    /// Instant the last admitted query finished.
    pub drained_at: SimTime,
    /// Sessions that had at least one query admitted.
    pub sessions_served: usize,
    /// Interactive queries whose execution was clamped by deadline
    /// routing (always 0 when [`ServeParams::deadline`] is off).
    pub deadline_routed: usize,
}

impl FleetOutcome {
    /// Fraction of offered queries shed.
    pub fn shed_fraction(&self) -> f64 {
        if self.offered == 0 {
            0.0
        } else {
            self.shed.total() as f64 / self.offered as f64
        }
    }
}

/// Executes every offered query once, in global offered order, against
/// `backend` under `plan`, and returns the per-query virtual costs.
///
/// Transient failures are retried with the interactive policy; a query
/// whose retries are exhausted is charged `penalty` (the frontend waits
/// out its budget before giving up) so a lossy plan can never wedge the
/// stream. `disk` attaches the buffer-pressure flush target so pressure
/// windows genuinely evict the shared pool.
pub fn measure_costs(
    backend: &(dyn Backend + Sync),
    disk: Option<&DiskBackend>,
    offered: &[OfferedQuery],
    plan: &FaultPlan,
    penalty: SimDuration,
) -> Vec<SimDuration> {
    let _p = ids_obs::phase("serve.measure");
    let mut chaos = ChaosBackend::new(backend, plan.clone());
    if let Some(d) = disk {
        chaos = chaos.with_pressure_target(d);
    }
    let retrying = RetryingBackend::new(&chaos);
    let exhausted = ids_obs::metrics().counter("serve.retries_exhausted");
    offered
        .iter()
        .map(|q| {
            ids_obs::set_vnow(q.at);
            match retrying.execute(&q.query) {
                Ok(outcome) => outcome.cost,
                Err(_) => {
                    exhausted.inc();
                    penalty
                }
            }
        })
        .collect()
}

/// Worker slots in `[lo, hi)` usable at `t`: the range size minus
/// fault-plan node losses naming slots inside the range (losses outside
/// are other groups' problem).
fn capacity_at(plan: &FaultPlan, lo: usize, hi: usize, t: SimTime) -> usize {
    let lost = plan
        .lost_nodes_at(t)
        .into_iter()
        .filter(|&n| n >= lo && n < hi)
        .count();
    (hi - lo) - lost
}

/// Earliest instant strictly after `t` at which some capacity-affecting
/// loss window ends — where a fully-outaged start gets deferred to.
fn next_recovery(plan: &FaultPlan, t: SimTime) -> SimTime {
    plan.windows()
        .iter()
        .filter(|w| matches!(w.kind, FaultKind::NodeLoss { .. }) && w.contains(t))
        .map(|w| w.end)
        .min()
        .unwrap_or(t)
}

/// Replays `costs` through the queueing layer under `policy`.
///
/// `offered` and `costs` must be index-aligned (as produced by
/// [`measure_costs`] over the same stream). The loop walks the stream
/// in offered order, asks the admission controller about each query
/// given the instantaneous backlog of the query's shard group, and
/// assigns admitted queries to the earliest-free slot of that group's
/// pool (tenants map to groups by `tenant % shards`; with `shards == 1`
/// there is one shared pool and the loop is arithmetically identical to
/// the pre-shard behavior). Per-session LCV reports and latency
/// histograms are folded into fleet aggregates at the end — the merge
/// is order-independent, which is what makes the aggregation safe to
/// shard in a real deployment.
pub fn simulate_service(
    offered: &[OfferedQuery],
    costs: &[SimDuration],
    policy: &AdmissionPolicy,
    plan: &FaultPlan,
    params: &ServeParams,
) -> FleetOutcome {
    assert_eq!(offered.len(), costs.len(), "stream/cost misalignment");
    let _p = ids_obs::phase("serve.simulate");
    let reg = ids_obs::metrics();
    let admitted_ctr = reg.counter("serve.admitted");
    let shed_ctr = reg.counter("serve.shed");
    let deadline_ctr = reg.counter("serve.deadline_routed");

    let groups = params.shard_groups();
    let wpg = params.workers_per_group();
    let mut pools: Vec<WorkerPool> = (0..groups).map(|_| WorkerPool::new(wpg)).collect();
    let mut controller = AdmissionController::new(*policy);

    // Per-query serve spans for the telemetry lakehouse: one span per
    // admitted interactive query on a per-tenant track, carrying the
    // tenant, session, violation flag, and effective cost as args. The
    // enabled check keeps the dark path free of track interning; span
    // recording never feeds back into timing (virtual time only).
    let rec_enabled = ids_obs::enabled();
    let mut tenant_tracks: HashMap<usize, ids_obs::TrackId> = HashMap::new();

    // Per-session accumulators, folded after the loop.
    let mut session_spans: HashMap<usize, Vec<QuerySpan>> = HashMap::new();
    let mut session_hists: HashMap<usize, Histogram> = HashMap::new();
    let mut interactive_stamps: Vec<SimTime> = Vec::new();
    let mut interactive_admitted = 0usize;
    let mut deadline_routed = 0usize;
    let mut drained_at = SimTime::ZERO;

    for (q, &cost) in offered.iter().zip(costs) {
        // The query's shard group: its pool, and its slice of the
        // worker slots for fault-plan capacity accounting.
        let group = q.tenant % groups;
        let (slot_lo, slot_hi) = (group * wpg, (group + 1) * wpg);
        let pool = &mut pools[group];

        let backlog = pool.backlog_at(q.at);
        if controller.admit(q, backlog).is_err() {
            shed_ctr.inc();
            continue;
        }
        admitted_ctr.inc();

        // Capacity-aware start: a total outage of the group defers the
        // start to the loss window's end; a partial loss spreads the
        // lost slots' share over the group's survivors by inflating the
        // cost.
        let mut ready = q.at;
        while capacity_at(plan, slot_lo, slot_hi, ready) == 0 {
            let recovery = next_recovery(plan, ready);
            debug_assert!(recovery > ready, "loss windows are half-open");
            ready = recovery;
        }
        let available = capacity_at(plan, slot_lo, slot_hi, ready);
        let mut effective = if available == wpg {
            cost
        } else {
            SimDuration::from_secs_f64(cost.as_secs_f64() * wpg as f64 / available as f64)
        };
        // Deadline routing: an interactive query that would blow the
        // budget (queueing included) is cut by the engine's over-budget
        // rule, the one `ResiliencePolicy::DegradeAfter` applies.
        if params.deadline && q.lane == Lane::Interactive {
            let wait = pool.next_start(ready).saturating_since(ready);
            if let Some(fraction) = over_budget_fraction(wait, effective, params.latency_budget) {
                effective = effective.mul_f64(fraction);
                deadline_ctr.inc();
                deadline_routed += 1;
            }
        }
        let (_slot, _started, finished) = pool.assign(ready, effective);
        drained_at = drained_at.max(finished);

        if q.lane == Lane::Interactive {
            interactive_admitted += 1;
            interactive_stamps.push(q.at);
            let latency = finished.saturating_since(q.at);
            if rec_enabled {
                let rec = ids_obs::recorder();
                let track = *tenant_tracks
                    .entry(q.tenant)
                    .or_insert_with(|| rec.track(&format!("tenant/{}", q.tenant)));
                rec.record_span(
                    "serve",
                    q.query.kind(),
                    track,
                    q.at,
                    latency,
                    vec![
                        (
                            "tenant",
                            ids_obs::ArgValue::Str(format!("tenant/{}", q.tenant)),
                        ),
                        ("session", ids_obs::ArgValue::U64(q.session as u64)),
                        (
                            "violated",
                            ids_obs::ArgValue::U64((latency > params.latency_budget) as u64),
                        ),
                        ("cost_us", ids_obs::ArgValue::U64(effective.as_micros())),
                    ],
                );
            }
            session_spans.entry(q.session).or_default().push(QuerySpan {
                issued_at: q.at,
                finished_at: finished,
            });
            session_hists
                .entry(q.session)
                .or_default()
                .record(latency.as_micros());
        }
    }

    // Fold per-session measurements into fleet aggregates. Iteration
    // order over the map is irrelevant: LCV absorption and histogram
    // merges are commutative.
    let mut lcv = LcvReport::default();
    for spans in session_spans.values() {
        lcv.absorb(&budget_violations(spans, params.latency_budget));
    }
    let fleet_hist = Histogram::new();
    for h in session_hists.values() {
        fleet_hist.merge(h);
    }
    reg.histogram("serve.latency_us").merge(&fleet_hist);

    let admitted_qps = QifReport::from_timestamps(&interactive_stamps).queries_per_second();

    FleetOutcome {
        offered: offered.len(),
        admitted: controller.admitted(),
        interactive_admitted,
        shed: controller.shed(),
        lcv,
        p50: SimDuration::from_micros(fleet_hist.quantile(0.50)),
        p95: SimDuration::from_micros(fleet_hist.quantile(0.95)),
        p99: SimDuration::from_micros(fleet_hist.quantile(0.99)),
        admitted_qps,
        drained_at,
        sessions_served: session_spans.len(),
        deadline_routed,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ids_engine::{Predicate, Query, ResultQuality};

    fn offered_stream(n: usize, gap_ms: u64) -> Vec<OfferedQuery> {
        (0..n)
            .map(|i| OfferedQuery {
                session: i % 3,
                tenant: i % 2,
                seq: i,
                at: SimTime::from_millis(i as u64 * gap_ms),
                lane: if i % 5 == 4 {
                    Lane::Prefetch
                } else {
                    Lane::Interactive
                },
                query: Query::count("t", Predicate::True),
            })
            .collect()
    }

    fn flat_costs(n: usize, ms: u64) -> Vec<SimDuration> {
        vec![SimDuration::from_millis(ms); n]
    }

    fn params() -> ServeParams {
        ServeParams {
            workers: 2,
            latency_budget: SimDuration::from_millis(100),
            deadline: false,
            shards: 1,
        }
    }

    #[test]
    fn conservation_offered_equals_admitted_plus_shed() {
        let offered = offered_stream(200, 1);
        let costs = flat_costs(200, 50);
        let out = simulate_service(
            &offered,
            &costs,
            &AdmissionPolicy::interactive(50.0, 4),
            &FaultPlan::calm(1),
            &params(),
        );
        assert_eq!(out.offered, out.admitted + out.shed.total());
        assert!(out.shed.total() > 0, "overload must shed");
        assert!(out.sessions_served > 0);
    }

    #[test]
    fn unlimited_baseline_admits_everything_and_queues() {
        let offered = offered_stream(100, 1);
        let costs = flat_costs(100, 50);
        let base = simulate_service(
            &offered,
            &costs,
            &AdmissionPolicy::unlimited(),
            &FaultPlan::calm(1),
            &params(),
        );
        assert_eq!(base.admitted, 100);
        assert_eq!(base.shed.total(), 0);
        // 100 queries of 50 ms over 2 workers issued in ~100 ms: the
        // last ones wait out nearly the whole backlog.
        assert!(base.p99 > SimDuration::from_millis(1_000));
        assert!(base.lcv.fraction() > 0.5);
    }

    #[test]
    fn admission_flattens_the_tail() {
        let offered = offered_stream(400, 1);
        let costs = flat_costs(400, 50);
        let plan = FaultPlan::calm(1);
        let base = simulate_service(
            &offered,
            &costs,
            &AdmissionPolicy::unlimited(),
            &plan,
            &params(),
        );
        let adm = simulate_service(
            &offered,
            &costs,
            &AdmissionPolicy::interactive(20.0, 2),
            &plan,
            &params(),
        );
        assert!(adm.p99 < base.p99, "{:?} vs {:?}", adm.p99, base.p99);
        assert!(adm.lcv.fraction() < base.lcv.fraction());
    }

    #[test]
    fn deadline_routing_trims_violations_and_tail() {
        // 50 ms queries arriving every 10 ms on 2 workers: 2.5x
        // oversubscribed, so the plain queue grows without bound, while
        // deadline clamping trades work for latency and stabilizes it.
        let offered = offered_stream(100, 10);
        let costs = flat_costs(100, 50);
        let plan = FaultPlan::calm(1);
        let base = simulate_service(
            &offered,
            &costs,
            &AdmissionPolicy::unlimited(),
            &plan,
            &params(),
        );
        let dl = simulate_service(
            &offered,
            &costs,
            &AdmissionPolicy::unlimited(),
            &plan,
            &ServeParams {
                deadline: true,
                ..params()
            },
        );
        assert_eq!(base.deadline_routed, 0);
        assert!(dl.deadline_routed > 0, "overload must trigger routing");
        assert_eq!(dl.admitted, base.admitted, "routing never sheds");
        assert!(
            dl.lcv.fraction() < base.lcv.fraction(),
            "{} vs {}",
            dl.lcv.fraction(),
            base.lcv.fraction()
        );
        assert!(dl.p99 <= base.p99, "{:?} vs {:?}", dl.p99, base.p99);
    }

    #[test]
    fn deadline_routing_is_idle_under_light_load() {
        // Well-spaced cheap queries never approach the budget: deadline
        // mode must not perturb the outcome at all.
        let offered = offered_stream(50, 50);
        let costs = flat_costs(50, 5);
        let plan = FaultPlan::calm(1);
        let base = simulate_service(
            &offered,
            &costs,
            &AdmissionPolicy::unlimited(),
            &plan,
            &params(),
        );
        let dl = simulate_service(
            &offered,
            &costs,
            &AdmissionPolicy::unlimited(),
            &plan,
            &ServeParams {
                deadline: true,
                ..params()
            },
        );
        assert_eq!(dl.deadline_routed, 0);
        assert_eq!(dl, base);
    }

    /// A backend that charges its i-th query `.0[i]`.
    struct Priced(Vec<SimDuration>, std::sync::atomic::AtomicUsize);

    impl Backend for Priced {
        fn name(&self) -> &str {
            "priced"
        }
        fn database(&self) -> ids_engine::Database {
            ids_engine::Database::new()
        }
        fn execute(&self, _: &Query) -> ids_engine::EngineResult<ids_engine::QueryOutcome> {
            let cost = self.0[self.1.fetch_add(1, std::sync::atomic::Ordering::Relaxed)];
            let (result, quality) = (ids_engine::ResultSet::Count(0), ResultQuality::Exact);
            let footprint = Default::default();
            Ok(ids_engine::QueryOutcome {
                result,
                footprint,
                cost,
                quality,
            })
        }
    }

    /// Deadline routing charges what `ResiliencePolicy::DegradeAfter`
    /// does: every query is offered at once on one worker, so each waits
    /// out the charges before it, and replay and fleet finish each
    /// prefix of the stream at the same instant.
    #[test]
    fn deadline_routing_cuts_like_the_scheduler() {
        use ids_engine::scheduler::{replay_resilient, IssuedQuery, ResiliencePolicy};
        let (ms, us) = (SimDuration::from_millis, SimDuration::from_micros);
        let params = ServeParams {
            workers: 1,
            latency_budget: ms(10),
            deadline: true,
            ..params()
        };
        for (costs, charges) in [
            // wait + cost == budget: no cut.
            (vec![ms(10)], vec![ms(10)]),
            (vec![ms(4), ms(6)], vec![ms(4), ms(6)]),
            // Over budget: the cost fills what the wait left.
            (vec![ms(12)], vec![ms(10)]),
            (vec![ms(4), ms(10)], vec![ms(4), ms(6)]),
            // wait >= budget: the 10 % floor.
            (vec![ms(10), ms(30)], vec![ms(10), ms(3)]),
            (vec![ms(12), ms(30)], vec![ms(10), ms(3)]),
            (vec![ms(10), us(1)], vec![ms(10), us(0)]),
            // A zero-cost query is never cut.
            (vec![ms(12), us(0)], vec![ms(10), us(0)]),
        ] {
            let offered = offered_stream(costs.len(), 0);
            let stream: Vec<IssuedQuery> = offered
                .iter()
                .map(|q| IssuedQuery::new(q.at, q.query.clone(), 0))
                .collect();
            let policy = ResiliencePolicy::DegradeAfter(params.latency_budget);
            let backend = Priced(costs.clone(), Default::default());
            let replayed = replay_resilient(&backend, &stream, 1, &policy).unwrap();
            for (n, (timing, outcome)) in replayed.iter().enumerate() {
                let (plan, unlimited) = (FaultPlan::calm(1), AdmissionPolicy::unlimited());
                let served =
                    simulate_service(&offered[..=n], &costs[..=n], &unlimited, &plan, &params);
                assert_eq!(outcome.cost, charges[n], "{costs:?}");
                assert_eq!(served.drained_at, timing.finished_at, "{costs:?}");
                assert!(charges[n] <= costs[n]);
            }
        }
    }

    #[test]
    fn total_outage_defers_but_terminates() {
        let offered = offered_stream(20, 10);
        let costs = flat_costs(20, 5);
        // Both workers lost for [0, 500) ms: nothing can start before
        // recovery, yet every query still finishes.
        let plan = FaultPlan::builder(1)
            .lose_node_during(0, SimTime::ZERO, SimDuration::from_millis(500))
            .lose_node_during(1, SimTime::ZERO, SimDuration::from_millis(500))
            .build();
        let out = simulate_service(
            &offered,
            &costs,
            &AdmissionPolicy::unlimited(),
            &plan,
            &params(),
        );
        assert_eq!(out.admitted, 20);
        assert!(out.drained_at >= SimTime::from_millis(500));
        assert!(out.drained_at < SimTime::MAX);
        // Calm service of the same stream drains earlier.
        let calm = simulate_service(
            &offered,
            &costs,
            &AdmissionPolicy::unlimited(),
            &FaultPlan::calm(1),
            &params(),
        );
        assert!(calm.drained_at < out.drained_at);
    }

    #[test]
    fn interactive_spans_carry_tenant_and_violation_args() {
        let offered: Vec<OfferedQuery> = (0..40)
            .map(|i| OfferedQuery {
                session: i,
                tenant: i % 2,
                seq: i,
                at: SimTime::from_millis(i as u64),
                lane: if i % 5 == 4 {
                    Lane::Prefetch
                } else {
                    Lane::Interactive
                },
                query: Query::count("t", Predicate::True),
            })
            .collect();
        let costs = flat_costs(40, 30);
        ids_obs::enable();
        let out = simulate_service(
            &offered,
            &costs,
            &AdmissionPolicy::unlimited(),
            &FaultPlan::calm(1),
            &params(),
        );
        let events = ids_obs::recorder().events();
        let mine: Vec<_> = events
            .iter()
            .filter_map(|e| match e {
                ids_obs::TraceEvent::Span { cat, args, .. } if *cat == "serve" => Some(args),
                _ => None,
            })
            .collect();
        assert_eq!(mine.len(), out.interactive_admitted);
        // Every span carries the lakehouse-schema args, and long waits
        // under the 100 ms budget are flagged as violations.
        let mut violated = 0u64;
        for args in &mine {
            let get = |key: &str| args.iter().find(|(k, _)| *k == key).map(|(_, v)| v);
            assert!(
                matches!(get("tenant"), Some(ids_obs::ArgValue::Str(s)) if s.starts_with("tenant/"))
            );
            assert!(get("cost_us").is_some());
            if let Some(ids_obs::ArgValue::U64(v)) = get("violated") {
                violated += *v;
            }
        }
        assert_eq!(
            violated as usize, out.lcv.violations,
            "span violation flags agree with the LCV report"
        );
    }

    #[test]
    fn one_shard_group_is_one_pool() {
        // Four queries on two workers, by hand: q0 (issued at 0 ms, 30 ms
        // of work) runs 0–30, q1 (1, 20) 1–21, q2 (2, 10) waits for q1's
        // worker, 21–31, and q3 (3, 5) for q0's, 30–35: latencies 30, 20,
        // 29 and 32. Two shard groups give each tenant (q0 and q2, q1 and
        // q3) a worker of its own, so q2 waits for q0 instead, 30–40.
        let offered = offered_stream(4, 1);
        let costs = [30, 20, 10, 5].map(SimDuration::from_millis);
        let run = |shards, budget_ms| {
            let latency_budget = SimDuration::from_millis(budget_ms);
            let params = ServeParams {
                latency_budget,
                shards,
                ..params()
            };
            let (policy, plan) = (AdmissionPolicy::unlimited(), FaultPlan::calm(1));
            simulate_service(&offered, &costs, &policy, &plan, &params)
        };
        // A query violates a budget it strictly exceeds.
        let violations = [19, 20, 28, 29, 30, 31, 32].map(|ms| run(1, ms).lcv.violations);
        assert_eq!(violations, [4, 3, 3, 2, 1, 1, 0]);
        let one = run(1, 100);
        assert_eq!(
            (one.admitted, one.drained_at),
            (4, SimTime::from_millis(35))
        );
        assert_eq!(run(2, 100).drained_at, SimTime::from_millis(40));
    }

    #[test]
    fn shard_groups_isolate_a_hot_tenant() {
        // Tenant 0 issues second-long monsters; tenant 1 issues 5 ms
        // blips. On one shared pool the monsters occupy both workers and
        // the blips queue behind them; with two shard groups tenant 1
        // keeps its own worker and never waits.
        let offered: Vec<OfferedQuery> = (0..100)
            .map(|i| OfferedQuery {
                session: i,
                tenant: i % 2,
                seq: i,
                at: SimTime::from_millis(i as u64 * 5),
                lane: Lane::Interactive,
                query: Query::count("t", Predicate::True),
            })
            .collect();
        let costs: Vec<SimDuration> = (0..100)
            .map(|i| SimDuration::from_millis(if i % 2 == 0 { 1_000 } else { 5 }))
            .collect();
        let plan = FaultPlan::calm(1);
        let shared = simulate_service(
            &offered,
            &costs,
            &AdmissionPolicy::unlimited(),
            &plan,
            &params(),
        );
        let sharded = simulate_service(
            &offered,
            &costs,
            &AdmissionPolicy::unlimited(),
            &plan,
            &ServeParams {
                shards: 2,
                ..params()
            },
        );
        assert_eq!(sharded.admitted, shared.admitted);
        // Half the fleet (the blips) now finishes in single-digit
        // milliseconds, so the fleet median collapses versus the shared
        // pool, where the monsters queue ahead of everyone.
        assert!(
            sharded.p50 < shared.p50,
            "{:?} vs {:?}",
            sharded.p50,
            shared.p50
        );
    }

    #[test]
    fn node_loss_in_one_group_spares_the_other() {
        // Two groups of one worker each; slot 0 (group 0) is lost for
        // the whole run. Group 1 tenants must be completely unaffected.
        let offered: Vec<OfferedQuery> = (0..40)
            .map(|i| OfferedQuery {
                session: i,
                tenant: i % 2,
                seq: i,
                at: SimTime::from_millis(i as u64 * 10),
                lane: Lane::Interactive,
                query: Query::count("t", Predicate::True),
            })
            .collect();
        let costs = flat_costs(40, 5);
        let lossy = FaultPlan::builder(1)
            .lose_node_during(0, SimTime::ZERO, SimDuration::from_millis(200))
            .build();
        let p = ServeParams {
            workers: 2,
            latency_budget: SimDuration::from_millis(100),
            deadline: false,
            shards: 2,
        };
        let degraded =
            simulate_service(&offered, &costs, &AdmissionPolicy::unlimited(), &lossy, &p);
        let calm = simulate_service(
            &offered,
            &costs,
            &AdmissionPolicy::unlimited(),
            &FaultPlan::calm(1),
            &p,
        );
        // Group 0's early starts defer past the outage and queue, so
        // the tail fattens — but group 1 (half the fleet) never waits,
        // so the median is exactly calm service's.
        assert_eq!(degraded.admitted, 40);
        assert!(
            degraded.p99 > calm.p99,
            "{:?} vs {:?}",
            degraded.p99,
            calm.p99
        );
        assert_eq!(degraded.p50, calm.p50, "the spared group sets the median");
    }

    #[test]
    fn partial_loss_degrades_latency() {
        let offered = offered_stream(50, 10);
        let costs = flat_costs(50, 8);
        let lossy = FaultPlan::builder(1)
            .lose_node_during(1, SimTime::ZERO, SimDuration::from_secs(10))
            .build();
        let degraded = simulate_service(
            &offered,
            &costs,
            &AdmissionPolicy::unlimited(),
            &lossy,
            &params(),
        );
        let calm = simulate_service(
            &offered,
            &costs,
            &AdmissionPolicy::unlimited(),
            &FaultPlan::calm(1),
            &params(),
        );
        assert!(degraded.p99 >= calm.p99);
        assert!(degraded.drained_at > calm.drained_at);
    }
}
