//! Scenario execution: one [`Scenario`] in, one [`RunArtifacts`] out.
//!
//! Two stages mirror how the repository's experiments use the stack:
//!
//! 1. **Fleet stage** — the full `ids-serve` pipeline exactly as the
//!    core fleet experiment wires it: synthesize the offered stream,
//!    register per-tenant road tables behind one shared disk-backed
//!    buffer pool, fix per-query costs under the scenario's fault plan,
//!    then replay them through the queueing simulation twice (admission
//!    policy vs open queueing).
//! 2. **Replay stage** — a single session of the scenario's workload
//!    family replayed through the resilient scheduler over a
//!    chaos-wrapped in-memory backend, exercising retries, failure
//!    placeholders, and budget-driven degradation to `Partial` answers.
//!
//! Everything observable is folded into a canonical `digest` string —
//! the byte-level identity the determinism and thread-invariance
//! oracles compare. The digest deliberately includes every result
//! payload (hashed), every timing, and every quality tag: if any of
//! them depends on wall-clock time, host threads, or map iteration
//! order, two digests will differ.

use ids_chaos::{query_fingerprint, ChaosBackend, FaultPlan};
use ids_engine::scheduler::{replay_resilient, IssuedQuery, QueryTiming, ResiliencePolicy};
use ids_engine::{
    Backend, CostParams, Database, DiskBackend, EngineResult, EvictionPolicy, MemBackend,
    Predicate, Query, QueryOutcome, ResultQuality, RetryingBackend,
};
use ids_serve::closedloop::quality_token;
use ids_serve::{
    drive_session, measure_costs, simulate_service, synthesize_fleet, AdmissionPolicy,
    ArrivalProcess, ClosedLoopParams, FleetOutcome, FleetSpec, ServeParams,
};
use ids_shard::{partition_table, PartitionScheme, ScatterGather};
use ids_simclock::rng::fnv1a;
use ids_simclock::{SimDuration, SimTime};
use ids_workload::adaptive::{BehaviorConfig, BehaviorPolicy};
use ids_workload::{adaptive, composite, crossfilter, datasets, mining, scrolling};

use crate::scenario::{derive_seed, ArrivalShape, Scenario, SessionShape};

/// Ceiling on replay-stage queries per shape, so scenario cost stays
/// bounded no matter what the trace models emit.
const MAX_REPLAY_QUERIES: usize = 64;

/// One replayed query with everything the oracles need to judge it.
#[derive(Debug, Clone)]
pub struct ReplayRecord {
    /// The query as issued.
    pub query: Query,
    /// Scheduler timing (issue → start → finish).
    pub timing: QueryTiming,
    /// Backend outcome (result, cost, quality).
    pub outcome: QueryOutcome,
}

/// Everything a scenario run produced.
#[derive(Debug, Clone)]
pub struct RunArtifacts {
    /// Queries the fleet offered.
    pub offered: usize,
    /// Offer instants, in canonical offered order.
    pub offered_at: Vec<SimTime>,
    /// Fleet outcome under the scenario's admission policy.
    pub admission: FleetOutcome,
    /// Fleet outcome with everything admitted.
    pub baseline: FleetOutcome,
    /// Single-session resilient replay records.
    pub replay: Vec<ReplayRecord>,
    /// Canonical byte identity of the run.
    pub digest: String,
}

fn arrival_process(shape: &ArrivalShape) -> ArrivalProcess {
    match *shape {
        ArrivalShape::Poisson { gap_ms } => ArrivalProcess::Poisson {
            mean_gap: SimDuration::from_millis(gap_ms),
        },
        ArrivalShape::Bursts {
            count,
            spacing_ms,
            width_ms,
        } => ArrivalProcess::Bursts {
            count,
            spacing: SimDuration::from_millis(spacing_ms),
            width: SimDuration::from_millis(width_ms),
        },
    }
}

fn fleet_plan(s: &Scenario, horizon: SimDuration) -> FaultPlan {
    if s.chaos_intensity <= 0.0 {
        FaultPlan::calm(s.seed)
    } else if s.node_loss {
        FaultPlan::storm_with_node_loss(s.seed, s.chaos_intensity, horizon, s.workers)
    } else {
        FaultPlan::storm(s.seed, s.chaos_intensity, horizon)
    }
}

/// Builds the replay stage's backend and issued-query stream for the
/// scenario's workload family. Shared by the pipeline and the
/// partial-bounds oracle (which re-executes queries plainly).
pub fn build_replay_env(s: &Scenario) -> (MemBackend, Vec<IssuedQuery>) {
    let backend = MemBackend::new();
    let db = backend.database();
    let mut stream = Vec::new();
    match s.shape {
        SessionShape::Crossfilter => {
            let table = "simtest_xf";
            db.register(datasets::road_network_named(table, s.seed, s.rows.min(600)));
            let ui = crossfilter::CrossfilterUi::for_table(table);
            let groups = crossfilter::leading_groups(&ui, s.device, 0, s.seed, s.max_groups.max(1));
            for g in groups {
                for q in g.queries {
                    stream.push(IssuedQuery::new(g.at, q, stream.len() as u64));
                }
            }
        }
        SessionShape::Scrolling => {
            let tuples = s.rows.clamp(50, 600);
            db.register(datasets::movies_sized(s.seed, tuples));
            let session = scrolling::simulate_session(0, s.seed, tuples);
            let mut fetched = 0u64;
            for (at, demand) in scrolling::demand_curve(&session) {
                if demand > fetched {
                    let q = Query::select(
                        "imdb",
                        vec![],
                        Predicate::True,
                        Some((demand - fetched) as usize),
                        fetched as usize,
                    );
                    stream.push(IssuedQuery::new(at, q, stream.len() as u64));
                    fetched = demand;
                }
            }
        }
        SessionShape::Composite => {
            db.register(datasets::listings(s.seed, s.rows.min(500)));
            let session = composite::simulate_session(0, s.seed, SimDuration::from_secs(90));
            for step in &session.steps {
                let (sw_lat, sw_lng, ne_lat, ne_lng) = step.state.map.bounds();
                let q = Query::count(
                    "listings",
                    Predicate::and([
                        Predicate::between("lat", sw_lat, ne_lat),
                        Predicate::between("lng", sw_lng, ne_lng),
                    ]),
                );
                stream.push(IssuedQuery::new(step.at, q, stream.len() as u64));
            }
        }
        SessionShape::Adaptive => {
            // Closed loop: the behavior model reacts to each answer from
            // the calm backend under the scenario's admission/resilience
            // policies; the action stream it settles on becomes the
            // replay-stage stream (which then runs under chaos).
            let table = "simtest_adaptive";
            db.register(datasets::road_network_named(table, s.seed, s.rows.min(600)));
            let ui = crossfilter::CrossfilterUi::for_table(table);
            let policy = BehaviorPolicy::adaptive(s.seed, ui).with_config(behavior_config(s));
            let outcome = drive_session(&backend, &policy, &closed_loop_params(s));
            for a in &outcome.actions {
                let g = adaptive::compile_action(policy.ui(), a);
                for q in &g.queries {
                    stream.push(IssuedQuery::new(g.at, q.clone(), stream.len() as u64));
                }
            }
        }
        SessionShape::Mined => {
            // Mine an open-loop crossfilter trace into widget signatures,
            // graft them into a novel composite interface, and replay a
            // synthesized session of that interface.
            let table = "simtest_mined";
            db.register(datasets::road_network_named(table, s.seed, s.rows.min(600)));
            let ui = crossfilter::CrossfilterUi::for_table(table);
            let session = crossfilter::simulate_session(s.device, 0, s.seed, &ui);
            let mined = mining::mine(&mining::crossfilter_request_trace(&ui, &session.trace));
            let novel = mining::compose_novel(&mined, &ui);
            let trace = novel.synthesize(derive_seed(s.seed, 0x51ed), s.adaptive_steps.max(1));
            for (at, q) in novel.compile(&trace) {
                stream.push(IssuedQuery::new(at, q, stream.len() as u64));
            }
        }
    }
    stream.truncate(MAX_REPLAY_QUERIES);
    (backend, stream)
}

/// The behavior-model configuration a scenario pins down.
pub fn behavior_config(s: &Scenario) -> BehaviorConfig {
    BehaviorConfig {
        max_actions: s.adaptive_steps.max(1),
        abandon_after: SimDuration::from_millis(s.abandon_ms.max(1)),
    }
}

/// The closed-loop service parameters a scenario pins down: the fleet
/// admission policy and the replay-stage resilience policy.
pub fn closed_loop_params(s: &Scenario) -> ClosedLoopParams {
    ClosedLoopParams {
        workers: s.workers.max(1),
        admission: AdmissionPolicy {
            tenant_rate: s.tenant_rate,
            tenant_burst: s.tenant_burst,
            queue_limit: s.queue_limit,
            prefetch_queue_limit: 0,
        },
        resilience: resilience_policy(s),
        ..ClosedLoopParams::default()
    }
}

/// The resilience policy the replay stage schedules under.
pub fn resilience_policy(s: &Scenario) -> ResiliencePolicy {
    if s.resilience_budget_ms == 0 {
        ResiliencePolicy::Rigid
    } else {
        ResiliencePolicy::DegradeAfter(SimDuration::from_millis(s.resilience_budget_ms))
    }
}

/// Runs one scenario end to end. Pure on the virtual clock: the same
/// `(scenario, threads)` always produces the same artifacts, and
/// `threads` must not change the digest at all (that is an oracle).
pub fn run_pipeline(s: &Scenario, threads: usize) -> RunArtifacts {
    // ---- Stage 1: fleet serving --------------------------------------
    let spec = FleetSpec {
        seed: s.seed,
        sessions: s.sessions,
        tenants: s.tenants.max(1),
        arrival: arrival_process(&s.arrival),
        max_groups: s.max_groups,
        prefetch_rate: s.prefetch_rate,
    };
    let offered = synthesize_fleet(&spec, threads.max(1));

    let cost_scale = datasets::road_domain::ROWS as f64 / s.rows.max(1) as f64;
    let disk = DiskBackend::with_config(
        CostParams::disk_default().scaled(cost_scale),
        s.pool_pages.max(1),
        EvictionPolicy::Lru,
    );
    let db = disk.database();
    for tenant in 0..s.tenants.max(1) {
        db.register(datasets::road_network_named(
            &FleetSpec::tenant_table(tenant),
            s.seed,
            s.rows,
        ));
    }

    let horizon = offered
        .last()
        .map(|q| q.at.saturating_since(SimTime::ZERO))
        .unwrap_or(SimDuration::ZERO);
    let plan = fleet_plan(s, horizon);
    let latency_budget = SimDuration::from_millis(s.latency_budget_ms);
    let costs = measure_costs(&disk, Some(&disk), &offered, &plan, latency_budget);

    let params = ServeParams {
        workers: s.workers.max(1),
        latency_budget,
        deadline: false,
        shards: 1,
    };
    let admission_policy = AdmissionPolicy {
        tenant_rate: s.tenant_rate,
        tenant_burst: s.tenant_burst,
        queue_limit: s.queue_limit,
        prefetch_queue_limit: 0,
    };
    let admission = simulate_service(&offered, &costs, &admission_policy, &plan, &params);
    let baseline = simulate_service(
        &offered,
        &costs,
        &AdmissionPolicy::unlimited(),
        &plan,
        &params,
    );

    // ---- Stage 2: single-session resilient replay --------------------
    let (mem, stream) = build_replay_env(s);
    let replay_horizon = stream
        .last()
        .map(|q| q.issued_at.saturating_since(SimTime::ZERO))
        .unwrap_or(SimDuration::ZERO);
    let replay_plan = if s.chaos_intensity > 0.0 {
        FaultPlan::storm(
            derive_seed(s.seed, 0x7e91),
            s.chaos_intensity,
            replay_horizon,
        )
    } else {
        FaultPlan::calm(s.seed)
    };
    let chaos = ChaosBackend::new(&mem, replay_plan);
    let retrying = RetryingBackend::new(&chaos);
    let policy = resilience_policy(s);
    let replay: Vec<ReplayRecord> = replay_resilient(&retrying, &stream, s.workers, &policy)
        .expect("replay streams only hit transient errors")
        .into_iter()
        .zip(&stream)
        .map(|((timing, outcome), iq)| ReplayRecord {
            query: iq.query.clone(),
            timing,
            outcome,
        })
        .collect();

    // ---- Canonical digest --------------------------------------------
    let mut digest = String::new();
    digest.push_str(&format!("offered {}\n", offered.len()));
    let stream_hash = fnv1a(offered.iter().flat_map(|q| {
        format!(
            "{}|{}|{}|{:?}|{}",
            q.at.as_micros(),
            q.session,
            q.seq,
            q.lane,
            query_fingerprint(&q.query)
        )
        .into_bytes()
    }));
    digest.push_str(&format!("stream {stream_hash:016x}\n"));
    let cost_hash = fnv1a(costs.iter().flat_map(|c| c.as_micros().to_le_bytes()));
    digest.push_str(&format!("costs {cost_hash:016x}\n"));
    for (name, o) in [("admission", &admission), ("baseline", &baseline)] {
        digest.push_str(&format!(
            "{name} admitted={} interactive={} shed={:?} lcv={}/{} p50={} p95={} p99={} qps={:?} drained={} sessions={}\n",
            o.admitted,
            o.interactive_admitted,
            o.shed,
            o.lcv.violations,
            o.lcv.total,
            o.p50.as_micros(),
            o.p95.as_micros(),
            o.p99.as_micros(),
            o.admitted_qps,
            o.drained_at.as_micros(),
            o.sessions_served,
        ));
    }
    for r in &replay {
        let result_hash = fnv1a(format!("{:?}", r.outcome.result).into_bytes());
        digest.push_str(&format!(
            "replay tag={} issued={} started={} finished={} quality={} result={result_hash:016x}\n",
            r.timing.tag,
            r.timing.issued_at.as_micros(),
            r.timing.started_at.as_micros(),
            r.timing.finished_at.as_micros(),
            quality_token(&r.outcome.quality),
        ));
    }

    RunArtifacts {
        offered: offered.len(),
        offered_at: offered.iter().map(|q| q.at).collect(),
        admission,
        baseline,
        replay,
        digest,
    }
}

/// A backend whose *answers* come from a scatter-gather over `shards`
/// partitions while its *costs* (and failure/latency behavior) come from
/// the unsharded inner backend. This is the `adaptive-determinism`
/// oracle's instrument: the closed loop's feedback latencies stay
/// shard-invariant by construction, so any divergence a shard count
/// introduces must be a result divergence — and lands in the digest,
/// where the oracle sees it.
struct ShardedBackend<'a> {
    inner: &'a dyn Backend,
    gather: ScatterGather,
}

impl Backend for ShardedBackend<'_> {
    fn name(&self) -> &str {
        "sharded-adaptive"
    }

    fn database(&self) -> Database {
        self.inner.database()
    }

    fn execute(&self, query: &Query) -> EngineResult<QueryOutcome> {
        let mut out = self.inner.execute(query)?;
        // Failed placeholders keep their placeholder results; exact
        // answers are replaced by the merged sharded answer.
        if out.quality == ResultQuality::Exact {
            out.result = self.gather.execute(query)?.result;
        }
        Ok(out)
    }
}

/// Drives one closed-loop adaptive session for the
/// `adaptive-determinism` oracle: answers are scatter-gathered across
/// `shards` hash partitions with `threads` gather threads, costs and
/// faults come from the chaos-wrapped unsharded backend, and the
/// resilience mode always degrades (so `Partial` answers flow through
/// the feedback loop). Returns the
/// canonical digest — action stream, request trace, per-query timings
/// and qualities, plus the interface mined back out of the trace — that
/// must be byte-identical across replays, thread counts, and shard
/// counts.
pub fn adaptive_run(s: &Scenario, threads: usize, shards: usize) -> String {
    let rows = s.rows.clamp(50, 600);
    let table = datasets::road_network_named("simtest_adaptive", s.seed, rows);
    let parts = partition_table(&table, &PartitionScheme::HashRows, s.seed, shards.max(1))
        .expect("hash partitioning a road table cannot fail");
    let dbs: Vec<Database> = parts
        .into_iter()
        .map(|t| {
            let db = Database::new();
            db.register(t);
            db
        })
        .collect();
    let gather = ScatterGather::over(dbs).with_threads(threads.max(1));

    let mem = MemBackend::new();
    mem.database().register(table);
    // A generous horizon: the session is action-bounded, and each action
    // costs at most think time (~1.5s) plus the abandon threshold.
    let horizon =
        SimDuration::from_millis(s.adaptive_steps.max(1) as u64 * (s.abandon_ms + 2_000) + 10_000);
    let plan = if s.chaos_intensity > 0.0 {
        FaultPlan::storm(derive_seed(s.seed, 0xada), s.chaos_intensity, horizon)
    } else {
        FaultPlan::calm(s.seed)
    };
    let chaos = ChaosBackend::new(&mem, plan);
    let retrying = RetryingBackend::new(&chaos);
    let sharded = ShardedBackend {
        inner: &retrying,
        gather,
    };

    let ui = crossfilter::CrossfilterUi::for_table("simtest_adaptive");
    let policy = BehaviorPolicy::adaptive(s.seed, ui).with_config(behavior_config(s));
    let mut params = closed_loop_params(s);
    params.resilience = ResiliencePolicy::DegradeAfter(SimDuration::from_millis(
        s.resilience_budget_ms.max(s.latency_budget_ms).max(50),
    ));
    let outcome = drive_session(&sharded, &policy, &params);

    let mut digest = outcome.digest();
    digest.push_str(&mining::mine(&outcome.trace).render());
    digest
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::derive_seed;

    #[test]
    fn replay_env_is_nonempty_for_every_shape() {
        let mut seen = std::collections::BTreeSet::new();
        for i in 0..30u64 {
            let s = Scenario::generate(derive_seed(31, i));
            let (_, stream) = build_replay_env(&s);
            assert!(
                !stream.is_empty(),
                "shape {:?} produced no queries",
                s.shape
            );
            assert!(stream.len() <= MAX_REPLAY_QUERIES);
            assert!(
                stream.windows(2).all(|w| w[0].issued_at <= w[1].issued_at),
                "stream must be sorted"
            );
            seen.insert(s.shape.token());
        }
        assert_eq!(seen.len(), 5, "all shapes exercised");
    }

    #[test]
    fn adaptive_run_digest_is_stable() {
        let mut s = Scenario::generate(derive_seed(43, 0));
        s.shape = crate::scenario::SessionShape::Adaptive;
        assert_eq!(adaptive_run(&s, 2, 4), adaptive_run(&s, 2, 4));
    }

    #[test]
    fn pipeline_digest_is_reproducible() {
        let s = Scenario::generate(derive_seed(37, 1));
        let a = run_pipeline(&s, s.threads);
        let b = run_pipeline(&s, s.threads);
        assert_eq!(a.digest, b.digest);
        assert!(a.offered > 0);
    }
}
