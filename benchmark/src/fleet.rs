//! `fleet_serve`: one op is one whole fleet round on the serving and
//! telemetry path — synthesize the sessions, price every offered query
//! on a shared disk backend, run admission and the queue simulation with
//! the recorder on, then ingest, query and export what it recorded.

use std::sync::Mutex;
use std::time::Instant;

use ids_chaos::FaultPlan;
use ids_engine::{
    Backend, BufferPoolStats, CostParams, Database, DiskBackend, EngineResult, EvictionPolicy,
    Query, QueryOutcome,
};
use ids_lakehouse::{reference_p99_by_tenant, Lakehouse, TenantLatency, TimeWindow};
use ids_obs::chrome_trace_json;
use ids_serve::{
    measure_costs, simulate_service, synthesize_fleet, AdmissionPolicy, ArrivalProcess,
    FleetOutcome, FleetSpec, OfferedQuery, ServeParams,
};
use ids_simclock::SimDuration;
use ids_workload::datasets;

use crate::harness::{LayerInput, Layers, Workload};
use crate::json;
use crate::request::time_ns;
use crate::stats::Fnv;
use crate::trace::{durations, Tracer};

const SESSIONS: usize = 8;
const TENANTS: usize = 4;
const MAX_GROUPS: usize = 8;
const TENANT_ROWS: usize = 10_000;
/// Smaller than the tenants' combined working set, so the shared pool
/// evicts inside every round.
const POOL_PAGES: usize = 64;
const WORKERS: usize = 4;
const BUDGET: SimDuration = SimDuration::from_millis(10);
/// Rounds the recorder-on against recorder-off probe times, and times
/// it runs each side per round.
const PROBE_ROUNDS: usize = 16;
const PROBE_REPEATS: usize = 8;
/// Leading rounds the exact counters are summed over.
const EXACT_ROUNDS: usize = 4;

/// What a round produced, kept for the untimed check and the counters.
struct Round {
    outcome: FleetOutcome,
    lake: Lakehouse,
    p99: Vec<TenantLatency>,
    export: String,
    events: usize,
    pool: BufferPoolStats,
}

pub struct FleetServe {
    seed: u64,
    sessions: usize,
    disk: DiskBackend,
    plan: FaultPlan,
    policy: AdmissionPolicy,
    params: ServeParams,
    last: Option<Round>,
    /// Totals over traced rounds, the denominators of per-item costs.
    traced_offered: u64,
    traced_events: u64,
    traced_export_bytes: u64,
}

/// Passes calls through to the disk backend and notes when each began
/// and ended, so a traced round can tell backend time from the chaos and
/// retry wrappers `measure_costs` puts around it.
struct TimingBackend<'a> {
    inner: &'a DiskBackend,
    epoch: Instant,
    calls: Mutex<Vec<(u64, u64)>>,
}

impl Backend for TimingBackend<'_> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn database(&self) -> Database {
        self.inner.database()
    }

    fn execute(&self, query: &Query) -> EngineResult<QueryOutcome> {
        let start = self.epoch.elapsed().as_nanos() as u64;
        let outcome = self.inner.execute(query);
        let end = self.epoch.elapsed().as_nanos() as u64;
        self.calls
            .lock()
            .expect("no call panics while holding the list")
            .push((start, end));
        outcome
    }
}

impl FleetServe {
    pub fn new(seed: u64, scale: usize) -> FleetServe {
        let disk =
            DiskBackend::with_config(CostParams::disk_default(), POOL_PAGES, EvictionPolicy::Lru);
        let db = disk.database();
        for tenant in 0..TENANTS {
            db.register(datasets::road_network_named(
                &FleetSpec::tenant_table(tenant),
                seed,
                (TENANT_ROWS / scale).max(1),
            ));
        }
        FleetServe {
            seed,
            sessions: (SESSIONS / scale).max(TENANTS),
            disk,
            plan: FaultPlan::calm(seed),
            policy: AdmissionPolicy::interactive(8.0, 8),
            params: ServeParams {
                workers: WORKERS,
                latency_budget: BUDGET,
                deadline: false,
                shards: 1,
            },
            last: None,
            traced_offered: 0,
            traced_events: 0,
            traced_export_bytes: 0,
        }
    }

    fn spec(&self, round: usize) -> FleetSpec {
        FleetSpec {
            seed: self.seed * 1_000 + round as u64,
            sessions: self.sessions,
            tenants: TENANTS,
            arrival: ArrivalProcess::Poisson {
                mean_gap: SimDuration::from_millis(200),
            },
            max_groups: MAX_GROUPS,
            prefetch_rate: 0.2,
        }
    }

    /// Synthesis and pricing of round `round`, from a cold pool so the
    /// round is a function of its seed alone.
    fn offered_and_costs(
        &self,
        round: usize,
        tr: &mut Tracer,
    ) -> (Vec<OfferedQuery>, Vec<SimDuration>) {
        self.disk.flush_pool();
        let spec = self.spec(round);
        let offered = tr.span("workload.synthesize", |_| synthesize_fleet(&spec, 1));
        let costs = tr.span("serve.measure_costs", |tr| {
            if !tr.is_on() {
                return measure_costs(&self.disk, Some(&self.disk), &offered, &self.plan, BUDGET);
            }
            let timing = TimingBackend {
                inner: &self.disk,
                epoch: tr.epoch(),
                calls: Mutex::new(Vec::new()),
            };
            let costs = measure_costs(&timing, Some(&self.disk), &offered, &self.plan, BUDGET);
            for (start, end) in timing.calls.into_inner().unwrap_or_default() {
                tr.record("backend.execute", start, end);
            }
            costs
        });
        (offered, costs)
    }

    fn simulate(&self, offered: &[OfferedQuery], costs: &[SimDuration]) -> FleetOutcome {
        simulate_service(offered, costs, &self.policy, &self.plan, &self.params)
    }
}

impl Workload for FleetServe {
    fn period(&self) -> Option<usize> {
        None
    }

    fn op(&mut self, i: usize, tr: &mut Tracer) -> Result<(), String> {
        let recorder = ids_obs::recorder();
        recorder.clear();
        let (offered, costs) = self.offered_and_costs(i, tr);

        ids_obs::enable();
        let mark = recorder.event_count();
        let outcome = tr.span("serve.simulate", |_| self.simulate(&offered, &costs));
        ids_obs::disable();
        let (events, tracks) = tr.span("obs.collect", |_| {
            (recorder.events_since(mark), recorder.tracks())
        });

        let mut lake = Lakehouse::new();
        tr.span("lakehouse.ingest", |_| lake.ingest_events(&events, &tracks));
        let p99 = tr
            .span("lakehouse.p99_query", |_| {
                lake.queries()
                    .and_then(|mut q| q.p99_by_tenant(TimeWindow::all()))
            })
            .map_err(|e| e.to_string())?;
        let export = tr.span("obs.export", |_| chrome_trace_json(&events, &tracks));

        if tr.is_on() {
            self.traced_offered += offered.len() as u64;
            self.traced_events += events.len() as u64;
            self.traced_export_bytes += export.len() as u64;
        }
        self.last = Some(Round {
            outcome,
            lake,
            p99,
            export,
            events: events.len(),
            pool: self.disk.pool_stats(),
        });
        Ok(())
    }

    /// Conservation at admission, the vectorised p99 against its
    /// row-at-a-time reference, and a trace export that parses; then a
    /// digest of what the round decided and reported.
    fn answer(&mut self) -> Option<u64> {
        let round = self.last.as_ref()?;
        let outcome = &round.outcome;
        let conserved = outcome.admitted + outcome.shed.total() == outcome.offered;
        let p99_agrees = round
            .lake
            .spans_table()
            .and_then(|spans| reference_p99_by_tenant(&spans, TimeWindow::all()))
            .is_ok_and(|expected| expected == round.p99);
        if !(conserved && p99_agrees && json::is_valid(&round.export)) {
            return None;
        }
        let mut h = Fnv::default();
        for n in [
            outcome.offered,
            outcome.admitted,
            outcome.shed.total(),
            outcome.lcv.violations,
            round.events,
        ] {
            h.word(n as u64);
        }
        h.word(outcome.p99.as_micros());
        h.word(outcome.drained_at.as_micros());
        for row in &round.p99 {
            h.bytes(row.tenant.as_bytes());
            h.word(row.spans as u64);
            h.word(row.p99_us as u64);
        }
        h.bytes(round.export.as_bytes());
        Some(h.0)
    }

    fn verify(&mut self, _answers: &[u64]) -> u64 {
        // Every round was checked as it ran.
        0
    }

    fn layers(&mut self, input: &LayerInput<'_>, out: &mut Layers) {
        let spans = input.spans;
        let sum = |name: &str| durations(spans, name).iter().sum::<u64>() as f64;

        out.percentiles(
            "workload.synthesize_p50_ms",
            None,
            &durations(spans, "workload.synthesize"),
            1e6,
        );
        out.set(
            "workload.sessions_per_s",
            (self.sessions * input.ops) as f64 / (sum("workload.synthesize") / 1e9),
            input.ops,
        );
        out.percentiles(
            "serve.measure_costs_p50_ms",
            None,
            &durations(spans, "serve.measure_costs"),
            1e6,
        );
        let backend = durations(spans, "backend.execute");
        out.percentiles("backend.execute_p50_us", None, &backend, 1e3);
        out.set(
            "backend.execute_share",
            sum("backend.execute") / sum("serve.measure_costs"),
            backend.len(),
        );
        // What measure_costs spends outside the backend: its self time.
        let wrapper: Vec<u64> = spans
            .iter()
            .zip(input.own_ns)
            .filter(|(s, _)| s.name == "serve.measure_costs")
            .map(|(_, &own)| own)
            .collect();
        out.percentiles("chaos.wrapper_overhead_p50_ms", None, &wrapper, 1e6);
        out.percentiles(
            "serve.simulate_p50_us",
            None,
            &durations(spans, "serve.simulate"),
            1e3,
        );
        out.set(
            "serve.simulate_ns_per_query",
            sum("serve.simulate") / self.traced_offered.max(1) as f64,
            input.ops,
        );
        out.percentiles(
            "lakehouse.ingest_p50_us",
            None,
            &durations(spans, "lakehouse.ingest"),
            1e3,
        );
        out.set(
            "lakehouse.ingest_ns_per_event",
            sum("lakehouse.ingest") / self.traced_events.max(1) as f64,
            input.ops,
        );
        out.percentiles(
            "lakehouse.p99_query_p50_us",
            None,
            &durations(spans, "lakehouse.p99_query"),
            1e3,
        );
        out.percentiles(
            "obs.export_p50_us",
            None,
            &durations(spans, "obs.export"),
            1e3,
        );
        // Bytes per nanosecond is GB/s; MB/s is a thousand times that.
        out.set(
            "obs.export_mb_per_s",
            1e3 * self.traced_export_bytes as f64 / sum("obs.export").max(1.0),
            input.ops,
        );

        // The queue simulation with the recorder on against off, on the
        // same offered stream and costs, alternating; the fastest of each
        // per round, since a neighbour only ever adds time.
        let (mut on_ns, mut off_ns) = (0u64, 0u64);
        let mut quiet = Tracer::new(false);
        for round in 0..PROBE_ROUNDS {
            let (offered, costs) = self.offered_and_costs(round, &mut quiet);
            let (mut on_best, mut off_best) = (u64::MAX, u64::MAX);
            for _ in 0..PROBE_REPEATS {
                off_best = off_best.min(time_ns(|| self.simulate(&offered, &costs)).1);
                ids_obs::recorder().clear();
                ids_obs::enable();
                on_best = on_best.min(time_ns(|| self.simulate(&offered, &costs)).1);
                ids_obs::disable();
            }
            on_ns += on_best;
            off_ns += off_best;
        }
        out.set(
            "obs.record_overhead_frac",
            on_ns as f64 / off_ns.max(1) as f64 - 1.0,
            PROBE_ROUNDS,
        );

        // Exact counters over the leading rounds.
        let (mut offered, mut admitted, mut shed, mut events) = (0usize, 0usize, 0usize, 0usize);
        let (mut lcv_total, mut lcv_violations, mut p99_us) = (0usize, 0usize, 0u64);
        let mut pool = BufferPoolStats::default();
        for round in 0..EXACT_ROUNDS {
            if self.op(round, &mut quiet).is_err() {
                continue;
            }
            let Some(last) = &self.last else { continue };
            offered += last.outcome.offered;
            admitted += last.outcome.admitted;
            shed += last.outcome.shed.total();
            lcv_total += last.outcome.lcv.total;
            lcv_violations += last.outcome.lcv.violations;
            p99_us += last.outcome.p99.as_micros();
            events += last.events;
            pool.hits += last.pool.hits;
            pool.misses += last.pool.misses;
            pool.evictions += last.pool.evictions;
        }
        out.set("serve.offered", offered as f64, EXACT_ROUNDS);
        out.set("serve.admitted", admitted as f64, EXACT_ROUNDS);
        out.set("serve.shed", shed as f64, EXACT_ROUNDS);
        out.set(
            "serve.lcv_frac_virtual",
            lcv_violations as f64 / lcv_total.max(1) as f64,
            lcv_total,
        );
        out.set(
            "serve.p99_virtual_us",
            p99_us as f64 / EXACT_ROUNDS as f64,
            EXACT_ROUNDS,
        );
        out.set(
            "obs.events_per_op",
            events as f64 / EXACT_ROUNDS as f64,
            EXACT_ROUNDS,
        );
        out.set("buffer.hit_rate", pool.hit_rate(), EXACT_ROUNDS);
        out.set("buffer.evictions", pool.evictions as f64, EXACT_ROUNDS);
    }
}
