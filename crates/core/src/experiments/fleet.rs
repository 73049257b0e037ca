//! Fleet-scale serving: violation-rate-versus-concurrency curves for a
//! multi-tenant session fleet over one shared engine.
//!
//! The paper's evaluations are single-session; a deployed interactive
//! system serves thousands of sessions against shared workers and a
//! shared buffer pool. This experiment sweeps fleet concurrency and, at
//! each level, serves the *same* offered query stream twice through
//! `ids-serve`:
//!
//! - **admission on** — per-tenant token buckets, a bounded queue, and
//!   prefetch suppression shed the overload;
//! - **baseline** — every query is admitted and queues behind its
//!   predecessors, the fleet-scale version of the paper's Fig 2
//!   latency cascade.
//!
//! Both conditions replay one per-query cost sequence fixed by a single
//! chaos-wrapped execution pass, so the delta in tail latency and LCV
//! rate is attributable to admission control alone. With a nonzero
//! chaos intensity the fault plan also includes mid-run node-loss
//! windows, demonstrating that capacity loss degrades the fleet (later
//! drain, fatter tail) without wedging it.

use ids_chaos::FaultPlan;
use ids_engine::{Backend, CostParams, DiskBackend, EvictionPolicy};
use ids_lakehouse::{Lakehouse, LcvPoint, SlowSpan, TenantLatency, TimeWindow};
use ids_obs::TraceEvent;
use ids_serve::{
    measure_costs, simulate_service, synthesize_fleet, AdmissionPolicy, ArrivalProcess,
    FleetOutcome, FleetSpec, ServeParams,
};
use ids_simclock::{SimDuration, SimTime};
use ids_workload::datasets;

use crate::report::{pct, Table};

/// Experiment parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetConfig {
    /// RNG seed (drives arrivals, traces, lanes, and fault plans).
    pub seed: u64,
    /// Rows in each tenant's table.
    pub rows: usize,
    /// Tenants the fleet is striped across.
    pub tenants: usize,
    /// Concurrency levels swept (sessions per level, ascending).
    pub session_counts: Vec<usize>,
    /// Cap on slider-move groups per session.
    pub max_groups: usize,
    /// Fraction of queries offered on the prefetch lane.
    pub prefetch_rate: f64,
    /// Mean gap between session arrivals (Poisson process).
    pub arrival_gap: SimDuration,
    /// Per-query latency budget (LCV threshold).
    pub latency_budget: SimDuration,
    /// Shared engine worker slots.
    pub workers: usize,
    /// Host threads used for fleet synthesis (output-invariant).
    pub threads: usize,
    /// Fault-plan intensity in `[0, 1]`; zero serves calm.
    pub chaos_intensity: f64,
    /// Sustained per-tenant admission rate, queries/second.
    pub tenant_rate: f64,
    /// Per-tenant burst allowance — sized to absorb one session's
    /// slider-drag burst, so a lone tenant is not rate-limited while
    /// overlapping tenants are.
    pub tenant_burst: f64,
    /// Bounded-queue depth for the admission condition.
    pub queue_limit: usize,
    /// Shared buffer-pool size, pages.
    pub pool_pages: usize,
}

impl FleetConfig {
    /// Full-scale sweep: thousands of sessions at the top level.
    pub fn paper() -> FleetConfig {
        FleetConfig {
            seed: 271,
            rows: datasets::road_domain::ROWS,
            tenants: 8,
            session_counts: vec![256, 512, 1024, 2048],
            max_groups: 30,
            prefetch_rate: 0.25,
            arrival_gap: SimDuration::from_millis(40),
            latency_budget: SimDuration::from_millis(500),
            workers: 8,
            threads: 4,
            chaos_intensity: 0.0,
            tenant_rate: 1.5,
            tenant_burst: 60.0,
            queue_limit: 16,
            pool_pages: DiskBackend::DEFAULT_POOL_PAGES,
        }
    }

    /// Reduced scale for tests and the golden snapshot.
    pub fn smoke_test() -> FleetConfig {
        FleetConfig {
            seed: 271,
            rows: 2_000,
            tenants: 4,
            session_counts: vec![4, 8, 16, 32],
            max_groups: 8,
            prefetch_rate: 0.25,
            arrival_gap: SimDuration::from_millis(500),
            latency_budget: SimDuration::from_millis(1_000),
            workers: 4,
            threads: 1,
            chaos_intensity: 0.0,
            tenant_rate: 3.0,
            tenant_burst: 20.0,
            queue_limit: 8,
            pool_pages: 512,
        }
    }

    /// Per-tuple cost multiplier keeping the latency regime invariant
    /// when tables are scaled down (same trick as the robustness
    /// experiment).
    fn cost_scale(&self) -> f64 {
        datasets::road_domain::ROWS as f64 / self.rows.max(1) as f64
    }
}

/// One concurrency level's measurements.
#[derive(Debug, Clone)]
pub struct FleetPoint {
    /// Sessions served at this level.
    pub sessions: usize,
    /// Queries the fleet offered.
    pub offered: usize,
    /// Outcome under the admission policy.
    pub admission: FleetOutcome,
    /// Outcome with everything admitted.
    pub baseline: FleetOutcome,
}

/// Telemetry for the top concurrency level's admission condition,
/// computed *from the lakehouse*: the serve spans recorded during that
/// `simulate_service` pass are ingested into a [`Lakehouse`] and the
/// three canned [`ids_lakehouse::TelemetryQueries`] run over the
/// resulting columnar table with the engine's own vectorized kernels.
///
/// Empty (zero `span_rows`) when the obs recorder was disabled during
/// the run — capture is observation-only and never forces recording on.
#[derive(Debug, Clone, Default)]
pub struct FleetTelemetry {
    /// Concurrency level (sessions) the telemetry covers.
    pub sessions: usize,
    /// Serve spans ingested into the lakehouse.
    pub span_rows: usize,
    /// Blocks the canned queries skipped via zone maps.
    pub blocks_pruned: u64,
    /// Blocks the canned queries actually scanned.
    pub blocks_scanned: u64,
    /// `p99_by_tenant` over the whole level.
    pub p99: Vec<TenantLatency>,
    /// `lcv_over_window` trajectory.
    pub lcv: Vec<LcvPoint>,
    /// `slowest_spans` leaderboard.
    pub slowest: Vec<SlowSpan>,
    /// Bucket width used for the LCV trajectory, virtual microseconds.
    pub lcv_window_us: u64,
}

impl FleetTelemetry {
    /// Ingests the captured serve spans and runs the canned queries.
    /// Returns an empty telemetry block if nothing was captured (the
    /// recorder was off) or a query failed — telemetry must never take
    /// the experiment down.
    fn from_events(
        events: &[TraceEvent],
        tracks: &[String],
        sessions: usize,
        lcv_window: SimDuration,
    ) -> FleetTelemetry {
        // Keep only serve spans: the capture window may also contain
        // engine spans.
        let serve_spans: Vec<TraceEvent> = events
            .iter()
            .filter(|e| matches!(e, TraceEvent::Span { cat, .. } if *cat == "serve"))
            .cloned()
            .collect();
        if serve_spans.is_empty() {
            return FleetTelemetry::default();
        }
        let mut lake = Lakehouse::new();
        let stats = lake.ingest_events(&serve_spans, tracks);
        let Ok(mut queries) = lake.queries() else {
            return FleetTelemetry::default();
        };
        let lcv_window_us = lcv_window.as_micros().max(1);
        let (Ok(p99), Ok(lcv), Ok(slowest)) = (
            queries.p99_by_tenant(TimeWindow::all()),
            queries.lcv_over_window(lcv_window_us),
            queries.slowest_spans(5),
        ) else {
            return FleetTelemetry::default();
        };
        let kernel = queries.kernel_stats();
        FleetTelemetry {
            sessions,
            span_rows: stats.spans,
            blocks_pruned: kernel.blocks_pruned,
            blocks_scanned: kernel.blocks_scanned,
            p99,
            lcv,
            slowest,
            lcv_window_us,
        }
    }
}

/// The full concurrency-scaling report.
#[derive(Debug, Clone)]
pub struct FleetReport {
    /// Configuration used.
    pub config: FleetConfig,
    /// One point per concurrency level, ascending.
    pub points: Vec<FleetPoint>,
    /// Lakehouse telemetry for the top level's admission condition.
    pub telemetry: FleetTelemetry,
}

/// Runs the sweep.
pub fn run(config: &FleetConfig) -> FleetReport {
    let _p = ids_obs::phase("fleet.sweep");
    let params = ServeParams {
        workers: config.workers,
        latency_budget: config.latency_budget,
        deadline: false,
        shards: 1,
    };
    let admission_policy = AdmissionPolicy {
        tenant_rate: config.tenant_rate,
        tenant_burst: config.tenant_burst,
        queue_limit: config.queue_limit,
        prefetch_queue_limit: 0,
    };
    let mut points = Vec::new();
    let mut telemetry = FleetTelemetry::default();
    let top_level = config.session_counts.len().saturating_sub(1);
    for (level, &sessions) in config.session_counts.iter().enumerate() {
        let spec = FleetSpec {
            seed: config.seed,
            sessions,
            tenants: config.tenants,
            arrival: ArrivalProcess::Poisson {
                mean_gap: config.arrival_gap,
            },
            max_groups: config.max_groups,
            prefetch_rate: config.prefetch_rate,
        };
        let offered = synthesize_fleet(&spec, config.threads);

        // One shared engine per level: every tenant's table goes through
        // the same buffer pool, so concurrency genuinely widens the
        // working set.
        let disk = DiskBackend::with_config(
            CostParams::disk_default().scaled(config.cost_scale()),
            config.pool_pages,
            EvictionPolicy::Lru,
        );
        let db = disk.database();
        for tenant in 0..config.tenants {
            db.register(datasets::road_network_named(
                &FleetSpec::tenant_table(tenant),
                config.seed,
                config.rows,
            ));
        }

        let horizon = offered
            .last()
            .map(|q| q.at.saturating_since(SimTime::ZERO))
            .unwrap_or(SimDuration::ZERO);
        let plan = if config.chaos_intensity > 0.0 {
            FaultPlan::storm_with_node_loss(
                config.seed,
                config.chaos_intensity,
                horizon,
                config.workers,
            )
        } else {
            FaultPlan::calm(config.seed)
        };

        let costs = measure_costs(&disk, Some(&disk), &offered, &plan, config.latency_budget);
        // Delta-capture the admission condition's serve spans at the top
        // concurrency level: everything the recorder picks up between
        // these two marks is this `simulate_service` call (plus any
        // non-serve noise, filtered out during ingestion).
        let mark = ids_obs::recorder().event_count();
        let admission = simulate_service(&offered, &costs, &admission_policy, &plan, &params);
        if level == top_level {
            let events = ids_obs::recorder().events_since(mark);
            let tracks = ids_obs::recorder().tracks();
            // LCV trajectory bucket: four budgets wide, so a bucket is
            // coarse enough to hold several spans but fine enough to
            // show the overload ramp.
            let lcv_window =
                SimDuration::from_micros(config.latency_budget.as_micros().saturating_mul(4));
            telemetry = FleetTelemetry::from_events(&events, &tracks, sessions, lcv_window);
        }
        let baseline = simulate_service(
            &offered,
            &costs,
            &AdmissionPolicy::unlimited(),
            &plan,
            &params,
        );
        points.push(FleetPoint {
            sessions,
            offered: offered.len(),
            admission,
            baseline,
        });
    }
    FleetReport {
        config: config.clone(),
        points,
        telemetry,
    }
}

impl FleetReport {
    /// Renders the concurrency-scaling table.
    pub fn render(&self) -> String {
        let mut t = Table::new([
            "sessions", "offered", "adm q/s", "shed", "LCV adm", "LCV base", "p99 adm", "p99 base",
        ]);
        for p in &self.points {
            t.row([
                p.sessions.to_string(),
                p.offered.to_string(),
                format!("{:.1}", p.admission.admitted_qps),
                pct(p.admission.shed_fraction()),
                pct(p.admission.lcv.fraction()),
                pct(p.baseline.lcv.fraction()),
                format!("{}ms", p.admission.p99.as_millis()),
                format!("{}ms", p.baseline.p99.as_millis()),
            ]);
        }
        format!(
            "Fleet serving: admission control vs open queueing \
             ({} tenants, {} workers, budget {} ms, chaos {:.2}):\n{}",
            self.config.tenants,
            self.config.workers,
            self.config.latency_budget.as_millis(),
            self.config.chaos_intensity,
            t.section("fleet: concurrency scaling")
        )
    }

    /// Renders the lakehouse telemetry for the top level's admission
    /// condition: the three canned queries, executed over the spans
    /// table with the engine's vectorized kernels. Separate from
    /// [`render`](FleetReport::render) so the concurrency-scaling table
    /// stays byte-stable whether or not the recorder was on.
    pub fn render_telemetry(&self) -> String {
        let tel = &self.telemetry;
        if tel.span_rows == 0 {
            return "Fleet telemetry: no serve spans captured \
                    (obs recorder disabled during the run).\n"
                .to_string();
        }
        let mut p99 = Table::new(["tenant", "spans", "violated", "p99"]);
        for t in &tel.p99 {
            p99.row([
                t.tenant.clone(),
                t.spans.to_string(),
                t.violated.to_string(),
                format!("{}ms", t.p99_us / 1_000),
            ]);
        }
        let mut lcv = Table::new(["t", "total", "violations", "LCV"]);
        for p in &tel.lcv {
            lcv.row([
                format!("{}s", p.t_us / 1_000_000),
                p.total.to_string(),
                p.violations.to_string(),
                pct(p.lcv()),
            ]);
        }
        let mut slow = Table::new(["span", "tenant", "start", "dur"]);
        for s in &tel.slowest {
            slow.row([
                s.name.clone(),
                s.tenant.clone(),
                format!("{}ms", s.start_us / 1_000),
                format!("{}ms", s.dur_us / 1_000),
            ]);
        }
        format!(
            "Fleet telemetry via lakehouse ({} sessions, {} spans, \
             blocks scanned {} / pruned {}):\n{}{}{}",
            tel.sessions,
            tel.span_rows,
            tel.blocks_scanned,
            tel.blocks_pruned,
            p99.section("fleet telemetry: p99 by tenant (lakehouse query)"),
            lcv.section("fleet telemetry: LCV over time (fused filter+bin)"),
            slow.section("fleet telemetry: slowest spans"),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report() -> &'static FleetReport {
        use std::sync::OnceLock;
        static REPORT: OnceLock<FleetReport> = OnceLock::new();
        REPORT.get_or_init(|| run(&FleetConfig::smoke_test()))
    }

    #[test]
    fn offered_load_grows_with_concurrency() {
        let offered: Vec<usize> = report().points.iter().map(|p| p.offered).collect();
        assert!(offered.windows(2).all(|w| w[1] > w[0]), "{offered:?}");
    }

    #[test]
    fn conservation_holds_at_every_level() {
        for p in &report().points {
            assert_eq!(
                p.admission.admitted + p.admission.shed.total(),
                p.offered,
                "at {} sessions",
                p.sessions
            );
            assert_eq!(p.baseline.admitted, p.offered);
            assert_eq!(p.baseline.shed.total(), 0);
        }
    }

    #[test]
    fn admission_flattens_tail_at_high_concurrency() {
        let top = report().points.last().unwrap();
        assert!(
            top.admission.p99 < top.baseline.p99,
            "admission p99 {:?} must beat baseline {:?}",
            top.admission.p99,
            top.baseline.p99
        );
        assert!(
            top.admission.lcv.fraction() < top.baseline.lcv.fraction(),
            "admission LCV {} must beat baseline {}",
            top.admission.lcv.fraction(),
            top.baseline.lcv.fraction()
        );
        assert!(top.admission.shed.total() > 0, "overload must shed");
    }

    #[test]
    fn render_is_a_full_table() {
        let text = report().render();
        assert!(text.contains("fleet: concurrency scaling"));
        assert!(text.contains("LCV adm"));
        for p in &report().points {
            assert!(text.contains(&p.sessions.to_string()));
        }
    }

    #[test]
    fn telemetry_is_empty_and_says_so_when_recorder_is_dark() {
        // A test thread starts with the recorder off.
        let mut config = FleetConfig::smoke_test();
        config.session_counts = vec![4];
        config.max_groups = 4;
        let report = run(&config);
        assert_eq!(report.telemetry.span_rows, 0);
        assert!(report
            .render_telemetry()
            .contains("no serve spans captured"));
    }
}
