//! Robustness under injected faults: LCV and QIF as a function of fault
//! intensity.
//!
//! The paper evaluates interactive systems under *nominal* conditions;
//! this experiment asks how its two novel metrics — latency constraint
//! violations and query issuing frequency — shift when the backend
//! misbehaves. A seeded [`ids_chaos::FaultPlan`] storm injects latency
//! spikes, stalls, and transient failures into a crossfilter replay at
//! increasing intensities, and three mitigation layers are measured:
//!
//! - **retries** ([`ids_engine::RetryingBackend`]) absorb transient
//!   failures before the scheduler sees them;
//! - **graceful degradation**
//!   ([`ids_engine::scheduler::replay_resilient`])
//!   truncates over-budget queries into partial estimates instead of
//!   letting the Fig 2 latency cascade run unbounded;
//! - **adaptive throttling** ([`ids_opt::throttle::AdaptiveThrottle`]
//!   with stall reaction, over [`ids_opt::replay()`]) sheds issue
//!   pressure while the backend is wedged, shifting the admitted QIF
//!   down.
//!
//! The storm generator derives window *positions* from the seed alone
//! and scales only widths, factors, and failure rates with intensity, so
//! a harsher storm strictly dominates a milder one and the rigid LCV
//! count is monotone in intensity — the experiment's sanity anchor.

use ids_chaos::{ChaosBackend, FaultPlan};
use ids_devices::DeviceKind;
use ids_engine::scheduler::{replay_resilient, IssuedQuery, QueryTiming, ResiliencePolicy};
use ids_engine::{Backend, Database, MemBackend, QueryOutcome, ResultQuality, RetryingBackend};
use ids_metrics::lcv::{budget_violations, LcvReport, QuerySpan};
use ids_metrics::qif::QifReport;
use ids_opt::throttle::AdaptiveThrottle;
use ids_opt::{replay, Policy};
use ids_simclock::{SimDuration, SimTime};
use ids_workload::crossfilter::{leading_groups, CrossfilterUi, QueryGroup};
use ids_workload::datasets;

use crate::report::{pct, Table};

/// Experiment parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RobustnessConfig {
    /// RNG seed (drives the workload *and* the fault plans).
    pub seed: u64,
    /// Road-network cardinality.
    pub rows: usize,
    /// Cap on query groups replayed (keeps smoke tests fast).
    pub max_groups: usize,
    /// Fault intensities swept, ascending; `0.0` is the calm baseline.
    pub intensities: [f64; 4],
    /// Per-query latency budget for LCV and for the degraded condition.
    pub latency_budget: SimDuration,
    /// Scheduler worker slots.
    pub workers: usize,
}

impl RobustnessConfig {
    /// Full-scale sweep.
    pub fn paper() -> RobustnessConfig {
        RobustnessConfig {
            seed: 83,
            rows: datasets::road_domain::ROWS,
            max_groups: usize::MAX,
            intensities: [0.0, 0.33, 0.67, 1.0],
            latency_budget: SimDuration::from_millis(100),
            workers: 2,
        }
    }

    /// Reduced scale for tests.
    pub fn smoke_test() -> RobustnessConfig {
        RobustnessConfig {
            seed: 83,
            rows: 4_000,
            max_groups: 200,
            intensities: [0.0, 0.33, 0.67, 1.0],
            latency_budget: SimDuration::from_millis(100),
            workers: 2,
        }
    }

    /// Per-tuple cost multiplier keeping the latency regime
    /// scale-invariant (same trick as case study 2): a scaled-down table
    /// gets proportionally more expensive tuples.
    fn cost_scale(&self) -> f64 {
        datasets::road_domain::ROWS as f64 / self.rows.max(1) as f64
    }
}

/// One intensity's measurements.
#[derive(Debug, Clone)]
pub struct RobustnessPoint {
    /// Storm intensity in `[0, 1]`.
    pub intensity: f64,
    /// Fault windows the storm put on the clock.
    pub fault_windows: usize,
    /// LCV without any degradation (full answers, latency cascades).
    pub rigid_lcv: LcvReport,
    /// LCV with graceful degradation under the same storm.
    pub degraded_lcv: LcvReport,
    /// Partial (truncated-and-extrapolated) answers in the degraded run.
    pub partial: usize,
    /// Terminally failed queries (placeholder answers) in the degraded run.
    pub failed: usize,
    /// Issued QIF of the raw stream, queries/s (intensity-invariant).
    pub issued_qps: f64,
    /// QIF actually admitted by the stall-reacting adaptive throttle.
    pub admitted_qps: f64,
    /// Stall reactions the throttle triggered.
    pub stall_reactions: usize,
}

/// The full robustness report.
#[derive(Debug, Clone)]
pub struct RobustnessReport {
    /// Configuration used.
    pub config: RobustnessConfig,
    /// Query groups replayed per intensity.
    pub groups: usize,
    /// Individual queries per replay.
    pub queries: usize,
    /// One point per configured intensity, ascending.
    pub points: Vec<RobustnessPoint>,
}

/// Flattens query groups into the scheduler's issued stream.
fn issue_stream(groups: &[QueryGroup]) -> Vec<IssuedQuery> {
    let mut out = Vec::new();
    for g in groups {
        for q in &g.queries {
            let tag = out.len() as u64;
            out.push(IssuedQuery::new(g.at, q.clone(), tag));
        }
    }
    out
}

/// Measured spans for LCV.
fn spans(timings: &[(QueryTiming, QueryOutcome)]) -> Vec<QuerySpan> {
    timings
        .iter()
        .map(|(t, _)| QuerySpan {
            issued_at: t.issued_at,
            finished_at: t.finished_at,
        })
        .collect()
}

/// Runs the sweep.
pub fn run(config: &RobustnessConfig) -> RobustnessReport {
    let setup = ids_obs::phase("robustness.setup");
    let ui = CrossfilterUi::for_road();
    let groups = leading_groups(&ui, DeviceKind::Mouse, 0, config.seed, config.max_groups);
    let stream = issue_stream(&groups);
    let horizon = groups
        .last()
        .map(|g| g.at.saturating_since(SimTime::ZERO))
        .unwrap_or(SimDuration::ZERO);
    let issued_qps =
        QifReport::from_timestamps(&stream.iter().map(|iq| iq.issued_at).collect::<Vec<_>>())
            .queries_per_second();

    let db = Database::new();
    db.register(datasets::road_network_sized(config.seed, config.rows));
    let mem = MemBackend::over_with(
        db,
        ids_engine::CostParams::mem_default().scaled(config.cost_scale()),
    );
    // Calm-probe the first group so the throttle's initial estimate is
    // honest: a cold-start underestimate would read the very first real
    // observation as a stall.
    let baseline_estimate = groups
        .first()
        .map(|g| {
            g.queries
                .iter()
                .map(|q| mem.execute(q).expect("registered table").cost)
                .fold(SimDuration::ZERO, |acc, c| acc + c)
        })
        .unwrap_or(SimDuration::from_millis(5));
    drop(setup);

    let _p = ids_obs::phase("robustness.sweep");
    let mut points = Vec::new();
    for &intensity in &config.intensities {
        let plan = FaultPlan::storm(config.seed, intensity, horizon);
        let fault_windows = plan.windows().len();

        // A fresh injector per condition, so attempt counters — and
        // therefore injection decisions — are identical across
        // conditions.
        let resilient = |policy: ResiliencePolicy| {
            let chaos = ChaosBackend::new(&mem, plan.clone());
            let retrying = RetryingBackend::new(&chaos);
            replay_resilient(&retrying, &stream, config.workers, &policy)
                .expect("replay over registered tables cannot fail")
        };
        // Rigid: full answers, latency cascades, failures become
        // placeholders after retries.
        let rigid = resilient(ResiliencePolicy::Rigid);
        let rigid_lcv = budget_violations(&spans(&rigid), config.latency_budget);

        // Degraded: same storm, but over-budget queries truncate to
        // partial estimates.
        let degraded = resilient(ResiliencePolicy::DegradeAfter(config.latency_budget));
        let degraded_lcv = budget_violations(&spans(&degraded), config.latency_budget);
        let partial = degraded
            .iter()
            .filter(|(_, o)| matches!(o.quality, ResultQuality::Partial { .. }))
            .count();
        let failed = degraded
            .iter()
            .filter(|(_, o)| o.quality == ResultQuality::Failed)
            .count();

        // Throttled admission: the closed-loop throttle probes the
        // chaotic backend and backs off through stall windows, shifting
        // the admitted QIF down as intensity grows.
        let (admitted_qps, stall_reactions) = {
            let chaos = ChaosBackend::new(&mem, plan.clone());
            let retrying = RetryingBackend::new(&chaos);
            let mut throttle = AdaptiveThrottle::new(baseline_estimate).with_stall_reaction();
            // A probe costs its members' sum; a retry-exhausted member
            // charges the budget the frontend waits out before giving up.
            let probe = |g: &QueryGroup| {
                let cost = |q| {
                    retrying
                        .execute(q)
                        .map_or(config.latency_budget, |o| o.cost)
                };
                Ok(g.queries.iter().map(cost).sum())
            };
            let admitted = replay(
                retrying.name(),
                &groups,
                Policy::Throttle(&mut throttle),
                probe,
            )
            .expect("a probe cannot fail");
            let stamps: Vec<SimTime> = admitted.executed.iter().map(|t| t.issued_at).collect();
            (
                QifReport::from_timestamps(&stamps).queries_per_second(),
                throttle.stall_reactions(),
            )
        };

        points.push(RobustnessPoint {
            intensity,
            fault_windows,
            rigid_lcv,
            degraded_lcv,
            partial,
            failed,
            issued_qps,
            admitted_qps,
            stall_reactions,
        });
    }

    RobustnessReport {
        config: *config,
        groups: groups.len(),
        queries: stream.len(),
        points,
    }
}

impl RobustnessReport {
    /// Rigid-condition LCV fractions, ascending intensity.
    pub fn rigid_lcv_fractions(&self) -> Vec<f64> {
        self.points.iter().map(|p| p.rigid_lcv.fraction()).collect()
    }

    /// Renders the robustness table.
    pub fn render(&self) -> String {
        let mut t = Table::new([
            "intensity",
            "fault windows",
            "LCV rigid",
            "LCV degraded",
            "partial",
            "failed",
            "admitted q/s",
            "stall reactions",
        ]);
        for p in &self.points {
            t.row([
                format!("{:.2}", p.intensity),
                p.fault_windows.to_string(),
                pct(p.rigid_lcv.fraction()),
                pct(p.degraded_lcv.fraction()),
                p.partial.to_string(),
                p.failed.to_string(),
                format!("{:.1}", p.admitted_qps),
                p.stall_reactions.to_string(),
            ]);
        }
        format!(
            "Robustness under injected faults ({} queries in {} groups, budget {} ms, \
             issued {:.1} q/s):\n{}",
            self.queries,
            self.groups,
            self.config.latency_budget.as_millis(),
            self.points.first().map(|p| p.issued_qps).unwrap_or(0.0),
            t.render()
        )
    }
}

/// Parameters for the progressive-deadline tradeoff sweep.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProgressiveConfig {
    /// RNG seed (drives the workload).
    pub seed: u64,
    /// Road-network cardinality.
    pub rows: usize,
    /// Cap on query groups replayed.
    pub max_groups: usize,
    /// Scheduler worker slots.
    pub workers: usize,
    /// Latency budgets swept, ascending, in milliseconds.
    pub budgets_ms: [u64; 5],
}

impl ProgressiveConfig {
    /// Full-scale sweep.
    pub fn paper() -> ProgressiveConfig {
        ProgressiveConfig {
            seed: 83,
            rows: datasets::road_domain::ROWS,
            max_groups: usize::MAX,
            workers: 2,
            budgets_ms: [1, 3, 10, 30, 100],
        }
    }

    /// Reduced scale for tests. Rows stay above 10×1024 so one block —
    /// deadline mode's minimum read — is finer than the degrade policy's
    /// 10% floor, keeping the two conditions comparable.
    pub fn smoke_test() -> ProgressiveConfig {
        ProgressiveConfig {
            seed: 83,
            rows: 16_384,
            max_groups: 200,
            workers: 2,
            budgets_ms: [1, 3, 10, 30, 100],
        }
    }

    fn cost_scale(&self) -> f64 {
        datasets::road_domain::ROWS as f64 / self.rows.max(1) as f64
    }
}

/// One latency budget's measurements in the tradeoff sweep.
#[derive(Debug, Clone)]
pub struct ProgressivePoint {
    /// Per-query latency budget, ms.
    pub budget_ms: u64,
    /// LCV when over-budget queries simulate a truncated scan
    /// ([`ResiliencePolicy::DegradeAfter`]).
    pub degrade_lcv: LcvReport,
    /// LCV when over-budget queries spend the remaining budget on real
    /// block-sampled refinement ([`ResiliencePolicy::Deadline`]).
    pub deadline_lcv: LcvReport,
    /// Partial answers in the degrade run.
    pub degrade_partial: usize,
    /// Partial answers in the deadline run.
    pub deadline_partial: usize,
    /// Mean covered fraction over the deadline run's partial answers
    /// (1.0 when nothing was cut short).
    pub mean_fraction: f64,
    /// Mean measured relative error of deadline answers against the
    /// exact replay (per-value worst case, relative to the exact
    /// answer's largest value).
    pub mean_rel_error: f64,
    /// Worst measured relative error in the deadline run.
    pub max_rel_error: f64,
    /// Mean *reported* absolute error bound over the deadline run's
    /// partial answers, as a fraction of the table's rows — what the
    /// frontend could display. (The deterministic bound is denominated
    /// in rows; relative to a highly selective answer it would look
    /// absurdly conservative.)
    pub mean_bound_frac: f64,
    /// Deadline partials whose measured error exceeded the reported
    /// bound. The bound is sound, so this must be 0.
    pub bound_violations: usize,
}

/// The LCV-vs-relative-error tradeoff report.
#[derive(Debug, Clone)]
pub struct ProgressiveReport {
    /// Configuration used.
    pub config: ProgressiveConfig,
    /// Query groups replayed per budget.
    pub groups: usize,
    /// Individual queries per replay.
    pub queries: usize,
    /// One point per configured budget, ascending.
    pub points: Vec<ProgressivePoint>,
}

/// Per-value worst-case absolute difference between two result sets of
/// the same shape (the units [`ResultQuality::Partial`] bounds promise).
fn max_abs_error(estimate: &ids_engine::ResultSet, exact: &ids_engine::ResultSet) -> f64 {
    use ids_engine::ResultSet;
    match (estimate, exact) {
        (ResultSet::Count(a), ResultSet::Count(b)) => (*a as f64 - *b as f64).abs(),
        (ResultSet::Histogram(a), ResultSet::Histogram(b)) if a.bins() == b.bins() => a
            .counts()
            .iter()
            .zip(b.counts())
            .map(|(&x, &y)| (x as f64 - y as f64).abs())
            .fold(0.0, f64::max),
        (ResultSet::Rows(a), ResultSet::Rows(b)) => (a.len() as f64 - b.len() as f64).abs(),
        _ => f64::INFINITY,
    }
}

/// Largest value in a result set, ≥ 1 — the denominator that turns
/// absolute row-count errors into relative ones.
fn result_magnitude(r: &ids_engine::ResultSet) -> f64 {
    use ids_engine::ResultSet;
    let m = match r {
        ResultSet::Count(c) => *c as f64,
        ResultSet::Histogram(h) => h.counts().iter().copied().max().unwrap_or(0) as f64,
        ResultSet::Rows(rows) => rows.len() as f64,
    };
    m.max(1.0)
}

/// Runs the LCV-vs-relative-error tradeoff sweep.
///
/// The same calm (fault-free) crossfilter replay is driven at a range of
/// latency budgets under two policies: *degrade* simulates truncating an
/// over-budget scan, *deadline* spends the remaining budget on real
/// block-sampled progressive refinement and reports a sound error bound
/// alongside the estimate. Each point records both LCVs and the measured
/// vs. reported error of the deadline answers against the exact replay —
/// the interactivity/accuracy tradeoff the paper's latency guideline
/// leaves implicit.
pub fn run_progressive(config: &ProgressiveConfig) -> ProgressiveReport {
    let setup = ids_obs::phase("progressive.setup");
    let ui = CrossfilterUi::for_road();
    let groups = leading_groups(&ui, DeviceKind::Mouse, 0, config.seed, config.max_groups);
    let stream = issue_stream(&groups);

    let db = Database::new();
    db.register(datasets::road_network_sized(config.seed, config.rows));
    let mem = MemBackend::over_with(
        db,
        ids_engine::CostParams::mem_default().scaled(config.cost_scale()),
    );
    let resilient = |policy: ResiliencePolicy| {
        replay_resilient(&mem, &stream, config.workers, &policy)
            .expect("replay over registered tables cannot fail")
    };
    // The untruncated replay: exact answers every deadline estimate is
    // measured against.
    let exact = resilient(ResiliencePolicy::Rigid);
    drop(setup);

    let _p = ids_obs::phase("progressive.sweep");
    let mut points = Vec::new();
    for &budget_ms in &config.budgets_ms {
        let budget = SimDuration::from_millis(budget_ms);
        let degrade = resilient(ResiliencePolicy::DegradeAfter(budget));
        let deadline = resilient(ResiliencePolicy::Deadline(budget));

        let degrade_partial = degrade
            .iter()
            .filter(|(_, o)| matches!(o.quality, ResultQuality::Partial { .. }))
            .count();

        let mut deadline_partial = 0usize;
        let mut fraction_sum = 0.0;
        let mut bound_sum = 0.0;
        let mut err_sum = 0.0;
        let mut err_max = 0.0f64;
        let mut bound_violations = 0usize;
        for ((_, o), (_, e)) in deadline.iter().zip(&exact) {
            let denom = result_magnitude(&e.result);
            let err = max_abs_error(&o.result, &e.result);
            err_sum += err / denom;
            err_max = err_max.max(err / denom);
            if let ResultQuality::Partial {
                fraction,
                error_bound,
            } = o.quality
            {
                deadline_partial += 1;
                fraction_sum += fraction;
                bound_sum += error_bound / config.rows.max(1) as f64;
                if err > error_bound {
                    bound_violations += 1;
                }
            }
        }
        let n = deadline.len().max(1) as f64;
        points.push(ProgressivePoint {
            budget_ms,
            degrade_lcv: budget_violations(&spans(&degrade), budget),
            deadline_lcv: budget_violations(&spans(&deadline), budget),
            degrade_partial,
            deadline_partial,
            mean_fraction: if deadline_partial == 0 {
                1.0
            } else {
                fraction_sum / deadline_partial as f64
            },
            mean_rel_error: err_sum / n,
            max_rel_error: err_max,
            mean_bound_frac: if deadline_partial == 0 {
                0.0
            } else {
                bound_sum / deadline_partial as f64
            },
            bound_violations,
        });
    }

    ProgressiveReport {
        config: *config,
        groups: groups.len(),
        queries: stream.len(),
        points,
    }
}

impl ProgressiveReport {
    /// Deadline-condition LCV fractions, ascending budget.
    pub fn deadline_lcv_fractions(&self) -> Vec<f64> {
        self.points
            .iter()
            .map(|p| p.deadline_lcv.fraction())
            .collect()
    }

    /// Renders the tradeoff table.
    pub fn render(&self) -> String {
        let mut t = Table::new([
            "budget ms",
            "LCV degrade",
            "LCV deadline",
            "partial dg",
            "partial dl",
            "mean frac",
            "mean err",
            "max err",
            "bound/rows",
        ]);
        for p in &self.points {
            t.row([
                p.budget_ms.to_string(),
                pct(p.degrade_lcv.fraction()),
                pct(p.deadline_lcv.fraction()),
                p.degrade_partial.to_string(),
                p.deadline_partial.to_string(),
                format!("{:.3}", p.mean_fraction),
                pct(p.mean_rel_error),
                pct(p.max_rel_error),
                pct(p.mean_bound_frac),
            ]);
        }
        format!(
            "Progressive deadline tradeoff ({} queries in {} groups, calm backend):\n{}",
            self.queries,
            self.groups,
            t.render()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report() -> &'static RobustnessReport {
        use std::sync::OnceLock;
        static REPORT: OnceLock<RobustnessReport> = OnceLock::new();
        REPORT.get_or_init(|| run(&RobustnessConfig::smoke_test()))
    }

    #[test]
    fn calm_baseline_is_fault_free() {
        let p = &report().points[0];
        assert_eq!(p.intensity, 0.0);
        assert_eq!(p.fault_windows, 0);
        assert_eq!(p.partial + p.failed, 0, "no degradation without faults");
    }

    #[test]
    fn rigid_lcv_rate_is_monotone_in_intensity() {
        let fractions = report().rigid_lcv_fractions();
        assert!(
            fractions.windows(2).all(|w| w[1] >= w[0]),
            "harsher storms must violate at least as often: {fractions:?}"
        );
        assert!(
            fractions.last().unwrap() > fractions.first().unwrap(),
            "the sweep must actually produce violations: {fractions:?}"
        );
    }

    #[test]
    fn degradation_rescues_violations_under_storms() {
        for p in &report().points {
            if p.intensity == 0.0 {
                continue;
            }
            assert!(
                p.degraded_lcv.violations <= p.rigid_lcv.violations,
                "at intensity {}: degraded {} vs rigid {}",
                p.intensity,
                p.degraded_lcv.violations,
                p.rigid_lcv.violations
            );
        }
        let worst = report().points.last().unwrap();
        assert!(
            worst.degraded_lcv.violations < worst.rigid_lcv.violations,
            "at full intensity degradation must pay off: {} vs {}",
            worst.degraded_lcv.violations,
            worst.rigid_lcv.violations
        );
        assert!(worst.partial > 0, "full-intensity storm truncates queries");
    }

    #[test]
    fn throttle_sheds_load_as_storms_worsen() {
        let points = &report().points;
        let calm = &points[0];
        let worst = points.last().unwrap();
        assert_eq!(calm.stall_reactions, 0, "no stalls to react to when calm");
        assert!(worst.stall_reactions > 0, "storm stalls must be noticed");
        assert!(
            worst.admitted_qps <= calm.admitted_qps,
            "admitted QIF must not rise under faults: {:.1} vs {:.1}",
            worst.admitted_qps,
            calm.admitted_qps
        );
    }

    #[test]
    fn render_is_a_full_table() {
        let text = report().render();
        assert!(text.contains("Robustness under injected faults"));
        assert!(text.contains("LCV rigid"));
        for p in &report().points {
            assert!(text.contains(&format!("{:.2}", p.intensity)));
        }
    }

    fn progressive_report() -> &'static ProgressiveReport {
        use std::sync::OnceLock;
        static REPORT: OnceLock<ProgressiveReport> = OnceLock::new();
        REPORT.get_or_init(|| run_progressive(&ProgressiveConfig::smoke_test()))
    }

    #[test]
    fn deadline_mode_never_violates_more_than_degrade() {
        for p in &progressive_report().points {
            assert!(
                p.deadline_lcv.violations <= p.degrade_lcv.violations,
                "budget {} ms: deadline {} vs degrade {}",
                p.budget_ms,
                p.deadline_lcv.violations,
                p.degrade_lcv.violations
            );
        }
    }

    #[test]
    fn deadline_mode_drives_lcv_to_zero_with_bounded_error() {
        let r = progressive_report();
        let last = r.points.last().unwrap();
        assert_eq!(
            last.deadline_lcv.violations, 0,
            "the widest budget must be met"
        );
        let tight = &r.points[0];
        assert!(
            tight.deadline_partial > 0,
            "the tightest budget must cut queries short"
        );
        assert!(tight.mean_fraction < 1.0);
        assert!(tight.mean_bound_frac > 0.0 && tight.mean_bound_frac.is_finite());
        for p in &r.points {
            assert_eq!(
                p.bound_violations, 0,
                "budget {} ms: reported bounds must hold",
                p.budget_ms
            );
            assert!(p.max_rel_error.is_finite());
        }
    }

    #[test]
    fn reported_bound_shrinks_with_budget() {
        // Wider budgets cover more blocks, so the mean reported bound over
        // partials — and the measured error — must not grow.
        let r = progressive_report();
        let bounds: Vec<f64> = r.points.iter().map(|p| p.mean_bound_frac).collect();
        assert!(
            bounds.windows(2).all(|w| w[1] <= w[0] + 1e-12),
            "mean reported bound must be non-increasing in budget: {bounds:?}"
        );
        let errs: Vec<f64> = r.points.iter().map(|p| p.mean_rel_error).collect();
        assert!(
            errs.windows(2).all(|w| w[1] <= w[0] + 1e-12),
            "mean measured error must be non-increasing in budget: {errs:?}"
        );
    }

    #[test]
    fn progressive_render_is_a_full_table() {
        let text = progressive_report().render();
        assert!(text.contains("Progressive deadline tradeoff"));
        assert!(text.contains("LCV deadline"));
        assert!(text.contains("bound/rows"));
        for p in &progressive_report().points {
            assert!(text.contains(&p.budget_ms.to_string()));
        }
    }
}
