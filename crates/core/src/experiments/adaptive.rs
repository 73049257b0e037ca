//! Open-loop vs closed-loop workloads under service policies.
//!
//! The paper replays *recorded* interaction traces: whatever the system
//! does, the user model issues the same actions at the same instants.
//! Purich-style closed-loop evaluation replaces the recording with a
//! behavior model that reacts to each answer — zooming into dense bins,
//! drilling on outliers, backtracking out of empty regions, and
//! abandoning the session when answers stay slow. This experiment runs
//! both workload families through the same serving stack under four
//! service policies and contrasts LCV, QIF, and tail latency:
//!
//! - **open-door** — everything admitted, exact answers (the baseline);
//! - **throttled** — a tight per-tenant token bucket sheds queries, and
//!   the shed feeds back into the closed-loop model as failed answers;
//! - **deadline** — a degrade-after budget truncates slow queries into
//!   `Partial` answers, which the closed-loop model then reacts to;
//! - **congested** — injected transport latency above the abandon
//!   threshold, which only a closed-loop user can walk away from.
//!
//! The contrast the table makes precise: the open-loop action stream is
//! *identical* in all four rows (a recording cannot react), while the
//! closed-loop stream sheds, degrades, and abandons differently under
//! each policy — the measurement error incurred by evaluating an
//! interactive system against a recording.

use ids_devices::DeviceKind;
use ids_engine::scheduler::ResiliencePolicy;
use ids_engine::{Database, MemBackend};
use ids_metrics::lcv::{budget_violations, LcvReport, QuerySpan};
use ids_metrics::qif::QifReport;
use ids_serve::{drive_session, AdmissionPolicy, ClosedLoopOutcome, ClosedLoopParams};
use ids_simclock::SimDuration;
use ids_workload::adaptive::{BehaviorConfig, BehaviorPolicy};
use ids_workload::crossfilter::CrossfilterUi;
use ids_workload::datasets;

use crate::report::{pct, Table};

/// Experiment parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdaptiveConfig {
    /// RNG seed (drives both workload families).
    pub seed: u64,
    /// Road-network cardinality.
    pub rows: usize,
    /// Closed-loop session length, in actions.
    pub max_actions: usize,
    /// Latency above which the closed-loop user loses patience.
    pub abandon_after: SimDuration,
    /// Per-query latency budget for LCV and the deadline policy.
    pub latency_budget: SimDuration,
    /// Scheduler worker slots.
    pub workers: usize,
}

impl AdaptiveConfig {
    /// Full-scale sweep.
    pub fn paper() -> AdaptiveConfig {
        AdaptiveConfig {
            seed: 83,
            rows: datasets::road_domain::ROWS,
            max_actions: 24,
            abandon_after: SimDuration::from_millis(400),
            latency_budget: SimDuration::from_millis(15),
            workers: 2,
        }
    }

    /// Reduced scale for tests.
    pub fn smoke_test() -> AdaptiveConfig {
        AdaptiveConfig {
            seed: 83,
            rows: 4_000,
            max_actions: 16,
            abandon_after: SimDuration::from_millis(400),
            latency_budget: SimDuration::from_millis(15),
            workers: 2,
        }
    }

    /// Per-tuple cost multiplier keeping the latency regime
    /// scale-invariant (same trick as case study 2).
    fn cost_scale(&self) -> f64 {
        datasets::road_domain::ROWS as f64 / self.rows.max(1) as f64
    }
}

/// The four service policies, in table order.
fn policies(config: &AdaptiveConfig) -> Vec<(&'static str, ClosedLoopParams)> {
    let base = ClosedLoopParams {
        workers: config.workers.max(1),
        ..ClosedLoopParams::default()
    };
    let throttled = ClosedLoopParams {
        admission: AdmissionPolicy {
            tenant_rate: 1.0,
            tenant_burst: 2.0,
            queue_limit: 2,
            prefetch_queue_limit: 0,
        },
        ..base.clone()
    };
    let deadline = ClosedLoopParams {
        resilience: ResiliencePolicy::DegradeAfter(config.latency_budget),
        ..base.clone()
    };
    let congested = ClosedLoopParams {
        extra_latency: config.abandon_after + config.abandon_after.mul_f64(0.5),
        ..base.clone()
    };
    vec![
        ("open-door", base),
        ("throttled", throttled),
        ("deadline", deadline),
        ("congested", congested),
    ]
}

/// One `(family, policy)` cell's measurements.
#[derive(Debug, Clone)]
pub struct AdaptiveCell {
    /// `"open-loop"` or `"closed-loop"`.
    pub family: &'static str,
    /// Service-policy name.
    pub policy: &'static str,
    /// Actions the session emitted.
    pub actions: usize,
    /// Queries actually admitted and executed.
    pub queries: usize,
    /// Queries shed by admission.
    pub shed: usize,
    /// Degraded (`Partial` or `Failed`) answers.
    pub degraded: usize,
    /// Whether the session abandoned before its action budget.
    pub abandoned: bool,
    /// Latency-constraint violations at the configured budget.
    pub lcv: LcvReport,
    /// 99th-percentile query latency.
    pub p99: SimDuration,
    /// Admitted query issuing frequency, queries/s.
    pub qps: f64,
    /// Canonical digest of the session (action stream + results).
    pub digest: String,
}

/// The open-loop vs closed-loop comparison report.
#[derive(Debug, Clone)]
pub struct AdaptiveReport {
    /// Configuration used.
    pub config: AdaptiveConfig,
    /// One cell per `(family, policy)`, families outermost.
    pub cells: Vec<AdaptiveCell>,
}

/// `p`-th percentile of a latency set (nearest-rank).
fn percentile(latencies: &mut [SimDuration], p: f64) -> SimDuration {
    if latencies.is_empty() {
        return SimDuration::ZERO;
    }
    latencies.sort();
    let rank = ((latencies.len() as f64 * p).ceil() as usize).clamp(1, latencies.len());
    latencies[rank - 1]
}

fn measure(
    family: &'static str,
    policy: &'static str,
    config: &AdaptiveConfig,
    outcome: &ClosedLoopOutcome,
) -> AdaptiveCell {
    let spans: Vec<QuerySpan> = outcome
        .queries
        .iter()
        .map(|q| QuerySpan {
            issued_at: q.timing.issued_at,
            finished_at: q.timing.finished_at,
        })
        .collect();
    let stamps: Vec<_> = outcome.queries.iter().map(|q| q.timing.issued_at).collect();
    let mut latencies = outcome.latencies();
    AdaptiveCell {
        family,
        policy,
        actions: outcome.actions.len(),
        queries: outcome.queries.len(),
        shed: outcome.shed.total(),
        degraded: outcome.degraded(),
        abandoned: outcome.abandoned,
        lcv: budget_violations(&spans, config.latency_budget),
        p99: percentile(&mut latencies, 0.99),
        qps: QifReport::from_timestamps(&stamps).queries_per_second(),
        digest: outcome.digest(),
    }
}

/// Runs both families under every policy.
pub fn run(config: &AdaptiveConfig) -> AdaptiveReport {
    let _p = ids_obs::phase("adaptive.sweep");
    let db = Database::new();
    db.register(datasets::road_network_sized(config.seed, config.rows));
    let mem = MemBackend::over_with(
        db,
        ids_engine::CostParams::mem_default().scaled(config.cost_scale()),
    );
    let ui = CrossfilterUi::for_road();
    let behavior = BehaviorConfig {
        max_actions: config.max_actions,
        abandon_after: config.abandon_after,
    };
    let families: [(&'static str, BehaviorPolicy); 2] = [
        (
            "open-loop",
            BehaviorPolicy::static_replay(DeviceKind::Mouse, 0, config.seed, ui.clone()),
        ),
        (
            "closed-loop",
            BehaviorPolicy::adaptive(config.seed, ui.clone()).with_config(behavior),
        ),
    ];

    let mut cells = Vec::new();
    for (family, policy) in &families {
        for (name, params) in policies(config) {
            let outcome = drive_session(&mem, policy, &params);
            cells.push(measure(family, name, config, &outcome));
        }
    }
    AdaptiveReport {
        config: *config,
        cells,
    }
}

impl AdaptiveReport {
    /// The cells of one family, in policy order.
    pub fn family(&self, name: &str) -> Vec<&AdaptiveCell> {
        self.cells.iter().filter(|c| c.family == name).collect()
    }

    /// Renders the comparison table.
    pub fn render(&self) -> String {
        let mut t = Table::new([
            "family",
            "policy",
            "actions",
            "queries",
            "shed",
            "degraded",
            "abandoned",
            "LCV",
            "p99 ms",
            "q/s",
        ]);
        for c in &self.cells {
            t.row([
                c.family.to_string(),
                c.policy.to_string(),
                c.actions.to_string(),
                c.queries.to_string(),
                c.shed.to_string(),
                c.degraded.to_string(),
                if c.abandoned { "yes" } else { "no" }.to_string(),
                pct(c.lcv.fraction()),
                format!("{:.1}", c.p99.as_micros() as f64 / 1_000.0),
                format!("{:.2}", c.qps),
            ]);
        }
        format!(
            "Open-loop vs closed-loop workloads under service policies \
             (budget {} ms, abandon after {} ms):\n{}",
            self.config.latency_budget.as_millis(),
            self.config.abandon_after.as_millis(),
            t.render()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report() -> &'static AdaptiveReport {
        use std::sync::OnceLock;
        static REPORT: OnceLock<AdaptiveReport> = OnceLock::new();
        REPORT.get_or_init(|| run(&AdaptiveConfig::smoke_test()))
    }

    /// The first digest line block covering only the action stream.
    fn action_lines(cell: &AdaptiveCell) -> Vec<&str> {
        cell.digest
            .lines()
            .filter(|l| l.starts_with("action\t"))
            .collect()
    }

    #[test]
    fn open_loop_actions_are_policy_invariant() {
        let open = report().family("open-loop");
        assert_eq!(open.len(), 4);
        let base = action_lines(open[0]);
        assert!(!base.is_empty());
        for cell in &open[1..] {
            assert_eq!(
                action_lines(cell),
                base,
                "a recording cannot react to policy {}",
                cell.policy
            );
            assert!(!cell.abandoned, "open-loop replay never abandons");
        }
    }

    #[test]
    fn closed_loop_responds_to_every_policy() {
        let closed = report().family("closed-loop");
        assert_eq!(closed.len(), 4);
        let base = action_lines(closed[0]);
        for cell in &closed[1..] {
            assert_ne!(
                action_lines(cell),
                base,
                "closed loop must react to policy {}",
                cell.policy
            );
        }
    }

    #[test]
    fn throttling_sheds_and_deadline_degrades() {
        let closed = report().family("closed-loop");
        let throttled = closed.iter().find(|c| c.policy == "throttled").unwrap();
        assert!(throttled.shed > 0, "tight admission must shed");
        let deadline = closed.iter().find(|c| c.policy == "deadline").unwrap();
        assert!(deadline.degraded > 0, "deadline policy must degrade");
        assert!(
            deadline.lcv.violations <= closed[0].lcv.violations,
            "degradation cannot raise LCV: {} vs {}",
            deadline.lcv.violations,
            closed[0].lcv.violations
        );
    }

    #[test]
    fn only_the_closed_loop_user_abandons_congestion() {
        let closed = report().family("closed-loop");
        let congested = closed.iter().find(|c| c.policy == "congested").unwrap();
        assert!(
            congested.abandoned,
            "sustained slowness must drive them off"
        );
        assert!(
            congested.actions < closed[0].actions,
            "abandoning must cut the session short: {} vs {}",
            congested.actions,
            closed[0].actions
        );
        let open = report().family("open-loop");
        let open_congested = open.iter().find(|c| c.policy == "congested").unwrap();
        assert_eq!(open_congested.actions, open[0].actions);
    }

    #[test]
    fn render_is_a_full_table() {
        let text = report().render();
        assert!(text.contains("Open-loop vs closed-loop"));
        for name in ["open-door", "throttled", "deadline", "congested"] {
            assert!(text.contains(name), "missing policy {name}");
        }
        assert!(text.contains("open-loop") && text.contains("closed-loop"));
    }
}
