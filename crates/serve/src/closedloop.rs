//! Closed-loop serving: the behavior model in the driver's seat.
//!
//! The open-loop fleet path offers a pre-scripted query stream and
//! measures what the service does to it. This module closes the loop:
//! a [`BehaviorPolicy`] session acts, its query group passes through
//! **admission** (token buckets can shed it) and the **resilient
//! scheduler** (deadline policies can degrade it to `Partial`), and the
//! resulting latency / quality / histogram feed back into the model —
//! so shedding and deadline-bounded partials change what the user does
//! next, exactly the coupling the paper's guidelines say open-loop
//! traces cannot exhibit.
//!
//! A closed-loop session runs alone: it bills tenant 0, session 0, and
//! an action whose every query was shed reads as a failure charged at
//! the resilience policy's [`failure_charge`](ResiliencePolicy::failure_charge).
//!
//! Determinism: everything here is virtual-time arithmetic over a
//! deterministic backend, so a `(policy, backend, params)` triple fully
//! determines the action stream, the telemetry, and the trace bytes.

use ids_engine::scheduler::{replay_resilient, IssuedQuery, QueryTiming, ResiliencePolicy};
use ids_engine::{Backend, Histogram, QueryOutcome, ResultQuality};
use ids_simclock::SimDuration;
use ids_workload::adaptive::{AdaptiveAction, BehaviorPolicy, Feedback};
use ids_workload::trace::{RequestRecord, Trace};

use crate::admission::{AdmissionController, AdmissionPolicy, ShedCounts};
use crate::session::{Lane, OfferedQuery};

/// Knobs for one closed-loop session.
#[derive(Debug, Clone)]
pub struct ClosedLoopParams {
    /// Execution slots for each action's query group.
    pub workers: usize,
    /// Admission policy (token buckets feed shedding back to the user).
    pub admission: AdmissionPolicy,
    /// Degrade/deadline policy (feeds `Partial` answers back).
    pub resilience: ResiliencePolicy,
    /// Extra service delay injected into every group's observed
    /// latency — the experiment knob for abandon-rate monotonicity.
    pub extra_latency: SimDuration,
}

impl Default for ClosedLoopParams {
    fn default() -> ClosedLoopParams {
        ClosedLoopParams {
            workers: 2,
            admission: AdmissionPolicy::unlimited(),
            resilience: ResiliencePolicy::Rigid,
            extra_latency: SimDuration::ZERO,
        }
    }
}

/// One executed query inside a closed-loop session.
#[derive(Debug, Clone)]
pub struct ClosedLoopQuery {
    /// Action step the query belongs to.
    pub step: usize,
    /// Scheduler timing (issue → start → finish).
    pub timing: QueryTiming,
    /// The outcome, including degraded quality.
    pub outcome: QueryOutcome,
}

/// Everything one closed-loop session produced.
#[derive(Debug, Clone)]
pub struct ClosedLoopOutcome {
    /// The action stream, in step order.
    pub actions: Vec<AdaptiveAction>,
    /// The session's `url_update` request trace (miner food).
    pub trace: Trace<RequestRecord>,
    /// Executed queries across all actions, in issue order.
    pub queries: Vec<ClosedLoopQuery>,
    /// Admission shedding, by reason.
    pub shed: ShedCounts,
    /// `true` when the user abandoned on slow answers.
    pub abandoned: bool,
}

impl ClosedLoopOutcome {
    /// Per-query latencies, in issue order.
    pub fn latencies(&self) -> Vec<SimDuration> {
        self.queries.iter().map(|q| q.timing.latency()).collect()
    }

    /// Queries that came back degraded (`Partial` or `Failed`).
    pub fn degraded(&self) -> usize {
        self.queries
            .iter()
            .filter(|q| q.outcome.quality.is_degraded())
            .count()
    }

    /// Stable byte rendering of the whole feedback loop: action lines,
    /// the trace TSV, per-query timings + quality, and shed counters.
    /// Two runs of the same seed must agree byte for byte.
    pub fn digest(&self) -> String {
        let mut out = String::new();
        for a in &self.actions {
            out.push_str("action\t");
            out.push_str(&a.digest_line());
            out.push('\n');
        }
        out.push_str(&self.trace.to_tsv());
        for q in &self.queries {
            out.push_str(&format!(
                "query\t{}\t{}\t{}\t{}\t{}\n",
                q.step,
                q.timing.issued_at.as_micros(),
                q.timing.finished_at.as_micros(),
                quality_token(&q.outcome.quality),
                result_token(&q.outcome),
            ));
        }
        out.push_str(&format!(
            "shed\trate={}\tqueue={}\tprefetch={}\nabandoned\t{}\n",
            self.shed.rate_limited,
            self.shed.queue_full,
            self.shed.prefetch_suppressed,
            self.abandoned
        ));
        out
    }
}

/// Stable token for an answer's quality.
pub fn quality_token(q: &ResultQuality) -> String {
    match q {
        ResultQuality::Exact => "exact".into(),
        ResultQuality::Partial {
            fraction,
            error_bound,
        } => format!("partial:{fraction:?}:{error_bound:?}"),
        ResultQuality::Failed => "failed".into(),
    }
}

fn result_token(outcome: &QueryOutcome) -> String {
    match outcome.result.histogram() {
        Some(h) => format!(
            "hist:{}",
            h.counts()
                .iter()
                .map(|c| c.to_string())
                .collect::<Vec<_>>()
                .join(",")
        ),
        None => format!("len:{}", outcome.result.len()),
    }
}

/// Drives one session of `policy` against `backend` under `params`,
/// feeding each action's observed latency, quality, and first histogram
/// back into the behavior model.
pub fn drive_session(
    backend: &dyn Backend,
    policy: &BehaviorPolicy,
    params: &ClosedLoopParams,
) -> ClosedLoopOutcome {
    let ui = policy.ui().clone();
    let mut session = policy.session();
    let mut controller = AdmissionController::new(params.admission);

    let mut actions = Vec::new();
    let mut trace = Trace::new();
    let mut queries = Vec::new();
    let mut feedback = Feedback::initial();
    let mut seq = 0usize;

    while let Some(action) = session.next_action(&feedback) {
        let group = session.compile(&action);
        // Admission runs per query at the action instant. A closed-loop
        // user waits for answers before acting again, so there is never
        // a standing backlog — only the token bucket can shed here.
        let mut admitted: Vec<IssuedQuery> = Vec::new();
        let mut admitted_dims: Vec<usize> = Vec::new();
        for (j, query) in group.queries.iter().enumerate() {
            let offered = OfferedQuery {
                session: 0,
                tenant: 0,
                seq,
                at: action.at,
                lane: Lane::Interactive,
                query: query.clone(),
            };
            seq += 1;
            if controller.admit(&offered, admitted.len()).is_ok() {
                // Dimension this histogram describes: the j-th dim
                // skipping the moved slider.
                let dim = if j < action.slider { j } else { j + 1 };
                admitted_dims.push(dim);
                admitted.push(IssuedQuery::new(
                    action.at,
                    query.clone(),
                    action.step as u64,
                ));
            }
        }

        feedback = if admitted.is_empty() {
            // Everything shed: the user watched a spinner time out.
            Feedback::failed(params.resilience.failure_charge() + params.extra_latency)
        } else {
            let executed = replay_resilient(backend, &admitted, params.workers, &params.resilience)
                .expect("closed-loop queries execute against registered tables");
            let mut finish = action.at;
            let mut worst = ResultQuality::Exact;
            let mut histogram: Option<Histogram> = None;
            let mut hist_dim = 0;
            for (i, (timing, outcome)) in executed.iter().enumerate() {
                finish = finish.max(timing.finished_at);
                worst = worse(&worst, &outcome.quality);
                if histogram.is_none() {
                    if let Some(h) = outcome.result.histogram() {
                        histogram = Some(h.clone());
                        hist_dim = admitted_dims[i];
                    }
                }
                queries.push(ClosedLoopQuery {
                    step: action.step,
                    timing: *timing,
                    outcome: outcome.clone(),
                });
            }
            Feedback {
                latency: finish.saturating_since(action.at) + params.extra_latency,
                quality: worst,
                histogram,
                hist_dim,
            }
        };

        trace.push(action.request_record(&ui));
        actions.push(action);
    }

    ClosedLoopOutcome {
        actions,
        trace,
        queries,
        shed: controller.shed(),
        abandoned: session.abandoned(),
    }
}

/// Orders qualities by badness: `Failed` > `Partial` > `Exact`.
fn worse(a: &ResultQuality, b: &ResultQuality) -> ResultQuality {
    let rank = |q: &ResultQuality| match q {
        ResultQuality::Exact => 0,
        ResultQuality::Partial { .. } => 1,
        ResultQuality::Failed => 2,
    };
    if rank(b) > rank(a) {
        *b
    } else {
        *a
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ids_engine::MemBackend;
    use ids_workload::crossfilter::CrossfilterUi;
    use ids_workload::datasets;

    fn backend() -> MemBackend {
        let db = ids_engine::Database::new();
        db.register(datasets::road_network_named("dataroad", 7, 400));
        MemBackend::over(db)
    }

    fn policy(seed: u64) -> BehaviorPolicy {
        BehaviorPolicy::adaptive(seed, CrossfilterUi::for_road())
    }

    #[test]
    fn closed_loop_is_deterministic() {
        let b = backend();
        let p = policy(11);
        let params = ClosedLoopParams::default();
        let a = drive_session(&b, &p, &params);
        let c = drive_session(&b, &p, &params);
        assert_eq!(a.digest(), c.digest());
        assert!(!a.actions.is_empty());
        assert!(!a.queries.is_empty());
    }

    #[test]
    fn rate_limited_admission_sheds_and_changes_the_stream() {
        let b = backend();
        let p = policy(12);
        let open = drive_session(&b, &p, &ClosedLoopParams::default());
        let throttled = drive_session(
            &b,
            &p,
            &ClosedLoopParams {
                admission: AdmissionPolicy::interactive(0.4, 4),
                ..ClosedLoopParams::default()
            },
        );
        assert!(throttled.shed.total() > 0, "bucket must shed");
        assert_ne!(
            open.digest(),
            throttled.digest(),
            "shedding feeds back into the action stream"
        );
    }

    #[test]
    fn deadline_policy_feeds_partials_back() {
        let b = backend();
        let p = policy(13);
        let strict = ClosedLoopParams {
            resilience: ResiliencePolicy::DegradeAfter(SimDuration::from_micros(40)),
            ..ClosedLoopParams::default()
        };
        let out = drive_session(&b, &p, &strict);
        assert!(out.degraded() > 0, "tight budget degrades answers");
        // Determinism holds even when answers are Partial.
        assert_eq!(out.digest(), drive_session(&b, &p, &strict).digest());
    }

    #[test]
    fn injected_latency_can_only_abandon_earlier() {
        let b = backend();
        let mut abandoned = Vec::new();
        let mut steps = Vec::new();
        for delay_ms in [0u64, 150, 600, 5_000] {
            let params = ClosedLoopParams {
                extra_latency: SimDuration::from_millis(delay_ms),
                ..ClosedLoopParams::default()
            };
            let out = drive_session(&b, &policy(14), &params);
            abandoned.push(out.abandoned);
            steps.push(out.actions.len());
        }
        assert!(
            abandoned.windows(2).all(|w| w[0] <= w[1]),
            "abandonment is monotone: {abandoned:?}"
        );
        assert!(
            steps.windows(2).all(|w| w[0] >= w[1]),
            "sessions only get shorter: {steps:?}"
        );
        assert!(abandoned[3], "huge injected latency abandons");
    }

    #[test]
    fn static_replay_ignores_service_conditions() {
        let b = backend();
        let ui = CrossfilterUi::for_road();
        let p = BehaviorPolicy::static_replay(ids_devices::DeviceKind::Mouse, 0, 21, ui.clone());
        let calm = drive_session(&b, &p, &ClosedLoopParams::default());
        let stressed = drive_session(
            &b,
            &p,
            &ClosedLoopParams {
                resilience: ResiliencePolicy::DegradeAfter(SimDuration::from_micros(25)),
                extra_latency: SimDuration::from_secs(2),
                ..ClosedLoopParams::default()
            },
        );
        let acts = |o: &ClosedLoopOutcome| o.actions.clone();
        assert_eq!(acts(&calm), acts(&stressed), "open loop cannot react");
        let open =
            ids_workload::crossfilter::simulate_session(ids_devices::DeviceKind::Mouse, 0, 21, &ui);
        let replayed: Vec<_> = calm.actions.iter().map(|a| a.slider_record()).collect();
        assert_eq!(replayed, open.trace.records().to_vec());
    }
}
