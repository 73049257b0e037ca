//! QIF throttling: matching the frontend's issue rate to the backend.
//!
//! Fig 3's bottom-right quadrant — high query issuing frequency against a
//! slow backend — calls for throttling: "even if the user issues queries
//! at a high rate, they are limited in the amount of information they can
//! process, so progressively presenting them with results is adequate."
//! [`AdaptiveThrottle`] measures the backend's recent service times and
//! tracks its capacity — the closed-loop version of
//! [`ids_metrics::qif::throttle_suggestion`].
//!
//! The throttle *drops* intermediate groups (the slider's newest position
//! supersedes older ones), so the surviving stream keeps the latest
//! state, like the skip optimization but applied before the backend.
//! [`Policy::Throttle`](crate::Policy::Throttle) runs it over
//! [`replay`](crate::replay()): a group is admitted only when the server
//! is free, so an admitted group never waits.

use ids_engine::scheduler::QueryTiming;
use ids_simclock::{SimDuration, SimTime};

/// EMA smoothing factor of the service-time estimate.
const ALPHA: f64 = 0.3;

/// A service time this many times over the running estimate is a stall.
const STALL_FACTOR: f64 = 3.0;

/// Extra back-off on a stall, as a multiple of the observed service time.
const STALL_HOLD: f64 = 2.0;

/// A closed-loop throttle: it observes each admitted group's service
/// time (exponential moving average) and reacts to stalls by holding
/// admission past the stalled group's finish.
#[derive(Debug, Clone)]
pub struct AdaptiveThrottle {
    /// Current service-time estimate.
    estimate: SimDuration,
    /// No group is admitted before this instant (the last stall's hold).
    pub(crate) hold_until: SimTime,
    /// Whether a stall holds admission ([`AdaptiveThrottle::with_stall_reaction`]).
    stall_reaction: bool,
    stall_reactions: usize,
}

impl AdaptiveThrottle {
    /// Creates a throttle with an initial service-time guess.
    pub fn new(initial_estimate: SimDuration) -> AdaptiveThrottle {
        AdaptiveThrottle {
            estimate: initial_estimate,
            hold_until: SimTime::ZERO,
            stall_reaction: false,
            stall_reactions: 0,
        }
    }

    /// Enables stall reaction: when an observed service time exceeds
    /// 3× the running estimate (the signature of a fault window, not
    /// ordinary load), the throttle backs off for an extra 2× that
    /// service time instead of hammering a wedged backend with queries it
    /// would only queue.
    pub fn with_stall_reaction(mut self) -> AdaptiveThrottle {
        self.stall_reaction = true;
        self
    }

    /// Current service-time estimate.
    pub fn estimate(&self) -> SimDuration {
        self.estimate
    }

    /// Number of stall reactions triggered so far.
    pub fn stall_reactions(&self) -> usize {
        self.stall_reactions
    }

    /// Feeds back an admitted group's timing: its service time moves the
    /// estimate, and a stall holds admission beyond the group's finish.
    pub(crate) fn observe(&mut self, timing: &QueryTiming) {
        let service = timing.execution();
        let prior = self.estimate.as_secs_f64();
        self.estimate = SimDuration::from_secs_f64(prior + ALPHA * (service.as_secs_f64() - prior));
        let rec = ids_obs::recorder();
        if self.stall_reaction && service.as_secs_f64() > prior * STALL_FACTOR {
            // The backend is stalling, not just loaded: back off beyond
            // the observed service before the next probe.
            self.hold_until = timing.finished_at + service.mul_f64(STALL_HOLD);
            self.stall_reactions += 1;
            ids_obs::metrics()
                .counter("opt.throttle.stall_reactions")
                .inc();
            if rec.is_enabled() {
                let track = rec.track("opt/throttle");
                rec.record_instant(
                    "opt",
                    "throttle.stall_reaction",
                    track,
                    timing.issued_at,
                    vec![(
                        "service_ms",
                        ids_obs::ArgValue::F64(service.as_millis_f64()),
                    )],
                );
            }
        }
        rec.record_counter(
            "opt.throttle.estimate_ms",
            timing.issued_at,
            self.estimate.as_millis_f64(),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{replay, Policy, ReplayOutcome};
    use ids_engine::{Predicate, Query};
    use ids_workload::crossfilter::QueryGroup;

    fn groups(interval_ms: u64, n: usize) -> Vec<QueryGroup> {
        (0..n)
            .map(|i| QueryGroup {
                at: SimTime::from_millis(interval_ms * (i as u64 + 1)),
                slider: 0,
                queries: vec![Query::count("t", Predicate::True)],
            })
            .collect()
    }

    /// Replays `input` through `throttle`, each admitted group costing
    /// `service` of it.
    fn admit(
        throttle: &mut AdaptiveThrottle,
        input: &[QueryGroup],
        service: impl Fn(&QueryGroup) -> SimDuration,
    ) -> ReplayOutcome {
        replay("t", input, Policy::Throttle(throttle), |g| Ok(service(g))).unwrap()
    }

    #[test]
    fn adaptive_throttle_converges_to_backend_capacity() {
        // Backend takes a constant 80 ms; stream arrives at 20 ms.
        let input = groups(20, 200);
        let mut throttle = AdaptiveThrottle::new(SimDuration::from_millis(5));
        let out = admit(&mut throttle, &input, |_| SimDuration::from_millis(80));
        // Admitted rate ≈ one per 80 ms = one per 4 input groups.
        let admitted = out.executed.len();
        assert!(
            (40..=60).contains(&admitted),
            "admitted {admitted} of 200 (expected ~50)"
        );
        // The estimate converged to the true service time.
        let est = throttle.estimate().as_millis_f64();
        assert!((est - 80.0).abs() < 8.0, "estimate {est:.1} ms");
    }

    #[test]
    fn adaptive_throttle_admits_everything_when_fast() {
        let input = groups(50, 40);
        let mut throttle = AdaptiveThrottle::new(SimDuration::from_millis(5));
        let out = admit(&mut throttle, &input, |_| SimDuration::from_millis(2));
        assert_eq!(out.skipped(), 0);
    }

    #[test]
    fn stall_reaction_backs_off_through_a_fault_window() {
        // Steady 10 ms service, except a stall burst at 10× between
        // groups 40 and 60 (by issue time).
        let input = groups(20, 100);
        let service = |g: &QueryGroup| {
            if (SimTime::from_millis(800)..SimTime::from_millis(1_200)).contains(&g.at) {
                SimDuration::from_millis(100)
            } else {
                SimDuration::from_millis(10)
            }
        };
        let mut plain = AdaptiveThrottle::new(SimDuration::from_millis(10));
        let kept_plain = admit(&mut plain, &input, service).executed.len();
        let mut reactive =
            AdaptiveThrottle::new(SimDuration::from_millis(10)).with_stall_reaction();
        let kept_reactive = admit(&mut reactive, &input, service).executed.len();
        assert!(reactive.stall_reactions() > 0, "the burst must be noticed");
        assert!(
            kept_reactive < kept_plain,
            "backing off must shed probes during the stall: {kept_reactive} vs {kept_plain}"
        );
        assert_eq!(plain.stall_reactions(), 0, "disabled by default");
    }

    #[test]
    fn admitted_stream_respects_backend_freeness() {
        let input = groups(10, 100);
        let mut throttle = AdaptiveThrottle::new(SimDuration::from_millis(30));
        let out = admit(&mut throttle, &input, |_| SimDuration::from_millis(30));
        for w in out.executed.windows(2) {
            assert!(
                w[1].issued_at.saturating_since(w[0].issued_at) >= SimDuration::from_millis(30),
                "admitted groups overlap the busy window"
            );
        }
    }
}
