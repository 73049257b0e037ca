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

use ids_simclock::{SimDuration, SimTime};
use ids_workload::crossfilter::QueryGroup;

/// A closed-loop throttle: it observes each executed group's service
/// time (exponential moving average) and only admits a group when the
/// backend is predicted free.
#[derive(Debug, Clone)]
pub struct AdaptiveThrottle {
    /// EMA smoothing factor in `(0, 1]`; higher = more reactive.
    alpha: f64,
    /// Current service-time estimate.
    estimate: SimDuration,
    /// Predicted time the backend frees up.
    busy_until: SimTime,
    admitted: usize,
    dropped: usize,
    /// A service time this many times over the running estimate counts
    /// as a stall; `0` disables stall reaction.
    stall_factor: f64,
    /// Extra back-off on a detected stall, as a multiple of the observed
    /// service time.
    stall_hold: f64,
    stall_reactions: usize,
}

impl AdaptiveThrottle {
    /// Creates a throttle with an initial service-time guess.
    pub fn new(initial_estimate: SimDuration) -> AdaptiveThrottle {
        AdaptiveThrottle {
            alpha: 0.3,
            estimate: initial_estimate,
            busy_until: SimTime::ZERO,
            admitted: 0,
            dropped: 0,
            stall_factor: 0.0,
            stall_hold: 0.0,
            stall_reactions: 0,
        }
    }

    /// Enables stall reaction: when an observed service time exceeds
    /// `stall_factor ×` the running estimate (the signature of a fault
    /// window, not ordinary load), the throttle backs off for an extra
    /// `stall_hold ×` that service time instead of hammering a wedged
    /// backend with queries it would only queue.
    pub fn with_stall_reaction(mut self, stall_factor: f64, stall_hold: f64) -> AdaptiveThrottle {
        self.stall_factor = stall_factor.max(0.0);
        self.stall_hold = stall_hold.max(0.0);
        self
    }

    /// Current service-time estimate.
    pub fn estimate(&self) -> SimDuration {
        self.estimate
    }

    /// `(admitted, dropped)` counts so far.
    pub fn counts(&self) -> (usize, usize) {
        (self.admitted, self.dropped)
    }

    /// Number of stall reactions triggered so far.
    pub fn stall_reactions(&self) -> usize {
        self.stall_reactions
    }

    /// Decides whether a group issued at `at` should reach the backend.
    pub fn admit(&mut self, at: SimTime) -> bool {
        if at >= self.busy_until {
            self.admitted += 1;
            // Reserve the predicted service window.
            self.busy_until = at + self.estimate;
            true
        } else {
            self.dropped += 1;
            false
        }
    }

    /// Feeds back an observed service time for an admitted group.
    pub fn observe(&mut self, service: SimDuration) {
        let est = self.estimate.as_secs_f64();
        let obs = service.as_secs_f64();
        self.estimate = SimDuration::from_secs_f64(est + self.alpha * (obs - est));
    }

    /// Filters a whole stream, using `service_of` to learn each admitted
    /// group's cost (e.g. a backend probe).
    pub fn filter_stream<F>(&mut self, groups: &[QueryGroup], mut service_of: F) -> Vec<QueryGroup>
    where
        F: FnMut(&QueryGroup) -> SimDuration,
    {
        let reg = ids_obs::metrics();
        let admitted_ctr = reg.counter("opt.throttle.adaptive.admitted");
        let dropped_ctr = reg.counter("opt.throttle.adaptive.dropped");
        let stall_ctr = reg.counter("opt.throttle.stall_reactions");
        let rec = ids_obs::recorder();
        let mut out = Vec::new();
        for g in groups {
            if self.admit(g.at) {
                admitted_ctr.inc();
                let service = service_of(g);
                let prior = self.estimate;
                // Correct the reservation with the real cost.
                self.busy_until = g.at + service;
                self.observe(service);
                if self.stall_factor > 0.0
                    && service.as_secs_f64() > prior.as_secs_f64() * self.stall_factor
                {
                    // The backend is stalling, not just loaded: back off
                    // beyond the observed service before the next probe.
                    self.busy_until += service.mul_f64(self.stall_hold);
                    self.stall_reactions += 1;
                    stall_ctr.inc();
                    if rec.is_enabled() {
                        let track = rec.track("opt/throttle");
                        rec.record_instant(
                            "opt",
                            "throttle.stall_reaction",
                            track,
                            g.at,
                            vec![(
                                "service_ms",
                                ids_obs::ArgValue::F64(service.as_millis_f64()),
                            )],
                        );
                    }
                }
                if rec.is_enabled() {
                    rec.record_counter(
                        "opt.throttle.estimate_ms",
                        g.at,
                        self.estimate.as_millis_f64(),
                    );
                }
                out.push(g.clone());
            } else {
                dropped_ctr.inc();
                if rec.is_enabled() {
                    let track = rec.track("opt/throttle");
                    rec.record_instant(
                        "opt",
                        "throttle.drop",
                        track,
                        g.at,
                        vec![(
                            "busy_for_ms",
                            ids_obs::ArgValue::F64(
                                self.busy_until.saturating_since(g.at).as_millis_f64(),
                            ),
                        )],
                    );
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ids_engine::{Predicate, Query};

    fn groups(interval_ms: u64, n: usize) -> Vec<QueryGroup> {
        (0..n)
            .map(|i| QueryGroup {
                at: SimTime::from_millis(interval_ms * (i as u64 + 1)),
                slider: 0,
                queries: vec![Query::count("t", Predicate::True)],
            })
            .collect()
    }

    #[test]
    fn adaptive_throttle_converges_to_backend_capacity() {
        // Backend takes a constant 80 ms; stream arrives at 20 ms.
        let input = groups(20, 200);
        let mut throttle = AdaptiveThrottle::new(SimDuration::from_millis(5));
        let out = throttle.filter_stream(&input, |_| SimDuration::from_millis(80));
        // Admitted rate ≈ one per 80 ms = one per 4 input groups.
        let (admitted, dropped) = throttle.counts();
        assert_eq!(admitted, out.len());
        assert!(admitted + dropped == input.len());
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
        let out = throttle.filter_stream(&input, |_| SimDuration::from_millis(2));
        assert_eq!(out.len(), input.len());
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
        let kept_plain = plain.filter_stream(&input, service).len();
        let mut reactive =
            AdaptiveThrottle::new(SimDuration::from_millis(10)).with_stall_reaction(3.0, 2.0);
        let kept_reactive = reactive.filter_stream(&input, service).len();
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
        let out = throttle.filter_stream(&input, |_| SimDuration::from_millis(30));
        for w in out.windows(2) {
            assert!(
                w[1].at.saturating_since(w[0].at) >= SimDuration::from_millis(30),
                "admitted groups overlap the busy window"
            );
        }
    }
}
