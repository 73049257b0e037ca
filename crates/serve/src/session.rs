//! Fleet synthesis: thousands of seeded interactive sessions arriving at
//! one shared engine.
//!
//! Each session is an independent crossfilter user — a device profile, a
//! behavioral trace from [`ids_workload`], and a think-time-driven query
//! stream — shifted to its arrival instant. Per-session randomness comes
//! from `SimRng::seed(seed).split("fleet/session/{id}")`, so a session's
//! queries depend only on `(seed, id, arrival)` and never on how many
//! host threads synthesized the fleet or in what order. That is what
//! makes the serving experiments bit-identical across 1/2/4/8 threads.

use ids_devices::DeviceKind;
use ids_engine::parallel::ordered_map;
use ids_engine::Query;
use ids_simclock::rng::SimRng;
use ids_simclock::{SimDuration, SimTime};
use ids_workload::crossfilter::{leading_groups, CrossfilterUi};

/// Priority lane of an offered query.
///
/// Interactive queries sit on the critical path of a waiting user;
/// prefetch queries are speculative warm-up work the frontend issues
/// opportunistically and can lose without anyone noticing. The admission
/// controller sheds prefetch first under pressure.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Lane {
    /// A user is blocked on the answer.
    Interactive,
    /// Speculative warm-up; droppable under load.
    Prefetch,
}

impl std::fmt::Display for Lane {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Lane::Interactive => write!(f, "interactive"),
            Lane::Prefetch => write!(f, "prefetch"),
        }
    }
}

/// How sessions arrive at the serving layer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ArrivalProcess {
    /// Memoryless arrivals: exponential gaps with the given mean — the
    /// steady-trickle regime.
    Poisson {
        /// Mean gap between consecutive session arrivals.
        mean_gap: SimDuration,
    },
    /// Rush-hour arrivals: `count` bursts `spacing` apart, each session
    /// landing uniformly inside its burst's `width`.
    Bursts {
        /// Number of bursts the fleet is spread across.
        count: usize,
        /// Start-to-start distance between bursts.
        spacing: SimDuration,
        /// Jitter window within a burst.
        width: SimDuration,
    },
}

impl ArrivalProcess {
    /// Arrival instants for `n` sessions, sorted ascending.
    ///
    /// Drawn from a dedicated RNG split in one sequential pass (arrivals
    /// are O(n) scalar work — the expensive per-session trace synthesis
    /// is what parallelizes, and it only reads these instants).
    pub fn arrivals(&self, seed: u64, n: usize) -> Vec<SimTime> {
        let mut rng = SimRng::seed(seed).split("fleet/arrivals");
        let mut out = Vec::with_capacity(n);
        match *self {
            ArrivalProcess::Poisson { mean_gap } => {
                let mut t = SimTime::ZERO;
                for _ in 0..n {
                    t += SimDuration::from_secs_f64(rng.exponential(mean_gap.as_secs_f64()));
                    out.push(t);
                }
            }
            ArrivalProcess::Bursts {
                count,
                spacing,
                width,
            } => {
                let count = count.max(1);
                for i in 0..n {
                    let burst = i % count;
                    let base = SimTime::ZERO + spacing * burst as u64;
                    out.push(
                        base + SimDuration::from_secs_f64(rng.uniform(0.0, width.as_secs_f64())),
                    );
                }
            }
        }
        out.sort_unstable();
        out
    }
}

/// Static description of one simulated session before synthesis.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SessionSpec {
    /// Fleet-wide session index.
    pub id: usize,
    /// Tenant the session bills to (determines its backing table and
    /// token bucket).
    pub tenant: usize,
    /// Input device driving the behavioral model.
    pub device: DeviceKind,
    /// When the session connects.
    pub arrive_at: SimTime,
}

/// One query as the serving layer sees it arrive.
#[derive(Debug, Clone)]
pub struct OfferedQuery {
    /// Originating session.
    pub session: usize,
    /// Tenant of that session.
    pub tenant: usize,
    /// Issue position within the session (think-time ordered).
    pub seq: usize,
    /// Virtual instant the frontend offers the query.
    pub at: SimTime,
    /// Priority lane.
    pub lane: Lane,
    /// The query itself.
    pub query: Query,
}

/// Fleet synthesis parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FleetSpec {
    /// Master seed; everything below derives from it.
    pub seed: u64,
    /// Number of concurrent sessions.
    pub sessions: usize,
    /// Number of tenants sessions are striped across.
    pub tenants: usize,
    /// Session arrival process.
    pub arrival: ArrivalProcess,
    /// Cap on slider-move groups kept per session.
    pub max_groups: usize,
    /// Fraction of queries tagged [`Lane::Prefetch`].
    pub prefetch_rate: f64,
}

impl FleetSpec {
    /// Table name tenant `t`'s sessions query.
    pub fn tenant_table(tenant: usize) -> String {
        format!("dataroad_t{tenant}")
    }

    /// The per-session specs (arrivals, tenants, devices) this fleet
    /// resolves to. Cheap and sequential; trace synthesis is the
    /// parallel part.
    pub fn resolve(&self) -> Vec<SessionSpec> {
        let arrivals = self.arrival.arrivals(self.seed, self.sessions);
        arrivals
            .into_iter()
            .enumerate()
            .map(|(id, arrive_at)| {
                // Device choice must not depend on sibling sessions:
                // split per session.
                let mut rng = SimRng::seed(self.seed).split(&format!("fleet/device/{id}"));
                SessionSpec {
                    id,
                    tenant: id % self.tenants.max(1),
                    device: DeviceKind::ALL[rng.uniform_usize(0, DeviceKind::ALL.len())],
                    arrive_at,
                }
            })
            .collect()
    }
}

/// Synthesizes one session's offered stream: its first `max_groups`
/// query groups, each query tagged with a lane and shifted to the
/// session's arrival instant.
fn synthesize_session(spec: &FleetSpec, s: &SessionSpec) -> Vec<OfferedQuery> {
    let ui = CrossfilterUi::for_table(FleetSpec::tenant_table(s.tenant));
    // The trace's RNG is split by (device, user), so every session gets
    // an independent stream regardless of synthesis order; only the
    // records the kept groups compile from are simulated.
    let groups = leading_groups(&ui, s.device, s.id, spec.seed, spec.max_groups);
    let mut lane_rng = SimRng::seed(spec.seed).split(&format!("fleet/lane/{}", s.id));
    let mut out = Vec::new();
    for g in groups {
        for query in g.queries {
            let lane = if lane_rng.chance(spec.prefetch_rate) {
                Lane::Prefetch
            } else {
                Lane::Interactive
            };
            out.push(OfferedQuery {
                session: s.id,
                tenant: s.tenant,
                seq: out.len(),
                at: s.arrive_at + g.at.saturating_since(SimTime::ZERO),
                lane,
                query,
            });
        }
    }
    out
}

/// Synthesizes the whole fleet's offered stream, sorted by
/// `(at, session, seq)` — the canonical global serving order.
///
/// `threads` controls host-thread parallelism only: sessions are
/// synthesized through the engine's ordered fan-out, and because each
/// session is an independent function of `(seed, id)`, the merged
/// result is byte-identical for any thread count. The sort key is total
/// (ties broken by session then seq), so the order is unambiguous too.
///
/// # Panics
///
/// If a session's synthesis panics on a worker thread: the signature
/// has no error channel, so the fan-out's typed error is re-raised here.
pub fn synthesize_fleet(spec: &FleetSpec, threads: usize) -> Vec<OfferedQuery> {
    let _p = ids_obs::phase("serve.synthesize");
    let specs = spec.resolve();
    let mut offered: Vec<OfferedQuery> = ordered_map(specs.len(), threads, |i| {
        synthesize_session(spec, &specs[i])
    })
    .unwrap_or_else(|e| panic!("synthesizing sessions 0..{}: {e}", specs.len()))
    .into_iter()
    .flatten()
    .collect();
    offered.sort_by_key(|a| (a.at, a.session, a.seq));
    offered
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> FleetSpec {
        FleetSpec {
            seed: 7,
            sessions: 12,
            tenants: 3,
            arrival: ArrivalProcess::Poisson {
                mean_gap: SimDuration::from_millis(500),
            },
            max_groups: 10,
            prefetch_rate: 0.2,
        }
    }

    /// Identity key for comparing offered queries (`Query` itself is
    /// not `PartialEq`; its exact SQL stands in for it).
    fn key(q: &OfferedQuery) -> (u64, usize, usize, usize, Lane, String) {
        (
            q.at.as_micros(),
            q.session,
            q.tenant,
            q.seq,
            q.lane,
            q.query.to_string(),
        )
    }

    #[test]
    fn synthesis_is_thread_invariant() {
        let s = spec();
        let one: Vec<_> = synthesize_fleet(&s, 1).iter().map(key).collect();
        assert!(!one.is_empty());
        for threads in [2, 4, 8] {
            let multi: Vec<_> = synthesize_fleet(&s, threads).iter().map(key).collect();
            assert_eq!(one, multi, "{threads} threads");
        }
    }

    #[test]
    fn stream_is_sorted_and_striped() {
        let s = spec();
        let offered = synthesize_fleet(&s, 4);
        assert!(offered
            .windows(2)
            .all(|w| (w[0].at, w[0].session, w[0].seq) <= (w[1].at, w[1].session, w[1].seq)));
        assert!(offered.iter().all(|q| q.tenant == q.session % 3));
        assert!(offered.iter().any(|q| q.lane == Lane::Prefetch));
        assert!(offered.iter().any(|q| q.lane == Lane::Interactive));
    }

    #[test]
    fn poisson_arrivals_are_sorted_and_seeded() {
        let p = ArrivalProcess::Poisson {
            mean_gap: SimDuration::from_millis(100),
        };
        let a = p.arrivals(1, 50);
        assert_eq!(a.len(), 50);
        assert!(a.windows(2).all(|w| w[0] <= w[1]));
        assert_eq!(a, p.arrivals(1, 50));
        assert_ne!(a, p.arrivals(2, 50));
    }

    #[test]
    fn bursts_cluster_arrivals() {
        let p = ArrivalProcess::Bursts {
            count: 2,
            spacing: SimDuration::from_secs(60),
            width: SimDuration::from_secs(1),
        };
        let a = p.arrivals(3, 10);
        let early = a.iter().filter(|t| **t < SimTime::from_secs(30)).count();
        assert_eq!(early, 5, "half the fleet lands in the first burst");
        assert!(a.iter().all(|t| {
            let s = t.saturating_since(SimTime::ZERO).as_secs_f64();
            s <= 1.0 || (60.0..=61.0).contains(&s)
        }));
    }
}
