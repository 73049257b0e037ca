//! Integration tests for the fleet-serving layer: byte-determinism,
//! host-thread invariance, admission invariants, and chaos composition.

use ids::chaos::FaultPlan;
use ids::engine::{Predicate, Query};
use ids::experiments::fleet::{run, FleetConfig};
use ids::serve::{simulate_service, AdmissionPolicy, Lane, OfferedQuery, ServeParams, TokenBucket};
use ids::simclock::rng::check;
use ids::simclock::{SimDuration, SimTime};

/// A trimmed config so the multi-run tests stay fast.
fn small_config() -> FleetConfig {
    let mut c = FleetConfig::smoke_test();
    c.session_counts = vec![6, 12];
    c.max_groups = 6;
    c
}

#[test]
fn fleet_table_is_deterministic_across_repeats() {
    let config = small_config();
    let first = run(&config).render();
    let second = run(&config).render();
    assert_eq!(first, second, "same config must render byte-identically");
    assert!(first.contains("fleet: concurrency scaling"));
}

#[test]
fn fleet_table_is_invariant_across_worker_threads() {
    let mut config = small_config();
    config.threads = 1;
    let reference = run(&config).render();
    for threads in [2, 4, 8] {
        config.threads = threads;
        assert_eq!(
            reference,
            run(&config).render(),
            "fleet table must not depend on synthesis thread count ({threads})"
        );
    }
}

#[test]
fn chaos_composed_fleet_terminates_and_degrades() {
    // The two concurrency levels and the storm strength CI's fleet
    // matrix used to set through the environment.
    let mut calm_config = small_config();
    calm_config.session_counts = vec![16, 64];
    let calm = run(&calm_config);
    let mut stormy_config = calm_config;
    stormy_config.chaos_intensity = 0.6;
    // Node-loss windows mid-run shrink capacity; the run must still
    // complete with every offered query accounted for.
    let stormy = run(&stormy_config);
    for (c, s) in calm.points.iter().zip(&stormy.points) {
        assert_eq!(
            s.offered, c.offered,
            "chaos must not change the offered load"
        );
        assert_eq!(
            s.admission.admitted + s.admission.shed.total(),
            s.offered,
            "conservation under chaos at {} sessions",
            s.sessions
        );
        assert_eq!(s.baseline.admitted, s.offered);
        assert!(
            s.baseline.drained_at >= c.baseline.drained_at,
            "storms cannot drain the open queue earlier"
        );
        assert!(s.baseline.drained_at < SimTime::MAX, "no wedge");
    }
    // Even under the storm, admission keeps the tail below the open
    // queue's at the top concurrency.
    let top = stormy.points.last().unwrap();
    assert!(top.admission.p99 < top.baseline.p99);
}

fn count_query() -> Query {
    Query::count("t", Predicate::True)
}

/// A token bucket never admits more than its burst plus what its
/// rate refills over the observed span.
#[test]
fn token_bucket_never_over_admits() {
    check("token_bucket_never_over_admits", 0..48, |rng| {
        let rate = rng.uniform(0.5, 50.0);
        let burst = rng.uniform(1.0, 20.0);
        let gaps_ms = (0..rng.uniform_usize(1, 200))
            .map(|_| rng.uniform_u64(0, 2_000))
            .collect::<Vec<_>>();
        let mut bucket = TokenBucket::new(rate, burst);
        let mut now = SimTime::ZERO;
        let mut admitted = 0usize;
        for gap in &gaps_ms {
            now += SimDuration::from_millis(*gap);
            if bucket.try_take(now) {
                admitted += 1;
            }
        }
        let span_secs = now.saturating_since(SimTime::ZERO).as_secs_f64();
        let ceiling = burst + rate * span_secs;
        assert!(
            (admitted as f64) <= ceiling + 1e-6,
            "admitted {} exceeds burst {} + rate {} over {}s",
            admitted,
            burst,
            rate,
            span_secs
        );
    });
}

/// Conservation: every offered query is either admitted or shed —
/// the queue always drains, nothing is lost or double-counted.
#[test]
fn service_conserves_offered_queries() {
    check("service_conserves_offered_queries", 0..48, |rng| {
        let gaps_ms = (0..rng.uniform_usize(1, 150))
            .map(|_| rng.uniform_u64(0, 500))
            .collect::<Vec<_>>();
        let cost_ms = rng.uniform_u64(1, 400);
        let rate = rng.uniform(0.5, 100.0);
        let queue_limit = rng.uniform_usize(0, 16);
        let workers = rng.uniform_usize(1, 5);
        let mut at = SimTime::ZERO;
        let offered: Vec<OfferedQuery> = gaps_ms
            .iter()
            .enumerate()
            .map(|(i, gap)| {
                at += SimDuration::from_millis(*gap);
                OfferedQuery {
                    session: i % 5,
                    tenant: i % 3,
                    seq: i,
                    at,
                    lane: if i % 4 == 3 {
                        Lane::Prefetch
                    } else {
                        Lane::Interactive
                    },
                    query: count_query(),
                }
            })
            .collect();
        let costs = vec![SimDuration::from_millis(cost_ms); offered.len()];
        let params = ServeParams {
            workers,
            latency_budget: SimDuration::from_millis(100),
            deadline: false,
            shards: 1,
        };
        for policy in [
            AdmissionPolicy::unlimited(),
            AdmissionPolicy::interactive(rate, queue_limit),
        ] {
            let out = simulate_service(&offered, &costs, &policy, &FaultPlan::calm(9), &params);
            assert_eq!(out.offered, offered.len());
            assert_eq!(
                out.admitted + out.shed.total(),
                out.offered,
                "admitted + shed must equal offered"
            );
            if policy.is_unlimited() {
                assert_eq!(out.shed.total(), 0);
            }
            // The queue drained: the last admitted query finished at a
            // finite instant no earlier than serial service could allow.
            assert!(out.drained_at < SimTime::MAX);
        }
    });
}
