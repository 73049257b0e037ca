//! Integration tests for the fleet-serving layer: byte-determinism,
//! host-thread invariance, admission invariants, and chaos composition.

use ids::chaos::FaultPlan;
use ids::engine::{Predicate, Query};
use ids::experiments::fleet::{run, FleetConfig};
use ids::serve::{simulate_service, AdmissionPolicy, Lane, OfferedQuery, ServeParams, TokenBucket};
use ids::simclock::{SimDuration, SimTime};
use proptest::prelude::*;

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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// A token bucket never admits more than its burst plus what its
    /// rate refills over the observed span.
    #[test]
    fn token_bucket_never_over_admits(
        rate in 0.5f64..50.0,
        burst in 1.0f64..20.0,
        gaps_ms in prop::collection::vec(0u64..2_000, 1..200),
    ) {
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
        prop_assert!(
            (admitted as f64) <= ceiling + 1e-6,
            "admitted {} exceeds burst {} + rate {} over {}s",
            admitted, burst, rate, span_secs
        );
    }

    /// Conservation: every offered query is either admitted or shed —
    /// the queue always drains, nothing is lost or double-counted.
    #[test]
    fn service_conserves_offered_queries(
        gaps_ms in prop::collection::vec(0u64..500, 1..150),
        cost_ms in 1u64..400,
        rate in 0.5f64..100.0,
        queue_limit in 0usize..16,
        workers in 1usize..5,
    ) {
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
                    lane: if i % 4 == 3 { Lane::Prefetch } else { Lane::Interactive },
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
            let out = simulate_service(
                &offered,
                &costs,
                &policy,
                &FaultPlan::calm(9),
                &params,
            );
            prop_assert_eq!(out.offered, offered.len());
            prop_assert_eq!(
                out.admitted + out.shed.total(),
                out.offered,
                "admitted + shed must equal offered"
            );
            if policy.is_unlimited() {
                prop_assert_eq!(out.shed.total(), 0);
            }
            // The queue drained: the last admitted query finished at a
            // finite instant no earlier than serial service could allow.
            prop_assert!(out.drained_at < SimTime::MAX);
        }
    }
}
