//! Closed-loop adaptive-workload integration suite.
//!
//! Three contracts around the feedback loop:
//!
//! 1. **Byte-determinism** — a closed-loop session fleet is a pure
//!    function of its scenario seed, invariant across reruns, gather
//!    threads, and shard counts (the `adaptive-determinism` oracle's
//!    property, driven here over a seeded fleet plus the full oracle
//!    battery on mined scenarios).
//! 2. **Open-loop equivalence** — with feedback disabled,
//!    `BehaviorPolicy::static_replay` reproduces the existing
//!    crossfilter trace bit for bit, no matter how hostile the serving
//!    policy is.
//! 3. **Abandonment monotonicity** — injected latency is the *only*
//!    signal that ends sessions early, so the fleet's abandon count is
//!    monotone in the injected delay.

use ids::devices::DeviceKind;
use ids::engine::{Backend, MemBackend};
use ids::serve::{drive_session, ClosedLoopParams};
use ids::simclock::SimDuration;
use ids::simtest::{adaptive_run, check_scenario, derive_seed, Scenario, SessionShape};
use ids::workload::adaptive::BehaviorPolicy;
use ids::workload::trace::Trace;
use ids::workload::{crossfilter, datasets};

/// A fleet of generated closed-loop scenarios replays byte-identically
/// across reruns, 1/2/4/8 gather threads, and 1/4/16 shards. The digest
/// covers the action stream (kind, slider, full range state), every
/// query result, shed counters, and the interface mined back out of the
/// session's own request trace.
#[test]
fn closed_loop_fleet_is_byte_deterministic() {
    for i in 0..4u64 {
        let mut s = Scenario::generate(derive_seed(0xADA7, i));
        s.shape = SessionShape::Adaptive;
        let base = adaptive_run(&s, s.threads, 4);
        assert_eq!(
            base,
            adaptive_run(&s, s.threads, 4),
            "seed {i}: rerun diverged"
        );
        for threads in [1usize, 2, 4, 8] {
            assert_eq!(
                base,
                adaptive_run(&s, threads, 4),
                "seed {i}: digest changed at {threads} gather threads"
            );
        }
        for shards in [1usize, 16] {
            assert_eq!(
                base,
                adaptive_run(&s, s.threads, shards),
                "seed {i}: digest changed at {shards} shards"
            );
        }
    }
}

/// Mined-interface scenarios — the full grammar, not a special case —
/// pass every oracle.
#[test]
fn mined_scenarios_pass_every_oracle() {
    for i in 0..3u64 {
        let mut s = Scenario::generate(derive_seed(0x51ED, i));
        s.shape = SessionShape::Mined;
        let v = check_scenario(&s);
        assert_eq!(v.reports.len(), 12, "every oracle runs on mined scenarios");
        assert!(v.all_passed(), "mined scenario {i}: {}", v.summary());
    }
}

/// Feedback disabled ⇒ the closed-loop machinery degenerates to the
/// open-loop simulator: the driven session's slider trace equals the
/// crossfilter trace bit for bit, under a friendly and a hostile
/// serving policy alike, and a replay user never abandons.
#[test]
fn static_replay_reproduces_the_open_loop_trace() {
    let seed = 0xC0FFEE;
    let backend = MemBackend::new();
    backend
        .database()
        .register(datasets::road_network_sized(seed, 400));
    let ui = crossfilter::CrossfilterUi::for_road();
    let expected = crossfilter::simulate_session(DeviceKind::Mouse, 0, seed, &ui).trace;
    let policy = BehaviorPolicy::static_replay(DeviceKind::Mouse, 0, seed, ui);

    for extra_ms in [0u64, 5_000] {
        let params = ClosedLoopParams {
            extra_latency: SimDuration::from_millis(extra_ms),
            ..ClosedLoopParams::default()
        };
        let outcome = drive_session(&backend, &policy, &params);
        let replayed =
            Trace::from_records(outcome.actions.iter().map(|a| a.slider_record()).collect());
        assert_eq!(
            replayed.to_tsv(),
            expected.to_tsv(),
            "open-loop trace must survive replay with {extra_ms} ms of injected latency"
        );
        assert!(
            !outcome.abandoned,
            "a feedback-blind user cannot abandon ({extra_ms} ms injected)"
        );
    }
}

/// Injected latency only ever *increases* abandonment: content drives
/// zoom/drill/backtrack, latency drives nothing but the walk-away
/// decision, so each session abandons no later under a larger delay and
/// the fleet count is monotone. A five-second stall (vs the 400 ms
/// default tolerance) abandons everyone; an instant backend nobody.
#[test]
fn abandon_rate_is_monotone_in_injected_latency() {
    let backend = MemBackend::new();
    backend
        .database()
        .register(datasets::road_network_sized(7, 300));
    let ui = crossfilter::CrossfilterUi::for_road();
    let fleet = 12u64;

    let abandoned_at = |extra_ms: u64| -> usize {
        let params = ClosedLoopParams {
            extra_latency: SimDuration::from_millis(extra_ms),
            ..ClosedLoopParams::default()
        };
        (0..fleet)
            .filter(|&s| {
                let policy = BehaviorPolicy::adaptive(derive_seed(0xABA2, s), ui.clone());
                drive_session(&backend, &policy, &params).abandoned
            })
            .count()
    };

    let mut last = abandoned_at(0);
    assert_eq!(last, 0, "an instant backend never loses a session");
    for extra_ms in [150u64, 600, 5_000] {
        let now = abandoned_at(extra_ms);
        assert!(
            now >= last,
            "abandon count dropped from {last} to {now} at {extra_ms} ms"
        );
        last = now;
    }
    assert_eq!(
        last as u64, fleet,
        "a five-second stall abandons the whole fleet"
    );
}
