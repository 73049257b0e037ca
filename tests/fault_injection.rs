//! Fault-matrix integration tests: the determinism contract of the
//! chaos layer, end to end.
//!
//! Two guarantees are checked here rather than in any one crate's unit
//! tests because they span the whole pipeline:
//!
//! - **thread-count invariance** — a batch fanned out by `ordered_map`
//!   over a fault-injected backend returns identical outcome vectors at
//!   1/2/4/8 threads (the plan decides faults from `(virtual time, query
//!   fingerprint, attempt)`, never from scheduling order, and fan-out
//!   workers inherit the driving thread's virtual clock);
//! - **bit determinism** — a seeded robustness sweep replays
//!   byte-identically: same rendered table, same metrics snapshot, same
//!   exported trace.
//!
//! The chaos clock (`ids::obs::set_vnow`), the recorder and the metrics
//! registry are owned by the thread that drives a run — here, each
//! `#[test]`'s own thread — so the tests need no serialisation.

use ids::chaos::{ChaosBackend, FaultPlan};
use ids::engine::parallel::ordered_map;
use ids::engine::scheduler::{replay_resilient, IssuedQuery, ResiliencePolicy};
use ids::engine::{
    Backend, ColumnBuilder, MemBackend, Predicate, Query, RetryingBackend, TableBuilder,
};
use ids::experiments::robustness::{self, RobustnessConfig};
use ids::simclock::{SimDuration, SimTime};

fn backend(rows: usize) -> MemBackend {
    let b = MemBackend::new();
    b.database().register(
        TableBuilder::new("t")
            .column("x", ColumnBuilder::float((0..rows).map(|i| i as f64)))
            .build()
            .unwrap(),
    );
    b
}

/// Distinct queries (distinct fingerprints), so per-query attempt
/// counters stay independent of execution order.
fn distinct_queries(n: usize) -> Vec<Query> {
    (0..n)
        .map(|i| Query::count("t", Predicate::between("x", 0.0, 10.0 + i as f64)))
        .collect()
}

#[test]
fn batch_outcomes_identical_across_thread_counts_under_faults() {
    let inner = backend(2_000);
    let queries = distinct_queries(40);
    // Storms with spikes, stalls, and transient failures all active, at
    // three strengths. Buffer-pressure windows are inert without a disk
    // target — pool state is the one deliberately order-dependent fault.
    for intensity in [0.33, 0.67, 1.0] {
        let plan = FaultPlan::storm(17, intensity, SimDuration::from_secs(60));
        assert!(plan.failure_rate() > 0.0, "failures must be in play");
        // Pin the clock inside the storm so time-keyed windows are active.
        let spike_at = plan.windows()[0].start;
        ids::obs::set_vnow(spike_at);

        let run = |threads: usize| {
            // Fresh injector per run: attempt counters restart, so every
            // thread count sees the same injection decisions.
            let chaos = ChaosBackend::new(&inner, plan.clone());
            let retrying = RetryingBackend::new(&chaos);
            ordered_map(queries.len(), threads, |i| retrying.execute(&queries[i]))
                .expect("no task panics")
                .into_iter()
                .collect::<Result<Vec<_>, _>>()
                .expect("retries absorb this seed's transient failures")
        };

        let reference = run(1);
        assert_eq!(reference.len(), queries.len());
        for threads in [2, 4, 8] {
            let outcomes = run(threads);
            assert_eq!(outcomes.len(), reference.len());
            for (i, (a, b)) in reference.iter().zip(&outcomes).enumerate() {
                let at = format!("query {i} at {threads} threads, intensity {intensity}");
                assert_eq!(a.result, b.result, "answer of {at}");
                assert_eq!(a.cost, b.cost, "cost of {at}");
                assert_eq!(a.quality, b.quality, "quality of {at}");
            }
        }
    }
}

#[test]
fn resilient_replay_is_reproducible() {
    let inner = backend(5_000);
    let stream: Vec<IssuedQuery> = distinct_queries(60)
        .into_iter()
        .enumerate()
        .map(|(i, q)| IssuedQuery::new(SimTime::from_millis(20 * i as u64), q, i as u64))
        .collect();
    let plan = FaultPlan::storm(23, 0.8, SimDuration::from_millis(20 * 60));
    let policy = ResiliencePolicy::DegradeAfter(SimDuration::from_millis(40));

    let run = || {
        let chaos = ChaosBackend::new(&inner, plan.clone());
        let retrying = RetryingBackend::new(&chaos);
        replay_resilient(&retrying, &stream, 2, &policy).expect("resilient replay absorbs storms")
    };
    let a = run();
    let b = run();
    assert_eq!(a.len(), b.len());
    for ((ta, oa), (tb, ob)) in a.iter().zip(&b) {
        assert_eq!(ta, tb, "timings replay identically");
        assert_eq!(oa.result, ob.result);
        assert_eq!(oa.cost, ob.cost);
        assert_eq!(oa.quality, ob.quality);
    }
}

#[test]
fn robustness_sweep_is_bit_deterministic() {
    let config = RobustnessConfig {
        seed: 83,
        rows: 2_000,
        max_groups: 80,
        intensities: [0.0, 0.33, 0.67, 1.0],
        latency_budget: SimDuration::from_millis(100),
        workers: 2,
    };

    ids::obs::enable();
    let capture = || {
        ids::obs::reset_all();
        let report = robustness::run(&config);
        let rec = ids::obs::recorder();
        let trace = ids::obs::chrome_trace_json(&rec.events(), &rec.tracks());
        let metrics = ids::obs::metrics_tsv(&ids::obs::metrics().snapshot());
        (report.render(), metrics, trace)
    };

    let (render_a, metrics_a, trace_a) = capture();
    let (render_b, metrics_b, trace_b) = capture();
    assert_eq!(render_a, render_b, "rendered table is byte-identical");
    assert_eq!(metrics_a, metrics_b, "metrics snapshot is byte-identical");
    assert_eq!(trace_a, trace_b, "exported trace is byte-identical");
    assert!(render_a.contains("Robustness under injected faults"));
    assert!(
        trace_a.contains("chaos") || trace_a.contains("resilience"),
        "fault events appear in the trace"
    );
}
