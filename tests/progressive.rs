//! Integration tests for progressive online aggregation and the
//! deadline-mode scheduler, end to end.
//!
//! Two contracts are checked here rather than in any one crate:
//!
//! - **bit determinism** — the `repro --progressive` tradeoff table
//!   renders byte-identically across runs, and across concurrent runs
//!   from 1/2/4/8 threads (each thread owns its observability state,
//!   and none of it leaks into the numbers; the golden snapshot itself
//!   lives with the other fixtures in `crates/bench/tests/golden/`,
//!   regenerable via `IDS_BLESS=1`);
//! - **zero cost when disabled** — a replay under a non-deadline policy
//!   never touches the progressive machinery: the rigid replay is
//!   byte-identical to its primitives run by hand — each query's
//!   `Backend::execute` outcome, placed by a `WorkerPool` — timing for
//!   timing and outcome for outcome.

use ids::engine::progressive::ProgressiveExecutor;
use ids::engine::scheduler::{
    replay_resilient, IssuedQuery, QueryTiming, ResiliencePolicy, WorkerPool,
};
use ids::engine::{Backend, BinSpec, ColumnBuilder, MemBackend, Predicate, Query, TableBuilder};
use ids::experiments::robustness::{self, ProgressiveConfig};
use ids::simclock::SimTime;

fn config() -> ProgressiveConfig {
    ProgressiveConfig::smoke_test()
}

#[test]
fn tradeoff_table_is_byte_deterministic_across_runs() {
    let a = robustness::run_progressive(&config()).render();
    let b = robustness::run_progressive(&config()).render();
    assert_eq!(a, b, "same config, same bytes");
    assert!(a.contains("Progressive deadline tradeoff"));
}

#[test]
fn tradeoff_table_is_identical_across_thread_counts() {
    // The sweep itself is sequential and the state it leans on (chaos
    // clock, metrics registry, phase tracking) is owned by the thread
    // that runs it. Render the table from 1/2/4/8 threads racing each
    // other — each starting from a fresh clock and registry — and
    // require every copy to match the sequential reference.
    let small = ProgressiveConfig {
        max_groups: 60,
        ..config()
    };
    let reference = robustness::run_progressive(&small).render();
    for threads in [1usize, 2, 4, 8] {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                let c = small;
                std::thread::spawn(move || robustness::run_progressive(&c).render())
            })
            .collect();
        for h in handles {
            let rendered = h.join().expect("sweep thread must not panic");
            assert_eq!(rendered, reference, "at {threads} threads");
        }
    }
}

#[test]
fn deadline_mode_reaches_zero_lcv_in_the_sweep() {
    let report = robustness::run_progressive(&config());
    let fractions = report.deadline_lcv_fractions();
    assert_eq!(
        *fractions.last().unwrap(),
        0.0,
        "the widest budget must be met: {fractions:?}"
    );
    // And the tradeoff is real: some tighter budget produced bounded
    // partial answers rather than violations.
    assert!(report.points.iter().any(|p| p.deadline_partial > 0));
    for p in &report.points {
        assert_eq!(p.bound_violations, 0, "reported bounds must hold");
    }
}

#[test]
fn progressive_machinery_costs_nothing_when_disabled() {
    // A rigid (non-deadline) replay must be byte-identical to its two
    // primitives run by hand — each query's backend outcome, placed by a
    // worker pool — proving the progressive path adds no cost, virtual
    // or otherwise, unless a deadline policy explicitly invokes it.
    let backend = MemBackend::new();
    backend.database().register(
        TableBuilder::new("t")
            .column(
                "x",
                ColumnBuilder::float((0..5_000).map(|i| (i % 173) as f64)),
            )
            .build()
            .unwrap(),
    );
    let stream: Vec<IssuedQuery> = (0..40)
        .map(|i| {
            IssuedQuery::new(
                SimTime::from_millis(5 * i as u64),
                Query::count("t", Predicate::between("x", 10.0, 20.0 + i as f64)),
                i as u64,
            )
        })
        .collect();
    let rigid = replay_resilient(&backend, &stream, 2, &ResiliencePolicy::Rigid).unwrap();
    assert_eq!(rigid.len(), stream.len());
    let mut pool = WorkerPool::new(2);
    for (iq, (timing, outcome)) in stream.iter().zip(&rigid) {
        let plain = backend.execute(&iq.query).unwrap();
        let (_, started_at, finished_at) = pool.assign(iq.issued_at, plain.cost);
        let by_hand = QueryTiming {
            tag: iq.tag,
            issued_at: iq.issued_at,
            started_at,
            finished_at,
        };
        assert_eq!(*timing, by_hand, "timings identical");
        assert_eq!(outcome.result, plain.result, "results identical");
        assert_eq!(outcome.cost, plain.cost, "virtual costs identical");
        assert_eq!(outcome.quality, plain.quality, "qualities identical");
    }
}

#[test]
fn a_refinement_after_the_exact_answer_under_the_same_filter_is_the_cold_one() {
    // The deadline path prepares its selection through the same entry
    // point as the exact executor, so a refinement that follows an exact
    // histogram with the same filter starts from a remembered selection —
    // here one whose exact histogram moved the counts a neighbouring
    // brush left on the column. It must be byte-identical to one prepared
    // on a cold table.
    let backend = || {
        let b = MemBackend::new();
        b.database().register(
            TableBuilder::new("t")
                .column(
                    "x",
                    ColumnBuilder::float((0..5_000).map(|i| (i % 173) as f64)),
                )
                .column("t", ColumnBuilder::float((0..5_000).map(|i| i as f64)))
                .build()
                .unwrap(),
        );
        b
    };
    let filter = Predicate::and([
        Predicate::between("t", 700.0, 4_100.0),
        Predicate::between("x", 10.0, 120.0),
    ]);
    let bins = BinSpec::new("x", 0.0, 173.0, 12);
    let query = Query::histogram("t", bins.clone(), filter.clone());
    let warm = backend();
    let neighbour = Predicate::and([
        Predicate::between("t", 700.0, 4_000.0),
        Predicate::between("x", 10.0, 120.0),
    ]);
    warm.execute(&Query::histogram("t", bins, neighbour))
        .unwrap();
    let exact = warm.execute(&query).unwrap();
    let cold = backend().execute(&query).unwrap();
    assert_eq!(
        (&exact.result, exact.footprint),
        (&cold.result, cold.footprint)
    );
    for other in [query.clone(), Query::count("t", filter)] {
        for budget in [exact.cost.mul_f64(0.3), exact.cost] {
            let refine = |b: &MemBackend| {
                let r =
                    ProgressiveExecutor::new(b.database()).run_bounded(&other, exact.cost, budget);
                format!("{:?}", r.unwrap())
            };
            assert_eq!(
                refine(&warm),
                refine(&backend()),
                "{other} within {budget:?}"
            );
        }
    }
    assert_eq!(warm.execute(&query).unwrap().footprint, exact.footprint);
}
