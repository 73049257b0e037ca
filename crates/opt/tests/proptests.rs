//! Property tests for the behavior-driven optimizations.

use ids_engine::{Backend, ColumnBuilder, CostParams, MemBackend, Predicate, Query, TableBuilder};
use ids_opt::klfilter::HistogramSketch;
use ids_opt::loading::{event_fetch, lazy_loading, timer_fetch, LoadingConfig};
use ids_opt::throttle::AdaptiveThrottle;
use ids_opt::{group_cost, replay, Policy, ReplayOutcome};
use ids_simclock::rng::check;
use ids_simclock::{SimDuration, SimTime};
use ids_workload::crossfilter::QueryGroup;

fn fixed_backend(cost_ms: u64) -> MemBackend {
    let params = CostParams {
        startup_ns: cost_ms.max(1) * 1_000_000,
        page_cold_ns: 0,
        page_hot_ns: 0,
        tuple_scan_ns: 0,
        tuple_agg_ns: 0,
        join_build_ns: 0,
        join_probe_ns: 0,
        row_output_ns: 0,
        predicate_eval_ns: 0,
    };
    let b = MemBackend::with_params(params);
    b.database().register(
        TableBuilder::new("t")
            .column("x", ColumnBuilder::float((0..64).map(|i| i as f64)))
            .build()
            .expect("table"),
    );
    b
}

fn group_stream(intervals_ms: &[u64]) -> Vec<QueryGroup> {
    let mut t = 0u64;
    intervals_ms
        .iter()
        .map(|&dt| {
            t += dt;
            QueryGroup {
                at: SimTime::from_millis(t),
                slider: 0,
                queries: vec![Query::count("t", Predicate::True)],
            }
        })
        .collect()
}

/// Replays `groups` on `backend` under `policy`.
fn run(backend: &MemBackend, groups: &[QueryGroup], policy: Policy<'_>) -> ReplayOutcome {
    replay("t", groups, policy, group_cost(backend)).expect("replay")
}

/// A monotone demand curve from `(dt ms, added tuples)` steps.
fn demand_curve(steps: &[(u64, u64)]) -> Vec<(SimTime, u64)> {
    let (mut t, mut cum) = (0u64, 0u64);
    steps
        .iter()
        .map(|&(dt, dd)| {
            t += dt;
            cum += dd;
            (SimTime::from_millis(t), cum)
        })
        .collect()
}

/// Skip never executes more groups than raw, never loses the last
/// group, and bounds the worst executed latency by raw's worst. Read
/// off the outcome alone, it is Algorithm 1: a group that is not last
/// executes iff its successor was issued after the previous executed
/// group finished. The throttle's admitted groups never wait.
///
/// Intervals start at 0 ms and costs are whole milliseconds, so some
/// successor is issued exactly when the server frees: the tie the rule
/// decides with `≤`.
#[test]
fn skip_dominates_raw() {
    check("skip_dominates_raw", 0..48, |rng| {
        let intervals: Vec<u64> = (0..rng.uniform_usize(1, 80))
            .map(|_| rng.uniform_u64(0, 60))
            .collect();
        let backend = fixed_backend(rng.uniform_u64(1, 120));
        let groups = group_stream(&intervals);
        let raw = run(&backend, &groups, Policy::Raw);
        let skip = run(&backend, &groups, Policy::Skip);
        assert!(skip.executed.len() <= raw.executed.len());
        assert_eq!(skip.issued, groups.len());
        // The stream's final group always executes under skip.
        let last = skip.executed.last().expect("non-empty").tag;
        assert_eq!(last, groups.len() as u64 - 1);
        let mut prev_finish = SimTime::ZERO;
        let mut executed = skip.executed.iter().peekable();
        for (i, next) in groups.iter().skip(1).enumerate() {
            let ran = executed.next_if(|t| t.tag == i as u64);
            assert_eq!(ran.is_some(), next.at > prev_finish, "group {i}");
            prev_finish = ran.map_or(prev_finish, |t| t.finished_at);
        }
        // Stall reaction off and on: neither admits a group that waits.
        let plain = AdaptiveThrottle::new(SimDuration::from_millis(1));
        for mut throttle in [plain.clone(), plain.with_stall_reaction()] {
            let throttled = run(&backend, &groups, Policy::Throttle(&mut throttle)).executed;
            assert!(throttled.iter().all(|t| t.started_at == t.issued_at));
        }
        let worst = |o: &ReplayOutcome| {
            o.executed
                .iter()
                .map(|t| t.latency().as_millis())
                .max()
                .unwrap_or(0)
        };
        assert!(worst(&skip) <= worst(&raw));
    });
}

/// Raw latency is monotone non-decreasing when the backend is slower
/// than the issue rate everywhere.
#[test]
fn raw_cascade_monotone() {
    check("raw_cascade_monotone", 0..48, |rng| {
        let backend = fixed_backend(25); // always slower than max interval
        let intervals: Vec<u64> = (0..rng.uniform_usize(2, 60))
            .map(|_| rng.uniform_u64(1, 20))
            .collect();
        let groups = group_stream(&intervals);
        let raw = run(&backend, &groups, Policy::Raw);
        let lats: Vec<u64> = raw
            .executed
            .iter()
            .map(|t| t.latency().as_millis())
            .collect();
        assert!(lats.windows(2).all(|w| w[1] >= w[0]), "{lats:?}");
    });
}

/// KL threshold monotonicity: a higher threshold never executes more.
#[test]
fn kl_threshold_monotone() {
    check("kl_threshold_monotone", 0..48, |rng| {
        let table = TableBuilder::new("dataroad")
            .column(
                "x",
                ColumnBuilder::float((0..5_000).map(|i| (i % 100) as f64)),
            )
            .column(
                "y",
                ColumnBuilder::float((0..5_000).map(|i| ((i % 100) as f64) / 2.0)),
            )
            .build()
            .expect("table");
        let backend = MemBackend::new();
        backend.database().register(table.clone());
        let sketch = HistogramSketch::new(table, 800, rng.uniform_u64(0, 500));
        let groups: Vec<QueryGroup> = (0..20)
            .map(|i| QueryGroup {
                at: SimTime::from_millis(20 * (i as u64 + 1)),
                slider: 0,
                queries: vec![Query::histogram(
                    "dataroad",
                    ids_engine::BinSpec::new("y", 0.0, 50.0, 10),
                    Predicate::between("x", 0.0, 99.0 - i as f64 * 2.0),
                )],
            })
            .collect();
        let mut prev_executed = usize::MAX;
        for threshold in [0.0, 0.1, 0.3, 1.0, 5.0] {
            let sketch = &sketch;
            let executed = run(&backend, &groups, Policy::Kl { sketch, threshold })
                .executed
                .len();
            assert!(executed <= prev_executed, "threshold {threshold}");
            assert!(executed >= 1, "first group always executes");
            prev_executed = executed;
        }
    });
}

/// The loading invariants for one demand curve and configuration:
/// every strategy's supply is monotone and within the table's capacity,
/// with one wait and one LCV verdict per demand point.
fn loading_invariants_hold(steps: &[(u64, u64)], fetch_size: u64, exec_ms: u64, total: u64) {
    let demand = demand_curve(steps);
    let cfg = LoadingConfig {
        fetch_size,
        fetch_exec: SimDuration::from_millis(exec_ms),
        total_tuples: total,
    };
    for outcome in [
        lazy_loading(&demand, &cfg),
        event_fetch(&demand, &cfg, fetch_size),
        timer_fetch(&demand, &cfg, SimDuration::from_millis(500)),
    ] {
        assert!(outcome
            .supply
            .windows(2)
            .all(|w| w[0].0 <= w[1].0 && w[0].1 <= w[1].1));
        assert!(outcome.supply.iter().all(|&(_, c)| c <= total));
        assert_eq!(outcome.waits.len(), demand.len());
        let lcv = outcome.lcv(&demand);
        assert_eq!(lcv.total, demand.len());
        assert!(lcv.violations <= lcv.total);
    }
}

/// Loading strategies always produce monotone supply and stay within
/// the table's capacity.
#[test]
fn loading_supply_invariants() {
    check("loading_supply_invariants", 0..48, |rng| {
        let steps: Vec<(u64, u64)> = (0..rng.uniform_usize(1, 60))
            .map(|_| (rng.uniform_u64(1, 500), rng.uniform_u64(1, 40)))
            .collect();
        let fetch_size = rng.uniform_u64(1, 120);
        let exec_ms = rng.uniform_u64(1, 200);
        loading_invariants_hold(&steps, fetch_size, exec_ms, rng.uniform_u64(50, 2_000));
    });
}

/// A case of `loading_supply_invariants` once recorded as failing:
/// demand (61 tuples) outruns the table (50), one tuple per fetch.
#[test]
fn loading_supply_invariants_recorded_case() {
    loading_invariants_hold(&[(1, 8), (1, 38), (1, 15)], 1, 1, 50);
}

/// Faster backends never increase loading violations (event fetch).
#[test]
fn faster_fetch_never_hurts() {
    check("faster_fetch_never_hurts", 0..48, |rng| {
        let steps: Vec<(u64, u64)> = (0..rng.uniform_usize(2, 40))
            .map(|_| (rng.uniform_u64(5, 200), rng.uniform_u64(1, 30)))
            .collect();
        let exec_fast = rng.uniform_u64(1, 50);
        let extra = rng.uniform_u64(1, 300);
        let demand = demand_curve(&steps);
        let mk = |exec: u64| LoadingConfig {
            fetch_size: 20,
            fetch_exec: SimDuration::from_millis(exec),
            total_tuples: 5_000,
        };
        let fast = event_fetch(&demand, &mk(exec_fast), 20);
        let slow = event_fetch(&demand, &mk(exec_fast + extra), 20);
        assert!(fast.lcv(&demand).violations <= slow.lcv(&demand).violations);
    });
}
