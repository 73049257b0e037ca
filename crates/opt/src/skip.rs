//! Unit tests of [`replay`](crate::replay()) under the raw and Skip
//! policies.

mod tests {
    use crate::replay::{group_cost, replay, Policy, ReplayOutcome};
    use ids_engine::{
        Backend, ColumnBuilder, CostParams, MemBackend, Predicate, Query, TableBuilder,
    };
    use ids_simclock::SimTime;
    use ids_workload::crossfilter::QueryGroup;

    fn fixed_backend(cost_ms: u64) -> MemBackend {
        let params = CostParams {
            startup_ns: cost_ms * 1_000_000,
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
                .column("x", ColumnBuilder::float((0..10).map(|i| i as f64)))
                .build()
                .unwrap(),
        );
        b
    }

    fn groups(interval_ms: u64, n: usize) -> Vec<QueryGroup> {
        (0..n)
            .map(|i| QueryGroup {
                at: SimTime::from_millis(interval_ms * (i as u64 + 1)),
                slider: 0,
                queries: vec![Query::count("t", Predicate::True)],
            })
            .collect()
    }

    fn run(b: &MemBackend, groups: &[QueryGroup], policy: Policy<'_>) -> ReplayOutcome {
        replay(b.name(), groups, policy, group_cost(b)).unwrap()
    }

    #[test]
    fn raw_executes_everything_fifo() {
        let b = fixed_backend(50);
        let out = run(&b, &groups(10, 5), Policy::Raw);
        assert_eq!(out.skipped(), 0);
        assert_eq!(out.executed.len(), 5);
        // Latency cascades: each later group waits longer.
        let lats: Vec<u64> = out
            .executed
            .iter()
            .map(|t| t.latency().as_millis())
            .collect();
        assert!(lats.windows(2).all(|w| w[0] <= w[1]), "{lats:?}");
        assert_eq!(lats[0], 50);
        assert_eq!(lats[4], 50 * 5 - 4 * 10);
    }

    #[test]
    fn skip_drops_stale_groups_and_bounds_latency() {
        let b = fixed_backend(50);
        let out = run(&b, &groups(10, 20), Policy::Skip);
        assert!(out.skipped() > 0, "a slow backend must skip");
        // Executed groups have bounded latency (~ one execution).
        for t in &out.executed {
            assert!(
                t.latency().as_millis() <= 60,
                "latency {} ms",
                t.latency().as_millis()
            );
        }
        // Everything issued is accounted for.
        assert_eq!(out.issued, 20);
    }

    #[test]
    fn skip_on_fast_backend_executes_everything() {
        let b = fixed_backend(2);
        let out = run(&b, &groups(10, 10), Policy::Skip);
        assert_eq!(out.skipped(), 0);
    }

    #[test]
    fn skip_reduces_lcv_fraction() {
        let b = fixed_backend(80);
        let gs = groups(20, 30);
        let raw = run(&b, &gs, Policy::Raw);
        let skip = run(&b, &gs, Policy::Skip);
        assert!(
            skip.lcv().fraction() <= raw.lcv().fraction(),
            "skip {:.2} vs raw {:.2}",
            skip.lcv().fraction(),
            raw.lcv().fraction()
        );
        assert!(
            raw.lcv().fraction() > 0.8,
            "slow raw should violate heavily"
        );
    }

    #[test]
    fn group_cost_is_max_of_members() {
        // Two identical queries in a group: group latency equals one
        // query's latency (parallel connections), not their sum.
        let b = fixed_backend(40);
        let g = vec![QueryGroup {
            at: SimTime::from_millis(1),
            slider: 0,
            queries: vec![
                Query::count("t", Predicate::True),
                Query::count("t", Predicate::True),
            ],
        }];
        let out = run(&b, &g, Policy::Raw);
        assert_eq!(out.executed[0].latency().as_millis(), 40);
    }

    #[test]
    fn latency_series_covers_executed_groups() {
        let b = fixed_backend(50);
        let out = run(&b, &groups(10, 12), Policy::Skip);
        let series = out.latency_series();
        assert_eq!(series.len(), out.executed.len());
        assert!(series.windows(2).all(|w| w[0].0 <= w[1].0));
    }

    #[test]
    fn empty_stream() {
        let b = fixed_backend(10);
        let out = run(&b, &[], Policy::Raw);
        assert!(out.executed.is_empty());
        assert_eq!(out.lcv().total, 0);
    }
}
