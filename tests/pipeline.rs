//! Cross-crate integration tests: the full case-study pipelines at
//! reduced scale, exercising workload → engine → optimizer → metrics
//! through the public facade.

use ids::devices::DeviceKind;
use ids::engine::{Backend, Database, DiskBackend, MemBackend, Predicate, Query};
use ids::experiments::{case1, case2, case3};
use ids::metrics::Metric;
use ids::opt::klfilter::HistogramSketch;
use ids::opt::{group_cost, replay, Policy};
use ids::simclock::SimDuration;
use ids::workload::crossfilter::{leading_groups, CrossfilterUi};
use ids::workload::datasets;

#[test]
fn case1_pipeline_reproduces_paper_shapes() {
    let report = case1::run(&case1::Case1Config::smoke_test());
    // Fig 7: two orders of magnitude between inertial and plain deltas.
    let (inertial, plain) = report.fig7_peaks;
    assert!(inertial / plain > 30.0);
    // Table 8 shape: event fetch violates for ~every user at every size,
    // timer fetch recovers with larger chunks.
    let last_timer = report.timer.last().unwrap();
    let first_timer = report.timer.first().unwrap();
    assert!(last_timer.total_violations <= first_timer.total_violations);
    assert!(report
        .event
        .iter()
        .all(|p| p.violating_users >= report.config.users - 1));
}

#[test]
fn case2_pipeline_reproduces_paper_shapes() {
    let report = case2::run(&case2::Case2Config::smoke_test());
    // Fig 13: the mem backend is interactive under every strategy.
    for device in case2::DEVICES {
        for opt in case2::OPTS {
            let c = report.condition("mem", opt, device).unwrap();
            assert!(
                c.median_latency_ms() < 100.0,
                "mem {opt} {device}: {}",
                c.median_latency_ms()
            );
        }
    }
    // Fig 15: raw disk violates massively; optimizations help.
    let disk_raw = report.lcv_fraction("disk", "raw").unwrap();
    assert!(disk_raw > 0.8);
    assert!(report.lcv_fraction("disk", "skip").unwrap() < disk_raw);
    assert!(report.lcv_fraction("disk", "kl>0.2").unwrap() < disk_raw);
    // Mem raw violates some but far less; KL>0 roughly halves it.
    let mem_raw = report.lcv_fraction("mem", "raw").unwrap();
    let mem_kl0 = report.lcv_fraction("mem", "kl>0").unwrap();
    assert!(mem_raw < disk_raw);
    assert!(mem_kl0 < mem_raw, "KL>0 should cut mem violations");
}

#[test]
fn case3_pipeline_reproduces_paper_shapes() {
    let report = case3::run(&case3::Case3Config::smoke_test());
    let map_share = report
        .widget_pct
        .iter()
        .find(|&&(w, _)| w == ids::workload::composite::Widget::Map)
        .unwrap()
        .1;
    assert!(map_share > 45.0, "map dominates: {map_share:.1}%");
    assert!(report.prefetchable_queries() > 5.0);
    let (markov, demand) = report.tile_hit_rates;
    assert!(markov >= demand);
}

#[test]
fn shared_database_backends_agree_on_answers() {
    let db = Database::new();
    db.register(datasets::road_network_sized(5, 30_000));
    let disk = DiskBackend::over(db.clone());
    let mem = MemBackend::over(db);

    let ui = CrossfilterUi::for_road();
    let groups = leading_groups(&ui, DeviceKind::Touch, 0, 5, 20);
    for g in &groups {
        for q in &g.queries {
            let a = disk.execute(q).expect("disk");
            let b = mem.execute(q).expect("mem");
            assert_eq!(a.result, b.result, "backends disagree on {q}");
            assert!(a.cost > b.cost, "disk must charge more virtual time");
        }
    }
}

#[test]
fn optimizations_never_change_executed_results() {
    // The KL filter drops queries but executed ones must be exact.
    let db = Database::new();
    let road = datasets::road_network_sized(9, 20_000);
    db.register(road.clone());
    let mem = MemBackend::over(db);
    let ui = CrossfilterUi::for_road();
    let groups = leading_groups(&ui, DeviceKind::Mouse, 1, 9, 60);

    let sketch = HistogramSketch::new(road, 1_500, 9);
    let kl_policy = Policy::Kl {
        sketch: &sketch,
        threshold: 0.2,
    };
    let [raw, kl, skip] = [Policy::Raw, kl_policy, Policy::Skip]
        .map(|p| replay("mem", &groups, p, group_cost(&mem)).expect("replay"));

    // Executed sets are subsets of the issued stream.
    assert!(kl.executed.len() <= raw.executed.len());
    assert!(skip.executed.len() <= raw.executed.len());
    // Every executed group's timing is within the raw stream's bounds.
    for t in &kl.executed {
        assert!(t.finished_at >= t.started_at);
        assert!(t.started_at >= t.issued_at);
    }
}

#[test]
fn end_to_end_metric_plan_for_each_case_study() {
    use ids::metrics::selection::{recommend, SystemTraits};
    // Case study 2's traits must yield both novel metrics.
    let plan = recommend(&SystemTraits {
        bursty_queries: true,
        high_frame_rate_device: true,
        large_data: true,
        ..SystemTraits::default()
    });
    assert!(plan.contains(&Metric::LatencyConstraintViolation));
    assert!(plan.contains(&Metric::QueryIssuingFrequency));
    // Case study 1 (task-based browsing): latency always included.
    let plan1 = recommend(&SystemTraits {
        task_based: true,
        bursty_queries: true,
        ..SystemTraits::default()
    });
    assert!(plan1.contains(&Metric::Latency));
    assert!(plan1.contains(&Metric::TaskCompletionTime));
}

#[test]
fn registry_artifacts_match_experiment_renderers() {
    use ids::registry::{find, ArtifactKind};
    // Every case-study artifact the registry claims is regenerable
    // actually renders non-trivially.
    let c1 = case1::run(&case1::Case1Config::smoke_test());
    let c3 = case3::run(&case3::Case3Config::smoke_test());
    for (num, text) in [
        ("7", c1.render_table7()),
        ("8", c1.render_table8()),
        ("9", c3.render_table9()),
        ("10", c3.render_table10()),
    ] {
        assert!(find(ArtifactKind::Table, num).is_some());
        assert!(text.lines().count() >= 3, "table {num} renders");
    }
}

#[test]
fn virtual_time_is_wall_clock_independent() {
    // Two runs of the same experiment produce byte-identical latency
    // numbers even though wall time differs.
    let a = case2::run(&case2::Case2Config::smoke_test());
    std::thread::sleep(std::time::Duration::from_millis(50));
    let b = case2::run(&case2::Case2Config::smoke_test());
    for (x, y) in a.conditions.iter().zip(b.conditions.iter()) {
        assert_eq!(x.latency_series, y.latency_series);
        assert_eq!(x.lcv_fraction, y.lcv_fraction);
    }
}

#[test]
fn disk_cost_scales_with_data_size() {
    // Scalability sanity: double the rows, roughly double the scan cost.
    let cost_at = |rows: usize| {
        let disk = DiskBackend::new();
        disk.database()
            .register(datasets::road_network_sized(3, rows));
        let q = Query::count("dataroad", Predicate::True);
        disk.execute(&q).expect("warm");
        disk.execute(&q).expect("measure").cost
    };
    let small = cost_at(20_000);
    let large = cost_at(80_000);
    let ratio = large.as_secs_f64() / small.as_secs_f64();
    assert!((2.5..6.0).contains(&ratio), "ratio {ratio:.2}");
    assert!(small > SimDuration::from_millis(1));
}
