//! Ablations for the design choices DESIGN.md calls out: the KL
//! threshold, event-fetch lookahead, buffer-pool size and policy, Markov
//! prefetch depth, and adaptive QIF throttling. Each prints its sweep
//! table, then a few representative configurations are timed.

use criterion::Criterion;
use ids_devices::DeviceKind;
use ids_engine::{Backend, CostParams, DiskBackend, EvictionPolicy, MemBackend, Predicate, Query};
use ids_opt::klfilter::{replay_kl, HistogramSketch};
use ids_opt::loading::{event_fetch, LoadingConfig};
use ids_opt::prefetch::{evaluate_tile_strategy, MarkovPrefetcher, TileStrategy};
use ids_simclock::SimDuration;
use ids_workload::composite::{simulate_study, CompositeConfig};
use ids_workload::crossfilter::{compile_query_groups, simulate_session, CrossfilterUi};
use ids_workload::datasets;
use ids_workload::scrolling::{demand_curve, simulate_session as scroll_session};

fn kl_threshold_sweep() {
    println!("Ablation: KL threshold vs executed groups and LCV");
    let rows = 30_000;
    let road = datasets::road_network_sized(72, rows);
    let mem = MemBackend::new();
    mem.database().register(road.clone());
    let ui = CrossfilterUi::for_road();
    let session = simulate_session(DeviceKind::LeapMotion, 0, 72, &ui);
    let mut groups = compile_query_groups(&ui, &session.trace);
    groups.truncate(600);
    let sketch = HistogramSketch::new(road, 2_000, 72);
    println!(
        "{:>10} {:>10} {:>10} {:>8}",
        "threshold", "executed", "skipped", "lcv"
    );
    for threshold in [0.0, 0.05, 0.1, 0.2, 0.5, 1.0] {
        let out = replay_kl(&mem, &groups, &sketch, threshold).expect("replay");
        println!(
            "{threshold:>10.2} {:>10} {:>10} {:>7.1}%",
            out.executed().len(),
            out.skipped(),
            out.lcv().fraction() * 100.0
        );
    }
    println!();
}

fn lookahead_sweep() {
    println!("Ablation: event-fetch lookahead vs violations");
    let session = scroll_session(0, 61, 1_200);
    let demand = demand_curve(&session);
    println!(
        "{:>10} {:>12} {:>12}",
        "lookahead", "violations", "avg wait ms"
    );
    for lookahead in [0u64, 6, 12, 24, 48, 96] {
        let cfg = LoadingConfig {
            fetch_size: 30,
            fetch_exec: SimDuration::from_millis(80),
            total_tuples: 1_200,
        };
        let out = event_fetch(&demand, &cfg, lookahead);
        println!(
            "{lookahead:>10} {:>12} {:>12.1}",
            out.lcv(&demand).violations,
            out.avg_violation_wait().as_millis_f64()
        );
    }
    println!();
}

fn pool_sweep() {
    println!("Ablation: buffer-pool pages x policy vs hit rate (repeated scans)");
    let road = datasets::road_network_sized(7, 120_000);
    println!("{:>8} {:>8} {:>10}", "pages", "policy", "hit rate");
    for policy in [EvictionPolicy::Lru, EvictionPolicy::Fifo] {
        for pages in [64usize, 256, 1_024, 4_096] {
            let disk = DiskBackend::with_config(CostParams::disk_default(), pages, policy);
            disk.database().register(road.clone());
            let q = Query::count("dataroad", Predicate::True);
            for _ in 0..4 {
                disk.execute(&q).expect("scan");
            }
            println!(
                "{pages:>8} {:>8} {:>9.1}%",
                format!("{policy:?}"),
                disk.pool_stats().hit_rate() * 100.0
            );
        }
    }
    println!();
}

fn markov_depth_sweep() {
    println!("Ablation: Markov prefetch depth vs tile hit rate");
    let sessions = simulate_study(
        83,
        8,
        &CompositeConfig {
            min_duration: SimDuration::from_secs(600),
            request_model: None,
        },
    );
    let mut model = MarkovPrefetcher::new();
    model.train_sessions(&sessions);
    println!("{:>8} {:>10}", "top_k", "hit rate");
    let demand = evaluate_tile_strategy(&sessions, &model, TileStrategy::DemandOnly, 512);
    println!("{:>8} {:>9.1}%", "none", demand.hit_rate() * 100.0);
    for top_k in [1usize, 2, 3, 6] {
        let hit = evaluate_tile_strategy(&sessions, &model, TileStrategy::Markov { top_k }, 512);
        println!("{top_k:>8} {:>9.1}%", hit.hit_rate() * 100.0);
    }
    println!();
}

fn throttle_demo() {
    use ids_opt::throttle::AdaptiveThrottle;
    println!("Ablation: adaptive QIF throttling (Fig 3 'overwhelmed backend')");
    // A slow (disk-regime) backend facing a Leap Motion event stream.
    let rows = 150_000;
    let road = datasets::road_network_sized(72, rows);
    let disk = DiskBackend::new();
    disk.database().register(road);
    disk.execute(&Query::count("dataroad", Predicate::True))
        .expect("warmup");
    let ui = CrossfilterUi::for_road();
    let session = simulate_session(DeviceKind::LeapMotion, 1, 72, &ui);
    let mut groups = compile_query_groups(&ui, &session.trace);
    groups.truncate(800);
    let mut throttle = AdaptiveThrottle::new(SimDuration::from_millis(5));
    let admitted = throttle.filter_stream(&groups, |g| {
        g.queries
            .iter()
            .map(|q| disk.execute(q).expect("query").cost)
            .max()
            .unwrap_or(SimDuration::ZERO)
    });
    let (kept, dropped) = throttle.counts();
    println!(
        "issued {} -> admitted {} / dropped {} (service estimate {})
",
        groups.len(),
        kept,
        dropped,
        throttle.estimate()
    );
    let _ = admitted;
}

fn benches(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablations");
    group.sample_size(10);
    group.measurement_time(std::time::Duration::from_secs(3));
    group.warm_up_time(std::time::Duration::from_secs(1));

    let road = datasets::road_network_sized(72, 30_000);
    let mem = MemBackend::new();
    mem.database().register(road.clone());
    let ui = CrossfilterUi::for_road();
    let session = simulate_session(DeviceKind::Mouse, 0, 72, &ui);
    let mut groups = compile_query_groups(&ui, &session.trace);
    groups.truncate(120);

    let sketch = HistogramSketch::new(road, 2_000, 72);
    for threshold in [0.0f64, 0.2, 1.0] {
        group.bench_function(format!("replay_kl_{threshold:.1}"), |b| {
            b.iter(|| replay_kl(&mem, &groups, &sketch, threshold).expect("replay"));
        });
    }
    group.finish();
}

fn main() {
    kl_threshold_sweep();
    lookahead_sweep();
    pool_sweep();
    markov_depth_sweep();
    throttle_demo();
    let mut criterion = Criterion::default().configure_from_args();
    benches(&mut criterion);
    criterion.final_summary();
}
