//! Quickstart: evaluate an interactive backend against a bursty slider
//! workload in five steps — dataset, backend, workload, replay, metrics.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use ids::devices::DeviceKind;
use ids::engine::{Backend, DiskBackend, MemBackend, Predicate, Query};
use ids::metrics::qif::{QifQuadrant, QifReport};
use ids::metrics::selection::{recommend, SystemTraits};
use ids::opt::{group_cost, replay, Policy, ReplayOutcome};
use ids::simclock::SimDuration;
use ids::workload::crossfilter::{leading_groups, CrossfilterUi};
use ids::workload::datasets;

fn main() {
    // 1. A dataset: a synthetic stand-in for the UCI 3-D road network.
    let rows = 120_000;
    let road = datasets::road_network_sized(42, rows);
    println!("dataset: {} rows x {} columns", road.rows(), road.width());

    // 2. Two backends over the same tables: a disk-regime row store and
    //    an in-memory column store (PostgreSQL / MemSQL roles).
    let disk = DiskBackend::new();
    disk.database().register(road.clone());
    let mem = MemBackend::new();
    mem.database().register(road);
    disk.execute(&Query::count("dataroad", Predicate::True))
        .expect("warmup");

    // 3. An interactive workload: one user crossfiltering with a mouse.
    let ui = CrossfilterUi::for_road();
    let groups = leading_groups(&ui, DeviceKind::Mouse, 0, 42, 400);
    println!("workload: {} query groups", groups.len());

    // 4. Replay the stream, raw and with the skip optimization.
    for (name, backend) in [
        ("disk", &disk as &dyn Backend),
        ("mem", &mem as &dyn Backend),
    ] {
        let [raw, skip] = [Policy::Raw, Policy::Skip]
            .map(|p| replay(name, &groups, p, group_cost(backend)).expect("replay"));
        // Violations are reported over all *issued* queries, as in Fig 15.
        let frac = |out: &ReplayOutcome| out.lcv().violations as f64 / out.issued.max(1) as f64;
        println!(
            "{name}: raw LCV {:.1}% | skip LCV {:.1}% (skipped {} stale groups)",
            frac(&raw) * 100.0,
            frac(&skip) * 100.0,
            skip.skipped(),
        );
    }

    // 5. Frontend metrics: QIF and the Fig 3 quadrant.
    let stamps: Vec<_> = groups.iter().map(|g| g.at).collect();
    let qif = QifReport::from_timestamps(&stamps);
    let probe = &groups[..50.min(groups.len())];
    let mean_service = SimDuration::from_millis(
        replay("mem", probe, Policy::Raw, group_cost(&mem))
            .expect("probe")
            .executed
            .iter()
            .map(|t| t.execution().as_millis())
            .sum::<u64>()
            / 50.min(groups.len()).max(1) as u64,
    );
    let quadrant = QifQuadrant::classify(qif.queries_per_second(), mean_service, 40.0);
    println!(
        "QIF: {:.1} queries/s, mean service {} -> {:?}: {}",
        qif.queries_per_second(),
        mean_service,
        quadrant,
        quadrant.guidance()
    );

    // Bonus: what does the paper say this system should measure?
    let plan = recommend(&SystemTraits {
        bursty_queries: true,
        high_frame_rate_device: true,
        large_data: true,
        ..SystemTraits::default()
    });
    let names: Vec<&str> = plan.iter().map(|m| m.name()).collect();
    println!("recommended metrics (Table 3): {}", names.join(", "));
}
