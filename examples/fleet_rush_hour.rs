//! Fleet rush hour: a burst of sessions hits a shared engine at once.
//!
//! Instead of the experiment's Poisson trickle, every tenant's users
//! arrive in synchronized waves (think Monday 9am dashboards). The same
//! offered stream is served twice — once behind token-bucket admission
//! with prefetch suppression, once with everything admitted — so the
//! printout shows exactly what admission control buys at the tail.
//!
//! ```sh
//! cargo run --release --example fleet_rush_hour [sessions] [waves]
//! ```

use ids::chaos::FaultPlan;
use ids::engine::{Backend, CostParams, DiskBackend, EvictionPolicy};
use ids::report::Table;
use ids::serve::{
    measure_costs, simulate_service, synthesize_fleet, AdmissionPolicy, ArrivalProcess,
    FleetOutcome, FleetSpec, ServeParams,
};
use ids::simclock::{SimDuration, SimTime};
use ids::workload::datasets;

fn main() {
    let mut args = std::env::args().skip(1);
    let sessions: usize = args.next().and_then(|a| a.parse().ok()).unwrap_or(24);
    let waves: usize = args.next().and_then(|a| a.parse().ok()).unwrap_or(3);

    let tenants = 4;
    let rows = 2_000;
    let budget = SimDuration::from_millis(1_000);
    let workers = 4;

    let spec = FleetSpec {
        seed: 42,
        sessions,
        tenants,
        arrival: ArrivalProcess::Bursts {
            count: waves,
            spacing: SimDuration::from_secs_f64(20.0),
            width: SimDuration::from_millis(800),
        },
        max_groups: 8,
        prefetch_rate: 0.25,
    };
    let offered = synthesize_fleet(&spec, 2);
    println!(
        "rush hour: {sessions} sessions across {tenants} tenants in {waves} wave(s), \
         {} queries offered\n",
        offered.len()
    );

    // One shared engine: every tenant's table competes for the same
    // buffer pool, exactly as in `repro --fleet`.
    let scale = datasets::road_domain::ROWS as f64 / rows as f64;
    let mut params = CostParams::disk_default();
    params.tuple_scan_ns = ((params.tuple_scan_ns as f64) * scale).round() as u64;
    params.tuple_agg_ns = ((params.tuple_agg_ns as f64) * scale).round() as u64;
    params.predicate_eval_ns = ((params.predicate_eval_ns as f64) * scale).round() as u64;
    let disk = DiskBackend::with_config(params, 512, EvictionPolicy::Lru);
    let db = disk.database();
    for tenant in 0..tenants {
        db.register(datasets::road_network_named(
            &FleetSpec::tenant_table(tenant),
            spec.seed,
            rows,
        ));
    }

    let plan = FaultPlan::calm(spec.seed);
    let costs = measure_costs(&disk, Some(&disk), &offered, &plan, budget);
    let serve = ServeParams {
        workers,
        latency_budget: budget,
        deadline: false,
        shards: 1,
    };
    let admission = simulate_service(
        &offered,
        &costs,
        &AdmissionPolicy::interactive(3.0, 8),
        &plan,
        &serve,
    );
    let baseline = simulate_service(
        &offered,
        &costs,
        &AdmissionPolicy::unlimited(),
        &plan,
        &serve,
    );

    let mut t = Table::new([
        "condition",
        "admitted",
        "shed",
        "LCV",
        "p50",
        "p99",
        "drained",
    ]);
    for (name, o) in [("admission", &admission), ("open queue", &baseline)] {
        t.row([
            name.to_string(),
            o.admitted.to_string(),
            format!("{:.1}%", 100.0 * o.shed_fraction()),
            format!("{:.1}%", 100.0 * o.lcv.fraction()),
            ms(o.p50),
            ms(o.p99),
            format!(
                "{:.1}s",
                o.drained_at.saturating_since(SimTime::ZERO).as_secs_f64()
            ),
        ]);
    }
    println!("{}", t.section("rush hour: admission vs open queue"));
    summarize(&admission, &baseline);
}

fn ms(d: SimDuration) -> String {
    format!("{}ms", d.as_millis())
}

fn summarize(admission: &FleetOutcome, baseline: &FleetOutcome) {
    if admission.p99 < baseline.p99 {
        println!(
            "\nadmission cut p99 from {} to {} by shedding {:.0}% of the wave",
            ms(baseline.p99),
            ms(admission.p99),
            100.0 * admission.shed_fraction()
        );
    } else {
        println!("\nthe fleet was under capacity — admission had nothing to shed");
    }
}
