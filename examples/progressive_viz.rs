//! Progressive visualization: online-aggregation-style refinement with
//! the accuracy/latency trade-off the paper's metrics catalog describes.
//!
//! A histogram over the full road network is answered progressively:
//! each refinement consumes more rows, costs more virtual time, and gets
//! closer to the exact answer — the Incvisage contract ("I've seen
//! enough": the user can stop whenever the shape has stabilized).
//!
//! ```sh
//! cargo run --release --example progressive_viz [rows]
//! ```

use ids::engine::progressive::{refinement_error, ProgressiveExecutor};
use ids::engine::{Backend, BinSpec, Database, MemBackend, Predicate, Query};
use ids::metrics::accuracy::scored_accuracy;
use ids::report::{sparkline, Table};
use ids::simclock::SimDuration;
use ids::workload::datasets;

fn main() {
    let rows: usize = std::env::args()
        .nth(1)
        .and_then(|a| a.parse().ok())
        .unwrap_or(200_000);
    let db = Database::new();
    db.register(datasets::road_network_sized(5, rows));

    let query = Query::histogram(
        "dataroad",
        BinSpec::new(
            "y",
            datasets::road_domain::Y_MIN,
            datasets::road_domain::Y_MAX,
            20,
        ),
        Predicate::between("x", 8.5, 10.8),
    );
    let exact = MemBackend::over(db.clone())
        .execute(&query)
        .expect("exact")
        .result;

    let refinements = ProgressiveExecutor::new(db)
        .run(&query)
        .expect("progressive");
    let mut t = Table::new([
        "sample",
        "elapsed",
        "rmse/bin",
        "±bound",
        "ci width",
        "histogram shape",
    ]);
    for r in &refinements {
        let hist = r.estimate.histogram().expect("histogram query");
        let shape: Vec<f64> = hist.counts().iter().map(|&c| c as f64).collect();
        let max_ci = r
            .intervals
            .iter()
            .map(|ci| ci.width())
            .fold(0.0f64, f64::max);
        t.row([
            format!("{:.1}%", r.fraction * 100.0),
            format!("{:.2} ms", r.elapsed.as_millis_f64()),
            format!("{:.0}", refinement_error(&r.estimate, &exact).sqrt()),
            format!("{:.0}", r.error_bound),
            format!("{:.0}", max_ci),
            sparkline(&shape),
        ]);
    }
    println!("{}", t.render());

    // The accuracy-vs-time trade-off as a single score (Incvisage-style
    // scored accuracy): answering from the 4% sample scores better than
    // waiting for the exact answer, because it lands so much earlier.
    let total = exact.histogram().expect("histogram").total() as f64;
    for r in [&refinements[2], refinements.last().expect("non-empty")] {
        let est_total = r.estimate.histogram().expect("histogram").total() as f64;
        let score = scored_accuracy(
            est_total,
            total,
            r.elapsed,
            total * 0.05,
            SimDuration::from_millis(30),
        );
        println!(
            "answer at {:>5.1}% sample ({}): scored accuracy {:.3}",
            r.fraction * 100.0,
            r.elapsed,
            score
        );
    }
}
