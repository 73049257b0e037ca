//! Travel explorer: the composite-interface scenario of case study 3.
//!
//! Simulates users exploring an accommodation site through map, slider,
//! checkbox and text-box widgets; analyzes their behavior (widget mix,
//! zoom dwell, filter accretion, request vs exploration time); and shows
//! how the analysis feeds a Markov tile prefetcher.
//!
//! ```sh
//! cargo run --release --example travel_explorer [users]
//! ```

use ids::opt::prefetch::{evaluate_tile_strategy, zoom_budget, MarkovPrefetcher, TileStrategy};
use ids::report::{pct, Table};
use ids::simclock::SimDuration;
use ids::workload::composite::{filter_counts, phase_times, simulate_study, widget_percentages};

fn main() {
    let users: usize = std::env::args()
        .nth(1)
        .and_then(|a| a.parse().ok())
        .unwrap_or(15);
    println!("simulating {users} exploration sessions (>= 20 min each)...\n");
    let sessions = simulate_study(7, users, SimDuration::from_secs(20 * 60));

    // Widget mix (Table 9).
    let mut t = Table::new(["widget", "share"]);
    for (w, p) in widget_percentages(&sessions) {
        t.row([w.label(), &format!("{p:.1}%")]);
    }
    println!("{}", t.render());

    // Filter accretion (Fig 20) and phase times (Fig 21).
    let counts = filter_counts(&sessions);
    let le4 = counts.iter().filter(|&&c| c <= 4.0).count() as f64 / counts.len() as f64;
    let (req, exp) = phase_times(&sessions);
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
    println!("P(filters <= 4) = {}", pct(le4));
    println!(
        "mean request {:.2}s vs mean exploration {:.2}s -> ~{:.0} prefetchable queries\n",
        mean(&req),
        mean(&exp),
        mean(&exp) / mean(&req)
    );

    // Prefetching: Markov model trained on half the users, evaluated on
    // the other half (no peeking).
    let (train, eval) = sessions.split_at(users / 2);
    let mut model = MarkovPrefetcher::new();
    model.train_sessions(train);
    let demand = evaluate_tile_strategy(eval, &model, TileStrategy::DemandOnly, 512);
    let markov = evaluate_tile_strategy(eval, &model, TileStrategy::Markov { top_k: 2 }, 512);
    println!(
        "tile hit rate: demand-only {} -> with Markov prefetch {}",
        pct(demand.hit_rate()),
        pct(markov.hit_rate())
    );
    let mut budget = Table::new(["zoom", "precompute budget"]);
    for (z, share) in zoom_budget(&sessions) {
        budget.row([z.to_string(), pct(share)]);
    }
    println!("{}", budget.render());
}
