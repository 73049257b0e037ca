//! Movie browser: the inertial-scrolling scenario of case study 1.
//!
//! Simulates a panel of users skimming the top-rated movie table on a
//! trackpad, then compares loading strategies (lazy / event fetch / timer
//! fetch) on each user's demand curve, printing the Fig 10 / Table 8
//! style comparison.
//!
//! ```sh
//! cargo run --release --example movie_browser [users] [tuples]
//! ```

use ids::engine::{Backend, DiskBackend, Predicate, Projection, Query};
use ids::opt::loading::{event_fetch, lazy_loading, timer_fetch, LoadingConfig};
use ids::report::Table;
use ids::simclock::SimDuration;
use ids::workload::datasets;
use ids::workload::scrolling::{demand_curve, simulate_study, speed_stats};

fn main() {
    let mut args = std::env::args().skip(1);
    let users: usize = args.next().and_then(|a| a.parse().ok()).unwrap_or(15);
    let tuples: usize = args.next().and_then(|a| a.parse().ok()).unwrap_or(4_000);

    println!("simulating {users} users skimming {tuples} movies...\n");
    let sessions = simulate_study(2026, users, tuples);

    // Behavior analysis (Fig 8 / Fig 9 style).
    let mut behavior = Table::new([
        "user",
        "max speed (tuples/s)",
        "avg speed (tuples/s)",
        "selected",
        "backscrolled",
    ]);
    for s in &sessions {
        let sp = speed_stats(s);
        behavior.row([
            s.user.to_string(),
            format!("{:.0}", sp.max_tuples_per_s),
            format!("{:.1}", sp.avg_tuples_per_s),
            s.selections.len().to_string(),
            s.backscrolled_selections.to_string(),
        ]);
    }
    println!("{}", behavior.render());

    // The backing store: the movie table on the disk-regime backend.
    let backend = DiskBackend::new();
    backend
        .database()
        .register(datasets::movies_sized(2026, tuples));
    let probe = |k: u64| {
        let q = Query::select(
            "imdb",
            vec![
                Projection::title_with_year("title", "year"),
                Projection::column("rating"),
            ],
            Predicate::True,
            Some(k as usize),
            tuples / 2,
        );
        backend.execute(&q).expect("probe").cost
    };

    // Strategy comparison across the Fig 10 fetch sizes.
    let mut table = Table::new([
        "fetch size",
        "lazy: avg wait",
        "event: avg wait",
        "timer: avg wait",
        "timer violations",
    ]);
    for size in [12u64, 30, 58, 80] {
        let cfg = LoadingConfig {
            fetch_size: size,
            fetch_exec: probe(size),
            total_tuples: tuples as u64,
        };
        let mut lazy_w = 0.0;
        let mut event_w = 0.0;
        let mut timer_w = 0.0;
        let mut timer_v = 0usize;
        for s in &sessions {
            let demand = demand_curve(s);
            lazy_w += lazy_loading(&demand, &cfg)
                .avg_violation_wait()
                .as_millis_f64();
            event_w += event_fetch(&demand, &cfg, size)
                .avg_violation_wait()
                .as_millis_f64();
            let t = timer_fetch(&demand, &cfg, SimDuration::from_secs(1));
            timer_w += t.avg_violation_wait().as_millis_f64();
            timer_v += t.lcv(&demand).violations;
        }
        let n = sessions.len() as f64;
        table.row([
            size.to_string(),
            format!("{:.1} ms", lazy_w / n),
            format!("{:.1} ms", event_w / n),
            format!("{:.1} ms", timer_w / n),
            timer_v.to_string(),
        ]);
    }
    println!(
        "loading-strategy comparison (averaged over users):\n{}",
        table.render()
    );
    println!(
        "takeaway: timer fetch reaches zero perceived latency once the chunk\n\
         size covers the population's scrolling speed; event fetch stays at\n\
         roughly one fetch execution regardless of size (Fig 10)."
    );
}
