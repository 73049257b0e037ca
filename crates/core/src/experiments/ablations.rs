//! Ablations of five design choices, beyond the paper: the KL
//! threshold, event-fetch lookahead, buffer-pool size and eviction
//! policy, Markov prefetch depth, and adaptive QIF throttling.
//!
//! Every sweep runs at one fixed size on the virtual clock, so the
//! rendered tables are a pure function of the code (`repro --ablations`;
//! golden `ablations_table.txt`, which EXPERIMENTS.md quotes).

use ids_devices::DeviceKind;
use ids_engine::{
    Backend, CostParams, Database, DiskBackend, EvictionPolicy, Predicate, Query, Table as Rows,
};
use ids_opt::klfilter::HistogramSketch;
use ids_opt::loading::{event_fetch, LoadingConfig};
use ids_opt::prefetch::{evaluate_tile_strategy, MarkovPrefetcher, TileStrategy};
use ids_opt::throttle::AdaptiveThrottle;
use ids_opt::{group_cost, replay, Policy, ReplayOutcome};
use ids_simclock::SimDuration;
use ids_workload::composite::simulate_study;
use ids_workload::crossfilter::{leading_groups, CrossfilterUi, QueryGroup};
use ids_workload::datasets;
use ids_workload::scrolling;

use crate::report::{pct, Table};

/// Seed of the crossfilter sweeps (case study 2's).
const SEED: u64 = 72;

/// The road table of the crossfilter sweeps.
fn road() -> Rows {
    datasets::road_network_sized(SEED, 10_000)
}

/// A warm disk backend over `road`, its per-tuple charges scaled so the
/// table prices like the full 434,874-row road network (case study 2's
/// 150–500 ms regime).
fn disk_regime(road: Rows) -> DiskBackend {
    let k = datasets::road_domain::ROWS as f64 / road.rows() as f64;
    let db = Database::new();
    db.register(road);
    let disk = DiskBackend::over_with(db, CostParams::disk_default().scaled(k));
    disk.execute(&Query::count("dataroad", Predicate::True))
        .expect("warmup");
    disk
}

/// Replays `groups` on `disk` under `policy`.
fn replay_on(disk: &DiskBackend, groups: &[QueryGroup], policy: Policy<'_>) -> ReplayOutcome {
    replay(disk.name(), groups, policy, group_cost(disk)).expect("replay")
}

/// The first `max_groups` query groups of one Leap Motion session.
fn leap_groups(user: usize, max_groups: usize) -> Vec<QueryGroup> {
    let ui = CrossfilterUi::for_road();
    leading_groups(&ui, DeviceKind::LeapMotion, user, SEED, max_groups)
}

fn kl_threshold() -> Table {
    let road = road();
    let disk = disk_regime(road.clone());
    let groups = leap_groups(0, 600);
    let sketch = HistogramSketch::new(road, 1_000, SEED);
    let mut t = Table::new(["threshold", "executed", "skipped", "violations", "lcv"]);
    for threshold in [0.0, 0.05, 0.1, 0.2, 0.5, 1.0] {
        let sketch = &sketch;
        let out = replay_on(&disk, &groups, Policy::Kl { sketch, threshold });
        let violations = out.lcv().violations;
        t.row([
            format!("{threshold:.2}"),
            out.executed.len().to_string(),
            out.skipped().to_string(),
            violations.to_string(),
            // Of issued groups, as in Fig 15.
            pct(violations as f64 / groups.len() as f64),
        ]);
    }
    t
}

fn fetch_lookahead() -> Table {
    let demand = scrolling::demand_curve(&scrolling::simulate_session(0, 61, 1_200));
    let cfg = LoadingConfig {
        fetch_size: 30,
        fetch_exec: SimDuration::from_millis(80),
        total_tuples: 1_200,
    };
    let mut t = Table::new(["lookahead", "violations", "avg wait (ms)"]);
    for lookahead in [0u64, 6, 12, 24, 48, 96] {
        let out = event_fetch(&demand, &cfg, lookahead);
        t.row([
            lookahead.to_string(),
            out.lcv(&demand).violations.to_string(),
            format!("{:.1}", out.avg_violation_wait().as_millis_f64()),
        ]);
    }
    t
}

fn pool_policy() -> Table {
    let road = datasets::road_network_sized(7, 120_000);
    let hit_rate = |pages: usize, policy: EvictionPolicy| {
        let disk = DiskBackend::with_config(CostParams::disk_default(), pages, policy);
        disk.database().register(road.clone());
        let q = Query::count("dataroad", Predicate::True);
        for _ in 0..4 {
            disk.execute(&q).expect("scan");
        }
        pct(disk.pool_stats().hit_rate())
    };
    let mut t = Table::new(["pool pages", "lru hit rate", "fifo hit rate"]);
    for pages in [64usize, 256, 1_024, 4_096] {
        t.row([
            pages.to_string(),
            hit_rate(pages, EvictionPolicy::Lru),
            hit_rate(pages, EvictionPolicy::Fifo),
        ]);
    }
    t
}

fn markov_depth() -> Table {
    let sessions = simulate_study(83, 8, SimDuration::from_secs(600));
    let mut model = MarkovPrefetcher::new();
    model.train_sessions(&sessions);
    let hit_rate =
        |strategy| pct(evaluate_tile_strategy(&sessions, &model, strategy, 512).hit_rate());
    let mut t = Table::new(["top_k", "tile hit rate"]);
    t.row(["none".to_string(), hit_rate(TileStrategy::DemandOnly)]);
    for top_k in [1usize, 2, 3, 6] {
        t.row([top_k.to_string(), hit_rate(TileStrategy::Markov { top_k })]);
    }
    t
}

fn qif_throttle() -> Table {
    let disk = disk_regime(road());
    let groups = leap_groups(1, 800);
    let mut throttle = AdaptiveThrottle::new(SimDuration::from_millis(5));
    let out = replay_on(&disk, &groups, Policy::Throttle(&mut throttle));
    let mut t = Table::new(["issued", "admitted", "dropped", "service estimate (ms)"]);
    t.row([
        groups.len().to_string(),
        out.executed.len().to_string(),
        out.skipped().to_string(),
        format!("{:.1}", throttle.estimate().as_millis_f64()),
    ]);
    t
}

/// Runs the five sweeps and renders their tables.
pub fn render() -> String {
    let _p = ids_obs::phase("ablations");
    [
        (
            "KL threshold vs executed groups and LCV (Leap Motion, disk regime)",
            kl_threshold(),
        ),
        (
            "event-fetch lookahead vs violations (30-tuple fetches of 80 ms)",
            fetch_lookahead(),
        ),
        (
            "buffer-pool pages x policy vs hit rate (four full scans)",
            pool_policy(),
        ),
        (
            "Markov prefetch depth vs tile hit rate (512-tile cache)",
            markov_depth(),
        ),
        (
            "adaptive QIF throttling (Leap Motion stream, disk regime)",
            qif_throttle(),
        ),
    ]
    .iter()
    .map(|(title, table)| format!("Ablation: {title}\n{}\n", table.render()))
    .collect()
}
