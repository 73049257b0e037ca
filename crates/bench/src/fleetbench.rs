//! The fleet shard-scaling bench behind the `repro --fleet` curve and
//! the `fleet_p99_shard_*` entries of `BENCH_perf.json`.
//!
//! A **weak-scaling** sweep: each shard owns a fixed slice of data and
//! serves a fixed slice of sessions, so growing the fleet 1 → 4 → 16
//! shards grows the deployment to the acceptance scale — 10⁶ concurrent
//! sessions over 10⁸ rows at the top point — while per-shard work stays
//! constant. A scale-out that works shows a *flat* p99 across the
//! sweep: the only thing that grows with the shard count is the
//! scatter-gather coordination term, and the bench gates that creep.
//!
//! Everything is virtual-time deterministic: per-query costs come from
//! the real [`ScatterGather`] executor (slowest shard + coordination)
//! over a seeded table whose per-tuple charges are rescaled so each
//! physical shard prices like its 10⁸⁄16-row virtual slice, and the
//! serving simulation replays a seeded session fleet sampled at a fixed
//! sessions-per-shard ratio. Two runs are byte-identical, so the
//! `golden_perf_quick_report` test holds the curve to the committed
//! `BENCH_perf_quick.json` exactly, like any other committed bench.

use ids_chaos::FaultPlan;
use ids_engine::{BinSpec, ColumnBuilder, CostParams, Database, Predicate, Query, TableBuilder};
use ids_serve::{
    simulate_service, synthesize_fleet, AdmissionPolicy, ArrivalProcess, FleetSpec, ServeParams,
};
use ids_shard::{partition_database, PartitionScheme, ScatterGather};
use ids_simclock::rng::SimRng;
use ids_simclock::SimDuration;

use crate::perf::{fnv1a, BenchReport};

/// Virtual sessions the top (16-shard) point serves.
pub const FLEET_SESSIONS: u64 = 1_000_000;
/// Virtual rows the top (16-shard) point holds.
pub const FLEET_ROWS: u64 = 100_000_000;
/// Shard counts swept, ascending.
pub const SHARD_COUNTS: [usize; 3] = [1, 4, 16];
/// Deterministic seed (fixed: the committed curve must reproduce).
pub const SEED: u64 = 29;

/// Virtual rows each shard owns (10⁸ over 16 shards).
const ROWS_PER_SHARD: u64 = FLEET_ROWS / 16;
/// Virtual sessions each shard serves (10⁶ over 16 shards).
const SESSIONS_PER_SHARD: u64 = FLEET_SESSIONS / 16;
/// Physical rows standing in for one shard's virtual slice.
const PHYS_ROWS_PER_SHARD: usize = 25_000;
/// Sampled sessions standing in for one shard's virtual slice.
const SAMPLE_SESSIONS_PER_SHARD: usize = 128;
/// Sampled worker slots per shard group.
const WORKERS_PER_SHARD: usize = 4;
/// Tenants (divisible by every swept shard count, so tenant → shard
/// group striping is exact).
const TENANTS: usize = 16;
/// Session-arrival mean gap at one shard; a fleet `s×` bigger arrives
/// `s×` faster, keeping per-group load constant (weak scaling).
const BASE_GAP: SimDuration = SimDuration::from_millis(2_000);
/// Per-query latency budget for the LCV accounting.
const BUDGET: SimDuration = SimDuration::from_millis(1_000);

/// One point of the shard-scaling curve.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardPoint {
    /// Shards at this point.
    pub shards: usize,
    /// Virtual sessions this point stands for.
    pub virtual_sessions: u64,
    /// Virtual rows this point stands for.
    pub virtual_rows: u64,
    /// Scatter-gather latency of the representative crossfilter query
    /// (slowest shard + coordination), virtual microseconds.
    pub query_cost_us: u64,
    /// Coordination share of that latency, virtual microseconds.
    pub coordination_us: u64,
    /// Queries the sampled fleet offered.
    pub offered: usize,
    /// Queries admitted.
    pub admitted: usize,
    /// Median admitted interactive latency, virtual microseconds.
    pub p50_us: u64,
    /// 99th-percentile admitted interactive latency, virtual
    /// microseconds.
    pub p99_us: u64,
    /// FNV-1a digest of the merged histogram counts (the byte-identity
    /// gate: sharded answers changing is a test failure).
    pub checksum: u64,
}

/// The seeded fleet table at `shards × PHYS_ROWS_PER_SHARD` rows: a
/// clustered time axis `t` (range partitioning keeps it clustered, so
/// per-shard zone maps prune the brush) and a uniform measure `v`.
fn fleet_table(shards: usize) -> Database {
    let rows = PHYS_ROWS_PER_SHARD * shards;
    let mut rng = SimRng::seed(SEED).split("fleetbench/table");
    let mut t = ColumnBuilder::float([]);
    let mut v = ColumnBuilder::float([]);
    for i in 0..rows {
        t.push_float(i as f64);
        v.push_float(rng.uniform(0.0, 100.0));
    }
    let db = Database::new();
    db.register(
        TableBuilder::new("fleet")
            .column("t", t)
            .column("v", v)
            .build()
            .expect("static schema"),
    );
    db
}

/// The representative crossfilter query: an 80% brush on the *uniform*
/// measure binned over itself — the shape the fleet's sessions issue.
/// Brushing `v` (not the clustered axis) keeps every shard's matched
/// fraction identical, so the slowest-shard cost is constant across
/// shard counts and the curve isolates the coordination term.
fn representative_query() -> Query {
    Query::histogram(
        "fleet",
        BinSpec::new("v", 0.0, 100.0, 20),
        Predicate::between("v", 10.0, 90.0),
    )
}

/// Runs the weak-scaling sweep. Deterministic: two calls return
/// identical points (the sweep is pure, so it is computed once per
/// process and cloned thereafter).
pub fn shard_curve() -> Vec<ShardPoint> {
    use std::sync::OnceLock;
    static CURVE: OnceLock<Vec<ShardPoint>> = OnceLock::new();
    CURVE
        .get_or_init(|| {
            SHARD_COUNTS
                .iter()
                .map(|&shards| shard_point(shards))
                .collect()
        })
        .clone()
}

fn shard_point(shards: usize) -> ShardPoint {
    // Per-query cost: the real scatter-gather executor over range
    // partitions, each shard priced as its 6.25M-row virtual slice.
    let db = fleet_table(shards);
    let parts = partition_database(&db, &PartitionScheme::range("t"), SEED, shards)
        .expect("numeric range column");
    // Each physical row prices like `ROWS_PER_SHARD / PHYS_ROWS_PER_SHARD`
    // virtual ones (same trick as the core experiments).
    let costs =
        CostParams::mem_default().scaled(ROWS_PER_SHARD as f64 / PHYS_ROWS_PER_SHARD as f64);
    let sg = ScatterGather::over(parts).with_costs(costs);
    let out = sg
        .execute(&representative_query())
        .expect("histograms merge");
    let slowest = out
        .per_shard
        .iter()
        .map(|s| s.cost)
        .max()
        .unwrap_or(SimDuration::ZERO);
    let checksum = match &out.result {
        ids_engine::ResultSet::Histogram(h) => fnv1a(h.counts()),
        other => unreachable!("histogram query returned {other:?}"),
    };

    // Fleet sampling: SAMPLE_SESSIONS_PER_SHARD sessions per shard at a
    // pace that quickens with the shard count (a bigger fleet arrives
    // faster), served by WORKERS_PER_SHARD slots per shard group.
    // Arrivals are evenly spaced (one-session bursts) rather than
    // Poisson: tenants stripe round-robin over groups, so every group
    // then sees one session start per `TENANTS × gap` at every shard
    // count, and the curve compares per-group regimes that differ only
    // in session content — not in one group's lucky or unlucky
    // arrival-clump draw.
    let sessions = SAMPLE_SESSIONS_PER_SHARD * shards;
    let gap = SimDuration::from_micros(BASE_GAP.as_micros() / shards as u64);
    let spec = FleetSpec {
        seed: SEED,
        sessions,
        tenants: TENANTS,
        arrival: ArrivalProcess::Bursts {
            count: sessions,
            spacing: gap,
            width: SimDuration::from_millis(250),
        },
        max_groups: 6,
        prefetch_rate: 0.2,
    };
    let offered = synthesize_fleet(&spec, 1);
    let per_query = vec![out.elapsed; offered.len()];
    let params = ServeParams {
        workers: WORKERS_PER_SHARD * shards,
        latency_budget: BUDGET,
        deadline: false,
        shards,
    };
    let outcome = simulate_service(
        &offered,
        &per_query,
        &AdmissionPolicy::unlimited(),
        &FaultPlan::calm(SEED),
        &params,
    );
    ShardPoint {
        shards,
        virtual_sessions: SESSIONS_PER_SHARD * shards as u64,
        virtual_rows: ROWS_PER_SHARD * shards as u64,
        query_cost_us: out.elapsed.as_micros(),
        coordination_us: out.elapsed.as_micros().saturating_sub(slowest.as_micros()),
        offered: offered.len(),
        admitted: outcome.admitted,
        p50_us: outcome.p50.as_micros(),
        p99_us: outcome.p99.as_micros(),
        checksum,
    }
}

/// Wraps the curve as perf-harness reports (`fleet_p99_shard_N`):
/// `virtual_cost_us` is the point's p99, the checksum is the merged
/// histogram digest, and wall fields stay `None` — the perf golden then
/// holds the committed curve byte for byte.
pub fn to_reports(points: &[ShardPoint]) -> Vec<BenchReport> {
    points
        .iter()
        .map(|p| BenchReport {
            name: format!("fleet_p99_shard_{}", p.shards),
            rows_matched: p.admitted as u64,
            checksum: p.checksum,
            virtual_cost_us: p.p99_us,
            ..BenchReport::default()
        })
        .collect()
}

/// Renders the curve as the `repro --fleet` shard-scaling table.
pub fn render(points: &[ShardPoint]) -> String {
    use std::fmt::Write as _;
    let mut s = String::new();
    let _ = writeln!(
        s,
        "Fleet shard scaling (weak scaling: {} sessions / {} rows per shard; \
         top point {}M sessions / {}M rows):",
        SESSIONS_PER_SHARD,
        ROWS_PER_SHARD,
        FLEET_SESSIONS / 1_000_000,
        FLEET_ROWS / 1_000_000,
    );
    let _ = writeln!(
        s,
        "{:>6} {:>12} {:>12} {:>10} {:>10} {:>9} {:>9}",
        "shards", "sessions", "rows", "query", "coord", "p50", "p99"
    );
    for p in points {
        let _ = writeln!(
            s,
            "{:>6} {:>12} {:>12} {:>8}ms {:>8}ms {:>7}ms {:>7}ms",
            p.shards,
            p.virtual_sessions,
            p.virtual_rows,
            p.query_cost_us / 1_000,
            p.coordination_us / 1_000,
            p.p50_us / 1_000,
            p.p99_us / 1_000,
        );
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    fn curve() -> &'static [ShardPoint] {
        use std::sync::OnceLock;
        static CURVE: OnceLock<Vec<ShardPoint>> = OnceLock::new();
        CURVE.get_or_init(shard_curve)
    }

    #[test]
    fn curve_is_deterministic() {
        assert_eq!(curve(), &shard_curve()[..]);
    }

    #[test]
    fn top_point_is_the_acceptance_scale() {
        let top = curve().last().unwrap();
        assert_eq!(top.shards, 16);
        assert_eq!(top.virtual_sessions, FLEET_SESSIONS);
        assert_eq!(top.virtual_rows, FLEET_ROWS);
    }

    #[test]
    fn p99_stays_flat_one_to_sixteen_shards() {
        let p99: Vec<u64> = curve().iter().map(|p| p.p99_us).collect();
        let (one, sixteen) = (p99[0] as f64, p99[2] as f64);
        assert!(
            sixteen <= one * 1.25,
            "p99 must stay flat under weak scaling: {p99:?} (16-shard point \
             more than 25% over the 1-shard point)"
        );
        assert!(
            sixteen >= one * 0.75,
            "suspiciously collapsing p99 under weak scaling: {p99:?}"
        );
    }

    #[test]
    fn coordination_grows_but_stays_minor() {
        let pts = curve();
        assert!(pts
            .windows(2)
            .all(|w| w[1].coordination_us > w[0].coordination_us));
        for p in pts {
            assert!(
                p.coordination_us * 2 < p.query_cost_us,
                "coordination must not dominate at {} shards: {}us of {}us",
                p.shards,
                p.coordination_us,
                p.query_cost_us
            );
        }
    }

    #[test]
    fn render_lists_every_point() {
        let text = render(curve());
        for p in curve() {
            assert!(text.contains(&format!("{:>6}", p.shards)));
        }
        assert!(text.contains("1000000"), "{text}");
        assert!(text.contains("100000000"), "{text}");
    }
}
