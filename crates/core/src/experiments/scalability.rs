//! Scalability and throughput: the Section 3.1.1 backend metrics,
//! demonstrated the way the paper demonstrates them.
//!
//! Three sweeps over the simulated cluster ([`ids_shard::ShardedCluster`]
//! under round-robin row partitioning):
//!
//! - **node sweep** (the DICE Fig 7 discussion): execution time vs
//!   server count — near-linear speedup to a knee, diminishing returns
//!   after, located by
//!   [`ScalabilityCurve::diminishing_returns_knee`](ids_metrics::throughput::ScalabilityCurve);
//! - **dimension sweep** (the DICE Fig 6 discussion): adding `WHERE`
//!   conditions shrinks the data each operator touches, but the cost of
//!   evaluating the extra conditions eventually dominates the benefit
//!   of selectivity;
//! - **throughput sweep** (the Atlas measurement): queries per second vs
//!   server count.

use ids_engine::{Database, Predicate, Query};
use ids_metrics::throughput::{ScalabilityCurve, ScalePoint};
use ids_shard::{PartitionScheme, ShardedCluster};
use ids_simclock::SimDuration;
use ids_workload::datasets;

use crate::report::Table;

/// Experiment parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScalabilityConfig {
    /// RNG seed.
    pub seed: u64,
    /// Rows in the fact table.
    pub rows: usize,
    /// Node counts swept.
    pub node_counts: [usize; 6],
    /// Maximum WHERE conditions in the dimension sweep.
    pub max_dims: usize,
}

impl ScalabilityConfig {
    /// Full-scale sweep.
    pub fn paper() -> ScalabilityConfig {
        ScalabilityConfig {
            seed: 94,
            rows: 400_000,
            node_counts: [1, 2, 4, 8, 16, 32],
            max_dims: 5,
        }
    }

    /// Reduced scale for tests.
    pub fn smoke_test() -> ScalabilityConfig {
        ScalabilityConfig {
            seed: 94,
            rows: 60_000,
            node_counts: [1, 2, 4, 8, 16, 32],
            max_dims: 5,
        }
    }
}

/// Results of the three sweeps.
#[derive(Debug, Clone)]
pub struct ScalabilityReport {
    /// Configuration used.
    pub config: ScalabilityConfig,
    /// `(nodes, elapsed)` node sweep.
    pub node_sweep: Vec<(usize, SimDuration)>,
    /// `(dimensions, elapsed, rows matched)` dimension sweep on 1 node.
    pub dim_sweep: Vec<(usize, SimDuration, u64)>,
    /// `(nodes, queries/s)` throughput sweep.
    pub throughput_sweep: Vec<(usize, f64)>,
}

/// The five numeric listing dimensions used by the dimension sweep, with
/// range predicates of roughly 50% selectivity each.
fn dim_predicates() -> Vec<Predicate> {
    vec![
        Predicate::between("lng", -120.0, -97.0),
        Predicate::between("lat", 28.0, 38.0),
        Predicate::between("price", 10.0, 120.0),
        Predicate::between("guests", 1.0, 4.0),
        Predicate::between("rating", 4.3, 5.0),
    ]
}

/// Runs all three sweeps.
pub fn run(config: &ScalabilityConfig) -> ScalabilityReport {
    let _p = ids_obs::phase("scalability.sweep");
    let db = Database::new();
    db.register(datasets::listings(config.seed, config.rows));
    let probe = Query::histogram(
        "listings",
        ids_engine::BinSpec::new("price", 0.0, 2_000.0, 20),
        Predicate::between("rating", 3.0, 5.0),
    );

    // Node sweep + throughput sweep share clusters.
    let mut node_sweep = Vec::new();
    let mut throughput_sweep = Vec::new();
    let cluster_of = |nodes| {
        ShardedCluster::partition(&db, PartitionScheme::HashRows, 0, nodes)
            .expect("partitionable tables")
    };
    const MIX: usize = 8;
    for &nodes in &config.node_counts {
        let cluster = cluster_of(nodes);
        let out = cluster.execute(&probe).expect("mergeable probe");
        node_sweep.push((nodes, out.elapsed));
        // The Atlas measurement: queries per second of virtual time,
        // the mix executed back to back.
        let mut elapsed = SimDuration::ZERO;
        for _ in 0..MIX {
            elapsed += cluster.execute(&probe).expect("mergeable mix").elapsed;
        }
        throughput_sweep.push((nodes, MIX as f64 / elapsed.as_secs_f64().max(1e-12)));
    }

    // Dimension sweep on a single node: add one predicate at a time.
    let single = cluster_of(1);
    let predicates = dim_predicates();
    let mut dim_sweep = Vec::new();
    for dims in 1..=config.max_dims.min(predicates.len()) {
        let filter = Predicate::and(predicates[..dims].iter().cloned());
        let q = Query::count("listings", filter);
        let out = single.execute(&q).expect("count is mergeable");
        let matched = out.result.scalar_count().unwrap_or(0);
        dim_sweep.push((dims, out.elapsed, matched));
    }

    ScalabilityReport {
        config: *config,
        node_sweep,
        dim_sweep,
        throughput_sweep,
    }
}

impl ScalabilityReport {
    /// The node sweep as a metrics-layer curve.
    pub fn curve(&self) -> ScalabilityCurve {
        ScalabilityCurve::new(
            self.node_sweep
                .iter()
                .map(|&(nodes, time)| ScalePoint {
                    resource: nodes as u64,
                    time,
                })
                .collect(),
        )
    }

    /// Renders both sweeps in a DICE-style table.
    pub fn render(&self) -> String {
        let curve = self.curve();
        let speedups = curve.speedups();
        let mut nodes_t = Table::new(["nodes", "elapsed (ms)", "speedup", "throughput (q/s)"]);
        for ((&(n, t), &(_, s)), &(_, qps)) in self
            .node_sweep
            .iter()
            .zip(&speedups)
            .zip(&self.throughput_sweep)
        {
            nodes_t.row([
                n.to_string(),
                format!("{:.1}", t.as_millis_f64()),
                format!("{s:.2}x"),
                format!("{qps:.1}"),
            ]);
        }
        let knee = curve
            .diminishing_returns_knee(0.2)
            .map(|k| k.to_string())
            .unwrap_or_else(|| "none".into());

        let mut dims_t = Table::new(["# WHERE conditions", "elapsed (ms)", "rows matched"]);
        for &(d, t, m) in &self.dim_sweep {
            dims_t.row([
                d.to_string(),
                format!("{:.1}", t.as_millis_f64()),
                m.to_string(),
            ]);
        }
        format!(
            "Scalability (node sweep; diminishing returns past {knee} nodes):\n{}\n\
             Dimension sweep (predicate cost vs selectivity benefit):\n{}",
            nodes_t.render(),
            dims_t.render()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report() -> &'static ScalabilityReport {
        use std::sync::OnceLock;
        static REPORT: OnceLock<ScalabilityReport> = OnceLock::new();
        REPORT.get_or_init(|| run(&ScalabilityConfig::smoke_test()))
    }

    #[test]
    fn node_sweep_has_a_knee() {
        let r = report();
        let knee = r.curve().diminishing_returns_knee(0.2);
        assert!(knee.is_some(), "speedups: {:?}", r.curve().speedups());
        let knee = knee.unwrap();
        assert!((4..=16).contains(&knee), "knee at {knee} nodes");
    }

    #[test]
    fn speedup_monotone_until_knee() {
        let r = report();
        let speedups = r.curve().speedups();
        let knee = r.curve().diminishing_returns_knee(0.2).unwrap_or(u64::MAX);
        for w in speedups.windows(2) {
            if w[1].0 <= knee {
                assert!(w[1].1 >= w[0].1, "{speedups:?}");
            }
        }
    }

    #[test]
    fn dimension_sweep_shows_cost_overtaking_selectivity() {
        let r = report();
        // Matched rows shrink monotonically with more conditions...
        let matched: Vec<u64> = r.dim_sweep.iter().map(|&(_, _, m)| m).collect();
        assert!(matched.windows(2).all(|w| w[1] <= w[0]), "{matched:?}");
        // ...but elapsed time eventually rises as predicate-evaluation
        // cost dominates (DICE Fig 6's shape).
        let times: Vec<f64> = r
            .dim_sweep
            .iter()
            .map(|&(_, t, _)| t.as_millis_f64())
            .collect();
        let min_idx = times
            .iter()
            .enumerate()
            .min_by(|a, b| a.1.total_cmp(b.1))
            .unwrap()
            .0;
        assert!(
            *times.last().unwrap() > times[min_idx],
            "adding dimensions should eventually cost more: {times:?}"
        );
    }

    #[test]
    fn throughput_improves_with_nodes() {
        let r = report();
        let first = r.throughput_sweep.first().unwrap().1;
        let best = r
            .throughput_sweep
            .iter()
            .map(|&(_, q)| q)
            .fold(0.0, f64::max);
        assert!(best > first * 2.0, "{:?}", r.throughput_sweep);
    }

    #[test]
    fn render_mentions_the_knee() {
        let text = report().render();
        assert!(text.contains("diminishing returns"));
        assert!(text.contains("WHERE conditions"));
    }
}
