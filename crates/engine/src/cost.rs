//! Virtual-time cost models.
//!
//! The paper's crossfiltering study contrasts a disk-based DBMS
//! (PostgreSQL: 150–500 ms per violated histogram query) with an
//! in-memory one (MemSQL: < 25 ms). We reproduce those *regimes* with
//! explicit per-operation charges: a query's [`QueryFootprint`] (tuples
//! scanned/aggregated, pages read, rows emitted) is priced by a
//! [`CostModel`] into a [`SimDuration`]. Costs are deterministic, so the
//! case studies replay identically across machines.

use ids_simclock::SimDuration;

/// Work counters recorded by the physical operators.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QueryFootprint {
    /// Tuples visited by scans (both sides for joins).
    pub rows_scanned: u64,
    /// Tuples passing the filter.
    pub rows_matched: u64,
    /// Tuples fed into an aggregate.
    pub rows_aggregated: u64,
    /// Output groups of an aggregation.
    pub groups: u64,
    /// Hash-join build-side tuples.
    pub build_rows: u64,
    /// Hash-join probe-side tuples.
    pub probe_rows: u64,
    /// Rows emitted to the client.
    pub rows_output: u64,
    /// Predicate condition evaluations (rows scanned × conditions in the
    /// WHERE clause) — the cost that DICE's dimension sweep shows
    /// dominating selectivity benefits as dimensions grow.
    pub predicate_evals: u64,
    /// Pages read from "disk" (cold; filled in by the disk backend).
    pub pages_cold: u64,
    /// Pages served from the buffer pool (hot).
    pub pages_hot: u64,
    /// Zone-map blocks decided without touching data (all-false /
    /// all-true / outside the bin domain). Not priced: pruning is a
    /// real-hardware optimization, and virtual costs must stay
    /// byte-identical to the row-at-a-time engine.
    pub blocks_pruned: u64,
    /// Blocks whose column data the vectorized kernels actually read.
    pub blocks_scanned: u64,
}

impl QueryFootprint {
    /// Combines two footprints (used when a backend decorates an
    /// operator footprint with I/O counters).
    pub fn merge(mut self, other: QueryFootprint) -> QueryFootprint {
        self.rows_scanned += other.rows_scanned;
        self.rows_matched += other.rows_matched;
        self.rows_aggregated += other.rows_aggregated;
        self.groups += other.groups;
        self.build_rows += other.build_rows;
        self.probe_rows += other.probe_rows;
        self.rows_output += other.rows_output;
        self.predicate_evals += other.predicate_evals;
        self.pages_cold += other.pages_cold;
        self.pages_hot += other.pages_hot;
        self.blocks_pruned += other.blocks_pruned;
        self.blocks_scanned += other.blocks_scanned;
        self
    }
}

/// Per-operation charges, in nanoseconds of virtual time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostParams {
    /// Fixed per-query overhead (parse/plan/protocol), ns.
    pub startup_ns: u64,
    /// Reading a page from disk (cold), ns.
    pub page_cold_ns: u64,
    /// Touching a page already in the buffer pool, ns.
    pub page_hot_ns: u64,
    /// Scanning one tuple (predicate evaluation + tuple deforming), ns.
    pub tuple_scan_ns: u64,
    /// Feeding one tuple into an aggregate, ns.
    pub tuple_agg_ns: u64,
    /// Inserting one tuple into a join hash table, ns.
    pub join_build_ns: u64,
    /// Probing the join hash table with one tuple, ns.
    pub join_probe_ns: u64,
    /// Emitting one output row to the client, ns.
    pub row_output_ns: u64,
    /// Evaluating one predicate condition against one tuple, ns.
    pub predicate_eval_ns: u64,
}

impl CostParams {
    /// Calibration for a disk-based row store in the PostgreSQL regime.
    ///
    /// A full scan of the 434,874-tuple road table costs ≈ 0.45 µs/tuple
    /// of scan work ≈ 196 ms, plus aggregation and (on a cold cache)
    /// page I/O — landing histogram queries in the paper's observed
    /// 150–500 ms band.
    pub const fn disk_default() -> CostParams {
        CostParams {
            startup_ns: 1_200_000, // 1.2 ms connection/parse/plan
            page_cold_ns: 120_000, // 120 µs per cold 8 KiB page
            page_hot_ns: 2_000,    // 2 µs per buffered page
            tuple_scan_ns: 450,
            tuple_agg_ns: 150,
            join_build_ns: 300,
            join_probe_ns: 200,
            row_output_ns: 2_000,
            predicate_eval_ns: 50,
        }
    }

    /// Calibration for an in-memory store in the MemSQL regime: the
    /// full-table crossfilter histogram lands in the paper's observed
    /// 10–50 ms band, with the worst case (≈ 20 ms) just under the Leap
    /// Motion's ~22 ms issue interval — so high-rate devices violate the
    /// latency constraint occasionally (the nonzero mem fractions of
    /// Fig 15) without the queue diverging (the flat mem lines of
    /// Fig 13).
    pub const fn mem_default() -> CostParams {
        CostParams {
            startup_ns: 150_000, // 0.15 ms
            page_cold_ns: 0,
            page_hot_ns: 0,
            tuple_scan_ns: 28,
            tuple_agg_ns: 25,
            join_build_ns: 60,
            join_probe_ns: 40,
            row_output_ns: 500,
            predicate_eval_ns: 4,
        }
    }

    /// This calibration with its five per-tuple charges multiplied by
    /// `k` (rounded to the nearest ns). A table scaled down by `k` then
    /// prices like the full one, so reduced-scale experiments keep the
    /// paper's latency regimes; startup, page and per-output-row
    /// charges do not depend on cardinality and stay as they are.
    pub fn scaled(mut self, k: f64) -> CostParams {
        let mul = |ns: u64| ((ns as f64) * k).round() as u64;
        self.tuple_scan_ns = mul(self.tuple_scan_ns);
        self.tuple_agg_ns = mul(self.tuple_agg_ns);
        self.join_build_ns = mul(self.join_build_ns);
        self.join_probe_ns = mul(self.join_probe_ns);
        self.predicate_eval_ns = mul(self.predicate_eval_ns);
        self
    }
}

/// Prices a query footprint into virtual time.
pub trait CostModel: Send + Sync {
    /// Virtual execution time for the given footprint.
    fn price(&self, footprint: &QueryFootprint) -> SimDuration;
}

/// The standard linear cost model: each counter × its per-unit charge.
#[derive(Debug, Clone, Copy)]
pub struct LinearCostModel {
    /// Per-operation charges.
    pub params: CostParams,
}

impl LinearCostModel {
    /// Creates a model from explicit parameters.
    pub fn new(params: CostParams) -> Self {
        LinearCostModel { params }
    }
}

impl CostModel for LinearCostModel {
    fn price(&self, fp: &QueryFootprint) -> SimDuration {
        let p = &self.params;
        let ns = p.startup_ns
            + fp.pages_cold * p.page_cold_ns
            + fp.pages_hot * p.page_hot_ns
            + fp.rows_scanned * p.tuple_scan_ns
            + fp.rows_aggregated * p.tuple_agg_ns
            + fp.build_rows * p.join_build_ns
            + fp.probe_rows * p.join_probe_ns
            + fp.rows_output * p.row_output_ns
            + fp.predicate_evals * p.predicate_eval_ns;
        SimDuration::from_micros(ns / 1_000)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn road_histogram_footprint() -> QueryFootprint {
        QueryFootprint {
            rows_scanned: 434_874,
            rows_matched: 200_000,
            rows_aggregated: 200_000,
            groups: 21,
            rows_output: 21,
            ..QueryFootprint::default()
        }
    }

    #[test]
    fn disk_histogram_lands_in_postgres_band() {
        let model = LinearCostModel::new(CostParams::disk_default());
        // Warm cache: no page I/O counted here; scan+agg dominate.
        let cost = model.price(&road_histogram_footprint());
        let ms = cost.as_millis();
        assert!(
            (150..=500).contains(&ms),
            "disk histogram cost {ms} ms outside the 150-500 ms band"
        );
    }

    #[test]
    fn mem_histogram_lands_in_memsql_band() {
        let model = LinearCostModel::new(CostParams::mem_default());
        let cost = model.price(&road_histogram_footprint());
        let ms = cost.as_millis();
        assert!(ms < 25, "mem histogram cost {ms} ms should be < 25 ms");
        assert!(ms >= 5, "mem histogram cost {ms} ms suspiciously low");
    }

    #[test]
    fn cold_pages_cost_more_than_hot() {
        let model = LinearCostModel::new(CostParams::disk_default());
        let cold = model.price(&QueryFootprint {
            pages_cold: 100,
            ..QueryFootprint::default()
        });
        let hot = model.price(&QueryFootprint {
            pages_hot: 100,
            ..QueryFootprint::default()
        });
        assert!(cold > hot);
    }

    #[test]
    fn merge_adds_counters() {
        let a = QueryFootprint {
            rows_scanned: 10,
            pages_cold: 1,
            ..QueryFootprint::default()
        };
        let b = QueryFootprint {
            rows_scanned: 5,
            pages_hot: 2,
            ..QueryFootprint::default()
        };
        let m = a.merge(b);
        assert_eq!(m.rows_scanned, 15);
        assert_eq!(m.pages_cold, 1);
        assert_eq!(m.pages_hot, 2);
    }

    #[test]
    fn scaled_touches_only_the_per_tuple_charges() {
        let base = CostParams::disk_default();
        let s = base.scaled(2.5);
        assert_eq!(
            (s.startup_ns, s.page_cold_ns, s.page_hot_ns, s.row_output_ns),
            (
                base.startup_ns,
                base.page_cold_ns,
                base.page_hot_ns,
                base.row_output_ns
            )
        );
        assert_eq!(s.tuple_scan_ns, 1_125);
        assert_eq!(s.tuple_agg_ns, 375);
        assert_eq!(s.join_build_ns, 750);
        assert_eq!(s.join_probe_ns, 500);
        assert_eq!(s.predicate_eval_ns, 125);
        assert_eq!(base.scaled(1.0), base);
    }

    #[test]
    fn startup_floor_applies_to_empty_queries() {
        let model = LinearCostModel::new(CostParams::disk_default());
        let cost = model.price(&QueryFootprint::default());
        assert_eq!(cost.as_micros(), 1_200);
    }
}
