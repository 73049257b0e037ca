//! The deterministic kernel micro-bench harness behind the `perf`
//! binary, exposed as a library so the `golden_perf_quick_report` test
//! can byte-compare a fresh quick run with `BENCH_perf_quick.json`.
//!
//! Measures the vectorized engine (selection-vector kernels, zone-map
//! pruning, fused filter+bin) against the row-at-a-time baseline
//! (per-row `Predicate::matches` + `bin_of`) on seeded tables, reporting
//! both *virtual* cost (simclock-priced footprints — deterministic) and
//! *wall-clock* medians (hardware-dependent). Quick mode omits every
//! wall-clock field so two runs are byte-identical.

use std::time::Instant;

use ids_engine::{
    exec, kernels, BinSpec, ColumnBuilder, CostModel, CostParams, KernelOptions, KernelStats,
    LinearCostModel, Predicate, QueryFootprint, ResultSet, Table, TableBuilder,
};
use ids_simclock::rng::SimRng;

/// Deterministic seed for the perf tables (fixed: the report must be
/// reproducible, so this is not configurable).
pub const SEED: u64 = 7;

/// One benchmark's measurements. Wall fields are `None` in quick mode.
#[derive(Debug, Clone, Default)]
pub struct BenchReport {
    /// Benchmark name.
    pub name: String,
    /// Rows the filter matched.
    pub rows_matched: u64,
    /// FNV-1a digest of the result counts (the byte-identity gate).
    pub checksum: u64,
    /// Simclock-priced cost of the vectorized run, microseconds.
    pub virtual_cost_us: u64,
    /// Blocks skipped via zone maps.
    pub blocks_pruned: u64,
    /// Blocks actually scanned.
    pub blocks_scanned: u64,
    /// Median row-at-a-time wall time (full mode only).
    pub baseline_wall_ns: Option<u64>,
    /// Median vectorized wall time (full mode only).
    pub vectorized_wall_ns: Option<u64>,
}

impl BenchReport {
    /// Baseline-over-vectorized speedup, when wall times were measured.
    pub fn speedup(&self) -> Option<f64> {
        match (self.baseline_wall_ns, self.vectorized_wall_ns) {
            (Some(base), Some(vec)) => Some(base as f64 / vec.max(1) as f64),
            _ => None,
        }
    }
}

/// The seeded perf table: a clustered time axis `t` (row index — zone
/// maps prune brushes on it), a uniform measure `v` (the binned axis),
/// and a low-cardinality key `k`.
pub fn perf_table(rows: usize) -> Table {
    let mut rng = SimRng::seed(SEED).split("perf/table");
    let mut t = ColumnBuilder::float([]);
    let mut v = ColumnBuilder::float([]);
    let mut k = ColumnBuilder::int([]);
    for i in 0..rows {
        t.push_float(i as f64);
        v.push_float(rng.uniform(0.0, 100.0));
        k.push_int((i % 1000) as i64);
    }
    TableBuilder::new("perf")
        .column("t", t)
        .column("v", v)
        .column("k", k)
        .build()
        .expect("static schema")
}

/// One statement of a bench shape: a histogram over `bins`, or a count
/// when there are none, of the rows `filter` selects.
type Statement = (Option<BinSpec>, Predicate);

/// Runs the full bench suite over a fresh seeded table: the interactive
/// crossfilter shapes (a clustered brush, an unclustered range, a
/// full-table histogram, a 2-D crossfilter), a brushed count, a brush
/// event as the engine is actually handed one, and a drag of them.
pub fn run_all(quick: bool, rows: usize, reps: usize) -> Vec<BenchReport> {
    let table = perf_table(rows);
    let n = rows as f64;
    let bin_v = || Some(BinSpec::new("v", 0.0, 100.0, 20));
    let brush_2d = |t: (f64, f64), v: (f64, f64)| {
        Predicate::and([
            Predicate::between("t", t.0 * n, t.1 * n),
            Predicate::between("v", v.0, v.1),
        ])
    };
    let benches: [(&str, Statement); 5] = [
        (
            "hist_brush_t_bin_v",
            (bin_v(), Predicate::between("t", 0.45 * n, 0.55 * n)),
        ),
        ("hist_full_bin_v", (bin_v(), Predicate::True)),
        (
            "hist_range_v_bin_v",
            (bin_v(), Predicate::between("v", 5.0, 95.0)),
        ),
        (
            "hist_crossfilter_2d",
            (bin_v(), brush_2d((0.25, 0.75), (10.0, 90.0))),
        ),
        (
            "count_brush_t",
            (None, Predicate::between("t", 0.45 * n, 0.55 * n)),
        ),
    ];

    let model = LinearCostModel::new(CostParams::mem_default());
    // These time the kernel pair, not `exec`: with one fixed filter every
    // repetition after the warm-up would be a selection-memo hit.
    let mut reports: Vec<BenchReport> = benches
        .iter()
        .map(|(name, s)| {
            let pair = std::slice::from_ref(s);
            run_bench(name, &table, pair, kernel_pair, &model, reps, quick)
        })
        .collect();
    // The selection memo on purpose: two different brushes, each issued
    // as its two histograms (bin `v`, bin `t`) through `exec` — per
    // repetition two filter misses and two hits by construction. The
    // brushes overlap, so each histogram after the first also moves the
    // counts the other brush left on its column instead of binning cold.
    let bin_t = || Some(BinSpec::new("t", 0.0, n, 20));
    let event = |brush: Predicate| [(bin_v(), brush.clone()), (bin_t(), brush)];
    let events = [
        event(brush_2d((0.25, 0.75), (10.0, 90.0))),
        event(brush_2d((0.30, 0.80), (20.0, 95.0))),
    ]
    .concat();
    // Both memos on purpose: a drag of eight brushes whose `t` edge moves
    // 1 % per step, each issued as its two histograms through `exec`.
    // Each step's filter moves the previous one's `t` range, so the
    // filter walk starts from the remembered selection and reads `t`
    // alone, and every histogram moves its column's counts by the rows
    // one step changed.
    let drag: Vec<Statement> = (0..8)
        .flat_map(|step| event(brush_2d((0.25, 0.50 + 0.01 * step as f64), (10.0, 90.0))))
        .collect();
    for (name, statements) in [
        ("hist_pair_shared_filter", events),
        ("hist_drag_bin_v", drag),
    ] {
        let exec = |t: &Table, s: &Statement| through_exec(t, s).0;
        let report = run_bench(name, &table, &statements, exec, &model, reps, quick);
        reports.push(report);
    }
    // The fleet shard-scaling curve rides along (virtual-only: wall
    // fields stay None in both modes), so the committed BENCH_*.json
    // history gates the million-session p99 like any kernel bench.
    reports.extend(crate::fleetbench::to_reports(
        &crate::fleetbench::shard_curve(),
    ));
    reports
}

/// The row-at-a-time baseline: evaluate the predicate per row with
/// [`Predicate::matches`] — the engine's ground-truth tuple-at-a-time
/// path, same execution model as `ids_simtest::reference` — then bin
/// matching rows through `f64_at` + `bin_of` (or count them). This is
/// what the vectorized kernels replaced.
fn rowwise(table: &Table, (bins, filter): &Statement) -> Vec<u64> {
    let matches = |row: &usize| filter.matches(table, *row).expect("bench filter is valid");
    let Some(bins) = bins else {
        return vec![(0..table.rows()).filter(matches).count() as u64];
    };
    let col = table.column(&bins.column).expect("bench column exists");
    let mut counts = vec![0u64; bins.bucket_count()];
    for row in (0..table.rows()).filter(matches) {
        if let Some(b) = col.f64_at(row).and_then(|x| bins.bin_of(x)) {
            counts[b] += 1;
        }
    }
    counts
}

/// The kernel pair the speed-ups document, always evaluated:
/// `select_vector_with`, then `fused_filter_bin` (or the popcount).
fn kernel_pair(table: &Table, (bins, filter): &Statement) -> Vec<u64> {
    let (opts, mut stats) = (KernelOptions::default(), KernelStats::default());
    let sel = kernels::select_vector_with(table, filter, &opts, &mut stats)
        .expect("bench filter is valid");
    let Some(bins) = bins else {
        return vec![sel.count() as u64];
    };
    let idx = table
        .column_index(&bins.column)
        .expect("bench column exists");
    let (col, zone) = (table.column_at(idx), table.zone_map_at(idx));
    kernels::fused_filter_bin(col, zone, &sel, bins, &opts, &mut stats)
        .counts()
        .to_vec()
}

/// The statement as a backend runs it (`exec`, selection memo included).
fn through_exec(table: &Table, (bins, filter): &Statement) -> (Vec<u64>, QueryFootprint) {
    let (rs, fp) = match bins {
        Some(bins) => exec::run_histogram(table, bins, filter),
        None => exec::run_count(table, filter),
    }
    .expect("bench query is valid");
    let counts = match &rs {
        ResultSet::Histogram(h) => h.counts().to_vec(),
        _ => vec![rs.scalar_count().expect("count result")],
    };
    (counts, fp)
}

/// Checks every statement of a shape three ways (`exec`, kernel pair,
/// row-at-a-time), sums the `exec` footprints into the report, and in
/// full mode times `timed` over the statements against [`rowwise`].
fn run_bench(
    name: &str,
    table: &Table,
    statements: &[Statement],
    timed: impl Fn(&Table, &Statement) -> Vec<u64>,
    model: &LinearCostModel,
    reps: usize,
    quick: bool,
) -> BenchReport {
    let mut report = BenchReport {
        name: name.to_string(),
        ..BenchReport::default()
    };
    let mut answers = Vec::new();
    for s in statements {
        let (counts, fp) = through_exec(table, s);
        assert_eq!(counts, rowwise(table, s), "{name}: exec != row-at-a-time");
        assert_eq!(counts, kernel_pair(table, s), "{name}: exec != kernels");
        report.rows_matched += fp.rows_matched;
        report.virtual_cost_us += model.price(&fp).as_micros();
        report.blocks_pruned += fp.blocks_pruned;
        report.blocks_scanned += fp.blocks_scanned;
        answers.extend(counts);
    }
    report.checksum = fnv1a(&answers);
    if !quick {
        let time = |f: &dyn Fn(&Table, &Statement) -> Vec<u64>| {
            median_wall_ns(reps, || {
                for s in statements {
                    std::hint::black_box(f(table, s));
                }
            })
        };
        report.baseline_wall_ns = Some(time(&rowwise));
        report.vectorized_wall_ns = Some(time(&timed));
    }
    report
}

/// One warmup run, then the median of `reps` timed runs.
fn median_wall_ns(reps: usize, mut f: impl FnMut()) -> u64 {
    f(); // warmup
    let mut samples: Vec<u64> = (0..reps)
        .map(|_| {
            let start = Instant::now();
            f();
            start.elapsed().as_nanos() as u64
        })
        .collect();
    samples.sort_unstable();
    samples[samples.len() / 2]
}

/// FNV-1a over the little-endian bytes of the counts — a stable,
/// dependency-free digest for the byte-identity gate.
pub fn fnv1a(counts: &[u64]) -> u64 {
    ids_simclock::rng::fnv1a(counts.iter().flat_map(|c| c.to_le_bytes()))
}

/// Serializes a run in the committed `BENCH_*.json` shape (hand-rolled:
/// the workspace has no JSON dependency).
pub fn render_json(quick: bool, rows: usize, reps: usize, reports: &[BenchReport]) -> String {
    let mut s = String::new();
    s.push_str("{\n");
    s.push_str("  \"harness\": \"perf\",\n");
    s.push_str(&format!(
        "  \"mode\": \"{}\",\n",
        if quick { "quick" } else { "full" }
    ));
    s.push_str(&format!("  \"seed\": {SEED},\n"));
    s.push_str(&format!("  \"rows\": {rows},\n"));
    s.push_str(&format!("  \"reps\": {reps},\n"));
    s.push_str("  \"benches\": [\n");
    for (i, r) in reports.iter().enumerate() {
        s.push_str("    {\n");
        s.push_str(&format!("      \"name\": \"{}\",\n", r.name));
        s.push_str(&format!("      \"rows_matched\": {},\n", r.rows_matched));
        s.push_str(&format!("      \"checksum\": \"{:016x}\",\n", r.checksum));
        s.push_str(&format!(
            "      \"virtual_cost_us\": {},\n",
            r.virtual_cost_us
        ));
        s.push_str(&format!("      \"blocks_pruned\": {},\n", r.blocks_pruned));
        if let (Some(base), Some(vec)) = (r.baseline_wall_ns, r.vectorized_wall_ns) {
            s.push_str(&format!(
                "      \"blocks_scanned\": {},\n",
                r.blocks_scanned
            ));
            s.push_str(&format!("      \"baseline_wall_ns\": {base},\n"));
            s.push_str(&format!("      \"vectorized_wall_ns\": {vec},\n"));
            s.push_str(&format!(
                "      \"speedup\": {:.2}\n",
                base as f64 / vec.max(1) as f64
            ));
        } else {
            s.push_str(&format!("      \"blocks_scanned\": {}\n", r.blocks_scanned));
        }
        s.push_str(if i + 1 == reports.len() {
            "    }\n"
        } else {
            "    },\n"
        });
    }
    s.push_str("  ]\n");
    s.push_str("}\n");
    s
}

/// Default table size for a mode.
pub fn default_rows(quick: bool) -> usize {
    if quick {
        200_000
    } else {
        10_000_000
    }
}

/// Default median-of-k repetitions for a mode.
pub fn default_reps(quick: bool) -> usize {
    if quick {
        1
    } else {
        5
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_runs_are_deterministic() {
        let a = run_all(true, 4_000, 1);
        let b = run_all(true, 4_000, 1);
        assert_eq!(a.len(), 10, "7 kernel benches + 3 fleet shard points");
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.name, y.name);
            assert_eq!(x.checksum, y.checksum);
            assert_eq!(x.virtual_cost_us, y.virtual_cost_us);
            assert_eq!(x.blocks_pruned, y.blocks_pruned);
            assert!(x.baseline_wall_ns.is_none(), "quick mode omits wall times");
            assert!(x.speedup().is_none());
        }
        assert_eq!(
            render_json(true, 4_000, 1, &a),
            render_json(true, 4_000, 1, &b)
        );
    }
}
