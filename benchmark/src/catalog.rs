//! The benchmark's contract in one place: workloads, every metric with
//! its unit and direction, and the regression bound of each end-to-end
//! metric. `BENCHMARK.json` at the repository root is this catalog
//! rendered by [`benchmark_json`]; a test keeps the two identical.

/// Seconds one run measures for when `--seconds` is not given; also the
/// `run_seconds` the driver passes.
pub const RUN_SECONDS: u64 = 20;

/// How the benchmark is started from the repository root; the driver
/// appends `--workload <name> --seed <n> --seconds <s> --trace <0|1>`.
#[cfg(test)]
pub const COMMAND: &[&str] = &[
    "cargo",
    "run",
    "--release",
    "--offline",
    "--quiet",
    "--manifest-path",
    "benchmark/Cargo.toml",
    "--",
];

/// `(name, why)`: why each workload is in the set.
pub const WORKLOADS: &[(&str, &str)] = &[
    (
        "crossfilter_dense",
        "In-order crossfilter brush segments over the 434,874-row road table: unprunable 3-range filters, so the filter+bin kernels are nearly the whole trip and the SQL front-end is noise.",
    ),
    (
        "smallquery_frontend",
        "4,096 seeded statements over paper-size tables (<=20k rows): per-statement fixed cost (parse, bind, plan, materialise) is as large a share as a real shape allows; kernels are bypassed.",
    ),
    (
        "sharded_scatter",
        "The crossfilter_dense statements through 8 range partitions on 2 gather threads: same kernels on small skewed partitions, plus scatter, thread spawn and fixed-order merge.",
    ),
    (
        "fleet_serve",
        "One fleet round per op: session synthesis, cost measurement on a disk backend, admission and queue simulation, telemetry ingest, p99 query, trace export; kernels do almost nothing.",
    ),
];

/// One metric of the catalog. `bound` is set for end-to-end metrics only.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    pub bound: Option<f64>,
    /// A count the system makes or a digest of its answers, no timing:
    /// bit-identical between runs at one seed. `BENCHMARK.json` has no
    /// key for it; a run marks these metrics in the table it prints.
    pub exact: bool,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    bound: f64,
) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: Some(bound),
        exact: false,
    }
}

const fn layer(name: &'static str, unit: &'static str, better: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: None,
        exact: false,
    }
}

const fn exact(name: &'static str, unit: &'static str, better: &'static str) -> MetricDef {
    MetricDef {
        exact: true,
        ..layer(name, unit, better)
    }
}

/// What a user of the system sees, measured with tracing off. Durations
/// are in calibrated time (see `harness`): wall-clock time scaled by how
/// slow the machine's interleaved calibration scans ran, since the boxes
/// this runs on drift by tens of percent within a run.
///
/// The timing bounds are three times the widest spread (quartile distance
/// over median, ten seeds) the metric showed on any workload, which is
/// 0.05 or a little more on `crossfilter_dense` and `sharded_scatter`
/// (`REPEATABILITY.md`), and no wider than the 0.15 the issue allows: a
/// metric that stops repeating within its bound gets a longer run or
/// moves to the layer metrics, not a wider bound. `setup_s` allocates
/// and first touches tens of megabytes, slows down in ways a
/// cache-resident scan does not see, and keeps the widest bound the
/// contract allows.
pub const END_TO_END: &[MetricDef] = &[
    e2e("setup_s", "s", "lower", 0.25),
    e2e("ops_per_cal_s", "1/s", "higher", 0.15),
    e2e("op_p50_cal_us", "us", "lower", 0.15),
    e2e("op_p95_cal_us", "us", "lower", 0.15),
    e2e("peak_rss_mb", "MiB", "lower", 0.10),
];

/// Single-layer metrics, from the traced pass and its probes. A metric
/// whose layer a workload never enters reads 0 on that workload.
pub const PER_LAYER: &[MetricDef] = &[
    layer("sql.parse_p50_ns", "ns", "lower"),
    layer("sql.parse_p95_ns", "ns", "lower"),
    layer("sql.bind_p50_ns", "ns", "lower"),
    layer("sql.frontend_share", "fraction", "lower"),
    layer("planner.plan_p50_ns", "ns", "lower"),
    layer("planner.plan_p95_ns", "ns", "lower"),
    layer("planner.execute_p50_us", "us", "lower"),
    layer("planner.speedup_vs_unplanned", "ratio", "higher"),
    layer("kernels.filter_ns_per_row", "ns/row", "lower"),
    layer("kernels.bin_ns_per_row", "ns/row", "lower"),
    layer("kernels.bin_x_scan", "ratio", "lower"),
    layer("kernels.bin_share", "fraction", "lower"),
    layer("kernels.effective_gbps", "GB/s", "higher"),
    exact("kernels.rows_matched", "count", "lower"),
    exact("kernels.blocks_pruned", "count", "higher"),
    exact("kernels.blocks_scanned", "count", "lower"),
    layer("parallel.speedup_2t", "ratio", "higher"),
    exact("engine.virtual_cost_us", "us", "lower"),
    exact("engine.result_digest", "count", "lower"),
    layer("shard.partition_s", "s", "lower"),
    layer("shard.execute_p50_us", "us", "lower"),
    layer("shard.execute_1t_p50_us", "us", "lower"),
    layer("shard.fragment_sum_p50_us", "us", "lower"),
    layer("shard.fragment_max_p50_us", "us", "lower"),
    layer("shard.coordination_p50_us", "us", "lower"),
    layer("shard.parallel_efficiency", "ratio", "higher"),
    layer("shard.merge_p50_ns", "ns", "lower"),
    exact("shard.rows_skew", "ratio", "lower"),
    layer("workload.synthesize_p50_ms", "ms", "lower"),
    layer("workload.sessions_per_s", "1/s", "higher"),
    layer("serve.measure_costs_p50_ms", "ms", "lower"),
    layer("backend.execute_p50_us", "us", "lower"),
    layer("backend.execute_share", "fraction", "higher"),
    layer("chaos.wrapper_overhead_p50_ms", "ms", "lower"),
    layer("serve.simulate_p50_us", "us", "lower"),
    layer("serve.simulate_ns_per_query", "ns", "lower"),
    exact("buffer.hit_rate", "fraction", "higher"),
    exact("buffer.evictions", "count", "lower"),
    exact("serve.offered", "count", "higher"),
    exact("serve.admitted", "count", "higher"),
    exact("serve.shed", "count", "lower"),
    exact("serve.lcv_frac_virtual", "fraction", "lower"),
    exact("serve.p99_virtual_us", "us", "lower"),
    layer("obs.record_overhead_frac", "fraction", "lower"),
    layer("obs.export_p50_us", "us", "lower"),
    layer("obs.export_mb_per_s", "MB/s", "higher"),
    exact("obs.events_per_op", "count", "lower"),
    layer("lakehouse.ingest_p50_us", "us", "lower"),
    layer("lakehouse.ingest_ns_per_event", "ns", "lower"),
    layer("lakehouse.p99_query_p50_us", "us", "lower"),
    layer("lcv.frac_wall", "fraction", "lower"),
    layer("op.failed_frac", "fraction", "lower"),
    layer("wall.ops_per_s", "1/s", "higher"),
    layer("wall.op_p50_us", "us", "lower"),
    layer("wall.op_p95_us", "us", "lower"),
    layer("calib.scan_ns_per_row", "ns/row", "lower"),
    layer("trace.overhead_frac", "fraction", "lower"),
    layer("trace.unattributed_frac", "fraction", "lower"),
];

/// The exact text of `BENCHMARK.json`.
#[cfg(test)]
pub fn benchmark_json() -> String {
    use std::fmt::Write as _;
    fn list<T>(items: &[T], one: impl Fn(&T) -> String) -> String {
        let rows: Vec<String> = items.iter().map(|i| format!("    {}", one(i))).collect();
        format!("[\n{}\n  ]", rows.join(",\n"))
    }
    let command: Vec<String> = COMMAND.iter().map(|c| format!("\"{c}\"")).collect();
    let mut out = String::from("{\n");
    let _ = writeln!(out, "  \"command\": [{}],", command.join(", "));
    let _ = writeln!(out, "  \"paths\": [\"benchmark\"],");
    let _ = writeln!(out, "  \"run_seconds\": {RUN_SECONDS},");
    let _ = writeln!(
        out,
        "  \"workloads\": {},",
        list(WORKLOADS, |(name, why)| format!(
            "{{\"name\": \"{name}\", \"why\": \"{why}\"}}"
        ))
    );
    let _ = writeln!(
        out,
        "  \"end_to_end\": {},",
        list(END_TO_END, |m| format!(
            "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
            m.name,
            m.unit,
            m.better,
            m.bound.expect("end-to-end metrics carry a bound")
        ))
    );
    let _ = writeln!(
        out,
        "  \"per_layer\": {}",
        list(PER_LAYER, |m| format!(
            "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
            m.name, m.unit, m.better
        ))
    );
    out.push_str("}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn name_ok(name: &str) -> bool {
        name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    #[test]
    fn catalog_stays_inside_the_contract_limits() {
        assert!((2..=8).contains(&WORKLOADS.len()));
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!((1..=128).contains(&PER_LAYER.len()));
        let mut names: Vec<&str> = WORKLOADS.iter().map(|w| w.0).collect();
        names.extend(END_TO_END.iter().chain(PER_LAYER).map(|m| m.name));
        assert!(names.iter().all(|n| name_ok(n)), "{names:?}");
        let unique: std::collections::BTreeSet<_> = names.iter().collect();
        assert_eq!(unique.len(), names.len(), "a name is used twice");
        for (_, why) in WORKLOADS {
            assert!(why.len() <= 200 && !why.contains(['\n', '"']), "{why}");
        }
        for m in END_TO_END.iter().chain(PER_LAYER) {
            assert!(m.unit.len() <= 16, "{}", m.unit);
            assert!(m
                .unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
            assert!(matches!(m.better, "lower" | "higher"));
        }
        for m in END_TO_END {
            assert!(m.bound.is_some_and(|b| b > 0.0 && b <= 0.25), "{}", m.name);
        }
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
        assert_eq!((setup.unit, setup.better), ("s", "lower"));
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
        assert!(COMMAND.len() <= 32 && (1..=60).contains(&RUN_SECONDS));
    }

    #[test]
    fn benchmark_json_at_the_root_is_this_catalog() {
        let rendered = benchmark_json();
        assert!(crate::json::is_valid(&rendered));
        assert!(rendered.len() <= 64 * 1024);
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        // After a deliberate catalog change: BENCH_BLESS=1 cargo test.
        if std::env::var_os("BENCH_BLESS").is_some() {
            std::fs::write(path, &rendered).expect("BENCHMARK.json is writable");
        }
        let on_disk = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        assert_eq!(
            on_disk, rendered,
            "regenerate BENCHMARK.json from catalog::benchmark_json()"
        );
    }
}
