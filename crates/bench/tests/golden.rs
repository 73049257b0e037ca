//! Golden-snapshot tests: the `repro` end-of-run tables, byte-compared
//! to checked-in fixtures.
//!
//! Every experiment here is a pure function of its seeded config, so its
//! rendered table must reproduce byte-identically on any machine. A
//! mismatch means either an intentional change to an experiment or a
//! broken determinism contract — the fixture diff tells you which.
//!
//! To regenerate fixtures after an intentional change:
//!
//! ```text
//! IDS_BLESS=1 cargo test -p ids-bench --test golden
//! git diff crates/bench/tests/golden/   # review before committing
//! ```
//!
//! Wall-clock output (the per-phase timing table) is deliberately NOT
//! snapshotted — only virtual-time tables are stable.

use std::path::PathBuf;

use ids_core::experiments::{
    ablations, adaptive, case1, case2, case3, fleet, methodology, robustness, scalability,
};

fn fixture_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name)
}

/// Byte-compares `actual` against the named fixture, or rewrites the
/// fixture when `IDS_BLESS` is set.
fn check_golden(name: &str, actual: &str) {
    let path = fixture_path(name);
    if std::env::var("IDS_BLESS").is_ok() {
        std::fs::create_dir_all(path.parent().unwrap()).expect("fixture dir");
        std::fs::write(&path, actual).expect("write fixture");
        eprintln!("blessed {}", path.display());
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden fixture {} ({e}); run `IDS_BLESS=1 cargo test -p ids-bench \
             --test golden` to create it",
            path.display()
        )
    });
    assert_eq!(
        expected, actual,
        "golden mismatch for {name}: if the change is intentional, regenerate with \
         `IDS_BLESS=1 cargo test -p ids-bench --test golden` and review the diff"
    );
}

#[test]
fn golden_methodology_tables() {
    let text = format!(
        "{}\n{}\n{}\n{}\n",
        methodology::render_table1(),
        methodology::render_table2(),
        methodology::render_table3(),
        methodology::render_table4(),
    );
    check_golden("methodology_tables.txt", &text);
}

#[test]
fn golden_case1_report() {
    let report = case1::run(&case1::Case1Config::smoke_test());
    check_golden("case1_report.txt", &report.render());
}

#[test]
fn golden_case2_report() {
    let report = case2::run(&case2::Case2Config::smoke_test());
    check_golden("case2_report.txt", &report.render());
}

#[test]
fn golden_case3_report() {
    let report = case3::run(&case3::Case3Config::smoke_test());
    check_golden("case3_report.txt", &report.render());
}

#[test]
fn golden_scalability_table() {
    let report = scalability::run(&scalability::ScalabilityConfig::smoke_test());
    check_golden("scalability_table.txt", &report.render());
}

#[test]
fn golden_robustness_table() {
    let report = robustness::run(&robustness::RobustnessConfig::smoke_test());
    check_golden("robustness_table.txt", &report.render());
}

#[test]
fn golden_progressive_table() {
    let report = robustness::run_progressive(&robustness::ProgressiveConfig::smoke_test());
    check_golden("progressive_table.txt", &report.render());
}

#[test]
fn golden_adaptive_table() {
    let report = adaptive::run(&adaptive::AdaptiveConfig::smoke_test());
    check_golden("adaptive_table.txt", &report.render());
}

#[test]
fn golden_fleet_table() {
    let report = fleet::run(&fleet::FleetConfig::smoke_test());
    check_golden("fleet_table.txt", &report.render());
}

#[test]
fn golden_ablations_table() {
    check_golden("ablations_table.txt", &ablations::render());
}

/// One `EXPLAIN` fixture per case-study query. The rendered case (plan
/// tree + actual counters + cost) must be byte-identical on every run;
/// re-rendering after executing at 2/4/8 threads must not perturb it.
#[test]
fn golden_explain_case_studies() {
    for case in ids_bench::sqlrepro::CASES {
        let text = ids_bench::sqlrepro::render_case(case);
        for _ in 0..2 {
            assert_eq!(
                text,
                ids_bench::sqlrepro::render_case(case),
                "EXPLAIN for {} is not replay-stable",
                case.name
            );
        }
        check_golden(&format!("explain_{}.txt", case.name), &text);
    }
}

/// The perf gate: a fresh `perf --quick` report — every kernel and fleet
/// checksum, virtual cost and pruning counter — equals the committed
/// `BENCH_perf_quick.json` byte for byte. `IDS_BLESS` rewrites that file
/// (the fixture name climbs from `tests/golden/` to the repo root).
#[test]
fn golden_perf_quick_report() {
    use ids_bench::perf::{default_reps, default_rows, render_json, run_all};
    let (rows, reps) = (default_rows(true), default_reps(true));
    let json = render_json(true, rows, reps, &run_all(true, rows, reps));
    check_golden("../../../../BENCH_perf_quick.json", &json);
}

/// The committed full `perf` report is one the binary can still
/// produce: its header (mode, seed, rows, reps) is the full mode's.
/// Only the header is read, no wall-clock field.
#[test]
fn committed_full_perf_report_has_the_full_mode_header() {
    use ids_bench::perf::{default_reps, default_rows, render_json};
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_perf.json");
    let committed = std::fs::read_to_string(path).expect("BENCH_perf.json is committed");
    let full = render_json(false, default_rows(false), default_reps(false), &[]);
    let header = |report: &str| report.split("\"benches\"").next().map(str::to_owned);
    assert_eq!(header(&committed), header(&full));
}
