//! Wall-clock benchmark of the request path, driven from outside the
//! system through its public functions.
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     --workload all --seed 7 [--seconds 10] [--trace 1]
//! ```
//!
//! Each workload runs in a process of its own (with `--workload all`, one
//! child per workload), so peak memory, allocator state and the
//! process-global `ids-obs` recorder never leak from one into the next.
//! The last line of a single-workload run is the JSON result object.

mod answers;
mod catalog;
mod dense;
mod fleet;
mod harness;
mod json;
mod request;
mod smallquery;
mod sqlgen;
mod stats;
mod trace;

use std::process::{Command, ExitCode};

use harness::{Report, RunConfig, Workload};

const USAGE: &str = "usage: --workload <name|all> [--seed N] [--seconds S] [--trace 0|1]";

/// Runs workload `name`, or `None` for a name not in the catalog.
fn run_workload(name: &str, config: RunConfig) -> Option<Report> {
    let build: &dyn Fn(u64, usize) -> Box<dyn Workload> = match name {
        "crossfilter_dense" => &|seed, scale| Box::new(dense::CrossfilterDense::new(seed, scale)),
        "smallquery_frontend" => {
            &|seed, scale| Box::new(smallquery::SmallqueryFrontend::new(seed, scale))
        }
        "sharded_scatter" => &|seed, scale| Box::new(dense::ShardedScatter::new(seed, scale)),
        "fleet_serve" => &|seed, scale| Box::new(fleet::FleetServe::new(seed, scale)),
        _ => return None,
    };
    Some(harness::run(name, config, build))
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut out = Args {
        workload: "all".into(),
        seed: 7,
        seconds: catalog::RUN_SECONDS as f64,
        trace: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => out.workload = value.clone(),
            "--seed" => out.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                out.seconds = value.parse().map_err(|_| bad())?;
                if !(out.seconds > 0.0 && out.seconds <= 3_600.0) {
                    return Err(bad());
                }
            }
            "--trace" => {
                out.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(out)
}

/// One child process per workload, output passed through; fails if any
/// child does.
fn run_all(args: &Args) -> ExitCode {
    let Ok(exe) = std::env::current_exe() else {
        eprintln!("cannot find this executable to start the workloads");
        return ExitCode::FAILURE;
    };
    let mut all_ok = true;
    for (name, _) in catalog::WORKLOADS {
        println!("== {name}");
        let status = Command::new(&exe)
            .args(["--workload", name])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .status();
        all_ok &= status.is_ok_and(|s| s.success());
    }
    if all_ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&raw) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if args.workload == "all" {
        return run_all(&args);
    }
    let config = RunConfig {
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        scale: 1,
    };
    let Some(report) = run_workload(&args.workload, config) else {
        eprintln!("unknown workload {}\n{USAGE}", args.workload);
        return ExitCode::from(2);
    };
    print!("{}", report.table());
    println!("{}", report.json_line());
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        eprintln!("{} of {} ops failed", report.failed, report.attempted);
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// 1/100 of every input size, through the code path the full runs
    /// take.
    fn small(seed: u64, trace: bool) -> RunConfig {
        RunConfig {
            seed,
            seconds: 0.3,
            trace,
            scale: 100,
        }
    }

    /// The metrics the catalog marks exact, which must repeat bit for
    /// bit at one seed.
    fn exact(report: &Report) -> Vec<(&'static str, u64)> {
        let marked: Vec<_> = report.metrics.iter().filter(|m| m.exact).collect();
        assert!(!marked.is_empty());
        marked.iter().map(|m| (m.name, m.value.to_bits())).collect()
    }

    // One test for all workloads, run one after the other: the fleet
    // round switches the process-global obs recorder on and off, and the
    // sharded gather records into it when it is on.
    #[test]
    fn every_workload_runs_end_to_end_and_its_exact_metrics_follow_the_seed() {
        for (name, _) in catalog::WORKLOADS {
            let plain = run_workload(name, small(7, false)).expect("a catalog workload");
            assert!(plain.correct(), "{name}: {plain:?}");
            assert!(plain.attempted > 0);
            let names: Vec<&str> = plain.metrics.iter().map(|m| m.name).collect();
            let wanted: Vec<&str> = catalog::END_TO_END.iter().map(|m| m.name).collect();
            assert_eq!(names, wanted);
            for m in &plain.metrics {
                assert!(m.value > 0.0, "{name}: {} must never read 0", m.name);
            }

            let first = run_workload(name, small(7, true)).expect("a catalog workload");
            let again = run_workload(name, small(7, true)).expect("a catalog workload");
            let other = run_workload(name, small(8, true)).expect("a catalog workload");
            for report in [&first, &again, &other] {
                assert!(report.correct(), "{name}: {report:?}");
                let names: Vec<&str> = report.metrics.iter().map(|m| m.name).collect();
                let wanted: Vec<&str> = catalog::PER_LAYER.iter().map(|m| m.name).collect();
                assert_eq!(names, wanted);
                assert_eq!(report.value("op.failed_frac"), Some(0.0));
            }
            assert_eq!(exact(&first), exact(&again), "{name}: same seed");
            assert_ne!(exact(&first), exact(&other), "{name}: seeds 7 and 8");

            // Layer self times add up to the op span; what no layer span
            // covers is the harness's own glue.
            let unattributed = first
                .value("trace.unattributed_frac")
                .expect("in the catalog");
            assert!(
                (0.0..0.25).contains(&unattributed),
                "{name}: {unattributed}"
            );
            let trace_file = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
                .join("out")
                .join(format!("{name}.trace.json"));
            let trace = std::fs::read_to_string(trace_file).expect("the traced run wrote it");
            assert!(json::is_valid(&trace), "{name}");
        }
    }

    #[test]
    fn arguments_are_checked() {
        let args =
            |list: &[&str]| parse_args(&list.iter().map(|s| s.to_string()).collect::<Vec<_>>());
        let ok = args(&[
            "--workload",
            "fleet_serve",
            "--seed",
            "9",
            "--seconds",
            "3",
            "--trace",
            "1",
        ])
        .expect("well-formed");
        assert_eq!(
            (ok.workload.as_str(), ok.seed, ok.seconds, ok.trace),
            ("fleet_serve", 9, 3.0, true)
        );
        let defaults = args(&[]).expect("no flags is fine");
        assert_eq!((defaults.workload.as_str(), defaults.seed), ("all", 7));
        for bad in [
            &["--seed"][..],
            &["--seed", "x"],
            &["--trace", "2"],
            &["--seconds", "0"],
            &["--seconds", "nan"],
            &["--frobnicate", "1"],
        ] {
            assert!(args(bad).is_err(), "{bad:?}");
        }
        assert!(run_workload("no_such_workload", small(1, false)).is_none());
    }
}
