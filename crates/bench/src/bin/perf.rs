//! `perf`: deterministic micro-bench harness for the vectorized kernels.
//!
//! Thin CLI wrapper over [`ids_bench::perf`] (the machinery lives in the
//! library so `tests/golden.rs` can byte-compare a fresh quick run with
//! the committed `BENCH_perf_quick.json`).
//!
//! ```text
//! perf                   # full run → BENCH_perf.json (wall times + speedups)
//! perf --quick           # small rows, deterministic fields only (the perf
//!                        # golden: must equal BENCH_perf_quick.json)
//! perf --out FILE        # write the report somewhere else
//! ```
//!
//! The `--quick` report intentionally omits every wall-clock field so it
//! is byte-identical on every run: same seed, same rows, same checksums,
//! same virtual costs, same pruning counters — always.

use ids_bench::perf::{default_reps, default_rows, render_json, run_all};

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let quick = take_flag(&mut args, "--quick");
    let out = take_value_flag(&mut args, "--out").unwrap_or_else(|| "BENCH_perf.json".to_string());
    if !args.is_empty() {
        eprintln!("usage: perf [--quick] [--out FILE]");
        std::process::exit(2);
    }

    let (rows, reps) = (default_rows(quick), default_reps(quick));

    let reports = run_all(quick, rows, reps);
    let json = render_json(quick, rows, reps, &reports);
    if let Err(e) = std::fs::write(&out, &json) {
        eprintln!("error: writing {out}: {e}");
        std::process::exit(1);
    }
    eprint!("{json}");
    eprintln!("report written to {out}");
}

fn take_flag(args: &mut Vec<String>, flag: &str) -> bool {
    if let Some(pos) = args.iter().position(|a| a == flag) {
        args.remove(pos);
        true
    } else {
        false
    }
}

/// Removes `flag VALUE` from `args` if present, returning the value.
fn take_value_flag(args: &mut Vec<String>, flag: &str) -> Option<String> {
    let pos = args.iter().position(|a| a == flag)?;
    if pos + 1 >= args.len() {
        eprintln!("error: {flag} requires a file path argument");
        std::process::exit(2);
    }
    let value = args.remove(pos + 1);
    args.remove(pos);
    Some(value)
}
