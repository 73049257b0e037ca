//! `repro`: regenerates every table and figure of *Evaluating Interactive
//! Data Systems* from this repository's implementation.
//!
//! ```text
//! repro --all                    # everything
//! repro --index                  # the artifact → module → target index
//! repro --table 8                # one table
//! repro --figure 13              # one figure
//! repro --robustness             # fault-injection robustness table
//! repro --progressive            # deadline-mode LCV/error tradeoff table
//! repro --adaptive               # open-loop vs closed-loop workload table
//! repro --fleet                  # multi-tenant fleet-serving table
//! repro --ablations              # the five design-choice sweeps
//! repro --sql                    # case-study SQL through the planner
//! repro --trace-out trace.json --figure 13
//!                                # also export a Chrome/Perfetto trace
//! repro --metrics-out run.tsv ...# write the metrics snapshot as TSV
//! IDS_SCALE=paper repro ...      # full study scale (slower)
//! ```

use std::collections::BTreeSet;

use ids_bench::Scale;
use ids_core::experiments::{
    ablations, adaptive, case1, case2, case3, fleet, methodology, robustness, scalability,
};
use ids_core::registry;
use ids_core::report;

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let trace_out = take_value_flag(&mut args, "--trace-out");
    let metrics_out = take_value_flag(&mut args, "--metrics-out");
    if trace_out.is_some() {
        // Tracing is observation-only: same-seed output tables are
        // identical with or without it (see tests/observability.rs).
        ids_obs::enable();
    }
    let scale = Scale::from_env();
    match parse(&args) {
        Command::Index => println!("{}", registry::render_index()),
        Command::All => {
            println!("{}", registry::render_index());
            print_methodology(&BTreeSet::from(["1", "3", "4", "5"]), Kind::Figure);
            print_methodology(&BTreeSet::from(["1", "2", "3", "4", "5", "6"]), Kind::Table);
            let c1 = case1::run(&scale.case1());
            println!("{}", c1.render());
            let c2 = case2::run(&scale.case2());
            println!("{}", c2.render());
            let c3 = case3::run(&scale.case3());
            println!("{}", c3.render());
            println!("{}", scalability::run(&scale.scalability()).render());
            println!("{}", robustness::run(&scale.robustness()).render());
            println!("{}", fleet::run(&scale.fleet()).render());
        }
        Command::Table(n) => print_table(&n, scale),
        Command::Figure(n) => print_figure(&n, scale),
        Command::Scalability => {
            println!("{}", scalability::run(&scale.scalability()).render());
        }
        Command::Robustness => {
            println!("{}", robustness::run(&scale.robustness()).render());
        }
        Command::Progressive => {
            println!(
                "{}",
                robustness::run_progressive(&scale.progressive()).render()
            );
        }
        Command::Adaptive => {
            println!("{}", adaptive::run(&scale.adaptive()).render());
        }
        Command::Fleet => {
            // Fleet telemetry is captured through the obs recorder and
            // served back out of the lakehouse tables, so the recorder
            // must be live for the run (restore its prior state after).
            let was_enabled = ids_obs::enabled();
            ids_obs::enable();
            let report = fleet::run(&scale.fleet());
            if !was_enabled && trace_out.is_none() {
                ids_obs::disable();
            }
            println!("{}", report.render());
            println!("{}", report.render_telemetry());
            // The weak-scaling shard curve: 10^6 sessions / 10^8 rows at
            // the 16-shard top point, p99 held flat by scatter-gather.
            println!(
                "{}",
                ids_bench::fleetbench::render(&ids_bench::fleetbench::shard_curve())
            );
        }
        Command::Ablations => print!("{}", ablations::render()),
        Command::Sql => {
            println!("{}", ids_bench::sqlrepro::render_all());
        }
        Command::Help(err) => {
            if let Some(e) = err {
                eprintln!("error: {e}\n");
            }
            eprintln!(
                "usage: repro [--all | --index | --table N | --figure N\n\
                 \x20            | --scalability | --robustness | --progressive\n\
                 \x20            | --adaptive | --fleet | --ablations | --sql]\n\
                 \x20      [--trace-out FILE] [--metrics-out FILE]\n\
                 scale: set IDS_SCALE=paper for full study sizes"
            );
            std::process::exit(2);
        }
    }
    finish_telemetry(trace_out.as_deref(), metrics_out.as_deref());
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

/// End-of-run telemetry: the per-phase wall/virtual table, the metrics
/// snapshot summary, and the requested trace / metrics files.
fn finish_telemetry(trace_out: Option<&str>, metrics_out: Option<&str>) {
    let rec = ids_obs::recorder();
    let phases = rec.phases();
    let phase_table = report::phase_summary(&phases);
    if !phase_table.is_empty() {
        println!("{phase_table}");
    }
    let snap = ids_obs::metrics().snapshot();
    if let Some(path) = metrics_out {
        if let Err(e) = std::fs::write(path, ids_obs::metrics_tsv(&snap)) {
            eprintln!("error: writing metrics snapshot to {path}: {e}");
            std::process::exit(1);
        }
        eprintln!("metrics snapshot written to {path}");
    }
    if let Some(path) = trace_out {
        println!("{}", report::metrics_summary(&snap));
        // Stream the trace to disk instead of materializing one string.
        let write_trace = |path: &str| -> std::io::Result<()> {
            use std::io::Write as _;
            let mut file = std::io::BufWriter::new(std::fs::File::create(path)?);
            ids_obs::chrome_trace_write(&rec.events(), &rec.tracks(), &mut file)?;
            file.flush()
        };
        if let Err(e) = write_trace(path) {
            eprintln!("error: writing trace to {path}: {e}");
            std::process::exit(1);
        }
        eprintln!(
            "trace with {} events written to {path} (open in ui.perfetto.dev or chrome://tracing)",
            rec.event_count()
        );
    }
}

enum Command {
    All,
    Index,
    Table(String),
    Figure(String),
    Scalability,
    Robustness,
    Progressive,
    Adaptive,
    Fleet,
    Ablations,
    Sql,
    Help(Option<String>),
}

enum Kind {
    Table,
    Figure,
}

fn parse(args: &[String]) -> Command {
    match args {
        [] => Command::All,
        [a] if a == "--all" => Command::All,
        [a] if a == "--index" => Command::Index,
        [a] if a == "--scalability" => Command::Scalability,
        [a] if a == "--robustness" => Command::Robustness,
        [a] if a == "--progressive" => Command::Progressive,
        [a] if a == "--adaptive" => Command::Adaptive,
        [a] if a == "--fleet" => Command::Fleet,
        [a] if a == "--ablations" => Command::Ablations,
        [a] if a == "--sql" => Command::Sql,
        [a, n] if a == "--table" => Command::Table(n.clone()),
        [a, n] if a == "--figure" => Command::Figure(n.clone()),
        [a] if a == "--help" || a == "-h" => Command::Help(None),
        other => Command::Help(Some(format!("unrecognized arguments: {other:?}"))),
    }
}

fn print_methodology(numbers: &BTreeSet<&str>, kind: Kind) {
    for n in numbers {
        match kind {
            Kind::Figure => print_figure(n, Scale::Bench),
            Kind::Table => print_table(n, Scale::Bench),
        }
    }
}

fn print_table(n: &str, scale: Scale) {
    match n {
        "1" => println!("{}", methodology::render_table1()),
        "2" => println!("{}", methodology::render_table2()),
        "3" => println!("{}", methodology::render_table3()),
        "4" => println!("{}", methodology::render_table4()),
        "5" => println!("{}", registry::render_table5()),
        "6" => println!("{}", registry::render_table6()),
        "7" => println!("{}", case1::run(&scale.case1()).render_table7()),
        "8" => println!("{}", case1::run(&scale.case1()).render_table8()),
        "9" => println!("{}", case3::run(&scale.case3()).render_table9()),
        "10" => println!("{}", case3::run(&scale.case3()).render_table10()),
        other => {
            eprintln!("unknown table `{other}` (the paper has Tables 1-10)");
            std::process::exit(2);
        }
    }
}

fn print_figure(n: &str, scale: Scale) {
    match n {
        "1" => println!("{}", methodology::render_fig1()),
        "3" => println!("{}", methodology::render_fig3()),
        "4" => println!("{}", methodology::render_fig4()),
        "5" => println!("{}", methodology::render_fig5()),
        "2" | "6" | "12" | "16" | "17" => {
            println!(
                "Fig {n} is an illustration (no data series); the mechanism it \
                 depicts is implemented — see `repro --index`."
            );
        }
        "7" => println!("{}", case1::run(&scale.case1()).render_fig7()),
        "8" => println!("{}", case1::run(&scale.case1()).render_fig8()),
        "9" => println!("{}", case1::run(&scale.case1()).render_fig9()),
        "10" => println!("{}", case1::run(&scale.case1()).render_fig10()),
        "11" => println!("{}", case2::run(&scale.case2()).render_fig11()),
        "13" => println!("{}", case2::run(&scale.case2()).render_fig13()),
        "14" => println!("{}", case2::run(&scale.case2()).render_fig14()),
        "15" => println!("{}", case2::run(&scale.case2()).render_fig15()),
        "18" => println!("{}", case3::run(&scale.case3()).render_fig18()),
        "19" | "20" => {
            let r = case3::run(&scale.case3());
            if n == "19" {
                println!("{}", r.render_table10());
                println!("(Fig 19 plots the same per-zoom movements Table 10 ranges summarize.)");
            } else {
                println!("{}", r.render_fig20());
            }
        }
        "21" => println!("{}", case3::run(&scale.case3()).render_fig21()),
        other => {
            eprintln!("unknown figure `{other}` (the paper has Figs 1-21)");
            std::process::exit(2);
        }
    }
}
