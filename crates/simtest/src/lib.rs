//! # ids-simtest — deterministic simulation testing
//!
//! FoundationDB-style simulation testing for the whole repository: one
//! seed expands into a full end-to-end scenario — dataset shapes, a
//! crossfilter/scrolling/composite session trace on a device profile, a
//! fault plan, resilience and admission policies, and a synthesis
//! thread count — which runs through the real `engine`/`serve` pipeline
//! on the virtual clock and is judged by a library of invariant
//! oracles:
//!
//! - **replay-determinism** — the same seed produces a byte-identical
//!   run digest, twice;
//! - **thread-invariance** — the digest is identical across 1/2/4/8
//!   synthesis threads;
//! - **admission-conservation** — `admitted + shed == offered`;
//! - **no-wedge** — every queue drains at a finite virtual instant,
//!   even under node loss;
//! - **lcv-monotonicity** — loosening the latency budget never raises
//!   the violation count;
//! - **qif-conservation** — QIF windowing loses no timestamps;
//! - **differential** — `engine::exec` agrees exactly with a naive
//!   row-at-a-time reference interpreter on scan/filter/histogram/join;
//! - **partial-bounds** — `Partial` answers carry legal fractions and
//!   stay within the degradation round-trip's stated error bounds,
//!   `Exact` answers match a plain re-execution, `Failed` answers are
//!   empty placeholders;
//! - **obs-stability** — exported traces and metrics are byte-stable
//!   across identical runs;
//! - **lakehouse-determinism** — telemetry tables fold byte-identically
//!   and the vectorized p99-by-tenant kernel matches its reference;
//! - **progressive-anytime** — online aggregation ends exact, brackets
//!   the truth at the configured coverage, and never widens its bound;
//! - **shard-invariance** — scatter-gather over 1/4/16 partitions merges
//!   to the reference answer with byte-stable costs;
//! - **planner-equivalence** — plan text is replay-stable, before and
//!   after the plan executes;
//! - **adaptive-determinism** — the closed feedback loop (behavior model
//!   reacting to answers, admission shedding, deadline-bounded partials)
//!   replays byte-identically and is invariant to gather threads and
//!   shard count, including the interface mined from its own trace.
//!
//! On failure, [`shrink()`] minimizes the scenario while preserving the
//! failing oracle, and the result serializes to a self-contained TOML
//! repro (see [`toml`]) suitable for check-in under `tests/corpus/`.
//!
//! The `simtest` binary in `ids-bench` drives [`explore`] with the
//! `IDS_SIMTEST_SCENARIOS`, `IDS_SIMTEST_SEED`, and
//! `IDS_SIMTEST_TIME_BUDGET` environment knobs.

#![warn(missing_docs)]

pub mod oracle;
pub mod pipeline;
pub mod reference;
pub mod scenario;
pub mod shrink;
pub mod toml;

pub use oracle::{check_scenario, OracleReport, Verdict};
pub use pipeline::{adaptive_run, behavior_config, closed_loop_params, run_pipeline, RunArtifacts};
pub use reference::{differential_check, reference_execute};
pub use scenario::{derive_seed, QuerySpec, Scenario, SessionShape, TableSpec};
pub use shrink::{shrink, ShrinkOutcome};
pub use toml::{from_toml, to_toml};

use std::time::Instant;

/// One minimized failure found during exploration.
#[derive(Debug, Clone)]
pub struct Failure {
    /// Index of the scenario in the exploration sequence.
    pub index: usize,
    /// The scenario's seed (derive of the master seed and index).
    pub seed: u64,
    /// Name of the oracle that failed.
    pub oracle: String,
    /// Failure detail from the original (unshrunk) scenario.
    pub detail: String,
    /// The minimized scenario.
    pub minimized: Scenario,
    /// Self-contained repro file contents, ready for `tests/corpus/`.
    pub repro_toml: String,
}

/// Outcome of one exploration run.
#[derive(Debug, Clone)]
pub struct ExploreReport {
    /// Master seed the run derives everything from.
    pub master_seed: u64,
    /// Scenarios requested.
    pub requested: usize,
    /// Scenarios actually checked (fewer if the time budget expired).
    pub completed: usize,
    /// One line per checked scenario, in order.
    pub lines: Vec<String>,
    /// Minimized failures, in discovery order.
    pub failures: Vec<Failure>,
}

impl ExploreReport {
    /// `true` when every checked scenario passed every oracle.
    pub fn all_passed(&self) -> bool {
        self.failures.is_empty()
    }

    /// Renders the per-scenario verdict lines plus a footer.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for line in &self.lines {
            out.push_str(line);
            out.push('\n');
        }
        out.push_str(&format!(
            "simtest: {}/{} scenarios checked, {} failure(s) (master seed {:#x})\n",
            self.completed,
            self.requested,
            self.failures.len(),
            self.master_seed
        ));
        out
    }
}

/// Builds the repro file for a minimized failure.
fn repro_file(
    master_seed: u64,
    index: usize,
    oracle: &str,
    detail: &str,
    min: &Scenario,
) -> String {
    let mut out = String::new();
    out.push_str("# ids-simtest minimized repro\n");
    out.push_str(&format!(
        "# found exploring master seed {master_seed:#x}, scenario index {index}\n"
    ));
    out.push_str(&format!("# oracle: {oracle}\n"));
    if let Some(first) = detail.lines().next() {
        if !first.is_empty() {
            out.push_str(&format!("# detail: {first}\n"));
        }
    }
    out.push_str(&to_toml(min));
    out
}

/// Explores `count` generated scenarios from `master_seed`, checking
/// every oracle on each and shrinking any failure to a minimized repro.
///
/// With `deadline: None` the run is a pure function of
/// `(master_seed, count)` — byte-identical lines, verdicts, and repro
/// files on every host. A deadline stops cleanly between scenarios
/// (never mid-check), so a time-boxed run is a prefix of the unlimited
/// one.
pub fn explore(master_seed: u64, count: usize, deadline: Option<Instant>) -> ExploreReport {
    let mut report = ExploreReport {
        master_seed,
        requested: count,
        completed: 0,
        lines: Vec::new(),
        failures: Vec::new(),
    };
    for index in 0..count {
        if let Some(d) = deadline {
            if Instant::now() >= d {
                report
                    .lines
                    .push(format!("scenario {index}: time budget expired, stopping"));
                break;
            }
        }
        let seed = derive_seed(master_seed, index as u64);
        let scenario = Scenario::generate(seed);
        let verdict = check_scenario(&scenario);
        report.completed += 1;
        match verdict.first_failure() {
            None => {
                report.lines.push(format!(
                    "scenario {index} seed {seed:#018x}: {}",
                    verdict.summary()
                ));
            }
            Some(f) => {
                let oracle_name = f.name;
                let detail = f.detail.clone();
                report.lines.push(format!(
                    "scenario {index} seed {seed:#018x}: {}",
                    verdict.summary()
                ));
                let outcome = shrink(&scenario, &mut |cand: &Scenario| {
                    check_scenario(cand).first_failure().map(|g| g.name) == Some(oracle_name)
                });
                report.lines.push(format!(
                    "scenario {index}: shrunk in {} checks to {} queries / {} fact rows",
                    outcome.checks,
                    outcome.scenario.queries.len(),
                    outcome.scenario.table.rows
                ));
                report.failures.push(Failure {
                    index,
                    seed,
                    oracle: oracle_name.to_string(),
                    detail: detail.clone(),
                    minimized: outcome.scenario.clone(),
                    repro_toml: repro_file(
                        master_seed,
                        index,
                        oracle_name,
                        &detail,
                        &outcome.scenario,
                    ),
                });
            }
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn explore_is_deterministic_and_clean_on_the_default_seed() {
        let a = explore(0x1d5, 2, None);
        let b = explore(0x1d5, 2, None);
        assert_eq!(a.render(), b.render(), "exploration must be byte-stable");
        assert!(a.all_passed(), "{}", a.render());
        assert_eq!(a.completed, 2);
    }

    #[test]
    fn repro_files_round_trip() {
        let s = Scenario::generate(derive_seed(3, 3));
        let text = repro_file(3, 3, "differential", "engine != reference", &s);
        assert!(text.starts_with("# ids-simtest minimized repro"));
        assert_eq!(from_toml(&text).unwrap(), s);
    }
}
