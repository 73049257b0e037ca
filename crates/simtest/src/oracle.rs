//! The invariant-oracle library: every property a healthy stack must
//! satisfy on *any* scenario, however adversarial the seed.
//!
//! Each oracle is a named pass/fail judgement with a human-readable
//! detail string; [`check_scenario`] runs them all and returns the full
//! [`Verdict`]. The shrinker re-runs the same checks on mutated
//! scenarios, keeping a mutation only if the *same named oracle* still
//! fails — so a minimized repro reproduces the original failure, not
//! some other one it stumbled into while shrinking.
//!
//! Scenario execution reads and writes observability state (the
//! virtual-time cursor, the metrics registry), which belongs to the
//! calling thread: checks on different threads cannot see each other,
//! and a check leaves nothing behind that its own next run depends on.

use ids_engine::progressive::{
    degrade_result, interval_coverage, is_anytime_consistent, ProgressiveExecutor,
};
use ids_engine::{Backend, ResultQuality, ResultSet};
use ids_simclock::SimTime;

use crate::pipeline::{adaptive_run, build_replay_env, run_pipeline, RunArtifacts};
use crate::reference::{agree, Fixture};
use crate::scenario::Scenario;

/// One oracle's judgement on one scenario.
#[derive(Debug, Clone)]
pub struct OracleReport {
    /// Stable oracle name (shrinker identity and corpus bookkeeping).
    pub name: &'static str,
    /// Whether the invariant held.
    pub passed: bool,
    /// Failure description (empty when passed).
    pub detail: String,
}

/// All oracle judgements for one scenario.
#[derive(Debug, Clone, Default)]
pub struct Verdict {
    /// One report per oracle, in fixed order.
    pub reports: Vec<OracleReport>,
}

impl Verdict {
    fn push(&mut self, name: &'static str, passed: bool, detail: String) {
        self.reports.push(OracleReport {
            name,
            passed,
            detail: if passed { String::new() } else { detail },
        });
    }

    /// `true` when every oracle held.
    pub fn all_passed(&self) -> bool {
        self.reports.iter().all(|r| r.passed)
    }

    /// The first failing oracle, if any.
    pub fn first_failure(&self) -> Option<&OracleReport> {
        self.reports.iter().find(|r| !r.passed)
    }

    /// One-line summary: `ok (12 oracles)` or `FAIL <name>: <detail>`.
    pub fn summary(&self) -> String {
        match self.first_failure() {
            None => format!("ok ({} oracles)", self.reports.len()),
            Some(f) => format!("FAIL {}: {}", f.name, f.detail.lines().next().unwrap_or("")),
        }
    }
}

/// Runs every oracle against a scenario.
///
/// Each leg runs once: the traced replay pair (`base` and `again`), the
/// untraced thread legs, the differential fixture, and the adaptive
/// legs; every oracle reads the legs it compares.
pub fn check_scenario(s: &Scenario) -> Verdict {
    let mut v = Verdict::default();
    let base = traced_run(s);
    let again = traced_run(s);

    // replay-determinism: the same seed replays to a byte-identical
    // digest.
    v.push(
        "replay-determinism",
        base.run.digest == again.run.digest,
        diff_digests(&base.run.digest, &again.run.digest),
    );

    // thread-invariance: the digest is the same at 1/2/4/8 synthesis
    // threads. The thread legs run untraced, so tracing must not move
    // the digest either.
    let mut thread_detail = String::new();
    for threads in [1usize, 2, 4, 8] {
        if threads == s.threads {
            continue;
        }
        let alt = run_pipeline(s, threads);
        if alt.digest != base.run.digest {
            thread_detail = format!(
                "digest differs at {threads} untraced threads (base {} traced): {}",
                s.threads,
                diff_digests(&base.run.digest, &alt.digest)
            );
            break;
        }
    }
    v.push("thread-invariance", thread_detail.is_empty(), thread_detail);

    // admission-conservation: admitted + shed == offered, and queries
    // are offered at nondecreasing instants (the order the worker pool
    // and QIF windowing require).
    let run = &base.run;
    let adm = &run.admission;
    let in_order = run.offered_at.windows(2).all(|w| w[0] <= w[1]);
    let conserved = adm.admitted + adm.shed.total() == run.offered
        && run.baseline.admitted == run.offered
        && run.baseline.shed.total() == 0
        && in_order;
    v.push(
        "admission-conservation",
        conserved,
        format!(
            "admitted {} + shed {} vs offered {}; baseline admitted {} shed {}; \
             offered in order: {in_order}",
            adm.admitted,
            adm.shed.total(),
            run.offered,
            run.baseline.admitted,
            run.baseline.shed.total()
        ),
    );

    // no-wedge: every queue drains at a finite instant and every
    // replayed query finishes after it was issued.
    let wedged_fleet =
        run.admission.drained_at == SimTime::MAX || run.baseline.drained_at == SimTime::MAX;
    let bad_timing = run.replay.iter().find(|r| {
        r.timing.finished_at < r.timing.started_at || r.timing.started_at < r.timing.issued_at
    });
    v.push(
        "no-wedge",
        !wedged_fleet && bad_timing.is_none(),
        format!(
            "fleet wedged: {wedged_fleet}; bad replay timing: {:?}",
            bad_timing.map(|r| r.timing)
        ),
    );

    // differential: engine::exec agrees with the reference interpreter.
    let fixture = Fixture::new(s.seed, &s.table, &s.queries);
    let diff = fixture.differential();
    v.push("differential", diff.is_ok(), diff.err().unwrap_or_default());

    // partial-bounds: Exact answers match a plain re-execution; Partial
    // answers carry a legal fraction and stay within the degradation
    // round-trip's stated bounds; Failed answers are empty placeholders.
    let integrity = replay_integrity(s, run);
    v.push(
        "partial-bounds",
        integrity.is_ok(),
        integrity.err().unwrap_or_default(),
    );

    // obs-stability: the traced pair exports byte-identical traces and
    // metrics.
    v.push(
        "obs-stability",
        base.trace == again.trace && base.tsv == again.tsv,
        format!(
            "trace stable: {}; metrics stable: {}",
            base.trace == again.trace,
            base.tsv == again.tsv
        ),
    );

    // lakehouse-determinism: the traced pair folds into byte-identical
    // telemetry tables, and the vectorized p99-by-tenant query agrees
    // exactly with the row-at-a-time reference interpreter over them.
    let lake_detail = lakehouse_determinism(&base, &again);
    v.push("lakehouse-determinism", lake_detail.is_empty(), lake_detail);

    // progressive-anytime: block-sampled online aggregation of every
    // mergeable differential query (a) ends byte-identical to the
    // reference answer, (b) brackets the true per-bin values with its
    // confidence intervals at the configured coverage, and (c) reports a
    // never-increasing error bound across refinements.
    let prog_detail = progressive_anytime(s, &fixture);
    v.push("progressive-anytime", prog_detail.is_empty(), prog_detail);

    // shard-invariance: partitioning the fact table across 1/4/16 shards
    // (hash-rows, hash-key, and range schemes) and scatter-gathering
    // every mergeable query merges to the exact reference answer, with
    // byte-identical costs and per-shard telemetry on replay.
    let shard_detail = shard_invariance(s, &fixture);
    v.push("shard-invariance", shard_detail.is_empty(), shard_detail);

    // planner-equivalence: plan text is replay-stable, before and after
    // the plan executes. (Results against the reference interpreter are
    // the differential oracle's: it runs the same `run_query` on the
    // same tables and queries.)
    let planner_detail = planner_equivalence(&fixture);
    v.push(
        "planner-equivalence",
        planner_detail.is_empty(),
        planner_detail,
    );

    // adaptive-determinism: the closed feedback loop — behavior model
    // reacting to answers, admission shedding, deadline degradation to
    // Partial — replays byte-identically and is invariant to gather
    // threads (1/2/4/8) and shard count (1/4/16), including the
    // interface mined back from its own request trace.
    let adaptive_detail = adaptive_determinism(s);
    v.push(
        "adaptive-determinism",
        adaptive_detail.is_empty(),
        adaptive_detail,
    );

    v
}

/// The `adaptive-determinism` oracle: drives the closed-loop adaptive
/// session once as the base leg, then demands byte-identical digests on
/// replay, across gather thread counts, and across shard counts.
/// Feedback latencies are shard-invariant by construction (costs come
/// from the unsharded backend), so any divergence here is a real
/// nondeterminism in the loop or a sharded-result divergence.
fn adaptive_determinism(s: &Scenario) -> String {
    let base = adaptive_run(s, s.threads, 4);
    let again = adaptive_run(s, s.threads, 4);
    if base != again {
        return format!(
            "closed loop not replay-stable: {}",
            diff_digests(&base, &again)
        );
    }
    for threads in [1usize, 2, 4, 8] {
        if threads == s.threads {
            continue;
        }
        let leg = adaptive_run(s, threads, 4);
        if leg != base {
            return format!(
                "closed loop diverges at {threads} gather threads (base {}): {}",
                s.threads,
                diff_digests(&base, &leg)
            );
        }
    }
    for shards in [1usize, 4, 16] {
        if shards == 4 {
            continue;
        }
        let leg = adaptive_run(s, s.threads, shards);
        if leg != base {
            return format!(
                "closed loop diverges at {shards} shards (base 4): {}",
                diff_digests(&base, &leg)
            );
        }
    }
    String::new()
}

/// The `planner-equivalence` oracle: for every differential query that
/// plans, demands that a replan after executing the plan render
/// byte-identical text.
fn planner_equivalence(fixture: &Fixture) -> String {
    let db = fixture.backend.database();
    for (i, spec) in fixture.queries.iter().enumerate() {
        let query = spec.query();
        let Ok(plan) = ids_engine::plan(&db, &query) else {
            continue;
        };
        let _ = plan.execute(&db);
        match ids_engine::plan(&db, &query) {
            Ok(again) if again.explain() == plan.explain() => {}
            Ok(_) => return format!("query {i} {spec:?}: plan text not replay-stable"),
            Err(e) => return format!("query {i} {spec:?}: replan failed ({e})"),
        }
    }
    String::new()
}

/// The `shard-invariance` oracle: builds each (scheme, shard count)
/// cluster over the fixture's `fact` once, scatter-gathers every
/// mergeable query on it, and demands the merged answer [`agree`] with
/// the reference, with the whole outcome (result, virtual costs,
/// per-shard breakdown) replaying byte-identically.
fn shard_invariance(s: &Scenario, fixture: &Fixture) -> String {
    use ids_shard::{partition_table, PartitionScheme, ScatterGather};
    if fixture.mergeable().next().is_none() {
        return String::new();
    }
    let schemes = [
        PartitionScheme::HashRows,
        PartitionScheme::hash_key("k"),
        PartitionScheme::range("v"),
    ];
    for scheme in &schemes {
        for shards in [1usize, 4, 16] {
            let at = format!("{} x{shards}", scheme.describe());
            let parts = match partition_table(&fixture.fact, scheme, s.seed, shards) {
                Ok(p) => p,
                Err(e) => return format!("partitioning fact under {at} failed: {e}"),
            };
            let dbs: Vec<ids_engine::Database> = parts
                .into_iter()
                .map(|t| {
                    let db = ids_engine::Database::new();
                    db.register(t);
                    db
                })
                .collect();
            let sg = ScatterGather::over(dbs).with_threads(s.threads);
            for (i, spec, reference) in fixture.mergeable() {
                let query = spec.query();
                let out = sg.execute(&query);
                if let Err(e) = agree(reference, out.as_ref().map(|o| Some(&o.result))) {
                    return format!("query {i} {spec:?}: scatter-gather at {at} {e}");
                }
                let Ok(out) = out else { continue };
                if out.shards() != shards {
                    return format!(
                        "query {i}: {} shards executed, expected {shards}",
                        out.shards()
                    );
                }
                let again = sg
                    .execute(&query)
                    .expect("an accepted plan replays without error");
                let stable = again.result == out.result
                    && again.elapsed == out.elapsed
                    && again.total_work == out.total_work
                    && again.per_shard == out.per_shard;
                if !stable {
                    return format!(
                        "query {i} {spec:?}: shard outcome not byte-stable on replay at {at}"
                    );
                }
            }
        }
    }
    String::new()
}

/// The `progressive-anytime` oracle: runs the progressive executor over
/// the fixture's tables and checks the anytime contract against the
/// reference answers.
fn progressive_anytime(s: &Scenario, fixture: &Fixture) -> String {
    use ids_engine::progressive::CONFIDENCE as COVERAGE;
    let executor = ProgressiveExecutor::new(fixture.backend.database()).with_seed(s.seed);
    for (i, spec, reference) in fixture.mergeable() {
        let run = executor.run(&spec.query());
        let last = run.as_ref().map(|steps| steps.last().map(|r| &r.estimate));
        if let Err(e) = agree(reference, last) {
            return format!("query {i} {spec:?}: progressive {e}");
        }
        let (Ok(refinements), Ok(exact)) = (&run, reference) else {
            continue;
        };
        if !is_anytime_consistent(refinements, exact) {
            return format!(
                "query {i} {spec:?}: anytime contract violated (final must equal \
                 the reference answer bit-for-bit with a monotone error bound)"
            );
        }
        let coverage = interval_coverage(refinements, exact);
        if coverage < COVERAGE {
            return format!("query {i} {spec:?}: interval coverage {coverage:.3} below {COVERAGE}");
        }
    }
    String::new()
}

/// The `lakehouse-determinism` oracle: byte-compares the telemetry
/// tables built from the traced pair, then runs the kernel-vs-reference
/// differential.
fn lakehouse_determinism(cap_a: &TracedRun, cap_b: &TracedRun) -> String {
    use ids_lakehouse::{reference_p99_by_tenant, render_table, Lakehouse, TimeWindow};
    let ingest = |cap: &TracedRun| {
        let mut lake = Lakehouse::new();
        lake.ingest_events(&cap.events, &cap.tracks);
        lake
    };
    let lake_a = ingest(cap_a);
    let lake_b = ingest(cap_b);
    let tables = |lake: &Lakehouse| -> Result<(String, String), String> {
        let spans = lake.spans_table().map_err(|e| e.to_string())?;
        let counters = lake.counters_table().map_err(|e| e.to_string())?;
        Ok((
            render_table(&spans, usize::MAX),
            render_table(&counters, usize::MAX),
        ))
    };
    let (spans_a, counters_a) = match tables(&lake_a) {
        Ok(t) => t,
        Err(e) => return format!("building telemetry tables failed: {e}"),
    };
    let (spans_b, counters_b) = match tables(&lake_b) {
        Ok(t) => t,
        Err(e) => return format!("building telemetry tables failed: {e}"),
    };
    if spans_a != spans_b {
        return format!(
            "telemetry_spans diverged across replays: {}",
            diff_digests(&spans_a, &spans_b)
        );
    }
    if counters_a != counters_b {
        return format!(
            "telemetry_counters diverged across replays: {}",
            diff_digests(&counters_a, &counters_b)
        );
    }
    let mut queries = match lake_a.queries() {
        Ok(q) => q,
        Err(e) => return format!("building telemetry queries failed: {e}"),
    };
    let window = TimeWindow::all();
    let kernel = match queries.p99_by_tenant(window) {
        Ok(k) => k,
        Err(e) => return format!("kernel p99_by_tenant failed: {e}"),
    };
    let reference = match reference_p99_by_tenant(queries.spans(), window) {
        Ok(r) => r,
        Err(e) => return format!("reference p99_by_tenant failed: {e}"),
    };
    if kernel != reference {
        return format!(
            "kernel p99_by_tenant disagrees with row-at-a-time reference: \
             {kernel:?} vs {reference:?}"
        );
    }
    String::new()
}

/// First line where two digests diverge.
fn diff_digests(a: &str, b: &str) -> String {
    for (la, lb) in a.lines().zip(b.lines()) {
        if la != lb {
            return format!("`{la}` vs `{lb}`");
        }
    }
    if a.len() != b.len() {
        return format!("lengths differ: {} vs {}", a.len(), b.len());
    }
    String::new()
}

fn replay_integrity(s: &Scenario, base: &RunArtifacts) -> Result<(), String> {
    let (plain, _) = build_replay_env(s);
    for (i, r) in base.replay.iter().enumerate() {
        let exact = plain
            .execute(&r.query)
            .map_err(|e| format!("replay {i}: plain re-execution failed: {e}"))?
            .result;
        match r.outcome.quality {
            ResultQuality::Exact => {
                if r.outcome.result != exact {
                    return Err(format!(
                        "replay {i}: Exact result diverges from plain re-execution"
                    ));
                }
            }
            ResultQuality::Partial {
                fraction,
                error_bound,
            } => {
                if !(fraction > 0.0 && fraction <= 1.0) {
                    return Err(format!("replay {i}: illegal fraction {fraction}"));
                }
                if !(error_bound.is_finite() && error_bound >= 0.0) {
                    return Err(format!("replay {i}: illegal error bound {error_bound}"));
                }
                let expected = degrade_result(exact.clone(), fraction);
                if r.outcome.result != expected {
                    return Err(format!(
                        "replay {i}: Partial result is not the degradation of the exact answer"
                    ));
                }
                // And the degraded estimate honors its stated bound (the
                // round-trip loses at most one rounding step per scale,
                // which is exactly what the degrade path reports).
                let bound = error_bound.min(0.5 / fraction + 1.0);
                if let (ResultSet::Count(est), ResultSet::Count(truth)) =
                    (&r.outcome.result, &exact)
                {
                    let err = (*est as f64 - *truth as f64).abs();
                    if err > bound {
                        return Err(format!(
                            "replay {i}: count estimate {est} off by {err} > bound {bound} at fraction {fraction}"
                        ));
                    }
                }
                if let (ResultSet::Histogram(est), ResultSet::Histogram(truth)) =
                    (&r.outcome.result, &exact)
                {
                    for (bin, (&e, &t)) in est.counts().iter().zip(truth.counts()).enumerate() {
                        let err = (e as f64 - t as f64).abs();
                        if err > bound {
                            return Err(format!(
                                "replay {i}: bin {bin} estimate {e} off by {err} > bound {bound}"
                            ));
                        }
                    }
                }
            }
            ResultQuality::Failed => {
                let empty = match &r.outcome.result {
                    ResultSet::Count(c) => *c == 0,
                    ResultSet::Histogram(h) => h.total() == 0,
                    ResultSet::Rows(rows) => rows.is_empty(),
                };
                if !empty {
                    return Err(format!("replay {i}: Failed result is not a placeholder"));
                }
            }
        }
    }
    Ok(())
}

/// One pipeline run with tracing on: its artifacts, its exported Chrome
/// trace JSON and metrics TSV (`obs-stability`), and the raw events and
/// track names `lakehouse-determinism` folds into lakehouse tables.
struct TracedRun {
    run: RunArtifacts,
    trace: String,
    tsv: String,
    events: Vec<ids_obs::TraceEvent>,
    tracks: Vec<String>,
}

/// Runs the pipeline with tracing enabled and captures its telemetry.
fn traced_run(s: &Scenario) -> TracedRun {
    ids_obs::reset_all();
    ids_obs::enable();
    let run = run_pipeline(s, s.threads);
    let rec = ids_obs::recorder();
    let events = rec.events();
    let tracks = rec.tracks();
    let trace = ids_obs::chrome_trace_json(&events, &tracks);
    let tsv = ids_obs::metrics_tsv(&ids_obs::metrics().snapshot());
    ids_obs::disable();
    ids_obs::reset_all();
    TracedRun {
        run,
        trace,
        tsv,
        events,
        tracks,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::derive_seed;

    #[test]
    fn a_healthy_scenario_passes_every_oracle() {
        let s = Scenario::generate(derive_seed(41, 2));
        let v = check_scenario(&s);
        let names: Vec<&str> = v.reports.iter().map(|r| r.name).collect();
        assert_eq!(
            names,
            [
                "replay-determinism",
                "thread-invariance",
                "admission-conservation",
                "no-wedge",
                "differential",
                "partial-bounds",
                "obs-stability",
                "lakehouse-determinism",
                "progressive-anytime",
                "shard-invariance",
                "planner-equivalence",
                "adaptive-determinism",
            ],
            "the shrinker keys on the first failure in this order"
        );
        assert!(v.all_passed(), "{}", v.summary());
        assert!(v.summary().starts_with("ok ("));
    }

    #[test]
    fn verdict_reports_first_failure() {
        let mut v = Verdict::default();
        v.push("a", true, String::new());
        v.push("b", false, "broke\nsecond line".into());
        v.push("c", false, "also broke".into());
        assert!(!v.all_passed());
        assert_eq!(v.first_failure().unwrap().name, "b");
        assert_eq!(v.summary(), "FAIL b: broke");
    }
}
