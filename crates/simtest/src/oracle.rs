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
use ids_metrics::lcv::{budget_violations, QuerySpan};
use ids_metrics::qif::qif_windows;
use ids_simclock::{SimDuration, SimTime};

use crate::pipeline::{adaptive_run, build_replay_env, run_pipeline, RunArtifacts};
use crate::reference::{
    build_tables, diff_backend, differential_check, raw_tables, reference_execute,
};
use crate::scenario::{QuerySpec, Scenario};

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
pub fn check_scenario(s: &Scenario) -> Verdict {
    let mut v = Verdict::default();
    let base = run_pipeline(s, s.threads);

    // 1. Byte-identical replay of the same seed.
    let again = run_pipeline(s, s.threads);
    v.push(
        "replay-determinism",
        base.digest == again.digest,
        diff_digests(&base.digest, &again.digest),
    );

    // 2. Output invariance across 1/2/4/8 synthesis threads.
    let mut thread_detail = String::new();
    for threads in [1usize, 2, 4, 8] {
        if threads == s.threads {
            continue;
        }
        let alt = run_pipeline(s, threads);
        if alt.digest != base.digest {
            thread_detail = format!(
                "digest differs at {threads} threads (base {}): {}",
                s.threads,
                diff_digests(&base.digest, &alt.digest)
            );
            break;
        }
    }
    v.push("thread-invariance", thread_detail.is_empty(), thread_detail);

    // 3. Admission conservation: admitted + shed == offered.
    let adm = &base.admission;
    let conserved = adm.admitted + adm.shed.total() == base.offered
        && base.baseline.admitted == base.offered
        && base.baseline.shed.total() == 0;
    v.push(
        "admission-conservation",
        conserved,
        format!(
            "admitted {} + shed {} vs offered {}; baseline admitted {} shed {}",
            adm.admitted,
            adm.shed.total(),
            base.offered,
            base.baseline.admitted,
            base.baseline.shed.total()
        ),
    );

    // 4. No-wedge liveness: every queue drains at a finite instant and
    //    every replayed query finishes after it was issued.
    let wedged_fleet =
        base.admission.drained_at == SimTime::MAX || base.baseline.drained_at == SimTime::MAX;
    let bad_timing = base.replay.iter().find(|r| {
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

    // 5. LCV budget monotonicity: a looser budget can never show more
    //    violations over the same spans.
    let spans: Vec<QuerySpan> = base
        .replay
        .iter()
        .map(|r| QuerySpan {
            issued_at: r.timing.issued_at,
            finished_at: r.timing.finished_at,
        })
        .collect();
    let mut lcv_detail = String::new();
    let mut prev: Option<usize> = None;
    for ms in [50u64, 100, 200, 400, 800, 1_600, 3_200] {
        let report = budget_violations(&spans, SimDuration::from_millis(ms));
        if report.violations > report.total {
            lcv_detail = format!(
                "{ms}ms: violations {} > total {}",
                report.violations, report.total
            );
            break;
        }
        if let Some(p) = prev {
            if report.violations > p {
                lcv_detail = format!("{ms}ms: violations rose {} -> {}", p, report.violations);
                break;
            }
        }
        prev = Some(report.violations);
    }
    v.push("lcv-monotonicity", lcv_detail.is_empty(), lcv_detail);

    // 6. QIF window conservation: bucketing timestamps loses nothing.
    let mut qif_detail = String::new();
    for ms in [100u64, 1_000, 5_000] {
        let windows = qif_windows(&base.offered_at, SimDuration::from_millis(ms));
        let counted: usize = windows.iter().map(|(_, n)| n).sum();
        if counted != base.offered_at.len() {
            qif_detail = format!(
                "{ms}ms windows count {counted} != {} offered",
                base.offered_at.len()
            );
            break;
        }
    }
    v.push("qif-conservation", qif_detail.is_empty(), qif_detail);

    // 7. Differential: engine::exec vs the reference interpreter.
    let diff = differential_check(s.seed, &s.table, &s.queries);
    v.push("differential", diff.is_ok(), diff.err().unwrap_or_default());

    // 8. Replay result integrity: Exact answers match a plain
    //    re-execution; Partial answers carry a legal fraction and stay
    //    within the degradation round-trip's stated bounds; Failed
    //    answers are empty placeholders.
    let integrity = replay_integrity(s, &base);
    v.push(
        "partial-bounds",
        integrity.is_ok(),
        integrity.err().unwrap_or_default(),
    );

    // 9. Obs trace/metrics byte stability across identical runs.
    let cap_a = obs_capture(s);
    let cap_b = obs_capture(s);
    v.push(
        "obs-stability",
        cap_a.trace == cap_b.trace && cap_a.tsv == cap_b.tsv,
        format!(
            "trace stable: {}; metrics stable: {}",
            cap_a.trace == cap_b.trace,
            cap_a.tsv == cap_b.tsv
        ),
    );

    // 10. Lakehouse ingestion determinism: replaying the same scenario
    //     twice folds into byte-identical telemetry tables, and the
    //     vectorized p99-by-tenant query agrees exactly with the
    //     row-at-a-time reference interpreter over those tables.
    let lake_detail = lakehouse_determinism(&cap_a, &cap_b);
    v.push("lakehouse-determinism", lake_detail.is_empty(), lake_detail);

    // 11. Progressive anytime contract: block-sampled online aggregation
    //     of every mergeable differential query must (a) end
    //     byte-identical to the reference interpreter's exact answer,
    //     (b) bracket the true per-bin values with its confidence
    //     intervals at the configured coverage, and (c) report a
    //     never-increasing error bound across refinements.
    let prog_detail = progressive_anytime(s);
    v.push("progressive-anytime", prog_detail.is_empty(), prog_detail);

    // 12. Shard invariance: partitioning the differential fact table
    //     across 1/4/16 shards (hash-rows, hash-key, and range schemes)
    //     and scatter-gathering every mergeable query merges to the
    //     exact reference answer, with byte-identical costs and
    //     per-shard telemetry on replay.
    let shard_detail = shard_invariance(s);
    v.push("shard-invariance", shard_detail.is_empty(), shard_detail);

    // 13. Planner equivalence: plan text is replay- and thread-stable,
    //     and `Plan::execute_with_threads` returns the single-threaded
    //     result and footprint at 2 and `s.threads` threads. (Results
    //     against the reference interpreter are oracle 7's: it runs the
    //     same `run_query` on the same tables and queries.)
    let planner_detail = planner_equivalence(s);
    v.push(
        "planner-equivalence",
        planner_detail.is_empty(),
        planner_detail,
    );

    // 14. Adaptive determinism: the closed feedback loop — behavior
    //     model reacting to answers, admission shedding, deadline
    //     degradation to Partial — replays byte-identically and is
    //     invariant to gather threads (1/2/4/8) and shard count
    //     (1/4/16), including the interface mined back from its own
    //     request trace.
    let adaptive_detail = adaptive_determinism(s);
    v.push(
        "adaptive-determinism",
        adaptive_detail.is_empty(),
        adaptive_detail,
    );

    v
}

/// Oracle 14 body: drives the closed-loop adaptive session once as the
/// base leg, then demands byte-identical digests on replay, across
/// gather thread counts, and across shard counts. Feedback latencies
/// are shard-invariant by construction (costs come from the unsharded
/// backend), so any divergence here is a real nondeterminism in the
/// loop or a sharded-result divergence.
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

/// Oracle 13 body: for every differential query that plans, demands
/// that plan text render byte-identically on replay and after threaded
/// runs, and that threaded execution equal single-threaded execution in
/// result and every footprint counter.
fn planner_equivalence(s: &Scenario) -> String {
    let raw = raw_tables(s.seed, &s.table);
    let backend = diff_backend(&raw);
    let db = backend.database();
    for (i, spec) in s.queries.iter().enumerate() {
        let query = spec.query();
        let Ok(plan) = ids_engine::plan(&db, &query) else {
            continue;
        };
        let text = plan.explain();
        match ids_engine::plan(&db, &query) {
            Ok(again) if again.explain() == text => {}
            Ok(_) => return format!("query {i} {spec:?}: plan text not replay-stable"),
            Err(e) => return format!("query {i} {spec:?}: replan failed ({e})"),
        }
        let Ok(base) = plan.execute(&db) else {
            continue;
        };
        for threads in [2usize, s.threads.max(1)] {
            match plan.execute_with_threads(&db, threads) {
                Ok(out) if out.result == base.result && out.footprint == base.footprint => {}
                Ok(_) => {
                    return format!(
                        "query {i} {spec:?}: {threads}-thread execution diverged from \
                         single-threaded"
                    );
                }
                Err(e) => {
                    return format!("query {i} {spec:?}: {threads}-thread execution failed ({e})");
                }
            }
            if plan.explain() != text {
                return format!("query {i} {spec:?}: plan text changed after {threads}-thread run");
            }
        }
    }
    String::new()
}

/// Oracle 12 body: scatter-gathers every mergeable differential query
/// across 1/4/16 shards under each partition scheme and demands the
/// merged answer equal the reference interpreter's exact answer, with
/// the whole outcome (result, virtual costs, per-shard breakdown)
/// replaying byte-identically.
fn shard_invariance(s: &Scenario) -> String {
    use ids_shard::{partition_table, PartitionScheme, ScatterGather};
    let raw = raw_tables(s.seed, &s.table);
    let (fact, _) = build_tables(&raw);
    let schemes = [
        PartitionScheme::HashRows,
        PartitionScheme::hash_key("k"),
        PartitionScheme::range("v"),
    ];
    for (i, spec) in s.queries.iter().enumerate() {
        if !matches!(spec, QuerySpec::Count { .. } | QuerySpec::Histogram { .. }) {
            continue;
        }
        let query = spec.query();
        let reference = reference_execute(&raw, spec);
        for scheme in &schemes {
            for shards in [1usize, 4, 16] {
                let parts = match partition_table(&fact, scheme, s.seed, shards) {
                    Ok(p) => p,
                    Err(e) => {
                        return format!(
                            "query {i}: partitioning fact under {} x{shards} failed: {e}",
                            scheme.describe()
                        );
                    }
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
                match (&reference, sg.execute(&query)) {
                    (Err(_), Err(_)) => {} // both reject (invalid bin spec)
                    (Err(e), Ok(_)) => {
                        return format!(
                            "query {i} {spec:?}: reference rejected ({e}) but \
                             scatter-gather accepted at {} x{shards}",
                            scheme.describe()
                        );
                    }
                    (Ok(_), Err(e)) => {
                        return format!(
                            "query {i} {spec:?}: reference accepted but scatter-gather \
                             rejected ({e}) at {} x{shards}",
                            scheme.describe()
                        );
                    }
                    (Ok(exact), Ok(out)) => {
                        if &out.result != exact {
                            return format!(
                                "query {i} {spec:?}: merged result diverges from the \
                                 reference at {} x{shards}",
                                scheme.describe()
                            );
                        }
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
                            && again.per_shard.len() == out.per_shard.len()
                            && again.per_shard.iter().zip(&out.per_shard).all(|(a, b)| {
                                a.shard == b.shard
                                    && a.rows_scanned == b.rows_scanned
                                    && a.blocks_pruned == b.blocks_pruned
                                    && a.cost == b.cost
                            });
                        if !stable {
                            return format!(
                                "query {i} {spec:?}: shard outcome not byte-stable on \
                                 replay at {} x{shards}",
                                scheme.describe()
                            );
                        }
                    }
                }
            }
        }
    }
    String::new()
}

/// Oracle 11 body: runs the progressive executor over the scenario's
/// differential tables and checks the anytime contract against the
/// row-at-a-time reference interpreter.
fn progressive_anytime(s: &Scenario) -> String {
    const COVERAGE: f64 = 0.95;
    let raw = raw_tables(s.seed, &s.table);
    let backend = diff_backend(&raw);
    for (i, spec) in s.queries.iter().enumerate() {
        if !matches!(spec, QuerySpec::Count { .. } | QuerySpec::Histogram { .. }) {
            continue;
        }
        let executor = ProgressiveExecutor::new(backend.database())
            .with_seed(s.seed)
            .with_confidence(COVERAGE);
        let refinements = executor.run(&spec.query());
        match (reference_execute(&raw, spec), refinements) {
            (Err(_), Err(_)) => {} // both reject (invalid bin spec)
            (Err(e), Ok(_)) => {
                return format!(
                    "query {i} {spec:?}: reference rejected ({e}) but progressive accepted"
                );
            }
            (Ok(_), Err(e)) => {
                return format!(
                    "query {i} {spec:?}: reference accepted but progressive rejected ({e})"
                );
            }
            (Ok(exact), Ok(refinements)) => {
                if !is_anytime_consistent(&refinements, &exact) {
                    return format!(
                        "query {i} {spec:?}: anytime contract violated (final must equal \
                         the reference answer bit-for-bit with a monotone error bound)"
                    );
                }
                let coverage = interval_coverage(&refinements, &exact);
                if coverage < COVERAGE {
                    return format!(
                        "query {i} {spec:?}: interval coverage {coverage:.3} below {COVERAGE}"
                    );
                }
            }
        }
    }
    String::new()
}

/// Oracle 10 body: byte-compares the telemetry tables built from two
/// identical captures, then runs the kernel-vs-reference differential.
fn lakehouse_determinism(cap_a: &ObsCapture, cap_b: &ObsCapture) -> String {
    use ids_lakehouse::{reference_p99_by_tenant, render_table, Lakehouse, TimeWindow};
    let ingest = |cap: &ObsCapture| {
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

/// One traced pipeline run: the exported Chrome trace JSON and metrics
/// TSV (oracle 9), plus the raw events and track names so oracle 10 can
/// fold the same capture into lakehouse tables.
struct ObsCapture {
    trace: String,
    tsv: String,
    events: Vec<ids_obs::TraceEvent>,
    tracks: Vec<String>,
}

/// Runs the pipeline with tracing enabled and captures its telemetry.
fn obs_capture(s: &Scenario) -> ObsCapture {
    ids_obs::reset_all();
    ids_obs::enable();
    let _ = run_pipeline(s, s.threads);
    let rec = ids_obs::recorder();
    let events = rec.events();
    let tracks = rec.tracks();
    let trace = ids_obs::chrome_trace_json(&events, &tracks);
    let tsv = ids_obs::metrics_tsv(&ids_obs::metrics().snapshot());
    ids_obs::disable();
    ids_obs::reset_all();
    ObsCapture {
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
        assert_eq!(v.reports.len(), 14);
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
