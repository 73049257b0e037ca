//! Simulation-testing integration suite.
//!
//! Two halves:
//!
//! 1. **Corpus replay** — every checked-in scenario under `tests/corpus/`
//!    (minimized repros of past failures plus hand-picked edge cases)
//!    must parse, round-trip, and pass every oracle. This is the
//!    regression guard: a fixed bug stays fixed.
//! 2. **Differential properties** — the naive reference interpreter and
//!    `engine::exec` must agree on random small tables, including the
//!    edges that found real bugs (empty tables, all-NaN columns,
//!    duplicate join keys).

use std::path::PathBuf;

use ids::simclock::rng::check;
use ids::simtest::scenario::{FilterSpec, QuerySpec};
use ids::simtest::{
    check_scenario, derive_seed, differential_check, explore, from_toml, to_toml, Scenario,
    TableSpec,
};

fn corpus_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/corpus")
}

/// The checked-in corpus, sorted by file name for a stable replay order.
fn corpus_files() -> Vec<(String, String)> {
    let mut out: Vec<(String, String)> = std::fs::read_dir(corpus_dir())
        .expect("tests/corpus exists")
        .filter_map(|e| {
            let path = e.expect("read_dir entry").path();
            if path.extension().is_some_and(|x| x == "toml") {
                let name = path
                    .file_name()
                    .expect("file name")
                    .to_string_lossy()
                    .into_owned();
                let body = std::fs::read_to_string(&path).expect("read corpus file");
                Some((name, body))
            } else {
                None
            }
        })
        .collect();
    out.sort();
    out
}

/// Every corpus scenario passes every oracle. The whole corpus is meant
/// to replay in well under 30 seconds.
#[test]
fn corpus_replays_clean() {
    let files = corpus_files();
    assert!(
        files.len() >= 5,
        "corpus holds at least five scenarios, found {}",
        files.len()
    );
    for (name, body) in &files {
        let scenario = from_toml(body).unwrap_or_else(|e| panic!("{name}: parse error: {e}"));
        let verdict = check_scenario(&scenario);
        assert!(
            verdict.all_passed(),
            "{name}: corpus replay failed — {}",
            verdict.summary()
        );
    }
}

/// The three adaptive corpus scenarios exercise the closed-loop
/// transitions they are named for: the zoom loop actually zooms and
/// runs to its action bound, the chaos scenario actually abandons, and
/// the mined replay actually synthesizes a multi-kind composite
/// interface. (Oracle 14 already pins their determinism; this pins
/// their *coverage* — a behavior-model change that stops the named
/// transitions from firing fails here, not silently.)
#[test]
fn adaptive_corpus_scenarios_cover_their_transitions() {
    use ids::simtest::adaptive_run;
    use ids::workload::crossfilter::{self, CrossfilterUi};
    use ids::workload::mining;

    let load = |name: &str| {
        let body = std::fs::read_to_string(corpus_dir().join(name)).expect("corpus file");
        from_toml(&body).unwrap_or_else(|e| panic!("{name}: parse error: {e}"))
    };

    let zoom = load("adaptive-zoom-loop.toml");
    let digest = adaptive_run(&zoom, zoom.threads, 4);
    assert!(
        digest.contains("\tzoom\t"),
        "the patient user must hit the zoom transition"
    );
    assert!(
        digest.contains("abandoned\tfalse"),
        "a calm backend never loses the patient user"
    );
    let actions = digest.lines().filter(|l| l.starts_with("action\t")).count();
    assert_eq!(
        actions, zoom.adaptive_steps,
        "the un-abandoned loop runs to its action bound"
    );

    let storm = load("adaptive-abandon-under-chaos.toml");
    let digest = adaptive_run(&storm, storm.threads, 4);
    assert!(
        digest.contains("abandoned\ttrue"),
        "the hair-trigger user must abandon under the storm"
    );
    let actions = digest.lines().filter(|l| l.starts_with("action\t")).count();
    assert!(
        actions < storm.adaptive_steps,
        "abandonment must end the session early ({actions} actions)"
    );

    // The mined scenario replays the composite interface the pipeline
    // synthesizes from its open-loop trace: it must mine back at least
    // two distinct widget kinds (a pure-slider interface would make the
    // "novel composite" claim vacuous).
    let mined_sc = load("mined-interface-replay.toml");
    let ui = CrossfilterUi::for_table("simtest_mined");
    let session = crossfilter::simulate_session(mined_sc.device, 0, mined_sc.seed, &ui);
    let mined = mining::mine(&mining::crossfilter_request_trace(&ui, &session.trace));
    let novel = mining::compose_novel(&mined, &ui);
    let kinds: std::collections::BTreeSet<_> = novel.signatures().iter().map(|s| s.kind).collect();
    assert!(
        kinds.len() >= 2,
        "the composite interface mixes widget kinds, got {:?}",
        kinds
    );
}

/// Corpus files survive a parse → serialize → parse loop unchanged, so
/// repro files pasted from simtest output stay canonical.
#[test]
fn corpus_files_round_trip() {
    for (name, body) in &corpus_files() {
        let parsed = from_toml(body).unwrap_or_else(|e| panic!("{name}: parse error: {e}"));
        let reparsed =
            from_toml(&to_toml(&parsed)).unwrap_or_else(|e| panic!("{name}: reparse error: {e}"));
        assert_eq!(parsed, reparsed, "{name}: round-trip identity");
    }
}

/// Exploration is a pure function of `(master seed, count)`: two runs
/// produce byte-identical reports, and the default stream is clean.
#[test]
fn exploration_is_deterministic_and_clean() {
    let a = explore(0xBEEF, 2, None);
    let b = explore(0xBEEF, 2, None);
    assert_eq!(a.render(), b.render(), "byte-identical reports");
    assert!(a.all_passed(), "default stream is clean:\n{}", a.render());
}

/// A generous deadline never changes the outcome — time-boxed runs are
/// prefixes of unlimited runs, so CI time budgets cannot mask failures.
#[test]
fn time_boxed_runs_are_prefixes() {
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(600);
    let boxed = explore(0x5EED, 2, Some(deadline));
    let unboxed = explore(0x5EED, 2, None);
    assert_eq!(boxed.completed, unboxed.completed);
    assert_eq!(boxed.render(), unboxed.render());
}

/// The engine agrees with the row-at-a-time reference interpreter on
/// random table shapes crossed with random query programs.
#[test]
fn engine_matches_reference_on_random_tables() {
    check("engine_matches_reference_on_random_tables", 0..48, |rng| {
        let seed = rng.uniform_u64(0, 1_000_000);
        let table = TableSpec {
            rows: rng.uniform_usize(0, 80),
            key_mod: rng.uniform_usize(1, 8),
            nan_every: rng.uniform_usize(0, 4),
            dim_rows: rng.uniform_usize(0, 30),
        };
        let queries = Scenario::generate(derive_seed(seed, 0xD1FF)).queries;
        differential_check(seed, &table, &queries).unwrap_or_else(|d| panic!("{d}"));
    });
}

/// Empty fact and dim tables: every query family returns its empty
/// shape instead of panicking (regression: the histogram type probe
/// used to index row 0 of an empty column).
#[test]
fn empty_tables_agree() {
    check("empty_tables_agree", 0..48, |rng| {
        let seed = rng.uniform_u64(0, 10_000);
        let table = TableSpec {
            rows: 0,
            key_mod: 1,
            nan_every: 0,
            dim_rows: 0,
        };
        let queries = [
            QuerySpec::Count {
                filter: FilterSpec::True,
            },
            QuerySpec::Select {
                filter: FilterSpec::True,
                limit: 4,
                offset: 0,
            },
            QuerySpec::Histogram {
                bins: 5,
                lo: 0.0,
                hi: 50.0,
                filter: FilterSpec::True,
            },
            QuerySpec::Join {
                limit: 0,
                offset: 0,
            },
        ];
        differential_check(seed, &table, &queries).unwrap_or_else(|d| panic!("{d}"));
    });
}

/// All-NaN measure column (the engine's stand-in for all-null): NaN
/// lands in no histogram bin and fails every range predicate.
#[test]
fn all_nan_columns_agree() {
    check("all_nan_columns_agree", 0..48, |rng| {
        let seed = rng.uniform_u64(0, 10_000);
        let rows = rng.uniform_usize(1, 60);
        let bins = rng.uniform_usize(1, 12);
        let table = TableSpec {
            rows,
            key_mod: 3,
            nan_every: 1,
            dim_rows: 5,
        };
        let queries = [
            QuerySpec::Histogram {
                bins,
                lo: 0.0,
                hi: 80.0,
                filter: FilterSpec::True,
            },
            QuerySpec::Count {
                filter: FilterSpec::VBetween { lo: 0.0, hi: 100.0 },
            },
            QuerySpec::Count {
                filter: FilterSpec::NotV { lo: 0.0, hi: 100.0 },
            },
        ];
        differential_check(seed, &table, &queries).unwrap_or_else(|d| panic!("{d}"));
    });
}

/// Duplicate join keys (`key_mod = 1` collapses every fact key to 0)
/// expand to cross products, and pagination over left rows stays
/// consistent with the reference.
#[test]
fn duplicate_join_keys_agree() {
    check("duplicate_join_keys_agree", 0..48, |rng| {
        let seed = rng.uniform_u64(0, 10_000);
        let rows = rng.uniform_usize(1, 40);
        let dim_rows = rng.uniform_usize(1, 25);
        let limit = rng.uniform_usize(0, 12);
        let offset = rng.uniform_usize(0, 45);
        let table = TableSpec {
            rows,
            key_mod: 1,
            nan_every: 0,
            dim_rows,
        };
        let queries = [
            QuerySpec::Join { limit, offset },
            QuerySpec::Join {
                limit: 0,
                offset: 0,
            },
        ];
        differential_check(seed, &table, &queries).unwrap_or_else(|d| panic!("{d}"));
    });
}
