//! Integration tests for the sharded scatter-gather layer through the
//! `ids::` facade: every partition scheme agrees with single-node
//! execution, outcomes are invariant across worker-thread counts, and
//! per-shard spans flow into the telemetry lakehouse's canned queries.

use ids::engine::exec::run_query;
use ids::engine::{
    BinSpec, ColumnBuilder, CostParams, Database, EngineResult, Predicate, Query, TableBuilder,
};
use ids::lakehouse::{Lakehouse, TimeWindow};
use ids::obs;
use ids::shard::{partition_database, PartitionScheme, ScatterGather, ShardOutcome};

/// A session-log-shaped dataset: a clustered virtual-time axis `t`, a
/// uniform measure `v`, a low-cardinality key `k` with duplicates, and
/// a dictionary-encoded string `parity` (each shard re-encodes it).
fn dataset(rows: usize) -> Database {
    let db = Database::new();
    db.register(
        TableBuilder::new("sessions")
            .column("t", ColumnBuilder::float((0..rows).map(|i| i as f64)))
            .column(
                "v",
                ColumnBuilder::float((0..rows).map(|i| (i * 37 % 101) as f64)),
            )
            .column("k", ColumnBuilder::int((0..rows).map(|i| (i % 13) as i64)))
            .column(
                "parity",
                ColumnBuilder::str((0..rows).map(|i| if i % 2 == 0 { "even" } else { "odd" })),
            )
            .build()
            .expect("dataset table"),
    );
    db
}

fn schemes() -> Vec<PartitionScheme> {
    vec![
        PartitionScheme::HashRows,
        PartitionScheme::hash_key("k"),
        PartitionScheme::range("t"),
    ]
}

/// Mergeable query shapes covering brushes on the clustered axis, full
/// scans, a count over the uniform measure, and a string-equality count.
fn mergeable_queries() -> Vec<Query> {
    vec![
        Query::count("sessions", Predicate::between("v", 10.0, 90.0)),
        Query::histogram(
            "sessions",
            BinSpec::new("v", 0.0, 101.0, 16),
            Predicate::between("t", 100.0, 900.0),
        ),
        Query::histogram(
            "sessions",
            BinSpec::new("v", 0.0, 101.0, 8),
            Predicate::True,
        ),
        Query::count("sessions", Predicate::eq("parity", "even")),
    ]
}

#[test]
fn every_scheme_matches_single_node_execution() {
    let db = dataset(10_001); // odd: uneven partitions at 3 and 8 shards
    for scheme in schemes() {
        for shards in [1usize, 3, 8] {
            let parts = partition_database(&db, &scheme, 11, shards).expect("partition");
            let sg = ScatterGather::over(parts);
            for query in mergeable_queries() {
                let (reference, _) = run_query(&db, &query).expect("single-node");
                let out = sg.execute(&query).expect("scatter-gather");
                assert_eq!(
                    out.result, reference,
                    "merged result drifted from single-node under {scheme:?} at {shards} shards"
                );
                assert_eq!(out.per_shard.len(), shards);
            }
        }
    }
}

/// Executes `query` and returns the outcome with the `shard` spans it recorded.
fn traced(sg: &ScatterGather, query: &Query) -> EngineResult<(ShardOutcome, Vec<obs::TraceEvent>)> {
    let mark = obs::recorder().event_count();
    let out = sg.execute(query)?;
    let mut spans = obs::recorder().events_since(mark);
    spans.retain(|e| matches!(e, obs::TraceEvent::Span { cat, .. } if *cat == "shard"));
    Ok((out, spans))
}

#[test]
fn outcome_is_invariant_across_worker_threads() {
    obs::enable();
    let db = dataset(3_000);
    // Each brush as a short drag, its `t` edge nudged 10 rows a step, and
    // each step as the two histograms a crossfilter event issues: in every
    // partition the second one finds the first one's selection
    // remembered, and each step moves the counts the step before left.
    // Warm must equal cold — a fresh partitioning per statement, one
    // thread — in merged result, cost, per-shard telemetry and `shard`
    // spans. Between the drags, two statements fail — one in every
    // fragment, one before any shard runs — with the typed error they
    // fail with at one thread, and leave the executor serving the rest.
    let drags: [fn(f64) -> Predicate; 2] = [
        |d| Predicate::between("t", 100.0, 900.0 + d),
        |d| {
            Predicate::and([
                Predicate::between("t", 500.0, 2_500.0 - d),
                Predicate::between("v", 10.0, 90.0),
            ])
        },
    ];
    let steps = |drag: &fn(f64) -> Predicate| {
        [0.0, 10.0, 20.0].map(drag).into_iter().flat_map(|f| {
            [
                BinSpec::new("v", 0.0, 101.0, 16),
                BinSpec::new("t", 0.0, 3_000.0, 12),
            ]
            .map(|bins| Query::histogram("sessions", bins, f.clone()))
        })
    };
    let failing = [
        Query::histogram(
            "sessions",
            BinSpec::new("nope", 0.0, 1.0, 4),
            Predicate::True,
        ),
        Query::select("sessions", vec![], Predicate::True, Some(5), 0),
    ];
    let statements: Vec<Query> = steps(&drags[0])
        .chain(failing)
        .chain(steps(&drags[1]))
        .collect();
    let scheme = PartitionScheme::range("t");
    for shards in [1usize, 4, 16] {
        let fresh = || partition_database(&db, &scheme, 11, shards).expect("partition");
        let cold: Vec<_> = statements
            .iter()
            .map(|q| traced(&ScatterGather::over(fresh()).with_threads(1), q))
            .collect();
        assert_eq!(cold.iter().filter(|c| c.is_err()).count(), 2);
        for threads in [1usize, 2, 4, 8] {
            let sg = ScatterGather::over(fresh()).with_threads(threads);
            for (query, want) in statements.iter().zip(&cold) {
                let got = traced(&sg, query);
                let at = format!("{query} on {shards} shards at {threads} threads");
                let (Ok((out, spans)), Ok((want, want_spans))) = (&got, want) else {
                    assert_eq!(
                        got.err(),
                        want.as_ref().err().cloned(),
                        "error drifted: {at}"
                    );
                    continue;
                };
                assert_eq!(out.result, want.result, "result drifted: {at}");
                assert_eq!(out.elapsed, want.elapsed, "cost drifted: {at}");
                assert_eq!(out.total_work, want.total_work, "{at}");
                assert_eq!(out.per_shard, want.per_shard, "telemetry drifted: {at}");
                assert_eq!(spans, want_spans, "spans drifted: {at}");
                assert_eq!(spans.len(), shards, "{at}");
            }
        }
    }
}

/// Per-shard `shard` spans — one per shard per query, tagged
/// `tenant = shard/N` — land in the lakehouse spans table, so the canned
/// `p99_by_tenant` query answers "p99 by shard" directly.
#[test]
fn shard_spans_feed_the_lakehouse_p99_by_shard() {
    obs::enable();

    let db = dataset(4_000);
    let parts = partition_database(&db, &PartitionScheme::range("t"), 11, 4).expect("partition");
    let sg = ScatterGather::over(parts).with_costs(CostParams::mem_default());
    let out = sg.execute(&mergeable_queries()[2]).expect("scatter-gather");

    let rec = obs::recorder();
    let events: Vec<_> = rec
        .events()
        .iter()
        .filter(|e| matches!(e, obs::TraceEvent::Span { cat, .. } if *cat == "shard"))
        .cloned()
        .collect();
    let tracks = rec.tracks();

    assert_eq!(events.len(), 4, "one shard span per shard");
    let mut lake = Lakehouse::new();
    let stats = lake.ingest_events(&events, &tracks);
    assert_eq!(stats.spans, 4);
    let mut queries = lake.queries().expect("spans table");
    let p99 = queries
        .p99_by_tenant(TimeWindow::all())
        .expect("p99 by shard");
    assert_eq!(p99.len(), 4, "one tenant row per shard");
    for (shard, row) in p99.iter().enumerate() {
        assert_eq!(row.tenant, format!("shard/{shard}"));
        assert_eq!(row.spans, 1);
        assert_eq!(
            row.p99_us,
            out.per_shard[shard].cost.as_micros() as i64,
            "lakehouse p99 must equal the shard's priced cost"
        );
    }
}
