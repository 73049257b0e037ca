//! Integration tests for the `ids-obs` observability layer, through the
//! public facade: same-seed trace exports are byte-identical, telemetry
//! never changes query outcomes or timings, the disabled recorder is
//! nearly free, buffer-pool stats feed the registry without losing their
//! per-pool accessors, and concurrent drivers never see each other's
//! telemetry or clock. Recorder and registry state is per thread and each
//! `#[test]` runs on its own, so every test starts clean.

use ids::chaos::{ChaosBackend, FaultPlan};
use ids::engine::scheduler::{replay_resilient, IssuedQuery, QueryTiming, ResiliencePolicy};
use ids::engine::{
    Backend, BinSpec, BufferPool, ColumnBuilder, DiskBackend, EvictionPolicy, MemBackend, PageId,
    Predicate, Query, QueryOutcome, Table, TableBuilder,
};
use ids::obs;
use ids::shard::{partition_database, PartitionScheme, ScatterGather};
use ids::simclock::{SimDuration, SimTime};

fn table() -> Table {
    TableBuilder::new("t")
        .column(
            "x",
            ColumnBuilder::float((0..30_000).map(|i| (i % 997) as f64)),
        )
        .column(
            "y",
            ColumnBuilder::float((0..30_000).map(|i| (i % 101) as f64)),
        )
        .build()
        .unwrap()
}

/// A small but non-trivial replay: a disk backend (buffer-pool traffic)
/// driven by a bursty stream of mixed query shapes on two workers.
fn run_replay() -> Vec<(QueryTiming, QueryOutcome)> {
    let backend = DiskBackend::new();
    backend.database().register(table());
    let stream: Vec<IssuedQuery> = (0..12)
        .map(|i| {
            let q = match i % 3 {
                0 => Query::count("t", Predicate::between("x", 0.0, 100.0 + i as f64)),
                1 => Query::histogram(
                    "t",
                    BinSpec::new("y", 0.0, 101.0, 10),
                    Predicate::between("x", 50.0, 500.0),
                ),
                _ => Query::select("t", vec![], Predicate::True, Some(64), 32 * i),
            };
            IssuedQuery::new(SimTime::from_millis(5 * (i as u64 + 1)), q, i as u64)
        })
        .collect();
    replay_resilient(&backend, &stream, 2, &ResiliencePolicy::Rigid).unwrap()
}

fn export_trace() -> String {
    let rec = obs::recorder();
    obs::chrome_trace_json(&rec.events(), &rec.tracks())
}

#[test]
fn same_seed_trace_exports_are_byte_identical() {
    obs::enable();
    run_replay();
    let first = export_trace();
    obs::reset_all();
    run_replay();
    let second = export_trace();

    assert!(!first.is_empty());
    assert_eq!(first, second, "same-seed traces must be byte-identical");
    // The trace has the shapes the acceptance criteria name: query
    // execution spans and buffer-pool counter samples.
    assert!(first.starts_with("{\"traceEvents\":["));
    assert!(first.contains("\"ph\":\"X\""), "execution spans present");
    assert!(
        first.contains("\"name\":\"engine.buffer.hit_rate\""),
        "buffer-pool counter samples present"
    );
    assert!(first.contains("disk/worker-0"), "per-worker tracks named");
}

#[test]
fn telemetry_is_observation_only() {
    let dark = run_replay();
    obs::reset_all();
    obs::enable();
    let lit = run_replay();

    assert_eq!(dark.len(), lit.len());
    for ((t0, o0), (t1, o1)) in dark.iter().zip(lit.iter()) {
        assert_eq!(t0, t1, "timings must not depend on the recorder");
        assert_eq!(o0.cost, o1.cost);
        assert_eq!(o0.result, o1.result);
        assert_eq!(
            format!("{:?}", o0.footprint),
            format!("{:?}", o1.footprint),
            "footprints must not depend on the recorder"
        );
    }
}

#[test]
fn disabled_recorder_is_nearly_free() {
    const N: u64 = 300_000;

    let start = std::time::Instant::now();
    for i in 0..N {
        obs::recorder().record_counter("bench.disabled", SimTime::from_micros(i), i as f64);
    }
    let disabled = start.elapsed();
    assert_eq!(
        obs::recorder().event_count(),
        0,
        "disabled path records nothing"
    );

    obs::enable();
    let start = std::time::Instant::now();
    for i in 0..N {
        obs::recorder().record_counter("bench.enabled", SimTime::from_micros(i), i as f64);
    }
    let enabled = start.elapsed();

    // The disabled path is one thread-local load + branch; the enabled
    // path borrows the thread's event vector and pushes. The former must
    // not cost more than the latter — a generous bound that holds under
    // any scheduler noise.
    assert!(
        disabled <= enabled,
        "disabled path ({disabled:?}) should be cheaper than enabled ({enabled:?})"
    );
}

#[test]
fn buffer_pools_feed_the_registry_and_keep_their_own_stats() {
    let a = BufferPool::new(4, EvictionPolicy::Lru);
    let b = BufferPool::new(2, EvictionPolicy::Fifo);
    for n in 0..6 {
        a.touch(PageId {
            table: 0,
            page_no: n,
        });
    }
    a.touch(PageId {
        table: 0,
        page_no: 5,
    }); // hit
    b.touch(PageId {
        table: 1,
        page_no: 0,
    });
    b.touch(PageId {
        table: 1,
        page_no: 0,
    }); // hit

    // Per-pool accessors unchanged.
    assert_eq!(a.stats().hits, 1);
    assert_eq!(a.stats().misses, 6);
    assert_eq!(b.stats().hits, 1);
    assert_eq!(b.stats().misses, 1);

    // Registry totals sum the live pools.
    let snap = obs::metrics().snapshot();
    let get = |name: &str| {
        snap.counters
            .iter()
            .find(|(n, _)| n == name)
            .map(|&(_, v)| v)
            .unwrap_or(0)
    };
    assert_eq!(get("engine.buffer.hits"), 2);
    assert_eq!(get("engine.buffer.misses"), 7);
    assert_eq!(
        get("engine.buffer.evictions"),
        a.stats().evictions + b.stats().evictions
    );

    // Dropping the pools folds their counts into the registry's owned
    // counters: totals survive.
    drop(a);
    drop(b);
    let snap = obs::metrics().snapshot();
    let hits = snap
        .counters
        .iter()
        .find(|(n, _)| n == "engine.buffer.hits")
        .map(|&(_, v)| v)
        .unwrap();
    assert_eq!(hits, 2);
}

#[test]
fn resetting_a_buffer_pool_keeps_the_registry_totals() {
    let pool = BufferPool::new(2, EvictionPolicy::Lru);
    for n in [0, 1, 0, 2, 3] {
        pool.touch(PageId {
            table: 0,
            page_no: n,
        });
    }
    let counts = |snap: &obs::MetricsSnapshot| {
        ["hits", "misses", "evictions"].map(|c| {
            let name = format!("engine.buffer.{c}");
            snap.counters
                .iter()
                .find(|(n, _)| *n == name)
                .map_or(0, |&(_, v)| v)
        })
    };
    let before = counts(&obs::metrics().snapshot());
    assert_eq!(before, [1, 4, 2]);

    // A reset (a chaos buffer-pressure flush) empties the pool and its
    // own stats, but the registry totals keep its earlier traffic.
    pool.reset();
    assert_eq!(pool.stats(), Default::default());
    assert_eq!(counts(&obs::metrics().snapshot()), before);

    // Traffic after the reset adds to the totals, and the drop-fold
    // does not count the pre-reset traffic twice.
    pool.touch(PageId {
        table: 0,
        page_no: 0,
    });
    drop(pool);
    assert_eq!(counts(&obs::metrics().snapshot()), [1, 5, 2]);
}

#[test]
fn histograms_bucket_merge_and_quantile_through_facade() {
    let h = obs::Histogram::new();
    let g = obs::Histogram::new();
    for v in 0..1000u64 {
        h.record(v);
    }
    for v in 1000..2000u64 {
        g.record(v);
    }
    h.merge(&g);
    assert_eq!(h.count(), 2000);
    assert_eq!(h.min(), 0);
    assert_eq!(h.max(), 1999);
    let p50 = h.quantile(0.5);
    // Bucket lower bounds undershoot by at most one sub-bucket (6.25%).
    assert!(
        p50 <= 1000 && p50 as f64 >= 1000.0 * (1.0 - 1.0 / 16.0),
        "p50={p50}"
    );
    let p99 = h.quantile(0.99);
    assert!(
        p99 <= 1980 && p99 as f64 >= 1980.0 * (1.0 - 1.0 / 16.0),
        "p99={p99}"
    );
}

/// Writer parity on a real capture: the `io::Write` exporter must emit
/// exactly the bytes of the `String` one.
#[test]
fn trace_writer_and_string_export_are_byte_identical() {
    obs::enable();
    run_replay();
    let rec = obs::recorder();
    let events = rec.events();
    let tracks = rec.tracks();

    let string = obs::chrome_trace_json(&events, &tracks);
    assert!(!events.is_empty());
    let mut written = Vec::new();
    obs::chrome_trace_write(&events, &tracks, &mut written).expect("vec writer cannot fail");
    assert_eq!(string.as_bytes(), &written[..]);
}

/// Golden edges: the exact framing for an empty capture and a single
/// event (no stray separators).
#[test]
fn trace_golden_edges() {
    let empty_golden = "{\"traceEvents\":[\n\
        {\"ph\":\"M\",\"pid\":1,\"tid\":0,\"name\":\"process_name\",\
        \"args\":{\"name\":\"ids-sim\"}},\n\
        {\"ph\":\"M\",\"pid\":1,\"tid\":0,\"name\":\"thread_name\",\
        \"args\":{\"name\":\"counters\"}}\n\
        ],\"displayTimeUnit\":\"ms\"}\n";
    assert_eq!(
        obs::chrome_trace_json(&[], &[]),
        empty_golden,
        "empty trace framing drifted"
    );

    let one = vec![ids::obs::TraceEvent::Counter {
        name: "c",
        ts: SimTime::from_micros(7),
        value: 1.5,
    }];
    let one_golden = empty_golden.replace(
        "\n],",
        ",\n{\"ph\":\"C\",\"pid\":1,\"tid\":0,\"ts\":7,\"name\":\"c\",\"args\":{\"value\":1.5}}\n],",
    );
    assert_eq!(obs::chrome_trace_json(&one, &[]), one_golden);
}

/// Fleet telemetry is served out of the lakehouse and must be
/// byte-identical across runs of the same config.
#[test]
fn fleet_telemetry_tables_are_deterministic_across_runs() {
    let config = ids::experiments::fleet::FleetConfig {
        seed: 9,
        session_counts: vec![4, 8],
        ..ids::experiments::fleet::FleetConfig::smoke_test()
    };
    obs::enable();
    let capture = || {
        obs::reset_all();
        ids::experiments::fleet::run(&config)
    };
    let a = capture();
    let b = capture();
    assert!(
        a.telemetry.span_rows > 0,
        "fleet run with recorder enabled must capture serve spans"
    );
    assert_eq!(
        a.render_telemetry(),
        b.render_telemetry(),
        "lakehouse telemetry must be byte-identical across runs"
    );
    assert_eq!(a.telemetry.p99, b.telemetry.p99);
    assert_eq!(a.telemetry.lcv, b.telemetry.lcv);
    assert_eq!(a.telemetry.slowest, b.telemetry.slowest);
}

#[test]
fn metrics_summary_and_phase_table_render_from_a_run() {
    obs::enable();
    {
        let _p = obs::phase("test.replay");
        run_replay();
    }
    let phases = obs::recorder().phases();
    let snap = obs::metrics().snapshot();

    let phase_table = ids::report::phase_summary(&phases);
    assert!(phase_table.contains("test.replay"));
    let summary = ids::report::metrics_summary(&snap);
    assert!(summary.contains("engine.buffer.hits"));
    assert!(summary.contains("sched.latency_us"));
    let tsv = obs::metrics_tsv(&snap);
    assert!(tsv.contains("sched.queries\t12"));
}

/// Recorder, clock and registry belong to the thread that drives a run:
/// four drivers started together each read back exactly their own shard
/// spans, their own clock, and their own fault decision.
#[test]
fn concurrent_drivers_see_only_their_own_telemetry_and_clock() {
    let barrier = std::sync::Barrier::new(4);
    std::thread::scope(|scope| {
        for i in 0..4u64 {
            let barrier = &barrier;
            scope.spawn(move || {
                barrier.wait();
                obs::enable();
                // Even drivers stand inside the 100–150 ms spike window,
                // odd ones before it.
                let spiked = i % 2 == 0;
                let now = SimTime::from_millis(if spiked { 110 + i } else { 10 + i });
                obs::set_vnow(now);

                let inner = MemBackend::new();
                inner.database().register(table());
                let query = Query::count("t", Predicate::between("x", 0.0, 500.0));
                let parts =
                    partition_database(&inner.database(), &PartitionScheme::range("x"), 11, 4)
                        .expect("partition");
                ScatterGather::over(parts)
                    .execute(&query)
                    .expect("scatter-gather");
                let plan = FaultPlan::builder(2)
                    .latency_spike(SimTime::from_millis(100), SimDuration::from_millis(50), 3.0)
                    .build();
                ChaosBackend::new(&inner, plan)
                    .execute(&query)
                    .expect("chaos query");

                let rec = obs::recorder();
                let shard_span_starts: Vec<SimTime> = rec
                    .events()
                    .iter()
                    .filter_map(|e| match e {
                        obs::TraceEvent::Span { cat, start, .. } if *cat == "shard" => Some(*start),
                        _ => None,
                    })
                    .collect();
                assert_eq!(
                    shard_span_starts,
                    vec![now; 4],
                    "driver {i}: own spans only"
                );
                assert_eq!(obs::vnow(), now, "driver {i}: own clock");
                let tracks = rec.tracks();
                let shard_tracks = tracks.iter().filter(|t| t.starts_with("shard/")).count();
                assert_eq!(shard_tracks, 4, "driver {i}: own tracks");
                let snap = obs::metrics().snapshot();
                let spiked_queries = snap
                    .counters
                    .iter()
                    .find(|(n, _)| n == "chaos.spiked_queries")
                    .map(|&(_, v)| v);
                assert_eq!(
                    spiked_queries,
                    Some(spiked as u64),
                    "driver {i}: own faults"
                );
            });
        }
    });
}
