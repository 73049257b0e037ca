//! The SQL request path the statement workloads share: the timed calls,
//! the layer metrics read off their spans, and the answer checks.

use std::hint::black_box;
use std::time::Instant;

use ids_engine::exec::run_query;
use ids_engine::{
    plan, sql, CostModel, CostParams, Database, LinearCostModel, Query, QueryFootprint, ResultSet,
};

use crate::answers::{digest, reference};
use crate::harness::{LayerInput, Layers};
use crate::sqlgen::Stmt;
use crate::stats::{digest_as_f64, Fnv};
use crate::trace::{durations, self_time_of, Tracer};

/// Runs `f` and returns its result with the nanoseconds it took.
pub fn time_ns<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let t = Instant::now();
    let out = black_box(f());
    (out, t.elapsed().as_nanos() as u64)
}

/// Times two alternatives of the same work against each other: each
/// runs [`PAIR_REPEATS`] times, alternating, and the fastest run of each
/// counts — a busy neighbour only ever adds time, and it rarely stays for
/// all repeats of one side only.
pub fn best_pair_ns<A, B>(mut a: impl FnMut() -> A, mut b: impl FnMut() -> B) -> (u64, u64) {
    let (mut best_a, mut best_b) = (u64::MAX, u64::MAX);
    for _ in 0..PAIR_REPEATS {
        best_a = best_a.min(time_ns(&mut a).1);
        best_b = best_b.min(time_ns(&mut b).1);
    }
    (best_a, best_b)
}

/// The fastest of [`PAIR_REPEATS`] runs of `f`, in nanoseconds.
pub fn best_ns<T>(mut f: impl FnMut() -> T) -> u64 {
    (0..PAIR_REPEATS)
        .map(|_| time_ns(&mut f).1)
        .min()
        .unwrap_or(0)
}

const PAIR_REPEATS: usize = 3;

/// SQL text to a bound logical query, on `db`'s catalog.
pub fn parse_and_bind(db: &Database, text: &str, tr: &mut Tracer) -> Result<Query, String> {
    let statement = tr
        .span("sql.parse", |_| sql::parse_statement(text))
        .map_err(|e| e.to_string())?;
    tr.span("sql.bind", |_| sql::bind(db, &statement))
        .map_err(|e| e.to_string())
}

/// One SQL string in, one answer out: parse, bind, plan, execute on one
/// thread.
pub fn sql_request(db: &Database, text: &str, tr: &mut Tracer) -> Result<ResultSet, String> {
    let query = parse_and_bind(db, text, tr)?;
    let physical = tr
        .span("planner.plan", |_| plan(db, &query))
        .map_err(|e| e.to_string())?;
    tr.span("planner.execute", |_| physical.execute(db))
        .map(|answer| answer.result)
        .map_err(|e| e.to_string())
}

/// `sql.*` and `planner.*` timings from the spans of a traced pass.
pub fn span_layers(input: &LayerInput<'_>, out: &mut Layers) {
    let spans = input.spans;
    out.percentiles(
        "sql.parse_p50_ns",
        Some("sql.parse_p95_ns"),
        &durations(spans, "sql.parse"),
        1.0,
    );
    out.percentiles("sql.bind_p50_ns", None, &durations(spans, "sql.bind"), 1.0);
    out.percentiles(
        "planner.plan_p50_ns",
        Some("planner.plan_p95_ns"),
        &durations(spans, "planner.plan"),
        1.0,
    );
    out.percentiles(
        "planner.execute_p50_us",
        None,
        &durations(spans, "planner.execute"),
        1e3,
    );
    let frontend = self_time_of(
        spans,
        input.own_ns,
        &["sql.parse", "sql.bind", "planner.plan"],
    );
    let total: u64 = durations(spans, "op").iter().sum();
    out.set(
        "sql.frontend_share",
        frontend as f64 / total as f64,
        input.ops,
    );
}

/// `n` positions spread evenly over `0..limit`.
pub fn stride(limit: usize, n: usize) -> impl Iterator<Item = usize> {
    (0..limit).step_by((limit / n.max(1)).max(1))
}

/// Wrong answers among `checks` evenly spread positions of `answers`
/// (`answers[p]` belongs to `stream[p]`), against the row-at-a-time
/// reference.
pub fn reference_misses(db: &Database, stream: &[Stmt], answers: &[u64], checks: usize) -> u64 {
    stride(answers.len().min(stream.len()), checks)
        .filter(|&p| {
            let expected = reference(db, &stream[p].query);
            !expected.is_ok_and(|r| digest(&r) == answers[p])
        })
        .count() as u64
}

/// Exact counters over `stmts`: what the engine says it did, that work
/// priced by the in-memory cost model, and a digest of every answer.
/// The caller passes a fixed slice, so the counters do not depend on how
/// far the time box let a pass get.
pub fn exact_layers(db: &Database, stmts: &[Stmt], out: &mut Layers) {
    let model = LinearCostModel::new(CostParams::mem_default());
    let mut footprint = QueryFootprint::default();
    let mut virtual_us = 0u64;
    let mut answers = Fnv::default();
    for stmt in stmts {
        if let Ok((result, fp)) = run_query(db, &stmt.query) {
            virtual_us += model.price(&fp).as_micros();
            footprint = footprint.merge(fp);
            answers.word(digest(&result));
        }
    }
    let n = stmts.len();
    out.set("kernels.rows_matched", footprint.rows_matched as f64, n);
    out.set("kernels.blocks_pruned", footprint.blocks_pruned as f64, n);
    out.set("kernels.blocks_scanned", footprint.blocks_scanned as f64, n);
    out.set("engine.virtual_cost_us", virtual_us as f64, n);
    out.set("engine.result_digest", digest_as_f64(answers.0), n);
}

/// Mean `exec::run_query` time over mean `Plan::execute` time on the
/// statements at `positions` (base: the unplanned path).
pub fn planner_speedup(
    db: &Database,
    stream: &[Stmt],
    positions: impl Iterator<Item = usize>,
    out: &mut Layers,
) {
    let (mut unplanned_ns, mut planned_ns, mut n) = (0u64, 0u64, 0usize);
    for p in positions {
        let query = &stream[p].query;
        let Ok(physical) = plan(db, query) else {
            continue;
        };
        let (unplanned, planned) = best_pair_ns(|| run_query(db, query), || physical.execute(db));
        unplanned_ns += unplanned;
        planned_ns += planned;
        n += 1;
    }
    out.set(
        "planner.speedup_vs_unplanned",
        unplanned_ns as f64 / planned_ns.max(1) as f64,
        n,
    );
}
