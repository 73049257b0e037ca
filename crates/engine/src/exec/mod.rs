//! Physical execution of logical queries over in-memory tables.
//!
//! Execution is backend-agnostic: each operator returns the
//! [`ResultSet`] *and* a [`QueryFootprint`]
//! recording how much work was done (tuples scanned, matched, grouped,
//! joined, rows emitted). Backends convert the footprint into virtual
//! time with their [`CostModel`](crate::cost::CostModel).
//!
//! This module is the only place a query is executed: every backend,
//! the shard layer, and [`Plan::execute`](crate::planner::Plan::execute)
//! dispatch to the same four operator bodies. [`run_query`] builds no
//! [`Plan`](crate::planner::Plan) — a plan today only explains; the
//! first access path that changes execution turns `run_query` into
//! `plan().execute()`. What a statement reuses from earlier ones is its
//! table's derived state, which one rule builds (`table::Priced`).
//!
//! A query runs on the thread that calls it. Parallelism is between
//! queries and sessions, through
//! [`ordered_map`](crate::parallel::ordered_map), and between shard
//! fragments, on the scatter-gather executor's helper threads
//! (`ids-shard`).

mod aggregate;
mod join;
mod scan;

pub use aggregate::{run_count, run_histogram};
pub use join::run_join;
pub use scan::run_select;

use std::sync::Arc;

use crate::cost::QueryFootprint;
use crate::error::EngineResult;
use crate::kernels::{self, KernelOptions, KernelStats, SelectionVector};
use crate::predicate::Predicate;
use crate::query::Query;
use crate::result::ResultSet;
use crate::table::Table;
use crate::Database;

/// What a moved walk changed: the selection it started from, and the
/// rows whose bit it flipped, each once, in no particular order. The bin
/// phase moves a histogram that counted exactly that selection by these
/// rows alone.
pub type Changeset = (Arc<SelectionVector>, Arc<[usize]>);

/// The filter phase of every operator: validates `filter` and returns
/// the rows it selects with the footprint fields the filter alone
/// determines (`rows_scanned`, `rows_matched`, `predicate_evals`, its
/// share of `blocks_pruned` / `blocks_scanned`), and the [`Changeset`]
/// that reached them when a moved walk did.
///
/// The table remembers the last filter it answered, so a repeat (a
/// crossfilter event re-queries every histogram under one `WHERE`) gets
/// that very answer back, changeset included. A drag moves one range
/// (`Predicate::moved_range`): the moved walk starts from the remembered
/// selection and decides again only the rows the column's value order
/// places between an old and a new bound. Both walks count every block
/// verdict the cold walk counts, so no footprint or virtual cost tells
/// which answered. A cold walk has no changeset, and a filter with a
/// nested `Or`/`Not` conjunct never moves. `TRUE` (O(words) to answer)
/// and errors are never remembered.
pub fn filter_rows(
    table: &Table,
    filter: &Predicate,
) -> EngineResult<(Arc<SelectionVector>, QueryFootprint, Option<Changeset>)> {
    let last = table.last_filter().clone();
    let mut from = None;
    if let Some((key, selected, footprint, changeset)) = last.as_deref() {
        if key.same_filter(filter) {
            return Ok((Arc::clone(selected), *footprint, changeset.clone()));
        }
        from = key.moved_range(filter).map(|moved| (selected, moved));
    }
    // Evaluated with the lock released: two workers racing on one table
    // both miss, each moves (or skips) a consistent remembered pair to
    // the cold walk's answer, and the later one's stays.
    let (opts, mut stats) = (KernelOptions::default(), KernelStats::default());
    filter.validate(table)?;
    let walk_from = from.map(|(selected, moved)| (&**selected, moved));
    let (selected, flipped) = kernels::eval_pred(table, filter, walk_from, &opts, &mut stats)?;
    let selected = Arc::new(selected);
    let changeset = from
        .zip(flipped)
        .map(|((parent, _), flipped)| (Arc::clone(parent), flipped.into()));
    let footprint = QueryFootprint {
        rows_scanned: table.rows() as u64,
        rows_matched: selected.count() as u64,
        predicate_evals: table.rows() as u64 * filter.condition_count() as u64,
        blocks_pruned: stats.blocks_pruned,
        blocks_scanned: stats.blocks_scanned,
        ..QueryFootprint::default()
    };
    if !matches!(filter, Predicate::True) {
        let memo = (
            filter.clone(),
            Arc::clone(&selected),
            footprint,
            changeset.clone(),
        );
        *table.last_filter() = Some(Arc::new(memo));
    }
    Ok((selected, footprint, changeset))
}

/// Executes a logical query against the tables registered in `db`.
pub fn run_query(db: &Database, query: &Query) -> EngineResult<(ResultSet, QueryFootprint)> {
    match query {
        Query::Select(spec) => {
            let table = db.table(&spec.table)?;
            run_select(&table, spec)
        }
        Query::Join(spec) => {
            let left = db.table(&spec.left)?;
            let right = db.table(&spec.right)?;
            run_join(&left, &right, spec)
        }
        Query::Histogram {
            table,
            bins,
            filter,
        } => {
            let table = db.table(table)?;
            run_histogram(&table, bins, filter)
        }
        Query::Count { table, filter } => {
            let table = db.table(table)?;
            run_count(&table, filter)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::column::{ColumnBuilder, ZONE_BLOCK_ROWS};
    use crate::query::BinSpec;
    use crate::table::TableBuilder;
    use ids_simclock::rng::{check, SimRng};
    use std::panic::AssertUnwindSafe;

    fn pick<T: Copy>(rng: &mut SimRng, from: &[T]) -> T {
        from[rng.uniform_usize(0, from.len())]
    }

    /// Values on a coarse grid, so bounds land on rows and rows tie, NaN
    /// and -0.0 among them; sorted (zone maps decide blocks) or shuffled.
    fn floats(rng: &mut SimRng, rows: usize) -> Vec<f64> {
        let mut v: Vec<f64> = (0..rows)
            .map(|_| match rng.uniform_usize(0, 16) {
                0 => f64::NAN,
                1 => -0.0,
                _ => rng.uniform_usize(0, 41) as f64 - 20.0,
            })
            .collect();
        if rng.chance(0.5) {
            v.sort_by(f64::total_cmp);
        }
        v
    }

    /// A bound: on the grid, between grid points, infinite, a signed
    /// zero, or (rarely) NaN, which must send the walk cold.
    fn bound(rng: &mut SimRng) -> f64 {
        match rng.uniform_usize(0, 24) {
            0 => f64::NAN,
            1 => pick(rng, &[f64::INFINITY, f64::NEG_INFINITY]),
            2 => pick(rng, &[0.0, -0.0]),
            3..=6 => rng.uniform_usize(0, 45) as f64 - 22.5,
            _ => rng.uniform_usize(0, 45) as f64 - 22.0,
        }
    }

    /// Builds every column's value order now, as if moved walks over it
    /// had streamed past the build's cost.
    fn build_orders(table: &Table) {
        for i in 0..table.width() {
            table.value_order_at(i, usize::MAX);
        }
    }

    /// Every stored mask of every built order: `M_k`, `0 < k < BUCKETS`,
    /// holds exactly the rows at positions `< b_k` of its run's order, is
    /// as long as the run's words, and holds no row past the table's last.
    fn check_masks(table: &Table) {
        for i in 0..table.width() {
            let Some(order) = table.value_order_at(i, 0) else {
                continue;
            };
            for (r, run) in order.offsets.chunks(kernels::RUN_ROWS).enumerate() {
                let size = run.len().div_ceil(kernels::BUCKETS);
                for k in 1..kernels::BUCKETS {
                    let mut want = vec![0u64; run.len().div_ceil(64)];
                    for &o in &run[..(k * size).min(run.len())] {
                        want[usize::from(o) / 64] |= 1 << (o % 64);
                    }
                    let got = order.mask(r * kernels::RUN_ROWS, k);
                    assert!(got == want, "column {i}, run {r}, M_{k}");
                }
            }
        }
    }

    /// A copy of `table` with none of its derived state: no value order
    /// (only a moved walk through [`filter_rows`] builds one), so its cold
    /// walk scans every leaf, and no memo.
    pub(super) fn fresh(table: &Table) -> Table {
        table.take(&(0..table.rows()).collect::<Vec<_>>())
    }

    /// `filter`'s answer through `table`'s memo against the scan of its
    /// `fresh` copy: the rows and every footprint field the filter
    /// determines.
    fn check_against_cold(table: &Table, fresh: &Table, filter: &Predicate) -> Result<(), String> {
        let (got, fp, _) = filter_rows(table, filter).map_err(|e| e.to_string())?;
        let (opts, mut stats) = (KernelOptions::default(), KernelStats::default());
        let cold = kernels::select_vector_with(fresh, filter, &opts, &mut stats);
        let cold = cold.map_err(|e| e.to_string())?;
        let counters = (fp.rows_matched, fp.blocks_pruned, fp.blocks_scanned);
        let want = (
            cold.count() as u64,
            stats.blocks_pruned,
            stats.blocks_scanned,
        );
        match *got == cold && counters == want {
            true => Ok(()),
            false => Err(format!("{filter}: {counters:?} against {want:?}")),
        }
    }

    #[test]
    fn a_moved_filter_answers_exactly_like_a_cold_walk() {
        check("exec/moved-walk", 0..300, |rng| {
            let rows = pick(rng, &[1, 63, 64, 65, 1023, 1024, 1025, 3000]);
            let (x, y) = (floats(rng, rows), floats(rng, rows));
            let mut n: Vec<i64> = (0..rows)
                .map(|_| rng.uniform_usize(0, 41) as i64 - 20)
                .collect();
            if rng.chance(0.5) {
                n.sort_unstable();
            }
            let s = (0..rows).map(|i| ["a", "b", "c"][(i * 7 + rows) % 3]);
            let table = TableBuilder::new("t")
                .column("x", ColumnBuilder::float(x))
                .column("y", ColumnBuilder::float(y))
                .column("n", ColumnBuilder::int(n))
                .column("s", ColumnBuilder::str(s))
                .build()
                .expect("static schema");
            let fresh = fresh(&table);
            if rng.chance(0.5) {
                build_orders(&table);
            }
            // Ranges on two `Float` columns and an `Int` one (and, rarely,
            // on a string column, which never moves), plus other leaves.
            let mut conjuncts: Vec<Predicate> = ["x", "n", "y"]
                .into_iter()
                .chain(rng.chance(0.1).then_some("s"))
                .map(|c| Predicate::between(c, bound(rng), bound(rng)))
                .collect();
            if rng.chance(0.5) {
                conjuncts.push(Predicate::eq("s", "b"));
            }
            if rng.chance(0.5) {
                conjuncts.push(Predicate::ge("y", bound(rng)));
            }
            rng.shuffle(&mut conjuncts);
            for step in 0..16 {
                // Move one range: a bound, both, inverted, or a nudge;
                // now and then two at once, which the walk answers cold.
                for _ in 0..1 + usize::from(step > 0 && rng.chance(0.1)) {
                    let at = rng.uniform_usize(0, conjuncts.len());
                    if let Predicate::Between { lo, hi, .. } = &mut conjuncts[at] {
                        match rng.uniform_usize(0, 5) {
                            0 => *lo = bound(rng),
                            1 => *hi = bound(rng),
                            2 => (*lo, *hi) = (bound(rng), bound(rng)),
                            3 => (*lo, *hi) = (*hi, *lo),
                            _ => *hi += pick(rng, &[-1.0, 1.0]),
                        }
                    }
                }
                let filter = Predicate::And(conjuncts.clone());
                let checked = check_against_cold(&table, &fresh, &filter);
                checked.unwrap_or_else(|e| panic!("{rows} rows, step {step}: {e}"));
            }
        });
    }

    /// Run edges and ties: tables one row either side of a run and two
    /// runs and a row; `-0.0`, `0.0` and NaN data; `Int`s around ±2⁵³,
    /// where neighbours convert to one `f64`; bounds on data values at
    /// the run edges. The order is a permutation of each run,
    /// non-decreasing in IEEE order with NaN last, and every moved walk
    /// answers like the cold one.
    #[test]
    fn a_moved_walk_is_exact_at_run_edges_and_ties() {
        check("exec/moved-walk-edges", 0..8, |rng| {
            let rows = pick(rng, &[65_535, 65_536, 65_537, 131_073]);
            let x: Vec<f64> = (0..rows)
                .map(|_| match rng.uniform_usize(0, 32) {
                    0 => f64::NAN,
                    1 => -0.0,
                    2 => 0.0,
                    _ => rng.uniform_usize(0, 8001) as f64 / 4.0 - 1000.0,
                })
                .collect();
            let y: Vec<f64> = (0..rows).map(|_| rng.uniform(-1.0, 1.0)).collect();
            const BIG: i64 = 1 << 53;
            let n: Vec<i64> = (0..rows)
                .map(|_| match rng.uniform_usize(0, 4) {
                    0 => pick(rng, &[BIG, -BIG]) + rng.uniform_usize(0, 9) as i64 - 4,
                    _ => rng.uniform_usize(0, 2_000_001) as i64 - 1_000_000,
                })
                .collect();
            let table = TableBuilder::new("t")
                .column("x", ColumnBuilder::float(x))
                .column("n", ColumnBuilder::int(n))
                .column("y", ColumnBuilder::float(y))
                .build()
                .expect("static schema");
            let fresh = fresh(&table);
            build_orders(&table);
            for i in 0..table.width() {
                let (col, order) = (table.column_at(i), table.value_order_at(i, 0));
                let order = order.expect("numeric columns have an order");
                assert_eq!(order.offsets.len(), rows);
                for (r, run) in order.offsets.chunks(kernels::RUN_ROWS).enumerate() {
                    let mut seen = vec![false; run.len()];
                    for &o in run {
                        assert!(!std::mem::replace(&mut seen[usize::from(o)], true));
                    }
                    let value = |o: &u16| col.f64_at(r * kernels::RUN_ROWS + usize::from(*o));
                    let values: Vec<f64> = run.iter().filter_map(value).collect();
                    let numbers = values.iter().take_while(|v| !v.is_nan()).count();
                    assert!(values[numbers..].iter().all(|v| v.is_nan()), "NaN last");
                    assert!(
                        values[..numbers].windows(2).all(|w| w[0] <= w[1]),
                        "run {r}"
                    );
                }
            }
            check_masks(&table);
            // Bounds: data values at the run edges and the table's ends,
            // ties of ±2⁵³, signed zeros, infinities, or the grid.
            let edges = [
                0,
                65_534,
                65_535,
                65_536,
                65_537,
                131_071,
                131_072,
                rows - 1,
            ];
            let bound = |rng: &mut SimRng, col: usize| match rng.uniform_usize(0, 6) {
                0 => {
                    let row = pick(rng, &edges).min(rows - 1);
                    let v = table.column_at(col).f64_at(row).expect("numeric");
                    if v.is_nan() {
                        0.0
                    } else {
                        v
                    }
                }
                1 => (pick(rng, &[BIG, -BIG]) + rng.uniform_usize(0, 5) as i64 - 2) as f64,
                2 => pick(rng, &[0.0, -0.0, f64::INFINITY, f64::NEG_INFINITY]),
                _ => rng.uniform_usize(0, 8001) as f64 / 4.0 - 1000.0,
            };
            let mut conjuncts: Vec<Predicate> = ["x", "n", "y"]
                .into_iter()
                .map(|c| Predicate::between(c, -1000.0, 1000.0))
                .collect();
            for step in 0..12 {
                let at = rng.uniform_usize(0, 2);
                if let Predicate::Between { lo, hi, .. } = &mut conjuncts[at] {
                    match rng.uniform_usize(0, 4) {
                        0 => *lo = bound(rng, at),
                        1 => *hi = bound(rng, at),
                        _ => *hi += pick(rng, &[-0.25, 0.25, -1.0, 1.0]),
                    }
                }
                let filter = Predicate::And(conjuncts.clone());
                let checked = check_against_cold(&table, &fresh, &filter);
                checked.unwrap_or_else(|e| panic!("{rows} rows, step {step}: {e}"));
            }
        });
    }

    /// The cold walk with every value order built answers exactly like
    /// the scan of a copy with none: rows, rows matched and both block
    /// counters, with zone pruning on and off, through
    /// `select_vector_with` and through the memo. Tables sit at and
    /// around the run edges or are small; the data holds NaN, ±0.0, ±inf,
    /// ties and `Int`s at ±2⁵³; bounds are NaN, inverted, infinite, signed
    /// zeros, data values (some at and beside a mask boundary of a run's
    /// order, the short last run's included) or the grid, mostly narrow,
    /// so most ranges are read from their orders; beside them sit a `Cmp`,
    /// a string `=`, a range on the string column and a nested `Or`. Wide
    /// ranges that leave out a few rows, or only the NaN ones, are read
    /// from the stored masks. Every stored mask is checked too.
    #[test]
    fn an_ordered_cold_walk_answers_exactly_like_a_scan() {
        check("exec/ordered-cold-walk", 0..20, |rng| {
            let rows = match rng.chance(0.25) {
                true => pick(rng, &[65_535, 65_536, 65_537, 131_073]),
                false => pick(rng, &[1, 63, 64, 1023, 1025, 3000]),
            };
            const BIG: i64 = 1 << 53;
            let grid = |rng: &mut SimRng| rng.uniform_usize(0, 161) as f64 / 4.0 - 20.0;
            let mut x: Vec<f64> = (0..rows)
                .map(|_| match rng.uniform_usize(0, 24) {
                    0 => f64::NAN,
                    1 => pick(rng, &[0.0, -0.0]),
                    2 => pick(rng, &[f64::INFINITY, f64::NEG_INFINITY]),
                    _ => grid(rng),
                })
                .collect();
            if rng.chance(0.3) {
                x.sort_by(f64::total_cmp);
            }
            let n: Vec<i64> = (0..rows)
                .map(|_| match rng.uniform_usize(0, 4) {
                    0 => pick(rng, &[BIG, -BIG]) + rng.uniform_usize(0, 9) as i64 - 4,
                    _ => rng.uniform_usize(0, 81) as i64 - 40,
                })
                .collect();
            let y = Vec::from_iter((0..rows).map(|_| grid(rng)));
            let s = (0..rows).map(|i| ["a", "b", "c"][(i * 7 + rows) % 3]);
            let mut u = Vec::from_iter((0..rows).map(|r| r as f64));
            rng.shuffle(&mut u);
            let table = TableBuilder::new("t")
                .column("x", ColumnBuilder::float(x))
                .column("n", ColumnBuilder::int(n))
                .column("y", ColumnBuilder::float(y))
                .column("s", ColumnBuilder::str(s))
                .column("u", ColumnBuilder::float(u))
                .build()
                .expect("static schema");
            let fresh = fresh(&table);
            build_orders(&table);
            check_masks(&table);
            let value = |col: usize, row: usize| table.column_at(col).f64_at(row).expect("numeric");
            // The value at position `b_k − 1`, `b_k` or `b_k + 1` of a run's
            // order, the last run half the time.
            let at_boundary = |rng: &mut SimRng, col: usize| {
                let runs = rows.div_ceil(kernels::RUN_ROWS);
                let any = rng.uniform_usize(0, runs);
                let r = pick(rng, &[runs - 1, any]);
                let order = table.value_order_at(col, 0).expect("built");
                let run = order.offsets.chunks(kernels::RUN_ROWS).nth(r).expect("run");
                let size = run.len().div_ceil(kernels::BUCKETS);
                let b = (rng.uniform_usize(0, kernels::BUCKETS + 1) * size).min(run.len());
                let p = (b + rng.uniform_usize(0, 3))
                    .saturating_sub(1)
                    .min(run.len() - 1);
                value(col, r * kernels::RUN_ROWS + usize::from(run[p]))
            };
            let bound = |rng: &mut SimRng, col: usize| match rng.uniform_usize(0, 18) {
                0 => f64::NAN,
                1 => pick(rng, &[f64::INFINITY, f64::NEG_INFINITY]),
                2 => pick(rng, &[0.0, -0.0]),
                3 => (pick(rng, &[BIG, -BIG]) + rng.uniform_usize(0, 5) as i64 - 2) as f64,
                4..=7 => value(col, rng.uniform_usize(0, rows)),
                8..=10 => at_boundary(rng, col),
                _ => grid(rng),
            };
            let checked = |filter: &Predicate, step: usize| {
                for zone_prune in [true, false] {
                    let opts = KernelOptions { zone_prune };
                    let walk = |t: &Table| {
                        let mut stats = KernelStats::default();
                        let sel = kernels::select_vector_with(t, filter, &opts, &mut stats);
                        let sel = sel.expect("valid");
                        (sel.count(), stats, sel)
                    };
                    let (got, want) = (walk(&table), walk(&fresh));
                    assert!(got == want, "{rows} rows, step {step}, {opts:?}: {filter}");
                }
                let checked = check_against_cold(&table, &fresh, filter);
                checked.unwrap_or_else(|e| panic!("{rows} rows, step {step}: {e}"));
            };
            let range = |rng: &mut SimRng, col: usize, name: &str| {
                let lo = bound(rng, col);
                let hi = match rng.uniform_usize(0, 6) {
                    0 => bound(rng, col),
                    1 => lo - 1.0, // inverted
                    2 => lo + 30.0,
                    _ => lo + pick(rng, &[0.0, 0.25, 1.0, 4.0]),
                };
                Predicate::between(name, lo, hi)
            };
            for step in 0..10 {
                let mut conjuncts = Vec::new();
                for (col, name) in [(0, "x"), (1, "n"), (2, "y")] {
                    if rng.chance(0.8) {
                        conjuncts.push(range(rng, col, name));
                    }
                }
                if rng.chance(0.3) {
                    conjuncts.push(Predicate::ge("y", grid(rng)));
                }
                if rng.chance(0.3) {
                    conjuncts.push(Predicate::eq("s", "b"));
                }
                if rng.chance(0.2) {
                    conjuncts.push(Predicate::between("s", -1.0, 1.0));
                }
                if rng.chance(0.3) {
                    let or = [range(rng, 0, "x"), Predicate::eq("s", "a")];
                    conjuncts.push(Predicate::Or(or.into()));
                }
                rng.shuffle(&mut conjuncts);
                checked(&Predicate::And(conjuncts), step);
            }
            // Wide ranges, read from the masks: all but 0, 1 or 1,023 rows
            // of `u`, a permutation of 0..rows, with ±0.0 and ±inf on its
            // ends, and every number of `x`, which leaves out only its NaN
            // rows.
            let every = Predicate::between("x", f64::NEG_INFINITY, f64::INFINITY);
            checked(&Predicate::And(vec![every]), 10);
            for cut in [0, 1, 1023] {
                let low = rng.uniform_usize(0, cut + 1);
                let lo = match low {
                    0 => pick(rng, &[0.0, -0.0, f64::NEG_INFINITY]),
                    _ => low as f64,
                };
                let hi = match cut - low {
                    0 => pick(rng, &[rows as f64 - 1.0, f64::INFINITY]),
                    high => (rows - 1) as f64 - high as f64,
                };
                checked(
                    &Predicate::And(vec![Predicate::between("u", lo, hi)]),
                    11 + cut,
                );
            }
        });
    }

    /// Two threads, in lock step, drive clones of `table` through `steps`
    /// statements: each step runs `check` on statement `step`, the second
    /// thread level with the first or (by `rng`) a step or two behind.
    /// Returns every failure, a panic included, so that no thread is left
    /// waiting at the barrier.
    fn lock_step(
        rng: &mut SimRng,
        table: &Table,
        steps: usize,
        check: impl Fn(&Table, usize) -> Result<(), String> + Sync,
    ) -> Vec<String> {
        let (lag, barrier) = (rng.uniform_usize(0, 3), std::sync::Barrier::new(2));
        std::thread::scope(|s| {
            let threads = [0, lag].map(|lag| {
                let (table, barrier, check) = (table.clone(), &barrier, &check);
                s.spawn(move || {
                    let mut failures = Vec::new();
                    for step in 0..steps {
                        barrier.wait();
                        let at = step.saturating_sub(lag);
                        let checked =
                            std::panic::catch_unwind(AssertUnwindSafe(|| check(&table, at)));
                        match checked {
                            Ok(Ok(())) => {}
                            Ok(Err(e)) => failures.push(format!("lag {lag}, step {step}: {e}")),
                            Err(_) => failures.push(format!("lag {lag}, step {step}: panicked")),
                        }
                    }
                    failures
                })
            });
            threads
                .map(|t| t.join().expect("caught panics are failures"))
                .concat()
        })
    }

    /// The memo's race rule: two threads, in lock step, drive clones of
    /// one table from before any zone map or value order exists. Both
    /// walk one drag — each filter repeats the last, moves one range on
    /// any column, or moves two — the second thread level with the first
    /// or a step or two behind, so each walk may start from the selection
    /// the other thread stored. Every answer and footprint equals the
    /// cold walk's.
    #[test]
    fn racing_threads_on_one_table_answer_like_a_cold_walk() {
        check("exec/moved-walk-race", 0..16, |rng| {
            let rows = pick(rng, &[1025, 3000, 5000]);
            let grid = |rng: &mut SimRng| rng.uniform_usize(0, 41) as f64 - 20.0;
            let (x, y): (Vec<f64>, Vec<f64>) = (0..rows).map(|_| (grid(rng), grid(rng))).unzip();
            let n = (0..rows).map(|_| rng.uniform_usize(0, 41) as i64 - 20);
            let table = TableBuilder::new("t")
                .column("x", ColumnBuilder::float(x))
                .column("y", ColumnBuilder::float(y))
                .column("n", ColumnBuilder::int(n))
                .build()
                .expect("static schema");
            let fresh = fresh(&table);
            // Ranges inside the data's span, so zone maps leave every
            // block undecided and the walks stream enough to build orders.
            let mut conjuncts: Vec<Predicate> = ["x", "n", "y"]
                .into_iter()
                .map(|c| Predicate::between(c, -10.0 - grid(rng) / 4.0, 10.0 + grid(rng) / 4.0))
                .collect();
            let drag: Vec<Predicate> = (0..64)
                .map(|_| {
                    for _ in 0..pick(rng, &[0, 1, 1, 1, 2]) {
                        let at = rng.uniform_usize(0, 3);
                        if let Predicate::Between { lo, hi, .. } = &mut conjuncts[at] {
                            let end = if rng.chance(0.5) { lo } else { hi };
                            *end += pick(rng, &[-1.0, 1.0]);
                        }
                    }
                    Predicate::And(conjuncts.clone())
                })
                .collect();
            let failures = lock_step(rng, &table, drag.len(), |table, step| {
                check_against_cold(table, &fresh, &drag[step])
            });
            assert!(failures.is_empty(), "{rows} rows: {failures:#?}");
        });
    }

    /// The histogram's answer through `table`'s memo, bucket codes and
    /// all, against the division path's on its `fresh` copy (the scan,
    /// then the public kernel, which divides): the counts, the rows
    /// matched and the statement's block counters, which sum the filter's
    /// and the bin's.
    pub(super) fn check_against_division(
        table: &Table,
        fresh: &Table,
        bins: &BinSpec,
        filter: &Predicate,
    ) -> Result<(), String> {
        let (got, fp) = run_histogram(table, bins, filter).map_err(|e| e.to_string())?;
        let (opts, mut stats) = (KernelOptions::default(), KernelStats::default());
        let cold = kernels::select_vector_with(fresh, filter, &opts, &mut stats);
        let cold = cold.map_err(|e| e.to_string())?;
        let idx = fresh
            .column_index(&bins.column)
            .map_err(|e| e.to_string())?;
        let (col, zone) = (fresh.column_at(idx), fresh.zone_map_at(idx));
        let want = kernels::fused_filter_bin(col, zone, &cold, bins, &opts, &mut stats);
        let got = (
            got.histogram().map(|h| h.counts().to_vec()),
            fp.rows_matched,
        );
        let got = (got, fp.blocks_pruned, fp.blocks_scanned);
        let want = (Some(want.counts().to_vec()), cold.count() as u64);
        let want = (want, stats.blocks_pruned, stats.blocks_scanned);
        match got == want {
            true => Ok(()),
            false => Err(format!("{bins:?} under {filter}: {got:?} against {want:?}")),
        }
    }

    /// The changeset rule, on one thread: drags that bin two or three
    /// columns in turn, a random few of them under each filter, so a
    /// column's last histogram sometimes counted the selection the moved
    /// walk started from (the counts move by the rows it flipped) and
    /// sometimes another (both masks are read, or the bin is cold). The
    /// row-number range moves across block edges, so the bin's block
    /// counters change with the selection. Some drags carry a nested `Or`
    /// or `Not`: the memo never moves such a filter
    /// (`Predicate::moved_range`), and the walk started from the last
    /// selection anyway hands out no changeset, since the nested
    /// conjunct's intersection can undo a flip. `x` reads bucket codes,
    /// `n` and `y` divide. Every answer and footprint equals the division
    /// path's, and a drag without a nested conjunct moves by a changeset.
    #[test]
    fn a_changeset_moves_only_the_histogram_that_counted_its_start() {
        check("exec/changeset-bin", 0..24, |rng| {
            let rows = pick(rng, &[3000, 5000]);
            let grid = |rng: &mut SimRng| rng.uniform_usize(0, 41) as f64 - 20.0;
            let x = (0..rows).map(|_| match rng.chance(0.05) {
                true => f64::NAN,
                false => grid(rng),
            });
            let x: Vec<f64> = x.collect();
            let y: Vec<f64> = (0..rows).map(|_| grid(rng)).collect();
            let n = (0..rows).map(|_| rng.uniform_usize(0, 41) as i64 - 20);
            let table = TableBuilder::new("t")
                .column("x", ColumnBuilder::float(x))
                .column("n", ColumnBuilder::int(n))
                .column("y", ColumnBuilder::float(y))
                .column("f", ColumnBuilder::float((0..rows).map(|r| r as f64)))
                .build()
                .expect("static schema");
            let fresh = fresh(&table);
            build_orders(&table);
            let specs = [
                BinSpec::new("x", -15.0, 15.0, 30),
                BinSpec::new("n", -20.0, 20.0, 8),
                BinSpec::new("y", -10.0, 20.0, 6),
            ];
            table
                .bin_at(0, &specs[0])
                .codes(table.column_at(0), &specs[0], usize::MAX);
            let specs = &specs[..pick(rng, &[2, 3])];
            let nested = match rng.uniform_usize(0, 4) {
                0 => Some(Predicate::Or(vec![
                    Predicate::between("y", -5.0, 5.0),
                    Predicate::eq("n", 3i64),
                ])),
                1 => Some(Predicate::Not(Box::new(Predicate::between("y", -5.0, 5.0)))),
                _ => None,
            };
            // Both ends near a block edge, so blocks empty and fill.
            let edge = ZONE_BLOCK_ROWS as f64;
            let (mut lo, mut hi) = (edge - 4.0, 2.0 * edge + 4.0);
            let (mut flipped_bins, mut last_leaves) = (0, None);
            for step in 0..32 {
                match rng.uniform_usize(0, 8) {
                    0 => {}
                    1 => lo = edge - pick(rng, &[20.0, 8.0]),
                    _ => {
                        let end = if rng.chance(0.5) { &mut lo } else { &mut hi };
                        *end += pick(rng, &[-9.0, -3.0, -1.0, 1.0, 3.0, 9.0]);
                    }
                }
                let leaves = Predicate::And(vec![
                    Predicate::between("f", lo, hi),
                    Predicate::between("n", -18.0, 15.0),
                ]);
                let filter = match &nested {
                    Some(p) => Predicate::and([leaves.clone(), p.clone()]),
                    None => leaves.clone(),
                };
                let (selected, ..) = filter_rows(&table, &filter).expect("valid");
                let moved = last_leaves.and_then(|(was, from): (Predicate, Arc<_>)| {
                    was.moved_range(&leaves).map(|moved| (from, moved))
                });
                if let (Some(_), Some((from, moved))) = (&nested, moved) {
                    let (opts, mut stats) = (KernelOptions::default(), KernelStats::default());
                    let from = Some((&*from, moved));
                    let walked = kernels::eval_pred(&table, &filter, from, &opts, &mut stats);
                    let (walked, flipped) = walked.expect("valid");
                    assert!(walked == *selected && flipped.is_none(), "step {step}");
                }
                last_leaves = Some((leaves, selected));
                let mut binned = specs.to_vec();
                rng.shuffle(&mut binned);
                binned.truncate(rng.uniform_usize(1, specs.len() + 1));
                for bins in &binned {
                    let (.., changeset) = filter_rows(&table, &filter).expect("valid");
                    let idx = table.column_index(&bins.column).expect("binned");
                    let last = table.bin_at(idx, bins).last().clone();
                    let counted = |(parent, _): &Changeset| {
                        last.as_ref().is_some_and(|l| Arc::ptr_eq(&l.0, parent))
                    };
                    flipped_bins += usize::from(changeset.as_ref().is_some_and(counted));
                    let checked = check_against_division(&table, &fresh, bins, &filter);
                    checked.unwrap_or_else(|e| panic!("{rows} rows, step {step}: {e}"));
                }
            }
            match nested {
                Some(nested) => assert_eq!(flipped_bins, 0, "under {nested}"),
                None => assert!(flipped_bins > 0, "{rows} rows: no changeset bin"),
            }
        });
    }

    /// The race rule with bucket codes: two threads in lock step bin one
    /// drag on clones of a fresh table, so each column's codes are built
    /// while the other thread bins it. Each statement bins `x` or `n` by
    /// that column's one spec, both under each filter of a drag that
    /// repeats, moves a bound by a row or two, or jumps. Every answer and
    /// footprint equals the division path's, and both columns end coded.
    #[test]
    fn racing_threads_bin_like_the_division_path() {
        check("exec/coded-bin-race", 0..16, |rng| {
            let rows = pick(rng, &[1025, 3000, 5000]);
            let grid = |rng: &mut SimRng| rng.uniform_usize(0, 41) as f64 - 20.0;
            let x: Vec<f64> = (0..rows)
                .map(|_| {
                    if rng.chance(0.05) {
                        f64::NAN
                    } else {
                        grid(rng)
                    }
                })
                .collect();
            let n = (0..rows).map(|_| rng.uniform_usize(0, 41) as i64 - 20);
            let table = TableBuilder::new("t")
                .column("x", ColumnBuilder::float(x))
                .column("n", ColumnBuilder::int(n))
                .column("f", ColumnBuilder::float((0..rows).map(|r| r as f64)))
                .build()
                .expect("static schema");
            let fresh = fresh(&table);
            let specs = [
                BinSpec::new("x", -15.0, 15.0, 30),
                BinSpec::new("n", -20.0, 20.0, 8),
            ];
            let (mut lo, mut hi) = (0.0, rows as f64 / 2.0);
            let drag: Vec<(&BinSpec, Predicate)> = (0..32)
                .flat_map(|_| {
                    match rng.uniform_usize(0, 8) {
                        0..=3 => {
                            lo = rng.uniform_usize(0, rows / 2) as f64;
                            hi = lo + rng.uniform_usize(rows / 4, rows / 2) as f64;
                        }
                        4 => {}
                        _ => {
                            let end = if rng.chance(0.5) { &mut lo } else { &mut hi };
                            *end += pick(rng, &[-2.0, -1.0, 1.0]);
                        }
                    }
                    let filter = Predicate::and([
                        Predicate::between("f", lo, hi),
                        Predicate::between("n", -18.0, 15.0),
                    ]);
                    specs.each_ref().map(|bins| (bins, filter.clone()))
                })
                .collect();
            let failures = lock_step(rng, &table, drag.len(), |table, step| {
                check_against_division(table, &fresh, drag[step].0, &drag[step].1)
            });
            assert!(failures.is_empty(), "{rows} rows: {failures:#?}");
            for bins in &specs {
                let idx = table.column_index(&bins.column).expect("binned");
                let bin = table.bin_at(idx, bins);
                assert!(
                    bin.codes(table.column_at(idx), bins, 0).is_some(),
                    "{bins:?}"
                );
            }
        });
    }
}
