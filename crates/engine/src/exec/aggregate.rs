//! Histogram and count aggregation.
//!
//! Both operators run on the vectorized kernel layer: the filter is
//! evaluated column-at-a-time into a [`kernels::SelectionVector`], and
//! the histogram bins selected rows with the fused filter+bin+count
//! kernel — no `Vec<usize>` of row ids is ever materialized. A column
//! binned often by one spec keeps one bucket code per row for it, so
//! its bins read a byte a row instead of dividing. Virtual costs (the
//! [`QueryFootprint`] row counters) are byte-identical to the
//! row-at-a-time engine; only wall-clock time changes.

use std::sync::Arc;

use crate::cost::QueryFootprint;
use crate::error::EngineResult;
use crate::exec::Changeset;
use crate::kernels::{self, KernelOptions, KernelStats, SelectionVector};
use crate::predicate::Predicate;
use crate::query::BinSpec;
use crate::result::{Histogram, ResultSet};
use crate::table::Table;

/// Executes the crossfiltering histogram:
/// `SELECT ROUND((col - min) / width), COUNT(*) FROM t WHERE f GROUP BY 1 ORDER BY 1`.
///
/// A drag re-issues each histogram with one range nudged, so the table
/// remembers the last histogram counted over each column under its spec
/// (`Table::bin_at`). Under the same selection (a repeated filter) that
/// histogram is the answer. When it counted exactly the selection the
/// filter's moved walk started from, its counts move by the rows the walk
/// flipped (the filter's [`Changeset`]) and no mask is
/// read; under any other selection fewer rows away from it than it
/// selects, by the rows that entered and left, found by reading both
/// masks; otherwise the bin is cold. Each bin reads the spec's bucket
/// codes once its division bins have paid for them. Counts are integers
/// and the stored block counters are the cold walk's over the new
/// selection: no path shows.
pub fn run_histogram(
    table: &Table,
    bins: &BinSpec,
    filter: &Predicate,
) -> EngineResult<(ResultSet, QueryFootprint)> {
    bins.validate()?;
    // Before the bin column's checks: a bad filter outranks a bad bin column.
    let (selected, mut footprint, changeset) = super::filter_rows(table, filter)?;
    let bin_idx = bins.column_in(table)?;
    let (hist, stats) = bin_phase(table, bin_idx, bins, selected, changeset.as_ref());

    footprint.rows_aggregated = footprint.rows_matched;
    footprint.groups = hist.bins() as u64;
    footprint.rows_output = hist.bins() as u64;
    footprint.blocks_pruned += stats.blocks_pruned;
    footprint.blocks_scanned += stats.blocks_scanned;
    Ok((ResultSet::Histogram(hist), footprint))
}

/// The bin phase over the column at `idx`, by the rule [`run_histogram`]
/// states; remembers what it counted under the column's spec.
fn bin_phase(
    table: &Table,
    idx: usize,
    bins: &BinSpec,
    selected: Arc<SelectionVector>,
    changeset: Option<&Changeset>,
) -> (Histogram, KernelStats) {
    let bin = table.bin_at(idx, bins);
    let last = bin.last().clone();
    let (col, zone) = (table.column_at(idx), table.zone_map_at(idx));
    let (opts, mut stats, rows) = (KernelOptions::default(), KernelStats::default(), col.len());
    // The block walker, moving `hist` from the rows `from` selects.
    let mut walk = |from: Option<&SelectionVector>, mut hist: Histogram, walked: usize| {
        let codes = bin.codes(col, bins, walked);
        kernels::fused_filter_bin_range(
            col, zone, from, codes, &selected, bins, &opts, &mut stats, 0, rows, &mut hist,
        );
        hist
    };
    let cold = || Histogram::zeros(bins.bucket_count());
    let hist = match last.as_deref() {
        Some((from, hist, stats)) if Arc::ptr_eq(from, &selected) => {
            return (hist.clone(), *stats);
        }
        Some((from, hist, _)) => match changeset.filter(|(parent, _)| Arc::ptr_eq(from, parent)) {
            // It counted the walk's start: the rows the walk flipped are
            // the change, and no mask is read for them.
            Some((_, flipped)) => {
                let (codes, mut hist) = (bin.codes(col, bins, flipped.len()), hist.clone());
                kernels::bin_flipped(
                    col, zone, codes, &selected, flipped, bins, &opts, &mut stats, &mut hist,
                );
                hist
            }
            // Fewer rows changed than are selected: moving is the cheaper pass.
            None => match from.diff_count(&selected) {
                moved if moved < selected.count() => walk(Some(from), hist.clone(), moved),
                _ => walk(None, cold(), selected.count()),
            },
        },
        None => walk(None, cold(), selected.count()),
    };
    *bin.last() = Some(Arc::new((selected, hist.clone(), stats)));
    (hist, stats)
}

/// Executes `SELECT COUNT(*) FROM t WHERE f` — fused filter+count: the
/// answer is the selection mask's popcount.
pub fn run_count(table: &Table, filter: &Predicate) -> EngineResult<(ResultSet, QueryFootprint)> {
    let (_, mut footprint, _) = super::filter_rows(table, filter)?;
    footprint.rows_aggregated = footprint.rows_matched;
    footprint.groups = 1;
    footprint.rows_output = 1;
    Ok((ResultSet::Count(footprint.rows_matched), footprint))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::column::{ColumnBuilder, ZONE_BLOCK_ROWS};
    use crate::error::EngineError;
    use crate::exec::tests::{check_against_division, fresh};
    use crate::table::TableBuilder;
    use ids_simclock::rng::SimRng;

    fn road() -> Table {
        // x in [0, 10), y = x * 2, z constant.
        TableBuilder::new("road")
            .column("x", ColumnBuilder::float((0..100).map(|i| i as f64 / 10.0)))
            .column("y", ColumnBuilder::float((0..100).map(|i| i as f64 / 5.0)))
            .column("z", ColumnBuilder::float((0..100).map(|_| 1.0)))
            .build()
            .unwrap()
    }

    #[test]
    fn histogram_counts_filtered_rows() {
        let t = road();
        let bins = BinSpec::new("y", 0.0, 20.0, 20);
        let filter = Predicate::between("x", 0.0, 4.95);
        let (rs, fp) = run_histogram(&t, &bins, &filter).unwrap();
        let h = rs.histogram().unwrap();
        assert_eq!(h.bins(), 21);
        // 50 rows match (x 0.0..=4.9); all land in bins for y 0..=9.8.
        assert_eq!(h.total(), 50);
        assert_eq!(fp.rows_matched, 50);
        assert_eq!(fp.rows_scanned, 100);
        assert_eq!(fp.groups, 21);
    }

    #[test]
    fn histogram_excludes_out_of_domain_values() {
        let t = road();
        // Domain covers only half of y's actual range.
        let bins = BinSpec::new("y", 0.0, 9.0, 9);
        let (rs, _) = run_histogram(&t, &bins, &Predicate::True).unwrap();
        let h = rs.histogram().unwrap();
        assert!(h.total() < 100, "values above max must be dropped");
    }

    #[test]
    fn histogram_matches_manual_binning() {
        let t = road();
        let bins = BinSpec::new("x", 0.0, 10.0, 10);
        let (rs, _) = run_histogram(&t, &bins, &Predicate::True).unwrap();
        let h = rs.histogram().unwrap();
        let mut manual = [0u64; 11];
        for i in 0..100 {
            let x = i as f64 / 10.0;
            let b = (x / 1.0).round() as usize;
            manual[b.min(10)] += 1;
        }
        assert_eq!(h.counts(), &manual[..]);
    }

    #[test]
    fn invalid_bin_specs_error() {
        let t = road();
        assert!(matches!(
            run_histogram(&t, &BinSpec::new("y", 0.0, 20.0, 0), &Predicate::True),
            Err(EngineError::InvalidBinSpec(_))
        ));
        assert!(matches!(
            run_histogram(&t, &BinSpec::new("y", 5.0, 5.0, 10), &Predicate::True),
            Err(EngineError::InvalidBinSpec(_))
        ));
    }

    #[test]
    fn binning_string_column_errors() {
        let t = TableBuilder::new("s")
            .column("s", ColumnBuilder::str(["a", "b"]))
            .build()
            .unwrap();
        assert!(matches!(
            run_histogram(&t, &BinSpec::new("s", 0.0, 1.0, 2), &Predicate::True),
            Err(EngineError::TypeMismatch { .. })
        ));
    }

    #[test]
    fn binning_empty_string_column_errors() {
        // Regression: the old probe inspected `f64_at(0)`, which says
        // nothing about an empty column — an empty string column slid
        // through and produced an empty histogram instead of a type
        // error. The check must come from column metadata, not data.
        let t = TableBuilder::new("s")
            .column("s", ColumnBuilder::str(Vec::<&str>::new()))
            .build()
            .unwrap();
        assert!(matches!(
            run_histogram(&t, &BinSpec::new("s", 0.0, 1.0, 2), &Predicate::True),
            Err(EngineError::TypeMismatch { .. })
        ));
    }

    /// Each phase gives every block one verdict, so a dropped bin-phase
    /// [`KernelStats`] shows. Needs all three block fates: `x` ascends to
    /// 20,000 and wraps, the filter keeps 5,000..=16,000 and the bin
    /// domain is 8,000..=18,000 — blocks below the domain are
    /// zone-pruned, blocks the filter emptied are skipped, the rest are
    /// binned.
    #[test]
    fn each_phase_gives_every_block_one_verdict() {
        let rows = 30 * ZONE_BLOCK_ROWS + 321;
        let t = TableBuilder::new("t")
            .column(
                "x",
                ColumnBuilder::float((0..rows).map(|i| (i % 20_000) as f64)),
            )
            .build()
            .unwrap();
        let bins = BinSpec::new("x", 8_000.0, 18_000.0, 25);
        let filter = Predicate::between("x", 5_000.0, 16_000.0);
        let (_, fp) = run_histogram(&t, &bins, &filter).unwrap();
        let blocks = rows.div_ceil(ZONE_BLOCK_ROWS) as u64;
        assert_eq!(fp.blocks_scanned + fp.blocks_pruned, 2 * blocks);
        assert!(fp.blocks_pruned > 0 && fp.blocks_scanned > 0);
    }

    #[test]
    fn a_histogram_starts_from_the_remembered_one_only_when_fewer_rows_changed() {
        // Kills "the delta rule inverted", which no answer shows (every
        // path is exact): a planted off-by-1000 bucket in the column's slot
        // surfaces exactly when a statement started from it.
        let t = road();
        let bins = BinSpec::new("y", 0.0, 20.0, 20);
        // x in [0, 7.95] selects 80 rows, [0, 7.45] 75 of them, [9, 9.95] 10 others.
        let (wide, near, far) = ((0.0, 7.95), (0.0, 7.45), (9.0, 9.95));
        let run = |t: &Table, (lo, hi): (f64, f64)| {
            let (rs, _) = run_histogram(t, &bins, &Predicate::between("x", lo, hi)).unwrap();
            rs.histogram().unwrap().counts().to_vec()
        };
        run(&t, wide);
        let idx = t.column_index("y").unwrap();
        let planted = {
            let bin = t.bin_at(idx, &bins);
            let last = bin.last().clone().unwrap();
            let (sel, hist, stats) = &*last;
            let mut counts = hist.counts().to_vec();
            counts[0] += 1000;
            let entry = Arc::new((Arc::clone(sel), Histogram::from_counts(counts), *stats));
            *bin.last() = Some(Arc::clone(&entry));
            entry
        };
        // Failing statements, a count and another column's histogram leave
        // the slot as it was.
        let brush = Predicate::between("x", wide.0, wide.1);
        assert!(run_histogram(&t, &BinSpec::new("y", 1.0, 1.0, 4), &brush).is_err());
        assert!(run_histogram(&t, &bins, &Predicate::ge("nope", 1.0)).is_err());
        run_count(&t, &Predicate::between("x", 1.0, 2.0)).unwrap();
        run_histogram(&t, &BinSpec::new("x", 0.0, 10.0, 5), &brush).unwrap();
        let last = t.bin_at(idx, &bins).last().clone();
        assert!(Arc::ptr_eq(&last.unwrap(), &planted));
        // 5 rows changed, 75 selected: moved from the planted counts.
        let mut want = run(&road(), near);
        want[0] += 1000;
        assert_eq!(run(&t, near), want);
        // 85 rows changed, 10 selected: cold again.
        assert_eq!(run(&t, far), run(&road(), far));
    }

    /// Builds `bins`' codes on `table` now, as if its division bins had
    /// walked past the build's cost.
    fn force_codes(table: &Table, bins: &BinSpec) {
        let idx = table.column_index(&bins.column).unwrap();
        let bin = table.bin_at(idx, bins);
        bin.codes(table.column_at(idx), bins, usize::MAX);
    }

    /// Whether `table` holds `bins`' codes: a bin that spends nothing
    /// builds nothing.
    fn coded(table: &Table, bins: &BinSpec) -> bool {
        let idx = table.column_index(&bins.column).unwrap();
        let bin = table.bin_at(idx, bins);
        bin.codes(table.column_at(idx), bins, 0).is_some()
    }

    /// `x`'s place in IEEE order, so that one ulp is one step.
    fn ordered(x: f64) -> i64 {
        let bits = x.to_bits() as i64;
        if bits < 0 {
            bits ^ i64::MAX
        } else {
            bits
        }
    }

    /// The `f64` at place `k` ([`ordered`]'s inverse).
    fn unordered(k: i64) -> f64 {
        f64::from_bits(ordered(f64::from_bits(k as u64)) as u64)
    }

    /// Every bucket edge of `bins` ± 2 ulp: per bucket `b` some value
    /// reaches, the least `x` that `bin_with_width` bins at or past `b`,
    /// found by bisecting IEEE order between the domain's ends.
    fn edges(bins: &BinSpec) -> Vec<f64> {
        let reaches = |k: i64, b: usize| bins.bin_of(unordered(k)).is_some_and(|i| i >= b);
        let (lo, hi) = (ordered(bins.min), ordered(bins.max));
        let mut out = Vec::new();
        for b in (1..=bins.bins).filter(|&b| reaches(hi, b)) {
            let (mut below, mut at) = (i128::from(lo), i128::from(hi));
            while at - below > 1 {
                let mid = (below + at) / 2;
                match reaches(mid as i64, b) {
                    true => at = mid,
                    false => below = mid,
                }
            }
            out.extend((-2..=2).map(|d| unordered(at as i64 + d)));
        }
        out
    }

    /// A `Float` column `x` and an `Int` column `n` holding what binning
    /// must get right under `specs`: `x` every edge ± 2 ulp, the domains'
    /// ends, ±0.0, NaN, ±inf and ±1e308; `n` the integers either side of
    /// every edge and ±2⁵³ ± 2. Shuffled, then a last block of NaN and
    /// `i64::MAX`, outside every domain, which the bin's zone check skips.
    /// `f` is the row number, for filters.
    fn hard_table(rng: &mut SimRng, specs: &[BinSpec]) -> Table {
        const BIG: i64 = 1 << 53;
        let ends = specs.iter().flat_map(|b| [b.min, b.max]);
        let mut x: Vec<f64> = specs.iter().flat_map(edges).chain(ends).collect();
        x.extend([
            0.0,
            -0.0,
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            1e308,
            -1e308,
        ]);
        let near = |e: f64| (-2..=2).map(move |d| (e.floor() as i64).saturating_add(d));
        let mut n: Vec<i64> = x.iter().flat_map(|&e| near(e)).collect();
        n.extend(
            [BIG, -BIG]
                .into_iter()
                .flat_map(|e| (-2..=2).map(move |d| e + d)),
        );
        rng.shuffle(&mut x);
        rng.shuffle(&mut n);
        let rows = x.len().max(n.len()).next_multiple_of(ZONE_BLOCK_ROWS) + ZONE_BLOCK_ROWS;
        x.resize(rows, f64::NAN);
        n.resize(rows, i64::MAX);
        TableBuilder::new("t")
            .column("x", ColumnBuilder::float(x))
            .column("n", ColumnBuilder::int(n))
            .column("f", ColumnBuilder::float((0..rows).map(|r| r as f64)))
            .build()
            .unwrap()
    }

    /// Filters on the row number that start cold, move a bound by a few
    /// rows (a moved bin), jump to the table's end (cold), move again and
    /// select everything.
    fn drag(rng: &mut SimRng, rows: usize) -> Vec<Predicate> {
        let (a, b) = (
            rng.uniform_usize(0, rows / 4),
            rng.uniform_usize(rows / 2, rows),
        );
        let (a, b, end) = (a as f64, b as f64, rows as f64);
        let f = |lo, hi| Predicate::between("f", lo, hi);
        let moves = [
            f(a, b + 7.0),
            f(a - 3.0, b + 7.0),
            f(b, end),
            f(b - 2.0, end),
        ];
        [f(a, b)]
            .into_iter()
            .chain(moves)
            .chain([Predicate::True])
            .collect()
    }

    /// A bin that reads codes counts exactly like the division, cold and
    /// moved, blocks counted alike, on the values where binning is hard:
    /// `Float` and `Int` columns, 1 to 1,000 bins, huge and infinite
    /// domains. A spec with more than 254 bins never builds codes.
    #[test]
    fn a_coded_bin_counts_exactly_like_the_division() {
        let mut rng = SimRng::seed(41);
        let big = (1i64 << 53) as f64;
        let mut specs: Vec<BinSpec> = [1, 2, 20, 253, 254, 255, 1000]
            .into_iter()
            .flat_map(|b| {
                [
                    BinSpec::new("x", -3.25, 1000.5, b),
                    BinSpec::new("n", -big, big, b),
                ]
            })
            .collect();
        specs.push(BinSpec::new("x", 0.0, 1e308, 20));
        specs.push(BinSpec::new("x", f64::NEG_INFINITY, 100.0, 20));
        specs.push(BinSpec::new("n", -7.5, 1000.0, 254));
        for bins in &specs {
            let table = hard_table(&mut rng, std::slice::from_ref(bins));
            let fresh = fresh(&table);
            force_codes(&table, bins);
            for filter in drag(&mut rng, table.rows()) {
                check_against_division(&table, &fresh, bins, &filter).unwrap();
            }
            assert_eq!(coded(&table, bins), bins.bins <= 254, "{bins:?}");
        }
    }

    /// One column binned under two specs in turn whose `max` differs in
    /// its last bit: neither is ever answered with the other's codes.
    #[test]
    fn codes_never_answer_a_spec_one_ulp_away() {
        let mut rng = SimRng::seed(42);
        let a = BinSpec::new("x", -3.25, 1000.5, 20);
        let b = BinSpec::new("x", -3.25, unordered(ordered(1000.5) + 1), 20);
        let table = hard_table(&mut rng, &[a.clone(), b.clone()]);
        let fresh = fresh(&table);
        for (bins, other) in [(&a, &b), (&b, &a)] {
            force_codes(&table, bins);
            // Everything first: the row at `b.max` is in bucket 20 under
            // `b` and in none under `a`.
            let drag = [Predicate::True]
                .into_iter()
                .chain(drag(&mut rng, table.rows()));
            for filter in drag {
                check_against_division(&table, &fresh, bins, &filter).unwrap();
                check_against_division(&table, &fresh, other, &filter).unwrap();
            }
        }
    }

    #[test]
    fn count_matches_selection() {
        let t = road();
        let (rs, fp) = run_count(&t, &Predicate::between("x", 2.0, 3.0)).unwrap();
        assert_eq!(rs.scalar_count(), Some(11));
        assert_eq!(fp.rows_matched, 11);
        let (all, _) = run_count(&t, &Predicate::True).unwrap();
        assert_eq!(all.scalar_count(), Some(100));
    }
}
