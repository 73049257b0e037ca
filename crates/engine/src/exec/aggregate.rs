//! Histogram and count aggregation.
//!
//! Both operators run on the vectorized kernel layer: the filter is
//! evaluated column-at-a-time into a [`kernels::SelectionVector`], and
//! the histogram bins selected rows with the fused filter+bin+count
//! kernel — no `Vec<usize>` of row ids is ever materialized. Virtual
//! costs (the [`QueryFootprint`] row counters) are byte-identical to
//! the row-at-a-time engine; only wall-clock time changes.

use std::sync::Arc;

use crate::cost::QueryFootprint;
use crate::error::EngineResult;
use crate::kernels::{self, KernelOptions, KernelStats, SelectionVector};
use crate::predicate::Predicate;
use crate::query::BinSpec;
use crate::result::{Histogram, ResultSet};
use crate::table::Table;

/// Executes the crossfiltering histogram:
/// `SELECT ROUND((col - min) / width), COUNT(*) FROM t WHERE f GROUP BY 1 ORDER BY 1`.
///
/// A drag re-issues each histogram with one range nudged, so each column
/// remembers the last histogram counted over it (`Table::memo`), keyed
/// by its spec's bits. Under the same selection (a repeated filter) that
/// histogram is the answer; under a selection fewer rows away from it
/// than it selects, its counts move by the rows that entered and left;
/// otherwise the bin is cold. Counts are integers, so every path gives
/// the same answer, and the stored block counters are the cold walk's
/// over the same selection: nothing records which path ran.
pub fn run_histogram(
    table: &Table,
    bins: &BinSpec,
    filter: &Predicate,
) -> EngineResult<(ResultSet, QueryFootprint)> {
    bins.validate()?;
    // Before the bin column's checks: a bad filter outranks a bad bin column.
    let (selected, mut footprint) = super::filter_rows(table, filter)?;
    let bin_idx = bins.column_in(table)?;
    let (hist, stats) = bin_phase(table, bin_idx, bins, selected);

    footprint.rows_aggregated = footprint.rows_matched;
    footprint.groups = hist.bins() as u64;
    footprint.rows_output = hist.bins() as u64;
    footprint.blocks_pruned += stats.blocks_pruned;
    footprint.blocks_scanned += stats.blocks_scanned;
    Ok((ResultSet::Histogram(hist), footprint))
}

/// The bin phase over the column at `idx`, by the rule [`run_histogram`]
/// states; remembers what it counted.
fn bin_phase(
    table: &Table,
    idx: usize,
    bins: &BinSpec,
    selected: Arc<SelectionVector>,
) -> (Histogram, KernelStats) {
    let key = (bins.min.to_bits(), bins.max.to_bits(), bins.bins);
    let last = table.memo().hists[idx].clone();
    let (col, zone) = (table.column_at(idx), table.zone_map_at(idx));
    let (opts, mut stats) = (KernelOptions::default(), KernelStats::default());
    let hist = match last.as_deref().filter(|(k, ..)| *k == key) {
        Some((_, from, hist, stats)) if Arc::ptr_eq(from, &selected) => {
            return (hist.clone(), *stats);
        }
        // Fewer rows changed than are selected: moving is the cheaper pass.
        Some((_, from, hist, _)) if from.diff_count(&selected) < selected.count() => {
            let mut hist = hist.clone();
            let (from, rows) = (Some(&**from), col.len());
            kernels::fused_filter_bin_range(
                col, zone, from, &selected, bins, &opts, &mut stats, 0, rows, &mut hist,
            );
            hist
        }
        _ => kernels::fused_filter_bin(col, zone, &selected, bins, &opts, &mut stats),
    };
    table.memo().hists[idx] = Some(Arc::new((key, selected, hist.clone(), stats)));
    (hist, stats)
}

/// Executes `SELECT COUNT(*) FROM t WHERE f` — fused filter+count: the
/// answer is the selection mask's popcount.
pub fn run_count(table: &Table, filter: &Predicate) -> EngineResult<(ResultSet, QueryFootprint)> {
    let (_, mut footprint) = super::filter_rows(table, filter)?;
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
    use crate::table::TableBuilder;

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
            let mut memo = t.memo();
            let (key, sel, hist, stats) = &**memo.hists[idx].as_ref().unwrap();
            let mut counts = hist.counts().to_vec();
            counts[0] += 1000;
            let entry = Arc::new((
                *key,
                Arc::clone(sel),
                Histogram::from_counts(counts),
                *stats,
            ));
            memo.hists[idx] = Some(Arc::clone(&entry));
            entry
        };
        // Failing statements, a count and another column's histogram leave
        // the slot as it was.
        let brush = Predicate::between("x", wide.0, wide.1);
        assert!(run_histogram(&t, &BinSpec::new("y", 1.0, 1.0, 4), &brush).is_err());
        assert!(run_histogram(&t, &bins, &Predicate::ge("nope", 1.0)).is_err());
        run_count(&t, &Predicate::between("x", 1.0, 2.0)).unwrap();
        run_histogram(&t, &BinSpec::new("x", 0.0, 10.0, 5), &brush).unwrap();
        assert!(Arc::ptr_eq(t.memo().hists[idx].as_ref().unwrap(), &planted));
        // 5 rows changed, 75 selected: moved from the planted counts.
        let mut want = run(&road(), near);
        want[0] += 1000;
        assert_eq!(run(&t, near), want);
        // 85 rows changed, 10 selected: cold again.
        assert_eq!(run(&t, far), run(&road(), far));
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
