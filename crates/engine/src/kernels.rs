//! Vectorized query kernels.
//!
//! The crossfilter hot path used to be row-at-a-time: `Predicate::select`
//! materialized a `Vec<usize>` of row ids, then every selected row paid an
//! `Option`-checked [`Column::f64_at`] dispatch. This module replaces that
//! with column-at-a-time kernels over a [`SelectionVector`] bitmask:
//!
//! - **batch predicate kernels** evaluate each condition over the raw
//!   `i64`/`f64` slices (or dictionary codes) 64 rows per word, combining
//!   conjunctions/disjunctions as bitwise AND/OR/NOT;
//! - **zone maps** ([`crate::column::ZoneMap`], per-1024-row-block
//!   min/max/NaN-count, built lazily per column) let range predicates
//!   decide whole blocks — all-false or all-true — without touching data;
//! - **fused kernels** consume the selection vector directly
//!   (filter+bin+count for histograms, filter+count for counts) without
//!   ever materializing a row-id vector.
//!
//! Kernels change *how* results are computed, never *what* they are: every
//! kernel is differential-tested against the row-at-a-time interpreter
//! (`tests/kernels.rs`, `ids-simtest`'s reference), and zone-map pruning
//! is required to be invisible (`KernelOptions::zone_prune` on/off must be
//! byte-equal — see `tests/properties.rs`).

use crate::column::{Column, ZoneMap, ZONE_BLOCK_ROWS};
use crate::error::EngineResult;
use crate::predicate::{CmpOp, Predicate};
use crate::query::BinSpec;
use crate::result::Histogram;
use crate::table::Table;
use crate::value::Value;

/// Tuning knobs for kernel execution. Results are required to be
/// identical for every combination of options; the knobs exist so tests
/// can prove that (and so benches can measure each layer's contribution).
#[derive(Debug, Clone, Copy)]
pub struct KernelOptions {
    /// Consult per-block zone maps to skip whole blocks. Pruning is an
    /// optimization only: outputs are byte-identical with it off.
    pub zone_prune: bool,
}

impl Default for KernelOptions {
    fn default() -> Self {
        KernelOptions { zone_prune: true }
    }
}

/// Counters describing how much work the kernels actually did (vs what
/// zone maps let them skip). Feeds `QueryFootprint::blocks_pruned` /
/// `blocks_scanned` and the perf harness.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct KernelStats {
    /// Blocks decided entirely from the zone map (all-false or all-true)
    /// without touching column data.
    pub blocks_pruned: u64,
    /// Blocks whose data was actually read.
    pub blocks_scanned: u64,
}

/// A set of selected rows over a table of `len` rows, stored as a
/// bitmask (64 rows per word) with a cached population count.
///
/// The mask representation makes conjunction/disjunction a word-wise
/// AND/OR, and [`runs`](SelectionVector::runs) decodes the mask into
/// run-length `(start, end)` ranges so fused consumers can process
/// dense regions without per-row branching.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SelectionVector {
    len: usize,
    words: Vec<u64>,
    count: usize,
}

impl SelectionVector {
    /// Number of words needed for `len` rows.
    fn word_count(len: usize) -> usize {
        len.div_ceil(64)
    }

    /// A mask for the bits of the final (possibly partial) word.
    fn tail_mask(len: usize) -> u64 {
        match len % 64 {
            0 => u64::MAX,
            r => (1u64 << r) - 1,
        }
    }

    /// Selects every row of a `len`-row table.
    pub fn all(len: usize) -> SelectionVector {
        let mut words = vec![u64::MAX; Self::word_count(len)];
        if let Some(last) = words.last_mut() {
            *last &= Self::tail_mask(len);
        }
        SelectionVector {
            len,
            words,
            count: len,
        }
    }

    /// Selects no rows of a `len`-row table.
    pub fn none(len: usize) -> SelectionVector {
        SelectionVector {
            len,
            words: vec![0; Self::word_count(len)],
            count: 0,
        }
    }

    /// Builds a selection from raw mask words. Bits beyond `len` are
    /// cleared; the population count is computed once here.
    pub fn from_words(mut words: Vec<u64>, len: usize) -> SelectionVector {
        words.resize(Self::word_count(len), 0);
        if let Some(last) = words.last_mut() {
            *last &= Self::tail_mask(len);
        }
        let count = words.iter().map(|w| w.count_ones() as usize).sum();
        SelectionVector { len, words, count }
    }

    /// Number of rows in the underlying table.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` when the underlying table has no rows.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of selected rows (cached popcount).
    pub fn count(&self) -> usize {
        self.count
    }

    /// `true` when every row is selected.
    pub fn is_all(&self) -> bool {
        self.count == self.len
    }

    /// Whether `row` is selected. Out-of-bounds rows are not selected.
    pub fn contains(&self, row: usize) -> bool {
        row < self.len && self.words[row / 64] & (1u64 << (row % 64)) != 0
    }

    /// The raw mask words (64 rows per word, LSB-first).
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// In-place intersection with `other` (same table length).
    pub fn intersect(&mut self, other: &SelectionVector) {
        debug_assert_eq!(self.len, other.len);
        for (a, b) in self.words.iter_mut().zip(other.words.iter()) {
            *a &= b;
        }
        self.count = self.words.iter().map(|w| w.count_ones() as usize).sum();
    }

    /// In-place union with `other` (same table length).
    pub fn union(&mut self, other: &SelectionVector) {
        debug_assert_eq!(self.len, other.len);
        for (a, b) in self.words.iter_mut().zip(other.words.iter()) {
            *a |= b;
        }
        self.count = self.words.iter().map(|w| w.count_ones() as usize).sum();
    }

    /// In-place complement within `0..len`.
    pub fn negate(&mut self) {
        for w in self.words.iter_mut() {
            *w = !*w;
        }
        if let Some(last) = self.words.last_mut() {
            *last &= Self::tail_mask(self.len);
        }
        self.count = self.len - self.count;
    }

    /// Iterates selected row ids in ascending order.
    pub fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        self.words.iter().enumerate().flat_map(|(wi, &w)| {
            let base = wi * 64;
            BitIter { word: w }.map(move |b| base + b)
        })
    }

    /// Materializes the selected row ids (the row-at-a-time
    /// interchange format; fused kernels avoid this).
    pub fn to_row_ids(&self) -> Vec<usize> {
        let mut out = Vec::with_capacity(self.count);
        out.extend(self.iter());
        out
    }

    /// Decodes the mask into maximal runs of consecutive selected rows,
    /// as half-open `(start, end)` ranges in ascending order.
    pub fn runs(&self) -> Vec<(usize, usize)> {
        let mut out = Vec::new();
        let mut open: Option<usize> = None;
        for (wi, &w) in self.words.iter().enumerate() {
            let base = wi * 64;
            if w == u64::MAX {
                if open.is_none() {
                    open = Some(base);
                }
                continue;
            }
            let mut bit = 0usize;
            let mut word = w;
            while bit < 64 {
                if word & 1 == 0 {
                    if let Some(s) = open.take() {
                        out.push((s, base + bit));
                    }
                    if word == 0 {
                        break;
                    }
                    let skip = word.trailing_zeros() as usize;
                    word >>= skip;
                    bit += skip;
                } else {
                    if open.is_none() {
                        open = Some(base + bit);
                    }
                    let ones = (!word).trailing_zeros() as usize;
                    word = word.checked_shr(ones as u32).unwrap_or(0);
                    bit += ones;
                }
            }
        }
        if let Some(s) = open {
            out.push((s, self.len));
        }
        out
    }
}

/// Iterates set-bit positions (0..64) of one word.
struct BitIter {
    word: u64,
}

impl Iterator for BitIter {
    type Item = usize;
    fn next(&mut self) -> Option<usize> {
        if self.word == 0 {
            return None;
        }
        let b = self.word.trailing_zeros() as usize;
        self.word &= self.word - 1;
        Some(b)
    }
}

/// Evaluates `pred` over every row of `table` column-at-a-time,
/// returning the selection mask. Equivalent to (but much faster than)
/// collecting `Predicate::matches` row by row; unlike the row-at-a-time
/// path it always validates every referenced column, even under a
/// short-circuiting `Or`.
pub fn select_vector(table: &Table, pred: &Predicate) -> EngineResult<SelectionVector> {
    let mut stats = KernelStats::default();
    select_vector_with(table, pred, &KernelOptions::default(), &mut stats)
}

/// [`select_vector`] with explicit options and work counters.
pub fn select_vector_with(
    table: &Table,
    pred: &Predicate,
    opts: &KernelOptions,
    stats: &mut KernelStats,
) -> EngineResult<SelectionVector> {
    pred.validate(table)?;
    eval_pred(table, pred, opts, stats)
}

fn eval_pred(
    table: &Table,
    pred: &Predicate,
    opts: &KernelOptions,
    stats: &mut KernelStats,
) -> EngineResult<SelectionVector> {
    let rows = table.rows();
    Ok(match pred {
        Predicate::True => SelectionVector::all(rows),
        Predicate::Between { column, lo, hi } => {
            let idx = table.column_index(column)?;
            let col = table.column_at(idx);
            let zone = if opts.zone_prune {
                table.zone_map_at(idx)
            } else {
                None
            };
            between_kernel(col, zone, *lo, *hi, stats)
        }
        Predicate::Cmp { column, op, value } => {
            let idx = table.column_index(column)?;
            let col = table.column_at(idx);
            let zone = if opts.zone_prune {
                table.zone_map_at(idx)
            } else {
                None
            };
            cmp_kernel(col, zone, *op, value, stats)
        }
        Predicate::And(ps) => {
            let mut acc = SelectionVector::all(rows);
            for p in ps {
                let child = eval_pred(table, p, opts, stats)?;
                acc.intersect(&child);
            }
            acc
        }
        Predicate::Or(ps) => {
            let mut acc = SelectionVector::none(rows);
            for p in ps {
                let child = eval_pred(table, p, opts, stats)?;
                acc.union(&child);
            }
            acc
        }
        Predicate::Not(p) => {
            let mut inner = eval_pred(table, p, opts, stats)?;
            inner.negate();
            inner
        }
    })
}

/// Per-block zone-map verdict for a range/comparison kernel.
enum BlockVerdict {
    /// Every row in the block fails: emit zero words without reading data.
    AllFalse,
    /// Every row in the block passes: emit one words without reading data.
    AllTrue,
    /// Must read the block's data.
    Scan,
}

/// `column BETWEEN lo AND hi` (NaN fails) — the crossfilter workhorse.
fn between_kernel(
    col: &Column,
    zone: Option<&ZoneMap>,
    lo: f64,
    hi: f64,
    stats: &mut KernelStats,
) -> SelectionVector {
    let len = col.len();
    match col {
        // String columns never match a numeric range.
        Column::Str { .. } => SelectionVector::none(len),
        Column::Float(v) => numeric_blocks(
            len,
            zone,
            stats,
            |z| {
                if z.max < lo || z.min > hi {
                    BlockVerdict::AllFalse
                } else if z.nan_count == 0 && z.min >= lo && z.max <= hi {
                    BlockVerdict::AllTrue
                } else {
                    BlockVerdict::Scan
                }
            },
            |start, end, words| {
                fill_mask(&v[start..end], start, words, |x| x >= lo && x <= hi);
            },
        ),
        Column::Int(v) => numeric_blocks(
            len,
            zone,
            stats,
            |z| {
                if z.max < lo || z.min > hi {
                    BlockVerdict::AllFalse
                } else if z.min >= lo && z.max <= hi {
                    BlockVerdict::AllTrue
                } else {
                    BlockVerdict::Scan
                }
            },
            |start, end, words| {
                fill_mask(&v[start..end], start, words, |x| {
                    let x = x as f64;
                    x >= lo && x <= hi
                });
            },
        ),
    }
}

/// `column <op> literal`, reproducing `Predicate::matches` semantics
/// exactly: numeric vs numeric compares as `f64`, string vs string
/// compares dictionary entries, and cross-type comparisons are false
/// except `Ne` (which is true).
fn cmp_kernel(
    col: &Column,
    zone: Option<&ZoneMap>,
    op: CmpOp,
    value: &Value,
    stats: &mut KernelStats,
) -> SelectionVector {
    let len = col.len();
    match (col, value.as_f64()) {
        // Numeric column vs numeric literal.
        (Column::Int(_) | Column::Float(_), Some(v)) => {
            if v.is_nan() {
                // Every comparison with NaN is false, except `<>`.
                return match op {
                    CmpOp::Ne => SelectionVector::all(len),
                    _ => SelectionVector::none(len),
                };
            }
            numeric_cmp_kernel(col, zone, op, v, stats)
        }
        // String column vs string literal: compare dictionary entries
        // once, then map the per-code verdicts over the code array.
        (Column::Str { codes, dict }, None) if value.as_str().is_some() => {
            let v = value.as_str().expect("guarded by as_str().is_some()");
            let verdicts: Vec<bool> = dict
                .iter()
                .map(|d| match op {
                    CmpOp::Eq => d.as_ref() == v,
                    CmpOp::Ne => d.as_ref() != v,
                    CmpOp::Lt => d.as_ref() < v,
                    CmpOp::Le => d.as_ref() <= v,
                    CmpOp::Gt => d.as_ref() > v,
                    CmpOp::Ge => d.as_ref() >= v,
                })
                .collect();
            let mut words = vec![0u64; SelectionVector::word_count(len)];
            fill_mask(codes, 0, &mut words, |c| verdicts[c as usize]);
            stats.blocks_scanned += len.div_ceil(ZONE_BLOCK_ROWS) as u64;
            SelectionVector::from_words(words, len)
        }
        // Cross-type comparison: false for every row, except `<>`.
        _ => match op {
            CmpOp::Ne => SelectionVector::all(len),
            _ => SelectionVector::none(len),
        },
    }
}

/// Numeric comparison kernel with zone-map block decisions. `v` is
/// finite (NaN literals are handled by the caller).
fn numeric_cmp_kernel(
    col: &Column,
    zone: Option<&ZoneMap>,
    op: CmpOp,
    v: f64,
    stats: &mut KernelStats,
) -> SelectionVector {
    let len = col.len();
    // A block is all-true only when every row passes, which requires no
    // NaNs for every operator except `Ne` (NaN != v is true).
    let verdict = move |z: &crate::column::Zone| -> BlockVerdict {
        let no_nan = z.nan_count == 0;
        let (all_true, all_false) = match op {
            CmpOp::Eq => (no_nan && z.min == v && z.max == v, v < z.min || v > z.max),
            CmpOp::Ne => (v < z.min || v > z.max, no_nan && z.min == v && z.max == v),
            CmpOp::Lt => (no_nan && z.max < v, z.min >= v),
            CmpOp::Le => (no_nan && z.max <= v, z.min > v),
            CmpOp::Gt => (no_nan && z.min > v, z.max <= v),
            CmpOp::Ge => (no_nan && z.min >= v, z.max < v),
        };
        if all_false {
            BlockVerdict::AllFalse
        } else if all_true {
            BlockVerdict::AllTrue
        } else {
            BlockVerdict::Scan
        }
    };
    let row_op = move |x: f64| -> bool {
        match op {
            CmpOp::Eq => x == v,
            CmpOp::Ne => x != v,
            CmpOp::Lt => x < v,
            CmpOp::Le => x <= v,
            CmpOp::Gt => x > v,
            CmpOp::Ge => x >= v,
        }
    };
    match col {
        Column::Float(data) => numeric_blocks(len, zone, stats, verdict, |start, end, words| {
            fill_mask(&data[start..end], start, words, row_op);
        }),
        Column::Int(data) => numeric_blocks(len, zone, stats, verdict, |start, end, words| {
            fill_mask(&data[start..end], start, words, |x| row_op(x as f64));
        }),
        Column::Str { .. } => unreachable!("numeric kernel on string column"),
    }
}

/// Drives a numeric kernel block by block: each [`ZONE_BLOCK_ROWS`]-row
/// block is either decided wholesale from its zone entry or scanned.
/// Blocks are 16 words, so whole-block verdicts write words directly.
fn numeric_blocks(
    len: usize,
    zone: Option<&ZoneMap>,
    stats: &mut KernelStats,
    verdict: impl Fn(&crate::column::Zone) -> BlockVerdict,
    scan: impl Fn(usize, usize, &mut [u64]),
) -> SelectionVector {
    let mut words = vec![0u64; SelectionVector::word_count(len)];
    let blocks = len.div_ceil(ZONE_BLOCK_ROWS);
    for b in 0..blocks {
        let start = b * ZONE_BLOCK_ROWS;
        let end = (start + ZONE_BLOCK_ROWS).min(len);
        let decided = zone.and_then(|z| z.block(b)).map(&verdict);
        match decided {
            Some(BlockVerdict::AllFalse) => {
                // Words are already zero.
                stats.blocks_pruned += 1;
            }
            Some(BlockVerdict::AllTrue) => {
                for row in (start..end).step_by(64) {
                    let n = (end - row).min(64);
                    words[row / 64] = if n == 64 { u64::MAX } else { (1u64 << n) - 1 };
                }
                stats.blocks_pruned += 1;
            }
            Some(BlockVerdict::Scan) | None => {
                scan(start, end, &mut words);
                stats.blocks_scanned += 1;
            }
        }
    }
    SelectionVector::from_words(words, len)
}

/// Evaluates `test` over `data` (rows `offset..offset + data.len()`,
/// with `offset` a multiple of 64), packing verdicts into `words`.
fn fill_mask<T: Copy>(data: &[T], offset: usize, words: &mut [u64], test: impl Fn(T) -> bool) {
    debug_assert_eq!(offset % 64, 0);
    let first_word = offset / 64;
    for (wi, chunk) in data.chunks(64).enumerate() {
        let mut w = 0u64;
        for (j, &x) in chunk.iter().enumerate() {
            w |= (test(x) as u64) << j;
        }
        words[first_word + wi] = w;
    }
}

/// Fused filter+bin+count: bins the selected rows of `col` straight off
/// the raw slice, without materializing row ids. `zone` (when given)
/// skips blocks whose value range lies entirely outside the bin domain.
///
/// Exactly equivalent to the unfused
/// `for row in sel { bins.bin_of(col.f64_at(row)) }` loop.
pub fn fused_filter_bin(
    col: &Column,
    zone: Option<&ZoneMap>,
    sel: &SelectionVector,
    bins: &BinSpec,
    opts: &KernelOptions,
    stats: &mut KernelStats,
) -> Histogram {
    let mut hist = Histogram::zeros(bins.bucket_count());
    fused_filter_bin_range(col, zone, sel, bins, opts, stats, 0, col.len(), &mut hist);
    hist
}

/// Range-restricted fused filter+bin+count over rows `start..end`,
/// accumulating into `hist`. [`crate::exec::run_histogram`]
/// hands disjoint ranges to worker threads and merges the partials in
/// deterministic order, so results are identical at any thread count.
#[allow(clippy::too_many_arguments)]
pub fn fused_filter_bin_range(
    col: &Column,
    zone: Option<&ZoneMap>,
    sel: &SelectionVector,
    bins: &BinSpec,
    opts: &KernelOptions,
    stats: &mut KernelStats,
    start: usize,
    end: usize,
    hist: &mut Histogram,
) {
    debug_assert_eq!(start % ZONE_BLOCK_ROWS, 0, "ranges start on block bounds");
    let len = col.len().min(end);
    let words = sel.words();
    let mut block = start / ZONE_BLOCK_ROWS;
    let mut row = start;
    while row < len {
        let block_end = (row + ZONE_BLOCK_ROWS).min(len);
        // Zone skip: a block entirely outside the bin domain contributes
        // nothing (NaN and out-of-domain values bin to no bucket).
        let prunable = opts.zone_prune
            && zone
                .and_then(|z| z.block(block))
                .is_some_and(|z| z.max < bins.min || z.min > bins.max);
        if prunable {
            stats.blocks_pruned += 1;
            row = block_end;
            block += 1;
            continue;
        }
        // Selection skip: nothing selected in this block.
        let w_lo = row / 64;
        let w_hi = block_end.div_ceil(64).min(words.len());
        if words[w_lo..w_hi].iter().all(|&w| w == 0) {
            stats.blocks_pruned += 1;
            row = block_end;
            block += 1;
            continue;
        }
        stats.blocks_scanned += 1;
        match col {
            Column::Float(data) => bin_block(&data[row..block_end], row, words, bins, hist, |x| x),
            Column::Int(data) => {
                bin_block(&data[row..block_end], row, words, bins, hist, |x| x as f64)
            }
            Column::Str { .. } => {}
        }
        row = block_end;
        block += 1;
    }
}

/// Bins the selected rows of one block. `offset` is the row id of
/// `data[0]` and is a multiple of 64.
fn bin_block<T: Copy>(
    data: &[T],
    offset: usize,
    words: &[u64],
    bins: &BinSpec,
    hist: &mut Histogram,
    to_f64: impl Fn(T) -> f64,
) {
    let first_word = offset / 64;
    for (wi, chunk) in data.chunks(64).enumerate() {
        let w = words[first_word + wi];
        if w == 0 {
            continue;
        }
        if w == u64::MAX && chunk.len() == 64 {
            // Dense word: no bit tests at all.
            for &x in chunk {
                if let Some(b) = bins.bin_of(to_f64(x)) {
                    hist.bump(b);
                }
            }
        } else {
            let mut bits = BitIter { word: w };
            for j in &mut bits {
                if j >= chunk.len() {
                    break;
                }
                if let Some(b) = bins.bin_of(to_f64(chunk[j])) {
                    hist.bump(b);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::column::ColumnBuilder;
    use crate::table::TableBuilder;

    fn table(n: usize) -> Table {
        TableBuilder::new("t")
            .column("x", ColumnBuilder::float((0..n).map(|i| i as f64)))
            .column("k", ColumnBuilder::int((0..n).map(|i| i as i64 % 7)))
            .column(
                "s",
                ColumnBuilder::str((0..n).map(|i| ["a", "b", "c"][i % 3])),
            )
            .build()
            .unwrap()
    }

    /// The ground truth: row-at-a-time `Predicate::matches`.
    fn naive(t: &Table, p: &Predicate) -> Vec<usize> {
        (0..t.rows())
            .filter(|&r| p.matches(t, r).unwrap())
            .collect()
    }

    #[test]
    fn selection_vector_basics() {
        let sv = SelectionVector::all(130);
        assert_eq!(sv.count(), 130);
        assert!(sv.is_all());
        let none = SelectionVector::none(130);
        assert_eq!(none.count(), 0);
        assert!(!none.contains(5));

        let sv = SelectionVector::from_words(vec![0b1011, 0, u64::MAX], 130);
        assert_eq!(sv.count(), 3 + 2);
        assert!(sv.contains(0) && sv.contains(1) && !sv.contains(2) && sv.contains(3));
        assert_eq!(sv.to_row_ids(), vec![0, 1, 3, 128, 129]);
    }

    #[test]
    fn runs_decode_boundaries() {
        for len in [0usize, 1, 63, 64, 65, 127, 128, 1023, 1024, 1025] {
            let all = SelectionVector::all(len);
            let expect: Vec<(usize, usize)> = if len == 0 { vec![] } else { vec![(0, len)] };
            assert_eq!(all.runs(), expect, "all({len})");
            assert_eq!(SelectionVector::none(len).runs(), vec![]);
        }
        // Alternating + cross-word run.
        let mut words = vec![0u64; 3];
        for r in [0usize, 2, 3, 4, 62, 63, 64, 65, 130] {
            words[r / 64] |= 1 << (r % 64);
        }
        let sv = SelectionVector::from_words(words, 131);
        assert_eq!(sv.runs(), vec![(0, 1), (2, 5), (62, 66), (130, 131)]);
        let total: usize = sv.runs().iter().map(|(s, e)| e - s).sum();
        assert_eq!(total, sv.count());
    }

    #[test]
    fn negate_respects_tail() {
        let mut sv = SelectionVector::none(70);
        sv.negate();
        assert_eq!(sv.count(), 70);
        assert_eq!(sv.to_row_ids().len(), 70);
        sv.negate();
        assert_eq!(sv.count(), 0);
    }

    #[test]
    fn kernels_match_naive_on_block_boundaries() {
        for n in [0usize, 1, 63, 64, 65, 1023, 1024, 1025, 2500] {
            let t = table(n);
            let preds = [
                Predicate::True,
                Predicate::between("x", 10.0, 1030.0),
                Predicate::between("x", -5.0, -1.0),
                Predicate::eq("s", "b"),
                Predicate::eq("k", 3i64),
                Predicate::and([
                    Predicate::between("x", 0.0, 2000.0),
                    Predicate::between("k", 1.0, 5.0),
                ]),
                Predicate::Or(vec![Predicate::eq("s", "a"), Predicate::ge("x", 1020.0)]),
                Predicate::Not(Box::new(Predicate::between("x", 100.0, 1100.0))),
            ];
            for p in &preds {
                let sv = select_vector(&t, p).unwrap();
                assert_eq!(sv.to_row_ids(), naive(&t, p), "n={n} pred={p}");
            }
        }
    }

    #[test]
    fn cross_type_and_nan_literals() {
        let t = table(100);
        // Numeric column vs string literal: false except Ne.
        let p = Predicate::Cmp {
            column: "x".into(),
            op: CmpOp::Eq,
            value: Value::from("zzz"),
        };
        assert_eq!(select_vector(&t, &p).unwrap().count(), 0);
        let p = Predicate::Cmp {
            column: "x".into(),
            op: CmpOp::Ne,
            value: Value::from("zzz"),
        };
        assert_eq!(select_vector(&t, &p).unwrap().count(), 100);
        // NaN literal: false except Ne.
        for (op, expect) in [(CmpOp::Eq, 0usize), (CmpOp::Lt, 0), (CmpOp::Ne, 100)] {
            let p = Predicate::Cmp {
                column: "x".into(),
                op,
                value: Value::Float(f64::NAN),
            };
            let sv = select_vector(&t, &p).unwrap();
            assert_eq!(sv.count(), expect, "op {op}");
            assert_eq!(sv.to_row_ids(), naive(&t, &p), "op {op}");
        }
    }

    #[test]
    fn nan_data_fails_ranges_and_matches_ne() {
        let t =
            TableBuilder::new("t")
                .column(
                    "x",
                    ColumnBuilder::float((0..200).map(|i| {
                        if i % 3 == 0 {
                            f64::NAN
                        } else {
                            i as f64
                        }
                    })),
                )
                .build()
                .unwrap();
        for p in [
            Predicate::between("x", 0.0, 150.0),
            Predicate::ge("x", 50.0),
            Predicate::Cmp {
                column: "x".into(),
                op: CmpOp::Ne,
                value: Value::Float(10.0),
            },
        ] {
            let sv = select_vector(&t, &p).unwrap();
            assert_eq!(sv.to_row_ids(), naive(&t, &p), "pred={p}");
        }
    }

    #[test]
    fn zone_pruning_is_invisible() {
        let t = table(5000);
        let preds = [
            Predicate::between("x", 1000.0, 3000.0),
            Predicate::ge("x", 4999.0),
            Predicate::le("x", 0.0),
            Predicate::eq("k", 6i64),
        ];
        for p in &preds {
            let mut s_on = KernelStats::default();
            let mut s_off = KernelStats::default();
            let on =
                select_vector_with(&t, p, &KernelOptions { zone_prune: true }, &mut s_on).unwrap();
            let off = select_vector_with(&t, p, &KernelOptions { zone_prune: false }, &mut s_off)
                .unwrap();
            assert_eq!(on, off, "pred={p}");
        }
        // The sorted column really does prune.
        let mut stats = KernelStats::default();
        let p = Predicate::between("x", 0.0, 500.0);
        select_vector_with(&t, &p, &KernelOptions::default(), &mut stats).unwrap();
        assert!(stats.blocks_pruned > 0, "sorted column should prune blocks");
    }

    #[test]
    fn fused_bin_equals_unfused() {
        for n in [0usize, 1, 1023, 1024, 1025, 4000] {
            let t = table(n);
            let bins = BinSpec::new("x", 0.0, 2000.0, 40);
            let pred = Predicate::between("k", 1.0, 4.0);
            let sel = select_vector(&t, &pred).unwrap();
            let col = t.column("x").unwrap();
            let idx = t.column_index("x").unwrap();
            let mut stats = KernelStats::default();
            let fused = fused_filter_bin(
                col,
                t.zone_map_at(idx),
                &sel,
                &bins,
                &KernelOptions::default(),
                &mut stats,
            );
            let mut unfused = Histogram::zeros(bins.bucket_count());
            for row in sel.iter() {
                if let Some(b) = col.f64_at(row).and_then(|x| bins.bin_of(x)) {
                    unfused.bump(b);
                }
            }
            assert_eq!(fused, unfused, "n={n}");
        }
    }

    #[test]
    fn validation_still_errors_under_or() {
        // Row-at-a-time Or short-circuits and can miss an unknown column;
        // the vectorized path always validates.
        let t = table(10);
        let p = Predicate::Or(vec![Predicate::True, Predicate::between("zzz", 0.0, 1.0)]);
        assert!(select_vector(&t, &p).is_err());
    }
}
