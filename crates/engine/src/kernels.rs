//! Vectorized query kernels: column-at-a-time over a [`SelectionVector`]
//! bitmask, with no row-id vector and no per-row [`Column::f64_at`] dispatch.
//!
//! - **one verdict pass a conjunction**: each `AND`ed condition resolves
//!   against its raw `i64`/`f64` slice (or dictionary codes) once a query,
//!   and its zone map ([`crate::column::ZoneMap`], per-1024-row block
//!   min/max/NaN-count) decides the blocks it can — all-false or all-true —
//!   without touching data. Every walk reads that one table of verdicts;
//! - **the cold walk** decides each 1024-row block against every undecided
//!   condition while its 16 mask words are hot, 64 rows per word, starting
//!   from each range's rows in its column's `ValueOrder` once a drag has
//!   built it: per run, a narrow range's rows set, a wider one's words
//!   written from two of the order's stored cumulative masks and only its
//!   ends toggled; `OR`/`NOT` combine such masks bitwise;
//! - **the moved walk** answers a filter one range from the last from its
//!   selection, deciding again only the rows the order finds between an
//!   old and a new bound: no column is streamed, and the rows it flips
//!   move a histogram of the last selection (`bin_flipped`);
//! - **one price list** (`price`) for the walks' choices (scan, set or
//!   clear; moved or cold; build an order or not), in one unit, from exact
//!   counts, a scan priced over the blocks the walk reads;
//! - **fused kernels** consume the selection vector directly (filter+bin+count
//!   for histograms, filter+count for counts); a histogrammed column's bucket
//!   codes (`bucket_codes`, a byte a row) let the bin read each row's bucket
//!   instead of dividing. A table keeps its derived state, zone maps, orders
//!   and codes, and builds each by one rule (`table::Priced`).
//!
//! Kernels change *how* results are computed, never *what* they are: every
//! kernel is differential-tested against the row-at-a-time interpreter
//! (`tests/kernels.rs`, `ids-simtest`'s reference), and zone-map pruning
//! is required to be invisible (`KernelOptions::zone_prune` on/off must be
//! byte-equal — see `tests/properties.rs`).

use std::sync::Arc;

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
    /// Blocks the zone map could not decide (or that have none) — a
    /// verdict, not a read: the filter counts every (conjunct, block)
    /// once, even if an earlier conjunct emptied the block and it is skipped.
    pub blocks_scanned: u64,
}

/// A set of selected rows over a table of `len` rows, stored as a
/// bitmask (64 rows per word) with a cached population count.
///
/// The mask representation makes conjunction/disjunction a word-wise
/// AND/OR.
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

    /// Whether `row` is selected. Out-of-bounds rows are not selected.
    pub fn contains(&self, row: usize) -> bool {
        row < self.len && self.words[row / 64] & (1u64 << (row % 64)) != 0
    }

    /// The raw mask words (64 rows per word, LSB-first).
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// Rows selected by exactly one of `self` and `other` (same table
    /// length): the rows a count must move by to go from one to the other.
    pub(crate) fn diff_count(&self, other: &SelectionVector) -> usize {
        debug_assert_eq!(self.len, other.len);
        let words = self.words.iter().zip(&other.words);
        words.map(|(a, b)| (a ^ b).count_ones() as usize).sum()
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
    Ok(eval_pred(table, pred, None, opts, stats)?.0)
}

/// Evaluates `pred`, validated, over every row. `from` starts a
/// conjunction of leaves at the selection of the filter before it, which
/// differs in the one range [`Predicate::moved_range`] returns. With the
/// selection come the rows whose bit differs from `from`'s, when the
/// moved walk answered the whole conjunction: a nested `Or`/`Not`
/// conjunct's intersection can undo a flip, so then there are none.
pub(crate) fn eval_pred(
    table: &Table,
    pred: &Predicate,
    from: Option<(&SelectionVector, (usize, f64, f64))>,
    opts: &KernelOptions,
    stats: &mut KernelStats,
) -> EngineResult<(SelectionVector, Option<Vec<usize>>)> {
    let rows = table.rows();
    Ok(match pred {
        Predicate::Or(ps) => {
            let mut acc = SelectionVector::none(rows);
            for p in ps {
                acc.union(&eval_pred(table, p, None, opts, stats)?.0);
            }
            (acc, None)
        }
        Predicate::Not(p) => {
            let mut inner = eval_pred(table, p, None, opts, stats)?.0;
            inner.negate();
            (inner, None)
        }
        // `True`, a lone leaf and `And` are conjunctions of zero, one and
        // many leaves: one verdict pass, then the moved or the cold walk.
        _ => {
            let (mut leaves, mut nested) = (Vec::new(), Vec::new());
            resolve(table, pred, opts, &mut leaves, &mut nested)?;
            let verdicts = count_verdicts(rows, &leaves, stats);
            let moved = from.and_then(|from| eval_moved(table, &leaves, &verdicts, from));
            let (mut acc, flipped) = match moved {
                Some((acc, flipped)) => (acc, Some(flipped).filter(|_| nested.is_empty())),
                None => (eval_leaves(table, &leaves, &verdicts), None),
            };
            for p in nested {
                acc.intersect(&eval_pred(table, p, None, opts, stats)?.0);
            }
            (acc, flipped)
        }
    })
}

/// Words per zone block: a block's slice of the mask.
const BLOCK_WORDS: usize = ZONE_BLOCK_ROWS / 64;

/// The row test of a numeric leaf, in the `f64` domain
/// `Predicate::matches` compares in. NaN data fails everything but `<>`.
#[derive(Clone, Copy)]
enum Test {
    /// `lo <= x <= hi` — the crossfilter workhorse.
    Range(f64, f64),
    /// `x <op> v`, `v` never NaN (a NaN literal resolves to a constant).
    Cmp(CmpOp, f64),
}

impl Test {
    /// The zone map's verdict on block `b`: `Some(v)` when every row of
    /// the block tests `v`, `None` when its data must be read (or there
    /// is no zone map to ask). A block is all-true only when every row
    /// passes, which requires no NaNs for every test except `<>`
    /// (NaN != v is true).
    fn verdict(self, zone: Option<&ZoneMap>, b: usize) -> Option<bool> {
        let z = zone?.block(b)?;
        let no_nan = z.nan_count == 0;
        let (all_true, all_false) = match self {
            Test::Range(lo, hi) => (
                no_nan && z.min >= lo && z.max <= hi,
                z.max < lo || z.min > hi,
            ),
            Test::Cmp(op, v) => match op {
                CmpOp::Eq => (no_nan && z.min == v && z.max == v, v < z.min || v > z.max),
                CmpOp::Ne => (v < z.min || v > z.max, no_nan && z.min == v && z.max == v),
                CmpOp::Lt => (no_nan && z.max < v, z.min >= v),
                CmpOp::Le => (no_nan && z.max <= v, z.min > v),
                CmpOp::Gt => (no_nan && z.min > v, z.max <= v),
                CmpOp::Ge => (no_nan && z.min >= v, z.max < v),
            },
        };
        (all_false || all_true).then_some(!all_false)
    }

    /// ANDs the test over one block's `data` into its `live` words and
    /// returns whether any row is still live. The operator is matched
    /// out here, once per block, so that each [`and_mask`] loop body is a
    /// single branch-free comparison.
    fn scan<T: Copy>(self, data: &[T], live: &mut [u64], to_f64: impl Fn(T) -> f64) -> bool {
        match self {
            Test::Range(lo, hi) => and_mask(data, live, |x| {
                let x = to_f64(x);
                // `&`, not `&&`: a short-circuit is a branch per row.
                (x >= lo) & (x <= hi)
            }),
            Test::Cmp(CmpOp::Eq, v) => and_mask(data, live, |x| to_f64(x) == v),
            Test::Cmp(CmpOp::Ne, v) => and_mask(data, live, |x| to_f64(x) != v),
            Test::Cmp(CmpOp::Lt, v) => and_mask(data, live, |x| to_f64(x) < v),
            Test::Cmp(CmpOp::Le, v) => and_mask(data, live, |x| to_f64(x) <= v),
            Test::Cmp(CmpOp::Gt, v) => and_mask(data, live, |x| to_f64(x) > v),
            Test::Cmp(CmpOp::Ge, v) => and_mask(data, live, |x| to_f64(x) >= v),
        }
    }

    /// One row's test: the comparison [`Test::scan`] makes.
    fn holds(self, x: f64) -> bool {
        match self {
            Test::Range(lo, hi) => x >= lo && x <= hi,
            Test::Cmp(CmpOp::Eq, v) => x == v,
            Test::Cmp(CmpOp::Ne, v) => x != v,
            Test::Cmp(CmpOp::Lt, v) => x < v,
            Test::Cmp(CmpOp::Le, v) => x <= v,
            Test::Cmp(CmpOp::Gt, v) => x > v,
            Test::Cmp(CmpOp::Ge, v) => x >= v,
        }
    }
}

/// One conjunct resolved against its column, once per query, with
/// exactly `Predicate::matches` semantics.
enum Leaf<'a> {
    /// One verdict for every row: a NaN literal or a cross-type compare
    /// (false, except `<>`), a numeric range over strings (false).
    Const(bool),
    /// Numeric vs numeric compares as `f64`: the column's position and
    /// values, its zone map (when pruning) and the test.
    Float(usize, &'a [f64], Option<&'a ZoneMap>, Test),
    Int(usize, &'a [i64], Option<&'a ZoneMap>, Test),
    /// String vs string: dictionary codes and a verdict per dictionary entry.
    Dict(&'a [u32], Vec<bool>),
}

impl<'a> Leaf<'a> {
    /// ANDs the leaf over rows `start..end` into their `live` words and
    /// returns whether any row is still live.
    fn scan(&self, start: usize, end: usize, live: &mut [u64]) -> bool {
        match self {
            // Never read: its verdict decides every block.
            Leaf::Const(v) => *v,
            Leaf::Float(_, data, _, test) => test.scan(&data[start..end], live, |x| x),
            Leaf::Int(_, data, _, test) => test.scan(&data[start..end], live, |x| x as f64),
            Leaf::Dict(codes, verdicts) => {
                and_mask(&codes[start..end], live, |c| verdicts[c as usize])
            }
        }
    }

    /// Whether `row` passes, by the comparison [`Leaf::scan`] makes.
    fn holds(&self, row: usize) -> bool {
        match self {
            Leaf::Const(v) => *v,
            Leaf::Float(_, data, _, test) => test.holds(data[row]),
            Leaf::Int(_, data, _, test) => test.holds(data[row] as f64),
            Leaf::Dict(codes, verdicts) => verdicts[codes[row] as usize],
        }
    }

    /// A numeric range with no NaN bound: its column's position and
    /// bounds, which a [`ValueOrder`] can answer.
    fn range(&self) -> Option<(usize, f64, f64)> {
        match *self {
            Leaf::Float(idx, .., Test::Range(lo, hi)) | Leaf::Int(idx, .., Test::Range(lo, hi))
                if !lo.is_nan() && !hi.is_nan() =>
            {
                Some((idx, lo, hi))
            }
            _ => None,
        }
    }

    /// A range's rows from its column's order, when moved walks have paid
    /// for that order (this adds no reads to its tally) and reading it
    /// costs no more than scanning its `undecided` blocks: each run read
    /// the cheaper way ([`price::from_order`], [`Span::plan`]), its
    /// positions toggled in a zeroed mask or its words written from two
    /// stored masks and its ends toggled. A leaf with none is never read:
    /// no span search.
    fn rows_from_order(&self, table: &Table, undecided: usize) -> Option<Vec<u64>> {
        let (idx, lo, hi) = self.range().filter(|_| undecided > 0)?;
        let order = table.value_order_at(idx, 0)?;
        let spans = order.spans(table.column_at(idx), lo, hi);
        let runs: Vec<_> = spans.map(|s| (s.plan(), s)).collect();
        let read: usize = runs.iter().map(|((price, _), _)| price).sum();
        (read <= price::scan(undecided)).then_some(())?;
        let len = table.rows();
        let mut mask = SelectionVector::none(len).words;
        for ((_, masks), s) in &runs {
            let toggled = match *masks {
                Some((qs, qe)) => {
                    order.write(s, qs, qe, &mut mask);
                    [s.ends(s.start, qs), s.ends(s.end, qe)]
                }
                None => [s.start..s.end, 0..0],
            };
            // One loop per range: a flattened iterator costs a branch a row.
            for positions in toggled {
                for row in s.rows(positions) {
                    mask[row / 64] ^= 1 << (row % 64);
                }
            }
        }
        // The full mask `M_BUCKETS` ends at the table's last row.
        if let Some(last) = mask.last_mut() {
            *last &= SelectionVector::tail_mask(len);
        }
        Some(mask)
    }
}

/// Splits the conjunction `pred` into its resolved `leaves` and the
/// `Or`/`Not` conjuncts that recurse (`nested`). Nested `And`s flatten
/// and `True` contributes nothing: counters are sums over (conjunct,
/// block), so grouping cannot show in them.
fn resolve<'a>(
    table: &'a Table,
    pred: &'a Predicate,
    opts: &KernelOptions,
    leaves: &mut Vec<Leaf<'a>>,
    nested: &mut Vec<&'a Predicate>,
) -> EngineResult<()> {
    let numeric = |idx: usize, test: Test| {
        let zone = opts.zone_prune.then(|| table.zone_map_at(idx)).flatten();
        match table.column_at(idx) {
            Column::Float(v) => Leaf::Float(idx, v, zone, test),
            Column::Int(v) => Leaf::Int(idx, v, zone, test),
            // String columns never match a numeric range.
            Column::Str { .. } => Leaf::Const(false),
        }
    };
    match pred {
        Predicate::True => {}
        Predicate::And(ps) => {
            for p in ps {
                resolve(table, p, opts, leaves, nested)?;
            }
        }
        Predicate::Or(_) | Predicate::Not(_) => nested.push(pred),
        Predicate::Between { column, lo, hi } => {
            leaves.push(numeric(table.column_index(column)?, Test::Range(*lo, *hi)));
        }
        Predicate::Cmp { column, op, value } => {
            let idx = table.column_index(column)?;
            leaves.push(match (table.column_at(idx), value, value.as_f64()) {
                (Column::Str { codes, dict }, Value::Str(v), _) => {
                    let v = v.as_ref();
                    let verdict = |d: &Arc<str>| match op {
                        CmpOp::Eq => d.as_ref() == v,
                        CmpOp::Ne => d.as_ref() != v,
                        CmpOp::Lt => d.as_ref() < v,
                        CmpOp::Le => d.as_ref() <= v,
                        CmpOp::Gt => d.as_ref() > v,
                        CmpOp::Ge => d.as_ref() >= v,
                    };
                    Leaf::Dict(codes, dict.iter().map(verdict).collect())
                }
                (Column::Int(_) | Column::Float(_), _, Some(v)) if !v.is_nan() => {
                    numeric(idx, Test::Cmp(*op, v))
                }
                // NaN literal or cross-type: false for every row, except `<>`.
                _ => Leaf::Const(*op == CmpOp::Ne),
            });
        }
    }
    Ok(())
}

/// Every leaf's zone verdict on every block, block-major: `Some(v)` when
/// every row of the block tests `v`, `None` when it must be read. Counted
/// once a conjunction: each (leaf, block) bumps `blocks_pruned` or
/// `blocks_scanned`, read or not, so both counters, and every cost priced
/// from them, are independent of conjunct order and of the walk that ran.
fn count_verdicts(rows: usize, leaves: &[Leaf<'_>], stats: &mut KernelStats) -> Vec<Option<bool>> {
    let (blocks, n) = (rows.div_ceil(ZONE_BLOCK_ROWS), leaves.len());
    let mut verdicts = vec![None; blocks * n];
    // Leaf by leaf, so that each leaf's kind and test are matched once.
    for (i, leaf) in leaves.iter().enumerate() {
        let column = verdicts.iter_mut().skip(i).step_by(n);
        match leaf {
            Leaf::Const(v) => column.for_each(|slot| *slot = Some(*v)),
            Leaf::Float(.., zone, test) | Leaf::Int(.., zone, test) => {
                for (b, slot) in column.enumerate() {
                    *slot = test.verdict(*zone, b);
                }
            }
            Leaf::Dict(..) => {}
        }
    }
    // A constant is never read: its verdicts count as neither.
    let consts = leaves.iter().filter(|l| matches!(l, Leaf::Const(_)));
    let counted = blocks * (n - consts.count());
    let scanned = verdicts.iter().filter(|v| v.is_none()).count();
    stats.blocks_pruned += (counted - scanned) as u64;
    stats.blocks_scanned += scanned as u64;
    verdicts
}

/// Each leaf's rows from its column's order ([`Leaf::rows_from_order`]),
/// `None` to scan it. A scan is priced over the leaf's undecided blocks
/// that the walk reads: those no leaf's verdict rules out.
fn from_orders(table: &Table, leaves: &[Leaf], verdicts: &[Option<bool>]) -> Vec<Option<Vec<u64>>> {
    let read: Vec<_> = verdicts
        .chunks(leaves.len())
        .filter(|block| !block.contains(&Some(false)))
        .collect();
    let undecided = |i: usize| read.iter().filter(|block| block[i].is_none()).count();
    let rows = |(i, leaf): (usize, &Leaf)| leaf.rows_from_order(table, undecided(i));
    leaves.iter().enumerate().map(rows).collect()
}

/// Decides every row against every leaf by its block's `verdicts`, one
/// [`ZONE_BLOCK_ROWS`]-row block at a time. A block some leaf rules out
/// stays zero — the mask is allocated zeroed, so a well-pruned filter never
/// touches most of it. The rest start all-ones in 16 mask words on the
/// stack, ANDed with the rows the ranges' orders gave
/// ([`from_orders`]), and each undecided leaf no order answered ANDs its
/// rows in while they are hot.
fn eval_leaves(table: &Table, leaves: &[Leaf<'_>], verdicts: &[Option<bool>]) -> SelectionVector {
    let len = table.rows();
    if leaves.is_empty() {
        // `TRUE`: every row, and its count is known without a popcount pass.
        return SelectionVector::all(len);
    }
    let ordered = from_orders(table, leaves, verdicts);
    let (mut words, mut count) = (vec![0u64; SelectionVector::word_count(len)], 0);
    let verdicts = verdicts.chunks(leaves.len());
    for (b, (out, verdicts)) in words.chunks_mut(BLOCK_WORDS).zip(verdicts).enumerate() {
        if verdicts.contains(&Some(false)) {
            continue;
        }
        let (start, end) = (b * ZONE_BLOCK_ROWS, ((b + 1) * ZONE_BLOCK_ROWS).min(len));
        let live = &mut [u64::MAX; BLOCK_WORDS][..out.len()];
        if end == len {
            live[out.len() - 1] = SelectionVector::tail_mask(len);
        }
        for rows in ordered.iter().flatten() {
            let rows = &rows[b * BLOCK_WORDS..];
            live.iter_mut().zip(rows).for_each(|(w, r)| *w &= r);
        }
        if live.iter().all(|&w| w == 0) {
            continue;
        }
        let mut undecided = (leaves.iter().zip(verdicts).zip(&ordered))
            .filter(|((_, v), rows)| v.is_none() && rows.is_none());
        if undecided.all(|((leaf, _), _)| leaf.scan(start, end, live)) {
            out.copy_from_slice(live);
            count += live.iter().map(|w| w.count_ones() as usize).sum::<usize>();
        }
    }
    SelectionVector { len, words, count }
}

/// The walk's price list, in one unit: the streamed leaf-row, one row of
/// one leaf tested as the cold walk streams its column (0.66 ns on the road
/// table: 1,275 undecided (leaf, block)s of three ranges in 867 µs). Each
/// rule weighs exact counts the walk holds; each constant is measured.
///
/// - A cold range is read from its order when the sum of its runs' reads
///   costs no more than [`price::scan`] of its undecided blocks that no
///   other leaf rules out (the walk skips those; `Leaf::rows_from_order`).
///   Each run takes the cheaper of two reads ([`price::from_order`]): its
///   rows set, at [`price::set`] of them, or its words written from two
///   stored masks, at `WORD_ROWS` a word, and the rows between each end
///   and its nearest mask boundary toggled, at [`price::set`] of those (a
///   tie sets). `SET_ROWS` = 2: of 0–4, 6 and never, 2 filtered seed 11's cold
///   dense statements fastest (≈ 648 ms). `WORD_ROWS` = 1: a word is two
///   stored words ANDed and one written, and of 1, 2, 4 and 8 no price
///   read that replay's cold filters measurably faster.
/// - A moved walk walks cold when [`price::redecide`] > [`price::scan`]
///   (`eval_moved`). `RANDOM_READ_ROWS` = 10: with the rule off, it matched
///   the cold walk on the road table at ≈ 40,000 candidates, ≈ 20 ns each.
/// - An order is built once moved walks have streamed [`price::build`]
///   cold (`Table::value_order_at`). `BUILD_ROWS` = 48: the sort takes
///   33–45 ns a row, on the road table and on a 10,000-row one.
///
/// The bin prices its two rules in binned rows and keeps them: counts move
/// by a changeset whenever one starts at the rows counted (its rows are
/// some of the candidates `redecide` kept below a scan), else when fewer
/// rows changed than are selected (`exec::aggregate::bin_phase`), and
/// codes are built after a table's worth of divided rows
/// (`table::Bin::codes`; a build is 4.5–5.9 ns a row, a division 11–16 ns).
pub(crate) mod price {
    const SET_ROWS: usize = 2;
    const WORD_ROWS: usize = 1;
    const RANDOM_READ_ROWS: usize = 10;
    const BUILD_ROWS: usize = 48;

    /// Scanning `undecided` (leaf, block) pairs: every row of each.
    pub(crate) fn scan(undecided: usize) -> usize {
        undecided * crate::column::ZONE_BLOCK_ROWS
    }
    /// Setting (or toggling) `rows` rows from an order.
    pub(crate) fn set(rows: usize) -> usize {
        rows * SET_ROWS
    }
    /// A run's read of the `rows` rows a range holds in it, the cheaper of
    /// setting them and writing its `words` words from two stored masks
    /// plus toggling the `ends` rows between each end and its boundary:
    /// the price, and whether the masks are read (a tie sets).
    pub(crate) fn from_order(rows: usize, words: usize, ends: usize) -> (usize, bool) {
        let (set, masks) = (set(rows), words * WORD_ROWS + set(ends));
        (set.min(masks), masks < set)
    }
    /// Re-deciding `candidates` rows against each of `leaves` leaves.
    pub(crate) fn redecide(candidates: usize, leaves: usize) -> usize {
        candidates * leaves * RANDOM_READ_ROWS
    }
    /// Building an order over `rows` rows.
    pub(crate) fn build(rows: usize) -> usize {
        rows * BUILD_ROWS
    }
}

/// The moved walk: `leaves` (an `AND` of single leaves) from the rows `was`
/// selected when leaf `at` was `was_lo..=was_hi` ([`Predicate::moved_range`]).
/// Only a row whose moved value lies between an old and a new bound, ends
/// included, can change: the column's [`ValueOrder`] finds those candidates,
/// and each is decided again; the rows whose bit flips come back beside
/// the selection, each once. `None` walks cold: no order, or candidates
/// costing more than the cold walk's reads, its undecided `verdicts`.
fn eval_moved(
    table: &Table,
    leaves: &[Leaf<'_>],
    verdicts: &[Option<bool>],
    (was, (at, was_lo, was_hi)): (&SelectionVector, (usize, f64, f64)),
) -> Option<(SelectionVector, Vec<usize>)> {
    let (idx, lo, hi) = leaves.get(at)?.range()?;
    let streamed = price::scan(verdicts.iter().filter(|v| v.is_none()).count());
    let (col, order) = (table.column_at(idx), table.value_order_at(idx, streamed)?);
    let mut spans = Vec::new();
    for (old, new) in [(was_lo, lo), (was_hi, hi)] {
        if old != new {
            spans.extend(order.spans(col, old.min(new), old.max(new)));
        }
    }
    let candidates: usize = spans.iter().map(|s| s.end - s.start).sum();
    (price::redecide(candidates, leaves.len()) <= streamed).then_some(())?;
    let (len, mut words, mut count) = (table.rows(), was.words().to_vec(), was.count());
    let mut flipped = Vec::new();
    for row in spans.iter().flat_map(|s| s.rows(s.start..s.end)) {
        let (word, bit) = (&mut words[row / 64], 1u64 << (row % 64));
        let now = leaves.iter().all(|leaf| leaf.holds(row));
        // A row in both bounds' spans (an inverted move) is decided alike
        // twice, so it flips once.
        if now != (*word & bit != 0) {
            *word ^= bit;
            count = if now { count + 1 } else { count - 1 };
            flipped.push(row);
        }
    }
    Some((SelectionVector { len, words, count }, flipped))
}

/// Rows per run of a [`ValueOrder`]: an offset into a run fits a `u16`.
pub(crate) const RUN_ROWS: usize = 1 << 16;

/// Buckets a run of a [`ValueOrder`] is cut into by its stored masks.
pub(crate) const BUCKETS: usize = 8;

/// A run's mask words, all ones: `M_BUCKETS` before the table's tail.
static ONES: [u64; RUN_ROWS / 64] = [u64::MAX; RUN_ROWS / 64];
/// A run's mask words, all zeros: `M_0`.
static ZEROS: [u64; RUN_ROWS / 64] = [0; RUN_ROWS / 64];

/// A numeric column's rows in the order the kernels compare them: per
/// run of [`RUN_ROWS`] rows, its `u16` offsets sorted by value as `f64`,
/// IEEE order with `-0.0` and `0.0` tied and every NaN last — 2 B a row.
/// Beside them, per run of `n` rows, the order's range encoding: with
/// boundaries `b_k = min(k·⌈n/BUCKETS⌉, n)`, mask `M_k` holds the rows at
/// positions `< b_k` of the run's order, over the run's own words. `M_0`
/// (none) and `M_BUCKETS` (every row) are not stored; the other
/// `BUCKETS − 1` are 7/8 B a row. The table keeps it and builds it by its
/// one rule, once moved walks have paid its price
/// ([`Table::value_order_at`]); the cold walk reads it too.
#[derive(Debug, Default)]
pub(crate) struct ValueOrder {
    pub(crate) offsets: Box<[u16]>,
    masks: Box<[u64]>,
}

impl ValueOrder {
    /// Sorts every run of `col` and stores its masks; `None` for a string
    /// column.
    pub(crate) fn build(col: &Column) -> Option<ValueOrder> {
        if matches!(col, Column::Str { .. }) {
            return None;
        }
        let mut offsets = Vec::with_capacity(col.len());
        let mut masks = Vec::with_capacity((BUCKETS - 1) * col.len().div_ceil(64));
        for base in (0..col.len()).step_by(RUN_ROWS) {
            let rows = base..col.len().min(base + RUN_ROWS);
            let key = |row| order_key(col.f64_at(row).unwrap_or(f64::NAN));
            let mut keyed: Vec<(u64, u16)> = rows.map(|r| (key(r), (r - base) as u16)).collect();
            keyed.sort_unstable();
            let (n, mut mask) = (keyed.len(), vec![0u64; keyed.len().div_ceil(64)]);
            for k in 1..BUCKETS {
                for &(_, o) in &keyed[boundary(n, k - 1)..boundary(n, k)] {
                    mask[usize::from(o) / 64] |= 1 << (o % 64);
                }
                masks.extend_from_slice(&mask);
            }
            offsets.extend(keyed.into_iter().map(|(_, offset)| offset));
        }
        let (offsets, masks) = (offsets.into(), masks.into());
        Some(ValueOrder { offsets, masks })
    }

    /// Mask `M_k`, `k ≤ BUCKETS`, of the run that starts at row `base`,
    /// over the run's words; `M_BUCKETS`'s bits run to the word's end.
    pub(crate) fn mask(&self, base: usize, k: usize) -> &[u64] {
        let words = (self.offsets.len() - base).min(RUN_ROWS).div_ceil(64);
        match k {
            0 => &ZEROS[..words],
            BUCKETS => &ONES[..words],
            k => &self.masks[(BUCKETS - 1) * base / 64 + (k - 1) * words..][..words],
        }
    }

    /// Writes run `s`'s words in `out` as `M_qe & !M_qs`: the rows at
    /// positions `b_qs..b_qe` of its order, for `qs ≤ qe`.
    fn write(&self, s: &Span, qs: usize, qe: usize, out: &mut [u64]) {
        let (low, high) = (self.mask(s.base, qs), self.mask(s.base, qe));
        let out = &mut out[s.base / 64..][..high.len()];
        for ((w, h), l) in out.iter_mut().zip(high).zip(low) {
            *w = h & !l;
        }
    }

    /// Each run cut at `lo..=hi` (neither NaN; nothing inside when
    /// `lo > hi`): two binary searches a run.
    fn spans<'o>(&'o self, col: &'o Column, lo: f64, hi: f64) -> impl Iterator<Item = Span<'o>> {
        let value = move |row: usize| col.f64_at(row).unwrap_or(f64::NAN);
        let runs = (0..).step_by(RUN_ROWS).zip(self.offsets.chunks(RUN_ROWS));
        runs.map(move |(base, run)| {
            // A NaN fails both tests, so it sorts last for both searches.
            let start = run.partition_point(|&o| value(base + usize::from(o)) < lo);
            let end = run.partition_point(|&o| value(base + usize::from(o)) <= hi);
            let end = end.max(start);
            Span {
                base,
                run,
                start,
                end,
            }
        })
    }
}

/// Boundary `b_k` of a run of `n` rows: `min(k·⌈n/BUCKETS⌉, n)`.
fn boundary(n: usize, k: usize) -> usize {
    (k * n.div_ceil(BUCKETS)).min(n)
}

/// A run of a [`ValueOrder`] cut at a range: its first row, its offsets
/// in value order, and the positions `start..end` of those in the range,
/// NaN rows after them.
struct Span<'o> {
    base: usize,
    run: &'o [u16],
    start: usize,
    end: usize,
}

impl Span<'_> {
    /// The rows at `positions` of this run's order.
    fn rows(&self, positions: std::ops::Range<usize>) -> impl Iterator<Item = usize> + '_ {
        let base = self.base;
        self.run[positions]
            .iter()
            .map(move |&o| base + usize::from(o))
    }

    /// The boundary nearest position `p`, `p ≤ n`: monotone in `p`.
    fn nearest(&self, p: usize) -> usize {
        let size = self.run.len().div_ceil(BUCKETS);
        ((p + size / 2) / size).min(BUCKETS)
    }

    /// The positions between `p` and boundary `b_q`.
    fn ends(&self, p: usize, q: usize) -> std::ops::Range<usize> {
        let b = boundary(self.run.len(), q);
        p.min(b)..p.max(b)
    }

    /// The run's cheaper read ([`price::from_order`]) and its price:
    /// `Some((qs, qe))`, the boundaries nearest each end, to write its
    /// words as `M_qe & !M_qs` and toggle `ends(start, qs)` and
    /// `ends(end, qe)` (over GF(2), exactly `start..end`); `None` to set
    /// `start..end`.
    fn plan(&self) -> (usize, Option<(usize, usize)>) {
        let (qs, qe) = (self.nearest(self.start), self.nearest(self.end));
        let ends = self.ends(self.start, qs).len() + self.ends(self.end, qe).len();
        let words = self.run.len().div_ceil(64);
        let (price, masks) = price::from_order(self.end - self.start, words, ends);
        (price, masks.then_some((qs, qe)))
    }
}

/// `x`'s place in [`ValueOrder`] as a `u64`: IEEE order, with `-0.0` and
/// `0.0` one key and every NaN last.
fn order_key(x: f64) -> u64 {
    let bits = (x + 0.0).to_bits(); // `-0.0 + 0.0` is `0.0`
    match (x.is_nan(), bits >> 63) {
        (true, _) => u64::MAX,
        (_, 1) => !bits,
        _ => bits | 1 << 63,
    }
}

/// ANDs `test` over one block's `data` into `live`, its
/// `data.len().div_ceil(64)` mask words, and returns whether any row is
/// still live.
///
/// The shape is load-bearing; do not tidy it into a `for j in 0..64`
/// loop. A shift by a loop variable (`<< j` over a `chunks(64)` slice)
/// is left scalar by LLVM — a compare, a `setcc` and a variable shift
/// per row — and that loop was 64 % of kernel time. Over a fixed
/// `&[T; 64]`, eight groups of eight rows with constant shifts unroll
/// into packed compares plus a handful of mask moves: about 1.6× the
/// speed from the same safe code, within 1.5× of just reading the
/// columns (measurements in docs/PERFORMANCE.md, "Selection vectors").
fn and_mask<T: Copy>(data: &[T], live: &mut [u64], test: impl Fn(T) -> bool) -> bool {
    let mut any = 0u64;
    let mut chunks = data.chunks_exact(64);
    for (w, chunk) in live.iter_mut().zip(&mut chunks) {
        let chunk: &[T; 64] = chunk.try_into().expect("chunks_exact(64)");
        let mut word = 0u64;
        for g in 0..8 {
            let mut byte = 0u64;
            for j in 0..8 {
                byte |= u64::from(test(chunk[8 * g + j])) << j;
            }
            word |= byte << (8 * g);
        }
        *w &= word;
        any |= *w;
    }
    // The table's final, partial word (absent in every other block).
    if let Some(w) = live.get_mut(data.len() / 64) {
        let mut word = 0u64;
        for (j, &x) in chunks.remainder().iter().enumerate() {
            word |= u64::from(test(x)) << j;
        }
        *w &= word;
        any |= *w;
    }
    any != 0
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
    let (mut hist, n) = (Histogram::zeros(bins.bucket_count()), col.len());
    fused_filter_bin_range(
        col, zone, None, None, sel, bins, opts, stats, 0, n, &mut hist,
    );
    hist
}

/// One `u8` per row of `col`: the bucket [`BinSpec::bin_with_width`]
/// gives it under `bins`, `u8::MAX` for none — the division's answer,
/// precomputed, and kept by the table under the column's spec
/// (`table::Bin::codes`). `None` for a string column and for a spec with
/// more than 254 bins, whose last bucket would be the no-bucket code.
pub(crate) fn bucket_codes(col: &Column, bins: &BinSpec) -> Option<Box<[u8]>> {
    let width = bins.width();
    let code = |x: f64| bins.bin_with_width(x, width).map_or(u8::MAX, |b| b as u8);
    match col {
        _ if bins.bins >= usize::from(u8::MAX) => None,
        Column::Float(v) => Some(v.iter().map(|&x| code(x)).collect()),
        Column::Int(v) => Some(v.iter().map(|&x| code(x as f64)).collect()),
        Column::Str { .. } => None,
    }
}

/// The fused filter+bin+count block walker over rows `start..end`: moves
/// `hist` from counting the rows `from` selects (`None`: no rows, a cold
/// bin) to counting those `sel` selects, in one pass over both masks
/// that bins the rows that entered and un-bins the rows that left.
/// [`crate::exec::run_histogram`] walks every row; progressive execution
/// ([`crate::progressive`]) walks one sampled block at a time. `stats` counts `sel`'s
/// blocks by the cold rule however `hist` got there: pruned when outside
/// the bin domain or without a selected row, scanned otherwise. With
/// `codes` (`col`'s bucket codes under `bins`, which only
/// [`crate::exec::run_histogram`] keeps) a row's bucket is read, not
/// divided for; blocks are skipped and counted alike.
#[allow(clippy::too_many_arguments)]
pub fn fused_filter_bin_range(
    col: &Column,
    zone: Option<&ZoneMap>,
    from: Option<&SelectionVector>,
    codes: Option<&[u8]>,
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
    let width = bins.width();
    let counts = hist.counts_mut();
    for block in start / ZONE_BLOCK_ROWS..len.div_ceil(ZONE_BLOCK_ROWS) {
        let row = block * ZONE_BLOCK_ROWS;
        let block_end = (row + ZONE_BLOCK_ROWS).min(len);
        let span = row / 64..block_end.div_ceil(64);
        let words = &sel.words()[span.clone()];
        let (out_of_domain, skip) = bin_verdict(zone, words, bins, opts, block, stats);
        let old = from.map(|f| &f.words()[span]);
        // From nothing, a skipped block has nothing to un-bin either.
        if out_of_domain || (skip && old.is_none()) {
            continue;
        }
        if let Some(codes) = codes {
            // `u8::MAX`, no bucket, is past the last count.
            bin_block(&codes[row..block_end], words, old, counts, |c| {
                Some(usize::from(c))
            });
            continue;
        }
        match col {
            Column::Float(data) => bin_block(&data[row..block_end], words, old, counts, |x| {
                bins.bin_with_width(x, width)
            }),
            Column::Int(data) => bin_block(&data[row..block_end], words, old, counts, |x| {
                bins.bin_with_width(x as f64, width)
            }),
            Column::Str { .. } => {}
        }
    }
}

/// The cold rule's verdict on bin block `block`, whose selection `words`
/// holds, counted into `stats`: whether it lies outside the bin domain
/// (NaN and out-of-domain values bin to no bucket), and whether it is
/// pruned, being outside or without a selected row.
fn bin_verdict(
    zone: Option<&ZoneMap>,
    words: &[u64],
    bins: &BinSpec,
    opts: &KernelOptions,
    block: usize,
    stats: &mut KernelStats,
) -> (bool, bool) {
    let out_of_domain = opts.zone_prune
        && zone
            .and_then(|z| z.block(block))
            .is_some_and(|z| z.max < bins.min || z.min > bins.max);
    let skip = out_of_domain || words.iter().all(|&w| w == 0);
    stats.blocks_pruned += u64::from(skip);
    stats.blocks_scanned += u64::from(!skip);
    (out_of_domain, skip)
}

/// Moves `hist` from counting a selection to counting `sel` by the rows
/// whose bit differs between them (`flipped`, the moved walk's
/// changeset): a row `sel` selects entered and adds one to its bucket,
/// any other left and subtracts one. `stats` counts `sel`'s blocks by the
/// cold rule, as [`fused_filter_bin_range`] does, never from `flipped`.
/// With `codes` a row's bucket is read, not divided for.
#[allow(clippy::too_many_arguments)]
pub(crate) fn bin_flipped(
    col: &Column,
    zone: Option<&ZoneMap>,
    codes: Option<&[u8]>,
    sel: &SelectionVector,
    flipped: &[usize],
    bins: &BinSpec,
    opts: &KernelOptions,
    stats: &mut KernelStats,
    hist: &mut Histogram,
) {
    for (block, words) in sel.words().chunks(BLOCK_WORDS).enumerate() {
        bin_verdict(zone, words, bins, opts, block, stats);
    }
    let width = bins.width();
    let bucket = |row: usize| match (codes, col) {
        (Some(codes), _) => Some(usize::from(codes[row])),
        (None, Column::Float(data)) => bins.bin_with_width(data[row], width),
        (None, Column::Int(data)) => bins.bin_with_width(data[row] as f64, width),
        (None, Column::Str { .. }) => None,
    };
    let counts = hist.counts_mut();
    for &row in flipped {
        // `u8::MAX`, no bucket, is past the last count; a leaving row adds
        // `u64::MAX`, which wraps to a subtraction.
        if let Some(c) = bucket(row).and_then(|b| counts.get_mut(b)) {
            *c = c.wrapping_add(if sel.contains(row) { 1 } else { u64::MAX });
        }
    }
}

/// Moves one block's `counts` from the rows `old` selects (none when
/// cold) to the rows `words` selects, one word per 64 rows of `data`.
fn bin_block<T: Copy>(
    data: &[T],
    words: &[u64],
    old: Option<&[u64]>,
    counts: &mut [u64],
    bin_of: impl Fn(T) -> Option<usize>,
) {
    for (i, (chunk, &w)) in data.chunks(64).zip(words).enumerate() {
        let was = old.map_or(0, |o| o[i]);
        // One body for both: entering rows add 1, leaving rows add
        // `u64::MAX`, which wraps to a subtraction.
        for (rows, step) in [(w & !was, 1), (was & !w, u64::MAX)] {
            let mut count = |x| {
                if let Some(c) = bin_of(x).and_then(|b| counts.get_mut(b)) {
                    *c = c.wrapping_add(step);
                }
            };
            if rows == u64::MAX && chunk.len() == 64 {
                // Dense word: no bit tests at all.
                chunk.iter().for_each(|&x| count(x));
            } else {
                for j in (BitIter { word: rows }).take_while(|&j| j < chunk.len()) {
                    count(chunk[j]);
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

    #[test]
    fn selection_vector_basics() {
        let sv = SelectionVector::all(130);
        assert_eq!(sv.count(), 130);
        let none = SelectionVector::none(130);
        assert_eq!(none.count(), 0);
        assert!(!none.contains(5));

        let mut sv = SelectionVector::all(130);
        sv.words[0] = 0b1011;
        sv.words[1] = 0;
        sv.count = 3 + 2;
        assert!(sv.contains(0) && sv.contains(1) && !sv.contains(2) && sv.contains(3));
        assert_eq!(sv.to_row_ids(), vec![0, 1, 3, 128, 129]);
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
                assert_eq!(sv.to_row_ids(), p.select(&t).unwrap(), "n={n} pred={p}");
            }
        }
    }

    #[test]
    fn cross_type_and_nan_literals() {
        let t = table(100);
        // A string literal against a numeric column, and a NaN literal:
        // false for every row, except under `<>`.
        let (zzz, nan) = (Value::from("zzz"), Value::Float(f64::NAN));
        for (value, op, expect) in [
            (&zzz, CmpOp::Eq, 0usize),
            (&zzz, CmpOp::Ne, 100),
            (&nan, CmpOp::Eq, 0),
            (&nan, CmpOp::Lt, 0),
            (&nan, CmpOp::Ne, 100),
        ] {
            let p = Predicate::Cmp {
                column: "x".into(),
                op,
                value: value.clone(),
            };
            let sv = select_vector(&t, &p).unwrap();
            assert_eq!(sv.count(), expect, "{p}");
            assert_eq!(sv.to_row_ids(), p.select(&t).unwrap(), "{p}");
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
            assert_eq!(sv.to_row_ids(), p.select(&t).unwrap(), "pred={p}");
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
            // Moved from another selection's counts instead of from nothing.
            let other = select_vector(&t, &Predicate::between("x", 500.0, 3000.0)).unwrap();
            let opts = KernelOptions::default();
            let mut moved = fused_filter_bin(col, None, &other, &bins, &opts, &mut stats);
            let (from, mut s) = (Some(&other), KernelStats::default());
            fused_filter_bin_range(
                col, None, from, None, &sel, &bins, &opts, &mut s, 0, n, &mut moved,
            );
            assert_eq!(moved, unfused, "n={n}");
        }
    }

    /// The price list at each rule's edge, one unit either side, and the
    /// walks that read it. The cold walk reads a range from its order only
    /// once one is built, never for a NaN bound, a `Cmp`, a string leaf or
    /// a leaf with no undecided block that the other leaves leave live,
    /// and each ordered range's mask, its runs set or written from their
    /// masks, holds exactly its rows. A moved walk re-decides its
    /// candidates up to the cold walk's reads and walks cold past them;
    /// either way it answers and counts exactly as the cold walk does.
    #[test]
    fn each_walk_rule_flips_at_its_price_edge() {
        // (price, what it is weighed against, whether it is at most that):
        // re-decide vs scan at candidates × leaves × 10 = streamed, the
        // build at rows × 48.
        let edges = [
            (price::redecide(511, 2), price::scan(10), true),
            (price::redecide(512, 2), price::scan(10), true),
            (price::redecide(513, 2), price::scan(10), false),
            (price::build(1024), 49_151, false),
            (price::build(1024), 49_152, true),
        ];
        for (i, (price, budget, within)) in edges.into_iter().enumerate() {
            assert_eq!(price <= budget, within, "edge {i}: {price} vs {budget}");
        }
        // A run's read, set against masks: 100 rows set cost 200, and
        // words + 50 toggled ends × 2 cost one less, the same (a tie
        // sets), or one more.
        for (words, read) in [(99, (199, true)), (100, (200, false)), (101, (200, false))] {
            assert_eq!(price::from_order(100, words, 50), read, "{words} words");
        }

        fn resolved<'a>(t: &'a Table, p: &'a Predicate) -> (Vec<Leaf<'a>>, Vec<Option<bool>>) {
            let (mut leaves, mut nested) = (Vec::new(), Vec::new());
            resolve(t, p, &KernelOptions::default(), &mut leaves, &mut nested).unwrap();
            let verdicts = count_verdicts(t.rows(), &leaves, &mut KernelStats::default());
            (leaves, verdicts)
        }
        let build_orders =
            |t: &Table| (0..t.width()).for_each(|i| _ = t.value_order_at(i, usize::MAX));
        // One 5,000-row run: 79 words, boundaries every 625 positions. An
        // `x` range sits at positions `lo..=hi`; `k = v` at
        // `715v..715v + 715` for `v < 2`, 714 rows each after.
        let t = table(5000);
        let cold = [
            (Predicate::between("x", 10.0, 30.0), true), // 21 rows set, 1 undecided block
            (Predicate::between("x", 0.0, 4000.0), true), // masks: 79 + 251 ends × 2
            (Predicate::between("k", 1.0, 1.0), true),   // masks: 79 + 270 × 2, 5 blocks
            (Predicate::between("k", 0.0, 5.0), true),   // all but 714 rows: 79 + 89 × 2
            (Predicate::between("x", f64::NAN, 30.0), false),
            (Predicate::le("x", 30.0), false),
            (Predicate::eq("s", "a"), false),
            (Predicate::between("x", 312.0, 823.0), true), // 512 set: 1,024 (masks 1,101)
            (Predicate::between("x", 312.0, 824.0), false), // 513 set: 1,026 (masks 1,103)
            (Predicate::between("x", 236.0, 860.0), true), // masks: 79 + 472 × 2 = 1,023
            (Predicate::between("x", 236.0, 861.0), false), // masks: 1,025 (set 1,252)
            (Predicate::between("x", -5.0, -1.0), false),  // no rows, every block decided
            (Predicate::between("x", -1.0, 6000.0), false), // all rows, every block decided
            (Predicate::between("x", 10.0, 6000.0), true), // `M_BUCKETS`, over the tail word
        ];
        // Each leaf's rows from its order, as the leaf of a conjunction of
        // `with`, which may rule out blocks.
        let ordered = |with: &[Predicate], leaf: &Predicate| {
            let p = Predicate::And(with.iter().chain([leaf]).cloned().collect());
            let (leaves, verdicts) = resolved(&t, &p);
            from_orders(&t, &leaves, &verdicts).pop().flatten()
        };
        assert!(cold.iter().all(|(leaf, _)| ordered(&[], leaf).is_none()));
        build_orders(&t);
        let got = Vec::from_iter(cold.iter().map(|(leaf, _)| ordered(&[], leaf).is_some()));
        assert_eq!(got, Vec::from_iter(cold.iter().map(|c| c.1)));
        // Every bit of the mask, the tail word's past the table included.
        let rows = |i: usize| {
            let words = ordered(&[], &cold[i].0).expect("ordered");
            (0..words.len() * 64)
                .filter(|r| words[r / 64] >> (r % 64) & 1 == 1)
                .collect::<Vec<_>>()
        };
        assert_eq!(rows(0), Vec::from_iter(10..=30));
        assert_eq!(rows(1), Vec::from_iter(0..=4000));
        assert_eq!(rows(2), Vec::from_iter((0..5000).filter(|r| r % 7 == 1)));
        assert_eq!(rows(3), Vec::from_iter((0..5000).filter(|r| r % 7 != 6)));
        assert_eq!(rows(7), Vec::from_iter(312..=823));
        assert_eq!(rows(9), Vec::from_iter(236..=860));
        assert_eq!(rows(13), Vec::from_iter(10..5000));
        for (leaf, _) in &cold {
            let rows = select_vector(&t, leaf).unwrap().to_row_ids();
            assert_eq!(rows, leaf.select(&t).unwrap(), "{leaf}");
        }
        // `k = 3`'s 714 rows cost 1,151 from its masks (ends 269 + 267;
        // 1,428 to set): read from its order while it has two blocks no
        // other leaf rules out, then scanned.
        let k3 = Predicate::between("k", 3.0, 3.0);
        for (x_hi, read) in [(2047.0, true), (1023.0, false), (-1.0, false)] {
            let x = Predicate::between("x", 0.0, x_hi);
            assert_eq!(ordered(&[x], &k3).is_some(), read, "x <= {x_hi}");
        }

        // `p` is a permutation of 0..5,120 whose every block spans nearly
        // all of it, so `p` and `k` ranges leave all five blocks undecided.
        let n = 5 * ZONE_BLOCK_ROWS;
        let p = ColumnBuilder::float((0..n).map(|i| (i * 7 % n) as f64));
        let t = TableBuilder::new("m")
            .column("p", p)
            .column("k", ColumnBuilder::int((0..n).map(|i| i as i64 % 7)))
            .build()
            .unwrap();
        build_orders(&t);
        let opts = KernelOptions::default();
        let both = |hi: f64| {
            let p = Predicate::between("p", 0.0, hi);
            Predicate::And(vec![p, Predicate::between("k", 1.0, 5.0)])
        };
        let all = |hi: f64| Predicate::And(vec![Predicate::between("p", -1.0, hi)]);
        let moves = [
            // Two leaves, ten undecided (leaf, block)s: 512 candidates at most.
            (both(2000.0), both(2510.0), true),  // 511 candidates
            (both(2000.0), both(2511.0), true),  // 512
            (both(2000.0), both(2512.0), false), // 513
            (both(2511.0), both(2000.0), true),  // 512, moved down
            // A leaf its zone map decides on every block: nothing to read
            // cold, and no candidate either.
            (all(6000.0), all(7000.0), true),
        ];
        for (k, (was, now, redecides)) in moves.iter().enumerate() {
            let from = select_vector(&t, was).unwrap();
            let moved = (&from, was.moved_range(now).expect("one range moved"));
            let (leaves, verdicts) = resolved(&t, now);
            let ran = eval_moved(&t, &leaves, &verdicts, moved).is_some();
            assert_eq!(ran, *redecides, "move {k}");
            let (mut walked, mut cold) = (KernelStats::default(), KernelStats::default());
            let answer = eval_pred(&t, now, Some(moved), &opts, &mut walked)
                .unwrap()
                .0;
            let expect = select_vector_with(&t, now, &opts, &mut cold).unwrap();
            assert_eq!((answer, walked), (expect, cold), "move {k}");
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
