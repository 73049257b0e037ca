//! Vectorized query kernels.
//!
//! The crossfilter hot path used to be row-at-a-time: `Predicate::select`
//! materialized a `Vec<usize>` of row ids, then every selected row paid an
//! `Option`-checked [`Column::f64_at`] dispatch. This module replaces that
//! with column-at-a-time kernels over a [`SelectionVector`] bitmask:
//!
//! - **a one-pass conjunction kernel** resolves each `AND`ed condition
//!   against its raw `i64`/`f64` slice (or dictionary codes) once per
//!   query, then decides every 1024-row block against all of them while
//!   its 16 mask words are hot, 64 rows per word; `OR`/`NOT` combine
//!   such masks bitwise;
//! - **zone maps** ([`crate::column::ZoneMap`], per-1024-row-block
//!   min/max/NaN-count, built lazily per column) let range predicates
//!   decide whole blocks — all-false or all-true — without touching data;
//! - **fused kernels** consume the selection vector directly
//!   (filter+bin+count for histograms, filter+count for counts) without
//!   ever materializing a row-id vector;
//! - **the moved walk** answers a filter one range from the last from its
//!   selection, deciding again only the rows a per-column `ValueOrder`
//!   finds between an old and a new bound: no column is streamed.
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
    eval_pred(table, pred, None, opts, stats)
}

/// Evaluates `pred`, validated, over every row. `from` starts a
/// conjunction of leaves at the selection of the filter before it, which
/// differs in the one range [`Predicate::moved_range`] returns.
pub(crate) fn eval_pred(
    table: &Table,
    pred: &Predicate,
    from: Option<(&SelectionVector, (usize, f64, f64))>,
    opts: &KernelOptions,
    stats: &mut KernelStats,
) -> EngineResult<SelectionVector> {
    let rows = table.rows();
    Ok(match pred {
        Predicate::Or(ps) => {
            let mut acc = SelectionVector::none(rows);
            for p in ps {
                let child = eval_pred(table, p, None, opts, stats)?;
                acc.union(&child);
            }
            acc
        }
        Predicate::Not(p) => {
            let mut inner = eval_pred(table, p, None, opts, stats)?;
            inner.negate();
            inner
        }
        // `True`, a lone leaf and `And` are conjunctions of zero, one
        // and many leaves: one block-at-a-time pass decides them all.
        _ => {
            let (mut leaves, mut nested) = (Vec::new(), Vec::new());
            resolve(table, pred, opts, &mut leaves, &mut nested)?;
            let moved = from.and_then(|from| eval_moved(table, pred, &leaves, from, stats));
            let mut acc = moved.unwrap_or_else(|| eval_leaves(rows, &leaves, stats));
            for p in nested {
                acc.intersect(&eval_pred(table, p, None, opts, stats)?);
            }
            acc
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
        match (all_false, all_true) {
            (true, _) => Some(false),
            (_, true) => Some(true),
            _ => None,
        }
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
    /// Numeric vs numeric compares as `f64`: the column's values, its
    /// zone map (when pruning) and the test.
    Float(&'a [f64], Option<&'a ZoneMap>, Test),
    Int(&'a [i64], Option<&'a ZoneMap>, Test),
    /// String vs string: dictionary codes and a verdict per dictionary entry.
    Dict(&'a [u32], Vec<bool>),
}

impl<'a> Leaf<'a> {
    /// The leaf's verdict on block `b` without reading it: `Some(v)`
    /// when every row tests `v`.
    fn verdict(&self, b: usize) -> Option<bool> {
        match self {
            Leaf::Const(v) => Some(*v),
            Leaf::Float(_, zone, test) | Leaf::Int(_, zone, test) => test.verdict(*zone, b),
            Leaf::Dict(..) => None,
        }
    }

    /// ANDs the leaf over rows `start..end` into their `live` words and
    /// returns whether any row is still live.
    fn scan(&self, start: usize, end: usize, live: &mut [u64]) -> bool {
        match self {
            // Never read: its verdict decides every block.
            Leaf::Const(v) => *v,
            Leaf::Float(data, _, test) => test.scan(&data[start..end], live, |x| x),
            Leaf::Int(data, _, test) => test.scan(&data[start..end], live, |x| x as f64),
            Leaf::Dict(codes, verdicts) => {
                and_mask(&codes[start..end], live, |c| verdicts[c as usize])
            }
        }
    }

    /// Whether `row` passes, by the comparison [`Leaf::scan`] makes.
    fn holds(&self, row: usize) -> bool {
        match self {
            Leaf::Const(v) => *v,
            Leaf::Float(data, _, test) => test.holds(data[row]),
            Leaf::Int(data, _, test) => test.holds(data[row] as f64),
            Leaf::Dict(codes, verdicts) => verdicts[codes[row] as usize],
        }
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
            Column::Float(v) => Leaf::Float(v, zone, test),
            Column::Int(v) => Leaf::Int(v, zone, test),
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

/// Decides every row against every leaf, one [`ZONE_BLOCK_ROWS`]-row
/// block at a time: first every leaf's zone verdict on the block, then
/// the reads the verdicts leave. A block some leaf rules out stays zero
/// — the mask is allocated zeroed, so a well-pruned filter never touches
/// most of it — and a block every leaf decides all-true is filled. The
/// rest start all-ones in 16 mask words on the stack and each undecided
/// leaf ANDs its rows in while they are hot.
fn eval_leaves(len: usize, leaves: &[Leaf<'_>], stats: &mut KernelStats) -> SelectionVector {
    if leaves.is_empty() {
        // `TRUE`: every row, and its count is known without a popcount pass.
        return SelectionVector::all(len);
    }
    let mut words = vec![0u64; SelectionVector::word_count(len)];
    let mut verdicts = vec![None; leaves.len()];
    let mut count = 0;
    for (b, out) in words.chunks_mut(BLOCK_WORDS).enumerate() {
        let start = b * ZONE_BLOCK_ROWS;
        let end = (start + ZONE_BLOCK_ROWS).min(len);
        count_verdicts(leaves, b, &mut verdicts, stats);
        if verdicts.contains(&Some(false)) {
            continue;
        }
        let live = &mut [u64::MAX; BLOCK_WORDS][..out.len()];
        if end == len {
            live[out.len() - 1] = SelectionVector::tail_mask(len);
        }
        let mut undecided = leaves.iter().zip(&verdicts).filter(|(_, v)| v.is_none());
        if undecided.all(|(leaf, _)| leaf.scan(start, end, live)) {
            out.copy_from_slice(live);
            count += live.iter().map(|w| w.count_ones() as usize).sum::<usize>();
        }
    }
    SelectionVector { len, words, count }
}

/// Every leaf's zone verdict on block `b`, into `verdicts`, counted: each
/// (leaf, block) bumps `blocks_pruned` when the zone map decided it and
/// `blocks_scanned` when not, read or not. That keeps both counters, and
/// every cost priced from them, independent of conjunct order and of
/// which walk ran.
fn count_verdicts(
    leaves: &[Leaf<'_>],
    b: usize,
    verdicts: &mut [Option<bool>],
    stats: &mut KernelStats,
) {
    for (leaf, v) in leaves.iter().zip(verdicts) {
        *v = leaf.verdict(b);
        if !matches!(leaf, Leaf::Const(_)) {
            stats.blocks_pruned += u64::from(v.is_some());
            stats.blocks_scanned += u64::from(v.is_none());
        }
    }
}

/// What re-deciding a candidate costs per leaf, in streamed leaf-rows:
/// it tests every leaf at a random row. Measured on the road table, where
/// a moved walk matched the cold walk at ≈ 40k candidates
/// (docs/PERFORMANCE.md, "A drag reads only the rows it moves").
const RANDOM_READ_ROWS: usize = 10;

/// The moved walk: `pred` (an `AND` of single leaves) from the rows `was`
/// selected when leaf `at` was `was_lo..=was_hi` ([`Predicate::moved_range`]).
/// Only a row whose moved value lies between an old and a new bound, ends
/// included, can change: the column's [`ValueOrder`] finds those candidates,
/// and each is decided again. Verdicts are counted as [`eval_leaves`] counts
/// them. `None` walks cold: no order, or candidates costing more than it.
fn eval_moved(
    table: &Table,
    pred: &Predicate,
    leaves: &[Leaf<'_>],
    (was, (at, was_lo, was_hi)): (&SelectionVector, (usize, f64, f64)),
    stats: &mut KernelStats,
) -> Option<SelectionVector> {
    let (
        Predicate::And(ps),
        Leaf::Float(.., Test::Range(lo, hi)) | Leaf::Int(.., Test::Range(lo, hi)),
    ) = (pred, leaves.get(at)?)
    else {
        return None;
    };
    let Predicate::Between { column, .. } = ps.get(at)? else {
        return None;
    };
    let (len, mut counted) = (table.rows(), KernelStats::default());
    let mut verdicts = vec![None; leaves.len()];
    for b in 0..len.div_ceil(ZONE_BLOCK_ROWS) {
        count_verdicts(leaves, b, &mut verdicts, &mut counted);
    }
    // The cold walk's reads: every undecided (leaf, block).
    let streamed = counted.blocks_scanned as usize * ZONE_BLOCK_ROWS;
    let idx = table.column_index(column).ok()?;
    let (col, order) = (table.column_at(idx), table.value_order_at(idx, streamed)?);
    let value = |row: usize| col.f64_at(row).unwrap_or(f64::NAN);
    let mut spans = Vec::new();
    for (old, new) in [(was_lo, *lo), (was_hi, *hi)] {
        let (a, b) = (old.min(new), old.max(new));
        if a == b {
            continue;
        }
        for (base, run) in (0..).step_by(RUN_ROWS).zip(order.0.chunks(RUN_ROWS)) {
            // A NaN fails both tests, so it sorts last for both searches.
            let start = run.partition_point(|&o| value(base + usize::from(o)) < a);
            let end = run.partition_point(|&o| value(base + usize::from(o)) <= b);
            spans.push((base, &run[start..end]));
        }
    }
    let candidates: usize = spans.iter().map(|(_, span)| span.len()).sum();
    if candidates * leaves.len() * RANDOM_READ_ROWS > streamed {
        return None;
    }
    stats.blocks_pruned += counted.blocks_pruned;
    stats.blocks_scanned += counted.blocks_scanned;
    let (mut words, mut count) = (was.words().to_vec(), was.count());
    for row in spans
        .iter()
        .flat_map(|&(base, span)| span.iter().map(move |&o| base + usize::from(o)))
    {
        let (word, bit) = (&mut words[row / 64], 1u64 << (row % 64));
        let now = leaves.iter().all(|leaf| leaf.holds(row));
        if now != (*word & bit != 0) {
            *word ^= bit;
            count = if now { count + 1 } else { count - 1 };
        }
    }
    Some(SelectionVector { len, words, count })
}

/// Rows per run of a [`ValueOrder`]: an offset into a run fits a `u16`.
pub(crate) const RUN_ROWS: usize = 1 << 16;

/// A numeric column's rows in the order the kernels compare them: per
/// run of [`RUN_ROWS`] rows, its `u16` offsets sorted by value as `f64`,
/// IEEE order with `-0.0` and `0.0` tied and every NaN last — 2 B a row.
/// Derived state like a zone map, built only for a column moved walks
/// need ([`Table::value_order_at`]).
#[derive(Debug)]
pub(crate) struct ValueOrder(pub(crate) Box<[u16]>);

impl ValueOrder {
    /// What building one row's place costs, in streamed leaf-rows: the
    /// cold reads a column's moved walks make before its order is built.
    /// Measured with [`RANDOM_READ_ROWS`] (docs/PERFORMANCE.md).
    pub(crate) const BUILD_ROWS: usize = 48;

    /// Sorts every run of `col`; `None` for a string column.
    pub(crate) fn build(col: &Column) -> Option<ValueOrder> {
        if matches!(col, Column::Str { .. }) {
            return None;
        }
        let mut order = Vec::with_capacity(col.len());
        for base in (0..col.len()).step_by(RUN_ROWS) {
            let rows = base..col.len().min(base + RUN_ROWS);
            let key = |row| order_key(col.f64_at(row).unwrap_or(f64::NAN));
            let mut keyed: Vec<(u64, u16)> = rows.map(|r| (key(r), (r - base) as u16)).collect();
            keyed.sort_unstable();
            order.extend(keyed.into_iter().map(|(_, offset)| offset));
        }
        Some(ValueOrder(order.into()))
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
    fused_filter_bin_range(col, zone, None, sel, bins, opts, stats, 0, n, &mut hist);
    hist
}

/// The fused filter+bin+count block walker over rows `start..end`: moves
/// `hist` from counting the rows `from` selects (`None`: no rows, a cold
/// bin) to counting those `sel` selects, in one pass over both masks
/// that bins the rows that entered and un-bins the rows that left.
/// [`crate::exec::run_histogram`] walks every row; progressive execution
/// ([`crate::progressive`]) walks one sampled block at a time. `stats` counts `sel`'s
/// blocks by the cold rule however `hist` got there: pruned when outside
/// the bin domain or without a selected row, scanned otherwise.
#[allow(clippy::too_many_arguments)]
pub fn fused_filter_bin_range(
    col: &Column,
    zone: Option<&ZoneMap>,
    from: Option<&SelectionVector>,
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
        // Zone skip: a block entirely outside the bin domain contributes
        // nothing to either count (NaN and out-of-domain values bin to
        // no bucket).
        let out_of_domain = opts.zone_prune
            && zone
                .and_then(|z| z.block(block))
                .is_some_and(|z| z.max < bins.min || z.min > bins.max);
        // Selection skip: nothing selected in this block.
        let span = row / 64..block_end.div_ceil(64);
        let words = &sel.words()[span.clone()];
        let skip = out_of_domain || words.iter().all(|&w| w == 0);
        stats.blocks_pruned += u64::from(skip);
        stats.blocks_scanned += u64::from(!skip);
        let old = from.map(|f| &f.words()[span]);
        // From nothing, a skipped block has nothing to un-bin either.
        if out_of_domain || (skip && old.is_none()) {
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
                col, None, from, &sel, &bins, &opts, &mut s, 0, n, &mut moved,
            );
            assert_eq!(moved, unfused, "n={n}");
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
