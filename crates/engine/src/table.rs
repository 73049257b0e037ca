//! Tables: named collections of equal-length columns, and what a table
//! derives from them. One owner holds all of it, shared across clones,
//! and one rule ([`Priced`]) builds each structure in it: once the reads
//! statements made without it reach its price.

use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError};

use crate::column::{Column, ColumnBuilder, ZoneMap};
use crate::cost::QueryFootprint;
use crate::error::{EngineError, EngineResult};
use crate::exec::Changeset;
use crate::kernels::{self, price, KernelStats, SelectionVector, ValueOrder};
use crate::predicate::Predicate;
use crate::query::BinSpec;
use crate::result::Histogram;
use crate::value::{DataType, Value};

/// An immutable table: a schema plus columnar data, cheap to clone.
#[derive(Debug, Clone)]
pub struct Table {
    name: Arc<str>,
    column_names: Arc<[Arc<str>]>,
    columns: Arc<[Column]>,
    index: Arc<HashMap<Arc<str>, usize>>,
    rows: usize,
    derived: Arc<Derived>,
}

/// What a table derives, shared across clones: the last filter it
/// answered (`exec::filter_rows`) and a slot per column. Each entry is a
/// pure function of (table, its key): races move only when one is built.
#[derive(Debug)]
struct Derived {
    filter: Mutex<Option<Arc<FilterMemo>>>,
    columns: Box<[Slot]>,
}

/// A column's zone map, value order, and state under its last bin spec.
#[derive(Debug, Default)]
struct Slot {
    zones: Priced<ZoneMap>,
    order: Priced<ValueOrder>,
    bin: Mutex<Option<(SpecKey, Arc<Bin>)>>,
}

/// A bin spec's key: `min` and `max` by bit pattern, and `bins`.
type SpecKey = (u64, u64, usize);

/// A filter, the rows it selects, the footprint of selecting them, and
/// the moved walk's changeset that reached them, if one did.
pub(crate) type FilterMemo = (
    Predicate,
    Arc<SelectionVector>,
    QueryFootprint,
    Option<Changeset>,
);

/// A histogram as counted: the rows it counted, its counts, and the bin
/// phase's block counters.
pub(crate) type HistMemo = (Arc<SelectionVector>, Histogram, KernelStats);

/// The one build rule: the reads statements made without a structure,
/// and the structure, built once they reach the price its caller states
/// (`Some(None)` for a column or spec that has none). The tally
/// saturates and publishes nothing: racing reads only move the build.
#[derive(Debug, Default)]
pub(crate) struct Priced<T>(AtomicUsize, OnceLock<Option<T>>);

impl<T> Priced<T> {
    /// Adds `n` reads to the tally; the structure once it reaches `price`.
    pub(crate) fn get(&self, n: usize, price: usize, f: impl FnOnce() -> Option<T>) -> Option<&T> {
        let add = |tally: usize| Some(tally.saturating_add(n));
        let paid = |tally: usize| tally.saturating_add(n) >= price;
        if self.1.get().is_some() || self.0.fetch_update(Relaxed, Relaxed, add).is_ok_and(paid) {
            return self.1.get_or_init(f).as_ref();
        }
        None
    }
}

/// A column's state under the one spec it is binned by: the last
/// histogram counted under it (`exec::run_histogram`) and its bucket
/// codes. A spec change replaces both, so the codes' tally starts over.
#[derive(Debug, Default)]
pub(crate) struct Bin {
    codes: Priced<Box<[u8]>>,
    last: Mutex<Option<Arc<HistMemo>>>,
}

impl Bin {
    /// The spec's bucket codes ([`kernels::bucket_codes`]) for a bin that
    /// divides for `walked` selected rows without them; they cost one such
    /// row per table row ([`price`] says why).
    pub(crate) fn codes(&self, col: &Column, bins: &BinSpec, walked: usize) -> Option<&[u8]> {
        let build = || kernels::bucket_codes(col, bins);
        self.codes.get(walked, col.len(), build).map(|c| &**c)
    }

    /// The last histogram counted under the spec, to read or replace.
    pub(crate) fn last(&self) -> MutexGuard<'_, Option<Arc<HistMemo>>> {
        lock(&self.last)
    }
}

/// A poisoned lock still guards a usable entry, and the last writer wins.
fn lock<T>(entry: &Mutex<T>) -> MutexGuard<'_, T> {
    entry.lock().unwrap_or_else(PoisonError::into_inner)
}

impl Table {
    /// The table name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn width(&self) -> usize {
        self.columns.len()
    }

    /// Column names in schema order.
    pub fn column_names(&self) -> impl Iterator<Item = &str> {
        self.column_names.iter().map(|s| s.as_ref())
    }

    /// Looks up a column by name.
    pub fn column(&self, name: &str) -> EngineResult<&Column> {
        self.index
            .get(name)
            .map(|&i| &self.columns[i])
            .ok_or_else(|| EngineError::UnknownColumn {
                table: self.name.to_string(),
                column: name.to_string(),
            })
    }

    /// The positional index of a column.
    pub fn column_index(&self, name: &str) -> EngineResult<usize> {
        self.index
            .get(name)
            .copied()
            .ok_or_else(|| EngineError::UnknownColumn {
                table: self.name.to_string(),
                column: name.to_string(),
            })
    }

    /// Column by position.
    pub fn column_at(&self, i: usize) -> &Column {
        &self.columns[i]
    }

    /// The rows at `rows` (indices into this table) as a new table of the
    /// same name and schema. It is built through [`TableBuilder`], so its
    /// zone maps and string dictionaries are its own.
    pub fn take(&self, rows: &[usize]) -> Table {
        let mut builder = TableBuilder::new(self.name());
        for (name, col) in self.column_names.iter().zip(self.columns.iter()) {
            let taken = match col {
                Column::Int(v) => ColumnBuilder::int(rows.iter().map(|&r| v[r])),
                Column::Float(v) => ColumnBuilder::float(rows.iter().map(|&r| v[r])),
                Column::Str { codes, dict } => {
                    ColumnBuilder::str(rows.iter().map(|&r| &dict[codes[r] as usize]))
                }
            };
            builder = builder.column(name.as_ref(), taken);
        }
        builder
            .build()
            .expect("a built table's columns are non-empty, distinct and equal-length")
    }

    /// The value at (`row`, `column name`).
    pub fn value(&self, row: usize, column: &str) -> EngineResult<Value> {
        Ok(self.column(column)?.value(row))
    }

    /// The zone map of the column at position `i`, built on first use (it
    /// costs nothing) and kept for the table's lifetime (clones share it).
    /// `None` for string columns, which have no numeric block bounds.
    pub fn zone_map_at(&self, i: usize) -> Option<&ZoneMap> {
        let build = || ZoneMap::build(&self.columns[i]);
        self.derived.columns[i].zones.get(0, 0, build)
    }

    /// The value order of column `i`, for a moved walk that would read
    /// `streamed` leaf-rows cold; it costs [`price::build`] of the table's
    /// rows. `None` until then and for string columns.
    pub(crate) fn value_order_at(&self, i: usize, streamed: usize) -> Option<&ValueOrder> {
        let build = || ValueOrder::build(&self.columns[i]);
        let order = &self.derived.columns[i].order;
        order.get(streamed, price::build(self.rows), build)
    }

    /// The last filter the table answered, to read or replace.
    pub(crate) fn last_filter(&self) -> MutexGuard<'_, Option<Arc<FilterMemo>>> {
        lock(&self.derived.filter)
    }

    /// Column `i`'s state under `bins`: its last spec's, bit for bit the
    /// same, or a new one that replaces it.
    pub(crate) fn bin_at(&self, i: usize, bins: &BinSpec) -> Arc<Bin> {
        let key = (bins.min.to_bits(), bins.max.to_bits(), bins.bins);
        match &mut *lock(&self.derived.columns[i].bin) {
            Some((k, bin)) if *k == key => Arc::clone(bin),
            slot => Arc::clone(&slot.insert((key, Arc::default())).1),
        }
    }

    /// Estimated width of one row on disk, in bytes (used by the pager).
    pub fn row_disk_width(&self) -> usize {
        // Charge a small per-row header like a slotted-page row store does.
        const ROW_HEADER: usize = 8;
        ROW_HEADER
            + self
                .columns
                .iter()
                .map(|c| c.data_type().disk_width())
                .sum::<usize>()
    }

    /// The schema as `(name, type)` pairs.
    pub fn schema(&self) -> Vec<(String, DataType)> {
        self.column_names
            .iter()
            .zip(self.columns.iter())
            .map(|(n, c)| (n.to_string(), c.data_type()))
            .collect()
    }
}

/// Builder for [`Table`].
///
/// ```
/// use ids_engine::{ColumnBuilder, TableBuilder};
///
/// let t = TableBuilder::new("movies")
///     .column("id", ColumnBuilder::int(0..3))
///     .column("title", ColumnBuilder::str(["a", "b", "c"]))
///     .build()
///     .unwrap();
/// assert_eq!(t.rows(), 3);
/// ```
#[derive(Debug)]
pub struct TableBuilder {
    name: String,
    columns: Vec<(String, ColumnBuilder)>,
}

impl TableBuilder {
    /// Starts a table with the given name.
    pub fn new(name: impl Into<String>) -> Self {
        TableBuilder {
            name: name.into(),
            columns: Vec::new(),
        }
    }

    /// Adds a column.
    pub fn column(mut self, name: impl Into<String>, builder: ColumnBuilder) -> Self {
        self.columns.push((name.into(), builder));
        self
    }

    /// Validates lengths and freezes the table.
    pub fn build(self) -> EngineResult<Table> {
        if self.columns.is_empty() {
            return Err(EngineError::EmptyTable(self.name));
        }
        let rows = self.columns[0].1.len();
        let mut index = HashMap::with_capacity(self.columns.len());
        let mut names: Vec<Arc<str>> = Vec::with_capacity(self.columns.len());
        let mut cols: Vec<Column> = Vec::with_capacity(self.columns.len());
        for (name, builder) in self.columns {
            if builder.len() != rows {
                return Err(EngineError::RaggedColumns {
                    table: self.name,
                    expected: rows,
                    got: (name, builder.len()),
                });
            }
            let shared: Arc<str> = Arc::from(name.as_str());
            if index.insert(Arc::clone(&shared), cols.len()).is_some() {
                return Err(EngineError::DuplicateColumn(name));
            }
            names.push(shared);
            cols.push(builder.build());
        }
        let derived = Derived {
            filter: Mutex::default(),
            columns: cols.iter().map(|_| Slot::default()).collect(),
        };
        Ok(Table {
            name: Arc::from(self.name.as_str()),
            column_names: names.into(),
            columns: cols.into(),
            index: Arc::new(index),
            rows,
            derived: Arc::new(derived),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Table {
        TableBuilder::new("t")
            .column("a", ColumnBuilder::int([1, 2, 3]))
            .column("b", ColumnBuilder::float([0.1, 0.2, 0.3]))
            .column("c", ColumnBuilder::str(["x", "y", "x"]))
            .build()
            .unwrap()
    }

    #[test]
    fn basic_accessors() {
        let t = sample();
        assert_eq!(t.name(), "t");
        assert_eq!(t.rows(), 3);
        assert_eq!(t.width(), 3);
        assert_eq!(t.column_names().collect::<Vec<_>>(), vec!["a", "b", "c"]);
        assert_eq!(t.value(1, "a").unwrap(), Value::Int(2));
        assert_eq!(t.column_index("c").unwrap(), 2);
        assert_eq!(t.column_at(0).len(), 3);
    }

    #[test]
    fn unknown_column_is_an_error() {
        let t = sample();
        assert!(matches!(
            t.column("zzz"),
            Err(EngineError::UnknownColumn { .. })
        ));
    }

    #[test]
    fn ragged_columns_rejected() {
        let err = TableBuilder::new("bad")
            .column("a", ColumnBuilder::int([1, 2]))
            .column("b", ColumnBuilder::int([1]))
            .build()
            .unwrap_err();
        assert!(matches!(err, EngineError::RaggedColumns { .. }));
    }

    #[test]
    fn empty_and_duplicate_rejected() {
        assert!(matches!(
            TableBuilder::new("e").build(),
            Err(EngineError::EmptyTable(_))
        ));
        assert!(matches!(
            TableBuilder::new("d")
                .column("a", ColumnBuilder::int([1]))
                .column("a", ColumnBuilder::int([2]))
                .build(),
            Err(EngineError::DuplicateColumn(_))
        ));
    }

    #[test]
    fn row_disk_width_counts_types() {
        let t = sample();
        // 8 header + 8 (int) + 8 (float) + 24 (str)
        assert_eq!(t.row_disk_width(), 48);
    }

    /// The one build rule, structure by structure: absent one read below
    /// its price and built at it, in one allocation every clone sees, and
    /// never for a string column or a spec of more than 254 bins. Moved
    /// walks and division bins spend what they read, and a spec one ulp
    /// away restarts the codes' tally and drops the last histogram.
    #[test]
    fn each_structure_is_built_once_its_reads_reach_its_price() {
        const ROWS: usize = 1024;
        let t = TableBuilder::new("n")
            .column("i", ColumnBuilder::int((0..ROWS).map(|r| r as i64)))
            .column("f", ColumnBuilder::float((0..ROWS).map(|r| r as f64)))
            .column("s", ColumnBuilder::str((0..ROWS).map(|_| "s")))
            .build()
            .unwrap();
        let spec = |max: f64, bins| BinSpec::new("f", 0.0, max, bins);
        type Spend<'a> = &'a dyn Fn(&Table, usize, usize) -> Option<*const ()>;
        let codes = |bins: BinSpec| {
            move |t: &Table, i, n| {
                let bin = t.bin_at(i, &bins);
                bin.codes(t.column_at(i), &bins, n)
                    .map(|c| c.as_ptr().cast())
            }
        };
        let zone = |t: &Table, i, _| t.zone_map_at(i).map(|z| std::ptr::from_ref(z).cast());
        let order = |t: &Table, i, n| t.value_order_at(i, n).map(|o| std::ptr::from_ref(o).cast());
        let structures: [(Spend, usize, [bool; 3]); 4] = [
            (&zone, 0, [true, true, false]),
            (&order, price::build(ROWS), [true, true, false]),
            (&codes(spec(1024.0, 20)), ROWS, [true, true, false]),
            (&codes(spec(1024.0, 255)), ROWS, [false; 3]),
        ];
        for (k, (spend, price, builds)) in structures.into_iter().enumerate() {
            let t = t.take(&(0..ROWS).collect::<Vec<_>>());
            assert!(t.derived.columns.iter().all(|s| s.zones.1.get().is_none()));
            for (i, builds) in builds.into_iter().enumerate() {
                assert!(price == 0 || spend(&t, i, price - 1).is_none(), "{k}, {i}");
                let built = spend(&t.clone(), i, price.min(1));
                assert_eq!(built.is_some(), builds, "{k}, column {i}");
                assert_eq!(spend(&t, i, 0), built, "{k}, column {i}: one allocation");
            }
        }
        let block = t.zone_map_at(0).unwrap().block(0).unwrap();
        assert_eq!((block.min, block.max), (0.0, 1023.0));

        // Each move streams `f`'s one undecided block: the 48th builds its order.
        for k in 0..=price::build(1) {
            assert!(t.value_order_at(1, 0).is_none(), "after {k} statements");
            let moved = Predicate::And(vec![Predicate::between("f", 10.0, 900.0 + k as f64)]);
            crate::exec::filter_rows(&t, &moved).unwrap();
        }
        assert!(t.value_order_at(1, 0).is_some());
        // Cold bins of 600, 423 and 1 selected rows: the third builds the codes.
        let (bins, col) = (spec(1024.0, 20), t.column_at(1));
        for (lo, hi) in [(0.0, 599.0), (600.0, 1022.0), (1023.0, 1023.0)] {
            assert!(t.bin_at(1, &bins).codes(col, &bins, 0).is_none(), "{lo}");
            crate::exec::run_histogram(&t, &bins, &Predicate::between("f", lo, hi)).unwrap();
        }
        let bin = t.bin_at(1, &bins);
        assert!(bin.codes(col, &bins, 0).is_some() && bin.last().is_some());
        // One ulp away, and back: a new state each time, kept while the spec is.
        for spec in [spec(1024f64.next_up(), 20), bins] {
            let bin = t.bin_at(1, &spec);
            assert!(bin.last().is_none() && bin.codes(col, &spec, ROWS - 1).is_none());
            assert!(Arc::ptr_eq(&bin, &t.bin_at(1, &spec)), "{spec:?}");
        }
    }

    #[test]
    fn schema_reports_types() {
        let t = sample();
        let schema = t.schema();
        assert_eq!(schema[0], ("a".to_string(), DataType::Int));
        assert_eq!(schema[2], ("c".to_string(), DataType::Str));
    }
}
