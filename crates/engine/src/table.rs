//! Tables: named collections of equal-length columns, with what clones
//! share: lazily derived zone maps and value orders, and the memo, which
//! also holds each histogrammed column's bucket codes.

use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError};

use crate::column::{Column, ColumnBuilder, ZoneMap};
use crate::cost::QueryFootprint;
use crate::error::{EngineError, EngineResult};
use crate::kernels::{KernelStats, SelectionVector, ValueOrder};
use crate::predicate::Predicate;
use crate::result::Histogram;
use crate::stats::TableStats;
use crate::value::{DataType, Value};

/// An immutable table: a schema plus columnar data, cheap to clone.
#[derive(Debug, Clone)]
pub struct Table {
    name: Arc<str>,
    column_names: Arc<[Arc<str>]>,
    columns: Arc<[Column]>,
    index: Arc<HashMap<Arc<str>, usize>>,
    rows: usize,
    stats: Arc<TableStats>,
    // Lazily built per-column zone maps (`None` once built for a string
    // column). Shared across clones, so the first query to touch a
    // column pays the build and every later query reuses it.
    zones: Arc<[OnceLock<Option<ZoneMap>>]>,
    // Per-column value orders, each with the leaf-rows its column's moved
    // walks read cold before it was built; shared like `zones`.
    orders: Arc<[(OnceLock<Option<ValueOrder>>, AtomicUsize)]>,
    // What the table remembers of the statements it answered, shared
    // across clones like `zones`.
    memo: Arc<Mutex<Memo>>,
}

/// What a table remembers between statements: the last filter it
/// answered (`exec::filter_rows`) and, per column, the last histogram
/// counted over it and the bucket codes of the spec it is binned by
/// (`exec::run_histogram`). The filter entry answers a repeat, and starts
/// the walk of a filter that moves one of its ranges. Racing workers each
/// move a consistent (filter, selection) pair, so the answer is the cold
/// walk's whoever wins, and nothing records which path ran. Entries sit
/// behind `Arc`s, so a lookup clones a pointer and a store allocates once.
#[derive(Debug)]
pub(crate) struct Memo {
    pub(crate) filter: Option<Arc<FilterMemo>>,
    /// Indexed by column position, like `codes`.
    pub(crate) hists: Vec<Option<Arc<HistMemo>>>,
    pub(crate) codes: Vec<Option<CodesMemo>>,
}

/// A filter, the rows it selects, and the footprint of selecting them.
pub(crate) type FilterMemo = (Predicate, Arc<SelectionVector>, QueryFootprint);

/// A bin spec's key: `min` and `max` by bit pattern, and `bins`.
pub(crate) type SpecKey = (u64, u64, usize);

/// A histogram as counted: its spec's key, the rows it counted, its
/// counts, and the bin phase's block counters.
pub(crate) type HistMemo = (SpecKey, Arc<SelectionVector>, Histogram, KernelStats);

/// A column's one coded spec: its key, the selected rows its division
/// bins have walked, and its [`crate::kernels::bucket_codes`] once those
/// passed the build's cost — a pure function of (column, key).
pub(crate) type CodesMemo = (SpecKey, usize, Option<Arc<[u8]>>);

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
    /// stats, zone maps and string dictionaries are its own.
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

    /// Per-column min/max/distinct statistics, computed once at build time.
    pub fn stats(&self) -> &TableStats {
        &self.stats
    }

    /// The zone map of the column at position `i`, built lazily on first
    /// use and cached for the table's lifetime (clones share the cache).
    /// `None` for string columns, which have no numeric block bounds.
    pub fn zone_map_at(&self, i: usize) -> Option<&ZoneMap> {
        self.zones[i]
            .get_or_init(|| ZoneMap::build(&self.columns[i]))
            .as_ref()
    }

    /// The zone map of a column by name (see [`Table::zone_map_at`]).
    pub fn zone_map(&self, name: &str) -> EngineResult<Option<&ZoneMap>> {
        Ok(self.zone_map_at(self.column_index(name)?))
    }

    /// The value order of column `i`, for a moved walk that would read
    /// `streamed` leaf-rows cold: built once the column's moved walks have
    /// read as many as the build costs ([`ValueOrder::BUILD_ROWS`] a row),
    /// so a table nobody drags pays nothing. `None` until then and for
    /// string columns.
    pub(crate) fn value_order_at(&self, i: usize, streamed: usize) -> Option<&ValueOrder> {
        let (order, cold) = &self.orders[i];
        // A tally that publishes nothing: racing walks only move the build.
        if order.get().is_none() {
            let cold = cold.fetch_add(streamed, Ordering::Relaxed);
            if cold.saturating_add(streamed) < self.rows * ValueOrder::BUILD_ROWS {
                return None;
            }
        }
        order
            .get_or_init(|| ValueOrder::build(&self.columns[i]))
            .as_ref()
    }

    /// The value order of column `i` if moved walks have built it.
    pub(crate) fn built_order_at(&self, i: usize) -> Option<&ValueOrder> {
        self.orders[i].0.get()?.as_ref()
    }

    /// The statement memo, for [`crate::exec`] to clone an entry out of
    /// or store one into — never held across an evaluation or a bin
    /// pass. Every entry is a pure function of (table, its key), so a
    /// poisoned lock still guards usable ones and the last writer may win.
    pub(crate) fn memo(&self) -> MutexGuard<'_, Memo> {
        self.memo.lock().unwrap_or_else(PoisonError::into_inner)
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
        let stats = TableStats::compute(&names, &cols);
        let width = cols.len();
        let memo = Memo {
            filter: None,
            hists: vec![None; width],
            codes: vec![None; width],
        };
        Ok(Table {
            name: Arc::from(self.name.as_str()),
            column_names: names.into(),
            columns: cols.into(),
            index: Arc::new(index),
            rows,
            stats: Arc::new(stats),
            zones: (0..width).map(|_| OnceLock::new()).collect(),
            orders: (0..width)
                .map(|_| (OnceLock::new(), AtomicUsize::new(0)))
                .collect(),
            memo: Arc::new(Mutex::new(memo)),
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

    #[test]
    fn zone_maps_built_lazily_and_shared_across_clones() {
        let t = sample();
        let z = t.zone_map("a").unwrap().expect("int column has a zone map");
        let b = z.block(0).unwrap();
        assert_eq!((b.min, b.max), (1.0, 3.0));
        assert!(t.zone_map("c").unwrap().is_none(), "strings have none");
        // A clone sees the same cached map (same allocation).
        let clone = t.clone();
        let z2 = clone.zone_map("a").unwrap().unwrap();
        assert!(std::ptr::eq(z, z2));
        assert!(t.zone_map("zzz").is_err());
    }

    #[test]
    fn schema_reports_types() {
        let t = sample();
        let schema = t.schema();
        assert_eq!(schema[0], ("a".to_string(), DataType::Int));
        assert_eq!(schema[2], ("c".to_string(), DataType::Str));
    }
}
