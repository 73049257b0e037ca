//! Typed columnar storage.
//!
//! Columns are immutable once built. Strings are dictionary encoded
//! (`u32` codes into a shared pool), which both shrinks memory for the
//! categorical attributes in the case-study datasets (genres, room types)
//! and makes equality predicates a code comparison.

use std::collections::HashMap;
use std::sync::Arc;

use crate::value::{DataType, Value};

/// Rows per zone-map block. 1024 rows = 16 selection-mask words, small
/// enough that min/max bounds are tight on clustered data, large enough
/// that the per-block branch amortizes to nothing.
pub const ZONE_BLOCK_ROWS: usize = 1024;

/// Summary of one [`ZONE_BLOCK_ROWS`]-row block of a numeric column, in
/// the `f64` domain the predicate kernels compare in (`i64` values are
/// summarized *after* the `as f64` conversion, so bounds are exact for
/// the comparisons that consult them).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Zone {
    /// Minimum non-NaN value; `+inf` when the block is all-NaN.
    pub min: f64,
    /// Maximum non-NaN value; `-inf` when the block is all-NaN.
    pub max: f64,
    /// NaN rows in the block (the engine's null stand-in).
    pub nan_count: u32,
    /// Rows in the block (the final block may be short).
    pub len: u32,
}

/// Per-block min/max/NaN-count summaries of a numeric column — the
/// classic "zone map" / small materialized aggregate. Range predicates
/// and histogram binning consult it to decide whole blocks (all match /
/// none match / out of bin domain) without touching the data.
///
/// Built lazily, once per column, by [`crate::Table::zone_map_at`];
/// string columns have no zone map.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ZoneMap {
    blocks: Vec<Zone>,
}

impl ZoneMap {
    /// Builds the zone map for a column; `None` for string columns.
    pub fn build(col: &Column) -> Option<ZoneMap> {
        let summarize = |values: &mut dyn Iterator<Item = f64>, len: usize| -> Zone {
            let mut z = Zone {
                min: f64::INFINITY,
                max: f64::NEG_INFINITY,
                nan_count: 0,
                len: len as u32,
            };
            for x in values {
                if x.is_nan() {
                    z.nan_count += 1;
                } else {
                    z.min = z.min.min(x);
                    z.max = z.max.max(x);
                }
            }
            z
        };
        let blocks = match col {
            Column::Str { .. } => return None,
            Column::Float(v) => v
                .chunks(ZONE_BLOCK_ROWS)
                .map(|c| summarize(&mut c.iter().copied(), c.len()))
                .collect(),
            Column::Int(v) => v
                .chunks(ZONE_BLOCK_ROWS)
                .map(|c| summarize(&mut c.iter().map(|&x| x as f64), c.len()))
                .collect(),
        };
        Some(ZoneMap { blocks })
    }

    /// The summary of block `b` (rows `b*ZONE_BLOCK_ROWS..`), if any.
    pub fn block(&self, b: usize) -> Option<&Zone> {
        self.blocks.get(b)
    }

    /// Number of blocks.
    pub fn block_count(&self) -> usize {
        self.blocks.len()
    }
}

/// An immutable, typed column of values.
#[derive(Debug, Clone)]
pub enum Column {
    /// 64-bit integers.
    Int(Arc<[i64]>),
    /// 64-bit floats.
    Float(Arc<[f64]>),
    /// Dictionary-encoded strings: `codes[i]` indexes into `dict`.
    Str {
        /// Per-row dictionary codes.
        codes: Arc<[u32]>,
        /// Distinct values, in first-appearance order.
        dict: Arc<[Arc<str>]>,
    },
}

impl Column {
    /// Number of rows.
    pub fn len(&self) -> usize {
        match self {
            Column::Int(v) => v.len(),
            Column::Float(v) => v.len(),
            Column::Str { codes, .. } => codes.len(),
        }
    }

    /// `true` if the column has no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The column's data type.
    pub fn data_type(&self) -> DataType {
        match self {
            Column::Int(_) => DataType::Int,
            Column::Float(_) => DataType::Float,
            Column::Str { .. } => DataType::Str,
        }
    }

    /// The value at `row`. Panics if out of bounds.
    pub fn value(&self, row: usize) -> Value {
        match self {
            Column::Int(v) => Value::Int(v[row]),
            Column::Float(v) => Value::Float(v[row]),
            Column::Str { codes, dict } => Value::Str(Arc::clone(&dict[codes[row] as usize])),
        }
    }

    /// The value at `row` as `f64`, if the column is numeric and the
    /// row is in bounds.
    #[inline]
    pub fn f64_at(&self, row: usize) -> Option<f64> {
        match self {
            Column::Int(v) => v.get(row).map(|&x| x as f64),
            Column::Float(v) => v.get(row).copied(),
            Column::Str { .. } => None,
        }
    }

    /// The underlying integer slice, if this is an `Int` column.
    pub fn as_int(&self) -> Option<&[i64]> {
        match self {
            Column::Int(v) => Some(v),
            _ => None,
        }
    }

    /// The underlying float slice, if this is a `Float` column.
    pub fn as_float(&self) -> Option<&[f64]> {
        match self {
            Column::Float(v) => Some(v),
            _ => None,
        }
    }

    /// Dictionary parts, if this is a `Str` column.
    pub fn as_str_parts(&self) -> Option<(&[u32], &[Arc<str>])> {
        match self {
            Column::Str { codes, dict } => Some((codes, dict)),
            _ => None,
        }
    }

    /// Takes the rows selected by `sel` (indices into this column) into a
    /// new column, preserving the dictionary for string columns.
    pub fn take(&self, sel: &[usize]) -> Column {
        match self {
            Column::Int(v) => Column::Int(sel.iter().map(|&i| v[i]).collect()),
            Column::Float(v) => Column::Float(sel.iter().map(|&i| v[i]).collect()),
            Column::Str { codes, dict } => Column::Str {
                codes: sel.iter().map(|&i| codes[i]).collect(),
                dict: Arc::clone(dict),
            },
        }
    }
}

/// Builder that accumulates values and freezes into a [`Column`].
#[derive(Debug, Clone)]
pub enum ColumnBuilder {
    /// Accumulating integers.
    Int(Vec<i64>),
    /// Accumulating floats.
    Float(Vec<f64>),
    /// Accumulating dictionary-encoded strings.
    Str {
        /// Per-row codes.
        codes: Vec<u32>,
        /// Dictionary in first-appearance order.
        dict: Vec<Arc<str>>,
        /// Value → code lookup.
        lookup: HashMap<Arc<str>, u32>,
    },
}

impl ColumnBuilder {
    /// Builds an integer column from an iterator.
    pub fn int<I: IntoIterator<Item = i64>>(values: I) -> Self {
        ColumnBuilder::Int(values.into_iter().collect())
    }

    /// Builds a float column from an iterator.
    pub fn float<I: IntoIterator<Item = f64>>(values: I) -> Self {
        ColumnBuilder::Float(values.into_iter().collect())
    }

    /// Builds a string column from an iterator.
    pub fn str<I, S>(values: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: AsRef<str>,
    {
        let mut b = ColumnBuilder::Str {
            codes: Vec::new(),
            dict: Vec::new(),
            lookup: HashMap::new(),
        };
        for v in values {
            b.push_str(v.as_ref());
        }
        b
    }

    /// Appends an integer. Panics on type mismatch.
    pub fn push_int(&mut self, v: i64) {
        match self {
            ColumnBuilder::Int(vec) => vec.push(v),
            _ => panic!("push_int on non-int column builder"),
        }
    }

    /// Appends a float. Panics on type mismatch.
    pub fn push_float(&mut self, v: f64) {
        match self {
            ColumnBuilder::Float(vec) => vec.push(v),
            _ => panic!("push_float on non-float column builder"),
        }
    }

    /// Appends a string. Panics on type mismatch.
    pub fn push_str(&mut self, v: &str) {
        match self {
            ColumnBuilder::Str {
                codes,
                dict,
                lookup,
            } => {
                if let Some(&code) = lookup.get(v) {
                    codes.push(code);
                } else {
                    let code = u32::try_from(dict.len()).expect("dictionary overflow");
                    let shared: Arc<str> = Arc::from(v);
                    dict.push(Arc::clone(&shared));
                    lookup.insert(shared, code);
                    codes.push(code);
                }
            }
            _ => panic!("push_str on non-str column builder"),
        }
    }

    /// Number of accumulated rows.
    pub fn len(&self) -> usize {
        match self {
            ColumnBuilder::Int(v) => v.len(),
            ColumnBuilder::Float(v) => v.len(),
            ColumnBuilder::Str { codes, .. } => codes.len(),
        }
    }

    /// `true` if no rows have been accumulated.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Freezes into an immutable [`Column`].
    pub fn build(self) -> Column {
        match self {
            ColumnBuilder::Int(v) => Column::Int(v.into()),
            ColumnBuilder::Float(v) => Column::Float(v.into()),
            ColumnBuilder::Str { codes, dict, .. } => Column::Str {
                codes: codes.into(),
                dict: dict.into(),
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn int_and_float_columns() {
        let c = ColumnBuilder::int([1, 2, 3]).build();
        assert_eq!(c.len(), 3);
        assert_eq!(c.data_type(), DataType::Int);
        assert_eq!(c.value(1), Value::Int(2));
        assert_eq!(c.f64_at(2), Some(3.0));

        let f = ColumnBuilder::float([0.5, 1.5]).build();
        assert_eq!(f.f64_at(0), Some(0.5));
        assert_eq!(f.as_float().unwrap().len(), 2);
    }

    #[test]
    fn string_dictionary_dedupes() {
        let c = ColumnBuilder::str(["drama", "comedy", "drama", "drama"]).build();
        let (codes, dict) = c.as_str_parts().unwrap();
        assert_eq!(dict.len(), 2);
        assert_eq!(codes, &[0, 1, 0, 0]);
        assert_eq!(c.value(2).as_str(), Some("drama"));
        assert_eq!(c.f64_at(0), None);
    }

    #[test]
    fn take_selects_rows() {
        let c = ColumnBuilder::int([10, 20, 30, 40]).build();
        let t = c.take(&[3, 1]);
        assert_eq!(t.as_int().unwrap(), &[40, 20]);

        let s = ColumnBuilder::str(["a", "b", "c"]).build();
        let ts = s.take(&[2, 0]);
        assert_eq!(ts.value(0).as_str(), Some("c"));
        assert_eq!(ts.value(1).as_str(), Some("a"));
        // Dictionary is shared, not re-encoded.
        let (_, dict) = ts.as_str_parts().unwrap();
        assert_eq!(dict.len(), 3);
    }

    #[test]
    fn incremental_builders() {
        let mut b = ColumnBuilder::str(Vec::<&str>::new());
        assert!(b.is_empty());
        b.push_str("x");
        b.push_str("y");
        b.push_str("x");
        assert_eq!(b.len(), 3);
        let c = b.build();
        assert_eq!(c.value(2).as_str(), Some("x"));

        let mut i = ColumnBuilder::int([]);
        i.push_int(5);
        assert_eq!(i.build().as_int().unwrap(), &[5]);

        let mut f = ColumnBuilder::float([]);
        f.push_float(2.5);
        assert_eq!(f.build().as_float().unwrap(), &[2.5]);
    }

    #[test]
    #[should_panic(expected = "push_int on non-int")]
    fn type_mismatch_panics() {
        let mut b = ColumnBuilder::float([]);
        b.push_int(1);
    }

    #[test]
    fn zone_map_summarizes_blocks() {
        // 1025 rows: two blocks, the second one row long.
        let c = ColumnBuilder::float((0..1025).map(|i| i as f64)).build();
        let z = ZoneMap::build(&c).unwrap();
        assert_eq!(z.block_count(), 2);
        let b0 = z.block(0).unwrap();
        assert_eq!(
            (b0.min, b0.max, b0.nan_count, b0.len),
            (0.0, 1023.0, 0, 1024)
        );
        let b1 = z.block(1).unwrap();
        assert_eq!((b1.min, b1.max, b1.len), (1024.0, 1024.0, 1));
        assert!(z.block(2).is_none());
    }

    #[test]
    fn zone_map_counts_nans_and_handles_all_nan() {
        let c = ColumnBuilder::float([f64::NAN, 1.0, f64::NAN]).build();
        let z = ZoneMap::build(&c).unwrap();
        let b = z.block(0).unwrap();
        assert_eq!((b.min, b.max, b.nan_count), (1.0, 1.0, 2));

        let all_nan = ColumnBuilder::float([f64::NAN; 4]).build();
        let z = ZoneMap::build(&all_nan).unwrap();
        let b = z.block(0).unwrap();
        assert!(b.min.is_infinite() && b.max.is_infinite());
        assert_eq!(b.nan_count, 4);
    }

    #[test]
    fn zone_map_int_uses_converted_domain() {
        let c = ColumnBuilder::int([-3, 7, 7]).build();
        let z = ZoneMap::build(&c).unwrap();
        let b = z.block(0).unwrap();
        assert_eq!((b.min, b.max, b.nan_count), (-3.0, 7.0, 0));
    }

    #[test]
    fn zone_map_absent_for_strings_and_empty() {
        assert!(ZoneMap::build(&ColumnBuilder::str(["a"]).build()).is_none());
        let empty = ColumnBuilder::float([]).build();
        assert_eq!(ZoneMap::build(&empty).unwrap().block_count(), 0);
    }
}
