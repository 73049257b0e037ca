//! The logical query AST.
//!
//! Covers exactly the SQL shapes issued by the paper's interactive
//! workloads (Sections 6–8):
//!
//! - **Select** — projected, filtered scan with `LIMIT`/`OFFSET`
//!   (inertial-scroll lazy loading, Q1 of case study 1);
//! - **Join** — a paginated subquery inner-joined to a dimension table
//!   (the streaming-join variant, Q2 of case study 1);
//! - **Histogram** — filtered `GROUP BY ROUND((col - min)/width)` counts
//!   (crossfiltering, case study 2);
//! - **Count** — filtered cardinality (widget result counts, case study 3).

use std::sync::Arc;

use crate::backend::Database;
use crate::error::{EngineError, EngineResult};
use crate::predicate::Predicate;
use crate::table::Table;

/// One projected output expression.
#[derive(Debug, Clone)]
pub enum Projection {
    /// A bare column reference.
    Column(Arc<str>),
    /// String concatenation of columns and literals, e.g.
    /// `title || '(' || year || ')'`.
    Concat(Vec<ConcatPart>),
}

/// A piece of a [`Projection::Concat`] expression.
#[derive(Debug, Clone)]
pub enum ConcatPart {
    /// A column whose value is stringified.
    Column(Arc<str>),
    /// A literal fragment.
    Literal(Arc<str>),
}

impl Projection {
    /// Projects a column by name.
    pub fn column(name: impl Into<Arc<str>>) -> Projection {
        Projection::Column(name.into())
    }

    /// The `title || '(' || year || ')'` pattern from the paper's Q1/Q2.
    pub fn title_with_year(title: impl Into<Arc<str>>, year: impl Into<Arc<str>>) -> Projection {
        Projection::Concat(vec![
            ConcatPart::Column(title.into()),
            ConcatPart::Literal(Arc::from("(")),
            ConcatPart::Column(year.into()),
            ConcatPart::Literal(Arc::from(")")),
        ])
    }

    /// Column names this projection reads.
    pub fn referenced_columns(&self) -> Vec<&str> {
        match self {
            Projection::Column(c) => vec![c.as_ref()],
            Projection::Concat(parts) => parts
                .iter()
                .filter_map(|p| match p {
                    ConcatPart::Column(c) => Some(c.as_ref()),
                    ConcatPart::Literal(_) => None,
                })
                .collect(),
        }
    }
}

/// A projected, filtered, paginated scan of one table.
#[derive(Debug, Clone)]
pub struct SelectSpec {
    /// Source table name.
    pub table: Arc<str>,
    /// Output expressions (empty means "all columns").
    pub projection: Vec<Projection>,
    /// Filter predicate.
    pub filter: Predicate,
    /// Maximum rows returned (`None` = unlimited).
    pub limit: Option<usize>,
    /// Rows skipped before the first returned row.
    pub offset: usize,
}

/// A paginated subquery joined to a dimension table:
/// `(SELECT key, .. FROM left LIMIT .. OFFSET ..) INNER JOIN right ON key`.
#[derive(Debug, Clone)]
pub struct JoinSpec {
    /// Fact-side table (paginated subquery source).
    pub left: Arc<str>,
    /// Dimension-side table.
    pub right: Arc<str>,
    /// Join key column name on the left table.
    pub left_key: Arc<str>,
    /// Join key column name on the right table.
    pub right_key: Arc<str>,
    /// Projections over the *joined* row; columns are resolved against the
    /// left table first, then the right.
    pub projection: Vec<Projection>,
    /// LIMIT applied to the left subquery.
    pub limit: Option<usize>,
    /// OFFSET applied to the left subquery.
    pub offset: usize,
}

/// The rows `LIMIT`/`OFFSET` keep out of the first `rows`:
/// `offset..offset + limit` clamped to the table. The sum saturates, so a
/// `LIMIT` near `usize::MAX` means "the rest" rather than wrapping.
pub(crate) fn page_window(
    limit: Option<usize>,
    offset: usize,
    rows: usize,
) -> std::ops::Range<usize> {
    let end = limit.map_or(rows, |l| offset.saturating_add(l).min(rows));
    offset.min(end)..end
}

/// Equi-width binning for histogram queries:
/// `ROUND((col - min) / width)` with `bins` buckets.
#[derive(Debug, Clone)]
pub struct BinSpec {
    /// Binned column.
    pub column: Arc<str>,
    /// Domain minimum (bin 0 starts here).
    pub min: f64,
    /// Domain maximum.
    pub max: f64,
    /// Number of bins.
    pub bins: usize,
}

impl BinSpec {
    /// Creates a bin spec over `[min, max]` with `bins` buckets.
    pub fn new(column: impl Into<Arc<str>>, min: f64, max: f64, bins: usize) -> BinSpec {
        BinSpec {
            column: column.into(),
            min,
            max,
            bins,
        }
    }

    /// Most bins a histogram may ask for. Its counts are allocated
    /// before a row is read, so without a ceiling one SQL string picks
    /// the size of that allocation; 2²⁰ is four orders of magnitude above
    /// the largest count any workload or generator here uses (40).
    pub const MAX_BINS: usize = 1 << 20;

    /// The one bin-spec check every executor runs first: rejects zero
    /// bins, more than [`BinSpec::MAX_BINS`], and a non-positive or NaN
    /// width.
    pub fn validate(&self) -> EngineResult<()> {
        if self.bins == 0 {
            return Err(EngineError::InvalidBinSpec("zero bins".into()));
        }
        if self.bins > Self::MAX_BINS {
            return Err(EngineError::InvalidBinSpec(format!(
                "{} bins exceeds the limit of {}",
                self.bins,
                Self::MAX_BINS
            )));
        }
        if self.width() <= 0.0 || self.width().is_nan() {
            return Err(EngineError::InvalidBinSpec(format!(
                "non-positive width over [{}, {}]",
                self.min, self.max
            )));
        }
        Ok(())
    }

    /// The position of the binned column in `table`, which must be
    /// numeric — asked of the column's type, not a sample value, so an
    /// empty string column is refused like a full one.
    pub(crate) fn column_in(&self, table: &Table) -> EngineResult<usize> {
        let idx = table.column_index(&self.column)?;
        if !table.column_at(idx).data_type().is_numeric() {
            return Err(EngineError::TypeMismatch {
                column: self.column.to_string(),
                expected: "numeric column for binning",
            });
        }
        Ok(idx)
    }

    /// Bin width.
    pub fn width(&self) -> f64 {
        (self.max - self.min) / self.bins as f64
    }

    /// The bin index for value `x`, mirroring the paper's
    /// `ROUND((x - min) / width)` SQL — note `ROUND`, not `FLOOR`, so the
    /// result ranges over `0..=bins` and edge bins are half-width.
    /// Returns `None` for values outside `[min, max]` and for NaN —
    /// NaN compares false against both domain bounds, so without an
    /// explicit check it would slip past the guard and land in bin 0.
    pub fn bin_of(&self, x: f64) -> Option<usize> {
        self.bin_with_width(x, self.width())
    }

    /// [`bin_of`](BinSpec::bin_of) with [`width`](BinSpec::width) passed
    /// in, so a kernel divides once per call instead of once per row.
    /// The engine's one definition of `ROUND`.
    pub(crate) fn bin_with_width(&self, x: f64, width: f64) -> Option<usize> {
        if x.is_nan() || x < self.min || x > self.max || width <= 0.0 {
            return None;
        }
        // Round half away from zero without `f64::round`, which baseline
        // x86-64 compiles to a libm call per row. `t` is never negative
        // here (`x >= min`, `width > 0`), so the cast truncates, and
        // `t - trunc(t)` is exact below 2^52 and zero above: the
        // comparison sees the true fraction. A NaN `t` (NaN or infinite
        // bounds) casts to 0 and compares false — bin 0, as `.round()`
        // gave. Through `i64`, not `usize`: SSE2 converts only signed
        // integers in one instruction, and `t` is at most 1.5 × `bins`.
        let t = (x - self.min) / width;
        let i = t as i64;
        let idx = i as usize + usize::from(t - i as f64 >= 0.5);
        // Guard against float edge effects at the top boundary.
        Some(idx.min(self.bins))
    }

    /// Total number of output bins (`bins + 1` because of `ROUND`).
    pub fn bucket_count(&self) -> usize {
        self.bins + 1
    }
}

/// A logical query.
#[derive(Debug, Clone)]
pub enum Query {
    /// Projected, filtered, paginated scan.
    Select(SelectSpec),
    /// Paginated subquery inner join.
    Join(JoinSpec),
    /// Filtered equi-width histogram with COUNT(*) per bin.
    Histogram {
        /// Source table name.
        table: Arc<str>,
        /// Binning of the grouped column.
        bins: BinSpec,
        /// Filter predicate.
        filter: Predicate,
    },
    /// `SELECT COUNT(*) FROM table WHERE filter`.
    Count {
        /// Source table name.
        table: Arc<str>,
        /// Filter predicate.
        filter: Predicate,
    },
}

impl Query {
    /// Short operator name ("select", "join", "histogram", "count"),
    /// used for metric names and trace span labels.
    pub fn kind(&self) -> &'static str {
        match self {
            Query::Select(_) => "select",
            Query::Join(_) => "join",
            Query::Histogram { .. } => "histogram",
            Query::Count { .. } => "count",
        }
    }

    /// Convenience constructor for a paginated select.
    pub fn select(
        table: impl Into<Arc<str>>,
        projection: Vec<Projection>,
        filter: Predicate,
        limit: Option<usize>,
        offset: usize,
    ) -> Query {
        Query::Select(SelectSpec {
            table: table.into(),
            projection,
            filter,
            limit,
            offset,
        })
    }

    /// Convenience constructor for a filtered histogram.
    pub fn histogram(table: impl Into<Arc<str>>, bins: BinSpec, filter: Predicate) -> Query {
        Query::Histogram {
            table: table.into(),
            bins,
            filter,
        }
    }

    /// Convenience constructor for a filtered count.
    pub fn count(table: impl Into<Arc<str>>, filter: Predicate) -> Query {
        Query::Count {
            table: table.into(),
            filter,
        }
    }

    /// The primary table this query scans.
    pub fn table(&self) -> &str {
        match self {
            Query::Select(s) => &s.table,
            Query::Join(j) => &j.left,
            Query::Histogram { table, .. } | Query::Count { table, .. } => table,
        }
    }

    /// The filter predicate, if this query shape carries one.
    pub fn filter(&self) -> Option<&Predicate> {
        match self {
            Query::Select(s) => Some(&s.filter),
            Query::Histogram { filter, .. } | Query::Count { filter, .. } => Some(filter),
            Query::Join(_) => None,
        }
    }

    /// Checks this query against `db`'s catalog before anything
    /// executes: rejects an unknown table ([`EngineError::UnknownTable`]),
    /// unknown projected or filtered columns
    /// ([`EngineError::UnknownColumn`]) and a non-numeric histogram column
    /// ([`EngineError::TypeMismatch`]). A join is checked only for its
    /// left table; the dialect cannot spell one.
    pub fn validate(&self, db: &Database) -> EngineResult<()> {
        let table = db.table(self.table())?;
        let filter = match self {
            Query::Select(spec) => {
                for proj in &spec.projection {
                    for col in proj.referenced_columns() {
                        table.column(col)?;
                    }
                }
                &spec.filter
            }
            Query::Histogram { bins, filter, .. } => {
                bins.column_in(&table)?;
                filter
            }
            Query::Count { filter, .. } => filter,
            Query::Join(_) => return Ok(()),
        };
        filter.validate(&table)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bin_of_matches_round_semantics() {
        let b = BinSpec::new("y", 0.0, 20.0, 20);
        assert_eq!(b.width(), 1.0);
        assert_eq!(b.bin_of(0.0), Some(0));
        assert_eq!(b.bin_of(0.49), Some(0));
        assert_eq!(b.bin_of(0.5), Some(1)); // ROUND, not FLOOR
        assert_eq!(b.bin_of(20.0), Some(20));
        assert_eq!(b.bin_of(20.1), None);
        assert_eq!(b.bin_of(-0.1), None);
        assert_eq!(b.bucket_count(), 21);
    }

    /// The `f64::round` formula `bin_of` was defined by, kept verbatim as
    /// the oracle for its libm-free replacement.
    fn round_oracle(b: &BinSpec, x: f64) -> Option<usize> {
        if x.is_nan() || x < b.min || x > b.max || b.width() <= 0.0 {
            return None;
        }
        let idx = ((x - b.min) / b.width()).round();
        Some((idx as usize).min(b.bins))
    }

    /// `x` moved `k` representable values up (or down, `k < 0`).
    fn ulps(x: f64, k: i64) -> f64 {
        // Sign-magnitude bits <-> an integer line where neighbours differ by 1.
        let line = |b: i64| if b < 0 { i64::MIN - b } else { b };
        f64::from_bits(line(line(x.to_bits() as i64) + k) as u64)
    }

    #[test]
    fn bin_of_equals_the_round_formula() {
        assert_eq!(ulps(1.0, 1), 1.0 + f64::EPSILON);
        assert_eq!(ulps(0.0, -1), -f64::from_bits(1));
        let (inf, nan) = (f64::INFINITY, f64::NAN);
        let specs = [
            (0.0, 1.0, 20),
            (-3.5, 9.25, 7),
            (56.582, 57.774, 20),
            (0.0, 1e-300, 3),
            (0.0, 1e300, BinSpec::MAX_BINS),
            (-inf, inf, 4),
            (0.0, inf, 4),
            (-inf, 0.0, 4),
            // Rejected by `validate`; `bin_of` keeps its old answers.
            (1.0, 1.0, 4),
            (nan, 1.0, 4),
            (0.0, nan, 4),
        ];
        let mut rng = ids_simclock::rng::SimRng::seed(19);
        for (min, max, bins) in specs {
            let b = BinSpec::new("y", min, max, bins);
            let check = |x: f64| assert_eq!(b.bin_of(x), round_oracle(&b, x), "{b:?} at {x:e}");
            for x in [min, max, nan, inf, -inf, -0.0, 0.0, f64::MAX, f64::MIN] {
                check(x);
            }
            // Every bin edge and midpoint (where ROUND flips), +- 2 ulp.
            for half in 0..=2 * bins {
                let x = min + half as f64 * (b.width() / 2.0);
                (-2..=2).for_each(|k| check(ulps(x, k)));
            }
            // Seeded values reaching 5 % beyond either end of the domain.
            (0..200_000).for_each(|_| check(min + rng.uniform(-0.05, 1.05) * (max - min)));
        }
        assert_eq!(BinSpec::new("y", 1.0, 1.0, 4).bin_of(1.0), None);
        assert_eq!(BinSpec::new("y", 0.0, nan, 4).bin_of(0.5), Some(0));
    }

    #[test]
    fn degenerate_bins_select_nothing() {
        let b = BinSpec::new("y", 5.0, 5.0, 10);
        assert_eq!(b.bin_of(5.0), None);
    }

    #[test]
    fn projection_referenced_columns() {
        let p = Projection::title_with_year("title", "year");
        assert_eq!(p.referenced_columns(), vec!["title", "year"]);
        assert_eq!(Projection::column("x").referenced_columns(), vec!["x"]);
    }

    #[test]
    fn query_accessors() {
        let q = Query::count("t", Predicate::True);
        assert_eq!(q.table(), "t");
        assert!(q.filter().is_some());
        let j = Query::Join(JoinSpec {
            left: "l".into(),
            right: "r".into(),
            left_key: "id".into(),
            right_key: "id".into(),
            projection: vec![Projection::title_with_year("title", "year")],
            limit: Some(10),
            offset: 100,
        });
        assert_eq!(j.table(), "l");
        assert!(j.filter().is_none());
        assert_eq!(
            j.to_string(),
            "SELECT title || '(' || year || ')' FROM (SELECT * FROM l LIMIT 10 OFFSET 100) \
             JOIN r ON id = id"
        );
    }

    #[test]
    fn display_shapes() {
        let q = Query::select("imdb", vec![], Predicate::True, Some(100), 200);
        assert_eq!(q.to_string(), "SELECT * FROM imdb LIMIT 100 OFFSET 200");
        let h = Query::histogram("road", BinSpec::new("y", 0.0, 20.0, 20), Predicate::True);
        assert_eq!(
            h.to_string(),
            "SELECT HISTOGRAM(y, 0, 20, 20), COUNT(*) FROM road GROUP BY 1 ORDER BY 1"
        );
    }
}
