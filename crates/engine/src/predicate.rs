//! Filter predicates: the `WHERE` clauses of interactive workloads.
//!
//! Crossfiltering and composite-interface queries are dominated by
//! conjunctions of numeric range predicates (one per slider / map bound),
//! so `Between` is first-class and evaluation is a tight per-column loop.

use std::fmt;
use std::sync::Arc;

use crate::column::Column;
use crate::error::EngineResult;
use crate::table::Table;
use crate::value::Value;

/// Comparison operators for scalar predicates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CmpOp {
    /// `=`
    Eq,
    /// `<>`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
}

impl fmt::Display for CmpOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            CmpOp::Eq => "=",
            CmpOp::Ne => "<>",
            CmpOp::Lt => "<",
            CmpOp::Le => "<=",
            CmpOp::Gt => ">",
            CmpOp::Ge => ">=",
        };
        f.write_str(s)
    }
}

/// A boolean filter over table rows.
#[derive(Debug, Clone)]
pub enum Predicate {
    /// Always true — scan everything.
    True,
    /// `column <op> literal`.
    Cmp {
        /// Column name.
        column: Arc<str>,
        /// Operator.
        op: CmpOp,
        /// Right-hand literal.
        value: Value,
    },
    /// `column BETWEEN lo AND hi` (inclusive), numeric columns only.
    Between {
        /// Column name.
        column: Arc<str>,
        /// Inclusive lower bound.
        lo: f64,
        /// Inclusive upper bound.
        hi: f64,
    },
    /// Conjunction.
    And(Vec<Predicate>),
    /// Disjunction.
    Or(Vec<Predicate>),
    /// Negation.
    Not(Box<Predicate>),
}

impl Predicate {
    /// `column BETWEEN lo AND hi`.
    pub fn between(column: impl Into<Arc<str>>, lo: f64, hi: f64) -> Predicate {
        Predicate::Between {
            column: column.into(),
            lo,
            hi,
        }
    }

    /// `column = value`.
    pub fn eq(column: impl Into<Arc<str>>, value: impl Into<Value>) -> Predicate {
        Predicate::Cmp {
            column: column.into(),
            op: CmpOp::Eq,
            value: value.into(),
        }
    }

    /// `column >= value` (numeric).
    pub fn ge(column: impl Into<Arc<str>>, value: f64) -> Predicate {
        Predicate::Cmp {
            column: column.into(),
            op: CmpOp::Ge,
            value: Value::Float(value),
        }
    }

    /// `column <= value` (numeric).
    pub fn le(column: impl Into<Arc<str>>, value: f64) -> Predicate {
        Predicate::Cmp {
            column: column.into(),
            op: CmpOp::Le,
            value: Value::Float(value),
        }
    }

    /// Conjunction of predicates; flattens nested `And`s and drops `True`s.
    pub fn and(preds: impl IntoIterator<Item = Predicate>) -> Predicate {
        let mut flat = Vec::new();
        for p in preds {
            match p {
                Predicate::True => {}
                Predicate::And(inner) => flat.extend(inner),
                other => flat.push(other),
            }
        }
        match (flat.pop(), flat.is_empty()) {
            (None, _) => Predicate::True,
            (Some(only), true) => only,
            (Some(last), false) => {
                flat.push(last);
                Predicate::And(flat)
            }
        }
    }

    /// Number of atomic conditions (leaf comparisons) in this predicate —
    /// the "number of filter conditions" measured in case study 3 (Fig 20).
    pub fn condition_count(&self) -> usize {
        match self {
            Predicate::True => 0,
            Predicate::Cmp { .. } | Predicate::Between { .. } => 1,
            Predicate::And(ps) | Predicate::Or(ps) => {
                ps.iter().map(Predicate::condition_count).sum()
            }
            Predicate::Not(p) => p.condition_count(),
        }
    }

    /// Evaluates the predicate on one row.
    pub fn matches(&self, table: &Table, row: usize) -> EngineResult<bool> {
        Ok(match self {
            Predicate::True => true,
            Predicate::Cmp { column, op, value } => {
                let col = table.column(column)?;
                cmp_matches(col, row, *op, value)
            }
            Predicate::Between { column, lo, hi } => {
                let col = table.column(column)?;
                match col.f64_at(row) {
                    Some(x) => x >= *lo && x <= *hi,
                    None => false,
                }
            }
            Predicate::And(ps) => {
                for p in ps {
                    if !p.matches(table, row)? {
                        return Ok(false);
                    }
                }
                true
            }
            Predicate::Or(ps) => {
                for p in ps {
                    if p.matches(table, row)? {
                        return Ok(true);
                    }
                }
                false
            }
            Predicate::Not(p) => !p.matches(table, row)?,
        })
    }

    /// Evaluates the predicate over all rows, returning selected row indices.
    ///
    /// This is the naive row-id-materializing baseline the vectorized
    /// [`kernels::select_vector`](crate::kernels::select_vector) path is
    /// differential-tested against: [`matches`](Predicate::matches), one
    /// row at a time, for every predicate shape.
    pub fn select(&self, table: &Table) -> EngineResult<Vec<usize>> {
        let mut out = Vec::new();
        for row in 0..table.rows() {
            if self.matches(table, row)? {
                out.push(row);
            }
        }
        Ok(out)
    }

    /// Whether `other` is the same filter, node for node: the key of the
    /// table's selection memo ([`crate::exec::filter_rows`]). Stricter than
    /// [`Value`]'s `==`, which equates `Int(3)` with `Float(3.0)` and NaN
    /// with NaN although the kernels resolve those to different leaves —
    /// floats compare by bit pattern and a NaN equals nothing. Missing a
    /// repeat costs one scan; matching a different filter is a wrong answer.
    pub(crate) fn same_filter(&self, other: &Predicate) -> bool {
        let same_f64 = |a: f64, b: f64| a.to_bits() == b.to_bits() && !a.is_nan();
        use Predicate::{And, Between, Cmp, Not, Or, True};
        match (self, other) {
            (True, True) => true,
            (
                Cmp {
                    column: c,
                    op: o,
                    value: v,
                },
                Cmp { column, op, value },
            ) => {
                let same_value = match (v, value) {
                    (Value::Int(a), Value::Int(b)) => a == b,
                    (Value::Float(a), Value::Float(b)) => same_f64(*a, *b),
                    (Value::Str(a), Value::Str(b)) => a == b,
                    _ => false,
                };
                c == column && o == op && same_value
            }
            (
                Between {
                    column: c,
                    lo: l,
                    hi: h,
                },
                Between { column, lo, hi },
            ) => c == column && same_f64(*l, *lo) && same_f64(*h, *hi),
            (And(a), And(b)) | (Or(a), Or(b)) => {
                a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.same_filter(y))
            }
            (Not(a), Not(b)) => a.same_filter(b),
            _ => false,
        }
    }

    /// Whether `other` is this conjunction with one range moved: both are
    /// `And`s of single leaves, conjunct for conjunct the
    /// [`same_filter`](Predicate::same_filter) but for one `Between` on the
    /// same column. Returns that conjunct's position and its bounds in
    /// `self`, the start of [`crate::exec::filter_rows`]'s moved walk. All
    /// four bounds must be non-NaN: the walk's candidate span runs between
    /// them through `f64::min`/`max`, which skip a NaN.
    pub(crate) fn moved_range(&self, other: &Predicate) -> Option<(usize, f64, f64)> {
        let (Predicate::And(a), Predicate::And(b)) = (self, other) else {
            return None;
        };
        let leaf = |p: &Predicate| matches!(p, Predicate::Cmp { .. } | Predicate::Between { .. });
        if a.len() != b.len() || !a.iter().chain(b).all(leaf) {
            return None;
        }
        let mut moved = a.iter().zip(b).enumerate();
        let (at, pair) = moved.find(|(_, (x, y))| !x.same_filter(y))?;
        fn range(p: &Predicate) -> Option<(&str, f64, f64)> {
            match p {
                Predicate::Between { column, lo, hi } if !lo.is_nan() && !hi.is_nan() => {
                    Some((column, *lo, *hi))
                }
                _ => None,
            }
        }
        let ((column, lo, hi), (to, ..)) = (range(pair.0)?, range(pair.1)?);
        let alone = moved.all(|(_, (x, y))| x.same_filter(y));
        (column == to && alone).then_some((at, lo, hi))
    }

    /// Validates that all referenced columns exist in `table`.
    pub fn validate(&self, table: &Table) -> EngineResult<()> {
        match self {
            Predicate::True => Ok(()),
            Predicate::Cmp { column, .. } | Predicate::Between { column, .. } => {
                table.column(column).map(|_| ())
            }
            Predicate::And(ps) | Predicate::Or(ps) => ps.iter().try_for_each(|p| p.validate(table)),
            Predicate::Not(p) => p.validate(table),
        }
    }
}

fn cmp_matches(col: &Column, row: usize, op: CmpOp, value: &Value) -> bool {
    // Numeric comparison when both sides are numeric; string comparison
    // when both are strings; cross-type comparisons are false (except Ne).
    if let (Some(x), Some(v)) = (col.f64_at(row), value.as_f64()) {
        return match op {
            CmpOp::Eq => x == v,
            CmpOp::Ne => x != v,
            CmpOp::Lt => x < v,
            CmpOp::Le => x <= v,
            CmpOp::Gt => x > v,
            CmpOp::Ge => x >= v,
        };
    }
    if let (Some(s), Some(v)) = (col.value(row).as_str().map(str::to_owned), value.as_str()) {
        return match op {
            CmpOp::Eq => s == v,
            CmpOp::Ne => s != v,
            CmpOp::Lt => s.as_str() < v,
            CmpOp::Le => s.as_str() <= v,
            CmpOp::Gt => s.as_str() > v,
            CmpOp::Ge => s.as_str() >= v,
        };
    }
    op == CmpOp::Ne
}

impl fmt::Display for Predicate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Predicate::True => write!(f, "TRUE"),
            Predicate::Cmp { column, op, value } => {
                write!(f, "{column} {op} ")?;
                match value {
                    Value::Str(s) => crate::sql::write_quoted(f, s),
                    number => write!(f, "{number}"),
                }
            }
            Predicate::Between { column, lo, hi } => {
                write!(f, "{column} BETWEEN {lo} AND {hi}")
            }
            Predicate::And(ps) => {
                let parts: Vec<String> = ps.iter().map(|p| format!("({p})")).collect();
                write!(f, "{}", parts.join(" AND "))
            }
            Predicate::Or(ps) => {
                let parts: Vec<String> = ps.iter().map(|p| format!("({p})")).collect();
                write!(f, "{}", parts.join(" OR "))
            }
            Predicate::Not(p) => write!(f, "NOT ({p})"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::column::ColumnBuilder;
    use crate::table::TableBuilder;

    fn table() -> Table {
        TableBuilder::new("t")
            .column("x", ColumnBuilder::float([0.0, 1.0, 2.0, 3.0, 4.0]))
            .column("n", ColumnBuilder::int([5, 4, 3, 2, 1]))
            .column("s", ColumnBuilder::str(["a", "b", "a", "c", "b"]))
            .build()
            .unwrap()
    }

    #[test]
    fn between_selects_inclusive_range() {
        let t = table();
        let sel = Predicate::between("x", 1.0, 3.0).select(&t).unwrap();
        assert_eq!(sel, vec![1, 2, 3]);
    }

    #[test]
    fn between_on_int_column() {
        let t = table();
        let sel = Predicate::between("n", 2.0, 4.0).select(&t).unwrap();
        assert_eq!(sel, vec![1, 2, 3]);
    }

    #[test]
    fn conjunction_of_ranges_fast_path() {
        let t = table();
        let p = Predicate::and([
            Predicate::between("x", 1.0, 4.0),
            Predicate::between("n", 1.0, 3.0),
        ]);
        assert_eq!(p.select(&t).unwrap(), vec![2, 3, 4]);
    }

    #[test]
    fn string_equality() {
        let t = table();
        let sel = Predicate::eq("s", "a").select(&t).unwrap();
        assert_eq!(sel, vec![0, 2]);
    }

    #[test]
    fn boolean_combinators() {
        let t = table();
        let p = Predicate::Or(vec![Predicate::eq("s", "c"), Predicate::eq("n", 5i64)]);
        assert_eq!(p.select(&t).unwrap(), vec![0, 3]);
        let not = Predicate::Not(Box::new(p));
        assert_eq!(not.select(&t).unwrap(), vec![1, 2, 4]);
    }

    #[test]
    fn comparison_ops() {
        let t = table();
        assert_eq!(Predicate::ge("x", 3.0).select(&t).unwrap(), vec![3, 4]);
        assert_eq!(Predicate::le("x", 1.0).select(&t).unwrap(), vec![0, 1]);
        let ne = Predicate::Cmp {
            column: "s".into(),
            op: CmpOp::Ne,
            value: Value::from("a"),
        };
        assert_eq!(ne.select(&t).unwrap(), vec![1, 3, 4]);
    }

    #[test]
    fn cross_type_comparison_is_false_except_ne() {
        let t = table();
        let eq = Predicate::eq("s", 1i64);
        assert!(eq.select(&t).unwrap().is_empty());
        let ne = Predicate::Cmp {
            column: "s".into(),
            op: CmpOp::Ne,
            value: Value::from(1i64),
        };
        assert_eq!(ne.select(&t).unwrap().len(), t.rows());
    }

    #[test]
    fn and_flattens_and_simplifies() {
        let p = Predicate::and([
            Predicate::True,
            Predicate::and([Predicate::between("x", 0.0, 1.0)]),
        ]);
        assert!(matches!(p, Predicate::Between { .. }));
        assert_eq!(Predicate::and([]).condition_count(), 0);
    }

    #[test]
    fn condition_count_counts_leaves() {
        let p = Predicate::and([
            Predicate::between("x", 0.0, 1.0),
            Predicate::Or(vec![Predicate::eq("s", "a"), Predicate::eq("s", "b")]),
        ]);
        assert_eq!(p.condition_count(), 3);
    }

    #[test]
    fn validate_reports_unknown_columns() {
        let t = table();
        assert!(Predicate::between("x", 0.0, 1.0).validate(&t).is_ok());
        assert!(Predicate::between("zzz", 0.0, 1.0).validate(&t).is_err());
        assert!(Predicate::and([
            Predicate::between("x", 0.0, 1.0),
            Predicate::eq("nope", 1i64)
        ])
        .validate(&t)
        .is_err());
    }

    #[test]
    fn display_round_trips_visually() {
        let p = Predicate::and([Predicate::between("x", 1.0, 2.0), Predicate::eq("s", "a")]);
        assert_eq!(p.to_string(), "(x BETWEEN 1 AND 2) AND (s = 'a')");
    }

    #[test]
    fn true_selects_everything() {
        let t = table();
        assert_eq!(Predicate::True.select(&t).unwrap().len(), t.rows());
    }
}
