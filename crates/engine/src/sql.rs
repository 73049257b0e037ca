//! SQL front-end: tokenizer, parser, and the one SQL renderer.
//!
//! The case studies write their workloads as SQL (Sections 6–7); this
//! module parses those statements — and the obvious variations —
//! straight into the logical [`Query`] that the
//! [`planner`](crate::planner) and the executor consume:
//!
//! ```sql
//! SELECT title, rating FROM imdb LIMIT 100 OFFSET 200
//! SELECT COUNT(*) FROM dataroad WHERE x >= 8.146 AND x <= 11.26
//! SELECT HISTOGRAM(y, 56.582, 57.774, 20), COUNT(*) FROM dataroad
//!     WHERE x BETWEEN 8.2 AND 9.1 GROUP BY 1 ORDER BY 1
//! ```
//!
//! The paper's `ROUND((y - min) / width)` group-by expression is spelled
//! `HISTOGRAM(column, min, max, bins)` here — same semantics
//! ([`BinSpec`]), honest about being an equi-width binning rather than
//! general scalar arithmetic. String concatenation projections
//! (`title || '(' || year || ')'`) are supported verbatim.
//!
//! [`parse`] consults no catalog: syntax errors, a filter nested deeper
//! than the parser's fixed bound among them, are
//! [`EngineError::SqlParse`] with the byte offset of the offending token,
//! and unknown tables and columns surface when the query executes, or
//! before that through [`Query::validate`].
//!
//! `Query`'s `Display`, defined here next to the parser, is the one SQL
//! renderer. It emits the dialect [`parse`] reads, and a query the parser
//! built renders to text that parses back to the same query (the seeded
//! round-trip tests pin this) — which is what lets `EXPLAIN` output and
//! shipped plan text embed statements verbatim. A join renders but does
//! not reparse: the dialect has no join syntax.

use std::fmt;
use std::sync::Arc;

use crate::backend::Database;
use crate::error::{EngineError, EngineResult};
use crate::predicate::{CmpOp, Predicate};
use crate::query::{BinSpec, ConcatPart, Projection, Query};
use crate::value::Value;

/// Parses one SQL statement into a logical [`Query`] without consulting
/// a catalog. Unknown tables/columns surface when the query executes.
pub fn parse(sql: &str) -> EngineResult<Query> {
    Parser::new(sql)?.parse_query()
}

/// [`parse`] under the name the frozen benchmark calls.
#[doc(hidden)]
pub fn parse_statement(sql: &str) -> EngineResult<Query> {
    parse(sql)
}

/// [`Query::validate`] followed by a copy, under the name the frozen
/// benchmark calls.
#[doc(hidden)]
pub fn bind(db: &Database, query: &Query) -> EngineResult<Query> {
    query.validate(db)?;
    Ok(query.clone())
}

// ---------------------------------------------------------------------------
// Rendering
// ---------------------------------------------------------------------------

/// Writes `s` as a single-quoted SQL string literal, `'` doubled.
pub(crate) fn write_quoted(f: &mut fmt::Formatter<'_>, s: &str) -> fmt::Result {
    write!(f, "'{}'", s.replace('\'', "''"))
}

/// `*` for the empty projection, else the comma-separated expressions.
fn write_projection(f: &mut fmt::Formatter<'_>, projection: &[Projection]) -> fmt::Result {
    if projection.is_empty() {
        return write!(f, "*");
    }
    for (i, proj) in projection.iter().enumerate() {
        if i > 0 {
            write!(f, ", ")?;
        }
        match proj {
            Projection::Column(c) => write!(f, "{c}")?,
            Projection::Concat(parts) => {
                for (j, part) in parts.iter().enumerate() {
                    if j > 0 {
                        write!(f, " || ")?;
                    }
                    match part {
                        ConcatPart::Column(c) => write!(f, "{c}")?,
                        ConcatPart::Literal(s) => write_quoted(f, s)?,
                    }
                }
            }
        }
    }
    Ok(())
}

/// ` WHERE filter`, or nothing when the filter is `TRUE`.
fn write_where(f: &mut fmt::Formatter<'_>, filter: &Predicate) -> fmt::Result {
    match filter {
        Predicate::True => Ok(()),
        filter => write!(f, " WHERE {filter}"),
    }
}

/// ` LIMIT n` when there is a limit, ` OFFSET n` when the offset is not 0.
fn write_page(f: &mut fmt::Formatter<'_>, limit: Option<usize>, offset: usize) -> fmt::Result {
    if let Some(limit) = limit {
        write!(f, " LIMIT {limit}")?;
    }
    if offset > 0 {
        write!(f, " OFFSET {offset}")?;
    }
    Ok(())
}

impl fmt::Display for Query {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Query::Select(s) => {
                write!(f, "SELECT ")?;
                write_projection(f, &s.projection)?;
                write!(f, " FROM {}", s.table)?;
                write_where(f, &s.filter)?;
                write_page(f, s.limit, s.offset)
            }
            Query::Join(j) => {
                write!(f, "SELECT ")?;
                write_projection(f, &j.projection)?;
                write!(f, " FROM (SELECT * FROM {}", j.left)?;
                write_page(f, j.limit, j.offset)?;
                write!(f, ") JOIN {} ON {} = {}", j.right, j.left_key, j.right_key)
            }
            Query::Histogram {
                table,
                bins,
                filter,
            } => {
                write!(
                    f,
                    "SELECT HISTOGRAM({}, {}, {}, {}), COUNT(*) FROM {table}",
                    bins.column, bins.min, bins.max, bins.bins
                )?;
                write_where(f, filter)?;
                write!(f, " GROUP BY 1 ORDER BY 1")
            }
            Query::Count { table, filter } => {
                write!(f, "SELECT COUNT(*) FROM {table}")?;
                write_where(f, filter)
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Tokenizer
// ---------------------------------------------------------------------------

/// A token, borrowing its text from the statement.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Token<'a> {
    Ident(&'a str),
    Number(f64),
    /// The text between the quotes, `''` escapes still doubled.
    Str(&'a str),
    Symbol(char),
    Concat, // ||
    Le,     // <=
    Ge,     // >=
    Ne,     // <>
    Eof,
}

impl fmt::Display for Token<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Token::Ident(w) => write!(f, "`{w}`"),
            Token::Number(x) => write!(f, "number {x}"),
            Token::Str(s) => write!(f, "string '{}'", unquote(s)),
            Token::Symbol(c) => write!(f, "`{c}`"),
            Token::Concat => write!(f, "`||`"),
            Token::Le => write!(f, "`<=`"),
            Token::Ge => write!(f, "`>=`"),
            Token::Ne => write!(f, "`<>`"),
            Token::Eof => write!(f, "end of input"),
        }
    }
}

/// A string literal's contents with its `''` escapes undone — the one
/// place parsing copies text other than a name.
fn unquote(raw: &str) -> Arc<str> {
    if raw.contains('\'') {
        Arc::from(raw.replace("''", "'"))
    } else {
        Arc::from(raw)
    }
}

/// Tokenizes `sql` into `(token, byte offset)` pairs. The lexical errors
/// are an unterminated string literal and a numeric literal that is
/// malformed or not finite.
///
/// Whitespace is [`char::is_whitespace`]; an identifier starts with an
/// alphabetic character or `_` and continues with alphanumerics and `_`;
/// every other character outside the grammar is a [`Token::Symbol`].
/// Every slice taken falls on a char boundary.
fn tokenize(sql: &str) -> EngineResult<Vec<(Token<'_>, usize)>> {
    // A token and the space after it take two bytes or more.
    let mut tokens = Vec::with_capacity(sql.len() / 2 + 1);
    let bytes = sql.as_bytes();
    let mut at = 0;
    while let Some(c) = sql[at..].chars().next() {
        // Only ever compared with ASCII, which no byte inside a
        // multi-byte character equals.
        let next = bytes.get(at + 1).copied();
        let (token, end) = match c {
            c if c.is_whitespace() => {
                at += c.len_utf8();
                continue;
            }
            '\'' => {
                // String literal with '' escaping.
                let mut end = at + 1;
                loop {
                    let Some(quote) = sql[end..].find('\'').map(|k| end + k) else {
                        return Err(EngineError::SqlParse {
                            pos: at,
                            msg: "unterminated string literal".into(),
                        });
                    };
                    if bytes.get(quote + 1) != Some(&b'\'') {
                        break (Token::Str(&sql[at + 1..quote]), quote + 1);
                    }
                    end = quote + 2;
                }
            }
            '|' if next == Some(b'|') => (Token::Concat, at + 2),
            '<' if next == Some(b'=') => (Token::Le, at + 2),
            '>' if next == Some(b'=') => (Token::Ge, at + 2),
            '<' if next == Some(b'>') => (Token::Ne, at + 2),
            c if c.is_ascii_digit() || (c == '.' && next.is_some_and(|d| d.is_ascii_digit())) => {
                let mut end = at + 1;
                while let Some(&b) = bytes.get(end) {
                    let exponent_sign =
                        (b == b'+' || b == b'-') && matches!(bytes[end - 1], b'e' | b'E');
                    if !(b.is_ascii_digit() || matches!(b, b'.' | b'e' | b'E') || exponent_sign) {
                        break;
                    }
                    end += 1;
                }
                let text = &sql[at..end];
                // An overflowing literal parses to infinity, which renders
                // as `inf` — text the parser does not read back.
                match text.parse::<f64>() {
                    Ok(x) if x.is_finite() => (Token::Number(x), end),
                    parsed => {
                        return Err(EngineError::SqlParse {
                            pos: at,
                            msg: match parsed {
                                Ok(_) => format!("numeric literal `{text}` is out of range"),
                                Err(_) => format!("malformed numeric literal `{text}`"),
                            },
                        })
                    }
                }
            }
            c if c.is_alphabetic() || c == '_' => {
                let end = sql[at..]
                    .find(|c: char| !(c.is_alphanumeric() || c == '_'))
                    .map_or(sql.len(), |k| at + k);
                (Token::Ident(&sql[at..end]), end)
            }
            other => (Token::Symbol(other), at + other.len_utf8()),
        };
        tokens.push((token, at));
        at = end;
    }
    Ok(tokens)
}

// ---------------------------------------------------------------------------
// Parser
// ---------------------------------------------------------------------------

/// The deepest filter a statement may build, in nodes from the root to a
/// leaf. The bound is on the [`Predicate`] built, not the parentheses
/// read: the renderer parenthesises every `AND`/`OR` term and every
/// `NOT`, so the text a filter renders to nests deeper than the text it
/// was parsed from, and anything this bound admits renders to text that
/// parses back. Filters this deep execute, render and drop on a 2 MiB
/// thread.
const MAX_DEPTH: usize = 128;

struct Parser<'a> {
    tokens: Vec<(Token<'a>, usize)>,
    pos: usize,
    eof_pos: usize,
    /// `NOT`s and `(`s open at the current token.
    nesting: usize,
}

impl<'a> Parser<'a> {
    fn new(sql: &'a str) -> EngineResult<Parser<'a>> {
        Ok(Parser {
            tokens: tokenize(sql)?,
            pos: 0,
            eof_pos: sql.len(),
            nesting: 0,
        })
    }

    fn peek(&self) -> Token<'a> {
        self.tokens.get(self.pos).map_or(Token::Eof, |&(t, _)| t)
    }

    /// Byte offset of the current token (end of input at EOF).
    fn at(&self) -> usize {
        self.tokens
            .get(self.pos)
            .map_or(self.eof_pos, |&(_, at)| at)
    }

    fn error(&self, msg: impl Into<String>) -> EngineError {
        EngineError::SqlParse {
            pos: self.at(),
            msg: msg.into(),
        }
    }

    fn peek_keyword(&self, kw: &str) -> bool {
        matches!(self.peek(), Token::Ident(w) if w.eq_ignore_ascii_case(kw))
    }

    fn eat_keyword(&mut self, kw: &str) -> bool {
        if self.peek_keyword(kw) {
            self.pos += 1;
            return true;
        }
        false
    }

    fn expect_keyword(&mut self, kw: &str) -> EngineResult<()> {
        if self.eat_keyword(kw) {
            Ok(())
        } else {
            Err(self.error(format!("expected `{kw}`, found {}", self.peek())))
        }
    }

    fn eat_symbol(&mut self, c: char) -> bool {
        if self.peek() == Token::Symbol(c) {
            self.pos += 1;
            return true;
        }
        false
    }

    fn expect_symbol(&mut self, c: char) -> EngineResult<()> {
        if self.eat_symbol(c) {
            Ok(())
        } else {
            Err(self.error(format!("expected `{c}`, found {}", self.peek())))
        }
    }

    fn ident(&mut self) -> EngineResult<&'a str> {
        match self.peek() {
            Token::Ident(w) => {
                self.pos += 1;
                Ok(w)
            }
            other => Err(self.error(format!("expected identifier, found {other}"))),
        }
    }

    fn number(&mut self) -> EngineResult<f64> {
        // Allow unary minus.
        let neg = self.eat_symbol('-');
        match self.peek() {
            Token::Number(x) => {
                self.pos += 1;
                Ok(if neg { -x } else { x })
            }
            other => Err(self.error(format!("expected number, found {other}"))),
        }
    }

    fn count_star(&mut self) -> EngineResult<()> {
        self.expect_keyword("COUNT")?;
        self.expect_symbol('(')?;
        if !self.eat_symbol('*') {
            return Err(self.error("expected COUNT(*)"));
        }
        self.expect_symbol(')')
    }

    /// Whether the next tokens are `name(`.
    fn peek_call(&self, name: &str) -> bool {
        self.peek_keyword(name)
            && matches!(self.tokens.get(self.pos + 1), Some((Token::Symbol('('), _)))
    }

    /// A number that must be a non-negative integer; `what` names it in
    /// the error.
    fn usize_literal(&mut self, what: &str) -> EngineResult<usize> {
        let at = self.at();
        let n = self.number()?;
        if n < 0.0 || n.fract() != 0.0 {
            return Err(EngineError::SqlParse {
                pos: at,
                msg: format!("{what} must be a non-negative integer, got {n}"),
            });
        }
        Ok(n as usize)
    }

    fn parse_query(&mut self) -> EngineResult<Query> {
        /// What the select list asks for.
        enum Shape {
            Count,
            Histogram(BinSpec),
            Select(Vec<Projection>),
        }

        self.expect_keyword("SELECT")?;
        let shape = if self.peek_call("COUNT") {
            self.count_star()?;
            Shape::Count
        } else if self.peek_call("HISTOGRAM") {
            self.pos += 2;
            let column = self.ident()?;
            self.expect_symbol(',')?;
            let min = self.number()?;
            self.expect_symbol(',')?;
            let max = self.number()?;
            self.expect_symbol(',')?;
            let bins = self.usize_literal("the bin count")?;
            self.expect_symbol(')')?;
            // The per-bin count is what a histogram returns anyway.
            if self.eat_symbol(',') {
                self.count_star()?;
            }
            Shape::Histogram(BinSpec::new(column, min, max, bins))
        } else {
            Shape::Select(self.parse_projection_list()?)
        };
        self.expect_keyword("FROM")?;
        let table = self.ident()?;
        let filter = self.parse_optional_where()?;
        let query = match shape {
            Shape::Count => Query::count(table, filter),
            Shape::Histogram(bins) => {
                // Optional GROUP BY 1 [ORDER BY 1] — positional references
                // to the binning expression, as the paper writes them.
                self.parse_positional_ref("GROUP")?;
                self.parse_positional_ref("ORDER")?;
                Query::histogram(table, bins, filter)
            }
            Shape::Select(projection) => {
                let mut limit = None;
                if self.eat_keyword("LIMIT") {
                    limit = Some(self.usize_literal("LIMIT")?);
                }
                let mut offset = 0;
                if self.eat_keyword("OFFSET") {
                    offset = self.usize_literal("OFFSET")?;
                }
                Query::select(table, projection, filter, limit, offset)
            }
        };
        self.expect_end()?;
        Ok(query)
    }

    /// `GROUP BY 1` / `ORDER BY 1` — the paper's positional spelling,
    /// accepted and dropped: a histogram is grouped and ordered by bin.
    fn parse_positional_ref(&mut self, kw: &str) -> EngineResult<()> {
        if !self.eat_keyword(kw) {
            return Ok(());
        }
        self.expect_keyword("BY")?;
        let at = self.at();
        let n = self.number()?;
        if n != 1.0 {
            return Err(EngineError::SqlParse {
                pos: at,
                msg: format!("only `{kw} BY 1` (the binning expression) is supported, got {n}"),
            });
        }
        Ok(())
    }

    fn expect_end(&mut self) -> EngineResult<()> {
        self.eat_symbol(';');
        if self.peek() == Token::Eof {
            Ok(())
        } else {
            Err(self.error(format!("unexpected trailing input: {}", self.peek())))
        }
    }

    /// The projection list; `*` (every column) is the empty list.
    fn parse_projection_list(&mut self) -> EngineResult<Vec<Projection>> {
        if self.eat_symbol('*') {
            return Ok(Vec::new());
        }
        let mut list = Vec::new();
        loop {
            list.push(self.parse_projection()?);
            if !self.eat_symbol(',') {
                break;
            }
        }
        Ok(list)
    }

    /// One projection: an identifier, optionally `|| part || ...`.
    fn parse_projection(&mut self) -> EngineResult<Projection> {
        let first_at = self.at();
        let first = self.parse_concat_part()?;
        if self.peek() != Token::Concat {
            return match first {
                ConcatPart::Column(c) => Ok(Projection::Column(c)),
                ConcatPart::Literal(_) => Err(EngineError::SqlParse {
                    pos: first_at,
                    msg: "a bare string literal is not a projection".into(),
                }),
            };
        }
        let mut parts = vec![first];
        while self.peek() == Token::Concat {
            self.pos += 1;
            parts.push(self.parse_concat_part()?);
        }
        Ok(Projection::Concat(parts))
    }

    fn parse_concat_part(&mut self) -> EngineResult<ConcatPart> {
        match self.peek() {
            Token::Ident(w) => {
                self.pos += 1;
                Ok(ConcatPart::Column(Arc::from(w)))
            }
            Token::Str(s) => {
                self.pos += 1;
                Ok(ConcatPart::Literal(unquote(s)))
            }
            other => Err(self.error(format!("expected column or string literal, found {other}"))),
        }
    }

    /// `WHERE predicate`, or [`Predicate::True`] when there is none.
    fn parse_optional_where(&mut self) -> EngineResult<Predicate> {
        if self.eat_keyword("WHERE") {
            self.parse_or()
        } else {
            Ok(Predicate::True)
        }
    }

    fn parse_or(&mut self) -> EngineResult<Predicate> {
        let mut terms = vec![self.parse_and()?];
        let at = self.at();
        while self.eat_keyword("OR") {
            terms.push(self.parse_and()?);
        }
        if terms.len() == 1 {
            return Ok(terms.pop().expect("one term"));
        }
        self.within_depth(at, Predicate::Or(terms))
    }

    /// `atom AND atom ...`, conjoined through [`Predicate::and`]: nested
    /// conjunctions flatten and `TRUE` terms drop out.
    fn parse_and(&mut self) -> EngineResult<Predicate> {
        let mut terms = vec![self.parse_atom()?];
        let at = self.at();
        while self.eat_keyword("AND") {
            terms.push(self.parse_atom()?);
        }
        if terms.len() == 1 {
            return Ok(terms.pop().expect("one term"));
        }
        self.within_depth(at, Predicate::and(terms))
    }

    fn parse_atom(&mut self) -> EngineResult<Predicate> {
        let at = self.at();
        if self.eat_keyword("NOT") {
            let inner = self.nested(at, Self::parse_atom)?;
            return self.within_depth(at, Predicate::Not(Box::new(inner)));
        }
        if self.eat_symbol('(') {
            let inner = self.nested(at, Self::parse_or)?;
            self.expect_symbol(')')?;
            return Ok(inner);
        }
        if self.eat_keyword("TRUE") {
            return Ok(Predicate::True);
        }
        let column = self.ident()?;
        if self.eat_keyword("BETWEEN") {
            let lo = self.number()?;
            self.expect_keyword("AND")?;
            let hi = self.number()?;
            return Ok(Predicate::between(column, lo, hi));
        }
        let op = match self.peek() {
            Token::Symbol('=') => CmpOp::Eq,
            Token::Ne => CmpOp::Ne,
            Token::Le => CmpOp::Le,
            Token::Ge => CmpOp::Ge,
            Token::Symbol('<') => CmpOp::Lt,
            Token::Symbol('>') => CmpOp::Gt,
            other => {
                return Err(self.error(format!("expected comparison operator, found {other}")));
            }
        };
        self.pos += 1;
        let value = match self.peek() {
            Token::Str(s) => {
                self.pos += 1;
                Value::Str(unquote(s))
            }
            _ => Value::Float(self.number()?),
        };
        Ok(Predicate::Cmp {
            column: Arc::from(column),
            op,
            value,
        })
    }

    /// Parses what the `NOT` or `(` at byte `at` opens. Rendered text
    /// opens two (`NOT (`) per level of the filter, so twice
    /// [`MAX_DEPTH`] lets everything the bound admits reparse, and bounds
    /// the recursion on redundant parentheses.
    fn nested(
        &mut self,
        at: usize,
        parse: fn(&mut Parser<'a>) -> EngineResult<Predicate>,
    ) -> EngineResult<Predicate> {
        if self.nesting == 2 * MAX_DEPTH {
            return Err(EngineError::SqlParse {
                pos: at,
                msg: format!("nested deeper than {} levels", 2 * MAX_DEPTH),
            });
        }
        self.nesting += 1;
        let inner = parse(self);
        self.nesting -= 1;
        inner
    }

    /// `filter`, built at the token at byte `at`, unless it is deeper
    /// than [`MAX_DEPTH`].
    fn within_depth(&self, at: usize, filter: Predicate) -> EngineResult<Predicate> {
        fn depth(p: &Predicate) -> usize {
            match p {
                Predicate::And(ps) | Predicate::Or(ps) => {
                    1 + ps.iter().map(depth).max().unwrap_or(0)
                }
                Predicate::Not(p) => 1 + depth(p),
                _ => 1,
            }
        }
        if depth(&filter) > MAX_DEPTH {
            return Err(EngineError::SqlParse {
                pos: at,
                msg: format!("filter deeper than {MAX_DEPTH} levels"),
            });
        }
        Ok(filter)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::column::ColumnBuilder;
    use crate::table::TableBuilder;
    use crate::{Backend, MemBackend};
    use ids_simclock::rng::{check, SimRng};

    fn backend() -> MemBackend {
        let b = MemBackend::new();
        b.database().register(
            TableBuilder::new("imdb")
                .column(
                    "title",
                    ColumnBuilder::str((0..20).map(|i| format!("m{i}"))),
                )
                .column("year", ColumnBuilder::int((0..20).map(|i| 2000 + i)))
                .column(
                    "rating",
                    ColumnBuilder::float((0..20).map(|i| i as f64 / 2.0)),
                )
                .build()
                .unwrap(),
        );
        b
    }

    #[test]
    fn parses_paginated_select() {
        let q = parse("SELECT title, rating FROM imdb LIMIT 5 OFFSET 10").unwrap();
        let out = backend().execute(&q).unwrap();
        let rows = out.result.rows().unwrap();
        assert_eq!(rows.len(), 5);
        assert_eq!(rows[0][0].as_str(), Some("m10"));
    }

    #[test]
    fn parses_the_papers_q1_projection() {
        let q =
            parse("SELECT title || '(' || year || ')', rating FROM imdb LIMIT 2 OFFSET 0").unwrap();
        let out = backend().execute(&q).unwrap();
        assert_eq!(out.result.rows().unwrap()[0][0].as_str(), Some("m0(2000)"));
    }

    #[test]
    fn parses_count_with_where() {
        let q = parse("SELECT COUNT(*) FROM imdb WHERE rating >= 5.0 AND rating <= 7.0").unwrap();
        let out = backend().execute(&q).unwrap();
        assert_eq!(out.result.scalar_count(), Some(5)); // ratings 5.0..=7.0
    }

    #[test]
    fn parses_between_and_boolean_structure() {
        let q = parse(
            "SELECT COUNT(*) FROM imdb WHERE rating BETWEEN 1 AND 3 OR (year >= 2018 AND NOT rating < 9)",
        )
        .unwrap();
        let filter = q.filter().unwrap();
        assert!(matches!(filter, Predicate::Or(_)));
        assert_eq!(filter.condition_count(), 3);
        assert!(backend().execute(&q).is_ok());
    }

    #[test]
    fn parses_histogram_with_group_order_by() {
        let q = parse(
            "SELECT HISTOGRAM(rating, 0, 10, 20), COUNT(*) FROM imdb \
             WHERE year BETWEEN 2000 AND 2019 GROUP BY 1 ORDER BY 1",
        )
        .unwrap();
        let out = backend().execute(&q).unwrap();
        let h = out.result.histogram().unwrap();
        assert_eq!(h.bins(), 21);
        assert_eq!(h.total(), 20);
    }

    #[test]
    fn parses_string_equality_and_star() {
        let q = parse("SELECT * FROM imdb WHERE title = 'm3'").unwrap();
        let out = backend().execute(&q).unwrap();
        assert_eq!(out.result.rows().unwrap().len(), 1);
    }

    #[test]
    fn parses_negative_numbers_and_ne() {
        let q = parse("SELECT COUNT(*) FROM imdb WHERE rating > -1 AND rating <> 0.5").unwrap();
        let out = backend().execute(&q).unwrap();
        assert_eq!(out.result.scalar_count(), Some(19));
    }

    #[test]
    fn escaped_quotes_in_literals() {
        let q = parse("SELECT title || ' it''s ' || year FROM imdb LIMIT 1").unwrap();
        let out = backend().execute(&q).unwrap();
        assert_eq!(
            out.result.rows().unwrap()[0][0].as_str(),
            Some("m0 it's 2000")
        );
    }

    #[test]
    fn keywords_are_case_insensitive() {
        assert!(parse("select count(*) from imdb where rating between 0 and 1").is_ok());
        // U+3000 is whitespace and `ö`, `ß` are letters, as `char` has them.
        let wide = "select\u{3000}count(*)\u{3000}from\u{3000}imdb\u{3000}where\u{3000}größe\u{3000}between\u{3000}0\u{3000}and\u{3000}1";
        assert_eq!(
            format!("{:?}", parse(wide).unwrap()),
            format!("{:?}", parse(&wide.replace('\u{3000}', " ")).unwrap())
        );
        assert!(parse(wide).unwrap().to_string().contains("größe BETWEEN"));
    }

    #[test]
    fn trailing_semicolon_is_fine() {
        assert!(parse("SELECT COUNT(*) FROM imdb;").is_ok());
    }

    #[test]
    fn round_trips_display_of_count() {
        let sql = "SELECT COUNT(*) FROM imdb WHERE rating BETWEEN 2 AND 4";
        assert_eq!(parse(sql).unwrap().to_string(), sql);
    }

    #[test]
    fn nesting_past_the_bound_is_a_parse_error_not_a_stack_overflow() {
        let head = "SELECT COUNT(*) FROM imdb WHERE ";
        for open in ["(", "NOT "] {
            let sql = format!("{head}{}rating = 1", open.repeat(100_000));
            match parse(&sql) {
                Err(EngineError::SqlParse { pos, .. }) => {
                    assert_eq!(pos, head.len() + 2 * MAX_DEPTH * open.len(), "{open:?}");
                }
                other => panic!("{open:?} x 100,000: {other:?}"),
            }
        }
    }

    #[test]
    fn a_filter_at_the_depth_bound_runs_renders_and_reparses() {
        // Levels alternate so that none flattens; the `NOT` chain renders
        // the deepest text (`NOT (` per level).
        let shapes: [fn(usize, Predicate) -> Predicate; 2] = [
            |level, p| match level % 3 {
                0 => Predicate::And(vec![Predicate::ge("year", 2001.0), p]),
                1 => Predicate::Not(Box::new(p)),
                _ => Predicate::Or(vec![p, Predicate::le("rating", 0.5)]),
            },
            |_, p| Predicate::Not(Box::new(p)),
        ];
        let b = backend();
        for shape in shapes {
            let mut filter = Predicate::between("rating", 1.0, 9.0);
            for level in 1..MAX_DEPTH {
                filter = shape(level, filter);
            }
            let q = Query::count("imdb", filter.clone());
            q.validate(&b.database()).unwrap();
            b.execute(&q).unwrap();
            let sql = q.to_string();
            assert_eq!(format!("{:?}", parse(&sql).unwrap()), format!("{q:?}"));
            // One level more is refused.
            let deeper = Query::count("imdb", shape(MAX_DEPTH, filter)).to_string();
            match parse(&deeper) {
                Err(EngineError::SqlParse { msg, .. }) => assert!(msg.contains("deeper"), "{msg}"),
                other => panic!("{other:?}"),
            }
        }
    }

    // -- satellite: typed parse errors with positions -----------------------

    /// Table-driven negative battery: every malformed input must fail
    /// with `SqlParse`, the reported byte offset must point at the
    /// offending token, and the message must name what went wrong.
    #[test]
    fn rejects_malformed_statements_with_positions() {
        struct Case {
            sql: &'static str,
            pos: usize,
            msg_contains: &'static str,
        }
        let cases = [
            // Truncated input: error lands at end of input.
            Case {
                sql: "SELECT",
                pos: 6,
                msg_contains: "expected",
            },
            Case {
                sql: "SELECT title FROM",
                pos: 17,
                msg_contains: "identifier",
            },
            Case {
                sql: "SELECT title FROM imdb WHERE rating >",
                pos: 37,
                msg_contains: "number",
            },
            Case {
                sql: "SELECT title FROM imdb WHERE rating BETWEEN 1 AND",
                pos: 49,
                msg_contains: "number",
            },
            // Wrong token in place: error points at the token.
            Case {
                sql: "SELECT FROM imdb",
                pos: 12,
                msg_contains: "expected `FROM`",
            },
            Case {
                sql: "SELECT COUNT(title) FROM imdb",
                pos: 13,
                msg_contains: "COUNT(*)",
            },
            Case {
                sql: "SELECT title FROM imdb LIMIT x",
                pos: 29,
                msg_contains: "number",
            },
            Case {
                sql: "INSERT INTO imdb VALUES (1)",
                pos: 0,
                msg_contains: "expected `SELECT`",
            },
            Case {
                sql: "SELECT title FROM imdb extra garbage",
                pos: 23,
                msg_contains: "trailing",
            },
            Case {
                sql: "SELECT HISTOGRAM(rating, 0, 10) FROM imdb",
                pos: 30,
                msg_contains: "expected `,`",
            },
            // Unbalanced parens.
            Case {
                sql: "SELECT COUNT(*) FROM imdb WHERE (rating > 1",
                pos: 43,
                msg_contains: "expected `)`",
            },
            Case {
                sql: "SELECT COUNT(* FROM imdb",
                pos: 15,
                msg_contains: "expected `)`",
            },
            // Bad literals.
            Case {
                sql: "SELECT COUNT(*) FROM imdb WHERE title = 'unterminated",
                pos: 40,
                msg_contains: "unterminated string literal",
            },
            Case {
                sql: "SELECT 'bare' FROM imdb",
                pos: 7,
                msg_contains: "bare string literal",
            },
            Case {
                sql: "SELECT HISTOGRAM(rating, 0, 10, 2.5) FROM imdb",
                pos: 32,
                msg_contains: "non-negative integer",
            },
            Case {
                sql: "SELECT title FROM imdb LIMIT -3",
                pos: 29,
                msg_contains: "non-negative integer",
            },
            // Literals that overflow to infinity, which would render as
            // `inf` and not reparse.
            Case {
                sql: "SELECT COUNT(*) FROM imdb WHERE rating < 1e999",
                pos: 41,
                msg_contains: "out of range",
            },
            Case {
                sql: "SELECT HISTOGRAM(rating, -1e999, 10, 4) FROM imdb",
                pos: 26,
                msg_contains: "out of range",
            },
            // Positional group/order refs other than 1.
            Case {
                sql: "SELECT HISTOGRAM(rating, 0, 10, 4) FROM imdb GROUP BY 2",
                pos: 54,
                msg_contains: "GROUP BY 1",
            },
            // Positions are byte offsets, not char indices (`ö`, `ß` and
            // `ü` take two bytes, `→` three), and a character outside the
            // grammar is a symbol wherever it stands.
            Case {
                sql: "SELECT größe→ FROM imdb",
                pos: 14,
                msg_contains: "expected `FROM`, found `→`",
            },
            Case {
                sql: "SELECT COUNT(*) FROM imdb WHERE größe < 1→",
                pos: 43,
                msg_contains: "trailing input: `→`",
            },
            Case {
                sql: "SELECT COUNT(*) FROM imdb WHERE größe = 'ü→'→",
                pos: 49,
                msg_contains: "trailing input: `→`",
            },
            Case {
                sql: "SELECT COUNT(*) FROM 'it''s→'",
                pos: 21,
                msg_contains: "found string 'it's→'",
            },
            Case {
                sql: "SELECT COUNT(*) FROM imdb WHERE größe = 'ü→",
                pos: 42,
                msg_contains: "unterminated string literal",
            },
            Case {
                sql: "SELECT COUNT(*) FROM imdb WHERE größe <→ 1",
                pos: 41,
                msg_contains: "expected number, found `→`",
            },
        ];
        for case in cases {
            match parse(case.sql) {
                Err(EngineError::SqlParse { pos, msg }) => {
                    assert_eq!(
                        pos, case.pos,
                        "wrong position for {:?}: got {pos} ({msg})",
                        case.sql
                    );
                    assert!(
                        msg.contains(case.msg_contains),
                        "message {msg:?} for {:?} should contain {:?}",
                        case.sql,
                        case.msg_contains
                    );
                }
                other => panic!("{:?} should fail with SqlParse, got {other:?}", case.sql),
            }
        }
    }

    #[test]
    fn validate_rejects_unknown_tables_and_columns() {
        let b = backend();
        let db = b.database();
        let validate = |sql: &str| parse(sql).unwrap().validate(&db);
        assert_eq!(
            validate("SELECT COUNT(*) FROM nope").unwrap_err(),
            EngineError::UnknownTable("nope".into())
        );
        assert!(matches!(
            validate("SELECT COUNT(*) FROM imdb WHERE missing > 1"),
            Err(EngineError::UnknownColumn { column, .. }) if column == "missing"
        ));
        assert!(matches!(
            validate("SELECT title, missing FROM imdb"),
            Err(EngineError::UnknownColumn { column, .. }) if column == "missing"
        ));
        assert!(matches!(
            validate("SELECT HISTOGRAM(title, 0, 10, 4) FROM imdb"),
            Err(EngineError::TypeMismatch { .. })
        ));
        assert!(validate(
            "SELECT HISTOGRAM(rating, 0, 10, 4), COUNT(*) FROM imdb WHERE year >= 2005"
        )
        .is_ok());
    }

    // -- seeded render → reparse round trips ---------------------------------

    /// The draws the generators below make.
    trait Draw {
        fn below(&mut self, n: usize) -> usize;
        fn pick<T: Copy>(&mut self, from: &[T]) -> T;
    }

    impl Draw for SimRng {
        fn below(&mut self, n: usize) -> usize {
            self.uniform_usize(0, n)
        }

        fn pick<T: Copy>(&mut self, from: &[T]) -> T {
            from[self.below(from.len())]
        }
    }

    const COLUMNS: &[&str] = &["x", "y", "rating", "year_built", "w_2", "FROM", "LIMIT"];
    const STRINGS: &[&str] = &["alpha", "it's", "", "(", "two words", "''"];
    const NUMBERS: &[f64] = &[
        -137.361, -8.608, -0.0, 0.0, 0.5, 8.146, 56.582, 1000.0, 1e20,
    ];
    const OPS: &[CmpOp] = &[
        CmpOp::Eq,
        CmpOp::Ne,
        CmpOp::Lt,
        CmpOp::Le,
        CmpOp::Gt,
        CmpOp::Ge,
    ];

    /// A filter in the form the parser builds: conjunctions through
    /// `Predicate::and`, disjunctions of two or more terms.
    fn gen_predicate(rng: &mut SimRng, depth: usize) -> Predicate {
        let leaf = depth == 0;
        let terms = |rng: &mut SimRng| -> Vec<Predicate> {
            (0..2 + rng.below(2))
                .map(|_| gen_predicate(rng, depth - 1))
                .collect()
        };
        match if leaf { rng.below(4) } else { rng.below(7) } {
            0 => Predicate::True,
            1 => Predicate::between(rng.pick(COLUMNS), rng.pick(NUMBERS), rng.pick(NUMBERS)),
            2 | 3 => Predicate::Cmp {
                column: rng.pick(COLUMNS).into(),
                op: rng.pick(OPS),
                value: match rng.below(2) {
                    0 => Value::Float(rng.pick(NUMBERS)),
                    _ => Value::from(rng.pick(STRINGS)),
                },
            },
            4 => Predicate::and(terms(rng)),
            5 => Predicate::Or(terms(rng)),
            _ => Predicate::Not(Box::new(gen_predicate(rng, depth - 1))),
        }
    }

    fn gen_projection(rng: &mut SimRng) -> Projection {
        if rng.below(2) == 0 {
            return Projection::column(rng.pick(COLUMNS));
        }
        let part = |rng: &mut SimRng| match rng.below(2) {
            0 => ConcatPart::Column(rng.pick(COLUMNS).into()),
            _ => ConcatPart::Literal(rng.pick(STRINGS).into()),
        };
        Projection::Concat((0..2 + rng.below(3)).map(|_| part(rng)).collect())
    }

    /// A query in the form the parser builds.
    fn gen_query(rng: &mut SimRng) -> Query {
        let filter = match rng.below(3) {
            0 => Predicate::True,
            _ => gen_predicate(rng, 3),
        };
        let table = rng.pick(&["imdb", "dataroad", "listings"]);
        match rng.below(4) {
            0 => Query::count(table, filter),
            1 => {
                let (min, max) = (rng.pick(NUMBERS), rng.pick(NUMBERS));
                let bins = BinSpec::new(rng.pick(COLUMNS), min, max, 1 + rng.below(40));
                Query::histogram(table, bins, filter)
            }
            shape => {
                let projection = match shape {
                    2 => Vec::new(),
                    _ => (0..1 + rng.below(3)).map(|_| gen_projection(rng)).collect(),
                };
                let limit = (rng.below(2) == 0).then(|| rng.below(500));
                let offset = if rng.below(2) == 0 { rng.below(500) } else { 0 };
                Query::select(table, projection, filter, limit, offset)
            }
        }
    }

    /// `query` renders to SQL that parses back to the same query.
    fn assert_round_trips(query: &Query) {
        let sql = query.to_string();
        let reparsed =
            parse(&sql).unwrap_or_else(|e| panic!("render should reparse: {sql:?}: {e}"));
        assert_eq!(
            format!("{reparsed:?}"),
            format!("{query:?}"),
            "round-trip drift on {sql:?}"
        );
    }

    /// Render → reparse is the identity on every query in parser form.
    #[test]
    fn round_trip_fuzz_render_reparse_identity() {
        check("round_trip_fuzz_render_reparse_identity", 0..500, |rng| {
            assert_round_trips(&gen_query(rng));
        });
    }

    /// The tokens hostile input is drawn from, one class per entry:
    /// keywords (each also an identifier wherever one is expected),
    /// identifiers, numbers, strings, symbols, stray non-ASCII.
    const HOSTILE_WORDS: [&[&str]; 7] = [
        &[
            "SELECT", "select", "FROM", "WHERE", "AND", "OR", "NOT", "TRUE", "BETWEEN",
        ],
        &[
            "COUNT",
            "HISTOGRAM",
            "GROUP",
            "ORDER",
            "BY",
            "LIMIT",
            "OFFSET",
        ],
        &["x", "rating", "_a1", "ünï"],
        HOSTILE_NUMBERS,
        &["'a'", "'it''s'", "''", "'", "'two words'"],
        &[
            "(", ")", ",", ";", "*", "=", "<", ">", "<=", ">=", "<>", "||", "|", "!", ".",
        ],
        &["é", "→", "\u{3000}", "🦀"],
    ];

    /// Numeric literals, well-formed or not.
    const HOSTILE_NUMBERS: &[&str] = &[
        "0", "1", "-", "-0", ".5", "2.5", "-3", "1e20", "1e999", "1e", "1.2.3",
    ];

    /// Hostile input: drawn tokens — half the time a rendered query with
    /// some numeric literals swapped and a few tokens inserted, replaced
    /// or deleted — joined into one statement. `parse` returns a query or
    /// `SqlParse`, never panics, and every query it returns round-trips.
    #[test]
    fn hostile_statements_parse_or_fail_typed_and_round_trip() {
        const CASES: u32 = 2_000;
        let mut parsed = 0;
        check(
            "hostile_statements_parse_or_fail_typed_and_round_trip",
            0..CASES,
            |rng| {
                let word = |rng: &mut SimRng| {
                    let class = rng.pick(&HOSTILE_WORDS);
                    rng.pick(class)
                };
                let base = (rng.below(2) == 0).then(|| gen_query(rng).to_string());
                let mut tokens: Vec<&str> = match &base {
                    Some(sql) => sql.split(' ').collect(),
                    None => (0..rng.below(16)).map(|_| word(rng)).collect(),
                };
                // Swapping literals keeps most statements well-formed.
                for token in &mut tokens {
                    if token.parse::<f64>().is_ok() && rng.below(2) == 0 {
                        *token = rng.pick(HOSTILE_NUMBERS);
                    }
                }
                for _ in 0..rng.below(4) {
                    let at = rng.below(tokens.len() + 1);
                    match rng.below(3) {
                        0 => tokens.insert(at, word(rng)),
                        1 if at < tokens.len() => tokens[at] = word(rng),
                        _ if at < tokens.len() => {
                            tokens.remove(at);
                        }
                        _ => tokens.push(word(rng)),
                    }
                }
                let sql = tokens.join(if rng.below(8) == 0 { "" } else { " " });
                match parse(&sql) {
                    Ok(query) => {
                        parsed += 1;
                        assert_round_trips(&query);
                    }
                    Err(EngineError::SqlParse { .. }) => {}
                    Err(other) => panic!("{sql:?} failed untyped: {other:?}"),
                }
            },
        );
        assert!(parsed >= CASES / 20, "only {parsed} of {CASES} parsed");
    }
}
