//! SQL front-end: tokenizer, canonical AST, binder, and lowering.
//!
//! The case studies write their workloads as SQL (Sections 6–7); this
//! module parses those statements — and the obvious variations — into a
//! canonical [`Statement`]/[`Expr`] AST that the binder, the
//! [`planner`](crate::planner), and execution all consume:
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
//! Three entry points, in increasing strictness:
//!
//! * [`parse_statement`] — text → [`Statement`]. Syntax errors are
//!   [`EngineError::SqlParse`] with the byte offset of the offending
//!   token.
//! * [`parse`] — text → logical [`Query`], catalog-free (unknown tables
//!   and columns surface at execution time, as before).
//! * [`bind`] — [`Statement`] + catalog → [`Query`], rejecting unknown
//!   tables ([`EngineError::UnknownTable`]), unknown columns
//!   ([`EngineError::UnknownColumn`]) and non-numeric histogram columns
//!   ([`EngineError::TypeMismatch`]) before anything executes.
//!
//! The AST renders back to SQL via `Display`, and the render is
//! guaranteed to reparse to an identical tree (see the seeded
//! round-trip fuzz test) — which is what lets `EXPLAIN` output and
//! shipped plan text embed statements verbatim.

use std::fmt;
use std::sync::Arc;

use crate::backend::Database;
use crate::error::{EngineError, EngineResult};
use crate::predicate::{CmpOp, Predicate};
use crate::query::{BinSpec, ConcatPart, Projection, Query, SelectSpec};
use crate::value::Value;

/// Parses one SQL statement into a logical [`Query`] without consulting
/// a catalog. Unknown tables/columns surface when the query executes.
pub fn parse(sql: &str) -> EngineResult<Query> {
    lower(&parse_statement(sql)?)
}

/// Parses one SQL statement into the canonical [`Statement`] AST.
pub fn parse_statement(sql: &str) -> EngineResult<Statement> {
    Parser::new(sql)?.parse_statement()
}

/// Binds a parsed [`Statement`] against a database catalog, producing a
/// logical [`Query`]. Unlike [`parse`], this rejects unknown tables,
/// unknown columns, and non-numeric histogram columns up front.
pub fn bind(db: &Database, stmt: &Statement) -> EngineResult<Query> {
    let query = lower(stmt)?;
    let Statement::Select(sel) = stmt;
    let table = db.table(&sel.table)?;
    match &query {
        Query::Select(spec) => {
            for proj in &spec.projection {
                for col in proj.referenced_columns() {
                    table.column(col)?;
                }
            }
            spec.filter.validate(&table)?;
        }
        Query::Count { filter, .. } => filter.validate(&table)?,
        Query::Histogram { bins, filter, .. } => {
            bins.column_in(&table)?;
            filter.validate(&table)?;
        }
        // The SQL surface never lowers to a join; nothing extra to bind.
        Query::Join(_) => {}
    }
    Ok(query)
}

// ---------------------------------------------------------------------------
// AST
// ---------------------------------------------------------------------------

/// A parsed SQL statement. The surface is SELECT-only today; the enum
/// exists so future statement kinds extend the AST rather than the
/// parser's return type.
#[derive(Debug, Clone, PartialEq)]
pub enum Statement {
    /// A `SELECT ...` statement.
    Select(SelectStatement),
}

/// The body of a `SELECT` statement, mirroring the textual clause order.
#[derive(Debug, Clone, PartialEq)]
pub struct SelectStatement {
    /// Projection list (`*`, `COUNT(*)`, `HISTOGRAM(...)`, or expressions).
    pub items: Vec<SelectItem>,
    /// Table named in `FROM`.
    pub table: String,
    /// `WHERE` clause, if present.
    pub filter: Option<Expr>,
    /// `GROUP BY 1` was present (histogram statements only).
    pub group_by_1: bool,
    /// `ORDER BY 1` was present (histogram statements only).
    pub order_by_1: bool,
    /// `LIMIT n`, if present.
    pub limit: Option<usize>,
    /// `OFFSET n`, if present.
    pub offset: Option<usize>,
}

/// One entry in a `SELECT` projection list.
#[derive(Debug, Clone, PartialEq)]
pub enum SelectItem {
    /// `*` — every column.
    Star,
    /// `COUNT(*)`.
    CountStar,
    /// `HISTOGRAM(column, min, max, bins)` — the paper's equi-width
    /// `ROUND((col - min) / width)` binning as a named aggregate.
    Histogram {
        /// Column being binned.
        column: String,
        /// Inclusive domain minimum.
        min: f64,
        /// Inclusive domain maximum.
        max: f64,
        /// Number of equi-width bins.
        bins: usize,
    },
    /// A scalar projection expression (column or `||` concatenation).
    Expr(Expr),
}

/// An expression: scalar (projections) or boolean (`WHERE` clauses).
/// One enum for both, as in the snippet-2 shape — the parser only
/// produces well-formed combinations, and `lower` rejects the rest.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// A column reference.
    Column(String),
    /// A numeric literal.
    Number(f64),
    /// A string literal.
    Str(String),
    /// `a || 'lit' || b` concatenation (parts are columns or strings).
    Concat(Vec<Expr>),
    /// The literal `TRUE`.
    True,
    /// `column BETWEEN lo AND hi` (inclusive both ends).
    Between {
        /// Column tested.
        column: String,
        /// Lower bound.
        lo: f64,
        /// Upper bound.
        hi: f64,
    },
    /// `column <op> literal` comparison.
    Cmp {
        /// Column on the left-hand side.
        column: String,
        /// Comparison operator.
        op: CmpOp,
        /// Right-hand literal ([`Expr::Number`] or [`Expr::Str`]).
        rhs: Box<Expr>,
    },
    /// Conjunction of two or more terms.
    And(Vec<Expr>),
    /// Disjunction of two or more terms.
    Or(Vec<Expr>),
    /// Negation of one term.
    Not(Box<Expr>),
}

fn quote_str(f: &mut fmt::Formatter<'_>, s: &str) -> fmt::Result {
    write!(f, "'{}'", s.replace('\'', "''"))
}

impl fmt::Display for Expr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Parenthesize a sub-term when the grammar demands an atom (or
        // an AND-level term) but the term binds looser. This is what
        // makes `render → reparse` the identity on parser output.
        fn atom(f: &mut fmt::Formatter<'_>, e: &Expr) -> fmt::Result {
            if matches!(e, Expr::And(_) | Expr::Or(_)) {
                write!(f, "({e})")
            } else {
                write!(f, "{e}")
            }
        }
        match self {
            Expr::Column(c) => write!(f, "{c}"),
            Expr::Number(x) => write!(f, "{x}"),
            Expr::Str(s) => quote_str(f, s),
            Expr::Concat(parts) => {
                for (i, p) in parts.iter().enumerate() {
                    if i > 0 {
                        write!(f, " || ")?;
                    }
                    write!(f, "{p}")?;
                }
                Ok(())
            }
            Expr::True => write!(f, "TRUE"),
            Expr::Between { column, lo, hi } => {
                write!(f, "{column} BETWEEN {lo} AND {hi}")
            }
            Expr::Cmp { column, op, rhs } => write!(f, "{column} {op} {rhs}"),
            Expr::And(terms) => {
                for (i, t) in terms.iter().enumerate() {
                    if i > 0 {
                        write!(f, " AND ")?;
                    }
                    atom(f, t)?;
                }
                Ok(())
            }
            Expr::Or(terms) => {
                for (i, t) in terms.iter().enumerate() {
                    if i > 0 {
                        write!(f, " OR ")?;
                    }
                    if matches!(t, Expr::Or(_)) {
                        write!(f, "({t})")?;
                    } else {
                        write!(f, "{t}")?;
                    }
                }
                Ok(())
            }
            Expr::Not(inner) => {
                write!(f, "NOT ")?;
                atom(f, inner)
            }
        }
    }
}

impl fmt::Display for SelectItem {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SelectItem::Star => write!(f, "*"),
            SelectItem::CountStar => write!(f, "COUNT(*)"),
            SelectItem::Histogram {
                column,
                min,
                max,
                bins,
            } => write!(f, "HISTOGRAM({column}, {min}, {max}, {bins})"),
            SelectItem::Expr(e) => write!(f, "{e}"),
        }
    }
}

impl fmt::Display for SelectStatement {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "SELECT ")?;
        for (i, item) in self.items.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{item}")?;
        }
        write!(f, " FROM {}", self.table)?;
        if let Some(filter) = &self.filter {
            write!(f, " WHERE {filter}")?;
        }
        if self.group_by_1 {
            write!(f, " GROUP BY 1")?;
        }
        if self.order_by_1 {
            write!(f, " ORDER BY 1")?;
        }
        if let Some(limit) = self.limit {
            write!(f, " LIMIT {limit}")?;
        }
        if let Some(offset) = self.offset {
            write!(f, " OFFSET {offset}")?;
        }
        Ok(())
    }
}

impl fmt::Display for Statement {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let Statement::Select(s) = self;
        write!(f, "{s}")
    }
}

// ---------------------------------------------------------------------------
// Lowering: Statement → Query
// ---------------------------------------------------------------------------

fn lower_error(msg: impl Into<String>) -> EngineError {
    EngineError::SqlParse {
        pos: 0,
        msg: msg.into(),
    }
}

fn lower_predicate(expr: &Expr) -> EngineResult<Predicate> {
    match expr {
        Expr::True => Ok(Predicate::True),
        Expr::Between { column, lo, hi } => Ok(Predicate::between(column.as_str(), *lo, *hi)),
        Expr::Cmp { column, op, rhs } => {
            let value = match rhs.as_ref() {
                Expr::Number(x) => Value::Float(*x),
                Expr::Str(s) => Value::from(s.clone()),
                other => return Err(lower_error(format!("bad comparison operand: {other}"))),
            };
            Ok(Predicate::Cmp {
                column: Arc::from(column.as_str()),
                op: *op,
                value,
            })
        }
        Expr::And(terms) => Ok(Predicate::and(
            terms
                .iter()
                .map(lower_predicate)
                .collect::<EngineResult<Vec<_>>>()?,
        )),
        Expr::Or(terms) => Ok(Predicate::Or(
            terms
                .iter()
                .map(lower_predicate)
                .collect::<EngineResult<Vec<_>>>()?,
        )),
        Expr::Not(inner) => Ok(Predicate::Not(Box::new(lower_predicate(inner)?))),
        other => Err(lower_error(format!("not a boolean expression: {other}"))),
    }
}

fn lower_projection(expr: &Expr) -> EngineResult<Projection> {
    match expr {
        Expr::Column(c) => Ok(Projection::Column(Arc::from(c.as_str()))),
        Expr::Concat(parts) => {
            let parts = parts
                .iter()
                .map(|p| match p {
                    Expr::Column(c) => Ok(ConcatPart::Column(Arc::from(c.as_str()))),
                    Expr::Str(s) => Ok(ConcatPart::Literal(Arc::from(s.as_str()))),
                    other => Err(lower_error(format!("bad concat part: {other}"))),
                })
                .collect::<EngineResult<Vec<_>>>()?;
            Ok(Projection::Concat(parts))
        }
        other => Err(lower_error(format!("not a projection: {other}"))),
    }
}

/// Lowers a [`Statement`] to the logical [`Query`] the executor runs.
fn lower(stmt: &Statement) -> EngineResult<Query> {
    let Statement::Select(sel) = stmt;
    let filter = match &sel.filter {
        Some(expr) => lower_predicate(expr)?,
        None => Predicate::True,
    };
    match sel.items.as_slice() {
        [SelectItem::CountStar] => Ok(Query::count(sel.table.as_str(), filter)),
        [SelectItem::Histogram {
            column,
            min,
            max,
            bins,
        }] => Ok(Query::histogram(
            sel.table.as_str(),
            BinSpec::new(column.as_str(), *min, *max, *bins),
            filter,
        )),
        [SelectItem::Histogram {
            column,
            min,
            max,
            bins,
        }, SelectItem::CountStar] => Ok(Query::histogram(
            sel.table.as_str(),
            BinSpec::new(column.as_str(), *min, *max, *bins),
            filter,
        )),
        [SelectItem::Star] => Ok(Query::Select(SelectSpec {
            table: Arc::from(sel.table.as_str()),
            projection: Vec::new(),
            filter,
            limit: sel.limit,
            offset: sel.offset.unwrap_or(0),
        })),
        items => {
            let projection = items
                .iter()
                .map(|item| match item {
                    SelectItem::Expr(e) => lower_projection(e),
                    other => Err(lower_error(format!(
                        "`{other}` cannot be mixed into a projection list"
                    ))),
                })
                .collect::<EngineResult<Vec<_>>>()?;
            Ok(Query::Select(SelectSpec {
                table: Arc::from(sel.table.as_str()),
                projection,
                filter,
                limit: sel.limit,
                offset: sel.offset.unwrap_or(0),
            }))
        }
    }
}

// ---------------------------------------------------------------------------
// Tokenizer
// ---------------------------------------------------------------------------

#[derive(Debug, Clone, PartialEq)]
enum Token {
    Ident(String),
    Number(f64),
    Str(String),
    Symbol(char),
    Concat, // ||
    Le,     // <=
    Ge,     // >=
    Ne,     // <>
    Star,
    Eof,
}

impl fmt::Display for Token {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Token::Ident(w) => write!(f, "`{w}`"),
            Token::Number(x) => write!(f, "number {x}"),
            Token::Str(s) => write!(f, "string '{s}'"),
            Token::Symbol(c) => write!(f, "`{c}`"),
            Token::Concat => write!(f, "`||`"),
            Token::Le => write!(f, "`<=`"),
            Token::Ge => write!(f, "`>=`"),
            Token::Ne => write!(f, "`<>`"),
            Token::Star => write!(f, "`*`"),
            Token::Eof => write!(f, "end of input"),
        }
    }
}

/// Tokenizes `sql` into `(token, byte offset)` pairs. The only lexical
/// error is an unterminated string literal.
fn tokenize(sql: &str) -> EngineResult<Vec<(Token, usize)>> {
    let mut tokens = Vec::new();
    let chars: Vec<(usize, char)> = sql.char_indices().collect();
    let mut i = 0;
    while i < chars.len() {
        let (at, c) = chars[i];
        match c {
            c if c.is_whitespace() => i += 1,
            '\'' => {
                // String literal with '' escaping.
                let mut s = String::new();
                let mut closed = false;
                i += 1;
                while i < chars.len() {
                    if chars[i].1 == '\'' {
                        if chars.get(i + 1).map(|&(_, c)| c) == Some('\'') {
                            s.push('\'');
                            i += 2;
                            continue;
                        }
                        closed = true;
                        break;
                    }
                    s.push(chars[i].1);
                    i += 1;
                }
                if !closed {
                    return Err(EngineError::SqlParse {
                        pos: at,
                        msg: "unterminated string literal".into(),
                    });
                }
                i += 1; // closing quote
                tokens.push((Token::Str(s), at));
            }
            '|' if chars.get(i + 1).map(|&(_, c)| c) == Some('|') => {
                tokens.push((Token::Concat, at));
                i += 2;
            }
            '<' if chars.get(i + 1).map(|&(_, c)| c) == Some('=') => {
                tokens.push((Token::Le, at));
                i += 2;
            }
            '>' if chars.get(i + 1).map(|&(_, c)| c) == Some('=') => {
                tokens.push((Token::Ge, at));
                i += 2;
            }
            '<' if chars.get(i + 1).map(|&(_, c)| c) == Some('>') => {
                tokens.push((Token::Ne, at));
                i += 2;
            }
            '*' => {
                tokens.push((Token::Star, at));
                i += 1;
            }
            c if c.is_ascii_digit()
                || (c == '.' && chars.get(i + 1).is_some_and(|&(_, d)| d.is_ascii_digit())) =>
            {
                let start = i;
                while i < chars.len()
                    && (chars[i].1.is_ascii_digit()
                        || chars[i].1 == '.'
                        || chars[i].1 == 'e'
                        || chars[i].1 == 'E'
                        || ((chars[i].1 == '+' || chars[i].1 == '-')
                            && matches!(
                                chars.get(i.wrapping_sub(1)).map(|&(_, c)| c),
                                Some('e' | 'E')
                            )))
                {
                    i += 1;
                }
                let text: String = chars[start..i].iter().map(|&(_, c)| c).collect();
                match text.parse::<f64>() {
                    Ok(x) => tokens.push((Token::Number(x), at)),
                    Err(_) => {
                        return Err(EngineError::SqlParse {
                            pos: at,
                            msg: format!("malformed numeric literal `{text}`"),
                        })
                    }
                }
            }
            c if c.is_alphabetic() || c == '_' => {
                let start = i;
                while i < chars.len() && (chars[i].1.is_alphanumeric() || chars[i].1 == '_') {
                    i += 1;
                }
                tokens.push((
                    Token::Ident(chars[start..i].iter().map(|&(_, c)| c).collect()),
                    at,
                ));
            }
            other => {
                tokens.push((Token::Symbol(other), at));
                i += 1;
            }
        }
    }
    Ok(tokens)
}

// ---------------------------------------------------------------------------
// Parser
// ---------------------------------------------------------------------------

struct Parser {
    tokens: Vec<(Token, usize)>,
    pos: usize,
    eof_pos: usize,
}

impl Parser {
    fn new(sql: &str) -> EngineResult<Parser> {
        Ok(Parser {
            tokens: tokenize(sql)?,
            pos: 0,
            eof_pos: sql.len(),
        })
    }

    fn peek(&self) -> &Token {
        self.tokens.get(self.pos).map_or(&Token::Eof, |(t, _)| t)
    }

    fn peek2(&self) -> &Token {
        self.tokens
            .get(self.pos + 1)
            .map_or(&Token::Eof, |(t, _)| t)
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
        if self.peek() == &Token::Symbol(c) {
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

    fn ident(&mut self) -> EngineResult<String> {
        match self.peek().clone() {
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
        match self.peek().clone() {
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
        if !matches!(self.peek(), Token::Star) {
            return Err(self.error("expected COUNT(*)"));
        }
        self.pos += 1;
        self.expect_symbol(')')
    }

    fn parse_statement(&mut self) -> EngineResult<Statement> {
        self.expect_keyword("SELECT")?;

        // COUNT(*) → count statement.
        if self.peek_keyword("COUNT") && self.peek2() == &Token::Symbol('(') {
            self.count_star()?;
            self.expect_keyword("FROM")?;
            let table = self.ident()?;
            let filter = self.parse_optional_where()?;
            self.expect_end()?;
            return Ok(Statement::Select(SelectStatement {
                items: vec![SelectItem::CountStar],
                table,
                filter,
                group_by_1: false,
                order_by_1: false,
                limit: None,
                offset: None,
            }));
        }

        // HISTOGRAM(col, min, max, bins) [, COUNT(*)] → histogram statement.
        if self.peek_keyword("HISTOGRAM") && self.peek2() == &Token::Symbol('(') {
            self.pos += 1;
            self.expect_symbol('(')?;
            let column = self.ident()?;
            self.expect_symbol(',')?;
            let min = self.number()?;
            self.expect_symbol(',')?;
            let max = self.number()?;
            self.expect_symbol(',')?;
            let bins_at = self.at();
            let bins_raw = self.number()?;
            if bins_raw < 0.0 || bins_raw.fract() != 0.0 {
                return Err(EngineError::SqlParse {
                    pos: bins_at,
                    msg: format!("bin count must be a non-negative integer, got {bins_raw}"),
                });
            }
            self.expect_symbol(')')?;
            let mut items = vec![SelectItem::Histogram {
                column,
                min,
                max,
                bins: bins_raw as usize,
            }];
            if self.eat_symbol(',') {
                self.count_star()?;
                items.push(SelectItem::CountStar);
            }
            self.expect_keyword("FROM")?;
            let table = self.ident()?;
            let filter = self.parse_optional_where()?;
            // Optional GROUP BY 1 [ORDER BY 1] — positional references
            // to the binning expression, as the paper writes them.
            let group_by_1 = self.parse_positional_ref("GROUP")?;
            let order_by_1 = self.parse_positional_ref("ORDER")?;
            self.expect_end()?;
            return Ok(Statement::Select(SelectStatement {
                items,
                table,
                filter,
                group_by_1,
                order_by_1,
                limit: None,
                offset: None,
            }));
        }

        // Plain select with a projection list.
        let items = self.parse_projection_list()?;
        self.expect_keyword("FROM")?;
        let table = self.ident()?;
        let filter = self.parse_optional_where()?;
        let mut limit = None;
        let mut offset = None;
        if self.eat_keyword("LIMIT") {
            let at = self.at();
            let n = self.number()?;
            limit = Some(usize_literal(n, at, "LIMIT")?);
        }
        if self.eat_keyword("OFFSET") {
            let at = self.at();
            let n = self.number()?;
            offset = Some(usize_literal(n, at, "OFFSET")?);
        }
        self.expect_end()?;
        Ok(Statement::Select(SelectStatement {
            items,
            table,
            filter,
            group_by_1: false,
            order_by_1: false,
            limit,
            offset,
        }))
    }

    /// `GROUP BY 1` / `ORDER BY 1` — the paper's positional spelling.
    fn parse_positional_ref(&mut self, kw: &str) -> EngineResult<bool> {
        if !self.eat_keyword(kw) {
            return Ok(false);
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
        Ok(true)
    }

    fn expect_end(&mut self) -> EngineResult<()> {
        self.eat_symbol(';');
        if self.peek() == &Token::Eof {
            Ok(())
        } else {
            Err(self.error(format!("unexpected trailing input: {}", self.peek())))
        }
    }

    fn parse_projection_list(&mut self) -> EngineResult<Vec<SelectItem>> {
        if matches!(self.peek(), Token::Star) {
            self.pos += 1;
            return Ok(vec![SelectItem::Star]); // `*` = all columns
        }
        let mut list = Vec::new();
        loop {
            list.push(SelectItem::Expr(self.parse_projection()?));
            if !self.eat_symbol(',') {
                break;
            }
        }
        Ok(list)
    }

    /// One projection: an identifier, optionally `|| expr || ...`.
    fn parse_projection(&mut self) -> EngineResult<Expr> {
        let first_at = self.at();
        let first = self.parse_concat_part()?;
        if self.peek() != &Token::Concat {
            return match first {
                Expr::Column(_) => Ok(first),
                _ => Err(EngineError::SqlParse {
                    pos: first_at,
                    msg: "a bare string literal is not a projection".into(),
                }),
            };
        }
        let mut parts = vec![first];
        while self.peek() == &Token::Concat {
            self.pos += 1;
            parts.push(self.parse_concat_part()?);
        }
        Ok(Expr::Concat(parts))
    }

    fn parse_concat_part(&mut self) -> EngineResult<Expr> {
        match self.peek().clone() {
            Token::Ident(w) => {
                self.pos += 1;
                Ok(Expr::Column(w))
            }
            Token::Str(s) => {
                self.pos += 1;
                Ok(Expr::Str(s))
            }
            other => Err(self.error(format!("expected column or string literal, found {other}"))),
        }
    }

    fn parse_optional_where(&mut self) -> EngineResult<Option<Expr>> {
        if self.eat_keyword("WHERE") {
            Ok(Some(self.parse_or()?))
        } else {
            Ok(None)
        }
    }

    fn parse_or(&mut self) -> EngineResult<Expr> {
        let mut terms = vec![self.parse_and()?];
        while self.eat_keyword("OR") {
            terms.push(self.parse_and()?);
        }
        Ok(if terms.len() == 1 {
            terms.pop().expect("one term")
        } else {
            Expr::Or(terms)
        })
    }

    fn parse_and(&mut self) -> EngineResult<Expr> {
        let mut terms = vec![self.parse_atom()?];
        while self.eat_keyword("AND") {
            terms.push(self.parse_atom()?);
        }
        Ok(if terms.len() == 1 {
            terms.pop().expect("one term")
        } else {
            Expr::And(terms)
        })
    }

    fn parse_atom(&mut self) -> EngineResult<Expr> {
        if self.eat_keyword("NOT") {
            return Ok(Expr::Not(Box::new(self.parse_atom()?)));
        }
        if self.eat_symbol('(') {
            let inner = self.parse_or()?;
            self.expect_symbol(')')?;
            return Ok(inner);
        }
        if self.eat_keyword("TRUE") {
            return Ok(Expr::True);
        }
        let column = self.ident()?;
        if self.eat_keyword("BETWEEN") {
            let lo = self.number()?;
            self.expect_keyword("AND")?;
            let hi = self.number()?;
            return Ok(Expr::Between { column, lo, hi });
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
        let rhs = match self.peek().clone() {
            Token::Str(s) => {
                self.pos += 1;
                Expr::Str(s)
            }
            _ => Expr::Number(self.number()?),
        };
        Ok(Expr::Cmp {
            column,
            op,
            rhs: Box::new(rhs),
        })
    }
}

fn usize_literal(n: f64, at: usize, clause: &str) -> EngineResult<usize> {
    if n < 0.0 || n.fract() != 0.0 {
        return Err(EngineError::SqlParse {
            pos: at,
            msg: format!("{clause} takes a non-negative integer, got {n}"),
        });
    }
    Ok(n as usize)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::column::ColumnBuilder;
    use crate::table::TableBuilder;
    use crate::{Backend, MemBackend};

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
    }

    #[test]
    fn trailing_semicolon_is_fine() {
        assert!(parse("SELECT COUNT(*) FROM imdb;").is_ok());
    }

    #[test]
    fn round_trips_display_of_count() {
        // parse → display → contains the same pieces.
        let q = parse("SELECT COUNT(*) FROM imdb WHERE rating BETWEEN 2 AND 4").unwrap();
        let shown = q.to_string();
        assert!(shown.contains("COUNT(*)"));
        assert!(shown.contains("BETWEEN 2 AND 4"));
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
            // Positional group/order refs other than 1.
            Case {
                sql: "SELECT HISTOGRAM(rating, 0, 10, 4) FROM imdb GROUP BY 2",
                pos: 54,
                msg_contains: "GROUP BY 1",
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
    fn binder_rejects_unknown_tables_and_columns() {
        let b = backend();
        let db = b.database();
        let stmt = parse_statement("SELECT COUNT(*) FROM nope").unwrap();
        assert_eq!(
            bind(&db, &stmt).unwrap_err(),
            EngineError::UnknownTable("nope".into())
        );
        let stmt = parse_statement("SELECT COUNT(*) FROM imdb WHERE missing > 1").unwrap();
        assert!(matches!(
            bind(&db, &stmt),
            Err(EngineError::UnknownColumn { column, .. }) if column == "missing"
        ));
        let stmt = parse_statement("SELECT title, missing FROM imdb").unwrap();
        assert!(matches!(
            bind(&db, &stmt),
            Err(EngineError::UnknownColumn { column, .. }) if column == "missing"
        ));
        let stmt = parse_statement("SELECT HISTOGRAM(title, 0, 10, 4) FROM imdb").unwrap();
        assert!(matches!(
            bind(&db, &stmt),
            Err(EngineError::TypeMismatch { .. })
        ));
        // A well-formed statement binds to the same query `parse` gives.
        let sql = "SELECT HISTOGRAM(rating, 0, 10, 4), COUNT(*) FROM imdb WHERE year >= 2005";
        let stmt = parse_statement(sql).unwrap();
        // Query carries no PartialEq (predicates hold f64), so compare
        // the rendered logical queries.
        assert_eq!(
            bind(&db, &stmt).unwrap().to_string(),
            parse(sql).unwrap().to_string()
        );
    }

    // -- satellite: seeded render → reparse round-trip fuzz ------------------

    struct Rng(u64);

    impl Rng {
        fn next(&mut self) -> u64 {
            // splitmix64: deterministic, dependency-free.
            self.0 = self.0.wrapping_add(0x9e3779b97f4a7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
            z ^ (z >> 31)
        }

        fn below(&mut self, n: u64) -> u64 {
            self.next() % n
        }

        fn column(&mut self) -> String {
            const COLS: [&str; 5] = ["x", "y", "rating", "year_built", "w_2"];
            COLS[self.below(COLS.len() as u64) as usize].to_string()
        }

        fn string(&mut self) -> String {
            const STRS: [&str; 5] = ["alpha", "it's", "", "(", "two words"];
            STRS[self.below(STRS.len() as u64) as usize].to_string()
        }

        fn num(&mut self) -> f64 {
            const NUMS: [f64; 7] = [-137.361, -8.608, 0.0, 0.5, 8.146, 56.582, 1000.0];
            NUMS[self.below(NUMS.len() as u64) as usize]
        }

        fn op(&mut self) -> CmpOp {
            const OPS: [CmpOp; 6] = [
                CmpOp::Eq,
                CmpOp::Ne,
                CmpOp::Lt,
                CmpOp::Le,
                CmpOp::Gt,
                CmpOp::Ge,
            ];
            OPS[self.below(OPS.len() as u64) as usize]
        }
    }

    fn gen_bool_expr(rng: &mut Rng, depth: usize) -> Expr {
        let leaf = depth == 0;
        match if leaf { rng.below(4) } else { rng.below(7) } {
            0 => Expr::True,
            1 => Expr::Between {
                column: rng.column(),
                lo: rng.num(),
                hi: rng.num(),
            },
            2 => Expr::Cmp {
                column: rng.column(),
                op: rng.op(),
                rhs: Box::new(Expr::Number(rng.num())),
            },
            3 => Expr::Cmp {
                column: rng.column(),
                op: if rng.below(2) == 0 {
                    CmpOp::Eq
                } else {
                    CmpOp::Ne
                },
                rhs: Box::new(Expr::Str(rng.string())),
            },
            4 => Expr::And(
                (0..2 + rng.below(2))
                    .map(|_| gen_bool_expr(rng, depth - 1))
                    .collect(),
            ),
            5 => Expr::Or(
                (0..2 + rng.below(2))
                    .map(|_| gen_bool_expr(rng, depth - 1))
                    .collect(),
            ),
            _ => Expr::Not(Box::new(gen_bool_expr(rng, depth - 1))),
        }
    }

    fn gen_projection(rng: &mut Rng) -> Expr {
        if rng.below(2) == 0 {
            Expr::Column(rng.column())
        } else {
            Expr::Concat(
                (0..2 + rng.below(3))
                    .map(|_| {
                        if rng.below(2) == 0 {
                            Expr::Column(rng.column())
                        } else {
                            Expr::Str(rng.string())
                        }
                    })
                    .collect(),
            )
        }
    }

    fn gen_statement(rng: &mut Rng) -> Statement {
        let filter = if rng.below(3) == 0 {
            None
        } else {
            Some(gen_bool_expr(rng, 3))
        };
        let table = ["imdb", "dataroad", "listings"][rng.below(3) as usize].to_string();
        let stmt = match rng.below(4) {
            0 => SelectStatement {
                items: vec![SelectItem::CountStar],
                table,
                filter,
                group_by_1: false,
                order_by_1: false,
                limit: None,
                offset: None,
            },
            1 => {
                let mut items = vec![SelectItem::Histogram {
                    column: rng.column(),
                    min: rng.num(),
                    max: rng.num(),
                    bins: 1 + rng.below(40) as usize,
                }];
                if rng.below(2) == 0 {
                    items.push(SelectItem::CountStar);
                }
                let group_by_1 = rng.below(2) == 0;
                SelectStatement {
                    items,
                    table,
                    filter,
                    group_by_1,
                    // `ORDER BY 1` only renders after `GROUP BY 1` in
                    // the paper's queries, but the grammar allows both
                    // independently.
                    order_by_1: rng.below(2) == 0,
                    limit: None,
                    offset: None,
                }
            }
            2 => SelectStatement {
                items: vec![SelectItem::Star],
                table,
                filter,
                group_by_1: false,
                order_by_1: false,
                limit: (rng.below(2) == 0).then(|| rng.below(500) as usize),
                offset: (rng.below(2) == 0).then(|| rng.below(500) as usize),
            },
            _ => SelectStatement {
                items: (0..1 + rng.below(3))
                    .map(|_| SelectItem::Expr(gen_projection(rng)))
                    .collect(),
                table,
                filter,
                group_by_1: false,
                order_by_1: false,
                limit: (rng.below(2) == 0).then(|| rng.below(500) as usize),
                offset: (rng.below(2) == 0).then(|| rng.below(500) as usize),
            },
        };
        Statement::Select(stmt)
    }

    /// Render → reparse must be the identity on every generated AST.
    #[test]
    fn round_trip_fuzz_render_reparse_identity() {
        let mut rng = Rng(0x5EED_CAFE);
        for case in 0..500 {
            let stmt = gen_statement(&mut rng);
            let sql = stmt.to_string();
            let reparsed = parse_statement(&sql)
                .unwrap_or_else(|e| panic!("case {case}: render should reparse: {sql:?}: {e}"));
            assert_eq!(reparsed, stmt, "case {case}: round-trip drift on {sql:?}");
        }
    }
}
