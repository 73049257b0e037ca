//! Engine error type.

use std::fmt;

/// Result alias for engine operations.
pub type EngineResult<T> = Result<T, EngineError>;

/// Errors raised while building tables or executing queries.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EngineError {
    /// Referenced table is not registered in the database.
    UnknownTable(String),
    /// Referenced column does not exist in the table.
    UnknownColumn {
        /// Table searched.
        table: String,
        /// Missing column.
        column: String,
    },
    /// Column lengths disagree while building a table.
    RaggedColumns {
        /// Table being built.
        table: String,
        /// Expected row count (from the first column).
        expected: usize,
        /// Offending column and its length.
        got: (String, usize),
    },
    /// A table was built with no columns.
    EmptyTable(String),
    /// Duplicate column name while building a table.
    DuplicateColumn(String),
    /// Operation applied to a column of the wrong type.
    TypeMismatch {
        /// Column involved.
        column: String,
        /// What the operation expected.
        expected: &'static str,
    },
    /// Histogram bin specification is degenerate (zero bins or width).
    InvalidBinSpec(String),
    /// SQL text failed to parse. `pos` is the byte offset into the
    /// statement where the parser gave up.
    SqlParse {
        /// Byte offset of the offending token in the input.
        pos: usize,
        /// What the parser expected or rejected.
        msg: String,
    },
    /// The scheduler rejected or dropped the query (e.g. shut down).
    SchedulerClosed,
    /// The backend failed transiently (injected fault, dropped
    /// connection); the query may succeed if retried.
    TransientFailure {
        /// What failed ("fault injection", "connection reset", ...).
        reason: String,
    },
}

impl EngineError {
    /// `true` for failures that a retry policy is allowed to retry.
    pub fn is_transient(&self) -> bool {
        matches!(self, EngineError::TransientFailure { .. })
    }
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::UnknownTable(t) => write!(f, "unknown table `{t}`"),
            EngineError::UnknownColumn { table, column } => {
                write!(f, "unknown column `{column}` in table `{table}`")
            }
            EngineError::RaggedColumns {
                table,
                expected,
                got: (name, len),
            } => write!(
                f,
                "column `{name}` in table `{table}` has {len} rows, expected {expected}"
            ),
            EngineError::EmptyTable(t) => write!(f, "table `{t}` has no columns"),
            EngineError::DuplicateColumn(c) => write!(f, "duplicate column `{c}`"),
            EngineError::TypeMismatch { column, expected } => {
                write!(f, "column `{column}`: expected {expected}")
            }
            EngineError::InvalidBinSpec(why) => write!(f, "invalid bin spec: {why}"),
            EngineError::SqlParse { pos, msg } => {
                write!(f, "SQL parse error at byte {pos}: {msg}")
            }
            EngineError::SchedulerClosed => write!(f, "query scheduler is closed"),
            EngineError::TransientFailure { reason } => {
                write!(f, "transient backend failure: {reason}")
            }
        }
    }
}

impl std::error::Error for EngineError {}
