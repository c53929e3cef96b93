//! Error type for the nested relational model.

use std::fmt;

use crate::schema::SetPath;

/// Errors raised while building or validating schemas and instances.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NrError {
    /// A path did not resolve to anything in the schema.
    UnknownPath(String),
    /// A path resolved to a type of the wrong kind (e.g. expected a set).
    NotASet(String),
    /// A record label was not found in the record at the given path.
    UnknownField { path: String, field: String },
    /// A tuple's arity did not match its record type.
    ArityMismatch {
        path: String,
        expected: usize,
        got: usize,
    },
    /// A value had the wrong type for its field.
    TypeMismatch { path: String, field: String },
    /// A key constraint was violated by an instance.
    KeyViolation { set: SetPath, key: Vec<String> },
    /// A functional dependency was violated by an instance.
    FdViolation { set: SetPath, lhs: Vec<String> },
    /// A referential constraint was violated by an instance.
    ReferentialViolation { from: SetPath, to: SetPath },
    /// A constraint mentions an attribute that the set does not have.
    BadConstraint { set: SetPath, attr: String },
    /// A set id was used with an instance that does not know it.
    UnknownSetId,
    /// Duplicate root or field label in a schema.
    DuplicateLabel(String),
    /// Schema text nests set/choice types deeper than the parser's limit.
    NestingTooDeep { limit: usize },
}

impl fmt::Display for NrError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NrError::UnknownPath(p) => write!(f, "unknown path `{p}`"),
            NrError::NotASet(p) => write!(f, "path `{p}` does not denote a set type"),
            NrError::UnknownField { path, field } => {
                write!(f, "record at `{path}` has no field `{field}`")
            }
            NrError::ArityMismatch {
                path,
                expected,
                got,
            } => {
                write!(f, "tuple for `{path}` has arity {got}, expected {expected}")
            }
            NrError::TypeMismatch { path, field } => {
                write!(f, "value for `{path}.{field}` has the wrong type")
            }
            NrError::KeyViolation { set, key } => {
                write!(f, "key ({}) violated in set `{set}`", key.join(","))
            }
            NrError::FdViolation { set, lhs } => {
                write!(
                    f,
                    "functional dependency with lhs ({}) violated in `{set}`",
                    lhs.join(",")
                )
            }
            NrError::ReferentialViolation { from, to } => {
                write!(f, "referential constraint from `{from}` to `{to}` violated")
            }
            NrError::BadConstraint { set, attr } => {
                write!(
                    f,
                    "constraint on `{set}` mentions unknown attribute `{attr}`"
                )
            }
            NrError::UnknownSetId => write!(f, "set id does not belong to this instance"),
            NrError::DuplicateLabel(l) => write!(f, "duplicate label `{l}`"),
            NrError::NestingTooDeep { limit } => {
                write!(f, "schema types nest deeper than {limit} levels")
            }
        }
    }
}

impl std::error::Error for NrError {}
