//! Wizard errors.

use std::fmt;

use muse_chase::ChaseError;
use muse_mapping::MappingError;
use muse_nr::NrError;
use muse_query::QueryError;

/// Errors raised by the Muse wizards.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WizardError {
    /// Underlying mapping problem.
    Mapping(MappingError),
    /// Underlying chase problem.
    Chase(ChaseError),
    /// Underlying query problem.
    Query(QueryError),
    /// Underlying instance problem.
    Nr(NrError),
    /// `poss(m, SK)` exceeds the FD engine's capacity.
    TooManyAttributes(usize),
    /// An internally constructed example violated the source constraints —
    /// the multi-key corner the paper defers to its full version; see
    /// DESIGN.md ("multi-key algorithm").
    UnsupportedGrouping(String),
    /// Muse-D was invoked on an unambiguous mapping.
    NotAmbiguous(String),
    /// A designer's answer was malformed (e.g. empty choice list).
    BadAnswer(String),
    /// An oracle designer was asked about a mapping/set it has no recorded
    /// intention for.
    MissingIntention { mapping: String, what: String },
    /// A probe example failed to differentiate the designer's intention:
    /// the intended chase result matched neither shown scenario.
    UndifferentiatedExample {
        mapping: String,
        sk: String,
        probed: String,
    },
    /// A scripted designer ran out of queued answers.
    ScriptExhausted(String),
    /// A constructed example's instance does not have the shape the
    /// mapping promised (missing root, non-record element, short row).
    MalformedExample(String),
    /// The execution budget truncated a direct question-construction call
    /// (`MuseD::question`). Session-level paths never surface this: they
    /// skip the question with a warning instead.
    Truncated(String),
}

impl fmt::Display for WizardError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WizardError::Mapping(e) => write!(f, "mapping error: {e}"),
            WizardError::Chase(e) => write!(f, "chase error: {e}"),
            WizardError::Query(e) => write!(f, "query error: {e}"),
            WizardError::Nr(e) => write!(f, "instance error: {e}"),
            WizardError::TooManyAttributes(n) => {
                write!(f, "poss(m, SK) has {n} attributes, exceeding the FD engine capacity")
            }
            WizardError::UnsupportedGrouping(msg) => write!(f, "unsupported grouping: {msg}"),
            WizardError::NotAmbiguous(m) => write!(f, "mapping `{m}` has no or-groups"),
            WizardError::BadAnswer(msg) => write!(f, "bad designer answer: {msg}"),
            WizardError::MissingIntention { mapping, what } => {
                write!(f, "oracle has no intention for {mapping}/{what}")
            }
            WizardError::UndifferentiatedExample { mapping, sk, probed } => write!(
                f,
                "example does not differentiate the oracle's intention for {mapping}/{sk} (probed {probed})"
            ),
            WizardError::ScriptExhausted(what) => {
                write!(f, "script exhausted ({what})")
            }
            WizardError::MalformedExample(msg) => write!(f, "malformed example: {msg}"),
            WizardError::Truncated(msg) => write!(f, "budget truncated: {msg}"),
        }
    }
}

impl std::error::Error for WizardError {}

impl From<MappingError> for WizardError {
    fn from(e: MappingError) -> Self {
        WizardError::Mapping(e)
    }
}

impl From<ChaseError> for WizardError {
    fn from(e: ChaseError) -> Self {
        WizardError::Chase(e)
    }
}

impl From<QueryError> for WizardError {
    fn from(e: QueryError) -> Self {
        WizardError::Query(e)
    }
}

impl From<NrError> for WizardError {
    fn from(e: NrError) -> Self {
        WizardError::Nr(e)
    }
}
