//! Workspace-wide typed diagnostics.
//!
//! Every fallible stage of the pipeline — MatrixMarket parsing, kernel
//! specification, sparsification codegen, tensor storage construction,
//! post-pass IR verification, operand binding, and interpretation —
//! reports an [`AsapError`] instead of panicking or returning a bare
//! `String`. Each variant is one stage, so callers can match on *where*
//! a failure happened (e.g. the bench sweep reports parse errors per
//! matrix, and `asap-core`'s graceful-degradation path falls back to the
//! baseline kernel only on codegen/verify failures).
//!
//! The error carries location data where the stage has any: parse errors
//! carry a 1-based line number, interpreter traps carry the static op id
//! of the faulting op (see [`InterpError::At`](crate::mem::InterpError)).

use crate::budget::{BudgetError, Resource};
use crate::mem::InterpError;
use crate::ops::OpId;
use crate::verify::VerifyError;
use std::fmt;

/// A typed pipeline error: which stage failed, and why.
#[derive(Debug, Clone, PartialEq)]
pub enum AsapError {
    /// Input text could not be parsed. `line` is 1-based.
    Parse { line: usize, message: String },
    /// The kernel specification is self-inconsistent.
    Spec { message: String },
    /// Sparsification / code generation rejected the (spec, format,
    /// width) combination.
    Codegen { message: String },
    /// The generated or transformed IR failed verification.
    Verify { message: String },
    /// Tensor storage construction or invariant checking failed.
    Storage { message: String },
    /// Runtime operands do not match the compiled kernel (wrong arity,
    /// shape, or value kind).
    Binding { message: String },
    /// The interpreter trapped (out-of-bounds demand access, type
    /// mismatch, division by zero, ...). Carries the faulting op id when
    /// known.
    Interp { error: InterpError },
    /// A differential oracle found diverging results.
    Mismatch { message: String },
    /// An OS-level I/O failure (file system, not format).
    Io { message: String },
    /// Malformed JSON input (the serving layer's request bodies, the
    /// checkpoint journal's resume path). Carries a byte offset into the
    /// rejected text when the parser knows one.
    Json { offset: usize, message: String },
    /// A resource budget (fuel, wall-clock deadline, allocation ceiling,
    /// or cancellation) was exceeded. `loc` is the governing loop op when
    /// the trap fired inside a run; `None` for binding-time ceilings.
    /// This is governance, not failure: a budget trap is the expected,
    /// typed outcome of running hostile input under limits.
    BudgetExceeded {
        resource: Resource,
        spent: u64,
        limit: u64,
        loc: Option<OpId>,
    },
}

impl AsapError {
    pub fn parse(line: usize, message: impl Into<String>) -> AsapError {
        AsapError::Parse {
            line,
            message: message.into(),
        }
    }

    pub fn spec(message: impl Into<String>) -> AsapError {
        AsapError::Spec {
            message: message.into(),
        }
    }

    pub fn codegen(message: impl Into<String>) -> AsapError {
        AsapError::Codegen {
            message: message.into(),
        }
    }

    pub fn verify(message: impl Into<String>) -> AsapError {
        AsapError::Verify {
            message: message.into(),
        }
    }

    pub fn storage(message: impl Into<String>) -> AsapError {
        AsapError::Storage {
            message: message.into(),
        }
    }

    pub fn binding(message: impl Into<String>) -> AsapError {
        AsapError::Binding {
            message: message.into(),
        }
    }

    pub fn mismatch(message: impl Into<String>) -> AsapError {
        AsapError::Mismatch {
            message: message.into(),
        }
    }

    pub fn io(message: impl Into<String>) -> AsapError {
        AsapError::Io {
            message: message.into(),
        }
    }

    pub fn json(offset: usize, message: impl Into<String>) -> AsapError {
        AsapError::Json {
            offset,
            message: message.into(),
        }
    }

    pub fn budget(e: BudgetError, loc: Option<OpId>) -> AsapError {
        AsapError::BudgetExceeded {
            resource: e.resource,
            spent: e.spent,
            limit: e.limit,
            loc,
        }
    }

    /// The violation as a [`BudgetError`], when this is a budget trap.
    /// The chaos-mode fuzz oracle uses this to assert every strategy
    /// degrades to the same `(resource, spent, limit)` triple.
    pub fn budget_violation(&self) -> Option<BudgetError> {
        match self {
            AsapError::BudgetExceeded {
                resource,
                spent,
                limit,
                ..
            } => Some(BudgetError {
                resource: *resource,
                spent: *spent,
                limit: *limit,
            }),
            _ => None,
        }
    }

    /// Short stable kind tag, for reports and skip summaries.
    pub fn kind(&self) -> &'static str {
        match self {
            AsapError::Parse { .. } => "parse",
            AsapError::Spec { .. } => "spec",
            AsapError::Codegen { .. } => "codegen",
            AsapError::Verify { .. } => "verify",
            AsapError::Storage { .. } => "storage",
            AsapError::Binding { .. } => "binding",
            AsapError::Interp { .. } => "interp",
            AsapError::Mismatch { .. } => "mismatch",
            AsapError::Io { .. } => "io",
            AsapError::Json { .. } => "json",
            AsapError::BudgetExceeded { .. } => "budget",
        }
    }
}

impl fmt::Display for AsapError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AsapError::Parse { line, message } => {
                write!(f, "parse error at line {line}: {message}")
            }
            AsapError::Spec { message } => write!(f, "invalid kernel spec: {message}"),
            AsapError::Codegen { message } => write!(f, "codegen error: {message}"),
            AsapError::Verify { message } => write!(f, "IR verification error: {message}"),
            AsapError::Storage { message } => write!(f, "storage error: {message}"),
            AsapError::Binding { message } => write!(f, "operand binding error: {message}"),
            AsapError::Interp { error } => write!(f, "interpreter trap: {error}"),
            AsapError::Mismatch { message } => write!(f, "result mismatch: {message}"),
            AsapError::Io { message } => write!(f, "io error: {message}"),
            AsapError::Json { offset, message } => {
                write!(f, "json error at byte {offset}: {message}")
            }
            AsapError::BudgetExceeded {
                resource,
                spent,
                limit,
                loc,
            } => {
                let b = BudgetError {
                    resource: *resource,
                    spent: *spent,
                    limit: *limit,
                };
                match loc {
                    Some(op) => write!(f, "budget exceeded at {op}: {b}"),
                    None => write!(f, "budget exceeded: {b}"),
                }
            }
        }
    }
}

impl std::error::Error for AsapError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            AsapError::Interp { error } => Some(error),
            _ => None,
        }
    }
}

impl From<InterpError> for AsapError {
    fn from(error: InterpError) -> AsapError {
        // Budget traps surface as the dedicated variant so callers (the
        // bench harness, chaos fuzzing, CI smoke) can distinguish
        // governed termination from genuine interpreter faults.
        if let InterpError::Budget(b) = error.root() {
            return AsapError::budget(b.clone(), error.op());
        }
        AsapError::Interp { error }
    }
}

impl From<BudgetError> for AsapError {
    fn from(e: BudgetError) -> AsapError {
        AsapError::budget(e, None)
    }
}

impl From<VerifyError> for AsapError {
    fn from(e: VerifyError) -> AsapError {
        AsapError::Verify { message: e.0 }
    }
}

impl From<std::io::Error> for AsapError {
    fn from(e: std::io::Error) -> AsapError {
        AsapError::Io {
            message: e.to_string(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_includes_stage_and_location() {
        let e = AsapError::parse(17, "bad size line");
        assert_eq!(e.to_string(), "parse error at line 17: bad size line");
        assert_eq!(e.kind(), "parse");

        let e: AsapError = InterpError::OutOfBounds { index: 9, len: 4 }.into();
        assert!(e.to_string().contains("index 9 out of bounds"));
        assert_eq!(e.kind(), "interp");
    }

    #[test]
    fn json_error_carries_offset_and_kind() {
        let e = AsapError::json(12, "expected ':' after object key");
        assert_eq!(e.kind(), "json");
        assert_eq!(
            e.to_string(),
            "json error at byte 12: expected ':' after object key"
        );
    }

    #[test]
    fn verify_error_converts() {
        let e: AsapError = VerifyError("op3: operand %5 used before definition".into()).into();
        assert_eq!(e.kind(), "verify");
        assert!(e.to_string().contains("op3"));
    }

    #[test]
    fn interp_source_is_chained() {
        use std::error::Error;
        let e: AsapError = InterpError::DivisionByZero.into();
        assert!(e.source().is_some());
    }
}
