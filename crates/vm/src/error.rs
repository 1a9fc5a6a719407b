//! Execution errors and traps.

use std::fmt;

/// Classification of runtime traps.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum TrapKind {
    /// Null pointer dereference.
    NullAccess,
    /// Invalid memory access (function window, wraparound).
    BadAccess,
    /// Division or remainder by zero.
    DivByZero,
    /// `free` of a pointer that is not a live allocation.
    BadFree,
    /// Address space exhausted.
    OutOfMemory,
    /// Call stack depth limit exceeded.
    StackOverflow,
    /// Instruction budget ("fuel") exhausted.
    OutOfFuel,
    /// An `unwind` reached the bottom of the stack without an `invoke`.
    UncaughtUnwind,
    /// Executed `unreachable`.
    Unreachable,
    /// Malformed runtime situation (bad callee, wrong arity, ...).
    Invalid,
}

/// An execution failure.
#[derive(Clone, Debug, PartialEq)]
pub enum ExecError {
    /// A runtime trap.
    Trap {
        /// Kind of trap.
        kind: TrapKind,
        /// Detail message.
        message: String,
    },
    /// The program called `exit(code)`.
    Exited(i32),
}

impl ExecError {
    /// Construct a trap.
    pub fn trap(kind: TrapKind, message: impl Into<String>) -> ExecError {
        ExecError::Trap {
            kind,
            message: message.into(),
        }
    }
}

impl fmt::Display for ExecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExecError::Trap { kind, message } => write!(f, "trap ({kind:?}): {message}"),
            ExecError::Exited(c) => write!(f, "program exited with code {c}"),
        }
    }
}

impl std::error::Error for ExecError {}

/// A `getelementptr` that does not fit its base type (possible only in a
/// module the verifier has not passed) is an `Invalid` trap on every
/// engine, whether met at execution or at translation.
impl From<lpat_core::GepError> for ExecError {
    fn from(e: lpat_core::GepError) -> ExecError {
        ExecError::trap(TrapKind::Invalid, e.to_string())
    }
}
