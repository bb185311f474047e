//! Compiler error type.

use std::error::Error;
use std::fmt;

/// Error raised during compilation.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum CompileError {
    /// The compiler targets 32-bit datapaths only.
    UnsupportedDatapathWidth {
        /// The configured width.
        width: u32,
    },
    /// A function needs more arguments than the calling convention passes
    /// in registers.
    TooManyArguments {
        /// The offending function.
        function: String,
        /// Its parameter count.
        count: usize,
        /// Registers available for arguments.
        limit: usize,
    },
    /// The predicate register file is too small for the function's
    /// control structure (predicates cannot be spilled).
    OutOfPredicates {
        /// The function being allocated.
        function: String,
        /// Predicate registers needed simultaneously.
        needed: usize,
        /// Predicate registers available.
        available: usize,
    },
    /// The configured GPR file is too small to carry the calling
    /// convention and scratch registers.
    RegisterFileTooSmall {
        /// Configured number of GPRs.
        num_gprs: usize,
        /// Minimum the backend needs.
        minimum: usize,
    },
    /// An operation requires an ALU feature the configuration excludes and
    /// no expansion exists.
    MissingFeature {
        /// A description of the operation.
        operation: String,
        /// The missing feature's name.
        feature: String,
    },
    /// A `PBR` targets a label whose bundle address does not fit the
    /// configured instruction format's short literal: the program is
    /// too long for its branches to reach.
    BranchTargetOutOfRange {
        /// The function whose `PBR` names the label.
        function: String,
        /// The target label.
        label: String,
        /// The label's bundle address.
        address: u32,
    },
    /// Internal invariant violation — a compiler bug, reported rather than
    /// panicking so batch exploration keeps running.
    Internal {
        /// What went wrong.
        message: String,
    },
    /// The static verifier (`epic-verify`) rejected the scheduled
    /// output — the emitted program would stall or misbehave on the
    /// configured machine. Always a compiler bug; disable with
    /// [`Options::verify`](crate::Options) only to inspect the bad code.
    Verification {
        /// Error diagnostics in the verifier's rendered form.
        report: String,
    },
}

impl fmt::Display for CompileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CompileError::UnsupportedDatapathWidth { width } => {
                write!(f, "the compiler targets 32-bit datapaths, configuration has {width}")
            }
            CompileError::TooManyArguments {
                function,
                count,
                limit,
            } => write!(
                f,
                "function `{function}` has {count} parameters; the calling convention passes at most {limit} in registers"
            ),
            CompileError::OutOfPredicates {
                function,
                needed,
                available,
            } => write!(
                f,
                "function `{function}` needs {needed} live predicates but only {available} exist"
            ),
            CompileError::RegisterFileTooSmall { num_gprs, minimum } => write!(
                f,
                "configuration has {num_gprs} GPRs; the backend needs at least {minimum}"
            ),
            CompileError::MissingFeature { operation, feature } => {
                write!(f, "{operation} requires the {feature} ALU feature")
            }
            CompileError::BranchTargetOutOfRange {
                function,
                label,
                address,
            } => write!(
                f,
                "function `{function}` branches to `{label}` at bundle {address}, beyond the \
                 instruction format's short-literal range"
            ),
            CompileError::Internal { message } => write!(f, "internal compiler error: {message}"),
            CompileError::Verification { report } => {
                write!(f, "static verification of the scheduled output failed:\n{report}")
            }
        }
    }
}

impl Error for CompileError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<CompileError>();
    }
}
