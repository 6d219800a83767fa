//! Error type for the quantum simulation substrate.

use std::error::Error as StdError;
use std::fmt;

/// Errors reported by the quantum simulation engines.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum Error {
    /// A state or operator was requested over an empty (or otherwise
    /// unusable) Hilbert space.
    InvalidDimension {
        /// The offending dimension.
        dim: usize,
    },
    /// A basis-state index exceeded the space dimension.
    IndexOutOfRange {
        /// The offending index.
        index: usize,
        /// The space dimension.
        dim: usize,
    },
    /// Two states of different dimensions were combined.
    DimensionMismatch {
        /// Dimension of the left operand.
        left: usize,
        /// Dimension of the right operand.
        right: usize,
    },
    /// An algorithm parameter was outside its valid range.
    InvalidParameter {
        /// Name of the parameter.
        name: &'static str,
        /// Human-readable description of the violated constraint.
        reason: String,
    },
    /// A Johnson graph `J(n, k)` was requested with `k > n` or `k == 0`.
    InvalidJohnsonGraph {
        /// Universe size.
        n: usize,
        /// Subset size.
        k: usize,
    },
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::InvalidDimension { dim } => write!(f, "invalid hilbert-space dimension {dim}"),
            Error::IndexOutOfRange { index, dim } => {
                write!(f, "basis index {index} out of range for dimension {dim}")
            }
            Error::DimensionMismatch { left, right } => {
                write!(f, "dimension mismatch: {left} vs {right}")
            }
            Error::InvalidParameter { name, reason } => {
                write!(f, "invalid parameter {name}: {reason}")
            }
            Error::InvalidJohnsonGraph { n, k } => {
                write!(f, "invalid johnson graph J({n}, {k})")
            }
        }
    }
}

impl StdError for Error {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_nonempty() {
        let errors = [
            Error::InvalidDimension { dim: 0 },
            Error::IndexOutOfRange { index: 9, dim: 4 },
            Error::DimensionMismatch { left: 2, right: 3 },
            Error::InvalidParameter {
                name: "epsilon",
                reason: "must be positive".into(),
            },
            Error::InvalidJohnsonGraph { n: 3, k: 9 },
        ];
        for e in errors {
            assert!(!e.to_string().is_empty());
        }
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Error>();
    }
}
