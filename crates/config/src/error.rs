//! Error type for configuration validation and header parsing.

use std::error::Error;
use std::fmt;

/// Error returned when a configuration is invalid or a configuration header
/// file cannot be parsed.
///
/// The variants mirror the constraints spelled out in §3.3 of the paper:
/// the pre-defined instruction format bounds several parameters (e.g. six
/// destination bits allow at most 64 registers unless the format is
/// re-designed), and the memory bandwidth bounds the issue width.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum ConfigError {
    /// A count parameter was zero where at least one is required.
    ZeroCount {
        /// Name of the offending parameter.
        parameter: &'static str,
    },
    /// A parameter exceeded its allowed maximum.
    OutOfRange {
        /// Name of the offending parameter.
        parameter: &'static str,
        /// The rejected value.
        value: usize,
        /// Smallest accepted value.
        min: usize,
        /// Largest accepted value.
        max: usize,
    },
    /// The datapath width cannot be represented by the literal fields.
    ///
    /// The `MOVIL` long-literal instruction materialises a full-width
    /// constant from the concatenated `SRC1`/`SRC2` payloads; the format's
    /// source fields must therefore jointly cover the datapath width.
    LiteralTooNarrow {
        /// Combined payload bits available in `SRC1`+`SRC2`.
        literal_bits: usize,
        /// Configured datapath width in bits.
        datapath_width: usize,
    },
    /// Two custom operations share the same name or opcode slot.
    DuplicateCustomOp {
        /// The conflicting custom-operation name.
        name: String,
    },
    /// `registers_per_instruction` is inconsistent with the format.
    ///
    /// An instruction names at most four registers (two destinations and
    /// two sources), so values outside `1..=4` are meaningless.
    RegistersPerInstruction {
        /// The rejected value.
        value: usize,
    },
    /// A line of a configuration header file could not be parsed.
    HeaderSyntax {
        /// 1-based line number within the header text.
        line: usize,
        /// Human-readable description of the problem.
        message: String,
    },
    /// A `#define` key in a header file is not a recognised parameter.
    UnknownParameter {
        /// 1-based line number within the header text.
        line: usize,
        /// The unrecognised key, cut to its first 64 characters.
        key: String,
    },
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::ZeroCount { parameter } => {
                write!(f, "parameter `{parameter}` must be at least 1")
            }
            ConfigError::OutOfRange {
                parameter,
                value,
                min,
                max,
            } => write!(
                f,
                "parameter `{parameter}` = {value} is outside the supported range {min}..={max}"
            ),
            ConfigError::LiteralTooNarrow {
                literal_bits,
                datapath_width,
            } => write!(
                f,
                "long-literal fields provide {literal_bits} bits but the datapath is \
                 {datapath_width} bits wide; widen the source fields or narrow the datapath"
            ),
            ConfigError::DuplicateCustomOp { name } => {
                write!(f, "custom operation `{name}` is defined more than once")
            }
            ConfigError::RegistersPerInstruction { value } => write!(
                f,
                "registers per instruction must be between 1 and 4, got {value}"
            ),
            ConfigError::HeaderSyntax { line, message } => {
                write!(f, "configuration header line {line}: {message}")
            }
            ConfigError::UnknownParameter { line, key } => {
                write!(
                    f,
                    "configuration header line {line}: unknown parameter `{key}`"
                )
            }
        }
    }
}

impl Error for ConfigError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_lowercase_and_specific() {
        let err = ConfigError::OutOfRange {
            parameter: "issue_width",
            value: 9,
            min: 1,
            max: 4,
        };
        let text = err.to_string();
        assert!(text.contains("issue_width"));
        assert!(text.contains('9'));
        assert!(!text.ends_with('.'));
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<ConfigError>();
    }
}
