//! Assembler error type and the shared diagnostic representation.
//!
//! [`Diagnostic`] is the severity-carrying, code-tagged form shared by
//! the assembler (`epic-asm`), the static verifier (`epic-verify`) and
//! the lint driver (`epic-lint`): every tool-facing problem renders the
//! same rustc-style report (`error[ASM003]: …` with a caret line when
//! the source text is available) and the same machine-readable JSON.

use epic_isa::IsaError;
use epic_mdes::BundleError;
use std::error::Error;
use std::fmt;

/// How serious a diagnostic is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// The program is legal but relies on hardware interlocks or is
    /// otherwise suspicious.
    Warning,
    /// The program violates the machine contract (or cannot be
    /// assembled at all).
    Error,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Severity::Warning => f.write_str("warning"),
            Severity::Error => f.write_str("error"),
        }
    }
}

/// One tool diagnostic: code, severity, location and message.
///
/// Locations are best-effort: assembler diagnostics carry a 1-based
/// source `line`; verifier diagnostics carry a bundle address and issue
/// slot (and `epic-lint` maps those back to source lines). A field is
/// zero/`None` when unknown.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Stable code (`ASM001`…, `VER001`…); see DESIGN.md for the table.
    pub code: &'static str,
    /// Severity (drives exit codes: any error fails the build).
    pub severity: Severity,
    /// Human-readable description.
    pub message: String,
    /// 1-based source line, 0 when unknown.
    pub line: usize,
    /// Bundle address in the assembled program, when known.
    pub bundle: Option<usize>,
    /// Issue slot within the bundle, when known.
    pub slot: Option<usize>,
}

impl Diagnostic {
    /// Builds an error diagnostic with no location.
    #[must_use]
    pub fn error(code: &'static str, message: impl Into<String>) -> Self {
        Diagnostic {
            code,
            severity: Severity::Error,
            message: message.into(),
            line: 0,
            bundle: None,
            slot: None,
        }
    }

    /// Builds a warning diagnostic with no location.
    #[must_use]
    pub fn warning(code: &'static str, message: impl Into<String>) -> Self {
        Diagnostic {
            severity: Severity::Warning,
            ..Diagnostic::error(code, message)
        }
    }

    /// Attaches a 1-based source line.
    #[must_use]
    pub fn with_line(mut self, line: usize) -> Self {
        self.line = line;
        self
    }

    /// Attaches a bundle address and optional slot.
    #[must_use]
    pub fn with_bundle(mut self, bundle: usize, slot: Option<usize>) -> Self {
        self.bundle = Some(bundle);
        self.slot = slot;
        self
    }

    /// Renders a rustc-style report. When `source` is given and the
    /// diagnostic carries a line number, the offending line is quoted
    /// with a caret underline; `origin` names the file.
    #[must_use]
    pub fn render(&self, origin: &str, source: Option<&str>) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = write!(out, "{}[{}]: {}", self.severity, self.code, self.message);
        let mut location = String::new();
        if self.line > 0 {
            let _ = write!(location, "{origin}:{}", self.line);
        } else {
            let _ = write!(location, "{origin}");
        }
        match (self.bundle, self.slot) {
            (Some(b), Some(s)) => {
                let _ = write!(location, " (bundle {b}, slot {s})");
            }
            (Some(b), None) => {
                let _ = write!(location, " (bundle {b})");
            }
            _ => {}
        }
        let _ = write!(out, "\n  --> {location}");
        if self.line > 0 {
            if let Some(text) = source.and_then(|s| s.lines().nth(self.line - 1)) {
                let gutter = self.line.to_string();
                let pad = " ".repeat(gutter.len());
                let _ = write!(out, "\n {pad} |\n {gutter} | {text}\n {pad} | ");
                let lead = text.len() - text.trim_start().len();
                let width = text.trim().len().max(1);
                let _ = write!(out, "{}{}", " ".repeat(lead), "^".repeat(width));
            }
        }
        out.push('\n');
        out
    }

    /// Renders one JSON object (stable field order, no trailing newline).
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = format!(
            "{{\"code\":\"{}\",\"severity\":\"{}\",\"message\":\"{}\"",
            self.code,
            self.severity,
            json_escape(&self.message)
        );
        if self.line > 0 {
            out.push_str(&format!(",\"line\":{}", self.line));
        }
        if let Some(b) = self.bundle {
            out.push_str(&format!(",\"bundle\":{b}"));
        }
        if let Some(s) = self.slot {
            out.push_str(&format!(",\"slot\":{s}"));
        }
        out.push('}');
        out
    }
}

fn json_escape(text: &str) -> String {
    let mut out = String::with_capacity(text.len());
    for c in text.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Error raised while assembling source text or decoding machine code.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum AsmError {
    /// A mnemonic is not in the (configuration-dependent) opcode table.
    UnknownMnemonic {
        /// 1-based source line.
        line: usize,
        /// The unknown mnemonic.
        mnemonic: String,
    },
    /// An operand could not be parsed or has the wrong kind.
    BadOperand {
        /// 1-based source line.
        line: usize,
        /// The offending operand text.
        operand: String,
        /// What the field expected.
        expected: &'static str,
    },
    /// The operand count does not match the opcode's signature.
    WrongOperandCount {
        /// 1-based source line.
        line: usize,
        /// The mnemonic.
        mnemonic: String,
        /// Operands the signature requires.
        expected: usize,
        /// Operands found.
        found: usize,
    },
    /// A malformed line (no mnemonic, stray characters…).
    Syntax {
        /// 1-based source line.
        line: usize,
        /// Description of the problem.
        message: String,
    },
    /// A label was defined twice.
    DuplicateLabel {
        /// 1-based source line of the second definition.
        line: usize,
        /// The label.
        label: String,
    },
    /// A referenced label is never defined.
    UnknownLabel {
        /// 1-based source line of the reference.
        line: usize,
        /// The label.
        label: String,
    },
    /// A bundle violates the machine description.
    IllegalBundle {
        /// 1-based source line where the bundle ends.
        line: usize,
        /// The underlying rule violation.
        source: BundleError,
    },
    /// A bundle separator with no instructions before it.
    EmptyBundle {
        /// 1-based source line of the separator.
        line: usize,
    },
    /// Instructions at end of file without a closing `;;`.
    UnterminatedBundle {
        /// 1-based line of the first dangling instruction.
        line: usize,
    },
    /// The `.entry` label or a branch target is missing, or no bundles
    /// exist at all.
    EmptyProgram,
    /// Instruction-level validation or encoding failed.
    Isa {
        /// 1-based source line (0 when decoding binaries).
        line: usize,
        /// The underlying ISA error.
        source: IsaError,
    },
    /// A machine-code image that is not a whole number of bundles.
    TruncatedImage {
        /// Bytes in the image.
        len: usize,
        /// Bytes in one bundle.
        bundle_bytes: usize,
    },
}

impl fmt::Display for AsmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AsmError::UnknownMnemonic { line, mnemonic } => {
                write!(f, "line {line}: unknown mnemonic `{mnemonic}`")
            }
            AsmError::BadOperand {
                line,
                operand,
                expected,
            } => write!(f, "line {line}: operand `{operand}` is not {expected}"),
            AsmError::WrongOperandCount {
                line,
                mnemonic,
                expected,
                found,
            } => write!(
                f,
                "line {line}: `{mnemonic}` takes {expected} operands, found {found}"
            ),
            AsmError::Syntax { line, message } => write!(f, "line {line}: {message}"),
            AsmError::DuplicateLabel { line, label } => {
                write!(f, "line {line}: label `{label}` is already defined")
            }
            AsmError::UnknownLabel { line, label } => {
                write!(f, "line {line}: unknown label `{label}`")
            }
            AsmError::IllegalBundle { line, source } => {
                write!(f, "line {line}: illegal bundle: {source}")
            }
            AsmError::EmptyBundle { line } => {
                write!(f, "line {line}: bundle separator with no instructions")
            }
            AsmError::UnterminatedBundle { line } => {
                write!(f, "line {line}: instructions not terminated by `;;`")
            }
            AsmError::EmptyProgram => write!(f, "program contains no bundles"),
            AsmError::Isa { line, source } => write!(f, "line {line}: {source}"),
            AsmError::TruncatedImage { len, bundle_bytes } => write!(
                f,
                "the {len}-byte image is not a whole number of {bundle_bytes}-byte bundles"
            ),
        }
    }
}

impl AsmError {
    /// Stable diagnostic code for this error variant.
    #[must_use]
    pub fn code(&self) -> &'static str {
        match self {
            AsmError::UnknownMnemonic { .. } => "ASM001",
            AsmError::BadOperand { .. } => "ASM002",
            AsmError::WrongOperandCount { .. } => "ASM003",
            AsmError::Syntax { .. } => "ASM004",
            AsmError::DuplicateLabel { .. } => "ASM005",
            AsmError::UnknownLabel { .. } => "ASM006",
            AsmError::IllegalBundle { .. } => "ASM007",
            AsmError::EmptyBundle { .. } => "ASM008",
            AsmError::UnterminatedBundle { .. } => "ASM009",
            AsmError::EmptyProgram => "ASM010",
            AsmError::Isa { .. } => "ASM011",
            AsmError::TruncatedImage { .. } => "ASM012",
        }
    }

    /// 1-based source line the error points at (0 when unknown).
    #[must_use]
    pub fn line(&self) -> usize {
        match self {
            AsmError::UnknownMnemonic { line, .. }
            | AsmError::BadOperand { line, .. }
            | AsmError::WrongOperandCount { line, .. }
            | AsmError::Syntax { line, .. }
            | AsmError::DuplicateLabel { line, .. }
            | AsmError::UnknownLabel { line, .. }
            | AsmError::IllegalBundle { line, .. }
            | AsmError::EmptyBundle { line }
            | AsmError::UnterminatedBundle { line }
            | AsmError::Isa { line, .. } => *line,
            AsmError::EmptyProgram | AsmError::TruncatedImage { .. } => 0,
        }
    }

    /// Converts into the shared [`Diagnostic`] form. The message drops
    /// the `line N:` prefix of [`Display`](fmt::Display) because the
    /// diagnostic carries the line structurally.
    #[must_use]
    pub fn to_diagnostic(&self) -> Diagnostic {
        let rendered = self.to_string();
        let message = match rendered.split_once(": ") {
            Some((prefix, rest)) if prefix.starts_with("line ") => rest.to_string(),
            _ => rendered,
        };
        Diagnostic::error(self.code(), message).with_line(self.line())
    }
}

impl Error for AsmError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            AsmError::IllegalBundle { source, .. } => Some(source),
            AsmError::Isa { source, .. } => Some(source),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<AsmError>();
    }

    #[test]
    fn diagnostic_renders_caret_under_source_line() {
        let err = AsmError::UnknownMnemonic {
            line: 2,
            mnemonic: "FROB".into(),
        };
        let diag = err.to_diagnostic();
        assert_eq!(diag.code, "ASM001");
        assert_eq!(diag.severity, Severity::Error);
        assert_eq!(diag.line, 2);
        let rendered = diag.render("test.s", Some("ADD r1, r2, r3\n  FROB r4\n"));
        assert!(rendered.starts_with("error[ASM001]: unknown mnemonic `FROB`"));
        assert!(rendered.contains("--> test.s:2"));
        assert!(rendered.contains(" 2 |   FROB r4"));
        assert!(rendered.contains("   |   ^^^^^^^"));
    }

    #[test]
    fn diagnostic_json_escapes_and_orders_fields() {
        let diag = Diagnostic::warning("VER004", "needs \"quoting\"").with_bundle(7, Some(1));
        assert_eq!(
            diag.to_json(),
            "{\"code\":\"VER004\",\"severity\":\"warning\",\
             \"message\":\"needs \\\"quoting\\\"\",\"bundle\":7,\"slot\":1}"
        );
    }

    #[test]
    fn every_variant_has_a_distinct_code() {
        let variants = [
            AsmError::UnknownMnemonic {
                line: 1,
                mnemonic: "X".into(),
            },
            AsmError::BadOperand {
                line: 1,
                operand: "x".into(),
                expected: "a register",
            },
            AsmError::WrongOperandCount {
                line: 1,
                mnemonic: "X".into(),
                expected: 2,
                found: 1,
            },
            AsmError::Syntax {
                line: 1,
                message: "m".into(),
            },
            AsmError::DuplicateLabel {
                line: 1,
                label: "l".into(),
            },
            AsmError::UnknownLabel {
                line: 1,
                label: "l".into(),
            },
            AsmError::EmptyBundle { line: 1 },
            AsmError::UnterminatedBundle { line: 1 },
            AsmError::EmptyProgram,
            AsmError::TruncatedImage {
                len: 40,
                bundle_bytes: 32,
            },
        ];
        let mut codes: Vec<_> = variants.iter().map(AsmError::code).collect();
        codes.sort_unstable();
        codes.dedup();
        assert_eq!(codes.len(), variants.len());
    }
}
