//! The assembled program: padded bundles plus symbols.

use crate::error::AsmError;
use epic_config::Config;
use epic_isa::{decode, encode_into, Instruction};
use std::collections::HashMap;
use std::sync::Arc;

/// A fully assembled program image.
///
/// Bundles are padded to the configured issue width (so every bundle row
/// is exactly `issue_width × instruction_width` bits, matching the
/// 256-bit fetch rows of the prototype's four memory banks), and labels
/// map to bundle addresses.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Program {
    bundles: Arc<[Vec<Instruction>]>,
    entry: u32,
    labels: HashMap<String, u32>,
}

impl Program {
    pub(crate) fn new(
        bundles: Vec<Vec<Instruction>>,
        entry: u32,
        labels: HashMap<String, u32>,
    ) -> Self {
        Program {
            bundles: bundles.into(),
            entry,
            labels,
        }
    }

    /// The issue bundles, each padded to the issue width.
    #[must_use]
    pub fn bundles(&self) -> &[Vec<Instruction>] {
        &self.bundles
    }

    /// The issue bundles, shared: a simulator loads them without a copy
    /// (`epic_sim::Simulator::try_new` accepts them as they are).
    #[must_use]
    pub fn shared_bundles(&self) -> Arc<[Vec<Instruction>]> {
        Arc::clone(&self.bundles)
    }

    /// The entry bundle address.
    #[must_use]
    pub fn entry(&self) -> u32 {
        self.entry
    }

    /// Resolves a label to its bundle address.
    #[must_use]
    pub fn label(&self, name: &str) -> Option<u32> {
        self.labels.get(name).copied()
    }

    /// All labels with their bundle addresses.
    #[must_use]
    pub fn labels(&self) -> &HashMap<String, u32> {
        &self.labels
    }

    /// Size of the instruction-memory image in bytes.
    #[must_use]
    pub fn image_bytes(&self, config: &Config) -> usize {
        self.bundles.len() * config.issue_width() * config.instruction_format().width_bytes()
    }

    /// Encodes the program as a big-endian machine-code image, bundle
    /// rows in address order.
    ///
    /// # Errors
    ///
    /// Returns [`AsmError::Isa`] if an instruction fails validation
    /// (cannot happen for programs produced by [`crate::assemble`]).
    pub fn to_bytes(&self, config: &Config) -> Result<Vec<u8>, AsmError> {
        let width = config.instruction_format().width_bytes();
        let mut out = vec![0u8; self.image_bytes(config)];
        let mut cursor = 0;
        for bundle in self.bundles.iter() {
            for instr in bundle {
                encode_into(instr, config, &mut out[cursor..cursor + width])
                    .map_err(|source| AsmError::Isa { line: 0, source })?;
                cursor += width;
            }
        }
        Ok(out)
    }

    /// Decodes a machine-code image back into a program (entry 0, no
    /// labels — they do not survive encoding).
    ///
    /// # Errors
    ///
    /// Returns [`AsmError::Isa`] on malformed words,
    /// [`AsmError::EmptyProgram`] for an empty image and
    /// [`AsmError::TruncatedImage`] for one that is not whole bundles.
    pub fn from_bytes(bytes: &[u8], config: &Config) -> Result<Program, AsmError> {
        let width = config.instruction_format().width_bytes();
        let row = width * config.issue_width();
        if bytes.is_empty() {
            return Err(AsmError::EmptyProgram);
        }
        if !bytes.len().is_multiple_of(row) {
            return Err(AsmError::TruncatedImage {
                len: bytes.len(),
                bundle_bytes: row,
            });
        }
        let mut bundles = Vec::with_capacity(bytes.len() / row);
        for chunk in bytes.chunks(row) {
            let mut bundle = Vec::with_capacity(config.issue_width());
            for word in chunk.chunks(width) {
                bundle.push(
                    decode(word, config).map_err(|source| AsmError::Isa { line: 0, source })?,
                );
            }
            bundles.push(bundle);
        }
        Ok(Program::new(bundles, 0, HashMap::new()))
    }
}

/// Renders an assembled program back to assembly text (labels inline,
/// `NOP` padding kept). The output re-assembles to the same bundles.
#[must_use]
pub fn disassemble_program(program: &Program, config: &Config) -> String {
    let mut by_address: HashMap<u32, Vec<&str>> = HashMap::new();
    for (name, addr) in program.labels() {
        by_address.entry(*addr).or_default().push(name);
    }
    let mut out = String::new();
    for (addr, bundle) in program.bundles().iter().enumerate() {
        if let Some(names) = by_address.get(&(addr as u32)) {
            for name in names {
                out.push_str(name);
                out.push_str(":\n");
            }
        }
        for instr in bundle {
            out.push_str("    ");
            out.push_str(&epic_isa::disassemble(instr, config));
            out.push('\n');
        }
        out.push_str(";;\n");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn byte_image_round_trips() {
        let config = Config::default();
        let program = crate::assemble(
            "start:\n    MOVE r1, #42\n    ADD r2, r1, r1\n;;\n    HALT\n;;\n",
            &config,
        )
        .unwrap();
        let bytes = program.to_bytes(&config).unwrap();
        assert_eq!(bytes.len(), 2 * 4 * 8, "two 256-bit rows");
        let back = Program::from_bytes(&bytes, &config).unwrap();
        assert_eq!(back.bundles(), program.bundles());
    }

    #[test]
    fn images_must_be_whole_bundles() {
        let config = Config::default();
        let halt = crate::assemble("    HALT\n;;\n", &config).unwrap();
        let mut image = halt.to_bytes(&config).unwrap();
        assert_eq!(image.len(), 32, "one 256-bit row");
        let back = Program::from_bytes(&image, &config).unwrap();
        assert_eq!(back.bundles(), halt.bundles());
        assert_eq!(
            Program::from_bytes(&[], &config),
            Err(AsmError::EmptyProgram)
        );
        image.extend_from_slice(&[0u8; 8]);
        let err = Program::from_bytes(&image, &config).unwrap_err();
        assert_eq!(
            err,
            AsmError::TruncatedImage {
                len: 40,
                bundle_bytes: 32
            }
        );
        assert_eq!(err.code(), "ASM012");
        assert_eq!(
            err.to_string(),
            "the 40-byte image is not a whole number of 32-byte bundles"
        );
    }
}
