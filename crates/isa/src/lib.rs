//! The instruction set of the customisable EPIC processor.
//!
//! The ISA is "a proper subset of operations specified in the HPL-PD
//! architecture … focus[ed] on integer operations, including multiplication
//! and division, which can be implemented efficiently on FPGAs" (paper
//! §3.1). This crate defines:
//!
//! * [`Opcode`] — the operation space, organised by functional-unit class
//!   (ALU / CMPU / LSU / BRU / miscellaneous / custom) with a Gray-coded
//!   numbering that "minimise[s] the Hamming distance between two
//!   instructions of the same type";
//! * [`Instruction`] — the six-field instruction of Fig. 1
//!   (`OPCODE, DEST1, DEST2, SRC1, SRC2, PRED`) with typed operands;
//! * [`encode`]/[`decode`] — the fixed-width big-endian machine-code form,
//!   parameterised by the [`InstructionFormat`](epic_config::InstructionFormat)
//!   derived from a processor configuration;
//! * a disassembler producing the assembly syntax accepted by `epic-asm`.
//!
//! # Examples
//!
//! ```
//! use epic_config::Config;
//! use epic_isa::{decode, encode, Gpr, Instruction, Opcode, Operand};
//!
//! let config = Config::default();
//! let add = Instruction::alu3(Opcode::Add, Gpr(1), Operand::Gpr(Gpr(2)), Operand::Lit(5));
//! let bytes = encode(&add, &config)?;
//! assert_eq!(bytes.len(), 8); // one 64-bit word, big-endian
//! assert_eq!(decode(&bytes, &config)?, add);
//! # Ok::<(), epic_isa::IsaError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod codec;
mod disasm;
mod error;
mod instr;
mod op;
mod regs;

pub use codec::{decode, encode, encode_into};
pub use disasm::{disassemble, write_disassembly};
pub use error::IsaError;
pub use instr::{Btr, Dest, Gpr, Instruction, Operand, PredReg};
pub use op::{opcode_hamming_distance, CmpCond, DestKind, OpSignature, Opcode, SrcKind, Unit};
pub use regs::RegList;

/// The always-true predicate register.
///
/// Predicate register 0 is hard-wired to 1: instructions guarded by it
/// always commit, and predicate writes targeting it are discarded. This is
/// the convention HPL-PD implementations use to express "unpredicated".
pub const TRUE_PRED: PredReg = PredReg(0);
