//! Textual form of instructions (the assembler's canonical syntax).

use crate::instr::{Instruction, Operand};
use crate::op::{DestKind, Opcode, SrcKind};
use epic_config::Config;
use std::fmt;

/// Renders an instruction in assembler syntax, resolving custom opcode
/// names through the configuration.
///
/// The output is accepted verbatim by the `epic-asm` parser.
///
/// # Examples
///
/// ```
/// use epic_config::Config;
/// use epic_isa::{disassemble, Gpr, Instruction, Opcode, Operand, PredReg};
///
/// let config = Config::default();
/// let i = Instruction::alu3(Opcode::Add, Gpr(1), Operand::Gpr(Gpr(2)), Operand::Lit(5))
///     .with_pred(PredReg(3));
/// assert_eq!(disassemble(&i, &config), "ADD r1, r2, #5 (p3)");
/// ```
#[must_use]
pub fn disassemble(instr: &Instruction, config: &Config) -> String {
    let mut out = String::new();
    write_disassembly(&mut out, instr, config);
    out
}

/// Appends [`disassemble`]'s text to `out`, so a caller rendering many
/// instructions formats each in place.
///
/// # Examples
///
/// ```
/// use epic_config::Config;
/// use epic_isa::{disassemble, write_disassembly, Instruction};
///
/// let config = Config::default();
/// let mut text = String::from("    ");
/// write_disassembly(&mut text, &Instruction::halt(), &config);
/// assert_eq!(text, format!("    {}", disassemble(&Instruction::halt(), &config)));
/// ```
pub fn write_disassembly(out: &mut String, instr: &Instruction, config: &Config) {
    write_instruction(out, instr, Some(config)).expect("writing to a String cannot fail");
}

pub(crate) fn write_instruction(
    out: &mut impl fmt::Write,
    instr: &Instruction,
    config: Option<&Config>,
) -> fmt::Result {
    match config {
        Some(c) => out.write_str(&instr.opcode.mnemonic_in(c))?,
        None => out.write_str(&instr.opcode.mnemonic())?,
    }
    let sig = instr.opcode.signature();
    let mut separator = " ";
    let mut operand = |out: &mut dyn fmt::Write, text: &dyn fmt::Display| {
        write!(out, "{separator}{text}")?;
        separator = ", ";
        Ok::<(), fmt::Error>(())
    };
    if sig.dest1 != DestKind::None {
        operand(out, &instr.dest1)?;
    }
    if sig.dest2 != DestKind::None {
        operand(out, &instr.dest2)?;
    }
    if instr.opcode == Opcode::Movil {
        if let Operand::Lit(v) = instr.src1 {
            operand(out, &format_args!("#{v}"))?;
        }
    } else {
        if sig.src1 != SrcKind::None {
            operand(out, &instr.src1)?;
        }
        if sig.src2 != SrcKind::None {
            operand(out, &instr.src2)?;
        }
    }
    if instr.pred.0 != 0 {
        write!(out, " ({})", instr.pred)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Btr, CmpCond, Gpr, PredReg};

    #[test]
    fn canonical_forms() {
        let cases: Vec<(Instruction, &str)> = vec![
            (
                Instruction::alu3(
                    Opcode::Add,
                    Gpr(1),
                    Operand::Gpr(Gpr(2)),
                    Operand::Gpr(Gpr(3)),
                ),
                "ADD r1, r2, r3",
            ),
            (
                Instruction::alu2(Opcode::Move, Gpr(4), Operand::Lit(-7)),
                "MOVE r4, #-7",
            ),
            (Instruction::movil(Gpr(2), 70000), "MOVIL r2, #70000"),
            (
                Instruction::cmp(
                    CmpCond::Lt,
                    PredReg(1),
                    PredReg(2),
                    Operand::Gpr(Gpr(3)),
                    Operand::Lit(0),
                ),
                "CMP_LT p1, p2, r3, #0",
            ),
            (
                Instruction::store(Opcode::Sw, Gpr(5), Operand::Gpr(Gpr(6)), Operand::Lit(8)),
                "SW r5, r6, #8",
            ),
            (Instruction::pbr(Btr(1), Operand::Lit(42)), "PBR b1, #42"),
            (Instruction::br(Btr(1)), "BR b1"),
            (Instruction::brct(Btr(2), PredReg(5)), "BRCT b2 (p5)"),
            (Instruction::brl(Gpr(1), Btr(0)), "BRL r1, b0"),
            (Instruction::nop(), "NOP"),
            (Instruction::halt(), "HALT"),
        ];
        for (instr, expected) in cases {
            assert_eq!(instr.to_string(), expected);
        }
    }

    #[test]
    fn custom_names_resolve_through_config() {
        use epic_config::{CustomOp, CustomSemantics};
        let config = epic_config::Config::builder()
            .custom_op(CustomOp::new("sha_rotr", CustomSemantics::RotateRight))
            .build()
            .unwrap();
        let i = Instruction::alu3(
            Opcode::Custom(0),
            Gpr(1),
            Operand::Gpr(Gpr(2)),
            Operand::Lit(13),
        );
        assert_eq!(disassemble(&i, &config), "sha_rotr r1, r2, #13");
        assert_eq!(i.to_string(), "CUSTOM_0 r1, r2, #13");
    }
}
