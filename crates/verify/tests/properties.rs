//! Property tests: randomly generated legal programs verify cleanly, and
//! seeded mutations of legal programs are flagged with the diagnostic
//! code matching the mutation class.

use epic_config::Config;
use epic_isa::{Btr, Gpr, Instruction, Opcode, Operand};
use proptest::prelude::*;

/// Single-cycle ALU opcodes (no latency windows, no unit occupancy), so
/// one-per-bundle programs built from them are legal by construction.
fn alu_op() -> impl Strategy<Value = Opcode> {
    prop::sample::select(vec![
        Opcode::Add,
        Opcode::Sub,
        Opcode::And,
        Opcode::Or,
        Opcode::Xor,
        Opcode::Shl,
        Opcode::Min,
        Opcode::Max,
    ])
}

/// A legal three-address ALU instruction over low registers and short
/// literals (the default machine has 64 GPRs and ±16383 literals).
fn instr() -> impl Strategy<Value = Instruction> {
    (
        alu_op(),
        1u16..16,
        1u16..16,
        prop_oneof![
            (1u16..16).prop_map(|r| Operand::Gpr(Gpr(r))),
            (-100i64..100).prop_map(Operand::Lit),
        ],
    )
        .prop_map(|(op, dest, src1, src2)| {
            Instruction::alu3(op, Gpr(dest), Operand::Gpr(Gpr(src1)), src2)
        })
}

/// Whether the error pass alone returns exactly `report`'s error
/// diagnostics, in order.
fn error_pass_matches(report: &epic_verify::Report, bundles: &[Vec<Instruction>]) -> bool {
    let errors = epic_verify::Verifier::new(&Config::default()).check_errors(bundles, 0);
    errors.diagnostics().iter().eq(report
        .diagnostics()
        .iter()
        .filter(|d| d.severity == epic_verify::Severity::Error))
}

/// One instruction per bundle, terminated by `HALT`.
fn to_bundles(instrs: &[Instruction]) -> Vec<Vec<Instruction>> {
    let mut bundles: Vec<Vec<Instruction>> = instrs.iter().map(|i| vec![*i]).collect();
    bundles.push(vec![Instruction::halt()]);
    bundles
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 128, ..ProptestConfig::default() })]

    #[test]
    fn random_legal_programs_verify_cleanly(instrs in prop::collection::vec(instr(), 1..20)) {
        let config = Config::default();
        let bundles = to_bundles(&instrs);
        let report = epic_verify::check_program(&bundles, 0, &config);
        prop_assert!(
            !report.has_errors(),
            "legal program rejected:\n{}",
            report.render("generated", None)
        );
        prop_assert!(error_pass_matches(&report, &bundles));
    }

    #[test]
    fn mutated_programs_are_flagged_with_the_matching_code(
        instrs in prop::collection::vec(instr(), 1..20),
        mutation in 0usize..6,
        pick in proptest::arbitrary::any::<u64>(),
    ) {
        let config = Config::default();
        let mut bundles = to_bundles(&instrs);
        let victim = (pick % instrs.len() as u64) as usize;
        let expected = match mutation {
            0 => {
                // Widen a source register past the file.
                bundles[victim][0].src1 = Operand::Gpr(Gpr(config.num_gprs() as u16));
                "VER007"
            }
            1 => {
                // Replace a source with an unencodable literal.
                let (_, max) = config.instruction_format().short_literal_range();
                bundles[victim][0].src2 = Operand::Lit(max + 1);
                "VER008"
            }
            2 => {
                // Two loads against the single LSU.
                bundles[victim] = vec![
                    Instruction::load(Opcode::Lw, Gpr(20), Operand::Gpr(Gpr(1)), Operand::Lit(0)),
                    Instruction::load(Opcode::Lw, Gpr(21), Operand::Gpr(Gpr(2)), Operand::Lit(4)),
                ];
                "VER002"
            }
            3 => {
                // Branch through a target register no PBR ever prepared.
                bundles.insert(victim, vec![Instruction::br(Btr(1))]);
                "VER005"
            }
            4 => {
                // Duplicate the instruction in its own bundle: two writes
                // to one register in one cycle.
                let copy = bundles[victim][0];
                bundles[victim].push(copy);
                "VER010"
            }
            _ => {
                // Slide an instruction behind the HALT.
                let last = bundles.len() - 1;
                let copy = bundles[victim][0];
                bundles[last].push(copy);
                "VER009"
            }
        };
        let report = epic_verify::check_program(&bundles, 0, &config);
        prop_assert!(
            report.has_code(expected),
            "mutation {mutation} should raise {expected}:\n{}",
            report.render("mutated", None)
        );
        prop_assert!(
            error_pass_matches(&report, &bundles),
            "mutation {mutation}: the error pass differs from check's errors"
        );
    }
}
