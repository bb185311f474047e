//! Emission refinement check (TV009).
//!
//! The last gap in the pipeline proof: the assembly text the compiler
//! printed was re-parsed by `epic-asm` into a [`epic_asm::Program`]; this
//! check walks the scheduled bundles of every traced function in emission
//! order and demands the assembled program is bundle-for-bundle,
//! slot-for-slot identical — labels resolved to the bundle addresses the
//! assembler assigned, `PBR` label operands substituted with those
//! addresses before comparison. Any textual corruption between scheduler
//! and assembler (a mangled register, a dropped line, a label bound to
//! the wrong bundle) surfaces here.

use crate::Diagnostic;
use epic_compiler::mir::{MOp, MSrc};
use epic_compiler::sched::to_instruction;
use epic_compiler::trace::PipelineTrace;

/// Checks the assembled program against the scheduled trace.
pub fn check(trace: &PipelineTrace, program: &epic_asm::Program, diags: &mut Vec<Diagnostic>) {
    let bundles = program.bundles();
    let mut c = 0usize; // global bundle counter
    for func in &trace.functions {
        for sb in &func.scheduled {
            match program.label(&sb.label) {
                Some(addr) if addr as usize == c => {}
                Some(addr) => {
                    diags.push(Diagnostic::error(
                        "TV009",
                        format!(
                            "label `{}` resolves to bundle {addr}, the schedule places it at bundle {c}",
                            sb.label
                        ),
                    ));
                }
                None => {
                    diags.push(Diagnostic::error(
                        "TV009",
                        format!("label `{}` is missing from the assembled program", sb.label),
                    ));
                }
            }
            for bundle in &sb.bundles {
                let Some(assembled) = bundles.get(c) else {
                    diags.push(Diagnostic::error(
                        "TV009",
                        format!(
                            "assembled program ends at bundle {} but the schedule continues ({})",
                            bundles.len(),
                            sb.label
                        ),
                    ));
                    return;
                };
                // The assembler pads short bundles with NOPs up to the
                // issue width; anything else past the scheduled slots —
                // or a bundle shorter than the schedule — is divergence.
                let nop = epic_isa::Instruction::nop();
                if assembled.len() < bundle.len()
                    || assembled[bundle.len()..].iter().any(|i| *i != nop)
                {
                    diags.push(
                        Diagnostic::error(
                            "TV009",
                            format!(
                                "bundle {c} ({}) holds {} slot(s) in the assembly, {} in the schedule (plus NOP padding)",
                                sb.label,
                                assembled.len(),
                                bundle.len()
                            ),
                        )
                        .with_bundle(c, None),
                    );
                    c += 1;
                    continue;
                }
                for (slot, (op, instr)) in bundle.iter().zip(assembled).enumerate() {
                    match resolve(op, program) {
                        Ok(expected) => {
                            if expected != *instr {
                                diags.push(
                                    Diagnostic::error(
                                        "TV009",
                                        format!(
                                            "bundle {c} slot {slot} ({}): assembled `{instr:?}` diverges from scheduled `{op}`",
                                            sb.label
                                        ),
                                    )
                                    .with_bundle(c, Some(slot)),
                                );
                            }
                        }
                        Err(label) => {
                            diags.push(
                                Diagnostic::error(
                                    "TV009",
                                    format!(
                                        "bundle {c} slot {slot}: scheduled op targets unknown label `{label}`"
                                    ),
                                )
                                .with_bundle(c, Some(slot)),
                            );
                        }
                    }
                }
                c += 1;
            }
        }
    }
    if c != bundles.len() {
        diags.push(Diagnostic::error(
            "TV009",
            format!(
                "assembled program holds {} bundle(s), the schedule accounts for {c}",
                bundles.len()
            ),
        ));
    }
    if let Some(first) = trace.functions.first().and_then(|f| f.scheduled.first()) {
        if program.label(&first.label) == Some(program.entry()) {
            // entry points at the first scheduled block — good.
        } else {
            diags.push(Diagnostic::error(
                "TV009",
                format!(
                    "program entry (bundle {}) is not the first scheduled block `{}`",
                    program.entry(),
                    first.label
                ),
            ));
        }
    }
}

/// Converts a scheduled op to the instruction the assembler should have
/// produced, resolving `@label` operands through the program's symbol
/// table. Returns the unresolved label on failure.
fn resolve(op: &MOp, program: &epic_asm::Program) -> Result<epic_isa::Instruction, String> {
    if let MSrc::Label(l) = &op.src1 {
        let Some(addr) = program.label(l) else {
            return Err(l.clone());
        };
        let resolved = MOp {
            src1: MSrc::Lit(i64::from(addr)),
            src2: op.src2.clone(),
            ..*op
        };
        Ok(to_instruction(&resolved))
    } else {
        Ok(to_instruction(op))
    }
}
