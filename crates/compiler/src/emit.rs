//! Control finalisation and assembly emission.
//!
//! After register allocation the CFG still ends in abstract terminators.
//! [`finalize_control`] lowers them onto the BTR-based branch model of the
//! datapath — "BTR stands for branch target register, which stores
//! destination addresses which are calculated in advance" (paper §3.2):
//! every transfer becomes a `PBR` that loads a branch target register and
//! a branch through it, with fall-throughs elided. The scheduler may then
//! float the `PBR` early in the block while the branch anchors the end.
//!
//! [`emit_program`] renders scheduled functions as the bundle-structured
//! assembly accepted by `epic-asm`: one instruction per line, bundles
//! terminated by `;;`, labels on their own lines, `@label` operands for
//! `PBR` targets.

use crate::mir::{MBlockId, MDest, MFunction, MInst, MOp, MSrc, MTerm};
use crate::regalloc::Abi;
use crate::sched::{block_label, ScheduledBlock};
use epic_config::Config;
use epic_isa::Opcode;
use std::fmt::Write as _;

/// BTR used for taken-branch targets within a function.
pub const BRANCH_BTR: u16 = 1;
/// BTR used for the second target of a two-way transfer.
pub const BRANCH_BTR_ALT: u16 = 2;
/// BTR used for calls and returns (loaded from the link register).
pub const CALL_BTR: u16 = 0;

/// Replaces abstract terminators with real `PBR`/branch operations and
/// returns the reachable-block layout (in emission order).
///
/// Fall-through transfers emit no instructions; conditional branches pick
/// `BRCT`/`BRCF` so the fall-through successor is next in layout whenever
/// possible.
pub fn finalize_control(mfunc: &mut MFunction, abi: &Abi) -> Vec<MBlockId> {
    // Reachable blocks in layout (creation) order.
    let mut reachable = vec![false; mfunc.blocks.len()];
    let mut stack = vec![MBlockId(0)];
    reachable[0] = true;
    while let Some(b) = stack.pop() {
        for s in mfunc.block(b).term.successors() {
            if !reachable[s.0 as usize] {
                reachable[s.0 as usize] = true;
                stack.push(s);
            }
        }
    }
    let layout: Vec<MBlockId> = (0..mfunc.blocks.len() as u32)
        .map(MBlockId)
        .filter(|b| reachable[b.0 as usize])
        .collect();

    let next_of = |b: MBlockId| -> Option<MBlockId> {
        layout
            .iter()
            .position(|x| *x == b)
            .and_then(|i| layout.get(i + 1))
            .copied()
    };

    let name = mfunc.name.clone();
    let label = |b: MBlockId| block_label(&name, b.0);

    for &bi in &layout {
        let term = mfunc.blocks[bi.0 as usize].term.clone();
        let next = next_of(bi);
        let insts = &mut mfunc.blocks[bi.0 as usize].insts;
        match term {
            MTerm::Jump(t) => {
                if next != Some(t) {
                    insts.push(pbr_label(BRANCH_BTR, &label(t)));
                    insts.push(branch(Opcode::Br, BRANCH_BTR, 0));
                }
            }
            MTerm::CondJump {
                pred,
                on_true,
                on_false,
            } => {
                if next == Some(on_false) {
                    insts.push(pbr_label(BRANCH_BTR, &label(on_true)));
                    insts.push(branch(Opcode::Brct, BRANCH_BTR, pred));
                } else if next == Some(on_true) {
                    insts.push(pbr_label(BRANCH_BTR, &label(on_false)));
                    insts.push(branch(Opcode::Brcf, BRANCH_BTR, pred));
                } else {
                    insts.push(pbr_label(BRANCH_BTR, &label(on_true)));
                    insts.push(branch(Opcode::Brct, BRANCH_BTR, pred));
                    insts.push(pbr_label(BRANCH_BTR_ALT, &label(on_false)));
                    insts.push(branch(Opcode::Br, BRANCH_BTR_ALT, 0));
                }
            }
            MTerm::Ret(value) => {
                debug_assert!(
                    value.is_none(),
                    "regalloc moves return values to the ABI register"
                );
                let mut pbr = MOp::bare(Opcode::Pbr);
                pbr.dest1 = MDest::Btr(CALL_BTR);
                pbr.src1 = MSrc::Gpr(abi.link);
                insts.push(MInst::Op(pbr));
                insts.push(branch(Opcode::Br, CALL_BTR, 0));
            }
            MTerm::Halt => {
                insts.push(MInst::Op(MOp::bare(Opcode::Halt)));
            }
        }
    }
    layout
}

fn pbr_label(btr: u16, target: &str) -> MInst {
    let mut op = MOp::bare(Opcode::Pbr);
    op.dest1 = MDest::Btr(btr);
    op.src1 = MSrc::Label(target.to_owned());
    MInst::Op(op)
}

fn branch(opcode: Opcode, btr: u16, guard: u32) -> MInst {
    let mut op = MOp::bare(opcode);
    op.src1 = MSrc::Btr(btr);
    op.guard = guard;
    MInst::Op(op)
}

/// Appends one operation in assembler syntax (labels kept symbolic).
pub fn write_op(out: &mut String, op: &MOp, config: &Config) {
    if let MSrc::Label(l) = &op.src1 {
        // Only PBR carries labels.
        let MDest::Btr(b) = op.dest1 else {
            unreachable!("label source outside PBR")
        };
        write!(out, "PBR b{b}, @{l}").expect("writing to a String cannot fail");
        return;
    }
    epic_isa::write_disassembly(out, &crate::sched::to_instruction(op), config);
}

/// Renders scheduled functions into the complete assembly module.
///
/// `functions` are emitted in order; the first block of the first entry
/// is the program's entry point, also named by the `.entry` directive.
#[must_use]
pub fn emit_program(functions: &[Vec<ScheduledBlock>], config: &Config) -> String {
    let mut out = String::new();
    out.push_str("; EPIC assembly (generated)\n");
    if let Some(first) = functions.first().and_then(|f| f.first()) {
        out.push_str(".entry ");
        out.push_str(&first.label);
        out.push('\n');
    }
    for function in functions {
        for block in function {
            out.push('\n');
            out.push_str(&block.label);
            out.push_str(":\n");
            for bundle in &block.bundles {
                for op in bundle {
                    out.push_str("    ");
                    write_op(&mut out, op, config);
                    out.push('\n');
                }
                out.push_str(";;\n");
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mir::MBlock;

    fn abi() -> Abi {
        Abi::new(&Config::default()).unwrap()
    }

    fn mfunc_with(terms: Vec<MTerm>) -> MFunction {
        MFunction {
            name: "t".into(),
            params: vec![],
            blocks: terms
                .into_iter()
                .enumerate()
                .map(|(i, term)| MBlock {
                    id: MBlockId(i as u32),
                    insts: vec![],
                    term,
                })
                .collect(),
            vreg_count: 0,
            vpred_count: 1,
            allocated: true,
            frame_bytes: 0,
            makes_calls: false,
        }
    }

    #[test]
    fn fallthrough_jump_emits_nothing() {
        let mut f = mfunc_with(vec![MTerm::Jump(MBlockId(1)), MTerm::Halt]);
        let layout = finalize_control(&mut f, &abi());
        assert_eq!(layout.len(), 2);
        assert!(f.blocks[0].insts.is_empty());
        assert_eq!(f.blocks[1].insts.len(), 1); // HALT
    }

    #[test]
    fn backward_jump_emits_pbr_and_br() {
        let mut f = mfunc_with(vec![MTerm::Jump(MBlockId(0))]);
        finalize_control(&mut f, &abi());
        let ops: Vec<Opcode> = f.blocks[0]
            .insts
            .iter()
            .filter_map(MInst::as_op)
            .map(|o| o.opcode)
            .collect();
        assert_eq!(ops, vec![Opcode::Pbr, Opcode::Br]);
    }

    #[test]
    fn cond_jump_prefers_fallthrough_false_arm() {
        let mut f = mfunc_with(vec![
            MTerm::CondJump {
                pred: 1,
                on_true: MBlockId(2),
                on_false: MBlockId(1),
            },
            MTerm::Halt,
            MTerm::Halt,
        ]);
        finalize_control(&mut f, &abi());
        let ops: Vec<Opcode> = f.blocks[0]
            .insts
            .iter()
            .filter_map(MInst::as_op)
            .map(|o| o.opcode)
            .collect();
        assert_eq!(ops, vec![Opcode::Pbr, Opcode::Brct]);
    }

    #[test]
    fn cond_jump_inverts_for_true_fallthrough() {
        let mut f = mfunc_with(vec![
            MTerm::CondJump {
                pred: 1,
                on_true: MBlockId(1),
                on_false: MBlockId(2),
            },
            MTerm::Halt,
            MTerm::Halt,
        ]);
        finalize_control(&mut f, &abi());
        let ops: Vec<Opcode> = f.blocks[0]
            .insts
            .iter()
            .filter_map(MInst::as_op)
            .map(|o| o.opcode)
            .collect();
        assert_eq!(ops, vec![Opcode::Pbr, Opcode::Brcf]);
    }

    #[test]
    fn unreachable_blocks_are_dropped_from_layout() {
        let mut f = mfunc_with(vec![MTerm::Halt, MTerm::Halt]);
        let layout = finalize_control(&mut f, &abi());
        assert_eq!(layout, vec![MBlockId(0)]);
    }

    #[test]
    fn ret_branches_through_the_link_register() {
        let mut f = mfunc_with(vec![MTerm::Ret(None)]);
        finalize_control(&mut f, &abi());
        let pbr = f.blocks[0].insts[0].as_op().unwrap();
        assert_eq!(pbr.opcode, Opcode::Pbr);
        assert_eq!(pbr.src1, MSrc::Gpr(abi().link));
    }
}
