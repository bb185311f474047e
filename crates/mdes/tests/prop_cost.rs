//! Property tests: [`StaticBundleCost`] is the single source of truth
//! for bundle pricing, so it must agree with the arithmetic its three
//! consumers (simulator decoder, scheduler, verifier VER003/VER004)
//! previously computed by hand — re-derived here per-op, from the ISA
//! alone, for random legal bundles.

use epic_config::Config;
use epic_isa::{Btr, CmpCond, Gpr, Instruction, Opcode, Operand, PredReg, Unit};
use epic_mdes::MachineDescription;
use proptest::prelude::*;

/// One random operation for issue slot `slot`.
///
/// Destinations are derived from the slot index so a bundle never
/// write-conflicts with itself (WAW within a bundle is illegal); sources
/// are unconstrained.
fn op_strategy(slot: u16) -> impl Strategy<Value = Instruction> {
    let d = Gpr(1 + slot * 2);
    let t = PredReg(1 + slot * 2);
    let f = PredReg(2 + slot * 2);
    let b = Btr(slot);
    (0u8..8, 0u16..16, 0u16..16, -64i64..64).prop_map(move |(kind, s1, s2, lit)| match kind {
        0 => Instruction::alu3(Opcode::Add, d, Operand::Gpr(Gpr(s1)), Operand::Gpr(Gpr(s2))),
        1 => Instruction::alu3(Opcode::Xor, d, Operand::Gpr(Gpr(s1)), Operand::Lit(lit)),
        2 => Instruction::movil(d, lit),
        3 => Instruction::load(
            Opcode::Lw,
            d,
            Operand::Gpr(Gpr(s1)),
            Operand::Lit(lit & 0xfc),
        ),
        4 => Instruction::store(
            Opcode::Sw,
            Gpr(s2),
            Operand::Gpr(Gpr(s1)),
            Operand::Lit(lit & 0xfc),
        ),
        5 => Instruction::cmp(
            CmpCond::Lt,
            t,
            f,
            Operand::Gpr(Gpr(s1)),
            Operand::Gpr(Gpr(s2)),
        ),
        6 => Instruction::pbr(b, Operand::Lit(lit.abs())),
        _ => Instruction::alu3(Opcode::Div, d, Operand::Gpr(Gpr(s1)), Operand::Gpr(Gpr(s2))),
    })
}

/// A random bundle of up to four distinct-destination operations.
fn bundle_strategy() -> impl Strategy<Value = Vec<Instruction>> {
    (
        1usize..=4,
        op_strategy(0),
        op_strategy(1),
        op_strategy(2),
        op_strategy(3),
    )
        .prop_map(|(width, a, b, c, d)| {
            let mut ops = vec![a, b, c, d];
            ops.truncate(width);
            ops
        })
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

    #[test]
    fn bundle_cost_matches_the_per_op_arithmetic(bundle in bundle_strategy()) {
        let mdes = MachineDescription::new(
            &Config::builder().num_alus(4).build().expect("valid config"),
        );
        if mdes.check_bundle(&bundle).is_err() {
            // Random kinds can oversubscribe the single LSU/CMPU/BRU;
            // only legal bundles are priced downstream.
            continue;
        }
        let cost = mdes.bundle_cost(&bundle);

        // VER003's port arithmetic: every GPR source read plus every
        // GPR write occupies one register-file port operation.
        let ports: usize = bundle
            .iter()
            .map(|op| op.gpr_reads().len() + usize::from(op.gpr_write().is_some()))
            .sum();
        prop_assert_eq!(cost.port_ops, ports);
        prop_assert_eq!(mdes.regfile_ops(&bundle), ports);

        // Worst-case result latency and unit occupancy over the bundle.
        let max_latency = bundle.iter().map(|op| mdes.latency(op.opcode)).max().unwrap_or(0);
        let max_occupancy = bundle.iter().map(|op| mdes.occupancy(op.opcode)).max().unwrap_or(0);
        prop_assert_eq!(cost.max_latency, max_latency);
        prop_assert_eq!(cost.max_occupancy, max_occupancy);

        // VER002's demand counts: NOPs claim no unit.
        for unit in [Unit::Alu, Unit::Lsu, Unit::Cmpu, Unit::Bru] {
            let wanted = bundle.iter().filter(|op| op.opcode.unit() == Some(unit)).count();
            prop_assert_eq!(cost.demand(unit), wanted, "unit {:?}", unit);
        }

        // The simulator's port-stall formula: extra cycles beyond the
        // first needed to stream `ports` operations through the budget.
        for budget in [4usize, 8, 16] {
            let needed = ports.div_ceil(budget).max(1);
            prop_assert_eq!(cost.extra_port_cycles(budget), (needed - 1) as u32);
        }
    }
}
