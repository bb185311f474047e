//! The decode-once program representation.
//!
//! The interpretive core re-read `Instruction` operand/opcode enums and
//! re-queried the machine description for latencies, unit classes and
//! port costs on every cycle. This module performs all of that work once
//! at load time: [`DecodedProgram::decode`] walks the bundle vector with
//! [`epic_mdes::MachineDescription::bundle_cost`] and lowers each bundle
//! into flat index/latency arrays plus a pre-resolved
//! [`crate::semantics::Action`] per operation, so the per-cycle loop in
//! `machine.rs` touches only dense arrays and precomputed costs. The
//! lists of every bundle share four program-wide arrays, so decoding a
//! program allocates a handful of arrays, not seven per bundle.
//! Decoding changes no semantics — the differential regression suite
//! holds [`crate::Simulator`] bit-identical to
//! [`crate::ReferenceSimulator`] on every stat counter.

use crate::error::SimError;
use crate::semantics::{decode_action, gpr_ready_after, DecodedOp};
use epic_config::Config;
use epic_isa::{Instruction, Opcode, Unit};
use epic_mdes::MachineDescription;

/// One issue bundle's entry in the decoded program: where its lists sit
/// in the program-wide arrays, plus its precomputed issue costs.
#[derive(Debug, Clone, Copy)]
pub(crate) struct DecodedBundle {
    /// Executable operations (`NOP` padding is counted, not stored):
    /// [`DecodedProgram::ops`].
    ops: [u32; 2],
    /// The register lists in `DecodedProgram::regs`, back to back: GPR
    /// reads (scoreboard + port accounting), predicate reads (guards
    /// and `MOVPG` sources), BTR reads, predicate writes (p0 writes are
    /// dropped at decode) and BTR writes. List `k` spans
    /// `regs[k]..regs[k + 1]`.
    regs: [u32; 6],
    /// `(gpr, cycles-until-readable)` per writer, result latency and
    /// the no-forwarding penalty baked in:
    /// [`DecodedProgram::gpr_writes`].
    gpr_writes: [u32; 2],
    /// Blocking divides to book on ALU instances at issue.
    pub div_ops: u32,
    /// Operations wanting an ALU instance this cycle.
    pub alu_wanted: usize,
    /// GPR write-port operations (the write half of port accounting).
    pub write_ports: usize,
    /// `NOP` slots (statistics only).
    pub nops: u64,
    /// Non-`NOP` instructions (statistics only).
    pub instructions: u64,
    /// Per-unit-class operation counts (statistics only).
    pub unit_ops: [u64; 4],
}

/// A program decoded once against one configuration.
///
/// Owns everything the per-cycle loop needs, so stepping never touches
/// `Config`, `MachineDescription` or `Instruction` again. Every
/// bundle's operation and register lists live in four program-wide
/// arrays, addressed by the bundle's ranges.
#[derive(Debug)]
pub(crate) struct DecodedProgram {
    /// The decoded bundles, indexed by bundle address.
    pub bundles: Box<[DecodedBundle]>,
    op_table: Box<[DecodedOp]>,
    reg_table: Box<[u16]>,
    gpr_write_table: Box<[(u16, u64)]>,
    /// Whether the register-file controller forwards results.
    pub forwarding: bool,
    /// Register-file port operations serviced per processor cycle.
    pub port_budget: usize,
    /// Whether data accesses displace instruction fetch (§3.2).
    pub mem_contention: bool,
    /// Result mask of the customised datapath width.
    pub datapath_mask: u32,
    /// Datapath width handed to custom-op semantics.
    pub custom_width: u32,
    /// Cycles the iterative divider blocks its ALU instance.
    pub div_occupancy: u64,
    /// Fetch bubbles per taken branch beyond the squashed fetch
    /// (`pipeline_stages - 2`, §6's pipelining parameter).
    pub flush_penalty: u32,
    /// The custom-op registry, cloned so execution never touches `Config`.
    pub custom_ops: Box<[epic_config::CustomOp]>,
}

impl DecodedProgram {
    /// Decodes `bundles` against `config`, validating each bundle.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::IllegalBundle`] when a bundle violates the
    /// machine description or names an unregistered custom-op slot.
    pub fn decode(config: &Config, bundles: &[Vec<Instruction>]) -> Result<Self, SimError> {
        let mdes = MachineDescription::new(config);
        let forwarding = config.forwarding();
        let instructions: usize = bundles.iter().map(Vec::len).sum();
        let mut tables = Tables {
            ops: Vec::with_capacity(instructions),
            regs: Vec::with_capacity(2 * instructions),
            gpr_writes: Vec::with_capacity(instructions),
        };
        let decoded = bundles
            .iter()
            .enumerate()
            .map(|(pc, bundle)| {
                decode_bundle(&mdes, config, pc as u32, bundle, forwarding, &mut tables)
            })
            .collect::<Result<Box<[_]>, _>>()?;
        Ok(DecodedProgram {
            bundles: decoded,
            op_table: tables.ops.into_boxed_slice(),
            reg_table: tables.regs.into_boxed_slice(),
            gpr_write_table: tables.gpr_writes.into_boxed_slice(),
            forwarding,
            port_budget: config.regfile_ops_per_cycle(),
            mem_contention: config.memory_contention(),
            datapath_mask: config.datapath_mask() as u32,
            custom_width: config.datapath_width(),
            div_occupancy: u64::from(config.div_latency()),
            flush_penalty: config.pipeline_stages() as u32 - 2,
            custom_ops: config.custom_ops().to_vec().into_boxed_slice(),
        })
    }

    /// The bundle's executable operations.
    pub fn ops(&self, bundle: &DecodedBundle) -> &[DecodedOp] {
        &self.op_table[bundle.ops[0] as usize..bundle.ops[1] as usize]
    }

    fn regs(&self, bundle: &DecodedBundle, list: usize) -> &[u16] {
        &self.reg_table[bundle.regs[list] as usize..bundle.regs[list + 1] as usize]
    }

    /// GPR indices the bundle reads (scoreboard + port accounting).
    pub fn gpr_reads(&self, bundle: &DecodedBundle) -> &[u16] {
        self.regs(bundle, 0)
    }

    /// Predicate indices the bundle reads (guards and `MOVPG` sources).
    pub fn pred_reads(&self, bundle: &DecodedBundle) -> &[u16] {
        self.regs(bundle, 1)
    }

    /// BTR indices the bundle reads.
    pub fn btr_reads(&self, bundle: &DecodedBundle) -> &[u16] {
        self.regs(bundle, 2)
    }

    /// Predicate indices the bundle writes.
    pub fn pred_writes(&self, bundle: &DecodedBundle) -> &[u16] {
        self.regs(bundle, 3)
    }

    /// BTR indices the bundle writes.
    pub fn btr_writes(&self, bundle: &DecodedBundle) -> &[u16] {
        self.regs(bundle, 4)
    }

    /// `(gpr, cycles-until-readable)` per GPR writer.
    pub fn gpr_writes(&self, bundle: &DecodedBundle) -> &[(u16, u64)] {
        &self.gpr_write_table[bundle.gpr_writes[0] as usize..bundle.gpr_writes[1] as usize]
    }
}

/// The program-wide arrays while they fill.
struct Tables {
    ops: Vec<DecodedOp>,
    regs: Vec<u16>,
    gpr_writes: Vec<(u16, u64)>,
}

fn decode_bundle(
    mdes: &MachineDescription,
    config: &Config,
    pc: u32,
    bundle: &[Instruction],
    forwarding: bool,
    tables: &mut Tables,
) -> Result<DecodedBundle, SimError> {
    mdes.check_bundle(bundle)
        .map_err(|e| SimError::IllegalBundle {
            pc,
            message: e.to_string(),
        })?;
    let cost = mdes.bundle_cost(bundle);
    let at = |len: usize| len as u32;

    // The register lists, one pass over the bundle each, so each list
    // is contiguous.
    let mut regs = [0u32; 6];
    regs[0] = at(tables.regs.len());
    for instr in bundle {
        tables.regs.extend(instr.gpr_reads().iter().map(|r| r.0));
    }
    regs[1] = at(tables.regs.len());
    for instr in bundle {
        tables.regs.extend(instr.pred_reads().iter().map(|p| p.0));
    }
    regs[2] = at(tables.regs.len());
    tables
        .regs
        .extend(bundle.iter().filter_map(|i| i.btr_read()).map(|b| b.0));
    regs[3] = at(tables.regs.len());
    for instr in bundle {
        tables
            .regs
            .extend(instr.pred_writes().iter().filter(|p| p.0 != 0).map(|p| p.0));
    }
    regs[4] = at(tables.regs.len());
    tables
        .regs
        .extend(bundle.iter().filter_map(|i| i.btr_write()).map(|b| b.0));
    regs[5] = at(tables.regs.len());

    let ops_start = at(tables.ops.len());
    let writes_start = at(tables.gpr_writes.len());
    let mut div_ops = 0u32;
    let mut write_ports = 0usize;
    let mut nops = 0u64;
    let mut unit_ops = [0u64; 4];
    for instr in bundle {
        if let Some(r) = instr.gpr_write() {
            let latency = u64::from(mdes.latency(instr.opcode));
            tables
                .gpr_writes
                .push((r.0, gpr_ready_after(latency, forwarding)));
            write_ports += 1;
        }
        if matches!(instr.opcode, Opcode::Div | Opcode::Rem) {
            div_ops += 1;
        }
        if instr.opcode == Opcode::Nop {
            nops += 1;
            continue;
        }
        match instr.opcode.unit() {
            Some(Unit::Alu) => unit_ops[0] += 1,
            Some(Unit::Lsu) => unit_ops[1] += 1,
            Some(Unit::Cmpu) => unit_ops[2] += 1,
            Some(Unit::Bru) => unit_ops[3] += 1,
            None => {}
        }
        tables.ops.push(DecodedOp {
            guard: instr.pred.0,
            action: decode_action(config, pc, instr)?,
        });
    }

    Ok(DecodedBundle {
        instructions: bundle.len() as u64 - nops,
        ops: [ops_start, at(tables.ops.len())],
        regs,
        gpr_writes: [writes_start, at(tables.gpr_writes.len())],
        div_ops,
        alu_wanted: cost.demand(Unit::Alu),
        write_ports,
        nops,
        unit_ops,
    })
}
