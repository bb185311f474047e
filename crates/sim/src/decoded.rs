//! The decode-once program representation.
//!
//! The interpretive core re-read `Instruction` operand/opcode enums and
//! re-queried the machine description for latencies, unit classes and
//! port costs on every cycle. This module performs all of that work once
//! at load time: [`DecodedProgram::decode`] walks the bundle vector with
//! [`epic_mdes::MachineDescription::bundle_cost`] and lowers each bundle
//! into flat index/latency arrays plus a pre-resolved
//! [`crate::semantics::Action`] per operation, so the per-cycle loop in
//! `machine.rs` touches only dense arrays and precomputed costs.
//! Decoding changes no semantics — the differential regression suite
//! holds [`crate::Simulator`] bit-identical to
//! [`crate::ReferenceSimulator`] on every stat counter.

use crate::error::SimError;
use crate::semantics::{decode_action, gpr_ready_after, DecodedOp};
use epic_config::Config;
use epic_isa::{Instruction, Opcode, Unit};
use epic_mdes::MachineDescription;

/// One issue bundle lowered to dense issue/execute arrays.
#[derive(Debug, Clone)]
pub(crate) struct DecodedBundle {
    /// Executable operations (`NOP` padding is counted, not stored).
    pub ops: Box<[DecodedOp]>,
    /// GPR indices the bundle reads (scoreboard + port accounting).
    pub gpr_reads: Box<[u16]>,
    /// Predicate indices the bundle reads (guards and `MOVPG` sources).
    pub pred_reads: Box<[u16]>,
    /// BTR indices the bundle reads.
    pub btr_reads: Box<[u16]>,
    /// `(gpr, cycles-until-readable)` per writer; result latency and the
    /// no-forwarding penalty are baked in at decode time.
    pub gpr_writes: Box<[(u16, u64)]>,
    /// Predicate indices written (p0 writes are dropped at decode).
    pub pred_writes: Box<[u16]>,
    /// BTR indices written.
    pub btr_writes: Box<[u16]>,
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
/// `Config`, `MachineDescription` or `Instruction` again.
#[derive(Debug)]
pub(crate) struct DecodedProgram {
    /// The decoded bundles, indexed by bundle address.
    pub bundles: Box<[DecodedBundle]>,
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
        let decoded = bundles
            .iter()
            .enumerate()
            .map(|(pc, bundle)| decode_bundle(&mdes, config, pc as u32, bundle, forwarding))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(DecodedProgram {
            bundles: decoded.into_boxed_slice(),
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
}

fn decode_bundle(
    mdes: &MachineDescription,
    config: &Config,
    pc: u32,
    bundle: &[Instruction],
    forwarding: bool,
) -> Result<DecodedBundle, SimError> {
    mdes.check_bundle(bundle)
        .map_err(|e| SimError::IllegalBundle {
            pc,
            message: e.to_string(),
        })?;
    let cost = mdes.bundle_cost(bundle);

    let mut gpr_reads = Vec::new();
    let mut pred_reads = Vec::new();
    let mut btr_reads = Vec::new();
    let mut gpr_writes = Vec::new();
    let mut pred_writes = Vec::new();
    let mut btr_writes = Vec::new();
    let mut ops = Vec::new();
    let mut div_ops = 0u32;
    let mut write_ports = 0usize;
    let mut nops = 0u64;
    let mut unit_ops = [0u64; 4];

    for instr in bundle {
        gpr_reads.extend(instr.gpr_reads().iter().map(|r| r.0));
        pred_reads.extend(instr.pred_reads().iter().map(|p| p.0));
        btr_reads.extend(instr.btr_read().map(|b| b.0));
        if let Some(r) = instr.gpr_write() {
            let latency = u64::from(mdes.latency(instr.opcode));
            gpr_writes.push((r.0, gpr_ready_after(latency, forwarding)));
            write_ports += 1;
        }
        pred_writes.extend(instr.pred_writes().iter().filter(|p| p.0 != 0).map(|p| p.0));
        btr_writes.extend(instr.btr_write().map(|b| b.0));
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
        ops.push(DecodedOp {
            guard: instr.pred.0,
            action: decode_action(config, pc, instr)?,
        });
    }

    Ok(DecodedBundle {
        instructions: bundle.len() as u64 - nops,
        ops: ops.into_boxed_slice(),
        gpr_reads: gpr_reads.into_boxed_slice(),
        pred_reads: pred_reads.into_boxed_slice(),
        btr_reads: btr_reads.into_boxed_slice(),
        gpr_writes: gpr_writes.into_boxed_slice(),
        pred_writes: pred_writes.into_boxed_slice(),
        btr_writes: btr_writes.into_boxed_slice(),
        div_ops,
        alu_wanted: cost.demand(Unit::Alu),
        write_ports,
        nops,
        unit_ops,
    })
}
