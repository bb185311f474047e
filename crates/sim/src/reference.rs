//! The pre-decode interpretive engine, kept as the differential oracle.
//!
//! This is the original interpret-every-cycle core: it re-reads
//! [`Instruction`] enums and re-derives latencies, unit classes and port
//! costs from the configuration on every cycle. The production
//! [`crate::Simulator`] decodes the program once instead; this engine
//! stays structurally as it was so differential tests (and the
//! throughput race, `repro -- bench --throughput`) can hold the fast
//! cores bit-identical to the model the paper's numbers were validated
//! against. The architectural
//! effect of each operation is the shared
//! [`crate::semantics::execute_op`] — one source of truth for all
//! engines instead of hand-synchronised copies; this engine still
//! re-resolves every instruction's [`crate::semantics::Action`] each
//! time it executes.

use crate::error::SimError;
use crate::memory::Memory;
use crate::semantics::{
    apply_writes, decode_action, execute_op, gpr_ready_after, DecodedOp, ExecCtx, Write,
};
use crate::stats::{SimStats, StallCause};
use crate::trace::{NopSink, TraceSink};
use epic_config::Config;
use epic_isa::{Instruction, Opcode, Unit};
use std::sync::Arc;

/// Default cycle budget before a run is declared runaway.
const DEFAULT_CYCLE_LIMIT: u64 = 20_000_000_000;

/// The interpret-every-cycle simulator (golden reference).
///
/// Architecturally identical to [`crate::Simulator`] — same 2-stage
/// pipeline, scoreboard, port budget, predication and branch model —
/// but paying full instruction interpretation each cycle. Use it only
/// to cross-validate [`crate::Simulator`].
#[derive(Debug, Clone)]
pub struct ReferenceSimulator {
    config: Config,
    bundles: Arc<[Vec<Instruction>]>,
    memory: Memory,
    pc: u32,
    gprs: Vec<u32>,
    preds: Vec<bool>,
    btrs: Vec<u32>,
    gpr_ready: Vec<u64>,
    pred_ready: Vec<u64>,
    btr_ready: Vec<u64>,
    alu_busy: Vec<u64>,
    stage2: Option<u32>,
    port_wait: u32,
    port_wait_pc: Option<u32>,
    mem_debt: u32,
    flush_wait: u32,
    cycle: u64,
    halted: bool,
    stats: SimStats,
    cycle_limit: u64,
}

impl ReferenceSimulator {
    /// Creates a reference simulator (see [`crate::Simulator::try_new`]).
    ///
    /// # Errors
    ///
    /// Returns [`SimError::IllegalBundle`] if a bundle violates the
    /// machine description or names an unregistered custom-op slot, the
    /// error [`crate::Simulator::try_new`] returns for the same bundles.
    pub fn try_new(
        config: &Config,
        bundles: impl Into<Arc<[Vec<Instruction>]>>,
        entry: u32,
    ) -> Result<Self, SimError> {
        let bundles = bundles.into();
        let mdes = epic_mdes::MachineDescription::new(config);
        for (pc, bundle) in bundles.iter().enumerate() {
            let pc = pc as u32;
            mdes.check_bundle(bundle)
                .map_err(|e| SimError::IllegalBundle {
                    pc,
                    message: e.to_string(),
                })?;
            for instr in bundle {
                decode_action(config, pc, instr)?;
            }
        }
        Ok(ReferenceSimulator {
            gprs: vec![0; config.num_gprs()],
            preds: vec![false; config.num_pred_regs()],
            btrs: vec![0; config.num_btrs()],
            gpr_ready: vec![0; config.num_gprs()],
            pred_ready: vec![0; config.num_pred_regs()],
            btr_ready: vec![0; config.num_btrs()],
            alu_busy: vec![0; config.num_alus()],
            memory: Memory::new(0),
            pc: entry,
            stage2: None,
            port_wait: 0,
            port_wait_pc: None,
            mem_debt: 0,
            flush_wait: 0,
            cycle: 0,
            halted: false,
            stats: SimStats::default(),
            cycle_limit: DEFAULT_CYCLE_LIMIT,
            config: config.clone(),
            bundles,
        })
    }

    /// Installs the data memory.
    pub fn set_memory(&mut self, memory: Memory) {
        self.memory = memory;
    }

    /// Caps the simulated cycles.
    pub fn set_cycle_limit(&mut self, limit: u64) {
        self.cycle_limit = limit;
    }

    /// The data memory.
    #[must_use]
    pub fn memory(&self) -> &Memory {
        &self.memory
    }

    /// Mutable access to the data memory (see
    /// [`Simulator::memory_mut`](crate::Simulator::memory_mut)).
    pub fn memory_mut(&mut self) -> &mut Memory {
        &mut self.memory
    }

    /// Reads a general-purpose register.
    #[must_use]
    pub fn gpr(&self, index: usize) -> u32 {
        self.gprs[index]
    }

    /// Reads a predicate register (`p0` is hard-wired true).
    #[must_use]
    pub fn pred(&self, index: usize) -> bool {
        if index == 0 {
            true
        } else {
            self.preds[index]
        }
    }

    /// Reads a branch target register.
    #[must_use]
    pub fn btr(&self, index: usize) -> u32 {
        self.btrs[index]
    }

    /// Whether the processor has executed `HALT`.
    #[must_use]
    pub fn is_halted(&self) -> bool {
        self.halted
    }

    /// Statistics gathered so far.
    #[must_use]
    pub fn stats(&self) -> &SimStats {
        &self.stats
    }

    /// Runs until `HALT` (or an error).
    ///
    /// # Errors
    ///
    /// Returns the first [`SimError`] raised.
    pub fn run(&mut self) -> Result<&SimStats, SimError> {
        while self.step()? {}
        Ok(&self.stats)
    }

    /// Runs until `HALT`, streaming per-cycle events into `sink`.
    ///
    /// The oracle emits events at exactly the same sites as the decoded
    /// [`crate::Simulator`], so differential tests can demand
    /// bit-identical event streams from the two engines.
    ///
    /// # Errors
    ///
    /// Returns the first [`SimError`] raised.
    pub fn run_with_sink<S: TraceSink>(&mut self, sink: &mut S) -> Result<&SimStats, SimError> {
        while self.step_with_sink(sink)? {}
        Ok(&self.stats)
    }

    /// Advances one processor cycle. Returns `false` once halted.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::MemoryFault`] for faulting accesses,
    /// [`SimError::PcOutOfRange`] for runaway fetch and
    /// [`SimError::CycleLimit`] past the cycle budget.
    pub fn step(&mut self) -> Result<bool, SimError> {
        self.step_with_sink(&mut NopSink)
    }

    /// [`step`](ReferenceSimulator::step), streaming this cycle's events
    /// into `sink`.
    ///
    /// # Errors
    ///
    /// Returns the first [`SimError`] raised (see
    /// [`step`](ReferenceSimulator::step)).
    pub fn step_with_sink<S: TraceSink>(&mut self, sink: &mut S) -> Result<bool, SimError> {
        if self.halted {
            return Ok(false);
        }
        if self.cycle >= self.cycle_limit {
            return Err(SimError::CycleLimit {
                limit: self.cycle_limit,
            });
        }

        // ---- stage 2: execute + write back -----------------------------
        let mut redirect = None;
        if let Some(bpc) = self.stage2.take() {
            redirect = self.execute_bundle(bpc, sink)?;
        }

        if self.halted {
            sink.halt(self.cycle);
            sink.cycle_retired(self.cycle);
            self.cycle += 1;
            self.stats.cycles = self.cycle;
            return Ok(true);
        }

        // ---- stage 1: fetch / decode / issue ---------------------------
        if let Some(target) = redirect {
            self.pc = target;
            self.stats.stalls.branch_flush += 1;
            sink.stall(self.cycle, target, StallCause::BranchFlush);
            self.flush_wait = self.config.pipeline_stages() as u32 - 2;
        } else if self.flush_wait > 0 {
            self.flush_wait -= 1;
            self.stats.stalls.branch_flush += 1;
            sink.stall(self.cycle, self.pc, StallCause::BranchFlush);
        } else if self.mem_debt >= 2 {
            self.mem_debt -= 2;
            self.stats.stalls.memory_contention += 1;
            sink.stall(self.cycle, self.pc, StallCause::MemoryContention);
        } else {
            self.try_issue(sink)?;
        }

        sink.cycle_retired(self.cycle);
        self.cycle += 1;
        self.stats.cycles = self.cycle;
        Ok(true)
    }

    fn try_issue<S: TraceSink>(&mut self, sink: &mut S) -> Result<(), SimError> {
        let pc = self.pc;
        if pc as usize >= self.bundles.len() {
            return Err(SimError::PcOutOfRange {
                pc,
                bundles: self.bundles.len(),
            });
        }
        let exec_cycle = self.cycle + 1;
        let bundle = &self.bundles[pc as usize];

        // Operand scoreboard.
        let hazard = bundle.iter().any(|instr| {
            instr
                .gpr_reads()
                .iter()
                .any(|r| self.gpr_ready[r.0 as usize] > exec_cycle)
                || instr
                    .pred_reads()
                    .iter()
                    .any(|p| self.pred_ready[p.0 as usize] > exec_cycle)
                || instr
                    .btr_read()
                    .is_some_and(|b| self.btr_ready[b.0 as usize] > exec_cycle)
        });
        if hazard {
            self.stats.stalls.data_hazard += 1;
            sink.stall(self.cycle, pc, StallCause::DataHazard);
            return Ok(());
        }
        let bundle = &self.bundles[pc as usize];

        // Functional-unit availability (the blocking divider).
        let alu_wanted = bundle
            .iter()
            .filter(|i| i.opcode.unit() == Some(Unit::Alu))
            .count();
        let alu_free = self.alu_busy.iter().filter(|&&b| b <= exec_cycle).count();
        if alu_wanted > alu_free {
            self.stats.stalls.unit_busy += 1;
            sink.stall(self.cycle, pc, StallCause::UnitBusy);
            return Ok(());
        }
        let bundle = &self.bundles[pc as usize];

        // Register-file port budget.
        let forwarding = self.config.forwarding();
        let mut ports = 0usize;
        for instr in bundle {
            for r in instr.gpr_reads() {
                let forwarded = forwarding && self.gpr_ready[r.0 as usize] == exec_cycle;
                if !forwarded {
                    ports += 1;
                }
            }
            if instr.gpr_write().is_some() {
                ports += 1;
            }
        }
        let budget = self.config.regfile_ops_per_cycle();
        let needed_cycles = ports.div_ceil(budget).max(1) as u32;
        if self.port_wait_pc != Some(pc) && needed_cycles > 1 {
            self.port_wait = needed_cycles - 1;
            self.port_wait_pc = Some(pc);
        }
        if self.port_wait > 0 {
            self.port_wait -= 1;
            self.stats.stalls.regfile_port += 1;
            sink.stall(self.cycle, pc, StallCause::RegfilePort);
            return Ok(());
        }
        self.port_wait_pc = None;
        sink.bundle_issue(self.cycle, pc, ports, budget);

        // Issue: book destinations and unit occupancy.
        let bundle = &self.bundles[pc as usize];
        for instr in bundle {
            let latency = u64::from(instr.opcode.latency(&self.config));
            if let Some(r) = instr.gpr_write() {
                self.gpr_ready[r.0 as usize] = exec_cycle + gpr_ready_after(latency, forwarding);
            }
            for p in instr.pred_writes() {
                if p.0 != 0 {
                    self.pred_ready[p.0 as usize] = exec_cycle + 1;
                }
            }
            if let Some(b) = instr.btr_write() {
                self.btr_ready[b.0 as usize] = exec_cycle + 1;
            }
            if matches!(instr.opcode, Opcode::Div | Opcode::Rem) {
                let occupancy = u64::from(self.config.div_latency());
                if let Some(slot) = self.alu_busy.iter_mut().find(|b| **b <= exec_cycle) {
                    *slot = exec_cycle + occupancy;
                }
            }
        }
        self.stage2 = Some(pc);
        self.pc = pc + 1;
        Ok(())
    }

    fn execute_bundle<S: TraceSink>(
        &mut self,
        bpc: u32,
        sink: &mut S,
    ) -> Result<Option<u32>, SimError> {
        let bundle = self.bundles[bpc as usize].clone();
        let mut writes: Vec<Write> = Vec::with_capacity(bundle.len());
        let mut redirect: Option<u32> = None;
        self.stats.bundles += 1;

        // Pre-count the bundle's shape so the execute event fires before
        // the per-instruction squash/memory events, exactly as in
        // `Simulator` (whose counts are resolved at load time).
        let mut unit_ops = [0u64; 4];
        let mut nops = 0u64;
        for instr in &bundle {
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
        }
        sink.bundle_execute(self.cycle, bpc, bundle.len() as u64 - nops, nops, &unit_ops);

        let cycle = self.cycle;
        let mut ctx = ExecCtx {
            gprs: &self.gprs,
            preds: &self.preds,
            btrs: &self.btrs,
            memory: &mut self.memory,
            stats: &mut self.stats,
            mem_debt: &mut self.mem_debt,
            halted: &mut self.halted,
            datapath_mask: self.config.datapath_mask() as u32,
            custom_width: self.config.datapath_width(),
            mem_contention: self.config.memory_contention(),
            custom_ops: self.config.custom_ops(),
        };
        for instr in &bundle {
            if instr.opcode == Opcode::Nop {
                ctx.stats.nops += 1;
                continue;
            }
            ctx.stats.instructions += 1;
            match instr.opcode.unit() {
                Some(Unit::Alu) => ctx.stats.alu_busy_cycles += 1,
                Some(Unit::Lsu) => ctx.stats.lsu_busy_cycles += 1,
                Some(Unit::Cmpu) => ctx.stats.cmpu_busy_cycles += 1,
                Some(Unit::Bru) => ctx.stats.bru_busy_cycles += 1,
                None => {}
            }
            let op = DecodedOp {
                guard: instr.pred.0,
                action: decode_action(&self.config, bpc, instr)
                    .expect("actions validated at construction"),
            };
            execute_op(&mut ctx, op, bpc, cycle, &mut writes, &mut redirect, sink)?;
        }

        apply_writes(&mut self.gprs, &mut self.preds, &mut self.btrs, &mut writes);
        Ok(redirect)
    }
}
