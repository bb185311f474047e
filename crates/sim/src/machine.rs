//! The 2-stage pipeline.

use crate::decoded::DecodedProgram;
use crate::error::SimError;
use crate::memory::Memory;
use crate::semantics::{apply_writes, execute_op, ExecCtx, Write};
use crate::stats::{SimStats, StallCause, StallEvent};
use crate::threaded::{BeforeAccess, ToHalt, Translation};
use crate::trace::{NopSink, TraceSink};
use epic_config::Config;
use epic_isa::Instruction;
use std::ops::Range;
use std::sync::Arc;

/// Default cycle budget before a run is declared runaway.
const DEFAULT_CYCLE_LIMIT: u64 = 20_000_000_000;

/// What the front half of a cycle (halt check, cycle budget, execute
/// stage) decided, so `step` and the threaded run loop can share it.
pub(crate) enum StepPhase {
    /// Already halted before the cycle began: nothing to do.
    Halted,
    /// `HALT` executed this cycle; the cycle has been retired.
    Drained,
    /// Proceed to the issue stage, with the execute stage's redirect.
    Issue(Option<u32>),
}

/// The cycle-level simulator.
///
/// One [`Simulator`] models one customised processor executing one loaded
/// program. The pipeline has two stages, as in the prototype (§3.2): the
/// Fetch/Decode/Issue unit forms the first stage and everything else —
/// the ALUs, LSU, CMPU, BRU and write-back — the second. Issue performs
/// the hazard checks (operand scoreboard, unit availability, register-file
/// port budget); execute resolves branches and performs memory traffic.
///
/// The program is decoded **once** at construction (see
/// `crates/sim/src/decoded.rs`): unit classes, latencies, port costs,
/// operand indices and custom-op semantics are resolved up front, so the
/// per-cycle loop touches only dense arrays.
///
/// The machine runs in one of two modes, with bit-identical results.
/// [`step`](Simulator::step), an observing [`TraceSink`] and stall
/// recording run the **per-cycle** loop. An unobserved
/// [`run`](Simulator::run) or
/// [`run_until_access`](Simulator::run_until_access) runs the
/// **threaded** loop (`threaded.rs`): the first such run translates the
/// program's basic blocks into chained step streams and keeps the
/// translation for later runs, so a simulator that is only stepped or
/// observed never builds one. Both modes are bit-identical to the
/// interpretive [`crate::ReferenceSimulator`].
#[derive(Debug, Clone)]
pub struct Simulator {
    /// The decoded program, shared with clones.
    pub(crate) program: Arc<DecodedProgram>,
    /// Registers, scoreboard, memory and statistics.
    pub(crate) machine: Machine,
    /// The threaded run loop's step table, built by
    /// [`translate`](Simulator::translate) or the first unobserved run.
    pub(crate) translation: Translation,
}

/// The state both loops advance: everything a [`Simulator`] holds apart
/// from its program and its translation. Kept apart so a cycle borrows
/// the shared program and the mutable state side by side, without
/// touching the program's reference count.
#[derive(Debug, Clone)]
pub(crate) struct Machine {
    pub(crate) memory: Memory,
    pub(crate) pc: u32,
    pub(crate) gprs: Vec<u32>,
    pub(crate) preds: Vec<bool>,
    pub(crate) btrs: Vec<u32>,
    /// Cycle from which each register's latest value is readable.
    pub(crate) gpr_ready: Vec<u64>,
    pub(crate) pred_ready: Vec<u64>,
    pub(crate) btr_ready: Vec<u64>,
    /// Busy-until cycle per ALU instance (the blocking divider).
    pub(crate) alu_busy: Vec<u64>,
    /// Bundle in the execute stage this cycle.
    pub(crate) stage2: Option<u32>,
    /// Remaining extra cycles the register-file controller needs before
    /// the bundle at `pc` can issue, and the bundle the wait was armed
    /// for (so the wait is paid exactly once per bundle).
    pub(crate) port_wait: u32,
    pub(crate) port_wait_pc: Option<u32>,
    /// Outstanding fetch-bandwidth debt in controller half-cycles: each
    /// data access displaces half a processor cycle of instruction fetch
    /// on the shared 2× memory controller.
    pub(crate) mem_debt: u32,
    /// Remaining flush bubbles after a taken branch (depth - 1 total;
    /// the first is implicit in the squashed fetch).
    pub(crate) flush_wait: u32,
    pub(crate) cycle: u64,
    pub(crate) halted: bool,
    pub(crate) stats: SimStats,
    pub(crate) cycle_limit: u64,
    /// Opt-in per-cycle stall log (see [`Simulator::record_stalls`]).
    pub(crate) record_stalls: bool,
    stall_log: Vec<StallEvent>,
    /// Reused write-back buffer (no per-bundle allocation).
    write_buf: Vec<Write>,
}

impl Simulator {
    /// Creates a simulator for a configuration, program and entry bundle.
    ///
    /// The program is validated and decoded once, up front. The data
    /// memory starts empty; install one with
    /// [`set_memory`](Simulator::set_memory) before running programs that
    /// touch memory.
    ///
    /// `bundles` is a `Vec` of bundles, or an assembled program's
    /// `shared_bundles()`, which the simulator keeps without copying.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::IllegalBundle`] if a bundle violates the
    /// machine description or names an unregistered custom-op slot —
    /// `epic-asm` output never does; only hand-built bundle vectors can.
    pub fn try_new(
        config: &Config,
        bundles: impl Into<Arc<[Vec<Instruction>]>>,
        entry: u32,
    ) -> Result<Self, SimError> {
        let bundles = bundles.into();
        let program = DecodedProgram::decode(config, &bundles)?;
        let machine = Machine {
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
            record_stalls: false,
            stall_log: Vec::new(),
            write_buf: Vec::new(),
        };
        Ok(Simulator {
            program: Arc::new(program),
            machine,
            translation: Translation::pending(config, bundles, entry),
        })
    }

    /// Installs the data memory (e.g. a module's initial image).
    pub fn set_memory(&mut self, memory: Memory) {
        self.machine.memory = memory;
    }

    /// Caps the simulated cycles (runaway backstop).
    pub fn set_cycle_limit(&mut self, limit: u64) {
        self.machine.cycle_limit = limit;
    }

    /// The data memory.
    #[must_use]
    pub fn memory(&self) -> &Memory {
        &self.machine.memory
    }

    /// Mutable access to the data memory, for host-side agents (a mesh
    /// interconnect delivering into a memory-mapped mailbox) that patch
    /// words between cycles via [`Memory::poke_word`].
    pub fn memory_mut(&mut self) -> &mut Memory {
        &mut self.machine.memory
    }

    /// Reads a general-purpose register.
    #[must_use]
    pub fn gpr(&self, index: usize) -> u32 {
        self.machine.gprs[index]
    }

    /// Reads a predicate register (`p0` is hard-wired true).
    #[must_use]
    pub fn pred(&self, index: usize) -> bool {
        if index == 0 {
            true
        } else {
            self.machine.preds[index]
        }
    }

    /// Reads a branch target register.
    #[must_use]
    pub fn btr(&self, index: usize) -> u32 {
        self.machine.btrs[index]
    }

    /// Elapsed processor cycles.
    #[must_use]
    pub fn cycle(&self) -> u64 {
        self.machine.cycle
    }

    /// Whether the processor has executed `HALT`.
    #[must_use]
    pub fn is_halted(&self) -> bool {
        self.machine.halted
    }

    /// Statistics gathered so far.
    #[must_use]
    pub fn stats(&self) -> &SimStats {
        &self.machine.stats
    }

    /// Enables (or disables) per-cycle stall recording.
    ///
    /// Off by default: the log grows by one [`StallEvent`] per stall
    /// cycle, which long runs cannot afford. The verifier's differential
    /// oracle turns it on to attribute every stall to a bundle address.
    pub fn record_stalls(&mut self, on: bool) {
        self.machine.record_stalls = on;
    }

    /// The stall events recorded so far (empty unless
    /// [`record_stalls`](Simulator::record_stalls) was enabled).
    #[must_use]
    pub fn stall_log(&self) -> &[StallEvent] {
        &self.machine.stall_log
    }

    /// Runs until `HALT` (or an error) on the threaded loop, building
    /// the translation on the first call (unless stall recording is on,
    /// which keeps the per-cycle loop).
    ///
    /// # Errors
    ///
    /// Returns the first [`SimError`] raised, with the interrupted
    /// machine state identical to the per-cycle loop's.
    pub fn run(&mut self) -> Result<&SimStats, SimError> {
        self.run_with_sink(&mut NopSink)
    }

    /// Runs until `HALT`, streaming per-cycle events into `sink`.
    ///
    /// The loop is monomorphised per sink type. A blind sink
    /// (`S::OBSERVED == false`, as [`NopSink`]) makes this exactly
    /// [`run`](Simulator::run). An observing sink runs the per-cycle
    /// loop, so every issue, stall, squash and memory access is reported
    /// as it happens, and builds no translation.
    ///
    /// # Errors
    ///
    /// Returns the first [`SimError`] raised.
    pub fn run_with_sink<S: TraceSink>(&mut self, sink: &mut S) -> Result<&SimStats, SimError> {
        self.run_until(sink, &ToHalt)?;
        Ok(&self.machine.stats)
    }

    /// Runs until `HALT`, an error, or the top of the first cycle whose
    /// execute stage would load or store a byte of `window`, on the
    /// threaded loop (per cycle while stall recording is on). Returns
    /// `true` at such a cycle and `false` once halted.
    ///
    /// A stop leaves the machine exactly where stepping would, so the
    /// next [`step`](Simulator::step) performs the access. The check
    /// ignores guards, so a run may stop before an access its guard
    /// squashes; stepping that cycle and running on is exact all the
    /// same. A caller sharing a memory-mapped window with an external
    /// agent (the many-core array's mailbox) runs ahead this way and
    /// steps each access at the agent's time.
    ///
    /// # Errors
    ///
    /// Returns the first [`SimError`] raised, with the interrupted
    /// machine state identical to the per-cycle loop's.
    pub fn run_until_access(&mut self, window: Range<u32>) -> Result<bool, SimError> {
        self.run_until(&mut NopSink, &BeforeAccess(window))
    }

    /// Advances one processor cycle on the per-cycle loop. Returns
    /// `false` once halted.
    ///
    /// A caller stepping the machine in lockstep with external agents
    /// sees every cycle; stepping never builds the threaded
    /// translation.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::MemoryFault`] for faulting accesses,
    /// [`SimError::PcOutOfRange`] for runaway fetch and
    /// [`SimError::CycleLimit`] past the cycle budget.
    pub fn step(&mut self) -> Result<bool, SimError> {
        self.step_with_sink(&mut NopSink)
    }

    /// [`step`](Simulator::step), streaming this cycle's events into
    /// `sink`.
    ///
    /// # Errors
    ///
    /// Returns the first [`SimError`] raised (see [`step`](Simulator::step)).
    pub fn step_with_sink<S: TraceSink>(&mut self, sink: &mut S) -> Result<bool, SimError> {
        self.machine.step_program(&self.program, sink)
    }
}

impl Machine {
    fn note_stall(&mut self, pc: u32, cause: StallCause) {
        if self.record_stalls {
            self.stall_log.push(StallEvent {
                cycle: self.cycle,
                pc,
                cause,
            });
        }
    }

    /// One cycle of the per-cycle loop. Returns `false` once halted.
    pub(crate) fn step_program<S: TraceSink>(
        &mut self,
        program: &DecodedProgram,
        sink: &mut S,
    ) -> Result<bool, SimError> {
        match self.step_front(program, sink)? {
            StepPhase::Halted => Ok(false),
            StepPhase::Drained => Ok(true),
            StepPhase::Issue(redirect) => {
                if !self.pre_issue_stall(program, redirect, sink) {
                    self.try_issue(program, sink)?;
                }
                self.finish_cycle(sink);
                Ok(true)
            }
        }
    }

    /// The front half of one cycle: halt latch, cycle budget, stage-2
    /// execute + write-back and the halt drain.
    pub(crate) fn step_front<S: TraceSink>(
        &mut self,
        program: &DecodedProgram,
        sink: &mut S,
    ) -> Result<StepPhase, SimError> {
        if self.halted {
            return Ok(StepPhase::Halted);
        }
        if self.cycle >= self.cycle_limit {
            return Err(SimError::CycleLimit {
                limit: self.cycle_limit,
            });
        }

        // ---- stage 2: execute + write back -----------------------------
        let mut redirect = None;
        if let Some(bpc) = self.stage2.take() {
            redirect = self.execute_bundle(program, bpc, sink)?;
        }

        if self.halted {
            sink.halt(self.cycle);
            self.finish_cycle(sink);
            return Ok(StepPhase::Drained);
        }
        Ok(StepPhase::Issue(redirect))
    }

    /// The pre-issue stall ladder (branch redirect, flush bubbles, memory
    /// contention). Returns `true` when the front end stalled this cycle.
    pub(crate) fn pre_issue_stall<S: TraceSink>(
        &mut self,
        program: &DecodedProgram,
        redirect: Option<u32>,
        sink: &mut S,
    ) -> bool {
        if let Some(target) = redirect {
            // The bundle fetched this cycle is squashed; deeper pipelines
            // lose one further fetch cycle per extra stage (§6's
            // pipelining parameter).
            self.pc = target;
            self.stats.stalls.branch_flush += 1;
            self.note_stall(target, StallCause::BranchFlush);
            sink.stall(self.cycle, target, StallCause::BranchFlush);
            self.flush_wait = program.flush_penalty;
            true
        } else if self.flush_wait > 0 {
            self.flush_wait -= 1;
            self.stats.stalls.branch_flush += 1;
            self.note_stall(self.pc, StallCause::BranchFlush);
            sink.stall(self.cycle, self.pc, StallCause::BranchFlush);
            true
        } else if self.mem_debt >= 2 {
            // The memory controller spent this cycle's fetch bandwidth on
            // data accesses; fetch resumes next cycle.
            self.mem_debt -= 2;
            self.stats.stalls.memory_contention += 1;
            self.note_stall(self.pc, StallCause::MemoryContention);
            sink.stall(self.cycle, self.pc, StallCause::MemoryContention);
            true
        } else {
            false
        }
    }

    /// Retires the cycle: the one place the cycle counter advances.
    pub(crate) fn finish_cycle<S: TraceSink>(&mut self, sink: &mut S) {
        sink.cycle_retired(self.cycle);
        self.cycle += 1;
        self.stats.cycles = self.cycle;
    }

    pub(crate) fn try_issue<S: TraceSink>(
        &mut self,
        program: &DecodedProgram,
        sink: &mut S,
    ) -> Result<(), SimError> {
        let pc = self.pc;
        let Some(bundle) = program.bundles.get(pc as usize) else {
            return Err(SimError::PcOutOfRange {
                pc,
                bundles: program.bundles.len(),
            });
        };
        let exec_cycle = self.cycle + 1;

        // Operand scoreboard.
        let hazard = (program.gpr_reads(bundle).iter())
            .any(|&r| self.gpr_ready[r as usize] > exec_cycle)
            || (program.pred_reads(bundle).iter())
                .any(|&p| self.pred_ready[p as usize] > exec_cycle)
            || (program.btr_reads(bundle).iter()).any(|&b| self.btr_ready[b as usize] > exec_cycle);
        if hazard {
            self.stats.stalls.data_hazard += 1;
            self.note_stall(pc, StallCause::DataHazard);
            sink.stall(self.cycle, pc, StallCause::DataHazard);
            return Ok(());
        }

        // Functional-unit availability (the blocking divider).
        let alu_free = self.alu_busy.iter().filter(|&&b| b <= exec_cycle).count();
        if bundle.alu_wanted > alu_free {
            self.stats.stalls.unit_busy += 1;
            self.note_stall(pc, StallCause::UnitBusy);
            sink.stall(self.cycle, pc, StallCause::UnitBusy);
            return Ok(());
        }

        // Register-file port budget: reads at issue + writes at WB share
        // the controller's slots; forwarded operands bypass the file.
        let mut ports = bundle.write_ports;
        for &r in program.gpr_reads(bundle) {
            let forwarded = program.forwarding && self.gpr_ready[r as usize] == exec_cycle;
            if !forwarded {
                ports += 1;
            }
        }
        let needed_cycles = ports.div_ceil(program.port_budget).max(1) as u32;
        if self.port_wait_pc != Some(pc) && needed_cycles > 1 {
            // The controller serialises the excess operations over extra
            // cycles; arm the wait once per bundle.
            self.port_wait = needed_cycles - 1;
            self.port_wait_pc = Some(pc);
        }
        if self.port_wait > 0 {
            self.port_wait -= 1;
            self.stats.stalls.regfile_port += 1;
            self.note_stall(pc, StallCause::RegfilePort);
            sink.stall(self.cycle, pc, StallCause::RegfilePort);
            return Ok(());
        }
        self.port_wait_pc = None;
        sink.bundle_issue(self.cycle, pc, ports, program.port_budget);

        // Issue: book destinations and unit occupancy for the execute
        // stage next cycle.
        for &(r, ready_after) in program.gpr_writes(bundle) {
            self.gpr_ready[r as usize] = exec_cycle + ready_after;
        }
        for &p in program.pred_writes(bundle) {
            self.pred_ready[p as usize] = exec_cycle + 1;
        }
        for &b in program.btr_writes(bundle) {
            self.btr_ready[b as usize] = exec_cycle + 1;
        }
        for _ in 0..bundle.div_ops {
            if let Some(slot) = self.alu_busy.iter_mut().find(|b| **b <= exec_cycle) {
                *slot = exec_cycle + program.div_occupancy;
            }
        }
        self.stage2 = Some(pc);
        self.pc = pc + 1;
        Ok(())
    }

    /// Executes one bundle: all reads see pre-bundle state, writes apply
    /// together at the end, squashed instructions write nothing. The
    /// per-op semantics live in [`crate::semantics::execute_op`], shared
    /// with the reference engine.
    pub(crate) fn execute_bundle<S: TraceSink>(
        &mut self,
        program: &DecodedProgram,
        bpc: u32,
        sink: &mut S,
    ) -> Result<Option<u32>, SimError> {
        let bundle = &program.bundles[bpc as usize];
        let mut writes = std::mem::take(&mut self.write_buf);
        writes.clear();
        let mut redirect: Option<u32> = None;
        self.stats.bundles += 1;
        self.stats.nops += bundle.nops;
        self.stats.instructions += bundle.instructions;
        self.stats.alu_busy_cycles += bundle.unit_ops[0];
        self.stats.lsu_busy_cycles += bundle.unit_ops[1];
        self.stats.cmpu_busy_cycles += bundle.unit_ops[2];
        self.stats.bru_busy_cycles += bundle.unit_ops[3];
        sink.bundle_execute(
            self.cycle,
            bpc,
            bundle.instructions,
            bundle.nops,
            &bundle.unit_ops,
        );

        let cycle = self.cycle;
        let mut ctx = ExecCtx {
            gprs: &self.gprs,
            preds: &self.preds,
            btrs: &self.btrs,
            memory: &mut self.memory,
            stats: &mut self.stats,
            mem_debt: &mut self.mem_debt,
            halted: &mut self.halted,
            datapath_mask: program.datapath_mask,
            custom_width: program.custom_width,
            mem_contention: program.mem_contention,
            custom_ops: &program.custom_ops,
        };
        for op in program.ops(bundle) {
            if let Err(e) = execute_op(&mut ctx, *op, bpc, cycle, &mut writes, &mut redirect, sink)
            {
                // The faulting bundle never retires: its buffered writes
                // are discarded (stores already applied stay applied).
                self.write_buf = writes;
                return Err(e);
            }
        }

        apply_writes(&mut self.gprs, &mut self.preds, &mut self.btrs, &mut writes);
        self.write_buf = writes;
        Ok(redirect)
    }
}

#[cfg(test)]
impl Machine {
    /// Asserts that two machines hold the same state, field by field
    /// (the write-back scratch buffer aside): the contract between the
    /// per-cycle and the threaded loop, for finished and for
    /// interrupted runs alike.
    pub(crate) fn assert_same(&self, want: &Machine, label: &str) {
        assert_eq!(self.stats, want.stats, "{label}: stats");
        assert_eq!(self.cycle, want.cycle, "{label}: cycle");
        assert_eq!(self.pc, want.pc, "{label}: pc");
        assert_eq!(self.halted, want.halted, "{label}: halted");
        assert_eq!(self.stage2, want.stage2, "{label}: stage 2");
        assert_eq!(self.gprs, want.gprs, "{label}: GPRs");
        assert_eq!(self.preds, want.preds, "{label}: predicates");
        assert_eq!(self.btrs, want.btrs, "{label}: BTRs");
        assert_eq!(self.gpr_ready, want.gpr_ready, "{label}: GPR readiness");
        assert_eq!(
            self.pred_ready, want.pred_ready,
            "{label}: predicate readiness"
        );
        assert_eq!(self.btr_ready, want.btr_ready, "{label}: BTR readiness");
        assert_eq!(self.alu_busy, want.alu_busy, "{label}: ALU occupancy");
        assert_eq!(self.port_wait, want.port_wait, "{label}: port wait");
        assert_eq!(
            self.port_wait_pc, want.port_wait_pc,
            "{label}: port wait pc"
        );
        assert_eq!(self.mem_debt, want.mem_debt, "{label}: memory debt");
        assert_eq!(self.flush_wait, want.flush_wait, "{label}: flush wait");
        assert_eq!(self.stall_log, want.stall_log, "{label}: stall log");
        assert_eq!(self.memory.bytes(), want.memory.bytes(), "{label}: memory");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use epic_asm::assemble;

    fn load(src: &str, config: &Config, memory: u32) -> Simulator {
        let program = assemble(src, config).expect("assembles");
        let mut sim = Simulator::try_new(config, program.bundles().to_vec(), program.entry())
            .expect("legal program");
        sim.set_memory(Memory::new(memory));
        sim
    }

    /// Steps `sim` to halt on the per-cycle loop and `run`s an
    /// untranslated clone of it; both must end in the same state.
    /// Returns the stepped copy.
    fn halt_both_ways(mut sim: Simulator) -> Simulator {
        let mut run = sim.clone();
        while sim.step().expect("steps") {}
        run.run().expect("runs");
        run.machine.assert_same(&sim.machine, "run vs step");
        sim
    }

    /// Steps `sim` to its first error on the per-cycle loop and `run`s
    /// an untranslated clone of it; both must fail with the same error
    /// and leave the same interrupted state. Returns the error.
    fn fail_both_ways(mut sim: Simulator) -> SimError {
        let mut run = sim.clone();
        let stepped = loop {
            match sim.step() {
                Ok(true) => {}
                Ok(false) => panic!("halted without an error"),
                Err(e) => break e,
            }
        };
        let ran = run.run().expect_err("run fails too");
        assert_eq!(ran, stepped, "run vs step: error");
        run.machine.assert_same(&sim.machine, "run vs step");
        stepped
    }

    fn run_asm(src: &str, config: &Config) -> Simulator {
        halt_both_ways(load(src, config, 4096))
    }

    #[test]
    fn arithmetic_and_halt() {
        let c = Config::default();
        let sim = run_asm(
            "    MOVE r1, #40\n;;\n    ADD r2, r1, #2\n;;\n    HALT\n;;\n",
            &c,
        );
        assert_eq!(sim.gpr(2), 42);
        // 3 bundles + 1-cycle pipeline fill.
        assert_eq!(sim.stats().cycles, 4);
        assert_eq!(sim.stats().bundles, 3);
    }

    #[test]
    fn forwarding_enables_back_to_back_dependent_bundles() {
        let c = Config::default();
        let sim = run_asm(
            "    MOVE r1, #1\n;;\n    ADD r1, r1, #1\n;;\n    ADD r1, r1, #1\n;;\n    HALT\n;;\n",
            &c,
        );
        assert_eq!(sim.gpr(1), 3);
        assert_eq!(
            sim.stats().stalls.data_hazard,
            0,
            "latency-1 chain never stalls"
        );
    }

    #[test]
    fn forwarding_off_costs_a_cycle_per_dependence() {
        let c = Config::builder().forwarding(false).build().unwrap();
        let sim = run_asm(
            "    MOVE r1, #1\n;;\n    ADD r1, r1, #1\n;;\n    HALT\n;;\n",
            &c,
        );
        assert_eq!(sim.gpr(1), 2);
        assert!(sim.stats().stalls.data_hazard >= 1);
    }

    #[test]
    fn predication_squashes_writes() {
        let c = Config::default();
        let sim = run_asm(
            "\
    MOVE r1, #5
    MOVE r2, #100
;;
    CMP_LT p1, p2, r1, #3
;;
    MOVE r2, #1 (p1)
    MOVE r3, #2 (p2)
;;
    HALT
;;
",
            &c,
        );
        // 5 < 3 is false: p1 clear, p2 set.
        assert_eq!(sim.gpr(2), 100, "guarded write squashed");
        assert_eq!(sim.gpr(3), 2, "complement side committed");
        assert_eq!(sim.stats().squashed, 1);
    }

    #[test]
    fn taken_branch_flushes_one_fetch() {
        let c = Config::default();
        let sim = run_asm(
            "\
    PBR b1, @target
;;
    BR b1
;;
    MOVE r1, #111
;;
target:
    MOVE r2, #7
;;
    HALT
;;
",
            &c,
        );
        assert_eq!(sim.gpr(1), 0, "skipped by the branch");
        assert_eq!(sim.gpr(2), 7);
        assert_eq!(sim.stats().stalls.branch_flush, 1);
    }

    #[test]
    fn conditional_branch_both_ways() {
        let c = Config::default();
        let loop_src = "\
    MOVE r1, #0
    PBR b1, @head
;;
head:
    ADD r1, r1, #1
;;
    CMP_LT p1, p0, r1, #5
;;
    BRCT b1 (p1)
;;
    HALT
;;
";
        let sim = run_asm(loop_src, &c);
        assert_eq!(sim.gpr(1), 5, "loop ran 5 iterations");
        assert_eq!(sim.stats().stalls.branch_flush, 4, "4 taken back-edges");
    }

    #[test]
    fn deeper_pipelines_pay_longer_flushes() {
        let src = "\
    MOVE r1, #0
    PBR b1, @head
;;
head:
    ADD r1, r1, #1
;;
    CMP_LT p1, p0, r1, #5
;;
    BRCT b1 (p1)
;;
    HALT
;;
";
        let two = run_asm(src, &Config::default());
        let four = run_asm(src, &Config::builder().pipeline_stages(4).build().unwrap());
        assert_eq!(two.gpr(1), four.gpr(1), "semantics unchanged");
        assert_eq!(
            two.stats().stalls.branch_flush,
            4,
            "1 cycle per taken branch"
        );
        assert_eq!(
            four.stats().stalls.branch_flush,
            12,
            "3 cycles per taken branch at depth 4"
        );
        assert!(four.stats().cycles > two.stats().cycles);
    }

    #[test]
    fn brcf_branches_on_false() {
        let c = Config::default();
        let sim = run_asm(
            "\
    PBR b1, @skip
    CMP_EQ p1, p0, r0, #1
;;
    BRCF b1 (p1)
;;
    MOVE r1, #1
;;
skip:
    HALT
;;
",
            &c,
        );
        // r0==1 is false -> p1 false -> BRCF taken.
        assert_eq!(sim.gpr(1), 0);
    }

    #[test]
    fn memory_round_trip_and_bytes() {
        let c = Config::default();
        let sim = run_asm(
            "\
    MOVE r1, #64
    MOVIL r2, #305419896
;;
    SW r2, r1, #0
;;
    LW r3, r1, #0
;;
    LBU r4, r1, #4
;;
    LB r5, r1, #0
;;
    HALT
;;
",
            &c,
        );
        assert_eq!(sim.gpr(3), 0x12345678);
        assert_eq!(sim.gpr(4), 0, "beyond the stored word");
        assert_eq!(sim.gpr(5), 0x12, "big-endian: MSB first");
        assert_eq!(sim.stats().loads, 3);
        assert_eq!(sim.stats().stores, 1);
    }

    #[test]
    fn load_use_respects_latency() {
        let c = Config::builder().load_latency(2).build().unwrap();
        let sim = run_asm(
            "\
    MOVE r1, #64
;;
    LW r2, r1, #0
;;
    ADD r3, r2, #1
;;
    HALT
;;
",
            &c,
        );
        // The consumer bundle is only 1 cycle behind a latency-2 load:
        // one data-hazard stall.
        assert_eq!(sim.stats().stalls.data_hazard, 1);
        assert_eq!(sim.gpr(3), 1);
    }

    #[test]
    fn divider_blocks_subsequent_alu_work() {
        let c = Config::builder()
            .num_alus(1)
            .div_latency(8)
            .build()
            .unwrap();
        let sim = run_asm(
            "\
    MOVE r1, #100
;;
    DIV r2, r1, #7
;;
    ADD r3, r1, #1
;;
    HALT
;;
",
            &c,
        );
        assert_eq!(sim.gpr(2), 14);
        assert_eq!(sim.gpr(3), 101);
        assert!(
            sim.stats().stalls.unit_busy >= 6,
            "single ALU blocked by divide"
        );
    }

    #[test]
    fn port_budget_stalls_wide_read_bundles() {
        // 4 instructions × 3 ports = 12 > 8: one extra cycle.
        let c = Config::default();
        let sim = run_asm(
            "\
    MOVE r10, #1
    MOVE r11, #2
    MOVE r12, #3
    MOVE r13, #4
;;
    NOP
;;
    NOP
;;
    ADD r1, r10, r11
    ADD r2, r11, r12
    ADD r3, r12, r13
    ADD r4, r13, r10
;;
    HALT
;;
",
            &c,
        );
        assert_eq!(sim.stats().stalls.regfile_port, 1);
        assert_eq!(sim.gpr(1), 3);
        assert_eq!(sim.gpr(4), 5);
    }

    #[test]
    fn brl_links_and_returns() {
        let c = Config::default();
        let sim = run_asm(
            "\
    PBR b0, @callee
;;
    BRL r10, b0
;;
    MOVE r1, #1
;;
    HALT
;;
callee:
    MOVE r2, #2
    PBR b0, r10
;;
    BR b0
;;
",
            &c,
        );
        assert_eq!(sim.gpr(2), 2, "callee ran");
        assert_eq!(sim.gpr(1), 1, "returned to the bundle after BRL");
        assert_eq!(sim.gpr(10), 2, "link holds the return bundle address");
    }

    #[test]
    fn runaway_pc_is_reported() {
        let c = Config::default();
        let err = fail_both_ways(load("    MOVE r1, #1\n;;\n", &c, 0));
        assert!(matches!(err, SimError::PcOutOfRange { pc: 1, .. }), "{err}");
    }

    #[test]
    fn cycle_limit_is_enforced() {
        let c = Config::default();
        let spin = "\
    PBR b1, @spin
;;
spin:
    BR b1
;;
";
        let mut sim = load(spin, &c, 0);
        sim.set_cycle_limit(100);
        let err = fail_both_ways(sim);
        assert_eq!(err, SimError::CycleLimit { limit: 100 });
    }

    #[test]
    fn memory_fault_reports_pc() {
        let c = Config::default();
        let src = "    MOVIL r1, #100000\n;;\n    LW r2, r1, #0\n;;\n    HALT\n;;\n";
        let err = fail_both_ways(load(src, &c, 64));
        assert!(matches!(err, SimError::MemoryFault { pc: 1, .. }), "{err}");
    }

    #[test]
    fn speculative_load_dismisses_faults() {
        let c = Config::default();
        let src = "    MOVIL r1, #100000\n;;\n    LWS r2, r1, #0\n;;\n    HALT\n;;\n";
        let sim = halt_both_ways(load(src, &c, 64));
        assert_eq!(sim.gpr(2), 0);
    }

    #[test]
    fn custom_instruction_executes() {
        let c = Config::builder()
            .custom_op(epic_config::CustomOp::new(
                "rotr",
                epic_config::CustomSemantics::RotateRight,
            ))
            .build()
            .unwrap();
        let sim = run_asm(
            "    MOVE r1, #1\n;;\n    rotr r2, r1, #1\n;;\n    HALT\n;;\n",
            &c,
        );
        assert_eq!(sim.gpr(2), 0x8000_0000);
    }

    #[test]
    fn try_new_rejects_illegal_bundles() {
        use epic_isa::{Gpr, Instruction, Opcode, Operand};
        let c = Config::default();
        let bundles = vec![
            vec![
                Instruction::load(Opcode::Lw, Gpr(1), Operand::Gpr(Gpr(2)), Operand::Lit(0)),
                Instruction::load(Opcode::Lw, Gpr(3), Operand::Gpr(Gpr(4)), Operand::Lit(4)),
            ],
            vec![Instruction::halt()],
        ];
        let err = Simulator::try_new(&c, bundles, 0).unwrap_err();
        assert!(
            matches!(err, SimError::IllegalBundle { pc: 0, .. }),
            "{err}"
        );
        assert!(err.to_string().contains("LSU"), "{err}");
    }

    #[test]
    fn try_new_rejects_unregistered_custom_slots() {
        use epic_isa::{Gpr, Instruction, Opcode, Operand};
        let c = Config::default();
        let bundles = vec![vec![Instruction::alu3(
            Opcode::Custom(0),
            Gpr(1),
            Operand::Gpr(Gpr(2)),
            Operand::Lit(1),
        )]];
        let err = Simulator::try_new(&c, bundles, 0).unwrap_err();
        assert!(
            matches!(err, SimError::IllegalBundle { pc: 0, .. }),
            "{err}"
        );
    }
}
