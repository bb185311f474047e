//! The threaded run loop behind an unobserved [`Simulator::run`].
//!
//! The per-cycle loop (`machine.rs`) re-derives the whole issue
//! negotiation — scoreboard scan, unit availability, port accounting,
//! stall ladder — on every cycle, and returns to its generic dispatch
//! loop after every bundle. Inside a straight-line basic block that
//! negotiation is a constant: the compiled-block substrate (`block.rs`)
//! replays it once per block and folds it into a [`CompiledBlock`] with
//! an exact entry signature.
//!
//! The threaded loop builds on that table and removes the dispatcher
//! from the hot path. The first unobserved run translates the decoded
//! program plus the [`CompiledBlock`] table into a flat **step table**
//! and keeps it for later runs: one pre-bound [`Step`] per bundle
//! address, resolving at translation time which addresses head a folded
//! stream and which fall back to per-cycle interpretation. The run loop
//! is then a tight `loop { match steps[pc] { ... } }` over that table
//! with no per-cycle scoreboard re-derivation on the fast path:
//!
//! * **Micro-op runs** — each stream's body is re-bound at translation
//!   time: maximal runs of *pure* bundles (no memory traffic, no op
//!   reading a register an earlier op of the same bundle writes)
//!   become flat arrays of pre-bound micro-ops executed with direct
//!   register writes — no write buffer, no `ExecCtx` construction —
//!   and their static statistics (bundles, nops, instructions,
//!   unit-busy cycles) fold into one delta applied per run. Pure runs
//!   cannot fault, so exactness is free; impure bundles (memory
//!   traffic) stay on the shared write-buffered path with the
//!   substrate's exact fault unwinding.
//! * **Block chaining** — after a stream's folded body executes, the
//!   terminator bundle runs *inside the chain loop* (through the shared
//!   `Machine::execute_bundle` write-back path), its redirect and
//!   flush bubbles are paid in place, and control jumps directly into
//!   the successor's step stream when its entry-readiness caps hold —
//!   without ever returning to the generic dispatcher. The
//!   [`chained_execs`](Simulator::chained_execs) counter records every
//!   such direct hand-off.
//! * **Trace linking** — a hot self-loop settles into a steady state:
//!   after one verified lap (leader → taken back-edge → same leader),
//!   every scoreboard residue at the next entry is a pure function of
//!   the block's own bookings and the lap length, so the loop memoises
//!   (block, scoreboard signature) and admits subsequent laps in O(1) —
//!   a cycle-budget compare — instead of re-scanning the entry caps.
//!   The signature is the fetch-bandwidth debt left by the terminator,
//!   the only lap-to-lap input that can change the lap's stall
//!   schedule; see `run_chain` for the full soundness argument.
//!
//! Everything irregular — entry caps violated, mid-flush, divides,
//! faults, cycle budget, untranslated addresses — leaves the chain and
//! re-enters the per-cycle dispatcher at a state it can resume exactly,
//! so `SimStats`, registers, memory and faults stay **bit-identical** to
//! stepping the same machine to halt, by construction. Stepping, an
//! observing [`TraceSink`] and per-cycle stall recording run the
//! per-cycle loop and never build the translation, so profile training
//! and stall logs pay nothing for it.
//!
//! # Stopping before a window access
//!
//! [`Simulator::run_until_access`] runs the same loop with one exact
//! stop: the top of the first cycle whose execute stage would load or
//! store a byte of a given address window, left exactly as stepping
//! leaves it, so the next [`Simulator::step`] performs the access. The
//! mesh array runs its cores ahead this way, between two accesses to
//! their mailbox windows. Each part of the loop checks the bundles it
//! is about to execute:
//!
//! * the dispatcher checks the bundle in stage 2 at the top of every
//!   cycle;
//! * a stream checks each body bundle with memory traffic before
//!   executing it, and on a hit rewinds through the shared
//!   `fault_unwind` — the state in which the per-cycle loop would have
//!   begun that bundle's execute cycle — with the bundle restored to
//!   stage 2;
//! * the chain checks a terminator before taking it.
//!
//! The check computes each load's and store's address from the
//! registers the execute stage would read and ignores guards: stopping
//! before a squashed access is still exact, since a stop is only ever a
//! state stepping passes through. [`run`](Simulator::run) shares this
//! code with a stop that never fires and compiles the checks away.

use crate::block::{compile_blocks, entry_ok, fault_unwind, fold_exit, CompiledBlock};
use crate::decoded::DecodedProgram;
use crate::error::SimError;
use crate::exec::{eval_alu_basic, eval_cmp};
use crate::machine::{Machine, Simulator, StepPhase};
use crate::semantics::{Action, DecodedOp, Src};
use crate::trace::{NopSink, TraceSink};
use epic_config::{Config, MAX_ISSUE_WIDTH};
use epic_isa::{Instruction, RegList};
use epic_mdes::cfg::Cfg;
use std::ops::Range;
use std::sync::Arc;

/// One entry of the translated step table, pre-bound per bundle address.
#[derive(Debug, Clone, Copy)]
enum Step {
    /// A folded stream starts here: index into the stream arena.
    Enter(u32),
    /// Untranslated address: issue per-cycle through the decoded path.
    Interp,
}

/// Statistics a pure micro-op run folds at translation time: every
/// counter `Machine::execute_bundle` bumps unconditionally, summed
/// over the run's bundles and applied in one shot per execution. Only
/// the squash counter is runtime-dependent (guards) and stays live.
#[derive(Debug, Clone, Copy, Default)]
struct RunStats {
    bundles: u64,
    nops: u64,
    instructions: u64,
    unit_ops: [u64; 4],
}

/// One step of a translated stream body.
#[derive(Debug, Clone, Copy)]
enum BodyStep {
    /// A run of consecutive *pure* bundles — no memory traffic (so no
    /// faults, no debt, no load/store counters) and no op reading a
    /// register an earlier op of the same bundle writes (so direct
    /// writes preserve the reads-see-pre-bundle-state contract). The
    /// ops live at `fast_ops[from..to]` and execute with direct
    /// register writes; the static statistics apply as one delta.
    Run {
        /// Start of the run's ops in the stream's flat arena.
        from: u32,
        /// End (exclusive) of the run's ops.
        to: u32,
        /// The run's pre-folded static statistics.
        stats: RunStats,
    },
    /// Body bundle `i` (relative to the leader) needs the full
    /// write-buffered execute path: memory traffic or an intra-bundle
    /// read of a just-written register.
    Exec(u32),
}

/// A translated stream: the folded block schedule and its body re-bound
/// as micro-op steps.
#[derive(Debug)]
struct Stream {
    block: CompiledBlock,
    /// The body translated into pure micro-op runs and exact-path
    /// fallbacks, in bundle order (terminator excluded).
    body: Box<[BodyStep]>,
    /// Flat arena of the pure runs' pre-bound ops.
    fast_ops: Box<[DecodedOp]>,
}

/// How a chain run handed control back.
enum ChainExit {
    /// `HALT` executed and its cycle retired; the run is complete.
    Halted,
    /// The run's stop fired: the machine is at the top of a cycle whose
    /// execute stage the stop must not run.
    Stopped,
    /// Control left the translated streams. `executed` reports whether
    /// any stream ran (if not, the dispatcher still owns this cycle and
    /// must issue per-cycle).
    Dispatch { executed: bool },
}

/// Where a run of the threaded loop stops short of halt: at the top of
/// a cycle whose execute stage would run a bundle the caller must see
/// executed on its own.
pub(crate) trait Stop {
    /// Whether the run stops before executing bundle `bpc` on `sim` now.
    fn before(&self, sim: &Machine, program: &DecodedProgram, bpc: u32) -> bool;

    /// Whether the run stops at the top of this cycle, before the
    /// execute stage runs the bundle in stage 2.
    #[inline]
    fn at_top(&self, sim: &Machine, program: &DecodedProgram) -> bool {
        sim.stage2.is_some_and(|bpc| self.before(sim, program, bpc))
    }
}

/// Runs to halt or an error: never stops early.
pub(crate) struct ToHalt;

impl Stop for ToHalt {
    #[inline(always)]
    fn before(&self, _: &Machine, _: &DecodedProgram, _: u32) -> bool {
        false
    }
}

/// Stops before the first execute stage that would load or store a byte
/// of an address window, guards ignored.
pub(crate) struct BeforeAccess(pub(crate) Range<u32>);

impl Stop for BeforeAccess {
    fn before(&self, sim: &Machine, program: &DecodedProgram, bpc: u32) -> bool {
        let bundle = &program.bundles[bpc as usize];
        // `unit_ops[1]` counts the bundle's loads and stores.
        bundle.unit_ops[1] > 0
            && program.ops(bundle).iter().any(|op| match op.action {
                Action::Load {
                    base,
                    offset,
                    width,
                    ..
                }
                | Action::Store {
                    base,
                    offset,
                    width,
                    ..
                } => {
                    let at = u64::from(src(sim, base).wrapping_add(src(sim, offset)));
                    at < u64::from(self.0.end) && at + u64::from(width) > u64::from(self.0.start)
                }
                _ => false,
            })
    }
}

/// What a translation is built from. The shared [`Cfg`] needs the
/// configuration and the undecoded bundles, so a simulator keeps them,
/// shared among its clones, until its first unobserved run.
#[derive(Debug)]
struct TranslationSource {
    config: Config,
    bundles: Arc<[Vec<Instruction>]>,
    entry: u32,
}

/// A simulator's step table and the threaded loop's counters.
///
/// Empty, with its source pending, until [`Simulator::translate`] or
/// the first unobserved run builds it; kept for every later run. The
/// tables never change once built, so clones share them and keep their
/// own trace-link memos and counters.
#[derive(Debug, Clone, Default)]
pub(crate) struct Translation {
    /// The source of a step table not built yet.
    pending: Option<Arc<TranslationSource>>,
    /// Pre-bound step per bundle address.
    steps: Arc<[Step]>,
    /// Arena of translated streams, indexed by [`Step::Enter`].
    streams: Arc<[Stream]>,
    /// Per stream, the memoised scoreboard signature of a verified
    /// self-loop lap: the fetch-bandwidth debt the terminator left
    /// behind. A later lap arriving with the same signature is
    /// admissible without re-scanning the entry caps.
    links: Vec<Option<u32>>,
    fast_blocks: u64,
    chained: u64,
    linked: u64,
}

impl Translation {
    /// A translation of `bundles` waiting for its first unobserved run.
    pub(crate) fn pending(config: &Config, bundles: Arc<[Vec<Instruction>]>, entry: u32) -> Self {
        Translation {
            pending: Some(Arc::new(TranslationSource {
                config: config.clone(),
                bundles,
                entry,
            })),
            ..Translation::default()
        }
    }

    /// Builds the step table, if still pending: every eligible basic
    /// block becomes a stream.
    fn build(&mut self, program: &DecodedProgram) {
        let Some(source) = self.pending.take() else {
            return;
        };
        let cfg = Cfg::build(&source.config, &source.bundles);
        // Translate *every* foldable block: chaining and trace linking
        // amortise the admission cost, and the micro-op runs make even
        // minimal windows profitable.
        let blocks = compile_blocks(program, &cfg, source.entry);
        let mut steps = vec![Step::Interp; program.bundles.len()];
        let mut streams = Vec::new();
        for (addr, block) in blocks.into_iter().enumerate() {
            if let Some(block) = block {
                steps[addr] = Step::Enter(streams.len() as u32);
                streams.push(translate_stream(program, block));
            }
        }
        self.links = vec![None; streams.len()];
        self.steps = steps.into();
        self.streams = streams.into();
    }

    /// The chain loop: executes translated streams back to back from
    /// the current dispatch point until control leaves the tables.
    ///
    /// Entered with the front end clean at `pc` (nothing in stage 2, no
    /// flush bubbles, `mem_debt < 2`) — exactly the state in which the
    /// per-cycle loop would attempt to issue. On `Dispatch` exits the
    /// machine is always in a state the generic dispatcher resumes
    /// exactly: either at the top of a fresh cycle, or mid-cycle with
    /// stage 2 empty and the pre-issue ladder idempotent, or (on cycle
    /// budget exhaustion) with the pending state intact so
    /// `Machine::step_front` raises [`SimError::CycleLimit`] at the
    /// same cycle the per-cycle loop would.
    ///
    /// # Trace-link soundness
    ///
    /// For a self-loop lap (stream S, taken back-edge to S's leader),
    /// the entry caps at the next arrival depend only on (a) S's own
    /// bookings — every booked register's readiness is `entry + rel`,
    /// so its residue at the next entry is `rel - lap_len`, independent
    /// of prior state — and (b) entry-carried registers, whose residues
    /// only decay as cycles pass. The lap length is `block_cycles + 1 +
    /// flush_penalty + contention stalls`, where only the contention
    /// stalls vary — and they are a pure function of the debt the
    /// terminator leaves behind. Hence: once a lap has been *verified*
    /// (entry caps re-checked after one full lap), any later lap
    /// arriving with the same terminator debt is admissible, and only
    /// the cycle budget needs checking. ALU occupancy never changes
    /// inside a chain (translated blocks contain no divides) and the
    /// port/flush state is clean by construction.
    fn run_chain<W: Stop>(
        &mut self,
        sim: &mut Machine,
        program: &DecodedProgram,
        stop: &W,
    ) -> Result<ChainExit, SimError> {
        let mut executed = false;
        // The previous transition, when it was a taken back-edge:
        // (stream index, terminator debt) — the trace-link signature.
        let mut from: Option<(u32, u32)> = None;
        loop {
            let pc = sim.pc;
            let si = match self.steps.get(pc as usize) {
                Some(&Step::Enter(si)) => si as usize,
                _ => return Ok(ChainExit::Dispatch { executed }),
            };
            let lap = from.take().filter(|&(p, _)| p as usize == si);
            // Admission: O(1) via the link memo on a repeated verified
            // lap, else the full entry-cap scan.
            enum Admit {
                Linked,
                Verified(Option<u32>),
                Reject,
            }
            let admit = {
                let block = &self.streams[si].block;
                let budget_ok = sim
                    .cycle
                    .checked_add(block.block_cycles)
                    .is_some_and(|end| end <= sim.cycle_limit);
                match lap {
                    Some((_, key)) if budget_ok && self.links[si] == Some(key) => Admit::Linked,
                    _ if entry_ok(sim, block) => Admit::Verified(lap.map(|(_, key)| key)),
                    _ => Admit::Reject,
                }
            };
            match admit {
                Admit::Reject => return Ok(ChainExit::Dispatch { executed }),
                Admit::Linked => self.linked += 1,
                // One full self-loop lap verified: memoise its signature.
                Admit::Verified(Some(key)) => self.links[si] = Some(key),
                Admit::Verified(None) => {}
            }

            if !run_stream(sim, program, &self.streams[si], stop)? {
                return Ok(ChainExit::Stopped);
            }
            self.fast_blocks += 1;
            if executed {
                self.chained += 1;
            }
            executed = true;

            // The terminator executes inside the chain, through the
            // same shared write-back path the per-cycle loop uses,
            // unless the stop claims it: the machine is at the top of
            // the terminator's execute cycle. If the cycle budget is
            // exhausted first, hand back with the staged terminator
            // intact: `step_front` raises CycleLimit at exactly this
            // state, as the per-cycle loop would.
            if stop.at_top(sim, program) {
                return Ok(ChainExit::Stopped);
            }
            if sim.cycle >= sim.cycle_limit {
                return Ok(ChainExit::Dispatch { executed });
            }
            let term = sim.stage2.take().expect("fold_exit staged the terminator");
            let redirect = sim.execute_bundle(program, term, &mut NopSink)?;
            if sim.halted {
                // Mirror `step_front`'s drain: the halt cycle retires.
                sim.finish_cycle(&mut NopSink);
                return Ok(ChainExit::Halted);
            }
            // The trace-link signature: debt before the stall ladder.
            let key = sim.mem_debt;
            match redirect {
                Some(target) => {
                    // Taken branch: the squashed fetch plus the deeper-
                    // pipeline bubbles, each a full front-end cycle, then
                    // any contention stalls — the per-cycle pre-issue
                    // ladder, paid in place.
                    sim.pc = target;
                    sim.stats.stalls.branch_flush += 1;
                    sim.flush_wait = program.flush_penalty;
                    sim.finish_cycle(&mut NopSink);
                    while sim.flush_wait > 0 {
                        if sim.cycle >= sim.cycle_limit {
                            return Ok(ChainExit::Dispatch { executed });
                        }
                        sim.flush_wait -= 1;
                        sim.stats.stalls.branch_flush += 1;
                        sim.finish_cycle(&mut NopSink);
                    }
                    while sim.mem_debt >= 2 {
                        if sim.cycle >= sim.cycle_limit {
                            return Ok(ChainExit::Dispatch { executed });
                        }
                        sim.mem_debt -= 2;
                        sim.stats.stalls.memory_contention += 1;
                        sim.finish_cycle(&mut NopSink);
                    }
                    from = Some((si as u32, key));
                }
                None => {
                    // Fall-through: the next bundle may issue in the same
                    // cycle the terminator executed — but only when the
                    // pre-issue ladder passes untouched. A pending
                    // contention stall goes back to the dispatcher,
                    // whose ladder pays it identically.
                    if sim.mem_debt >= 2 {
                        return Ok(ChainExit::Dispatch { executed });
                    }
                }
            }
        }
    }
}

impl Simulator {
    /// How many translated streams executed on the threaded loop's fast
    /// path.
    ///
    /// Deliberately *not* part of [`crate::SimStats`]: statistics must compare
    /// equal across engines and run modes, and this counter is a
    /// property of the threaded loop.
    #[must_use]
    pub fn fast_block_execs(&self) -> u64 {
        self.translation.fast_blocks
    }

    /// How many stream executions were entered by chaining — directly
    /// from a predecessor's terminator, without returning to the
    /// generic dispatcher. A loop property, not part of `SimStats`.
    #[must_use]
    pub fn chained_execs(&self) -> u64 {
        self.translation.chained
    }

    /// How many stream entries were admitted by the trace-link memo
    /// (O(1), no entry-cap scan). Always counted in
    /// [`chained_execs`](Simulator::chained_execs) too.
    #[must_use]
    pub fn linked_execs(&self) -> u64 {
        self.translation.linked
    }

    /// How many basic blocks translated to a step stream: 0 until
    /// [`translate`](Simulator::translate) or the first unobserved
    /// [`run`](Simulator::run) builds the translation.
    #[must_use]
    pub fn translated_blocks(&self) -> usize {
        self.translation.streams.len()
    }

    /// Builds the threaded loop's translation now rather than on the
    /// first unobserved run; a no-op once built. Clones made afterwards
    /// share it, so a caller that runs many copies of one program (the
    /// mesh array's cores) translates it once.
    pub fn translate(&mut self) {
        self.translation.build(&self.program);
    }

    /// Runs until halt, an error or `stop`: on the per-cycle loop when
    /// `sink` observes or stalls are recorded, else on the threaded
    /// loop, translating on first use. Returns `false` once halted.
    pub(crate) fn run_until<S: TraceSink, W: Stop>(
        &mut self,
        sink: &mut S,
        stop: &W,
    ) -> Result<bool, SimError> {
        if S::OBSERVED || self.machine.record_stalls {
            loop {
                if stop.at_top(&self.machine, &self.program) {
                    return Ok(true);
                }
                if !self.machine.step_program(&self.program, sink)? {
                    return Ok(false);
                }
            }
        }
        self.translation.build(&self.program);
        self.translation
            .run(&mut self.machine, &self.program, sink, stop)
    }
}

impl Translation {
    /// The per-cycle dispatcher, chaining through every translated
    /// stream whose entry signature is satisfied. Returns `false` once
    /// halted, `true` when `stop` fired.
    fn run<S: TraceSink, W: Stop>(
        &mut self,
        sim: &mut Machine,
        program: &DecodedProgram,
        sink: &mut S,
        stop: &W,
    ) -> Result<bool, SimError> {
        loop {
            if stop.at_top(sim, program) {
                return Ok(true);
            }
            match sim.step_front(program, sink)? {
                StepPhase::Halted => return Ok(false),
                StepPhase::Drained => {}
                StepPhase::Issue(redirect) => {
                    if sim.pre_issue_stall(program, redirect, sink) {
                        sim.finish_cycle(sink);
                        continue;
                    }
                    // Cheap pre-filter: only enter the chain loop when a
                    // stream actually starts here, so untranslated
                    // regions pay one table load over the per-cycle loop.
                    if matches!(self.steps.get(sim.pc as usize), Some(Step::Enter(_))) {
                        match self.run_chain(sim, program, stop)? {
                            ChainExit::Halted => return Ok(false),
                            ChainExit::Stopped => return Ok(true),
                            ChainExit::Dispatch { executed: true } => continue,
                            ChainExit::Dispatch { executed: false } => {}
                        }
                    }
                    sim.try_issue(program, sink)?;
                    sim.finish_cycle(sink);
                }
            }
        }
    }
}

/// Re-binds a compiled block's body as micro-op steps: maximal runs of
/// pure bundles become flat op arrays with pre-folded statistics;
/// everything else stays on the exact write-buffered path.
fn translate_stream(program: &DecodedProgram, block: CompiledBlock) -> Stream {
    let mut fast_ops: Vec<DecodedOp> = Vec::new();
    let mut body: Vec<BodyStep> = Vec::new();
    let mut run: Option<(u32, RunStats)> = None;
    for i in 0..block.n - 1 {
        let bundle = &program.bundles[block.first as usize + i];
        if bundle_is_pure(program.ops(bundle)) {
            let (_, stats) = run.get_or_insert((fast_ops.len() as u32, RunStats::default()));
            stats.bundles += 1;
            stats.nops += bundle.nops;
            stats.instructions += bundle.instructions;
            for (acc, n) in stats.unit_ops.iter_mut().zip(bundle.unit_ops) {
                *acc += n;
            }
            fast_ops.extend_from_slice(program.ops(bundle));
        } else {
            if let Some((from, stats)) = run.take() {
                body.push(BodyStep::Run {
                    from,
                    to: fast_ops.len() as u32,
                    stats,
                });
            }
            body.push(BodyStep::Exec(i as u32));
        }
    }
    if let Some((from, stats)) = run.take() {
        body.push(BodyStep::Run {
            from,
            to: fast_ops.len() as u32,
            stats,
        });
    }
    Stream {
        block,
        body: body.into_boxed_slice(),
        fast_ops: fast_ops.into_boxed_slice(),
    }
}

/// Whether a body bundle can execute as direct-write micro-ops.
///
/// Two conditions, checked op by op in issue order:
///
/// * no memory traffic — loads and stores can fault, charge
///   fetch-bandwidth debt and tick runtime counters, all of which the
///   exact path owns (branches and halts never appear in a body);
/// * no op reads a register an *earlier op of the same bundle* writes —
///   the architectural contract is that all reads of a bundle see
///   pre-bundle state, which direct writes would otherwise break.
///   Write-after-write is safe: direct writes land in the same op order
///   the write buffer drains in.
fn bundle_is_pure(ops: &[DecodedOp]) -> bool {
    let mut gprs_written: RegList<u16, { MAX_ISSUE_WIDTH }> = RegList::new();
    let mut preds_written: RegList<u16, { 2 * MAX_ISSUE_WIDTH }> = RegList::new();
    for op in ops {
        let reads_written_gpr = |s: Src| match s {
            Src::Gpr(r) => gprs_written.contains(&r),
            Src::Lit(_) | Src::Zero => false,
        };
        if op.guard != 0 && preds_written.contains(&op.guard) {
            return false;
        }
        match op.action {
            Action::Load { .. } | Action::Store { .. } | Action::Branch { .. } | Action::Halt => {
                return false;
            }
            Action::Alu { a, b, .. }
            | Action::CustomAlu { a, b, .. }
            | Action::Cmp { a, b, .. } => {
                if reads_written_gpr(a) || reads_written_gpr(b) {
                    return false;
                }
            }
            Action::MovGp { a, .. } | Action::Pbr { a, .. } => {
                if reads_written_gpr(a) {
                    return false;
                }
            }
            Action::MovPg { pred, .. } => {
                if pred.is_some_and(|p| preds_written.contains(&p)) {
                    return false;
                }
            }
            Action::PredPut { .. } => {}
        }
        match op.action {
            Action::Alu { dest, .. }
            | Action::CustomAlu { dest, .. }
            | Action::MovPg { dest, .. } => gprs_written.extend(dest),
            Action::Cmp {
                if_true, if_false, ..
            } => {
                preds_written.extend(if_true);
                preds_written.extend(if_false);
            }
            Action::PredPut { dest, .. } | Action::MovGp { dest, .. } => {
                preds_written.extend(dest);
            }
            // BTRs are never read inside a body (only branches read
            // them), so PBR writes cannot conflict.
            Action::Pbr { .. } => {}
            Action::Load { .. } | Action::Store { .. } | Action::Branch { .. } | Action::Halt => {
                unreachable!("rejected above")
            }
        }
    }
    true
}

#[inline]
fn src(sim: &Machine, s: Src) -> u32 {
    match s {
        Src::Gpr(r) => sim.gprs[r as usize],
        Src::Lit(v) => v,
        Src::Zero => 0,
    }
}

/// Executes one pre-bound pure op with direct register writes — the
/// micro-op mirror of [`crate::semantics::execute_op`] for the action
/// subset [`bundle_is_pure`] admits. Purity makes the write buffer
/// unnecessary (no same-bundle reader of these writes exists) and
/// faults impossible; only the squash counter is runtime-dependent.
fn exec_direct(sim: &mut Machine, program: &DecodedProgram, op: &DecodedOp) {
    if !(op.guard == 0 || sim.preds[op.guard as usize]) {
        sim.stats.squashed += 1;
        return;
    }
    match op.action {
        Action::Alu { opcode, dest, a, b } => {
            if let Some(r) = dest {
                let value = eval_alu_basic(opcode, src(sim, a), src(sim, b));
                sim.gprs[r as usize] = value & program.datapath_mask;
            }
        }
        Action::CustomAlu { custom, dest, a, b } => {
            if let Some(r) = dest {
                let value = program.custom_ops[custom as usize].semantics().evaluate(
                    u64::from(src(sim, a)),
                    u64::from(src(sim, b)),
                    program.custom_width,
                ) as u32;
                sim.gprs[r as usize] = value & program.datapath_mask;
            }
        }
        Action::Cmp {
            cond,
            if_true,
            if_false,
            a,
            b,
        } => {
            let outcome = eval_cmp(cond, src(sim, a), src(sim, b));
            if let Some(p) = if_true {
                sim.preds[p as usize] = outcome;
            }
            if let Some(p) = if_false {
                sim.preds[p as usize] = !outcome;
            }
        }
        Action::PredPut { dest, value } => {
            if let Some(p) = dest {
                sim.preds[p as usize] = value;
            }
        }
        Action::MovGp { dest, a } => {
            if let Some(p) = dest {
                sim.preds[p as usize] = src(sim, a) != 0;
            }
        }
        Action::MovPg { dest, pred } => {
            if let Some(r) = dest {
                sim.gprs[r as usize] =
                    pred.map_or(0, |p| u32::from(p == 0 || sim.preds[p as usize]));
            }
        }
        Action::Pbr { dest, a } => {
            let value = src(sim, a);
            if let Some(b) = dest {
                sim.btrs[b as usize] = value;
            }
        }
        Action::Load { .. } | Action::Store { .. } | Action::Branch { .. } | Action::Halt => {
            unreachable!("impure actions stay on the exact path")
        }
    }
}

/// Executes one translated stream body: pure runs as direct-write
/// micro-ops with one folded statistics delta each, impure bundles
/// through the shared write-buffered path, then the folded exit state.
/// Faults unwind to the exact per-cycle machine state. Returns `false`
/// when `stop` claims an impure bundle: the stream is unwound to the
/// top of that bundle's execute cycle, the bundle back in stage 2.
fn run_stream<W: Stop>(
    sim: &mut Machine,
    program: &DecodedProgram,
    stream: &Stream,
    stop: &W,
) -> Result<bool, SimError> {
    let block = &stream.block;
    let c = sim.cycle;
    for step in stream.body.iter() {
        match *step {
            BodyStep::Run { from, to, stats } => {
                sim.stats.bundles += stats.bundles;
                sim.stats.nops += stats.nops;
                sim.stats.instructions += stats.instructions;
                sim.stats.alu_busy_cycles += stats.unit_ops[0];
                sim.stats.lsu_busy_cycles += stats.unit_ops[1];
                sim.stats.cmpu_busy_cycles += stats.unit_ops[2];
                sim.stats.bru_busy_cycles += stats.unit_ops[3];
                for op in &stream.fast_ops[from as usize..to as usize] {
                    exec_direct(sim, program, op);
                }
            }
            BodyStep::Exec(i) => {
                let addr = block.first + i;
                if stop.before(sim, program, addr) {
                    // The per-cycle loop reaches this bundle's execute
                    // cycle in the state a fault in it unwinds to, with
                    // the bundle still in stage 2.
                    fault_unwind(sim, block, c, i as usize);
                    sim.stage2 = Some(addr);
                    return Ok(false);
                }
                match sim.execute_bundle(program, addr, &mut NopSink) {
                    Ok(redirect) => {
                        debug_assert!(redirect.is_none(), "body bundles cannot branch");
                    }
                    Err(e) => {
                        fault_unwind(sim, block, c, i as usize);
                        return Err(e);
                    }
                }
            }
        }
    }
    fold_exit(sim, block, c);
    Ok(true)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::memory::Memory;
    use crate::stats::{SimStats, StallCause};
    use epic_asm::assemble;

    fn build(src: &str, config: &Config, mem: u32) -> Simulator {
        let program = assemble(src, config).expect("assembles");
        let mut sim = Simulator::try_new(config, program.bundles().to_vec(), program.entry())
            .expect("legal program");
        sim.set_memory(Memory::new(mem));
        sim
    }

    /// Two copies of one loaded program: the first is stepped to halt
    /// on the per-cycle loop, the second runs.
    fn build_pair(src: &str, config: &Config, mem: u32) -> (Simulator, Simulator) {
        (build(src, config, mem), build(src, config, mem))
    }

    /// Steps to halt on the per-cycle loop: the oracle every threaded
    /// run is held to.
    fn step_to_halt(sim: &mut Simulator) -> Result<SimStats, SimError> {
        while sim.step()? {}
        Ok(*sim.stats())
    }

    const LOOP_SRC: &str = "    MOVE r1, #0\n    MOVE r2, #10\n    PBR b1, @loop\n;;\n\
                            loop:\n    ADD r1, r1, r2\n;;\n    SUB r2, r2, #1\n;;\n\
                                CMP_GT p1, p0, r2, #0\n;;\n    BRCT b1 (p1)\n;;\n\
                                SW r1, r3, #0\n;;\n    HALT\n;;\n";

    #[test]
    fn hot_loop_chains_and_links() {
        let config = Config::default();
        let (mut stepped, mut threaded) = build_pair(LOOP_SRC, &config, 64);
        let want = step_to_halt(&mut stepped).expect("steps to halt");
        let got = *threaded.run().expect("threaded runs");
        assert_eq!(got, want, "stats must be bit-identical");
        assert_eq!(threaded.gpr(1), 55, "sum 1..=10");
        assert_eq!(threaded.gpr(1), stepped.gpr(1));
        assert_eq!(threaded.memory().bytes(), stepped.memory().bytes());
        assert!(
            threaded.fast_block_execs() >= 9,
            "the loop body must run translated (got {})",
            threaded.fast_block_execs()
        );
        assert!(
            threaded.chained_execs() >= 8,
            "back-edges must chain without the dispatcher (got {})",
            threaded.chained_execs()
        );
        assert!(
            threaded.linked_execs() >= 1,
            "steady-state laps must be link-admitted (got {})",
            threaded.linked_execs()
        );
    }

    #[test]
    fn run_after_any_number_of_steps_matches_stepping() {
        // The translation is built from a stepped, mid-run state: every
        // cycle of the run is a possible hand-over point, including the
        // halt itself.
        let config = Config::default();
        let mut full = build(LOOP_SRC, &config, 64);
        let want = step_to_halt(&mut full).expect("steps to halt");
        assert_eq!(full.translated_blocks(), 0, "stepping never translates");
        for k in 0..=want.cycles {
            let mut sim = build(LOOP_SRC, &config, 64);
            for _ in 0..k {
                sim.step().expect("steps");
            }
            assert_eq!(sim.translated_blocks(), 0, "k {k}");
            let got = *sim.run().expect("runs");
            assert!(sim.translated_blocks() > 0, "k {k}");
            assert_eq!(got, want, "k {k}");
            sim.machine.assert_same(&full.machine, &format!("k {k}"));
        }
    }

    #[test]
    fn mid_loop_fault_forces_exact_fallback() {
        // Two inputs, each faulting inside a translated stream's body:
        // * a loop with two stores per iteration marching through
        //   memory — it chains (the terminator's debt is paid as one
        //   contention stall per lap) until the stores walk off the end
        //   of the 64-byte memory and fault mid-block, mid-chain;
        // * a straight-line entry block whose store faults (address 4096
        //   in a 64-byte memory) on a stream entered from the dispatcher
        //   rather than from a chain.
        let looped = "    MOVE r1, #0\n    MOVE r2, #20\n    PBR b1, @loop\n;;\n\
                      loop:\n    SW r2, r1, #0\n;;\n    SW r2, r1, #4\n;;\n    ADD r1, r1, #8\n;;\n\
                          SUB r2, r2, #1\n;;\n    CMP_GT p1, p0, r2, #0\n;;\n    BRCT b1 (p1)\n;;\n\
                          HALT\n;;\n";
        let entry_block = "    MOVE r1, #1\n    MOVIL r9, #4096\n;;\n    ADD r2, r1, #1\n;;\n\
                           SW r2, r9, #0\n;;\n    ADD r3, r2, #1\n;;\n    HALT\n;;\n";
        let config = Config::default();
        for (src, chains) in [(looped, true), (entry_block, false)] {
            let (mut want, mut got) = build_pair(src, &config, 64);
            let want_err = step_to_halt(&mut want).expect_err("store faults");
            let got_err = got.run().expect_err("store faults");
            assert_eq!(format!("{got_err}"), format!("{want_err}"));
            assert!(
                got.translated_blocks() > 0,
                "the faulting block must be translated"
            );
            if chains {
                assert!(
                    got.chained_execs() > 0,
                    "the loop must have chained before the fault"
                );
            }
            got.machine.assert_same(&want.machine, "interrupted");
        }
    }

    #[test]
    fn narrow_machines_agree_too() {
        let src = "    MOVE r1, #0\n;;\n    MOVE r2, #10\n;;\n    PBR b1, @loop\n;;\n\
                   loop:\n    ADD r1, r1, r2\n;;\n    SUB r2, r2, #1\n;;\n\
                       CMP_GT p1, p0, r2, #0\n;;\n    BRCT b1 (p1)\n;;\n\
                       SW r1, r3, #0\n;;\n    HALT\n;;\n";
        let config = Config::builder()
            .num_alus(1)
            .issue_width(1)
            .build()
            .unwrap();
        let (mut stepped, mut threaded) = build_pair(src, &config, 64);
        let want = step_to_halt(&mut stepped).expect("steps to halt");
        let got = *threaded.run().expect("threaded runs");
        assert_eq!(got, want);
        assert_eq!(threaded.gpr(1), stepped.gpr(1));
        assert!(threaded.chained_execs() > 0);
    }

    #[test]
    fn deeper_pipelines_pay_bubbles_in_the_chain() {
        // flush_penalty > 0 exercises the in-chain bubble ladder.
        let config = Config::builder().pipeline_stages(4).build().unwrap();
        let (mut stepped, mut threaded) = build_pair(LOOP_SRC, &config, 64);
        let want = step_to_halt(&mut stepped).expect("steps to halt");
        let got = *threaded.run().expect("threaded runs");
        assert_eq!(got, want);
        assert!(want.stalls.branch_flush >= 27, "3 bubbles per taken branch");
        assert!(threaded.chained_execs() > 0);
    }

    #[test]
    fn cycle_limit_interrupts_the_chain_exactly() {
        // Every prefix of the run must be interrupted identically: sweep
        // the limit across fill, chained laps and the drain.
        let config = Config::default();
        let mut full = build(LOOP_SRC, &config, 64);
        let total = step_to_halt(&mut full).expect("full run").cycles;
        for limit in 1..total {
            let (mut want, mut got) = build_pair(LOOP_SRC, &config, 64);
            want.set_cycle_limit(limit);
            got.set_cycle_limit(limit);
            let want_err = step_to_halt(&mut want).expect_err("limit hit");
            let got_err = got.run().expect_err("limit hit");
            assert_eq!(format!("{got_err}"), format!("{want_err}"), "limit {limit}");
            got.machine
                .assert_same(&want.machine, &format!("limit {limit}"));
        }
    }

    #[test]
    fn observing_sinks_disable_the_fast_path() {
        struct Counter(u64);
        impl TraceSink for Counter {
            fn cycle_retired(&mut self, _cycle: u64) {
                self.0 += 1;
            }
        }
        let config = Config::default();
        let (mut stepped, mut observed) = build_pair(LOOP_SRC, &config, 64);
        let want = step_to_halt(&mut stepped).expect("steps to halt");
        let mut sink = Counter(0);
        let got = *observed.run_with_sink(&mut sink).expect("observed run");
        assert_eq!(got, want);
        assert_eq!(
            sink.0, want.cycles,
            "observed runs must retire every cycle individually"
        );
        assert_eq!(observed.fast_block_execs(), 0);
        assert_eq!(observed.chained_execs(), 0);
        assert_eq!(observed.translated_blocks(), 0);

        // Profile training observes through a `ProfileSink`.
        let mut profiled = build(LOOP_SRC, &config, 64);
        let got = *profiled
            .run_with_sink(&mut crate::ProfileSink::default())
            .expect("profiled run");
        assert_eq!(got, want);
        assert_eq!(profiled.translated_blocks(), 0);
    }

    #[test]
    fn stall_recording_disables_the_fast_path() {
        let config = Config::default();
        let (mut stepped, mut recorded) = build_pair(LOOP_SRC, &config, 64);
        stepped.record_stalls(true);
        recorded.record_stalls(true);
        let want = step_to_halt(&mut stepped).expect("steps to halt");
        let got = *recorded.run().expect("recorded run");
        assert_eq!(got, want);
        assert_eq!(recorded.fast_block_execs(), 0);
        assert_eq!(recorded.translated_blocks(), 0);
        assert_eq!(recorded.stall_log(), stepped.stall_log());
        assert!(recorded
            .stall_log()
            .iter()
            .any(|e| e.cause == StallCause::BranchFlush));
    }

    /// Whether the bundle in `sim`'s stage 2 loads or stores a byte of
    /// `window` when it executes now, guards ignored: the stop's
    /// contract, derived from the assembled instructions rather than
    /// the decoded program.
    fn touches(sim: &Simulator, bundles: &[Vec<Instruction>], window: &Range<u32>) -> bool {
        use epic_isa::{Opcode, Operand};
        let Some(pc) = sim.machine.stage2 else {
            return false;
        };
        let value = |operand: Operand| match operand {
            Operand::Gpr(r) => sim.gpr(usize::from(r.0)),
            Operand::Lit(v) => v as u32,
            _ => 0,
        };
        bundles[pc as usize].iter().any(|instr| {
            let width = match instr.opcode {
                Opcode::Lw | Opcode::LwS | Opcode::Sw => 4,
                Opcode::Lh | Opcode::Lhu | Opcode::Sh => 2,
                Opcode::Lb | Opcode::Lbu | Opcode::Sb => 1,
                _ => return false,
            };
            let at = u64::from(value(instr.src1).wrapping_add(value(instr.src2)));
            at < u64::from(window.end) && at + width > u64::from(window.start)
        })
    }

    /// Drives `src` to halt by alternating `run_until_access(window)`
    /// and one `step`, beside a clone that only steps. At every stop the
    /// two machines must be identical, no cycle the run went through may
    /// touch the window, and the stopped cycle must. A run that ends
    /// without a stop must end where `run()` does. Returns the run copy
    /// and the cycles it stopped at.
    fn drive(src: &str, config: &Config, window: Range<u32>) -> (Simulator, Vec<u64>) {
        let bundles = assemble(src, config).expect("assembles").bundles().to_vec();
        let mut fast = build(src, config, 64);
        let mut slow = fast.clone();
        let mut stops = Vec::new();
        loop {
            let stopped = fast.run_until_access(window.clone()).expect("runs");
            while slow.cycle() < fast.cycle() {
                assert!(
                    !touches(&slow, &bundles, &window),
                    "cycle {} touches {window:?}, but the run went past it",
                    slow.cycle()
                );
                slow.step().expect("steps");
            }
            let label = format!("{window:?}, stop {}", stops.len());
            fast.machine.assert_same(&slow.machine, &label);
            if !stopped {
                assert!(fast.is_halted(), "{label}");
                break;
            }
            assert!(
                touches(&slow, &bundles, &window),
                "{label}: cycle {} does not touch the window",
                slow.cycle()
            );
            stops.push(fast.cycle());
            fast.step().expect("steps");
            slow.step().expect("steps");
        }
        if stops.is_empty() {
            let mut ran = build(src, config, 64);
            ran.run().expect("runs");
            fast.machine.assert_same(&ran.machine, "no access vs run");
        }
        (fast, stops)
    }

    #[test]
    fn run_until_access_stops_in_the_dispatcher() {
        // The entry block is translated; the divide keeps the second
        // block per-cycle, so its load of address 64 stops in the
        // dispatcher, after one stream.
        let src = "    MOVE r1, #60\n;;\n    MOVE r2, #7\n;;\n    PBR b1, @next\n;;\n\
                   BR b1\n;;\nnext:\n    DIV r3, r2, #1\n;;\n    LW r4, r1, #0\n;;\n\
                   ADD r5, r4, #1\n;;\n    HALT\n;;\n";
        let config = Config::default();
        let (sim, stops) = drive(src, &config, 60..64);
        assert_eq!(stops.len(), 1, "one load touches the window");
        assert_eq!(
            sim.translated_blocks(),
            1,
            "the divide's block stays per-cycle"
        );
        assert_eq!(sim.fast_block_execs(), 1);
        // A window the load misses by a byte on either side.
        assert!(drive(src, &config, 56..60).1.is_empty());
        assert!(drive(src, &config, 64..68).1.is_empty());
    }

    /// A counted loop whose body stores the running sum to `4 * i` for
    /// i = 0..10 (address 36 last) and the count to address 60, through
    /// the stream's write-buffered path. Two stores a lap leave the
    /// terminator no debt, so the laps chain and link.
    const STORE_LOOP: &str =
        "    MOVE r1, #0\n    MOVE r2, #10\n    MOVE r4, #0\n    PBR b1, @loop\n;;\n\
                              loop:\n    ADD r1, r1, r2\n;;\n    SW r1, r4, #0\n;;\n\
                                  SW r2, r0, #60\n    ADD r4, r4, #4\n    SUB r2, r2, #1\n;;\n\
                                  CMP_GT p1, p0, r2, #0\n;;\n    BRCT b1 (p1)\n;;\n    HALT\n;;\n";

    #[test]
    fn run_until_access_stops_in_a_stream_body() {
        let config = Config::default();
        // The sixth lap's store, after five laps on the fast path.
        let (sim, stops) = drive(STORE_LOOP, &config, 20..24);
        assert_eq!(stops.len(), 1);
        assert!(sim.linked_execs() > 0, "the loop ran linked laps");
        // Every lap's first store, every lap's second, and a window two
        // stores straddle.
        assert_eq!(drive(STORE_LOOP, &config, 0..40).1.len(), 10);
        assert_eq!(drive(STORE_LOOP, &config, 60..64).1.len(), 10);
        assert_eq!(drive(STORE_LOOP, &config, 22..26).1.len(), 2);
        // Without forwarding, and between the stores.
        let unforwarded = Config::builder().forwarding(false).build().unwrap();
        assert_eq!(drive(STORE_LOOP, &unforwarded, 8..12).1.len(), 1);
        assert!(drive(STORE_LOOP, &config, 40..60).1.is_empty());
    }

    #[test]
    fn run_until_access_stops_before_a_chained_terminator() {
        // The loop's terminator bundle loads `4 * i` beside its branch.
        let src = "    MOVE r1, #0\n    MOVE r2, #10\n    MOVE r4, #0\n    PBR b1, @loop\n;;\n\
                   loop:\n    ADD r1, r1, r2\n;;\n    SUB r2, r2, #1\n    ADD r4, r4, #4\n;;\n\
                       CMP_GT p1, p0, r2, #0\n;;\n    LW r5, r4, #0\n    BRCT b1 (p1)\n;;\n\
                       HALT\n;;\n";
        let config = Config::default();
        let (sim, stops) = drive(src, &config, 20..24);
        assert_eq!(stops.len(), 1);
        assert!(
            sim.chained_execs() > 0,
            "the terminator runs inside the chain"
        );
        assert_eq!(drive(src, &config, 0..64).1.len(), 10);
        let deep = Config::builder().pipeline_stages(4).build().unwrap();
        assert_eq!(drive(src, &deep, 36..40).1.len(), 1);
    }

    #[test]
    fn run_until_access_without_a_hit_matches_run() {
        let config = Config::default();
        for src in [LOOP_SRC, STORE_LOOP] {
            assert!(drive(src, &config, 1000..1004).1.is_empty());
            assert!(drive(src, &config, 0..0).1.is_empty(), "an empty window");
        }
    }

    #[test]
    fn divides_are_never_translated() {
        let src = "    MOVE r1, #40\n    MOVE r2, #4\n;;\n    DIV r3, r1, r2\n;;\n\
                   ADD r4, r3, #1\n;;\n    HALT\n;;\n";
        let config = Config::default();
        let (mut stepped, mut threaded) = build_pair(src, &config, 0);
        let want = step_to_halt(&mut stepped).expect("steps to halt");
        let got = *threaded.run().expect("threaded runs");
        assert_eq!(threaded.translated_blocks(), 0, "the divide poisons it");
        assert_eq!(got, want);
        assert_eq!(threaded.gpr(3), 10);
    }
}
