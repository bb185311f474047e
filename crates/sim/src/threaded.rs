//! The threaded run loop behind an unobserved [`Simulator::run`].
//!
//! The per-cycle loop (`machine.rs`) re-derives the whole issue
//! negotiation — scoreboard scan, unit availability, port accounting,
//! stall ladder — on every cycle. Inside a straight-line basic block
//! that negotiation is a constant: the compiled-block substrate
//! (`block.rs`) replays it once per block and folds it into a
//! [`CompiledBlock`] with an exact entry signature.
//!
//! The first unobserved run translates the decoded program plus the
//! [`CompiledBlock`] table into a flat **step table** and keeps it for
//! later runs: one pre-bound [`Step`] per bundle address, resolving at
//! translation time which addresses head a folded stream. A stream is a
//! basic block, or a piece of one cut after a guarded load or store,
//! whose debt only the live guard decides; it keeps a schedule folded
//! from each entry debt the dispatcher meets, the debt-1 one built on
//! first use. Each stream's
//! body is re-bound as **micro-op runs**: maximal runs of *pure* bundles
//! (no memory traffic, no op reading a register an earlier op of the
//! same bundle writes) become flat arrays of pre-bound micro-ops
//! executed with direct register writes — no write buffer, no `ExecCtx`
//! construction — and their static statistics (bundles, nops,
//! instructions, unit-busy cycles) fold into one delta applied per run.
//! Pure runs cannot fault, so exactness is free; impure bundles (memory
//! traffic) stay on the shared write-buffered path with the substrate's
//! exact fault unwinding.
//!
//! There is one run loop, the per-cycle dispatcher. Where the front end
//! would try to issue a stream's leader and the stream's entry signature
//! holds, the dispatcher runs the stream instead; the stream leaves its
//! terminator staged at the top of the terminator's execute cycle. From
//! there every cycle is the dispatcher's own per-cycle code, exactly as
//! stepping runs it: the terminator executes, a halt drains, a taken
//! branch pays its flush bubbles, pending contention stalls are paid,
//! the cycle budget is checked, and the next stream is entered wherever
//! the front end next reaches a leader. [`Simulator::chained_execs`]
//! counts the streams entered with no per-cycle issue since the
//! previous one.
//!
//! Everything irregular — entry caps violated, divides, untranslated
//! addresses — stays on the dispatcher, and a fault in a stream body
//! unwinds to the state the per-cycle loop dies in, so `SimStats`,
//! registers, memory and faults stay **bit-identical** to stepping the
//! same machine to halt, by construction. Stepping and an observing
//! [`TraceSink`] never enter a stream and never build the translation,
//! so profile training and traces pay nothing for it.
//!
//! # Stopping before a window access
//!
//! [`Simulator::run_until_access`] runs the same loop with one exact
//! stop: the top of the first cycle whose execute stage would load a
//! byte of a word in one given set or store a byte of a word in
//! another, left exactly as stepping leaves it, so the next
//! [`Simulator::step`] performs the access. Both sets are words of one
//! aligned window, as bit masks. The mesh array runs its cores ahead
//! this way, between two of their mailbox accesses the exchange can
//! observe or change. Each part of the loop checks the bundles it is
//! about to execute:
//!
//! * the dispatcher checks the bundle in stage 2 at the top of every
//!   cycle, which includes the terminator a stream leaves staged;
//! * a stream checks each body bundle with memory traffic before
//!   executing it, and on a hit rewinds through the shared
//!   `fault_unwind` — the state in which the per-cycle loop would have
//!   begun that bundle's execute cycle — with the bundle restored to
//!   stage 2.
//!
//! The check computes each load's and store's address from the
//! registers the execute stage would read and ignores guards: stopping
//! before a squashed access is still exact, since a stop is only ever a
//! state stepping passes through. [`run`](Simulator::run) shares this
//! code with a stop that never fires and compiles the checks away.

use crate::block::{
    compile_blocks, entry_ok, fault_unwind, fold_exit, has_guarded_memory, recompile, CompiledBlock,
};
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
use std::sync::{Arc, OnceLock};

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
    /// The schedule folded from entry with no fetch-bandwidth debt.
    block: CompiledBlock,
    /// The schedule folded from entry with one half-cycle of debt, for
    /// a body with memory traffic: built the first time the dispatcher
    /// reaches the leader with that debt, and shared by clones.
    indebted: OnceLock<Option<CompiledBlock>>,
    /// The body translated into pure micro-op runs and exact-path
    /// fallbacks, in bundle order (terminator excluded).
    body: Box<[BodyStep]>,
    /// Flat arena of the pure runs' pre-bound ops.
    fast_ops: Box<[DecodedOp]>,
}

impl Stream {
    /// The folded schedule entered with `debt` outstanding, or `None`
    /// when that replay cannot be proven exact. The pre-issue ladder
    /// leaves a leader 0 or 1; without body memory traffic one schedule
    /// serves both.
    fn schedule(&self, program: &DecodedProgram, debt: u32) -> Option<&CompiledBlock> {
        if debt == 0 || self.block.body_mem_ops == 0 {
            return Some(&self.block);
        }
        debug_assert_eq!(debt, 1, "the pre-issue ladder pays debt 2");
        (self.indebted)
            .get_or_init(|| recompile(program, &self.block, 1))
            .as_ref()
    }
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

/// Stops before the first execute stage that would load a byte of a
/// word in `loads` or store a byte of a word in `stores`, guards
/// ignored. Bit `i` of either set stands for the word at `base + 4 * i`.
pub(crate) struct BeforeAccess {
    pub(crate) base: u32,
    pub(crate) loads: u128,
    pub(crate) stores: u128,
}

impl BeforeAccess {
    /// Whether the `width` bytes at `at` overlap a word of `words`.
    #[inline]
    fn hits(&self, words: u128, at: u32, width: u32) -> bool {
        let (at, base) = (u64::from(at), u64::from(self.base));
        let end = at + u64::from(width);
        if words == 0 || end <= base || at >= base + 4 * 128 {
            return false;
        }
        let first = at.saturating_sub(base) / 4;
        let last = ((end - 1 - base) / 4).min(127);
        // An access spans at most two words.
        (first..=last).any(|word| words >> word & 1 != 0)
    }
}

impl Stop for BeforeAccess {
    fn before(&self, sim: &Machine, program: &DecodedProgram, bpc: u32) -> bool {
        let bundle = &program.bundles[bpc as usize];
        // `unit_ops[1]` counts the bundle's loads and stores.
        bundle.unit_ops[1] > 0
            && program.ops(bundle).iter().any(|op| {
                let (words, base, offset, width) = match op.action {
                    Action::Load {
                        base,
                        offset,
                        width,
                        ..
                    } => (self.loads, base, offset, width),
                    Action::Store {
                        base,
                        offset,
                        width,
                        ..
                    } => (self.stores, base, offset, width),
                    _ => return false,
                };
                let at = src(sim, base).wrapping_add(src(sim, offset));
                self.hits(words, at, width)
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
/// own counters.
#[derive(Debug, Clone, Default)]
pub(crate) struct Translation {
    /// The source of a step table not built yet.
    pending: Option<Arc<TranslationSource>>,
    /// Pre-bound step per bundle address.
    steps: Arc<[Step]>,
    /// Arena of translated streams, indexed by [`Step::Enter`].
    streams: Arc<[Stream]>,
    fast_blocks: u64,
    chained: u64,
    per_cycle: u64,
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

    /// Builds the step table, if still pending: every eligible piece
    /// of a basic block becomes a stream.
    fn build(&mut self, program: &DecodedProgram) {
        let Some(source) = self.pending.take() else {
            return;
        };
        let cfg = Cfg::build(&source.config, &source.bundles);
        let blocks = cfg.basic_blocks(&source.bundles, source.entry as usize);
        // Translate *every* foldable piece: admission is one step-table
        // load and one entry-cap scan.
        let mut steps = vec![Step::Interp; program.bundles.len()];
        let mut streams = Vec::new();
        for block in compile_blocks(program, &pieces(program, &blocks)) {
            steps[block.first as usize] = Step::Enter(streams.len() as u32);
            streams.push(translate_stream(program, block));
        }
        self.steps = steps.into();
        self.streams = streams.into();
    }

    /// The run loop: the per-cycle dispatcher, which runs the stream
    /// that starts at `pc`, when its entry signature holds, where it
    /// would otherwise try to issue the stream's leader. Returns `false`
    /// once halted, `true` when `stop` fired.
    fn run<S: TraceSink, W: Stop>(
        &mut self,
        sim: &mut Machine,
        program: &DecodedProgram,
        sink: &mut S,
        stop: &W,
    ) -> Result<bool, SimError> {
        // Whether a stream ran and no per-cycle issue has run since.
        let mut chaining = false;
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
                    // An observing sink sees every cycle: no streams.
                    if !S::OBSERVED {
                        if let Some(&Step::Enter(si)) = self.steps.get(sim.pc as usize) {
                            let stream = &self.streams[si as usize];
                            if let Some(block) = (stream.schedule(program, sim.mem_debt))
                                .filter(|block| entry_ok(sim, block))
                            {
                                // The stream leaves its terminator staged
                                // at the top of its execute cycle, which
                                // the next iteration runs.
                                if !run_stream(sim, program, stream, block, stop)? {
                                    return Ok(true);
                                }
                                self.fast_blocks += 1;
                                self.chained += u64::from(chaining);
                                chaining = true;
                                continue;
                            }
                        }
                    }
                    chaining = false;
                    self.per_cycle += 1;
                    sim.try_issue(program, sink)?;
                    sim.finish_cycle(sink);
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

    /// How many stream executions were chained: entered with no
    /// per-cycle issue since the previous stream of the same run, only
    /// that stream's terminator, flush bubbles and contention stalls
    /// between them. A loop property, not part of `SimStats`.
    #[must_use]
    pub fn chained_execs(&self) -> u64 {
        self.translation.chained
    }

    /// How many issue attempts the threaded loop made one cycle at a
    /// time, outside a stream: every cycle it reached the issue stage
    /// and entered no stream. Stepping and observed runs count none.
    /// A loop property, not part of `SimStats`.
    #[must_use]
    pub fn per_cycle_issues(&self) -> u64 {
        self.translation.per_cycle
    }

    /// How many pieces of basic blocks translated to a step stream: 0
    /// until [`translate`](Simulator::translate) or the first unobserved
    /// [`run`](Simulator::run) builds the translation. A piece is a
    /// basic block, or a part of one cut after a bundle with a guarded
    /// load or store, when memory contention is on.
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

    /// Runs until halt, an error or `stop`, entering translated streams
    /// unless `sink` observes; an unobserved run translates on first
    /// use. Returns `false` once halted.
    pub(crate) fn run_until<S: TraceSink, W: Stop>(
        &mut self,
        sink: &mut S,
        stop: &W,
    ) -> Result<bool, SimError> {
        if !S::OBSERVED {
            self.translation.build(&self.program);
        }
        self.translation
            .run(&mut self.machine, &self.program, sink, stop)
    }
}

/// Cuts each basic block after every body bundle with a guarded load
/// or store ([`has_guarded_memory`]). Such a bundle charges debt only
/// when its guard holds, so it ends its piece: as the terminator, it
/// executes on the dispatcher, and the next piece is entered like any
/// leader, with whatever debt it left.
fn pieces(program: &DecodedProgram, blocks: &[Range<usize>]) -> Vec<Range<usize>> {
    let mut pieces = Vec::with_capacity(blocks.len());
    for block in blocks {
        let mut start = block.start;
        for pc in block.start..block.end.saturating_sub(1) {
            if has_guarded_memory(program, pc) {
                pieces.push(start..pc + 1);
                start = pc + 1;
            }
        }
        pieces.push(start..block.end);
    }
    pieces
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
        indebted: OnceLock::new(),
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
/// through the shared write-buffered path, then `block`, the folded
/// schedule for the entry debt. Faults unwind to the exact per-cycle
/// machine state. Returns `false` when `stop` claims an impure bundle:
/// the stream is unwound to the top of that bundle's execute cycle, the
/// bundle back in stage 2.
fn run_stream<W: Stop>(
    sim: &mut Machine,
    program: &DecodedProgram,
    stream: &Stream,
    block: &CompiledBlock,
    stop: &W,
) -> Result<bool, SimError> {
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
    use crate::stats::SimStats;
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
    fn hot_loop_runs_translated_and_chains() {
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
            "back-edges must chain with no per-cycle issue (got {})",
            threaded.chained_execs()
        );
    }

    /// A counted loop with one store a lap: every second lap enters its
    /// body with half a cycle of fetch debt outstanding.
    const INDEBTED_LOOP: &str =
        "    MOVE r1, #0\n    MOVE r2, #10\n    MOVE r4, #0\n    PBR b1, @loop\n;;\n\
                                 loop:\n    ADD r1, r1, r2\n;;\n    SW r1, r4, #0\n;;\n\
                                     ADD r4, r4, #4\n    SUB r2, r2, #1\n;;\n\
                                     CMP_GT p1, p0, r2, #0\n;;\n    BRCT b1 (p1)\n;;\n    HALT\n;;\n";

    /// A leader reached by falling through the cycle after the entry
    /// block's terminator writes `r3`, which its first bundle reads
    /// forwarded (three register-file ports counted as file reads); its
    /// block stores the sum to address 8.
    const FORWARDED_LEADER: &str =
        "    MOVE r2, #3\n    PBR b1, @next\n;;\n    ADD r1, r2, #1\n    CMP_EQ p1, p0, r2, #0\n;;\n\
                                    MOVE r3, #7\n    BRCT b1 (p1)\n;;\n\
                                    next:\n    ADD r4, r3, r1\n;;\n    SW r4, r0, #8\n;;\n    HALT\n;;\n";

    /// A counted loop (i = 6 down to 1) whose body stores `i` to
    /// `24 - 4 * i` under a guard that holds for even `i`, then to
    /// `56 - 4 * i` unguarded: the guarded store ends a piece.
    const GUARDED_STORE_LOOP: &str =
        "    MOVE r1, #0\n    MOVE r2, #6\n    PBR b1, @loop\n;;\n\
                                      loop:\n    AND r3, r2, #1\n;;\n    CMP_EQ p2, p0, r3, #0\n;;\n\
                                          SW r2, r1, #0 (p2)\n;;\n\
                                          SW r2, r1, #32\n    ADD r1, r1, #4\n    SUB r2, r2, #1\n;;\n\
                                          CMP_GT p1, p0, r2, #0\n;;\n    BRCT b1 (p1)\n;;\n    HALT\n;;\n";

    /// The inputs that reach a leader in an entry state a replay must
    /// match exactly, each with the number of streams a run from reset
    /// enters: every lap of the loop entered with debt 1 as well as
    /// debt 0; the forwarded leader on the default machine, and on a
    /// two-port register file, where the forwarded read saves the
    /// port cycle the replay counts and the strict cap refuses it; and
    /// both pieces of every lap of the guarded loop.
    fn entry_state_cases() -> Vec<(&'static str, &'static str, Config, u64)> {
        let two_ports = Config::builder().regfile_ops_per_cycle(2).build().unwrap();
        vec![
            ("debt 1", INDEBTED_LOOP, Config::default(), 10),
            ("forwarded", FORWARDED_LEADER, Config::default(), 2),
            ("forwarded, 2 ports", FORWARDED_LEADER, two_ports, 1),
            ("guarded store", GUARDED_STORE_LOOP, Config::default(), 12),
        ]
    }

    #[test]
    fn run_after_any_number_of_steps_matches_stepping() {
        // The translation is built from a stepped, mid-run state: every
        // cycle of the run is a possible hand-over point, including the
        // halt itself.
        let mut cases = vec![("loop", LOOP_SRC, Config::default(), 9)];
        cases.extend(entry_state_cases());
        for (name, src, config) in cases.into_iter().map(|(n, s, c, _)| (n, s, c)) {
            let mut full = build(src, &config, 64);
            let want = step_to_halt(&mut full).expect("steps to halt");
            assert_eq!(full.translated_blocks(), 0, "stepping never translates");
            for k in 0..=want.cycles {
                let mut sim = build(src, &config, 64);
                for _ in 0..k {
                    sim.step().expect("steps");
                }
                assert_eq!(sim.translated_blocks(), 0, "{name}, k {k}");
                let got = *sim.run().expect("runs");
                assert!(sim.translated_blocks() > 0, "{name}, k {k}");
                assert_eq!(got, want, "{name}, k {k}");
                sim.machine
                    .assert_same(&full.machine, &format!("{name}, k {k}"));
            }
        }
    }

    #[test]
    fn streams_enter_with_debt_forwarded_reads_and_cut_at_guarded_stores() {
        for (name, src, config, streams) in entry_state_cases() {
            let (mut stepped, mut threaded) = build_pair(src, &config, 64);
            let want = step_to_halt(&mut stepped).expect("steps to halt");
            let got = *threaded.run().expect("runs");
            assert_eq!(got, want, "{name}");
            threaded.machine.assert_same(&stepped.machine, name);
            assert_eq!(threaded.fast_block_execs(), streams, "{name}");
            if src == GUARDED_STORE_LOOP {
                // The guard held at i = 6 (address 0) and failed at
                // i = 5 (address 4).
                assert_eq!(threaded.memory().bytes()[..8], [0, 0, 0, 6, 0, 0, 0, 0]);
            }
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
    fn deeper_pipelines_chain_across_flush_bubbles() {
        // flush_penalty > 0: the dispatcher pays each taken back-edge's
        // bubbles between two streams of a chain.
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
        // the limit across fill, chained laps, every flush bubble and
        // contention stall the dispatcher pays after a stream's
        // terminator, and the drain, on 2-, 3- and 4-stage pipelines.
        for stages in 2..=4 {
            let config = Config::builder().pipeline_stages(stages).build().unwrap();
            for src in [LOOP_SRC, STORE_LOOP] {
                let mut full = build(src, &config, 64);
                let total = step_to_halt(&mut full).expect("full run").cycles;
                for limit in 1..total {
                    let label = format!("{stages} stages, limit {limit}");
                    let (mut want, mut got) = build_pair(src, &config, 64);
                    want.set_cycle_limit(limit);
                    got.set_cycle_limit(limit);
                    let want_err = step_to_halt(&mut want).expect_err("limit hit");
                    let got_err = got.run().expect_err("limit hit");
                    assert_eq!(format!("{got_err}"), format!("{want_err}"), "{label}");
                    got.machine.assert_same(&want.machine, &label);
                }
            }
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

    /// Words at base 0 whose load (`loads`) or store (`stores`) stops a
    /// run, as `run_until_access` takes them.
    #[derive(Debug, Clone, Copy)]
    struct Words {
        loads: u128,
        stores: u128,
    }

    /// The same words stop both loads and stores.
    fn both(words: u128) -> Words {
        Words {
            loads: words,
            stores: words,
        }
    }

    /// Words `from..to` as a bit mask.
    fn span(from: u32, to: u32) -> u128 {
        (from..to).fold(0, |mask, word| mask | 1 << word)
    }

    /// Whether the bundle in `sim`'s stage 2 loads a byte of a word in
    /// `words.loads` or stores a byte of a word in `words.stores` when
    /// it executes now, guards ignored: the stop's contract, derived
    /// from the assembled instructions rather than the decoded program.
    fn touches(sim: &Simulator, bundles: &[Vec<Instruction>], words: Words) -> bool {
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
            let (set, width) = match instr.opcode {
                Opcode::Lw | Opcode::LwS => (words.loads, 4),
                Opcode::Lh | Opcode::Lhu => (words.loads, 2),
                Opcode::Lb | Opcode::Lbu => (words.loads, 1),
                Opcode::Sw => (words.stores, 4),
                Opcode::Sh => (words.stores, 2),
                Opcode::Sb => (words.stores, 1),
                _ => return false,
            };
            let at = u64::from(value(instr.src1).wrapping_add(value(instr.src2)));
            (at..at + width).any(|byte| byte < 4 * 128 && set >> (byte / 4) & 1 != 0)
        })
    }

    /// Drives `src` to halt by alternating `run_until_access` on
    /// `words` and one `step`, beside a clone that only steps. At every
    /// stop the two machines must be identical, no cycle the run went
    /// through may touch the words, and the stopped cycle must. A run
    /// that ends without a stop must end where `run()` does. Returns the
    /// run copy and the cycles it stopped at.
    fn drive(src: &str, config: &Config, words: Words) -> (Simulator, Vec<u64>) {
        let bundles = assemble(src, config).expect("assembles").bundles().to_vec();
        let mut fast = build(src, config, 64);
        let mut slow = fast.clone();
        let mut stops = Vec::new();
        loop {
            let stopped = fast
                .run_until_access(0, words.loads, words.stores)
                .expect("runs");
            // A halted machine stays put: `assert_same` below then
            // reports a run that took too long.
            while slow.cycle() < fast.cycle() && !slow.is_halted() {
                assert!(
                    !touches(&slow, &bundles, words),
                    "cycle {} touches {words:x?}, but the run went past it",
                    slow.cycle()
                );
                slow.step().expect("steps");
            }
            let label = format!("{words:x?}, stop {}", stops.len());
            fast.machine.assert_same(&slow.machine, &label);
            if !stopped {
                assert!(fast.is_halted(), "{label}");
                break;
            }
            assert!(
                touches(&slow, &bundles, words),
                "{label}: cycle {} does not touch the words",
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
        // block per-cycle, so its load of address 60 stops in the
        // dispatcher, after one stream.
        let src = "    MOVE r1, #60\n;;\n    MOVE r2, #7\n;;\n    PBR b1, @next\n;;\n\
                   BR b1\n;;\nnext:\n    DIV r3, r2, #1\n;;\n    LW r4, r1, #0\n;;\n\
                   ADD r5, r4, #1\n;;\n    HALT\n;;\n";
        let config = Config::default();
        let (sim, stops) = drive(src, &config, both(1 << 15));
        assert_eq!(stops.len(), 1, "one load touches word 15");
        assert_eq!(
            sim.translated_blocks(),
            1,
            "the divide's block stays per-cycle"
        );
        assert_eq!(sim.fast_block_execs(), 1);
        // The words on either side of the load's.
        assert!(drive(src, &config, both(1 << 14)).1.is_empty());
        assert!(drive(src, &config, both(1 << 16)).1.is_empty());
    }

    /// A counted loop whose body stores the running sum to `4 * i` for
    /// i = 0..10 (address 36 last) and the count to address 60, through
    /// the stream's write-buffered path. Two stores a lap leave the
    /// terminator no debt, so the laps chain.
    const STORE_LOOP: &str =
        "    MOVE r1, #0\n    MOVE r2, #10\n    MOVE r4, #0\n    PBR b1, @loop\n;;\n\
                              loop:\n    ADD r1, r1, r2\n;;\n    SW r1, r4, #0\n;;\n\
                                  SW r2, r0, #60\n    ADD r4, r4, #4\n    SUB r2, r2, #1\n;;\n\
                                  CMP_GT p1, p0, r2, #0\n;;\n    BRCT b1 (p1)\n;;\n    HALT\n;;\n";

    /// A counted loop whose terminator bundle loads `4 * i` (i = 1..=10)
    /// beside its branch.
    const LOAD_LOOP: &str =
        "    MOVE r1, #0\n    MOVE r2, #10\n    MOVE r4, #0\n    PBR b1, @loop\n;;\n\
                             loop:\n    ADD r1, r1, r2\n;;\n    SUB r2, r2, #1\n    ADD r4, r4, #4\n;;\n\
                                 CMP_GT p1, p0, r2, #0\n;;\n    LW r5, r4, #0\n    BRCT b1 (p1)\n;;\n\
                                 HALT\n;;\n";

    #[test]
    fn run_until_access_stops_in_a_stream_body() {
        let config = Config::default();
        // The sixth lap's store, after five laps on the fast path.
        assert_eq!(drive(STORE_LOOP, &config, both(1 << 5)).1.len(), 1);
        // Every lap's first store, every lap's second, and the words of
        // two neighbouring laps.
        assert_eq!(drive(STORE_LOOP, &config, both(span(0, 10))).1.len(), 10);
        assert_eq!(drive(STORE_LOOP, &config, both(1 << 15)).1.len(), 10);
        assert_eq!(drive(STORE_LOOP, &config, both(span(5, 7))).1.len(), 2);
        // Without forwarding, and between the stores.
        let unforwarded = Config::builder().forwarding(false).build().unwrap();
        assert_eq!(drive(STORE_LOOP, &unforwarded, both(1 << 2)).1.len(), 1);
        assert!(drive(STORE_LOOP, &config, both(span(10, 15))).1.is_empty());
    }

    #[test]
    fn run_until_access_stops_before_a_streams_staged_terminator() {
        // The dispatcher's check at the top of the cycle catches the
        // terminator's load in stage 2, where the stream left it.
        let config = Config::default();
        let (sim, stops) = drive(LOAD_LOOP, &config, both(1 << 5));
        assert_eq!(stops.len(), 1);
        assert!(sim.chained_execs() > 0, "the laps chain");
        assert_eq!(drive(LOAD_LOOP, &config, both(span(0, 16))).1.len(), 10);
        let deep = Config::builder().pipeline_stages(4).build().unwrap();
        assert_eq!(drive(LOAD_LOOP, &deep, both(1 << 9)).1.len(), 1);
    }

    #[test]
    fn run_until_access_without_a_hit_matches_run() {
        let config = Config::default();
        for src in [LOOP_SRC, STORE_LOOP] {
            assert!(drive(src, &config, both(1 << 100)).1.is_empty());
            assert!(drive(src, &config, both(0)).1.is_empty(), "no words");
        }
    }

    #[test]
    fn run_until_access_stops_in_streams_of_every_entry_state() {
        // Before every store: the indebted loop's ten, the forwarded
        // leader's one and the guarded loop's twelve, guards ignored.
        for ((name, src, config, _), stops) in entry_state_cases().into_iter().zip([10, 1, 1, 12]) {
            assert_eq!(
                drive(src, &config, both(span(0, 16))).1.len(),
                stops,
                "{name}"
            );
        }
        // The second lap's store, in a body entered with debt 1, and the
        // second lap's guarded store, which its guard squashes.
        let config = Config::default();
        assert_eq!(drive(INDEBTED_LOOP, &config, both(1 << 1)).1.len(), 1);
        assert_eq!(drive(GUARDED_STORE_LOOP, &config, both(1 << 1)).1.len(), 1);
    }

    #[test]
    fn run_until_access_runs_load_only_words_through_stores() {
        let config = Config::default();
        let loads = |words| Words {
            loads: words,
            stores: 0,
        };
        let all = span(0, 16);
        assert!(drive(STORE_LOOP, &config, loads(all)).1.is_empty());
        assert_eq!(drive(LOAD_LOOP, &config, loads(all)).1.len(), 10);
        assert_eq!(drive(LOAD_LOOP, &config, loads(1 << 5)).1.len(), 1);
    }

    #[test]
    fn run_until_access_runs_store_only_words_through_loads() {
        let config = Config::default();
        let stores = |words| Words {
            loads: 0,
            stores: words,
        };
        let all = span(0, 16);
        assert!(drive(LOAD_LOOP, &config, stores(all)).1.is_empty());
        assert_eq!(drive(STORE_LOOP, &config, stores(all)).1.len(), 20);
        assert_eq!(drive(STORE_LOOP, &config, stores(1 << 15)).1.len(), 10);
    }

    #[test]
    fn run_until_access_stops_before_a_byte_access_into_a_marked_word() {
        // A byte store to address 22, inside word 5, then a halfword
        // load of addresses 22 and 23.
        let src = "    MOVE r1, #7\n;;\n    SB r1, r0, #22\n;;\n    LHU r2, r0, #22\n;;\n\
                   HALT\n;;\n";
        let config = Config::default();
        assert_eq!(drive(src, &config, both(1 << 5)).1.len(), 2);
        let store_only = Words {
            loads: 0,
            stores: 1 << 5,
        };
        assert_eq!(drive(src, &config, store_only).1.len(), 1);
        let load_only = Words {
            loads: 1 << 5,
            stores: 0,
        };
        assert_eq!(drive(src, &config, load_only).1.len(), 1);
        // The neighbouring words stop nothing.
        assert!(drive(src, &config, both(1 << 4 | 1 << 6)).1.is_empty());
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
