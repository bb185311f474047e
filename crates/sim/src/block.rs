//! Compiled blocks: the threaded run loop's substrate.
//!
//! The per-cycle loop (`machine.rs`) pays the full per-cycle price on
//! every cycle: scoreboard scan, unit availability, port accounting,
//! stall ladder. Inside a straight-line basic block none of that can
//! surprise us — the bundles, their reads, their writes and their
//! latencies are all known statically, so the *entire* cycle-by-cycle
//! negotiation can be replayed once, ahead of execution, and folded into a
//! constant: how many cycles the block takes, which stall counters it
//! bumps, and what every scoreboard entry reads after it.
//!
//! [`compile_blocks`] does exactly that. It takes the program's basic
//! blocks from the shared partition
//! ([`epic_mdes::cfg::Cfg::basic_blocks`]), cut after every bundle with
//! a guarded load or store ([`has_guarded_memory`]), symbolically
//! replays each piece's issue logic against the decoded arrays, and
//! stores the result as a [`CompiledBlock`]: a folded cycle count, a
//! folded [`StallBreakdown`], the scoreboard bookings to apply, and the
//! *entry signature* — the fetch debt the replay entered with and
//! per-register readiness caps under which the replay is provably
//! exact ([`entry_ok`]); [`recompile`] replays a piece again for a
//! leader reached with debt outstanding. The threaded run loop
//! (`crate::threaded`) translates this table into its step streams on
//! a simulator's first unobserved run;
//! [`fold_exit`] applies a block's folded exit state and
//! [`fault_unwind`] rewinds a block interrupted by a fault to the exact
//! per-cycle machine state, so results stay **bit-identical** to
//! [`crate::Simulator`] by construction.

use crate::decoded::DecodedProgram;
use crate::machine::Machine;
use crate::semantics::Action;
use crate::stats::{StallBreakdown, StallCause};
use std::ops::Range;

/// Upper bound on symbolic-replay cycles per block: a block that takes
/// longer than this to issue is not worth compiling (and a runaway
/// replay would indicate a bug, not a real schedule).
const REPLAY_CYCLE_CAP: u64 = 10_000;

/// One scoreboard booking a block issues, with its ready cycle relative
/// to the block's entry cycle.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Booking {
    /// `gpr_ready[reg] = entry_cycle + rel`.
    Gpr(u16, u64),
    /// `pred_ready[reg] = entry_cycle + rel`.
    Pred(u16, u64),
    /// `btr_ready[reg] = entry_cycle + rel`.
    Btr(u16, u64),
}

/// A basic block whose issue schedule has been folded ahead of
/// execution.
///
/// The threaded run loop (`crate::threaded`) uses the folded
/// schedule as the pre-bound payload of its step streams.
#[derive(Debug, Clone)]
pub(crate) struct CompiledBlock {
    /// Address of the first bundle (the block leader).
    pub(crate) first: u32,
    /// Number of bundles in the block (terminator included, `>= 2`).
    pub(crate) n: usize,
    /// Cycles from block entry until the terminator has issued.
    pub(crate) block_cycles: u64,
    /// Stall counters the block's schedule accumulates.
    pub(crate) folded: StallBreakdown,
    /// The folded stalls as `(relative cycle, cause)` events, in cycle
    /// order, for reconstructing a fault interrupted mid-block.
    pub(crate) folded_events: Vec<(u64, StallCause)>,
    /// Relative issue cycle of each bundle in the block.
    pub(crate) issue_rel: Vec<u64>,
    /// All scoreboard bookings in issue order: the success path applies
    /// them in one flat pass.
    pub(crate) flat_bookings: Vec<Booking>,
    /// How many of `flat_bookings` bundles `0..=i` made, per bundle `i`
    /// (the fault path replays the issued prefix).
    pub(crate) booked: Vec<u32>,
    /// Entry signature: the replay is exact iff, for each `(reg, cap)`,
    /// the live ready cycle is at most `entry_cycle + cap`. GPR caps
    /// come first, then predicate caps from `cap_split[0]`, then BTR
    /// caps from `cap_split[1]`, each sorted by register.
    pub(crate) entry_caps: Vec<(u16, u64)>,
    pub(crate) cap_split: [usize; 2],
    /// Data-memory operations the body performs (0 when memory
    /// contention is off — debt is then never charged).
    pub(crate) body_mem_ops: u32,
    /// Fetch-bandwidth debt the replay entered with: 0 or 1, since the
    /// pre-issue ladder stalls while the debt is 2 or more.
    pub(crate) entry_debt: u32,
    /// Fetch-bandwidth debt outstanding when the block exits, entered
    /// with `entry_debt`. Without body memory traffic the debt is never
    /// charged or paid inside the block, so it stays at the live entry
    /// debt and the fold leaves it alone.
    pub(crate) exit_debt: u32,
}

/// Whether the live machine state is dominated by the block's entry
/// signature, i.e. the folded schedule is exact from here.
///
/// Called with the front end clean at the leader: nothing in stage 2,
/// no flush bubbles pending and `mem_debt < 2` (the pre-issue ladder
/// just passed), on the replay whose entry debt the dispatcher chose
/// for the live debt.
pub(crate) fn entry_ok(sim: &Machine, block: &CompiledBlock) -> bool {
    let c = sim.cycle;
    // A pending or already-paid port wait for the leader would change
    // the replayed port accounting.
    if sim.port_wait != 0 || sim.port_wait_pc == Some(block.first) {
        return false;
    }
    // The replay entered with `entry_debt`; without body memory
    // traffic the debt never reaches the stall threshold mid-block, so
    // either entry debt replays the same.
    if block.body_mem_ops > 0 && sim.mem_debt != block.entry_debt {
        return false;
    }
    // Every in-window step must clear the cycle budget check.
    match c.checked_add(block.block_cycles) {
        Some(end) if end <= sim.cycle_limit => {}
        _ => return false,
    }
    // The replay assumed every ALU instance free at every exec cycle
    // (blocks containing divides are never compiled).
    if sim.alu_busy.iter().any(|&b| b > c + 1) {
        return false;
    }
    let [preds, btrs] = block.cap_split;
    let (gpr_caps, rest) = block.entry_caps.split_at(preds);
    let (pred_caps, btr_caps) = rest.split_at(btrs - preds);
    (gpr_caps.iter()).all(|&(r, cap)| sim.gpr_ready[r as usize] <= c + cap)
        && (pred_caps.iter()).all(|&(p, cap)| sim.pred_ready[p as usize] <= c + cap)
        && (btr_caps.iter()).all(|&(b, cap)| sim.btr_ready[b as usize] <= c + cap)
}

/// Rewinds a folded block interrupted by a fault in body bundle `i` to
/// the exact per-cycle machine state: the per-cycle loop would have
/// died in the execute stage of relative cycle `issue_rel[i] + 1`, with
/// bundles `0..=i` issued and their stalls counted.
pub(crate) fn fault_unwind(sim: &mut Machine, block: &CompiledBlock, entry_cycle: u64, i: usize) {
    let fault_rel = block.issue_rel[i];
    apply_bookings(
        sim,
        entry_cycle,
        &block.flat_bookings[..block.booked[i] as usize],
    );
    let mut contention = 0u64;
    for &(rel, cause) in &block.folded_events {
        if rel > fault_rel {
            break;
        }
        add_stall(&mut sim.stats.stalls, cause);
        if cause == StallCause::MemoryContention {
            contention += 1;
        }
    }
    // The body's execute steps charged debt live; pay the contention
    // stalls the folded schedule already took.
    sim.mem_debt -= 2 * contention as u32;
    sim.cycle = entry_cycle + fault_rel + 1;
    sim.stats.cycles = sim.cycle;
    sim.pc = block.first + i as u32 + 1;
    sim.stage2 = None;
    sim.port_wait = 0;
    sim.port_wait_pc = None;
}

/// Applies a folded block's exit state after its body executed: the
/// flat scoreboard bookings, the folded stall counters, the cycle jump,
/// and the staged terminator.
pub(crate) fn fold_exit(sim: &mut Machine, block: &CompiledBlock, entry_cycle: u64) {
    apply_bookings(sim, entry_cycle, &block.flat_bookings);
    let folded = &block.folded;
    sim.stats.stalls.data_hazard += folded.data_hazard;
    sim.stats.stalls.unit_busy += folded.unit_busy;
    sim.stats.stalls.regfile_port += folded.regfile_port;
    sim.stats.stalls.branch_flush += folded.branch_flush;
    sim.stats.stalls.memory_contention += folded.memory_contention;
    sim.cycle = entry_cycle + block.block_cycles;
    sim.stats.cycles = sim.cycle;
    // The terminator issued on the window's last cycle; it executes —
    // branches, halts, faults and all — in the next per-cycle step.
    let terminator = block.first + (block.n - 1) as u32;
    sim.stage2 = Some(terminator);
    sim.pc = terminator + 1;
    sim.port_wait = 0;
    sim.port_wait_pc = None;
    if block.body_mem_ops > 0 {
        sim.mem_debt = block.exit_debt;
    }
}

fn apply_bookings(sim: &mut Machine, entry_cycle: u64, bookings: &[Booking]) {
    for &booking in bookings {
        match booking {
            Booking::Gpr(r, rel) => sim.gpr_ready[r as usize] = entry_cycle + rel,
            Booking::Pred(p, rel) => sim.pred_ready[p as usize] = entry_cycle + rel,
            Booking::Btr(b, rel) => sim.btr_ready[b as usize] = entry_cycle + rel,
        }
    }
}

fn add_stall(stalls: &mut StallBreakdown, cause: StallCause) {
    match cause {
        StallCause::DataHazard => stalls.data_hazard += 1,
        StallCause::UnitBusy => stalls.unit_busy += 1,
        StallCause::RegfilePort => stalls.regfile_port += 1,
        StallCause::BranchFlush => stalls.branch_flush += 1,
        StallCause::MemoryContention => stalls.memory_contention += 1,
    }
}

/// Compiles each eligible block of `blocks`, in order, entered with no
/// fetch-bandwidth debt. A one-bundle block has no straight-line body
/// to fold and is skipped.
///
/// The blocks are the translation's pieces: basic blocks cut after
/// every body bundle with a guarded load or store (see
/// [`has_guarded_memory`]), so no body holds one.
pub(crate) fn compile_blocks(
    program: &DecodedProgram,
    blocks: &[Range<usize>],
) -> Vec<CompiledBlock> {
    let mut replay = Replay::default();
    (blocks.iter())
        .filter(|block| block.len() > 1)
        .filter_map(|block| translate(program, block.start, block.end - 1, 0, &mut replay))
        .collect()
}

/// Compiles `block` again, entered with `entry_debt`: the replay for a
/// leader reached with debt outstanding.
pub(crate) fn recompile(
    program: &DecodedProgram,
    block: &CompiledBlock,
    entry_debt: u32,
) -> Option<CompiledBlock> {
    let first = block.first as usize;
    translate(
        program,
        first,
        first + block.n - 1,
        entry_debt,
        &mut Replay::default(),
    )
}

/// Whether bundle `pc` has a guarded load or store whose debt depends
/// on its guard: with contention on, an access charges debt only when
/// its guard holds, so no replay can fold what follows it.
pub(crate) fn has_guarded_memory(program: &DecodedProgram, pc: usize) -> bool {
    program.mem_contention
        && (program.ops(&program.bundles[pc]).iter()).any(|op| {
            op.guard != 0 && matches!(op.action, Action::Load { .. } | Action::Store { .. })
        })
}

/// Register readiness for one block's replay, one slot per register
/// index, reset between blocks through the list of slots it touched.
#[derive(Default)]
struct RegMap {
    values: Vec<Option<u64>>,
    touched: Vec<u16>,
}

impl RegMap {
    fn clear(&mut self) {
        for &r in &self.touched {
            self.values[usize::from(r)] = None;
        }
        self.touched.clear();
    }

    fn get(&self, r: u16) -> Option<u64> {
        self.values.get(usize::from(r)).copied().flatten()
    }

    fn insert(&mut self, r: u16, value: u64) {
        let i = usize::from(r);
        if i >= self.values.len() {
            self.values.resize(i + 1, None);
        }
        if self.values[i].replace(value).is_none() {
            self.touched.push(r);
        }
    }

    /// Appends the entries to `out`, sorted by register.
    fn append_sorted(&mut self, out: &mut Vec<(u16, u64)>) {
        self.touched.sort_unstable();
        out.extend(
            (self.touched.iter()).map(|&r| (r, self.values[usize::from(r)].expect("touched"))),
        );
    }
}

/// The symbolic replay's register state, kept across the blocks of a
/// program: for each register file, the relative scoreboard of
/// registers the block has booked, and the entry caps of those it reads
/// from entry.
#[derive(Default)]
struct Replay {
    gpr_rel: RegMap,
    pred_rel: RegMap,
    btr_rel: RegMap,
    gpr_caps: RegMap,
    pred_caps: RegMap,
    btr_caps: RegMap,
}

/// Symbolically replays the issue logic of bundles `[first..=last]`,
/// entered with `entry_debt` outstanding, and folds the schedule into a
/// [`CompiledBlock`], or `None` when the block's timing cannot be
/// proven statically.
fn translate(
    program: &DecodedProgram,
    first: usize,
    last: usize,
    entry_debt: u32,
    replay: &mut Replay,
) -> Option<CompiledBlock> {
    let n = last - first + 1;
    let bundles = &program.bundles[first..=last];

    // Divides book ALU occupancy dynamically (which instance frees when
    // depends on history): never compile them.
    if bundles.iter().any(|b| b.div_ops > 0) {
        return None;
    }
    // A body branch/halt would change control mid-window.
    if (bundles[..n - 1].iter()).any(|b| {
        (program.ops(b).iter()).any(|op| matches!(op.action, Action::Branch { .. } | Action::Halt))
    }) {
        return None;
    }
    // A guarded memory op makes the debt, and so the contention stalls,
    // data-dependent: the caller ends a piece at every such bundle.
    debug_assert!(
        !(first..last).any(|pc| has_guarded_memory(program, pc)),
        "a guarded load or store inside a replayed body"
    );
    let mem_ops = |bi: usize| -> u32 {
        if program.mem_contention && bi < n - 1 {
            (program.ops(&bundles[bi]).iter())
                .filter(|op| matches!(op.action, Action::Load { .. } | Action::Store { .. }))
                .count() as u32
        } else {
            0
        }
    };

    // ---- symbolic replay of the per-cycle issue loop -------------------
    // Relative scoreboard for registers the block has booked; registers
    // still carried from entry instead accumulate a readiness *cap*
    // under which the replayed timing is exact: the read must not stall
    // (ready <= rel + 1). With forwarding on, a read ready exactly then
    // bypasses a register-file port; where that saving could shorten
    // the port wait, the read must not be in flight at all (ready <=
    // rel).
    let Replay {
        gpr_rel,
        pred_rel,
        btr_rel,
        gpr_caps,
        pred_caps,
        btr_caps,
    } = replay;
    for map in [
        &mut *gpr_rel,
        &mut *pred_rel,
        &mut *btr_rel,
        &mut *gpr_caps,
        &mut *pred_caps,
        &mut *btr_caps,
    ] {
        map.clear();
    }
    let mut folded = StallBreakdown::default();
    let mut folded_events: Vec<(u64, StallCause)> = Vec::new();
    let mut issue_rel = vec![0u64; n];
    let mut flat_bookings: Vec<Booking> = Vec::new();
    let mut booked = vec![0u32; n];
    let mut debt = entry_debt;
    let mut port_wait = 0u32;
    let mut armed: Option<usize> = None;
    let mut exec_sched: Option<(usize, u64)> = None;
    let mut next = 0usize;
    let mut rel = 0u64;

    let block_cycles = loop {
        if rel > REPLAY_CYCLE_CAP {
            return None;
        }
        // Execute stage: the bundle issued last cycle charges its debt.
        if let Some((bi, at)) = exec_sched {
            debug_assert!(at >= rel, "an execute step was skipped");
            if at == rel {
                debt += mem_ops(bi);
                exec_sched = None;
            }
        }
        // Pre-issue ladder (no redirects or flushes inside a block).
        if debt >= 2 {
            debt -= 2;
            folded.memory_contention += 1;
            folded_events.push((rel, StallCause::MemoryContention));
            rel += 1;
            continue;
        }
        let bundle = &bundles[next];
        let (gpr_reads, pred_reads, btr_reads) = (
            program.gpr_reads(bundle),
            program.pred_reads(bundle),
            program.btr_reads(bundle),
        );
        let exec = rel + 1;
        // Operand scoreboard over the block's own bookings.
        let hazard = (gpr_reads.iter()).any(|&r| gpr_rel.get(r).is_some_and(|v| v > exec))
            || (pred_reads.iter()).any(|&p| pred_rel.get(p).is_some_and(|v| v > exec))
            || (btr_reads.iter()).any(|&b| btr_rel.get(b).is_some_and(|v| v > exec));
        if hazard {
            folded.data_hazard += 1;
            folded_events.push((rel, StallCause::DataHazard));
            rel += 1;
            continue;
        }
        // Register-file ports, every entry-carried read counted as a
        // file read.
        let mut ports = bundle.write_ports;
        for &r in gpr_reads {
            let forwarded = program.forwarding && gpr_rel.get(r) == Some(exec);
            if !forwarded {
                ports += 1;
            }
        }
        // Entry-carried reads constrain the entry signature at the
        // first cycle the bundle clears the scoreboard. A forwarded
        // entry read only lowers the live port count, which cannot
        // change the wait while the replayed count fits one cycle.
        let gpr_cap = if program.forwarding && ports > program.port_budget {
            rel
        } else {
            exec
        };
        constrain(gpr_caps, gpr_rel, gpr_reads, gpr_cap);
        constrain(pred_caps, pred_rel, pred_reads, exec);
        constrain(btr_caps, btr_rel, btr_reads, exec);
        // Functional units: no divides in the block and every ALU free
        // at entry, so availability never stalls.

        // Register-file port budget, armed once per bundle.
        if armed != Some(next) {
            let needed_cycles = ports.div_ceil(program.port_budget).max(1) as u32;
            if needed_cycles > 1 {
                port_wait = needed_cycles - 1;
                armed = Some(next);
            }
        }
        if port_wait > 0 {
            port_wait -= 1;
            folded.regfile_port += 1;
            folded_events.push((rel, StallCause::RegfilePort));
            rel += 1;
            continue;
        }
        armed = None;
        // Issue: book destinations exactly as `Machine::try_issue`.
        for &(r, ready_after) in program.gpr_writes(bundle) {
            flat_bookings.push(Booking::Gpr(r, exec + ready_after));
            gpr_rel.insert(r, exec + ready_after);
        }
        for &p in program.pred_writes(bundle) {
            flat_bookings.push(Booking::Pred(p, exec + 1));
            pred_rel.insert(p, exec + 1);
        }
        for &b in program.btr_writes(bundle) {
            flat_bookings.push(Booking::Btr(b, exec + 1));
            btr_rel.insert(b, exec + 1);
        }
        booked[next] = flat_bookings.len() as u32;
        issue_rel[next] = rel;
        if next < n - 1 {
            // The terminator's execute happens outside the window.
            exec_sched = Some((next, exec));
        }
        next += 1;
        if next == n {
            break rel + 1;
        }
        rel += 1;
    };

    let body_mem_ops = (0..n - 1).map(mem_ops).sum();
    let mut entry_caps = Vec::new();
    gpr_caps.append_sorted(&mut entry_caps);
    let preds = entry_caps.len();
    pred_caps.append_sorted(&mut entry_caps);
    let btrs = entry_caps.len();
    btr_caps.append_sorted(&mut entry_caps);
    Some(CompiledBlock {
        first: first as u32,
        n,
        block_cycles,
        folded,
        folded_events,
        issue_rel,
        flat_bookings,
        booked,
        entry_caps,
        cap_split: [preds, btrs],
        body_mem_ops,
        entry_debt,
        exit_debt: debt,
    })
}

/// Records `cap` for every read in `reads` not booked by the block
/// itself, keeping the tightest cap per register.
fn constrain(caps: &mut RegMap, booked: &RegMap, reads: &[u16], cap: u64) {
    for &r in reads {
        if booked.get(r).is_none() && caps.get(r).is_none_or(|slot| cap < slot) {
            caps.insert(r, cap);
        }
    }
}
