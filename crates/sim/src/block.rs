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
//! [`compile_blocks`] does exactly that. It partitions the program into
//! basic blocks over the shared [`epic_mdes::cfg::Cfg`], symbolically
//! replays each block's issue logic against the decoded arrays, and
//! stores the result as a [`CompiledBlock`]: a folded cycle count, a
//! folded [`StallBreakdown`], the scoreboard bookings to apply, and the
//! *entry signature* — per-register readiness caps under which the
//! replay is provably exact ([`entry_ok`]). The threaded run loop
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
use epic_mdes::cfg::Cfg;
use std::collections::HashMap;

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
    /// Scoreboard bookings per bundle, in issue order (the fault path
    /// replays the issued prefix bundle by bundle).
    pub(crate) bookings: Vec<Vec<Booking>>,
    /// All bookings concatenated in issue order: the success path
    /// applies them in one flat pass.
    pub(crate) flat_bookings: Vec<Booking>,
    /// Entry signature: the replay is exact iff, for each `(reg, cap)`,
    /// the live ready cycle is at most `entry_cycle + cap`.
    pub(crate) entry_gpr_caps: Vec<(u16, u64)>,
    pub(crate) entry_pred_caps: Vec<(u16, u64)>,
    pub(crate) entry_btr_caps: Vec<(u16, u64)>,
    /// Data-memory operations the body performs (0 when memory
    /// contention is off — debt is then never charged).
    pub(crate) body_mem_ops: u32,
    /// Fetch-bandwidth debt outstanding when the block exits (entry
    /// debt is required to be 0 whenever `body_mem_ops > 0`).
    pub(crate) exit_debt: u32,
}

/// Whether the live machine state is dominated by the block's entry
/// signature, i.e. the folded schedule is exact from here.
///
/// Called with the front end clean at the leader: nothing in stage 2,
/// no flush bubbles pending and `mem_debt < 2` (the pre-issue ladder
/// just passed).
pub(crate) fn entry_ok(sim: &Machine, block: &CompiledBlock) -> bool {
    let c = sim.cycle;
    // A pending or already-paid port wait for the leader would change
    // the replayed port accounting.
    if sim.port_wait != 0 || sim.port_wait_pc == Some(block.first) {
        return false;
    }
    // The replay assumed debt 0; without body memory traffic the debt
    // can never reach the stall threshold mid-block, so 0/1 both work.
    if block.body_mem_ops > 0 && sim.mem_debt != 0 {
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
    block
        .entry_gpr_caps
        .iter()
        .all(|&(r, cap)| sim.gpr_ready[r as usize] <= c + cap)
        && block
            .entry_pred_caps
            .iter()
            .all(|&(p, cap)| sim.pred_ready[p as usize] <= c + cap)
        && block
            .entry_btr_caps
            .iter()
            .all(|&(b, cap)| sim.btr_ready[b as usize] <= c + cap)
}

/// Rewinds a folded block interrupted by a fault in body bundle `i` to
/// the exact per-cycle machine state: the per-cycle loop would have
/// died in the execute stage of relative cycle `issue_rel[i] + 1`, with
/// bundles `0..=i` issued and their stalls counted.
pub(crate) fn fault_unwind(sim: &mut Machine, block: &CompiledBlock, entry_cycle: u64, i: usize) {
    let fault_rel = block.issue_rel[i];
    for bundle in &block.bookings[..=i] {
        apply_bookings(sim, entry_cycle, bundle);
    }
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

/// Partitions the program into basic blocks and compiles each eligible
/// one. Leaders are the entry bundle, every (over-approximate) branch
/// target and every bundle following a terminator; a block runs from
/// its leader to the first terminator (a bundle containing a branch or
/// halt, the last bundle, or a bundle whose successor is a leader).
pub(crate) fn compile_blocks(
    program: &DecodedProgram,
    cfg: &Cfg,
    entry: u32,
) -> Vec<Option<CompiledBlock>> {
    let len = program.bundles.len();
    let mut is_leader = vec![false; len];
    if (entry as usize) < len {
        is_leader[entry as usize] = true;
    }
    for bi in 0..len {
        for edge in cfg.succs(bi) {
            if edge.delta > 1 {
                is_leader[edge.to] = true;
            }
        }
    }
    let is_term: Vec<bool> = program
        .bundles
        .iter()
        .map(|b| {
            b.ops
                .iter()
                .any(|op| matches!(op.action, Action::Branch { .. } | Action::Halt))
        })
        .collect();
    for (t, &term) in is_term.iter().enumerate() {
        if term && t + 1 < len {
            is_leader[t + 1] = true;
        }
    }

    (0..len)
        .map(|leader| {
            if !is_leader[leader] {
                return None;
            }
            let mut term = leader;
            while !(is_term[term] || term + 1 == len || is_leader[term + 1]) {
                term += 1;
            }
            if term == leader {
                return None; // No straight-line body to fold.
            }
            translate(program, leader, term)
        })
        .collect()
}

/// Symbolically replays the issue logic of bundles `[first..=last]`
/// and folds the schedule into a [`CompiledBlock`], or `None` when the
/// block's timing cannot be proven statically.
fn translate(program: &DecodedProgram, first: usize, last: usize) -> Option<CompiledBlock> {
    let n = last - first + 1;
    let bundles = &program.bundles[first..=last];

    // Divides book ALU occupancy dynamically (which instance frees when
    // depends on history): never compile them.
    if bundles.iter().any(|b| b.div_ops > 0) {
        return None;
    }
    for bundle in &bundles[..n - 1] {
        for op in bundle.ops.iter() {
            match op.action {
                // A body branch/halt would change control mid-window.
                Action::Branch { .. } | Action::Halt => return None,
                // A guarded memory op makes the fetch-bandwidth debt
                // (and so the contention stalls) data-dependent.
                Action::Load { .. } | Action::Store { .. }
                    if program.mem_contention && op.guard != 0 =>
                {
                    return None;
                }
                _ => {}
            }
        }
    }
    let mem_ops: Vec<u32> = bundles[..n - 1]
        .iter()
        .map(|b| {
            if program.mem_contention {
                b.ops
                    .iter()
                    .filter(|op| matches!(op.action, Action::Load { .. } | Action::Store { .. }))
                    .count() as u32
            } else {
                0
            }
        })
        .collect();

    // ---- symbolic replay of the per-cycle issue loop -------------------
    // Relative scoreboard for registers the block has booked; registers
    // still carried from entry instead accumulate a readiness *cap*
    // under which the replayed timing is exact: the read must neither
    // stall (ready <= rel + 1) nor — with forwarding on, where an exact
    // match would bypass a register-file port — be in flight at all
    // (ready <= rel).
    let mut gpr_rel: HashMap<u16, u64> = HashMap::new();
    let mut pred_rel: HashMap<u16, u64> = HashMap::new();
    let mut btr_rel: HashMap<u16, u64> = HashMap::new();
    let mut gpr_caps: HashMap<u16, u64> = HashMap::new();
    let mut pred_caps: HashMap<u16, u64> = HashMap::new();
    let mut btr_caps: HashMap<u16, u64> = HashMap::new();
    let mut folded = StallBreakdown::default();
    let mut folded_events: Vec<(u64, StallCause)> = Vec::new();
    let mut issue_rel = vec![0u64; n];
    let mut bookings: Vec<Vec<Booking>> = vec![Vec::new(); n];
    let mut debt = 0u32;
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
                debt += mem_ops[bi];
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
        let exec = rel + 1;
        // Operand scoreboard over the block's own bookings.
        let hazard = bundle
            .gpr_reads
            .iter()
            .any(|r| gpr_rel.get(r).is_some_and(|&v| v > exec))
            || bundle
                .pred_reads
                .iter()
                .any(|p| pred_rel.get(p).is_some_and(|&v| v > exec))
            || bundle
                .btr_reads
                .iter()
                .any(|b| btr_rel.get(b).is_some_and(|&v| v > exec));
        if hazard {
            folded.data_hazard += 1;
            folded_events.push((rel, StallCause::DataHazard));
            rel += 1;
            continue;
        }
        // Entry-carried reads constrain the entry signature at the
        // first cycle the bundle clears the scoreboard.
        let gpr_cap = if program.forwarding { rel } else { exec };
        constrain(&mut gpr_caps, &gpr_rel, &bundle.gpr_reads, gpr_cap);
        constrain(&mut pred_caps, &pred_rel, &bundle.pred_reads, exec);
        constrain(&mut btr_caps, &btr_rel, &bundle.btr_reads, exec);
        // Functional units: no divides in the block and every ALU free
        // at entry, so availability never stalls.

        // Register-file port budget.
        if armed != Some(next) {
            let mut ports = bundle.write_ports;
            for r in bundle.gpr_reads.iter() {
                let forwarded = program.forwarding && gpr_rel.get(r).is_some_and(|&v| v == exec);
                if !forwarded {
                    ports += 1;
                }
            }
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
        for &(r, ready_after) in bundle.gpr_writes.iter() {
            bookings[next].push(Booking::Gpr(r, exec + ready_after));
            gpr_rel.insert(r, exec + ready_after);
        }
        for &p in bundle.pred_writes.iter() {
            bookings[next].push(Booking::Pred(p, exec + 1));
            pred_rel.insert(p, exec + 1);
        }
        for &b in bundle.btr_writes.iter() {
            bookings[next].push(Booking::Btr(b, exec + 1));
            btr_rel.insert(b, exec + 1);
        }
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

    let body_mem_ops = mem_ops.iter().sum();
    let flat_bookings = bookings.iter().flatten().copied().collect();
    Some(CompiledBlock {
        first: first as u32,
        n,
        block_cycles,
        folded,
        folded_events,
        issue_rel,
        bookings,
        flat_bookings,
        entry_gpr_caps: sorted(gpr_caps),
        entry_pred_caps: sorted(pred_caps),
        entry_btr_caps: sorted(btr_caps),
        body_mem_ops,
        exit_debt: debt,
    })
}

/// Records `cap` for every read in `reads` not booked by the block
/// itself, keeping the tightest cap per register.
fn constrain(caps: &mut HashMap<u16, u64>, booked: &HashMap<u16, u64>, reads: &[u16], cap: u64) {
    for r in reads {
        if !booked.contains_key(r) {
            let slot = caps.entry(*r).or_insert(cap);
            if cap < *slot {
                *slot = cap;
            }
        }
    }
}

fn sorted(caps: HashMap<u16, u64>) -> Vec<(u16, u64)> {
    let mut v: Vec<(u16, u64)> = caps.into_iter().collect();
    v.sort_unstable();
    v
}
