//! Register allocation: virtual registers → the configured register files.
//!
//! A linear-scan allocator maps virtual GPRs onto the allocatable portion
//! of the configured general-purpose register file, spilling to the stack
//! frame when pressure exceeds supply, and maps virtual predicates onto
//! the predicate file (predicates cannot be spilled; exceeding the file is
//! a configuration error the caller surfaces). The pass also expands call
//! pseudo-instructions into the calling convention and inserts prologue
//! and epilogue code, leaving a function containing only real, physical
//! operations ready for scheduling.
//!
//! # Calling convention
//!
//! * `r1` — return value (`Abi::ret`)
//! * `r2..r9` — arguments (`Abi::args`)
//! * `rN-3` — link register written by `BRL`
//! * `rN-2` — stack pointer (grows down, word-aligned)
//! * `rN-1` — reserved scratch
//! * `rN-6..rN-4` — spill temporaries
//! * everything else (minus `r0`, kept free as a conventional zero-ish
//!   anchor for debugging) — allocatable
//!
//! All registers are caller-saved: live values are saved around each call
//! site by this pass. BTR discipline: `b0` is used for calls, `b1`/`b2`
//! for intra-function branches (assigned at control finalisation).

use crate::error::CompileError;
use crate::mir::{MDest, MFunction, MInst, MOp, MSrc, MTerm};
use epic_config::Config;
use epic_isa::Opcode;
use std::collections::{HashMap, HashSet, VecDeque};

/// The register-usage convention derived from a configuration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Abi {
    /// Return-value register.
    pub ret: u32,
    /// Argument registers, in order.
    pub args: Vec<u32>,
    /// Link register (`BRL` destination).
    pub link: u32,
    /// Stack pointer.
    pub sp: u32,
    /// Reserved scratch register.
    pub scratch: u32,
    /// Spill temporaries.
    pub spill_temps: [u32; 3],
    /// Registers the allocator may hand out.
    pub allocatable: Vec<u32>,
}

impl Abi {
    /// Minimum GPR count the backend supports.
    pub const MIN_GPRS: usize = 24;

    /// Derives the convention from a configuration.
    ///
    /// # Errors
    ///
    /// Returns [`CompileError::RegisterFileTooSmall`] below
    /// [`Abi::MIN_GPRS`] registers.
    pub fn new(config: &Config) -> Result<Self, CompileError> {
        let n = config.num_gprs() as u32;
        if (n as usize) < Self::MIN_GPRS {
            return Err(CompileError::RegisterFileTooSmall {
                num_gprs: config.num_gprs(),
                minimum: Self::MIN_GPRS,
            });
        }
        let ret = 1;
        let args: Vec<u32> = (2..10).collect();
        let scratch = n - 1;
        let sp = n - 2;
        let link = n - 3;
        let spill_temps = [n - 6, n - 5, n - 4];
        let reserved: HashSet<u32> = [0, ret, scratch, sp, link]
            .into_iter()
            .chain(args.iter().copied())
            .chain(spill_temps)
            .collect();
        let allocatable: Vec<u32> = (1..n).filter(|r| !reserved.contains(r)).collect();
        Ok(Abi {
            ret,
            args,
            link,
            sp,
            scratch,
            spill_temps,
            allocatable,
        })
    }
}

/// Statistics reported by [`allocate`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RegAllocStats {
    /// Virtual GPRs spilled to the frame.
    pub spilled: usize,
    /// Registers saved across call sites (total across sites).
    pub call_saves: usize,
    /// Final frame size in bytes.
    pub frame_bytes: u32,
}

/// Runs register allocation, call expansion and prologue/epilogue
/// insertion on one machine function.
///
/// # Errors
///
/// Returns [`CompileError::OutOfPredicates`] when the predicate file is
/// too small, [`CompileError::TooManyArguments`] for oversized signatures.
pub fn allocate(
    mfunc: &mut MFunction,
    abi: &Abi,
    config: &Config,
) -> Result<RegAllocStats, CompileError> {
    if mfunc.params.len() > abi.args.len() {
        return Err(CompileError::TooManyArguments {
            function: mfunc.name.clone(),
            count: mfunc.params.len(),
            limit: abi.args.len(),
        });
    }

    let positions = Positions::new(mfunc);
    let gpr_live = Liveness::compute(mfunc, Space::Gpr);
    let pred_live = Liveness::compute(mfunc, Space::Pred);
    let gpr_intervals = intervals(mfunc, &positions, &gpr_live, Space::Gpr);
    let pred_intervals = intervals(mfunc, &positions, &pred_live, Space::Pred);

    // --- predicate assignment (no spilling) ---------------------------
    let pred_phys = config.num_pred_regs() as u32 - 1;
    let pred_assignment = linear_scan(&pred_intervals, pred_phys, |_| true).map_err(|needed| {
        CompileError::OutOfPredicates {
            function: mfunc.name.clone(),
            needed,
            available: pred_phys as usize,
        }
    })?;
    let pred_map: HashMap<u32, u32> = pred_assignment
        .assigned
        .iter()
        .map(|(v, idx)| (*v, idx + 1)) // physical predicates start at p1
        .collect();

    // --- GPR assignment with spilling ---------------------------------
    let mut spill_slots: HashMap<u32, u32> = HashMap::new();
    let phys_count = abi.allocatable.len() as u32;
    let gpr_assignment = linear_scan_with_spill(&gpr_intervals, phys_count);
    let mut next_slot: u32 = u32::from(mfunc.makes_calls); // slot 0 = link
    for v in &gpr_assignment.spilled {
        spill_slots.insert(*v, next_slot);
        next_slot += 1;
    }
    let gpr_map: HashMap<u32, u32> = gpr_assignment
        .assigned
        .iter()
        .map(|(v, idx)| (*v, abi.allocatable[*idx as usize]))
        .collect();

    // Call-save slots: one per physical register, allocated lazily.
    let mut save_slots: HashMap<u32, u32> = HashMap::new();

    let stats_spilled = gpr_assignment.spilled.len();
    let mut call_saves = 0;

    // --- rewrite -------------------------------------------------------
    let loc = |v: u32| -> Loc {
        if let Some(p) = gpr_map.get(&v) {
            Loc::Phys(*p)
        } else if let Some(s) = spill_slots.get(&v) {
            Loc::Slot(*s)
        } else {
            // Never-used register (dead def removed earlier); park it in a
            // spill temp so the write is harmless.
            Loc::Phys(abi.spill_temps[0])
        }
    };

    for bi in 0..mfunc.blocks.len() {
        let insts = std::mem::take(&mut mfunc.blocks[bi].insts);
        let mut out: Vec<MInst> = Vec::with_capacity(insts.len() + 4);
        for (ii, inst) in insts.into_iter().enumerate() {
            let pos = positions.of(bi, ii);
            match inst {
                MInst::Op(mut op) => {
                    let mut temp_cursor = 0usize;
                    let mut post_store: Option<(u32, u32, u32)> = None; // (phys, slot, guard)

                    // Reloads for spilled sources.
                    let mut fix_src = |src: &mut MSrc, out: &mut Vec<MInst>| {
                        if let MSrc::Gpr(v) = src {
                            match loc(*v) {
                                Loc::Phys(p) => *src = MSrc::Gpr(p),
                                Loc::Slot(s) => {
                                    let t = abi.spill_temps[temp_cursor];
                                    temp_cursor += 1;
                                    out.push(reload(t, abi.sp, s));
                                    *src = MSrc::Gpr(t);
                                }
                            }
                        }
                    };
                    fix_src(&mut op.src1, &mut out);
                    fix_src(&mut op.src2, &mut out);
                    if let Some(v) = op.store_value {
                        match loc(v) {
                            Loc::Phys(p) => op.store_value = Some(p),
                            Loc::Slot(s) => {
                                let t = abi.spill_temps[temp_cursor];
                                out.push(reload(t, abi.sp, s));
                                op.store_value = Some(t);
                            }
                        }
                    }
                    // Destination.
                    if let MDest::Gpr(v) = op.dest1 {
                        match loc(v) {
                            Loc::Phys(p) => op.dest1 = MDest::Gpr(p),
                            Loc::Slot(s) => {
                                let t = abi.spill_temps[2];
                                op.dest1 = MDest::Gpr(t);
                                post_store = Some((t, s, op.guard));
                            }
                        }
                    }
                    // Predicates.
                    let map_pred = |p: u32| -> u32 {
                        if p == 0 {
                            0
                        } else {
                            *pred_map.get(&p).expect("assigned predicate")
                        }
                    };
                    if let MDest::Pred(p) = op.dest1 {
                        op.dest1 = MDest::Pred(map_pred(p));
                    }
                    if let MDest::Pred(p) = op.dest2 {
                        op.dest2 = MDest::Pred(map_pred(p));
                    }
                    if let MSrc::Pred(p) = op.src1 {
                        op.src1 = MSrc::Pred(map_pred(p));
                    }
                    op.guard = map_pred(op.guard);
                    let guard_after = op.guard;
                    out.push(MInst::Op(op));
                    if let Some((t, s, _)) = post_store {
                        let mut sw = spill(t, abi.sp, s);
                        if let MInst::Op(op) = &mut sw {
                            op.guard = guard_after;
                        }
                        out.push(sw);
                    }
                }
                MInst::Call { callee, args, dest } => {
                    call_saves += expand_call(
                        &mut out,
                        abi,
                        &callee,
                        &args,
                        dest,
                        pos,
                        &gpr_intervals,
                        &gpr_map,
                        &mut save_slots,
                        &mut next_slot,
                        &loc,
                    );
                }
            }
        }
        mfunc.blocks[bi].insts = out;

        // Terminator predicates.
        if let MTerm::CondJump { pred, .. } = &mut mfunc.blocks[bi].term {
            *pred = *pred_map.get(pred).expect("assigned branch predicate");
        }
    }

    // --- frame, prologue, epilogue -------------------------------------
    let frame_bytes = next_slot * 4;
    let frame_bytes = frame_bytes.div_ceil(8) * 8;
    mfunc.frame_bytes = frame_bytes;

    // Prologue (entry block front): move SP, save link, bind parameters.
    let mut prologue: Vec<MInst> = Vec::new();
    if frame_bytes > 0 {
        prologue.push(add_imm(abi.sp, abi.sp, -i64::from(frame_bytes)));
    }
    if mfunc.makes_calls {
        prologue.push(spill(abi.link, abi.sp, 0));
    }
    let params = mfunc.params.clone();
    for (i, p) in params.iter().enumerate() {
        match loc(*p) {
            Loc::Phys(phys) => {
                if phys != abi.args[i] {
                    prologue.push(move_reg(phys, abi.args[i]));
                }
            }
            Loc::Slot(s) => prologue.push(spill(abi.args[i], abi.sp, s)),
        }
    }
    let entry = &mut mfunc.blocks[0].insts;
    for inst in prologue.into_iter().rev() {
        entry.insert(0, inst);
    }

    // Epilogues: return value into `ret`, restore link, pop frame.
    for block in &mut mfunc.blocks {
        if let MTerm::Ret(value) = block.term.clone() {
            if let Some(v) = value {
                match loc(v) {
                    Loc::Phys(p) => {
                        if p != abi.ret {
                            block.insts.push(move_reg(abi.ret, p));
                        }
                    }
                    Loc::Slot(s) => block.insts.push(reload(abi.ret, abi.sp, s)),
                }
            }
            if mfunc.makes_calls {
                block.insts.push(reload(abi.link, abi.sp, 0));
            }
            if frame_bytes > 0 {
                block
                    .insts
                    .push(add_imm(abi.sp, abi.sp, i64::from(frame_bytes)));
            }
            block.term = MTerm::Ret(None);
        }
    }

    mfunc.allocated = true;
    Ok(RegAllocStats {
        spilled: stats_spilled,
        call_saves,
        frame_bytes,
    })
}

#[allow(clippy::too_many_arguments)]
fn expand_call(
    out: &mut Vec<MInst>,
    abi: &Abi,
    callee: &str,
    args: &[u32],
    dest: Option<u32>,
    pos: u32,
    intervals: &[Interval],
    gpr_map: &HashMap<u32, u32>,
    save_slots: &mut HashMap<u32, u32>,
    next_slot: &mut u32,
    loc: &dyn Fn(u32) -> Loc,
) -> usize {
    // Physical registers holding values live beyond the call.
    let mut to_save: Vec<u32> = intervals
        .iter()
        .filter(|iv| iv.start < pos && iv.end > pos + 1)
        .filter_map(|iv| gpr_map.get(&iv.vreg).copied())
        .collect();
    to_save.sort_unstable();
    to_save.dedup();
    let saves = to_save.len();

    for phys in &to_save {
        let slot = *save_slots.entry(*phys).or_insert_with(|| {
            let s = *next_slot;
            *next_slot += 1;
            s
        });
        out.push(spill(*phys, abi.sp, slot));
    }
    // Argument moves (arg registers are never allocatable, so sources
    // cannot be clobbered by earlier argument moves).
    for (i, a) in args.iter().enumerate() {
        match loc(*a) {
            Loc::Phys(p) => out.push(move_reg(abi.args[i], p)),
            Loc::Slot(s) => out.push(reload(abi.args[i], abi.sp, s)),
        }
    }
    // PBR b0, @callee ; BRL link, b0
    let mut pbr = MOp::bare(Opcode::Pbr);
    pbr.dest1 = MDest::Btr(0);
    pbr.src1 = MSrc::Label(format!("fn_{callee}"));
    out.push(MInst::Op(pbr));
    let mut brl = MOp::bare(Opcode::Brl);
    brl.dest1 = MDest::Gpr(abi.link);
    brl.src1 = MSrc::Btr(0);
    out.push(MInst::Op(brl));
    // Return value.
    if let Some(d) = dest {
        match loc(d) {
            Loc::Phys(p) => {
                if p != abi.ret {
                    out.push(move_reg(p, abi.ret));
                }
            }
            Loc::Slot(s) => out.push(spill(abi.ret, abi.sp, s)),
        }
    }
    // Restores.
    for phys in &to_save {
        out.push(reload(*phys, abi.sp, save_slots[phys]));
    }
    saves
}

fn reload(dest: u32, sp: u32, slot: u32) -> MInst {
    let mut op = MOp::bare(Opcode::Lw);
    op.dest1 = MDest::Gpr(dest);
    op.src1 = MSrc::Gpr(sp);
    op.src2 = MSrc::Lit(i64::from(slot * 4));
    MInst::Op(op)
}

fn spill(src: u32, sp: u32, slot: u32) -> MInst {
    let mut op = MOp::bare(Opcode::Sw);
    op.store_value = Some(src);
    op.src1 = MSrc::Gpr(sp);
    op.src2 = MSrc::Lit(i64::from(slot * 4));
    MInst::Op(op)
}

fn move_reg(dest: u32, src: u32) -> MInst {
    let mut op = MOp::bare(Opcode::Move);
    op.dest1 = MDest::Gpr(dest);
    op.src1 = MSrc::Gpr(src);
    MInst::Op(op)
}

fn add_imm(dest: u32, src: u32, imm: i64) -> MInst {
    let mut op = MOp::bare(Opcode::Add);
    op.dest1 = MDest::Gpr(dest);
    op.src1 = MSrc::Gpr(src);
    op.src2 = MSrc::Lit(imm);
    MInst::Op(op)
}

#[derive(Debug, Clone, Copy)]
enum Loc {
    Phys(u32),
    Slot(u32),
}

// -----------------------------------------------------------------------
// Liveness and intervals
// -----------------------------------------------------------------------

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Space {
    Gpr,
    Pred,
}

fn inst_uses(inst: &MInst, space: Space) -> Vec<u32> {
    match space {
        Space::Gpr => inst.gpr_uses(),
        Space::Pred => inst.pred_uses().to_vec(),
    }
}

fn inst_defs(inst: &MInst, space: Space) -> Vec<u32> {
    match space {
        Space::Gpr => inst.gpr_def().into_iter().collect(),
        Space::Pred => inst.pred_defs().to_vec(),
    }
}

fn term_uses(term: &MTerm, space: Space) -> Vec<u32> {
    match (space, term) {
        (Space::Gpr, MTerm::Ret(Some(v))) => vec![*v],
        (Space::Pred, MTerm::CondJump { pred, .. }) => vec![*pred],
        _ => vec![],
    }
}

struct Liveness {
    live_in: Vec<HashSet<u32>>,
    live_out: Vec<HashSet<u32>>,
}

impl Liveness {
    fn compute(mfunc: &MFunction, space: Space) -> Liveness {
        let n = mfunc.blocks.len();
        let mut live_in = vec![HashSet::new(); n];
        let mut live_out = vec![HashSet::new(); n];
        loop {
            let mut changed = false;
            for bi in (0..n).rev() {
                let block = &mfunc.blocks[bi];
                let mut out_set: HashSet<u32> = HashSet::new();
                for succ in block.term.successors() {
                    out_set.extend(live_in[succ.0 as usize].iter().copied());
                }
                let mut live = out_set.clone();
                for u in term_uses(&block.term, space) {
                    live.insert(u);
                }
                for inst in block.insts.iter().rev() {
                    // Unconditional defs kill; conditional defs keep the
                    // old value alive (the write may be squashed).
                    for d in inst_defs(inst, space) {
                        if !inst.def_is_conditional() {
                            live.remove(&d);
                        }
                    }
                    for u in inst_uses(inst, space) {
                        live.insert(u);
                    }
                }
                if live != live_in[bi] {
                    live_in[bi] = live;
                    changed = true;
                }
                if out_set != live_out[bi] {
                    live_out[bi] = out_set;
                    changed = true;
                }
            }
            if !changed {
                return Liveness { live_in, live_out };
            }
        }
    }
}

/// Maps (block, inst) to linear positions; each instruction spans two
/// position units (use point, def point), and each block has entry/exit
/// sentinels so live-in/out extend intervals across the whole block.
struct Positions {
    block_start: Vec<u32>,
    block_end: Vec<u32>,
}

impl Positions {
    fn new(mfunc: &MFunction) -> Positions {
        let mut block_start = Vec::with_capacity(mfunc.blocks.len());
        let mut block_end = Vec::with_capacity(mfunc.blocks.len());
        let mut cursor = 0u32;
        for block in &mfunc.blocks {
            block_start.push(cursor);
            cursor += 2 * block.insts.len() as u32 + 2; // +2 for the terminator
            block_end.push(cursor);
        }
        Positions {
            block_start,
            block_end,
        }
    }

    fn of(&self, block: usize, inst: usize) -> u32 {
        self.block_start[block] + 2 * inst as u32
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Interval {
    vreg: u32,
    start: u32,
    end: u32,
}

fn intervals(
    mfunc: &MFunction,
    positions: &Positions,
    live: &Liveness,
    space: Space,
) -> Vec<Interval> {
    let mut map: HashMap<u32, (u32, u32)> = HashMap::new();
    let mut extend = |v: u32, p: u32| {
        let entry = map.entry(v).or_insert((p, p));
        entry.0 = entry.0.min(p);
        entry.1 = entry.1.max(p);
    };
    // Parameters are defined at function entry.
    if space == Space::Gpr {
        for p in &mfunc.params {
            extend(*p, 0);
        }
    }
    for (bi, block) in mfunc.blocks.iter().enumerate() {
        for v in &live.live_in[bi] {
            extend(*v, positions.block_start[bi]);
        }
        for v in &live.live_out[bi] {
            extend(*v, positions.block_end[bi]);
        }
        for (ii, inst) in block.insts.iter().enumerate() {
            let pos = positions.of(bi, ii);
            for u in inst_uses(inst, space) {
                extend(u, pos);
            }
            for d in inst_defs(inst, space) {
                extend(d, pos + 1);
            }
        }
        let term_pos = positions.block_end[bi] - 1;
        for u in term_uses(&block.term, space) {
            extend(u, term_pos);
        }
    }
    let mut out: Vec<Interval> = map
        .into_iter()
        .map(|(vreg, (start, end))| Interval { vreg, start, end })
        .collect();
    out.sort_by_key(|iv| (iv.start, iv.vreg));
    out
}

// -----------------------------------------------------------------------
// Linear scan
// -----------------------------------------------------------------------

struct Assignment {
    assigned: HashMap<u32, u32>, // vreg -> pool index
    spilled: Vec<u32>,
}

/// Scan without spilling; `Err(peak)` when the pool is exceeded.
fn linear_scan(
    intervals: &[Interval],
    pool_size: u32,
    _filter: impl Fn(u32) -> bool,
) -> Result<Assignment, usize> {
    let mut free: VecDeque<u32> = (0..pool_size).collect();
    let mut active: Vec<(u32, u32, u32)> = Vec::new(); // (end, pool idx, vreg)
    let mut assigned = HashMap::new();
    let mut peak = 0usize;
    for iv in intervals {
        active.retain(|(end, idx, _)| {
            if *end < iv.start {
                free.push_back(*idx);
                false
            } else {
                true
            }
        });
        let Some(idx) = free.pop_front() else {
            return Err(peak.max(active.len() + 1));
        };
        assigned.insert(iv.vreg, idx);
        active.push((iv.end, idx, iv.vreg));
        peak = peak.max(active.len());
    }
    Ok(Assignment {
        assigned,
        spilled: Vec::new(),
    })
}

/// Scan with furthest-end spilling.
fn linear_scan_with_spill(intervals: &[Interval], pool_size: u32) -> Assignment {
    let mut free: VecDeque<u32> = (0..pool_size).collect();
    let mut active: Vec<(u32, u32, u32)> = Vec::new(); // (end, pool idx, vreg)
    let mut assigned: HashMap<u32, u32> = HashMap::new();
    let mut spilled: Vec<u32> = Vec::new();
    for iv in intervals {
        active.retain(|(end, idx, _)| {
            if *end < iv.start {
                free.push_back(*idx);
                false
            } else {
                true
            }
        });
        if let Some(idx) = free.pop_front() {
            assigned.insert(iv.vreg, idx);
            active.push((iv.end, idx, iv.vreg));
        } else {
            // Spill the interval that ends furthest away.
            let (victim_pos, &(v_end, v_idx, v_vreg)) = active
                .iter()
                .enumerate()
                .max_by_key(|(_, (end, _, _))| *end)
                .expect("active is nonempty when the pool is full");
            if v_end > iv.end {
                assigned.remove(&v_vreg);
                spilled.push(v_vreg);
                active.swap_remove(victim_pos);
                assigned.insert(iv.vreg, v_idx);
                active.push((iv.end, v_idx, iv.vreg));
            } else {
                spilled.push(iv.vreg);
            }
        }
    }
    Assignment { assigned, spilled }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ifconv::if_convert;
    use crate::select::{fold_literal_operands, select};
    use epic_ir::ast::{Expr, FunctionDef, Program, Stmt};
    use epic_ir::lower;

    fn alloc_one(f: FunctionDef, config: &Config) -> (MFunction, RegAllocStats) {
        let m = lower::lower(&Program::new().function(f)).unwrap();
        let mut mf = select(&m.functions[0], config).unwrap();
        fold_literal_operands(&mut mf, config);
        if_convert(&mut mf);
        let abi = Abi::new(config).unwrap();
        let stats = allocate(&mut mf, &abi, config).unwrap();
        (mf, stats)
    }

    fn all_phys_in_range(mf: &MFunction, config: &Config) {
        let n = config.num_gprs() as u32;
        for block in &mf.blocks {
            for inst in &block.insts {
                if let MInst::Op(op) = inst {
                    for r in op.gpr_uses() {
                        assert!(r < n, "{op}: r{r} out of range");
                    }
                    if let Some(r) = op.gpr_def() {
                        assert!(r < n);
                    }
                    for p in op.pred_uses().into_iter().chain(op.pred_defs()) {
                        assert!((p as usize) < config.num_pred_regs());
                    }
                } else {
                    panic!("call pseudo survived allocation");
                }
            }
        }
    }

    #[test]
    fn simple_function_allocates_without_spills() {
        let config = Config::default();
        let f = FunctionDef::new("f", ["a", "b"])
            .body([Stmt::ret(Expr::var("a") * Expr::var("b") + Expr::lit(1))]);
        let (mf, stats) = alloc_one(f, &config);
        assert!(mf.allocated);
        assert_eq!(stats.spilled, 0);
        all_phys_in_range(&mf, &config);
    }

    #[test]
    fn high_pressure_spills_and_stays_in_range() {
        // Sum of 60 distinct live values forces spilling on a 24-GPR file.
        let config = Config::builder().num_gprs(24).build().unwrap();
        let mut body = Vec::new();
        for i in 0..60 {
            body.push(Stmt::let_(format!("x{i}"), Expr::var("a") + Expr::lit(i)));
        }
        let mut sum = Expr::var("x0");
        for i in 1..60 {
            sum = sum + Expr::var(format!("x{i}"));
        }
        body.push(Stmt::ret(sum));
        let f = FunctionDef::new("f", ["a"]).body(body);
        let (mf, stats) = alloc_one(f, &config);
        assert!(stats.spilled > 0, "expected spills under pressure");
        assert!(stats.frame_bytes > 0);
        all_phys_in_range(&mf, &config);
    }

    #[test]
    fn calls_are_expanded_into_the_convention() {
        let config = Config::default();
        let g = FunctionDef::new("g", ["x"]).body([Stmt::ret(Expr::var("x") + Expr::lit(1))]);
        let f = FunctionDef::new("f", ["x"]).body([
            Stmt::let_("k", Expr::var("x") * Expr::lit(3)),
            Stmt::let_("r", Expr::call("g", [Expr::var("k")])),
            Stmt::ret(Expr::var("r") + Expr::var("k")),
        ]);
        let m = lower::lower(&Program::new().function(g).function(f)).unwrap();
        let mut mf = select(m.function("f").unwrap(), &config).unwrap();
        let abi = Abi::new(&config).unwrap();
        let stats = allocate(&mut mf, &abi, &config).unwrap();
        // k is live across the call and must be saved.
        assert!(stats.call_saves >= 1);
        let ops: Vec<&MOp> = mf
            .blocks
            .iter()
            .flat_map(|b| &b.insts)
            .filter_map(MInst::as_op)
            .collect();
        assert!(ops.iter().any(|o| o.opcode == Opcode::Brl));
        assert!(ops
            .iter()
            .any(|o| matches!(&o.src1, MSrc::Label(l) if l == "fn_g")));
        // Prologue saves the link register because f makes calls.
        assert!(mf.frame_bytes >= 4);
        all_phys_in_range(&mf, &config);
    }

    #[test]
    fn too_many_parameters_is_an_error() {
        let config = Config::default();
        let names: Vec<String> = (0..9).map(|i| format!("p{i}")).collect();
        let f = FunctionDef::new("f", names).body([Stmt::ret(Expr::var("p0"))]);
        let m = lower::lower(&Program::new().function(f)).unwrap();
        let mut mf = select(&m.functions[0], &config).unwrap();
        let abi = Abi::new(&config).unwrap();
        assert!(matches!(
            allocate(&mut mf, &abi, &config),
            Err(CompileError::TooManyArguments { .. })
        ));
    }

    #[test]
    fn tiny_register_file_is_rejected() {
        let config = Config::builder().num_gprs(16).build().unwrap();
        assert!(matches!(
            Abi::new(&config),
            Err(CompileError::RegisterFileTooSmall { .. })
        ));
    }

    #[test]
    fn predicated_code_keeps_both_writes() {
        // After if-conversion both arms write r; allocation must keep the
        // conditional defs and their guards.
        let config = Config::default();
        let f = FunctionDef::new("f", ["x"]).body([
            Stmt::let_("r", Expr::lit(0)),
            Stmt::if_else(
                Expr::var("x").gt_s(Expr::lit(0)),
                [Stmt::assign("r", Expr::lit(1))],
                [Stmt::assign("r", Expr::lit(2))],
            ),
            Stmt::ret(Expr::var("r")),
        ]);
        let (mf, _) = alloc_one(f, &config);
        let guarded: Vec<&MOp> = mf
            .blocks
            .iter()
            .flat_map(|b| &b.insts)
            .filter_map(MInst::as_op)
            .filter(|o| o.guard != 0)
            .collect();
        assert!(guarded.len() >= 2);
        all_phys_in_range(&mf, &config);
    }
}
