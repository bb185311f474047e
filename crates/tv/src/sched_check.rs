//! Refinement checks for control finalisation and list scheduling.
//!
//! [`check_finalize`] (TV008) recomputes the reachable-block layout and
//! the `PBR`/branch lowering of every abstract terminator from first
//! principles and demands the finalised function is exactly the
//! allocated function plus those lowered tails.
//!
//! [`check_schedule`] (TV005–TV007) proves each scheduled block is a
//! permutation of the finalised block's operations (TV005), rebuilds the
//! dependence DAG — flow, output, anti, memory and branch-order edges,
//! with the same conditional-write and memory-disambiguation rules as
//! the scheduler — and checks every edge against the issue cycles the
//! schedule actually chose (TV006), and cross-checks the per-bundle
//! metadata against [`epic_mdes::MachineDescription::bundle_cost`] and
//! the machine's structural limits (TV007).
//!
//! A flow edge scheduled closer than the producer's latency — but still
//! in a *later* cycle — is a TV006 **warning**: the scoreboard interlock
//! covers it at run time, costing stall cycles but not correctness.
//! Same-cycle flow, output or memory reordering has no interlock to hide
//! behind and is an error.

use crate::Diagnostic;
use epic_compiler::emit::{BRANCH_BTR, BRANCH_BTR_ALT, CALL_BTR};
use epic_compiler::mir::{MBlockId, MDest, MFunction, MInst, MOp, MSrc, MTerm, RegSet};
use epic_compiler::regalloc::Abi;
use epic_compiler::sched::block_label;
use epic_compiler::trace::FunctionTrace;
use epic_isa::{Opcode, RegList, Unit};
use epic_mdes::MachineDescription;
use std::collections::{HashMap, HashSet};

/// A register resource: `(kind, number)` with kind 0 = GPR,
/// 1 = predicate, 2 = BTR.
type Res = (u8, u32);

const GPR: u8 = 0;
const PRED: u8 = 1;
const BTR: u8 = 2;

fn op_reads(op: &MOp) -> RegList<Res, 6> {
    let mut reads = RegList::new();
    reads.extend(op.gpr_uses().into_iter().map(|r| (GPR, r)));
    reads.extend(op.pred_uses().into_iter().map(|p| (PRED, p)));
    if let Some(b) = op.btr_use() {
        reads.push((BTR, u32::from(b)));
    }
    reads
}

fn op_writes(op: &MOp) -> RegList<Res, 4> {
    let mut writes = RegList::new();
    if let Some(r) = op.gpr_def() {
        writes.push((GPR, r));
    }
    writes.extend(op.pred_defs().into_iter().map(|p| (PRED, p)));
    if let Some(b) = op.btr_def() {
        writes.push((BTR, u32::from(b)));
    }
    writes
}

fn pbr_label(btr: u16, target: &str) -> MInst {
    let mut op = MOp::bare(Opcode::Pbr);
    op.dest1 = MDest::Btr(btr);
    op.src1 = MSrc::Label(target.to_owned());
    MInst::Op(op)
}

fn branch(opcode: Opcode, btr: u16, guard: u32) -> MInst {
    let mut op = MOp::bare(opcode);
    op.src1 = MSrc::Btr(btr);
    op.guard = guard;
    MInst::Op(op)
}

/// The lowering of one abstract terminator, given the fall-through
/// successor. Mirrors `finalize_control` independently.
fn expected_tail(term: &MTerm, next: Option<MBlockId>, fname: &str, abi: &Abi) -> Vec<MInst> {
    let label = |b: MBlockId| block_label(fname, b.0);
    match term {
        MTerm::Jump(t) => {
            if next == Some(*t) {
                vec![]
            } else {
                vec![
                    pbr_label(BRANCH_BTR, &label(*t)),
                    branch(Opcode::Br, BRANCH_BTR, 0),
                ]
            }
        }
        MTerm::CondJump {
            pred,
            on_true,
            on_false,
        } => {
            if next == Some(*on_false) {
                vec![
                    pbr_label(BRANCH_BTR, &label(*on_true)),
                    branch(Opcode::Brct, BRANCH_BTR, *pred),
                ]
            } else if next == Some(*on_true) {
                vec![
                    pbr_label(BRANCH_BTR, &label(*on_false)),
                    branch(Opcode::Brcf, BRANCH_BTR, *pred),
                ]
            } else {
                vec![
                    pbr_label(BRANCH_BTR, &label(*on_true)),
                    branch(Opcode::Brct, BRANCH_BTR, *pred),
                    pbr_label(BRANCH_BTR_ALT, &label(*on_false)),
                    branch(Opcode::Br, BRANCH_BTR_ALT, 0),
                ]
            }
        }
        MTerm::Ret(_) => {
            let mut pbr = MOp::bare(Opcode::Pbr);
            pbr.dest1 = MDest::Btr(CALL_BTR);
            pbr.src1 = MSrc::Gpr(abi.link);
            vec![MInst::Op(pbr), branch(Opcode::Br, CALL_BTR, 0)]
        }
        MTerm::Halt => vec![MInst::Op(MOp::bare(Opcode::Halt))],
    }
}

/// Recomputes the reachable-block layout (id order) from the terminators.
fn reachable_layout(func: &MFunction) -> Vec<MBlockId> {
    let mut reachable = vec![false; func.blocks.len()];
    if func.blocks.is_empty() {
        return vec![];
    }
    reachable[0] = true;
    let mut stack = vec![MBlockId(0)];
    while let Some(b) = stack.pop() {
        for s in func.block(b).term.successors() {
            if !reachable[s.0 as usize] {
                reachable[s.0 as usize] = true;
                stack.push(s);
            }
        }
    }
    (0..func.blocks.len() as u32)
        .map(MBlockId)
        .filter(|b| reachable[b.0 as usize])
        .collect()
}

/// Checks the control-finalisation step of one traced function (TV008).
pub fn check_finalize(func: &FunctionTrace, abi: &Abi, diags: &mut Vec<Diagnostic>) {
    let fname = &func.name;
    let fin = &func.post_finalize;
    // The stage before finalisation is superblock formation when it
    // fired (it runs on allocated code), register allocation otherwise.
    let pre_finalize = func
        .post_superblock
        .as_ref()
        .or(func.post_regalloc.as_ref());
    let layout = reachable_layout(fin);
    if layout != func.layout {
        diags.push(Diagnostic::error(
            "TV008",
            format!(
                "{fname}: recorded layout {:?} is not the reachable blocks in id order {:?}",
                func.layout.iter().map(|b| b.0).collect::<Vec<_>>(),
                layout.iter().map(|b| b.0).collect::<Vec<_>>()
            ),
        ));
        return;
    }
    for (k, &b) in layout.iter().enumerate() {
        let next = layout.get(k + 1).copied();
        let tail = expected_tail(&fin.block(b).term, next, fname, abi);
        let insts = &fin.block(b).insts;
        if let Some(base) = pre_finalize {
            let base = &base.block(b).insts;
            let ok = insts.len() == base.len() + tail.len()
                && insts[..base.len()] == base[..]
                && insts[base.len()..] == tail[..];
            if !ok {
                diags.push(Diagnostic::error(
                    "TV008",
                    format!(
                        "{fname}: block mb{}: finalised instructions are not the allocated block plus the lowered `{:?}` tail",
                        b.0,
                        fin.block(b).term
                    ),
                ));
            }
        } else {
            // No pre-finalise snapshot (the start stub): the lowered tail
            // must still terminate the block.
            let ok = insts.len() >= tail.len() && insts[insts.len() - tail.len()..] == tail[..];
            if !ok {
                diags.push(Diagnostic::error(
                    "TV008",
                    format!(
                        "{fname}: block mb{}: block does not end in the lowering of `{:?}`",
                        b.0,
                        fin.block(b).term
                    ),
                ));
            }
        }
    }
    if let Some(base) = pre_finalize {
        for b in 0..fin.blocks.len() {
            let id = MBlockId(b as u32);
            if !layout.contains(&id) && fin.blocks[b].insts != base.blocks[b].insts {
                diags.push(Diagnostic::error(
                    "TV008",
                    format!(
                        "{fname}: unreachable block mb{b} was modified by control finalisation"
                    ),
                ));
            }
        }
    }
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum DepKind {
    Flow,
    Output,
    Anti,
    Mem,
    Branch,
}

impl DepKind {
    fn name(self) -> &'static str {
        match self {
            DepKind::Flow => "flow",
            DepKind::Output => "output",
            DepKind::Anti => "anti",
            DepKind::Mem => "memory",
            DepKind::Branch => "branch-order",
        }
    }
}

struct Dep {
    from: usize,
    to: usize,
    latency: u32,
    kind: DepKind,
}

#[derive(Clone, Copy)]
struct MemRef {
    index: usize,
    base: Option<(u32, u32)>,
    offset: Option<i64>,
    size: u32,
}

fn access_size(opcode: Opcode) -> u32 {
    match opcode {
        Opcode::Lw | Opcode::LwS | Opcode::Sw => 4,
        Opcode::Lh | Opcode::Lhu | Opcode::Sh => 2,
        _ => 1,
    }
}

fn provably_disjoint(
    base: Option<(u32, u32)>,
    offset: Option<i64>,
    size: u32,
    other: &MemRef,
) -> bool {
    let (Some(b1), Some(o1), Some(b2), Some(o2)) = (base, offset, other.base, other.offset) else {
        return false;
    };
    if b1 != b2 {
        return false;
    }
    o1 + i64::from(size) <= o2 || o2 + i64::from(other.size) <= o1
}

/// Per-block live-in sets over physical registers on the finalised CFG,
/// indexed by block id — an independent mirror of the scheduler's
/// analysis, used to decide what may legally hoist above a side exit.
/// `BRL` conservatively uses every argument register plus the stack
/// pointer; `Ret` keeps the return value and stack pointer live;
/// guarded definitions do not kill.
fn block_live_in(mfunc: &MFunction, abi: &Abi) -> Vec<RegSet> {
    // Each block as `live-in = uses ∪ (live-out − defs)`: `uses` is read
    // before any unconditional write, `defs` written unconditionally.
    let effects: Vec<(RegSet, RegSet)> = (mfunc.blocks.iter())
        .map(|block| {
            let (mut uses, mut defs) = (RegSet::default(), RegSet::default());
            for inst in block.insts.iter().rev() {
                let MInst::Op(op) = inst else { continue };
                if !op.is_conditional() {
                    for w in op_writes(op) {
                        uses.remove(w);
                        defs.insert(w);
                    }
                }
                for r in op_reads(op) {
                    uses.insert(r);
                }
                if op.opcode == Opcode::Brl {
                    for &a in &abi.args {
                        uses.insert((GPR, a));
                    }
                    uses.insert((GPR, abi.sp));
                }
            }
            (uses, defs)
        })
        .collect();
    let mut live_in = vec![RegSet::default(); mfunc.blocks.len()];
    let mut live = RegSet::default();
    let mut changed = true;
    while changed {
        changed = false;
        for (block, (uses, defs)) in mfunc.blocks.iter().zip(&effects).rev() {
            live.clear();
            match &block.term {
                MTerm::Ret(_) => {
                    live.insert((GPR, abi.ret));
                    live.insert((GPR, abi.sp));
                }
                MTerm::Halt => {}
                _ => {
                    for s in block.term.successors() {
                        if let Some(succ_in) = live_in.get(s.0 as usize) {
                            live.union_with(succ_in);
                        }
                    }
                }
            }
            live.subtract(defs);
            live.union_with(uses);
            let entry = &mut live_in[block.id.0 as usize];
            if *entry != live {
                std::mem::swap(entry, &mut live);
                changed = true;
            }
        }
    }
    live_in
}

/// A side exit in a scheduling region: the branch at op index `op` and
/// the live-ins of its off-trace target.
struct RegionExit<'a> {
    op: usize,
    live: &'a RegSet,
}

/// Whether `op` may hoist above a side exit whose target's live-ins are
/// `live` — the validator's own statement of the speculation-safety
/// rule the scheduler claims to follow.
fn may_speculate(op: &MOp, live: &RegSet) -> bool {
    if op.opcode.is_store() {
        return false;
    }
    if op.opcode.is_load() && !matches!(op.opcode, Opcode::Lw | Opcode::LwS) {
        return false;
    }
    op_writes(op).into_iter().all(|w| !live.contains(w))
}

/// Rebuilds a region's dependence DAG with the same semantics as the
/// list scheduler: conditional writes read the merged-over value, memory
/// accesses disambiguate only in the same-base/literal-offset case, and
/// control transfers order against everything — except a side exit,
/// which only blocks ops that are not speculation-safe against it.
///
/// A control op takes branch-order edges only from the ops at or after
/// the previous control op `c`, `c` included: the rest are implied. A
/// schedule that violates a dropped edge `j → i` (`j < c`, latency at
/// most 1) also violates a kept edge on the branch-order path
/// `j → … → c → i`, for if it satisfied them all, then
/// `cycle_i ≥ cycle_c + 1 ≥ cycle_j + 1`. So the verdict is unchanged;
/// only the number of TV006 errors a bad schedule draws may shrink.
fn dependences(
    ops: &[&MOp],
    exits: &[RegionExit],
    mdes: &MachineDescription,
    scratch: &mut DepScratch,
) -> Vec<Dep> {
    let mut deps = Vec::new();
    let push = |deps: &mut Vec<Dep>, from: usize, to: usize, latency: u32, kind: DepKind| {
        if from != to {
            deps.push(Dep {
                from,
                to,
                latency,
                kind,
            });
        }
    };
    let DepScratch {
        track,
        readers,
        mem,
        stores,
        open_exits,
    } = scratch;
    track.clear();
    readers.clear();
    mem.clear();
    stores.clear();
    open_exits.clear();
    let slot = |(kind, number): Res| (number as usize) << 2 | usize::from(kind);
    let mut barrier: Option<usize> = None;
    let mut last_ctl = 0;
    let mut next_exit = 0;

    for (i, &op) in ops.iter().enumerate() {
        let is_ctl = op.opcode.is_branch() || op.opcode == Opcode::Halt;
        if let Some(b) = barrier {
            push(&mut deps, b, i, 1, DepKind::Branch);
        }
        if !is_ctl {
            for &e in open_exits.iter() {
                let exit = &exits[e];
                if !may_speculate(op, exit.live) {
                    push(&mut deps, exit.op, i, 1, DepKind::Branch);
                }
            }
        }
        let reads = op_reads(op);
        let writes = op_writes(op);
        let conditional = op.is_conditional();

        for &r in &reads {
            if let Some(w) = track.get(slot(r)).and_then(|t| t.last_write) {
                push(&mut deps, w, i, mdes.latency(ops[w].opcode), DepKind::Flow);
            }
        }
        for &wreg in &writes {
            let Some(t) = track.get(slot(wreg)) else {
                continue;
            };
            if let Some(w) = t.last_write {
                push(&mut deps, w, i, 1, DepKind::Output);
            }
            let mut reader = t.readers[0];
            while let Some(&(r, next)) = readers.get(reader as usize) {
                push(&mut deps, r as usize, i, 0, DepKind::Anti);
                reader = next;
            }
        }

        if op.opcode.is_load() || op.opcode.is_store() {
            let base = op
                .src1
                .gpr()
                .map(|b| (b, track.get(slot((GPR, b))).map_or(0, |t| t.writes)));
            let offset = match &op.src2 {
                MSrc::Lit(v) => Some(*v),
                _ => None,
            };
            let size = access_size(op.opcode);
            let is_store = op.opcode.is_store();
            // A load orders only against stores.
            for m in if is_store { &*mem } else { &*stores } {
                if !provably_disjoint(base, offset, size, m) {
                    push(&mut deps, m.index, i, 1, DepKind::Mem);
                }
            }
            let access = MemRef {
                index: i,
                base,
                offset,
                size,
            };
            if is_store {
                stores.push(access);
            }
            mem.push(access);
        }

        if is_ctl {
            for (j, earlier) in ops.iter().enumerate().take(i).skip(last_ctl) {
                let lat = u32::from(earlier.opcode.is_branch() || earlier.opcode == Opcode::Halt);
                push(&mut deps, j, i, lat, DepKind::Branch);
            }
            last_ctl = i;
            if exits.get(next_exit).is_some_and(|e| e.op == i) {
                open_exits.push(next_exit);
                next_exit += 1;
            } else {
                barrier = Some(i);
                open_exits.clear();
            }
        }

        if let Some(top) = reads.iter().chain(&writes).map(|&r| slot(r)).max() {
            if track.len() <= top {
                track.resize(top + 1, Track::default());
            }
        }
        for r in reads {
            track[slot(r)].add_reader(i, readers);
        }
        for w in writes {
            let t = &mut track[slot(w)];
            t.last_write = Some(i);
            t.writes += 1;
            t.readers = [u32::MAX; 2];
            if conditional {
                t.add_reader(i, readers);
            }
        }
    }
    deps
}

/// Per resource while the dependences are rebuilt: the last writer, the
/// readers since it in program order (the first and last link of a
/// chain through [`DepScratch::readers`], `u32::MAX` for none) and the
/// number of writes (the base version for memory disambiguation).
#[derive(Clone, Copy)]
struct Track {
    last_write: Option<usize>,
    readers: [u32; 2],
    writes: u32,
}

impl Track {
    fn add_reader(&mut self, op: usize, readers: &mut Vec<(u32, u32)>) {
        let link = readers.len() as u32;
        readers.push((op as u32, u32::MAX));
        match self.readers[1] {
            u32::MAX => self.readers[0] = link,
            last => readers[last as usize].1 = link,
        }
        self.readers[1] = link;
    }
}

impl Default for Track {
    fn default() -> Self {
        Track {
            last_write: None,
            readers: [u32::MAX; 2],
            writes: 0,
        }
    }
}

/// The dependence rebuild's buffers, kept across a function's regions:
/// the trackers (indexed `number << 2 | kind`), the reader chains as
/// `(op, next)`, the memory accesses so far and the stores among them,
/// and the open side exits (indices into the region's exits).
#[derive(Default)]
struct DepScratch {
    track: Vec<Track>,
    readers: Vec<(u32, u32)>,
    mem: Vec<MemRef>,
    stores: Vec<MemRef>,
    open_exits: Vec<usize>,
}

/// An op's TV005 class: its fields packed into integers, read with the
/// dismissible-load rewrite undone (`LWS` as `LW`) and with a `PBR`
/// label replaced by its rank among the region's distinct labels. Ops
/// are classed by sorting these fixed-size keys, so no string is hashed
/// and no input can steer collisions.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct ClassKey {
    opcode: u32,
    dests: [u64; 2],
    srcs: [(u8, u64); 2],
    store_value: u64,
    guard: u32,
}

impl ClassKey {
    /// The key of `op` against the region's sorted distinct `labels`;
    /// `None` when `op` names a label no region op names.
    fn of(op: &MOp, labels: &[&str]) -> Option<ClassKey> {
        let opcode = match op.opcode {
            Opcode::LwS => u32::from(Opcode::Lw.encoding()),
            Opcode::Custom(i) => 1 << 16 | u32::from(i),
            fixed => u32::from(fixed.encoding()),
        };
        let dest = |d: MDest| match d {
            MDest::None => 0,
            MDest::Gpr(r) => 1 << 32 | u64::from(r),
            MDest::Pred(p) => 2 << 32 | u64::from(p),
            MDest::Btr(b) => 3 << 32 | u64::from(b),
        };
        let src = |s: &MSrc| {
            Some(match s {
                MSrc::None => (0, 0),
                MSrc::Gpr(r) => (1, u64::from(*r)),
                MSrc::Lit(v) => (2, *v as u64),
                MSrc::Pred(p) => (3, u64::from(*p)),
                MSrc::Btr(b) => (4, u64::from(*b)),
                MSrc::Label(l) => (5, labels.binary_search(&l.as_str()).ok()? as u64),
            })
        };
        Some(ClassKey {
            opcode,
            dests: [dest(op.dest1), dest(op.dest2)],
            srcs: [src(&op.src1)?, src(&op.src2)?],
            store_value: op.store_value.map_or(0, |v| 1 << 32 | u64::from(v)),
            guard: op.guard,
        })
    }
}

/// `check_block_schedule`'s buffers, kept across a function's regions
/// so each region allocates only what it reports.
#[derive(Default)]
struct Scratch<'a> {
    ops: Vec<&'a MOp>,
    exits: Vec<RegionExit<'a>>,
    labels: Vec<&'a str>,
    keyed: Vec<(ClassKey, usize)>,
    classes: Vec<ClassKey>,
    want: Vec<usize>,
    have: Vec<usize>,
    op_class: Vec<usize>,
    scheduled: Vec<(usize, usize, usize)>,
    next: Vec<usize>,
    bucketed: Vec<(usize, usize)>,
    cycle_of: Vec<u32>,
    became_lws: Vec<bool>,
    deps: DepScratch,
}

/// Validates the region structure (TV011) and returns the scheduling
/// groups: each trace one group, every other laid-out block a singleton.
fn region_groups<'a>(
    func: &'a FunctionTrace,
    diags: &mut Vec<Diagnostic>,
) -> Option<Vec<&'a [MBlockId]>> {
    let fname = &func.name;
    if func.traces.is_empty() {
        return Some(func.layout.chunks(1).collect());
    }
    let in_layout: HashSet<MBlockId> = func.layout.iter().copied().collect();
    for t in &func.traces {
        if t.len() < 2 {
            diags.push(Diagnostic::error(
                "TV011",
                format!("{fname}: trace {t:?} has fewer than two blocks"),
            ));
            return None;
        }
        if let Some(b) = t.iter().find(|b| !in_layout.contains(b)) {
            diags.push(Diagnostic::error(
                "TV011",
                format!("{fname}: trace block mb{} is not in the layout", b.0),
            ));
            return None;
        }
    }
    let interior: HashSet<MBlockId> = func
        .traces
        .iter()
        .flat_map(|t| t[1..].iter().copied())
        .collect();
    if interior.contains(&MBlockId(0)) {
        diags.push(Diagnostic::error(
            "TV011",
            format!("{fname}: the entry block is a trace interior"),
        ));
        return None;
    }
    // Single entry: an interior block's only predecessor in the emitted
    // program may be the trace member directly above it.
    let mut preds: HashMap<MBlockId, Vec<MBlockId>> = HashMap::new();
    for &b in &func.layout {
        for s in func.post_finalize.block(b).term.successors() {
            preds.entry(s).or_default().push(b);
        }
    }
    for t in &func.traces {
        for j in 1..t.len() {
            if let Some(ps) = preds.get(&t[j]) {
                if let Some(&p) = ps.iter().find(|&&p| p != t[j - 1]) {
                    diags.push(Diagnostic::error(
                        "TV011",
                        format!(
                            "{fname}: mb{} side-enters the trace interior mb{}",
                            p.0, t[j].0
                        ),
                    ));
                    return None;
                }
            }
        }
    }
    let heads: HashMap<MBlockId, &Vec<MBlockId>> = func.traces.iter().map(|t| (t[0], t)).collect();
    let mut groups = Vec::new();
    let mut i = 0;
    while i < func.layout.len() {
        let b = func.layout[i];
        if let Some(trace) = heads.get(&b) {
            if !func.layout[i..].starts_with(trace) {
                diags.push(Diagnostic::error(
                    "TV011",
                    format!("{fname}: trace {trace:?} is not a consecutive run of the layout"),
                ));
                return None;
            }
            groups.push(trace.as_slice());
            i += trace.len();
        } else {
            if interior.contains(&b) {
                diags.push(Diagnostic::error(
                    "TV011",
                    format!(
                        "{fname}: trace interior mb{} reached outside its trace",
                        b.0
                    ),
                ));
                return None;
            }
            groups.push(std::slice::from_ref(&func.layout[i]));
            i += 1;
        }
    }
    Some(groups)
}

/// Checks the schedule of one traced function (TV005–TV007 plus the
/// superblock-region obligations TV011/TV012).
pub fn check_schedule(
    func: &FunctionTrace,
    mdes: &MachineDescription,
    abi: Option<&Abi>,
    diags: &mut Vec<Diagnostic>,
) {
    let fname = &func.name;
    let Some(groups) = region_groups(func, diags) else {
        return;
    };
    if func.scheduled.len() != groups.len() {
        diags.push(Diagnostic::error(
            "TV005",
            format!(
                "{fname}: {} scheduled block(s) for {} scheduling region(s)",
                func.scheduled.len(),
                groups.len()
            ),
        ));
        return;
    }
    let live_in = if func.traces.is_empty() {
        Vec::new()
    } else if let Some(abi) = abi {
        block_live_in(&func.post_finalize, abi)
    } else {
        diags.push(Diagnostic::error(
            "TV011",
            format!("{fname}: superblock traces recorded but the target has no valid ABI"),
        ));
        return;
    };
    static NOTHING_LIVE: RegSet = RegSet::new();
    let mut scratch = Scratch::default();
    for (k, sb) in func.scheduled.iter().enumerate() {
        let group = groups[k];
        let want_label = block_label(fname, group[0].0);
        if sb.label != want_label {
            diags.push(Diagnostic::error(
                "TV005",
                format!(
                    "{fname}: scheduled block {k} is labelled `{}`, expected `{want_label}`",
                    sb.label
                ),
            ));
        }
        let (ops, exits) = (&mut scratch.ops, &mut scratch.exits);
        ops.clear();
        exits.clear();
        let mut callful = false;
        let mut well_formed = true;
        for (j, &id) in group.iter().enumerate() {
            for inst in &func.post_finalize.block(id).insts {
                match inst {
                    MInst::Op(op) => ops.push(op),
                    MInst::Call { .. } => callful = true,
                }
            }
            if j + 1 == group.len() {
                break;
            }
            let next = group[j + 1];
            match &func.post_finalize.block(id).term {
                MTerm::Jump(t) if *t == next => {}
                MTerm::CondJump {
                    on_true, on_false, ..
                } if *on_true == next || *on_false == next => {
                    let target = if *on_false == next {
                        *on_true
                    } else {
                        *on_false
                    };
                    if matches!(
                        ops.last().map(|o| o.opcode),
                        Some(Opcode::Brct | Opcode::Brcf)
                    ) {
                        exits.push(RegionExit {
                            op: ops.len() - 1,
                            live: live_in.get(target.0 as usize).unwrap_or(&NOTHING_LIVE),
                        });
                    } else {
                        diags.push(Diagnostic::error(
                            "TV011",
                            format!(
                                "{fname}: interior mb{} does not end in a lowered conditional branch",
                                id.0
                            ),
                        ));
                        well_formed = false;
                    }
                }
                term => {
                    diags.push(Diagnostic::error(
                        "TV011",
                        format!(
                            "{fname}: interior mb{} does not fall through to mb{} (`{term:?}`)",
                            id.0, next.0
                        ),
                    ));
                    well_formed = false;
                }
            }
        }
        if callful {
            diags.push(Diagnostic::error(
                "TV005",
                format!(
                    "{fname}: region at mb{} still contains a call pseudo",
                    group[0].0
                ),
            ));
            continue;
        }
        if !well_formed {
            continue;
        }
        check_block_schedule(fname, &sb.label, sb, mdes, &mut scratch, diags);
    }
}

fn check_block_schedule<'a>(
    fname: &str,
    label: &str,
    sb: &epic_compiler::sched::ScheduledBlock,
    mdes: &MachineDescription,
    scratch: &mut Scratch<'a>,
    diags: &mut Vec<Diagnostic>,
) {
    let Scratch {
        ops,
        exits,
        labels,
        keyed,
        classes,
        want,
        have,
        op_class,
        scheduled,
        next,
        bucketed,
        cycle_of,
        became_lws,
        deps,
    } = scratch;
    let (ops, exits) = (&ops[..], &exits[..]);
    // TV007: metadata and structural limits first — cycle numbers below
    // depend on it.
    if sb.meta.len() != sb.bundles.len() {
        diags.push(Diagnostic::error(
            "TV007",
            format!(
                "{fname}: {label}: {} metadata record(s) for {} bundle(s)",
                sb.meta.len(),
                sb.bundles.len()
            ),
        ));
        return;
    }
    let config = mdes.config();
    for (bi, (bundle, meta)) in sb.bundles.iter().zip(&sb.meta).enumerate() {
        if bundle.is_empty() {
            diags.push(Diagnostic::error(
                "TV007",
                format!("{fname}: {label}: bundle {bi} is empty"),
            ));
            continue;
        }
        if bi > 0 && meta.cycle <= sb.meta[bi - 1].cycle {
            diags.push(Diagnostic::error(
                "TV007",
                format!(
                    "{fname}: {label}: bundle {bi} issues in cycle {} after cycle {}",
                    meta.cycle,
                    sb.meta[bi - 1].cycle
                ),
            ));
        }
        if bundle.len() > mdes.issue_width() {
            diags.push(Diagnostic::error(
                "TV007",
                format!(
                    "{fname}: {label}: bundle {bi} holds {} op(s), issue width is {}",
                    bundle.len(),
                    mdes.issue_width()
                ),
            ));
        }
        let cost = mdes.bundle_cost(bundle);
        if meta.port_ops != cost.port_ops || meta.max_latency != cost.max_latency {
            diags.push(Diagnostic::error(
                "TV007",
                format!(
                    "{fname}: {label}: bundle {bi} metadata (ports {}, latency {}) diverges from the machine description (ports {}, latency {})",
                    meta.port_ops, meta.max_latency, cost.port_ops, cost.max_latency
                ),
            ));
        }
        if cost.oversubscribes_ports(config.regfile_ops_per_cycle()) {
            diags.push(Diagnostic::error(
                "TV007",
                format!(
                    "{fname}: {label}: bundle {bi} needs {} register-file ports, budget is {}",
                    cost.port_ops,
                    config.regfile_ops_per_cycle()
                ),
            ));
        }
        for unit in [Unit::Alu, Unit::Lsu, Unit::Cmpu, Unit::Bru] {
            if cost.demand(unit) > mdes.unit_count(unit) {
                diags.push(Diagnostic::error(
                    "TV007",
                    format!(
                        "{fname}: {label}: bundle {bi} needs {} {unit:?} unit(s), machine has {}",
                        cost.demand(unit),
                        mdes.unit_count(unit)
                    ),
                ));
            }
        }
    }

    // TV005: the bundles must hold exactly the region's operations — up
    // to the dismissible-load rewrite (`LW` → `LWS`) for loads that
    // crossed a side exit; TV012 settles each rewrite's legitimacy.
    // Each distinct op, with that rewrite undone, gets a dense class id
    // (its rank among the sorted keys); the region's ops and the
    // scheduled ones must have equal counts per class.
    labels.clear();
    for op in ops {
        for src in [&op.src1, &op.src2] {
            if let MSrc::Label(l) = src {
                labels.push(l);
            }
        }
    }
    labels.sort_unstable();
    labels.dedup();
    keyed.clear();
    keyed.extend(ops.iter().enumerate().map(|(i, op)| {
        let key = ClassKey::of(op, labels).expect("the region names its own labels");
        (key, i)
    }));
    keyed.sort_unstable_by_key(|&(key, _)| key);
    classes.clear();
    want.clear();
    op_class.clear();
    op_class.resize(ops.len(), 0);
    for &(key, i) in keyed.iter() {
        if classes.last() != Some(&key) {
            classes.push(key);
            want.push(0);
        }
        op_class[i] = classes.len() - 1;
        want[classes.len() - 1] += 1;
    }
    have.clear();
    have.resize(want.len(), 0);
    scheduled.clear();
    let mut permutation = true;
    for (bi, bundle) in sb.bundles.iter().enumerate() {
        for (slot, other) in bundle.iter().enumerate() {
            let class =
                ClassKey::of(other, labels).and_then(|key| classes.binary_search(&key).ok());
            match class {
                Some(class) => {
                    have[class] += 1;
                    scheduled.push((class, bi, slot));
                }
                None => permutation = false,
            }
        }
    }
    if !permutation || have != want {
        diags.push(Diagnostic::error(
            "TV005",
            format!(
                "{fname}: {label}: scheduled bundles hold {} op(s) that are not a permutation of the region's {} op(s)",
                sb.bundles.iter().map(Vec::len).sum::<usize>(),
                ops.len()
            ),
        ));
        return;
    }

    // Map every original op to its issue cycle: pair the k-th
    // program-order instance of a class with its k-th scheduled
    // instance in bundle order, bucketing the scheduled instances by
    // class with a counting sort. Identical writing ops carry a WAW
    // chain, so their cycle order must equal their program order —
    // matching in bundle (cycle) order is the unique consistent pairing.
    // The only opcode change allowed is the word load's dismissible
    // rewrite (`LW` → `LWS`).
    next.clear();
    next.extend(want.iter().scan(0, |end, &count| {
        *end += count;
        Some(*end - count)
    }));
    bucketed.clear();
    bucketed.resize(scheduled.len(), (0, 0));
    for &(class, bi, slot) in scheduled.iter() {
        bucketed[next[class]] = (bi, slot);
        next[class] += 1;
    }
    // Each class's bucket now ends at `next[class]`; step back to its
    // start, then walk it in program order.
    for (start, &count) in next.iter_mut().zip(want.iter()) {
        *start -= count;
    }
    cycle_of.clear();
    cycle_of.resize(ops.len(), 0);
    became_lws.clear();
    became_lws.resize(ops.len(), false);
    for (i, op) in ops.iter().enumerate() {
        let (bi, slot) = bucketed[next[op_class[i]]];
        next[op_class[i]] += 1;
        let other = &sb.bundles[bi][slot];
        cycle_of[i] = sb.meta[bi].cycle;
        if other.opcode != op.opcode {
            if op.opcode == Opcode::Lw && other.opcode == Opcode::LwS {
                became_lws[i] = true;
            } else {
                diags.push(Diagnostic::error(
                    "TV005",
                    format!(
                        "{fname}: {label}: `{op}` was rewritten to `{other}` — only LW may become LWS",
                    ),
                ));
                return;
            }
        }
    }

    // TV012: the dismissible rewrite happens exactly when a load crossed
    // a side exit (issued at or before the exit's cycle despite
    // following it in program order). A gratuitous `LWS` masks faults on
    // the committed path; a missing one traps on the speculated path.
    for (i, op) in ops.iter().enumerate() {
        let crossed = exits
            .iter()
            .any(|e| e.op < i && cycle_of[i] <= cycle_of[e.op]);
        if became_lws[i] && !crossed {
            diags.push(Diagnostic::error(
                "TV012",
                format!(
                    "{fname}: {label}: `{op}` was rewritten to the dismissible LWS without crossing a side exit"
                ),
            ));
        } else if op.opcode == Opcode::Lw && !became_lws[i] && crossed {
            diags.push(Diagnostic::error(
                "TV012",
                format!("{fname}: {label}: `{op}` crossed a side exit but kept the faulting LW"),
            ));
        }
    }

    // TV006: every dependence edge against the chosen cycles.
    for dep in dependences(ops, exits, mdes, deps) {
        let (ca, cb) = (cycle_of[dep.from], cycle_of[dep.to]);
        let violation = match dep.kind {
            DepKind::Flow | DepKind::Output | DepKind::Mem => cb <= ca,
            DepKind::Anti => cb < ca,
            DepKind::Branch => cb < ca + dep.latency,
        };
        if violation {
            diags.push(Diagnostic::error(
                "TV006",
                format!(
                    "{fname}: {label}: `{}` (cycle {cb}) reorders a {} dependence on `{}` (cycle {ca})",
                    ops[dep.to],
                    dep.kind.name(),
                    ops[dep.from]
                ),
            ));
        } else if dep.kind == DepKind::Flow && cb < ca + dep.latency {
            diags.push(Diagnostic::warning(
                "TV006",
                format!(
                    "{fname}: {label}: `{}` issues {} cycle(s) after its {}-cycle producer `{}` — scoreboard interlock will stall",
                    ops[dep.to],
                    cb - ca,
                    dep.latency,
                    ops[dep.from]
                ),
            ));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use epic_config::Config;

    #[test]
    fn control_edges_grow_linearly_with_the_region() {
        // A straight-line region with a call every fourth op. Each call
        // orders against the ops since the previous call, not against the
        // whole prefix, whose edges would grow as n²/8.
        let mut brl = MOp::bare(Opcode::Brl);
        brl.dest1 = MDest::Gpr(61);
        brl.src1 = MSrc::Btr(0);
        let add = |d: u32| {
            let mut op = MOp::bare(Opcode::Add);
            op.dest1 = MDest::Gpr(d);
            op.src1 = MSrc::Gpr(20);
            op.src2 = MSrc::Gpr(21);
            op
        };
        let mdes = MachineDescription::new(&Config::default());
        for n in [1_024, 4_096] {
            let ops: Vec<MOp> = (0..n)
                .map(|k| match k % 4 {
                    3 => brl.clone(),
                    r => add(10 + r),
                })
                .collect();
            let ops: Vec<&MOp> = ops.iter().collect();
            let edges = dependences(&ops, &[], &mdes, &mut DepScratch::default()).len();
            assert!(edges <= 4 * ops.len(), "{n} ops built {edges} edges");
        }
    }
}
