//! Refinement checks for control finalisation and list scheduling.
//!
//! [`check_finalize`] (TV008) recomputes the reachable-block layout and
//! the `PBR`/branch lowering of every abstract terminator from first
//! principles and demands the finalised function is exactly the
//! allocated function plus those lowered tails.
//!
//! [`check_schedule`] (TV005–TV007) proves each scheduled block is a
//! permutation of the finalised block's operations, placed as the
//! scheduler's witness says (TV005), rebuilds the dependence DAG —
//! flow, output, anti, memory and branch-order edges, with the same
//! conditional-write and memory-disambiguation rules as the scheduler —
//! and checks every edge against the issue cycles the schedule actually
//! chose (TV006), and checks every bundle against the machine's
//! structural limits, priced by
//! [`epic_mdes::MachineDescription::bundle_cost`], and the bundles'
//! issue cycles against each other (TV007).
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
use epic_compiler::sched::{block_label, ScheduledBlock};
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

impl MemRef {
    /// The base and the bytes `[offset, offset + size)`, when both are
    /// known.
    fn bytes(&self) -> Option<((u32, u32), i64, i64)> {
        let offset = self.offset?;
        Some((self.base?, offset, offset + i64::from(self.size)))
    }
}

/// The conflicting stores one access's scan has met (its covers): the
/// bytes they touch through the one base and version they share, as
/// sorted ranges that neither overlap nor touch.
#[derive(Default)]
struct Covers {
    base: Option<(u32, u32)>,
    bytes: Vec<(i64, i64)>,
}

impl Covers {
    fn clear(&mut self) {
        self.base = None;
        self.bytes.clear();
    }

    /// Whether `m` conflicts with some cover.
    fn conflict(&self, m: &MemRef) -> bool {
        let Some(base) = self.base else {
            return false;
        };
        match m.bytes() {
            Some((b, lo, hi)) if b == base => {
                let at = self.bytes.partition_point(|&(_, end)| end <= lo);
                self.bytes.get(at).is_some_and(|&(start, _)| start < hi)
            }
            _ => true,
        }
    }

    /// Records the store `c`, which conflicts with `access`; false when
    /// the covers now conflict with everything earlier that `access`
    /// conflicts with (`c`'s base or offset is unknown, `c` holds every
    /// byte of `access`, or the covers span two bases).
    fn add(&mut self, c: &MemRef, access: &MemRef) -> bool {
        let Some((base, lo, hi)) = c.bytes() else {
            return false;
        };
        let contains = |(b, l, h)| b == base && lo <= l && h <= hi;
        if access.bytes().is_some_and(contains) || *self.base.get_or_insert(base) != base {
            return false;
        }
        let from = self.bytes.partition_point(|&(_, end)| end < lo);
        let to = self.bytes.partition_point(|&(start, _)| start <= hi);
        let merged = if from < to {
            (self.bytes[from].0.min(lo), self.bytes[to - 1].1.max(hi))
        } else {
            (lo, hi)
        };
        self.bytes.splice(from..to, [merged]);
        true
    }
}

fn access_size(opcode: Opcode) -> u32 {
    match opcode {
        Opcode::Lw | Opcode::LwS | Opcode::Sw => 4,
        Opcode::Lh | Opcode::Lhu | Opcode::Sh => 2,
        _ => 1,
    }
}

fn provably_disjoint(a: &MemRef, b: &MemRef) -> bool {
    let (Some((base_a, lo_a, hi_a)), Some((base_b, lo_b, hi_b))) = (a.bytes(), b.bytes()) else {
        return false;
    };
    base_a == base_b && (hi_a <= lo_b || hi_b <= lo_a)
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
///
/// Memory edges are implied the same way. An access `i` scans its
/// candidates latest first and takes no edge from an access `m` that
/// conflicts with a store `c` met earlier in the scan, `c` conflicting
/// with `i` too: by induction over program order a path of memory edges
/// runs `m → … → c → i`, and a schedule that satisfies every edge on it
/// issues `i` after `m`. The cover must conflict with both ends, because
/// conflicts are not transitive under disambiguation.
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
        covers,
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
            let access = MemRef {
                index: i,
                base,
                offset,
                size: access_size(op.opcode),
            };
            let is_store = op.opcode.is_store();
            // A load orders only against stores; the covers imply the
            // rest (see above).
            let earlier = if is_store { &*mem } else { &*stores };
            covers.clear();
            for m in earlier.iter().rev() {
                if provably_disjoint(&access, m) {
                    continue;
                }
                if !covers.conflict(m) {
                    push(&mut deps, m.index, i, 1, DepKind::Mem);
                }
                if ops[m.index].opcode.is_store() && !covers.add(m, &access) {
                    break;
                }
            }
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
/// the visited access's covers and the open side exits (indices into the
/// region's exits).
#[derive(Default)]
struct DepScratch {
    track: Vec<Track>,
    readers: Vec<(u32, u32)>,
    mem: Vec<MemRef>,
    stores: Vec<MemRef>,
    covers: Covers,
    open_exits: Vec<usize>,
}

/// `check_block_schedule`'s buffers, kept across a function's regions
/// so each region allocates only what it reports.
#[derive(Default)]
struct Scratch<'a> {
    ops: Vec<&'a MOp>,
    exits: Vec<RegionExit<'a>>,
    placed: Vec<bool>,
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
    sb: &ScheduledBlock,
    mdes: &MachineDescription,
    scratch: &mut Scratch<'a>,
    diags: &mut Vec<Diagnostic>,
) {
    let Scratch {
        ops,
        exits,
        placed,
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

    // TV005: the bundles must hold exactly the region's operations, and
    // the scheduler's witness `sb.origin` says which: for each scheduled
    // op in bundle order, the region op it places. The witness is
    // untrusted. It must name every region op once, and each scheduled op
    // must equal the op it names, up to the dismissible-load rewrite
    // (`LW` → `LWS`) for loads that crossed a side exit; TV012 settles
    // each rewrite's legitimacy. Identical ops are always chained by
    // output, memory or branch-order edges, so a witness that pairs them
    // otherwise than in issue order breaks one of those edges (TV006).
    let scheduled = sb.bundles.iter().map(Vec::len).sum::<usize>();
    if sb.origin.len() != ops.len() || scheduled != ops.len() {
        diags.push(Diagnostic::error(
            "TV005",
            format!(
                "{fname}: {label}: scheduled bundles hold {scheduled} op(s) placing {} witnessed op(s) of the region's {} op(s)",
                sb.origin.len(),
                ops.len()
            ),
        ));
        return;
    }
    placed.clear();
    placed.resize(ops.len(), false);
    cycle_of.clear();
    cycle_of.resize(ops.len(), 0);
    became_lws.clear();
    became_lws.resize(ops.len(), false);
    let witness = sb
        .bundles
        .iter()
        .zip(&sb.meta)
        .flat_map(|(bundle, meta)| bundle.iter().map(move |other| (other, meta.cycle)));
    for ((other, cycle), &i) in witness.zip(&sb.origin) {
        let i = i as usize;
        if placed.get(i).is_none_or(|&p| p) {
            diags.push(Diagnostic::error(
                "TV005",
                format!(
                    "{fname}: {label}: the witness places region op {i} twice or names no such op — the bundles are not a permutation of the region's {} op(s)",
                    ops.len()
                ),
            ));
            return;
        }
        placed[i] = true;
        cycle_of[i] = cycle;
        let op = ops[i];
        if other == op {
            continue;
        }
        let same_fields = (other.dest1, other.dest2, &other.src1, &other.src2)
            == (op.dest1, op.dest2, &op.src1, &op.src2)
            && (other.store_value, other.guard) == (op.store_value, op.guard);
        if op.opcode == Opcode::Lw && other.opcode == Opcode::LwS && same_fields {
            became_lws[i] = true;
        } else {
            diags.push(Diagnostic::error(
                "TV005",
                format!(
                    "{fname}: {label}: `{other}` is placed as region op {i}, `{op}` — only LW may become LWS",
                ),
            ));
            return;
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

    fn add(d: u32, a: u32, b: u32) -> MOp {
        let mut op = MOp::bare(Opcode::Add);
        op.dest1 = MDest::Gpr(d);
        op.src1 = MSrc::Gpr(a);
        op.src2 = MSrc::Gpr(b);
        op
    }

    fn load(opcode: Opcode, dest: u32, base: MSrc, offset: MSrc) -> MOp {
        let mut op = MOp::bare(opcode);
        op.dest1 = MDest::Gpr(dest);
        op.src1 = base;
        op.src2 = offset;
        op
    }

    fn store(opcode: Opcode, value: u32, base: MSrc, offset: MSrc) -> MOp {
        let mut op = MOp::bare(opcode);
        op.store_value = Some(value);
        op.src1 = base;
        op.src2 = offset;
        op
    }

    fn call() -> MOp {
        let mut brl = MOp::bare(Opcode::Brl);
        brl.dest1 = MDest::Gpr(61);
        brl.src1 = MSrc::Btr(0);
        brl
    }

    #[test]
    fn control_and_memory_edges_grow_linearly_with_the_region() {
        // The scheduler's guard shapes, with the dependences per op the
        // rebuild may materialise: a call every fourth op; a
        // load-add-store chain through one base and version; the chain
        // with the base redefined every statement; stores alternating
        // between two bases at one offset each.
        fn calls(k: usize) -> MOp {
            match k % 4 {
                3 => call(),
                r => add(10 + r as u32, 20, 21),
            }
        }
        fn chain(k: usize) -> MOp {
            let r20 = MSrc::Gpr(20);
            match k % 3 {
                0 => load(Opcode::Lw, 10, r20, MSrc::Lit(0)),
                1 => add(10, 10, 11),
                _ => store(Opcode::Sw, 10, r20, MSrc::Lit(0)),
            }
        }
        fn redefined(k: usize) -> MOp {
            match k % 4 {
                0 => add(20, 20, 12),
                r => chain(r - 1),
            }
        }
        fn alternating(k: usize) -> MOp {
            store(Opcode::Sw, 10, MSrc::Gpr(20 + k as u32 % 2), MSrc::Lit(0))
        }
        let shapes: [(fn(usize) -> MOp, usize); 4] =
            [(calls, 4), (chain, 3), (redefined, 4), (alternating, 1)];
        let mdes = MachineDescription::new(&Config::default());
        for (shape, per_op) in shapes {
            for n in [1_024, 4_096] {
                let ops: Vec<MOp> = (0..n).map(shape).collect();
                let ops: Vec<&MOp> = ops.iter().collect();
                let edges = dependences(&ops, &[], &mdes, &mut DepScratch::default()).len();
                assert!(edges <= per_op * n, "{n} ops built {edges} edges");
            }
        }
    }

    /// One op of a random straight-line region from a `(kind, base,
    /// offset)` draw, as in the scheduler's property: word, half and byte
    /// loads and stores through r20–r22 (or, rarely, a literal address)
    /// at a literal offset, or at the register offset r23 when the draw
    /// exceeds 7; base redefinitions; adds; and an occasional call.
    fn region_op((kind, base, offset): (u8, u32, i64)) -> MOp {
        const LOADS: [Opcode; 5] = [Opcode::Lw, Opcode::Lh, Opcode::Lhu, Opcode::Lb, Opcode::Lbu];
        const STORES: [Opcode; 3] = [Opcode::Sw, Opcode::Sh, Opcode::Sb];
        let base_reg = MSrc::Gpr(20 + base);
        let offset = if offset > 7 {
            MSrc::Gpr(23)
        } else {
            MSrc::Lit(offset)
        };
        match kind {
            0..=4 => load(LOADS[usize::from(kind)], 10 + base, base_reg, offset),
            5..=9 => store(STORES[usize::from(kind) % 3], 10 + base, base_reg, offset),
            10 | 11 => add(20 + base, 20 + base, 23),
            12 => store(Opcode::Sw, 11, MSrc::Lit(256), offset),
            13 => call(),
            _ => add(10 + base, 10 + base, 11),
        }
    }

    /// Whether the accesses `a` and `b` may touch a common byte with at
    /// least one of them a store, judged pairwise: `version[i]` counts
    /// the writes to op `i`'s base register before it.
    fn conflict(ops: &[MOp], version: &[u32], a: usize, b: usize) -> bool {
        let access = |i: usize| {
            let op = &ops[i];
            let offset = match op.src2 {
                MSrc::Lit(v) => Some(v),
                _ => None,
            };
            let base = op.src1.gpr().map(|r| (r, version[i]));
            (base, offset, i64::from(access_size(op.opcode)))
        };
        let ((base_a, off_a, size_a), (base_b, off_b, size_b)) = (access(a), access(b));
        let disjoint = match (base_a, off_a, base_b, off_b) {
            (Some(x), Some(lo_a), Some(y), Some(lo_b)) => {
                x == y && (lo_a + size_a <= lo_b || lo_b + size_b <= lo_a)
            }
            _ => false,
        };
        (ops[a].opcode.is_store() || ops[b].opcode.is_store()) && !disjoint
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig { cases: 256, ..Default::default() })]

        #[test]
        fn pruned_memory_edges_flag_exactly_the_pairwise_reorders(
            draws in proptest::collection::vec((0u8..20, 0u32..3, -2i64..10), 64..=256),
            bases in 2u32..=3,
            (moved, delta) in (0usize..256, -64i64..=64),
        ) {
            let ops: Vec<MOp> = draws
                .into_iter()
                .map(|(kind, base, offset)| region_op((kind, base % bases, offset)))
                .collect();
            let n = ops.len();
            // Program order two cycles apart, one op moved off it.
            let mut cycle: Vec<i64> = (0..n as i64).map(|i| 2 * i).collect();
            if let Some(c) = cycle.get_mut(moved) {
                *c += delta;
            }
            let mut writes: HashMap<u32, u32> = HashMap::new();
            let version: Vec<u32> = ops
                .iter()
                .map(|op| {
                    let version = op.src1.gpr().map_or(0, |r| writes.get(&r).copied().unwrap_or(0));
                    if let Some(d) = op.gpr_def() {
                        *writes.entry(d).or_insert(0) += 1;
                    }
                    version
                })
                .collect();
            let is_mem = |i: usize| ops[i].opcode.is_load() || ops[i].opcode.is_store();
            let pairwise = (0..n).filter(|&a| is_mem(a)).any(|a| {
                (a + 1..n).any(|b| is_mem(b) && conflict(&ops, &version, a, b) && cycle[b] <= cycle[a])
            });
            let refs: Vec<&MOp> = ops.iter().collect();
            let mdes = MachineDescription::new(&Config::default());
            let deps = dependences(&refs, &[], &mdes, &mut DepScratch::default());
            let pruned = (deps.iter())
                .any(|d| d.kind == DepKind::Mem && cycle[d.to] <= cycle[d.from]);
            proptest::prop_assert_eq!(pruned, pairwise);
        }
    }

    /// The honest trace of a small compile, its `main` function, and the
    /// index of a scheduled region of `main` holding at least two
    /// different ops.
    fn honest_main() -> (FunctionTrace, usize) {
        use epic_ir::ast::{Expr, FunctionDef, Program, Stmt};
        let ast = Program::new()
            .global(epic_ir::Global::zeroed("g", 4))
            .function(FunctionDef::new("main", ["a"]).body([
                Stmt::store_word(Expr::global("g"), Expr::var("a") + Expr::lit(50)),
                Stmt::let_("y", Expr::global("g").load_word()),
                Stmt::ret(Expr::var("y") * Expr::lit(2) - Expr::var("a")),
            ]));
        let module = epic_ir::lower::lower(&ast).expect("program lowers");
        let options = epic_compiler::Options {
            entry: "main".to_owned(),
            entry_args: vec![3],
            ..epic_compiler::Options::default()
        };
        let (_, trace) = epic_compiler::Compiler::new(Config::default())
            .compile_mutated(&module, &options, &epic_compiler::Mutation::default())
            .expect("compiles");
        let func = (trace.functions.into_iter())
            .find(|f| f.name == "main")
            .expect("main is traced");
        let region = (func.scheduled.iter())
            .position(|sb| sb.origin.len() >= 4)
            .expect("a region of four ops or more");
        (func, region)
    }

    /// The diagnostics of `func`'s schedule check.
    fn schedule_diagnostics(func: &FunctionTrace) -> Vec<Diagnostic> {
        let config = Config::default();
        let mut diags = Vec::new();
        let abi = Abi::new(&config).ok();
        check_schedule(
            func,
            &MachineDescription::new(&config),
            abi.as_ref(),
            &mut diags,
        );
        diags
    }

    #[test]
    fn a_corrupted_witness_is_a_tv005_error() {
        let (honest, region) = honest_main();
        assert_eq!(
            schedule_diagnostics(&honest),
            [],
            "the honest schedule is clean"
        );
        let corruptions: [(&str, fn(&mut ScheduledBlock)); 4] = [
            ("an index used twice", |sb| sb.origin[1] = sb.origin[0]),
            ("an index out of range", |sb| {
                sb.origin[0] = sb.origin.len() as u32
            }),
            ("a witness one entry short", |sb| {
                sb.origin.pop();
            }),
            ("two entries swapped between different ops", |sb| {
                let ops: Vec<&MOp> = sb.bundles.iter().flatten().collect();
                let other = (1..ops.len())
                    .find(|&k| ops[k] != ops[0])
                    .expect("two different ops");
                sb.origin.swap(0, other);
            }),
        ];
        for (name, corrupt) in corruptions {
            let mut func = honest.clone();
            corrupt(&mut func.scheduled[region]);
            let diags = schedule_diagnostics(&func);
            assert!(
                diags
                    .iter()
                    .any(|d| d.code == "TV005" && d.severity == crate::Severity::Error),
                "{name}: {diags:?}"
            );
        }
    }
}
