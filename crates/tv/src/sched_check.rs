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
use epic_isa::{Opcode, Unit};
use epic_mdes::MachineDescription;
use std::collections::{HashMap, HashSet};
use std::hash::{Hash, Hasher};

/// A register resource: `(kind, number)` with kind 0 = GPR,
/// 1 = predicate, 2 = BTR.
type Res = (u8, u32);

const GPR: u8 = 0;
const PRED: u8 = 1;
const BTR: u8 = 2;

fn op_reads(op: &MOp) -> Vec<Res> {
    let mut reads: Vec<Res> = op.gpr_uses().into_iter().map(|r| (GPR, r)).collect();
    reads.extend(op.pred_uses().into_iter().map(|p| (PRED, p)));
    if let Some(b) = op.btr_use() {
        reads.push((BTR, u32::from(b)));
    }
    reads
}

fn op_writes(op: &MOp) -> Vec<Res> {
    let mut writes: Vec<Res> = Vec::new();
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

/// Per-block live-in sets over physical registers on the finalised CFG —
/// an independent mirror of the scheduler's analysis, used to decide
/// what may legally hoist above a side exit. `BRL` conservatively uses
/// every argument register plus the stack pointer; `Ret` keeps the
/// return value and stack pointer live; guarded definitions do not kill.
fn block_live_in(mfunc: &MFunction, abi: &Abi) -> HashMap<MBlockId, RegSet> {
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
    let mut live_in: HashMap<MBlockId, RegSet> = mfunc
        .blocks
        .iter()
        .map(|b| (b.id, RegSet::default()))
        .collect();
    let mut changed = true;
    while changed {
        changed = false;
        for (block, (uses, defs)) in mfunc.blocks.iter().zip(&effects).rev() {
            let mut live = RegSet::default();
            match &block.term {
                MTerm::Ret(_) => {
                    live.insert((GPR, abi.ret));
                    live.insert((GPR, abi.sp));
                }
                MTerm::Halt => {}
                _ => {
                    for s in block.term.successors() {
                        if let Some(succ_in) = live_in.get(&s) {
                            live.union_with(succ_in);
                        }
                    }
                }
            }
            live.subtract(defs);
            live.union_with(uses);
            let entry = live_in.get_mut(&block.id).expect("all blocks seeded");
            if *entry != live {
                *entry = live;
                changed = true;
            }
        }
    }
    live_in
}

/// A side exit in a scheduling region: the branch at op index `op` and
/// the live-ins of its off-trace target.
struct RegionExit {
    op: usize,
    live: RegSet,
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
fn dependences(ops: &[MOp], exits: &[RegionExit], mdes: &MachineDescription) -> Vec<Dep> {
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
    // Per resource: the last writer, the readers since it and the number
    // of writes (the base version for memory disambiguation).
    #[derive(Clone, Default)]
    struct Track {
        last_write: Option<usize>,
        readers: Vec<usize>,
        writes: u32,
    }
    let mut track: Vec<Track> = Vec::new();
    let slot = |(kind, number): Res| (number as usize) << 2 | usize::from(kind);
    // Every memory access so far, and the stores among them.
    let mut mem: Vec<MemRef> = Vec::new();
    let mut stores: Vec<MemRef> = Vec::new();
    let exit_live: HashMap<usize, &RegSet> = exits.iter().map(|e| (e.op, &e.live)).collect();
    let mut barrier: Option<usize> = None;
    let mut open_exits: Vec<usize> = Vec::new();
    let mut last_ctl = 0;

    for (i, op) in ops.iter().enumerate() {
        let is_ctl = op.opcode.is_branch() || op.opcode == Opcode::Halt;
        if let Some(b) = barrier {
            push(&mut deps, b, i, 1, DepKind::Branch);
        }
        if !is_ctl {
            for &e in &open_exits {
                if !may_speculate(op, exit_live[&e]) {
                    push(&mut deps, e, i, 1, DepKind::Branch);
                }
            }
        }
        let reads: Vec<Res> = op_reads(op);
        let writes: Vec<Res> = op_writes(op);
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
            for &r in &t.readers {
                push(&mut deps, r, i, 0, DepKind::Anti);
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
            for m in if is_store { &mem } else { &stores } {
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
            if exit_live.contains_key(&i) {
                open_exits.push(i);
            } else {
                barrier = Some(i);
                open_exits.clear();
            }
        }

        if let Some(top) = reads.iter().chain(&writes).map(|&r| slot(r)).max() {
            if track.len() <= top {
                track.resize_with(top + 1, Track::default);
            }
        }
        for r in reads {
            track[slot(r)].readers.push(i);
        }
        for w in writes {
            let t = &mut track[slot(w)];
            t.last_write = Some(i);
            t.writes += 1;
            t.readers.clear();
            if conditional {
                t.readers.push(i);
            }
        }
    }
    deps
}

/// An op seen with the dismissible-load rewrite undone: it hashes and
/// compares as its `LW` form, without a copy.
struct Unrewritten<'a>(&'a MOp);

impl Unrewritten<'_> {
    fn opcode(&self) -> Opcode {
        match self.0.opcode {
            Opcode::LwS => Opcode::Lw,
            opcode => opcode,
        }
    }
}

impl PartialEq for Unrewritten<'_> {
    fn eq(&self, other: &Self) -> bool {
        let MOp {
            opcode: _,
            dest1,
            dest2,
            src1,
            src2,
            store_value,
            guard,
        } = self.0;
        let o = other.0;
        self.opcode() == other.opcode()
            && *dest1 == o.dest1
            && *dest2 == o.dest2
            && *src1 == o.src1
            && *src2 == o.src2
            && *store_value == o.store_value
            && *guard == o.guard
    }
}

impl Eq for Unrewritten<'_> {}

impl Hash for Unrewritten<'_> {
    fn hash<H: Hasher>(&self, state: &mut H) {
        let MOp {
            opcode: _,
            dest1,
            dest2,
            src1,
            src2,
            store_value,
            guard,
        } = self.0;
        self.opcode().hash(state);
        (dest1, dest2, src1, src2, store_value, guard).hash(state);
    }
}

/// Validates the region structure (TV011) and returns the scheduling
/// groups: each trace one group, every other laid-out block a singleton.
fn region_groups(func: &FunctionTrace, diags: &mut Vec<Diagnostic>) -> Option<Vec<Vec<MBlockId>>> {
    let fname = &func.name;
    if func.traces.is_empty() {
        return Some(func.layout.iter().map(|&b| vec![b]).collect());
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
            groups.push((*trace).clone());
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
            groups.push(vec![b]);
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
        HashMap::new()
    } else if let Some(abi) = abi {
        block_live_in(&func.post_finalize, abi)
    } else {
        diags.push(Diagnostic::error(
            "TV011",
            format!("{fname}: superblock traces recorded but the target has no valid ABI"),
        ));
        return;
    };
    for (k, sb) in func.scheduled.iter().enumerate() {
        let group = &groups[k];
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
        let mut ops: Vec<MOp> = Vec::new();
        let mut exits: Vec<RegionExit> = Vec::new();
        let mut callful = false;
        let mut well_formed = true;
        for (j, &id) in group.iter().enumerate() {
            for inst in &func.post_finalize.block(id).insts {
                match inst {
                    MInst::Op(op) => ops.push(op.clone()),
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
                            live: live_in.get(&target).cloned().unwrap_or_default(),
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
        check_block_schedule(fname, &sb.label, &ops, &exits, sb, mdes, diags);
    }
}

fn check_block_schedule(
    fname: &str,
    label: &str,
    ops: &[MOp],
    exits: &[RegionExit],
    sb: &epic_compiler::sched::ScheduledBlock,
    mdes: &MachineDescription,
    diags: &mut Vec<Diagnostic>,
) {
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
        if cost.port_ops > config.regfile_ops_per_cycle() {
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
    // Each distinct op, with that rewrite undone, gets a dense class id;
    // the region's ops and the scheduled ones must have equal counts per
    // class.
    let mut class_of: HashMap<Unrewritten<'_>, usize> = HashMap::new();
    let mut want: Vec<usize> = Vec::new();
    let op_class: Vec<usize> = ops
        .iter()
        .map(|op| {
            let class = *class_of.entry(Unrewritten(op)).or_insert(want.len());
            if class == want.len() {
                want.push(0);
            }
            want[class] += 1;
            class
        })
        .collect();
    let mut have = vec![0usize; want.len()];
    let mut scheduled: Vec<(usize, usize, usize)> = Vec::with_capacity(ops.len());
    let mut permutation = true;
    for (bi, bundle) in sb.bundles.iter().enumerate() {
        for (slot, other) in bundle.iter().enumerate() {
            match class_of.get(&Unrewritten(other)) {
                Some(&class) => {
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
    let start: Vec<usize> = want
        .iter()
        .scan(0, |end, &count| {
            *end += count;
            Some(*end - count)
        })
        .collect();
    let mut fill = start.clone();
    let mut bucketed = vec![(0, 0); scheduled.len()];
    for &(class, bi, slot) in &scheduled {
        bucketed[fill[class]] = (bi, slot);
        fill[class] += 1;
    }
    let mut next = start;
    let mut cycle_of = vec![0u32; ops.len()];
    let mut became_lws = vec![false; ops.len()];
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
    for dep in dependences(ops, exits, mdes) {
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
            let edges = dependences(&ops, &[], &mdes).len();
            assert!(edges <= 4 * ops.len(), "{n} ops built {edges} edges");
        }
    }
}
