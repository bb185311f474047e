//! List scheduling into issue bundles.
//!
//! This is the elcor role: "statically schedule the instructions by
//! performing dependence analysis and resource conflict avoidance" (paper
//! §4.1), driven by the machine description. Each block's instructions
//! (by now physical and real) are formed into a dependence DAG and packed
//! greedily by critical-path priority into bundles that respect
//!
//! * the issue width,
//! * per-unit instance counts (N ALUs, one LSU/CMPU/BRU),
//! * multi-cycle unit occupancy (the blocking divider),
//! * operation latencies (a consumer issues `latency` cycles after its
//!   producer), and
//! * the register-file port budget (8 operations per cycle in the
//!   prototype), so the scheduled code never provokes the port stall the
//!   hardware would otherwise insert — except for an operation whose
//!   own port operations exceed the budget, which gets a bundle with no
//!   other port operation, the least stall any schedule can give it.
//!
//! Branch operations are constrained to the final cycle of their block.
//! Memory disambiguation is conservative except for the common
//! same-base/different-offset case, which is proven independent.
//!
//! Each cycle packs its bundle from the ready ops in the order of the key
//! `(speculative, highest critical path first, program order)`: the best
//! candidate that fits is placed, and an op that does not fit waits for
//! the next cycle. That is exact, not a heuristic shortcut. Every fit
//! test (issue width, unit count, port budget, one control transfer per
//! bundle) only tightens as the bundle fills, so a rejected op would be
//! rejected again later in the same cycle; and an op's speculation status
//! cannot change within a cycle, because an exit placed during it issues
//! in it. Ops that a zero-latency edge makes ready mid-cycle join the
//! candidates. The bundle therefore holds exactly the ops a full re-sort
//! of the ready list after every placement would pick. The ready ops live
//! in one heap per unit across cycles, and a unit with no instance left
//! is skipped whole, so a cycle costs O(log n) per op it places or
//! rejects, not per ready op. An op becomes ready once: when its last
//! predecessor is placed, at the latest `cycle + latency` over its edges.
//!
//! When superblock formation ran (see [`crate::superblock`]), each trace
//! is scheduled as **one region**: the internal conditional branches
//! become *side exits*, and an operation from below a side exit may hoist
//! above it when doing so is speculation-safe — it is not a store or a
//! control transfer, it writes nothing live at the exit target, and, if
//! it is a word load, it can be replaced by the dismissible `LWS` (a
//! fault on the speculated path must not trap). Bundles then straddle the
//! former block boundaries; side-exit paths never get slower because
//! nothing ever moves *down* across an exit.

use crate::mir::{MBlockId, MFunction, MInst, MOp, MSrc, MTerm, RegSet};
use crate::regalloc::Abi;
use epic_isa::Opcode;
use epic_isa::{Instruction, RegList, Unit};
use epic_mdes::MachineDescription;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap, HashSet};

/// A scheduled region: label, bundles of machine operations and the
/// placement witness that ties each scheduled op to the region op it
/// places.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScheduledBlock {
    /// The block's label in the emitted assembly.
    pub label: String,
    /// Issue bundles in execution order. Every bundle is non-empty and
    /// legal for the machine description.
    pub bundles: Vec<Vec<MOp>>,
    /// Per-bundle schedule metadata, aligned with `bundles`.
    pub meta: Vec<BundleMeta>,
    /// The placement witness: for each scheduled op in bundle order, the
    /// index of the op it places in the region's program order (the
    /// region's blocks' ops, concatenated). Translation validation reads
    /// it as untrusted input (TV005).
    pub origin: Vec<u32>,
}

/// Schedule metadata for one bundle, as accounted by the list scheduler
/// while packing it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BundleMeta {
    /// Issue cycle relative to the block start. Gaps between successive
    /// bundles mark cycles where nothing could issue (latency waits or
    /// a divider shadow) — the hardware covers them with interlocks.
    pub cycle: u32,
}

/// Statistics reported by [`schedule_function`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SchedStats {
    /// Operations scheduled.
    pub ops: usize,
    /// Bundles emitted.
    pub bundles: usize,
    /// Issue slots actually filled (equals `ops`; kept separate so the
    /// occupancy ratio reads as filled/available).
    pub slots_filled: usize,
    /// Issue slots available across every region's span: issue width ×
    /// scheduled cycles, empty trailing cycles excluded.
    pub slots_available: usize,
}

impl SchedStats {
    /// Average operations per bundle (the static ILP achieved).
    #[must_use]
    pub fn ilp(&self) -> f64 {
        if self.bundles == 0 {
            0.0
        } else {
            self.ops as f64 / self.bundles as f64
        }
    }

    /// Fraction of available issue slots filled across all regions —
    /// unlike [`SchedStats::ilp`], this charges the cycles where nothing
    /// could issue (latency gaps, divider shadows) as empty slots.
    #[must_use]
    pub fn occupancy(&self) -> f64 {
        if self.slots_available == 0 {
            0.0
        } else {
            self.slots_filled as f64 / self.slots_available as f64
        }
    }
}

/// Schedules the laid-out blocks of an allocated machine function.
///
/// `layout` comes from [`crate::emit::finalize_control`] and lists the
/// reachable blocks in emission order.
///
/// # Panics
///
/// Panics when handed a function that still contains call pseudos or
/// virtual registers (`allocated` unset) — a pipeline-ordering bug.
pub fn schedule_function(
    mfunc: &MFunction,
    layout: &[crate::mir::MBlockId],
    mdes: &MachineDescription,
) -> (Vec<ScheduledBlock>, SchedStats) {
    schedule_function_regions(mfunc, layout, &[], mdes)
}

/// Schedules a laid-out function with superblock traces as scheduling
/// regions.
///
/// Every trace in `traces` (from [`crate::superblock`]) must appear as a
/// consecutive run in `layout`; its blocks are scheduled as one
/// dependence region whose internal branches are side exits. Blocks
/// outside any trace are scheduled alone, exactly as
/// [`schedule_function`] does. The returned `ScheduledBlock` for a trace
/// carries the *head* block's label; interior blocks disappear from the
/// emitted text (their ops live in the head's bundles), which is safe
/// because single-entry regions have no interior labels to jump to.
///
/// # Panics
///
/// Panics when handed a function that still contains call pseudos or
/// virtual registers (`allocated` unset), or a trace that is not a
/// consecutive run of `layout` — pipeline-ordering bugs either way.
pub fn schedule_function_regions(
    mfunc: &MFunction,
    layout: &[crate::mir::MBlockId],
    traces: &[Vec<MBlockId>],
    mdes: &MachineDescription,
) -> (Vec<ScheduledBlock>, SchedStats) {
    assert!(mfunc.allocated, "schedule_function needs allocated code");
    let live_in = if traces.is_empty() {
        Vec::new()
    } else {
        let abi = Abi::new(mdes.config()).expect("allocated code implies a valid ABI");
        block_live_in(mfunc, &abi)
    };
    let mut stats = SchedStats::default();
    let mut blocks = Vec::new();
    let mut scratch = Scratch::default();
    let mut ops = Vec::new();
    let mut exits = Vec::new();
    for group in region_groups(layout, traces) {
        region_ops(mfunc, group, &live_in, &mut ops, &mut exits);
        let (bundles, meta, origin) = schedule_ops(&ops, &exits, mdes, &mut scratch);
        stats.ops += ops.len();
        stats.bundles += bundles.len();
        stats.slots_filled += ops.len();
        stats.slots_available +=
            mdes.issue_width() * meta.last().map_or(0, |m| m.cycle as usize + 1);
        blocks.push(ScheduledBlock {
            label: block_label(&mfunc.name, group[0].0),
            bundles,
            meta,
            origin,
        });
    }
    (blocks, stats)
}

/// Splits the layout into scheduling regions: each trace becomes one
/// group (asserting it sits consecutively in the layout), every other
/// block a singleton.
fn region_groups<'a>(layout: &'a [MBlockId], traces: &'a [Vec<MBlockId>]) -> Vec<&'a [MBlockId]> {
    let heads: HashMap<MBlockId, &Vec<MBlockId>> = traces.iter().map(|t| (t[0], t)).collect();
    let interior: HashSet<MBlockId> = traces.iter().flat_map(|t| t[1..].iter().copied()).collect();
    let mut groups = Vec::new();
    let mut i = 0;
    while i < layout.len() {
        let b = layout[i];
        if let Some(trace) = heads.get(&b) {
            assert!(
                layout[i..].starts_with(trace),
                "trace {trace:?} is not consecutive in layout at {i}"
            );
            groups.push(trace.as_slice());
            i += trace.len();
        } else {
            assert!(
                !interior.contains(&b),
                "trace interior block {b:?} reached outside its trace"
            );
            groups.push(std::slice::from_ref(&layout[i]));
            i += 1;
        }
    }
    groups
}

/// A side exit inside a scheduling region: the conditional branch at op
/// index `op` leaves the trace, and anything hoisted above it must not
/// write a register in `live` (the exit target's live-ins) or touch
/// memory non-dismissibly.
struct RegionExit<'a> {
    op: usize,
    live: &'a RegSet,
}

/// Gathers a region's ops into `ops` and its side exits into `exits`.
/// Interior blocks must fall through (their lowered terminator is at
/// most one conditional branch, which becomes the side exit).
fn region_ops<'a>(
    mfunc: &'a MFunction,
    group: &[MBlockId],
    live_in: &'a [RegSet],
    ops: &mut Vec<&'a MOp>,
    exits: &mut Vec<RegionExit<'a>>,
) {
    static NOTHING_LIVE: RegSet = RegSet::new();
    ops.clear();
    exits.clear();
    for (k, &id) in group.iter().enumerate() {
        let block = mfunc.block(id);
        for inst in &block.insts {
            match inst {
                MInst::Op(op) => ops.push(op),
                MInst::Call { .. } => panic!("call pseudo reached the scheduler"),
            }
        }
        if k + 1 == group.len() {
            break; // the last block's branches are barriers, not exits
        }
        match &block.term {
            MTerm::Jump(t) => debug_assert_eq!(*t, group[k + 1], "interior must fall through"),
            MTerm::CondJump {
                on_true, on_false, ..
            } => {
                let next = group[k + 1];
                debug_assert!(*on_true == next || *on_false == next);
                let target = if *on_false == next {
                    *on_true
                } else {
                    *on_false
                };
                debug_assert!(
                    matches!(
                        ops.last().map(|o| o.opcode),
                        Some(Opcode::Brct | Opcode::Brcf)
                    ),
                    "interior CondJump must lower to one conditional branch"
                );
                exits.push(RegionExit {
                    op: ops.len() - 1,
                    live: live_in.get(target.0 as usize).unwrap_or(&NOTHING_LIVE),
                });
            }
            MTerm::Ret(_) | MTerm::Halt => {
                debug_assert!(false, "interior trace block cannot leave the function")
            }
        }
    }
}

/// A trackable register resource: `(kind, number)` with kind 0 = GPR,
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

/// Per-block live-in sets over physical registers, indexed by block id,
/// by backward dataflow on the post-finalize CFG. `BRL` conservatively
/// uses every argument register plus the stack pointer (the callee's
/// interface); `Ret` blocks keep the return value and stack pointer
/// live out of the function. Guarded definitions do not kill (a false
/// guard preserves the old value).
fn block_live_in(mfunc: &MFunction, abi: &Abi) -> Vec<RegSet> {
    // Each block's effect, from one backward walk over its ops: what it
    // reads before any unconditional write (`uses`) and what it writes
    // unconditionally (`defs`), so live-in = uses ∪ (live-out − defs).
    let effects: Vec<(RegSet, RegSet)> = (mfunc.blocks.iter())
        .map(|block| {
            let (mut uses, mut defs) = (RegSet::default(), RegSet::default());
            for inst in block.insts.iter().rev() {
                let MInst::Op(op) = inst else {
                    panic!("call pseudo reached the scheduler")
                };
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

/// Whether `op` may hoist above a side exit whose target's live-ins are
/// `live`: no stores (memory state must be exit-clean), no control, the
/// only speculable load is the word load (rewritten to dismissible
/// `LWS` after placement), and nothing live at the target may be
/// overwritten — not even conditionally, since a true guard on the
/// not-taken path still clobbers.
fn may_speculate(op: &MOp, live: &RegSet) -> bool {
    if op.opcode.is_store() {
        return false;
    }
    if op.opcode.is_load() && !matches!(op.opcode, Opcode::Lw | Opcode::LwS) {
        return false;
    }
    op_writes(op).into_iter().all(|w| !live.contains(w))
}

/// The label naming scheme shared with emission.
#[must_use]
pub fn block_label(func: &str, block: u32) -> String {
    if block == 0 {
        format!("fn_{func}")
    } else {
        format!("{func}_bb{block}")
    }
}

#[derive(Debug, Clone, Copy)]
struct Edge {
    to: usize,
    latency: u32,
}

/// A memory access already seen while building the dependence DAG:
/// `(index, base register + its SSA-ish version, literal offset, size)`.
/// Two same-base same-version literal-offset accesses with disjoint
/// ranges are provably independent.
#[derive(Clone, Copy)]
struct MemRef {
    index: usize,
    base: Option<(u32, u32)>,
    offset: Option<i64>,
    size: u32,
}

impl MemRef {
    /// The base and the bytes `[offset, offset + size)` it touches,
    /// when both base and offset are known.
    fn bytes(&self) -> Option<((u32, u32), i64, i64)> {
        let offset = self.offset?;
        Some((self.base?, offset, offset + i64::from(self.size)))
    }
}

/// The stores one access's memory scan has met that conflict with it,
/// its *covers*: the bytes they touch through the one base and version
/// they share, as sorted ranges that neither overlap nor touch. An
/// earlier access that conflicts with a cover needs no edge of its own.
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

    /// Whether `m` conflicts with some cover: it goes through another
    /// base or an unknown offset, or it shares a byte with one.
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

    /// Records the store `c`, which conflicts with `access`. Returns false
    /// when every earlier access that conflicts with `access` now
    /// conflicts with a cover, which ends the scan: `c`'s base or offset
    /// is unknown, `c` covers every byte of `access`, or the covers span
    /// two bases.
    fn add(&mut self, c: &MemRef, access: &MemRef) -> bool {
        let Some((base, lo, hi)) = c.bytes() else {
            return false;
        };
        let contains = |(b, l, h)| b == base && lo <= l && h <= hi;
        if access.bytes().is_some_and(contains) || *self.base.get_or_insert(base) != base {
            return false;
        }
        // Merge `[lo, hi)` with every range it overlaps or touches.
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

/// Builds the dependence DAG and list-schedules one block, discarding
/// the per-bundle metadata and the witness (test convenience).
#[cfg(test)]
fn schedule_block(ops: &[MOp], mdes: &MachineDescription) -> Vec<Vec<MOp>> {
    let ops: Vec<&MOp> = ops.iter().collect();
    schedule_ops(&ops, &[], mdes, &mut Scratch::default()).0
}

/// One register resource's dependence state while a region's DAG is
/// built: the last writer, the readers since it (a chain through
/// [`Dag::readers`]) and the number of writes (the version for memory
/// disambiguation).
#[derive(Clone, Copy)]
struct ResTrack {
    last_write: Option<usize>,
    readers: u32,
    writes: u32,
}

/// End of a reader chain.
const NO_READER: u32 = u32::MAX;

impl Default for ResTrack {
    fn default() -> Self {
        ResTrack {
            last_write: None,
            readers: NO_READER,
            writes: 0,
        }
    }
}

/// A region's dependence DAG in flat arrays. One `Dag` serves every
/// region of a function: building the next region reuses the storage.
#[derive(Default)]
struct Dag {
    /// Every edge, grouped by source op; `edges[out[i]..out[i + 1]]`
    /// leave op `i`, sorted by target.
    edges: Vec<Edge>,
    out: Vec<u32>,
    /// Each op's number of incoming edges.
    pred_count: Vec<u32>,
    /// For each op, the side exits it is *allowed* to cross:
    /// `spec[spec_at[i]..spec_at[i + 1]]`. Placement uses this to keep
    /// speculation fill-only: an op goes above a pending exit only into
    /// issue slots no non-speculative ready op wants, so wasted work on
    /// the taken path never displaces useful work on the fall-through
    /// path.
    spec: Vec<usize>,
    spec_at: Vec<u32>,
    /// Construction state: the edges by target as `(from, latency)`,
    /// the latest incoming edge of the visited op from each op, the
    /// register trackers (indexed `number << 2 | kind`) with their
    /// reader chains `(op, next)`, the memory accesses so far and the
    /// visited access's covers.
    incoming: Vec<(u32, u32)>,
    latest: Vec<u32>,
    track: Vec<ResTrack>,
    readers: Vec<(u32, u32)>,
    mem: Vec<MemRef>,
    stores: Vec<MemRef>,
    covers: Covers,
    open_exits: Vec<usize>,
}

impl Dag {
    /// Outgoing edges of op `i`.
    fn succs(&self, i: usize) -> &[Edge] {
        &self.edges[self.out[i] as usize..self.out[i + 1] as usize]
    }

    /// The side exits op `i` may cross.
    fn spec_across(&self, i: usize) -> &[usize] {
        &self.spec[self.spec_at[i] as usize..self.spec_at[i + 1] as usize]
    }

    /// Builds a region's dependence DAG: flow, output and anti edges per
    /// register, memory edges under same-base disambiguation, and the
    /// control-ordering edges, relaxed at each side exit in `exits`.
    ///
    /// A control op takes ordering edges only from the ops at or after the
    /// region's previous control op `c`, `c` included. Each dropped edge
    /// `j → i` (`j < c`) has latency at most 1 and is implied by a kept path
    /// `j → … → c → i` whose last edge has latency 1 (by induction over the
    /// region's control ops), so the op's ready cycle is unchanged; and
    /// `priority[j]` already counts at least `2 + priority[i]` through that
    /// path, against `1 + priority[i]` through the dropped edge. A region
    /// with `k` control ops among `n` ops therefore builds O(n) control edges
    /// instead of O(n·k), and schedules exactly as before.
    ///
    /// Memory edges are pruned the same way. An access `i` scans the
    /// earlier accesses it may conflict with (stores for a load, every
    /// access for a store) latest first, and takes no edge from an access
    /// `m` that conflicts with a store `c` met earlier in the scan
    /// (`m < c < i`, `c` conflicting with `i`). Every memory edge has
    /// latency 1, so by induction over program order every conflicting
    /// pair keeps a path of latency-1 memory edges, and `m → … → c → i`
    /// bounds `i` at `cycle_m + 2` and `priority[m]` at
    /// `2 + priority[i]`: the dropped edge changed neither. The cover must
    /// conflict with *both* ends, since conflicts are not transitive under
    /// disambiguation (`SW [r1+0]; SW [r1+4]; LW [r2+0]` keeps both edges
    /// into the load). The scan stops once the covers conflict with
    /// everything earlier that `i` conflicts with (see [`Covers::add`]).
    fn build(&mut self, ops: &[&MOp], exits: &[RegionExit], mdes: &MachineDescription) {
        let n = ops.len();
        self.incoming.clear();
        self.latest.clear();
        self.latest.resize(n, 0);
        self.pred_count.clear();
        self.pred_count.resize(n, 0);
        self.spec.clear();
        self.spec_at.clear();
        self.track.clear();
        self.readers.clear();
        self.mem.clear();
        self.stores.clear();
        self.open_exits.clear();
        let slot = |(kind, number): Res| (number as usize) << 2 | usize::from(kind);

        // Branches an op may not cross at all (calls, unconditional
        // branches, the region's final control chain) vs. open side exits
        // (indices into `exits`) it may cross when speculation-safe.
        let mut barrier: Option<usize> = None;
        // The region's latest control op so far, and the next side exit.
        let mut last_ctl = 0;
        let mut next_exit = 0;

        for (i, &op) in ops.iter().enumerate() {
            // Every edge into `i` is added now: `incoming[first..]` are
            // its edges, and `latest[from] > first` marks the one from
            // `from` (offset by one), so a duplicate raises its latency.
            let first = self.incoming.len();
            let add_edge = |dag: &mut Dag, from: usize, latency: u32| {
                if from == i {
                    return;
                }
                let at = dag.latest[from] as usize;
                if at > first {
                    let edge = &mut dag.incoming[at - 1];
                    edge.1 = edge.1.max(latency);
                } else {
                    dag.incoming.push((from as u32, latency));
                    dag.latest[from] = dag.incoming.len() as u32;
                }
            };
            self.spec_at.push(self.spec.len() as u32);
            let is_ctl = op.opcode.is_branch() || op.opcode == Opcode::Halt;
            // Nothing moves across a barrier control transfer: `BRL` call
            // sites have register restores *after* them in program order
            // that must stay after (the callee returns to the next bundle).
            // Control ops also get their (latency-1) edge from the previous
            // control op in the ordering loop below.
            if let Some(b) = barrier {
                add_edge(self, b, 1);
            }
            if !is_ctl {
                for k in 0..self.open_exits.len() {
                    let exit = &exits[self.open_exits[k]];
                    if may_speculate(op, exit.live) {
                        self.spec.push(exit.op);
                    } else {
                        add_edge(self, exit.op, 1);
                    }
                }
            }
            let reads = op_reads(op);
            let writes = op_writes(op);
            // A guarded (conditional) definition merges with the previous
            // value: order it after prior writers *and* treat it as a reader
            // so later writers order after it (handled by WAW/WAR below).
            let conditional = op.is_conditional();

            for &r in &reads {
                if let Some(w) = self.track.get(slot(r)).and_then(|t| t.last_write) {
                    add_edge(self, w, mdes.latency(ops[w].opcode));
                }
            }
            for &wreg in &writes {
                let Some(&t) = self.track.get(slot(wreg)) else {
                    continue;
                };
                if let Some(w) = t.last_write {
                    add_edge(self, w, 1); // WAW
                }
                let mut reader = t.readers;
                while reader != NO_READER {
                    let (r, next) = self.readers[reader as usize];
                    add_edge(self, r as usize, 0); // WAR
                    reader = next;
                }
            }

            // Memory dependences.
            let is_mem = op.opcode.is_load() || op.opcode.is_store();
            if is_mem {
                let base = op
                    .src1
                    .gpr()
                    .map(|b| (b, self.track.get(slot((GPR, b))).map_or(0, |t| t.writes)));
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
                // Load-load pairs never conflict. Latest first, skipping
                // the edges the covers imply (see above).
                let earlier = if is_store {
                    self.mem.len()
                } else {
                    self.stores.len()
                };
                self.covers.clear();
                for k in (0..earlier).rev() {
                    let m = if is_store {
                        self.mem[k]
                    } else {
                        self.stores[k]
                    };
                    if provably_disjoint(&access, &m) {
                        continue;
                    }
                    if !self.covers.conflict(&m) {
                        add_edge(self, m.index, 1);
                    }
                    if ops[m.index].opcode.is_store() && !self.covers.add(&m, &access) {
                        break;
                    }
                }
                if is_store {
                    self.stores.push(access);
                }
                self.mem.push(access);
            }

            // Branch ordering: every earlier op must not be after the branch;
            // branches chain among themselves and come last. The edges from
            // before the previous control op are implied (see above). A side
            // exit leaves the door open behind it; anything else slams it.
            if is_ctl {
                for (j, earlier) in ops.iter().enumerate().take(i).skip(last_ctl) {
                    let lat = if earlier.opcode.is_branch() || earlier.opcode == Opcode::Halt {
                        1
                    } else {
                        0
                    };
                    add_edge(self, j, lat);
                }
                last_ctl = i;
                if exits.get(next_exit).is_some_and(|e| e.op == i) {
                    self.open_exits.push(next_exit);
                    next_exit += 1;
                } else {
                    barrier = Some(i);
                    self.open_exits.clear();
                }
            }

            // Update trackers.
            if let Some(top) = reads.iter().chain(&writes).map(|&r| slot(r)).max() {
                if self.track.len() <= top {
                    self.track.resize(top + 1, ResTrack::default());
                }
            }
            for r in reads {
                let t = &mut self.track[slot(r)];
                self.readers.push((i as u32, t.readers));
                t.readers = (self.readers.len() - 1) as u32;
            }
            for w in writes {
                let t = &mut self.track[slot(w)];
                t.last_write = Some(i);
                t.writes += 1;
                t.readers = NO_READER;
                if conditional {
                    // Conditional write: also a reader of the old value.
                    self.readers.push((i as u32, NO_READER));
                    t.readers = (self.readers.len() - 1) as u32;
                }
            }
            self.pred_count[i] = (self.incoming.len() - first) as u32;
        }
        self.spec_at.push(self.spec.len() as u32);

        // Regroup the edges by source. Sources are visited in target
        // order, so each source's edges come out sorted by target.
        self.out.clear();
        self.out.resize(n + 1, 0);
        for &(from, _) in &self.incoming {
            self.out[from as usize + 1] += 1;
        }
        for i in 0..n {
            self.out[i + 1] += self.out[i];
        }
        self.edges.clear();
        self.edges
            .resize(self.incoming.len(), Edge { to: 0, latency: 0 });
        // `latest` now serves as each source's fill cursor.
        self.latest.copy_from_slice(&self.out[..n]);
        let mut to = 0;
        let mut left = self.pred_count.first().copied().unwrap_or(0);
        for &(from, latency) in &self.incoming {
            while left == 0 {
                to += 1;
                left = self.pred_count[to];
            }
            left -= 1;
            let at = &mut self.latest[from as usize];
            self.edges[*at as usize] = Edge { to, latency };
            *at += 1;
        }
    }
}

/// The list scheduler's buffers, kept across the regions of a function
/// so each region allocates only its bundles.
#[derive(Default)]
struct Scratch {
    dag: Dag,
    priority: Vec<u32>,
    unplaced: Vec<u32>,
    ready_at: Vec<u32>,
    scheduled: Vec<bool>,
    cycle_of: Vec<u32>,
    slot_of: Vec<(usize, usize)>,
    is_exit: Vec<bool>,
    alu_busy: Vec<u32>,
    events: BinaryHeap<Reverse<(u32, usize)>>,
    queues: [BinaryHeap<Candidate>; 5],
    bundle: Vec<usize>,
    rejected: Vec<(usize, Candidate)>,
}

/// Clears `v` and refills it with `n` copies of `value`, keeping its
/// storage.
fn reset<T: Clone>(v: &mut Vec<T>, n: usize, value: T) {
    v.clear();
    v.resize(n, value);
}

/// A ready op's key in its scheduling queue, best first:
/// `(speculative, highest critical path first, program order)`.
type Candidate = Reverse<(bool, Reverse<u32>, usize)>;

/// Builds the dependence DAG and list-schedules one region, returning
/// the bundles, the scheduler's own per-bundle accounting and the
/// placement witness ([`ScheduledBlock::origin`]).
///
/// With an empty `exits` this is exactly single-block scheduling: every
/// branch is a barrier nothing may cross. Each [`RegionExit`] relaxes
/// the barrier for its branch — speculation-safe ops from below may
/// share its cycle or move above it, and any word load that does so is
/// rewritten to the dismissible `LWS` after placement.
fn schedule_ops(
    ops: &[&MOp],
    exits: &[RegionExit],
    mdes: &MachineDescription,
    scratch: &mut Scratch,
) -> (Vec<Vec<MOp>>, Vec<BundleMeta>, Vec<u32>) {
    let n = ops.len();
    if n == 0 {
        return (Vec::new(), Vec::new(), Vec::new());
    }
    let Scratch {
        dag,
        priority,
        unplaced,
        ready_at,
        scheduled,
        cycle_of,
        slot_of,
        is_exit,
        alu_busy,
        events,
        queues,
        bundle,
        rejected,
    } = scratch;
    dag.build(ops, exits, mdes);
    let dag = &*dag;

    // Critical-path priorities.
    reset(priority, n, 0);
    for i in (0..n).rev() {
        let mut best = 0;
        for e in dag.succs(i) {
            best = best.max(e.latency.max(1) + priority[e.to]);
        }
        priority[i] = best;
    }
    let priority = &*priority;

    // List scheduling, releasing each op once. An op is ready at the
    // latest `cycle + latency` over its incoming edges, known when its
    // last predecessor is placed: it then joins the ready list at once
    // if that is the current cycle (only a latency-0 edge, a WAR
    // ordering satisfied *within* the producer's cycle, allows that —
    // reads see pre-bundle state), or gets one event at that cycle.
    let issue_width = mdes.issue_width();
    let port_budget = mdes.config().regfile_ops_per_cycle();
    unplaced.clear();
    unplaced.extend_from_slice(&dag.pred_count);
    reset(ready_at, n, 0);
    events.clear();
    reset(scheduled, n, false);
    let mut bundles: Vec<Vec<MOp>> = Vec::new();
    let mut meta: Vec<BundleMeta> = Vec::new();
    let mut origin: Vec<u32> = Vec::with_capacity(n);
    let mut cycle: u32 = 0;
    let mut done = 0usize;
    // Final placement of each op, for the dismissible-load rewrite.
    reset(cycle_of, n, 0);
    reset(slot_of, n, (0, 0));
    // Per-ALU-instance busy-until cycles (the blocking divider).
    reset(alu_busy, mdes.unit_count(Unit::Alu), 0);
    reset(is_exit, n, false);
    for exit in exits {
        is_exit[exit.op] = true;
    }

    // Placing an op in `cycle` is speculative when any exit it may cross
    // has not issued in a strictly earlier cycle — speculative candidates
    // only fill slots left over once every non-speculative ready op has
    // been considered. An exit placed during a cycle issues in it, so the
    // answer holds all cycle, and changes only in a cycle after one that
    // placed an exit.
    let key = |i: usize, cycle: u32, scheduled: &[bool], cycle_of: &[u32]| {
        let spec = dag
            .spec_across(i)
            .iter()
            .any(|&e| !scheduled[e] || cycle_of[e] >= cycle);
        Reverse((spec, Reverse(priority[i]), i))
    };
    // The ready ops wait in one queue per unit (`Unit as usize`, then one
    // for unit-less ops), each ordered by the candidate key `(speculative,
    // highest critical path first, program order)`. The keys are total,
    // so the best candidate overall is the best of the queue heads.
    let queue_of = |i: usize| ops[i].opcode.unit().map_or(4, |u| u as usize);
    for queue in queues.iter_mut() {
        queue.clear();
    }
    for i in (0..n).filter(|&i| unplaced[i] == 0) {
        queues[queue_of(i)].push(key(i, 0, scheduled, cycle_of));
    }
    let mut exit_placed = false;

    while done < n {
        // Re-key the queues after a cycle that placed an exit.
        if std::mem::take(&mut exit_placed) {
            for queue in queues.iter_mut() {
                let mut keys = std::mem::take(queue).into_vec();
                for k in &mut keys {
                    let Reverse((_, _, i)) = *k;
                    *k = key(i, cycle, scheduled, cycle_of);
                }
                *queue = BinaryHeap::from(keys);
            }
        }
        // Release the ops that became ready by this cycle.
        while let Some(&Reverse((t, j))) = events.peek() {
            if t > cycle {
                break;
            }
            events.pop();
            queues[queue_of(j)].push(key(j, cycle, scheduled, cycle_of));
        }

        bundle.clear();
        // Per-unit instances left this cycle, the unit-less queue last.
        // ALU instances are those free at the start of this cycle;
        // occupancy marked during packing only affects later cycles.
        let mut free = [
            alu_busy.iter().filter(|&&b| b <= cycle).count(),
            mdes.unit_count(Unit::Lsu),
            mdes.unit_count(Unit::Cmpu),
            mdes.unit_count(Unit::Bru),
            usize::MAX,
        ];
        let mut port_ops = 0usize;
        let mut branch_in_bundle = false;
        rejected.clear();

        // Pack the best candidate that fits until the bundle is full or
        // no candidate is left. Every fit test below only tightens as the
        // bundle fills, so a candidate rejected once stays rejected this
        // cycle and waits for the next one; so does every candidate of a
        // unit with no instance left, without being looked at. Accepting
        // an op can make its zero-latency successors ready within the
        // same cycle.
        while bundle.len() < issue_width {
            let best = (0..queues.len())
                .filter(|&q| free[q] > 0)
                .filter_map(|q| queues[q].peek().map(|k| (k, q)))
                .max()
                .map(|(_, q)| q);
            let Some(q) = best else {
                break;
            };
            let candidate = queues[q].pop().expect("peeked");
            let Reverse((_, _, i)) = candidate;
            let op = ops[i];
            let is_ctl = op.opcode.is_branch() || op.opcode == Opcode::Halt;
            let cost = mdes.op_port_cost(op);
            // An op over the budget on its own fits only a bundle with
            // no port operations yet, and then nothing else does.
            if (is_ctl && branch_in_bundle) || port_ops + cost > port_budget.max(cost) {
                rejected.push((q, candidate));
                continue;
            }
            port_ops += cost;
            free[q] -= 1;
            if is_ctl {
                branch_in_bundle = true;
            }
            exit_placed |= is_exit[i];
            bundle.push(i);
            scheduled[i] = true;
            cycle_of[i] = cycle; // final; the bundle-close loop only assigns slots
            done += 1;
            let occupancy = mdes.occupancy(op.opcode);
            if op.opcode.unit() == Some(Unit::Alu) && occupancy > 1 {
                if let Some(slot) = alu_busy.iter_mut().find(|b| **b <= cycle) {
                    *slot = cycle + occupancy;
                }
            }
            for e in dag.succs(i) {
                let to = e.to;
                ready_at[to] = ready_at[to].max(cycle + e.latency);
                unplaced[to] -= 1;
                if unplaced[to] > 0 {
                    continue;
                }
                if ready_at[to] == cycle {
                    queues[queue_of(to)].push(key(to, cycle, scheduled, cycle_of));
                } else {
                    events.push(Reverse((ready_at[to], to)));
                }
            }
        }
        for &(q, candidate) in rejected.iter() {
            queues[q].push(candidate);
        }

        if !bundle.is_empty() {
            // Control transfers go last in the bundle (stable, so
            // blocks without side exits keep their historical order):
            // the verifier's VER009 treats any op after a branch slot
            // as dead, and a hoisted op sharing a side exit's cycle
            // must sit before it.
            bundle.sort_by_key(|&i| ops[i].opcode.is_branch() || ops[i].opcode == Opcode::Halt);
            for (slot, &i) in bundle.iter().enumerate() {
                slot_of[i] = (bundles.len(), slot);
                origin.push(i as u32);
            }
            let packed: Vec<MOp> = bundle.iter().map(|&i| ops[i].clone()).collect();
            // The ports accumulated during packing are the shared static
            // cost model's.
            debug_assert_eq!(mdes.bundle_cost(&packed).port_ops, port_ops);
            meta.push(BundleMeta { cycle });
            bundles.push(packed);
        }
        cycle += 1;
    }

    // Any word load that crossed a side exit (scheduled at or before the
    // exit's cycle despite following it in program order) executes
    // speculatively on the exit path: rewrite it to the dismissible LWS,
    // which returns 0 instead of faulting (HPL-PD's recovery-free
    // speculation; the paper's ISA carries LWS for exactly this).
    for exit in exits {
        for i in exit.op + 1..n {
            if ops[i].opcode == Opcode::Lw && cycle_of[i] <= cycle_of[exit.op] {
                let (b, s) = slot_of[i];
                bundles[b][s].opcode = Opcode::LwS;
            }
        }
    }
    (bundles, meta, origin)
}

fn access_size(opcode: Opcode) -> u32 {
    match opcode {
        Opcode::Lw | Opcode::LwS | Opcode::Sw => 4,
        Opcode::Lh | Opcode::Lhu | Opcode::Sh => 2,
        _ => 1,
    }
}

/// Whether two accesses touch disjoint bytes through the same base and
/// version (different bases may alias).
fn provably_disjoint(a: &MemRef, b: &MemRef) -> bool {
    let (Some((base_a, lo_a, hi_a)), Some((base_b, lo_b, hi_b))) = (a.bytes(), b.bytes()) else {
        return false;
    };
    base_a == base_b && (hi_a <= lo_b || hi_b <= lo_a)
}

/// Converts a scheduled [`MOp`] with physical operands into a real
/// [`Instruction`] — used by emission ([`crate::emit::write_op`]) and by
/// translation validation's emission check (TV009). Label operands must
/// already be resolved.
///
/// # Panics
///
/// Panics on unresolved labels or virtual operands.
#[must_use]
pub fn to_instruction(op: &MOp) -> Instruction {
    use epic_isa::{Btr, Dest, Gpr, Operand, PredReg};
    let dest1 = match op.dest1 {
        crate::mir::MDest::None => {
            if let Some(v) = op.store_value {
                Dest::Gpr(Gpr(v as u16))
            } else {
                Dest::None
            }
        }
        crate::mir::MDest::Gpr(r) => Dest::Gpr(Gpr(r as u16)),
        crate::mir::MDest::Pred(p) => Dest::Pred(PredReg(p as u16)),
        crate::mir::MDest::Btr(b) => Dest::Btr(Btr(b)),
    };
    let dest2 = match op.dest2 {
        crate::mir::MDest::None => {
            if matches!(op.opcode, Opcode::Cmp(_)) {
                Dest::Pred(PredReg(0))
            } else {
                Dest::None
            }
        }
        crate::mir::MDest::Gpr(r) => Dest::Gpr(Gpr(r as u16)),
        crate::mir::MDest::Pred(p) => Dest::Pred(PredReg(p as u16)),
        crate::mir::MDest::Btr(b) => Dest::Btr(Btr(b)),
    };
    let conv_src = |src: &MSrc| match src {
        MSrc::None => Operand::None,
        MSrc::Gpr(r) => Operand::Gpr(Gpr(*r as u16)),
        MSrc::Lit(v) => Operand::Lit(*v),
        MSrc::Pred(p) => Operand::Pred(PredReg(*p as u16)),
        MSrc::Btr(b) => Operand::Btr(Btr(*b)),
        MSrc::Label(l) => panic!("unresolved label @{l}"),
    };
    Instruction {
        opcode: op.opcode,
        dest1,
        dest2,
        src1: conv_src(&op.src1),
        src2: conv_src(&op.src2),
        pred: PredReg(op.guard as u16),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mir::{MDest, MSrc};
    use epic_config::Config;

    fn add(d: u32, a: u32, b: u32) -> MOp {
        let mut op = MOp::bare(Opcode::Add);
        op.dest1 = MDest::Gpr(d);
        op.src1 = MSrc::Gpr(a);
        op.src2 = MSrc::Gpr(b);
        op
    }

    fn mdes(alus: usize) -> MachineDescription {
        MachineDescription::new(&Config::builder().num_alus(alus).build().unwrap())
    }

    #[test]
    fn independent_ops_pack_into_one_bundle() {
        let ops = vec![add(10, 11, 12), add(13, 14, 15)];
        let bundles = schedule_block(&ops, &mdes(4));
        assert_eq!(bundles.len(), 1);
        assert_eq!(bundles[0].len(), 2);
    }

    #[test]
    fn raw_dependence_serialises() {
        let ops = vec![add(10, 11, 12), add(13, 10, 10)];
        let bundles = schedule_block(&ops, &mdes(4));
        assert_eq!(bundles.len(), 2);
    }

    #[test]
    fn single_alu_serialises_independent_ops() {
        let ops = vec![add(10, 11, 12), add(13, 14, 15), add(16, 17, 18)];
        let bundles = schedule_block(&ops, &mdes(1));
        assert_eq!(bundles.len(), 3);
    }

    #[test]
    fn port_budget_limits_bundle_width() {
        // Four adds with register-register operands cost 3 ports each;
        // the default budget of 8 admits only two per cycle.
        let ops = vec![
            add(10, 11, 12),
            add(13, 14, 15),
            add(16, 17, 18),
            add(19, 20, 21),
        ];
        let bundles = schedule_block(&ops, &mdes(4));
        assert_eq!(bundles.len(), 2);
        assert!(bundles.iter().all(|b| b.len() == 2));
    }

    #[test]
    fn an_op_over_the_port_budget_issues_alone() {
        // Two ports a cycle: each three-port add needs a bundle of its
        // own (the controller serialises it), and the two-port move
        // cannot share one with it.
        let config = Config::builder()
            .num_alus(4)
            .regfile_ops_per_cycle(2)
            .build()
            .unwrap();
        let mut mov = MOp::bare(Opcode::Move);
        mov.dest1 = MDest::Gpr(20);
        mov.src1 = MSrc::Gpr(21);
        let ops = vec![add(10, 11, 12), add(13, 14, 15), mov];
        let bundles = schedule_block(&ops, &MachineDescription::new(&config));
        assert_eq!(bundles.len(), 3);
        assert!(bundles.iter().all(|b| b.len() == 1));
    }

    #[test]
    fn divider_blocks_one_alu_instance() {
        let config = Config::builder()
            .num_alus(2)
            .div_latency(4)
            .build()
            .unwrap();
        let m = MachineDescription::new(&config);
        let mut div = MOp::bare(Opcode::Div);
        div.dest1 = MDest::Gpr(10);
        div.src1 = MSrc::Gpr(11);
        div.src2 = MSrc::Gpr(12);
        // div occupies one ALU for 4 cycles; the adds must share the
        // other instance, one per cycle.
        let ops = vec![div, add(13, 14, 15), add(16, 17, 18), add(19, 20, 21)];
        let bundles = schedule_block(&ops, &m);
        // cycle0: div+add, cycle1: add, cycle2: add
        assert_eq!(bundles.len(), 3);
        assert_eq!(bundles[0].len(), 2);
    }

    #[test]
    fn load_latency_gaps_consumer() {
        let config = Config::builder().load_latency(3).build().unwrap();
        let m = MachineDescription::new(&config);
        let mut lw = MOp::bare(Opcode::Lw);
        lw.dest1 = MDest::Gpr(10);
        lw.src1 = MSrc::Gpr(11);
        lw.src2 = MSrc::Lit(0);
        let use_it = add(12, 10, 10);
        let bundles = schedule_block(&[lw, use_it], &m);
        // load at cycle 0, consumer at cycle 3; empty cycles produce no
        // bundles, so exactly two bundles — but separated in the cycle
        // numbering (checked indirectly by count).
        assert_eq!(bundles.len(), 2);
    }

    #[test]
    fn stores_to_distinct_offsets_reorder_loads_do_not_alias() {
        let mut s1 = MOp::bare(Opcode::Sw);
        s1.store_value = Some(10);
        s1.src1 = MSrc::Gpr(20);
        s1.src2 = MSrc::Lit(0);
        let mut s2 = MOp::bare(Opcode::Sw);
        s2.store_value = Some(11);
        s2.src1 = MSrc::Gpr(20);
        s2.src2 = MSrc::Lit(4);
        // Disjoint same-base stores can share a cycle? No — one LSU. But
        // they need no ordering edge, so they still take one cycle each in
        // either order; with an aliasing pair it would ALSO be 2 cycles.
        // Distinguish via a load instead:
        let mut l = MOp::bare(Opcode::Lw);
        l.dest1 = MDest::Gpr(12);
        l.src1 = MSrc::Gpr(20);
        l.src2 = MSrc::Lit(8);
        // store @0, load @8: independent; the load may go first.
        let bundles = schedule_block(&[s1.clone(), l.clone()], &mdes(4));
        assert_eq!(bundles.len(), 2, "one LSU serialises, but no dependence");
        // store @0, load @0: dependent; order preserved.
        let mut l0 = l.clone();
        l0.src2 = MSrc::Lit(0);
        let bundles = schedule_block(&[s1.clone(), l0], &mdes(4));
        assert_eq!(bundles.len(), 2);
        let first = &bundles[0][0];
        assert!(
            first.opcode.is_store(),
            "aliasing load must stay after store"
        );
        let _ = s2;
    }

    fn store(base: u32, offset: i64, value: u32) -> MOp {
        let mut op = MOp::bare(Opcode::Sw);
        op.store_value = Some(value);
        op.src1 = MSrc::Gpr(base);
        op.src2 = MSrc::Lit(offset);
        op
    }

    fn load(dest: u32, base: u32, offset: MSrc) -> MOp {
        let mut op = MOp::bare(Opcode::Lw);
        op.dest1 = MDest::Gpr(dest);
        op.src1 = MSrc::Gpr(base);
        op.src2 = offset;
        op
    }

    #[test]
    fn same_base_disjoint_offset_load_hoists_above_store() {
        // store [r20+0]; load [r20+4] feeding a two-add chain. The
        // accesses are provably disjoint, so the critical-path load
        // issues first — the positive disambiguation case.
        let ops = vec![
            store(20, 0, 10),
            load(12, 20, MSrc::Lit(4)),
            add(13, 12, 12),
            add(14, 13, 13),
        ];
        let bundles = schedule_block(&ops, &mdes(4));
        assert!(
            bundles[0][0].opcode.is_load(),
            "disjoint load should lead: {bundles:?}"
        );
    }

    #[test]
    fn different_bases_stay_conservative_even_when_values_match() {
        // r20 and r21 may well hold the same address at run time; the
        // scheduler cannot prove otherwise from register names, so the
        // load must stay behind the store despite its longer path.
        let ops = vec![
            store(20, 0, 10),
            load(12, 21, MSrc::Lit(0)),
            add(13, 12, 12),
            add(14, 13, 13),
        ];
        let bundles = schedule_block(&ops, &mdes(4));
        assert!(
            bundles[0][0].opcode.is_store(),
            "different-base load must not reorder: {bundles:?}"
        );
    }

    #[test]
    fn partially_overlapping_ranges_stay_ordered() {
        // Word store at [r20+0] covers bytes 0..4; a halfword load at
        // [r20+2] overlaps it, so the interval arithmetic must keep the
        // order even though the offsets differ.
        let mut lh = load(12, 20, MSrc::Lit(2));
        lh.opcode = Opcode::Lh;
        let ops = vec![store(20, 0, 10), lh, add(13, 12, 12), add(14, 13, 13)];
        let bundles = schedule_block(&ops, &mdes(4));
        assert!(
            bundles[0][0].opcode.is_store(),
            "overlapping halfword must not reorder: {bundles:?}"
        );
    }

    #[test]
    fn register_offset_defeats_disambiguation() {
        // A register offset has no compile-time value: even with the
        // same base the pair must stay conservative.
        let ops = vec![
            store(20, 0, 10),
            load(12, 20, MSrc::Gpr(22)),
            add(13, 12, 12),
            add(14, 13, 13),
        ];
        let bundles = schedule_block(&ops, &mdes(4));
        assert!(
            bundles[0][0].opcode.is_store(),
            "register-offset load must not reorder: {bundles:?}"
        );
    }

    #[test]
    fn base_redefinition_between_accesses_stays_conservative() {
        // store [r20+0]; r20 changes; load [r20+0]. The equal literal
        // offsets are against *different* base values, so the version
        // tag must block the disjointness proof and keep the order.
        let ops = vec![
            store(20, 0, 10),
            add(20, 20, 20),
            load(12, 20, MSrc::Lit(4)),
            add(13, 12, 12),
            add(14, 13, 13),
        ];
        let bundles = schedule_block(&ops, &mdes(4));
        let store_cycle = bundles
            .iter()
            .position(|b| b.iter().any(|o| o.opcode.is_store()))
            .expect("store scheduled");
        let load_cycle = bundles
            .iter()
            .position(|b| b.iter().any(|o| o.opcode.is_load()))
            .expect("load scheduled");
        assert!(
            store_cycle < load_cycle,
            "redefined-base load must stay after the store: {bundles:?}"
        );
    }

    #[test]
    fn branch_goes_last() {
        let mut br = MOp::bare(Opcode::Br);
        br.src1 = MSrc::Btr(1);
        let ops = vec![add(10, 11, 12), add(13, 14, 15), br];
        let bundles = schedule_block(&ops, &mdes(4));
        let last_bundle = bundles.last().unwrap();
        assert!(last_bundle.iter().any(|o| o.opcode.is_branch()));
        // Nothing may be scheduled after the branch's bundle.
        assert!(bundles
            .iter()
            .take(bundles.len() - 1)
            .all(|b| b.iter().all(|o| !o.opcode.is_branch())));
    }

    #[test]
    fn nothing_floats_above_a_call_boundary() {
        // A BRL followed by restores (the call-expansion shape): the
        // restores must stay after the call in later cycles.
        let mut pbr = MOp::bare(Opcode::Pbr);
        pbr.dest1 = crate::mir::MDest::Btr(0);
        pbr.src1 = MSrc::Lit(5);
        let mut brl = MOp::bare(Opcode::Brl);
        brl.dest1 = crate::mir::MDest::Gpr(61);
        brl.src1 = MSrc::Btr(0);
        let mut restore = MOp::bare(Opcode::Lw);
        restore.dest1 = crate::mir::MDest::Gpr(20);
        restore.src1 = MSrc::Gpr(62);
        restore.src2 = MSrc::Lit(0);
        let bundles = schedule_block(&[pbr, brl, restore.clone()], &mdes(4));
        // Find the bundle containing the BRL and the one containing the LW.
        let brl_at = bundles
            .iter()
            .position(|b| b.iter().any(|o| o.opcode == Opcode::Brl))
            .unwrap();
        let lw_at = bundles
            .iter()
            .position(|b| b.iter().any(|o| o.opcode == Opcode::Lw))
            .unwrap();
        assert!(lw_at > brl_at, "restore must follow the call");
    }

    #[test]
    fn war_allows_same_cycle() {
        // w reads r10; x writes r10 — they may share a bundle (reads see
        // pre-bundle state).
        let reader = add(20, 10, 11);
        let writer = add(10, 12, 13);
        let bundles = schedule_block(&[reader, writer], &mdes(4));
        assert_eq!(bundles.len(), 1);
        assert_eq!(bundles[0].len(), 2);
    }

    #[test]
    fn control_and_memory_edges_grow_linearly_with_the_region() {
        // Straight-line regions that once built quadratic edges, each with
        // the edges per op it may build. A call every fourth op orders
        // against the ops since the previous call, not the whole prefix
        // (n²/8 edges). A load-add-store chain through one base and
        // version, the same chain with the base redefined every
        // statement, and stores alternating between two bases at one
        // offset each order every access after the last store that
        // conflicts with it, not after every earlier conflicting access
        // (n²/2 edges).
        fn call(k: usize) -> MOp {
            let mut brl = MOp::bare(Opcode::Brl);
            brl.dest1 = MDest::Gpr(61);
            brl.src1 = MSrc::Btr(0);
            match k % 4 {
                3 => brl,
                r => add(10 + r as u32, 20, 21),
            }
        }
        fn chain(k: usize) -> MOp {
            match k % 3 {
                0 => load(10, 20, MSrc::Lit(0)),
                1 => add(10, 10, 11),
                _ => store(20, 0, 10),
            }
        }
        fn redefined(k: usize) -> MOp {
            match k % 4 {
                0 => add(20, 20, 12),
                r => chain(r - 1),
            }
        }
        fn alternating(k: usize) -> MOp {
            store(20 + k as u32 % 2, 0, 10)
        }
        let shapes: [(fn(usize) -> MOp, usize); 4] =
            [(call, 3), (chain, 2), (redefined, 3), (alternating, 1)];
        for (shape, per_op) in shapes {
            for n in [1_024, 4_096] {
                let ops: Vec<MOp> = (0..n).map(shape).collect();
                let ops: Vec<&MOp> = ops.iter().collect();
                let mut dag = Dag::default();
                dag.build(&ops, &[], &mdes(2));
                let edges = dag.edges.len();
                assert!(edges <= per_op * n, "{n} ops built {edges} edges");
            }
        }
    }

    /// One op of a random straight-line region from a `(kind, base,
    /// offset)` draw: word, half and byte loads and stores through the
    /// base registers r20–r22 (or, rarely, a literal address) at a
    /// literal offset, or at the register offset r23 when the draw
    /// exceeds 7; base redefinitions; adds; and an occasional call.
    fn region_op((kind, base, offset): (u8, u32, i64)) -> MOp {
        const LOADS: [Opcode; 5] = [Opcode::Lw, Opcode::Lh, Opcode::Lhu, Opcode::Lb, Opcode::Lbu];
        const STORES: [Opcode; 3] = [Opcode::Sw, Opcode::Sh, Opcode::Sb];
        let base_reg = 20 + base;
        let offset = if offset > 7 {
            MSrc::Gpr(23)
        } else {
            MSrc::Lit(offset)
        };
        match kind {
            0..=4 => {
                let mut op = load(10 + base, base_reg, offset);
                op.opcode = LOADS[usize::from(kind)];
                op
            }
            5..=9 => {
                let mut op = store(base_reg, 0, 10 + base);
                op.opcode = STORES[usize::from(kind) % 3];
                op.src2 = offset;
                op
            }
            10 | 11 => add(base_reg, base_reg, 23),
            12 => {
                let mut op = store(base_reg, 0, 11);
                op.src1 = MSrc::Lit(256);
                op
            }
            13 => {
                let mut brl = MOp::bare(Opcode::Brl);
                brl.dest1 = MDest::Gpr(61);
                brl.src1 = MSrc::Btr(0);
                brl
            }
            _ => add(10 + base, 10 + base, 11),
        }
    }

    /// Whether the accesses `a` and `b` (`a` earlier) may touch a common
    /// byte with at least one of them a store, judged pairwise from
    /// first principles: `version[i]` is the number of writes to op
    /// `i`'s base register before it.
    fn conflict(ops: &[MOp], version: &[u32], a: usize, b: usize) -> bool {
        let access = |i: usize| {
            let op = &ops[i];
            let base = op.src1.gpr().map(|r| (r, version[i]));
            let offset = match op.src2 {
                MSrc::Lit(v) => Some(v),
                _ => None,
            };
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

    /// Each op's base version: the writes to its `src1` register before
    /// it.
    fn base_versions(ops: &[MOp]) -> Vec<u32> {
        let mut writes = HashMap::new();
        ops.iter()
            .map(|op| {
                let version = op
                    .src1
                    .gpr()
                    .map_or(0, |r| writes.get(&r).copied().unwrap_or(0));
                if let Some(d) = op.gpr_def() {
                    *writes.entry(d).or_insert(0) += 1;
                }
                version
            })
            .collect()
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig { cases: 64, ..Default::default() })]

        #[test]
        fn every_conflicting_pair_keeps_a_path(
            draws in proptest::collection::vec((0u8..20, 0u32..3, -2i64..10), 64..=256),
            bases in 2u32..=3,
        ) {
            let ops: Vec<MOp> = draws
                .into_iter()
                .map(|(kind, base, offset)| region_op((kind, base % bases, offset)))
                .collect();
            let refs: Vec<&MOp> = ops.iter().collect();
            let mut dag = Dag::default();
            dag.build(&refs, &[], &mdes(2));
            let version = base_versions(&ops);
            let is_mem = |i: usize| ops[i].opcode.is_load() || ops[i].opcode.is_store();
            for a in (0..ops.len()).filter(|&a| is_mem(a)) {
                // Everything `a` reaches in the DAG.
                let mut reached = vec![false; ops.len()];
                let mut stack = vec![a];
                while let Some(i) = stack.pop() {
                    for e in dag.succs(i) {
                        if !std::mem::replace(&mut reached[e.to], true) {
                            stack.push(e.to);
                        }
                    }
                }
                for b in (a + 1..ops.len()).filter(|&b| is_mem(b)) {
                    proptest::prop_assert!(
                        reached[b] || !conflict(&ops, &version, a, b),
                        "no path from {a} `{}` to {b} `{}`",
                        ops[a],
                        ops[b]
                    );
                }
            }
        }
    }

    #[test]
    fn waw_requires_separate_cycles() {
        let first = add(10, 11, 12);
        let second = add(10, 13, 14);
        let bundles = schedule_block(&[first, second], &mdes(4));
        assert_eq!(bundles.len(), 2);
        // Program order of the writes is preserved.
        assert!(matches!(bundles[0][0].src1, MSrc::Gpr(11)));
    }
}
