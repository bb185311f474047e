//! Convex MISO subgraph enumeration over compiled bundles.
//!
//! Mining works on the *final* program — the bundles a simulator
//! executes — so every candidate reflects what instruction selection,
//! literal folding and scheduling actually produced, not what the source
//! IR looked like. Blocks come from the shared
//! [`epic_mdes::cfg::Cfg`]; dataflow links respect the bundle execution
//! contract (all reads of a bundle see pre-bundle state).

use epic_config::{ExprTree, FusedOp};
use epic_isa::{Instruction, Opcode, Operand};
use epic_mdes::cfg::Cfg;
use std::collections::{BTreeMap, BTreeSet};

/// Tuning knobs for the miner.
#[derive(Debug, Clone, Copy)]
pub struct MinerOptions {
    /// Maximum interior nodes per candidate (fused datapath size cap).
    pub max_nodes: usize,
}

impl Default for MinerOptions {
    fn default() -> Self {
        // Large enough for SHA-256's Σ functions (three expanded rotates
        // plus two xors = 14 operations) with a little headroom.
        MinerOptions { max_nodes: 16 }
    }
}

/// One place a candidate was found.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Site {
    /// Leader bundle address of the containing basic block.
    pub block: u32,
    /// Bundle address of the subgraph root (the live-out definition).
    pub root_pc: u32,
    /// Slot of the root within its bundle.
    pub root_slot: usize,
}

/// A deduplicated candidate: one canonical expression tree plus every
/// site it matched and the profile weight those sites accumulate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Discovery {
    /// Canonical expression tree (argument indices assigned in
    /// left-to-right first-encounter order).
    pub tree: ExprTree,
    /// Sum over sites of the containing block's execution weight.
    pub weight: u64,
    /// Everywhere the tree matched, in (block, pc, slot) order.
    pub sites: Vec<Site>,
}

impl Discovery {
    /// Distinct live-in registers (the tree's argument count).
    #[must_use]
    pub fn live_ins(&self) -> u32 {
        u32::from(self.tree.uses_arg(0)) + u32::from(self.tree.uses_arg(1))
    }
}

/// The ALU-class operators a fused datapath may absorb.
///
/// Divides are excluded (iterative, blocking), as are moves and long
/// literals (their values enter trees as live-ins or literals), and
/// everything outside the ALU class.
fn fused_op_of(opcode: Opcode) -> Option<FusedOp> {
    Some(match opcode {
        Opcode::Add => FusedOp::Add,
        Opcode::Sub => FusedOp::Sub,
        Opcode::Mull => FusedOp::Mull,
        Opcode::And => FusedOp::And,
        Opcode::Or => FusedOp::Or,
        Opcode::Xor => FusedOp::Xor,
        Opcode::Shl => FusedOp::Shl,
        Opcode::Shr => FusedOp::Shr,
        Opcode::Shra => FusedOp::Shra,
        Opcode::Min => FusedOp::Min,
        Opcode::Max => FusedOp::Max,
        Opcode::Abs => FusedOp::Abs,
        Opcode::Sxtb => FusedOp::Sxtb,
        Opcode::Sxth => FusedOp::Sxth,
        Opcode::Zxtb => FusedOp::Zxtb,
        Opcode::Zxth => FusedOp::Zxth,
        _ => return None,
    })
}

/// One operand of a block-local operation, with its dataflow link.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SrcLink {
    /// A literal operand.
    Lit(u32),
    /// A register read: the last in-block definition event before this
    /// op's bundle (`None` = block live-in), and whether that link is
    /// *precise* — a single unambiguous producer this op always reads
    /// when it executes.
    Gpr {
        reg: u16,
        def: Option<usize>,
        precise: bool,
    },
    /// Anything else (predicate/BTR operands) — never fusable.
    Other,
}

/// One operation of a block, in issue order.
#[derive(Debug, Clone)]
struct OpInfo {
    pc: u32,
    slot: usize,
    opcode: Opcode,
    guard: u16,
    dest: Option<u16>,
    srcs: [SrcLink; 2],
}

struct BlockDfg {
    leader: u32,
    ops: Vec<OpInfo>,
    /// op index -> indices of ops whose reads link to it.
    uses: BTreeMap<usize, Vec<usize>>,
    /// Per register: definition events in order (op index, guarded?).
    def_events: BTreeMap<u16, Vec<(usize, bool)>>,
    /// Per predicate: op indices that write it.
    pred_writes: BTreeMap<u16, Vec<usize>>,
    /// Registers read before any in-block definition.
    gen: BTreeSet<u16>,
    /// Registers with at least one unguarded in-block definition.
    kill: BTreeSet<u16>,
    /// Successor block leaders.
    succs: Vec<u32>,
}

fn build_dfg(cfg: &Cfg, bundles: &[Vec<Instruction>], leader: usize, end: usize) -> BlockDfg {
    let mut ops = Vec::new();
    let mut uses: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
    let mut def_events: BTreeMap<u16, Vec<(usize, bool)>> = BTreeMap::new();
    let mut pred_writes: BTreeMap<u16, Vec<usize>> = BTreeMap::new();
    let mut gen = BTreeSet::new();
    let mut kill = BTreeSet::new();

    // Last definition event per register, with a precision flag: precise
    // links name a single producer; a guarded definition layered over an
    // older value leaves readers seeing either, so links to it are only
    // precise for readers under the same guard.
    #[derive(Clone, Copy)]
    struct DefState {
        op: usize,
        guard: u16,
    }
    let mut last_def: BTreeMap<u16, DefState> = BTreeMap::new();

    for (pc, bundle) in bundles.iter().enumerate().take(end).skip(leader) {
        let bundle_start = ops.len();
        for (slot, instr) in bundle.iter().enumerate() {
            if instr.opcode == Opcode::Nop {
                continue;
            }
            let index = ops.len();
            for r in instr.gpr_reads() {
                let state = last_def.get(&r.0);
                let def = state.map(|s| s.op);
                if let Some(d) = def {
                    uses.entry(d).or_default().push(index);
                } else {
                    gen.insert(r.0);
                }
            }
            let link = |operand: &Operand| match operand {
                Operand::Gpr(r) => {
                    let state = last_def.get(&r.0);
                    SrcLink::Gpr {
                        reg: r.0,
                        def: state.map(|s| s.op),
                        precise: state.is_some_and(|s| s.guard == 0 || s.guard == instr.pred.0),
                    }
                }
                Operand::Lit(v) => SrcLink::Lit(*v as u32),
                Operand::None => SrcLink::Lit(0),
                _ => SrcLink::Other,
            };
            ops.push(OpInfo {
                pc: pc as u32,
                slot,
                opcode: instr.opcode,
                guard: instr.pred.0,
                dest: instr.gpr_write().map(|r| r.0),
                srcs: [link(&instr.src1), link(&instr.src2)],
            });
            for p in instr.pred_writes() {
                pred_writes.entry(p.0).or_default().push(index);
            }
        }
        // Writes land after the bundle: later bundles see them.
        for (offset, op) in ops[bundle_start..].iter().enumerate() {
            let index = bundle_start + offset;
            if let Some(r) = op.dest {
                let guarded = op.guard != 0;
                def_events.entry(r).or_default().push((index, guarded));
                last_def.insert(
                    r,
                    DefState {
                        op: index,
                        guard: op.guard,
                    },
                );
                if !guarded {
                    kill.insert(r);
                }
            }
        }
    }

    let succs = cfg
        .succs(end - 1)
        .iter()
        .map(|e| e.to as u32)
        .collect::<BTreeSet<_>>()
        .into_iter()
        .collect();

    BlockDfg {
        leader: leader as u32,
        ops,
        uses,
        def_events,
        pred_writes,
        gen,
        kill,
        succs,
    }
}

/// Backward liveness over the block graph at register granularity.
///
/// Guarded definitions do not kill (the old value flows through a false
/// guard) — conservative, only ever suppressing candidates. Register
/// state at `HALT` is *not* observable: workloads publish results
/// through memory, and stores never join a cone, so the memory image is
/// preserved exactly. The successor relation comes from the shared
/// over-approximate [`Cfg`], which already routes unknown branch-target
/// registers to every possible return point.
fn live_out_sets(dfgs: &[BlockDfg]) -> Vec<BTreeSet<u16>> {
    let index_of: BTreeMap<u32, usize> = dfgs
        .iter()
        .enumerate()
        .map(|(i, d)| (d.leader, i))
        .collect();
    let mut live_in: Vec<BTreeSet<u16>> = dfgs.iter().map(|d| d.gen.clone()).collect();
    let mut live_out: Vec<BTreeSet<u16>> = vec![BTreeSet::new(); dfgs.len()];
    loop {
        let mut changed = false;
        for i in (0..dfgs.len()).rev() {
            let mut out = BTreeSet::new();
            for s in &dfgs[i].succs {
                if let Some(&j) = index_of.get(s) {
                    out.extend(live_in[j].iter().copied());
                }
            }
            if out != live_out[i] {
                live_out[i] = out;
                changed = true;
            }
            let mut inn: BTreeSet<u16> = live_out[i].difference(&dfgs[i].kill).copied().collect();
            inn.extend(dfgs[i].gen.iter().copied());
            if inn != live_in[i] {
                live_in[i] = inn;
                changed = true;
            }
        }
        if !changed {
            return live_out;
        }
    }
}

/// Mines convex MISO candidates from a compiled program.
///
/// `weights` maps block-leader bundle addresses to execution counts (a
/// training profile); blocks absent from the map weigh 1, so an empty
/// map degrades to static (unweighted) mining. Results are sorted by
/// canonical tree text — byte-identical across runs regardless of how
/// the caller parallelises, matching the sweep discipline.
#[must_use]
pub fn mine(
    config: &epic_config::Config,
    bundles: &[Vec<Instruction>],
    entry: u32,
    weights: &BTreeMap<u32, u64>,
    options: &MinerOptions,
) -> Vec<Discovery> {
    let cfg = Cfg::build(config, bundles);
    let dfgs: Vec<BlockDfg> = (cfg.basic_blocks(bundles, entry as usize).into_iter())
        .map(|block| build_dfg(&cfg, bundles, block.start, block.end))
        .collect();
    let live_out = live_out_sets(&dfgs);

    let mut found: BTreeMap<String, Discovery> = BTreeMap::new();
    for (dfg, live) in dfgs.iter().zip(&live_out) {
        let weight = weights.get(&dfg.leader).copied().unwrap_or(1);
        for root in 0..dfg.ops.len() {
            let Some(candidate) = grow_cone(dfg, live, root, options) else {
                continue;
            };
            let site = Site {
                block: dfg.leader,
                root_pc: dfg.ops[root].pc,
                root_slot: dfg.ops[root].slot,
            };
            let entry = found
                .entry(candidate.to_string())
                .or_insert_with(|| Discovery {
                    tree: candidate,
                    weight: 0,
                    sites: Vec::new(),
                });
            entry.weight += weight;
            entry.sites.push(site);
        }
    }
    found.into_values().collect()
}

/// Grows the maximal legal cone rooted at `root` and canonicalises it.
///
/// Absorption invariant: a producer joins the cone only when its
/// definition is read exactly once — by a cone member — and cannot
/// escape the block, so cone results never leave through any node but
/// the root, which makes the subgraph convex by construction (and the
/// cone's dataflow a tree, so canonicalisation never duplicates
/// subexpressions).
fn grow_cone(
    dfg: &BlockDfg,
    live_out: &BTreeSet<u16>,
    root: usize,
    options: &MinerOptions,
) -> Option<ExprTree> {
    let root_op = &dfg.ops[root];
    fused_op_of(root_op.opcode)?;
    root_op.dest?;
    let guard = root_op.guard;

    let mut cone: BTreeSet<usize> = BTreeSet::new();
    cone.insert(root);
    loop {
        let mut absorbed = false;
        // Deterministic pass: producers in ascending op order.
        let producers: BTreeSet<usize> = cone
            .iter()
            .flat_map(|&i| dfg.ops[i].srcs.iter())
            .filter_map(|s| match s {
                SrcLink::Gpr {
                    def: Some(d),
                    precise: true,
                    ..
                } => Some(*d),
                _ => None,
            })
            .filter(|d| !cone.contains(d))
            .collect();
        for p in producers {
            if cone.len() >= options.max_nodes {
                break;
            }
            if !absorbable(dfg, live_out, &cone, p, guard) {
                continue;
            }
            let mut trial = cone.clone();
            trial.insert(p);
            if count_live_ins(dfg, &trial) <= 2 {
                cone = trial;
                absorbed = true;
            }
        }
        if !absorbed {
            break;
        }
    }

    if cone.len() < 2 {
        return None;
    }
    // Guard stability: when the cone is predicated, its guard must not be
    // rewritten between the first member and the root.
    if guard != 0 {
        let first = *cone.iter().next().unwrap();
        if dfg
            .pred_writes
            .get(&guard)
            .is_some_and(|ws| ws.iter().any(|&w| w >= first && w < root))
        {
            return None;
        }
    }
    // Live-in stability: each live-in read must see the same definition
    // the fused op would read at the root's position.
    for &i in &cone {
        for src in &dfg.ops[i].srcs {
            if let SrcLink::Gpr { reg, def, .. } = src {
                let in_cone = def.is_some_and(|d| cone.contains(&d));
                if !in_cone && def_before(dfg, root, *reg) != *def {
                    return None;
                }
            }
        }
    }
    let mut args: Vec<(u16, Option<usize>)> = Vec::new();
    let tree = canonicalise(dfg, &cone, root, &mut args)?;
    if tree.node_count() < 2 || args.is_empty() || args.len() > 2 {
        return None;
    }
    Some(tree)
}

/// Whether producer `p` may join `cone` (budget checks aside).
fn absorbable(
    dfg: &BlockDfg,
    live_out: &BTreeSet<u16>,
    cone: &BTreeSet<usize>,
    p: usize,
    guard: u16,
) -> bool {
    let op = &dfg.ops[p];
    if fused_op_of(op.opcode).is_none() || op.guard != guard {
        return false;
    }
    let Some(dest) = op.dest else {
        return false;
    };
    // p's definition must be read exactly once, by a cone member. The
    // single-read requirement (rather than all-readers-in-cone) keeps
    // the cone's dataflow a literal tree: a shared producer would have
    // to be duplicated per reader when the DAG is canonicalised as an
    // [`ExprTree`], which both blows the expression up exponentially on
    // reconvergent chains and produces candidates the compiler's fuse
    // matcher (which only absorbs single-use temporaries) can never
    // rewrite anyway.
    match dfg.uses.get(&p) {
        Some(links) if links.len() == 1 && cone.contains(&links[0]) => {}
        _ => return false,
    }
    // The definition must not survive to the block end while live: it may
    // reach the end unless some later unguarded definition overwrites it.
    let overwritten = dfg
        .def_events
        .get(&dest)
        .is_some_and(|evs| evs.iter().any(|&(i, guarded)| i > p && !guarded));
    if !overwritten && live_out.contains(&dest) {
        return false;
    }
    true
}

/// Distinct live-in values read by the cone (literals are free).
fn count_live_ins(dfg: &BlockDfg, cone: &BTreeSet<usize>) -> usize {
    let mut ins: BTreeSet<(u16, Option<usize>)> = BTreeSet::new();
    for &i in cone {
        for src in &dfg.ops[i].srcs {
            if let SrcLink::Gpr { reg, def, .. } = src {
                if !def.is_some_and(|d| cone.contains(&d)) {
                    ins.insert((*reg, *def));
                }
            }
        }
    }
    ins.len()
}

/// The last definition event of `reg` in a bundle strictly before the
/// bundle of op `at` — the value a read at `at`'s position observes.
fn def_before(dfg: &BlockDfg, at: usize, reg: u16) -> Option<usize> {
    let pc = dfg.ops[at].pc;
    dfg.def_events
        .get(&reg)
        .and_then(|evs| evs.iter().rev().find(|&&(i, _)| dfg.ops[i].pc < pc))
        .map(|&(i, _)| i)
}

/// Builds the canonical tree for `root`, assigning argument indices in
/// left-to-right first-encounter order.
fn canonicalise(
    dfg: &BlockDfg,
    cone: &BTreeSet<usize>,
    at: usize,
    args: &mut Vec<(u16, Option<usize>)>,
) -> Option<ExprTree> {
    let op = &dfg.ops[at];
    let fused = fused_op_of(op.opcode)?;
    let mut operand = |src: &SrcLink| -> Option<ExprTree> {
        match src {
            SrcLink::Lit(v) => Some(ExprTree::Lit(*v)),
            SrcLink::Gpr { reg, def, .. } => {
                if let Some(d) = def {
                    if cone.contains(d) {
                        return canonicalise(dfg, cone, *d, args);
                    }
                }
                let key = (*reg, *def);
                let index = match args.iter().position(|k| *k == key) {
                    Some(i) => i,
                    None => {
                        args.push(key);
                        args.len() - 1
                    }
                };
                u8::try_from(index).ok().map(ExprTree::Arg)
            }
            SrcLink::Other => None,
        }
    };
    let lhs = operand(&op.srcs[0])?;
    if fused.is_unary() {
        Some(ExprTree::Unary(fused, Box::new(lhs)))
    } else {
        let rhs = operand(&op.srcs[1])?;
        Some(ExprTree::Binary(fused, Box::new(lhs), Box::new(rhs)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use epic_asm::assemble;
    use epic_config::Config;

    fn mined(src: &str) -> Vec<Discovery> {
        let config = Config::default();
        let program = assemble(src, &config).expect("assembles");
        mine(
            &config,
            program.bundles(),
            0,
            &BTreeMap::new(),
            &MinerOptions::default(),
        )
    }

    #[test]
    fn straight_line_chain_fuses_to_one_tree() {
        // r4 = ((r1 >> 7) | (r1 << 25)) — a rotate by 7; the temporaries
        // r2, r3 die inside the cone.
        let src = "\
    SHR r2, r1, #7
;;
    SHL r3, r1, #25
;;
    OR r4, r2, r3
;;
    MOVE r1, r4
;;
    HALT
;;
";
        let found = mined(src);
        assert_eq!(found.len(), 1, "{found:?}");
        assert_eq!(found[0].tree.to_string(), "or(shr(a0,7),shl(a0,25))");
        assert_eq!(found[0].live_ins(), 1);
        assert_eq!(found[0].sites.len(), 1);
        assert_eq!(found[0].tree.node_count(), 3);
    }

    #[test]
    fn escaping_temporary_blocks_absorption() {
        // r2 escapes into a store, which can never join a cone, so the
        // SHR feeding it must stay materialised; the OR cone may still
        // absorb the single-use SHL.
        let src = "\
    SHR r2, r1, #7
;;
    SHL r3, r1, #25
;;
    OR r4, r2, r3
;;
    SW r2, r4, #0
;;
    HALT
;;
";
        let found = mined(src);
        for d in &found {
            assert!(
                !d.tree.to_string().contains("shr"),
                "r2's SHR must not be absorbed: {}",
                d.tree
            );
        }
    }

    #[test]
    fn live_out_temporary_blocks_absorption() {
        // r2 is consumed in the loop body after the backedge target, so
        // it is live out of the defining block.
        let src = "\
top:
    SHR r2, r1, #7
;;
    OR r4, r2, r1
;;
    CMP_EQ p1, p0, r4, #0
;;
    PBR b1, @top
;;
    BRCT b1 (p1)
;;
    ADD r6, r2, r4
;;
    HALT
;;
";
        let found = mined(src);
        for d in &found {
            assert!(
                !d.tree.to_string().contains("shr"),
                "live-out r2 must stay: {}",
                d.tree
            );
        }
    }

    #[test]
    fn three_live_ins_are_rejected() {
        let src = "\
    XOR r4, r1, r2
;;
    XOR r5, r4, r3
;;
    MOVE r1, r5
;;
    HALT
;;
";
        let found = mined(src);
        // The two-op cone would need three live-ins; only single-op
        // "cones" remain, and those are below the two-node minimum.
        assert!(found.is_empty(), "{found:?}");
    }

    #[test]
    fn loads_are_never_absorbed() {
        let src = "\
    LW r2, r1, #0
;;
    ADD r3, r2, #1
;;
    XOR r4, r3, r1
;;
    SW r4, r1, #0
;;
    HALT
;;
";
        let found = mined(src);
        assert_eq!(found.len(), 1, "{found:?}");
        assert_eq!(found[0].tree.to_string(), "xor(add(a0,1),a1)");
    }

    #[test]
    fn duplicate_blocks_merge_by_canonical_tree() {
        // The same computation on different registers in two blocks
        // dedups into one discovery with two sites.
        let src = "\
    SHR r2, r1, #3
;;
    XOR r3, r2, r1
;;
    CMP_EQ p1, p0, r3, #0
;;
    PBR b1, @other
;;
    BRCT b1 (p1)
;;
    MOVE r1, r3
;;
    HALT
;;
other:
    SHR r5, r4, #3
;;
    XOR r6, r5, r4
;;
    MOVE r1, r6
;;
    HALT
;;
";
        let found = mined(src);
        let rot = found
            .iter()
            .find(|d| d.tree.to_string() == "xor(shr(a0,3),a0)")
            .expect("merged discovery");
        assert_eq!(rot.sites.len(), 2);
        assert_eq!(rot.weight, 2, "unweighted blocks weigh 1 each");
    }

    #[test]
    fn weights_accumulate_per_block() {
        let src = "\
    SHR r2, r1, #7
;;
    OR r4, r2, r1
;;
    MOVE r1, r4
;;
    HALT
;;
";
        let config = Config::default();
        let program = assemble(src, &config).expect("assembles");
        let mut weights = BTreeMap::new();
        weights.insert(0u32, 250u64);
        let found = mine(
            &config,
            program.bundles(),
            0,
            &weights,
            &MinerOptions::default(),
        );
        assert_eq!(found.len(), 1);
        assert_eq!(found[0].weight, 250);
    }

    #[test]
    fn mining_is_deterministic() {
        let src = "\
    SHR r2, r1, #7
;;
    SHL r3, r1, #25
;;
    OR r4, r2, r3
;;
    SHR r5, r4, #3
;;
    XOR r6, r5, r4
;;
    MOVE r1, r6
;;
    HALT
;;
";
        let a = format!("{:?}", mined(src));
        let b = format!("{:?}", mined(src));
        assert_eq!(a, b);
    }
}
