//! Location-map refinement check for register allocation.
//!
//! The allocator replaces virtual registers with physical registers and
//! stack slots, inserts reload/spill/save bookkeeping and expands calls.
//! The check runs a symbolic interpretation of each block over *both*
//! versions at once: every value ever produced gets a symbol, a map from
//! virtual registers to symbols tracks the pre program, and maps from
//! physical registers and frame slots to symbols track the post program.
//! A matched instruction pair must read the same symbols (otherwise the
//! allocator routed a wrong or clobbered value to the op — TV003); post
//! instructions the pre program does not contain must be recognisable
//! bookkeeping (reload, spill, save, argument or result move, stack
//! adjust, branch-target preparation — anything else is TV004).
//!
//! The interpretation is per-block and joins nothing across edges: an
//! unknown value on either side unifies leniently, so cross-block facts
//! are never *assumed* — only facts established inside the block can
//! contradict. The entry block is fully precise: every physical register
//! starts with a distinct "junk" symbol except the argument registers,
//! which share symbols with the function parameters, so a lost reload or
//! a clobbered live range contradicts instead of unifying.

use std::collections::HashMap;

use crate::Diagnostic;
use epic_compiler::mir::{MBlock, MDest, MFunction, MInst, MOp, MSrc, MTerm};
use epic_compiler::regalloc::Abi;
use epic_config::Config;
use epic_isa::Opcode;

/// A conditionally written physical register: its raw content is only the
/// new value when `guard` held, so it may not be moved or stored without
/// that guard. `merge_base` is the symbol the guarded write must merge
/// with (the virtual register's previous value).
#[derive(Clone)]
struct Fragile {
    guard: u32,
    merge_base: Option<u64>,
}

/// A virtual register after a guarded definition that did *not* merge
/// in place: under `guard_sym` its value is the fresh symbol, on the
/// complementary path it is still `old`. The allocator may read `old`
/// from wherever it survives, as long as the read is guarded by the
/// complement.
#[derive(Clone)]
struct Merge {
    guard_sym: u64,
    old: u64,
}

/// A physical register holding a hardware-merged value: a store of it
/// guarded by `guard_sym` leaves a slot that already held `old` with
/// the full merged value on both paths.
struct RegMerge {
    guard_sym: u64,
    old: u64,
}

/// A map key a read check created. Read checks only ever insert keys
/// that were absent, so removing these undoes a failed check.
enum Inserted {
    PreGpr(u32),
    PostGpr(u32),
    PrePred(u32),
    PostPred(u32),
}

#[derive(Default)]
struct State {
    counter: u64,
    /// Virtual GPR -> value symbol (pre program).
    pre_gpr: HashMap<u32, u64>,
    /// Physical GPR -> value symbol (post program).
    post_gpr: HashMap<u32, u64>,
    /// Frame byte offset -> value symbol (post program).
    slots: HashMap<i64, u64>,
    /// Virtual / physical predicate -> value symbol.
    pre_pred: HashMap<u32, u64>,
    post_pred: HashMap<u32, u64>,
    fragile: HashMap<u32, Fragile>,
    /// Virtual GPR -> guarded-merge record (pre program).
    merged: HashMap<u32, Merge>,
    /// Physical GPR -> hardware-merge record (post program).
    reg_merge: HashMap<u32, RegMerge>,
    /// Complementary predicate symbol pairs (from compares).
    pred_compl: HashMap<u64, u64>,
    /// Branch-target register -> prepared label.
    prepared: HashMap<u16, String>,
    /// Keys inserted since [`consume_matched`] last started a pair.
    inserted: Vec<Inserted>,
}

impl State {
    fn fresh(&mut self) -> u64 {
        self.counter += 1;
        self.counter
    }

    /// Lenient unification: only fails when both sides already hold
    /// different symbols.
    fn unify_gpr(&mut self, v: u32, p: u32) -> bool {
        match (
            self.pre_gpr.get(&v).copied(),
            self.post_gpr.get(&p).copied(),
        ) {
            (Some(a), Some(b)) => a == b,
            (Some(a), None) => {
                self.post_gpr.insert(p, a);
                self.inserted.push(Inserted::PostGpr(p));
                true
            }
            (None, Some(b)) => {
                self.pre_gpr.insert(v, b);
                self.inserted.push(Inserted::PreGpr(v));
                true
            }
            (None, None) => {
                let s = self.fresh();
                self.pre_gpr.insert(v, s);
                self.post_gpr.insert(p, s);
                self.inserted
                    .extend([Inserted::PreGpr(v), Inserted::PostGpr(p)]);
                true
            }
        }
    }

    fn unify_pred(&mut self, a: u32, b: u32) -> bool {
        if a == 0 || b == 0 {
            return a == b;
        }
        match (
            self.pre_pred.get(&a).copied(),
            self.post_pred.get(&b).copied(),
        ) {
            (Some(x), Some(y)) => x == y,
            (Some(x), None) => {
                self.post_pred.insert(b, x);
                self.inserted.push(Inserted::PostPred(b));
                true
            }
            (None, Some(y)) => {
                self.pre_pred.insert(a, y);
                self.inserted.push(Inserted::PrePred(a));
                true
            }
            (None, None) => {
                let s = self.fresh();
                self.pre_pred.insert(a, s);
                self.post_pred.insert(b, s);
                self.inserted
                    .extend([Inserted::PrePred(a), Inserted::PostPred(b)]);
                true
            }
        }
    }

    fn pre_sym(&mut self, v: u32) -> u64 {
        if let Some(&s) = self.pre_gpr.get(&v) {
            s
        } else {
            let s = self.fresh();
            self.pre_gpr.insert(v, s);
            s
        }
    }

    fn post_sym(&mut self, p: u32) -> u64 {
        if let Some(&s) = self.post_gpr.get(&p) {
            s
        } else {
            let s = self.fresh();
            self.post_gpr.insert(p, s);
            s
        }
    }

    fn slot_sym(&mut self, off: i64) -> u64 {
        if let Some(&s) = self.slots.get(&off) {
            s
        } else {
            let s = self.fresh();
            self.slots.insert(off, s);
            s
        }
    }

    fn post_pred_sym(&mut self, q: u32) -> u64 {
        if let Some(&s) = self.post_pred.get(&q) {
            s
        } else {
            let s = self.fresh();
            self.post_pred.insert(q, s);
            self.inserted.push(Inserted::PostPred(q));
            s
        }
    }

    /// Undoes the read checks of a failed pair: removes the keys they
    /// inserted and restores the symbol counter.
    fn roll_back(&mut self, counter: u64) {
        for key in self.inserted.drain(..) {
            match key {
                Inserted::PreGpr(v) => self.pre_gpr.remove(&v),
                Inserted::PostGpr(p) => self.post_gpr.remove(&p),
                Inserted::PrePred(a) => self.pre_pred.remove(&a),
                Inserted::PostPred(b) => self.post_pred.remove(&b),
            };
        }
        self.counter = counter;
    }

    /// A read of virtual `v` from physical `p` that failed to unify is
    /// still correct when `v` is a guarded merge, the reading op runs
    /// under the complementary guard and `p` holds the pre-merge value.
    fn merge_read_ok(&mut self, v: u32, p: u32, guard: u32) -> bool {
        if guard == 0 {
            return false;
        }
        let Some(m) = self.merged.get(&v).cloned() else {
            return false;
        };
        let gs = self.post_pred_sym(guard);
        self.pred_compl.get(&m.guard_sym) == Some(&gs) && self.post_gpr.get(&p) == Some(&m.old)
    }

    /// Applies a matched definition of virtual `v` in physical `p`.
    fn def_gpr(&mut self, v: u32, p: u32, guard: u32) {
        let old_pre = self.pre_gpr.get(&v).copied();
        let old_post = self.post_gpr.get(&p).copied();
        let s = self.fresh();
        self.pre_gpr.insert(v, s);
        self.post_gpr.insert(p, s);
        self.merged.remove(&v);
        self.reg_merge.remove(&p);
        if guard != 0 {
            let guard_sym = self.post_pred_sym(guard);
            match (old_pre, old_post) {
                (Some(a), Some(b)) if a == b => {
                    // In-place conditional update: the register already
                    // held the virtual register's value, so the hardware
                    // merge is exactly the pre semantics.
                    self.fragile.remove(&p);
                    self.reg_merge.insert(p, RegMerge { guard_sym, old: a });
                }
                (Some(a), _) => {
                    // The old value lives elsewhere (spill slot or other
                    // register): `p` holds junk when the guard is false,
                    // and `v` reads the old value on that path.
                    self.fragile.insert(
                        p,
                        Fragile {
                            guard,
                            merge_base: Some(a),
                        },
                    );
                    self.merged.insert(v, Merge { guard_sym, old: a });
                }
                (None, _) => {
                    self.fragile.remove(&p);
                }
            }
        } else {
            self.fragile.remove(&p);
        }
    }
}

/// Kinds line up for a rewritten op: virtual operands became physical
/// ones, everything else is untouched. `sp` and `link` never appear in
/// rewritten user code (they are reserved), so a post op touching them
/// cannot be the image of a pre op.
fn shape_match(pre: &MOp, post: &MOp, abi: &Abi) -> bool {
    let reserved = |p: u32| p == abi.sp || p == abi.link;
    let dest_ok = |a: &MDest, b: &MDest| match (a, b) {
        (MDest::None, MDest::None) => true,
        (MDest::Gpr(_), MDest::Gpr(p)) => !reserved(*p),
        (MDest::Pred(0), MDest::Pred(0)) => true,
        (MDest::Pred(x), MDest::Pred(y)) => *x != 0 && *y != 0,
        (MDest::Btr(x), MDest::Btr(y)) => x == y,
        _ => false,
    };
    let src_ok = |a: &MSrc, b: &MSrc| match (a, b) {
        (MSrc::None, MSrc::None) => true,
        (MSrc::Gpr(_), MSrc::Gpr(p)) => !reserved(*p),
        (MSrc::Lit(x), MSrc::Lit(y)) => x == y,
        (MSrc::Pred(0), MSrc::Pred(0)) => true,
        (MSrc::Pred(x), MSrc::Pred(y)) => *x != 0 && *y != 0,
        (MSrc::Btr(x), MSrc::Btr(y)) => x == y,
        (MSrc::Label(x), MSrc::Label(y)) => x == y,
        _ => false,
    };
    pre.opcode == post.opcode
        && dest_ok(&pre.dest1, &post.dest1)
        && dest_ok(&pre.dest2, &post.dest2)
        && src_ok(&pre.src1, &post.src1)
        && src_ok(&pre.src2, &post.src2)
        && match (pre.store_value, post.store_value) {
            (None, None) => true,
            (Some(_), Some(p)) => !reserved(p),
            _ => false,
        }
        && (pre.guard == 0) == (post.guard == 0)
}

/// Is `op` an instruction the allocator inserts on its own?
fn bookkeeping_shaped(op: &MOp, abi: &Abi) -> bool {
    match op.opcode {
        Opcode::Move => {
            op.guard == 0
                && matches!(op.dest1, MDest::Gpr(_))
                && matches!(op.src1, MSrc::Gpr(_))
                && op.src2 == MSrc::None
                && op.store_value.is_none()
        }
        Opcode::Lw => {
            op.guard == 0
                && matches!(op.dest1, MDest::Gpr(_))
                && op.src1 == MSrc::Gpr(abi.sp)
                && matches!(op.src2, MSrc::Lit(_))
        }
        Opcode::Sw => {
            op.store_value.is_some()
                && op.dest1 == MDest::None
                && op.src1 == MSrc::Gpr(abi.sp)
                && matches!(op.src2, MSrc::Lit(_))
        }
        Opcode::Add => {
            op.guard == 0
                && op.dest1 == MDest::Gpr(abi.sp)
                && op.src1 == MSrc::Gpr(abi.sp)
                && matches!(op.src2, MSrc::Lit(_))
        }
        Opcode::Pbr => matches!(op.dest1, MDest::Btr(_)) && matches!(op.src1, MSrc::Label(_)),
        _ => false,
    }
}

/// Symbolically unifies the reads of a matched pair, then applies its
/// definitions. Returns a description of the first mismatch, if any;
/// mutates `st` only on success. A failed pair is rolled back through
/// the insertion log: checking a copy of the state instead would clone
/// every map once per matched op, quadratic in the block's size.
fn consume_matched(st: &mut State, pre: &MOp, post: &MOp) -> Result<(), String> {
    st.inserted.clear();
    let counter = st.counter;
    if let Err(e) = unify_reads(st, pre, post) {
        st.roll_back(counter);
        return Err(e);
    }
    apply_defs(st, pre, post);
    Ok(())
}

/// The read half of [`consume_matched`]: every read of `pre` must find
/// its symbol where `post` reads it.
fn unify_reads(st: &mut State, pre: &MOp, post: &MOp) -> Result<(), String> {
    for (a, b) in [(&pre.src1, &post.src1), (&pre.src2, &post.src2)] {
        match (a, b) {
            (MSrc::Gpr(v), MSrc::Gpr(p))
                if !st.unify_gpr(*v, *p) && !st.merge_read_ok(*v, *p, post.guard) =>
            {
                return Err(format!("v{v} does not live in r{p} here"));
            }
            (MSrc::Pred(x), MSrc::Pred(y)) if *x != 0 && !st.unify_pred(*x, *y) => {
                return Err(format!("q{x} does not live in p{y} here"));
            }
            _ => {}
        }
    }
    if let (Some(v), Some(p)) = (pre.store_value, post.store_value) {
        if !st.unify_gpr(v, p) {
            return Err(format!("stored value v{v} does not live in r{p} here"));
        }
    }
    if pre.guard != 0 && !st.unify_pred(pre.guard, post.guard) {
        return Err(format!(
            "guard q{} does not live in p{} here",
            pre.guard, post.guard
        ));
    }
    Ok(())
}

fn apply_defs(st: &mut State, pre: &MOp, post: &MOp) {
    if let (MDest::Gpr(v), MDest::Gpr(p)) = (&pre.dest1, &post.dest1) {
        st.def_gpr(*v, *p, post.guard);
    }
    let mut pair = [None, None];
    for (i, (a, b)) in [(&pre.dest1, &post.dest1), (&pre.dest2, &post.dest2)]
        .into_iter()
        .enumerate()
    {
        if let (MDest::Pred(x), MDest::Pred(y)) = (a, b) {
            if *x != 0 && *y != 0 {
                let s = st.fresh();
                st.pre_pred.insert(*x, s);
                st.post_pred.insert(*y, s);
                pair[i] = Some(s);
            }
        }
    }
    // A compare's two predicate targets are complements by the ISA.
    if matches!(pre.opcode, Opcode::Cmp(_)) {
        if let [Some(s1), Some(s2)] = pair {
            st.pred_compl.insert(s1, s2);
            st.pred_compl.insert(s2, s1);
        }
    }
}

/// Applies a bookkeeping instruction to the post-side state, reporting
/// fragile-value misuse.
fn apply_bookkeeping(st: &mut State, op: &MOp, diags: &mut Vec<Diagnostic>, ctx: &str) {
    match op.opcode {
        Opcode::Move => {
            let (MDest::Gpr(d), MSrc::Gpr(s)) = (&op.dest1, &op.src1) else {
                return;
            };
            if st.fragile.contains_key(s) {
                diags.push(Diagnostic::error(
                    "TV003",
                    format!("{ctx}: conditionally defined r{s} copied without its guard"),
                ));
            }
            let sym = st.post_sym(*s);
            st.post_gpr.insert(*d, sym);
            st.fragile.remove(d);
            st.reg_merge.remove(d);
        }
        Opcode::Lw => {
            let (MDest::Gpr(d), MSrc::Lit(off)) = (&op.dest1, &op.src2) else {
                return;
            };
            let sym = st.slot_sym(*off);
            st.post_gpr.insert(*d, sym);
            st.fragile.remove(d);
            st.reg_merge.remove(d);
        }
        Opcode::Sw => {
            let (Some(v), MSrc::Lit(off)) = (op.store_value, &op.src2) else {
                return;
            };
            let off = *off;
            let fragile = st.fragile.get(&v).cloned();
            if op.guard == 0 {
                if fragile.is_some() {
                    diags.push(Diagnostic::error(
                        "TV003",
                        format!("{ctx}: conditionally defined r{v} stored without its guard"),
                    ));
                }
                let sym = st.post_sym(v);
                st.slots.insert(off, sym);
            } else if let Some(f) = fragile {
                if f.guard != op.guard {
                    diags.push(Diagnostic::error(
                        "TV003",
                        format!(
                            "{ctx}: r{v} was defined under p{} but stored under p{}",
                            f.guard, op.guard
                        ),
                    ));
                }
                if let (Some(base), Some(&slot)) = (f.merge_base, st.slots.get(&off)) {
                    if base != slot {
                        diags.push(Diagnostic::error(
                            "TV003",
                            format!(
                                "{ctx}: guarded spill of r{v} merges into slot {off}, which holds a different value"
                            ),
                        ));
                    }
                }
                let sym = st.post_sym(v);
                st.slots.insert(off, sym);
            } else {
                // A guarded store of a register holding a hardware-merged
                // value into the slot that kept the fall-through half:
                // the slot ends up fully merged on both paths.
                let gs = st.post_pred_sym(op.guard);
                let covered = st
                    .reg_merge
                    .get(&v)
                    .is_some_and(|m| m.guard_sym == gs && st.slots.get(&off) == Some(&m.old));
                if covered {
                    let sym = st.post_sym(v);
                    st.slots.insert(off, sym);
                } else {
                    // Otherwise the slot content is control-dependent.
                    st.slots.remove(&off);
                }
            }
        }
        Opcode::Add => {} // stack adjust
        Opcode::Pbr => {
            if let (MDest::Btr(b), MSrc::Label(l)) = (&op.dest1, &op.src1) {
                st.prepared.insert(*b, l.clone());
            }
        }
        _ => {}
    }
}

/// Checks that `post` is a legal register allocation of `pre`.
pub fn check(
    fname: &str,
    pre: &MFunction,
    post: &MFunction,
    abi: &Abi,
    config: &Config,
    diags: &mut Vec<Diagnostic>,
) {
    if pre.blocks.len() != post.blocks.len() {
        diags.push(Diagnostic::error(
            "TV004",
            format!(
                "{fname}: register allocation changed the block count ({} -> {})",
                pre.blocks.len(),
                post.blocks.len()
            ),
        ));
        return;
    }
    let pre_preds = pre.predecessors();
    for b in 0..pre.blocks.len() {
        let ctx = format!("{fname}: block mb{b}");
        let mut st = State::default();
        if b == 0 && pre_preds[0].is_empty() {
            for p in 0..config.num_gprs() as u32 {
                let s = st.fresh();
                st.post_gpr.insert(p, s);
            }
            for q in 1..config.num_pred_regs() as u32 {
                let s = st.fresh();
                st.post_pred.insert(q, s);
            }
            for (i, &param) in pre.params.iter().enumerate() {
                if let Some(&arg) = abi.args.get(i) {
                    let s = st.fresh();
                    st.pre_gpr.insert(param, s);
                    st.post_gpr.insert(arg, s);
                }
            }
        }
        check_block(&ctx, &pre.blocks[b], &post.blocks[b], abi, &mut st, diags);
    }
}

/// Consumes leading pre-side unguarded register copies: they are pure
/// renamings for the interpretation. The allocator's image of them (a
/// physical move, or reload + spill) is consumed as bookkeeping —
/// pairing them positionally instead would let prologue and argument
/// moves masquerade as user copies.
fn drain_pre_moves(pre_insts: &[MInst], st: &mut State, pi: &mut usize) {
    while let Some(MInst::Op(op)) = pre_insts.get(*pi) {
        if op.opcode == Opcode::Move && op.guard == 0 {
            if let (MDest::Gpr(d), MSrc::Gpr(s)) = (&op.dest1, &op.src1) {
                let sym = st.pre_sym(*s);
                st.pre_gpr.insert(*d, sym);
                st.merged.remove(d);
                *pi += 1;
                continue;
            }
        }
        break;
    }
}

fn check_block(
    ctx: &str,
    pre: &MBlock,
    post: &MBlock,
    abi: &Abi,
    st: &mut State,
    diags: &mut Vec<Diagnostic>,
) {
    let pre_insts = &pre.insts;
    let mut pi = 0usize;

    for (qi, inst) in post.insts.iter().enumerate() {
        drain_pre_moves(pre_insts, st, &mut pi);
        let MInst::Op(q) = inst else {
            diags.push(Diagnostic::error(
                "TV004",
                format!("{ctx}: unexpanded call survived register allocation"),
            ));
            return;
        };
        match pre_insts.get(pi) {
            Some(MInst::Call { callee, args, dest }) => {
                if q.opcode == Opcode::Brl {
                    handle_call(ctx, q, callee, args, dest.as_ref(), abi, st, diags);
                    pi += 1;
                } else if bookkeeping_shaped(q, abi) {
                    apply_bookkeeping(st, q, diags, ctx);
                } else {
                    diags.push(Diagnostic::error(
                        "TV004",
                        format!("{ctx}, op {qi}: `{q}` interrupts the call sequence for {callee}"),
                    ));
                    return;
                }
            }
            Some(MInst::Op(p)) => {
                if shape_match(p, q, abi) {
                    match consume_matched(st, p, q) {
                        Ok(()) => pi += 1,
                        Err(why) => {
                            if bookkeeping_shaped(q, abi) {
                                apply_bookkeeping(st, q, diags, ctx);
                            } else {
                                diags.push(Diagnostic::error(
                                    "TV003",
                                    format!("{ctx}, op {qi}: `{q}` reads a wrong value: {why}"),
                                ));
                                // Re-synchronise: trust the pairing and
                                // bind fresh symbols for the definitions.
                                apply_defs(st, p, q);
                                pi += 1;
                            }
                        }
                    }
                } else if bookkeeping_shaped(q, abi) {
                    apply_bookkeeping(st, q, diags, ctx);
                } else {
                    diags.push(Diagnostic::error(
                        "TV004",
                        format!(
                            "{ctx}, op {qi}: `{q}` matches neither `{p}` nor any allocator bookkeeping"
                        ),
                    ));
                    return;
                }
            }
            None => {
                if bookkeeping_shaped(q, abi) {
                    apply_bookkeeping(st, q, diags, ctx);
                } else {
                    diags.push(Diagnostic::error(
                        "TV004",
                        format!("{ctx}, op {qi}: trailing `{q}` is not allocator bookkeeping"),
                    ));
                    return;
                }
            }
        }
    }
    drain_pre_moves(pre_insts, st, &mut pi);
    if pi < pre_insts.len() {
        diags.push(Diagnostic::error(
            "TV004",
            format!(
                "{ctx}: {} op(s) of the input program were dropped by register allocation",
                pre_insts.len() - pi
            ),
        ));
        return;
    }

    match (&pre.term, &post.term) {
        (MTerm::Jump(a), MTerm::Jump(b)) if a == b => {}
        (
            MTerm::CondJump {
                pred: a,
                on_true: at,
                on_false: af,
            },
            MTerm::CondJump {
                pred: b,
                on_true: bt,
                on_false: bf,
            },
        ) if at == bt && af == bf => {
            if !st.unify_pred(*a, *b) {
                diags.push(Diagnostic::error(
                    "TV003",
                    format!("{ctx}: branch predicate q{a} does not live in p{b}"),
                ));
            }
        }
        (MTerm::Ret(Some(v)), MTerm::Ret(None)) => {
            if !st.unify_gpr(*v, abi.ret) {
                diags.push(Diagnostic::error(
                    "TV003",
                    format!(
                        "{ctx}: return value v{v} does not reach the return register r{}",
                        abi.ret
                    ),
                ));
            }
        }
        (MTerm::Ret(None), MTerm::Ret(None)) | (MTerm::Halt, MTerm::Halt) => {}
        (p, q) => {
            diags.push(Diagnostic::error(
                "TV004",
                format!("{ctx}: terminator `{p:?}` became `{q:?}`"),
            ));
        }
    }
}

#[allow(clippy::too_many_arguments)]
fn handle_call(
    ctx: &str,
    brl: &MOp,
    callee: &str,
    args: &[u32],
    dest: Option<&u32>,
    abi: &Abi,
    st: &mut State,
    diags: &mut Vec<Diagnostic>,
) {
    let btr = match (&brl.dest1, &brl.src1) {
        (MDest::Gpr(link), MSrc::Btr(b)) if *link == abi.link => Some(*b),
        _ => None,
    };
    let expected = format!("fn_{callee}");
    match btr.and_then(|b| st.prepared.get(&b)) {
        Some(label) if *label == expected => {}
        _ => {
            diags.push(Diagnostic::error(
                "TV004",
                format!("{ctx}: call to {callee} lowered to `{brl}` without preparing @{expected}"),
            ));
        }
    }
    for (i, &arg) in args.iter().enumerate() {
        let Some(&phys) = abi.args.get(i) else { break };
        if !st.unify_gpr(arg, phys) {
            diags.push(Diagnostic::error(
                "TV003",
                format!(
                    "{ctx}: argument {i} of the call to {callee} (v{arg}) does not reach r{phys}"
                ),
            ));
        }
    }
    // The callee may clobber every register but the stack pointer; only
    // values saved to the frame survive.
    let phys: Vec<u32> = st.post_gpr.keys().copied().collect();
    for p in phys {
        if p != abi.sp {
            let s = st.fresh();
            st.post_gpr.insert(p, s);
        }
    }
    let preds: Vec<u32> = st.post_pred.keys().copied().collect();
    for q in preds {
        let s = st.fresh();
        st.post_pred.insert(q, s);
    }
    st.fragile.clear();
    st.reg_merge.clear();
    st.prepared.clear();
    let s = st.fresh();
    st.post_gpr.insert(abi.ret, s);
    if let Some(&d) = dest {
        st.pre_gpr.insert(d, s);
    }
}
