//! Machine IR: EPIC operations over virtual registers.
//!
//! Between instruction selection and emission the program lives in this
//! form — [`epic_isa::Opcode`]s whose operands are *virtual* GPRs and
//! *virtual* predicates, organised in the original CFG. If-conversion
//! attaches guards, the register allocator replaces virtual registers with
//! physical indices (reusing the same types: after allocation a "virtual"
//! number simply *is* the physical index and
//! [`MFunction::allocated`] is set), and the scheduler finally reorders
//! instructions into bundles.

use epic_isa::{Opcode, RegList};
use std::fmt;

/// Identifier of a machine basic block (index into [`MFunction::blocks`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct MBlockId(pub u32);

impl fmt::Display for MBlockId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "mb{}", self.0)
    }
}

/// A destination operand.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MDest {
    /// Unused field.
    None,
    /// A (virtual, later physical) general-purpose register.
    Gpr(u32),
    /// A (virtual, later physical) predicate register.
    Pred(u32),
    /// A physical branch target register (`PBR`; never virtualised — the
    /// backend uses a fixed BTR discipline).
    Btr(u16),
}

impl MDest {
    /// The GPR number, if this is a GPR destination.
    #[must_use]
    pub fn gpr(self) -> Option<u32> {
        match self {
            MDest::Gpr(r) => Some(r),
            _ => None,
        }
    }
}

/// A source operand.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum MSrc {
    /// Unused field.
    None,
    /// A (virtual, later physical) general-purpose register.
    Gpr(u32),
    /// A literal (short or, for `MOVIL`, datapath-width).
    Lit(i64),
    /// A (virtual, later physical) predicate register (`MOVPG`).
    Pred(u32),
    /// A physical branch target register (branches).
    Btr(u16),
    /// A symbolic code label (`PBR` targets), resolved by the assembler.
    Label(String),
}

impl MSrc {
    /// The GPR number, if this is a register source.
    #[must_use]
    pub fn gpr(&self) -> Option<u32> {
        match self {
            MSrc::Gpr(r) => Some(*r),
            _ => None,
        }
    }
}

/// One machine operation (real ISA semantics, virtual operands).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct MOp {
    /// The ISA opcode.
    pub opcode: Opcode,
    /// First destination (GPR result, store data is *not* here — see
    /// `store_value`).
    pub dest1: MDest,
    /// Second destination (compare complement predicate).
    pub dest2: MDest,
    /// First source.
    pub src1: MSrc,
    /// Second source.
    pub src2: MSrc,
    /// For stores only: the GPR whose value is written to memory
    /// (occupies the ISA's `DEST1` field but is a read).
    pub store_value: Option<u32>,
    /// Guard predicate (0 = always execute).
    pub guard: u32,
}

impl MOp {
    /// An unguarded operation with no operands.
    #[must_use]
    pub fn bare(opcode: Opcode) -> Self {
        MOp {
            opcode,
            dest1: MDest::None,
            dest2: MDest::None,
            src1: MSrc::None,
            src2: MSrc::None,
            store_value: None,
            guard: 0,
        }
    }

    /// GPRs read by this operation.
    #[must_use]
    pub fn gpr_uses(&self) -> RegList<u32, 3> {
        let mut uses = RegList::new();
        if let MSrc::Gpr(r) = &self.src1 {
            uses.push(*r);
        }
        if let MSrc::Gpr(r) = &self.src2 {
            uses.push(*r);
        }
        if let Some(r) = self.store_value {
            uses.push(r);
        }
        uses
    }

    /// The BTR written (`PBR`), if any.
    #[must_use]
    pub fn btr_def(&self) -> Option<u16> {
        match self.dest1 {
            MDest::Btr(b) => Some(b),
            _ => None,
        }
    }

    /// The BTR read (branches), if any.
    #[must_use]
    pub fn btr_use(&self) -> Option<u16> {
        match &self.src1 {
            MSrc::Btr(b) => Some(*b),
            _ => None,
        }
    }

    /// The GPR defined, if any.
    #[must_use]
    pub fn gpr_def(&self) -> Option<u32> {
        self.dest1.gpr()
    }

    /// Predicates read: the guard (if not 0) plus any predicate source.
    #[must_use]
    pub fn pred_uses(&self) -> RegList<u32, 2> {
        let mut uses = RegList::new();
        if self.guard != 0 {
            uses.push(self.guard);
        }
        if let MSrc::Pred(p) = &self.src1 {
            uses.push(*p);
        }
        uses
    }

    /// Predicates written (excluding the discarding predicate 0).
    #[must_use]
    pub fn pred_defs(&self) -> RegList<u32, 2> {
        let mut defs = RegList::new();
        if let MDest::Pred(p) = self.dest1 {
            if p != 0 {
                defs.push(p);
            }
        }
        if let MDest::Pred(p) = self.dest2 {
            if p != 0 {
                defs.push(p);
            }
        }
        defs
    }

    /// Whether the definition is conditional (guarded), i.e. does not
    /// fully kill the previous value of its destination.
    #[must_use]
    pub fn is_conditional(&self) -> bool {
        self.guard != 0
    }
}

/// Lets the machine description price pre-encoding operations with the
/// same [`epic_mdes::StaticBundleCost`] arithmetic the verifier and the
/// simulator's decoder apply to encoded instructions.
impl epic_mdes::CostedOp for MOp {
    fn cost_opcode(&self) -> Opcode {
        self.opcode
    }
    fn gpr_read_count(&self) -> usize {
        self.gpr_uses().len()
    }
    fn writes_gpr(&self) -> bool {
        self.gpr_def().is_some()
    }
}

impl fmt::Display for MOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.opcode.mnemonic())?;
        let mut wrote = false;
        let mut field = |f: &mut fmt::Formatter<'_>, s: String| -> fmt::Result {
            if wrote {
                write!(f, ", {s}")
            } else {
                wrote = true;
                write!(f, " {s}")
            }
        };
        if let Some(v) = self.store_value {
            field(f, format!("v{v}"))?;
        }
        match self.dest1 {
            MDest::Gpr(r) => field(f, format!("v{r}"))?,
            MDest::Pred(p) => field(f, format!("q{p}"))?,
            MDest::Btr(b) => field(f, format!("b{b}"))?,
            MDest::None => {}
        }
        if let MDest::Pred(p) = self.dest2 {
            field(f, format!("q{p}"))?;
        }
        for src in [&self.src1, &self.src2] {
            match src {
                MSrc::Gpr(r) => field(f, format!("v{r}"))?,
                MSrc::Lit(v) => field(f, format!("#{v}"))?,
                MSrc::Pred(p) => field(f, format!("q{p}"))?,
                MSrc::Btr(b) => field(f, format!("b{b}"))?,
                MSrc::Label(l) => field(f, format!("@{l}"))?,
                MSrc::None => {}
            }
        }
        if self.guard != 0 {
            write!(f, " (q{})", self.guard)?;
        }
        Ok(())
    }
}

/// One machine instruction: a real operation or a call pseudo.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum MInst {
    /// A real ISA operation.
    Op(MOp),
    /// A direct call, expanded after register allocation into argument
    /// moves, `PBR`/`BRL` and a result move.
    Call {
        /// Callee name.
        callee: String,
        /// Argument virtual GPRs, in order.
        args: Vec<u32>,
        /// Virtual GPR receiving the return value, if used.
        dest: Option<u32>,
    },
}

impl MInst {
    /// GPRs read (a call reads any number of arguments).
    #[must_use]
    pub fn gpr_uses(&self) -> Vec<u32> {
        match self {
            MInst::Op(op) => op.gpr_uses().to_vec(),
            MInst::Call { args, .. } => args.clone(),
        }
    }

    /// The GPR defined, if any.
    #[must_use]
    pub fn gpr_def(&self) -> Option<u32> {
        match self {
            MInst::Op(op) => op.gpr_def(),
            MInst::Call { dest, .. } => *dest,
        }
    }

    /// Whether the GPR definition is conditional (guarded).
    #[must_use]
    pub fn def_is_conditional(&self) -> bool {
        match self {
            MInst::Op(op) => op.is_conditional(),
            MInst::Call { .. } => false,
        }
    }

    /// Predicates read.
    #[must_use]
    pub fn pred_uses(&self) -> RegList<u32, 2> {
        match self {
            MInst::Op(op) => op.pred_uses(),
            MInst::Call { .. } => RegList::new(),
        }
    }

    /// Predicates written.
    #[must_use]
    pub fn pred_defs(&self) -> RegList<u32, 2> {
        match self {
            MInst::Op(op) => op.pred_defs(),
            MInst::Call { .. } => RegList::new(),
        }
    }

    /// The inner [`MOp`], if this is a real operation.
    #[must_use]
    pub fn as_op(&self) -> Option<&MOp> {
        match self {
            MInst::Op(op) => Some(op),
            MInst::Call { .. } => None,
        }
    }
}

impl fmt::Display for MInst {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MInst::Op(op) => op.fmt(f),
            MInst::Call { callee, args, dest } => {
                if let Some(d) = dest {
                    write!(f, "call v{d} = {callee}(")?;
                } else {
                    write!(f, "call {callee}(")?;
                }
                for (i, a) in args.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "v{a}")?;
                }
                write!(f, ")")
            }
        }
    }
}

/// How a machine block ends.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum MTerm {
    /// Unconditional jump.
    Jump(MBlockId),
    /// Branch to `on_true` when the (virtual) predicate is set, else fall
    /// through to `on_false`.
    CondJump {
        /// The tested predicate.
        pred: u32,
        /// Taken successor.
        on_true: MBlockId,
        /// Fall-through successor.
        on_false: MBlockId,
    },
    /// Return, with the value (if any) in the given virtual GPR.
    Ret(Option<u32>),
    /// Stop the machine (`HALT`, used by the start-up stub).
    Halt,
}

impl MTerm {
    /// Successor blocks.
    #[must_use]
    pub fn successors(&self) -> Vec<MBlockId> {
        match self {
            MTerm::Jump(b) => vec![*b],
            MTerm::CondJump {
                on_true, on_false, ..
            } => vec![*on_true, *on_false],
            MTerm::Ret(_) | MTerm::Halt => vec![],
        }
    }
}

/// A set of register resources `(kind, number)`, one bit each, for the
/// per-block liveness of the scheduler and of its checker. The kind is
/// below 4 (they use 0 = GPR, 1 = predicate, 2 = BTR).
#[derive(Debug, Clone, Default)]
pub struct RegSet {
    words: Vec<u64>,
}

impl RegSet {
    /// The empty set.
    #[must_use]
    pub const fn new() -> RegSet {
        RegSet { words: Vec::new() }
    }

    /// Removes every resource, keeping the storage.
    pub fn clear(&mut self) {
        self.words.fill(0);
    }

    fn locate((kind, number): (u8, u32)) -> (usize, u64) {
        debug_assert!(kind < 4, "register kind {kind} out of range");
        let bit = (number as usize) << 2 | usize::from(kind);
        (bit / 64, 1 << (bit % 64))
    }

    /// Adds a resource.
    pub fn insert(&mut self, res: (u8, u32)) {
        let (word, mask) = Self::locate(res);
        if word >= self.words.len() {
            self.words.resize(word + 1, 0);
        }
        self.words[word] |= mask;
    }

    /// Removes a resource.
    pub fn remove(&mut self, res: (u8, u32)) {
        let (word, mask) = Self::locate(res);
        if let Some(w) = self.words.get_mut(word) {
            *w &= !mask;
        }
    }

    /// Whether the set holds a resource.
    #[must_use]
    pub fn contains(&self, res: (u8, u32)) -> bool {
        let (word, mask) = Self::locate(res);
        self.words.get(word).is_some_and(|w| w & mask != 0)
    }

    /// Adds every resource of `other`.
    pub fn union_with(&mut self, other: &RegSet) {
        if other.words.len() > self.words.len() {
            self.words.resize(other.words.len(), 0);
        }
        for (w, o) in self.words.iter_mut().zip(&other.words) {
            *w |= o;
        }
    }

    /// Removes every resource of `other`.
    pub fn subtract(&mut self, other: &RegSet) {
        for (w, o) in self.words.iter_mut().zip(&other.words) {
            *w &= !o;
        }
    }
}

/// Sets are equal when they hold the same resources, however many
/// trailing empty words either carries.
impl PartialEq for RegSet {
    fn eq(&self, other: &RegSet) -> bool {
        let (short, long) = if self.words.len() <= other.words.len() {
            (&self.words, &other.words)
        } else {
            (&other.words, &self.words)
        };
        long[..short.len()] == short[..] && long[short.len()..].iter().all(|&w| w == 0)
    }
}

impl Eq for RegSet {}

/// A machine basic block.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct MBlock {
    /// Block id (`blocks[i].id == MBlockId(i)`).
    pub id: MBlockId,
    /// Instructions in program order.
    pub insts: Vec<MInst>,
    /// The terminator.
    pub term: MTerm,
}

/// A machine function.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct MFunction {
    /// Function name.
    pub name: String,
    /// Virtual GPRs holding the parameters on entry.
    pub params: Vec<u32>,
    /// The blocks.
    pub blocks: Vec<MBlock>,
    /// Number of virtual GPRs.
    pub vreg_count: u32,
    /// Number of virtual predicates (vpred 0 is "always").
    pub vpred_count: u32,
    /// Set once registers are physical (post-allocation).
    pub allocated: bool,
    /// Stack-frame bytes (post-allocation: spills + call saves + link).
    pub frame_bytes: u32,
    /// Whether the function contains calls (needs the link saved).
    pub makes_calls: bool,
}

impl MFunction {
    /// Looks up a block.
    #[must_use]
    pub fn block(&self, id: MBlockId) -> &MBlock {
        &self.blocks[id.0 as usize]
    }

    /// Allocates a fresh virtual GPR.
    pub fn new_vreg(&mut self) -> u32 {
        let r = self.vreg_count;
        self.vreg_count += 1;
        r
    }

    /// Allocates a fresh virtual predicate.
    pub fn new_vpred(&mut self) -> u32 {
        let p = self.vpred_count;
        self.vpred_count += 1;
        p
    }

    /// Predecessor lists indexed by block.
    #[must_use]
    pub fn predecessors(&self) -> Vec<Vec<MBlockId>> {
        let mut preds = vec![Vec::new(); self.blocks.len()];
        for block in &self.blocks {
            for succ in block.term.successors() {
                preds[succ.0 as usize].push(block.id);
            }
        }
        preds
    }

    /// Total instruction count.
    #[must_use]
    pub fn inst_count(&self) -> usize {
        self.blocks.iter().map(|b| b.insts.len()).sum()
    }
}

impl fmt::Display for MFunction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "mfn {} (vregs {}, vpreds {}):",
            self.name, self.vreg_count, self.vpred_count
        )?;
        for b in &self.blocks {
            writeln!(f, "{}:", b.id)?;
            for i in &b.insts {
                writeln!(f, "  {i}")?;
            }
            match &b.term {
                MTerm::Jump(t) => writeln!(f, "  jump {t}")?,
                MTerm::CondJump {
                    pred,
                    on_true,
                    on_false,
                } => writeln!(f, "  if q{pred} -> {on_true} else {on_false}")?,
                MTerm::Ret(Some(v)) => writeln!(f, "  ret v{v}")?,
                MTerm::Ret(None) => writeln!(f, "  ret")?,
                MTerm::Halt => writeln!(f, "  halt")?,
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn use_def_accounting() {
        let mut op = MOp::bare(Opcode::Add);
        op.dest1 = MDest::Gpr(5);
        op.src1 = MSrc::Gpr(1);
        op.src2 = MSrc::Lit(3);
        assert_eq!(op.gpr_uses()[..], [1]);
        assert_eq!(op.gpr_def(), Some(5));
        assert!(op.pred_uses().is_empty());

        let mut store = MOp::bare(Opcode::Sw);
        store.store_value = Some(7);
        store.src1 = MSrc::Gpr(8);
        store.src2 = MSrc::Lit(0);
        store.guard = 2;
        assert_eq!(store.gpr_uses()[..], [8, 7]);
        assert_eq!(store.gpr_def(), None);
        assert_eq!(store.pred_uses()[..], [2]);
        assert!(store.is_conditional());
    }

    #[test]
    fn pred_defs_skip_the_discard_register() {
        let mut cmp = MOp::bare(Opcode::Cmp(epic_isa::CmpCond::Lt));
        cmp.dest1 = MDest::Pred(3);
        cmp.dest2 = MDest::Pred(0);
        cmp.src1 = MSrc::Gpr(1);
        cmp.src2 = MSrc::Gpr(2);
        assert_eq!(cmp.pred_defs()[..], [3]);
    }

    #[test]
    fn call_pseudo_uses_args_and_defs_dest() {
        let call = MInst::Call {
            callee: "f".into(),
            args: vec![4, 5],
            dest: Some(6),
        };
        assert_eq!(call.gpr_uses(), vec![4, 5]);
        assert_eq!(call.gpr_def(), Some(6));
    }

    #[test]
    fn display_is_readable() {
        let mut op = MOp::bare(Opcode::Add);
        op.dest1 = MDest::Gpr(5);
        op.src1 = MSrc::Gpr(1);
        op.src2 = MSrc::Lit(3);
        op.guard = 1;
        assert_eq!(op.to_string(), "ADD v5, v1, #3 (q1)");
    }
}
