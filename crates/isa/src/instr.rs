//! The six-field instruction and its typed operands.

use crate::error::IsaError;
use crate::op::{DestKind, Opcode, SrcKind};
use crate::RegList;
use epic_config::Config;
use std::fmt;

/// Index of a general-purpose register (`r<n>`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Gpr(pub u16);

/// Index of a one-bit predicate register (`p<n>`); `p0` is hard-wired true.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PredReg(pub u16);

/// Index of a branch target register (`b<n>`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Btr(pub u16);

impl fmt::Display for Gpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "r{}", self.0)
    }
}

impl fmt::Display for PredReg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "p{}", self.0)
    }
}

impl fmt::Display for Btr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "b{}", self.0)
    }
}

/// A source operand (`SRC1`/`SRC2` of Fig. 1): "SRC1 and SRC2 are either
/// literals or indices to registers".
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Operand {
    /// Field unused.
    None,
    /// A general-purpose register.
    Gpr(Gpr),
    /// A literal. Short literals live in one source field; `MOVIL`
    /// literals span both raw fields and may be datapath-width.
    Lit(i64),
    /// A branch-target register (branch opcodes).
    Btr(Btr),
    /// A predicate register (`MOVPG`).
    Pred(PredReg),
}

impl Operand {
    /// The GPR read by this operand, if any.
    #[must_use]
    pub fn gpr(self) -> Option<Gpr> {
        match self {
            Operand::Gpr(r) => Some(r),
            _ => None,
        }
    }
}

impl fmt::Display for Operand {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Operand::None => f.write_str("-"),
            Operand::Gpr(r) => r.fmt(f),
            Operand::Lit(v) => write!(f, "#{v}"),
            Operand::Btr(b) => b.fmt(f),
            Operand::Pred(p) => p.fmt(f),
        }
    }
}

/// A destination operand (`DEST1`/`DEST2` of Fig. 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Dest {
    /// Field unused.
    None,
    /// A general-purpose register that is written (or, for stores, read —
    /// see [`DestKind::GprRead`]).
    Gpr(Gpr),
    /// A predicate register that is written (`p0` discards the write).
    Pred(PredReg),
    /// A branch target register that is written (`PBR`).
    Btr(Btr),
}

impl fmt::Display for Dest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Dest::None => f.write_str("-"),
            Dest::Gpr(r) => r.fmt(f),
            Dest::Pred(p) => p.fmt(f),
            Dest::Btr(b) => b.fmt(f),
        }
    }
}

/// One EPIC instruction: the six fields of Fig. 1 with typed operands.
///
/// Every instruction is guarded by the predicate register in its `PRED`
/// field; with `pred == p0` (hard-wired true) the instruction always
/// commits. Construct instructions with the helper constructors and attach
/// guards with [`Instruction::with_pred`].
///
/// # Examples
///
/// ```
/// use epic_isa::{Gpr, Instruction, Opcode, Operand, PredReg};
///
/// // r1 = r2 + 5, executed only when p3 is set:
/// let add = Instruction::alu3(Opcode::Add, Gpr(1), Operand::Gpr(Gpr(2)), Operand::Lit(5))
///     .with_pred(PredReg(3));
/// assert_eq!(add.pred, PredReg(3));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Instruction {
    /// The operation.
    pub opcode: Opcode,
    /// First destination field.
    pub dest1: Dest,
    /// Second destination field (compare complements only).
    pub dest2: Dest,
    /// First source field.
    pub src1: Operand,
    /// Second source field.
    pub src2: Operand,
    /// Guard predicate; [`TRUE_PRED`](crate::TRUE_PRED) commits always.
    pub pred: PredReg,
}

impl Instruction {
    /// A raw instruction with every operand explicit.
    #[must_use]
    pub fn new(opcode: Opcode, dest1: Dest, dest2: Dest, src1: Operand, src2: Operand) -> Self {
        Instruction {
            opcode,
            dest1,
            dest2,
            src1,
            src2,
            pred: PredReg(0),
        }
    }

    /// A three-operand ALU instruction `dest = src1 <op> src2`.
    #[must_use]
    pub fn alu3(opcode: Opcode, dest: Gpr, src1: Operand, src2: Operand) -> Self {
        Instruction::new(opcode, Dest::Gpr(dest), Dest::None, src1, src2)
    }

    /// A two-operand ALU instruction `dest = <op> src` (moves, extends…).
    #[must_use]
    pub fn alu2(opcode: Opcode, dest: Gpr, src: Operand) -> Self {
        Instruction::new(opcode, Dest::Gpr(dest), Dest::None, src, Operand::None)
    }

    /// `MOVIL dest, #value` — materialise a datapath-width constant.
    #[must_use]
    pub fn movil(dest: Gpr, value: i64) -> Self {
        Instruction::new(
            Opcode::Movil,
            Dest::Gpr(dest),
            Dest::None,
            Operand::Lit(value),
            Operand::None,
        )
    }

    /// A compare writing `t = src1 <cond> src2` and its complement `f`.
    ///
    /// Pass `PredReg(0)` for either destination to discard that half.
    #[must_use]
    pub fn cmp(cond: crate::CmpCond, t: PredReg, f: PredReg, src1: Operand, src2: Operand) -> Self {
        Instruction::new(Opcode::Cmp(cond), Dest::Pred(t), Dest::Pred(f), src1, src2)
    }

    /// A load `dest = mem[base + offset]`.
    #[must_use]
    pub fn load(opcode: Opcode, dest: Gpr, base: Operand, offset: Operand) -> Self {
        debug_assert!(opcode.is_load());
        Instruction::new(opcode, Dest::Gpr(dest), Dest::None, base, offset)
    }

    /// A store `mem[base + offset] = value`.
    #[must_use]
    pub fn store(opcode: Opcode, value: Gpr, base: Operand, offset: Operand) -> Self {
        debug_assert!(opcode.is_store());
        Instruction::new(opcode, Dest::Gpr(value), Dest::None, base, offset)
    }

    /// `PBR btr, #bundle` — prepare a branch target.
    #[must_use]
    pub fn pbr(btr: Btr, target: Operand) -> Self {
        Instruction::new(
            Opcode::Pbr,
            Dest::Btr(btr),
            Dest::None,
            target,
            Operand::None,
        )
    }

    /// `BR btr` — unconditional branch through a BTR.
    #[must_use]
    pub fn br(btr: Btr) -> Self {
        Instruction::new(
            Opcode::Br,
            Dest::None,
            Dest::None,
            Operand::Btr(btr),
            Operand::None,
        )
    }

    /// `BRCT btr (p)` — branch when `p` is true.
    #[must_use]
    pub fn brct(btr: Btr, pred: PredReg) -> Self {
        Instruction::new(
            Opcode::Brct,
            Dest::None,
            Dest::None,
            Operand::Btr(btr),
            Operand::None,
        )
        .with_pred(pred)
    }

    /// `BRCF btr (p)` — branch when `p` is false.
    #[must_use]
    pub fn brcf(btr: Btr, pred: PredReg) -> Self {
        Instruction::new(
            Opcode::Brcf,
            Dest::None,
            Dest::None,
            Operand::Btr(btr),
            Operand::None,
        )
        .with_pred(pred)
    }

    /// `BRL link, btr` — branch and link (procedure call).
    #[must_use]
    pub fn brl(link: Gpr, btr: Btr) -> Self {
        Instruction::new(
            Opcode::Brl,
            Dest::Gpr(link),
            Dest::None,
            Operand::Btr(btr),
            Operand::None,
        )
    }

    /// The issue-slot filler.
    #[must_use]
    pub fn nop() -> Self {
        Instruction::new(
            Opcode::Nop,
            Dest::None,
            Dest::None,
            Operand::None,
            Operand::None,
        )
    }

    /// The stop instruction.
    #[must_use]
    pub fn halt() -> Self {
        Instruction::new(
            Opcode::Halt,
            Dest::None,
            Dest::None,
            Operand::None,
            Operand::None,
        )
    }

    /// Attaches a guard predicate.
    #[must_use]
    pub fn with_pred(mut self, pred: PredReg) -> Self {
        self.pred = pred;
        self
    }

    /// GPRs read by this instruction (sources, store data, at most 3).
    ///
    /// This is what the register-file controller must service: the issue
    /// stage performs "a maximum of eight reads … and four writes" per
    /// cycle (paper §3.2), and both the scheduler and the simulator use
    /// this accounting to respect the port budget.
    #[must_use]
    pub fn gpr_reads(&self) -> RegList<Gpr, 3> {
        let mut reads = RegList::new();
        if let Operand::Gpr(r) = self.src1 {
            reads.push(r);
        }
        if let Operand::Gpr(r) = self.src2 {
            reads.push(r);
        }
        if self.opcode.signature().dest1 == DestKind::GprRead {
            if let Dest::Gpr(r) = self.dest1 {
                reads.push(r);
            }
        }
        reads
    }

    /// The GPR written by this instruction, if any.
    #[must_use]
    pub fn gpr_write(&self) -> Option<Gpr> {
        if self.opcode.signature().dest1 == DestKind::Gpr {
            if let Dest::Gpr(r) = self.dest1 {
                return Some(r);
            }
        }
        None
    }

    /// Predicate registers written by this instruction (p0 writes are
    /// discarded by hardware but still listed here).
    #[must_use]
    pub fn pred_writes(&self) -> RegList<PredReg, 2> {
        let mut writes = RegList::new();
        let sig = self.opcode.signature();
        if sig.dest1 == DestKind::Pred {
            if let Dest::Pred(p) = self.dest1 {
                writes.push(p);
            }
        }
        if sig.dest2 == DestKind::Pred {
            if let Dest::Pred(p) = self.dest2 {
                writes.push(p);
            }
        }
        writes
    }

    /// Predicate registers read: the guard, plus `MOVPG`'s source.
    #[must_use]
    pub fn pred_reads(&self) -> RegList<PredReg, 2> {
        let mut reads = RegList::new();
        if self.pred.0 != 0 {
            reads.push(self.pred);
        }
        if let Operand::Pred(p) = self.src1 {
            reads.push(p);
        }
        reads
    }

    /// The BTR written (`PBR`), if any.
    #[must_use]
    pub fn btr_write(&self) -> Option<Btr> {
        match self.dest1 {
            Dest::Btr(b) => Some(b),
            _ => None,
        }
    }

    /// The BTR read (branches), if any.
    #[must_use]
    pub fn btr_read(&self) -> Option<Btr> {
        match self.src1 {
            Operand::Btr(b) => Some(b),
            _ => None,
        }
    }

    /// Checks operand kinds, register indices, literal ranges and required
    /// ALU features against a configuration.
    ///
    /// # Errors
    ///
    /// Returns the first violated constraint; a validated instruction is
    /// guaranteed to encode, decode and simulate without panicking.
    pub fn validate(&self, config: &Config) -> Result<(), IsaError> {
        let sig = self.opcode.signature();
        if let Opcode::Custom(i) = self.opcode {
            if usize::from(i) >= config.custom_ops().len() {
                return Err(IsaError::UnknownCustomOp { index: i });
            }
        }
        if let Some(feature) = self.opcode.required_feature() {
            if !config.alu_features().contains(feature) {
                return Err(IsaError::FeatureDisabled {
                    opcode: self.opcode.mnemonic().into_owned(),
                    feature,
                });
            }
        }
        validate_dest(self.dest1, sig.dest1, "DEST1", self.opcode, config)?;
        validate_dest(self.dest2, sig.dest2, "DEST2", self.opcode, config)?;
        validate_src(self.src1, sig.src1, "SRC1", self.opcode, config)?;
        validate_src(self.src2, sig.src2, "SRC2", self.opcode, config)?;
        if usize::from(self.pred.0) >= config.num_pred_regs() {
            return Err(IsaError::RegisterOutOfRange {
                kind: "predicate register",
                index: self.pred.0,
                count: config.num_pred_regs(),
            });
        }
        if self.opcode == Opcode::Movil {
            let width = config.datapath_width();
            let Operand::Lit(v) = self.src1 else {
                return Err(IsaError::OperandKind {
                    opcode: self.opcode.mnemonic().into_owned(),
                    field: "SRC1",
                });
            };
            let min = -(1i64 << (width - 1));
            let max = (1i64 << width) - 1; // accept unsigned-style constants too
            if v < min || v > max {
                return Err(IsaError::LiteralOutOfRange { value: v, min, max });
            }
        }
        let named = self.gpr_reads().len()
            + usize::from(self.gpr_write().is_some())
            + self.pred_writes().len()
            + usize::from(self.btr_write().is_some())
            + usize::from(self.btr_read().is_some());
        if named > config.registers_per_instruction() + 1 {
            // +1: the guard predicate is not counted against the paper's
            // "number of registers each instruction can use" parameter,
            // which concerns the four operand fields.
            return Err(IsaError::TooManyRegisters {
                named,
                allowed: config.registers_per_instruction(),
            });
        }
        Ok(())
    }
}

fn validate_dest(
    dest: Dest,
    kind: DestKind,
    field: &'static str,
    opcode: Opcode,
    config: &Config,
) -> Result<(), IsaError> {
    let bad = || IsaError::OperandKind {
        opcode: opcode.mnemonic().into_owned(),
        field,
    };
    let range = |kind, index: u16, count| {
        if usize::from(index) >= count {
            Err(IsaError::RegisterOutOfRange { kind, index, count })
        } else {
            Ok(())
        }
    };
    match (kind, dest) {
        (DestKind::None, Dest::None) => Ok(()),
        (DestKind::Gpr | DestKind::GprRead, Dest::Gpr(r)) => {
            range("general-purpose register", r.0, config.num_gprs())
        }
        (DestKind::Pred, Dest::Pred(p)) => range("predicate register", p.0, config.num_pred_regs()),
        (DestKind::Btr, Dest::Btr(b)) => range("branch target register", b.0, config.num_btrs()),
        _ => Err(bad()),
    }
}

fn validate_src(
    src: Operand,
    kind: SrcKind,
    field: &'static str,
    opcode: Opcode,
    config: &Config,
) -> Result<(), IsaError> {
    let bad = || IsaError::OperandKind {
        opcode: opcode.mnemonic().into_owned(),
        field,
    };
    let range = |kind, index: u16, count| {
        if usize::from(index) >= count {
            Err(IsaError::RegisterOutOfRange { kind, index, count })
        } else {
            Ok(())
        }
    };
    match (kind, src) {
        (SrcKind::None, Operand::None) => Ok(()),
        (SrcKind::GprOrLit, Operand::Gpr(r)) => {
            range("general-purpose register", r.0, config.num_gprs())
        }
        (SrcKind::GprOrLit, Operand::Lit(v)) => {
            let (min, max) = config.instruction_format().short_literal_range();
            if v < min || v > max {
                Err(IsaError::LiteralOutOfRange { value: v, min, max })
            } else {
                Ok(())
            }
        }
        (SrcKind::Btr, Operand::Btr(b)) => range("branch target register", b.0, config.num_btrs()),
        (SrcKind::Pred, Operand::Pred(p)) => {
            range("predicate register", p.0, config.num_pred_regs())
        }
        // MOVIL: SRC1 carries the (range-checked elsewhere) literal and
        // SRC2 must be unused at this representation level.
        (SrcKind::LongLit, Operand::Lit(_)) => Ok(()),
        (SrcKind::LongLit, Operand::None) => Ok(()),
        _ => Err(bad()),
    }
}

impl fmt::Display for Instruction {
    /// Formats in the assembler's canonical syntax; see
    /// [`disassemble`](crate::disassemble) for configuration-aware output
    /// (custom-op names).
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        crate::disasm::write_instruction(f, self, None)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CmpCond;

    fn cfg() -> Config {
        Config::default()
    }

    #[test]
    fn reads_and_writes_are_accounted() {
        let add = Instruction::alu3(
            Opcode::Add,
            Gpr(1),
            Operand::Gpr(Gpr(2)),
            Operand::Gpr(Gpr(3)),
        );
        assert_eq!(add.gpr_reads()[..], [Gpr(2), Gpr(3)]);
        assert_eq!(add.gpr_write(), Some(Gpr(1)));

        let sw = Instruction::store(Opcode::Sw, Gpr(7), Operand::Gpr(Gpr(8)), Operand::Lit(4));
        assert_eq!(sw.gpr_reads()[..], [Gpr(8), Gpr(7)]);
        assert_eq!(sw.gpr_write(), None);

        let cmp = Instruction::cmp(
            CmpCond::Lt,
            PredReg(1),
            PredReg(2),
            Operand::Gpr(Gpr(3)),
            Operand::Lit(0),
        );
        assert_eq!(cmp.pred_writes()[..], [PredReg(1), PredReg(2)]);
        assert_eq!(cmp.gpr_reads()[..], [Gpr(3)]);
    }

    #[test]
    fn guard_is_a_predicate_read() {
        let i = Instruction::nop().with_pred(PredReg(5));
        assert_eq!(i.pred_reads()[..], [PredReg(5)]);
        assert!(Instruction::nop().pred_reads().is_empty());
    }

    #[test]
    fn validate_accepts_well_formed_instructions() {
        let c = cfg();
        for i in [
            Instruction::alu3(
                Opcode::Add,
                Gpr(63),
                Operand::Gpr(Gpr(0)),
                Operand::Lit(-16384),
            ),
            Instruction::movil(Gpr(1), 0xDEAD_BEEFu32 as i64),
            Instruction::movil(Gpr(1), i32::MIN as i64),
            Instruction::load(Opcode::Lw, Gpr(2), Operand::Gpr(Gpr(3)), Operand::Lit(8)),
            Instruction::pbr(Btr(15), Operand::Lit(100)),
            Instruction::brct(Btr(0), PredReg(31)),
            Instruction::halt(),
        ] {
            i.validate(&c).unwrap_or_else(|e| panic!("{i}: {e}"));
        }
    }

    #[test]
    fn validate_rejects_out_of_range_registers() {
        let c = cfg();
        let i = Instruction::alu3(Opcode::Add, Gpr(64), Operand::Lit(0), Operand::Lit(0));
        assert!(matches!(
            i.validate(&c),
            Err(IsaError::RegisterOutOfRange { .. })
        ));
    }

    #[test]
    fn validate_rejects_wide_short_literals() {
        let c = cfg();
        let i = Instruction::alu3(Opcode::Add, Gpr(1), Operand::Lit(0), Operand::Lit(16384));
        assert!(matches!(
            i.validate(&c),
            Err(IsaError::LiteralOutOfRange { .. })
        ));
    }

    #[test]
    fn validate_rejects_disabled_features() {
        let c = Config::builder()
            .without_alu_feature(epic_config::AluFeature::Divide)
            .build()
            .unwrap();
        let i = Instruction::alu3(
            Opcode::Div,
            Gpr(1),
            Operand::Gpr(Gpr(2)),
            Operand::Gpr(Gpr(3)),
        );
        assert!(matches!(
            i.validate(&c),
            Err(IsaError::FeatureDisabled { .. })
        ));
    }

    #[test]
    fn validate_rejects_unregistered_custom_ops() {
        let c = cfg();
        let i = Instruction::alu3(
            Opcode::Custom(0),
            Gpr(1),
            Operand::Gpr(Gpr(2)),
            Operand::Lit(3),
        );
        assert!(matches!(
            i.validate(&c),
            Err(IsaError::UnknownCustomOp { index: 0 })
        ));
    }

    #[test]
    fn validate_rejects_kind_mismatches() {
        let c = cfg();
        let i = Instruction::new(
            Opcode::Add,
            Dest::Pred(PredReg(1)),
            Dest::None,
            Operand::Lit(0),
            Operand::Lit(0),
        );
        assert!(matches!(i.validate(&c), Err(IsaError::OperandKind { .. })));
    }

    #[test]
    fn movil_accepts_full_width_constants_only() {
        let c = cfg();
        assert!(Instruction::movil(Gpr(1), u32::MAX as i64)
            .validate(&c)
            .is_ok());
        assert!(Instruction::movil(Gpr(1), (u32::MAX as i64) + 1)
            .validate(&c)
            .is_err());
    }
}
