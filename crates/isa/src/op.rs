//! The opcode space and per-opcode metadata.

use crate::error::IsaError;
use epic_config::{AluFeature, Config};
use std::borrow::Cow;
use std::fmt;

/// Functional unit classes of the datapath (paper Fig. 2).
///
/// "The architecture contains four main types of elements: a collection of
/// arithmetic and logic units (ALUs), a load/store unit (LSU), a comparison
/// unit (CMPU), and a branch unit (BRU)."
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Unit {
    /// One of the N replicated arithmetic-logic units.
    Alu,
    /// The load/store unit (single instance, owns the data-memory port).
    Lsu,
    /// The comparison unit (single instance, owns the predicate file).
    Cmpu,
    /// The branch unit (single instance, owns the BTR file and the PC).
    Bru,
}

impl fmt::Display for Unit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Unit::Alu => "ALU",
            Unit::Lsu => "LSU",
            Unit::Cmpu => "CMPU",
            Unit::Bru => "BRU",
        })
    }
}

/// Comparison conditions of the `CMP_*` opcodes.
///
/// The comparison unit evaluates `src1 <cond> src2` and writes the boolean
/// outcome to predicate register `DEST1` and its complement to `DEST2`
/// (either may be the discarding predicate `p0`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum CmpCond {
    /// Equal.
    Eq,
    /// Not equal.
    Ne,
    /// Signed less than.
    Lt,
    /// Signed less than or equal.
    Le,
    /// Signed greater than.
    Gt,
    /// Signed greater than or equal.
    Ge,
    /// Unsigned less than.
    Ltu,
    /// Unsigned less than or equal.
    Leu,
    /// Unsigned greater than.
    Gtu,
    /// Unsigned greater than or equal.
    Geu,
}

impl CmpCond {
    /// All conditions in ordinal order.
    pub const ALL: [CmpCond; 10] = [
        CmpCond::Eq,
        CmpCond::Ne,
        CmpCond::Lt,
        CmpCond::Le,
        CmpCond::Gt,
        CmpCond::Ge,
        CmpCond::Ltu,
        CmpCond::Leu,
        CmpCond::Gtu,
        CmpCond::Geu,
    ];

    /// The condition testing the logically opposite outcome.
    #[must_use]
    pub fn negate(self) -> CmpCond {
        match self {
            CmpCond::Eq => CmpCond::Ne,
            CmpCond::Ne => CmpCond::Eq,
            CmpCond::Lt => CmpCond::Ge,
            CmpCond::Le => CmpCond::Gt,
            CmpCond::Gt => CmpCond::Le,
            CmpCond::Ge => CmpCond::Lt,
            CmpCond::Ltu => CmpCond::Geu,
            CmpCond::Leu => CmpCond::Gtu,
            CmpCond::Gtu => CmpCond::Leu,
            CmpCond::Geu => CmpCond::Ltu,
        }
    }

    /// The condition with its operands swapped (`a < b` ⇔ `b > a`).
    #[must_use]
    pub fn swap_operands(self) -> CmpCond {
        match self {
            CmpCond::Eq => CmpCond::Eq,
            CmpCond::Ne => CmpCond::Ne,
            CmpCond::Lt => CmpCond::Gt,
            CmpCond::Le => CmpCond::Ge,
            CmpCond::Gt => CmpCond::Lt,
            CmpCond::Ge => CmpCond::Le,
            CmpCond::Ltu => CmpCond::Gtu,
            CmpCond::Leu => CmpCond::Geu,
            CmpCond::Gtu => CmpCond::Ltu,
            CmpCond::Geu => CmpCond::Leu,
        }
    }

    /// Mnemonic suffix (`CMP_<suffix>`).
    #[must_use]
    pub fn suffix(self) -> &'static str {
        match self {
            CmpCond::Eq => "EQ",
            CmpCond::Ne => "NE",
            CmpCond::Lt => "LT",
            CmpCond::Le => "LE",
            CmpCond::Gt => "GT",
            CmpCond::Ge => "GE",
            CmpCond::Ltu => "LTU",
            CmpCond::Leu => "LEU",
            CmpCond::Gtu => "GTU",
            CmpCond::Geu => "GEU",
        }
    }
}

/// An operation of the EPIC instruction set.
///
/// The set follows HPL-PD's integer subset: ALU arithmetic and logic
/// (including multiply and divide), compare-to-predicate, loads and stores
/// of word/half/byte (plus a speculative word load), and the
/// prepare-to-branch family operating through branch target registers.
/// [`Opcode::Custom`] slots reference the configuration's custom-operation
/// registry (paper §3.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum Opcode {
    // --- ALU class -----------------------------------------------------
    /// `dest1 = src1 + src2` (wrapping).
    Add,
    /// `dest1 = src1 - src2` (wrapping).
    Sub,
    /// `dest1 = src1 * src2` (low half, wrapping).
    Mull,
    /// `dest1 = src1 / src2` (signed; result 0 when `src2 == 0`).
    Div,
    /// `dest1 = src1 % src2` (signed; result 0 when `src2 == 0`).
    Rem,
    /// `dest1 = src1 & src2`.
    And,
    /// `dest1 = src1 | src2`.
    Or,
    /// `dest1 = src1 ^ src2`.
    Xor,
    /// `dest1 = src1 << src2` (shift amount modulo datapath width).
    Shl,
    /// `dest1 = src1 >> src2` logical.
    Shr,
    /// `dest1 = src1 >> src2` arithmetic.
    Shra,
    /// `dest1 = min(src1, src2)` signed.
    Min,
    /// `dest1 = max(src1, src2)` signed.
    Max,
    /// `dest1 = |src1|` signed (src2 ignored).
    Abs,
    /// Sign-extend the low byte of `src1`.
    Sxtb,
    /// Sign-extend the low half-word of `src1`.
    Sxth,
    /// Zero-extend the low byte of `src1`.
    Zxtb,
    /// Zero-extend the low half-word of `src1`.
    Zxth,
    /// `dest1 = src1` (register move or short literal).
    Move,
    /// `dest1 = <long literal>`: the raw `SRC1:SRC2` fields hold one
    /// datapath-width constant.
    Movil,

    // --- CMPU class ----------------------------------------------------
    /// Compare-to-predicate: `dest1 = (src1 <cond> src2)`,
    /// `dest2 = !(src1 <cond> src2)`.
    Cmp(CmpCond),
    /// Set predicate `dest1` to 1.
    PredSet,
    /// Clear predicate `dest1` to 0.
    PredClr,
    /// `dest1(pred) = src1(gpr) != 0` — move GPR truth value to predicate.
    MovGp,
    /// `dest1(gpr) = src1(pred)` — move a predicate into a GPR as 0/1.
    MovPg,

    // --- LSU class -----------------------------------------------------
    /// Load word at `src1 + src2`.
    Lw,
    /// Load half-word (sign-extended).
    Lh,
    /// Load half-word (zero-extended).
    Lhu,
    /// Load byte (sign-extended).
    Lb,
    /// Load byte (zero-extended).
    Lbu,
    /// Speculative load word: like [`Opcode::Lw`] but out-of-range
    /// addresses yield 0 instead of a fault (HPL-PD dismissible load).
    LwS,
    /// Store word: register named by `DEST1` to `src1 + src2`.
    Sw,
    /// Store half-word.
    Sh,
    /// Store byte.
    Sb,

    // --- BRU class -----------------------------------------------------
    /// Prepare-to-branch: load branch target register `dest1` with the
    /// bundle address `src1` ("destination addresses … calculated in
    /// advance", paper §3.2).
    Pbr,
    /// Unconditional branch through BTR `src1`.
    Br,
    /// Branch through BTR `src1` when the guard predicate is true.
    ///
    /// For `BRCT` the `PRED` field *is* the tested condition, as in
    /// HPL-PD's branch-on-condition-true.
    Brct,
    /// Branch through BTR `src1` when the guard predicate is false.
    Brcf,
    /// Branch-and-link through BTR `src1`, writing the return bundle
    /// address to GPR `dest1` (procedure call).
    Brl,
    /// Stop the processor (end of program).
    Halt,

    // --- miscellaneous -------------------------------------------------
    /// No operation (issue-slot filler emitted by the assembler).
    Nop,

    // --- custom --------------------------------------------------------
    /// Custom ALU operation `n`, resolved through the configuration's
    /// custom-op registry.
    Custom(u16),
}

/// Operand kind accepted by a source field.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SrcKind {
    /// Field unused (encoded as zero).
    None,
    /// A GPR index or a short literal, at the encoder's discretion.
    GprOrLit,
    /// A branch-target-register index.
    Btr,
    /// A predicate-register index.
    Pred,
    /// Half of a raw long literal (`MOVIL`).
    LongLit,
}

/// Operand kind carried by a destination field.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DestKind {
    /// Field unused (encoded as zero).
    None,
    /// A GPR that is written.
    Gpr,
    /// A predicate register that is written (`p0` discards).
    Pred,
    /// A branch target register that is written.
    Btr,
    /// A GPR that is *read* — the data source of a store. The fixed
    /// format has no third source field, so stores name their data
    /// register in `DEST1`, exactly as width-limited VLIW encodings do.
    GprRead,
}

/// The field signature of an opcode: which operand kinds its four operand
/// fields carry. Encoders, decoders, the assembler and the bundle checker
/// all consult this single table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct OpSignature {
    /// Executing unit; `None` for `NOP`, which consumes only an issue slot.
    pub unit: Option<Unit>,
    /// Kind of the `DEST1` field.
    pub dest1: DestKind,
    /// Kind of the `DEST2` field.
    pub dest2: DestKind,
    /// Kind of the `SRC1` field.
    pub src1: SrcKind,
    /// Kind of the `SRC2` field.
    pub src2: SrcKind,
}

const ALU_ORDINALS: [Opcode; 20] = [
    Opcode::Add,
    Opcode::Sub,
    Opcode::Mull,
    Opcode::Div,
    Opcode::Rem,
    Opcode::And,
    Opcode::Or,
    Opcode::Xor,
    Opcode::Shl,
    Opcode::Shr,
    Opcode::Shra,
    Opcode::Min,
    Opcode::Max,
    Opcode::Abs,
    Opcode::Sxtb,
    Opcode::Sxth,
    Opcode::Zxtb,
    Opcode::Zxth,
    Opcode::Move,
    Opcode::Movil,
];

const CMPU_EXTRA_ORDINALS: [Opcode; 4] = [
    Opcode::PredSet,
    Opcode::PredClr,
    Opcode::MovGp,
    Opcode::MovPg,
];

const LSU_ORDINALS: [Opcode; 9] = [
    Opcode::Lw,
    Opcode::Lh,
    Opcode::Lhu,
    Opcode::Lb,
    Opcode::Lbu,
    Opcode::LwS,
    Opcode::Sw,
    Opcode::Sh,
    Opcode::Sb,
];

const BRU_ORDINALS: [Opcode; 6] = [
    Opcode::Pbr,
    Opcode::Br,
    Opcode::Brct,
    Opcode::Brcf,
    Opcode::Brl,
    Opcode::Halt,
];

/// Opcode-class tags occupying the top 3 bits of the 15-bit opcode field.
const CLASS_ALU: u16 = 0;
const CLASS_CMPU: u16 = 1;
const CLASS_LSU: u16 = 2;
const CLASS_BRU: u16 = 3;
const CLASS_MISC: u16 = 4;
const CLASS_CUSTOM: u16 = 5;

fn to_gray(n: u16) -> u16 {
    n ^ (n >> 1)
}

fn from_gray(g: u16) -> u16 {
    let mut n = g;
    let mut shift = 1;
    while shift < 16 {
        n ^= n >> shift;
        shift <<= 1;
    }
    n
}

impl Opcode {
    /// Every non-custom opcode, in encoding order.
    #[must_use]
    pub fn all_fixed() -> Vec<Opcode> {
        let mut ops = Vec::new();
        ops.extend_from_slice(&ALU_ORDINALS);
        ops.extend(CmpCond::ALL.into_iter().map(Opcode::Cmp));
        ops.extend_from_slice(&CMPU_EXTRA_ORDINALS);
        ops.extend_from_slice(&LSU_ORDINALS);
        ops.extend_from_slice(&BRU_ORDINALS);
        ops.push(Opcode::Nop);
        ops
    }

    fn class_and_ordinal(self) -> (u16, u16) {
        match self {
            Opcode::Cmp(cond) => (
                CLASS_CMPU,
                CmpCond::ALL
                    .iter()
                    .position(|c| *c == cond)
                    .expect("known cond") as u16,
            ),
            Opcode::PredSet => (CLASS_CMPU, 10),
            Opcode::PredClr => (CLASS_CMPU, 11),
            Opcode::MovGp => (CLASS_CMPU, 12),
            Opcode::MovPg => (CLASS_CMPU, 13),
            Opcode::Nop => (CLASS_MISC, 0),
            Opcode::Custom(i) => (CLASS_CUSTOM, i),
            other => {
                if let Some(i) = ALU_ORDINALS.iter().position(|o| *o == other) {
                    (CLASS_ALU, i as u16)
                } else if let Some(i) = LSU_ORDINALS.iter().position(|o| *o == other) {
                    (CLASS_LSU, i as u16)
                } else if let Some(i) = BRU_ORDINALS.iter().position(|o| *o == other) {
                    (CLASS_BRU, i as u16)
                } else {
                    unreachable!("opcode {other:?} missing from ordinal tables")
                }
            }
        }
    }

    /// The binary value of the `OPCODE` field.
    ///
    /// The top 3 bits carry the functional-unit class and the low 12 bits
    /// the Gray-coded ordinal within the class, so that opcodes "of the
    /// same type" sit at Hamming distance 1 from their ordinal neighbours
    /// (paper §3.1).
    #[must_use]
    pub fn encoding(self) -> u16 {
        let (class, ordinal) = self.class_and_ordinal();
        (class << 12) | (to_gray(ordinal) & 0x0FFF)
    }

    /// Decodes an `OPCODE` field value.
    ///
    /// # Errors
    ///
    /// Returns [`IsaError::UnknownOpcode`] when the value names no
    /// operation (custom ordinals are validated against the configuration
    /// by the full instruction decoder, not here).
    pub fn from_encoding(value: u16) -> Result<Opcode, IsaError> {
        let class = value >> 12;
        let ordinal = from_gray(value & 0x0FFF);
        let unknown = || IsaError::UnknownOpcode { value };
        match class {
            CLASS_ALU => ALU_ORDINALS
                .get(ordinal as usize)
                .copied()
                .ok_or_else(unknown),
            CLASS_CMPU => match ordinal {
                0..=9 => Ok(Opcode::Cmp(CmpCond::ALL[ordinal as usize])),
                10..=13 => Ok(CMPU_EXTRA_ORDINALS[ordinal as usize - 10]),
                _ => Err(unknown()),
            },
            CLASS_LSU => LSU_ORDINALS
                .get(ordinal as usize)
                .copied()
                .ok_or_else(unknown),
            CLASS_BRU => BRU_ORDINALS
                .get(ordinal as usize)
                .copied()
                .ok_or_else(unknown),
            CLASS_MISC if ordinal == 0 => Ok(Opcode::Nop),
            CLASS_CUSTOM => Ok(Opcode::Custom(ordinal)),
            _ => Err(unknown()),
        }
    }

    /// The field signature of this opcode.
    #[must_use]
    pub fn signature(self) -> OpSignature {
        use DestKind as D;
        use SrcKind as S;
        let sig = |unit, dest1, dest2, src1, src2| OpSignature {
            unit,
            dest1,
            dest2,
            src1,
            src2,
        };
        match self {
            Opcode::Add
            | Opcode::Sub
            | Opcode::Mull
            | Opcode::Div
            | Opcode::Rem
            | Opcode::And
            | Opcode::Or
            | Opcode::Xor
            | Opcode::Shl
            | Opcode::Shr
            | Opcode::Shra
            | Opcode::Min
            | Opcode::Max => sig(Some(Unit::Alu), D::Gpr, D::None, S::GprOrLit, S::GprOrLit),
            Opcode::Abs
            | Opcode::Sxtb
            | Opcode::Sxth
            | Opcode::Zxtb
            | Opcode::Zxth
            | Opcode::Move => sig(Some(Unit::Alu), D::Gpr, D::None, S::GprOrLit, S::None),
            Opcode::Movil => sig(Some(Unit::Alu), D::Gpr, D::None, S::LongLit, S::LongLit),
            Opcode::Cmp(_) => sig(Some(Unit::Cmpu), D::Pred, D::Pred, S::GprOrLit, S::GprOrLit),
            Opcode::PredSet | Opcode::PredClr => {
                sig(Some(Unit::Cmpu), D::Pred, D::None, S::None, S::None)
            }
            Opcode::MovGp => sig(Some(Unit::Cmpu), D::Pred, D::None, S::GprOrLit, S::None),
            Opcode::MovPg => sig(Some(Unit::Cmpu), D::Gpr, D::None, S::Pred, S::None),
            Opcode::Lw | Opcode::Lh | Opcode::Lhu | Opcode::Lb | Opcode::Lbu | Opcode::LwS => {
                sig(Some(Unit::Lsu), D::Gpr, D::None, S::GprOrLit, S::GprOrLit)
            }
            Opcode::Sw | Opcode::Sh | Opcode::Sb => sig(
                Some(Unit::Lsu),
                D::GprRead,
                D::None,
                S::GprOrLit,
                S::GprOrLit,
            ),
            Opcode::Pbr => sig(Some(Unit::Bru), D::Btr, D::None, S::GprOrLit, S::None),
            Opcode::Br | Opcode::Brct | Opcode::Brcf => {
                sig(Some(Unit::Bru), D::None, D::None, S::Btr, S::None)
            }
            Opcode::Brl => sig(Some(Unit::Bru), D::Gpr, D::None, S::Btr, S::None),
            Opcode::Halt => sig(Some(Unit::Bru), D::None, D::None, S::None, S::None),
            Opcode::Nop => sig(None, D::None, D::None, S::None, S::None),
            Opcode::Custom(_) => sig(Some(Unit::Alu), D::Gpr, D::None, S::GprOrLit, S::GprOrLit),
        }
    }

    /// The functional unit executing this opcode (`None` for `NOP`).
    #[must_use]
    pub fn unit(self) -> Option<Unit> {
        self.signature().unit
    }

    /// Whether this opcode redirects control flow when it commits.
    #[must_use]
    pub fn is_branch(self) -> bool {
        matches!(self, Opcode::Br | Opcode::Brct | Opcode::Brcf | Opcode::Brl)
    }

    /// Whether this opcode reads data memory.
    #[must_use]
    pub fn is_load(self) -> bool {
        matches!(
            self,
            Opcode::Lw | Opcode::Lh | Opcode::Lhu | Opcode::Lb | Opcode::Lbu | Opcode::LwS
        )
    }

    /// Whether this opcode writes data memory.
    #[must_use]
    pub fn is_store(self) -> bool {
        matches!(self, Opcode::Sw | Opcode::Sh | Opcode::Sb)
    }

    /// Result latency in processor cycles under the given configuration.
    ///
    /// Latency 1 means consumers may issue in the next bundle; loads,
    /// multiplies, divides and custom operations take their latencies from
    /// the configuration (and the machine description hands the same
    /// numbers to the scheduler).
    #[must_use]
    pub fn latency(self, config: &Config) -> u32 {
        match self {
            Opcode::Mull => config.mul_latency(),
            Opcode::Div | Opcode::Rem => config.div_latency(),
            op if op.is_load() => config.load_latency(),
            Opcode::Custom(i) => config
                .custom_ops()
                .get(i as usize)
                .map_or(1, |op| op.latency()),
            _ => 1,
        }
    }

    /// The optional ALU feature this opcode requires, if any.
    ///
    /// A configuration lacking the feature cannot execute the opcode; the
    /// assembler and compiler reject it up front (paper §3.3: unused
    /// functionality is excluded from customised ALUs).
    #[must_use]
    pub fn required_feature(self) -> Option<AluFeature> {
        match self {
            Opcode::Mull => Some(AluFeature::Multiply),
            Opcode::Div | Opcode::Rem => Some(AluFeature::Divide),
            Opcode::Shl | Opcode::Shr | Opcode::Shra => Some(AluFeature::Shifts),
            Opcode::Min | Opcode::Max | Opcode::Abs => Some(AluFeature::MinMax),
            Opcode::Sxtb | Opcode::Sxth | Opcode::Zxtb | Opcode::Zxth => Some(AluFeature::Extend),
            _ => None,
        }
    }

    /// The assembly mnemonic (custom opcodes resolve their configured
    /// name through [`Opcode::mnemonic_in`]). Fixed opcodes borrow a
    /// static string; only `CUSTOM_<n>` is formatted.
    #[must_use]
    pub fn mnemonic(self) -> Cow<'static, str> {
        let fixed = match self {
            Opcode::Add => "ADD",
            Opcode::Sub => "SUB",
            Opcode::Mull => "MULL",
            Opcode::Div => "DIV",
            Opcode::Rem => "REM",
            Opcode::And => "AND",
            Opcode::Or => "OR",
            Opcode::Xor => "XOR",
            Opcode::Shl => "SHL",
            Opcode::Shr => "SHR",
            Opcode::Shra => "SHRA",
            Opcode::Min => "MIN",
            Opcode::Max => "MAX",
            Opcode::Abs => "ABS",
            Opcode::Sxtb => "SXTB",
            Opcode::Sxth => "SXTH",
            Opcode::Zxtb => "ZXTB",
            Opcode::Zxth => "ZXTH",
            Opcode::Move => "MOVE",
            Opcode::Movil => "MOVIL",
            Opcode::Cmp(c) => match c {
                CmpCond::Eq => "CMP_EQ",
                CmpCond::Ne => "CMP_NE",
                CmpCond::Lt => "CMP_LT",
                CmpCond::Le => "CMP_LE",
                CmpCond::Gt => "CMP_GT",
                CmpCond::Ge => "CMP_GE",
                CmpCond::Ltu => "CMP_LTU",
                CmpCond::Leu => "CMP_LEU",
                CmpCond::Gtu => "CMP_GTU",
                CmpCond::Geu => "CMP_GEU",
            },
            Opcode::PredSet => "PSET",
            Opcode::PredClr => "PCLR",
            Opcode::MovGp => "MOVGP",
            Opcode::MovPg => "MOVPG",
            Opcode::Lw => "LW",
            Opcode::Lh => "LH",
            Opcode::Lhu => "LHU",
            Opcode::Lb => "LB",
            Opcode::Lbu => "LBU",
            Opcode::LwS => "LWS",
            Opcode::Sw => "SW",
            Opcode::Sh => "SH",
            Opcode::Sb => "SB",
            Opcode::Pbr => "PBR",
            Opcode::Br => "BR",
            Opcode::Brct => "BRCT",
            Opcode::Brcf => "BRCF",
            Opcode::Brl => "BRL",
            Opcode::Halt => "HALT",
            Opcode::Nop => "NOP",
            Opcode::Custom(i) => return Cow::Owned(format!("CUSTOM_{i}")),
        };
        Cow::Borrowed(fixed)
    }

    /// The assembly mnemonic, resolving custom slots to their configured
    /// names (e.g. `Custom(0)` → `sha_rotr`).
    #[must_use]
    pub fn mnemonic_in(self, config: &Config) -> Cow<'_, str> {
        match self {
            Opcode::Custom(i) => config
                .custom_ops()
                .get(i as usize)
                .map_or_else(|| self.mnemonic(), |op| Cow::Borrowed(op.name())),
            other => other.mnemonic(),
        }
    }
}

impl fmt::Display for Opcode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.mnemonic())
    }
}

/// Hamming distance between two opcode-field encodings.
#[must_use]
pub fn opcode_hamming_distance(a: Opcode, b: Opcode) -> u32 {
    (a.encoding() ^ b.encoding()).count_ones()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn encodings_are_unique() {
        let ops = Opcode::all_fixed();
        for (i, a) in ops.iter().enumerate() {
            for b in &ops[i + 1..] {
                assert_ne!(a.encoding(), b.encoding(), "{a:?} vs {b:?}");
            }
        }
    }

    #[test]
    fn encoding_round_trips() {
        for op in Opcode::all_fixed() {
            assert_eq!(Opcode::from_encoding(op.encoding()).unwrap(), op);
        }
        for i in [0u16, 1, 5, 100] {
            let op = Opcode::Custom(i);
            assert_eq!(Opcode::from_encoding(op.encoding()).unwrap(), op);
        }
    }

    #[test]
    fn unknown_encodings_are_rejected() {
        assert!(Opcode::from_encoding(0x7FFF).is_err());
        assert!(Opcode::from_encoding((CLASS_MISC << 12) | to_gray(7)).is_err());
    }

    #[test]
    fn gray_code_gives_unit_hamming_distance_within_class() {
        // The paper: "the opcode has been designed to minimise the Hamming
        // distance between two instructions of the same type". Adjacent
        // ordinals within a class must differ in exactly one bit.
        let classes: [&[Opcode]; 3] = [&ALU_ORDINALS, &LSU_ORDINALS, &BRU_ORDINALS];
        for class in classes {
            for pair in class.windows(2) {
                assert_eq!(
                    opcode_hamming_distance(pair[0], pair[1]),
                    1,
                    "{:?} -> {:?}",
                    pair[0],
                    pair[1]
                );
            }
        }
        for pair in CmpCond::ALL.windows(2) {
            assert_eq!(
                opcode_hamming_distance(Opcode::Cmp(pair[0]), Opcode::Cmp(pair[1])),
                1
            );
        }
    }

    #[test]
    fn gray_round_trip() {
        for n in 0..4096u16 {
            assert_eq!(from_gray(to_gray(n)), n);
        }
    }

    #[test]
    fn cond_negate_is_involutive_and_correct() {
        for c in CmpCond::ALL {
            assert_eq!(c.negate().negate(), c);
            assert_ne!(c.negate(), c);
        }
        assert_eq!(CmpCond::Lt.negate(), CmpCond::Ge);
        assert_eq!(CmpCond::Ltu.swap_operands(), CmpCond::Gtu);
    }

    #[test]
    fn units_match_the_datapath() {
        assert_eq!(Opcode::Add.unit(), Some(Unit::Alu));
        assert_eq!(Opcode::Cmp(CmpCond::Eq).unit(), Some(Unit::Cmpu));
        assert_eq!(Opcode::Lw.unit(), Some(Unit::Lsu));
        assert_eq!(Opcode::Br.unit(), Some(Unit::Bru));
        assert_eq!(Opcode::Nop.unit(), None);
        assert_eq!(Opcode::Custom(0).unit(), Some(Unit::Alu));
    }

    #[test]
    fn latencies_follow_configuration() {
        let config = Config::builder()
            .load_latency(3)
            .mul_latency(2)
            .div_latency(10)
            .build()
            .unwrap();
        assert_eq!(Opcode::Add.latency(&config), 1);
        assert_eq!(Opcode::Lw.latency(&config), 3);
        assert_eq!(Opcode::Mull.latency(&config), 2);
        assert_eq!(Opcode::Rem.latency(&config), 10);
    }

    #[test]
    fn required_features_cover_optional_ops() {
        assert_eq!(Opcode::Div.required_feature(), Some(AluFeature::Divide));
        assert_eq!(Opcode::Add.required_feature(), None);
        assert_eq!(Opcode::Shl.required_feature(), Some(AluFeature::Shifts));
    }

    #[test]
    fn store_signature_reads_dest1() {
        assert_eq!(Opcode::Sw.signature().dest1, DestKind::GprRead);
        assert_eq!(Opcode::Lw.signature().dest1, DestKind::Gpr);
    }

    #[test]
    fn mnemonics_are_unique() {
        let ops = Opcode::all_fixed();
        for (i, a) in ops.iter().enumerate() {
            for b in &ops[i + 1..] {
                assert_ne!(a.mnemonic(), b.mnemonic());
            }
        }
    }
}
