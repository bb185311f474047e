//! Expression trees for fused (discovered) custom instructions.
//!
//! The paper's custom-instruction axis (§3.3) is open-ended: a designer
//! drops arbitrary combinational logic into an ALU. The fixed
//! [`CustomSemantics`](crate::CustomSemantics) variants cover hand-picked
//! patterns; automatic instruction-set extension (`epic-isx`) instead
//! mines convex MISO subgraphs out of compiled dataflow and needs a
//! *composable* semantics — an [`ExprTree`] over the base ALU operations.
//! The tree is the single source of truth for a discovered op: the
//! simulator interprets it, the area model prices its nodes, the fuse
//! pass matches it against machine IR and the translation validator
//! expands it back when proving a rewrite correct.
//!
//! Node semantics mirror the simulator's scalar ALU (`eval_alu_basic` in
//! `epic-sim`) bit for bit: 32-bit wrapping arithmetic, shift counts
//! taken modulo 32, signed min/max/abs, and per-node masking to the
//! configured datapath width. Fused datapaths are 32-bit — the same
//! restriction the compiler places on generated code.

use std::fmt;

/// Operator of one interior [`ExprTree`] node.
///
/// Exactly the ALU-class opcodes the instruction-set-extension miner may
/// legally absorb: no memory, control, divide or compare operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FusedOp {
    /// Wrapping addition.
    Add,
    /// Wrapping subtraction.
    Sub,
    /// Wrapping multiplication (low half).
    Mull,
    /// Bitwise AND.
    And,
    /// Bitwise OR.
    Or,
    /// Bitwise XOR.
    Xor,
    /// Logical shift left, count modulo 32.
    Shl,
    /// Logical shift right, count modulo 32.
    Shr,
    /// Arithmetic shift right, count modulo 32.
    Shra,
    /// Signed minimum.
    Min,
    /// Signed maximum.
    Max,
    /// Signed absolute value (unary).
    Abs,
    /// Sign-extend the low byte (unary).
    Sxtb,
    /// Sign-extend the low half-word (unary).
    Sxth,
    /// Zero-extend the low byte (unary).
    Zxtb,
    /// Zero-extend the low half-word (unary).
    Zxth,
}

/// Every fused operator, in canonical order.
pub const FUSED_OPS: [FusedOp; 16] = [
    FusedOp::Add,
    FusedOp::Sub,
    FusedOp::Mull,
    FusedOp::And,
    FusedOp::Or,
    FusedOp::Xor,
    FusedOp::Shl,
    FusedOp::Shr,
    FusedOp::Shra,
    FusedOp::Min,
    FusedOp::Max,
    FusedOp::Abs,
    FusedOp::Sxtb,
    FusedOp::Sxth,
    FusedOp::Zxtb,
    FusedOp::Zxth,
];

impl FusedOp {
    /// Canonical lower-case name used in the tree's textual form.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            FusedOp::Add => "add",
            FusedOp::Sub => "sub",
            FusedOp::Mull => "mull",
            FusedOp::And => "and",
            FusedOp::Or => "or",
            FusedOp::Xor => "xor",
            FusedOp::Shl => "shl",
            FusedOp::Shr => "shr",
            FusedOp::Shra => "shra",
            FusedOp::Min => "min",
            FusedOp::Max => "max",
            FusedOp::Abs => "abs",
            FusedOp::Sxtb => "sxtb",
            FusedOp::Sxth => "sxth",
            FusedOp::Zxtb => "zxtb",
            FusedOp::Zxth => "zxth",
        }
    }

    /// Parses a canonical operator name.
    #[must_use]
    pub fn from_name(name: &str) -> Option<Self> {
        FUSED_OPS.iter().copied().find(|op| op.name() == name)
    }

    /// Whether the operator takes a single subtree.
    #[must_use]
    pub fn is_unary(self) -> bool {
        matches!(
            self,
            FusedOp::Abs | FusedOp::Sxtb | FusedOp::Sxth | FusedOp::Zxtb | FusedOp::Zxth
        )
    }

    /// Combinational gate depth used by the fused-latency model.
    ///
    /// Simple ALU operations contribute one level; the multiplier array is
    /// markedly deeper.
    #[must_use]
    pub fn gate_depth(self) -> u32 {
        match self {
            FusedOp::Mull => 3,
            _ => 1,
        }
    }

    /// Evaluates the operator on 32-bit operands, mirroring the
    /// simulator's scalar ALU semantics exactly.
    #[must_use]
    pub fn eval32(self, a: u32, b: u32) -> u32 {
        match self {
            FusedOp::Add => a.wrapping_add(b),
            FusedOp::Sub => a.wrapping_sub(b),
            FusedOp::Mull => a.wrapping_mul(b),
            FusedOp::And => a & b,
            FusedOp::Or => a | b,
            FusedOp::Xor => a ^ b,
            FusedOp::Shl => a.wrapping_shl(b),
            FusedOp::Shr => a.wrapping_shr(b),
            FusedOp::Shra => ((a as i32).wrapping_shr(b)) as u32,
            FusedOp::Min => (a as i32).min(b as i32) as u32,
            FusedOp::Max => (a as i32).max(b as i32) as u32,
            FusedOp::Abs => (a as i32).unsigned_abs(),
            FusedOp::Sxtb => a as i8 as i32 as u32,
            FusedOp::Sxth => a as i16 as i32 as u32,
            FusedOp::Zxtb => a & 0xFF,
            FusedOp::Zxth => a & 0xFFFF,
        }
    }
}

impl fmt::Display for FusedOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// An expression tree over the two custom-op source operands.
///
/// Leaves are the operands (`a0`, `a1`) and embedded literals; interior
/// nodes are [`FusedOp`]s. The canonical textual form is whitespace-free
/// (`or(shr(a0,7),shl(a0,sub(32,7)))`) so it survives the configuration
/// header's token-per-field format, and [`ExprTree::parse`] round-trips
/// [`fmt::Display`] exactly.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum ExprTree {
    /// Live-in operand 0 or 1 of the custom instruction.
    Arg(u8),
    /// A literal folded into the fused datapath.
    Lit(u32),
    /// A unary ALU node.
    Unary(FusedOp, Box<ExprTree>),
    /// A binary ALU node.
    Binary(FusedOp, Box<ExprTree>, Box<ExprTree>),
}

impl ExprTree {
    /// Evaluates the tree at the given datapath width.
    ///
    /// Node computations run on the 32-bit scalar ALU (matching the
    /// simulator's per-instruction semantics); every node's result is then
    /// masked to `width` bits, exactly as the per-instruction sequence the
    /// tree replaces would have been. Widths above 32 behave as 32 — the
    /// fused datapath is 32 bits wide.
    ///
    /// # Panics
    ///
    /// Panics if `width` is zero or greater than 64 (configurations
    /// validate the width long before evaluation).
    #[must_use]
    pub fn evaluate(&self, a: u64, b: u64, width: u32) -> u64 {
        assert!(
            width > 0 && width <= 64,
            "datapath width {width} out of range"
        );
        let mask = if width >= 32 {
            u32::MAX
        } else {
            (1u32 << width) - 1
        };
        u64::from(self.eval_masked(a as u32 & mask, b as u32 & mask, mask))
    }

    fn eval_masked(&self, a: u32, b: u32, mask: u32) -> u32 {
        match self {
            ExprTree::Arg(0) => a & mask,
            ExprTree::Arg(_) => b & mask,
            ExprTree::Lit(v) => *v & mask,
            ExprTree::Unary(op, x) => op.eval32(x.eval_masked(a, b, mask), 0) & mask,
            ExprTree::Binary(op, x, y) => {
                op.eval32(x.eval_masked(a, b, mask), y.eval_masked(a, b, mask)) & mask
            }
        }
    }

    /// Number of interior (operator) nodes — the ALU instructions the
    /// fused op replaces.
    #[must_use]
    pub fn node_count(&self) -> usize {
        match self {
            ExprTree::Arg(_) | ExprTree::Lit(_) => 0,
            ExprTree::Unary(_, x) => 1 + x.node_count(),
            ExprTree::Binary(_, x, y) => 1 + x.node_count() + y.node_count(),
        }
    }

    /// Combinational depth of the tree under the [`FusedOp::gate_depth`]
    /// model; the latency of a fused op is `max(1, depth.div_ceil(2))`.
    #[must_use]
    pub fn depth(&self) -> u32 {
        match self {
            ExprTree::Arg(_) | ExprTree::Lit(_) => 0,
            ExprTree::Unary(op, x) => op.gate_depth() + x.depth(),
            ExprTree::Binary(op, x, y) => op.gate_depth() + x.depth().max(y.depth()),
        }
    }

    /// Latency in processor cycles implied by the tree's depth: two gate
    /// levels fit in one pipeline cycle, never less than one cycle.
    #[must_use]
    pub fn latency(&self) -> u32 {
        self.depth().div_ceil(2).max(1)
    }

    /// Whether the tree references operand `idx` (0 or 1).
    #[must_use]
    pub fn uses_arg(&self, idx: u8) -> bool {
        match self {
            ExprTree::Arg(i) => *i == idx,
            ExprTree::Lit(_) => false,
            ExprTree::Unary(_, x) => x.uses_arg(idx),
            ExprTree::Binary(_, x, y) => x.uses_arg(idx) || y.uses_arg(idx),
        }
    }

    /// Parses the canonical whitespace-free textual form.
    ///
    /// Accepts exactly what [`fmt::Display`] produces: `a0`/`a1` leaves,
    /// decimal `u32` literals, `op(x)` unary and `op(x,y)` binary nodes,
    /// nested at most 256 operators deep. Deeper text is rejected, so a
    /// hostile configuration header cannot exhaust the stack.
    #[must_use]
    pub fn parse(s: &str) -> Option<Self> {
        let bytes = s.as_bytes();
        let (tree, used) = parse_expr(bytes, 0, MAX_NESTING)?;
        if used == bytes.len() {
            Some(tree)
        } else {
            None
        }
    }
}

/// Deepest operator nesting [`ExprTree::parse`] accepts; the miner's
/// trees have at most 16 nodes.
const MAX_NESTING: usize = 256;

/// Parses one tree at `at` whose operators nest at most `nesting` deep.
fn parse_expr(bytes: &[u8], at: usize, nesting: usize) -> Option<(ExprTree, usize)> {
    let rest = bytes.get(at..)?;
    if rest.starts_with(b"a0") && !ident_continues(bytes, at + 2) {
        return Some((ExprTree::Arg(0), at + 2));
    }
    if rest.starts_with(b"a1") && !ident_continues(bytes, at + 2) {
        return Some((ExprTree::Arg(1), at + 2));
    }
    if rest.first().is_some_and(u8::is_ascii_digit) {
        let end = at + rest.iter().take_while(|b| b.is_ascii_digit()).count();
        let text = std::str::from_utf8(&bytes[at..end]).ok()?;
        return Some((ExprTree::Lit(text.parse().ok()?), end));
    }
    let name_len = rest.iter().take_while(|b| b.is_ascii_lowercase()).count();
    let op = FusedOp::from_name(std::str::from_utf8(&rest[..name_len]).ok()?)?;
    let nesting = nesting.checked_sub(1)?;
    let mut pos = at + name_len;
    if bytes.get(pos) != Some(&b'(') {
        return None;
    }
    pos += 1;
    let (lhs, next) = parse_expr(bytes, pos, nesting)?;
    pos = next;
    let tree = if op.is_unary() {
        ExprTree::Unary(op, Box::new(lhs))
    } else {
        if bytes.get(pos) != Some(&b',') {
            return None;
        }
        let (rhs, next) = parse_expr(bytes, pos + 1, nesting)?;
        pos = next;
        ExprTree::Binary(op, Box::new(lhs), Box::new(rhs))
    };
    if bytes.get(pos) != Some(&b')') {
        return None;
    }
    Some((tree, pos + 1))
}

fn ident_continues(bytes: &[u8], at: usize) -> bool {
    bytes
        .get(at)
        .is_some_and(|b| b.is_ascii_alphanumeric() || *b == b'_')
}

impl fmt::Display for ExprTree {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExprTree::Arg(i) => write!(f, "a{i}"),
            ExprTree::Lit(v) => write!(f, "{v}"),
            ExprTree::Unary(op, x) => write!(f, "{op}({x})"),
            ExprTree::Binary(op, x, y) => write!(f, "{op}({x},{y})"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rotr7() -> ExprTree {
        // or(shr(a0,7),shl(a0,sub(32,7))) — the selector's rotate expansion.
        ExprTree::Binary(
            FusedOp::Or,
            Box::new(ExprTree::Binary(
                FusedOp::Shr,
                Box::new(ExprTree::Arg(0)),
                Box::new(ExprTree::Lit(7)),
            )),
            Box::new(ExprTree::Binary(
                FusedOp::Shl,
                Box::new(ExprTree::Arg(0)),
                Box::new(ExprTree::Binary(
                    FusedOp::Sub,
                    Box::new(ExprTree::Lit(32)),
                    Box::new(ExprTree::Lit(7)),
                )),
            )),
        )
    }

    #[test]
    fn display_round_trips_through_parse() {
        let tree = rotr7();
        let text = tree.to_string();
        assert_eq!(text, "or(shr(a0,7),shl(a0,sub(32,7)))");
        assert_eq!(ExprTree::parse(&text), Some(tree));
    }

    #[test]
    fn parse_rejects_trailing_garbage_and_bad_arity() {
        assert_eq!(ExprTree::parse("a0)"), None);
        assert_eq!(ExprTree::parse("add(a0)"), None);
        assert_eq!(ExprTree::parse("abs(a0,a1)"), None);
        assert_eq!(ExprTree::parse("frob(a0,a1)"), None);
        assert_eq!(ExprTree::parse(""), None);
    }

    #[test]
    fn parse_rejects_nesting_past_the_bound() {
        let nested = |levels: usize| format!("{}a0{}", "abs(".repeat(levels), ")".repeat(levels));
        assert_eq!(
            ExprTree::parse(&nested(MAX_NESTING)).map(|tree| tree.node_count()),
            Some(MAX_NESTING)
        );
        assert_eq!(ExprTree::parse(&nested(MAX_NESTING + 1)), None);
        // Deep enough to overflow the stack of an unbounded descent.
        assert_eq!(ExprTree::parse(&nested(100_000)), None);
    }

    #[test]
    fn evaluates_like_a_rotate() {
        let tree = rotr7();
        let x = 0xDEAD_BEEFu64;
        assert_eq!(
            tree.evaluate(x, 0, 32),
            u64::from((x as u32).rotate_right(7))
        );
    }

    #[test]
    fn narrow_widths_mask_every_node() {
        // shl(a0,4) at width 8: the shift result loses its high bits at
        // the node, exactly as the masked per-instruction sequence would.
        let tree = ExprTree::Binary(
            FusedOp::Shl,
            Box::new(ExprTree::Arg(0)),
            Box::new(ExprTree::Lit(4)),
        );
        assert_eq!(tree.evaluate(0xFF, 0, 8), 0xF0);
    }

    #[test]
    fn depth_and_latency_model() {
        assert_eq!(rotr7().depth(), 3);
        assert_eq!(rotr7().latency(), 2);
        assert_eq!(ExprTree::Arg(0).latency(), 1);
        let mul = ExprTree::Binary(
            FusedOp::Mull,
            Box::new(ExprTree::Arg(0)),
            Box::new(ExprTree::Arg(1)),
        );
        assert_eq!(mul.depth(), 3);
        assert_eq!(mul.latency(), 2);
    }

    #[test]
    fn arg_usage_is_reported() {
        assert!(rotr7().uses_arg(0));
        assert!(!rotr7().uses_arg(1));
    }

    #[test]
    fn every_op_name_round_trips() {
        for op in FUSED_OPS {
            assert_eq!(FusedOp::from_name(op.name()), Some(op));
        }
        assert_eq!(FusedOp::from_name("div"), None);
    }
}
