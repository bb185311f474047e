//! The processor configuration itself.

use crate::{
    ConfigBuilder, ConfigError, CustomOp, InstructionFormat, MAX_ISSUE_WIDTH, REGFILE_OPS_PER_CYCLE,
};
use std::fmt;

/// Optional capability of the arithmetic-logic units.
///
/// §3.3 of the paper: "ALUs do not need to support division if this
/// operation is not required by the particular application program" —
/// excluding unused functionality is how customised designs save area.
/// The baseline ALU always provides addition, subtraction, logic and moves;
/// everything else is a feature that can be dropped.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
#[non_exhaustive]
pub enum AluFeature {
    /// Integer multiplication (mapped onto block multipliers on Virtex-II).
    Multiply,
    /// Integer division and remainder (an iterative, multi-cycle unit).
    Divide,
    /// Shift operations (logical and arithmetic).
    Shifts,
    /// Minimum/maximum/absolute-value operations.
    MinMax,
    /// Sub-word sign/zero extension (byte and half-word).
    Extend,
}

impl AluFeature {
    /// All known features, in canonical order.
    pub const ALL: [AluFeature; 5] = [
        AluFeature::Multiply,
        AluFeature::Divide,
        AluFeature::Shifts,
        AluFeature::MinMax,
        AluFeature::Extend,
    ];

    /// Configuration-header name of the feature.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            AluFeature::Multiply => "MUL",
            AluFeature::Divide => "DIV",
            AluFeature::Shifts => "SHIFT",
            AluFeature::MinMax => "MINMAX",
            AluFeature::Extend => "EXTEND",
        }
    }

    /// Parses a configuration-header feature name.
    #[must_use]
    pub fn from_name(name: &str) -> Option<Self> {
        Some(match name {
            "MUL" => AluFeature::Multiply,
            "DIV" => AluFeature::Divide,
            "SHIFT" => AluFeature::Shifts,
            "MINMAX" => AluFeature::MinMax,
            "EXTEND" => AluFeature::Extend,
            _ => return None,
        })
    }
}

impl fmt::Display for AluFeature {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// The set of optional capabilities compiled into the ALUs.
///
/// # Examples
///
/// ```
/// use epic_config::{AluFeature, AluFeatureSet};
///
/// let mut set = AluFeatureSet::full();
/// set.remove(AluFeature::Divide); // this application never divides
/// assert!(!set.contains(AluFeature::Divide));
/// assert!(set.contains(AluFeature::Multiply));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct AluFeatureSet {
    bits: u8,
}

impl AluFeatureSet {
    fn bit(feature: AluFeature) -> u8 {
        match feature {
            AluFeature::Multiply => 1 << 0,
            AluFeature::Divide => 1 << 1,
            AluFeature::Shifts => 1 << 2,
            AluFeature::MinMax => 1 << 3,
            AluFeature::Extend => 1 << 4,
        }
    }

    /// A set with every optional feature enabled (the paper's default).
    #[must_use]
    pub fn full() -> Self {
        let mut set = AluFeatureSet { bits: 0 };
        for f in AluFeature::ALL {
            set.insert(f);
        }
        set
    }

    /// A set with no optional features: add/sub/logic/move only.
    #[must_use]
    pub fn minimal() -> Self {
        AluFeatureSet { bits: 0 }
    }

    /// Enables a feature.
    pub fn insert(&mut self, feature: AluFeature) {
        self.bits |= Self::bit(feature);
    }

    /// Disables a feature.
    pub fn remove(&mut self, feature: AluFeature) {
        self.bits &= !Self::bit(feature);
    }

    /// Whether a feature is enabled.
    #[must_use]
    pub fn contains(&self, feature: AluFeature) -> bool {
        self.bits & Self::bit(feature) != 0
    }

    /// Iterates over the enabled features in canonical order.
    pub fn iter(&self) -> impl Iterator<Item = AluFeature> + '_ {
        AluFeature::ALL.into_iter().filter(|f| self.contains(*f))
    }

    /// Number of enabled features.
    #[must_use]
    pub fn len(&self) -> usize {
        self.bits.count_ones() as usize
    }

    /// Whether no optional feature is enabled.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.bits == 0
    }
}

impl Default for AluFeatureSet {
    fn default() -> Self {
        AluFeatureSet::full()
    }
}

impl FromIterator<AluFeature> for AluFeatureSet {
    fn from_iter<I: IntoIterator<Item = AluFeature>>(iter: I) -> Self {
        let mut set = AluFeatureSet::minimal();
        for f in iter {
            set.insert(f);
        }
        set
    }
}

impl fmt::Display for AluFeatureSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut first = true;
        for feature in self.iter() {
            if !first {
                f.write_str("|")?;
            }
            first = false;
            f.write_str(feature.name())?;
        }
        if first {
            f.write_str("NONE")?;
        }
        Ok(())
    }
}

/// A complete, validated processor configuration.
///
/// Instances are immutable; construct them through [`Config::builder`] or
/// parse them from a configuration header with
/// [`header::parse`](crate::header::parse). Every tool in the workspace —
/// the compiler's machine description, the assembler's encoder and the
/// cycle-level simulator — is instantiated from the same `Config`, just as
/// the paper's hardware, assembler and HMDES file are all generated from
/// one configuration header (§3.3, §4).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Config {
    pub(crate) num_alus: usize,
    pub(crate) num_gprs: usize,
    pub(crate) num_pred_regs: usize,
    pub(crate) num_btrs: usize,
    pub(crate) registers_per_instruction: usize,
    pub(crate) issue_width: usize,
    pub(crate) datapath_width: u32,
    pub(crate) alu_features: AluFeatureSet,
    pub(crate) custom_ops: Vec<CustomOp>,
    pub(crate) load_latency: u32,
    pub(crate) mul_latency: u32,
    pub(crate) div_latency: u32,
    pub(crate) forwarding: bool,
    pub(crate) memory_contention: bool,
    pub(crate) pipeline_stages: usize,
    pub(crate) regfile_ops_per_cycle: usize,
    pub(crate) format: InstructionFormat,
}

impl Config {
    /// Starts building a configuration from the paper's defaults.
    #[must_use]
    pub fn builder() -> ConfigBuilder {
        ConfigBuilder::new()
    }

    /// Number of parallel arithmetic-logic units (paper default: 4).
    #[must_use]
    pub fn num_alus(&self) -> usize {
        self.num_alus
    }

    /// Number of general-purpose registers (paper default: 64).
    #[must_use]
    pub fn num_gprs(&self) -> usize {
        self.num_gprs
    }

    /// Number of one-bit predicate registers (paper default: 32).
    ///
    /// Predicate register 0 is hard-wired true: an instruction whose
    /// `PRED` field is 0 always commits.
    #[must_use]
    pub fn num_pred_regs(&self) -> usize {
        self.num_pred_regs
    }

    /// Number of branch target registers (paper default: 16).
    #[must_use]
    pub fn num_btrs(&self) -> usize {
        self.num_btrs
    }

    /// Registers nameable by a single instruction (1..=4, paper §3.3).
    #[must_use]
    pub fn registers_per_instruction(&self) -> usize {
        self.registers_per_instruction
    }

    /// Instructions issued per cycle (1..=4, bounded by memory bandwidth).
    #[must_use]
    pub fn issue_width(&self) -> usize {
        self.issue_width
    }

    /// Width of the datapath and registers in bits (paper default: 32).
    #[must_use]
    pub fn datapath_width(&self) -> u32 {
        self.datapath_width
    }

    /// Optional functionality compiled into the ALUs.
    #[must_use]
    pub fn alu_features(&self) -> AluFeatureSet {
        self.alu_features
    }

    /// Custom instructions registered with this configuration.
    #[must_use]
    pub fn custom_ops(&self) -> &[CustomOp] {
        &self.custom_ops
    }

    /// Looks up a custom operation by its (case-sensitive) name.
    #[must_use]
    pub fn custom_op(&self, name: &str) -> Option<&CustomOp> {
        self.custom_ops.iter().find(|op| op.name() == name)
    }

    /// Cycles from issuing a load until its result is available.
    #[must_use]
    pub fn load_latency(&self) -> u32 {
        self.load_latency
    }

    /// Cycles from issuing a multiply until its result is available.
    #[must_use]
    pub fn mul_latency(&self) -> u32 {
        self.mul_latency
    }

    /// Cycles from issuing a divide/remainder until its result is available.
    #[must_use]
    pub fn div_latency(&self) -> u32 {
        self.div_latency
    }

    /// Whether the register-file controller forwards freshly produced
    /// results to consumers in the next cycle (paper §3.2).
    #[must_use]
    pub fn forwarding(&self) -> bool {
        self.forwarding
    }

    /// Pipeline depth in stages (2..=4; the prototype is 2-stage).
    ///
    /// "Current and future work includes parameterising the level of
    /// pipelining" (paper §6). Extra stages lengthen the taken-branch
    /// flush by one cycle each but shorten the critical path, raising the
    /// achievable clock (see the area model's clock estimate).
    #[must_use]
    pub fn pipeline_stages(&self) -> usize {
        self.pipeline_stages
    }

    /// Whether data accesses contend with instruction fetch for the
    /// shared memory controller.
    ///
    /// The 2× controller over four 32-bit banks delivers exactly the
    /// 256 bits per cycle a 4-wide fetch consumes (§3.2), so every data
    /// access displaces half a processor cycle of fetch bandwidth. On by
    /// default; disable to model split instruction/data memories.
    #[must_use]
    pub fn memory_contention(&self) -> bool {
        self.memory_contention
    }

    /// Register-file read+write operations available per processor cycle.
    ///
    /// The paper's dual-port register file behind a 4× controller yields
    /// [`REGFILE_OPS_PER_CYCLE`] = 8; the parameter is exposed so the
    /// design choice can be ablated.
    #[must_use]
    pub fn regfile_ops_per_cycle(&self) -> usize {
        self.regfile_ops_per_cycle
    }

    /// The derived instruction format (Fig. 1 field widths).
    #[must_use]
    pub fn instruction_format(&self) -> &InstructionFormat {
        &self.format
    }

    /// Largest value representable in the datapath, as a mask.
    #[must_use]
    pub fn datapath_mask(&self) -> u64 {
        if self.datapath_width == 64 {
            u64::MAX
        } else {
            (1u64 << self.datapath_width) - 1
        }
    }

    pub(crate) fn validate(&self) -> Result<(), ConfigError> {
        fn range(
            parameter: &'static str,
            value: usize,
            min: usize,
            max: usize,
        ) -> Result<(), ConfigError> {
            if value < min || value > max {
                Err(ConfigError::OutOfRange {
                    parameter,
                    value,
                    min,
                    max,
                })
            } else {
                Ok(())
            }
        }

        range("num_alus", self.num_alus, 1, 16)?;
        range("num_gprs", self.num_gprs, 2, 1 << 12)?;
        range("num_pred_regs", self.num_pred_regs, 1, 1 << 12)?;
        range("num_btrs", self.num_btrs, 1, 1 << 12)?;
        range("issue_width", self.issue_width, 1, MAX_ISSUE_WIDTH)?;
        range("datapath_width", self.datapath_width as usize, 8, 64)?;
        range("pipeline_stages", self.pipeline_stages, 2, 4)?;
        range(
            "regfile_ops_per_cycle",
            self.regfile_ops_per_cycle,
            2,
            4 * REGFILE_OPS_PER_CYCLE,
        )?;
        if !(1..=4).contains(&self.registers_per_instruction) {
            return Err(ConfigError::RegistersPerInstruction {
                value: self.registers_per_instruction,
            });
        }
        if !self.datapath_width.is_multiple_of(8) {
            return Err(ConfigError::OutOfRange {
                parameter: "datapath_width (must be a multiple of 8)",
                value: self.datapath_width as usize,
                min: 8,
                max: 64,
            });
        }
        let literal_bits = 2 * self.format.src_bits();
        if (literal_bits as u32) < self.datapath_width {
            return Err(ConfigError::LiteralTooNarrow {
                literal_bits,
                datapath_width: self.datapath_width as usize,
            });
        }
        for (i, op) in self.custom_ops.iter().enumerate() {
            if self.custom_ops[..i].iter().any(|o| o.name() == op.name()) {
                return Err(ConfigError::DuplicateCustomOp {
                    name: op.name().to_owned(),
                });
            }
        }
        Ok(())
    }
}

impl Default for Config {
    /// The paper's default machine (§3.3): 4 ALUs, 64 GPRs, 32 predicate
    /// registers, 16 BTRs, 4 instructions per issue, 32-bit datapath, all
    /// ALU features, result forwarding on.
    fn default() -> Self {
        ConfigBuilder::new()
            .build()
            .expect("default configuration is valid")
    }
}

impl fmt::Display for Config {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "EPIC[{} ALU, {} GPR, {} PR, {} BTR, issue {}, {}-bit]",
            self.num_alus,
            self.num_gprs,
            self.num_pred_regs,
            self.num_btrs,
            self.issue_width,
            self.datapath_width
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_the_paper() {
        let c = Config::default();
        assert_eq!(c.num_alus(), 4);
        assert_eq!(c.num_gprs(), 64);
        assert_eq!(c.num_pred_regs(), 32);
        assert_eq!(c.num_btrs(), 16);
        assert_eq!(c.issue_width(), 4);
        assert_eq!(c.datapath_width(), 32);
        assert_eq!(c.regfile_ops_per_cycle(), 8);
        assert!(c.forwarding());
        assert_eq!(c.instruction_format().width_bits(), 64);
    }

    #[test]
    fn issue_width_bounded_by_memory_bandwidth() {
        let err = Config::builder().issue_width(5).build().unwrap_err();
        assert!(matches!(
            err,
            ConfigError::OutOfRange {
                parameter: "issue_width",
                ..
            }
        ));
    }

    #[test]
    fn feature_set_round_trips_through_iterator() {
        let set: AluFeatureSet = [AluFeature::Multiply, AluFeature::Shifts]
            .into_iter()
            .collect();
        assert!(set.contains(AluFeature::Multiply));
        assert!(!set.contains(AluFeature::Divide));
        assert_eq!(set.iter().count(), 2);
        assert_eq!(set.to_string(), "MUL|SHIFT");
        assert_eq!(AluFeatureSet::minimal().to_string(), "NONE");
    }

    #[test]
    fn duplicate_custom_ops_rejected() {
        use crate::{CustomOp, CustomSemantics};
        let err = Config::builder()
            .custom_op(CustomOp::new("r", CustomSemantics::RotateRight))
            .custom_op(CustomOp::new("r", CustomSemantics::RotateLeft))
            .build()
            .unwrap_err();
        assert!(matches!(err, ConfigError::DuplicateCustomOp { .. }));
    }

    #[test]
    fn datapath_mask_matches_width() {
        let c = Config::builder().datapath_width(16).build().unwrap();
        assert_eq!(c.datapath_mask(), 0xFFFF);
        let c = Config::default();
        assert_eq!(c.datapath_mask(), 0xFFFF_FFFF);
    }

    #[test]
    fn display_is_compact() {
        assert_eq!(
            Config::default().to_string(),
            "EPIC[4 ALU, 64 GPR, 32 PR, 16 BTR, issue 4, 32-bit]"
        );
    }
}
