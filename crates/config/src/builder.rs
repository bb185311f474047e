//! Builder for [`Config`].

use crate::{
    AluFeatureSet, Config, ConfigError, CustomOp, InstructionFormat, REGFILE_OPS_PER_CYCLE,
};

/// Incrementally configures a [`Config`], starting from the paper's
/// defaults (§3.3: 4 ALUs, 64 GPRs, 32 predicate registers, 16 BTRs,
/// 4 instructions per issue, 32-bit datapath and registers).
///
/// The terminal [`build`](ConfigBuilder::build) validates every constraint
/// and derives the instruction format.
///
/// # Examples
///
/// ```
/// use epic_config::{AluFeature, Config};
///
/// let config = Config::builder()
///     .num_alus(2)
///     .num_gprs(32)
///     .without_alu_feature(AluFeature::Divide)
///     .build()?;
/// assert_eq!(config.num_alus(), 2);
/// # Ok::<(), epic_config::ConfigError>(())
/// ```
#[derive(Debug, Clone)]
pub struct ConfigBuilder {
    num_alus: usize,
    num_gprs: usize,
    num_pred_regs: usize,
    num_btrs: usize,
    registers_per_instruction: usize,
    issue_width: usize,
    datapath_width: u32,
    alu_features: AluFeatureSet,
    custom_ops: Vec<CustomOp>,
    load_latency: u32,
    mul_latency: u32,
    div_latency: u32,
    forwarding: bool,
    memory_contention: bool,
    pipeline_stages: usize,
    regfile_ops_per_cycle: usize,
}

impl ConfigBuilder {
    /// Creates a builder primed with the paper's default parameters.
    #[must_use]
    pub fn new() -> Self {
        ConfigBuilder {
            num_alus: 4,
            num_gprs: 64,
            num_pred_regs: 32,
            num_btrs: 16,
            registers_per_instruction: 4,
            issue_width: 4,
            datapath_width: 32,
            alu_features: AluFeatureSet::full(),
            custom_ops: Vec::new(),
            load_latency: 2,
            mul_latency: 1,
            div_latency: 8,
            forwarding: true,
            memory_contention: true,
            pipeline_stages: 2,
            regfile_ops_per_cycle: REGFILE_OPS_PER_CYCLE,
        }
    }

    /// Sets the number of parallel ALUs (the paper evaluates 1..=4).
    #[must_use]
    pub fn num_alus(mut self, n: usize) -> Self {
        self.num_alus = n;
        self
    }

    /// Sets the number of general-purpose registers.
    #[must_use]
    pub fn num_gprs(mut self, n: usize) -> Self {
        self.num_gprs = n;
        self
    }

    /// Sets the number of one-bit predicate registers.
    #[must_use]
    pub fn num_pred_regs(mut self, n: usize) -> Self {
        self.num_pred_regs = n;
        self
    }

    /// Sets the number of branch target registers.
    #[must_use]
    pub fn num_btrs(mut self, n: usize) -> Self {
        self.num_btrs = n;
        self
    }

    /// Sets how many registers a single instruction may name (1..=4).
    #[must_use]
    pub fn registers_per_instruction(mut self, n: usize) -> Self {
        self.registers_per_instruction = n;
        self
    }

    /// Sets the number of instructions issued per cycle (1..=4).
    #[must_use]
    pub fn issue_width(mut self, n: usize) -> Self {
        self.issue_width = n;
        self
    }

    /// Sets the datapath and register width in bits (8..=64, byte-aligned).
    #[must_use]
    pub fn datapath_width(mut self, bits: u32) -> Self {
        self.datapath_width = bits;
        self
    }

    /// Replaces the ALU feature set wholesale.
    #[must_use]
    pub fn alu_features(mut self, features: AluFeatureSet) -> Self {
        self.alu_features = features;
        self
    }

    /// Removes a single optional ALU capability.
    #[must_use]
    pub fn without_alu_feature(mut self, feature: crate::AluFeature) -> Self {
        self.alu_features.remove(feature);
        self
    }

    /// Registers a custom instruction.
    #[must_use]
    pub fn custom_op(mut self, op: CustomOp) -> Self {
        self.custom_ops.push(op);
        self
    }

    /// Sets the load-to-use latency in cycles (at least 1).
    #[must_use]
    pub fn load_latency(mut self, cycles: u32) -> Self {
        self.load_latency = cycles.max(1);
        self
    }

    /// Sets the multiply latency in cycles (at least 1).
    #[must_use]
    pub fn mul_latency(mut self, cycles: u32) -> Self {
        self.mul_latency = cycles.max(1);
        self
    }

    /// Sets the divide/remainder latency in cycles (at least 1).
    #[must_use]
    pub fn div_latency(mut self, cycles: u32) -> Self {
        self.div_latency = cycles.max(1);
        self
    }

    /// Enables or disables result forwarding by the register-file
    /// controller (on in the prototype; off is useful for ablation).
    #[must_use]
    pub fn forwarding(mut self, enabled: bool) -> Self {
        self.forwarding = enabled;
        self
    }

    /// Sets the pipeline depth in stages (2..=4; prototype default 2).
    #[must_use]
    pub fn pipeline_stages(mut self, stages: usize) -> Self {
        self.pipeline_stages = stages;
        self
    }

    /// Enables or disables fetch/data memory-controller contention
    /// (on in the prototype, whose four banks exactly cover the fetch
    /// bandwidth; off models split memories).
    #[must_use]
    pub fn memory_contention(mut self, enabled: bool) -> Self {
        self.memory_contention = enabled;
        self
    }

    /// Overrides the register-file port budget per processor cycle.
    ///
    /// The prototype's value is [`REGFILE_OPS_PER_CYCLE`] (= 8); changing
    /// it models a faster or slower register-file controller clock.
    #[must_use]
    pub fn regfile_ops_per_cycle(mut self, ops: usize) -> Self {
        self.regfile_ops_per_cycle = ops;
        self
    }

    /// Validates the parameters and produces the immutable [`Config`].
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] when any parameter violates the paper's
    /// constraints — see the variants for the precise rules.
    pub fn build(self) -> Result<Config, ConfigError> {
        let format = InstructionFormat::derive(
            self.num_gprs,
            self.num_pred_regs,
            self.num_btrs,
            self.datapath_width,
        );
        let config = Config {
            num_alus: self.num_alus,
            num_gprs: self.num_gprs,
            num_pred_regs: self.num_pred_regs,
            num_btrs: self.num_btrs,
            registers_per_instruction: self.registers_per_instruction,
            issue_width: self.issue_width,
            datapath_width: self.datapath_width,
            alu_features: self.alu_features,
            custom_ops: self.custom_ops,
            load_latency: self.load_latency,
            mul_latency: self.mul_latency,
            div_latency: self.div_latency,
            forwarding: self.forwarding,
            memory_contention: self.memory_contention,
            pipeline_stages: self.pipeline_stages,
            regfile_ops_per_cycle: self.regfile_ops_per_cycle,
            format,
        };
        config.validate()?;
        Ok(config)
    }
}

impl Default for ConfigBuilder {
    fn default() -> Self {
        ConfigBuilder::new()
    }
}

impl Config {
    /// A builder primed with this configuration's parameters, so a
    /// variant built from it differs only in what the caller sets.
    #[must_use]
    pub fn to_builder(&self) -> ConfigBuilder {
        // Exhaustive: a new parameter fails to compile here until it is
        // carried over. The format is derived again by `build`.
        let Config {
            num_alus,
            num_gprs,
            num_pred_regs,
            num_btrs,
            registers_per_instruction,
            issue_width,
            datapath_width,
            alu_features,
            custom_ops,
            load_latency,
            mul_latency,
            div_latency,
            forwarding,
            memory_contention,
            pipeline_stages,
            regfile_ops_per_cycle,
            format: _,
        } = self.clone();
        ConfigBuilder {
            num_alus,
            num_gprs,
            num_pred_regs,
            num_btrs,
            registers_per_instruction,
            issue_width,
            datapath_width,
            alu_features,
            custom_ops,
            load_latency,
            mul_latency,
            div_latency,
            forwarding,
            memory_contention,
            pipeline_stages,
            regfile_ops_per_cycle,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::AluFeature;

    #[test]
    fn builder_round_trips_every_parameter() {
        let c = ConfigBuilder::new()
            .num_alus(3)
            .num_gprs(32)
            .num_pred_regs(16)
            .num_btrs(8)
            .registers_per_instruction(3)
            .issue_width(2)
            .datapath_width(16)
            .load_latency(3)
            .mul_latency(2)
            .div_latency(12)
            .forwarding(false)
            .regfile_ops_per_cycle(4)
            .build()
            .unwrap();
        assert_eq!(c.num_alus(), 3);
        assert_eq!(c.num_gprs(), 32);
        assert_eq!(c.num_pred_regs(), 16);
        assert_eq!(c.num_btrs(), 8);
        assert_eq!(c.registers_per_instruction(), 3);
        assert_eq!(c.issue_width(), 2);
        assert_eq!(c.datapath_width(), 16);
        assert_eq!(c.load_latency(), 3);
        assert_eq!(c.mul_latency(), 2);
        assert_eq!(c.div_latency(), 12);
        assert!(!c.forwarding());
        assert_eq!(c.regfile_ops_per_cycle(), 4);
        assert_eq!(c.to_builder().build().unwrap(), c);
        let wide = c.to_builder().num_alus(4).build().unwrap();
        assert_eq!(wide.num_alus(), 4);
        assert_eq!(wide.to_builder().num_alus(3).build().unwrap(), c);
    }

    #[test]
    fn zero_alus_rejected() {
        assert!(ConfigBuilder::new().num_alus(0).build().is_err());
    }

    #[test]
    fn non_byte_datapath_rejected() {
        assert!(ConfigBuilder::new().datapath_width(12).build().is_err());
    }

    #[test]
    fn feature_removal_composes() {
        let c = ConfigBuilder::new()
            .without_alu_feature(AluFeature::Divide)
            .without_alu_feature(AluFeature::Multiply)
            .build()
            .unwrap();
        assert!(!c.alu_features().contains(AluFeature::Divide));
        assert!(!c.alu_features().contains(AluFeature::Multiply));
        assert!(c.alu_features().contains(AluFeature::Shifts));
    }
}
