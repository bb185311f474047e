//! Machine description for the customisable EPIC processor.
//!
//! In the paper's toolchain, "processor organisation information, including
//! number of functional units, instruction issues per cycle and
//! functionality of each module, is captured in the machine description
//! language HMDES and serve[s] as an input to elcor" (§4.1). This crate is
//! that layer: a [`MachineDescription`] is derived from an
//! [`epic_config::Config`] and answers the questions the static scheduler
//! and the cycle-level simulator both ask —
//!
//! * how many instances of each functional unit exist,
//! * how long each operation's result takes ([`MachineDescription::latency`]),
//! * how long each operation occupies its unit
//!   ([`MachineDescription::occupancy`]),
//! * whether a candidate issue bundle is legal
//!   ([`MachineDescription::check_bundle`]), and
//! * how many register-file port operations a bundle costs
//!   ([`MachineDescription::regfile_ops`]), and
//! * a bundle's whole static price in one shot
//!   ([`MachineDescription::bundle_cost`] → [`StaticBundleCost`]): port
//!   operations, worst-case latency/occupancy and per-unit demand,
//!   shared by the scheduler, the verifier and the simulator's decoder.
//!
//! Keeping these rules in one crate guarantees the compiler schedules
//! against exactly the machine the simulator implements, just as one HMDES
//! file kept Trimaran's elcor honest about the Handel-C datapath.
//!
//! [`MachineDescription::to_hmdes_text`] renders an HMDES-flavoured
//! summary, useful for inspecting a customised machine.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cfg;

use epic_config::Config;
use epic_isa::{Instruction, Opcode, Unit};
use std::error::Error;
use std::fmt;

/// Why a candidate issue bundle is illegal.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum BundleError {
    /// More instructions than the configured issue width.
    TooWide {
        /// Instructions in the candidate bundle.
        size: usize,
        /// The configured issue width.
        issue_width: usize,
    },
    /// More operations for one unit class than the datapath has instances.
    UnitOversubscribed {
        /// The oversubscribed unit class.
        unit: Unit,
        /// Operations wanting the unit this cycle.
        wanted: usize,
        /// Instances available.
        available: usize,
    },
    /// Two instructions in the bundle write the same register.
    WriteConflict {
        /// Textual name of the register (`r3`, `p1`, `b0`).
        register: String,
    },
}

impl fmt::Display for BundleError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BundleError::TooWide { size, issue_width } => write!(
                f,
                "bundle of {size} instructions exceeds the issue width of {issue_width}"
            ),
            BundleError::UnitOversubscribed {
                unit,
                wanted,
                available,
            } => write!(
                f,
                "{wanted} operations want the {unit} but only {available} instance(s) exist"
            ),
            BundleError::WriteConflict { register } => {
                write!(f, "two instructions in the bundle write {register}")
            }
        }
    }
}

impl Error for BundleError {}

/// One operation's contribution to a bundle's static cost.
///
/// The scheduler prices bundles before register operands are final
/// (`MOp` in `epic-compiler`), while the verifier and the simulator's
/// decoder price encoded [`Instruction`]s. Both implement this trait so
/// all three layers share [`MachineDescription::bundle_cost`]'s
/// arithmetic instead of reimplementing it.
pub trait CostedOp {
    /// The operation's opcode.
    fn cost_opcode(&self) -> Opcode;
    /// GPR reads the operation performs (sources and store data).
    fn gpr_read_count(&self) -> usize;
    /// Whether the operation writes a GPR at write-back.
    fn writes_gpr(&self) -> bool;
}

impl CostedOp for Instruction {
    fn cost_opcode(&self) -> Opcode {
        self.opcode
    }
    fn gpr_read_count(&self) -> usize {
        self.gpr_reads().len()
    }
    fn writes_gpr(&self) -> bool {
        self.gpr_write().is_some()
    }
}

/// Static, input-independent cost of one issue bundle.
///
/// Computed once by [`MachineDescription::bundle_cost`] and consumed by
/// the verifier (VER002 unit demand and VER003 port budget), translation
/// validation (TV007's unit demand and port budget), the static cycle
/// bounds and the simulator's decoder (issue-stage bookkeeping
/// precomputed at load time). The scheduler checks the port operations
/// it accumulates while packing against it in debug builds.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StaticBundleCost {
    /// Register-file port operations: GPR reads (sources and store data)
    /// plus GPR writes, with no forwarding discount (conservative, like
    /// [`MachineDescription::regfile_ops`]).
    pub port_ops: usize,
    /// The most register-file port operations one of the bundle's
    /// operations performs.
    pub max_op_ports: usize,
    /// Longest result latency among the bundle's operations.
    pub max_latency: u32,
    /// Longest unit occupancy among the bundle's operations (the
    /// blocking divider shows up here).
    pub max_occupancy: u32,
    /// Operations wanting each unit class, indexed `[ALU, LSU, CMPU,
    /// BRU]` (see [`StaticBundleCost::demand`]).
    pub unit_demand: [usize; 4],
}

impl StaticBundleCost {
    /// Operations in the bundle wanting `unit`.
    #[must_use]
    pub fn demand(&self, unit: Unit) -> usize {
        self.unit_demand[unit_index(unit)]
    }

    /// Whether the bundle needs more port operations than `budget`
    /// per cycle allows and than any one of its operations performs: an
    /// operation that alone exceeds the budget is legal on its own (the
    /// controller serialises its accesses), but nothing may share its
    /// port cycles.
    #[must_use]
    pub fn oversubscribes_ports(&self, budget: usize) -> bool {
        self.port_ops > budget.max(self.max_op_ports)
    }

    /// Extra register-file controller cycles the bundle needs beyond the
    /// first, against a ports-per-cycle `budget` (0 when it fits).
    #[must_use]
    pub fn extra_port_cycles(&self, budget: usize) -> u32 {
        (self.port_ops.div_ceil(budget.max(1)).max(1) - 1) as u32
    }
}

fn unit_index(unit: Unit) -> usize {
    match unit {
        Unit::Alu => 0,
        Unit::Lsu => 1,
        Unit::Cmpu => 2,
        Unit::Bru => 3,
    }
}

/// The scheduler- and simulator-facing view of a processor configuration.
///
/// # Examples
///
/// ```
/// use epic_config::Config;
/// use epic_mdes::MachineDescription;
/// use epic_isa::{Opcode, Unit};
///
/// let config = Config::builder().num_alus(2).build()?;
/// let mdes = MachineDescription::new(&config);
/// assert_eq!(mdes.unit_count(Unit::Alu), 2);
/// assert_eq!(mdes.unit_count(Unit::Lsu), 1);
/// assert_eq!(mdes.latency(Opcode::Add), 1);
/// # Ok::<(), epic_config::ConfigError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MachineDescription {
    config: Config,
}

impl MachineDescription {
    /// Derives the machine description from a configuration.
    #[must_use]
    pub fn new(config: &Config) -> Self {
        MachineDescription {
            config: config.clone(),
        }
    }

    /// The configuration this description was derived from.
    #[must_use]
    pub fn config(&self) -> &Config {
        &self.config
    }

    /// Instances of a functional-unit class in the datapath.
    ///
    /// Only the ALU is replicated; the LSU, CMPU and BRU are single
    /// instances (paper Fig. 2).
    #[must_use]
    pub fn unit_count(&self, unit: Unit) -> usize {
        match unit {
            Unit::Alu => self.config.num_alus(),
            Unit::Lsu | Unit::Cmpu | Unit::Bru => 1,
        }
    }

    /// Instructions issued per cycle.
    #[must_use]
    pub fn issue_width(&self) -> usize {
        self.config.issue_width()
    }

    /// Cycles from issue until an operation's result may be consumed.
    ///
    /// Latency 1 means the next bundle may use the result (through the
    /// register-file controller's forwarding path).
    #[must_use]
    pub fn latency(&self, opcode: Opcode) -> u32 {
        opcode.latency(&self.config)
    }

    /// Cycles an operation keeps its functional unit busy.
    ///
    /// The block-multiplier-backed multiply and the (pipelined) LSU accept
    /// a new operation every cycle; the iterative divider blocks its ALU
    /// for the full division latency.
    #[must_use]
    pub fn occupancy(&self, opcode: Opcode) -> u32 {
        match opcode {
            Opcode::Div | Opcode::Rem => self.config.div_latency(),
            _ => 1,
        }
    }

    /// Register-file port operations a bundle requires.
    ///
    /// Counts GPR reads (sources and store data) plus GPR writes; the
    /// register-file controller services at most
    /// [`Config::regfile_ops_per_cycle`](epic_config::Config::regfile_ops_per_cycle)
    /// of these per cycle (8 in the prototype: a dual-port memory behind a
    /// 4× clock), and "exceeding this limit would result in processor
    /// stall" (paper §3.2). This static count is conservative: at run time
    /// forwarding satisfies some reads without a port.
    #[must_use]
    pub fn regfile_ops(&self, bundle: &[Instruction]) -> usize {
        self.bundle_cost(bundle).port_ops
    }

    /// Register-file port operations one operation costs (its GPR reads
    /// plus one write port if it writes a GPR).
    #[must_use]
    pub fn op_port_cost(&self, op: &impl CostedOp) -> usize {
        op.gpr_read_count() + usize::from(op.writes_gpr())
    }

    /// Prices a bundle: port operations, worst-case result latency,
    /// worst-case unit occupancy and per-unit demand, all from the same
    /// machine description the simulator executes against.
    pub fn bundle_cost<'a, O, I>(&self, ops: I) -> StaticBundleCost
    where
        O: CostedOp + 'a,
        I: IntoIterator<Item = &'a O>,
    {
        let mut cost = StaticBundleCost::default();
        for op in ops {
            let opcode = op.cost_opcode();
            let ports = self.op_port_cost(op);
            cost.port_ops += ports;
            cost.max_op_ports = cost.max_op_ports.max(ports);
            cost.max_latency = cost.max_latency.max(self.latency(opcode));
            cost.max_occupancy = cost.max_occupancy.max(self.occupancy(opcode));
            if let Some(unit) = opcode.unit() {
                cost.unit_demand[unit_index(unit)] += 1;
            }
        }
        cost
    }

    /// Whether a bundle fits the register-file port budget without
    /// run-time stalls, assuming no forwarding hits.
    #[must_use]
    pub fn fits_port_budget(&self, bundle: &[Instruction]) -> bool {
        self.regfile_ops(bundle) <= self.config.regfile_ops_per_cycle()
    }

    /// Checks the structural legality of an issue bundle.
    ///
    /// A legal bundle (i) fits the issue width, (ii) oversubscribes no
    /// functional unit, and (iii) contains no two writes to the same
    /// register. Reads-before-writes *within* a bundle are legal and
    /// well-defined: all instructions of a bundle read machine state from
    /// before the bundle.
    ///
    /// # Errors
    ///
    /// Returns the first [`BundleError`] found.
    pub fn check_bundle(&self, bundle: &[Instruction]) -> Result<(), BundleError> {
        if bundle.len() > self.issue_width() {
            return Err(BundleError::TooWide {
                size: bundle.len(),
                issue_width: self.issue_width(),
            });
        }
        let cost = self.bundle_cost(bundle);
        for unit in [Unit::Alu, Unit::Lsu, Unit::Cmpu, Unit::Bru] {
            let wanted = cost.demand(unit);
            let available = self.unit_count(unit);
            if wanted > available {
                return Err(BundleError::UnitOversubscribed {
                    unit,
                    wanted,
                    available,
                });
            }
        }
        // The bundle fits the issue width, so each write is compared
        // with the earlier ones in place instead of collecting them.
        for (j, instr) in bundle.iter().enumerate() {
            let earlier = &bundle[..j];
            if let Some(r) = instr.gpr_write() {
                if earlier.iter().any(|e| e.gpr_write() == Some(r)) {
                    return Err(BundleError::WriteConflict {
                        register: r.to_string(),
                    });
                }
            }
            let preds = instr.pred_writes();
            for (k, p) in preds.iter().enumerate() {
                if p.0 != 0
                    && (preds[..k].contains(p)
                        || earlier.iter().any(|e| e.pred_writes().contains(p)))
                {
                    return Err(BundleError::WriteConflict {
                        register: p.to_string(),
                    });
                }
            }
            if let Some(b) = instr.btr_write() {
                if earlier.iter().any(|e| e.btr_write() == Some(b)) {
                    return Err(BundleError::WriteConflict {
                        register: b.to_string(),
                    });
                }
            }
        }
        Ok(())
    }

    /// Renders an HMDES-flavoured description of the machine.
    ///
    /// The format follows the sectioned style of Trimaran's machine
    /// description files closely enough to be recognisable, while staying
    /// human-oriented; it is not parsed back.
    #[must_use]
    pub fn to_hmdes_text(&self) -> String {
        use std::fmt::Write as _;
        let c = &self.config;
        let mut s = String::new();
        let _ = writeln!(s, "// HMDES-style machine description (generated)");
        let _ = writeln!(s, "SECTION Resource {{");
        let _ = writeln!(s, "  ALU(count[{}]);", c.num_alus());
        let _ = writeln!(s, "  LSU(count[1]);");
        let _ = writeln!(s, "  CMPU(count[1]);");
        let _ = writeln!(s, "  BRU(count[1]);");
        let _ = writeln!(s, "  issue(width[{}]);", c.issue_width());
        let _ = writeln!(
            s,
            "  regfile(gpr[{}] pred[{}] btr[{}] ports_per_cycle[{}]);",
            c.num_gprs(),
            c.num_pred_regs(),
            c.num_btrs(),
            c.regfile_ops_per_cycle()
        );
        let _ = writeln!(s, "}}");
        let _ = writeln!(s, "SECTION Operation_Latency {{");
        let _ = writeln!(s, "  intALU(time[1]);");
        let _ = writeln!(s, "  intMUL(time[{}]);", c.mul_latency());
        let _ = writeln!(s, "  intDIV(time[{}] blocking);", c.div_latency());
        let _ = writeln!(s, "  load(time[{}]);", c.load_latency());
        let _ = writeln!(s, "  store(time[1]);");
        let _ = writeln!(s, "  cmpp(time[1]);");
        let _ = writeln!(s, "  branch(time[1]);");
        for op in c.custom_ops() {
            let _ = writeln!(s, "  {}(time[{}] custom);", op.name(), op.latency());
        }
        let _ = writeln!(s, "}}");
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use epic_isa::{Btr, CmpCond, Gpr, Operand, PredReg};

    fn mdes(alus: usize) -> MachineDescription {
        MachineDescription::new(&Config::builder().num_alus(alus).build().unwrap())
    }

    fn add(d: u16, a: u16, b: u16) -> Instruction {
        Instruction::alu3(
            Opcode::Add,
            Gpr(d),
            Operand::Gpr(Gpr(a)),
            Operand::Gpr(Gpr(b)),
        )
    }

    #[test]
    fn unit_counts_follow_configuration() {
        let m = mdes(3);
        assert_eq!(m.unit_count(Unit::Alu), 3);
        assert_eq!(m.unit_count(Unit::Lsu), 1);
        assert_eq!(m.unit_count(Unit::Cmpu), 1);
        assert_eq!(m.unit_count(Unit::Bru), 1);
    }

    #[test]
    fn divider_blocks_its_alu() {
        let m = mdes(4);
        assert_eq!(m.occupancy(Opcode::Div), 8);
        assert_eq!(m.occupancy(Opcode::Mull), 1);
        assert_eq!(m.occupancy(Opcode::Lw), 1);
    }

    #[test]
    fn bundle_wider_than_issue_is_rejected() {
        let m = MachineDescription::new(&Config::builder().issue_width(2).build().unwrap());
        let bundle = vec![add(1, 2, 3), add(4, 5, 6), add(7, 8, 9)];
        assert!(matches!(
            m.check_bundle(&bundle),
            Err(BundleError::TooWide {
                size: 3,
                issue_width: 2
            })
        ));
    }

    #[test]
    fn alu_oversubscription_is_rejected() {
        let m = mdes(1);
        let bundle = vec![add(1, 2, 3), add(4, 5, 6)];
        assert!(matches!(
            m.check_bundle(&bundle),
            Err(BundleError::UnitOversubscribed {
                unit: Unit::Alu,
                wanted: 2,
                available: 1
            })
        ));
    }

    #[test]
    fn two_loads_cannot_share_the_lsu() {
        let m = mdes(4);
        let l1 = Instruction::load(Opcode::Lw, Gpr(1), Operand::Gpr(Gpr(2)), Operand::Lit(0));
        let l2 = Instruction::load(Opcode::Lw, Gpr(3), Operand::Gpr(Gpr(4)), Operand::Lit(4));
        assert!(matches!(
            m.check_bundle(&[l1, l2]),
            Err(BundleError::UnitOversubscribed {
                unit: Unit::Lsu,
                ..
            })
        ));
    }

    #[test]
    fn waw_within_bundle_is_rejected() {
        let m = mdes(4);
        assert!(matches!(
            m.check_bundle(&[add(1, 2, 3), add(1, 4, 5)]),
            Err(BundleError::WriteConflict { .. })
        ));
        // Writes to the discarding predicate p0 never conflict.
        let c1 = Instruction::cmp(
            CmpCond::Eq,
            PredReg(1),
            PredReg(0),
            Operand::Gpr(Gpr(1)),
            Operand::Lit(0),
        );
        let l = Instruction::load(Opcode::Lw, Gpr(9), Operand::Gpr(Gpr(2)), Operand::Lit(0));
        assert!(m.check_bundle(&[c1, l]).is_ok());
    }

    #[test]
    fn btr_write_conflicts_are_caught() {
        let m = mdes(4);
        let p1 = Instruction::pbr(Btr(1), Operand::Lit(10));
        let p2 = Instruction::pbr(Btr(1), Operand::Lit(20));
        // Two PBRs also oversubscribe the BRU; use a 2-BRU-free check by
        // asserting the unit error comes first.
        assert!(m.check_bundle(&[p1, p2]).is_err());
    }

    #[test]
    fn full_width_independent_bundle_is_legal() {
        let m = mdes(4);
        let bundle = vec![add(1, 2, 3), add(4, 5, 6), add(7, 8, 9), add(10, 11, 12)];
        assert!(m.check_bundle(&bundle).is_ok());
        // 8 reads + 4 writes = 12 port ops: over the default budget of 8.
        assert_eq!(m.regfile_ops(&bundle), 12);
        assert!(!m.fits_port_budget(&bundle));
        // Literal operands do not consume read ports.
        let lit = vec![
            Instruction::alu3(Opcode::Add, Gpr(1), Operand::Gpr(Gpr(2)), Operand::Lit(1)),
            Instruction::alu3(Opcode::Add, Gpr(3), Operand::Gpr(Gpr(4)), Operand::Lit(1)),
            Instruction::alu3(Opcode::Add, Gpr(5), Operand::Gpr(Gpr(6)), Operand::Lit(1)),
            Instruction::alu3(Opcode::Add, Gpr(7), Operand::Gpr(Gpr(8)), Operand::Lit(1)),
        ];
        assert_eq!(m.regfile_ops(&lit), 8);
        assert!(m.fits_port_budget(&lit));
    }

    #[test]
    fn bundle_cost_prices_ports_latency_and_demand() {
        let m = MachineDescription::new(
            &Config::builder()
                .num_alus(2)
                .load_latency(3)
                .div_latency(8)
                .build()
                .unwrap(),
        );
        let load = Instruction::load(Opcode::Lw, Gpr(1), Operand::Gpr(Gpr(2)), Operand::Lit(0));
        let div = Instruction::alu3(
            Opcode::Div,
            Gpr(3),
            Operand::Gpr(Gpr(4)),
            Operand::Gpr(Gpr(5)),
        );
        let cost = m.bundle_cost(&[load, div]);
        // load: 1 read + 1 write; div: 2 reads + 1 write.
        assert_eq!(cost.port_ops, 5);
        assert_eq!(cost.max_latency, 8, "divide dominates the load");
        assert_eq!(cost.max_occupancy, 8, "the divider blocks its ALU");
        assert_eq!(cost.demand(Unit::Alu), 1);
        assert_eq!(cost.demand(Unit::Lsu), 1);
        assert_eq!(cost.demand(Unit::Bru), 0);
        assert_eq!(cost.extra_port_cycles(8), 0);
        assert_eq!(cost.extra_port_cycles(4), 1);
        assert_eq!(StaticBundleCost::default().extra_port_cycles(8), 0);
    }

    #[test]
    fn hmdes_text_mentions_the_machine_shape() {
        let config = Config::builder()
            .num_alus(2)
            .custom_op(epic_config::CustomOp::new(
                "rotr",
                epic_config::CustomSemantics::RotateRight,
            ))
            .build()
            .unwrap();
        let text = MachineDescription::new(&config).to_hmdes_text();
        assert!(text.contains("ALU(count[2])"));
        assert!(text.contains("rotr(time[1] custom)"));
        assert!(text.contains("SECTION Resource"));
    }
}
