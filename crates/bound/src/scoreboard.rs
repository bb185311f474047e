//! The scoreboard fixpoint: an upper bound, at every reachable bundle,
//! on how long the simulator's interlocks can hold it.
//!
//! The state mirrors the scoreboard relative to a bundle's execute
//! cycle: per GPR, the cycles until its pending result is consumable;
//! per ALU instance, the cycles a blocking divide still holds it. A GPR
//! write books [`CostModel::ready_after`], a divide books its ALU for
//! [`CostModel::div_occupancy`], a state ages by each edge's *minimum*
//! execute-to-execute distance and joins take the maximum, so the
//! residuals upper-bound the live scoreboard on every run. Two tools
//! read one solution: [`crate::analyze_cycles`] prices its data and
//! unit stall bounds from it, and `epic-verify`'s warning pass reports
//! VER004 and VER011 where it is nonzero.
//!
//! Registers and instances the configuration lacks are skipped, as the
//! verifier's VER007 already reports the instructions naming them.

use crate::cfg::Cfg;
use crate::cost::CostModel;
use crate::lattice::Lattice;
use crate::solver::{solve_forward, Analysis, Direction};
use epic_isa::{Instruction, Opcode};

/// Scoreboard residuals at a bundle boundary, relative to that bundle's
/// execute cycle.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Scoreboard {
    /// Cycles until each GPR's pending result is consumable (0 =
    /// ready).
    gpr: Vec<u64>,
    /// Cycles each ALU instance stays busy with a blocking divide,
    /// sorted descending (instances are interchangeable).
    alu: Vec<u64>,
}

impl Scoreboard {
    /// Cycles a read of `gpr` waits for its producer; a register the
    /// machine lacks never waits.
    #[must_use]
    pub fn read_wait(&self, gpr: u16) -> u64 {
        self.gpr.get(usize::from(gpr)).copied().unwrap_or(0)
    }

    /// ALU instances no divide holds.
    #[must_use]
    pub fn free_alus(&self) -> usize {
        self.alu.iter().filter(|&&busy| busy == 0).count()
    }

    /// Cycles until `wanted` ALU instances are free at once: the
    /// `wanted`-th smallest residual (all instances, if fewer exist).
    #[must_use]
    pub fn alu_wait(&self, wanted: usize) -> u64 {
        match wanted.min(self.alu.len()) {
            0 => 0,
            w => self.alu[self.alu.len() - w],
        }
    }
}

impl Lattice for Scoreboard {
    fn join(&mut self, other: &Scoreboard) -> bool {
        let mut changed = false;
        // Both sides keep `alu` sorted descending, so the element-wise
        // max bounds the k-th busiest instance of either predecessor.
        let pairs =
            (self.gpr.iter_mut().zip(&other.gpr)).chain(self.alu.iter_mut().zip(&other.alu));
        for (dst, &src) in pairs {
            if src > *dst {
                *dst = src;
                changed = true;
            }
        }
        changed
    }
}

/// The scoreboard fixpoint as a forward [`Analysis`] priced by a
/// [`CostModel`].
pub struct ScoreboardAnalysis<'a> {
    model: &'a CostModel,
}

impl<'a> ScoreboardAnalysis<'a> {
    /// The analysis on the model's configuration.
    #[must_use]
    pub fn new(model: &'a CostModel) -> ScoreboardAnalysis<'a> {
        ScoreboardAnalysis { model }
    }

    /// Solves the fixpoint; index by bundle address for each bundle's
    /// input scoreboard (`None` = unreachable).
    #[must_use]
    pub fn solve(
        &self,
        cfg: &Cfg,
        bundles: &[Vec<Instruction>],
        entry: usize,
    ) -> Vec<Option<Scoreboard>> {
        solve_forward(self, cfg, bundles, entry)
    }
}

impl Analysis for ScoreboardAnalysis<'_> {
    type State = Scoreboard;

    fn direction(&self) -> Direction {
        Direction::Forward
    }

    fn boundary(&self) -> Scoreboard {
        let config = self.model.config();
        Scoreboard {
            gpr: vec![0; config.num_gprs()],
            alu: vec![0; config.num_alus()],
        }
    }

    fn transfer(&self, _bi: usize, bundle: &[Instruction], state: &Scoreboard) -> Scoreboard {
        let mut out = state.clone();
        let mut divides = 0;
        for instr in bundle {
            if let Some(gpr) = instr.gpr_write() {
                // The scoreboard overwrites the booking unconditionally.
                if let Some(wait) = out.gpr.get_mut(usize::from(gpr.0)) {
                    *wait = self.model.ready_after(instr.opcode);
                }
            }
            if matches!(instr.opcode, Opcode::Div | Opcode::Rem) {
                divides += 1;
            }
        }
        if divides > 0 {
            // Each divide claims a free ALU; abstractly, occupy the
            // least-busy instances. Residuals never exceed the division
            // occupancy, so this preserves sorted dominance.
            let n = out.alu.len();
            for busy in &mut out.alu[n.saturating_sub(divides)..] {
                *busy = self.model.div_occupancy();
            }
            out.alu.sort_unstable_by(|a, b| b.cmp(a));
        }
        out
    }

    fn age(&self, state: &mut Scoreboard, delta: u32) {
        for residual in state.gpr.iter_mut().chain(state.alu.iter_mut()) {
            *residual = residual.saturating_sub(u64::from(delta));
        }
    }
}
