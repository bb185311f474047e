//! Predicate-aware definedness of GPRs: per GPR a *may* bit (some path
//! writes it) and a [`MustDef`] fact (on every path it is written
//! unconditionally, written only under one guard, or possibly not at
//! all), the condensation `epic-verify`'s VER013 needs. Sequential
//! writes under the two complementary targets of one compare promote to
//! `Always` — the if-conversion pattern (`CMP p1,p2,…; MOVE r (p1);
//! MOVE r (p2)`) a path-insensitive analysis cannot see through.

use crate::cfg::Cfg;
use crate::lattice::{Lattice, MustDef};
use crate::solver::{solve_forward, Analysis, Direction};
use epic_config::Config;
use epic_isa::{Instruction, Opcode, PredReg, TRUE_PRED};

/// Per-GPR definedness facts at one bundle's input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GprDefs {
    /// Some path from the entry writes the register.
    pub may: Vec<bool>,
    /// Guard-refined must-definedness.
    pub must: Vec<MustDef>,
}

impl Lattice for GprDefs {
    fn join(&mut self, other: &GprDefs) -> bool {
        let a = self.may.join(&other.may);
        let b = self.must.join(&other.must);
        a || b
    }
}

/// Predicate-aware GPR definedness (the VER013 engine).
pub struct Definedness {
    num_gprs: usize,
    /// `complement[p] = Some(q)` when predicates `p` and `q` are each
    /// written by exactly one instruction program-wide: the two targets
    /// of one compare. Their guards then cover all outcomes.
    complement: Vec<Option<PredReg>>,
}

impl Definedness {
    /// Builds the analysis, scanning the program once for complementary
    /// compare targets.
    #[must_use]
    pub fn new(config: &Config, bundles: &[Vec<Instruction>]) -> Definedness {
        let num_preds = config.num_pred_regs();
        let mut write_count = vec![0usize; num_preds];
        let mut pair: Vec<Option<PredReg>> = vec![None; num_preds];
        for bundle in bundles {
            for instr in bundle {
                for p in instr.pred_writes() {
                    if p.0 != 0 {
                        if let Some(count) = write_count.get_mut(p.0 as usize) {
                            *count += 1;
                        }
                    }
                }
                if let Opcode::Cmp(_) = instr.opcode {
                    if let (epic_isa::Dest::Pred(t), epic_isa::Dest::Pred(f)) =
                        (instr.dest1, instr.dest2)
                    {
                        if t.0 != 0 && f.0 != 0 && t != f {
                            if let Some(slot) = pair.get_mut(t.0 as usize) {
                                *slot = Some(f);
                            }
                            if let Some(slot) = pair.get_mut(f.0 as usize) {
                                *slot = Some(t);
                            }
                        }
                    }
                }
            }
        }
        // The complement relation is only sound when both predicates
        // have a single (shared) producer: otherwise `p` and `q` may
        // hold values from different executions.
        let complement = pair
            .iter()
            .enumerate()
            .map(|(p, q)| {
                q.filter(|q| write_count[p] == 1 && write_count.get(q.0 as usize) == Some(&1))
            })
            .collect();
        Definedness {
            num_gprs: config.num_gprs(),
            complement,
        }
    }

    /// Solves definedness; index by bundle address for each bundle's
    /// input facts (`None` = unreachable).
    #[must_use]
    pub fn solve(
        &self,
        cfg: &Cfg,
        bundles: &[Vec<Instruction>],
        entry: usize,
    ) -> Vec<Option<GprDefs>> {
        solve_forward(self, cfg, bundles, entry)
    }

    fn complement_of(&self, p: PredReg) -> Option<PredReg> {
        self.complement.get(p.0 as usize).copied().flatten()
    }
}

impl Analysis for Definedness {
    type State = GprDefs;

    fn direction(&self) -> Direction {
        Direction::Forward
    }

    fn boundary(&self) -> GprDefs {
        GprDefs {
            may: vec![false; self.num_gprs],
            must: vec![MustDef::No; self.num_gprs],
        }
    }

    fn transfer(&self, _bi: usize, bundle: &[Instruction], state: &GprDefs) -> GprDefs {
        let mut out = state.clone();
        for instr in bundle {
            let Some(r) = instr.gpr_write() else {
                continue;
            };
            let Some(may) = out.may.get_mut(r.0 as usize) else {
                continue;
            };
            *may = true;
            let must = &mut out.must[r.0 as usize];
            if instr.pred == TRUE_PRED {
                *must = MustDef::Always;
            } else {
                *must = match *must {
                    MustDef::Always => MustDef::Always,
                    MustDef::Under(p) if p == instr.pred => MustDef::Under(p),
                    // Earlier write under `p`, this one under its
                    // complement: together they always fire.
                    MustDef::Under(p) if self.complement_of(p) == Some(instr.pred) => {
                        MustDef::Always
                    }
                    // A write under an unrelated guard cannot weaken an
                    // existing guarantee; keep the stronger fact.
                    MustDef::Under(p) => MustDef::Under(p),
                    MustDef::No => MustDef::Under(instr.pred),
                };
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use epic_asm::assemble;

    fn defs_at_halt(source: &str) -> GprDefs {
        let config = Config::default();
        let program = assemble(source, &config).expect("assembles");
        let cfg = Cfg::build(&config, program.bundles());
        let analysis = Definedness::new(&config, program.bundles());
        let states = analysis.solve(&cfg, program.bundles(), program.entry() as usize);
        let halt = *cfg.halt_bundles().first().expect("program halts");
        states[halt].clone().expect("halt reachable")
    }

    #[test]
    fn unconditional_write_is_always_defined() {
        let d = defs_at_halt("MOVE r1, #1\n;;\nHALT\n;;\n");
        assert!(d.may[1]);
        assert_eq!(d.must[1], MustDef::Always);
        assert!(!d.may[2]);
        assert_eq!(d.must[2], MustDef::No);
    }

    #[test]
    fn guarded_write_is_defined_only_under_its_guard() {
        let d = defs_at_halt("CMP_LT p1, p2, r0, #1\n;;\nMOVE r1, #1 (p1)\n;;\nHALT\n;;\n");
        assert!(d.may[1]);
        assert_eq!(d.must[1], MustDef::Under(PredReg(1)));
    }

    #[test]
    fn complementary_guards_promote_to_always() {
        let d = defs_at_halt(
            "CMP_LT p1, p2, r0, #1\n;;\nMOVE r1, #1 (p1)\n;;\nMOVE r1, #2 (p2)\n;;\nHALT\n;;\n",
        );
        assert_eq!(d.must[1], MustDef::Always, "if-conversion covers both arms");
    }

    #[test]
    fn reused_predicates_disable_complement_promotion() {
        // p1/p2 are written twice: the second compare may have replaced
        // one half, so the two guarded writes need not cover all paths.
        let d = defs_at_halt(
            "CMP_LT p1, p2, r0, #1\n;;\nCMP_LT p1, p2, r0, #2\n;;\n\
             MOVE r1, #1 (p1)\n;;\nMOVE r1, #2 (p2)\n;;\nHALT\n;;\n",
        );
        assert_eq!(d.must[1], MustDef::Under(PredReg(1)));
    }
}
