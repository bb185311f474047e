//! Over-approximate control-flow graph over bundle addresses.
//!
//! Every consumer of program shape — `epic-bound`'s dataflow analyses,
//! `epic-verify`'s fixpoint (solved by `epic-bound`'s solver), the
//! threaded run loop's compiled blocks and `epic-isx`'s miner — runs over
//! this one successor relation: for each bundle address, the bundle
//! addresses the hardware may fetch next, each with the *minimum*
//! number of processor cycles between the two bundles' execute stages
//! (1 for fall-through, `pipeline_stages` for a taken branch, which is
//! the redirect cycle plus the flush bubbles).
//!
//! The graph over-approximates the dynamic successor relation: a branch
//! through a BTR may land on any bundle a `PBR` literal anywhere in the
//! program loads into that BTR; a branch through a BTR some `PBR` loads
//! from a *register* (a return address) may land on any bundle following
//! a `BRL`. Edges the hardware never takes may be present; every edge it
//! can take is, with a `delta` no larger than the cycles the hardware
//! spends on it. `epic-verify`'s CFG oracle replays the reference
//! simulator against exactly that claim.

use epic_config::Config;
use epic_isa::{Instruction, Opcode};

/// One outgoing edge: target bundle address and the minimum cycle
/// distance between the source and target execute stages.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct Edge {
    /// Successor bundle address.
    pub to: usize,
    /// Minimum execute-to-execute cycle distance along this edge:
    /// 1 for fall-through, `pipeline_stages` for a taken branch.
    pub delta: u32,
}

/// The control-flow graph of one program against one configuration.
#[derive(Debug, Clone)]
pub struct Cfg {
    succs: Vec<Vec<Edge>>,
    preds: Vec<Vec<Edge>>,
    /// Bundles containing a `HALT` (guarded or not).
    halts: Vec<usize>,
    branch_delta: u32,
}

impl Cfg {
    /// Builds the over-approximate successor relation for `bundles`.
    #[must_use]
    pub fn build(config: &Config, bundles: &[Vec<Instruction>]) -> Cfg {
        let len = bundles.len();
        let num_btrs = config.num_btrs();
        let branch_delta = config.pipeline_stages() as u32;

        let mut literal_targets: Vec<Vec<usize>> = vec![Vec::new(); num_btrs];
        let mut unknown_target: Vec<bool> = vec![false; num_btrs];
        let mut return_points: Vec<usize> = Vec::new();
        for (bi, bundle) in bundles.iter().enumerate() {
            for instr in bundle {
                if instr.opcode == Opcode::Pbr {
                    let Some(btr) = instr.btr_write() else {
                        continue;
                    };
                    let Some(slot) = literal_targets.get_mut(btr.0 as usize) else {
                        continue;
                    };
                    match instr.src1 {
                        epic_isa::Operand::Lit(v) if (0..len as i64).contains(&v) => {
                            slot.push(v as usize);
                        }
                        _ => unknown_target[btr.0 as usize] = true,
                    }
                }
                if instr.opcode == Opcode::Brl && bi + 1 < len {
                    return_points.push(bi + 1);
                }
            }
        }

        let mut succs: Vec<Vec<Edge>> = vec![Vec::new(); len];
        let mut halts = Vec::new();
        for (bi, bundle) in bundles.iter().enumerate() {
            let mut fall_through = bi + 1 < len;
            let edges = &mut succs[bi];
            if bundle.iter().any(|i| i.opcode == Opcode::Halt) {
                halts.push(bi);
            }
            for instr in bundle {
                let always = instr.pred.0 == 0;
                let branch_edges = |edges: &mut Vec<Edge>| {
                    if let Some(btr) = instr.btr_read() {
                        if let Some(targets) = literal_targets.get(btr.0 as usize) {
                            for &t in targets {
                                edges.push(Edge {
                                    to: t,
                                    delta: branch_delta,
                                });
                            }
                        }
                        if unknown_target.get(btr.0 as usize).copied().unwrap_or(false) {
                            for &rp in &return_points {
                                edges.push(Edge {
                                    to: rp,
                                    delta: branch_delta,
                                });
                            }
                        }
                    }
                };
                match instr.opcode {
                    Opcode::Br | Opcode::Brl | Opcode::Brct => {
                        // `BRCT`'s predicate is the tested condition, and
                        // a false guard squashes `BR`/`BRL`: either way
                        // `p0` means the branch is always taken.
                        branch_edges(edges);
                        if always {
                            fall_through = false;
                        }
                    }
                    // `BRCF` branches when the guard is *false*; `p0` is
                    // hard-wired true, so a `p0` BRCF never leaves the
                    // fall-through path.
                    Opcode::Brcf if !always => branch_edges(edges),
                    Opcode::Halt if always => fall_through = false,
                    _ => {}
                }
            }
            if fall_through {
                edges.push(Edge {
                    to: bi + 1,
                    delta: 1,
                });
            }
            edges.sort_unstable();
            edges.dedup();
        }

        let mut preds: Vec<Vec<Edge>> = vec![Vec::new(); len];
        for (bi, edges) in succs.iter().enumerate() {
            for edge in edges {
                preds[edge.to].push(Edge {
                    to: bi,
                    delta: edge.delta,
                });
            }
        }

        Cfg {
            succs,
            preds,
            halts,
            branch_delta,
        }
    }

    /// Number of bundles in the program.
    #[must_use]
    pub fn len(&self) -> usize {
        self.succs.len()
    }

    /// Whether the program has no bundles.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.succs.is_empty()
    }

    /// Outgoing edges of a bundle.
    #[must_use]
    pub fn succs(&self, bi: usize) -> &[Edge] {
        &self.succs[bi]
    }

    /// Incoming edges of a bundle (`Edge::to` names the *predecessor*).
    #[must_use]
    pub fn preds(&self, bi: usize) -> &[Edge] {
        &self.preds[bi]
    }

    /// Bundle addresses containing a `HALT`, guarded or not.
    #[must_use]
    pub fn halt_bundles(&self) -> &[usize] {
        &self.halts
    }

    /// The taken-branch edge delta (`pipeline_stages`).
    #[must_use]
    pub fn branch_delta(&self) -> u32 {
        self.branch_delta
    }

    /// Bundles reachable from `entry`, as a boolean mask.
    #[must_use]
    pub fn reachable_from(&self, entry: usize) -> Vec<bool> {
        let mut seen = vec![false; self.len()];
        if entry >= self.len() {
            return seen;
        }
        let mut stack = vec![entry];
        seen[entry] = true;
        while let Some(bi) = stack.pop() {
            for edge in &self.succs[bi] {
                if !seen[edge.to] {
                    seen[edge.to] = true;
                    stack.push(edge.to);
                }
            }
        }
        seen
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use epic_asm::assemble;

    fn cfg_of(source: &str) -> Cfg {
        let config = Config::default();
        let program = assemble(source, &config).expect("assembles");
        Cfg::build(&config, program.bundles())
    }

    #[test]
    fn straight_line_chains_fall_through() {
        let cfg = cfg_of("MOVE r1, #1\n;;\nADD r1, r1, #1\n;;\nHALT\n;;\n");
        assert_eq!(cfg.succs(0), &[Edge { to: 1, delta: 1 }]);
        assert_eq!(cfg.succs(1), &[Edge { to: 2, delta: 1 }]);
        assert!(cfg.succs(2).is_empty(), "unguarded HALT ends the path");
        assert_eq!(cfg.halt_bundles(), &[2]);
        assert_eq!(cfg.preds(1), &[Edge { to: 0, delta: 1 }]);
    }

    #[test]
    fn taken_branches_carry_the_pipeline_delta() {
        let cfg = cfg_of(
            "PBR b1, @head\n;;\nhead:\nADD r1, r1, #1\n;;\nCMP_LT p1, p0, r1, #5\n;;\n\
             BRCT b1 (p1)\n;;\nHALT\n;;\n",
        );
        // The conditional branch has both the loop edge and fall-through.
        assert_eq!(
            cfg.succs(3),
            &[Edge { to: 1, delta: 2 }, Edge { to: 4, delta: 1 }]
        );
        assert_eq!(cfg.branch_delta(), 2);
    }

    #[test]
    fn reachability_respects_unconditional_branches() {
        let cfg = cfg_of("PBR b1, @tgt\n;;\nBR b1\n;;\nMOVE r1, #1\n;;\ntgt:\nHALT\n;;\n");
        let seen = cfg.reachable_from(0);
        assert_eq!(seen, vec![true, true, false, true]);
    }
}
