//! Over-approximate control-flow graph over bundle addresses, and the
//! basic-block partition derived from it.
//!
//! Every consumer of program shape — `epic-bound`'s dataflow analyses
//! (among them the scoreboard fixpoint that `epic-verify`'s timing
//! warnings read), `epic-verify`'s own fixpoints (solved by
//! `epic-bound`'s solver), the threaded run loop's compiled blocks and
//! `epic-isx`'s miner — runs over this one successor relation: for each
//! bundle address, the bundle addresses the hardware may fetch next,
//! each with the *minimum* number of processor cycles between the two
//! bundles' execute stages (1 for fall-through, `pipeline_stages` for a
//! taken branch, which is the redirect cycle plus the flush bubbles).
//!
//! [`Cfg::basic_blocks`] is the one partition of a program into basic
//! blocks: the threaded run loop folds each block of two or more
//! bundles into a compiled stream, and `epic-isx` mines each block's
//! dataflow graph, so the miner's blocks are exactly the simulator's.
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
use std::ops::Range;

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
///
/// The edges live in one array, each bundle's outgoing edges then each
/// bundle's incoming ones, addressed by per-bundle offsets.
#[derive(Debug, Clone)]
pub struct Cfg {
    /// `edges[at[b]..at[b + 1]]` leave bundle `b`; past the outgoing
    /// edges of all `len` bundles, `edges[at[len + b]..at[len + b + 1]]`
    /// enter it (`Edge::to` naming the predecessor).
    edges: Vec<Edge>,
    at: Vec<usize>,
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

        // The literal targets `PBR`s load into each BTR, as
        // `(btr, target)` pairs sorted by BTR.
        let mut literal_targets: Vec<(u16, usize)> = Vec::new();
        let mut unknown_target: Vec<bool> = vec![false; num_btrs];
        let mut return_points: Vec<usize> = Vec::new();
        for (bi, bundle) in bundles.iter().enumerate() {
            for instr in bundle {
                if instr.opcode == Opcode::Pbr {
                    let Some(btr) = instr.btr_write() else {
                        continue;
                    };
                    if usize::from(btr.0) >= num_btrs {
                        continue;
                    }
                    match instr.src1 {
                        epic_isa::Operand::Lit(v) if (0..len as i64).contains(&v) => {
                            literal_targets.push((btr.0, v as usize));
                        }
                        _ => unknown_target[btr.0 as usize] = true,
                    }
                }
                if instr.opcode == Opcode::Brl && bi + 1 < len {
                    return_points.push(bi + 1);
                }
            }
        }
        // Stable: each BTR's targets stay in program order.
        literal_targets.sort_by_key(|&(btr, _)| btr);

        let mut edges: Vec<Edge> = Vec::new();
        let mut at = Vec::with_capacity(2 * len + 1);
        let mut halts = Vec::new();
        for (bi, bundle) in bundles.iter().enumerate() {
            let first = edges.len();
            at.push(first);
            let mut fall_through = bi + 1 < len;
            if bundle.iter().any(|i| i.opcode == Opcode::Halt) {
                halts.push(bi);
            }
            for instr in bundle {
                let always = instr.pred.0 == 0;
                let branch_edges = |edges: &mut Vec<Edge>| {
                    if let Some(btr) = instr.btr_read() {
                        let from = literal_targets.partition_point(|&(b, _)| b < btr.0);
                        let targets = literal_targets[from..]
                            .iter()
                            .take_while(|&&(b, _)| b == btr.0);
                        for &(_, t) in targets {
                            edges.push(Edge {
                                to: t,
                                delta: branch_delta,
                            });
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
                        branch_edges(&mut edges);
                        if always {
                            fall_through = false;
                        }
                    }
                    // `BRCF` branches when the guard is *false*; `p0` is
                    // hard-wired true, so a `p0` BRCF never leaves the
                    // fall-through path.
                    Opcode::Brcf if !always => branch_edges(&mut edges),
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
            let out = &mut edges[first..];
            out.sort_unstable();
            let kept = dedup_sorted(out);
            edges.truncate(first + kept);
        }
        at.push(edges.len());

        // The incoming edges, grouped by target in source order.
        let succ_count = edges.len();
        let mut in_at = vec![0usize; len + 1];
        for e in &edges {
            in_at[e.to + 1] += 1;
        }
        for b in 0..len {
            in_at[b + 1] += in_at[b];
        }
        edges.resize(2 * succ_count, Edge { to: 0, delta: 0 });
        let mut fill = in_at.clone();
        for bi in 0..len {
            for k in at[bi]..at[bi + 1] {
                let e = edges[k];
                edges[succ_count + fill[e.to]] = Edge {
                    to: bi,
                    delta: e.delta,
                };
                fill[e.to] += 1;
            }
        }
        at.extend(in_at[1..].iter().map(|&k| succ_count + k));

        Cfg {
            edges,
            at,
            halts,
            branch_delta,
        }
    }

    /// Number of bundles in the program.
    #[must_use]
    pub fn len(&self) -> usize {
        self.at.len() / 2
    }

    /// Whether the program has no bundles.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Outgoing edges of a bundle.
    #[must_use]
    pub fn succs(&self, bi: usize) -> &[Edge] {
        assert!(bi < self.len(), "bundle {bi} is outside the program");
        &self.edges[self.at[bi]..self.at[bi + 1]]
    }

    /// Incoming edges of a bundle (`Edge::to` names the *predecessor*).
    #[must_use]
    pub fn preds(&self, bi: usize) -> &[Edge] {
        let len = self.len();
        assert!(bi < len, "bundle {bi} is outside the program");
        &self.edges[self.at[len + bi]..self.at[len + bi + 1]]
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

    /// The basic blocks of `bundles` (the program this graph was built
    /// from) with the entry at `entry`, as bundle ranges in address
    /// order.
    ///
    /// Leaders are the entry, every target of an edge with `delta > 1`
    /// (a taken branch) and every bundle after a terminator, a bundle
    /// holding a branch or `HALT`. A block runs from its leader to its
    /// first terminator, or to the bundle before the next leader, or to
    /// the end of the program. Bundles before the first leader belong
    /// to no block.
    #[must_use]
    pub fn basic_blocks(&self, bundles: &[Vec<Instruction>], entry: usize) -> Vec<Range<usize>> {
        let len = self.len();
        assert_eq!(
            bundles.len(),
            len,
            "the graph was built from another program"
        );
        let is_term: Vec<bool> = bundles
            .iter()
            .map(|b| (b.iter()).any(|i| i.opcode.is_branch() || i.opcode == Opcode::Halt))
            .collect();
        let mut is_leader = vec![false; len];
        if entry < len {
            is_leader[entry] = true;
        }
        for bi in 0..len {
            for edge in self.succs(bi) {
                if edge.delta > 1 {
                    is_leader[edge.to] = true;
                }
            }
            if is_term[bi] && bi + 1 < len {
                is_leader[bi + 1] = true;
            }
        }
        (0..len)
            .filter(|&leader| is_leader[leader])
            .map(|leader| {
                let mut end = leader + 1;
                while !is_term[end - 1] && end < len && !is_leader[end] {
                    end += 1;
                }
                leader..end
            })
            .collect()
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
            for edge in self.succs(bi) {
                if !seen[edge.to] {
                    seen[edge.to] = true;
                    stack.push(edge.to);
                }
            }
        }
        seen
    }
}

/// Moves the distinct edges of a sorted run to its front; returns how
/// many there are.
fn dedup_sorted(run: &mut [Edge]) -> usize {
    let mut kept = 0;
    for i in 0..run.len() {
        if kept == 0 || run[kept - 1] != run[i] {
            run[kept] = run[i];
            kept += 1;
        }
    }
    kept
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
    fn blocks_end_at_terminators_and_before_leaders() {
        let source = "MOVE r9, #0\n;;\nPBR b1, @head\n;;\nhead:\nADD r1, r1, #1\n;;\n\
                      CMP_LT p1, p0, r1, #5\n;;\nBRCT b1 (p1)\n;;\nMOVE r2, #1\n;;\n\
                      HALT\n;;\nMOVE r3, #1\n;;\n";
        let config = Config::default();
        let program = assemble(source, &config).expect("assembles");
        let cfg = Cfg::build(&config, program.bundles());
        // The entry starts a block, the loop head (a taken-branch target)
        // starts another, and the bundles after the branch and the HALT
        // each start one; the last runs to the end of the program.
        assert_eq!(
            cfg.basic_blocks(program.bundles(), 0),
            vec![0..2, 2..5, 5..7, 7..8]
        );
        // Bundles before the first leader belong to no block.
        assert_eq!(
            cfg.basic_blocks(program.bundles(), 1),
            vec![1..2, 2..5, 5..7, 7..8]
        );
    }

    #[test]
    fn reachability_respects_unconditional_branches() {
        let cfg = cfg_of("PBR b1, @tgt\n;;\nBR b1\n;;\nMOVE r1, #1\n;;\ntgt:\nHALT\n;;\n");
        let seen = cfg.reachable_from(0);
        assert_eq!(seen, vec![true, true, false, true]);
    }
}
