//! `epic-bound`: abstract-interpretation dataflow framework and static
//! cycle-bound analysis for assembled EPIC programs.
//!
//! Where `epic-verify` checks *legality* (does a schedule respect the
//! machine contract?) and `epic-sim` measures *one run*, this crate
//! answers the quantitative static question: **how many cycles can a
//! program take, on this configuration, over all runs?** It computes a
//! whole-program interval `[lower, upper]` with a per-bundle breakdown,
//! built from a small reusable dataflow stack:
//!
//! * [`Lattice`] / [`Analysis`] / [`solve_forward`] / [`solve_backward`]
//!   — join-semilattice states, transfer functions and a worklist
//!   fixpoint solver over the bundle [`Cfg`], with edge-distance aging
//!   and widening hooks.
//! * [`ReachingDefs`] and [`Definedness`] — predicate-aware definition
//!   tracking (a write under `p` plus a write under its complement is a
//!   definition on every path), consumed by the verifier's `VER013`.
//! * [`ValueAnalysis`] — interval ranges for GPRs plus three-valued
//!   predicate constants, with capped widening.
//! * [`gpr_liveness`] — backward may-liveness (all-live at exits).
//! * [`LoopAnalysis`] — Kosaraju SCCs, counted-loop recognition and
//!   closed-form trip bounds, folded into per-bundle execution counts.
//! * [`analyze_cycles`] — the cycle-interval analysis itself, priced by
//!   a [`CostModel`] derived from the machine description.
//!
//! # Soundness
//!
//! The claim `simulated cycles ∈ [lower, upper]` is enforced two ways:
//! every price in the [`CostModel`] can be [audited](CostModel::audit)
//! against independently re-derived facts, and the differential oracle
//! in this crate's tests runs three simulation paths (the reference
//! engine and both of `Simulator`'s run modes) over a
//! configuration grid and asserts containment. Seeded [`Mutation`]s
//! (wrong latency, ignored port budget, dropped branch penalty, bad
//! loop bound, unsound widening) must each be caught by the audit *and*
//! produce a differential violation, demonstrating the harness would
//! notice a real soundness bug.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use epic_mdes::cfg;

mod cost;
mod cycles;
mod defs;
mod lattice;
mod lints;
mod liveness;
mod loops;
mod ranges;
mod solver;

pub use cfg::{Cfg, Edge};
pub use cost::{CostModel, Mutation};
pub use cycles::{
    analyze_cycles, counts_from_block_weights, BoundOptions, CountSource, CycleBounds, PcBound,
};
pub use defs::{DefSites, Definedness, GprDefs, ReachingDefs};
pub use lattice::{Interval, Lattice, MustDef, PredVal};
pub use lints::{lint_bundles, LintOptions};
pub use liveness::{gpr_liveness, LiveSet};
pub use loops::{LoopAnalysis, LoopSummary};
pub use ranges::{compare_intervals, ValueAnalysis, Values};
pub use solver::{solve_backward, solve_forward, Analysis, BackwardSolution, Direction};
