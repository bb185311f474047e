//! Automatic custom-instruction discovery (instruction-set extension).
//!
//! The paper's headline customisation axis — custom instructions per
//! functional unit (§3.3) — is hand-authored everywhere else in this
//! workspace: a designer registers a [`CustomOp`](epic_config::CustomOp)
//! and the tools pick it up. This crate closes the loop the paper leaves
//! as future work (§6, "supporting automatic generation of custom
//! instructions"), following the ByoRISC recipe:
//!
//! 1. [`mine`] builds per-basic-block dataflow graphs from compiled
//!    bundles (blocks derived from the shared [`epic_mdes::cfg::Cfg`])
//!    and enumerates maximal convex MISO subgraphs under the legality
//!    rules a fused ALU op must obey — ALU-class operators only, at most
//!    two live-in registers, a single live-out, guard-compatible members
//!    and value-stable live-ins;
//! 2. each candidate canonicalises as an
//!    [`ExprTree`](epic_config::ExprTree), so identical computations
//!    discovered in different blocks (or different workloads) merge;
//! 3. [`ScoreModel`] prices every candidate — profile-weighted cycle
//!    savings against the incremental slices of the fused datapath — and
//!    ranks them deterministically. Like `epic-bound`'s `CostModel`, the
//!    scorer carries seeded mutations and a self-[`audit`] that re-derives
//!    its prices from first principles, so a miscalibrated scorer is
//!    caught before it misranks a design space.
//!
//! The compiler's fuse pass (`epic-compiler`) rewrites matched subgraphs
//! to the chosen ops, and `repro -- isx` sweeps the extended
//! configurations into a cycles-versus-slices Pareto frontier.
//!
//! [`audit`]: ScoreModel::audit

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod mine;
mod score;

pub use mine::{mine, Discovery, Site};
pub use score::{ScoreModel, ScoreMutation, Scored};
