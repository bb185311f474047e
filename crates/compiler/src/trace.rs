//! Per-stage pipeline snapshots consumed by the translation validator.
//!
//! Every [`crate::Compiler::compile_with`] records the machine IR after
//! each lowering stage so `epic-tv` can statically prove every stage
//! refines the previous one (guard inheritance for if-conversion, a
//! virtual→physical location map for register allocation, dependence
//! preservation for scheduling, and a bundle-exact emission check). The snapshots are plain clones of the
//! MIR the driver already holds, so collection is cheap and the trace is
//! self-contained: a validator needs nothing but the trace, the emitted
//! assembly and the target [`epic_config::Config`].

use crate::mir::{MBlockId, MFunction};
use crate::sched::ScheduledBlock;

/// Snapshots of one function as it moves through the pipeline.
///
/// The pre-allocation stages are optional: the `_start` stub is born
/// allocated (only `post_finalize` onwards exists for it), and
/// `post_ifconv` is absent when if-conversion is disabled.
#[derive(Debug, Clone, PartialEq)]
pub struct FunctionTrace {
    /// Function name as it appears in labels (`fn_<name>`).
    pub name: String,
    /// After instruction selection and literal-operand folding, still on
    /// virtual registers and predicates.
    pub post_select: Option<MFunction>,
    /// After if-conversion (present only when the pass ran).
    pub post_ifconv: Option<MFunction>,
    /// After custom-instruction fusion (present only when the pass ran,
    /// i.e. the config registers at least one fused custom op).
    pub post_fuse: Option<MFunction>,
    /// After register allocation: physical registers, spill code,
    /// expanded call sequences.
    pub post_regalloc: Option<MFunction>,
    /// After superblock formation, which runs on the allocated code
    /// (present only when the pass ran *and* formed at least one trace).
    pub post_superblock: Option<MFunction>,
    /// Origin witness for superblock formation: for every
    /// `post_superblock` block, the id of the `post_regalloc` block it
    /// copies (see [`crate::superblock::Formation::origin`]). Present
    /// exactly when `post_superblock` is.
    pub origin: Option<Vec<u32>>,
    /// Superblock traces as consecutive block ids (empty when formation
    /// did not run or formed nothing). The scheduler packed each as one
    /// region.
    pub traces: Vec<Vec<MBlockId>>,
    /// After control-flow finalisation: branch/PBR ops materialised,
    /// blocks laid out.
    pub post_finalize: MFunction,
    /// Block layout chosen by `finalize_control` (parallel to
    /// `scheduled`).
    pub layout: Vec<MBlockId>,
    /// The scheduled bundles, one entry per laid-out block.
    pub scheduled: Vec<ScheduledBlock>,
}

/// The whole program's pipeline trace, stub first, then the module's
/// functions in definition order (matching emission order).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct PipelineTrace {
    /// Per-function stage snapshots.
    pub functions: Vec<FunctionTrace>,
}
