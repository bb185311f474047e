//! Superblock-scheduling hints for profiler diagnostics.
//!
//! [`superblock_hint`] names the hot trace the superblock planner grows
//! through an emitted block — the trace this compile actually formed, or
//! the one formation would select — so `epic-prof`'s PRF001 diagnostic
//! can point a branch- or latency-shaped hot block at the region that
//! absorbs (or would absorb) its stalls. Custom-instruction discovery
//! lives in the `epic-isx` miner (`repro -- isx`, `epic-lint --isx`).

use crate::mir::MBlockId;
use crate::superblock::{trace_plan, ProfileData};
use crate::trace::FunctionTrace;

/// A superblock-scheduling hint for one emitted block: the hot trace
/// the formation planner grows through it. `epic-prof` attaches this to
/// its PRF001 diagnostic so a branch/latency-shaped hot block names the
/// region that absorbs (or would absorb) its stalls.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SuperblockHint {
    /// Emitted labels of the trace members, head first (pre-formation
    /// blocks; an unrolled chain reports each origin block once).
    pub trace: Vec<String>,
    /// Whether this compile already scheduled the trace as one region.
    /// `false` means the trace is a *candidate* — e.g. the machine is
    /// single-issue, where formation is off.
    pub applied: bool,
}

impl SuperblockHint {
    /// The trace as a printable `a -> b -> c` path.
    #[must_use]
    pub fn path(&self) -> String {
        self.trace.join(" -> ")
    }
}

/// The superblock trace containing the emitted block `label`, from one
/// function's pipeline snapshots.
///
/// The label names a *post-finalise* block (the ids emission uses);
/// when formation cloned it, the origin witness maps it back to the
/// pre-formation block the planner reasons about. If the compile formed
/// a trace through that block the actual trace is reported
/// (`applied = true`); otherwise the planner re-runs on the
/// pre-formation MIR — with `profile` weights when given, the static
/// loop heuristic when not — and reports what formation *would* select
/// (`applied = false`). Returns `None` when the block joins no trace or
/// the compile recorded no snapshots.
#[must_use]
pub fn superblock_hint(
    func: &FunctionTrace,
    label: &str,
    profile: Option<&ProfileData>,
) -> Option<SuperblockHint> {
    let pre = func.post_regalloc.as_ref().or(func.post_select.as_ref())?;
    // Match the label against this function's emitted block names and
    // map clones back through the origin witness.
    let block = (0..func.post_finalize.blocks.len() as u32)
        .find(|&b| crate::sched::block_label(&func.name, b) == label)?;
    let origin_of = |b: MBlockId| -> MBlockId {
        func.origin
            .as_ref()
            .and_then(|o| o.get(b.0 as usize).copied())
            .map_or(b, MBlockId)
    };
    let target = origin_of(MBlockId(block));

    // Prefer the trace the compile actually formed.
    for trace in &func.traces {
        if trace.iter().any(|&b| origin_of(b) == target) {
            let mut labels = Vec::new();
            for &b in trace {
                let l = crate::sched::block_label(&func.name, origin_of(b).0);
                if !labels.contains(&l) {
                    labels.push(l);
                }
            }
            return Some(SuperblockHint {
                trace: labels,
                applied: true,
            });
        }
    }
    // Otherwise name what the planner would select.
    let plan = trace_plan(pre, profile);
    let trace = plan.iter().find(|t| t.contains(&target))?;
    Some(SuperblockHint {
        trace: trace
            .iter()
            .map(|b| crate::sched::block_label(&func.name, b.0))
            .collect(),
        applied: false,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn superblock_hint_names_planned_and_applied_traces() {
        use crate::mir::{MBlock, MBlockId, MFunction, MTerm};

        let blocks = vec![
            (vec![], MTerm::Jump(MBlockId(1))),
            (
                vec![],
                MTerm::CondJump {
                    pred: 1,
                    on_true: MBlockId(2),
                    on_false: MBlockId(3),
                },
            ),
            (vec![], MTerm::Jump(MBlockId(1))),
            (vec![], MTerm::Ret(None)),
        ];
        let f = MFunction {
            name: "t".into(),
            params: vec![],
            blocks: blocks
                .into_iter()
                .enumerate()
                .map(|(i, (insts, term))| MBlock {
                    id: MBlockId(i as u32),
                    insts,
                    term,
                })
                .collect(),
            vreg_count: 0,
            vpred_count: 0,
            allocated: true,
            frame_bytes: 0,
            makes_calls: false,
        };
        let mut func = crate::trace::FunctionTrace {
            name: "t".into(),
            post_select: None,
            post_ifconv: None,
            post_fuse: None,
            post_regalloc: Some(f.clone()),
            post_superblock: None,
            origin: None,
            traces: vec![],
            post_finalize: f,
            layout: vec![],
            scheduled: vec![],
        };
        // No formed trace: the planner names the loop as a candidate.
        let hint = superblock_hint(&func, "t_bb1", None).expect("loop is a candidate");
        assert!(!hint.applied);
        assert!(hint.trace[0] == "t_bb1", "head first: {:?}", hint.trace);
        // A formed trace through the block reports as applied.
        func.traces = vec![vec![MBlockId(1), MBlockId(2)]];
        let hint = superblock_hint(&func, "t_bb2", None).expect("member of formed trace");
        assert!(hint.applied);
        assert_eq!(hint.path(), "t_bb1 -> t_bb2");
        // A block outside every trace gets no hint.
        assert!(superblock_hint(&func, "t_bb3", None).is_none());
    }
}
