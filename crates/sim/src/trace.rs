//! Per-cycle trace events: the simulator's observability seam.
//!
//! [`TraceSink`] is the contract between the execution engines and any
//! observer — a metrics registry, a Perfetto trace writer, a profiler
//! (all in `epic-obs`). The engines are **monomorphised** over the sink:
//! [`crate::Simulator::run_with_sink`] is instantiated once per sink
//! type. An observing sink gets the per-cycle loop and every event; a
//! blind one such as [`NopSink`] gets the threaded loop, where every
//! event call inlines to nothing, so the plain [`crate::Simulator::run`]
//! path pays nothing for the seam.
//!
//! Every event carries the processor cycle it happened in and the bundle
//! address the front end was working on, so sinks can reconstruct the
//! complete pipeline timeline: which cycles issued, which stalled and
//! why, what each functional unit executed, and how hard the
//! register-file controller and memory banks were pushed.
//!
//! The emission sites mirror the [`crate::SimStats`] counters one-to-one
//! — one [`TraceSink::stall`] per stall cycle counted, one
//! [`TraceSink::squash`] per squashed instruction, and so on — so a
//! counting sink reconciles exactly with the aggregate statistics
//! (`epic-obs` enforces this field-for-field in its reconciliation
//! tests).

use crate::stats::StallCause;

/// Receiver of per-cycle pipeline events.
///
/// All methods default to no-ops; implement only what you observe. The
/// engines call these from their hot loop, so implementations should be
/// cheap — heavy post-processing belongs after the run.
pub trait TraceSink {
    /// Whether this sink observes events.
    ///
    /// The threaded run loop of [`crate::Simulator::run_with_sink`]
    /// runs whole basic blocks as translated step streams, folded into
    /// single state updates, eliding the per-cycle event stream. It
    /// only does so when the sink statically declares itself blind
    /// (`OBSERVED == false`); for observing sinks the stream branch
    /// compiles out, so they get every cycle and therefore the exact
    /// event sequence, and never build the translation. Leave this `true` unless every method is a no-op.
    const OBSERVED: bool = true;

    /// A bundle left the Fetch/Decode/Issue stage this cycle.
    ///
    /// `ports` is the register-file port demand of the bundle (reads
    /// not satisfied by forwarding, plus result writes) against the
    /// controller's per-cycle `budget`.
    #[inline]
    fn bundle_issue(&mut self, cycle: u64, pc: u32, ports: usize, budget: usize) {
        let _ = (cycle, pc, ports, budget);
    }

    /// A bundle occupied the execute stage this cycle.
    ///
    /// `unit_ops` counts the bundle's operations per functional-unit
    /// class in `[ALU, LSU, CMPU, BRU]` order; `instructions` and
    /// `nops` split the issue-width slots the bundle occupied.
    #[inline]
    fn bundle_execute(
        &mut self,
        cycle: u64,
        pc: u32,
        instructions: u64,
        nops: u64,
        unit_ops: &[u64; 4],
    ) {
        let _ = (cycle, pc, instructions, nops, unit_ops);
    }

    /// An issued instruction's guard predicate was false: squashed at
    /// write-back. One call per squashed instruction.
    #[inline]
    fn squash(&mut self, cycle: u64, pc: u32) {
        let _ = (cycle, pc);
    }

    /// The front end lost this cycle; `pc` is the bundle it was stalled
    /// on. One call per stall cycle, mirroring
    /// [`crate::StallBreakdown`]'s counters.
    #[inline]
    fn stall(&mut self, cycle: u64, pc: u32, cause: StallCause) {
        let _ = (cycle, pc, cause);
    }

    /// The execute stage performed a data-memory access (a load when
    /// `store` is false). On memory-contention configurations each such
    /// access also displaces half a processor cycle of instruction
    /// fetch on the shared controller.
    #[inline]
    fn mem_op(&mut self, cycle: u64, pc: u32, store: bool) {
        let _ = (cycle, pc, store);
    }

    /// The processor executed `HALT` this cycle.
    #[inline]
    fn halt(&mut self, cycle: u64) {
        let _ = cycle;
    }

    /// The processor finished a cycle (called exactly once per simulated
    /// cycle, after all of the cycle's other events).
    #[inline]
    fn cycle_retired(&mut self, cycle: u64) {
        let _ = cycle;
    }
}

/// The do-nothing sink: observability disabled.
///
/// Running with `NopSink` is the zero-cost path — after monomorphisation
/// every event call is an empty inline function the optimiser deletes.
#[derive(Debug, Clone, Copy, Default)]
pub struct NopSink;

impl TraceSink for NopSink {
    const OBSERVED: bool = false;
}

/// Forwarding through a mutable reference, so a sink can be borrowed by
/// a run without being consumed.
impl<S: TraceSink + ?Sized> TraceSink for &mut S {
    const OBSERVED: bool = S::OBSERVED;
    #[inline]
    fn bundle_issue(&mut self, cycle: u64, pc: u32, ports: usize, budget: usize) {
        (**self).bundle_issue(cycle, pc, ports, budget);
    }
    #[inline]
    fn bundle_execute(
        &mut self,
        cycle: u64,
        pc: u32,
        instructions: u64,
        nops: u64,
        unit_ops: &[u64; 4],
    ) {
        (**self).bundle_execute(cycle, pc, instructions, nops, unit_ops);
    }
    #[inline]
    fn squash(&mut self, cycle: u64, pc: u32) {
        (**self).squash(cycle, pc);
    }
    #[inline]
    fn stall(&mut self, cycle: u64, pc: u32, cause: StallCause) {
        (**self).stall(cycle, pc, cause);
    }
    #[inline]
    fn mem_op(&mut self, cycle: u64, pc: u32, store: bool) {
        (**self).mem_op(cycle, pc, store);
    }
    #[inline]
    fn halt(&mut self, cycle: u64) {
        (**self).halt(cycle);
    }
    #[inline]
    fn cycle_retired(&mut self, cycle: u64) {
        (**self).cycle_retired(cycle);
    }
}

/// `Option<S>`: observe when `Some`, compile away when the option is
/// statically `None::<NopSink>`.
impl<S: TraceSink> TraceSink for Option<S> {
    const OBSERVED: bool = S::OBSERVED;
    #[inline]
    fn bundle_issue(&mut self, cycle: u64, pc: u32, ports: usize, budget: usize) {
        if let Some(sink) = self {
            sink.bundle_issue(cycle, pc, ports, budget);
        }
    }
    #[inline]
    fn bundle_execute(
        &mut self,
        cycle: u64,
        pc: u32,
        instructions: u64,
        nops: u64,
        unit_ops: &[u64; 4],
    ) {
        if let Some(sink) = self {
            sink.bundle_execute(cycle, pc, instructions, nops, unit_ops);
        }
    }
    #[inline]
    fn squash(&mut self, cycle: u64, pc: u32) {
        if let Some(sink) = self {
            sink.squash(cycle, pc);
        }
    }
    #[inline]
    fn stall(&mut self, cycle: u64, pc: u32, cause: StallCause) {
        if let Some(sink) = self {
            sink.stall(cycle, pc, cause);
        }
    }
    #[inline]
    fn mem_op(&mut self, cycle: u64, pc: u32, store: bool) {
        if let Some(sink) = self {
            sink.mem_op(cycle, pc, store);
        }
    }
    #[inline]
    fn halt(&mut self, cycle: u64) {
        if let Some(sink) = self {
            sink.halt(cycle);
        }
    }
    #[inline]
    fn cycle_retired(&mut self, cycle: u64) {
        if let Some(sink) = self {
            sink.cycle_retired(cycle);
        }
    }
}

/// Broadcasts every event to two sinks (compose with nesting for more).
#[derive(Debug, Default)]
pub struct TeeSink<A, B>(
    /// First receiver (events are delivered here first).
    pub A,
    /// Second receiver.
    pub B,
);

impl<A: TraceSink, B: TraceSink> TraceSink for TeeSink<A, B> {
    const OBSERVED: bool = A::OBSERVED || B::OBSERVED;
    #[inline]
    fn bundle_issue(&mut self, cycle: u64, pc: u32, ports: usize, budget: usize) {
        self.0.bundle_issue(cycle, pc, ports, budget);
        self.1.bundle_issue(cycle, pc, ports, budget);
    }
    #[inline]
    fn bundle_execute(
        &mut self,
        cycle: u64,
        pc: u32,
        instructions: u64,
        nops: u64,
        unit_ops: &[u64; 4],
    ) {
        self.0
            .bundle_execute(cycle, pc, instructions, nops, unit_ops);
        self.1
            .bundle_execute(cycle, pc, instructions, nops, unit_ops);
    }
    #[inline]
    fn squash(&mut self, cycle: u64, pc: u32) {
        self.0.squash(cycle, pc);
        self.1.squash(cycle, pc);
    }
    #[inline]
    fn stall(&mut self, cycle: u64, pc: u32, cause: StallCause) {
        self.0.stall(cycle, pc, cause);
        self.1.stall(cycle, pc, cause);
    }
    #[inline]
    fn mem_op(&mut self, cycle: u64, pc: u32, store: bool) {
        self.0.mem_op(cycle, pc, store);
        self.1.mem_op(cycle, pc, store);
    }
    #[inline]
    fn halt(&mut self, cycle: u64) {
        self.0.halt(cycle);
        self.1.halt(cycle);
    }
    #[inline]
    fn cycle_retired(&mut self, cycle: u64) {
        self.0.cycle_retired(cycle);
        self.1.cycle_retired(cycle);
    }
}
