//! Cycle-level simulator of the customisable EPIC processor.
//!
//! This crate models the datapath of Fig. 2 of the paper at cycle
//! granularity — the measurement instrument behind Table 1 (the paper's
//! cycle counts come from a cycle-level simulator, ReaCT-ILP):
//!
//! * a **2-stage pipeline**: Fetch/Decode/Issue feeding Execute/WriteBack;
//! * **N parallel ALUs** plus one LSU, one CMPU and one BRU; the iterative
//!   divider blocks its ALU instance for the full division latency;
//! * a **register-file controller** at 4× the processor clock: a dual-port
//!   register file services at most eight GPR reads+writes per processor
//!   cycle, with issue stalling when a bundle needs more (§3.2), and
//!   **forwarding** of just-computed results that both shortens latency
//!   and saves read ports;
//! * **full predication**: instructions whose guard predicate is false are
//!   squashed at write-back;
//! * **BTR branches** resolved in the execute stage, costing one flushed
//!   fetch on taken branches;
//! * a big-endian data memory behind the 2× memory controller, with
//!   faulting bounds/alignment checks (the speculative load `LWS` returns
//!   0 instead of faulting, HPL-PD's dismissible load).
//!
//! [`Simulator::stats`] exposes the cycle count, the stall breakdown by
//! cause and per-unit utilisation, which the benchmark harness turns into
//! the paper's tables and figures.
//!
//! Programs are **decoded once** at load time (unit classes, latencies,
//! port costs, operand indices and custom-op semantics pre-resolved from
//! the machine description), so the per-cycle loop touches only dense
//! arrays. [`Simulator`] has two run modes with bit-identical results:
//! stepping and observed runs go cycle by cycle, and an unobserved
//! [`Simulator::run`] folds each straight-line basic block's issue
//! schedule and chains the folded blocks into threaded step streams,
//! translated on the first such run. [`Simulator::run_until_access`]
//! runs the same loop but stops, exactly where stepping would, before
//! the first cycle that touches an address window: the many-core array
//! runs its cores ahead to their mailbox accesses this way. The
//! original interpret-every-cycle engine survives as
//! [`ReferenceSimulator`], the golden model the differential tests hold
//! both modes bit-identical to. [`Engine`] names the two engines.
//!
//! # Examples
//!
//! ```
//! use epic_config::Config;
//! use epic_sim::Simulator;
//!
//! let config = Config::default();
//! let program = epic_asm::assemble(
//!     "start:\n    MOVE r1, #40\n;;\n    ADD r1, r1, #2\n    HALT\n;;\n",
//!     &config,
//! )?;
//! let mut sim = Simulator::try_new(&config, program.bundles().to_vec(), program.entry())?;
//! sim.run()?;
//! assert_eq!(sim.gpr(1), 42);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod block;
mod decoded;
mod engine;
mod error;
mod exec;
mod machine;
mod memory;
mod profile;
mod reference;
mod semantics;
mod stats;
mod threaded;
mod trace;

pub use engine::Engine;
pub use error::SimError;
pub use machine::Simulator;
pub use memory::Memory;
pub use profile::{PcProfile, ProfileSink};
pub use reference::ReferenceSimulator;
pub use stats::{SimStats, StallBreakdown, StallCause, StallEvent};
pub use trace::{NopSink, TeeSink, TraceSink};

/// The name `perfbench` uses for [`Simulator`]: the threaded engine was
/// a separate type until it folded into `Simulator::run`. The alias goes
/// when the benchmark harness next changes.
pub type ThreadedSimulator = Simulator;
