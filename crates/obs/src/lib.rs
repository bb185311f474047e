//! Cycle-accurate observability for the EPIC simulator and toolchain.
//!
//! The paper's performance story (§4, Table 2) is a story about *stalls*
//! — register-port pressure at the 4× register-file controller, fetch
//! bandwidth at the 2× memory controller, branch flushes — yet aggregate
//! [`SimStats`] only says *how many* cycles were lost, not *where* or
//! *why over time*. This crate turns the simulator's per-cycle event
//! stream into explanations:
//!
//! * [`MetricsRegistry`] — counters and fixed-bucket histograms
//!   (stall-length, port-demand and bundle-occupancy distributions) that
//!   reconcile **exactly**, field for field, with the engine's own
//!   [`SimStats`] (enforced by `tests/reconcile.rs` across every
//!   workload × configuration × engine);
//! * [`PerfettoSink`] — a Chrome/Perfetto trace-event JSON writer (one
//!   track per functional unit plus stall and fetch tracks); open the
//!   output at <https://ui.perfetto.dev>;
//! * [`ProfileSink`] + [`StallProfile`] — per-bundle and per-basic-block
//!   issue/stall attribution, the engine behind the `epic-prof` binary;
//! * [`RecordingSink`] — the raw event log, for tests and ad-hoc tools.
//!
//! The seam itself — the [`TraceSink`] trait — lives in `epic-sim`
//! (re-exported here), because the execution engines are monomorphised
//! over it: the default [`NopSink`] path compiles to the exact code that
//! ran before observability existed, so tracing costs nothing unless a
//! real sink is plugged in. The per-cycle lane of the throughput race
//! (`repro -- bench --throughput`) times that no-op-sink loop.
//!
//! # Examples
//!
//! ```
//! use epic_config::Config;
//! use epic_obs::MetricsRegistry;
//! use epic_sim::Simulator;
//!
//! let config = Config::default();
//! let program = epic_asm::assemble(
//!     "    MOVE r1, #40\n;;\n    ADD r1, r1, #2\n;;\n    HALT\n;;\n",
//!     &config,
//! )?;
//! let mut sim = Simulator::try_new(&config, program.bundles().to_vec(), program.entry())?;
//! let mut metrics = MetricsRegistry::default();
//! sim.run_with_sink(&mut metrics)?;
//! metrics.reconcile(sim.stats()).expect("metrics match SimStats exactly");
//! assert_eq!(metrics.counter("cycles"), sim.stats().cycles);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod metrics;
mod perfetto;
mod profile;
mod record;

pub use epic_sim::{NopSink, SimStats, StallCause, TeeSink, TraceSink};
pub use metrics::{Histogram, MetricsRegistry};
pub use perfetto::{PerfettoSink, TraceSpan};
pub use profile::{BlockProfile, PcProfile, ProfileSink, StallProfile};
pub use record::{RecordingSink, TraceEvent};
