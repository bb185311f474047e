//! `epic-array` — an N×M many-core array of customisable EPIC cores.
//!
//! The paper's customisation flow sizes a *single* core; this crate
//! scales the same simulated cores out into a mesh-connected
//! many-core array, so the cost/performance trade-offs of the
//! customisation space can be explored at the parallel-workload level
//! too. The array instantiates one execution engine per core — any of
//! the three bit-identical engines from `epic-sim` (reference, decoded,
//! threaded-code) — each with a **private** local memory, and joins them
//! with a cycle-lockstep mesh interconnect:
//!
//! * [`Noc`] — XY-routed point-to-point messages with per-hop latency
//!   and bounded link buffers (see [`noc`] module docs for the timing
//!   model and its delivery guarantees);
//! * [`mailbox`] — the memory-mapped send/recv window a mesh program
//!   uses to talk to the NoC with ordinary loads and stores;
//! * [`ArraySimulator`] — the lockstep driver: every core advances one
//!   cycle, then a serial exchange phase moves mailbox traffic. The
//!   compute phase fans out over host threads (via `rayon`), and the
//!   result is **grid-index deterministic**: byte-identical per-core
//!   stats and final memories at any host thread count (the
//!   determinism argument is spelled out in [`sim`]'s module docs).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod mailbox;
pub mod noc;
pub mod sim;

pub use noc::{link_name, Delivery, Noc, NocConfig, NocStats};
pub use sim::{ArrayError, ArrayOutcome, ArraySimulator, CoreSim, MeshSpec};
