//! `epic-array` — an N×M many-core array of customisable EPIC cores.
//!
//! The paper's customisation flow sizes a *single* core; this crate
//! scales the same simulated cores out into a mesh-connected
//! many-core array, so the cost/performance trade-offs of the
//! customisation space can be explored at the parallel-workload level
//! too. The array instantiates one execution engine per core — the
//! production `Simulator` from `epic-sim`, running ahead on its
//! threaded loop between mailbox accesses, or the bit-identical
//! reference engine as its oracle, stepped cycle by cycle — each with
//! a **private** local memory, and joins them with a cycle-lockstep
//! mesh interconnect:
//!
//! * [`Noc`] — XY-routed point-to-point messages with per-hop latency
//!   and bounded link buffers (see [`noc`] module docs for the timing
//!   model and its delivery guarantees);
//! * [`mailbox`] — the memory-mapped send/recv window a mesh program
//!   uses to talk to the NoC with ordinary loads and stores;
//! * [`ArraySimulator`] — the driver: lockstep semantics (every core
//!   advances one cycle, then an exchange phase moves mailbox
//!   traffic), computed by one event loop on the calling thread that
//!   steps a core only at its mailbox accesses and runs the exchange
//!   only while it has work. The result is **deterministic**:
//!   byte-identical per-core stats and final memories on every run
//!   (the exactness and determinism arguments are spelled out in
//!   [`sim`]'s module docs).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod mailbox;
pub mod noc;
pub mod sim;

pub use noc::{link_name, Delivery, Noc, NocConfig, NocStats};
pub use sim::{ArrayError, ArrayOutcome, ArraySimulator, CoreSim, MeshSpec};
