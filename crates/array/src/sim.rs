//! The many-core array simulator: one engine per core, private local
//! memories, and a cycle-lockstep mesh exchange.
//!
//! # Lockstep schedule
//!
//! The array's semantics are a lockstep schedule in which every global
//! cycle has two phases:
//!
//! 1. **Compute** — every core advances exactly one processor cycle, in
//!    core index order. Cores share nothing (each owns its memory), so
//!    the order cannot influence results.
//! 2. **Exchange** — the mesh phase, in a fixed order: ejection into
//!    free RX mailboxes (core index order), link advancement (link id
//!    order), then injection from committed TX mailboxes (core index
//!    order).
//!
//! Then the cycle budget is checked.
//!
//! # The event loop
//!
//! [`ArraySimulator::run`] computes exactly that schedule without
//! stepping every core through every cycle. A core reads mesh state
//! only through its own loads of its mailbox window, and the exchange
//! writes window words only between cycles; outside its window, a core
//! depends on nothing but itself. So each core runs ahead on
//! `Simulator`'s threaded loop ([`Simulator::run_until_access`]) to the
//! top of its next cycle that loads or stores a window byte, and waits
//! there. `run` is one loop over global cycles: a core whose own cycle
//! equals the global cycle steps that cycle (its window access) and
//! runs ahead again; then the exchange runs, but only while the NoC
//! holds a message or a TX window is committed. Otherwise no exchange
//! can change anything until some core's next event, and the loop jumps
//! there.
//!
//! Every window access thus happens at its lockstep global cycle, with
//! every exchange before that cycle already applied to the window and
//! none after it, and every exchange sees each window as the lockstep
//! loop would: the cycles a core ran ahead of the exchange touch no
//! window word. Halts and errors take effect at the global cycle the
//! lockstep loop would have seen them. A core's halt counts from the
//! cycle after its `HALT`; an error is reported at the cycle that
//! raised it, lowest core index first and before that cycle's exchange.
//! The budget times out at `max_cycles`. A core never runs past the
//! budget: its own cycle limit is the cycle the array times out at.
//!
//! # Determinism argument
//!
//! The only cross-core state is the NoC. Every NoC transition happens
//! inside the exchange phase, in a fixed iteration order, at a global
//! cycle fixed by the program. A run is therefore a pure function of
//! the program, the memory image and the [`MeshSpec`]: per-core stats,
//! registers and final memories are byte-identical from run to run,
//! which `tests/manycore_determinism.rs` pins down.
//!
//! # Engines
//!
//! Cores run the production engine, [`Simulator`], by default, with the
//! reference engine as the oracle they are checked against. Reference
//! cores do not run ahead: they step every global cycle, which makes a
//! reference mesh the lockstep loop itself.

use crate::mailbox;
use crate::noc::{Noc, NocConfig, NocStats};
use epic_config::Config;
use epic_isa::Instruction;
use epic_sim::{Engine, Memory, ReferenceSimulator, SimError, SimStats, Simulator};
use std::fmt;
use std::ops::Range;
use std::sync::Arc;

/// Geometry, engine and timing parameters of a many-core array.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MeshSpec {
    /// Cores per row.
    pub width: usize,
    /// Rows of cores.
    pub height: usize,
    /// Execution engine instantiated in every core: threaded (the
    /// default, [`Simulator`] running ahead between mailbox accesses)
    /// or reference.
    pub engine: Engine,
    /// Interconnect timing/capacity parameters.
    pub noc: NocConfig,
    /// Global cycle budget before the array reports a timeout.
    pub max_cycles: u64,
}

impl MeshSpec {
    /// A `width`×`height` mesh with the default engine, NoC timing and
    /// a 10M-cycle budget.
    #[must_use]
    pub fn new(width: usize, height: usize) -> Self {
        MeshSpec {
            width,
            height,
            engine: Engine::default(),
            noc: NocConfig::default(),
            max_cycles: 10_000_000,
        }
    }

    /// Replaces the engine.
    #[must_use]
    pub fn with_engine(mut self, engine: Engine) -> Self {
        self.engine = engine;
        self
    }

    /// Replaces the NoC parameters.
    #[must_use]
    pub fn with_noc(mut self, noc: NocConfig) -> Self {
        self.noc = noc;
        self
    }

    /// Replaces the cycle budget.
    #[must_use]
    pub fn with_max_cycles(mut self, max_cycles: u64) -> Self {
        self.max_cycles = max_cycles;
        self
    }

    /// Cores in the mesh.
    #[must_use]
    pub fn cores(&self) -> usize {
        self.width * self.height
    }
}

/// One core's engine: the reference oracle or the production engine,
/// which are bit-identical.
#[derive(Debug, Clone)]
pub enum CoreSim {
    /// The interpret-every-cycle golden model.
    Reference(Box<ReferenceSimulator>),
    /// The production engine, running ahead on its threaded loop
    /// between mailbox accesses.
    Threaded(Box<Simulator>),
}

impl CoreSim {
    /// The prototype every core clones: decoded once and, for the
    /// threaded engine, translated once.
    fn build(
        engine: Engine,
        config: &Config,
        bundles: Arc<[Vec<Instruction>]>,
        entry: u32,
    ) -> Result<Self, ArrayError> {
        Ok(match engine {
            Engine::Reference => CoreSim::Reference(Box::new(ReferenceSimulator::new(
                config,
                bundles.to_vec(),
                entry,
            ))),
            Engine::Threaded => {
                let mut sim = Simulator::try_new(config, bundles, entry)
                    .map_err(|source| ArrayError::Core { core: 0, source })?;
                sim.translate();
                CoreSim::Threaded(Box::new(sim))
            }
        })
    }

    fn step(&mut self) -> Result<bool, SimError> {
        match self {
            CoreSim::Reference(s) => s.step(),
            CoreSim::Threaded(s) => s.step(),
        }
    }

    /// Runs a threaded core ahead to the top of its next cycle that
    /// touches `window`; a reference core stays where it is. Returns
    /// `false` once halted.
    fn run_ahead(&mut self, window: Range<u32>) -> Result<bool, SimError> {
        match self {
            CoreSim::Reference(s) => Ok(!s.is_halted()),
            CoreSim::Threaded(s) => s.run_until_access(window),
        }
    }

    fn set_memory(&mut self, memory: Memory) {
        match self {
            CoreSim::Reference(s) => s.set_memory(memory),
            CoreSim::Threaded(s) => s.set_memory(memory),
        }
    }

    fn set_cycle_limit(&mut self, limit: u64) {
        match self {
            CoreSim::Reference(s) => s.set_cycle_limit(limit),
            CoreSim::Threaded(s) => s.set_cycle_limit(limit),
        }
    }

    /// The core's data memory.
    #[must_use]
    pub fn memory(&self) -> &Memory {
        match self {
            CoreSim::Reference(s) => s.memory(),
            CoreSim::Threaded(s) => s.memory(),
        }
    }

    fn memory_mut(&mut self) -> &mut Memory {
        match self {
            CoreSim::Reference(s) => s.memory_mut(),
            CoreSim::Threaded(s) => s.memory_mut(),
        }
    }

    /// A general-purpose register.
    #[must_use]
    pub fn gpr(&self, index: usize) -> u32 {
        match self {
            CoreSim::Reference(s) => s.gpr(index),
            CoreSim::Threaded(s) => s.gpr(index),
        }
    }

    /// A predicate register.
    #[must_use]
    pub fn pred(&self, index: usize) -> bool {
        match self {
            CoreSim::Reference(s) => s.pred(index),
            CoreSim::Threaded(s) => s.pred(index),
        }
    }

    /// A branch-target register.
    #[must_use]
    pub fn btr(&self, index: usize) -> u32 {
        match self {
            CoreSim::Reference(s) => s.btr(index),
            CoreSim::Threaded(s) => s.btr(index),
        }
    }

    /// Whether the core has executed `HALT`.
    #[must_use]
    pub fn is_halted(&self) -> bool {
        match self {
            CoreSim::Reference(s) => s.is_halted(),
            CoreSim::Threaded(s) => s.is_halted(),
        }
    }

    /// Execution statistics so far.
    #[must_use]
    pub fn stats(&self) -> &SimStats {
        match self {
            CoreSim::Reference(s) => s.stats(),
            CoreSim::Threaded(s) => s.stats(),
        }
    }
}

/// Where a core stands; its [`Core::next`] cycle says when that matters.
#[derive(Debug, Clone)]
enum Status {
    /// Waiting at the top of its cycle `next`, which the loop steps at
    /// global cycle `next`.
    Running,
    /// Halted; the lockstep loop counts it halted from global cycle
    /// `next` on.
    Halted,
    /// Its cycle `next` raised the error, reported at that global cycle.
    Failed(SimError),
}

/// One core plus its event-loop bookkeeping.
#[derive(Debug, Clone)]
struct Core {
    sim: CoreSim,
    status: Status,
    /// The global cycle of the core's next event (see [`Status`]): the
    /// core's own cycle count.
    next: u64,
    /// Whether the core's TX window holds a committed message
    /// (`TX_STATUS == 1`).
    tx_committed: bool,
}

impl Core {
    /// Records where a step or a run left the core.
    fn settle(&mut self, ran: Result<bool, SimError>, mailbox_base: u32) {
        self.next = self.sim.stats().cycles;
        self.status = match ran {
            Ok(true) => Status::Running,
            Ok(false) => Status::Halted,
            Err(e) => Status::Failed(e),
        };
        let tx_status = mb_peek(self.sim.memory(), mailbox_base, mailbox::TX_STATUS);
        self.tx_committed = tx_status == 1;
    }
}

/// Error raised while running a many-core array.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum ArrayError {
    /// The mesh geometry or mailbox placement is unusable.
    Setup(String),
    /// A core's simulator faulted; the lowest-index core that faulted
    /// in the first faulting cycle is reported.
    Core {
        /// Linear index of the faulting core.
        core: usize,
        /// The underlying simulator error.
        source: SimError,
    },
    /// A committed TX mailbox held an invalid destination or length.
    BadMessage {
        /// Linear index of the offending core.
        core: usize,
        /// Global cycle of the attempted injection.
        cycle: u64,
        /// What was wrong.
        detail: String,
    },
    /// The global cycle budget ran out before every core halted.
    Timeout {
        /// The exhausted budget.
        cycle: u64,
    },
    /// Every core halted while messages were still in flight — a
    /// protocol bug in the workload (messages must be conserved).
    Undelivered {
        /// Messages injected but never ejected.
        in_flight: u64,
    },
}

impl fmt::Display for ArrayError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ArrayError::Setup(msg) => write!(f, "array setup: {msg}"),
            ArrayError::Core { core, source } => write!(f, "core {core}: {source}"),
            ArrayError::BadMessage {
                core,
                cycle,
                detail,
            } => write!(
                f,
                "core {core} committed a bad message at cycle {cycle}: {detail}"
            ),
            ArrayError::Timeout { cycle } => {
                write!(f, "array cycle budget exhausted at cycle {cycle}")
            }
            ArrayError::Undelivered { in_flight } => write!(
                f,
                "all cores halted with {in_flight} message(s) still in flight"
            ),
        }
    }
}

impl std::error::Error for ArrayError {}

/// What a completed array run produced.
#[derive(Debug, Clone, PartialEq)]
pub struct ArrayOutcome {
    /// Global lockstep cycles executed.
    pub cycles: u64,
    /// Per-core execution statistics, in core index order.
    pub per_core: Vec<SimStats>,
    /// Per-core return values (`r1` at halt), in core index order.
    pub return_values: Vec<u32>,
    /// Interconnect statistics.
    pub noc: NocStats,
}

impl ArrayOutcome {
    /// Sum of per-core architectural cycles (the "work" the array did).
    #[must_use]
    pub fn aggregate_core_cycles(&self) -> u64 {
        self.per_core.iter().map(|s| s.cycles).sum()
    }
}

/// An N×M array of EPIC cores with private memories, joined by a mesh
/// NoC, with cycle-lockstep semantics (see the module docs).
///
/// ```
/// use epic_array::{ArraySimulator, MeshSpec};
/// use epic_config::Config;
///
/// let config = Config::default();
/// let source = ".entry main\nmain:\n    MOVIL r1, #7\n;;\n    HALT\n;;\n";
/// let program = epic_asm::assemble(source, &config).unwrap();
/// let mut array = ArraySimulator::new(
///     &config,
///     program.bundles(),
///     program.entry(),
///     &vec![0u8; 4096],
///     0, // mailbox window at address 0
///     &MeshSpec::new(2, 2),
/// )
/// .unwrap();
/// let outcome = array.run().unwrap();
/// assert_eq!(outcome.per_core.len(), 4);
/// assert!(outcome.return_values.iter().all(|&r| r == 7));
/// ```
#[derive(Debug)]
pub struct ArraySimulator {
    spec: MeshSpec,
    mailbox_base: u32,
    cores: Vec<Core>,
    noc: Noc,
    cycle: u64,
}

fn mb_peek(memory: &Memory, base: u32, offset: u32) -> u32 {
    memory
        .peek_word(base + offset * 4)
        .expect("mailbox window validated at construction")
}

fn mb_poke(memory: &mut Memory, base: u32, offset: u32, value: u32) {
    assert!(
        memory.poke_word(base + offset * 4, value),
        "mailbox window validated at construction"
    );
}

impl ArraySimulator {
    /// Builds a mesh of identical cores: the program is decoded (and,
    /// for threaded cores, translated) **once**, then cloned per core;
    /// every core gets a private copy of `initial_memory` with its
    /// identity words ([`mailbox::CORE_ID`], [`mailbox::MESH_WIDTH`],
    /// [`mailbox::MESH_HEIGHT`]) poked into the mailbox window at
    /// `mailbox_base`.
    ///
    /// `bundles` is a slice or `Vec` of bundles, or an assembled
    /// program's `shared_bundles()`, which the cores share without
    /// copying.
    ///
    /// # Errors
    ///
    /// Returns [`ArrayError::Setup`] for a degenerate mesh or a mailbox
    /// window that is misaligned or out of bounds, and
    /// [`ArrayError::Core`] if the program is illegal for the
    /// configuration.
    pub fn new(
        config: &Config,
        bundles: impl Into<Arc<[Vec<Instruction>]>>,
        entry: u32,
        initial_memory: &[u8],
        mailbox_base: u32,
        spec: &MeshSpec,
    ) -> Result<Self, ArrayError> {
        if spec.width == 0 || spec.height == 0 {
            return Err(ArrayError::Setup(format!(
                "mesh must have positive dimensions, got {}x{}",
                spec.width, spec.height
            )));
        }
        if spec.noc.link_latency == 0 || spec.noc.link_capacity == 0 {
            return Err(ArrayError::Setup(
                "link latency and capacity must be >= 1".into(),
            ));
        }
        if !mailbox_base.is_multiple_of(4) {
            return Err(ArrayError::Setup(format!(
                "mailbox base {mailbox_base:#x} is not word-aligned"
            )));
        }
        let end = mailbox_base as usize + mailbox::MAILBOX_BYTES as usize;
        if end > initial_memory.len() {
            return Err(ArrayError::Setup(format!(
                "mailbox window [{mailbox_base:#x}, {end:#x}) exceeds the \
                 {} byte memory image",
                initial_memory.len()
            )));
        }
        let ncores = spec.cores();
        let prototype = CoreSim::build(spec.engine, config, bundles.into(), entry)?;
        let mut cores = Vec::with_capacity(ncores);
        for idx in 0..ncores {
            let mut sim = prototype.clone();
            sim.set_memory(Memory::from_image(initial_memory.to_vec()));
            // A core runs ahead no further than the cycle the array
            // times out at, where its own limit would raise: the
            // array's timeout comes first, as a global condition.
            sim.set_cycle_limit(spec.max_cycles.max(1));
            let memory = sim.memory_mut();
            mb_poke(memory, mailbox_base, mailbox::CORE_ID, idx as u32);
            mb_poke(memory, mailbox_base, mailbox::MESH_WIDTH, spec.width as u32);
            mb_poke(
                memory,
                mailbox_base,
                mailbox::MESH_HEIGHT,
                spec.height as u32,
            );
            cores.push(Core {
                sim,
                status: Status::Running,
                next: 0,
                tx_committed: false,
            });
        }
        Ok(ArraySimulator {
            spec: *spec,
            mailbox_base,
            cores,
            noc: Noc::new(spec.width, spec.height, spec.noc),
            cycle: 0,
        })
    }

    /// The mesh parameters the array was built with.
    #[must_use]
    pub fn spec(&self) -> &MeshSpec {
        &self.spec
    }

    /// Global lockstep cycles executed so far.
    #[must_use]
    pub fn cycles(&self) -> u64 {
        self.cycle
    }

    /// Read-only access to one core's engine (registers, memory,
    /// stats) — for tests and reports after [`run`](Self::run).
    ///
    /// # Panics
    ///
    /// Panics if `core` is off-mesh.
    #[must_use]
    pub fn core(&self, core: usize) -> &CoreSim {
        &self.cores[core].sim
    }

    /// Runs the array to completion: computes the lockstep schedule
    /// until every core halts and the NoC drains. Call once per array.
    ///
    /// # Errors
    ///
    /// [`ArrayError::Core`] for the lowest-index faulting core,
    /// [`ArrayError::BadMessage`] for an invalid committed TX mailbox,
    /// [`ArrayError::Timeout`] when `max_cycles` runs out, and
    /// [`ArrayError::Undelivered`] if every core halts with messages
    /// still in flight. All are deterministic for a given program and
    /// mesh, and so is [`cycles`](Self::cycles) after them. After an
    /// error, a core may have run past the error's cycle: its state is
    /// not the lockstep loop's.
    pub fn run(&mut self) -> Result<ArrayOutcome, ArrayError> {
        let base = self.mailbox_base;
        let window = base..base + mailbox::MAILBOX_BYTES;
        for core in &mut self.cores {
            let ran = core.sim.run_ahead(window.clone());
            core.settle(ran, base);
        }
        loop {
            let now = self.cycle;
            for core in &mut self.cores {
                if core.next == now && matches!(core.status, Status::Running) {
                    // The core's cycle `now`, then on to its next event.
                    let ran = (core.sim.step()).and_then(|_| core.sim.run_ahead(window.clone()));
                    core.settle(ran, base);
                }
            }
            self.cycle = now + 1;
            for (idx, core) in self.cores.iter().enumerate() {
                match &core.status {
                    Status::Failed(source) if core.next == now => {
                        return Err(ArrayError::Core {
                            core: idx,
                            source: source.clone(),
                        });
                    }
                    _ => {}
                }
            }
            if self.exchange_pending() {
                self.exchange(now)?;
            }
            let all_halted =
                (self.cores.iter()).all(|c| matches!(c.status, Status::Halted) && c.next <= now);
            if all_halted {
                // Every TX window still committed on a fully-halted mesh
                // counts as in flight: nobody is left to receive it.
                let stats = self.noc.stats();
                let refused = self.cores.iter().filter(|c| c.tx_committed).count() as u64;
                let in_flight = stats.messages_injected - stats.messages_delivered + refused;
                if in_flight > 0 {
                    return Err(ArrayError::Undelivered { in_flight });
                }
                break;
            }
            // With nothing for the exchange to do, no cycle before the
            // next core event changes any state: jump there.
            let next = if self.exchange_pending() {
                now + 1
            } else {
                (self.cores.iter())
                    .filter(|c| !matches!(c.status, Status::Halted) || c.next > now)
                    .map(|c| c.next)
                    .min()
                    .expect("a core that has not halted has an event")
            };
            self.cycle = next.min(self.spec.max_cycles.max(now + 1));
            if self.cycle >= self.spec.max_cycles {
                return Err(ArrayError::Timeout { cycle: self.cycle });
            }
        }
        Ok(ArrayOutcome {
            cycles: self.cycle,
            per_core: self.cores.iter().map(|c| *c.sim.stats()).collect(),
            return_values: self.cores.iter().map(|c| c.sim.gpr(1)).collect(),
            noc: self.noc.stats().clone(),
        })
    }

    /// Whether the exchange has work: a message in the NoC or a
    /// committed TX window.
    fn exchange_pending(&self) -> bool {
        !self.noc.is_idle() || self.cores.iter().any(|c| c.tx_committed)
    }

    /// The mesh phase of global cycle `now`: eject into free RX
    /// mailboxes, advance the links, inject from committed TX mailboxes
    /// (a refused injection stays committed and retries next cycle).
    fn exchange(&mut self, now: u64) -> Result<(), ArrayError> {
        let base = self.mailbox_base;
        let ncores = self.cores.len();
        let noc = &mut self.noc;
        for (idx, core) in self.cores.iter_mut().enumerate() {
            let memory = core.sim.memory_mut();
            if mb_peek(memory, base, mailbox::RX_STATUS) == 0 {
                if let Some(delivery) = noc.eject(now, idx) {
                    mb_poke(memory, base, mailbox::RX_SRC, delivery.src as u32);
                    mb_poke(memory, base, mailbox::RX_LEN, delivery.payload.len() as u32);
                    for (i, &word) in delivery.payload.iter().enumerate() {
                        mb_poke(memory, base, mailbox::RX_DATA + i as u32, word);
                    }
                    mb_poke(memory, base, mailbox::RX_STATUS, 1);
                }
            }
        }
        noc.advance(now);
        let mut payload = [0u32; mailbox::MAX_PAYLOAD_WORDS as usize];
        for (idx, core) in self.cores.iter_mut().enumerate() {
            if !core.tx_committed {
                continue;
            }
            let memory = core.sim.memory_mut();
            let dest = mb_peek(memory, base, mailbox::TX_DEST);
            let len = mb_peek(memory, base, mailbox::TX_LEN);
            if dest as usize >= ncores {
                return Err(ArrayError::BadMessage {
                    core: idx,
                    cycle: now,
                    detail: format!("destination {dest} is off the {ncores}-core mesh"),
                });
            }
            if len == 0 || len > mailbox::MAX_PAYLOAD_WORDS {
                return Err(ArrayError::BadMessage {
                    core: idx,
                    cycle: now,
                    detail: format!(
                        "payload length {len} outside 1..={}",
                        mailbox::MAX_PAYLOAD_WORDS
                    ),
                });
            }
            // A refused injection stays committed and reads nothing more.
            if !noc.has_room(idx, dest as usize) {
                continue;
            }
            let payload = &mut payload[..len as usize];
            for (i, word) in payload.iter_mut().enumerate() {
                *word = mb_peek(memory, base, mailbox::TX_DATA + i as u32);
            }
            let accepted = noc.try_inject(now, idx, dest as usize, payload);
            assert!(accepted, "the first hop had room");
            mb_poke(memory, base, mailbox::TX_STATUS, 0);
            core.tx_committed = false;
        }
        Ok(())
    }
}
