//! The many-core array simulator: one engine per core, private local
//! memories, and a cycle-lockstep mesh exchange.
//!
//! # Lockstep schedule
//!
//! Every global cycle has two phases:
//!
//! 1. **Compute** — every core advances exactly one processor cycle.
//!    Cores are partitioned into contiguous index chunks over a fixed
//!    worker fan-out; within a chunk cores step in index order. Cores
//!    share nothing (each owns its memory), so chunk execution order
//!    cannot influence results.
//! 2. **Exchange** — worker 0 alone, between two barriers, runs the
//!    serial mesh phase in a fixed order: ejection into free RX
//!    mailboxes (core index order), link advancement (link id order),
//!    then injection from committed TX mailboxes (core index order).
//!
//! # Determinism argument
//!
//! The only cross-core state is the NoC, and every NoC transition
//! happens inside the serial exchange phase in a fixed iteration
//! order. The worker count changes *which host thread* steps a core,
//! never *when* in the lockstep schedule it steps — and a single-
//! worker run goes through the identical code path. Hence per-core
//! stats, registers and final memories are byte-identical for any host
//! thread count, which `tests/manycore_determinism.rs` pins down.

use crate::mailbox;
use crate::noc::{Noc, NocConfig, NocStats};
use epic_config::Config;
use epic_isa::Instruction;
use epic_sim::{
    Engine, Memory, ReferenceSimulator, SimError, SimStats, Simulator, ThreadedSimulator,
};
use rayon::prelude::*;
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;

/// Geometry, engine and timing parameters of a many-core array.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MeshSpec {
    /// Cores per row.
    pub width: usize,
    /// Rows of cores.
    pub height: usize,
    /// Execution engine instantiated in every core.
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

/// One core's engine — any of the three bit-identical simulators.
#[derive(Debug, Clone)]
pub enum CoreSim {
    /// The interpret-every-cycle golden model.
    Reference(Box<ReferenceSimulator>),
    /// The decode-once per-cycle engine.
    Decoded(Box<Simulator>),
    /// The threaded-code engine on its per-cycle path.
    Threaded(Box<ThreadedSimulator>),
}

impl CoreSim {
    fn build(
        engine: Engine,
        config: &Config,
        bundles: &[Vec<Instruction>],
        entry: u32,
    ) -> Result<Self, SimError> {
        Ok(match engine {
            Engine::Reference => CoreSim::Reference(Box::new(ReferenceSimulator::new(
                config,
                bundles.to_vec(),
                entry,
            ))),
            Engine::Decoded => CoreSim::Decoded(Box::new(Simulator::try_new(
                config,
                bundles.to_vec(),
                entry,
            )?)),
            Engine::Threaded => CoreSim::Threaded(Box::new(ThreadedSimulator::try_new(
                config,
                bundles.to_vec(),
                entry,
            )?)),
        })
    }

    fn step(&mut self) -> Result<bool, SimError> {
        match self {
            CoreSim::Reference(s) => s.step(),
            CoreSim::Decoded(s) => s.step(),
            CoreSim::Threaded(s) => s.step(),
        }
    }

    fn set_memory(&mut self, memory: Memory) {
        match self {
            CoreSim::Reference(s) => s.set_memory(memory),
            CoreSim::Decoded(s) => s.set_memory(memory),
            CoreSim::Threaded(s) => s.set_memory(memory),
        }
    }

    fn set_cycle_limit(&mut self, limit: u64) {
        match self {
            CoreSim::Reference(s) => s.set_cycle_limit(limit),
            CoreSim::Decoded(s) => s.set_cycle_limit(limit),
            CoreSim::Threaded(s) => s.set_cycle_limit(limit),
        }
    }

    /// The core's data memory.
    #[must_use]
    pub fn memory(&self) -> &Memory {
        match self {
            CoreSim::Reference(s) => s.memory(),
            CoreSim::Decoded(s) => s.memory(),
            CoreSim::Threaded(s) => s.memory(),
        }
    }

    fn memory_mut(&mut self) -> &mut Memory {
        match self {
            CoreSim::Reference(s) => s.memory_mut(),
            CoreSim::Decoded(s) => s.memory_mut(),
            CoreSim::Threaded(s) => s.memory_mut(),
        }
    }

    /// A general-purpose register.
    #[must_use]
    pub fn gpr(&self, index: usize) -> u32 {
        match self {
            CoreSim::Reference(s) => s.gpr(index),
            CoreSim::Decoded(s) => s.gpr(index),
            CoreSim::Threaded(s) => s.gpr(index),
        }
    }

    /// A predicate register.
    #[must_use]
    pub fn pred(&self, index: usize) -> bool {
        match self {
            CoreSim::Reference(s) => s.pred(index),
            CoreSim::Decoded(s) => s.pred(index),
            CoreSim::Threaded(s) => s.pred(index),
        }
    }

    /// A branch-target register.
    #[must_use]
    pub fn btr(&self, index: usize) -> u32 {
        match self {
            CoreSim::Reference(s) => s.btr(index),
            CoreSim::Decoded(s) => s.btr(index),
            CoreSim::Threaded(s) => s.btr(index),
        }
    }

    /// Whether the core has executed `HALT`.
    #[must_use]
    pub fn is_halted(&self) -> bool {
        match self {
            CoreSim::Reference(s) => s.is_halted(),
            CoreSim::Decoded(s) => s.is_halted(),
            CoreSim::Threaded(s) => s.is_halted(),
        }
    }

    /// Execution statistics so far.
    #[must_use]
    pub fn stats(&self) -> &SimStats {
        match self {
            CoreSim::Reference(s) => s.stats(),
            CoreSim::Decoded(s) => s.stats(),
            CoreSim::Threaded(s) => s.stats(),
        }
    }

    /// Basic blocks executed on the threaded engine's fast path (0 on
    /// the per-cycle engines; the lockstep array always steps per cycle,
    /// so this stays 0 for every engine).
    #[must_use]
    pub fn fast_block_execs(&self) -> u64 {
        match self {
            CoreSim::Threaded(s) => s.fast_block_execs(),
            _ => 0,
        }
    }
}

/// One core plus its lockstep bookkeeping.
#[derive(Debug, Clone)]
struct Core {
    sim: CoreSim,
    halted: bool,
    error: Option<SimError>,
}

impl Core {
    /// Advances one cycle; halting latches and an error parks the core
    /// for worker 0 to report deterministically.
    fn step_once(&mut self) {
        if self.halted || self.error.is_some() {
            return;
        }
        match self.sim.step() {
            Ok(true) => {}
            Ok(false) => self.halted = true,
            Err(e) => self.error = Some(e),
        }
    }
}

/// Error raised while running a many-core array.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum ArrayError {
    /// The mesh geometry or mailbox placement is unusable.
    Setup(String),
    /// A core's simulator faulted; the lowest-index faulting core is
    /// reported (deterministic under any host thread count).
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
    /// Total fast-path block executions over all cores (always 0 in
    /// lockstep runs; kept so reports can prove it).
    pub fast_block_execs: u64,
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

/// A sense-reversing spin barrier for the lockstep worker fan-out.
///
/// Workers synchronise twice per cycle; a `std::sync::Barrier` parks
/// threads in the kernel and is an order of magnitude too slow at that
/// cadence. With one worker every wait is a no-op, which keeps the
/// single-threaded run on the identical code path.
struct SpinBarrier {
    total: usize,
    /// More waiters than host CPUs: spinning only burns the quantum the
    /// straggler needs, so yield to the scheduler immediately.
    oversubscribed: bool,
    count: AtomicUsize,
    generation: AtomicUsize,
}

impl SpinBarrier {
    fn new(total: usize) -> Self {
        let cpus = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
        SpinBarrier {
            total,
            oversubscribed: total > cpus,
            count: AtomicUsize::new(0),
            generation: AtomicUsize::new(0),
        }
    }

    fn wait(&self) {
        if self.total == 1 {
            return;
        }
        let generation = self.generation.load(Ordering::Acquire);
        if self.count.fetch_add(1, Ordering::AcqRel) + 1 == self.total {
            // Last arriver: reset the count (everyone else is still
            // spinning on the generation) and release the cohort.
            self.count.store(0, Ordering::Relaxed);
            self.generation.fetch_add(1, Ordering::AcqRel);
        } else {
            let mut spins = 0u32;
            while self.generation.load(Ordering::Acquire) == generation {
                spins = spins.saturating_add(1);
                if !self.oversubscribed && spins < 64 {
                    std::hint::spin_loop();
                } else {
                    std::thread::yield_now();
                }
            }
        }
    }
}

/// An N×M array of EPIC cores with private memories, joined by a mesh
/// NoC and stepped in cycle lockstep (see the module docs).
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
    cores: Vec<Mutex<Core>>,
    noc: Mutex<Noc>,
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
    /// on the threaded engine, translated) **once**, then cloned per
    /// core; every core gets a private copy of `initial_memory` with
    /// its identity words ([`mailbox::CORE_ID`], [`mailbox::MESH_WIDTH`],
    /// [`mailbox::MESH_HEIGHT`]) poked into the mailbox window at
    /// `mailbox_base`.
    ///
    /// # Errors
    ///
    /// Returns [`ArrayError::Setup`] for a degenerate mesh or a
    /// mailbox window that is misaligned or out of bounds, and
    /// [`ArrayError::Core`] if the program is illegal for the
    /// configuration.
    pub fn new(
        config: &Config,
        bundles: &[Vec<Instruction>],
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
        let prototype = CoreSim::build(spec.engine, config, bundles, entry)
            .map_err(|source| ArrayError::Core { core: 0, source })?;
        let mut cores = Vec::with_capacity(ncores);
        for idx in 0..ncores {
            let mut sim = prototype.clone();
            sim.set_memory(Memory::from_image(initial_memory.to_vec()));
            // The array's own budget must fire first so timeouts are
            // reported as a global condition, not a per-core fault.
            sim.set_cycle_limit(spec.max_cycles.saturating_add(2));
            let memory = sim.memory_mut();
            mb_poke(memory, mailbox_base, mailbox::CORE_ID, idx as u32);
            mb_poke(memory, mailbox_base, mailbox::MESH_WIDTH, spec.width as u32);
            mb_poke(
                memory,
                mailbox_base,
                mailbox::MESH_HEIGHT,
                spec.height as u32,
            );
            cores.push(Mutex::new(Core {
                sim,
                halted: false,
                error: None,
            }));
        }
        Ok(ArraySimulator {
            spec: *spec,
            mailbox_base,
            cores,
            noc: Mutex::new(Noc::new(spec.width, spec.height, spec.noc)),
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
    pub fn core(&mut self, core: usize) -> &CoreSim {
        &self.cores[core].get_mut().expect("core mutex poisoned").sim
    }

    /// Runs the array to completion: loops the lockstep schedule until
    /// every core halts and the NoC drains, fanning the compute phase
    /// out over `min(rayon::current_num_threads(), cores)` workers.
    /// Call once per array.
    ///
    /// # Errors
    ///
    /// [`ArrayError::Core`] for the lowest-index faulting core,
    /// [`ArrayError::BadMessage`] for an invalid committed TX mailbox,
    /// [`ArrayError::Timeout`] when `max_cycles` runs out, and
    /// [`ArrayError::Undelivered`] if every core halts with messages
    /// still in flight. All are deterministic for a given program and
    /// mesh, regardless of host thread count.
    ///
    /// # Panics
    ///
    /// Panics if a worker thread panicked and poisoned a core mutex.
    pub fn run(&mut self) -> Result<ArrayOutcome, ArrayError> {
        let ncores = self.cores.len();
        let workers = rayon::current_num_threads().min(ncores).max(1);
        let chunk = ncores.div_ceil(workers);
        let barrier = SpinBarrier::new(workers);
        let stop = AtomicBool::new(false);
        let verdict: Mutex<Option<Result<(), ArrayError>>> = Mutex::new(None);
        let cycles_done = AtomicU64::new(self.cycle);
        let start = self.cycle;
        let this: &ArraySimulator = self;
        let _: Vec<()> = (0..workers)
            .collect::<Vec<_>>()
            .into_par_iter()
            .map(|w| {
                let lo = (w * chunk).min(ncores);
                let hi = ((w + 1) * chunk).min(ncores);
                let mut now = start;
                while !stop.load(Ordering::Acquire) {
                    for idx in lo..hi {
                        this.cores[idx]
                            .lock()
                            .expect("core mutex poisoned")
                            .step_once();
                    }
                    barrier.wait();
                    if w == 0 {
                        let status = this.exchange(now);
                        let finished = match &status {
                            Ok(true) | Err(_) => true,
                            Ok(false) => now + 1 >= this.spec.max_cycles,
                        };
                        if finished {
                            cycles_done.store(now + 1, Ordering::Relaxed);
                            *verdict.lock().expect("verdict mutex poisoned") = Some(match status {
                                Ok(true) => Ok(()),
                                Ok(false) => Err(ArrayError::Timeout { cycle: now + 1 }),
                                Err(e) => Err(e),
                            });
                            stop.store(true, Ordering::Release);
                        }
                    }
                    barrier.wait();
                    now += 1;
                }
            })
            .collect();
        self.cycle = cycles_done.load(Ordering::Relaxed);
        verdict
            .into_inner()
            .expect("verdict mutex poisoned")
            .expect("worker 0 always decides before stopping")?;
        let mut per_core = Vec::with_capacity(ncores);
        let mut return_values = Vec::with_capacity(ncores);
        let mut fast_block_execs = 0;
        for core in &mut self.cores {
            let core = core.get_mut().expect("core mutex poisoned");
            per_core.push(*core.sim.stats());
            return_values.push(core.sim.gpr(1));
            fast_block_execs += core.sim.fast_block_execs();
        }
        Ok(ArrayOutcome {
            cycles: self.cycle,
            per_core,
            return_values,
            fast_block_execs,
            noc: self
                .noc
                .get_mut()
                .expect("noc mutex poisoned")
                .stats()
                .clone(),
        })
    }

    /// The serial per-cycle mesh phase (worker 0 only): report core
    /// faults, eject into free RX mailboxes, advance the links, inject
    /// from committed TX mailboxes. Returns `Ok(true)` when every core
    /// has halted and the NoC is drained.
    fn exchange(&self, now: u64) -> Result<bool, ArrayError> {
        let base = self.mailbox_base;
        let ncores = self.cores.len();
        let mut noc = self.noc.lock().expect("noc mutex poisoned");
        let mut all_halted = true;
        for idx in 0..ncores {
            let mut core = self.cores[idx].lock().expect("core mutex poisoned");
            if let Some(source) = core.error.take() {
                return Err(ArrayError::Core { core: idx, source });
            }
            all_halted &= core.halted;
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
        let mut committed_tx = false;
        for idx in 0..ncores {
            let mut core = self.cores[idx].lock().expect("core mutex poisoned");
            let memory = core.sim.memory_mut();
            if mb_peek(memory, base, mailbox::TX_STATUS) != 1 {
                continue;
            }
            committed_tx = true;
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
            let payload: Vec<u32> = (0..len)
                .map(|i| mb_peek(memory, base, mailbox::TX_DATA + i))
                .collect();
            if noc.try_inject(now, idx, dest as usize, payload) {
                mb_poke(memory, base, mailbox::TX_STATUS, 0);
            }
            // A refused injection stays committed; retried next cycle.
        }
        if all_halted {
            let stats = noc.stats();
            // A committed TX on a fully-halted mesh counts as in
            // flight: nobody is left to receive it.
            let in_flight =
                stats.messages_injected - stats.messages_delivered + u64::from(committed_tx);
            if in_flight > 0 || !noc.is_idle() {
                return Err(ArrayError::Undelivered { in_flight });
            }
            return Ok(true);
        }
        Ok(false)
    }
}
