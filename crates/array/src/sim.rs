//! The many-core array simulator: one [`Simulator`] per core, private
//! local memories, and a cycle-lockstep mesh exchange.
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
//! stepping every core through every cycle or running the exchange on
//! every cycle. `run` is one loop over global cycles: a core whose own
//! cycle equals the global cycle steps that cycle and runs ahead again;
//! then the exchange runs if it is awake; then the loop jumps to the
//! next core event or exchange wake-up. Two rules decide where cores
//! stop and when the exchange runs. Both are exact.
//!
//! **Cores stop only where the exchange can see them.** A core reads
//! mesh state only through its own loads of its mailbox window, and the
//! exchange reads and writes window words only between cycles; outside
//! its window, a core depends on nothing but itself. Inside it, the
//! exchange writes a core's words only to deliver a message, which
//! needs `RX_STATUS == 0`, and to clear a committed `TX_STATUS`; it
//! reads the TX words only while they are committed (`TX_STATUS == 1`).
//! Each core runs ahead on `Simulator`'s threaded loop
//! ([`Simulator::run_until_access`]) to the top of its next cycle that
//! makes an access the exchange could observe or change, and waits
//! there. The rule comes from the core's own mailbox each time it runs
//! ahead:
//!
//! * always stop before a store to `TX_STATUS` or `RX_STATUS`;
//! * while `TX_STATUS == 1`, also before a load of `TX_STATUS` and a
//!   store to `TX_DEST`, `TX_LEN` or `TX_DATA`;
//! * while `RX_STATUS == 0`, also before any load or store of an RX word.
//!
//! Nothing else stops: `CORE_ID` and the mesh size never change, the TX
//! words of an uncommitted mailbox are the core's alone, and so are the
//! RX words of a full one. Only the core sets `TX_STATUS` to 1 or
//! `RX_STATUS` to 0, at a stop; the exchange moves them only the other
//! way, to states whose rule stops at a subset of these accesses. So no
//! cycle a core runs ahead of the exchange reads a word the exchange
//! writes before that cycle or writes a word the exchange reads, and
//! every access that matters happens at its lockstep global cycle, with
//! every exchange before that cycle already applied and none after it.
//!
//! **The exchange sleeps while it cannot act.** It reports whether it
//! delivered, moved or injected a message. After a cycle on which it
//! did none of these, the NoC and every mailbox word it acts on are as
//! they were, so a later exchange can act only once one of two things
//! happens. Either a queued head's latency elapses, at the earliest
//! `ready_at` after that cycle among link and ejection-queue heads
//! (`Noc::next_ready`), or a core changes `RX_STATUS`, `TX_STATUS`,
//! or, while committed, `TX_DEST` or `TX_LEN`. Under the stop rule a
//! core makes each such change at a stop, which the loop steps at its
//! global cycle and compares. A committed message's destination and
//! length are checked whenever the exchange runs, and they change only
//! at such a wake-up, so a bad message is reported at the cycle the
//! lockstep loop would report it. The exchange sleeps until the earlier
//! of the two.
//!
//! Halts and errors take effect at the global cycle the lockstep loop
//! would have seen them. A core's halt counts from the cycle after its
//! `HALT`; an error is reported at the cycle that raised it, lowest
//! core index first and before that cycle's exchange. The budget times
//! out at `max_cycles`. A core never runs past the budget: its own
//! cycle limit is the cycle the array times out at.
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
//! Every core is the production engine, [`Simulator`], and runs ahead
//! on its threaded loop between stops. The reference engine is the
//! array's oracle from outside: `tests/manycore_lockstep.rs` steps a
//! `ReferenceSimulator` per core on every global cycle through its own
//! exchange, in code that shares none of the event loop's, and holds
//! `run` to the state that drive ends in.

use crate::mailbox;
use crate::noc::{Noc, NocConfig, NocStats};
use epic_config::Config;
use epic_isa::Instruction;
use epic_sim::{Memory, SimError, SimStats, Simulator};
use std::fmt;
use std::sync::Arc;

/// Geometry and timing parameters of a many-core array.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MeshSpec {
    /// Cores per row.
    pub width: usize,
    /// Rows of cores.
    pub height: usize,
    /// Interconnect timing/capacity parameters.
    pub noc: NocConfig,
    /// Global cycle budget before the array reports a timeout.
    pub max_cycles: u64,
}

impl MeshSpec {
    /// A `width`×`height` mesh with the default NoC timing and a
    /// 10M-cycle budget.
    #[must_use]
    pub fn new(width: usize, height: usize) -> Self {
        MeshSpec {
            width,
            height,
            noc: NocConfig::default(),
            max_cycles: 10_000_000,
        }
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
    /// Boxed, so that `Core` stays small in the event loop's scans.
    sim: Box<Simulator>,
    status: Status,
    /// The global cycle of the core's next event (see [`Status`]): the
    /// core's own cycle count.
    next: u64,
}

impl Core {
    /// Steps the core's cycle `next` and runs it ahead again. Returns
    /// whether the cycle changed a mailbox word a sleeping exchange
    /// waits on.
    fn step(&mut self, base: u32) -> bool {
        let before = Handshake::peek(self.sim.memory(), base);
        let ran = (self.sim.step()).and_then(|_| self.run_ahead(base));
        self.settle(ran);
        // Running ahead never changes these words: the stop rule stops
        // before every store that could.
        Handshake::peek(self.sim.memory(), base) != before
    }

    /// Runs the core ahead to the top of its next cycle that makes an
    /// access marked by the stop rule of its mailbox at `base` as the
    /// mailbox stands now. Returns `false` once halted.
    fn run_ahead(&mut self, base: u32) -> Result<bool, SimError> {
        let (loads, stores) = Handshake::peek(self.sim.memory(), base).stops();
        self.sim.run_until_access(base, loads, stores)
    }

    /// Records where a step or a run left the core.
    fn settle(&mut self, ran: Result<bool, SimError>) {
        self.next = self.sim.stats().cycles;
        self.status = match ran {
            Ok(true) => Status::Running,
            Ok(false) => Status::Halted,
            Err(e) => Status::Failed(e),
        };
    }
}

/// The mailbox words whose values decide what the exchange can do with
/// a core: deliver into it (`RX_STATUS == 0`), and inject what it
/// committed (`TX_STATUS == 1`, to `TX_DEST`, `TX_LEN` words long).
/// The destination and length count only while committed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Handshake {
    rx_status: u32,
    tx_status: u32,
    tx_dest: u32,
    tx_len: u32,
}

impl Handshake {
    fn peek(memory: &Memory, base: u32) -> Self {
        let tx_status = mb_peek(memory, base, mailbox::TX_STATUS);
        let committed = |offset| {
            if tx_status == 1 {
                mb_peek(memory, base, offset)
            } else {
                0
            }
        };
        Handshake {
            rx_status: mb_peek(memory, base, mailbox::RX_STATUS),
            tx_status,
            tx_dest: committed(mailbox::TX_DEST),
            tx_len: committed(mailbox::TX_LEN),
        }
    }

    /// The stop rule: the mailbox words whose load, and those whose
    /// store, stops a core running ahead from this state, as word masks
    /// (see the module docs).
    fn stops(self) -> (u128, u128) {
        let word = |offset: u32| 1u128 << offset;
        let words = |from: u32, to: u32| (1u128 << to) - (1u128 << from);
        let mut loads = 0;
        let mut stores = word(mailbox::TX_STATUS) | word(mailbox::RX_STATUS);
        if self.tx_status == 1 {
            loads |= word(mailbox::TX_STATUS);
            stores |= words(
                mailbox::TX_DEST,
                mailbox::TX_DATA + mailbox::MAX_PAYLOAD_WORDS,
            );
        }
        if self.rx_status == 0 {
            let rx = words(mailbox::RX_STATUS, mailbox::MAILBOX_WORDS);
            loads |= rx;
            stores |= rx;
        }
        (loads, stores)
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
    /// Builds a mesh of identical cores: the program is decoded and
    /// translated **once**, then cloned per core; every core gets a
    /// private copy of `initial_memory` with its identity words
    /// ([`mailbox::CORE_ID`], [`mailbox::MESH_WIDTH`],
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
        let mut prototype = Simulator::try_new(config, bundles, entry)
            .map_err(|source| ArrayError::Core { core: 0, source })?;
        prototype.translate();
        let mut cores = Vec::with_capacity(ncores);
        for idx in 0..ncores {
            let mut sim = Box::new(prototype.clone());
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

    /// Read-only access to one core's simulator (registers, memory,
    /// stats) — for tests and reports after [`run`](Self::run).
    ///
    /// # Panics
    ///
    /// Panics if `core` is off-mesh.
    #[must_use]
    pub fn core(&self, core: usize) -> &Simulator {
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
        for core in &mut self.cores {
            let ran = core.run_ahead(base);
            core.settle(ran);
        }
        // The global cycle of the exchange's next run: it starts awake.
        let mut wake = 0;
        loop {
            let now = self.cycle;
            for core in &mut self.cores {
                if core.next == now && matches!(core.status, Status::Running) && core.step(base) {
                    wake = now;
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
            if wake == now {
                // After a cycle on which it did nothing, the exchange
                // sleeps until a head's latency elapses or a core wakes
                // it.
                wake = if self.exchange(now)? {
                    now + 1
                } else {
                    self.noc.next_ready(now).unwrap_or(u64::MAX)
                };
            }
            let all_halted =
                (self.cores.iter()).all(|c| matches!(c.status, Status::Halted) && c.next <= now);
            if all_halted {
                // Every TX window still committed on a fully-halted mesh
                // counts as in flight: nobody is left to receive it.
                let stats = self.noc.stats();
                let refused = (self.cores.iter())
                    .filter(|c| mb_peek(c.sim.memory(), base, mailbox::TX_STATUS) == 1)
                    .count() as u64;
                let in_flight = stats.messages_injected - stats.messages_delivered + refused;
                if in_flight > 0 {
                    return Err(ArrayError::Undelivered { in_flight });
                }
                break;
            }
            // No cycle before the next core event or the exchange's
            // wake-up changes any state: jump there.
            let next = (self.cores.iter())
                .filter(|c| !matches!(c.status, Status::Halted) || c.next > now)
                .map(|c| c.next)
                .min()
                .expect("a core that has not halted has an event")
                .min(wake);
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

    /// The mesh phase of global cycle `now`: eject into free RX
    /// mailboxes, advance the links, inject from committed TX mailboxes
    /// (a refused injection stays committed and retries later). Returns
    /// whether it delivered, moved or injected a message.
    fn exchange(&mut self, now: u64) -> Result<bool, ArrayError> {
        let base = self.mailbox_base;
        let ncores = self.cores.len();
        let noc = &mut self.noc;
        let mut acted = false;
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
                    acted = true;
                }
            }
        }
        acted |= noc.advance(now);
        let mut payload = [0u32; mailbox::MAX_PAYLOAD_WORDS as usize];
        for (idx, core) in self.cores.iter_mut().enumerate() {
            let memory = core.sim.memory_mut();
            if mb_peek(memory, base, mailbox::TX_STATUS) != 1 {
                continue;
            }
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
            acted = true;
        }
        Ok(acted)
    }
}
