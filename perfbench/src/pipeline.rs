//! The traced pipeline: the steps of `epic_core`'s workload runners
//! rebuilt from public calls, one span around each call.
//!
//! The untraced runs use `epic_core::experiments` directly. The traced
//! run must execute the same program, which the identity check enforces:
//! every traced op's statistics, return value and memory must equal the
//! untraced op's bit for bit.

use crate::trace::Tracer;
use epic_compiler::superblock::ProfileData;
use epic_compiler::{CompileStats, Compiler, Options};
use epic_config::Config;
use epic_core::experiments::{ExperimentError, PreparedMesh};
use epic_core::{PreparedProgram, Toolchain, ToolchainError};
use epic_ir::{lower, Layout, Module};
use epic_sim::{Memory, ProfileSink, SimStats, ThreadedSimulator};
use epic_workloads::Workload;
use std::collections::HashMap;

/// A failed operation, charged to the layer whose call failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Failure {
    /// One of [`crate::report::LAYERS`].
    pub layer: &'static str,
    /// What went wrong.
    pub message: String,
}

impl Failure {
    /// A failure of `layer`.
    pub fn new(layer: &'static str, message: impl ToString) -> Self {
        Failure {
            layer,
            message: message.to_string(),
        }
    }
}

/// Charges a public runner's error to the layer it came from.
impl From<ExperimentError> for Failure {
    fn from(e: ExperimentError) -> Self {
        let layer = match &e {
            ExperimentError::Toolchain(ToolchainError::Ir(_)) => "ir",
            ExperimentError::Toolchain(ToolchainError::Compile(_)) => "compiler",
            ExperimentError::Toolchain(ToolchainError::Asm(_)) => "asm",
            ExperimentError::Toolchain(ToolchainError::Tv(_)) => "tv",
            ExperimentError::Toolchain(ToolchainError::Sim(_)) => "sim",
            ExperimentError::Verify(_) => "workloads",
            ExperimentError::Array(_) => "array",
            _ => "core",
        };
        Failure::new(layer, e)
    }
}

/// Counts from one compile, summed over compiles.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct CompileCounts {
    /// Compiles counted.
    pub compiles: u64,
    /// Bundles emitted.
    pub bundles: u64,
    /// Issue slots filled.
    pub slots_filled: u64,
    /// Issue slots available.
    pub slots_available: u64,
    /// Virtual registers spilled.
    pub spilled: u64,
    /// Superblock traces formed.
    pub superblock_traces: u64,
}

impl CompileCounts {
    /// Adds one compile's statistics.
    pub fn add(&mut self, stats: &CompileStats) {
        self.compiles += 1;
        self.bundles += stats.sched.bundles as u64;
        self.slots_filled += stats.sched.slots_filled as u64;
        self.slots_available += stats.sched.slots_available as u64;
        self.spilled += stats.regalloc.spilled as u64;
        self.superblock_traces += stats.superblock.traces as u64;
    }
}

/// The end state of one single-core simulation.
#[derive(Debug, Clone, PartialEq)]
pub struct SimOutcome {
    /// Cycle-level statistics.
    pub stats: SimStats,
    /// `r1` at halt.
    pub return_value: u32,
    /// Final data memory.
    pub memory: Vec<u8>,
    /// Blocks replayed on the threaded engine's fast path.
    pub fast_block_execs: u64,
    /// Fast-path entries reached by chaining.
    pub chained_execs: u64,
}

/// Builds a threaded engine for `program` over `image` (the untraced
/// and traced ops share this, so they execute identical calls).
///
/// # Errors
///
/// Returns the engine's load-time rejection of the bundles.
pub fn load_threaded(
    config: &Config,
    program: &epic_asm::Program,
    image: Vec<u8>,
) -> Result<ThreadedSimulator, Failure> {
    let mut sim = ThreadedSimulator::try_new(config, program.bundles().to_vec(), program.entry())
        .map_err(|e| Failure::new("sim", e))?;
    sim.set_memory(Memory::from_image(image));
    Ok(sim)
}

/// Runs a loaded engine to halt.
///
/// # Errors
///
/// Returns a simulation fault.
pub fn run_threaded(sim: &mut ThreadedSimulator) -> Result<SimStats, Failure> {
    sim.run().copied().map_err(|e| Failure::new("sim", e))
}

/// The end state of a halted engine.
#[must_use]
pub fn sim_outcome(sim: &ThreadedSimulator) -> SimOutcome {
    SimOutcome {
        stats: *sim.stats(),
        return_value: sim.gpr(1),
        memory: sim.memory().bytes().to_vec(),
        fast_block_execs: sim.fast_block_execs(),
        chained_execs: sim.chained_execs(),
    }
}

/// The compiler options `epic_core` uses for a workload.
#[must_use]
pub fn options(workload: &Workload) -> Options {
    Options {
        entry: workload.entry.clone(),
        inline_hints: workload.inline_hints(),
        ..Options::default()
    }
}

/// Profile training, rebuilt from public calls: compile with superblock
/// formation off, simulate under a [`ProfileSink`], and fold per-address
/// issue counts through the label table into per-block entry counts.
///
/// # Errors
///
/// Returns any error of the training compile or run.
pub fn train_profile(
    config: &Config,
    module: &Module,
    options: &Options,
) -> Result<Option<ProfileData>, Failure> {
    let train_options = Options {
        superblock: false,
        ..options.clone()
    };
    let mut sink = ProfileSink::default();
    let run = Toolchain::new(config.clone())
        .run_module_observed(module, &train_options, &mut sink)
        .map_err(|e| Failure::new("core", e))?;
    let issues_at: HashMap<u32, u64> = sink.per_pc().map(|(pc, c)| (pc, c.issues)).collect();
    let mut profile = ProfileData::new();
    for (label, &addr) in run.program.labels() {
        profile.record(label.clone(), issues_at.get(&addr).copied().unwrap_or(0));
    }
    Ok((!profile.is_empty()).then_some(profile))
}

/// The compile side of one workload, traced: lower, train (when asked),
/// compile, assemble, validate, lay out. Mirrors
/// `epic_core::experiments::prepare_epic_workload` (`train` on machines
/// of issue width ≥ 2) and `prepare_mesh_workload` (`train` off).
///
/// # Errors
///
/// Returns the first failing call, charged to its layer.
pub fn prepare_traced(
    tracer: &mut Tracer,
    workload: &Workload,
    config: &Config,
    train: bool,
    counts: &mut CompileCounts,
) -> Result<(PreparedProgram, Layout), Failure> {
    let module = tracer
        .span("ir.lower", || lower::lower(&workload.program))
        .map_err(|e| Failure::new("ir", e))?;
    let mut options = options(workload);
    if train {
        options.profile = tracer.span("core.train", || train_profile(config, &module, &options))?;
    }
    let compiled = tracer
        .span("compiler.compile", || {
            Compiler::new(config.clone()).compile_with(&module, &options)
        })
        .map_err(|e| Failure::new("compiler", e))?;
    counts.add(compiled.stats());
    let program = tracer
        .span("asm.assemble", || {
            epic_asm::assemble(compiled.assembly(), config)
        })
        .map_err(|e| Failure::new("asm", e))?;
    if let Some(trace) = compiled.trace() {
        let report = tracer.span("tv.validate", || {
            epic_tv::validate_trace(trace, &program, config)
        });
        if report.has_errors() {
            return Err(Failure::new("tv", report.render("<pipeline>", None)));
        }
    }
    let (layout, initial_memory) = tracer
        .span("ir.layout", || {
            module.layout().map(|layout| {
                let image = module.initial_memory(&layout);
                (layout, image)
            })
        })
        .map_err(|e| Failure::new("ir", e))?;
    let prepared = PreparedProgram {
        compiled,
        program,
        initial_memory,
    };
    Ok((prepared, layout))
}

/// [`prepare_traced`] for a mesh program: no training, plus the mailbox
/// window's address.
///
/// # Errors
///
/// Returns the first failing call, or a `workloads` failure if the
/// program declares no mailbox.
pub fn prepare_mesh_traced(
    tracer: &mut Tracer,
    workload: &Workload,
    config: &Config,
    counts: &mut CompileCounts,
) -> Result<(PreparedMesh, Layout), Failure> {
    let (prepared, layout) = prepare_traced(tracer, workload, config, false, counts)?;
    let mailbox_base = layout
        .address_of(epic_array::mailbox::GLOBAL)
        .ok_or_else(|| Failure::new("workloads", "no mailbox global"))?;
    let mesh = PreparedMesh {
        prepared,
        mailbox_base,
    };
    Ok((mesh, layout))
}
