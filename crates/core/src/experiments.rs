//! Runners that regenerate the paper's evaluation (§5).
//!
//! Every run is *self-validating*: after simulation the workload's output
//! global is compared byte-for-byte against its golden model, so a cycle
//! count only ever comes from a correct execution.
//!
//! * [`table1`] — the cycle-count table (SHA / AES / DCT / Dijkstra ×
//!   {SA-110, EPIC with 1–4 ALUs});
//! * [`figure_series`] — execution-time series of Figs. 3–5 (EPIC at
//!   41.8 MHz vs the SA-110 at 100 MHz);
//! * [`resource_usage`] — the §5.1 slices/BlockRAM table;
//! * [`headline_checks`] — the paper's qualitative claims as testable
//!   predicates (who wins, where the benchmark scales, where it is flat).
//!
//! Every single-core EPIC runner compiles through
//! [`prepare_epic_workload`]. It builds each workload's front half
//! (optimisation through register allocation) and trains its profile
//! once per process and machine family — the configuration less its ALU
//! count and issue width — and runs only the back half for each design
//! point. The mesh runners compile through [`prepare_mesh_workload`],
//! which trains nothing and memoises nothing.

use crate::front::FRONTS;
use crate::toolchain::{memory_window, run_sa110, EngineRun, EpicRun, Toolchain, ToolchainError};
use epic_area::{sa110_execution_time, AreaModel};
use epic_array::{ArrayError, ArrayOutcome, ArraySimulator, MeshSpec};
use epic_config::Config;
use epic_ir::lower;
use epic_sim::{Engine, NopSink, SimStats, TraceSink};
use epic_workloads::{Scale, Workload};
use rayon::prelude::*;
use std::fmt;

/// Verification failure raised when a simulated output disagrees with the
/// golden model.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VerifyError(pub String);

impl fmt::Display for VerifyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "verification failed: {}", self.0)
    }
}

impl std::error::Error for VerifyError {}

/// Error from an experiment run.
#[derive(Debug)]
#[non_exhaustive]
pub enum ExperimentError {
    /// A pipeline stage failed.
    Toolchain(ToolchainError),
    /// The output did not match the golden model.
    Verify(VerifyError),
    /// A many-core array run failed (setup, per-core fault, timeout or
    /// undelivered traffic). Constructed explicitly — the blanket
    /// `From<Into<ToolchainError>>` below cannot absorb it.
    Array(ArrayError),
}

impl fmt::Display for ExperimentError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExperimentError::Toolchain(e) => e.fmt(f),
            ExperimentError::Verify(e) => e.fmt(f),
            ExperimentError::Array(e) => e.fmt(f),
        }
    }
}

impl std::error::Error for ExperimentError {}

impl<E: Into<ToolchainError>> From<E> for ExperimentError {
    fn from(e: E) -> Self {
        ExperimentError::Toolchain(e.into())
    }
}

/// Runs one workload on one EPIC configuration, verifying the output.
///
/// # Errors
///
/// Returns any pipeline error or a [`VerifyError`] on a golden-model
/// mismatch.
pub fn run_epic_workload(
    workload: &Workload,
    config: &Config,
) -> Result<SimStats, ExperimentError> {
    Ok(*run_epic_workload_observed(workload, config, &mut NopSink)?.stats())
}

/// [`run_epic_workload`] with a [`TraceSink`] observing the simulation,
/// returning the full run (program, labels, final machine state) for
/// tools that map observations back to source — this is the entry point
/// of `epic-prof`.
///
/// On machines wide enough for superblock formation (issue width ≥ 2)
/// the run is *profile-guided*: the compile's front half is finished
/// once with formation off and run under a [`ProfileSink`], its
/// per-block entry counts become the [`ProfileData`] steering trace
/// selection, and the measured run is the same front half finished with
/// formation on. Training therefore names exactly the pre-formation
/// blocks the final compile selects traces over. Front halves and their
/// profiles are memoised per machine family (see
/// [`prepare_epic_workload`]), so a process builds and trains each one
/// once.
///
/// [`ProfileSink`]: epic_sim::ProfileSink
/// [`ProfileData`]: epic_compiler::superblock::ProfileData
///
/// # Errors
///
/// Returns any pipeline error or a [`VerifyError`] on a golden-model
/// mismatch.
pub fn run_epic_workload_observed<S: TraceSink>(
    workload: &Workload,
    config: &Config,
    sink: &mut S,
) -> Result<EpicRun, ExperimentError> {
    let (toolchain, prepared) = prepare_epic_workload(workload, config)?;
    let run = toolchain.run_prepared_observed(prepared, sink)?;
    verify_workload_memory(workload, run.simulator.memory().bytes())?;
    Ok(run)
}

/// [`run_epic_workload`] on an explicitly selected simulation
/// [`Engine`], verifying the output and returning the full
/// [`EngineRun`].
///
/// The compile side — profile training included — is identical to
/// [`run_epic_workload_observed`], so the engines all execute the
/// same schedule and their statistics are directly comparable (and,
/// by the engines' contract, bit-identical).
///
/// # Errors
///
/// Returns any pipeline error or a [`VerifyError`] on a golden-model
/// mismatch.
pub fn run_epic_workload_with_engine(
    workload: &Workload,
    config: &Config,
    engine: Engine,
) -> Result<EngineRun, ExperimentError> {
    let (toolchain, prepared) = prepare_epic_workload(workload, config)?;
    let run = toolchain.run_prepared_engine(prepared, engine)?;
    verify_workload_memory(workload, run.outcome.memory.bytes())?;
    Ok(run)
}

/// Compiles a workload for a configuration — profile training included —
/// returning the toolchain and the prepared artefact *without* running
/// it. The throughput benchmarks use this to hoist the whole compiler
/// front end out of the timed region and race the engines over the
/// identical binary. It is the compile side of every EPIC workload
/// runner.
///
/// The compiler's front half (optimisation through register
/// allocation) and the initial memory image come from a process-wide
/// memo keyed by the workload's program, its compiler options and the
/// configuration less its ALU count and issue width, the only two
/// parameters the front half never reads. At issue width ≥ 2 the entry
/// also holds the trained profile, trained once by the first such
/// machine. The back half then runs for this configuration, with that
/// profile, and the result is translation-validated. The first compile
/// of an entry validates every stage; later ones trace and validate
/// only the back-half stages, since the front-half checks would repeat
/// verdicts the entry already passed. A served compile equals a fresh
/// one: see the `front` module's documentation.
///
/// # Errors
///
/// Returns any compile-side pipeline error.
pub fn prepare_epic_workload(
    workload: &Workload,
    config: &Config,
) -> Result<(Toolchain, crate::toolchain::PreparedProgram), ExperimentError> {
    let toolchain = Toolchain::new(config.clone());
    let prepared = FRONTS.prepare(&toolchain, &workload.program, &workload_options(workload))?;
    Ok((toolchain, prepared))
}

/// A mesh workload compiled and laid out, ready to instantiate on any
/// mesh geometry: the same binary image boots on 1×1 up to N×M arrays
/// because the program reads its coordinates from the mailbox window.
#[derive(Debug)]
pub struct PreparedMesh {
    /// The compiled, assembled and validated program plus its initial
    /// memory image.
    pub prepared: crate::toolchain::PreparedProgram,
    /// Byte address of the `mesh_ctl` mailbox window in data memory.
    pub mailbox_base: u32,
}

/// Compiles a mesh workload for a configuration without running it.
///
/// Unlike [`prepare_epic_workload`] this skips profile training: the
/// mesh programs take per-core data-dependent paths (worker cores spin
/// on mailbox handshakes that never occur standalone), so a profile
/// trained on the single-core fallback path would steer superblock
/// formation away from exactly the code the array executes. The static
/// formation heuristics apply instead.
///
/// # Errors
///
/// Returns any compile-side pipeline error, or a [`VerifyError`] if the
/// workload's module has no `mesh_ctl` mailbox global.
pub fn prepare_mesh_workload(
    workload: &Workload,
    config: &Config,
) -> Result<PreparedMesh, ExperimentError> {
    let module = lower::lower(&workload.program)?;
    let layout = module.layout()?;
    let mailbox_base = layout
        .address_of(epic_array::mailbox::GLOBAL)
        .ok_or_else(|| {
            ExperimentError::Verify(VerifyError(format!(
                "{}: not a mesh workload (no `{}` global)",
                workload.name,
                epic_array::mailbox::GLOBAL
            )))
        })?;
    let toolchain = Toolchain::new(config.clone());
    let prepared = toolchain.prepare(&module, &workload_options(workload))?;
    Ok(PreparedMesh {
        prepared,
        mailbox_base,
    })
}

/// A completed many-core run: the aggregate outcome plus the array
/// itself, so callers can inspect per-core registers and final memories
/// (the determinism battery compares them byte for byte).
#[derive(Debug)]
pub struct MeshRun {
    /// Aggregate statistics: lockstep cycles, per-core [`SimStats`],
    /// NoC counters.
    pub outcome: ArrayOutcome,
    /// The array after the run, for per-core inspection.
    pub array: ArraySimulator,
}

/// Instantiates a prepared mesh workload on the given geometry — no
/// recompile, so engine/geometry sweeps over one binary stay cheap.
///
/// # Errors
///
/// Returns an [`ArrayError`] from setup or the run.
pub fn instantiate_mesh(
    mesh: &PreparedMesh,
    config: &Config,
    spec: &MeshSpec,
) -> Result<ArraySimulator, ExperimentError> {
    ArraySimulator::new(
        config,
        mesh.prepared.program.bundles(),
        mesh.prepared.program.entry(),
        &mesh.prepared.initial_memory,
        mesh.mailbox_base,
        spec,
    )
    .map_err(ExperimentError::Array)
}

/// Compiles and runs one mesh workload on one array geometry, verifying
/// core 0's final memory against the workload's golden model (the mesh
/// protocols gather every result to core 0).
///
/// # Errors
///
/// Returns any pipeline error, an [`ArrayError`] from the lockstep run,
/// or a [`VerifyError`] on a golden-model mismatch.
pub fn run_mesh_workload(
    workload: &Workload,
    config: &Config,
    spec: &MeshSpec,
) -> Result<MeshRun, ExperimentError> {
    let mesh = prepare_mesh_workload(workload, config)?;
    let mut array = instantiate_mesh(&mesh, config, spec)?;
    let outcome = array.run().map_err(ExperimentError::Array)?;
    verify_workload_memory(workload, array.core(0).memory().bytes())?;
    Ok(MeshRun { outcome, array })
}

/// The compiler options every workload runner uses.
pub(crate) fn workload_options(workload: &Workload) -> epic_compiler::Options {
    epic_compiler::Options {
        entry: workload.entry.clone(),
        inline_hints: workload.inline_hints(),
        ..epic_compiler::Options::default()
    }
}

/// Checks a run's final data memory against the workload's golden model.
fn verify_workload_memory(workload: &Workload, bytes: &[u8]) -> Result<(), ExperimentError> {
    workload
        .verify_memory(|addr, len| {
            memory_window(bytes, addr, len)
                .map(<[u8]>::to_vec)
                .ok_or_else(|| VerifyError(format!("global at {addr:#x} overruns memory")))
        })
        .map_err(|m| ExperimentError::Verify(VerifyError(m)))
}

/// Runs one workload on the SA-110 baseline, verifying the output.
///
/// # Errors
///
/// Returns any pipeline error or a [`VerifyError`] on a golden-model
/// mismatch.
pub fn run_sa110_workload(workload: &Workload) -> Result<epic_sa110::ArmStats, ExperimentError> {
    let module = lower::lower(&workload.program)?;
    let run = run_sa110(&module, &workload.entry, &[], &workload.inline_hints())?;
    verify_workload_memory(workload, run.simulator.memory())?;
    Ok(*run.stats())
}

/// One row of Table 1: cycle counts for a workload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Table1Row {
    /// Workload name.
    pub workload: String,
    /// SA-110 cycles.
    pub sa110: u64,
    /// EPIC cycles per ALU count, in the order of [`Table1::alu_counts`].
    pub epic: Vec<u64>,
}

/// The reproduction of Table 1.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Table1 {
    /// The problem scale that was run.
    pub scale: Scale,
    /// ALU counts of the EPIC columns (the paper uses 1..=4).
    pub alu_counts: Vec<usize>,
    /// One row per benchmark, Table 1 order.
    pub rows: Vec<Table1Row>,
}

impl Table1 {
    /// The EPIC cycles for (workload, ALU count), if present.
    #[must_use]
    pub fn epic_cycles(&self, workload: &str, alus: usize) -> Option<u64> {
        let row = self.rows.iter().find(|r| r.workload == workload)?;
        let col = self.alu_counts.iter().position(|a| *a == alus)?;
        row.epic.get(col).copied()
    }

    /// The SA-110 cycles for a workload, if present.
    #[must_use]
    pub fn sa110_cycles(&self, workload: &str) -> Option<u64> {
        self.rows
            .iter()
            .find(|r| r.workload == workload)
            .map(|r| r.sa110)
    }

    /// Renders the table in the paper's layout (benchmarks as columns).
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("Table 1: clock cycles ({:?} scale)\n", self.scale));
        out.push_str(&format!("{:<10}", ""));
        for row in &self.rows {
            out.push_str(&format!("{:>14}", row.workload.to_uppercase()));
        }
        out.push('\n');
        out.push_str(&format!("{:<10}", "SA-110"));
        for row in &self.rows {
            out.push_str(&format!("{:>14}", row.sa110));
        }
        out.push('\n');
        for (col, alus) in self.alu_counts.iter().enumerate() {
            let label = if *alus == 1 {
                "1 ALU".to_owned()
            } else {
                format!("{alus} ALUs")
            };
            out.push_str(&format!("{label:<10}"));
            for row in &self.rows {
                out.push_str(&format!("{:>14}", row.epic[col]));
            }
            out.push('\n');
        }
        out
    }
}

/// Regenerates Table 1 at the given scale and ALU counts.
///
/// The (SA-110 + EPIC ALU sweep) × workload grid is farmed across host
/// threads; the grid is fixed up front and every cell lands in its slot
/// by index, so thread scheduling cannot reorder (or otherwise perturb)
/// the table.
///
/// # Errors
///
/// Returns the first (in grid order) pipeline or verification error.
pub fn table1(scale: Scale, alu_counts: &[usize]) -> Result<Table1, ExperimentError> {
    let workloads = epic_workloads::all(scale);
    let configs: Vec<Config> = alu_counts
        .iter()
        .map(|&alus| {
            Config::builder()
                .num_alus(alus)
                .build()
                .expect("valid ALU sweep configuration")
        })
        .collect();
    // Cell (w, 0) is the SA-110 baseline; (w, 1 + a) is EPIC with
    // `alu_counts[a]` ALUs.
    let cols = 1 + configs.len();
    let cells: Vec<(usize, usize)> = (0..workloads.len())
        .flat_map(|w| (0..cols).map(move |c| (w, c)))
        .collect();
    let cycles: Vec<u64> = cells
        .into_par_iter()
        .map(|(w, c)| -> Result<u64, ExperimentError> {
            let workload = &workloads[w];
            if c == 0 {
                Ok(run_sa110_workload(workload)?.cycles)
            } else {
                Ok(run_epic_workload(workload, &configs[c - 1])?.cycles)
            }
        })
        .collect::<Result<_, _>>()?;
    let rows = workloads
        .iter()
        .enumerate()
        .map(|(w, workload)| Table1Row {
            workload: workload.name.clone(),
            sa110: cycles[w * cols],
            epic: cycles[w * cols + 1..(w + 1) * cols].to_vec(),
        })
        .collect();
    Ok(Table1 {
        scale,
        alu_counts: alu_counts.to_vec(),
        rows,
    })
}

/// One execution-time series (a Fig. 3/4/5 bar set): seconds per machine.
#[derive(Debug, Clone, PartialEq)]
pub struct FigureSeries {
    /// The workload plotted.
    pub workload: String,
    /// `(machine label, seconds)` pairs: SA-110 first, then the EPIC
    /// configurations.
    pub points: Vec<(String, f64)>,
}

impl FigureSeries {
    /// Renders the series as an ASCII bar chart.
    #[must_use]
    pub fn render(&self) -> String {
        let max = self.points.iter().map(|(_, s)| *s).fold(f64::MIN, f64::max);
        let mut out = format!("Execution time for {} (seconds)\n", self.workload);
        for (label, seconds) in &self.points {
            let bar = ((seconds / max) * 50.0).round() as usize;
            out.push_str(&format!(
                "{label:<8} {:<51} {seconds:.4}\n",
                "#".repeat(bar.max(1))
            ));
        }
        out
    }
}

/// Converts a Table 1 row into the execution-time series of Figs. 3–5:
/// the SA-110 at 100 MHz against the EPIC designs at 41.8 MHz.
#[must_use]
pub fn figure_series(table: &Table1, workload: &str) -> Option<FigureSeries> {
    let row = table.rows.iter().find(|r| r.workload == workload)?;
    let mut points = vec![("SA110".to_owned(), sa110_execution_time(row.sa110))];
    for (col, alus) in table.alu_counts.iter().enumerate() {
        let config = Config::builder().num_alus(*alus).build().ok()?;
        let model = AreaModel::new(&config);
        let label = if *alus == 1 {
            "1 ALU".to_owned()
        } else {
            format!("{alus} ALUs")
        };
        points.push((label, model.execution_time(row.epic[col])));
    }
    Some(FigureSeries {
        workload: workload.to_owned(),
        points,
    })
}

/// One row of the §5.1 resource table.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ResourceRow {
    /// ALU count.
    pub alus: usize,
    /// Slices (paper: 4181 / 6779 / 9367 / ~11960 for 1–4).
    pub slices: u32,
    /// BlockRAMs (register file).
    pub block_rams: u32,
    /// Block multipliers.
    pub multipliers: u32,
    /// Clock in MHz (flat at 41.8).
    pub clock_mhz: f64,
}

/// Regenerates the §5.1 resource-usage sweep.
#[must_use]
pub fn resource_usage(alu_counts: &[usize]) -> Vec<ResourceRow> {
    alu_counts
        .iter()
        .map(|alus| {
            let config = Config::builder()
                .num_alus(*alus)
                .build()
                .expect("valid sweep configuration");
            let model = AreaModel::new(&config);
            ResourceRow {
                alus: *alus,
                slices: model.slices(),
                block_rams: model.block_rams(),
                multipliers: model.block_multipliers(),
                clock_mhz: model.clock_mhz(),
            }
        })
        .collect()
}

/// One qualitative claim from §5.2, evaluated against measured numbers.
#[derive(Debug, Clone, PartialEq)]
pub struct HeadlineCheck {
    /// What the paper claims.
    pub claim: String,
    /// Whether the reproduction shows the same shape.
    pub holds: bool,
    /// The measured numbers behind the verdict.
    pub detail: String,
}

/// Evaluates the paper's headline claims on a measured Table 1.
///
/// Absolute factors differ (our substrate is not the authors' testbed);
/// the *shape* — who wins, what scales, what stays flat — must hold.
#[must_use]
pub fn headline_checks(table: &Table1) -> Vec<HeadlineCheck> {
    let mut checks = Vec::new();
    let max_alus = table.alu_counts.iter().copied().max().unwrap_or(4);

    let scaling = |name: &str| -> Option<f64> {
        let one = table.epic_cycles(name, 1)? as f64;
        let four = table.epic_cycles(name, max_alus)? as f64;
        Some(one / four)
    };

    if let (Some(sha), Some(dct)) = (scaling("sha"), scaling("dct")) {
        checks.push(HeadlineCheck {
            claim: "arithmetic-intensive SHA and DCT speed up as ALUs increase".into(),
            holds: sha > 1.15 && dct > 1.15,
            detail: format!("1→{max_alus} ALU cycle ratios: SHA {sha:.2}x, DCT {dct:.2}x"),
        });
    }
    let scaling_from2 = |name: &str| -> Option<f64> {
        let two = table.epic_cycles(name, 2)? as f64;
        let four = table.epic_cycles(name, max_alus)? as f64;
        Some(two / four)
    };
    if let (Some(aes), Some(dij)) = (scaling_from2("aes"), scaling("dijkstra")) {
        checks.push(HeadlineCheck {
            claim: "AES and Dijkstra stay roughly flat in the number of ALUs".into(),
            holds: aes < 1.15 && dij < 1.3,
            detail: format!(
                "cycle ratios: AES 2→{max_alus} ALUs {aes:.2}x, Dijkstra 1→{max_alus} ALUs {dij:.2}x \
                 (our compiler still finds some ILP for AES between 1 and 2 ALUs; see EXPERIMENTS.md)"
            ),
        });
    }
    let cycle_ratio = |name: &str| -> Option<f64> {
        Some(table.sa110_cycles(name)? as f64 / table.epic_cycles(name, max_alus)? as f64)
    };
    if let (Some(sha), Some(dct), Some(dij)) = (
        cycle_ratio("sha"),
        cycle_ratio("dct"),
        cycle_ratio("dijkstra"),
    ) {
        checks.push(HeadlineCheck {
            claim: format!(
                "at equal clock the {max_alus}-ALU EPIC beats the SA-110 on SHA, DCT and Dijkstra, most on DCT"
            ),
            holds: sha > 1.0 && dct > 1.0 && dij > 1.0 && dct >= sha && dct >= dij,
            detail: format!("cycle ratios SA-110/EPIC: SHA {sha:.1}x, DCT {dct:.1}x, Dijkstra {dij:.1}x"),
        });
    }
    let wall = |name: &str| -> Option<(f64, f64)> {
        let config = Config::builder().num_alus(max_alus).build().ok()?;
        let model = AreaModel::new(&config);
        Some((
            sa110_execution_time(table.sa110_cycles(name)?),
            model.execution_time(table.epic_cycles(name, max_alus)?),
        ))
    };
    if let (Some(sha), Some(dct), Some(aes), Some(dij)) =
        (wall("sha"), wall("dct"), wall("aes"), wall("dijkstra"))
    {
        // Wall-clock advantage of the EPIC design (>1 means EPIC wins).
        let adv = |(arm, epic): (f64, f64)| arm / epic;
        let (sha_a, dct_a, aes_a, dij_a) = (adv(sha), adv(dct), adv(aes), adv(dij));
        checks.push(HeadlineCheck {
            claim: "at 41.8 vs 100 MHz the EPIC still wins SHA and DCT clearly, while the \
                    clock deficit makes AES and Dijkstra the SA-110's best benchmarks"
                .into(),
            holds: sha_a > 1.3 && dct_a > 1.3 && dij_a.min(aes_a) < sha_a.min(dct_a) && dij_a < 1.3,
            detail: format!(
                "EPIC wall-clock advantage: SHA {sha_a:.2}x, DCT {dct_a:.2}x, AES {aes_a:.2}x, \
                 Dijkstra {dij_a:.2}x (paper: SA-110 wins AES and Dijkstra outright; our \
                 reproduction reaches the crossover on Dijkstra only — see EXPERIMENTS.md)"
            ),
        });
    }
    checks
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_is_identical_at_any_thread_count() {
        let alus = [1, 2];
        let on = |threads: usize| {
            rayon::ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .expect("pool")
                .install(|| table1(Scale::Test, &alus))
                .expect("table 1 regenerates")
        };
        assert_eq!(on(1), on(3));
    }
}
