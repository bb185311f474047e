//! `dse_sweep`: the interactive design-space loop.
//!
//! Each job runs one point of the 64-point grid at `Scale::Test` through
//! the two halves of `run_epic_workload_with_engine(.., Engine::Threaded)`:
//! `prepare_epic_workload` (lower, train at issue width ≥ 2, compile,
//! assemble, validate), then `Toolchain::run_prepared` on the threaded
//! engine, then the golden check. The split is the runner's own, and lets
//! the job time its simulation apart from its front end. A pass is
//! [`gen::dse_pass`]: every point once plus a revisit of each, so half the
//! jobs repeat an earlier point.

use crate::calib::HostSpeed;
use crate::gen::{self, Job, KERNELS};
use crate::pipeline::{self, CompileCounts, Failure, SimOutcome};
use crate::report::{OpSamples, Report};
use crate::trace::Tracer;
use crate::{check_pair, repeat_setup, run_pair, LayerCounters, RunArgs};
use epic_config::Config;
use epic_core::experiments::{prepare_epic_workload, ExperimentError};
use epic_sim::Engine;
use epic_workloads::{Scale, Workload};
use std::time::Instant;

/// Everything a job needs besides its grid point.
#[derive(Debug)]
pub struct Setup {
    /// The four Test-scale workloads, in [`KERNELS`] order.
    pub workloads: Vec<Workload>,
    /// `configs[alus - 1][issue_width - 1]`.
    pub configs: Vec<Vec<Config>>,
}

impl Setup {
    /// Builds the workloads and configurations and warms the pipeline
    /// with one (1 ALU, 1-wide) job per kernel.
    ///
    /// # Errors
    ///
    /// Returns the first failing call.
    pub fn new() -> Result<Self, Failure> {
        let workloads: Vec<Workload> = KERNELS.iter().map(|k| k.workload(Scale::Test)).collect();
        let mut configs = Vec::with_capacity(4);
        for alus in 1..=4 {
            let mut row = Vec::with_capacity(4);
            for issue_width in 1..=4 {
                row.push(
                    Config::builder()
                        .num_alus(alus)
                        .issue_width(issue_width)
                        .build()
                        .map_err(|e| Failure::new("core", e))?,
                );
            }
            configs.push(row);
        }
        let setup = Setup { workloads, configs };
        for w in &setup.workloads {
            run_job(w, &setup.configs[0][0])?;
        }
        Ok(setup)
    }

    fn job(&self, job: Job) -> (&Workload, &Config) {
        (
            &self.workloads[job.kernel],
            &self.configs[job.alus - 1][job.issue_width - 1],
        )
    }
}

fn point_name(job: Job) -> String {
    format!(
        "{}@{}alu/{}w",
        KERNELS[job.kernel].name(),
        job.alus,
        job.issue_width
    )
}

/// Checks a job's final memory against the workload's golden model.
fn verify(workload: &Workload, memory: &[u8]) -> Result<(), Failure> {
    workload
        .verify_memory(|addr, len| {
            memory
                .get(addr as usize..(addr + len) as usize)
                .map(<[u8]>::to_vec)
                .ok_or("output overruns memory")
        })
        .map_err(|e| Failure::new("workloads", e))
}

/// One job, untraced, through `epic_core`'s public calls. Returns its
/// end state and the host seconds of its simulation.
///
/// # Errors
///
/// Returns the failing layer's error.
pub fn run_job(workload: &Workload, config: &Config) -> Result<(SimOutcome, f64), Failure> {
    let (toolchain, prepared) = prepare_epic_workload(workload, config)?;
    let t = Instant::now();
    let outcome = toolchain
        .run_prepared(&prepared, Engine::Threaded)
        .map_err(ExperimentError::from)?;
    let sim_secs = t.elapsed().as_secs_f64();
    verify(workload, outcome.memory.bytes())?;
    let outcome = SimOutcome {
        stats: outcome.stats,
        return_value: outcome.return_value,
        memory: outcome.memory.bytes().to_vec(),
        fast_block_execs: outcome.fast_block_execs,
        chained_execs: outcome.chained_execs,
    };
    Ok((outcome, sim_secs))
}

/// One job rebuilt from public calls with a span around each.
///
/// # Errors
///
/// Returns the failing layer's error.
pub fn run_job_traced(
    tracer: &mut Tracer,
    workload: &Workload,
    config: &Config,
    counts: &mut CompileCounts,
) -> Result<SimOutcome, Failure> {
    let train = config.issue_width() >= 2;
    let (prepared, _) = pipeline::prepare_traced(tracer, workload, config, train, counts)?;
    let image = prepared.initial_memory;
    let mut sim = tracer.span("sim.load", || {
        pipeline::load_threaded(config, &prepared.program, image)
    })?;
    tracer.span("sim.run", || pipeline::run_threaded(&mut sim))?;
    let outcome = pipeline::sim_outcome(&sim);
    tracer.span("workloads.verify", || verify(workload, &outcome.memory))?;
    Ok(outcome)
}

/// The untraced run: end-to-end metrics.
///
/// # Errors
///
/// Returns a set-up failure (measured ops never abort the run).
pub fn run(args: &RunArgs) -> Result<Report, Failure> {
    let (setup, setup_s) = repeat_setup(Setup::new)?;
    let mut report = Report::default();
    let mut samples = OpSamples::default();
    let mut speed = HostSpeed::new();
    let start = Instant::now();
    for pass in 0.. {
        let pass_start = Instant::now();
        for job in gen::dse_pass(args.seed, pass) {
            let (workload, config) = setup.job(job);
            report.attempted += 1;
            let t = Instant::now();
            let result = run_job(workload, config);
            let secs = t.elapsed().as_secs_f64();
            let k = speed.scale();
            match result {
                Ok((o, sim_secs)) => {
                    samples.record(
                        pass,
                        point_name(job),
                        secs * k,
                        sim_secs * k,
                        o.stats.cycles,
                    );
                }
                Err(f) => report.failures.record(f.layer, &f.message),
            }
        }
        if !args.another_pass_fits(start, pass_start.elapsed()) {
            break;
        }
    }
    eprintln!("perfbench: host speed: {}", speed.summary());
    samples.push_end_to_end(&mut report, &setup_s);
    Ok(report)
}

/// Whole passes a traced run measures (a fixed count, so its per-layer
/// counts repeat exactly).
pub const TRACED_PASSES: u64 = 1;

/// The traced run: every job untraced and traced, checked identical;
/// per-layer metrics.
///
/// # Errors
///
/// Returns a set-up failure.
pub fn run_traced(args: &RunArgs, tracer: &mut Tracer) -> Result<Report, Failure> {
    let setup = Setup::new()?;
    let mut report = Report::default();
    let mut counters = LayerCounters::default();
    for pass in 0..TRACED_PASSES {
        for (i, job) in gen::dse_pass(args.seed, pass).into_iter().enumerate() {
            let (workload, config) = setup.job(job);
            let compile = &mut counters.compile;
            let ((untraced, u), (traced, t)) = run_pair(
                i % 2 == 1,
                || run_job(workload, config).map(|(o, _)| o),
                || {
                    let root = tracer.enter("core.job");
                    let out = run_job_traced(tracer, workload, config, compile);
                    tracer.exit(root);
                    out
                },
            );
            counters.record_pair(u, t);
            if let Some(outcome) = check_pair(&mut report, untraced, traced, &point_name(job)) {
                counters.add_sim(&outcome);
            }
        }
    }
    counters.push_per_layer(&mut report, tracer);
    Ok(report)
}
