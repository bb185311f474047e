//! `mesh_array`: many-core lockstep stepping.
//!
//! Set-up prepares mesh_dct, mesh_bfs and mesh_aesctr at `Scale::Paper`.
//! Each op writes fresh seeded inputs into the prepared image, builds a
//! 4×4 array with `instantiate_mesh` (default engine), runs it on a
//! 1-thread pool, and checks core 0's output against the golden model.

use crate::calib::HostSpeed;
use crate::gen::{self, Instance, MeshKernel, MESH_KERNELS};
use crate::pipeline::{self, Failure};
use crate::report::{OpSamples, Report};
use crate::trace::Tracer;
use crate::{check_pair, repeat_setup, run_pair, LayerCounters, RunArgs};
use epic_array::{ArrayOutcome, ArraySimulator, MeshSpec};
use epic_config::Config;
use epic_core::experiments::{instantiate_mesh, prepare_mesh_workload, PreparedMesh};
use epic_ir::{lower, Layout};
use epic_workloads::Scale;
use rayon::ThreadPool;
use std::time::Instant;

/// Mesh geometry of every op.
pub const MESH: (usize, usize) = (4, 4);

/// Host threads stepping the array. On a 2-CPU host two threads ran at
/// 0.6× the speed of one and varied by ±15%: that measures the
/// scheduler, not the program.
pub const HOST_THREADS: usize = 1;

/// One prepared mesh program.
#[derive(Debug)]
pub struct Point {
    /// The kernel.
    pub kernel: MeshKernel,
    /// The compiled program and its image (inputs are rewritten per op).
    pub mesh: PreparedMesh,
    /// Where its globals live.
    pub layout: Layout,
}

/// A mesh op's end state: the array outcome and core 0's memory.
#[derive(Debug, PartialEq)]
pub struct MeshOutcome {
    /// Lockstep cycles, per-core statistics and return values, NoC
    /// counters.
    pub outcome: ArrayOutcome,
    /// Core 0's final data memory.
    pub core0_memory: Vec<u8>,
}

/// Prepares the three programs through `epic_core`'s public runner.
///
/// # Errors
///
/// Returns the first failing call.
pub fn setup(config: &Config) -> Result<Vec<Point>, Failure> {
    MESH_KERNELS
        .iter()
        .map(|&kernel| {
            let workload = kernel.workload(Scale::Paper);
            let layout = lower::lower(&workload.program)
                .and_then(|m| m.layout())
                .map_err(|e| Failure::new("ir", e))?;
            let mesh = prepare_mesh_workload(&workload, config)?;
            Ok(Point {
                kernel,
                mesh,
                layout,
            })
        })
        .collect()
}

/// [`setup`] rebuilt from public calls, one `core.setup` job per program.
///
/// # Errors
///
/// Returns the first failing call.
pub fn setup_traced(
    tracer: &mut Tracer,
    config: &Config,
    counters: &mut LayerCounters,
) -> Result<Vec<Point>, Failure> {
    MESH_KERNELS
        .iter()
        .map(|&kernel| {
            let workload = kernel.workload(Scale::Paper);
            let root = tracer.enter("core.setup");
            let prepared =
                pipeline::prepare_mesh_traced(tracer, &workload, config, &mut counters.compile);
            tracer.exit(root);
            let (mesh, layout) = prepared?;
            Ok(Point {
                kernel,
                mesh,
                layout,
            })
        })
        .collect()
}

fn spec() -> MeshSpec {
    MeshSpec::new(MESH.0, MESH.1)
}

fn single_thread_pool() -> Result<ThreadPool, Failure> {
    rayon::ThreadPoolBuilder::new()
        .num_threads(HOST_THREADS)
        .build()
        .map_err(|e| Failure::new("core", e))
}

fn check(
    instance: &Instance,
    point: &Point,
    array: &mut ArraySimulator,
) -> Result<Vec<u8>, Failure> {
    let memory = array.core(0).memory().bytes();
    instance
        .check(&point.layout, memory)
        .map_err(|e| Failure::new("workloads", e))?;
    Ok(memory.to_vec())
}

/// Instantiates, runs and checks one array; returns the outcome and the
/// instantiate+run seconds.
fn run_op(
    pool: &ThreadPool,
    config: &Config,
    point: &Point,
    instance: &Instance,
) -> Result<(MeshOutcome, f64), Failure> {
    let t = Instant::now();
    let mut array = instantiate_mesh(&point.mesh, config, &spec())?;
    let outcome = pool
        .install(|| array.run())
        .map_err(|e| Failure::new("array", e))?;
    let secs = t.elapsed().as_secs_f64();
    let core0_memory = check(instance, point, &mut array)?;
    Ok((
        MeshOutcome {
            outcome,
            core0_memory,
        },
        secs,
    ))
}

fn run_op_traced(
    tracer: &mut Tracer,
    pool: &ThreadPool,
    config: &Config,
    point: &Point,
    instance: &Instance,
) -> Result<MeshOutcome, Failure> {
    let mut array = tracer.span("array.instantiate", || {
        instantiate_mesh(&point.mesh, config, &spec())
    })?;
    let outcome = tracer
        .span("array.run", || pool.install(|| array.run()))
        .map_err(|e| Failure::new("array", e))?;
    let core0_memory = tracer.span("workloads.verify", || check(instance, point, &mut array))?;
    Ok(MeshOutcome {
        outcome,
        core0_memory,
    })
}

/// Writes op `op`'s fresh inputs into the point's image.
fn load_input(point: &mut Point, seed: u64, op: u64) -> Instance {
    let instance = point.kernel.instance(Scale::Paper, gen::op_seed(seed, op));
    instance.apply(&point.layout, &mut point.mesh.prepared.initial_memory);
    instance
}

/// The untraced run: end-to-end metrics.
///
/// # Errors
///
/// Returns a set-up failure (measured ops never abort the run).
pub fn run(args: &RunArgs) -> Result<Report, Failure> {
    let config = Config::default();
    let pool = single_thread_pool()?;
    let (mut points, setup_s) = repeat_setup(|| setup(&config))?;
    let mut report = Report::default();
    let mut samples = OpSamples::default();
    let mut speed = HostSpeed::new();
    let start = Instant::now();
    let mut op = 0;
    for pass in 0.. {
        let pass_start = Instant::now();
        for i in gen::pass_order(points.len(), args.seed, pass) {
            let instance = load_input(&mut points[i], args.seed, op);
            op += 1;
            report.attempted += 1;
            let result = run_op(&pool, &config, &points[i], &instance);
            let k = speed.scale();
            match result {
                Ok((m, secs)) => {
                    let name = points[i].kernel.name().to_owned();
                    samples.record(pass, name, secs * k, secs * k, m.outcome.cycles);
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
pub const TRACED_PASSES: u64 = 4;

/// The traced run: traced set-up, then every op untraced and traced,
/// checked identical; per-layer metrics.
///
/// # Errors
///
/// Returns a set-up failure.
pub fn run_traced(args: &RunArgs, tracer: &mut Tracer) -> Result<Report, Failure> {
    let config = Config::default();
    let pool = single_thread_pool()?;
    let mut counters = LayerCounters::default();
    let mut untraced_points = setup(&config)?;
    let mut traced_points = setup_traced(tracer, &config, &mut counters)?;
    let mut report = Report::default();
    let mut op = 0;
    for pass in 0..TRACED_PASSES {
        for i in gen::pass_order(untraced_points.len(), args.seed, pass) {
            let instance = load_input(&mut untraced_points[i], args.seed, op);
            load_input(&mut traced_points[i], args.seed, op);
            let (untraced_point, traced_point) = (&untraced_points[i], &traced_points[i]);
            let ((untraced, u), (traced, t)) = run_pair(
                op % 2 == 1,
                || run_op(&pool, &config, untraced_point, &instance).map(|(m, _)| m),
                || {
                    let root = tracer.enter("core.op");
                    let out = run_op_traced(tracer, &pool, &config, traced_point, &instance);
                    tracer.exit(root);
                    out
                },
            );
            op += 1;
            counters.record_pair(u, t);
            let name = untraced_point.kernel.name();
            if let Some(m) = check_pair(&mut report, untraced, traced, name) {
                counters.add_mesh(&m.outcome);
            }
        }
    }
    counters.push_per_layer(&mut report, tracer);
    Ok(report)
}
