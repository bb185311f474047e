//! End-to-end and per-layer benchmark of the EPIC toolchain.
//!
//! Two workloads drive the system through the workspace crates' public
//! functions, each from one closed-loop client:
//!
//! * [`dse`] — `dse_sweep`, the interactive design-space loop: Test-scale
//!   jobs over the 64-point kernel × ALUs × issue-width grid;
//! * [`mesh`] — `mesh_array`, 4×4 many-core lockstep runs on fresh seeded
//!   inputs.
//!
//! Untraced runs give the end-to-end metrics, with every host time scaled
//! by the host's speed as a fixed probe measures it between ops
//! ([`calib`]); a traced run repeats each op
//! with a span around every public call, checks it against the untraced
//! op bit for bit, and gives the per-layer metrics. Every op's output is
//! checked against a golden model, and a failed op is counted, never
//! fatal. See `README.md` beside this crate.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod calib;
pub mod dse;
pub mod gen;
pub mod mesh;
pub mod pipeline;
pub mod report;
pub mod trace;

use calib::HostSpeed;
use epic_array::ArrayOutcome;
use pipeline::{CompileCounts, SimOutcome};
use report::Report;
use std::time::{Duration, Instant};
use trace::Tracer;

/// Runs one op untraced and traced, returning each result with its host
/// time. The side that runs first alternates with `traced_first`, so
/// neither inherits the other's warm caches and allocator every time.
pub fn run_pair<U, T>(
    traced_first: bool,
    untraced: impl FnOnce() -> U,
    traced: impl FnOnce() -> T,
) -> ((U, Duration), (T, Duration)) {
    fn timed<R>(f: impl FnOnce() -> R) -> (R, Duration) {
        let t = Instant::now();
        let r = f();
        (r, t.elapsed())
    }
    if traced_first {
        let t = timed(traced);
        (timed(untraced), t)
    } else {
        let u = timed(untraced);
        (u, timed(traced))
    }
}

/// One run's parameters.
#[derive(Debug, Clone, Copy)]
pub struct RunArgs {
    /// Seed of every generated input.
    pub seed: u64,
    /// Measurement budget.
    pub seconds: f64,
}

impl RunArgs {
    /// Whether another pass as long as `last_pass` still ends within the
    /// budget of a measurement that started at `start`. Runs measure
    /// whole passes, at least one, so every run sees the same multiset
    /// of ops.
    #[must_use]
    pub fn another_pass_fits(&self, start: Instant, last_pass: Duration) -> bool {
        (start.elapsed() + last_pass).as_secs_f64() <= self.seconds
    }
}

/// How many times an untraced run repeats its set-up (`setup_s` is the
/// median).
pub const SETUP_REPS: usize = 5;

/// Runs the set-up `f` [`SETUP_REPS`] times and returns the last result
/// with every duration in reference seconds (see [`calib`]).
///
/// # Errors
///
/// Returns the first set-up error.
pub fn repeat_setup<T, E>(mut f: impl FnMut() -> Result<T, E>) -> Result<(T, Vec<f64>), E> {
    let mut times = Vec::with_capacity(SETUP_REPS);
    let mut last = None;
    let mut speed = HostSpeed::new();
    for _ in 0..SETUP_REPS {
        let t = Instant::now();
        last = Some(f()?);
        let secs = t.elapsed().as_secs_f64();
        times.push(secs * speed.scale());
    }
    eprintln!(
        "perfbench: set-up times {times:.3?} reference s ({})",
        speed.summary()
    );
    Ok((last.expect("at least one repetition"), times))
}

/// Counts the traced run collects at the layer boundaries.
#[derive(Debug, Default)]
pub struct LayerCounters {
    /// Compiles of the measured programs (training compiles excluded).
    pub compile: CompileCounts,
    /// Single-core simulations counted.
    pub sim_ops: u64,
    /// Simulated cycles.
    pub sim_cycles: u64,
    /// Committed instructions (squashed excluded).
    pub sim_committed: u64,
    /// Cycles neither issuing a bundle nor charged to a stall cause.
    pub sim_unattributed: u64,
    /// Stall cycles per cause, in `StallCause::ALL` order.
    pub sim_stalls: [u64; 5],
    /// Fast-path block executions.
    pub sim_fast_blocks: u64,
    /// Fast-path entries by chaining.
    pub sim_chained: u64,
    /// Mesh runs counted.
    pub mesh_ops: u64,
    /// Per-core cycles summed over cores and runs.
    pub mesh_core_cycles: u64,
    /// Cores × lockstep cycles, summed over runs.
    pub mesh_core_slots: u64,
    /// Messages delivered.
    pub noc_messages: u64,
    /// Link hops travelled.
    pub noc_hops: u64,
    /// Injection-to-delivery cycles, summed over messages.
    pub noc_latency: u64,
    /// Most transfers over any one link in any run.
    pub noc_max_link: u64,
    /// Host time of the untraced ops.
    pub untraced: Duration,
    /// Host milliseconds of each untraced op.
    pub untraced_ms: Vec<f64>,
    /// Host time of the traced ops.
    pub traced: Duration,
    /// Ops run both ways.
    pub ops_traced: u64,
}

impl LayerCounters {
    /// Adds a single-core simulation.
    pub fn add_sim(&mut self, o: &SimOutcome) {
        self.sim_ops += 1;
        self.sim_cycles += o.stats.cycles;
        self.sim_committed += o.stats.instructions - o.stats.squashed;
        self.sim_unattributed += o
            .stats
            .cycles
            .saturating_sub(o.stats.bundles + o.stats.stalls.total());
        for (slot, cause) in self.sim_stalls.iter_mut().zip(epic_sim::StallCause::ALL) {
            *slot += o.stats.stalls.by_cause(cause);
        }
        self.sim_fast_blocks += o.fast_block_execs;
        self.sim_chained += o.chained_execs;
    }

    /// Adds a mesh run.
    pub fn add_mesh(&mut self, o: &ArrayOutcome) {
        self.mesh_ops += 1;
        self.mesh_core_cycles += o.aggregate_core_cycles();
        self.mesh_core_slots += o.per_core.len() as u64 * o.cycles;
        self.noc_messages += o.noc.messages_delivered;
        self.noc_hops += o.noc.total_hops;
        self.noc_latency += o.noc.total_latency;
        self.noc_max_link = self.noc_max_link.max(o.noc.max_link_transfers());
    }

    /// Adds the host times of one op run untraced and traced.
    pub fn record_pair(&mut self, untraced: Duration, traced: Duration) {
        self.untraced += untraced;
        self.untraced_ms.push(untraced.as_secs_f64() * 1e3);
        self.traced += traced;
        self.ops_traced += 1;
    }

    /// Pushes every per-layer metric, in `report::per_layer_metrics`
    /// order. Counts are means per op (per compile for `compiler.*`), so
    /// they repeat exactly whatever the number of whole passes.
    pub fn push_per_layer(&self, report: &mut Report, tracer: &Tracer) {
        let self_times = tracer.self_times();
        for span in report::SPANS {
            let ms = self_times.get(span).map_or(0.0, trace::SelfTime::mean_ms);
            report.push(format!("{span}_ms"), ms, "ms");
        }
        let roots: Vec<_> = ["core.job", "core.setup", "core.op"]
            .iter()
            .filter_map(|r| self_times.get(r))
            .collect();
        let root_jobs: u64 = roots.iter().map(|s| s.jobs).sum();
        let root_ns: u64 = roots.iter().map(|s| s.total_ns).sum();
        let ns_of = |span: &str| self_times.get(span).map_or(0, |s| s.total_ns) as f64;
        let per = |num: u64, den: u64| {
            if den == 0 {
                0.0
            } else {
                num as f64 / den as f64
            }
        };
        let c = &self.compile;
        let overhead_ms = (self.traced.as_secs_f64() - self.untraced.as_secs_f64()) * 1e3;
        let values = [
            report::percentile(&self.untraced_ms, 92.0),
            per(root_ns, root_jobs) / 1e6,
            overhead_ms / self.ops_traced.max(1) as f64,
            per(c.bundles, c.compiles),
            per(c.slots_filled, c.slots_available),
            per(c.spilled, c.compiles),
            per(c.superblock_traces, c.compiles),
            per(self.sim_cycles, self.sim_ops),
            per(self.sim_committed, self.sim_cycles),
            per(self.sim_stalls[0], self.sim_ops),
            per(self.sim_stalls[1], self.sim_ops),
            per(self.sim_stalls[2], self.sim_ops),
            per(self.sim_stalls[3], self.sim_ops),
            per(self.sim_stalls[4], self.sim_ops),
            per(self.sim_unattributed, self.sim_ops),
            per(self.sim_fast_blocks, self.sim_ops),
            per(self.sim_chained, self.sim_fast_blocks),
            if self.sim_cycles == 0 {
                0.0
            } else {
                ns_of("sim.run") / self.sim_cycles as f64
            },
            per(self.mesh_core_cycles, self.mesh_core_slots),
            if self.mesh_core_cycles == 0 {
                0.0
            } else {
                ns_of("array.run") / self.mesh_core_cycles as f64
            },
            per(self.noc_messages, self.mesh_ops),
            per(self.noc_hops, self.mesh_ops),
            per(self.noc_latency, self.noc_messages),
            self.noc_max_link as f64,
            self.ops_traced as f64,
            per(report.failures.total(), report.attempted),
        ];
        for ((name, unit), value) in report::COUNTERS.iter().zip(values) {
            report.push(*name, value, unit);
        }
        for layer in report::LAYERS {
            let failures = report.failures.of(layer) as f64;
            report.push(format!("{layer}.failures"), failures, "count");
        }
    }
}

/// Charges a failed op, or an op whose traced run differs from its
/// untraced run, to the right layer. Returns the traced outcome when both
/// runs succeeded and agree.
pub fn check_pair<T: PartialEq>(
    report: &mut Report,
    untraced: Result<T, pipeline::Failure>,
    traced: Result<T, pipeline::Failure>,
    what: &str,
) -> Option<T> {
    report.attempted += 2;
    match (untraced, traced) {
        (Ok(u), Ok(t)) if u == t => Some(t),
        (Ok(_), Ok(_)) => {
            report.failures.record(
                "core",
                &format!("{what}: traced run differs from the untraced run"),
            );
            None
        }
        (u, t) => {
            for f in [u.err(), t.err()].into_iter().flatten() {
                report
                    .failures
                    .record(f.layer, &format!("{what}: {}", f.message));
            }
            None
        }
    }
}
