//! The lockstep determinism battery: a mesh run's observable result —
//! lockstep cycle count, per-core [`SimStats`], per-core return values,
//! NoC counters and every core's final data memory — must be
//! byte-identical across repeated runs and across host thread counts.
//!
//! The array computes its lockstep schedule in one event loop on the
//! calling thread, stepping cores and running the NoC exchange in a
//! fixed order, so a run is a pure function of its inputs. This test proves that no state outside the array — allocator
//! state, hash seeds, anything cached between runs or shared between
//! host threads — leaks into the result: a second run in the same
//! thread, and runs on 1, 2, 3 or 8 concurrent host threads, must all
//! replay exactly the same simulation.
//!
//! [`SimStats`]: epic_core::sim::SimStats

use epic_core::array::MeshSpec;
use epic_core::config::Config;
use epic_core::experiments::run_mesh_workload;
use epic_core::workloads::{mesh, Scale, Workload};

/// Everything observable about a completed run, in comparable form.
#[derive(PartialEq)]
struct Observation {
    /// `Debug` render of the aggregate outcome (cycles, per-core stats,
    /// return values, NoC counters — all fields).
    outcome: String,
    /// Every core's final data memory, in core index order.
    memories: Vec<Vec<u8>>,
}

impl std::fmt::Debug for Observation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // On mismatch, print the outcome and memory digests, not
        // megabytes of memory bytes.
        let digests: Vec<(usize, usize)> = self
            .memories
            .iter()
            .map(|m| {
                (
                    m.len(),
                    m.iter()
                        .fold(0usize, |h, b| h.wrapping_mul(131).wrapping_add(*b as usize)),
                )
            })
            .collect();
        write!(f, "outcome: {}\nmemory digests: {digests:?}", self.outcome)
    }
}

fn run_and_observe(workload: &Workload, config: &Config, spec: &MeshSpec) -> Observation {
    let run = run_mesh_workload(workload, config, spec)
        .unwrap_or_else(|e| panic!("{} on {}x{}: {e}", workload.name, spec.width, spec.height));
    Observation {
        outcome: format!("{:?}", run.outcome),
        memories: (0..run.outcome.per_core.len())
            .map(|core| run.array.core(core).memory().bytes().to_vec())
            .collect(),
    }
}

/// Runs `workload` twice in a row on this thread, then once on each of
/// N concurrent host threads for every N in `thread_counts`, and checks
/// every run against the first.
fn assert_deterministic(workload: &Workload, spec: &MeshSpec, thread_counts: &[usize]) {
    let config = Config::builder().num_alus(2).build().expect("valid config");
    let name = format!("{} on {}x{}", workload.name, spec.width, spec.height);
    let baseline = run_and_observe(workload, &config, spec);
    // Same process, same thread: allocator state and anything cached
    // between runs must not leak into the result.
    let second = run_and_observe(workload, &config, spec);
    assert_eq!(baseline, second, "{name}: two consecutive runs diverged");
    // Nor may the host thread a run lands on, or how many runs share the
    // host: 8 threads oversubscribe any small host.
    for &threads in thread_counts {
        std::thread::scope(|scope| {
            let runs: Vec<_> = (0..threads)
                .map(|_| scope.spawn(|| run_and_observe(workload, &config, spec)))
                .collect();
            for run in runs {
                let observed = run.join().unwrap_or_else(|p| std::panic::resume_unwind(p));
                assert_eq!(
                    baseline, observed,
                    "{name}: run diverged on {threads} concurrent host threads"
                );
            }
        });
    }
}

#[test]
fn mesh_runs_are_deterministic_across_host_thread_counts() {
    for workload in mesh::all(Scale::Test) {
        assert_deterministic(&workload, &MeshSpec::new(2, 2), &[1, 2, 8]);
    }
}

/// A larger mesh with the heaviest traffic pattern (BFS all-to-all
/// broadcast).
#[test]
fn bfs_4x4_is_deterministic_across_host_thread_counts() {
    assert_deterministic(&mesh::bfs(Scale::Test), &MeshSpec::new(4, 4), &[1, 3, 8]);
}
