//! Per-core engine identity inside the array: a mesh run must produce
//! identical per-core statistics, architectural registers and final
//! memories whether the reference interpreter, stepped every cycle, or
//! the production `Simulator`, running ahead on its threaded loop
//! between mailbox accesses, powers the cores.
//!
//! This extends the single-core engine contract (see
//! `tests/differential_regression.rs`) to the lockstep world: the NoC
//! exchange phase reads and writes core memories *between* cycles, so
//! any engine that buffered stores across a cycle boundary or retired
//! them early would diverge here, and so would a core that ran ahead
//! over a mailbox access.

use epic_core::array::{CoreSim, MeshSpec};
use epic_core::config::Config;
use epic_core::experiments::{run_mesh_workload, MeshRun};
use epic_core::sim::Engine;
use epic_core::workloads::{mesh, Scale, Workload};

/// Full architectural state of every core plus the aggregate outcome.
fn snapshot(run: &MeshRun, config: &Config) -> String {
    let mut out = format!(
        "cycles={} per_core={:?} returns={:?} noc={:?}\n",
        run.outcome.cycles, run.outcome.per_core, run.outcome.return_values, run.outcome.noc
    );
    for core in 0..run.outcome.per_core.len() {
        let sim = run.array.core(core);
        let gprs: Vec<u32> = (0..config.num_gprs()).map(|r| sim.gpr(r)).collect();
        let preds: Vec<bool> = (0..config.num_pred_regs()).map(|p| sim.pred(p)).collect();
        let btrs: Vec<u32> = (0..config.num_btrs()).map(|b| sim.btr(b)).collect();
        let digest = sim
            .memory()
            .bytes()
            .iter()
            .fold(0u64, |h, b| h.wrapping_mul(131).wrapping_add(u64::from(*b)));
        out.push_str(&format!(
            "core {core}: gprs={gprs:?} preds={preds:?} btrs={btrs:?} mem_digest={digest:#x}\n"
        ));
    }
    out
}

/// Runs `workload` on reference and on threaded cores of a
/// `width`×`height` mesh, requires the two snapshots to be identical
/// and the threaded cores to have run ahead on translated streams.
fn engines_agree(workload: &Workload, config: &Config, width: usize, height: usize) {
    let [reference, threaded] = [Engine::Reference, Engine::Threaded].map(|engine| {
        let spec = MeshSpec::new(width, height).with_engine(engine);
        let run = run_mesh_workload(workload, config, &spec)
            .unwrap_or_else(|e| panic!("{} on {engine} cores: {e}", workload.name));
        if engine == Engine::Threaded {
            let fast_blocks: u64 = (0..run.outcome.per_core.len())
                .map(|core| match run.array.core(core) {
                    CoreSim::Threaded(sim) => sim.fast_block_execs(),
                    CoreSim::Reference(_) => panic!("a threaded mesh built a reference core"),
                })
                .sum();
            assert!(
                fast_blocks > 0,
                "{} on {width}x{height}: threaded cores never ran ahead",
                workload.name
            );
        }
        snapshot(&run, config)
    });
    assert_eq!(
        reference, threaded,
        "{} on {width}x{height}: threaded cores diverged from reference cores",
        workload.name
    );
}

#[test]
fn engines_agree_on_a_2x2_mesh() {
    let config = Config::builder().num_alus(2).build().expect("valid config");
    for workload in mesh::all(Scale::Test) {
        engines_agree(&workload, &config, 2, 2);
    }
}

#[test]
fn engines_agree_on_a_4x4_mesh() {
    let config = Config::builder().num_alus(2).build().expect("valid config");
    for workload in mesh::all(Scale::Test) {
        if matches!(workload.name.as_str(), "mesh_dct" | "mesh_aesctr") {
            engines_agree(&workload, &config, 4, 4);
        }
    }
}
