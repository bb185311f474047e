//! Per-core engine identity inside the array: a mesh run must produce
//! identical per-core statistics, architectural registers and final
//! memories whether the reference interpreter or the production
//! `Simulator`, stepped on its per-cycle loop, powers the cores.
//!
//! This extends the single-core engine contract (see
//! `tests/differential_regression.rs`) to the lockstep world: the NoC
//! exchange phase reads and writes core memories *between* cycles, so
//! any engine that buffered stores across a cycle boundary or retired
//! them early would diverge here.

use epic_core::array::{CoreSim, MeshSpec};
use epic_core::config::Config;
use epic_core::experiments::{run_mesh_workload, MeshRun};
use epic_core::sim::Engine;
use epic_core::workloads::{mesh, Scale};

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

#[test]
fn engines_agree_on_a_2x2_mesh() {
    let config = Config::builder().num_alus(2).build().expect("valid config");
    for workload in mesh::all(Scale::Test) {
        let [reference, threaded] = [Engine::Reference, Engine::Threaded].map(|engine| {
            let spec = MeshSpec::new(2, 2).with_engine(engine);
            let run = run_mesh_workload(&workload, &config, &spec)
                .unwrap_or_else(|e| panic!("{} on {engine} cores: {e}", workload.name));
            for core in 0..run.outcome.per_core.len() {
                if let CoreSim::Threaded(sim) = run.array.core(core) {
                    assert_eq!(
                        sim.translated_blocks(),
                        0,
                        "{}: stepped core {core} built a translation",
                        workload.name
                    );
                }
            }
            snapshot(&run, &config)
        });
        assert_eq!(
            reference, threaded,
            "{}: threaded cores diverged from reference cores",
            workload.name
        );
    }
}
