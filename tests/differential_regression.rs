//! Differential regression: the scheduler's stall-freedom claims, enforced,
//! and both of the decode-once engine's run modes pinned bit-identical to
//! the interpretive oracle.
//!
//! `crates/compiler/src/sched.rs` documents that scheduled code respects
//! the register-file port budget "so the scheduled code never provokes
//! the port stall the hardware would otherwise insert", and books ALU
//! occupancy so the blocking divider never surprises issue. This test
//! makes both claims load-bearing: every workload, at every ALU count ×
//! issue width the paper explores, must simulate with zero
//! `regfile_port` and zero `unit_busy` stalls — cross-validated against
//! the static verifier, which must accept exactly these programs.
//!
//! The second test runs the same grid through three execution paths —
//! [`Simulator`] stepped to halt on its per-cycle loop, the same machine
//! run on its threaded loop, and the frozen [`ReferenceSimulator`]
//! oracle — and demands bit-identical statistics, register files and
//! memory images. Any divergence in the decoded per-cycle path, the
//! folded block accounting or the chained step streams fails here
//! before it can skew a single paper number.
//!
//! The remaining tests pin the threaded loop's *raison d'être*: on
//! real workloads it must actually take its folded fast path and chain
//! blocks, not silently fall back to per-cycle stepping everywhere.

use epic_core::config::Config;
use epic_core::experiments::run_epic_workload_with_engine;
use epic_core::ir::lower;
use epic_core::sim::{Engine, Memory, ReferenceSimulator, Simulator, TraceSink};
use epic_core::workloads::{self, Scale};
use epic_core::Toolchain;

#[test]
fn compiled_workloads_never_stall_on_ports_or_units() {
    for workload in workloads::all(Scale::Test) {
        let module = lower::lower(&workload.program).expect("workload lowers");
        for alus in 1..=4usize {
            for issue_width in 1..=4usize {
                let config = Config::builder()
                    .num_alus(alus)
                    .issue_width(issue_width)
                    .build()
                    .expect("valid configuration");
                let toolchain = Toolchain::new(config);
                let run = toolchain
                    .run_module(&module, &workload.entry, &[], &workload.inline_hints())
                    .unwrap_or_else(|e| {
                        panic!("{} alus={alus} iw={issue_width}: {e}", workload.name)
                    });
                let stats = run.stats();
                assert_eq!(
                    stats.stalls.regfile_port, 0,
                    "{} alus={alus} iw={issue_width}: scheduler let a bundle \
                     exceed the register-file port budget",
                    workload.name
                );
                assert_eq!(
                    stats.stalls.unit_busy, 0,
                    "{} alus={alus} iw={issue_width}: scheduler let the \
                     blocking divider collide with issue",
                    workload.name
                );
            }
        }
    }
}

#[test]
fn all_three_engines_are_bit_identical_across_the_grid() {
    for workload in workloads::all(Scale::Test) {
        let module = lower::lower(&workload.program).expect("workload lowers");
        let layout = module.layout().expect("layout");
        for alus in 1..=4usize {
            for issue_width in 1..=4usize {
                let config = Config::builder()
                    .num_alus(alus)
                    .issue_width(issue_width)
                    .build()
                    .expect("valid configuration");
                let toolchain = Toolchain::new(config.clone());
                let run = toolchain
                    .run_module(&module, &workload.entry, &[], &workload.inline_hints())
                    .unwrap_or_else(|e| {
                        panic!("{} alus={alus} iw={issue_width}: {e}", workload.name)
                    });
                let label = format!("{} alus={alus} iw={issue_width}", workload.name);

                // Re-run the exact same binary from scratch (not the
                // toolchain's simulator, so the comparison covers the
                // whole decode path): stepped, run, and on the
                // interpretive oracle.
                let image = module.initial_memory(&layout);
                let bundles = run.program.bundles().to_vec();
                let entry = run.program.entry();

                let mut stepped = Simulator::try_new(&config, bundles.clone(), entry)
                    .unwrap_or_else(|e| panic!("{label}: decode rejected legal program: {e}"));
                stepped.set_memory(Memory::from_image(image.clone()));
                let mut threaded = stepped.clone();
                while stepped
                    .step()
                    .unwrap_or_else(|e| panic!("{label}: per-cycle run failed: {e}"))
                {
                }
                threaded
                    .run()
                    .unwrap_or_else(|e| panic!("{label}: threaded run failed: {e}"));

                let mut oracle = ReferenceSimulator::new(&config, bundles, entry);
                oracle.set_memory(Memory::from_image(image));
                oracle
                    .run()
                    .unwrap_or_else(|e| panic!("{label}: reference run failed: {e}"));

                assert_eq!(
                    run.stats(),
                    oracle.stats(),
                    "{label}: toolchain-embedded simulator diverged"
                );
                for (path, sim) in [("per-cycle", &stepped), ("threaded", &threaded)] {
                    assert_eq!(
                        sim.stats(),
                        oracle.stats(),
                        "{label}: {path} SimStats diverged from reference"
                    );
                    for r in 0..config.num_gprs() {
                        assert_eq!(sim.gpr(r), oracle.gpr(r), "{label}: {path} r{r} diverged");
                    }
                    for p in 0..config.num_pred_regs() {
                        assert_eq!(sim.pred(p), oracle.pred(p), "{label}: {path} p{p} diverged");
                    }
                    for b in 0..config.num_btrs() {
                        assert_eq!(sim.btr(b), oracle.btr(b), "{label}: {path} b{b} diverged");
                    }
                    assert_eq!(
                        sim.memory().bytes(),
                        oracle.memory().bytes(),
                        "{label}: {path} final memory image diverged"
                    );
                }
            }
        }
    }
}

#[test]
fn threaded_engine_chains_blocks_on_every_workload() {
    for workload in workloads::all(Scale::Test) {
        let config = Config::default();
        let run = run_epic_workload_with_engine(&workload, &config, Engine::Threaded)
            .unwrap_or_else(|e| panic!("{}: {e}", workload.name));
        assert!(
            run.outcome.fast_block_execs > 0,
            "{}: the threaded run never entered a step stream",
            workload.name
        );
        assert!(
            run.outcome.chained_execs > 0,
            "{}: the threaded run never chained from one stream into \
             the next (every block bounced through the dispatcher)",
            workload.name
        );
    }
}

/// A sink that declares itself observing and records nothing, so
/// `run_with_sink` takes the per-cycle loop to halt.
struct PerCycle;

impl TraceSink for PerCycle {}

/// Throughput smoke gate, run explicitly in CI (`--ignored`): the
/// threaded loop may not be slower than the per-cycle loop, each
/// running the same machine to halt, on Dijkstra — the branchiest
/// workload, i.e. the one with the least straight-line code to fold.
/// The gate times the two loops alone: the threaded runs start from a
/// machine whose translation is already built, a cost paid once per
/// simulator that `repro -- bench --throughput` reports. Interleaved
/// best-of-5 timing on identical cloned machines, with a 5% tolerance
/// so the gate trips on regressions, not on noise.
#[test]
#[ignore = "timing-sensitive; CI runs it on a quiet runner"]
fn threaded_loop_is_not_slower_than_the_per_cycle_loop_on_dijkstra() {
    let workload = workloads::all(Scale::Test)
        .into_iter()
        .find(|w| w.name == "dijkstra")
        .expect("dijkstra workload exists");
    let config = Config::default();
    let module = lower::lower(&workload.program).expect("workload lowers");
    let layout = module.layout().expect("layout");
    let run = Toolchain::new(config.clone())
        .run_module(&module, &workload.entry, &[], &workload.inline_hints())
        .expect("pipeline runs");
    let image = module.initial_memory(&layout);
    let mut machine =
        Simulator::try_new(&config, run.program.bundles().to_vec(), run.program.entry())
            .expect("decodes");
    machine.set_memory(Memory::from_image(image));
    // A run with a zero cycle budget builds the translation and stops
    // before its first cycle.
    let mut translated = machine.clone();
    translated.set_cycle_limit(0);
    assert!(translated.run().is_err(), "a zero budget stops the run");
    translated.set_cycle_limit(u64::MAX);
    assert_eq!(translated.cycle(), 0);
    assert!(translated.translated_blocks() > 0);

    let mut best = [u128::MAX; 2];
    for rep in 0..=5 {
        let mut sim = machine.clone();
        let start = std::time::Instant::now();
        sim.run_with_sink(&mut PerCycle).expect("runs per cycle");
        let per_cycle_ns = start.elapsed().as_nanos();

        let mut sim = translated.clone();
        let start = std::time::Instant::now();
        sim.run().expect("runs");
        let threaded_ns = start.elapsed().as_nanos();

        // Rep 0 is a warm-up for both paths.
        if rep > 0 {
            best[0] = best[0].min(per_cycle_ns);
            best[1] = best[1].min(threaded_ns);
        }
    }
    assert!(
        best[1] as f64 <= best[0] as f64 * 1.05,
        "threaded loop slower than the per-cycle loop on dijkstra: {}ns vs {}ns",
        best[1],
        best[0]
    );
}
