//! Differential regression: the scheduler's stall-freedom claims, enforced,
//! and the decode-once engine pinned bit-identical to the interpretive
//! oracle.
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
//! The second test runs the same grid through all three execution
//! engines — the decode-once [`Simulator`], the frozen
//! [`ReferenceSimulator`] oracle and the threaded-code
//! [`ThreadedSimulator`] — and demands bit-identical statistics,
//! register files and memory images. Any divergence in the decoded fast
//! path, the folded block accounting or the chained step streams fails
//! here before it can skew a single paper number.
//!
//! The remaining tests pin the threaded engine's *raison d'être*: on
//! real workloads it must actually take its folded fast path and chain
//! blocks, not silently fall back to per-cycle stepping everywhere.

use epic_core::config::Config;
use epic_core::experiments::run_epic_workload_with_engine;
use epic_core::ir::lower;
use epic_core::sim::{Engine, Memory, ReferenceSimulator, Simulator, ThreadedSimulator};
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

                // Re-run the exact same binary on the decoded engine
                // (from scratch, not the toolchain's simulator, so the
                // comparison covers the whole decode path) and on the
                // interpretive oracle.
                let image = module.initial_memory(&layout);
                let bundles = run.program.bundles().to_vec();
                let entry = run.program.entry();

                let mut decoded = Simulator::try_new(&config, bundles.clone(), entry)
                    .unwrap_or_else(|e| panic!("{label}: decode rejected legal program: {e}"));
                decoded.set_memory(Memory::from_image(image.clone()));
                decoded
                    .run()
                    .unwrap_or_else(|e| panic!("{label}: decoded run failed: {e}"));

                let mut oracle = ReferenceSimulator::new(&config, bundles.clone(), entry);
                oracle.set_memory(Memory::from_image(image.clone()));
                oracle
                    .run()
                    .unwrap_or_else(|e| panic!("{label}: reference run failed: {e}"));

                let mut threaded = ThreadedSimulator::try_new(&config, bundles, entry)
                    .unwrap_or_else(|e| panic!("{label}: threaded translation rejected: {e}"));
                threaded.set_memory(Memory::from_image(image));
                threaded
                    .run()
                    .unwrap_or_else(|e| panic!("{label}: threaded run failed: {e}"));

                assert_eq!(
                    decoded.stats(),
                    oracle.stats(),
                    "{label}: SimStats diverged between decoded and reference"
                );
                assert_eq!(
                    decoded.stats(),
                    threaded.stats(),
                    "{label}: SimStats diverged between decoded and threaded"
                );
                assert_eq!(
                    decoded.stats(),
                    run.stats(),
                    "{label}: toolchain-embedded simulator diverged"
                );
                for r in 0..config.num_gprs() {
                    assert_eq!(decoded.gpr(r), oracle.gpr(r), "{label}: r{r} diverged");
                    assert_eq!(
                        decoded.gpr(r),
                        threaded.gpr(r),
                        "{label}: threaded r{r} diverged"
                    );
                }
                for p in 0..config.num_pred_regs() {
                    assert_eq!(decoded.pred(p), oracle.pred(p), "{label}: p{p} diverged");
                    assert_eq!(
                        decoded.pred(p),
                        threaded.pred(p),
                        "{label}: threaded p{p} diverged"
                    );
                }
                for b in 0..config.num_btrs() {
                    assert_eq!(decoded.btr(b), oracle.btr(b), "{label}: b{b} diverged");
                    assert_eq!(
                        decoded.btr(b),
                        threaded.btr(b),
                        "{label}: threaded b{b} diverged"
                    );
                }
                assert_eq!(
                    decoded.memory().bytes(),
                    oracle.memory().bytes(),
                    "{label}: final memory images diverged"
                );
                assert_eq!(
                    decoded.memory().bytes(),
                    threaded.memory().bytes(),
                    "{label}: threaded final memory image diverged"
                );
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
            "{}: the threaded engine never entered a step stream",
            workload.name
        );
        assert!(
            run.outcome.chained_execs > 0,
            "{}: the threaded engine never chained from one stream into \
             the next (every block bounced through the dispatcher)",
            workload.name
        );
    }
}

/// Throughput smoke gate, run explicitly in CI (`--ignored`): the
/// threaded engine may not be slower than the decoded engine on
/// Dijkstra — the branchiest workload, i.e. the one with the least
/// straight-line code to fold. Interleaved best-of-5 timing on
/// identical cloned machines, with a 5% tolerance so the gate trips on
/// regressions, not on noise.
#[test]
#[ignore = "timing-sensitive; CI runs it on a quiet runner"]
fn threaded_engine_is_not_slower_than_decoded_on_dijkstra() {
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
    let bundles = run.program.bundles().to_vec();
    let entry = run.program.entry();

    let decoded = {
        let mut sim = Simulator::try_new(&config, bundles.clone(), entry).expect("decodes");
        sim.set_memory(Memory::from_image(image.clone()));
        sim
    };
    let threaded = {
        let mut sim = ThreadedSimulator::try_new(&config, bundles, entry).expect("translates");
        sim.set_memory(Memory::from_image(image));
        sim
    };

    let mut best = [u128::MAX; 2];
    for rep in 0..=5 {
        let mut sim = decoded.clone();
        let start = std::time::Instant::now();
        sim.run().expect("runs");
        let decoded_ns = start.elapsed().as_nanos();

        let mut sim = threaded.clone();
        let start = std::time::Instant::now();
        sim.run().expect("runs");
        let threaded_ns = start.elapsed().as_nanos();

        // Rep 0 is a warm-up for all engines.
        if rep > 0 {
            best[0] = best[0].min(decoded_ns);
            best[1] = best[1].min(threaded_ns);
        }
    }
    assert!(
        best[1] as f64 <= best[0] as f64 * 1.05,
        "threaded engine slower than decoded on dijkstra: {}ns vs {}ns",
        best[1],
        best[0]
    );
}
