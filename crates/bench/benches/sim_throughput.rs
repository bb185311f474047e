//! Measures simulator throughput in simulated cycles per second.
//!
//! Runs each workload three ways: [`Simulator`] stepped to halt on its
//! per-cycle loop, the frozen interpretive oracle
//! ([`ReferenceSimulator`]), and [`Simulator::run`] on its threaded loop.
//! All three produce identical architectural results (see
//! `tests/differential_regression.rs`); this bench reports how many
//! simulated cycles each path retires per wall-clock second, i.e. the
//! speedup bought by decoding the program once at load time, and by
//! folding straight-line basic blocks into single state updates run as
//! translated step streams. Every run starts from an untranslated
//! machine, so the threaded time includes translation.
//!
//! ```text
//! cargo bench -p epic-bench --bench sim_throughput
//! ```

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use epic_core::config::Config;
use epic_core::ir::lower;
use epic_core::sim::{Memory, ReferenceSimulator, Simulator};
use epic_core::workloads::{self, Scale};
use epic_core::Toolchain;
use std::time::Instant;

/// Compiled program + memory image for one (workload, ALU count) point.
struct Prepared {
    config: Config,
    bundles: Vec<Vec<epic_core::isa::Instruction>>,
    entry: u32,
    image: Vec<u8>,
}

/// Compiles a workload once; every engine then runs the same binary.
fn prepare(workload: &workloads::Workload, alus: usize) -> Prepared {
    let config = Config::builder().num_alus(alus).build().expect("config");
    let module = lower::lower(&workload.program).expect("lowers");
    let run = Toolchain::new(config.clone())
        .run_module(&module, &workload.entry, &[], &workload.inline_hints())
        .expect("pipeline runs");
    let layout = module.layout().expect("layout");
    Prepared {
        config,
        bundles: run.program.bundles().to_vec(),
        entry: run.program.entry(),
        image: module.initial_memory(&layout),
    }
}

/// Times one full run of `sim`, returning (cycles, seconds).
fn timed<S, R: FnOnce(&mut S) -> u64>(sim: &mut S, run: R) -> (u64, f64) {
    let start = Instant::now();
    let cycles = run(sim);
    (cycles, start.elapsed().as_secs_f64())
}

/// Steps `sim` to halt on its per-cycle loop, returning its cycles.
fn step_to_halt(sim: &mut Simulator) -> u64 {
    while sim.step().expect("steps") {}
    sim.stats().cycles
}

fn bench_throughput(c: &mut Criterion) {
    let mut group = c.benchmark_group("sim_throughput");
    group.sample_size(10);
    for workload in workloads::all(Scale::Test) {
        let p = prepare(&workload, 4);
        let template = {
            let mut sim = Simulator::try_new(&p.config, p.bundles.clone(), p.entry)
                .expect("toolchain output is always legal");
            sim.set_memory(Memory::from_image(p.image.clone()));
            sim
        };

        // Headline number: simulated cycles per second for each path,
        // measured over one run outside the criterion loop.
        let (cycles, step_s) = timed(&mut template.clone(), step_to_halt);
        let mut reference = ReferenceSimulator::try_new(&p.config, p.bundles.clone(), p.entry)
            .expect("toolchain output is always legal");
        reference.set_memory(Memory::from_image(p.image.clone()));
        let (ref_cycles, ref_s) = timed(&mut reference, |s| {
            s.run().expect("runs");
            s.stats().cycles
        });
        let mut threaded = template.clone();
        let (thr_cycles, thr_s) = timed(&mut threaded, |s| {
            s.run().expect("runs");
            s.stats().cycles
        });
        assert_eq!(cycles, ref_cycles, "engines disagree on {}", workload.name);
        assert_eq!(
            cycles, thr_cycles,
            "run modes disagree on {}",
            workload.name
        );
        println!(
            "[throughput] {} (4 ALUs, {} cycles): per-cycle {:.2} Mcycles/s, \
             reference {:.2} Mcycles/s, threaded {:.2} Mcycles/s \
             ({} fast blocks, {} chained, threaded/per-cycle {:.2}x)",
            workload.name,
            cycles,
            cycles as f64 / step_s / 1e6,
            cycles as f64 / ref_s / 1e6,
            cycles as f64 / thr_s / 1e6,
            threaded.fast_block_execs(),
            threaded.chained_execs(),
            step_s / thr_s
        );

        group.bench_with_input(
            BenchmarkId::new(&workload.name, "per-cycle"),
            &template,
            |b, template| {
                b.iter(|| step_to_halt(&mut template.clone()));
            },
        );
        group.bench_with_input(
            BenchmarkId::new(&workload.name, "threaded"),
            &template,
            |b, template| {
                b.iter(|| {
                    let mut sim = template.clone();
                    sim.run().expect("runs");
                    sim.stats().cycles
                });
            },
        );
        group.bench_function(BenchmarkId::new(&workload.name, "reference"), |b| {
            b.iter(|| {
                let mut sim = ReferenceSimulator::try_new(&p.config, p.bundles.clone(), p.entry)
                    .expect("toolchain output is always legal");
                sim.set_memory(Memory::from_image(p.image.clone()));
                sim.run().expect("runs");
                sim.stats().cycles
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench_throughput);
criterion_main!(benches);
