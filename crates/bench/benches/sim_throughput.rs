//! Measures simulator throughput in simulated cycles per second.
//!
//! Runs each workload three times: on the decode-once engine
//! ([`Simulator`]), on the frozen interpretive oracle
//! ([`ReferenceSimulator`]) and on the threaded-code engine
//! ([`ThreadedSimulator`]). All three produce identical architectural
//! results (see `tests/differential_regression.rs`); this bench reports
//! how many simulated cycles each engine retires per wall-clock second,
//! i.e. the speedup bought by decoding the program once at load time,
//! and by folding straight-line basic blocks into single state updates
//! chained into translated step streams.
//!
//! ```text
//! cargo bench -p epic-bench --bench sim_throughput
//! ```

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use epic_core::config::Config;
use epic_core::ir::lower;
use epic_core::sim::{Memory, ReferenceSimulator, Simulator, ThreadedSimulator};
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

fn bench_throughput(c: &mut Criterion) {
    let mut group = c.benchmark_group("sim_throughput");
    group.sample_size(10);
    for workload in workloads::all(Scale::Test) {
        let p = prepare(&workload, 4);

        // Headline number: simulated cycles per second for each engine,
        // measured over one run outside the criterion loop.
        let mut decoded = Simulator::try_new(&p.config, p.bundles.clone(), p.entry)
            .expect("toolchain output is always legal");
        decoded.set_memory(Memory::from_image(p.image.clone()));
        let (cycles, dec_s) = timed(&mut decoded, |s| {
            s.run().expect("runs");
            s.stats().cycles
        });
        let mut reference = ReferenceSimulator::new(&p.config, p.bundles.clone(), p.entry);
        reference.set_memory(Memory::from_image(p.image.clone()));
        let (ref_cycles, ref_s) = timed(&mut reference, |s| {
            s.run().expect("runs");
            s.stats().cycles
        });
        let mut threaded = ThreadedSimulator::try_new(&p.config, p.bundles.clone(), p.entry)
            .expect("toolchain output is always legal");
        threaded.set_memory(Memory::from_image(p.image.clone()));
        let (thr_cycles, thr_s) = timed(&mut threaded, |s| {
            s.run().expect("runs");
            s.stats().cycles
        });
        assert_eq!(cycles, ref_cycles, "engines disagree on {}", workload.name);
        assert_eq!(cycles, thr_cycles, "engines disagree on {}", workload.name);
        println!(
            "[throughput] {} (4 ALUs, {} cycles): decoded {:.2} Mcycles/s, \
             reference {:.2} Mcycles/s, threaded {:.2} Mcycles/s \
             ({} fast blocks, {} chained, threaded/decoded {:.2}x)",
            workload.name,
            cycles,
            cycles as f64 / dec_s / 1e6,
            cycles as f64 / ref_s / 1e6,
            cycles as f64 / thr_s / 1e6,
            threaded.fast_block_execs(),
            threaded.chained_execs(),
            dec_s / thr_s
        );

        let template = {
            let mut sim = Simulator::try_new(&p.config, p.bundles.clone(), p.entry)
                .expect("toolchain output is always legal");
            sim.set_memory(Memory::from_image(p.image.clone()));
            sim
        };
        group.bench_with_input(
            BenchmarkId::new(&workload.name, "decoded"),
            &template,
            |b, template| {
                b.iter(|| {
                    let mut sim = template.clone();
                    sim.run().expect("runs");
                    sim.stats().cycles
                });
            },
        );
        let threaded_template = {
            let mut sim = ThreadedSimulator::try_new(&p.config, p.bundles.clone(), p.entry)
                .expect("toolchain output is always legal");
            sim.set_memory(Memory::from_image(p.image.clone()));
            sim
        };
        group.bench_with_input(
            BenchmarkId::new(&workload.name, "threaded"),
            &threaded_template,
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
                let mut sim = ReferenceSimulator::new(&p.config, p.bundles.clone(), p.entry);
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
