//! Differential oracle for the static cycle-bound analysis.
//!
//! For every benchmark × configuration grid point, three simulation
//! paths — the profiled per-cycle run, an unobserved threaded run of
//! the same [`Simulator`] and the reference engine — run the compiled
//! program to completion and their cycle counts must land inside the
//! static interval — with profile-measured
//! execution counts (tight, input-specific) and with statically derived
//! counts (input-independent, upper possibly open). A tightness gate
//! keeps the measured-count upper bound useful: on average it may
//! overshoot the measured cycles by at most 50%.

use epic_bound::{analyze_cycles, BoundOptions, CostModel, CountSource, CycleBounds};
use epic_config::Config;
use epic_core::experiments::run_epic_workload_observed;
use epic_ir::lower;
use epic_sim::{Memory, ProfileSink, ReferenceSimulator, Simulator};
use epic_workloads::{all, Scale};
use std::collections::BTreeMap;

struct Point {
    name: String,
    alus: usize,
    issue_width: usize,
    per_cycle_cycles: u64,
    reference_cycles: u64,
    threaded_cycles: u64,
    measured: CycleBounds,
    statics: CycleBounds,
}

fn run_grid(alu_counts: &[usize], widths: &[usize]) -> Vec<Point> {
    let mut points = Vec::new();
    for workload in all(Scale::Test) {
        let module = lower::lower(&workload.program).expect("workload lowers");
        let layout = module.layout().expect("workload lays out");
        for &alus in alu_counts {
            for &issue_width in widths {
                let config = Config::builder()
                    .num_alus(alus)
                    .issue_width(issue_width)
                    .build()
                    .expect("valid grid configuration");
                let mut sink = ProfileSink::default();
                let run = run_epic_workload_observed(&workload, &config, &mut sink)
                    .expect("workload runs and verifies");
                let per_cycle_cycles = run.stats().cycles;

                let mut reference = ReferenceSimulator::try_new(
                    &config,
                    run.program.bundles().to_vec(),
                    run.program.entry(),
                )
                .expect("the reference engine accepts legal programs");
                reference.set_memory(Memory::from_image(module.initial_memory(&layout)));
                let reference_cycles = reference.run().expect("reference engine runs").cycles;

                let mut threaded = Simulator::try_new(
                    &config,
                    run.program.bundles().to_vec(),
                    run.program.entry(),
                )
                .expect("decode accepts legal programs");
                threaded.set_memory(Memory::from_image(module.initial_memory(&layout)));
                let threaded_cycles = threaded.run().expect("threaded run").cycles;

                let counts: BTreeMap<u32, u64> =
                    sink.per_pc().map(|(pc, c)| (pc, c.issues)).collect();
                let model = CostModel::new(&config);
                let entry = run.program.entry() as usize;
                let options = BoundOptions::default();
                let measured = analyze_cycles(
                    &config,
                    run.program.bundles(),
                    entry,
                    &CountSource::Measured(&counts),
                    &model,
                    &options,
                );
                let statics = analyze_cycles(
                    &config,
                    run.program.bundles(),
                    entry,
                    &CountSource::Static,
                    &model,
                    &options,
                );
                points.push(Point {
                    name: workload.name.clone(),
                    alus,
                    issue_width,
                    per_cycle_cycles,
                    reference_cycles,
                    threaded_cycles,
                    measured,
                    statics,
                });
            }
        }
    }
    points
}

fn assert_contained(points: &[Point]) {
    for p in points {
        for (engine, cycles) in [
            ("per-cycle", p.per_cycle_cycles),
            ("reference", p.reference_cycles),
            ("threaded", p.threaded_cycles),
        ] {
            assert!(
                p.measured.contains(cycles),
                "{} alus={} iw={}: {engine} cycles {cycles} outside measured bound [{}, {:?}]",
                p.name,
                p.alus,
                p.issue_width,
                p.measured.lower,
                p.measured.upper,
            );
            assert!(
                p.statics.contains(cycles),
                "{} alus={} iw={}: {engine} cycles {cycles} outside static bound [{}, {:?}]",
                p.name,
                p.alus,
                p.issue_width,
                p.statics.lower,
                p.statics.upper,
            );
        }
    }
}

#[test]
fn both_engines_land_inside_the_bounds_across_the_grid() {
    // The full 4 × 4 grid per benchmark: 64 points, three paths each.
    let points = run_grid(&[1, 2, 3, 4], &[1, 2, 3, 4]);
    assert_eq!(points.len(), 64);
    assert_contained(&points);

    // With measured counts the upper bound must also be *tight*: at most
    // 50% above the observed cycles on average over the grid.
    let mut ratio_sum = 0.0f64;
    for p in &points {
        let upper = p
            .measured
            .upper
            .expect("measured counts always close the interval");
        ratio_sum += upper as f64 / p.per_cycle_cycles as f64;
    }
    let mean = ratio_sum / points.len() as f64;
    assert!(
        mean <= 1.5,
        "measured-count upper bound too loose: mean upper/actual = {mean:.3}"
    );
}

#[test]
fn the_engines_agree_with_each_other() {
    // Not a bound property, but the oracle depends on the engines
    // seeing the same machine: any divergence invalidates containment
    // as a cross-check.
    for p in run_grid(&[1, 4], &[2]) {
        assert_eq!(
            p.per_cycle_cycles, p.reference_cycles,
            "{} alus={} iw={}: engines disagree",
            p.name, p.alus, p.issue_width
        );
        assert_eq!(
            p.per_cycle_cycles, p.threaded_cycles,
            "{} alus={} iw={}: the threaded run disagrees",
            p.name, p.alus, p.issue_width
        );
    }
}
