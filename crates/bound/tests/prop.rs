//! Property tests for the cycle-bound analysis.
//!
//! * **Containment** — for random small programs (straight-line and
//!   counted-loop shapes) on random configurations, the profiled
//!   per-cycle run's cycle count lands inside both the static and the
//!   measured interval.
//! * **Monotonicity** — relaxing a loop-bound assumption can only grow
//!   the upper bound, and measured bounds are never looser than the
//!   cycle identity allows.

use epic_bound::{analyze_cycles, BoundOptions, CostModel, CountSource, CycleBounds};
use epic_config::Config;
use epic_sim::{Memory, ProfileSink, Simulator};
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::fmt::Write as _;

const MEM_BYTES: u32 = 64;

fn config_strategy() -> impl Strategy<Value = Config> {
    (
        1usize..=4,
        1usize..=4,
        1u32..=4,
        prop::bool::ANY,
        2usize..=4,
        prop::sample::select(vec![2usize, 4, 8]),
    )
        .prop_map(|(alus, iw, load_latency, fwd, stages, ports)| {
            Config::builder()
                .num_alus(alus)
                .issue_width(iw)
                .load_latency(load_latency)
                .forwarding(fwd)
                .pipeline_stages(stages)
                .regfile_ops_per_cycle(ports)
                .build()
                .expect("valid generated configuration")
        })
}

/// One random body instruction as assembly text. Registers r1 and r9 are
/// reserved (loop counter / link); bodies write r2–r8.
fn body_instr() -> impl Strategy<Value = String> {
    prop_oneof![
        // Three-address ALU over low registers and short literals.
        (
            prop::sample::select(vec!["ADD", "SUB", "AND", "XOR", "SHL", "MIN"]),
            2u16..=8,
            2u16..=8,
            -50i64..50,
        )
            .prop_map(|(op, d, s, lit)| format!("{op} r{d}, r{s}, #{lit}")),
        // Multiply / divide exercise latency and occupancy windows.
        (
            prop::sample::select(vec!["MULL", "DIV"]),
            2u16..=8,
            2u16..=8,
            1i64..9,
        )
            .prop_map(|(op, d, s, lit)| format!("{op} r{d}, r{s}, #{lit}")),
        // Aligned in-bounds loads stress the latency and memory paths.
        ((2u16..=8), (0u32..MEM_BYTES / 4))
            .prop_map(|(d, word)| format!("LW r{d}, r0, #{}", word * 4)),
    ]
}

/// A whole random program: optionally a counted loop around the body.
fn program_strategy() -> impl Strategy<Value = String> {
    (
        prop::collection::vec(body_instr(), 1..8),
        prop::option::of((0u32..20, 1u32..30, 1u32..4)),
    )
        .prop_map(|(body, loop_shape)| {
            let mut source = String::new();
            match loop_shape {
                None => {
                    for instr in &body {
                        let _ = writeln!(source, "{instr}\n;;");
                    }
                }
                Some((start, limit, step)) => {
                    let _ = writeln!(source, "MOVE r1, #{start}\n;;\nPBR b1, @loop\n;;\nloop:");
                    for instr in &body {
                        let _ = writeln!(source, "{instr}\n;;");
                    }
                    let _ = writeln!(source, "ADD r1, r1, #{step}\n;;");
                    let _ = writeln!(source, "CMP_LT p1, p0, r1, #{limit}\n;;");
                    let _ = writeln!(source, "BRCT b1 (p1)\n;;");
                }
            }
            source.push_str("HALT\n;;\n");
            source
        })
}

struct Run {
    cycles: u64,
    counts: BTreeMap<u32, u64>,
    bundles: Vec<Vec<epic_isa::Instruction>>,
    entry: usize,
}

fn simulate(source: &str, config: &Config) -> Run {
    let program = epic_asm::assemble(source, config).expect("generated program assembles");
    let mut sim = Simulator::try_new(config, program.bundles().to_vec(), program.entry())
        .expect("legal program");
    sim.set_memory(Memory::new(MEM_BYTES));
    let mut sink = ProfileSink::default();
    let stats = *sim
        .run_with_sink(&mut sink)
        .expect("generated program runs to completion");
    Run {
        cycles: stats.cycles,
        counts: sink.per_pc().map(|(pc, c)| (pc, c.issues)).collect(),
        bundles: program.bundles().to_vec(),
        entry: program.entry() as usize,
    }
}

fn bounds(
    run: &Run,
    config: &Config,
    counts: &CountSource<'_>,
    options: &BoundOptions,
) -> CycleBounds {
    let model = CostModel::new(config);
    analyze_cycles(config, &run.bundles, run.entry, counts, &model, options)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 96, ..ProptestConfig::default() })]

    #[test]
    fn static_and_measured_intervals_contain_the_simulation(
        source in program_strategy(),
        config in config_strategy(),
    ) {
        let run = simulate(&source, &config);
        let options = BoundOptions::default();

        let statics = bounds(&run, &config, &CountSource::Static, &options);
        prop_assert!(
            statics.contains(run.cycles),
            "static bound [{}, {:?}] misses {} cycles for:\n{source}",
            statics.lower, statics.upper, run.cycles
        );

        let measured = bounds(&run, &config, &CountSource::Measured(&run.counts), &options);
        prop_assert!(
            measured.contains(run.cycles),
            "measured bound [{}, {:?}] misses {} cycles for:\n{source}",
            measured.lower, measured.upper, run.cycles
        );
        // Measured counts close the interval and never widen the static
        // lower end.
        prop_assert!(measured.upper.is_some());
        prop_assert!(measured.lower >= statics.lower);
    }

    #[test]
    fn relaxing_a_loop_bound_assumption_is_monotone(
        source in program_strategy(),
        config in config_strategy(),
        t1 in 1u64..50,
        extra in 0u64..50,
    ) {
        let run = simulate(&source, &config);
        let tight = bounds(
            &run, &config, &CountSource::Static,
            &BoundOptions { assume_trips: Some(t1) },
        );
        let relaxed = bounds(
            &run, &config, &CountSource::Static,
            &BoundOptions { assume_trips: Some(t1 + extra) },
        );
        prop_assert!(relaxed.lower <= tight.lower || relaxed.lower == tight.lower,
            "lower bound must not grow under relaxation");
        match (tight.upper, relaxed.upper) {
            (Some(t), Some(r)) => prop_assert!(
                t <= r,
                "assume_trips {} gave upper {t}, relaxing to {} shrank it to {r} for:\n{source}",
                t1, t1 + extra
            ),
            (None, Some(_)) => prop_assert!(false, "relaxation must not close an open bound"),
            _ => {}
        }
    }
}
