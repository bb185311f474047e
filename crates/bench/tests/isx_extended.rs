//! End-to-end legality of discovered custom instructions: for sha and
//! aes, extend the configuration with the miner's top candidates and
//! prove the whole toolchain still closes — the extended config header
//! round-trips, the compiled program's text round-trips through the
//! disassembler, and both simulation engines agree bit-for-bit
//! (cycles, return value, final memory) over the full ALUs 1–4 ×
//! issue-width 1–4 grid. Every run also passes `epic-verify` and the
//! pass-by-pass translation validator (TV013 included): every compile
//! runs both.
//!
//! 2 workloads × 16 grid points × 2 engines — minutes of work, so the
//! test is `#[ignore]`d; CI runs it with `--release -- --ignored`.

use epic_core::config::{Config, CustomOp, CustomSemantics};
use epic_core::experiments::{run_epic_workload_observed, run_epic_workload_with_engine};
use epic_core::sim::Engine;
use epic_core::workloads::{self, Scale};
use std::collections::BTreeMap;

/// Extends the default configuration with the top `k` mined candidates
/// for a workload, exactly as `repro -- isx` names them.
fn extended_config(workload: &epic_core::workloads::Workload, k: usize) -> Config {
    let base = Config::default();
    let mut sink = epic_obs::ProfileSink::default();
    let run = run_epic_workload_observed(workload, &base, &mut sink).expect("baseline runs");
    let weights: BTreeMap<u32, u64> = sink.per_pc().map(|(pc, p)| (pc, p.issues)).collect();
    let found = epic_isx::mine(&base, run.program.bundles(), run.program.entry(), &weights);
    let ranked = epic_isx::ScoreModel::new(&base).rank(found);
    assert!(
        ranked.len() >= k,
        "{}: expected at least {k} candidates, found {}",
        workload.name,
        ranked.len()
    );
    let mut builder = Config::builder();
    for (i, scored) in ranked.iter().take(k).enumerate() {
        builder = builder.custom_op(
            CustomOp::new(
                format!("isx_{}_{i}", workload.name),
                CustomSemantics::Fused(scored.discovery.tree.clone()),
            )
            .with_latency(scored.latency),
        );
    }
    builder.build().expect("extended config is legal")
}

#[test]
#[ignore = "full grid x both engines; run in release via CI"]
fn discovered_ops_survive_the_full_grid_on_every_engine() {
    for workload in workloads::all(Scale::Test)
        .into_iter()
        .filter(|w| w.name == "sha" || w.name == "aes")
    {
        let extended = extended_config(&workload, 2);

        // The auto-generated ops must survive the config header
        // round-trip: emit and re-parse, then compare the op specs.
        let reparsed =
            epic_core::config::header::parse(&epic_core::config::header::emit(&extended))
                .expect("emitted header parses");
        let specs = |c: &Config| -> Vec<String> {
            c.custom_ops()
                .iter()
                .map(|op| {
                    format!(
                        "{} {} latency={}",
                        op.name(),
                        op.semantics().spec(),
                        op.latency()
                    )
                })
                .collect()
        };
        assert_eq!(
            specs(&extended),
            specs(&reparsed),
            "{}: custom ops changed across the header round-trip",
            workload.name
        );

        for alus in 1..=4usize {
            for width in 1..=4usize {
                let mut builder = Config::builder().num_alus(alus).issue_width(width);
                for op in extended.custom_ops() {
                    builder = builder.custom_op(op.clone());
                }
                let config = builder.build().expect("grid config is legal");
                let mut outcomes = Vec::new();
                for engine in Engine::all() {
                    // Every compile verifies: this run passes epic-verify
                    // and the TV chain (TV013 included) or errors out.
                    let run = run_epic_workload_with_engine(&workload, &config, engine)
                        .unwrap_or_else(|e| {
                            panic!(
                                "{} at {alus} ALU / {width}-wide on {engine:?}: {e}",
                                workload.name
                            )
                        });
                    if engine == Engine::Threaded {
                        // Text round-trip: the disassembly of the
                        // scheduled program (custom mnemonics included)
                        // must re-assemble to identical bundles.
                        let text = epic_core::asm::disassemble_program(&run.program, &config);
                        let again = epic_core::asm::assemble(&text, &config)
                            .expect("disassembly re-assembles");
                        assert_eq!(
                            run.program.bundles(),
                            again.bundles(),
                            "{}: disassembly round-trip diverged at {alus} ALU / {width}-wide",
                            workload.name
                        );
                    }
                    outcomes.push((
                        engine,
                        run.stats().cycles,
                        run.outcome.return_value,
                        run.outcome.memory.bytes().to_vec(),
                    ));
                }
                let (_, cycles, ret, ref memory) = outcomes[0];
                for (engine, c, r, m) in &outcomes[1..] {
                    assert_eq!(
                        (cycles, ret, memory),
                        (*c, *r, m),
                        "{}: {engine:?} diverged from {:?} at {alus} ALU / {width}-wide",
                        workload.name,
                        outcomes[0].0
                    );
                }
            }
        }
    }
}
