//! Differential reconciliation: the metrics registry must agree with
//! the engine's own [`SimStats`] field for field, on **three**
//! execution paths — [`Simulator`] stepped to halt, [`Simulator`] run
//! under the sink, and the reference engine — for every workload across
//! the full ALU × issue-width grid, and the paths must emit
//! bit-identical trace-event streams. An observing sink keeps
//! `Simulator::run_with_sink` off its threaded loop: observed, a run
//! must deliver the exact per-cycle event sequence stepping does.
//!
//! This is the contract that makes `epic-prof` trustworthy: every
//! number it prints is derived from the event stream, and this test
//! proves the event stream carries exactly the same information as the
//! counters the simulator maintains for itself.

use epic_core::compiler::{Compiler, Options};
use epic_core::config::Config;
use epic_core::workloads::{self, Scale};
use epic_obs::{MetricsRegistry, RecordingSink, TeeSink};
use epic_sim::{Memory, ReferenceSimulator, Simulator};

#[test]
fn metrics_reconcile_on_all_engines_across_the_grid() {
    for workload in workloads::all(Scale::Test) {
        let module = epic_core::ir::lower::lower(&workload.program).expect("workloads lower");
        let layout = module.layout().expect("layout");
        for alus in 1..=4usize {
            for width in 1..=4usize {
                let config = Config::builder()
                    .num_alus(alus)
                    .issue_width(width)
                    .build()
                    .expect("valid grid configuration");
                let point = format!("{} at {alus} ALU / {width}-wide", workload.name);
                let options = Options {
                    entry: workload.entry.clone(),
                    inline_hints: workload.inline_hints(),
                    verify: true, // keeps the driver's assembled program
                    ..Options::default()
                };
                let compiled = Compiler::new(config.clone())
                    .compile_with(&module, &options)
                    .unwrap_or_else(|e| panic!("{point}: compile: {e}"));
                let program = compiled
                    .program()
                    .unwrap_or_else(|| panic!("{point}: verifying compile kept no program"));
                let image = module.initial_memory(&layout);

                // `Simulator` stepped to halt, each cycle observed.
                let mut stepped =
                    Simulator::try_new(&config, program.bundles().to_vec(), program.entry())
                        .unwrap_or_else(|e| panic!("{point}: decode: {e}"));
                stepped.set_memory(Memory::from_image(image.clone()));
                let mut observed = stepped.clone();
                let mut stepped_sink =
                    TeeSink(MetricsRegistry::default(), RecordingSink::default());
                while stepped
                    .step_with_sink(&mut stepped_sink)
                    .unwrap_or_else(|e| panic!("{point}: stepped run: {e}"))
                {}
                let TeeSink(mut stepped_metrics, stepped_events) = stepped_sink;
                stepped_metrics.finish();
                stepped_metrics
                    .reconcile(stepped.stats())
                    .unwrap_or_else(|e| panic!("{point}: stepped run does not reconcile:\n{e}"));

                // `Simulator::run_with_sink`: the observing sink keeps
                // the per-cycle loop, which must reconcile and match the
                // stepped event stream exactly, without translating.
                let mut observed_sink =
                    TeeSink(MetricsRegistry::default(), RecordingSink::default());
                observed
                    .run_with_sink(&mut observed_sink)
                    .unwrap_or_else(|e| panic!("{point}: observed run: {e}"));
                let TeeSink(mut observed_metrics, observed_events) = observed_sink;
                observed_metrics.finish();
                observed_metrics
                    .reconcile(observed.stats())
                    .unwrap_or_else(|e| panic!("{point}: observed run does not reconcile:\n{e}"));
                assert_eq!(
                    observed.translated_blocks() as u64
                        + observed.fast_block_execs()
                        + observed.chained_execs(),
                    0,
                    "{point}: an observed run translated or took a fast path"
                );

                // Frozen reference engine.
                let mut reference = ReferenceSimulator::try_new(
                    &config,
                    program.bundles().to_vec(),
                    program.entry(),
                )
                .unwrap_or_else(|e| panic!("{point}: decode: {e}"));
                reference.set_memory(Memory::from_image(image));
                let mut reference_sink =
                    TeeSink(MetricsRegistry::default(), RecordingSink::default());
                reference
                    .run_with_sink(&mut reference_sink)
                    .unwrap_or_else(|e| panic!("{point}: reference run: {e}"));
                let TeeSink(mut reference_metrics, reference_events) = reference_sink;
                reference_metrics.finish();
                reference_metrics
                    .reconcile(reference.stats())
                    .unwrap_or_else(|e| {
                        panic!("{point}: reference engine does not reconcile:\n{e}")
                    });

                // The three paths agree with each other, event for event.
                assert_eq!(
                    stepped.stats(),
                    reference.stats(),
                    "{point}: engines disagree on statistics"
                );
                assert_eq!(
                    stepped.stats(),
                    observed.stats(),
                    "{point}: the observed run disagrees on statistics"
                );
                let observed_events = observed_events.into_events();
                let (stepped_events, reference_events) =
                    (stepped_events.into_events(), reference_events.into_events());
                assert_eq!(
                    stepped_events, observed_events,
                    "{point}: the observed run's event stream diverged from stepping"
                );
                assert_eq!(
                    stepped_events.len(),
                    reference_events.len(),
                    "{point}: engines emitted different event counts"
                );
                if let Some(position) = stepped_events
                    .iter()
                    .zip(&reference_events)
                    .position(|(a, b)| a != b)
                {
                    panic!(
                        "{point}: event streams diverge at event {position}:\n  \
                         stepped:   {:?}\n  reference: {:?}",
                        stepped_events[position], reference_events[position]
                    );
                }
            }
        }
    }
}
