//! Differential reconciliation: the metrics registry must agree with
//! the engine's own [`SimStats`] field for field, on **all three**
//! execution engines, for every workload across the full ALU ×
//! issue-width grid — and the engines must emit bit-identical
//! trace-event streams. The threaded-code engine participates because
//! an observing sink forces it off its fast paths: observed, it must
//! deliver the exact per-cycle event sequence the decoded engine does.
//!
//! This is the contract that makes `epic-prof` trustworthy: every
//! number it prints is derived from the event stream, and this test
//! proves the event stream carries exactly the same information as the
//! counters the simulator maintains for itself.

use epic_core::compiler::{Compiler, Options};
use epic_core::config::Config;
use epic_core::workloads::{self, Scale};
use epic_obs::{MetricsRegistry, RecordingSink, TeeSink};
use epic_sim::{Memory, ReferenceSimulator, Simulator, ThreadedSimulator};

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

                // Decoded engine.
                let mut decoded =
                    Simulator::try_new(&config, program.bundles().to_vec(), program.entry())
                        .unwrap_or_else(|e| panic!("{point}: decode: {e}"));
                decoded.set_memory(Memory::from_image(image.clone()));
                let mut decoded_sink =
                    TeeSink(MetricsRegistry::default(), RecordingSink::default());
                decoded
                    .run_with_sink(&mut decoded_sink)
                    .unwrap_or_else(|e| panic!("{point}: decoded run: {e}"));
                let TeeSink(mut decoded_metrics, decoded_events) = decoded_sink;
                decoded_metrics.finish();
                decoded_metrics
                    .reconcile(decoded.stats())
                    .unwrap_or_else(|e| panic!("{point}: decoded engine does not reconcile:\n{e}"));

                // Threaded-code engine: the observing sink forces the
                // per-cycle fallback, which must reconcile and match the
                // decoded event stream exactly.
                let mut threaded = ThreadedSimulator::try_new(
                    &config,
                    program.bundles().to_vec(),
                    program.entry(),
                )
                .unwrap_or_else(|e| panic!("{point}: threaded translation: {e}"));
                threaded.set_memory(Memory::from_image(image.clone()));
                let mut threaded_sink =
                    TeeSink(MetricsRegistry::default(), RecordingSink::default());
                threaded
                    .run_with_sink(&mut threaded_sink)
                    .unwrap_or_else(|e| panic!("{point}: threaded run: {e}"));
                let TeeSink(mut threaded_metrics, threaded_events) = threaded_sink;
                threaded_metrics.finish();
                threaded_metrics
                    .reconcile(threaded.stats())
                    .unwrap_or_else(|e| {
                        panic!("{point}: threaded engine does not reconcile:\n{e}")
                    });
                assert_eq!(
                    threaded.fast_block_execs() + threaded.chained_execs(),
                    0,
                    "{point}: threaded engine took a fast path under an observing sink"
                );

                // Frozen reference engine.
                let mut reference =
                    ReferenceSimulator::new(&config, program.bundles().to_vec(), program.entry());
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

                // The engines agree with each other, event for event.
                assert_eq!(
                    decoded.stats(),
                    reference.stats(),
                    "{point}: engines disagree on statistics"
                );
                assert_eq!(
                    decoded.stats(),
                    threaded.stats(),
                    "{point}: threaded engine disagrees on statistics"
                );
                let threaded_events = threaded_events.into_events();
                let (decoded_events, reference_events) =
                    (decoded_events.into_events(), reference_events.into_events());
                assert_eq!(
                    decoded_events, threaded_events,
                    "{point}: threaded engine event stream diverged from decoded"
                );
                assert_eq!(
                    decoded_events.len(),
                    reference_events.len(),
                    "{point}: engines emitted different event counts"
                );
                if let Some(position) = decoded_events
                    .iter()
                    .zip(&reference_events)
                    .position(|(a, b)| a != b)
                {
                    panic!(
                        "{point}: event streams diverge at event {position}:\n  \
                         decoded:   {:?}\n  reference: {:?}",
                        decoded_events[position], reference_events[position]
                    );
                }
            }
        }
    }
}
