//! Differential oracle: cross-validates the static verifier against the
//! cycle-level simulator on every compiled workload.
//!
//! The soundness contract under test (see the crate docs):
//!
//! 1. Compiled output carries **no error diagnostics**, and error-free
//!    programs take **zero register-file port stalls**.
//! 2. If the report also has no `VER011` (divider shadow) warnings, the
//!    run takes **zero unit-busy stalls**.
//! 3. If the report also has no `VER004` (latency hazard) warnings, the
//!    run takes **zero data-hazard stalls**.

use epic_core::config::Config;
use epic_core::ir::lower;
use epic_core::workloads::{self, Scale};
use epic_core::Toolchain;

fn config(alus: usize, issue_width: usize) -> Config {
    Config::builder()
        .num_alus(alus)
        .issue_width(issue_width)
        .build()
        .expect("valid configuration")
}

/// Compiles, verifies and simulates one workload, then checks every tier
/// of the verifier's soundness contract against the observed stalls.
fn cross_validate(workload: &workloads::Workload, config: &Config) {
    let module = lower::lower(&workload.program).expect("lowering succeeds");
    let run = Toolchain::new(config.clone())
        .run_module(&module, &workload.entry, &[], &workload.inline_hints())
        .expect("toolchain run succeeds");

    let report = epic_verify::check(&run.program, config);
    let errors = epic_verify::check_errors(&run.program, config);
    assert!(
        errors.diagnostics().iter().eq(report
            .diagnostics()
            .iter()
            .filter(|d| d.severity == epic_verify::Severity::Error)),
        "the error pass must return exactly check's errors"
    );
    let stats = run.stats();
    let label = format!(
        "{} @ {} ALUs, issue width {}",
        workload.name,
        config.num_alus(),
        config.issue_width()
    );

    assert!(
        !report.has_errors(),
        "{label}: compiled output must verify cleanly:\n{}",
        report.render(&workload.name, None)
    );
    assert_eq!(
        stats.stalls.regfile_port, 0,
        "{label}: error-free programs take no port stalls"
    );
    if !report.has_code("VER011") {
        assert_eq!(
            stats.stalls.unit_busy, 0,
            "{label}: no divider-shadow warning but the simulator stalled on a busy unit"
        );
    }
    if !report.has_code("VER004") {
        assert_eq!(
            stats.stalls.data_hazard, 0,
            "{label}: no latency-hazard warning but the simulator stalled on an operand"
        );
    }
}

#[test]
fn all_workloads_verify_and_match_the_simulator() {
    for workload in workloads::all(Scale::Test) {
        for alus in 1..=4 {
            for issue_width in 1..=4 {
                cross_validate(&workload, &config(alus, issue_width));
            }
        }
    }
}

/// Stall events attribute every counted stall to a bundle address,
/// with totals agreeing with the aggregate breakdown.
#[test]
fn stall_log_attributes_stalls_to_bundles() {
    use epic_core::sim::{Simulator, StallCause, TraceSink};

    /// Records each stall event as `(pc, cause)`.
    #[derive(Default)]
    struct StallLog(Vec<(u32, StallCause)>);

    impl TraceSink for StallLog {
        fn stall(&mut self, _cycle: u64, pc: u32, cause: StallCause) {
            self.0.push((pc, cause));
        }
    }

    let config = Config::default();
    // Nine register-file reads/writes in one bundle exceed the default
    // budget of eight, so issue pays exactly one port stall there.
    let source = "\
    ADD r1, r2, r3\n    ADD r4, r5, r6\n    ADD r7, r8, r9\n;;\n    HALT\n;;\n";
    let program = epic_core::asm::assemble(source, &config).expect("assembles");
    let mut sim = Simulator::try_new(&config, program.shared_bundles(), program.entry())
        .expect("assembler output is always legal");
    let mut log = StallLog::default();
    sim.run_with_sink(&mut log).expect("runs to HALT");

    let stats = *sim.stats();
    assert_eq!(stats.stalls.regfile_port, 1);
    let port_events: Vec<_> = (log.0.iter())
        .filter(|&&(_, cause)| cause == StallCause::RegfilePort)
        .collect();
    assert_eq!(port_events.len(), 1, "one event per counted port stall");
    assert_eq!(port_events[0].0, 0, "the wide bundle is at address 0");
    assert_eq!(
        log.0.len() as u64,
        stats.stalls.total(),
        "the log records every counted stall cycle"
    );

    // The verifier statically predicts the same violation.
    let report = epic_verify::check(&program, &config);
    assert!(report.has_code("VER003"));
}
