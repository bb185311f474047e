//! Seeded violations: each class of schedule bug the verifier exists to
//! catch, flagged with its own diagnostic code and cross-checked against
//! the simulator (the machine either rejects the program outright or
//! pays observable stall cycles for it).

use epic_core::config::Config;
use epic_core::sim::Simulator;
use epic_isa::{Gpr, Instruction, Opcode, Operand};

fn assemble(source: &str, config: &Config) -> epic_core::asm::Program {
    epic_core::asm::assemble(source, config).expect("seed source assembles")
}

/// `epic_verify::check_program`, asserting that the error pass alone
/// returns exactly its error diagnostics, in order.
fn check(bundles: &[Vec<Instruction>], entry: u32, config: &Config) -> epic_verify::Report {
    let report = epic_verify::check_program(bundles, entry, config);
    let errors = epic_verify::Verifier::new(config).check_errors(bundles, entry);
    let expected: Vec<_> = report
        .diagnostics()
        .iter()
        .filter(|d| d.severity == epic_verify::Severity::Error)
        .collect();
    assert_eq!(errors.diagnostics().iter().collect::<Vec<_>>(), expected);
    report
}

/// Port budget (VER003): nine register-file operations against the
/// default budget of eight. The simulator serialises the excess over an
/// extra controller cycle.
#[test]
fn seeded_port_budget_violation() {
    let config = Config::default();
    let source = "\
    ADD r1, r2, r3\n    ADD r4, r5, r6\n    ADD r7, r8, r9\n;;\n    HALT\n;;\n";
    let program = assemble(source, &config);

    let report = check(program.bundles(), program.entry(), &config);
    assert!(report.has_code("VER003"), "{}", report.render("seed", None));
    assert!(report.has_errors());

    let mut sim = Simulator::try_new(&config, program.bundles().to_vec(), program.entry())
        .expect("legal program");
    sim.run().expect("runs");
    assert!(
        sim.stats().stalls.regfile_port > 0,
        "the hardware pays for it"
    );
}

/// Unit overcommit (VER002): two loads against the single LSU. The
/// assembler refuses such bundles, so they are built raw — and the
/// simulator refuses them too.
#[test]
fn seeded_unit_overcommit() {
    let config = Config::default();
    let bundles = vec![
        vec![
            Instruction::load(Opcode::Lw, Gpr(1), Operand::Gpr(Gpr(2)), Operand::Lit(0)),
            Instruction::load(Opcode::Lw, Gpr(3), Operand::Gpr(Gpr(4)), Operand::Lit(4)),
        ],
        vec![Instruction::halt()],
    ];

    let report = check(&bundles, 0, &config);
    assert!(report.has_code("VER002"), "{}", report.render("seed", None));
    assert!(report.has_errors());

    let result = Simulator::try_new(&config, bundles.clone(), 0);
    assert!(
        matches!(
            result,
            Err(epic_core::sim::SimError::IllegalBundle { pc: 0, .. })
        ),
        "the simulator rejects the bundle as well"
    );
}

/// Latency hazard (VER004): a multiply's consumer scheduled before the
/// result is ready. The interlock covers it with data-hazard stalls, so
/// this is a warning, not an error.
#[test]
fn seeded_latency_hazard() {
    // The default multiplier is single-cycle; a 4-cycle one leaves a
    // window the back-to-back consumer falls into.
    let config = Config::builder().mul_latency(4).build().expect("valid");
    let source = "\
    MULL r1, r2, r3\n;;\n    ADD r4, r1, r1\n;;\n    HALT\n;;\n";
    let program = assemble(source, &config);

    let report = check(program.bundles(), program.entry(), &config);
    assert!(report.has_code("VER004"), "{}", report.render("seed", None));
    assert!(!report.has_errors(), "interlocked hazards warn, not error");

    let mut sim = Simulator::try_new(&config, program.bundles().to_vec(), program.entry())
        .expect("legal program");
    sim.run().expect("runs");
    assert!(
        sim.stats().stalls.data_hazard > 0,
        "the interlock pays stalls"
    );
}

/// Unprepared BTR (VER005): a branch through a target register no `PBR`
/// on any path has written. The machine would redirect fetch to whatever
/// the register holds — an error, not a stall.
#[test]
fn seeded_unprepared_btr() {
    let config = Config::default();
    let source = "\
    ADD r1, r1, #1\n;;\nloop:\n    BR b1\n;;\n    HALT\n;;\n";
    let program = assemble(source, &config);

    let report = check(program.bundles(), program.entry(), &config);
    assert!(report.has_code("VER005"), "{}", report.render("seed", None));
    assert!(report.has_errors());
}

/// Encodability (VER008): a literal outside the instruction format's
/// short-literal field. The assembler rejects it at parse time; raw
/// bundles reach the verifier's own check.
#[test]
fn seeded_unencodable_literal() {
    let config = Config::default();
    let (_, max) = config.instruction_format().short_literal_range();
    let bundles = vec![
        vec![Instruction::alu3(
            Opcode::Add,
            Gpr(1),
            Operand::Gpr(Gpr(2)),
            Operand::Lit(max + 1),
        )],
        vec![Instruction::halt()],
    ];

    let report = check(&bundles, 0, &config);
    assert!(report.has_code("VER008"), "{}", report.render("seed", None));
    assert!(report.has_errors());

    // The assembler agrees that the literal does not fit.
    let source = format!("    ADD r1, r2, #{}\n;;\n    HALT\n;;\n", max + 1);
    assert!(epic_core::asm::assemble(&source, &config).is_err());
}

/// The five seeded classes carry five distinct diagnostic codes, so lint
/// output distinguishes them without reading the messages.
#[test]
fn seeded_classes_have_distinct_codes() {
    let codes = ["VER003", "VER002", "VER004", "VER005", "VER008"];
    let unique: std::collections::BTreeSet<_> = codes.iter().collect();
    assert_eq!(unique.len(), codes.len());
}
