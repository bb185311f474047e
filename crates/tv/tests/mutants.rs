//! Seeded-miscompile corpus: every mutant below injects one bug into a
//! compiler stage through the driver's [`Mutation`] seam
//! ([`Compiler::compile_mutated`]), then demands both halves of the
//! translation-validation claim:
//!
//! 1. **Static catch** — `epic_tv::validate_trace` reports an error
//!    with the expected `TVxxx` code, and
//! 2. **Differential confirmation** — the mutated program is a *real*
//!    miscompile: it fails to assemble, is rejected by `epic-verify`,
//!    faults in the [`ReferenceSimulator`], or produces a different
//!    final state than the honest build.
//!
//! The honest build of every program must validate completely clean
//! (no errors *and* no warnings), which doubles as a false-positive
//! guard on exactly the programs the mutants are derived from.

use epic_compiler::mir::{MBlockId, MDest, MFunction, MInst, MOp, MSrc, MTerm};
use epic_compiler::regalloc::Abi;
use epic_compiler::sched::{BundleMeta, ScheduledBlock};
use epic_compiler::{Compiler, Mutation, Options};
use epic_config::Config;
use epic_ir::ast::{Expr, FunctionDef, Program, Stmt};
use epic_ir::Global;
use epic_isa::Opcode;
use epic_mdes::MachineDescription;
use epic_sim::{Memory, ReferenceSimulator};

const CYCLE_LIMIT: u64 = 2_000_000;

/// Final architectural state of a run.
#[derive(PartialEq)]
struct Run {
    ret: u32,
    memory: Vec<u8>,
}

/// Assembles, lints and executes a program; `Err` means the program was
/// caught before or during execution.
fn execute(asm: &str, module: &epic_ir::Module, config: &Config) -> Result<Run, String> {
    let program = epic_asm::assemble(asm, config).map_err(|e| format!("assemble: {e}"))?;
    let report = epic_verify::check(&program, config);
    if report.has_errors() {
        return Err(format!("verify: {} error(s)", report.error_count()));
    }
    let abi = Abi::new(config).expect("abi");
    let layout = module.layout().expect("layout");
    let mut sim = ReferenceSimulator::try_new(config, program.bundles().to_vec(), program.entry())
        .map_err(|e| format!("load: {e}"))?;
    sim.set_memory(Memory::from_image(module.initial_memory(&layout)));
    sim.set_cycle_limit(CYCLE_LIMIT);
    sim.run().map_err(|e| format!("simulate: {e}"))?;
    Ok(Run {
        ret: sim.gpr(abi.ret as usize),
        memory: sim.memory().bytes().to_vec(),
    })
}

fn options(entry: &str, args: &[u32]) -> Options {
    Options {
        entry: entry.to_owned(),
        entry_args: args.to_vec(),
        ..Options::default()
    }
}

/// The corpus driver: honest build is clean and runs; mutated build is
/// statically flagged with `expected_code` and differentially confirmed.
/// Returns the mutant's report.
fn assert_mutant(
    ast: &Program,
    entry: &str,
    args: &[u32],
    mutation: &Mutation<'_>,
    expected_code: &str,
) -> epic_tv::Report {
    assert_mutant_with(
        ast,
        entry,
        args,
        &Config::default(),
        mutation,
        expected_code,
    )
}

fn assert_mutant_with(
    ast: &Program,
    entry: &str,
    args: &[u32],
    config: &Config,
    mutation: &Mutation<'_>,
    expected_code: &str,
) -> epic_tv::Report {
    let module = epic_ir::lower::lower(ast).expect("program lowers");
    let opts = options(entry, args);
    let compiler = Compiler::new(config.clone());

    // Honest pipeline: zero findings, golden execution.
    let honest = Mutation::default();
    let (asm0, trace0) = compiler
        .compile_mutated(&module, &opts, &honest)
        .expect("honest compile");
    let program0 = epic_asm::assemble(&asm0, config).expect("honest program assembles");
    let report0 = epic_tv::validate_trace(&trace0, &program0, config);
    assert!(
        report0.is_clean(),
        "honest compile must validate clean:\n{}",
        report0.render("honest", None)
    );
    let golden = execute(&asm0, &module, config).expect("honest program runs");

    // Mutated pipeline: the validator must flag it.
    let (asm1, trace1) = compiler
        .compile_mutated(&module, &opts, mutation)
        .expect("mutated compile");
    let assembled = epic_asm::assemble(&asm1, config);
    let report1 = match &assembled {
        Ok(p) => epic_tv::validate_trace(&trace1, p, config),
        // An unassemblable mutant: emission comparison needs *a*
        // program, the honest one keeps the pre-emission checks exact.
        Err(_) => epic_tv::validate_trace(&trace1, &program0, config),
    };
    assert!(
        report1.has_errors(),
        "mutant escaped the validator entirely"
    );
    assert!(
        report1.has_code(expected_code),
        "expected {expected_code}, got:\n{}",
        report1.render("mutant", None)
    );

    // Differential confirmation: a real miscompile or a pre-execution
    // rejection.
    match execute(&asm1, &module, config) {
        Err(_) => {} // caught before or during execution
        Ok(run) => assert!(
            run != golden,
            "mutant executed to the same final state as the honest build — not a miscompile"
        ),
    }
    report1
}

/// Whether `report` holds a TV006 error naming a `kind` dependence.
fn reorders(report: &epic_tv::Report, kind: &str) -> bool {
    report.diagnostics().iter().any(|d| {
        d.code == "TV006"
            && d.severity == epic_asm::Severity::Error
            && d.message.contains(&format!("reorders a {kind} dependence"))
    })
}

// --------------------------------------------------------------------
// MIR mutation helpers
// --------------------------------------------------------------------

fn find_op(f: &MFunction, pred: impl Fn(&MOp) -> bool) -> (usize, usize) {
    for (bi, b) in f.blocks.iter().enumerate() {
        for (ii, inst) in b.insts.iter().enumerate() {
            if let MInst::Op(op) = inst {
                if pred(op) {
                    return (bi, ii);
                }
            }
        }
    }
    panic!("no instruction matches the mutation target");
}

fn find_last_op(f: &MFunction, pred: impl Fn(&MOp) -> bool) -> (usize, usize) {
    let mut found = None;
    for (bi, b) in f.blocks.iter().enumerate() {
        for (ii, inst) in b.insts.iter().enumerate() {
            if let MInst::Op(op) = inst {
                if pred(op) {
                    found = Some((bi, ii));
                }
            }
        }
    }
    found.expect("no instruction matches the mutation target")
}

fn op_mut(f: &mut MFunction, at: (usize, usize)) -> &mut MOp {
    match &mut f.blocks[at.0].insts[at.1] {
        MInst::Op(op) => op,
        MInst::Call { .. } => panic!("target is a call"),
    }
}

// --------------------------------------------------------------------
// Schedule mutation helpers
// --------------------------------------------------------------------

/// Renormalises a mutated schedule: drops emptied bundles and rebuilds
/// the metadata (sequential cycles, recomputed costs) so only the
/// seeded *semantic* defect remains visible.
fn rebuild(blocks: &mut [ScheduledBlock], mdes: &MachineDescription) {
    for sb in blocks.iter_mut() {
        sb.bundles.retain(|b| !b.is_empty());
        sb.meta = sb
            .bundles
            .iter()
            .enumerate()
            .map(|(i, b)| {
                let cost = mdes.bundle_cost(b);
                BundleMeta {
                    cycle: i as u32,
                    port_ops: cost.port_ops,
                    max_latency: cost.max_latency,
                }
            })
            .collect();
    }
}

/// First (block, bundle, slot) whose op satisfies the predicate.
fn find_slot(
    blocks: &[ScheduledBlock],
    pred: impl Fn(&MOp) -> bool,
) -> Option<(usize, usize, usize)> {
    for (b, sb) in blocks.iter().enumerate() {
        for (j, bundle) in sb.bundles.iter().enumerate() {
            for (k, op) in bundle.iter().enumerate() {
                if pred(op) {
                    return Some((b, j, k));
                }
            }
        }
    }
    None
}

// --------------------------------------------------------------------
// Source programs
// --------------------------------------------------------------------

/// A diamond updating `s` on both arms — the if-conversion target.
fn diamond() -> Program {
    Program::new().function(FunctionDef::new("main", ["a"]).body([
        Stmt::let_("s", Expr::lit(100)),
        Stmt::if_else(
            Expr::var("a").lt_s(Expr::lit(10)),
            [Stmt::assign("s", Expr::var("s") + Expr::var("a"))],
            [Stmt::assign("s", Expr::var("s") - Expr::var("a"))],
        ),
        Stmt::ret(Expr::var("s") * Expr::lit(3)),
    ]))
}

/// Enough simultaneously-live values to force spills.
fn spilly() -> Program {
    let n = 40;
    let mut body: Vec<Stmt> = (0..n)
        .map(|i| {
            Stmt::let_(
                format!("t{i}"),
                Expr::var("a") * Expr::lit(i64::from(i) + 1),
            )
        })
        .collect();
    let mut sum = Expr::var("t0");
    for i in 1..n {
        sum = sum + Expr::var(format!("t{i}"));
    }
    body.push(Stmt::ret(sum));
    Program::new().function(FunctionDef::new("main", ["a"]).body(body))
}

/// Spills *and* a diamond, so a guarded definition lands in a slot.
fn spilly_diamond() -> Program {
    let n = 30;
    let mut body: Vec<Stmt> = vec![Stmt::let_("s", Expr::lit(100))];
    // Diamond first, temps after: `s`'s next use is the far-away sum,
    // so under register pressure the allocator spills `s` itself and
    // its guarded (if-converted) definitions become guarded stores.
    body.push(Stmt::if_else(
        Expr::var("a").lt_s(Expr::lit(10)),
        [Stmt::assign("s", Expr::var("s") + Expr::var("a"))],
        [Stmt::assign("s", Expr::var("s") - Expr::var("a"))],
    ));
    body.extend((0..n).map(|i| {
        Stmt::let_(
            format!("t{i}"),
            Expr::var("a") * Expr::lit(i64::from(i) + 1),
        )
    }));
    let mut sum = Expr::var("t0");
    for i in 1..n {
        sum = sum + Expr::var(format!("t{i}"));
    }
    // `s` joins last, so its next use after the diamond is the farthest.
    body.push(Stmt::ret(sum + Expr::var("s")));
    Program::new().function(FunctionDef::new("main", ["a"]).body(body))
}

/// A two-argument callee with an asymmetric body.
fn caller_callee() -> Program {
    Program::new()
        .function(
            FunctionDef::new("f", ["x", "y"]).body([Stmt::ret(Expr::var("x") - Expr::var("y"))]),
        )
        .function(FunctionDef::new("main", ["a"]).body([Stmt::ret(Expr::call(
            "f",
            [Expr::var("a") + Expr::lit(100), Expr::var("a")],
        ))]))
}

/// A register-hungry callee and a caller value live across the call.
fn busy_callee() -> Program {
    let n = 10;
    let mut body: Vec<Stmt> = (0..n)
        .map(|i| {
            Stmt::let_(
                format!("u{i}"),
                Expr::var("x") * Expr::lit(i64::from(i) + 1),
            )
        })
        .collect();
    let mut sum = Expr::var("u0");
    for i in 1..n {
        sum = sum + Expr::var(format!("u{i}"));
    }
    body.push(Stmt::ret(sum));
    Program::new()
        .function(FunctionDef::new("busy", ["x"]).body(body))
        .function(FunctionDef::new("main", ["a"]).body([
            Stmt::let_("k", Expr::var("a") + Expr::lit(7)),
            Stmt::let_("r", Expr::call("busy", [Expr::var("a")])),
            Stmt::ret(Expr::var("r") + Expr::var("k")),
        ]))
}

fn arith() -> Program {
    Program::new().function(
        FunctionDef::new("main", ["a"])
            .body([Stmt::ret((Expr::var("a") + Expr::lit(5)) * Expr::lit(2))]),
    )
}

fn store_load() -> Program {
    Program::new()
        .global(Global::zeroed("g", 4))
        .function(FunctionDef::new("main", ["a"]).body([
            Stmt::store_word(Expr::global("g"), Expr::var("a") + Expr::lit(50)),
            Stmt::let_("y", Expr::global("g").load_word()),
            Stmt::ret(Expr::var("y") * Expr::lit(2)),
        ]))
}

/// Two calls in one block, the second fed by the first.
fn two_calls() -> Program {
    Program::new()
        .function(FunctionDef::new("f", ["x"]).body([Stmt::ret(Expr::var("x") * Expr::lit(3))]))
        .function(FunctionDef::new("main", ["a"]).body([
            Stmt::let_("u", Expr::call("f", [Expr::var("a")])),
            Stmt::let_("v", Expr::call("f", [Expr::var("u") + Expr::lit(1)])),
            Stmt::ret(Expr::var("v")),
        ]))
}

/// A store through one pointer parameter and a load through another.
fn store_load_through_pointers() -> Program {
    Program::new().global(Global::zeroed("g", 4)).function(
        FunctionDef::new("main", ["a", "p", "q"]).body([
            Stmt::store_word(Expr::var("p"), Expr::var("a") + Expr::lit(50)),
            Stmt::let_("y", Expr::var("q").load_word()),
            Stmt::ret(Expr::var("y") * Expr::lit(2)),
        ]),
    )
}

fn two_sided_return() -> Program {
    Program::new().function(FunctionDef::new("main", ["a"]).body([
        Stmt::if_(
            Expr::var("a").lt_s(Expr::lit(10)),
            [Stmt::ret(Expr::var("a") + Expr::lit(40))],
        ),
        Stmt::ret(Expr::var("a") * Expr::lit(2)),
    ]))
}

/// A rotate expressed through shifts: selection expands it into the
/// four-op chain the registered fused custom op collapses.
fn rotate7() -> Program {
    Program::new().function(
        FunctionDef::new("main", ["a"])
            .body([Stmt::ret(Expr::var("a").rotr(Expr::lit(7)) + Expr::lit(1))]),
    )
}

/// A loop, a folded `x + 0` and an if-converted select: after
/// optimisation, blocks open with an unguarded copy of a block live-in
/// (`MOVE v5, v5`, `MOVE v9, v1`) before any other op reads it. Shrunk
/// from a random program the regalloc check once rejected at every
/// (ALUs, issue width) point, although its allocation is correct.
fn live_in_copy() -> Program {
    let x = |i: usize| format!("x{i}");
    let mut body: Vec<Stmt> = [172, 226, -10, -54]
        .into_iter()
        .enumerate()
        .map(|(i, seed)| Stmt::let_(x(i), Expr::lit(seed)))
        .collect();
    body.extend([
        Stmt::for_(
            "i",
            Expr::lit(0),
            Expr::lit(3),
            [Stmt::assign(
                x(3),
                Expr::var(x(3)) + Expr::var(x(1)) + Expr::var("i"),
            )],
        ),
        Stmt::assign(x(3), Expr::var(x(3)) + Expr::lit(0)),
        Stmt::if_else(
            Expr::var(x(2)).lt_s(Expr::lit(0)),
            [Stmt::assign(x(2), Expr::var(x(3)))],
            [Stmt::assign(x(2), Expr::var(x(3)))],
        ),
        Stmt::ret(Expr::var(x(0)) ^ Expr::var(x(1)) ^ Expr::var(x(2)) ^ Expr::var(x(3))),
    ]);
    Program::new().function(FunctionDef::new("main", [] as [&str; 0]).body(body))
}

/// A config registering the rotate chain as a fused custom instruction,
/// exactly as the `epic-isx` driver would extend it.
fn fused_rot_config() -> Config {
    Config::builder()
        .custom_op(
            epic_config::CustomOp::new(
                "isx_rot7",
                epic_config::CustomSemantics::Fused(
                    epic_config::ExprTree::parse("or(shr(a0,7),shl(a0,sub(32,7)))")
                        .expect("probe tree parses"),
                ),
            )
            .with_latency(2),
        )
        .build()
        .expect("valid config")
}

fn abi() -> Abi {
    Abi::new(&Config::default()).expect("abi")
}

/// A 24-GPR machine (the ABI minimum): forces `spilly`-style programs
/// to actually spill, so spill/reload mutants have a target.
fn small_regfile() -> Config {
    Config::builder()
        .num_gprs(24)
        .build()
        .expect("valid config")
}

// --------------------------------------------------------------------
// If-conversion mutants (TV001 / TV002)
// --------------------------------------------------------------------

// --------------------------------------------------------------------
// Custom-instruction fusion mutants (TV013)
// --------------------------------------------------------------------

/// A corrupted rewrite that loses part of the fused computation: the
/// custom op degenerates to its first interior shift, as if the matcher
/// dropped the `shl`/`or` half of the cone.
fn drop_interior_op(f: &mut MFunction) {
    let at = find_op(f, |op| matches!(op.opcode, Opcode::Custom(_)));
    let op = op_mut(f, at);
    op.opcode = Opcode::Shr;
    op.src2 = MSrc::Lit(7);
}

#[test]
fn fuse_dropped_interior_op() {
    let m = Mutation {
        function: "main",
        post_fuse: Some(&drop_interior_op),
        ..Default::default()
    };
    assert_mutant_with(
        &rotate7(),
        "main",
        &[12345],
        &fused_rot_config(),
        &m,
        "TV013",
    );
}

fn drop_last_guard(f: &mut MFunction) {
    let at = find_last_op(f, |op| op.guard != 0);
    op_mut(f, at).guard = 0;
}

#[test]
fn ifconv_dropped_guard() {
    let m = Mutation {
        function: "main",
        post_ifconv: Some(&drop_last_guard),
        ..Default::default()
    };
    assert_mutant(&diamond(), "main", &[3], &m, "TV001");
}

#[test]
fn ifconv_swapped_guard_polarity() {
    let mutate = |f: &mut MFunction| {
        let mut guards: Vec<u32> = Vec::new();
        for b in &f.blocks {
            for inst in &b.insts {
                if let MInst::Op(op) = inst {
                    if op.guard != 0 && !guards.contains(&op.guard) {
                        guards.push(op.guard);
                    }
                }
            }
        }
        assert_eq!(guards.len(), 2, "diamond should use two guards");
        for b in &mut f.blocks {
            for inst in &mut b.insts {
                if let MInst::Op(op) = inst {
                    if op.guard == guards[0] {
                        op.guard = guards[1];
                    } else if op.guard == guards[1] {
                        op.guard = guards[0];
                    }
                }
            }
        }
    };
    let m = Mutation {
        function: "main",
        post_ifconv: Some(&mutate),
        ..Default::default()
    };
    assert_mutant(&diamond(), "main", &[3], &m, "TV001");
}

#[test]
fn ifconv_wrong_guard_pred() {
    // Guard the false arm with the *true* predicate: both arms execute.
    let mutate = |f: &mut MFunction| {
        let first = find_op(f, |op| op.guard != 0);
        let true_guard = match &f.blocks[first.0].insts[first.1] {
            MInst::Op(op) => op.guard,
            MInst::Call { .. } => unreachable!(),
        };
        let at = find_last_op(f, |op| op.guard != 0 && op.guard != true_guard);
        op_mut(f, at).guard = true_guard;
    };
    let m = Mutation {
        function: "main",
        post_ifconv: Some(&mutate),
        ..Default::default()
    };
    assert_mutant(&diamond(), "main", &[3], &m, "TV001");
}

#[test]
fn ifconv_duplicated_op() {
    // Donate the true arm twice: the arm reads and rewrites `s`, so the
    // second copy compounds the update.
    let mutate = |f: &mut MFunction| {
        let at = find_op(f, |op| op.guard != 0);
        let guard = match &f.blocks[at.0].insts[at.1] {
            MInst::Op(op) => op.guard,
            MInst::Call { .. } => unreachable!(),
        };
        let run: Vec<MInst> = f.blocks[at.0].insts[at.1..]
            .iter()
            .take_while(|i| matches!(i, MInst::Op(op) if op.guard == guard))
            .cloned()
            .collect();
        let end = at.1 + run.len();
        f.blocks[at.0].insts.splice(end..end, run);
    };
    let m = Mutation {
        function: "main",
        post_ifconv: Some(&mutate),
        ..Default::default()
    };
    assert_mutant(&diamond(), "main", &[3], &m, "TV002");
}

#[test]
fn ifconv_dropped_op() {
    let mutate = |f: &mut MFunction| {
        let at = find_last_op(f, |op| op.guard != 0);
        f.blocks[at.0].insts.remove(at.1);
    };
    let m = Mutation {
        function: "main",
        post_ifconv: Some(&mutate),
        ..Default::default()
    };
    assert_mutant(&diamond(), "main", &[20], &m, "TV002");
}

#[test]
fn ifconv_swapped_sub_operands() {
    let mutate = |f: &mut MFunction| {
        let at = find_op(f, |op| op.guard != 0 && op.opcode == Opcode::Sub);
        let op = op_mut(f, at);
        std::mem::swap(&mut op.src1, &mut op.src2);
    };
    let m = Mutation {
        function: "main",
        post_ifconv: Some(&mutate),
        ..Default::default()
    };
    assert_mutant(&diamond(), "main", &[20], &m, "TV002");
}

#[test]
fn ifconv_wrong_join_target() {
    // Point the converted block's jump at itself: an infinite loop no
    // conversion pattern explains.
    let mutate = |f: &mut MFunction| {
        for b in &mut f.blocks {
            let has_guarded = b
                .insts
                .iter()
                .any(|i| matches!(i, MInst::Op(op) if op.guard != 0));
            if has_guarded && matches!(b.term, MTerm::Jump(_)) {
                b.term = MTerm::Jump(b.id);
                return;
            }
        }
        panic!("no converted block found");
    };
    let m = Mutation {
        function: "main",
        post_ifconv: Some(&mutate),
        ..Default::default()
    };
    assert_mutant(&diamond(), "main", &[3], &m, "TV002");
}

// --------------------------------------------------------------------
// Register-allocation mutants (TV003 / TV004)
// --------------------------------------------------------------------

/// Redirects the first literal add's destination to a different
/// allocatable register; downstream readers still use the old one.
fn clobber_allocation(f: &mut MFunction) {
    let abi = abi();
    let at = find_op(f, |op| {
        op.opcode == Opcode::Add && matches!(op.src2, MSrc::Lit(_)) && op.gpr_def().is_some()
    });
    let op = op_mut(f, at);
    let MDest::Gpr(d) = op.dest1 else {
        unreachable!()
    };
    let other = abi
        .allocatable
        .iter()
        .copied()
        .find(|&r| r != d)
        .expect("another allocatable register");
    op.dest1 = MDest::Gpr(other);
}

#[test]
fn regalloc_clobbered_allocation() {
    let m = Mutation {
        function: "main",
        post_regalloc: Some(&clobber_allocation),
        ..Default::default()
    };
    assert_mutant(&arith(), "main", &[3], &m, "TV003");
}

#[test]
fn regalloc_wrong_spill_slot() {
    let config = small_regfile();
    let abi = Abi::new(&config).expect("abi");
    let mutate = move |f: &mut MFunction| {
        // Shift the first spill store to a different slot: the matching
        // reload reads a stale value.
        let at = find_op(f, |op| {
            op.opcode == Opcode::Sw
                && op.src1 == MSrc::Gpr(abi.sp)
                && matches!(op.src2, MSrc::Lit(_))
        });
        let op = op_mut(f, at);
        let MSrc::Lit(slot) = op.src2 else {
            unreachable!()
        };
        op.src2 = MSrc::Lit(slot + 256);
    };
    let m = Mutation {
        function: "main",
        post_regalloc: Some(&mutate),
        ..Default::default()
    };
    assert_mutant_with(&spilly(), "main", &[3], &config, &m, "TV003");
}

#[test]
fn regalloc_dropped_reload() {
    let config = small_regfile();
    let abi = Abi::new(&config).expect("abi");
    let mutate = move |f: &mut MFunction| {
        let at = find_op(f, |op| {
            op.opcode == Opcode::Lw && op.src1 == MSrc::Gpr(abi.sp)
        });
        f.blocks[at.0].insts.remove(at.1);
    };
    let m = Mutation {
        function: "main",
        post_regalloc: Some(&mutate),
        ..Default::default()
    };
    assert_mutant_with(&spilly(), "main", &[3], &config, &m, "TV003");
}

#[test]
fn regalloc_swapped_spill_guards() {
    let config = small_regfile();
    let mutate = |f: &mut MFunction| {
        // The two arms' conditional spill stores trade guards: on the
        // false path the join slot keeps the stale pre-diamond value.
        let first = find_op(f, |op| op.opcode == Opcode::Sw && op.guard != 0);
        let last = find_last_op(f, |op| op.opcode == Opcode::Sw && op.guard != 0);
        assert_ne!(first, last, "need two guarded spill stores");
        let g = op_mut(f, first).guard;
        op_mut(f, first).guard = op_mut(f, last).guard;
        op_mut(f, last).guard = g;
    };
    let m = Mutation {
        function: "main",
        post_regalloc: Some(&mutate),
        ..Default::default()
    };
    assert_mutant_with(&spilly_diamond(), "main", &[20], &config, &m, "TV003");
}

#[test]
fn regalloc_swapped_call_args() {
    let abi = abi();
    let mutate = move |f: &mut MFunction| {
        // Swap the destinations of the two argument moves before the
        // call: the callee receives its parameters crossed.
        let a0 = find_op(f, |op| {
            op.opcode == Opcode::Move && op.dest1 == MDest::Gpr(abi.args[0])
        });
        let a1 = find_op(f, |op| {
            op.opcode == Opcode::Move && op.dest1 == MDest::Gpr(abi.args[1])
        });
        op_mut(f, a0).dest1 = MDest::Gpr(abi.args[1]);
        op_mut(f, a1).dest1 = MDest::Gpr(abi.args[0]);
    };
    let m = Mutation {
        function: "main",
        post_regalloc: Some(&mutate),
        ..Default::default()
    };
    assert_mutant(&caller_callee(), "main", &[3], &m, "TV003");
}

#[test]
fn regalloc_deleted_call_save_restore() {
    let abi = abi();
    let mutate = move |f: &mut MFunction| {
        // Delete a save/restore pair around the call: the callee's
        // register pressure clobbers the live value.
        for b in 0..f.blocks.len() {
            let insts = &f.blocks[b].insts;
            let Some(call) = insts
                .iter()
                .position(|i| matches!(i, MInst::Op(op) if op.opcode == Opcode::Brl))
            else {
                continue;
            };
            for i in 0..call {
                let MInst::Op(save) = &insts[i] else { continue };
                // Skip the link-register save: deleting it is a bug in
                // the *return* path, not the live value this test wants.
                if save.opcode != Opcode::Sw
                    || save.src1 != MSrc::Gpr(abi.sp)
                    || save.store_value == Some(abi.link)
                {
                    continue;
                }
                let (slot, saved) = (save.src2.clone(), save.store_value);
                let restore = insts.iter().enumerate().skip(call).find_map(|(j, inst)| {
                    let MInst::Op(op) = inst else { return None };
                    (op.opcode == Opcode::Lw
                        && op.src1 == MSrc::Gpr(abi.sp)
                        && op.src2 == slot
                        && op.gpr_def() == saved)
                        .then_some(j)
                });
                if let Some(j) = restore {
                    f.blocks[b].insts.remove(j);
                    f.blocks[b].insts.remove(i);
                    return;
                }
            }
        }
        panic!("no save/restore pair found");
    };
    let m = Mutation {
        function: "main",
        post_regalloc: Some(&mutate),
        ..Default::default()
    };
    assert_mutant(&busy_callee(), "main", &[3], &m, "TV003");
}

#[test]
fn regalloc_wrong_return_move_source() {
    let abi = abi();
    let mutate = move |f: &mut MFunction| {
        // The result move after the call copies an argument register
        // instead of the return register.
        let mut brl_seen = false;
        for b in &mut f.blocks {
            for inst in &mut b.insts {
                let MInst::Op(op) = inst else { continue };
                if op.opcode == Opcode::Brl {
                    brl_seen = true;
                } else if brl_seen && op.opcode == Opcode::Move && op.src1 == MSrc::Gpr(abi.ret) {
                    op.src1 = MSrc::Gpr(abi.args[0]);
                    return;
                }
            }
        }
        panic!("no return-value move found");
    };
    let m = Mutation {
        function: "main",
        post_regalloc: Some(&mutate),
        ..Default::default()
    };
    assert_mutant(&busy_callee(), "main", &[3], &m, "TV003");
}

#[test]
fn regalloc_wrong_param_source() {
    let abi = abi();
    let mutate = move |f: &mut MFunction| {
        // The callee reads its second parameter where it meant the first.
        let at = find_op(f, |op| op.src1 == MSrc::Gpr(abi.args[0]));
        op_mut(f, at).src1 = MSrc::Gpr(abi.args[1]);
    };
    let m = Mutation {
        function: "f",
        post_regalloc: Some(&mutate),
        ..Default::default()
    };
    assert_mutant(&caller_callee(), "main", &[3], &m, "TV003");
}

/// The block of `f` that opens its body with the allocator's image of a
/// live-in copy (a self-move, what `MOVE v7, v7` became), with that
/// move's index and the register the block's first op defines from a
/// literal: a value no live-in can hold.
fn live_in_copy_site(f: &MFunction) -> (usize, usize, u32) {
    for (bi, b) in f.blocks.iter().enumerate() {
        let Some(MInst::Op(first)) = b.insts.first() else {
            continue;
        };
        let (MDest::Gpr(zero), MSrc::Lit(_)) = (&first.dest1, &first.src1) else {
            continue;
        };
        let copy = b.insts.iter().position(|inst| {
            matches!(inst, MInst::Op(op) if op.opcode == Opcode::Move
                && op.guard == 0
                && matches!((&op.dest1, &op.src1), (MDest::Gpr(d), MSrc::Gpr(s)) if d == s))
        });
        if let Some(copy) = copy {
            return (bi, copy, *zero);
        }
    }
    panic!("no block opens with a live-in copy");
}

#[test]
fn regalloc_live_in_copy_is_clean_across_the_grid() {
    let module = epic_ir::lower::lower(&live_in_copy()).expect("program lowers");
    for alus in 1..=4usize {
        for width in 1..=4usize {
            let config = Config::builder()
                .num_alus(alus)
                .issue_width(width)
                .build()
                .expect("valid config");
            let (asm, trace) = Compiler::new(config.clone())
                .compile_mutated(&module, &options("main", &[]), &Mutation::default())
                .expect("compiles");
            let program = epic_asm::assemble(&asm, &config).expect("assembles");
            let report = epic_tv::validate_trace(&trace, &program, &config);
            assert!(
                report.is_clean(),
                "[alus={alus}, iw={width}]:\n{}",
                report.render("live_in_copy", None)
            );
        }
    }
}

/// Points the first guarded read after the live-in copy of
/// [`live_in_copy`] at register `wrong(block, zero)`, and demands TV003.
fn assert_live_in_read_mutant(wrong: impl Fn(&[MInst], u32) -> u32) {
    let mutate = |f: &mut MFunction| {
        let (b, at, zero) = live_in_copy_site(f);
        let read = (at + 1..f.blocks[b].insts.len())
            .find(|&i| matches!(&f.blocks[b].insts[i], MInst::Op(op) if op.guard != 0))
            .expect("a guarded read after the copy");
        let reg = wrong(&f.blocks[b].insts, zero);
        op_mut(f, (b, read)).src1 = MSrc::Gpr(reg);
    };
    let m = Mutation {
        function: "main",
        post_regalloc: Some(&mutate),
        ..Default::default()
    };
    assert_mutant(&live_in_copy(), "main", &[], &m, "TV003");
}

#[test]
fn regalloc_read_after_live_in_copy_from_a_fresh_value() {
    // The read takes the block's fresh zero instead of the live-in.
    assert_live_in_read_mutant(|_, zero| zero);
}

#[test]
fn regalloc_read_after_live_in_copy_from_another_live_in() {
    // The read takes a register the block never names, so the check
    // locates the live-in there; the other arm's read, from where the
    // copy put it, must then contradict.
    let abi = abi();
    assert_live_in_read_mutant(move |insts, _| {
        let named = |r: u32| {
            insts.iter().any(|inst| {
                let MInst::Op(op) = inst else { return false };
                [&op.src1, &op.src2].contains(&&MSrc::Gpr(r))
                    || [&op.dest1, &op.dest2].contains(&&MDest::Gpr(r))
                    || op.store_value == Some(r)
            })
        };
        abi.allocatable
            .iter()
            .copied()
            .find(|&r| !named(r))
            .expect("a register the block never names")
    });
}

// --------------------------------------------------------------------
// Scheduler mutants (TV005 / TV006 / TV007)
// --------------------------------------------------------------------

#[test]
fn sched_load_hoisted_above_store() {
    let abi = abi();
    let mdes = MachineDescription::new(&Config::default());
    let mutate = move |blocks: &mut [ScheduledBlock]| {
        // Hoist the re-load of the global to the very top of its block,
        // above the store it depends on.
        let (b, j, k) = find_slot(blocks, |op| {
            op.opcode == Opcode::Lw && op.src1 != MSrc::Gpr(abi.sp)
        })
        .expect("global load");
        let op = blocks[b].bundles[j].remove(k);
        blocks[b].bundles.insert(0, vec![op]);
        rebuild(blocks, &mdes);
    };
    let m = Mutation {
        function: "main",
        post_sched: Some(&mutate),
        ..Default::default()
    };
    assert_mutant(&store_load(), "main", &[3], &m, "TV006");
}

#[test]
fn sched_load_through_one_base_hoisted_above_store_through_another() {
    // `store_load_through_pointers`: `SW [p]` then `LW [q]`, with p and
    // q both the global's address. Different base registers may alias,
    // so the memory edge must hold.
    let ast = store_load_through_pointers();
    let module = epic_ir::lower::lower(&ast).expect("program lowers");
    let g = module.layout().expect("layout").address_of("g").expect("g");
    let mdes = MachineDescription::new(&Config::default());
    let mutate = move |blocks: &mut [ScheduledBlock]| {
        // Move the load into a bundle of its own just above the store.
        let (b, j, k) = find_slot(blocks, |op| op.opcode == Opcode::Lw).expect("load");
        let (sb, sj, _) = find_slot(blocks, |op| op.opcode == Opcode::Sw).expect("store");
        assert!(b == sb && sj < j, "the store precedes the load");
        let op = blocks[b].bundles[j].remove(k);
        assert!(
            matches!(op.src1, MSrc::Gpr(_)),
            "the load goes through a register"
        );
        blocks[b].bundles.insert(sj, vec![op]);
        rebuild(blocks, &mdes);
    };
    let m = Mutation {
        function: "main",
        post_sched: Some(&mutate),
        ..Default::default()
    };
    let report = assert_mutant(&ast, "main", &[3, g, g], &m, "TV006");
    assert!(
        reorders(&report, "memory"),
        "{}",
        report.render("mutant", None)
    );
}

#[test]
fn sched_second_call_hoisted_above_the_first() {
    // Move the block's second `BRL` into a bundle of its own at the top,
    // above the ops that precede the first call. The branch-order edges
    // from those ops to the second call are implied by the chain through
    // the first call, and the kept edges must still catch it.
    let mdes = MachineDescription::new(&Config::default());
    let mutate = move |blocks: &mut [ScheduledBlock]| {
        let is_call = |op: &MOp| op.opcode == Opcode::Brl;
        let b = blocks
            .iter()
            .position(|sb| sb.bundles.iter().flatten().filter(|op| is_call(op)).count() == 2)
            .expect("a block with two calls");
        let slots: Vec<(usize, usize)> = (blocks[b].bundles.iter().enumerate())
            .flat_map(|(j, bundle)| {
                bundle
                    .iter()
                    .enumerate()
                    .filter(|(_, op)| is_call(op))
                    .map(move |(k, _)| (j, k))
            })
            .collect();
        let ((first, _), (j, k)) = (slots[0], slots[1]);
        assert!(first > 0, "ops precede the first call");
        let op = blocks[b].bundles[j].remove(k);
        blocks[b].bundles.insert(0, vec![op]);
        rebuild(blocks, &mdes);
    };
    let m = Mutation {
        function: "main",
        post_sched: Some(&mutate),
        ..Default::default()
    };
    let report = assert_mutant(&two_calls(), "main", &[3], &m, "TV006");
    assert!(
        reorders(&report, "branch-order"),
        "{}",
        report.render("mutant", None)
    );
}

#[test]
fn sched_same_bundle_raw_merge() {
    let mdes = MachineDescription::new(&Config::default());
    let mutate = move |blocks: &mut [ScheduledBlock]| {
        // Merge a consumer into its producer's bundle: under EPIC
        // same-cycle semantics the consumer reads the stale register.
        for sb in blocks.iter_mut() {
            for j in 1..sb.bundles.len() {
                for i in 0..j {
                    if sb.bundles[i].len() >= mdes.issue_width() {
                        continue;
                    }
                    let pair = sb.bundles[j].iter().position(|op| {
                        sb.bundles[i]
                            .iter()
                            .any(|p| p.gpr_def().is_some_and(|d| op.gpr_uses().contains(&d)))
                    });
                    if let Some(k) = pair {
                        let op = sb.bundles[j].remove(k);
                        sb.bundles[i].push(op);
                        let sb_slice = std::slice::from_mut(sb);
                        rebuild(sb_slice, &mdes);
                        return;
                    }
                }
            }
        }
        panic!("no producer/consumer pair found");
    };
    let m = Mutation {
        function: "main",
        post_sched: Some(&mutate),
        ..Default::default()
    };
    assert_mutant(&arith(), "main", &[3], &m, "TV006");
}

#[test]
fn sched_dropped_op() {
    let abi = abi();
    let mdes = MachineDescription::new(&Config::default());
    let mutate = move |blocks: &mut [ScheduledBlock]| {
        let (b, j, k) = find_slot(blocks, |op| op.gpr_def() == Some(abi.ret))
            .expect("op defining the return register");
        blocks[b].bundles[j].remove(k);
        rebuild(blocks, &mdes);
    };
    let m = Mutation {
        function: "main",
        post_sched: Some(&mutate),
        ..Default::default()
    };
    assert_mutant(&arith(), "main", &[3], &m, "TV005");
}

#[test]
fn sched_duplicated_op() {
    let mdes = MachineDescription::new(&Config::default());
    let mutate = move |blocks: &mut [ScheduledBlock]| {
        // Re-execute the frame allocation one bundle later: the stack
        // pointer drops twice, so the link save lands at the wrong
        // address (its destination feeds its own source).
        let (b, j, _) = find_slot(blocks, |op| {
            op.gpr_def().is_some_and(|d| op.gpr_uses().contains(&d))
        })
        .expect("self-referencing op");
        let op = blocks[b].bundles[j]
            .iter()
            .find(|op| op.gpr_def().is_some_and(|d| op.gpr_uses().contains(&d)))
            .expect("self-referencing op")
            .clone();
        blocks[b].bundles.insert(j + 1, vec![op]);
        rebuild(blocks, &mdes);
    };
    let m = Mutation {
        function: "main",
        post_sched: Some(&mutate),
        ..Default::default()
    };
    assert_mutant(&caller_callee(), "main", &[3], &m, "TV005");
}

#[test]
fn sched_op_moved_across_blocks() {
    let mdes = MachineDescription::new(&Config::default());
    let mutate = move |blocks: &mut [ScheduledBlock]| {
        // The branch's compare drifts into the next block: the branch
        // reads a predicate nothing wrote.
        let (b, j, k) = find_slot(blocks, |op| matches!(op.opcode, Opcode::Cmp(_)))
            .expect("compare feeding the branch");
        let op = blocks[b].bundles[j].remove(k);
        blocks[b + 1].bundles.insert(0, vec![op]);
        rebuild(blocks, &mdes);
    };
    let m = Mutation {
        function: "main",
        post_sched: Some(&mutate),
        ..Default::default()
    };
    assert_mutant(&two_sided_return(), "main", &[3], &m, "TV005");
}

#[test]
fn sched_overfilled_bundle() {
    let mdes = MachineDescription::new(&Config::default());
    let mutate = move |blocks: &mut [ScheduledBlock]| {
        // Cram ops into the first bundle past the issue width.
        let width = mdes.issue_width();
        let sb = blocks
            .iter_mut()
            .find(|sb| sb.bundles.iter().map(Vec::len).sum::<usize>() > width)
            .expect("block with enough ops");
        while sb.bundles[0].len() <= width && sb.bundles.len() > 1 {
            let op = sb.bundles[1].remove(0);
            sb.bundles[0].push(op);
            if sb.bundles[1].is_empty() {
                sb.bundles.remove(1);
            }
        }
        assert!(sb.bundles[0].len() > width, "bundle not overfilled");
        let sb_slice = std::slice::from_mut(sb);
        rebuild(sb_slice, &mdes);
    };
    let m = Mutation {
        function: "main",
        post_sched: Some(&mutate),
        ..Default::default()
    };
    assert_mutant(&spilly(), "main", &[3], &m, "TV007");
}

// --------------------------------------------------------------------
// Control-finalisation mutant (TV008)
// --------------------------------------------------------------------

#[test]
fn finalize_corrupted_return_branch() {
    let abi = abi();
    let mutate = move |f: &mut MFunction| {
        // The return sequence loads its branch target from the stack
        // pointer instead of the link register.
        let at = find_op(f, |op| {
            op.opcode == Opcode::Pbr && op.src1 == MSrc::Gpr(abi.link)
        });
        op_mut(f, at).src1 = MSrc::Gpr(abi.sp);
    };
    let m = Mutation {
        function: "main",
        post_finalize: Some(&mutate),
        ..Default::default()
    };
    assert_mutant(&arith(), "main", &[3], &m, "TV008");
}

// --------------------------------------------------------------------
// Emission mutants (TV009)
// --------------------------------------------------------------------

#[test]
fn emit_corrupted_opcode() {
    let mutate = |asm: &mut String| {
        let at = asm.find("ADD").expect("an ADD in the text");
        asm.replace_range(at..at + 3, "SUB");
    };
    let m = Mutation {
        function: "main",
        post_emit: Some(&mutate),
        ..Default::default()
    };
    assert_mutant(&arith(), "main", &[3], &m, "TV009");
}

#[test]
fn emit_corrupted_branch_label() {
    let mutate = |asm: &mut String| {
        // Redirect the call to a different *defined* label so the text
        // still assembles — into infinite recursion.
        let at = asm.find("@fn_f").expect("call target in the text");
        asm.replace_range(at..at + 5, "@fn_main");
    };
    let m = Mutation {
        function: "main",
        post_emit: Some(&mutate),
        ..Default::default()
    };
    assert_mutant(&caller_callee(), "main", &[3], &m, "TV009");
}

// --------------------------------------------------------------------
// Superblock mutants (TV010 / TV011 / TV012)
// --------------------------------------------------------------------

/// A hot counted loop: the static heuristic forms the header/body trace
/// and unrolls it into a superblock chain.
fn hot_loop() -> Program {
    Program::new().function(FunctionDef::new("main", ["n"]).body([
        Stmt::let_("s", Expr::lit(0)),
        Stmt::let_("i", Expr::lit(0)),
        Stmt::while_(
            Expr::var("i").lt_s(Expr::var("n")),
            [
                Stmt::assign(
                    "s",
                    Expr::var("s") + (Expr::var("i") * Expr::lit(3) + Expr::lit(7)),
                ),
                Stmt::assign("i", Expr::var("i") + Expr::lit(1)),
            ],
        ),
        Stmt::ret(Expr::var("s")),
    ]))
}

/// A count-*down* loop striding a wide array: the scheduler speculates
/// each copy's load across the preceding exit test, and the speculated
/// address at `i == -1` underruns the data segment.
fn hot_countdown_load() -> Program {
    Program::new()
        .global(Global::zeroed("g", 24 * 256))
        .function(FunctionDef::new("main", ["n"]).body([
            Stmt::let_("s", Expr::lit(0)),
            Stmt::let_("i", Expr::var("n") - Expr::lit(1)),
            Stmt::while_(
                Expr::var("i").ge_s(Expr::lit(0)),
                [
                    Stmt::assign(
                        "s",
                        Expr::var("s")
                            + (Expr::global("g") + Expr::var("i") * Expr::lit(256)).load_word()
                            + Expr::lit(7),
                    ),
                    Stmt::assign("i", Expr::var("i") - Expr::lit(1)),
                ],
            ),
            Stmt::ret(Expr::var("s")),
        ]))
}

#[test]
fn superblock_corrupted_unrolled_clone() {
    let mutate = |f: &mut MFunction| {
        // Corrupt a literal operand in the last unrolled copy: the clone
        // no longer matches its origin block bit for bit, and every
        // eighth iteration computes a different term.
        let last = f.blocks.len() - 1;
        let at = f.blocks[last]
            .insts
            .iter()
            .position(|i| matches!(i, MInst::Op(op) if matches!(op.src2, MSrc::Lit(_))))
            .expect("literal operand in the clone");
        let op = op_mut(f, (last, at));
        let MSrc::Lit(v) = op.src2 else {
            unreachable!()
        };
        op.src2 = MSrc::Lit(v + 1);
    };
    let m = Mutation {
        function: "main",
        post_superblock: Some(&mutate),
        ..Default::default()
    };
    assert_mutant(&hot_loop(), "main", &[24], &m, "TV010");
}

#[test]
fn superblock_back_edge_skips_exit_test() {
    let mutate = |f: &mut MFunction| {
        // The chain's back edge re-enters at the head's successor: the
        // first copy's loop-exit test is skipped, so after the last full
        // wrap (`i == n`) the loop runs one body too many.
        let last = f.blocks.last_mut().expect("blocks");
        let MTerm::Jump(h) = last.term else {
            panic!("the back edge should be an unconditional jump")
        };
        last.term = MTerm::Jump(MBlockId(h.0 + 1));
    };
    let m = Mutation {
        function: "main",
        post_superblock: Some(&mutate),
        ..Default::default()
    };
    assert_mutant(&hot_loop(), "main", &[24], &m, "TV010");
}

#[test]
fn superblock_side_entry_into_trace_interior() {
    let mutate = |f: &mut MFunction| {
        // The loop's external predecessor branches into the middle of
        // the chain instead of its head, skipping the first exit test:
        // with `n == 0` the body runs once when it should not run at all.
        let MTerm::Jump(head) = f.blocks.last().expect("blocks").term else {
            panic!("the back edge should be an unconditional jump")
        };
        let last = f.blocks.len() - 1;
        let entry = f
            .blocks
            .iter()
            .position(|b| b.term == MTerm::Jump(head) && b.id.0 as usize != last)
            .expect("external predecessor of the chain head");
        f.blocks[entry].term = MTerm::Jump(MBlockId(head.0 + 1));
    };
    let m = Mutation {
        function: "main",
        post_superblock: Some(&mutate),
        ..Default::default()
    };
    assert_mutant(&hot_loop(), "main", &[0], &m, "TV011");
}

#[test]
fn superblock_speculated_load_left_faulting() {
    let mdes = MachineDescription::new(&Config::default());
    let mutate = move |blocks: &mut [ScheduledBlock]| {
        // Undo the dismissible rewrite everywhere: each load hoisted
        // across a side exit traps again on the speculated path.
        let mut flipped = 0;
        for sb in blocks.iter_mut() {
            for bundle in &mut sb.bundles {
                for op in bundle {
                    if op.opcode == Opcode::LwS {
                        op.opcode = Opcode::Lw;
                        flipped += 1;
                    }
                }
            }
        }
        assert!(flipped > 0, "no dismissible load in the schedule");
        rebuild(blocks, &mdes);
    };
    let m = Mutation {
        function: "main",
        post_sched: Some(&mutate),
        ..Default::default()
    };
    assert_mutant(&hot_countdown_load(), "main", &[24], &m, "TV012");
}

// --------------------------------------------------------------------
// Front-stage verdicts per machine family
// --------------------------------------------------------------------

/// The if-conversion, fusion and register-allocation checkers read no
/// ALU count and no issue width, so a front-stage mutant draws the same
/// codes on the narrowest and the widest machine of its family. This is
/// what lets a memoised front half validate its front stages once.
#[test]
fn front_stage_verdicts_are_the_same_across_a_machine_family() {
    let ifconv = Mutation {
        function: "main",
        post_ifconv: Some(&drop_last_guard),
        ..Default::default()
    };
    let fuse = Mutation {
        function: "main",
        post_fuse: Some(&drop_interior_op),
        ..Default::default()
    };
    let regalloc = Mutation {
        function: "main",
        post_regalloc: Some(&clobber_allocation),
        ..Default::default()
    };
    let mutants = [
        ("ifconv", diamond(), Config::default(), &ifconv, 3),
        ("fuse", rotate7(), fused_rot_config(), &fuse, 12345),
        ("regalloc", arith(), Config::default(), &regalloc, 3),
    ];
    for (name, ast, family, mutation, arg) in mutants {
        let module = epic_ir::lower::lower(&ast).expect("program lowers");
        let codes = |alus: usize, width: usize| {
            let config = family
                .to_builder()
                .num_alus(alus)
                .issue_width(width)
                .build()
                .expect("valid config");
            let (asm, trace) = Compiler::new(config.clone())
                .compile_mutated(&module, &options("main", &[arg]), mutation)
                .expect("mutated compile");
            let program = epic_asm::assemble(&asm, &config).expect("mutant assembles");
            let report = epic_tv::validate_trace(&trace, &program, &config);
            let codes: Vec<&str> = report.diagnostics().iter().map(|d| d.code).collect();
            codes.join(",")
        };
        let narrow = codes(1, 1);
        assert!(!narrow.is_empty(), "{name} escaped at 1x1");
        assert_eq!(narrow, codes(4, 4), "{name}");
    }
}

// --------------------------------------------------------------------
// Zero-false-positive grid
// --------------------------------------------------------------------

/// Every workload × every (ALUs, issue width) point must validate
/// completely clean — no errors, no warnings — and, unmutated, the seam
/// must give exactly the verified compile's assembly and trace.
#[test]
fn clean_grid_has_no_findings() {
    for workload in epic_workloads::all(epic_workloads::Scale::Test) {
        let module = epic_ir::lower::lower(&workload.program).expect("workload lowers");
        for alus in 1..=4usize {
            for width in 1..=4usize {
                let config = Config::builder()
                    .num_alus(alus)
                    .issue_width(width)
                    .build()
                    .expect("valid config");
                let opts = Options {
                    entry: workload.entry.clone(),
                    inline_hints: workload.inline_hints(),
                    ..Options::default()
                };
                let compiler = Compiler::new(config.clone());
                let (asm, trace) = compiler
                    .compile_mutated(&module, &opts, &Mutation::default())
                    .expect("workload compiles");
                let program = epic_asm::assemble(&asm, &config).expect("workload assembles");
                let report = epic_tv::validate_trace(&trace, &program, &config);
                assert!(
                    report.is_clean(),
                    "{} [alus={alus}, iw={width}] raised findings:\n{}",
                    workload.name,
                    report.render(&workload.name, None)
                );
                // The seam edits nothing by default: the honest build is
                // the verified compile, byte for byte and stage for stage.
                let verified = compiler
                    .compile_with(&module, &opts)
                    .expect("workload compiles and verifies");
                assert_eq!(
                    asm,
                    verified.assembly(),
                    "{} [alus={alus}, iw={width}]",
                    workload.name
                );
                assert_eq!(
                    Some(&trace),
                    verified.trace(),
                    "{} [alus={alus}, iw={width}]",
                    workload.name
                );
            }
        }
    }
}
