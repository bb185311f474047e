//! Property tests: the machine-independent optimisation pipeline
//! preserves the reference semantics on random programs, the
//! scheduler's output stays structurally legal, and the register
//! queries and the text an operation is written as agree with its
//! fields.

use epic_compiler::emit::write_op;
use epic_compiler::mir::{MDest, MOp, MSrc};
use epic_compiler::passes;
use epic_compiler::sched::to_instruction;
use epic_config::Config;
use epic_ir::ast::{Expr, FunctionDef, Program, Stmt};
use epic_ir::{lower, Interpreter};
use epic_isa::{Btr, Dest, DestKind, Gpr, Instruction, Opcode, Operand, PredReg, SrcKind};
use proptest::prelude::*;

/// A random expression over three parameters, with depth-bounded nesting.
fn expr_strategy() -> impl Strategy<Value = Expr> {
    let leaf = prop_oneof![
        (-64i64..64).prop_map(Expr::lit),
        prop::sample::select(vec!["a", "b", "c"]).prop_map(Expr::var),
    ];
    leaf.prop_recursive(4, 64, 3, |inner| {
        (
            prop::sample::select(vec![
                "add", "sub", "mul", "div", "rem", "and", "or", "xor", "shl", "shr", "sra", "rotr",
                "min", "max", "lt", "ltu", "eq",
            ]),
            inner.clone(),
            inner,
        )
            .prop_map(|(op, l, r)| match op {
                "add" => l + r,
                "sub" => l - r,
                "mul" => l * r,
                "div" => l.div(r),
                "rem" => l.rem(r),
                "and" => l & r,
                "or" => l | r,
                "xor" => l ^ r,
                "shl" => l << (r & Expr::lit(31)),
                "shr" => l.shr(r & Expr::lit(31)),
                "sra" => l.sra(r & Expr::lit(31)),
                "rotr" => l.rotr(r),
                "min" => l.min(r),
                "max" => l.max(r),
                "lt" => l.lt_s(r),
                "ltu" => l.lt_u(r),
                _ => l.eq(r),
            })
    })
}

/// A random instruction for the default machine: a fixed opcode with
/// each field filled as its signature asks. Some exceed the machine's
/// registers-per-instruction limit or write one predicate twice; the
/// properties skip those.
fn instruction_strategy() -> impl Strategy<Value = Instruction> {
    let config = Config::default();
    let (lo, hi) = config.instruction_format().short_literal_range();
    let gpr = 0..config.num_gprs() as u16;
    let pred = 0..config.num_pred_regs() as u16;
    let btr = 0..config.num_btrs() as u16;
    let src = (any::<bool>(), gpr.clone(), lo..=hi);
    (
        prop::sample::select(Opcode::all_fixed()),
        (gpr, pred.clone(), btr),
        pred.clone(),
        src.clone(),
        src,
        pred,
    )
        .prop_map(|(opcode, (r, p, b), p2, s1, s2, guard)| {
            let sig = opcode.signature();
            let dest = |kind, p| match kind {
                DestKind::None => Dest::None,
                DestKind::Gpr | DestKind::GprRead => Dest::Gpr(Gpr(r)),
                DestKind::Pred => Dest::Pred(PredReg(p)),
                DestKind::Btr => Dest::Btr(Btr(b)),
            };
            let src = |kind, (is_reg, r, lit): (bool, u16, i64)| match kind {
                SrcKind::None => Operand::None,
                SrcKind::GprOrLit if is_reg => Operand::Gpr(Gpr(r)),
                SrcKind::GprOrLit | SrcKind::LongLit => Operand::Lit(lit),
                SrcKind::Btr => Operand::Btr(Btr(b)),
                SrcKind::Pred => Operand::Pred(PredReg(p)),
            };
            let mut instr = Instruction::new(
                opcode,
                dest(sig.dest1, p),
                dest(sig.dest2, p2),
                src(sig.src1, s1),
                src(sig.src2, s2),
            )
            .with_pred(PredReg(guard));
            if opcode == Opcode::Movil {
                // One literal spans both source fields.
                instr.src2 = Operand::None;
            }
            instr
        })
}

/// Whether `instr` is legal on `config`'s machine, alone in a bundle
/// (a compare may not write one predicate twice).
fn legal(instr: &Instruction, config: &Config) -> bool {
    let mdes = epic_mdes::MachineDescription::new(config);
    instr.validate(config).is_ok() && mdes.check_bundle(std::slice::from_ref(instr)).is_ok()
}

/// The compiler's operation for `instr` (its store data moves from
/// `DEST1` to `store_value`): what [`to_instruction`] inverts.
fn mop_of(instr: &Instruction) -> MOp {
    let sig = instr.opcode.signature();
    let mut op = MOp::bare(instr.opcode);
    match instr.dest1 {
        Dest::Gpr(r) if sig.dest1 == DestKind::GprRead => op.store_value = Some(u32::from(r.0)),
        Dest::Gpr(r) => op.dest1 = MDest::Gpr(u32::from(r.0)),
        Dest::Pred(p) => op.dest1 = MDest::Pred(u32::from(p.0)),
        Dest::Btr(b) => op.dest1 = MDest::Btr(b.0),
        Dest::None => {}
    }
    if let Dest::Pred(p) = instr.dest2 {
        op.dest2 = MDest::Pred(u32::from(p.0));
    }
    let src = |s: Operand| match s {
        Operand::None => MSrc::None,
        Operand::Gpr(r) => MSrc::Gpr(u32::from(r.0)),
        Operand::Lit(v) => MSrc::Lit(v),
        Operand::Btr(b) => MSrc::Btr(b.0),
        Operand::Pred(p) => MSrc::Pred(u32::from(p.0)),
    };
    op.src1 = src(instr.src1);
    op.src2 = src(instr.src2);
    op.guard = u32::from(instr.pred.0);
    op
}

fn program_of(exprs: Vec<Expr>) -> Program {
    let mut body: Vec<Stmt> = Vec::new();
    // Accumulate every expression so none is trivially dead.
    body.push(Stmt::let_("acc", Expr::lit(0)));
    for (i, e) in exprs.into_iter().enumerate() {
        body.push(Stmt::let_(format!("t{i}"), e));
        body.push(Stmt::assign(
            "acc",
            (Expr::var("acc").rotr(Expr::lit(5))) ^ Expr::var(format!("t{i}")),
        ));
    }
    body.push(Stmt::ret(Expr::var("acc")));
    Program::new().function(FunctionDef::new("main", ["a", "b", "c"]).body(body))
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 96, ..ProptestConfig::default() })]

    #[test]
    fn optimisation_preserves_semantics(
        exprs in prop::collection::vec(expr_strategy(), 1..6),
        args in prop::collection::vec(-10_000i32..10_000, 3),
    ) {
        let program = program_of(exprs);
        let module = lower::lower(&program).expect("lowers");
        let args: Vec<u32> = args.iter().map(|a| *a as u32).collect();

        let baseline = Interpreter::new(&module)
            .call("main", &args)
            .expect("unoptimised runs");

        let mut optimised = module.clone();
        let stats = passes::optimize(&mut optimised, &[]);
        optimised.validate().expect("optimised module is well-formed");
        let after = Interpreter::new(&optimised)
            .call("main", &args)
            .expect("optimised runs");

        prop_assert_eq!(baseline, after, "optimisation changed the result ({:?})", stats);

        // The pipeline must never grow the program.
        let before_ops: usize = module.functions.iter().map(|f| f.op_count()).sum();
        let after_ops: usize = optimised.functions.iter().map(|f| f.op_count()).sum();
        prop_assert!(after_ops <= before_ops, "{after_ops} > {before_ops}");
    }

    #[test]
    fn compiled_output_always_assembles(
        exprs in prop::collection::vec(expr_strategy(), 1..4),
        alus in 1usize..=4,
    ) {
        // Whatever the optimiser and scheduler do, the emitted text must
        // be legal assembly for the same configuration.
        let program = program_of(exprs);
        let module = lower::lower(&program).expect("lowers");
        let config = Config::builder().num_alus(alus).build().expect("config");
        let compiled = epic_compiler::Compiler::new(config.clone())
            .compile(&module)
            .expect("compiles");
        let assembled = epic_asm::assemble(compiled.assembly(), &config);
        prop_assert!(assembled.is_ok(), "{:?}", assembled.err());
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 512, ..ProptestConfig::default() })]

    #[test]
    fn register_lists_match_the_fields(instr in instruction_strategy()) {
        let config = Config::default();
        if !legal(&instr, &config) {
            continue;
        }
        let sig = instr.opcode.signature();
        let gpr = |o: Operand| match o {
            Operand::Gpr(r) => Some(r),
            _ => None,
        };
        let stored = match instr.dest1 {
            Dest::Gpr(r) if sig.dest1 == DestKind::GprRead => Some(r),
            _ => None,
        };
        let reads: Vec<Gpr> = [gpr(instr.src1), gpr(instr.src2), stored].into_iter().flatten().collect();
        prop_assert_eq!(&instr.gpr_reads()[..], &reads[..]);
        let guard = (instr.pred.0 != 0).then_some(instr.pred);
        let moved = match instr.src1 {
            Operand::Pred(p) => Some(p),
            _ => None,
        };
        let pred_reads: Vec<PredReg> = [guard, moved].into_iter().flatten().collect();
        prop_assert_eq!(&instr.pred_reads()[..], &pred_reads[..]);
        let pred_dest = |kind, d| match (kind, d) {
            (DestKind::Pred, Dest::Pred(p)) => Some(p),
            _ => None,
        };
        let pred_writes: Vec<PredReg> = [pred_dest(sig.dest1, instr.dest1), pred_dest(sig.dest2, instr.dest2)]
            .into_iter()
            .flatten()
            .collect();
        prop_assert_eq!(&instr.pred_writes()[..], &pred_writes[..]);

        // The compiler's operation names the same registers, `p0`
        // writes left out.
        let op = mop_of(&instr);
        prop_assert_eq!(to_instruction(&op), instr);
        let uses: Vec<u32> = reads.iter().map(|r| u32::from(r.0)).collect();
        prop_assert_eq!(&op.gpr_uses()[..], &uses[..]);
        let pred_uses: Vec<u32> = pred_reads.iter().map(|p| u32::from(p.0)).collect();
        prop_assert_eq!(&op.pred_uses()[..], &pred_uses[..]);
        let pred_defs: Vec<u32> = pred_writes
            .iter()
            .filter(|p| p.0 != 0)
            .map(|p| u32::from(p.0))
            .collect();
        prop_assert_eq!(&op.pred_defs()[..], &pred_defs[..]);
    }

    #[test]
    fn text_written_in_place_assembles_back(instr in instruction_strategy()) {
        let config = Config::default();
        if !legal(&instr, &config) {
            continue;
        }
        let text = epic_isa::disassemble(&instr, &config);
        let mut line = String::from("    ");
        epic_isa::write_disassembly(&mut line, &instr, &config);
        prop_assert_eq!(&line[4..], text.as_str());
        let mut emitted = String::new();
        write_op(&mut emitted, &mop_of(&instr), &config);
        prop_assert_eq!(&emitted, &text);

        let program = epic_asm::assemble(&format!("{line}\n;;\n"), &config);
        prop_assert!(program.is_ok(), "`{}`: {:?}", text, program.err());
        let program = program.expect("assembled");
        prop_assert_eq!(program.bundles()[0][0], instr, "`{}`", text);
    }
}
