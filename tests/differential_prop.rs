//! Differential property testing: random programs must produce identical
//! results on the reference interpreter, the EPIC machine (through the
//! full compile → assemble → simulate pipeline, at two machine widths)
//! and the SA-110 baseline.
//!
//! This is the strongest correctness net in the repository: it exercises
//! the optimiser, if-conversion, register allocation (including spilling),
//! the scheduler, the assembler, the instruction codec and both cycle
//! simulators against the executable IR semantics, on inputs nobody
//! hand-picked.

use epic_core::config::Config;
use epic_core::ir::ast::{Expr, FunctionDef, Program, Stmt};
use epic_core::ir::{lower, Global, Interpreter};
use epic_core::sim::{Memory, ReferenceSimulator, Simulator};
use epic_core::{run_sa110, Toolchain};
use proptest::prelude::*;
use std::ops::Range;

/// Number of scalar locals every generated program declares.
const NUM_VARS: usize = 6;
/// Words in the scratch global the programs may load/store.
const BUF_WORDS: i64 = 8;

#[derive(Debug, Clone)]
enum Op {
    /// `vars[d] = vars[a] <op> vars[b]`
    Bin(usize, &'static str, usize, usize),
    /// `vars[d] = vars[a] <op> lit`
    BinImm(usize, &'static str, usize, i32),
    /// `buf[idx] = vars[a]`
    Store(i64, usize),
    /// `vars[d] = buf[idx]`
    Load(usize, i64),
    /// `if (vars[c] <cmp> 0) { vars[d] = vars[a] } else { vars[d] = vars[b] }`
    IfElse(usize, &'static str, usize, usize, usize),
    /// Bounded counted loop accumulating into `vars[d]`.
    Loop(usize, usize, u8),
}

fn binop_names() -> Vec<&'static str> {
    vec![
        "add", "sub", "mul", "div", "rem", "and", "or", "xor", "shl", "shr", "sra", "rotr", "min",
        "max", "ltu", "lt", "eq",
    ]
}

fn apply(op: &'static str, a: Expr, b: Expr) -> Expr {
    match op {
        "add" => a + b,
        "sub" => a - b,
        "mul" => a * b,
        "div" => a.div(b),
        "rem" => a.rem(b),
        "and" => a & b,
        "or" => a | b,
        "xor" => a ^ b,
        "shl" => a << (b & Expr::lit(31)),
        "shr" => a.shr(b & Expr::lit(31)),
        "sra" => a.sra(b & Expr::lit(31)),
        "rotr" => a.rotr(b),
        "min" => a.min(b),
        "max" => a.max(b),
        "ltu" => a.lt_u(b),
        "lt" => a.lt_s(b),
        "eq" => a.eq(b),
        other => unreachable!("unknown operator {other}"),
    }
}

fn op_strategy() -> impl Strategy<Value = Op> {
    let var = 0..NUM_VARS;
    let name = prop::sample::select(binop_names());
    prop_oneof![
        (var.clone(), name.clone(), var.clone(), var.clone())
            .prop_map(|(d, o, a, b)| Op::Bin(d, o, a, b)),
        (var.clone(), name.clone(), var.clone(), -100i32..100)
            .prop_map(|(d, o, a, l)| Op::BinImm(d, o, a, l)),
        (0..BUF_WORDS, var.clone()).prop_map(|(i, a)| Op::Store(i, a)),
        (var.clone(), 0..BUF_WORDS).prop_map(|(d, i)| Op::Load(d, i)),
        (
            var.clone(),
            prop::sample::select(vec!["lt", "eq", "ltu"]),
            var.clone(),
            var.clone(),
            var.clone()
        )
            .prop_map(|(c, o, d, a, b)| Op::IfElse(c, o, d, a, b)),
        (var.clone(), var, 1u8..6).prop_map(|(d, a, n)| Op::Loop(d, a, n)),
    ]
}

fn var_name(i: usize) -> String {
    format!("x{i}")
}

fn build_program(seeds: &[i32], ops: &[Op]) -> Program {
    let mut body: Vec<Stmt> = Vec::new();
    for (i, seed) in seeds.iter().enumerate() {
        body.push(Stmt::let_(var_name(i), Expr::lit(i64::from(*seed))));
    }
    for (k, op) in ops.iter().enumerate() {
        match op {
            Op::Bin(d, o, a, b) => body.push(Stmt::assign(
                var_name(*d),
                apply(o, Expr::var(var_name(*a)), Expr::var(var_name(*b))),
            )),
            Op::BinImm(d, o, a, l) => body.push(Stmt::assign(
                var_name(*d),
                apply(o, Expr::var(var_name(*a)), Expr::lit(i64::from(*l))),
            )),
            Op::Store(i, a) => body.push(Stmt::store_word(
                Expr::global("buf") + Expr::lit(i * 4),
                Expr::var(var_name(*a)),
            )),
            Op::Load(d, i) => body.push(Stmt::assign(
                var_name(*d),
                (Expr::global("buf") + Expr::lit(i * 4)).load_word(),
            )),
            Op::IfElse(c, o, d, a, b) => body.push(Stmt::if_else(
                apply(o, Expr::var(var_name(*c)), Expr::lit(0)),
                [Stmt::assign(var_name(*d), Expr::var(var_name(*a)))],
                [Stmt::assign(var_name(*d), Expr::var(var_name(*b)))],
            )),
            Op::Loop(d, a, n) => body.push(Stmt::for_(
                format!("i{k}"),
                Expr::lit(0),
                Expr::lit(i64::from(*n)),
                [Stmt::assign(
                    var_name(*d),
                    Expr::var(var_name(*d)) + Expr::var(var_name(*a)) + Expr::var(format!("i{k}")),
                )],
            )),
        }
    }
    // Fold everything observable into the return value.
    let mut result = Expr::var(var_name(0));
    for i in 1..NUM_VARS {
        result = result ^ Expr::var(var_name(i));
    }
    body.push(Stmt::ret(result));
    Program::new()
        .global(Global::zeroed("buf", (BUF_WORDS * 4) as u32))
        .function(FunctionDef::new("main", [] as [&str; 0]).body(body))
}

fn buf_words<E: std::fmt::Debug>(
    read: impl Fn(u32, u32) -> Result<Vec<u8>, E>,
    base: u32,
) -> Vec<u8> {
    read(base, (BUF_WORDS * 4) as u32).expect("buffer readable")
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 48,
        ..ProptestConfig::default()
    })]

    #[test]
    fn all_executors_agree(
        seeds in prop::collection::vec(-1000i32..1000, NUM_VARS),
        ops in prop::collection::vec(op_strategy(), 1..24),
    ) {
        let program = build_program(&seeds, &ops);
        let module = lower::lower(&program).expect("generated programs lower");
        let layout = module.layout().expect("layout");
        let base = layout.address_of("buf").expect("buffer exists");

        // Reference interpreter.
        let mut interp = Interpreter::new(&module);
        let expected = interp.call("main", &[]).expect("interpreter runs").unwrap_or(0);
        let expected_buf = buf_words(|a, l| interp.read_bytes(a, l).map(<[u8]>::to_vec), base);

        // EPIC machines at two widths (different schedules, same answer).
        for alus in [1usize, 4] {
            let config = Config::builder().num_alus(alus).build().expect("config");
            let run = Toolchain::new(config)
                .run_module(&module, "main", &[], &[])
                .expect("EPIC pipeline runs");
            prop_assert_eq!(run.return_value(), expected, "EPIC {} ALU return", alus);
            let bytes = run.read_global(&module, "buf", (BUF_WORDS * 4) as u32)
                .expect("buffer readable");
            prop_assert_eq!(&bytes, &expected_buf, "EPIC {} ALU memory", alus);
        }

        // SA-110 baseline.
        let arm = run_sa110(&module, "main", &[], &[]).expect("baseline runs");
        prop_assert_eq!(arm.return_value(), expected, "SA-110 return");
        let arm_buf = arm.simulator.memory()
            [base as usize..(base + (BUF_WORDS * 4) as u32) as usize]
            .to_vec();
        prop_assert_eq!(&arm_buf, &expected_buf, "SA-110 memory");
    }
}

/// Steps `sim` one cycle, and reports whether that cycle left the
/// bytes of `window` alone: a copy stepped with those bytes inverted
/// must end in `sim`'s state once they are inverted back. A load from
/// the window would read other values, a store into it would overwrite
/// the inverted bytes.
fn step_untouched(sim: &mut Simulator, window: &Range<u32>, config: &Config) -> bool {
    let invert = |sim: &mut Simulator| {
        for at in window.clone().step_by(4) {
            let memory = sim.memory_mut();
            let word = memory.peek_word(at).expect("window inside memory");
            memory.poke_word(at, !word);
        }
    };
    let mut inverted = sim.clone();
    invert(&mut inverted);
    inverted.step().expect("per-cycle loop runs");
    invert(&mut inverted);
    sim.step().expect("per-cycle loop runs");
    same_state(sim, &inverted, config)
}

/// Whether two simulators hold the same statistics, registers and
/// memory image.
fn same_state(a: &Simulator, b: &Simulator, config: &Config) -> bool {
    a.cycle() == b.cycle()
        && a.stats() == b.stats()
        && (0..config.num_gprs()).all(|r| a.gpr(r) == b.gpr(r))
        && (0..config.num_pred_regs()).all(|p| a.pred(p) == b.pred(p))
        && (0..config.num_btrs()).all(|r| a.btr(r) == b.btr(r))
        && a.memory().bytes() == b.memory().bytes()
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 24,
        ..ProptestConfig::default()
    })]

    /// The three execution paths — the reference oracle, and
    /// [`Simulator`] stepped on its per-cycle loop and run on its
    /// threaded loop — must be bit-identical (statistics, every
    /// architectural register, the full memory image) on random
    /// programs, at both a narrow and a wide machine.
    /// This is the property the folded cycle accounting and the chained
    /// step streams are held to on inputs nobody hand-picked.
    ///
    /// The threaded loop's stop is held to the same standard: a copy
    /// that runs ahead to each access of a random word range of `buf`
    /// and steps it must match a stepped copy at every stop and at
    /// halt.
    #[test]
    fn engines_are_bit_identical_on_random_programs(
        seeds in prop::collection::vec(-1000i32..1000, NUM_VARS),
        ops in prop::collection::vec(op_strategy(), 1..24),
        (lo, hi) in (0..BUF_WORDS).prop_flat_map(|lo| (Just(lo), lo + 1..=BUF_WORDS)),
    ) {
        let program = build_program(&seeds, &ops);
        let module = lower::lower(&program).expect("generated programs lower");
        let layout = module.layout().expect("layout");
        let base = layout.address_of("buf").expect("buffer exists");
        let window = base + (lo * 4) as u32..base + (hi * 4) as u32;
        for (alus, width) in [(1usize, 1usize), (4, 4)] {
            let config = Config::builder()
                .num_alus(alus)
                .issue_width(width)
                .build()
                .expect("config");
            let run = Toolchain::new(config.clone())
                .run_module(&module, "main", &[], &[])
                .expect("EPIC pipeline runs");
            let image = module.initial_memory(&layout);
            let bundles = run.program.bundles().to_vec();
            let entry = run.program.entry();

            let mut decoded = Simulator::try_new(&config, bundles.clone(), entry)
                .expect("decode accepts legal programs");
            decoded.set_memory(Memory::from_image(image.clone()));
            let mut threaded = decoded.clone();
            let mut ahead = decoded.clone();
            let mut paced = decoded.clone();
            while decoded.step().expect("per-cycle loop runs") {}
            threaded.run().expect("threaded loop runs");

            let mut stops = 0u32;
            loop {
                let running = ahead.run_until_access(window.clone()).expect("runs ahead");
                while paced.cycle() < ahead.cycle() {
                    prop_assert!(
                        step_untouched(&mut paced, &window, &config),
                        "cycle {} touches {:?}, but the run went past it ({} ALU / {}-wide)",
                        paced.cycle(), window, alus, width
                    );
                }
                prop_assert!(
                    same_state(&ahead, &paced, &config),
                    "stop {} in {:?} at cycle {} diverged ({} ALU / {}-wide)",
                    stops, window, ahead.cycle(), alus, width
                );
                if !running {
                    break;
                }
                stops += 1;
                ahead.step().expect("steps the access");
                paced.step().expect("steps the access");
            }
            prop_assert!(
                same_state(&ahead, &decoded, &config),
                "running ahead to halt diverged ({} ALU / {}-wide)", alus, width
            );

            let mut reference = ReferenceSimulator::new(&config, bundles, entry);
            reference.set_memory(Memory::from_image(image));
            reference.run().expect("reference engine runs");

            prop_assert_eq!(
                decoded.stats(), reference.stats(),
                "stats diverged (per-cycle vs reference, {} ALU / {}-wide)", alus, width
            );
            prop_assert_eq!(
                decoded.stats(), threaded.stats(),
                "stats diverged (per-cycle vs threaded, {} ALU / {}-wide)", alus, width
            );
            for r in 0..config.num_gprs() {
                prop_assert_eq!(decoded.gpr(r), threaded.gpr(r), "threaded r{} diverged", r);
                prop_assert_eq!(decoded.gpr(r), reference.gpr(r), "reference r{} diverged", r);
            }
            for p in 0..config.num_pred_regs() {
                prop_assert_eq!(decoded.pred(p), threaded.pred(p), "threaded p{} diverged", p);
            }
            for b in 0..config.num_btrs() {
                prop_assert_eq!(decoded.btr(b), threaded.btr(b), "threaded b{} diverged", b);
            }
            prop_assert_eq!(
                decoded.memory().bytes(), threaded.memory().bytes(),
                "threaded memory image diverged"
            );
            prop_assert_eq!(
                decoded.memory().bytes(), reference.memory().bytes(),
                "reference memory image diverged"
            );
        }
    }
}
