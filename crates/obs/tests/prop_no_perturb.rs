//! Observation must not perturb execution: running a random program
//! with the full recording stack plugged in (metrics registry + raw
//! event log + stall profiler) must leave statistics, registers and
//! memory bit-identical to the unobserved [`NopSink`] run.
//!
//! The generator mirrors `tests/differential_prop.rs` at the workspace
//! root: random straight-line arithmetic, loads/stores into a scratch
//! global, if/else and bounded loops, through the full compile →
//! assemble → simulate pipeline.

use epic_core::config::Config;
use epic_core::ir::ast::{Expr, FunctionDef, Program, Stmt};
use epic_core::ir::{lower, Global};
use epic_core::sim::NopSink;
use epic_core::Toolchain;
use epic_obs::{MetricsRegistry, ProfileSink, RecordingSink, StallProfile, TeeSink};
use proptest::prelude::*;

const NUM_VARS: usize = 4;
const BUF_WORDS: i64 = 8;

#[derive(Debug, Clone)]
enum Op {
    Bin(usize, &'static str, usize, usize),
    BinImm(usize, &'static str, usize, i32),
    Store(i64, usize),
    Load(usize, i64),
    IfElse(usize, &'static str, usize, usize, usize),
    Loop(usize, usize, u8),
}

fn apply(op: &'static str, a: Expr, b: Expr) -> Expr {
    match op {
        "add" => a + b,
        "sub" => a - b,
        "mul" => a * b,
        "div" => a.div(b),
        "xor" => a ^ b,
        "shl" => a << (b & Expr::lit(31)),
        "lt" => a.lt_s(b),
        "eq" => a.eq(b),
        other => unreachable!("unknown operator {other}"),
    }
}

fn op_strategy() -> impl Strategy<Value = Op> {
    let var = 0..NUM_VARS;
    let name = prop::sample::select(vec!["add", "sub", "mul", "div", "xor", "shl", "lt", "eq"]);
    prop_oneof![
        (var.clone(), name.clone(), var.clone(), var.clone())
            .prop_map(|(d, o, a, b)| Op::Bin(d, o, a, b)),
        (var.clone(), name, var.clone(), -50i32..50)
            .prop_map(|(d, o, a, l)| Op::BinImm(d, o, a, l)),
        (0..BUF_WORDS, var.clone()).prop_map(|(i, a)| Op::Store(i, a)),
        (var.clone(), 0..BUF_WORDS).prop_map(|(d, i)| Op::Load(d, i)),
        (
            var.clone(),
            prop::sample::select(vec!["lt", "eq"]),
            var.clone(),
            var.clone(),
            var.clone()
        )
            .prop_map(|(c, o, d, a, b)| Op::IfElse(c, o, d, a, b)),
        (var.clone(), var, 1u8..5).prop_map(|(d, a, n)| Op::Loop(d, a, n)),
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
    let mut result = Expr::var(var_name(0));
    for i in 1..NUM_VARS {
        result = result ^ Expr::var(var_name(i));
    }
    body.push(Stmt::ret(result));
    Program::new()
        .global(Global::zeroed("buf", (BUF_WORDS * 4) as u32))
        .function(FunctionDef::new("main", [] as [&str; 0]).body(body))
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 24,
        ..ProptestConfig::default()
    })]

    #[test]
    fn recording_sinks_do_not_perturb_execution(
        seeds in prop::collection::vec(-500i32..500, NUM_VARS),
        ops in prop::collection::vec(op_strategy(), 1..16),
        alus in 1usize..=4,
    ) {
        let program = build_program(&seeds, &ops);
        let module = lower::lower(&program).expect("generated programs lower");
        let config = Config::builder().num_alus(alus).build().expect("config");
        let toolchain = Toolchain::new(config.clone());
        let options = epic_core::compiler::Options {
            entry: "main".to_owned(),
            ..epic_core::compiler::Options::default()
        };

        // Unobserved baseline (NopSink path).
        let bare = toolchain
            .run_module_observed(&module, &options, &mut NopSink)
            .expect("unobserved pipeline runs");

        // The same pipeline with every recording sink attached.
        let mut sink = TeeSink(
            MetricsRegistry::default(),
            TeeSink(RecordingSink::default(), ProfileSink::default()),
        );
        let observed = toolchain
            .run_module_observed(&module, &options, &mut sink)
            .expect("observed pipeline runs");
        let TeeSink(mut metrics, TeeSink(events, profiler)) = sink;

        // Bit-identical architectural outcome.
        prop_assert_eq!(observed.stats(), bare.stats(), "statistics perturbed");
        for reg in 0..config.num_gprs() {
            prop_assert_eq!(
                observed.simulator.gpr(reg),
                bare.simulator.gpr(reg),
                "gpr r{} perturbed", reg
            );
        }
        prop_assert_eq!(
            observed.simulator.memory().bytes(),
            bare.simulator.memory().bytes(),
            "memory perturbed"
        );

        // And the observations themselves are complete and consistent.
        metrics.finish();
        let reconciled = metrics.reconcile(observed.stats());
        prop_assert!(
            reconciled.is_ok(),
            "metrics reconcile: {}",
            reconciled.unwrap_err()
        );
        prop_assert!(!events.events().is_empty(), "event stream empty");
        let profile = StallProfile::build(&profiler, observed.program.labels());
        prop_assert_eq!(profile.cycles, observed.stats().cycles, "profiler cycle count");
        let attributed: u64 = profile.stall_totals().iter().sum();
        prop_assert_eq!(attributed, observed.stats().stalls.total(), "stall attribution");
    }
}
