//! The compile → assemble → load → simulate pipeline.

use epic_asm::{AsmError, Program};
use epic_compiler::{CompileError, CompiledProgram, Compiler, Options};
use epic_config::Config;
use epic_ir::{IrError, Module};
use epic_sa110::{ArmCodegenError, ArmSimError, ArmSimulator, ArmStats};
use epic_sim::{
    Engine, Memory, NopSink, ReferenceSimulator, SimError, SimStats, Simulator, TraceSink,
};
use std::error::Error;
use std::fmt;

/// Error from any stage of the pipeline.
#[derive(Debug)]
#[non_exhaustive]
pub enum ToolchainError {
    /// IR lowering/layout failed.
    Ir(IrError),
    /// Compilation failed.
    Compile(CompileError),
    /// Assembly failed (a compiler bug if the source was generated).
    Asm(AsmError),
    /// Translation validation rejected a compiler pass (the rendered
    /// `epic-tv` report; always a compiler bug).
    Tv(String),
    /// Simulation faulted.
    Sim(SimError),
    /// Baseline code generation failed.
    ArmCodegen(ArmCodegenError),
    /// Baseline simulation faulted.
    ArmSim(ArmSimError),
}

impl fmt::Display for ToolchainError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ToolchainError::Ir(e) => write!(f, "ir: {e}"),
            ToolchainError::Compile(e) => write!(f, "compile: {e}"),
            ToolchainError::Asm(e) => write!(f, "assemble: {e}"),
            ToolchainError::Tv(report) => write!(f, "translation validation: {report}"),
            ToolchainError::Sim(e) => write!(f, "simulate: {e}"),
            ToolchainError::ArmCodegen(e) => write!(f, "baseline codegen: {e}"),
            ToolchainError::ArmSim(e) => write!(f, "baseline simulate: {e}"),
        }
    }
}

impl Error for ToolchainError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            ToolchainError::Ir(e) => Some(e),
            ToolchainError::Compile(e) => Some(e),
            ToolchainError::Asm(e) => Some(e),
            ToolchainError::Tv(_) => None,
            ToolchainError::Sim(e) => Some(e),
            ToolchainError::ArmCodegen(e) => Some(e),
            ToolchainError::ArmSim(e) => Some(e),
        }
    }
}

impl From<IrError> for ToolchainError {
    fn from(e: IrError) -> Self {
        ToolchainError::Ir(e)
    }
}
impl From<CompileError> for ToolchainError {
    fn from(e: CompileError) -> Self {
        ToolchainError::Compile(e)
    }
}
impl From<AsmError> for ToolchainError {
    fn from(e: AsmError) -> Self {
        ToolchainError::Asm(e)
    }
}
impl From<SimError> for ToolchainError {
    fn from(e: SimError) -> Self {
        ToolchainError::Sim(e)
    }
}
impl From<ArmCodegenError> for ToolchainError {
    fn from(e: ArmCodegenError) -> Self {
        ToolchainError::ArmCodegen(e)
    }
}
impl From<ArmSimError> for ToolchainError {
    fn from(e: ArmSimError) -> Self {
        ToolchainError::ArmSim(e)
    }
}

/// A completed EPIC execution with every intermediate artefact.
#[derive(Debug)]
pub struct EpicRun {
    /// The compiler's output (assembly text + statistics).
    pub compiled: CompiledProgram,
    /// The assembled program (bundles, labels).
    pub program: Program,
    /// The simulator in its final state (registers, memory, statistics).
    pub simulator: Simulator,
}

impl EpicRun {
    /// Cycle-level statistics.
    #[must_use]
    pub fn stats(&self) -> &SimStats {
        self.simulator.stats()
    }

    /// The entry function's return value (the ABI return register `r1`).
    #[must_use]
    pub fn return_value(&self) -> u32 {
        self.simulator.gpr(1)
    }

    /// Reads bytes of a global from the final data memory.
    ///
    /// # Errors
    ///
    /// Returns a message when the global is unknown or out of range.
    pub fn read_global(&self, module: &Module, name: &str, len: u32) -> Result<Vec<u8>, String> {
        let layout = module.layout().map_err(|e| e.to_string())?;
        let base = layout
            .address_of(name)
            .ok_or_else(|| format!("unknown global `{name}`"))?;
        memory_window(self.simulator.memory().bytes(), base, len)
            .map(<[u8]>::to_vec)
            .ok_or_else(|| format!("global `{name}` overruns memory"))
    }
}

/// The `len` bytes of `bytes` at `addr`, or `None` when the window runs
/// past the end of memory or past the top of the address space.
pub(crate) fn memory_window(bytes: &[u8], addr: u32, len: u32) -> Option<&[u8]> {
    let end = addr.checked_add(len)?;
    bytes.get(addr as usize..end as usize)
}

/// A compiled, assembled and translation-validated program together
/// with its initial data memory image: everything a simulation run
/// needs, with the whole compiler front end already paid for.
///
/// [`Toolchain::prepare`] produces one; [`Toolchain::run_prepared`] runs
/// it on any [`Engine`], as many times as the caller likes — the
/// throughput benchmarks hoist preparation out of the timed region this
/// way and race the engines over the identical artefact.
#[derive(Debug)]
pub struct PreparedProgram {
    /// The compiler's output (assembly text + statistics).
    pub compiled: CompiledProgram,
    /// The assembled program (bundles, labels).
    pub program: Program,
    /// Initial data memory image (the module layout's globals).
    pub initial_memory: Vec<u8>,
}

/// The observable end state of one simulation — the part of the machine
/// state the engines' bit-identity contract covers.
#[derive(Debug)]
pub struct EngineOutcome {
    /// Cycle-level statistics.
    pub stats: SimStats,
    /// The entry function's return value (the ABI return register `r1`).
    pub return_value: u32,
    /// The final data memory.
    pub memory: Memory,
    /// Translated streams the threaded run loop replayed on its folded
    /// fast path (always zero on the reference engine).
    pub fast_block_execs: u64,
    /// Fast-path executions the threaded run loop chained: entered with
    /// no per-cycle issue since the previous one, only that stream's
    /// terminator, flush bubbles and contention stalls between them
    /// (always zero on the reference engine).
    pub chained_execs: u64,
    /// Issue attempts the threaded run loop made one cycle at a time,
    /// outside a stream (always zero on the reference engine).
    pub per_cycle_issues: u64,
}

/// A completed EPIC execution on an explicitly selected [`Engine`].
///
/// Unlike [`EpicRun`], which owns the final [`Simulator`], this result
/// is engine-agnostic: it carries the compile artefacts plus the
/// [`EngineOutcome`] every engine must produce bit-identically.
#[derive(Debug)]
pub struct EngineRun {
    /// The compiler's output (assembly text + statistics).
    pub compiled: CompiledProgram,
    /// The assembled program (bundles, labels).
    pub program: Program,
    /// Which engine ran.
    pub engine: Engine,
    /// The run's observable end state.
    pub outcome: EngineOutcome,
}

impl EngineRun {
    /// Cycle-level statistics.
    #[must_use]
    pub fn stats(&self) -> &SimStats {
        &self.outcome.stats
    }

    /// The entry function's return value (the ABI return register `r1`).
    #[must_use]
    pub fn return_value(&self) -> u32 {
        self.outcome.return_value
    }
}

/// A completed SA-110 baseline execution.
#[derive(Debug)]
pub struct ArmRun {
    /// The simulator in its final state.
    pub simulator: ArmSimulator,
}

impl ArmRun {
    /// Timing-model statistics.
    #[must_use]
    pub fn stats(&self) -> &ArmStats {
        self.simulator.stats()
    }

    /// The entry function's return value (`r0`).
    #[must_use]
    pub fn return_value(&self) -> u32 {
        self.simulator.reg(0)
    }
}

/// The toolchain for one processor configuration.
#[derive(Debug, Clone)]
pub struct Toolchain {
    config: Config,
    compiler: Compiler,
}

impl Toolchain {
    /// Creates the toolchain for a configuration.
    #[must_use]
    pub fn new(config: Config) -> Self {
        let compiler = Compiler::new(config.clone());
        Toolchain { config, compiler }
    }

    /// The target configuration.
    #[must_use]
    pub fn config(&self) -> &Config {
        &self.config
    }

    /// Compiles, assembles, loads and runs a module: translation
    /// validation included, on the threaded loop
    /// ([`run_module_observed`](Toolchain::run_module_observed) under
    /// [`NopSink`]).
    ///
    /// `inline_hints` usually comes from
    /// [`epic_ir::lower::inline_hints`]; `args` are passed to `entry` in
    /// the argument registers by the start-up stub.
    ///
    /// # Errors
    ///
    /// Returns the first pipeline error.
    pub fn run_module(
        &self,
        module: &Module,
        entry: &str,
        args: &[u32],
        inline_hints: &[String],
    ) -> Result<EpicRun, ToolchainError> {
        let options = Options {
            entry: entry.to_owned(),
            entry_args: args.to_vec(),
            inline_hints: inline_hints.to_vec(),
            ..Options::default()
        };
        self.run_module_observed(module, &options, &mut NopSink)
    }

    /// [`run_module`](Toolchain::run_module) with full compiler options
    /// and a [`TraceSink`] observing the simulation.
    ///
    /// The simulator is monomorphised over the sink, so passing
    /// [`NopSink`] (what `run_module` does) compiles to the
    /// unobserved execution path. Plug in an `epic-obs` sink — a
    /// metrics registry, a Perfetto writer, a stall profiler — to
    /// watch the run cycle by cycle.
    ///
    /// # Errors
    ///
    /// Returns the first pipeline error.
    pub fn run_module_observed<S: TraceSink>(
        &self,
        module: &Module,
        options: &Options,
        sink: &mut S,
    ) -> Result<EpicRun, ToolchainError> {
        let prepared = self.prepare(module, options)?;
        self.run_prepared_observed(prepared, sink)
    }

    /// Runs a prepared program on [`Simulator`] under `sink` — the
    /// threaded loop unless the sink observes — keeping the final
    /// machine.
    ///
    /// # Errors
    ///
    /// Returns the first simulation error.
    pub fn run_prepared_observed<S: TraceSink>(
        &self,
        prepared: PreparedProgram,
        sink: &mut S,
    ) -> Result<EpicRun, ToolchainError> {
        let mut simulator = Simulator::try_new(
            &self.config,
            prepared.program.shared_bundles(),
            prepared.program.entry(),
        )?;
        simulator.set_memory(Memory::from_image(prepared.initial_memory));
        simulator.run_with_sink(sink)?;
        Ok(EpicRun {
            compiled: prepared.compiled,
            program: prepared.program,
            simulator,
        })
    }

    /// Runs the compiler front end — compile, assemble, translation
    /// validation, memory layout — without simulating.
    ///
    /// # Errors
    ///
    /// Returns the first pipeline error.
    pub fn prepare(
        &self,
        module: &Module,
        options: &Options,
    ) -> Result<PreparedProgram, ToolchainError> {
        let compiled = self.compiler.compile_with(module, options)?;
        let layout = module.layout()?;
        self.validate(compiled, module.initial_memory(&layout))
    }

    /// The compiler this toolchain drives.
    pub(crate) fn compiler(&self) -> &Compiler {
        &self.compiler
    }

    /// Translation-validates a fresh compile against the program its
    /// built-in verifier assembled, pairing the two with the initial data
    /// memory image.
    pub(crate) fn validate(
        &self,
        mut compiled: CompiledProgram,
        initial_memory: Vec<u8>,
    ) -> Result<PreparedProgram, ToolchainError> {
        let program = compiled
            .take_program()
            .expect("a fresh compile holds the program it verified");
        let trace = compiled.trace().expect("every compile records its trace");
        let report = epic_tv::validate_trace(trace, &program, &self.config);
        if report.has_errors() {
            return Err(ToolchainError::Tv(report.render("<pipeline>", None)));
        }
        Ok(PreparedProgram {
            compiled,
            program,
            initial_memory,
        })
    }

    /// Runs a prepared program once on the selected engine.
    ///
    /// Every engine starts from the same artefact and must end in the
    /// same [`EngineOutcome`] (statistics, return value, memory) — the
    /// differential suites hold them to it bit for bit.
    ///
    /// # Errors
    ///
    /// Returns a simulation fault, or either engine's load-time bundle
    /// rejection.
    pub fn run_prepared(
        &self,
        prepared: &PreparedProgram,
        engine: Engine,
    ) -> Result<EngineOutcome, ToolchainError> {
        let program = &prepared.program;
        let entry = program.entry();
        let memory = Memory::from_image(prepared.initial_memory.clone());
        match engine {
            Engine::Reference => {
                let mut sim =
                    ReferenceSimulator::try_new(&self.config, program.shared_bundles(), entry)?;
                sim.set_memory(memory);
                let stats = *sim.run()?;
                Ok(EngineOutcome {
                    stats,
                    return_value: sim.gpr(1),
                    memory: sim.memory().clone(),
                    fast_block_execs: 0,
                    chained_execs: 0,
                    per_cycle_issues: 0,
                })
            }
            Engine::Threaded => {
                let mut sim = Simulator::try_new(&self.config, program.shared_bundles(), entry)?;
                sim.set_memory(memory);
                let stats = *sim.run()?;
                Ok(EngineOutcome {
                    stats,
                    return_value: sim.gpr(1),
                    memory: sim.memory().clone(),
                    fast_block_execs: sim.fast_block_execs(),
                    chained_execs: sim.chained_execs(),
                    per_cycle_issues: sim.per_cycle_issues(),
                })
            }
        }
    }

    /// [`run_prepared`](Toolchain::run_prepared), keeping the compile
    /// artefacts alongside the outcome.
    pub(crate) fn run_prepared_engine(
        &self,
        prepared: PreparedProgram,
        engine: Engine,
    ) -> Result<EngineRun, ToolchainError> {
        let outcome = self.run_prepared(&prepared, engine)?;
        Ok(EngineRun {
            compiled: prepared.compiled,
            program: prepared.program,
            engine,
            outcome,
        })
    }
}

/// Runs a module on the SA-110 baseline: the same machine-independent
/// optimisations, then the ARM code generator and timing model.
///
/// # Errors
///
/// Returns the first pipeline error.
pub fn run_sa110(
    module: &Module,
    entry: &str,
    args: &[u32],
    inline_hints: &[String],
) -> Result<ArmRun, ToolchainError> {
    let mut optimised = module.clone();
    epic_compiler::passes::optimize(&mut optimised, inline_hints);
    let compiled = epic_sa110::compile(&optimised, entry, args)?;
    let layout = module.layout()?;
    let mut simulator = ArmSimulator::new(&compiled, module.initial_memory(&layout));
    simulator.run()?;
    Ok(ArmRun { simulator })
}

#[cfg(test)]
mod tests {
    use super::*;
    use epic_ir::ast::{Expr, FunctionDef, Program as Ast, Stmt};
    use epic_ir::lower;

    fn module(ast: &Ast) -> Module {
        lower::lower(ast).unwrap()
    }

    #[test]
    fn end_to_end_arithmetic() {
        let ast = Ast::new().function(
            FunctionDef::new("main", ["a", "b"])
                .body([Stmt::ret(Expr::var("a") * Expr::var("b") + Expr::lit(1))]),
        );
        let m = module(&ast);
        let run = Toolchain::new(Config::default())
            .run_module(&m, "main", &[6, 7], &[])
            .unwrap();
        assert_eq!(run.return_value(), 43);
        assert!(run.stats().cycles > 0);
    }

    #[test]
    fn epic_and_baseline_agree_on_results() {
        let ast = Ast::new()
            .global(epic_ir::Global::zeroed("out", 4))
            .function(FunctionDef::new("main", ["n"]).body([
                Stmt::let_("acc", Expr::lit(0)),
                Stmt::for_(
                    "i",
                    Expr::lit(1),
                    Expr::var("n") + Expr::lit(1),
                    [Stmt::assign(
                        "acc",
                        Expr::var("acc") + Expr::var("i") * Expr::var("i"),
                    )],
                ),
                Stmt::store_word(Expr::global("out"), Expr::var("acc")),
                Stmt::ret(Expr::var("acc")),
            ]));
        let m = module(&ast);
        let epic = Toolchain::new(Config::default())
            .run_module(&m, "main", &[10], &[])
            .unwrap();
        let arm = run_sa110(&m, "main", &[10], &[]).unwrap();
        let expected: u32 = (1..=10).map(|i| i * i).sum();
        assert_eq!(epic.return_value(), expected);
        assert_eq!(arm.return_value(), expected);
        // Memory images agree on the output global too.
        let bytes = epic.read_global(&m, "out", 4).unwrap();
        assert_eq!(bytes, expected.to_be_bytes());
    }

    #[test]
    fn overflowing_memory_windows_are_errors() {
        let ast = Ast::new()
            .global(epic_ir::Global::zeroed("pad", 4))
            .global(epic_ir::Global::zeroed("out", 4))
            .function(FunctionDef::new("main", [] as [&str; 0]).body([Stmt::ret(Expr::lit(0))]));
        let m = module(&ast);
        let run = Toolchain::new(Config::default())
            .run_module(&m, "main", &[], &[])
            .unwrap();
        assert_eq!(run.read_global(&m, "out", 4).unwrap(), [0; 4]);
        // `addr + len` wraps past the top of the address space.
        assert!(run.read_global(&m, "out", u32::MAX).is_err());
        let bytes = [0u8; 16];
        assert_eq!(memory_window(&bytes, 12, 4), Some(&bytes[12..]));
        assert_eq!(memory_window(&bytes, 12, 5), None);
        assert_eq!(memory_window(&bytes, 4, u32::MAX), None);
        assert_eq!(memory_window(&bytes, u32::MAX, 1), None);
    }

    #[test]
    fn all_engines_agree_on_a_prepared_program() {
        let ast = Ast::new()
            .global(epic_ir::Global::zeroed("out", 4))
            .function(FunctionDef::new("main", ["n"]).body([
                Stmt::let_("acc", Expr::lit(0)),
                Stmt::for_(
                    "i",
                    Expr::lit(1),
                    Expr::var("n") + Expr::lit(1),
                    [Stmt::assign(
                        "acc",
                        Expr::var("acc") + Expr::var("i") * Expr::var("i"),
                    )],
                ),
                Stmt::store_word(Expr::global("out"), Expr::var("acc")),
                Stmt::ret(Expr::var("acc")),
            ]));
        let m = module(&ast);
        let toolchain = Toolchain::new(Config::default());
        let options = Options {
            entry: "main".to_owned(),
            entry_args: vec![10],
            ..Options::default()
        };
        let prepared = toolchain.prepare(&m, &options).unwrap();
        let reference = toolchain
            .run_prepared(&prepared, Engine::Reference)
            .unwrap();
        let threaded = toolchain.run_prepared(&prepared, Engine::Threaded).unwrap();
        // The per-cycle loop: the same machine, stepped to halt.
        let mut stepped = Simulator::try_new(
            &toolchain.config,
            prepared.program.bundles().to_vec(),
            prepared.program.entry(),
        )
        .unwrap();
        stepped.set_memory(Memory::from_image(prepared.initial_memory.clone()));
        while stepped.step().unwrap() {}
        assert_eq!(*stepped.stats(), reference.stats);
        assert_eq!(*stepped.stats(), threaded.stats);
        assert_eq!(stepped.gpr(1), reference.return_value);
        assert_eq!(stepped.gpr(1), threaded.return_value);
        assert_eq!(stepped.memory().bytes(), reference.memory.bytes());
        assert_eq!(stepped.memory().bytes(), threaded.memory.bytes());
        let expected: u32 = (1..=10).map(|i| i * i).sum();
        assert_eq!(threaded.return_value, expected);
    }

    #[test]
    fn calls_work_end_to_end() {
        let sq = FunctionDef::new("sq", ["x"]).body([Stmt::ret(Expr::var("x") * Expr::var("x"))]);
        let main = FunctionDef::new("main", ["a"]).body([
            Stmt::let_("k", Expr::var("a") + Expr::lit(2)),
            Stmt::let_("r", Expr::call("sq", [Expr::var("k")])),
            Stmt::ret(Expr::var("r") + Expr::var("k")),
        ]);
        let ast = Ast::new().function(sq).function(main);
        let m = module(&ast);
        let run = Toolchain::new(Config::default())
            .run_module(&m, "main", &[3], &[])
            .unwrap();
        assert_eq!(run.return_value(), 30);
    }

    #[test]
    fn recursion_works_on_the_epic_machine() {
        let fib = FunctionDef::new("fib", ["n"]).body([
            Stmt::if_(
                Expr::var("n").lt_s(Expr::lit(2)),
                [Stmt::ret(Expr::var("n"))],
            ),
            Stmt::ret(
                Expr::call("fib", [Expr::var("n") - Expr::lit(1)])
                    + Expr::call("fib", [Expr::var("n") - Expr::lit(2)]),
            ),
        ]);
        let m = module(&Ast::new().function(fib));
        let run = Toolchain::new(Config::default())
            .run_module(&m, "fib", &[12], &[])
            .unwrap();
        assert_eq!(run.return_value(), 144);
    }

    #[test]
    fn wider_machines_are_not_slower() {
        let mut body = vec![Stmt::let_("acc", Expr::lit(0))];
        for i in 0..16 {
            body.push(Stmt::let_(
                format!("t{i}"),
                Expr::var("x") * Expr::lit(i + 1),
            ));
        }
        let mut total = Expr::var("t0");
        for i in 1..16 {
            total = total + Expr::var(format!("t{i}"));
        }
        body.push(Stmt::ret(total));
        let ast = Ast::new().function(FunctionDef::new("main", ["x"]).body(body));
        let m = module(&ast);
        let narrow = Toolchain::new(
            Config::builder()
                .num_alus(1)
                .issue_width(1)
                .build()
                .unwrap(),
        )
        .run_module(&m, "main", &[3], &[])
        .unwrap();
        let wide = Toolchain::new(Config::default())
            .run_module(&m, "main", &[3], &[])
            .unwrap();
        assert_eq!(narrow.return_value(), wide.return_value());
        assert!(wide.stats().cycles < narrow.stats().cycles);
    }
}
