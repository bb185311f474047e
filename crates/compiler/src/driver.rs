//! The compiler driver: IR module in, assembly out.

use crate::emit::{emit_program, finalize_control, CALL_BTR};
use crate::error::CompileError;
use crate::fuse::{fuse, FuseStats};
use crate::ifconv::{if_convert, IfConvStats};
use crate::mir::{MBlock, MBlockId, MDest, MFunction, MInst, MOp, MSrc, MTerm};
use crate::passes::{self, PassStats};
use crate::regalloc::{allocate, Abi, RegAllocStats};
use crate::sched::{schedule_function, schedule_function_regions, SchedStats};
use crate::select::{fold_literal_operands, select};
use crate::superblock::{form_superblocks, ProfileData, SuperblockStats};
use crate::trace::{FunctionTrace, PipelineTrace};
use epic_config::Config;
use epic_ir::Module;
use epic_isa::Opcode;
use epic_mdes::MachineDescription;
use std::sync::atomic::{AtomicBool, Ordering};

/// Compilation options.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Options {
    /// Run the IMPACT-style optimisation pipeline (default: on).
    pub optimize: bool,
    /// Run if-conversion (default: on; off is useful for ablation).
    pub if_conversion: bool,
    /// Rewrite matched subgraphs to registered fused custom ops
    /// (default: on; a no-op unless the config registers
    /// [`epic_config::CustomSemantics::Fused`] operations).
    pub fuse_custom: bool,
    /// Form superblocks and schedule them as multi-block regions
    /// (default: on; only takes effect at issue width ≥ 2, where the
    /// freed issue slots exist to be filled).
    pub superblock: bool,
    /// Block execution counts from an instrumented training run; guides
    /// superblock trace selection. `None` falls back to the static
    /// loop-nesting heuristic.
    pub profile: Option<ProfileData>,
    /// Functions the frontend marked for inlining.
    pub inline_hints: Vec<String>,
    /// Entry function called by the start-up stub.
    pub entry: String,
    /// Arguments the stub passes to the entry function.
    pub entry_args: Vec<u32>,
    /// Statically verify the scheduled output with `epic-verify` and
    /// fail compilation on any error diagnostic (default: on, see
    /// [`set_default_verify`]).
    pub verify: bool,
}

impl Default for Options {
    fn default() -> Self {
        Options {
            optimize: true,
            if_conversion: true,
            fuse_custom: true,
            superblock: true,
            profile: None,
            inline_hints: Vec::new(),
            entry: "main".to_owned(),
            entry_args: Vec::new(),
            verify: default_verify(),
        }
    }
}

/// Process-wide default for [`Options::verify`]. On unless
/// [`set_default_verify`] turned it off.
static VERIFY_BY_DEFAULT: AtomicBool = AtomicBool::new(true);

/// Sets the process-wide default for [`Options::verify`].
///
/// The post-schedule verifier run is cheap and on by default in every
/// build profile; batch drivers (`repro --no-verify`) use this escape
/// hatch to time raw compilation or to inspect rejected output. Code
/// that builds its own [`Options`] literal is unaffected.
pub fn set_default_verify(on: bool) {
    VERIFY_BY_DEFAULT.store(on, Ordering::Relaxed);
}

/// The current process-wide default for [`Options::verify`].
#[must_use]
pub fn default_verify() -> bool {
    VERIFY_BY_DEFAULT.load(Ordering::Relaxed)
}

/// Accumulates one function's scheduling statistics into the totals.
fn absorb_sched(total: &mut SchedStats, s: &SchedStats) {
    total.ops += s.ops;
    total.bundles += s.bundles;
    total.slots_filled += s.slots_filled;
    total.slots_available += s.slots_available;
}

/// Aggregated per-compilation statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct CompileStats {
    /// Machine-independent pass statistics.
    pub passes: PassStats,
    /// If-conversion statistics (summed over functions).
    pub ifconv: IfConvStats,
    /// Custom-instruction fusion statistics (summed over functions).
    pub fuse: FuseStats,
    /// Superblock-formation statistics (summed over functions).
    pub superblock: SuperblockStats,
    /// Register-allocation statistics (summed over functions).
    pub regalloc: RegAllocStats,
    /// Scheduling statistics (summed over functions).
    pub sched: SchedStats,
}

/// The result of a compilation: assembly text plus statistics.
#[derive(Debug, Clone)]
pub struct CompiledProgram {
    assembly: String,
    stats: CompileStats,
    config: Config,
    trace: Option<PipelineTrace>,
    program: Option<epic_asm::Program>,
}

impl CompiledProgram {
    /// The bundle-structured assembly accepted by `epic-asm`.
    #[must_use]
    pub fn assembly(&self) -> &str {
        &self.assembly
    }

    /// Compilation statistics.
    #[must_use]
    pub fn stats(&self) -> &CompileStats {
        &self.stats
    }

    /// The configuration the program was compiled for.
    #[must_use]
    pub fn config(&self) -> &Config {
        &self.config
    }

    /// Per-stage pipeline snapshots for translation validation.
    ///
    /// Present when the compile ran with [`Options::verify`] on; the
    /// `--no-verify` escape hatch drops trace collection along with the
    /// post-schedule verifier run.
    #[must_use]
    pub fn trace(&self) -> Option<&PipelineTrace> {
        self.trace.as_ref()
    }

    /// The assembled program the post-schedule verifier checked.
    ///
    /// Present when the compile ran with [`Options::verify`] on, until
    /// [`take_program`](CompiledProgram::take_program) moves it out.
    #[must_use]
    pub fn program(&self) -> Option<&epic_asm::Program> {
        self.program.as_ref()
    }

    /// Moves the verified program out, so callers that need it do not
    /// assemble the text a second time.
    pub fn take_program(&mut self) -> Option<epic_asm::Program> {
        self.program.take()
    }
}

/// The EPIC compiler for one processor configuration.
///
/// # Examples
///
/// ```
/// use epic_config::Config;
/// use epic_compiler::{Compiler, Options};
/// use epic_ir::ast::{Expr, FunctionDef, Program, Stmt};
///
/// let program = Program::new().function(
///     FunctionDef::new("main", [] as [&str; 0]).body([Stmt::ret(Expr::lit(7))]),
/// );
/// let module = epic_ir::lower::lower(&program)?;
/// let compiled = Compiler::new(Config::builder().num_alus(2).build()?)
///     .compile_with(&module, &Options::default())?;
/// assert!(compiled.assembly().contains(";;"));
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone)]
pub struct Compiler {
    config: Config,
    mdes: MachineDescription,
}

impl Compiler {
    /// Creates a compiler targeting the given configuration.
    #[must_use]
    pub fn new(config: Config) -> Self {
        let mdes = MachineDescription::new(&config);
        Compiler { config, mdes }
    }

    /// The target configuration.
    #[must_use]
    pub fn config(&self) -> &Config {
        &self.config
    }

    /// Compiles a module with default options (entry `main`, no
    /// arguments).
    ///
    /// # Errors
    ///
    /// See [`Compiler::compile_with`].
    pub fn compile(&self, module: &Module) -> Result<CompiledProgram, CompileError> {
        self.compile_with(module, &Options::default())
    }

    /// Compiles a module.
    ///
    /// The output starts with a `_start` stub that initialises the stack
    /// pointer from the module's layout, loads the entry arguments into
    /// the argument registers, calls the entry function and halts.
    ///
    /// # Errors
    ///
    /// Returns [`CompileError::UnsupportedDatapathWidth`] for non-32-bit
    /// configurations and any selection/allocation error.
    pub fn compile_with(
        &self,
        module: &Module,
        options: &Options,
    ) -> Result<CompiledProgram, CompileError> {
        if self.config.datapath_width() != 32 {
            return Err(CompileError::UnsupportedDatapathWidth {
                width: self.config.datapath_width(),
            });
        }
        let abi = Abi::new(&self.config)?;
        let mut module = module.clone();
        let mut stats = CompileStats::default();
        if options.optimize {
            stats.passes = passes::optimize(&mut module, &options.inline_hints);
        }

        let layout = module.layout().map_err(|e| CompileError::Internal {
            message: format!("module layout: {e}"),
        })?;

        let mut scheduled = Vec::with_capacity(module.functions.len() + 1);
        // Stage snapshots for translation validation ride along with the
        // verifier switch: `--no-verify` drops both.
        let mut trace = options.verify.then(PipelineTrace::default);

        // The start-up stub comes first: its first bundle is the entry PC.
        let mut stub = self.start_stub(&abi, options, layout.initial_sp())?;
        let stub_layout = finalize_control(&mut stub, &abi);
        let (blocks, s) = schedule_function(&stub, &stub_layout, &self.mdes);
        absorb_sched(&mut stats.sched, &s);
        if let Some(trace) = &mut trace {
            // The stub is born allocated; only the back-end stages exist.
            trace.functions.push(FunctionTrace {
                name: stub.name.clone(),
                post_select: None,
                post_ifconv: None,
                post_fuse: None,
                post_superblock: None,
                origin: None,
                traces: Vec::new(),
                post_regalloc: None,
                post_finalize: stub.clone(),
                layout: stub_layout.clone(),
                scheduled: blocks.clone(),
            });
        }
        scheduled.push(blocks);

        for func in &module.functions {
            let mut mf = select(func, &self.config)?;
            fold_literal_operands(&mut mf, &self.config);
            let post_select = trace.is_some().then(|| mf.clone());
            let mut post_ifconv = None;
            if options.if_conversion {
                let s = if_convert(&mut mf);
                stats.ifconv.diamonds += s.diamonds;
                stats.ifconv.triangles += s.triangles;
                stats.ifconv.predicated_insts += s.predicated_insts;
                post_ifconv = trace.is_some().then(|| mf.clone());
            }
            let mut post_fuse = None;
            if options.fuse_custom {
                let fs = fuse(&mut mf, &self.config);
                if fs != FuseStats::default() {
                    stats.fuse.fused += fs.fused;
                    stats.fuse.ops_removed += fs.ops_removed;
                    post_fuse = trace.is_some().then(|| mf.clone());
                }
            }
            let ra = allocate(&mut mf, &abi, &self.config)?;
            stats.regalloc.spilled += ra.spilled;
            stats.regalloc.call_saves += ra.call_saves;
            stats.regalloc.frame_bytes += ra.frame_bytes;
            let post_regalloc = trace.is_some().then(|| mf.clone());
            // Superblock formation runs on *allocated* code: cloning a
            // tail of physical registers cannot perturb the allocator,
            // whereas pre-allocation clones at the end of the block list
            // would stretch every cloned vreg's linear-scan interval
            // across the whole function and drown the win in spills.
            let mut post_superblock = None;
            let mut origin = None;
            let mut trace_groups: Vec<Vec<MBlockId>> = Vec::new();
            if options.superblock && self.mdes.issue_width() >= 2 {
                if let Some(f) = form_superblocks(&mut mf, options.profile.as_ref()) {
                    stats.superblock.absorb(f.stats);
                    post_superblock = trace.is_some().then(|| mf.clone());
                    origin = trace.is_some().then(|| f.origin.clone());
                    trace_groups = f.traces;
                }
            }
            let fl = finalize_control(&mut mf, &abi);
            let (blocks, s) = schedule_function_regions(&mf, &fl, &trace_groups, &self.mdes);
            absorb_sched(&mut stats.sched, &s);
            if let Some(trace) = &mut trace {
                trace.functions.push(FunctionTrace {
                    name: mf.name.clone(),
                    post_select,
                    post_ifconv,
                    post_fuse,
                    post_superblock,
                    origin,
                    traces: trace_groups.clone(),
                    post_regalloc,
                    post_finalize: mf.clone(),
                    layout: fl.clone(),
                    scheduled: blocks.clone(),
                });
            }
            scheduled.push(blocks);
        }

        let assembly = emit_program(&scheduled, &self.config);

        // The scheduler claims its output respects the machine contract
        // (port budget, unit occupancy, prepared branches); make the
        // claim load-bearing by running the static verifier over the
        // assembled bundles. Warnings (scoreboard-covered hazards) are
        // expected across block boundaries; errors are compiler bugs.
        // The checked program rides along, so nobody assembles twice.
        let mut program = None;
        if options.verify {
            let assembled = epic_asm::assemble(&assembly, &self.config).map_err(|e| {
                CompileError::Internal {
                    message: format!("emitted assembly does not assemble: {e}"),
                }
            })?;
            let report = epic_verify::check(&assembled, &self.config);
            if report.has_errors() {
                let errors: String = report
                    .diagnostics()
                    .iter()
                    .filter(|d| d.severity == epic_asm::Severity::Error)
                    .map(|d| d.render("<scheduled output>", None))
                    .collect();
                return Err(CompileError::Verification { report: errors });
            }
            program = Some(assembled);
        }

        Ok(CompiledProgram {
            assembly,
            stats,
            config: self.config.clone(),
            trace,
            program,
        })
    }

    /// Builds the `_start` function (already in physical registers).
    fn start_stub(
        &self,
        abi: &Abi,
        options: &Options,
        initial_sp: u32,
    ) -> Result<MFunction, CompileError> {
        if options.entry_args.len() > abi.args.len() {
            return Err(CompileError::TooManyArguments {
                function: options.entry.clone(),
                count: options.entry_args.len(),
                limit: abi.args.len(),
            });
        }
        let mut insts: Vec<MInst> = Vec::new();
        let mut movil = MOp::bare(Opcode::Movil);
        movil.dest1 = MDest::Gpr(abi.sp);
        movil.src1 = MSrc::Lit(i64::from(initial_sp));
        insts.push(MInst::Op(movil));
        for (i, arg) in options.entry_args.iter().enumerate() {
            let mut op = MOp::bare(Opcode::Movil);
            op.dest1 = MDest::Gpr(abi.args[i]);
            op.src1 = MSrc::Lit(i64::from(*arg));
            insts.push(MInst::Op(op));
        }
        let mut pbr = MOp::bare(Opcode::Pbr);
        pbr.dest1 = MDest::Btr(CALL_BTR);
        pbr.src1 = MSrc::Label(format!("fn_{}", options.entry));
        insts.push(MInst::Op(pbr));
        let mut brl = MOp::bare(Opcode::Brl);
        brl.dest1 = MDest::Gpr(abi.link);
        brl.src1 = MSrc::Btr(CALL_BTR);
        insts.push(MInst::Op(brl));
        Ok(MFunction {
            name: "_start".to_owned(),
            params: vec![],
            blocks: vec![MBlock {
                id: MBlockId(0),
                insts,
                term: MTerm::Halt,
            }],
            vreg_count: 0,
            vpred_count: 1,
            allocated: true,
            frame_bytes: 0,
            makes_calls: true,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use epic_ir::ast::{Expr, FunctionDef, Program, Stmt};
    use epic_ir::lower;

    fn compile(program: &Program, config: Config) -> CompiledProgram {
        let module = lower::lower(program).unwrap();
        let options = Options {
            inline_hints: lower::inline_hints(program),
            ..Options::default()
        };
        Compiler::new(config)
            .compile_with(&module, &options)
            .unwrap()
    }

    #[test]
    fn hello_module_compiles_to_bundled_assembly() {
        let p = Program::new().function(
            FunctionDef::new("main", [] as [&str; 0])
                .body([Stmt::ret(Expr::lit(21) * Expr::lit(2))]),
        );
        let out = compile(&p, Config::default());
        let asm = out.assembly();
        assert!(asm.contains(".entry fn__start"));
        assert!(asm.contains("fn_main:"));
        assert!(asm.contains("HALT"));
        assert!(asm.contains(";;"));
        assert!(asm.contains("BRL"));
    }

    #[test]
    fn wide_machines_schedule_denser_code() {
        // A block of independent adds should need fewer bundles on 4 ALUs
        // than on 1.
        let mut body = vec![Stmt::let_("acc", Expr::lit(0))];
        for i in 0..12 {
            body.push(Stmt::let_(format!("t{i}"), Expr::var("x") + Expr::lit(i)));
        }
        let mut total = Expr::var("t0");
        for i in 1..12 {
            total = total + Expr::var(format!("t{i}"));
        }
        body.push(Stmt::ret(total));
        let f = FunctionDef::new("main", ["x"]).body(body);
        let p = Program::new().function(f);

        let wide = compile(&p, Config::builder().num_alus(4).build().unwrap());
        let narrow = compile(&p, Config::builder().num_alus(1).build().unwrap());
        assert!(
            wide.stats().sched.bundles < narrow.stats().sched.bundles,
            "wide {} vs narrow {}",
            wide.stats().sched.bundles,
            narrow.stats().sched.bundles
        );
        assert!(wide.stats().sched.ilp() > narrow.stats().sched.ilp());
    }

    #[test]
    fn non_32_bit_datapath_is_rejected() {
        let p = Program::new()
            .function(FunctionDef::new("main", [] as [&str; 0]).body([Stmt::ret_void()]));
        let module = lower::lower(&p).unwrap();
        let config = Config::builder().datapath_width(16).build().unwrap();
        assert!(matches!(
            Compiler::new(config).compile(&module),
            Err(CompileError::UnsupportedDatapathWidth { width: 16 })
        ));
    }

    #[test]
    fn entry_arguments_appear_in_the_stub() {
        let p = Program::new().function(
            FunctionDef::new("main", ["a", "b"]).body([Stmt::ret(Expr::var("a") + Expr::var("b"))]),
        );
        let module = lower::lower(&p).unwrap();
        let options = Options {
            entry_args: vec![11, 31],
            ..Options::default()
        };
        let out = Compiler::new(Config::default())
            .compile_with(&module, &options)
            .unwrap();
        assert!(out.assembly().contains("MOVIL r2, #11"));
        assert!(out.assembly().contains("MOVIL r3, #31"));
    }

    #[test]
    fn if_conversion_option_changes_output() {
        let f = FunctionDef::new("main", ["x"]).body([
            Stmt::let_("r", Expr::lit(0)),
            Stmt::if_else(
                Expr::var("x").gt_s(Expr::lit(0)),
                [Stmt::assign("r", Expr::lit(1))],
                [Stmt::assign("r", Expr::lit(2))],
            ),
            Stmt::ret(Expr::var("r")),
        ]);
        let p = Program::new().function(f);
        let module = lower::lower(&p).unwrap();
        let on = Compiler::new(Config::default())
            .compile_with(&module, &Options::default())
            .unwrap();
        let opt_off = Options {
            if_conversion: false,
            ..Options::default()
        };
        let off = Compiler::new(Config::default())
            .compile_with(&module, &opt_off)
            .unwrap();
        assert!(on.stats().ifconv.diamonds >= 1);
        assert_eq!(off.stats().ifconv.diamonds, 0);
        // Without if-conversion there are more branches in the text.
        let count = |s: &str, pat: &str| s.matches(pat).count();
        assert!(count(off.assembly(), "BRC") > count(on.assembly(), "BRC"));
    }
}
