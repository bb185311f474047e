//! The compiler driver: IR module in, assembly out.

use crate::emit::{emit_program, finalize_control, CALL_BTR};
use crate::error::CompileError;
use crate::fuse::{fuse, FuseStats};
use crate::ifconv::{if_convert, IfConvStats};
use crate::mir::{MBlock, MBlockId, MDest, MFunction, MInst, MOp, MSrc, MTerm};
use crate::passes::{self, PassStats};
use crate::regalloc::{allocate, Abi, RegAllocStats};
use crate::sched::{schedule_function, schedule_function_regions, SchedStats, ScheduledBlock};
use crate::select::{fold_literal_operands, select};
use crate::superblock::{form_superblocks, ProfileData, SuperblockStats};
use crate::trace::{FunctionTrace, PipelineTrace};
use epic_config::Config;
use epic_ir::Module;
use epic_isa::Opcode;
use epic_mdes::MachineDescription;
use std::collections::HashMap;

/// Compilation options.
///
/// Every compile optimises, if-converts, fuses registered
/// [`epic_config::CustomSemantics::Fused`] operations (a no-op without
/// them), records the [pipeline trace](PipelineTrace) and runs
/// `epic-verify`'s error pass over its output; none of that is optional.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Options {
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
}

impl Default for Options {
    fn default() -> Self {
        Options {
            superblock: true,
            profile: None,
            inline_hints: Vec::new(),
            entry: "main".to_owned(),
            entry_args: Vec::new(),
        }
    }
}

/// Accumulates one function's scheduling statistics into the totals.
fn absorb_sched(total: &mut SchedStats, s: &SchedStats) {
    total.ops += s.ops;
    total.bundles += s.bundles;
    total.slots_filled += s.slots_filled;
    total.slots_available += s.slots_available;
}

/// Stage edits for one function, applied inside the driver by
/// [`Compiler::compile_mutated`].
///
/// Each set edit runs on the named function's artifact right after its
/// stage and before the stage's snapshot, so the trace and every later
/// stage see it: exactly the effect of a bug inside that stage. The
/// seeded-miscompile corpus uses it to prove that translation validation
/// catches bugs in this pipeline. `Mutation::default()` edits nothing.
#[derive(Default)]
pub struct Mutation<'a> {
    /// The function whose stages are edited (others compile honestly).
    pub function: &'a str,
    /// Applied to the machine IR after if-conversion.
    pub post_ifconv: Edit<'a, MFunction>,
    /// Applied to the machine IR after custom-instruction fusion, only
    /// when fusion changed the function.
    pub post_fuse: Edit<'a, MFunction>,
    /// Applied to the machine IR after superblock formation, only when
    /// formation formed a trace.
    pub post_superblock: Edit<'a, MFunction>,
    /// Applied to the machine IR after register allocation.
    pub post_regalloc: Edit<'a, MFunction>,
    /// Applied to the machine IR after control finalisation (the lowered
    /// branch tails).
    pub post_finalize: Edit<'a, MFunction>,
    /// Applied to the scheduled bundles after list scheduling.
    pub post_sched: Edit<'a, [ScheduledBlock]>,
    /// Applied to the emitted assembly text. The trace keeps the honest
    /// schedule, so the divergence surfaces in the emission check.
    pub post_emit: Edit<'a, String>,
}

/// One stage's optional edit of its artifact.
type Edit<'a, T> = Option<&'a dyn Fn(&mut T)>;

/// Runs a stage's `edit`, when set, on the artifact of a `targeted`
/// function.
fn apply<T: ?Sized>(edit: Edit<'_, T>, targeted: bool, artifact: &mut T) {
    if let Some(edit) = edit {
        if targeted {
            edit(artifact);
        }
    }
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

/// The result of a compilation: assembly text, statistics, the pipeline
/// trace and the assembled program the built-in verifier checked.
#[derive(Debug, Clone)]
pub struct CompiledProgram {
    assembly: String,
    stats: CompileStats,
    trace: PipelineTrace,
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

    /// Per-stage pipeline snapshots for translation validation.
    ///
    /// Always `Some`: every compile records its trace. The `Option`
    /// stays only because `perfbench` matches on it, and goes when the
    /// benchmark harness next changes.
    #[must_use]
    pub fn trace(&self) -> Option<&PipelineTrace> {
        Some(&self.trace)
    }

    /// The assembled program the post-schedule verifier checked: exactly
    /// `epic_asm::assemble` of [`assembly`](CompiledProgram::assembly).
    ///
    /// Present until [`take_program`](CompiledProgram::take_program)
    /// moves it out.
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

/// The configuration that stands for `config`'s machine family: the
/// same configuration at one ALU and one issue slot.
///
/// Only the back half (superblock formation's issue-width gate and list
/// scheduling) reads the ALU count and the issue width, so every member
/// of a family shares one [front half](Compiler::front_half).
#[must_use]
pub fn machine_family(config: &Config) -> Config {
    config
        .to_builder()
        .num_alus(1)
        .issue_width(1)
        .build()
        .expect("a valid configuration stays valid at one ALU and one issue slot")
}

/// The front half of a compile: the module optimised, selected,
/// if-converted, fused and register-allocated, with the `_start` stub.
///
/// [`Compiler::front_half`] builds one. [`FrontHalf::back_half`]
/// finishes a copy of it, as often as the caller likes, for any compiler
/// of the same [machine family](machine_family);
/// [`FrontHalf::into_back_half`] finishes the front half itself. It
/// remembers the config it was built from; the back half takes only
/// what superblock formation reads, since every other option has
/// already done its work in the front half.
#[derive(Debug, Clone)]
pub struct FrontHalf {
    config: Config,
    abi: Abi,
    stats: CompileStats,
    /// The `_start` stub, then the module's functions, all allocated.
    functions: Vec<MFunction>,
    /// Translation-validation snapshots of `functions[1..]` (empty in
    /// a copy [without them](FrontHalf::without_snapshots)).
    snapshots: Vec<FrontSnapshots>,
}

/// One function's pre-allocation stage snapshots: the function after
/// selection, after if-conversion, and after fusion where fusion
/// changed it.
#[derive(Debug, Clone, Default)]
struct FrontSnapshots {
    post_select: Option<MFunction>,
    post_ifconv: Option<MFunction>,
    post_fuse: Option<MFunction>,
}

impl FrontHalf {
    /// A copy of the front half without its post-select, post-ifconv and
    /// post-fuse snapshots. Once a trace carrying them has been
    /// translation-validated, their checks (TV001–TV004, TV013) would
    /// repeat the same verdicts: those checkers read only the
    /// snapshots, the allocated functions and parameters the machine
    /// family fixes. The copy's back halves trace only their own stages.
    #[must_use]
    pub fn without_snapshots(&self) -> FrontHalf {
        FrontHalf {
            config: self.config.clone(),
            abi: self.abi.clone(),
            stats: self.stats,
            functions: self.functions.clone(),
            snapshots: Vec::new(),
        }
    }

    /// Runs the back half of the compile for `compiler`'s machine on a
    /// copy of the allocated functions (and of the snapshots, while the
    /// front half holds them): see
    /// [`into_back_half`](FrontHalf::into_back_half).
    ///
    /// # Errors
    ///
    /// As [`into_back_half`](FrontHalf::into_back_half).
    pub fn back_half(
        &self,
        compiler: &Compiler,
        superblock: bool,
        profile: Option<&ProfileData>,
    ) -> Result<CompiledProgram, CompileError> {
        self.clone().into_back_half(compiler, superblock, profile)
    }

    /// Runs the back half of the compile for `compiler`'s machine:
    /// superblock formation (when `superblock` is set and the machine
    /// issues at least two operations per cycle, steered by `profile`),
    /// control finalisation, scheduling, emission and the built-in
    /// `epic-verify` run over the assembled output.
    ///
    /// # Errors
    ///
    /// Returns [`CompileError::Internal`] when `compiler` targets another
    /// machine family than the front half was built for,
    /// [`CompileError::BranchTargetOutOfRange`] when the program is too
    /// long for its branches, [`CompileError::Verification`] when the
    /// verifier finds an error in the scheduled output, or
    /// [`CompileError::Internal`] when the emitted text does not
    /// assemble.
    pub fn into_back_half(
        self,
        compiler: &Compiler,
        superblock: bool,
        profile: Option<&ProfileData>,
    ) -> Result<CompiledProgram, CompileError> {
        let (assembly, stats, trace) =
            self.emit(compiler, superblock, profile, &Mutation::default())?;
        // The checked program rides along, so nobody assembles twice.
        let program = assemble_verified(&assembly, &compiler.config)?;
        Ok(CompiledProgram {
            assembly,
            stats,
            trace,
            program: Some(program),
        })
    }

    /// The back half up to the built-in verifier: superblock formation,
    /// control finalisation, scheduling and emission, with `mutation`'s
    /// edits. Returns the assembly, the statistics and the trace.
    fn emit(
        self,
        compiler: &Compiler,
        superblock: bool,
        profile: Option<&ProfileData>,
        mutation: &Mutation<'_>,
    ) -> Result<(String, CompileStats, PipelineTrace), CompileError> {
        if machine_family(compiler.config()) != machine_family(&self.config) {
            return Err(CompileError::Internal {
                message: format!(
                    "a front half built for {:?} cannot finish for {:?}: the machines differ \
                     in more than the ALU count and the issue width",
                    self.config,
                    compiler.config()
                ),
            });
        }
        let FrontHalf {
            abi,
            mut stats,
            functions,
            snapshots,
            ..
        } = self;
        let mdes = &compiler.mdes;
        let mut scheduled = Vec::with_capacity(functions.len());
        let mut names = Vec::with_capacity(functions.len());
        let mut trace = PipelineTrace::default();
        let mut functions = functions.into_iter();

        // The start-up stub comes first: its first bundle is the entry PC.
        let mut stub = functions.next().expect("a front half starts with `_start`");
        let stub_layout = finalize_control(&mut stub, &abi);
        let (blocks, s) = schedule_function(&stub, &stub_layout, mdes);
        absorb_sched(&mut stats.sched, &s);
        names.push(stub.name.clone());
        // The stub is born allocated; only the back-end stages exist. Its
        // schedule joins the trace once emitted.
        trace.functions.push(FunctionTrace {
            name: stub.name.clone(),
            post_select: None,
            post_ifconv: None,
            post_fuse: None,
            post_superblock: None,
            origin: None,
            traces: Vec::new(),
            post_regalloc: None,
            post_finalize: stub,
            layout: stub_layout,
            scheduled: Vec::new(),
        });
        scheduled.push(blocks);

        let mut snapshots = snapshots.into_iter();
        for mut mf in functions {
            let targeted = mutation.function == mf.name;
            let snapshot = snapshots.next().unwrap_or_default();
            let post_regalloc = Some(mf.clone());
            // Superblock formation runs on *allocated* code: cloning a
            // tail of physical registers cannot perturb the allocator,
            // whereas pre-allocation clones at the end of the block list
            // would stretch every cloned vreg's linear-scan interval
            // across the whole function and drown the win in spills.
            let mut post_superblock = None;
            let mut origin = None;
            let mut trace_groups: Vec<Vec<MBlockId>> = Vec::new();
            if superblock && mdes.issue_width() >= 2 {
                if let Some(f) = form_superblocks(&mut mf, profile) {
                    stats.superblock.absorb(f.stats);
                    apply(mutation.post_superblock, targeted, &mut mf);
                    post_superblock = Some(mf.clone());
                    origin = Some(f.origin);
                    trace_groups = f.traces;
                }
            }
            let fl = finalize_control(&mut mf, &abi);
            apply(mutation.post_finalize, targeted, &mut mf);
            let (mut blocks, s) = schedule_function_regions(&mf, &fl, &trace_groups, mdes);
            absorb_sched(&mut stats.sched, &s);
            apply(mutation.post_sched, targeted, &mut blocks);
            names.push(mf.name.clone());
            trace.functions.push(FunctionTrace {
                name: mf.name.clone(),
                post_select: snapshot.post_select,
                post_ifconv: snapshot.post_ifconv,
                post_fuse: snapshot.post_fuse,
                post_superblock,
                origin,
                traces: trace_groups,
                post_regalloc,
                post_finalize: mf,
                layout: fl,
                scheduled: Vec::new(),
            });
            scheduled.push(blocks);
        }

        let config = &compiler.config;
        check_branch_targets(&names, &scheduled, config)?;
        let mut assembly = emit_program(&scheduled, config);
        if let Some(edit) = mutation.post_emit {
            edit(&mut assembly);
        }
        for (function, blocks) in trace.functions.iter_mut().zip(scheduled) {
            function.scheduled = blocks;
        }
        Ok((assembly, stats, trace))
    }
}

/// Assembles the emitted text and runs `epic-verify`'s error pass over
/// it.
///
/// The scheduler claims its output respects the machine contract (port
/// budget, unit occupancy, prepared branches); this makes the claim
/// load-bearing. Warnings (scoreboard-covered hazards) are expected
/// across block boundaries and would be discarded, so only the error
/// pass runs: it reports exactly the errors the full check would.
fn assemble_verified(assembly: &str, config: &Config) -> Result<epic_asm::Program, CompileError> {
    let program = epic_asm::assemble(assembly, config).map_err(|e| CompileError::Internal {
        message: format!("emitted assembly does not assemble: {e}"),
    })?;
    let report = epic_verify::check_errors(&program, config);
    if report.has_errors() {
        let report = report
            .diagnostics()
            .iter()
            .map(|d| d.render("<scheduled output>", None))
            .collect();
        return Err(CompileError::Verification { report });
    }
    Ok(program)
}

/// Fails with [`CompileError::BranchTargetOutOfRange`] when a `PBR`
/// names a label whose bundle address the configured format's short
/// literal cannot hold. Labels resolve to bundle addresses in emission
/// order, as the assembler numbers them.
fn check_branch_targets(
    names: &[String],
    scheduled: &[Vec<ScheduledBlock>],
    config: &Config,
) -> Result<(), CompileError> {
    let (_, max) = config.instruction_format().short_literal_range();
    let bundles: usize = scheduled.iter().flatten().map(|b| b.bundles.len()).sum();
    if i64::try_from(bundles).is_ok_and(|n| n <= max + 1) {
        return Ok(());
    }
    let mut addresses = HashMap::new();
    let mut address = 0u32;
    for block in scheduled.iter().flatten() {
        addresses.insert(block.label.as_str(), address);
        address += block.bundles.len() as u32;
    }
    for (name, blocks) in names.iter().zip(scheduled) {
        let ops = blocks.iter().flat_map(|b| &b.bundles).flatten();
        for op in ops.filter(|op| op.opcode == Opcode::Pbr) {
            let MSrc::Label(label) = &op.src1 else {
                continue;
            };
            let Some(&address) = addresses.get(label.as_str()) else {
                continue;
            };
            if i64::from(address) > max {
                return Err(CompileError::BranchTargetOutOfRange {
                    function: name.clone(),
                    label: label.clone(),
                    address,
                });
            }
        }
    }
    Ok(())
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

    /// Compiles a module: the [front half](Compiler::front_half), then
    /// its [back half](FrontHalf::back_half) with the options' superblock
    /// switch and profile.
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
        self.front_half(module, options)?.into_back_half(
            self,
            options.superblock,
            options.profile.as_ref(),
        )
    }

    /// Runs the front half of a compile: optimisation, layout, the
    /// `_start` stub, selection, literal folding, if-conversion, fusion
    /// and register allocation. Superblock formation and everything
    /// after it is the [back half](FrontHalf::back_half).
    ///
    /// # Errors
    ///
    /// As [`Compiler::compile_with`].
    pub fn front_half(
        &self,
        module: &Module,
        options: &Options,
    ) -> Result<FrontHalf, CompileError> {
        self.front(module, options, &Mutation::default())
    }

    /// Compiles a module like [`compile_with`](Compiler::compile_with),
    /// with `mutation`'s stage edits, and returns the emitted assembly
    /// and the full pipeline trace.
    ///
    /// The built-in `epic-verify` run is skipped: a mutant must reach
    /// translation validation, not die inside the compiler. With
    /// `Mutation::default()` this is the way to inspect a schedule the
    /// verifier would reject.
    ///
    /// # Errors
    ///
    /// As [`Compiler::compile_with`], except that no
    /// [`CompileError::Verification`] is raised.
    pub fn compile_mutated(
        &self,
        module: &Module,
        options: &Options,
        mutation: &Mutation<'_>,
    ) -> Result<(String, PipelineTrace), CompileError> {
        let (assembly, _, trace) = self.front(module, options, mutation)?.emit(
            self,
            options.superblock,
            options.profile.as_ref(),
            mutation,
        )?;
        Ok((assembly, trace))
    }

    /// The front half with `mutation`'s edits.
    fn front(
        &self,
        module: &Module,
        options: &Options,
        mutation: &Mutation<'_>,
    ) -> Result<FrontHalf, CompileError> {
        if self.config.datapath_width() != 32 {
            return Err(CompileError::UnsupportedDatapathWidth {
                width: self.config.datapath_width(),
            });
        }
        let abi = Abi::new(&self.config)?;
        let mut module = module.clone();
        let mut stats = CompileStats {
            passes: passes::optimize(&mut module, &options.inline_hints),
            ..CompileStats::default()
        };

        let layout = module.layout().map_err(|e| CompileError::Internal {
            message: format!("module layout: {e}"),
        })?;

        let mut functions = Vec::with_capacity(module.functions.len() + 1);
        functions.push(self.start_stub(&abi, options, layout.initial_sp())?);
        let mut snapshots = Vec::with_capacity(module.functions.len());
        for func in &module.functions {
            let targeted = mutation.function == func.name;
            let mut mf = select(func, &self.config)?;
            fold_literal_operands(&mut mf, &self.config);
            let post_select = Some(mf.clone());
            let s = if_convert(&mut mf);
            stats.ifconv.diamonds += s.diamonds;
            stats.ifconv.triangles += s.triangles;
            stats.ifconv.predicated_insts += s.predicated_insts;
            apply(mutation.post_ifconv, targeted, &mut mf);
            let mut snapshot = FrontSnapshots {
                post_select,
                post_ifconv: Some(mf.clone()),
                post_fuse: None,
            };
            let fs = fuse(&mut mf, &self.config);
            if fs != FuseStats::default() {
                stats.fuse.fused += fs.fused;
                stats.fuse.ops_removed += fs.ops_removed;
                apply(mutation.post_fuse, targeted, &mut mf);
                snapshot.post_fuse = Some(mf.clone());
            }
            let ra = allocate(&mut mf, &abi, &self.config)?;
            stats.regalloc.spilled += ra.spilled;
            stats.regalloc.call_saves += ra.call_saves;
            stats.regalloc.frame_bytes += ra.frame_bytes;
            apply(mutation.post_regalloc, targeted, &mut mf);
            functions.push(mf);
            snapshots.push(snapshot);
        }
        Ok(FrontHalf {
            config: self.config.clone(),
            abi,
            stats,
            functions,
            snapshots,
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
    fn a_front_half_finishes_like_fresh_compiles() {
        let f = FunctionDef::new("main", ["n"]).body([
            Stmt::let_("acc", Expr::lit(0)),
            Stmt::for_(
                "i",
                Expr::lit(0),
                Expr::var("n"),
                [Stmt::assign("acc", Expr::var("acc") + Expr::var("i"))],
            ),
            Stmt::ret(Expr::var("acc")),
        ]);
        let module = lower::lower(&Program::new().function(f)).unwrap();
        let compiler = Compiler::new(Config::default());
        let options = Options::default();
        let training = Options {
            superblock: false,
            ..options.clone()
        };
        let front = compiler.front_half(&module, &options).unwrap();
        let pairs = [
            (
                front.back_half(&compiler, false, None).unwrap(),
                compiler.compile_with(&module, &training).unwrap(),
            ),
            (
                front.back_half(&compiler, true, None).unwrap(),
                compiler.compile_with(&module, &options).unwrap(),
            ),
        ];
        for (split, whole) in &pairs {
            assert_eq!(split.assembly(), whole.assembly());
            assert_eq!(split.stats(), whole.stats());
            assert_eq!(split.trace(), whole.trace());
        }
        assert_ne!(pairs[0].0.assembly(), pairs[1].0.assembly());
    }

    #[test]
    fn a_front_half_finishes_only_for_its_machine_family() {
        let p = Program::new().function(
            FunctionDef::new("main", ["x"]).body([Stmt::ret(Expr::var("x") * Expr::lit(3))]),
        );
        let module = lower::lower(&p).unwrap();
        let narrow = Config::builder()
            .num_alus(1)
            .issue_width(1)
            .build()
            .unwrap();
        let front = Compiler::new(narrow.clone())
            .front_half(&module, &Options::default())
            .unwrap();
        let wide = Compiler::new(Config::default());
        let served = front.back_half(&wide, true, None).unwrap();
        let fresh = wide.compile(&module).unwrap();
        assert_eq!(served.assembly(), fresh.assembly());
        assert_eq!(served.trace(), fresh.trace());
        let more_gprs = Compiler::new(narrow.to_builder().num_gprs(48).build().unwrap());
        let err = front.back_half(&more_gprs, true, None).unwrap_err();
        assert!(
            matches!(&err, CompileError::Internal { message }
                if message.contains("num_gprs: 64") && message.contains("num_gprs: 48")),
            "{err}"
        );
    }

    #[test]
    fn a_front_half_without_snapshots_traces_only_the_back_half() {
        let p = Program::new().function(FunctionDef::new("main", ["x"]).body([
            Stmt::let_("r", Expr::lit(0)),
            Stmt::if_else(
                Expr::var("x").gt_s(Expr::lit(0)),
                [Stmt::assign("r", Expr::lit(1))],
                [Stmt::assign("r", Expr::lit(2))],
            ),
            Stmt::ret(Expr::var("r")),
        ]));
        let module = lower::lower(&p).unwrap();
        let compiler = Compiler::new(Config::default());
        let front = compiler.front_half(&module, &Options::default()).unwrap();
        let lean = front
            .without_snapshots()
            .back_half(&compiler, true, None)
            .unwrap();
        let full = front.into_back_half(&compiler, true, None).unwrap();
        assert_eq!(lean.assembly(), full.assembly());
        assert_eq!(lean.stats(), full.stats());
        let mut stripped = full.trace().unwrap().clone();
        for f in &mut stripped.functions {
            assert!(f.name == "_start" || f.post_select.is_some());
            (f.post_select, f.post_ifconv, f.post_fuse) = (None, None, None);
        }
        assert_eq!(lean.trace(), Some(&stripped));
    }

    #[test]
    fn far_branch_targets_fail_with_a_typed_error() {
        // Straight-line register-only statements compile in linear time.
        // At two ops each, they push `f`, defined after `main`, past
        // bundle 16,383 on a one-slot machine, beyond the default
        // format's short literal.
        let mut body: Vec<Stmt> = (0..8_200)
            .map(|k| Stmt::assign("a", (Expr::var("a") + Expr::var("b")) ^ Expr::lit(k)))
            .collect();
        body.push(Stmt::ret(Expr::call("f", [Expr::var("a")])));
        let p = Program::new()
            .function(FunctionDef::new("main", ["a", "b"]).body(body))
            .function(
                FunctionDef::new("f", ["y"]).body([Stmt::ret(Expr::var("y") + Expr::lit(1))]),
            );
        let module = lower::lower(&p).unwrap();
        let config = Config::builder()
            .num_alus(1)
            .issue_width(1)
            .build()
            .unwrap();
        let options = Options {
            entry_args: vec![1, 2],
            ..Options::default()
        };
        let err = Compiler::new(config)
            .compile_with(&module, &options)
            .unwrap_err();
        assert!(
            matches!(&err, CompileError::BranchTargetOutOfRange { function, label, address }
                if function == "main" && label == "fn_f" && *address > 16_383),
            "{err}"
        );
    }

    #[test]
    fn verifier_errors_fail_the_compile_and_warnings_do_not() {
        let config = Config::default();
        let verdict = |text: &str| assemble_verified(text, &config);
        for (text, code) in [
            // VER005: a branch through a BTR no `PBR` prepares.
            ("ADD r1, r1, #1\n;;\nBR b2\n;;\nHALT\n;;\n", "VER005"),
            // VER003: nine register-file operations against a budget of
            // eight, which the assembler itself accepts.
            (
                "ADD r1, r2, r3\nADD r4, r5, r6\nADD r7, r8, r9\n;;\nHALT\n;;\n",
                "VER003",
            ),
        ] {
            let err = verdict(text).unwrap_err();
            assert!(
                matches!(&err, CompileError::Verification { report } if report.contains(code)),
                "{code}: {err}"
            );
        }
        // VER004 alone: the consumer races the load's latency, which the
        // scoreboard covers, so the program is returned.
        let hazard = "MOVIL r1, #0\n;;\nLW r2, r1, #0\n;;\nADD r3, r2, #1\n;;\nHALT\n;;\n";
        let program = epic_asm::assemble(hazard, &config).unwrap();
        assert!(epic_verify::check(&program, &config).has_code("VER004"));
        assert_eq!(verdict(hazard).unwrap().bundles(), program.bundles());
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
}
