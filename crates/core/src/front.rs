//! Front halves, memoised by program, options and machine family.
//!
//! The compiler's front half (optimisation through register allocation)
//! reads neither the ALU count nor the issue width, so every point of a
//! design-space grid that shares the rest of the configuration shares
//! one allocated program. [`FRONTS`] keeps one entry per workload
//! program, [`Options`] and [machine family](machine_family): the
//! initial memory image, the front half and, once a machine of issue
//! width ≥ 2 asks for it, the trained profile. A served job runs only
//! the back half for its own machine, its translation validation and
//! the simulation.
//!
//! At issue width ≥ 2 the workload runners form superblocks from a
//! profile: per-block entry counts from a training run. Training
//! finishes the front half with formation off, verifies and
//! translation-validates that binary, runs it on the decoded engine
//! under a [`ProfileSink`], and folds the issue counts through the label
//! table. Which blocks run, and how often, depends only on the
//! allocated program and its inputs, never on the schedule: training
//! schedules each block alone, and translation validation proves that
//! every block's schedule refines the block. So one profile serves the
//! whole family.

use crate::toolchain::{PreparedProgram, Toolchain, ToolchainError};
use epic_compiler::superblock::ProfileData;
use epic_compiler::{machine_family, FrontHalf, Options};
use epic_config::Config;
use epic_ir::ast::Program;
use epic_ir::lower;
use epic_sim::ProfileSink;
use std::borrow::Cow;
use std::collections::HashMap;
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError};

/// The memo every workload runner in the process shares.
pub(crate) static FRONTS: FrontMemo = FrontMemo::new();

/// What decides a front half, its memory image and its profile.
#[derive(PartialEq)]
struct FrontKey<'a> {
    program: Cow<'a, Program>,
    options: Cow<'a, Options>,
    /// [`machine_family`] of the configuration.
    family: Config,
}

impl FrontKey<'_> {
    fn into_owned(self) -> FrontKey<'static> {
        FrontKey {
            program: Cow::Owned(self.program.into_owned()),
            options: Cow::Owned(self.options.into_owned()),
            family: self.family,
        }
    }
}

/// One program's front half for one machine family.
struct Entry {
    key: FrontKey<'static>,
    image: Vec<u8>,
    /// Validated once, with its snapshots, before it was published;
    /// published without them.
    front: FrontHalf,
    profile: OnceLock<Option<ProfileData>>,
}

impl Entry {
    /// The entry's profile, trained for `toolchain`'s machine by the
    /// first request that needs it. Racing requests may both train;
    /// the first to finish wins.
    fn profile(&self, toolchain: &Toolchain) -> Result<Option<&ProfileData>, ToolchainError> {
        if let Some(profile) = self.profile.get() {
            return Ok(profile.as_ref());
        }
        let trained = train_profile(toolchain, &self.front, &self.image)?;
        Ok(self.profile.get_or_init(|| trained).as_ref())
    }
}

/// Front halves, one entry per distinct [`FrontKey`].
pub(crate) struct FrontMemo {
    entries: Mutex<Vec<Arc<Entry>>>,
}

impl FrontMemo {
    pub(crate) const fn new() -> Self {
        FrontMemo {
            entries: Mutex::new(Vec::new()),
        }
    }

    /// Compiles `program` for `toolchain`'s machine, assembles and
    /// translation-validates it: served from the memo, or built and
    /// memoised.
    ///
    /// A miss lowers the program, builds the front half, trains at issue
    /// width ≥ 2, runs the back half and validates the full trace. Only
    /// then does it publish the entry, without its snapshots. A hit runs
    /// the back half from the shared entry; its trace carries only the
    /// back-half stages, which is what it validates.
    ///
    /// `table1` and `explore::sweep` run design points on rayon threads,
    /// so the lock is not held while building or training. Two racing
    /// misses both build; the first insert wins.
    pub(crate) fn prepare(
        &self,
        toolchain: &Toolchain,
        program: &Program,
        options: &Options,
    ) -> Result<PreparedProgram, ToolchainError> {
        let key = FrontKey {
            program: Cow::Borrowed(program),
            options: Cow::Borrowed(options),
            family: machine_family(toolchain.config()),
        };
        let Some(entry) = self.find(&key) else {
            let (entry, prepared) = build(toolchain, key)?;
            self.publish(entry);
            return Ok(prepared);
        };
        let profile = if toolchain.config().issue_width() >= 2 {
            entry.profile(toolchain)?
        } else {
            None
        };
        let compiled = entry
            .front
            .back_half(toolchain.compiler(), options.superblock, profile)?;
        toolchain.validate(compiled, entry.image.clone())
    }

    /// The entry memoised under `key`. A lookup compares whole keys.
    fn find(&self, key: &FrontKey<'_>) -> Option<Arc<Entry>> {
        self.lock().iter().find(|e| e.key == *key).cloned()
    }

    /// Memoises `entry` unless an entry with its key won a race to get
    /// here first; returns the memoised one.
    fn publish(&self, entry: Entry) -> Arc<Entry> {
        let mut entries = self.lock();
        if let Some(first) = entries.iter().find(|e| e.key == entry.key) {
            return Arc::clone(first);
        }
        let entry = Arc::new(entry);
        entries.push(Arc::clone(&entry));
        entry
    }

    fn lock(&self) -> MutexGuard<'_, Vec<Arc<Entry>>> {
        // Every update is one push of a whole entry, so the entries stay
        // valid even if a thread panicked while holding the lock.
        self.entries.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// The miss path: everything a fresh compile checks, then the entry to
/// publish (snapshots dropped) and the prepared program.
fn build(
    toolchain: &Toolchain,
    key: FrontKey<'_>,
) -> Result<(Entry, PreparedProgram), ToolchainError> {
    let key = key.into_owned();
    let module = lower::lower(&key.program)?;
    let image = module.initial_memory(&module.layout()?);
    let front = toolchain.compiler().front_half(&module, &key.options)?;
    let profile = if toolchain.config().issue_width() >= 2 {
        Some(train_profile(toolchain, &front, &image)?)
    } else {
        None
    };
    let lean = front.without_snapshots();
    let compiled = front.into_back_half(
        toolchain.compiler(),
        key.options.superblock,
        profile.as_ref().and_then(Option::as_ref),
    )?;
    let prepared = toolchain.validate(compiled, image.clone())?;
    let entry = Entry {
        key,
        image,
        front: lean,
        profile: profile.map_or_else(OnceLock::new, OnceLock::from),
    };
    Ok((entry, prepared))
}

/// The training run: the back half with formation off (built-in
/// verifier included), translation validation, the decoded engine under
/// a [`ProfileSink`], and a fold of the per-address issue counts through
/// the assembler's label table into per-block entry counts (a block's
/// entries are the issues of its first bundle, the same attribution
/// `epic_obs::BlockProfile` uses).
fn train_profile(
    toolchain: &Toolchain,
    front: &FrontHalf,
    image: &[u8],
) -> Result<Option<ProfileData>, ToolchainError> {
    let compiled = front.back_half(toolchain.compiler(), false, None)?;
    let prepared = toolchain.validate(compiled, image.to_vec())?;
    let mut sink = ProfileSink::default();
    let run = toolchain.run_prepared_observed(prepared, &mut sink)?;
    let issues_at: HashMap<u32, u64> = sink.per_pc().map(|(pc, c)| (pc, c.issues)).collect();
    let mut profile = ProfileData::new();
    for (label, &addr) in run.program.labels() {
        profile.record(label.clone(), issues_at.get(&addr).copied().unwrap_or(0));
    }
    Ok((!profile.is_empty()).then_some(profile))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::{prepare_epic_workload, workload_options};
    use epic_compiler::trace::PipelineTrace;
    use epic_compiler::CompileStats;
    use epic_config::{CustomOp, CustomSemantics, ExprTree};
    use epic_ir::ast::{Expr, FunctionDef, Stmt};
    use epic_ir::Global;
    use epic_workloads::{Scale, Workload};
    use rayon::prelude::*;
    use std::sync::Barrier;

    impl FrontMemo {
        fn len(&self) -> usize {
            self.lock().len()
        }

        /// The profile memoised for `program`, if one was trained.
        fn profile_of(&self, program: &Program) -> Option<ProfileData> {
            let entries = self.lock();
            let entry = entries.iter().find(|e| *e.key.program == *program)?;
            entry.profile.get().cloned().flatten()
        }
    }

    /// The 16 configurations of the Test grid.
    fn grid() -> Vec<Config> {
        let mut points = Vec::new();
        for alus in 1..=4 {
            for issue_width in 1..=4 {
                let config = Config::builder()
                    .num_alus(alus)
                    .issue_width(issue_width)
                    .build()
                    .expect("valid grid configuration");
                points.push(config);
            }
        }
        points
    }

    fn point(name: &str, config: &Config) -> String {
        format!("{name} at {}x{}", config.num_alus(), config.issue_width())
    }

    fn workload(name: &str) -> Workload {
        epic_workloads::all(Scale::Test)
            .into_iter()
            .find(|w| w.name == name)
            .expect("built-in workload")
    }

    /// What a served compile must reproduce: the assembly, the
    /// statistics and the back-half stages of the trace.
    #[derive(PartialEq)]
    struct Outcome {
        assembly: String,
        stats: CompileStats,
        trace: PipelineTrace,
    }

    fn outcome(prepared: &PreparedProgram) -> Outcome {
        let mut trace = prepared
            .compiled
            .trace()
            .expect("a verifying compile")
            .clone();
        for f in &mut trace.functions {
            (f.post_select, f.post_ifconv, f.post_fuse) = (None, None, None);
        }
        Outcome {
            assembly: prepared.compiled.assembly().to_owned(),
            stats: *prepared.compiled.stats(),
            trace,
        }
    }

    /// A fresh compile of `program` for `config`, with a freshly trained
    /// profile at issue width ≥ 2, that never touches a memo.
    fn fresh(program: &Program, options: &Options, config: &Config) -> Outcome {
        let toolchain = Toolchain::new(config.clone());
        let module = lower::lower(program).expect("program lowers");
        let image = module.initial_memory(&module.layout().expect("program lays out"));
        let profile = if config.issue_width() >= 2 {
            let front = toolchain
                .compiler()
                .front_half(&module, options)
                .expect("front half");
            train_profile(&toolchain, &front, &image).expect("training")
        } else {
            None
        };
        let options = Options {
            profile,
            ..options.clone()
        };
        outcome(&toolchain.prepare(&module, &options).expect("fresh compile"))
    }

    #[test]
    fn served_grid_equals_fresh_compiles_on_one_and_three_threads() {
        let workloads = epic_workloads::all(Scale::Test);
        let jobs: Vec<(&Workload, Config)> = workloads
            .iter()
            .flat_map(|w| grid().into_iter().map(move |c| (w, c)))
            .collect();
        let fresh: Vec<Outcome> = jobs
            .iter()
            .map(|(w, c)| fresh(&w.program, &workload_options(w), c))
            .collect();
        for ((w, config), want) in jobs.iter().zip(&fresh) {
            let (_, served) = prepare_epic_workload(w, config).expect("served");
            assert!(outcome(&served) == *want, "{}", point(&w.name, config));
        }

        let memo = FrontMemo::new();
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(3)
            .build()
            .expect("pool");
        let served: Vec<Outcome> = pool.install(|| {
            jobs.clone()
                .into_par_iter()
                .map(|(w, config)| {
                    let toolchain = Toolchain::new(config);
                    let prepared = memo
                        .prepare(&toolchain, &w.program, &workload_options(w))
                        .expect("served");
                    outcome(&prepared)
                })
                .collect()
        });
        assert_eq!(memo.len(), workloads.len());
        for (((w, config), served), want) in jobs.iter().zip(&served).zip(&fresh) {
            assert!(served == want, "{} on 3 threads", point(&w.name, config));
        }
    }

    /// A loop whose trip count is the initial value of a global.
    fn counted_loop(trips: u32) -> Program {
        Program::new()
            .global(Global::with_words("trips", &[trips]))
            .global(Global::zeroed("out", 4))
            .function(FunctionDef::new("main", [] as [&str; 0]).body([
                Stmt::let_("acc", Expr::lit(0)),
                Stmt::for_(
                    "i",
                    Expr::lit(0),
                    Expr::global("trips").load_word(),
                    [Stmt::assign("acc", Expr::var("acc") + Expr::var("i"))],
                ),
                Stmt::store_word(Expr::global("out"), Expr::var("acc")),
                Stmt::ret(Expr::var("acc")),
            ]))
    }

    #[test]
    fn other_machine_families_and_programs_miss() {
        let sha = workload("sha");
        let options = workload_options(&sha);
        let memo = FrontMemo::new();
        let base = Config::default();
        memo.prepare(&Toolchain::new(base.clone()), &sha.program, &options)
            .expect("served");
        let andn = ExprTree::parse("and(xor(a0,4294967295),a1)").expect("tree parses");
        let families = [
            (
                "sha_rotr",
                base.to_builder()
                    .custom_op(CustomOp::new("sha_rotr", CustomSemantics::RotateRight)),
            ),
            (
                "isx_sha_andn",
                base.to_builder().custom_op(
                    CustomOp::new("isx_sha_andn", CustomSemantics::Fused(andn)).with_latency(1),
                ),
            ),
            ("48 GPRs", base.to_builder().num_gprs(48)),
        ];
        for (name, builder) in families {
            let config = builder.build().expect("valid configuration");
            let entries = memo.len();
            let served = memo
                .prepare(&Toolchain::new(config.clone()), &sha.program, &options)
                .expect("served");
            assert_eq!(memo.len(), entries + 1, "{name} hit the memo");
            assert!(
                outcome(&served) == fresh(&sha.program, &options, &config),
                "{name}"
            );
        }

        let toolchain = Toolchain::new(base);
        let (few, many) = (counted_loop(3), counted_loop(11));
        for program in [&few, &many] {
            let entries = memo.len();
            memo.prepare(&toolchain, program, &Options::default())
                .expect("served");
            assert_eq!(memo.len(), entries + 1, "a different image hit the memo");
        }
        let few_profile = memo.profile_of(&few);
        assert!(few_profile.is_some());
        assert_ne!(few_profile, memo.profile_of(&many));
    }

    #[test]
    fn racing_misses_both_build_and_the_first_insert_wins() {
        let sha = workload("sha");
        let options = workload_options(&sha);
        let toolchain = Toolchain::new(Config::default());
        let key = || FrontKey {
            program: Cow::Borrowed(&sha.program),
            options: Cow::Borrowed(&options),
            family: machine_family(toolchain.config()),
        };
        let memo = FrontMemo::new();
        let both_missed = Barrier::new(2);
        let winners: Vec<Arc<Entry>> = std::thread::scope(|scope| {
            let racers: Vec<_> = (0..2)
                .map(|_| {
                    scope.spawn(|| {
                        assert!(memo.find(&key()).is_none());
                        both_missed.wait();
                        let (entry, _) = build(&toolchain, key()).expect("built");
                        memo.publish(entry)
                    })
                })
                .collect();
            racers
                .into_iter()
                .map(|racer| racer.join().expect("racer"))
                .collect()
        });
        assert_eq!(memo.len(), 1);
        assert!(
            Arc::ptr_eq(&winners[0], &winners[1]),
            "both racers get the first insert"
        );
        let hit = memo.find(&key()).expect("a hit");
        assert!(Arc::ptr_eq(&hit, &winners[0]));
    }

    #[test]
    fn a_failing_build_publishes_nothing() {
        // Compiles cleanly, but faults when training runs it.
        let program = Program::new().function(
            FunctionDef::new("main", [] as [&str; 0])
                .body([Stmt::ret(Expr::lit(0x7fff_0000).load_word())]),
        );
        let options = Options::default();
        let memo = FrontMemo::new();
        let wide = Toolchain::new(Config::default());
        let trains = |memo: &FrontMemo| memo.prepare(&wide, &program, &options);
        assert!(matches!(trains(&memo), Err(ToolchainError::Sim(_))));
        assert_eq!(memo.len(), 0);
        let narrow = Config::builder()
            .num_alus(1)
            .issue_width(1)
            .build()
            .unwrap();
        memo.prepare(&Toolchain::new(narrow), &program, &options)
            .expect("issue width 1 does not train");
        assert_eq!(memo.len(), 1, "the next lookup did not build");
        assert!(matches!(trains(&memo), Err(ToolchainError::Sim(_))));
        assert_eq!(memo.profile_of(&program), None);
    }

    #[test]
    fn only_the_first_compile_of_an_entry_traces_the_front_stages() {
        let program = counted_loop(5);
        let options = Options::default();
        let memo = FrontMemo::new();
        let has_snapshots = |prepared: &PreparedProgram| {
            let trace = prepared.compiled.trace().expect("a verifying compile");
            trace.functions[1].post_select.is_some()
        };
        let [first, later] = [(1, 1), (4, 4)].map(|(alus, issue_width)| {
            let config = Config::builder()
                .num_alus(alus)
                .issue_width(issue_width)
                .build()
                .unwrap();
            memo.prepare(&Toolchain::new(config), &program, &options)
                .expect("served")
        });
        assert!(has_snapshots(&first));
        assert!(!has_snapshots(&later));
    }
}
