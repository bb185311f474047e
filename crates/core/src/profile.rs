//! Trained profiles, memoised by allocated program.
//!
//! At issue width ≥ 2 the workload runners form superblocks from a
//! profile: per-block entry counts from a training run. Training
//! finishes a clone of the compile's front half with formation off,
//! verifies and translation-validates that binary, runs it on the
//! decoded engine under a [`ProfileSink`], and folds the issue counts
//! through the label table. [`PROFILES`] keeps every profile it trains,
//! so a process that compiles one allocated program at many design
//! points trains it once.

use crate::toolchain::{Toolchain, ToolchainError};
use epic_compiler::mir::MFunction;
use epic_compiler::superblock::ProfileData;
use epic_compiler::FrontHalf;
use epic_config::Config;
use epic_sim::ProfileSink;
use std::borrow::Cow;
use std::collections::HashMap;
use std::hash::{DefaultHasher, Hash, Hasher};
use std::sync::{Mutex, MutexGuard, PoisonError};

/// The memo every workload runner in the process shares.
pub(crate) static PROFILES: ProfileMemo = ProfileMemo::new();

/// What decides the block entry counts of a training run.
#[derive(PartialEq, Eq, Hash)]
struct ProfileKey<'a> {
    functions: Cow<'a, [MFunction]>,
    image: Cow<'a, [u8]>,
    verify: bool,
    config: Config,
}

impl<'a> ProfileKey<'a> {
    /// The key of training `front`, built by `toolchain`, from `image`.
    ///
    /// Training schedules with superblock formation off, so each block
    /// is scheduled alone, and translation validation proves that every
    /// block's schedule refines the block. Which blocks run, and how
    /// often, therefore depends only on the allocated program and its
    /// inputs: the functions (the `_start` stub among them carries the
    /// entry arguments and the initial stack pointer) and the memory
    /// image the run loads. The ALU count and the issue width change
    /// only the schedules, so the key ignores them. Every other
    /// configuration parameter — custom ops, register counts,
    /// latencies — stays in, and any difference misses. So does
    /// `verify`: a profile trained without the verifier and TV never
    /// serves a compile that runs them.
    fn new(toolchain: &Toolchain, front: &'a FrontHalf<'_>, image: &'a [u8]) -> Self {
        let config = toolchain
            .config()
            .to_builder()
            .num_alus(1)
            .issue_width(1)
            .build()
            .expect("a valid configuration stays valid at one ALU and one issue slot");
        ProfileKey {
            functions: Cow::Borrowed(front.functions()),
            image: Cow::Borrowed(image),
            verify: front.options().verify,
            config,
        }
    }

    fn into_owned(self) -> ProfileKey<'static> {
        ProfileKey {
            functions: Cow::Owned(self.functions.into_owned()),
            image: Cow::Owned(self.image.into_owned()),
            verify: self.verify,
            config: self.config,
        }
    }

    fn fingerprint(&self) -> u64 {
        let mut hasher = DefaultHasher::new();
        self.hash(&mut hasher);
        hasher.finish()
    }
}

/// Trained profiles, one entry per distinct [`ProfileKey`].
pub(crate) struct ProfileMemo {
    entries: Mutex<Vec<Entry>>,
}

struct Entry {
    fingerprint: u64,
    key: ProfileKey<'static>,
    profile: Option<ProfileData>,
}

impl ProfileMemo {
    pub(crate) const fn new() -> Self {
        ProfileMemo {
            entries: Mutex::new(Vec::new()),
        }
    }

    /// The profile that trains `front` from `image`: memoised, or
    /// trained by [`train_profile`] and memoised.
    pub(crate) fn profile(
        &self,
        toolchain: &Toolchain,
        front: &FrontHalf<'_>,
        image: &[u8],
    ) -> Result<Option<ProfileData>, ToolchainError> {
        let key = ProfileKey::new(toolchain, front, image);
        self.get_or_train(key, || train_profile(toolchain, front.clone(), image))
    }

    /// The profile memoised under `key`, or the one `train` returns,
    /// memoised. A lookup compares the whole key, not only its
    /// fingerprint.
    ///
    /// Grid drivers run design points on rayon threads, so the lock is
    /// not held while training. Two racing misses may both train; the
    /// first insert wins.
    fn get_or_train(
        &self,
        key: ProfileKey<'_>,
        train: impl FnOnce() -> Result<Option<ProfileData>, ToolchainError>,
    ) -> Result<Option<ProfileData>, ToolchainError> {
        let fingerprint = key.fingerprint();
        let find = |entries: &[Entry]| {
            entries
                .iter()
                .find(|e| e.fingerprint == fingerprint && e.key == key)
                .map(|e| e.profile.clone())
        };
        if let Some(profile) = find(&self.lock()) {
            return Ok(profile);
        }
        let trained = train()?;
        let mut entries = self.lock();
        if let Some(profile) = find(&entries) {
            return Ok(profile);
        }
        entries.push(Entry {
            fingerprint,
            key: key.into_owned(),
            profile: trained.clone(),
        });
        Ok(trained)
    }

    fn lock(&self) -> MutexGuard<'_, Vec<Entry>> {
        // Every update is one push of a whole entry, so the entries stay
        // valid even if a thread panicked while holding the lock.
        self.entries.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// The training run the memo wraps: the back half with formation off
/// (built-in verifier included), translation validation, the decoded
/// engine under a [`ProfileSink`], and a fold of the per-address issue
/// counts through the assembler's label table into per-block entry
/// counts (a block's entries are the issues of its first bundle, the
/// same attribution `epic_obs::BlockProfile` uses).
fn train_profile(
    toolchain: &Toolchain,
    front: FrontHalf<'_>,
    image: &[u8],
) -> Result<Option<ProfileData>, ToolchainError> {
    let compiled = front.back_half(false, None)?;
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
    use crate::experiments::workload_options;
    use epic_config::{CustomOp, CustomSemantics, ExprTree};
    use epic_ir::ast::{Expr, FunctionDef, Program, Stmt};
    use epic_ir::{lower, Global, Module};
    use epic_workloads::{Scale, Workload};
    use rayon::prelude::*;
    use std::sync::Barrier;

    impl ProfileMemo {
        fn len(&self) -> usize {
            self.lock().len()
        }
    }

    /// The issue-width ≥ 2 points of the Test grid.
    fn trained_points() -> Vec<Config> {
        let mut points = Vec::new();
        for alus in 1..=4 {
            for issue_width in 2..=4 {
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

    /// What the workload runners compile from: the lowered module and
    /// its initial memory image.
    fn lowered(workload: &Workload) -> (Module, Vec<u8>) {
        let module = lower::lower(&workload.program).expect("workload lowers");
        let image = module.initial_memory(&module.layout().expect("workload lays out"));
        (module, image)
    }

    fn workload(name: &str) -> Workload {
        epic_workloads::all(Scale::Test)
            .into_iter()
            .find(|w| w.name == name)
            .expect("built-in workload")
    }

    #[test]
    fn memoised_profiles_equal_fresh_training_at_every_trained_point() {
        for workload in epic_workloads::all(Scale::Test) {
            let (module, image) = lowered(&workload);
            let options = workload_options(&workload);
            for config in trained_points() {
                let point = format!(
                    "{} at {}x{}",
                    workload.name,
                    config.num_alus(),
                    config.issue_width()
                );
                let toolchain = Toolchain::new(config);
                let front = toolchain
                    .compiler()
                    .front_half(&module, &options)
                    .expect("front half");
                let served = PROFILES
                    .profile(&toolchain, &front, &image)
                    .expect("served");
                let fresh = train_profile(&toolchain, front, &image).expect("fresh");
                assert!(fresh.is_some(), "{point}: training recorded no blocks");
                assert_eq!(served, fresh, "{point}");
            }
        }
    }

    #[test]
    fn a_threaded_grid_leaves_one_entry_per_kernel() {
        let workloads = epic_workloads::all(Scale::Test);
        let jobs: Vec<(&Workload, Config)> = workloads
            .iter()
            .flat_map(|w| trained_points().into_iter().map(move |c| (w, c)))
            .collect();
        let memo = ProfileMemo::new();
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(3)
            .build()
            .expect("pool");
        let served: Vec<Option<ProfileData>> = pool.install(|| {
            jobs.clone()
                .into_par_iter()
                .map(|(workload, config)| {
                    let (module, image) = lowered(workload);
                    let toolchain = Toolchain::new(config);
                    let front = toolchain
                        .compiler()
                        .front_half(&module, &workload_options(workload))
                        .expect("front half");
                    memo.profile(&toolchain, &front, &image).expect("served")
                })
                .collect()
        });
        assert_eq!(memo.len(), workloads.len());
        for workload in &workloads {
            let (module, image) = lowered(workload);
            let toolchain = Toolchain::new(trained_points().swap_remove(0));
            let front = toolchain
                .compiler()
                .front_half(&module, &workload_options(workload))
                .expect("front half");
            let fresh = train_profile(&toolchain, front, &image).expect("fresh");
            for ((w, config), profile) in jobs.iter().zip(&served) {
                if w.name == workload.name {
                    assert_eq!(
                        *profile,
                        fresh,
                        "{} at {}x{}",
                        w.name,
                        config.num_alus(),
                        config.issue_width()
                    );
                }
            }
        }
    }

    #[test]
    fn custom_op_configs_miss_and_train_their_own_profiles() {
        let sha = workload("sha");
        let (module, image) = lowered(&sha);
        let options = workload_options(&sha);
        let memo = ProfileMemo::new();
        let base = Toolchain::new(Config::default());
        let base_front = base.compiler().front_half(&module, &options).unwrap();
        memo.profile(&base, &base_front, &image).unwrap();
        let andn = ExprTree::parse("and(xor(a0,4294967295),a1)").expect("tree parses");
        let custom = [
            CustomOp::new("sha_rotr", CustomSemantics::RotateRight),
            CustomOp::new("isx_sha_andn", CustomSemantics::Fused(andn)).with_latency(1),
        ];
        for op in custom {
            let name = op.name().to_owned();
            let config = Config::builder().custom_op(op).build().unwrap();
            let toolchain = Toolchain::new(config);
            let front = toolchain.compiler().front_half(&module, &options).unwrap();
            assert_ne!(
                front.functions(),
                base_front.functions(),
                "{name} leaves sha's allocated program unchanged"
            );
            let entries = memo.len();
            let served = memo.profile(&toolchain, &front, &image).unwrap();
            assert_eq!(memo.len(), entries + 1, "{name} hit the memo");
            let fresh = train_profile(&toolchain, front, &image).unwrap();
            assert_eq!(served, fresh, "{name}");
        }
    }

    #[test]
    fn racing_misses_both_train_and_the_first_insert_wins() {
        let key = || ProfileKey {
            functions: Cow::Owned(Vec::new()),
            image: Cow::Borrowed(&[]),
            verify: true,
            config: Config::default(),
        };
        let memo = ProfileMemo::new();
        let both_missed = Barrier::new(2);
        let served: Vec<Option<ProfileData>> = std::thread::scope(|scope| {
            let racers: Vec<_> = (0..2u64)
                .map(|count| {
                    let (memo, both_missed) = (&memo, &both_missed);
                    scope.spawn(move || {
                        memo.get_or_train(key(), || {
                            both_missed.wait();
                            let mut profile = ProfileData::new();
                            profile.record("main_bb0", count);
                            Ok(Some(profile))
                        })
                    })
                })
                .collect();
            racers
                .into_iter()
                .map(|racer| racer.join().expect("racer").expect("trained"))
                .collect()
        });
        assert_eq!(memo.len(), 1);
        assert_eq!(served[0], served[1], "both racers get the first insert");
        let hit = memo.get_or_train(key(), || unreachable!("a hit does not train"));
        assert_eq!(hit.unwrap(), served[0]);
    }

    /// A loop whose trip count is the initial value of a global.
    fn counted_loop(trips: u32) -> Module {
        let program = Program::new()
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
            ]));
        lower::lower(&program).unwrap()
    }

    #[test]
    fn a_different_memory_image_misses() {
        let toolchain = Toolchain::new(Config::default());
        let options = epic_compiler::Options::default();
        let (few, many) = (counted_loop(3), counted_loop(11));
        let image = |m: &Module| m.initial_memory(&m.layout().unwrap());
        let (few_image, many_image) = (image(&few), image(&many));
        let few_front = toolchain.compiler().front_half(&few, &options).unwrap();
        let many_front = toolchain.compiler().front_half(&many, &options).unwrap();
        assert_eq!(few_front.functions(), many_front.functions());
        assert_ne!(few_image, many_image);

        let memo = ProfileMemo::new();
        let few_profile = memo.profile(&toolchain, &few_front, &few_image).unwrap();
        let many_profile = memo.profile(&toolchain, &many_front, &many_image).unwrap();
        assert_eq!(memo.len(), 2, "the second image hit the first's entry");
        assert!(few_profile.is_some());
        assert_ne!(few_profile, many_profile);
    }
}
