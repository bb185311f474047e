//! Determinism of the custom-instruction miner: enumeration and ranking
//! must render byte-identically across repeated runs and across rayon
//! thread counts. The committed `BENCH_pareto.json` is regenerated and
//! byte-compared in CI, so any nondeterminism here (hash-order leakage,
//! thread-dependent tie-breaks) would show up as flaky freshness checks.

use epic_core::config::Config;
use epic_core::experiments::run_epic_workload_observed;
use epic_core::workloads::{self, Scale};
use std::collections::BTreeMap;

/// One canonical line per ranked candidate: every field that reaches the
/// committed JSON.
fn render(
    config: &Config,
    bundles: &[Vec<epic_core::isa::Instruction>],
    entry: u32,
    weights: &BTreeMap<u32, u64>,
) -> String {
    let found = epic_isx::mine(config, bundles, entry, weights);
    let ranked = epic_isx::ScoreModel::new(config).rank(found);
    ranked
        .iter()
        .map(|s| {
            format!(
                "{}|{}|{}|{}|{}|{}|{}",
                s.discovery.tree,
                s.est_saved,
                s.slices,
                s.latency,
                s.live_ins,
                s.discovery.sites.len(),
                s.discovery.weight,
            )
        })
        .collect::<Vec<_>>()
        .join("\n")
}

#[test]
fn mining_and_ranking_are_deterministic() {
    for workload in workloads::all(Scale::Test) {
        let config = Config::default();
        let mut sink = epic_obs::ProfileSink::default();
        let run = run_epic_workload_observed(&workload, &config, &mut sink)
            .expect("workload runs at the default configuration");
        let weights: BTreeMap<u32, u64> = sink.per_pc().map(|(pc, p)| (pc, p.issues)).collect();
        let bundles = run.program.bundles();
        let entry = run.program.entry();

        let baseline = render(&config, bundles, entry, &weights);
        assert!(
            !baseline.is_empty(),
            "{}: miner found no candidates at all",
            workload.name
        );
        // Repeated runs in the same process must not depend on allocator
        // or hash-seed state.
        assert_eq!(
            baseline,
            render(&config, bundles, entry, &weights),
            "{}: second run diverged",
            workload.name
        );
        // Nor may the installed rayon thread count leak into the result.
        for threads in [1usize, 4] {
            let pool = rayon::ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .expect("thread pool");
            let rendered = pool.install(|| render(&config, bundles, entry, &weights));
            assert_eq!(
                baseline, rendered,
                "{}: ranking differs under a {threads}-thread pool",
                workload.name
            );
        }
        // Static mining (no profile) must be deterministic too — this is
        // the `epic-lint --isx` path.
        let unweighted = BTreeMap::new();
        assert_eq!(
            render(&config, bundles, entry, &unweighted),
            render(&config, bundles, entry, &unweighted),
            "{}: static mining diverged",
            workload.name
        );
    }
}
