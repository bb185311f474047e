//! Golden many-core corpus: per-core [`SimStats`] cycles and the NoC
//! counters of every mesh workload on a small (2×2) mesh, pinned as the
//! `tests/golden/manycore.txt` baseline.
//!
//! This extends the single-core corpus (`golden_cycles.rs`) to the
//! array: a change anywhere in the stack — compiler, scheduler, either
//! simulator engine, the NoC timing model or the lockstep exchange
//! order — that moves one lockstep cycle, one per-core stat or one
//! link transfer fails with a field-level diff. Regenerate with
//!
//! ```text
//! EPIC_BLESS=1 cargo test --test golden_manycore
//! ```
//!
//! `EPIC_ENGINE=reference|threaded` selects the core engine (default
//! threaded: `Simulator`, stepped per cycle); the file is
//! engine-independent because the engines are bit-identical by
//! contract, so the same corpus serves both.
//!
//! [`SimStats`]: epic_core::sim::SimStats

use epic_core::array::MeshSpec;
use epic_core::config::Config;
use epic_core::experiments::run_mesh_workload;
use epic_core::sim::Engine;
use epic_core::workloads::{mesh, Scale};
use std::fmt::Write as _;
use std::path::PathBuf;

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/manycore.txt")
}

/// The engine under test (`EPIC_ENGINE`, default threaded).
fn engine_under_test() -> Engine {
    match std::env::var("EPIC_ENGINE") {
        Ok(name) => name
            .parse()
            .unwrap_or_else(|e: String| panic!("EPIC_ENGINE: {e}")),
        Err(_) => Engine::default(),
    }
}

fn corpus(engine: Engine) -> String {
    let mut out = String::from(
        "# Golden many-core corpus (Test scale, 2x2 mesh). Regenerate with\n\
         # EPIC_BLESS=1 cargo test --test golden_manycore\n\
         # per-core fields: cycles/instructions/loads/stores\n",
    );
    let config = Config::builder().num_alus(2).build().expect("valid config");
    for workload in mesh::all(Scale::Test) {
        let spec = MeshSpec::new(2, 2).with_engine(engine);
        let run = run_mesh_workload(&workload, &config, &spec)
            .unwrap_or_else(|e| panic!("{} on a 2x2 {engine} mesh failed: {e}", workload.name));
        let outcome = &run.outcome;
        let per_core = outcome
            .per_core
            .iter()
            .map(|s| format!("{}/{}/{}/{}", s.cycles, s.instructions, s.loads, s.stores))
            .collect::<Vec<_>>()
            .join(" ");
        let noc = &outcome.noc;
        let _ = writeln!(
            out,
            "{} lockstep={} returns={:?} cores=[{per_core}] msgs={} words={} hops={} \
             latency={} links={:?}",
            workload.name,
            outcome.cycles,
            outcome.return_values,
            noc.messages_delivered,
            noc.payload_words,
            noc.total_hops,
            noc.total_latency,
            noc.link_transfers,
        );
    }
    out
}

#[test]
fn manycore_corpus_matches_golden_file() {
    let path = golden_path();
    let engine = engine_under_test();
    let current = corpus(engine);
    if std::env::var_os("EPIC_BLESS").is_some() {
        std::fs::write(&path, &current).expect("write golden corpus");
        eprintln!(
            "blessed {} ({} lines)",
            path.display(),
            current.lines().count()
        );
        return;
    }
    let golden = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "{}: {e}\nrun `EPIC_BLESS=1 cargo test --test golden_manycore` to create it",
            path.display()
        )
    });
    if golden == current {
        return;
    }
    let mut diff = String::new();
    for (want, got) in golden.lines().zip(current.lines()) {
        if want != got {
            let _ = writeln!(diff, "- {want}\n+ {got}");
        }
    }
    let (w, g) = (golden.lines().count(), current.lines().count());
    if w != g {
        let _ = writeln!(diff, "line count changed: golden {w}, current {g}");
    }
    panic!(
        "many-core corpus ({engine} engine) drifted from {}:\n{diff}\
         If this timing change is intentional, regenerate with \
         `EPIC_BLESS=1 cargo test --test golden_manycore` and commit the diff.",
        golden_path().display()
    );
}
