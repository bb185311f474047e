//! Golden-trace corpus: the full [`SimStats`] of every built-in
//! workload, pinned across the ALU (1–4) × issue-width (1–4) grid.
//!
//! Any change to the compiler, the scheduler, the assembler or either
//! simulator engine that moves a single cycle, stall or memory access
//! anywhere in the design space fails this test with a field-level
//! diff. That is the point: timing changes must be *deliberate*. To
//! accept a new baseline, regenerate the corpus with
//!
//! ```text
//! EPIC_BLESS=1 cargo test --test golden_cycles
//! ```
//!
//! and commit the updated `tests/golden/cycles.txt` alongside the
//! change that caused it.
//!
//! Each grid point is compiled once, on the trained profile every
//! driver ships, and run on both engines: the reference engine and
//! `Simulator::run`. Both runs must pass the workload's golden memory
//! check and report equal `SimStats`, so the one corpus line a point
//! writes pins both engines.

use epic_core::config::Config;
use epic_core::experiments::{prepare_epic_workload, verify_workload_memory};
use epic_core::sim::{Engine, SimStats};
use epic_core::workloads::{self, Scale};
use std::fmt::Write as _;
use std::path::PathBuf;

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/cycles.txt")
}

fn stats_line(workload: &str, alus: usize, width: usize, s: &SimStats) -> String {
    format!(
        "{workload} alus={alus} iw={width} cycles={} bundles={} instructions={} squashed={} \
         nops={} loads={} stores={} stalls={}/{}/{}/{}/{} fu={}/{}/{}/{}",
        s.cycles,
        s.bundles,
        s.instructions,
        s.squashed,
        s.nops,
        s.loads,
        s.stores,
        s.stalls.data_hazard,
        s.stalls.unit_busy,
        s.stalls.regfile_port,
        s.stalls.branch_flush,
        s.stalls.memory_contention,
        s.alu_busy_cycles,
        s.lsu_busy_cycles,
        s.cmpu_busy_cycles,
        s.bru_busy_cycles,
    )
}

fn corpus() -> String {
    let mut out = String::from(
        "# Golden SimStats corpus (Test scale). Regenerate with\n\
         # EPIC_BLESS=1 cargo test --test golden_cycles\n\
         # stalls = data_hazard/unit_busy/regfile_port/branch_flush/memory_contention\n\
         # fu = alu/lsu/cmpu/bru busy cycles\n",
    );
    for workload in workloads::all(Scale::Test) {
        for alus in 1..=4usize {
            for width in 1..=4usize {
                let config = Config::builder()
                    .num_alus(alus)
                    .issue_width(width)
                    .build()
                    .expect("valid grid configuration");
                let point = format!("{} at {alus} ALU / {width}-wide", workload.name);
                let (toolchain, prepared) = prepare_epic_workload(&workload, &config)
                    .unwrap_or_else(|e| panic!("{point}: {e}"));
                let [reference, threaded] = Engine::all().map(|engine| {
                    let outcome = (toolchain.run_prepared(&prepared, engine))
                        .unwrap_or_else(|e| panic!("{point} on {engine}: {e}"));
                    verify_workload_memory(&workload, outcome.memory.bytes())
                        .unwrap_or_else(|e| panic!("{point} on {engine}: {e}"));
                    outcome.stats
                });
                assert_eq!(reference, threaded, "{point}: the engines' SimStats differ");
                let _ = writeln!(
                    out,
                    "{}",
                    stats_line(&workload.name, alus, width, &threaded)
                );
            }
        }
    }
    out
}

#[test]
fn cycle_corpus_matches_golden_file() {
    let path = golden_path();
    let current = corpus();
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
            "{}: {e}\nrun `EPIC_BLESS=1 cargo test --test golden_cycles` to create it",
            path.display()
        )
    });
    if golden == current {
        return;
    }
    // Field-level diff: show exactly which grid points moved.
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
        "cycle corpus drifted from {}:\n{diff}\
         If this timing change is intentional, regenerate with \
         `EPIC_BLESS=1 cargo test --test golden_cycles` and commit the diff.",
        golden_path().display()
    );
}
