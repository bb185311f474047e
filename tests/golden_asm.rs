//! Golden assembly corpus: a digest of the emitted assembly plus the
//! full [`CompileStats`] of every built-in workload, pinned across the
//! ALU (1–4) × issue-width (1–4) grid at Test scale.
//!
//! Each grid point contributes two lines, one per compile the workload
//! runners perform:
//!
//! * `train` — the profile-training compile (superblock formation off);
//! * `final` — the measured compile, profile-guided on machines of issue
//!   width ≥ 2, exactly as [`prepare_epic_workload`] produces it.
//!
//! The golden cycle corpus pins schedules only through the cycles they
//! cost; this one pins the schedules themselves, so a rewrite of the
//! scheduler, the verifier or translation validation that claims to
//! change no output can prove it. The loop also checks that the program
//! each compile hands on, the one its built-in verifier checked and
//! translation validation and the simulators then use without
//! re-assembling, is exactly `epic_asm::assemble` of its text.
//!
//! The same loop pins the full `epic_verify::check` report of every
//! `final` compile in `tests/golden/verify.txt`: the count of each
//! diagnostic code and a digest of the rendered report, once against
//! the machine the program was compiled for and once against a slower
//! one (longer load, multiply and divide latencies, no forwarding), on
//! which the schedule races its producers and the warning pass has
//! hazards to report. The compiler driver runs only the verifier's
//! error pass, so this corpus is what shows that the warning pass did
//! not move. To accept a deliberate change, regenerate both corpora with
//!
//! ```text
//! EPIC_BLESS=1 cargo test --test golden_asm
//! ```
//!
//! and commit the updated files under `tests/golden/` alongside it.

use epic_core::compiler::{CompileStats, Compiler, Options};
use epic_core::config::Config;
use epic_core::experiments::prepare_epic_workload;
use epic_core::workloads::{self, Scale};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::PathBuf;

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name)
}

/// FNV-1a, 64-bit: a stable digest that does not depend on the host,
/// the toolchain version or std's hasher seeds.
fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// One corpus line. The destructuring is exhaustive, so a new
/// statistics field fails to compile here until the corpus records it.
fn compile_line(point: &str, kind: &str, assembly: &str, stats: &CompileStats) -> String {
    let CompileStats {
        passes,
        ifconv,
        fuse,
        superblock,
        regalloc,
        sched,
    } = stats;
    format!(
        "{point} {kind} asm={:016x} bytes={} passes={}/{}/{}/{}/{}/{} ifconv={}/{}/{} \
         fuse={}/{} sb={}/{}/{}/{}/{}/{} ra={}/{}/{} sched={}/{}/{}/{}",
        fnv1a64(assembly.as_bytes()),
        assembly.len(),
        passes.inlined_calls,
        passes.folded,
        passes.simplified,
        passes.cse_hits,
        passes.dead_removed,
        passes.rounds,
        ifconv.diamonds,
        ifconv.triangles,
        ifconv.predicated_insts,
        fuse.fused,
        fuse.ops_removed,
        superblock.traces,
        superblock.trace_blocks,
        superblock.duplicated_blocks,
        superblock.duplicated_ops,
        superblock.unrolled_loops,
        superblock.unrolled_blocks,
        regalloc.spilled,
        regalloc.call_saves,
        regalloc.frame_bytes,
        sched.ops,
        sched.bundles,
        sched.slots_filled,
        sched.slots_available,
    )
}

/// Appends one verifier report to a corpus line: the digest of the
/// rendered report, then the count of each diagnostic code, in code
/// order.
fn push_report(line: &mut String, label: &str, report: &epic_verify::Report) {
    let mut counts: BTreeMap<&str, usize> = BTreeMap::new();
    for diagnostic in report.diagnostics() {
        *counts.entry(diagnostic.code).or_default() += 1;
    }
    let rendered = report.render(label, None);
    let _ = write!(line, " {label}={:016x}", fnv1a64(rendered.as_bytes()));
    for (code, count) in counts {
        let _ = write!(line, " {code}={count}");
    }
}

/// The assembly corpus and the verifier corpus, built in one pass over
/// the grid.
fn corpora() -> (String, String) {
    let mut verify = String::from(
        "# Golden verifier corpus (Test scale): the full epic_verify::check\n\
         # report of every final compile. Regenerate with\n\
         # EPIC_BLESS=1 cargo test --test golden_asm\n\
         # own = the report against the compiled-for machine, slow = against the same\n\
         # machine with load/mul/div latencies 4/6/12 and no forwarding; each is the\n\
         # FNV-1a 64 of the rendered report, then the count of each code\n",
    );
    let mut out = String::from(
        "# Golden assembly corpus (Test scale). Regenerate with\n\
         # EPIC_BLESS=1 cargo test --test golden_asm\n\
         # asm = FNV-1a 64 of the assembly text, bytes = its length\n\
         # passes = inlined_calls/folded/simplified/cse_hits/dead_removed/rounds\n\
         # ifconv = diamonds/triangles/predicated_insts, fuse = fused/ops_removed\n\
         # sb = traces/trace_blocks/duplicated_blocks/duplicated_ops/unrolled_loops/unrolled_blocks\n\
         # ra = spilled/call_saves/frame_bytes, sched = ops/bundles/slots_filled/slots_available\n",
    );
    for workload in workloads::all(Scale::Test) {
        let module = epic_core::ir::lower::lower(&workload.program).expect("workloads lower");
        for alus in 1..=4usize {
            for width in 1..=4usize {
                let config = Config::builder()
                    .num_alus(alus)
                    .issue_width(width)
                    .build()
                    .expect("valid grid configuration");
                let point = format!("{} alus={alus} iw={width}", workload.name);
                let train_options = Options {
                    entry: workload.entry.clone(),
                    inline_hints: workload.inline_hints(),
                    superblock: false,
                    ..Options::default()
                };
                let train = Compiler::new(config.clone())
                    .compile_with(&module, &train_options)
                    .unwrap_or_else(|e| panic!("{point}: training compile: {e}"));
                let (_, prepared) = prepare_epic_workload(&workload, &config)
                    .unwrap_or_else(|e| panic!("{point}: final compile: {e}"));
                let train_program = train.program().expect("a compile holds its program");
                for (kind, compiled, program) in [
                    ("train", &train, train_program),
                    ("final", &prepared.compiled, &prepared.program),
                ] {
                    let line = compile_line(&point, kind, compiled.assembly(), compiled.stats());
                    let _ = writeln!(out, "{line}");
                    let assembled = epic_core::asm::assemble(compiled.assembly(), &config)
                        .unwrap_or_else(|e| panic!("{point} {kind}: text does not assemble: {e}"));
                    assert!(
                        *program == assembled,
                        "{point} {kind}: the program handed on is not the text's assembly"
                    );
                }
                let slow = (config.to_builder())
                    .load_latency(4)
                    .mul_latency(6)
                    .div_latency(12)
                    .forwarding(false)
                    .build()
                    .expect("valid slow configuration");
                let mut line = point.clone();
                push_report(
                    &mut line,
                    "own",
                    &epic_verify::check(&prepared.program, &config),
                );
                push_report(
                    &mut line,
                    "slow",
                    &epic_verify::check(&prepared.program, &slow),
                );
                let _ = writeln!(verify, "{line}");
            }
        }
    }
    (out, verify)
}

/// Compares one corpus with its golden file (or rewrites the file under
/// `EPIC_BLESS`); returns the drift report, empty when they match.
fn check_corpus(name: &str, current: &str) -> String {
    let path = golden_path(name);
    if std::env::var_os("EPIC_BLESS").is_some() {
        std::fs::write(&path, current).expect("write golden corpus");
        eprintln!(
            "blessed {} ({} lines)",
            path.display(),
            current.lines().count()
        );
        return String::new();
    }
    let golden = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "{}: {e}\nrun `EPIC_BLESS=1 cargo test --test golden_asm` to create it",
            path.display()
        )
    });
    if golden == current {
        return String::new();
    }
    let mut diff = format!("{} drifted:\n", path.display());
    for (want, got) in golden.lines().zip(current.lines()) {
        if want != got {
            let _ = writeln!(diff, "- {want}\n+ {got}");
        }
    }
    let (w, g) = (golden.lines().count(), current.lines().count());
    if w != g {
        let _ = writeln!(diff, "line count changed: golden {w}, current {g}");
    }
    diff
}

#[test]
fn assembly_corpus_matches_golden_file() {
    let (asm, verify) = corpora();
    let drift = check_corpus("asm.txt", &asm) + &check_corpus("verify.txt", &verify);
    assert!(
        drift.is_empty(),
        "{drift}If this output change is intentional, regenerate with \
         `EPIC_BLESS=1 cargo test --test golden_asm` and commit the diff."
    );
}
