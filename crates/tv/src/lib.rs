//! Pass-by-pass translation validation for the EPIC compiler.
//!
//! `epic-verify` (the PR 1 verifier) proves the *scheduled output* is
//! legal for the machine; it says nothing about whether the output still
//! computes the *input program*. This crate closes that gap: the compiler
//! driver snapshots the machine IR after every stage
//! ([`epic_compiler::trace::PipelineTrace`]) and [`validate_trace`]
//! statically proves each stage refines the previous one:
//!
//! | stage | proof obligation | codes |
//! |-------|------------------|-------|
//! | if-conversion | every predicated op inherits exactly the guard of its source branch arm; donor blocks empty; ops preserved | TV001, TV002 |
//! | custom-instruction fusion | per-block symbolic evaluation with fused trees expanded: side-effect sequence identical, every surviving vreg computes the same expression, deleted temporaries are read nowhere | TV013 |
//! | register allocation | a virtual→physical location map exists: every read sees the value of the virtual register it replaces, no live range clobbered, call/prologue/epilogue bookkeeping moves data consistently | TV003, TV004 |
//! | superblock formation (after allocation) | the origin witness proves the duplicated trace refines the allocated CFG: block bodies bit-identical to their origins, terminators map back through the witness | TV010 |
//! | control finalisation | layout is the reachable blocks in id order; lowered terminators match the abstract CFG | TV008 |
//! | scheduling | bundle contents are a permutation of the region's ops (up to the dismissible-load rewrite); no flow/anti/output/memory/branch dependence is reordered beyond machine latency; superblock regions are well formed and only speculation-safe ops cross side exits | TV005, TV006, TV007, TV011, TV012 |
//! | emission | the assembled bundles decode to exactly the scheduled ops, labels resolved | TV009 |
//!
//! # Diagnostic codes
//!
//! | code | severity | meaning |
//! |------|----------|---------|
//! | TV001 | error | if-conversion guard violation (dropped / swapped / wrong predicate) |
//! | TV002 | error | if-conversion structural mismatch (op dropped, duplicated or mutated; illegal donor or join) |
//! | TV003 | error | register allocation value violation (live range clobbered, wrong location read, conditional merge broken) |
//! | TV004 | error | register allocation structural mismatch (unmatched op, malformed call / prologue / epilogue sequence) |
//! | TV005 | error | scheduler changed the operation set of a block |
//! | TV006 | error / warning | scheduler reordered a dependence edge (warning: flow-latency shortfall the scoreboard interlocks cover) |
//! | TV007 | error | a bundle is empty, exceeds the issue width, the port budget or a unit count, or issues no later than the bundle before it |
//! | TV008 | error | control finalisation mismatch (layout or lowered terminator) |
//! | TV009 | error | emitted assembly diverges from the scheduled program |
//! | TV010 | error | superblock formation broke refinement (block body or terminator diverges from its origin, witness malformed) |
//! | TV011 | error | malformed scheduling region (trace not consecutive in layout, side entry into an interior, interior not falling through) |
//! | TV012 | error | dismissible-load rewrite mismatch (`LWS` without a crossed side exit, or a crossing `LW` left faulting) |
//! | TV013 | error | custom-instruction fusion broke refinement (expression mismatch, side-effect divergence, or a deleted temporary still read) |
//!
//! Diagnostics share [`epic_asm::Diagnostic`] with the assembler and
//! `epic-verify`, so `epic-lint --tv` (a driver in `epic-bench`, which
//! validates the trace of every compile the workload runners ship)
//! renders the same rustc-style reports and JSON. The library reads
//! only the configuration, the ISA, the machine description, the
//! assembler and the compiler's trace types.
//!
//! The seeded-miscompile corpus (`tests/mutants.rs`) injects each bug
//! through the driver's own stage-edit seam
//! ([`epic_compiler::Mutation`], [`epic_compiler::Compiler::compile_mutated`]),
//! so every mutant proves a checker catches a bug in the real pipeline.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod emit_check;
mod fuse_check;
mod ifconv_check;
mod regalloc_check;
mod region_check;
mod sched_check;

pub use epic_asm::{Diagnostic, Severity};

use epic_compiler::trace::PipelineTrace;
use epic_config::Config;

/// The outcome of validating one pipeline trace.
#[derive(Debug, Clone, Default)]
pub struct Report {
    diagnostics: Vec<Diagnostic>,
}

impl Report {
    /// All diagnostics, in pipeline order.
    #[must_use]
    pub fn diagnostics(&self) -> &[Diagnostic] {
        &self.diagnostics
    }

    /// Whether any diagnostic is an error.
    #[must_use]
    pub fn has_errors(&self) -> bool {
        self.diagnostics
            .iter()
            .any(|d| d.severity == Severity::Error)
    }

    /// Number of error diagnostics.
    #[must_use]
    pub fn error_count(&self) -> usize {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == Severity::Error)
            .count()
    }

    /// Number of warning diagnostics.
    #[must_use]
    pub fn warning_count(&self) -> usize {
        self.diagnostics.len() - self.error_count()
    }

    /// Whether the trace validated with no diagnostics at all.
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.diagnostics.is_empty()
    }

    /// Whether any diagnostic carries the given code.
    #[must_use]
    pub fn has_code(&self, code: &str) -> bool {
        self.diagnostics.iter().any(|d| d.code == code)
    }

    /// Renders every diagnostic as a rustc-style report.
    #[must_use]
    pub fn render(&self, origin: &str, source: Option<&str>) -> String {
        self.diagnostics
            .iter()
            .map(|d| d.render(origin, source))
            .collect()
    }

    /// Renders the report as a JSON array.
    #[must_use]
    pub fn to_json(&self) -> String {
        let items: Vec<String> = self.diagnostics.iter().map(Diagnostic::to_json).collect();
        format!("[{}]", items.join(","))
    }
}

/// Validates a pipeline trace against the assembled program it produced.
///
/// Runs every per-stage refinement check the trace has snapshots for and
/// the final emission check against `program` (the result of assembling
/// the compiler's output for the same `config`).
#[must_use]
pub fn validate_trace(
    trace: &PipelineTrace,
    program: &epic_asm::Program,
    config: &Config,
) -> Report {
    let mut diags = Vec::new();
    let mdes = epic_mdes::MachineDescription::new(config);
    let abi = epic_compiler::regalloc::Abi::new(config).ok();
    for func in &trace.functions {
        if let (Some(pre), Some(post)) = (&func.post_select, &func.post_ifconv) {
            ifconv_check::check(&func.name, pre, post, &mut diags);
        }
        if let Some(post) = &func.post_fuse {
            let pre = func.post_ifconv.as_ref().or(func.post_select.as_ref());
            if let Some(pre) = pre {
                fuse_check::check(&func.name, config, pre, post, &mut diags);
            }
        }
        region_check::check(func, &mut diags);
        if let Some(post) = &func.post_regalloc {
            let pre = func
                .post_fuse
                .as_ref()
                .or(func.post_ifconv.as_ref())
                .or(func.post_select.as_ref());
            if let (Some(pre), Some(abi)) = (pre, &abi) {
                regalloc_check::check(&func.name, pre, post, abi, config, &mut diags);
            }
        }
        if let Some(abi) = &abi {
            sched_check::check_finalize(func, abi, &mut diags);
        }
        sched_check::check_schedule(func, &mdes, abi.as_ref(), &mut diags);
    }
    emit_check::check(trace, program, &mut diags);
    Report { diagnostics: diags }
}
