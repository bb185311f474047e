//! `epic-verify`: static schedule/bundle verifier for assembled EPIC
//! programs.
//!
//! The simulator (`epic-sim`) enforces the machine contract dynamically:
//! it interlocks on scoreboard hazards, serialises over-budget
//! register-file traffic and holds issue while the blocking divider owns
//! an ALU. This crate proves the *static* half of the paper's story —
//! that the toolchain emits schedules which never provoke those
//! interlocks — by re-deriving the machine model from the
//! [`Config`]/[`MachineDescription`] pair and walking every bundle of an
//! assembled program.
//!
//! # Checks
//!
//! | code   | severity | meaning                                             |
//! |--------|----------|-----------------------------------------------------|
//! | VER001 | error    | bundle wider than the configured issue width        |
//! | VER002 | error    | functional-unit class oversubscribed within a bundle|
//! | VER003 | error    | register-file port budget exceeded by one bundle    |
//! | VER004 | warning  | cross-bundle producer→consumer latency hazard       |
//! | VER005 | error    | branch through a BTR no preceding `PBR` prepares    |
//! | VER006 | warning  | predicate read but never written on any entry path  |
//! | VER007 | error    | operand/register/feature validation failure         |
//! | VER008 | error    | literal not encodable in the instruction format     |
//! | VER009 | error    | control transfer followed by a non-`NOP` in-bundle  |
//! | VER010 | error    | two writes to one register within a bundle          |
//! | VER011 | warning  | ALU demand collides with a blocking divide in flight|
//! | VER012 | error    | entry address outside the program                   |
//! | VER013 | warning  | GPR read with no reaching write on any entry path   |
//!
//! # Soundness contract
//!
//! Severity follows what the hardware does about a problem. *Errors*
//! are conditions the machine cannot absorb: the simulator rejects the
//! bundle outright (width, unit counts, write conflicts, encoding) or
//! the register-file controller is over-driven every time the bundle
//! issues (VER003 counts every GPR access, deliberately without the
//! forwarding discount, so static ≤ budget implies the controller
//! finishes in one processor cycle; one operation that alone needs more
//! than the budget is legal on its own, since no schedule can split
//! it). *Warnings* are cross-bundle timing
//! hazards the interlocks cover at the cost of stall cycles: scoreboard
//! waits (VER004), divider shadows (VER011), plus the dataflow lints
//! (VER005 escalates to an error because a branch through a garbage BTR
//! redirects to an arbitrary address rather than stalling).
//!
//! The checks are *conservative over-approximations* of the simulator.
//! `epic-bound`'s forward solver propagates their state over the shared
//! control-flow graph ([`epic_mdes::cfg::Cfg`], one per check), which
//! over-approximates the dynamic successor relation (every `PBR`
//! literal is a possible target of a branch through that BTR; branches
//! through BTRs loaded from a register may land on any return point).
//! The timing warnings read `epic-bound`'s scoreboard fixpoint
//! ([`epic_bound::ScoreboardAnalysis`]), the same solution its cycle
//! bounds price data and unit stalls from. Consequently:
//!
//! > * no error diagnostics ⇒ zero `regfile_port` stalls;
//! > * additionally no VER011 warnings ⇒ zero `unit_busy` stalls;
//! > * additionally no VER004 warnings ⇒ zero `data_hazard` stalls,
//!
//! which `crates/verify/tests/` cross-validates against `epic-sim` for
//! every workload × ALU count × issue width the paper explores.
//!
//! # Timing model
//!
//! The scoreboard state is kept *relative to the bundle's execute
//! cycle*: a fall-through edge advances time by 1 cycle and a taken
//! branch by `pipeline_stages` cycles (redirect plus flush), which are
//! exactly the minimum distances the pipeline achieves, so residual
//! latencies and divider occupancy age by the edge weight as they
//! propagate, and join is the element-wise maximum (worst case over
//! predecessors). The reachability facts (prepared BTRs, written
//! predicates) are untimed and join by set union.
//!
//! # Error pass and warning pass
//!
//! The checks split by what they need. The *error pass*
//! ([`check_errors`]) is VER012, the per-bundle structural checks and
//! VER005, which reads only the set of BTRs some `PBR` may have prepared
//! (its own union-join analysis, untimed). The *warning pass* is the
//! scoreboard (VER004, VER011), the set of predicates some instruction
//! may have written (VER006) and VER013. [`check`] runs both and reports
//! in one order: per bundle the structural findings, VER011, then per
//! slot VER004, VER005 and VER006; VER013 last. Every analysis runs on
//! the same graph, entry and solver, so they reach the same bundles,
//! and none reads another's state: the error pass returns exactly
//! [`check`]'s errors, in order, at a fraction of its cost. The compiler
//! driver, which fails only on errors, runs the error pass.

use epic_bound::{
    solve_forward, Analysis, Cfg, CostModel, Direction, Lattice, Scoreboard, ScoreboardAnalysis,
};
use epic_config::{Config, MAX_ISSUE_WIDTH};
use epic_isa::{Instruction, IsaError, Opcode, Unit};

pub use epic_asm::{Diagnostic, Severity};

/// The outcome of verifying one program: an ordered list of
/// [`Diagnostic`]s (bundle order, structural before dataflow findings).
#[derive(Debug, Clone, Default)]
pub struct Report {
    diagnostics: Vec<Diagnostic>,
}

impl Report {
    /// All diagnostics, in bundle order.
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

    /// Whether the program verified without any diagnostics at all.
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.diagnostics.is_empty()
    }

    /// Appends a diagnostic — tools layering extra lints (e.g. the
    /// `epic-bound` dataflow lints) onto a verifier report use this to
    /// keep one rendering and one exit-code policy.
    pub fn push(&mut self, diagnostic: Diagnostic) {
        self.diagnostics.push(diagnostic);
    }

    /// Whether a diagnostic with the given code is present.
    #[must_use]
    pub fn has_code(&self, code: &str) -> bool {
        self.diagnostics.iter().any(|d| d.code == code)
    }

    /// Renders every diagnostic rustc-style plus a summary line.
    /// `origin` names the input; `source` (when available) enables caret
    /// lines for diagnostics that carry source line numbers.
    #[must_use]
    pub fn render(&self, origin: &str, source: Option<&str>) -> String {
        let mut out = String::new();
        for diag in &self.diagnostics {
            out.push_str(&diag.render(origin, source));
        }
        out.push_str(&format!(
            "{}: {} error(s), {} warning(s)\n",
            origin,
            self.error_count(),
            self.warning_count()
        ));
        out
    }

    /// Renders the whole report as one JSON object.
    #[must_use]
    pub fn to_json(&self) -> String {
        let body: Vec<String> = self.diagnostics.iter().map(Diagnostic::to_json).collect();
        format!(
            "{{\"errors\":{},\"warnings\":{},\"diagnostics\":[{}]}}",
            self.error_count(),
            self.warning_count(),
            body.join(",")
        )
    }
}

/// Verifies `bundles` (entry at bundle address `entry`) against
/// `config`. Convenience wrapper over [`Verifier`].
#[must_use]
pub fn check_program(bundles: &[Vec<Instruction>], entry: u32, config: &Config) -> Report {
    Verifier::new(config).check(bundles, entry)
}

/// Verifies an assembled [`epic_asm::Program`].
#[must_use]
pub fn check(program: &epic_asm::Program, config: &Config) -> Report {
    check_program(program.bundles(), program.entry(), config)
}

/// Runs only the error pass over an assembled [`epic_asm::Program`]:
/// exactly the error diagnostics of [`check`], in the same order.
#[must_use]
pub fn check_errors(program: &epic_asm::Program, config: &Config) -> Report {
    Verifier::new(config).check_errors(program.bundles(), program.entry())
}

/// The error pass's VER005 dataflow: the BTRs prepared by some `PBR` on
/// some path from the entry, joined by union. Untimed, so edges do not
/// age it.
struct Prepared(usize);

/// A set of register indices (BTRs or predicates). Machines have few of
/// either (16 by default), so the first 64 live inline and a state only
/// reaches the heap when a program writes a higher one.
#[derive(Debug, Clone, Default)]
struct RegSet {
    low: u64,
    high: Vec<u64>,
}

impl RegSet {
    fn insert(&mut self, reg: u16) {
        let (word, bit) = (usize::from(reg) / 64, reg % 64);
        if word == 0 {
            self.low |= 1 << bit;
        } else {
            if self.high.len() < word {
                self.high.resize(word, 0);
            }
            self.high[word - 1] |= 1 << bit;
        }
    }

    fn contains(&self, reg: u16) -> bool {
        let (word, bit) = (usize::from(reg) / 64, reg % 64);
        let bits = if word == 0 {
            self.low
        } else {
            self.high.get(word - 1).copied().unwrap_or(0)
        };
        bits & 1 << bit != 0
    }
}

impl Lattice for RegSet {
    fn join(&mut self, other: &RegSet) -> bool {
        let mut changed = other.low & !self.low != 0;
        self.low |= other.low;
        if self.high.len() < other.high.len() {
            self.high.resize(other.high.len(), 0);
        }
        for (w, o) in self.high.iter_mut().zip(&other.high) {
            changed |= o & !*w != 0;
            *w |= o;
        }
        changed
    }
}

impl Analysis for Prepared {
    type State = RegSet;

    fn direction(&self) -> Direction {
        Direction::Forward
    }

    fn boundary(&self) -> RegSet {
        RegSet::default()
    }

    fn transfer(&self, _bi: usize, bundle: &[Instruction], state: &RegSet) -> RegSet {
        let mut out = state.clone();
        for btr in bundle.iter().filter_map(Instruction::btr_write) {
            if usize::from(btr.0) < self.0 {
                out.insert(btr.0);
            }
        }
        out
    }
}

/// The warning pass's VER006 dataflow: the predicates some instruction
/// writes on some path from the entry (`p0` always), joined by union.
struct PredWrites(usize);

impl Analysis for PredWrites {
    type State = RegSet;

    fn direction(&self) -> Direction {
        Direction::Forward
    }

    fn boundary(&self) -> RegSet {
        let mut set = RegSet::default();
        set.insert(0);
        set
    }

    fn transfer(&self, _bi: usize, bundle: &[Instruction], state: &RegSet) -> RegSet {
        let mut out = state.clone();
        for pred in bundle.iter().flat_map(Instruction::pred_writes) {
            if usize::from(pred.0) < self.0 {
                out.insert(pred.0);
            }
        }
        out
    }
}

/// The warning pass's input facts at one reachable bundle.
struct Warnings<'a> {
    scoreboard: &'a Scoreboard,
    preds: &'a RegSet,
}

/// Static verifier for one machine configuration.
pub struct Verifier {
    model: CostModel,
}

impl Verifier {
    /// Builds a verifier for the given configuration.
    #[must_use]
    pub fn new(config: &Config) -> Verifier {
        Verifier {
            model: CostModel::new(config),
        }
    }

    fn config(&self) -> &Config {
        self.model.config()
    }

    /// Runs every check over `bundles` with the entry at bundle address
    /// `entry` and returns the collected diagnostics: the error pass and
    /// the warning pass, merged in bundle order.
    #[must_use]
    pub fn check(&self, bundles: &[Vec<Instruction>], entry: u32) -> Report {
        self.run(bundles, entry, true)
    }

    /// Runs the error pass alone: exactly [`Verifier::check`]'s error
    /// diagnostics, in the same order, without the timed flow or VER013.
    #[must_use]
    pub fn check_errors(&self, bundles: &[Vec<Instruction>], entry: u32) -> Report {
        self.run(bundles, entry, false)
    }

    /// The error pass and, with `warnings`, the warning pass.
    fn run(&self, bundles: &[Vec<Instruction>], entry: u32, warnings: bool) -> Report {
        let mut diags = Vec::new();

        if entry as usize >= bundles.len() {
            diags.push(Diagnostic::error(
                "VER012",
                format!(
                    "entry address {entry} is outside the program ({} bundle(s))",
                    bundles.len()
                ),
            ));
        }

        let cfg = Cfg::build(self.config(), bundles);
        let start = entry as usize;
        let prepared_in = solve_forward(&Prepared(self.config().num_btrs()), &cfg, bundles, start);
        let warning_in = warnings.then(|| {
            let preds = PredWrites(self.config().num_pred_regs());
            (
                ScoreboardAnalysis::new(&self.model).solve(&cfg, bundles, start),
                solve_forward(&preds, &cfg, bundles, start),
            )
        });

        for (bi, bundle) in bundles.iter().enumerate() {
            diags.extend(self.check_bundle_structure(bi, bundle));
            // Every solve reaches the same bundles: one graph, one entry.
            if let Some(prepared) = &prepared_in[bi] {
                let warnings = warning_in.as_ref().and_then(|(scoreboards, preds)| {
                    Some(Warnings {
                        scoreboard: scoreboards[bi].as_ref()?,
                        preds: preds[bi].as_ref()?,
                    })
                });
                self.check_bundle_flow(bi, bundle, prepared, warnings.as_ref(), &mut diags);
            }
        }

        if warnings {
            self.check_gpr_definedness(&cfg, bundles, entry, &mut diags);
        }

        Report { diagnostics: diags }
    }

    /// VER013: GPR reads that can observe a never-written register.
    ///
    /// Built on the predicate-aware definedness analysis from
    /// `epic-bound`: a write under `p` together with a write under its
    /// complement counts as a definition on every path, and a read
    /// guarded by the *same* predicate as the only write is safe by
    /// construction. Reads whose guard the value analysis proves false
    /// never execute and are not reported. Registers reset to zero, so
    /// none of this interlocks — but code meaning to read zero should
    /// produce it explicitly.
    ///
    /// The value analysis is the expensive half and only ever silences
    /// a warning, so it is solved on the first read that would warn;
    /// programs without such a read (every honest compile) never pay
    /// for it.
    fn check_gpr_definedness(
        &self,
        cfg: &Cfg,
        bundles: &[Vec<Instruction>],
        entry: u32,
        diags: &mut Vec<Diagnostic>,
    ) {
        use epic_bound::{MustDef, PredVal};

        let entry = entry as usize;
        if entry >= bundles.len() {
            return;
        }
        let defs = epic_bound::Definedness::new(self.config(), bundles).solve(cfg, bundles, entry);
        let mut values = None;

        for (bi, bundle) in bundles.iter().enumerate() {
            let Some(state) = &defs[bi] else {
                continue; // unreachable bundle
            };
            for (slot, instr) in bundle.iter().enumerate() {
                for gpr in instr.gpr_reads() {
                    let Some(&may) = state.may.get(gpr.0 as usize) else {
                        continue; // out-of-range index, already VER007
                    };
                    // Written somewhere — but is it written whenever this
                    // read executes? Only the single-guard case is
                    // decidable without a path-sensitive analysis; a read
                    // under the defining guard is safe by construction.
                    let message = match state.must[gpr.0 as usize] {
                        _ if !may => {
                            format!("{gpr} is read but never written on any path from the entry")
                        }
                        MustDef::Under(p) if instr.pred != p => format!(
                            "{gpr} is only written under {p}; reading it here may \
                             observe an undefined value when {p} is false"
                        ),
                        _ => continue,
                    };
                    // A provably squashed read never observes anything.
                    let values: &Vec<_> = values.get_or_insert_with(|| {
                        epic_bound::ValueAnalysis::new(self.config()).solve(cfg, bundles, entry)
                    });
                    let guard_known_false = values[bi]
                        .as_ref()
                        .is_some_and(|v| v.guard(instr.pred) == PredVal::False);
                    if !guard_known_false {
                        diags.push(
                            Diagnostic::warning("VER013", message).with_bundle(bi, Some(slot)),
                        );
                    }
                }
            }
        }
    }

    // --- per-bundle structural checks (no control flow needed) ---------

    fn check_bundle_structure(&self, bi: usize, bundle: &[Instruction]) -> Vec<Diagnostic> {
        let mut diags = Vec::new();
        let issue_width = self.config().issue_width();

        if bundle.len() > issue_width {
            diags.push(
                Diagnostic::error(
                    "VER001",
                    format!(
                        "bundle has {} instructions but the issue width is {issue_width}",
                        bundle.len()
                    ),
                )
                .with_bundle(bi, None),
            );
        }

        // The shared static cost model prices the bundle once; VER002 and
        // VER003 read unit demand and port operations from it.
        let mdes = self.model.mdes();
        let cost = mdes.bundle_cost(bundle);
        for unit in [Unit::Alu, Unit::Lsu, Unit::Cmpu, Unit::Bru] {
            let wanted = cost.demand(unit);
            let available = mdes.unit_count(unit);
            if wanted > available {
                diags.push(
                    Diagnostic::error(
                        "VER002",
                        format!(
                            "bundle needs {wanted} {unit} slot(s) but the machine has \
                             {available}"
                        ),
                    )
                    .with_bundle(bi, None),
                );
            }
        }

        // VER003: static port count, deliberately without the forwarding
        // discount the hardware may apply — static ≤ budget implies the
        // register-file controller finishes in one processor cycle. One
        // operation that alone needs more than the budget cannot be
        // split, and stands alone.
        let ports = cost.port_ops;
        let budget = self.config().regfile_ops_per_cycle();
        if cost.oversubscribes_ports(budget) {
            diags.push(
                Diagnostic::error(
                    "VER003",
                    format!(
                        "bundle performs {ports} register-file operations but the \
                         controller sustains {budget} per processor cycle"
                    ),
                )
                .with_bundle(bi, None),
            );
        }

        // VER009: nothing but NOP padding may follow a control transfer.
        if let Some(ctl) = bundle
            .iter()
            .position(|i| i.opcode.is_branch() || i.opcode == Opcode::Halt)
        {
            for (slot, instr) in bundle.iter().enumerate().skip(ctl + 1) {
                if instr.opcode != Opcode::Nop {
                    diags.push(
                        Diagnostic::error(
                            "VER009",
                            format!(
                                "{} in slot {ctl} transfers control but slot {slot} \
                                 holds {}; branches must occupy the last useful slot",
                                bundle[ctl].opcode, instr.opcode
                            ),
                        )
                        .with_bundle(bi, Some(slot)),
                    );
                }
            }
        }

        // VER010: within-bundle write conflicts per register file.
        let gpr_writes = bundle.iter().filter_map(|i| i.gpr_write()).map(|r| r.0);
        let pred_writes = (bundle.iter().flat_map(Instruction::pred_writes))
            .map(|p| p.0)
            .filter(|&p| p != 0);
        let btr_writes = bundle.iter().filter_map(|i| i.btr_write()).map(|b| b.0);
        report_write_conflicts(gpr_writes, "r", bi, &mut diags);
        report_write_conflicts(pred_writes, "p", bi, &mut diags);
        report_write_conflicts(btr_writes, "b", bi, &mut diags);

        // VER007/VER008: per-instruction operand validation.
        for (slot, instr) in bundle.iter().enumerate() {
            if let Err(err) = instr.validate(self.config()) {
                let code = match err {
                    IsaError::LiteralOutOfRange { .. } => "VER008",
                    _ => "VER007",
                };
                diags.push(Diagnostic::error(code, err.to_string()).with_bundle(bi, Some(slot)));
            }
        }

        diags
    }

    /// Reports one reachable bundle's dataflow findings from its input
    /// states: VER011, then per slot VER004, VER005 and VER006. VER005,
    /// the only error, reads `prepared`; the warnings read the
    /// scoreboard and the written predicates, which the error pass
    /// leaves out.
    fn check_bundle_flow(
        &self,
        bi: usize,
        bundle: &[Instruction],
        prepared: &RegSet,
        warnings: Option<&Warnings<'_>>,
        diags: &mut Vec<Diagnostic>,
    ) {
        // VER011: ALU demand against instances still held by a divide.
        // The issue stage interlocks (a `unit_busy` stall), so this is a
        // warning, like the scoreboard hazards. Demand comes from the
        // shared static cost model, exactly as the simulator's decoder
        // precomputes it.
        if let Some(Warnings { scoreboard, .. }) = warnings {
            let alu_wanted = self.model.mdes().bundle_cost(bundle).demand(Unit::Alu);
            let (alus, alu_free) = (self.config().num_alus(), scoreboard.free_alus());
            if alu_wanted > alu_free {
                diags.push(
                    Diagnostic::warning(
                        "VER011",
                        format!(
                            "bundle issues {alu_wanted} ALU operation(s) but {} of {alus} \
                             ALU(s) may still be busy with a blocking divide; issue \
                             will stall",
                            alus - alu_free
                        ),
                    )
                    .with_bundle(bi, None),
                );
            }
        }

        for (slot, instr) in bundle.iter().enumerate() {
            // VER004: reads racing a producer's latency. The scoreboard
            // interlocks, so this is a warning.
            if let Some(Warnings { scoreboard, .. }) = warnings {
                for gpr in instr.gpr_reads() {
                    let wait = scoreboard.read_wait(gpr.0);
                    if wait > 0 {
                        diags.push(
                            Diagnostic::warning(
                                "VER004",
                                format!(
                                    "{gpr} is read {wait} cycle(s) before its producer's \
                                     result is ready; the scoreboard will interlock"
                                ),
                            )
                            .with_bundle(bi, Some(slot)),
                        );
                    }
                }
            }

            // VER005: branches must go through a prepared BTR.
            if instr.opcode.is_branch() {
                if let Some(btr) = instr.btr_read() {
                    if !prepared.contains(btr.0) {
                        diags.push(
                            Diagnostic::error(
                                "VER005",
                                format!(
                                    "{} branches through {btr}, which no preceding PBR \
                                     prepares on any path from the entry",
                                    instr.opcode
                                ),
                            )
                            .with_bundle(bi, Some(slot)),
                        );
                    }
                }
            }

            // VER006: predicates consumed but never produced (indices
            // the machine lacks are VER007's).
            if let Some(Warnings { preds, .. }) = warnings {
                for pred in instr.pred_reads() {
                    if usize::from(pred.0) < self.config().num_pred_regs()
                        && !preds.contains(pred.0)
                    {
                        diags.push(
                            Diagnostic::warning(
                                "VER006",
                                format!(
                                    "{pred} is read but never written on any path from \
                                     the entry"
                                ),
                            )
                            .with_bundle(bi, Some(slot)),
                        );
                    }
                }
            }
        }
    }
}

/// Reports VER010 once for every write of a register beyond its first,
/// in ascending register order. A bundle within the issue width is
/// scanned pairwise, which finds no repeat in a legal bundle without
/// collecting its writes; the writes are sorted only when one repeats or
/// the bundle is wider than any machine issues.
fn report_write_conflicts(
    writes: impl Iterator<Item = u16> + Clone,
    prefix: &str,
    bi: usize,
    diags: &mut Vec<Diagnostic>,
) {
    let narrow = writes.clone().count() <= 2 * MAX_ISSUE_WIDTH;
    let repeats =
        || (writes.clone().enumerate()).any(|(k, r)| writes.clone().take(k).any(|e| e == r));
    if narrow && !repeats() {
        return;
    }
    let mut sorted: Vec<u16> = writes.collect();
    sorted.sort_unstable();
    for pair in sorted.windows(2) {
        if pair[0] == pair[1] {
            diags.push(
                Diagnostic::error(
                    "VER010",
                    format!("two instructions in the bundle write {prefix}{}", pair[1]),
                )
                .with_bundle(bi, None),
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use epic_asm::assemble;

    fn config() -> Config {
        Config::default()
    }

    fn verify(source: &str) -> Report {
        let config = config();
        let program = assemble(source, &config).expect("test program assembles");
        check(&program, &config)
    }

    #[test]
    fn clean_straight_line_program_passes() {
        let report = verify("MOVIL r1, #1\n;;\nADD r2, r1, #2\n;;\nHALT\n;;\n");
        assert!(!report.has_errors(), "{}", report.render("t", None));
    }

    #[test]
    fn latency_hazard_is_a_warning_not_an_error() {
        // LW has multi-cycle latency; consuming in the next bundle trips
        // the scoreboard, which the verifier reports as VER004.
        let report = verify("MOVIL r1, #0\n;;\nLW r2, r1, #0\n;;\nADD r3, r2, #1\n;;\nHALT\n;;\n");
        assert!(report.has_code("VER004"), "{}", report.render("t", None));
        assert!(!report.has_errors());
    }

    #[test]
    fn prepared_branch_passes_and_unprepared_branch_fails() {
        let good = verify("PBR b1, @done\n;;\nBR b1\n;;\ndone:\nHALT\n;;\n");
        assert!(!good.has_code("VER005"), "{}", good.render("good", None));

        let bad = verify("ADD r1, r1, #1\n;;\nBR b2\n;;\nHALT\n;;\n");
        assert!(bad.has_code("VER005"), "{}", bad.render("bad", None));
        assert!(bad.has_errors());
    }

    #[test]
    fn undefined_predicate_read_warns() {
        let report = verify("ADD r1, r1, #1 (p3)\n;;\nHALT\n;;\n");
        assert!(report.has_code("VER006"), "{}", report.render("t", None));
    }

    #[test]
    fn defined_predicate_read_is_clean() {
        let report = verify("CMP_LT p1, p2, r1, #4\n;;\nADD r2, r2, #1 (p1)\n;;\nHALT\n;;\n");
        assert!(!report.has_code("VER006"), "{}", report.render("t", None));
    }

    #[test]
    fn undefined_gpr_read_warns() {
        let report = verify("ADD r2, r1, #1\n;;\nHALT\n;;\n");
        assert!(report.has_code("VER013"), "{}", report.render("t", None));
        assert!(!report.has_errors());
    }

    #[test]
    fn defined_gpr_read_is_clean() {
        let report = verify("MOVIL r1, #5\n;;\nADD r2, r1, #1\n;;\nHALT\n;;\n");
        assert!(!report.has_code("VER013"), "{}", report.render("t", None));
    }

    #[test]
    fn guarded_only_write_read_unguarded_warns() {
        // Old false negative: r1 is written somewhere, but only when p1
        // holds — the unguarded read can observe the reset value.
        let report = verify(
            "MOVIL r2, #0\n;;\nCMP_LT p1, p2, r2, #4\n;;\nMOVIL r1, #5 (p1)\n;;\n\
             ADD r3, r1, #1\n;;\nHALT\n;;\n",
        );
        assert!(report.has_code("VER013"), "{}", report.render("t", None));
        assert!(!report.has_errors());
    }

    #[test]
    fn read_under_the_defining_guard_is_clean() {
        // The read executes only when p1 holds — exactly when the write
        // landed. If-converted code does this constantly.
        let report = verify(
            "MOVIL r2, #0\n;;\nCMP_LT p1, p2, r2, #4\n;;\nMOVIL r1, #5 (p1)\n;;\n\
             ADD r3, r1, #1 (p1)\n;;\nHALT\n;;\n",
        );
        assert!(!report.has_code("VER013"), "{}", report.render("t", None));
    }

    #[test]
    fn complementary_guarded_writes_are_a_full_definition() {
        // CMP writes p1 and its complement p2; a write under each covers
        // every path, so the unguarded read is clean.
        let report = verify(
            "MOVIL r2, #0\n;;\nCMP_LT p1, p2, r2, #4\n;;\nMOVIL r1, #5 (p1)\n;;\n\
             MOVIL r1, #9 (p2)\n;;\nADD r3, r1, #1\n;;\nHALT\n;;\n",
        );
        assert!(!report.has_code("VER013"), "{}", report.render("t", None));
    }

    #[test]
    fn provably_squashed_read_is_not_reported() {
        // Old false positive: p1 is never written, so it stays false and
        // the read never executes — undefined r1 is unobservable there.
        let report = verify("ADD r2, r1, #1 (p1)\n;;\nHALT\n;;\n");
        assert!(!report.has_code("VER013"), "{}", report.render("t", None));
    }

    #[test]
    fn gpr_written_on_one_path_does_not_warn() {
        // The branch path skips the write to r1, but the fall-through
        // path defines it: the may-join keeps VER013 quiet unless *no*
        // entry path writes the register.
        let report = verify(
            "MOVIL r2, #9\n;;\nPBR b1, @join\n;;\nCMP_LT p1, p2, r2, #4\n;;\n\
             BRCT b1 (p1)\n;;\nMOVIL r1, #1\n;;\njoin:\nADD r3, r1, #1\n;;\nHALT\n;;\n",
        );
        assert!(!report.has_code("VER013"), "{}", report.render("t", None));
    }

    #[test]
    fn divider_shadow_is_flagged_across_bundles() {
        // One ALU: the divide blocks it, so ALU work in the next bundle
        // cannot issue without a unit_busy stall.
        let config = Config::builder()
            .num_alus(1)
            .issue_width(2)
            .build()
            .unwrap();
        let source = "DIV r1, r2, r3\n;;\nADD r4, r5, r6\n;;\nHALT\n;;\n";
        let program = assemble(source, &config).expect("assembles");
        let report = check(&program, &config);
        assert!(report.has_code("VER011"), "{}", report.render("t", None));
    }

    #[test]
    fn divider_shadow_clears_after_the_latency_elapses() {
        let config = Config::builder()
            .num_alus(1)
            .issue_width(2)
            .build()
            .unwrap();
        let pad = "NOP\n;;\n".repeat(config.div_latency() as usize);
        let source = format!("DIV r1, r2, r3\n;;\n{pad}ADD r4, r5, r6\n;;\nHALT\n;;\n");
        let program = assemble(&source, &config).expect("assembles");
        let report = check(&program, &config);
        assert!(!report.has_code("VER011"), "{}", report.render("t", None));
    }

    #[test]
    fn registers_the_machine_lacks_are_ver007_and_bound_analysis_skips_them() {
        use epic_bound::{analyze_cycles, BoundOptions, CountSource};
        use std::collections::BTreeMap;
        // Assembled for the default 64 GPRs, analysed on a 16-GPR machine
        // that has no r40..r42: a counted loop, a load-use hazard and a
        // divide, all through registers past the end of the file.
        let narrow = Config::builder().num_gprs(16).build().unwrap();
        let source = "PBR b1, @loop\n;;\nMOVIL r40, #0\n;;\nloop:\nLW r41, r40, #0\n;;\n\
                      DIV r42, r41, r40\n;;\nADD r40, r40, #1\n;;\nCMP_LT p1, p0, r40, #10\n;;\n\
                      BRCT b1 (p1)\n;;\nHALT\n;;\n";
        let program = assemble(source, &config()).expect("assembles for 64 GPRs");
        let (bundles, entry) = (program.bundles(), program.entry());

        let report = check_program(bundles, entry, &narrow);
        assert!(report.has_code("VER007"), "{}", report.render("t", None));

        let model = CostModel::new(&narrow);
        let counts: BTreeMap<u32, u64> = (0..bundles.len() as u32).map(|pc| (pc, 1)).collect();
        for counts in [CountSource::Measured(&counts), CountSource::Static] {
            let bounds = analyze_cycles(
                &narrow,
                bundles,
                entry as usize,
                &counts,
                &model,
                &BoundOptions::default(),
            );
            assert!(bounds.lower > 0, "{counts:?}: lower = {}", bounds.lower);
        }
    }

    #[test]
    fn entry_out_of_range_is_an_error() {
        let config = config();
        let program = assemble("HALT\n;;\n", &config).unwrap();
        let report = check_program(program.bundles(), 7, &config);
        assert!(report.has_code("VER012"));
    }

    #[test]
    fn port_budget_violation_is_flagged_on_raw_bundles() {
        use epic_isa::{Gpr, Operand};
        // 4 three-operand adds = 12 port-ops > 8; the assembler's own
        // bundle checker would reject this, so feed bundles directly.
        let config = Config::builder()
            .num_alus(4)
            .issue_width(4)
            .build()
            .unwrap();
        let add = |d: u16, a: u16, b: u16| {
            Instruction::alu3(
                Opcode::Add,
                Gpr(d),
                Operand::Gpr(Gpr(a)),
                Operand::Gpr(Gpr(b)),
            )
        };
        let bundles = vec![
            vec![add(1, 2, 3), add(4, 5, 6), add(7, 8, 9), add(10, 11, 12)],
            vec![Instruction::halt()],
        ];
        let report = check_program(&bundles, 0, &config);
        assert!(report.has_code("VER003"), "{}", report.render("t", None));

        // Two ports a cycle: one three-port add stands alone, two don't.
        let narrow = Config::builder().regfile_ops_per_cycle(2).build().unwrap();
        let alone = vec![vec![add(1, 2, 3)], vec![Instruction::halt()]];
        let report = check_program(&alone, 0, &narrow);
        assert!(!report.has_code("VER003"), "{}", report.render("t", None));
        let shared = vec![vec![add(1, 2, 3), add(4, 5, 6)], vec![Instruction::halt()]];
        let report = check_program(&shared, 0, &narrow);
        assert!(report.has_code("VER003"), "{}", report.render("t", None));
    }

    #[test]
    fn report_json_shape() {
        let report = verify("BR b1\n;;\nHALT\n;;\n");
        let json = report.to_json();
        assert!(json.starts_with("{\"errors\":"));
        assert!(json.contains("\"VER005\""));
    }
}
