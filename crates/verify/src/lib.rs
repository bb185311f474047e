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
//! finishes in one processor cycle). *Warnings* are cross-bundle timing
//! hazards the interlocks cover at the cost of stall cycles: scoreboard
//! waits (VER004), divider shadows (VER011), plus the dataflow lints
//! (VER005 escalates to an error because a branch through a garbage BTR
//! redirects to an arbitrary address rather than stalling).
//!
//! The checks are *conservative over-approximations* of the simulator,
//! propagating state over a control-flow graph that over-approximates
//! the dynamic successor relation (every `PBR` literal is a possible
//! target of a branch through that BTR; branches through BTRs loaded
//! from a register may land on any return point). Consequently:
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
//! All dataflow state is kept *relative to the bundle's execute cycle*:
//! a fall-through edge advances time by 1 cycle and a taken branch by
//! `pipeline_stages` cycles (redirect plus flush), which are exactly the
//! minimum distances the pipeline achieves, so residual latencies and
//! divider occupancy age by the edge weight as they propagate. Join is
//! element-wise maximum for the timed components (worst case over
//! predecessors) and set union for the reachability components
//! (prepared BTRs, written predicates).

use epic_config::Config;
use epic_isa::{Instruction, IsaError, Opcode, Unit};
use epic_mdes::MachineDescription;

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

/// Dataflow state at a bundle boundary, relative to that bundle's
/// execute cycle.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Flow {
    /// Cycles until each GPR's pending write is readable (0 = ready).
    gpr_wait: Vec<u32>,
    /// Cycles each ALU instance remains occupied by a blocking divide,
    /// sorted descending (instances are interchangeable).
    alu_busy: Vec<u32>,
    /// BTRs prepared by some `PBR` on some path from the entry.
    prepared: Vec<bool>,
    /// Predicates written on some path from the entry (`p0` always).
    pred_def: Vec<bool>,
}

impl Flow {
    fn entry(config: &Config) -> Flow {
        let mut pred_def = vec![false; config.num_pred_regs()];
        if let Some(p0) = pred_def.first_mut() {
            *p0 = true;
        }
        Flow {
            gpr_wait: vec![0; config.num_gprs()],
            alu_busy: vec![0; config.num_alus()],
            prepared: vec![false; config.num_btrs()],
            pred_def,
        }
    }

    /// Advances time by `delta` cycles along an edge.
    fn aged(&self, delta: u32) -> Flow {
        let mut out = self.clone();
        for w in &mut out.gpr_wait {
            *w = w.saturating_sub(delta);
        }
        for b in &mut out.alu_busy {
            *b = b.saturating_sub(delta);
        }
        out
    }

    /// Joins `other` into `self`; returns whether `self` changed.
    fn join(&mut self, other: &Flow) -> bool {
        let mut changed = false;
        for (dst, src) in self.gpr_wait.iter_mut().zip(&other.gpr_wait) {
            if *src > *dst {
                *dst = *src;
                changed = true;
            }
        }
        // Both sides keep `alu_busy` sorted descending, so element-wise
        // max bounds the k-th busiest instance of either predecessor.
        for (dst, src) in self.alu_busy.iter_mut().zip(&other.alu_busy) {
            if *src > *dst {
                *dst = *src;
                changed = true;
            }
        }
        for (dst, src) in self.prepared.iter_mut().zip(&other.prepared) {
            if *src && !*dst {
                *dst = true;
                changed = true;
            }
        }
        for (dst, src) in self.pred_def.iter_mut().zip(&other.pred_def) {
            if *src && !*dst {
                *dst = true;
                changed = true;
            }
        }
        changed
    }
}

/// One outgoing control-flow edge: target bundle and the minimum number
/// of cycles between the two bundles' execute stages.
type Edge = (usize, u32);

/// Static verifier for one machine configuration.
pub struct Verifier {
    config: Config,
    mdes: MachineDescription,
}

impl Verifier {
    /// Builds a verifier for the given configuration.
    #[must_use]
    pub fn new(config: &Config) -> Verifier {
        Verifier {
            config: config.clone(),
            mdes: MachineDescription::new(config),
        }
    }

    /// Runs every check over `bundles` with the entry at bundle address
    /// `entry` and returns the collected diagnostics.
    #[must_use]
    pub fn check(&self, bundles: &[Vec<Instruction>], entry: u32) -> Report {
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

        let structural: Vec<Vec<Diagnostic>> = bundles
            .iter()
            .enumerate()
            .map(|(bi, bundle)| self.check_bundle_structure(bi, bundle))
            .collect();

        let flow_in = self.solve_dataflow(bundles, entry);

        for (bi, bundle) in bundles.iter().enumerate() {
            diags.extend(structural[bi].iter().cloned());
            if let Some(input) = &flow_in[bi] {
                self.transfer(bi, bundle, input, Some(&mut diags));
            }
        }

        self.check_gpr_definedness(bundles, entry, &mut diags);

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
        bundles: &[Vec<Instruction>],
        entry: u32,
        diags: &mut Vec<Diagnostic>,
    ) {
        use epic_bound::{MustDef, PredVal};

        let entry = entry as usize;
        if entry >= bundles.len() {
            return;
        }
        let cfg = epic_bound::Cfg::build(&self.config, bundles);
        let defs = epic_bound::Definedness::new(&self.config, bundles).solve(&cfg, bundles, entry);
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
                        epic_bound::ValueAnalysis::new(&self.config).solve(&cfg, bundles, entry)
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

    /// The static control-flow over-approximation the dataflow fixpoint
    /// runs on: for every bundle address, the possible successor bundle
    /// addresses with the minimum cycle distance to each. Every edge the
    /// hardware can take is present (the differential CFG tests drive
    /// the reference simulator and assert exactly this containment);
    /// edges the hardware never takes may be present too.
    #[must_use]
    pub fn cfg(&self, bundles: &[Vec<Instruction>]) -> Vec<Vec<(usize, u32)>> {
        self.build_cfg(bundles)
    }

    // --- per-bundle structural checks (no control flow needed) ---------

    fn check_bundle_structure(&self, bi: usize, bundle: &[Instruction]) -> Vec<Diagnostic> {
        let mut diags = Vec::new();
        let issue_width = self.config.issue_width();

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
        let cost = self.mdes.bundle_cost(bundle);
        for unit in [Unit::Alu, Unit::Lsu, Unit::Cmpu, Unit::Bru] {
            let wanted = cost.demand(unit);
            let available = self.mdes.unit_count(unit);
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
        // register-file controller finishes in one processor cycle.
        let ports = cost.port_ops;
        let budget = self.config.regfile_ops_per_cycle();
        if ports > budget {
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
        let mut gpr_writes: Vec<u16> = bundle
            .iter()
            .filter_map(|i| i.gpr_write())
            .map(|r| r.0)
            .collect();
        let mut pred_writes: Vec<u16> = bundle
            .iter()
            .flat_map(Instruction::pred_writes)
            .map(|p| p.0)
            .filter(|&p| p != 0)
            .collect();
        let mut btr_writes: Vec<u16> = bundle
            .iter()
            .filter_map(|i| i.btr_write())
            .map(|b| b.0)
            .collect();
        for (writes, prefix) in [
            (&mut gpr_writes, "r"),
            (&mut pred_writes, "p"),
            (&mut btr_writes, "b"),
        ] {
            writes.sort_unstable();
            writes.dedup_by(|a, b| {
                if a == b {
                    diags.push(
                        Diagnostic::error(
                            "VER010",
                            format!("two instructions in the bundle write {prefix}{b}"),
                        )
                        .with_bundle(bi, None),
                    );
                    true
                } else {
                    false
                }
            });
        }

        // VER007/VER008: per-instruction operand validation.
        for (slot, instr) in bundle.iter().enumerate() {
            if let Err(err) = instr.validate(&self.config) {
                let code = match err {
                    IsaError::LiteralOutOfRange { .. } => "VER008",
                    _ => "VER007",
                };
                diags.push(Diagnostic::error(code, err.to_string()).with_bundle(bi, Some(slot)));
            }
        }

        diags
    }

    // --- control-flow graph --------------------------------------------

    /// Builds the over-approximate successor relation. Branch targets
    /// come from `PBR` literals program-wide; a branch through a BTR
    /// some `PBR` loads from a register (a return address) may land on
    /// any bundle following a `BRL`.
    fn build_cfg(&self, bundles: &[Vec<Instruction>]) -> Vec<Vec<Edge>> {
        let len = bundles.len();
        let num_btrs = self.config.num_btrs();
        let branch_delta = self.config.pipeline_stages() as u32;

        let mut literal_targets: Vec<Vec<usize>> = vec![Vec::new(); num_btrs];
        let mut unknown_target: Vec<bool> = vec![false; num_btrs];
        let mut return_points: Vec<usize> = Vec::new();
        for (bi, bundle) in bundles.iter().enumerate() {
            for instr in bundle {
                if instr.opcode == Opcode::Pbr {
                    let Some(btr) = instr.btr_write() else {
                        continue;
                    };
                    let Some(slot) = literal_targets.get_mut(btr.0 as usize) else {
                        continue;
                    };
                    match instr.src1 {
                        epic_isa::Operand::Lit(v) if (0..len as i64).contains(&v) => {
                            slot.push(v as usize);
                        }
                        _ => unknown_target[btr.0 as usize] = true,
                    }
                }
                if instr.opcode == Opcode::Brl && bi + 1 < len {
                    return_points.push(bi + 1);
                }
            }
        }

        let mut succs: Vec<Vec<Edge>> = vec![Vec::new(); len];
        for (bi, bundle) in bundles.iter().enumerate() {
            let mut fall_through = bi + 1 < len;
            let edges = &mut succs[bi];
            for instr in bundle {
                let always = instr.pred.0 == 0;
                let branch_edges = |edges: &mut Vec<Edge>| {
                    if let Some(btr) = instr.btr_read() {
                        if let Some(targets) = literal_targets.get(btr.0 as usize) {
                            for &t in targets {
                                edges.push((t, branch_delta));
                            }
                        }
                        if unknown_target.get(btr.0 as usize).copied().unwrap_or(false) {
                            for &rp in &return_points {
                                edges.push((rp, branch_delta));
                            }
                        }
                    }
                };
                match instr.opcode {
                    Opcode::Br | Opcode::Brl | Opcode::Brct => {
                        // `BRCT`'s predicate is the tested condition, and
                        // a false guard squashes `BR`/`BRL`: either way
                        // `p0` means the branch is always taken.
                        branch_edges(edges);
                        if always {
                            fall_through = false;
                        }
                    }
                    Opcode::Brcf
                        // Branches when the guard is *false*; `p0` is
                        // hard-wired true, so a `p0` BRCF never leaves
                        // the fall-through path.
                        if !always => {
                            branch_edges(edges);
                        }
                    Opcode::Halt
                        if always => {
                            fall_through = false;
                        }
                    _ => {}
                }
            }
            if fall_through {
                edges.push((bi + 1, 1));
            }
            edges.sort_unstable();
            edges.dedup();
        }
        succs
    }

    // --- dataflow fixpoint ---------------------------------------------

    /// Computes the join-over-all-paths entry state of every reachable
    /// bundle (`None` = unreachable from the entry).
    fn solve_dataflow(&self, bundles: &[Vec<Instruction>], entry: u32) -> Vec<Option<Flow>> {
        let mut flow_in: Vec<Option<Flow>> = vec![None; bundles.len()];
        let entry = entry as usize;
        if entry >= bundles.len() {
            return flow_in;
        }
        let cfg = self.build_cfg(bundles);
        flow_in[entry] = Some(Flow::entry(&self.config));
        let mut worklist = vec![entry];
        while let Some(bi) = worklist.pop() {
            let input = flow_in[bi].clone().expect("worklist entries have state");
            let output = self.transfer(bi, &bundles[bi], &input, None);
            for &(succ, delta) in &cfg[bi] {
                let candidate = output.aged(delta);
                let changed = match &mut flow_in[succ] {
                    Some(existing) => existing.join(&candidate),
                    slot @ None => {
                        *slot = Some(candidate);
                        true
                    }
                };
                if changed && !worklist.contains(&succ) {
                    worklist.push(succ);
                }
            }
        }
        flow_in
    }

    /// Applies one bundle to the flow state. With a diagnostic sink the
    /// hazard checks report (VER004/VER005/VER006/VER011); without one
    /// this is the pure transfer function for the fixpoint.
    fn transfer(
        &self,
        bi: usize,
        bundle: &[Instruction],
        input: &Flow,
        mut diags: Option<&mut Vec<Diagnostic>>,
    ) -> Flow {
        let mut out = input.clone();
        let forwarding_extra = u32::from(!self.config.forwarding());

        // VER011: ALU demand against instances still held by a divide.
        // The issue stage interlocks (a `unit_busy` stall), so this is a
        // warning, like the scoreboard hazards. Demand comes from the
        // shared static cost model, exactly as the simulator's decoder
        // precomputes it.
        let alu_wanted = self.mdes.bundle_cost(bundle).demand(Unit::Alu);
        let alu_free = out.alu_busy.iter().filter(|&&c| c == 0).count();
        if alu_wanted > alu_free {
            if let Some(diags) = diags.as_deref_mut() {
                diags.push(
                    Diagnostic::warning(
                        "VER011",
                        format!(
                            "bundle issues {alu_wanted} ALU operation(s) but {} of {} \
                             ALU(s) may still be busy with a blocking divide; issue \
                             will stall",
                            out.alu_busy.len() - alu_free,
                            out.alu_busy.len()
                        ),
                    )
                    .with_bundle(bi, None),
                );
            }
        }

        for (slot, instr) in bundle.iter().enumerate() {
            if let Some(diags) = diags.as_deref_mut() {
                // VER004: reads racing a producer's latency. The
                // scoreboard interlocks, so this is a warning.
                for gpr in instr.gpr_reads() {
                    let Some(&wait) = input.gpr_wait.get(gpr.0 as usize) else {
                        continue; // out-of-range index, already VER007
                    };
                    if wait > 0 {
                        diags.push(
                            Diagnostic::warning(
                                "VER004",
                                format!(
                                    "{gpr} is read {wait} cycle(s) before its \
                                     producer's result is ready; the scoreboard \
                                     will interlock"
                                ),
                            )
                            .with_bundle(bi, Some(slot)),
                        );
                    }
                }

                // VER005: branches must go through a prepared BTR.
                if instr.opcode.is_branch() {
                    if let Some(btr) = instr.btr_read() {
                        let prepared = input.prepared.get(btr.0 as usize).copied().unwrap_or(false);
                        if !prepared {
                            diags.push(
                                Diagnostic::error(
                                    "VER005",
                                    format!(
                                        "{} branches through {btr}, which no \
                                         preceding PBR prepares on any path from \
                                         the entry",
                                        instr.opcode
                                    ),
                                )
                                .with_bundle(bi, Some(slot)),
                            );
                        }
                    }
                }

                // VER006: predicates consumed but never produced.
                for pred in instr.pred_reads() {
                    let defined = input.pred_def.get(pred.0 as usize).copied().unwrap_or(true);
                    if !defined {
                        diags.push(
                            Diagnostic::warning(
                                "VER006",
                                format!(
                                    "{pred} is read but never written on any path \
                                     from the entry"
                                ),
                            )
                            .with_bundle(bi, Some(slot)),
                        );
                    }
                }
            }

            // Transfer: book results, preparations and definitions.
            if let Some(gpr) = instr.gpr_write() {
                if let Some(wait) = out.gpr_wait.get_mut(gpr.0 as usize) {
                    *wait = self.mdes.latency(instr.opcode) + forwarding_extra;
                }
            }
            if let Some(btr) = instr.btr_write() {
                if let Some(prepared) = out.prepared.get_mut(btr.0 as usize) {
                    *prepared = true;
                }
            }
            for pred in instr.pred_writes() {
                if let Some(defined) = out.pred_def.get_mut(pred.0 as usize) {
                    *defined = true;
                }
            }
            if instr.opcode.unit() == Some(Unit::Alu) {
                let occupancy = self.mdes.occupancy(instr.opcode);
                if occupancy > 1 {
                    // Claim a free instance for the blocking divide; when
                    // none is free (already VER011) pin the least busy.
                    match out.alu_busy.iter_mut().find(|c| **c == 0) {
                        Some(instance) => *instance = occupancy,
                        None => {
                            if let Some(least) = out.alu_busy.iter_mut().min() {
                                *least = (*least).max(occupancy);
                            }
                        }
                    }
                }
            }
        }

        // Keep the interchangeable-instances invariant: sorted descending.
        out.alu_busy.sort_unstable_by(|a, b| b.cmp(a));
        out
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
    }

    #[test]
    fn report_json_shape() {
        let report = verify("BR b1\n;;\nHALT\n;;\n");
        let json = report.to_json();
        assert!(json.starts_with("{\"errors\":"));
        assert!(json.contains("\"VER005\""));
    }
}
