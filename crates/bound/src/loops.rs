//! Loop detection and static trip-count bounds.
//!
//! Strongly connected components of the bundle CFG are the loops; for
//! each the analysis tries to prove a *trip bound*: the maximum number
//! of times the loop body can execute per entry. The provable shape is
//! the counted loop every scheduler emits — a single induction register
//! stepped by an unguarded `ADD r, r, #c`, compared once against a
//! literal, steering the single back-edge branch — with conservative
//! slack for in-bundle operand staleness. Anything fancier (nested
//! loops, data-dependent exits, decreasing counters) stays unbounded,
//! which the cycle analysis reports as an open upper interval unless the
//! caller supplies an assumed bound.
//!
//! [`LoopAnalysis::static_counts`] folds trip bounds over the SCC
//! condensation in topological order into a per-bundle *execution count
//! upper bound*, the multiplier the static cycle analysis needs.

use crate::cfg::Cfg;
use crate::lattice::Interval;
use crate::ranges::{ValueAnalysis, Values};
use crate::solver::Analysis;
use epic_config::Config;
use epic_isa::{CmpCond, Dest, Gpr, Instruction, Opcode, Operand, PredReg, TRUE_PRED};

/// One natural loop (nontrivial SCC) and what the analysis proved.
#[derive(Debug, Clone)]
pub struct LoopSummary {
    /// The single external-entry bundle, when one exists.
    pub header: usize,
    /// The bundle sourcing the back edge to the header.
    pub back_edge_source: usize,
    /// All bundle addresses in the SCC, sorted.
    pub body: Vec<usize>,
    /// Maximum body executions per loop entry, when provable.
    pub trips: Option<u64>,
    /// Why `trips` is `None`, or `"counted"` when it is not.
    pub reason: &'static str,
}

/// The program's loop structure with per-bundle execution-count bounds.
#[derive(Debug, Clone)]
pub struct LoopAnalysis {
    /// One summary per nontrivial SCC.
    pub loops: Vec<LoopSummary>,
    scc_of: Vec<usize>,
    sccs: Vec<Vec<usize>>,
    nontrivial: Vec<bool>,
    loop_of_scc: Vec<Option<usize>>,
}

impl LoopAnalysis {
    /// Finds loops and attempts a trip bound for each, using the solved
    /// value ranges to bound induction start values.
    #[must_use]
    pub fn analyze(
        _config: &Config,
        cfg: &Cfg,
        bundles: &[Vec<Instruction>],
        entry: usize,
        values: &[Option<Values>],
        value_analysis: &ValueAnalysis,
    ) -> LoopAnalysis {
        let (scc_of, sccs) = strongly_connected_components(cfg);
        let mut nontrivial = vec![false; sccs.len()];
        for (id, members) in sccs.iter().enumerate() {
            nontrivial[id] = members.len() > 1
                || members
                    .iter()
                    .any(|&n| cfg.succs(n).iter().any(|e| e.to == n));
        }
        let mut loops = Vec::new();
        let mut loop_of_scc = vec![None; sccs.len()];
        for (id, members) in sccs.iter().enumerate() {
            if !nontrivial[id] {
                continue;
            }
            let summary = summarize_loop(
                cfg,
                bundles,
                entry,
                members,
                &scc_of,
                id,
                values,
                value_analysis,
            );
            loop_of_scc[id] = Some(loops.len());
            loops.push(summary);
        }
        LoopAnalysis {
            loops,
            scc_of,
            sccs,
            nontrivial,
            loop_of_scc,
        }
    }

    /// Upper bound on each bundle's execution count over a whole run
    /// (`None` = unbounded). Loops without a proven trip bound use
    /// `assume_trips` body executions per entry when supplied.
    #[must_use]
    pub fn static_counts(
        &self,
        cfg: &Cfg,
        entry: usize,
        assume_trips: Option<u64>,
    ) -> Vec<Option<u64>> {
        let n = cfg.len();
        let mut counts: Vec<Option<u64>> = vec![Some(0); n];
        if entry >= n {
            return counts;
        }
        let num_sccs = self.sccs.len();
        // Kahn's algorithm over the condensation multigraph.
        let mut indegree = vec![0usize; num_sccs];
        for u in 0..n {
            for e in cfg.succs(u) {
                if self.scc_of[u] != self.scc_of[e.to] {
                    indegree[self.scc_of[e.to]] += 1;
                }
            }
        }
        let mut ready: Vec<usize> = (0..num_sccs).filter(|&s| indegree[s] == 0).collect();
        let mut topo = Vec::with_capacity(num_sccs);
        while let Some(s) = ready.pop() {
            topo.push(s);
            for &u in &self.sccs[s] {
                for e in cfg.succs(u) {
                    let t = self.scc_of[e.to];
                    if t != s {
                        indegree[t] -= 1;
                        if indegree[t] == 0 {
                            ready.push(t);
                        }
                    }
                }
            }
        }
        debug_assert_eq!(topo.len(), num_sccs, "condensation is a DAG");

        let mut enter_of: Vec<Option<u64>> = vec![Some(0); num_sccs];
        for &s in &topo {
            // Entries into the SCC: one per crossing-edge traversal,
            // plus one when the program entry starts inside it. An edge
            // leaving a loop is traversed at most once per loop *entry*
            // (control must re-enter between traversals), so a
            // predecessor inside a loop contributes its SCC's entry
            // count, not its own execution count.
            let mut enter: Option<u64> = Some(u64::from(self.scc_of[entry] == s));
            for &v in &self.sccs[s] {
                for pe in cfg.preds(v) {
                    let u = pe.to;
                    if self.scc_of[u] != s {
                        let traversals = if self.nontrivial[self.scc_of[u]] {
                            enter_of[self.scc_of[u]]
                        } else {
                            counts[u]
                        };
                        enter = match (enter, traversals) {
                            (Some(a), Some(b)) => Some(a.saturating_add(b)),
                            _ => None,
                        };
                    }
                }
            }
            enter_of[s] = enter;
            let per_member = if !self.nontrivial[s] {
                enter
            } else if enter == Some(0) {
                Some(0) // statically unreachable loop
            } else {
                let trips = self.loop_of_scc[s]
                    .and_then(|ix| self.loops[ix].trips)
                    .or(assume_trips);
                match (enter, trips) {
                    (Some(e), Some(t)) => Some(e.saturating_mul(t)),
                    _ => None,
                }
            };
            for &v in &self.sccs[s] {
                counts[v] = per_member;
            }
        }
        // Statically unreachable bundles never execute.
        let reachable = cfg.reachable_from(entry);
        for (bi, r) in reachable.iter().enumerate() {
            if !r {
                counts[bi] = Some(0);
            }
        }
        counts
    }
}

/// Kosaraju's algorithm: `(scc_of, sccs)` over every bundle.
fn strongly_connected_components(cfg: &Cfg) -> (Vec<usize>, Vec<Vec<usize>>) {
    let n = cfg.len();
    // Pass 1: forward DFS finishing order (iterative, post-order).
    let mut finish = Vec::with_capacity(n);
    let mut seen = vec![false; n];
    for start in 0..n {
        if seen[start] {
            continue;
        }
        let mut stack: Vec<(usize, usize)> = vec![(start, 0)];
        seen[start] = true;
        while let Some(&mut (node, ref mut next)) = stack.last_mut() {
            if let Some(edge) = cfg.succs(node).get(*next) {
                *next += 1;
                if !seen[edge.to] {
                    seen[edge.to] = true;
                    stack.push((edge.to, 0));
                }
            } else {
                finish.push(node);
                stack.pop();
            }
        }
    }
    // Pass 2: DFS on the transpose in reverse finishing order.
    let mut scc_of = vec![usize::MAX; n];
    let mut sccs: Vec<Vec<usize>> = Vec::new();
    for &root in finish.iter().rev() {
        if scc_of[root] != usize::MAX {
            continue;
        }
        let id = sccs.len();
        let mut members = vec![root];
        scc_of[root] = id;
        let mut stack = vec![root];
        while let Some(node) = stack.pop() {
            for edge in cfg.preds(node) {
                if scc_of[edge.to] == usize::MAX {
                    scc_of[edge.to] = id;
                    members.push(edge.to);
                    stack.push(edge.to);
                }
            }
        }
        members.sort_unstable();
        sccs.push(members);
    }
    (scc_of, sccs)
}

/// The loop-continuing branch condition: predicate and required sense.
struct Continue {
    pred: PredReg,
    sense: bool,
}

#[allow(clippy::too_many_arguments)]
fn summarize_loop(
    cfg: &Cfg,
    bundles: &[Vec<Instruction>],
    entry: usize,
    members: &[usize],
    scc_of: &[usize],
    scc_id: usize,
    values: &[Option<Values>],
    value_analysis: &ValueAnalysis,
) -> LoopSummary {
    let in_scc = |n: usize| scc_of[n] == scc_id;
    let give_up = |header: usize, source: usize, reason: &'static str| LoopSummary {
        header,
        back_edge_source: source,
        body: members.to_vec(),
        trips: None,
        reason,
    };

    // A single header: the only bundle entered from outside the SCC.
    let headers: Vec<usize> = members
        .iter()
        .copied()
        .filter(|&v| v == entry || cfg.preds(v).iter().any(|e| !in_scc(e.to)))
        .collect();
    let &[header] = headers.as_slice() else {
        return give_up(members[0], members[0], "multiple loop entries");
    };
    // A single back edge into the header.
    let sources: Vec<usize> = cfg
        .preds(header)
        .iter()
        .filter(|e| in_scc(e.to))
        .map(|e| e.to)
        .collect();
    let &[tail] = sources.as_slice() else {
        return give_up(header, header, "multiple back edges");
    };
    let back_edges: Vec<_> = cfg.succs(tail).iter().filter(|e| e.to == header).collect();
    let &[back_edge] = back_edges.as_slice() else {
        return give_up(header, tail, "ambiguous back edge");
    };
    if cfg
        .succs(tail)
        .iter()
        .any(|e| in_scc(e.to) && e.to != header)
    {
        return give_up(header, tail, "tail re-enters the body");
    }
    // The body minus the back edge must be a DAG (no inner loops).
    if !acyclic_without_back_edge(cfg, members, &in_scc, tail, header) {
        return give_up(header, tail, "nested loop");
    }

    // The single branch in the tail decides continuation.
    let branches: Vec<&Instruction> = bundles[tail]
        .iter()
        .filter(|i| {
            matches!(
                i.opcode,
                Opcode::Br | Opcode::Brl | Opcode::Brct | Opcode::Brcf
            )
        })
        .collect();
    let cont = if back_edge.delta == cfg.branch_delta() {
        // Loop continues when the branch is taken.
        let &[branch] = branches.as_slice() else {
            return give_up(header, tail, "tail has no unique branch");
        };
        match branch.opcode {
            Opcode::Brct | Opcode::Br | Opcode::Brl if branch.pred != TRUE_PRED => Continue {
                pred: branch.pred,
                sense: true,
            },
            Opcode::Brcf => Continue {
                pred: branch.pred,
                sense: false,
            },
            _ => return give_up(header, tail, "unconditional back branch"),
        }
    } else {
        // Fall-through back edge: continues when the exit branch is
        // *not* taken; all its targets must leave the SCC.
        let &[branch] = branches.as_slice() else {
            return give_up(header, tail, "no exit branch at the tail");
        };
        match branch.opcode {
            Opcode::Brct | Opcode::Br | Opcode::Brl if branch.pred != TRUE_PRED => Continue {
                pred: branch.pred,
                sense: false,
            },
            Opcode::Brcf => Continue {
                pred: branch.pred,
                sense: true,
            },
            _ => return give_up(header, tail, "unconditional exit branch"),
        }
    };

    // The continuing predicate must be produced by exactly one compare
    // in the body, unguarded, against a literal.
    let mut cmp_site: Option<(usize, &Instruction)> = None;
    for &bi in members {
        for instr in &bundles[bi] {
            if instr.pred_writes().contains(&cont.pred) {
                if cmp_site.is_some() {
                    return give_up(header, tail, "condition written more than once");
                }
                cmp_site = Some((bi, instr));
            }
        }
    }
    let Some((cmp_bi, cmp)) = cmp_site else {
        return give_up(header, tail, "condition not written in the body");
    };
    let Opcode::Cmp(mut cond) = cmp.opcode else {
        return give_up(header, tail, "condition not a compare");
    };
    if cmp.pred != TRUE_PRED {
        return give_up(header, tail, "guarded compare");
    }
    // Outcome sense: `dest2` holds the complement.
    let mut want = cont.sense;
    if cmp.dest2 == Dest::Pred(cont.pred) {
        want = !want;
    } else if cmp.dest1 != Dest::Pred(cont.pred) {
        return give_up(header, tail, "condition not a compare target");
    }
    // Normalise to `continue while r <cond> #K`.
    let (mut ind, mut bound) = (cmp.src1, cmp.src2);
    if matches!(ind, Operand::Lit(_)) {
        cond = cond.swap_operands();
        std::mem::swap(&mut ind, &mut bound);
    }
    let (Operand::Gpr(r), Operand::Lit(k)) = (ind, bound) else {
        return give_up(header, tail, "compare not register-vs-literal");
    };
    if !want {
        cond = cond.negate();
    }

    // The induction register: stepped by exactly one unguarded
    // `ADD r, r, #c` (c > 0) in the body.
    let mut add_site: Option<(usize, u64)> = None;
    for &bi in members {
        for instr in &bundles[bi] {
            if instr.gpr_write() != Some(r) {
                continue;
            }
            if add_site.is_some() {
                return give_up(header, tail, "induction written more than once");
            }
            let step = induction_step(instr, r);
            match step {
                Some(c) => add_site = Some((bi, c)),
                None => return give_up(header, tail, "induction step not ADD r, r, #c"),
            }
        }
    }
    let Some((add_bi, step)) = add_site else {
        return give_up(header, tail, "no induction step");
    };

    // Both the step and the compare must execute every iteration.
    for site in [add_bi, cmp_bi] {
        if !on_every_path(cfg, &in_scc, tail, header, site) {
            return give_up(header, tail, "step or compare is conditional");
        }
    }
    // A compare sharing the tail bundle is read one iteration late; the
    // very first back branch may also consume a stale entry predicate.
    let slack: u64 = if cmp_bi == tail { 2 } else { 1 };

    // Entry value of the induction register: join over all edges into
    // the header from outside the SCC.
    let mut start = Interval::bottom();
    if header == entry {
        start.lo = 0;
        start.hi = 0;
    }
    for pe in cfg.preds(header) {
        let u = pe.to;
        if in_scc(u) {
            continue;
        }
        let Some(flow) = values.get(u).and_then(|v| v.as_ref()) else {
            continue; // unreachable predecessor contributes nothing
        };
        let out = value_analysis.transfer(u, &bundles[u], flow);
        let interval = out
            .gprs
            .get(r.0 as usize)
            .copied()
            .unwrap_or_else(Interval::top);
        crate::lattice::Lattice::join(&mut start, &interval);
    }
    if start.is_bottom() {
        return give_up(header, tail, "loop entry value unknown");
    }

    let Some(trips) = trip_bound(cond, u64::from(start.lo), start.hi, k, step, slack) else {
        return give_up(header, tail, "condition shape not counted");
    };
    LoopSummary {
        header,
        back_edge_source: tail,
        body: members.to_vec(),
        trips: Some(trips),
        reason: "counted",
    }
}

/// The positive literal step of `ADD r, r, #c` / `ADD r, #c, r`.
fn induction_step(instr: &Instruction, r: Gpr) -> Option<u64> {
    if instr.opcode != Opcode::Add || instr.pred != TRUE_PRED {
        return None;
    }
    let c = match (instr.src1, instr.src2) {
        (Operand::Gpr(a), Operand::Lit(c)) if a == r => c,
        (Operand::Lit(c), Operand::Gpr(a)) if a == r => c,
        _ => return None,
    };
    u64::try_from(c).ok().filter(|&c| c > 0)
}

/// Closed-form trip bound for `continue while r <cond> #k`, stepping by
/// `c` from at worst `start_lo`, with `slack` extra iterations for
/// stale-operand reads. `None` when the shape or ranges defeat the
/// wrap-around and signedness guards.
pub(crate) fn trip_bound(
    cond: CmpCond,
    start_lo: u64,
    start_hi: u32,
    k: i64,
    c: u64,
    slack: u64,
) -> Option<u64> {
    // Exclusive bound `B`: continue while `r < B` in the condition's
    // number domain.
    match cond {
        CmpCond::Lt | CmpCond::Le => {
            // Signed compare: decide only while every value the counter
            // takes stays in [0, i32::MAX], where signed and unsigned
            // orders agree and no wrap can occur.
            if start_hi > i32::MAX as u32 {
                return None;
            }
            let b = if cond == CmpCond::Lt {
                k
            } else {
                k.checked_add(1)?
            };
            if b <= 0 {
                return Some(1 + slack); // first test already fails
            }
            let b = b as u64;
            if b - 1 + c > i32::MAX as u64 {
                return None; // counter could leave signed-positive range
            }
            let steps = b.saturating_sub(start_lo).div_ceil(c);
            Some(steps.saturating_add(1).saturating_add(slack))
        }
        CmpCond::Ltu | CmpCond::Leu => {
            if k < 0 || k > i64::from(u32::MAX) {
                return None;
            }
            let b = k as u64 + u64::from(cond == CmpCond::Leu);
            if b == 0 {
                return Some(1 + slack);
            }
            if b - 1 + c > u64::from(u32::MAX) {
                return None; // unsigned wrap possible
            }
            let steps = b.saturating_sub(start_lo).div_ceil(c);
            Some(steps.saturating_add(1).saturating_add(slack))
        }
        _ => None,
    }
}

/// Whether the SCC minus the `tail → header` back edge is acyclic.
fn acyclic_without_back_edge(
    cfg: &Cfg,
    members: &[usize],
    in_scc: &impl Fn(usize) -> bool,
    tail: usize,
    header: usize,
) -> bool {
    let mut indegree: std::collections::BTreeMap<usize, usize> =
        members.iter().map(|&m| (m, 0)).collect();
    let body_edges = |u: usize| {
        cfg.succs(u)
            .iter()
            .filter(move |e| in_scc(e.to) && !(u == tail && e.to == header))
    };
    for &u in members {
        for e in body_edges(u) {
            *indegree.get_mut(&e.to).expect("member") += 1;
        }
    }
    let mut ready: Vec<usize> = members
        .iter()
        .copied()
        .filter(|m| indegree[m] == 0)
        .collect();
    let mut processed = 0;
    while let Some(u) = ready.pop() {
        processed += 1;
        for e in body_edges(u) {
            let d = indegree.get_mut(&e.to).expect("member");
            *d -= 1;
            if *d == 0 {
                ready.push(e.to);
            }
        }
    }
    processed == members.len()
}

/// Whether every `header → tail` path inside the body (back edge
/// removed) passes through `site`.
fn on_every_path(
    cfg: &Cfg,
    in_scc: &impl Fn(usize) -> bool,
    tail: usize,
    header: usize,
    site: usize,
) -> bool {
    if site == header || site == tail {
        return true;
    }
    // Reachable header → tail while avoiding `site`?
    let mut seen = std::collections::BTreeSet::new();
    let mut stack = vec![header];
    seen.insert(header);
    while let Some(u) = stack.pop() {
        if u == tail {
            return false;
        }
        for e in cfg.succs(u) {
            if in_scc(e.to) && !(u == tail && e.to == header) && e.to != site && seen.insert(e.to) {
                stack.push(e.to);
            }
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use epic_asm::assemble;

    fn analyze(source: &str) -> (Cfg, LoopAnalysis, usize) {
        let config = Config::default();
        let program = assemble(source, &config).expect("assembles");
        let cfg = Cfg::build(&config, program.bundles());
        let entry = program.entry() as usize;
        let va = ValueAnalysis::new(&config);
        let values = va.solve(&cfg, program.bundles(), entry);
        let la = LoopAnalysis::analyze(&config, &cfg, program.bundles(), entry, &values, &va);
        (cfg, la, entry)
    }

    const COUNTED: &str = "PBR b1, @loop\n;;\nloop:\nADD r1, r1, #1\n;;\n\
                           CMP_LT p1, p0, r1, #10\n;;\nBRCT b1 (p1)\n;;\nHALT\n;;\n";

    #[test]
    fn counted_loop_gets_a_trip_bound() {
        let (cfg, la, entry) = analyze(COUNTED);
        assert_eq!(la.loops.len(), 1);
        let l = &la.loops[0];
        assert_eq!((l.header, l.back_edge_source), (1, 3));
        // 10 comparisons stepping by 1 from 0, +1 final, +1 slack.
        assert_eq!(l.trips, Some(12), "{}", l.reason);
        let counts = la.static_counts(&cfg, entry, None);
        assert_eq!(counts[0], Some(1));
        assert_eq!(counts[2], Some(12));
        assert_eq!(counts[4], Some(1), "exit bundle runs once");
    }

    #[test]
    fn trip_bound_is_a_true_upper_bound() {
        // The loop executes its body exactly 10 times (r1 = 1..=10).
        let (_, la, _) = analyze(COUNTED);
        assert!(la.loops[0].trips.unwrap() >= 10);
    }

    #[test]
    fn data_dependent_loop_stays_unbounded() {
        let (cfg, la, entry) = analyze(
            "PBR b1, @loop\n;;\nloop:\nLW r1, r2, #0\n;;\nCMP_EQ p1, p0, r1, #0\n;;\n\
             BRCT b1 (p1)\n;;\nHALT\n;;\n",
        );
        assert_eq!(la.loops.len(), 1);
        assert_eq!(la.loops[0].trips, None);
        let counts = la.static_counts(&cfg, entry, None);
        assert_eq!(counts[2], None, "unbounded body");
        let assumed = la.static_counts(&cfg, entry, Some(100));
        assert_eq!(assumed[2], Some(100), "assumed trips bound the body");
    }

    #[test]
    fn nested_loops_are_detected_and_refused() {
        let (_, la, _) = analyze(
            "PBR b1, @outer\n;;\nPBR b2, @inner\n;;\nouter:\nADD r1, r1, #1\n;;\n\
             inner:\nADD r2, r2, #1\n;;\nCMP_LT p2, p0, r2, #4\n;;\nBRCT b2 (p2)\n;;\n\
             CMP_LT p1, p0, r1, #4\n;;\nBRCT b1 (p1)\n;;\nHALT\n;;\n",
        );
        assert_eq!(la.loops.len(), 1, "nest collapses into one SCC");
        assert_eq!(la.loops[0].trips, None);
        assert_eq!(la.loops[0].reason, "nested loop");
    }

    #[test]
    fn straight_line_counts_are_all_one() {
        let (cfg, la, entry) = analyze("MOVE r1, #1\n;;\nADD r2, r1, #1\n;;\nHALT\n;;\n");
        assert!(la.loops.is_empty());
        let counts = la.static_counts(&cfg, entry, None);
        assert_eq!(counts, vec![Some(1); 3]);
    }
}
