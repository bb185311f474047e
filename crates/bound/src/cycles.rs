//! Static cycle-interval analysis: `[lower, upper]` bounds on a whole
//! run's simulated cycle count.
//!
//! The simulator's cycle identity is exact: every cycle is either one
//! bundle issue, one counted stall (data hazard, busy unit, port
//! serialisation, branch flush, memory contention) or the single final
//! halt-execute cycle. The analysis therefore bounds cycles by bounding
//! issues and stalls separately:
//!
//! * **Per-execution stall bounds** come from the scoreboard fixpoint
//!   ([`ScoreboardAnalysis`]): GPR writes book `latency (+1 without
//!   forwarding)` cycles, divider ops book their ALU for the division
//!   latency, and states age by each edge's *minimum*
//!   execute-to-execute distance — the actual distance is never
//!   smaller, so aged residuals upper-bound the live scoreboard. Port
//!   and branch costs are per-bundle constants from the [`CostModel`].
//! * **Execution counts** either come from a profiling run (exact), or
//!   from the static loop analysis (trip bounds folded over the SCC
//!   condensation). An unbounded loop leaves the upper end open.
//! * **The lower bound** is a shortest path: Dijkstra over edge deltas
//!   plus unavoidable per-bundle stalls (write-port serialisation,
//!   always-taken branch flushes), or — with measured counts — the
//!   issue total plus those same unavoidable stalls.
//!
//! Soundness is enforced empirically by the differential oracle
//! (`tests/oracle.rs`): for every workload × configuration grid point,
//! the reference engine's and both `Simulator` run modes' cycle counts
//! must land inside the interval.

use crate::cfg::Cfg;
use crate::cost::CostModel;
use crate::loops::LoopAnalysis;
use crate::ranges::ValueAnalysis;
use crate::scoreboard::ScoreboardAnalysis;
use epic_config::Config;
use epic_isa::{Instruction, Opcode, Unit, TRUE_PRED};
use std::collections::BTreeMap;

/// Where per-bundle execution counts come from.
#[derive(Debug, Clone)]
pub enum CountSource<'a> {
    /// Exact per-bundle issue counts from a profiling run (pc → issues).
    /// Bundles absent from the map count zero.
    Measured(&'a BTreeMap<u32, u64>),
    /// Derive counts from the static loop-bound analysis.
    Static,
}

/// Options of [`analyze_cycles`].
#[derive(Debug, Clone, Copy, Default)]
pub struct BoundOptions {
    /// Assumed body executions per entry for loops the static analysis
    /// cannot bound (`None` leaves them unbounded). An *assumption*,
    /// not a proof: the resulting upper bound is conditional on it.
    pub assume_trips: Option<u64>,
}

/// Static bounds for one bundle address.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PcBound {
    /// Bundle address.
    pub pc: u32,
    /// Execution-count upper bound (`None` = unbounded).
    pub count: Option<u64>,
    /// Worst-case data-hazard stalls per execution.
    pub data_hi: u64,
    /// Worst-case busy-unit stalls per execution.
    pub unit_hi: u64,
    /// Worst-case register-file port stalls per execution.
    pub port_hi: u64,
    /// Guaranteed port stalls per execution.
    pub port_lo: u64,
    /// Worst-case branch-flush stalls per execution.
    pub branch_hi: u64,
    /// Guaranteed branch-flush stalls per execution (always-taken
    /// branches).
    pub branch_lo: u64,
    /// Data-memory operations per execution.
    pub mem_ops: u64,
}

impl PcBound {
    /// Worst-case cycles one execution of this bundle adds, excluding
    /// memory contention (folded globally): the issue cycle plus every
    /// stall bound.
    #[must_use]
    pub fn cost_hi(&self) -> u64 {
        1 + self.data_hi + self.unit_hi + self.port_hi + self.branch_hi
    }

    /// This bundle's contribution to the upper bound, including its
    /// (per-bundle floored) share of memory-contention stalls.
    #[must_use]
    pub fn contribution_hi(&self) -> Option<u64> {
        let count = self.count?;
        Some(count.saturating_mul(self.cost_hi()) + count.saturating_mul(self.mem_ops) / 2)
    }
}

/// A whole-program cycle interval with its per-bundle breakdown.
#[derive(Debug, Clone)]
pub struct CycleBounds {
    /// Cycles every run needs at least.
    pub lower: u64,
    /// Cycles no run exceeds (`None` when some reachable loop is
    /// unbounded).
    pub upper: Option<u64>,
    /// Per-bundle bounds, in bundle-address order.
    pub per_pc: Vec<PcBound>,
    /// Human-readable notes: unbounded loops and their reasons.
    pub notes: Vec<String>,
}

impl CycleBounds {
    /// Whether a simulated cycle count lands inside the interval.
    #[must_use]
    pub fn contains(&self, cycles: u64) -> bool {
        self.lower <= cycles && self.upper.is_none_or(|u| cycles <= u)
    }
}

/// Per-bundle static facts the fold consumes.
struct BundleFacts {
    alu_wanted: usize,
    port_hi: u64,
    port_lo: u64,
    mem_ops: u64,
    may_take_branch: bool,
    always_takes_branch: bool,
}

impl BundleFacts {
    fn build(bundle: &[Instruction], model: &CostModel) -> BundleFacts {
        let cost = model.mdes().bundle_cost(bundle);
        let mut facts = BundleFacts {
            alu_wanted: cost.demand(Unit::Alu),
            port_hi: model.port_stall_hi(&cost),
            port_lo: 0,
            mem_ops: 0,
            may_take_branch: false,
            always_takes_branch: false,
        };
        let mut write_ports = 0;
        for instr in bundle {
            if instr.gpr_write().is_some() {
                write_ports += 1;
            }
            if instr.opcode.is_load() || instr.opcode.is_store() {
                facts.mem_ops += 1;
            }
            match instr.opcode {
                Opcode::Br | Opcode::Brl | Opcode::Brct => {
                    facts.may_take_branch = true;
                    if instr.pred == TRUE_PRED {
                        facts.always_takes_branch = true;
                    }
                }
                Opcode::Brcf if instr.pred != TRUE_PRED => facts.may_take_branch = true,
                _ => {}
            }
        }
        facts.port_lo = model.port_stall_lo(&cost, write_ports);
        facts
    }
}

/// Computes the static cycle interval of a program on a configuration.
///
/// With [`CountSource::Measured`] the interval is specific to the
/// profiled input; with [`CountSource::Static`] it holds for every
/// input (upper open when a loop resists the trip-bound analysis and no
/// [`BoundOptions::assume_trips`] is given).
#[must_use]
pub fn analyze_cycles(
    config: &Config,
    bundles: &[Vec<Instruction>],
    entry: usize,
    counts: &CountSource<'_>,
    model: &CostModel,
    options: &BoundOptions,
) -> CycleBounds {
    let cfg = Cfg::build(config, bundles);
    let facts: Vec<BundleFacts> = bundles
        .iter()
        .map(|b| BundleFacts::build(b, model))
        .collect();

    // Residual fixpoint for data-hazard and busy-unit stall bounds.
    let scoreboards = ScoreboardAnalysis::new(model).solve(&cfg, bundles, entry);

    let mut notes = Vec::new();
    let per_count: Vec<Option<u64>> = match counts {
        CountSource::Measured(map) => (0..bundles.len())
            .map(|bi| Some(map.get(&(bi as u32)).copied().unwrap_or(0)))
            .collect(),
        CountSource::Static => {
            let ranges = ValueAnalysis::with_model(config, model);
            let values = ranges.solve(&cfg, bundles, entry);
            let mut la = LoopAnalysis::analyze(config, &cfg, bundles, entry, &values, &ranges);
            for l in &mut la.loops {
                l.trips = model.loop_trips(l.trips);
                if l.trips.is_none() && options.assume_trips.is_none() {
                    notes.push(format!(
                        "loop at bundle {} is unbounded: {}",
                        l.header, l.reason
                    ));
                }
            }
            la.static_counts(&cfg, entry, options.assume_trips)
        }
    };

    let branch_penalty = model.branch_penalty();
    let per_pc: Vec<PcBound> = (0..bundles.len())
        .map(|bi| {
            let f = &facts[bi];
            let (data_hi, unit_hi) = match &scoreboards[bi] {
                None => (0, 0), // unreachable
                Some(state) => {
                    let data = (bundles[bi].iter().flat_map(Instruction::gpr_reads))
                        .map(|r| state.read_wait(r.0))
                        .max()
                        .unwrap_or(0);
                    // Issue waits until enough ALUs are free at once.
                    (data, state.alu_wait(f.alu_wanted))
                }
            };
            PcBound {
                pc: bi as u32,
                count: per_count[bi],
                data_hi,
                unit_hi,
                port_hi: f.port_hi,
                port_lo: f.port_lo,
                branch_hi: if f.may_take_branch { branch_penalty } else { 0 },
                branch_lo: if f.always_takes_branch {
                    branch_penalty
                } else {
                    0
                },
                mem_ops: f.mem_ops,
            }
        })
        .collect();

    // ---- upper: fold counts × per-execution costs ----------------------
    let mut upper: Option<u64> = Some(1);
    let mut total_mem_ops: u64 = 0;
    for b in &per_pc {
        match (upper, b.count) {
            (Some(acc), Some(count)) => {
                upper = Some(acc.saturating_add(count.saturating_mul(b.cost_hi())));
                total_mem_ops = total_mem_ops.saturating_add(count.saturating_mul(b.mem_ops));
            }
            _ => upper = None,
        }
    }
    if config.memory_contention() {
        // Every two outstanding data-memory accesses steal one fetch
        // cycle; the debt never decays, so the total is exactly bounded.
        upper = upper.map(|u| u.saturating_add(total_mem_ops / 2));
    }

    // ---- lower ---------------------------------------------------------
    let lower = match counts {
        CountSource::Measured(_) => {
            // Exact issues plus unavoidable per-execution stalls.
            let mut acc: u64 = 1;
            for b in &per_pc {
                let count = b.count.unwrap_or(0);
                acc = acc.saturating_add(count.saturating_mul(1 + b.port_lo + b.branch_lo));
            }
            acc
        }
        CountSource::Static => shortest_run(&cfg, &per_pc, entry),
    };

    CycleBounds {
        lower,
        upper,
        per_pc,
        notes,
    }
}

/// Dijkstra over `edge delta + unavoidable stalls at the target`: the
/// cheapest possible execute cycle of any halting bundle, plus the final
/// halt cycle.
fn shortest_run(cfg: &Cfg, per_pc: &[PcBound], entry: usize) -> u64 {
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;
    if entry >= cfg.len() {
        return 0;
    }
    let unavoidable = |bi: usize| per_pc[bi].port_lo + per_pc[bi].branch_lo_pre_issue();
    let mut dist: Vec<Option<u64>> = vec![None; cfg.len()];
    let mut heap = BinaryHeap::new();
    // The entry issues at cycle `port_lo` and executes one cycle later.
    let start = 1 + per_pc[entry].port_lo;
    dist[entry] = Some(start);
    heap.push(Reverse((start, entry)));
    while let Some(Reverse((d, bi))) = heap.pop() {
        if dist[bi] != Some(d) {
            continue;
        }
        for edge in cfg.succs(bi) {
            let nd = d + u64::from(edge.delta) + unavoidable(edge.to);
            if dist[edge.to].is_none_or(|old| nd < old) {
                dist[edge.to] = Some(nd);
                heap.push(Reverse((nd, edge.to)));
            }
        }
    }
    cfg.halt_bundles()
        .iter()
        .filter_map(|&h| dist[h])
        .min()
        .map_or(0, |d| d + 1)
}

impl PcBound {
    /// Stalls guaranteed *before this bundle's own issue* on the
    /// cheapest path — branch flushes burn cycles after the branch, so
    /// they are charged on the edge, not here.
    fn branch_lo_pre_issue(&self) -> u64 {
        0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use epic_asm::assemble;

    fn bounds(source: &str, config: &Config, counts: &CountSource<'_>) -> CycleBounds {
        let program = assemble(source, config).expect("assembles");
        let model = CostModel::new(config);
        analyze_cycles(
            config,
            program.bundles(),
            program.entry() as usize,
            counts,
            &model,
            &BoundOptions::default(),
        )
    }

    #[test]
    fn straight_line_lower_matches_the_machine() {
        // Three bundles, no stalls: the simulator takes exactly 4 cycles
        // (3 issues + final halt-execute).
        let config = Config::default();
        let b = bounds(
            "MOVE r1, #1\n;;\nADD r2, r1, #1\n;;\nHALT\n;;\n",
            &config,
            &CountSource::Static,
        );
        assert_eq!(b.lower, 4);
        assert_eq!(b.upper, Some(4), "no hazards: the bound is exact");
    }

    #[test]
    fn load_use_hazard_raises_the_upper_bound() {
        let config = Config::default(); // load latency 2
        let b = bounds(
            "LW r1, r0, #0\n;;\nADD r2, r1, #1\n;;\nHALT\n;;\n",
            &config,
            &CountSource::Static,
        );
        // The consumer stalls one cycle on the load's latency.
        assert_eq!(b.per_pc[1].data_hi, 1);
        // 3 issues + 1 hazard stall + final halt cycle; one memory op
        // leaves the contention debt below the 2-op threshold.
        assert_eq!(b.upper, Some(5));
    }

    #[test]
    fn counted_loop_gets_a_finite_upper_bound() {
        let config = Config::default();
        let b = bounds(
            "PBR b1, @loop\n;;\nloop:\nADD r1, r1, #1\n;;\nCMP_LT p1, p0, r1, #10\n;;\n\
             BRCT b1 (p1)\n;;\nHALT\n;;\n",
            &config,
            &CountSource::Static,
        );
        let upper = b.upper.expect("counted loop is bounded");
        // 10 real iterations × (3 issues + 1 taken-branch penalty) ≈ 40
        // cycles; the bound adds two slack iterations.
        assert!((40..=60).contains(&upper), "upper = {upper}");
        assert!(
            b.lower <= 10,
            "one fall-through traversal, lower = {}",
            b.lower
        );
    }

    #[test]
    fn unbounded_loop_leaves_the_interval_open() {
        let config = Config::default();
        let b = bounds(
            "PBR b1, @loop\n;;\nloop:\nLW r1, r2, #0\n;;\nCMP_EQ p1, p0, r1, #0\n;;\n\
             BRCT b1 (p1)\n;;\nHALT\n;;\n",
            &config,
            &CountSource::Static,
        );
        assert_eq!(b.upper, None);
        assert!(!b.notes.is_empty(), "the unbounded loop is explained");
        assert!(b.lower >= 5);
    }

    #[test]
    fn measured_counts_tighten_both_ends() {
        let config = Config::default();
        let mut counts = BTreeMap::new();
        for (pc, n) in [(0u32, 1u64), (1, 10), (2, 10), (3, 10), (4, 1)] {
            counts.insert(pc, n);
        }
        let b = bounds(
            "PBR b1, @loop\n;;\nloop:\nADD r1, r1, #1\n;;\nCMP_LT p1, p0, r1, #10\n;;\n\
             BRCT b1 (p1)\n;;\nHALT\n;;\n",
            &config,
            &CountSource::Measured(&counts),
        );
        // 32 issues + 1 halt cycle at least; at most 9 or 10 taken
        // branches of 1 penalty cycle each.
        assert!(b.lower >= 33, "lower = {}", b.lower);
        assert_eq!(b.upper, Some(43), "32 issues + 10 flushes + 1");
    }
}
