//! Differential CFG oracle: every dataflow result over the shared
//! control-flow graph ([`Cfg`]) is only sound if the graph
//! over-approximates what the hardware can do. The verifier, `epic-bound`,
//! `Simulator`'s threaded loop and `epic-isx` all run on it. This test drives the
//! reference simulator one cycle at a time over every compiled workload
//! and asserts that **every** bundle-to-bundle transition it actually
//! takes is an edge of [`Cfg::build`] whose `delta` is at most the cycle
//! distance between the two execution events: the verifier's VER004 and
//! VER011 and `epic-bound`'s residual ages all rely on that bound. It
//! covers the full configuration grid the paper explores, plus deeper
//! pipelines and machines without forwarding.

use std::collections::BTreeMap;

use epic_core::config::Config;
use epic_core::ir::lower;
use epic_core::workloads::{self, Scale};
use epic_core::Toolchain;
use epic_mdes::cfg::Cfg;
use epic_sim::{Memory, ReferenceSimulator, TraceSink};

const CYCLE_LIMIT: u64 = 2_000_000;

/// `(ALUs, issue width, pipeline stages, forwarding)`: the paper's grid
/// at the default pipeline, then four points off it.
fn points() -> Vec<(usize, usize, usize, bool)> {
    let mut points: Vec<_> = (1..=4)
        .flat_map(|alus| (1..=4).map(move |width| (alus, width, 2, true)))
        .collect();
    points.extend([
        (1, 1, 3, true),
        (2, 2, 4, true),
        (4, 4, 3, false),
        (2, 4, 2, false),
    ]);
    points
}

/// Collects every consecutive pair of executed bundle addresses, with
/// the fewest cycles seen between the two execution events. The execute
/// event fires once per bundle execution, so stall cycles contribute no
/// edge, while a bundle re-executing — a tight self-loop — still does.
#[derive(Default)]
struct EdgeSink {
    edges: BTreeMap<(usize, usize), u64>,
    prev: Option<(u32, u64)>,
}

impl TraceSink for EdgeSink {
    fn bundle_execute(&mut self, cycle: u64, pc: u32, _: u64, _: u64, _: &[u64; 4]) {
        if let Some((from, at)) = self.prev {
            let distance = self
                .edges
                .entry((from as usize, pc as usize))
                .or_insert(u64::MAX);
            *distance = (*distance).min(cycle - at);
        }
        self.prev = Some((pc, cycle));
    }
}

/// Replays one program in the reference simulator, one cycle at a time,
/// and returns its dynamic edges.
fn dynamic_edges(
    program: &epic_asm::Program,
    module: &epic_core::ir::Module,
    config: &Config,
) -> BTreeMap<(usize, usize), u64> {
    let layout = module.layout().expect("module layout");
    let mut sim = ReferenceSimulator::try_new(config, program.shared_bundles(), program.entry())
        .expect("the reference engine accepts legal programs");
    sim.set_memory(Memory::from_image(module.initial_memory(&layout)));
    sim.set_cycle_limit(CYCLE_LIMIT);
    let mut sink = EdgeSink::default();
    sim.run_with_sink(&mut sink).expect("workload simulates");
    sink.edges
}

#[test]
fn every_dynamic_edge_is_in_the_static_cfg() {
    for workload in workloads::all(Scale::Test) {
        let module = lower::lower(&workload.program).expect("lowering succeeds");
        for (alus, width, stages, forwarding) in points() {
            let config = Config::builder()
                .num_alus(alus)
                .issue_width(width)
                .pipeline_stages(stages)
                .forwarding(forwarding)
                .build()
                .expect("valid configuration");
            let run = Toolchain::new(config.clone())
                .run_module(&module, &workload.entry, &[], &workload.inline_hints())
                .expect("toolchain run succeeds");

            let cfg = Cfg::build(&config, run.program.bundles());
            let taken = dynamic_edges(&run.program, &module, &config);
            assert!(!taken.is_empty(), "{}: no executed edges", workload.name);
            for (&(from, to), &distance) in &taken {
                assert!(
                    cfg.succs(from)
                        .iter()
                        .any(|e| e.to == to && u64::from(e.delta) <= distance),
                    "{} @ {alus} ALUs, issue width {width}, {stages} stages, forwarding \
                     {forwarding}: the simulator went from bundle {from} to bundle {to} \
                     in {distance} cycle(s), but the static CFG has no such edge that \
                     short (successors of {from}: {:?})",
                    workload.name,
                    cfg.succs(from)
                );
            }
        }
    }
}
