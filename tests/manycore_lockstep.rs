//! The array's oracle: the lockstep schedule itself, driven cycle by
//! cycle in this file, must end in exactly the state
//! `ArraySimulator::run` reaches.
//!
//! The drive steps a `ReferenceSimulator` per core on every global
//! cycle, then runs the mesh exchange on every global cycle: ejection
//! into free RX mailboxes, link advancement and injection from
//! committed TX mailboxes, over `Noc::{eject, advance, try_inject}` and
//! the mailbox protocol of `epic_array::mailbox`. It shares no code with
//! the event loop, so it checks both halves of it: the production
//! `Simulator` cores running ahead on their threaded loops, and the
//! cycles on which cores run ahead and the exchange sleeps.
//!
//! The runs must agree on the lockstep cycle count, every core's
//! `SimStats`, every register, every core's memory digest and the
//! `NocStats`, for the three mesh programs on 2×2 and 4×4 meshes, with
//! the default NoC and with one-slot, 3-cycle links that keep the links
//! full. The event loop's cores must have run translated streams, and
//! on a Test-scale 4×4 mesh with the default NoC they may issue only so
//! many times one cycle at a time, outside a stream.

use epic_core::array::{mailbox, MeshSpec, Noc, NocConfig, NocStats};
use epic_core::config::Config;
use epic_core::experiments::{instantiate_mesh, prepare_mesh_workload, PreparedMesh};
use epic_core::sim::{Memory, ReferenceSimulator, SimStats};
use epic_core::workloads::{mesh, Scale};

/// Everything a run leaves behind that the two drives must agree on.
#[derive(Debug, PartialEq)]
struct Observation {
    cycles: u64,
    per_core: Vec<SimStats>,
    /// Per core: GPRs, predicates and BTRs.
    registers: Vec<(Vec<u32>, Vec<bool>, Vec<u32>)>,
    memory_digests: Vec<u64>,
    noc: NocStats,
}

fn digest(bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(0u64, |h, b| h.wrapping_mul(131).wrapping_add(u64::from(*b)))
}

fn peek(memory: &Memory, base: u32, offset: u32) -> u32 {
    memory
        .peek_word(base + offset * 4)
        .expect("mailbox inside memory")
}

fn poke(memory: &mut Memory, base: u32, offset: u32, value: u32) {
    assert!(
        memory.poke_word(base + offset * 4, value),
        "mailbox inside memory"
    );
}

/// The lockstep schedule, one global cycle at a time: every running
/// reference core steps one cycle in core order, then the exchange runs.
/// Mesh programs never fault, send a bad message or leave one in flight,
/// so any of these fails the test.
fn lockstep(mesh: &PreparedMesh, config: &Config, spec: &MeshSpec) -> Observation {
    let program = &mesh.prepared.program;
    let base = mesh.mailbox_base;
    let ncores = spec.cores();
    let mut cores: Vec<ReferenceSimulator> = (0..ncores)
        .map(|idx| {
            let mut sim =
                ReferenceSimulator::try_new(config, program.shared_bundles(), program.entry())
                    .expect("legal program");
            let mut memory = Memory::from_image(mesh.prepared.initial_memory.clone());
            poke(&mut memory, base, mailbox::CORE_ID, idx as u32);
            poke(&mut memory, base, mailbox::MESH_WIDTH, spec.width as u32);
            poke(&mut memory, base, mailbox::MESH_HEIGHT, spec.height as u32);
            sim.set_memory(memory);
            sim
        })
        .collect();
    let mut noc = Noc::new(spec.width, spec.height, spec.noc);
    let mut halted = vec![false; ncores];
    let mut cycle = 0;
    loop {
        let now = cycle;
        for (idx, (core, halted)) in cores.iter_mut().zip(&mut halted).enumerate() {
            if !*halted {
                let running = core
                    .step()
                    .unwrap_or_else(|e| panic!("core {idx} at cycle {now}: {e}"));
                *halted = !running;
            }
        }
        cycle += 1;
        for (idx, core) in cores.iter_mut().enumerate() {
            let memory = core.memory_mut();
            if peek(memory, base, mailbox::RX_STATUS) != 0 {
                continue;
            }
            if let Some(delivery) = noc.eject(now, idx) {
                poke(memory, base, mailbox::RX_SRC, delivery.src as u32);
                poke(memory, base, mailbox::RX_LEN, delivery.payload.len() as u32);
                for (i, &word) in delivery.payload.iter().enumerate() {
                    poke(memory, base, mailbox::RX_DATA + i as u32, word);
                }
                poke(memory, base, mailbox::RX_STATUS, 1);
            }
        }
        noc.advance(now);
        let mut refused = 0;
        for (idx, core) in cores.iter_mut().enumerate() {
            let memory = core.memory_mut();
            if peek(memory, base, mailbox::TX_STATUS) != 1 {
                continue;
            }
            let dest = peek(memory, base, mailbox::TX_DEST) as usize;
            let len = peek(memory, base, mailbox::TX_LEN);
            assert!(dest < ncores, "core {idx} sends off-mesh at cycle {now}");
            assert!(
                (1..=mailbox::MAX_PAYLOAD_WORDS).contains(&len),
                "core {idx} sends {len} words at cycle {now}"
            );
            let payload: Vec<u32> = (0..len)
                .map(|i| peek(memory, base, mailbox::TX_DATA + i))
                .collect();
            if noc.try_inject(now, idx, dest, &payload) {
                poke(memory, base, mailbox::TX_STATUS, 0);
            } else {
                refused += 1;
            }
        }
        if halted.iter().all(|&h| h) {
            assert!(noc.is_idle() && refused == 0, "messages left in flight");
            break;
        }
        assert!(cycle < spec.max_cycles, "budget exhausted");
    }
    Observation {
        cycles: cycle,
        per_core: cores.iter().map(|c| *c.stats()).collect(),
        registers: cores
            .iter()
            .map(|c| {
                (
                    (0..config.num_gprs()).map(|r| c.gpr(r)).collect(),
                    (0..config.num_pred_regs()).map(|p| c.pred(p)).collect(),
                    (0..config.num_btrs()).map(|b| c.btr(b)).collect(),
                )
            })
            .collect(),
        memory_digests: cores.iter().map(|c| digest(c.memory().bytes())).collect(),
        noc: noc.stats().clone(),
    }
}

/// `ArraySimulator::run`, whose cores must have run ahead on translated
/// streams. Also returns the issue attempts the cores made one cycle at
/// a time, outside a stream, summed over the cores.
fn event_loop(
    name: &str,
    mesh: &PreparedMesh,
    config: &Config,
    spec: &MeshSpec,
) -> (Observation, u64) {
    let mut array = instantiate_mesh(mesh, config, spec).expect("array builds");
    let outcome = array.run().expect("array runs");
    let cores = (0..spec.cores()).map(|idx| array.core(idx));
    let fast_blocks: u64 = cores.clone().map(|c| c.fast_block_execs()).sum();
    assert!(
        fast_blocks > 0,
        "{name} on {}x{}: the cores never ran ahead",
        spec.width,
        spec.height
    );
    let per_cycle_issues = cores.clone().map(|c| c.per_cycle_issues()).sum();
    let observation = Observation {
        cycles: outcome.cycles,
        registers: cores
            .clone()
            .map(|c| {
                (
                    (0..config.num_gprs()).map(|r| c.gpr(r)).collect(),
                    (0..config.num_pred_regs()).map(|p| c.pred(p)).collect(),
                    (0..config.num_btrs()).map(|b| c.btr(b)).collect(),
                )
            })
            .collect(),
        memory_digests: cores.map(|c| digest(c.memory().bytes())).collect(),
        per_core: outcome.per_core,
        noc: outcome.noc,
    };
    (observation, per_cycle_issues)
}

/// The most issue attempts the cores of each Test-scale 4x4 mesh program
/// may make one cycle at a time, outside a stream, summed over the cores,
/// with the default NoC: the measured count plus 25%, rounded up
/// (mesh_dct 1,933; mesh_aesctr 61).
const PER_CYCLE_ISSUE_BUDGET_4X4: [(&str, u64); 2] = [("mesh_dct", 2_417), ("mesh_aesctr", 77)];

/// Runs every mesh program at `scale` both ways on each `width`×`height`
/// mesh, with the default NoC and with one-slot, 3-cycle links.
fn event_loop_matches_lockstep(scale: Scale, meshes: &[(usize, usize)]) {
    let config = Config::builder().num_alus(2).build().expect("valid config");
    let full_links = NocConfig {
        link_latency: 3,
        link_capacity: 1,
    };
    for workload in mesh::all(scale) {
        let prepared = prepare_mesh_workload(&workload, &config)
            .unwrap_or_else(|e| panic!("{}: {e}", workload.name));
        for &(width, height) in meshes {
            for noc in [NocConfig::default(), full_links] {
                let spec = MeshSpec::new(width, height).with_noc(noc);
                let want = lockstep(&prepared, &config, &spec);
                let (got, per_cycle_issues) = event_loop(&workload.name, &prepared, &config, &spec);
                assert!(
                    want == got,
                    "{} on {width}x{height} with {noc:?}: the event loop left the lockstep \
                     schedule\nlockstep:   cycles {} noc {:?}\nevent loop: cycles {} noc {:?}",
                    workload.name,
                    want.cycles,
                    want.noc,
                    got.cycles,
                    got.noc
                );
                let budgeted = scale == Scale::Test
                    && (width, height) == (4, 4)
                    && noc == NocConfig::default();
                let budget = (PER_CYCLE_ISSUE_BUDGET_4X4.iter()).find(|(n, _)| *n == workload.name);
                if let (true, Some(&(_, budget))) = (budgeted, budget) {
                    assert!(
                        per_cycle_issues <= budget,
                        "{} on 4x4: {per_cycle_issues} issue attempts ran outside a stream, \
                         more than {budget}",
                        workload.name
                    );
                }
            }
        }
    }
}

#[test]
fn event_loop_matches_lockstep_at_test_scale() {
    event_loop_matches_lockstep(Scale::Test, &[(2, 2), (4, 4)]);
}

#[test]
#[ignore = "paper scale: about 10 s in release, minutes in debug"]
fn event_loop_matches_lockstep_at_paper_scale() {
    event_loop_matches_lockstep(Scale::Paper, &[(4, 4)]);
}
