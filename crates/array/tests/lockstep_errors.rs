//! The lockstep loop's verdicts on hand-assembled programs: every
//! [`ArrayError`] the array can report, with the cycle and core index
//! it reports them at.
//!
//! Each program keeps its mailbox window at address 0 of a 4 KiB
//! image, as in the [`ArraySimulator`] doc example, so the mailbox
//! words sit at fixed byte addresses: `CORE_ID` at 0, `TX_STATUS` at
//! 12, `TX_DEST` at 16, `TX_LEN` at 20 and `TX_DATA` at 24.

use epic_array::{ArrayError, ArraySimulator, MeshSpec, NocConfig};
use epic_config::Config;
use epic_sim::{Engine, Memory, Simulator};

const MEMORY_BYTES: usize = 4096;

fn build(source: &str, spec: &MeshSpec) -> Result<ArraySimulator, ArrayError> {
    build_with_image(source, spec, &[0u8; MEMORY_BYTES], 0)
}

fn build_with_image(
    source: &str,
    spec: &MeshSpec,
    image: &[u8],
    mailbox_base: u32,
) -> Result<ArraySimulator, ArrayError> {
    let config = Config::default();
    let program = epic_asm::assemble(source, &config).expect("test program assembles");
    ArraySimulator::new(
        &config,
        program.bundles(),
        program.entry(),
        image,
        mailbox_base,
        spec,
    )
}

fn run(source: &str, spec: &MeshSpec) -> ArrayError {
    let mut array = build(source, spec).expect("array builds");
    array.run().expect_err("the run must fail")
}

const HALT: &str = ".entry main\nmain:\n    HALT\n;;\n";

#[test]
fn a_spinning_mesh_times_out_at_its_budget() {
    let spin = ".entry main\nmain:\n    PBR b1, @main\n;;\n    BR b1\n;;\n";
    let spec = MeshSpec::new(2, 1).with_max_cycles(100);
    let mut array = build(spin, &spec).expect("array builds");
    assert_eq!(array.run(), Err(ArrayError::Timeout { cycle: 100 }));
    assert_eq!(array.cycles(), 100);
}

#[test]
fn the_lowest_index_faulting_core_is_reported() {
    // Core 0 loads address 0; cores 1 and 2 load past the end of their
    // memories in the same cycle.
    let fault = ".entry main\nmain:\n    LW r1, r0, #0\n;;\n    SHL r2, r1, #20\n;;\n\
                     LW r3, r2, #0\n;;\n    HALT\n;;\n";
    let err = run(fault, &MeshSpec::new(3, 1));
    assert!(
        matches!(err, ArrayError::Core { core: 1, .. }),
        "want core 1's fault, got {err:?}"
    );
}

#[test]
fn an_overlong_payload_is_a_bad_message() {
    // TX_LEN = 33 > MAX_PAYLOAD_WORDS, committed on both cores at once.
    let overlong = ".entry main\nmain:\n    MOVE r1, #33\n    MOVE r2, #1\n;;\n\
                        SW r1, r0, #20\n;;\n    SW r2, r0, #12\n;;\n    HALT\n;;\n";
    let err = run(overlong, &MeshSpec::new(2, 1));
    assert!(
        matches!(
            err,
            ArrayError::BadMessage {
                core: 0,
                cycle: 3,
                ..
            }
        ),
        "want core 0's bad length at cycle 3, got {err:?}"
    );
}

#[test]
fn an_off_mesh_destination_is_a_bad_message() {
    // TX_DEST = 5 on a 4-core mesh.
    let off_mesh = ".entry main\nmain:\n    MOVE r1, #5\n    MOVE r2, #1\n;;\n\
                        SW r1, r0, #16\n;;\n    SW r2, r0, #20\n;;\n    SW r2, r0, #12\n;;\n\
                        HALT\n;;\n";
    let err = run(off_mesh, &MeshSpec::new(2, 2));
    match err {
        ArrayError::BadMessage {
            core: 0, detail, ..
        } => {
            assert!(detail.contains("destination 5"), "{detail}");
        }
        other => panic!("want core 0's off-mesh destination, got {other:?}"),
    }
}

/// The verdict and [`ArraySimulator::cycles`] of `source` on threaded
/// cores, checked against reference cores, which step every cycle as
/// the lockstep loop does.
fn verdict(source: &str, spec: &MeshSpec) -> (ArrayError, u64) {
    let [threaded, reference] = [Engine::Threaded, Engine::Reference].map(|engine| {
        let mut array = build(source, &spec.with_engine(engine)).expect("array builds");
        let err = array.run().expect_err("the run must fail");
        (err, array.cycles())
    });
    assert_eq!(threaded, reference, "threaded vs reference cores");
    threaded
}

#[test]
fn an_earlier_fault_on_a_higher_index_core_is_reported_first() {
    // Every core reads its CORE_ID, counts down from 40 on core 0 and
    // from 1 elsewhere, then loads past the end of its memory: core 1
    // faults long before core 0, whose loop it would otherwise wait for.
    let staggered = ".entry main\nmain:\n    LW r1, r0, #0\n    MOVE r2, #1\n    PBR b1, @count\n;;\n\
                         MOVIL r9, #100000\n;;\n    CMP_EQ p1, p2, r1, #0\n;;\n    MOVE r2, #40 (p1)\n;;\n\
                     count:\n    SUB r2, r2, #1\n;;\n    CMP_GT p3, p4, r2, #0\n;;\n    BRCT b1 (p3)\n;;\n\
                         LW r3, r9, #0\n;;\n    HALT\n;;\n";
    // Each core alone: the cycle its load faults at, and the fault.
    let config = Config::default();
    let program = epic_asm::assemble(staggered, &config).expect("assembles");
    let alone = |core_id: u8| {
        let mut image = vec![0u8; MEMORY_BYTES];
        image[3] = core_id;
        let mut sim = Simulator::try_new(&config, program.bundles(), program.entry()).unwrap();
        sim.set_memory(Memory::from_image(image));
        loop {
            if let Err(e) = sim.step() {
                break (sim.cycle(), e);
            }
        }
    };
    let ((core0_cycle, _), (core1_cycle, core1_fault)) = (alone(0), alone(1));
    assert!(core1_cycle < core0_cycle, "{core1_cycle} vs {core0_cycle}");
    let (err, cycles) = verdict(staggered, &MeshSpec::new(2, 1));
    assert_eq!(
        err,
        ArrayError::Core {
            core: 1,
            source: core1_fault
        }
    );
    assert_eq!(cycles, core1_cycle + 1, "reported at core 1's own cycle");
    assert_eq!(cycles, 9);
}

#[test]
fn a_core_that_never_touches_its_mailbox_spins_to_the_budget() {
    // Core 1 spins in a loop that never loads or stores; the others halt.
    let spin = ".entry main\nmain:\n    LW r1, r0, #0\n    PBR b1, @spin\n;;\n\
                    CMP_EQ p1, p2, r1, #1\n;;\n    BRCT b1 (p1)\n;;\n    HALT\n;;\n\
                spin:\n    ADD r5, r5, #1\n;;\n    BR b1\n;;\n";
    for max_cycles in [1, 5, 100, 20_000] {
        let spec = MeshSpec::new(2, 2).with_max_cycles(max_cycles);
        let (err, cycles) = verdict(spin, &spec);
        assert_eq!(err, ArrayError::Timeout { cycle: max_cycles });
        assert_eq!(cycles, max_cycles);
    }
}

/// Every core self-sends three one-word messages and never clears its
/// RX mailbox. With one-slot buffers the first message fills RX, the
/// second waits in the ejection queue and the third stays committed in
/// the TX window, refused: two messages per core are still in flight
/// when the mesh halts.
#[test]
fn undelivered_counts_every_message_left_in_flight() {
    let self_send = "\
.entry main
main:
    LW r1, r0, #0
    MOVE r2, #1
    MOVE r3, #3
    PBR b1, @wait
;;
wait:
    LW r4, r0, #12
;;
    CMP_NE p1, p2, r4, #0
;;
    BRCT b1 (p1)
;;
    SW r1, r0, #16
;;
    SW r2, r0, #20
;;
    SW r3, r0, #24
;;
    SW r2, r0, #12
;;
    SUB r3, r3, #1
;;
    CMP_GT p1, p2, r3, #0
;;
    BRCT b1 (p1)
;;
    HALT
;;
";
    let noc = NocConfig {
        link_latency: 2,
        link_capacity: 1,
    };
    for width in [1usize, 2, 4] {
        let err = run(self_send, &MeshSpec::new(width, 1).with_noc(noc));
        assert_eq!(
            err,
            ArrayError::Undelivered {
                in_flight: 2 * width as u64
            },
            "{width}x1 mesh"
        );
    }
}

/// The setup error's message, or a panic naming what came back instead.
fn setup_error(spec: MeshSpec, image: &[u8], mailbox_base: u32) -> String {
    match build_with_image(HALT, &spec, image, mailbox_base) {
        Err(ArrayError::Setup(msg)) => msg,
        other => panic!("{spec:?}: want a setup error, got {other:?}"),
    }
}

#[test]
fn unusable_meshes_are_refused_at_setup() {
    let image = [0u8; MEMORY_BYTES];
    let mesh = MeshSpec::new(2, 2);
    let noc = |link_latency, link_capacity| NocConfig {
        link_latency,
        link_capacity,
    };
    let refusals = [
        (setup_error(MeshSpec::new(0, 2), &image, 0), "positive"),
        (setup_error(MeshSpec::new(2, 0), &image, 0), "positive"),
        (setup_error(mesh.with_noc(noc(0, 4)), &image, 0), "latency"),
        (setup_error(mesh.with_noc(noc(2, 0)), &image, 0), "capacity"),
        (setup_error(mesh, &image, 2), "word-aligned"),
        (setup_error(mesh, &image[..64], 0), "exceeds"),
    ];
    for (msg, needle) in refusals {
        assert!(msg.contains(needle), "want {needle:?} in {msg:?}");
    }
}
