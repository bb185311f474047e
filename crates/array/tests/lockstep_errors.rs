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
use epic_isa::{Gpr, Instruction, Opcode, Operand};
use epic_sim::{Memory, SimError, Simulator};

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

/// The verdict and [`ArraySimulator::cycles`] of `source`.
fn verdict(source: &str, spec: &MeshSpec) -> (ArrayError, u64) {
    let mut array = build(source, spec).expect("array builds");
    let err = array.run().expect_err("the run must fail");
    (err, array.cycles())
}

fn run(source: &str, spec: &MeshSpec) -> ArrayError {
    verdict(source, spec).0
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

/// A core commits a message the NoC refuses, then sets `TX_LEN` to 0
/// while the message is still committed. The exchange, asleep since the
/// refusal, wakes at that store and reports the bad length at its cycle.
#[test]
fn a_length_cleared_after_committing_is_a_bad_message_at_that_store() {
    // Two self-sends into a one-slot ejection queue whose latency
    // outlasts the program: the first is injected at once, the second
    // is refused and stays committed.
    let clear_len = ".entry main\nmain:\n    MOVE r1, #1\n    MOVE r2, #0\n;;\n\
                         SW r1, r0, #20\n;;\n    SW r1, r0, #12\n;;\n    SW r1, r0, #12\n;;\n\
                         ADD r3, r1, #1\n;;\n    SW r2, r0, #20\n;;\n    HALT\n;;\n";
    // The cycle that stores TX_LEN = 0, from the core alone: the program
    // reads nothing, so its cycles do not depend on the NoC.
    let config = Config::default();
    let program = epic_asm::assemble(clear_len, &config).expect("assembles");
    let mut sim = Simulator::try_new(&config, program.bundles(), program.entry()).unwrap();
    sim.set_memory(Memory::from_image(vec![0u8; MEMORY_BYTES]));
    let mut committed_len = false;
    let store_cycle = loop {
        let cycle = sim.cycle();
        assert!(
            sim.step().expect("steps"),
            "the store comes before the halt"
        );
        match sim.memory().peek_word(20).expect("TX_LEN in memory") {
            1 => committed_len = true,
            0 if committed_len => break cycle,
            _ => {}
        }
    };
    let noc = NocConfig {
        link_latency: 50,
        link_capacity: 1,
    };
    let (err, cycles) = verdict(clear_len, &MeshSpec::new(1, 1).with_noc(noc));
    match err {
        ArrayError::BadMessage {
            core: 0,
            cycle,
            detail,
        } => {
            assert_eq!(cycle, store_cycle, "reported at the store's cycle");
            assert!(detail.contains("payload length 0"), "{detail}");
        }
        other => panic!("want core 0's bad length, got {other:?}"),
    }
    assert_eq!(cycles, store_cycle + 1);
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

/// A program illegal for the configuration is refused when the mesh is
/// built, as core 0's error.
#[test]
fn an_illegal_program_is_core_0s_error() {
    let config = Config::default();
    let add = Instruction::alu3(Opcode::Add, Gpr(1), Operand::Gpr(Gpr(2)), Operand::Lit(1));
    let custom = Instruction::alu3(
        Opcode::Custom(0),
        Gpr(1),
        Operand::Gpr(Gpr(2)),
        Operand::Lit(1),
    );
    let programs = [
        // Five instructions in one bundle of a 4-wide machine.
        (
            vec![vec![add; 5], vec![Instruction::halt()]],
            "exceeds the issue width",
        ),
        // A custom-op slot the configuration does not register.
        (
            vec![vec![custom], vec![Instruction::halt()]],
            "custom slot 0",
        ),
    ];
    for (bundles, needle) in programs {
        let spec = MeshSpec::new(2, 1);
        let err = ArraySimulator::new(&config, bundles, 0, &[0u8; MEMORY_BYTES], 0, &spec)
            .expect_err("an illegal program is refused");
        match err {
            ArrayError::Core {
                core: 0,
                source: SimError::IllegalBundle { pc: 0, message },
            } => assert!(message.contains(needle), "want {needle:?} in {message:?}"),
            other => panic!("want core 0's illegal bundle 0, got {other:?}"),
        }
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
