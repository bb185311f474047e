//! The benchmark's seeded generators: determinism, seed sensitivity, and
//! golden outputs confirmed on the reference IR interpreter (never on the
//! compiler under test).

use epic_ir::{lower, Interpreter, Layout};
use epic_perfbench::gen::{self, Instance, MeshKernel, MESH_KERNELS};
use epic_workloads::Scale;
use std::collections::HashMap;

const SEED: u64 = 20_241;

#[test]
fn dse_passes_are_seeded() {
    assert_eq!(gen::dse_pass(SEED, 0), gen::dse_pass(SEED, 0));
    assert_ne!(gen::dse_pass(SEED, 0), gen::dse_pass(SEED + 1, 0));
    assert_ne!(gen::dse_pass(SEED, 0), gen::dse_pass(SEED, 1));
    assert_eq!(gen::pass_order(8, SEED, 0), gen::pass_order(8, SEED, 0));
    assert_ne!(gen::pass_order(8, SEED, 0), gen::pass_order(8, SEED + 1, 0));
}

#[test]
fn a_dse_pass_visits_every_point_twice_half_as_repeats() {
    for seed in [SEED, 7, 0] {
        let pass = gen::dse_pass(seed, 0);
        assert_eq!(pass.len(), 128);
        let mut seen: HashMap<gen::Job, usize> = HashMap::new();
        let mut repeats = 0;
        for job in &pass {
            let n = seen.entry(*job).or_default();
            if *n > 0 {
                repeats += 1;
            }
            *n += 1;
        }
        assert_eq!(seen.len(), 64, "every grid point appears");
        assert!(seen.values().all(|&n| n == 2));
        assert_eq!(repeats, 64, "half the jobs repeat an earlier point");
        let grid = gen::grid();
        assert!(pass.iter().all(|j| grid.contains(j)));
    }
}

#[test]
fn instances_are_seeded() {
    for kernel in MESH_KERNELS {
        let a = kernel.instance(Scale::Test, SEED);
        assert_eq!(a, kernel.instance(Scale::Test, SEED), "{}", kernel.name());
        let b = kernel.instance(Scale::Test, SEED + 1);
        assert_ne!(
            a.writes,
            b.writes,
            "{}: a new seed gives new inputs",
            kernel.name()
        );
        assert_eq!(
            gen::op_seed(SEED, 3),
            gen::op_seed(SEED, 3),
            "op seeds are a function of (seed, op)"
        );
        assert_ne!(gen::op_seed(SEED, 3), gen::op_seed(SEED, 4));
    }
}

/// Writes bytes into the interpreter's memory a word at a time (it only
/// exposes word stores), merging partial words at either end.
fn write_bytes(interp: &mut Interpreter<'_>, addr: u32, bytes: &[u8]) {
    let (start, end) = (addr, addr + bytes.len() as u32);
    let mut word = start & !3;
    while word < end {
        let mut buf = interp.read_word(word).expect("in range").to_be_bytes();
        for (i, b) in buf.iter_mut().enumerate() {
            let a = word + i as u32;
            if (start..end).contains(&a) {
                *b = bytes[(a - start) as usize];
            }
        }
        interp
            .write_word(word, u32::from_be_bytes(buf))
            .expect("in range");
        word += 4;
    }
}

fn layout_of(kernel: MeshKernel, scale: Scale) -> (epic_ir::Module, Layout) {
    let workload = kernel.workload(scale);
    let module = lower::lower(&workload.program).expect("workload lowers");
    let layout = module.layout().expect("workload lays out");
    (module, layout)
}

fn check_on_interpreter(kernel: MeshKernel, scale: Scale, instance: &Instance) {
    let workload = kernel.workload(scale);
    let (module, layout) = layout_of(kernel, scale);
    let mut interp = Interpreter::new(&module);
    for (global, bytes) in &instance.writes {
        let addr = layout.address_of(global).expect("input global exists");
        write_bytes(&mut interp, addr, bytes);
    }
    interp.call(&workload.entry, &[]).expect("interpreter runs");
    instance
        .check(&layout, interp.memory())
        .unwrap_or_else(|e| panic!("{}: {e}", kernel.name()));
    assert_ne!(
        instance.expected,
        workload.expected,
        "{}: the seeded input changes the output",
        kernel.name()
    );
}

#[test]
fn generated_inputs_match_their_golden_outputs_on_the_interpreter() {
    for kernel in MESH_KERNELS {
        for seed in [SEED, SEED + 1] {
            check_on_interpreter(kernel, Scale::Paper, &kernel.instance(Scale::Paper, seed));
        }
    }
}

#[test]
fn the_golden_check_rejects_a_corrupted_output() {
    let kernel = MeshKernel::Bfs;
    let instance = kernel.instance(Scale::Test, SEED);
    let (module, layout) = layout_of(kernel, Scale::Test);
    let mut image = module.initial_memory(&layout);
    instance.apply(&layout, &mut image);
    let out = layout.address_of(instance.output).expect("output global") as usize;
    image[out..out + instance.expected.len()].copy_from_slice(&instance.expected);
    assert!(instance.check(&layout, &image).is_ok());
    image[out + 5] ^= 1;
    assert!(instance.check(&layout, &image).is_err());
}
