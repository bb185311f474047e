//! Allocation budget of a served design-point job.
//!
//! A counting global allocator tallies every allocation this test
//! binary makes, and the binary holds exactly one test, so nothing else
//! shares the count. With the front memo warm, a served job —
//! `prepare_epic_workload`, `run_prepared` on the threaded engine and
//! the golden check — must stay within its kernel's budget: the count
//! measured once the per-operation work was made allocation-free, plus
//! 25%. Work that allocates per operation again (a `Vec` per register
//! query, a `String` per emitted operation, boxed slices per decoded
//! bundle) overruns it several times over.

use epic_core::config::Config;
use epic_core::experiments::{prepare_epic_workload, verify_workload_memory};
use epic_core::sim::Engine;
use epic_core::workloads::{self, Scale, Workload};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// The system allocator, counting allocations and reallocations.
struct Counting;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards its arguments unchanged to the system
// allocator, which upholds the `GlobalAlloc` contract; the counter is a
// statistic that publishes no other data.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller's `layout` obligations pass through as is.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: `ptr` came from this allocator, which is the system's.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, which is the system's.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations of one served job as measured on a warm memo, by kernel
/// and by the machine's ALU count (equal to its issue width here).
const MEASURED: [(&str, usize, u64); 8] = [
    ("sha", 1, 2791),
    ("sha", 4, 3655),
    ("aes", 1, 17674),
    ("aes", 4, 13287),
    ("dct", 1, 23754),
    ("dct", 4, 11715),
    ("dijkstra", 1, 1548),
    ("dijkstra", 4, 3996),
];

/// Allocations one served job makes, from preparation to the golden
/// check, its results dropped.
fn job(workload: &Workload, config: &Config) -> u64 {
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let (toolchain, prepared) = prepare_epic_workload(workload, config).expect("prepares");
    let outcome = toolchain
        .run_prepared(&prepared, Engine::Threaded)
        .expect("runs");
    verify_workload_memory(workload, outcome.memory.bytes()).expect("matches the golden model");
    drop((toolchain, prepared, outcome));
    ALLOCATIONS.load(Ordering::Relaxed) - before
}

#[test]
fn served_jobs_stay_within_their_allocation_budget() {
    for workload in workloads::all(Scale::Test) {
        for n in [1, 4] {
            let config = Config::builder()
                .num_alus(n)
                .issue_width(n)
                .build()
                .expect("valid grid point");
            // The first job builds the memo entry and, on a wide
            // machine, trains its profile.
            job(&workload, &config);
            let (first, second) = (job(&workload, &config), job(&workload, &config));
            let point = format!("{} at {n}x{n}", workload.name);
            assert_eq!(
                first, second,
                "{point}: two repeats of a served job allocated {first} and {second} times"
            );
            let (_, _, measured) = MEASURED
                .iter()
                .find(|(name, alus, _)| *name == workload.name && *alus == n)
                .unwrap_or_else(|| panic!("{point}: no measured count"));
            let budget = measured + measured / 4;
            assert!(
                first <= budget,
                "{point}: a served job allocated {first} times, over its budget of {budget} \
                 (the measured {measured} plus 25%)"
            );
        }
    }
}
