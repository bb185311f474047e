//! Seeded generators: the dse_sweep job stream and the per-op inputs of
//! mesh_array, each with the expected output computed by the workloads
//! crate's public golden functions.
//!
//! The program under test never sees a seed: it receives only the bytes
//! written into its initial memory image.

use epic_ir::Layout;
use epic_workloads::{aes, dct, dijkstra, inputs, mesh, sha, Scale, Workload};

/// SplitMix64: a small, fast, well-mixed generator (Steele, Lea and
/// Flood 2014). The benchmark's streams must not depend on the program
/// under test, so it carries its own.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    /// A generator for one stream: `(seed, stream)` pairs give
    /// independent sequences.
    #[must_use]
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut g = SplitMix64(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F));
        g.next_u64();
        g
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A uniform index in `0..n` (`n > 0`; the modulo bias is below
    /// 2^-50 for the small `n` used here).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// `n` random bytes.
    pub fn bytes(&mut self, n: usize) -> Vec<u8> {
        (0..n).map(|_| (self.next_u64() >> 56) as u8).collect()
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// The Table 1 kernels of dse_sweep, in the workloads crate's order.
pub const KERNELS: [Kernel; 4] = [Kernel::Sha, Kernel::Aes, Kernel::Dct, Kernel::Dijkstra];

/// A Table 1 kernel. dse_sweep runs it on the workload's own input, and
/// the job checks the output against the workload's expected output.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Kernel {
    /// SHA-256 of a PPM image.
    Sha,
    /// Chained AES-128 encryption then decryption.
    Aes,
    /// 8×8 DCT round trip of an image.
    Dct,
    /// All-pairs Dijkstra over an adjacency matrix.
    Dijkstra,
}

impl Kernel {
    /// The workload's name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Kernel::Sha => "sha",
            Kernel::Aes => "aes",
            Kernel::Dct => "dct",
            Kernel::Dijkstra => "dijkstra",
        }
    }

    /// Builds the workload (program, entry and expected output).
    #[must_use]
    pub fn workload(self, scale: Scale) -> Workload {
        match self {
            Kernel::Sha => sha::build(scale),
            Kernel::Aes => aes::build(scale),
            Kernel::Dct => dct::build(scale),
            Kernel::Dijkstra => dijkstra::build(scale),
        }
    }
}

/// The three mesh programs of mesh_array.
pub const MESH_KERNELS: [MeshKernel; 3] = [MeshKernel::Dct, MeshKernel::Bfs, MeshKernel::AesCtr];

/// A mesh program of the workloads crate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MeshKernel {
    /// Tiled DCT gathered to core 0.
    Dct,
    /// Strict-BSP BFS with all-to-all exchange.
    Bfs,
    /// AES-128-CTR sharded per core.
    AesCtr,
}

impl MeshKernel {
    /// The workload's name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            MeshKernel::Dct => "mesh_dct",
            MeshKernel::Bfs => "mesh_bfs",
            MeshKernel::AesCtr => "mesh_aesctr",
        }
    }

    /// Builds the workload (program, entry and default expected output).
    #[must_use]
    pub fn workload(self, scale: Scale) -> Workload {
        match self {
            MeshKernel::Dct => mesh::dct(scale),
            MeshKernel::Bfs => mesh::bfs(scale),
            MeshKernel::AesCtr => mesh::aes_ctr(scale),
        }
    }

    /// Fresh seeded input data for one op, with the output the golden
    /// functions expect for it. Sizes match the workload at `scale`, so
    /// the program does the same work whatever the data.
    #[must_use]
    pub fn instance(self, scale: Scale, seed: u64) -> Instance {
        let mut rng = SplitMix64::new(seed, self as u64);
        match self {
            MeshKernel::Dct => {
                let (w, h) = mesh::dct_dimensions(scale);
                let ppm = inputs::ppm_image(w, h, rng.next_u64());
                let gray = inputs::grayscale_from_ppm(&ppm, w, h);
                let expected = dct::golden_image(&gray, w, h);
                Instance::new(vec![("dct_input", gray)], "dct_output", expected)
            }
            MeshKernel::Bfs => {
                let n = mesh::bfs_nodes(scale);
                let adj = inputs::adjacency_matrix(n, rng.next_u64());
                let expected = inputs::words_to_be_bytes(&mesh::golden_bfs(&adj, n));
                Instance::new(
                    vec![("bfs_adj", inputs::words_to_be_bytes(&adj))],
                    "bfs_out",
                    expected,
                )
            }
            MeshKernel::AesCtr => {
                // The golden CTR stream is the keystream XOR the fixed
                // plaintext; XOR the keystream back out and into fresh data.
                let nblocks = mesh::aes_ctr_blocks(scale);
                let fixed_pt = mesh::ctr_plaintext(nblocks);
                let fixed_ct = mesh::golden_ctr(nblocks);
                let pt = rng.bytes(fixed_pt.len());
                let expected = (0..pt.len())
                    .map(|i| fixed_ct[i] ^ fixed_pt[i] ^ pt[i])
                    .collect();
                Instance::new(vec![("ctr_pt", pt)], "ctr_out", expected)
            }
        }
    }
}

/// One op's input bytes (per global) and the output it must produce.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Instance {
    /// `(global, bytes)` written at the global's address.
    pub writes: Vec<(&'static str, Vec<u8>)>,
    /// The global holding the result.
    pub output: &'static str,
    /// The golden result bytes.
    pub expected: Vec<u8>,
}

impl Instance {
    fn new(writes: Vec<(&'static str, Vec<u8>)>, output: &'static str, expected: Vec<u8>) -> Self {
        Instance {
            writes,
            output,
            expected,
        }
    }

    /// Writes the inputs into a memory image laid out by `layout`.
    ///
    /// # Panics
    ///
    /// Panics if a global is unknown or the image is too small — both are
    /// benchmark bugs, since sizes come from the same workload.
    pub fn apply(&self, layout: &Layout, image: &mut [u8]) {
        for (global, bytes) in &self.writes {
            let base = address(layout, global);
            image[base..base + bytes.len()].copy_from_slice(bytes);
        }
    }

    /// Checks a final memory against the golden output.
    ///
    /// # Errors
    ///
    /// Returns a description of the first differing byte.
    pub fn check(&self, layout: &Layout, memory: &[u8]) -> Result<(), String> {
        let base = address(layout, self.output);
        let actual = memory
            .get(base..base + self.expected.len())
            .ok_or_else(|| format!("`{}` overruns memory", self.output))?;
        match actual.iter().zip(&self.expected).position(|(a, b)| a != b) {
            None => Ok(()),
            Some(i) => Err(format!(
                "`{}` differs from the golden model at byte {i}: got {:#04x}, expected {:#04x}",
                self.output, actual[i], self.expected[i]
            )),
        }
    }
}

fn address(layout: &Layout, global: &str) -> usize {
    layout
        .address_of(global)
        .unwrap_or_else(|| panic!("workload has no global `{global}`")) as usize
}

/// One dse_sweep design point.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Job {
    /// Index into [`KERNELS`].
    pub kernel: usize,
    /// ALU count, 1–4.
    pub alus: usize,
    /// Issue width, 1–4.
    pub issue_width: usize,
}

/// The 64-point grid: kernel × ALUs 1–4 × issue width 1–4.
#[must_use]
pub fn grid() -> Vec<Job> {
    let mut points = Vec::with_capacity(64);
    for kernel in 0..KERNELS.len() {
        for alus in 1..=4 {
            for issue_width in 1..=4 {
                points.push(Job {
                    kernel,
                    alus,
                    issue_width,
                });
            }
        }
    }
    points
}

/// One dse_sweep pass: every grid point once in a seeded order, and a
/// second visit of each point inserted at a seeded position after its
/// first. Half the 128 jobs therefore repeat an earlier point, while
/// every pass holds the same multiset of jobs, so throughput and
/// latency percentiles do not depend on which points a seed favours.
#[must_use]
pub fn dse_pass(seed: u64, pass: u64) -> Vec<Job> {
    let mut rng = SplitMix64::new(seed, 0x05EE_D000 + pass);
    let mut jobs = grid();
    rng.shuffle(&mut jobs);
    let mut revisits = jobs.clone();
    rng.shuffle(&mut revisits);
    for job in revisits {
        let first = jobs
            .iter()
            .position(|j| *j == job)
            .expect("job is in the pass");
        let at = first + 1 + rng.below(jobs.len() - first);
        jobs.insert(at, job);
    }
    jobs
}

/// A seeded order of `n` items (one mesh_array pass).
#[must_use]
pub fn pass_order(n: usize, seed: u64, pass: u64) -> Vec<usize> {
    let mut rng = SplitMix64::new(seed, 0x0BA5_5000 + pass);
    let mut order: Vec<usize> = (0..n).collect();
    rng.shuffle(&mut order);
    order
}

/// The input seed of op `op` in a run seeded with `seed`.
#[must_use]
pub fn op_seed(seed: u64, op: u64) -> u64 {
    SplitMix64::new(seed, 0x1_0000_0000 + op).next_u64()
}
