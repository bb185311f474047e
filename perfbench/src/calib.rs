//! Host-speed normalisation of measured times.
//!
//! On a host shared with other tenants the same fixed work runs up to half
//! again slower for seconds to minutes at a time, and the process's CPU
//! time grows with its wall time: the CPU itself is slower, not taken
//! away. A whole run can fall into such a period, so no statistic taken
//! inside one run removes it. The benchmark therefore times a fixed probe
//! — work that does not depend on the program under test — before the
//! first op and after every op, and scales each op's host time by
//! [`REFERENCE_PROBE_S`] over the mean of the two probes around it. Times
//! are reported in seconds of a host that runs the probe in
//! [`REFERENCE_PROBE_S`]; a change to the program moves them exactly as
//! it moves host time, while a change in host speed cancels out.

use std::hint::black_box;
use std::time::Instant;

/// The probe's host time that reported times refer to. On the 2-CPU
/// x86-64 host (Xeon, 4th generation) the benchmark was defined on, the
/// probe took 7–8 ms in quiet periods and up to 13 ms in busy ones.
pub const REFERENCE_PROBE_S: f64 = 0.010;

/// Entries of the probe's table: 2 MiB, larger than L1 and about the size
/// of L2. Of the table sizes tried (64 KiB to 8 MiB), this one's probe
/// time tracked the mesh simulator's slow periods most closely.
const TABLE: usize = 512 * 1024;

/// Steps of one probe.
const STEPS: u32 = 900_000;

/// Runs the probe once — random-indexed updates of a zeroed table with
/// unpredictable branches — and returns its host seconds.
fn probe(table: &mut [u32]) -> f64 {
    let t = Instant::now();
    table.fill(0);
    let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
    let mut acc: u64 = 0;
    for _ in 0..STEPS {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let i = (x as usize) % TABLE;
        let v = table[i].wrapping_add(x as u32);
        table[i] = v;
        if v & 3 == 0 {
            acc = acc.wrapping_add(u64::from(v));
        } else {
            acc ^= u64::from(table[(v as usize) % TABLE]);
        }
    }
    black_box(acc);
    t.elapsed().as_secs_f64()
}

/// The probe sequence of one measurement: one probe before the first op,
/// and one after each.
#[derive(Debug)]
pub struct HostSpeed {
    table: Vec<u32>,
    probes: Vec<f64>,
}

impl Default for HostSpeed {
    fn default() -> Self {
        HostSpeed::new()
    }
}

impl HostSpeed {
    /// Runs the first probe.
    #[must_use]
    pub fn new() -> Self {
        let mut table = vec![0; TABLE];
        let first = probe(&mut table);
        HostSpeed {
            table,
            probes: vec![first],
        }
    }

    /// Probes after an op and returns the factor that turns the op's host
    /// seconds into reference seconds.
    pub fn scale(&mut self) -> f64 {
        let before = *self.probes.last().expect("probed at creation");
        let after = probe(&mut self.table);
        self.probes.push(after);
        2.0 * REFERENCE_PROBE_S / (before + after)
    }

    /// Median, fastest and slowest probe in milliseconds, for the log.
    #[must_use]
    pub fn summary(&self) -> String {
        let mut ms: Vec<f64> = self.probes.iter().map(|s| s * 1e3).collect();
        ms.sort_by(f64::total_cmp);
        format!(
            "probe {:.2} ms median of {}, {:.2}–{:.2} ms",
            crate::report::median(&ms),
            ms.len(),
            ms[0],
            ms[ms.len() - 1]
        )
    }
}
