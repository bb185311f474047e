//! Shared reporting helpers for the benchmark harness.
//!
//! The `repro` binary (`cargo run -p epic-bench --bin repro -- <cmd>`)
//! regenerates every table and figure of the paper; the Criterion benches
//! under `benches/` time the same experiments. Both use the formatting
//! helpers here.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use epic_core::experiments::{HeadlineCheck, ResourceRow};

pub mod sweep;

/// Renders the §5.1 resource table.
#[must_use]
pub fn render_resources(rows: &[ResourceRow]) -> String {
    let mut out = String::from(
        "Resource usage (Virtex-II model, calibrated to the paper)\n\
         ALUs   slices   BlockRAM   multipliers   clock\n",
    );
    for r in rows {
        out.push_str(&format!(
            "{:>4} {:>8} {:>10} {:>13} {:>6.1} MHz\n",
            r.alus, r.slices, r.block_rams, r.multipliers, r.clock_mhz
        ));
    }
    out.push_str("paper: 4181 / 6779 / 9367 slices for 1 / 2 / 3 ALUs; ~2600 per ALU\n");
    out
}

/// Renders the headline shape checks with pass/fail markers.
#[must_use]
pub fn render_headline(checks: &[HeadlineCheck]) -> String {
    let mut out = String::from("Headline claims (paper §5.2) against measured numbers\n");
    for c in checks {
        out.push_str(&format!(
            "[{}] {}\n      {}\n",
            if c.holds { "PASS" } else { "FAIL" },
            c.claim,
            c.detail
        ));
    }
    out
}

/// Paper-reported Table 1 (absolute numbers from the authors' testbed,
/// for side-by-side comparison in reports): cycles for SA-110 then EPIC
/// 1–4 ALUs, per benchmark.
#[must_use]
pub fn paper_table1() -> Vec<(&'static str, [u64; 5])> {
    // Reconstructed from §5.2's ratio statements (the OCR of the table
    // body is lossy): with 4 ALUs the EPIC is 1.7x (Dijkstra), 3.8x (SHA)
    // and 12.3x (DCT) faster in cycles than the SA-110, SHA takes 0.1083 s
    // on the 4-ALU EPIC vs 0.1732 s on the SA-110, and AES is won by the
    // SA-110. Entries are therefore representative shapes, not exact
    // digits; see EXPERIMENTS.md.
    vec![
        (
            "SHA",
            [17_320_000, 14_800_000, 8_300_000, 5_600_000, 4_527_000],
        ),
        (
            "AES",
            [1_100_000, 3_600_000, 3_400_000, 3_300_000, 3_250_000],
        ),
        (
            "DCT",
            [49_000_000, 13_200_000, 7_300_000, 4_900_000, 3_990_000],
        ),
        (
            "DIJKSTRA",
            [7_600_000, 9_800_000, 7_000_000, 5_100_000, 4_470_000],
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use epic_core::experiments::resource_usage;

    #[test]
    fn resource_rendering_includes_calibration_note() {
        let text = render_resources(&resource_usage(&[1, 2, 3, 4]));
        assert!(text.contains("4181"));
        assert!(text.contains("41.8 MHz"));
    }

    #[test]
    fn paper_shapes_are_monotone_where_claimed() {
        for (name, row) in paper_table1() {
            if name == "SHA" || name == "DCT" {
                assert!(row[1] > row[4], "{name} should scale with ALUs");
            }
        }
    }
}
