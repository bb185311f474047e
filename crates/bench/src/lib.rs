//! The command-line drivers and their shared helpers.
//!
//! The `repro` binary (`cargo run -p epic-bench --bin repro -- <cmd>`)
//! regenerates every table and figure of the paper, with the rendering
//! helpers and the observed sweep here. The `epic-lint` binary lints
//! assembly sources and sweeps the compiled design-space grid through
//! translation validation and the cycle-bound oracle. Both drive the
//! workload runners of `epic_core::experiments`.

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
}
