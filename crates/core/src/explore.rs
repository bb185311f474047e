//! Design-space exploration.
//!
//! "Such customisable designs provide a platform for designers to explore
//! performance/area trade-offs for a specific application using different
//! implementations" (paper §1). This module sweeps configurations over a
//! workload, pairing measured cycles with modelled slices, and extracts
//! the Pareto frontier.
//!
//! Design points are independent — each run owns its whole pipeline —
//! so [`sweep`] farms them across host threads and reassembles results
//! **by grid index**, never by completion order: the output is
//! bit-identical at any thread count.

use crate::experiments::{run_epic_workload, ExperimentError};
use epic_area::{pareto_frontier, AreaModel, DesignPoint};
use epic_config::Config;
use epic_workloads::Workload;
use rayon::prelude::*;

/// A measured design point: configuration, cycles and area.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepPoint {
    /// Human-readable description of the configuration.
    pub label: String,
    /// The configuration itself.
    pub config: Config,
    /// Verified cycle count for the workload.
    pub cycles: u64,
    /// Modelled slices.
    pub slices: u32,
}

/// Runs a workload across the given configurations in parallel,
/// returning the points in input order whichever thread finished first.
///
/// # Errors
///
/// Returns the first (in input order) pipeline or verification error.
pub fn sweep(
    workload: &Workload,
    configs: impl IntoIterator<Item = (String, Config)>,
) -> Result<Vec<SweepPoint>, ExperimentError> {
    configs
        .into_iter()
        .collect::<Vec<_>>()
        .into_par_iter()
        .map(|(label, config)| {
            let stats = run_epic_workload(workload, &config)?;
            let slices = AreaModel::new(&config).slices();
            Ok(SweepPoint {
                label,
                config,
                cycles: stats.cycles,
                slices,
            })
        })
        .collect()
}

/// The standard ALU sweep (the paper's 1–4 ALU design points).
///
/// # Errors
///
/// Returns the first pipeline or verification error.
pub fn sweep_alus(
    workload: &Workload,
    alu_counts: &[usize],
) -> Result<Vec<SweepPoint>, ExperimentError> {
    sweep(
        workload,
        alu_counts.iter().map(|alus| {
            (
                format!("{alus} ALU"),
                Config::builder()
                    .num_alus(*alus)
                    .build()
                    .expect("valid sweep configuration"),
            )
        }),
    )
}

/// Extracts the Pareto-optimal points of a sweep (fewest cycles / fewest
/// slices), sorted by area.
#[must_use]
pub fn pareto(points: &[SweepPoint]) -> Vec<SweepPoint> {
    let design_points: Vec<DesignPoint> = points
        .iter()
        .map(|p| DesignPoint {
            label: p.label.clone(),
            cycles: p.cycles,
            slices: p.slices,
        })
        .collect();
    let frontier = pareto_frontier(&design_points);
    frontier
        .into_iter()
        .filter_map(|d| points.iter().find(|p| p.label == d.label).cloned())
        .collect()
}

/// Renders a sweep as a performance/area table.
#[must_use]
pub fn render(points: &[SweepPoint]) -> String {
    let mut out = String::from("configuration        cycles      slices  cycles*slices\n");
    for p in points {
        out.push_str(&format!(
            "{:<18} {:>9} {:>11} {:>14}\n",
            p.label,
            p.cycles,
            p.slices,
            p.cycles as u128 * u128::from(p.slices)
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use epic_workloads::Scale;

    #[test]
    fn sweep_keeps_input_order_at_any_thread_count() {
        let workload = epic_workloads::sha::build(Scale::Test);
        let configs: Vec<(String, Config)> = [2usize, 1]
            .iter()
            .map(|&alus| {
                let config = Config::builder().num_alus(alus).build().expect("valid");
                (format!("{alus} ALU"), config)
            })
            .collect();
        let on = |threads: usize| {
            rayon::ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .expect("pool")
                .install(|| sweep(&workload, configs.clone()))
                .expect("sweep runs")
        };
        let serial = on(1);
        let labels: Vec<&str> = serial.iter().map(|p| p.label.as_str()).collect();
        assert_eq!(labels, ["2 ALU", "1 ALU"]);
        assert_eq!(serial, on(3));
    }
}
