//! Observed design-space sweep.
//!
//! [`sweep_grid_observed`] evaluates a grid of (configuration ×
//! workload) simulation points with an `epic-obs` metrics registry
//! attached to each. Each point is independent — the simulator owns all
//! of its state — so the grid is farmed across cores with rayon. Results
//! are reassembled **by grid index**, never by completion order, so the
//! output is deterministic and bit-identical to a sequential run no
//! matter how many threads execute it. Unobserved sweeps live in
//! [`epic_core::explore`] and [`epic_core::experiments::table1`].

use epic_core::config::Config;
use epic_core::experiments::{run_epic_workload_observed, ExperimentError, VerifyError};
use epic_core::sim::SimStats;
use epic_core::workloads::Workload;
use epic_obs::MetricsRegistry;
use rayon::prelude::*;

/// One evaluated grid point with its full metrics registry.
#[derive(Debug, Clone)]
pub struct ObservedPoint {
    /// Name of the workload that ran.
    pub workload: String,
    /// Label of the configuration it ran on.
    pub config: String,
    /// Architectural statistics of the (verified) run.
    pub stats: SimStats,
    /// The metrics registry fed by the run's trace-event stream,
    /// already reconciled against `stats`.
    pub metrics: MetricsRegistry,
}

/// Evaluates every (configuration × workload) point of the grid in
/// parallel with an `epic-obs` [`MetricsRegistry`] attached, so each
/// grid cell can dump counters and histograms (stall lengths, port
/// demand, bundle occupancy) alongside its statistics. Points come back
/// in row-major grid order (workload-major, configuration-minor)
/// regardless of which thread finished first.
///
/// Every point's registry is reconciled against the engine's own
/// statistics before it is returned; a mismatch is an error, never a
/// silently wrong report.
///
/// # Errors
///
/// Returns the first (in grid order) [`ExperimentError`] of any point,
/// including reconciliation failures.
pub fn sweep_grid_observed(
    workloads: &[Workload],
    configs: &[(String, Config)],
) -> Result<Vec<ObservedPoint>, ExperimentError> {
    let jobs: Vec<(usize, usize)> = (0..workloads.len())
        .flat_map(|w| (0..configs.len()).map(move |c| (w, c)))
        .collect();
    jobs.into_par_iter()
        .map(|(w, c)| {
            let workload = &workloads[w];
            let (label, config) = &configs[c];
            let mut metrics = MetricsRegistry::default();
            let run = run_epic_workload_observed(workload, config, &mut metrics)?;
            metrics.finish();
            metrics.reconcile(run.stats()).map_err(|message| {
                ExperimentError::Verify(VerifyError(format!(
                    "{} on {label}: metrics do not reconcile:\n{message}",
                    workload.name
                )))
            })?;
            Ok(ObservedPoint {
                workload: workload.name.clone(),
                config: label.clone(),
                stats: *run.stats(),
                metrics,
            })
        })
        .collect()
}
