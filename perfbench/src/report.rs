//! Metric definitions, summary statistics and the result line.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// The end-to-end metrics every untraced run prints, with their units.
/// The latency tail is reported by the traced run instead
/// (`core.job_ms_p92`): on a shared host its spread between runs exceeded
/// any bound a regression gate could use.
pub const END_TO_END: [(&str, &str); 6] = [
    ("jobs_per_s", "1/s"),
    ("job_ms_p50", "ms"),
    ("sim_mcycles_per_s", "Mcycles/s"),
    ("model_cycles_geomean", "cycles"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// The layers, named after the crates they live in.
pub const LAYERS: [&str; 8] = [
    "workloads",
    "ir",
    "core",
    "compiler",
    "asm",
    "tv",
    "sim",
    "array",
];

/// The spans the traced run records; each gives a `<span>_ms` metric.
pub const SPANS: [&str; 11] = [
    "ir.lower",
    "ir.layout",
    "core.train",
    "compiler.compile",
    "asm.assemble",
    "tv.validate",
    "sim.load",
    "sim.run",
    "array.instantiate",
    "array.run",
    "workloads.verify",
];

/// The per-layer counts and ratios of the traced run, with their units
/// (the `<span>_ms` times and `<layer>.failures` counts come on top).
pub const COUNTERS: [(&str, &str); 26] = [
    ("core.job_ms_p92", "ms"),
    ("core.unattributed_ms", "ms"),
    ("core.tracing_overhead_ms", "ms"),
    ("compiler.bundles", "count"),
    ("compiler.slot_occupancy", "ratio"),
    ("compiler.spilled", "count"),
    ("compiler.superblock_traces", "count"),
    ("sim.cycles", "cycles"),
    ("sim.ipc", "ratio"),
    ("sim.stall.data_hazard", "cycles"),
    ("sim.stall.unit_busy", "cycles"),
    ("sim.stall.regfile_port", "cycles"),
    ("sim.stall.branch_flush", "cycles"),
    ("sim.stall.memory_contention", "cycles"),
    ("sim.stall.unattributed", "cycles"),
    ("sim.fast_block_execs", "count"),
    ("sim.chained_frac", "ratio"),
    ("sim.host_ns_per_cycle", "ns/cycle"),
    ("array.core_active_frac", "ratio"),
    ("array.host_ns_per_core_cycle", "ns/cycle"),
    ("array.noc.messages", "count"),
    ("array.noc.hops", "count"),
    ("array.noc.latency_mean", "cycles"),
    ("array.noc.max_link_transfers", "count"),
    ("core.ops_traced", "count"),
    ("core.failed_frac", "ratio"),
];

/// Every per-layer metric name and unit, in output order.
#[must_use]
pub fn per_layer_metrics() -> Vec<(String, &'static str)> {
    let mut out: Vec<(String, &'static str)> =
        SPANS.iter().map(|s| (format!("{s}_ms"), "ms")).collect();
    out.extend(COUNTERS.iter().map(|(n, u)| ((*n).to_owned(), *u)));
    out.extend(LAYERS.iter().map(|l| (format!("{l}.failures"), "count")));
    out
}

/// Failed operations per layer, and the total.
#[derive(Debug, Default)]
pub struct Failures {
    by_layer: BTreeMap<&'static str, u64>,
}

impl Failures {
    /// Charges one failed operation to `layer`, reporting it on stderr.
    pub fn record(&mut self, layer: &'static str, what: &str) {
        eprintln!("perfbench: {layer} failure: {what}");
        *self.by_layer.entry(layer).or_default() += 1;
    }

    /// Failures charged to one layer.
    #[must_use]
    pub fn of(&self, layer: &str) -> u64 {
        self.by_layer.get(layer).copied().unwrap_or(0)
    }

    /// All failures.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.by_layer.values().sum()
    }
}

/// One run's result line.
#[derive(Debug, Default)]
pub struct Report {
    /// Operations attempted.
    pub attempted: u64,
    /// Failures by layer.
    pub failures: Failures,
    /// `(name, value, unit)` in output order.
    pub metrics: Vec<(String, f64, &'static str)>,
}

impl Report {
    /// Adds a metric (non-finite values are reported as 0).
    pub fn push(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        let value = if value.is_finite() { value } else { 0.0 };
        self.metrics.push((name.into(), value, unit));
    }

    /// The contract's JSON object: `correct`, `attempted`, `failed`,
    /// `metrics`.
    #[must_use]
    pub fn to_json(&self) -> String {
        let failed = self.failures.total();
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{",
            failed == 0 && self.attempted > 0,
            self.attempted,
        );
        for (i, (name, value, unit)) in self.metrics.iter().enumerate() {
            let _ = write!(
                out,
                "{}\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}",
                if i == 0 { "" } else { ", " },
            );
        }
        out.push_str("}}");
        out
    }

    /// A human-readable table of the metrics.
    #[must_use]
    pub fn table(&self) -> String {
        let mut out = String::new();
        for (name, value, unit) in &self.metrics {
            let _ = writeln!(out, "  {name:<34} {value:>16.4} {unit}");
        }
        let _ = writeln!(
            out,
            "  attempted {} failed {}",
            self.attempted,
            self.failures.total()
        );
        out
    }
}

/// Nearest-rank percentile of unsorted samples (`p` in 0–100); 0 when
/// there are none.
#[must_use]
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * sorted.len() as f64).ceil().max(1.0) as usize;
    sorted[rank.min(sorted.len()) - 1]
}

/// Median (mean of the middle pair for an even count).
#[must_use]
pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// Mean of the samples between the 40th and 60th percentiles (the central
/// fifth); the median of fewer than five samples.
#[must_use]
pub fn central_mean(samples: &[f64]) -> f64 {
    let n = samples.len();
    if n < 5 {
        return median(samples);
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let central = &sorted[2 * n / 5..(3 * n).div_ceil(5)];
    central.iter().sum::<f64>() / central.len() as f64
}

/// Geometric mean of positive samples; 0 when there are none.
#[must_use]
pub fn geomean(samples: impl IntoIterator<Item = f64>) -> f64 {
    let (mut log_sum, mut n) = (0.0, 0u32);
    for x in samples {
        log_sum += x.ln();
        n += 1;
    }
    if n == 0 {
        0.0
    } else {
        (log_sum / f64::from(n)).exp()
    }
}

/// Peak resident set size of this process in MB (`VmHWM`), 0 where
/// `/proc` is unavailable.
#[must_use]
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status.lines().find_map(|line| {
                let kb = line.strip_prefix("VmHWM:")?.trim().strip_suffix("kB")?;
                kb.trim().parse::<f64>().ok()
            })
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Per design point: its ops' times and simulation rates, in reference
/// seconds (see [`crate::calib`]).
#[derive(Debug, Default, Clone)]
pub struct PointSamples {
    /// Reference seconds of each op.
    pub seconds: Vec<f64>,
    /// Each op's simulated cycles (lockstep cycles on a mesh) per
    /// reference second of engine build and run.
    pub cycles_per_s: Vec<f64>,
}

/// Timing samples of the measured ops, shared by the workloads.
#[derive(Debug, Default)]
pub struct OpSamples {
    /// Per successful op of the first pass: the modelled design's cycles
    /// (lockstep cycles on a mesh). A pass covers every design point
    /// equally, and the first pass's inputs depend on the seed alone, so
    /// the geomean repeats exactly for a seed however many passes fit.
    pub model_cycles: Vec<f64>,
    /// Per design point, keyed by a stable name. A point's median op is
    /// the steadiest estimate of both its latency and its simulation
    /// rate. Its fastest op is not: a probe slowed by a passing hiccup
    /// makes the op beside it look fast.
    pub points: BTreeMap<String, PointSamples>,
}

impl OpSamples {
    /// Records one successful op of pass `pass`: its reference seconds,
    /// the reference seconds of its simulation (engine build and run) and
    /// the simulated cycles (lockstep cycles on a mesh).
    pub fn record(
        &mut self,
        pass: u64,
        point: String,
        seconds: f64,
        sim_seconds: f64,
        cycles: u64,
    ) {
        if pass == 0 {
            self.model_cycles.push(cycles as f64);
        }
        let p = self.points.entry(point).or_default();
        p.seconds.push(seconds);
        p.cycles_per_s.push(cycles as f64 / sim_seconds.max(1e-9));
    }

    /// Pushes the end-to-end metrics, in [`END_TO_END`] order. Throughput
    /// and the median latency count each op at its point's median op time,
    /// so one slow op moves neither. The median latency is the mean of the
    /// central fifth of ops: dse_sweep's job times form two clusters (sha
    /// and dijkstra under about 60 ms, aes and dct over about 110 ms), and
    /// the plain median falls in the gap, where the two design points
    /// beside it would set it alone.
    pub fn push_end_to_end(&self, report: &mut Report, setup_s: &[f64]) {
        let op_s: Vec<f64> = self
            .points
            .values()
            .flat_map(|p| std::iter::repeat_n(median(&p.seconds), p.seconds.len()))
            .collect();
        let values = [
            op_s.len() as f64 / op_s.iter().sum::<f64>().max(1e-12),
            central_mean(&op_s) * 1e3,
            geomean(self.points.values().map(|p| median(&p.cycles_per_s) / 1e6)),
            geomean(self.model_cycles.iter().copied()),
            median(setup_s),
            peak_rss_mb(),
        ];
        for ((name, unit), value) in END_TO_END.iter().zip(values) {
            report.push(*name, value, unit);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let xs: Vec<f64> = (1..=128).map(f64::from).collect();
        assert_eq!(percentile(&xs, 50.0), 64.0);
        // p92 of 128 samples leaves ten samples beyond it.
        assert_eq!(percentile(&xs, 92.0), 118.0);
        assert_eq!(xs.iter().filter(|&&x| x > 118.0).count(), 10);
        assert_eq!(median(&[3.0, 1.0, 2.0, 10.0]), 2.5);
        // The central fifth of 128 samples is ranks 52..=77, 51 either side.
        assert_eq!(central_mean(&xs), 64.5);
        assert_eq!(central_mean(&xs[..10]), 5.5);
        assert_eq!(central_mean(&[3.0, 1.0, 2.0, 10.0]), 2.5);
        assert!((geomean([1.0, 100.0]) - 10.0).abs() < 1e-9);
    }

    #[test]
    fn benchmark_json_declares_every_emitted_metric() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let declared = std::fs::read_to_string(path).expect("BENCHMARK.json beside the package");
        let emitted: Vec<(String, &str)> = END_TO_END
            .iter()
            .map(|(n, u)| ((*n).to_owned(), *u))
            .chain(per_layer_metrics())
            .collect();
        for (name, unit) in &emitted {
            let entry = format!("\"name\": \"{name}\",\n      \"unit\": \"{unit}\"");
            assert!(declared.contains(&entry), "{name} ({unit}) is not declared");
        }
        let workloads = declared.matches("\"why\":").count();
        assert_eq!(
            declared.matches("\"name\":").count(),
            emitted.len() + workloads,
            "BENCHMARK.json declares a metric the benchmark does not emit"
        );
    }

    #[test]
    fn json_line_has_the_contract_keys() {
        let mut r = Report {
            attempted: 3,
            ..Report::default()
        };
        r.push("setup_s", 0.25, "s");
        let json = r.to_json();
        assert!(json.starts_with("{\"correct\": true, \"attempted\": 3, \"failed\": 0,"));
        assert!(json.contains("\"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}"));
        r.failures.record("sim", "test");
        assert!(r.to_json().contains("\"correct\": false"));
    }
}
