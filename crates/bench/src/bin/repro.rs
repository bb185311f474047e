//! Regenerates every table and figure of the paper.
//!
//! ```text
//! cargo run --release -p epic-bench --bin repro -- table1 [--full]
//! cargo run --release -p epic-bench --bin repro -- fig3|fig4|fig5 [--full]
//! cargo run --release -p epic-bench --bin repro -- resources
//! cargo run --release -p epic-bench --bin repro -- headline [--full]
//! cargo run --release -p epic-bench --bin repro -- custom [--full]
//! cargo run --release -p epic-bench --bin repro -- ports [--full]
//! cargo run --release -p epic-bench --bin repro -- explore [--full]
//! cargo run --release -p epic-bench --bin repro -- power [--full]
//! cargo run --release -p epic-bench --bin repro -- pipeline [--full]
//! cargo run --release -p epic-bench --bin repro -- metrics [--out <dir>] [--full]
//! cargo run --release -p epic-bench --bin repro -- bench [--out <file>] [--full]
//! cargo run --release -p epic-bench --bin repro -- bench --throughput [--out <file>] [--check]
//! cargo run --release -p epic-bench --bin repro -- isx [--out <file>] [--check] [--full]
//! cargo run --release -p epic-bench --bin repro -- array [--out <file>] [--check] [--full]
//! cargo run --release -p epic-bench --bin repro -- all [--full]
//! ```
//!
//! `--full` runs the paper's problem sizes (256×256 images, 1000 AES
//! iterations, a 100-node graph); the default is the reduced test scale.
//!
//! `--threads N` caps the sweep worker count (default: all cores). The
//! sweep farms independent (config × workload) points across threads and
//! reassembles results by grid index, so the reported numbers are
//! bit-identical at any thread count.
//!
//! `bench` cross-checks every grid point: the observed per-cycle run that
//! measures the point must match a threaded run's full statistics bit
//! for bit.
//!
//! `--check` (on `bench --throughput`, `isx` and `array`) regenerates
//! the command's committed JSON and compares it byte for byte with the
//! file instead of rewriting it.
//!
//! Any other `--` argument is an error.

use epic_bench::sweep::sweep_grid_observed;
use epic_bench::{render_headline, render_resources};
use epic_core::config::{Config, CustomOp, CustomSemantics};
use epic_core::experiments::{
    figure_series, headline_checks, prepare_epic_workload, resource_usage, run_epic_workload,
    table1, verify_workload_memory, Table1,
};
use epic_core::explore::{pareto, render, sweep, sweep_alus};
use epic_core::sim::{Engine, Memory, ReferenceSimulator, Simulator, TraceSink};
use epic_core::workloads::{self, Scale};
use std::path::Path;
use std::process::ExitCode;
use std::time::Instant;

const ALUS: [usize; 4] = [1, 2, 3, 4];

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if let Err(e) = check_flags(&args) {
        eprintln!("error: {e}");
        return ExitCode::FAILURE;
    }
    let full = args.iter().any(|a| a == "--full");
    let threads = match parse_threads(&args) {
        Ok(n) => n,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let scale = if full { Scale::Paper } else { Scale::Test };
    let command = args
        .iter()
        .enumerate()
        .find(|(i, a)| {
            !a.starts_with("--")
                && (*i == 0 || (args[i - 1] != "--threads" && args[i - 1] != "--out"))
        })
        .map_or("all", |(_, a)| a.as_str());

    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(threads)
        .build()
        .expect("thread pool");
    let result = pool.install(|| match command {
        "table1" => cmd_table1(scale).map(|_| ()),
        "fig3" => cmd_figure(scale, "sha"),
        "fig4" => cmd_figure(scale, "dct"),
        "fig5" => cmd_figure(scale, "dijkstra"),
        "resources" => {
            print!(
                "{}",
                render_resources(&resource_usage(&[1, 2, 3, 4, 5, 6, 7, 8]))
            );
            Ok(())
        }
        "headline" => cmd_table1(scale).map(|t| {
            print!("{}", render_headline(&headline_checks(&t)));
        }),
        "custom" => cmd_custom(scale),
        "ports" => cmd_ports(scale),
        "explore" => cmd_explore(scale),
        "power" => cmd_power(scale),
        "pipeline" => cmd_pipeline(scale),
        "metrics" => cmd_metrics(scale, parse_out(&args)),
        "bench" if args.iter().any(|a| a == "--throughput") => {
            cmd_bench_throughput(scale, parse_out(&args), args.iter().any(|a| a == "--check"))
        }
        "bench" => cmd_bench(scale, parse_out(&args)),
        "isx" => cmd_isx(scale, parse_out(&args), args.iter().any(|a| a == "--check")),
        "array" => cmd_array(scale, parse_out(&args), args.iter().any(|a| a == "--check")),
        "all" => cmd_all(scale),
        other => Err(format!(
            "unknown command `{other}`; see the module docs for usage"
        )),
    });
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Rejects any `--` argument that is not one of the flags above, so a
/// stale invocation fails instead of running as if the flag were absent.
fn check_flags(args: &[String]) -> Result<(), String> {
    const SWITCHES: [&str; 3] = ["--full", "--throughput", "--check"];
    const VALUED: [&str; 2] = ["--threads", "--out"];
    let mut args = args.iter();
    while let Some(arg) = args.next() {
        if VALUED.contains(&arg.as_str()) {
            args.next();
        } else if arg.starts_with("--") && !SWITCHES.contains(&arg.as_str()) {
            return Err(format!(
                "unknown flag `{arg}`; see the module docs for usage"
            ));
        }
    }
    Ok(())
}

/// Parses `--threads N` (0 or absent = use every core).
fn parse_threads(args: &[String]) -> Result<usize, String> {
    match args.iter().position(|a| a == "--threads") {
        None => Ok(0),
        Some(i) => args
            .get(i + 1)
            .ok_or_else(|| "--threads requires a count".to_string())?
            .parse::<usize>()
            .map_err(|_| "--threads requires a non-negative integer".to_string()),
    }
}

/// Parses `--out <dir>` (absent = print a summary, write nothing).
fn parse_out(args: &[String]) -> Option<std::path::PathBuf> {
    args.iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .map(std::path::PathBuf::from)
}

/// Writes a regenerated JSON report to `path`, or with `check` compares
/// it byte for byte against the committed file, naming the first
/// diverging line and the command (`regen_cmd`) that refreshes it.
fn write_or_check(path: &Path, json: &str, check: bool, regen_cmd: &str) -> Result<(), String> {
    if !check {
        std::fs::write(path, json).map_err(|e| format!("{}: {e}", path.display()))?;
        println!("wrote {}", path.display());
        return Ok(());
    }
    let committed =
        std::fs::read_to_string(path).map_err(|e| format!("--check: {}: {e}", path.display()))?;
    if committed != json {
        let divergence = committed
            .lines()
            .zip(json.lines())
            .position(|(a, b)| a != b)
            .unwrap_or_else(|| committed.lines().count().min(json.lines().count()));
        return Err(format!(
            "--check: {} is stale (first divergence at line {}); regenerate with `{regen_cmd}`",
            path.display(),
            divergence + 1
        ));
    }
    println!("{} is fresh (byte-identical regeneration)", path.display());
    Ok(())
}

/// Observed design-space sweep: every (workload × ALU-count) grid point
/// runs with an `epic-obs` metrics registry attached — reconciled
/// against `SimStats` on the spot — and, with `--out <dir>`, dumps one
/// `<workload>-<alus>alu.json` metrics file per point.
fn cmd_metrics(scale: Scale, out: Option<std::path::PathBuf>) -> Result<(), String> {
    let workloads = workloads::all(scale);
    let configs: Vec<(String, Config)> = ALUS
        .iter()
        .map(|&alus| {
            (
                format!("{alus}alu"),
                Config::builder().num_alus(alus).build().expect("valid"),
            )
        })
        .collect();
    let points = sweep_grid_observed(&workloads, &configs).map_err(|e| e.to_string())?;
    if let Some(dir) = &out {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    println!("Observed sweep ({scale:?} scale): every point reconciled against SimStats");
    println!(
        "{:<10} {:<6} {:>12} {:>8} {:>10} {:>12}",
        "workload", "config", "cycles", "stalls", "max run", "mean ports"
    );
    for point in &points {
        let longest_run = epic_obs::StallCause::ALL
            .iter()
            .filter_map(|cause| {
                point
                    .metrics
                    .histogram(&format!("stall_length.{}", cause.name()))
            })
            .flat_map(|hist| {
                hist.bounds()
                    .iter()
                    .copied()
                    .chain([u64::MAX])
                    .zip(hist.buckets().iter().copied())
            })
            .filter(|&(_, n)| n > 0)
            .map(|(bound, _)| bound)
            .max()
            .unwrap_or(0);
        let ports = point.metrics.histogram("port_demand").expect("registered");
        let mean_ports = if ports.count() == 0 {
            0.0
        } else {
            ports.sum() as f64 / ports.count() as f64
        };
        println!(
            "{:<10} {:<6} {:>12} {:>8} {:>9}{} {:>12.2}",
            point.workload,
            point.config,
            point.stats.cycles,
            point.stats.stalls.total(),
            if longest_run == u64::MAX {
                "64".to_owned()
            } else {
                longest_run.to_string()
            },
            if longest_run == u64::MAX { "+" } else { "" },
            mean_ports
        );
        if let Some(dir) = &out {
            let path = dir.join(format!("{}-{}.json", point.workload, point.config));
            std::fs::write(&path, point.metrics.to_json())
                .map_err(|e| format!("{}: {e}", path.display()))?;
        }
    }
    if let Some(dir) = &out {
        println!(
            "wrote {} metrics file(s) to {}",
            points.len(),
            dir.display()
        );
    }
    Ok(())
}

/// Machine-readable cycle trajectory: the full workload × ALUs 1–4 ×
/// issue-width 1–4 grid as `BENCH_cycles.json` (schema
/// `epic-bench-cycles/v2`, stable field set and ordering), so perf
/// changes across PRs diff as data, not prose. The table mirrors the
/// JSON and adds the scheduler's issue-slot occupancy (filled /
/// available) next to the dynamic ILP. Schema v2 prices every point with
/// the `epic-bound` cycle-interval analysis over the run's own issue
/// counts and records `bound_lower`/`bound_upper` alongside `cycles` —
/// the committed file carries its own `lower <= cycles <= upper`
/// containment proof, which CI re-checks.
fn cmd_bench(scale: Scale, out: Option<std::path::PathBuf>) -> Result<(), String> {
    let out = out.unwrap_or_else(|| std::path::PathBuf::from("BENCH_cycles.json"));
    let workloads = workloads::all(scale);
    println!("Cycle grid ({scale:?} scale): workload x ALUs 1-4 x issue width 1-4");
    println!("(every point cross-checked bit-for-bit against a threaded run)");
    println!(
        "{:<10} {:>5} {:>3} {:>10} {:>21} {:>8} {:>6} {:>10}",
        "workload", "alus", "iw", "cycles", "static bound", "ipc", "ilp", "occupancy"
    );
    let mut entries = String::new();
    for workload in &workloads {
        for alus in ALUS {
            for width in [1usize, 2, 3, 4] {
                let config = Config::builder()
                    .num_alus(alus)
                    .issue_width(width)
                    .build()
                    .expect("valid grid configuration");
                let at = |e: &dyn std::fmt::Display| {
                    format!("{} at {alus} ALU / {width}-wide: {e}", workload.name)
                };
                let (toolchain, prepared) =
                    prepare_epic_workload(workload, &config).map_err(|e| at(&e))?;
                let check = toolchain
                    .run_prepared(&prepared, Engine::Threaded)
                    .map_err(|e| at(&format_args!("threaded: {e}")))?;
                let mut sink = epic_obs::ProfileSink::default();
                let run = toolchain
                    .run_prepared_observed(prepared, &mut sink)
                    .map_err(|e| at(&e))?;
                verify_workload_memory(workload, run.simulator.memory().bytes())
                    .map_err(|e| at(&e))?;
                let stats = run.stats();
                if check.stats != *stats {
                    return Err(at(&format_args!(
                        "the threaded run disagrees with the observed per-cycle run \
                         ({} vs {} cycles)",
                        check.stats.cycles, stats.cycles
                    )));
                }
                let sched = run.compiled.stats().sched;
                let counts: std::collections::BTreeMap<u32, u64> =
                    sink.per_pc().map(|(pc, p)| (pc, p.issues)).collect();
                let model = epic_bound::CostModel::new(&config);
                let bounds = epic_bound::analyze_cycles(
                    &config,
                    run.program.bundles(),
                    run.program.entry() as usize,
                    &epic_bound::CountSource::Measured(&counts),
                    &model,
                    &epic_bound::BoundOptions::default(),
                );
                if !bounds.contains(stats.cycles) {
                    return Err(format!(
                        "{} at {alus} ALU / {width}-wide: static interval [{}, {:?}] does \
                         not contain the run's {} cycles",
                        workload.name, bounds.lower, bounds.upper, stats.cycles
                    ));
                }
                let upper = bounds
                    .upper
                    .expect("measured counts always close the interval");
                println!(
                    "{:<10} {:>5} {:>3} {:>10} {:>21} {:>8.3} {:>6.3} {:>9.1}%",
                    workload.name,
                    alus,
                    width,
                    stats.cycles,
                    format!("[{}, {}]", bounds.lower, upper),
                    stats.ipc(),
                    stats.bundle_fill(),
                    100.0 * sched.occupancy()
                );
                if !entries.is_empty() {
                    entries.push_str(",\n");
                }
                entries.push_str(&format!(
                    "    {{\"workload\": \"{}\", \"alus\": {}, \"issue_width\": {}, \
                     \"cycles\": {}, \"bound_lower\": {}, \"bound_upper\": {}, \
                     \"instructions\": {}, \"ipc\": {:.4}, \"ilp\": {:.4}, \
                     \"occupancy\": {:.4}}}",
                    workload.name,
                    alus,
                    width,
                    stats.cycles,
                    bounds.lower,
                    upper,
                    stats.instructions,
                    stats.ipc(),
                    stats.bundle_fill(),
                    sched.occupancy()
                ));
            }
        }
    }
    let json = format!(
        "{{\n  \"schema\": \"epic-bench-cycles/v2\",\n  \"scale\": \"{scale:?}\",\n  \
         \"points\": [\n{entries}\n  ]\n}}\n"
    );
    std::fs::write(&out, json).map_err(|e| format!("{}: {e}", out.display()))?;
    println!("wrote {}", out.display());
    Ok(())
}

/// One observed run for the discovery driver: measured cycles plus the
/// `epic-bound` static price — the midpoint of the cycle interval the
/// analysis closes over the run's own per-bundle issue counts. The
/// interval must contain the measured count (the same containment proof
/// `bench` commits), so pricing two programs and differencing the
/// midpoints is a *static* estimate that inherits the cost model's
/// calibration, not a rename of the simulator's counter.
fn isx_observe(workload: &workloads::Workload, config: &Config) -> Result<(u64, u64), String> {
    let mut sink = epic_obs::ProfileSink::default();
    let run = epic_core::experiments::run_epic_workload_observed(workload, config, &mut sink)
        .map_err(|e| format!("{}: {e}", workload.name))?;
    let counts: std::collections::BTreeMap<u32, u64> =
        sink.per_pc().map(|(pc, p)| (pc, p.issues)).collect();
    let model = epic_bound::CostModel::new(config);
    let bounds = epic_bound::analyze_cycles(
        config,
        run.program.bundles(),
        run.program.entry() as usize,
        &epic_bound::CountSource::Measured(&counts),
        &model,
        &epic_bound::BoundOptions::default(),
    );
    let cycles = run.stats().cycles;
    if !bounds.contains(cycles) {
        return Err(format!(
            "{}: static interval [{}, {:?}] does not contain the run's {} cycles",
            workload.name, bounds.lower, bounds.upper, cycles
        ));
    }
    let upper = bounds
        .upper
        .expect("measured counts always close the interval");
    Ok((cycles, (bounds.lower + upper) / 2))
}

/// Automatic custom-instruction discovery (`repro -- isx`): mines each
/// workload's compiled hot dataflow for convex MISO subgraphs
/// (`epic-isx`), prices the top-ranked candidates one at a time —
/// measured cycle delta at the default machine against the static
/// `epic-bound` differential — applies every candidate whose static
/// estimate lands within 20% of its measured saving, and sweeps baseline
/// versus extended configurations over the full ALUs 1–4 × issue-width
/// 1–4 grid into a cycles-versus-slices Pareto frontier.
///
/// Writes `--out <file>` (default `BENCH_pareto.json`), schema
/// `epic-bench-pareto/v1`. Every field is deterministic (candidate
/// ranking is canonical, the grid reassembles by index at any thread
/// count), so `--check` regenerates the JSON and compares it
/// byte-for-byte against the committed file.
fn cmd_isx(scale: Scale, out: Option<std::path::PathBuf>, check: bool) -> Result<(), String> {
    /// Candidates priced per workload (top of the deterministic ranking).
    const TOP_K: usize = 4;
    const WIDTHS: [usize; 4] = [1, 2, 3, 4];
    let out = out.unwrap_or_else(|| std::path::PathBuf::from("BENCH_pareto.json"));
    let workloads = workloads::all(scale);
    println!("Instruction discovery ({scale:?} scale): mine, price, apply, sweep");
    let mut workload_entries = Vec::new();
    for workload in &workloads {
        let base = Config::default();
        let mut sink = epic_obs::ProfileSink::default();
        let run = epic_core::experiments::run_epic_workload_observed(workload, &base, &mut sink)
            .map_err(|e| format!("{}: {e}", workload.name))?;
        let base_cycles = run.stats().cycles;
        let counts: std::collections::BTreeMap<u32, u64> =
            sink.per_pc().map(|(pc, p)| (pc, p.issues)).collect();
        let mined = epic_isx::mine(&base, run.program.bundles(), run.program.entry(), &counts);
        drop(run);
        let ranked = epic_isx::ScoreModel::new(&base).rank(mined);
        println!(
            "{}: {} cycles at the default machine, {} candidate(s) mined",
            workload.name,
            base_cycles,
            ranked.len()
        );
        let (_, base_price) = isx_observe(workload, &base)?;
        let mut candidate_entries = Vec::new();
        let mut applied_ops = Vec::new();
        for (i, scored) in ranked.iter().take(TOP_K).enumerate() {
            let name = format!("isx_{}_{i}", workload.name);
            let op = CustomOp::new(
                &name,
                epic_core::config::CustomSemantics::Fused(scored.discovery.tree.clone()),
            )
            .with_latency(scored.latency);
            let ext = Config::builder()
                .custom_op(op.clone())
                .build()
                .map_err(|e| format!("{name}: {e}"))?;
            let (ext_cycles, ext_price) = isx_observe(workload, &ext)?;
            let measured = base_cycles as i64 - ext_cycles as i64;
            let estimate = base_price as i64 - ext_price as i64;
            // Apply only candidates that measurably win and whose static
            // estimate agrees within 20% — the acceptance gate, enforced
            // at generation time so the committed file proves it.
            let applied =
                measured > 0 && estimate > 0 && (estimate - measured).abs() * 5 <= measured;
            println!(
                "  {name}: {} -> measured {measured:+}, static {estimate:+} cycles, \
                 +{} slices{}",
                scored.discovery.tree,
                scored.slices,
                if applied { ", APPLIED" } else { "" }
            );
            if applied {
                applied_ops.push(op);
            }
            candidate_entries.push(format!(
                "        {{\"name\": \"{name}\", \"tree\": \"{}\", \"latency\": {}, \
                 \"live_ins\": {}, \"sites\": {}, \"score_est\": {}, \"slices\": {}, \
                 \"measured_saved\": {measured}, \"static_saved\": {estimate}, \
                 \"applied\": {applied}}}",
                scored.discovery.tree,
                scored.latency,
                scored.live_ins,
                scored.discovery.sites.len(),
                scored.est_saved,
                scored.slices,
            ));
        }
        // Baseline vs extended over the full grid: one labelled config
        // per (point, variant), swept by grid index so the output is
        // bit-identical at any thread count.
        let mut keys = Vec::new();
        let mut configs = Vec::new();
        for alus in ALUS {
            for width in WIDTHS {
                for variant in ["base", "isx"] {
                    let mut builder = Config::builder().num_alus(alus).issue_width(width);
                    if variant == "isx" {
                        for op in &applied_ops {
                            builder = builder.custom_op(op.clone());
                        }
                    }
                    let config = builder
                        .build()
                        .map_err(|e| format!("{alus} ALU / {width}-wide: {e}"))?;
                    keys.push((variant, alus, width));
                    configs.push((format!("{variant} {alus}alu iw{width}"), config));
                }
            }
        }
        let points = sweep(workload, configs).map_err(|e| format!("{}: {e}", workload.name))?;
        let frontier = pareto(&points);
        let on_frontier: std::collections::BTreeSet<&str> =
            frontier.iter().map(|p| p.label.as_str()).collect();
        println!(
            "  grid: {} points, {} on the cycles/slices frontier",
            points.len(),
            frontier.len()
        );
        let point_entries: Vec<String> = keys
            .iter()
            .zip(&points)
            .map(|(&(variant, alus, width), point)| {
                format!(
                    "        {{\"variant\": \"{variant}\", \"alus\": {alus}, \
                     \"issue_width\": {width}, \"cycles\": {}, \"slices\": {}, \
                     \"pareto\": {}}}",
                    point.cycles,
                    point.slices,
                    on_frontier.contains(point.label.as_str()),
                )
            })
            .collect();
        workload_entries.push(format!(
            "    {{\n      \"workload\": \"{}\",\n      \"base_cycles\": {base_cycles},\n      \
             \"candidates\": [\n{}\n      ],\n      \"points\": [\n{}\n      ]\n    }}",
            workload.name,
            candidate_entries.join(",\n"),
            point_entries.join(",\n"),
        ));
    }
    let json = format!(
        "{{\n  \"schema\": \"epic-bench-pareto/v1\",\n  \"scale\": \"{scale:?}\",\n  \
         \"workloads\": [\n{}\n  ]\n}}\n",
        workload_entries.join(",\n")
    );
    write_or_check(&out, &json, check, "repro -- isx")
}

/// Many-core array report (`repro -- array`): every mesh workload
/// (tiled DCT, frontier-exchange BFS, sharded AES-CTR) on 1×1, 2×2 and
/// 4×4 meshes of EPIC cores. Each run is oracle-verified (core 0's
/// gathered output must match the scalar golden model), and the report
/// shows per-core `SimStats`, the aggregate lockstep/architectural
/// cycle counts, and the NoC's link-utilisation and latency counters
/// bucketed through `epic_obs::Histogram`.
///
/// Writes `--out <file>` (default `BENCH_manycore.json`), schema
/// `epic-bench-manycore/v1`. Every field is deterministic — a lockstep
/// run is a pure function of its inputs — so `--check` regenerates the
/// JSON and compares byte-for-byte.
///
/// Cores run the default engine; `tests/manycore_engines.rs` holds them
/// bit-identical to reference cores.
fn cmd_array(scale: Scale, out: Option<std::path::PathBuf>, check: bool) -> Result<(), String> {
    use epic_core::array::{link_name, MeshSpec};
    use epic_core::experiments::run_mesh_workload;

    const MESHES: [(usize, usize); 3] = [(1, 1), (2, 2), (4, 4)];
    const LATENCY_BOUNDS: [u64; 6] = [4, 8, 16, 32, 64, 128];
    let out = out.unwrap_or_else(|| std::path::PathBuf::from("BENCH_manycore.json"));
    let config = Config::builder().num_alus(2).build().expect("valid");
    let meshes = epic_core::workloads::mesh::all(scale);
    println!(
        "Many-core array ({scale:?} scale): mesh workloads x mesh sizes, every run oracle-verified"
    );
    println!(
        "{:<12} {:>5} {:>10} {:>12} {:>6} {:>8} {:>9} {:>7} {:>9}",
        "workload", "mesh", "cycles", "core cycles", "msgs", "words", "avg lat", "links", "busiest"
    );
    let mut entries = String::new();
    for workload in &meshes {
        for (width, height) in MESHES {
            let spec = MeshSpec::new(width, height);
            let run = run_mesh_workload(workload, &config, &spec)
                .map_err(|e| format!("{} on {width}x{height}: {e}", workload.name))?;
            let outcome = &run.outcome;
            let noc = &outcome.noc;
            let mut latency = epic_obs::Histogram::new(&LATENCY_BOUNDS);
            for &sample in &noc.latencies {
                latency.record(sample);
            }
            let avg_latency = if noc.messages_delivered == 0 {
                0.0
            } else {
                noc.total_latency as f64 / noc.messages_delivered as f64
            };
            let busiest = (0..noc.link_transfers.len())
                .filter(|&l| noc.link_transfers[l] > 0)
                .max_by_key(|&l| noc.link_transfers[l])
                .map_or_else(|| "-".to_owned(), |l| link_name(l, width));
            println!(
                "{:<12} {:>5} {:>10} {:>12} {:>6} {:>8} {:>9.1} {:>7} {:>9}",
                workload.name,
                format!("{width}x{height}"),
                outcome.cycles,
                outcome.aggregate_core_cycles(),
                noc.messages_delivered,
                noc.payload_words,
                avg_latency,
                noc.links_used(),
                busiest,
            );
            let per_core = outcome
                .per_core
                .iter()
                .map(|s| {
                    format!(
                        "{{\"cycles\": {}, \"instructions\": {}, \"stalls\": {}}}",
                        s.cycles,
                        s.instructions,
                        s.stalls.total()
                    )
                })
                .collect::<Vec<_>>()
                .join(", ");
            let buckets = latency
                .buckets()
                .iter()
                .map(u64::to_string)
                .collect::<Vec<_>>()
                .join(", ");
            if !entries.is_empty() {
                entries.push_str(",\n");
            }
            entries.push_str(&format!(
                "    {{\"workload\": \"{}\", \"width\": {width}, \"height\": {height}, \
                 \"cycles\": {}, \"core_cycles\": {}, \"messages\": {}, \
                 \"payload_words\": {}, \"total_hops\": {}, \"total_latency\": {}, \
                 \"links_used\": {}, \"max_link_transfers\": {}, \
                 \"latency_buckets\": [{buckets}], \"per_core\": [{per_core}]}}",
                workload.name,
                outcome.cycles,
                outcome.aggregate_core_cycles(),
                noc.messages_delivered,
                noc.payload_words,
                noc.total_hops,
                noc.total_latency,
                noc.links_used(),
                noc.max_link_transfers(),
            ));
        }
    }
    let json = format!(
        "{{\n  \"schema\": \"epic-bench-manycore/v1\",\n  \"scale\": \"{scale:?}\",\n  \
         \"latency_bounds\": [4, 8, 16, 32, 64, 128],\n  \"points\": [\n{entries}\n  ]\n}}\n"
    );
    write_or_check(&out, &json, check, "repro -- array")
}

/// A sink that declares itself observing and records nothing, so
/// `Simulator::run_with_sink` takes the per-cycle loop to halt.
struct PerCycle;

impl TraceSink for PerCycle {}

/// Engine throughput race: every workload × the four corners of the
/// (ALUs, issue-width) grid, each binary prepared once (compile,
/// assemble, profile training) and then simulated to completion in
/// three lanes from identical cloned machines: the reference engine's
/// `run`, `Simulator` run to halt on its per-cycle loop (under
/// [`PerCycle`], the loop every stepped or observed run takes), and
/// `Simulator::run` on its threaded loop. Every clone starts without a
/// translation, so the `run` lane's time includes translating the
/// program. Timing is interleaved rep-major — reference, per-cycle,
/// run, then again — so clock drift hits every lane equally, and the
/// best of `REPS` timed runs counts. The warm-up pass records the
/// architectural outputs, which must agree bit-for-bit across lanes: a
/// disagreement is an error, not a data point. The table closes with a
/// per-lane geomean summary row over all corner points.
///
/// Writes `--out <file>` (default `BENCH_throughput.json`), schema
/// `epic-bench-throughput/v3`: per point and lane only the
/// deterministic fields (`sim_cycles`, `fast_block_execs`,
/// `chained_execs`). The schema's `engine` labels are `reference`,
/// `decoded` (the per-cycle lane) and `threaded` (the `run` lane). Wall
/// times are machine-local and only printed; the timing of record is
/// `perfbench`. `--check` regenerates the JSON and compares it byte for
/// byte against the committed file.
fn cmd_bench_throughput(
    scale: Scale,
    out: Option<std::path::PathBuf>,
    check: bool,
) -> Result<(), String> {
    const REPS: usize = 5;
    const CORNERS: [(usize, usize); 4] = [(1, 1), (1, 4), (4, 1), (4, 4)];
    const LANES: [&str; 3] = ["reference", "decoded", "threaded"];
    let out = out.unwrap_or_else(|| std::path::PathBuf::from("BENCH_throughput.json"));
    let workloads = workloads::all(scale);
    println!(
        "Engine throughput ({scale:?} scale): workload x (ALUs, issue width) corners, \
         best of {REPS} interleaved runs"
    );
    println!(
        "{:<10} {:>5} {:>3} {:>10} {:>10} {:>10} {:>10} {:>8} {:>10} {:>8}",
        "workload",
        "alus",
        "iw",
        "cycles",
        "ref Mc/s",
        "cycle Mc/s",
        "run Mc/s",
        "run/cyc",
        "fast blks",
        "chained"
    );
    let mut entries = String::new();
    // Sum of ln(cycles/sec) per lane, for the geomean summary row.
    let mut ln_cps = [0f64; 3];
    let mut points = 0usize;
    for workload in &workloads {
        for (alus, width) in CORNERS {
            let config = Config::builder()
                .num_alus(alus)
                .issue_width(width)
                .build()
                .expect("valid grid configuration");
            let (_toolchain, prepared) = prepare_epic_workload(workload, &config)
                .map_err(|e| format!("{} at {alus} ALU / {width}-wide: {e}", workload.name))?;
            let bundles = prepared.program.bundles().to_vec();
            let entry = prepared.program.entry();
            let image = prepared.initial_memory;

            let reference = {
                let mut sim = ReferenceSimulator::try_new(&config, bundles.clone(), entry)
                    .map_err(|e| e.to_string())?;
                sim.set_memory(Memory::from_image(image.clone()));
                sim
            };
            let machine = {
                let mut sim =
                    Simulator::try_new(&config, bundles, entry).map_err(|e| e.to_string())?;
                sim.set_memory(Memory::from_image(image));
                sim
            };

            // One timed run of one lane on a clone of its template
            // (construction and decode stay outside the clock).
            // Returns (wall ns, cycles, fast blocks, chained).
            let run_lane = |lane: usize| -> (u128, u64, u64, u64) {
                if lane == 0 {
                    let mut sim = reference.clone();
                    let start = Instant::now();
                    sim.run().expect("verified workloads never fault");
                    return (start.elapsed().as_nanos(), sim.stats().cycles, 0, 0);
                }
                let mut sim = machine.clone();
                let start = Instant::now();
                if lane == 1 {
                    sim.run_with_sink(&mut PerCycle)
                        .expect("verified workloads never fault");
                } else {
                    sim.run().expect("verified workloads never fault");
                }
                (
                    start.elapsed().as_nanos(),
                    sim.stats().cycles,
                    sim.fast_block_execs(),
                    sim.chained_execs(),
                )
            };

            let mut cycles = [0u64; 3];
            let mut fast = [0u64; 3];
            let mut chained = [0u64; 3];
            let mut best = [u128::MAX; 3];
            for rep in 0..=REPS {
                // Rep 0 warms caches and records the deterministic outputs.
                for (li, lane) in LANES.into_iter().enumerate() {
                    let (ns, c, f, ch) = run_lane(li);
                    if rep == 0 {
                        cycles[li] = c;
                        fast[li] = f;
                        chained[li] = ch;
                    } else {
                        if c != cycles[li] {
                            return Err(format!(
                                "{} at {alus} ALU / {width}-wide: the {lane} lane is \
                                 nondeterministic ({c} vs {} cycles)",
                                workload.name, cycles[li]
                            ));
                        }
                        best[li] = best[li].min(ns);
                    }
                }
            }
            if cycles.iter().any(|&c| c != cycles[0]) {
                return Err(format!(
                    "{} at {alus} ALU / {width}-wide: lanes disagree on cycles \
                     (reference {}, per-cycle {}, run {})",
                    workload.name, cycles[0], cycles[1], cycles[2]
                ));
            }
            let mcps = |li: usize| cycles[li] as f64 * 1e3 / best[li] as f64;
            println!(
                "{:<10} {:>5} {:>3} {:>10} {:>10.2} {:>10.2} {:>10.2} {:>7.2}x {:>10} {:>8}",
                workload.name,
                alus,
                width,
                cycles[0],
                mcps(0),
                mcps(1),
                mcps(2),
                best[1] as f64 / best[2] as f64,
                fast[2],
                chained[2]
            );
            points += 1;
            for (li, lane) in LANES.into_iter().enumerate() {
                ln_cps[li] += (cycles[li] as f64 * 1e9 / best[li] as f64).ln();
                if !entries.is_empty() {
                    entries.push_str(",\n");
                }
                entries.push_str(&format!(
                    "    {{\"workload\": \"{}\", \"alus\": {alus}, \"issue_width\": {width}, \
                     \"engine\": \"{lane}\", \"sim_cycles\": {}, \"fast_block_execs\": {}, \
                     \"chained_execs\": {}}}",
                    workload.name, cycles[li], fast[li], chained[li]
                ));
            }
        }
    }
    let geomean = |li: usize| (ln_cps[li] / points as f64).exp();
    println!(
        "{:<10} {:>5} {:>3} {:>10} {:>10.2} {:>10.2} {:>10.2} {:>7.2}x",
        "geomean",
        "-",
        "-",
        "-",
        geomean(0) / 1e6,
        geomean(1) / 1e6,
        geomean(2) / 1e6,
        geomean(2) / geomean(1)
    );
    let json = format!(
        "{{\n  \"schema\": \"epic-bench-throughput/v3\",\n  \"scale\": \"{scale:?}\",\n  \
         \"points\": [\n{entries}\n  ]\n}}\n"
    );
    write_or_check(&out, &json, check, "repro -- bench --throughput")
}

fn cmd_table1(scale: Scale) -> Result<Table1, String> {
    eprintln!(
        "running Table 1 at {scale:?} scale on {} thread(s) (every run verified against the golden model)…",
        rayon::current_num_threads()
    );
    let table = table1(scale, &ALUS).map_err(|e| e.to_string())?;
    print!("{}", table.render());
    Ok(table)
}

fn cmd_figure(scale: Scale, workload: &str) -> Result<(), String> {
    let table = table1(scale, &ALUS).map_err(|e| e.to_string())?;
    let series =
        figure_series(&table, workload).ok_or_else(|| format!("no data for {workload}"))?;
    print!("{}", series.render());
    Ok(())
}

/// Custom-instruction ablation: SHA with and without a ROTR custom op
/// (paper §3.3/§6: custom instructions as the second customisation axis).
fn cmd_custom(scale: Scale) -> Result<(), String> {
    let workload = workloads::sha::build(scale);
    let base = Config::builder().num_alus(4).build().expect("valid");
    let custom = Config::builder()
        .num_alus(4)
        .custom_op(CustomOp::new("sha_rotr", CustomSemantics::RotateRight))
        .build()
        .expect("valid");
    let plain = run_epic_workload(&workload, &base).map_err(|e| e.to_string())?;
    let rotr = run_epic_workload(&workload, &custom).map_err(|e| e.to_string())?;
    let speedup = plain.cycles as f64 / rotr.cycles as f64;
    println!("Custom-instruction ablation: SHA-256, 4 ALUs");
    println!(
        "  base ISA (rotate = 4-op shift sequence): {:>12} cycles",
        plain.cycles
    );
    println!(
        "  with ROTR custom instruction:            {:>12} cycles",
        rotr.cycles
    );
    println!("  speedup from one custom instruction:     {speedup:.2}x");
    println!(
        "  area cost: +{} slices",
        epic_core::area::AreaModel::new(&custom).slices()
            - epic_core::area::AreaModel::new(&base).slices()
    );
    Ok(())
}

/// Register-file port-budget and forwarding ablation (paper §3.2: the 4x
/// controller gives 8 ops/cycle; forwarding mitigates the limit).
fn cmd_ports(scale: Scale) -> Result<(), String> {
    let workload = workloads::dct::build(scale);
    println!("Register-file controller ablation: DCT, 4 ALUs");
    println!(
        "{:<34} {:>12} {:>10}",
        "configuration", "cycles", "port stalls"
    );
    for (label, ops, forwarding) in [
        ("8 ops/cycle + forwarding (paper)", 8usize, true),
        ("8 ops/cycle, no forwarding", 8, false),
        ("4 ops/cycle + forwarding", 4, true),
        ("16 ops/cycle + forwarding", 16, true),
    ] {
        let config = Config::builder()
            .num_alus(4)
            .regfile_ops_per_cycle(ops)
            .forwarding(forwarding)
            .build()
            .expect("valid");
        let stats = run_epic_workload(&workload, &config).map_err(|e| e.to_string())?;
        println!(
            "{label:<34} {:>12} {:>10}",
            stats.cycles, stats.stalls.regfile_port
        );
    }
    Ok(())
}

/// Performance/area exploration (paper §1: the point of customisability).
fn cmd_explore(scale: Scale) -> Result<(), String> {
    let workload = workloads::dct::build(scale);
    println!("Design-space exploration: DCT");
    let mut points = sweep_alus(&workload, &ALUS).map_err(|e| e.to_string())?;
    // A feature-trimmed variant: DCT never divides.
    let trimmed = sweep(
        &workload,
        [(
            "4 ALU, no divider".to_owned(),
            Config::builder()
                .num_alus(4)
                .without_alu_feature(epic_core::config::AluFeature::Divide)
                .build()
                .expect("valid"),
        )],
    )
    .map_err(|e| e.to_string())?;
    points.extend(trimmed);
    print!("{}", render(&points));
    println!("Pareto frontier:");
    print!("{}", render(&pareto(&points)));
    Ok(())
}

/// Performance / size / power characterisation (paper §6).
fn cmd_power(scale: Scale) -> Result<(), String> {
    let workload = workloads::dct::build(scale);
    println!("Power and energy: DCT across ALU counts");
    println!(
        "{:<8} {:>12} {:>9} {:>8} {:>10} {:>11}",
        "ALUs", "cycles", "time (s)", "slices", "avg mW", "energy mJ"
    );
    for alus in ALUS {
        let config = Config::builder().num_alus(alus).build().expect("valid");
        let stats = run_epic_workload(&workload, &config).map_err(|e| e.to_string())?;
        let area = epic_core::area::AreaModel::new(&config);
        let power = epic_core::area::PowerModel::new(&config);
        let estimate = power.estimate(&stats);
        println!(
            "{:<8} {:>12} {:>9.4} {:>8} {:>10.1} {:>11.3}",
            alus,
            stats.cycles,
            estimate.seconds,
            area.slices(),
            estimate.average_mw,
            estimate.total_mj()
        );
    }
    println!("(activity-based model; see epic_area::PowerModel for the constants)");
    Ok(())
}

/// Pipeline-depth exploration (paper §6: "parameterising the level of
/// pipelining").
fn cmd_pipeline(scale: Scale) -> Result<(), String> {
    let workload = workloads::sha::build(scale);
    println!("Pipeline-depth exploration: SHA, 4 ALUs");
    println!(
        "{:<8} {:>12} {:>11} {:>9} {:>8}",
        "stages", "cycles", "clock MHz", "time (s)", "slices"
    );
    for stages in 2..=4usize {
        let config = Config::builder()
            .num_alus(4)
            .pipeline_stages(stages)
            .build()
            .expect("valid");
        let stats = run_epic_workload(&workload, &config).map_err(|e| e.to_string())?;
        let area = epic_core::area::AreaModel::new(&config);
        println!(
            "{:<8} {:>12} {:>11.1} {:>9.4} {:>8}",
            stages,
            stats.cycles,
            area.clock_mhz(),
            area.execution_time(stats.cycles),
            area.slices()
        );
    }
    println!("(deeper pipelines pay longer branch flushes but clock higher)");
    Ok(())
}

fn cmd_all(scale: Scale) -> Result<(), String> {
    let table = cmd_table1(scale)?;
    println!();
    for workload in ["sha", "dct", "dijkstra"] {
        if let Some(series) = figure_series(&table, workload) {
            print!("{}", series.render());
            println!();
        }
    }
    print!("{}", render_resources(&resource_usage(&[1, 2, 3, 4])));
    println!();
    print!("{}", render_headline(&headline_checks(&table)));
    println!();
    cmd_custom(scale)?;
    println!();
    cmd_ports(scale)?;
    println!();
    cmd_explore(scale)?;
    println!();
    cmd_power(scale)?;
    println!();
    cmd_pipeline(scale)
}
