//! `epic-prof`: where did the cycles go?
//!
//! Compiles a built-in workload for one processor configuration, runs it
//! with the full observability stack plugged in (metrics registry, stall
//! profiler and — on request — the Perfetto trace writer), verifies the
//! output against the workload's golden model, and prints a per-basic-
//! block hot-spot and stall-attribution report:
//!
//! ```text
//! epic-prof <workload> [--alus N] [--issue-width N] [--paper]
//!           [--format text|json] [--perfetto <trace.json>]
//! ```
//!
//! The text report names the hottest blocks of the *compiled assembly*
//! and renders each as a rustc-style diagnostic pointing at the block's
//! label in the generated source (the same `epic_asm::Diagnostic`
//! plumbing `epic-lint` uses). `--format json` emits one machine-
//! readable object with the configuration, the simulator statistics,
//! the metrics registry and the block table. `--perfetto <path>` also
//! writes a Chrome trace-event file for <https://ui.perfetto.dev>.
//!
//! Before printing anything the tool reconciles the metrics registry
//! against the engine's own `SimStats` and exits nonzero on any
//! mismatch, so a report can never disagree with the simulator.

use epic_config::Config;
use epic_obs::{MetricsRegistry, PerfettoSink, ProfileSink, StallCause, StallProfile, TeeSink};
use epic_sim::SimStats;
use epic_workloads::Scale;
use std::path::PathBuf;
use std::process::ExitCode;

#[derive(Clone, Copy, PartialEq, Eq)]
enum Format {
    Text,
    Json,
}

struct Args {
    workload: String,
    alus: usize,
    issue_width: usize,
    scale: Scale,
    format: Format,
    perfetto: Option<PathBuf>,
}

const USAGE: &str = "usage: epic-prof <workload> [--alus N] [--issue-width N] [--paper] \
                     [--format text|json] [--perfetto <trace.json>]";

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut alus = 4usize;
    let mut issue_width = 4usize;
    let mut scale = Scale::Test;
    let mut format = Format::Text;
    let mut perfetto = None;
    let mut iter = std::env::args().skip(1);
    while let Some(arg) = iter.next() {
        let parse_format = |text: &str| match text {
            "text" => Ok(Format::Text),
            "json" => Ok(Format::Json),
            other => Err(format!("unknown format `{other}` (text or json)")),
        };
        match arg.as_str() {
            "--alus" => {
                alus = iter
                    .next()
                    .ok_or("--alus needs a count")?
                    .parse()
                    .map_err(|e| format!("--alus: {e}"))?;
            }
            "--issue-width" => {
                issue_width = iter
                    .next()
                    .ok_or("--issue-width needs a count")?
                    .parse()
                    .map_err(|e| format!("--issue-width: {e}"))?;
            }
            "--paper" => scale = Scale::Paper,
            "--format" => {
                format = parse_format(&iter.next().ok_or("--format needs a value")?)?;
            }
            "--perfetto" => {
                perfetto = Some(PathBuf::from(iter.next().ok_or("--perfetto needs a path")?));
            }
            "--help" | "-h" => return Err(USAGE.to_owned()),
            other => {
                if let Some(value) = other.strip_prefix("--format=") {
                    format = parse_format(value)?;
                } else if !other.starts_with('-') && workload.is_none() {
                    workload = Some(other.to_owned());
                } else {
                    return Err(format!("unknown flag `{other}`\n{USAGE}"));
                }
            }
        }
    }
    Ok(Args {
        workload: workload.ok_or_else(|| format!("no workload given\n{USAGE}"))?,
        alus,
        issue_width,
        scale,
        format,
        perfetto,
    })
}

fn stats_json(stats: &SimStats) -> String {
    format!(
        "{{\"cycles\":{},\"bundles\":{},\"instructions\":{},\"squashed\":{},\"nops\":{},\
         \"loads\":{},\"stores\":{},\"ipc\":{:.4},\"stalls\":{{\"data_hazard\":{},\
         \"unit_busy\":{},\"regfile_port\":{},\"branch_flush\":{},\"memory_contention\":{},\
         \"total\":{}}},\"fu_busy_cycles\":{{\"alu\":{},\"lsu\":{},\"cmpu\":{},\"bru\":{}}}}}",
        stats.cycles,
        stats.bundles,
        stats.instructions,
        stats.squashed,
        stats.nops,
        stats.loads,
        stats.stores,
        stats.ipc(),
        stats.stalls.data_hazard,
        stats.stalls.unit_busy,
        stats.stalls.regfile_port,
        stats.stalls.branch_flush,
        stats.stalls.memory_contention,
        stats.stalls.total(),
        stats.alu_busy_cycles,
        stats.lsu_busy_cycles,
        stats.cmpu_busy_cycles,
        stats.bru_busy_cycles,
    )
}

fn blocks_json(profile: &StallProfile) -> String {
    let rows: Vec<String> = profile
        .blocks
        .iter()
        .map(|block| {
            let stalls: Vec<String> = StallCause::ALL
                .iter()
                .map(|&cause| format!("\"{}\":{}", cause.name(), block.stalls[cause as usize]))
                .collect();
            format!(
                "{{\"label\":\"{}\",\"start_pc\":{},\"issue_cycles\":{},\"instructions\":{},\
                 \"squashed\":{},\"loads\":{},\"stores\":{},\"stalls\":{{{}}},\"cost\":{}}}",
                block.label,
                block.start_pc,
                block.issue_cycles,
                block.instructions,
                block.squashed,
                block.loads,
                block.stores,
                stalls.join(","),
                block.cost()
            )
        })
        .collect();
    format!("[{}]", rows.join(","))
}

/// One block's static worst-case price next to what the run actually
/// paid — the raw material of the PRF002 diagnostic.
struct BoundGap {
    label: String,
    start_pc: u32,
    static_upper: u64,
    observed: u64,
}

impl BoundGap {
    fn gap(&self) -> u64 {
        self.static_upper.saturating_sub(self.observed)
    }
}

/// Prices every block with the static cost model (per-pc worst-case
/// contributions from the measured issue counts) and pairs that with the
/// block's observed cost (issue cycles + attributed stalls). Sorted by
/// gap, widest first: the top entries are where the static bound is most
/// pessimistic — or, when `observed` wins, where attribution found costs
/// the model missed.
fn bound_gaps(profile: &StallProfile, bounds: &epic_bound::CycleBounds) -> Vec<BoundGap> {
    let mut starts: Vec<(u32, &str)> = profile
        .blocks
        .iter()
        .map(|b| (b.start_pc, b.label.as_str()))
        .collect();
    starts.sort_unstable();
    let block_of = |pc: u32| -> Option<&str> {
        let idx = starts.partition_point(|&(start, _)| start <= pc);
        idx.checked_sub(1).map(|i| starts[i].1)
    };
    let mut upper_by_label: std::collections::BTreeMap<&str, u64> =
        std::collections::BTreeMap::new();
    for pb in &bounds.per_pc {
        if let Some(label) = block_of(pb.pc) {
            *upper_by_label.entry(label).or_default() += pb.contribution_hi().unwrap_or(0);
        }
    }
    let mut gaps: Vec<BoundGap> = profile
        .blocks
        .iter()
        .map(|block| BoundGap {
            label: block.label.clone(),
            start_pc: block.start_pc,
            static_upper: upper_by_label
                .get(block.label.as_str())
                .copied()
                .unwrap_or(0),
            observed: block.cost(),
        })
        .collect();
    gaps.sort_by(|a, b| b.gap().cmp(&a.gap()).then(a.start_pc.cmp(&b.start_pc)));
    gaps
}

fn gaps_json(gaps: &[BoundGap]) -> String {
    let rows: Vec<String> = gaps
        .iter()
        .map(|g| {
            format!(
                "{{\"label\":\"{}\",\"start_pc\":{},\"static_upper\":{},\"observed\":{},\
                 \"gap\":{}}}",
                g.label,
                g.start_pc,
                g.static_upper,
                g.observed,
                g.gap()
            )
        })
        .collect();
    format!("[{}]", rows.join(","))
}

/// 1-based line of `label:` in the assembly source, 0 when absent.
fn label_line(source: &str, label: &str) -> usize {
    source
        .lines()
        .position(|line| {
            let code = match line.find(';') {
                Some(pos) => &line[..pos],
                None => line,
            };
            code.trim() == format!("{label}:")
        })
        .map_or(0, |idx| idx + 1)
}

fn dominant_cause(block: &epic_obs::BlockProfile) -> Option<StallCause> {
    StallCause::ALL
        .iter()
        .copied()
        .max_by_key(|&cause| block.stalls[cause as usize])
        .filter(|&cause| block.stalls[cause as usize] > 0)
}

fn text_report(
    args: &Args,
    stats: &SimStats,
    profile: &StallProfile,
    bounds: &epic_bound::CycleBounds,
    gaps: &[BoundGap],
    compiled: &epic_core::compiler::CompiledProgram,
) -> String {
    use std::fmt::Write as _;
    let assembly = compiled.assembly();
    let mut out = String::new();
    let _ = writeln!(
        out,
        "epic-prof: {} on {} ALU / {}-wide EPIC ({:?} scale)\n",
        args.workload, args.alus, args.issue_width, args.scale
    );
    let _ = writeln!(out, "{stats}");
    let sched = compiled.stats().sched;
    let _ = writeln!(
        out,
        "occupancy           {:.1}% of issue slots filled ({} / {})\n",
        100.0 * sched.occupancy(),
        sched.slots_filled,
        sched.slots_available
    );
    let _ = writeln!(
        out,
        "cycle bound         [{}, {}] from measured issue counts; actual {}\n",
        bounds.lower,
        bounds
            .upper
            .map_or_else(|| "inf".to_owned(), |u| u.to_string()),
        stats.cycles
    );

    let _ = writeln!(
        out,
        "hot blocks (cost = issue cycles + attributed stall cycles):\n"
    );
    let _ = writeln!(
        out,
        "  {:<16} {:>7} {:>6} {:>7} {:>6} {:>6} {:>6} {:>6} {:>6} {:>6}",
        "block", "cost", "%cyc", "issue", "stall", "data", "unit", "port", "flush", "mem"
    );
    for block in &profile.blocks {
        let percent = if profile.cycles == 0 {
            0.0
        } else {
            block.cost() as f64 * 100.0 / profile.cycles as f64
        };
        let _ = writeln!(
            out,
            "  {:<16} {:>7} {:>5.1}% {:>7} {:>6} {:>6} {:>6} {:>6} {:>6} {:>6}",
            block.label,
            block.cost(),
            percent,
            block.issue_cycles,
            block.stall_total(),
            block.stalls[StallCause::DataHazard as usize],
            block.stalls[StallCause::UnitBusy as usize],
            block.stalls[StallCause::RegfilePort as usize],
            block.stalls[StallCause::BranchFlush as usize],
            block.stalls[StallCause::MemoryContention as usize],
        );
    }
    out.push('\n');

    // The hottest stalling blocks, rendered as rustc-style diagnostics
    // against the compiled assembly (the same plumbing epic-lint uses).
    let origin = format!("{}.s", args.workload);
    for block in profile
        .blocks
        .iter()
        .filter(|b| b.stall_total() > 0)
        .take(3)
    {
        let Some(cause) = dominant_cause(block) else {
            continue;
        };
        let percent = if profile.cycles == 0 {
            0.0
        } else {
            block.stall_total() as f64 * 100.0 / profile.cycles as f64
        };
        let mut message = format!(
            "block `{}` loses {} cycle(s) to stalls ({percent:.1}% of the run), \
             mostly {}",
            block.label,
            block.stall_total(),
            cause.name()
        );
        // Branch- and latency-shaped stalls are what region scheduling
        // attacks: name the superblock trace through this block.
        if matches!(cause, StallCause::BranchFlush | StallCause::DataHazard) {
            if let Some(hint) = compiled.trace().and_then(|t| {
                t.functions.iter().find_map(|f| {
                    epic_core::compiler::suggest::superblock_hint(f, &block.label, None)
                })
            }) {
                if hint.applied {
                    let _ = write!(
                        message,
                        "; superblock region `{}` already absorbs it",
                        hint.path()
                    );
                } else {
                    let _ = write!(
                        message,
                        "; consider superblock scheduling: hot trace `{}`",
                        hint.path()
                    );
                }
            }
        }
        let diag = epic_asm::Diagnostic::warning("PRF001", message)
            .with_line(label_line(assembly, &block.label))
            .with_bundle(block.start_pc as usize, None);
        out.push_str(&diag.render(&origin, Some(assembly)));
    }

    // Where the static cost model is most pessimistic: blocks whose
    // worst-case price exceeds what the run actually paid. A wide gap
    // means the worst case (hazards unforwarded, ports saturated,
    // branches always flushing) did not materialise here — tightening
    // the bound starts at these blocks.
    let total_gap: u64 = gaps.iter().map(BoundGap::gap).sum();
    for gap in gaps.iter().filter(|g| g.gap() > 0).take(3) {
        let share = if total_gap > 0 {
            gap.gap() as f64 * 100.0 / total_gap as f64
        } else {
            0.0
        };
        let message = format!(
            "block `{}` is priced at {} worst-case cycle(s) but cost {} — the static \
             bound overestimates by {} cycle(s) ({share:.1}% of the pessimism)",
            gap.label,
            gap.static_upper,
            gap.observed,
            gap.gap()
        );
        let diag = epic_asm::Diagnostic::warning("PRF002", message)
            .with_line(label_line(assembly, &gap.label))
            .with_bundle(gap.start_pc as usize, None);
        out.push_str(&diag.render(&origin, Some(assembly)));
    }
    out
}

fn run(args: &Args) -> Result<ExitCode, String> {
    let workloads = epic_workloads::all(args.scale);
    let workload = workloads
        .iter()
        .find(|w| w.name == args.workload)
        .ok_or_else(|| {
            let names: Vec<&str> = workloads.iter().map(|w| w.name.as_str()).collect();
            format!(
                "unknown workload `{}` (available: {})",
                args.workload,
                names.join(", ")
            )
        })?;
    let config = Config::builder()
        .num_alus(args.alus)
        .issue_width(args.issue_width)
        .build()
        .map_err(|e| format!("configuration: {e}"))?;

    let perfetto = args.perfetto.as_ref().map(|_| PerfettoSink::default());
    let mut sink = TeeSink(
        TeeSink(MetricsRegistry::default(), ProfileSink::default()),
        perfetto,
    );
    let run = epic_core::experiments::run_epic_workload_observed(workload, &config, &mut sink)
        .map_err(|e| e.to_string())?;
    let TeeSink(TeeSink(mut metrics, profiler), perfetto) = sink;

    // The report must never disagree with the engine: reconcile the
    // registry against SimStats before printing anything.
    metrics.finish();
    let stats = run.stats();
    metrics
        .reconcile(stats)
        .map_err(|e| format!("metrics/SimStats reconciliation failed:\n{e}"))?;
    let profile = StallProfile::build(&profiler, run.program.labels());
    let attributed: u64 = profile.stall_totals().iter().sum();
    if attributed != stats.stalls.total() {
        return Err(format!(
            "stall attribution ({attributed}) does not sum to SimStats.stalls ({})",
            stats.stalls.total()
        ));
    }

    // Price the program with the static cost model over the measured
    // issue counts, then line the per-block worst case up against what
    // the run actually paid (PRF002).
    let counts: std::collections::BTreeMap<u32, u64> =
        profiler.per_pc().map(|(pc, p)| (pc, p.issues)).collect();
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
            "static cycle interval [{}, {:?}] does not contain the run's {} cycles",
            bounds.lower, bounds.upper, stats.cycles
        ));
    }
    let gaps = bound_gaps(&profile, &bounds);

    if let (Some(path), Some(mut sink)) = (args.perfetto.as_ref(), perfetto) {
        std::fs::write(path, sink.to_json()).map_err(|e| format!("{}: {e}", path.display()))?;
        if args.format == Format::Text {
            eprintln!(
                "epic-prof: wrote {} (open at https://ui.perfetto.dev)",
                path.display()
            );
        }
    }

    match args.format {
        Format::Text => {
            print!(
                "{}",
                text_report(args, stats, &profile, &bounds, &gaps, &run.compiled)
            );
        }
        Format::Json => {
            println!(
                "{{\"workload\":\"{}\",\"scale\":\"{:?}\",\"engine\":\"{}\",\
                 \"config\":{{\"alus\":{},\
                 \"issue_width\":{}}},\"stats\":{},\"metrics\":{},\"blocks\":{},\
                 \"bound\":{{\"lower\":{},\"upper\":{}}},\"bound_gaps\":{}}}",
                args.workload,
                args.scale,
                // Profiling needs the per-cycle event stream, and an
                // observing sink always gets the decoded engine (the
                // threaded engine stands down when observed).
                epic_sim::Engine::Decoded,
                args.alus,
                args.issue_width,
                stats_json(stats),
                metrics.to_json(),
                blocks_json(&profile),
                bounds.lower,
                bounds
                    .upper
                    .map_or_else(|| "null".to_owned(), |u| u.to_string()),
                gaps_json(&gaps)
            );
        }
    }
    Ok(ExitCode::SUCCESS)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("{message}");
            return ExitCode::FAILURE;
        }
    };
    match run(&args) {
        Ok(code) => code,
        Err(message) => {
            eprintln!("epic-prof: {message}");
            ExitCode::FAILURE
        }
    }
}
