//! `epic-lint`: static linter for EPIC assembly sources and the
//! compiler's own pipeline.
//!
//! File mode feeds a `.s` file through the existing assembler (so it
//! accepts exactly the language `epic-asm` accepts, for any
//! configuration header) and then runs the `epic-verify` static
//! analyzer over the assembled bundles, mapping every finding back to a
//! source line:
//!
//! ```text
//! epic-lint <source.s> [--config <header.cfg>] [--format text|json]
//! ```
//!
//! With `--bound`, file mode additionally runs the `epic-bound`
//! dataflow lints (BND001 dead store, BND002 unreachable code, BND003
//! unnecessary speculation — give `--mem-size <bytes>` to enable the
//! in-bounds proof) and prints the program's static cycle interval
//! (`--assume-trips <n>` closes loops the trip-bound analysis cannot):
//!
//! ```text
//! epic-lint <source.s> --bound [--mem-size <bytes>] [--assume-trips <n>]
//! ```
//!
//! Discovery mode (`--isx`) runs the `epic-isx` subgraph miner over the
//! assembled bundles instead of the verifier and prints the ranked
//! custom-instruction candidates — name, fused expression tree,
//! estimated cycles saved, datapath slice cost. Mining is static (every
//! block weighted equally); feed profile weights through
//! `repro -- isx` for profile-guided ranking:
//!
//! ```text
//! epic-lint <source.s> --isx [--config <header.cfg>] [--format text|json]
//! ```
//!
//! Translation-validation mode (`--tv`) takes no source file: it
//! compiles every built-in workload across the ALU (1–4) × issue-width
//! (1–4) grid and runs the `epic-tv` pass-by-pass validator over each
//! pipeline trace, reporting any refinement violation the compiler
//! produced:
//!
//! ```text
//! epic-lint --tv [--format text|json]
//! ```
//!
//! Bound mode (`--bound` with no source file) sweeps the same grid, but
//! instead of validating passes it *simulates* every point and checks
//! the measured cycle count against the static cycle-interval analysis
//! — the command-line face of the differential oracle. The exit code is
//! nonzero on any containment violation:
//!
//! ```text
//! epic-lint --bound [--format text|json]
//! ```
//!
//! Diagnostics are rendered rustc-style with caret lines (`--format
//! text`, the default) or as JSON (`--format json`). The exit code is
//! nonzero when any error-severity diagnostic is present; warnings
//! alone exit zero.

use epic_config::{header, Config};
use std::path::PathBuf;
use std::process::ExitCode;

#[derive(Clone, Copy, PartialEq, Eq)]
enum Format {
    Text,
    Json,
}

struct Args {
    source: Option<PathBuf>,
    config: Option<PathBuf>,
    format: Format,
    tv: bool,
    bound: bool,
    isx: bool,
    mem_size: Option<u32>,
    assume_trips: Option<u64>,
}

fn parse_args() -> Result<Args, String> {
    let mut source = None;
    let mut config = None;
    let mut format = Format::Text;
    let mut tv = false;
    let mut bound = false;
    let mut isx = false;
    let mut mem_size = None;
    let mut assume_trips = None;
    let mut iter = std::env::args().skip(1);
    while let Some(arg) = iter.next() {
        let parse_format = |text: &str| match text {
            "text" => Ok(Format::Text),
            "json" => Ok(Format::Json),
            other => Err(format!("unknown format `{other}` (text or json)")),
        };
        match arg.as_str() {
            "--config" => {
                config = Some(PathBuf::from(iter.next().ok_or("--config needs a path")?));
            }
            "--format" => {
                format = parse_format(&iter.next().ok_or("--format needs a value")?)?;
            }
            "--tv" => tv = true,
            "--bound" => bound = true,
            "--isx" => isx = true,
            "--mem-size" => {
                let value = iter.next().ok_or("--mem-size needs a byte count")?;
                mem_size = Some(value.parse().map_err(|e| format!("--mem-size: {e}"))?);
            }
            "--assume-trips" => {
                let value = iter.next().ok_or("--assume-trips needs a count")?;
                assume_trips = Some(value.parse().map_err(|e| format!("--assume-trips: {e}"))?);
            }
            "--help" | "-h" => {
                return Err(
                    "usage: epic-lint <source.s> [--config <header.cfg>] [--bound] \
                            [--mem-size <bytes>] [--assume-trips <n>] [--format text|json]\n       \
                            epic-lint <source.s> --isx [--config <header.cfg>] \
                            [--format text|json]\n       \
                            epic-lint --tv [--format text|json]\n       \
                            epic-lint --bound [--format text|json]"
                        .to_owned(),
                )
            }
            other => {
                if let Some(value) = other.strip_prefix("--format=") {
                    format = parse_format(value)?;
                } else if !other.starts_with('-') {
                    source = Some(PathBuf::from(other));
                } else {
                    return Err(format!("unknown flag `{other}`"));
                }
            }
        }
    }
    if tv && source.is_some() {
        return Err("--tv takes no source file".to_owned());
    }
    if !tv && !bound && source.is_none() {
        return Err("no source file given (try --help)".to_owned());
    }
    if tv && bound {
        return Err("--tv and --bound are separate modes".to_owned());
    }
    if isx && (tv || bound) {
        return Err("--isx is a separate mode (no --tv / --bound)".to_owned());
    }
    if isx && source.is_none() {
        return Err("--isx needs a source file".to_owned());
    }
    Ok(Args {
        source,
        config,
        format,
        tv,
        bound,
        isx,
        mem_size,
        assume_trips,
    })
}

/// Maps each bundle to the 1-based source lines of its instructions, in
/// slot order, by replaying the assembler's line discipline: `;;` alone
/// ends a bundle, `;` starts a comment, whole-line labels and `.entry`
/// carry no instruction.
fn bundle_lines(source: &str) -> Vec<Vec<usize>> {
    let mut map = Vec::new();
    let mut current = Vec::new();
    for (idx, raw) in source.lines().enumerate() {
        let trimmed = raw.trim();
        if trimmed == ";;" {
            map.push(std::mem::take(&mut current));
            continue;
        }
        let code = match trimmed.find(';') {
            Some(pos) => trimmed[..pos].trim(),
            None => trimmed,
        };
        if code.is_empty() || code.starts_with(".entry") || code.ends_with(':') {
            continue;
        }
        current.push(idx + 1);
    }
    map
}

fn emit(diags: &[epic_asm::Diagnostic], origin: &str, source: Option<&str>, format: Format) {
    match format {
        Format::Text => {
            for diag in diags {
                eprint!("{}", diag.render(origin, source));
            }
            let errors = diags
                .iter()
                .filter(|d| d.severity == epic_asm::Severity::Error)
                .count();
            eprintln!(
                "{origin}: {} error(s), {} warning(s)",
                errors,
                diags.len() - errors
            );
        }
        Format::Json => {
            let body: Vec<String> = diags.iter().map(epic_asm::Diagnostic::to_json).collect();
            println!(
                "{{\"file\":\"{origin}\",\"diagnostics\":[{}]}}",
                body.join(",")
            );
        }
    }
}

fn lint_file(args: &Args) -> Result<ExitCode, String> {
    let config = match &args.config {
        Some(path) => {
            let text =
                std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
            header::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?
        }
        None => Config::default(),
    };
    let path = args.source.as_ref().expect("file mode has a source");
    let source = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let origin = path.display().to_string();

    let program = match epic_asm::assemble(&source, &config) {
        Ok(program) => program,
        Err(err) => {
            // The source does not even assemble: report the assembler's
            // diagnostic through the same channel and fail.
            emit(&[err.to_diagnostic()], &origin, Some(&source), args.format);
            return Ok(ExitCode::FAILURE);
        }
    };

    let mut report = epic_verify::check(&program, &config);
    let mut bound_summary = None;
    if args.bound {
        let entry = program.entry() as usize;
        let lint_options = epic_bound::LintOptions {
            mem_size: args.mem_size,
        };
        for diag in epic_bound::lint_bundles(&config, program.bundles(), entry, &lint_options) {
            report.push(diag);
        }
        let model = epic_bound::CostModel::new(&config);
        let bounds = epic_bound::analyze_cycles(
            &config,
            program.bundles(),
            entry,
            &epic_bound::CountSource::Static,
            &model,
            &epic_bound::BoundOptions {
                assume_trips: args.assume_trips,
            },
        );
        bound_summary = Some(bounds);
    }
    let report = report;
    let lines = bundle_lines(&source);
    let located: Vec<epic_asm::Diagnostic> = report
        .diagnostics()
        .iter()
        .map(|diag| {
            let mut diag = diag.clone();
            if diag.line == 0 {
                if let Some(bundle_map) = diag.bundle.and_then(|b| lines.get(b)) {
                    let line = diag
                        .slot
                        .and_then(|s| bundle_map.get(s))
                        .or_else(|| bundle_map.first());
                    diag.line = line.copied().unwrap_or(0);
                }
            }
            diag
        })
        .collect();

    emit(&located, &origin, Some(&source), args.format);
    if let Some(bounds) = &bound_summary {
        match args.format {
            Format::Text => {
                let upper = bounds
                    .upper
                    .map_or_else(|| "unbounded".to_owned(), |u| u.to_string());
                eprintln!(
                    "{origin}: static cycle bound [{}, {upper}] over all inputs",
                    bounds.lower
                );
                for note in &bounds.notes {
                    eprintln!("{origin}: note: {note}");
                }
            }
            Format::Json => {
                println!("{}", bound_json(&origin, bounds));
            }
        }
    }
    Ok(if report.has_errors() {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    })
}

/// Mines an assembled source file for custom-instruction candidates and
/// prints the ranked result. Static mining: every block is weighted
/// equally (weight 1), so the ranking reflects structure, not a
/// profile. The exit code is nonzero only for analysis errors — an
/// unreadable or unassemblable source — never for an empty candidate
/// list.
fn lint_isx(args: &Args) -> Result<ExitCode, String> {
    let config = match &args.config {
        Some(path) => {
            let text =
                std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
            header::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?
        }
        None => Config::default(),
    };
    let path = args.source.as_ref().expect("isx mode has a source");
    let source = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let origin = path.display().to_string();
    let program = match epic_asm::assemble(&source, &config) {
        Ok(program) => program,
        Err(err) => {
            emit(&[err.to_diagnostic()], &origin, Some(&source), args.format);
            return Ok(ExitCode::FAILURE);
        }
    };
    let weights = std::collections::BTreeMap::new();
    let found = epic_isx::mine(&config, program.bundles(), program.entry(), &weights);
    let ranked = epic_isx::ScoreModel::new(&config).rank(found);
    match args.format {
        Format::Text => {
            eprintln!("{origin}: {} custom-instruction candidate(s)", ranked.len());
            for (i, scored) in ranked.iter().enumerate() {
                eprintln!(
                    "  isx_{i}: {} -- est {} cycle(s) saved, {} slice(s), latency {}, \
                     {} live-in(s), {} site(s)",
                    scored.discovery.tree,
                    scored.est_saved,
                    scored.slices,
                    scored.latency,
                    scored.live_ins,
                    scored.discovery.sites.len(),
                );
            }
        }
        Format::Json => {
            let rows: Vec<String> = ranked
                .iter()
                .enumerate()
                .map(|(i, scored)| {
                    format!(
                        "{{\"name\":\"isx_{i}\",\"tree\":\"{}\",\"est_saved\":{},\
                         \"slices\":{},\"latency\":{},\"live_ins\":{},\"sites\":{}}}",
                        scored.discovery.tree,
                        scored.est_saved,
                        scored.slices,
                        scored.latency,
                        scored.live_ins,
                        scored.discovery.sites.len(),
                    )
                })
                .collect();
            println!(
                "{{\"file\":\"{origin}\",\"candidates\":[{}]}}",
                rows.join(",")
            );
        }
    }
    Ok(ExitCode::SUCCESS)
}

/// Renders a [`epic_bound::CycleBounds`] as one JSON object.
fn bound_json(origin: &str, bounds: &epic_bound::CycleBounds) -> String {
    let upper = bounds
        .upper
        .map_or_else(|| "null".to_owned(), |u| u.to_string());
    let notes: Vec<String> = bounds
        .notes
        .iter()
        .map(|n| format!("\"{}\"", n.replace('\\', "\\\\").replace('"', "\\\"")))
        .collect();
    format!(
        "{{\"file\":\"{origin}\",\"bound_lower\":{},\"bound_upper\":{upper},\"notes\":[{}]}}",
        bounds.lower,
        notes.join(",")
    )
}

/// Compiles every workload across the design-space grid, simulates each
/// point, and checks the measured cycle count against both the static
/// and the measured cycle-interval analyses — the command-line face of
/// the differential oracle.
fn lint_bounds(args: &Args) -> Result<ExitCode, String> {
    let mut failed = 0usize;
    let mut points = 0usize;
    let workloads = epic_workloads::all(epic_workloads::Scale::Test);
    let mut rows = Vec::new();
    for workload in &workloads {
        let module = epic_ir::lower::lower(&workload.program)
            .map_err(|e| format!("{}: lowering failed: {e}", workload.name))?;
        let layout = module
            .layout()
            .map_err(|e| format!("{}: layout failed: {e}", workload.name))?;
        let image = module.initial_memory(&layout);
        for alus in 1..=4usize {
            for width in 1..=4usize {
                let config = Config::builder()
                    .num_alus(alus)
                    .issue_width(width)
                    .build()
                    .map_err(|e| format!("config {alus} ALU / {width} IW: {e}"))?;
                let options = epic_compiler::Options {
                    entry: workload.entry.clone(),
                    inline_hints: workload.inline_hints(),
                    ..epic_compiler::Options::default()
                };
                let compiled = epic_compiler::Compiler::new(config.clone())
                    .compile_with(&module, &options)
                    .map_err(|e| format!("{}: compile failed: {e}", workload.name))?;
                let program = compiled
                    .program()
                    .ok_or_else(|| format!("{}: compiler produced no program", workload.name))?;

                let mut sim = epic_sim::Simulator::try_new(
                    &config,
                    program.bundles().to_vec(),
                    program.entry(),
                )
                .map_err(|e| format!("{}: illegal program: {e}", workload.name))?;
                sim.set_memory(epic_sim::Memory::from_image(image.clone()));
                let mut sink = epic_sim::ProfileSink::default();
                let stats = *sim
                    .run_with_sink(&mut sink)
                    .map_err(|e| format!("{}: simulation failed: {e:?}", workload.name))?;
                let counts: std::collections::BTreeMap<u32, u64> =
                    sink.per_pc().map(|(pc, p)| (pc, p.issues)).collect();

                let entry = program.entry() as usize;
                let model = epic_bound::CostModel::new(&config);
                let bound_options = epic_bound::BoundOptions {
                    assume_trips: args.assume_trips,
                };
                let statics = epic_bound::analyze_cycles(
                    &config,
                    program.bundles(),
                    entry,
                    &epic_bound::CountSource::Static,
                    &model,
                    &bound_options,
                );
                let measured = epic_bound::analyze_cycles(
                    &config,
                    program.bundles(),
                    entry,
                    &epic_bound::CountSource::Measured(&counts),
                    &model,
                    &bound_options,
                );

                points += 1;
                let ok = statics.contains(stats.cycles) && measured.contains(stats.cycles);
                if !ok {
                    failed += 1;
                }
                let origin = format!("{}[alus={alus},iw={width}]", workload.name);
                match args.format {
                    Format::Json => {
                        let upper = statics
                            .upper
                            .map_or_else(|| "null".to_owned(), |u| u.to_string());
                        let measured_upper = measured
                            .upper
                            .map_or_else(|| "null".to_owned(), |u| u.to_string());
                        rows.push(format!(
                            "{{\"workload\":\"{}\",\"alus\":{alus},\"issue_width\":{width},\
                             \"cycles\":{},\"lower\":{},\"upper\":{upper},\
                             \"measured_lower\":{},\"measured_upper\":{measured_upper},\
                             \"contained\":{ok}}}",
                            workload.name, stats.cycles, statics.lower, measured.lower,
                        ));
                    }
                    Format::Text => {
                        if ok {
                            eprintln!(
                                "{origin}: {} cycles inside static [{}, {}] and measured [{}, {}]",
                                stats.cycles,
                                statics.lower,
                                statics
                                    .upper
                                    .map_or_else(|| "inf".to_owned(), |u| u.to_string()),
                                measured.lower,
                                measured
                                    .upper
                                    .map_or_else(|| "inf".to_owned(), |u| u.to_string()),
                            );
                        } else {
                            eprintln!(
                                "{origin}: VIOLATION: {} cycles escapes static [{}, {:?}] \
                                 or measured [{}, {:?}]",
                                stats.cycles,
                                statics.lower,
                                statics.upper,
                                measured.lower,
                                measured.upper,
                            );
                        }
                    }
                }
            }
        }
    }
    match args.format {
        Format::Json => println!("[{}]", rows.join(",\n ")),
        Format::Text => {
            eprintln!("epic-lint --bound: {points} point(s), {failed} containment violation(s)")
        }
    }
    Ok(if failed > 0 {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    })
}

/// Compiles every workload across the design-space grid and validates
/// each pipeline trace.
fn lint_pipeline(args: &Args) -> Result<ExitCode, String> {
    let mut failed = false;
    let workloads = epic_workloads::all(epic_workloads::Scale::Test);
    for workload in &workloads {
        let module = epic_ir::lower::lower(&workload.program)
            .map_err(|e| format!("{}: lowering failed: {e}", workload.name))?;
        for alus in 1..=4usize {
            for width in 1..=4usize {
                let config = Config::builder()
                    .num_alus(alus)
                    .issue_width(width)
                    .build()
                    .map_err(|e| format!("config {alus} ALU / {width} IW: {e}"))?;
                let options = epic_compiler::Options {
                    entry: workload.entry.clone(),
                    inline_hints: workload.inline_hints(),
                    ..epic_compiler::Options::default()
                };
                let compiled = epic_compiler::Compiler::new(config.clone())
                    .compile_with(&module, &options)
                    .map_err(|e| format!("{}: compile failed: {e}", workload.name))?;
                let program = compiled
                    .program()
                    .ok_or_else(|| format!("{}: compiler produced no program", workload.name))?;
                let trace = compiled
                    .trace()
                    .ok_or_else(|| format!("{}: compiler produced no trace", workload.name))?;
                let report = epic_tv::validate_trace(trace, program, &config);
                let origin = format!("{}[alus={alus},iw={width}]", workload.name);
                if args.format == Format::Json || !report.is_clean() {
                    emit(report.diagnostics(), &origin, None, args.format);
                }
                failed |= report.has_errors();
            }
        }
    }
    if !failed && args.format == Format::Text {
        eprintln!(
            "epic-lint --tv: {} workload(s) x 16 configuration(s): no refinement violations",
            workloads.len()
        );
    }
    Ok(if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("{message}");
            return ExitCode::FAILURE;
        }
    };
    let result = if args.tv {
        lint_pipeline(&args)
    } else if args.isx {
        lint_isx(&args)
    } else if args.bound && args.source.is_none() {
        lint_bounds(&args)
    } else {
        lint_file(&args)
    };
    match result {
        Ok(code) => code,
        Err(message) => {
            eprintln!("epic-lint: {message}");
            ExitCode::FAILURE
        }
    }
}
