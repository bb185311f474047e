//! `epic-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload and prints its result as the last line of standard
//! output: a JSON object with `correct`, `attempted`, `failed` and
//! `metrics` (end-to-end metrics with `--trace 0`, per-layer metrics with
//! `--trace 1`). Progress and a readable table go to standard error; the
//! traced run also writes its spans to `perfbench/traces/`.

use epic_perfbench::report::Report;
use epic_perfbench::trace::Tracer;
use epic_perfbench::{dse, mesh, pipeline::Failure, RunArgs};
use std::path::PathBuf;
use std::process::ExitCode;

const WORKLOADS: [&str; 2] = ["dse_sweep", "mesh_array"];

struct Cli {
    workload: String,
    args: RunArgs,
    trace: bool,
}

fn parse() -> Result<Cli, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| bad(&e))?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|e| bad(&e))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err(bad(&"must be a positive number"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"must be 0 or 1")),
                });
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload}; one of {}",
            WORKLOADS.join(", ")
        ));
    }
    Ok(Cli {
        workload,
        args: RunArgs {
            seed: seed.unwrap_or(1),
            seconds: seconds.unwrap_or(50.0),
        },
        trace: trace.unwrap_or(false),
    })
}

fn run(cli: &Cli) -> Result<Report, Failure> {
    let args = &cli.args;
    if !cli.trace {
        return match cli.workload.as_str() {
            "dse_sweep" => dse::run(args),
            _ => mesh::run(args),
        };
    }
    let mut tracer = Tracer::default();
    let report = match cli.workload.as_str() {
        "dse_sweep" => dse::run_traced(args, &mut tracer),
        _ => mesh::run_traced(args, &mut tracer),
    }?;
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("traces");
    let path = dir.join(format!("{}-seed{}.json", cli.workload, args.seed));
    match std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, tracer.chrome_json())) {
        Ok(()) => eprintln!(
            "perfbench: {} spans written to {}",
            tracer.spans().len(),
            path.display()
        ),
        Err(e) => eprintln!("perfbench: could not write {}: {e}", path.display()),
    }
    Ok(report)
}

fn main() -> ExitCode {
    let cli = match parse() {
        Ok(cli) => cli,
        Err(e) => {
            eprintln!("epic-perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    eprintln!(
        "perfbench: {} seed {} for {} s, trace {}, {} host CPUs",
        cli.workload,
        cli.args.seed,
        cli.args.seconds,
        u8::from(cli.trace),
        std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get),
    );
    match run(&cli) {
        Ok(report) => {
            eprint!("{}", report.table());
            println!("{}", report.to_json());
            ExitCode::SUCCESS
        }
        Err(f) => {
            eprintln!(
                "epic-perfbench: set-up failed in {}: {}",
                f.layer, f.message
            );
            ExitCode::FAILURE
        }
    }
}
