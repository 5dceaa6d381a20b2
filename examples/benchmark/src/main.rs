//! The repository benchmark. See `README.md` beside this package for the
//! workloads, the metrics and how to read the output.
//!
//! ```text
//! benchmark --workload <name> [--seed N] [--seconds S] [--trace 0|1]
//!           [--smoke] [--out FILE] [--trace-out FILE]
//! benchmark --smoke                      all four workloads at toy size
//! benchmark --compare A.jsonl B.jsonl    two sets of --out records
//! ```

mod alloc;
mod compare;
mod micro;
mod report;
mod serve;
mod solo;
mod spec;
mod trace;
mod validity;

use report::Outcome;
use spec::{Shape, Workload};
use std::io::Write as _;
use std::process::ExitCode;

#[global_allocator]
static ALLOCATOR: alloc::CountingAllocator = alloc::CountingAllocator;

const DEFAULT_SEED: u64 = 7;
/// `run_seconds` in `BENCHMARK.json`.
const DEFAULT_SECONDS: f64 = 18.0;

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    out: Option<String>,
    trace_out: Option<String>,
    compare: Option<(String, String)>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
        smoke: false,
        out: None,
        trace_out: None,
        compare: None,
    };
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        let mut value = || argv.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value()?),
            "--seed" => {
                args.seed = value()?
                    .parse()
                    .map_err(|_| "--seed takes a whole number")?
            }
            "--seconds" => {
                args.seconds = value()?
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or("--seconds takes a positive number")?
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            "--smoke" => args.smoke = true,
            "--out" => args.out = Some(value()?),
            "--trace-out" => args.trace_out = Some(value()?),
            "--compare" => args.compare = Some((value()?, value()?)),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(args)
}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Runs one pass over one workload and prints it; returns whether it was
/// correct.
fn run(workload: &Workload, args: &Args) -> Result<bool, String> {
    println!(
        "workload {} seed {} trace {} nproc {}{}",
        workload.name,
        args.seed,
        args.trace as u8,
        nproc(),
        if args.smoke {
            " SMOKE (not a measurement)"
        } else {
            ""
        }
    );
    // A smoke pass measures one round, whatever --seconds says.
    let seconds = if args.smoke { 0.0 } else { args.seconds };
    let tracer = trace::Tracer::new();
    let out = match (workload.shape, args.trace) {
        (Shape::Solo { problems, repeats }, false) => {
            solo::untraced(&workload.recon, problems, repeats, args.seed, seconds)
        }
        (Shape::Serve(shape), false) => {
            serve::untraced(&workload.recon, &shape, args.seed, seconds)
        }
        (Shape::Solo { .. }, true) => {
            let mut out = Outcome::default();
            solo::traced(&workload.recon, args.seed, &tracer, &mut out);
            out.zero_layer("mlr-runtime.");
            out
        }
        (Shape::Serve(shape), true) => {
            let mut out = Outcome::default();
            serve::traced(&workload.recon, &shape, args.seed, &tracer, &mut out);
            out
        }
    };
    if args.trace {
        let path = match &args.trace_out {
            Some(path) => std::path::PathBuf::from(path),
            // Beside the executable: inside the build directory, wherever
            // that is, and never in the source tree.
            None => std::env::current_exe()
                .map_err(|e| format!("no path for the trace: {e}"))?
                .with_file_name(format!("trace-{}.json", workload.name)),
        };
        std::fs::write(&path, tracer.chrome_trace())
            .map_err(|e| format!("{}: {e}", path.display()))?;
        println!("chrome trace written to {}", path.display());
    }

    out.print_table(args.trace);
    let result = out.result_json(args.trace, args.smoke);
    if let Some(path) = &args.out {
        let mut file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .map_err(|e| format!("{path}: {e}"))?;
        writeln!(
            file,
            "{{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"smoke\": {}, \"nproc\": {}, \"wall_s\": {}, \"result\": {result}}}",
            workload.name,
            args.seed,
            args.seconds,
            args.trace as u8,
            args.smoke,
            nproc(),
            out.wall_s_json(),
        )
        .map_err(|e| format!("{path}: {e}"))?;
    }
    // The result object is the last line of standard output.
    println!("{result}");
    Ok(out.correct())
}

fn main() -> ExitCode {
    let outcome = parse_args().and_then(|args| {
        if let Some((a, b)) = &args.compare {
            return compare::compare(a, b);
        }
        let table = spec::workloads(args.smoke);
        match &args.workload {
            Some(name) => {
                let workload = table
                    .iter()
                    .find(|w| w.name == name)
                    .ok_or_else(|| format!("unknown workload {name}"))?;
                run(workload, &args)
            }
            None if args.smoke => {
                let mut all = true;
                for workload in table {
                    all &= run(workload, &args)?;
                }
                Ok(all)
            }
            None => Err(
                "--workload is required (one of hit-32, strict-48, smallchunk-24, serve-24x12)"
                    .into(),
            ),
        }
    });
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(message) => {
            eprintln!("benchmark: {message}");
            ExitCode::from(2)
        }
    }
}
