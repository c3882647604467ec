//! `perfbench` — the repository benchmark.
//!
//! ```text
//! perfbench --workload <ingest|discover|serve|restart> --seed <n> --seconds <s> --trace <0|1>
//!           [--commit <id>] [--rustc <version>] [--source <digest>]
//! ```
//!
//! Drives the reproduction only through the public API of `r2d2-lake`,
//! `r2d2-core`, `r2d2-opt` and `r2d2-serve`, on inputs generated by
//! `r2d2-synth` from `--seed`. Every workload checks the program's outputs
//! outside its timed regions; a failed check exits non-zero.
//!
//! Standard output carries one `{"environment": ...}` line and then, as the
//! last line, the result object: `correct`, `attempted`, `failed` and
//! `metrics` (end-to-end metrics with `--trace 0`, per-layer metrics with
//! `--trace 1`). Human-readable progress goes to standard error. Inputs are
//! cached per seed under `.bench_cache/`, scratch state lives in
//! `.bench_work/` (emptied on exit) and traces are written to `.bench_out/`.

mod discover;
mod env;
mod ingest;
mod inputs;
mod metrics;
mod report;
mod restart;
mod serve;
mod stream;
mod trace;

use metrics::Outcome;
use std::path::PathBuf;
use std::process::ExitCode;

/// Command-line arguments.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub commit: String,
    pub rustc: String,
    /// Digest of the benchmarked sources; keys the exact-repeat records.
    pub source: String,
}

/// Where the benchmark keeps its files, all relative to the checkout root.
#[derive(Debug, Clone)]
pub struct Dirs {
    /// Generated inputs, reused across runs with the same seed.
    pub cache: PathBuf,
    /// Scratch persistence directories of this run.
    pub work: PathBuf,
    /// Spans and counter records written at the end of a run.
    pub out: PathBuf,
}

const USAGE: &str = "usage: perfbench --workload <ingest|discover|serve|restart> --seed <n> --seconds <s> --trace <0|1> [--commit <id>] [--rustc <version>] [--source <digest>]";

/// Where a traced run writes its spans.
pub fn trace_path(args: &Args) -> PathBuf {
    PathBuf::from(".bench_out").join(format!("trace-{}-seed{}.json", args.workload, args.seed))
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: 0.0,
        trace: false,
        commit: "unknown".into(),
        rustc: "unknown".into(),
        source: "unknown".into(),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|_| format!("bad --seed {value}"))?,
            "--seconds" => {
                args.seconds = value
                    .parse()
                    .map_err(|_| format!("bad --seconds {value}"))?
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace {value}")),
                }
            }
            "--commit" => args.commit = value,
            "--rustc" => args.rustc = value,
            "--source" => args.source = value,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !matches!(
        args.workload.as_str(),
        "ingest" | "discover" | "serve" | "restart"
    ) {
        return Err(format!("unknown workload {:?}", args.workload));
    }
    if args.seconds.is_nan() || args.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let dirs = Dirs {
        cache: PathBuf::from(".bench_cache"),
        work: PathBuf::from(".bench_work").join(format!(
            "{}-{}-{}",
            args.workload,
            args.seed,
            std::process::id()
        )),
        out: PathBuf::from(".bench_out"),
    };
    for d in [&dirs.cache, &dirs.work, &dirs.out] {
        if let Err(e) = std::fs::create_dir_all(d) {
            eprintln!("cannot create {}: {e}", d.display());
            return ExitCode::from(2);
        }
    }
    let mut env = env::Environment::new(&args);
    let result = match args.workload.as_str() {
        "ingest" => ingest::run(&args, &dirs, &mut env),
        "discover" => discover::run(&args, &dirs, &mut env),
        "serve" => serve::run(&args, &dirs, &mut env),
        "restart" => restart::run(&args, &dirs, &mut env),
        _ => unreachable!("validated in parse_args"),
    };
    let _ = std::fs::remove_dir_all(&dirs.work);
    match result {
        Ok(outcome) => {
            println!("{}", env.to_json());
            eprint!("{}", outcome.render());
            println!("{}", outcome.to_json());
            ExitCode::SUCCESS
        }
        Err(failure) => {
            println!("{}", env.to_json());
            eprintln!("perfbench {}: FAILED: {}", args.workload, failure.message);
            println!("{}", Outcome::failed().to_json());
            ExitCode::from(1)
        }
    }
}
