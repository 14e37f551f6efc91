//! The swip-fe benchmark: paper-sweep, trace-replay and serve-plans.
//!
//! ```text
//! swipbench --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! With `--trace 0` a run sets up, measures whole rounds of operations for
//! `S` seconds, checks every output and prints the end-to-end metrics.
//! With `--trace 1` it drives each layer itself and prints the per-layer
//! metrics. The last line of standard output is one JSON object with
//! `correct`, `attempted`, `failed` and `metrics`. See README.md.

mod checks;
mod inputs;
mod layers;
mod paper_sweep;
mod serve_plans;
mod trace_replay;
mod traced;
mod util;

use std::path::PathBuf;
use std::process::ExitCode;

use layers::Layers;
use util::{Checks, Metric};

/// What one run found.
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub checks: Checks,
    pub metrics: Vec<Metric>,
}

impl Outcome {
    /// A traced run: its operations are the traced cells, each counted
    /// once by the differential check.
    fn traced(checks: Checks, layers: Layers) -> Outcome {
        let attempted = checks.evaluations("traced_loop_differential");
        Outcome {
            correct: checks.only_failed_in(&[]),
            attempted,
            failed: checks.failures("traced_loop_differential"),
            checks,
            metrics: layers.metrics(),
        }
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut out = Args {
        workload: String::new(),
        seed: inputs::DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |_| format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => out.workload = value.clone(),
            "--seed" => out.seed = value.parse().map_err(bad)?,
            "--seconds" => {
                out.seconds = value
                    .parse()
                    .map_err(|_| format!("bad --seconds {value:?}"))?;
            }
            "--trace" => {
                out.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                }
            }
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    if out.seconds.is_nan() || out.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(out)
}

/// `serve-child ARGS...`: runs `swip ARGS...` in this process; serve-plans
/// starts the server this way, as a process of its own.
fn serve_child(args: &[String]) -> ExitCode {
    let refs: Vec<&str> = args.iter().map(String::as_str).collect();
    let outcome = swip_cli::parse(&refs)
        .map_err(|e| e.to_string())
        .and_then(|cmd| swip_cli::execute(cmd).map_err(|e| e.to_string()));
    match outcome {
        Ok(code) => ExitCode::from(code),
        Err(e) => {
            eprintln!("swip: {e}");
            ExitCode::FAILURE
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("serve-child") {
        return serve_child(&args[1..]);
    }
    let args = match parse_args(&args) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("swipbench: {e}");
            return ExitCode::from(2);
        }
    };
    let work = PathBuf::from(".bench_work").join(format!("run-{}", std::process::id()));
    let (seed, seconds) = (args.seed, args.seconds);
    let outcome = match (args.workload.as_str(), args.trace) {
        ("paper-sweep", false) => Ok(paper_sweep::run(seed, seconds)),
        ("paper-sweep", true) => Ok(paper_sweep::run_traced(seed)),
        ("trace-replay", false) => Ok(trace_replay::run(&work, seed, seconds)),
        ("trace-replay", true) => Ok(trace_replay::run_traced(&work, seed)),
        ("serve-plans", false) => serve_plans::run(seed, seconds),
        ("serve-plans", true) => serve_plans::run_traced(seed),
        (other, _) => Err(format!(
            "unknown workload {other:?} (paper-sweep, trace-replay or serve-plans)"
        )),
    };
    let _ = std::fs::remove_dir_all(&work);
    let _ = std::fs::remove_dir(".bench_work");
    match outcome {
        Ok(o) => {
            print!("{}", o.checks.summary());
            println!(
                "{}",
                util::result_line(o.correct, o.attempted, o.failed, &o.metrics)
            );
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("swipbench: {e}");
            ExitCode::FAILURE
        }
    }
}
