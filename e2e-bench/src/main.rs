//! `irlt-e2e-bench` — one seeded benchmark from `.nest` text in to a
//! legal, verified transformation and C text out.
//!
//! ```text
//! irlt-e2e-bench --workload NAME --seed N --seconds S --trace 0|1
//! ```
//!
//! Workloads (see `BENCHMARK.json` for why each was chosen):
//!
//! * `batch-deep` — parse → `run_batch` (analysis + beam search) →
//!   `TransformSeq::apply` → `emit_c` over 63 parallelism jobs;
//! * `batch-locality` — the same pipeline over 9 cache-simulated
//!   locality jobs;
//! * `serve-open` — an open-loop client of a live `irlt-serve` server
//!   process over a Unix socket, at three fixed rates.
//!
//! `--trace 0` measures the end-to-end metrics with tracing off.
//! `--trace 1` repeats the workload with the benchmark's own spans and
//! the crates' telemetry on, replays every layer call of the searches
//! on the workload's inputs, checks that the replayed calls explain the
//! search time, and prints the per-layer metrics. Every output is checked by
//! the referee (`referee.rs`) outside the timed region; the last line
//! of stdout is one JSON object with `correct`, `attempted`, `failed`
//! and `metrics`. A failed check exits with code 1.

mod batch;
mod gen;
mod metrics;
mod referee;
mod replay;
mod serve;
mod stats;
mod trace;

use metrics::Metrics;
use std::process::ExitCode;
use std::time::Duration;

/// Parsed command line.
struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

/// What a workload run hands back to `main`.
pub struct Outcome {
    /// Requests or jobs attempted in the measured region.
    pub attempted: u64,
    /// Attempted items that failed, were refused, timed out, or were
    /// rejected by the referee.
    pub failed: u64,
    /// Referee and validity verdicts; empty when everything held.
    pub problems: Vec<String>,
    /// The metrics to print.
    pub metrics: Metrics,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?.clone()),
            "--seed" => seed = Some(value()?.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => seconds = Some(value()?.parse().map_err(|e| format!("--seconds: {e}"))?),
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace: expected 0 or 1, got {other}")),
                })
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    let args = Args {
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
        trace: trace.ok_or("missing --trace")?,
    };
    if !(1..=60).contains(&args.seconds) {
        return Err(format!("--seconds: {} is outside 1..=60", args.seconds));
    }
    Ok(args)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    // The serve workload re-executes this binary as its server process.
    if argv.first().map(String::as_str) == Some(serve::CHILD_FLAG) {
        return serve::child_main(&argv[1..]);
    }
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(why) => {
            eprintln!("irlt-e2e-bench: {why}");
            return ExitCode::from(2);
        }
    };
    let budget = Duration::from_secs(args.seconds);
    let run = match args.workload.as_str() {
        "batch-deep" | "batch-locality" => {
            batch::run(&args.workload, args.seed, budget, args.trace)
        }
        "serve-open" => serve::run(args.seed, budget, args.trace),
        other => Err(format!("unknown workload `{other}`")),
    };
    let outcome = match run {
        Ok(o) => o,
        Err(why) => {
            eprintln!("irlt-e2e-bench: {}: {why}", args.workload);
            return ExitCode::from(1);
        }
    };
    for p in &outcome.problems {
        eprintln!("referee: {p}");
    }
    let correct = outcome.problems.is_empty() && outcome.failed == 0;
    let line = outcome
        .metrics
        .result_line(args.trace, correct, outcome.attempted, outcome.failed);
    match line {
        Ok(line) => println!("{line}"),
        Err(why) => {
            eprintln!("irlt-e2e-bench: {why}");
            return ExitCode::from(1);
        }
    }
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
