//! The Para-CONV benchmark: one command, three workloads.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload cold-plan|serve-mix|table1-sweep --seed N --seconds S --trace 0|1
//! ```
//!
//! With `--trace 0` it prints the end-to-end metrics, with `--trace 1`
//! the per-layer ones; either way the last line of standard output is
//! one JSON object `{"correct", "attempted", "failed", "metrics"}`. Any
//! failed output check exits non-zero with no result line. See
//! `perfbench/README.md` for the workloads and the metrics.

mod checks;
mod client;
mod cold_plan;
mod gen;
mod layers;
mod report;
mod serve_mix;
mod stats;
mod table1_sweep;
mod trace;

use std::path::PathBuf;
use std::process::ExitCode;

use checks::Inject;
use report::{Opts, Report};

const USAGE: &str = "usage: paraconv-perfbench --workload cold-plan|serve-mix|table1-sweep \
                     --seed N --seconds S --trace 0|1 [--inject flip-artifact|wrong-key|doctor-pin]";

const WORKLOADS: [&str; 3] = ["cold-plan", "serve-mix", "table1-sweep"];

#[derive(Debug)]
struct Args {
    workload: String,
    trace: bool,
    opts: Opts,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut inject = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                if !WORKLOADS.contains(&name.as_str()) {
                    return Err(format!("unknown workload `{name}`"));
                }
                workload = Some(name);
            }
            "--seed" => {
                seed = Some(
                    value()?
                        .parse::<u64>()
                        .map_err(|e| format!("--seed: {e}"))?,
                )
            }
            "--seconds" => {
                let s = value()?
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, not `{other}`")),
                }
            }
            "--inject" => inject = Some(Inject::parse(&value()?)?),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    let jobs = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        trace,
        opts: Opts {
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
            inject,
            work: PathBuf::from(".perfbench-work").join(std::process::id().to_string()),
            jobs,
        },
    })
}

fn run(args: &Args) -> Result<Report, String> {
    match (args.workload.as_str(), args.trace) {
        (workload, true) => trace::trace(&args.opts, workload),
        ("cold-plan", false) => cold_plan::run(&args.opts),
        ("serve-mix", false) => serve_mix::run(&args.opts),
        (_, false) => table1_sweep::run(&args.opts),
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    eprintln!(
        "perfbench: workload {} seed {} seconds {} trace {} on {} cores",
        args.workload,
        args.opts.seed,
        args.opts.seconds,
        u8::from(args.trace),
        args.opts.jobs
    );
    let result = run(&args);
    let _ = std::fs::remove_dir_all(&args.opts.work);
    if let Some(parent) = args.opts.work.parent() {
        // `remove_dir` leaves the work root when another run still uses it.
        let _ = std::fs::remove_dir(parent);
    }
    match result.and_then(|r| validate(&r).map(|()| r)) {
        Ok(report) => {
            for m in &report.metrics {
                eprintln!("  {:<28} {:>16.6} {}", m.name, m.value, m.unit);
            }
            println!("{}", report.to_json());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: FAILED: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Every value is a finite number, and every name is reported once.
fn validate(report: &Report) -> Result<(), String> {
    let mut seen = std::collections::HashSet::new();
    for m in &report.metrics {
        if !m.value.is_finite() {
            return Err(format!("metric {} is not finite", m.name));
        }
        if !seen.insert(m.name) {
            return Err(format!("metric {} reported twice", m.name));
        }
    }
    if report.attempted == 0 {
        return Err("nothing was attempted".into());
    }
    Ok(())
}
