//! `perfbench`: the end-to-end and per-layer benchmark of the proof
//! pipeline (`tp-hw` → `tp-kernel` → `tp-core` monitor → engine on the
//! `tp-sched` pool → proof cache and journal → `tp-serve`).
//!
//! ```sh
//! bash perfbench/run.sh --workload sweep-cold --seed 1 --seconds 20 --trace 0
//! ```
//!
//! Four workloads (see `README.md` beside this crate for why each
//! exists and which layer each metric should move):
//!
//! * `sweep-cold` — the 21-cell scenario matrix proved uncached, in
//!   process, on a 2-thread pool;
//! * `exhaustive` — every Hi program up to length 5 (9,331 programs);
//! * `store` — the real `matrix` binary: warm cache, partial cache,
//!   resume from a torn journal;
//! * `serve` — the real `tp-serve` daemon driven by two closed-loop
//!   clients.
//!
//! With `--trace 0` a run reports the end-to-end metrics; with
//! `--trace 1` it reports the per-layer metrics, timed by calling each
//! layer's public functions from this crate. Every timed output is
//! checked; the last stdout line is the JSON result.

mod exh;
mod metrics;
mod plan;
mod report;
mod serve;
mod stats;
mod store;
mod sweep;
mod sys;

use std::path::PathBuf;
use std::time::Duration;

/// Worker threads of every proof pool the benchmark drives (in process
/// or in the programs it starts), sized for a 2-CPU host.
pub const THREADS: usize = 2;

/// How many times a run performs its set-up; `setup_s` is the median.
pub const SETUP_REPEATS: usize = 5;

/// Parsed command line.
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Input seed: `store` and `serve` derive their inputs from it.
    pub seed: u64,
    /// Measurement time.
    pub seconds: Duration,
    /// Report per-layer metrics instead of end-to-end ones.
    pub trace: bool,
    /// Repository root (where the scratch directory goes).
    pub root: PathBuf,
    /// Directory holding the `matrix` and `tp-serve` binaries.
    pub bin_dir: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut root = None;
    let mut bin_dir = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad --seed {value:?}"))?),
            "--seconds" => {
                let s: f64 = value
                    .parse()
                    .map_err(|_| format!("bad --seconds {value:?}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds {s} out of range"));
                }
                seconds = Some(Duration::from_secs_f64(s));
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace {value:?} (0 or 1)")),
                })
            }
            "--root" => root = Some(PathBuf::from(value)),
            "--bin-dir" => bin_dir = Some(PathBuf::from(value)),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
        root: root.ok_or("--root is required")?,
        bin_dir: bin_dir.ok_or("--bin-dir is required")?,
    })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload NAME --seed N --seconds S --trace 0|1 \
                 --root DIR --bin-dir DIR"
            );
            std::process::exit(2);
        }
    };
    let result = match args.workload.as_str() {
        "sweep-cold" => sweep::run(&args),
        "exhaustive" => exh::run(&args),
        "store" => store::run(&args),
        "serve" => serve::run(&args),
        other => Err(format!(
            "unknown workload {other:?} (sweep-cold, exhaustive, store, serve)"
        )),
    };
    match result {
        Ok(report) => {
            for line in report.summary(&args.workload, args.trace) {
                println!("{line}");
            }
            println!("{}", report.to_json(args.trace));
        }
        Err(e) => {
            eprintln!("perfbench: {}: {e}", args.workload);
            std::process::exit(1);
        }
    }
}
