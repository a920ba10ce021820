//! The omnibus scenario-matrix run: every machine variant × every
//! protection setting × every time model, flattened into one submission
//! on the persistent worker pool — with scale-out modes for sharding a
//! sweep across processes or hosts.
//!
//! ```sh
//! # single process, whole sweep (per-cell progress streams to stderr)
//! matrix [--threads N] [--cells SPEC] [--models N]
//!
//! # audit mode: paranoid double-run per (model, secret); the report
//! # is bit-identical to the certified single-run default
//! matrix --replay-check
//!
//! # shard across two processes, then merge — byte-identical output
//! matrix --worker --cells 0..11  > a.txt
//! matrix --worker --cells 11..21 > b.txt
//! matrix --merge a.txt b.txt
//!
//! # incremental and crash-safe: every freshly proved cell is appended
//! # to the proof log as it completes; later runs (or a run after a
//! # kill) re-prove only cells whose inputs changed or whose record was
//! # lost — stdout stays byte-identical (`--resume` is an alias)
//! matrix --cache proofs.cache
//!
//! # observability: counter summary, span trace + manifest, heartbeat
//! matrix --metrics --trace-out trace.jsonl --progress
//! ```

use std::io::IsTerminal;
use std::time::Instant;

use tp_bench::cli::SweepArgs;

fn main() {
    let args = match SweepArgs::parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("matrix: {e}");
            eprintln!(
                "usage: matrix [--threads N] [--cells SPEC] [--models N] [--replay-check] \
                 [--cache PATH] [--metrics] \
                 [--trace-out FILE] [--progress] [--worker | --merge FILE...]"
            );
            std::process::exit(2);
        }
    };
    if let Some(n) = args.threads {
        tp_sched::configure_global_threads(n);
    }
    tp_bench::install_sink(args.metrics, args.trace_out.is_some());

    // Merge mode touches no scenario — it only reassembles records.
    if !args.merge.is_empty() {
        let shards: Vec<String> = args
            .merge
            .iter()
            .map(|path| {
                std::fs::read_to_string(path).unwrap_or_else(|e| {
                    eprintln!("matrix: cannot read {path}: {e}");
                    std::process::exit(2);
                })
            })
            .collect();
        match tp_bench::merge_matrix_records(&shards) {
            Ok(report) => print!("{report}"),
            Err(e) => {
                eprintln!("matrix: merge failed: {e}");
                std::process::exit(1);
            }
        }
        return;
    }

    let matrix = tp_bench::shaped_matrix(args.models).with_mode(args.mode());
    let indices = match args.select_cells(matrix.cells().len()) {
        Ok(v) => v,
        Err(e) => {
            eprintln!("matrix: {e}");
            std::process::exit(2);
        }
    };

    // An explicit `--progress` always heartbeats — a daemonised or CI
    // run redirecting stderr asked for its log lines and gets them.
    // Only the *default-on* convenience (no flag) is gated on stderr
    // being a terminal, so plain redirected runs stay quiet.
    let heartbeat = args.progress || std::io::stderr().is_terminal();
    let t0 = Instant::now();
    let progress = move |done: usize, total: usize, line: &str| {
        eprintln!("{line}");
        if heartbeat {
            eprintln!("{}", tp_bench::eta_line(done, total, t0.elapsed()));
        }
    };

    let proved = match &args.cache {
        None => tp_bench::run_matrix_cells(&matrix, &indices, None, progress).0,
        Some(path) => run_cached(&matrix, &indices, path, progress),
    };

    tp_bench::finish_telemetry(args.metrics, args.trace_out.as_deref(), indices.len());

    emit_output(&args, proved);
}

/// The `--cache` path: open the proof store, run against it — the
/// cache appends every freshly proved cell to its log as one fsynced
/// record the moment it completes. Prints the `cache:` and `journal:`
/// stats lines to stderr — the byte-identity contract keeps stdout for
/// the report/records alone.
fn run_cached(
    matrix: &tp_core::ScenarioMatrix,
    indices: &[usize],
    path: &str,
    progress: impl FnMut(usize, usize, &str),
) -> Vec<(usize, tp_core::MatrixCell, tp_core::ProofReport)> {
    let (mut cache, loaded) = tp_bench::open_store("matrix", std::path::Path::new(path));
    let (proved, stats) = tp_bench::run_matrix_cells(matrix, indices, Some(&mut cache), progress);
    if let Some(e) = cache.take_log_error() {
        eprintln!(
            "matrix: cache append failed: {e} \
             (sweep completed; the next run re-proves the unrecorded cells)"
        );
    }
    eprintln!("{}", tp_bench::cache_summary(&stats, cache.len()));
    eprintln!(
        "journal: {} replayed, {} torn-dropped, {} re-proved",
        stats.hits,
        loaded.torn_dropped,
        stats.reproved()
    );
    tp_telemetry::count_n(
        tp_telemetry::Counter::JournalRecordsReplayed,
        stats.hits as u64,
    );
    tp_telemetry::count_n(
        tp_telemetry::Counter::ResumeCellsReproved,
        stats.reproved() as u64,
    );
    proved
}

/// Print the run's stdout: wire records in `--worker` mode, the
/// rendered report otherwise.
fn emit_output(args: &SweepArgs, proved: Vec<(usize, tp_core::MatrixCell, tp_core::ProofReport)>) {
    if args.worker {
        // Wire records only on stdout: shard outputs concatenate.
        let mut out = String::new();
        for (i, cell, report) in &proved {
            tp_core::wire::write_cell(&mut out, *i, cell, report);
        }
        print!("{out}");
    } else {
        print!(
            "{}",
            tp_bench::render_matrix_report(&tp_core::MatrixReport {
                cells: proved.into_iter().map(|(_, c, r)| (c, r)).collect(),
            })
        );
    }
}
