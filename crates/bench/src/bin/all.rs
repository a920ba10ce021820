//! Regenerate every experiment report (the full EXPERIMENTS.md body),
//! then run the whole proof surface once more as a scenario matrix.
//! Every parallel phase shares the one persistent worker pool.
//!
//! ```sh
//! all [--threads N] [--cells SPEC] [--models N] [--replay-check]
//!     [--metrics] [--trace-out FILE]
//! ```
//!
//! `--cells` / `--models` / `--replay-check` shape the final matrix
//! phase (the E1–E14 reports are fixed-size); `--threads` sizes the
//! pool for everything. `--metrics` / `--trace-out` observe the whole
//! run — report phases included — since the sink is process-global.

use tp_bench::cli::SweepArgs;

fn main() {
    let args = match SweepArgs::parse(std::env::args().skip(1)) {
        Ok(a) if !a.worker && a.merge.is_empty() => a,
        Ok(_) => {
            eprintln!("all: --worker/--merge are matrix-only modes (use bin/matrix)");
            std::process::exit(2);
        }
        Err(e) => {
            eprintln!("all: {e}");
            eprintln!(
                "usage: all [--threads N] [--cells SPEC] [--models N] [--replay-check] \
                 [--metrics] [--trace-out FILE]"
            );
            std::process::exit(2);
        }
    };
    if let Some(n) = args.threads {
        tp_sched::configure_global_threads(n);
    }
    tp_bench::install_sink(args.metrics, args.trace_out.is_some());

    // Validate the matrix selection up front: a bad --cells index must
    // fail in milliseconds, not after the full E1–E14 report phase.
    let matrix = tp_bench::shaped_matrix(args.models).with_mode(args.mode());
    let indices = match args.select_cells(matrix.cells().len()) {
        Ok(v) => v,
        Err(e) => {
            eprintln!("all: {e}");
            std::process::exit(2);
        }
    };

    println!("=== aISA conformance ===");
    print!("{}", tp_bench::report_aisa());
    for (i, r) in [
        tp_bench::report_e1(),
        tp_bench::report_e2(&(0..16).map(|k| (k * 4 + 1) % 64).collect::<Vec<_>>()),
        tp_bench::report_e3(&(0..8).collect::<Vec<_>>()),
        tp_bench::report_e4(),
        tp_bench::report_e5(),
        tp_bench::report_e6(8),
        tp_bench::report_e7(),
        tp_bench::report_e8(50),
        tp_bench::report_e9(),
        tp_bench::report_e10(),
        tp_bench::report_e11(),
        tp_bench::report_e12(4),
        tp_bench::report_e13(&[3, 20, 47]),
        tp_bench::report_e14(3),
    ]
    .iter()
    .enumerate()
    {
        println!("\n=== E{} ===", i + 1);
        print!("{r}");
    }

    println!("\n=== Scenario matrix (the suite as one engine run) ===");
    let (proved, _) =
        tp_bench::run_matrix_cells(&matrix, &indices, None, |_, _, line| eprintln!("{line}"));
    print!(
        "{}",
        tp_bench::render_matrix_report(&tp_core::MatrixReport {
            cells: proved.into_iter().map(|(_, c, r)| (c, r)).collect(),
        })
    );
    tp_bench::finish_telemetry(args.metrics, args.trace_out.as_deref(), indices.len());
}
