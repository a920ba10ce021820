//! `sweep-cold`: the 21-cell scenario matrix (`tp_bench::shaped_matrix`,
//! every default time model) proved uncached with
//! `tp_bench::canonical_scenario`, back to back on a 2-thread pool — what
//! `matrix` does, in process.
//!
//! Op: one sweep, submit to rendered report. Work: cells proved. First
//! result: submit to the first streamed cell. Every rendered report must
//! equal the set-up reference byte for byte, and the set-up reference
//! must prove full protection on every machine and leak under every
//! ablation.
//!
//! The traced run times, per (cell, model, secret), the calls the
//! engine's tasks make — `System::from_parts`, `lo_digest_len`,
//! `run_monitored`, `certify_transparency`, `lockstep_divergence` — and
//! sets their sum against the untraced sweep's wall time.

use std::time::{Duration, Instant};

use tp_core::engine::ScenarioMatrix;
use tp_core::noninterference::{
    certify_transparency, lo_digest_len, lockstep_divergence, run_monitored,
};
use tp_core::MatrixReport;
use tp_kernel::kernel::System;
use tp_sched::WorkerPool;
use tp_telemetry::{Counter, SpanKind, TelemetrySink};

use crate::report::Report;
use crate::stats::{median, ms, quantile, repeat_for, timed, us};
use crate::sys::with_peak_rss;
use crate::{Args, SETUP_REPEATS, THREADS};

/// Cells in the canonical matrix.
const CELLS: usize = 21;
/// `op_ms_tail` percentile: the highest with ten samples beyond it at
/// the 80-110 sweeps a 20 s run makes on a 2-CPU host.
const TAIL: f64 = 0.80;

struct Setup {
    pool: WorkerPool,
    matrix: ScenarioMatrix,
    all: Vec<usize>,
    reference: String,
    reference_report: MatrixReport,
    /// Whether the reference proves full protection and every ablation
    /// leaks.
    sound: bool,
}

/// Timings of one sweep.
struct Timing {
    wall: Duration,
    /// Peak RSS of the process during the sweep (MiB); filled in by
    /// [`sweeps`].
    peak_rss_mb: f64,
    /// `run_subset_streamed` alone, without rendering.
    engine: Duration,
    render: Duration,
    first: Duration,
    /// Time between consecutive streamed cells (the first from submit).
    gaps: Vec<Duration>,
}

/// One sweep, rendered exactly as `matrix` prints it.
fn sweep(
    pool: &WorkerPool,
    matrix: &ScenarioMatrix,
    all: &[usize],
) -> (Timing, MatrixReport, String) {
    let t0 = Instant::now();
    let mut marks = Vec::with_capacity(all.len());
    let proved = matrix.run_subset_streamed(
        pool,
        all,
        |cell| tp_bench::canonical_scenario(cell.disable),
        |_, _, _| marks.push(t0.elapsed()),
    );
    let engine = t0.elapsed();
    let report = MatrixReport {
        cells: proved.into_iter().map(|(_, c, r)| (c, r)).collect(),
    };
    let text = tp_bench::render_matrix_report(&report);
    let wall = t0.elapsed();
    let gaps = marks
        .iter()
        .scan(Duration::ZERO, |prev, &m| {
            let gap = m - *prev;
            *prev = m;
            Some(gap)
        })
        .collect();
    let timing = Timing {
        wall,
        peak_rss_mb: 0.0,
        engine,
        render: wall - engine,
        first: marks.first().copied().unwrap_or(wall),
        gaps,
    };
    (timing, report, text)
}

/// Full protection proves on every machine and every ablation leaks.
fn sound(report: &MatrixReport) -> bool {
    report.cells.len() == CELLS
        && report
            .cells
            .iter()
            .all(|(cell, r)| r.time_protection_proved() == cell.disable.is_none())
}

fn setup() -> Setup {
    let pool = WorkerPool::new(THREADS);
    let matrix = tp_bench::shaped_matrix(None);
    let all: Vec<usize> = (0..matrix.cells().len()).collect();
    let (_, report, text) = sweep(&pool, &matrix, &all);
    Setup {
        sound: sound(&report),
        reference: text,
        reference_report: report,
        pool,
        matrix,
        all,
    }
}

/// Sweeps for `budget`, each checked against the reference and then
/// dropped, so the benchmark's memory does not grow with the samples.
fn sweeps(s: &Setup, budget: Duration, report: &mut Report) -> Vec<Timing> {
    repeat_for(budget, 1, || {
        let ((mut timing, _, text), rss) = with_peak_rss(|| sweep(&s.pool, &s.matrix, &s.all));
        report.check(text == s.reference);
        timing.peak_rss_mb = rss;
        timing
    })
}

fn walls_ms(v: &[Timing]) -> Vec<f64> {
    v.iter().map(|s| ms(s.wall)).collect()
}

/// Run the workload.
pub fn run(args: &Args) -> Result<Report, String> {
    let mut report = Report::default();
    let mut setup_s = Vec::new();
    let mut s = None;
    for _ in 0..SETUP_REPEATS {
        let (built, d) = timed(setup);
        setup_s.push(d.as_secs_f64());
        s = Some(built);
    }
    let s = s.expect("at least one set-up");
    report.check(s.sound);
    report.notes.push(format!(
        "{} cells x {} time models, {THREADS}-thread pool, uncached",
        s.all.len(),
        s.matrix.models().len()
    ));
    if args.trace {
        traced(args, &s, &mut report);
        return Ok(report);
    }

    let runs = sweeps(&s, args.seconds, &mut report);
    let n = runs.len();
    let walls = walls_ms(&runs);
    let firsts: Vec<f64> = runs.iter().map(|r| ms(r.first)).collect();
    report.set(
        "setup_s",
        median(&setup_s),
        format!("median of {SETUP_REPEATS} set-ups: pool + reference sweep"),
    );
    report.set(
        "peak_rss_mb",
        median(&runs.iter().map(|r| r.peak_rss_mb).collect::<Vec<_>>()),
        format!("benchmark process VmHWM during one sweep, median of n={n}"),
    );
    report.set(
        "work_per_s",
        s.all.len() as f64 / (median(&walls) / 1e3),
        format!(
            "sweep_cells_per_s: {} cells / median sweep, n={n} sweeps",
            s.all.len()
        ),
    );
    report.set("op_ms_p50", median(&walls), format!("sweep wall, n={n}"));
    report.set(
        "op_ms_tail",
        quantile(&walls, TAIL),
        format!("sweep wall p80, n={n}"),
    );
    report.set(
        "first_result_ms_p50",
        median(&firsts),
        format!("submit to first streamed cell, n={n}"),
    );
    Ok(report)
}

/// Per-call timings of one decomposed sweep: the engine's task calls,
/// made one at a time on this thread.
#[derive(Default)]
struct Pass {
    system_new: Vec<f64>,
    plain: Vec<f64>,
    steps: Vec<f64>,
    monitored: Vec<f64>,
    certify: Vec<f64>,
    lockstep: Vec<f64>,
    witnesses: usize,
}

impl Pass {
    /// Sum of the engine's task work (µs): per run a construction and
    /// a monitored run; per cell a certification replay; per leaking
    /// (cell, model) a lockstep witness extraction.
    fn task_us(&self) -> f64 {
        let sum = |v: &Vec<f64>| v.iter().sum::<f64>();
        sum(&self.system_new) + sum(&self.monitored) + sum(&self.certify) + sum(&self.lockstep)
    }
}

/// Time every call one sweep's tasks make. Returns the timings and
/// whether each (cell, model)'s fingerprints agree with the reference
/// verdicts (leak iff a secret's fingerprint differs).
fn decompose(s: &Setup, reference: &MatrixReport) -> (Pass, bool) {
    let mut p = Pass::default();
    let mut consistent = true;
    let models = s.matrix.models().to_vec();
    for (cell, (ref_cell, ref_report)) in s.matrix.cells().iter().zip(&reference.cells) {
        consistent &= cell == ref_cell;
        let sc = tp_bench::canonical_scenario(cell.disable);
        let kcfgs: Vec<_> = sc
            .secrets
            .iter()
            .map(|&secret| {
                let mut k = (sc.make_kcfg)(secret);
                k.tp = cell.tp;
                k
            })
            .collect();
        for (mi, model) in models.iter().enumerate() {
            let mut mcfg = cell.mcfg.clone();
            mcfg.time_model = *model;
            let mut fps = Vec::with_capacity(kcfgs.len());
            for (si, kcfg) in kcfgs.iter().enumerate() {
                let (sys, d_new) =
                    timed(|| System::from_parts(&mcfg, kcfg).expect("canonical systems build"));
                let ((len, digest), d_plain) =
                    timed(|| lo_digest_len(&mcfg, kcfg, sc.lo, sc.budget, sc.max_steps));
                let mut sys = sys;
                sys.use_digest_sinks();
                let (run, d_mon) = timed(|| run_monitored(sys, sc.lo, sc.budget, sc.max_steps));
                consistent &= (run.lo_len, run.lo_digest) == (len, digest);
                if mi == 0 && si == 0 {
                    let (cert, d) = timed(|| {
                        certify_transparency(
                            &run,
                            &mcfg,
                            kcfg.clone(),
                            sc.lo,
                            sc.budget,
                            sc.max_steps,
                        )
                    });
                    consistent &= cert.transparent();
                    p.certify.push(us(d));
                }
                p.system_new.push(us(d_new));
                p.plain.push(us(d_plain));
                p.steps.push(run.steps as f64);
                p.monitored.push(us(d_mon));
                fps.push((len, digest));
            }
            let leaker = fps.iter().position(|fp| *fp != fps[0]);
            consistent &= leaker.is_none() == ref_report.ni[mi].verdict.passed();
            if let Some(b) = leaker {
                let build = |k| System::from_parts(&mcfg, k).expect("canonical systems build");
                let (div, d) = timed(|| {
                    lockstep_divergence(
                        build(&kcfgs[0]),
                        build(&kcfgs[b]),
                        sc.lo,
                        sc.budget,
                        sc.max_steps,
                    )
                });
                consistent &= div.is_some();
                p.lockstep.push(us(d));
                p.witnesses += 1;
            }
        }
    }
    (p, consistent)
}

fn traced(args: &Args, s: &Setup, report: &mut Report) {
    let budget = args.seconds;
    // Untraced sweeps: the baseline for the residual and the overhead.
    let plain = sweeps(s, budget.mul_f64(0.3), report);
    // Traced sweeps: the pool's own counters and spans switched on.
    tp_telemetry::install(TelemetrySink::counters());
    let traced = sweeps(s, budget.mul_f64(0.3), report);
    let snap = tp_telemetry::snapshot().expect("a counting sink is installed");
    tp_telemetry::install(TelemetrySink::Null);
    // Layer calls, one at a time, for the rest of the budget.
    let t_layers = Instant::now();
    let mut passes = Vec::new();
    while passes.is_empty() || t_layers.elapsed() < budget.mul_f64(0.4) {
        let (pass, ok) = decompose(s, &s.reference_report);
        report.check(ok);
        passes.push(pass);
    }

    let cat = |f: fn(&Pass) -> &Vec<f64>| -> Vec<f64> {
        passes.iter().flat_map(|p| f(p).iter().copied()).collect()
    };
    let new = cat(|p| &p.system_new);
    let plain_runs = cat(|p| &p.plain);
    let steps = cat(|p| &p.steps);
    let monitored = cat(|p| &p.monitored);
    let sim: Vec<f64> = plain_runs.iter().zip(&new).map(|(p, n)| p - n).collect();
    let monitor_self: Vec<f64> = monitored.iter().zip(&sim).map(|(m, s)| m - s).collect();
    let runs = new.len();
    let np = passes.len();
    report.set(
        "kernel.system_new_us",
        median(&new),
        format!("System::from_parts, n={runs}"),
    );
    report.set(
        "sim.plain_run_us",
        median(&plain_runs),
        format!("lo_digest_len, n={runs}"),
    );
    report.set("sim.steps_per_run", median(&steps), format!("n={runs}"));
    report.set(
        "sim.ns_per_step",
        sim.iter().sum::<f64>() * 1e3 / steps.iter().sum::<f64>(),
        "(lo_digest_len - System::from_parts) / steps, all runs",
    );
    report.set(
        "monitor.run_us",
        median(&monitored),
        format!("run_monitored on a built system, n={runs}"),
    );
    report.set(
        "monitor.self_us",
        median(&monitor_self),
        "run_monitored - plain stepping of the same run",
    );
    report.set(
        "monitor.share",
        monitor_self.iter().sum::<f64>() / monitored.iter().sum::<f64>(),
        "monitor self time / run_monitored time, all runs",
    );
    report.set(
        "replay.certify_us",
        median(&cat(|p| &p.certify)),
        "certify_transparency, one per cell",
    );
    report.set(
        "lockstep.divergence_us",
        median(&cat(|p| &p.lockstep)),
        "lockstep_divergence incl. building both systems, per leaking (cell, model)",
    );
    report.set(
        "lockstep.witnesses",
        passes[0].witnesses as f64,
        "leaking (cell, model) pairs per sweep",
    );

    let gaps: Vec<f64> = traced
        .iter()
        .flat_map(|t| t.gaps.iter().map(|&g| ms(g)))
        .collect();
    report.set(
        "engine.cell_ms_p50",
        median(&gaps),
        format!("gap between streamed cells, n={}", gaps.len()),
    );
    report.set(
        "engine.cell_ms_p90",
        quantile(&gaps, 0.9),
        format!("n={}", gaps.len()),
    );
    let task_us: Vec<f64> = passes.iter().map(Pass::task_us).collect();
    let engine_ms = median(&plain.iter().map(|p| ms(p.engine)).collect::<Vec<_>>());
    let capacity_us = |wall_ms: f64| wall_ms * 1e3 * THREADS as f64;
    report.set(
        "engine.residual_frac",
        1.0 - median(&task_us) / capacity_us(engine_ms),
        format!("1 - task self time / ({THREADS} workers x engine wall), {np} passes"),
    );
    let sweeps_t = traced.len() as f64;
    report.set(
        "sched.tasks",
        snap.counter(Counter::PoolSubmitted) as f64 / sweeps_t,
        "pool tasks per sweep",
    );
    report.set(
        "sched.stolen",
        snap.counter(Counter::PoolSteals) as f64 / sweeps_t,
        "steals per sweep",
    );
    let (qn, qus) = snap.span(SpanKind::QueueWait);
    report.set(
        "sched.queue_wait_ms",
        qus as f64 / 1e3 / qn.max(1) as f64,
        format!("mean queue-wait span, n={qn}"),
    );

    let render = median(&plain.iter().map(|p| ms(p.render)).collect::<Vec<_>>());
    report.set(
        "render.report_ms",
        render,
        "render_matrix_report inside the sweep",
    );
    let wall_u = median(&walls_ms(&plain));
    let wall_t = median(&walls_ms(&traced));
    report.set(
        "attribution.residual_frac",
        1.0 - (median(&task_us) + render * 1e3) / capacity_us(wall_u),
        format!("1 - sum of layer self times / ({THREADS} workers x sweep wall {wall_u:.1} ms)"),
    );
    report.set(
        "trace.overhead_frac",
        wall_t / wall_u - 1.0,
        format!(
            "counting sink on: {wall_t:.1} ms vs off: {wall_u:.1} ms, n={}/{}",
            traced.len(),
            plain.len()
        ),
    );
}
