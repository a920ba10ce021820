//! `exhaustive`: `check_exhaustive_parallel_on` over every Hi program up
//! to length 5 on the tiny machine under full protection — 9,331
//! programs of ~25 µs each, stamped from one `SystemTemplate`, with no
//! monitor, replay, lockstep or cache.
//!
//! Op: one check. Work: programs checked. First result: the verdict
//! (the check streams nothing earlier). Every check must HOLD over
//! exactly 9,331 programs.
//!
//! The traced run times `ExhaustiveRunner::new` and, in batches,
//! `ExhaustiveRunner::run_digest` over the whole space, and sets their
//! sum against the untraced check's wall time.

use std::hint::black_box;
use std::time::{Duration, Instant};

use tp_core::engine::check_exhaustive_parallel_on;
use tp_core::exhaustive::{
    word_for_index_into, ExhaustiveConfig, ExhaustiveRunner, ExhaustiveVerdict,
};
use tp_kernel::config::TimeProtConfig;
use tp_sched::WorkerPool;
use tp_telemetry::{Counter, SpanKind, TelemetrySink};

use crate::report::Report;
use crate::stats::{median, ms, quantile, repeat_for, timed, us};
use crate::sys::with_peak_rss;
use crate::{Args, SETUP_REPEATS, THREADS};

/// Programs in the space, the empty one included.
const PROGRAMS: usize = 9_331;
/// Longest Hi program.
const MAX_LEN: usize = 5;
/// `op_ms_tail` percentile: ten samples beyond it at the 55-80
/// checks a 20 s run makes on a 2-CPU host.
const TAIL: f64 = 0.80;
/// `run_digest` calls per clock read in the traced run.
const DIGEST_BATCH: usize = 64;

fn config() -> ExhaustiveConfig {
    ExhaustiveConfig {
        max_len: MAX_LEN,
        ..ExhaustiveConfig::small(TimeProtConfig::full())
    }
}

fn holds(v: &ExhaustiveVerdict) -> bool {
    *v == ExhaustiveVerdict::Pass { programs: PROGRAMS }
}

/// Checks for `budget`, each verified; returns each one's wall time
/// (ms) and the process's peak RSS during it (MiB).
fn checks(
    pool: &WorkerPool,
    cfg: &ExhaustiveConfig,
    budget: Duration,
    report: &mut Report,
) -> (Vec<f64>, Vec<f64>) {
    repeat_for(budget, 1, || {
        let ((v, d), rss) = with_peak_rss(|| timed(|| check_exhaustive_parallel_on(pool, cfg)));
        report.check(holds(&v));
        (ms(d), rss)
    })
    .into_iter()
    .unzip()
}

/// Run the workload.
pub fn run(args: &Args) -> Result<Report, String> {
    let mut report = Report::default();
    let mut setup_s = Vec::new();
    let mut pool = None;
    for _ in 0..SETUP_REPEATS {
        let ((p, ok), d) = timed(|| {
            let p = WorkerPool::new(THREADS);
            let ok = holds(&check_exhaustive_parallel_on(&p, &config()));
            (p, ok)
        });
        report.check(ok);
        setup_s.push(d.as_secs_f64());
        pool = Some(p);
    }
    let pool = pool.expect("at least one set-up");
    let cfg = config();
    report.notes.push(format!(
        "{PROGRAMS} Hi programs (alphabet {}, length <= {MAX_LEN}), full protection, {THREADS}-thread pool",
        cfg.alphabet.len()
    ));
    if args.trace {
        traced(args, &pool, &cfg, &mut report);
        return Ok(report);
    }

    let (walls, rss) = checks(&pool, &cfg, args.seconds, &mut report);
    let n = walls.len();
    report.set(
        "setup_s",
        median(&setup_s),
        format!("median of {SETUP_REPEATS} set-ups: pool + reference check"),
    );
    report.set(
        "peak_rss_mb",
        median(&rss),
        format!("benchmark process VmHWM during one check, median of n={n}"),
    );
    report.set(
        "work_per_s",
        PROGRAMS as f64 / (median(&walls) / 1e3),
        format!("exhaustive_programs_per_s: {PROGRAMS} / median check, n={n} checks"),
    );
    report.set("op_ms_p50", median(&walls), format!("check wall, n={n}"));
    report.set(
        "op_ms_tail",
        quantile(&walls, TAIL),
        format!("check wall p80, n={n}"),
    );
    report.set(
        "first_result_ms_p50",
        median(&walls),
        format!("the verdict is the first result, n={n}"),
    );
    Ok(report)
}

fn traced(args: &Args, pool: &WorkerPool, cfg: &ExhaustiveConfig, report: &mut Report) {
    let budget = args.seconds;
    let (plain, _) = checks(pool, cfg, budget.mul_f64(0.3), report);
    tp_telemetry::install(TelemetrySink::counters());
    let (traced, _) = checks(pool, cfg, budget.mul_f64(0.3), report);
    let snap = tp_telemetry::snapshot().expect("a counting sink is installed");
    tp_telemetry::install(TelemetrySink::Null);

    // Layer calls on this thread: the template, then every program of
    // the space through `run_digest`, DIGEST_BATCH per clock read.
    let t_layers = Instant::now();
    let mut template_us = Vec::new();
    let mut digest_us = Vec::new();
    let mut pass_us = Vec::new();
    let mut word = Vec::new();
    while pass_us.is_empty() || t_layers.elapsed() < budget.mul_f64(0.4) {
        let (runner, d_new) = timed(|| ExhaustiveRunner::new(cfg));
        template_us.push(us(d_new));
        let baseline = runner.run_digest(&[]);
        let mut agree = true;
        let mut total = 0.0;
        // Index 0 is the empty program (the baseline above).
        for start in (1..PROGRAMS).step_by(DIGEST_BATCH) {
            let end = (start + DIGEST_BATCH).min(PROGRAMS);
            let t = Instant::now();
            for index in start..end {
                word_for_index_into(&cfg.alphabet, cfg.max_len, index, &mut word);
                agree &= black_box(runner.run_digest(&word)) == baseline;
            }
            let d = us(t.elapsed());
            total += d;
            digest_us.push(d / (end - start) as f64);
        }
        report.check(agree);
        pass_us.push(us(d_new) + total);
    }
    let n = digest_us.len();
    let per_digest = median(&digest_us);
    let wall_u = median(&plain);
    let wall_t = median(&traced);
    let capacity_us = wall_u * 1e3 * THREADS as f64;
    report.set(
        "exh.template_us",
        median(&template_us),
        format!("ExhaustiveRunner::new, n={}", template_us.len()),
    );
    report.set(
        "exh.run_digest_us",
        per_digest,
        format!("ExhaustiveRunner::run_digest, {DIGEST_BATCH} calls per clock read, n={n} batches"),
    );
    report.set(
        "exh.dispatch_frac",
        1.0 - PROGRAMS as f64 * per_digest / capacity_us,
        format!("1 - {PROGRAMS} x run_digest / ({THREADS} workers x check wall {wall_u:.1} ms)"),
    );
    let checks_t = traced.len() as f64;
    report.set(
        "sched.tasks",
        snap.counter(Counter::PoolSubmitted) as f64 / checks_t,
        "pool tasks per check",
    );
    report.set(
        "sched.stolen",
        snap.counter(Counter::PoolSteals) as f64 / checks_t,
        "steals per check",
    );
    let (qn, qus) = snap.span(SpanKind::QueueWait);
    report.set(
        "sched.queue_wait_ms",
        qus as f64 / 1e3 / qn.max(1) as f64,
        format!("mean queue-wait span, n={qn}"),
    );
    report.set(
        "attribution.residual_frac",
        1.0 - median(&pass_us) / capacity_us,
        format!("1 - (template + all run_digest calls) / ({THREADS} workers x check wall)"),
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
