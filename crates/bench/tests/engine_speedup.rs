//! Acceptance test for the engine: on the canonical scenario,
//! `prove_parallel` must return the identical verdict to the sequential
//! `prove`, and on a host that can actually run ≥ 2× faster in parallel
//! it must do so. The speedup assertion self-calibrates: it first
//! measures the host's achievable parallel speedup on embarrassingly
//! parallel spin work, and only asserts when that ceiling is ≥ 2.5× —
//! so SMT-limited laptops, 1-core containers and noisy shared CI
//! runners skip the timing assertion (with a note) instead of flaking,
//! while any genuine multi-core runner still enforces the 2× bar.

use tp_bench::{canonical_machine, canonical_scenario, time_iters};
use tp_core::engine::{available_threads, prove_parallel, ProofMode, ScenarioMatrix};
use tp_core::proof::{default_time_models, prove};
use tp_sched::WorkerPool;

/// CPU-bound spin work the compiler cannot elide.
fn spin(rounds: u64) -> u64 {
    let mut x = 0x9e37_79b9u64;
    for i in 0..rounds {
        x = x.wrapping_mul(6364136223846793005).wrapping_add(i);
    }
    std::hint::black_box(x)
}

/// Measured parallel speedup ceiling of this host: N independent spin
/// tasks on a one-worker pool vs a `threads`-worker pool.
fn calibration_speedup(threads: usize) -> f64 {
    let tasks: Vec<u64> = vec![2_000_000; 4 * threads.max(1)];
    let (one, many) = (WorkerPool::new(1), WorkerPool::new(threads));
    let seq = time_iters(3, || one.map(tasks.clone(), |_, r| spin(r))).1;
    let par = time_iters(3, || many.map(tasks.clone(), |_, r| spin(r))).1;
    seq.as_secs_f64() / par.as_secs_f64()
}

#[test]
fn parallel_prove_matches_and_beats_sequential() {
    let models = default_time_models();
    // prove_parallel runs on the global pool, whose size TP_THREADS can
    // pin below the host's parallelism (CI does exactly that) — gate
    // the timing assertion on what is actually measured.
    let threads = tp_sched::global().threads().min(available_threads());

    // Identical verdict, bit for bit.
    let sequential = prove(&canonical_scenario(None), &models);
    let parallel = prove_parallel(&canonical_scenario(None), &models);
    assert!(sequential.time_protection_proved(), "{sequential}");
    assert!(parallel.time_protection_proved(), "{parallel}");
    assert_eq!(sequential.to_string(), parallel.to_string());
    assert_eq!(sequential.steps, parallel.steps);

    // One measured ratio per attempt (best-of-3 each side).
    let measure = || {
        let t_seq = time_iters(3, || prove(&canonical_scenario(None), &models)).1;
        let t_par = time_iters(3, || prove_parallel(&canonical_scenario(None), &models)).1;
        let ratio = t_seq.as_secs_f64() / t_par.as_secs_f64();
        eprintln!(
            "prove: sequential {t_seq:?}, parallel {t_par:?} on {threads} threads ({ratio:.2}x)"
        );
        ratio
    };
    if threads < 4 {
        eprintln!("(host has {threads} thread(s); skipping the >= 2x speedup assertion)");
        return;
    }
    let first = measure();
    let ceiling = calibration_speedup(threads);
    eprintln!("calibration: spin-work parallel speedup ceiling {ceiling:.2}x");
    if ceiling < 2.5 {
        eprintln!("(ceiling < 2.5x: host cannot demonstrate 2x; skipping the assertion)");
        return;
    }
    // Retry on transient noise: a correct engine on >= 4 real cores
    // clears 2x comfortably, so only a sustained cap across attempts —
    // an actual engine regression or a genuinely bandwidth-starved
    // host — fails here.
    let mut best = first;
    for _ in 0..2 {
        if best >= 2.0 {
            break;
        }
        best = best.max(measure());
    }
    assert!(
        best >= 2.0,
        "host sustains {ceiling:.2}x on spin work, so the engine must reach >= 2x \
         in some attempt; best observed {best:.2}x"
    );
}

/// The transparency dividend: on the E11 ablation sweep, certified
/// single-run mode must do at most ~0.6× the work of `--replay-check`
/// mode (per cell: models × secrets + 1 runs instead of
/// 2 × models × secrets). The comparison self-calibrates by timing both
/// modes on a single-worker pool — a pure work measurement, immune to
/// parallel-tail artefacts — with a margin plus retries for scheduler
/// noise, and is gated on ≥ 4 cores like the speedup assertion above.
#[test]
fn certified_single_run_halves_replay_check_work_on_the_e11_sweep() {
    // Two time models keep a double-run sweep test-profile friendly;
    // the per-cell work ratio (7 runs vs 12) is model-count agnostic.
    let models = default_time_models()[..2].to_vec();
    let matrix = |mode: ProofMode| {
        ScenarioMatrix::new("canonical", canonical_machine())
            .sweep_ablations()
            .with_models(models.clone())
            .with_mode(mode)
    };

    // Functional gate first: both modes must produce bit-identical
    // reports — certificates included — or timing them is meaningless.
    let pool = WorkerPool::new(1);
    let certified =
        matrix(ProofMode::Certified).run_on(&pool, |cell| canonical_scenario(cell.disable));
    let audited =
        matrix(ProofMode::ReplayCheck).run_on(&pool, |cell| canonical_scenario(cell.disable));
    assert_eq!(
        certified, audited,
        "certified and replay-check E11 sweeps must agree bit for bit"
    );
    for (cell, report) in &certified.cells {
        let cert = report.transparency.expect("every cell is certified");
        assert!(cert.transparent(), "{}: {cert}", cell.label());
    }

    if available_threads() < 4 {
        eprintln!(
            "(host has {} thread(s); skipping the <= 0.6x work assertion)",
            available_threads()
        );
        return;
    }

    // Theoretical ratio with 2 models × 3 secrets: (6 + 1) / 12 = 0.58;
    // the margin absorbs per-run variance on shared runners.
    let margin = 0.72;
    let mut ratios = Vec::new();
    for attempt in 0..3 {
        let t_certified = time_iters(3, || {
            matrix(ProofMode::Certified).run_on(&pool, |cell| canonical_scenario(cell.disable))
        })
        .1;
        let t_audited = time_iters(3, || {
            matrix(ProofMode::ReplayCheck).run_on(&pool, |cell| canonical_scenario(cell.disable))
        })
        .1;
        let ratio = t_certified.as_secs_f64() / t_audited.as_secs_f64();
        eprintln!(
            "attempt {attempt}: certified {t_certified:?}, replay-check {t_audited:?} \
             (certified/replay = {ratio:.3})"
        );
        ratios.push(ratio);
        if ratio <= margin {
            return;
        }
    }
    panic!(
        "certified single-run mode did not stay under {margin}x of replay-check work \
         in any attempt (ratios {ratios:?}); the dropped-replay optimisation has regressed"
    );
}
