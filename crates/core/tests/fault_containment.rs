//! Fault containment in the engine's sweep driver
//! ([`ScenarioMatrix::run_subset`]): a cell whose
//! program panics mid-proof must become `Err(message)` in that cell's
//! slot — not a poisoned pool, not an unwound consumer — while every
//! other cell proves, streams, and caches exactly as it would have
//! without the fault. This is the engine-side half of the `tp-serve`
//! daemon's failure model; the pool-side half lives in
//! `crates/sched/tests/panic_containment.rs`. The panicking entry
//! points (`run_subset_streamed`, `run_subset_cached`) are unwraps over
//! the same driver: they fail at the faulted cell, naming it, after
//! every earlier cell has streamed.

use std::panic::{catch_unwind, AssertUnwindSafe};

use tp_core::cache::ProofCache;
use tp_core::engine::ScenarioMatrix;
use tp_core::noninterference::NiScenario;
use tp_core::proof::{default_time_models, prove, ProofReport};
use tp_core::MatrixCell;
use tp_hw::machine::MachineConfig;
use tp_hw::types::Cycles;
use tp_kernel::config::{DomainSpec, KernelConfig, Mechanism, TimeProtConfig};
use tp_kernel::domain::DomainId;
use tp_kernel::layout::data_addr;
use tp_kernel::program::{Instr, Program, StepFeedback, TraceProgram};
use tp_sched::WorkerPool;

/// The worker counts every check runs at — the same spread the
/// determinism harness uses.
const POOL_SIZES: [usize; 3] = [1, 2, 8];

/// A program that detonates on its first step. The panic fires inside
/// a pool worker's monitored run — exactly where a real proof workload
/// fault would — and its default `content_fingerprint` of `None` keeps
/// the faulted cell uncacheable, so resubmissions re-prove it.
#[derive(Debug, Clone)]
struct PanickingProgram;

impl Program for PanickingProgram {
    fn next(&mut self, _feedback: &StepFeedback) -> Instr {
        panic!("injected fault: program detonated")
    }
}

/// A small two-domain scenario compatible with every cell the matrix
/// below generates.
fn small_scenario() -> NiScenario {
    NiScenario {
        mcfg: MachineConfig::single_core(),
        make_kcfg: Box::new(move |secret| {
            let hi = TraceProgram::new(
                (0..secret * 16)
                    .map(|i| Instr::Store(data_addr((i * 64) % (4 * 4096))))
                    .collect(),
            );
            let mut lo = Vec::new();
            for i in 0..32 {
                lo.push(Instr::Load(data_addr(i * 64)));
            }
            lo.push(Instr::ReadClock);
            lo.push(Instr::Halt);
            KernelConfig::new(vec![
                DomainSpec::new(Box::new(hi))
                    .with_data_pages(4)
                    .with_code_pages(1),
                DomainSpec::new(Box::new(TraceProgram::new(lo)))
                    .with_data_pages(4)
                    .with_code_pages(1),
            ])
            .with_tp(TimeProtConfig::full())
        }),
        lo: DomainId(1),
        secrets: vec![0, 3],
        budget: Cycles(120_000),
        max_steps: 60_000,
    }
}

/// The sweep used throughout: three ablation cells over one machine.
fn matrix() -> ScenarioMatrix {
    ScenarioMatrix::new("fault", MachineConfig::single_core())
        .with_ablations(vec![None, Some(Mechanism::Padding), Some(Mechanism::Flush)])
        .with_models(default_time_models()[..2].to_vec())
}

/// `small_scenario`, but the `disable=Padding` cell's Hi domain runs
/// [`PanickingProgram`] — one poisoned cell in an otherwise healthy
/// sweep.
fn faulty_scenario(cell: &MatrixCell) -> NiScenario {
    let mut s = small_scenario();
    if cell.disable == Some(Mechanism::Padding) {
        let base = s.make_kcfg;
        s.make_kcfg = Box::new(move |secret| {
            let mut k = base(secret);
            k.domains[0].program = Box::new(PanickingProgram);
            k
        });
    }
    s
}

/// The sequential oracle: `prove` on each cell's scenario — the
/// cell's machine, with the cell's protection forced into every kernel
/// configuration, exactly as the engine specialises it.
fn sequential_reports(matrix: &ScenarioMatrix) -> Vec<ProofReport> {
    matrix
        .cells()
        .iter()
        .map(|cell| {
            let mut sc = small_scenario();
            sc.mcfg = cell.mcfg.clone();
            let (tp, inner) = (cell.tp, sc.make_kcfg);
            sc.make_kcfg = Box::new(move |s| {
                let mut k = inner(s);
                k.tp = tp;
                k
            });
            prove(&sc, matrix.models())
        })
        .collect()
}

/// Without faults, the fault-contained driver is byte-for-byte the
/// sequential oracle and the plain streamed / cached drivers: same
/// reports uncached (`None`), same reports and same
/// [`tp_core::cache::CacheStats`] cold and warm.
#[test]
fn healthy_sweeps_match_the_plain_drivers_bit_for_bit() {
    let matrix = matrix();
    let all: Vec<usize> = (0..matrix.cells().len()).collect();
    let oracle = sequential_reports(&matrix);
    for workers in POOL_SIZES {
        let pool = WorkerPool::new(workers);
        let reference = matrix.run_subset_streamed(&pool, &all, |_| small_scenario(), |_, _, _| {});
        for ((i, cell, report), expected) in reference.iter().zip(&oracle) {
            assert_eq!(report, expected, "{i}: {} (pool×{workers})", cell.label());
        }

        let (uncached, stats) =
            matrix.run_subset(&pool, &all, None, |_| small_scenario(), |_, _, _| {}, None);
        assert_eq!(
            stats.hits + stats.misses + stats.rejected + stats.uncacheable,
            0
        );
        for ((i, cell, report), (ui, ucell, outcome)) in reference.iter().zip(&uncached) {
            assert_eq!((i, cell), (ui, ucell), "pool×{workers}");
            assert_eq!(outcome.as_ref().expect("healthy cell proves"), report);
        }

        let mut cache = ProofCache::new();
        let (cold, stats) = matrix.run_subset(
            &pool,
            &all,
            Some(&mut cache),
            |_| small_scenario(),
            |_, _, _| {},
            None,
        );
        assert_eq!(stats.hits, 0, "cold run must not hit (pool×{workers})");
        assert_eq!(stats.misses, all.len());
        assert_eq!(cache.len(), all.len(), "every healthy cell is cacheable");
        let (warm, stats) = matrix.run_subset(
            &pool,
            &all,
            Some(&mut cache),
            |_| small_scenario(),
            |_, _, _| {},
            None,
        );
        assert_eq!(stats.hits, all.len(), "warm run hits every cell");
        for ((_, _, report), (c, w)) in reference.iter().zip(cold.iter().zip(&warm)) {
            assert_eq!(c.2.as_ref().unwrap(), report, "cold (pool×{workers})");
            assert_eq!(w.2.as_ref().unwrap(), report, "warm (pool×{workers})");
        }
    }
}

/// One detonating cell: its slot carries the panic message, its
/// siblings' reports are identical to a fault-free run, the cache
/// holds only the healthy cells, a resubmission answers those from
/// cache while re-attempting (and re-failing) the faulted one — and
/// the pool serves a fresh healthy sweep afterwards.
#[test]
fn a_panicking_cell_yields_an_error_slot_and_spares_its_siblings() {
    let matrix = matrix();
    let all: Vec<usize> = (0..matrix.cells().len()).collect();
    for workers in POOL_SIZES {
        let pool = WorkerPool::new(workers);
        let reference = matrix.run_subset_streamed(&pool, &all, |_| small_scenario(), |_, _, _| {});

        let mut cache = ProofCache::new();
        let mut streamed = Vec::new();
        let (outcomes, stats) = matrix.run_subset(
            &pool,
            &all,
            Some(&mut cache),
            faulty_scenario,
            |i, _, outcome| streamed.push((i, outcome.is_ok())),
            None,
        );
        assert_eq!(outcomes.len(), all.len());
        let mut failed = 0;
        for ((i, cell, outcome), (_, _, report)) in outcomes.iter().zip(&reference) {
            if cell.disable == Some(Mechanism::Padding) {
                failed += 1;
                let msg = outcome.as_ref().expect_err("faulted cell must fail");
                assert!(
                    msg.contains("injected fault"),
                    "panic payload must surface (pool×{workers}): {msg:?}"
                );
            } else {
                assert_eq!(
                    outcome.as_ref().expect("sibling cells must prove"),
                    report,
                    "cell {i} (pool×{workers})"
                );
            }
        }
        assert_eq!(failed, 1);
        assert_eq!(
            streamed,
            outcomes
                .iter()
                .map(|(i, _, o)| (*i, o.is_ok()))
                .collect::<Vec<_>>(),
            "on_cell streams every slot in order (pool×{workers})"
        );
        assert_eq!(stats.uncacheable, 1, "the faulted cell has no content key");
        assert_eq!(cache.len(), all.len() - 1, "only healthy cells cached");

        // Resubmission: healthy cells hit, the faulted one fails again.
        let (again, stats) = matrix.run_subset(
            &pool,
            &all,
            Some(&mut cache),
            faulty_scenario,
            |_, _, _| {},
            None,
        );
        assert_eq!(stats.hits, all.len() - 1, "pool×{workers}");
        assert_eq!(stats.uncacheable, 1);
        assert_eq!(again.iter().filter(|(_, _, o)| o.is_err()).count(), 1);

        // The daemon's pool keeps serving: a fresh healthy sweep on the
        // same pool still matches the reference.
        let after = matrix.run_subset_streamed(&pool, &all, |_| small_scenario(), |_, _, _| {});
        assert_eq!(
            after, reference,
            "pool must survive the fault (pool×{workers})"
        );
    }
}

/// The unwrap semantics, pinned on the detonating cell (index 1). The
/// contained driver returns `Err` in that slot and `Ok` siblings whose
/// wire records are byte-identical to the sequential oracle's; the
/// panicking entry points stream every earlier cell, then panic with a
/// message naming the failed cell and carrying its panic payload —
/// and the cached one has already inserted the earlier cells.
#[test]
fn panicking_entry_points_fail_at_the_faulted_cell_after_streaming_earlier_cells() {
    let matrix = matrix();
    let cells = matrix.cells();
    let all: Vec<usize> = (0..cells.len()).collect();
    let faulted = 1;
    assert_eq!(cells[faulted].disable, Some(Mechanism::Padding));
    let label = cells[faulted].label();
    let record = |i: usize, report: &ProofReport| {
        let mut out = String::new();
        tp_core::wire::write_cell(&mut out, i, &cells[i], report);
        out
    };
    let oracle = sequential_reports(&matrix);
    for workers in POOL_SIZES {
        let pool = WorkerPool::new(workers);

        let (outcomes, _) =
            matrix.run_subset(&pool, &all, None, faulty_scenario, |_, _, _| {}, None);
        for (i, _, outcome) in &outcomes {
            match outcome {
                Err(msg) => {
                    assert_eq!(*i, faulted, "pool×{workers}");
                    assert!(msg.contains("injected fault"), "{msg:?}");
                }
                Ok(report) => {
                    assert_ne!(*i, faulted, "pool×{workers}");
                    assert_eq!(
                        record(*i, report),
                        record(*i, &oracle[*i]),
                        "pool×{workers}"
                    );
                }
            }
        }

        let panic_text = |payload: Box<dyn std::any::Any + Send>| {
            payload
                .downcast_ref::<String>()
                .cloned()
                .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
                .expect("panic payload is a message")
        };
        let names_the_cell = |msg: &str| {
            assert!(
                msg.contains(&format!("matrix cell {faulted} ({label})")),
                "panic must name the failed cell (pool×{workers}): {msg:?}"
            );
            assert!(msg.contains("injected fault"), "{msg:?}");
        };

        let mut streamed = Vec::new();
        let payload = catch_unwind(AssertUnwindSafe(|| {
            matrix.run_subset_streamed(&pool, &all, faulty_scenario, |i, _, report| {
                streamed.push(record(i, report))
            })
        }))
        .expect_err("run_subset_streamed must panic at the faulted cell");
        names_the_cell(&panic_text(payload));
        assert_eq!(streamed, [record(0, &oracle[0])], "pool×{workers}");

        let mut cache = ProofCache::new();
        let mut streamed = Vec::new();
        let payload = catch_unwind(AssertUnwindSafe(|| {
            matrix.run_subset_cached(&pool, &all, &mut cache, faulty_scenario, |i, _, report| {
                streamed.push(record(i, report))
            })
        }))
        .expect_err("run_subset_cached must panic at the faulted cell");
        names_the_cell(&panic_text(payload));
        assert_eq!(streamed, [record(0, &oracle[0])], "pool×{workers}");
        assert_eq!(
            cache.len(),
            1,
            "the earlier cell was cached (pool×{workers})"
        );
    }
}
