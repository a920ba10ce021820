//! The NI-only sweep against its oracle: on the E11 ablation matrix,
//! `run_ni_on` must return, cell for cell, exactly the verdict the
//! sequential `check_noninterference` gives on that cell's scenario —
//! the cell's machine, with the cell's protection forced into every
//! kernel configuration — at 1, 2 and 8 workers. Leak witnesses
//! (secret pair, divergence index, diverging events) included.

use tp_bench::{canonical_machine, canonical_scenario};
use tp_core::noninterference::check_noninterference;
use tp_core::{MatrixCell, NiScenario, ScenarioMatrix};
use tp_sched::WorkerPool;

/// `cell`'s scenario as the engine specialises it.
fn cell_scenario(cell: &MatrixCell) -> NiScenario {
    let mut sc = canonical_scenario(cell.disable);
    sc.mcfg = cell.mcfg.clone();
    let (tp, inner) = (cell.tp, sc.make_kcfg);
    sc.make_kcfg = Box::new(move |s| {
        let mut k = inner(s);
        k.tp = tp;
        k
    });
    sc
}

#[test]
fn run_ni_on_equals_sequential_check_noninterference_at_every_pool_size() {
    let matrix = ScenarioMatrix::new("canonical", canonical_machine()).sweep_ablations();
    let oracle: Vec<_> = matrix
        .cells()
        .into_iter()
        .map(|cell| {
            let verdict = check_noninterference(&cell_scenario(&cell));
            (cell, verdict)
        })
        .collect();
    assert!(
        oracle[0].1.passed(),
        "full protection holds: {}",
        oracle[0].1
    );
    for (cell, verdict) in &oracle[1..] {
        assert!(!verdict.passed(), "{} must leak", cell.label());
    }
    for workers in [1, 2, 8] {
        let pool = WorkerPool::new(workers);
        let pooled = matrix.run_ni_on(&pool, |cell| canonical_scenario(cell.disable));
        assert_eq!(pooled.len(), oracle.len());
        for ((cell, v), (ocell, ov)) in pooled.iter().zip(&oracle) {
            assert_eq!(cell, ocell);
            assert_eq!(v, ov, "{} (pool×{workers})", cell.label());
        }
    }
}
