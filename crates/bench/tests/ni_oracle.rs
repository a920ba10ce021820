//! The E11 ablation table against its oracle: the one-model ablation
//! matrix that `report_e11` proves must give, cell for cell, exactly
//! the NI verdict the sequential `check_noninterference` gives on that
//! cell's scenario — the cell's machine, with the cell's protection
//! forced into every kernel configuration — at 1, 2 and 8 workers.
//! Leak witnesses (secret pair, divergence index, diverging events)
//! included, and `report_e11` prints those verdicts row for row.

use tp_bench::{canonical_machine, canonical_scenario, report_e11};
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
fn e11_matrix_verdicts_equal_sequential_check_noninterference_at_every_pool_size() {
    let matrix = ScenarioMatrix::new("canonical", canonical_machine())
        .sweep_ablations()
        .with_models(vec![canonical_machine().time_model]);
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
        let pooled = matrix.run_on(&pool, |cell| canonical_scenario(cell.disable));
        assert_eq!(pooled.cells.len(), oracle.len());
        for ((cell, proof), (ocell, ov)) in pooled.cells.iter().zip(&oracle) {
            assert_eq!(cell, ocell);
            assert_eq!(proof.ni.len(), 1, "one time model");
            let label = cell.label();
            assert_eq!(&proof.ni[0].verdict, ov, "{label} (pool×{workers})");
        }
    }

    // The table rows, after its two header lines, end in those verdicts.
    let table = report_e11();
    let rows: Vec<&str> = table.lines().skip(2).collect();
    assert_eq!(rows.len(), oracle.len(), "{table}");
    for (row, (cell, ov)) in rows.iter().zip(&oracle) {
        assert!(row.ends_with(&format!("| {ov}")), "{}: {row}", cell.label());
    }
}
