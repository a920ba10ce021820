//! "Can we prove time protection?" — run the reproduction's answer.
//!
//! Discharges the paper's §5 proof obligations over the canonical
//! omnibus scenario (every channel exercised at once), quantified over a
//! family of time models and sharded across the persistent `tp-sched`
//! worker pool, and then shows the ablation: remove any one §4 mechanism
//! and the checker produces a concrete leak witness. The ablation sweep
//! is a single [`ScenarioMatrix`] run — and both phases share the same
//! pool instance, spawned once for the whole process.
//!
//! ```sh
//! cargo run --release --example prove
//! ```

use time_protection::core::engine::prove_parallel;
use time_protection::core::{default_time_models, ScenarioMatrix};

fn main() {
    let threads = tp_sched::global().threads();
    println!("== Discharging the proof obligations of §5 ({threads} worker threads) ==\n");
    let scenario = tp_bench::canonical_scenario(None);
    let report = prove_parallel(&scenario, &default_time_models());
    println!("{report}");

    println!("== Ablation: every mechanism is load-bearing (one matrix run) ==\n");
    let machine = tp_bench::canonical_machine();
    let matrix = ScenarioMatrix::new("canonical", machine.clone())
        .sweep_ablations()
        .with_models(vec![machine.time_model]);
    let ablations = matrix.run(|cell| tp_bench::canonical_scenario(cell.disable));
    for (cell, proof) in &ablations.cells {
        let verdict = &proof.ni[0].verdict;
        match cell.disable {
            Some(m) => println!("without {m:?}: {verdict}"),
            None => println!("with everything on: {verdict}"),
        }
    }

    println!();
    println!("Interpretation: with all mechanisms on, the low domain's observation");
    println!("trace is bit-identical across secrets under every time model tried —");
    println!("the paper's noninterference claim. Each ablation yields a replayable");
    println!("counterexample, so the 'proof' is not vacuous.");
}
