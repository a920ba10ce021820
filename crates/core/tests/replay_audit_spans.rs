//! What `--replay-check` still audits. Its reports are bit-identical to
//! the certified default by design, so the output cannot show that the
//! audit ran; the `replay` telemetry spans can. Under a tracing sink, a
//! [`ProofMode::ReplayCheck`] sweep must record exactly one plain
//! replay per (model, secret) for every live cell, a
//! [`ProofMode::Certified`] sweep exactly one per live cell, and a
//! validated cache hit none.
//!
//! The telemetry sink is process-global, so this file holds one test
//! and no other test shares its process.

use tp_core::cache::ProofCache;
use tp_core::engine::{ProofMode, ScenarioMatrix};
use tp_core::noninterference::NiScenario;
use tp_core::proof::default_time_models;
use tp_hw::machine::MachineConfig;
use tp_hw::types::Cycles;
use tp_kernel::config::{DomainSpec, KernelConfig, Mechanism, TimeProtConfig};
use tp_kernel::domain::DomainId;
use tp_kernel::layout::data_addr;
use tp_kernel::program::{Instr, TraceProgram};
use tp_sched::WorkerPool;
use tp_telemetry::{SpanKind, TelemetrySink};

/// A small cacheable scenario with three secrets: Hi's footprint grows
/// with the secret, Lo probes and reads the clock.
fn scenario() -> NiScenario {
    NiScenario {
        mcfg: MachineConfig::single_core(),
        make_kcfg: Box::new(|secret| {
            let hi = TraceProgram::new(
                (0..secret * 16)
                    .map(|i| Instr::Store(data_addr((i * 64) % (4 * 4096))))
                    .collect(),
            );
            let mut lo: Vec<Instr> = (0..32).map(|i| Instr::Load(data_addr(i * 64))).collect();
            lo.push(Instr::ReadClock);
            lo.push(Instr::Halt);
            KernelConfig::new(vec![
                DomainSpec::new(Box::new(hi)).with_data_pages(4),
                DomainSpec::new(Box::new(TraceProgram::new(lo))).with_data_pages(4),
            ])
            .with_tp(TimeProtConfig::full())
        }),
        lo: DomainId(1),
        secrets: vec![0, 2, 5],
        budget: Cycles(120_000),
        max_steps: 60_000,
    }
}

/// Per-cell `replay` span counts in a JSON-lines trace.
fn replay_spans_per_cell(trace: &str, cells: usize) -> Vec<usize> {
    let mut counts = vec![0; cells];
    for line in trace.lines().filter(|l| l.contains("\"kind\":\"replay\"")) {
        let rest = &line[line.find("\"cell\":").expect("span names its cell") + 7..];
        let cell: usize = rest[..rest.find(',').expect("cell is not last")]
            .parse()
            .expect("cell is a number");
        counts[cell] += 1;
    }
    counts
}

#[test]
fn replay_check_replays_every_pair_and_certified_replays_once() {
    let models = default_time_models()[..2].to_vec();
    let secrets = scenario().secrets.len();
    let pool = WorkerPool::new(2);
    let mut reports = Vec::new();
    for (mode, per_live_cell) in [
        (ProofMode::ReplayCheck, models.len() * secrets),
        (ProofMode::Certified, 1),
    ] {
        let matrix = ScenarioMatrix::new("spans", MachineConfig::single_core())
            .with_ablations(vec![None, Some(Mechanism::Padding), Some(Mechanism::Flush)])
            .with_models(models.clone())
            .with_mode(mode);
        // Cell 0 is proved before tracing starts, so the traced sweep
        // answers it from the cache and proves cells 1 and 2 live.
        let mut cache = ProofCache::new();
        matrix.run_subset_cached(&pool, &[0], &mut cache, |_| scenario(), |_, _, _| {});

        tp_telemetry::install(TelemetrySink::json_lines());
        let (proved, stats) =
            matrix.run_subset_cached(&pool, &[0, 1, 2], &mut cache, |_| scenario(), |_, _, _| {});
        let snap = tp_telemetry::snapshot().expect("tracing sink snapshots");
        let trace = tp_telemetry::take_trace().expect("tracing sink buffers");
        tp_telemetry::install(TelemetrySink::Null);

        assert_eq!((stats.hits, stats.reproved()), (1, 2), "{mode:?}");
        assert_eq!(
            replay_spans_per_cell(&trace, 3),
            vec![0, per_live_cell, per_live_cell],
            "{mode:?}: replay spans per cell (cell 0 is a cache hit)"
        );
        assert_eq!(
            snap.span(SpanKind::Replay).0,
            2 * per_live_cell as u64,
            "{mode:?}"
        );
        assert!(
            proved[1..]
                .iter()
                .any(|(_, _, r)| r.ni.iter().any(|mv| !mv.verdict.passed())),
            "{mode:?}: an ablation leaks, so the replay baseline decides a verdict"
        );
        reports.push(proved);
    }
    assert_eq!(reports[0], reports[1], "the modes' reports are equal");
}
