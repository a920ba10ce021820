//! The scenario-matrix proof engine: parallel drivers for the proof
//! obligations and a sweep builder for whole families of scenarios.
//!
//! The paper's §5.1 argument — the proof must hold under *every*
//! deterministic-but-unspecified time model — is inherently a fan-out
//! workload: the (time-model × secret) product of [`crate::proof::prove`]
//! and the Hi-program enumeration of [`crate::exhaustive`] are both
//! embarrassingly parallel, and every run is deterministic. This module
//! flattens them into task lists for the persistent `tp-sched` worker
//! pool while keeping results **bit-identical** to the sequential
//! checkers:
//!
//! * [`prove_parallel`] — shards one *certified, trace-free* monitored
//!   run per (model, secret) (the run's rolling Lo fingerprint doubles
//!   as the NI baseline, with a single digest-only plain replay
//!   certifying observation transparency — [`ProofMode`]), then merges
//!   P/F/T evidence and verdicts in the exact lexicographic order the
//!   sequential `prove` accumulates in, comparing `(len, digest)`
//!   fingerprints and re-running only diverging pairs with recording
//!   sinks, in lockstep, for their witnesses.
//! * [`check_exhaustive_parallel`] — shards the program enumeration by
//!   index blocks, each Hi-word digest-only against the cached baseline
//!   fingerprint; a leak verdict is the *lowest-index* witness, which
//!   is precisely the sequential first-witness.
//! * [`ScenarioMatrix`] — builds the cross product of machine
//!   configurations (cache geometry, core counts), mechanism ablations
//!   and time models, flattens the whole sweep into **one**
//!   (cell × model × secret) task list, and proves every cell in one
//!   submission.
//!
//! A matrix has exactly one sweep driver, [`ScenarioMatrix::run_subset`]:
//! it takes an optional [`ProofCache`] and an optional checkpoint hook
//! ([`OnProved`]), streams each cell to the caller in deterministic
//! order as soon as it is merged, and contains faults — a cell whose
//! proof panics comes back as `Err(message)` while its siblings still
//! prove. [`ScenarioMatrix::run`], [`ScenarioMatrix::run_on`],
//! [`ScenarioMatrix::run_subset_streamed`],
//! [`ScenarioMatrix::run_subset_cached`] and
//! [`ScenarioMatrix::run_subset_journaled`] are short unwraps over it
//! that panic at the first failed cell, after every earlier cell has
//! streamed.
//!
//! Every driver has one production path and one recording oracle. Both
//! proof modes share the one fingerprint merge — they differ only in
//! which plain replays they schedule — and are pinned against the
//! sequential double-run [`crate::proof::prove`], which records and
//! compares full traces; the digest-first exhaustive scan is pinned
//! against the recording [`crate::exhaustive::check_exhaustive`]. Each
//! driver runs on the process-wide [`tp_sched::global`] pool or, in its
//! `_on` variant, an explicit [`WorkerPool`].

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use crate::cache::{CacheMiss, CacheStats, ProofCache};
use crate::exhaustive::{
    recorded_leak, space_size, word_for_index_into, ExhaustiveConfig, ExhaustiveRunner,
    ExhaustiveVerdict,
};
use crate::noninterference::{
    compare_secret_digests, lo_digest_len, lockstep_leak, run_monitored, MonitoredRun, NiScenario,
    TransparencyCert,
};
use crate::obligation::ObligationResult;
use crate::proof::{ModelVerdict, ProofReport};
use crate::wire::CachedMeta;
use tp_hw::aisa::check_conformance;
use tp_hw::cache::CacheConfig;
use tp_hw::clock::TimeModel;
use tp_hw::machine::MachineConfig;
use tp_hw::types::Cycles;
use tp_kernel::config::{KernelConfig, Mechanism, TimeProtConfig};
use tp_kernel::domain::DomainId;
use tp_kernel::kernel::System;
use tp_kernel::program::Instr;
use tp_sched::{OrderedResults, WorkerPool};
use tp_telemetry::{Counter, SpanKind};

pub use tp_sched::available_threads;

// ---------------------------------------------------------------------
// Proof sharding
// ---------------------------------------------------------------------

/// How the engine obtains the NI baseline evidence for a proof. In both
/// modes every (model, secret) pair gets one *trace-free* monitored run
/// (the P/F/T evidence and a rolling `(len, digest)` fingerprint of
/// Lo's observations), NI is decided on fingerprints, and only a
/// fingerprint mismatch triggers a recording lockstep re-run of the
/// offending pair to extract the replayable witness. The mode decides
/// only which digest-only plain replays are scheduled.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ProofMode {
    /// Certified single-run mode (the default): the monitored
    /// fingerprints are the NI baseline, and a single plain replay of
    /// the first pair certifies that monitoring is
    /// observation-transparent ([`TransparencyCert`]).
    #[default]
    Certified,
    /// The paranoid audit mode (`--replay-check`): every (model,
    /// secret) pair also gets a plain replay, and those replay
    /// fingerprints are the NI baseline — the double run of the
    /// sequential [`crate::proof::prove`], compared on fingerprints.
    /// Reports are bit-identical to certified mode whenever monitoring
    /// really is transparent, which is what the determinism harness
    /// pins.
    ReplayCheck,
}

impl ProofMode {
    /// How many of a proof's `runs` (model-major) get a plain replay,
    /// counted from the first: one for the certificate, or all of them
    /// for the replay-check baseline.
    fn replays(self, runs: usize) -> usize {
        match self {
            ProofMode::Certified => 1,
            ProofMode::ReplayCheck => runs,
        }
    }
}

/// Owned inputs for one (model, secret) proof shard. Materialised on
/// the submitting thread so the task itself is `'static` and can run on
/// the persistent pool. The configurations are `Arc`-shared — the
/// machine across a model's secrets, the kernel configuration across a
/// secret's models — so fanning a sweep into thousands of tasks clones
/// pointers, not page tables and programs.
#[derive(Clone)]
struct ProofTask {
    /// Machine with the shard's time model applied.
    mcfg: Arc<MachineConfig>,
    /// Kernel configuration for this (model, secret) pair.
    kcfg: Arc<KernelConfig>,
    lo: DomainId,
    budget: Cycles,
    max_steps: usize,
    /// Matrix cell index this shard belongs to (0 for single-scenario
    /// drivers) — telemetry attribution only, never part of the proof.
    cell: usize,
}

impl ProofTask {
    /// A fresh recording system for this shard's configuration.
    fn build(&self) -> System {
        System::from_parts(&self.mcfg, &self.kcfg)
            .expect("scenario construction must succeed for every secret")
    }

    /// The trace-free monitored run for this shard.
    fn monitored(&self) -> MonitoredRun {
        let mut sys = self.build();
        sys.use_digest_sinks();
        run_monitored(sys, self.lo, self.budget, self.max_steps)
    }
}

/// One unit of engine work: a monitored proof shard, or a digest-only
/// plain replay of one (model, secret) pair.
#[derive(Clone)]
enum EngineTask {
    /// Monitored run for one (model, secret) pair.
    Run(ProofTask),
    /// Plain replay of one (model, secret) pair: the first grounds the
    /// [`TransparencyCert`], and in [`ProofMode::ReplayCheck`] every
    /// pair's is its NI baseline.
    Replay(ProofTask),
}

impl EngineTask {
    /// The matrix cell this task proves (telemetry attribution).
    fn cell(&self) -> usize {
        match self {
            EngineTask::Run(t) | EngineTask::Replay(t) => t.cell,
        }
    }
}

/// Per-(model, secret) evidence produced by one worker.
struct ProofShard {
    p: ObligationResult,
    f: ObligationResult,
    t: ObligationResult,
    steps: usize,
    /// Number of events in Lo's observation log.
    lo_len: usize,
    /// Rolling digest of the monitored run's Lo trace, straight from
    /// the observation sink.
    monitored_digest: u64,
    /// Rolling chain of post-switch core digests.
    switch_digest: u64,
}

/// What one [`EngineTask`] produced.
enum TaskOutput {
    Run(Box<ProofShard>),
    /// A plain replay's `(len, digest)` Lo fingerprint.
    Replay(usize, u64),
}

/// One proof's flattened shard list: the engine tasks in submission
/// order, plus the bare (model, secret) run inputs the merge keeps for
/// divergence re-runs (pointer-cheap — the configs are `Arc`-shared
/// with the tasks).
struct ProofBatch {
    tasks: Vec<EngineTask>,
    /// One entry per (model, secret), model-major — the order the merge
    /// consumes shards in.
    runs: Vec<ProofTask>,
}

/// Flatten `scenario` × `models` into owned engine tasks, in the
/// (model, secret) lexicographic order the merge consumes them in. The
/// mode's plain replays lead the list so they overlap the monitored
/// runs on the pool. Kernel configurations are
/// built once per secret and `Arc`-shared across models; machines once
/// per model, shared across secrets. `cell` is the matrix cell index
/// the shards report telemetry under (0 for single-scenario drivers).
fn proof_tasks(
    scenario: &NiScenario,
    models: &[TimeModel],
    mode: ProofMode,
    cell: usize,
) -> ProofBatch {
    let kcfgs: Vec<Arc<KernelConfig>> = scenario
        .secrets
        .iter()
        .map(|&s| Arc::new((scenario.make_kcfg)(s)))
        .collect();
    let mut runs = Vec::with_capacity(models.len() * scenario.secrets.len());
    for model in models {
        let mut mcfg = scenario.mcfg.clone();
        mcfg.time_model = *model;
        let mcfg = Arc::new(mcfg);
        for kcfg in &kcfgs {
            runs.push(ProofTask {
                mcfg: Arc::clone(&mcfg),
                kcfg: Arc::clone(kcfg),
                lo: scenario.lo,
                budget: scenario.budget,
                max_steps: scenario.max_steps,
                cell,
            });
        }
    }
    let replays = mode.replays(runs.len());
    let mut tasks = Vec::with_capacity(replays + runs.len());
    tasks.extend(runs[..replays].iter().cloned().map(EngineTask::Replay));
    tasks.extend(runs.iter().cloned().map(EngineTask::Run));
    ProofBatch { tasks, runs }
}

/// Execute one engine task: the trace-free monitored run of a
/// [`EngineTask::Run`], or the digest-only plain run of a
/// [`EngineTask::Replay`]. Neither allocates per-event storage.
fn run_engine_task(task: EngineTask) -> TaskOutput {
    // Chaos hook: `TP_FAULTS=…:task=panic@n` (containment) and
    // `task=delay:ms@n` (worker stall) land here, on the worker thread,
    // before any proof work. One lazily-armed atomic load when unused.
    crate::faultpoint::apply_inline("task");
    let worker = tp_sched::current_worker();
    match task {
        EngineTask::Replay(t) => {
            let span = tp_telemetry::span_start();
            let (len, digest) = lo_digest_len(&t.mcfg, &t.kcfg, t.lo, t.budget, t.max_steps);
            if let Some(start) = span {
                tp_telemetry::span(SpanKind::Replay, t.cell, worker, start);
            }
            TaskOutput::Replay(len, digest)
        }
        EngineTask::Run(t) => {
            let span = tp_telemetry::span_start();
            let run = t.monitored();
            if let Some(start) = span {
                tp_telemetry::span(SpanKind::Prove, t.cell, worker, start);
            }
            TaskOutput::Run(Box::new(ProofShard {
                p: run.p,
                f: run.f,
                t: run.t,
                steps: run.steps,
                lo_len: run.lo_len,
                monitored_digest: run.lo_digest,
                switch_digest: run.switch_digest,
            }))
        }
    }
}

/// Submit `tasks` to `pool` as one batch, each timed from submission
/// to start as a `queue-wait` span; outputs stream back in submission
/// order.
fn submit_engine_tasks(pool: &WorkerPool, tasks: Vec<EngineTask>) -> OrderedResults<TaskOutput> {
    let queued = tp_telemetry::span_start();
    pool.map_streamed(tasks, move |_, t| {
        if let Some(q) = queued {
            tp_telemetry::span(SpanKind::QueueWait, t.cell(), tp_sched::current_worker(), q);
        }
        run_engine_task(t)
    })
}

/// Each (model, secret) run's `(secret, lo_len, monitored_digest)`
/// observation fingerprint, model-major.
type Fingerprints = Vec<(u64, usize, u64)>;

/// Merge one proof's task outputs (consumed from `it` in submission
/// order) into a [`ProofReport`] identical to the sequential `prove`:
/// same verdicts, same violation order, same first witness, same step
/// count, same transparency certificate.
///
/// The stream leads with the mode's plain replays
/// ([`ProofMode::replays`]), then one monitored shard per (model,
/// secret). Each model's NI verdict compares `(len, digest)`
/// fingerprints — the monitored ones, or in replay-check mode the
/// replays'. `runs` are the proof's (model, secret) inputs in the same
/// model-major order: when a model's fingerprints disagree, the merge
/// re-runs the offending pair with recording sinks to extract the
/// witness — the only trace materialisation a proof ever performs.
///
/// Alongside the report, returns each run's
/// `(secret, lo_len, monitored_digest)` observation fingerprint in
/// model-major order — the evidence the proof cache stores and
/// re-validates on every hit.
fn merge_proof_stream(
    aisa: tp_hw::aisa::ConformanceReport,
    models: &[TimeModel],
    secrets: &[u64],
    mode: ProofMode,
    runs: &[ProofTask],
    it: &mut impl Iterator<Item = TaskOutput>,
) -> (ProofReport, Fingerprints) {
    let replays: Fingerprints = secrets
        .iter()
        .cycle()
        .take(mode.replays(runs.len()))
        .map(|&s| match it.next() {
            Some(TaskOutput::Replay(len, digest)) => (s, len, digest),
            _ => panic!("a proof stream leads with its plain replays"),
        })
        .collect();
    let mut p = ObligationResult::new("P");
    let mut f = ObligationResult::new("F");
    let mut t = ObligationResult::new("T");
    let mut ni = Vec::with_capacity(models.len());
    let mut steps = 0;
    let mut transparency: Option<TransparencyCert> = None;
    let mut fps = Vec::with_capacity(runs.len());
    for (mi, model) in models.iter().enumerate() {
        for &s in secrets {
            let shard = match it.next() {
                Some(TaskOutput::Run(s)) => *s,
                _ => panic!("one monitored shard per (model, secret)"),
            };
            fps.push((s, shard.lo_len, shard.monitored_digest));
            p.merge(shard.p);
            f.merge(shard.f);
            t.merge(shard.t);
            steps += shard.steps;
            if transparency.is_none() {
                transparency = Some(TransparencyCert {
                    monitored_digest: shard.monitored_digest,
                    replay_digest: replays[0].2,
                    switch_digest: shard.switch_digest,
                });
            }
        }
        let pairs = mi * secrets.len()..(mi + 1) * secrets.len();
        let baseline = match mode {
            ProofMode::Certified => &fps[pairs.clone()],
            ProofMode::ReplayCheck => &replays[pairs.clone()],
        };
        let verdict = compare_secret_digests(baseline).unwrap_or_else(|b| {
            // Fingerprint divergence: lockstep re-run of the baseline
            // and the offending secret with recording sinks, stopped at
            // the first diverging event. Sinks (and the read-only
            // monitors, per the transparency certification) cannot
            // influence execution, so the extracted witness is exactly
            // what the digest runs observed.
            let (a, other) = (&runs[pairs.start], &runs[pairs.start + b]);
            let span = tp_telemetry::span_start();
            let leak = lockstep_leak(
                a.build(),
                secrets[0],
                other.build(),
                secrets[b],
                a.lo,
                a.budget,
                a.max_steps,
            );
            if let Some(start) = span {
                let worker = tp_sched::current_worker();
                tp_telemetry::span(SpanKind::Lockstep, a.cell, worker, start);
            }
            leak
        });
        ni.push(ModelVerdict {
            model: *model,
            verdict,
        });
    }
    (
        ProofReport {
            aisa,
            p,
            f,
            t,
            ni,
            steps,
            transparency,
        },
        fps,
    )
}

/// The telemetry counter a cache validation-gauntlet rejection reports
/// under — one distinct counter per [`RejectReason`], so a sweep's
/// metrics say *why* entries were thrown out, not just how many.
fn reject_counter(r: crate::cache::RejectReason) -> Counter {
    use crate::cache::RejectReason as R;
    match r {
        R::SaltMismatch => Counter::CacheRejectSalt,
        R::KeyMismatch => Counter::CacheRejectKey,
        R::CellMismatch => Counter::CacheRejectCell,
        R::ChecksumMismatch => Counter::CacheRejectChecksum,
        R::FingerprintShape => Counter::CacheRejectFpShape,
        R::VerdictMismatch => Counter::CacheRejectVerdict,
        R::CertMismatch => Counter::CacheRejectCert,
    }
}

/// Guard the preconditions shared by every proof driver.
fn check_proof_inputs(scenario: &NiScenario, models: &[TimeModel]) {
    assert!(!models.is_empty(), "need at least one time model");
    assert!(
        scenario.secrets.len() >= 2,
        "need at least two secrets to compare"
    );
}

/// [`crate::proof::prove`], sharded over the (time-model × secret)
/// product on the process-wide [`tp_sched::global`] pool, in certified
/// single-run mode ([`ProofMode::Certified`]).
///
/// The resulting [`ProofReport`] is bit-identical to
/// `prove(scenario, models)` regardless of worker count or scheduling.
pub fn prove_parallel(scenario: &NiScenario, models: &[TimeModel]) -> ProofReport {
    prove_parallel_on(tp_sched::global(), scenario, models)
}

/// [`prove_parallel`] on an explicit pool.
pub fn prove_parallel_on(
    pool: &WorkerPool,
    scenario: &NiScenario,
    models: &[TimeModel],
) -> ProofReport {
    prove_parallel_mode(pool, scenario, models, ProofMode::Certified)
}

/// [`prove_parallel`] on an explicit pool with an explicit
/// [`ProofMode`] — [`ProofMode::ReplayCheck`] is the `--replay-check`
/// audit path that re-enables the paranoid double-run.
pub fn prove_parallel_mode(
    pool: &WorkerPool,
    scenario: &NiScenario,
    models: &[TimeModel],
    mode: ProofMode,
) -> ProofReport {
    check_proof_inputs(scenario, models);
    let aisa = check_conformance(&scenario.mcfg);
    let batch = proof_tasks(scenario, models, mode, 0);
    let mut outputs = submit_engine_tasks(pool, batch.tasks);
    merge_proof_stream(
        aisa,
        models,
        &scenario.secrets,
        mode,
        &batch.runs,
        &mut outputs,
    )
    .0
}

// ---------------------------------------------------------------------
// Exhaustive sharding
// ---------------------------------------------------------------------

/// Indices per work claim: small enough to balance, large enough to
/// keep scheduling traffic negligible next to a full system run.
const EXH_BLOCK: usize = 8;

/// Scan one contiguous index block digest-first against the baseline
/// fingerprint, pruning past any already-known lower-index leak in
/// `best`. Only a hit materialises traces: the witness is extracted by
/// a recording lockstep re-run of the baseline and the hit word.
/// Returns the block's lowest-index leak, keyed by its index.
fn scan_exhaustive_block(
    runner: &ExhaustiveRunner,
    alphabet: &[Instr],
    max_len: usize,
    baseline: (usize, u64),
    best: &AtomicUsize,
    start: usize,
    end: usize,
) -> Option<(usize, ExhaustiveVerdict)> {
    // One word buffer for the whole block: the scan only hands an owned
    // copy to the rare leak-extraction path.
    let mut word = Vec::new();
    let mut found = None;
    let mut scanned = 0u64;
    for index in start..=end {
        if index > best.load(Ordering::Relaxed) {
            break;
        }
        scanned += 1;
        assert!(
            word_for_index_into(alphabet, max_len, index, &mut word),
            "index is within the enumerated space"
        );
        if runner.run_digest(&word) != baseline {
            best.fetch_min(index, Ordering::Relaxed);
            found = Some((index, recorded_leak(runner, index, word)));
            break;
        }
    }
    // Per-block, not per-word: telemetry stays off the enumeration's
    // inner loop.
    tp_telemetry::count_n(Counter::ExhPrograms, scanned);
    found
}

/// [`crate::exhaustive::check_exhaustive`], sharded by index blocks on
/// the process-wide [`tp_sched::global`] pool — digest-first: each
/// Hi-word runs trace-free against the cached baseline fingerprint.
///
/// Workers record every leak they find; the verdict is the candidate
/// with the lowest program index. Because the sequential checker stops
/// at the first (= lowest-index) leak, the two drivers return the same
/// witness. A shared lowest-leak bound prunes work at higher indices,
/// and all shards run systems stamped from one [`ExhaustiveRunner`]
/// template instead of paying full construction per program.
pub fn check_exhaustive_parallel(cfg: &ExhaustiveConfig) -> ExhaustiveVerdict {
    check_exhaustive_parallel_on(tp_sched::global(), cfg)
}

/// [`check_exhaustive_parallel`] on an explicit pool.
pub fn check_exhaustive_parallel_on(
    pool: &WorkerPool,
    cfg: &ExhaustiveConfig,
) -> ExhaustiveVerdict {
    let runner = Arc::new(ExhaustiveRunner::new(cfg));
    let baseline = runner.run_digest(&[]);
    let total = space_size(cfg.alphabet.len(), cfg.max_len);
    let alphabet = Arc::new(cfg.alphabet.clone());
    let max_len = cfg.max_len;
    let best = Arc::new(AtomicUsize::new(usize::MAX));

    let blocks: Vec<usize> = (1..=total).step_by(EXH_BLOCK).collect();
    let found = pool.map(blocks, move |_, start| {
        let end = (start + EXH_BLOCK - 1).min(total);
        scan_exhaustive_block(&runner, &alphabet, max_len, baseline, &best, start, end)
    });
    match found.into_iter().flatten().min_by_key(|(index, _)| *index) {
        Some((_, leak)) => leak,
        None => ExhaustiveVerdict::Pass {
            programs: total + 1,
        },
    }
}

// ---------------------------------------------------------------------
// Scenario matrix
// ---------------------------------------------------------------------

/// One point of the sweep: a machine configuration paired with a
/// time-protection setting (full, or full-minus-one-mechanism).
#[derive(Debug, Clone, PartialEq)]
pub struct MatrixCell {
    /// Label of the machine configuration this cell runs on.
    pub machine: String,
    /// The machine configuration.
    pub mcfg: MachineConfig,
    /// The mechanism disabled in this cell (`None` = full protection).
    pub disable: Option<Mechanism>,
    /// The resulting protection setting.
    pub tp: TimeProtConfig,
}

impl MatrixCell {
    /// Human-readable cell label, e.g. `"llc-512x1 / -Padding"`.
    pub fn label(&self) -> String {
        match self.disable {
            Some(m) => format!("{} / -{m:?}", self.machine),
            None => format!("{} / full", self.machine),
        }
    }
}

/// Builder for a family of proof scenarios: the cross product of
/// machine configurations (cache geometry, core counts), mechanism
/// ablations and time models, flattened into one
/// (cell × model × secret) task list and proved in a single
/// [`ScenarioMatrix::run`] submission on the worker pool.
pub struct ScenarioMatrix {
    machines: Vec<(String, MachineConfig)>,
    ablations: Vec<Option<Mechanism>>,
    models: Vec<TimeModel>,
    mode: ProofMode,
}

impl ScenarioMatrix {
    /// A matrix holding just `base` under full protection and the
    /// default time-model family, in certified single-run mode.
    pub fn new(label: impl Into<String>, base: MachineConfig) -> Self {
        ScenarioMatrix {
            machines: vec![(label.into(), base)],
            ablations: vec![None],
            models: crate::proof::default_time_models(),
            mode: ProofMode::Certified,
        }
    }

    /// Prove every cell under an explicit [`ProofMode`] —
    /// [`ProofMode::ReplayCheck`] is the `--replay-check` audit sweep
    /// the equivalence suites pin [`ProofMode::Certified`] against.
    pub fn with_mode(mut self, mode: ProofMode) -> Self {
        self.mode = mode;
        self
    }

    /// The [`ProofMode`] every cell is proved under.
    pub fn mode(&self) -> ProofMode {
        self.mode
    }

    /// The first (base) machine configuration.
    fn base(&self) -> &MachineConfig {
        &self.machines[0].1
    }

    /// Add one named machine configuration.
    pub fn add_machine(mut self, label: impl Into<String>, mcfg: MachineConfig) -> Self {
        self.machines.push((label.into(), mcfg));
        self
    }

    /// Add variants of the base machine with the given LLC geometries
    /// (`(sets, ways)`). Sets must stay ≥ 256 when two coloured domains
    /// plus the kernel need distinct page colours (colours = sets / 64).
    pub fn sweep_llc(mut self, geometries: &[(usize, usize)]) -> Self {
        for &(sets, ways) in geometries {
            let mut mcfg = self.base().clone();
            if let Some(llc) = &mut mcfg.llc {
                llc.sets = sets;
                llc.ways = ways;
            } else {
                mcfg.llc = Some(CacheConfig {
                    sets,
                    ways,
                    ..CacheConfig::llc()
                });
            }
            self.machines.push((format!("llc-{sets}x{ways}"), mcfg));
        }
        self
    }

    /// Add variants of the base machine with the given core counts.
    pub fn sweep_cores(mut self, counts: &[usize]) -> Self {
        for &cores in counts {
            let mut mcfg = self.base().clone();
            mcfg.cores = cores;
            self.machines.push((format!("cores-{cores}"), mcfg));
        }
        self
    }

    /// Prove every cell twice over: once fully protected and once per
    /// single-mechanism ablation (the E11 sweep).
    pub fn sweep_ablations(mut self) -> Self {
        self.ablations = std::iter::once(None)
            .chain(Mechanism::ALL.into_iter().map(Some))
            .collect();
        self
    }

    /// Restrict the ablations to the given set (`None` = full).
    pub fn with_ablations(mut self, ablations: Vec<Option<Mechanism>>) -> Self {
        assert!(!ablations.is_empty(), "need at least one ablation setting");
        self.ablations = ablations;
        self
    }

    /// Replace the time-model family.
    pub fn with_models(mut self, models: Vec<TimeModel>) -> Self {
        assert!(!models.is_empty(), "need at least one time model");
        self.models = models;
        self
    }

    /// The time models every cell is proved under.
    pub fn models(&self) -> &[TimeModel] {
        &self.models
    }

    /// Materialise the cross product, machines outer, ablations inner.
    pub fn cells(&self) -> Vec<MatrixCell> {
        let mut out = Vec::with_capacity(self.machines.len() * self.ablations.len());
        for (label, mcfg) in &self.machines {
            for &disable in &self.ablations {
                out.push(MatrixCell {
                    machine: label.clone(),
                    mcfg: mcfg.clone(),
                    disable,
                    tp: match disable {
                        Some(m) => TimeProtConfig::full_without(m),
                        None => TimeProtConfig::full(),
                    },
                });
            }
        }
        out
    }

    /// Check every cell constructs cleanly: `check_conformance` runs on
    /// the machine and `System::new` accepts the kernel configuration
    /// (with the cell's machine and protection applied, exactly as
    /// [`ScenarioMatrix::run`] would) for every secret. Returns the
    /// number of (cell, secret) systems validated, or the first failing
    /// cell's label and error.
    pub fn validate<F>(&self, make_scenario: F) -> Result<usize, String>
    where
        F: Fn(&MatrixCell) -> NiScenario,
    {
        let mut validated = 0;
        for cell in self.cells() {
            let _ = check_conformance(&cell.mcfg);
            let scenario = apply_cell(make_scenario(&cell), &cell);
            for &s in &scenario.secrets {
                let kcfg = (scenario.make_kcfg)(s);
                System::new(scenario.mcfg.clone(), kcfg)
                    .map_err(|e| format!("{}: secret {s}: {e:?}", cell.label()))?;
                validated += 1;
            }
        }
        Ok(validated)
    }

    /// Prove every cell on the process-wide [`tp_sched::global`] pool.
    /// `make_scenario` builds the base scenario; the engine then
    /// overrides the scenario's machine with `cell.mcfg` **and** the
    /// kernel configuration's protection with `cell.tp`, so both halves
    /// of the sweep always apply — a callback that ignores the cell
    /// cannot hollow out the ablations.
    ///
    /// The whole sweep is flattened into one (cell × model × secret)
    /// task list and submitted in a single batch, so work stealing
    /// balances across cell boundaries and a single-cell matrix still
    /// saturates the pool.
    pub fn run<F>(&self, make_scenario: F) -> MatrixReport
    where
        F: Fn(&MatrixCell) -> NiScenario,
    {
        self.run_on(tp_sched::global(), make_scenario)
    }

    /// [`ScenarioMatrix::run`] on an explicit pool.
    pub fn run_on<F>(&self, pool: &WorkerPool, make_scenario: F) -> MatrixReport
    where
        F: Fn(&MatrixCell) -> NiScenario,
    {
        let all: Vec<usize> = (0..self.cells().len()).collect();
        let proved = self.run_subset_streamed(pool, &all, make_scenario, |_, _, _| {});
        MatrixReport {
            cells: proved.into_iter().map(|(_, c, r)| (c, r)).collect(),
        }
    }

    /// The engine's one sweep driver: prove the cells at `indices`
    /// (positions in [`ScenarioMatrix::cells`] order), flattened into
    /// one task-list submission on `pool`, streaming each cell's outcome
    /// to `on_cell` **in `indices` order** as soon as the cell is merged
    /// — cell 0 can be rendered while cell 40 is still running. Returns
    /// `(global index, cell, outcome)` for every selected cell.
    ///
    /// * **Cache.** With `Some(cache)`, each cell's content key
    ///   ([`crate::cache::cell_key`]) is looked up first and a
    ///   **validated** hit replays the stored report without running
    ///   anything; misses (absent, rejected or uncacheable cells) are
    ///   proved live, and freshly proved cacheable cells are inserted
    ///   back with their observation fingerprints (which appends them
    ///   to the cache's log, if it owns one). A hit's report equals
    ///   the live one whenever the key matches, and a hit that fails
    ///   validation degrades to a live re-prove — a bad cache can cost
    ///   time, never change output. `None` proves every cell live,
    ///   leaves [`CacheStats`] zero and counts no cache telemetry.
    /// * **Checkpoint hook.** `on_proved` fires once per freshly proved
    ///   cacheable cell — after the merge, right after the cache insert
    ///   — with the exact [`CachedMeta`] the cache stores, which is what
    ///   a [`crate::journal::JournalWriter`] appends. Hits, uncacheable
    ///   cells, failed cells and uncached sweeps never reach it, so a
    ///   warm or resumed run appends only what it actually re-proved.
    /// * **Fault containment.** A cell whose proof panics yields
    ///   `Err(panic message)` in its slot instead of unwinding into the
    ///   caller; the remaining cells still complete, stream and populate
    ///   the cache, and the failed cell is never cached, so a
    ///   resubmission re-proves it. This covers both places a proof can
    ///   panic: the sharded engine tasks (contained by the pool and
    ///   delivered through [`tp_sched::OrderedResults::next_outcome`];
    ///   the stream stays aligned because every task reports exactly one
    ///   outcome) and the consumer-side merge, where digest-divergence
    ///   lockstep re-runs execute.
    ///
    /// Every report is bit-identical to the sequential
    /// [`crate::proof::prove`] on the cell's scenario. This is also the
    /// multi-process sharding primitive: a `--worker` process proves its
    /// slice and serialises the triples ([`crate::wire`]); the merge
    /// step reassembles a report identical to a single-process run.
    /// Out-of-range indices panic — shards derive from the same matrix
    /// constructor on every host, so a mismatch is a driver bug.
    pub fn run_subset<F, C>(
        &self,
        pool: &WorkerPool,
        indices: &[usize],
        mut cache: Option<&mut ProofCache>,
        make_scenario: F,
        mut on_cell: C,
        mut on_proved: Option<OnProved<'_>>,
    ) -> (CellOutcomes, CacheStats)
    where
        F: Fn(&MatrixCell) -> NiScenario,
        C: FnMut(usize, &MatrixCell, &Result<ProofReport, String>),
    {
        /// A selected cell: a validated cache hit, or a live proof's
        /// merge inputs and its number of tasks in the batch.
        enum Plan {
            Hit(Box<ProofReport>),
            Miss {
                key: Option<u64>,
                aisa: tp_hw::aisa::ConformanceReport,
                secrets: Vec<u64>,
                runs: Vec<ProofTask>,
                tasks: usize,
            },
        }
        let all = self.cells();
        let mode = self.mode;
        let mut stats = CacheStats::default();
        let mut tasks = Vec::new();
        let mut plans = Vec::with_capacity(indices.len());
        for &ci in indices {
            let cell = &all[ci];
            let scenario = apply_cell(make_scenario(cell), cell);
            check_proof_inputs(&scenario, &self.models);
            let key = match cache.as_deref() {
                None => None,
                Some(c) => match lookup_cell(c, cell, &self.models, &scenario, mode, &mut stats) {
                    Ok(report) => {
                        plans.push((ci, Plan::Hit(report)));
                        continue;
                    }
                    Err(key) => key,
                },
            };
            let batch = proof_tasks(&scenario, &self.models, mode, ci);
            plans.push((
                ci,
                Plan::Miss {
                    key,
                    aisa: check_conformance(&cell.mcfg),
                    secrets: scenario.secrets.clone(),
                    runs: batch.runs,
                    tasks: batch.tasks.len(),
                },
            ));
            tasks.extend(batch.tasks);
        }

        let mut stream = submit_engine_tasks(pool, tasks);
        let mut out = Vec::with_capacity(indices.len());
        for (ci, plan) in plans {
            let cell = &all[ci];
            let result = match plan {
                Plan::Hit(report) => Ok(*report),
                Plan::Miss {
                    key,
                    aisa,
                    secrets,
                    runs,
                    tasks,
                } => {
                    // Drain this cell's full task quota even after a
                    // panic, so the next cell's outcomes line up.
                    let mut outputs = Vec::with_capacity(tasks);
                    let mut panic_msg = None;
                    for _ in 0..tasks {
                        match stream
                            .next_outcome()
                            .expect("one outcome per submitted engine task")
                        {
                            Ok(o) => outputs.push(o),
                            Err(payload) => {
                                panic_msg.get_or_insert_with(|| {
                                    tp_sched::panic_message(payload.as_ref()).to_string()
                                });
                            }
                        }
                    }
                    match panic_msg {
                        Some(msg) => Err(msg),
                        None => self.merge_cell(ci, aisa, &secrets, &runs, outputs),
                    }
                    .map(|(report, fps)| {
                        if let (Some(k), Some(c)) = (key, cache.as_deref_mut()) {
                            let meta = c.insert(ci, k, cell.clone(), report.clone(), fps);
                            if let Some(j) = on_proved.as_mut() {
                                j(ci, cell, &report, &meta);
                            }
                        }
                        report
                    })
                }
            };
            on_cell(ci, cell, &result);
            out.push((ci, cell.clone(), result));
        }
        (out, stats)
    }

    /// One live cell's ordered merge over its drained task outputs —
    /// the only work the `verify` span times. A panic in the merge (a
    /// lockstep witness re-run) becomes the cell's `Err`.
    fn merge_cell(
        &self,
        ci: usize,
        aisa: tp_hw::aisa::ConformanceReport,
        secrets: &[u64],
        runs: &[ProofTask],
        outputs: Vec<TaskOutput>,
    ) -> Result<(ProofReport, Fingerprints), String> {
        let span = tp_telemetry::span_start();
        let merged = catch_unwind(AssertUnwindSafe(|| {
            let mut it = outputs.into_iter();
            merge_proof_stream(aisa, &self.models, secrets, self.mode, runs, &mut it)
        }));
        if let Some(start) = span {
            tp_telemetry::span(SpanKind::Verify, ci, tp_sched::current_worker(), start);
        }
        merged.map_err(|payload| {
            tp_telemetry::count(Counter::TasksPanicked);
            tp_sched::panic_message(payload.as_ref()).to_string()
        })
    }

    /// [`ScenarioMatrix::run_subset`] uncached, unwrapped to plain
    /// reports: streams each finished cell to `on_cell` in `indices`
    /// order and panics, naming the cell, at the first cell whose proof
    /// failed — after every earlier cell has streamed.
    pub fn run_subset_streamed<F, C>(
        &self,
        pool: &WorkerPool,
        indices: &[usize],
        make_scenario: F,
        on_cell: C,
    ) -> Vec<(usize, MatrixCell, ProofReport)>
    where
        F: Fn(&MatrixCell) -> NiScenario,
        C: FnMut(usize, &MatrixCell, &ProofReport),
    {
        self.run_subset_unwrapped(pool, indices, None, make_scenario, on_cell, None)
            .0
    }

    /// [`ScenarioMatrix::run_subset_streamed`] backed by `cache`:
    /// validated hits replay, misses are proved live and inserted back
    /// (see [`ScenarioMatrix::run_subset`]). Output is byte-identical to
    /// the uncached sweep.
    pub fn run_subset_cached<F, C>(
        &self,
        pool: &WorkerPool,
        indices: &[usize],
        cache: &mut ProofCache,
        make_scenario: F,
        on_cell: C,
    ) -> (Vec<(usize, MatrixCell, ProofReport)>, CacheStats)
    where
        F: Fn(&MatrixCell) -> NiScenario,
        C: FnMut(usize, &MatrixCell, &ProofReport),
    {
        self.run_subset_unwrapped(pool, indices, Some(cache), make_scenario, on_cell, None)
    }

    /// [`ScenarioMatrix::run_subset_cached`] with the checkpoint hook
    /// `on_proved` of [`ScenarioMatrix::run_subset`].
    pub fn run_subset_journaled<F, C>(
        &self,
        pool: &WorkerPool,
        indices: &[usize],
        cache: &mut ProofCache,
        make_scenario: F,
        on_cell: C,
        on_proved: Option<OnProved<'_>>,
    ) -> (Vec<(usize, MatrixCell, ProofReport)>, CacheStats)
    where
        F: Fn(&MatrixCell) -> NiScenario,
        C: FnMut(usize, &MatrixCell, &ProofReport),
    {
        self.run_subset_unwrapped(
            pool,
            indices,
            Some(cache),
            make_scenario,
            on_cell,
            on_proved,
        )
    }

    /// The unwrap the panicking entry points share: a failed cell
    /// panics inside the `on_cell` adapter, so the sweep still fails at
    /// that cell.
    fn run_subset_unwrapped<F, C>(
        &self,
        pool: &WorkerPool,
        indices: &[usize],
        cache: Option<&mut ProofCache>,
        make_scenario: F,
        mut on_cell: C,
        on_proved: Option<OnProved<'_>>,
    ) -> (Vec<(usize, MatrixCell, ProofReport)>, CacheStats)
    where
        F: Fn(&MatrixCell) -> NiScenario,
        C: FnMut(usize, &MatrixCell, &ProofReport),
    {
        let unwrap =
            |ci: usize, cell: &MatrixCell, outcome: &Result<ProofReport, String>| match outcome {
                Ok(report) => on_cell(ci, cell, report),
                Err(msg) => panic!("matrix cell {ci} ({}) failed: {msg}", cell.label()),
            };
        let (outcomes, stats) =
            self.run_subset(pool, indices, cache, make_scenario, unwrap, on_proved);
        let proved = outcomes
            .into_iter()
            .map(|(ci, cell, r)| (ci, cell, r.expect("a failed cell panics in on_cell")))
            .collect();
        (proved, stats)
    }
}

/// Look `cell` up in `cache`, counting the outcome in `stats` and
/// telemetry: `Ok` is a validated hit's stored report, `Err` the
/// content key (`None` = uncacheable) a live proof is inserted under.
fn lookup_cell(
    cache: &ProofCache,
    cell: &MatrixCell,
    models: &[TimeModel],
    scenario: &NiScenario,
    mode: ProofMode,
    stats: &mut CacheStats,
) -> Result<Box<ProofReport>, Option<u64>> {
    let Some(k) = crate::cache::cell_key(cell, models, scenario, mode) else {
        stats.uncacheable += 1;
        tp_telemetry::count(Counter::CacheUncacheable);
        return Err(None);
    };
    match cache.lookup(k, cell, models, &scenario.secrets) {
        Ok(entry) => {
            stats.hits += 1;
            tp_telemetry::count(Counter::CacheHits);
            return Ok(Box::new(entry.report.clone()));
        }
        Err(CacheMiss::Absent) => {
            stats.misses += 1;
            tp_telemetry::count(Counter::CacheMisses);
        }
        Err(CacheMiss::Rejected(r)) => {
            stats.rejected += 1;
            tp_telemetry::count(reject_counter(r));
        }
    }
    Err(Some(k))
}

/// Specialise a base scenario to one matrix cell: the cell's machine
/// replaces the scenario's, and the cell's protection setting is forced
/// into every kernel configuration the scenario builds.
fn apply_cell(mut scenario: NiScenario, cell: &MatrixCell) -> NiScenario {
    scenario.mcfg = cell.mcfg.clone();
    let tp = cell.tp;
    let inner = scenario.make_kcfg;
    scenario.make_kcfg = Box::new(move |secret| {
        let mut kcfg = inner(secret);
        kcfg.tp = tp;
        kcfg
    });
    scenario
}

/// The per-cell results of the sweep driver
/// ([`ScenarioMatrix::run_subset`]): each selected
/// cell's global index and either its proved report or the panic
/// message of the task that took it down.
pub type CellOutcomes = Vec<(usize, MatrixCell, Result<ProofReport, String>)>;

/// The checkpoint hook of [`ScenarioMatrix::run_subset`] (and
/// [`ScenarioMatrix::run_subset_journaled`]): invoked once per freshly proved cacheable cell with the cell's
/// global index, its coordinates, the merged report, and the exact
/// cache metadata a journal record (or cache entry) stores.
pub type OnProved<'a> = &'a mut dyn FnMut(usize, &MatrixCell, &ProofReport, &CachedMeta);

/// The outcome of a [`ScenarioMatrix::run`]: one [`ProofReport`] per
/// cell, in cell order.
#[derive(Debug, PartialEq)]
pub struct MatrixReport {
    /// Every cell with its proof report.
    pub cells: Vec<(MatrixCell, ProofReport)>,
}

impl MatrixReport {
    /// Cells whose proof succeeded.
    pub fn proved(&self) -> usize {
        self.cells
            .iter()
            .filter(|(_, r)| r.time_protection_proved())
            .count()
    }

    /// Whether every fully-protected cell proved time protection.
    pub fn full_protection_proved(&self) -> bool {
        self.cells
            .iter()
            .filter(|(c, _)| c.disable.is_none())
            .all(|(_, r)| r.time_protection_proved())
    }

    /// The ablation cells that (correctly) failed the proof, as
    /// (cell, report) pairs — each carries a concrete leak witness.
    pub fn leaking_ablations(&self) -> Vec<&(MatrixCell, ProofReport)> {
        self.cells
            .iter()
            .filter(|(c, r)| c.disable.is_some() && !r.time_protection_proved())
            .collect()
    }
}

impl core::fmt::Display for MatrixReport {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        writeln!(
            f,
            "=== Scenario matrix: {} cells, {} proved ===",
            self.cells.len(),
            self.proved()
        )?;
        for (cell, report) in &self.cells {
            writeln!(
                f,
                "  {:<28} {}  ({} steps)",
                cell.label(),
                if report.time_protection_proved() {
                    "PROVED"
                } else {
                    "NOT proved"
                },
                report.steps
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matrix_cells_cross_product() {
        let m = ScenarioMatrix::new("base", MachineConfig::tiny())
            .sweep_llc(&[(256, 1), (512, 2)])
            .sweep_ablations();
        assert_eq!(m.cells().len(), 3 * 7, "3 machines × (full + 6 ablations)");
        let labels: Vec<String> = m.cells().iter().map(|c| c.label()).collect();
        assert!(labels.contains(&"llc-512x2 / -Padding".to_string()));
        assert!(labels.contains(&"base / full".to_string()));
    }

    #[test]
    fn available_threads_is_positive() {
        assert!(available_threads() >= 1);
    }

    /// The engine must force `cell.tp` into the kernel configuration:
    /// even a callback that hardcodes full protection and ignores the
    /// cell gets leaking ablation cells.
    #[test]
    fn run_on_applies_cell_protection_despite_oblivious_callback() {
        use crate::noninterference::{check_noninterference, NiVerdict};
        use tp_kernel::config::{DomainSpec, KernelConfig};
        use tp_kernel::layout::data_addr;
        use tp_kernel::program::TraceProgram;

        let make = || NiScenario {
            mcfg: MachineConfig::single_core(),
            make_kcfg: Box::new(|secret| {
                let hi = TraceProgram::new(
                    (0..secret * 40)
                        .map(|i| Instr::Store(data_addr((i * 64) % (8 * 4096))))
                        .collect(),
                );
                let mut lo = Vec::new();
                for _ in 0..15 {
                    for i in 0..24 {
                        lo.push(Instr::Load(data_addr(i * 64)));
                    }
                    lo.push(Instr::ReadClock);
                }
                lo.push(Instr::Halt);
                KernelConfig::new(vec![
                    DomainSpec::new(Box::new(hi))
                        .with_slice(Cycles(15_000))
                        .with_pad(Cycles(25_000)),
                    DomainSpec::new(Box::new(TraceProgram::new(lo)))
                        .with_slice(Cycles(15_000))
                        .with_pad(Cycles(25_000)),
                ])
                // Hardcoded full protection: the cell must override it.
                .with_tp(TimeProtConfig::full())
            }),
            lo: DomainId(1),
            secrets: vec![0, 6],
            budget: Cycles(350_000),
            max_steps: 150_000,
        };

        let matrix = ScenarioMatrix::new("base", MachineConfig::single_core())
            .with_ablations(vec![None, Some(Mechanism::Padding)])
            .with_models(vec![MachineConfig::single_core().time_model]);
        let report = matrix.run_on(&WorkerPool::new(2), |_| make());
        let verdicts: Vec<(MatrixCell, NiVerdict)> = report
            .cells
            .into_iter()
            .map(|(cell, proof)| (cell, proof.ni[0].verdict.clone()))
            .collect();
        assert_eq!(verdicts.len(), 2);
        assert!(
            verdicts[0].1.passed(),
            "full-protection cell must pass: {}",
            verdicts[0].1
        );
        for (cell, v) in &verdicts[1..] {
            assert!(
                !v.passed(),
                "{}: ablation must leak even though the callback ignored the cell",
                cell.label()
            );
        }

        // And each cell's verdict equals the sequential checker run on
        // the equivalently-ablated scenario.
        for (cell, v) in &verdicts {
            let mut sc = make();
            sc.make_kcfg = {
                let tp = cell.tp;
                let inner = make().make_kcfg;
                Box::new(move |s| {
                    let mut k = inner(s);
                    k.tp = tp;
                    k
                })
            };
            assert_eq!(v, &check_noninterference(&sc), "{}", cell.label());
        }
    }
}
