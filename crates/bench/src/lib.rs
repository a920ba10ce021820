//! # tp-bench — the experiment harness
//!
//! One report generator per experiment (E1–E11, see DESIGN.md §4). Each
//! `report_*` function regenerates the experiment's table/series from
//! the runners in `tp-attacks`/`tp-core` and formats it exactly as
//! EXPERIMENTS.md records it. The binaries (`src/bin/e*.rs`) print the
//! reports; the Criterion benches (`benches/`) time the same runners.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cli;
pub mod trajectory;

use std::fmt::Write as _;

use tp_attacks::channel::ChannelMatrix;
use tp_attacks::experiments as exp;
use tp_core::noninterference::NiScenario;
use tp_hw::clock::TimeModel;
use tp_hw::interconnect::MbaThrottle;
use tp_hw::machine::MachineConfig;
use tp_hw::types::Cycles;
use tp_kernel::config::{DomainSpec, KernelConfig, Mechanism, TimeProtConfig};
use tp_kernel::domain::DomainId;
use tp_kernel::layout::data_addr;
use tp_kernel::program::{Instr, SyscallReq, TraceProgram};

/// Time `iters` iterations of `f` (after one untimed warm-up run) and
/// return (total, min) wall time. Shared by the std-only bench binaries
/// in `benches/`, which format the numbers to taste.
pub fn time_iters<R>(
    iters: u32,
    mut f: impl FnMut() -> R,
) -> (std::time::Duration, std::time::Duration) {
    use std::hint::black_box;
    black_box(f());
    let mut total = std::time::Duration::ZERO;
    let mut min = std::time::Duration::MAX;
    for _ in 0..iters {
        let t0 = std::time::Instant::now();
        black_box(f());
        let dt = t0.elapsed();
        total += dt;
        min = min.min(dt);
    }
    (total, min)
}

/// Host metadata shared by the bench trajectory and telemetry
/// manifests: `(cpus, git_rev, unix_time)` — hardware parallelism,
/// `git rev-parse --short HEAD` (or `"unknown"`), and seconds since the
/// Unix epoch.
pub fn host_info() -> (usize, String, u64) {
    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    let git_rev = std::process::Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string());
    let unix_time = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.as_secs());
    (cpus, git_rev, unix_time)
}

/// The `cache:` stderr line every binary prints after a cached sweep —
/// one formatter ([`tp_telemetry::cache_line`]) for the ad-hoc line and
/// the `--metrics` table, so the cold/warm CI job greps one schema.
pub fn cache_summary(stats: &tp_core::CacheStats, entries: usize) -> String {
    tp_telemetry::cache_line(
        stats.hits,
        stats.misses,
        stats.rejected,
        stats.uncacheable,
        entries,
    )
}

/// Open the proof store at `path` ([`tp_core::ProofCache::open`]) for a
/// binary named `bin`, exiting on failure: a file that is not a proof
/// log is malformed input ([`cli::EXIT_MALFORMED`], the file left
/// untouched), and one that cannot be read or appended to is an I/O
/// error (exit 2). The returned cache owns the log. Prints the
/// `journal: loaded …` (or `not found`) line to stderr.
pub fn open_store(
    bin: &str,
    path: &std::path::Path,
) -> (tp_core::ProofCache, tp_core::JournalStats) {
    let shown = path.display();
    match tp_core::ProofCache::open(path) {
        Ok((cache, None)) => {
            eprintln!("journal: {shown} not found, starting cold");
            (cache, Default::default())
        }
        Ok((cache, Some(stats))) => {
            eprintln!(
                "journal: loaded {} records ({} torn-dropped) from {shown}",
                stats.records, stats.torn_dropped
            );
            (cache, stats)
        }
        Err(e) if e.kind() == std::io::ErrorKind::InvalidData => {
            eprintln!("{bin}: cannot parse cache {shown}: {e}");
            std::process::exit(cli::EXIT_MALFORMED);
        }
        Err(e) => {
            eprintln!("{bin}: cannot open cache {shown}: {e}");
            std::process::exit(2);
        }
    }
}

/// One `--progress` heartbeat line: completed/total cells, elapsed wall
/// time, and a linear ETA extrapolated from the streaming completion
/// order. Pure so it is testable; the binaries decide when (and
/// whether) to print it.
pub fn eta_line(done: usize, total: usize, elapsed: std::time::Duration) -> String {
    let secs = elapsed.as_secs_f64();
    // An empty sweep has completed none of its zero cells — 0%, not
    // the 100% a naive 0/0 fallback reports.
    let pct = (done * 100).checked_div(total).unwrap_or(0);
    if done == 0 || total == 0 {
        return format!("progress: {done}/{total} cells ({pct}%), elapsed {secs:.1}s");
    }
    let eta = secs * (total - done) as f64 / done as f64;
    format!("progress: {done}/{total} cells ({pct}%), elapsed {secs:.1}s, eta {eta:.1}s")
}

/// A telemetry snapshot as a [`trajectory::Json`] object: every counter
/// by its wire name (plus `pool_peak_queue`), and per-span-kind
/// `{"n", "total_us"}` aggregates.
pub fn telemetry_json(snap: &tp_telemetry::Snapshot) -> trajectory::Json {
    use trajectory::Json;
    let mut counters: Vec<(String, Json)> = tp_telemetry::Counter::ALL
        .iter()
        .map(|&c| (c.name().to_string(), Json::Num(snap.counter(c) as f64)))
        .collect();
    counters.push(("pool_peak_queue".into(), Json::Num(snap.peak_queue as f64)));
    let spans: Vec<(String, Json)> = tp_telemetry::SpanKind::ALL
        .iter()
        .map(|&k| {
            let (n, us) = snap.span(k);
            (
                k.name().to_string(),
                Json::Obj(vec![
                    ("n".into(), Json::Num(n as f64)),
                    ("total_us".into(), Json::Num(us as f64)),
                ]),
            )
        })
        .collect();
    Json::Obj(vec![
        ("counters".into(), Json::Obj(counters)),
        ("spans".into(), Json::Obj(spans)),
    ])
}

/// The per-run manifest record a trace file ends with: provenance
/// (git rev, timestamp), sizing (threads, cpus, flags, cell count),
/// wall time, and the full counter/span totals — rendered as one
/// compact JSON line (schema `tp-telemetry/v1`).
pub fn telemetry_manifest(flags: &str, cells: usize, snap: &tp_telemetry::Snapshot) -> String {
    use trajectory::Json;
    let (cpus, git_rev, unix_time) = host_info();
    let threads = tp_sched::global().threads();
    let mut members = vec![
        ("t".to_string(), Json::Str("manifest".into())),
        ("schema".to_string(), Json::Str("tp-telemetry/v1".into())),
        ("git_rev".to_string(), Json::Str(git_rev)),
        ("unix_time".to_string(), Json::Num(unix_time as f64)),
        ("threads".to_string(), Json::Num(threads as f64)),
        ("cpus".to_string(), Json::Num(cpus as f64)),
        ("flags".to_string(), Json::Str(flags.to_string())),
        ("cells".to_string(), Json::Num(cells as f64)),
        (
            "wall_ms".to_string(),
            Json::Num((snap.wall.as_micros() as f64) / 1000.0),
        ),
    ];
    let Json::Obj(tele) = telemetry_json(snap) else {
        unreachable!("telemetry_json returns an object");
    };
    members.extend(tele);
    let mut out = String::new();
    Json::Obj(members).render_compact(&mut out);
    out
}

/// Install the telemetry sink a binary's flags ask for: JSON-lines when
/// tracing (counting is included), counters for `--metrics` alone, and
/// nothing — the null fast path — when both are off.
pub fn install_sink(metrics: bool, tracing: bool) {
    if tracing {
        tp_telemetry::install(tp_telemetry::TelemetrySink::json_lines());
    } else if metrics {
        tp_telemetry::install(tp_telemetry::TelemetrySink::counters());
    }
}

/// Post-run telemetry surfacing, shared by `bin/matrix`, `bin/bench`
/// and `bin/all`: print the `--metrics` summary table to stderr, and
/// write the drained span trace plus the run manifest to `--trace-out`.
/// `cells` is the number of proof cells the run covered (manifest
/// bookkeeping only).
pub fn finish_telemetry(metrics: bool, trace_out: Option<&str>, cells: usize) {
    let Some(snap) = tp_telemetry::snapshot() else {
        return;
    };
    if metrics {
        eprint!("{}", snap.render_table());
    }
    if let Some(path) = trace_out {
        let mut trace = tp_telemetry::take_trace().unwrap_or_default();
        let flags: Vec<String> = std::env::args().skip(1).collect();
        trace.push_str(&telemetry_manifest(&flags.join(" "), cells, &snap));
        trace.push('\n');
        // Atomic replace: a crash mid-write must not leave a torn
        // trace a tooling pass would half-parse.
        if let Err(e) = tp_core::persist::write_atomic(std::path::Path::new(path), trace.as_bytes())
        {
            eprintln!("telemetry: cannot write trace {path}: {e}");
        }
    }
}

/// Format a channel matrix summary line.
pub fn matrix_summary(name: &str, m: &ChannelMatrix) -> String {
    format!(
        "{name}: n={} MI={:.3} bits  capacity={:.3} bits  correct={:.1}%",
        m.samples(),
        m.mutual_information(),
        m.capacity(100),
        m.correct_rate() * 100.0
    )
}

/// E1 / Figure 1: the downgrader pipeline.
pub fn report_e1() -> String {
    let mut out = String::new();
    let secrets = [0u64, 0xff, 0xffff, 0xffff_ffff, 0xffff_ffff_ffff, u64::MAX];
    writeln!(out, "E1 (Figure 1): encryption downgrader → network stack").unwrap();
    writeln!(
        out,
        "  ciphertext delivery time observed by the network domain"
    )
    .unwrap();
    writeln!(
        out,
        "  {:>8} | {:>16} | {:>16}",
        "weight", "leaky IPC", "deterministic"
    )
    .unwrap();
    let leaky = exp::e1_series(false, &secrets, TimeModel::intel_like());
    let fixed = exp::e1_series(true, &secrets, TimeModel::intel_like());
    for ((w, l), (_, d)) in leaky.iter().zip(fixed.iter()) {
        writeln!(out, "  {:>8} | {:>16} | {:>16}", w, l, d).unwrap();
    }
    writeln!(
        out,
        "  -> leaky delivery grows with secret Hamming weight; deterministic delivery is constant"
    )
    .unwrap();
    out
}

/// E2: prime-and-probe over the time-shared L1.
pub fn report_e2(symbols: &[usize]) -> String {
    let mut out = String::new();
    writeln!(
        out,
        "E2: L1 prime-and-probe covert channel (64-symbol alphabet)"
    )
    .unwrap();
    let open = exp::e2_l1_prime_probe(TimeProtConfig::off(), symbols, TimeModel::intel_like());
    let shut = exp::e2_l1_prime_probe(TimeProtConfig::full(), symbols, TimeModel::intel_like());
    writeln!(out, "  {}", matrix_summary("no protection ", &open)).unwrap();
    writeln!(out, "  {}", matrix_summary("full protection", &shut)).unwrap();
    // Bandwidth: one transmission costs the E2 run budget; report the
    // rate a 2 GHz part would sustain (the unit Cock et al. use).
    let cycles_per_obs = 8 * (exp::SLICE + exp::PAD);
    let rate = tp_attacks::channel::channel_rate(open.capacity(100), cycles_per_obs, 2.0e9);
    writeln!(
        out,
        "  open-channel bandwidth at 2 GHz: {:.0} bit/s ({:.0} transmissions/s)",
        rate.bits_per_sec, rate.observations_per_sec
    )
    .unwrap();
    writeln!(
        out,
        "  -> flushing on domain switch closes the L1 channel (§4.1)"
    )
    .unwrap();
    out
}

/// E3: prime-and-probe over the concurrently shared LLC.
pub fn report_e3(symbols: &[usize]) -> String {
    let mut out = String::new();
    writeln!(
        out,
        "E3: concurrent LLC prime-and-probe ({}-colour alphabet)",
        exp::E3_COLOURS
    )
    .unwrap();
    let open = exp::e3_llc_channel(false, symbols, TimeModel::intel_like());
    let shut = exp::e3_llc_channel(true, symbols, TimeModel::intel_like());
    writeln!(out, "  {}", matrix_summary("shared colours  ", &open)).unwrap();
    writeln!(out, "  {}", matrix_summary("disjoint colours", &shut)).unwrap();
    writeln!(
        out,
        "  -> page colouring closes the cross-core LLC channel; flushing cannot (§4.1)"
    )
    .unwrap();
    out
}

/// E4: domain-switch latency vs dirty lines.
pub fn report_e4() -> String {
    let mut out = String::new();
    let sweep = [0u64, 32, 96, 192, 384];
    writeln!(
        out,
        "E4: domain-switch completion vs dirty-line count (§4.2)"
    )
    .unwrap();
    writeln!(
        out,
        "  {:>12} | {:>16} | {:>16}",
        "dirty lines", "unpadded", "padded"
    )
    .unwrap();
    let unpadded = exp::e4_switch_latency(false, &sweep);
    let padded = exp::e4_switch_latency(true, &sweep);
    for ((l, u), (_, p)) in unpadded.iter().zip(padded.iter()) {
        writeln!(out, "  {:>12} | {:>16} | {:>16}", l, u, p).unwrap();
    }
    writeln!(
        out,
        "  -> unpadded switch time tracks history (a channel); padding pins it to slice+pad = {}",
        exp::E4_SLICE + exp::PAD
    )
    .unwrap();
    out
}

/// E5: the interrupt channel.
pub fn report_e5() -> String {
    let mut out = String::new();
    let delays = exp::e5_victim_slice_delays();
    writeln!(out, "E5: trojan-triggered I/O completion interrupt (§4.2)").unwrap();
    let open = exp::e5_irq_channel(false, &delays, TimeModel::intel_like());
    let shut = exp::e5_irq_channel(true, &delays, TimeModel::intel_like());
    writeln!(out, "  {}", matrix_summary("no partitioning ", &open)).unwrap();
    writeln!(out, "  {}", matrix_summary("IRQ partitioning", &shut)).unwrap();
    writeln!(
        out,
        "  -> masking foreign-domain interrupts defers them to the owner's slice"
    )
    .unwrap();
    out
}

/// E6: the kernel-image sharing channel and kernel clone.
pub fn report_e6(trials: usize) -> String {
    let mut out = String::new();
    writeln!(
        out,
        "E6: kernel-text channel (Flush+Reload analogue) and kernel clone (§4.2)"
    )
    .unwrap();
    let base = TimeModel::intel_like();
    writeln!(
        out,
        "  shared image : spy cold-syscall latency quiet={} / trojan-warm={}",
        exp::e6_syscall_latency(false, false, base),
        exp::e6_syscall_latency(false, true, base)
    )
    .unwrap();
    writeln!(
        out,
        "  cloned image : spy cold-syscall latency quiet={} / trojan-warm={}",
        exp::e6_syscall_latency(true, false, base),
        exp::e6_syscall_latency(true, true, base)
    )
    .unwrap();
    let open = exp::e6_kernel_clone_channel(false, trials);
    let shut = exp::e6_kernel_clone_channel(true, trials);
    writeln!(out, "  {}", matrix_summary("shared image", &open)).unwrap();
    writeln!(out, "  {}", matrix_summary("kernel clone", &shut)).unwrap();
    writeln!(
        out,
        "  -> even read-only sharing of kernel text is a channel; cloning closes it"
    )
    .unwrap();
    out
}

/// E7: the proof harness on the canonical scenario, sharded over the
/// (time-model × secret) product on the persistent worker pool.
pub fn report_e7() -> String {
    let scenario = canonical_scenario(None);
    let report = tp_core::engine::prove_parallel(&scenario, &tp_core::default_time_models());
    let mut out = String::new();
    writeln!(out, "E7: discharging the §5 proof obligations").unwrap();
    write!(out, "{report}").unwrap();
    out
}

/// E8: the TLB/ASID partitioning theorem (§5.3), checked by randomised
/// mutation sequences.
pub fn report_e8(rounds: usize) -> String {
    use tp_hw::tlb::{Tlb, TlbEntry};
    use tp_hw::types::{mix64, Asid, DomainTag, VAddr};
    let mut out = String::new();
    writeln!(out, "E8: TLB partitioning theorem (Syeda & Klein, §5.3)").unwrap();
    let mut violations = 0;
    let mut checks = 0;
    for seed in 0..rounds as u64 {
        let mut tlb = Tlb::new(64);
        // Keep ASID 2's view fixed while ASID 1 churns.
        tlb.insert(TlbEntry {
            asid: Asid(2),
            vpn: 7,
            pfn: 70,
            writable: true,
            global: false,
            owner: DomainTag(2),
        });
        let before = tlb.asid_digest(Asid(2));
        for step in 0..200u64 {
            let r = mix64(seed * 1_000 + step);
            let vpn = r % 32;
            match r % 3 {
                0 => {
                    // Bound ASID-1 entries so capacity evictions cannot
                    // touch ASID 2 (the theorem's side condition).
                    if tlb.occupancy() < 60 {
                        tlb.insert(TlbEntry {
                            asid: Asid(1),
                            vpn: 100 + vpn,
                            pfn: vpn,
                            writable: r % 2 == 0,
                            global: false,
                            owner: DomainTag(1),
                        });
                    }
                }
                1 => {
                    tlb.invalidate_page(Asid(1), VAddr((100 + vpn) << 12));
                }
                _ => {
                    tlb.flush_asid(Asid(1));
                }
            }
            checks += 1;
            if tlb.asid_digest(Asid(2)) != before {
                violations += 1;
            }
        }
    }
    writeln!(
        out,
        "  {checks} randomised page-table operations under ASID 1; \
         ASID 2 digest changed {violations} times"
    )
    .unwrap();
    writeln!(
        out,
        "  -> theorem {}",
        if violations == 0 { "HOLDS" } else { "VIOLATED" }
    )
    .unwrap();
    out
}

/// E9: algorithmic channel closed by execution padding.
pub fn report_e9() -> String {
    let mut out = String::new();
    writeln!(
        out,
        "E9: square-and-multiply timing channel and padding (§4.3)"
    )
    .unwrap();
    // Raw modexp time by weight (the algorithmic channel itself).
    writeln!(
        out,
        "  {:>8} | {:>14} | {:>18}",
        "weight", "exec cycles", "padded delivery"
    )
    .unwrap();
    for weight in [0u32, 16, 32, 48, 64] {
        let secret = if weight == 0 {
            0
        } else {
            u64::MAX >> (64 - weight)
        };
        let exec = 64 * 30 + weight as u64 * 90; // square + multiply costs
        let delivery = exp::e1_delivery_time(true, secret, TimeModel::intel_like());
        writeln!(out, "  {:>8} | {:>14} | {:>18}", weight, exec, delivery).unwrap();
    }
    writeln!(
        out,
        "  -> execution time spans {}..{} cycles, yet padded delivery is constant",
        64 * 30,
        64 * 30 + 64 * 90
    )
    .unwrap();
    // Interim-process padding (§4.3): same constant delivery, wasted
    // cycles reclaimed by a filler process of the Hi domain.
    let (d0, r0) = exp::e9_filler_utilisation(0, TimeModel::intel_like());
    let (d1, r1) = exp::e9_filler_utilisation(u64::MAX, TimeModel::intel_like());
    writeln!(
        out,
        "  interim-process padding: delivery {}/{} (constant), filler reclaimed {}/{} cycles",
        d0, d1, r0, r1
    )
    .unwrap();
    out
}

/// E12: the branch-predictor channel (Spectre-class state).
pub fn report_e12(trials: usize) -> String {
    let mut out = String::new();
    writeln!(
        out,
        "E12: branch-predictor training channel (§3.1; Spectre-class state)"
    )
    .unwrap();
    let open = exp::e12_bp_channel(TimeProtConfig::off(), trials);
    let shut = exp::e12_bp_channel(TimeProtConfig::full(), trials);
    writeln!(out, "  {}", matrix_summary("no flushing   ", &open)).unwrap();
    writeln!(out, "  {}", matrix_summary("predictor flush", &shut)).unwrap();
    writeln!(
        out,
        "  -> PHT/BTB training by one domain steers another's branch timing;\n     \
         resetting predictor state on domain switch closes it"
    )
    .unwrap();
    out
}

/// E13: the hyperthread channel and the co-scheduling prohibition.
pub fn report_e13(symbols: &[usize]) -> String {
    let mut out = String::new();
    writeln!(
        out,
        "E13: hyperthread channel (§4.1: hyperthreading is fundamentally insecure)"
    )
    .unwrap();
    let open = exp::e13_smt_channel(true, symbols, TimeModel::intel_like());
    let shut = exp::e13_smt_channel(false, symbols, TimeModel::intel_like());
    writeln!(out, "  {}", matrix_summary("sibling threads ", &open)).unwrap();
    writeln!(out, "  {}", matrix_summary("separate cores  ", &shut)).unwrap();
    let mut smt_cfg = exp::smt_machine();
    smt_cfg.time_model = TimeModel::intel_like();
    let aisa = tp_hw::check_conformance(&smt_cfg);
    writeln!(
        out,
        "  aISA verdict for the SMT machine: conformant-modulo-interconnect = {} (violations {:?})",
        aisa.conformant_modulo_interconnect(),
        aisa.violations()
    )
    .unwrap();
    writeln!(
        out,
        "  -> no switch ever separates sibling threads, so neither flushing nor colouring\n     \
         applies; the only defence is never co-scheduling different domains"
    )
    .unwrap();
    out
}

/// E10: the stateless-interconnect channel (out of scope for the OS).
pub fn report_e10() -> String {
    let mut out = String::new();
    writeln!(
        out,
        "E10: stateless-interconnect covert channel (§2 scope limit)"
    )
    .unwrap();
    writeln!(
        out,
        "  {:>24} | {:>12} | {:>12}",
        "configuration", "quiet", "busy"
    )
    .unwrap();
    let plain = exp::e10_interconnect(None, TimeModel::intel_like());
    writeln!(
        out,
        "  {:>24} | {:>12} | {:>12}",
        "no mitigation", plain.quiet_median, plain.busy_median
    )
    .unwrap();
    for (label, max_req, stall) in [
        ("MBA max=8/window", 8u32, 200u64),
        ("MBA max=4/window", 4, 300),
        ("MBA max=2/window", 2, 400),
    ] {
        let s = exp::e10_interconnect(
            Some(MbaThrottle {
                max_requests_per_window: max_req,
                throttle_stall: stall,
            }),
            TimeModel::intel_like(),
        );
        writeln!(
            out,
            "  {:>24} | {:>12} | {:>12}",
            label, s.quiet_median, s.busy_median
        )
        .unwrap();
    }
    let m = exp::e10_channel(None, 6);
    writeln!(out, "  {}", matrix_summary("channel (no mitigation)", &m)).unwrap();
    writeln!(
        out,
        "  -> the channel stays open under full time protection and under MBA-style throttling;\n     \
         closing it needs hardware bandwidth partitioning (the paper's footnote 1)"
    )
    .unwrap();
    out
}

/// The machine for the canonical scenario: a direct-mapped LLC so that
/// single-line insertions evict (making LLC interference visible with
/// small workloads), no L2, 8 page colours.
pub fn canonical_machine() -> MachineConfig {
    use tp_hw::cache::{CacheConfig, ReplacementPolicy};
    MachineConfig {
        l2: None,
        llc: Some(CacheConfig {
            sets: 512,
            ways: 1,
            write_back: true,
            policy: ReplacementPolicy::Lru,
        }),
        mem_frames: 2048,
        ..MachineConfig::single_core()
    }
}

/// Hi's slice in the canonical scenario: generous enough that its
/// worst-case secret-dependent work (~30k cycles) finishes well inside.
const HI_SLICE: u64 = 50_000;
/// The endpoint's deterministic-delivery threshold: covers Hi's WCET
/// plus the kernel's switch path — the "safe time threshold" the paper
/// says the system designer must determine (§3.2).
const HI_MIN_DELIVERY: u64 = 45_000;

/// Build the canonical omnibus NI scenario: Hi exercises every channel
/// (cache dirtying, kernel entries, I/O, secret-timed compute, IPC);
/// Lo probes, times syscalls and gaps, and receives. `disable` removes
/// one mechanism for the E11 ablation.
pub fn canonical_scenario(disable: Option<Mechanism>) -> NiScenario {
    let tp = match disable {
        Some(m) => TimeProtConfig::full_without(m),
        None => TimeProtConfig::full(),
    };
    NiScenario {
        mcfg: canonical_machine(),
        make_kcfg: Box::new(move |secret| {
            // Hi: secret-dependent everything. Stores spread across the
            // 12 data pages first (page-major) so they touch many LLC
            // colours; counts stay small enough to finish in-slice.
            let mut hi = Vec::new();
            for i in 0..(secret % 7) * 8 {
                hi.push(Instr::Store(data_addr((i % 12) * 4096 + (i / 12) * 64)));
            }
            for _ in 0..secret % 5 {
                hi.push(Instr::Syscall(SyscallReq::Null));
            }
            if secret % 2 == 1 {
                // Tuned so the completion interrupt fires inside Lo's
                // next slice (which starts HI_MIN_DELIVERY after Hi's
                // slice start, on the padded grid).
                hi.push(Instr::Syscall(SyscallReq::IoSubmit {
                    line: 5,
                    delay: HI_MIN_DELIVERY,
                }));
            }
            for i in 0..64 {
                hi.push(Instr::Compute(30));
                if secret >> (i % 64) & 1 == 1 {
                    hi.push(Instr::Compute(90));
                }
            }
            hi.push(Instr::Syscall(SyscallReq::Send { ep: 0, msg: 1 }));
            hi.push(Instr::Halt);

            // Lo: observe everything observable. The probe buffer spans
            // all 8 of its data pages (hence 8 colours).
            let mut lo = Vec::new();
            lo.push(Instr::Syscall(SyscallReq::Recv { ep: 0 }));
            for _ in 0..20 {
                for i in 0..48u64 {
                    lo.push(Instr::Load(data_addr((i / 6) * 4096 + (i % 6) * 64)));
                }
                lo.push(Instr::ReadClock);
                lo.push(Instr::Syscall(SyscallReq::Null));
                lo.push(Instr::ReadClock);
                lo.push(Instr::Compute(40));
                lo.push(Instr::ReadClock);
            }
            lo.push(Instr::Halt);

            KernelConfig::new(vec![
                DomainSpec::new(Box::new(TraceProgram::new(lo)))
                    .with_slice(Cycles(exp::SLICE))
                    .with_pad(Cycles(exp::PAD))
                    .with_data_pages(8),
                DomainSpec::new(Box::new(TraceProgram::new(hi)))
                    .with_slice(Cycles(HI_SLICE))
                    .with_pad(Cycles(exp::PAD))
                    .with_data_pages(12)
                    .with_irq_lines(vec![5]),
            ])
            .with_tp(tp)
            .with_ipc_switch(true)
            .with_endpoints(vec![tp_kernel::ipc::EndpointSpec {
                min_delivery: Some(Cycles(HI_MIN_DELIVERY)),
            }])
        }),
        lo: DomainId(0),
        secrets: vec![0, 3, 6],
        budget: Cycles(8 * (HI_SLICE + exp::SLICE + 2 * exp::PAD)),
        max_steps: 2_000_000,
    }
}

/// E11: the ablation — disable each mechanism in turn; the NI checker
/// must find a leak, and with everything on it must pass. One
/// [`tp_core::ScenarioMatrix`] run over all seven protection settings
/// under the canonical machine's own time model; each row is that
/// cell's NI verdict.
pub fn report_e11() -> String {
    let mut out = String::new();
    writeln!(
        out,
        "E11: ablation — each mechanism is necessary (§4, §5.2)"
    )
    .unwrap();
    writeln!(out, "  {:>20} | verdict", "disabled").unwrap();
    let matrix = tp_core::ScenarioMatrix::new("canonical", canonical_machine())
        .sweep_ablations()
        .with_models(vec![canonical_machine().time_model]);
    let report = matrix.run(|cell| canonical_scenario(cell.disable));
    for (cell, proof) in &report.cells {
        let label = match cell.disable {
            Some(m) => format!("{m:?}"),
            None => "(none)".to_string(),
        };
        writeln!(out, "  {:>20} | {}", label, proof.ni[0].verdict).unwrap();
    }
    out
}

/// E14: exhaustive small-scope model checking — quantify over *all* Hi
/// programs up to a length bound, not just hand-picked secrets.
pub fn report_e14(max_len: usize) -> String {
    use tp_core::engine::check_exhaustive_parallel;
    use tp_core::exhaustive::ExhaustiveConfig;
    let mut out = String::new();
    writeln!(
        out,
        "E14: exhaustive small-scope check (all Hi programs, length <= {max_len})"
    )
    .unwrap();
    let full = check_exhaustive_parallel(&ExhaustiveConfig {
        max_len,
        ..ExhaustiveConfig::small(TimeProtConfig::full())
    });
    writeln!(out, "  full protection : {full}").unwrap();
    for m in [Mechanism::Flush, Mechanism::Padding, Mechanism::KernelClone] {
        let v = check_exhaustive_parallel(&ExhaustiveConfig {
            max_len,
            ..ExhaustiveConfig::small(TimeProtConfig::full_without(m))
        });
        writeln!(out, "  without {m:?}: {v}").unwrap();
    }
    writeln!(
        out,
        "  -> the theorem survives universal quantification over the small scope;\n     \
         removing a scope-relevant mechanism lets the enumeration *discover* a witness\n     \
         program. (Colouring is not load-bearing at this scope: evicting the tiny LLC\n     \
         needs longer programs than the bound admits — the small-scope hypothesis at work.)"
    )
    .unwrap();
    out
}

/// The omnibus scenario-matrix run: the canonical scenario proved over
/// a sweep of LLC geometries, core counts and mechanism ablations under
/// the full time-model family — the whole experiment suite's proof
/// surface flattened into one submission on the persistent pool.
pub fn report_matrix() -> String {
    let matrix = canonical_matrix();
    let all: Vec<usize> = (0..matrix.cells().len()).collect();
    let (proved, _) = run_matrix_cells(&matrix, &all, None, |_, _, _| {});
    render_matrix_report(&tp_core::MatrixReport {
        cells: proved.into_iter().map(|(_, c, r)| (c, r)).collect(),
    })
}

/// Prove the canonical scenario on the cells at `indices` of `matrix`,
/// flattened into one pool submission, streaming one progress call per
/// finished cell (in deterministic order) to `progress` as
/// `(done, total, line)`. `bin/matrix` points `progress` at stderr so
/// long sweeps show life without disturbing the report (or wire
/// records) on stdout; the counts also feed the `--progress` ETA
/// heartbeat.
///
/// With a `cache`, validated hits replay their stored reports, only
/// changed cells are proved live, and freshly proved cells are inserted
/// back; output (reports, progress lines, and anything serialised from
/// the returned triples) stays byte-identical to the uncached path, and
/// the hit/re-prove statistics come back for the caller to print on
/// stderr. A cache that owns a log ([`open_store`]) appends every
/// freshly proved cacheable cell to it, fsynced, the moment it
/// completes; a failed append does not abort the sweep (see
/// [`tp_core::ProofCache::take_log_error`]).
pub fn run_matrix_cells(
    matrix: &tp_core::ScenarioMatrix,
    indices: &[usize],
    cache: Option<&mut tp_core::ProofCache>,
    mut progress: impl FnMut(usize, usize, &str),
) -> (
    Vec<(usize, tp_core::MatrixCell, tp_core::ProofReport)>,
    tp_core::CacheStats,
) {
    let total = indices.len();
    let mut done = 0usize;
    let on_cell = |ci: usize, cell: &tp_core::MatrixCell, r: &tp_core::ProofReport| {
        done += 1;
        let verdict = if r.time_protection_proved() {
            "PROVED"
        } else {
            "NOT proved"
        };
        let line = format!("[{done}/{total}] cell {ci}: {:<28} {verdict}", cell.label());
        progress(done, total, &line);
    };
    let scenario = |cell: &tp_core::MatrixCell| canonical_scenario(cell.disable);
    let pool = tp_sched::global();
    match cache {
        Some(cache) => matrix.run_subset_cached(pool, indices, cache, scenario, on_cell),
        None => (
            matrix.run_subset_streamed(pool, indices, scenario, on_cell),
            tp_core::CacheStats::default(),
        ),
    }
}

/// Render a [`tp_core::MatrixReport`] the way `bin/matrix` prints it.
/// Shared by the single-process path and the multi-process merge path,
/// which is what makes a merged sharded sweep byte-identical to a
/// single-process run.
pub fn render_matrix_report(report: &tp_core::MatrixReport) -> String {
    let models = report.cells.first().map(|(_, r)| r.ni.len()).unwrap_or(0);
    let mut out = String::new();
    writeln!(
        out,
        "Scenario matrix: {} cells × {} time models",
        report.cells.len(),
        models
    )
    .unwrap();
    write!(out, "{report}").unwrap();
    // Per-mechanism coverage: each ablated mechanism must fail the
    // proof on at least one machine, or the load-bearing claim the
    // matrix exists to check has silently regressed.
    let leaking: std::collections::HashSet<Mechanism> = report
        .leaking_ablations()
        .iter()
        .filter_map(|(c, _)| c.disable)
        .collect();
    writeln!(
        out,
        "  -> full protection proves on every machine: {}; every mechanism's ablation leaks somewhere: {}",
        report.full_protection_proved(),
        Mechanism::ALL.iter().all(|m| leaking.contains(m))
    )
    .unwrap();
    out
}

/// The sweep behind [`report_matrix`]: canonical machine plus LLC
/// geometry variants, every single-mechanism ablation, all default time
/// models. Kept as its own constructor so tests can validate the same
/// cells the report runs.
pub fn canonical_matrix() -> tp_core::ScenarioMatrix {
    tp_core::ScenarioMatrix::new("canonical", canonical_machine())
        .sweep_llc(&[(512, 2), (1024, 1)])
        .sweep_ablations()
}

/// [`canonical_matrix`], optionally restricted to the first `models`
/// default time models (the `--models` flag). Every process of a
/// sharded sweep must build the matrix with the same value here, or the
/// shards would prove different sweeps.
pub fn shaped_matrix(models: Option<usize>) -> tp_core::ScenarioMatrix {
    let matrix = canonical_matrix();
    match models {
        None => matrix,
        Some(n) => {
            let family = tp_core::default_time_models();
            let n = n.min(family.len());
            matrix.with_models(family[..n].to_vec())
        }
    }
}

/// Merge `sched-worker` wire outputs into the final matrix report —
/// byte-identical to a single-process run over the union of the
/// shards' cells (the shared [`render_matrix_report`] guarantees the
/// rendering, [`tp_core::wire`] the contents).
pub fn merge_matrix_records(shards: &[String]) -> Result<String, tp_core::wire::WireError> {
    let mut cells = Vec::new();
    for text in shards {
        cells.extend(tp_core::wire::parse_cells(text)?);
    }
    let report = tp_core::wire::merge_cells(cells)?;
    Ok(render_matrix_report(&report))
}

/// The aISA conformance report for the standard machines.
pub fn report_aisa() -> String {
    let mut out = String::new();
    for (name, cfg) in [
        ("single-core", MachineConfig::single_core()),
        ("dual-core", MachineConfig::dual_core()),
    ] {
        let r = tp_hw::check_conformance(&cfg);
        writeln!(
            out,
            "aISA[{name}]: conformant={} modulo-interconnect={} violations={:?}",
            r.conformant(),
            r.conformant_modulo_interconnect(),
            r.violations()
        )
        .unwrap();
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e8_report_holds() {
        let r = report_e8(5);
        assert!(r.contains("HOLDS"), "{r}");
    }

    #[test]
    fn aisa_report_mentions_interconnect() {
        let r = report_aisa();
        assert!(r.contains("Interconnect"), "{r}");
    }

    #[test]
    fn e4_report_shape() {
        let r = report_e4();
        assert!(r.contains("padded"));
        assert!(r.contains(&format!("{}", exp::E4_SLICE + exp::PAD)));
    }

    #[test]
    fn eta_line_extrapolates_linearly() {
        let d = std::time::Duration::from_secs(3);
        assert_eq!(
            eta_line(3, 21, d),
            "progress: 3/21 cells (14%), elapsed 3.0s, eta 18.0s"
        );
        // Nothing done yet: no ETA claim, no division by zero.
        assert_eq!(
            eta_line(0, 21, d),
            "progress: 0/21 cells (0%), elapsed 3.0s"
        );
        // An empty sweep (a zero-cell job submitted to the service) is
        // 0% done with no ETA claim — not 100%.
        assert_eq!(eta_line(0, 0, d), "progress: 0/0 cells (0%), elapsed 3.0s");
    }

    #[test]
    fn cache_summary_matches_the_pinned_stderr_schema() {
        let stats = tp_core::CacheStats {
            hits: 3,
            misses: 2,
            rejected: 1,
            uncacheable: 0,
        };
        // The exact line the cold/warm CI job greps — and the same text
        // `CacheStats: Display` renders inside it.
        assert_eq!(
            cache_summary(&stats, 7),
            "cache: 3 hits, 3 re-proved (2 missed, 1 rejected, 0 uncacheable) — 7 entries"
        );
        assert_eq!(
            cache_summary(&stats, 7),
            format!("cache: {stats} — 7 entries")
        );
    }

    #[test]
    fn telemetry_manifest_is_one_parseable_line_with_the_v1_schema() {
        // Drive the global sink briefly to get a live snapshot; other
        // tests in this binary may add counts, which is fine — the
        // manifest shape is what's under test.
        tp_telemetry::install(tp_telemetry::TelemetrySink::counters());
        tp_telemetry::count(tp_telemetry::Counter::PoolSubmitted);
        let snap = tp_telemetry::snapshot().expect("sink installed");
        let line = telemetry_manifest("--models 1", 4, &snap);
        tp_telemetry::install(tp_telemetry::TelemetrySink::Null);

        assert!(!line.contains('\n'), "one line: {line}");
        let v = trajectory::Json::parse(&line).expect("manifest parses");
        assert_eq!(v.get("t").unwrap().as_str(), Some("manifest"));
        assert_eq!(v.get("schema").unwrap().as_str(), Some("tp-telemetry/v1"));
        assert_eq!(v.get("cells").unwrap().as_f64(), Some(4.0));
        assert_eq!(v.get("flags").unwrap().as_str(), Some("--models 1"));
        let counters = v.get("counters").unwrap();
        assert!(counters.get("pool_submitted").unwrap().as_f64().unwrap() >= 1.0);
        assert!(counters.get("pool_peak_queue").is_some());
        let spans = v.get("spans").unwrap();
        for kind in ["queue-wait", "prove", "lockstep", "replay", "verify"] {
            assert!(spans.get(kind).unwrap().get("n").is_some(), "{kind}");
        }
    }

    #[test]
    fn canonical_scenario_passes_and_ablation_leaks() {
        // The big one: full protection passes; disabling padding leaks.
        let v = tp_core::check_noninterference(&canonical_scenario(None));
        assert!(v.passed(), "{v}");
        let v = tp_core::check_noninterference(&canonical_scenario(Some(Mechanism::Padding)));
        assert!(!v.passed(), "padding ablation must leak");
    }
}
