//! `store`: the real `matrix --threads 2` binary against files made in
//! set-up, in rounds of three invocations:
//!
//! 1. `--cache` on a full cache — every cell hits (the read side);
//! 2. `--cache` on a cache missing one seeded cell per protection
//!    setting — those cells are re-proved and the file rewritten;
//! 3. `--resume` from a journal whose records are in seeded order and
//!    torn at a seeded byte offset, losing one cell per protection
//!    setting — those are re-proved and journaled (the write side).
//!
//! Op: one round. Work: cells answered (3 × 21 per round). First
//! result: the warm run. Every stdout must equal the cold reference
//! report, and each run's stderr must report the predicted hits,
//! replayed and torn-dropped records.
//!
//! The traced run times, in process, the calls these runs make:
//! `ProofCache::load`/`lookup`/`save`, `persist::write_atomic`,
//! `JournalWriter::append`, `journal::parse_journal`, the wire parser
//! and merge, `render_matrix_report`, and a `matrix` that exits at
//! argument parsing.

use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::time::Duration;

use tp_core::engine::{MatrixCell, ScenarioMatrix};
use tp_core::journal::{self, JournalRecord, JournalWriter};
use tp_core::{wire, MatrixReport, ProofCache};
use tp_sched::WorkerPool;

use crate::plan::{StorePlan, CELLS, PROTECTIONS};
use crate::report::Report;
use crate::stats::{median, ms, per_call, quantile, repeat_for, timed, us};
use crate::sys::{self, Scratch};
use crate::{Args, SETUP_REPEATS, THREADS};

/// `op_ms_tail` percentile: ten samples beyond it at the ~100 rounds a
/// 20 s run makes on a 2-CPU host.
const TAIL: f64 = 0.90;
/// Calls per clock read for the wire, render and cache-lookup timings.
const WIRE_BATCH: usize = 16;
/// Cache lookups per clock read (every cell, eight times over).
const LOOKUP_BATCH: usize = CELLS * 8;

/// Files and expectations made in set-up.
struct Setup {
    matrix: ScenarioMatrix,
    reference: String,
    report: MatrixReport,
    records: Vec<JournalRecord>,
    full_cache: String,
    partial_cache: String,
    torn_journal: String,
    /// Whether the cold reference is sound and complete.
    sound: bool,
}

fn setup(plan: &StorePlan) -> Setup {
    let pool = WorkerPool::new(THREADS);
    let matrix = tp_bench::shaped_matrix(None);
    let all: Vec<usize> = (0..matrix.cells().len()).collect();
    let mut cache = ProofCache::new();
    let mut records = Vec::with_capacity(all.len());
    let mut on_proved = |index: usize,
                         cell: &MatrixCell,
                         report: &tp_core::ProofReport,
                         meta: &wire::CachedMeta| {
        records.push(JournalRecord {
            index,
            cell: cell.clone(),
            report: report.clone(),
            meta: meta.clone(),
        });
    };
    let (proved, stats) = matrix.run_subset_journaled(
        &pool,
        &all,
        &mut cache,
        |cell| tp_bench::canonical_scenario(cell.disable),
        |_, _, _| {},
        Some(&mut on_proved),
    );
    let report = MatrixReport {
        cells: proved.into_iter().map(|(_, c, r)| (c, r)).collect(),
    };
    let reference = tp_bench::render_matrix_report(&report);
    let sound = stats.misses == CELLS
        && records.len() == CELLS
        && report.full_protection_proved()
        && report
            .cells
            .iter()
            .all(|(c, r)| r.time_protection_proved() == c.disable.is_none());

    let mut partial = ProofCache::new();
    for r in records.iter().filter(|r| !plan.dropped.contains(&r.index)) {
        partial.insert_entry(r.clone().into_entry());
    }
    let ordered: Vec<JournalRecord> = plan
        .journal_order
        .iter()
        .map(|&i| records[i].clone())
        .collect();
    let kept = CELLS - PROTECTIONS;
    let mut torn_journal = journal::render_journal(&ordered[..kept]);
    let first_lost = journal::render_journal(&ordered[kept..=kept]);
    torn_journal.push_str(&first_lost[..plan.tear_offset(first_lost.len())]);
    Setup {
        full_cache: cache.save(),
        partial_cache: partial.save(),
        torn_journal,
        matrix,
        reference,
        report,
        records,
        sound,
    }
}

/// The first number after `prefix` on a stderr line starting with it.
fn stderr_number(stderr: &str, prefix: &str) -> Option<usize> {
    let line = stderr.lines().find(|l| l.starts_with(prefix))?;
    line[prefix.len()..].split_whitespace().next()?.parse().ok()
}

/// `(replayed, torn-dropped, re-proved)` from the resume summary line
/// `journal: R replayed, T torn-dropped, P re-proved`.
fn resume_counts(stderr: &str) -> Option<(usize, usize, usize)> {
    let line = stderr
        .lines()
        .find(|l| l.starts_with("journal: ") && l.contains(" replayed, "))?;
    let nums: Vec<usize> = line
        .split(|c: char| !c.is_ascii_digit())
        .filter(|t| !t.is_empty())
        .filter_map(|t| t.parse().ok())
        .collect();
    match nums[..] {
        [r, t, p] => Some((r, t, p)),
        _ => None,
    }
}

/// One round's wall times (ms) and cache hits seen.
struct Round {
    warm: f64,
    partial: f64,
    resume: f64,
    hits: usize,
}

impl Round {
    fn total(&self) -> f64 {
        self.warm + self.partial + self.resume
    }
}

struct Files {
    matrix: PathBuf,
    warm: PathBuf,
    partial: PathBuf,
    journal: PathBuf,
}

/// One round: three `matrix` runs on freshly written inputs (writing
/// them is not timed), each checked.
fn round(s: &Setup, f: &Files, extra: &[&str], report: &mut Report) -> Result<Round, String> {
    let io = |e: std::io::Error| e.to_string();
    let matrix = |args: &[&str]| {
        let mut all = vec!["--threads", "2"];
        all.extend_from_slice(args);
        all.extend_from_slice(extra);
        sys::run(&f.matrix, &all).map_err(|e| format!("cannot run matrix: {e}"))
    };
    let ok =
        |out: &std::process::Output| out.status.success() && out.stdout == s.reference.as_bytes();
    let path = |p: &Path| p.to_str().expect("scratch paths are UTF-8").to_string();

    std::fs::write(&f.warm, &s.full_cache).map_err(io)?;
    let (out, warm) = matrix(&["--cache", &path(&f.warm)])?;
    let warm_hits = stderr_number(&String::from_utf8_lossy(&out.stderr), "cache: ");
    report.check(ok(&out) && warm_hits == Some(CELLS));

    std::fs::write(&f.partial, &s.partial_cache).map_err(io)?;
    let (out, partial) = matrix(&["--cache", &path(&f.partial)])?;
    let partial_hits = stderr_number(&String::from_utf8_lossy(&out.stderr), "cache: ");
    report.check(ok(&out) && partial_hits == Some(CELLS - PROTECTIONS));

    std::fs::write(&f.journal, &s.torn_journal).map_err(io)?;
    let (out, resume) = matrix(&["--resume", &path(&f.journal)])?;
    let counts = resume_counts(&String::from_utf8_lossy(&out.stderr));
    report.check(ok(&out) && counts == Some((CELLS - PROTECTIONS, 1, PROTECTIONS)));

    Ok(Round {
        warm: ms(warm),
        partial: ms(partial),
        resume: ms(resume),
        hits: warm_hits.unwrap_or(0) + partial_hits.unwrap_or(0),
    })
}

fn rounds(
    s: &Setup,
    f: &Files,
    extra: &[&str],
    budget: Duration,
    report: &mut Report,
) -> Result<Vec<Round>, String> {
    let out = repeat_for(budget, 1, || round(s, f, extra, report));
    out.into_iter().collect()
}

/// Run the workload.
pub fn run(args: &Args) -> Result<Report, String> {
    let plan = StorePlan::new(args.seed);
    let scratch = Scratch::new(&args.root, "store").map_err(|e| e.to_string())?;
    let files = Files {
        matrix: args.bin_dir.join("matrix"),
        warm: scratch.path("warm.cache"),
        partial: scratch.path("partial.cache"),
        journal: scratch.path("run.journal"),
    };
    if !files.matrix.is_file() {
        return Err(format!("no matrix binary at {}", files.matrix.display()));
    }
    let mut report = Report::default();
    let mut setup_s = Vec::new();
    let mut s = None;
    for _ in 0..SETUP_REPEATS {
        let (built, d) = timed(|| setup(&plan));
        setup_s.push(d.as_secs_f64());
        s = Some(built);
    }
    let s = s.expect("at least one set-up");
    report.check(s.sound);
    report.notes.push(format!(
        "partial cache drops cells {:?}; journal torn inside cell {}'s record, losing cells {:?}",
        plan.dropped,
        plan.lost()[0],
        plan.lost()
    ));
    if args.trace {
        traced(args, &s, &files, &scratch, &mut report)?;
        return Ok(report);
    }

    let rs = rounds(&s, &files, &[], args.seconds, &mut report)?;
    let n = rs.len();
    let col = |f: fn(&Round) -> f64| rs.iter().map(f).collect::<Vec<f64>>();
    let (totals, warm, partial, resume) = (
        col(Round::total),
        col(|r| r.warm),
        col(|r| r.partial),
        col(|r| r.resume),
    );
    report.notes.push(format!(
        "warm_run_ms_p50 = {:.3} ms, partial_run_ms_p50 = {:.3} ms, resume_ms_p50 = {:.3} ms (n={n} each)",
        median(&warm),
        median(&partial),
        median(&resume)
    ));
    report.set(
        "setup_s",
        median(&setup_s),
        format!("median of {SETUP_REPEATS} set-ups: pool, cold sweep, cache and journal files"),
    );
    report.set(
        "peak_rss_mb",
        sys::children_peak_rss_mb(),
        "largest matrix process (getrusage RUSAGE_CHILDREN)",
    );
    report.set(
        "work_per_s",
        (3 * CELLS) as f64 / (median(&totals) / 1e3),
        format!("cells answered: 3 x {CELLS} / median round, n={n} rounds"),
    );
    report.set(
        "op_ms_p50",
        median(&totals),
        format!("round = warm + partial + resume, n={n}"),
    );
    report.set(
        "op_ms_tail",
        quantile(&totals, TAIL),
        format!("round p90, n={n}"),
    );
    report.set(
        "first_result_ms_p50",
        median(&warm),
        format!("warm_run_ms_p50, n={n}"),
    );
    Ok(report)
}

/// Per-call timings of the layers one round crosses, made in process.
fn traced(
    args: &Args,
    s: &Setup,
    f: &Files,
    scratch: &Scratch,
    report: &mut Report,
) -> Result<(), String> {
    let budget = args.seconds;
    let plain = rounds(s, f, &[], budget.mul_f64(0.3), report)?;
    // The program's own tracing: a counting telemetry sink per run.
    let traced = rounds(s, f, &["--metrics"], budget.mul_f64(0.3), report)?;

    // Inputs for the in-process calls.
    let models = s.matrix.models().to_vec();
    let cells = s.matrix.cells();
    let keys: Vec<u64> = cells
        .iter()
        .map(|cell| {
            let mut sc = tp_bench::canonical_scenario(cell.disable);
            sc.mcfg = cell.mcfg.clone();
            let (inner, tp) = (sc.make_kcfg, cell.tp);
            sc.make_kcfg = Box::new(move |secret| {
                let mut k = inner(secret);
                k.tp = tp;
                k
            });
            tp_core::cache::cell_key(cell, &models, &sc, s.matrix.mode())
                .expect("canonical cells are cacheable")
        })
        .collect();
    let secrets = tp_bench::canonical_scenario(None).secrets;
    let mut worker_text = String::new();
    for (i, (cell, r)) in s.report.cells.iter().enumerate() {
        wire::write_cell(&mut worker_text, i, cell, r);
    }
    let probe_cache = scratch.path("probe.cache");
    let probe_journal = scratch.path("probe.journal");

    let mut t = Samples::default();
    let t_layers = std::time::Instant::now();
    while t.load.is_empty() || t_layers.elapsed() < budget.mul_f64(0.4) {
        let (out, d) = sys::run(&f.matrix, &["--no-such-flag"]).map_err(|e| e.to_string())?;
        report.check(out.status.code() == Some(tp_bench::cli::EXIT_USAGE));
        t.spawn.push(ms(d));

        let (cache, d) = timed(|| ProofCache::load(&s.full_cache));
        let cache = cache.map_err(|e| format!("reference cache does not load: {e}"))?;
        t.load.push(ms(d));
        let all_hit = keys
            .iter()
            .zip(&cells)
            .all(|(&k, cell)| cache.lookup(k, cell, &models, &secrets).is_ok());
        report.check(all_hit);
        let mut i = 0;
        t.lookup.push(us(per_call(LOOKUP_BATCH, || {
            let c = i % CELLS;
            black_box(cache.lookup(keys[c], &cells[c], &models, &secrets).is_ok());
            i += 1;
        })));
        let (text, d) = timed(|| cache.save());
        report.check(text == s.full_cache);
        t.save.push(ms(d));

        let (r, d) =
            timed(|| tp_core::persist::write_atomic(&probe_cache, s.full_cache.as_bytes()));
        r.map_err(|e| format!("write_atomic: {e}"))?;
        t.write_atomic.push(ms(d));

        let mut w = JournalWriter::create(&probe_journal).map_err(|e| e.to_string())?;
        for r in &s.records {
            let (res, d) = timed(|| w.append(r.index, &r.cell, &r.report, &r.meta));
            res.map_err(|e| format!("journal append: {e}"))?;
            t.append.push(us(d));
        }
        let (parsed, d) = timed(|| journal::parse_journal(&s.torn_journal));
        let (recs, stats) = parsed.map_err(|e| format!("torn journal does not parse: {e}"))?;
        report.check(recs.len() == CELLS - PROTECTIONS && stats.torn_dropped == 1);
        t.torn = stats.torn_dropped;
        t.parse_journal.push(ms(d));

        let mut parsed = Vec::new();
        t.parse_cells.push(ms(per_call(WIRE_BATCH, || {
            parsed = black_box(wire::parse_cells(&worker_text)).expect("reference records parse");
        })));
        let mut inputs: Vec<_> = (0..WIRE_BATCH).map(|_| parsed.clone()).collect();
        let mut merged = None;
        t.merge_cells.push(ms(per_call(WIRE_BATCH, || {
            merged = Some(black_box(wire::merge_cells(
                inputs.pop().expect("one input per call"),
            )));
        })));
        report.check(matches!(&merged, Some(Ok(m)) if *m == s.report));
        let mut text = String::new();
        t.render.push(ms(per_call(WIRE_BATCH, || {
            text = black_box(tp_bench::render_matrix_report(&s.report));
        })));
        report.check(text == s.reference);
    }

    let col = |v: &[Round], f: fn(&Round) -> f64| v.iter().map(f).collect::<Vec<f64>>();
    let warm = median(&col(&plain, |r| r.warm));
    let n = t.load.len();
    report.set(
        "proc.spawn_ms",
        median(&t.spawn),
        format!("matrix exiting at argument parsing, n={n}"),
    );
    report.set(
        "cache.load_ms",
        median(&t.load),
        format!("ProofCache::load of the full cache, n={n}"),
    );
    report.set(
        "cache.lookup_us",
        median(&t.lookup),
        format!("ProofCache::lookup (validated hit), {LOOKUP_BATCH} calls per clock read, n={n}"),
    );
    report.set(
        "cache.save_ms",
        median(&t.save),
        format!("ProofCache::save, n={n}"),
    );
    let looked_up = 2 * CELLS * plain.len();
    let hits: usize = plain.iter().map(|r| r.hits).sum();
    report.set(
        "cache.hit_ratio",
        hits as f64 / looked_up as f64,
        format!("{hits} hits / {looked_up} lookups (warm + partial runs)"),
    );
    report.set("cache.bytes", s.full_cache.len() as f64, "full cache file");
    report.set(
        "persist.write_atomic_ms",
        median(&t.write_atomic),
        format!("write_atomic of the full cache, n={n}"),
    );
    report.set(
        "journal.append_us",
        median(&t.append),
        format!("JournalWriter::append (fsynced), n={}", t.append.len()),
    );
    report.set(
        "journal.parse_ms",
        median(&t.parse_journal),
        format!("parse_journal of the torn journal, n={n}"),
    );
    report.set(
        "journal.torn_dropped",
        t.torn as f64,
        "records the torn tail drops",
    );
    report.set(
        "wire.parse_cells_ms",
        median(&t.parse_cells),
        format!("wire::parse_cells of {CELLS} records, {WIRE_BATCH} calls per clock read, n={n}"),
    );
    report.set(
        "wire.merge_cells_ms",
        median(&t.merge_cells),
        format!("wire::merge_cells, {WIRE_BATCH} per clock read, n={n}"),
    );
    report.set(
        "render.report_ms",
        median(&t.render),
        format!("render_matrix_report, {WIRE_BATCH} per clock read, n={n}"),
    );
    report.set("store.warm_run_ms_p50", warm, format!("n={}", plain.len()));
    report.set(
        "store.partial_run_ms_p50",
        median(&col(&plain, |r| r.partial)),
        format!("n={}", plain.len()),
    );
    report.set(
        "store.resume_ms_p50",
        median(&col(&plain, |r| r.resume)),
        format!("n={}", plain.len()),
    );
    let accounted = median(&t.spawn)
        + median(&t.load)
        + CELLS as f64 * median(&t.lookup) / 1e3
        + median(&t.render)
        + median(&t.save)
        + median(&t.write_atomic);
    report.set(
        "attribution.residual_frac",
        1.0 - accounted / warm,
        format!("1 - (spawn + load + {CELLS} lookups + render + save + write_atomic) / warm run {warm:.2} ms"),
    );
    let (round_u, round_t) = (
        median(&col(&plain, Round::total)),
        median(&col(&traced, Round::total)),
    );
    report.set(
        "trace.overhead_frac",
        round_t / round_u - 1.0,
        format!(
            "matrix --metrics: round {round_t:.1} ms vs {round_u:.1} ms, n={}/{}",
            traced.len(),
            plain.len()
        ),
    );
    Ok(())
}

#[derive(Default)]
struct Samples {
    spawn: Vec<f64>,
    load: Vec<f64>,
    lookup: Vec<f64>,
    save: Vec<f64>,
    write_atomic: Vec<f64>,
    append: Vec<f64>,
    parse_journal: Vec<f64>,
    torn: usize,
    parse_cells: Vec<f64>,
    merge_cells: Vec<f64>,
    render: Vec<f64>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stderr_summaries_parse() {
        let e = "[1/21] cell 0: x PROVED\ncache: 14 hits, 7 re-proved (7 missed, 0 rejected, 0 uncacheable) — 21 entries\n";
        assert_eq!(stderr_number(e, "cache: "), Some(14));
        let j = "journal: loaded 14 records (1 torn-dropped) from /x/run.journal\n\
                 journal: 14 replayed, 1 torn-dropped, 7 re-proved\n";
        assert_eq!(resume_counts(j), Some((14, 1, 7)));
        assert_eq!(resume_counts("nothing"), None);
    }
}
