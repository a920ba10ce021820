//! `serve`: the real `tp-serve --threads 2 --cache <file>` on loopback,
//! driven by two closed-loop clients that share one seeded job list.
//! One client opens a connection per job, as a CLI does; the other
//! keeps one connection, as an orchestrator does.
//!
//! Jobs come in epochs (`plan::serve_epoch`): 36 warm cached jobs
//! (seeded cell ranges, `models=1..5`, all hits), 6 cached jobs for the
//! seeded keys left out of the pre-filled cache (each misses once and
//! is proved under the cache lock), and 6 `nocache` single-cell jobs.
//! Each epoch runs against a daemon started on the pristine pre-filled
//! cache, so the hit share is the same in every epoch; only the epochs
//! themselves are timed, not the restarts between them.
//!
//! Op: one job, `SUBMIT` written to `DONE` read. First result: `SUBMIT`
//! to the first `REC` line. Every job must stream exactly the
//! `tp_core::wire` records of its cells (prefix stripped) and end in a
//! `DONE` line with the predicted proved, failed, hit and miss counts.

use std::collections::BTreeMap;
use std::io::{self, BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use tp_core::{wire, ProofCache};
use tp_sched::WorkerPool;

use crate::plan::{
    serve_epoch, serve_holes, Job, JobClass, CELLS, MISS_PER_EPOCH, MODELS, NOCACHE_PER_EPOCH,
    WARM_PER_EPOCH,
};
use crate::report::Report;
use crate::stats::{median, ms, quantile, timed};
use crate::sys::{Daemon, Scratch};
use crate::{Args, SETUP_REPEATS, THREADS};

/// How long a client waits for any one line before giving up on the
/// daemon.
const READ_TIMEOUT: Duration = Duration::from_secs(30);
/// `op_ms_tail` percentile: twelve samples beyond it at the 1,200 jobs
/// (25 epochs) a 20 s run makes on a 2-CPU host.
const TAIL: f64 = 0.99;

/// The wire record text of every `(models, cell)` key.
pub type Refs = BTreeMap<(usize, usize), String>;

/// Prove every `(models, cell)` key in process: the keys outside
/// `holes` into a cache (returned saved), every key's wire record into
/// the references. Also returns whether every report is sound (full
/// protection proves, every ablation leaks).
pub fn prepare(pool: &WorkerPool, holes: &[(usize, usize)]) -> (String, Refs, bool) {
    let mut cache = ProofCache::new();
    let mut refs = Refs::new();
    let mut sound = true;
    for models in 1..=MODELS {
        let matrix = tp_bench::shaped_matrix(Some(models));
        let (cold, warm): (Vec<usize>, Vec<usize>) =
            (0..CELLS).partition(|&c| holes.contains(&(models, c)));
        let scenario =
            |cell: &tp_core::engine::MatrixCell| tp_bench::canonical_scenario(cell.disable);
        let (mut proved, _) =
            matrix.run_subset_cached(pool, &warm, &mut cache, scenario, |_, _, _| {});
        proved.extend(matrix.run_subset_streamed(pool, &cold, scenario, |_, _, _| {}));
        for (i, cell, report) in proved {
            sound &= report.time_protection_proved() == cell.disable.is_none();
            let mut rec = String::new();
            wire::write_cell(&mut rec, i, &cell, &report);
            refs.insert((models, i), rec);
        }
    }
    (cache.save(), refs, sound)
}

/// The records a job must stream, in order.
fn expected(job: &Job, refs: &Refs) -> String {
    job.cells
        .iter()
        .map(|&c| refs[&(job.models, c)].as_str())
        .collect()
}

/// One connection: the write half and a line reader on the read half.
struct Conn {
    out: TcpStream,
    lines: BufReader<TcpStream>,
}

impl Conn {
    fn open(addr: &str) -> io::Result<Conn> {
        let out = TcpStream::connect(addr)?;
        out.set_read_timeout(Some(READ_TIMEOUT))?;
        Ok(Conn {
            lines: BufReader::new(out.try_clone()?),
            out,
        })
    }

    fn line(&mut self, buf: &mut String) -> io::Result<()> {
        buf.clear();
        if self.lines.read_line(buf)? == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "daemon closed the connection",
            ));
        }
        Ok(())
    }
}

/// What one job measured and whether its output was right.
#[derive(Debug, Clone)]
pub struct Done {
    /// The job's class.
    pub class: JobClass,
    /// Whether it ran on a connection of its own.
    pub fresh: bool,
    /// Connect to the `OK job=` line (fresh connections only).
    pub accept_ms: Option<f64>,
    /// `SUBMIT` written to the first `REC` line read.
    pub first_rec_ms: f64,
    /// `SUBMIT` written to the `DONE` line read.
    pub done_ms: f64,
    /// `(hits, missed)` the `DONE` line reported.
    pub cache: (usize, usize),
    /// Records, counts and terminal line as predicted.
    pub ok: bool,
}

/// `key=value` from a protocol line.
fn field(line: &str, key: &str) -> Option<usize> {
    line.split_whitespace()
        .find_map(|t| t.strip_prefix(key)?.strip_prefix('='))?
        .parse()
        .ok()
}

/// Submit `job` on `conn` and read its whole response block.
fn submit(conn: &mut Conn, job: &Job, want: &str, connected: Option<Instant>) -> io::Result<Done> {
    let t0 = Instant::now();
    conn.out
        .write_all(format!("{}\n", job.request()).as_bytes())?;
    let mut line = String::new();
    conn.line(&mut line)?;
    let t_ok = Instant::now();
    let mut ok = line.starts_with("OK job=") && field(&line, "cells") == Some(job.cells.len());
    let mut payload = String::new();
    let mut first_rec = None;
    let mut done = None;
    loop {
        conn.line(&mut line)?;
        if line == ".\n" {
            break;
        }
        if let Some(rec) = line.strip_prefix("REC ") {
            first_rec.get_or_insert_with(Instant::now);
            payload.push_str(rec);
        } else if line.starts_with("DONE ") {
            done = Some((t0.elapsed(), line.clone()));
        } else {
            // ERR, EXPIRED, CANCELLED or anything else: a failed job.
            ok = false;
        }
    }
    let (done_d, done_line) = done.unwrap_or((t0.elapsed(), String::new()));
    let (hits, missed) = (
        field(&done_line, "hits").unwrap_or(0),
        field(&done_line, "missed").unwrap_or(0),
    );
    ok &= payload == want
        && field(&done_line, "proved") == Some(job.cells.len())
        && field(&done_line, "failed") == Some(0)
        && field(&done_line, "rejected") == Some(0)
        && (hits, missed) == job.predicted_cache();
    Ok(Done {
        class: job.class,
        fresh: connected.is_some(),
        accept_ms: connected.map(|c| ms(t_ok - c)),
        first_rec_ms: first_rec.map_or(ms(done_d), |t| ms(t - t0)),
        done_ms: ms(done_d),
        cache: (hits, missed),
        ok,
    })
}

/// Run `jobs` against the daemon at `addr` with the two clients, each
/// taking the next unstarted job until none is left. Results come back
/// in job order.
pub fn run_clients(addr: &str, jobs: &[Job], refs: &Refs) -> io::Result<Vec<Done>> {
    let next = AtomicUsize::new(0);
    let want: Vec<String> = jobs.iter().map(|j| expected(j, refs)).collect();
    let take = || {
        let i = next.fetch_add(1, Ordering::SeqCst);
        (i < jobs.len()).then_some(i)
    };
    let (fresh, reused) = std::thread::scope(|s| {
        let fresh = s.spawn(|| -> io::Result<Vec<(usize, Done)>> {
            let mut out = Vec::new();
            while let Some(i) = take() {
                let t = Instant::now();
                let mut conn = Conn::open(addr)?;
                out.push((i, submit(&mut conn, &jobs[i], &want[i], Some(t))?));
            }
            Ok(out)
        });
        let reused = s.spawn(|| -> io::Result<Vec<(usize, Done)>> {
            let mut conn = Conn::open(addr)?;
            let mut out = Vec::new();
            while let Some(i) = take() {
                out.push((i, submit(&mut conn, &jobs[i], &want[i], None)?));
            }
            Ok(out)
        });
        (
            fresh.join().expect("client thread panicked"),
            reused.join().expect("client thread panicked"),
        )
    });
    let mut all = fresh?;
    all.extend(reused?);
    all.sort_by_key(|(i, _)| *i);
    Ok(all.into_iter().map(|(_, d)| d).collect())
}

/// Hit share of cached lookups: `(predicted, reported)`.
pub fn hit_shares(jobs: &[Job], done: &[Done]) -> (f64, f64) {
    let share = |(h, m): (usize, usize)| h as f64 / (h + m).max(1) as f64;
    let sum = |it: &mut dyn Iterator<Item = (usize, usize)>| {
        it.fold((0, 0), |a, b| (a.0 + b.0, a.1 + b.1))
    };
    (
        share(sum(&mut jobs.iter().map(Job::predicted_cache))),
        share(sum(&mut done.iter().map(|d| d.cache))),
    )
}

/// Set-up output: the pristine cache, references, and the first
/// epoch's daemon.
struct Setup {
    pristine: String,
    refs: Refs,
    sound: bool,
    /// Taken by the first epoch.
    daemon: Option<Daemon>,
}

/// Jobs run so far and the timed epoch walls.
#[derive(Default)]
struct Phase {
    jobs: Vec<Job>,
    done: Vec<Done>,
    wall: Duration,
    peak_rss_mb: f64,
}

impl Phase {
    fn jobs_per_s(&self) -> f64 {
        self.done.len() as f64 / self.wall.as_secs_f64()
    }

    fn col(&self, keep: impl Fn(&Done) -> bool, f: impl Fn(&Done) -> f64) -> Vec<f64> {
        self.done.iter().filter(|d| keep(d)).map(f).collect()
    }
}

struct Driver<'a> {
    args: &'a Args,
    bin: std::path::PathBuf,
    cache: std::path::PathBuf,
    holes: Vec<(usize, usize)>,
    epoch: u64,
    pending: Option<Daemon>,
}

impl Driver<'_> {
    /// Epochs until `budget` of epoch time has passed; with `metrics`,
    /// each epoch also asks the daemon for its `METRICS` block.
    fn phase(
        &mut self,
        s: &Setup,
        budget: Duration,
        metrics: bool,
        report: &mut Report,
    ) -> Result<Phase, String> {
        let mut p = Phase::default();
        while p.done.is_empty() || p.wall < budget {
            let daemon = match self.pending.take() {
                Some(d) => d,
                None => {
                    std::fs::write(&self.cache, &s.pristine).map_err(|e| e.to_string())?;
                    Daemon::start(&self.bin, THREADS, &self.cache).map_err(|e| e.to_string())?
                }
            };
            let jobs = serve_epoch(self.args.seed, self.epoch, &self.holes);
            self.epoch += 1;
            let (done, wall) = timed(|| run_clients(&daemon.addr, &jobs, &s.refs));
            let done = done.map_err(|e| format!("client failed: {e}"))?;
            if metrics {
                report.check(metrics_block(&daemon.addr).map_err(|e| e.to_string())?);
            }
            p.peak_rss_mb = p.peak_rss_mb.max(daemon.peak_rss_mb().unwrap_or(0.0));
            daemon.shutdown().map_err(|e| format!("shutdown: {e}"))?;
            for d in &done {
                report.check(d.ok);
            }
            p.wall += wall;
            p.jobs.extend(jobs);
            p.done.extend(done);
        }
        Ok(p)
    }
}

/// Ask for `METRICS`; true when the daemon answers with its counters.
fn metrics_block(addr: &str) -> io::Result<bool> {
    let mut conn = Conn::open(addr)?;
    conn.out.write_all(b"METRICS\n")?;
    let mut line = String::new();
    conn.line(&mut line)?;
    let ok = line.starts_with("OK metrics");
    while line != ".\n" {
        conn.line(&mut line)?;
    }
    Ok(ok)
}

fn setup(seed: u64, bin: &Path, cache: &Path) -> Result<Setup, String> {
    let pool = WorkerPool::new(THREADS);
    let (pristine, refs, sound) = prepare(&pool, &serve_holes(seed));
    std::fs::write(cache, &pristine).map_err(|e| e.to_string())?;
    let daemon =
        Daemon::start(bin, THREADS, cache).map_err(|e| format!("cannot start tp-serve: {e}"))?;
    Ok(Setup {
        pristine,
        refs,
        sound,
        daemon: Some(daemon),
    })
}

/// Run the workload.
pub fn run(args: &Args) -> Result<Report, String> {
    let bin = args.bin_dir.join("tp-serve");
    if !bin.is_file() {
        return Err(format!("no tp-serve binary at {}", bin.display()));
    }
    let scratch = Scratch::new(&args.root, "serve").map_err(|e| e.to_string())?;
    let cache = scratch.path("proofs.cache");
    let mut report = Report::default();
    let mut setup_s = Vec::new();
    let mut s: Option<Setup> = None;
    for _ in 0..SETUP_REPEATS {
        let (built, d) = timed(|| setup(args.seed, &bin, &cache));
        setup_s.push(d.as_secs_f64());
        if let Some(daemon) = s.replace(built?).and_then(|old| old.daemon) {
            daemon.shutdown().map_err(|e| format!("shutdown: {e}"))?;
        }
    }
    let mut s = s.expect("at least one set-up");
    report.check(s.sound);
    let holes = serve_holes(args.seed);
    report.notes.push(format!(
        "job mix per epoch: {WARM_PER_EPOCH} warm cached, {MISS_PER_EPOCH} cached missing keys {holes:?} \
         as (models, cell), {NOCACHE_PER_EPOCH} nocache; 2 closed-loop clients \
         (fresh connection per job / one reused connection)"
    ));
    let mut driver = Driver {
        args,
        bin,
        cache,
        holes,
        epoch: 0,
        pending: s.daemon.take(),
    };
    if args.trace {
        traced(&mut driver, &s, &mut report)?;
        return Ok(report);
    }

    let p = driver.phase(&s, args.seconds, false, &mut report)?;
    let n = p.done.len();
    let done = p.col(|_| true, |d| d.done_ms);
    let first = p.col(|_| true, |d| d.first_rec_ms);
    let (predicted, reported) = hit_shares(&p.jobs, &p.done);
    report.notes.push(format!(
        "{n} jobs in {} epochs over {:.2} s; hit share predicted {predicted:.4}, DONE lines {reported:.4}",
        driver.epoch,
        p.wall.as_secs_f64()
    ));
    report.notes.push(format!(
        "serve_first_rec_ms_p99 = {:.3} ms (n={n})",
        quantile(&first, TAIL)
    ));
    report.set(
        "setup_s",
        median(&setup_s),
        format!("median of {SETUP_REPEATS} set-ups: pre-filled cache, references, daemon start"),
    );
    report.set(
        "peak_rss_mb",
        p.peak_rss_mb,
        "largest tp-serve VmHWM over the epochs",
    );
    report.set(
        "work_per_s",
        p.jobs_per_s(),
        format!("serve_jobs_per_s: {n} jobs / timed epoch wall"),
    );
    report.set(
        "op_ms_p50",
        median(&done),
        format!("serve_done_ms_p50: SUBMIT to DONE, n={n}"),
    );
    report.set(
        "op_ms_tail",
        quantile(&done, TAIL),
        format!("serve_done_ms_p99, n={n}"),
    );
    report.set(
        "first_result_ms_p50",
        median(&first),
        format!("serve_first_rec_ms_p50: SUBMIT to first REC, n={n}"),
    );
    Ok(report)
}

fn traced(driver: &mut Driver, s: &Setup, report: &mut Report) -> Result<(), String> {
    let budget = driver.args.seconds;
    let plain = driver.phase(s, budget.mul_f64(0.35), false, report)?;
    let traced = driver.phase(s, budget.mul_f64(0.35), true, report)?;

    // In process: the work a daemon does for a warm job — plan the
    // matrix, look every cell up, render its records — with no TCP.
    let pool = WorkerPool::new(THREADS);
    let mut cache = ProofCache::load(&s.pristine).map_err(|e| e.to_string())?;
    let mut work = Vec::new();
    let t_layers = Instant::now();
    for job in plain.jobs.iter().filter(|j| j.class == JobClass::Warm) {
        if !work.is_empty() && t_layers.elapsed() > budget.mul_f64(0.2) {
            break;
        }
        let matrix = tp_bench::shaped_matrix(Some(job.models));
        let mut out = String::new();
        let ((_, stats), d) = timed(|| {
            matrix.run_subset_cached(
                &pool,
                &job.cells,
                &mut cache,
                |cell| tp_bench::canonical_scenario(cell.disable),
                |i, cell, r| wire::write_cell(&mut out, i, cell, r),
            )
        });
        report.check(stats.hits == job.cells.len() && out == expected(job, &s.refs));
        work.push(ms(d));
    }

    let p = &plain;
    let med = |keep: &dyn Fn(&Done) -> bool, f: &dyn Fn(&Done) -> f64| median(&p.col(keep, f));
    let n = p.done.len();
    let accept = p.col(|d| d.fresh, |d| d.accept_ms.unwrap_or(0.0));
    report.set(
        "serve.accept_ms",
        median(&accept),
        format!("connect to OK job=, fresh connections, n={}", accept.len()),
    );
    let first = p.col(|_| true, |d| d.first_rec_ms);
    report.set(
        "serve.first_rec_ms_p99",
        quantile(&first, TAIL),
        format!("n={n}"),
    );
    report.set(
        "serve.fresh_conn_done_ms_p50",
        med(&|d| d.fresh, &|d| d.done_ms),
        "SUBMIT to DONE",
    );
    let reused_warm = med(&|d| !d.fresh && d.class == JobClass::Warm, &|d| d.done_ms);
    report.set(
        "serve.reused_conn_done_ms_p50",
        med(&|d| !d.fresh, &|d| d.done_ms),
        "SUBMIT to DONE",
    );
    report.set(
        "serve.warm_done_ms_p50",
        med(&|d| d.class == JobClass::Warm, &|d| d.done_ms),
        "all-hit cached jobs",
    );
    report.set(
        "serve.cold_done_ms_p50",
        med(&|d| d.class != JobClass::Warm, &|d| d.done_ms),
        "missing-key and nocache jobs",
    );
    let job_work = median(&work);
    report.set(
        "serve.job_work_ms_p50",
        job_work,
        format!(
            "run_subset_cached + wire records of a warm job, in process, n={}",
            work.len()
        ),
    );
    let (predicted, reported) = hit_shares(&p.jobs, &p.done);
    report.check(predicted == reported);
    report.set(
        "serve.hit_ratio",
        reported,
        format!("DONE hits / (hits + missed); predicted {predicted:.4}"),
    );
    report.set("cache.hit_ratio", reported, "as serve.hit_ratio");
    report.set(
        "attribution.residual_frac",
        1.0 - job_work / reused_warm,
        format!("1 - in-process job work / warm job on a reused connection ({reused_warm:.2} ms)"),
    );
    report.set(
        "trace.overhead_frac",
        p.jobs_per_s() / traced.jobs_per_s() - 1.0,
        format!(
            "METRICS per epoch: {:.1} vs {:.1} jobs/s, n={}/{n}",
            traced.jobs_per_s(),
            p.jobs_per_s(),
            traced.done.len()
        ),
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn protocol_fields_parse() {
        let l =
            "DONE job=3 proved=2 failed=0 hits=2 missed=0 rejected=0 uncacheable=0 entries=99\n";
        assert_eq!(field(l, "hits"), Some(2));
        assert_eq!(field(l, "proved"), Some(2));
        assert_eq!(field(l, "entries"), Some(99));
        assert_eq!(field(l, "nope"), None);
    }

    /// One epoch against an in-process daemon: every job's records and
    /// counts come back as predicted, so the DONE lines' hit share is
    /// the predicted one.
    #[test]
    fn predicted_hit_share_matches_done_lines() {
        let seed = 11;
        let holes = serve_holes(seed);
        let pool = WorkerPool::new(THREADS);
        let (pristine, refs, sound) = prepare(&pool, &holes);
        assert!(sound);
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
        let scratch = Scratch::new(&root, "serve-test").unwrap();
        let path = scratch.path("proofs.cache");
        std::fs::write(&path, &pristine).unwrap();
        let cache = ProofCache::load(&pristine).unwrap();
        let server = tp_serve::Server::bind("127.0.0.1:0", cache, Some(path), None).unwrap();
        let addr = server.local_addr().unwrap().to_string();
        let daemon = std::thread::spawn(move || server.serve());

        let jobs = serve_epoch(seed, 0, &holes);
        let done = run_clients(&addr, &jobs, &refs).unwrap();
        let mut conn = Conn::open(&addr).unwrap();
        conn.out.write_all(b"SHUTDOWN\n").unwrap();
        let mut line = String::new();
        conn.line(&mut line).unwrap();
        assert!(line.starts_with("OK shutting-down"));
        daemon.join().unwrap().unwrap();

        assert_eq!(done.len(), jobs.len());
        assert!(done.iter().all(|d| d.ok), "{done:?}");
        let (predicted, reported) = hit_shares(&jobs, &done);
        assert_eq!(predicted, reported);
        assert!(predicted > 0.5 && predicted < 1.0, "{predicted}");
        assert!(done.iter().any(|d| d.fresh) && done.iter().any(|d| !d.fresh));
    }
}
