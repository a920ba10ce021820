//! The daemon: a TCP accept loop over shared service state.
//!
//! One OS thread per connection; every connection speaks the
//! [`crate::protocol`] grammar. Sweeps run on the process-wide
//! persistent worker pool ([`tp_sched::global`]), which survives
//! panicking proof tasks by contract (see `tp-sched`'s failure model) —
//! that contract is what lets a long-lived service exist at all: a
//! detonating cell becomes an `err` record in one job's stream, never a
//! dead worker.
//!
//! # Socket discipline
//!
//! A warm job is well under a millisecond of work, so the socket path
//! must not add waits of its own:
//!
//! * **Blocking accept.** [`Server::serve`] sleeps in `accept()`; there
//!   is no poll interval. `SHUTDOWN` sets the stop flag and then
//!   connects once to the bound address (an unspecified bind address
//!   is reached through loopback), and the loop checks the flag after
//!   every accept and drops that wake-up connection. Transient accept
//!   errors — an aborted handshake, an interrupted call, running out
//!   of descriptors (after a short backoff), an injected
//!   `serve.accept` fault — end one attempt, never the daemon; a
//!   connection whose thread cannot be spawned is dropped alone.
//! * **`TCP_NODELAY` and one buffered writer.** Every accepted stream
//!   disables Nagle's algorithm, and a connection writes through one
//!   [`BufWriter`], flushed once per `OK job=` line, once per record
//!   group and at each block end. Unbuffered formatted writes would
//!   send every fragment as its own segment, and Nagle would hold the
//!   second one back until the peer's delayed ACK — tens of
//!   milliseconds per response.
//! * **Bounded request lines.** A request line is read under a
//!   [`MAX_LINE`] cap; a longer one gets `ERR code=malformed` and the
//!   connection closes, so a client that never sends a newline cannot
//!   grow a buffer without limit.
//!
//! # Concurrency model
//!
//! Each submitted job runs its sweep on a dedicated *job thread* and
//! streams finished cells to the submitting connection over a channel.
//! The split is what makes the failure modes independent: the client
//! vanishing kills only the stream (the sweep completes and warms the
//! cache), and a wall-clock deadline expiring abandons only the wait
//! (the records the client never saw become `err` records in its
//! stream, never a wedged daemon). The connection joins the job thread
//! before it writes `DONE` (expired jobs are left to finish in the
//! background). Without the join, a client's next job could start
//! while the last job thread is still exiting; with two clients,
//! several job threads then allocate at once, and glibc gives each its
//! own malloc arena of a few hundred KB. Joining lets the next job
//! reuse the finished job's arena, which keeps the daemon's peak RSS
//! down.
//!
//! The proof cache, which owns its `--cache` log, sits behind one
//! [`Mutex`]: a cached job holds it for the duration of its sweep and
//! appends under it, so concurrent cached jobs serialise and their
//! frames never interleave (the pool underneath is already saturated
//! by one sweep; interleaving two would only shuffle latency around).
//! `nocache` jobs skip the lock and run concurrently. `STATUS`,
//! `CANCEL` and `METRICS` never wait on a sweep — they touch only the
//! job registry, telemetry and the entry count a cached job publishes
//! as it releases the lock (which is also what a `nocache` job's `DONE`
//! reports).
//!
//! # Cancellation and deadlines
//!
//! `CANCEL job=N` (or the submitting client disconnecting, or an
//! injected `serve.stream` fault) stops the job's *stream*:
//! already-queued proof tasks still complete on the pool (there is no
//! preemption mid-proof) and — for a cached job — still populate the
//! cache, so a cancelled sweep's work is not wasted. The submitting
//! connection gets `CANCELLED` as its terminal line instead of `DONE`.
//! `SUBMIT … deadline_ms=N` bounds the wall-clock wait: on expiry the
//! unstreamed cells are reported as `err` records and the terminal
//! line is `EXPIRED`, while the sweep itself keeps running in the
//! background (counted under `jobs_deadline_expired`).
//!
//! # Crash safety
//!
//! With `--cache`, the daemon keeps its proof store the way
//! `matrix --cache` does: `tp_bench::open_store` opens the framed log
//! of [`tp_core::journal`] into a [`ProofCache`] that owns it. The log
//! is only ever appended to; open cuts a torn tail. A cached job
//! appends each freshly proved cell as one fsynced frame the moment it
//! completes (a re-proved replacement for a rejected entry is one more
//! frame, and the last frame for a key wins on reload), so a daemon
//! killed mid-job loses at most the cell in flight. After the first
//! failed append the cache appends nothing more
//! ([`ProofCache::take_log_error`]); the daemon prints the error once
//! and keeps serving from memory. `SHUTDOWN` refuses new jobs, drains
//! the in-flight ones, and only then answers and exits; every proved
//! cell is already on disk.

use std::io::{self, BufRead, BufReader, BufWriter, Read, Write};
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

use tp_core::engine::MatrixCell;
use tp_core::faultpoint::{self, Fault};
use tp_core::noninterference::NiScenario;
use tp_core::{wire, CacheStats, ProofCache, ProofReport};
use tp_kernel::program::{Instr, Program, StepFeedback};

use crate::protocol::{parse_request, Request, SubmitSpec};

/// Longest request line read, newline excluded; a longer one is
/// answered `ERR code=malformed` and closes the connection.
pub const MAX_LINE: usize = 64 * 1024;
/// Pause after an accept error that will not clear at once (out of
/// descriptors or memory), so the loop does not spin on it.
const ACCEPT_BACKOFF: Duration = Duration::from_millis(20);
/// Fault point fired before every `accept()`; `ioerr` makes that
/// attempt fail as a transient accept error would.
const ACCEPT_POINT: &str = "serve.accept";
/// Finished jobs kept in the registry for `STATUS` history.
const JOB_HISTORY: usize = 64;
/// Fault point fired once per streamed record on the connection side;
/// `ioerr` simulates the client dropping mid-stream.
const STREAM_POINT: &str = "serve.stream";

/// How long `SHUTDOWN` waits for in-flight jobs before giving up on
/// them (`TP_SERVE_DRAIN_MS` overrides; tests shrink it).
fn drain_window() -> Duration {
    std::env::var("TP_SERVE_DRAIN_MS")
        .ok()
        .and_then(|v| v.parse().ok())
        .map(Duration::from_millis)
        .unwrap_or(Duration::from_secs(30))
}

/// Recover a poisoned lock: the guarded values (store, job registry)
/// are structurally valid between mutations, so a handler thread that
/// panicked mid-critical-section leaves consistent state behind — the
/// same stance the scheduler pool takes on its injector.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// The fault-injection payload: a program that detonates on its first
/// step. Exercises the containment path end to end — the panic unwinds
/// inside a pool worker, surfaces as the cell's `err` record, and the
/// daemon keeps serving.
#[derive(Debug, Clone)]
struct PanickingProgram;

impl Program for PanickingProgram {
    fn next(&mut self, _feedback: &StepFeedback) -> Instr {
        panic!("injected fault: program detonated")
    }
}

/// Live progress of one submitted sweep, shared between the running
/// job and `STATUS`/`CANCEL` handlers on other connections.
struct JobState {
    cancelled: AtomicBool,
    expired: AtomicBool,
    finished: AtomicBool,
    done: AtomicUsize,
    failed: AtomicUsize,
}

/// Registry entry for one job.
struct JobEntry {
    id: u64,
    cells: usize,
    state: Arc<JobState>,
}

/// State shared by every connection handler.
struct Shared {
    store: Mutex<ProofCache>,
    /// `cache.len()` as of the last time a job released the store
    /// lock: what `METRICS` and `nocache` jobs report without waiting
    /// on a cached sweep.
    cache_entries: AtomicUsize,
    jobs: Mutex<Vec<JobEntry>>,
    next_job: AtomicU64,
    /// Jobs registered but not yet finished — what `SHUTDOWN` drains.
    active_jobs: AtomicUsize,
    /// Set first (under the jobs lock): refuse new jobs, keep serving.
    draining: AtomicBool,
    /// Set last, after the drain: stops the accept loop.
    shutdown: AtomicBool,
    /// Where `SHUTDOWN` connects to wake the blocked accept loop.
    wake_addr: SocketAddr,
}

impl Shared {
    /// Register a new job and hand back its id and live state, or
    /// `None` when the daemon is draining for shutdown. The check and
    /// the registration share the jobs lock, so a job is either seen
    /// by the drain or refused — never missed between the two.
    fn register_job(&self, cells: usize) -> Option<(u64, Arc<JobState>)> {
        let mut jobs = lock(&self.jobs);
        if self.draining.load(Ordering::SeqCst) {
            return None;
        }
        let id = self.next_job.fetch_add(1, Ordering::SeqCst);
        let state = Arc::new(JobState {
            cancelled: AtomicBool::new(false),
            expired: AtomicBool::new(false),
            finished: AtomicBool::new(false),
            done: AtomicUsize::new(0),
            failed: AtomicUsize::new(0),
        });
        // Bound the registry: drop the oldest *finished* entries once
        // past the history window; running jobs are never evicted.
        while jobs.len() >= JOB_HISTORY {
            match jobs
                .iter()
                .position(|j| j.state.finished.load(Ordering::SeqCst))
            {
                Some(i) => {
                    jobs.remove(i);
                }
                None => break,
            }
        }
        jobs.push(JobEntry {
            id,
            cells,
            state: Arc::clone(&state),
        });
        self.active_jobs.fetch_add(1, Ordering::SeqCst);
        Some((id, state))
    }
}

/// Decrements the active-job count when the job thread ends, however
/// it ends — the drop guard is what keeps a panicking sweep from
/// wedging `SHUTDOWN`'s drain forever.
struct ActiveGuard(Arc<Shared>);

impl Drop for ActiveGuard {
    fn drop(&mut self) {
        self.0.active_jobs.fetch_sub(1, Ordering::SeqCst);
    }
}

/// One message from a job thread to its submitting connection.
enum Msg {
    /// One finished cell's rendered record group (multi-line).
    Rec(String),
    /// The sweep finished; everything the terminal line needs.
    Done {
        proved: usize,
        failed: usize,
        stats: CacheStats,
        entries: usize,
    },
}

/// The resident proof service: bind once, [`Server::serve`] until a
/// client sends `SHUTDOWN`.
pub struct Server {
    listener: TcpListener,
    shared: Arc<Shared>,
}

impl Server {
    /// Bind `addr` (e.g. `127.0.0.1:0` for an ephemeral port) fronting
    /// `cache`. Every cached job appends each freshly proved cell to the
    /// cache's log as one fsynced frame, so warm state survives daemon
    /// restarts and crashes. A cache from `tp_bench::open_store` already
    /// owns its log; `cache_path` attaches the log at that path to a
    /// cache loaded in memory ([`ProofCache::attach_log`]), and that file
    /// must hold exactly what `cache` holds, with no torn tail.
    ///
    /// `journal_dir` is kept only so the benchmark's existing
    /// four-argument caller compiles, and must be `None`: `Some` is
    /// refused with [`io::ErrorKind::InvalidInput`], because the
    /// `--cache` log is the crash-safe store.
    pub fn bind(
        addr: &str,
        mut cache: ProofCache,
        cache_path: Option<PathBuf>,
        journal_dir: Option<PathBuf>,
    ) -> io::Result<Server> {
        if journal_dir.is_some() {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "no journal directory: the --cache log is the crash-safe store",
            ));
        }
        if let Some(path) = cache_path {
            cache.attach_log(&path)?;
        }
        let listener = TcpListener::bind(addr)?;
        let mut wake_addr = listener.local_addr()?;
        if wake_addr.ip().is_unspecified() {
            wake_addr.set_ip(match wake_addr.ip() {
                IpAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
                IpAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
            });
        }
        Ok(Server {
            listener,
            shared: Arc::new(Shared {
                cache_entries: AtomicUsize::new(cache.len()),
                store: Mutex::new(cache),
                jobs: Mutex::new(Vec::new()),
                next_job: AtomicU64::new(1),
                active_jobs: AtomicUsize::new(0),
                draining: AtomicBool::new(false),
                shutdown: AtomicBool::new(false),
                wake_addr,
            }),
        })
    }

    /// The address actually bound (resolves an ephemeral port).
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// Accept and serve connections until `SHUTDOWN`. Each connection
    /// gets its own thread; a handler that dies takes down only its
    /// connection. Returns once an accept observes the shutdown flag —
    /// and because the `SHUTDOWN` handler sets it only *after* draining
    /// in-flight jobs (whose proved cells are already appended to the
    /// log), then connects once to wake this loop, returning here is
    /// already safe to exit on.
    /// Transient accept errors are retried; only an error that says the
    /// listener itself is unusable is returned.
    pub fn serve(&self) -> io::Result<()> {
        loop {
            let accepted = match faultpoint::fire(ACCEPT_POINT) {
                Some(Fault::IoError) => Err(faultpoint::injected_io_error(ACCEPT_POINT)),
                _ => self.listener.accept(),
            };
            let stream = match accepted {
                Ok((stream, _peer)) => stream,
                Err(e) => match e.kind() {
                    // One failed handshake or an interrupted call: the
                    // listener is fine, accept again at once.
                    io::ErrorKind::ConnectionAborted | io::ErrorKind::Interrupted => continue,
                    // The listener is not listening: nothing to retry.
                    io::ErrorKind::InvalidInput => return Err(e),
                    // Out of descriptors (EMFILE/ENFILE), buffers or
                    // memory, or an injected fault: back off until
                    // connections close, then accept again.
                    _ => {
                        eprintln!("tp-serve: accept failed ({e}); retrying");
                        std::thread::sleep(ACCEPT_BACKOFF);
                        continue;
                    }
                },
            };
            if self.shared.shutdown.load(Ordering::SeqCst) {
                return Ok(());
            }
            let shared = Arc::clone(&self.shared);
            let spawned = std::thread::Builder::new().spawn(move || handle_conn(stream, &shared));
            // A failed spawn drops this one connection (the closure and
            // its stream with it); the daemon keeps accepting.
            if let Err(e) = spawned {
                eprintln!("tp-serve: cannot spawn connection thread ({e}); dropping it");
            }
        }
    }
}

/// A connection's write side: every response goes through one buffer,
/// flushed at the points the module docs list.
type Out = BufWriter<TcpStream>;

/// Serve one connection: one request per line until EOF, shutdown, an
/// over-long line, or an I/O failure (a vanished client just ends its
/// own handler).
fn handle_conn(stream: TcpStream, shared: &Arc<Shared>) {
    if stream.set_nodelay(true).is_err() {
        return;
    }
    let Ok(read_half) = stream.try_clone() else {
        return;
    };
    let mut reader = BufReader::new(read_half);
    let mut out = BufWriter::new(stream);
    let mut line = Vec::new();
    loop {
        line.clear();
        // One byte past the cap tells an over-long line from one that
        // is exactly `MAX_LINE` long.
        let n = match (&mut reader)
            .take(MAX_LINE as u64 + 1)
            .read_until(b'\n', &mut line)
        {
            Ok(0) | Err(_) => return,
            Ok(n) => n,
        };
        if line.last() == Some(&b'\n') {
            line.pop();
            if line.last() == Some(&b'\r') {
                line.pop();
            }
        } else if n > MAX_LINE {
            let _ = err_block(
                &mut out,
                "malformed",
                &format!("request line longer than {MAX_LINE} bytes"),
            );
            return;
        }
        let Ok(text) = std::str::from_utf8(&line) else {
            return;
        };
        match dispatch(text, shared, &mut out) {
            Ok(true) => {}
            Ok(false) | Err(_) => return,
        }
    }
}

/// Terminate a response block.
fn end_block(out: &mut Out) -> io::Result<()> {
    writeln!(out, ".")?;
    out.flush()
}

/// Emit an `ERR` block.
fn err_block(out: &mut Out, code: &str, msg: &str) -> io::Result<()> {
    writeln!(out, "ERR code={code} msg={msg}")?;
    end_block(out)
}

/// Handle one request line. `Ok(false)` ends the connection (after
/// `SHUTDOWN`); `Err` means the client is gone.
fn dispatch(line: &str, shared: &Arc<Shared>, out: &mut Out) -> io::Result<bool> {
    let req = match parse_request(line) {
        Ok(r) => r,
        Err(msg) => {
            err_block(out, "malformed", &msg)?;
            return Ok(true);
        }
    };
    match req {
        Request::Ping => {
            writeln!(out, "OK pong")?;
            end_block(out)?;
        }
        Request::Submit(spec) => run_submit(shared, spec, out)?,
        Request::Status => {
            let jobs = lock(&shared.jobs);
            writeln!(out, "OK jobs={}", jobs.len())?;
            for j in jobs.iter() {
                let state = if j.state.expired.load(Ordering::SeqCst) {
                    "expired"
                } else if j.state.cancelled.load(Ordering::SeqCst) {
                    "cancelled"
                } else if j.state.finished.load(Ordering::SeqCst) {
                    "done"
                } else {
                    "running"
                };
                writeln!(
                    out,
                    "JOB id={} state={} cells={} done={} failed={}",
                    j.id,
                    state,
                    j.cells,
                    j.state.done.load(Ordering::SeqCst),
                    j.state.failed.load(Ordering::SeqCst),
                )?;
            }
            drop(jobs);
            end_block(out)?;
        }
        Request::Cancel { job } => {
            let jobs = lock(&shared.jobs);
            match jobs.iter().find(|j| j.id == job) {
                Some(j) => {
                    j.state.cancelled.store(true, Ordering::SeqCst);
                    drop(jobs);
                    writeln!(out, "OK cancelled job={job}")?;
                    end_block(out)?;
                }
                None => {
                    drop(jobs);
                    err_block(out, "unknown-job", &format!("no job {job}"))?;
                }
            }
        }
        Request::Metrics => match tp_telemetry::snapshot() {
            None => err_block(out, "no-telemetry", "no telemetry sink installed")?,
            Some(snap) => {
                writeln!(out, "OK metrics")?;
                for c in tp_telemetry::Counter::ALL {
                    writeln!(out, "METRIC {} {}", c.name(), snap.counter(c))?;
                }
                writeln!(out, "METRIC pool_peak_queue {}", snap.peak_queue)?;
                writeln!(
                    out,
                    "METRIC cache_entries {}",
                    shared.cache_entries.load(Ordering::SeqCst)
                )?;
                for k in tp_telemetry::SpanKind::ALL {
                    let (n, total_us) = snap.span(k);
                    writeln!(out, "SPAN {} n={n} total_us={total_us}", k.name())?;
                }
                end_block(out)?;
            }
        },
        Request::Shutdown => {
            // Refuse new jobs from this instant (the flag is set under
            // the jobs lock, so no SUBMIT can slip between the check
            // and its registration), then drain the in-flight ones.
            {
                let _jobs = lock(&shared.jobs);
                shared.draining.store(true, Ordering::SeqCst);
            }
            let give_up = Instant::now() + drain_window();
            while shared.active_jobs.load(Ordering::SeqCst) > 0 && Instant::now() < give_up {
                std::thread::sleep(Duration::from_millis(5));
            }
            if shared.active_jobs.load(Ordering::SeqCst) > 0 {
                eprintln!("tp-serve: drain window expired with jobs still running");
            }
            writeln!(out, "OK shutting-down")?;
            end_block(out)?;
            // Stop the accept loop: set the flag, then hand the blocked
            // `accept()` one connection so it looks at the flag.
            shared.shutdown.store(true, Ordering::SeqCst);
            if let Err(e) = TcpStream::connect_timeout(&shared.wake_addr, Duration::from_secs(2)) {
                eprintln!("tp-serve: cannot wake the accept loop: {e}");
            }
            return Ok(false);
        }
    }
    Ok(true)
}

/// Wrap a scenario so the Hi domain's program detonates on its first
/// step — the panic fires inside a pool worker during stepping, which
/// is exactly where a real modelling bug would.
fn detonate_hi(scenario: NiScenario) -> NiScenario {
    let NiScenario {
        mcfg,
        make_kcfg,
        lo,
        secrets,
        budget,
        max_steps,
    } = scenario;
    NiScenario {
        mcfg,
        make_kcfg: Box::new(move |secret| {
            let mut k = make_kcfg(secret);
            k.domains[1].program = Box::new(PanickingProgram);
            k
        }),
        lo,
        secrets,
        budget,
        max_steps,
    }
}

/// Write one cell's record group as `REC `-prefixed lines.
fn write_rec_lines(out: &mut Out, rec: &str) -> io::Result<()> {
    rec.lines().try_for_each(|l| writeln!(out, "REC {l}"))?;
    out.flush()
}

/// Run one `SUBMIT`: spawn the sweep on a job thread, stream `REC`
/// lines back as cells complete, then the `DONE`/`CANCELLED`/`EXPIRED`
/// terminal line. The sweep construction mirrors `matrix --worker`
/// exactly — same [`tp_bench::shaped_matrix`], same
/// [`tp_bench::canonical_scenario`] — so the stripped `REC` payload is
/// byte-identical to that binary's stdout for the same subset.
fn run_submit(shared: &Arc<Shared>, spec: SubmitSpec, out: &mut Out) -> io::Result<()> {
    let matrix = tp_bench::shaped_matrix(spec.models);
    let total = matrix.cells().len();
    let indices: Vec<usize> = match spec.cells {
        Some(sel) => sel,
        None => (0..total).collect(),
    };
    if let Some(&bad) = indices.iter().find(|&&i| i >= total) {
        return err_block(
            out,
            "malformed",
            &format!("cell {bad} out of range (matrix has {total} cells)"),
        );
    }
    let fault_cell: Option<MatrixCell> = match spec.fault {
        None => None,
        Some(i) if i < total => Some(matrix.cells()[i].clone()),
        Some(i) => {
            return err_block(
                out,
                "malformed",
                &format!("fault cell {i} out of range (matrix has {total} cells)"),
            );
        }
    };

    let Some((job_id, job)) = shared.register_job(indices.len()) else {
        return err_block(out, "shutting-down", "daemon is draining");
    };
    writeln!(out, "OK job={job_id} cells={}", indices.len())?;
    out.flush()?;

    let make_scenario = move |cell: &MatrixCell| -> NiScenario {
        let scenario = tp_bench::canonical_scenario(cell.disable);
        if fault_cell.as_ref() == Some(cell) {
            detonate_hi(scenario)
        } else {
            scenario
        }
    };

    let deadline = spec
        .deadline_ms
        .map(|ms| Instant::now() + Duration::from_millis(ms));
    let (tx, rx) = mpsc::channel::<Msg>();
    let worker_shared = Arc::clone(shared);
    let js = Arc::clone(&job);
    let nocache = spec.nocache;
    let job_indices = indices.clone();
    let spawned = std::thread::Builder::new()
        .name(format!("tp-serve-job-{job_id}"))
        .spawn(move || {
            run_job(
                &worker_shared,
                &js,
                &matrix,
                &job_indices,
                nocache,
                make_scenario,
                &tx,
            )
        });
    let job_thread = match spawned {
        Ok(handle) => handle,
        Err(e) => {
            shared.active_jobs.fetch_sub(1, Ordering::SeqCst);
            job.finished.store(true, Ordering::SeqCst);
            eprintln!("tp-serve: cannot spawn job thread: {e}");
            return err_block(out, "internal", "cannot spawn job thread");
        }
    };

    // The connection side: forward records, watch the deadline, and
    // turn a vanished client into a cancellation instead of an abort.
    let mut streamed = 0usize;
    let mut io_err: Option<io::Error> = None;
    loop {
        let msg = match deadline {
            None => match rx.recv() {
                Ok(m) => m,
                Err(_) => break,
            },
            Some(d) => {
                let left = d.saturating_duration_since(Instant::now());
                match rx.recv_timeout(left) {
                    Ok(m) => m,
                    Err(mpsc::RecvTimeoutError::Timeout) => {
                        // The job blew its wall-clock budget: stop
                        // waiting, report every unstreamed cell as an
                        // err record, and leave the sweep to finish in
                        // the background (its work still warms the
                        // cache — the daemon is never wedged).
                        job.cancelled.store(true, Ordering::SeqCst);
                        job.expired.store(true, Ordering::SeqCst);
                        tp_telemetry::count(tp_telemetry::Counter::JobsDeadlineExpired);
                        drop(rx);
                        if io_err.is_none() {
                            for &ci in &indices[streamed..] {
                                let mut rec = String::new();
                                wire::write_cell_error(&mut rec, ci, "deadline expired");
                                write_rec_lines(out, &rec)?;
                            }
                            writeln!(
                                out,
                                "EXPIRED job={job_id} streamed={streamed} total={}",
                                indices.len()
                            )?;
                            return end_block(out);
                        }
                        return Err(io_err.expect("checked above"));
                    }
                    Err(mpsc::RecvTimeoutError::Disconnected) => break,
                }
            }
        };
        match msg {
            Msg::Rec(rec) => {
                streamed += 1;
                if io_err.is_some() || job.cancelled.load(Ordering::SeqCst) {
                    continue;
                }
                let injected = matches!(
                    tp_core::faultpoint::fire(STREAM_POINT),
                    Some(tp_core::faultpoint::Fault::IoError)
                );
                let sent = if injected {
                    Err(tp_core::faultpoint::injected_io_error(STREAM_POINT))
                } else {
                    write_rec_lines(out, &rec)
                };
                if let Err(e) = sent {
                    // Client gone mid-stream: cancel the job so the
                    // sweep stops rendering records; queued proof work
                    // still completes and warms the cache.
                    job.cancelled.store(true, Ordering::SeqCst);
                    io_err = Some(e);
                }
            }
            Msg::Done {
                proved,
                failed,
                stats,
                entries,
            } => {
                // The thread has nothing left but its own teardown;
                // wait for it so the next job reuses its malloc arena.
                let _ = job_thread.join();
                if let Some(e) = io_err {
                    return Err(e);
                }
                if job.cancelled.load(Ordering::SeqCst) {
                    writeln!(out, "CANCELLED job={job_id}")?;
                    return end_block(out);
                }
                writeln!(
                    out,
                    "DONE job={job_id} proved={proved} failed={failed} hits={} missed={} rejected={} uncacheable={} entries={entries}",
                    stats.hits, stats.misses, stats.rejected, stats.uncacheable,
                )?;
                return end_block(out);
            }
        }
    }
    // The channel died without a Done: the job thread panicked.
    let _ = job_thread.join();
    match io_err {
        Some(e) => Err(e),
        None => err_block(out, "internal", "sweep thread died"),
    }
}

/// The job-thread body: run the sweep (cached or not), stream each
/// cell over `tx`, append what it proved to the log, and finish with a
/// [`Msg::Done`]. Runs to completion even when nobody is listening —
/// a cancelled or expired job still warms the cache.
fn run_job(
    shared: &Arc<Shared>,
    job: &Arc<JobState>,
    matrix: &tp_core::ScenarioMatrix,
    indices: &[usize],
    nocache: bool,
    make_scenario: impl Fn(&MatrixCell) -> NiScenario,
    tx: &mpsc::Sender<Msg>,
) {
    let _active = ActiveGuard(Arc::clone(shared));
    let emit = |i: usize, cell: &MatrixCell, outcome: &Result<ProofReport, String>| {
        job.done.fetch_add(1, Ordering::SeqCst);
        if outcome.is_err() {
            job.failed.fetch_add(1, Ordering::SeqCst);
        }
        if job.cancelled.load(Ordering::SeqCst) {
            return; // nobody is listening: skip the rendering work
        }
        let mut rec = String::new();
        match outcome {
            Ok(report) => wire::write_cell(&mut rec, i, cell, report),
            Err(msg) => wire::write_cell_error(&mut rec, i, msg),
        }
        // A send failure means the receiver gave up (deadline); the
        // sweep still runs to completion for the cache's sake.
        let _ = tx.send(Msg::Rec(rec));
    };

    // A cached job holds the store for its whole sweep and appends every
    // freshly proved cell to the log; a `nocache` job touches neither.
    let mut store = (!nocache).then(|| lock(&shared.store));
    let (outcomes, stats) = matrix.run_subset(
        tp_sched::global(),
        indices,
        store.as_deref_mut(),
        &make_scenario,
        emit,
        None,
    );
    let entries = match store {
        None => shared.cache_entries.load(Ordering::SeqCst),
        Some(mut cache) => {
            if let Some(e) = cache.take_log_error() {
                eprintln!(
                    "tp-serve: cache append failed: {e} (appending no more; serving from memory)"
                );
            }
            let n = cache.len();
            shared.cache_entries.store(n, Ordering::SeqCst);
            n
        }
    };
    job.finished.store(true, Ordering::SeqCst);
    let proved = outcomes.iter().filter(|(_, _, r)| r.is_ok()).count();
    let _ = tx.send(Msg::Done {
        proved,
        failed: outcomes.len() - proved,
        stats,
        entries,
    });
}
