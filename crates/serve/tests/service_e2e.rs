//! End-to-end contract of the proof service, driven over a real TCP
//! socket: streamed records byte-identical to `matrix --worker`, warm
//! resubmits answered from the cache, a detonating cell contained as
//! one `err` record while the daemon keeps serving, the protocol edges
//! (PING/STATUS/CANCEL/METRICS/malformed/SHUTDOWN), and the crash-safe
//! lifecycle: SHUTDOWN drains in-flight jobs before answering, a
//! `deadline_ms=` expiry yields `err` records instead of a wedged
//! daemon, a vanished client cancels only its stream, the `--cache`
//! log is appended to and never rewritten, a daemon killed mid-append
//! restarts from its torn log, and a failed append stops appending
//! while the daemon keeps serving. The socket path is pinned too: warm
//! jobs and `SHUTDOWN` answer without poll or Nagle stalls, `METRICS`
//! never waits on a cached sweep, an over-long request line is
//! refused, and a failed accept leaves the daemon up.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::process::{Child, Command, ExitStatus, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;
use std::time::{Duration, Instant};

use tp_core::ProofCache;
use tp_serve::Server;

/// Sequence numbers for per-test scratch paths.
static SCRATCH: AtomicUsize = AtomicUsize::new(0);

/// A line-oriented test client.
struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    fn connect(addr: SocketAddr) -> Client {
        let stream = TcpStream::connect(addr).expect("service accepts");
        let reader = BufReader::new(stream.try_clone().expect("clone stream"));
        Client {
            reader,
            writer: stream,
        }
    }

    /// Send one request line in one write, as a real client does: a
    /// request split over two writes would wait on this side's Nagle
    /// timer for the peer's delayed ACK.
    fn send(&mut self, line: &str) {
        self.writer
            .write_all(format!("{line}\n").as_bytes())
            .expect("request sends");
    }

    /// Read one `.`-terminated response block (the `.` excluded).
    fn read_block(&mut self) -> Vec<String> {
        let mut lines = Vec::new();
        loop {
            let mut line = String::new();
            let n = self.reader.read_line(&mut line).expect("response reads");
            assert_ne!(n, 0, "connection closed mid-block: {lines:?}");
            let line = line.trim_end_matches('\n').to_string();
            if line == "." {
                return lines;
            }
            lines.push(line);
        }
    }

    /// Read one raw response line (for peeking at a block's first line
    /// before doing something else mid-stream).
    fn read_line(&mut self) -> String {
        let mut line = String::new();
        let n = self.reader.read_line(&mut line).expect("line reads");
        assert_ne!(n, 0, "connection closed mid-line");
        line.trim_end_matches('\n').to_string()
    }

    /// Send a request and read its whole response block.
    fn round_trip(&mut self, line: &str) -> Vec<String> {
        self.send(line);
        self.read_block()
    }
}

/// Bind an in-process service on an ephemeral port and serve it from a
/// background thread.
fn start_service(cache: ProofCache) -> (SocketAddr, Client) {
    start_service_at(cache, None)
}

/// [`start_service`] appending to the log at `cache_path`, which must
/// hold what `cache` holds.
fn start_service_at(cache: ProofCache, cache_path: Option<PathBuf>) -> (SocketAddr, Client) {
    let server = Server::bind("127.0.0.1:0", cache, cache_path, None).expect("service binds");
    let addr = server.local_addr().expect("bound address resolves");
    std::thread::spawn(move || server.serve().expect("accept loop stays up"));
    (addr, Client::connect(addr))
}

/// A `tp-serve` child process, killed if the test fails before it
/// exits.
struct Daemon(Child);

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

/// Start the daemon binary on an ephemeral loopback port with `args`
/// and `stderr`, and read the bound address from its banner.
fn spawn_daemon(args: &[&str], faults: Option<&str>, stderr: Stdio) -> (Daemon, SocketAddr) {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_tp-serve"));
    cmd.args(["--addr", "127.0.0.1:0"])
        .args(args)
        .env_remove("TP_FAULTS")
        .stdout(Stdio::piped())
        .stderr(stderr);
    if let Some(plan) = faults {
        cmd.env("TP_FAULTS", plan);
    }
    let mut daemon = Daemon(cmd.spawn().expect("daemon starts"));

    // The first stdout line announces the ephemeral port.
    let mut stdout = BufReader::new(daemon.0.stdout.take().expect("stdout piped"));
    let mut banner = String::new();
    stdout.read_line(&mut banner).expect("banner line");
    let addr = banner
        .trim()
        .strip_prefix("tp-serve: listening on ")
        .unwrap_or_else(|| panic!("unexpected banner {banner:?}"))
        .parse()
        .expect("banner carries the bound address");
    (daemon, addr)
}

/// Wait for a daemon started with piped stderr to exit; its status and
/// everything it wrote to stderr.
fn exit_and_stderr(daemon: &mut Daemon) -> (ExitStatus, String) {
    let status = daemon.0.wait().expect("daemon exits");
    let mut stderr = String::new();
    daemon
        .0
        .stderr
        .take()
        .expect("stderr piped")
        .read_to_string(&mut stderr)
        .expect("stderr reads");
    (status, stderr)
}

/// A scratch path unique to this test run.
fn scratch_path(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!(
        "tp_serve_e2e_{}_{}_{tag}",
        std::process::id(),
        SCRATCH.fetch_add(1, Ordering::SeqCst)
    ))
}

/// Poll `STATUS` until `pred` accepts the given job's line.
fn wait_for_job(client: &mut Client, job: u64, pred: impl Fn(&str) -> bool) -> String {
    let give_up = Instant::now() + Duration::from_secs(30);
    loop {
        let status = client.round_trip("STATUS");
        let line = status
            .iter()
            .find(|l| l.starts_with(&format!("JOB id={job} ")))
            .unwrap_or_else(|| panic!("job {job} listed: {status:?}"))
            .clone();
        if pred(&line) {
            return line;
        }
        assert!(
            Instant::now() < give_up,
            "job {job} never reached the expected state: {line}"
        );
        std::thread::sleep(Duration::from_millis(20));
    }
}

/// The records `matrix --worker` would print for this subset, computed
/// in-process through the same helpers that binary uses.
fn reference_records(models: Option<usize>, indices: &[usize]) -> String {
    let matrix = tp_bench::shaped_matrix(models);
    let (proved, _) = tp_bench::run_matrix_cells(&matrix, indices, None, |_, _, _| {});
    let mut out = String::new();
    for (i, cell, report) in &proved {
        tp_core::wire::write_cell(&mut out, *i, cell, report);
    }
    out
}

/// Concatenate a response block's `REC ` payloads back into wire text.
fn stripped_records(block: &[String]) -> String {
    let mut out = String::new();
    for line in block {
        if let Some(rec) = line.strip_prefix("REC ") {
            out.push_str(rec);
            out.push('\n');
        }
    }
    out
}

/// The block's terminal `DONE` line.
fn done_line(block: &[String]) -> &str {
    block
        .iter()
        .rev()
        .find(|l| l.starts_with("DONE "))
        .unwrap_or_else(|| panic!("no DONE line in {block:?}"))
}

/// Extract `key=` from a status line.
fn field(line: &str, key: &str) -> u64 {
    line.split_ascii_whitespace()
        .find_map(|tok| tok.strip_prefix(key))
        .unwrap_or_else(|| panic!("no {key} in {line:?}"))
        .parse()
        .unwrap_or_else(|_| panic!("bad {key} in {line:?}"))
}

/// The `METRIC <name> <value>` value from a `METRICS` block.
fn metric(block: &[String], name: &str) -> u64 {
    block
        .iter()
        .find_map(|l| l.strip_prefix(&format!("METRIC {name} ")))
        .unwrap_or_else(|| panic!("no metric {name} in {block:?}"))
        .parse()
        .unwrap_or_else(|_| panic!("bad metric {name} in {block:?}"))
}

/// The median of a handful of durations, in milliseconds.
fn median_ms(mut samples: Vec<Duration>) -> f64 {
    samples.sort();
    samples[samples.len() / 2].as_secs_f64() * 1e3
}

#[test]
fn submits_stream_matrix_worker_bytes_and_warm_resubmits_hit_the_cache() {
    let (_addr, mut client) = start_service(ProofCache::new());
    let reference = reference_records(Some(1), &[0, 1, 2, 3, 4, 5, 6]);

    // Cold: everything proves live, and the stream — stripped of its
    // framing prefix — is byte-identical to the sharding binary.
    let block = client.round_trip("SUBMIT models=1 cells=0..7");
    assert!(block[0].starts_with("OK job="), "{block:?}");
    assert_eq!(stripped_records(&block), reference, "cold stream");
    let done = done_line(&block);
    assert_eq!(field(done, "proved="), 7, "{done}");
    assert_eq!(field(done, "failed="), 0, "{done}");
    assert_eq!(field(done, "hits="), 0, "{done}");
    assert_eq!(field(done, "missed="), 7, "{done}");

    // Warm: same request, zero re-proving, still the same bytes.
    let block = client.round_trip("SUBMIT models=1 cells=0..7");
    assert_eq!(stripped_records(&block), reference, "warm stream");
    let done = done_line(&block);
    assert_eq!(
        field(done, "hits="),
        7,
        "warm run answers from cache: {done}"
    );
    assert_eq!(field(done, "missed="), 0, "{done}");
    assert_eq!(field(done, "entries="), 7, "{done}");

    // A subset resubmit hits too — the cache is per-cell, not per-job.
    let block = client.round_trip("SUBMIT models=1 cells=2..5");
    assert_eq!(
        stripped_records(&block),
        reference_records(Some(1), &[2, 3, 4]),
        "subset stream"
    );
    assert_eq!(field(done_line(&block), "hits="), 3);

    // `nocache` bypasses the front: same bytes, proved live.
    let block = client.round_trip("SUBMIT models=1 cells=0..2 nocache");
    assert_eq!(
        stripped_records(&block),
        reference_records(Some(1), &[0, 1]),
        "nocache stream"
    );
    assert_eq!(field(done_line(&block), "hits="), 0);
    assert_eq!(
        field(done_line(&block), "missed="),
        0,
        "nocache keeps no stats"
    );
}

#[test]
fn a_detonating_cell_is_one_err_record_not_a_dead_daemon() {
    let (addr, mut client) = start_service(ProofCache::new());
    let healthy = [0usize, 1, 3, 4];
    let reference = reference_records(Some(1), &healthy);

    // Fault-inject cell 2: its Hi program panics inside a pool worker.
    let block = client.round_trip("SUBMIT models=1 cells=0..5 fault=2");
    let done = done_line(&block).to_string();
    assert_eq!(field(&done, "proved="), 4, "{done}");
    assert_eq!(field(&done, "failed="), 1, "{done}");

    // The faulted cell is exactly one wire `err` record carrying the
    // panic payload; it is NOT parseable as a proved cell, so it can
    // never be merged into a report by accident.
    let mut expected_err = String::new();
    tp_core::wire::write_cell_error(&mut expected_err, 2, "injected fault: program detonated");
    let records = stripped_records(&block);
    assert!(
        records.contains(expected_err.trim_end()),
        "err record carries the panic message:\n{records}"
    );
    assert!(tp_core::wire::parse_cells(&records).is_err());

    // Sibling cells are byte-identical to a healthy run of the same
    // subset — the detonation affected exactly one slot.
    let siblings: String = records
        .lines()
        .filter(|l| !l.starts_with("err "))
        .map(|l| format!("{l}\n"))
        .collect();
    assert_eq!(siblings, reference, "siblings unaffected");

    // A panicking program has no content fingerprint: the faulted cell
    // must not poison the cache. A resubmit without the fault proves
    // cell 2 live and serves the siblings warm.
    let block = client.round_trip("SUBMIT models=1 cells=0..5");
    assert_eq!(
        stripped_records(&block),
        reference_records(Some(1), &[0, 1, 2, 3, 4]),
        "post-fault resubmit"
    );
    let done = done_line(&block);
    assert_eq!(field(done, "proved="), 5, "{done}");
    assert_eq!(field(done, "hits="), 4, "{done}");
    assert_eq!(field(done, "missed="), 1, "{done}");

    // And the daemon still accepts fresh connections.
    let mut second = Client::connect(addr);
    assert_eq!(second.round_trip("PING"), vec!["OK pong"]);
}

#[test]
fn protocol_edges_ping_status_cancel_metrics_and_malformed_lines() {
    // METRICS needs a live sink; install the counting one for this
    // process (install is process-wide and idempotent to re-run).
    tp_telemetry::install(tp_telemetry::TelemetrySink::counters());
    let (_addr, mut client) = start_service(ProofCache::new());

    assert_eq!(client.round_trip("PING"), vec!["OK pong"]);

    // Malformed requests are rejected without dropping the connection —
    // the protocol twin of the binaries' EXIT_MALFORMED.
    for bad in [
        "FROB",
        "SUBMIT cells=nonsense",
        "SUBMIT models=0",
        "SUBMIT fuel=9",
        "CANCEL job=x",
    ] {
        let block = client.round_trip(bad);
        assert_eq!(block.len(), 1, "{block:?}");
        assert!(
            block[0].starts_with("ERR code=malformed "),
            "{bad}: {block:?}"
        );
    }
    // Well-formed but out of range: same code, still alive after.
    let block = client.round_trip("SUBMIT models=1 cells=40..41");
    assert!(block[0].starts_with("ERR code=malformed "), "{block:?}");
    let block = client.round_trip("SUBMIT models=1 cells=0..2 fault=40");
    assert!(block[0].starts_with("ERR code=malformed "), "{block:?}");

    // Cancelling a job that never existed is its own error.
    let block = client.round_trip("CANCEL job=999");
    assert!(block[0].starts_with("ERR code=unknown-job "), "{block:?}");

    // A tiny sweep, then STATUS shows it finished and CANCEL of a
    // finished job still acknowledges (cancellation is a latch, not an
    // interrupt — the stream is already over).
    let block = client.round_trip("SUBMIT models=1 cells=0..2");
    let job = field(&block[0], "job=");
    let status = client.round_trip("STATUS");
    assert!(status[0].starts_with("OK jobs="), "{status:?}");
    let line = status
        .iter()
        .find(|l| l.starts_with(&format!("JOB id={job} ")))
        .unwrap_or_else(|| panic!("job {job} listed: {status:?}"));
    assert!(line.contains("state=done"), "{line}");
    assert_eq!(field(line, "cells="), 2, "{line}");
    assert_eq!(field(line, "done="), 2, "{line}");
    assert_eq!(field(line, "failed="), 0, "{line}");
    let block = client.round_trip(&format!("CANCEL job={job}"));
    assert_eq!(block, vec![format!("OK cancelled job={job}")]);

    // METRICS: every counter and span by name, plus the cache gauge.
    let block = client.round_trip("METRICS");
    assert_eq!(block[0], "OK metrics");
    for c in tp_telemetry::Counter::ALL {
        assert!(
            block
                .iter()
                .any(|l| l.starts_with(&format!("METRIC {} ", c.name()))),
            "counter {} reported: {block:?}",
            c.name()
        );
    }
    for k in tp_telemetry::SpanKind::ALL {
        assert!(
            block
                .iter()
                .any(|l| l.starts_with(&format!("SPAN {} ", k.name()))),
            "span {} reported: {block:?}",
            k.name()
        );
    }
    assert!(
        block
            .iter()
            .any(|l| l.starts_with("METRIC pool_peak_queue ")),
        "{block:?}"
    );
    assert!(
        block.iter().any(|l| l.starts_with("METRIC cache_entries ")),
        "{block:?}"
    );
}

/// A cell spec is untrusted wire input: a range billions of cells wide
/// (or the widest legal range repeated) is refused as malformed before
/// anything proportional to it is allocated, and the daemon keeps
/// answering on the same connection and on new ones.
#[test]
fn a_huge_cell_range_is_refused_and_the_daemon_still_answers() {
    let (addr, mut client) = start_service(ProofCache::new());
    let repeated = vec![format!("0..{}", tp_bench::cli::MAX_CELL_INDEX); 1000].join(",");
    for bad in [
        "SUBMIT cells=0..4000000000".to_string(),
        "SUBMIT models=1 cells=18446744073709551615".to_string(),
        format!("SUBMIT cells={repeated}"),
    ] {
        let block = client.round_trip(&bad);
        assert_eq!(block.len(), 1, "{block:?}");
        assert!(block[0].starts_with("ERR code=malformed "), "{block:?}");
        assert_eq!(client.round_trip("PING"), vec!["OK pong"]);
    }
    assert_eq!(Client::connect(addr).round_trip("PING"), vec!["OK pong"]);
}

#[test]
fn the_daemon_binary_boots_persists_its_cache_and_shuts_down() {
    let cache_path = std::env::temp_dir().join(format!(
        "tp_serve_e2e_{}_{}.cache",
        std::process::id(),
        SCRATCH.fetch_add(1, Ordering::SeqCst)
    ));
    let cache_arg = cache_path.to_str().expect("utf-8 temp path");
    let (mut daemon, addr) = spawn_daemon(
        &["--threads", "2", "--cache", cache_arg],
        None,
        Stdio::null(),
    );

    // Prove two cells over the socket, then check the cache landed on
    // disk (the warm state a restarted daemon would reload).
    let mut client = Client::connect(addr);
    let block = client.round_trip("SUBMIT models=1 cells=0..2");
    assert_eq!(field(done_line(&block), "proved="), 2);
    let text = std::fs::read_to_string(&cache_path).expect("cache persisted");
    assert_eq!(ProofCache::load(&text).expect("cache parses").len(), 2);

    // The log is only ever appended to: an all-hit resubmit and the
    // shutdown leave it byte-for-byte as the cold job left it.
    let block = client.round_trip("SUBMIT models=1 cells=0..2");
    assert_eq!(field(done_line(&block), "hits="), 2, "{block:?}");
    let after_warm = std::fs::read_to_string(&cache_path).expect("cache reads");
    assert_eq!(after_warm, text, "an all-hit job rewrote the log");

    assert_eq!(client.round_trip("SHUTDOWN"), vec!["OK shutting-down"]);
    let status = daemon.0.wait().expect("daemon exits");
    let after_shutdown = std::fs::read_to_string(&cache_path).expect("cache reads");
    std::fs::remove_file(&cache_path).ok();
    assert!(status.success(), "clean shutdown exit: {status:?}");
    assert_eq!(after_shutdown, text, "SHUTDOWN rewrote the log");
}

#[test]
fn shutdown_drains_the_in_flight_job_persists_and_only_then_answers() {
    let cache_path = scratch_path("drain.cache");
    let (addr, mut submitter) = start_service_at(ProofCache::new(), Some(cache_path.clone()));

    // Start a sweep, and only after its job is registered (the OK line
    // proves it) ask a second connection to shut the daemon down.
    submitter.send("SUBMIT models=1 cells=0..7");
    let first = submitter.read_line();
    assert!(first.starts_with("OK job="), "{first}");

    let mut admin = Client::connect(addr);
    assert_eq!(admin.round_trip("SHUTDOWN"), vec!["OK shutting-down"]);

    // The drain ran before the answer: the in-flight job completed in
    // full — every record streamed, terminal DONE, nothing truncated.
    let block = submitter.read_block();
    assert_eq!(
        stripped_records(&block),
        reference_records(Some(1), &[0, 1, 2, 3, 4, 5, 6]),
        "drained stream"
    );
    assert_eq!(field(done_line(&block), "proved="), 7);

    // And the drained work is durable: the log carries all seven
    // entries.
    let text = std::fs::read_to_string(&cache_path).expect("cache persisted");
    assert_eq!(ProofCache::load(&text).expect("cache parses").len(), 7);

    std::fs::remove_file(&cache_path).ok();
}

#[test]
fn a_deadline_expiry_yields_err_records_and_an_expired_line_not_a_wedged_daemon() {
    // The expiry counter needs a live sink (process-wide, idempotent).
    tp_telemetry::install(tp_telemetry::TelemetrySink::counters());
    let (_addr, mut client) = start_service(ProofCache::new());

    // A cold seven-cell sweep cannot finish in a millisecond: the wait
    // expires, the unstreamed cells come back as err records, and the
    // terminal line is EXPIRED — the connection stays usable.
    let block = client.round_trip("SUBMIT models=1 cells=0..7 deadline_ms=1");
    let job = field(&block[0], "job=");
    let last = block.last().expect("terminal line").clone();
    assert!(
        last.starts_with(&format!("EXPIRED job={job} ")),
        "{block:?}"
    );
    assert_eq!(field(&last, "total="), 7, "{last}");
    let err_records = block
        .iter()
        .filter(|l| l.starts_with("REC err ") && l.contains("deadline%20expired"))
        .count() as u64;
    assert_eq!(
        field(&last, "streamed=") + err_records,
        7,
        "every cell accounted for: {block:?}"
    );

    // The sweep finishes in the background and still warms the cache.
    let line = wait_for_job(&mut client, job, |l| field(l, "done=") == 7);
    assert!(line.contains("state=expired"), "{line}");
    let block = client.round_trip("SUBMIT models=1 cells=0..7");
    assert_eq!(field(done_line(&block), "hits="), 7, "{block:?}");

    // The expiry is visible on the counters.
    let metrics = client.round_trip("METRICS");
    let expired = metric(&metrics, "jobs_deadline_expired");
    assert!(expired >= 1, "{metrics:?}");
}

#[test]
fn a_vanished_client_cancels_its_stream_but_the_sweep_still_warms_the_cache() {
    let (addr, mut doomed) = start_service(ProofCache::new());
    doomed.send("SUBMIT models=1 cells=0..7");
    let first = doomed.read_line();
    assert!(first.starts_with("OK job="), "{first}");
    let job = field(&first, "job=");
    drop(doomed); // the client vanishes mid-stream

    // The failed record write cancels the job — but only its stream:
    // the sweep runs to completion and proves every cell.
    let mut admin = Client::connect(addr);
    let line = wait_for_job(&mut admin, job, |l| {
        l.contains("state=cancelled") && field(l, "done=") == 7
    });
    assert_eq!(field(&line, "failed="), 0, "{line}");

    // ... and that work landed in the cache.
    let block = admin.round_trip("SUBMIT models=1 cells=0..7");
    assert_eq!(field(done_line(&block), "hits="), 7, "{block:?}");
}

/// A daemon killed partway through an append leaves one torn frame at
/// the tail of its log and nothing else: the restart cuts that frame,
/// keeps the three cells appended before it, and re-proves only the
/// rest, streaming the same bytes as `matrix --worker` and appending
/// the re-proved cells after the cut.
#[test]
fn a_daemon_killed_mid_append_restarts_from_its_torn_log() {
    let cache_path = scratch_path("torn.cache");
    let cache_arg = cache_path.to_str().expect("utf-8 temp path");
    let args = ["--threads", "2", "--cache", cache_arg];

    // The fourth append writes half its frame, then aborts the daemon.
    let (mut doomed, addr) =
        spawn_daemon(&args, Some("7:journal.append=truncate@4"), Stdio::null());
    let mut client = Client::connect(addr);
    client.send("SUBMIT models=1 cells=0..7");
    // The read ends when the daemon dies (or, if it never does, at the
    // timeout, and the stream then carries the DONE line).
    client
        .reader
        .get_ref()
        .set_read_timeout(Some(Duration::from_secs(60)))
        .expect("read timeout");
    let mut stream = Vec::new();
    let _ = client.reader.read_to_end(&mut stream);
    let stream = String::from_utf8_lossy(&stream);
    assert!(
        !stream.contains("DONE "),
        "the job never finished: {stream}"
    );
    let status = doomed.0.wait().expect("daemon exits");
    assert!(!status.success(), "the injected crash kills the daemon");

    let (mut daemon, addr) = spawn_daemon(&args, None, Stdio::piped());
    let mut client = Client::connect(addr);
    let block = client.round_trip("SUBMIT models=1 cells=0..7");
    assert_eq!(
        stripped_records(&block),
        reference_records(Some(1), &[0, 1, 2, 3, 4, 5, 6]),
        "restarted stream"
    );
    let done = done_line(&block);
    assert_eq!(field(done, "hits="), 3, "{done}");
    assert_eq!(field(done, "missed="), 4, "{done}");
    assert_eq!(client.round_trip("SHUTDOWN"), vec!["OK shutting-down"]);

    let (status, stderr) = exit_and_stderr(&mut daemon);
    let text = std::fs::read_to_string(&cache_path).expect("cache reads");
    std::fs::remove_file(&cache_path).ok();
    let (_, stats) = tp_core::journal::parse_journal(&text).expect("the log parses");
    assert_eq!(
        (stats.records, stats.torn_dropped),
        (7, 0),
        "the torn frame was cut and the re-proved cells appended"
    );
    assert!(
        status.success(),
        "clean shutdown exit: {status:?}\n{stderr}"
    );
    assert!(
        stderr.contains("journal: loaded 3 records (1 torn-dropped)"),
        "{stderr}"
    );
}

/// The first failed append ends appending for the daemon's life (a
/// later one would land after a damaged frame, and the next start
/// would refuse the file) with one stderr line; the daemon keeps
/// serving from memory, and a restart reloads what reached the log
/// before the failure.
#[test]
fn a_failed_append_stops_appending_and_the_daemon_keeps_serving() {
    let cache_path = scratch_path("ioerr.cache");
    let cache_arg = cache_path.to_str().expect("utf-8 temp path");
    let args = ["--threads", "2", "--cache", cache_arg];

    let (mut daemon, addr) = spawn_daemon(&args, Some("7:journal.append=ioerr@2"), Stdio::piped());
    let mut client = Client::connect(addr);
    let block = client.round_trip("SUBMIT models=1 cells=0..4");
    assert_eq!(field(done_line(&block), "proved="), 4, "{block:?}");
    let metrics = client.round_trip("METRICS");
    assert_eq!(metric(&metrics, "faults_injected"), 1, "{metrics:?}");
    let block = client.round_trip("SUBMIT models=1 cells=0..4");
    assert_eq!(field(done_line(&block), "hits="), 4, "{block:?}");
    assert_eq!(client.round_trip("SHUTDOWN"), vec!["OK shutting-down"]);
    let (status, stderr) = exit_and_stderr(&mut daemon);
    assert!(
        status.success(),
        "clean shutdown exit: {status:?}\n{stderr}"
    );
    assert_eq!(stderr.matches("cache append failed").count(), 1, "{stderr}");

    let (mut daemon, addr) = spawn_daemon(&args, None, Stdio::piped());
    let mut client = Client::connect(addr);
    let block = client.round_trip("SUBMIT models=1 cells=0..4");
    let done = done_line(&block);
    assert_eq!(field(done, "hits="), 1, "{done}");
    assert_eq!(field(done, "missed="), 3, "{done}");
    assert_eq!(client.round_trip("SHUTDOWN"), vec!["OK shutting-down"]);
    let (status, stderr) = exit_and_stderr(&mut daemon);
    std::fs::remove_file(&cache_path).ok();
    assert!(
        status.success(),
        "clean shutdown exit: {status:?}\n{stderr}"
    );
    assert!(
        stderr.contains("journal: loaded 1 records (0 torn-dropped)"),
        "{stderr}"
    );
}

/// A cached entry that fails validation is re-proved, and its
/// replacement is one more frame appended to the log: the forged frame
/// stays in place, and the last frame for the key wins on reload.
#[test]
fn a_rejected_entry_is_replaced_by_one_appended_frame() {
    use tp_core::journal::{parse_journal, render_journal};
    let cache_path = scratch_path("rejected.cache");
    let (_addr, mut client) = start_service_at(ProofCache::new(), Some(cache_path.clone()));
    let block = client.round_trip("SUBMIT models=1 cells=0..2");
    assert_eq!(field(done_line(&block), "missed="), 2, "{block:?}");

    // Corrupt the first entry's checksum and re-frame it, so the log
    // parses and validation, not the parser, rejects the entry.
    let text = std::fs::read_to_string(&cache_path).expect("cache persisted");
    let (mut records, _) = parse_journal(&text).expect("log parses");
    records[0].meta.check ^= 1;
    let forged = render_journal(&records);
    std::fs::write(&cache_path, &forged).expect("forged log writes");

    let cache = ProofCache::load(&forged).expect("forged log parses");
    let (_addr, mut client) = start_service_at(cache, Some(cache_path.clone()));
    let block = client.round_trip("SUBMIT models=1 cells=0..2");
    assert_eq!(
        stripped_records(&block),
        reference_records(Some(1), &[0, 1]),
        "self-healed stream"
    );
    let done = done_line(&block);
    assert_eq!(field(done, "hits="), 1, "{done}");
    assert_eq!(field(done, "rejected="), 1, "{done}");

    let healed = std::fs::read_to_string(&cache_path).expect("cache reads");
    assert!(healed.starts_with(&forged), "the log was rewritten");
    let (records, _) = parse_journal(&healed).expect("healed log parses");
    assert_eq!(records.len(), 3, "one replacement frame appended");
    let cache = ProofCache::load(&healed).expect("healed log loads");
    assert_eq!(cache.len(), 2, "last frame per key wins");
    let (_addr, mut client) = start_service_at(cache, Some(cache_path.clone()));
    let block = client.round_trip("SUBMIT models=1 cells=0..2");
    let done = done_line(&block);
    assert_eq!(field(done, "hits="), 2, "{done}");
    assert_eq!(field(done, "rejected="), 0, "{done}");
    std::fs::remove_file(&cache_path).ok();
}

/// The `--cache` log is the only crash-safe store: `bind` refuses a
/// journal directory, and the binary has no `--journal` flag.
#[test]
fn a_journal_directory_is_refused() {
    let dir = scratch_path("journal.d");
    let err = Server::bind("127.0.0.1:0", ProofCache::new(), None, Some(dir.clone()))
        .err()
        .expect("bind refuses a journal directory");
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput, "{err}");
    assert!(err.to_string().contains("--cache"), "{err}");

    let mut daemon = Daemon(
        Command::new(env!("CARGO_BIN_EXE_tp-serve"))
            .args(["--addr", "127.0.0.1:0", "--journal"])
            .arg(&dir)
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .spawn()
            .expect("daemon starts"),
    );
    let give_up = Instant::now() + Duration::from_secs(10);
    let status = loop {
        if let Some(status) = daemon.0.try_wait().expect("daemon waits") {
            break status;
        }
        assert!(Instant::now() < give_up, "tp-serve --journal kept running");
        std::thread::sleep(Duration::from_millis(20));
    };
    assert_eq!(status.code(), Some(tp_bench::cli::EXIT_USAGE), "{status:?}");
    assert!(!dir.exists(), "no journal directory created");
}

/// A warm one-cell job is well under a millisecond of daemon work, so
/// its round trip must not carry a socket stall: an accept poll on a
/// fresh connection or a Nagle/delayed-ACK wait on a reused one costs
/// 25-45 ms per job. The bound is 250 ms per 20 jobs,
/// taken per job at the median so one descheduled job under a loaded
/// test run cannot fail it.
#[test]
fn warm_jobs_answer_at_socket_speed_on_reused_and_fresh_connections() {
    const JOBS: usize = 20;
    const BOUND_MS: f64 = 250.0 / JOBS as f64;
    let (addr, mut client) = start_service(ProofCache::new());
    let block = client.round_trip("SUBMIT models=1 cells=0..1");
    assert_eq!(field(done_line(&block), "missed="), 1, "{block:?}");

    let warm = |client: &mut Client| {
        let t = Instant::now();
        let block = client.round_trip("SUBMIT models=1 cells=0..1");
        let elapsed = t.elapsed();
        assert_eq!(field(done_line(&block), "hits="), 1, "{block:?}");
        elapsed
    };
    let reused: Vec<Duration> = (0..JOBS).map(|_| warm(&mut client)).collect();
    let fresh: Vec<Duration> = (0..JOBS)
        .map(|_| {
            let t = Instant::now();
            let mut c = Client::connect(addr);
            warm(&mut c);
            t.elapsed()
        })
        .collect();
    let (reused, fresh) = (median_ms(reused), median_ms(fresh));
    assert!(
        reused < BOUND_MS,
        "reused connection: median warm job {reused:.2} ms"
    );
    assert!(
        fresh < BOUND_MS,
        "fresh connections: median warm job {fresh:.2} ms"
    );
}

/// `SHUTDOWN` wakes the blocked accept loop itself — also when the
/// daemon is bound to the unspecified address, which the wake-up
/// reaches through loopback — instead of waiting for a poll tick.
#[test]
fn shutdown_wakes_a_server_bound_to_the_unspecified_address() {
    let mut waits = Vec::new();
    for _ in 0..9 {
        let server = Server::bind("0.0.0.0:0", ProofCache::new(), None, None).expect("binds");
        let port = server.local_addr().expect("bound address").port();
        let (tx, rx) = mpsc::channel();
        std::thread::spawn(move || tx.send(server.serve().is_ok()));
        let mut client = Client::connect(SocketAddr::from(([127, 0, 0, 1], port)));
        assert_eq!(client.round_trip("SHUTDOWN"), vec!["OK shutting-down"]);
        let t = Instant::now();
        let returned = rx
            .recv_timeout(Duration::from_secs(10))
            .expect("serve() returns after SHUTDOWN");
        waits.push(t.elapsed());
        assert!(returned, "serve() returns Ok");
    }
    let wait = median_ms(waits);
    assert!(
        wait < 12.0,
        "serve() returned a median {wait:.2} ms after OK"
    );
}

/// `METRICS` touches no lock a sweep holds: sent while a cold cached
/// sweep holds the cache, it answers at once with the entry count as
/// of the last finished job, and the sweep's `DONE` comes later.
#[test]
fn metrics_answers_during_a_cold_cached_sweep() {
    tp_telemetry::install(tp_telemetry::TelemetrySink::counters());
    let (addr, mut submitter) = start_service(ProofCache::new());
    submitter.send("SUBMIT models=5");
    let first = submitter.read_line();
    assert!(first.starts_with("OK job="), "{first}");
    let cells = field(&first, "cells=");

    let mut admin = Client::connect(addr);
    let metrics = admin.round_trip("METRICS");
    assert_eq!(metrics[0], "OK metrics");
    assert_eq!(
        metric(&metrics, "cache_entries"),
        0,
        "METRICS answered while the sweep held the cache: {metrics:?}"
    );

    let block = submitter.read_block();
    let done = done_line(&block);
    assert_eq!(field(done, "proved="), cells, "{done}");
    assert_eq!(field(done, "entries="), cells, "{done}");
    let metrics = admin.round_trip("METRICS");
    assert_eq!(metric(&metrics, "cache_entries"), cells, "{metrics:?}");
}

/// A request line is read under a cap: 1 MiB with no newline gets
/// `ERR code=malformed` and a closed connection instead of an
/// ever-growing buffer, and the daemon keeps answering.
#[test]
fn a_request_line_without_a_newline_is_capped_and_the_daemon_still_answers() {
    let (addr, _client) = start_service(ProofCache::new());
    let stream = TcpStream::connect(addr).expect("connects");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .expect("read timeout");
    let mut writer = stream.try_clone().expect("clone stream");
    // The daemon stops reading at the cap, so the rest of the write may
    // fail once it closes; only the answer matters.
    let flood = std::thread::spawn(move || {
        let _ = writer.write_all(&vec![b'A'; 1 << 20]);
    });
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    reader.read_line(&mut line).expect("answer reads");
    assert_eq!(
        line,
        format!(
            "ERR code=malformed msg=request line longer than {} bytes\n",
            tp_serve::server::MAX_LINE
        )
    );
    line.clear();
    reader.read_line(&mut line).expect("block end reads");
    assert_eq!(line, ".\n");
    let mut rest = Vec::new();
    assert!(
        matches!(reader.read_to_end(&mut rest), Ok(0) | Err(_)),
        "connection closed after the refusal: {rest:?}"
    );
    flood.join().expect("writer thread");

    assert_eq!(Client::connect(addr).round_trip("PING"), vec!["OK pong"]);
}

/// An accept error ends one accept attempt, not the daemon: with an
/// `ioerr` injected at the second `accept()`, the next client is still
/// served and the daemon exits cleanly on `SHUTDOWN`.
#[test]
fn an_injected_accept_error_leaves_the_daemon_serving() {
    let (mut daemon, addr) = spawn_daemon(
        &["--threads", "1"],
        Some("7:serve.accept=ioerr@2"),
        Stdio::piped(),
    );
    let mut first = Client::connect(addr);
    assert_eq!(first.round_trip("PING"), vec!["OK pong"]);
    // The accept that picks this client up is the second: it fails,
    // and the loop accepts again after its backoff.
    let mut second = Client::connect(addr);
    assert_eq!(second.round_trip("PING"), vec!["OK pong"]);
    let metrics = second.round_trip("METRICS");
    assert_eq!(metric(&metrics, "faults_injected"), 1, "{metrics:?}");
    assert_eq!(second.round_trip("SHUTDOWN"), vec!["OK shutting-down"]);

    let (status, stderr) = exit_and_stderr(&mut daemon);
    assert!(
        status.success(),
        "clean shutdown exit: {status:?}\n{stderr}"
    );
    assert!(
        stderr.contains("accept failed (injected fault: serve.accept io error)"),
        "{stderr}"
    );
}
