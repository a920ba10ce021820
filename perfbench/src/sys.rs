//! Processes and memory: the scratch directory, runs of the `matrix`
//! binary, the `tp-serve` daemon, and peak RSS from `/proc` and
//! `getrusage`.

use std::io::{self, BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Output, Stdio};
use std::time::{Duration, Instant};

/// A scratch directory inside the checkout (`<root>/.bench_tmp/…`),
/// removed when dropped.
pub struct Scratch(PathBuf);

impl Scratch {
    /// A fresh, empty directory for one run of `workload`.
    pub fn new(root: &Path, workload: &str) -> io::Result<Scratch> {
        let dir = root
            .join(".bench_tmp")
            .join(format!("{workload}-{}", std::process::id()));
        if dir.exists() {
            std::fs::remove_dir_all(&dir)?;
        }
        std::fs::create_dir_all(&dir)?;
        Ok(Scratch(dir))
    }

    /// `name` inside the directory.
    pub fn path(&self, name: &str) -> PathBuf {
        self.0.join(name)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // Leave no empty parent behind either (fails harmlessly when a
        // concurrent run still uses it).
        if let Some(parent) = self.0.parent() {
            let _ = std::fs::remove_dir(parent);
        }
    }
}

/// Run `bin` with `args` to completion, capturing stdout and stderr;
/// returns the output and the wall time from spawn to exit.
pub fn run(bin: &Path, args: &[&str]) -> io::Result<(Output, Duration)> {
    let t = Instant::now();
    let out = Command::new(bin).args(args).stdin(Stdio::null()).output()?;
    Ok((out, t.elapsed()))
}

/// Peak resident set (`VmHWM`) of process `pid` (`"self"` for this
/// one), in MiB.
pub fn vm_hwm_mb(pid: &str) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Run `f` and return its result with this process's peak RSS while
/// it ran, in MiB: `VmHWM` is reset to the current RSS first (writing
/// "5" to `clear_refs`, Linux 4.0+).
pub fn with_peak_rss<T>(f: impl FnOnce() -> T) -> (T, f64) {
    // On failure the peak stays the whole process's, an upper bound.
    let _ = std::fs::write("/proc/self/clear_refs", "5");
    let r = f();
    (r, vm_hwm_mb("self").unwrap_or(0.0))
}

/// `struct rusage` on 64-bit Linux: two `timeval`s, then fourteen
/// `long`s, the first of which is `ru_maxrss` (KiB).
#[repr(C)]
struct RUsage {
    utime: [i64; 2],
    stime: [i64; 2],
    maxrss: i64,
    rest: [i64; 13],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut RUsage) -> i32;
}

/// `RUSAGE_CHILDREN`: every child this process has waited for.
const RUSAGE_CHILDREN: i32 = -1;

/// Largest peak RSS of any child this process has waited for, in MiB.
pub fn children_peak_rss_mb() -> f64 {
    let mut u = RUsage {
        utime: [0; 2],
        stime: [0; 2],
        maxrss: 0,
        rest: [0; 13],
    };
    // SAFETY: `getrusage` writes one `struct rusage` through the
    // pointer; `RUsage` has that struct's size and layout on 64-bit
    // Linux (the only target the benchmark runs on: it reads `/proc`),
    // and `u` is a live, writable local for the whole call.
    let rc = unsafe { getrusage(RUSAGE_CHILDREN, &mut u) };
    if rc == 0 {
        u.maxrss as f64 / 1024.0
    } else {
        0.0
    }
}

/// Wait up to `limit` for `child` to exit; kill it if it does not.
fn reap(child: &mut Child, limit: Duration) {
    let give_up = Instant::now() + limit;
    while Instant::now() < give_up {
        match child.try_wait() {
            Ok(Some(_)) | Err(_) => return,
            Ok(None) => std::thread::sleep(Duration::from_millis(2)),
        }
    }
    let _ = child.kill();
    let _ = child.wait();
}

/// A running `tp-serve` daemon. Dropping it kills and reaps the
/// process; [`Daemon::shutdown`] stops it the way a client would.
pub struct Daemon {
    child: Child,
    /// Kept open so the daemon never writes to a closed pipe.
    _stdout: BufReader<ChildStdout>,
    /// The bound loopback address.
    pub addr: String,
}

impl Daemon {
    /// Start `tp-serve --threads N --cache <cache>` on an ephemeral
    /// loopback port and wait for its `listening on` line.
    pub fn start(bin: &Path, threads: usize, cache: &Path) -> io::Result<Daemon> {
        let mut child = Command::new(bin)
            .args([
                "--addr",
                "127.0.0.1:0",
                "--threads",
                &threads.to_string(),
                "--cache",
            ])
            .arg(cache)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .spawn()?;
        let mut stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut line = String::new();
        let read = stdout.read_line(&mut line);
        let addr = match read {
            Ok(_) => line
                .trim()
                .strip_prefix("tp-serve: listening on ")
                .map(str::to_string),
            Err(_) => None,
        };
        match addr {
            Some(addr) => Ok(Daemon {
                child,
                _stdout: stdout,
                addr,
            }),
            None => {
                reap(&mut child, Duration::ZERO);
                Err(io::Error::other(format!(
                    "tp-serve did not start: {line:?}"
                )))
            }
        }
    }

    /// The daemon's peak RSS so far, in MiB.
    pub fn peak_rss_mb(&self) -> Option<f64> {
        vm_hwm_mb(&self.child.id().to_string())
    }

    /// Send `SHUTDOWN` (the daemon drains and persists, then exits) and
    /// wait for the process to end.
    pub fn shutdown(mut self) -> io::Result<()> {
        let answered = (|| -> io::Result<bool> {
            let mut s = TcpStream::connect(&self.addr)?;
            s.set_read_timeout(Some(Duration::from_secs(20)))?;
            s.write_all(b"SHUTDOWN\n")?;
            let mut first = String::new();
            BufReader::new(s).read_line(&mut first)?;
            Ok(first.starts_with("OK shutting-down"))
        })();
        reap(&mut self.child, Duration::from_secs(20));
        match answered {
            Ok(true) => Ok(()),
            Ok(false) => Err(io::Error::other("SHUTDOWN was not acknowledged")),
            Err(e) => Err(e),
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}
