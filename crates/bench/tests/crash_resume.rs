//! Kill/resume end-to-end through the real `matrix` binary: a
//! `--cache` sweep SIGKILLed mid-append (via the deterministic
//! `TP_FAULTS` harness) must resume with byte-identical stdout,
//! re-proving only the cells the log lost — at 1, 2 and 8 workers,
//! because the append order must not depend on scheduling. Also pins
//! the torn-tail drop (a crash mid-append), a failed append that stops
//! appending without failing the sweep, the fail-closed exit for a
//! log corrupted anywhere but its physical tail, the cold log's bytes
//! across worker counts, and `--resume` as an alias of `--cache`.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Sequence numbers for per-test scratch paths.
static SCRATCH: AtomicUsize = AtomicUsize::new(0);

fn scratch_journal() -> PathBuf {
    std::env::temp_dir().join(format!(
        "tp_crash_resume_{}_{}.journal",
        std::process::id(),
        SCRATCH.fetch_add(1, Ordering::SeqCst)
    ))
}

/// Run the matrix binary on six cells of the one-model matrix.
fn matrix_run(threads: usize, extra: &[&str], faults: Option<&str>) -> Output {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_matrix"));
    cmd.args([
        "--threads",
        &threads.to_string(),
        "--models",
        "1",
        "--cells",
        "0..6",
    ])
    .args(extra)
    // Keep stderr deterministic: no heartbeat unless asked.
    .env_remove("TP_FAULTS");
    if let Some(spec) = faults {
        cmd.env("TP_FAULTS", spec);
    }
    cmd.output().expect("matrix binary runs")
}

fn stderr_of(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

/// Crash a journaled sweep with `faults`, then resume it and check the
/// resumed stdout is byte-identical to an uninterrupted run, with
/// exactly `replayed`/`reproved` cells on each side of the checkpoint.
fn crash_then_resume(threads: usize, faults: &str, replayed: usize, torn: usize) {
    let journal = scratch_journal();
    let jpath = journal.to_str().unwrap();

    // The uninterrupted reference for this thread count.
    let clean = matrix_run(threads, &[], None);
    assert!(clean.status.success(), "clean run: {}", stderr_of(&clean));

    // The crash: the injected fault aborts the process mid-sweep.
    let crashed = matrix_run(threads, &["--cache", jpath], Some(faults));
    assert!(
        !crashed.status.success(),
        "the injected fault must kill the run"
    );
    assert!(
        stderr_of(&crashed).contains("faultpoint: injected crash at journal.append"),
        "crash is the injected one: {}",
        stderr_of(&crashed)
    );

    // The resume: replays the survivors, re-proves the rest, and the
    // report is byte-identical to never having crashed at all.
    let resumed = matrix_run(threads, &["--resume", jpath], None);
    let stderr = stderr_of(&resumed);
    assert!(resumed.status.success(), "resume run: {stderr}");
    assert!(
        stderr.contains(&format!(
            "journal: loaded {replayed} records ({torn} torn-dropped)"
        )),
        "threads={threads} faults={faults}: {stderr}"
    );
    assert!(
        stderr.contains(&format!(
            "journal: {replayed} replayed, {torn} torn-dropped, {} re-proved",
            6 - replayed
        )),
        "threads={threads} faults={faults}: {stderr}"
    );
    assert_eq!(
        clean.stdout, resumed.stdout,
        "threads={threads} faults={faults}: resumed stdout must be byte-identical"
    );

    // The resume cut the torn tail and appended the re-proved cells:
    // the log now parses whole, one record per cell, and a second
    // resume replays everything and re-proves nothing.
    let text = std::fs::read_to_string(&journal).expect("log readable");
    let (_, stats) = tp_core::journal::parse_journal(&text).expect("the log parses");
    assert_eq!(
        (stats.records, stats.torn_dropped),
        (6, 0),
        "threads={threads} faults={faults}: the resumed log is whole"
    );
    let again = matrix_run(threads, &["--resume", jpath], None);
    let stderr = stderr_of(&again);
    assert!(again.status.success(), "second resume: {stderr}");
    assert!(
        stderr.contains("journal: 6 replayed, 0 torn-dropped, 0 re-proved"),
        "second resume is all-replay: {stderr}"
    );
    assert_eq!(clean.stdout, again.stdout, "second resume stdout");

    std::fs::remove_file(&journal).ok();
}

#[test]
fn a_sigkilled_sweep_resumes_byte_identical_at_every_worker_count() {
    // kill@3: appends 1 and 2 land durable, the third dies before any
    // byte is written — two whole records survive, four cells re-prove.
    // Checkpoints append in cell order regardless of scheduling, so the
    // counts are exact at every thread count.
    for threads in [1, 2, 8] {
        crash_then_resume(threads, "7:journal.append=kill@3", 2, 0);
    }
}

#[test]
fn a_crash_mid_append_leaves_a_torn_tail_that_resume_drops() {
    // truncate@2: the second append writes half its record and dies —
    // one whole record plus a torn tail. Resume drops the tail
    // silently, replays the survivor, re-proves the other five.
    for threads in [1, 8] {
        crash_then_resume(threads, "7:journal.append=truncate@2", 1, 1);
    }
}

#[test]
fn a_failed_append_stops_appending_and_the_sweep_completes() {
    // ioerr@2: the first append lands, the second fails. The cache
    // appends nothing more, the sweep still completes byte-identical,
    // and the error is reported once.
    let log = scratch_journal();
    let lpath = log.to_str().unwrap();
    let clean = matrix_run(2, &[], None);
    let failed = matrix_run(2, &["--cache", lpath], Some("7:journal.append=ioerr@2"));
    let stderr = stderr_of(&failed);
    assert!(
        failed.status.success(),
        "a failed append is not fatal: {stderr}"
    );
    assert_eq!(clean.stdout, failed.stdout, "stdout is unaffected");
    assert_eq!(
        stderr.matches("cache append failed").count(),
        1,
        "reported exactly once: {stderr}"
    );

    let next = matrix_run(2, &["--cache", lpath], None);
    let stderr = stderr_of(&next);
    assert!(next.status.success(), "{stderr}");
    assert!(
        stderr.contains("journal: loaded 1 records (0 torn-dropped)"),
        "only the first append reached the log: {stderr}"
    );
    assert_eq!(clean.stdout, next.stdout);
    std::fs::remove_file(&log).ok();
}

#[test]
fn corruption_before_the_tail_fails_the_resume_closed() {
    let journal = scratch_journal();
    let jpath = journal.to_str().unwrap();

    // Build a healthy two-record journal by crashing on the third.
    let crashed = matrix_run(2, &["--cache", jpath], Some("7:journal.append=kill@3"));
    assert!(!crashed.status.success());

    // Flip one byte in the FIRST record's payload: damage before the
    // physical tail is corruption, not a crash artifact, and the
    // resume must refuse the file with the malformed-input exit code.
    let text = std::fs::read_to_string(Path::new(jpath)).expect("journal readable");
    let at = text.find('\n').unwrap() + 10;
    let mut bytes = text.into_bytes();
    bytes[at] ^= 1;
    std::fs::write(Path::new(jpath), &bytes).expect("journal rewritten");

    let resumed = matrix_run(2, &["--resume", jpath], None);
    assert_eq!(
        resumed.status.code(),
        Some(tp_bench::cli::EXIT_MALFORMED),
        "corrupt journal fails closed: {}",
        stderr_of(&resumed)
    );
    assert!(
        stderr_of(&resumed).contains("cannot parse cache"),
        "{}",
        stderr_of(&resumed)
    );
    assert_eq!(
        std::fs::read(Path::new(jpath)).expect("journal readable"),
        bytes,
        "a refused log is left untouched"
    );

    std::fs::remove_file(&journal).ok();
}

#[test]
fn a_cold_cache_log_is_byte_identical_at_every_worker_count() {
    // Cells append in cell order whatever the schedule, so the log a
    // cold run leaves is a pure function of the selection. A warm run
    // then writes nothing: with the atomic writer armed to kill the
    // process on first use, it still succeeds and the log is unchanged.
    let logs: Vec<Vec<u8>> = [1, 2, 8]
        .iter()
        .map(|&threads| {
            let log = scratch_journal();
            let out = matrix_run(threads, &["--cache", log.to_str().unwrap()], None);
            assert!(
                out.status.success(),
                "threads={threads}: {}",
                stderr_of(&out)
            );
            let bytes = std::fs::read(&log).expect("the log was written");
            let warm = matrix_run(
                threads,
                &["--cache", log.to_str().unwrap()],
                Some("7:persist.write=kill@1"),
            );
            assert!(
                warm.status.success(),
                "threads={threads}: a warm run must not rewrite the log: {}",
                stderr_of(&warm)
            );
            assert_eq!(
                std::fs::read(&log).expect("the log is still there"),
                bytes,
                "threads={threads}: a warm run leaves the log untouched"
            );
            std::fs::remove_file(&log).ok();
            bytes
        })
        .collect();
    assert!(
        logs[0].starts_with(b"jrec i=0 "),
        "a framed log, cell 0 first"
    );
    assert!(
        logs[0] == logs[1] && logs[1] == logs[2],
        "logs differ by worker count"
    );
}

#[test]
fn resume_is_an_alias_of_cache() {
    // Same torn log, one run per spelling: identical stdout and
    // identical `journal:` lines.
    let torn = scratch_journal();
    let crashed = matrix_run(
        2,
        &["--cache", torn.to_str().unwrap()],
        Some("7:journal.append=truncate@3"),
    );
    assert!(
        !crashed.status.success(),
        "the injected fault must kill the run"
    );
    let text = std::fs::read(&torn).expect("the torn log was written");
    let runs: Vec<(Vec<u8>, Vec<String>)> = ["--resume", "--cache"]
        .iter()
        .map(|flag| {
            std::fs::write(&torn, &text).expect("torn log restored");
            let out = matrix_run(2, &[flag, torn.to_str().unwrap()], None);
            let stderr = stderr_of(&out);
            assert!(out.status.success(), "{flag}: {stderr}");
            let journal = stderr
                .lines()
                .filter(|l| l.starts_with("journal: "))
                .map(str::to_owned)
                .collect();
            (out.stdout, journal)
        })
        .collect();
    std::fs::remove_file(&torn).ok();
    assert_eq!(
        runs[0].1,
        [
            format!(
                "journal: loaded 2 records (1 torn-dropped) from {}",
                torn.display()
            ),
            "journal: 2 replayed, 1 torn-dropped, 4 re-proved".to_string(),
        ]
    );
    assert_eq!(runs[0], runs[1], "--resume and --cache must agree");
}
