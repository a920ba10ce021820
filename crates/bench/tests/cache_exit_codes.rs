//! Exit-code contract for the `--cache` paths, pinned through the real
//! `matrix` binary: malformed input (a cache file the framed-log parser
//! refuses) must exit with a code of its own — distinct from usage
//! errors and, crucially, from the silent-degradation path where an
//! entry parses but fails validation and is simply rejected and
//! re-proved with exit 0. A daemon supervisor (or CI) keying restart
//! policy off these codes must be able to tell "throw the file away"
//! from "the run healed itself". A refused file is never rewritten.

use std::path::PathBuf;
use std::process::Command;

use tp_bench::cli::{EXIT_MALFORMED, EXIT_USAGE};
use tp_core::journal::{parse_journal, render_journal};

/// A scratch cache path unique to this test process.
fn cache_path(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!(
        "tp_cache_exit_{}_{}.cache",
        name,
        std::process::id()
    ))
}

/// Run `matrix --worker --cells 0..2 --models 1 --threads 2` with
/// `--cache path`, returning (exit code, stdout, stderr).
fn run_cached(path: &PathBuf) -> (i32, String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_matrix"))
        .args([
            "--worker",
            "--cells",
            "0..2",
            "--models",
            "1",
            "--threads",
            "2",
            "--cache",
        ])
        .arg(path)
        .output()
        .expect("matrix binary runs");
    (
        out.status.code().expect("matrix must exit, not die"),
        String::from_utf8(out.stdout).unwrap(),
        String::from_utf8(out.stderr).unwrap(),
    )
}

/// Run `path` through [`run_cached`] expecting the malformed-input
/// exit, and check the file was left byte-for-byte untouched.
fn assert_refused_untouched(path: &PathBuf, label: &str) {
    let before = std::fs::read(path).unwrap();
    let (code, _, stderr) = run_cached(path);
    let after = std::fs::read(path).unwrap();
    assert_eq!(code, EXIT_MALFORMED, "{label}: {stderr}");
    assert!(stderr.contains("cannot parse cache"), "{label}: {stderr}");
    assert!(
        before == after,
        "{label}: a refused file must stay untouched"
    );
}

#[test]
fn malformed_cache_file_exits_with_its_own_code() {
    let path = cache_path("malformed");
    std::fs::write(&path, "this is not a cache @@@\n").unwrap();
    assert_refused_untouched(&path, "unparseable cache");
    std::fs::remove_file(&path).ok();
    assert_ne!(EXIT_MALFORMED, EXIT_USAGE, "codes must be distinguishable");
}

#[test]
fn a_bare_record_cache_from_before_the_log_framing_is_refused_untouched() {
    let path = cache_path("bare");
    let (code, _, stderr) = run_cached(&path);
    assert_eq!(code, 0, "cold run: {stderr}");
    // The format caches had before the framed log: the same cached
    // wire groups, unframed.
    let (records, _) = parse_journal(&std::fs::read_to_string(&path).unwrap()).unwrap();
    let mut bare = String::new();
    for (i, r) in records.iter().enumerate() {
        tp_core::wire::write_cell_cached(&mut bare, i, &r.cell, &r.report, &r.meta);
    }
    std::fs::write(&path, bare).unwrap();
    assert_refused_untouched(&path, "bare-record cache");
    std::fs::remove_file(&path).ok();
}

#[test]
fn rejected_entries_reprove_with_exit_zero() {
    let path = cache_path("rejected");

    // Cold run: populates the cache, everything proves live.
    let (code, cold_stdout, stderr) = run_cached(&path);
    assert_eq!(code, 0, "cold run: {stderr}");
    assert!(stderr.contains("0 hits"), "{stderr}");
    let text = std::fs::read_to_string(&path).unwrap();

    // A raw digit flip in the first record, with a record after it, is
    // corruption before the tail: refused, file untouched.
    let pos = text.find("check=").expect("records carry checksums") + "check=".len();
    let mut flipped = text.clone().into_bytes();
    flipped[pos] = if flipped[pos] == b'9' {
        b'1'
    } else {
        flipped[pos] + 1
    };
    std::fs::write(&path, flipped).unwrap();
    assert_refused_untouched(&path, "raw flip mid-log");

    // Corrupt one entry's checksum and re-frame the record, so the log
    // still parses and validation, not the parser, rejects the entry.
    let (mut records, _) = parse_journal(&text).unwrap();
    records[0].meta.check ^= 1;
    std::fs::write(&path, render_journal(&records)).unwrap();

    // Warm-but-poisoned run: the rejected entry re-proves, the run
    // succeeds, stdout is byte-identical, and stderr counts the
    // rejection — exit 0, not a malformed-input failure.
    let (code, warm_stdout, stderr) = run_cached(&path);
    std::fs::remove_file(&path).ok();
    assert_eq!(code, 0, "rejected entries must self-heal: {stderr}");
    assert!(stderr.contains("1 rejected"), "{stderr}");
    assert_eq!(
        warm_stdout, cold_stdout,
        "self-healed output must stay byte-identical"
    );
}

#[test]
fn usage_errors_keep_their_code() {
    let out = Command::new(env!("CARGO_BIN_EXE_matrix"))
        .args(["--bogus"])
        .output()
        .expect("matrix binary runs");
    assert_eq!(out.status.code(), Some(EXIT_USAGE));
}
