//! Plain `std::env::args` flag parsing for the sweep binaries.
//!
//! `bin/matrix` and `bin/all` accept the same sweep-shaping flags
//! instead of hardcoding their fan-out:
//!
//! * `--threads N` — size of the process-wide worker pool (must come
//!   before the first sweep runs; applied via
//!   `tp_sched::configure_global_threads`).
//! * `--cells SPEC` — restrict the matrix to the given cell indices,
//!   e.g. `--cells 0..7`, `--cells 3`, `--cells 0..4,9,12..14`
//!   (`a..b` is half-open). This is also how a sweep is sharded across
//!   processes: give each worker a disjoint slice. A spec naming an
//!   index at or above [`MAX_CELL_INDEX`] is a usage error, caught
//!   before the spec is expanded.
//! * `--models N` — use only the first `N` of the default time models.
//! * `--replay-check` — re-enable the paranoid double-run per
//!   (model, secret) instead of the certified single-run default: every
//!   pair also gets a digest-only plain replay, and those replay
//!   fingerprints are the NI baseline, auditing the transparency
//!   certification. Reports are bit-identical to certified mode.
//!
//! * `--cache PATH` — back the sweep with the proof store: the
//!   content-addressed cache (`tp_core::cache`) kept on disk as the
//!   framed log of `tp_core::journal`. The log is only ever appended
//!   to; open cuts a torn tail (the trace of a killed run). Validated
//!   hits replay, changed or lost cells are proved live, and each
//!   freshly proved cell is appended,
//!   fsynced, the moment it completes — so a killed sweep loses at most
//!   the cell in flight, and rerunning the same command resumes it.
//!   Reports stay byte-identical to an uncached run; the hit/re-prove
//!   statistics go to stderr. A file that is not a proof log (corrupt
//!   before its tail, not a framed log, or not UTF-8) exits with
//!   [`EXIT_MALFORMED`] and is left untouched; entries that parse but
//!   fail validation are rejected and re-proved (exit 0).
//! * `--resume PATH` — an alias of `--cache PATH`.
//!
//! Telemetry flags (PR 8), all off by default so the proof hot path
//! keeps its null-sink fast path:
//!
//! * `--metrics` — install a counting telemetry sink and print the
//!   human summary table (pool/cache/exhaustive counters, span
//!   aggregates) to stderr after the run.
//! * `--trace-out FILE` — install a JSON-lines tracing sink and write
//!   every span plus a machine-readable run manifest to `FILE`.
//! * `--progress` — heartbeat to stderr (cells completed / total, ETA)
//!   while a grid runs. An explicit flag is always honored — including
//!   under redirection, so daemonised/CI runs can log heartbeats; only
//!   the default-on behavior (no flag) requires stderr to be a TTY.
//!
//! `bin/matrix` additionally understands the scale-out modes:
//!
//! * `--worker` — prove the selected cells and print wire records
//!   (`tp_core::wire`) to stdout instead of a report.
//! * `--merge FILE...` — parse worker outputs and print the merged
//!   report, identical to a single-process run over the same cells.

/// Exit code for usage errors (unknown flags, bad `--cells` specs).
pub const EXIT_USAGE: i32 = 2;

/// Exit code for malformed *input* — a `--cache` file the framed-log
/// parser refuses. Distinct from [`EXIT_USAGE`] and, crucially, from the
/// silent-degradation path: a cache entry that parses but fails the
/// validation gauntlet is rejected and re-proved (exit 0, counted in
/// the stderr `cache:` stats), while a file the parser cannot read at
/// all is untrusted input and aborts loudly. `tp-serve` mirrors the
/// same split as protocol codes (`code=malformed` vs a normal `DONE`
/// with nonzero `rejected`).
pub const EXIT_MALFORMED: i32 = 3;

/// Parsed command line for the sweep binaries.
#[derive(Debug, Default, PartialEq, Eq)]
pub struct SweepArgs {
    /// `--threads N`.
    pub threads: Option<usize>,
    /// `--cells SPEC`, expanded to explicit indices (ascending, unique).
    pub cells: Option<Vec<usize>>,
    /// `--models N`.
    pub models: Option<usize>,
    /// `--replay-check`.
    pub replay_check: bool,
    /// `--cache PATH` (or its alias `--resume PATH`).
    pub cache: Option<String>,
    /// `--worker`.
    pub worker: bool,
    /// `--merge FILE...` (everything after the flag).
    pub merge: Vec<String>,
    /// `--metrics`.
    pub metrics: bool,
    /// `--trace-out FILE`.
    pub trace_out: Option<String>,
    /// `--progress`.
    pub progress: bool,
}

impl SweepArgs {
    /// Parse `args` (without the program name). Returns an error string
    /// suitable for printing next to the usage text.
    pub fn parse(args: impl Iterator<Item = String>) -> Result<SweepArgs, String> {
        let mut out = SweepArgs::default();
        let mut args = args.peekable();
        while let Some(arg) = args.next() {
            match arg.as_str() {
                "--threads" => {
                    let v = args.next().ok_or("--threads needs a value")?;
                    let n: usize = v.parse().map_err(|_| format!("bad --threads {v:?}"))?;
                    if n == 0 {
                        return Err("--threads must be at least 1".into());
                    }
                    out.threads = Some(n);
                }
                "--cells" => {
                    let v = args.next().ok_or("--cells needs a value")?;
                    out.cells = Some(parse_cell_spec(&v)?);
                }
                "--models" => {
                    let v = args.next().ok_or("--models needs a value")?;
                    let n: usize = v.parse().map_err(|_| format!("bad --models {v:?}"))?;
                    if n == 0 {
                        return Err("--models must be at least 1".into());
                    }
                    out.models = Some(n);
                }
                "--replay-check" => out.replay_check = true,
                "--cache" | "--resume" => {
                    let v = args.next().ok_or(format!("{arg} needs a path"))?;
                    out.cache = Some(v);
                }
                "--worker" => out.worker = true,
                "--metrics" => out.metrics = true,
                "--trace-out" => {
                    let v = args.next().ok_or("--trace-out needs a path")?;
                    out.trace_out = Some(v);
                }
                "--progress" => out.progress = true,
                "--merge" => {
                    out.merge.extend(args.by_ref());
                    if out.merge.is_empty() {
                        return Err("--merge needs at least one file".into());
                    }
                }
                other => return Err(format!("unknown argument {other:?}")),
            }
        }
        if out.worker && !out.merge.is_empty() {
            return Err("--worker and --merge are mutually exclusive".into());
        }
        if out.cache.is_some() && !out.merge.is_empty() {
            return Err("--cache does not apply to --merge".into());
        }
        if out.trace_out.is_some() && !out.merge.is_empty() {
            return Err("--trace-out does not apply to --merge".into());
        }
        Ok(out)
    }

    /// The proof mode `--replay-check` selects: the paranoid
    /// double-run audit, or the certified single-run default.
    pub fn mode(&self) -> tp_core::ProofMode {
        if self.replay_check {
            tp_core::ProofMode::ReplayCheck
        } else {
            tp_core::ProofMode::Certified
        }
    }

    /// The cell indices to run given a matrix of `total` cells: the
    /// `--cells` selection (validated against `total`) or all of them.
    pub fn select_cells(&self, total: usize) -> Result<Vec<usize>, String> {
        match &self.cells {
            None => Ok((0..total).collect()),
            Some(sel) => {
                if let Some(&bad) = sel.iter().find(|&&i| i >= total) {
                    return Err(format!(
                        "--cells index {bad} out of range (matrix has {total} cells)"
                    ));
                }
                Ok(sel.clone())
            }
        }
    }
}

/// Upper bound (exclusive) on any index a cell spec may name — far
/// above every matrix this crate builds. Specs arrive from the command
/// line and the `tp-serve` wire, so they are checked against it before
/// expansion: a hostile range costs an error, not an allocation
/// proportional to its width.
pub const MAX_CELL_INDEX: usize = 1 << 16;

/// Expand a cell spec: comma-separated indices and half-open `a..b`
/// ranges, e.g. `0..4,9,12..14` → `[0,1,2,3,9,12,13]`. Duplicates are
/// rejected so shard specs cannot silently double-prove a cell, and so
/// are indices at or above [`MAX_CELL_INDEX`]; both checks run before
/// anything is expanded, so the result never exceeds
/// [`MAX_CELL_INDEX`] entries.
pub fn parse_cell_spec(spec: &str) -> Result<Vec<usize>, String> {
    let mut out = Vec::new();
    let mut seen = std::collections::BTreeSet::new();
    for part in spec.split(',') {
        let part = part.trim();
        if part.is_empty() {
            return Err(format!("empty segment in cell spec {spec:?}"));
        }
        let (a, b) = match part.split_once("..") {
            Some((a, b)) => {
                let a: usize = a.parse().map_err(|_| format!("bad range start {a:?}"))?;
                let b: usize = b.parse().map_err(|_| format!("bad range end {b:?}"))?;
                if a >= b {
                    return Err(format!("empty range {part:?}"));
                }
                (a, b)
            }
            None => {
                let i: usize = part
                    .parse()
                    .map_err(|_| format!("bad cell index {part:?}"))?;
                (i, i.saturating_add(1))
            }
        };
        if b > MAX_CELL_INDEX {
            return Err(format!(
                "cell spec segment {part:?} out of range (indices must be below {MAX_CELL_INDEX})"
            ));
        }
        for i in a..b {
            if !seen.insert(i) {
                return Err(format!("cell index {i} selected twice in {spec:?}"));
            }
            out.push(i);
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strs(v: &[&str]) -> impl Iterator<Item = String> {
        v.iter()
            .map(|s| s.to_string())
            .collect::<Vec<_>>()
            .into_iter()
    }

    #[test]
    fn parses_sweep_shaping_flags() {
        let a = SweepArgs::parse(strs(&[
            "--threads",
            "4",
            "--cells",
            "0..3,7",
            "--models",
            "2",
        ]))
        .unwrap();
        assert_eq!(a.threads, Some(4));
        assert_eq!(a.cells, Some(vec![0, 1, 2, 7]));
        assert_eq!(a.models, Some(2));
        assert!(!a.worker);
    }

    #[test]
    fn parses_replay_check() {
        let a = SweepArgs::parse(strs(&["--replay-check"])).unwrap();
        assert!(a.replay_check);
        assert_eq!(a.mode(), tp_core::ProofMode::ReplayCheck);
        assert!(!SweepArgs::default().replay_check);
        assert_eq!(SweepArgs::default().mode(), tp_core::ProofMode::Certified);
        // Composes with worker mode: an audit shard is a valid shard.
        let w = SweepArgs::parse(strs(&["--worker", "--replay-check"])).unwrap();
        assert!(w.worker && w.replay_check);
    }

    #[test]
    fn parses_cache_flag() {
        let a = SweepArgs::parse(strs(&["--cache", "proofs.cache"])).unwrap();
        assert_eq!(a.cache.as_deref(), Some("proofs.cache"));
        assert_eq!(SweepArgs::default().cache, None);
        assert!(SweepArgs::parse(strs(&["--cache"])).is_err());
        // A cached shard is a valid shard; a cached merge is not (the
        // merge proves nothing, so a cache could neither hit nor fill).
        let w = SweepArgs::parse(strs(&["--worker", "--cache", "c"])).unwrap();
        assert!(w.worker && w.cache.is_some());
        assert!(SweepArgs::parse(strs(&["--cache", "c", "--merge", "a"])).is_err());
    }

    #[test]
    fn parses_journal_flags() {
        // `--resume` is an alias of `--cache`: one proof store, one path.
        let r = SweepArgs::parse(strs(&["--resume", "run.journal"])).unwrap();
        assert_eq!(
            r,
            SweepArgs::parse(strs(&["--cache", "run.journal"])).unwrap()
        );
        assert!(SweepArgs::parse(strs(&["--resume"])).is_err());
        assert!(SweepArgs::parse(strs(&["--resume", "a", "--merge", "m"])).is_err());
        // The separate fresh-journal flag is gone.
        assert!(SweepArgs::parse(strs(&["--journal", "j"])).is_err());
    }

    #[test]
    fn parses_worker_and_merge_modes() {
        let w = SweepArgs::parse(strs(&["--worker", "--cells", "5"])).unwrap();
        assert!(w.worker);
        let m = SweepArgs::parse(strs(&["--merge", "a.txt", "b.txt"])).unwrap();
        assert_eq!(m.merge, vec!["a.txt", "b.txt"]);
        assert!(SweepArgs::parse(strs(&["--worker", "--merge", "a"])).is_err());
    }

    #[test]
    fn parses_telemetry_flags() {
        let a =
            SweepArgs::parse(strs(&["--metrics", "--trace-out", "t.jsonl", "--progress"])).unwrap();
        assert!(a.metrics && a.progress);
        assert_eq!(a.trace_out.as_deref(), Some("t.jsonl"));
        let d = SweepArgs::default();
        assert!(!d.metrics && !d.progress && d.trace_out.is_none());
        assert!(SweepArgs::parse(strs(&["--trace-out"])).is_err());
        // A traced worker shard is fine; a traced merge proves nothing.
        let w = SweepArgs::parse(strs(&["--worker", "--trace-out", "t"])).unwrap();
        assert!(w.worker && w.trace_out.is_some());
        assert!(SweepArgs::parse(strs(&["--trace-out", "t", "--merge", "a"])).is_err());
    }

    #[test]
    fn rejects_malformed_specs() {
        assert!(parse_cell_spec("3..3").is_err());
        assert!(parse_cell_spec("1,1").is_err());
        assert!(parse_cell_spec("x").is_err());
        assert!(parse_cell_spec("0..2,1").is_err(), "overlap is a duplicate");
    }

    /// Hostile specs fail before expansion: a range far past any matrix
    /// is rejected without allocating its width, and repeating the
    /// widest legal range stops at the first duplicate.
    #[test]
    fn rejects_huge_specs_before_expanding() {
        for spec in ["0..4000000000", "4000000000", "18446744073709551615"] {
            let e = parse_cell_spec(spec).unwrap_err();
            assert!(e.contains("out of range"), "{spec}: {e}");
        }
        let e = SweepArgs::parse(strs(&["--cells", "0..4000000000"])).unwrap_err();
        assert!(e.contains("out of range"), "{e}");
        let widest = format!("0..{MAX_CELL_INDEX}");
        assert_eq!(parse_cell_spec(&widest).unwrap().len(), MAX_CELL_INDEX);
        let e = parse_cell_spec(&[widest.as_str(); 1000].join(",")).unwrap_err();
        assert!(e.contains("selected twice"), "{e}");
        assert!(SweepArgs::parse(strs(&["--threads", "0"])).is_err());
        assert!(SweepArgs::parse(strs(&["--bogus"])).is_err());
    }

    #[test]
    fn select_cells_validates_range() {
        let a = SweepArgs::parse(strs(&["--cells", "18..21"])).unwrap();
        assert_eq!(a.select_cells(21).unwrap(), vec![18, 19, 20]);
        assert!(a.select_cells(19).is_err());
        let none = SweepArgs::default();
        assert_eq!(none.select_cells(3).unwrap(), vec![0, 1, 2]);
    }
}
