//! The proof store's on-disk format: an append-only framed log.
//!
//! Every proved cell that reaches disk goes through this framing: a
//! [`crate::cache::ProofCache`] opened on a file owns it as its log and
//! appends each freshly proved cell as one fsynced record
//! (`matrix --cache F` and `tp-serve --cache F` alike). The log is only
//! ever appended to; open cuts a torn tail. If the process dies —
//! `kill -9`, OOM, power loss — the next run reloads the survivors and
//! re-proves only what is missing, producing stdout byte-identical to
//! an uninterrupted run.
//!
//! ## Record framing
//!
//! ```text
//! jrec i=<cell index> len=<payload bytes> check=<fnv64 of payload>
//! <payload: one wire record group, `write_cell_cached` output>
//! ```
//!
//! The payload is exactly one cached wire group — the cell group, its
//! `cached` metadata record and the `end` terminator — and every
//! replayed record is judged by the cache validation gauntlet
//! ([`crate::cache::validate_entry`]) before a single verdict is
//! believed.
//!
//! ## The torn-tail rule
//!
//! A crash can only ever tear the *final* record (appends are
//! sequential and fsynced), and a torn append is always a prefix of a
//! record: a header line with no newline yet, or a complete header
//! whose payload runs past the end of the file (or fails its framing
//! checksum at the very tail). The parser drops such a tail, silently
//! and by design — it was never durable, so it is never trusted — and
//! reports where it starts ([`JournalStats::durable_len`]).
//! Anything else is not a crash artifact but corruption or tampering,
//! and the parse **fails closed** with a [`WireError`]:
//!
//! * damage before the physical tail;
//! * a newline-terminated line that is not a frame header, wherever it
//!   sits (a torn append cannot produce one);
//! * a payload length that ends inside the file but not on a
//!   character boundary;
//! * a file that yields no record and does not start like one (its
//!   first bytes are not a prefix of `jrec `) — so a foreign file, or
//!   a bare-record cache from before this framing, is refused rather
//!   than read as one torn append and cut away.
//!
//! Dropped tails are counted under
//! [`tp_telemetry::Counter::JournalTornDropped`].
//!
//! Duplicate cell indices are legal (a later run re-appends a cell
//! whose earlier record failed validation) and resolve last-wins per
//! cache key in [`crate::cache::ProofCache::load`]. A hostile
//! duplicate cannot flip a verdict: every replayed record still has to
//! survive the full cache gauntlet at lookup time.

use std::fs::{File, OpenOptions};
use std::io::{self, Write};
use std::path::Path;

use crate::cache::{fold_bytes, CacheEntry};
use crate::engine::MatrixCell;
use crate::faultpoint::{self, Fault};
use crate::proof::ProofReport;
use crate::wire::{parse_cells_meta, write_cell_cached, CachedMeta, WireError};
use tp_hw::obs::{mix_digest, OBS_DIGEST_SEED};

/// The fault point fired once per [`JournalWriter::append`], before
/// any bytes reach the file: `ioerr` surfaces as the returned error,
/// `truncate` writes a torn prefix of the record and aborts, `kill`
/// aborts with nothing written.
pub const APPEND_POINT: &str = "journal.append";

/// Version tag folded into every record's framing checksum, so a
/// journal from an incompatible framing simply reads as corrupt.
const JOURNAL_SALT: u64 = 0x7470_6a72_0000_0001;

/// How every record header starts.
const HEADER_TAG: &str = "jrec ";

/// Framing checksum over a record's payload bytes.
fn rec_check(payload: &str) -> u64 {
    fold_bytes(
        mix_digest(OBS_DIGEST_SEED, JOURNAL_SALT),
        payload.as_bytes(),
    )
}

/// One validated journal record: a proved cell plus the cache metadata
/// the resume gauntlet will judge it by.
#[derive(Debug, Clone)]
pub struct JournalRecord {
    /// The cell's global matrix index.
    pub index: usize,
    /// The cell's coordinates.
    pub cell: MatrixCell,
    /// The proved report.
    pub report: ProofReport,
    /// Key/salt/checksum/fingerprints, exactly as a cache entry.
    pub meta: CachedMeta,
}

impl JournalRecord {
    /// Convert into a [`CacheEntry`] preserving the *stored* salt and
    /// checksum — replay must judge what was written, not re-stamp it.
    pub fn into_entry(self) -> CacheEntry {
        CacheEntry {
            key: self.meta.key,
            salt: self.meta.salt,
            check: self.meta.check,
            fps: self.meta.fps,
            cell: self.cell,
            report: self.report,
        }
    }
}

/// What a parse saw: how many records survived and how many torn
/// trailing records were dropped (0 or 1 for a genuine crash).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct JournalStats {
    /// Framing-valid records returned to the caller.
    pub records: usize,
    /// Torn trailing records silently dropped.
    pub torn_dropped: usize,
    /// Bytes before the torn tail (all of them when nothing was torn).
    pub durable_len: usize,
}

/// An open journal being appended to.
#[derive(Debug)]
pub struct JournalWriter {
    file: File,
}

impl JournalWriter {
    /// Start a fresh journal at `path`, truncating any previous file.
    pub fn create(path: &Path) -> io::Result<JournalWriter> {
        Ok(JournalWriter {
            file: File::create(path)?,
        })
    }

    /// Open `path` for appending, creating it if absent — the proof
    /// store's write side ([`crate::cache::ProofCache::attach_log`]).
    pub(crate) fn open_append(path: &Path) -> io::Result<JournalWriter> {
        Ok(JournalWriter {
            file: OpenOptions::new().create(true).append(true).open(path)?,
        })
    }

    /// Append one proved cell and fsync it durable.
    pub fn append(
        &mut self,
        index: usize,
        cell: &MatrixCell,
        report: &ProofReport,
        meta: &CachedMeta,
    ) -> io::Result<()> {
        let mut rec = String::new();
        push_record(&mut rec, index, cell, report, meta);
        match faultpoint::fire(APPEND_POINT) {
            Some(Fault::IoError) => return Err(faultpoint::injected_io_error(APPEND_POINT)),
            Some(Fault::Truncate) => {
                // A torn tail: half the record reaches the disk, then
                // the process dies. Resume must drop it silently.
                let _ = self.file.write_all(&rec.as_bytes()[..rec.len() / 2]);
                let _ = self.file.sync_data();
                faultpoint::abort_now(APPEND_POINT);
            }
            Some(Fault::Kill) => faultpoint::abort_now(APPEND_POINT),
            Some(Fault::Panic) => panic!("injected fault: {APPEND_POINT} panicked"),
            Some(Fault::Delay(ms)) => std::thread::sleep(std::time::Duration::from_millis(ms)),
            None => {}
        }
        self.file.write_all(rec.as_bytes())?;
        self.file.flush()?;
        self.file.sync_data()
    }
}

/// Append one framed record (header line + wire payload) to `out`.
pub(crate) fn push_record(
    out: &mut String,
    index: usize,
    cell: &MatrixCell,
    report: &ProofReport,
    meta: &CachedMeta,
) {
    let start = out.len();
    write_cell_cached(out, index, cell, report, meta);
    let payload = &out[start..];
    let header = format!(
        "jrec i={index} len={} check={}\n",
        payload.len(),
        rec_check(payload)
    );
    out.insert_str(start, &header);
}

/// Serialise records in journal framing, in the given order.
pub fn render_journal(records: &[JournalRecord]) -> String {
    let mut out = String::new();
    for r in records {
        push_record(&mut out, r.index, &r.cell, &r.report, &r.meta);
    }
    out
}

/// Parse a journal, applying the torn-tail rule (module docs). Returns
/// the surviving records in append order plus the parse stats; fails
/// closed on anything invalid that is *not* a torn final append.
pub fn parse_journal(text: &str) -> Result<(Vec<JournalRecord>, JournalStats), WireError> {
    let mut out = Vec::new();
    let mut stats = JournalStats::default();
    let mut pos = 0usize;
    while pos < text.len() {
        let line_no = || text[..pos].lines().count() + 1;
        let Some(nl) = text[pos..].find('\n') else {
            // A header with no newline can only be a torn final write.
            stats.torn_dropped += 1;
            break;
        };
        let header = &text[pos..pos + nl];
        let body_start = pos + nl + 1;
        let Some((index, len, check)) = parse_header(header) else {
            return Err(WireError::Parse {
                line: line_no(),
                msg: format!("bad journal header {header:?}"),
            });
        };
        let end = match body_start.checked_add(len) {
            Some(end) if end <= text.len() => end,
            // The payload runs past EOF: a truncated final record.
            _ => {
                stats.torn_dropped += 1;
                break;
            }
        };
        let Some(payload) = text.get(body_start..end) else {
            return Err(WireError::Parse {
                line: line_no(),
                msg: format!("journal record i={index} ends inside a character"),
            });
        };
        if rec_check(payload) != check {
            if text[end..].trim().is_empty() {
                // Checksum-invalid *final* record: the crash hit
                // mid-payload but left the full length. Still torn.
                stats.torn_dropped += 1;
                break;
            }
            return Err(WireError::Parse {
                line: line_no(),
                msg: format!("journal record i={index} fails its framing checksum"),
            });
        }
        // Framing-valid payloads must be exactly one cached cell group
        // with a matching index; anything else is corruption, and a
        // valid checksum proves it is not a crash artifact.
        let mut parsed = parse_cells_meta(payload)?;
        let (pi, cell, report, meta) = match (parsed.len(), parsed.pop()) {
            (1, Some(p)) => p,
            _ => {
                return Err(WireError::Parse {
                    line: line_no(),
                    msg: format!("journal record i={index} is not exactly one cell group"),
                });
            }
        };
        let Some(meta) = meta else {
            return Err(WireError::Incomplete {
                index,
                msg: "journal record has no cached metadata".into(),
            });
        };
        if pi != index {
            return Err(WireError::Parse {
                line: line_no(),
                msg: format!("journal header says i={index} but payload says i={pi}"),
            });
        }
        out.push(JournalRecord {
            index,
            cell,
            report,
            meta,
        });
        stats.records += 1;
        pos = end;
    }
    stats.durable_len = pos;
    // Zero records and a torn tail: a crashed first append, but only
    // if the file starts the way every append starts.
    let head = &text.as_bytes()[..text.len().min(HEADER_TAG.len())];
    if stats.records == 0 && !HEADER_TAG.as_bytes().starts_with(head) {
        return Err(WireError::Parse {
            line: 1,
            msg: format!("not a proof log (no record, and it does not start with {HEADER_TAG:?})"),
        });
    }
    if stats.torn_dropped > 0 {
        tp_telemetry::count_n(
            tp_telemetry::Counter::JournalTornDropped,
            stats.torn_dropped as u64,
        );
    }
    Ok((out, stats))
}

/// Parse a `jrec i=N len=N check=N` header line.
fn parse_header(line: &str) -> Option<(usize, usize, u64)> {
    let rest = line.strip_prefix(HEADER_TAG)?;
    let mut index = None;
    let mut len = None;
    let mut check = None;
    for tok in rest.split_ascii_whitespace() {
        if let Some(v) = tok.strip_prefix("i=") {
            index = v.parse().ok();
        } else if let Some(v) = tok.strip_prefix("len=") {
            len = v.parse().ok();
        } else if let Some(v) = tok.strip_prefix("check=") {
            check = v.parse().ok();
        } else {
            return None;
        }
    }
    Some((index?, len?, check?))
}
