//! Content-addressed proof-cell cache with incremental sweeps.
//!
//! Re-proving a thousand-cell [`crate::engine::ScenarioMatrix`] after a
//! one-line config tweak repeats work for every cell whose inputs did
//! not change. This module makes sweeps incremental: each proved cell
//! is stored under an FNV content hash of its **full input
//! fingerprint** — machine configuration × kernel configuration (per
//! secret, down to each domain's instruction sequence) × time-model
//! family × secret set × engine/proof-mode version salt — together
//! with the `(secret, len, digest)` observation fingerprints its NI
//! verdicts were derived from, its [`ProofReport`] (including the
//! [`TransparencyCert`]) and a checksum over the entry's canonical
//! serialised bytes. A cache-backed sweep
//! ([`crate::engine::ScenarioMatrix::run_subset_cached`]) re-proves
//! only cells whose content hash changed and replays the rest, with
//! reports and wire records byte-identical to an uncached run.
//!
//! ## Trust model: a hit is validated, never believed
//!
//! A cache file is untrusted input — it may be stale (produced by an
//! older engine), corrupted, or deliberately poisoned. Every hit is
//! therefore structurally re-validated before its report is replayed
//! ([`ProofCache::lookup`]): the version salt and addressed key must
//! match, the stored cell must equal the live cell, the checksum must
//! re-derive over the entry's canonical bytes, the fingerprint table
//! must have exactly one `(secret, len, digest)` triple per
//! (model, secret) in live order, each model's stored NI verdict must
//! be *re-derivable* from those fingerprints
//! ([`compare_secret_digests`]), and the transparency certificate must
//! be present, transparent, and grounded in the first fingerprint.
//! Any failure rejects the entry and forces a live re-prove — a bad
//! cache can cost time, never a forged verdict.
//!
//! What validation *cannot* catch: an adversary who fabricates a fully
//! self-consistent entry (fingerprints, verdicts, cert and checksum
//! all recomputed to agree) for inputs that genuinely hash to the
//! addressed key. Detecting that requires re-running the cell, which
//! is exactly what caching avoids — so treat a cache file with the
//! same trust as the binary that wrote it, and fall back to
//! `--replay-check` without a cache (or simply delete the cache) when
//! provenance is in doubt. The adversarial suite in
//! `crates/core/tests/cache_poisoning.rs` pins the entire reachable
//! tampering surface to fail closed.
//!
//! ## Key derivation and invalidation
//!
//! [`cell_key`] folds, in order: the version salt ([`CACHE_SALT`]),
//! the cell's machine configuration (serialised via the wire format's
//! canonical field list), the cell label and ablation tag, the
//! protection setting, every time model, the observer domain, cycle
//! budget and step cap, and — per secret — the secret value and the
//! kernel configuration's [`content_fingerprint`], which recursively
//! covers every domain's instruction sequence, scheduling and padding
//! parameters, endpoints and colour counts. A program that cannot
//! prove its identity ([`Program::content_fingerprint`] returns
//! `None`) makes the cell **uncacheable** rather than wrongly
//! cacheable: `cell_key` returns `None` and the cell is always proved
//! live. Changing *any* folded field changes the key (pinned by the
//! property tests in `crates/core/tests/cache_invalidation.rs`), so
//! stale entries are never looked up — they simply stop being
//! addressed, and [`CACHE_SALT`] retires every entry at once whenever
//! the engine's observable behaviour changes.
//!
//! ## On disk: one framed log
//!
//! A cache file is the framed log of [`crate::journal`]: one `jrec`
//! record per entry, each carrying one cached wire group. A cache
//! opened on it ([`ProofCache::open`]) owns it and appends every cell
//! inserted into it as one fsynced frame. The log is only ever appended
//! to; open cuts a torn tail, so a run killed mid-append loses only the
//! record in flight. Loading is last-wins per key, which makes merging
//! two caches a file concatenation. A file the framing does not
//! recognise — including a bare-record cache written before the
//! framing — is malformed input, never a partial load.
//!
//! [`Program::content_fingerprint`]: tp_kernel::program::Program::content_fingerprint
//! [`content_fingerprint`]: tp_kernel::config::KernelConfig::content_fingerprint
//! [`TransparencyCert`]: crate::noninterference::TransparencyCert

use std::collections::BTreeMap;
use std::fs::{self, OpenOptions};
use std::io;
use std::path::Path;

use crate::engine::{MatrixCell, ProofMode};
use crate::journal::{parse_journal, push_record, JournalStats, JournalWriter};
use crate::noninterference::{compare_secret_digests, NiScenario, NiVerdict};
use crate::proof::ProofReport;
use crate::wire::{
    enc_machine, enc_mechanism, enc_time_model, write_cell_body, CachedMeta, WireError,
};
use tp_hw::clock::TimeModel;
use tp_hw::obs::{mix_digest, OBS_DIGEST_SEED};

/// Engine/proof-mode version salt folded into every content key and
/// stored verbatim in every entry.
///
/// Bump this whenever the engine's observable behaviour changes —
/// observation semantics, proof obligations, wire canonicalisation —
/// so every entry produced by the previous version stops being
/// addressed *and* fails the salt check if addressed anyway.
pub const CACHE_SALT: u64 = 0x7470_cace_0000_0001;

/// FNV-1a prime for the byte-wise folds (the u64 folds go through
/// [`mix_digest`], which uses the same constant internally).
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Fold a byte string into a rolling FNV-1a digest. Shared with the
/// journal's record framing checksum (`crate::journal`).
pub(crate) fn fold_bytes(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// The content key addressing one proof cell, or `None` when any
/// domain's program cannot prove its identity (see the module docs) —
/// an uncacheable cell is always proved live.
///
/// `scenario` must already be specialised to `cell`
/// ([`crate::engine::ScenarioMatrix`] applies the cell's machine and
/// protection before calling this), and `models`/`mode` are the
/// matrix's — together they are every input the proof of this cell
/// consumes.
pub fn cell_key(
    cell: &MatrixCell,
    models: &[TimeModel],
    scenario: &NiScenario,
    mode: ProofMode,
) -> Option<u64> {
    let mut h = mix_digest(OBS_DIGEST_SEED, CACHE_SALT);
    h = fold_bytes(h, enc_machine(&scenario.mcfg).as_bytes());
    h = fold_bytes(h, cell.machine.as_bytes());
    h = fold_bytes(h, cell.disable.map(enc_mechanism).unwrap_or("-").as_bytes());
    h = cell.tp.fold_digest(h);
    h = mix_digest(h, models.len() as u64);
    for m in models {
        h = fold_bytes(h, enc_time_model(m).as_bytes());
    }
    h = mix_digest(h, scenario.lo.0 as u64);
    h = mix_digest(h, scenario.budget.0);
    h = mix_digest(h, scenario.max_steps as u64);
    h = mix_digest(h, scenario.secrets.len() as u64);
    for &s in &scenario.secrets {
        h = mix_digest(h, s);
        h = mix_digest(h, (scenario.make_kcfg)(s).content_fingerprint()?);
    }
    // Tag 1 named a retired forced-recording mode; the tags are kept
    // as they were so existing cache files keep hitting.
    h = mix_digest(
        h,
        match mode {
            ProofMode::Certified => 0,
            ProofMode::ReplayCheck => 2,
        },
    );
    Some(h)
}

/// The entry checksum: an FNV fold over the entry's canonical wire
/// bytes (its [`crate::wire::write_cell`] record group without the
/// trailing `cached`/`end` records, with the index pinned to 0, so
/// checksums are position-independent) plus its key, salt and
/// fingerprint table.
///
/// This is an *integrity* check — it catches corruption, truncation,
/// field-level tampering and stale-format drift, not an adversary who
/// recomputes it (see the module docs for the honest threat model).
pub fn entry_check(
    key: u64,
    salt: u64,
    fps: &[(u64, usize, u64)],
    cell: &MatrixCell,
    report: &ProofReport,
) -> u64 {
    let mut body = String::new();
    write_cell_body(&mut body, 0, cell, report);
    let mut h = fold_bytes(mix_digest(OBS_DIGEST_SEED, salt), body.as_bytes());
    h = mix_digest(h, key);
    h = mix_digest(h, fps.len() as u64);
    for &(s, len, d) in fps {
        h = mix_digest(h, s);
        h = mix_digest(h, len as u64);
        h = mix_digest(h, d);
    }
    h
}

/// One stored proof cell: the cell and report exactly as a live run
/// would emit them, plus the cache metadata that authenticates them.
#[derive(Debug, Clone)]
pub struct CacheEntry {
    /// The content key this entry is addressed by.
    pub key: u64,
    /// The [`CACHE_SALT`] the producing engine folded.
    pub salt: u64,
    /// [`entry_check`] over this entry.
    pub check: u64,
    /// `(secret, lo_len, monitored_digest)` per (model, secret),
    /// model-major.
    pub fps: Vec<(u64, usize, u64)>,
    /// The proved cell.
    pub cell: MatrixCell,
    /// Its proof report, replayed verbatim on a validated hit.
    pub report: ProofReport,
}

/// Why a lookup did not produce a usable hit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheMiss {
    /// No entry under the key — the cell is new or its inputs changed.
    Absent,
    /// An entry exists but failed validation; it must not be believed.
    Rejected(RejectReason),
}

/// The specific validation failure of a rejected entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RejectReason {
    /// Produced under a different engine version salt.
    SaltMismatch,
    /// The entry's stored key differs from the key addressing it.
    KeyMismatch,
    /// The stored cell differs from the live cell being proved.
    CellMismatch,
    /// The checksum does not re-derive over the entry's bytes.
    ChecksumMismatch,
    /// The fingerprint table's shape or secrets diverge from the live
    /// (model × secret) product.
    FingerprintShape,
    /// A stored NI verdict is not re-derivable from the stored
    /// fingerprints (or a model label diverges) — the signature of a
    /// flipped verdict.
    VerdictMismatch,
    /// The transparency certificate is missing, non-transparent, or not
    /// grounded in the first run's fingerprint.
    CertMismatch,
}

/// How a cache-backed sweep resolved its cells.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct CacheStats {
    /// Cells replayed from validated cache entries.
    pub hits: usize,
    /// Cells proved live because no entry existed under their key.
    pub misses: usize,
    /// Cells proved live because their entry failed validation.
    pub rejected: usize,
    /// Cells proved live because they have no content key.
    pub uncacheable: usize,
}

impl CacheStats {
    /// Cells that ran live, for whatever reason.
    pub fn reproved(&self) -> usize {
        self.misses + self.rejected + self.uncacheable
    }
}

impl core::fmt::Display for CacheStats {
    /// Delegates to [`tp_telemetry::cache_counts`] — the same formatter
    /// the `--metrics` summary table uses, so cached and uncached runs
    /// report cache resolution through one code path (the cold/warm CI
    /// job greps this schema).
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(&tp_telemetry::cache_counts(
            self.hits,
            self.misses,
            self.rejected,
            self.uncacheable,
        ))
    }
}

/// The persistent content-addressed store. See the module docs.
#[derive(Debug, Default)]
pub struct ProofCache {
    entries: BTreeMap<u64, CacheEntry>,
    /// The log proved cells are appended to: `None` without one, and
    /// for good after the first failed append.
    log: Option<JournalWriter>,
    /// That first failed append's error, until taken.
    log_error: Option<io::Error>,
}

impl ProofCache {
    /// An empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of stored entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the cache holds no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Parse a cache file: a framed log ([`crate::journal`]) whose
    /// records become entries, last-wins per key — so merging caches is
    /// file concatenation. A torn final append is dropped; anything
    /// else malformed is an error, never a partial load.
    pub fn load(text: &str) -> Result<Self, WireError> {
        Self::load_counted(text).map(|(cache, _)| cache)
    }

    /// [`ProofCache::load`], also returning what the parse saw (records
    /// read, torn tail dropped).
    pub fn load_counted(text: &str) -> Result<(Self, JournalStats), WireError> {
        let (records, stats) = parse_journal(text)?;
        let mut cache = ProofCache::new();
        for r in records {
            cache.insert_entry(r.into_entry());
        }
        Ok((cache, stats))
    }

    /// Open the proof store at `path` and own it as this cache's log
    /// (see the module docs). A missing file is an empty store and
    /// comes back without stats. A file that is not a proof log — one
    /// the parser refuses, or not UTF-8 — is an
    /// [`io::ErrorKind::InvalidData`] error and is left byte-identical.
    /// A torn final record is cut off at [`JournalStats::durable_len`]
    /// and the cut synced; nothing else is written.
    pub fn open(path: &Path) -> io::Result<(Self, Option<JournalStats>)> {
        let (mut cache, stats) = match fs::read_to_string(path) {
            Ok(text) => {
                let (cache, stats) = Self::load_counted(&text)
                    .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;
                (cache, Some(stats))
            }
            Err(e) if e.kind() == io::ErrorKind::NotFound => (Self::new(), None),
            Err(e) => return Err(e),
        };
        if let Some(s) = stats.filter(|s| s.torn_dropped > 0) {
            // Cut the torn tail, durably, before anything lands after it.
            let file = OpenOptions::new().write(true).open(path)?;
            file.set_len(s.durable_len as u64)?;
            file.sync_all()?;
        }
        cache.attach_log(path)?;
        Ok((cache, stats))
    }

    /// Append every cell inserted into this cache from now on to the log
    /// at `path`, created if absent. The file must hold what this cache
    /// was loaded from, with no torn tail, as after [`ProofCache::open`].
    pub fn attach_log(&mut self, path: &Path) -> io::Result<()> {
        self.log = Some(JournalWriter::open_append(path)?);
        Ok(())
    }

    /// The error of the first failed log append, handed out once.
    /// After it the cache appends nothing more: a later append that
    /// succeeded would put a damaged frame before the log's tail, and
    /// the next open would refuse the file.
    pub fn take_log_error(&mut self) -> Option<io::Error> {
        self.log_error.take()
    }

    /// Serialise every entry as one framed log: key order, dense
    /// indices. Byte-deterministic for a given entry set.
    pub fn save(&self) -> String {
        let mut out = String::new();
        for (i, e) in self.entries.values().enumerate() {
            let meta = CachedMeta {
                key: e.key,
                salt: e.salt,
                check: e.check,
                fps: e.fps.clone(),
            };
            push_record(&mut out, i, &e.cell, &e.report, &meta);
        }
        out
    }

    /// Store a freshly proved cell under `key`, stamping the current
    /// [`CACHE_SALT`] and a recomputed checksum, and — with a log
    /// attached — append it as one fsynced frame recording `index`, the
    /// cell's global matrix index. Returns the metadata stored.
    pub fn insert(
        &mut self,
        index: usize,
        key: u64,
        cell: MatrixCell,
        report: ProofReport,
        fps: Vec<(u64, usize, u64)>,
    ) -> CachedMeta {
        let check = entry_check(key, CACHE_SALT, &fps, &cell, &report);
        let meta = CachedMeta {
            key,
            salt: CACHE_SALT,
            check,
            fps,
        };
        if let Some(log) = self.log.as_mut() {
            if let Err(err) = log.append(index, &cell, &report, &meta) {
                self.log = None;
                self.log_error = Some(err);
            }
        }
        self.entries.insert(
            key,
            CacheEntry {
                key,
                salt: CACHE_SALT,
                check,
                fps: meta.fps.clone(),
                cell,
                report,
            },
        );
        meta
    }

    /// Absorb an already-serialised entry (log replay, daemon
    /// recovery) **preserving its stored salt and checksum** — unlike
    /// [`ProofCache::insert`], nothing is re-stamped, so the lookup
    /// gauntlet later judges exactly what was on disk. Last write wins
    /// per key, the same rule as [`ProofCache::load`].
    pub fn insert_entry(&mut self, entry: CacheEntry) {
        self.entries.insert(entry.key, entry);
    }

    /// Look up and **validate** the entry for `key` against the live
    /// cell and (model × secret) product. Returns the entry only when
    /// every check in the module-level list holds; any failure is a
    /// [`CacheMiss`] and the caller must prove the cell live.
    pub fn lookup(
        &self,
        key: u64,
        cell: &MatrixCell,
        models: &[TimeModel],
        secrets: &[u64],
    ) -> Result<&CacheEntry, CacheMiss> {
        let e = self.entries.get(&key).ok_or(CacheMiss::Absent)?;
        validate_entry(e, key, cell, models, secrets)
            .map_err(CacheMiss::Rejected)
            .map(|()| e)
    }
}

/// The hit-validation gauntlet (see [`ProofCache::lookup`]).
pub fn validate_entry(
    e: &CacheEntry,
    key: u64,
    cell: &MatrixCell,
    models: &[TimeModel],
    secrets: &[u64],
) -> Result<(), RejectReason> {
    if e.salt != CACHE_SALT {
        return Err(RejectReason::SaltMismatch);
    }
    if e.key != key {
        return Err(RejectReason::KeyMismatch);
    }
    if e.cell != *cell {
        return Err(RejectReason::CellMismatch);
    }
    if e.check != entry_check(e.key, e.salt, &e.fps, &e.cell, &e.report) {
        return Err(RejectReason::ChecksumMismatch);
    }
    if secrets.len() < 2 || e.fps.len() != models.len() * secrets.len() {
        return Err(RejectReason::FingerprintShape);
    }
    for (mi, _) in models.iter().enumerate() {
        for (si, &s) in secrets.iter().enumerate() {
            if e.fps[mi * secrets.len() + si].0 != s {
                return Err(RejectReason::FingerprintShape);
            }
        }
    }
    if e.report.ni.len() != models.len() {
        return Err(RejectReason::VerdictMismatch);
    }
    for (mi, model) in models.iter().enumerate() {
        let mv = &e.report.ni[mi];
        if mv.model != *model {
            return Err(RejectReason::VerdictMismatch);
        }
        let slice = &e.fps[mi * secrets.len()..(mi + 1) * secrets.len()];
        match compare_secret_digests(slice) {
            Ok(pass) => {
                if mv.verdict != pass {
                    return Err(RejectReason::VerdictMismatch);
                }
            }
            Err(b) => match &mv.verdict {
                NiVerdict::Leak {
                    secret_a, secret_b, ..
                } if *secret_a == secrets[0] && *secret_b == secrets[b] => {}
                _ => return Err(RejectReason::VerdictMismatch),
            },
        }
    }
    match &e.report.transparency {
        Some(cert) if cert.transparent() && cert.monitored_digest == e.fps[0].2 => Ok(()),
        _ => Err(RejectReason::CertMismatch),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fold_bytes_separates_prefixes() {
        let a = fold_bytes(OBS_DIGEST_SEED, b"abc");
        let b = fold_bytes(OBS_DIGEST_SEED, b"abd");
        let c = fold_bytes(OBS_DIGEST_SEED, b"ab");
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_eq!(a, fold_bytes(fold_bytes(OBS_DIGEST_SEED, b"ab"), b"c"));
    }
}
