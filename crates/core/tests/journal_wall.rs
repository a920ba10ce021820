//! Adversarial journal suite, the resume-path twin of
//! `cache_poisoning.rs`: a checkpoint journal is replayed into the
//! proof cache on resume, so every class of damage a crash or an
//! adversary can inflict on the file must either be the *torn tail* a
//! real crash produces (dropped silently, the cell re-proves) or fail
//! closed at one of two walls — the framing parser for anything
//! corrupt before the physical tail, and the cache validation gauntlet
//! for records whose framing is intact but whose claims are forged.
//! In every surviving case the resumed sweep's output must be
//! byte-identical to an uninterrupted run.

use std::sync::OnceLock;

use tp_core::cache::{CacheStats, ProofCache};
use tp_core::engine::{MatrixCell, ScenarioMatrix};
use tp_core::journal::{parse_journal, render_journal, JournalStats};
use tp_core::noninterference::NiScenario;
use tp_core::proof::{default_time_models, ProofReport};
use tp_core::wire::CachedMeta;
use tp_core::JournalRecord;
use tp_hw::machine::MachineConfig;
use tp_hw::types::Cycles;
use tp_kernel::config::{DomainSpec, KernelConfig, Mechanism};
use tp_kernel::domain::DomainId;
use tp_kernel::layout::data_addr;
use tp_kernel::program::{Instr, TraceProgram};
use tp_sched::WorkerPool;

/// Two cells — full protection and the padding ablation — under two
/// time models, the same shape `cache_poisoning.rs` uses: both verdict
/// kinds end up journaled.
fn matrix() -> ScenarioMatrix {
    ScenarioMatrix::new("journal", MachineConfig::single_core())
        .with_ablations(vec![None, Some(Mechanism::Padding)])
        .with_models(default_time_models()[..2].to_vec())
}

/// Deterministic scenario with a leaky secret-dependence; applies the
/// cell's protection itself so the engine's cache key matches.
fn scenario_for(cell: &MatrixCell) -> NiScenario {
    let tp = cell.tp;
    NiScenario {
        mcfg: cell.mcfg.clone(),
        make_kcfg: Box::new(move |secret| {
            let hi = TraceProgram::new(
                (0..secret * 24)
                    .map(|i| Instr::Store(data_addr((i * 64) % (8 * 4096))))
                    .collect(),
            );
            let mut lo = Vec::new();
            for _ in 0..20 {
                for i in 0..24 {
                    lo.push(Instr::Load(data_addr(i * 64)));
                }
                lo.push(Instr::ReadClock);
            }
            lo.push(Instr::Halt);
            KernelConfig::new(vec![
                DomainSpec::new(Box::new(hi))
                    .with_slice(Cycles(15_000))
                    .with_pad(Cycles(25_000)),
                DomainSpec::new(Box::new(TraceProgram::new(lo)))
                    .with_slice(Cycles(15_000))
                    .with_pad(Cycles(25_000)),
            ])
            .with_tp(tp)
        }),
        lo: DomainId(1),
        secrets: vec![0, 3, 7],
        budget: Cycles(500_000),
        max_steps: 200_000,
    }
}

type Triples = Vec<(usize, MatrixCell, ProofReport)>;

/// The shared fixture: the uninterrupted reference output, the records
/// a journaled cold run emitted, and their canonical framing.
fn fixture() -> &'static (Triples, Vec<JournalRecord>, String) {
    static FIXTURE: OnceLock<(Triples, Vec<JournalRecord>, String)> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let m = matrix();
        let pool = WorkerPool::new(2);
        let all: Vec<usize> = (0..m.cells().len()).collect();
        let mut cache = ProofCache::new();
        let mut records: Vec<JournalRecord> = Vec::new();
        let mut on_proved =
            |i: usize, cell: &MatrixCell, report: &ProofReport, meta: &CachedMeta| {
                records.push(JournalRecord {
                    index: i,
                    cell: cell.clone(),
                    report: report.clone(),
                    meta: meta.clone(),
                });
            };
        let (triples, stats) = m.run_subset_journaled(
            &pool,
            &all,
            &mut cache,
            scenario_for,
            |_, _, _| {},
            Some(&mut on_proved),
        );
        assert_eq!(stats.reproved(), all.len(), "fixture must start cold");
        assert_eq!(records.len(), all.len(), "every fixture cell journals");
        let text = render_journal(&records);
        (triples, records, text)
    })
}

/// Resume against `journal_text`, exactly as `matrix --resume` does:
/// parse (torn-tail rule applies), replay the survivors into a fresh
/// cache, sweep through the validation gauntlet.
fn resume_run(journal_text: &str) -> (Triples, CacheStats, JournalStats) {
    let (records, jstats) = parse_journal(journal_text).expect("journal must parse here");
    let mut cache = ProofCache::new();
    for r in records {
        cache.insert_entry(r.into_entry());
    }
    let m = matrix();
    let pool = WorkerPool::new(2);
    let all: Vec<usize> = (0..m.cells().len()).collect();
    let (t, s) = m.run_subset_cached(&pool, &all, &mut cache, scenario_for, |_, _, _| {});
    (t, s, jstats)
}

#[test]
fn control_a_full_journal_replays_every_cell() {
    let (reference, _, text) = fixture();
    let (triples, stats, jstats) = resume_run(text);
    assert_eq!(
        jstats,
        JournalStats {
            records: 2,
            torn_dropped: 0,
            durable_len: text.len(),
        }
    );
    assert_eq!(stats.hits, reference.len(), "every record replays: {stats}");
    assert_eq!(stats.reproved(), 0, "{stats}");
    assert_eq!(&triples, reference, "resumed output");
}

#[test]
fn a_torn_tail_is_dropped_silently_and_the_cell_reproves() {
    let (reference, _, text) = fixture();
    // A crash can die at any byte of the final append. Sample the
    // whole spectrum: mid-header, right after the header, mid-payload,
    // one byte short of complete. Wherever it dies, the durable prefix
    // — where open cuts the file — ends exactly before the torn record.
    let tail = text.rfind("jrec ").expect("second record's header");
    let header_end = text[tail..].find('\n').unwrap() + tail;
    for cut in [tail + 3, header_end, header_end + 1, text.len() - 1] {
        let torn = &text[..cut];
        let (triples, stats, jstats) = resume_run(torn);
        assert_eq!(
            jstats,
            JournalStats {
                records: 1,
                torn_dropped: 1,
                durable_len: tail,
            },
            "cut at byte {cut}"
        );
        assert_eq!(stats.hits, 1, "survivor replays (cut {cut}): {stats}");
        assert_eq!(stats.reproved(), 1, "torn cell re-proves (cut {cut})");
        assert_eq!(&triples, reference, "cut {cut}: output");
    }
    // Cutting inside the *first* record tears everything after it —
    // but still parses: physically, nothing follows the damage.
    let first_payload = text.find('\n').unwrap() + 10;
    let (triples, stats, jstats) = resume_run(&text[..first_payload]);
    assert_eq!(
        jstats,
        JournalStats {
            records: 0,
            torn_dropped: 1,
            durable_len: 0,
        }
    );
    assert_eq!(stats.reproved(), 2, "cold resume: {stats}");
    assert_eq!(&triples, reference);
}

#[test]
fn garbage_appended_at_the_tail_is_torn_not_trusted() {
    let (reference, _, text) = fixture();
    // A half-written header and plain junk both read as crash debris
    // when — and only when — nothing valid follows them.
    for junk in ["jrec i=9 le", "xyzzy"] {
        let (triples, stats, jstats) = resume_run(&format!("{text}{junk}"));
        assert_eq!(
            jstats,
            JournalStats {
                records: 2,
                torn_dropped: 1,
                durable_len: text.len(),
            },
            "junk {junk:?}"
        );
        assert_eq!(stats.hits, 2, "junk {junk:?}: {stats}");
        assert_eq!(&triples, reference, "junk {junk:?}: output");
    }
}

#[test]
fn corruption_before_the_tail_fails_closed() {
    let (_, _, text) = fixture();
    // Flip one payload byte of the FIRST record: its framing checksum
    // breaks, and because a valid record follows, this cannot be a
    // crash artifact — the parse must refuse the whole file.
    let at = text.find('\n').unwrap() + 10;
    let mut bytes = text.clone().into_bytes();
    bytes[at] ^= 1;
    let flipped = String::from_utf8(bytes).unwrap();
    assert!(
        parse_journal(&flipped).is_err(),
        "mid-file byte flip must fail closed"
    );

    // Garble the first header with valid records after it: same rule.
    let garbled = text.replacen("jrec ", "jrek ", 1);
    assert!(
        parse_journal(&garbled).is_err(),
        "mid-file header damage must fail closed"
    );
}

#[test]
fn a_framing_valid_forgery_is_rejected_by_the_cache_gauntlet() {
    let (reference, records, _) = fixture();
    // The strongest journal adversary: tamper a record's stored entry
    // checksum and re-render, so the *framing* checksum is recomputed
    // and consistent. The parse accepts it — framing proves durability,
    // not truth — and the cache gauntlet must throw it out at replay.
    let mut forged = records.clone();
    forged[0].meta.check ^= 1;
    let (triples, stats, jstats) = resume_run(&render_journal(&forged));
    assert_eq!(jstats.records, 2, "forgery parses");
    assert!(stats.rejected >= 1, "gauntlet rejects the forgery: {stats}");
    assert_eq!(stats.reproved(), 1, "forged cell re-proves: {stats}");
    assert_eq!(&triples, reference, "output equals the clean run");
}

#[test]
fn a_stale_version_salt_is_retired_not_believed() {
    let (reference, records, _) = fixture();
    // A journal from a hypothetical older engine: same bytes, older
    // salt. Replay must re-prove rather than trust cross-version state.
    let mut stale = records.clone();
    stale[1].meta.salt ^= 1;
    let (triples, stats, _) = resume_run(&render_journal(&stale));
    assert!(stats.rejected >= 1, "stale salt rejected: {stats}");
    assert_eq!(stats.reproved(), 1, "{stats}");
    assert_eq!(&triples, reference);
}

#[test]
fn duplicate_records_resolve_last_wins_through_the_gauntlet() {
    let (reference, records, _) = fixture();
    // A resumed run legitimately re-appends a cell whose earlier
    // record went bad: the later, valid record must win...
    let mut healed = records.clone();
    let mut bad = records[0].clone();
    bad.meta.check ^= 1;
    healed.insert(0, bad);
    let (triples, stats, jstats) = resume_run(&render_journal(&healed));
    assert_eq!(jstats.records, 3);
    assert_eq!(stats.hits, 2, "the healed duplicate replays: {stats}");
    assert_eq!(&triples, reference);

    // ...and a *hostile* duplicate appended last wins the slot but not
    // the verdict: the gauntlet rejects it and the cell re-proves.
    let mut poisoned = records.clone();
    let mut forged = records[0].clone();
    forged.meta.check ^= 1;
    poisoned.push(forged);
    let (triples, stats, _) = resume_run(&render_journal(&poisoned));
    assert!(stats.rejected >= 1, "hostile duplicate rejected: {stats}");
    assert_eq!(stats.reproved(), 1, "{stats}");
    assert_eq!(&triples, reference, "output still equals the clean run");
}

#[test]
fn a_line_that_is_not_a_frame_header_is_corruption_wherever_it_sits() {
    let (_, _, text) = fixture();
    // A torn append never writes a newline after a damaged header, so
    // a complete non-header line is never crash debris — not mid-file,
    // and not at the tail either.
    for junk in ["xyzzy\n", "jrec i=9 le\n", "\n"] {
        assert!(
            parse_journal(&format!("{text}{junk}")).is_err(),
            "junk line {junk:?} after valid records must fail closed"
        );
    }
    // A file with no record at all counts as a crashed first append
    // only when it starts like one; anything else is not a proof log,
    // so an open that cuts a torn tail never empties it.
    for foreign in ["this is not a cache @@@\n", "xyzzy", "cell i=0"] {
        assert!(
            parse_journal(foreign).is_err(),
            "foreign file {foreign:?} must fail closed"
        );
    }
    for crashed in ["", "j", "jrec", "jrec i=0 len=9"] {
        let (records, stats) = parse_journal(crashed).expect("a crashed first append");
        assert!(records.is_empty(), "{crashed:?}");
        assert_eq!(stats.torn_dropped, usize::from(!crashed.is_empty()));
    }
}

#[test]
fn payload_lengths_that_overflow_or_split_a_character_are_handled() {
    let (_, records, text) = fixture();
    // A length that overflows the offset runs past EOF: torn, and the
    // parse neither panics nor wraps around.
    let huge = format!("{text}jrec i=0 len={} check=0\nxy", u64::MAX);
    let (kept, stats) = parse_journal(&huge).expect("an absurd length at the tail is torn");
    assert_eq!((kept.len(), stats.torn_dropped), (records.len(), 1));
    assert!(parse_journal(&format!("jrec i=0 len={} check=0\n", usize::MAX)).is_ok());

    // A length that ends inside a multi-byte character *within* the
    // file is corruption: it must not silently drop everything after.
    let split = format!("jrec i=0 len=1 check=0\n\u{e9}\n{text}");
    assert!(
        parse_journal(&split).is_err(),
        "a record ending mid-character before the tail must fail closed"
    );
}
