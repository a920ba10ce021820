//! Deterministic fault injection for crash/chaos testing.
//!
//! A *fault point* is a named place in the code that asks, each time it
//! is reached, whether a planned fault should fire there. Points are
//! armed by the `TP_FAULTS` environment variable:
//!
//! ```text
//! TP_FAULTS="<seed>:<point>=<action>[@<n>][,<point>=<action>[@<n>]…]"
//! ```
//!
//! * `<seed>` — a `u64` folded into every rule so one knob reshuffles
//!   an entire chaos schedule deterministically.
//! * `<point>` — a fault-point name (`journal.append`, `persist.write`,
//!   `task`, `serve.stream`, `serve.accept`, …). Unknown names are
//!   legal: they simply never fire, so plans survive refactors.
//! * `<action>` — what to inject: `kill` (abort the process, the
//!   SIGKILL stand-in), `panic`, `ioerr` (the site reports an I/O
//!   error), `truncate` (the site writes a torn prefix, then the
//!   process aborts), or `delay:<ms>` (a worker stall).
//! * `@<n>` — fire on the *n*-th hit of the point (1-based). When
//!   omitted, `n` is derived from the seed and the point name, so the
//!   same plan string replays the same crash schedule forever.
//!
//! The layer is zero-cost when disabled in the `tp-telemetry` style: a
//! single lazily-initialised relaxed atomic load guards every site, and
//! nothing ever fires unless `TP_FAULTS` was set at first use. An
//! unparseable plan disarms the layer with a warning rather than
//! corrupting a run with a half-understood schedule.
//!
//! Faults that trigger are counted under
//! [`tp_telemetry::Counter::FaultsInjected`].

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Once, OnceLock};

use tp_hw::obs::{mix_digest, OBS_DIGEST_SEED};

/// The injected behaviours a plan can schedule at a point.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// Abort the process immediately — the in-tree stand-in for
    /// `kill -9` / OOM-kill, with no unwinding and no destructors.
    Kill,
    /// Panic at the point (exercises the catch-unwind containment).
    Panic,
    /// The site should behave as if the OS returned an I/O error.
    IoError,
    /// The site should write a torn prefix of its payload and then
    /// abort, leaving a half-written artifact for recovery to face.
    Truncate,
    /// Stall the current thread for the given number of milliseconds.
    Delay(u64),
}

/// One armed rule: fire `fault` on the `at`-th hit of `point`.
#[derive(Debug)]
struct Rule {
    point: String,
    fault: Fault,
    at: u64,
    hits: AtomicU64,
}

/// A parsed, seeded fault schedule (see the module docs for the
/// `TP_FAULTS` grammar).
#[derive(Debug, Default)]
pub struct FaultPlan {
    rules: Vec<Rule>,
}

impl FaultPlan {
    /// Parse a full `seed:spec` plan string.
    pub fn parse(spec: &str) -> Result<FaultPlan, String> {
        let (seed_str, rules_str) = spec
            .split_once(':')
            .ok_or_else(|| format!("missing seed prefix in {spec:?} (want seed:point=action)"))?;
        let seed: u64 = seed_str
            .trim()
            .parse()
            .map_err(|_| format!("bad seed {seed_str:?}"))?;
        let mut rules = Vec::new();
        for tok in rules_str.split(',') {
            let tok = tok.trim();
            if tok.is_empty() {
                continue;
            }
            let (point, action) = tok
                .split_once('=')
                .ok_or_else(|| format!("bad rule {tok:?} (want point=action)"))?;
            let point = point.trim();
            if point.is_empty() {
                return Err(format!("empty point name in {tok:?}"));
            }
            let (action, at) = match action.rsplit_once('@') {
                Some((a, n)) => {
                    let at: u64 = n.parse().map_err(|_| format!("bad trigger @{n:?}"))?;
                    if at == 0 {
                        return Err("trigger counts are 1-based; @0 never fires".into());
                    }
                    (a, at)
                }
                None => (action, derived_trigger(seed, point)),
            };
            let fault = parse_action(action)?;
            rules.push(Rule {
                point: point.to_string(),
                fault,
                at,
                hits: AtomicU64::new(0),
            });
        }
        if rules.is_empty() {
            return Err(format!("plan {spec:?} has no rules"));
        }
        Ok(FaultPlan { rules })
    }

    /// Record a hit of `point` and return the fault to inject, if this
    /// hit is one a rule is scheduled for.
    pub fn check(&self, point: &str) -> Option<Fault> {
        let mut hit = None;
        for r in self.rules.iter().filter(|r| r.point == point) {
            let n = r.hits.fetch_add(1, Ordering::Relaxed) + 1;
            if n == r.at {
                hit = Some(r.fault);
            }
        }
        hit
    }
}

/// Seed-derived default trigger count: 1..=8, stable for a given
/// (seed, point) pair.
fn derived_trigger(seed: u64, point: &str) -> u64 {
    let mut h = mix_digest(OBS_DIGEST_SEED, seed);
    for &b in point.as_bytes() {
        h = mix_digest(h, u64::from(b));
    }
    1 + h % 8
}

fn parse_action(action: &str) -> Result<Fault, String> {
    match action.trim() {
        "kill" => Ok(Fault::Kill),
        "panic" => Ok(Fault::Panic),
        "ioerr" => Ok(Fault::IoError),
        "truncate" => Ok(Fault::Truncate),
        other => match other.strip_prefix("delay:") {
            Some(ms) => ms
                .parse()
                .map(Fault::Delay)
                .map_err(|_| format!("bad delay {ms:?}")),
            None => Err(format!("unknown action {other:?}")),
        },
    }
}

static INIT: Once = Once::new();
static ARMED: AtomicBool = AtomicBool::new(false);
static PLAN: OnceLock<FaultPlan> = OnceLock::new();

/// Whether a fault plan is armed. The first call parses `TP_FAULTS`;
/// afterwards this is a pair of relaxed atomic loads.
#[inline]
pub fn armed() -> bool {
    INIT.call_once(|| {
        if let Ok(spec) = std::env::var("TP_FAULTS") {
            if spec.trim().is_empty() {
                return;
            }
            match FaultPlan::parse(&spec) {
                Ok(plan) => {
                    let _ = PLAN.set(plan);
                    ARMED.store(true, Ordering::Release);
                }
                Err(e) => eprintln!("faultpoint: ignoring TP_FAULTS: {e}"),
            }
        }
    });
    ARMED.load(Ordering::Relaxed)
}

/// Ask whether a fault should fire at `point` on this hit. `None`
/// always, unless an armed plan scheduled this exact hit. A fired
/// fault is counted under `faults_injected`.
pub fn fire(point: &str) -> Option<Fault> {
    if !armed() {
        return None;
    }
    let fault = PLAN.get()?.check(point)?;
    tp_telemetry::count(tp_telemetry::Counter::FaultsInjected);
    Some(fault)
}

/// Fire `point` and apply the control-flow faults in place: `kill`
/// aborts, `panic` panics, `delay` sleeps. The write-shaped faults
/// (`ioerr`, `truncate`) are meaningless at a non-write site and are
/// ignored. This is the one-liner for task/scheduler sites.
pub fn apply_inline(point: &str) {
    match fire(point) {
        Some(Fault::Kill) => abort_now(point),
        Some(Fault::Panic) => panic!("injected fault: {point} panicked"),
        Some(Fault::Delay(ms)) => std::thread::sleep(std::time::Duration::from_millis(ms)),
        Some(Fault::IoError | Fault::Truncate) | None => {}
    }
}

/// Abort the process without unwinding — the deterministic stand-in
/// for SIGKILL at a planned point. Prints the point first so a chaos
/// log shows *where* the run died.
pub fn abort_now(point: &str) -> ! {
    eprintln!("faultpoint: injected crash at {point}");
    std::process::abort();
}

/// Build the injected-I/O-error value write sites report for `ioerr`.
pub fn injected_io_error(point: &str) -> std::io::Error {
    std::io::Error::other(format!("injected fault: {point} io error"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_explicit_triggers() {
        let p = FaultPlan::parse("7:journal.append=kill@3,task=delay:5@1").unwrap();
        assert_eq!(p.check("task"), Some(Fault::Delay(5)));
        assert_eq!(p.check("task"), None);
        assert_eq!(p.check("journal.append"), None);
        assert_eq!(p.check("journal.append"), None);
        assert_eq!(p.check("journal.append"), Some(Fault::Kill));
        assert_eq!(p.check("journal.append"), None);
        // Unknown points are legal and never fire.
        assert_eq!(p.check("no.such.point"), None);
    }

    #[test]
    fn derives_triggers_from_the_seed() {
        // Same seed → same schedule; the derived count is in 1..=8.
        let n = derived_trigger(42, "persist.write");
        assert_eq!(n, derived_trigger(42, "persist.write"));
        assert!((1..=8).contains(&n));
        let p = FaultPlan::parse("42:persist.write=ioerr").unwrap();
        let fired: Vec<u64> = (1..=8)
            .filter(|_| p.check("persist.write").is_some())
            .collect();
        assert_eq!(fired.len(), 1, "exactly one hit fires");
    }

    #[test]
    fn rejects_malformed_plans() {
        assert!(FaultPlan::parse("").is_err());
        assert!(FaultPlan::parse("7:").is_err());
        assert!(FaultPlan::parse("nope:task=kill").is_err());
        assert!(FaultPlan::parse("7:task").is_err());
        assert!(FaultPlan::parse("7:=kill").is_err());
        assert!(FaultPlan::parse("7:task=frobnicate").is_err());
        assert!(FaultPlan::parse("7:task=delay:x").is_err());
        assert!(FaultPlan::parse("7:task=kill@0").is_err());
        assert!(FaultPlan::parse("7:task=kill@x").is_err());
    }

    #[test]
    fn all_actions_parse() {
        let p =
            FaultPlan::parse("1:a=kill@1,b=panic@1,c=ioerr@1,d=truncate@1,e=delay:250@1").unwrap();
        assert_eq!(p.check("a"), Some(Fault::Kill));
        assert_eq!(p.check("b"), Some(Fault::Panic));
        assert_eq!(p.check("c"), Some(Fault::IoError));
        assert_eq!(p.check("d"), Some(Fault::Truncate));
        assert_eq!(p.check("e"), Some(Fault::Delay(250)));
    }

    #[test]
    fn disarmed_process_fires_nothing() {
        // The test binary is run without TP_FAULTS (CI never sets it
        // for the test suite), so the global layer must stay inert.
        assert_eq!(fire("task"), None);
        apply_inline("task"); // must be a no-op, not a crash
    }
}
