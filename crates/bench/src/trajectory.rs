//! The persistent bench trajectory (`BENCH_matrix.json`) and its CI
//! trend gate.
//!
//! PR 5 left the trajectory as a single-snapshot file; this module
//! upgrades it to an append-only history (`tp-bench/matrix-v2`: a
//! `runs` array, newest last) and makes it *enforceable*: given a
//! fresh measurement, [`check_trend`] compares it against the best
//! **comparable** committed run and fails beyond a calibrated
//! regression band.
//!
//! Comparability is deliberately strict (same thread count, same CPU
//! count, same smoke flag — all from per-run [`HostInfo`]): wall-clock
//! numbers from a 1-CPU container and a 16-core CI runner say nothing
//! about each other, so a run with no comparable history passes
//! vacuously (with a note) rather than gating against noise.
//!
//! The workspace has no JSON dependency by design, so this module
//! carries its own ~100-line parser for the subset the bench binary
//! emits (objects, arrays, strings with simple escapes, numbers,
//! booleans, null).

use std::fmt::Write as _;

/// Default regression band for [`check_trend`], as a fraction of the
/// baseline. Calibrated against observed wall-clock noise on the
/// 1-CPU reference container: repeated identical runs vary by up to
/// ~35-40% under co-tenant load, so the gate only fires at 1.5x the
/// best comparable run — far below the 2x regressions it exists to
/// catch, far above run-to-run jitter.
pub const DEFAULT_BAND: f64 = 0.5;

/// How many runs the trajectory retains (oldest dropped first).
pub const MAX_RUNS: usize = 32;

/// A minimal JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number (parsed as `f64`).
    Num(f64),
    /// A string (unescaped).
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in insertion order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Member lookup on objects; `None` elsewhere.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The number value, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The string value, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The bool value, if this is a bool.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Parse `text` into a value; errors carry a byte offset.
    pub fn parse(text: &str) -> Result<Json, String> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
        };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(format!("trailing data at byte {}", p.pos));
        }
        Ok(v)
    }

    /// Render as a single line with no whitespace — the JSON-lines form
    /// trace files use, where one value must stay on one line.
    pub fn render_compact(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => {
                let _ = write!(out, "{b}");
            }
            Json::Num(n) => render_num(out, *n),
            Json::Str(s) => render_str(out, s),
            Json::Arr(items) => {
                out.push('[');
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    v.render_compact(out);
                }
                out.push(']');
            }
            Json::Obj(members) => {
                out.push('{');
                for (i, (k, v)) in members.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    render_str(out, k);
                    out.push(':');
                    v.render_compact(out);
                }
                out.push('}');
            }
        }
    }

    /// Render back to JSON text, `indent` levels deep (2 spaces each).
    pub fn render(&self, out: &mut String, indent: usize) {
        let pad = "  ".repeat(indent);
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => {
                let _ = write!(out, "{b}");
            }
            Json::Num(n) => render_num(out, *n),
            Json::Str(s) => render_str(out, s),
            Json::Arr(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push_str("[\n");
                for (i, v) in items.iter().enumerate() {
                    let _ = write!(out, "{pad}  ");
                    v.render(out, indent + 1);
                    out.push_str(if i + 1 < items.len() { ",\n" } else { "\n" });
                }
                let _ = write!(out, "{pad}]");
            }
            Json::Obj(members) => {
                if members.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push_str("{\n");
                for (i, (k, v)) in members.iter().enumerate() {
                    let _ = write!(out, "{pad}  ");
                    render_str(out, k);
                    out.push_str(": ");
                    v.render(out, indent + 1);
                    out.push_str(if i + 1 < members.len() { ",\n" } else { "\n" });
                }
                let _ = write!(out, "{pad}}}");
            }
        }
    }
}

fn render_num(out: &mut String, n: f64) {
    // Shortest round-tripping form; integral values print without ".0"
    // to match the hand-written emitter the v1 files came from.
    if n.fract() == 0.0 && n.abs() < 1e15 {
        let _ = write!(out, "{}", n as i64);
    } else {
        let _ = write!(out, "{n}");
    }
}

fn render_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|b| b.is_ascii_whitespace())
        {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected {:?} at byte {}", b as char, self.pos))
        }
    }

    fn lit(&mut self, word: &str, v: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(format!("bad literal at byte {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.lit("true", Json::Bool(true)),
            Some(b'f') => self.lit("false", Json::Bool(false)),
            Some(b'n') => self.lit("null", Json::Null),
            Some(b) if b == b'-' || b.is_ascii_digit() => self.number(),
            _ => Err(format!("unexpected input at byte {}", self.pos)),
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut members = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(members));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            members.push((key, self.value()?));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(members));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
            }
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(format!("expected ',' or ']' at byte {}", self.pos)),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut s = String::new();
        loop {
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(s);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self
                        .peek()
                        .ok_or_else(|| format!("dangling escape at byte {}", self.pos))?;
                    self.pos += 1;
                    match esc {
                        b'"' => s.push('"'),
                        b'\\' => s.push('\\'),
                        b'/' => s.push('/'),
                        b'n' => s.push('\n'),
                        b't' => s.push('\t'),
                        b'r' => s.push('\r'),
                        b'b' => s.push('\u{8}'),
                        b'f' => s.push('\u{c}'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .ok_or_else(|| format!("bad \\u at byte {}", self.pos))?;
                            self.pos += 4;
                            s.push(
                                char::from_u32(hex)
                                    .ok_or_else(|| format!("bad \\u at byte {}", self.pos))?,
                            );
                        }
                        _ => return Err(format!("bad escape at byte {}", self.pos)),
                    }
                }
                Some(_) => {
                    // Consume one UTF-8 scalar (input came from &str, so
                    // boundaries are valid).
                    let start = self.pos;
                    self.pos += 1;
                    while self.pos < self.bytes.len() && (self.bytes[self.pos] & 0xc0) == 0x80 {
                        self.pos += 1;
                    }
                    s.push_str(std::str::from_utf8(&self.bytes[start..self.pos]).unwrap());
                }
                None => return Err("unterminated string".into()),
            }
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while self
            .peek()
            .is_some_and(|b| b.is_ascii_digit() || matches!(b, b'.' | b'e' | b'E' | b'+' | b'-'))
        {
            self.pos += 1;
        }
        std::str::from_utf8(&self.bytes[start..self.pos])
            .unwrap()
            .parse::<f64>()
            .ok()
            // JSON has no Infinity/NaN: an overflowing literal like
            // "1e999" parses to `inf` at the f64 layer but must not be
            // accepted as a value.
            .filter(|n| n.is_finite())
            .map(Json::Num)
            .ok_or_else(|| format!("bad number at byte {start}"))
    }
}

/// Parse a JSON-lines document (e.g. a `--trace-out` file): one value
/// per line, blank lines skipped, `\r\n` endings accepted. Errors carry
/// the 1-based line number.
pub fn parse_json_lines(text: &str) -> Result<Vec<Json>, String> {
    let mut out = Vec::new();
    for (i, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        out.push(Json::parse(line).map_err(|e| format!("line {}: {e}", i + 1))?);
    }
    Ok(out)
}

/// Per-run host metadata: the comparability key of the trend gate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HostInfo {
    /// Worker-pool size the run used (`TP_THREADS` / `--threads`).
    pub threads: usize,
    /// Hardware parallelism of the host.
    pub cpus: usize,
    /// `git rev-parse --short HEAD` at measurement time, or `"unknown"`.
    pub git_rev: String,
    /// Seconds since the Unix epoch at measurement time.
    pub unix_time: u64,
}

/// One measured run: the trend-gated numbers plus the full JSON object
/// it was parsed from (so re-rendering preserves every field).
#[derive(Debug, Clone)]
pub struct RunRecord {
    /// CI-sized run? Smoke numbers never compare against full runs.
    pub smoke: bool,
    /// `e11.ns_per_step` — the primary gated number (lower is better).
    pub ns_per_step: f64,
    /// `exhaustive.programs_per_sec` — secondary gate (higher is better).
    pub programs_per_sec: f64,
    /// Host metadata; `None` for the oldest committed run (measured
    /// before runs carried it), which therefore never serves as a
    /// baseline.
    pub host: Option<HostInfo>,
    /// The complete run object.
    pub json: Json,
}

impl RunRecord {
    /// Extract a run from its JSON object.
    pub fn from_json(v: Json) -> Result<RunRecord, String> {
        let num = |path: &[&str]| -> Result<f64, String> {
            let mut cur = &v;
            for k in path {
                cur = cur.get(k).ok_or_else(|| format!("run missing {path:?}"))?;
            }
            cur.as_f64().ok_or_else(|| format!("{path:?} not a number"))
        };
        let smoke = v
            .get("smoke")
            .and_then(Json::as_bool)
            .ok_or("run missing \"smoke\"")?;
        let ns_per_step = num(&["e11", "ns_per_step"])?;
        let programs_per_sec = num(&["exhaustive", "programs_per_sec"])?;
        let host = match v.get("host") {
            None => None,
            Some(h) => Some(HostInfo {
                threads: num(&["host", "threads"])? as usize,
                cpus: num(&["host", "cpus"])? as usize,
                git_rev: h
                    .get("git_rev")
                    .and_then(Json::as_str)
                    .unwrap_or("unknown")
                    .to_string(),
                unix_time: num(&["host", "unix_time"])? as u64,
            }),
        };
        Ok(RunRecord {
            smoke,
            ns_per_step,
            programs_per_sec,
            host,
            json: v,
        })
    }

    /// Whether `other` was measured under conditions this run's numbers
    /// can be judged against: both carry host metadata with the same
    /// pool size and CPU count, and the same workload size.
    pub fn comparable(&self, other: &RunRecord) -> bool {
        match (&self.host, &other.host) {
            (Some(a), Some(b)) => {
                self.smoke == other.smoke && a.threads == b.threads && a.cpus == b.cpus
            }
            _ => false,
        }
    }

    /// One-line identification of this run for trend-gate logs: which
    /// commit, when, and under what conditions it was measured.
    pub fn describe(&self) -> String {
        match &self.host {
            Some(h) => format!(
                "git_rev={} unix_time={} threads={} cpus={} smoke={} ns_per_step={:.3}",
                h.git_rev, h.unix_time, h.threads, h.cpus, self.smoke, self.ns_per_step
            ),
            None => format!(
                "(no host metadata) smoke={} ns_per_step={:.3}",
                self.smoke, self.ns_per_step
            ),
        }
    }
}

/// The committed trajectory: an ordered history of runs, newest last.
#[derive(Debug, Clone, Default)]
pub struct Trajectory {
    /// The runs, oldest first.
    pub runs: Vec<RunRecord>,
}

impl Trajectory {
    /// Parse a v2 trajectory file (a `runs` array). A run without host
    /// metadata is kept for the record but never gates anything.
    pub fn parse(text: &str) -> Result<Trajectory, String> {
        let v = Json::parse(text)?;
        match v.get("schema").and_then(Json::as_str).unwrap_or("") {
            "tp-bench/matrix-v2" => {}
            other => return Err(format!("unknown trajectory schema {other:?}")),
        }
        let runs = match v.get("runs") {
            Some(Json::Arr(items)) => items
                .iter()
                .map(|r| RunRecord::from_json(r.clone()))
                .collect::<Result<Vec<_>, _>>()?,
            _ => return Err("v2 trajectory missing \"runs\" array".into()),
        };
        Ok(Trajectory { runs })
    }

    /// Append a run, dropping the oldest beyond [`MAX_RUNS`].
    pub fn push(&mut self, run: RunRecord) {
        self.runs.push(run);
        if self.runs.len() > MAX_RUNS {
            let excess = self.runs.len() - MAX_RUNS;
            self.runs.drain(..excess);
        }
    }

    /// Render the v2 file.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n  \"schema\": \"tp-bench/matrix-v2\",\n  \"runs\": ");
        let arr = Json::Arr(self.runs.iter().map(|r| r.json.clone()).collect());
        arr.render(&mut out, 1);
        out.push_str("\n}\n");
        out
    }
}

/// Outcome of gating a fresh run against the committed history.
#[derive(Debug, Clone, PartialEq)]
pub enum TrendVerdict {
    /// Within the band of the best comparable run.
    Pass {
        /// Best (minimum) comparable historical ns/step.
        baseline_ns_per_step: f64,
    },
    /// Slower than the band allows — the gate fails.
    Regression {
        /// Best comparable historical ns/step.
        baseline_ns_per_step: f64,
        /// The fresh measurement that breached it.
        fresh_ns_per_step: f64,
        /// The limit that was breached: `baseline * (1 + band)`.
        limit_ns_per_step: f64,
    },
    /// No committed run is comparable to this host — vacuous pass.
    NoComparableBaseline,
}

impl TrendVerdict {
    /// Whether CI should pass.
    pub fn passed(&self) -> bool {
        !matches!(self, TrendVerdict::Regression { .. })
    }
}

/// The committed run `fresh` actually gates against: the fastest
/// (lowest `ns_per_step`) comparable entry in `history`, or `None` when
/// no entry is comparable (the vacuous-pass case). Exposed so drivers
/// can *say* which entry a trend verdict was judged against.
pub fn best_comparable<'a>(history: &'a [RunRecord], fresh: &RunRecord) -> Option<&'a RunRecord> {
    history
        .iter()
        .filter(|r| fresh.comparable(r))
        .min_by(|a, b| a.ns_per_step.total_cmp(&b.ns_per_step))
}

/// Gate `fresh` against `history`: find the best (fastest) comparable
/// committed run ([`best_comparable`]) and fail if the fresh
/// `ns_per_step` exceeds it by more than `band` (a fraction — see
/// [`DEFAULT_BAND`]), or if exhaustive throughput fell below
/// `1 / (1 + band)` of the comparable best.
pub fn check_trend(history: &[RunRecord], fresh: &RunRecord, band: f64) -> TrendVerdict {
    let comparable: Vec<&RunRecord> = history.iter().filter(|r| fresh.comparable(r)).collect();
    let Some(baseline) = best_comparable(history, fresh).map(|r| r.ns_per_step) else {
        return TrendVerdict::NoComparableBaseline;
    };
    let limit = baseline * (1.0 + band);
    let best_pps = comparable
        .iter()
        .map(|r| r.programs_per_sec)
        .max_by(|a, b| a.total_cmp(b))
        .unwrap_or(0.0);
    let pps_floor = best_pps / (1.0 + band);
    if fresh.ns_per_step > limit || fresh.programs_per_sec < pps_floor {
        TrendVerdict::Regression {
            baseline_ns_per_step: baseline,
            fresh_ns_per_step: fresh.ns_per_step,
            limit_ns_per_step: limit,
        }
    } else {
        TrendVerdict::Pass {
            baseline_ns_per_step: baseline,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(ns: f64, pps: f64, threads: usize, cpus: usize, smoke: bool) -> RunRecord {
        let host = Json::Obj(vec![
            ("threads".into(), Json::Num(threads as f64)),
            ("cpus".into(), Json::Num(cpus as f64)),
            ("git_rev".into(), Json::Str("abc1234".into())),
            ("unix_time".into(), Json::Num(1_700_000_000.0)),
        ]);
        let v = Json::Obj(vec![
            ("smoke".into(), Json::Bool(smoke)),
            (
                "e11".into(),
                Json::Obj(vec![("ns_per_step".into(), Json::Num(ns))]),
            ),
            (
                "exhaustive".into(),
                Json::Obj(vec![("programs_per_sec".into(), Json::Num(pps))]),
            ),
            ("host".into(), host),
        ]);
        RunRecord::from_json(v).unwrap()
    }

    #[test]
    fn json_round_trips() {
        let text = r#"{"a": [1, 2.5, -3], "b": {"c": "x\"y", "d": true}, "e": null}"#;
        let v = Json::parse(text).unwrap();
        let mut out = String::new();
        v.render(&mut out, 0);
        assert_eq!(Json::parse(&out).unwrap(), v);
        assert_eq!(
            v.get("a").unwrap(),
            &Json::Arr(vec![Json::Num(1.0), Json::Num(2.5), Json::Num(-3.0)])
        );
        assert_eq!(v.get("b").unwrap().get("c").unwrap().as_str(), Some("x\"y"));
    }

    #[test]
    fn parser_rejects_garbage() {
        for bad in ["", "{", "[1,", "{\"a\" 1}", "truex", "{\"a\":1} tail"] {
            assert!(Json::parse(bad).is_err(), "{bad:?} should fail");
        }
    }

    #[test]
    fn render_compact_is_single_line_and_round_trips() {
        let text = r#"{"a": [1, 2.5, -3], "b": {"c": "x\"y", "d": true}, "e": null}"#;
        let v = Json::parse(text).unwrap();
        let mut out = String::new();
        v.render_compact(&mut out);
        assert!(!out.contains('\n'), "{out}");
        assert!(!out.contains(": "), "no pretty separators: {out}");
        assert_eq!(Json::parse(&out).unwrap(), v);
        assert_eq!(
            out,
            r#"{"a":[1,2.5,-3],"b":{"c":"x\"y","d":true},"e":null}"#
        );
    }

    #[test]
    fn json_lines_parse_with_blanks_and_errors_carry_line_numbers() {
        let doc = "{\"t\":\"span\",\"dur_us\":3}\n\n{\"t\":\"manifest\"}\n";
        let vals = parse_json_lines(doc).unwrap();
        assert_eq!(vals.len(), 2);
        assert_eq!(vals[1].get("t").unwrap().as_str(), Some("manifest"));
        let err = parse_json_lines("{\"ok\":1}\n{broken\n").unwrap_err();
        assert!(err.starts_with("line 2:"), "{err}");
    }

    #[test]
    fn best_comparable_picks_the_fastest_matching_host() {
        let history = vec![
            run(90.0, 14_000.0, 1, 1, false),
            run(85.0, 15_000.0, 1, 1, false),
            run(20.0, 90_000.0, 4, 16, false),
        ];
        let fresh = run(100.0, 14_500.0, 1, 1, false);
        let best = best_comparable(&history, &fresh).unwrap();
        assert_eq!(best.ns_per_step, 85.0);
        assert!(best.describe().contains("threads=1"), "{}", best.describe());
        assert!(
            best.describe().contains("git_rev=abc1234"),
            "{}",
            best.describe()
        );
        let foreign = run(100.0, 14_500.0, 2, 8, false);
        assert!(best_comparable(&history, &foreign).is_none());
    }

    /// The one run the committed `BENCH_matrix.json` opens with.
    const HOSTLESS_RUN: &str = r#"{
  "schema": "tp-bench/matrix-v1",
  "smoke": false,
  "threads": 1,
  "e11": {"ns_per_step": 179.973, "cells_per_sec": 100.012},
  "exhaustive": {"programs_per_sec": 15370.082}
}"#;

    #[test]
    fn a_hostless_run_parses_but_never_gates() {
        let v2 = format!("{{\"schema\": \"tp-bench/matrix-v2\", \"runs\": [{HOSTLESS_RUN}]}}");
        let t = Trajectory::parse(&v2).unwrap();
        assert_eq!(t.runs.len(), 1);
        assert!(t.runs[0].host.is_none());
        assert_eq!(t.runs[0].ns_per_step, 179.973);
        // Hostless history can never gate: vacuous pass.
        let fresh = run(500.0, 100.0, 1, 1, false);
        assert_eq!(
            check_trend(&t.runs, &fresh, DEFAULT_BAND),
            TrendVerdict::NoComparableBaseline
        );
    }

    #[test]
    fn a_bare_v1_file_is_refused() {
        let err = Trajectory::parse(HOSTLESS_RUN).unwrap_err();
        assert!(err.contains("tp-bench/matrix-v1"), "{err}");
    }

    #[test]
    fn v2_round_trips_and_caps_history() {
        let mut t = Trajectory::default();
        for i in 0..(MAX_RUNS + 3) {
            t.push(run(80.0 + i as f64, 15_000.0, 1, 1, false));
        }
        assert_eq!(t.runs.len(), MAX_RUNS);
        assert_eq!(t.runs[0].ns_per_step, 83.0, "oldest dropped first");
        let t2 = Trajectory::parse(&t.render()).unwrap();
        assert_eq!(t2.runs.len(), MAX_RUNS);
        assert_eq!(
            t2.runs.last().unwrap().ns_per_step,
            t.runs.last().unwrap().ns_per_step
        );
        assert_eq!(t2.runs[0].host, t.runs[0].host);
    }

    #[test]
    fn within_band_passes() {
        let history = vec![
            run(85.0, 15_000.0, 1, 1, false),
            run(90.0, 14_000.0, 1, 1, false),
        ];
        let fresh = run(110.0, 14_500.0, 1, 1, false); // 85 * 1.5 = 127.5
        let v = check_trend(&history, &fresh, DEFAULT_BAND);
        assert_eq!(
            v,
            TrendVerdict::Pass {
                baseline_ns_per_step: 85.0
            }
        );
        assert!(v.passed());
    }

    #[test]
    fn deliberately_slowed_run_fails_the_gate() {
        // The synthetic regression the acceptance criteria call for: a
        // 10x-slower fresh run against a healthy committed history.
        let history = vec![run(85.0, 15_000.0, 1, 1, false)];
        let fresh = run(850.0, 15_000.0, 1, 1, false);
        let v = check_trend(&history, &fresh, DEFAULT_BAND);
        assert!(!v.passed());
        match v {
            TrendVerdict::Regression {
                baseline_ns_per_step,
                fresh_ns_per_step,
                limit_ns_per_step,
            } => {
                assert_eq!(baseline_ns_per_step, 85.0);
                assert_eq!(fresh_ns_per_step, 850.0);
                assert!((limit_ns_per_step - 127.5).abs() < 1e-9);
            }
            other => panic!("expected Regression, got {other:?}"),
        }
    }

    #[test]
    fn exhaustive_throughput_collapse_fails_the_gate() {
        let history = vec![run(85.0, 15_000.0, 1, 1, false)];
        let fresh = run(85.0, 1_500.0, 1, 1, false); // floor = 10_000
        assert!(!check_trend(&history, &fresh, DEFAULT_BAND).passed());
    }

    #[test]
    fn foreign_hosts_never_gate() {
        let history = vec![
            run(85.0, 15_000.0, 1, 1, false),  // same threads, same cpus
            run(20.0, 90_000.0, 4, 16, false), // big CI box: incomparable
        ];
        // Fresh run on a 16-cpu box with 4 threads gates only against
        // the second entry; on a 2-cpu box, against nothing.
        let fresh_big = run(30.0, 80_000.0, 4, 16, false);
        assert_eq!(
            check_trend(&history, &fresh_big, DEFAULT_BAND),
            TrendVerdict::Pass {
                baseline_ns_per_step: 20.0
            }
        );
        let fresh_other = run(30.0, 80_000.0, 4, 2, false);
        assert_eq!(
            check_trend(&history, &fresh_other, DEFAULT_BAND),
            TrendVerdict::NoComparableBaseline
        );
        // Smoke runs never compare against full runs either.
        let fresh_smoke = run(85.0, 15_000.0, 1, 1, true);
        assert_eq!(
            check_trend(&history, &fresh_smoke, DEFAULT_BAND),
            TrendVerdict::NoComparableBaseline
        );
    }
}
