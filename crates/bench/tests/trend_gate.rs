//! End-to-end trend gate: run the real `bench` binary in `--check`
//! mode against synthetic committed trajectories and require the CI
//! verdicts — a deliberately slowed history entry must make a real run
//! pass, an impossibly fast one must make it FAIL, and a foreign host
//! must pass vacuously. This is the acceptance check that a genuine
//! perf regression cannot land: the gate is exercised through the same
//! binary invocation CI uses, not a unit shim.

use std::path::PathBuf;
use std::process::Command;

use tp_bench::trajectory::{Json, Trajectory};

/// The two `e11` fields runs carried while `bench` also timed a
/// forced-recording sweep, with the values of the committed history.
const RECORDING_FIELDS: [(&str, f64); 2] = [
    ("recording_seconds", 0.032562),
    ("digest_over_recording", 1.0567),
];

/// A v2 trajectory with one smoke run measured on `cpus` CPUs with one
/// worker thread, at the given speed.
fn synthetic_trajectory(ns_per_step: f64, programs_per_sec: f64, cpus: usize) -> String {
    trajectory_of(synthetic_run(ns_per_step, programs_per_sec, cpus, &[]))
}

/// A smoke run measured on `cpus` CPUs with one worker thread; `e11`
/// carries `ns_per_step` followed by `e11_extra`.
fn synthetic_run(
    ns_per_step: f64,
    programs_per_sec: f64,
    cpus: usize,
    e11_extra: &[(&str, f64)],
) -> Json {
    let e11 = std::iter::once(("ns_per_step", ns_per_step))
        .chain(e11_extra.iter().copied())
        .map(|(k, v)| (k.to_string(), Json::Num(v)))
        .collect();
    Json::Obj(vec![
        ("smoke".into(), Json::Bool(true)),
        ("threads".into(), Json::Num(1.0)),
        (
            "host".into(),
            Json::Obj(vec![
                ("threads".into(), Json::Num(1.0)),
                ("cpus".into(), Json::Num(cpus as f64)),
                ("git_rev".into(), Json::Str("0000000".into())),
                ("unix_time".into(), Json::Num(1_700_000_000.0)),
            ]),
        ),
        ("e11".into(), Json::Obj(e11)),
        (
            "exhaustive".into(),
            Json::Obj(vec![(
                "programs_per_sec".into(),
                Json::Num(programs_per_sec),
            )]),
        ),
    ])
}

/// Render a v2 trajectory holding `run` alone.
fn trajectory_of(run: Json) -> String {
    let mut out = String::new();
    out.push_str("{\n  \"schema\": \"tp-bench/matrix-v2\",\n  \"runs\": ");
    Json::Arr(vec![run]).render(&mut out, 1);
    out.push_str("\n}\n");
    out
}

/// Run `bench --smoke --threads 1 --check` against `trajectory`,
/// returning (success, stderr, file contents afterwards).
fn run_check(name: &str, trajectory: &str) -> (bool, String, String) {
    run_bench(name, trajectory, &["--check"])
}

/// Run `bench --smoke --threads 1 <extra> --out F` with `trajectory` in
/// `F`, returning (success, stderr, file contents afterwards).
fn run_bench(name: &str, trajectory: &str, extra: &[&str]) -> (bool, String, String) {
    let path: PathBuf = std::env::temp_dir().join(format!(
        "tp_trend_gate_{}_{}.json",
        name,
        std::process::id()
    ));
    std::fs::write(&path, trajectory).unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_bench"))
        .args(["--smoke", "--threads", "1"])
        .args(extra)
        .arg("--out")
        .arg(&path)
        .output()
        .expect("bench binary runs");
    let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
    let after = std::fs::read_to_string(&path).unwrap();
    std::fs::remove_file(&path).ok();
    (out.status.success(), stderr, after)
}

fn host_cpus() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

#[test]
fn slowed_history_lets_a_real_run_pass() {
    // History claims 1e9 ns/step (a deliberately slowed entry): any
    // real measurement is far inside the band.
    let traj = synthetic_trajectory(1e9, 1e-3, host_cpus());
    let (ok, stderr, after) = run_check("pass", &traj);
    assert!(ok, "gate should pass against a slow baseline:\n{stderr}");
    assert!(stderr.contains("trend gate: PASS"), "{stderr}");
    // The gate must say which committed entry it judged against.
    assert!(
        stderr.contains("trend gate: baseline git_rev=0000000"),
        "{stderr}"
    );
    assert_eq!(after, traj, "--check must not rewrite the trajectory");
}

#[test]
fn fast_history_fails_a_real_run() {
    // History claims 0.001 ns/step: every real run is a "regression"
    // beyond any sane band — CI must go red.
    let traj = synthetic_trajectory(1e-3, 1e12, host_cpus());
    let (ok, stderr, after) = run_check("fail", &traj);
    assert!(
        !ok,
        "gate must fail against an impossible baseline:\n{stderr}"
    );
    assert!(stderr.contains("trend gate: REGRESSION"), "{stderr}");
    assert!(
        stderr.contains("trend gate: baseline git_rev=0000000"),
        "{stderr}"
    );
    assert_eq!(
        after, traj,
        "a failing --check must not rewrite the trajectory"
    );
}

#[test]
fn foreign_host_passes_vacuously() {
    // Same speeds as the failing case, but recorded on a host with a
    // different CPU count: incomparable, so the gate stands down.
    let traj = synthetic_trajectory(1e-3, 1e12, host_cpus() + 1);
    let (ok, stderr, _) = run_check("foreign", &traj);
    assert!(ok, "incomparable history must pass vacuously:\n{stderr}");
    assert!(stderr.contains("vacuous: no comparable host"), "{stderr}");
}

/// Older committed runs carry `e11.recording_seconds` and
/// `e11.digest_over_recording`; a fresh run has neither. Appending one
/// keeps the old runs byte for byte, the file still parses, and the
/// gate still judges `ns_per_step` and `programs_per_sec` against the
/// old runs.
#[test]
fn history_with_recording_fields_takes_a_fresh_run_without_them() {
    let traj = trajectory_of(synthetic_run(1e9, 1e-3, host_cpus(), &RECORDING_FIELDS));
    let (ok, stderr, after) = run_bench("append", &traj, &[]);
    assert!(ok, "appending to an old history must succeed:\n{stderr}");
    let runs = Trajectory::parse(&after)
        .expect("appended file parses")
        .runs;
    assert_eq!(runs.len(), 2);
    let kept = traj
        .strip_suffix("\n  ]\n}\n")
        .expect("rendered trajectory");
    assert!(
        after.starts_with(&format!("{kept},\n")),
        "the old run must re-render byte for byte:\n{after}"
    );
    let e11 = runs[1].json.get("e11").expect("fresh run has e11");
    assert!(e11.get("ns_per_step").is_some(), "{after}");
    for (old, _) in RECORDING_FIELDS {
        assert!(e11.get(old).is_none(), "fresh run must not carry {old}");
    }

    let fast = trajectory_of(synthetic_run(1e-3, 1e12, host_cpus(), &RECORDING_FIELDS));
    let (ok, stderr, _) = run_check("legacy-fail", &fast);
    assert!(!ok, "an old impossible baseline must still gate:\n{stderr}");
    assert!(stderr.contains("trend gate: REGRESSION"), "{stderr}");
}
