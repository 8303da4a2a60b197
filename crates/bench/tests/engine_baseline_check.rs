//! `engine_baseline --check` is a read-only gate over the committed
//! `BENCH_sim.json`: it must not write any file, it must fail on a
//! baseline it cannot parse, and it compares each scale only with that
//! scale's own record — throughput, the routing-memory ratchet and the
//! exact run fingerprints.

use std::path::PathBuf;
use std::process::{Command, Output};

use rfc_net::json::Json;

fn committed_path() -> PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_sim.json")
}

/// The committed baseline, parsed.
fn committed() -> Json {
    let text = std::fs::read_to_string(committed_path()).expect("the committed baseline exists");
    Json::parse(&text).expect("the committed baseline is JSON")
}

/// A fresh scratch directory for one test.
fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("engine-baseline-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn engine_baseline(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_engine_baseline"))
        .args(args)
        .output()
        .expect("engine_baseline runs")
}

/// Runs `engine_baseline ARGS --check FILE` with `baseline` written to
/// FILE, and returns the output.
fn check_against(tag: &str, baseline: &str, args: &[&str]) -> Output {
    let dir = scratch(tag);
    let path = dir.join("baseline.json");
    std::fs::write(&path, baseline).unwrap();
    let mut all = args.to_vec();
    all.extend(["--check", path.to_str().unwrap()]);
    let out = engine_baseline(&all);
    std::fs::remove_dir_all(&dir).unwrap();
    out
}

/// A baseline holding only `small: { key: value }`.
fn small_only(key: &str, value: Json) -> String {
    Json::Obj(vec![(
        "scales".into(),
        Json::Obj(vec![("small".into(), Json::Obj(vec![(key.into(), value)]))]),
    )])
    .render()
}

fn committed_small(key: &str) -> Json {
    committed()
        .get("scales")
        .and_then(|s| s.get("small"))
        .and_then(|s| s.get(key))
        .cloned()
        .unwrap_or_else(|| panic!("BENCH_sim.json has no scales.small.{key}"))
}

#[test]
fn check_without_out_writes_nothing() {
    let committed = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_sim.json");
    let before = std::fs::read(&committed).expect("the committed baseline exists");
    // A baseline with no numbers skips the gate for every shard count,
    // so the run passes on any build profile and host speed.
    let dir = std::env::temp_dir().join(format!("engine-baseline-check-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let baseline = dir.join("baseline.json");
    std::fs::write(&baseline, "{}\n").unwrap();

    let out = Command::new(env!("CARGO_BIN_EXE_engine_baseline"))
        .args(["--scale", "small", "--shards", "1", "--check"])
        .arg(&baseline)
        .output()
        .expect("engine_baseline runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    let after = std::fs::read(&committed).expect("the committed baseline still exists");
    if after != before {
        // Put the committed file back before failing.
        std::fs::write(&committed, &before).unwrap();
    }
    let baseline_after = std::fs::read_to_string(&baseline).unwrap();
    std::fs::remove_dir_all(&dir).unwrap();

    assert!(out.status.success(), "engine_baseline failed: {stderr}");
    assert!(
        after == before,
        "--check overwrote BENCH_sim.json: {stderr}"
    );
    assert_eq!(baseline_after, "{}\n", "--check rewrote its baseline");
    assert!(
        !stderr.contains("# wrote"),
        "--check wrote a file: {stderr}"
    );
}

#[test]
fn check_fails_on_a_baseline_that_is_not_json() {
    let out = check_against(
        "not-json",
        "[package]\nname = \"x\"\n",
        &["--scale", "small", "--shards", "1"],
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(stderr.contains("not JSON"), "{stderr}");
}

#[test]
fn check_reads_only_the_scale_it_measures() {
    // Medium's throughput is far out of reach; small has no record of
    // its own, so every small comparison is skipped and the run passes.
    let baseline =
        r#"{"scales": {"small": {}, "medium": {"sharded_cycles_per_sec": {"1": 1000000000000}}}}"#;
    let out = check_against(
        "cross-scale",
        baseline,
        &["--scale", "small", "--shards", "1"],
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        out.status.success(),
        "small was checked against medium: {stderr}"
    );
}

#[test]
fn table_only_check_ratchets_routing_bytes() {
    let committed = committed_small("routing_bytes_per_terminal")
        .as_uint()
        .expect("routing_bytes_per_terminal is an integer");
    let args = ["--scale", "small", "--table-only"];
    let at = check_against(
        "bytes-at",
        &small_only("routing_bytes_per_terminal", Json::Uint(committed)),
        &args,
    );
    assert!(
        at.status.success(),
        "the committed routing bytes must pass: {}",
        String::from_utf8_lossy(&at.stderr)
    );
    let below = check_against(
        "bytes-below",
        &small_only("routing_bytes_per_terminal", Json::Uint(committed - 1)),
        &args,
    );
    let stderr = String::from_utf8_lossy(&below.stderr);
    assert_eq!(below.status.code(), Some(1), "{stderr}");
    assert!(
        stderr.contains("error: small: routing_bytes_per_terminal rose"),
        "{stderr}"
    );
}

#[test]
fn check_treats_accepted_load_as_an_exact_fingerprint() {
    let committed = committed_small("accepted_load")
        .as_num()
        .expect("accepted_load is a number");
    let args = ["--scale", "small", "--shards", "1"];
    let exact = check_against(
        "load-exact",
        &small_only("accepted_load", Json::Num(committed)),
        &args,
    );
    assert!(
        exact.status.success(),
        "the committed accepted_load must match: {}",
        String::from_utf8_lossy(&exact.stderr)
    );
    let nudged = f64::from_bits(committed.to_bits() + 1);
    let off = check_against(
        "load-off",
        &small_only("accepted_load", Json::Num(nudged)),
        &args,
    );
    let stderr = String::from_utf8_lossy(&off.stderr);
    assert_eq!(off.status.code(), Some(1), "{stderr}");
    assert!(stderr.contains("error: small: accepted_load"), "{stderr}");
}

#[test]
fn out_keeps_the_trajectory_and_writes_json() {
    let dir = scratch("out");
    let path = dir.join("baseline.json");
    let trajectory = Json::Arr(vec![
        Json::Obj(vec![
            ("label".into(), Json::Str("a ] inside a label".into())),
            ("small_cycles_per_sec".into(), Json::Uint(1)),
        ]),
        Json::Obj(vec![("label".into(), Json::Str("second".into()))]),
    ]);
    let previous = Json::Obj(vec![("trajectory".into(), trajectory.clone())]);
    std::fs::write(&path, previous.render()).unwrap();
    let out = engine_baseline(&[
        "--scale",
        "small",
        "--shards",
        "1",
        "--out",
        path.to_str().unwrap(),
    ]);
    let written = std::fs::read_to_string(&path).unwrap();
    std::fs::remove_dir_all(&dir).unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let written = Json::parse(&written).expect("--out writes JSON");
    assert_eq!(written.get("trajectory"), Some(&trajectory));
    let small = written.get("scales").and_then(|s| s.get("small"));
    assert!(small.and_then(|s| s.get("accepted_load")).is_some());
}

#[test]
fn threads_must_be_a_positive_integer() {
    // Should a bad value be accepted, the other flags keep the run
    // short and write nothing.
    for bad in ["abc", "0"] {
        let out = check_against(
            "threads",
            "{}",
            &["--threads", bad, "--scale", "small", "--shards", "1"],
        );
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "--threads {bad}: {stderr}");
        assert!(stderr.contains("usage:"), "{stderr}");
    }
}
