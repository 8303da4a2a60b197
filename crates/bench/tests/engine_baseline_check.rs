//! `engine_baseline --check` without `--out` is a read-only gate: it must
//! not write the committed `BENCH_sim.json` (or any other file).

use std::process::Command;

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
