//! Exit codes of the `rfcgen` binary: invalid simulation flags and
//! impossible topology parameters are usage errors (exit 2), never
//! panics (exit 101) or silent no-op runs; a failed operation exits 1.

use std::process::Command;

/// Runs `rfcgen` on a tiny CFT with `extra` flags; returns the exit code
/// and stderr.
fn rfcgen(command: &str, extra: &[&str]) -> (Option<i32>, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_rfcgen"))
        .args([command, "--kind", "cft", "--radix", "4", "--levels", "2"])
        .args(["--cycles", "50", "--warmup", "10"])
        .args(extra)
        .output()
        .expect("rfcgen runs");
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn bad_loads_and_zero_cycles_exit_with_the_usage_code() {
    let cases: [(&str, &[&str]); 10] = [
        ("simulate", &["--cycles", "0"]),
        ("simulate", &["--load", "nan"]),
        ("simulate", &["--load", "-1"]),
        ("simulate", &["--load", "2"]),
        ("simulate", &["--load", "inf"]),
        ("sweep", &["--cycles", "0"]),
        ("sweep", &["--loads", "0.5,nan"]),
        ("sweep", &["--loads", "-0.1"]),
        ("sweep", &["--loads", "0.3,1.5"]),
        ("sweep", &["--loads", "inf"]),
    ];
    for (command, flags) in cases {
        let (code, stderr) = rfcgen(command, flags);
        assert_eq!(code, Some(2), "{command} {flags:?}: {stderr}");
        // The message names the offending flag.
        assert!(
            stderr.contains(&format!("usage error: {}", flags[0])),
            "{command} {flags:?}: {stderr}"
        );
    }
}

#[test]
fn boundary_loads_still_run() {
    for load in ["0", "1"] {
        let (code, stderr) = rfcgen("simulate", &["--load", load]);
        assert_eq!(code, Some(0), "--load {load}: {stderr}");
    }
    let (code, stderr) = rfcgen("sweep", &["--loads", "0,1"]);
    assert_eq!(code, Some(0), "--loads 0,1: {stderr}");
}

#[test]
fn engine_limits_exit_with_the_usage_code() {
    // Flags the engine itself would refuse: a router latency past the
    // event-wheel horizon (also one that would wrap the horizon sum),
    // and a warmup that overflows the cycle count.
    let cases: [(&str, &[&str]); 6] = [
        ("simulate", &["--router-latency", "100000"]),
        ("simulate", &["--router-latency", "18446744073709551615"]),
        ("simulate", &["--warmup", "18446744073709551615"]),
        ("sweep", &["--router-latency", "100000"]),
        ("sweep", &["--router-latency", "18446744073709551615"]),
        ("sweep", &["--warmup", "18446744073709551615"]),
    ];
    for (command, flags) in cases {
        let (code, stderr) = rfcgen(command, flags);
        assert_eq!(code, Some(2), "{command} {flags:?}: {stderr}");
        assert!(
            stderr.contains(&format!("usage error: {}", flags[0])),
            "{command} {flags:?}: {stderr}"
        );
    }
    // The largest latency that fits still runs.
    let (code, stderr) = rfcgen("simulate", &["--router-latency", "46"]);
    assert_eq!(code, Some(0), "--router-latency 46: {stderr}");
}

#[test]
fn repro_rejects_zero_cycles_before_running_anything() {
    let dir = std::env::temp_dir().join(format!("rfcgen-exit-codes-{}", std::process::id()));
    for flags in [["--cycles", "0"], ["--warmup", "18446744073709551615"]] {
        let out = Command::new(env!("CARGO_BIN_EXE_rfcgen"))
            .args(["repro", "--only", "fig8", "--scale", "small"])
            .args(flags)
            .arg("--out-dir")
            .arg(&dir)
            .output()
            .expect("rfcgen runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "repro {flags:?}: {stderr}");
        assert!(
            stderr.contains(&format!("usage error: {}", flags[0])),
            "repro {flags:?}: {stderr}"
        );
    }
    assert!(!dir.exists(), "a rejected repro must write nothing");
}

/// Runs `rfcgen generate` with exactly `args`; returns the exit code
/// and stderr.
fn generate(args: &[&str]) -> (Option<i32>, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_rfcgen"))
        .arg("generate")
        .args(args)
        .output()
        .expect("rfcgen runs");
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn invalid_topology_parameters_exit_with_the_usage_code() {
    // A value that parses but no topology of the kind can have is as
    // much a bad flag as one that does not parse.
    let cases: [&[&str]; 4] = [
        &["--kind", "cft", "--radix", "abc", "--levels", "3"],
        &["--kind", "cft", "--radix", "7", "--levels", "3"],
        &[
            "--kind", "rfc", "--radix", "4", "--leaves", "3", "--levels", "2",
        ],
        &["--kind", "oft", "--order", "6", "--levels", "3"],
    ];
    for args in cases {
        let (code, stderr) = generate(args);
        assert_eq!(code, Some(2), "{args:?}: {stderr}");
        assert!(stderr.contains("usage error: "), "{args:?}: {stderr}");
    }
}

#[test]
fn failed_generation_exits_with_the_operation_code() {
    // Valid flags whose random graph cannot exist (5 switches of odd
    // degree 3): the generator fails, not the command line.
    let (code, stderr) = generate(&[
        "--kind",
        "rrn",
        "--switches",
        "5",
        "--degree",
        "3",
        "--hosts",
        "1",
    ]);
    assert_eq!(code, Some(1), "{stderr}");
    assert!(stderr.contains("stage generation failed"), "{stderr}");
}
