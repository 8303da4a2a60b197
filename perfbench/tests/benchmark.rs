//! The benchmark's own checks: its metric list agrees with
//! BENCHMARK.json, every workload emits every metric, a fingerprint
//! mismatch is counted as a failed op, and the commit stamp is read
//! from loose, packed and worktree refs.

use perfbench::check::Fingerprints;
use perfbench::workload::{get, OpSpec, Size, NAMES};
use perfbench::{commit_in, run, Metric, Options, Report, END_TO_END, PER_LAYER};
use rfc_net::json::Json;

fn tiny(workload: &str, trace: bool, fingerprints: Option<Fingerprints>) -> Report {
    run(&Options {
        workload: workload.to_string(),
        seed: 3,
        seconds: 0.0,
        trace,
        size: Size::Tiny,
        fingerprints,
    })
    .expect("tiny workloads set up")
}

fn benchmark_json() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    Json::parse(&text).expect("BENCHMARK.json parses")
}

fn listed(doc: &Json, key: &str) -> Vec<Metric> {
    let field = |m: &Json, k: &str| -> &'static str {
        let s = m
            .get(k)
            .and_then(Json::as_str)
            .expect("metric fields are strings");
        Box::leak(s.to_string().into_boxed_str())
    };
    doc.get(key)
        .and_then(Json::as_arr)
        .expect("metric list")
        .iter()
        .map(|m| Metric {
            name: field(m, "name"),
            unit: field(m, "unit"),
            better: field(m, "better"),
        })
        .collect()
}

#[test]
fn metric_names_are_well_formed_and_match_benchmark_json() {
    let doc = benchmark_json();
    assert_eq!(listed(&doc, "end_to_end"), END_TO_END);
    assert_eq!(listed(&doc, "per_layer"), PER_LAYER);
    let workloads: Vec<&str> = doc
        .get("workloads")
        .and_then(Json::as_arr)
        .expect("workload list")
        .iter()
        .map(|w| w.get("name").and_then(Json::as_str).expect("workload name"))
        .collect();
    assert_eq!(workloads, NAMES);
    let all: Vec<&Metric> = END_TO_END.iter().chain(&PER_LAYER).collect();
    for m in &all {
        assert!(
            !m.name.is_empty()
                && m.name.len() <= 64
                && m.name
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
            "metric name {:?}",
            m.name
        );
        assert!(
            m.unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
            "unit {:?}",
            m.unit
        );
        assert!(m.better == "lower" || m.better == "higher");
    }
    let mut names: Vec<&str> = all.iter().map(|m| m.name).collect();
    names.sort_unstable();
    names.dedup();
    assert_eq!(names.len(), all.len(), "metric names are unique");
}

#[test]
fn every_workload_emits_every_metric_at_tiny_size() {
    for w in NAMES {
        for (trace, expected) in [(false, &END_TO_END[..]), (true, &PER_LAYER[..])] {
            let report = tiny(w, trace, None);
            let got: Vec<Metric> = report.metrics.iter().map(|(m, _)| *m).collect();
            assert_eq!(got, expected, "{w} trace={trace}");
            assert!(report.attempted >= 1, "{w}");
            assert_eq!(report.failed, 0, "{w} trace={trace}");
            for (m, v) in &report.metrics {
                assert!(v.is_finite(), "{w}: {} = {v}", m.name);
            }
            if !trace {
                assert!(
                    report.metrics.iter().all(|(_, v)| *v > 0.0),
                    "{w}: end-to-end metrics are never 0"
                );
            }
            assert_eq!(
                trace,
                !report.spans.is_empty(),
                "{w}: spans only when traced"
            );
        }
    }
}

#[test]
fn injected_fingerprint_mismatch_is_a_failed_op() {
    let clean = tiny("faults", false, None);
    assert_eq!(clean.failed, 0);
    let mut fps = clean.digests.clone();
    let matched = tiny("faults", false, Some(fps.clone()));
    assert_eq!(matched.failed, 0, "recorded digests match themselves");

    let label = "trial/cft(6,3)";
    *fps.get_mut(label).expect("the cft trial is an op") ^= 1;
    let broken = tiny("faults", false, Some(fps.clone()));
    assert_eq!(broken.failed, 1, "exactly the corrupted op fails");
    assert!(broken.result_json().get("correct") == Some(&Json::Bool(false)));

    fps.remove(label);
    let missing = tiny("faults", false, Some(fps));
    assert_eq!(missing.failed, 1, "an op with no fingerprint fails");
}

#[test]
fn commit_stamp_reads_loose_packed_and_worktree_refs() {
    let root = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("commit-stamp");
    let _ = std::fs::remove_dir_all(&root);
    let git = root.join(".git");
    let write = |p: &std::path::Path, s: &str| {
        std::fs::create_dir_all(p.parent().expect("a parent")).expect("mkdir");
        std::fs::write(p, s).expect("write");
    };
    let (loose, packed) = ("1".repeat(40), "2".repeat(40));
    write(&git.join("HEAD"), "ref: refs/heads/main\n");
    write(
        &git.join("packed-refs"),
        &format!("# pack-refs with: peeled\n{packed} refs/heads/main\n"),
    );
    assert_eq!(commit_in(&git), Some(packed.clone()), "packed ref");
    write(&git.join("refs/heads/main"), &format!("{loose}\n"));
    assert_eq!(commit_in(&git), Some(loose.clone()), "a loose ref wins");

    let wt = root.join("wt");
    let wt_git = git.join("worktrees/wt");
    write(&wt.join(".git"), "gitdir: ../.git/worktrees/wt\n");
    write(&wt_git.join("HEAD"), "ref: refs/heads/main\n");
    write(&wt_git.join("commondir"), "../..\n");
    assert_eq!(commit_in(&wt.join(".git")), Some(loose), "worktree");

    write(&git.join("HEAD"), &format!("{packed}\n"));
    assert_eq!(commit_in(&git), Some(packed), "detached head");
    assert_eq!(commit_in(&root.join("absent")), None);
}

#[test]
fn concurrent_rounds_hold_only_simulations() {
    // `cycles_per_s` times a concurrent round by its wall time, which
    // holds only while every op of that round simulates.
    for name in NAMES {
        let w = get(name, Size::Full).expect("a named workload");
        if w.threads > 1 {
            assert!(
                w.ops.iter().all(|op| matches!(op, OpSpec::Sim { .. })),
                "{name}"
            );
        }
    }
}
