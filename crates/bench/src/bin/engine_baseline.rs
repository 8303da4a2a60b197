//! The tracked engine performance baseline (`BENCH_sim.json`).
//!
//! Runs a fixed, fully deterministic saturation workload per scale and
//! reports the cycle engine's throughput (simulated cycles per wall
//! second), the one-time setup costs (routing-table and ECMP
//! candidate-table build times) and the routing-state footprint. Each
//! scale is measured at several shard counts (`--shards`); sharding is a
//! pure speed knob — results are byte-identical, which this binary
//! asserts on every run. The numbers land in `BENCH_sim.json` at the
//! repo root — the committed perf trajectory every engine PR must move
//! (or at least not regress); see DESIGN.md §10, §13 and §15.
//!
//! Usage:
//!
//! ```text
//! cargo run --release -p rfc-bench --bin engine_baseline            # all scales -> BENCH_sim.json
//! cargo run --release -p rfc-bench --bin engine_baseline -- --scale small
//! cargo run --release -p rfc-bench --bin engine_baseline -- --scale small \
//!     --shards 1,2 --check BENCH_sim.json --out target/BENCH_sim.json
//!                                                                   # CI smoke: >2x regression fails
//!                                                                   # (no --out: --check writes nothing)
//! cargo run --release -p rfc-bench --bin engine_baseline -- --table-only --check BENCH_sim.json
//!                                                                   # build-only: table kind + bytes
//! cargo run --release -p rfc-bench --bin engine_baseline -- --scale medium --repair
//!                                                                   # incremental repair vs rebuild
//! ```
//!
//! The workload itself is scale-keyed (CFT topology, uniform traffic at
//! saturation) and never changes between runs, so cycles/sec numbers
//! are comparable across commits on the same hardware class.
//!
//! This binary is the one reader and writer of the baseline schema
//! (`rfc-net/engine-baseline/v2`), and it goes through
//! [`rfc_net::json::Json`] both ways. Each scale record holds
//! `sharded_cycles_per_sec` (shard count → cycles/sec), the build
//! times, the `table` kind, `routing_bytes_per_terminal` and two
//! fingerprints of the run, `accepted_load` and `delivered_packets`. An
//! existing `"trajectory"` array in the output file is carried over
//! unchanged, so the before/after history survives regeneration.
//!
//! `--check BASELINE` compares every measured scale with the committed
//! record of the same name:
//!
//! * `table` and the fingerprints must match exactly (`accepted_load`
//!   bit for bit), so a change that moves the draws re-baselines on
//!   purpose;
//! * `routing_bytes_per_terminal` may not rise above the committed
//!   value (the routing-memory ratchet, DESIGN.md §15);
//! * each shard count's cycles/sec must stay above half the committed
//!   value. This applies to `small` and `medium` only: `large` (100K+
//!   terminals) is report-only for throughput, because a loaded CI host
//!   would flake the 2x budget.
//!
//! A key the committed record lacks is noted and skipped, so new scales,
//! shard counts and fields can be introduced without a chicken-and-egg
//! problem; a baseline that does not parse fails the run. With
//! `--table-only` the run builds without simulating, so only `table`
//! and `routing_bytes_per_terminal` are checked.

use std::process::ExitCode;

use rfc_net::graph::HeapBytes;
use rfc_net::json::Json;
use rfc_net::routing::UpDownRouting;
use rfc_net::sim::{RunScratch, SimConfig, SimNetwork, Simulation, TrafficPattern};
use rfc_net::topology::FoldedClos;

const USAGE: &str = "usage: engine_baseline [--scale small|medium|large] [--out PATH] \
                     [--check BASELINE] [--threads N] [--shards N,N,...] [--table-only] \
                     [--repair]";

/// One scale's fixed workload definition.
struct Workload {
    name: &'static str,
    /// CFT radix and levels (deterministic topology: no RNG in setup).
    radix: usize,
    levels: usize,
    warmup: u64,
    measure: u64,
    /// Timed engine runs per shard count; the fastest is reported.
    runs: usize,
    /// Shard counts measured by default (overridable with `--shards`).
    shard_counts: &'static [usize],
    /// Whether `--check` gates this scale's throughput.
    gate: bool,
}

const SMALL: Workload = Workload {
    name: "small",
    radix: 8,
    levels: 3,
    warmup: 300,
    measure: 1_000,
    runs: 5,
    shard_counts: &[1, 2],
    gate: true,
};

const MEDIUM: Workload = Workload {
    name: "medium",
    radix: 16,
    levels: 3,
    warmup: 1_000,
    measure: 4_000,
    runs: 3,
    shard_counts: &[1, 4, 8],
    gate: true,
};

/// The "large" scale: cft(36, 4) = 209,952 terminals on 40,824
/// radix-36 switches. The deduplicated candidate table (DESIGN.md §15)
/// keeps even this scale inside the byte budget, so it runs the
/// materialized path like the others. Short window: one cycle here
/// touches ~200x the state of a medium cycle.
const LARGE: Workload = Workload {
    name: "large",
    radix: 36,
    levels: 4,
    warmup: 100,
    measure: 300,
    runs: 1,
    shard_counts: &[1, 4, 8],
    gate: false,
};

/// Fixed seed: the baseline is a benchmark, not an experiment; one
/// representative stream is enough and keeps runs comparable.
const SEED: u64 = 2017;

/// A workload's topology, network, routing and engine configuration:
/// the set-up every mode of this binary starts from.
struct Setup {
    clos: FoldedClos,
    net: SimNetwork,
    routing: UpDownRouting,
    cfg: SimConfig,
    routing_build_ms: f64,
}

// Wall-clock is the entire point of this binary; results never feed
// back into any experiment output.
#[allow(clippy::disallowed_methods)]
fn now() -> std::time::Instant {
    std::time::Instant::now()
}

/// Milliseconds since `t`, rounded to the microsecond.
fn elapsed_ms(t: std::time::Instant) -> f64 {
    (t.elapsed().as_secs_f64() * 1e6).round() / 1e3
}

fn obj(fields: Vec<(&str, Json)>) -> Json {
    Json::Obj(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

fn setup(w: &Workload) -> Setup {
    let clos = match FoldedClos::cft(w.radix, w.levels) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("error: workload topology: {e}");
            std::process::exit(1);
        }
    };
    let net = SimNetwork::from_folded_clos(&clos);
    let t = now();
    let routing = UpDownRouting::new(&clos);
    let routing_build_ms = elapsed_ms(t);
    let mut cfg = SimConfig::paper_defaults();
    cfg.warmup_cycles = w.warmup;
    cfg.measure_cycles = w.measure;
    Setup {
        clos,
        net,
        routing,
        cfg,
        routing_build_ms,
    }
}

impl Setup {
    /// Builds the simulation with its candidate table, prints the
    /// set-up line, and returns the simulation with the set-up fields
    /// of the scale record: sizes, build times, table kind ("deduped"
    /// when the candidate table materialized, "live" when the engine
    /// fell back to per-request oracle queries) and the logical bytes of
    /// routing state (reach sets + CSR adjacency + candidate table) per
    /// terminal, rounded up.
    fn simulation(&self, name: &str) -> (Simulation<'_, UpDownRouting>, Vec<(&'static str, Json)>) {
        let t = now();
        let sim = Simulation::new(&self.net, &self.routing, self.cfg);
        let table_build_ms = elapsed_ms(t);
        let table_bytes = sim.candidate_table_bytes();
        let table = if table_bytes.is_some() {
            "deduped"
        } else {
            "live"
        };
        let terminals = self.net.num_terminals();
        let bytes_per_terminal =
            (self.routing.heap_bytes() + table_bytes.unwrap_or(0)).div_ceil(terminals.max(1));
        eprintln!(
            "# {name}: {terminals} terminals, {table} table, {bytes_per_terminal} routing \
             bytes/terminal (routing build {:.1} ms, table build {table_build_ms:.1} ms)",
            self.routing_build_ms,
        );
        let fields = vec![
            ("topology", Json::Str("cft".to_string())),
            ("terminals", Json::Uint(terminals as u64)),
            ("switches", Json::Uint(self.net.num_switches() as u64)),
            ("routing_build_ms", Json::Num(self.routing_build_ms)),
            ("table_build_ms", Json::Num(table_build_ms)),
            ("table", Json::Str(table.to_string())),
            (
                "routing_bytes_per_terminal",
                Json::Uint(bytes_per_terminal as u64),
            ),
        ];
        (sim, fields)
    }
}

/// Times single-event incremental routing repair (topology overlay +
/// [`UpDownRouting::apply_event`] + candidate-table patch) against a
/// from-scratch rebuild on the same faulted topology (DESIGN.md §16).
/// `--repair` uses it; the measured ratio is the Figure 11 driver's
/// speed lever, so a collapse here is a perf regression even while all
/// byte-identity tests stay green.
fn repair_report(w: &Workload) {
    let s = setup(w);
    let trials = 12.min(s.clos.links().len());
    let b = rfc_net::sim::churn::repair_speedup(&s.clos, s.cfg, trials, SEED);
    eprintln!(
        "# {}: {} single-link events: incremental repair {:.2} ms/event vs \
         full rebuild {:.2} ms/event — {:.1}x speedup",
        w.name,
        b.events,
        b.incremental.as_secs_f64() * 1e3 / b.events.max(1) as f64,
        b.full_rebuild.as_secs_f64() * 1e3 / b.events.max(1) as f64,
        b.speedup(),
    );
}

/// Builds and runs one scale at each shard count and returns its
/// record.
fn measure(w: &Workload, shard_counts: &[usize]) -> Json {
    let s = setup(w);
    let (sim, mut fields) = s.simulation(w.name);
    let cycles = s.cfg.total_cycles();
    let mut scratch = RunScratch::new();
    let mut sharded = Vec::new();
    let mut fingerprint: Option<(f64, u64)> = None;
    for &shards in shard_counts {
        let mut best = f64::INFINITY;
        for _ in 0..w.runs {
            let t = now();
            let r =
                sim.run_sharded_scratch(TrafficPattern::Uniform, 1.0, SEED, shards, &mut scratch);
            best = best.min(t.elapsed().as_secs_f64());
            // The sharding contract, enforced on every benchmark run:
            // the shard count must not move the physics.
            let got = (r.accepted_load, r.delivered_packets);
            let want = *fingerprint.get_or_insert(got);
            assert!(
                want.0.to_bits() == got.0.to_bits() && want.1 == got.1,
                "{}: the run moved with the shard count: {want:?} vs {got:?} at {shards} shards",
                w.name,
            );
        }
        let cps = cycles as f64 / best;
        eprintln!(
            "# {}: {shards} shard{}: {cps:.0} cycles/sec",
            w.name,
            if shards == 1 { "" } else { "s" }
        );
        sharded.push((shards.to_string(), Json::Num(cps.round())));
    }
    let (accepted, delivered) = fingerprint.unwrap_or((f64::NAN, 0));
    eprintln!(
        "# {}: {cycles} cycles, accepted load {accepted:.3}, {delivered} packets delivered",
        w.name
    );
    fields.extend([
        ("cycles", Json::Uint(cycles)),
        ("offered_load", Json::Num(1.0)),
        ("sharded_cycles_per_sec", Json::Obj(sharded)),
        ("accepted_load", Json::Num(accepted)),
        ("delivered_packets", Json::Uint(delivered)),
    ]);
    obj(fields)
}

/// Exact equality; numbers compare bit for bit, whichever variant they
/// parsed as.
fn same(a: &Json, b: &Json) -> bool {
    match (a.as_num(), b.as_num()) {
        (Some(x), Some(y)) => x.to_bits() == y.to_bits(),
        _ => a == b,
    }
}

/// Compares one measured scale record with the committed one and
/// returns the failures. Only keys the measurement has are compared; a
/// key the committed record lacks is noted and skipped. Throughput is
/// compared only when `gate` is set.
fn check_scale(name: &str, measured: &Json, committed: &Json, gate: bool) -> Vec<String> {
    let pair = |key: &str| {
        let have = measured.get(key)?;
        match committed.get(key) {
            Some(want) => Some((have, want)),
            None => {
                eprintln!("# {name}: the baseline has no `{key}`; not checked");
                None
            }
        }
    };
    let mut failures = Vec::new();
    for key in ["table", "accepted_load", "delivered_packets"] {
        if let Some((have, want)) = pair(key) {
            if !same(have, want) {
                failures.push(format!(
                    "{name}: {key} is {} but the baseline has {}; a change that moves it must \
                     re-baseline on purpose",
                    have.render(),
                    want.render()
                ));
            }
        }
    }
    if let Some((have, want)) = pair("routing_bytes_per_terminal") {
        match (have.as_num(), want.as_num()) {
            (Some(h), Some(w)) if h > w => failures.push(format!(
                "{name}: routing_bytes_per_terminal rose to {h} (baseline {w}); the \
                 routing-memory ratchet only turns downward — shrink the reach sets or \
                 candidate table, or justify the growth and re-baseline"
            )),
            (Some(h), Some(w)) if h < w => eprintln!(
                "# {name}: routing_bytes_per_terminal is {h}, below the baseline {w}; \
                 re-baseline to tighten"
            ),
            (Some(_), Some(_)) => {}
            _ => failures.push(format!(
                "{name}: routing_bytes_per_terminal baseline {} is not a number",
                want.render()
            )),
        }
    }
    let Some(Json::Obj(sharded)) = measured.get("sharded_cycles_per_sec") else {
        return failures;
    };
    if !gate {
        eprintln!("# {name}: report-only scale, throughput not checked");
        return failures;
    }
    for (shards, cps) in sharded {
        let committed_cps = committed
            .get("sharded_cycles_per_sec")
            .and_then(|m| m.get(shards))
            .and_then(Json::as_num);
        let (Some(cps), Some(committed_cps)) = (cps.as_num(), committed_cps) else {
            eprintln!(
                "# {name} has no committed number for {shards} shard(s); gate skipped for \
                 this count"
            );
            continue;
        };
        let floor = committed_cps / 2.0;
        if cps < floor {
            failures.push(format!(
                "{name} at {shards} shard(s): {cps:.0} cycles/sec is a >2x regression vs the \
                 committed {committed_cps:.0} (floor {floor:.0})"
            ));
        } else {
            eprintln!(
                "# {name} at {shards} shard(s) within budget: {cps:.0} vs committed \
                 {committed_cps:.0} (floor {floor:.0})"
            );
        }
    }
    failures
}

fn read_baseline(path: &str) -> Result<Json, String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("cannot read baseline {path}: {e}"))?;
    Json::parse(&text).map_err(|e| format!("baseline {path} is not JSON: {e}"))
}

fn repo_root() -> std::path::PathBuf {
    // crates/bench -> crates -> repo root.
    let manifest = std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    match manifest.parent().and_then(std::path::Path::parent) {
        Some(root) => root.to_path_buf(),
        None => {
            eprintln!("error: cannot locate the repo root above crates/bench");
            std::process::exit(1);
        }
    }
}

fn usage_error(message: &str) -> ExitCode {
    eprintln!("error: {message}\n{USAGE}");
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut scale: Option<String> = None;
    let mut out: Option<String> = None;
    let mut check: Option<String> = None;
    let mut shards_override: Option<Vec<usize>> = None;
    let mut table_only = false;
    let mut repair = false;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |name: &str| match it.next() {
            Some(v) => v.clone(),
            None => {
                eprintln!("error: {name} needs a value");
                std::process::exit(2);
            }
        };
        match arg.as_str() {
            "--scale" => scale = Some(value("--scale")),
            "--out" => out = Some(value("--out")),
            "--check" => check = Some(value("--check")),
            "--threads" => {
                let n = value("--threads");
                match n.trim().parse::<usize>() {
                    Ok(t) if t >= 1 => rfc_net::parallel::set_threads(Some(t)),
                    _ => return usage_error(&format!("--threads wants a count >= 1, got `{n}`")),
                }
            }
            "--shards" => {
                let list = value("--shards");
                let parsed: Result<Vec<usize>, _> =
                    list.split(',').map(|s| s.trim().parse()).collect();
                match parsed {
                    Ok(v) if !v.is_empty() && v.iter().all(|&s| s >= 1) => {
                        shards_override = Some(v);
                    }
                    _ => {
                        return usage_error(&format!(
                            "--shards wants a comma list of counts >= 1, got `{list}`"
                        ))
                    }
                }
            }
            "--table-only" => table_only = true,
            "--repair" => repair = true,
            other => return usage_error(&format!("unknown argument `{other}`")),
        }
    }

    let workloads: Vec<&Workload> = match scale.as_deref() {
        None => vec![&SMALL, &MEDIUM, &LARGE],
        Some("small") => vec![&SMALL],
        Some("medium") => vec![&MEDIUM],
        Some("large") => vec![&LARGE],
        Some(other) => return usage_error(&format!("unknown scale `{other}`")),
    };

    if repair {
        for w in &workloads {
            repair_report(w);
        }
        return ExitCode::SUCCESS;
    }

    let baseline = match check.as_deref().map(read_baseline).transpose() {
        Ok(b) => b,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut failures = Vec::new();
    let mut scales = Vec::new();
    for w in &workloads {
        let record = if table_only {
            obj(setup(w).simulation(w.name).1)
        } else {
            measure(w, shards_override.as_deref().unwrap_or(w.shard_counts))
        };
        if let Some(baseline) = &baseline {
            match baseline.get("scales").and_then(|s| s.get(w.name)) {
                Some(committed) => {
                    failures.extend(check_scale(w.name, &record, committed, w.gate));
                }
                None => eprintln!("# {}: the baseline has no record; not checked", w.name),
            }
        }
        scales.push((w.name.to_string(), record));
    }
    for f in &failures {
        eprintln!("error: {f}");
    }
    let status = if failures.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    };
    if table_only {
        return status;
    }

    // A gate run only reads the baseline: without `--out` it writes
    // nothing, so it can never overwrite the committed file.
    let out_path = match (out, &check) {
        (Some(path), _) => std::path::PathBuf::from(path),
        (None, Some(_)) => return status,
        (None, None) => repo_root().join("BENCH_sim.json"),
    };
    let trajectory = std::fs::read_to_string(&out_path)
        .ok()
        .and_then(|text| Json::parse(&text).ok())
        .and_then(|previous| previous.get("trajectory").cloned())
        .unwrap_or(Json::Arr(Vec::new()));
    let host_cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let record = obj(vec![
        (
            "schema",
            Json::Str("rfc-net/engine-baseline/v2".to_string()),
        ),
        ("seed", Json::Uint(SEED)),
        (
            "threads",
            Json::Uint(rfc_net::parallel::current_threads() as u64),
        ),
        ("host_cores", Json::Uint(host_cores as u64)),
        ("scales", Json::Obj(scales)),
        ("trajectory", trajectory),
    ]);
    if let Err(e) = std::fs::write(&out_path, record.render() + "\n") {
        eprintln!("error: cannot write {}: {e}", out_path.display());
        return ExitCode::FAILURE;
    }
    eprintln!("# wrote {}", out_path.display());
    status
}
