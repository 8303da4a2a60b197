//! The repository benchmark: one workload, one seed, one process.
//!
//! Set-up (topology, up/down check, routing, candidate table) is
//! repeated and timed; then rounds of the workload's ops run for the
//! requested seconds. Every number is host time taken around calls
//! into the `rfc_net` facade; simulated statistics are only checked,
//! never reported as speed. A traced run records spans around those
//! calls and adds probes inside single layers (see [`layers`]); it
//! reports the per-layer metrics instead of the end-to-end ones.

#![forbid(unsafe_code)]
// Reading the host clock is what this crate is for; no reading feeds
// a simulated result.
#![allow(clippy::disallowed_methods)]

pub mod check;
pub mod layers;
pub mod trace;
pub mod workload;

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use rfc_net::graph::HeapBytes;
use rfc_net::json::Json;
use rfc_net::parallel;
use rfc_net::routing::UpDownRouting;
use rfc_net::sim::{RunScratch, Simulation};

use check::Fingerprints;
use trace::{Span, Tracer};
use workload::{Ctx, Net, OpSpec, Outcome, Size, Workload};

/// Worker threads, and shards per run, never exceed this.
pub const THREADS: usize = 2;

/// Set-up repeats at least this often in an untraced run…
const MIN_SETUPS: usize = 3;
/// …and keeps repeating until it has taken this long in total…
const SETUP_SECONDS: f64 = 1.0;
/// …or has run this often.
const MAX_SETUPS: usize = 25;

/// A reported metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Metric {
    /// Name, as in BENCHMARK.json.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
}

const fn m(name: &'static str, unit: &'static str, better: &'static str) -> Metric {
    Metric { name, unit, better }
}

/// The metrics of an untraced run.
pub const END_TO_END: [Metric; 4] = [
    m("setup_s", "s", "lower"),
    m("cycles_per_s", "c/s", "higher"),
    m("ops_per_s", "1/s", "higher"),
    m("peak_rss_mib", "MiB", "lower"),
];

/// The metrics of a traced run.
pub const PER_LAYER: [Metric; 30] = [
    m("topology.generate_ms", "ms", "lower"),
    m("topology.draws", "count", "lower"),
    m("topology.live_apply_us", "us", "lower"),
    m("topology.self_ms", "ms", "lower"),
    m("routing.build_ms", "ms", "lower"),
    m("routing.bytes_per_terminal", "B", "lower"),
    m("routing.updown_check_ms", "ms", "lower"),
    m("routing.repair_us_p50", "us", "lower"),
    m("routing.repair_us_p99", "us", "lower"),
    m("routing.repair_changed", "count", "lower"),
    m("routing.repair_dst_delta", "count", "lower"),
    m("routing.repair_recomputed", "count", "lower"),
    m("routing.trial_events", "count", "lower"),
    m("routing.tolerance_trial_s", "s", "lower"),
    m("routing.oracle_queries_per_cycle", "1/c", "lower"),
    m("routing.self_ms", "ms", "lower"),
    m("sim.table_build_ms", "ms", "lower"),
    m("sim.table_bytes", "B", "lower"),
    m("sim.table_live", "count", "lower"),
    m("sim.run_ms", "ms", "lower"),
    m("sim.ns_per_pkt", "ns", "lower"),
    m("sim.churn_ms_per_event", "ms", "lower"),
    m("sim.events_applied", "count", "higher"),
    m("sim.self_ms", "ms", "lower"),
    m("parallel.sweep_busy_share", "share", "higher"),
    m("parallel.shard_speedup", "x", "higher"),
    m("parallel.self_ms", "ms", "lower"),
    m("bench.self_ms", "ms", "lower"),
    m("trace.overhead_pct", "%", "lower"),
    m("trace.spans", "count", "lower"),
];

/// What to run.
#[derive(Debug, Clone)]
pub struct Options {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Length of the measured window.
    pub seconds: f64,
    /// Traced run: per-layer metrics and spans.
    pub trace: bool,
    /// Workload size.
    pub size: Size,
    /// Digests every op must match; `None` checks only that repeats
    /// agree.
    pub fingerprints: Option<Fingerprints>,
}

/// What a run measured.
#[derive(Debug, Clone)]
pub struct Report {
    /// Ops attempted (simulation runs and trials, probes included).
    pub attempted: u64,
    /// Ops that panicked or failed a check.
    pub failed: u64,
    /// `END_TO_END` untraced, `PER_LAYER` traced, in that order.
    pub metrics: Vec<(Metric, f64)>,
    /// Host, seed and commit.
    pub facts: Json,
    /// Recorded spans (empty untraced).
    pub spans: Vec<Span>,
    /// First digest of every op label, for `--record-fingerprints`.
    pub digests: Fingerprints,
}

impl Report {
    /// The last line the benchmark prints.
    pub fn result_json(&self) -> Json {
        let metrics = self
            .metrics
            .iter()
            .map(|(m, v)| {
                let obj = vec![
                    ("value".to_string(), Json::Num(*v)),
                    ("unit".to_string(), Json::Str(m.unit.into())),
                ];
                (m.name.to_string(), Json::Obj(obj))
            })
            .collect();
        Json::Obj(vec![
            ("correct".into(), Json::Bool(self.failed == 0)),
            ("attempted".into(), Json::Uint(self.attempted)),
            ("failed".into(), Json::Uint(self.failed)),
            ("metrics".into(), Json::Obj(metrics)),
        ])
    }
}

/// `value` rendered on one line (the codec pretty-prints; strings
/// escape their newlines, so dropping the layout keeps it valid).
pub fn one_line(value: &Json) -> String {
    value
        .render()
        .lines()
        .map(str::trim_start)
        .collect::<Vec<_>>()
        .join("")
}

/// Runs one workload.
///
/// # Errors
///
/// An unknown workload or a set-up failure; failed ops are counted in
/// the report instead.
pub fn run(opts: &Options) -> Result<Report, String> {
    let w = workload::get(&opts.workload, opts.size)
        .ok_or_else(|| format!("unknown workload {:?}", opts.workload))?;
    parallel::set_threads(Some(THREADS));
    let tr = Tracer::new(opts.trace);
    let mut setup_s = Vec::new();
    loop {
        let t = Instant::now();
        let open = tr.open("bench.setup", None, setup_s.len() as u64);
        let setup_id = open.id;
        let nets = workload::build_nets(&w, opts.seed, &tr, setup_id)?;
        let sims = workload::build_sims(&w, &nets, &tr, setup_id);
        tr.close(open);
        setup_s.push(t.elapsed().as_secs_f64());
        let total: f64 = setup_s.iter().sum();
        let enough =
            setup_s.len() >= MAX_SETUPS || (setup_s.len() >= MIN_SETUPS && total >= SETUP_SECONDS);
        if opts.trace || enough {
            let bench = Bench {
                w: &w,
                opts,
                tr: &tr,
                nets: &nets,
                sims: &sims,
                setup_id,
            };
            return bench.measure(&setup_s);
        }
    }
}

struct Bench<'a> {
    w: &'a Workload,
    opts: &'a Options,
    tr: &'a Tracer,
    nets: &'a [Net],
    sims: &'a [Option<Simulation<'a, UpDownRouting>>],
    setup_id: Option<u64>,
}

/// One op's host time and result.
struct OpRun {
    i: usize,
    secs: f64,
    outcome: Result<Outcome, String>,
}

struct Round {
    wall_s: f64,
    traced: bool,
    ops: Vec<OpRun>,
}

/// Failure accounting.
struct Acc {
    attempted: u64,
    failed: u64,
    first: Fingerprints,
    expected: Option<Fingerprints>,
}

impl Acc {
    /// Counts one op; it fails on an error, on a digest that differs
    /// from the label's first one, or — the first time — on a digest
    /// that differs from its fingerprint.
    fn check(&mut self, label: &str, got: Result<u64, String>) {
        self.attempted += 1;
        let problem = match got {
            Err(e) => Some(e),
            Ok(d) => match self.first.get(label) {
                Some(&f) if f != d => Some(format!("digest {d:016x}, first run {f:016x}")),
                Some(_) => None,
                None => {
                    self.first.insert(label.to_string(), d);
                    match self.expected.as_ref().map(|e| e.get(label)) {
                        Some(None) => Some("no fingerprint recorded".to_string()),
                        Some(Some(&e)) if e != d => {
                            Some(format!("digest {d:016x}, fingerprint {e:016x}"))
                        }
                        _ => None,
                    }
                }
            },
        };
        if let Some(p) = problem {
            self.failed += 1;
            eprintln!("op failed: {label}: {p}");
        }
    }
}

fn panic_message(p: Box<dyn std::any::Any + Send>) -> String {
    let msg = p
        .downcast_ref::<&str>()
        .map(|s| (*s).to_string())
        .or_else(|| p.downcast_ref::<String>().cloned())
        .unwrap_or_default();
    format!("panicked: {msg}")
}

fn catch<T>(f: impl FnOnce() -> T) -> Result<T, String> {
    catch_unwind(AssertUnwindSafe(f)).map_err(panic_message)
}

fn median(xs: &[f64]) -> f64 {
    percentile(xs, 0.5)
}

/// Nearest-rank percentile; 0 for no samples.
fn percentile(xs: &[f64], p: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (p * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

fn mean(xs: &[usize]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.iter().sum::<usize>() as f64 / xs.len() as f64
}

impl Bench<'_> {
    fn measure(&self, setup_s: &[f64]) -> Result<Report, String> {
        let (w, opts, tr) = (self.w, self.opts, self.tr);
        // Churn schedules are inputs, generated outside the timed set-up.
        let schedules = workload::schedules(w, self.nets, opts.seed)?;
        let ctx = Ctx {
            w,
            nets: self.nets,
            sims: self.sims,
            schedules: &schedules,
            seed: opts.seed,
        };
        let mut acc = Acc {
            attempted: 0,
            failed: 0,
            first: Fingerprints::new(),
            expected: opts.fingerprints.clone(),
        };
        let probe_label = w.probe_label();

        // The probe warms the table and caches before the window and is
        // the plain run that churn controls and traced variants equal.
        let probe = tr.span("bench.probe", None, 0, |id| {
            tr.span("sim.run", id, 0, |_| catch(|| ctx.run_probe(w.shards)))
        });
        acc.check(
            &probe_label,
            probe.as_ref().map(check::sim_digest).map_err(Clone::clone),
        );
        let probe = probe.ok();

        let window = Instant::now();
        let mut rounds: Vec<Round> = Vec::new();
        let min_rounds = if opts.trace { 2 } else { 1 };
        // The window ends at the round boundary nearest `opts.seconds`:
        // another round starts only if at least half of a typical round
        // would fall inside it.
        let more = |rounds: &[Round]| {
            let walls: Vec<f64> = rounds.iter().map(|r| r.wall_s).collect();
            window.elapsed().as_secs_f64() + median(&walls) / 2.0 < opts.seconds
        };
        while rounds.len() < min_rounds || more(&rounds) {
            // Traced runs alternate traced and untraced rounds; the
            // difference between them is the tracing overhead.
            let traced = opts.trace && rounds.len().is_multiple_of(2);
            tr.set_enabled(traced);
            let round = self.round(&ctx, rounds.len());
            for op in &round.ops {
                let got = match &op.outcome {
                    Err(e) => Err(e.clone()),
                    Ok(Outcome::Churn(c))
                        if matches!(w.ops[op.i], OpSpec::Churn { control: true, .. })
                            && probe.as_ref() != Some(&c.result) =>
                    {
                        Err("churn control differs from the plain run".to_string())
                    }
                    Ok(o) => Ok(o.digest()),
                };
                acc.check(&w.label(&w.ops[op.i]), got);
            }
            let secs: Vec<String> = round
                .ops
                .iter()
                .map(|op| format!("{:.3}", op.secs))
                .collect();
            eprintln!(
                "round {}: {:.3} s [{}]",
                rounds.len(),
                round.wall_s,
                secs.join(" ")
            );
            rounds.push(round);
        }
        tr.set_enabled(opts.trace);

        let metrics = if opts.trace {
            self.per_layer(&ctx, &rounds, &mut acc, &probe_label)
        } else {
            self.end_to_end(&ctx, setup_s, &rounds)?
        };
        Ok(Report {
            attempted: acc.attempted,
            failed: acc.failed,
            metrics,
            facts: self.facts(),
            spans: tr.spans(),
            digests: acc.first,
        })
    }

    /// Runs every op once. Each worker of a round gets fresh engine
    /// buffers, as one sweep call does, so their allocation and first
    /// touch land in the op that first uses them on every workload.
    fn round(&self, ctx: &Ctx<'_>, r: usize) -> Round {
        let (w, tr) = (self.w, self.tr);
        let timed = |i: usize, scratch: &mut RunScratch, parent: Option<u64>| {
            let name = match w.ops[i] {
                OpSpec::Sim { .. } => "sim.run",
                OpSpec::Trial { .. } => "routing.tolerance_trial",
                OpSpec::Churn { .. } => "sim.churn",
            };
            let t = Instant::now();
            let outcome =
                catch(|| tr.span(name, parent, i as u64, |_| ctx.run_op(i, w.shards, scratch)));
            OpRun {
                i,
                secs: t.elapsed().as_secs_f64(),
                outcome,
            }
        };
        let traced = tr.enabled();
        let t = Instant::now();
        let open = tr.open("bench.round", None, r as u64);
        let ops = if w.threads > 1 {
            tr.span("parallel.sweep", open.id, r as u64, |id| {
                parallel::map_init((0..w.ops.len()).collect(), RunScratch::new, |s, i| {
                    timed(i, s, id)
                })
            })
        } else {
            let mut scratch = RunScratch::new();
            (0..w.ops.len())
                .map(|i| timed(i, &mut scratch, open.id))
                .collect()
        };
        tr.close(open);
        Round {
            wall_s: t.elapsed().as_secs_f64(),
            traced,
            ops,
        }
    }

    /// Simulated cycles per host second of a round's simulation ops.
    /// Concurrent ops are all simulations (`fig10-sweep`), timed by the
    /// round's wall time, so idle workers and load imbalance count;
    /// serial ops are timed by the sum of their own times, which leaves
    /// trials out.
    fn cycles_rate(&self, ctx: &Ctx<'_>, round: &Round) -> f64 {
        let sim_ops = || round.ops.iter().filter(|op| ctx.cycles(op.i) > 0);
        let cycles: u64 = sim_ops().map(|op| ctx.cycles(op.i)).sum();
        let secs = if self.w.threads > 1 {
            round.wall_s
        } else {
            sim_ops().map(|op| op.secs).sum()
        };
        cycles as f64 / secs
    }

    fn ops_rate(round: &Round) -> f64 {
        round.ops.len() as f64 / round.wall_s
    }

    fn end_to_end(
        &self,
        ctx: &Ctx<'_>,
        setup_s: &[f64],
        rounds: &[Round],
    ) -> Result<Vec<(Metric, f64)>, String> {
        let cycles: Vec<f64> = rounds.iter().map(|r| self.cycles_rate(ctx, r)).collect();
        let ops: Vec<f64> = rounds.iter().map(Self::ops_rate).collect();
        let values = [
            median(setup_s),
            median(&cycles),
            median(&ops),
            peak_rss_mib()?,
        ];
        Ok(END_TO_END.into_iter().zip(values).collect())
    }

    fn per_layer(
        &self,
        ctx: &Ctx<'_>,
        rounds: &[Round],
        acc: &mut Acc,
        probe_label: &str,
    ) -> Vec<(Metric, f64)> {
        let (w, tr, seed) = (self.w, self.tr, self.opts.seed);
        let mut v: BTreeMap<&'static str, f64> = BTreeMap::new();
        let (pnet, pattern, load) = w.probe;
        let probe_seed = w.probe_seed(seed);

        // 1- against multi-shard run of the probe; both must equal it.
        let timed_probe = |shards: usize, acc: &mut Acc| {
            let t = Instant::now();
            let r = tr.span("bench.probe", None, shards as u64, |id| {
                tr.span("sim.run", id, 0, |_| catch(|| ctx.run_probe(shards)))
            });
            let secs = t.elapsed().as_secs_f64();
            acc.check(probe_label, r.map(|r| check::sim_digest(&r)));
            secs
        };
        let one = timed_probe(1, acc);
        let many = timed_probe(THREADS, acc);
        v.insert("parallel.shard_speedup", one / many);

        // The probe again through an oracle that counts live queries.
        let (routing, sim_net) = self.nets[pnet]
            .routed
            .as_ref()
            .expect("the probe runs on a simulated net");
        let counting = layers::CountingOracle::new(routing);
        let counted = tr.span("bench.oracle", None, 0, |id| {
            let sim = tr.span("sim.table_build", id, 0, |_| {
                workload::new_sim(w, sim_net, &counting)
            });
            tr.span("sim.run", id, 0, |_| {
                catch(|| sim.run_sharded(pattern, load, probe_seed, w.shards))
            })
        });
        acc.check(probe_label, counted.map(|r| check::sim_digest(&r)));
        v.insert(
            "routing.oracle_queries_per_cycle",
            counting.queries() as f64 / w.config.total_cycles() as f64,
        );

        // One tolerance trial replayed event by event.
        if let Some(i) = w.replay {
            let OpSpec::Trial { net } = w.ops[i] else {
                unreachable!("replay names a trial op")
            };
            let rep = tr.span("bench.replay", None, i as u64, |id| {
                catch(|| layers::replay_trial(&self.nets[net].clos, w.op_seed(seed, i), tr, id))
            });
            let got = rep
                .as_ref()
                .map_err(Clone::clone)
                .and_then(|r| match r.trial {
                    Some(t) if r.matches_rebuild => Ok(check::trial_digest(&t)),
                    _ => Err("repaired routing differs from a rebuild".to_string()),
                });
            acc.check(&w.label(&w.ops[i]), got);
            if let Ok(r) = rep {
                v.insert("topology.live_apply_us", median(&r.apply_us));
                v.insert("routing.repair_us_p50", median(&r.repair_us));
                v.insert("routing.repair_us_p99", percentile(&r.repair_us, 0.99));
                v.insert("routing.repair_changed", mean(&r.changed));
                v.insert("routing.repair_dst_delta", mean(&r.dst_delta));
                v.insert("routing.repair_recomputed", mean(&r.recomputed));
                v.insert("routing.trial_events", r.repair_us.len() as f64);
            }
        }

        let spans = tr.spans();
        let setup_ms = |name: &str| -> f64 {
            spans
                .iter()
                .filter(|s| s.name == name && s.parent == self.setup_id)
                .fold(0.0, |acc, s| acc + s.dur_ns() as f64 / 1e6)
        };
        v.insert("topology.generate_ms", setup_ms("topology.generate"));
        v.insert("routing.build_ms", setup_ms("routing.build"));
        v.insert("routing.updown_check_ms", setup_ms("routing.updown_check"));
        v.insert("sim.table_build_ms", setup_ms("sim.table_build"));
        v.insert(
            "topology.draws",
            self.nets.iter().map(|n| n.draws as f64).sum(),
        );
        let (mut bytes, mut table, mut live, mut terminals) = (0, 0, 0, 0);
        for (n, sim) in self.nets.iter().zip(self.sims) {
            if let (Some((routing, sim_net)), Some(sim)) = (&n.routed, sim) {
                let t = sim.candidate_table_bytes();
                bytes += routing.heap_bytes() + t.unwrap_or(0);
                table += t.unwrap_or(0);
                live += usize::from(t.is_none());
                terminals += sim_net.num_terminals();
            }
        }
        v.insert(
            "routing.bytes_per_terminal",
            bytes as f64 / terminals.max(1) as f64,
        );
        v.insert("sim.table_bytes", table as f64);
        v.insert("sim.table_live", live as f64);

        let ok_ops = || {
            rounds
                .iter()
                .flat_map(|r| &r.ops)
                .filter(|op| op.outcome.is_ok())
        };
        let secs_of = |pred: &dyn Fn(&OpSpec) -> bool| -> Vec<f64> {
            ok_ops()
                .filter(|op| pred(&w.ops[op.i]))
                .map(|op| op.secs)
                .collect()
        };
        let sim_ops: Vec<&OpRun> = ok_ops().filter(|op| ctx.cycles(op.i) > 0).collect();
        let run_ms: Vec<f64> = sim_ops.iter().map(|op| op.secs * 1e3).collect();
        let ns_per_pkt: Vec<f64> = sim_ops
            .iter()
            .filter_map(|op| {
                let delivered = op.outcome.as_ref().ok()?.sim_result()?.delivered_packets;
                (delivered > 0).then(|| op.secs * 1e9 / delivered as f64)
            })
            .collect();
        v.insert("sim.run_ms", median(&run_ms));
        v.insert("sim.ns_per_pkt", median(&ns_per_pkt));
        let trials = secs_of(&|op| matches!(op, OpSpec::Trial { .. }));
        if !trials.is_empty() {
            v.insert(
                "routing.tolerance_trial_s",
                trials.iter().sum::<f64>() / trials.len() as f64,
            );
        }
        let applied = ok_ops().find_map(|op| match &op.outcome {
            Ok(Outcome::Churn(c)) if c.events_applied > 0 => Some(c.events_applied),
            _ => None,
        });
        if let Some(applied) = applied {
            let churn = median(&secs_of(&|op| {
                matches!(op, OpSpec::Churn { control: false, .. })
            }));
            let control = median(&secs_of(&|op| {
                matches!(op, OpSpec::Churn { control: true, .. })
            }));
            v.insert(
                "sim.churn_ms_per_event",
                (churn - control) * 1e3 / applied as f64,
            );
            v.insert("sim.events_applied", applied as f64);
        }
        let busy: f64 = rounds.iter().flat_map(|r| &r.ops).map(|op| op.secs).sum();
        let wall: f64 = rounds.iter().map(|r| r.wall_s).sum();
        v.insert(
            "parallel.sweep_busy_share",
            busy / (wall * w.threads as f64),
        );
        let rate = |traced: bool| {
            let rates: Vec<f64> = rounds
                .iter()
                .filter(|r| r.traced == traced)
                .map(Self::ops_rate)
                .collect();
            median(&rates)
        };
        v.insert(
            "trace.overhead_pct",
            (rate(false) / rate(true) - 1.0) * 100.0,
        );
        for (layer, name) in [
            ("topology", "topology.self_ms"),
            ("routing", "routing.self_ms"),
            ("sim", "sim.self_ms"),
            ("parallel", "parallel.self_ms"),
            ("bench", "bench.self_ms"),
        ] {
            v.insert(name, trace::layer_self_ms(&spans, layer));
        }
        v.insert("trace.spans", spans.len() as f64);
        // Layers a workload does not exercise report 0.
        PER_LAYER
            .into_iter()
            .map(|m| (m, v.get(m.name).copied().unwrap_or(0.0)))
            .collect()
    }

    fn facts(&self) -> Json {
        let (w, opts) = (self.w, self.opts);
        let cores = std::thread::available_parallelism().map_or(1, usize::from);
        Json::Obj(vec![
            ("workload".into(), Json::Str(w.name.into())),
            ("seed".into(), Json::Uint(opts.seed)),
            ("trace".into(), Json::Bool(opts.trace)),
            ("seconds".into(), Json::Num(opts.seconds)),
            ("host_cores".into(), Json::Uint(cores as u64)),
            ("threads".into(), Json::Uint(w.threads as u64)),
            ("shards".into(), Json::Uint(w.shards as u64)),
            ("commit".into(), Json::Str(commit())),
        ])
    }
}

/// The process's peak resident set (`VmHWM`), in MiB.
///
/// # Errors
///
/// When `/proc/self/status` has no `VmHWM` line.
pub fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kib| kib / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}

/// The checked-out commit, read from `.git` in the working directory
/// (no parent directories), else `unknown`.
fn commit() -> String {
    commit_in(std::path::Path::new(".git")).unwrap_or_else(|| "unknown".to_string())
}

/// The commit `HEAD` names in the git directory `git`: a loose or packed
/// ref, or a detached hash. A `.git` file (`gitdir: <path>`, as in a
/// worktree) is followed; a worktree's branch refs live in the common
/// directory its `commondir` names.
pub fn commit_in(git: &std::path::Path) -> Option<String> {
    let read = |p: &std::path::Path| {
        std::fs::read_to_string(p)
            .ok()
            .map(|s| s.trim().to_string())
    };
    if git.is_file() {
        let target = read(git)?;
        let dir = git.parent()?.join(target.strip_prefix("gitdir: ")?);
        return commit_in(&dir);
    }
    let head = read(&git.join("HEAD"))?;
    let Some(name) = head.strip_prefix("ref: ") else {
        return Some(head);
    };
    let in_dir = |dir: &std::path::Path| {
        read(&dir.join(name)).or_else(|| {
            read(&dir.join("packed-refs"))?.lines().find_map(|l| {
                let (hash, r) = l.split_once(' ')?;
                (r == name).then(|| hash.to_string())
            })
        })
    };
    in_dir(git).or_else(|| in_dir(&git.join(read(&git.join("commondir"))?)))
}

/// Writes the run's facts and spans as JSON under `dir`, returning the
/// file's path.
///
/// # Errors
///
/// I/O failures.
pub fn write_trace(report: &Report, opts: &Options, dir: &str) -> Result<String, String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("{dir}: {e}"))?;
    let path = format!("{dir}/{}-seed{}.json", opts.workload, opts.seed);
    let doc = Json::Obj(vec![
        ("facts".into(), report.facts.clone()),
        ("spans".into(), trace::to_json(&report.spans)),
    ]);
    std::fs::write(&path, doc.render() + "\n").map_err(|e| format!("{path}: {e}"))?;
    Ok(path)
}
