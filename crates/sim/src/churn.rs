//! Failure churn: running a simulation while the network changes.
//!
//! A [`FaultSchedule`] is a deterministic, pre-generated list of link
//! events (fail/recover) pinned to simulated cycles. The churn runner
//! replays it *during* a simulation: at every cycle boundary each shard
//! applies the cycle's due events to its own replica of the dynamic
//! routing state — a [`LiveClos`] overlay, an incrementally repaired
//! [`UpDownRouting`] table ([`UpDownRouting::apply_event`]), and a
//! region-patched candidate table — before stepping the engine
//! (DESIGN.md §16).
//!
//! Replication is what keeps the sharded path deterministic: repairs
//! are pure functions of the schedule, so every shard computes
//! byte-identical routing state at every cycle without any cross-shard
//! synchronization beyond the two existing barriers. Results are
//! therefore **byte-identical at any shard count**, exactly like plain
//! runs. The price is `shards ×` the routing-state memory for the
//! duration of the run.
//!
//! The physical [`SimNetwork`] stays pristine throughout: a failed link
//! disappears from the *routing* state, so no new packet is steered
//! into it, while packets already queued toward a dead-end stall until
//! repair restores a path (or the run ends) — the behavior measured by
//! the availability and accepted-load-over-time outputs.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use rfc_routing::UpDownRouting;
use rfc_topology::{FoldedClos, Link, LinkEvent, LiveClos};

use crate::engine::{RunScratch, ShardRoutes, Simulation, HEAD_NONE};
use crate::network::SimNetwork;
use crate::shard::ShardState;
use crate::table::Candidates;
use crate::{SimConfig, SimResult, TrafficPattern};

/// A deterministic, cycle-stamped sequence of link events, applied at
/// cycle boundaries by [`Simulation::run_churn_sharded_scratch`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultSchedule {
    /// Sorted by `(cycle, event)`; ties resolve by the event order so
    /// the application sequence is total and partition-independent.
    events: Vec<(u64, LinkEvent)>,
}

impl FaultSchedule {
    /// A schedule from explicit `(cycle, event)` pairs; the list is
    /// sorted into the canonical application order.
    #[must_use]
    pub fn new(mut events: Vec<(u64, LinkEvent)>) -> Self {
        events.sort_unstable();
        FaultSchedule { events }
    }

    /// The empty schedule — churn runs degrade to plain runs.
    #[must_use]
    pub fn empty() -> Self {
        FaultSchedule::default()
    }

    /// The canonical `(cycle, event)` sequence.
    #[must_use]
    pub fn events(&self) -> &[(u64, LinkEvent)] {
        &self.events
    }

    /// Number of scheduled events (both kinds).
    #[must_use]
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the schedule holds no events.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Poisson link churn over `[0, horizon)`: failures arrive as a
    /// Poisson process at `rate` failures per cycle (network-wide),
    /// each striking a uniformly random *distinct* link that is
    /// currently up; its repair completes after an exponential downtime
    /// with the given mean (at least one cycle). Arrivals on a link
    /// already down are dropped, matching real-world churn models where
    /// a dead link cannot fail again.
    ///
    /// The schedule is a pure function of `(clos, rate, mean_downtime,
    /// horizon, seed)` — generation happens up front, so the simulated
    /// results stay shard-invariant.
    #[must_use]
    pub fn poisson(
        clos: &FoldedClos,
        rate: f64,
        mean_downtime: f64,
        horizon: u64,
        seed: u64,
    ) -> Self {
        let mut distinct: Vec<Link> = clos.links();
        distinct.sort_unstable();
        distinct.dedup();
        if distinct.is_empty() || rate <= 0.0 {
            return FaultSchedule::default();
        }
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut down_until: BTreeMap<Link, u64> = BTreeMap::new();
        let mut events: Vec<(u64, LinkEvent)> = Vec::new();
        let mut t = 0.0f64;
        loop {
            t += exponential(&mut rng, 1.0 / rate);
            if !t.is_finite() || t >= horizon as f64 {
                break;
            }
            let cycle = t as u64;
            let link = distinct[rng.gen_range(0..distinct.len())];
            if down_until.get(&link).is_some_and(|&until| until > cycle) {
                continue;
            }
            let downtime = (exponential(&mut rng, mean_downtime).ceil() as u64).max(1);
            let recover_at = cycle.saturating_add(downtime);
            events.push((cycle, LinkEvent::fail(link)));
            if recover_at < horizon {
                events.push((recover_at, LinkEvent::recover(link)));
                down_until.insert(link, recover_at);
            } else {
                down_until.insert(link, u64::MAX);
            }
        }
        FaultSchedule::new(events)
    }
}

/// An exponential draw with the given mean, via inversion.
fn exponential(rng: &mut SmallRng, mean: f64) -> f64 {
    let u: f64 = rng.gen();
    -mean * (1.0 - u).ln()
}

/// Result of one churn run: the usual end-of-run statistics plus the
/// dynamic-network outputs.
#[derive(Debug, Clone, PartialEq)]
pub struct ChurnResult {
    /// End-of-run statistics, exactly as a plain run reports them.
    pub result: SimResult,
    /// Accepted load (phits per node per cycle) per epoch — the
    /// measurement window divided into equal slices, exposing the dips
    /// and recoveries the end-of-run mean hides.
    pub epoch_accepted: Vec<f64>,
    /// Fraction of simulated cycles during which the up/down property
    /// held on the current (faulted) topology.
    pub availability: f64,
    /// Events from the schedule that actually changed the topology
    /// (duplicate fails / spurious recovers are no-ops).
    pub events_applied: usize,
}

/// What a replica records over a run: delivery snapshots at epoch
/// boundaries and, after each applied event, the up/down property.
struct ReplicaLog {
    /// `delivered` snapshots at epoch boundaries, then at the end.
    marks: Vec<u64>,
    /// Whether the property holds on the current topology.
    ok: bool,
    /// Cycle of the last applied event (0 before any).
    changed_at: u64,
    /// Cycles before `changed_at` during which the property held.
    ok_cycles: u64,
    /// Events that changed the topology.
    applied: usize,
}

/// Per-shard replica of the dynamic routing state, with the epoch and
/// availability bookkeeping its shard records at cycle boundaries.
struct DynState<'s> {
    live: LiveClos,
    routing: UpDownRouting,
    candidates: Candidates,
    net: &'s SimNetwork,
    schedule: &'s FaultSchedule,
    /// The byte budget table patches run under.
    budget: usize,
    /// Cursor into the schedule's canonical event order.
    next_event: usize,
    epoch_len: u64,
    epochs: u64,
    log: ReplicaLog,
}

impl<'s> DynState<'s> {
    fn new(
        sim: &Simulation<'s, UpDownRouting>,
        clos: &FoldedClos,
        schedule: &'s FaultSchedule,
        epoch_len: u64,
        epochs: u64,
    ) -> Self {
        DynState {
            live: LiveClos::new(clos),
            routing: sim.oracle().clone(),
            candidates: sim.candidates().clone(),
            net: sim.net(),
            schedule,
            budget: sim.table_budget(),
            next_event: 0,
            epoch_len,
            epochs,
            log: ReplicaLog {
                marks: Vec::new(),
                ok: sim.oracle().has_updown_property(),
                changed_at: 0,
                ok_cycles: 0,
                applied: 0,
            },
        }
    }

    /// Applies every event due at or before `now`: the topology overlay
    /// flips, the routing table repairs incrementally, and the
    /// candidate table patches over the repair's dirty region — all
    /// byte-identical to a from-scratch rebuild on the new topology —
    /// then records whether the up/down property still holds.
    ///
    /// Returns whether any event changed the topology. The caller must
    /// then drop its shard's head summaries: a patch renumbers the
    /// table's rows, may change their content, and may fall back to
    /// live queries, whose keys are target switches, not row ids.
    fn apply_due(&mut self, now: u64) -> bool {
        let mut applied = false;
        while let Some((cycle, ev)) = self.schedule.events.get(self.next_event) {
            if *cycle > now {
                break;
            }
            self.next_event += 1;
            if self.live.apply(ev) {
                applied = true;
                let scope = self.routing.apply_event(self.live.current(), ev);
                self.candidates =
                    self.candidates
                        .patched(self.net, &self.routing, &scope, self.budget);
                let log = &mut self.log;
                if log.ok {
                    log.ok_cycles += cycle - log.changed_at;
                }
                log.changed_at = *cycle;
                log.applied += 1;
                log.ok = self.routing.has_updown_property();
            }
        }
        applied
    }
}

impl ShardRoutes<UpDownRouting> for DynState<'_> {
    type Out = ReplicaLog;

    fn routes(&self) -> (&Candidates, &UpDownRouting) {
        (&self.candidates, &self.routing)
    }

    /// Every shard applies the same due events to its own replica
    /// before stepping — pure replicated computation, no cross-shard
    /// coordination — then snapshots `delivered` at epoch boundaries.
    fn begin_cycle(&mut self, st: &mut ShardState, now: u64) {
        if self.apply_due(now) {
            st.head_route.fill(HEAD_NONE);
        }
        if now > 0 && now.is_multiple_of(self.epoch_len) && now / self.epoch_len < self.epochs {
            self.log.marks.push(st.delivered);
        }
    }

    fn finish(mut self, st: &ShardState) -> ReplicaLog {
        self.log.marks.push(st.delivered);
        self.log
    }
}

impl<'a> Simulation<'a, UpDownRouting> {
    /// Runs one experiment under failure churn: `schedule` events apply
    /// at cycle boundaries while traffic flows. `clos` must be the
    /// pristine topology this simulation's network and oracle were
    /// built from. The measurement is reported in `epochs` equal
    /// time slices alongside the usual end-of-run statistics. Runs on
    /// `shards` shards over caller-owned buffers; drivers pass
    /// [`rfc_parallel::current_shards`] for the ambient count. Results
    /// are byte-identical at any value.
    #[allow(clippy::too_many_arguments)]
    pub fn run_churn_sharded_scratch(
        &self,
        clos: &FoldedClos,
        schedule: &FaultSchedule,
        pattern: TrafficPattern,
        offered_load: f64,
        seed: u64,
        epochs: usize,
        shards: usize,
        scratch: &mut RunScratch,
    ) -> ChurnResult {
        let cfg = *self.config();
        let terminals = self.net().num_terminals();
        let end = cfg.total_cycles();
        let epochs = epochs.clamp(1, (end.max(1)) as usize);
        let epoch_len = (end / epochs as u64).max(1);
        let (result, logs) = self.drive(pattern, offered_load, seed, shards, scratch, || {
            DynState::new(self, clos, schedule, epoch_len, epochs as u64)
        });

        // Per-epoch accepted load from the merged delivery snapshots.
        let mut epoch_accepted = Vec::with_capacity(epochs);
        let mut prev_total = 0u64;
        let marks = logs[0].marks.len();
        for e in 0..marks {
            let total: u64 = logs.iter().map(|l| l.marks[e]).sum();
            let cycles = if e + 1 == marks {
                end - epoch_len * e as u64
            } else {
                epoch_len
            };
            epoch_accepted.push(
                (total - prev_total) as f64 * cfg.packet_length as f64
                    / (cycles.max(1) as f64 * terminals.max(1) as f64),
            );
            prev_total = total;
        }

        // Every replica applied the same events; replica 0 speaks for all.
        let log = &logs[0];
        let availability = if end == 0 {
            1.0
        } else {
            let tail = if log.ok { end - log.changed_at } else { 0 };
            (log.ok_cycles + tail) as f64 / end as f64
        };
        ChurnResult {
            result,
            epoch_accepted,
            availability,
            events_applied: log.applied,
        }
    }
}

/// Wall-clock comparison of a single-event incremental repair (routing
/// table + candidate patch) against a from-scratch rebuild of both, on
/// the first `trials` inter-switch links of `clos`.
#[derive(Debug, Clone, Copy)]
pub struct RepairBenchmark {
    /// Total time for `events` from-scratch rebuilds.
    pub full_rebuild: Duration,
    /// Total time for `events` incremental repairs (plus the reverts
    /// that restore the pristine state between trials).
    pub incremental: Duration,
    /// Number of single-link fail events measured.
    pub events: usize,
}

impl RepairBenchmark {
    /// Speedup factor of incremental repair over full rebuild.
    #[must_use]
    pub fn speedup(&self) -> f64 {
        let inc = self.incremental.as_secs_f64();
        if inc == 0.0 {
            return f64::INFINITY;
        }
        self.full_rebuild.as_secs_f64() / inc
    }
}

/// Measures [`RepairBenchmark`] on `clos`: for each sampled link, time
/// (a) rebuilding `UpDownRouting` plus the candidate table from scratch
/// on the faulted topology, against (b) applying the fail event
/// incrementally and patching the table. Both sides produce
/// byte-identical state (asserted in the sim test-suite); this function
/// only measures.
#[must_use]
pub fn repair_speedup(
    clos: &FoldedClos,
    cfg: SimConfig,
    trials: usize,
    seed: u64,
) -> RepairBenchmark {
    let net = SimNetwork::from_folded_clos(clos);
    let routing = UpDownRouting::new(clos);
    let sim = Simulation::new(&net, &routing, cfg);
    let budget = sim.table_budget();
    let mut links: Vec<Link> = clos.links();
    links.sort_unstable();
    links.dedup();
    let mut rng = SmallRng::seed_from_u64(seed);
    let trials = trials.min(links.len());

    let mut live = LiveClos::new(clos);
    let mut incremental = Duration::ZERO;
    let mut full_rebuild = Duration::ZERO;
    let mut events = 0usize;
    for _ in 0..trials {
        let link = links[rng.gen_range(0..links.len())];
        let ev = LinkEvent::fail(link);

        // Incremental: repair the live routing + patch the table, then
        // revert (the revert is also incremental, so it counts too —
        // a churn cycle pays both directions).
        let mut repaired = routing.clone();
        #[allow(
            clippy::disallowed_methods,
            reason = "this function *is* the stopwatch"
        )]
        // xtask: allow(wall-clock) — this function *is* the stopwatch
        let t0 = Instant::now();
        if !live.apply(&ev) {
            continue;
        }
        let scope = repaired.apply_event(live.current(), &ev);
        let patched = sim.candidates().patched(&net, &repaired, &scope, budget);
        incremental += t0.elapsed();
        std::hint::black_box(&patched);

        // Full rebuild on the faulted topology.
        #[allow(clippy::disallowed_methods, reason = "stopwatch")]
        let t1 = Instant::now(); // xtask: allow(wall-clock) — stopwatch
        let rebuilt = UpDownRouting::new(live.current());
        let rebuilt_sim = Simulation::new(&net, &rebuilt, cfg);
        full_rebuild += t1.elapsed();
        std::hint::black_box(&rebuilt_sim);

        #[allow(clippy::disallowed_methods, reason = "stopwatch")]
        let t2 = Instant::now(); // xtask: allow(wall-clock) — stopwatch
        let undo = ev.inverse();
        if live.apply(&undo) {
            // Keep the pristine baseline for the next trial.
        }
        incremental += t2.elapsed();
        events += 1;
    }
    RepairBenchmark {
        full_rebuild,
        incremental,
        events,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[ignore = "profiling helper, run with --ignored --nocapture"]
    #[allow(
        clippy::disallowed_methods,
        reason = "profiling helper: wall-clock times are its output"
    )]
    fn profile_repair_breakdown() {
        let clos = FoldedClos::cft(16, 3).unwrap();
        let net = SimNetwork::from_folded_clos(&clos);
        let routing = UpDownRouting::new(&clos);
        let cfg = SimConfig::quick();
        let sim = Simulation::new(&net, &routing, cfg);
        let budget = sim.table_budget();
        let mut links: Vec<Link> = clos.links();
        links.sort_unstable();
        links.dedup();
        let mut rng = SmallRng::seed_from_u64(2017);
        let mut live = LiveClos::new(&clos);
        let (mut t_apply, mut t_patch, mut t_routing, mut t_table) = (
            Duration::ZERO,
            Duration::ZERO,
            Duration::ZERO,
            Duration::ZERO,
        );
        for _ in 0..12 {
            let link = links[rng.gen_range(0..links.len())];
            let ev = LinkEvent::fail(link);
            if !live.apply(&ev) {
                continue;
            }
            let mut repaired = routing.clone();
            let t0 = Instant::now();
            let scope = repaired.apply_event(live.current(), &ev);
            t_apply += t0.elapsed();
            let t1 = Instant::now();
            let p = sim.candidates().patched(&net, &repaired, &scope, budget);
            std::hint::black_box(&p);
            t_patch += t1.elapsed();
            let t2 = Instant::now();
            let rebuilt = UpDownRouting::new(live.current());
            t_routing += t2.elapsed();
            let t3 = Instant::now();
            let s2 = Simulation::new(&net, &rebuilt, cfg);
            t_table += t3.elapsed();
            std::hint::black_box(&s2);
            live.apply(&ev.inverse());
        }
        println!(
            "apply_event {t_apply:?}  patch {t_patch:?}  routing_rebuild {t_routing:?}  table_rebuild {t_table:?}"
        );
        if let Some(t) = sim.candidates().table() {
            println!(
                "switches {}  rows {}  runs {}  ports {}",
                net.num_switches(),
                t.row_off.len() - 1,
                t.runs_start.len(),
                t.row_ports.len()
            );
        }
    }

    fn setup(radix: usize, levels: usize) -> (FoldedClos, SimNetwork, UpDownRouting) {
        let clos = FoldedClos::cft(radix, levels).unwrap();
        let routing = UpDownRouting::new(&clos);
        let net = SimNetwork::from_folded_clos(&clos);
        (clos, net, routing)
    }

    fn churn_cfg() -> SimConfig {
        let mut cfg = SimConfig::quick();
        cfg.warmup_cycles = 0;
        cfg.measure_cycles = 1_200;
        cfg
    }

    #[test]
    fn empty_schedule_matches_a_plain_run() {
        let (clos, net, routing) = setup(6, 3);
        let cfg = churn_cfg();
        let sim = Simulation::new(&net, &routing, cfg);
        let plain = sim.run(TrafficPattern::Uniform, 0.5, 11);
        let churn = sim.run_churn_sharded_scratch(
            &clos,
            &FaultSchedule::empty(),
            TrafficPattern::Uniform,
            0.5,
            11,
            4,
            1,
            &mut RunScratch::new(),
        );
        assert_eq!(churn.result, plain, "no events => identical run");
        assert_eq!(churn.events_applied, 0);
        assert_eq!(churn.availability, 1.0);
        assert_eq!(churn.epoch_accepted.len(), 4);
        let mean = churn.epoch_accepted.iter().sum::<f64>() / 4.0;
        assert!(
            (mean - plain.accepted_load).abs() < 0.05,
            "epoch mean {mean} vs accepted {}",
            plain.accepted_load
        );
    }

    #[test]
    fn churn_results_are_shard_invariant() {
        // The tentpole contract at a non-divisor shard count: every
        // output — end-of-run stats, epoch series, availability — must
        // be byte-identical across 1, 2 and 3 shards.
        let (clos, net, routing) = setup(6, 3);
        let cfg = churn_cfg();
        let sim = Simulation::new(&net, &routing, cfg);
        let schedule = FaultSchedule::poisson(&clos, 0.01, 150.0, cfg.total_cycles(), 42);
        assert!(schedule.len() > 4, "schedule too quiet: {}", schedule.len());
        let mut scratch = RunScratch::new();
        let base = sim.run_churn_sharded_scratch(
            &clos,
            &schedule,
            TrafficPattern::Uniform,
            0.6,
            7,
            5,
            1,
            &mut scratch,
        );
        assert!(base.events_applied > 0);
        for shards in [2usize, 3, 5] {
            let r = sim.run_churn_sharded_scratch(
                &clos,
                &schedule,
                TrafficPattern::Uniform,
                0.6,
                7,
                5,
                shards,
                &mut scratch,
            );
            assert_eq!(base, r, "churn diverged at {shards} shards");
        }
    }

    #[test]
    fn patched_candidate_table_is_byte_identical_to_fresh_build() {
        // After every applied event, the patched table must equal what
        // a from-scratch Simulation::new would build over the repaired
        // oracle — the same contract the routing repair itself honors.
        // Checked on a CFT and on a random folded Clos, whose switches
        // hold dozens of distinct rows (the hashed local interning path)
        // and whose faults strand destinations (the shared empty row).
        let cft = FoldedClos::cft(6, 3).unwrap();
        let rfc = FoldedClos::random(12, 160, 3, &mut SmallRng::seed_from_u64(7)).unwrap();
        for (clos, rate, horizon, seed) in [(&cft, 0.02, 2_000, 9), (&rfc, 0.05, 1_000, 3)] {
            let routing = UpDownRouting::new(clos);
            let net = SimNetwork::from_folded_clos(clos);
            let cfg = churn_cfg();
            let sim = Simulation::new(&net, &routing, cfg);
            let schedule = FaultSchedule::poisson(clos, rate, 200.0, horizon, seed);
            assert!(schedule.len() > 6);
            let mut ds = DynState::new(&sim, clos, &schedule, 1, 1);
            let mut checked = 0;
            for (cycle, _) in schedule.events().iter() {
                ds.apply_due(*cycle);
                let fresh = Simulation::new(&net, &ds.routing, cfg);
                assert_eq!(
                    ds.candidates.table(),
                    fresh.candidates().table(),
                    "patched table diverged at cycle {cycle}"
                );
                checked += 1;
            }
            assert!(checked > 6);
        }
    }

    #[test]
    fn mid_run_fallback_to_live_matches_a_live_run() {
        // Under a budget of exactly the fresh table's bytes the build
        // materializes, and the first applied event grows the patched
        // table past it: from then on the replicas query the oracle live,
        // so every head summary's key changes meaning (row id → target
        // switch). The run must equal one on live queries throughout.
        let (clos, net, routing) = setup(6, 3);
        let cfg = churn_cfg();
        let bytes = Simulation::new(&net, &routing, cfg)
            .candidate_table_bytes()
            .expect("the table fits the default budget");
        let exact = Simulation::with_table_budget(&net, &routing, cfg, bytes);
        assert_eq!(exact.candidate_table_bytes(), Some(bytes));
        let live = Simulation::with_table_budget(&net, &routing, cfg, 0);
        // The first link whose failure grows the table.
        let mut links = clos.links();
        links.sort_unstable();
        let mid = cfg.total_cycles() / 3;
        let schedule = links
            .iter()
            .map(|&l| FaultSchedule::new(vec![(mid, LinkEvent::fail(l))]))
            .find(|schedule| {
                let mut ds = DynState::new(&exact, &clos, schedule, 1, 1);
                ds.apply_due(mid) && ds.candidates.table().is_none()
            })
            .expect("some failure grows the cft(6,3) table");
        let mut scratch = RunScratch::new();
        for shards in [1usize, 2] {
            let run = |sim: &Simulation<'_, UpDownRouting>, scratch: &mut RunScratch| {
                sim.run_churn_sharded_scratch(
                    &clos,
                    &schedule,
                    TrafficPattern::Uniform,
                    0.6,
                    5,
                    4,
                    shards,
                    scratch,
                )
            };
            let fallback = run(&exact, &mut scratch);
            assert_eq!(fallback.events_applied, 1);
            assert_eq!(fallback, run(&live, &mut scratch), "{shards} shard(s)");
        }
    }

    #[test]
    fn availability_reflects_property_loss_and_recovery() {
        // A 2-level OFT loses the up/down property on its first link
        // failure; fail at 100, recover at 300, over 1000 cycles =>
        // availability 0.8 exactly, at any shard count.
        let clos = FoldedClos::oft(3, 2).unwrap();
        let routing = UpDownRouting::new(&clos);
        let net = SimNetwork::from_folded_clos(&clos);
        let mut cfg = churn_cfg();
        cfg.measure_cycles = 1_000;
        let sim = Simulation::new(&net, &routing, cfg);
        let link = clos.links()[0];
        let schedule = FaultSchedule::new(vec![
            (100, LinkEvent::fail(link)),
            (300, LinkEvent::recover(link)),
        ]);
        for shards in [1usize, 2] {
            let churn = sim.run_churn_sharded_scratch(
                &clos,
                &schedule,
                TrafficPattern::Uniform,
                0.3,
                1,
                1,
                shards,
                &mut RunScratch::new(),
            );
            assert_eq!(churn.events_applied, 2);
            assert!(
                (churn.availability - 0.8).abs() < 1e-12,
                "availability {}",
                churn.availability
            );
        }
    }

    #[test]
    fn churn_degrades_and_recovers_accepted_load() {
        // Kill every up-link of leaf 0's switch mid-run: availability
        // drops below 1 and the end-of-run result differs from the
        // fault-free run.
        let (clos, net, routing) = setup(4, 2);
        let cfg = churn_cfg();
        let sim = Simulation::new(&net, &routing, cfg);
        let faults: Vec<_> = clos.links().into_iter().filter(|l| l.lower == 0).collect();
        let mid = cfg.total_cycles() / 3;
        let rec = 2 * cfg.total_cycles() / 3;
        let mut events: Vec<(u64, LinkEvent)> =
            faults.iter().map(|&l| (mid, LinkEvent::fail(l))).collect();
        events.extend(faults.iter().map(|&l| (rec, LinkEvent::recover(l))));
        let schedule = FaultSchedule::new(events);
        let churn = sim.run_churn_sharded_scratch(
            &clos,
            &schedule,
            TrafficPattern::Uniform,
            0.6,
            3,
            6,
            1,
            &mut RunScratch::new(),
        );
        let plain = sim.run(TrafficPattern::Uniform, 0.6, 3);
        assert!(churn.availability < 1.0);
        assert!(churn.events_applied >= 2);
        assert_ne!(churn.result, plain, "failures must perturb the run");
        // Before the failure the run is byte-identical to fault-free,
        // so the first epoch's accepted load is healthy.
        assert!(churn.epoch_accepted[0] > 0.4, "{:?}", churn.epoch_accepted);
    }

    #[test]
    fn poisson_schedules_are_deterministic_and_well_formed() {
        let (clos, _, _) = setup(6, 3);
        let a = FaultSchedule::poisson(&clos, 0.01, 100.0, 5_000, 1);
        let b = FaultSchedule::poisson(&clos, 0.01, 100.0, 5_000, 1);
        assert_eq!(a, b, "same inputs, same schedule");
        assert!(!a.is_empty());
        // Sorted, in-horizon, and every recover is preceded by a fail
        // of the same link.
        let mut down: std::collections::BTreeSet<Link> = std::collections::BTreeSet::new();
        let mut prev = 0u64;
        for (cycle, ev) in a.events() {
            assert!(*cycle < 5_000);
            assert!(*cycle >= prev);
            prev = *cycle;
            match ev.kind {
                rfc_topology::LinkEventKind::Fail => {
                    assert!(down.insert(ev.link), "double fail of {:?}", ev.link);
                }
                rfc_topology::LinkEventKind::Recover => {
                    assert!(down.remove(&ev.link), "recover of an up link");
                }
            }
        }
        let c = FaultSchedule::poisson(&clos, 0.01, 100.0, 5_000, 2);
        assert_ne!(a, c, "different seeds, different schedules");
    }

    #[test]
    fn repair_speedup_measures_nonzero_work() {
        let (clos, _, _) = setup(6, 3);
        let bench = repair_speedup(&clos, SimConfig::quick(), 3, 5);
        assert_eq!(bench.events, 3);
        assert!(bench.full_rebuild > Duration::ZERO);
        assert!(bench.incremental > Duration::ZERO);
        assert!(bench.speedup() > 0.0);
    }
}
