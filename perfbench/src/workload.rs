//! The four workloads: the networks each builds during set-up and the
//! ops one measured round runs. Why each was chosen is in README.md.

use std::fmt;

use rand::rngs::SmallRng;
use rand::SeedableRng;

use rfc_net::parallel::child_seed;
use rfc_net::routing::fault::{updown_tolerance_trial, ToleranceTrial};
use rfc_net::routing::UpDownRouting;
use rfc_net::sim::{
    ChurnResult, FaultSchedule, RunScratch, SimConfig, SimNetwork, SimResult, Simulation,
    TrafficPattern,
};
use rfc_net::topology::FoldedClos;

use crate::check;
use crate::trace::Tracer;

/// Workload names, in the order BENCHMARK.json lists them.
pub const NAMES: [&str; 4] = ["fig10-sweep", "paper-cft", "rfc-live", "faults"];

/// RFC draws allowed before set-up gives up, as in the paper's
/// scenarios (`scenarios::rfc_with_updown(.., 50, ..)`).
const MAX_DRAWS: usize = 50;

/// Schedules tried while conditioning Poisson churn on its event count.
const MAX_SCHEDULE_DRAWS: u64 = 100_000;

/// Full size is what the benchmark measures; tiny keeps every code
/// path and metric but finishes in milliseconds, for the tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// The measured sizes.
    Full,
    /// Test sizes.
    Tiny,
}

/// A topology to construct.
#[derive(Debug, Clone, Copy)]
pub enum Topo {
    /// `FoldedClos::cft(radix, levels)`.
    Cft { radix: usize, levels: usize },
    /// `FoldedClos::random(radix, n1, levels)`, redrawn until up/down
    /// routing holds.
    Rfc {
        radix: usize,
        n1: usize,
        levels: usize,
    },
    /// `FoldedClos::oft(q, levels)`.
    Oft { q: u32, levels: usize },
}

/// One network of a workload.
#[derive(Debug, Clone, Copy)]
pub struct NetSpec {
    /// What to build.
    pub topo: Topo,
    /// Populated terminals when below capacity.
    pub terminals: Option<usize>,
    /// Whether set-up builds routing and a candidate table for it.
    pub simulate: bool,
}

impl fmt::Display for NetSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.topo {
            Topo::Cft { radix, levels } => write!(f, "cft({radix},{levels})")?,
            Topo::Rfc { radix, n1, levels } => write!(f, "rfc({radix},{n1},{levels})")?,
            Topo::Oft { q, levels } => write!(f, "oft(q={q},{levels})")?,
        }
        match self.terminals {
            Some(t) => write!(f, "@{t}"),
            None => Ok(()),
        }
    }
}

/// One op of a round.
#[derive(Debug, Clone, Copy)]
pub enum OpSpec {
    /// A plain simulation run.
    Sim {
        net: usize,
        pattern: TrafficPattern,
        load: f64,
    },
    /// One Figure 11 tolerance trial.
    Trial { net: usize },
    /// A uniform-traffic churn run; `control` runs the same with no
    /// events.
    Churn {
        net: usize,
        load: f64,
        control: bool,
    },
}

/// Poisson link churn, conditioned on its event count.
#[derive(Debug, Clone, Copy)]
pub struct ChurnSpec {
    /// Failures per cycle, network-wide.
    pub rate: f64,
    /// Mean cycles a failed link stays down.
    pub mean_downtime: f64,
    /// Scheduled events (fails plus recovers) every seed's schedule has.
    pub events: usize,
}

/// A workload: what set-up builds and what one round runs.
#[derive(Debug, Clone)]
pub struct Workload {
    /// Its name.
    pub name: &'static str,
    /// Networks built during set-up.
    pub nets: Vec<NetSpec>,
    /// Ops of one round.
    pub ops: Vec<OpSpec>,
    /// Warm-up and measured cycles of every simulation op.
    pub config: SimConfig,
    /// Ops of a round run at once (worker threads).
    pub threads: usize,
    /// Shards per simulation op.
    pub shards: usize,
    /// Candidate-table byte budget; `None` keeps the simulator default.
    pub table_budget: Option<usize>,
    /// Churn schedule of `Churn` ops.
    pub churn: Option<ChurnSpec>,
    /// The plain run that warms the table and caches before the window
    /// and that shard, oracle and churn-control variants must equal.
    pub probe: (usize, TrafficPattern, f64),
    /// Index into `ops` of the trial the traced run replays.
    pub replay: Option<usize>,
}

fn cfg(warmup: u64, measure: u64) -> SimConfig {
    SimConfig {
        warmup_cycles: warmup,
        measure_cycles: measure,
        ..SimConfig::paper_defaults()
    }
}

fn cft(radix: usize, levels: usize) -> Topo {
    Topo::Cft { radix, levels }
}

fn rfc(radix: usize, n1: usize, levels: usize) -> Topo {
    Topo::Rfc { radix, n1, levels }
}

fn oft(q: u32, levels: usize) -> Topo {
    Topo::Oft { q, levels }
}

fn net(topo: Topo, terminals: Option<usize>, simulate: bool) -> NetSpec {
    NetSpec {
        topo,
        terminals,
        simulate,
    }
}

/// The workload called `name` at `size`.
pub fn get(name: &str, size: Size) -> Option<Workload> {
    let full = size == Size::Full;
    let patterns = [
        TrafficPattern::Uniform,
        TrafficPattern::RandomPairing,
        TrafficPattern::FixedRandom,
    ];
    Some(match name {
        "fig10-sweep" => {
            // scenarios::maximum_expansion: the RFC at the Theorem 4.2
            // threshold (a pinch below) against the 4-level CFT
            // populated to the RFC's terminal count.
            let (radix, n1) = if full { (12, 236) } else { (8, 62) };
            let nets = vec![
                net(cft(radix, 4), Some(n1 * radix / 2), true),
                net(rfc(radix, n1, 3), None, true),
            ];
            let mut ops = Vec::new();
            for n in 0..nets.len() {
                for pattern in patterns {
                    for load in [0.2, 0.5, 1.0] {
                        ops.push(OpSpec::Sim {
                            net: n,
                            pattern,
                            load,
                        });
                    }
                }
            }
            Workload {
                name: "fig10-sweep",
                nets,
                ops,
                config: if full { cfg(250, 750) } else { cfg(20, 40) },
                threads: 2,
                shards: 1,
                table_budget: None,
                churn: None,
                probe: (1, TrafficPattern::Uniform, 1.0),
                replay: None,
            }
        }
        "paper-cft" => {
            let topo = if full { cft(36, 4) } else { cft(8, 3) };
            Workload {
                name: "paper-cft",
                nets: vec![net(topo, None, true)],
                ops: vec![OpSpec::Sim {
                    net: 0,
                    pattern: TrafficPattern::Uniform,
                    load: 1.0,
                }],
                config: if full { cfg(30, 20) } else { cfg(10, 10) },
                threads: 1,
                shards: 2,
                table_budget: None,
                churn: None,
                probe: (0, TrafficPattern::Uniform, 1.0),
                replay: None,
            }
        }
        "rfc-live" => {
            // Full size overflows the default table budget on its own;
            // the tiny network needs a zero budget to take the same
            // live-oracle path.
            let (topo, budget) = if full {
                (rfc(24, 2000, 3), None)
            } else {
                (rfc(8, 62, 3), Some(0))
            };
            Workload {
                name: "rfc-live",
                nets: vec![net(topo, None, true)],
                ops: vec![OpSpec::Sim {
                    net: 0,
                    pattern: TrafficPattern::Uniform,
                    load: 1.0,
                }],
                config: if full { cfg(150, 50) } else { cfg(10, 10) },
                threads: 1,
                shards: 2,
                table_budget: budget,
                churn: None,
                probe: (0, TrafficPattern::Uniform, 1.0),
                replay: None,
            }
        }
        "faults" => {
            // Figure 11 at radix 12: the 4-level RFC at 0.3 of its
            // threshold size (the figure's smallest 4-level point) and
            // the 3-level CFT; churn on fig10's RFC. The OFT is of order
            // 4, not the figure's 5: both take the search's worst case
            // (every failure applied before tolerance 0), but order 5
            // takes 4-7 s a trial, which leaves two rounds a window.
            let nets = if full {
                vec![
                    net(oft(4, 3), None, false),
                    net(rfc(12, 488, 4), None, false),
                    net(cft(12, 3), None, false),
                    net(rfc(12, 236, 3), None, true),
                ]
            } else {
                vec![
                    net(oft(3, 2), None, false),
                    net(rfc(8, 24, 3), None, false),
                    net(cft(6, 3), None, false),
                    net(rfc(8, 62, 3), None, true),
                ]
            };
            Workload {
                name: "faults",
                nets,
                ops: vec![
                    OpSpec::Trial { net: 0 },
                    OpSpec::Trial { net: 1 },
                    OpSpec::Trial { net: 2 },
                    OpSpec::Churn {
                        net: 3,
                        load: 0.4,
                        control: false,
                    },
                    OpSpec::Churn {
                        net: 3,
                        load: 0.4,
                        control: true,
                    },
                ],
                config: if full { cfg(1000, 3000) } else { cfg(50, 150) },
                // Serial and unsharded: the engine does little here, and
                // lockstep barriers would add scheduling noise to runs
                // of a few hundred milliseconds.
                threads: 1,
                shards: 1,
                table_budget: None,
                churn: Some(if full {
                    ChurnSpec {
                        rate: 0.02,
                        mean_downtime: 200.0,
                        events: 150,
                    }
                } else {
                    ChurnSpec {
                        rate: 0.05,
                        mean_downtime: 20.0,
                        events: 18,
                    }
                }),
                probe: (3, TrafficPattern::Uniform, 0.4),
                replay: Some(1),
            }
        }
        _ => return None,
    })
}

impl Workload {
    /// The label an op's fingerprint is recorded under.
    pub fn label(&self, op: &OpSpec) -> String {
        match *op {
            OpSpec::Sim { net, pattern, load } => format!("{}/{pattern}/{load}", self.nets[net]),
            OpSpec::Trial { net } => format!("trial/{}", self.nets[net]),
            OpSpec::Churn { net, control, .. } => {
                let kind = if control { "control" } else { "churn" };
                format!("{kind}/{}", self.nets[net])
            }
        }
    }

    /// The label of the probe run.
    pub fn probe_label(&self) -> String {
        let (net, pattern, load) = self.probe;
        format!("probe/{}/{pattern}/{load}", self.nets[net])
    }

    /// The seed of op `i`. Churn ops share the probe's seed, so the
    /// control run must equal the probe.
    pub fn op_seed(&self, seed: u64, i: usize) -> u64 {
        match self.ops[i] {
            OpSpec::Churn { net, .. } => net_seed(seed, net),
            _ => child_seed(seed, i as u64 + 1),
        }
    }

    /// The probe's seed.
    pub fn probe_seed(&self, seed: u64) -> u64 {
        net_seed(seed, self.probe.0)
    }
}

fn net_seed(seed: u64, net: usize) -> u64 {
    child_seed(seed, 10_000 + net as u64)
}

/// A network built during set-up.
#[derive(Debug)]
pub struct Net {
    /// The topology.
    pub clos: FoldedClos,
    /// Constructions made (RFC draws until up/down routing held).
    pub draws: usize,
    /// Routing and simulator network of a simulated net.
    pub routed: Option<(UpDownRouting, SimNetwork)>,
}

/// Builds every network of `w`: topology, up/down check, routing and
/// simulator network. The same seed builds the same networks.
///
/// # Errors
///
/// A construction error, or an RFC with no up/down draw.
pub fn build_nets(
    w: &Workload,
    seed: u64,
    tr: &Tracer,
    parent: Option<u64>,
) -> Result<Vec<Net>, String> {
    let mut rng = SmallRng::seed_from_u64(child_seed(seed, 0));
    let mut nets = Vec::with_capacity(w.nets.len());
    for (i, spec) in w.nets.iter().enumerate() {
        let op = i as u64;
        let generate = |rng: &mut SmallRng| {
            tr.span("topology.generate", parent, op, |_| match spec.topo {
                Topo::Cft { radix, levels } => FoldedClos::cft(radix, levels),
                Topo::Rfc { radix, n1, levels } => FoldedClos::random(radix, n1, levels, rng),
                Topo::Oft { q, levels } => FoldedClos::oft(q, levels),
            })
            .map_err(|e| format!("{spec}: {e}"))
        };
        let route = |clos: &FoldedClos| {
            let routing = tr.span("routing.build", parent, op, |_| UpDownRouting::new(clos));
            let holds = tr.span("routing.updown_check", parent, op, |_| {
                routing.has_updown_property()
            });
            (routing, holds)
        };
        let (clos, draws, routing) = match spec.topo {
            Topo::Rfc { .. } => {
                // As scenarios::rfc_with_updown, keeping the routing of
                // the draw that passes.
                let mut draws = 0;
                loop {
                    if draws == MAX_DRAWS {
                        return Err(format!("{spec}: no up/down draw in {MAX_DRAWS}"));
                    }
                    draws += 1;
                    let clos = generate(&mut rng)?;
                    let (routing, holds) = route(&clos);
                    if holds {
                        break (clos, draws, Some(routing));
                    }
                }
            }
            _ => (generate(&mut rng)?, 1, None),
        };
        let routed = if spec.simulate {
            let routing = match routing {
                Some(r) => r,
                None => match route(&clos) {
                    (r, true) => r,
                    (_, false) => return Err(format!("{spec}: no up/down routing")),
                },
            };
            let sim_net = tr.span("sim.network", parent, op, |_| match spec.terminals {
                Some(t) => SimNetwork::from_folded_clos_populated(&clos, t),
                None => SimNetwork::from_folded_clos(&clos),
            });
            Some((routing, sim_net))
        } else {
            None
        };
        nets.push(Net {
            clos,
            draws,
            routed,
        });
    }
    Ok(nets)
}

/// Builds the candidate table (or falls back to live queries) of every
/// simulated network.
pub fn build_sims<'a>(
    w: &Workload,
    nets: &'a [Net],
    tr: &Tracer,
    parent: Option<u64>,
) -> Vec<Option<Simulation<'a, UpDownRouting>>> {
    nets.iter()
        .enumerate()
        .map(|(i, n)| {
            n.routed.as_ref().map(|(routing, sim_net)| {
                tr.span("sim.table_build", parent, i as u64, |_| {
                    new_sim(w, sim_net, routing)
                })
            })
        })
        .collect()
}

/// A simulation of `w`'s configuration and table budget.
pub fn new_sim<'a, O>(w: &Workload, sim_net: &'a SimNetwork, oracle: &'a O) -> Simulation<'a, O>
where
    O: rfc_net::routing::RoutingOracle + Sync,
{
    match w.table_budget {
        Some(budget) => Simulation::with_table_budget(sim_net, oracle, w.config, budget),
        None => Simulation::new(sim_net, oracle, w.config),
    }
}

/// The churn schedule of every net a churn op (not a control) runs on.
///
/// # Errors
///
/// When no schedule of the wanted event count turns up.
pub fn schedules(
    w: &Workload,
    nets: &[Net],
    seed: u64,
) -> Result<Vec<Option<FaultSchedule>>, String> {
    let horizon = w.config.total_cycles();
    nets.iter()
        .enumerate()
        .map(|(i, n)| {
            let churned = w
                .ops
                .iter()
                .any(|op| matches!(op, OpSpec::Churn { net, control: false, .. } if *net == i));
            match (churned, &w.churn) {
                (true, Some(spec)) => {
                    churn_schedule(&n.clos, spec, horizon, child_seed(seed, 20_000 + i as u64))
                        .map(Some)
                }
                _ => Ok(None),
            }
        })
        .collect()
}

/// Poisson churn over `horizon` cycles, conditioned on holding exactly
/// `spec.events` events: the seed picks which links fail and when, not
/// how many, so per-seed run times differ by routing work, not by a
/// random event count.
fn churn_schedule(
    clos: &FoldedClos,
    spec: &ChurnSpec,
    horizon: u64,
    seed: u64,
) -> Result<FaultSchedule, String> {
    (0..MAX_SCHEDULE_DRAWS)
        .map(|k| {
            FaultSchedule::poisson(
                clos,
                spec.rate,
                spec.mean_downtime,
                horizon,
                child_seed(seed, k),
            )
        })
        .find(|s| s.len() == spec.events)
        .ok_or_else(|| format!("no churn schedule with {} events", spec.events))
}

/// What an op produced.
#[derive(Debug, Clone, PartialEq)]
pub enum Outcome {
    /// A plain run.
    Sim(SimResult),
    /// A tolerance trial.
    Trial(ToleranceTrial),
    /// A churn run.
    Churn(ChurnResult),
}

impl Outcome {
    /// The digest checked against repeats and fingerprints.
    pub fn digest(&self) -> u64 {
        match self {
            Outcome::Sim(r) => check::sim_digest(r),
            Outcome::Trial(t) => check::trial_digest(t),
            Outcome::Churn(c) => check::churn_digest(c),
        }
    }

    /// Simulated statistics, for simulation ops.
    pub fn sim_result(&self) -> Option<&SimResult> {
        match self {
            Outcome::Sim(r) => Some(r),
            Outcome::Churn(c) => Some(&c.result),
            Outcome::Trial(_) => None,
        }
    }
}

/// Everything an op needs, shared by the workers of a round.
pub struct Ctx<'a> {
    /// The workload.
    pub w: &'a Workload,
    /// Its networks.
    pub nets: &'a [Net],
    /// Their simulations (`None` for unsimulated nets).
    pub sims: &'a [Option<Simulation<'a, UpDownRouting>>],
    /// The churn schedule per net (`None` where no churn runs).
    pub schedules: &'a [Option<FaultSchedule>],
    /// The run's seed.
    pub seed: u64,
}

impl Ctx<'_> {
    fn sim(&self, net: usize) -> &Simulation<'_, UpDownRouting> {
        self.sims[net]
            .as_ref()
            .expect("workload tables list only simulated nets")
    }

    /// Runs op `i` at `shards` shards.
    pub fn run_op(&self, i: usize, shards: usize, scratch: &mut RunScratch) -> Outcome {
        let seed = self.w.op_seed(self.seed, i);
        match self.w.ops[i] {
            OpSpec::Sim { net, pattern, load } => Outcome::Sim(
                self.sim(net)
                    .run_sharded_scratch(pattern, load, seed, shards, scratch),
            ),
            OpSpec::Trial { net } => Outcome::Trial(updown_tolerance_trial(
                &self.nets[net].clos,
                &mut SmallRng::seed_from_u64(seed),
            )),
            OpSpec::Churn { net, load, control } => {
                let empty = FaultSchedule::empty();
                let schedule = if control {
                    &empty
                } else {
                    self.schedules[net]
                        .as_ref()
                        .expect("churn nets get a schedule after set-up")
                };
                Outcome::Churn(self.sim(net).run_churn_sharded_scratch(
                    &self.nets[net].clos,
                    schedule,
                    TrafficPattern::Uniform,
                    load,
                    seed,
                    4,
                    shards,
                    scratch,
                ))
            }
        }
    }

    /// Runs the probe at `shards` shards, on fresh engine buffers.
    pub fn run_probe(&self, shards: usize) -> SimResult {
        let (net, pattern, load) = self.w.probe;
        self.sim(net)
            .run_sharded(pattern, load, self.w.probe_seed(self.seed), shards)
    }

    /// Simulated cycles of op `i` (0 for trials).
    pub fn cycles(&self, i: usize) -> u64 {
        match self.w.ops[i] {
            OpSpec::Trial { .. } => 0,
            _ => self.w.config.total_cycles(),
        }
    }
}
