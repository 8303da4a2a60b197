//! Golden digests for the engine modes the repository benchmark does not
//! fingerprint (it pins uniform traffic without Valiant routing only).
//!
//! Each case hashes every field of a [`SimResult`] (or [`ChurnResult`])
//! with FNV-1a over the exact bit patterns, so any change in any draw,
//! grant or statistic changes the digest. The digests were recorded on
//! the engine as it stood before the request stage cached resolved head
//! routes; a refactor of the hot loop that claims byte-identical results
//! must leave every one of them unchanged, at one shard and at two.
//!
//! Run with `cargo test -p rfc-sim --test golden`; on a mismatch the
//! panic message prints every case's current digest.

use rand::rngs::SmallRng;
use rand::SeedableRng;
use rfc_routing::UpDownRouting;
use rfc_sim::{
    ChurnResult, FaultSchedule, RequestMode, RunScratch, SimConfig, SimNetwork, SimResult,
    Simulation, TrafficPattern,
};
use rfc_topology::FoldedClos;

/// FNV-1a over a stream of 64-bit words.
#[derive(Clone, Copy)]
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn result(&mut self, r: &SimResult) {
        for x in [
            r.offered_load,
            r.accepted_load,
            r.avg_latency,
            r.latency_p50,
            r.latency_p95,
            r.latency_p99,
        ] {
            self.word(x.to_bits());
        }
        for n in [
            r.delivered_packets,
            r.generated_packets,
            r.refused_packets,
            r.in_flight_at_end,
        ] {
            self.word(n);
        }
    }

    fn churn(&mut self, c: &ChurnResult) {
        self.result(&c.result);
        self.word(c.epoch_accepted.len() as u64);
        for x in &c.epoch_accepted {
            self.word(x.to_bits());
        }
        self.word(c.availability.to_bits());
        self.word(c.events_applied as u64);
    }
}

fn cft() -> FoldedClos {
    FoldedClos::cft(6, 3).unwrap()
}

fn rfc() -> FoldedClos {
    let mut rng = SmallRng::seed_from_u64(2017);
    FoldedClos::random(6, 18, 3, &mut rng).unwrap()
}

/// Removes every link of leaf 0 (its terminals become unroutable) plus
/// two more links, so routes elsewhere lose some of their candidates.
fn faulted(clos: &FoldedClos) -> FoldedClos {
    let links = clos.links();
    let mut faults: Vec<_> = links.iter().copied().filter(|l| l.lower == 0).collect();
    faults.push(links[links.len() / 3]);
    faults.push(links[links.len() / 2]);
    clos.with_links_removed(&faults)
}

fn base_cfg() -> SimConfig {
    let mut cfg = SimConfig::quick();
    cfg.warmup_cycles = 200;
    cfg.measure_cycles = 800;
    cfg
}

/// One plain run at shards 1 and 2; both must agree, and the digest is
/// returned.
fn plain(clos: &FoldedClos, cfg: SimConfig, budget: Option<usize>, load: f64) -> u64 {
    let routing = UpDownRouting::new(clos);
    let net = SimNetwork::from_folded_clos(clos);
    let sim = match budget {
        Some(b) => Simulation::with_table_budget(&net, &routing, cfg, b),
        None => Simulation::new(&net, &routing, cfg),
    };
    let mut scratch = RunScratch::new();
    let mut digests = [0u64; 2];
    for (k, shards) in [1usize, 2].into_iter().enumerate() {
        let mut h = Fnv::new();
        for pattern in [TrafficPattern::Uniform, TrafficPattern::RandomPairing] {
            let r = sim.run_sharded_scratch(pattern, load, 13, shards, &mut scratch);
            assert!(r.delivered_packets > 0, "{pattern} delivered nothing");
            h.result(&r);
        }
        digests[k] = h.0;
    }
    assert_eq!(digests[0], digests[1], "shards 1 and 2 diverged");
    digests[0]
}

/// One churn run at shards 1 and 2; both must agree, and the digest is
/// returned.
fn churn(clos: &FoldedClos, cfg: SimConfig, budget: Option<usize>) -> u64 {
    let routing = UpDownRouting::new(clos);
    let net = SimNetwork::from_folded_clos(clos);
    let sim = match budget {
        Some(b) => Simulation::with_table_budget(&net, &routing, cfg, b),
        None => Simulation::new(&net, &routing, cfg),
    };
    let schedule = FaultSchedule::poisson(clos, 0.02, 120.0, cfg.total_cycles(), 5);
    assert!(schedule.len() > 8, "schedule too quiet: {}", schedule.len());
    let mut scratch = RunScratch::new();
    let mut digests = [0u64; 2];
    for (k, shards) in [1usize, 2].into_iter().enumerate() {
        let c = sim.run_churn_sharded_scratch(
            clos,
            &schedule,
            TrafficPattern::Uniform,
            0.9,
            29,
            4,
            shards,
            &mut scratch,
        );
        assert!(c.events_applied > 0);
        let mut h = Fnv::new();
        h.churn(&c);
        digests[k] = h.0;
    }
    assert_eq!(digests[0], digests[1], "shards 1 and 2 diverged");
    digests[0]
}

/// Every case's current digest, in [`EXPECTED`] order.
fn digests() -> Vec<(&'static str, u64)> {
    let valiant = SimConfig {
        valiant_routing: true,
        ..base_cfg()
    };
    let hash = SimConfig {
        request_mode: RequestMode::UpDownHash,
        ..base_cfg()
    };
    let pipelined = SimConfig {
        router_latency: 3,
        ..base_cfg()
    };
    let (cft, rfc) = (cft(), rfc());
    vec![
        ("cft valiant", plain(&cft, valiant, None, 0.7)),
        ("rfc valiant", plain(&rfc, valiant, None, 0.7)),
        ("rfc valiant live", plain(&rfc, valiant, Some(0), 0.7)),
        ("cft hash", plain(&cft, hash, None, 1.0)),
        ("rfc hash", plain(&rfc, hash, None, 1.0)),
        ("cft router latency 3", plain(&cft, pipelined, None, 1.0)),
        ("rfc router latency 3", plain(&rfc, pipelined, None, 1.0)),
        ("cft faulted", plain(&faulted(&cft), base_cfg(), None, 1.0)),
        ("rfc faulted", plain(&faulted(&rfc), base_cfg(), None, 1.0)),
        ("cft churn", churn(&cft, base_cfg(), None)),
        ("rfc churn", churn(&rfc, base_cfg(), None)),
        ("rfc churn valiant", churn(&rfc, valiant, None)),
        ("cft churn live", churn(&cft, base_cfg(), Some(0))),
    ]
}

const EXPECTED: [(&str, u64); 13] = [
    ("cft valiant", 0x8989a3abed847ff0),
    ("rfc valiant", 0x912492920de0c343),
    ("rfc valiant live", 0x912492920de0c343),
    ("cft hash", 0x1d7d20983ae66c98),
    ("rfc hash", 0x2f3ebf9a3b856eda),
    ("cft router latency 3", 0x03fbe07e29378078),
    ("rfc router latency 3", 0x7ce9d01e8911ba18),
    ("cft faulted", 0x2e862d97e780bf5d),
    ("rfc faulted", 0xba2b010cf928c80b),
    ("cft churn", 0x43bba3d2c548df21),
    ("rfc churn", 0xc7f53239e5a154e0),
    ("rfc churn valiant", 0x2fb1fdfd64b17b5a),
    ("cft churn live", 0x43bba3d2c548df21),
];

#[test]
fn golden_digests_are_unchanged() {
    let got = digests();
    let rendered: Vec<String> = got
        .iter()
        .map(|(name, d)| format!("    (\"{name}\", {d:#018x}),"))
        .collect();
    assert_eq!(
        got,
        EXPECTED.to_vec(),
        "golden digests changed; current values:\n{}",
        rendered.join("\n")
    );
}
