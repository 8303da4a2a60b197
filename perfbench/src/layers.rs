//! Probes the traced run adds to see inside single layers: a routing
//! oracle that counts live queries, and an event-by-event replay of one
//! tolerance trial through the dynamic-network layer.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use rfc_net::routing::fault::ToleranceTrial;
use rfc_net::routing::{RoutingOracle, UpDownRouting};
use rfc_net::topology::{FoldedClos, Link, LinkEvent, LiveClos};

use crate::trace::Tracer;

/// Forwards to up/down routing, counting live next-hop queries.
#[derive(Debug)]
pub struct CountingOracle<'a> {
    inner: &'a UpDownRouting,
    queries: AtomicU64,
}

impl<'a> CountingOracle<'a> {
    /// Wraps `inner` with a zero count.
    pub fn new(inner: &'a UpDownRouting) -> Self {
        CountingOracle {
            inner,
            queries: AtomicU64::new(0),
        }
    }

    /// Live queries answered so far.
    pub fn queries(&self) -> u64 {
        self.queries.load(Ordering::Relaxed)
    }
}

impl RoutingOracle for CountingOracle<'_> {
    fn next_hops_into(&self, current: u32, dst: u32, out: &mut Vec<u32>) {
        // A statistic that publishes no other data: relaxed suffices.
        self.queries.fetch_add(1, Ordering::Relaxed);
        self.inner.next_hops_into(current, dst, out);
    }

    // The table build enumerates rows by run walk; the trait's default
    // per-destination walk would change what the build costs.
    fn for_each_dst_run(&self, current: u32, dst_space: u32, emit: &mut dyn FnMut(u32, &[u32])) {
        self.inner.for_each_dst_run(current, dst_space, emit);
    }
}

/// What the replay of one tolerance trial measured.
#[derive(Debug, Clone, Default)]
pub struct Replay {
    /// The trial's result, which must equal the library's.
    pub trial: Option<ToleranceTrial>,
    /// Host microseconds per `LiveClos::apply` call.
    pub apply_us: Vec<f64>,
    /// Host microseconds per `UpDownRouting::apply_event` call.
    pub repair_us: Vec<f64>,
    /// `RepairScope::changed` size per repair.
    pub changed: Vec<usize>,
    /// `RepairScope::dst_delta` size per repair.
    pub dst_delta: Vec<usize>,
    /// Reach sets recomputed per repair.
    pub recomputed: Vec<usize>,
    /// Whether the repaired table ended equal to a fresh build on the
    /// final topology.
    pub matches_rebuild: bool,
}

struct Seeker<'t> {
    live: LiveClos,
    routing: UpDownRouting,
    down: BTreeMap<Link, usize>,
    applied: usize,
    tr: &'t Tracer,
    parent: Option<u64>,
    out: Replay,
}

impl Seeker<'_> {
    fn event(&mut self, ev: &LinkEvent) {
        let t = Instant::now();
        let flipped = self.tr.span("topology.live_apply", self.parent, 0, |_| {
            self.live.apply(ev)
        });
        self.out.apply_us.push(t.elapsed().as_secs_f64() * 1e6);
        if flipped {
            let t = Instant::now();
            let (live, routing) = (&self.live, &mut self.routing);
            let scope = self.tr.span("routing.apply_event", self.parent, 0, |_| {
                routing.apply_event(live.current(), ev)
            });
            self.out.repair_us.push(t.elapsed().as_secs_f64() * 1e6);
            self.out.changed.push(scope.changed.len());
            self.out.dst_delta.push(scope.dst_delta.len());
            self.out
                .recomputed
                .push(scope.down_recomputed + scope.updown_recomputed);
        }
    }

    // Moves the removal prefix to `links[..target]` with the same
    // fail/recover sequence as `fault::updown_tolerance_trial`: a link
    // listed twice fails with its first copy and recovers with its last.
    fn holds(&mut self, links: &[Link], target: usize) -> bool {
        while self.applied < target {
            let l = links[self.applied];
            let c = self.down.entry(l).or_insert(0);
            *c += 1;
            if *c == 1 {
                self.event(&LinkEvent::fail(l));
            }
            self.applied += 1;
        }
        while self.applied > target {
            self.applied -= 1;
            let l = links[self.applied];
            let c = self.down.get_mut(&l).expect("a link in the prefix is down");
            *c -= 1;
            if *c == 0 {
                self.down.remove(&l);
                self.event(&LinkEvent::recover(l));
            }
        }
        let routing = &self.routing;
        self.tr.span("routing.updown_check", self.parent, 0, |_| {
            routing.has_updown_property()
        })
    }
}

/// Replays the trial `fault::updown_tolerance_trial(clos, seed)` runs,
/// timing each call into the topology and routing layers.
pub fn replay_trial(clos: &FoldedClos, seed: u64, tr: &Tracer, parent: Option<u64>) -> Replay {
    let mut links = clos.links();
    let total = links.len();
    links.shuffle(&mut SmallRng::seed_from_u64(seed));
    let routing = UpDownRouting::new(clos);
    let trial = |tolerated| {
        Some(ToleranceTrial {
            tolerated,
            total_links: total,
        })
    };
    if !routing.has_updown_property() {
        return Replay {
            trial: trial(0),
            matches_rebuild: true,
            ..Replay::default()
        };
    }
    let mut s = Seeker {
        live: LiveClos::new(clos),
        routing,
        down: BTreeMap::new(),
        applied: 0,
        tr,
        parent,
        out: Replay::default(),
    };
    let tolerated = if s.holds(&links, total) {
        total
    } else {
        let (mut lo, mut hi) = (0usize, total);
        while hi - lo > 1 {
            let mid = (lo + hi) / 2;
            if s.holds(&links, mid) {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        lo
    };
    let mut out = s.out;
    out.trial = trial(tolerated);
    out.matches_rebuild = s.routing == UpDownRouting::new(s.live.current());
    out
}
