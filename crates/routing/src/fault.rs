//! Fault tolerance of the up/down routing property (the paper's
//! Figure 11).
//!
//! The experiment: remove inter-switch links one by one in a uniformly
//! random order and record the largest removal count after which every
//! leaf pair still shares a common ancestor. Networks sized exactly at
//! the Theorem 4.2 threshold tolerate almost nothing; a slack radix
//! (positive `x`) buys tolerance — scalability traded for
//! fault-tolerance.
//!
//! A trial is one forward scan over the shuffled link list: each link
//! fails on a [`LiveClos`] overlay, one [`UpDownRouting`] table repairs
//! incrementally ([`UpDownRouting::apply_event`]), and the scan stops at
//! the first removal that breaks the property. Removing links only
//! removes ancestors, so the property is monotone in the removal prefix
//! and the first failing prefix is one past the largest tolerated one.
//! A trial with answer `t` therefore runs at most `t + 1` repairs and
//! no recover events; a network that lacks the property after its
//! first removal (every OFT) stops after one. The repaired table is
//! byte-identical to a fresh build at every prefix, so the answer is
//! the one a clone-and-rebuild search finds.

use rand::seq::SliceRandom;
use rand::Rng;

use rfc_topology::{FoldedClos, Link, LinkEvent, LiveClos};

use crate::UpDownRouting;

/// Result of one random-removal tolerance trial.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ToleranceTrial {
    /// Largest number of removed links for which the up/down property
    /// still held (0 when the intact network already lacks it … `total`
    /// when it survives every removal).
    pub tolerated: usize,
    /// Total inter-switch links in the intact network.
    pub total_links: usize,
}

impl ToleranceTrial {
    /// Tolerated removals as a fraction of all links.
    pub fn fraction(&self) -> f64 {
        if self.total_links == 0 {
            return 0.0;
        }
        self.tolerated as f64 / self.total_links as f64
    }
}

/// Runs one tolerance trial: shuffles the link list and finds the
/// largest removal prefix preserving the up/down property.
pub fn updown_tolerance_trial<R: Rng + ?Sized>(clos: &FoldedClos, rng: &mut R) -> ToleranceTrial {
    let mut links: Vec<Link> = clos.links();
    links.shuffle(rng);
    ToleranceTrial {
        tolerated: scan_removals(clos, &links).0,
        total_links: links.len(),
    }
}

/// Fails `links` in order until the up/down property breaks. Returns
/// the largest prefix length that keeps the property and the number of
/// incremental repairs run. The link list enumerates parallel copies
/// individually, but one fail event removes them all (as
/// [`FoldedClos::with_links_removed`] does), so a later copy is a no-op
/// that leaves the property as it was.
fn scan_removals(clos: &FoldedClos, links: &[Link]) -> (usize, usize) {
    let mut routing = UpDownRouting::new(clos);
    if !routing.has_updown_property() {
        return (0, 0);
    }
    let mut live = LiveClos::new(clos);
    let mut repairs = 0;
    for (k, &link) in links.iter().enumerate() {
        let ev = LinkEvent::fail(link);
        if !live.apply(&ev) {
            continue;
        }
        routing.apply_event(live.current(), &ev);
        repairs += 1;
        if !routing.has_updown_property() {
            return (k, repairs);
        }
    }
    (links.len(), repairs)
}

/// Mean tolerated fraction over `trials` random removal orders.
pub fn mean_updown_tolerance<R: Rng + ?Sized>(
    clos: &FoldedClos,
    trials: usize,
    rng: &mut R,
) -> f64 {
    if trials == 0 {
        return 0.0;
    }
    let mut acc = 0.0;
    for _ in 0..trials {
        acc += updown_tolerance_trial(clos, rng).fraction();
    }
    acc / trials as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::collections::BTreeSet;

    #[test]
    fn cft_tolerates_some_faults() {
        // CFT(8, 3) has 4 ECMP ancestors per leaf pair; a single removal
        // never kills the property, so tolerance is strictly positive.
        let net = FoldedClos::cft(8, 3).unwrap();
        let mut rng = StdRng::seed_from_u64(1);
        let t = updown_tolerance_trial(&net, &mut rng);
        assert!(t.tolerated >= 1);
        assert!(t.tolerated < t.total_links);
        assert!(t.fraction() > 0.0 && t.fraction() < 1.0);
    }

    #[test]
    fn two_level_oft_has_zero_tolerance() {
        // Up/down paths are unique in the 2-level OFT: the first removed
        // link disconnects some pair, as the paper observes.
        let net = FoldedClos::oft(3, 2).unwrap();
        let mut rng = StdRng::seed_from_u64(2);
        let t = updown_tolerance_trial(&net, &mut rng);
        assert_eq!(t.tolerated, 0);
    }

    #[test]
    fn oversized_rfc_beats_threshold_rfc() {
        // Same leaf count, one RFC at a generous radix and one at a tight
        // radix: the generous one must tolerate more faults on average.
        let mut rng = StdRng::seed_from_u64(3);
        let generous = FoldedClos::random(16, 32, 2, &mut rng).unwrap();
        let tight = FoldedClos::random(6, 32, 2, &mut rng).unwrap();
        let g = mean_updown_tolerance(&generous, 5, &mut rng);
        let t = mean_updown_tolerance(&tight, 5, &mut rng);
        assert!(g > t, "generous {g} vs tight {t}");
    }

    #[test]
    fn already_broken_network_reports_zero() {
        let mut rng = StdRng::seed_from_u64(4);
        let net = FoldedClos::random(4, 64, 2, &mut rng).unwrap();
        let t = updown_tolerance_trial(&net, &mut rng);
        assert_eq!(
            t.tolerated, 0,
            "below-threshold RFC lacks the property outright"
        );
        assert_eq!(mean_updown_tolerance(&net, 3, &mut rng), 0.0);
    }

    /// `clos` with one link rewired into a parallel copy of another:
    /// `(a, u)` and `(b, v)` become `(a, v)` and `(b, u)`, where `(a, v)`
    /// already exists. Every switch keeps its degree.
    fn with_parallel_copy(clos: &FoldedClos) -> FoldedClos {
        let mut links = clos.links();
        let Link { lower: a, upper: v } = links[0];
        let au = links
            .iter()
            .position(|l| l.lower == a && l.upper != v)
            .unwrap();
        let bv = links
            .iter()
            .position(|l| l.upper == v && l.lower != a)
            .unwrap();
        let u = links[au].upper;
        links[au].upper = v;
        links[bv].upper = u;
        let sizes: Vec<usize> = (0..clos.num_levels()).map(|l| clos.level_size(l)).collect();
        FoldedClos::from_links(
            clos.kind(),
            clos.radix(),
            clos.terminals_per_leaf(),
            &sizes,
            &links,
        )
        .unwrap()
    }

    /// Networks covering every shape a trial meets: unique up/down paths
    /// (OFTs), ECMP (a CFT), a random Clos above and one below the
    /// threshold, and a link list holding a parallel copy.
    fn trial_nets() -> Vec<FoldedClos> {
        let rfc = FoldedClos::random(8, 24, 3, &mut StdRng::seed_from_u64(5)).unwrap();
        let doubled = with_parallel_copy(&rfc);
        let mut links = doubled.links();
        let listed = links.len();
        links.sort_unstable();
        links.dedup();
        assert!(
            links.len() < listed,
            "the rewired RFC lists a parallel copy"
        );
        vec![
            FoldedClos::oft(3, 2).unwrap(),
            FoldedClos::oft(2, 3).unwrap(),
            FoldedClos::cft(6, 3).unwrap(),
            rfc,
            FoldedClos::random(4, 64, 2, &mut StdRng::seed_from_u64(4)).unwrap(),
            doubled,
        ]
    }

    #[test]
    fn incremental_search_matches_full_rebuild_reference() {
        // The forward scan must agree with the original clone-and-rebuild
        // bisection on the same shuffle: the property is monotone in the
        // removal prefix, so the first failing prefix is one past the
        // largest holding one.
        let reference = |clos: &FoldedClos, rng: &mut StdRng| -> ToleranceTrial {
            let mut links: Vec<Link> = clos.links();
            let total = links.len();
            links.shuffle(rng);
            if !UpDownRouting::new(clos).has_updown_property() {
                return ToleranceTrial {
                    tolerated: 0,
                    total_links: total,
                };
            }
            let holds = |k: usize| -> bool {
                let faulty = clos.with_links_removed(&links[..k]);
                UpDownRouting::new(&faulty).has_updown_property()
            };
            if holds(total) {
                return ToleranceTrial {
                    tolerated: total,
                    total_links: total,
                };
            }
            let (mut lo, mut hi) = (0usize, total);
            while hi - lo > 1 {
                let mid = (lo + hi) / 2;
                if holds(mid) {
                    lo = mid;
                } else {
                    hi = mid;
                }
            }
            ToleranceTrial {
                tolerated: lo,
                total_links: total,
            }
        };
        for net in &trial_nets() {
            for seed in 0..5 {
                let trial = updown_tolerance_trial(net, &mut StdRng::seed_from_u64(seed));
                assert_eq!(
                    trial,
                    reference(net, &mut StdRng::seed_from_u64(seed)),
                    "{:?} seed {seed}",
                    net.kind()
                );
            }
        }
    }

    #[test]
    fn a_trial_repairs_at_most_once_past_its_answer() {
        // Every distinct link of the scanned prefix costs one repair; a
        // parallel copy of a link already failed costs none.
        let check = |net: &FoldedClos, links: &[Link]| -> usize {
            let (tolerated, repairs) = scan_removals(net, links);
            assert!(
                repairs <= tolerated + 1,
                "{tolerated} tolerated, {repairs} repairs"
            );
            let scanned = if UpDownRouting::new(net).has_updown_property() {
                (tolerated + 1).min(links.len())
            } else {
                0
            };
            let distinct: BTreeSet<&Link> = links[..scanned].iter().collect();
            assert_eq!(repairs, distinct.len(), "{tolerated} tolerated");
            tolerated
        };
        let nets = trial_nets();
        for net in &nets {
            for seed in 0..5 {
                let mut links = net.links();
                links.shuffle(&mut StdRng::seed_from_u64(seed));
                check(net, &links);
            }
        }
        // Both copies of the doubled link first: the second is skipped.
        let doubled = &nets[nets.len() - 1];
        let mut links = doubled.links();
        let twin = links[(1..links.len())
            .find(|&i| links[..i].contains(&links[i]))
            .unwrap()];
        links.retain(|&l| l != twin);
        links.splice(0..0, [twin, twin]);
        assert!(check(doubled, &links) >= 2, "the copy was reached");
        // An OFT loses the property on its first removal: one repair.
        for net in [
            FoldedClos::oft(3, 2).unwrap(),
            FoldedClos::oft(4, 3).unwrap(),
        ] {
            let mut links = net.links();
            links.shuffle(&mut StdRng::seed_from_u64(1));
            assert_eq!(scan_removals(&net, &links), (0, 1));
        }
    }
}
