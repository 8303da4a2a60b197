//! Correctness checks on the simulated statistics of each op.
//!
//! Every op result is reduced to a 64-bit digest of the statistics the
//! simulator promises to reproduce exactly. Repeats of an op within a
//! run must agree, and at the default seed each digest must equal the
//! fingerprint recorded in `fingerprints.json`. A change that moves
//! simulated results therefore shows as failed ops until it is
//! re-recorded on purpose (`--record-fingerprints`).

use std::collections::BTreeMap;

use rfc_net::json::Json;
use rfc_net::routing::fault::ToleranceTrial;
use rfc_net::sim::{ChurnResult, SimResult};

/// The seed whose fingerprints are recorded.
pub const DEFAULT_SEED: u64 = 1;

/// The recorded fingerprints, compiled in so a run reads no file.
const RECORDED: &str = include_str!("../fingerprints.json");

/// Op label → digest.
pub type Fingerprints = BTreeMap<String, u64>;

fn fnv1a(words: &[u64]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for w in words {
        for b in w.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

fn sim_words(r: &SimResult) -> [u64; 10] {
    [
        r.offered_load.to_bits(),
        r.accepted_load.to_bits(),
        r.avg_latency.to_bits(),
        r.latency_p50.to_bits(),
        r.latency_p95.to_bits(),
        r.latency_p99.to_bits(),
        r.delivered_packets,
        r.generated_packets,
        r.refused_packets,
        r.in_flight_at_end,
    ]
}

/// Digest of every `SimResult` field.
pub fn sim_digest(r: &SimResult) -> u64 {
    fnv1a(&sim_words(r))
}

/// Digest of a tolerance trial.
pub fn trial_digest(t: &ToleranceTrial) -> u64 {
    fnv1a(&[t.tolerated as u64, t.total_links as u64])
}

/// Digest of a churn run: its `SimResult`, `events_applied` and
/// `availability`.
pub fn churn_digest(c: &ChurnResult) -> u64 {
    let mut words = sim_words(&c.result).to_vec();
    words.push(c.events_applied as u64);
    words.push(c.availability.to_bits());
    fnv1a(&words)
}

fn parse_file(text: &str) -> Result<Json, String> {
    let doc = Json::parse(text).map_err(|e| format!("fingerprints.json: {e}"))?;
    if doc.get("seed").and_then(Json::as_uint) != Some(DEFAULT_SEED) {
        return Err(format!("fingerprints.json: seed is not {DEFAULT_SEED}"));
    }
    Ok(doc)
}

/// The fingerprints recorded for `workload` (empty when none are).
///
/// # Errors
///
/// A malformed file or a digest that is not 16 hex digits.
pub fn recorded(workload: &str) -> Result<Fingerprints, String> {
    let doc = parse_file(RECORDED)?;
    let Some(Json::Obj(ops)) = doc.get("workloads").and_then(|w| w.get(workload)) else {
        return Ok(Fingerprints::new());
    };
    ops.iter()
        .map(|(label, hex)| {
            hex.as_str()
                .and_then(|h| u64::from_str_radix(h, 16).ok())
                .map(|d| (label.clone(), d))
                .ok_or_else(|| format!("fingerprints.json: bad digest for {label}"))
        })
        .collect()
}

/// Rewrites `path` with `workload`'s fingerprints replaced by `fps`,
/// keeping the other workloads' entries.
///
/// # Errors
///
/// I/O or parse failures.
pub fn record(path: &str, workload: &str, fps: &Fingerprints) -> Result<(), String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let doc = parse_file(&text)?;
    let mut workloads = match doc.get("workloads") {
        Some(Json::Obj(w)) => w.clone(),
        _ => Vec::new(),
    };
    let entry = Json::Obj(
        fps.iter()
            .map(|(label, d)| (label.clone(), Json::Str(format!("{d:016x}"))))
            .collect(),
    );
    match workloads.iter_mut().find(|(k, _)| k == workload) {
        Some((_, v)) => *v = entry,
        None => workloads.push((workload.to_string(), entry)),
    }
    let out = Json::Obj(vec![
        ("seed".into(), Json::Uint(DEFAULT_SEED)),
        ("workloads".into(), Json::Obj(workloads)),
    ]);
    std::fs::write(path, out.render() + "\n").map_err(|e| format!("{path}: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recorded_file_parses_for_every_workload() {
        for w in crate::workload::NAMES {
            recorded(w).unwrap();
        }
    }

    #[test]
    fn digests_see_every_field() {
        let t = ToleranceTrial {
            tolerated: 3,
            total_links: 10,
        };
        let u = ToleranceTrial { tolerated: 4, ..t };
        assert_ne!(trial_digest(&t), trial_digest(&u));
        assert_eq!(trial_digest(&t), trial_digest(&t.clone()));
    }
}
