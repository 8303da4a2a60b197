//! Times the set-up of the paper's Figure 10 random folded Clos,
//! rfc(36, 11252, 3) with 202,536 terminals: topology draw, up/down
//! routing build, and `Simulation::new` (the candidate-table build,
//! which overflows its 64 MiB budget and falls back to live oracle
//! queries). Prints each stage's wall time, the table outcome, the
//! host's core count and, on Linux, the process's peak resident set
//! (`VmHWM`).
//!
//! ```text
//! cargo run --release --example paper_scale_setup
//! ```

// The example is a stopwatch: wall-clock reads are its output.
#![allow(clippy::disallowed_methods)]

use std::time::Instant;

use rand::rngs::StdRng;
use rand::SeedableRng;

use rfc_net::routing::UpDownRouting;
use rfc_net::sim::{SimConfig, SimNetwork, Simulation};
use rfc_net::topology::FoldedClos;

/// The process's peak resident set from `/proc/self/status`, if any.
fn vm_hwm() -> Option<String> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    Some(line["VmHWM:".len()..].trim().to_string())
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let seed = 2017;
    let cores = std::thread::available_parallelism().map_or(1, usize::from);

    let t0 = Instant::now();
    let mut rng = StdRng::seed_from_u64(seed);
    let clos = FoldedClos::random(36, 11_252, 3, &mut rng)?;
    let net = SimNetwork::from_folded_clos(&clos);
    let topology_s = t0.elapsed().as_secs_f64();

    let t1 = Instant::now();
    let routing = UpDownRouting::new(&clos);
    let routing_s = t1.elapsed().as_secs_f64();

    let t2 = Instant::now();
    let sim = Simulation::new(&net, &routing, SimConfig::default());
    let setup_s = t2.elapsed().as_secs_f64();

    let table = sim
        .candidate_table_bytes()
        .map_or_else(|| "live".to_string(), |b| format!("{b} bytes"));
    println!(
        "rfc(36,11252,3) seed {seed}: {} switches, {} terminals",
        net.num_switches(),
        net.num_terminals()
    );
    println!("topology    {topology_s:.2} s");
    println!("routing     {routing_s:.2} s");
    println!("Simulation::new {setup_s:.2} s (table: {table})");
    println!("host_cores  {cores}");
    println!(
        "VmHWM       {}",
        vm_hwm().unwrap_or_else(|| "n/a".to_string())
    );
    Ok(())
}
