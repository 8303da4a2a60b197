//! `perfbench --workload <name> [--seed N] [--seconds S] [--trace 0|1]`
//!
//! Prints each metric with its unit, then `ops` and `ops_failed`, then
//! the run's facts and, as the last line, one JSON object:
//! `{"correct", "attempted", "failed", "metrics": {name: {value, unit}}}`.
//! A traced run also writes its spans under `$CARGO_TARGET_DIR/traces`
//! (default `.bench_build/traces`). `--record-fingerprints` rewrites
//! the workload's entry in `fingerprints.json` from a run at the
//! default seed.

use std::process::ExitCode;

use perfbench::check::{self, DEFAULT_SEED};
use perfbench::workload::{Size, NAMES};
use perfbench::{one_line, run, write_trace, Options};

const USAGE: &str =
    "usage: perfbench --workload <name> [--seed N] [--seconds S] [--trace 0|1] [--record-fingerprints]";

fn parse(args: &[String]) -> Result<(Options, bool), String> {
    let mut opts = Options {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: 25.0,
        trace: false,
        size: Size::Full,
        fingerprints: None,
    };
    let mut record = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => opts.workload = value()?.clone(),
            "--seed" => opts.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                opts.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(opts.seconds >= 0.0 && opts.seconds.is_finite()) {
                    return Err("--seconds must be a finite number >= 0".into());
                }
            }
            "--trace" => {
                opts.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not {v}")),
                }
            }
            "--record-fingerprints" => record = true,
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if !NAMES.contains(&opts.workload.as_str()) {
        return Err(format!("--workload must be one of {}", NAMES.join(", ")));
    }
    if record && opts.seed != DEFAULT_SEED {
        return Err(format!("fingerprints are recorded at seed {DEFAULT_SEED}"));
    }
    if opts.seed == DEFAULT_SEED && !record {
        opts.fingerprints = Some(check::recorded(&opts.workload)?);
    }
    Ok((opts, record))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (opts, record) = match parse(&args) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let report = match run(&opts) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    if record {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/fingerprints.json");
        if let Err(e) = check::record(path, &opts.workload, &report.digests) {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
        eprintln!("recorded {} fingerprints in {path}", report.digests.len());
    }
    if opts.trace {
        let dir = std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| ".bench_build".into());
        match write_trace(&report, &opts, &format!("{dir}/traces")) {
            Ok(path) => eprintln!("spans written to {path}"),
            Err(e) => {
                eprintln!("error: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    for (m, v) in &report.metrics {
        println!("{} {v} {}", m.name, m.unit);
    }
    println!("ops {}", report.attempted);
    println!("ops_failed {}", report.failed);
    println!("{}", one_line(&report.facts));
    println!("{}", one_line(&report.result_json()));
    ExitCode::SUCCESS
}
