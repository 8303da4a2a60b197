//! The committed ratchet baseline (`xtask-ratchet.toml`).
//!
//! The baseline records, per crate, how many `.unwrap()` / `.expect(` /
//! panic-macro sites exist in non-test code (enforced by `cargo xtask
//! lint`), how many potentially-lossy `as` casts (enforced by
//! `cargo xtask audit`, see [`crate::casts`]), and how many lock-type /
//! atomic-type sync primitives (enforced by `cargo xtask conc`, see
//! [`crate::conc`]). Each check fails when its count *rises* above the
//! baseline, and reports (without failing) when a count has dropped so
//! the baseline can be tightened with `--write-ratchet`. The file is
//! parsed with a purpose-built reader rather than a TOML dependency:
//! the format is a fixed table of integer keys under `[crate.<name>]`
//! sections. (The per-scale routing-memory ratchet is not here: it
//! lives in `engine_baseline --check`, next to the measurement it
//! gates; see DESIGN.md §15.)

use std::collections::BTreeMap;

use crate::casts::CastCounts;
use crate::conc::SyncCounts;
use crate::rules::PanicCounts;

/// Per-crate baseline: the panic surface plus the lossy-cast and
/// sync-primitive counts.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BaselineCounts {
    /// Panic-surface portion (ratcheted by `cargo xtask lint`).
    pub panic: PanicCounts,
    /// Potentially-lossy cast count (ratcheted by `cargo xtask audit`).
    /// Files written before the audit existed default to 0.
    pub lossy_cast: usize,
    /// Sync-primitive counts (ratcheted by `cargo xtask conc`). Files
    /// written before the conc pass existed default to 0.
    pub sync: SyncCounts,
}

/// Parses the ratchet file. Returns crate name → baseline counts, or a
/// description of the first malformed line.
pub fn parse(text: &str) -> Result<BTreeMap<String, BaselineCounts>, String> {
    let mut out: BTreeMap<String, BaselineCounts> = BTreeMap::new();
    let mut current: Option<String> = None;
    for (idx, raw) in text.lines().enumerate() {
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        if let Some(section) = line.strip_prefix('[').and_then(|l| l.strip_suffix(']')) {
            let name = section
                .strip_prefix("crate.")
                .ok_or_else(|| format!("line {}: expected [crate.<name>]", idx + 1))?;
            if out.contains_key(name) {
                return Err(format!("line {}: duplicate crate `{name}`", idx + 1));
            }
            out.insert(name.to_string(), BaselineCounts::default());
            current = Some(name.to_string());
            continue;
        }
        let (key, value) = line
            .split_once('=')
            .ok_or_else(|| format!("line {}: expected `key = value`", idx + 1))?;
        let crate_name = current
            .as_ref()
            .ok_or_else(|| format!("line {}: key outside a [crate.*] section", idx + 1))?;
        let n: usize = value
            .trim()
            .parse()
            .map_err(|_| format!("line {}: value is not an integer", idx + 1))?;
        let entry = out
            .get_mut(crate_name)
            .expect("section inserted on open above");
        match key.trim() {
            "unwrap" => entry.panic.unwrap = n,
            "expect" => entry.panic.expect = n,
            "panic" => entry.panic.panic = n,
            "lossy-cast" => entry.lossy_cast = n,
            "sync-lock" => entry.sync.lock = n,
            "sync-atomic" => entry.sync.atomic = n,
            other => return Err(format!("line {}: unknown key `{other}`", idx + 1)),
        }
    }
    Ok(out)
}

/// Renders a baseline back to the canonical file format from the three
/// measured crate tables (which cover the same crate set).
pub fn render(
    panic: &BTreeMap<String, PanicCounts>,
    casts: &BTreeMap<String, CastCounts>,
    sync: &BTreeMap<String, SyncCounts>,
) -> String {
    let mut out = String::from(
        "# Ratchet baselines enforced by the in-tree analyzer.\n\
         #\n\
         # unwrap/expect/panic cover `.unwrap()`, `.expect(` and panic!-family\n\
         # macros in NON-TEST code (`cargo xtask lint`); lossy-cast counts\n\
         # potentially-lossy `as` casts (`cargo xtask audit`, DESIGN.md §12);\n\
         # sync-lock/sync-atomic count lock-type and atomic-type mentions\n\
         # (`cargo xtask conc`, DESIGN.md §14).\n\
         # Each ratchet only turns one way: a count may drop (tighten with\n\
         # `cargo xtask lint --all --write-ratchet`) but any increase fails.\n",
    );
    for (name, counts) in panic {
        let lossy = casts.get(name).map(|c| c.lossy).unwrap_or(0);
        let s = sync.get(name).copied().unwrap_or_default();
        out.push_str(&format!(
            "\n[crate.{name}]\nunwrap = {}\nexpect = {}\npanic = {}\nlossy-cast = {lossy}\n\
             sync-lock = {}\nsync-atomic = {}\n",
            counts.unwrap, counts.expect, counts.panic, s.lock, s.atomic
        ));
    }
    out
}

/// Compares the measured panic surface against the baseline.
///
/// Returns `(failures, improvements)`: failures are regressions or
/// bookkeeping errors (unknown/missing crates) that must fail the lint;
/// improvements are counts now below baseline, reported as a nudge to
/// re-tighten.
pub fn compare(
    baseline: &BTreeMap<String, BaselineCounts>,
    measured: &BTreeMap<String, PanicCounts>,
) -> (Vec<String>, Vec<String>) {
    let mut failures = Vec::new();
    let mut improvements = Vec::new();
    for (name, have) in measured {
        let Some(want) = baseline.get(name) else {
            failures.push(format!(
                "crate `{name}` is missing from xtask-ratchet.toml (found {} panic sites); \
                 add it with `cargo xtask lint --write-ratchet`",
                have.total()
            ));
            continue;
        };
        for (kind, h, w) in [
            ("unwrap", have.unwrap, want.panic.unwrap),
            ("expect", have.expect, want.panic.expect),
            ("panic", have.panic, want.panic.panic),
        ] {
            if h > w {
                failures.push(format!(
                    "crate `{name}`: {kind} count rose to {h} (baseline {w}); \
                     the panic-surface ratchet only turns downward"
                ));
            } else if h < w {
                improvements.push(format!(
                    "crate `{name}`: {kind} count is {h}, below baseline {w} — \
                     tighten with `cargo xtask lint --write-ratchet`"
                ));
            }
        }
    }
    for name in baseline.keys() {
        if !measured.contains_key(name) {
            failures.push(format!(
                "xtask-ratchet.toml lists crate `{name}` which is not in the workspace; \
                 remove it with `cargo xtask lint --write-ratchet`"
            ));
        }
    }
    (failures, improvements)
}

/// Compares the measured lossy-cast counts against the baseline
/// (`cargo xtask audit`). Same one-way contract as [`compare`].
pub fn compare_lossy(
    baseline: &BTreeMap<String, BaselineCounts>,
    measured: &BTreeMap<String, CastCounts>,
) -> (Vec<String>, Vec<String>) {
    let mut failures = Vec::new();
    let mut improvements = Vec::new();
    for (name, have) in measured {
        let Some(want) = baseline.get(name) else {
            failures.push(format!(
                "crate `{name}` is missing from xtask-ratchet.toml (found {} lossy casts); \
                 add it with `cargo xtask audit --write-ratchet`",
                have.lossy
            ));
            continue;
        };
        if have.lossy > want.lossy_cast {
            failures.push(format!(
                "crate `{name}`: lossy-cast count rose to {} (baseline {}); convert the new \
                 casts to `try_from` or justify them with \
                 `// xtask: allow(lossy-cast) — <invariant>`",
                have.lossy, want.lossy_cast
            ));
        } else if have.lossy < want.lossy_cast {
            improvements.push(format!(
                "crate `{name}`: lossy-cast count is {}, below baseline {} — \
                 tighten with `cargo xtask audit --write-ratchet`",
                have.lossy, want.lossy_cast
            ));
        }
    }
    for name in baseline.keys() {
        if !measured.contains_key(name) {
            failures.push(format!(
                "xtask-ratchet.toml lists crate `{name}` which is not in the workspace; \
                 remove it with `cargo xtask audit --write-ratchet`"
            ));
        }
    }
    (failures, improvements)
}

/// Compares the measured sync-primitive counts against the baseline
/// (`cargo xtask conc`). Same one-way contract as [`compare`].
pub fn compare_sync(
    baseline: &BTreeMap<String, BaselineCounts>,
    measured: &BTreeMap<String, SyncCounts>,
) -> (Vec<String>, Vec<String>) {
    let mut failures = Vec::new();
    let mut improvements = Vec::new();
    for (name, have) in measured {
        let Some(want) = baseline.get(name) else {
            failures.push(format!(
                "crate `{name}` is missing from xtask-ratchet.toml (found {} sync sites); \
                 add it with `cargo xtask lint --all --write-ratchet`",
                have.total()
            ));
            continue;
        };
        for (kind, h, w) in [
            ("sync-lock", have.lock, want.sync.lock),
            ("sync-atomic", have.atomic, want.sync.atomic),
        ] {
            if h > w {
                failures.push(format!(
                    "crate `{name}`: {kind} count rose to {h} (baseline {w}); new \
                     concurrency surface must be deliberate — justify the growth and \
                     re-baseline with `cargo xtask lint --all --write-ratchet`"
                ));
            } else if h < w {
                improvements.push(format!(
                    "crate `{name}`: {kind} count is {h}, below baseline {w} — \
                     tighten with `cargo xtask lint --all --write-ratchet`"
                ));
            }
        }
    }
    for name in baseline.keys() {
        if !measured.contains_key(name) {
            failures.push(format!(
                "xtask-ratchet.toml lists crate `{name}` which is not in the workspace; \
                 remove it with `cargo xtask lint --all --write-ratchet`"
            ));
        }
    }
    (failures, improvements)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn counts(unwrap: usize, expect: usize, panic: usize) -> PanicCounts {
        PanicCounts {
            unwrap,
            expect,
            panic,
        }
    }

    fn baseline(unwrap: usize, expect: usize, panic: usize, lossy: usize) -> BaselineCounts {
        BaselineCounts {
            panic: counts(unwrap, expect, panic),
            lossy_cast: lossy,
            sync: SyncCounts::default(),
        }
    }

    fn sync(lock: usize, atomic: usize) -> SyncCounts {
        SyncCounts { lock, atomic }
    }

    fn lossy(n: usize) -> CastCounts {
        CastCounts {
            lossy: n,
            ..CastCounts::default()
        }
    }

    #[test]
    fn parse_render_round_trips() {
        let mut panic = BTreeMap::new();
        panic.insert("core".to_string(), counts(3, 5, 1));
        panic.insert("sim".to_string(), counts(0, 4, 2));
        let mut casts = BTreeMap::new();
        casts.insert("core".to_string(), lossy(7));
        casts.insert("sim".to_string(), lossy(0));
        let mut syncs = BTreeMap::new();
        syncs.insert("core".to_string(), sync(1, 0));
        syncs.insert("sim".to_string(), sync(2, 3));
        let text = render(&panic, &casts, &syncs);
        let parsed = parse(&text).expect("rendered file must parse");
        assert_eq!(
            parsed["core"],
            BaselineCounts {
                panic: counts(3, 5, 1),
                lossy_cast: 7,
                sync: sync(1, 0),
            }
        );
        assert_eq!(
            parsed["sim"],
            BaselineCounts {
                panic: counts(0, 4, 2),
                lossy_cast: 0,
                sync: sync(2, 3),
            }
        );
    }

    #[test]
    fn parse_accepts_pre_audit_files_without_newer_keys() {
        let parsed = parse("[crate.a]\nunwrap = 1\nexpect = 2\npanic = 0\n")
            .expect("pre-audit files must stay parseable");
        assert_eq!(parsed["a"], baseline(1, 2, 0, 0));
    }

    #[test]
    fn parse_rejects_malformed_input() {
        assert!(parse("[notcrate.core]\n").is_err());
        assert!(parse("[scale.small]\n").is_err(), "no scale sections");
        assert!(parse("unwrap = 3\n").is_err(), "key before any section");
        assert!(parse("[crate.a]\nunwrap = x\n").is_err());
        assert!(parse("[crate.a]\nwibble = 3\n").is_err());
        assert!(parse("[crate.a]\n[crate.a]\n").is_err(), "duplicate crate");
    }

    #[test]
    fn compare_flags_regressions_and_improvements() {
        let mut base = BTreeMap::new();
        base.insert("a".to_string(), baseline(2, 2, 0, 0));
        base.insert("gone".to_string(), baseline(0, 0, 0, 0));
        let mut measured = BTreeMap::new();
        measured.insert("a".to_string(), counts(3, 1, 0));
        measured.insert("new".to_string(), counts(0, 0, 0));
        let (failures, improvements) = compare(&base, &measured);
        assert_eq!(
            failures.len(),
            3,
            "regression + unknown crate + stale crate"
        );
        assert!(failures.iter().any(|f| f.contains("unwrap count rose")));
        assert!(failures.iter().any(|f| f.contains("missing from")));
        assert!(failures.iter().any(|f| f.contains("not in the workspace")));
        assert_eq!(improvements.len(), 1);
        assert!(improvements[0].contains("expect count is 1"));
    }

    #[test]
    fn compare_lossy_flags_regressions_and_improvements() {
        let mut base = BTreeMap::new();
        base.insert("a".to_string(), baseline(0, 0, 0, 5));
        base.insert("b".to_string(), baseline(0, 0, 0, 2));
        base.insert("gone".to_string(), baseline(0, 0, 0, 0));
        let mut measured = BTreeMap::new();
        measured.insert("a".to_string(), lossy(6));
        measured.insert("b".to_string(), lossy(1));
        measured.insert("new".to_string(), lossy(0));
        let (failures, improvements) = compare_lossy(&base, &measured);
        assert_eq!(failures.len(), 3, "{failures:?}");
        assert!(failures
            .iter()
            .any(|f| f.contains("lossy-cast count rose to 6")));
        assert_eq!(improvements.len(), 1);
        assert!(improvements[0].contains("lossy-cast count is 1"));
    }

    #[test]
    fn compare_sync_flags_regressions_and_improvements() {
        let mut base = BTreeMap::new();
        base.insert(
            "a".to_string(),
            BaselineCounts {
                sync: sync(1, 4),
                ..BaselineCounts::default()
            },
        );
        base.insert("gone".to_string(), baseline(0, 0, 0, 0));
        let mut measured = BTreeMap::new();
        measured.insert("a".to_string(), sync(2, 3));
        measured.insert("new".to_string(), sync(0, 0));
        let (failures, improvements) = compare_sync(&base, &measured);
        assert_eq!(failures.len(), 3, "{failures:?}");
        assert!(failures
            .iter()
            .any(|f| f.contains("sync-lock count rose to 2")));
        assert!(failures.iter().any(|f| f.contains("missing from")));
        assert!(failures.iter().any(|f| f.contains("not in the workspace")));
        assert_eq!(improvements.len(), 1);
        assert!(improvements[0].contains("sync-atomic count is 3"));
    }
}
