//! The ECMP candidate lookup (DESIGN.md §15): the deduplicated,
//! run-length-compressed candidate table, its bounded build and its
//! region-scoped patch, with live oracle queries as the fallback when
//! the table would exceed its byte budget.
//!
//! The engine reads candidates through exactly two calls, whichever
//! form backs them: [`Candidates::key`] names a head's candidate row
//! once, and [`Candidates::ports`] returns that row's out-ports on
//! every visit.

use rfc_graph::vid;
use rfc_routing::{RepairScope, RoutingOracle};

use crate::network::SimNetwork;

/// Precomputed ECMP candidate lists. Routing oracles are deterministic
/// per `(switch, destination)` pair, and the request stage queries them
/// for every head packet every cycle — so for all but huge networks the
/// answers are materialized once, fully *resolved to output ports*,
/// removing the per-request neighbor binary search from the cycle loop.
#[derive(Debug, Clone)]
pub(crate) enum Candidates {
    /// Materialized, deduplicated, run-length-compressed table.
    Table(RleTable),
    /// Table would exceed the byte budget (or its offsets would overflow
    /// `u32`); query the oracle live.
    Live,
}

impl Candidates {
    /// The table for `net` under `budget` bytes, or live queries when
    /// it does not fit (see [`build_table`]).
    pub(crate) fn build<O: RoutingOracle + Sync>(
        net: &SimNetwork,
        oracle: &O,
        budget: usize,
    ) -> Self {
        build_table(net, oracle, dst_space(net), budget)
            .0
            .map_or(Candidates::Live, Candidates::Table)
    }

    /// The candidates after a routing repair: the table patched over the
    /// repair's dirty region (see [`patch_table`]), or live queries when
    /// the patch overflows `budget` or the table was live already.
    pub(crate) fn patched<O: RoutingOracle>(
        &self,
        net: &SimNetwork,
        oracle: &O,
        scope: &RepairScope,
        budget: usize,
    ) -> Self {
        match self {
            Candidates::Table(old) => patch_table(net, oracle, old, scope, budget)
                .map_or(Candidates::Live, Candidates::Table),
            Candidates::Live => Candidates::Live,
        }
    }

    /// The materialized table, if the build fit its budget.
    pub(crate) fn table(&self) -> Option<&RleTable> {
        match self {
            Candidates::Table(table) => Some(table),
            Candidates::Live => None,
        }
    }

    /// The key of the candidate row toward `target` at `switch`: the
    /// table's interned row id, or `target` itself when queried live.
    #[inline]
    pub(crate) fn key(&self, switch: u32, target: u32) -> u32 {
        match self {
            Candidates::Table(table) => table.row_id(switch, target),
            Candidates::Live => target,
        }
    }

    /// The resolved out-ports of the row `key` names at `switch`, in
    /// oracle order; empty when unroutable. A table answers from its
    /// pool; live queries ask `oracle` and resolve into `buf`.
    ///
    /// # Panics
    ///
    /// Live queries panic like the table build does when the oracle
    /// names a non-neighbor (see [`resolve_out_ports`]).
    #[inline]
    pub(crate) fn ports<'b, O: RoutingOracle + ?Sized>(
        &'b self,
        switch: u32,
        key: u32,
        oracle: &O,
        net: &SimNetwork,
        buf: &'b mut Vec<u32>,
    ) -> &'b [u32] {
        match self {
            Candidates::Table(table) => table.pool_row(key as usize),
            Candidates::Live => {
                buf.clear();
                oracle.next_hops_into(switch, key, buf);
                resolve_out_ports(net, switch, buf);
                buf
            }
        }
    }
}

/// The deduplicated candidate table (DESIGN.md §15).
///
/// Three compressions stack on the old `switches × dst_space` matrix:
///
/// 1. **Rows resolve once** — a row is the out-port list one `(switch,
///    dst)` query yields, in oracle order (the cached-vs-live agreement
///    contract depends on that order).
/// 2. **Rows intern per switch** — a switch's identical rows share one
///    entry in the `row_off`/`row_ports` pool, so a switch contributes
///    one entry per *distinct* answer. Rows hold the switch's own
///    global out-port ids, so two switches' non-empty rows never
///    coincide: only the empty row ("unroutable") is shared pool-wide.
/// 3. **Columns run-length-compress** — per switch, destinations with
///    the same row collapse into `[start, next_start)` runs, which
///    folded-Clos reach sets keep to a few dozen per switch regardless
///    of the destination count.
///
/// Lookup is a binary search over the switch's runs (few dozen entries,
/// ~5 probes) instead of one flat index — measurably free next to the
/// draw + arbitration work per request.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct RleTable {
    pub(crate) dst_space: usize,
    /// Runs of switch `s` live at `col_off[s] .. col_off[s+1]` in the
    /// two parallel run arrays.
    pub(crate) col_off: Vec<u32>,
    /// Ascending first-destination of each run; the first run of every
    /// switch starts at 0, the last extends to `dst_space`.
    pub(crate) runs_start: Vec<u32>,
    /// Interned row id of each run.
    pub(crate) runs_row: Vec<u32>,
    /// Row `r`'s resolved out-ports live at `row_off[r] .. row_off[r+1]`
    /// in `row_ports`.
    pub(crate) row_off: Vec<u32>,
    pub(crate) row_ports: Vec<u32>,
}

impl RleTable {
    /// The interned row id for `(switch, dst)`: a binary search over
    /// the switch's runs.
    #[inline]
    fn row_id(&self, switch: u32, dst: u32) -> u32 {
        let lo = self.col_off[switch as usize] as usize;
        let hi = self.col_off[switch as usize + 1] as usize;
        let runs = &self.runs_start[lo..hi];
        // Last run starting at or before dst; every switch's first run
        // starts at 0, so the subtraction cannot underflow.
        self.runs_row[lo + runs.partition_point(|&s| s <= dst) - 1]
    }

    /// The resolved out-ports for `(switch, dst)`; empty when unroutable.
    #[cfg(test)]
    pub(crate) fn row(&self, switch: u32, dst: u32) -> &[u32] {
        self.pool_row(self.row_id(switch, dst) as usize)
    }

    /// Row `r` of the pool.
    #[inline]
    fn pool_row(&self, r: usize) -> &[u32] {
        &self.row_ports[self.row_off[r] as usize..self.row_off[r + 1] as usize]
    }

    /// Logical bytes of the five arrays — the quantity checked against
    /// the build budget and reported to the memory ratchet.
    pub(crate) fn bytes(&self) -> usize {
        rfc_graph::slice_heap_bytes(&self.col_off)
            + rfc_graph::slice_heap_bytes(&self.runs_start)
            + rfc_graph::slice_heap_bytes(&self.runs_row)
            + rfc_graph::slice_heap_bytes(&self.row_off)
            + rfc_graph::slice_heap_bytes(&self.row_ports)
    }
}

/// A fresh, zero-switch [`RleTable`] ready for stitching.
fn empty_table(dst_space: usize) -> RleTable {
    RleTable {
        dst_space,
        col_off: vec![0u32],
        runs_start: Vec::new(),
        runs_row: Vec::new(),
        row_off: vec![0u32],
        row_ports: Vec::new(),
    }
}

/// Up to this many distinct rows a switch finds a row by linear scan;
/// past it, through the hashed index. A CFT switch holds about R/2 + 2
/// distinct rows, and on cft(36,4) scanning up to 16 rows builds the
/// table faster than hashing from the 9th.
const SCAN_ROWS: usize = 16;

/// Deterministic content hash of one row (FxHash-style multiply-rotate;
/// no hasher state, so the index probes identically on every run).
fn row_hash(ports: &[u32]) -> usize {
    let mut h = ports.len() as u64;
    for &p in ports {
        h = (h.rotate_left(5) ^ u64::from(p)).wrapping_mul(0x517c_c1b7_2722_0a95);
    }
    // The multiply mixes upward; fold the high half into the low bits
    // the slot mask keeps.
    (h ^ (h >> 32)) as usize
}

/// One switch's runs with switch-locally interned rows.
struct SwitchRuns {
    starts: Vec<u32>,
    /// Index into the local row pool, per run.
    rows: Vec<u32>,
    local_off: Vec<u32>,
    local_ports: Vec<u32>,
    /// Open-addressed index over the local rows, built once the pool
    /// outgrows [`SCAN_ROWS`]: a slot holds local id + 1 (0 = vacant),
    /// and the length is a power of two at least twice the row count.
    slots: Vec<u32>,
}

impl SwitchRuns {
    fn empty() -> Self {
        SwitchRuns {
            starts: Vec::new(),
            rows: Vec::new(),
            local_off: vec![0u32],
            local_ports: Vec::new(),
            slots: Vec::new(),
        }
    }

    /// Resets to empty, keeping allocations — the patch loop reuses one
    /// instance across every dirty switch.
    fn clear(&mut self) {
        self.starts.clear();
        self.rows.clear();
        self.local_off.clear();
        self.local_off.push(0);
        self.local_ports.clear();
        self.slots.clear();
    }

    fn num_rows(&self) -> usize {
        self.local_off.len() - 1
    }

    fn local_row(&self, r: usize) -> &[u32] {
        &self.local_ports[self.local_off[r] as usize..self.local_off[r + 1] as usize]
    }

    /// The slot `ports` occupies in the hashed index, or the vacant slot
    /// where it would go.
    fn probe(&self, ports: &[u32]) -> usize {
        let mask = self.slots.len() - 1;
        let mut i = row_hash(ports) & mask;
        loop {
            let s = self.slots[i];
            if s == 0 || self.local_row(s as usize - 1) == ports {
                return i;
            }
            i = (i + 1) & mask;
        }
    }

    /// (Re)builds the hashed index with a power-of-two slot count at
    /// least twice the row count.
    fn rehash(&mut self) {
        let cap = (2 * self.num_rows()).next_power_of_two().max(2 * SCAN_ROWS);
        self.slots.clear();
        self.slots.resize(cap, 0);
        for r in 0..self.num_rows() {
            let i = self.probe(self.local_row(r));
            self.slots[i] = vid(r + 1);
        }
    }

    /// The local id of `resolved`, interning it on first sight.
    fn intern(&mut self, resolved: &[u32]) -> u32 {
        let n = self.num_rows();
        if n <= SCAN_ROWS {
            if let Some(r) = (0..n).find(|&r| self.local_row(r) == resolved) {
                return vid(r);
            }
        } else {
            let i = self.probe(resolved);
            if self.slots[i] != 0 {
                return self.slots[i] - 1;
            }
        }
        self.local_ports.extend_from_slice(resolved);
        self.local_off.push(vid(self.local_ports.len()));
        if n + 1 > SCAN_ROWS {
            if 2 * (n + 1) > self.slots.len() {
                self.rehash();
            } else {
                let i = self.probe(resolved);
                self.slots[i] = vid(n + 1);
            }
        }
        vid(n)
    }

    /// Appends one run, interning its row locally and merging runs whose
    /// rows turn out equal.
    fn push_run(&mut self, start: u32, resolved: &[u32]) {
        // Reach-set boundaries often split a run without changing its
        // answer; catch that before touching the index.
        if let Some(&last) = self.rows.last() {
            if self.local_row(last as usize) == resolved {
                return;
            }
        }
        let local = self.intern(resolved);
        if self.rows.last() == Some(&local) {
            return;
        }
        self.starts.push(start);
        self.rows.push(local);
    }
}

/// Resolves one switch's oracle answers to out-port runs.
fn switch_runs<O: RoutingOracle + ?Sized>(
    net: &SimNetwork,
    oracle: &O,
    switch: u32,
    dst32: u32,
) -> SwitchRuns {
    let mut sr = SwitchRuns::empty();
    let mut resolved: Vec<u32> = Vec::new();
    switch_runs_into(net, oracle, switch, dst32, &mut sr, &mut resolved);
    sr
}

/// Resolves next-hop switch ids, in place, into `switch`'s out-port
/// numbers.
///
/// # Panics
///
/// Panics if a hop is not a neighbor of `switch` — the oracle and the
/// network disagree about adjacency, which no repair can make sound.
fn resolve_out_ports(net: &SimNetwork, switch: u32, hops: &mut [u32]) {
    for hop in hops {
        *hop = net
            .out_port_to(switch, *hop)
            .expect("oracle returned a non-neighbor");
    }
}

/// [`switch_runs`] writing into caller-owned buffers (cleared first).
fn switch_runs_into<O: RoutingOracle + ?Sized>(
    net: &SimNetwork,
    oracle: &O,
    switch: u32,
    dst32: u32,
    sr: &mut SwitchRuns,
    resolved: &mut Vec<u32>,
) {
    sr.clear();
    oracle.for_each_dst_run(switch, dst32, &mut |start, hops| {
        resolved.clear();
        resolved.extend_from_slice(hops);
        resolve_out_ports(net, switch, resolved);
        sr.push_run(start, resolved);
    });
}

/// Rebuilds one *dirty but adjacency-stable* switch's runs by splicing:
/// the old column is kept wholesale except at `delta` destinations,
/// where the row is re-resolved against the repaired oracle. Sound
/// because such a switch's row can change only where a consulted reach
/// set's membership changed (see `rfc_routing::RepairScope::dst_delta`);
/// [`SwitchRuns::push_run`] re-merges equal neighbors, so the result is
/// byte-identical to a full [`switch_runs`] re-derivation.
fn splice_runs_into<O: RoutingOracle + ?Sized>(
    net: &SimNetwork,
    oracle: &O,
    old: &RleTable,
    switch: u32,
    delta: &[u32],
    sr: &mut SwitchRuns,
    resolved: &mut Vec<u32>,
) {
    sr.clear();
    let lo = old.col_off[switch as usize] as usize;
    let hi = old.col_off[switch as usize + 1] as usize;
    let mut di = delta.partition_point(|&d| d < old.runs_start.get(lo).copied().unwrap_or(0));
    for k in lo..hi {
        let a = old.runs_start[k];
        let b = if k + 1 < hi {
            old.runs_start[k + 1]
        } else {
            vid(old.dst_space)
        };
        let content = old.pool_row(old.runs_row[k] as usize);
        let mut pos = a;
        while di < delta.len() && delta[di] < b {
            let d = delta[di];
            di += 1;
            if pos < d {
                sr.push_run(pos, content);
            }
            resolved.clear();
            oracle.next_hops_into(switch, d, resolved);
            resolve_out_ports(net, switch, resolved);
            sr.push_run(d, resolved);
            pos = d + 1;
        }
        if pos < b {
            sr.push_run(pos, content);
        }
    }
}

/// Appends one row's ports to the shared pool, returning its id.
/// `None` on `u32` overflow (callers fall back to live queries).
fn append_row(table: &mut RleTable, ports: &[u32]) -> Option<u32> {
    let id = u32::try_from(table.row_off.len() - 1).ok()?;
    table.row_ports.extend_from_slice(ports);
    table
        .row_off
        .push(u32::try_from(table.row_ports.len()).ok()?);
    Some(id)
}

/// Appends one switch's locally interned rows and runs to `table`, in
/// local first-appearance order. Non-empty rows are switch-private, so
/// each is appended as is; the empty row is pool-wide, and `empty_row`
/// holds its id (`u32::MAX` until first seen). Returns `None` on `u32`
/// overflow (the caller falls back to live queries).
fn stitch_switch(table: &mut RleTable, empty_row: &mut u32, sr: &SwitchRuns) -> Option<()> {
    let mut global_of_local: Vec<u32> = Vec::with_capacity(sr.num_rows());
    for r in 0..sr.num_rows() {
        let ports = sr.local_row(r);
        let id = if !ports.is_empty() {
            append_row(table, ports)?
        } else {
            if *empty_row == u32::MAX {
                *empty_row = append_row(table, ports)?;
            }
            *empty_row
        };
        global_of_local.push(id);
    }
    table.runs_start.extend_from_slice(&sr.starts);
    table
        .runs_row
        .extend(sr.rows.iter().map(|&local| global_of_local[local as usize]));
    table
        .col_off
        .push(u32::try_from(table.runs_start.len()).ok()?);
    Some(())
}

/// Above this many *bytes* of table arrays the build aborts and the
/// simulation queries the oracle live. The deduplicated encoding keeps
/// even the paper's Table 3 scale (cft(36,4), 209,952 terminals) around
/// a dozen MB, so this is headroom, not a target.
pub(crate) const TABLE_BUDGET: usize = 64 << 20;

/// Switches in the first parallel round of a table build (see
/// [`build_table`]); later rounds double from here.
const FIRST_CHUNK: usize = 16;

/// Largest parallel round of a table build, bounding how many derived
/// switches are held at once.
const MAX_CHUNK: usize = 4096;

/// Destination ids a candidate table covers: every switch up to the
/// highest one hosting a terminal.
fn dst_space(net: &SimNetwork) -> usize {
    net.dst_switch_of_terminal
        .iter()
        .copied()
        .max()
        .map_or(0, |m| m as usize + 1)
}

/// Builds the deduplicated candidate table, or `None` when the byte
/// budget is exceeded or an index would overflow `u32` — both fall
/// back to live oracle queries rather than wrapping silently.
///
/// Switches are derived in parallel rounds over the shared worker
/// pool (`rfc_parallel`) and stitched serially *in switch order*, so
/// the arrays are byte-identical to a serial build at any thread
/// count. The rounds grow geometrically: the first derives
/// [`FIRST_CHUNK`] switches, each later one as many as are already
/// stitched (at most [`MAX_CHUNK`]). The budget is checked after
/// every stitched switch, so an over-budget build derives at most
/// `max(FIRST_CHUNK, 2 × stitched)` switches before bailing, at any
/// thread count.
///
/// Also returns how many switches were derived and how many stitched
/// (the last one stitched is the one that crossed the budget, if
/// any), for the tests that hold the build to that bound.
fn build_table<O: RoutingOracle + Sync>(
    net: &SimNetwork,
    oracle: &O,
    dst_space: usize,
    budget: usize,
) -> (Option<RleTable>, usize, usize) {
    if budget == 0 {
        return (None, 0, 0);
    }
    let dst32 = vid(dst_space);
    let n = net.num_switches();
    let mut table = empty_table(dst_space);
    let mut empty_row = u32::MAX;
    let mut done = 0usize;
    while done < n {
        let end = n.min(done + done.clamp(FIRST_CHUNK, MAX_CHUNK));
        let per_switch: Vec<SwitchRuns> =
            rfc_parallel::map((done..end).map(vid).collect(), |switch| {
                switch_runs(net, oracle, switch, dst32)
            });
        for (i, sr) in per_switch.into_iter().enumerate() {
            if stitch_switch(&mut table, &mut empty_row, &sr).is_none() || table.bytes() > budget {
                return (None, end, done + i + 1);
            }
        }
        done = end;
    }
    (Some(table), n, n)
}

/// Region-scoped table repair: rebuilds only the repair's dirty
/// switches' runs against the (already repaired) `oracle`, reuses every
/// clean switch's runs from `old`, and renumbers the row pool in the
/// same first-appearance order a fresh [`build_table`] would produce —
/// so the result is byte-identical to a from-scratch build over the
/// new oracle.
///
/// The event endpoints (`scope.endpoints`, the only switches whose
/// adjacency changed) are recomputed in full; every other dirty switch
/// is spliced from `old` at the `scope.dst_delta` destinations alone.
/// Rows are switch-private except the empty one, so a dirty switch's
/// rows need no lookup against the old pool: they are appended like
/// a fresh build's, and only the empty row rejoins its old identity.
///
/// Returns `None` on budget/overflow exhaustion, the same live-query
/// fallback as the full build.
fn patch_table<O: RoutingOracle>(
    net: &SimNetwork,
    oracle: &O,
    old: &RleTable,
    scope: &RepairScope,
    budget: usize,
) -> Option<RleTable> {
    if budget == 0 {
        return None;
    }
    let dst32 = vid(old.dst_space);
    let old_rows = old.row_off.len() - 1;
    // Old row id → id in the rebuilt pool, assigned lazily in the
    // new scan's first-appearance order (`u32::MAX` = unseen; real
    // ids stay far below it under any byte budget). Rows of clean
    // switches renumber through this array alone — one indexed load
    // per run — which is what makes a patch an order of magnitude
    // cheaper than a rebuild.
    let mut old_to_new: Vec<u32> = vec![u32::MAX; old_rows];
    // The shared empty row: dirty switches reach it through the old
    // row's slot (clean switches renumber it there), or through a
    // slot of their own when the old pool never held it.
    let old_empty = (0..old_rows).find(|&r| old.pool_row(r).is_empty());
    let mut fresh_empty = u32::MAX;
    let mut table = empty_table(old.dst_space);
    // A single-event patch shifts sizes by at most a few rows; old's
    // footprint is the right capacity to within a reallocation.
    table.runs_start.reserve(old.runs_start.len() + 8);
    table.runs_row.reserve(old.runs_row.len() + 8);
    table.row_ports.reserve(old.row_ports.len() + 64);
    table.row_off.reserve(old.row_off.len() + 8);
    table.col_off.reserve(old.col_off.len());
    // `scope.table_dirty` arrives sorted and deduplicated
    // (`RepairScope` collects from a set), so one cursor tracks it in
    // switch order. All dirty-switch work reuses one set of scratch
    // buffers.
    let dirty = scope.table_dirty.as_slice();
    let mut scratch = SwitchRuns::empty();
    let mut resolved: Vec<u32> = Vec::new();
    let mut next_dirty = 0usize;
    for switch in 0..net.num_switches() {
        let is_dirty = next_dirty < dirty.len() && dirty[next_dirty] as usize == switch;
        if is_dirty {
            next_dirty += 1;
            let sw32 = vid(switch);
            if scope.endpoints.contains(&sw32) {
                switch_runs_into(net, oracle, sw32, dst32, &mut scratch, &mut resolved);
            } else {
                splice_runs_into(
                    net,
                    oracle,
                    old,
                    sw32,
                    &scope.dst_delta,
                    &mut scratch,
                    &mut resolved,
                );
            }
            let empty_row = match old_empty {
                Some(e) => &mut old_to_new[e],
                None => &mut fresh_empty,
            };
            stitch_switch(&mut table, empty_row, &scratch)?;
        } else {
            // Clean switch: runs are unchanged, rows keep their old
            // content identity and renumber at first encounter. Run
            // order *is* local first-appearance order (push_run
            // assigns local ids that way), so the ids land exactly
            // where a fresh `stitch_switch` would put them.
            let lo = old.col_off[switch] as usize;
            let hi = old.col_off[switch + 1] as usize;
            table.runs_start.extend_from_slice(&old.runs_start[lo..hi]);
            for k in lo..hi {
                let old_id = old.runs_row[k] as usize;
                let id = if old_to_new[old_id] == u32::MAX {
                    let id = append_row(&mut table, old.pool_row(old_id))?;
                    old_to_new[old_id] = id;
                    id
                } else {
                    old_to_new[old_id]
                };
                table.runs_row.push(id);
            }
            table
                .col_off
                .push(u32::try_from(table.runs_start.len()).ok()?);
        }
        if table.bytes() > budget {
            return None;
        }
    }
    Some(table)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{SimConfig, Simulation, TrafficPattern};
    use rand::SeedableRng;
    use rfc_routing::UpDownRouting;
    use rfc_topology::FoldedClos;

    #[test]
    fn parallel_table_build_is_byte_identical_to_serial() {
        let clos = FoldedClos::cft(6, 3).unwrap();
        let routing = UpDownRouting::new(&clos);
        let net = SimNetwork::from_folded_clos(&clos);
        let cfg = SimConfig::quick();
        rfc_parallel::set_threads(Some(1));
        let serial = Simulation::new(&net, &routing, cfg);
        rfc_parallel::set_threads(Some(8));
        let parallel = Simulation::new(&net, &routing, cfg);
        rfc_parallel::set_threads(None);
        let s = serial.candidates().table().expect("table fits the budget");
        let p = parallel
            .candidates()
            .table()
            .expect("table fits the budget");
        assert_eq!(s, p, "parallel build diverged from serial");
        assert!(!s.row_ports.is_empty(), "table must hold resolved ports");
    }

    #[test]
    fn deduped_table_rows_match_dense_oracle_answers() {
        // Expanding the interned + run-length-compressed table back to
        // one row per (switch, dst) pair must reproduce exactly what the
        // old dense build stored: the oracle's answer, resolved to out
        // ports, in oracle order. Checked on a regular CFT (long runs)
        // and a random folded Clos (worst-case fragmentation).
        let mut rng = rand::rngs::StdRng::seed_from_u64(41);
        let nets = [
            FoldedClos::cft(6, 3).unwrap(),
            FoldedClos::random(8, 24, 3, &mut rng).unwrap(),
        ];
        for clos in &nets {
            let routing = UpDownRouting::new(clos);
            let net = SimNetwork::from_folded_clos(clos);
            let sim = Simulation::new(&net, &routing, SimConfig::quick());
            let table = sim.candidates().table().expect("table fits the budget");
            let dst_space = table.dst_space;
            let mut hops = Vec::new();
            for switch in 0..vid(net.num_switches()) {
                for dst in 0..vid(dst_space) {
                    hops.clear();
                    routing.next_hops_into(switch, dst, &mut hops);
                    let dense: Vec<u32> = hops
                        .iter()
                        .map(|&h| net.out_port_to(switch, h).unwrap())
                        .collect();
                    assert_eq!(
                        table.row(switch, dst),
                        &dense[..],
                        "switch {switch} dst {dst}"
                    );
                }
            }
            // And the dedup must actually pay: fewer pool entries than
            // (switch, dst) pairs.
            assert!(table.row_off.len() - 1 < net.num_switches() * dst_space);
        }
    }

    /// The byte-identity reference for the table build: rows interned
    /// by content in one pool-wide map over every run in switch-major
    /// order, serial and without a budget. It assumes nothing about
    /// which rows switches can share.
    fn reference_table<O: RoutingOracle>(
        net: &SimNetwork,
        oracle: &O,
        dst_space: usize,
    ) -> RleTable {
        let mut table = empty_table(dst_space);
        let mut interner: std::collections::BTreeMap<Vec<u32>, u32> = Default::default();
        let mut resolved = Vec::new();
        for switch in 0..vid(net.num_switches()) {
            let col_start = table.runs_start.len();
            oracle.for_each_dst_run(switch, vid(dst_space), &mut |start, hops| {
                resolved.clear();
                resolved.extend_from_slice(hops);
                resolve_out_ports(net, switch, &mut resolved);
                let next = vid(interner.len());
                let id = *interner.entry(resolved.clone()).or_insert(next);
                if id == next {
                    append_row(&mut table, &resolved).unwrap();
                }
                if table.runs_start.len() > col_start && table.runs_row.last() == Some(&id) {
                    return;
                }
                table.runs_start.push(start);
                table.runs_row.push(id);
            });
            table.col_off.push(vid(table.runs_start.len()));
        }
        table
    }

    /// Asserts the built table equals [`reference_table`] at build
    /// thread counts 1, 2 and 3; returns the most distinct rows one
    /// switch holds.
    fn assert_table_matches_reference<O: RoutingOracle + Sync>(
        net: &SimNetwork,
        oracle: &O,
        what: &str,
    ) -> usize {
        let mut max_rows = 0;
        for threads in 1..=3 {
            rfc_parallel::set_threads(Some(threads));
            let sim = Simulation::new(net, oracle, SimConfig::quick());
            rfc_parallel::set_threads(None);
            let table = sim.candidates().table().expect("table fits the budget");
            assert_eq!(
                table,
                &reference_table(net, oracle, table.dst_space),
                "{what} diverged from the reference at {threads} thread(s)"
            );
            max_rows = (0..net.num_switches())
                .map(|s| {
                    let mut rows = table.runs_row
                        [table.col_off[s] as usize..table.col_off[s + 1] as usize]
                        .to_vec();
                    rows.sort_unstable();
                    rows.dedup();
                    rows.len()
                })
                .max()
                .unwrap_or(0);
        }
        max_rows
    }

    #[test]
    fn table_build_is_byte_identical_to_the_content_interning_reference() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(41);
        // Worst-case fragmentation (the dense-oracle test's RFC).
        let rfc = FoldedClos::random(8, 24, 3, &mut rng).unwrap();
        // Wide enough that switches outgrow the linear scan and the
        // hashed index regrows.
        let wide = FoldedClos::random(12, 160, 3, &mut rng).unwrap();
        let cft = FoldedClos::cft(6, 3).unwrap();
        // Cutting every fifth link leaves unroutable pairs, so many
        // switches share the empty row.
        let cut: Vec<_> = cft.links().into_iter().step_by(5).collect();
        let faulted = cft.with_links_removed(&cut);
        let oft = FoldedClos::oft(3, 3).unwrap();
        for (clos, what) in [
            (&cft, "cft"),
            (&oft, "oft"),
            (&rfc, "rfc"),
            (&wide, "wide rfc"),
            (&faulted, "faulted cft"),
        ] {
            let routing = UpDownRouting::new(clos);
            let rows =
                assert_table_matches_reference(&SimNetwork::from_folded_clos(clos), &routing, what);
            if what == "wide rfc" {
                // The index is built with room for 2 × SCAN_ROWS rows
                // and regrows past that.
                assert!(rows > 2 * SCAN_ROWS, "{rows} rows never regrow the index");
            }
        }
        let rrn = rfc_topology::Rrn::new(12, 4, 2, &mut rng).unwrap();
        let oracle = rfc_routing::ShortestPathOracle::new(&rrn.graph());
        assert_table_matches_reference(&SimNetwork::from_rrn(&rrn), &oracle, "rrn");
    }

    #[test]
    fn budget_boundary_is_exact_at_any_thread_count() {
        // A budget of exactly the table's bytes materializes it; one byte
        // less crosses at the last switch and falls back to live queries
        // with identical results.
        let mut rng = rand::rngs::StdRng::seed_from_u64(41);
        let clos = FoldedClos::random(8, 24, 3, &mut rng).unwrap();
        let routing = UpDownRouting::new(&clos);
        let net = SimNetwork::from_folded_clos(&clos);
        let cfg = SimConfig::quick();
        let full = Simulation::new(&net, &routing, cfg);
        let table = full
            .candidates()
            .table()
            .expect("table fits the default budget");
        let expected = full.run(TrafficPattern::Uniform, 0.5, 7);
        for threads in 1..=3 {
            rfc_parallel::set_threads(Some(threads));
            let exact = Simulation::with_table_budget(&net, &routing, cfg, table.bytes());
            let short = Simulation::with_table_budget(&net, &routing, cfg, table.bytes() - 1);
            rfc_parallel::set_threads(None);
            assert_eq!(
                exact.candidates().table(),
                Some(table),
                "{threads} thread(s)"
            );
            assert_eq!(short.candidate_table_bytes(), None, "{threads} thread(s)");
            assert_eq!(short.run(TrafficPattern::Uniform, 0.5, 7), expected);
        }
    }

    #[test]
    fn over_budget_build_derives_at_most_twice_what_it_stitches() {
        // cft(12,3) has 180 switches: the rounds run 16, 16, 32, 64, 52.
        let clos = FoldedClos::cft(12, 3).unwrap();
        let routing = UpDownRouting::new(&clos);
        let net = SimNetwork::from_folded_clos(&clos);
        let (n, dst) = (net.num_switches(), dst_space(&net));
        let (table, derived, stitched) = build_table(&net, &routing, dst, usize::MAX);
        let full = table.expect("an unbounded budget materializes").bytes();
        assert_eq!((derived, stitched), (n, n));
        for threads in 1..=3 {
            rfc_parallel::set_threads(Some(threads));
            for tenth in 1..10 {
                let budget = full * tenth / 10;
                let (table, derived, stitched) = build_table(&net, &routing, dst, budget);
                assert!(table.is_none(), "budget {budget} of {full} must not fit");
                assert!(
                    stitched > FIRST_CHUNK,
                    "budget {budget} bails in the first round"
                );
                assert!(
                    derived <= 2 * stitched,
                    "{threads} thread(s), budget {budget}: derived {derived} to stitch {stitched}"
                );
            }
            rfc_parallel::set_threads(None);
        }
    }

    #[test]
    fn deduped_table_undercuts_the_dense_layout() {
        // The old layout stored (switches × dst_space + 1) offsets plus
        // every resolved port; the compressed table must come in well
        // under just the offset array. cft(8, 4) has 64 destinations but
        // only ~R/2 + 2 runs per switch, so the ratio is structural.
        let clos = FoldedClos::cft(8, 4).unwrap();
        let routing = UpDownRouting::new(&clos);
        let net = SimNetwork::from_folded_clos(&clos);
        let sim = Simulation::new(&net, &routing, SimConfig::quick());
        let bytes = sim.candidate_table_bytes().unwrap();
        let dense_offsets =
            (net.num_switches() * sim.candidates().table().unwrap().dst_space + 1) * 4;
        assert!(
            bytes < dense_offsets / 2,
            "{bytes} bytes should undercut {dense_offsets} bytes of dense offsets"
        );
    }
}
