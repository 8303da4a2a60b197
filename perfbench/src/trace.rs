//! In-memory spans recorded around the benchmark's calls into each
//! layer, written out once when the run ends.
//!
//! A span has a name `<layer>.<what>`, a start and end (host
//! nanoseconds since the tracer was made), the span that caused it and
//! the op it belongs to. A layer's self time is the duration of its
//! spans minus the part of each interval that child spans cover.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use rfc_net::json::Json;

/// One recorded interval.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Unique within a run, in order of opening.
    pub id: u64,
    /// `<layer>.<what>`, e.g. `routing.build`.
    pub name: &'static str,
    /// Host nanoseconds since the tracer was made.
    pub start_ns: u64,
    /// Host nanoseconds since the tracer was made.
    pub end_ns: u64,
    /// The span that caused this one.
    pub parent: Option<u64>,
    /// The op (or set-up step) the span belongs to.
    pub op: u64,
}

impl Span {
    /// The layer prefix of the name.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }

    /// Duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// A span opened by [`Tracer::open`].
#[derive(Debug)]
#[must_use = "a span is recorded only when closed"]
pub struct Open {
    /// The span's id, `None` when tracing was off.
    pub id: Option<u64>,
    name: &'static str,
    parent: Option<u64>,
    op: u64,
    start_ns: u64,
}

/// Collects spans from any thread while enabled; records nothing (and
/// costs one relaxed load per span) while disabled.
#[derive(Debug)]
pub struct Tracer {
    t0: Instant,
    enabled: AtomicBool,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    /// A tracer that starts enabled or disabled.
    pub fn new(enabled: bool) -> Self {
        Tracer {
            t0: Instant::now(),
            enabled: AtomicBool::new(enabled),
            next_id: AtomicU64::new(0),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Turns recording on or off for spans opened afterwards. The flag
    /// publishes no other data, so a relaxed store suffices.
    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::Relaxed);
    }

    /// Whether spans opened now are recorded.
    pub fn enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Runs `f` inside a span; `f` receives the span's id to pass to
    /// its children (`None` when tracing is off).
    pub fn span<T>(
        &self,
        name: &'static str,
        parent: Option<u64>,
        op: u64,
        f: impl FnOnce(Option<u64>) -> T,
    ) -> T {
        let open = self.open(name, parent, op);
        let out = f(open.id);
        self.close(open);
        out
    }

    /// Opens a span that [`Tracer::close`] records, for intervals that
    /// do not fit one closure.
    pub fn open(&self, name: &'static str, parent: Option<u64>, op: u64) -> Open {
        let id = self
            .enabled()
            .then(|| self.next_id.fetch_add(1, Ordering::Relaxed));
        Open {
            id,
            name,
            parent,
            op,
            start_ns: self.now_ns(),
        }
    }

    /// Records an opened span (nothing when it opened while disabled).
    pub fn close(&self, open: Open) {
        let Some(id) = open.id else { return };
        let end_ns = self.now_ns();
        self.spans
            .lock()
            .expect("span list poisoned by a panicking op")
            .push(Span {
                id,
                name: open.name,
                start_ns: open.start_ns,
                end_ns,
                parent: open.parent,
                op: open.op,
            });
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.t0.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Every span recorded so far, ordered by id.
    pub fn spans(&self) -> Vec<Span> {
        let mut spans = self
            .spans
            .lock()
            .expect("span list poisoned by a panicking op")
            .clone();
        spans.sort_by_key(|s| s.id);
        spans
    }
}

/// Self time per span: its duration minus the union of its children's
/// intervals clipped to it, so children running in parallel are not
/// subtracted twice. Returned in the order of `spans`.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut kids: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for c in spans {
        if let Some(p) = c.parent {
            kids.entry(p).or_default().push((c.start_ns, c.end_ns));
        }
    }
    spans
        .iter()
        .map(|p| {
            let mut intervals = kids.remove(&p.id).unwrap_or_default();
            intervals.sort_unstable();
            let mut covered = 0;
            let mut reach = p.start_ns;
            for (a, b) in intervals {
                let (a, b) = (a.max(reach), b.min(p.end_ns));
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            p.dur_ns() - covered
        })
        .collect()
}

/// Total self time of `layer`'s spans, in milliseconds.
pub fn layer_self_ms(spans: &[Span], layer: &str) -> f64 {
    spans
        .iter()
        .zip(self_times_ns(spans))
        .filter(|(s, _)| s.layer() == layer)
        .fold(0.0, |acc, (_, t)| acc + t as f64 / 1e6)
}

/// The spans as a JSON array, times in microseconds.
pub fn to_json(spans: &[Span]) -> Json {
    Json::Arr(
        spans
            .iter()
            .map(|s| {
                Json::Obj(vec![
                    ("id".into(), Json::Uint(s.id)),
                    ("name".into(), Json::Str(s.name.into())),
                    ("start_us".into(), Json::Num(s.start_ns as f64 / 1e3)),
                    ("end_us".into(), Json::Num(s.end_ns as f64 / 1e3)),
                    ("parent".into(), s.parent.map_or(Json::Null, Json::Uint)),
                    ("op".into(), Json::Uint(s.op)),
                ])
            })
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: Option<u64>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            name: "sim.run",
            start_ns,
            end_ns,
            parent,
            op: 0,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        // Two overlapping children (parallel workers) cover [10, 60).
        let spans = [
            span(0, None, 0, 100),
            span(1, Some(0), 10, 50),
            span(2, Some(0), 20, 60),
            span(3, Some(1), 10, 20),
        ];
        assert_eq!(self_times_ns(&spans), vec![50, 30, 40, 10]);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let tr = Tracer::new(false);
        assert_eq!(tr.span("sim.run", None, 0, |id| id), None);
        tr.set_enabled(true);
        let id = tr.span("sim.run", None, 7, |id| id);
        assert_eq!(id, Some(0));
        let spans = tr.spans();
        assert_eq!(spans.len(), 1);
        assert_eq!((spans[0].layer(), spans[0].op), ("sim", 7));
    }
}
