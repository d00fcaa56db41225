//! Layer spans recorded from the benchmark's own files, and the self-time
//! arithmetic that turns them into per-layer numbers.
//!
//! Every call the benchmark makes into a layer's public API is wrapped in
//! [`layer`], which opens a span on a [`Tracer`] of the benchmark's own.
//! The crates' internal spans go to the global tracer, which stays off:
//! at full size they record millions of events per second (one per
//! 64-row kernel block, several per session) and would evict the
//! benchmark's spans from the ring. A workload's phases are sections
//! ([`SECTION`]); the part of a section no layer span covers is reported
//! as unattributed rather than hidden.

use puf_telemetry::{TraceClock, TraceEvent, TraceEventKind, Tracer};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

/// Prefix of every span the benchmark records.
pub const PREFIX: &str = "pb.";
/// Prefix of section spans (a workload's phases).
pub const SECTION: &str = "pb.section.";

/// Ring capacity of each traced thread: fleet_churn records ~0.7 M
/// events on one thread in a 20-second traced run.
const LANE_CAPACITY: usize = 1 << 21;

/// The benchmark's tracer.
fn tracer() -> &'static Tracer {
    static TRACER: OnceLock<Tracer> = OnceLock::new();
    TRACER.get_or_init(Tracer::new_private)
}

/// Benchmark spans opened while tracing was on.
static OPENED: AtomicU64 = AtomicU64::new(0);

/// Runs `f` inside the benchmark span `name`; with tracing off the span
/// costs one atomic load.
#[inline]
pub fn layer<T>(name: &'static str, f: impl FnOnce() -> T) -> T {
    let span = tracer().span(name);
    if span.is_armed() {
        OPENED.fetch_add(1, Ordering::Relaxed);
    }
    let out = f();
    drop(span);
    out
}

/// Starts recording wall-clock spans.
pub fn start_tracing() {
    let t = tracer();
    t.set_clock(TraceClock::Wall);
    t.set_lane_capacity(LANE_CAPACITY);
    t.set_enabled(true);
}

/// Stops recording until [`resume_tracing`].
pub fn pause_tracing() {
    tracer().set_enabled(false);
}

/// Resumes recording after [`pause_tracing`].
pub fn resume_tracing() {
    tracer().set_enabled(true);
}

/// Stops recording and returns the benchmark's spans.
///
/// # Errors
///
/// When the trace ring dropped any benchmark span, which would make the
/// layer numbers silently short.
pub fn finish_tracing() -> Result<Vec<Interval>, String> {
    let t = tracer();
    t.set_enabled(false);
    let spans = intervals(&t.snapshot_events(), |name| name.starts_with(PREFIX));
    let opened = OPENED.load(Ordering::Relaxed);
    let closed = spans.iter().filter(|s| s.closed).count() as u64;
    if closed != opened {
        return Err(format!(
            "the trace ring lost benchmark spans ({opened} opened, {closed} recorded)"
        ));
    }
    Ok(spans)
}

/// One span, as a wall-clock interval.
#[derive(Clone, Debug, PartialEq)]
pub struct Interval {
    /// Span name.
    pub name: &'static str,
    /// Trace lane (one per thread).
    pub lane: u32,
    /// Begin, in nanoseconds since the tracer's epoch.
    pub start_ns: u64,
    /// End (equal to `start_ns` while unclosed).
    pub end_ns: u64,
    /// Whether the span's End was recorded.
    pub closed: bool,
    /// Index of the enclosing kept span.
    pub parent: Option<usize>,
}

/// Pairs Begin/End events into intervals, keeping the spans whose name
/// passes `keep`. A kept span's parent is the innermost kept span open on
/// its lane; a lane's outermost span takes the innermost section of
/// another lane that encloses it in time, since worker threads run inside
/// the phase that spawned them.
pub fn intervals(events: &[TraceEvent], keep: impl Fn(&str) -> bool) -> Vec<Interval> {
    let mut out: Vec<Interval> = Vec::new();
    let mut stacks: BTreeMap<u32, Vec<Option<usize>>> = BTreeMap::new();
    for e in events {
        let stack = stacks.entry(e.lane).or_default();
        match e.kind {
            TraceEventKind::Begin => {
                let kept = keep(e.name).then(|| {
                    out.push(Interval {
                        name: e.name,
                        lane: e.lane,
                        start_ns: e.wall_ns,
                        end_ns: e.wall_ns,
                        closed: false,
                        parent: stack.iter().rev().find_map(|s| *s),
                    });
                    out.len() - 1
                });
                stack.push(kept);
            }
            TraceEventKind::End => {
                if let Some(Some(i)) = stack.pop() {
                    out[i].end_ns = e.wall_ns;
                    out[i].closed = true;
                }
            }
            TraceEventKind::Instant => {}
        }
    }
    let sections: Vec<usize> = (0..out.len())
        .filter(|&i| out[i].name.starts_with(SECTION))
        .collect();
    for i in 0..out.len() {
        if out[i].parent.is_some() || out[i].name.starts_with(SECTION) {
            continue;
        }
        let (lane, start, end) = (out[i].lane, out[i].start_ns, out[i].end_ns);
        out[i].parent = sections
            .iter()
            .copied()
            .filter(|&j| out[j].lane != lane && out[j].start_ns <= start && out[j].end_ns >= end)
            .max_by_key(|&j| out[j].start_ns);
    }
    out
}

/// Total length of the union of `spans` (`(start, end)` pairs that may
/// overlap: children on parallel lanes run at the same time).
pub fn union_len(spans: &mut [(u64, u64)]) -> u64 {
    spans.sort_unstable();
    let mut total = 0;
    let mut current: Option<(u64, u64)> = None;
    for &(start, end) in spans.iter() {
        if end <= start {
            continue;
        }
        current = match current {
            Some((s, e)) if start <= e => Some((s, e.max(end))),
            Some((s, e)) => {
                total += e - s;
                Some((start, end))
            }
            None => Some((start, end)),
        };
    }
    total + current.map_or(0, |(s, e)| e - s)
}

/// Self time of every interval: its duration minus the part its children
/// cover (children clipped to it, overlaps counted once).
pub fn self_times(spans: &[Interval]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for child in spans {
        if let Some(p) = child.parent {
            children[p].push((
                child.start_ns.max(spans[p].start_ns),
                child.end_ns.min(spans[p].end_ns),
            ));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            s.end_ns
                .saturating_sub(s.start_ns)
                .saturating_sub(union_len(kids))
        })
        .collect()
}

/// Per-layer totals of a traced run.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct LayerTimes {
    /// Self seconds per layer span, keyed by name without [`PREFIX`].
    pub self_s: BTreeMap<String, f64>,
    /// Summed wall time of the top-level sections.
    pub section_s: f64,
    /// Summed section wall time × the lanes that worked inside it.
    pub section_lane_s: f64,
    /// `section_lane_s` minus the layer self time inside sections: time no
    /// layer claimed (the benchmark's own loop, waiting, idle lanes).
    pub unattributed_s: f64,
}

impl LayerTimes {
    /// Self seconds of layer `name` (without [`PREFIX`]); 0 if it never ran.
    pub fn self_of(&self, name: &str) -> f64 {
        self.self_s.get(name).copied().unwrap_or(0.0)
    }
}

/// Sums self times per layer and accounts every top-level section's
/// lane-time as layer self time plus an unattributed remainder.
pub fn layer_times(spans: &[Interval]) -> LayerTimes {
    let selfs = self_times(spans);
    let is_section = |i: usize| spans[i].name.starts_with(SECTION);
    let top_section = |mut i: usize| {
        let mut found = None;
        loop {
            if is_section(i) {
                found = Some(i);
            }
            match spans[i].parent {
                Some(p) => i = p,
                None => return found,
            }
        }
    };
    let mut out = LayerTimes::default();
    let mut lanes: BTreeMap<usize, BTreeSet<u32>> = BTreeMap::new();
    let mut inside_ns = 0u64;
    for (i, span) in spans.iter().enumerate() {
        if is_section(i) {
            continue;
        }
        let name = span.name.strip_prefix(PREFIX).unwrap_or(span.name);
        *out.self_s.entry(name.to_string()).or_default() += selfs[i] as f64 / 1e9;
        if let Some(section) = top_section(i) {
            lanes.entry(section).or_default().insert(span.lane);
            inside_ns += selfs[i];
        }
    }
    for (i, span) in spans.iter().enumerate() {
        if !is_section(i) || span.parent.is_some() {
            continue;
        }
        let wall = span.end_ns.saturating_sub(span.start_ns) as f64 / 1e9;
        out.section_s += wall;
        out.section_lane_s += wall * lanes.get(&i).map_or(1, BTreeSet::len) as f64;
    }
    out.unattributed_s = out.section_lane_s - inside_ns as f64 / 1e9;
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(name: &'static str, kind: TraceEventKind, lane: u32, wall_ns: u64) -> TraceEvent {
        TraceEvent {
            name,
            kind,
            lane,
            depth: 0,
            tick: wall_ns,
            wall_ns,
        }
    }

    fn span(name: &'static str, lane: u32, start: u64, end: u64) -> [TraceEvent; 2] {
        [
            ev(name, TraceEventKind::Begin, lane, start),
            ev(name, TraceEventKind::End, lane, end),
        ]
    }

    fn ordered(parts: &[[TraceEvent; 2]]) -> Vec<TraceEvent> {
        let mut events: Vec<TraceEvent> = parts.iter().flatten().copied().collect();
        events.sort_by_key(|e| (e.wall_ns, e.kind == TraceEventKind::Begin));
        events
    }

    fn all(_: &str) -> bool {
        true
    }

    #[test]
    fn union_counts_overlaps_once() {
        assert_eq!(union_len(&mut []), 0);
        assert_eq!(union_len(&mut [(10, 20), (15, 30), (40, 50)]), 30);
        assert_eq!(union_len(&mut [(40, 50), (10, 60)]), 50);
        assert_eq!(
            union_len(&mut [(5, 5), (7, 3)]),
            0,
            "empty spans cover nothing"
        );
    }

    #[test]
    fn nested_children_are_subtracted_level_by_level() {
        let events = ordered(&[
            span("pb.a", 0, 0, 100),
            span("pb.b", 0, 10, 30),
            span("pb.c", 0, 15, 20),
            span("pb.d", 0, 50, 60),
        ]);
        let spans = intervals(&events, all);
        assert_eq!(
            spans.iter().map(|s| s.parent).collect::<Vec<_>>(),
            [None, Some(0), Some(1), Some(0)]
        );
        assert_eq!(self_times(&spans), [70, 15, 5, 10]);
    }

    #[test]
    fn spans_outside_the_kept_set_are_transparent() {
        // A crate's own span between two benchmark spans neither claims
        // time nor breaks the parent link.
        let events = ordered(&[
            span("pb.outer", 0, 0, 100),
            span("crate.inner", 0, 10, 90),
            span("pb.leaf", 0, 20, 30),
        ]);
        let spans = intervals(&events, |n| n.starts_with(PREFIX));
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(self_times(&spans), [90, 10]);
    }

    #[test]
    fn overlapping_worker_children_are_counted_once_in_the_section() {
        let events = ordered(&[
            span("pb.section.serve", 0, 0, 100),
            span("pb.tick", 1, 10, 60),
            span("pb.tick", 2, 40, 90),
            span("pb.stray", 3, 95, 120),
        ]);
        let spans = intervals(&events, all);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        assert_eq!(spans[3].parent, None, "not enclosed by the section");
        assert_eq!(self_times(&spans), [20, 50, 50, 25]);
        let lt = layer_times(&spans);
        assert!((lt.self_of("tick") - 100e-9).abs() < 1e-15);
        assert!((lt.section_s - 100e-9).abs() < 1e-15);
        // Two worker lanes were busy inside the section: 200 ns of lane
        // time, 100 ns of it in tick spans. The stray span lies outside
        // every section and is not part of the account.
        assert!((lt.section_lane_s - 200e-9).abs() < 1e-15);
        assert!((lt.unattributed_s - 100e-9).abs() < 1e-15);
    }

    #[test]
    fn children_are_clipped_to_their_parent() {
        let events = ordered(&[span("pb.section.x", 0, 0, 50), span("pb.w", 1, 40, 80)]);
        let spans = intervals(&events, all);
        // The worker span starts inside but ends outside: it has no
        // enclosing section, so it stays a root.
        assert_eq!(spans[1].parent, None);
        let mut spans = spans;
        spans[1].parent = Some(0);
        assert_eq!(self_times(&spans), [40, 40]);
    }

    #[test]
    fn single_lane_sections_account_exactly() {
        let events = ordered(&[
            span("pb.section.enroll", 0, 0, 100),
            span("pb.enroll", 0, 10, 40),
            span("pb.enroll", 0, 50, 80),
        ]);
        let lt = layer_times(&intervals(&events, all));
        assert!((lt.self_of("enroll") - 60e-9).abs() < 1e-15);
        assert!((lt.section_lane_s - 100e-9).abs() < 1e-15);
        assert!((lt.unattributed_s - 40e-9).abs() < 1e-15);
        assert_eq!(lt.self_of("never"), 0.0);
    }
}
