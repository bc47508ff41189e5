//! The traced run's recorder: every span kept in memory as
//! (name, start, end, parent, trace id), linked and reduced to per-layer self
//! time when the run ends.
//!
//! The receive chain reports a stage through `Recorder::stage_nanos` when it
//! finishes, so a span's start is derived as its end minus that duration. The
//! benchmark's own spans (around `push` and `flush`) go through
//! [`Tracer::record`] with both ends measured.

use obs::{Recorder, Span};
use std::cell::Cell;
use std::collections::BTreeMap;
use std::io::Write;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Marks a span without a parent.
pub const NO_PARENT: u32 = u32::MAX;

/// One recorded span. Times are nanoseconds since the tracer's epoch.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SpanRec {
    pub name: &'static str,
    pub thread: u32,
    pub start: u64,
    pub end: u64,
    /// Index of the enclosing span, filled in by [`link_parents`].
    pub parent: u32,
    /// Spans of one frame (or one trial) share this id; 0 until linked.
    pub trace: u64,
}

impl SpanRec {
    pub fn dur(&self) -> u64 {
        self.end - self.start
    }
}

static NEXT_THREAD: Mutex<u32> = Mutex::new(0);
thread_local! {
    static THREAD: Cell<u32> = const { Cell::new(u32::MAX) };
}

fn thread_index() -> u32 {
    THREAD.with(|t| {
        if t.get() == u32::MAX {
            let mut next = NEXT_THREAD.lock().expect("thread counter poisoned");
            t.set(*next);
            *next += 1;
        }
        t.get()
    })
}

/// Span buffers, one per thread slot, so traced threads do not contend on
/// one lock (a shared lock measurably slowed the server's generator).
const SHARDS: usize = 8;

/// In-memory span and counter sink shared by every traced thread.
pub struct Tracer {
    epoch: Instant,
    spans: [Mutex<Vec<SpanRec>>; SHARDS],
    counters: Mutex<BTreeMap<&'static str, u64>>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: std::array::from_fn(|_| Mutex::new(Vec::with_capacity(1 << 14))),
            counters: Mutex::new(BTreeMap::new()),
        }
    }

    fn nanos(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    fn push(&self, name: &'static str, start: u64, end: u64, trace: u64) {
        let thread = thread_index();
        self.spans[thread as usize % SHARDS]
            .lock()
            .expect("span sink poisoned")
            .push(SpanRec {
                name,
                thread,
                start,
                end,
                parent: NO_PARENT,
                trace,
            });
    }

    /// Records a benchmark-owned span measured by the caller.
    pub fn record(&self, name: &'static str, start: Instant, end: Instant) {
        self.record_in(name, start, end, 0);
    }

    /// As [`Tracer::record`], for a span that belongs to trace `trace`.
    pub fn record_in(&self, name: &'static str, start: Instant, end: Instant, trace: u64) {
        self.push(name, self.nanos(start), self.nanos(end), trace);
    }

    /// Records a program-reported stage that just finished after `nanos`.
    fn stage(&self, name: &'static str, nanos: u64, trace: u64) {
        let end = self.nanos(Instant::now());
        self.push(name, end.saturating_sub(nanos), end, trace);
    }

    /// Value of a counter the program reported.
    pub fn counter_value(&self, name: &str) -> u64 {
        let counters = self.counters.lock().expect("counter sink poisoned");
        counters.get(name).copied().unwrap_or(0)
    }

    /// Takes every span recorded so far, parents linked.
    pub fn take_spans(&self) -> Vec<SpanRec> {
        let mut spans = Vec::new();
        for shard in &self.spans {
            spans.append(&mut shard.lock().expect("span sink poisoned"));
        }
        link_parents(&mut spans);
        spans
    }
}

impl Recorder for Tracer {
    fn enabled(&self) -> bool {
        true
    }

    fn counter(&self, name: &'static str, delta: u64) {
        *self
            .counters
            .lock()
            .expect("counter sink poisoned")
            .entry(name)
            .or_insert(0) += delta;
    }

    fn stage_nanos(&self, span: Span, nanos: u64) {
        self.stage(span.stage, nanos, 0);
    }
}

/// Trace id of session `session`'s spans: the session in the high half, the
/// frame (0 for the generator's calls) in the low half.
pub fn session_trace(session: usize, frame: u64) -> u64 {
    (session as u64 + 1) << 32 | frame
}

/// The session a [`session_trace`] id belongs to.
pub fn trace_session(trace: u64) -> Option<usize> {
    (trace >> 32).checked_sub(1).map(|s| s as usize)
}

/// The recorder one server session reports into: its spans carry a trace id
/// of (session, frame), a frame starting at each `sync` stage.
pub struct SessionTracer {
    tracer: Arc<Tracer>,
    session: usize,
    /// Frames seen so far; only the worker servicing the session reports
    /// stages, so the lock is never contended.
    frame: Mutex<u64>,
}

impl SessionTracer {
    pub fn new(tracer: Arc<Tracer>, session: usize) -> Self {
        SessionTracer {
            tracer,
            session,
            frame: Mutex::new(0),
        }
    }
}

impl Recorder for SessionTracer {
    fn enabled(&self) -> bool {
        true
    }

    fn counter(&self, name: &'static str, delta: u64) {
        self.tracer.counter(name, delta);
    }

    fn stage_nanos(&self, span: Span, nanos: u64) {
        let frame = {
            let mut frame = self.frame.lock().expect("frame counter poisoned");
            *frame += (span.stage == "sync") as u64;
            *frame
        };
        self.tracer
            .stage(span.stage, nanos, session_trace(self.session, frame));
    }
}

/// Slack allowed when deciding containment: a derived start can trail the true
/// start by the few nanoseconds between the program's clock read and ours.
const CONTAIN_SLACK_NS: u64 = 2_000;

/// Links each span to the innermost span on its thread that contains it, and
/// gives every span the trace id of its root (a span that already carries a
/// trace id keeps it).
pub fn link_parents(spans: &mut [SpanRec]) {
    let mut order: Vec<u32> = (0..spans.len() as u32).collect();
    order.sort_by(|&a, &b| {
        let (a, b) = (&spans[a as usize], &spans[b as usize]);
        (a.thread, a.start, std::cmp::Reverse(a.end)).cmp(&(
            b.thread,
            b.start,
            std::cmp::Reverse(b.end),
        ))
    });
    let mut stack: Vec<u32> = Vec::new();
    let mut thread = u32::MAX;
    for &i in &order {
        let s = spans[i as usize];
        if s.thread != thread {
            stack.clear();
            thread = s.thread;
        }
        while let Some(&top) = stack.last() {
            let p = &spans[top as usize];
            if s.start + CONTAIN_SLACK_NS >= p.start && s.end <= p.end + CONTAIN_SLACK_NS {
                break;
            }
            stack.pop();
        }
        let parent = stack.last().copied().unwrap_or(NO_PARENT);
        let inherited = if parent == NO_PARENT {
            u64::from(i) + 1
        } else {
            spans[parent as usize].trace
        };
        let span = &mut spans[i as usize];
        span.parent = parent;
        if span.trace == 0 {
            span.trace = inherited;
        }
        stack.push(i);
    }
}

/// Appends separately linked `more` to `spans`, shifting its parent indices
/// and trace ids past those already present.
pub fn append_linked(spans: &mut Vec<SpanRec>, more: Vec<SpanRec>) {
    let offset = spans.len() as u32;
    spans.extend(more.into_iter().map(|mut s| {
        if s.parent != NO_PARENT {
            s.parent += offset;
        }
        s.trace += u64::from(offset);
        s
    }));
}

/// Length of the union of `intervals`, each clipped to `[lo, hi]`.
pub fn covered(mut intervals: Vec<(u64, u64)>, lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut cursor = lo;
    for (a, b) in intervals {
        let (a, b) = (a.max(cursor), b.min(hi));
        if b > a {
            total += b - a;
            cursor = b;
        }
    }
    total
}

/// Self time of every span: its duration minus the part of its interval that
/// its children cover (children may nest further or overlap one another).
pub fn self_times(spans: &[SpanRec]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if s.parent != NO_PARENT {
            children[s.parent as usize].push((s.start, s.end));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, kids)| s.dur() - covered(kids, s.start, s.end))
        .collect()
}

/// Per-layer totals over a set of spans.
#[derive(Debug, Default, Clone)]
pub struct LayerTotals {
    /// Span name → (count, total self ns).
    pub by_name: BTreeMap<&'static str, (u64, u64)>,
    /// Total duration of root spans (the traced run's time).
    pub root_ns: u64,
    /// Spans without a parent whose name is not a designated root.
    pub orphans: u64,
}

impl LayerTotals {
    pub fn count(&self, name: &str) -> u64 {
        self.by_name.get(name).map_or(0, |v| v.0)
    }
    pub fn self_ns(&self, name: &str) -> u64 {
        self.by_name.get(name).map_or(0, |v| v.1)
    }
}

/// Folds spans into per-name self time. `roots` names the spans whose
/// duration makes up the traced time; any other parentless span is an orphan.
pub fn layer_totals(spans: &[SpanRec], roots: &[&str]) -> LayerTotals {
    let selfs = self_times(spans);
    let mut out = LayerTotals::default();
    for (s, own) in spans.iter().zip(selfs) {
        let entry = out.by_name.entry(s.name).or_insert((0, 0));
        entry.0 += 1;
        entry.1 += own;
        if s.parent == NO_PARENT {
            if roots.contains(&s.name) {
                out.root_ns += s.dur();
            } else {
                out.orphans += 1;
            }
        }
    }
    out
}

/// Writes the spans as JSON Lines.
pub fn write_spans(path: &std::path::Path, spans: &[SpanRec]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        let parent = if s.parent == NO_PARENT {
            -1
        } else {
            i64::from(s.parent)
        };
        writeln!(
            out,
            "{{\"name\":\"{}\",\"thread\":{},\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"trace\":{}}}",
            s.name, s.thread, s.start, s.end, parent, s.trace
        )?;
    }
    out.flush()
}

/// Checks span linking and self time on synthetic spans.
pub fn self_test() -> Result<(), String> {
    let check = |ok: bool, what: &str| if ok { Ok(()) } else { Err(what.to_string()) };
    let span = |name, thread, start, end| SpanRec {
        name,
        thread,
        start,
        end,
        parent: NO_PARENT,
        trace: 0,
    };
    let us = 1_000_000u64; // keep well above the containment slack
    let mut spans = vec![
        span("decide", 0, 20 * us, 30 * us),
        span("trial", 0, 0, 100 * us),
        span("bits", 0, 50 * us, 60 * us),
        span("extract", 0, 22 * us, 25 * us), // nested in decide
        span("overlap_a", 0, 70 * us, 85 * us),
        span("overlap_b", 0, 80 * us, 90 * us), // overlaps overlap_a
        span("trial", 1, 0, 40 * us),           // other thread, no children
        span("sync", 1, 50 * us, 55 * us),      // after the trial: orphan
    ];
    link_parents(&mut spans);
    check(
        spans[0].parent == 1 && spans[2].parent == 1,
        "children of trial",
    )?;
    check(
        spans[3].parent == 0,
        "nested child links to the innermost span",
    )?;
    check(
        spans[6].parent == NO_PARENT && spans[7].parent == NO_PARENT,
        "per-thread linking",
    )?;
    check(
        spans[3].trace == spans[1].trace && spans[6].trace != spans[1].trace,
        "trace ids",
    )?;
    let selfs = self_times(&spans);
    // trial: 100 − decide 10 − bits 10 − union(overlap_a, overlap_b) 20 = 60.
    check(selfs[1] == 60 * us, "self time with overlapping children")?;
    check(
        selfs[0] == 7 * us,
        "self time of a span with a nested child",
    )?;
    check(selfs[4] == 15 * us && selfs[5] == 10 * us, "leaf self time")?;
    check(
        covered(vec![(0, 10), (5, 20), (30, 40)], 8, 35) == 17,
        "clipped union",
    )?;
    let totals = layer_totals(&spans, &["trial"]);
    check(
        totals.root_ns == 140 * us && totals.orphans == 1,
        "roots and orphans",
    )?;
    let all_self: u64 = totals
        .by_name
        .iter()
        .filter(|(n, _)| **n != "sync")
        .map(|(_, v)| v.1)
        .sum();
    // Nested spans that do not overlap partition the roots exactly, except
    // where siblings overlap (overlap_b's 5 µs shared with overlap_a).
    check(
        all_self == totals.root_ns + 5 * us,
        "self times partition the roots",
    )?;
    Ok(())
}

#[cfg(test)]
mod tests {
    #[test]
    fn trace_self_test_passes() {
        super::self_test().unwrap();
    }
}
