//! Spans recorded around the benchmark's own calls into each layer.
//!
//! The program itself is not instrumented: every span here wraps one call
//! the benchmark makes into a layer's public API (or, for `store.*`, one
//! call the store makes into the benchmark's metered `Vfs`). Spans are
//! kept in memory and written out when the run ends. Recording is off
//! unless a task is traced, and then costs one thread-local flag check per
//! call.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::time::Instant;

use isis_obs::Json;

/// One recorded span.
#[derive(Debug)]
pub struct Span {
    pub name: &'static str,
    pub parent: Option<usize>,
    /// The task the span belongs to (`None` for set-up and post-run work).
    pub task: Option<u64>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

struct Tracer {
    on: bool,
    epoch: Instant,
    task: Option<u64>,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

thread_local! {
    static TRACER: RefCell<Tracer> = RefCell::new(Tracer {
        on: false,
        epoch: Instant::now(),
        task: None,
        spans: Vec::new(),
        stack: Vec::new(),
    });
}

/// Turns recording on or off and sets the task id new spans carry.
pub fn set(on: bool, task: Option<u64>) {
    TRACER.with(|t| {
        let mut t = t.borrow_mut();
        t.on = on;
        t.task = task;
    });
}

/// Runs `f` inside a span named `name` (a plain call when recording is off).
pub fn span<R>(name: &'static str, f: impl FnOnce() -> R) -> R {
    let id = TRACER.with(|t| {
        let mut t = t.borrow_mut();
        if !t.on {
            return None;
        }
        let id = t.spans.len();
        let span = Span {
            name,
            parent: t.stack.last().copied(),
            task: t.task,
            start_ns: t.epoch.elapsed().as_nanos() as u64,
            end_ns: 0,
        };
        t.spans.push(span);
        t.stack.push(id);
        Some(id)
    });
    let out = f();
    if let Some(id) = id {
        TRACER.with(|t| {
            let mut t = t.borrow_mut();
            t.spans[id].end_ns = t.epoch.elapsed().as_nanos() as u64;
            t.stack.pop();
        });
    }
    out
}

/// Takes every span recorded so far.
pub fn take() -> Vec<Span> {
    TRACER.with(|t| std::mem::take(&mut t.borrow_mut().spans))
}

/// The layer a span belongs to, from its name prefix. Correctness gates
/// get a row of their own: their time is not part of any task latency.
pub fn layer(name: &str) -> &'static str {
    if name == "bench.gate" {
        return "bench-gate";
    }
    match name.split('.').next() {
        Some("session") => "isis-session",
        Some("views") => "isis-views",
        Some("query") => "isis-query",
        Some("core") => "isis-core",
        Some("store") => "isis-store",
        Some("sample") => "isis-sample",
        _ => "bench",
    }
}

/// Each span's self time: its duration minus the time its direct children
/// cover (children never overlap on the single benchmark thread).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut child = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child[p] += s.dur_ns();
        }
    }
    spans
        .iter()
        .zip(child)
        .map(|(s, c)| s.dur_ns().saturating_sub(c))
        .collect()
}

/// Count, total and self time per layer, over spans that belong to a task.
pub fn layer_table(spans: &[Span]) -> BTreeMap<&'static str, (u64, u64, u64)> {
    let selfs = self_times(spans);
    let mut out: BTreeMap<&'static str, (u64, u64, u64)> = BTreeMap::new();
    for (s, self_ns) in spans.iter().zip(selfs) {
        if s.task.is_none() {
            continue;
        }
        let row = out.entry(layer(s.name)).or_default();
        row.0 += 1;
        row.1 += s.dur_ns();
        row.2 += self_ns;
    }
    out
}

/// The span tree as JSON: a flat list in which each span names its parent.
pub fn tree_json(spans: &[Span]) -> Json {
    let selfs = self_times(spans);
    Json::arr(
        spans
            .iter()
            .zip(selfs)
            .enumerate()
            .map(|(id, (s, self_ns))| {
                Json::obj([
                    ("id", Json::from(id)),
                    ("parent", s.parent.map_or(Json::Null, Json::from)),
                    ("name", Json::from(s.name)),
                    ("layer", Json::from(layer(s.name))),
                    ("task", s.task.map_or(Json::Null, Json::from)),
                    ("start_ns", Json::from(s.start_ns)),
                    ("end_ns", Json::from(s.end_ns)),
                    ("self_ns", Json::from(self_ns)),
                ])
            }),
    )
}
