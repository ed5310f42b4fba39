//! Spans around the benchmark's calls into each layer, for the traced run.
//!
//! Recording is off unless [`enable`] was called, and then costs one
//! clock read and one push per span. Spans are kept in memory and written
//! once, at exit ([`write_json`]); each carries the index of the span that
//! was open on the same thread when it started (its parent), so a layer's
//! self time is its duration minus its children's.

use serde_json::{Map, Value};
use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

static ENABLED: AtomicBool = AtomicBool::new(false);
static SPANS: Mutex<Vec<Span>> = Mutex::new(Vec::new());

thread_local! {
    static OPEN: RefCell<Vec<usize>> = const { RefCell::new(Vec::new()) };
}

/// One recorded span.
#[derive(Clone, Debug)]
pub struct Span {
    /// `<layer>.<call>`, e.g. `memory.h2d_bandwidth`.
    pub name: String,
    /// Start, nanoseconds since the process epoch.
    pub start_ns: u64,
    /// End, nanoseconds since the process epoch.
    pub end_ns: u64,
    /// Index of the enclosing span on the same thread.
    pub parent: Option<usize>,
}

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

fn now_ns() -> u64 {
    epoch().elapsed().as_nanos() as u64
}

/// Turn span recording on or off for the rest of the process.
pub fn enable(on: bool) {
    epoch();
    ENABLED.store(on, Ordering::SeqCst);
}

/// Whether spans are being recorded.
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Run `f` inside a span named `name` (a no-op wrapper when disabled).
pub fn span<T>(name: &str, f: impl FnOnce() -> T) -> T {
    if !enabled() {
        return f();
    }
    let parent = OPEN.with(|o| o.borrow().last().copied());
    let idx = {
        let mut spans = SPANS.lock().expect("span list poisoned by a panic");
        spans.push(Span {
            name: name.to_string(),
            start_ns: now_ns(),
            end_ns: 0,
            parent,
        });
        spans.len() - 1
    };
    OPEN.with(|o| o.borrow_mut().push(idx));
    let out = f();
    OPEN.with(|o| o.borrow_mut().pop());
    SPANS.lock().expect("span list poisoned by a panic")[idx].end_ns = now_ns();
    out
}

/// Number of spans recorded so far.
pub fn count() -> usize {
    SPANS.lock().expect("span list poisoned by a panic").len()
}

/// Self time per span name in milliseconds: each span's duration minus
/// the part its direct children cover, summed by name and sorted.
pub fn self_ms_by_name() -> Vec<(String, f64)> {
    let spans = SPANS.lock().expect("span list poisoned by a panic");
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans.iter() {
        if let Some(p) = s.parent {
            child_ns[p] += s.end_ns.saturating_sub(s.start_ns);
        }
    }
    let mut by_name = std::collections::BTreeMap::<String, f64>::new();
    for (s, c) in spans.iter().zip(child_ns) {
        let own = s.end_ns.saturating_sub(s.start_ns).saturating_sub(c);
        *by_name.entry(s.name.clone()).or_default() += own as f64 / 1e6;
    }
    by_name.into_iter().collect()
}

/// Write every recorded span to `path` as JSON
/// (`{"schema": "ifsim-perfbench-spans-v1", "spans": [...]}`).
pub fn write_json(path: &std::path::Path) -> std::io::Result<()> {
    let spans = SPANS.lock().expect("span list poisoned by a panic");
    let arr = spans
        .iter()
        .map(|s| {
            let mut m = Map::new();
            m.insert("name", Value::from(s.name.clone()));
            m.insert("start_ns", Value::from(s.start_ns));
            m.insert("end_ns", Value::from(s.end_ns));
            m.insert(
                "parent",
                s.parent.map_or(Value::Null, |p| Value::from(p as u64)),
            );
            Value::Object(m)
        })
        .collect();
    let mut root = Map::new();
    root.insert("schema", Value::from("ifsim-perfbench-spans-v1"));
    root.insert("spans", Value::Array(arr));
    std::fs::write(path, serde_json::to_string(&Value::Object(root)))
}
