//! Spans the benchmark records around its own calls into each layer.
//!
//! Nothing here reaches inside the crates: a span is taken by the
//! benchmark's client code or by the timing decorator in `timed.rs`,
//! kept in memory while the run lasts, and written out at the end.

use std::cell::RefCell;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One timed interval. `start`/`end` are nanoseconds since the
/// recorder's epoch. `parent` is the span open on the same thread when
/// this one started, else the client op running then, else 0 (server
/// spans outside any client op, which are attributed in aggregate).
/// `req` is the client's request id (0 when there is none).
#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    pub parent: u64,
    pub req: u64,
    pub name: &'static str,
    pub start: u64,
    pub end: u64,
}

impl Span {
    pub fn dur(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }
}

thread_local! {
    /// Spans open on this thread, innermost last: a span started while
    /// another is open on the same thread is its child.
    static OPEN: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
}

/// An in-memory span sink shared by the client and the decorators.
pub struct Recorder {
    enabled: AtomicBool,
    epoch: Instant,
    next_id: AtomicU64,
    /// The client op currently running; decorator spans hang under it.
    current: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Recorder {
    pub fn new() -> Recorder {
        Recorder {
            enabled: AtomicBool::new(false),
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            current: AtomicU64::new(0),
            spans: Mutex::new(Vec::new()),
        }
    }

    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::SeqCst);
    }

    pub fn enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    pub fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Nanoseconds since the epoch for an `Instant` taken elsewhere.
    pub fn at(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Make `op` the parent of spans recorded from now on.
    pub fn set_current(&self, op: u64) {
        self.current.store(op, Ordering::Relaxed);
    }

    pub fn current(&self) -> u64 {
        self.current.load(Ordering::Relaxed)
    }

    pub fn fresh_id(&self) -> u64 {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    /// Record a finished span (no-op while disabled); returns its id.
    pub fn record(&self, name: &'static str, start: u64, end: u64, parent: u64, req: u64) -> u64 {
        if !self.enabled() {
            return 0;
        }
        let id = self.fresh_id();
        self.record_with_id(id, name, start, end, parent, req);
        id
    }

    fn record_with_id(
        &self,
        id: u64,
        name: &'static str,
        start: u64,
        end: u64,
        parent: u64,
        req: u64,
    ) {
        if !self.enabled() {
            return;
        }
        self.spans.lock().expect("span sink poisoned").push(Span {
            id,
            parent,
            req,
            name,
            start,
            end,
        });
    }

    /// Run `f` inside a span named `name`. Its parent is the span open
    /// on this thread, or else the current client op.
    pub fn time<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        if !self.enabled() {
            return f();
        }
        let id = self.fresh_id();
        let parent = OPEN.with(|o| {
            let mut o = o.borrow_mut();
            let parent = o.last().copied().unwrap_or_else(|| self.current());
            o.push(id);
            parent
        });
        let start = self.now();
        let out = f();
        let end = self.now();
        OPEN.with(|o| o.borrow_mut().pop());
        self.record_with_id(id, name, start, end, parent, 0);
        out
    }

    /// Take every span recorded so far.
    pub fn take(&self) -> Vec<Span> {
        std::mem::take(&mut *self.spans.lock().expect("span sink poisoned"))
    }
}

/// Sum of the durations of spans named `name`, in nanoseconds.
pub fn busy(spans: &[Span], name: &str) -> u64 {
    spans.iter().filter(|s| s.name == name).map(Span::dur).sum()
}

/// Wall time each of `names` accounts for inside the window
/// `[from, to)`: where spans overlap, the shared time is split evenly
/// between them, so the results never sum past the window. Spans from
/// parallel workers therefore add up to covered wall time, not to CPU
/// time.
pub fn covered(spans: &[&Span], names: &[&str], from: u64, to: u64) -> Vec<f64> {
    let mut edges: Vec<(u64, i32, usize)> = Vec::new();
    for s in spans {
        if let Some(i) = names.iter().position(|n| *n == s.name) {
            let (a, b) = (s.start.max(from), s.end.min(to));
            if a < b {
                edges.push((a, 1, i));
                edges.push((b, -1, i));
            }
        }
    }
    edges.sort_unstable();
    let mut open = vec![0i32; names.len()];
    let mut out = vec![0.0; names.len()];
    let mut last = from;
    for (t, delta, i) in edges {
        let active: i32 = open.iter().sum();
        if active > 0 && t > last {
            let dt = (t - last) as f64;
            for (k, n) in open.iter().enumerate() {
                out[k] += dt * (*n as f64) / active as f64;
            }
        }
        last = t;
        open[i] += delta;
    }
    out
}

/// Write spans as JSON lines: one object per span.
pub fn write_jsonl(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    let mut text = String::with_capacity(spans.len() * 96);
    for s in spans {
        let _ = writeln!(
            text,
            "{{\"id\":{},\"parent\":{},\"req\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
            s.id, s.parent, s.req, s.name, s.start, s.end
        );
    }
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(path, text)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64) -> Span {
        Span {
            id: 0,
            parent: 0,
            req: 0,
            name,
            start,
            end,
        }
    }

    #[test]
    fn overlapping_time_is_split_and_clipped_to_the_window() {
        let a = span("a", 0, 10);
        let b = span("b", 5, 15);
        let c = span("a", 20, 40);
        let got = covered(&[&a, &b, &c], &["a", "b"], 0, 30);
        // a alone 0-5, a+b 5-10, b alone 10-15, a alone 20-30.
        assert_eq!(got, vec![5.0 + 2.5 + 10.0, 2.5 + 5.0]);
    }

    #[test]
    fn nested_spans_name_their_parent() {
        let rec = Recorder::new();
        rec.set_enabled(true);
        rec.set_current(42);
        rec.time("outer", || rec.time("inner", || ()));
        let spans = rec.take();
        let outer = spans.iter().find(|s| s.name == "outer").unwrap();
        let inner = spans.iter().find(|s| s.name == "inner").unwrap();
        assert_eq!(outer.parent, 42);
        assert_eq!(inner.parent, outer.id);
    }
}
