//! In-memory span recorder for the traced run.
//!
//! The benchmark measures each layer from outside: it wraps its own calls into
//! the library crates in spans (name, start, end, parent). Spans stay in
//! memory and are written out once, when the run ends. A disabled recorder
//! costs one branch per call, so untraced rounds run the same code.

use std::io::{self, Write};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Identifier of a recorded span (unique within one [`Tracer`]).
pub type SpanId = usize;

/// One timed call into a layer.
#[derive(Debug, Clone)]
pub struct Span {
    /// Identifier, referenced by child spans.
    pub id: SpanId,
    /// The span that caused this one.
    pub parent: Option<SpanId>,
    /// Layer-boundary name, e.g. `sim::system`.
    pub name: &'static str,
    /// Index of the item (cell, ingest call, pattern × pair) within its layer.
    pub item: usize,
    /// Start, relative to the recorder's creation.
    pub start: Duration,
    /// End, relative to the recorder's creation.
    pub end: Duration,
}

impl Span {
    /// Wall time the span covers.
    pub fn duration(&self) -> Duration {
        self.end.saturating_sub(self.start)
    }
}

/// Records spans when enabled; a no-op otherwise.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    next: AtomicUsize,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    /// A recorder that records nothing (the untraced, measured path).
    pub fn off() -> Self {
        Self::new(false)
    }

    /// A recorder that keeps every span.
    pub fn on() -> Self {
        Self::new(true)
    }

    fn new(enabled: bool) -> Self {
        Self {
            enabled,
            origin: Instant::now(),
            next: AtomicUsize::new(0),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Runs `f` inside a span `name`/`item` caused by `parent`. `f` receives
    /// the new span's id (`None` when disabled) to pass to nested calls.
    pub fn span<R>(
        &self,
        name: &'static str,
        item: usize,
        parent: Option<SpanId>,
        f: impl FnOnce(Option<SpanId>) -> R,
    ) -> R {
        if !self.enabled {
            return f(None);
        }
        let id = self.next.fetch_add(1, Ordering::Relaxed);
        let start = self.origin.elapsed();
        let out = f(Some(id));
        let end = self.origin.elapsed();
        self.lock().push(Span {
            id,
            parent,
            name,
            item,
            start,
            end,
        });
        out
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Vec<Span>> {
        self.spans
            .lock()
            .expect("a span recorder panicked mid-push")
    }

    /// Drops every recorded span (ids keep increasing).
    pub fn clear(&self) {
        self.lock().clear();
    }

    /// Every span named `name`, ordered by item.
    pub fn named(&self, name: &str) -> Vec<Span> {
        let mut out: Vec<Span> = self
            .lock()
            .iter()
            .filter(|s| s.name == name)
            .cloned()
            .collect();
        out.sort_by_key(|s| s.item);
        out
    }

    /// Total wall time of every span named `name`.
    pub fn total(&self, name: &str) -> Duration {
        self.named(name).iter().map(Span::duration).sum()
    }

    /// A span's own time in nanoseconds: its duration minus its children's.
    /// Children timed one at a time after the call they decompose can sum to
    /// more than it, so the result may be negative.
    pub fn self_ns(&self, id: SpanId) -> f64 {
        let spans = self.lock();
        let own = spans
            .iter()
            .find(|s| s.id == id)
            .map_or(0.0, |s| s.duration().as_nanos() as f64);
        let children: f64 = spans
            .iter()
            .filter(|s| s.parent == Some(id))
            .map(|s| s.duration().as_nanos() as f64)
            .sum();
        own - children
    }

    /// Writes every span as one JSON object per line.
    ///
    /// # Errors
    ///
    /// Propagates write errors.
    pub fn write_jsonl(&self, out: &mut impl Write) -> io::Result<()> {
        let mut spans = self.lock().clone();
        spans.sort_by_key(|s| s.id);
        for s in &spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"span\": {}, \"parent\": {parent}, \"name\": \"{}\", \"item\": {}, \
                 \"start_ns\": {}, \"end_ns\": {}}}",
                s.id,
                s.name,
                s.item,
                s.start.as_nanos(),
                s.end.as_nanos()
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_recorder_keeps_nothing() {
        let t = Tracer::off();
        let v = t.span("a", 0, None, |id| {
            assert!(id.is_none());
            7
        });
        assert_eq!(v, 7);
        assert!(t.named("a").is_empty());
    }

    #[test]
    fn self_time_subtracts_children() {
        let t = Tracer::on();
        let root = t.span("root", 0, None, |root| {
            t.span("child", 0, root, |_| {
                std::thread::sleep(Duration::from_millis(5))
            });
            root.expect("enabled")
        });
        let whole = t.named("root")[0].duration().as_nanos() as f64;
        let child = t.named("child")[0].duration().as_nanos() as f64;
        assert!(child >= 5e6);
        assert_eq!(t.self_ns(root), whole - child);
        assert_eq!(t.named("child")[0].parent, Some(root));
    }
}
