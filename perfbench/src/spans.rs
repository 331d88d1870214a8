//! In-memory span recording for the traced runs.
//!
//! A span is one call into a layer, recorded by the benchmark around that
//! call: name, start, end and the span that caused it.  Spans stay in memory
//! while the run measures and are written out as NDJSON when it ends.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Identifier of a recorded span; spans of one operation share its root.
pub type SpanId = u32;

/// One finished span.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: SpanId,
    pub parent: Option<SpanId>,
    pub name: &'static str,
    /// Nanoseconds since the tracer's epoch.
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Collects spans from any number of threads.
pub struct Tracer {
    epoch: Instant,
    next_id: AtomicU32,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            next_id: AtomicU32::new(0),
            spans: Mutex::new(Vec::new()),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).expect("run shorter than 584 years")
    }

    /// Open a span; it is recorded when the guard drops.
    pub fn open(&self, name: &'static str, parent: Option<SpanId>) -> SpanGuard<'_> {
        SpanGuard {
            tracer: self,
            id: self.next_id.fetch_add(1, Ordering::Relaxed),
            parent,
            name,
            start_ns: self.now_ns(),
        }
    }

    /// Record a span whose start and end were taken elsewhere.
    pub fn record(
        &self,
        name: &'static str,
        parent: Option<SpanId>,
        start: Instant,
        end: Instant,
    ) -> SpanId {
        let at = |t: Instant| {
            u64::try_from(t.saturating_duration_since(self.epoch).as_nanos())
                .expect("run shorter than 584 years")
        };
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let span = Span {
            id,
            parent,
            name,
            start_ns: at(start),
            end_ns: at(end),
        };
        self.spans
            .lock()
            .expect("no thread panics holding the span list")
            .push(span);
        id
    }

    /// Run `f` inside a span and return its result.
    pub fn time<R>(&self, name: &'static str, parent: Option<SpanId>, f: impl FnOnce() -> R) -> R {
        let _span = self.open(name, parent);
        f()
    }

    /// Every span recorded so far whose root is `root` (the root included).
    pub fn tree(&self, root: SpanId) -> Vec<Span> {
        let spans = self
            .spans
            .lock()
            .expect("no thread panics holding the span list");
        let parents: BTreeMap<SpanId, Option<SpanId>> =
            spans.iter().map(|s| (s.id, s.parent)).collect();
        let root_of = |mut id: SpanId| {
            while let Some(Some(parent)) = parents.get(&id) {
                id = *parent;
            }
            id
        };
        spans
            .iter()
            .filter(|s| root_of(s.id) == root)
            .cloned()
            .collect()
    }

    /// Write every span as one JSON object per line.
    pub fn write_ndjson(&self, path: &Path) -> std::io::Result<()> {
        let spans = self
            .spans
            .lock()
            .expect("no thread panics holding the span list");
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in spans.iter() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{parent},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.id, s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

/// An open span; records itself on drop.
pub struct SpanGuard<'a> {
    tracer: &'a Tracer,
    id: SpanId,
    parent: Option<SpanId>,
    name: &'static str,
    start_ns: u64,
}

impl SpanGuard<'_> {
    pub fn id(&self) -> SpanId {
        self.id
    }
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        let span = Span {
            id: self.id,
            parent: self.parent,
            name: self.name,
            start_ns: self.start_ns,
            end_ns: self.tracer.now_ns(),
        };
        if let Ok(mut spans) = self.tracer.spans.lock() {
            spans.push(span);
        }
    }
}

/// Self time of every span in `spans`: its duration minus the part of its
/// interval that its children cover (children may run on several threads
/// at once; overlapping children are counted once).
pub fn self_times(spans: &[Span]) -> BTreeMap<SpanId, u64> {
    let mut children: BTreeMap<SpanId, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if let Some(parent) = s.parent {
            children
                .entry(parent)
                .or_default()
                .push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .map(|s| {
            let mut intervals = children.remove(&s.id).unwrap_or_default();
            intervals.sort_unstable();
            let mut covered = 0;
            let mut cursor = s.start_ns;
            for (start, end) in intervals {
                let (start, end) = (start.max(cursor), end.min(s.end_ns));
                if end > start {
                    covered += end - start;
                    cursor = end;
                }
            }
            (s.id, s.duration_ns() - covered)
        })
        .collect()
}

/// Summed duration of the spans named `name`.
pub fn total_ns(spans: &[Span], name: &str) -> u64 {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(Span::duration_ns)
        .sum()
}

/// Durations of the spans named `name`, in recording order.
pub fn durations_ns(spans: &[Span], name: &str) -> Vec<u64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(Span::duration_ns)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: SpanId, parent: Option<SpanId>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            name: "x",
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = [
            span(0, None, 0, 100),
            // Two overlapping children (two threads) and one nested deeper.
            span(1, Some(0), 10, 60),
            span(2, Some(0), 40, 90),
            span(3, Some(1), 20, 30),
        ];
        let own = self_times(&spans);
        assert_eq!(own[&0], 100 - 80);
        assert_eq!(own[&1], 50 - 10);
        assert_eq!(own[&2], 50);
        assert_eq!(own[&3], 10);
    }

    #[test]
    fn tree_collects_one_root_across_threads() {
        let tracer = Tracer::new();
        let (a, b) = {
            let root_a = tracer.open("a", None);
            let a = root_a.id();
            std::thread::scope(|s| {
                s.spawn(|| tracer.time("child", Some(a), || ()));
                s.spawn(|| tracer.time("child", Some(a), || ()));
            });
            let root_b = tracer.open("b", None);
            (a, root_b.id())
        };
        let tree = tracer.tree(a);
        assert_eq!(tree.len(), 3);
        assert_eq!(durations_ns(&tree, "child").len(), 2);
        assert_eq!(tracer.tree(b).len(), 1);
    }
}
