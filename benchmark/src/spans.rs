//! The traced run's span recorder.
//!
//! Spans are recorded from the benchmark's own files, around each call
//! into a layer's public function; the program is not instrumented.
//! They are kept in memory and written to
//! `benchmark/out/trace-<workload>.jsonl` when the run ends. Spans of
//! one op share its `op` id; `parent` is the id of the enclosing span
//! (0 for an op's root).

use crate::stats;
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub id: u32,
    pub parent: u32,
    pub op: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Handle of an open span, returned by [`Tracer::begin`].
pub struct Open(usize);

pub struct Tracer {
    t0: Instant,
    spans: Vec<Span>,
    stack: Vec<u32>,
    op: u64,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            t0: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            op: 0,
        }
    }

    fn at(&self, t: Instant) -> u64 {
        t.duration_since(self.t0).as_nanos() as u64
    }

    /// Start the next op: spans begun from here on carry its id.
    pub fn next_op(&mut self) -> u64 {
        self.op += 1;
        self.op
    }

    pub fn begin(&mut self, name: &'static str) -> Open {
        let id = self.spans.len() as u32 + 1;
        self.spans.push(Span {
            id,
            parent: self.stack.last().copied().unwrap_or(0),
            op: self.op,
            name,
            start_ns: self.at(Instant::now()),
            end_ns: 0,
        });
        self.stack.push(id);
        Open(self.spans.len() - 1)
    }

    /// Close a span; returns its duration in nanoseconds.
    pub fn end(&mut self, open: Open) -> u64 {
        let now = self.at(Instant::now());
        let span = &mut self.spans[open.0];
        span.end_ns = now;
        let closed = self.stack.pop();
        debug_assert_eq!(closed, Some(span.id), "spans close innermost first");
        span.ns()
    }

    /// Time one call into a layer as a leaf span.
    pub fn call<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let open = self.begin(name);
        let r = f();
        self.end(open);
        r
    }

    /// Close every span still open: an op that failed half-way must
    /// not become the parent of the next one.
    pub fn close_open(&mut self) {
        let now = self.at(Instant::now());
        for id in self.stack.drain(..) {
            self.spans[id as usize - 1].end_ns = now;
        }
    }

    /// Record a span measured elsewhere (a client thread timed it);
    /// returns its id, for children to name as their parent.
    pub fn record(
        &mut self,
        name: &'static str,
        parent: u32,
        op: u64,
        start: Instant,
        end: Instant,
    ) -> u32 {
        let id = self.spans.len() as u32 + 1;
        self.spans.push(Span {
            id,
            parent,
            op,
            name,
            start_ns: self.at(start),
            end_ns: self.at(end),
        });
        id
    }

    /// Durations of every span called `name`, in milliseconds.
    pub fn ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.ns() as f64 / 1e6)
            .collect()
    }

    /// Median duration of the spans called `name`, in milliseconds
    /// (0 when the workload never enters that layer).
    pub fn p50_ms(&self, name: &str) -> f64 {
        stats::median(&self.ms(name))
    }

    /// Self time of each span called `name`: its duration minus the
    /// part its direct children cover, in milliseconds.
    pub fn self_ms(&self, name: &str) -> Vec<f64> {
        let mut covered = vec![0u64; self.spans.len() + 1];
        for s in &self.spans {
            covered[s.parent as usize] += s.ns();
        }
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.ns().saturating_sub(covered[s.id as usize]) as f64 / 1e6)
            .collect()
    }

    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            writeln!(
                w,
                "{{\"id\":{},\"parent\":{},\"op\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.id, s.parent, s.op, s.name, s.start_ns, s.end_ns
            )?;
        }
        w.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn children_name_their_parent_and_share_the_op() {
        let mut t = Tracer::new();
        let op = t.next_op();
        let root = t.begin("op");
        t.call("layer.a", || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        let group = t.begin("group");
        t.call("layer.b", || ());
        t.end(group);
        t.end(root);
        let by_name = |n: &str| t.spans.iter().find(|s| s.name == n).unwrap().clone();
        assert_eq!(by_name("op").parent, 0);
        assert_eq!(by_name("layer.a").parent, by_name("op").id);
        assert_eq!(by_name("layer.b").parent, by_name("group").id);
        assert!(t.spans.iter().all(|s| s.op == op));
        // Self time of the root excludes its two direct children.
        let root_ms = t.ms("op")[0];
        let self_ms = t.self_ms("op")[0];
        assert!(self_ms <= root_ms - 2.0, "{self_ms} vs {root_ms}");
        assert_eq!(t.ms("layer.b").len(), 1);
        assert_eq!(t.p50_ms("absent"), 0.0);
    }
}
