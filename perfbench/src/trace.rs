//! In-memory span recorder for the traced run. Spans are timed from the
//! benchmark's own code around calls into each layer's public functions,
//! kept in memory, and written out as JSON lines when the run ends.

use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::time::Instant;

/// One timed interval.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Layer-qualified name, e.g. `shard.insert`.
    pub name: &'static str,
    /// Nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// Nanoseconds since the recorder was created.
    pub end_ns: u64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    /// Operation (request) the span belongs to.
    pub request: u64,
}

/// Collects spans; indices returned by [`Recorder::begin`] identify them.
#[derive(Debug)]
pub struct Recorder {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Default for Recorder {
    fn default() -> Self {
        Self {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }
}

impl Recorder {
    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64
    }

    /// Open a span now; close it with [`Recorder::end`].
    pub fn begin(&mut self, name: &'static str, parent: Option<usize>, request: u64) -> usize {
        let now = self.now_ns();
        self.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent,
            request,
        })
    }

    /// Close a span opened by [`Recorder::begin`].
    pub fn end(&mut self, id: usize) {
        self.spans[id].end_ns = self.now_ns();
    }

    /// Time `f` as a span.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        request: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.begin(name, parent, request);
        let out = f();
        self.end(id);
        out
    }

    /// Add a span whose bounds were measured elsewhere.
    pub fn push(&mut self, span: Span) -> usize {
        self.spans.push(span);
        self.spans.len() - 1
    }

    /// A span by index.
    pub fn span(&self, id: usize) -> &Span {
        &self.spans[id]
    }

    /// Self time of every span named `name`, in recording order: each
    /// span's duration minus the part of it its children cover.
    pub fn self_times(&self, name: &str) -> Vec<u64> {
        let mut children: Vec<Vec<usize>> = vec![Vec::new(); self.spans.len()];
        for (id, span) in self.spans.iter().enumerate() {
            if let Some(parent) = span.parent {
                children[parent].push(id);
            }
        }
        self.spans
            .iter()
            .enumerate()
            .filter(|(_, span)| span.name == name)
            .map(|(id, _)| self.self_ns(id, &children[id]))
            .collect()
    }

    /// Durations of every span named `name`, children included.
    pub fn durations(&self, name: &str) -> Vec<u64> {
        self.spans
            .iter()
            .filter(|span| span.name == name)
            .map(|span| span.end_ns.saturating_sub(span.start_ns))
            .collect()
    }

    fn self_ns(&self, id: usize, children: &[usize]) -> u64 {
        let span = &self.spans[id];
        // Union of the children's intervals, clipped to the parent's.
        let mut intervals: Vec<(u64, u64)> = children
            .iter()
            .map(|&c| {
                let child = &self.spans[c];
                (
                    child.start_ns.clamp(span.start_ns, span.end_ns),
                    child.end_ns.clamp(span.start_ns, span.end_ns),
                )
            })
            .filter(|(start, end)| end > start)
            .collect();
        intervals.sort_unstable();
        let mut covered = 0u64;
        let mut reach = span.start_ns;
        for (start, end) in intervals {
            let start = start.max(reach);
            if end > start {
                covered += end - start;
                reach = end;
            }
        }
        (span.end_ns.saturating_sub(span.start_ns)).saturating_sub(covered)
    }

    /// Write every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> io::Result<()> {
        let mut out = BufWriter::new(std::fs::File::create(path)?);
        for (id, span) in self.spans.iter().enumerate() {
            let parent = span.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"request\":{}}}",
                span.name, span.start_ns, span.end_ns, span.request
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            request: 7,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let mut rec = Recorder::default();
        let root = rec.push(span("op", 0, 100, None));
        // Two overlapping children cover [10, 50]; a third sticks out past
        // the parent's end and only [90, 100] of it counts.
        let a = rec.push(span("child", 10, 30, Some(root)));
        rec.push(span("child", 20, 50, Some(root)));
        rec.push(span("child", 90, 120, Some(root)));
        // A grandchild is covered by its parent and never by the root.
        rec.push(span("leaf", 12, 18, Some(a)));
        assert_eq!(rec.self_times("op"), vec![50]);
        assert_eq!(rec.self_times("child"), vec![14, 30, 30]);
        assert_eq!(rec.self_times("leaf"), vec![6]);
        assert_eq!(rec.durations("op"), vec![100]);
    }

    #[test]
    fn live_spans_nest_and_write_out() {
        let mut rec = Recorder::default();
        let root = rec.begin("op", None, 1);
        let inner = rec.time("inner", Some(root), 1, || {
            std::thread::sleep(std::time::Duration::from_millis(2));
            5
        });
        rec.end(root);
        assert_eq!(inner, 5);
        let outer = rec.durations("op")[0];
        let child = rec.durations("inner")[0];
        assert!(child >= 2_000_000 && child <= outer);
        assert_eq!(rec.self_times("op")[0], outer - child);

        let dir = std::env::temp_dir().join(format!("perfbench-trace-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("temp dir");
        let path = dir.join("spans.jsonl");
        rec.write_jsonl(&path).expect("write spans");
        let text = std::fs::read_to_string(&path).expect("read spans");
        std::fs::remove_dir_all(&dir).expect("cleanup");
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[1].contains("\"name\":\"inner\"") && lines[1].contains("\"parent\":0"));
    }
}
