//! Span recording for the traced run, kept in memory and written out
//! when the run ends — as JSON and as a perfvar trace archive, so
//! perfvar's own SOS analysis can be pointed at its benchmark.
//!
//! Spans are recorded only by the benchmark's own code, around each
//! operation (the `op` span), each external call inside it (`cli.*`
//! subprocesses, `http.*` requests, `sse.*` waits) and each in-process
//! call into a layer's public API.

use perfvar_trace::format::write_trace_file;
use perfvar_trace::{Clock, FunctionRole, Timestamp, Trace, TraceBuilder};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Name of the span around one whole operation.
pub const OP: &str = "op";

/// One finished span.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub id: u64,
    pub parent: Option<u64>,
    pub name: &'static str,
    /// The operation this span belongs to (`0`: none — a layer probe).
    pub op: u64,
    /// The generator thread that recorded it.
    pub thread: usize,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Work done inside the span (bytes or events) for rate metrics.
    pub units: u64,
}

impl Span {
    pub fn seconds(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e9
    }

    /// Whether this span stands for a call into `perfvar` from outside
    /// (a subprocess, an HTTP request, an SSE wait) rather than an
    /// in-process layer call.
    pub fn is_external(&self) -> bool {
        ["cli.", "http.", "sse."]
            .iter()
            .any(|p| self.name.starts_with(p))
    }
}

/// A span that has started and not yet ended.
pub struct Open {
    id: u64,
    parent: Option<u64>,
    name: &'static str,
    op: u64,
    thread: usize,
    start: Instant,
}

/// The in-memory span store of one traced run.
pub struct Recorder {
    origin: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Recorder {
    pub fn new() -> Recorder {
        Recorder {
            origin: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Starts a root span of operation `op` on generator thread `thread`.
    pub fn open(&self, name: &'static str, op: u64, thread: usize) -> Open {
        Open {
            // A plain counter: ids publish no other data.
            id: self.next_id.fetch_add(1, Ordering::Relaxed),
            parent: None,
            name,
            op,
            thread,
            start: Instant::now(),
        }
    }

    /// Starts a child of `parent` (same operation, same thread).
    pub fn child(&self, parent: &Open, name: &'static str) -> Open {
        Open {
            parent: Some(parent.id),
            ..self.open(name, parent.op, parent.thread)
        }
    }

    /// Ends a span; returns its duration in seconds.
    pub fn close(&self, open: Open) -> f64 {
        self.close_with(open, 0, Instant::now())
    }

    /// Ends a span at `end`, crediting it with `units` of work.
    pub fn close_with(&self, open: Open, units: u64, end: Instant) -> f64 {
        let span = Span {
            id: open.id,
            parent: open.parent,
            name: open.name,
            op: open.op,
            thread: open.thread,
            start_ns: self.ns(open.start),
            end_ns: self.ns(end).max(self.ns(open.start)),
            units,
        };
        let seconds = span.seconds();
        self.spans
            .lock()
            .expect("a span writer panicked")
            .push(span);
        seconds
    }

    /// Records an interval measured elsewhere (such as a wait observed by
    /// another thread) as a span; returns its id for children.
    pub fn record(
        &self,
        name: &'static str,
        parent: Option<u64>,
        op: u64,
        thread: usize,
        (start, end): (Instant, Instant),
    ) -> u64 {
        let open = Open {
            parent,
            start,
            ..self.open(name, op, thread)
        };
        let id = open.id;
        self.close_with(open, 0, end);
        id
    }

    /// Times `f` as a span named `name`: a child of `parent`, or a root
    /// layer probe on the main thread.
    pub fn time<R>(&self, parent: Option<&Open>, name: &'static str, f: impl FnOnce() -> R) -> R {
        self.time_units(parent, name, || (f(), 0))
    }

    /// Like [`Recorder::time`] for a call that reports the work it did.
    pub fn time_units<R>(
        &self,
        parent: Option<&Open>,
        name: &'static str,
        f: impl FnOnce() -> (R, u64),
    ) -> R {
        let open = match parent {
            Some(p) => self.child(p, name),
            None => self.open(name, 0, 0),
        };
        let (value, units) = f();
        self.close_with(open, units, Instant::now());
        value
    }

    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("a span writer panicked").clone()
    }

    /// Writes `<workload>.spans.json` and `<workload>.spans.pvta` into
    /// `dir`; returns the archive's path.
    pub fn write(&self, dir: &Path, workload: &str) -> Result<PathBuf, String> {
        let spans = self.spans();
        let json = dir.join(format!("{workload}.spans.json"));
        std::fs::write(&json, spans_json(&spans))
            .map_err(|e| format!("cannot write {}: {e}", json.display()))?;
        let archive = dir.join(format!("{workload}.spans.pvta"));
        let _ = std::fs::remove_dir_all(&archive);
        write_trace_file(&spans_trace(&spans, workload)?, &archive)
            .map_err(|e| format!("cannot write {}: {e}", archive.display()))?;
        Ok(archive)
    }
}

/// Duration minus the part of it covered by `children`.
pub fn self_ns(span: &Span, children: &[&Span]) -> u64 {
    let mut intervals: Vec<(u64, u64)> = children
        .iter()
        .map(|c| (c.start_ns.max(span.start_ns), c.end_ns.min(span.end_ns)))
        .filter(|(s, e)| s < e)
        .collect();
    intervals.sort_unstable();
    let mut covered = 0;
    let mut reach = span.start_ns;
    for (s, e) in intervals {
        let s = s.max(reach);
        if e > s {
            covered += e - s;
            reach = e;
        }
    }
    (span.end_ns - span.start_ns) - covered
}

/// Direct children of every span, by parent id.
pub fn children_of(spans: &[Span]) -> BTreeMap<u64, Vec<&Span>> {
    let mut map: BTreeMap<u64, Vec<&Span>> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            map.entry(p).or_default().push(s);
        }
    }
    map
}

fn spans_json(spans: &[Span]) -> String {
    let rows: Vec<String> = spans
        .iter()
        .map(|s| {
            format!(
                "  {{\"id\": {}, \"parent\": {}, \"name\": {:?}, \"op\": {}, \"thread\": {}, \
                 \"start_ns\": {}, \"end_ns\": {}, \"units\": {}}}",
                s.id,
                s.parent.map_or("null".to_string(), |p| p.to_string()),
                s.name,
                s.op,
                s.thread,
                s.start_ns,
                s.end_ns,
                s.units
            )
        })
        .collect();
    format!("[\n{}\n]\n", rows.join(",\n"))
}

/// The spans as a trace: one process per generator thread, one
/// function per span name, enter/leave at span start/end in nanosecond
/// ticks. A span that would break the per-thread nesting (an SSE wait
/// outliving the next one) is left out of the archive.
pub fn spans_trace(spans: &[Span], workload: &str) -> Result<Trace, String> {
    let mut b = TraceBuilder::new(Clock::nanoseconds()).with_name(format!("benchmark {workload}"));
    let threads = spans.iter().map(|s| s.thread + 1).max().unwrap_or(1);
    let processes: Vec<_> = (0..threads)
        .map(|t| b.define_process(format!("thread {t}")))
        .collect();
    for (t, &process) in processes.iter().enumerate() {
        let mut mine: Vec<&Span> = spans.iter().filter(|s| s.thread == t).collect();
        mine.sort_by_key(|s| (s.start_ns, std::cmp::Reverse(s.end_ns), s.id));
        let mut stack: Vec<&Span> = Vec::new();
        let mut now = 0u64;
        for s in mine {
            // Close everything down to the span's parent (all of it for
            // a root span or one whose parent was left out).
            let keep = s
                .parent
                .and_then(|p| stack.iter().position(|open| open.id == p))
                .map_or(0, |i| i + 1);
            if stack[keep..].iter().any(|open| open.end_ns > s.start_ns)
                || stack
                    .get(keep.wrapping_sub(1))
                    .is_some_and(|p| s.end_ns > p.end_ns)
            {
                continue;
            }
            while stack.len() > keep {
                let done = stack.pop().expect("len > keep");
                let function = b.define_function(done.name, FunctionRole::Compute);
                b.process_mut(process)
                    .leave(Timestamp(done.end_ns), function)
                    .map_err(|e| format!("span nesting: {e}"))?;
                now = done.end_ns;
            }
            if s.start_ns < now {
                continue;
            }
            let function = b.define_function(s.name, FunctionRole::Compute);
            b.process_mut(process)
                .enter(Timestamp(s.start_ns), function)
                .map_err(|e| format!("span nesting: {e}"))?;
            now = s.start_ns;
            stack.push(s);
        }
        while let Some(done) = stack.pop() {
            let function = b.define_function(done.name, FunctionRole::Compute);
            b.process_mut(process)
                .leave(Timestamp(done.end_ns), function)
                .map_err(|e| format!("span nesting: {e}"))?;
        }
    }
    b.finish().map_err(|e| format!("span trace: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(
        id: u64,
        parent: Option<u64>,
        name: &'static str,
        thread: usize,
        s: u64,
        e: u64,
    ) -> Span {
        Span {
            id,
            parent,
            name,
            op: 1,
            thread,
            start_ns: s,
            end_ns: e,
            units: 0,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let parent = span(1, None, OP, 0, 0, 100);
        let a = span(2, Some(1), "a", 0, 10, 40);
        let b = span(3, Some(1), "b", 0, 30, 60); // overlaps a
        let c = span(4, Some(1), "c", 0, 90, 150); // sticks out
        assert_eq!(self_ns(&parent, &[&a, &b, &c]), 100 - 50 - 10);
        assert_eq!(self_ns(&a, &[]), 30);
    }

    /// The spans of a small traced run — two generator threads issuing
    /// operations, each with a subprocess call and layer calls, plus
    /// one root layer probe — analysed by perfvar itself must name the
    /// operation span as the time-dominant function.
    #[test]
    fn perfvar_analyze_of_the_span_archive_names_the_op_span() {
        let mut spans = Vec::new();
        let mut id = 1;
        for thread in 0..2 {
            let mut t = 1_000 * thread as u64;
            for _ in 0..8 {
                let op = id;
                spans.push(span(op, None, OP, thread, t, t + 900));
                spans.push(span(
                    op + 1,
                    Some(op),
                    "cli.analyze",
                    thread,
                    t + 10,
                    t + 500,
                ));
                spans.push(span(
                    op + 2,
                    Some(op),
                    "analysis.analyze",
                    thread,
                    t + 500,
                    t + 800,
                ));
                spans.push(span(
                    op + 3,
                    Some(op),
                    "json.render",
                    thread,
                    t + 800,
                    t + 880,
                ));
                id += 4;
                t += 2_000;
            }
        }
        spans.push(span(id, None, "trace.digest", 0, 40_000, 40_300));
        let dir =
            std::env::temp_dir().join(format!("perfvar-benchmark-spans-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let archive = dir.join("t.spans.pvta");
        write_trace_file(&spans_trace(&spans, "t").unwrap(), &archive).unwrap();
        let result = perfvar_analysis::analyze_path(&archive, &Default::default()).unwrap();
        let names = perfvar_trace::format::cursor::ArchiveCursor::open(&archive).unwrap();
        assert_eq!(names.registry().function_name(result.function), OP);
        assert_eq!(result.segmentation.len(), 16);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn overlapping_siblings_are_left_out_of_the_archive() {
        let spans = vec![
            span(1, None, "sse.lag", 0, 0, 30),
            span(2, None, "sse.lag", 0, 20, 50), // starts before the first ends
            span(3, None, "sse.lag", 0, 60, 70),
        ];
        let trace = spans_trace(&spans, "t").unwrap();
        assert_eq!(trace.num_events(), 4);
    }
}
