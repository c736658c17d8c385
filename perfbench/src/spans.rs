//! In-memory spans for the traced run.
//!
//! A span is one timed call into a layer's public API, made from the
//! benchmark's own code: name, start, end, the span that caused it and
//! the request it belongs to. Spans are kept in memory while the
//! workload runs and written out as JSONL when it ends, so recording
//! costs one lock and one push per span. Untraced runs carry no tracer
//! at all: [`Scope::span`] then calls straight through.

use std::collections::HashMap;
use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::Path;
use std::sync::Mutex;
use std::time::Instant;

/// One finished (or still open, `end == 0`) span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer call, e.g. `sim.run_counting`.
    pub name: &'static str,
    /// Secondary key for aggregation, e.g. the security mode of a job.
    pub detail: &'static str,
    /// Nanoseconds since the tracer was created.
    pub start: u64,
    /// Nanoseconds since the tracer was created.
    pub end: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// Request the span belongs to.
    pub req: u64,
    /// Work the call did, in the unit the span's metric divides by
    /// (simulator events, jobs, records); 0 when not applicable.
    pub work: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn ns(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }
}

/// The span store.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    fn since(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Vec<Span>> {
        self.spans
            .lock()
            .expect("span store poisoned by a panicking recorder")
    }

    /// A copy of every span recorded so far.
    pub fn spans(&self) -> Vec<Span> {
        self.lock().clone()
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = BufWriter::new(File::create(path)?);
        for (id, s) in self.lock().iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"detail\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"req\":{},\"work\":{}}}",
                s.name, s.detail, s.start, s.end, s.req, s.work
            )?;
        }
        out.flush()
    }
}

/// Where new spans go: a tracer (or none), the enclosing span and the
/// request id. Copy it into closures that run on other threads.
#[derive(Debug, Clone, Copy)]
pub struct Scope<'a> {
    tracer: Option<&'a Tracer>,
    parent: Option<usize>,
    req: u64,
}

impl<'a> Scope<'a> {
    /// The top of request `req`.
    pub fn root(tracer: Option<&'a Tracer>, req: u64) -> Scope<'a> {
        Scope {
            tracer,
            parent: None,
            req,
        }
    }

    pub fn traced(&self) -> bool {
        self.tracer.is_some()
    }

    /// Times `f` as span `name`; `f` receives the scope for child spans
    /// and returns its result plus the work it did.
    pub fn span_work<T>(
        self,
        name: &'static str,
        detail: &'static str,
        f: impl FnOnce(Scope<'a>) -> (T, u64),
    ) -> T {
        let Some(tracer) = self.tracer else {
            return f(self).0;
        };
        let start = tracer.since(Instant::now());
        let id = {
            let mut spans = tracer.lock();
            spans.push(Span {
                name,
                detail,
                start,
                end: 0,
                parent: self.parent,
                req: self.req,
                work: 0,
            });
            spans.len() - 1
        };
        let (value, work) = f(Scope {
            parent: Some(id),
            ..self
        });
        let end = tracer.since(Instant::now());
        let mut spans = tracer.lock();
        spans[id].end = end;
        spans[id].work = work;
        value
    }

    /// [`span_work`](Scope::span_work) without a work count.
    pub fn span<T>(self, name: &'static str, f: impl FnOnce(Scope<'a>) -> T) -> T {
        self.span_work(name, "", |s| (f(s), 0))
    }

    /// Records a span whose interval was measured by the caller (e.g.
    /// from inside a streaming callback).
    pub fn record(self, name: &'static str, start: Instant, end: Instant) {
        if let Some(tracer) = self.tracer {
            let span = Span {
                name,
                detail: "",
                start: tracer.since(start),
                end: tracer.since(end),
                parent: self.parent,
                req: self.req,
                work: 0,
            };
            tracer.lock().push(span);
        }
    }
}

/// Aggregates over a set of spans.
pub struct Summary {
    spans: Vec<Span>,
    child_ns: Vec<u64>,
}

/// Total time, work and count of one `(name, detail)` group.
#[derive(Debug, Default, Clone, Copy)]
pub struct Group {
    pub count: u64,
    pub ns: u64,
    pub self_ns: u64,
    pub work: u64,
}

impl Summary {
    pub fn new(spans: Vec<Span>) -> Summary {
        let mut child_ns = vec![0u64; spans.len()];
        for s in &spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.ns();
            }
        }
        Summary { spans, child_ns }
    }

    /// Sums spans named `name` (any detail when `detail` is `None`)
    /// whose request id passes `req`.
    pub fn group(&self, name: &str, detail: Option<&str>, req: impl Fn(u64) -> bool) -> Group {
        let mut g = Group::default();
        for (i, s) in self.spans.iter().enumerate() {
            if s.name == name && detail.is_none_or(|d| s.detail == d) && req(s.req) {
                g.count += 1;
                g.ns += s.ns();
                g.self_ns += s.ns().saturating_sub(self.child_ns[i]);
                g.work += s.work;
            }
        }
        g
    }

    /// Every span group with its self time, largest first: the table
    /// printed at the end of a traced run.
    pub fn self_time_table(&self) -> Vec<(String, Group)> {
        let mut by: HashMap<String, Group> = HashMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            let key = if s.detail.is_empty() {
                s.name.to_string()
            } else {
                format!("{}[{}]", s.name, s.detail)
            };
            let g = by.entry(key).or_default();
            g.count += 1;
            g.ns += s.ns();
            g.self_ns += s.ns().saturating_sub(self.child_ns[i]);
            g.work += s.work;
        }
        let mut rows: Vec<_> = by.into_iter().collect();
        rows.sort_by(|a, b| b.1.self_ns.cmp(&a.1.self_ns).then(a.0.cmp(&b.0)));
        rows
    }
}
