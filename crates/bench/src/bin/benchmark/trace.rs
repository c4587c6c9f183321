//! In-memory spans recorded around the benchmark's calls into each
//! layer, written out once at exit. Nothing is traced inside the
//! program; the router's own scope tree comes from `ProfilingProbe`.

use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// What a span belongs to: a repetition of a route, or a serve job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Owner {
    Rep(u64),
    Job(u64),
}

/// One completed (or still open) span.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub parent: Option<usize>,
    pub owner: Owner,
    pub start: Duration,
    pub end: Duration,
}

/// Span recorder. A disabled tracer records nothing and reads no clock,
/// so timed repetitions run the same code with tracing off.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Runs `f` inside a span named `name`, nested under the innermost
    /// open span.
    pub fn span<T>(&mut self, name: &'static str, owner: Owner, f: impl FnOnce() -> T) -> T {
        if !self.enabled {
            return f();
        }
        let id = self.enter(name, owner);
        let out = f();
        self.exit(id);
        out
    }

    /// Opens a span explicitly (for spans whose body needs the tracer).
    pub fn enter(&mut self, name: &'static str, owner: Owner) -> usize {
        let id = self.spans.len();
        if self.enabled {
            let now = self.origin.elapsed();
            self.spans.push(Span {
                name,
                parent: self.open.last().copied(),
                owner,
                start: now,
                end: now,
            });
            self.open.push(id);
        }
        id
    }

    /// Closes span `id` and any span still open inside it.
    pub fn exit(&mut self, id: usize) {
        if !self.enabled {
            return;
        }
        let now = self.origin.elapsed();
        while let Some(top) = self.open.pop() {
            self.spans[top].end = now;
            if top == id {
                break;
            }
        }
    }

    /// Durations of the spans named `name` owned by `owner`.
    pub fn durations<'a>(&'a self, name: &'a str, owner: Owner) -> impl Iterator<Item = f64> + 'a {
        self.spans
            .iter()
            .filter(move |s| s.name == name && s.owner == owner)
            .map(|s| (s.end - s.start).as_secs_f64())
    }

    /// Summed seconds of the spans named `name` owned by `owner`.
    pub fn total(&self, name: &str, owner: Owner) -> f64 {
        self.durations(name, owner).fold(0.0, |a, b| a + b)
    }

    /// A span's duration minus the time its child spans cover.
    pub fn self_time(&self, id: usize) -> Duration {
        let s = &self.spans[id];
        let children: Duration = self
            .spans
            .iter()
            .filter(|c| c.parent == Some(id))
            .map(|c| c.end - c.start)
            .sum();
        (s.end - s.start).saturating_sub(children)
    }

    /// The spans as a JSON array.
    pub fn to_json(&self) -> String {
        let mut out = String::from("[");
        for (id, s) in self.spans.iter().enumerate() {
            if id > 0 {
                out.push(',');
            }
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            let owner = match s.owner {
                Owner::Rep(n) => format!("\"rep\": {n}"),
                Owner::Job(n) => format!("\"job\": {n}"),
            };
            let _ = write!(
                out,
                "\n    {{\"id\": {id}, \"name\": \"{}\", \"parent\": {parent}, {owner}, \"start_us\": {}, \"end_us\": {}, \"self_us\": {}}}",
                s.name,
                s.start.as_micros(),
                s.end.as_micros(),
                self.self_time(id).as_micros()
            );
        }
        out.push_str("\n  ]");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut t = Tracer::new(true);
        let root = t.enter("root", Owner::Rep(7));
        t.span("child", Owner::Rep(7), || {
            std::thread::sleep(Duration::from_millis(5))
        });
        t.exit(root);
        assert_eq!(t.spans[1].parent, Some(root));
        let child = t.spans[1].end - t.spans[1].start;
        let whole = t.spans[0].end - t.spans[0].start;
        assert_eq!(t.self_time(root), whole - child);
        assert!(t.total("child", Owner::Rep(7)) >= 0.005);
        assert_eq!(t.total("child", Owner::Job(7)), 0.0);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        assert_eq!(t.span("x", Owner::Rep(0), || 3), 3);
        assert!(t.spans.is_empty());
        assert_eq!(t.to_json(), "[\n  ]");
    }
}
