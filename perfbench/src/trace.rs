//! In-memory span recording for the traced run.
//!
//! The benchmark wraps each public call into a layer in a span (name,
//! start, end, parent span, job id). Spans stay in a `Vec` until the run
//! ends; [`Tracer::self_times`] then charges each span its duration minus
//! the time its direct children cover, and [`Tracer::chrome_json`]
//! renders them in the Chrome trace-event format (loadable in
//! Perfetto).

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// `layer.call`, e.g. `compiler.compile`.
    pub name: &'static str,
    /// Index of the enclosing span, `None` for a job's root.
    pub parent: Option<usize>,
    /// The job (root span) this span belongs to.
    pub job: u64,
    /// Start, in nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, in nanoseconds since the tracer was created (0 while open).
    pub end_ns: u64,
}

impl Span {
    /// The span's length.
    #[must_use]
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }

    /// The layer: the part of the name before the first dot.
    #[must_use]
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

/// Self time of one span name, summed over a run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SelfTime {
    /// Total self time.
    pub total_ns: u64,
    /// Distinct jobs with at least one span of this name.
    pub jobs: u64,
}

impl SelfTime {
    /// Mean self time per job that made the call, in milliseconds.
    #[must_use]
    pub fn mean_ms(&self) -> f64 {
        if self.jobs == 0 {
            0.0
        } else {
            self.total_ns as f64 / self.jobs as f64 / 1e6
        }
    }
}

/// Records spans; see the module docs.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    job: u64,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            job: 0,
        }
    }
}

impl Tracer {
    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span as a child of the innermost open span. A span opened
    /// with nothing open is a job's root and starts a new job id.
    pub fn enter(&mut self, name: &'static str) -> usize {
        let parent = self.open.last().copied();
        if parent.is_none() {
            self.job += 1;
        }
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            parent,
            job: self.job,
            start_ns,
            end_ns: 0,
        });
        self.open.push(id);
        id
    }

    /// Closes the innermost open span, which must be `id`.
    ///
    /// # Panics
    ///
    /// Panics if spans are closed out of order (a benchmark bug).
    pub fn exit(&mut self, id: usize) {
        assert_eq!(self.open.pop(), Some(id), "spans close innermost first");
        self.spans[id].end_ns = self.now_ns();
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let id = self.enter(name);
        let out = f();
        self.exit(id);
        out
    }

    /// The recorded spans.
    #[must_use]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time per span name: each span's duration minus the durations
    /// of its direct children (children never overlap: one thread).
    #[must_use]
    pub fn self_times(&self) -> BTreeMap<&'static str, SelfTime> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if let Some(p) = span.parent {
                child_ns[p] += span.duration_ns();
            }
        }
        let mut out: BTreeMap<&'static str, SelfTime> = BTreeMap::new();
        let mut seen: BTreeMap<&'static str, u64> = BTreeMap::new();
        for (span, children) in self.spans.iter().zip(child_ns) {
            let entry = out.entry(span.name).or_default();
            entry.total_ns += span.duration_ns().saturating_sub(children);
            if seen.insert(span.name, span.job) != Some(span.job) {
                entry.jobs += 1;
            }
        }
        out
    }

    /// The spans in Chrome trace-event JSON (`ts`/`dur` in microseconds;
    /// `args` carry the job id and the parent span index).
    #[must_use]
    pub fn chrome_json(&self) -> String {
        let mut out = String::from("{\"traceEvents\":[\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s
                .parent
                .map_or_else(|| "null".to_owned(), |p| p.to_string());
            let _ = write!(
                out,
                "{}{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\
                 \"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"span\":{i},\"job\":{},\"parent\":{parent}}}}}",
                if i == 0 { "" } else { ",\n" },
                s.name,
                s.layer(),
                s.start_ns as f64 / 1e3,
                s.duration_ns() as f64 / 1e3,
                s.job,
            );
        }
        out.push_str("\n]}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children_and_counts_jobs() {
        let mut t = Tracer::default();
        for _ in 0..2 {
            let root = t.enter("core.job");
            t.span("ir.lower", || {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
            t.span("ir.lower", || ());
            t.exit(root);
        }
        let st = t.self_times();
        assert_eq!(st["core.job"].jobs, 2);
        assert_eq!(st["ir.lower"].jobs, 2, "two spans in one job count once");
        let root_total: u64 = t
            .spans()
            .iter()
            .filter(|s| s.parent.is_none())
            .map(Span::duration_ns)
            .sum();
        let sum: u64 = st.values().map(|s| s.total_ns).sum();
        assert_eq!(sum, root_total, "self times partition the root spans");
        assert!(st["ir.lower"].total_ns >= 4_000_000);
        assert!(t.chrome_json().contains("\"parent\":null"));
    }
}
