//! In-memory span recorder for the traced run.
//!
//! A span wraps one call from the benchmark into a crate's public API:
//! name, start, end, the enclosing span, and the job it belongs to. With
//! recording off, [`Recorder::span`] is a plain call, so the untraced run
//! measures the program alone. Spans stay in memory until
//! [`Recorder::write_jsonl`] at the end of the run.

use std::fmt::Write as _;
use std::io;
use std::path::Path;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub job: u64,
    /// Free-form annotation (for example the guard tier that decided).
    pub detail: &'static str,
}

impl Span {
    fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

#[derive(Debug)]
pub struct Recorder {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Recorder {
    pub fn new(enabled: bool) -> Recorder {
        Recorder {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Turns recording on or off for the calls that follow.
    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Runs `f` inside a span named `name` for job `job`.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        job: u64,
        f: impl FnOnce(&mut Recorder) -> T,
    ) -> T {
        if !self.enabled {
            return f(self);
        }
        let idx = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.stack.last().copied(),
            job,
            detail: "",
        });
        self.stack.push(idx);
        let out = f(self);
        self.stack.pop();
        self.spans[idx].end_ns = self.now_ns();
        out
    }

    /// Annotates the innermost open span.
    pub fn annotate(&mut self, detail: &'static str) {
        if let Some(&idx) = self.stack.last() {
            self.spans[idx].detail = detail;
        }
    }

    /// An empty recorder on the same clock, for another thread.
    pub fn fork(&self) -> Recorder {
        Recorder {
            enabled: self.enabled,
            epoch: self.epoch,
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    /// Appends the spans of a [`Recorder::fork`] once its thread is done.
    pub fn absorb(&mut self, other: Recorder) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    /// Forgets open spans after a panic unwound through [`Recorder::span`].
    pub fn reset_stack(&mut self) {
        self.stack.clear();
    }

    /// Total wall time, in seconds, of every span called `name`.
    pub fn total_s(&self, name: &str) -> f64 {
        let ns: u64 = self
            .spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::dur_ns)
            .sum();
        ns as f64 / 1e9
    }

    /// Self time of every span: its duration minus the part its direct
    /// children cover.
    fn self_ns(&self) -> Vec<u64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.dur_ns();
            }
        }
        self.spans
            .iter()
            .zip(child_ns)
            .map(|(s, c)| s.dur_ns().saturating_sub(c))
            .collect()
    }

    /// Writes one JSON object per span, self time included.
    pub fn write_jsonl(&self, path: &Path) -> io::Result<()> {
        let mut out = String::new();
        for (i, (s, self_ns)) in self.spans.iter().zip(self.self_ns()).enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\": {i}, \"name\": \"{}\", \"job\": {}, \"parent\": {parent}, \"start_ns\": {}, \"end_ns\": {}, \"self_ns\": {self_ns}, \"detail\": \"{}\"}}",
                s.name, s.job, s.start_ns, s.end_ns, s.detail
            );
        }
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut rec = Recorder::new(true);
        rec.span("outer", 1, |rec| {
            rec.span("inner", 1, |_| {
                std::thread::sleep(std::time::Duration::from_millis(5))
            });
        });
        let self_ns = rec.self_ns();
        assert_eq!(rec.spans[1].parent, Some(0));
        assert!(self_ns[0] < rec.spans[1].dur_ns());
        assert!(rec.total_s("outer") >= rec.total_s("inner"));
    }

    #[test]
    fn disabled_recorder_keeps_nothing() {
        let mut rec = Recorder::new(false);
        let v = rec.span("x", 0, |_| 7);
        assert_eq!(v, 7);
        assert_eq!(rec.len(), 0);
    }
}
