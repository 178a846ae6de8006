//! An in-memory span recorder for the traced run.
//!
//! A span is one call into a layer's public function: its name, start
//! and end (nanoseconds since the run's epoch), the span that caused it,
//! and the job it belongs to. Counters record per-call quantities (trace
//! moves, partition groups, …) under the same names. Nothing is written
//! until the run ends; a disabled recorder times nothing and stores
//! nothing, so untraced runs pay one branch per call site.

use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

/// One recorded call.
#[derive(Clone, Debug)]
pub struct Span {
    /// Layer function name, e.g. `core.canonical_key`.
    pub name: &'static str,
    /// Start, nanoseconds since the recorder's epoch.
    pub start_ns: u64,
    /// End, nanoseconds since the recorder's epoch.
    pub end_ns: u64,
    /// Index of the enclosing span in the same recorder, if any.
    pub parent: Option<usize>,
    /// The job this call belongs to (shadow calls carry the id of the
    /// job whose inputs they reuse).
    pub job: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Collects spans and counters for one thread of the benchmark.
pub struct Recorder {
    on: bool,
    epoch: Instant,
    job: u64,
    spans: Vec<Span>,
    open: Vec<usize>,
    counters: Vec<(&'static str, u64, f64)>,
}

impl Recorder {
    /// A recorder; `on = false` makes every method a no-op.
    pub fn new(on: bool, epoch: Instant) -> Self {
        Recorder {
            on,
            epoch,
            job: 0,
            spans: Vec::new(),
            open: Vec::new(),
            counters: Vec::new(),
        }
    }

    /// Whether spans are being recorded.
    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Sets the job id stamped on subsequent spans and counters.
    pub fn set_job(&mut self, job: u64) {
        self.job = job;
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span; close it with [`Recorder::exit`].
    pub fn enter(&mut self, name: &'static str) {
        if !self.on {
            return;
        }
        let span = Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.open.last().copied(),
            job: self.job,
        };
        self.open.push(self.spans.len());
        self.spans.push(span);
    }

    /// Closes the innermost open span.
    pub fn exit(&mut self) {
        if !self.on {
            return;
        }
        let idx = self.open.pop().expect("exit without a matching enter");
        self.spans[idx].end_ns = self.now_ns();
    }

    /// Runs `f` inside a leaf span named `name`.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        self.enter(name);
        let out = f();
        self.exit();
        out
    }

    /// Duration (ns) of the most recently opened span, once closed.
    pub fn last_ns(&self) -> Option<f64> {
        self.spans.last().map(|s| s.duration_ns() as f64)
    }

    /// Records one per-call quantity.
    pub fn count(&mut self, name: &'static str, value: f64) {
        if self.on {
            self.counters.push((name, self.job, value));
        }
    }

    /// Durations (ns) of every span named `name`.
    pub fn durations_ns(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration_ns() as f64)
            .collect()
    }

    /// Values of every counter named `name`.
    pub fn counts(&self, name: &str) -> Vec<f64> {
        self.counters
            .iter()
            .filter(|c| c.0 == name)
            .map(|c| c.2)
            .collect()
    }

    /// Number of spans recorded.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Writes every span and counter as tab-separated lines.
    pub fn write_tsv(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(
            out,
            "kind\tindex\tname\tstart_ns\tend_ns\tparent\tjob\tvalue"
        )?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("-".to_string(), |p| p.to_string());
            writeln!(
                out,
                "span\t{i}\t{}\t{}\t{}\t{parent}\t{}\t-",
                s.name, s.start_ns, s.end_ns, s.job
            )?;
        }
        for (i, (name, job, value)) in self.counters.iter().enumerate() {
            writeln!(out, "count\t{i}\t{name}\t-\t-\t-\t{job}\t{value}")?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_spans_link_to_their_parent() {
        let mut r = Recorder::new(true, Instant::now());
        r.set_job(7);
        r.enter("job");
        r.time("leaf", || std::hint::black_box(1 + 1));
        r.exit();
        assert_eq!(r.len(), 2);
        assert_eq!(r.spans[1].parent, Some(0));
        assert_eq!(r.spans[1].job, 7);
        assert!(r.spans[0].end_ns >= r.spans[1].end_ns);
    }

    #[test]
    fn a_disabled_recorder_stores_nothing() {
        let mut r = Recorder::new(false, Instant::now());
        r.enter("job");
        r.count("moves", 3.0);
        r.exit();
        assert_eq!(r.len(), 0);
        assert!(r.counts("moves").is_empty());
    }
}
