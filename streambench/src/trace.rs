//! Traced mode: a span (name, start, end, parent) around every call the
//! benchmark makes into a layer's public function.
//!
//! Spans are recorded from the benchmark's own files, so the program is
//! measured from outside. Per-name counts, total time and self time (the
//! span's duration minus the part its child spans cover) are aggregated
//! as spans close; the spans themselves are kept in memory up to
//! [`MAX_KEPT`] and written out when the run ends.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::time::Instant;

/// Spans kept for the trace file; aggregates cover every span.
const MAX_KEPT: usize = 200_000;

/// One closed span. Times are nanoseconds since the tracer's origin;
/// `parent` indexes the kept spans (`u32::MAX` for a root span or one
/// whose parent was not kept).
#[derive(Clone, Copy, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: u32,
}

/// Per-name aggregate.
#[derive(Clone, Copy, Debug, Default)]
pub struct Agg {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

struct Open {
    name: &'static str,
    start: Instant,
    kept: u32,
    child_ns: u64,
}

/// The span recorder. Disabled, `begin`/`end` cost one branch.
pub struct Tracer {
    on: bool,
    origin: Instant,
    stack: Vec<Open>,
    kept: Vec<Span>,
    dropped: u64,
    agg: BTreeMap<&'static str, Agg>,
    /// Aggregates at the last [`Tracer::mark`]; reads report the
    /// difference.
    base: BTreeMap<&'static str, Agg>,
    /// Duration of closed root spans (the share of wall time the layer
    /// spans cover is computed from it).
    root_ns: u64,
}

/// Handle returned by [`Tracer::begin`]; pass it back to [`Tracer::end`].
#[must_use]
pub struct Token(bool);

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            origin: Instant::now(),
            stack: Vec::new(),
            kept: Vec::new(),
            dropped: 0,
            agg: BTreeMap::new(),
            base: BTreeMap::new(),
            root_ns: 0,
        }
    }

    pub fn enabled(&self) -> bool {
        self.on
    }

    /// Switches recording on or off between calls (never inside a span).
    pub fn set_enabled(&mut self, on: bool) {
        debug_assert!(self.stack.is_empty(), "toggled inside a span");
        self.on = on;
    }

    #[inline]
    pub fn begin(&mut self, name: &'static str) -> Token {
        if !self.on {
            return Token(false);
        }
        let kept = if self.kept.len() < MAX_KEPT { self.kept.len() as u32 } else { u32::MAX };
        if kept != u32::MAX {
            let parent = self.stack.last().map_or(u32::MAX, |o| o.kept);
            self.kept.push(Span { name, start_ns: 0, end_ns: 0, parent });
        } else {
            self.dropped += 1;
        }
        let start = Instant::now();
        if let Some(s) = self.kept.get_mut(kept as usize) {
            s.start_ns = (start - self.origin).as_nanos() as u64;
        }
        self.stack.push(Open { name, start, kept, child_ns: 0 });
        Token(true)
    }

    #[inline]
    pub fn end(&mut self, t: Token) {
        if !t.0 {
            return;
        }
        let now = Instant::now();
        let Some(open) = self.stack.pop() else {
            return;
        };
        let dur = (now - open.start).as_nanos() as u64;
        if let Some(s) = self.kept.get_mut(open.kept as usize) {
            s.end_ns = (now - self.origin).as_nanos() as u64;
        }
        match self.stack.last_mut() {
            Some(parent) => parent.child_ns += dur,
            None => self.root_ns += dur,
        }
        let a = self.agg.entry(open.name).or_default();
        a.count += 1;
        a.total_ns += dur;
        a.self_ns += dur.saturating_sub(open.child_ns);
    }

    /// Runs `f` inside a span named `name`.
    #[inline]
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let t = self.begin(name);
        let r = f();
        self.end(t);
        r
    }

    /// Starts the measured part of a run: [`Tracer::agg`] reports only
    /// what closed after this point (set-up spans stay in the trace file).
    pub fn mark(&mut self) {
        self.base = self.agg.clone();
    }

    /// Count, total and self time of the spans named `name` closed since
    /// the last [`Tracer::mark`].
    pub fn agg(&self, name: &str) -> Agg {
        let a = self.agg.get(name).copied().unwrap_or_default();
        let b = self.base.get(name).copied().unwrap_or_default();
        Agg {
            count: a.count - b.count,
            total_ns: a.total_ns - b.total_ns,
            self_ns: a.self_ns - b.self_ns,
        }
    }

    /// Self time of every span named `name`, in seconds.
    pub fn self_s(&self, name: &str) -> f64 {
        self.agg(name).self_ns as f64 / 1e9
    }

    /// Total duration of closed root spans so far, in nanoseconds.
    pub fn root_ns(&self) -> u64 {
        self.root_ns
    }

    /// Writes the kept spans as tab-separated `index name start_ns end_ns
    /// parent` lines, then one `#agg name count total_ns self_ns` line per
    /// span name.
    pub fn write(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(w, "# index\tname\tstart_ns\tend_ns\tparent (spans not kept: {})", self.dropped)?;
        for (i, s) in self.kept.iter().enumerate() {
            let parent = if s.parent == u32::MAX { "-".to_string() } else { s.parent.to_string() };
            writeln!(w, "{i}\t{}\t{}\t{}\t{parent}", s.name, s.start_ns, s.end_ns)?;
        }
        for (name, a) in &self.agg {
            writeln!(w, "#agg\t{name}\t{}\t{}\t{}", a.count, a.total_ns, a.self_ns)?;
        }
        w.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_time_excludes_children() {
        let mut tr = Tracer::new(true);
        let outer = tr.begin("outer");
        std::thread::sleep(Duration::from_millis(4));
        tr.span("inner", || std::thread::sleep(Duration::from_millis(8)));
        tr.end(outer);
        let o = tr.agg("outer");
        let i = tr.agg("inner");
        assert_eq!((o.count, i.count), (1, 1));
        assert!(i.self_ns >= 8_000_000);
        assert!(o.total_ns >= o.self_ns + i.total_ns);
        assert!(o.self_ns >= 4_000_000 && o.self_ns < i.total_ns);
        assert_eq!(tr.kept[1].parent, 0);
        assert_eq!(tr.root_ns(), o.total_ns);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut tr = Tracer::new(false);
        tr.span("x", || ());
        assert_eq!(tr.agg("x").count, 0);
        assert!(tr.kept.is_empty());
    }
}
