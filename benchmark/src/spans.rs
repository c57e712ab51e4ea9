//! In-memory span recorder for the traced run.
//!
//! The harness opens a span around each of its own calls into a layer
//! (`sim.step`, `mobility.advance`, `mac.interval`, ...). A span has a
//! name, a start and an end relative to the recorder's epoch, and the
//! span that was open when it started. Every span of one simulated run
//! (or one layer-driver replay) carries the same run id, and each run
//! has exactly one root. Spans stay in memory until the benchmark ends
//! and are then written out as JSON lines.

use std::collections::BTreeMap;
use std::io::{self, Write};
use std::time::Instant;

/// One recorded span. Times are nanoseconds since the recorder's epoch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Index of this span in the recorder.
    pub id: usize,
    /// The span that was open when this one started; `None` for a root.
    pub parent: Option<usize>,
    /// The run this span belongs to.
    pub run: u32,
    /// Layer-qualified name, e.g. `mobility.advance`.
    pub name: &'static str,
    /// Start, ns since the epoch.
    pub start_ns: u64,
    /// End, ns since the epoch (equal to `start_ns` while open).
    pub end_ns: u64,
}

impl Span {
    /// Wall time covered by the span, nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Per-name totals: how many spans, their summed duration and their
/// summed self time (duration minus the time their children cover).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpanTotals {
    /// Spans with this name.
    pub count: u64,
    /// Summed duration, ns.
    pub total_ns: u64,
    /// Summed self time, ns.
    pub self_ns: u64,
}

/// The recorder. See the [module docs](self).
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    run: u32,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

impl Tracer {
    /// An empty recorder whose epoch is now.
    pub fn new() -> Self {
        Tracer {
            epoch: Instant::now(),
            run: 0,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open one. Opening a span with
    /// nothing open starts a new run: it becomes that run's root.
    pub fn enter(&mut self, name: &'static str) -> usize {
        let parent = self.open.last().copied();
        if parent.is_none() {
            self.run += 1;
        }
        let id = self.spans.len();
        let now = self.now_ns();
        self.spans.push(Span {
            id,
            parent,
            run: self.run,
            name,
            start_ns: now,
            end_ns: now,
        });
        self.open.push(id);
        id
    }

    /// Closes `id`, which must be the innermost open span.
    ///
    /// # Panics
    ///
    /// Panics when spans are closed out of order (a harness bug).
    pub fn exit(&mut self, id: usize) {
        assert_eq!(self.open.pop(), Some(id), "span closed out of order");
        self.spans[id].end_ns = self.now_ns();
    }

    /// Every span recorded so far, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Per-name totals, with self time computed from the children.
    pub fn totals(&self) -> BTreeMap<&'static str, SpanTotals> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.duration_ns();
            }
        }
        let mut out: BTreeMap<&'static str, SpanTotals> = BTreeMap::new();
        for s in &self.spans {
            let t = out.entry(s.name).or_default();
            t.count += 1;
            t.total_ns += s.duration_ns();
            t.self_ns += s.duration_ns().saturating_sub(child_ns[s.id]);
        }
        out
    }

    /// Writes every span as one JSON object per line.
    ///
    /// # Errors
    ///
    /// Returns the writer's error.
    pub fn write_jsonl(&self, mut w: impl Write) -> io::Result<()> {
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                w,
                "{{\"run\":{},\"id\":{},\"parent\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.run, s.id, parent, s.name, s.start_ns, s.end_ns
            )?;
        }
        w.flush()
    }
}

/// Checks the structural rules every recording must satisfy: each run
/// has exactly one root, and every child shares its parent's run and
/// lies inside its parent's interval.
///
/// # Errors
///
/// Returns the first violation found.
pub fn validate(spans: &[Span]) -> Result<(), String> {
    let mut roots: BTreeMap<u32, usize> = BTreeMap::new();
    for s in spans {
        if s.end_ns < s.start_ns {
            return Err(format!("span {} ({}) ends before it starts", s.id, s.name));
        }
        match s.parent {
            None => {
                if let Some(other) = roots.insert(s.run, s.id) {
                    return Err(format!(
                        "run {} has two roots: {} and {}",
                        s.run, other, s.id
                    ));
                }
            }
            Some(p) => {
                let parent = spans
                    .get(p)
                    .filter(|_| p < s.id)
                    .ok_or_else(|| format!("span {} names unknown parent {p}", s.id))?;
                if parent.run != s.run {
                    return Err(format!(
                        "span {} is in run {} but its parent is in run {}",
                        s.id, s.run, parent.run
                    ));
                }
                if s.start_ns < parent.start_ns || s.end_ns > parent.end_ns {
                    return Err(format!(
                        "span {} ({}) is not inside its parent {} ({})",
                        s.id, s.name, p, parent.name
                    ));
                }
            }
        }
    }
    let runs: std::collections::BTreeSet<u32> = spans.iter().map(|s| s.run).collect();
    if let Some(r) = runs.iter().find(|r| !roots.contains_key(r)) {
        return Err(format!("run {r} has no root"));
    }
    Ok(())
}

/// Runs `f`, inside a span named `name` when a tracer is given, and
/// returns its result with its wall time in nanoseconds (the span's own
/// duration when traced, so the figure and the span agree).
pub fn timed<R>(
    tracer: &mut Option<&mut Tracer>,
    name: &'static str,
    f: impl FnOnce() -> R,
) -> (R, u64) {
    match tracer {
        Some(t) => {
            let id = t.enter(name);
            let out = f();
            t.exit(id);
            (out, t.spans()[id].duration_ns())
        }
        None => {
            let start = Instant::now();
            let out = f();
            (out, start.elapsed().as_nanos() as u64)
        }
    }
}
