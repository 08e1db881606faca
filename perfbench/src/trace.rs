//! In-memory span recording for the traced replay.
//!
//! A span is one call into a layer, recorded from the benchmark's own
//! code around the call: its name (`<layer>.<operation>`), start, end,
//! the span that was open when it started, and the request it belongs
//! to. Spans stay in memory until the run ends. A tracer built with
//! `on = false` records nothing and reads no clock, so the same replay
//! code also gives the untraced wall time the tracing overhead is
//! measured against.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// Parent id of a root span, and the id `enter` returns while off.
pub const NONE: u32 = u32::MAX;

/// One recorded call.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    /// `<layer>.<operation>`.
    pub name: &'static str,
    /// Request (or round) id the call served.
    pub req: u64,
    /// Index of the enclosing span, or [`NONE`].
    pub parent: u32,
    /// Nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// Nanoseconds since the tracer was created.
    pub end_ns: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }

    /// The layer: the name without its last `.operation` part.
    pub fn layer(&self) -> &'static str {
        layer_of(self.name)
    }
}

/// The layer part of a span name.
pub fn layer_of(name: &'static str) -> &'static str {
    name.rsplit_once('.').map_or(name, |(layer, _)| layer)
}

/// Span recorder shared (by `Rc`) between the replay loop and the
/// storage medium wrapper. Single-threaded by construction.
pub struct Tracer {
    on: Cell<bool>,
    origin: Instant,
    req: Cell<u64>,
    spans: RefCell<Vec<Span>>,
    stack: RefCell<Vec<u32>>,
}

impl Tracer {
    /// A tracer that records when `on`.
    pub fn new(on: bool) -> Self {
        Self {
            on: Cell::new(on),
            origin: Instant::now(),
            req: Cell::new(0),
            spans: RefCell::new(Vec::new()),
            stack: RefCell::new(Vec::new()),
        }
    }

    /// Whether spans are being recorded.
    pub fn is_on(&self) -> bool {
        self.on.get()
    }

    /// Pauses or resumes recording (between requests only).
    pub fn set_on(&self, on: bool) {
        debug_assert!(self.stack.borrow().is_empty(), "toggled inside a span");
        self.on.set(on);
    }

    /// Sets the request id later spans are filed under.
    pub fn begin_request(&self, req: u64) {
        self.req.set(req);
    }

    /// Opens a span; returns its id for [`Tracer::exit`].
    pub fn enter(&self, name: &'static str) -> u32 {
        if !self.on.get() {
            return NONE;
        }
        let start_ns = self.origin.elapsed().as_nanos() as u64;
        let mut spans = self.spans.borrow_mut();
        let mut stack = self.stack.borrow_mut();
        let id = spans.len() as u32;
        spans.push(Span {
            name,
            req: self.req.get(),
            parent: stack.last().copied().unwrap_or(NONE),
            start_ns,
            end_ns: start_ns,
        });
        stack.push(id);
        id
    }

    /// Closes the span `id` (the innermost open one).
    pub fn exit(&self, id: u32) {
        if id == NONE {
            return;
        }
        let end_ns = self.origin.elapsed().as_nanos() as u64;
        self.spans.borrow_mut()[id as usize].end_ns = end_ns;
        let top = self.stack.borrow_mut().pop();
        debug_assert_eq!(top, Some(id), "spans must close innermost first");
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let id = self.enter(name);
        let out = f();
        self.exit(id);
        out
    }

    /// Renames a closed span (a commit found to have flushed).
    pub fn rename(&self, id: u32, name: &'static str) {
        if id != NONE {
            self.spans.borrow_mut()[id as usize].name = name;
        }
    }

    /// Duration of span `id` in nanoseconds (0 while off).
    pub fn dur_ns(&self, id: u32) -> u64 {
        if id == NONE {
            0
        } else {
            self.spans.borrow()[id as usize].dur_ns()
        }
    }

    /// Takes every recorded span.
    pub fn take(&self) -> Vec<Span> {
        std::mem::take(&mut *self.spans.borrow_mut())
    }
}

/// Per-layer totals: calls, busy time, and self time (busy time minus
/// the time covered by child spans, which never overlap here because
/// the replay is single-threaded).
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct LayerRow {
    /// Spans recorded in the layer.
    pub calls: u64,
    /// Sum of span durations.
    pub busy_ns: u64,
    /// Sum of span self times.
    pub self_ns: u64,
}

/// Aggregates spans into one row per layer.
pub fn layer_table(spans: &[Span]) -> BTreeMap<&'static str, LayerRow> {
    let mut self_ns: Vec<u64> = spans.iter().map(Span::dur_ns).collect();
    for s in spans {
        if s.parent != NONE {
            let p = s.parent as usize;
            self_ns[p] = self_ns[p].saturating_sub(s.dur_ns());
        }
    }
    let mut rows: BTreeMap<&'static str, LayerRow> = BTreeMap::new();
    for (s, own) in spans.iter().zip(self_ns) {
        let row = rows.entry(s.layer()).or_default();
        row.calls += 1;
        row.busy_ns += s.dur_ns();
        row.self_ns += own;
    }
    rows
}

/// Durations (ns) of every span named `name`.
pub fn durations(spans: &[Span], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.dur_ns() as f64)
        .collect()
}

/// Most spans [`spans_tsv`] writes; beyond it, whole requests are
/// sampled so the file stays small on long runs.
pub const MAX_WRITTEN: usize = 250_000;

/// Spans as tab-separated text: a `#` line saying how they were
/// sampled, a header line, then one line per span. When there are more
/// than [`MAX_WRITTEN`], only the spans of every k-th request id are
/// written, so each written request keeps its whole tree.
pub fn spans_tsv(spans: &[Span]) -> String {
    let k = spans.len().div_ceil(MAX_WRITTEN).max(1) as u64;
    let mut out = String::with_capacity(spans.len().min(MAX_WRITTEN) * 48 + 128);
    let _ = writeln!(
        out,
        "# spans={} written=requests with id % {k} == 0",
        spans.len()
    );
    out.push_str("id\tparent\treq\tname\tstart_ns\tend_ns\n");
    for (i, s) in spans.iter().enumerate().filter(|(_, s)| s.req % k == 0) {
        let parent = if s.parent == NONE {
            -1
        } else {
            i64::from(s.parent)
        };
        let _ = writeln!(
            out,
            "{i}\t{parent}\t{}\t{}\t{}\t{}",
            s.req, s.name, s.start_ns, s.end_ns
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: u32, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name,
            req: 0,
            parent,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let spans = [
            span("bench.request", NONE, 0, 100),
            span("serve.submit", 0, 10, 40),
            span("serve.admission.offer", 1, 15, 25),
            span("plan.executor.execute", 0, 50, 90),
        ];
        let t = layer_table(&spans);
        assert_eq!(
            t["bench"],
            LayerRow {
                calls: 1,
                busy_ns: 100,
                self_ns: 30
            }
        );
        assert_eq!(
            t["serve"],
            LayerRow {
                calls: 1,
                busy_ns: 30,
                self_ns: 20
            }
        );
        assert_eq!(
            t["serve.admission"],
            LayerRow {
                calls: 1,
                busy_ns: 10,
                self_ns: 10
            }
        );
        assert_eq!(
            t["plan.executor"],
            LayerRow {
                calls: 1,
                busy_ns: 40,
                self_ns: 40
            }
        );
    }

    #[test]
    fn tracer_nests_and_records_nothing_when_off() {
        let tr = Tracer::new(true);
        tr.begin_request(7);
        let outer = tr.enter("bench.request");
        tr.span("plan.cache.get_or_insert", || ());
        tr.exit(outer);
        let spans = tr.take();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, 0);
        assert_eq!(spans[1].req, 7);
        assert_eq!(spans[1].layer(), "plan.cache");

        let off = Tracer::new(false);
        let id = off.enter("bench.request");
        off.exit(id);
        assert!(off.take().is_empty());
    }
}
