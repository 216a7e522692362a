//! Spans recorded from the benchmark's own files, around its calls into
//! each layer.
//!
//! A span is a name, a start and an end, the span that was open on the same
//! thread when it began (its parent), and the unit id it worked for (its
//! trace id). Each thread keeps its spans in memory until the workload
//! drains them with [`take_spans`]; the runner writes them out at exit.
//! While `vab_obs` allocation profiling is enabled, every span also carries
//! the allocations made inside it (children included), which the counting
//! allocator attributes exactly per thread.

use std::cell::RefCell;
use std::collections::{BTreeMap, HashMap};
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

use vab_obs::alloc;

/// One closed span. Times are nanoseconds since the process's trace epoch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanRec {
    /// Layer-qualified name, e.g. `link.decode`.
    pub name: &'static str,
    /// Unit (trial, deployment, job) the span worked for.
    pub trace_id: u64,
    /// Unique span id (never 0).
    pub span_id: u64,
    /// Enclosing span on the same thread; 0 for a root.
    pub parent: u64,
    /// Start, ns since the trace epoch.
    pub start_ns: u64,
    /// End, ns since the trace epoch.
    pub end_ns: u64,
    /// Allocations inside the span, children included (0 when profiling
    /// is off).
    pub allocs: u64,
    /// Bytes requested inside the span, children included.
    pub bytes: u64,
}

impl SpanRec {
    /// Wall duration, ns.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

#[derive(Default)]
struct Recorder {
    spans: Vec<SpanRec>,
    open: Vec<u64>,
}

thread_local! {
    static RECORDER: RefCell<Recorder> = RefCell::new(Recorder::default());
}

static NEXT_SPAN_ID: AtomicU64 = AtomicU64::new(1);

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// Runs `f` inside a span named `name` working for unit `trace_id`.
pub fn span<T>(name: &'static str, trace_id: u64, f: impl FnOnce() -> T) -> T {
    let epoch = epoch();
    // The recorder's own bookkeeping allocates; keep it out of the counts.
    let (span_id, parent) = {
        let _quiet = alloc::pause();
        RECORDER.with(|r| {
            let mut r = r.borrow_mut();
            let span_id = NEXT_SPAN_ID.fetch_add(1, Ordering::Relaxed);
            let parent = r.open.last().copied().unwrap_or(0);
            r.open.push(span_id);
            (span_id, parent)
        })
    };
    let frame = alloc::stage_enter(name);
    let start = Instant::now();
    let out = f();
    let end = Instant::now();
    let counted = frame.map(alloc::stage_exit).unwrap_or_default();
    let _quiet = alloc::pause();
    RECORDER.with(|r| {
        let mut r = r.borrow_mut();
        r.open.pop();
        r.spans.push(SpanRec {
            name,
            trace_id,
            span_id,
            parent,
            start_ns: start.duration_since(epoch).as_nanos() as u64,
            end_ns: end.duration_since(epoch).as_nanos() as u64,
            allocs: counted.allocs,
            bytes: counted.bytes,
        });
    });
    out
}

/// Drains the spans this thread has closed.
pub fn take_spans() -> Vec<SpanRec> {
    let _quiet = alloc::pause();
    RECORDER.with(|r| std::mem::take(&mut r.borrow_mut().spans))
}

/// A span's own share: its duration and allocations minus those of its
/// direct children.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SelfCost {
    /// Self time, ns.
    pub ns: u64,
    /// Self allocations.
    pub allocs: u64,
    /// Self bytes.
    pub bytes: u64,
}

/// Self cost of every span, in input order.
pub fn self_costs(spans: &[SpanRec]) -> Vec<SelfCost> {
    let index: HashMap<u64, usize> =
        spans.iter().enumerate().map(|(i, s)| (s.span_id, i)).collect();
    let mut out: Vec<SelfCost> = spans
        .iter()
        .map(|s| SelfCost { ns: s.dur_ns(), allocs: s.allocs, bytes: s.bytes })
        .collect();
    for s in spans {
        if let Some(&p) = index.get(&s.parent) {
            let parent = &mut out[p];
            parent.ns = parent.ns.saturating_sub(s.dur_ns());
            parent.allocs = parent.allocs.saturating_sub(s.allocs);
            parent.bytes = parent.bytes.saturating_sub(s.bytes);
        }
    }
    out
}

/// Per-name totals over a span set.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SpanStats {
    /// Spans of this name.
    pub calls: u64,
    /// Summed self cost.
    pub total: SelfCost,
}

impl SpanStats {
    /// Mean self time per call, µs (0 when never called).
    pub fn self_us(&self) -> f64 {
        self.per_call(self.total.ns as f64 / 1e3)
    }

    /// Mean self time per call, ms.
    pub fn self_ms(&self) -> f64 {
        self.per_call(self.total.ns as f64 / 1e6)
    }

    /// Mean self allocations per call.
    pub fn self_allocs(&self) -> f64 {
        self.per_call(self.total.allocs as f64)
    }

    /// Mean self bytes per call, MB.
    pub fn self_mb(&self) -> f64 {
        self.per_call(self.total.bytes as f64 / 1e6)
    }

    fn per_call(&self, total: f64) -> f64 {
        if self.calls == 0 {
            0.0
        } else {
            total / self.calls as f64
        }
    }
}

/// Self-cost totals keyed by span name.
pub fn stats_by_name(spans: &[SpanRec]) -> BTreeMap<&'static str, SpanStats> {
    let mut by_name: BTreeMap<&'static str, SpanStats> = BTreeMap::new();
    for (s, c) in spans.iter().zip(self_costs(spans)) {
        let e = by_name.entry(s.name).or_default();
        e.calls += 1;
        e.total.ns += c.ns;
        e.total.allocs += c.allocs;
        e.total.bytes += c.bytes;
    }
    by_name
}

/// Summed duration of root spans, ns: the thread time the spans account
/// for.
pub fn root_ns(spans: &[SpanRec]) -> u64 {
    spans.iter().filter(|s| s.parent == 0).map(SpanRec::dur_ns).sum()
}

/// Writes one JSON object per span to `path`.
pub fn write_jsonl(path: &Path, spans: &[SpanRec]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let costs = self_costs(spans);
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    for (s, c) in spans.iter().zip(costs) {
        writeln!(
            w,
            "{{\"name\":\"{}\",\"trace_id\":{},\"span_id\":{},\"parent\":{},\"start_ns\":{},\
             \"end_ns\":{},\"self_ns\":{},\"allocs\":{},\"self_allocs\":{},\"bytes\":{}}}",
            s.name,
            s.trace_id,
            s.span_id,
            s.parent,
            s.start_ns,
            s.end_ns,
            c.ns,
            s.allocs,
            c.allocs,
            s.bytes,
        )?;
    }
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(name: &'static str, id: u64, parent: u64, start: u64, end: u64, allocs: u64) -> SpanRec {
        SpanRec {
            name,
            trace_id: 7,
            span_id: id,
            parent,
            start_ns: start,
            end_ns: end,
            allocs,
            bytes: allocs * 8,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        // trial [0, 100) ⊃ encode [10, 20) and transport [20, 90);
        // transport ⊃ realize [20, 50).
        let spans = vec![
            rec("link.encode", 2, 1, 10, 20, 3),
            rec("channel.realize", 4, 3, 20, 50, 5),
            rec("sim.transport", 3, 1, 20, 90, 9),
            rec("sim.trial", 1, 0, 0, 100, 20),
        ];
        let costs = self_costs(&spans);
        assert_eq!(costs[0], SelfCost { ns: 10, allocs: 3, bytes: 24 });
        assert_eq!(costs[1], SelfCost { ns: 30, allocs: 5, bytes: 40 });
        assert_eq!(costs[2], SelfCost { ns: 40, allocs: 4, bytes: 32 });
        assert_eq!(costs[3], SelfCost { ns: 20, allocs: 8, bytes: 64 });
        // Self times partition the root.
        assert_eq!(costs.iter().map(|c| c.ns).sum::<u64>(), 100);
        assert_eq!(root_ns(&spans), 100);
        let by_name = stats_by_name(&spans);
        assert_eq!(by_name["sim.transport"].calls, 1);
        assert_eq!(by_name["sim.transport"].self_us(), 0.04);
    }

    #[test]
    fn recorded_spans_nest_on_one_thread() {
        let _ = take_spans();
        let v = span("outer", 3, || span("inner", 3, || 41) + 1);
        assert_eq!(v, 42);
        let spans = take_spans();
        assert_eq!(spans.len(), 2);
        let (inner, outer) = (&spans[0], &spans[1]);
        assert_eq!((inner.name, outer.name), ("inner", "outer"));
        assert_eq!(inner.parent, outer.span_id);
        assert_eq!(outer.parent, 0);
        assert!(outer.start_ns <= inner.start_ns && inner.end_ns <= outer.end_ns);
        assert!(take_spans().is_empty(), "take_spans drains");
    }
}
