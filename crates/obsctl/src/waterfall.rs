//! Cross-process span-tree reconstruction: the `vab-obsctl trace`
//! waterfall.
//!
//! `vab-obs` spans carry content-derived identity (`trace`, `id`,
//! `parent` — see `vab_obs::span`), so a job's life can be reassembled
//! from *any* set of JSONL traces that observed parts of it: the client
//! process contributes `svc.submit`, the daemon contributes
//! `svc.handle` → `svc.cache_lookup` / `svc.queue_wait` /
//! `svc.job_execute` → `svc.cache_persist`. Merged files have mutually
//! skewed clocks and overlapping `seq` ranges, so everything here is
//! computed from span *durations* only — never from cross-process
//! timestamps: critical-path attribution, percentages and self-times are
//! all skew-immune.
//!
//! The tree is one trace id's spans of a [`SpanForest`]. A span shows
//! its first `dur_us` and its repeat count; members of a forged parent
//! cycle have no root above them and do not render.

use std::collections::BTreeMap;

use crate::trace::{ForestSpan, SpanForest, Trace};

/// A span tree for one trace id, reconstructed from a (possibly merged)
/// event stream.
#[derive(Debug, Clone, Default)]
pub struct Waterfall {
    /// The trace id (the job's content digest).
    pub trace_id: u64,
    /// The trace's spans, keyed by id.
    pub spans: BTreeMap<u64, ForestSpan>,
}

impl Waterfall {
    /// Collects every `span_begin`/`span_end` event belonging to
    /// `trace_id` out of `trace` (which may be a [`Trace::merge`] of
    /// several processes' files).
    pub fn from_trace(trace: &Trace, trace_id: u64) -> Waterfall {
        let mut forest = SpanForest::build(trace, Some(trace_id));
        Waterfall { trace_id, spans: forest.traces.remove(&trace_id).unwrap_or_default() }
    }

    /// Root span ids: no parent, or a parent never observed (the job's
    /// anchor context is derived, not emitted, so `svc.submit` spans
    /// root the tree), sorted by `(name, id)`.
    pub fn roots(&self) -> Vec<u64> {
        let mut roots: Vec<(&str, u64)> = self
            .spans
            .iter()
            .filter(|(_, s)| s.parent.is_none_or(|p| !self.spans.contains_key(&p)))
            .map(|(&id, s)| (s.name.as_str(), id))
            .collect();
        roots.sort_unstable();
        roots.into_iter().map(|(_, id)| id).collect()
    }

    /// Children of `id`, sorted by `(name, id)`.
    pub fn children_of(&self, id: u64) -> &[u64] {
        self.spans.get(&id).map_or(&[], |s| &s.children)
    }

    /// The critical path under `root`: repeatedly descend into the child
    /// with the largest duration (ties break to the lower id). Durations
    /// only — immune to cross-process clock skew.
    pub fn critical_path(&self, root: u64) -> Vec<u64> {
        let mut path = vec![root];
        let mut at = root;
        loop {
            let next = self
                .children_of(at)
                .iter()
                .max_by_key(|&&id| (self.spans[&id].dur_us.unwrap_or(0), std::cmp::Reverse(id)));
            match next {
                Some(&id) if self.spans[&id].dur_us.is_some() && !path.contains(&id) => {
                    path.push(id);
                    at = id;
                }
                _ => return path,
            }
        }
    }

    /// `dur - Σ(children dur)`, clamped at zero (clamping absorbs the
    /// small overshoot a cross-thread child measured on another clock can
    /// introduce).
    pub fn self_us(&self, id: u64) -> u64 {
        let kids = self
            .children_of(id)
            .iter()
            .fold(0u64, |sum, c| sum.saturating_add(self.spans[c].dur_us.unwrap_or(0)));
        self.spans[&id].dur_us.unwrap_or(0).saturating_sub(kids)
    }

    /// The canonical span set: one `name trace:id<-parent` line per
    /// span, sorted. Two runs of the same workload produce identical
    /// sets whatever the worker count — this is what the determinism
    /// gate compares.
    pub fn canonical_set(&self) -> Vec<String> {
        let mut lines: Vec<String> = self
            .spans
            .iter()
            .map(|(id, s)| {
                let parent = s.parent.unwrap_or(0);
                format!("{} {:016x}:{id:016x}<-{parent:016x}", s.name, self.trace_id)
            })
            .collect();
        lines.sort_unstable();
        lines
    }

    /// Indented waterfall with duration, share of the enclosing root,
    /// self-time and source processes; `*` marks the critical path.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let roots = self.roots();
        let _ = writeln!(
            out,
            "trace {:016x}: {} span(s), {} root(s)",
            self.trace_id,
            self.spans.len(),
            roots.len()
        );
        for root in roots {
            let total = self.spans[&root].dur_us.unwrap_or(0).max(1);
            let critical: Vec<u64> = self.critical_path(root);
            let mut stack = vec![(root, 0usize)];
            while let Some((id, depth)) = stack.pop() {
                let s = &self.spans[&id];
                let mark = if critical.contains(&id) { "*" } else { " " };
                let dur = match s.dur_us {
                    Some(us) => format!("{:>10.3} ms", us as f64 / 1e3),
                    None => format!("{:>13}", "(no end)"),
                };
                let pct = s.dur_us.map(|us| 100.0 * us as f64 / total as f64).unwrap_or(0.0);
                let _ = writeln!(
                    out,
                    "{mark} {:indent$}{:<24} {dur}  {pct:5.1}%  self {:>8.3} ms  [{}]{}",
                    "",
                    s.name,
                    self.self_us(id) as f64 / 1e3,
                    s.sources.join("+"),
                    if s.events > 2 { format!("  x{}", s.events / 2) } else { String::new() },
                    indent = depth * 2,
                );
                // Push in reverse so children render in sibling order.
                stack.extend(s.children.iter().rev().map(|&child| (child, depth + 1)));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `(seq, t_us, target, event, span, id, parent, dur_us)`.
    type Row<'a> = (u64, u64, &'a str, &'a str, &'a str, u64, u64, Option<u64>);

    fn jsonl(rows: &[Row]) -> String {
        let line = |&(seq, t_us, target, kind, name, id, parent, dur): &Row| {
            let dur_field = dur.map(|d| format!(",\"dur_us\":{d}")).unwrap_or_default();
            format!(
                "{{\"seq\":{seq},\"t_us\":{t_us},\"target\":\"{target}\",\"event\":\"{kind}\",\"fields\":{{\"span\":\"{name}\",\"trace\":\"00000000000000aa\",\"id\":\"{id:016x}\",\"parent\":\"{parent:016x}\"{dur_field}}}}}"
            )
        };
        rows.iter().map(line).collect::<Vec<_>>().join("\n")
    }

    /// Hand-built span events mimicking the service tree:
    /// submit(id 10) <- handle(20) <- {lookup(30), queue(40), exec(50)};
    /// persist(60) under exec. Client and daemon number seqs
    /// independently and disagree on clocks.
    fn merged() -> Trace {
        let client = jsonl(&[
            (1, 5, "svc.client", "span_begin", "svc.submit", 0x10, 0x1, None),
            (2, 9000, "svc.client", "span_end", "svc.submit", 0x10, 0x1, Some(9000)),
        ]);
        let daemon = jsonl(&[
            (1, 7_000_000, "svc.server", "span_begin", "svc.handle", 0x20, 0x10, None),
            (2, 7_000_001, "svc.cache", "span_begin", "svc.cache_lookup", 0x30, 0x20, None),
            (3, 7_000_050, "svc.cache", "span_end", "svc.cache_lookup", 0x30, 0x20, Some(50)),
            (4, 7_000_060, "svc.pool", "span_begin", "svc.queue_wait", 0x40, 0x20, None),
            (5, 7_000_100, "svc.server", "span_end", "svc.handle", 0x20, 0x10, Some(200)),
            (6, 7_000_460, "svc.pool", "span_end", "svc.queue_wait", 0x40, 0x20, Some(400)),
            (7, 7_000_470, "svc.pool", "span_begin", "svc.job_execute", 0x50, 0x20, None),
            (8, 7_008_000, "svc.cache", "span_begin", "svc.cache_persist", 0x60, 0x50, None),
            (9, 7_008_100, "svc.cache", "span_end", "svc.cache_persist", 0x60, 0x50, Some(100)),
            (10, 7_008_150, "svc.pool", "span_end", "svc.job_execute", 0x50, 0x20, Some(7600)),
        ]);
        Trace::merge([("client", Trace::parse(&client)), ("daemon", Trace::parse(&daemon))])
    }

    #[test]
    fn rebuilds_the_cross_process_tree_and_critical_path() {
        let w = Waterfall::from_trace(&merged(), 0xaa);
        assert_eq!(w.spans.len(), 6);
        assert_eq!(w.roots(), vec![0x10], "submit roots the tree (its parent is the anchor)");
        assert_eq!(w.children_of(0x10), vec![0x20]);
        // Siblings sort by (name, id): cache_lookup < job_execute < queue_wait.
        assert_eq!(w.children_of(0x20), vec![0x30, 0x50, 0x40]);
        assert_eq!(w.critical_path(0x10), vec![0x10, 0x20, 0x50, 0x60]);
        // Self time clamps: handle (200 µs) measured less than its
        // cross-thread children — skew-immune attribution never goes
        // negative.
        assert_eq!(w.self_us(0x20), 0);
        assert_eq!(w.self_us(0x50), 7500);
        let rendered = w.render();
        assert!(rendered.contains("svc.job_execute"), "render: {rendered}");
        assert!(rendered.lines().any(|l| l.starts_with('*') && l.contains("svc.cache_persist")));
        assert!(rendered.contains("[client]"), "render: {rendered}");
    }

    #[test]
    fn canonical_set_ignores_event_order_and_duplicates() {
        let w = Waterfall::from_trace(&merged(), 0xaa);
        let set = w.canonical_set();
        assert_eq!(set.len(), 6);
        assert!(set.windows(2).all(|p| p[0] < p[1]), "sorted, unique: {set:?}");
        // A daemon that replays the identical (content-derived) span —
        // e.g. the same job submitted twice — must not grow the set.
        let doubled = {
            let once = merged();
            let mut twice = once.clone();
            twice.events.extend(once.events.clone());
            twice
        };
        assert_eq!(Waterfall::from_trace(&doubled, 0xaa).canonical_set(), set);
        // Other trace ids are invisible.
        assert!(Waterfall::from_trace(&merged(), 0xbb).spans.is_empty());
    }
}
