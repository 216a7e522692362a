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

use std::collections::BTreeMap;

use vab_util::json::Json;

use crate::trace::Trace;

/// One reconstructed span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Span name (doubles as the stage-histogram instrument name).
    pub name: String,
    /// Emitting subsystem of the first event seen for this id.
    pub target: String,
    /// Content-derived span id.
    pub id: u64,
    /// Parent span id (0 = no parent).
    pub parent: u64,
    /// Duration from the `span_end` event, if one was observed.
    pub dur_us: Option<u64>,
    /// Trace labels (processes) that emitted events for this span,
    /// sorted and deduplicated.
    pub sources: Vec<String>,
    /// How many begin/end events referenced this id (a long-lived daemon
    /// trace can replay an identical content-derived span; we keep the
    /// first duration and count the rest).
    pub occurrences: usize,
}

/// A span tree for one trace id, reconstructed from a (possibly merged)
/// event stream.
#[derive(Debug, Clone, Default)]
pub struct Waterfall {
    /// The trace id (the job's content digest).
    pub trace_id: u64,
    /// Spans keyed by id (BTreeMap for deterministic iteration).
    pub spans: BTreeMap<u64, Span>,
}

fn hex_field(fields: &Json, key: &str) -> Option<u64> {
    u64::from_str_radix(fields.str_field(key)?, 16).ok()
}

impl Waterfall {
    /// Collects every `span_begin`/`span_end` event belonging to
    /// `trace_id` out of `trace` (which may be a [`Trace::merge`] of
    /// several processes' files).
    pub fn from_trace(trace: &Trace, trace_id: u64) -> Waterfall {
        let mut spans: BTreeMap<u64, Span> = BTreeMap::new();
        for e in &trace.events {
            if e.name != "span_begin" && e.name != "span_end" {
                continue;
            }
            let Some(t) = hex_field(&e.fields, "trace") else { continue };
            if t != trace_id {
                continue;
            }
            let (Some(id), Some(parent), Some(name)) = (
                hex_field(&e.fields, "id"),
                hex_field(&e.fields, "parent"),
                e.fields.str_field("span"),
            ) else {
                continue;
            };
            let span = spans.entry(id).or_insert_with(|| Span {
                name: name.to_string(),
                target: e.target.clone(),
                id,
                parent,
                dur_us: None,
                sources: Vec::new(),
                occurrences: 0,
            });
            span.occurrences += 1;
            if !e.source.is_empty() && !span.sources.contains(&e.source) {
                span.sources.push(e.source.clone());
            }
            if e.name == "span_end" && span.dur_us.is_none() {
                span.dur_us = e.fields.u64_field("dur_us");
            }
        }
        for span in spans.values_mut() {
            span.sources.sort_unstable();
        }
        Waterfall { trace_id, spans }
    }

    /// Root span ids: parent 0 or a parent never observed (the job's
    /// anchor context is derived, not emitted, so `svc.submit` spans
    /// root the tree), sorted by `(name, id)`.
    pub fn roots(&self) -> Vec<u64> {
        let mut roots: Vec<u64> = self
            .spans
            .values()
            .filter(|s| s.parent == 0 || !self.spans.contains_key(&s.parent))
            .map(|s| s.id)
            .collect();
        self.sort_sibling_ids(&mut roots);
        roots
    }

    /// Children of `id`, sorted by `(name, id)` — a total, content-only
    /// order, so sibling layout never depends on event arrival order.
    pub fn children_of(&self, id: u64) -> Vec<u64> {
        let mut kids: Vec<u64> =
            self.spans.values().filter(|s| s.parent == id && s.id != id).map(|s| s.id).collect();
        self.sort_sibling_ids(&mut kids);
        kids
    }

    fn sort_sibling_ids(&self, ids: &mut [u64]) {
        ids.sort_by(|a, b| {
            let (sa, sb) = (&self.spans[a], &self.spans[b]);
            (sa.name.as_str(), sa.id).cmp(&(sb.name.as_str(), sb.id))
        });
    }

    /// The critical path under `root`: repeatedly descend into the child
    /// with the largest duration (ties break by the sibling order).
    /// Durations only — immune to cross-process clock skew.
    pub fn critical_path(&self, root: u64) -> Vec<u64> {
        let mut path = vec![root];
        let mut at = root;
        loop {
            let next = self
                .children_of(at)
                .into_iter()
                .max_by_key(|id| (self.spans[id].dur_us.unwrap_or(0), std::cmp::Reverse(*id)));
            match next {
                Some(id) if self.spans[&id].dur_us.is_some() => {
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
        let own = self.spans[&id].dur_us.unwrap_or(0);
        let kids: u64 =
            self.children_of(id).iter().map(|c| self.spans[c].dur_us.unwrap_or(0)).sum();
        own.saturating_sub(kids)
    }

    /// The canonical span set: one `name trace:id<-parent` line per
    /// span, sorted. Two runs of the same workload produce identical
    /// sets whatever the worker count — this is what the determinism
    /// gate compares.
    pub fn canonical_set(&self) -> Vec<String> {
        let mut lines: Vec<String> = self
            .spans
            .values()
            .map(|s| format!("{} {:016x}:{:016x}<-{:016x}", s.name, self.trace_id, s.id, s.parent))
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
                    if s.occurrences > 2 {
                        format!("  x{}", s.occurrences / 2)
                    } else {
                        String::new()
                    },
                    indent = depth * 2,
                );
                // Push in reverse so children render in sibling order.
                for child in self.children_of(id).into_iter().rev() {
                    stack.push((child, depth + 1));
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Hand-built span events mimicking the service tree:
    /// submit(id 10) <- handle(20) <- {lookup(30), queue(40), exec(50)};
    /// persist(60) under exec. Client and daemon number seqs
    /// independently and disagree on clocks.
    #[allow(clippy::too_many_arguments)]
    fn span_line(
        seq: u64,
        t_us: u64,
        target: &str,
        kind: &str,
        name: &str,
        id: u64,
        parent: u64,
        dur: Option<u64>,
    ) -> String {
        let dur_field = dur.map(|d| format!(",\"dur_us\":{d}")).unwrap_or_default();
        format!(
            "{{\"seq\":{seq},\"t_us\":{t_us},\"target\":\"{target}\",\"event\":\"{kind}\",\"fields\":{{\"span\":\"{name}\",\"trace\":\"00000000000000aa\",\"id\":\"{id:016x}\",\"parent\":\"{parent:016x}\"{dur_field}}}}}"
        )
    }

    fn merged() -> Trace {
        let client = [
            span_line(1, 5, "svc.client", "span_begin", "svc.submit", 0x10, 0x1, None),
            span_line(2, 9000, "svc.client", "span_end", "svc.submit", 0x10, 0x1, Some(9000)),
        ]
        .join("\n");
        let daemon = [
            span_line(1, 7_000_000, "svc.server", "span_begin", "svc.handle", 0x20, 0x10, None),
            span_line(
                2,
                7_000_001,
                "svc.cache",
                "span_begin",
                "svc.cache_lookup",
                0x30,
                0x20,
                None,
            ),
            span_line(
                3,
                7_000_050,
                "svc.cache",
                "span_end",
                "svc.cache_lookup",
                0x30,
                0x20,
                Some(50),
            ),
            span_line(4, 7_000_060, "svc.pool", "span_begin", "svc.queue_wait", 0x40, 0x20, None),
            span_line(5, 7_000_100, "svc.server", "span_end", "svc.handle", 0x20, 0x10, Some(200)),
            span_line(
                6,
                7_000_460,
                "svc.pool",
                "span_end",
                "svc.queue_wait",
                0x40,
                0x20,
                Some(400),
            ),
            span_line(7, 7_000_470, "svc.pool", "span_begin", "svc.job_execute", 0x50, 0x20, None),
            span_line(
                8,
                7_008_000,
                "svc.cache",
                "span_begin",
                "svc.cache_persist",
                0x60,
                0x50,
                None,
            ),
            span_line(
                9,
                7_008_100,
                "svc.cache",
                "span_end",
                "svc.cache_persist",
                0x60,
                0x50,
                Some(100),
            ),
            span_line(
                10,
                7_008_150,
                "svc.pool",
                "span_end",
                "svc.job_execute",
                0x50,
                0x20,
                Some(7600),
            ),
        ]
        .join("\n");
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
