//! Loading `trace.jsonl` event streams, and the span tree they carry.
//! (`metrics.json` snapshots load through `vab_obs::metrics::Snapshot::load`.)
//!
//! The JSONL sink shards its buffers per thread, so on-disk line order is
//! *not* sequence order: [`Trace::load`] re-sorts by `seq` after parsing.
//! A campaign killed mid-write leaves a truncated final line; the loader
//! skips it (and any isolated corrupt line) with a warning instead of
//! failing the whole analysis.
//!
//! [`SpanForest`], read by [`crate::flame`] and [`crate::waterfall`], is
//! the one reader of span identity (`span`, `trace`, `id`, `parent`). The
//! first event carrying an id names the span and sets its parent. A
//! missing, non-hex, zero or self `parent`, or one never seen, makes a
//! root. A `span_end` without a hex trace/id pair is kept by name. vab-obs
//! writes every id with its parent, and a repeated id repeats both, so
//! these rules only decide hand-made or damaged input.

use std::collections::BTreeMap;
use std::path::Path;

use vab_util::json::Json;

/// One parsed trace event.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceEvent {
    /// Global monotone sequence number — monotone *per emitting process*;
    /// two processes' traces reuse overlapping ranges.
    pub seq: u64,
    /// Microseconds since the observability epoch — the *emitter's*
    /// epoch; clocks of merged traces are mutually skewed.
    pub t_us: u64,
    /// Emitting subsystem (`"link.arq"`, `"sim.campaign"`, …).
    pub target: String,
    /// Event name (`"retransmit"`, `"deployment_done"`, …).
    pub name: String,
    /// Typed payload (always a JSON object for well-formed traces).
    pub fields: Json,
    /// Which trace this event came from (empty for a single-file load;
    /// [`Trace::merge`] stamps the per-input label).
    pub source: String,
}

impl TraceEvent {
    /// `target.name`, the event-family key used across the analyzer.
    pub fn family(&self) -> String {
        format!("{}.{}", self.target, self.name)
    }

    /// Compact single-line rendering for context windows.
    pub fn to_display_line(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::with_capacity(96);
        let _ = write!(
            out,
            "#{:<8} {:>10.3} ms  {}.{}",
            self.seq,
            self.t_us as f64 / 1000.0,
            self.target,
            self.name
        );
        if let Some(fields) = self.fields.as_obj() {
            for (k, v) in fields {
                match v {
                    Json::Num(n) => {
                        let _ = write!(out, " {k}={n}");
                    }
                    Json::Str(s) => {
                        let _ = write!(out, " {k}={s}");
                    }
                    Json::Bool(b) => {
                        let _ = write!(out, " {k}={b}");
                    }
                    other => {
                        let _ = write!(out, " {k}={other:?}");
                    }
                }
            }
        }
        out
    }
}

/// A parsed trace plus bookkeeping about what had to be skipped.
#[derive(Debug, Clone, Default)]
pub struct Trace {
    /// Events sorted by sequence number.
    pub events: Vec<TraceEvent>,
    /// Malformed non-final lines that were skipped (line numbers, 1-based).
    pub skipped_lines: Vec<usize>,
    /// True when the final line was truncated mid-record (killed writer).
    pub truncated_tail: bool,
}

impl Trace {
    /// Parses a JSONL trace from a string. Malformed lines are skipped and
    /// recorded; an unparseable *final* line is flagged as a truncated
    /// tail, which callers should surface as a warning, not an error.
    pub fn parse(text: &str) -> Trace {
        let lines: Vec<&str> = text.lines().collect();
        let last_idx = lines.len().saturating_sub(1);
        let mut trace = Trace::default();
        for (i, line) in lines.iter().enumerate() {
            if line.trim().is_empty() {
                continue;
            }
            match Json::parse(line).ok().and_then(|v| event_from_json(&v)) {
                Some(e) => trace.events.push(e),
                None if i == last_idx => trace.truncated_tail = true,
                None => trace.skipped_lines.push(i + 1),
            }
        }
        trace.events.sort_by_key(|e| e.seq);
        trace
    }

    /// Loads and parses `path`.
    pub fn load(path: &Path) -> std::io::Result<Trace> {
        Ok(Trace::parse(&std::fs::read_to_string(path)?))
    }

    /// Wall-clock span covered by the events, in seconds.
    pub fn span_s(&self) -> f64 {
        match (self.events.first(), self.events.iter().map(|e| e.t_us).max()) {
            (Some(first), Some(t_max)) => {
                let t_min = self.events.iter().map(|e| e.t_us).min().unwrap_or(first.t_us);
                (t_max - t_min) as f64 / 1e6
            }
            _ => 0.0,
        }
    }

    /// Event counts per `target.name` family, sorted by name.
    pub fn family_counts(&self) -> BTreeMap<String, usize> {
        let mut counts = BTreeMap::new();
        for e in &self.events {
            *counts.entry(e.family()).or_insert(0) += 1;
        }
        counts
    }

    /// Merges traces from several processes (e.g. a daemon's JSONL and a
    /// client's) into one, stamping each event's `source` with the given
    /// label. Because `seq` is only monotone per process and the clocks
    /// are mutually skewed, neither `seq` nor `t_us` totally orders a
    /// merged stream — events sort by `(seq, source, t_us)`, which is
    /// deterministic whatever order the inputs are supplied in (labels
    /// must be distinct; equal-seq events from different processes tie-
    /// break lexicographically by label, never by input position).
    pub fn merge<'a>(parts: impl IntoIterator<Item = (&'a str, Trace)>) -> Trace {
        let mut merged = Trace::default();
        for (label, mut part) in parts {
            for e in &mut part.events {
                e.source = label.to_string();
            }
            merged.events.append(&mut part.events);
            merged.skipped_lines.extend(part.skipped_lines);
            merged.truncated_tail |= part.truncated_tail;
        }
        merged.events.sort_by(|a, b| (a.seq, &a.source, a.t_us).cmp(&(b.seq, &b.source, b.t_us)));
        merged.skipped_lines.sort_unstable();
        merged
    }

    /// Indices of the events in `family`, in sequence order.
    pub fn family_indices(&self, target: &str, name: &str) -> Vec<usize> {
        self.events
            .iter()
            .enumerate()
            .filter(|(_, e)| e.target == target && e.name == name)
            .map(|(i, _)| i)
            .collect()
    }
}

/// One span of a [`SpanForest`].
#[derive(Debug, Clone, Default)]
pub struct ForestSpan {
    /// Span name (doubles as the stage-histogram instrument name).
    pub name: String,
    /// Parent span id in the same trace; `None` for a root.
    pub parent: Option<u64>,
    /// Whether any `span_end` was seen.
    pub ended: bool,
    /// The first `dur_us` a `span_end` carried.
    pub dur_us: Option<u64>,
    /// `dur_us` summed over every `span_end` (all sums saturate).
    pub sum_us: u64,
    /// `alloc_n` summed over every `span_end` (0 unless profiled).
    pub alloc_n: u64,
    /// `alloc_b` summed over every `span_end` (0 unless profiled).
    pub alloc_b: u64,
    /// `span_begin`/`span_end` events seen (a daemon can replay a span).
    pub events: usize,
    /// Labels of the traces (processes) that emitted them, sorted, unique.
    pub sources: Vec<String>,
    /// Child span ids, sorted by `(name, id)`: a content-only order.
    pub children: Vec<u64>,
}

impl ForestSpan {
    fn add_end(&mut self, fields: &Json) {
        let add = |sum: u64, key| sum.saturating_add(fields.u64_field(key).unwrap_or(0));
        self.ended = true;
        self.dur_us = self.dur_us.or(fields.u64_field("dur_us"));
        self.sum_us = add(self.sum_us, "dur_us");
        self.alloc_n = add(self.alloc_n, "alloc_n");
        self.alloc_b = add(self.alloc_b, "alloc_b");
    }
}

/// The span tree of a (possibly [`Trace::merge`]d) trace, built once.
#[derive(Debug, Clone, Default)]
pub struct SpanForest {
    /// Spans by trace id, then by span id (ids are unique only within a
    /// trace).
    pub traces: BTreeMap<u64, BTreeMap<u64, ForestSpan>>,
    /// The `span_end`s without a hex trace/id pair (the plain
    /// `vab_obs::Span` guard) by span name; kept only when `only` is `None`.
    pub unplaced: BTreeMap<String, ForestSpan>,
}

impl SpanForest {
    /// Builds the forest from every span event in `trace`, or only from
    /// those of trace id `only`.
    pub fn build(trace: &Trace, only: Option<u64>) -> SpanForest {
        let mut forest = SpanForest::default();
        for e in &trace.events {
            let is_end = match e.name.as_str() {
                "span_end" => true,
                "span_begin" => false,
                _ => continue,
            };
            let Some(name) = e.fields.str_field("span") else { continue };
            let hex = |key: &str| u64::from_str_radix(e.fields.str_field(key)?, 16).ok();
            let Some((trace_id, id)) = hex("trace").zip(hex("id")) else {
                if is_end && only.is_none() {
                    forest.unplaced.entry(name.to_string()).or_default().add_end(&e.fields);
                }
                continue;
            };
            if only.is_some_and(|t| t != trace_id) {
                continue;
            }
            let spans = forest.traces.entry(trace_id).or_default();
            let span = spans.entry(id).or_insert_with(|| ForestSpan {
                name: name.to_string(),
                parent: hex("parent").filter(|&p| p != 0 && p != id),
                ..ForestSpan::default()
            });
            span.events += 1;
            if let (false, Err(at)) = (e.source.is_empty(), span.sources.binary_search(&e.source)) {
                span.sources.insert(at, e.source.clone());
            }
            if is_end {
                span.add_end(&e.fields);
            }
        }
        for spans in forest.traces.values_mut() {
            let mut links: Vec<(u64, &str, u64)> = spans
                .iter()
                .filter_map(|(&id, s)| Some((s.parent?, s.name.as_str(), id)))
                .filter(|(parent, ..)| spans.contains_key(parent))
                .collect();
            links.sort_unstable();
            let links: Vec<(u64, u64)> = links.into_iter().map(|(p, _, id)| (p, id)).collect();
            for (parent, id) in links {
                spans.get_mut(&parent).expect("linked parent is present").children.push(id);
            }
        }
        forest
    }
}

fn event_from_json(v: &Json) -> Option<TraceEvent> {
    Some(TraceEvent {
        seq: v.u64_field("seq")?,
        t_us: v.u64_field("t_us")?,
        target: v.str_field("target")?.to_string(),
        name: v.str_field("event")?.to_string(),
        fields: v.get("fields").cloned().unwrap_or(Json::Obj(Vec::new())),
        source: String::new(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn line(seq: u64, target: &str, name: &str) -> String {
        format!(
            "{{\"seq\":{seq},\"t_us\":{},\"target\":\"{target}\",\"event\":\"{name}\",\"fields\":{{\"trial\":{seq}}}}}",
            seq * 100
        )
    }

    #[test]
    fn parses_and_resorts_sharded_order() {
        let text = format!(
            "{}\n{}\n{}\n",
            line(5, "link.arq", "retransmit"),
            line(1, "sim.campaign", "campaign_start"),
            line(3, "harvest.pmu", "brownout")
        );
        let t = Trace::parse(&text);
        assert_eq!(t.events.len(), 3);
        assert_eq!(t.events[0].seq, 1);
        assert_eq!(t.events[2].seq, 5);
        assert!(!t.truncated_tail);
        assert!(t.skipped_lines.is_empty());
        assert_eq!(t.family_counts().get("link.arq.retransmit"), Some(&1));
        assert_eq!(t.family_indices("harvest.pmu", "brownout"), vec![1]);
        assert!((t.span_s() - 400e-6).abs() < 1e-12, "span: {}", t.span_s());
    }

    #[test]
    fn truncated_tail_is_flagged_not_fatal() {
        let mut text = format!("{}\n{}\n", line(1, "a", "b"), line(2, "a", "b"));
        text.push_str("{\"seq\":3,\"t_us\":99,\"targ"); // killed mid-write
        let t = Trace::parse(&text);
        assert_eq!(t.events.len(), 2);
        assert!(t.truncated_tail);
        assert!(t.skipped_lines.is_empty());
    }

    #[test]
    fn interior_corruption_is_skipped_with_line_numbers() {
        let text = format!("{}\nnot json at all\n{}\n", line(1, "a", "b"), line(2, "a", "b"));
        let t = Trace::parse(&text);
        assert_eq!(t.events.len(), 2);
        assert_eq!(t.skipped_lines, vec![2]);
        assert!(!t.truncated_tail);
    }

    #[test]
    fn merge_is_deterministic_under_skew_and_duplicate_seq_ranges() {
        // Daemon and client both number events from 1 (duplicate seq
        // ranges) and their t_us clocks are skewed by ~1 hour: neither
        // field alone can order the merged stream.
        let daemon = format!(
            "{}\n{}\n{}\n",
            line(1, "svc.server", "listening"),
            line(2, "svc.pool", "job_done"),
            line(3, "svc.server", "stopped")
        );
        let client = {
            // Same seqs, wildly different (earlier) clock.
            let l = |seq: u64, name: &str| {
                format!(
                    "{{\"seq\":{seq},\"t_us\":7,\"target\":\"svc.client\",\"event\":\"{name}\"}}"
                )
            };
            format!("{}\n{}\n", l(1, "span_begin"), l(2, "span_end"))
        };
        let ab =
            Trace::merge([("client", Trace::parse(&client)), ("daemon", Trace::parse(&daemon))]);
        let ba =
            Trace::merge([("daemon", Trace::parse(&daemon)), ("client", Trace::parse(&client))]);
        let key = |t: &Trace| -> Vec<(u64, String, String)> {
            t.events.iter().map(|e| (e.seq, e.source.clone(), e.name.clone())).collect()
        };
        assert_eq!(key(&ab), key(&ba), "merge order must not depend on input order");
        assert_eq!(ab.events.len(), 5);
        // Equal seqs tie-break by label, lexicographically.
        assert_eq!(ab.events[0].source, "client");
        assert_eq!(ab.events[1].source, "daemon");
        // Source survives family queries untouched.
        assert_eq!(ab.family_indices("svc.client", "span_end").len(), 1);
    }
}
