//! Loading `trace.jsonl` event streams and `metrics.json` snapshots.
//!
//! The JSONL sink shards its buffers per thread, so on-disk line order is
//! *not* sequence order: [`Trace::load`] re-sorts by `seq` after parsing.
//! A campaign killed mid-write leaves a truncated final line; the loader
//! skips it (and any isolated corrupt line) with a warning instead of
//! failing the whole analysis.

use std::collections::BTreeMap;
use std::path::Path;

use vab_obs::metrics::HistogramSnapshot;
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

/// One histogram from a `metrics.json` snapshot.
#[derive(Debug, Clone, PartialEq)]
pub struct HistDoc {
    /// Name, count, sum and buckets, in `vab-obs`'s own snapshot form.
    pub hist: HistogramSnapshot,
    /// Derived quantiles, when the snapshot carries them.
    pub p50: Option<f64>,
    /// 95th percentile.
    pub p95: Option<f64>,
    /// 99th percentile.
    pub p99: Option<f64>,
}

impl HistDoc {
    /// Mean seconds (or whatever unit the histogram records) per call.
    pub fn mean(&self) -> f64 {
        if self.hist.count == 0 {
            0.0
        } else {
            self.hist.sum / self.hist.count as f64
        }
    }

    /// The `q`-quantile: the snapshot's embedded value when present (p50 /
    /// p95 / p99), else [`HistogramSnapshot::percentile`] over the buckets
    /// — so old snapshots without embedded quantiles still report
    /// percentiles.
    pub fn percentile(&self, q: f64) -> Option<f64> {
        let embedded = match q {
            _ if self.hist.count == 0 => None,
            _ if (q - 0.50).abs() < 1e-12 => self.p50,
            _ if (q - 0.95).abs() < 1e-12 => self.p95,
            _ if (q - 0.99).abs() < 1e-12 => self.p99,
            _ => None,
        };
        embedded.or_else(|| self.hist.percentile(q))
    }
}

/// Process-wide allocator totals from a snapshot's `alloc` section.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AllocTotalsDoc {
    /// Allocation calls counted.
    pub allocs: u64,
    /// Deallocation calls counted.
    pub frees: u64,
    /// Bytes requested across counted allocations.
    pub bytes_allocated: u64,
    /// Bytes released across counted frees.
    pub bytes_freed: u64,
    /// Live bytes at snapshot time.
    pub live_bytes: u64,
    /// High-water mark of live bytes (peak-RSS proxy).
    pub peak_live_bytes: u64,
}

/// One stage's allocation counters from a snapshot's `alloc` section.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct AllocStageDoc {
    /// Stage name (shared with the latency histogram).
    pub name: String,
    /// Stage invocations recorded.
    pub calls: u64,
    /// Allocations attributed to the stage alone.
    pub self_allocs: u64,
    /// Bytes attributed to the stage alone.
    pub self_bytes: u64,
    /// Allocations inside the stage, children included.
    pub cum_allocs: u64,
    /// Bytes inside the stage, children included.
    pub cum_bytes: u64,
}

/// A parsed `metrics.json` snapshot.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsDoc {
    /// Counter values by name.
    pub counters: Vec<(String, u64)>,
    /// Gauge values by name.
    pub gauges: Vec<(String, f64)>,
    /// General histograms.
    pub histograms: Vec<HistDoc>,
    /// Per-stage wall-clock histograms (seconds).
    pub stages: Vec<HistDoc>,
    /// Allocator totals (`None` when the run had no allocation profile).
    pub alloc_totals: Option<AllocTotalsDoc>,
    /// Per-stage allocation counters (empty without a profile).
    pub alloc_stages: Vec<AllocStageDoc>,
}

impl MetricsDoc {
    /// Parses the JSON text of a snapshot.
    pub fn parse(text: &str) -> Result<MetricsDoc, String> {
        let v = Json::parse(text).map_err(|e| e.to_string())?;
        let mut doc = MetricsDoc::default();
        if let Some(counters) = v.get("counters").and_then(Json::as_obj) {
            for (name, val) in counters {
                doc.counters.push((name.clone(), val.as_u64().unwrap_or(0)));
            }
        }
        if let Some(gauges) = v.get("gauges").and_then(Json::as_obj) {
            for (name, val) in gauges {
                doc.gauges.push((name.clone(), val.as_f64().unwrap_or(f64::NAN)));
            }
        }
        for (key, dst) in [("histograms", 0usize), ("stages", 1)] {
            if let Some(hists) = v.get(key).and_then(Json::as_arr) {
                for h in hists {
                    let parsed = hist_from_json(h)
                        .ok_or_else(|| format!("malformed histogram entry in {key:?}"))?;
                    if dst == 0 {
                        doc.histograms.push(parsed);
                    } else {
                        doc.stages.push(parsed);
                    }
                }
            }
        }
        if let Some(alloc) = v.get("alloc") {
            doc.alloc_totals = Some(AllocTotalsDoc {
                allocs: alloc.u64_field("allocs").unwrap_or(0),
                frees: alloc.u64_field("frees").unwrap_or(0),
                bytes_allocated: alloc.u64_field("bytes_allocated").unwrap_or(0),
                bytes_freed: alloc.u64_field("bytes_freed").unwrap_or(0),
                live_bytes: alloc.u64_field("live_bytes").unwrap_or(0),
                peak_live_bytes: alloc.u64_field("peak_live_bytes").unwrap_or(0),
            });
            for s in alloc.get("stages").and_then(Json::as_arr).unwrap_or(&[]) {
                doc.alloc_stages.push(AllocStageDoc {
                    name: s.str_field("name").ok_or("alloc stage without name")?.to_string(),
                    calls: s.u64_field("calls").unwrap_or(0),
                    self_allocs: s.u64_field("self_allocs").unwrap_or(0),
                    self_bytes: s.u64_field("self_bytes").unwrap_or(0),
                    cum_allocs: s.u64_field("cum_allocs").unwrap_or(0),
                    cum_bytes: s.u64_field("cum_bytes").unwrap_or(0),
                });
            }
        }
        Ok(doc)
    }

    /// Loads and parses `path`.
    pub fn load(path: &Path) -> Result<MetricsDoc, String> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        MetricsDoc::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
    }

    /// Counter lookup.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters.iter().find(|(n, _)| n == name).map(|(_, v)| *v)
    }

    /// Stage-histogram lookup.
    pub fn stage(&self, name: &str) -> Option<&HistDoc> {
        self.stages.iter().find(|h| h.hist.name == name)
    }
}

fn hist_from_json(v: &Json) -> Option<HistDoc> {
    let entries = v.get("buckets").and_then(Json::as_arr)?;
    let (mut bounds, mut buckets) = (Vec::new(), Vec::new());
    for (i, b) in entries.iter().enumerate() {
        match b.get("le") {
            Some(Json::Num(x)) => bounds.push(*x),
            Some(Json::Str(s)) if s == "+inf" && i + 1 == entries.len() => {}
            _ => return None,
        }
        buckets.push(b.u64_field("count")?);
    }
    // A snapshot without an overflow bucket had nothing past its top bound.
    buckets.resize(bounds.len() + 1, 0);
    Some(HistDoc {
        hist: HistogramSnapshot {
            name: v.str_field("name")?.to_string(),
            count: v.u64_field("count")?,
            sum: v.f64_field("sum").unwrap_or(f64::NAN),
            bounds,
            buckets,
        },
        p50: v.f64_field("p50"),
        p95: v.f64_field("p95"),
        p99: v.f64_field("p99"),
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

    #[test]
    fn metrics_doc_parses_the_snapshot_shape() {
        let text = r#"{
  "counters": {"arq.retransmits": 12, "mc.trials": 150},
  "gauges": {"x": 1.5},
  "histograms": [],
  "stages": [
    {"name":"sim.linkbudget_trial","count":4,"sum":0.02,"p50":0.004,"p95":0.009,"p99":0.0099,"buckets":[{"le":0.001,"count":0},{"le":0.01,"count":3},{"le":"+inf","count":1}]}
  ]
}"#;
        let doc = MetricsDoc::parse(text).expect("parse");
        assert_eq!(doc.counter("arq.retransmits"), Some(12));
        let st = doc.stage("sim.linkbudget_trial").expect("stage");
        assert_eq!(st.hist.count, 4);
        assert_eq!(st.p95, Some(0.009));
        assert_eq!(st.hist.bounds, [0.001, 0.01]);
        assert_eq!(st.hist.buckets, [0, 3, 1]);
        assert!((st.mean() - 0.005).abs() < 1e-12);
        // Embedded quantiles win; anything else comes from the buckets.
        assert_eq!(st.percentile(0.95), Some(0.009));
        assert_eq!(st.percentile(0.5), Some(0.004));
        let p25 = st.percentile(0.25).expect("p25");
        assert!((p25 - 0.001 * 10f64.powf(1.0 / 3.0)).abs() < 1e-15, "p25 {p25}");
        assert_eq!(st.percentile(0.9), Some(0.01), "overflow clamps to the top bound");
    }

    #[test]
    fn an_inner_infinite_bucket_is_malformed() {
        let text = r#"{"stages":[{"name":"s","count":1,"sum":1.0,
            "buckets":[{"le":"+inf","count":1},{"le":0.01,"count":0}]}]}"#;
        assert!(MetricsDoc::parse(text).is_err());
    }
}
