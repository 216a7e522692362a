//! The `report` subcommand: turn a raw trace + metrics snapshot into a
//! human-readable account of what the run did and where its time went.
//!
//! Three sections:
//! 1. **Trace overview** — event counts and rates per `target.event`
//!    family, plus warnings about skipped/truncated lines.
//! 2. **Timelines** — per-trial reconstruction from the event families
//!    that carry a `trial` field (campaign deployments, fault
//!    activations, brownout truncations …) and a session outcome tally.
//! 3. **Stages** — latency percentiles (p50/p95/p99) for every stage
//!    histogram and an indented stage tree showing where campaign
//!    wall-time goes.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use vab_obs::metrics::{HistogramSnapshot, Snapshot};
use vab_util::json::Json;

use crate::trace::Trace;

/// Per-trial reconstruction: everything the trace said about one trial.
#[derive(Debug, Clone, Default)]
pub struct TrialTimeline {
    /// Trial / deployment identifier.
    pub trial: u64,
    /// First event timestamp (µs since epoch).
    pub first_t_us: u64,
    /// Last event timestamp (µs since epoch).
    pub last_t_us: u64,
    /// Event count per family within this trial.
    pub families: BTreeMap<String, usize>,
    /// Bit errors, when a `deployment_done` event reported them.
    pub errors: Option<u64>,
    /// Deployment success flag, when reported.
    pub success: Option<bool>,
    /// Deployment range in metres, when reported.
    pub range_m: Option<f64>,
    /// Whether a fault plan activated during the trial.
    pub faulted: bool,
}

/// Builds per-trial timelines from every event carrying a `trial` field.
pub fn trial_timelines(trace: &Trace) -> Vec<TrialTimeline> {
    let mut map: BTreeMap<u64, TrialTimeline> = BTreeMap::new();
    for e in &trace.events {
        let Some(trial) = e.fields.u64_field("trial") else { continue };
        let t = map.entry(trial).or_insert_with(|| TrialTimeline {
            trial,
            first_t_us: e.t_us,
            last_t_us: e.t_us,
            ..TrialTimeline::default()
        });
        t.first_t_us = t.first_t_us.min(e.t_us);
        t.last_t_us = t.last_t_us.max(e.t_us);
        *t.families.entry(e.family()).or_insert(0) += 1;
        if e.target == "fault.plan" && e.name == "fault_activated" {
            t.faulted = true;
        }
        if e.name == "deployment_done" {
            t.errors = e.fields.u64_field("errors").or(t.errors);
            t.success = e.fields.get("success").and_then(Json::as_bool).or(t.success);
            t.range_m = e.fields.f64_field("range_m").or(t.range_m);
        }
    }
    map.into_values().collect()
}

/// Renders the full report.
pub fn render(trace: &Trace, metrics: Option<&Snapshot>) -> String {
    let mut out = String::with_capacity(4096);
    render_overview(&mut out, trace);
    render_timelines(&mut out, trace);
    if let Some(m) = metrics {
        render_stage_percentiles(&mut out, m);
        render_stage_tree(&mut out, m);
        render_counters(&mut out, m);
    } else {
        out.push_str("\n(no metrics snapshot given: stage sections skipped — pass metrics.json)\n");
    }
    out
}

fn render_overview(out: &mut String, trace: &Trace) {
    let span = trace.span_s();
    let _ = writeln!(
        out,
        "trace: {} events over {:.3} s ({} event families)",
        trace.events.len(),
        span,
        trace.family_counts().len()
    );
    if trace.truncated_tail {
        out.push_str("warning: final line truncated mid-record (writer killed?); skipped\n");
    }
    if !trace.skipped_lines.is_empty() {
        let _ = writeln!(
            out,
            "warning: {} malformed interior line(s) skipped: {:?}",
            trace.skipped_lines.len(),
            trace.skipped_lines
        );
    }
    out.push_str("\nevent rates:\n");
    let _ = writeln!(out, "  {:<42} {:>9} {:>12}", "family", "count", "events/s");
    for (family, count) in trace.family_counts() {
        let rate = if span > 0.0 { count as f64 / span } else { 0.0 };
        let _ = writeln!(out, "  {family:<42} {count:>9} {rate:>12.1}");
    }
}

fn render_timelines(out: &mut String, trace: &Trace) {
    let trials = trial_timelines(trace);
    if !trials.is_empty() {
        let faulted = trials.iter().filter(|t| t.faulted).count();
        let reported: Vec<&TrialTimeline> = trials.iter().filter(|t| t.success.is_some()).collect();
        let successes = reported.iter().filter(|t| t.success == Some(true)).count();
        let _ = writeln!(
            out,
            "\ntrial timelines: {} trials reconstructed ({} faulted{})",
            trials.len(),
            faulted,
            if reported.is_empty() {
                String::new()
            } else {
                format!(", {}/{} deployments succeeded", successes, reported.len())
            },
        );
        // The trials that most deserve a look: highest error counts first.
        let mut worst: Vec<&TrialTimeline> =
            trials.iter().filter(|t| t.errors.unwrap_or(0) > 0).collect();
        worst.sort_by_key(|t| std::cmp::Reverse(t.errors.unwrap_or(0)));
        if !worst.is_empty() {
            out.push_str("  worst trials by bit errors:\n");
            for t in worst.iter().take(5) {
                let _ = writeln!(
                    out,
                    "    trial {:>5}  errors={:<6} range={:<7} faulted={}  events={}",
                    t.trial,
                    t.errors.unwrap_or(0),
                    t.range_m.map_or_else(|| "-".into(), |r| format!("{r:.0}m")),
                    t.faulted,
                    t.families.values().sum::<usize>(),
                );
            }
        }
    }
    // Session outcomes (reader<->node exchanges), when present.
    let sessions = trace.family_indices("sim.session", "exchange_done");
    if !sessions.is_empty() {
        let up_ok = sessions
            .iter()
            .filter(|&&i| {
                trace.events[i].fields.get("uplink_ok").and_then(Json::as_bool) == Some(true)
            })
            .count();
        let _ = writeln!(
            out,
            "session timeline: {} exchanges, {} uplinks decoded ({:.1}%)",
            sessions.len(),
            up_ok,
            100.0 * up_ok as f64 / sessions.len() as f64
        );
    }
}

fn render_stage_percentiles(out: &mut String, m: &Snapshot) {
    let active: Vec<_> = m.stages.iter().filter(|h| h.count > 0).collect();
    if active.is_empty() {
        out.push_str("\n(metrics snapshot has no stage observations)\n");
        return;
    }
    out.push_str("\nstage latency percentiles:\n");
    let _ = writeln!(
        out,
        "  {:<26} {:>9} {:>11} {:>11} {:>11} {:>11}",
        "stage", "calls", "p50", "p95", "p99", "total"
    );
    for h in active {
        let us = |q: f64| {
            h.percentile(q).map_or_else(|| "-".to_string(), |v| format!("{:.1} us", v * 1e6))
        };
        let _ = writeln!(
            out,
            "  {:<26} {:>9} {:>11} {:>11} {:>11} {:>9.3} s",
            h.name,
            h.count,
            us(0.50),
            us(0.95),
            us(0.99),
            h.sum
        );
    }
}

/// The indented stage tree: stages grouped by their dotted prefix
/// (`sim`, `fec`, …), each subsystem totalled, children sorted by time.
fn render_stage_tree(out: &mut String, m: &Snapshot) {
    let active: Vec<_> = m.stages.iter().filter(|h| h.count > 0).collect();
    if active.is_empty() {
        return;
    }
    let total: f64 = active.iter().map(|h| h.sum).sum();
    let mut groups: BTreeMap<&str, Vec<&HistogramSnapshot>> = BTreeMap::new();
    for h in &active {
        let prefix = h.name.split('.').next().unwrap_or(&h.name);
        groups.entry(prefix).or_default().push(h);
    }
    let mut ordered: Vec<(&str, f64, Vec<&HistogramSnapshot>)> = groups
        .into_iter()
        .map(|(prefix, hs)| {
            let sum: f64 = hs.iter().map(|h| h.sum).sum();
            (prefix, sum, hs)
        })
        .collect();
    ordered.sort_by(|a, b| b.1.total_cmp(&a.1));
    out.push_str("\nstage tree (where wall-time goes):\n");
    let _ = writeln!(out, "  total {total:>44.3} s  100.0%");
    for (prefix, sum, mut hs) in ordered {
        let share = if total > 0.0 { 100.0 * sum / total } else { 0.0 };
        let _ = writeln!(out, "    {prefix:<40} {sum:>8.3} s  {share:>5.1}%");
        hs.sort_by(|a, b| b.sum.total_cmp(&a.sum));
        for h in hs {
            let leaf = h
                .name
                .strip_prefix(prefix)
                .map_or(h.name.as_str(), |s| s.strip_prefix('.').unwrap_or(s));
            let leaf_share = if total > 0.0 { 100.0 * h.sum / total } else { 0.0 };
            let _ = writeln!(
                out,
                "      {:<38} {:>8.3} s  {:>5.1}%  ({} calls)",
                leaf, h.sum, leaf_share, h.count
            );
        }
    }
}

fn render_counters(out: &mut String, m: &Snapshot) {
    let nonzero: Vec<_> = m.counters.iter().filter(|(_, v)| *v > 0).collect();
    if nonzero.is_empty() {
        return;
    }
    out.push_str("\ncounters:\n");
    for (name, v) in nonzero {
        let _ = writeln!(out, "  {name:<42} {v:>9}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn trace_text() -> String {
        let mut s = String::new();
        let mut seq = 0u64;
        let push = |line: String, s: &mut String| {
            s.push_str(&line);
            s.push('\n');
        };
        for trial in 0..4u64 {
            push(format!("{{\"seq\":{seq},\"t_us\":{},\"target\":\"fault.plan\",\"event\":\"fault_activated\",\"fields\":{{\"trial\":{trial},\"events\":2}}}}", trial * 1000), &mut s);
            seq += 1;
            push(format!("{{\"seq\":{seq},\"t_us\":{},\"target\":\"sim.campaign\",\"event\":\"deployment_done\",\"fields\":{{\"trial\":{trial},\"range_m\":{},\"errors\":{},\"success\":{}}}}}", trial * 1000 + 500, 100 + trial * 50, trial * 7, trial < 3), &mut s);
            seq += 1;
        }
        s
    }

    #[test]
    fn reconstructs_trial_timelines() {
        let trace = Trace::parse(&trace_text());
        let trials = trial_timelines(&trace);
        assert_eq!(trials.len(), 4);
        assert!(trials.iter().all(|t| t.faulted));
        assert_eq!(trials[3].errors, Some(21));
        assert_eq!(trials[3].success, Some(false));
        assert_eq!(trials[2].range_m, Some(200.0));
        assert!(trials[1].last_t_us >= trials[1].first_t_us);
    }

    #[test]
    fn report_renders_all_sections() {
        let trace = Trace::parse(&trace_text());
        let metrics = Snapshot::parse(
            r#"{"counters":{"arq.retransmits":3},"gauges":{},"histograms":[],
                "stages":[{"name":"sim.linkbudget_trial","count":4,"sum":0.02,
                "buckets":[{"le":0.001,"count":0},{"le":0.01,"count":3},{"le":"+inf","count":1}]},
                {"name":"fec.viterbi","count":8,"sum":0.004,
                "buckets":[{"le":0.001,"count":8},{"le":0.01,"count":0},{"le":"+inf","count":0}]}]}"#,
        )
        .expect("metrics");
        let text = render(&trace, Some(&metrics));
        assert!(text.contains("4 trials reconstructed (4 faulted"), "text: {text}");
        assert!(text.contains("stage latency percentiles"), "text: {text}");
        assert!(text.contains("sim.linkbudget_trial"));
        assert!(text.contains("stage tree"), "text: {text}");
        assert!(text.contains("arq.retransmits"));
        assert!(text.contains("worst trials by bit errors"));
    }

    #[test]
    fn report_without_metrics_degrades_gracefully() {
        let trace = Trace::parse(&trace_text());
        let text = render(&trace, None);
        assert!(text.contains("stage sections skipped"));
    }
}
