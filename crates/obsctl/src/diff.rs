//! The `diff` subcommand: compare two runs' `metrics.json` snapshots.
//!
//! Stage wall-clock is the gated surface — a stage whose mean time per
//! call grew past the relative threshold is a perf regression and makes
//! the CLI exit non-zero. Counters are compared too, but report-only:
//! a different workload legitimately moves them.

use std::collections::BTreeSet;
use std::fmt::Write as _;

use crate::trace::MetricsDoc;
use vab_util::json::{write_json_number, write_json_string};

/// Thresholds for the comparison.
#[derive(Debug, Clone, Copy)]
pub struct DiffConfig {
    /// Relative growth in a stage's mean time that counts as a
    /// regression (0.2 = +20%).
    pub rel_tol: f64,
    /// Stages whose run-B total stays below this many seconds are noise
    /// and never gate (timer granularity dominates them).
    pub min_stage_s: f64,
}

impl Default for DiffConfig {
    fn default() -> Self {
        DiffConfig { rel_tol: 0.20, min_stage_s: 1e-3 }
    }
}

/// One compared quantity.
#[derive(Debug, Clone)]
pub struct DiffLine {
    /// Instrument name.
    pub name: String,
    /// What was compared (`stage mean`, `stage total`, `counter`).
    pub metric: &'static str,
    /// Run-A value.
    pub a: f64,
    /// Run-B value.
    pub b: f64,
    /// Relative change (`(b - a) / a`), infinite when A is zero.
    pub rel: f64,
    /// Whether this line trips the regression gate.
    pub regression: bool,
}

/// The full comparison.
#[derive(Debug, Clone, Default)]
pub struct DiffReport {
    /// All compared lines, stages first.
    pub lines: Vec<DiffLine>,
    /// Stage names present in only one run (name, present-in-A).
    pub unmatched: Vec<(String, bool)>,
}

impl DiffReport {
    /// Number of regression lines.
    pub fn regressions(&self) -> usize {
        self.lines.iter().filter(|l| l.regression).count()
    }

    /// Renders the table plus a verdict line.
    pub fn render(&self) -> String {
        let mut out = String::with_capacity(1024);
        let _ = writeln!(
            out,
            "{:<28} {:<12} {:>14} {:>14} {:>9}",
            "name", "metric", "run A", "run B", "change"
        );
        for l in &self.lines {
            let change = if l.rel.is_finite() {
                format!("{:+.1}%", 100.0 * l.rel)
            } else {
                "new".to_string()
            };
            let _ = writeln!(
                out,
                "{:<28} {:<12} {:>14.6} {:>14.6} {:>9}{}",
                l.name,
                l.metric,
                l.a,
                l.b,
                change,
                if l.regression { "  REGRESSION" } else { "" }
            );
        }
        for (name, in_a) in &self.unmatched {
            let _ = writeln!(
                out,
                "{:<28} {:<12} only in run {}",
                name,
                "stage",
                if *in_a { "A" } else { "B" }
            );
        }
        let n = self.regressions();
        if n > 0 {
            let _ = writeln!(out, "\n{n} regression(s) past threshold");
        } else {
            out.push_str("\nno regressions\n");
        }
        out
    }

    /// Renders the comparison as a JSON document for scripts and CI
    /// assertions (stable field order, one object per line entry).
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(1024);
        out.push_str("{\n  \"lines\": [");
        for (i, l) in self.lines.iter().enumerate() {
            out.push_str(if i > 0 { ",\n    " } else { "\n    " });
            out.push('{');
            out.push_str("\"name\": ");
            write_json_string(&mut out, &l.name);
            let _ = write!(out, ", \"metric\": \"{}\", \"a\": ", l.metric);
            write_json_number(&mut out, l.a);
            out.push_str(", \"b\": ");
            write_json_number(&mut out, l.b);
            out.push_str(", \"rel\": ");
            // Infinite change (new instrument) has no JSON number; null.
            if l.rel.is_finite() {
                write_json_number(&mut out, l.rel);
            } else {
                out.push_str("null");
            }
            let _ = write!(out, ", \"regression\": {}}}", l.regression);
        }
        out.push_str(if self.lines.is_empty() { "],\n" } else { "\n  ],\n" });
        out.push_str("  \"unmatched\": [");
        for (i, (name, in_a)) in self.unmatched.iter().enumerate() {
            out.push_str(if i > 0 { ",\n    " } else { "\n    " });
            out.push_str("{\"name\": ");
            write_json_string(&mut out, name);
            let _ = write!(out, ", \"only_in\": \"{}\"}}", if *in_a { "A" } else { "B" });
        }
        out.push_str(if self.unmatched.is_empty() { "],\n" } else { "\n  ],\n" });
        let _ = writeln!(out, "  \"regressions\": {}\n}}", self.regressions());
        out
    }
}

fn rel_change(a: f64, b: f64) -> f64 {
    if a > 0.0 {
        (b - a) / a
    } else if b > 0.0 {
        f64::INFINITY
    } else {
        0.0
    }
}

/// Compares run A (the reference) against run B (the candidate).
pub fn diff(a: &MetricsDoc, b: &MetricsDoc, cfg: &DiffConfig) -> DiffReport {
    let mut report = DiffReport::default();
    let names: BTreeSet<&str> = a
        .stages
        .iter()
        .chain(&b.stages)
        .filter(|h| h.hist.count > 0)
        .map(|h| h.hist.name.as_str())
        .collect();
    for name in names {
        match (a.stage(name), b.stage(name)) {
            (Some(ha), Some(hb)) if ha.hist.count > 0 && hb.hist.count > 0 => {
                let rel = rel_change(ha.mean(), hb.mean());
                report.lines.push(DiffLine {
                    name: name.to_string(),
                    metric: "stage mean",
                    a: ha.mean(),
                    b: hb.mean(),
                    rel,
                    regression: rel > cfg.rel_tol && hb.hist.sum >= cfg.min_stage_s,
                });
                report.lines.push(DiffLine {
                    name: name.to_string(),
                    metric: "stage total",
                    a: ha.hist.sum,
                    b: hb.hist.sum,
                    rel: rel_change(ha.hist.sum, hb.hist.sum),
                    regression: false,
                });
            }
            (pa, _) => report.unmatched.push((name.to_string(), pa.is_some())),
        }
    }
    // Counters: informational only.
    let counter_names: BTreeSet<&str> = a
        .counters
        .iter()
        .chain(&b.counters)
        .filter(|(_, v)| *v > 0)
        .map(|(n, _)| n.as_str())
        .collect();
    for name in counter_names {
        let va = a.counter(name).unwrap_or(0) as f64;
        let vb = b.counter(name).unwrap_or(0) as f64;
        report.lines.push(DiffLine {
            name: name.to_string(),
            metric: "counter",
            a: va,
            b: vb,
            rel: rel_change(va, vb),
            regression: false,
        });
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use vab_util::json::Json;

    fn doc(mean_scale: f64) -> MetricsDoc {
        let sum = 0.02 * mean_scale;
        MetricsDoc::parse(&format!(
            r#"{{"counters":{{"arq.retransmits":8}},"gauges":{{}},"histograms":[],
                "stages":[{{"name":"sim.linkbudget_trial","count":4,"sum":{sum},
                "buckets":[{{"le":0.01,"count":4}},{{"le":"+inf","count":0}}]}}]}}"#
        ))
        .expect("doc")
    }

    #[test]
    fn identical_runs_have_no_regressions() {
        let r = diff(&doc(1.0), &doc(1.0), &DiffConfig::default());
        assert_eq!(r.regressions(), 0);
        assert!(r.render().contains("no regressions"));
    }

    #[test]
    fn doubled_stage_mean_is_a_regression() {
        let r = diff(&doc(1.0), &doc(2.0), &DiffConfig::default());
        assert_eq!(r.regressions(), 1, "report: {}", r.render());
        assert!(r.render().contains("REGRESSION"));
        // The same diff in the other direction is an improvement, not a
        // regression.
        let r = diff(&doc(2.0), &doc(1.0), &DiffConfig::default());
        assert_eq!(r.regressions(), 0);
    }

    #[test]
    fn threshold_is_configurable() {
        // +50% passes a 60% threshold, fails a 20% one.
        let loose = DiffConfig { rel_tol: 0.60, ..DiffConfig::default() };
        assert_eq!(diff(&doc(1.0), &doc(1.5), &loose).regressions(), 0);
        assert_eq!(diff(&doc(1.0), &doc(1.5), &DiffConfig::default()).regressions(), 1);
    }

    #[test]
    fn tiny_stages_never_gate() {
        // Mean doubled but the total is far below min_stage_s: noise.
        let a = MetricsDoc::parse(
            r#"{"counters":{},"gauges":{},"histograms":[],
               "stages":[{"name":"x","count":2,"sum":0.00001,
               "buckets":[{"le":0.01,"count":2},{"le":"+inf","count":0}]}]}"#,
        )
        .expect("a");
        let b = MetricsDoc::parse(
            r#"{"counters":{},"gauges":{},"histograms":[],
               "stages":[{"name":"x","count":2,"sum":0.00002,
               "buckets":[{"le":0.01,"count":2},{"le":"+inf","count":0}]}]}"#,
        )
        .expect("b");
        assert_eq!(diff(&a, &b, &DiffConfig::default()).regressions(), 0);
    }

    #[test]
    fn json_output_parses_and_carries_the_verdict() {
        let r = diff(&doc(1.0), &doc(2.0), &DiffConfig::default());
        let v = Json::parse(&r.to_json()).expect("valid JSON");
        assert_eq!(v.u64_field("regressions"), Some(1));
        let lines = v.get("lines").and_then(Json::as_arr).expect("lines");
        let mean = lines
            .iter()
            .find(|l| l.str_field("metric") == Some("stage mean"))
            .expect("stage mean line");
        assert_eq!(mean.str_field("name"), Some("sim.linkbudget_trial"));
        assert_eq!(mean.get("regression").and_then(Json::as_bool), Some(true));
        // An empty diff still emits valid JSON.
        let empty = DiffReport::default();
        assert!(Json::parse(&empty.to_json()).is_ok());
    }

    #[test]
    fn unmatched_stages_are_listed_not_gated() {
        let empty = MetricsDoc::parse(r#"{"counters":{},"gauges":{},"histograms":[],"stages":[]}"#)
            .expect("empty");
        let r = diff(&doc(1.0), &empty, &DiffConfig::default());
        assert_eq!(r.regressions(), 0);
        assert_eq!(r.unmatched.len(), 1);
        assert!(r.render().contains("only in run A"));
    }
}
