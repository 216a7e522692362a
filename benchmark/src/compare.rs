//! `compare`: two sets of runs of one benchmark, metric by metric and
//! workload by workload.
//!
//! Set A is the baseline (the parent commit), set B the change, each a
//! JSONL file of run records written with `--record`. Runs pair up in file
//! order, so record them alternating which side runs first. The verdicts
//! follow the choosing-metrics rules:
//!
//! * **improved** — at least [`MIN_PAIRS`] pairs, B wins at least nine
//!   tenths of them and the medians differ by more than A's own quartile
//!   spread;
//! * **regressed** — B's median is worse than A's by more than the bound,
//!   and either both spreads are within the bound or every B run is worse
//!   than every A run;
//! * **unresolved** — a spread is wider than the bound and B does not read
//!   better on every run;
//! * **unchanged** — otherwise;
//! * **incomplete** — one set lacks the metric on the workload, or the two
//!   sets hold different numbers of runs of it (a run that could not set
//!   up, panicked or was killed).
//!
//! Per-layer metrics carry no bound; they get medians and pairs won only,
//! unless incomplete.
//!
//! `calibrate` turns sets of runs of one build into the noise record the
//! bounds in `BENCHMARK.json` are set from.

use std::collections::{BTreeMap, BTreeSet};

use vab_util::json::Json;

use crate::stats::{mad, median, quartiles};

/// Pairs needed before a gain can be claimed.
pub const MIN_PAIRS: usize = 10;

/// How a metric is judged, from `BENCHMARK.json`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Rule {
    /// Higher values are better.
    pub higher_is_better: bool,
    /// Allowed worsening as a share of A's median; `None` for per-layer
    /// metrics.
    pub bound: Option<f64>,
}

/// Reads the metric rules from the text of `BENCHMARK.json`.
pub fn rules(benchmark_json: &str) -> Result<BTreeMap<String, Rule>, String> {
    let spec = Json::parse(benchmark_json).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let mut out = BTreeMap::new();
    for key in ["end_to_end", "per_layer"] {
        for m in spec.get(key).and_then(Json::as_arr).ok_or(format!("no {key} list"))? {
            let name = m.str_field("name").ok_or("metric without a name")?;
            if !crate::valid_metric_name(name) {
                return Err(format!("metric name {name:?} is not [A-Za-z0-9_.-]+"));
            }
            let higher_is_better = match m.str_field("better") {
                Some("higher") => true,
                Some("lower") => false,
                other => return Err(format!("{name}: better = {other:?}")),
            };
            out.insert(name.to_string(), Rule { higher_is_better, bound: m.f64_field("bound") });
        }
    }
    Ok(out)
}

/// One recorded run.
#[derive(Debug, Clone, PartialEq)]
pub struct Run {
    /// Workload name.
    pub workload: String,
    /// Every check passed.
    pub correct: bool,
    /// Operations that failed.
    pub failed: u64,
    /// `(metric, value)`.
    pub metrics: Vec<(String, f64)>,
}

/// Parses a set file: one run record per non-empty line.
pub fn parse_set(text: &str) -> Result<Vec<Run>, String> {
    text.lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
        .map(|(i, line)| {
            let bad = |what: &str| format!("line {}: {what}", i + 1);
            let v = Json::parse(line).map_err(|e| bad(&e.to_string()))?;
            let metrics = v
                .get("metrics")
                .and_then(Json::as_obj)
                .ok_or_else(|| bad("no metrics"))?
                .iter()
                .map(|(name, m)| {
                    m.f64_field("value").map(|x| (name.clone(), x)).ok_or_else(|| bad(name))
                })
                .collect::<Result<_, _>>()?;
            Ok(Run {
                workload: v.str_field("workload").ok_or_else(|| bad("no workload"))?.into(),
                correct: v.bool_field("correct").ok_or_else(|| bad("no correct"))?,
                failed: v.u64_field("failed").ok_or_else(|| bad("no failed"))?,
                metrics,
            })
        })
        .collect()
}

/// The outcome for one metric on one workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// B is better, by the pairs-won and spread rule.
    Improved,
    /// Within the bound.
    Unchanged,
    /// Worse than A by more than the bound.
    Regressed,
    /// The spread is too wide to tell.
    Unresolved,
    /// Missing from one set, or a different number of runs in each.
    Incomplete,
    /// A per-layer metric: no bound, no verdict.
    NoBound,
}

impl Verdict {
    /// Report label.
    pub fn label(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::Unchanged => "unchanged",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
            Verdict::Incomplete => "incomplete",
            Verdict::NoBound => "-",
        }
    }
}

/// Median and quartiles of one side.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Side {
    /// First quartile.
    pub q1: f64,
    /// Median.
    pub median: f64,
    /// Third quartile.
    pub q3: f64,
}

impl Side {
    fn of(v: &[f64]) -> Side {
        let (q1, _, q3) = quartiles(v);
        Side { q1, median: median(v), q3 }
    }

    /// Quartile spread as a share of the median.
    pub fn spread(&self) -> f64 {
        (self.q3 - self.q1) / self.median.abs()
    }
}

/// One row of the comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    /// Workload.
    pub workload: String,
    /// Metric.
    pub metric: String,
    /// Baseline side; `None` when set A lacks the metric.
    pub a: Option<Side>,
    /// Change side; `None` when set B lacks the metric.
    pub b: Option<Side>,
    /// Pairs in which B read better.
    pub wins: usize,
    /// Pairs compared.
    pub pairs: usize,
    /// The verdict.
    pub verdict: Verdict,
}

/// Judges one metric. `a` and `b` are in run order, pair `i` being
/// `(a[i], b[i])`.
pub fn judge(a: &[f64], b: &[f64], rule: Rule) -> (Side, Side, usize, usize, Verdict) {
    let (sa, sb) = (Side::of(a), Side::of(b));
    let better = |x: f64, y: f64| if rule.higher_is_better { x > y } else { x < y };
    let pairs = a.len().min(b.len());
    let wins = a.iter().zip(b).filter(|(&x, &y)| better(y, x)).count();
    let Some(bound) = rule.bound else {
        return (sa, sb, wins, pairs, Verdict::NoBound);
    };
    let all_better = b.iter().all(|&y| a.iter().all(|&x| better(y, x)));
    let all_worse = b.iter().all(|&y| a.iter().all(|&x| better(x, y)));
    let worse_by =
        if rule.higher_is_better { sa.median - sb.median } else { sb.median - sa.median };
    let worsening = worse_by / sa.median.abs();
    let wide = sa.spread().max(sb.spread()) > bound;
    let verdict = if pairs >= MIN_PAIRS
        && wins * 10 >= pairs * 9
        && better(sb.median, sa.median)
        && (sb.median - sa.median).abs() > sa.q3 - sa.q1
    {
        Verdict::Improved
    } else if worsening > bound && (!wide || all_worse) {
        Verdict::Regressed
    } else if wide && !all_better {
        Verdict::Unresolved
    } else {
        Verdict::Unchanged
    };
    (sa, sb, wins, pairs, verdict)
}

/// Values of each `(workload, metric)`, in run order.
type Series = BTreeMap<(String, String), Vec<f64>>;

fn series(runs: &[Run]) -> Series {
    let mut s = Series::new();
    for r in runs {
        for (name, v) in &r.metrics {
            s.entry((r.workload.clone(), name.clone())).or_default().push(*v);
        }
    }
    s
}

/// Compares every metric either set reports for a workload.
pub fn compare(a: &[Run], b: &[Run], rules: &BTreeMap<String, Rule>) -> Vec<Row> {
    let (sa, sb) = (series(a), series(b));
    let keys: BTreeSet<&(String, String)> = sa.keys().chain(sb.keys()).collect();
    keys.into_iter()
        .filter_map(|key| {
            let rule = rules.get(&key.1).copied()?;
            let (workload, metric) = key.clone();
            let row = match (sa.get(key), sb.get(key)) {
                (Some(va), Some(vb)) => {
                    let (a, b, wins, pairs, verdict) = judge(va, vb, rule);
                    let verdict = if va.len() == vb.len() { verdict } else { Verdict::Incomplete };
                    Row { workload, metric, a: Some(a), b: Some(b), wins, pairs, verdict }
                }
                (va, vb) => Row {
                    workload,
                    metric,
                    a: va.map(|v| Side::of(v)),
                    b: vb.map(|v| Side::of(v)),
                    wins: 0,
                    pairs: 0,
                    verdict: Verdict::Incomplete,
                },
            };
            Some(row)
        })
        .collect()
}

/// Why a comparison fails: runs that failed a check or an operation, and
/// rows that regressed or are incomplete. Empty when it passes.
pub fn failures(a: &[Run], b: &[Run], rows: &[Row]) -> Vec<String> {
    let mut out = Vec::new();
    for (set, runs) in [("A", a), ("B", b)] {
        let failed = runs.iter().filter(|r| !r.correct || r.failed > 0).count();
        if failed > 0 {
            out.push(format!("{failed} run(s) of set {set} failed a check or an operation"));
        }
    }
    for r in rows {
        if matches!(r.verdict, Verdict::Regressed | Verdict::Incomplete) {
            out.push(format!("{} on {}: {}", r.metric, r.workload, r.verdict.label()));
        }
    }
    out
}

/// The noise record of `sets` of runs of one build. For every metric with
/// a bound and every workload: the median and MAD over all runs and the
/// quartile spread (as a share of the median) of each set. `needed` is the
/// bound that noise calls for: three times the widest relative MAD or
/// quartile spread of any workload.
pub fn calibrate(sets: &[Vec<Run>], rules: &BTreeMap<String, Rule>) -> Json {
    let per_set: Vec<Series> = sets.iter().map(|s| series(s)).collect();
    let workloads: BTreeSet<&String> =
        per_set.iter().flat_map(|s| s.keys().map(|k| &k.0)).collect();
    let metrics = rules
        .iter()
        .filter_map(|(name, rule)| Some((name, rule.bound?)))
        .map(|(name, bound)| {
            let mut needed = 0.0f64;
            let rows = workloads
                .iter()
                .filter_map(|&w| {
                    let key = (w.clone(), name.clone());
                    let sets: Vec<&Vec<f64>> = per_set.iter().filter_map(|s| s.get(&key)).collect();
                    let all: Vec<f64> = sets.iter().flat_map(|v| v.iter().copied()).collect();
                    if all.is_empty() {
                        return None;
                    }
                    let (med, dev) = (median(&all), mad(&all));
                    let spreads: Vec<f64> = sets.iter().map(|v| Side::of(v).spread()).collect();
                    needed =
                        spreads.iter().fold(needed.max(3.0 * dev / med), |n, s| n.max(3.0 * s));
                    Some(Json::obj([
                        ("workload", Json::Str(w.clone())),
                        ("runs", Json::Num(all.len() as f64)),
                        ("median", Json::Num(med)),
                        ("mad", Json::Num(dev)),
                        ("iqr_frac", Json::Arr(spreads.into_iter().map(Json::Num).collect())),
                    ]))
                })
                .collect();
            Json::obj([
                ("metric", Json::Str(name.clone())),
                ("bound", Json::Num(bound)),
                ("needed", Json::Num(needed)),
                ("workloads", Json::Arr(rows)),
            ])
        })
        .collect();
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    Json::obj([
        ("nproc", Json::Num(nproc as f64)),
        ("sets", Json::Num(sets.len() as f64)),
        ("metrics", Json::Arr(metrics)),
    ])
}

/// Renders the comparison table.
pub fn render(rows: &[Row]) -> String {
    let mut out = format!(
        "{:<16} {:<26} {:>38} {:>38} {:>7}  verdict\n",
        "workload", "metric", "A median [q1, q3]", "B median [q1, q3]", "B wins"
    );
    for r in rows {
        let side = |s: &Option<Side>| match s {
            Some(s) => format!("{:.6} [{:.6}, {:.6}]", s.median, s.q1, s.q3),
            None => "-".into(),
        };
        out.push_str(&format!(
            "{:<16} {:<26} {:>38} {:>38} {:>7}  {}\n",
            r.workload,
            r.metric,
            side(&r.a),
            side(&r.b),
            format!("{}/{}", r.wins, r.pairs),
            r.verdict.label()
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    const HIGHER: Rule = Rule { higher_is_better: true, bound: Some(0.05) };
    const LOWER: Rule = Rule { higher_is_better: false, bound: Some(0.05) };

    fn verdict(a: &[f64], b: &[f64], rule: Rule) -> Verdict {
        judge(a, b, rule).4
    }

    /// Ten runs: the five given, twice.
    fn ten(v: [f64; 5]) -> Vec<f64> {
        v.iter().chain(&v).copied().collect()
    }

    #[test]
    fn same_distribution_is_unchanged() {
        let a = [100.0, 101.0, 99.0, 100.5, 99.5];
        let b = [100.2, 99.8, 100.9, 99.4, 100.1];
        assert_eq!(verdict(&a, &b, HIGHER), Verdict::Unchanged);
        assert_eq!(verdict(&a, &b, LOWER), Verdict::Unchanged);
    }

    #[test]
    fn clear_gain_is_improved_and_clear_loss_regressed() {
        let a = ten([100.0, 101.0, 99.0, 100.5, 99.5]);
        let faster = ten([120.0, 121.0, 119.0, 120.5, 119.5]);
        assert_eq!(verdict(&a, &faster, HIGHER), Verdict::Improved);
        assert_eq!(verdict(&faster, &a, HIGHER), Verdict::Regressed);
        // For a lower-is-better metric the same numbers flip.
        assert_eq!(verdict(&a, &faster, LOWER), Verdict::Regressed);
        assert_eq!(verdict(&faster, &a, LOWER), Verdict::Improved);
    }

    #[test]
    fn small_worsening_within_bound_is_unchanged() {
        let a = [100.0, 100.2, 99.8, 100.1, 99.9];
        let b = [97.0, 97.2, 96.8, 97.1, 96.9];
        assert_eq!(verdict(&a, &b, HIGHER), Verdict::Unchanged);
    }

    #[test]
    fn wide_spread_is_unresolved() {
        let a = ten([80.0, 120.0, 100.0, 70.0, 130.0]);
        let b = ten([75.0, 125.0, 97.0, 72.0, 128.0]);
        assert_eq!(verdict(&a, &b, HIGHER), Verdict::Unresolved);
        // Unless every B run beats every A run.
        let b = ten([131.0, 140.0, 135.0, 150.0, 132.0]);
        assert_eq!(verdict(&a, &b, HIGHER), Verdict::Unchanged);
        let b = ten([160.0, 170.0, 165.0, 180.0, 162.0]);
        assert_eq!(verdict(&a, &b, HIGHER), Verdict::Improved);
    }

    #[test]
    fn a_gain_needs_ten_pairs() {
        let a = [100.0, 101.0, 99.0, 100.5, 99.5];
        let faster = [120.0, 121.0, 119.0, 120.5, 119.5];
        assert_eq!(verdict(&a, &faster, HIGHER), Verdict::Unchanged);
        assert_eq!(verdict(&a[..4], &faster[..4], HIGHER), Verdict::Unchanged);
        assert_eq!(verdict(&ten(a), &ten(faster), HIGHER), Verdict::Improved);
        // A regression needs no minimum.
        assert_eq!(verdict(&faster, &a, HIGHER), Verdict::Regressed);
    }

    #[test]
    fn a_missing_workload_or_run_fails_the_comparison() {
        let line = |w: &str, v: f64| {
            format!(
                "{{\"workload\":\"{w}\",\"correct\":true,\"failed\":0,\
                 \"metrics\":{{\"units_per_s\":{{\"value\":{v},\"unit\":\"1/s\"}}}}}}"
            )
        };
        let rules = rules(
            r#"{"end_to_end":[{"name":"units_per_s","unit":"1/s","better":"higher","bound":0.05}],
                "per_layer":[]}"#,
        )
        .unwrap();
        let a = parse_set(&[line("x", 10.0), line("x", 10.1), line("y", 5.0)].join("\n")).unwrap();

        // y is gone from B: a set-up error, a panic or a killed process.
        let b = parse_set(&[line("x", 10.0), line("x", 10.1)].join("\n")).unwrap();
        let rows = compare(&a, &b, &rules);
        let y = rows.iter().find(|r| r.workload == "y").expect("y is reported");
        assert_eq!((y.verdict, y.b), (Verdict::Incomplete, None));
        assert_eq!(failures(&a, &b, &rows), ["units_per_s on y: incomplete"]);
        // The same the other way round.
        let rows = compare(&b, &a, &rules);
        assert_eq!(failures(&b, &a, &rows), ["units_per_s on y: incomplete"]);

        // One run of x is missing from B.
        let b = parse_set(&[line("x", 10.0), line("y", 5.0)].join("\n")).unwrap();
        let rows = compare(&a, &b, &rules);
        assert_eq!(failures(&a, &b, &rows), ["units_per_s on x: incomplete"]);

        // A run that could not set up leaves a record without metrics.
        let failed = "{\"workload\":\"y\",\"correct\":false,\"failed\":0,\"metrics\":{}}";
        let b = parse_set(&[line("x", 10.0), line("x", 10.1), failed.into()].join("\n")).unwrap();
        let rows = compare(&a, &b, &rules);
        assert_eq!(
            failures(&a, &b, &rows),
            ["1 run(s) of set B failed a check or an operation", "units_per_s on y: incomplete"]
        );

        let b = parse_set(&[line("x", 10.05), line("x", 10.0), line("y", 5.0)].join("\n")).unwrap();
        let rows = compare(&a, &b, &rules);
        assert!(failures(&a, &b, &rows).is_empty(), "{rows:?}");
    }

    #[test]
    fn per_layer_metrics_get_no_verdict() {
        let rule = Rule { higher_is_better: false, bound: None };
        let (a, b, wins, pairs, v) = judge(&[2.0, 2.0], &[1.0, 3.0], rule);
        assert_eq!((a.median, b.median, wins, pairs, v), (2.0, 2.0, 1, 2, Verdict::NoBound));
    }

    #[test]
    fn sets_parse_and_pair_by_workload() {
        let line = |w: &str, v: f64| {
            format!(
                "{{\"workload\":\"{w}\",\"seed\":1,\"trace\":0,\"correct\":true,\"attempted\":3,\
                 \"failed\":0,\"metrics\":{{\"units_per_s\":{{\"value\":{v},\"unit\":\"1/s\"}}}}}}"
            )
        };
        let a = parse_set(&[line("x", 10.0), line("y", 5.0), line("x", 10.2)].join("\n")).unwrap();
        let b = parse_set(&[line("x", 10.1), line("x", 9.9), line("y", 5.0)].join("\n")).unwrap();
        let rules = rules(
            r#"{"end_to_end":[{"name":"units_per_s","unit":"1/s","better":"higher","bound":0.05}],
                "per_layer":[]}"#,
        )
        .unwrap();
        let rows = compare(&a, &b, &rules);
        assert_eq!(rows.len(), 2);
        assert_eq!((rows[0].workload.as_str(), rows[0].pairs), ("x", 2));
        assert_eq!((rows[1].workload.as_str(), rows[1].pairs), ("y", 1));
        assert!(rows.iter().all(|r| r.verdict == Verdict::Unchanged));
        assert!(render(&rows).contains("units_per_s"));
        assert!(parse_set("{\"workload\":\"x\"}").is_err());
        let bad_name = r#"{"end_to_end":[{"name":"p99 ms","better":"lower"}],"per_layer":[]}"#;
        assert!(super::rules(bad_name).is_err());

        // x's values over both sets are 10, 10.2, 10.1 and 9.9: median
        // 10.05, MAD 0.1; the widest set spread is B's (9.9, 10.1).
        let cal = calibrate(&[a, b], &rules);
        let m = &cal.get("metrics").and_then(Json::as_arr).unwrap()[0];
        assert_eq!(m.str_field("metric"), Some("units_per_s"));
        let x = &m.get("workloads").and_then(Json::as_arr).unwrap()[0];
        assert_eq!(x.str_field("workload"), Some("x"));
        assert_eq!(x.u64_field("runs"), Some(4));
        assert!((x.f64_field("median").unwrap() - 10.05).abs() < 1e-12);
        assert!((x.f64_field("mad").unwrap() - 0.1).abs() < 1e-12);
        let (q1, q3) = (9.9 * 1.25 - 10.1 * 0.25, 10.1 * 1.25 - 9.9 * 0.25);
        let widest = (q3 - q1) / 10.0;
        assert!((m.f64_field("needed").unwrap() - 3.0 * widest).abs() < 1e-12);
    }
}
