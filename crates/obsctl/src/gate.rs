//! The `gate` subcommand: checks a `BENCH_<sha>.json` perf snapshot
//! against the committed reference `crates/bench/gate.json` (schema
//! `vab-gate/1`).
//!
//! One file pins two planes, and the snapshot decides which are checked:
//!
//! * **Timing** — checked when some stage recorded time (`sum_s > 0`, a
//!   `VAB_OBS` run). CI runners and laptops differ wildly in absolute
//!   speed, so the gate is **share-based**: each figure's share of total
//!   wall time, and each stage's share of total stage time, must not grow
//!   past `tolerance`. Entries pinned below `min_share` never gate (noise
//!   floor). Structure ("channel realization is ~60% of the run") travels
//!   across machines; absolute milliseconds do not.
//! * **Allocations** — checked when some stage allocated
//!   (`alloc_count > 0`, a `VAB_PROFILE=1` run). Counts are
//!   **work-derived**: a fixed-seed figure performs the same allocations
//!   in the same stages at any worker count, on any machine, so each
//!   per-figure per-stage `alloc_count` is pinned *exactly*. Any drift —
//!   including an improvement — fails until `--write` refreshes the pin,
//!   and a stage that allocates without a pin fails too. Byte counts are
//!   reported but not gated: capacity growth policies may change request
//!   sizes between toolchains without the count moving.
//!
//! Pinned figures missing from the snapshot only warn, so `run_all
//! --only` subset runs can be gated against the fleet reference. A
//! snapshot that carries neither plane, or shares no figure with the
//! reference, is an input error: it would otherwise pass without checking
//! anything.
//!
//! `wall_s`, `mean_us`, `calls`, `alloc_bytes` and `total_wall_s` are
//! recorded so a written reference is self-documenting; they never gate.

use std::fmt::Write as _;
use std::path::Path;

use vab_util::json::Json;

use crate::perf::{BenchSnapshot, FigurePerf};

/// Reference schema identifier.
pub const GATE_SCHEMA: &str = "vab-gate/1";

/// One stage's allocation footprint: a snapshot record, or a pin.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AllocPin {
    /// Stage name.
    pub name: String,
    /// Stage invocations during the figure (informational).
    pub calls: u64,
    /// Self-attributed allocation count — gated exactly.
    pub alloc_count: u64,
    /// Self-attributed bytes (informational).
    pub alloc_bytes: u64,
}

/// Aggregated per-stage `(count, sum_s)` across all figures.
fn stage_totals(doc: &BenchSnapshot) -> Vec<(String, u64, f64)> {
    let mut map: std::collections::BTreeMap<&str, (u64, f64)> = Default::default();
    for s in doc.figures.iter().flat_map(|f| &f.stages) {
        let e = map.entry(&s.name).or_insert((0, 0.0));
        e.0 += s.count;
        e.1 += s.sum_s;
    }
    map.into_iter().map(|(n, (c, s))| (n.to_string(), c, s)).collect()
}

/// A figure's allocation footprints: its stages with `alloc_count > 0`.
fn alloc_pins(f: &FigurePerf) -> impl Iterator<Item = AllocPin> + '_ {
    f.stages.iter().filter(|s| s.alloc_count > 0).map(|s| AllocPin {
        name: s.name.clone(),
        calls: s.count,
        alloc_count: s.alloc_count,
        alloc_bytes: s.alloc_bytes,
    })
}

/// Which planes the snapshot carries: `(timing, alloc)`. Errors when it
/// carries neither — such a run cannot be gated or pinned.
fn planes(doc: &BenchSnapshot) -> Result<(bool, bool), String> {
    let stages = || doc.figures.iter().flat_map(|f| &f.stages);
    let timing = stages().any(|s| s.sum_s > 0.0);
    let alloc = stages().any(|s| s.alloc_count > 0);
    if timing || alloc {
        Ok((timing, alloc))
    } else {
        Err("snapshot carries neither stage timings nor allocation counts; re-run \
             run_all with VAB_OBS=jsonl (timing) or VAB_PROFILE=1 (allocations)"
            .into())
    }
}

/// One figure's pins.
#[derive(Debug, Clone, Default)]
pub struct FigurePin {
    /// Registry name.
    pub name: String,
    /// Share of total wall time (timing plane; `None` when only the
    /// allocation plane pins this figure).
    pub share: Option<f64>,
    /// Wall seconds of the reference run (informational).
    pub wall_s: f64,
    /// Exact per-stage allocation pins, sorted by stage name.
    pub alloc: Vec<AllocPin>,
}

/// One stage's share of total stage time.
#[derive(Debug, Clone)]
pub struct StageShare {
    /// Stage name.
    pub name: String,
    /// Share of total stage time.
    pub share: f64,
    /// Mean µs per call in the reference run (informational).
    pub mean_us: f64,
}

/// The committed reference.
#[derive(Debug, Clone)]
pub struct Gate {
    /// Mode the reference was captured in (`quick` expected in CI).
    pub mode: String,
    /// Allowed relative growth (0.5 = +50%) before a share regresses.
    pub tolerance: f64,
    /// Shares pinned below this never gate (noise floor).
    pub min_share: f64,
    /// Total wall seconds of the reference run (informational).
    pub total_wall_s: f64,
    /// Per-figure pins, in run order.
    pub figures: Vec<FigurePin>,
    /// Fleet-wide stage time shares, sorted by name.
    pub stages: Vec<StageShare>,
}

impl Default for Gate {
    fn default() -> Self {
        Gate {
            mode: "quick".into(),
            tolerance: 0.5,
            min_share: 0.02,
            total_wall_s: 0.0,
            figures: Vec::new(),
            stages: Vec::new(),
        }
    }
}

impl Gate {
    /// Parses the committed reference JSON.
    pub fn parse(text: &str) -> Result<Gate, String> {
        let v = Json::parse(text).map_err(|e| e.to_string())?;
        let schema = v.str_field("schema").unwrap_or("");
        if schema != GATE_SCHEMA {
            return Err(format!("unsupported gate schema {schema:?} (expected {GATE_SCHEMA:?})"));
        }
        let default = Gate::default();
        let mut gate = Gate {
            mode: v.str_field("mode").unwrap_or(&default.mode).to_string(),
            tolerance: v.f64_field("tolerance").unwrap_or(default.tolerance),
            min_share: v.f64_field("min_share").unwrap_or(default.min_share),
            total_wall_s: v.f64_field("total_wall_s").unwrap_or(0.0),
            ..default
        };
        for (name, f) in entries(&v, "figures") {
            let mut alloc: Vec<AllocPin> = entries(f, "alloc")
                .iter()
                .map(|(stage, s)| AllocPin {
                    name: stage.clone(),
                    calls: s.u64_field("calls").unwrap_or(0),
                    alloc_count: s.u64_field("alloc_count").unwrap_or(0),
                    alloc_bytes: s.u64_field("alloc_bytes").unwrap_or(0),
                })
                .collect();
            alloc.sort_by(|a, b| a.name.cmp(&b.name));
            gate.figures.push(FigurePin {
                name: name.clone(),
                share: f.f64_field("share"),
                wall_s: f.f64_field("wall_s").unwrap_or(0.0),
                alloc,
            });
        }
        for (name, s) in entries(&v, "stages") {
            gate.stages.push(StageShare {
                name: name.clone(),
                share: s.f64_field("share").unwrap_or(0.0),
                mean_us: s.f64_field("mean_us").unwrap_or(0.0),
            });
        }
        Ok(gate)
    }

    /// Loads and parses `path`.
    pub fn load(path: &Path) -> Result<Gate, String> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        Gate::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
    }

    fn figure(&self, name: &str) -> Option<&FigurePin> {
        self.figures.iter().find(|f| f.name == name)
    }

    fn figure_mut(&mut self, name: &str) -> &mut FigurePin {
        match self.figures.iter().position(|f| f.name == name) {
            Some(i) => &mut self.figures[i],
            None => {
                self.figures.push(FigurePin { name: name.to_string(), ..FigurePin::default() });
                self.figures.last_mut().expect("just pushed")
            }
        }
    }

    /// The `--write` path: re-pins the planes `doc` carries from it and
    /// keeps the other plane as it was. Returns which planes were
    /// refreshed, `(timing, alloc)`.
    pub fn refresh(&mut self, doc: &BenchSnapshot) -> Result<(bool, bool), String> {
        let (timing, alloc) = planes(doc)?;
        self.mode = doc.mode.clone();
        if timing {
            self.total_wall_s = doc.total_wall_s();
            let total = self.total_wall_s.max(1e-12);
            for f in &mut self.figures {
                f.share = None;
                f.wall_s = 0.0;
            }
            for d in &doc.figures {
                let f = self.figure_mut(&d.name);
                f.share = Some(d.wall_s / total);
                f.wall_s = d.wall_s;
            }
            let totals = stage_totals(doc);
            let stage_sum: f64 = totals.iter().map(|(_, _, s)| s).sum::<f64>().max(1e-12);
            self.stages = totals
                .into_iter()
                .map(|(name, count, sum)| StageShare {
                    name,
                    share: sum / stage_sum,
                    mean_us: if count > 0 { 1e6 * sum / count as f64 } else { 0.0 },
                })
                .collect();
        }
        if alloc {
            for f in &mut self.figures {
                f.alloc.clear();
            }
            for d in &doc.figures {
                let mut pins: Vec<AllocPin> = alloc_pins(d).collect();
                if !pins.is_empty() {
                    pins.sort_by(|a, b| a.name.cmp(&b.name));
                    self.figure_mut(&d.name).alloc = pins;
                }
            }
        }
        self.figures.retain(|f| f.share.is_some() || !f.alloc.is_empty());
        Ok((timing, alloc))
    }

    /// Renders the reference as committed JSON through
    /// [`Json::render_pretty`]: one line per stage share and per
    /// allocation pin. Shares and `wall_s` are rounded to six decimals and
    /// `mean_us` to three, so a re-pin diffs only where a pin moved.
    pub fn to_json(&self) -> String {
        // Rounded through the decimal text, so each pin is exactly the
        // `f64` that a `{:.6}` (or `{:.3}`) rendering reads back as.
        let round = |v: f64, places: usize| Json::Num(format!("{v:.places$}").parse().unwrap_or(v));
        let int = |v: u64| Json::Num(v as f64);
        let figure = |f: &FigurePin| {
            let mut fields = Vec::new();
            if let Some(share) = f.share {
                fields.push(("share", round(share, 6)));
                fields.push(("wall_s", round(f.wall_s, 6)));
            }
            if !f.alloc.is_empty() {
                let pins = f.alloc.iter().map(|s| {
                    let pin = Json::obj([
                        ("calls", int(s.calls)),
                        ("alloc_count", int(s.alloc_count)),
                        ("alloc_bytes", int(s.alloc_bytes)),
                    ]);
                    (s.name.clone(), pin)
                });
                fields.push(("alloc", Json::Obj(pins.collect())));
            }
            (f.name.clone(), Json::obj(fields))
        };
        let stage = |s: &StageShare| {
            let share = Json::obj([("share", round(s.share, 6)), ("mean_us", round(s.mean_us, 3))]);
            (s.name.clone(), share)
        };
        let mut out = Json::obj([
            ("schema", Json::Str(GATE_SCHEMA.into())),
            ("mode", Json::Str(self.mode.clone())),
            ("tolerance", Json::Num(self.tolerance)),
            ("min_share", Json::Num(self.min_share)),
            ("total_wall_s", Json::Num(self.total_wall_s)),
            ("figures", Json::Obj(self.figures.iter().map(figure).collect())),
            ("stages", Json::Obj(self.stages.iter().map(stage).collect())),
        ])
        .render_pretty();
        out.push('\n');
        out
    }
}

/// The members of object `key` of `v` (none when absent or not an object).
fn entries<'a>(v: &'a Json, key: &str) -> &'a [(String, Json)] {
    v.get(key).and_then(Json::as_obj).unwrap_or(&[])
}

/// One share check's outcome (timing plane).
#[derive(Debug, Clone)]
pub struct ShareLine {
    /// Figure or stage name.
    pub name: String,
    /// `figure` or `stage`.
    pub kind: &'static str,
    /// Pinned share.
    pub base: f64,
    /// Share in the snapshot.
    pub current: f64,
    /// Whether the share grew past tolerance.
    pub regression: bool,
}

/// One allocation check's outcome.
#[derive(Debug, Clone)]
pub struct AllocLine {
    /// `figure/stage` label.
    pub name: String,
    /// Pinned allocation count (0 when the stage is new).
    pub base_count: u64,
    /// Observed allocation count.
    pub cur_count: u64,
    /// Pinned bytes (informational).
    pub base_bytes: u64,
    /// Observed bytes (informational).
    pub cur_bytes: u64,
    /// `pinned` | `drift` | `new-stage`.
    pub verdict: &'static str,
}

/// The whole gate result.
#[derive(Debug, Clone, Default)]
pub struct GateReport {
    /// Whether the timing plane was checked.
    pub timing: bool,
    /// Whether the allocation plane was checked.
    pub alloc: bool,
    /// Timing-plane outcomes.
    pub shares: Vec<ShareLine>,
    /// Allocation-plane outcomes, one line per (figure, stage).
    pub allocs: Vec<AllocLine>,
    /// Pins with no counterpart in the snapshot (warn only).
    pub missing: Vec<String>,
}

impl GateReport {
    /// Number of failing checks: regressed shares plus drifted or
    /// unpinned allocation counts.
    pub fn failures(&self) -> usize {
        self.shares.iter().filter(|l| l.regression).count()
            + self.allocs.iter().filter(|l| l.verdict != "pinned").count()
    }

    /// Renders the checked planes' tables plus a verdict.
    pub fn render(&self) -> String {
        let mut out = String::with_capacity(4096);
        if self.timing {
            let _ = writeln!(
                out,
                "{:<30} {:<8} {:>12} {:>12}",
                "name", "kind", "base share", "now share"
            );
            for l in &self.shares {
                let _ = writeln!(
                    out,
                    "{:<30} {:<8} {:>12.4} {:>12.4}{}",
                    l.name,
                    l.kind,
                    l.base,
                    l.current,
                    if l.regression { "  REGRESSION" } else { "" }
                );
            }
        }
        if self.alloc {
            if self.timing {
                out.push('\n');
            }
            let _ = writeln!(
                out,
                "{:<44} {:>12} {:>12} {:>12} {:>12}  verdict",
                "figure/stage", "base count", "now count", "base bytes", "now bytes"
            );
            for l in &self.allocs {
                let _ = writeln!(
                    out,
                    "{:<44} {:>12} {:>12} {:>12} {:>12}  {}",
                    l.name, l.base_count, l.cur_count, l.base_bytes, l.cur_bytes, l.verdict
                );
            }
        }
        for name in &self.missing {
            let _ = writeln!(out, "{name:<44} missing from snapshot (not gated)");
        }
        let planes = match (self.timing, self.alloc) {
            (true, true) => "timing + alloc",
            (true, false) => "timing",
            _ => "alloc",
        };
        let n = self.failures();
        if n > 0 {
            let _ = writeln!(
                out,
                "\ngate FAILED ({planes}): {n} check(s) failed; if intended, refresh with \
                 `vab-obsctl gate <BENCH.json> --write`"
            );
        } else {
            let _ = writeln!(out, "\ngate passed ({planes})");
        }
        out
    }
}

/// Checks `doc` against `gate` on the planes the snapshot carries.
/// Errors (input errors, not regressions) when the snapshot carries
/// neither plane or shares no figure with the reference.
pub fn check(doc: &BenchSnapshot, gate: &Gate) -> Result<GateReport, String> {
    let (timing, alloc) = planes(doc)?;
    if !doc.figures.iter().any(|f| gate.figure(&f.name).is_some()) {
        let names: Vec<&str> = doc.figures.iter().map(|f| f.name.as_str()).collect();
        return Err(format!(
            "snapshot shares no figure with the reference (snapshot has: {})",
            names.join(", ")
        ));
    }
    let mut report = GateReport { timing, alloc, ..Default::default() };
    if timing {
        check_shares(doc, gate, &mut report);
    }
    if alloc {
        check_allocs(doc, gate, &mut report);
    }
    Ok(report)
}

/// Timing plane: figure wall shares and fleet-wide stage time shares.
fn check_shares(doc: &BenchSnapshot, gate: &Gate, report: &mut GateReport) {
    let line = |name: &str, kind: &'static str, base: f64, current: f64| ShareLine {
        name: name.to_string(),
        kind,
        base,
        current,
        regression: base >= gate.min_share && current > base * (1.0 + gate.tolerance),
    };
    let total = doc.total_wall_s().max(1e-12);
    for pin in &gate.figures {
        let Some(base) = pin.share else { continue };
        match doc.figures.iter().find(|f| f.name == pin.name) {
            None => report.missing.push(format!("figure {}", pin.name)),
            Some(f) => report.shares.push(line(&pin.name, "figure", base, f.wall_s / total)),
        }
    }
    let totals = stage_totals(doc);
    let stage_sum: f64 = totals.iter().map(|(_, _, s)| s).sum::<f64>().max(1e-12);
    for pin in &gate.stages {
        match totals.iter().find(|(n, _, _)| *n == pin.name) {
            None => report.missing.push(format!("stage {}", pin.name)),
            Some((_, _, sum)) => {
                report.shares.push(line(&pin.name, "stage", pin.share, sum / stage_sum))
            }
        }
    }
}

/// Allocation plane: exact per-figure per-stage counts.
fn check_allocs(doc: &BenchSnapshot, gate: &Gate, report: &mut GateReport) {
    for pinned in gate.figures.iter().filter(|f| !f.alloc.is_empty()) {
        let Some(cur) = doc.figures.iter().find(|f| f.name == pinned.name) else {
            report.missing.push(format!("{}/*", pinned.name));
            continue;
        };
        for pin in &pinned.alloc {
            if !cur.stages.iter().any(|s| s.alloc_count > 0 && s.name == pin.name) {
                report.missing.push(format!("{}/{}", pinned.name, pin.name));
            }
        }
    }
    for cur in &doc.figures {
        let pins = gate.figure(&cur.name).map_or(&[][..], |f| &f.alloc);
        for a in alloc_pins(cur) {
            let pin = pins.iter().find(|p| p.name == a.name);
            report.allocs.push(AllocLine {
                name: format!("{}/{}", cur.name, a.name),
                base_count: pin.map_or(0, |p| p.alloc_count),
                cur_count: a.alloc_count,
                base_bytes: pin.map_or(0, |p| p.alloc_bytes),
                cur_bytes: a.alloc_bytes,
                verdict: match pin {
                    None => "new-stage",
                    Some(p) if p.alloc_count == a.alloc_count => "pinned",
                    Some(_) => "drift",
                },
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A two-figure snapshot. `trial_sum` is the timing plane (0 drops
    /// it), `trial_allocs` the allocation plane (0 drops it).
    fn bench_json(f7_wall: f64, trial_sum: f64, trial_allocs: u64) -> String {
        let viterbi_sum = if trial_sum > 0.0 { 0.05 } else { 0.0 };
        let viterbi_allocs = if trial_allocs > 0 { 200 } else { 0 };
        format!(
            r#"{{"schema": "vab-bench-perf/1", "sha": "abc", "mode": "quick",
  "trials": 25, "bits": 256, "seed": 2023, "total_wall_s": {},
  "figures": [
    {{"name": "f7_ber_vs_range", "wall_s": {f7_wall}, "rows": 10, "stages": [
      {{"name": "sim.linkbudget_trial", "count": 100, "sum_s": {trial_sum}, "p50_s": 0.001, "p95_s": 0.002, "p99_s": 0.003, "alloc_count": {trial_allocs}, "alloc_bytes": 4096}},
      {{"name": "fec.viterbi", "count": 50, "sum_s": {viterbi_sum}, "p50_s": 0.001, "p95_s": 0.002, "p99_s": 0.003, "alloc_count": {viterbi_allocs}, "alloc_bytes": 1024}}]}},
    {{"name": "t2_power_budget", "wall_s": 0.5, "rows": 8, "stages": [
      {{"name": "fec.viterbi", "count": 50, "sum_s": {viterbi_sum}, "p50_s": 0.001, "p95_s": 0.002, "p99_s": 0.003}}]}}
  ]
}}"#,
            f7_wall + 0.5
        )
    }

    fn doc(f7_wall: f64, trial_sum: f64, trial_allocs: u64) -> BenchSnapshot {
        BenchSnapshot::parse(&bench_json(f7_wall, trial_sum, trial_allocs)).expect("doc")
    }

    /// A reference pinned from a snapshot carrying both planes.
    fn pinned(tolerance: f64) -> Gate {
        let mut gate = Gate { tolerance, ..Gate::default() };
        assert_eq!(gate.refresh(&doc(1.5, 1.0, 1000)), Ok((true, true)));
        gate
    }

    #[test]
    fn round_trips_and_passes_against_itself() {
        let gate = pinned(0.5);
        let json = gate.to_json();
        let back = Gate::parse(&json).expect("reparse");
        assert_eq!(back.to_json(), json, "rendering is a fixed point");
        assert_eq!(back.figures.len(), 2);
        assert_eq!(back.figures[0].alloc.len(), 2);
        assert!(back.figures[1].alloc.is_empty(), "t2 allocates nothing");
        let report = check(&doc(1.5, 1.0, 1000), &back).expect("gated");
        assert!(report.timing && report.alloc);
        assert_eq!(report.failures(), 0, "report: {}", report.render());
        assert!(report.render().contains("gate passed (timing + alloc)"));
    }

    #[test]
    fn share_regression_trips_the_gate() {
        let gate = pinned(0.2);
        // f7 takes 4x longer: its wall share and the trial stage's share
        // both blow past +20%.
        let report = check(&doc(6.0, 4.0, 0), &gate).expect("gated");
        assert!(report.timing && !report.alloc, "a traced-only run checks timing only");
        assert!(report.failures() >= 1, "report: {}", report.render());
        assert!(report.render().contains("gate FAILED"));
        assert!(report.render().contains("REGRESSION"));
    }

    #[test]
    fn missing_entries_warn_but_do_not_gate() {
        let gate = pinned(0.5);
        // A single-figure `--only` run against the full reference.
        let single = BenchSnapshot::parse(
            r#"{"schema": "vab-bench-perf/1", "sha": "abc", "mode": "quick",
  "trials": 25, "bits": 256, "seed": 2023, "total_wall_s": 0.5,
  "figures": [{"name": "t2_power_budget", "wall_s": 0.5, "rows": 8, "stages": [
    {"name": "fec.viterbi", "count": 50, "sum_s": 0.05, "p50_s": 0.001, "p95_s": 0.002, "p99_s": 0.003}]}]}"#,
        )
        .expect("single");
        let report = check(&single, &gate).expect("gated");
        let text = report.render();
        assert!(text.contains("figure f7_ber_vs_range"), "{text}");
        assert!(text.contains("stage sim.linkbudget_trial"), "{text}");
        assert!(text.contains("missing from snapshot"), "{text}");
        // Missing pins never become check lines. (t2's share is now 100%:
        // that is the subset-run artifact the share plane cannot hide.)
        assert!(report.shares.iter().all(|l| l.name != "f7_ber_vs_range"), "{text}");

        // The allocation plane: pinned figures absent from the run warn.
        let mut wider = pinned(0.5);
        wider.figure_mut("a2_ablation_fec").alloc = vec![AllocPin {
            name: "fec.viterbi".into(),
            calls: 10,
            alloc_count: 5,
            alloc_bytes: 64,
        }];
        let report = check(&doc(1.5, 0.0, 1000), &wider).expect("gated");
        assert_eq!(report.failures(), 0, "report: {}", report.render());
        assert!(report.render().contains("a2_ablation_fec/*"));
    }

    #[test]
    fn any_count_drift_fails_even_improvements() {
        let gate = pinned(0.5);
        for drifted in [1100, 900] {
            let report = check(&doc(1.5, 0.0, drifted), &gate).expect("gated");
            assert!(report.alloc && !report.timing, "a profile-only run checks allocations only");
            assert_eq!(report.failures(), 1, "count {drifted}: {}", report.render());
            let text = report.render();
            assert!(text.contains("gate FAILED (alloc)"), "{text}");
            assert!(text.contains("f7_ber_vs_range/sim.linkbudget_trial"), "{text}");
            assert!(text.contains("drift"), "{text}");
        }
    }

    #[test]
    fn unpinned_allocating_stage_fails() {
        let mut gate = pinned(0.5);
        gate.figures[0].alloc.retain(|s| s.name != "fec.viterbi");
        let report = check(&doc(1.5, 0.0, 1000), &gate).expect("gated");
        assert_eq!(report.failures(), 1, "report: {}", report.render());
        assert!(report.render().contains("new-stage"));
    }

    #[test]
    fn byte_drift_alone_does_not_gate() {
        let mut gate = pinned(0.5);
        gate.figures[0].alloc[0].alloc_bytes *= 2;
        assert_eq!(check(&doc(1.5, 0.0, 1000), &gate).expect("gated").failures(), 0);
    }

    #[test]
    fn unprofiled_snapshot_cannot_write_the_alloc_plane() {
        let mut gate = pinned(0.5);
        let pins: Vec<Vec<AllocPin>> = gate.figures.iter().map(|f| f.alloc.clone()).collect();
        // A traced-only run twice as slow re-pins the timing plane...
        assert_eq!(gate.refresh(&doc(3.0, 2.0, 0)), Ok((true, false)));
        assert!((gate.figures[0].wall_s - 3.0).abs() < 1e-12);
        // ...and leaves every allocation pin as it was.
        let after: Vec<Vec<AllocPin>> = gate.figures.iter().map(|f| f.alloc.clone()).collect();
        assert_eq!(after, pins);
        // A profile-only run keeps the timing plane.
        let shares: Vec<Option<f64>> = gate.figures.iter().map(|f| f.share).collect();
        assert_eq!(gate.refresh(&doc(9.0, 0.0, 1234)), Ok((false, true)));
        assert_eq!(gate.figures.iter().map(|f| f.share).collect::<Vec<_>>(), shares);
        assert_eq!(gate.figures[0].alloc[1].alloc_count, 1234);
    }

    #[test]
    fn planeless_or_disjoint_snapshots_are_input_errors() {
        let gate = pinned(0.5);
        let bare = doc(1.5, 0.0, 0);
        let err = check(&bare, &gate).expect_err("no plane to check");
        assert!(err.contains("VAB_PROFILE=1"), "{err}");
        assert!(Gate::default().refresh(&bare).is_err(), "nothing to pin either");

        let disjoint = BenchSnapshot::parse(
            r#"{"schema": "vab-bench-perf/1", "sha": "788a53d", "mode": "quick",
  "figures": [{"name": "FR1", "wall_s": 4.5, "rows": 6, "stages": [
    {"name": "replay.apply", "count": 20, "sum_s": 2.2, "alloc_count": 63, "alloc_bytes": 2947584}]}]}"#,
        )
        .expect("doc");
        let err = check(&disjoint, &gate).expect_err("nothing shared");
        assert!(err.contains("shares no figure") && err.contains("FR1"), "{err}");
    }

    #[test]
    fn wrong_schema_is_rejected() {
        assert!(BenchSnapshot::parse(r#"{"schema": "nope/9"}"#).is_err());
        assert!(Gate::parse(r#"{"schema": "nope/9"}"#).is_err());
        assert!(Gate::parse(r#"{"schema": "vab-bench-baseline/1"}"#).is_err());
    }
}
