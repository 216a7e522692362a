//! The `BENCH_<sha>.json` perf snapshot: one type that `run_all` writes
//! and [`gate`](crate::gate) reads.
//!
//! Every `run_all` folds each figure's wall-clock time, trial
//! configuration and per-stage timing and allocation deltas into a
//! [`BenchSnapshot`] and writes it next to the CSVs. The schema is
//! versioned ([`PERF_SCHEMA`]) and rendered through
//! [`vab_util::json::Json`], so [`BenchSnapshot::parse`] reads back exactly
//! what [`BenchSnapshot::to_json`] wrote. Numbers travel as JSON numbers
//! (`f64`): integer fields are exact below 2^53, non-finite floats render
//! as `null` and read back as 0.
//!
//! Parsing is lenient about absent fields (a missing number reads as 0, a
//! missing `sha` or `mode` as `unknown`) so hand-written snapshots need
//! only what the gate checks; a wrong schema or a nameless figure or stage
//! is an error. `total_wall_s` is written for readers of the file and
//! recomputed from the figures on read.

use std::path::{Path, PathBuf};

use vab_obs::metrics::Snapshot;
use vab_util::json::Json;

/// Schema identifier embedded in every snapshot.
pub const PERF_SCHEMA: &str = "vab-bench-perf/1";

/// One stage's timing contribution to a figure (delta over the run).
#[derive(Debug, Clone, PartialEq)]
pub struct StagePerf {
    /// Stage name (`sim.linkbudget_trial`, `fec.viterbi`, …).
    pub name: String,
    /// Calls recorded during the figure.
    pub count: u64,
    /// Total wall-clock seconds across those calls.
    pub sum_s: f64,
    /// Derived latency quantiles in seconds (log-bucket interpolation).
    pub p50_s: f64,
    /// 95th percentile (seconds).
    pub p95_s: f64,
    /// 99th percentile (seconds).
    pub p99_s: f64,
    /// Allocations attributed to the stage alone (self, not children)
    /// during the figure. Zero when allocation profiling is off.
    pub alloc_count: u64,
    /// Bytes attributed to the stage alone during the figure.
    pub alloc_bytes: u64,
}

/// One figure/table's performance record.
#[derive(Debug, Clone, PartialEq)]
pub struct FigurePerf {
    /// Registry name (`f7_ber_vs_range`, `t1_sota_comparison`, …).
    pub name: String,
    /// Wall-clock seconds for the whole figure.
    pub wall_s: f64,
    /// Data rows the figure produced.
    pub rows: usize,
    /// Per-stage timing deltas (empty when observability is off).
    pub stages: Vec<StagePerf>,
}

/// A whole run's perf snapshot.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchSnapshot {
    /// Git revision the run was built from (short SHA, or `local`).
    pub sha: String,
    /// `quick` or `full`.
    pub mode: String,
    /// Monte Carlo trials per operating point.
    pub trials: usize,
    /// Information bits per trial.
    pub bits: usize,
    /// Master seed.
    pub seed: u64,
    /// Per-figure records, in run order.
    pub figures: Vec<FigurePerf>,
}

impl BenchSnapshot {
    /// Records one figure: its wall time, row count, and the stage-timing
    /// delta observed while it ran (pass an empty [`Snapshot`] when
    /// observability is off).
    pub fn push_figure(&mut self, name: &str, wall_s: f64, rows: usize, stage_delta: &Snapshot) {
        let mut stages: Vec<StagePerf> = stage_delta
            .stages
            .iter()
            .filter(|h| h.count > 0)
            .map(|h| {
                let (p50_s, p95_s, p99_s) = h.quantile_trio().unwrap_or((0.0, 0.0, 0.0));
                StagePerf {
                    name: h.name.clone(),
                    count: h.count,
                    sum_s: h.sum,
                    p50_s,
                    p95_s,
                    p99_s,
                    alloc_count: 0,
                    alloc_bytes: 0,
                }
            })
            .collect();
        // Merge the allocation profile by stage name. With `VAB_PROFILE=1`
        // and the sink off, the timing histograms are empty but the alloc
        // registry is not — those stages enter on their alloc identity.
        for a in stage_delta.alloc_stages.iter().filter(|a| a.calls > 0 || a.self_allocs > 0) {
            match stages.iter_mut().find(|s| s.name == a.name) {
                Some(s) => {
                    s.alloc_count = a.self_allocs;
                    s.alloc_bytes = a.self_bytes;
                }
                None => stages.push(StagePerf {
                    name: a.name.clone(),
                    count: a.calls,
                    sum_s: 0.0,
                    p50_s: 0.0,
                    p95_s: 0.0,
                    p99_s: 0.0,
                    alloc_count: a.self_allocs,
                    alloc_bytes: a.self_bytes,
                }),
            }
        }
        stages.sort_by(|x, y| x.name.cmp(&y.name));
        self.figures.push(FigurePerf { name: name.to_string(), wall_s, rows, stages });
    }

    /// Sum of per-figure wall times.
    pub fn total_wall_s(&self) -> f64 {
        self.figures.iter().map(|f| f.wall_s).sum()
    }

    /// Default output path: `results/BENCH_<sha>.json`.
    pub fn default_path(&self) -> PathBuf {
        PathBuf::from(format!("results/BENCH_{}.json", self.sha))
    }

    /// Renders the snapshot: one canonical JSON line, keys in schema order.
    pub fn to_json(&self) -> String {
        let num = Json::Num;
        let int = |v: u64| Json::Num(v as f64);
        let stage = |s: &StagePerf| {
            Json::obj([
                ("name", Json::Str(s.name.clone())),
                ("count", int(s.count)),
                ("sum_s", num(s.sum_s)),
                ("p50_s", num(s.p50_s)),
                ("p95_s", num(s.p95_s)),
                ("p99_s", num(s.p99_s)),
                ("alloc_count", int(s.alloc_count)),
                ("alloc_bytes", int(s.alloc_bytes)),
            ])
        };
        let figure = |f: &FigurePerf| {
            Json::obj([
                ("name", Json::Str(f.name.clone())),
                ("wall_s", num(f.wall_s)),
                ("rows", int(f.rows as u64)),
                ("stages", Json::Arr(f.stages.iter().map(stage).collect())),
            ])
        };
        let mut out = Json::obj([
            ("schema", Json::Str(PERF_SCHEMA.into())),
            ("sha", Json::Str(self.sha.clone())),
            ("mode", Json::Str(self.mode.clone())),
            ("trials", int(self.trials as u64)),
            ("bits", int(self.bits as u64)),
            ("seed", int(self.seed)),
            ("total_wall_s", num(self.total_wall_s())),
            ("figures", Json::Arr(self.figures.iter().map(figure).collect())),
        ])
        .render();
        out.push('\n');
        out
    }

    /// Parses the JSON text of a `BENCH_<sha>.json` file.
    pub fn parse(text: &str) -> Result<BenchSnapshot, String> {
        fn items<'a>(o: &'a Json, key: &str) -> &'a [Json] {
            o.get(key).and_then(Json::as_arr).unwrap_or(&[])
        }
        let int = |o: &Json, key: &str| o.u64_field(key).unwrap_or(0);
        let num = |o: &Json, key: &str| o.f64_field(key).unwrap_or(0.0);
        let named = |o: &Json, what: &str| match o.str_field("name") {
            Some(n) => Ok(n.to_string()),
            None => Err(format!("{what} without name")),
        };
        let v = Json::parse(text).map_err(|e| e.to_string())?;
        let schema = v.str_field("schema").unwrap_or("");
        if schema != PERF_SCHEMA {
            return Err(format!(
                "unsupported perf snapshot schema {schema:?} (expected {PERF_SCHEMA:?})"
            ));
        }
        let mut figures = Vec::new();
        for f in items(&v, "figures") {
            let name = named(f, "figure")?;
            let mut stages = Vec::new();
            for s in items(f, "stages") {
                stages.push(StagePerf {
                    name: named(s, "stage")?,
                    count: int(s, "count"),
                    sum_s: num(s, "sum_s"),
                    p50_s: num(s, "p50_s"),
                    p95_s: num(s, "p95_s"),
                    p99_s: num(s, "p99_s"),
                    alloc_count: int(s, "alloc_count"),
                    alloc_bytes: int(s, "alloc_bytes"),
                });
            }
            figures.push(FigurePerf {
                name,
                wall_s: num(f, "wall_s"),
                rows: int(f, "rows") as usize,
                stages,
            });
        }
        Ok(BenchSnapshot {
            sha: v.str_field("sha").unwrap_or("unknown").to_string(),
            mode: v.str_field("mode").unwrap_or("unknown").to_string(),
            trials: int(&v, "trials") as usize,
            bits: int(&v, "bits") as usize,
            seed: int(&v, "seed"),
            figures,
        })
    }

    /// Writes the snapshot to `path`, creating parent directories.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent)?;
            }
        }
        std::fs::write(path, self.to_json())
    }
}
