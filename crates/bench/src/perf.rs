//! Machine-readable performance snapshots: `results/BENCH_<sha>.json`.
//!
//! Every `run_all` folds each figure's wall-clock time, trial
//! configuration and per-stage timing deltas into a [`BenchSnapshot`] and
//! writes it next to the CSVs. The snapshot is the input to the
//! `vab-obsctl gate` regression gate and to `vab-obsctl bench history`, so the
//! schema is versioned (`vab-bench-perf/1`) and rendered by hand — the
//! bench crate stays free of JSON dependencies, like `vab-obs`.

use std::fmt::Write as _;
use std::path::{Path, PathBuf};

use vab_obs::metrics::Snapshot;

use crate::experiments::ExpConfig;

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

/// A whole run's perf snapshot, ready to serialize.
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

/// Resolves the git revision tag for snapshot filenames: `VAB_GIT_SHA`
/// when set (CI passes the exact revision), else `git rev-parse --short
/// HEAD`, else `local`. The tag is sanitized to `[0-9a-zA-Z._-]`.
pub fn git_sha() -> String {
    let raw = std::env::var("VAB_GIT_SHA").ok().filter(|s| !s.trim().is_empty()).or_else(|| {
        std::process::Command::new("git")
            .args(["rev-parse", "--short", "HEAD"])
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
    });
    let sha = raw.unwrap_or_default();
    let clean: String =
        sha.chars().filter(|c| c.is_ascii_alphanumeric() || matches!(c, '.' | '_' | '-')).collect();
    if clean.is_empty() {
        "local".to_string()
    } else {
        clean
    }
}

impl BenchSnapshot {
    /// Starts an empty snapshot for a run under `cfg`.
    pub fn new(cfg: &ExpConfig, quick: bool) -> Self {
        BenchSnapshot {
            sha: git_sha(),
            mode: if quick { "quick" } else { "full" }.to_string(),
            trials: cfg.trials,
            bits: cfg.bits,
            seed: cfg.seed,
            figures: Vec::new(),
        }
    }

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

    /// Renders the snapshot (pretty, stable key order).
    pub fn to_json(&self) -> String {
        fn jstr(out: &mut String, s: &str) {
            vab_obs::event::write_json_string(out, s);
        }
        let mut out = String::with_capacity(4096);
        let _ = write!(out, "{{\n  \"schema\": ");
        jstr(&mut out, PERF_SCHEMA);
        out.push_str(",\n  \"sha\": ");
        jstr(&mut out, &self.sha);
        out.push_str(",\n  \"mode\": ");
        jstr(&mut out, &self.mode);
        let _ = write!(
            out,
            ",\n  \"trials\": {},\n  \"bits\": {},\n  \"seed\": {},\n  \"total_wall_s\": {:?},\n  \"figures\": [",
            self.trials,
            self.bits,
            self.seed,
            self.total_wall_s()
        );
        for (i, f) in self.figures.iter().enumerate() {
            out.push_str(if i > 0 { ",\n    " } else { "\n    " });
            out.push_str("{\"name\": ");
            jstr(&mut out, &f.name);
            let _ =
                write!(out, ", \"wall_s\": {:?}, \"rows\": {}, \"stages\": [", f.wall_s, f.rows);
            for (j, s) in f.stages.iter().enumerate() {
                out.push_str(if j > 0 { ",\n      " } else { "\n      " });
                out.push_str("{\"name\": ");
                jstr(&mut out, &s.name);
                let _ = write!(
                    out,
                    ", \"count\": {}, \"sum_s\": {:?}, \"p50_s\": {:?}, \"p95_s\": {:?}, \"p99_s\": {:?}, \"alloc_count\": {}, \"alloc_bytes\": {}}}",
                    s.count, s.sum_s, s.p50_s, s.p95_s, s.p99_s, s.alloc_count, s.alloc_bytes
                );
            }
            out.push_str(if f.stages.is_empty() { "]}" } else { "\n    ]}" });
        }
        out.push_str(if self.figures.is_empty() { "]\n}" } else { "\n  ]\n}" });
        out.push('\n');
        out
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

#[cfg(test)]
mod tests {
    use super::*;
    use vab_obs::metrics::HistogramSnapshot;

    fn snap_with_stage() -> Snapshot {
        Snapshot {
            stages: vec![HistogramSnapshot {
                name: "sim.linkbudget_trial".into(),
                count: 10,
                sum: 0.5,
                bounds: vec![1e-3, 1e-2, 1e-1],
                buckets: vec![2, 6, 2, 0],
            }],
            ..Snapshot::default()
        }
    }

    #[test]
    fn snapshot_json_has_schema_figures_and_stages() {
        let cfg = ExpConfig::quick();
        let mut b = BenchSnapshot::new(&cfg, true);
        b.sha = "deadbeef".into();
        b.push_figure("f7_ber_vs_range", 1.25, 10, &snap_with_stage());
        b.push_figure("t2_power_budget", 0.01, 8, &Snapshot::default());
        let json = b.to_json();
        assert!(json.contains("\"schema\": \"vab-bench-perf/1\""), "json: {json}");
        assert!(json.contains("\"sha\": \"deadbeef\""));
        assert!(json.contains("\"name\": \"f7_ber_vs_range\""));
        assert!(json.contains("\"name\": \"sim.linkbudget_trial\""));
        assert!(json.contains("\"p95_s\":"));
        assert!((b.total_wall_s() - 1.26).abs() < 1e-12);
        assert_eq!(b.default_path(), PathBuf::from("results/BENCH_deadbeef.json"));
        let balance = |open: char, close: char| {
            json.chars().filter(|&c| c == open).count()
                == json.chars().filter(|&c| c == close).count()
        };
        assert!(balance('{', '}') && balance('[', ']'));
    }

    #[test]
    fn git_sha_is_filename_safe() {
        let sha = git_sha();
        assert!(!sha.is_empty());
        assert!(sha.chars().all(|c| c.is_ascii_alphanumeric() || matches!(c, '.' | '_' | '-')));
    }

    #[test]
    fn empty_stage_delta_yields_no_stage_entries() {
        let cfg = ExpConfig::quick();
        let mut b = BenchSnapshot::new(&cfg, false);
        b.push_figure("f6", 0.2, 9, &Snapshot::default());
        assert!(b.figures[0].stages.is_empty());
        assert_eq!(b.mode, "full");
    }
}
