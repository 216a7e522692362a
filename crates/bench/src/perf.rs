//! Run-level glue for the `results/BENCH_<sha>.json` perf snapshot.
//!
//! The snapshot type, its schema and its JSON live in
//! [`vab_obsctl::perf`], next to the `vab-obsctl gate` that reads it;
//! this module only stamps a run's header: the git revision and the
//! [`ExpConfig`] it ran under.

use vab_obsctl::perf::BenchSnapshot;

use crate::experiments::ExpConfig;

/// Resolves the git revision tag for snapshot filenames: `VAB_GIT_SHA`
/// when set (CI passes the exact revision), else `git rev-parse --short
/// HEAD`, else `local`. The tag is sanitized to `[0-9a-zA-Z._-]`.
fn git_sha() -> String {
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

/// Starts an empty snapshot for a run under `cfg`.
pub fn snapshot(cfg: &ExpConfig, quick: bool) -> BenchSnapshot {
    BenchSnapshot {
        sha: git_sha(),
        mode: if quick { "quick" } else { "full" }.to_string(),
        trials: cfg.trials,
        bits: cfg.bits,
        seed: cfg.seed,
        figures: Vec::new(),
    }
}

#[cfg(test)]
mod tests {
    use std::path::PathBuf;

    use super::*;
    use vab_obs::metrics::{HistogramSnapshot, Snapshot};

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
        let mut b = snapshot(&cfg, true);
        b.sha = "deadbeef".into();
        b.push_figure("f7_ber_vs_range", 1.25, 10, &snap_with_stage());
        b.push_figure("t2_power_budget", 0.01, 8, &Snapshot::default());
        let json = b.to_json();
        let v = vab_util::json::Json::parse(&json).expect("valid JSON");
        assert_eq!(v.str_field("schema"), Some(vab_obsctl::perf::PERF_SCHEMA));
        assert_eq!(v.f64_field("total_wall_s"), Some(b.total_wall_s()));
        let back = BenchSnapshot::parse(&json).expect("parses back");
        assert_eq!(back, b);
        assert_eq!(back.sha, "deadbeef");
        assert_eq!(
            (back.mode.as_str(), back.trials, back.bits, back.seed),
            ("quick", 25, 256, 2023)
        );
        let names: Vec<&str> = back.figures.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(names, ["f7_ber_vs_range", "t2_power_budget"]);
        let trial = &back.figures[0].stages[0];
        assert_eq!(
            (trial.name.as_str(), trial.count, trial.sum_s),
            ("sim.linkbudget_trial", 10, 0.5)
        );
        assert!(trial.p50_s > 0.0 && trial.p50_s <= trial.p95_s && trial.p95_s <= trial.p99_s);
        assert!(back.figures[1].stages.is_empty());
        assert!((b.total_wall_s() - 1.26).abs() < 1e-12);
        assert_eq!(b.default_path(), PathBuf::from("results/BENCH_deadbeef.json"));
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
        let mut b = snapshot(&cfg, false);
        b.push_figure("f6", 0.2, 9, &Snapshot::default());
        assert!(b.figures[0].stages.is_empty());
        assert_eq!(b.mode, "full");
    }
}
