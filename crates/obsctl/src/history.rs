//! The `bench history` subcommand: list and compare the
//! `results/BENCH_<sha>.json` trajectory.
//!
//! Every `run_all` appends a perf snapshot named after the git revision,
//! so `results/` accumulates a wall-time history of the repo. This
//! module orders those snapshots (by file modification time — shas are
//! not ordered) and renders the trajectory: one line per snapshot with
//! total wall time, figure count, allocation totals when the run was
//! profiled, and the wall-time delta against the previous snapshot of
//! the *same mode* (quick-vs-full deltas are meaningless).
//!
//! EXPERIMENTS.md documents the retention policy this listing supports:
//! keep the newest snapshot per mode plus anything `gate --write` was
//! run on; prune the rest once the trajectory has been inspected.

use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::time::SystemTime;

use crate::gate::BenchDoc;

/// One snapshot in the trajectory.
#[derive(Debug, Clone)]
pub struct HistoryEntry {
    /// File path the snapshot was read from.
    pub path: PathBuf,
    /// Modification time (ordering key).
    pub mtime: SystemTime,
    /// The parsed snapshot.
    pub doc: BenchDoc,
}

impl HistoryEntry {
    /// Total self-attributed allocations across all figures, when the
    /// run was profiled (`None` otherwise).
    pub fn total_allocs(&self) -> Option<u64> {
        let total: u64 =
            self.doc.figures.iter().flat_map(|f| f.alloc.iter()).map(|a| a.alloc_count).sum();
        (total > 0).then_some(total)
    }
}

/// Scans `dir` for `BENCH_*.json` snapshots, oldest first. Unparseable
/// files are skipped with their name recorded in the second element.
pub fn scan(dir: &Path) -> Result<(Vec<HistoryEntry>, Vec<String>), String> {
    let entries =
        std::fs::read_dir(dir).map_err(|e| format!("cannot read {}: {e}", dir.display()))?;
    let mut history = Vec::new();
    let mut skipped = Vec::new();
    for entry in entries.flatten() {
        let path = entry.path();
        let name = entry.file_name().to_string_lossy().into_owned();
        if !name.starts_with("BENCH_") || !name.ends_with(".json") {
            continue;
        }
        match BenchDoc::load(&path) {
            Ok(doc) => {
                let mtime =
                    entry.metadata().and_then(|m| m.modified()).unwrap_or(SystemTime::UNIX_EPOCH);
                history.push(HistoryEntry { path, mtime, doc });
            }
            Err(_) => skipped.push(name),
        }
    }
    // Oldest first; ties (same-second writes) break by filename so the
    // listing is deterministic.
    history.sort_by(|a, b| a.mtime.cmp(&b.mtime).then_with(|| a.path.cmp(&b.path)));
    skipped.sort();
    Ok((history, skipped))
}

/// Renders the trajectory table. `mode_filter` restricts to one mode.
pub fn render(history: &[HistoryEntry], skipped: &[String], mode_filter: Option<&str>) -> String {
    let shown: Vec<&HistoryEntry> =
        history.iter().filter(|e| mode_filter.is_none_or(|m| e.doc.mode == m)).collect();
    let mut out = String::with_capacity(1024);
    if shown.is_empty() {
        let _ = writeln!(
            out,
            "no bench snapshots{}",
            mode_filter.map(|m| format!(" with mode {m:?}")).unwrap_or_default()
        );
        return out;
    }
    let _ = writeln!(
        out,
        "{:<14} {:<6} {:>12} {:>8} {:>12} {:>10}",
        "sha", "mode", "total_wall_s", "figures", "allocs", "delta"
    );
    // Wall-time delta vs the previous snapshot of the same mode.
    let mut last_by_mode: std::collections::BTreeMap<&str, &BenchDoc> = Default::default();
    let mut any_partial = false;
    for e in &shown {
        let delta = match last_by_mode.get(e.doc.mode.as_str()) {
            Some(prev) => {
                let (text, partial) = wall_delta(prev, &e.doc);
                any_partial |= partial;
                text
            }
            None => "-".to_string(),
        };
        last_by_mode.insert(e.doc.mode.as_str(), &e.doc);
        let allocs = e.total_allocs().map(|n| n.to_string()).unwrap_or_else(|| "-".into());
        let _ = writeln!(
            out,
            "{:<14} {:<6} {:>12.3} {:>8} {:>12} {:>10}",
            e.doc.sha,
            e.doc.mode,
            e.doc.total_wall_s,
            e.doc.figures.len(),
            allocs,
            delta
        );
    }
    let _ = writeln!(out, "{} snapshot(s), oldest first", shown.len());
    if any_partial {
        let _ = writeln!(
            out,
            "* figure sets differ between generations; delta covers shared figures only"
        );
    }
    for name in skipped {
        let _ = writeln!(out, "warning: skipped unparseable {name}");
    }
    out
}

/// Same-mode wall delta between consecutive snapshots, restricted to the
/// figures present in *both* generations — a figure appearing (or being
/// retired) mid-trajectory shifts `total_wall_s` without meaning a
/// perf regression, so whole-document totals would lie. Returns the
/// rendered delta and whether the comparison was partial (figure sets
/// differ; marked with `*` in the listing).
fn wall_delta(prev: &BenchDoc, cur: &BenchDoc) -> (String, bool) {
    let prev_names: std::collections::BTreeSet<&str> =
        prev.figures.iter().map(|f| f.name.as_str()).collect();
    let cur_names: std::collections::BTreeSet<&str> =
        cur.figures.iter().map(|f| f.name.as_str()).collect();
    let partial = prev_names != cur_names;
    let prev_sum: f64 =
        prev.figures.iter().filter(|f| cur_names.contains(f.name.as_str())).map(|f| f.wall_s).sum();
    let cur_sum: f64 =
        cur.figures.iter().filter(|f| prev_names.contains(f.name.as_str())).map(|f| f.wall_s).sum();
    if prev_sum <= 0.0 {
        return ("-".to_string(), partial);
    }
    let pct = 100.0 * (cur_sum - prev_sum) / prev_sum;
    (format!("{pct:+.1}%{}", if partial { "*" } else { "" }), partial)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn snapshot(sha: &str, mode: &str, wall: f64, allocs: u64) -> String {
        format!(
            r#"{{"schema": "vab-bench-perf/1", "sha": "{sha}", "mode": "{mode}",
  "trials": 25, "bits": 256, "seed": 2023, "total_wall_s": {wall},
  "figures": [{{"name": "f7_ber_vs_range", "wall_s": {wall}, "rows": 10, "stages": [
    {{"name": "sim.linkbudget_trial", "count": 10, "sum_s": 0.5, "p50_s": 0.01, "p95_s": 0.02, "p99_s": 0.03, "alloc_count": {allocs}, "alloc_bytes": 100}}]}}]}}"#
        )
    }

    fn write_history(dir: &Path) {
        // Write in trajectory order with explicit mtime spacing via
        // sequential writes (same-second ties break by filename).
        std::fs::write(dir.join("BENCH_aaa1.json"), snapshot("aaa1", "quick", 2.0, 500)).unwrap();
        std::fs::write(dir.join("BENCH_bbb2.json"), snapshot("bbb2", "quick", 3.0, 600)).unwrap();
        std::fs::write(dir.join("BENCH_ccc3.json"), snapshot("ccc3", "full", 30.0, 0)).unwrap();
        std::fs::write(dir.join("BENCH_ddd4.json"), "{broken").unwrap();
        std::fs::write(dir.join("metrics.json"), "{}").unwrap(); // ignored: not BENCH_*
    }

    #[test]
    fn scans_and_renders_the_trajectory() {
        let dir = std::env::temp_dir().join(format!("vab_hist_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        write_history(&dir);
        let (history, skipped) = scan(&dir).expect("scan");
        assert_eq!(history.len(), 3);
        assert_eq!(skipped, vec!["BENCH_ddd4.json".to_string()]);
        let text = render(&history, &skipped, None);
        assert!(text.contains("aaa1"), "{text}");
        assert!(text.contains("ccc3"), "{text}");
        // bbb2 is +50% over aaa1 within the quick mode; ccc3 (full) gets
        // no delta because it has no same-mode predecessor.
        assert!(text.contains("+50.0%"), "{text}");
        assert!(text.contains("skipped unparseable BENCH_ddd4.json"), "{text}");
        let quick_only = render(&history, &[], Some("quick"));
        assert!(!quick_only.contains("ccc3"), "{quick_only}");
        assert!(quick_only.contains("2 snapshot(s)"), "{quick_only}");
        // Profiled runs show alloc totals; unprofiled show "-".
        assert!(text.contains("500"), "{text}");
        std::fs::remove_dir_all(&dir).ok();
    }

    fn two_figure_snapshot(sha: &str, mode: &str, wall_a: f64, wall_b: f64) -> String {
        format!(
            r#"{{"schema": "vab-bench-perf/1", "sha": "{sha}", "mode": "{mode}",
  "trials": 25, "bits": 256, "seed": 2023, "total_wall_s": {},
  "figures": [
    {{"name": "f7_ber_vs_range", "wall_s": {wall_a}, "rows": 10, "stages": []}},
    {{"name": "fr1_replay_validation", "wall_s": {wall_b}, "rows": 8, "stages": []}}]}}"#,
            wall_a + wall_b
        )
    }

    #[test]
    fn a_new_figure_mid_trajectory_does_not_fake_a_regression() {
        let dir = std::env::temp_dir().join(format!("vab_hist_grow_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        // Generation 1 has one figure at 2 s; generation 2 adds a second
        // figure (10 s) while the shared figure stays at 2 s. The naive
        // whole-document delta would read +500%; the shared-figure delta
        // must read +0.0% and be flagged as partial.
        std::fs::write(dir.join("BENCH_aaa1.json"), snapshot("aaa1", "quick", 2.0, 0)).unwrap();
        std::fs::write(
            dir.join("BENCH_bbb2.json"),
            two_figure_snapshot("bbb2", "quick", 2.0, 10.0),
        )
        .unwrap();
        let (history, skipped) = scan(&dir).expect("scan");
        assert_eq!(history.len(), 2);
        let text = render(&history, &skipped, None);
        assert!(text.contains("+0.0%*"), "{text}");
        assert!(!text.contains("+500"), "{text}");
        assert!(text.contains("shared figures only"), "{text}");
        // The figure retiring again is equally tolerated (reverse order).
        let rev = render(&[history[1].clone(), history[0].clone()], &[], None);
        assert!(rev.contains("+0.0%*"), "{rev}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn empty_directory_renders_gracefully() {
        let dir = std::env::temp_dir().join(format!("vab_hist_empty_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let (history, skipped) = scan(&dir).expect("scan");
        assert!(history.is_empty());
        let text = render(&history, &skipped, Some("quick"));
        assert!(text.contains("no bench snapshots"), "{text}");
        std::fs::remove_dir_all(&dir).ok();
    }
}
