//! The `profile` subcommand: render a run's allocation profile.
//!
//! Input is a `metrics.json` snapshot whose `alloc` section was produced
//! by `vab_obs::alloc` under `VAB_PROFILE=1`. The table shows, per
//! stage: calls, *self* allocations/bytes (the stage minus its
//! children), *cumulative* allocations/bytes (children included), and
//! allocations per call — the number the hot-path pass drives toward
//! zero. Stages sort by self bytes, worst first, so the top of the table
//! is the offender list.

use std::fmt::Write as _;

use vab_obs::alloc::AllocStageSnapshot;
use vab_obs::metrics::Snapshot;

/// Human-readable byte count (base-1024 units, one decimal).
pub fn human_bytes(n: u64) -> String {
    const UNITS: [&str; 5] = ["B", "KiB", "MiB", "GiB", "TiB"];
    let mut v = n as f64;
    let mut unit = 0;
    while v >= 1024.0 && unit + 1 < UNITS.len() {
        v /= 1024.0;
        unit += 1;
    }
    if unit == 0 {
        format!("{n} B")
    } else {
        format!("{v:.1} {}", UNITS[unit])
    }
}

/// Renders the allocation profile of `doc`, listing at most `top`
/// stages (0 = all). Errors when the snapshot carries no `alloc`
/// section — the run was not profiled.
pub fn render(doc: &Snapshot, top: usize) -> Result<String, String> {
    let totals = doc
        .alloc_totals
        .as_ref()
        .ok_or("snapshot has no alloc section (run with VAB_PROFILE=1)")?;
    let mut out = String::with_capacity(2048);
    let _ = writeln!(
        out,
        "allocation profile: {} allocs / {} frees, {} allocated, peak live {}",
        totals.allocs,
        totals.frees,
        human_bytes(totals.bytes_allocated),
        human_bytes(totals.peak_live_bytes),
    );
    let mut stages: Vec<&AllocStageSnapshot> =
        doc.alloc_stages.iter().filter(|s| s.cum_allocs > 0 || s.calls > 0).collect();
    if stages.is_empty() {
        out.push_str("no stage recorded any allocation\n");
        return Ok(out);
    }
    // Worst self-bytes first; ties break by name so output is stable.
    stages.sort_by(|a, b| b.self_bytes.cmp(&a.self_bytes).then_with(|| a.name.cmp(&b.name)));
    let shown = if top > 0 { top.min(stages.len()) } else { stages.len() };
    let _ = writeln!(
        out,
        "{:<26} {:>10} {:>12} {:>12} {:>12} {:>12} {:>12}",
        "stage", "calls", "self allocs", "self bytes", "cum allocs", "cum bytes", "allocs/call"
    );
    for s in &stages[..shown] {
        let per_call = if s.calls > 0 { s.self_allocs as f64 / s.calls as f64 } else { 0.0 };
        let _ = writeln!(
            out,
            "{:<26} {:>10} {:>12} {:>12} {:>12} {:>12} {:>12.2}",
            s.name, s.calls, s.self_allocs, s.self_bytes, s.cum_allocs, s.cum_bytes, per_call
        );
    }
    if shown < stages.len() {
        let _ =
            writeln!(out, "... {} more stage(s); raise --top to see them", stages.len() - shown);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn doc() -> Snapshot {
        Snapshot::parse(
            r#"{
  "counters": {}, "gauges": {}, "histograms": [], "stages": [],
  "alloc": {
    "allocs": 1000, "frees": 990, "bytes_allocated": 65536,
    "bytes_freed": 60000, "live_bytes": 5536, "peak_live_bytes": 32768,
    "stages": [
      {"name":"fec.viterbi","calls":10,"self_allocs":600,"self_bytes":40000,"cum_allocs":600,"cum_bytes":40000},
      {"name":"sim.demod","calls":20,"self_allocs":400,"self_bytes":20000,"cum_allocs":1000,"cum_bytes":60000}
    ]
  }
}"#,
        )
        .expect("doc parses")
    }

    #[test]
    fn renders_offenders_worst_self_bytes_first() {
        let text = render(&doc(), 0).expect("render");
        let viterbi = text.find("fec.viterbi").expect("viterbi listed");
        let demod = text.find("sim.demod").expect("demod listed");
        assert!(viterbi < demod, "worst self-bytes stage must lead:\n{text}");
        assert!(text.contains("1000 allocs / 990 frees"), "{text}");
        assert!(text.contains("64.0 KiB"), "{text}");
    }

    #[test]
    fn top_limits_the_table() {
        let text = render(&doc(), 1).expect("render");
        assert!(text.contains("fec.viterbi"));
        assert!(!text.contains("sim.demod"), "{text}");
        assert!(text.contains("1 more stage"), "{text}");
    }

    #[test]
    fn unprofiled_snapshot_is_an_error() {
        let doc = Snapshot::parse(r#"{"counters":{},"gauges":{},"histograms":[],"stages":[]}"#)
            .expect("parse");
        assert!(render(&doc, 0).is_err());
    }

    #[test]
    fn human_bytes_units() {
        assert_eq!(human_bytes(512), "512 B");
        assert_eq!(human_bytes(2048), "2.0 KiB");
        assert_eq!(human_bytes(3 * 1024 * 1024), "3.0 MiB");
    }
}
