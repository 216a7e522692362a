//! End-to-end tests for the `vab-obsctl` binary against the committed
//! golden fixtures (`tests/fixtures/` at the repo root, regenerated by
//! the `gen_golden_trace` example).
//!
//! These prove the whole chain: a real `VAB_OBS=jsonl` trace from the
//! stack → parser → report/anomaly/gate analyses → the exit
//! codes CI keys off (0 clean, 1 regression, 2 usage error).

use std::path::PathBuf;
use std::process::{Command, Output};

use vab_obsctl::gate::{AllocPin, Gate};

fn fixture(name: &str) -> PathBuf {
    PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/../../tests/fixtures")).join(name)
}

fn obsctl(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_vab-obsctl")).args(args).output().expect("spawn vab-obsctl")
}

fn stdout(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

fn tmp_path(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("vab_obsctl_cli");
    std::fs::create_dir_all(&dir).expect("tmp dir");
    dir.join(name)
}

#[test]
fn report_round_trips_golden_fixture() {
    let out = obsctl(&[
        "report",
        fixture("golden_trace.jsonl").to_str().expect("path"),
        fixture("golden_metrics.json").to_str().expect("path"),
    ]);
    assert!(out.status.success(), "stderr: {}", stderr(&out));
    let text = stdout(&out);
    for section in [
        "event rates:",
        "trial timelines:",
        "stage latency percentiles:",
        "stage tree",
        "counters:",
    ] {
        assert!(text.contains(section), "report missing {section:?}:\n{text}");
    }
    // The fixture's planted cross-layer signatures all surface.
    for family in ["fault.plan.fault_activated", "link.arq.retransmit", "harvest.pmu.brownout"] {
        assert!(text.contains(family), "report missing family {family}:\n{text}");
    }
}

#[test]
fn report_without_metrics_still_succeeds() {
    let out = obsctl(&["report", fixture("golden_trace.jsonl").to_str().expect("path")]);
    assert!(out.status.success(), "stderr: {}", stderr(&out));
    assert!(stdout(&out).contains("no metrics snapshot given"));
}

#[test]
fn report_tolerates_truncated_final_line() {
    // A writer killed mid-record leaves a half-written last line; the
    // parser must warn and carry on, not die.
    let full = std::fs::read_to_string(fixture("golden_trace.jsonl")).expect("fixture");
    let cut = &full[..full.len() - 25];
    assert!(!cut.ends_with('}'), "test setup: tail must be mid-record");
    let path = tmp_path("truncated.jsonl");
    std::fs::write(&path, cut).expect("write truncated");

    let out = obsctl(&["report", path.to_str().expect("path")]);
    assert!(out.status.success(), "stderr: {}", stderr(&out));
    assert!(stderr(&out).contains("truncated"), "no truncation warning: {}", stderr(&out));
    assert!(stdout(&out).contains("trial timelines:"));
}

#[test]
fn anomalies_finds_planted_signatures() {
    let out = obsctl(&["anomalies", fixture("golden_trace.jsonl").to_str().expect("path")]);
    assert!(out.status.success(), "stderr: {}", stderr(&out));
    let text = stdout(&out);
    // The generator plants one of each signature class.
    for label in
        ["BER spike", "ARQ retransmit storm", "brownout cascade", "silence/re-inventory burst"]
    {
        assert!(text.contains(label), "anomalies missing {label:?}:\n{text}");
    }
    // Context windows mark the involved events.
    assert!(text.contains("> #"), "no context markers:\n{text}");
}

#[test]
fn gate_timing_plane_write_check_and_regression() {
    let gate_path = tmp_path("gate_timing.json");
    std::fs::remove_file(&gate_path).ok();
    let small = fixture("bench_small.json");

    // --write pins the reference from a traced (timing-only) snapshot...
    let out = obsctl(&[
        "gate",
        small.to_str().expect("path"),
        "--baseline",
        gate_path.to_str().expect("path"),
        "--write",
    ]);
    assert!(out.status.success(), "stderr: {}", stderr(&out));
    // ...tightened in the file, where the tolerance lives...
    let written = std::fs::read_to_string(&gate_path).expect("gate written");
    assert!(written.contains("\"schema\": \"vab-gate/1\""), "{written}");
    std::fs::write(&gate_path, written.replace("\"tolerance\": 0.5", "\"tolerance\": 0.2"))
        .expect("tighten");

    // ...the same run gates clean...
    let out = obsctl(&[
        "gate",
        small.to_str().expect("path"),
        "--baseline",
        gate_path.to_str().expect("path"),
    ]);
    assert!(out.status.success(), "stdout: {}", stdout(&out));
    assert!(stdout(&out).contains("gate passed (timing)"), "{}", stdout(&out));

    // ...and a run where one figure blew up its share fails the gate.
    let out = obsctl(&[
        "gate",
        fixture("bench_small_regressed.json").to_str().expect("path"),
        "--baseline",
        gate_path.to_str().expect("path"),
    ]);
    assert_eq!(out.status.code(), Some(1), "stdout: {}", stdout(&out));
    assert!(stdout(&out).contains("gate FAILED (timing)"), "{}", stdout(&out));
}

#[test]
fn committed_gate_parses_and_is_quick_mode() {
    // CI gates quick-mode fleet runs against crates/bench/gate.json; the
    // file must parse, carry both planes, and be a fixed point of the
    // writer (so `--write` diffs show only what moved).
    let committed = PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/../bench/gate.json"));
    let text = std::fs::read_to_string(&committed).expect("committed gate");
    let gate = Gate::parse(&text).expect("committed gate parses");
    assert_eq!(gate.mode, "quick", "CI gates quick mode");
    assert!(gate.figures.iter().any(|f| f.share.is_some()), "timing plane pinned");
    assert!(gate.figures.iter().any(|f| !f.alloc.is_empty()), "alloc plane pinned");
    assert!(!gate.stages.is_empty(), "stage shares pinned");
    assert_eq!(gate.to_json(), text, "committed gate is in canonical form");
}

#[test]
fn gate_alloc_plane_write_check_and_synthetic_regression() {
    let gate_path = tmp_path("gate_alloc.json");
    std::fs::remove_file(&gate_path).ok();
    let profiled = fixture("bench_profiled.json");

    // --write pins both planes from a traced and profiled snapshot...
    let out = obsctl(&[
        "gate",
        profiled.to_str().expect("path"),
        "--baseline",
        gate_path.to_str().expect("path"),
        "--write",
    ]);
    assert!(out.status.success(), "stderr: {}", stderr(&out));

    // ...the same snapshot gates clean...
    let out = obsctl(&[
        "gate",
        profiled.to_str().expect("path"),
        "--baseline",
        gate_path.to_str().expect("path"),
    ]);
    assert!(out.status.success(), "stdout: {}", stdout(&out));
    assert!(stdout(&out).contains("gate passed (timing + alloc)"), "{}", stdout(&out));

    // ...and a +10% allocation-count regression in one stage exits 1.
    let text = std::fs::read_to_string(&profiled).expect("fixture");
    let regressed_text = text.replace("\"alloc_count\": 1000", "\"alloc_count\": 1100");
    assert_ne!(text, regressed_text, "fixture must contain the pinned count");
    let regressed = tmp_path("bench_profiled_regressed.json");
    std::fs::write(&regressed, regressed_text).expect("write regressed");
    let out = obsctl(&[
        "gate",
        regressed.to_str().expect("path"),
        "--baseline",
        gate_path.to_str().expect("path"),
    ]);
    assert_eq!(out.status.code(), Some(1), "stdout: {}", stdout(&out));
    let text = stdout(&out);
    assert!(text.contains("gate FAILED"), "{text}");
    assert!(text.contains("f7_ber_vs_range/sim.linkbudget_trial"), "{text}");
    assert!(text.contains("drift"), "{text}");

    // An unprofiled snapshot re-pins timing only: the alloc pins survive.
    let before = Gate::load(&gate_path).expect("gate");
    let out = obsctl(&[
        "gate",
        fixture("bench_small.json").to_str().expect("path"),
        "--baseline",
        gate_path.to_str().expect("path"),
        "--write",
    ]);
    assert!(out.status.success(), "stderr: {}", stderr(&out));
    assert!(stdout(&out).contains("alloc: kept"), "{}", stdout(&out));
    let after = Gate::load(&gate_path).expect("gate");
    let pins = |g: &Gate| -> Vec<(String, Vec<AllocPin>)> {
        g.figures
            .iter()
            .filter(|f| !f.alloc.is_empty())
            .map(|f| (f.name.clone(), f.alloc.clone()))
            .collect()
    };
    assert_eq!(pins(&after), pins(&before));
}

#[test]
fn gate_rejects_snapshots_it_cannot_check() {
    let committed = concat!(env!("CARGO_MANIFEST_DIR"), "/../bench/gate.json");
    // A snapshot with no stage data (an untraced, unprofiled run)...
    let bare = tmp_path("bench_bare.json");
    std::fs::write(
        &bare,
        r#"{"schema": "vab-bench-perf/1", "sha": "788a53d", "mode": "full", "total_wall_s": 1.7,
  "figures": [{"name": "fn3_capacity_scaling", "wall_s": 1.7, "rows": 5, "stages": []}]}"#,
    )
    .expect("write");
    let out = obsctl(&["gate", bare.to_str().expect("path"), "--baseline", committed]);
    assert_eq!(out.status.code(), Some(2), "stdout: {}", stdout(&out));
    assert!(stderr(&out).contains("VAB_PROFILE=1"), "{}", stderr(&out));

    // ...and one keyed by names the reference does not know are input
    // errors: either would otherwise pass while checking nothing.
    let foreign = tmp_path("bench_foreign.json");
    std::fs::write(
        &foreign,
        r#"{"schema": "vab-bench-perf/1", "sha": "x", "mode": "quick", "total_wall_s": 4.5,
  "figures": [{"name": "FR1", "wall_s": 4.5, "rows": 6, "stages": [
    {"name": "replay.apply", "count": 20, "sum_s": 0.0, "alloc_count": 63, "alloc_bytes": 2947584}]}]}"#,
    )
    .expect("write");
    let out = obsctl(&["gate", foreign.to_str().expect("path"), "--baseline", committed]);
    assert_eq!(out.status.code(), Some(2), "stdout: {}", stdout(&out));
    assert!(stderr(&out).contains("shares no figure"), "{}", stderr(&out));

    // The retired flags are usage errors now.
    let small = fixture("bench_small.json");
    for flag in ["--absolute", "--tolerance"] {
        let out = obsctl(&["gate", small.to_str().expect("path"), flag]);
        assert_eq!(out.status.code(), Some(2), "{flag}: {}", stderr(&out));
    }
}

#[test]
fn profile_renders_offender_table_from_profiled_metrics() {
    // A metrics snapshot with an alloc section, as `VAB_PROFILE=1` writes.
    let metrics = tmp_path("profiled_metrics.json");
    std::fs::write(
        &metrics,
        r#"{"counters":{},"gauges":{},"histograms":[],"stages":[],
  "alloc":{"allocs":4500,"frees":4400,"bytes_allocated":1800000,"bytes_freed":1700000,
           "live_bytes":100000,"peak_live_bytes":900000,
           "stages":[
             {"name":"sim.channel_realization","calls":250,"self_allocs":3500,"self_bytes":1120000,"cum_allocs":3500,"cum_bytes":1120000},
             {"name":"sim.linkbudget_trial","calls":250,"self_allocs":1000,"self_bytes":512000,"cum_allocs":4500,"cum_bytes":1632000}]}}"#,
    )
    .expect("write metrics");
    let out = obsctl(&["profile", metrics.to_str().expect("path")]);
    assert!(out.status.success(), "stderr: {}", stderr(&out));
    let text = stdout(&out);
    assert!(text.contains("allocation profile: 4500 allocs"), "{text}");
    let chan = text.find("sim.channel_realization").expect("worst offender listed");
    let trial = text.find("sim.linkbudget_trial").expect("trial listed");
    assert!(chan < trial, "worst self-bytes first:\n{text}");
    // --top truncates; an unprofiled snapshot is an input error.
    let out = obsctl(&["profile", metrics.to_str().expect("path"), "--top", "1"]);
    assert!(stdout(&out).contains("1 more stage"), "{}", stdout(&out));
    let out = obsctl(&["profile", fixture("golden_metrics.json").to_str().expect("path")]);
    assert_eq!(out.status.code(), Some(2));
    assert!(stderr(&out).contains("VAB_PROFILE=1"), "{}", stderr(&out));
}

#[test]
fn flame_matches_golden_collapsed_stacks() {
    let out = obsctl(&["flame", fixture("flame_trace.jsonl").to_str().expect("path")]);
    assert!(out.status.success(), "stderr: {}", stderr(&out));
    let golden = std::fs::read_to_string(fixture("flame_collapsed.txt")).expect("golden");
    assert_eq!(stdout(&out), golden, "collapsed output must match the golden fixture");

    // Allocation weighting and trace filtering change the fold.
    let out = obsctl(&[
        "flame",
        fixture("flame_trace.jsonl").to_str().expect("path"),
        "--weight",
        "allocs",
        "--job",
        "aa",
    ]);
    assert!(out.status.success(), "stderr: {}", stderr(&out));
    let text = stdout(&out);
    assert!(text.contains("svc.handle;svc.job_execute;sim.montecarlo 20"), "{text}");
    assert!(!text.contains("run_campaign"), "id-less spans drop under --job: {text}");

    // Unknown weight and an empty filter are errors.
    let out = obsctl(&[
        "flame",
        fixture("flame_trace.jsonl").to_str().expect("path"),
        "--weight",
        "flops",
    ]);
    assert_eq!(out.status.code(), Some(2));
    let out =
        obsctl(&["flame", fixture("flame_trace.jsonl").to_str().expect("path"), "--job", "dead"]);
    assert_eq!(out.status.code(), Some(2));
}

#[test]
fn slo_emits_machine_readable_json() {
    let sample = tmp_path("slo_sample.json");
    std::fs::write(
        &sample,
        r#"{"tick":3,"t_ms":1500.0,"queue_depth":0,"jobs_done":7,"jobs_failed":0,
           "cache":{"hits":3,"misses":1,"hit_rate":0.75},
           "stages":{"svc.job_execute":{"count":4,"p50_ms":10.0,"p95_ms":20.0,"p99_ms":25.0}}}"#,
    )
    .expect("write sample");
    let spec = PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/../bench/slo.json"));
    let out = obsctl(&[
        "slo",
        "--spec",
        spec.to_str().expect("path"),
        "--sample",
        sample.to_str().expect("path"),
        "--json",
    ]);
    assert!(out.status.success(), "stderr: {}", stderr(&out));
    // Stdout is one JSON document (no human summary mixed in), and its
    // verdict agrees with the exit status.
    let text = stdout(&out);
    let doc = vab_util::json::Json::parse(&text).expect("stdout is one JSON document");
    assert_eq!(doc.u64_field("breaches"), Some(0), "{text}");
    let checks = doc.get("checks").and_then(|c| c.as_arr()).expect("checks array");
    assert!(!checks.is_empty(), "{text}");
    assert_eq!(doc.u64_field("objectives"), Some(checks.len() as u64), "{text}");
    assert!(checks.iter().all(|c| c.bool_field("pass").is_some()), "every pass is a bool: {text}");
}

#[test]
fn usage_errors_exit_two() {
    for args in [
        &[][..],
        &["frobnicate"][..],
        &["report"][..],
        &["diff", "only-one.json"][..],
        &["diff", "a.json", "b.json"][..],
        &["bench", "history"][..],
        &["anomalies", "x.jsonl", "--context"][..],
    ] {
        let out = obsctl(args);
        assert_eq!(out.status.code(), Some(2), "args {args:?}: {}", stderr(&out));
    }
    // Missing input files are input errors, also exit 2 (not a panic).
    let out = obsctl(&["report", "/nonexistent/trace.jsonl"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(stderr(&out).contains("error:"));
}
