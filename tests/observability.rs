//! Observability integration: instrumentation must be invisible to the
//! physics (bit-identical results, any thread count) while a faulted
//! workload under a JSONL sink yields the full cross-layer event record
//! the PR promises — fault activations, rate changes, ARQ retries,
//! brownouts — plus a metrics snapshot with per-stage timing.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, OnceLock};

use vab::fault::{FaultConfig, FaultPlan};
use vab::obs::sink::JsonlSink;
use vab::sim::baseline::SystemKind;
use vab::sim::campaign::{run_campaign, CampaignConfig};
use vab::sim::montecarlo::{try_run_point, GridPoint, MonteCarloConfig, TrialEngine};
use vab::sim::scenario::Scenario;
use vab::util::json::Json;
use vab::util::units::Meters;
use vab_bench::experiments::{f19_fault_sweep, ExpConfig};

/// The obs sink and registry are process-global; tests in this binary run
/// on parallel threads, so every test takes this lock and leaves obs
/// disabled on exit.
fn obs_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    match LOCK.get_or_init(|| Mutex::new(())).lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}

fn faulted_mc(threads: usize) -> MonteCarloConfig {
    MonteCarloConfig {
        trials: 96,
        bits_per_trial: 256,
        seed: 77,
        engine: TrialEngine::LinkBudget,
        threads,
    }
}

/// Bit-exact outcome of a faulted point. Eb/N0 means are excluded: shard
/// merge order changes float summation (1 thread vs 8) independently of
/// observability, while error counts are exact integers.
fn faulted_point(threads: usize) -> (u64, u64, Vec<u64>) {
    let s = Scenario::river(SystemKind::Vab { n_pairs: 4 }, Meters(260.0));
    let plan = FaultPlan::new(77, FaultConfig::with_intensity(0.6));
    let fe = s.front_end();
    let r = try_run_point(GridPoint::borrowed(&s, &fe).faulted(&plan), &faulted_mc(threads))
        .expect("no worker panic");
    let per_trial: Vec<u64> = r.trial_bers.iter().map(|b| (b * 256.0).round() as u64).collect();
    (r.ber.errors(), r.packet_errors, per_trial)
}

#[test]
fn instrumentation_is_bit_identical_across_sinks_and_threads() {
    let _g = obs_lock();
    vab::obs::disable();
    vab::obs::metrics::reset();
    let baseline_1t = faulted_point(1);
    let baseline_8t = faulted_point(8);
    assert_eq!(baseline_1t, baseline_8t, "faulted point must not depend on thread count");

    let dir = std::env::temp_dir().join("vab_obs_test");
    std::fs::create_dir_all(&dir).expect("mkdir");
    let path = dir.join("determinism.jsonl");
    vab::obs::install(Arc::new(JsonlSink::create(&path).expect("sink")));
    let traced_1t = faulted_point(1);
    let traced_8t = faulted_point(8);
    vab::obs::disable();

    assert_eq!(baseline_1t, traced_1t, "tracing must not perturb the physics");
    assert_eq!(baseline_1t, traced_8t, "tracing must stay thread-count independent");
}

#[test]
fn faulted_workload_trace_has_all_event_families_and_stage_metrics() {
    let _g = obs_lock();
    vab::obs::disable();
    vab::obs::metrics::reset();
    let dir = std::env::temp_dir().join("vab_obs_test");
    std::fs::create_dir_all(&dir).expect("mkdir");
    let path = dir.join("faulted.jsonl");
    vab::obs::install(Arc::new(JsonlSink::create(&path).expect("sink")));

    // A faulted campaign (deployment-level events) plus the F19 protocol
    // loop (MAC/ARQ events) — together the cross-layer workload the
    // acceptance trace describes.
    let campaign = CampaignConfig {
        n_trials: 150,
        faults: Some(FaultConfig::with_intensity(0.6)),
        ..CampaignConfig::vab_default()
    };
    let report = run_campaign(&campaign);
    assert_eq!(report.records.len(), 150);
    let table = f19_fault_sweep(&ExpConfig::quick());
    assert!(!table.is_empty());

    vab::obs::flush();
    vab::obs::disable();

    let trace = std::fs::read_to_string(&path).expect("trace");
    let mut kinds: BTreeMap<(String, String), usize> = BTreeMap::new();
    for (n, line) in trace.lines().enumerate() {
        let e = Json::parse(line).unwrap_or_else(|err| panic!("line {}: {err}: {line}", n + 1));
        for key in ["seq", "t_us", "target", "event", "fields"] {
            assert!(e.get(key).is_some(), "line {} missing {key:?}: {line}", n + 1);
        }
        let kind = |key| e.str_field(key).unwrap_or_default().to_string();
        *kinds.entry((kind("target"), kind("event"))).or_default() += 1;
    }
    let parsed: usize = kinds.values().sum();
    assert!(parsed > 200, "expected a substantial trace, got {parsed} lines");
    for (target, event) in [
        ("fault.plan", "fault_activated"),
        ("mac.rate_adapt", "rate_change"),
        ("link.arq", "retransmit"),
        ("sim.montecarlo", "brownout_truncated_reply"),
    ] {
        let kind = (target.to_string(), event.to_string());
        assert!(kinds.contains_key(&kind), "trace lacks {target}/{event}");
    }
    assert!(kinds.keys().any(|(_, event)| event == "deployment_done"), "campaign events missing");

    let snap = vab::obs::metrics::Snapshot::capture();
    assert!(
        snap.counters.iter().any(|(n, v)| n == "fault.activations" && *v > 0),
        "fault.activations counter missing: {:?}",
        snap.counters
    );
    assert!(
        snap.counters.iter().any(|(n, v)| n == "arq.retransmits" && *v > 0),
        "arq.retransmits counter missing"
    );
    let stages: Vec<&str> = snap.stages.iter().map(|h| h.name.as_str()).collect();
    assert!(
        stages.contains(&"sim.linkbudget_trial"),
        "stage histograms missing linkbudget trial: {stages:?}"
    );
    for h in &snap.stages {
        assert_eq!(h.buckets.len(), h.bounds.len() + 1);
        assert_eq!(h.buckets.iter().sum::<u64>(), h.count, "{} bucket sum", h.name);
    }
    let json = snap.to_json();
    assert!(json.contains("\"stages\""));
    let summary = snap.stage_summary().expect("stage summary");
    assert!(summary.contains("sim.linkbudget_trial"));
}

#[test]
fn disabled_observability_skips_sink_and_registry() {
    let _g = obs_lock();
    vab::obs::disable();
    vab::obs::metrics::reset();
    let _ = faulted_point(1);
    // Span sites must be equally silent: a scope entered while disabled
    // records nothing (one relaxed atomic, no Instant, no id derivation),
    // and the cross-thread begin/end functions are no-ops.
    let root = vab::obs::TraceContext::root(0xd15a_b1ed, "job");
    {
        let scope = vab::obs::SpanScope::enter("svc.test", "svc.disabled_probe", &root);
        assert!(!scope.is_recording(), "disabled scope must not record");
        assert_eq!(scope.ctx(), root, "disabled scope echoes its parent context");
    }
    vab::obs::span_begin("svc.test", "svc.disabled_probe", &root);
    vab::obs::span_end(
        "svc.test",
        "svc.disabled_probe",
        &root,
        std::time::Duration::from_millis(3),
    );
    let snap = vab::obs::metrics::Snapshot::capture();
    assert!(
        snap.counters.iter().all(|(_, v)| *v == 0),
        "counters must stay silent when disabled: {:?}",
        snap.counters
    );
    assert!(
        snap.stages.iter().all(|h| h.count == 0),
        "stage timers and span scopes must stay silent when disabled: {:?}",
        snap.stages.iter().filter(|h| h.count > 0).map(|h| &h.name).collect::<Vec<_>>()
    );
    // The allocation profiler must be equally silent when off: the global
    // allocator's fast path is one relaxed load, so a profiling-off
    // workload leaves every alloc counter at zero and attributes nothing
    // to any stage.
    assert!(!vab::obs::alloc::profiling(), "VAB_PROFILE must not leak into this test");
    vab::obs::alloc::reset();
    let _ = faulted_point(2);
    let totals = vab::obs::alloc::totals();
    assert_eq!(
        (totals.allocs, totals.frees, totals.bytes_allocated, totals.peak_live_bytes),
        (0, 0, 0, 0),
        "alloc counters must stay silent when profiling is off: {totals:?}"
    );
    assert!(
        vab::obs::alloc::snapshot_stages().iter().all(|s| s.calls == 0 && s.cum_allocs == 0),
        "no stage may record allocations while profiling is off"
    );
    assert!(snap.alloc_totals.is_none(), "metrics snapshots must omit the alloc section");
}
