//! Profiling-plane integration: allocation counts must be *work-derived*
//! — a fixed-seed workload attributes bit-identical per-stage allocation
//! counts at any worker count — and the collapsed-stack flame fold must
//! reproduce its golden fixture exactly. Together with the disabled-path
//! silence assertions in `tests/observability.rs`, these are the
//! contracts the CI alloc ratchet (`vab-obsctl gate`) stands on.

use std::collections::BTreeMap;
use std::sync::{Mutex, MutexGuard, OnceLock};

use vab::fault::{FaultConfig, FaultPlan};
use vab::sim::baseline::SystemKind;
use vab::sim::montecarlo::{run_point_faulted, MonteCarloConfig, TrialEngine};
use vab::sim::scenario::Scenario;
use vab::util::units::Meters;
use vab_obsctl::flame::{self, Weight};
use vab_obsctl::trace::Trace;

/// Allocation profiling is process-global (one `#[global_allocator]`),
/// so tests that enable/reset it serialize here and leave it disabled.
fn profile_lock() -> MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    match LOCK.get_or_init(|| Mutex::new(())).lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}

/// The fixed-seed faulted workload: 96 link-budget trials under fault
/// plan 77 — the same figure-shaped unit `tests/observability.rs` uses
/// for physics determinism, now profiled.
fn profiled_point(threads: usize) -> (u64, u64) {
    let s = Scenario::river(SystemKind::Vab { n_pairs: 4 }, Meters(260.0));
    let plan = FaultPlan::new(77, FaultConfig::with_intensity(0.6));
    let cfg = MonteCarloConfig {
        trials: 96,
        bits_per_trial: 256,
        seed: 77,
        engine: TrialEngine::LinkBudget,
        threads,
    };
    let r = run_point_faulted(&s, &cfg, &plan);
    (r.ber.errors(), r.packet_errors)
}

/// Per-stage counter snapshot keyed by stage name, restricted to stages
/// the workload actually drove (`calls > 0`).
fn stage_counts() -> BTreeMap<String, (u64, u64, u64, u64, u64)> {
    vab::obs::alloc::snapshot_stages()
        .into_iter()
        .filter(|s| s.calls > 0)
        .map(|s| {
            (s.name.to_string(), (s.calls, s.self_allocs, s.self_bytes, s.cum_allocs, s.cum_bytes))
        })
        .collect()
}

/// The tentpole acceptance contract: one worker or eight, a fixed-seed
/// figure attributes *exactly* the same allocation counts to each stage.
/// This is what lets `gate.json` pin counts instead of
/// tolerancing them.
#[test]
fn per_stage_alloc_counts_bit_identical_across_worker_counts() {
    let _g = profile_lock();
    let was_profiling = vab::obs::alloc::profiling();
    vab::obs::alloc::enable();
    vab::obs::alloc::reset();
    let physics_1 = profiled_point(1);
    let counts_1 = stage_counts();
    vab::obs::alloc::reset();
    let physics_8 = profiled_point(8);
    let counts_8 = stage_counts();
    if !was_profiling {
        vab::obs::alloc::disable();
    }
    assert_eq!(physics_1, physics_8, "physics must stay thread-count independent");
    assert!(
        counts_1.contains_key("sim.linkbudget_trial"),
        "trial stage must be attributed: {counts_1:?}"
    );
    assert!(
        counts_1.contains_key("sim.channel_realization"),
        "nested channel stage must be attributed: {counts_1:?}"
    );
    let trial = &counts_1["sim.linkbudget_trial"];
    // Lost trials (fault blackouts) never enter the trial stage, so the
    // call count is below 96 — but it is fault-plan-derived, so exact.
    assert!(trial.0 > 0 && trial.0 <= 96, "stage calls bounded by trials: {trial:?}");
    assert!(trial.3 > 0, "trials allocate (codec buffers): {trial:?}");
    assert!(
        trial.3 >= trial.1,
        "cumulative counts include children: self {} > cum {}",
        trial.1,
        trial.3
    );
    assert_eq!(
        counts_1, counts_8,
        "per-stage allocation profile must be bit-identical at 1 vs 8 workers"
    );
}

/// Profiling must also be *run*-deterministic: the same seed twice gives
/// the same profile, which is the property the exact-pin gate relies on
/// across CI runs.
#[test]
fn repeated_runs_yield_identical_profiles() {
    let _g = profile_lock();
    let was_profiling = vab::obs::alloc::profiling();
    vab::obs::alloc::enable();
    vab::obs::alloc::reset();
    let _ = profiled_point(4);
    let first = stage_counts();
    vab::obs::alloc::reset();
    let _ = profiled_point(4);
    let second = stage_counts();
    if !was_profiling {
        vab::obs::alloc::disable();
    }
    assert_eq!(first, second, "fixed seed must reproduce the exact allocation profile");
}

/// The soft Viterbi decoder allocates only its decision words and its
/// output, whatever the frame length: one call on 512 information bits
/// makes at most two allocations inside its `fec.viterbi` stage.
#[test]
fn soft_viterbi_makes_at_most_two_allocations_per_call() {
    let _g = profile_lock();
    let mut rng = vab::util::rng::seeded(512);
    let coded = vab::link::fec::conv_encode(&vab::util::rng::random_bits(&mut rng, 512));
    let soft: Vec<f64> = coded
        .iter()
        .map(|&b| if b { 1.0 } else { -1.0 } + 0.8 * vab::util::rng::gaussian(&mut rng))
        .collect();
    let was_profiling = vab::obs::alloc::profiling();
    vab::obs::alloc::enable();
    vab::obs::alloc::reset();
    let decoded = vab::link::fec::conv_decode_soft(&soft);
    let counts = stage_counts();
    if !was_profiling {
        vab::obs::alloc::disable();
    }
    assert_eq!(decoded.len(), 512);
    let (calls, _, _, cum_allocs, _) = counts["fec.viterbi"];
    assert_eq!(calls, 1, "{counts:?}");
    assert!(cum_allocs <= 2, "fec.viterbi made {cum_allocs} allocations on one 512-bit frame");
}

/// One link-budget trial on the VAB stack (whitening, convolutional FEC,
/// 8×16 interleaver, soft Viterbi) makes exactly 12 allocations. Six are
/// the trial's own: the info bits, the whitened bits and the interleaved
/// block on the way out, then the soft metrics, their deinterleaved copy
/// and the de-whitened bits on the way back. The FEC encoder makes one,
/// the decoder two and the fading draw's channel realization three. The
/// encode chain copies neither the info bits nor a padded block.
#[test]
fn link_budget_trial_allocates_a_pinned_count() {
    let _g = profile_lock();
    let s = Scenario::river(SystemKind::Vab { n_pairs: 4 }, Meters(300.0));
    let cfg = MonteCarloConfig {
        trials: 8,
        bits_per_trial: 512,
        seed: 19,
        engine: TrialEngine::LinkBudget,
        threads: 1,
    };
    let was_profiling = vab::obs::alloc::profiling();
    vab::obs::alloc::enable();
    vab::obs::alloc::reset();
    let _ = vab::sim::montecarlo::run_point(&s, &cfg);
    let counts = stage_counts();
    if !was_profiling {
        vab::obs::alloc::disable();
    }
    // (calls, self, cumulative) over the 8 trials.
    let allocs = |stage: &str| {
        let (calls, self_allocs, _, cum_allocs, _) = counts[stage];
        (calls, self_allocs, cum_allocs)
    };
    assert_eq!(allocs("sim.linkbudget_trial"), (8, 8 * 6, 8 * 12), "{counts:?}");
    assert_eq!(allocs("fec.encode"), (8, 8, 8), "{counts:?}");
    assert_eq!(allocs("fec.viterbi"), (8, 8 * 2, 8 * 2), "{counts:?}");
    assert_eq!(allocs("sim.channel_realization"), (8, 8 * 3, 8 * 3), "{counts:?}");
}

/// A replay channel allocates only its output vector, from the first call
/// on: one `replay.apply` on a waveform that runs far past the bank's last
/// snapshot makes exactly one allocation.
#[test]
fn replay_apply_allocates_only_its_output() {
    use vab::util::complex::C64;
    let _g = profile_lock();
    let snaps: Vec<Vec<C64>> = (0..3)
        .map(|s| (0..200).map(|i| C64::new((i as f64 * 0.1 + s as f64).cos(), 0.1)).collect())
        .collect();
    // 0.2 s of bank, 2 s of waveform.
    let mut ch = vab_replay::ReplayChannel::new(&snaps, 0.1, 1000.0, 0.03);
    let x: Vec<C64> = (0..2000).map(|i| C64::cis(i as f64 * 0.2)).collect();
    let was_profiling = vab::obs::alloc::profiling();
    vab::obs::alloc::enable();
    vab::obs::alloc::reset();
    let y = ch.apply(&x);
    let counts = stage_counts();
    if !was_profiling {
        vab::obs::alloc::disable();
    }
    assert_eq!(y.len(), x.len() + 199);
    let (calls, _, _, cum_allocs, _) = counts["replay.apply"];
    assert_eq!(calls, 1, "{counts:?}");
    assert_eq!(cum_allocs, 1, "replay.apply made {cum_allocs} allocations: {counts:?}");
}

/// One sample-level trial makes exactly 4 allocations while it transports
/// the waveform and exactly 8 while it strips the carrier, acquires the
/// preamble and demodulates: the per-call counts behind `gate.json`'s
/// `f16_engine_validation` pins (80 and 160 over 20 calls). Acquisition's
/// split re/im scratch buffer is one of the 8, so a scratch that grew per
/// block or per offset would show here.
#[test]
fn sample_level_trial_allocates_a_pinned_count_per_stage() {
    let _g = profile_lock();
    let s = Scenario::river(SystemKind::Vab { n_pairs: 4 }, Meters(260.0))
        .with_link(vab::link::frame::LinkConfig::uncoded());
    let fe = s.front_end();
    let mut rng = vab::util::rng::seeded(16);
    let was_profiling = vab::obs::alloc::profiling();
    vab::obs::alloc::enable();
    vab::obs::alloc::reset();
    let _ = vab::sim::samplelevel::run_sample_trial(&s, &fe, 64, &mut rng);
    let counts = stage_counts();
    if !was_profiling {
        vab::obs::alloc::disable();
    }
    let allocs = |stage: &str| {
        let (calls, self_allocs, _, cum_allocs, _) = counts[stage];
        (calls, self_allocs, cum_allocs)
    };
    assert_eq!(allocs("sim.waveform_transport"), (1, 4, 4), "{counts:?}");
    assert_eq!(allocs("sim.demod"), (1, 8, 8), "{counts:?}");
}

/// Class-parallel inventory keeps the profile complete and
/// thread-independent: allocation counts are thread-local, so each
/// interaction class opens its own `net.inventory.class` stage wherever
/// it runs. The self counts of `net.inventory` and of that child — and
/// so their sum — are identical whether one worker runs every class
/// inline, eight workers share them, or the worker count comes from
/// `VAB_THREADS` or the detected parallelism (`set_jobs(0)`).
#[test]
fn inventory_alloc_counts_are_identical_across_worker_counts() {
    use vab::net::{Network, ScaleSpec};
    use vab::util::threads::set_jobs;
    type Counts = (u64, u64, u64, u64, u64);
    let _g = profile_lock();
    // 144 readers on the 64-channel reuse plan: 64 interaction classes.
    let net = Network::build(&ScaleSpec::ocean(20_736, 2023));
    let was_profiling = vab::obs::alloc::profiling();
    let profile = |jobs: usize| -> (Vec<u32>, Counts, Counts) {
        set_jobs(jobs);
        vab::obs::alloc::enable();
        vab::obs::alloc::reset();
        let inventory = net.run_inventory();
        let counts = stage_counts();
        vab::obs::alloc::disable();
        set_jobs(0);
        (inventory.discovered, counts["net.inventory"], counts["net.inventory.class"])
    };
    let (order_1, parent_1, class_1) = profile(1);
    let wider = [(8, profile(8)), (0, profile(0))];
    if was_profiling {
        vab::obs::alloc::enable();
    }
    assert_eq!(class_1.0, 64, "one child stage per interaction class: {class_1:?}");
    assert!(class_1.1 > 0, "the classes' own allocations must be attributed: {class_1:?}");
    for (jobs, (order, parent, class)) in wider {
        assert_eq!(order, order_1, "discovery order at set_jobs({jobs})");
        assert_eq!(
            (parent.1 + class.1, parent.2 + class.2),
            (parent_1.1 + class_1.1, parent_1.2 + class_1.2),
            "net.inventory + net.inventory.class self counts at set_jobs({jobs}) vs 1"
        );
        assert_eq!((parent.1, parent.2), (parent_1.1, parent_1.2), "net.inventory at {jobs}");
        assert_eq!(class, class_1, "net.inventory.class at set_jobs({jobs})");
    }
}

/// A profiled metrics snapshot must survive the full surfacing path:
/// `Snapshot::to_json()` → `Snapshot::parse` → `profile::render`,
/// with self/cumulative attribution intact.
#[test]
fn profiled_snapshot_round_trips_through_obsctl() {
    let _g = profile_lock();
    let was_profiling = vab::obs::alloc::profiling();
    vab::obs::alloc::enable();
    vab::obs::alloc::reset();
    vab::obs::metrics::reset();
    let _ = profiled_point(2);
    let snap = vab::obs::metrics::Snapshot::capture();
    if !was_profiling {
        vab::obs::alloc::disable();
    }
    let doc = vab::obs::metrics::Snapshot::parse(&snap.to_json()).expect("snapshot JSON parses");
    assert_eq!(doc, snap, "metrics.json reads back the snapshot it was written from");
    let totals = doc.alloc_totals.expect("profiled snapshot carries alloc totals");
    assert!(totals.allocs > 0);
    let trial = doc
        .alloc_stages
        .iter()
        .find(|s| s.name == "sim.linkbudget_trial")
        .expect("trial stage surfaces in metrics.json");
    assert!(trial.calls > 0 && trial.calls <= 96);
    assert!(trial.cum_allocs >= trial.self_allocs);
    let table = vab_obsctl::profile::render(&doc, 5).expect("profile renders");
    assert!(table.contains("sim.linkbudget_trial"), "{table}");
    assert!(table.contains("allocation profile:"), "{table}");
}

/// The flame fold must reproduce its golden fixture byte-for-byte: a
/// two-trace span forest plus an id-less span collapses into sorted
/// `path weight` lines whose self weights conserve the root totals.
#[test]
fn flame_collapse_round_trips_golden_fixture() {
    let text = std::fs::read_to_string(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/fixtures/flame_trace.jsonl"
    ))
    .expect("fixture");
    let golden = std::fs::read_to_string(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/fixtures/flame_collapsed.txt"
    ))
    .expect("golden");
    let trace = Trace::parse(&text);
    assert!(trace.skipped_lines.is_empty() && !trace.truncated_tail, "fixture must be clean");

    let lines = flame::collapse(&trace, Weight::TimeUs, None).expect("collapse");
    let expected: Vec<String> = golden.lines().map(String::from).collect();
    assert_eq!(lines, expected, "time-weighted collapse must match the golden output");
    // Self weights conserve the totals: both roots (1200 + 600) plus the
    // flat id-less span (900).
    let total: u64 =
        lines.iter().map(|l| l.rsplit(' ').next().unwrap().parse::<u64>().unwrap()).sum();
    assert_eq!(total, 2700);

    // Allocation-weighted folds of the same fixture.
    let by_allocs = flame::collapse(&trace, Weight::AllocCount, None).expect("allocs");
    assert_eq!(
        by_allocs,
        vec![
            "svc.handle 7".to_string(),
            "svc.handle;svc.job_execute 13".to_string(),
            "svc.handle;svc.job_execute;sim.montecarlo 20".to_string(),
        ]
    );
    let by_bytes = flame::collapse(&trace, Weight::AllocBytes, None).expect("bytes");
    let bytes_total: u64 =
        by_bytes.iter().map(|l| l.rsplit(' ').next().unwrap().parse::<u64>().unwrap()).sum();
    assert_eq!(bytes_total, 5120 + 1024, "byte weights conserve both traces' root totals");

    // Filtering to one trace drops the other trace and the id-less span.
    let one = flame::collapse(&trace, Weight::TimeUs, Some(0xbb)).expect("filtered");
    let one_total: u64 =
        one.iter().map(|l| l.rsplit(' ').next().unwrap().parse::<u64>().unwrap()).sum();
    assert_eq!(one_total, 600);
}
