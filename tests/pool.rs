//! The compute pool under whole figures: grids give the same bytes at every
//! pool width, the front end of a bisection is built once, F6 draws its
//! Eb/N0 without decoding, and (with `VAB_BENCH=1`) a grid on two workers
//! runs in well under its one-worker wall and F6's Eb/N0 grid in a small
//! fraction of the full grid's.

use std::sync::{Mutex, MutexGuard};
use std::time::Instant;

use vab::sim::baseline::FrontEnd;
use vab::sim::linkbudget::max_range_where;
use vab::sim::montecarlo::{
    run_grid, run_grid_ebn0, GridPoint, MonteCarloConfig, PointResult, TrialEngine,
};
use vab::sim::scenario::Scenario;
use vab::sim::SystemKind;
use vab::util::stats::RunningStats;
use vab::util::threads::set_jobs;
use vab::util::units::Meters;
use vab_bench::experiments::{
    f15_rate_adaptation, f6_snr_vs_range, f7_ber_vs_range, f8_orientation, ExperimentFn, F0,
};
use vab_bench::ExpConfig;

/// `set_jobs` and allocation profiling are process-wide: tests take turns.
fn serial() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

#[test]
fn figure_csvs_are_identical_across_pool_widths() {
    let _g = serial();
    let cfg = ExpConfig { trials: 6, bits: 64, seed: 2023 };
    let figures: [(&str, ExperimentFn); 4] = [
        ("f6", f6_snr_vs_range),
        ("f7", f7_ber_vs_range),
        ("f8", f8_orientation),
        ("f15", f15_rate_adaptation),
    ];
    for (name, figure) in figures {
        set_jobs(1);
        let serial = figure(&cfg).to_csv();
        for jobs in [2, 8] {
            set_jobs(jobs);
            let wide = figure(&cfg).to_csv();
            set_jobs(0);
            assert_eq!(serial, wide, "{name} must not depend on the pool width ({jobs} jobs)");
        }
    }
}

#[test]
fn max_range_bisection_builds_one_front_end() {
    let _g = serial();
    let was_profiling = vab::obs::alloc::profiling();
    vab::obs::alloc::enable();
    vab::obs::alloc::reset();
    let range = max_range_where(
        |d| Scenario::river(SystemKind::Vab { n_pairs: 4 }, d),
        |b| b.ebn0_db >= 10.0,
    );
    let searches = vab::obs::alloc::snapshot_stages()
        .into_iter()
        .find(|s| s.name == "piezo.co_design")
        .map_or(0, |s| s.calls);
    if !was_profiling {
        vab::obs::alloc::disable();
    }
    assert!(range > Meters(10.0) && range < Meters(20_000.0), "range {range}");
    assert_eq!(searches, 1, "one co-design search per bisection, not one per step");
}

/// Quick F7 on two workers costs at most 0.65× its one-worker wall, best
/// of five each, so a grid that slides back to running its points one
/// after another fails. Gated behind `VAB_BENCH=1` like the other
/// wall-clock gates; run it `--release` on a host with two or more cores.
#[test]
fn grid_meets_the_parallel_efficiency_target() {
    if std::env::var("VAB_BENCH").is_err() {
        eprintln!("skipped: set VAB_BENCH=1 to run the parallel-efficiency gate");
        return;
    }
    if std::thread::available_parallelism().map_or(1, |n| n.get()) < 2 {
        eprintln!("skipped: the parallel-efficiency gate needs two cores");
        return;
    }
    let _g = serial();
    let cfg = ExpConfig::quick();
    let mut best = [f64::INFINITY; 2];
    for _ in 0..5 {
        for (slot, jobs) in [(0, 1), (1, 2)] {
            set_jobs(jobs);
            let t = Instant::now();
            let table = f7_ber_vs_range(&cfg);
            best[slot] = best[slot].min(t.elapsed().as_secs_f64());
            assert_eq!(table.len(), 10);
        }
    }
    set_jobs(0);
    let [one, two] = best;
    eprintln!(
        "f7 quick: 1 worker {:.1} ms, 2 workers {:.1} ms (ratio {:.2})",
        one * 1e3,
        two * 1e3,
        two / one
    );
    assert!(two <= 0.65 * one, "need 2-worker wall <= 0.65x 1-worker, measured {:.2}x", two / one);
}

/// Quick F6's Monte Carlo configuration and front ends: VAB, PAB and the
/// 8-element conventional array.
fn quick_f6() -> (MonteCarloConfig, [FrontEnd; 3]) {
    let q = ExpConfig::quick();
    let mc = MonteCarloConfig {
        trials: q.trials,
        bits_per_trial: q.bits,
        seed: q.seed,
        engine: TrialEngine::LinkBudget,
        threads: 0,
    };
    let fes = [
        SystemKind::Vab { n_pairs: 4 },
        SystemKind::Pab,
        SystemKind::ConventionalArray { n_elements: 8 },
    ]
    .map(|sys| FrontEnd::new(sys, F0));
    (mc, fes)
}

/// F6's grid: every front end at each of its nine river ranges.
fn f6_points(fes: &[FrontEnd]) -> Vec<GridPoint<'_>> {
    [10.0, 20.0, 50.0, 100.0, 150.0, 200.0, 300.0, 400.0, 500.0]
        .into_iter()
        .flat_map(|d| fes.iter().map(move |fe| (d, fe)))
        .map(|(d, fe)| GridPoint::new(Scenario::river(fe.kind(), Meters(d)), fe))
        .collect()
}

/// F6 reads only mean Eb/N0, so quick F6 encodes, decodes and runs no
/// link-budget trial body at all, builds one channel realization per
/// point, and its Eb/N0 grid reports what the full grid reports in
/// `PointResult::ebn0`, bit for bit, at every pool width.
#[test]
fn f6_draws_ebn0_without_decoding() {
    let _g = serial();
    let was_profiling = vab::obs::alloc::profiling();
    vab::obs::alloc::enable();
    vab::obs::alloc::reset();
    let table = f6_snr_vs_range(&ExpConfig::quick());
    let calls = |stage: &str| {
        vab::obs::alloc::snapshot_stages()
            .into_iter()
            .find(|s| s.name == stage)
            .map_or(0, |s| s.calls)
    };
    let idle =
        ["fec.encode", "fec.viterbi", "sim.linkbudget_trial"].map(|stage| (stage, calls(stage)));
    let realizations = calls("sim.channel_realization");
    if !was_profiling {
        vab::obs::alloc::disable();
    }
    assert_eq!(table.len(), 9);
    assert_eq!(idle, ["fec.encode", "fec.viterbi", "sim.linkbudget_trial"].map(|s| (s, 0)));
    assert_eq!(realizations, 27, "one channel realization per grid point");

    let (mc, fes) = quick_f6();
    let points = f6_points(&fes);
    let bits = |r: &RunningStats| {
        (r.count(), [r.mean(), r.variance(), r.min(), r.max()].map(f64::to_bits))
    };
    for jobs in [1, 2, 8] {
        set_jobs(jobs);
        let ebn0 = run_grid_ebn0(&points, &mc);
        let full = run_grid(&points, &mc);
        set_jobs(0);
        assert_eq!(ebn0.len(), full.len());
        for (fast, PointResult { ebn0: want, .. }) in ebn0.iter().zip(&full) {
            assert_eq!(bits(fast), bits(want), "{jobs} jobs");
        }
    }
}

/// Quick F6's points through the Eb/N0 grid take at most 0.25× their wall
/// through the full grid, best of five each (about 0.05× measured on a
/// 2-core host), so a change that puts decoding back into F6 fails.
/// Gated behind `VAB_BENCH=1` like the other wall-clock gates; run it
/// `--release`.
#[test]
fn f6_ebn0_grid_meets_the_bench_speed_target() {
    if std::env::var("VAB_BENCH").is_err() {
        eprintln!("skipped: set VAB_BENCH=1 to run the F6 Eb/N0 grid speed gate");
        return;
    }
    let _g = serial();
    let (mc, fes) = quick_f6();
    let points = f6_points(&fes);
    let mut best = [f64::INFINITY; 2];
    for _ in 0..5 {
        let t = Instant::now();
        assert_eq!(run_grid_ebn0(&points, &mc).len(), points.len());
        best[0] = best[0].min(t.elapsed().as_secs_f64());
        let t = Instant::now();
        assert_eq!(run_grid(&points, &mc).len(), points.len());
        best[1] = best[1].min(t.elapsed().as_secs_f64());
    }
    let [ebn0, full] = best;
    eprintln!(
        "f6 quick: Eb/N0 grid {:.2} ms, full grid {:.2} ms (ratio {:.3})",
        ebn0 * 1e3,
        full * 1e3,
        ebn0 / full
    );
    assert!(
        ebn0 <= 0.25 * full,
        "need Eb/N0 grid <= 0.25x the full grid, measured {:.3}x",
        ebn0 / full
    );
}
