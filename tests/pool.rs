//! The compute pool under whole figures: grids give the same bytes at every
//! pool width, the front end of a bisection is built once, and (with
//! `VAB_BENCH=1`) a grid on two workers runs in well under its one-worker
//! wall.

use std::sync::{Mutex, MutexGuard};
use std::time::Instant;

use vab::sim::linkbudget::max_range_where;
use vab::sim::scenario::Scenario;
use vab::sim::SystemKind;
use vab::util::threads::set_jobs;
use vab::util::units::Meters;
use vab_bench::experiments::{
    f15_rate_adaptation, f6_snr_vs_range, f7_ber_vs_range, f8_orientation, ExperimentFn,
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
