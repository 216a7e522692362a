//! Reproducibility guarantees: everything the repository publishes must be
//! bit-identical across runs and thread counts.

use vab::sim::baseline::SystemKind;
use vab::sim::montecarlo::{run_point, MonteCarloConfig, TrialEngine};
use vab::sim::scenario::Scenario;
use vab::util::units::Meters;

fn cfg(threads: usize, seed: u64) -> MonteCarloConfig {
    MonteCarloConfig {
        trials: 24,
        bits_per_trial: 256,
        seed,
        engine: TrialEngine::LinkBudget,
        threads,
    }
}

#[test]
fn monte_carlo_independent_of_thread_count() {
    let s = Scenario::river(SystemKind::Vab { n_pairs: 4 }, Meters(330.0));
    let r1 = run_point(&s, &cfg(1, 5));
    let r2 = run_point(&s, &cfg(2, 5));
    let r8 = run_point(&s, &cfg(8, 5));
    assert_eq!(r1.ber.errors(), r2.ber.errors());
    assert_eq!(r1.ber.errors(), r8.ber.errors());
    assert_eq!(r1.packet_errors, r8.packet_errors);
    assert_eq!(r1.trial_bers, r8.trial_bers);
    assert!((r1.ebn0.mean() - r8.ebn0.mean()).abs() < 1e-9);
}

#[test]
fn different_seeds_differ() {
    let s = Scenario::river(SystemKind::Pab, Meters(40.0));
    let a = run_point(&s, &cfg(0, 1));
    let b = run_point(&s, &cfg(0, 2));
    // At a fading-sensitive range the realizations must differ.
    assert_ne!(a.trial_bers, b.trial_bers);
}

#[test]
fn same_seed_same_everything() {
    let s = Scenario::river(SystemKind::Vab { n_pairs: 4 }, Meters(350.0));
    let a = run_point(&s, &cfg(0, 123));
    let b = run_point(&s, &cfg(0, 123));
    assert_eq!(a.ber.errors(), b.ber.errors());
    assert_eq!(a.trial_bers, b.trial_bers);
}

#[test]
fn experiment_tables_are_reproducible() {
    let cfg = vab_bench::ExpConfig { trials: 6, bits: 128, seed: 31 };
    let a = vab_bench::experiments::f7_ber_vs_range(&cfg);
    let b = vab_bench::experiments::f7_ber_vs_range(&cfg);
    assert_eq!(a.to_csv(), b.to_csv());
}

#[test]
fn faulted_point_independent_of_thread_count() {
    use vab::fault::{FaultConfig, FaultPlan};
    use vab::sim::montecarlo::{try_run_point, GridPoint};
    let s = Scenario::river(SystemKind::Vab { n_pairs: 4 }, Meters(280.0));
    let fe = s.front_end();
    let plan = FaultPlan::new(42, FaultConfig::with_intensity(0.5));
    let run = |threads| {
        try_run_point(GridPoint::borrowed(&s, &fe).faulted(&plan), &cfg(threads, 42))
            .expect("no worker panic")
    };
    let (r1, r8) = (run(1), run(8));
    assert_eq!(r1.ber.errors(), r8.ber.errors());
    assert_eq!(r1.packet_errors, r8.packet_errors);
    assert_eq!(r1.trial_bers, r8.trial_bers);
    assert!((r1.ebn0.mean() - r8.ebn0.mean()).abs() < 1e-9);
}

#[test]
fn faulted_campaign_bit_identical_across_runs() {
    use vab::fault::FaultConfig;
    use vab::sim::campaign::{run_campaign, CampaignConfig};
    let cfg = CampaignConfig {
        n_trials: 80,
        faults: Some(FaultConfig::with_intensity(0.6)),
        ..CampaignConfig::vab_default()
    };
    let a = run_campaign(&cfg);
    let b = run_campaign(&cfg);
    for (x, y) in a.records.iter().zip(&b.records) {
        assert_eq!(x.errors, y.errors);
        assert_eq!(x.bits, y.bits);
        assert_eq!(x.range_m, y.range_m);
        assert_eq!(x.ebn0_db, y.ebn0_db);
    }
}

#[test]
fn fault_plans_are_pure_functions_of_seed_and_trial() {
    use vab::fault::{FaultConfig, FaultPlan};
    let plan = FaultPlan::new(9, FaultConfig::severe());
    // Trial faults must not depend on draw order: querying out of order,
    // repeatedly, or from clones yields identical faults.
    let forward: Vec<_> = (0..16).map(|t| plan.trial_faults(t, 8)).collect();
    let mut backward: Vec<_> = (0..16).rev().map(|t| plan.trial_faults(t, 8)).collect();
    backward.reverse();
    for (a, b) in forward.iter().zip(&backward) {
        assert_eq!(format!("{a:?}"), format!("{b:?}"));
    }
}

#[test]
fn sample_level_trials_reproducible() {
    let s = Scenario::river(SystemKind::Vab { n_pairs: 4 }, Meters(150.0));
    let mc = MonteCarloConfig {
        trials: 3,
        bits_per_trial: 96,
        seed: 77,
        engine: TrialEngine::SampleLevel,
        threads: 0,
    };
    let a = run_point(&s, &mc);
    let b = run_point(&s, &mc);
    assert_eq!(a.ber.errors(), b.ber.errors());
    assert_eq!(a.trial_bers, b.trial_bers);
}
