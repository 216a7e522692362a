//! Field-campaign simulation: the "1,500 real-world trials" aggregate.
//!
//! The paper's evaluation is a campaign of individually-deployed trials —
//! different days, ranges, depths, orientations, sea states. This module
//! randomizes deployments the same way, runs one packet per deployment,
//! and produces both a per-trial log (the raw scatter a paper plots) and
//! bucketed summaries.

use crate::baseline::{FrontEnd, SystemKind};
use crate::montecarlo::{try_run_point, GridPoint, MonteCarloConfig, TrialEngine};
use crate::scenario::Scenario;
use rand::{Rng, RngExt};
use vab_acoustics::environment::SeaState;
use vab_fault::{FaultConfig, FaultPlan};
use vab_util::rng::{derive_seed, seeded};
use vab_util::units::{Degrees, Meters};

/// Campaign configuration.
#[derive(Debug, Clone, Copy)]
pub struct CampaignConfig {
    /// Number of deployments (the paper ran 1,500+).
    pub n_trials: usize,
    /// Information bits per deployment's packet.
    pub bits_per_trial: usize,
    /// Fraction of deployments in the river (the rest are ocean).
    pub river_fraction: f64,
    /// Minimum deployment range, metres (log-uniform sampling).
    pub min_range_m: f64,
    /// Maximum deployment range, metres (log-uniform sampling).
    pub max_range_m: f64,
    /// Maximum |rotation| of the node, degrees (uniform sampling).
    pub max_rotation_deg: f64,
    /// The deployed system.
    pub system: SystemKind,
    /// Master seed.
    pub seed: u64,
    /// Optional fault injection: when set, each deployment draws its
    /// faults deterministically from a [`FaultPlan`] keyed on the campaign
    /// seed (deployment `i` always experiences the same faults regardless
    /// of thread count or which other trials run).
    pub faults: Option<FaultConfig>,
}

impl CampaignConfig {
    /// The reproduction's standard campaign: 1,500 VAB deployments,
    /// 10–450 m, ±60°, 70 % river.
    pub fn vab_default() -> Self {
        Self {
            n_trials: 1500,
            bits_per_trial: 256,
            river_fraction: 0.7,
            min_range_m: 10.0,
            max_range_m: 450.0,
            max_rotation_deg: 60.0,
            system: SystemKind::Vab { n_pairs: 4 },
            seed: 1500,
            faults: None,
        }
    }
}

/// One deployment's outcome.
#[derive(Debug, Clone, Copy)]
pub struct TrialRecord {
    /// Trial index.
    pub id: usize,
    /// True for river, false for ocean.
    pub river: bool,
    /// Sea state index (0 = calm … 4 = moderate).
    pub sea_state: u8,
    /// Reader–node range, m.
    pub range_m: f64,
    /// Node rotation, degrees.
    pub rotation_deg: f64,
    /// Effective Eb/N0 of the trial, dB.
    pub ebn0_db: f64,
    /// Bit errors in the packet.
    pub errors: usize,
    /// Packet bits.
    pub bits: usize,
}

impl TrialRecord {
    /// Trial BER.
    pub fn ber(&self) -> f64 {
        self.errors as f64 / self.bits.max(1) as f64
    }

    /// The paper's per-trial success criterion.
    pub fn success(&self) -> bool {
        self.ber() <= 1e-3
    }
}

/// Campaign result: the raw log plus summary accessors.
#[derive(Debug, Clone)]
pub struct CampaignReport {
    /// Every deployment, in trial order.
    pub records: Vec<TrialRecord>,
}

impl CampaignReport {
    /// Overall packet-success fraction.
    pub fn success_fraction(&self) -> f64 {
        if self.records.is_empty() {
            return 0.0;
        }
        self.records.iter().filter(|r| r.success()).count() as f64 / self.records.len() as f64
    }

    /// Success fraction within a range bucket `[lo, hi)` metres.
    pub fn success_in_range(&self, lo: f64, hi: f64) -> (usize, f64) {
        let bucket: Vec<&TrialRecord> =
            self.records.iter().filter(|r| r.range_m >= lo && r.range_m < hi).collect();
        if bucket.is_empty() {
            return (0, 0.0);
        }
        let ok = bucket.iter().filter(|r| r.success()).count();
        (bucket.len(), ok as f64 / bucket.len() as f64)
    }

    /// The farthest *successful* deployment.
    pub fn max_successful_range(&self) -> f64 {
        self.records.iter().filter(|r| r.success()).map(|r| r.range_m).fold(0.0, f64::max)
    }
}

fn sample_scenario<R: Rng + ?Sized>(cfg: &CampaignConfig, rng: &mut R) -> (Scenario, bool, u8) {
    let river = rng.random::<f64>() < cfg.river_fraction;
    let log_lo = cfg.min_range_m.ln();
    let log_hi = cfg.max_range_m.ln();
    let range = (log_lo + rng.random::<f64>() * (log_hi - log_lo)).exp();
    let rotation = (rng.random::<f64>() * 2.0 - 1.0) * cfg.max_rotation_deg;
    let (scenario, ss) = if river {
        (Scenario::river(cfg.system, Meters(range)), 1u8)
    } else {
        let states = SeaState::all();
        let idx = rng.random_range(0..states.len());
        (Scenario::ocean(cfg.system, Meters(range), states[idx]), idx as u8)
    };
    (scenario.with_rotation(Degrees(rotation)), river, ss)
}

/// Runs the campaign (parallel inside each trial is unnecessary — trials
/// are cheap; the loop itself could be sharded, but 1,500 link-budget
/// trials complete in seconds single-threaded and stay bit-reproducible).
pub fn run_campaign(cfg: &CampaignConfig) -> CampaignReport {
    let _span = vab_obs::Span::enter("sim.campaign", "run_campaign");
    vab_obs::event!(
        "sim.campaign",
        "campaign_start",
        n_trials = cfg.n_trials,
        seed = cfg.seed,
        faulted = cfg.faults.is_some(),
    );
    let report = CampaignReport { records: run_campaign_slice(cfg, 0, cfg.n_trials) };
    vab_obs::metrics::inc("campaign.deployments", report.records.len() as u64);
    if vab_obs::enabled() {
        vab_obs::metrics::gauge("campaign.success_fraction").set(report.success_fraction());
        vab_obs::metrics::gauge("campaign.max_successful_range_m")
            .set(report.max_successful_range());
    }
    report
}

/// Runs deployments `lo..hi` of the campaign and returns their records.
///
/// Every deployment seeds itself from `derive_seed(cfg.seed, id)` and
/// (when faulted) indexes the fault plan by its own id, so a slice is
/// bit-identical to the same ids inside a full [`run_campaign`] — the
/// property `vab-svc` relies on to shard a campaign into independent,
/// individually-cacheable jobs. `hi` is clamped to `cfg.n_trials`.
pub fn run_campaign_slice(cfg: &CampaignConfig, lo: usize, hi: usize) -> Vec<TrialRecord> {
    let hi = hi.min(cfg.n_trials);
    let plan = cfg.faults.map(|fc| FaultPlan::new(cfg.seed, fc));
    // Every sampled scenario deploys `cfg.system` at the default carrier,
    // so one front end serves the whole slice.
    let fe = FrontEnd::new(cfg.system, vab_phy::modulation::ModParams::vab_default().carrier);
    let mut records = Vec::with_capacity(hi.saturating_sub(lo));
    for id in lo..hi {
        let mut rng = seeded(derive_seed(cfg.seed, id as u64));
        let (scenario, river, sea_state) = sample_scenario(cfg, &mut rng);
        let mc = MonteCarloConfig {
            trials: 1,
            bits_per_trial: cfg.bits_per_trial,
            seed: derive_seed(cfg.seed, (id as u64) << 1 | 1),
            engine: TrialEngine::LinkBudget,
            threads: 1,
        };
        // Deployment `id` indexes the plan, so its faults do not depend on
        // how many deployments ran before it.
        let faults = plan.as_ref().map(|p| p.trial_faults(id as u64, cfg.system.n_elements()));
        let point = GridPoint::borrowed(&scenario, &fe);
        let point = match &faults {
            None => point,
            Some(f) => point.with_faults(f),
        };
        let point = try_run_point(point, &mc).unwrap_or_else(|e| panic!("{e}"));
        let record = TrialRecord {
            id,
            river,
            sea_state,
            range_m: scenario.range().value(),
            rotation_deg: scenario.incidence_angle().value(),
            ebn0_db: point.ebn0.mean(),
            errors: (point.ber.errors()) as usize,
            bits: point.ber.bits() as usize,
        };
        vab_obs::event!(
            "sim.campaign",
            "deployment_done",
            trial = id,
            river = river,
            range_m = record.range_m,
            ebn0_db = record.ebn0_db,
            errors = record.errors,
            success = record.success(),
        );
        records.push(record);
    }
    records
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> CampaignConfig {
        CampaignConfig { n_trials: 120, ..CampaignConfig::vab_default() }
    }

    #[test]
    fn slices_concatenate_to_the_full_campaign() {
        let cfg = CampaignConfig { n_trials: 40, ..CampaignConfig::vab_default() };
        let full = run_campaign(&cfg);
        let mut stitched = run_campaign_slice(&cfg, 0, 15);
        stitched.extend(run_campaign_slice(&cfg, 15, 40));
        assert_eq!(stitched.len(), full.records.len());
        for (a, b) in stitched.iter().zip(&full.records) {
            assert_eq!(a.id, b.id);
            assert_eq!(a.errors, b.errors);
            assert_eq!(a.range_m.to_bits(), b.range_m.to_bits());
            assert_eq!(a.ebn0_db.to_bits(), b.ebn0_db.to_bits());
        }
        // Out-of-range slices clamp instead of panicking.
        assert!(run_campaign_slice(&cfg, 40, 50).is_empty());
    }

    #[test]
    fn campaign_runs_and_logs_every_trial() {
        let report = run_campaign(&small());
        assert_eq!(report.records.len(), 120);
        for r in &report.records {
            assert!(r.range_m >= 10.0 && r.range_m <= 450.0);
            assert!(r.rotation_deg.abs() <= 60.0);
            assert_eq!(r.bits, 256);
        }
    }

    #[test]
    fn near_deployments_succeed_far_ones_struggle() {
        let report = run_campaign(&small());
        let (n_near, near) = report.success_in_range(10.0, 80.0);
        let (n_far, far) = report.success_in_range(350.0, 450.0);
        assert!(n_near > 5 && n_far > 3, "buckets too thin: {n_near}/{n_far}");
        assert!(near > 0.9, "near success {near}");
        assert!(far < near, "far {far} should be below near {near}");
    }

    #[test]
    fn vab_campaign_reaches_past_300m() {
        let report = run_campaign(&small());
        assert!(
            report.max_successful_range() > 300.0,
            "max successful range {}",
            report.max_successful_range()
        );
    }

    #[test]
    fn pab_campaign_is_short_range() {
        let cfg = CampaignConfig {
            system: SystemKind::Pab,
            n_trials: 150,
            ..CampaignConfig::vab_default()
        };
        let report = run_campaign(&cfg);
        assert!(
            report.max_successful_range() < 120.0,
            "PAB reached {} m",
            report.max_successful_range()
        );
    }

    #[test]
    fn campaign_is_reproducible() {
        let a = run_campaign(&small());
        let b = run_campaign(&small());
        for (x, y) in a.records.iter().zip(&b.records) {
            assert_eq!(x.errors, y.errors);
            assert_eq!(x.range_m, y.range_m);
        }
    }

    #[test]
    fn faulted_campaign_underperforms_the_clean_one() {
        let clean = run_campaign(&small());
        let faulted = run_campaign(&CampaignConfig {
            faults: Some(FaultConfig::with_intensity(0.6)),
            ..small()
        });
        assert!(
            faulted.success_fraction() < clean.success_fraction(),
            "faults must cost deployments: {} vs {}",
            faulted.success_fraction(),
            clean.success_fraction()
        );
    }

    #[test]
    fn faulted_campaign_is_reproducible() {
        let cfg = CampaignConfig { faults: Some(FaultConfig::with_intensity(0.4)), ..small() };
        let a = run_campaign(&cfg);
        let b = run_campaign(&cfg);
        for (x, y) in a.records.iter().zip(&b.records) {
            assert_eq!(x.errors, y.errors);
            assert_eq!(x.range_m, y.range_m);
        }
    }

    #[test]
    fn mixes_both_environments() {
        let report = run_campaign(&small());
        let rivers = report.records.iter().filter(|r| r.river).count();
        assert!(rivers > 60 && rivers < 110, "river count {rivers}");
    }
}
