//! Component-tolerance analysis.
//!
//! Real nodes are built from ±5 % inductors and capacitors and transducers
//! whose resonance wanders with temperature and potting. This module Monte
//! Carlos the manufacturing distribution of the key figure of merit — the
//! realized modulation depth — so the design margin experiments can answer
//! "how reproducible is a 4-pair node build?".

use crate::bvd::Bvd;
use crate::reflection::ModulationStates;
use rand::Rng;
use vab_util::rng::gaussian;
use vab_util::stats::RunningStats;
use vab_util::units::Hertz;

/// Manufacturing tolerances (1-σ relative deviations).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tolerances {
    /// Transducer resonance frequency deviation (potting, temperature).
    pub resonance: f64,
    /// Transducer Q deviation.
    pub q_factor: f64,
    /// Static capacitance deviation.
    pub c0: f64,
    /// Matching-network element deviation (L and C).
    pub network: f64,
}

impl Tolerances {
    /// Typical commercial build: ±2 % resonance, ±10 % Q, ±5 % C0,
    /// ±5 % network elements.
    pub fn commercial() -> Self {
        Self { resonance: 0.02, q_factor: 0.10, c0: 0.05, network: 0.05 }
    }

    /// A tight, hand-trimmed lab build.
    pub fn lab_trimmed() -> Self {
        Self { resonance: 0.005, q_factor: 0.05, c0: 0.02, network: 0.01 }
    }
}

/// One manufactured instance: a perturbed transducer.
pub fn sample_transducer<R: Rng + ?Sized>(nominal: &Bvd, tol: &Tolerances, rng: &mut R) -> Bvd {
    let fs = nominal.series_resonance().value() * (1.0 + tol.resonance * gaussian(rng));
    let q = (nominal.q_factor() * (1.0 + tol.q_factor * gaussian(rng))).max(1.0);
    let c0 = nominal.c0 * (1.0 + tol.c0 * gaussian(rng));
    let ratio = nominal.cm / nominal.c0;
    Bvd::from_resonance(Hertz(fs.max(1.0)), q, c0.max(1e-12), ratio)
}

/// Distribution summary of a figure of merit across builds.
#[derive(Debug, Clone)]
pub struct YieldReport {
    /// Modulation-depth statistics across the sampled builds.
    pub depth: RunningStats,
    /// Fraction of builds whose depth clears `depth_spec`.
    pub yield_fraction: f64,
    /// The spec line used.
    pub depth_spec: f64,
}

/// Monte Carlo over `n` builds: each gets a perturbed transducer, re-uses
/// the *nominal* co-designed load states (trimmed once at design time, as a
/// production line would), and is scored at the nominal carrier.
pub fn depth_yield<R: Rng + ?Sized>(
    nominal: &Bvd,
    f0: Hertz,
    tol: &Tolerances,
    depth_spec: f64,
    n: usize,
    rng: &mut R,
) -> YieldReport {
    // States designed once against the nominal transducer.
    let states = ModulationStates::vab(nominal, f0);
    let mut depth = RunningStats::new();
    let mut pass = 0usize;
    for _ in 0..n {
        let unit = sample_transducer(nominal, tol, rng);
        let d = states.modulation_depth(&unit, f0);
        depth.push(d);
        if d >= depth_spec {
            pass += 1;
        }
    }
    YieldReport { depth, yield_fraction: pass as f64 / n.max(1) as f64, depth_spec }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vab_util::rng::seeded;

    fn nominal() -> Bvd {
        Bvd::vab_default()
    }

    #[test]
    fn zero_tolerance_reproduces_nominal() {
        let tol = Tolerances { resonance: 0.0, q_factor: 0.0, c0: 0.0, network: 0.0 };
        let mut rng = seeded(91);
        let unit = sample_transducer(&nominal(), &tol, &mut rng);
        assert!(
            (unit.series_resonance().value() - nominal().series_resonance().value()).abs() < 1e-6
        );
        assert!((unit.q_factor() - nominal().q_factor()).abs() < 1e-9);
    }

    #[test]
    fn lab_build_yields_higher_than_commercial() {
        let mut rng = seeded(92);
        let f0 = nominal().series_resonance();
        let spec = 0.7;
        let lab = depth_yield(&nominal(), f0, &Tolerances::lab_trimmed(), spec, 400, &mut rng);
        let com = depth_yield(&nominal(), f0, &Tolerances::commercial(), spec, 400, &mut rng);
        assert!(
            lab.yield_fraction >= com.yield_fraction,
            "lab {} < commercial {}",
            lab.yield_fraction,
            com.yield_fraction
        );
        assert!(lab.yield_fraction > 0.9, "lab yield {}", lab.yield_fraction);
    }

    #[test]
    fn commercial_spread_is_visible_but_bounded() {
        let mut rng = seeded(93);
        let f0 = nominal().series_resonance();
        let rep = depth_yield(&nominal(), f0, &Tolerances::commercial(), 0.5, 400, &mut rng);
        assert!(rep.depth.std_dev() > 0.005, "spread {}", rep.depth.std_dev());
        assert!(rep.depth.mean() > 0.6, "mean depth {}", rep.depth.mean());
        assert!(rep.depth.min() > 0.2, "worst unit {}", rep.depth.min());
    }
}
