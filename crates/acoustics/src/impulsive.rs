//! Impulsive ambient noise — snapping shrimp.
//!
//! Warm shallow water is dominated not by Gaussian wind noise but by the
//! crackle of snapping shrimp: millisecond broadband transients 20–40 dB
//! above the Gaussian floor, arriving as a Poisson process. Impulsive noise
//! is the reason link layers carry interleavers: a single snap wipes out a
//! burst of chips, not a random scattering.
//!
//! The standard engineering model is Bernoulli–Gaussian (a two-state
//! mixture): each sample is background Gaussian with probability `1−p` and
//! high-variance "snap" Gaussian with probability `p`, with snaps arriving
//! in short bursts rather than as isolated samples.

use rand::{Rng, RngExt};
use vab_util::complex::C64;
use vab_util::rng::complex_gaussian;

/// Snapping-shrimp (Bernoulli–Gaussian burst) noise model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ImpulsiveNoise {
    /// Background (Gaussian) noise sigma.
    pub sigma_bg: f64,
    /// Snap amplitude relative to background (20–40 dB typical → 10–100×).
    pub snap_ratio: f64,
    /// Mean snaps per second.
    pub snap_rate_hz: f64,
    /// Snap duration, seconds (shrimp snaps are ~0.3–1 ms).
    pub snap_duration_s: f64,
}

impl ImpulsiveNoise {
    /// Sparse snapping: 5 snaps/s (temperate water near structure).
    pub fn sparse(sigma_bg: f64) -> Self {
        Self { sigma_bg, snap_ratio: 31.6, snap_rate_hz: 5.0, snap_duration_s: 0.5e-3 }
    }

    /// Fraction of samples inside a snap.
    pub fn duty(&self) -> f64 {
        (self.snap_rate_hz * self.snap_duration_s).min(1.0)
    }

    /// Generates `n` complex noise samples at sample rate `fs`.
    ///
    /// Snap starts arrive as a Poisson process (geometric inter-arrival in
    /// samples); each snap holds for its duration. Deterministic under a
    /// seeded RNG.
    pub fn generate<R: Rng + ?Sized>(&self, n: usize, fs: f64, rng: &mut R) -> Vec<C64> {
        let mut out = Vec::with_capacity(n);
        let p_start = (self.snap_rate_hz / fs).min(1.0);
        let snap_len = (self.snap_duration_s * fs).round().max(1.0) as usize;
        let mut in_snap = 0usize;
        for _ in 0..n {
            if in_snap == 0 && rng.random::<f64>() < p_start {
                in_snap = snap_len;
            }
            let sigma = if in_snap > 0 {
                in_snap -= 1;
                self.sigma_bg * self.snap_ratio
            } else {
                self.sigma_bg
            };
            out.push(complex_gaussian(rng, sigma));
        }
        out
    }

    /// Adds this noise to a signal in place.
    pub fn corrupt<R: Rng + ?Sized>(&self, signal: &mut [C64], fs: f64, rng: &mut R) {
        let noise = self.generate(signal.len(), fs, rng);
        for (s, n) in signal.iter_mut().zip(noise) {
            *s += n;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vab_util::rng::seeded;
    use vab_util::stats::RunningStats;

    /// A lively tropical bottom: 30 dB snaps, 50 snaps/s, 0.5 ms each.
    fn shrimp_colony() -> ImpulsiveNoise {
        ImpulsiveNoise {
            sigma_bg: 1.0,
            snap_ratio: 31.6,
            snap_rate_hz: 50.0,
            snap_duration_s: 0.5e-3,
        }
    }

    /// Average noise power relative to pure background power.
    fn power_penalty_lin(n: &ImpulsiveNoise) -> f64 {
        let d = n.duty();
        (1.0 - d) + d * n.snap_ratio * n.snap_ratio
    }

    #[test]
    fn duty_and_penalty_arithmetic() {
        let n = shrimp_colony();
        // 50 snaps/s × 0.5 ms = 2.5 % duty.
        assert!((n.duty() - 0.025).abs() < 1e-12);
        // Power penalty = 0.975 + 0.025·1000 ≈ 26× (14 dB!).
        assert!((power_penalty_lin(&n) - 25.95).abs() < 0.5, "{}", power_penalty_lin(&n));
    }

    #[test]
    fn generated_power_matches_theory() {
        let model = shrimp_colony();
        let mut rng = seeded(1);
        let fs = 16_000.0;
        let samples = model.generate(400_000, fs, &mut rng);
        let mean_pow: f64 = samples.iter().map(|c| c.norm_sq()).sum::<f64>() / samples.len() as f64;
        let want = power_penalty_lin(&model);
        assert!((mean_pow / want - 1.0).abs() < 0.25, "measured {mean_pow:.1} vs theory {want:.1}");
    }

    #[test]
    fn snaps_are_bursty_not_scattered() {
        let model = shrimp_colony();
        let mut rng = seeded(2);
        let fs = 16_000.0;
        let samples = model.generate(200_000, fs, &mut rng);
        // Classify loud samples (above 5σ of background).
        let loud: Vec<bool> = samples.iter().map(|c| c.abs() > 5.0).collect();
        let n_loud = loud.iter().filter(|&&b| b).count();
        assert!(n_loud > 1000, "expected snaps, got {n_loud} loud samples");
        // Conditional probability P(loud[i+1] | loud[i]) must be far above
        // the marginal P(loud) — that is burstiness.
        let mut pairs = 0;
        let mut follows = 0;
        for w in loud.windows(2) {
            if w[0] {
                pairs += 1;
                if w[1] {
                    follows += 1;
                }
            }
        }
        let conditional = follows as f64 / pairs as f64;
        let marginal = n_loud as f64 / loud.len() as f64;
        assert!(
            conditional > 10.0 * marginal,
            "snaps not bursty: P(loud|loud)={conditional:.3} vs P(loud)={marginal:.3}"
        );
    }

    #[test]
    fn background_only_when_rate_is_zero() {
        let model = ImpulsiveNoise { snap_rate_hz: 0.0, ..ImpulsiveNoise::sparse(2.0) };
        let mut rng = seeded(3);
        let samples = model.generate(50_000, 16_000.0, &mut rng);
        let mut s = RunningStats::new();
        for c in &samples {
            s.push(c.norm_sq());
        }
        // Mean power = σ² = 4.
        assert!((s.mean() - 4.0).abs() < 0.2, "mean power {}", s.mean());
    }

    #[test]
    fn corrupt_adds_in_place() {
        let model = ImpulsiveNoise::sparse(0.1);
        let mut rng = seeded(4);
        let mut signal = vec![C64::real(1.0); 1000];
        model.corrupt(&mut signal, 16_000.0, &mut rng);
        assert!(signal.iter().any(|c| (c.re - 1.0).abs() > 1e-6));
    }
}
