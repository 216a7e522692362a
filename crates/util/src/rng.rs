//! Seeded randomness helpers.
//!
//! Every stochastic component of the simulator draws from a seeded
//! [`rand::rngs::StdRng`], so all experiments are reproducible. Gaussian
//! variates are generated here with Box–Muller rather than pulling in
//! `rand_distr`.

use rand::rngs::StdRng;
use rand::{Rng, RngExt, SeedableRng};

/// Creates a deterministic RNG from a 64-bit seed.
pub fn seeded(seed: u64) -> StdRng {
    StdRng::seed_from_u64(seed)
}

/// Derives a child seed from a parent seed and a stream index using
/// SplitMix64 mixing, so parallel Monte Carlo shards are decorrelated but
/// reproducible.
pub fn derive_seed(parent: u64, stream: u64) -> u64 {
    let mut z = parent.wrapping_add(0x9E37_79B9_7F4A_7C15u64.wrapping_mul(stream.wrapping_add(1)));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Draws one standard-normal sample via Box–Muller.
pub fn gaussian<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    // Avoid log(0) by sampling u1 in (0, 1].
    let u1: f64 = 1.0 - rng.random::<f64>();
    let u2: f64 = rng.random::<f64>();
    (-2.0 * u1.ln()).sqrt() * (crate::TAU * u2).cos()
}

/// Draws a complex circular Gaussian sample with total variance σ²
/// (σ²/2 per quadrature) — the standard fading-tap distribution.
pub fn complex_gaussian<R: Rng + ?Sized>(rng: &mut R, sigma: f64) -> crate::complex::C64 {
    let s = sigma / std::f64::consts::SQRT_2;
    crate::complex::C64::new(s * gaussian(rng), s * gaussian(rng))
}

/// Random bit vector of length `n` — test payloads.
pub fn random_bits<R: Rng + ?Sized>(rng: &mut R, n: usize) -> Vec<bool> {
    (0..n).map(|_| rng.random::<bool>()).collect()
}

/// Random byte payload of length `n`.
pub fn random_bytes<R: Rng + ?Sized>(rng: &mut R, n: usize) -> Vec<u8> {
    (0..n).map(|_| rng.random::<u8>()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::approx_eq;
    use crate::stats::RunningStats;

    #[test]
    fn seeded_is_deterministic() {
        let a: Vec<u32> = {
            let mut r = seeded(42);
            (0..8).map(|_| r.random()).collect()
        };
        let b: Vec<u32> = {
            let mut r = seeded(42);
            (0..8).map(|_| r.random()).collect()
        };
        assert_eq!(a, b);
    }

    #[test]
    fn derive_seed_decorrelates_streams() {
        let s0 = derive_seed(7, 0);
        let s1 = derive_seed(7, 1);
        assert_ne!(s0, s1);
        // Different parents also differ.
        assert_ne!(derive_seed(7, 0), derive_seed(8, 0));
    }

    #[test]
    fn gaussian_moments() {
        let mut rng = seeded(1);
        let mut s = RunningStats::new();
        for _ in 0..200_000 {
            s.push(gaussian(&mut rng));
        }
        assert!(s.mean().abs() < 0.01, "mean {}", s.mean());
        assert!(approx_eq(s.variance(), 1.0, 0.02), "var {}", s.variance());
    }

    #[test]
    fn complex_gaussian_variance_split() {
        let mut rng = seeded(2);
        let mut re = RunningStats::new();
        let mut im = RunningStats::new();
        for _ in 0..100_000 {
            let z = complex_gaussian(&mut rng, 2.0);
            re.push(z.re);
            im.push(z.im);
        }
        // total variance 4, split 2 per quadrature
        assert!(approx_eq(re.variance(), 2.0, 0.05));
        assert!(approx_eq(im.variance(), 2.0, 0.05));
    }

    #[test]
    fn random_bits_are_balanced() {
        let mut rng = seeded(4);
        let bits = random_bits(&mut rng, 100_000);
        let ones = bits.iter().filter(|&&b| b).count();
        assert!((ones as f64 / 1e5 - 0.5).abs() < 0.01);
    }
}
