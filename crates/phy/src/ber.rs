//! Bit-error-rate theory and measurement.
//!
//! The uplink's noncoherent FM0 decision (`|c₀+c₁|²` vs `|c₀−c₁|²`) is
//! exactly noncoherent binary orthogonal signaling, so its AWGN BER is
//! `½·exp(−Eb/2N₀)`. The closed forms here calibrate the link-budget Monte
//! Carlo and validate the sample-level demodulator.

use vab_util::special::{marcum_q1, q_func};

/// Noncoherent binary **orthogonal** signaling (our FM0 demod, noncoherent
/// FSK): `Pb = ½·e^{−Eb/2N0}`.
pub fn ber_noncoherent_orthogonal(ebn0_lin: f64) -> f64 {
    (0.5 * (-ebn0_lin.max(0.0) / 2.0).exp()).min(0.5)
}

/// Coherent BPSK reference: `Pb = Q(√(2·Eb/N0))`.
pub fn ber_coherent_bpsk(ebn0_lin: f64) -> f64 {
    q_func((2.0 * ebn0_lin.max(0.0)).sqrt()).min(0.5)
}

/// Noncoherent OOK with an optimal fixed threshold:
/// `Pb = ½[Q₁(√(2Eb/N0), λ) + 1 − Q₁(0, λ)]` evaluated at the midpoint
/// threshold `λ = √(Eb/2N0)`… in practice well approximated by
/// `½·e^{−Eb/4N0}` at high SNR; we compute the Marcum-Q exact form.
pub fn ber_ook_noncoherent(ebn0_lin: f64) -> f64 {
    let e = ebn0_lin.max(0.0);
    if e == 0.0 {
        return 0.5;
    }
    let a = (2.0 * e).sqrt();
    let lambda = a / 2.0 + 1.0 / a.max(1e-9); // near-optimal threshold
    let p_miss = 1.0 - marcum_q1(a, lambda);
    let p_false = (-lambda * lambda / 2.0).exp(); // Rayleigh tail Q1(0, λ)
    (0.5 * (p_miss + p_false)).min(0.5)
}

/// Eb/N0 (dB) required for a target BER under noncoherent orthogonal
/// signaling — inverts the closed form.
pub fn required_ebn0_db(target_ber: f64) -> f64 {
    assert!(target_ber > 0.0 && target_ber < 0.5, "target BER in (0, 0.5)");
    let lin = -2.0 * (2.0 * target_ber).ln();
    10.0 * lin.log10()
}

/// An empirical BER accumulator with exact binomial bookkeeping.
#[derive(Debug, Clone, Copy, Default)]
pub struct BerCounter {
    errors: u64,
    bits: u64,
}

impl BerCounter {
    /// Empty counter.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records a batch.
    pub fn record(&mut self, errors: usize, bits: usize) {
        assert!(errors <= bits, "more errors than bits");
        self.errors += errors as u64;
        self.bits += bits as u64;
    }

    /// Merges another counter.
    pub fn merge(&mut self, other: &BerCounter) {
        self.errors += other.errors;
        self.bits += other.bits;
    }

    /// Total bits observed.
    pub fn bits(&self) -> u64 {
        self.bits
    }

    /// Total errors observed.
    pub fn errors(&self) -> u64 {
        self.errors
    }

    /// Point estimate (0.0 when no bits observed).
    pub fn ber(&self) -> f64 {
        if self.bits == 0 {
            0.0
        } else {
            self.errors as f64 / self.bits as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vab_util::approx_eq;
    use vab_util::db::db_to_lin_pow;

    #[test]
    fn orthogonal_known_points() {
        // Eb/N0 = 0 → 0.5·e^0 → 0.5 cap; 10 dB → 0.5·e^−5 ≈ 3.37e−3.
        assert!(approx_eq(ber_noncoherent_orthogonal(db_to_lin_pow(10.0)), 3.369e-3, 1e-3));
        assert_eq!(ber_noncoherent_orthogonal(0.0), 0.5);
    }

    #[test]
    fn bpsk_beats_noncoherent_orthogonal() {
        for db in [4.0, 8.0, 12.0] {
            let e = db_to_lin_pow(db);
            assert!(ber_coherent_bpsk(e) < ber_noncoherent_orthogonal(e));
        }
    }

    #[test]
    fn ook_between_half_and_zero_and_monotone() {
        let mut prev = 0.51;
        for db in [0.0, 4.0, 8.0, 12.0, 16.0] {
            let b = ber_ook_noncoherent(db_to_lin_pow(db));
            assert!(b < prev, "BER must fall with SNR: {b} at {db} dB");
            assert!(b <= 0.5);
            prev = b;
        }
    }

    #[test]
    fn required_ebn0_inverts_formula() {
        for ber in [1e-2, 1e-3, 1e-5] {
            let db = required_ebn0_db(ber);
            let back = ber_noncoherent_orthogonal(db_to_lin_pow(db));
            assert!(approx_eq(back, ber, 1e-6), "{back} vs {ber}");
        }
    }

    #[test]
    fn ber_1e3_needs_about_11_db() {
        // Rule of thumb for noncoherent orthogonal: BER 1e−3 ↔ ~10.9 dB.
        let db = required_ebn0_db(1e-3);
        assert!(db > 10.0 && db < 12.0, "got {db}");
    }

    #[test]
    fn counter_accumulates_and_merges() {
        let mut a = BerCounter::new();
        a.record(3, 1000);
        let mut b = BerCounter::new();
        b.record(1, 1000);
        a.merge(&b);
        assert_eq!(a.errors(), 4);
        assert_eq!(a.bits(), 2000);
        assert!(approx_eq(a.ber(), 2e-3, 1e-12));
    }

    #[test]
    #[should_panic(expected = "more errors than bits")]
    fn counter_rejects_impossible_batch() {
        BerCounter::new().record(5, 3);
    }
}
