//! The reader's uplink demodulator.
//!
//! Chain: complex baseband in → carrier (DC) removal → per-chip integration
//! (matched filter for the rectangular chip) → noncoherent FM0 decision.

use crate::carrier::remove_dc_sliding;
use crate::fm0::fm0_decode_soft;
use crate::modulation::ModParams;
use vab_util::complex::C64;

/// Uplink demodulator.
#[derive(Debug, Clone)]
pub struct Demodulator {
    params: ModParams,
    /// Sliding DC-removal window in samples (0 disables removal — for
    /// pre-cleaned input).
    dc_window: usize,
}

impl Demodulator {
    /// Creates a demodulator with a DC-tracking window of ~32 bits.
    pub fn new(params: ModParams) -> Self {
        let dc_window = params.samples_per_bit() * 32;
        Self { params, dc_window }
    }

    /// Disables internal carrier removal (input already cleaned).
    pub fn without_dc_removal(mut self) -> Self {
        self.dc_window = 0;
        self
    }

    /// Parameters in use.
    pub fn params(&self) -> &ModParams {
        &self.params
    }

    /// Integrates the baseband into per-chip soft symbols starting at
    /// `start` (sample index of the first payload chip).
    fn chip_integrate(&self, baseband: &[C64], start: usize, n_bits: usize) -> Vec<C64> {
        let spc = self.params.samples_per_chip;
        let n_chips = n_bits * 2;
        let mut out = Vec::with_capacity(n_chips);
        for c in 0..n_chips {
            let lo = start + c * spc;
            let hi = lo + spc;
            if hi > baseband.len() {
                break;
            }
            let sum: C64 = baseband[lo..hi].iter().copied().sum();
            out.push(sum / spc as f64);
        }
        out
    }

    /// Demodulates `n_bits` starting at sample `start`. Returns fewer bits
    /// if the buffer runs out.
    pub fn demodulate(&self, baseband: &[C64], start: usize, n_bits: usize) -> Vec<bool> {
        let cleaned;
        let view: &[C64] = if self.dc_window > 0 {
            cleaned = remove_dc_sliding(baseband, self.dc_window);
            &cleaned
        } else {
            baseband
        };
        let chips = self.chip_integrate(view, start, n_bits);
        let usable = chips.len() - chips.len() % 2;
        fm0_decode_soft(&chips[..usable]).unwrap_or_default()
    }

    /// Per-bit soft decision statistic `|c₀+c₁|² − |c₀−c₁|²` (positive ⇒ 1).
    /// Exposed for soft-input FEC decoders.
    pub fn soft_bits(&self, baseband: &[C64], start: usize, n_bits: usize) -> Vec<f64> {
        let cleaned;
        let view: &[C64] = if self.dc_window > 0 {
            cleaned = remove_dc_sliding(baseband, self.dc_window);
            &cleaned
        } else {
            baseband
        };
        let chips = self.chip_integrate(view, start, n_bits);
        chips.chunks_exact(2).map(|p| (p[0] + p[1]).norm_sq() - (p[0] - p[1]).norm_sq()).collect()
    }
}

/// Counts bit errors between transmitted and received bit vectors (compares
/// the overlapping prefix; missing bits count as errors).
pub fn count_bit_errors(tx: &[bool], rx: &[bool]) -> usize {
    let overlap = tx.len().min(rx.len());
    let mismatches = tx[..overlap].iter().zip(&rx[..overlap]).filter(|(a, b)| a != b).count();
    mismatches + (tx.len() - overlap)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::modulation::BackscatterModulator;
    use vab_util::rng::{complex_gaussian, random_bits, seeded};

    fn params() -> ModParams {
        ModParams::vab_default()
    }

    #[test]
    fn clean_roundtrip_zero_errors() {
        let mut rng = seeded(21);
        let bits = random_bits(&mut rng, 64);
        let m = BackscatterModulator::new(params());
        let wave = m.switch_waveform(&bits);
        let bb: Vec<C64> = wave.iter().map(|&w| C64::from_polar(0.3, 1.9) * w).collect();
        let d = Demodulator::new(params()).without_dc_removal();
        let rx = d.demodulate(&bb, 0, bits.len());
        assert_eq!(count_bit_errors(&bits, &rx), 0);
    }

    #[test]
    fn roundtrip_with_carrier_leak_and_noise() {
        let mut rng = seeded(22);
        let bits = random_bits(&mut rng, 128);
        let m = BackscatterModulator::new(params());
        let wave = m.switch_waveform(&bits);
        let bb: Vec<C64> = wave
            .iter()
            .map(|&w| {
                C64::real(40.0) + C64::from_polar(1.0, 0.4) * w + complex_gaussian(&mut rng, 0.5)
            })
            .collect();
        let d = Demodulator::new(params());
        let rx = d.demodulate(&bb, 0, bits.len());
        assert_eq!(count_bit_errors(&bits, &rx), 0, "high-SNR packet must be clean");
    }

    #[test]
    fn heavy_noise_produces_errors_but_not_collapse() {
        let mut rng = seeded(23);
        let bits = random_bits(&mut rng, 400);
        let m = BackscatterModulator::new(params());
        let wave = m.switch_waveform(&bits);
        // Chip SNR ≈ −6 dB before integration.
        let bb: Vec<C64> =
            wave.iter().map(|&w| C64::real(w) + complex_gaussian(&mut rng, 2.0)).collect();
        let d = Demodulator::new(params()).without_dc_removal();
        let rx = d.demodulate(&bb, 0, bits.len());
        let errors = count_bit_errors(&bits, &rx);
        let ber = errors as f64 / bits.len() as f64;
        assert!(ber > 0.0, "this SNR should produce some errors");
        assert!(ber < 0.5, "demod should still beat coin-flipping, BER = {ber}");
    }

    #[test]
    fn soft_bits_sign_matches_hard_decisions() {
        let mut rng = seeded(24);
        let bits = random_bits(&mut rng, 32);
        let m = BackscatterModulator::new(params());
        let wave = m.switch_waveform(&bits);
        let bb: Vec<C64> = wave.iter().map(|&w| C64::from_polar(1.0, 0.2) * w).collect();
        let d = Demodulator::new(params()).without_dc_removal();
        let soft = d.soft_bits(&bb, 0, bits.len());
        let hard = d.demodulate(&bb, 0, bits.len());
        for (s, h) in soft.iter().zip(&hard) {
            assert_eq!(*s >= 0.0, *h);
        }
    }

    #[test]
    fn truncated_buffer_returns_fewer_bits() {
        let m = BackscatterModulator::new(params());
        let bits = vec![true; 10];
        let wave = m.switch_waveform(&bits);
        let bb: Vec<C64> = wave[..wave.len() / 2].iter().map(|&w| C64::real(w)).collect();
        let d = Demodulator::new(params()).without_dc_removal();
        let rx = d.demodulate(&bb, 0, 10);
        assert!(rx.len() < 10);
    }

    #[test]
    fn count_bit_errors_handles_length_mismatch() {
        let tx = vec![true, true, false, false];
        let rx = vec![true, false];
        // one mismatch in overlap + two missing
        assert_eq!(count_bit_errors(&tx, &rx), 3);
        assert_eq!(count_bit_errors(&tx, &tx), 0);
    }
}
