//! FSK backscatter modulation.
//!
//! Instead of holding the switch for a whole FM0 chip (OOK), the node
//! toggles it at one of two *subcarrier* rates, `f₁` or `f₂`, for each bit.
//! The reader then sees energy at carrier ± f₁ or carrier ± f₂ and decides
//! noncoherently by comparing the two tone energies (Goertzel bins).
//!
//! Why a system would choose it: the subcarriers move the uplink away from
//! the carrier's phase-noise skirt and from DC-coupled clutter, at the cost
//! of switch activity (power) and bandwidth. The paper's line of work uses
//! FM0; FSK is provided as the natural alternative and is exercised by the
//! modulation-comparison ablation.

use crate::modulation::ModParams;
use vab_util::complex::C64;
use vab_util::TAU;

/// FSK configuration on top of the base [`ModParams`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FskParams {
    /// Base PHY parameters (bit rate, oversampling, carrier).
    pub base: ModParams,
    /// Subcarrier for a `0` bit, Hz (as offset from the carrier).
    pub f0_hz: f64,
    /// Subcarrier for a `1` bit, Hz.
    pub f1_hz: f64,
}

impl FskParams {
    /// Orthogonal default: subcarriers at 4× and 8× the bit rate (both an
    /// integer number of cycles per bit → orthogonal over a bit window).
    pub fn vab_default() -> Self {
        let base = ModParams::vab_default();
        Self { base, f0_hz: 4.0 * base.bit_rate, f1_hz: 8.0 * base.bit_rate }
    }

    /// Derives params for a different bit rate, keeping the 4×/8× structure.
    pub fn with_bit_rate(mut self, bps: f64) -> Self {
        self.base = self.base.with_bit_rate(bps);
        self.f0_hz = 4.0 * bps;
        self.f1_hz = 8.0 * bps;
        self
    }

    /// Baseband sample rate (must resolve the faster subcarrier: ≥ 4×f₁).
    pub fn baseband_fs(&self) -> f64 {
        // The base oversampling gives bit_rate × 2 × samples_per_chip;
        // ensure at least 4 samples per fast-subcarrier cycle.
        let base_fs = self.base.baseband_fs();
        let need = 4.0 * self.f1_hz;
        base_fs.max(need)
    }

    /// Samples per bit at [`FskParams::baseband_fs`].
    pub fn samples_per_bit(&self) -> usize {
        (self.baseband_fs() / self.base.bit_rate).round() as usize
    }
}

/// FSK modulator: bits → ±1 switch waveform (square subcarriers).
#[derive(Debug, Clone)]
pub struct FskModulator {
    params: FskParams,
}

impl FskModulator {
    /// Creates a modulator; subcarriers must be distinct and positive.
    pub fn new(params: FskParams) -> Self {
        assert!(params.f0_hz > 0.0 && params.f1_hz > 0.0 && params.f0_hz != params.f1_hz);
        Self { params }
    }

    /// Parameters in use.
    pub fn params(&self) -> &FskParams {
        &self.params
    }

    /// The ±1 switch waveform: a square wave at the bit's subcarrier.
    pub fn switch_waveform(&self, bits: &[bool]) -> Vec<f64> {
        let fs = self.params.baseband_fs();
        let spb = self.params.samples_per_bit();
        let mut w = Vec::with_capacity(bits.len() * spb);
        for (i, &b) in bits.iter().enumerate() {
            let f = if b { self.params.f1_hz } else { self.params.f0_hz };
            for k in 0..spb {
                // Square subcarrier, phase-continuous within the bit.
                let t = (i * spb + k) as f64 / fs;
                let phase = (TAU * f * t).sin();
                w.push(if phase >= 0.0 { 1.0 } else { -1.0 });
            }
        }
        w
    }
}

/// Noncoherent FSK demodulator: per bit, compares Goertzel energy at the
/// two subcarrier offsets of the complex baseband signal.
#[derive(Debug, Clone)]
pub struct FskDemodulator {
    params: FskParams,
}

impl FskDemodulator {
    /// Creates a demodulator.
    pub fn new(params: FskParams) -> Self {
        Self { params }
    }

    /// Complex-baseband Goertzel: Σ x[n]·e^{-j2πf n/fs} over a window.
    fn tone_energy(window: &[C64], f_hz: f64, fs: f64) -> f64 {
        let mut acc = C64::ZERO;
        for (n, &x) in window.iter().enumerate() {
            acc += x * C64::cis(-TAU * f_hz * n as f64 / fs);
        }
        acc.norm_sq()
    }

    /// Demodulates `n_bits` starting at `start`. A square subcarrier puts
    /// energy at ±f and odd harmonics; we test both signs of the
    /// fundamental and sum.
    pub fn demodulate(&self, baseband: &[C64], start: usize, n_bits: usize) -> Vec<bool> {
        let fs = self.params.baseband_fs();
        let spb = self.params.samples_per_bit();
        let mut out = Vec::with_capacity(n_bits);
        for i in 0..n_bits {
            let lo = start + i * spb;
            let hi = lo + spb;
            if hi > baseband.len() {
                break;
            }
            let w = &baseband[lo..hi];
            let e0 = Self::tone_energy(w, self.params.f0_hz, fs)
                + Self::tone_energy(w, -self.params.f0_hz, fs);
            let e1 = Self::tone_energy(w, self.params.f1_hz, fs)
                + Self::tone_energy(w, -self.params.f1_hz, fs);
            out.push(e1 >= e0);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vab_util::rng::{complex_gaussian, random_bits, seeded};

    fn p() -> FskParams {
        FskParams::vab_default()
    }

    #[test]
    fn default_subcarriers_are_orthogonal_multiples() {
        let params = p();
        let per_bit0 = params.f0_hz / params.base.bit_rate;
        let per_bit1 = params.f1_hz / params.base.bit_rate;
        assert_eq!(per_bit0.fract(), 0.0);
        assert_eq!(per_bit1.fract(), 0.0);
        assert!(params.baseband_fs() >= 4.0 * params.f1_hz);
    }

    #[test]
    fn clean_roundtrip() {
        let mut rng = seeded(61);
        let bits = random_bits(&mut rng, 48);
        let m = FskModulator::new(p());
        let wave = m.switch_waveform(&bits);
        let bb: Vec<C64> = wave.iter().map(|&w| C64::from_polar(1.0, 0.9) * w).collect();
        let d = FskDemodulator::new(p());
        let rx = d.demodulate(&bb, 0, bits.len());
        assert_eq!(rx, bits);
    }

    #[test]
    fn roundtrip_with_noise_and_dc_leak() {
        let mut rng = seeded(62);
        let bits = random_bits(&mut rng, 64);
        let m = FskModulator::new(p());
        let wave = m.switch_waveform(&bits);
        // The whole point of FSK: DC clutter does not even need removing,
        // because the decision statistics live at ±f₀/±f₁.
        let bb: Vec<C64> = wave
            .iter()
            .map(|&w| {
                C64::real(50.0) + C64::from_polar(1.0, 0.2) * w + complex_gaussian(&mut rng, 0.8)
            })
            .collect();
        let d = FskDemodulator::new(p());
        let rx = d.demodulate(&bb, 0, bits.len());
        let errors = rx.iter().zip(&bits).filter(|(a, b)| a != b).count();
        assert_eq!(errors, 0, "high-SNR FSK packet must be clean");
    }

    #[test]
    fn heavy_noise_degrades_gracefully() {
        let mut rng = seeded(63);
        let bits = random_bits(&mut rng, 200);
        let m = FskModulator::new(p());
        let wave = m.switch_waveform(&bits);
        let bb: Vec<C64> =
            wave.iter().map(|&w| C64::real(w) + complex_gaussian(&mut rng, 6.0)).collect();
        let d = FskDemodulator::new(p());
        let rx = d.demodulate(&bb, 0, bits.len());
        let errors = rx.iter().zip(&bits).filter(|(a, b)| a != b).count();
        let ber = errors as f64 / bits.len() as f64;
        assert!(ber > 0.0 && ber < 0.5, "BER {ber}");
    }

    #[test]
    fn switch_waveform_is_binary_and_busy() {
        let m = FskModulator::new(p());
        let w = m.switch_waveform(&[true, false]);
        assert!(w.iter().all(|&v| v == 1.0 || v == -1.0));
        // The subcarrier must actually toggle many times per bit.
        let toggles = w.windows(2).filter(|p| p[0] != p[1]).count();
        assert!(toggles > 10, "only {toggles} toggles");
    }

    #[test]
    fn truncated_buffer_returns_fewer_bits() {
        let m = FskModulator::new(p());
        let wave = m.switch_waveform(&[true; 10]);
        let bb: Vec<C64> = wave[..wave.len() / 2].iter().map(|&w| C64::real(w)).collect();
        let d = FskDemodulator::new(p());
        assert!(d.demodulate(&bb, 0, 10).len() < 10);
    }

    #[test]
    fn rate_change_rescales_subcarriers() {
        let params = p().with_bit_rate(500.0);
        assert_eq!(params.f0_hz, 2000.0);
        assert_eq!(params.f1_hz, 4000.0);
    }
}
