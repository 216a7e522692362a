//! Backscatter modulation: bits → switch states → reflection stream.

use crate::fm0::fm0_encode;
use vab_util::complex::C64;
use vab_util::units::Hertz;

/// Modulation parameters shared by modulator and demodulator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ModParams {
    /// Uplink bit rate, bits/s.
    pub bit_rate: f64,
    /// Baseband samples per FM0 chip (two chips per bit).
    pub samples_per_chip: usize,
    /// Acoustic carrier.
    pub carrier: Hertz,
}

impl ModParams {
    /// The default VAB operating point: 18.5 kHz carrier, 100 bps, 8 samples
    /// per chip.
    pub fn vab_default() -> Self {
        Self { bit_rate: 100.0, samples_per_chip: 8, carrier: Hertz(18_500.0) }
    }

    /// With a different bit rate.
    pub fn with_bit_rate(mut self, bps: f64) -> Self {
        assert!(bps > 0.0);
        self.bit_rate = bps;
        self
    }

    /// Chip rate (2× bit rate for FM0).
    pub fn chip_rate(&self) -> f64 {
        2.0 * self.bit_rate
    }

    /// Baseband envelope sample rate.
    pub fn baseband_fs(&self) -> f64 {
        self.chip_rate() * self.samples_per_chip as f64
    }

    /// Samples in a whole bit.
    pub fn samples_per_bit(&self) -> usize {
        2 * self.samples_per_chip
    }
}

/// Turns payload bits into the node's switch-control waveform.
#[derive(Debug, Clone)]
pub struct BackscatterModulator {
    params: ModParams,
}

impl BackscatterModulator {
    /// Creates a modulator.
    pub fn new(params: ModParams) -> Self {
        assert!(params.samples_per_chip >= 1);
        Self { params }
    }

    /// Parameters in use.
    pub fn params(&self) -> &ModParams {
        &self.params
    }

    /// FM0 switch waveform: one `±1.0` entry per baseband sample.
    /// `+1` = reflect state, `−1` = absorb state.
    pub fn switch_waveform(&self, bits: &[bool]) -> Vec<f64> {
        let chips = fm0_encode(bits);
        let spc = self.params.samples_per_chip;
        let mut w = Vec::with_capacity(chips.len() * spc);
        for c in chips {
            for _ in 0..spc {
                w.push(c);
            }
        }
        w
    }

    /// The reflection-coefficient stream seen by the incident wave, given
    /// the two state coefficients: `Γ(t) ∈ {γ_reflect, γ_absorb}`.
    fn gamma_stream(&self, bits: &[bool], g_reflect: C64, g_absorb: C64) -> Vec<C64> {
        self.switch_waveform(bits)
            .into_iter()
            .map(|s| if s > 0.0 { g_reflect } else { g_absorb })
            .collect()
    }

    /// Modulates an incident baseband envelope: element-wise product with
    /// the Γ stream (zero-padded with the absorb state past the data).
    pub fn backscatter(
        &self,
        incident: &[C64],
        bits: &[bool],
        g_reflect: C64,
        g_absorb: C64,
    ) -> Vec<C64> {
        let stream = self.gamma_stream(bits, g_reflect, g_absorb);
        incident.iter().enumerate().map(|(i, &x)| x * *stream.get(i).unwrap_or(&g_absorb)).collect()
    }

    /// Duration of `n_bits` of payload, seconds.
    pub fn duration(&self, n_bits: usize) -> f64 {
        n_bits as f64 / self.params.bit_rate
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vab_util::approx_eq;

    fn p() -> ModParams {
        ModParams::vab_default()
    }

    #[test]
    fn rates_are_consistent() {
        let params = p();
        assert_eq!(params.chip_rate(), 200.0);
        assert_eq!(params.baseband_fs(), 1600.0);
        assert_eq!(params.samples_per_bit(), 16);
    }

    #[test]
    fn switch_waveform_length_and_levels() {
        let m = BackscatterModulator::new(p());
        let bits = vec![true, false, true];
        let w = m.switch_waveform(&bits);
        assert_eq!(w.len(), bits.len() * p().samples_per_bit());
        assert!(w.iter().all(|&v| v == 1.0 || v == -1.0));
    }

    #[test]
    fn waveform_is_piecewise_constant_per_chip() {
        let m = BackscatterModulator::new(p());
        let w = m.switch_waveform(&[true, false]);
        let spc = p().samples_per_chip;
        for chip in w.chunks(spc) {
            assert!(chip.iter().all(|&v| v == chip[0]));
        }
    }

    #[test]
    fn gamma_stream_selects_states() {
        let m = BackscatterModulator::new(p());
        let gr = C64::new(0.9, 0.1);
        let ga = C64::new(0.1, -0.2);
        let stream = m.gamma_stream(&[true], gr, ga);
        assert!(stream.iter().all(|&g| g == gr || g == ga));
        // A "1" bit holds one level for the whole bit.
        assert!(stream.iter().all(|&g| g == stream[0]));
    }

    #[test]
    fn backscatter_scales_incident() {
        let m = BackscatterModulator::new(p());
        let incident = vec![C64::real(2.0); 64];
        let out = m.backscatter(&incident, &[true, false], C64::ONE, C64::ZERO);
        // Reflect samples keep amplitude 2, absorb samples are 0.
        assert!(out.iter().all(|c| approx_eq(c.abs(), 2.0, 1e-12) || c.abs() < 1e-12));
        assert!(out.iter().any(|c| c.abs() > 1.0));
        assert!(out.iter().any(|c| c.abs() < 1.0));
    }

    #[test]
    fn backscatter_pads_with_absorb_state() {
        let m = BackscatterModulator::new(p());
        let incident = vec![C64::ONE; 100]; // longer than 2 bits × 16 samples
        let out = m.backscatter(&incident, &[true, true], C64::ONE, C64::ZERO);
        assert!(out[32..].iter().all(|c| c.abs() < 1e-12));
    }

    #[test]
    fn duration_is_bits_over_rate() {
        let m = BackscatterModulator::new(p().with_bit_rate(500.0));
        assert!(approx_eq(m.duration(100), 0.2, 1e-12));
    }
}
