//! Electro-acoustic transduction: how volts become micropascals and back.
//!
//! The reproduction models a transducer's transmit voltage response (TVR,
//! dB re 1 µPa·m/V) and open-circuit receive sensitivity (OCV/RVS,
//! dB re 1 V/µPa) as resonance-shaped curves derived from the BVD model:
//! peak values are taken from typical potted-PZT cylinder datasheets and the
//! frequency shape follows the motional branch's Lorentzian response.

use crate::bvd::Bvd;
use vab_util::units::{Db, Hertz};

/// A complete transducer: equivalent circuit + transduction sensitivities.
#[derive(Debug, Clone, Copy)]
pub struct Transducer {
    /// Electrical equivalent circuit.
    pub bvd: Bvd,
    /// TVR at resonance, dB re 1 µPa·m/V.
    pub tvr_peak_db: f64,
    /// Receive sensitivity at resonance, dB re 1 V/µPa.
    pub rvs_peak_db: f64,
    /// Electro-acoustic efficiency at resonance (0..1) — fraction of
    /// electrical power radiated as sound.
    pub efficiency: f64,
}

impl Transducer {
    /// The transducer used across the reproduction. Peak numbers are
    /// representative of the small PZT cylinders used by underwater
    /// backscatter prototypes: TVR ≈ 140 dB re µPa·m/V, RVS ≈ −193 dB re
    /// V/µPa, efficiency ≈ 0.5.
    pub fn vab_default() -> Self {
        Self { bvd: Bvd::vab_default(), tvr_peak_db: 140.0, rvs_peak_db: -193.0, efficiency: 0.5 }
    }

    /// Lorentzian resonance shaping (power units) shared by TVR and RVS.
    fn resonance_shape(&self, f: Hertz) -> f64 {
        let f0 = self.bvd.series_resonance().value();
        let q = self.bvd.q_factor();
        let x = f.value() / f0 - f0 / f.value().max(1.0);
        1.0 / (1.0 + (q * x).powi(2))
    }

    /// Electrical power available to a conjugate-matched load from an
    /// incident pressure level, watts.
    ///
    /// Aperture-based: acoustic intensity `I = p²/(ρc)` collected over the
    /// effective aperture `A_e = D·λ²/4π` (directivity `D ≈ 2` for a small
    /// cylinder near a baffle), scaled by the electro-acoustic efficiency.
    /// This keeps harvesting consistent with the scattering physics: a
    /// transducer can only interact with about a wavelength-squared of the
    /// incident field.
    pub fn available_power(&self, f: Hertz, level_db_upa: Db) -> f64 {
        const RHO_C: f64 = 1.5e6; // water characteristic impedance, Pa·s/m
        const DIRECTIVITY: f64 = 2.0;
        let p_rms_pa = 10f64.powf(level_db_upa.value() / 20.0) * 1e-6; // µPa → Pa
        let intensity = p_rms_pa * p_rms_pa / RHO_C;
        let lambda = 1500.0 / f.value();
        let aperture = DIRECTIVITY * lambda * lambda / (4.0 * std::f64::consts::PI);
        self.efficiency * intensity * aperture * self.resonance_shape(f)
    }

    /// −3 dB bandwidth of the resonance, Hz.
    pub fn bandwidth(&self) -> Hertz {
        let f0 = self.bvd.series_resonance().value();
        Hertz(f0 / self.bvd.q_factor())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vab_util::approx_eq;

    fn t() -> Transducer {
        Transducer::vab_default()
    }

    #[test]
    fn half_power_at_band_edge() {
        let tr = t();
        let f0 = tr.bvd.series_resonance().value();
        let bw = tr.bandwidth().value();
        let edge = tr.tvr_peak_db + 10.0 * tr.resonance_shape(Hertz(f0 + bw / 2.0)).log10();
        // Lorentzian −3 dB point (approximately, thanks to the symmetric x).
        assert!(approx_eq(tr.tvr_peak_db - edge, 3.0, 0.15), "edge drop {}", tr.tvr_peak_db - edge);
    }

    #[test]
    fn available_power_scales_with_level() {
        let tr = t();
        let f0 = tr.bvd.series_resonance();
        let p100 = tr.available_power(f0, Db(100.0));
        let p120 = tr.available_power(f0, Db(120.0));
        // +20 dB pressure → 100× power.
        assert!(approx_eq(p120 / p100, 100.0, 1e-6));
    }

    #[test]
    fn harvesting_magnitude_sanity() {
        // At 160 dB re µPa incident (≈1 Pa, near-field of a strong
        // projector) the µW regime is reachable; at 140 dB it is not.
        let tr = t();
        let f0 = tr.bvd.series_resonance();
        let near = tr.available_power(f0, Db(160.0));
        assert!(near > 1e-6 && near < 1e-5, "P(160 dB) = {near} W (expect a few µW)");
        let far = tr.available_power(f0, Db(140.0));
        assert!(far > 1e-8 && far < 1e-7, "P(140 dB) = {far} W (expect tens of nW)");
    }
}
