//! Butterworth–Van Dyke (BVD) equivalent circuit.
//!
//! A piezoelectric transducer near one resonance is electrically equivalent
//! to a static capacitance `C0` in parallel with a *motional* RLC branch
//! (`Rm`, `Lm`, `Cm`) that represents the mechanical resonance. `Rm` lumps
//! mechanical dissipation **and acoustic radiation into the water** — it is
//! the term through which electrical loading reaches the acoustic field.

use vab_util::complex::C64;
use vab_util::units::Hertz;
use vab_util::TAU;

/// BVD circuit parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Bvd {
    /// Static (blocked) capacitance, farads.
    pub c0: f64,
    /// Motional resistance, ohms (mechanical loss + radiation).
    pub rm: f64,
    /// Motional inductance, henries (moving mass).
    pub lm: f64,
    /// Motional capacitance, farads (compliance).
    pub cm: f64,
}

impl Bvd {
    /// Builds a BVD model from resonance targets instead of raw elements:
    /// series-resonance frequency `fs`, mechanical quality factor `q`,
    /// static capacitance `c0`, and the capacitance ratio `cm/c0`.
    ///
    /// This is how transducer datasheets are usually stated.
    pub fn from_resonance(fs: Hertz, q: f64, c0: f64, cap_ratio: f64) -> Self {
        assert!(fs.value() > 0.0 && q > 0.0 && c0 > 0.0 && cap_ratio > 0.0);
        let cm = c0 * cap_ratio;
        let w = TAU * fs.value();
        let lm = 1.0 / (w * w * cm);
        let rm = w * lm / q;
        Self { c0, rm, lm, cm }
    }

    /// The transducer used throughout the VAB reproduction: a water-loaded
    /// cylindrical piezo resonant at 18.5 kHz with Q ≈ 9 — representative of
    /// the potted PZT cylinders used by the MIT underwater backscatter
    /// hardware.
    pub fn vab_default() -> Self {
        Self::from_resonance(Hertz(18_500.0), 9.0, 10e-9, 0.08)
    }

    /// Complex electrical impedance at frequency `f`.
    pub fn impedance(&self, f: Hertz) -> C64 {
        let w = TAU * f.value();
        let z_c0 = C64::new(0.0, -1.0 / (w * self.c0));
        let z_mot = C64::new(self.rm, w * self.lm - 1.0 / (w * self.cm));
        // Parallel combination.
        (z_c0 * z_mot) / (z_c0 + z_mot)
    }

    /// Series (motional) resonance frequency — impedance minimum.
    pub fn series_resonance(&self) -> Hertz {
        Hertz(1.0 / (TAU * (self.lm * self.cm).sqrt()))
    }

    /// Parallel (anti-)resonance frequency — impedance maximum.
    #[cfg(test)]
    fn parallel_resonance(&self) -> Hertz {
        let c_eff = self.c0 * self.cm / (self.c0 + self.cm);
        Hertz(1.0 / (TAU * (self.lm * c_eff).sqrt()))
    }

    /// Mechanical quality factor `ω_s·Lm / Rm`.
    pub fn q_factor(&self) -> f64 {
        TAU * self.series_resonance().value() * self.lm / self.rm
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vab_util::approx_eq;

    #[test]
    fn from_resonance_roundtrips() {
        let b = Bvd::from_resonance(Hertz(18_500.0), 9.0, 10e-9, 0.08);
        assert!(approx_eq(b.series_resonance().value(), 18_500.0, 1e-6));
        assert!(approx_eq(b.q_factor(), 9.0, 1e-9));
    }

    #[test]
    fn impedance_minimum_near_series_resonance() {
        let b = Bvd::vab_default();
        let fs = b.series_resonance().value();
        let at_res = b.impedance(Hertz(fs)).abs();
        let below = b.impedance(Hertz(fs * 0.8)).abs();
        let above = b.impedance(Hertz(fs * 1.2)).abs();
        assert!(at_res < below && at_res < above, "series resonance should be a |Z| dip");
    }

    #[test]
    fn impedance_maximum_near_parallel_resonance() {
        let b = Bvd::vab_default();
        let fp = b.parallel_resonance().value();
        let at_p = b.impedance(Hertz(fp)).abs();
        let off = b.impedance(Hertz(fp * 1.1)).abs();
        assert!(at_p > off, "antiresonance should be a |Z| peak");
    }

    #[test]
    fn parallel_above_series_resonance() {
        let b = Bvd::vab_default();
        assert!(b.parallel_resonance().value() > b.series_resonance().value());
    }

    #[test]
    fn far_below_resonance_is_capacitive() {
        let b = Bvd::vab_default();
        let z = b.impedance(Hertz(1000.0));
        assert!(z.im < 0.0, "low-frequency piezo must look capacitive, Z = {z}");
        // And roughly 1/(ωC_total): at 1 kHz, C ≈ C0+Cm.
        let w = TAU * 1000.0;
        let expect = 1.0 / (w * (b.c0 + b.cm));
        assert!(approx_eq(z.abs(), expect, 0.05), "{} vs {}", z.abs(), expect);
    }

    #[test]
    fn resistance_at_resonance_reduced_by_c0_shunt() {
        let b = Bvd::vab_default();
        let z = b.impedance(b.series_resonance());
        // At fs the motional branch is purely Rm, but C0's reactance is
        // comparable to Rm for this transducer, so the shunt pulls the
        // effective resistance well below Rm while keeping it substantial.
        assert!(z.re > 0.2 * b.rm && z.re < b.rm, "Re Z = {} vs Rm = {}", z.re, b.rm);
        // And the input is reactive — the co-design problem exists.
        assert!(z.im.abs() > 0.2 * z.re, "Z at fs should be visibly reactive, Z = {z}");
    }

    #[test]
    #[should_panic]
    fn invalid_parameters_panic() {
        let _ = Bvd::from_resonance(Hertz(-1.0), 9.0, 10e-9, 0.08);
    }
}
