//! L-section matching networks.
//!
//! The harvesting/absorb state wants a conjugate match between the piezo and
//! the (roughly resistive) rectifier input. A two-element L-section is what
//! an actual node can afford; this module designs one and evaluates how much
//! of the ideal modulation depth and harvested power it recovers across
//! frequency — feeding the "matching ablation" experiment.

use crate::bvd::Bvd;
use vab_util::complex::C64;
use vab_util::units::Hertz;

/// Which side of the L carries the shunt element.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Topology {
    /// Series element at the source, shunt element across the load:
    /// `Z_in = jX + (R_L ∥ jB⁻¹)`. Used when stepping resistance **down**.
    ShuntAtLoad,
    /// Series element at the load, shunt element at the source:
    /// `Y_in = jB + 1/(R_L + jX)`. Used when stepping resistance **up**.
    ShuntAtSource,
}

/// A two-element matching network designed at `f0`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LSection {
    /// Series reactance at the design frequency (ohms, sign included).
    pub series_reactance: f64,
    /// Shunt susceptance at the design frequency (siemens, sign included).
    pub shunt_susceptance: f64,
    /// Design frequency.
    pub f0: Hertz,
    /// Element arrangement.
    pub topology: Topology,
}

impl LSection {
    /// Designs an L-section that makes a resistive load `r_load` look like
    /// the conjugate of the transducer impedance at `f0` (perfect power
    /// transfer into the rectifier).
    ///
    /// Returns `None` only for non-positive inputs; one of the two L
    /// topologies can always match two impedances with positive real parts.
    pub fn design(transducer: &Bvd, r_load: f64, f0: Hertz) -> Option<LSection> {
        let target = transducer.impedance(f0).conj(); // Z_in goal
        let rt = target.re;
        let xt = target.im;
        if rt <= 0.0 || r_load <= 0.0 {
            return None;
        }
        if r_load >= rt {
            // Step down: shunt across the load, series toward the source.
            let q = (r_load / rt - 1.0).sqrt();
            let b = q / r_load;
            let z_par = (C64::real(r_load).inv() + C64::new(0.0, b)).inv();
            let x_series = xt - z_par.im;
            Some(LSection {
                series_reactance: x_series,
                shunt_susceptance: b,
                f0,
                topology: Topology::ShuntAtLoad,
            })
        } else {
            // Step up: series at the load, shunt at the source.
            // Need Re(1/(R_L + jX)) = Re(1/Z_target) = G_t.
            let g_t = rt / (rt * rt + xt * xt);
            let x2 = r_load / g_t - r_load * r_load;
            if x2 < 0.0 {
                return None; // cannot happen for r_load < rt, kept as a guard
            }
            let x1 = x2.sqrt();
            let y1 = C64::new(r_load, x1).inv();
            let b_target = -xt / (rt * rt + xt * xt); // Im(1/Z_target)
            let b = b_target - y1.im;
            Some(LSection {
                series_reactance: x1,
                shunt_susceptance: b,
                f0,
                topology: Topology::ShuntAtSource,
            })
        }
    }

    /// Input impedance seen from the transducer when the network terminates
    /// in resistive `r_load`, evaluated at frequency `f` (ideal L/C elements
    /// scale their reactance away from `f0`).
    pub fn input_impedance(&self, r_load: f64, f: Hertz) -> C64 {
        let ratio = f.value() / self.f0.value();
        // Positive reactance = inductor (∝ f); negative = capacitor (∝ 1/f).
        let x_ser = if self.series_reactance >= 0.0 {
            self.series_reactance * ratio
        } else {
            self.series_reactance / ratio
        };
        // Positive susceptance = capacitor (∝ f); negative = inductor (∝ 1/f).
        let b_sh = if self.shunt_susceptance >= 0.0 {
            self.shunt_susceptance * ratio
        } else {
            self.shunt_susceptance / ratio
        };
        match self.topology {
            Topology::ShuntAtLoad => {
                let z_par = (C64::real(r_load).inv() + C64::new(0.0, b_sh)).inv();
                z_par + C64::new(0.0, x_ser)
            }
            Topology::ShuntAtSource => {
                let z_ser = C64::new(r_load, x_ser);
                (z_ser.inv() + C64::new(0.0, b_sh)).inv()
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reflection::Load;

    /// Reflection coefficient achieved at `f` with `net` and its load
    /// resistor in place.
    fn achieved_gamma(net: &LSection, transducer: &Bvd, r_load: f64, f: Hertz) -> C64 {
        crate::reflection::gamma(transducer, Load::Custom(net.input_impedance(r_load, f)), f)
    }

    fn t() -> Bvd {
        Bvd::vab_default()
    }

    #[test]
    fn design_achieves_match_at_f0_step_down() {
        let tr = t();
        let f0 = tr.series_resonance();
        // Transducer Re(Z) at resonance is ~1 kΩ; these step down.
        for r_load in [2000.0, 10_000.0, 100_000.0] {
            let net = LSection::design(&tr, r_load, f0)
                .unwrap_or_else(|| panic!("design failed for {r_load} Ω"));
            assert_eq!(net.topology, Topology::ShuntAtLoad);
            let g = achieved_gamma(&net, &tr, r_load, f0).abs();
            assert!(g < 1e-6, "|Γ| = {g} for r_load = {r_load}");
        }
    }

    #[test]
    fn design_achieves_match_at_f0_step_up() {
        let tr = t();
        let f0 = tr.series_resonance();
        for r_load in [10.0, 50.0, 200.0] {
            let net = LSection::design(&tr, r_load, f0)
                .unwrap_or_else(|| panic!("design failed for {r_load} Ω"));
            let g = achieved_gamma(&net, &tr, r_load, f0).abs();
            assert!(g < 1e-6, "|Γ| = {g} for r_load = {r_load} ({:?})", net.topology);
        }
    }

    #[test]
    fn match_degrades_off_frequency() {
        let tr = t();
        let f0 = tr.series_resonance();
        let net = LSection::design(&tr, 1000.0, f0).expect("design");
        let at = achieved_gamma(&net, &tr, 1000.0, f0).abs();
        let off = achieved_gamma(&net, &tr, 1000.0, Hertz(f0.value() * 1.15)).abs();
        assert!(off > at + 0.1, "mismatch should grow off-frequency: {at} → {off}");
    }

    #[test]
    fn input_impedance_equals_conjugate_at_f0() {
        let tr = t();
        let f0 = tr.series_resonance();
        for r_load in [100.0, 5000.0] {
            let net = LSection::design(&tr, r_load, f0).expect("design");
            let zin = net.input_impedance(r_load, f0);
            let want = tr.impedance(f0).conj();
            assert!((zin - want).abs() < 1e-6 * want.abs().max(1.0), "{zin} vs {want}");
        }
    }

    #[test]
    fn matched_load_variant_tracks_the_network() {
        use crate::reflection::{gamma, Load};
        let tr = t();
        let f0 = tr.series_resonance();
        let net = LSection::design(&tr, 1000.0, f0).expect("design");
        let load = Load::Matched { network: net, r_load: 1000.0 };
        // Perfect at the design frequency…
        assert!(gamma(&tr, load, f0).abs() < 1e-6);
        // …and degrading off-frequency exactly like the raw network.
        let f_off = Hertz(f0.value() * 1.1);
        let via_load = gamma(&tr, load, f_off).abs();
        let via_net = achieved_gamma(&net, &tr, 1000.0, f_off).abs();
        assert!((via_load - via_net).abs() < 1e-12);
        assert!(via_load > 0.05, "off-frequency mismatch should be visible");
    }
}
