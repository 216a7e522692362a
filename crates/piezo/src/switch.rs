//! The modulation switch and its non-idealities.
//!
//! A real node toggles its load with an analog switch / FET whose on
//! resistance, off capacitance, finite transition time and gate energy all
//! eat into the ideal modulation depth and the power budget. This module
//! quantifies those effects so the ablation experiments can sweep them.

use crate::bvd::Bvd;
use crate::reflection::{gamma, Load};
use vab_util::complex::C64;
use vab_util::units::Hertz;
use vab_util::TAU;

/// An analog switch model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Switch {
    /// On-state series resistance, ohms.
    pub r_on: f64,
    /// Off-state parallel capacitance, farads.
    pub c_off: f64,
    /// Gate charge energy per transition, joules.
    pub energy_per_toggle: f64,
    /// 10–90 % transition time, seconds.
    pub transition_time: f64,
}

impl Switch {
    /// A typical ultra-low-power analog switch (e.g. the class of parts used
    /// in backscatter nodes): 2 Ω on, 15 pF off, ~50 pJ per toggle, 50 ns
    /// transitions.
    pub fn typical() -> Self {
        Self { r_on: 2.0, c_off: 15e-12, energy_per_toggle: 50e-12, transition_time: 50e-9 }
    }

    /// An idealized switch for ablation comparisons.
    pub fn ideal() -> Self {
        Self { r_on: 0.0, c_off: 0.0, energy_per_toggle: 0.0, transition_time: 0.0 }
    }

    /// Impedance presented by an SPDT arrangement with `selected` connected
    /// through the on-resistance and `deselected` hanging in parallel behind
    /// the off-capacitance of its (open) switch.
    fn presented_impedance(
        &self,
        transducer: &Bvd,
        selected: Load,
        deselected: Load,
        f: Hertz,
    ) -> C64 {
        let z_sel = C64::real(self.r_on) + selected.impedance(transducer, f);
        if self.c_off <= 0.0 {
            return z_sel; // ideal open switch fully isolates the other branch
        }
        let w = TAU * f.value();
        let z_coff = C64::new(0.0, -1.0 / (w * self.c_off));
        let z_desel = z_coff + deselected.impedance(transducer, f);
        (z_sel * z_desel) / (z_sel + z_desel)
    }

    /// Realized modulation depth when an SPDT toggles the transducer between
    /// the `reflect` and `absorb` branches through this switch.
    pub fn realized_modulation_depth(
        &self,
        transducer: &Bvd,
        reflect: Load,
        absorb: Load,
        f: Hertz,
    ) -> f64 {
        let g_r = gamma(
            transducer,
            Load::Custom(self.presented_impedance(transducer, reflect, absorb, f)),
            f,
        );
        let g_a = gamma(
            transducer,
            Load::Custom(self.presented_impedance(transducer, absorb, reflect, f)),
            f,
        );
        (g_r - g_a).abs() / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reflection::ModulationStates;
    use vab_util::approx_eq;

    fn t() -> Bvd {
        Bvd::vab_default()
    }

    #[test]
    fn ideal_switch_matches_pure_states() {
        let tr = t();
        let f0 = tr.series_resonance();
        let states = ModulationStates::vab(&tr, f0);
        let pure = states.modulation_depth(&tr, f0);
        let with_ideal =
            Switch::ideal().realized_modulation_depth(&tr, states.reflect, states.absorb, f0);
        assert!(approx_eq(pure, with_ideal, 1e-6), "{pure} vs {with_ideal}");
    }

    #[test]
    fn real_switch_degrades_depth_only_slightly() {
        let tr = t();
        let f0 = tr.series_resonance();
        let states = ModulationStates::vab(&tr, f0);
        let pure = states.modulation_depth(&tr, f0);
        let real =
            Switch::typical().realized_modulation_depth(&tr, states.reflect, states.absorb, f0);
        assert!(real > 0.7 * pure, "typical switch should keep most depth: {real} vs {pure}");
    }

    #[test]
    fn huge_off_capacitance_ruins_the_open_state() {
        let tr = t();
        let f0 = tr.series_resonance();
        let bad = Switch { c_off: 100e-9, ..Switch::typical() };
        let states = ModulationStates::vab(&tr, f0);
        let depth = bad.realized_modulation_depth(&tr, states.reflect, states.absorb, f0);
        let good =
            Switch::typical().realized_modulation_depth(&tr, states.reflect, states.absorb, f0);
        assert!(depth < good, "100 nF C_off should hurt: {depth} vs {good}");
    }
}
