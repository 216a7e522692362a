//! Load-dependent acoustic reflection — the heart of backscatter.
//!
//! A transducer terminated in electrical load `Z_L` re-radiates (reflects)
//! a fraction of the incident acoustic wave given by the *power-wave*
//! reflection coefficient (Kurokawa):
//!
//! ```text
//! Γ(Z_L) = (Z_L − Z_t*) / (Z_L + Z_t)
//! ```
//!
//! where `Z_t` is the transducer's electrical impedance (BVD model). A node
//! signals by toggling between two loads; the backscattered *signal*
//! amplitude is proportional to the modulation depth `|Γ₁ − Γ₂| / 2`.
//!
//! The electro-mechanical subtlety the paper exploits: underwater piezos
//! have strongly reactive `Z_t`, so open/short switching — which maximizes
//! |ΔΓ| for a resistive RF antenna — is far from optimal, and a matching
//! network that rotates the two states apart recovers most of the lost
//! modulation depth.

use crate::bvd::Bvd;
use vab_util::complex::C64;
use vab_util::units::Hertz;
use vab_util::TAU;

/// An electrical termination presented to the transducer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Load {
    /// Open circuit (Z → ∞).
    Open,
    /// Short circuit (Z = 0).
    Short,
    /// Pure resistance, ohms.
    Resistor(f64),
    /// Series R–L, ohms and henries.
    SeriesRl(f64, f64),
    /// Series R–C, ohms and farads.
    SeriesRc(f64, f64),
    /// Conjugate match to the transducer at the evaluation frequency
    /// (the maximally *absorptive* state — all power to the harvester).
    ConjugateMatch,
    /// A physical L-section matching network terminated in a resistor —
    /// unlike [`Load::ConjugateMatch`] this is a *fixed* circuit whose match
    /// degrades off its design frequency, like real hardware.
    Matched {
        /// The designed network.
        network: crate::matching::LSection,
        /// Terminating (rectifier input) resistance, ohms.
        r_load: f64,
    },
    /// Arbitrary fixed impedance.
    Custom(C64),
}

impl Load {
    /// Impedance of this load at frequency `f`, given the transducer it
    /// terminates (needed for [`Load::ConjugateMatch`]).
    pub fn impedance(&self, transducer: &Bvd, f: Hertz) -> C64 {
        let w = TAU * f.value();
        match *self {
            Load::Open => C64::new(1e12, 0.0),
            Load::Short => C64::ZERO,
            Load::Resistor(r) => C64::real(r),
            Load::SeriesRl(r, l) => C64::new(r, w * l),
            Load::SeriesRc(r, c) => C64::new(r, -1.0 / (w * c)),
            Load::ConjugateMatch => transducer.impedance(f).conj(),
            Load::Matched { network, r_load } => network.input_impedance(r_load, f),
            Load::Custom(z) => z,
        }
    }
}

/// Power-wave reflection coefficient of `load` on `transducer` at `f`.
pub fn gamma(transducer: &Bvd, load: Load, f: Hertz) -> C64 {
    let zt = transducer.impedance(f);
    let zl = load.impedance(transducer, f);
    (zl - zt.conj()) / (zl + zt)
}

/// Fraction of incident acoustic power absorbed into the electrical load
/// (available for harvesting): `1 − |Γ|²`.
fn absorbed_fraction(transducer: &Bvd, load: Load, f: Hertz) -> f64 {
    (1.0 - gamma(transducer, load, f).norm_sq()).clamp(0.0, 1.0)
}

/// Inverse of [`gamma`]: the load impedance that realizes a desired
/// reflection coefficient `g` on `transducer` at `f`:
/// `Z_L = (Z_t* + g·Z_t) / (1 − g)`.
///
/// Any `|g| < 1` maps to a passive load (positive real part); `|g| = 1`
/// maps to a pure reactance only for the phases a reactance can reach.
pub fn gamma_to_load(transducer: &Bvd, g: C64, f: Hertz) -> C64 {
    let zt = transducer.impedance(f);
    (zt.conj() + g * zt) / (C64::ONE - g)
}

/// Finds the purely reactive load whose reflection coefficient at `f` has
/// the **largest magnitude with a phase we can pair against** — i.e. sweeps
/// X over a dense log grid of both signs (plus open/short) and returns the
/// pair of reactances maximizing |Γ₁ − Γ₂|.
///
/// The search scores about 7,900 pairs, so callers run it once where
/// `(transducer, f)` is fixed and pass the resulting states down. It runs
/// under the `piezo.co_design` stage, whose per-figure call count the
/// allocation gate pins: a search rebuilt inside a trial loop shows there.
fn best_reactive_pair(transducer: &Bvd, f: Hertz) -> (C64, C64, f64) {
    let _t = vab_obs::time_stage("piezo.co_design");
    let mut candidates: Vec<C64> = Vec::with_capacity(130);
    candidates.push(C64::new(1e12, 0.0)); // open
    candidates.push(C64::ZERO); // short
    let mut x = 1.0;
    while x < 1e7 {
        candidates.push(C64::new(0.0, x));
        candidates.push(C64::new(0.0, -x));
        x *= 1.3;
    }
    let gammas: Vec<C64> =
        candidates.iter().map(|&z| gamma(transducer, Load::Custom(z), f)).collect();
    let mut best = (candidates[0], candidates[1], -1.0);
    for i in 0..candidates.len() {
        for j in (i + 1)..candidates.len() {
            let d = (gammas[i] - gammas[j]).abs() / 2.0;
            if d > best.2 {
                best = (candidates[i], candidates[j], d);
            }
        }
    }
    best
}

/// A pair of load states used for on–off backscatter modulation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ModulationStates {
    /// Load in the "reflect" state.
    pub reflect: Load,
    /// Load in the "absorb" state (doubles as the harvesting state).
    pub absorb: Load,
}

impl ModulationStates {
    /// Naive RF-style switching: open vs. short. The baseline the paper
    /// improves upon — for a reactive piezo the two Γs are *not* antipodal
    /// (depth `≈ |cos(arg Z_t)|` instead of 1) and neither state harvests.
    pub fn open_short() -> Self {
        Self { reflect: Load::Open, absorb: Load::Short }
    }

    /// The paper-style electro-mechanical co-design, tuned at `f0`:
    ///
    /// * the **reflect** state is the best reactive (lossless) termination —
    ///   found by sweeping the reactance axis — giving `|Γ_r| ≈ 1`;
    /// * the **absorb** state realizes `|Γ_a| = √(1 − harvest)` *anti-phased*
    ///   against Γ_r, so the pair trades harvested power against modulation
    ///   depth along the Pareto frontier:
    ///   `depth = (|Γ_r| + √(1−h)·|Γ_r|)/2`.
    ///
    /// `harvest` = 1.0 degenerates to a conjugate match (depth ≈ 0.5);
    /// `harvest` = 0.0 gives the maximal-depth reactive pair (depth ≈ 1).
    pub fn co_design(transducer: &Bvd, f0: Hertz, harvest: f64) -> Self {
        assert!((0.0..=1.0).contains(&harvest), "harvest fraction in [0,1]");
        let (z1, z2, _) = best_reactive_pair(transducer, f0);
        // Pick as "reflect" the member whose Γ we keep whole.
        let g1 = gamma(transducer, Load::Custom(z1), f0);
        let g2 = gamma(transducer, Load::Custom(z2), f0);
        let (z_r, g_r) = if g1.abs() >= g2.abs() { (z1, g1) } else { (z2, g2) };
        // Absorb: magnitude √(1−h), phase opposite Γ_r.
        let g_a = C64::from_polar(
            (1.0 - harvest).sqrt().min(0.999_999),
            g_r.arg() + std::f64::consts::PI,
        );
        let z_a = gamma_to_load(transducer, g_a, f0);
        Self { reflect: Load::Custom(z_r), absorb: Load::Custom(z_a) }
    }

    /// The default VAB operating point: half the incident power harvested in
    /// the absorb state, which still keeps ~85 % of the ideal modulation
    /// depth — the "communication + energy" sweet spot.
    pub fn vab(transducer: &Bvd, f0: Hertz) -> Self {
        Self::co_design(transducer, f0, 0.5)
    }

    /// The maximal-depth pair (no harvesting constraint) — used by the
    /// range-oriented experiments.
    pub fn max_depth(transducer: &Bvd, f0: Hertz) -> Self {
        Self::co_design(transducer, f0, 0.0)
    }

    /// Complex modulation difference ΔΓ = Γ_reflect − Γ_absorb at `f`.
    fn delta_gamma(&self, transducer: &Bvd, f: Hertz) -> C64 {
        gamma(transducer, self.reflect, f) - gamma(transducer, self.absorb, f)
    }

    /// Modulation depth |ΔΓ|/2 — the amplitude efficiency of the
    /// backscattered sideband relative to a perfect reflector
    /// (1.0 means ideal ±1 reflection switching).
    pub fn modulation_depth(&self, transducer: &Bvd, f: Hertz) -> f64 {
        self.delta_gamma(transducer, f).abs() / 2.0
    }

    /// Power fraction available to the harvester while in the absorb state.
    pub fn harvest_fraction(&self, transducer: &Bvd, f: Hertz) -> f64 {
        absorbed_fraction(transducer, self.absorb, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vab_util::approx_eq;

    fn t() -> Bvd {
        Bvd::vab_default()
    }

    fn f0() -> Hertz {
        t().series_resonance()
    }

    #[test]
    fn gamma_magnitude_never_exceeds_one() {
        let tr = t();
        for khz in [10.0, 15.0, 18.5, 20.0, 30.0] {
            for load in [
                Load::Open,
                Load::Short,
                Load::Resistor(500.0),
                Load::SeriesRl(100.0, 1e-3),
                Load::SeriesRc(100.0, 1e-8),
                Load::ConjugateMatch,
            ] {
                let g = gamma(&tr, load, Hertz::from_khz(khz)).abs();
                assert!(g <= 1.0 + 1e-9, "|Γ|={g} for {load:?} at {khz} kHz");
            }
        }
    }

    #[test]
    fn conjugate_match_fully_absorbs() {
        let g = gamma(&t(), Load::ConjugateMatch, f0());
        assert!(g.abs() < 1e-9, "match should have Γ = 0, got {g}");
        assert!(approx_eq(absorbed_fraction(&t(), Load::ConjugateMatch, f0()), 1.0, 1e-9));
    }

    #[test]
    fn open_reflects_nearly_everything() {
        let g = gamma(&t(), Load::Open, f0()).abs();
        assert!(g > 0.95, "open-circuit |Γ| = {g}");
    }

    #[test]
    fn open_short_depth_limited_by_piezo_reactance() {
        // For a reactive Z_t, Γ_open and Γ_short are not antipodal:
        // depth ≈ |cos(arg Z_t)| < 1. This is the electro-mechanical
        // problem the paper's co-design solves.
        let tr = t();
        let naive = ModulationStates::open_short().modulation_depth(&tr, f0());
        assert!(naive < 0.85, "reactive piezo should cap open/short depth, got {naive}");
        assert!(naive > 0.3, "but it should not vanish, got {naive}");
    }

    #[test]
    fn vab_states_beat_open_short_at_resonance() {
        let tr = t();
        let naive = ModulationStates::open_short().modulation_depth(&tr, f0());
        let vab = ModulationStates::vab(&tr, f0()).modulation_depth(&tr, f0());
        assert!(vab > naive, "co-designed states ({vab:.3}) must beat open/short ({naive:.3})");
        assert!(vab > 0.75, "VAB modulation depth {vab:.3} too small");
    }

    #[test]
    fn max_depth_pair_approaches_ideal() {
        let tr = t();
        let depth = ModulationStates::max_depth(&tr, f0()).modulation_depth(&tr, f0());
        assert!(depth > 0.9, "optimal reactive pair should near depth 1, got {depth}");
    }

    #[test]
    fn vab_state_harvests_while_open_short_does_not() {
        let tr = t();
        let vab = ModulationStates::vab(&tr, f0()).harvest_fraction(&tr, f0());
        let naive = ModulationStates::open_short().harvest_fraction(&tr, f0());
        assert!((vab - 0.5).abs() < 0.05, "co-design targeted h = 0.5, got {vab}");
        assert!(naive < 0.1, "open/short should harvest ~nothing, got {naive}");
    }

    #[test]
    fn co_design_tradeoff_is_monotonic() {
        // More harvesting → less modulation depth, along the frontier.
        let tr = t();
        let mut prev_depth = f64::INFINITY;
        for h in [0.0, 0.25, 0.5, 0.75, 1.0] {
            let s = ModulationStates::co_design(&tr, f0(), h);
            let depth = s.modulation_depth(&tr, f0());
            let harvest = s.harvest_fraction(&tr, f0());
            assert!((harvest - h).abs() < 0.05, "harvest {harvest} ≠ target {h}");
            assert!(depth <= prev_depth + 1e-9, "depth must fall as h rises");
            prev_depth = depth;
        }
    }

    #[test]
    fn modulation_depth_peaks_near_resonance() {
        // A pair *designed at f0* loses depth off-resonance.
        let tr = t();
        let states = ModulationStates::vab(&tr, f0());
        let at_res = states.modulation_depth(&tr, f0());
        let off = states.modulation_depth(&tr, Hertz(f0().value() * 1.3));
        assert!(at_res > off, "depth should fall off resonance: {at_res} vs {off}");
    }

    #[test]
    fn gamma_to_load_inverts_gamma() {
        let tr = t();
        for g in [C64::new(0.3, 0.2), C64::new(-0.5, 0.4), C64::from_polar(0.9, 2.0), C64::ZERO] {
            let z = gamma_to_load(&tr, g, f0());
            let back = gamma(&tr, Load::Custom(z), f0());
            assert!((back - g).abs() < 1e-9, "γ {g} → Z {z} → {back}");
            assert!(z.re >= -1e-6, "passive load must have Re Z ≥ 0, got {z}");
        }
    }

    #[test]
    fn delta_gamma_antisymmetric() {
        let tr = t();
        let a = ModulationStates { reflect: Load::Open, absorb: Load::Short };
        let b = ModulationStates { reflect: Load::Short, absorb: Load::Open };
        let da = a.delta_gamma(&tr, f0());
        let db = b.delta_gamma(&tr, f0());
        assert!((da + db).abs() < 1e-12);
    }
}
