//! Van Atta array geometry and retrodirective scattering.
//!
//! ## The retrodirective mechanism
//!
//! Elements sit on a line, symmetric about the array centre, and element `i`
//! is wired to its mirror image `N−1−i` through an equal-length transmission
//! line. A plane wave from direction θ deposits phase
//! `φᵢ = k·xᵢ·sin θ` on element `i`; the pair swap re-radiates that signal
//! from `x_{N−1−i} = −xᵢ`, whose radiation toward θ adds phase
//! `−k·xᵢ·sin θ = −φᵢ`. Every pair's round-trip phase is therefore
//! **independent of θ** — the array re-radiates a conjugated (time-reversed)
//! wavefront straight back at the source, with the full `N`-element coherent
//! gain at any incidence angle.
//!
//! A conventional backscatter array (each element terminated individually,
//! no swap) re-radiates with phase `2φᵢ`, which only adds coherently at
//! broadside — that is the baseline VAB's orientation study compares against.

use vab_piezo::reflection::ModulationStates;
use vab_piezo::switch::Switch;
use vab_piezo::transduction::Transducer;
use vab_util::complex::C64;
use vab_util::units::{Degrees, Hertz, Meters};
use vab_util::TAU;

/// A uniform line array, centred on the origin.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ArrayGeometry {
    /// Total number of elements (must be even for Van Atta pairing).
    pub n_elements: usize,
    /// Inter-element spacing.
    pub spacing: Meters,
}

impl ArrayGeometry {
    /// Creates a geometry; `n_elements` must be even and ≥ 2.
    pub fn new(n_elements: usize, spacing: Meters) -> Self {
        assert!(
            n_elements >= 2 && n_elements.is_multiple_of(2),
            "Van Atta needs an even element count"
        );
        assert!(spacing.value() > 0.0);
        Self { n_elements, spacing }
    }

    /// Half-wavelength spacing at frequency `f` in water of sound speed `c`.
    pub fn half_wavelength(n_elements: usize, f: Hertz, sound_speed: f64) -> Self {
        Self::new(n_elements, Meters(sound_speed / f.value() / 2.0))
    }

    /// Number of Van Atta pairs.
    pub fn n_pairs(&self) -> usize {
        self.n_elements / 2
    }

    /// Position of element `i` along the array axis, centred on zero.
    fn element_x(&self, i: usize) -> f64 {
        assert!(i < self.n_elements);
        (i as f64 - (self.n_elements as f64 - 1.0) / 2.0) * self.spacing.value()
    }

    /// The Van Atta partner of element `i`.
    fn pair_of(&self, i: usize) -> usize {
        self.n_elements - 1 - i
    }

    /// Physical aperture length.
    pub fn aperture(&self) -> Meters {
        Meters((self.n_elements as f64 - 1.0) * self.spacing.value())
    }
}

/// A complete Van Atta backscatter front end.
#[derive(Debug, Clone)]
pub struct VanAttaArray {
    /// Element layout.
    pub geometry: ArrayGeometry,
    /// The (identical) element transducers.
    pub transducer: Transducer,
    /// Modulation load states (applied to the shared interconnect switch).
    pub states: ModulationStates,
    /// The modulation switch.
    pub switch: Switch,
    /// Per-pair transmission-line amplitude loss (linear, 1.0 = lossless).
    pub line_loss: f64,
    /// Per-pair line-delay mismatch, as a fraction of the carrier period
    /// (0.0 = perfectly equalized lines). Index = pair number.
    pub delay_mismatch: Vec<f64>,
    /// Element failure mask (`true` = dead element; kills its whole pair).
    pub failed: Vec<bool>,
    /// Stuck-switch mask (`true` = modulation switch frozen in the reflect
    /// state): the element still scatters and harvests, but its pair no
    /// longer contributes *modulated* signal.
    pub stuck: Vec<bool>,
    /// Element directivity exponent: amplitude pattern `cos^q θ`
    /// (q ≈ 0.35 for a small potted cylinder near a baffle).
    pub element_pattern_exp: f64,
}

impl VanAttaArray {
    /// The array evaluated in the reproduction: `n_pairs` pairs of the
    /// default VAB transducer at half-wavelength spacing, co-designed
    /// modulation states, typical switch, 0.25 dB line loss.
    pub fn vab_default(n_pairs: usize, f0: Hertz) -> Self {
        let transducer = Transducer::vab_default();
        let c = 1480.0;
        let geometry = ArrayGeometry::half_wavelength(2 * n_pairs, f0, c);
        let states = ModulationStates::vab(&transducer.bvd, f0);
        Self {
            geometry,
            transducer,
            states,
            switch: Switch::typical(),
            line_loss: 10f64.powf(-0.25 / 20.0),
            delay_mismatch: vec![0.0; n_pairs],
            failed: vec![false; 2 * n_pairs],
            stuck: vec![false; 2 * n_pairs],
            element_pattern_exp: 0.35,
        }
    }

    /// Marks an element (and hence its pair) failed.
    pub fn with_failed_element(mut self, i: usize) -> Self {
        assert!(i < self.geometry.n_elements);
        self.failed[i] = true;
        self
    }

    /// Applies a set of typed element faults from a fault plan:
    /// stuck-open switches kill the element outright, stuck-short switches
    /// freeze it in the reflect state (no modulation, harvest intact).
    /// Out-of-range element indices (a plan sampled for a larger array)
    /// are ignored.
    pub fn apply_element_faults(&mut self, faults: &[vab_fault::ElementFault]) {
        for f in faults {
            if f.element >= self.geometry.n_elements {
                continue;
            }
            match f.kind {
                vab_fault::SwitchFault::StuckOpen => self.failed[f.element] = true,
                vab_fault::SwitchFault::StuckShort => self.stuck[f.element] = true,
            }
        }
    }

    /// Element amplitude pattern at angle θ from broadside.
    fn element_pattern(&self, theta: Degrees) -> f64 {
        let c = theta.radians().cos();
        if c <= 0.0 {
            0.0
        } else {
            c.powf(self.element_pattern_exp)
        }
    }

    /// The bistatic Van Atta array factor `AF(θ_in → θ_out)` at frequency
    /// `f`, in amplitude units relative to a single ideal element
    /// (|AF| = N for the ideal retrodirective case θ_out = θ_in).
    pub fn array_factor(&self, theta_in: Degrees, theta_out: Degrees, f: Hertz) -> C64 {
        let c = 1480.0;
        let k = TAU * f.value() / c;
        let (s_in, s_out) = (theta_in.radians().sin(), theta_out.radians().sin());
        let pat = self.element_pattern(theta_in) * self.element_pattern(theta_out);
        let mut af = C64::ZERO;
        let n = self.geometry.n_elements;
        for i in 0..n / 2 {
            let j = self.geometry.pair_of(i);
            if self.failed[i] || self.failed[j] || self.stuck[i] || self.stuck[j] {
                continue;
            }
            let xi = self.geometry.element_x(i);
            let xj = self.geometry.element_x(j);
            // Extra phase from line mismatch of this pair.
            let psi = TAU * self.delay_mismatch[i];
            // Energy in at i, out at j — and the reciprocal route.
            let route_a = C64::cis(k * (xi * s_in + xj * s_out) + psi);
            let route_b = C64::cis(k * (xj * s_in + xi * s_out) + psi);
            af += (route_a + route_b) * self.line_loss;
        }
        af * pat
    }

    /// Monostatic (retro) amplitude gain at incidence θ, relative to a
    /// single ideal element: `|AF(θ → θ)|`.
    pub fn retro_gain(&self, theta: Degrees, f: Hertz) -> f64 {
        self.array_factor(theta, theta, f).abs()
    }

    /// [`VanAttaArray::retro_gain`] in dB (this is a *round-trip received
    /// power* gain at the reader, because it multiplies the backscattered
    /// amplitude).
    pub fn retro_gain_db(&self, theta: Degrees, f: Hertz) -> f64 {
        20.0 * self.retro_gain(theta, f).max(1e-12).log10()
    }

    /// Realized modulation depth |ΔΓ|/2 of the shared switch at `f`.
    pub fn modulation_depth(&self, f: Hertz) -> f64 {
        self.switch.realized_modulation_depth(
            &self.transducer.bvd,
            self.states.reflect,
            self.states.absorb,
            f,
        )
    }

    /// Number of live elements (for harvesting aperture: every live element
    /// collects energy regardless of pairing).
    pub fn live_elements(&self) -> usize {
        self.failed.iter().filter(|&&d| !d).count()
    }

    /// Acoustic power available to the harvester: `live_elements ×` the
    /// single-element available power, scaled by the absorb-state harvest
    /// fraction.
    pub fn harvest_power(
        &self,
        f: Hertz,
        incident_level_db_upa: vab_util::units::Db,
    ) -> vab_util::units::Watts {
        let single = self.transducer.available_power(f, incident_level_db_upa);
        let frac = self.states.harvest_fraction(&self.transducer.bvd, f);
        vab_util::units::Watts(single * self.live_elements() as f64 * frac)
    }
}

/// The conventional-array baseline: the same geometry with each element
/// individually terminated (no pair swap). Its backscatter factor is
/// `Σᵢ e^{j·2·k·xᵢ·sinθ}` — coherent only near broadside.
pub fn conventional_backscatter_factor(geometry: &ArrayGeometry, theta: Degrees, f: Hertz) -> C64 {
    let c = 1480.0;
    let k = TAU * f.value() / c;
    let s = theta.radians().sin();
    (0..geometry.n_elements).map(|i| C64::cis(2.0 * k * geometry.element_x(i) * s)).sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use vab_util::approx_eq;

    const F0: Hertz = Hertz(18_500.0);

    fn arr(pairs: usize) -> VanAttaArray {
        VanAttaArray::vab_default(pairs, F0)
    }

    #[test]
    fn geometry_is_centred_and_symmetric() {
        let g = ArrayGeometry::new(8, Meters(0.04));
        let sum: f64 = (0..8).map(|i| g.element_x(i)).sum();
        assert!(sum.abs() < 1e-12);
        for i in 0..8 {
            assert!(approx_eq(g.element_x(i), -g.element_x(g.pair_of(i)), 1e-12));
        }
        assert_eq!(g.n_pairs(), 4);
        assert!(approx_eq(g.aperture().value(), 0.28, 1e-12));
    }

    #[test]
    fn ideal_retro_gain_is_n_at_broadside() {
        for pairs in [1usize, 2, 4] {
            let mut a = arr(pairs);
            a.line_loss = 1.0;
            let g = a.retro_gain(Degrees(0.0), F0);
            assert!(approx_eq(g, (2 * pairs) as f64, 1e-9), "pairs={pairs}: {g}");
        }
    }

    /// The Van Atta gain oracle. Every pair's two routes arrive in phase at
    /// the retro angle (the partner sits at the mirror position), so
    /// `|AF(θ → θ)| = N · line_loss · pattern(θ)²` for `N` elements, with
    /// the defaults' −0.25 dB line loss and `cos^0.35 θ` element pattern
    /// written out here rather than read from the model. At broadside that
    /// is `20·log10(N) − 0.25` dB. Both hold to 1e-9 relative, far inside
    /// the 1.2e-3 a 0.01 dB line-loss change moves the gain.
    #[test]
    fn retro_gain_matches_the_in_phase_pair_sum() {
        let line_loss = 10f64.powf(-0.25 / 20.0);
        let rel = |got: f64, want: f64| ((got - want) / want).abs();
        for pairs in 1..=16usize {
            let a = arr(pairs);
            let n = (2 * pairs) as f64;
            for deg in -80..=80 {
                let theta = Degrees(deg as f64);
                let pattern = theta.radians().cos().powf(0.35);
                let want = n * line_loss * pattern * pattern;
                let got = a.retro_gain(theta, F0);
                assert!(rel(got, want) <= 1e-9, "{pairs} pairs, θ={deg}°: {got} vs {want}");
            }
            let db = a.retro_gain_db(Degrees(0.0), F0);
            let want_db = 20.0 * n.log10() - 0.25;
            assert!(
                rel(db, want_db) <= 1e-9,
                "{pairs} pairs at broadside: {db} dB vs {want_db} dB"
            );
        }
    }

    /// The conventional wiring's backscatter factor is a uniform line
    /// array's Dirichlet kernel: with ψ = 2·k·d·sinθ (the round-trip
    /// phase step between neighbours), `|Σᵢ e^{jψ·i}| = |sin(Nψ/2)/sin(ψ/2)|`,
    /// whose ψ → 0 limit is N.
    #[test]
    fn conventional_factor_matches_its_dirichlet_kernel() {
        let c = 1480.0;
        let k = TAU * F0.value() / c;
        for n in [2usize, 4, 8, 16] {
            for g in [ArrayGeometry::half_wavelength(n, F0, c), ArrayGeometry::new(n, Meters(0.03))]
            {
                for deg in -80..=80 {
                    let theta = Degrees(deg as f64);
                    let psi = 2.0 * k * g.spacing.value() * theta.radians().sin();
                    let den = (psi / 2.0).sin();
                    let dirichlet = if den.abs() < 1e-12 {
                        n as f64
                    } else {
                        ((n as f64 * psi / 2.0).sin() / den).abs()
                    };
                    let af = conventional_backscatter_factor(&g, theta, F0).abs();
                    assert!(
                        approx_eq(af, dirichlet, 1e-9),
                        "N={n}, d={:?}, θ={deg}°: |AF| {af} vs Dirichlet {dirichlet}",
                        g.spacing
                    );
                }
            }
        }
    }

    #[test]
    fn retro_gain_flat_across_angles() {
        // The headline property: gain stays ≈ N across ±60° (only the mild
        // element pattern erodes it), unlike the conventional array.
        let mut a = arr(4);
        a.line_loss = 1.0;
        let broadside = a.retro_gain(Degrees(0.0), F0);
        for deg in [-60.0, -45.0, -20.0, 20.0, 45.0, 60.0] {
            let g = a.retro_gain(Degrees(deg), F0);
            assert!(g > 0.6 * broadside, "retro gain at {deg}° = {g} vs broadside {broadside}");
        }
    }

    #[test]
    fn conventional_array_collapses_off_broadside() {
        let g = ArrayGeometry::half_wavelength(8, F0, 1480.0);
        let broadside = conventional_backscatter_factor(&g, Degrees(0.0), F0).abs();
        assert!(approx_eq(broadside, 8.0, 1e-9));
        // At the first null of the 2φ pattern the response nearly vanishes;
        // average well off broadside must be far below N.
        let off: f64 = [15.0, 25.0, 40.0, 55.0]
            .iter()
            .map(|&d| conventional_backscatter_factor(&g, Degrees(d), F0).abs())
            .sum::<f64>()
            / 4.0;
        assert!(off < 0.35 * broadside, "conventional off-axis mean {off}");
    }

    #[test]
    fn vanatta_beats_conventional_off_axis_everywhere() {
        let a = arr(4);
        for deg in [-70.0f64, -50.0, -30.0, -10.0, 10.0, 30.0, 50.0, 70.0] {
            let van = a.retro_gain(Degrees(deg), F0);
            let conv = conventional_backscatter_factor(&a.geometry, Degrees(deg), F0).abs()
                * a.element_pattern(Degrees(deg)).powi(2);
            if deg.abs() > 12.0 {
                assert!(van > conv, "at {deg}°: VA {van} vs conventional {conv}");
            }
        }
    }

    #[test]
    fn gain_scales_linearly_with_pairs() {
        let g1 = arr(1).retro_gain(Degrees(30.0), F0);
        let g2 = arr(2).retro_gain(Degrees(30.0), F0);
        let g4 = arr(4).retro_gain(Degrees(30.0), F0);
        assert!(approx_eq(g2 / g1, 2.0, 0.02), "{}", g2 / g1);
        assert!(approx_eq(g4 / g1, 4.0, 0.02), "{}", g4 / g1);
    }

    #[test]
    fn line_mismatch_uniform_phase_does_not_break_retro() {
        // A *uniform* extra delay on all pairs only rotates the global
        // phase; |AF| is unchanged. (Per-pair random mismatch is what
        // hurts — covered in the next test.)
        let mut a = arr(4);
        a.delay_mismatch.iter_mut().for_each(|m| *m = 0.25);
        let b = arr(4);
        assert!(approx_eq(a.retro_gain(Degrees(33.0), F0), b.retro_gain(Degrees(33.0), F0), 1e-9));
    }

    #[test]
    fn random_per_pair_mismatch_degrades_gain() {
        let mut a = arr(4);
        a.delay_mismatch = vec![0.0, 0.17, 0.34, 0.45]; // scattered phases
        let degraded = a.retro_gain(Degrees(0.0), F0);
        let ideal = arr(4).retro_gain(Degrees(0.0), F0);
        assert!(degraded < 0.8 * ideal, "degraded {degraded} vs ideal {ideal}");
    }

    #[test]
    fn failed_element_kills_its_pair() {
        let a = arr(4).with_failed_element(0);
        assert_eq!(a.live_elements(), 7);
        let g = a.retro_gain(Degrees(0.0), F0);
        let full = arr(4).retro_gain(Degrees(0.0), F0);
        // One of four pairs gone → amplitude drops by ≈ 1/4.
        assert!(approx_eq(g / full, 0.75, 0.02), "{}", g / full);
    }

    #[test]
    fn stuck_short_kills_modulation_but_not_harvest() {
        let mut a = arr(4);
        a.apply_element_faults(&[vab_fault::ElementFault {
            element: 1,
            kind: vab_fault::SwitchFault::StuckShort,
        }]);
        // The pair no longer modulates...
        let g = a.retro_gain(Degrees(0.0), F0);
        let full = arr(4).retro_gain(Degrees(0.0), F0);
        assert!(approx_eq(g / full, 0.75, 0.02), "{}", g / full);
        // ...but the element still harvests.
        assert_eq!(a.live_elements(), 8);
    }

    #[test]
    fn stuck_open_fault_kills_element() {
        let mut a = arr(4);
        a.apply_element_faults(&[vab_fault::ElementFault {
            element: 0,
            kind: vab_fault::SwitchFault::StuckOpen,
        }]);
        assert_eq!(a.live_elements(), 7);
        // Out-of-range faults are ignored.
        a.apply_element_faults(&[vab_fault::ElementFault {
            element: 99,
            kind: vab_fault::SwitchFault::StuckOpen,
        }]);
        assert_eq!(a.live_elements(), 7);
    }

    #[test]
    fn modulation_depth_through_switch_is_high() {
        let a = arr(4);
        let depth = a.modulation_depth(F0);
        assert!(depth > 0.6, "depth {depth}");
        assert!(depth * a.retro_gain(Degrees(0.0), F0) > 4.0);
    }

    #[test]
    fn harvest_power_scales_with_elements() {
        let p1 = arr(1).harvest_power(F0, vab_util::units::Db(150.0)).value();
        let p4 = arr(4).harvest_power(F0, vab_util::units::Db(150.0)).value();
        assert!(approx_eq(p4 / p1, 4.0, 1e-6));
        assert!(p1 > 0.0);
    }

    #[test]
    fn reciprocity_bistatic_symmetry() {
        // AF(θa→θb) = AF(θb→θa) by construction (each pair contains both
        // routes).
        let a = arr(3);
        let fwd = a.array_factor(Degrees(17.0), Degrees(-42.0), F0);
        let rev = a.array_factor(Degrees(-42.0), Degrees(17.0), F0);
        assert!((fwd - rev).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "even element count")]
    fn odd_element_count_rejected() {
        let _ = ArrayGeometry::new(5, Meters(0.04));
    }
}
