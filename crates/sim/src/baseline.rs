//! The systems under comparison.
//!
//! Head-to-head fairness demands one simulator with pluggable node front
//! ends: the same environment, reader, and demodulator evaluate
//!
//! * **VAB** — the Van Atta array with electro-mechanically co-designed
//!   modulation states and coded link;
//! * **PAB** — the prior state of the art (Piezo-Acoustic Backscatter,
//!   SIGCOMM 2019): one transducer, harvest-first load switching, uncoded;
//! * **Conventional array** — same aperture as VAB but individually
//!   terminated elements (no retrodirective pair swap): the orientation
//!   strawman.

use vab_core::array::{conventional_backscatter_factor, VanAttaArray};
use vab_link::frame::LinkConfig;
use vab_piezo::reflection::{gamma, gamma_to_load, Load, ModulationStates};
use vab_piezo::transduction::Transducer;
use vab_util::units::{Db, Degrees, Hertz, Watts};

/// Which node architecture is deployed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SystemKind {
    /// Van Atta Acoustic Backscatter with `n_pairs` transducer pairs.
    Vab {
        /// Number of Van Atta pairs (2 elements each).
        n_pairs: usize,
    },
    /// The single-transducer prior state of the art.
    Pab,
    /// VAB's aperture without the pair swap (orientation baseline).
    ConventionalArray {
        /// Total element count (even).
        n_elements: usize,
    },
}

impl SystemKind {
    /// Display label for tables.
    pub fn label(&self) -> String {
        match self {
            SystemKind::Vab { n_pairs } => format!("VAB ({n_pairs} pairs)"),
            SystemKind::Pab => "PAB (single element)".to_string(),
            SystemKind::ConventionalArray { n_elements } => {
                format!("conventional array ({n_elements} el.)")
            }
        }
    }

    /// The link configuration each system shipped with: VAB's stack is
    /// coded and interleaved; PAB and the conventional strawman ran uncoded.
    pub fn link_config(&self) -> LinkConfig {
        match self {
            SystemKind::Vab { .. } => LinkConfig::vab_default(),
            _ => LinkConfig::uncoded(),
        }
    }

    /// Number of energy-collecting elements.
    pub fn n_elements(&self) -> usize {
        match self {
            SystemKind::Vab { n_pairs } => 2 * n_pairs,
            SystemKind::Pab => 1,
            SystemKind::ConventionalArray { n_elements } => *n_elements,
        }
    }
}

/// A fully-instantiated node front end the simulator can query.
///
/// A front end from [`FrontEnd::new`] depends only on `(SystemKind,
/// carrier)`: neither the range, the bit rate nor the link config of a
/// scenario enters it. Its switching load states are designed once, at
/// construction, and every query reads them:
///
/// * VAB uses its array's co-designed states;
/// * PAB uses its harvest-first pair (|Γ_reflect| = 0.7 against a full
///   match);
/// * the conventional array keeps VAB's co-designed states.
///
/// The co-design search behind the co-designed states is the costly part of
/// construction, so a caller that sweeps range, rate or trials builds one
/// front end per system and reuses it
/// ([`crate::montecarlo::GridPoint::borrowed`]).
#[derive(Debug, Clone)]
pub struct FrontEnd {
    kind: SystemKind,
    /// Only present for the Van Atta variants.
    array: Option<VanAttaArray>,
    transducer: Transducer,
    f0: Hertz,
    /// The reflect/absorb load pair this front end switches between.
    states: ModulationStates,
}

impl FrontEnd {
    /// Builds the front end for `kind` at carrier `f0`.
    pub fn new(kind: SystemKind, f0: Hertz) -> Self {
        let transducer = Transducer::vab_default();
        let bvd = &transducer.bvd;
        let (array, states) = match kind {
            SystemKind::Vab { n_pairs } => {
                let array = VanAttaArray::vab_default(n_pairs, f0);
                let states = array.states;
                (Some(array), states)
            }
            SystemKind::Pab => {
                // PAB's harvest-first design: the node harvests in *both*
                // switch states (its transformer-coupled rectifier stays in
                // circuit), so the "reflect" state only reaches |Γ| ≈ 0.7
                // and the absorb state is a full match — modulation depth
                // ≈ 0.35. This is precisely the energy-vs-communication
                // compromise VAB's co-design removes.
                let g_open = gamma(bvd, Load::Open, f0);
                let g_reflect = vab_util::complex::C64::from_polar(0.7, g_open.arg());
                let states = ModulationStates {
                    reflect: Load::Custom(gamma_to_load(bvd, g_reflect, f0)),
                    absorb: Load::ConjugateMatch,
                };
                (None, states)
            }
            // The conventional strawman keeps VAB's co-designed states.
            SystemKind::ConventionalArray { .. } => (None, ModulationStates::vab(bvd, f0)),
        };
        Self { kind, array, transducer, f0, states }
    }

    /// Builds a VAB front end with a custom array (ablations).
    pub fn from_array(array: VanAttaArray, f0: Hertz) -> Self {
        let transducer = array.transducer;
        Self {
            kind: SystemKind::Vab { n_pairs: array.geometry.n_pairs() },
            states: array.states,
            array: Some(array),
            transducer,
            f0,
        }
    }

    /// This front end's array with the element `faults` applied, rebuilt at
    /// carrier `f0`; `None` when there is no fault to apply or no array
    /// (single-element systems have no switches to fail).
    pub fn with_element_faults(
        &self,
        faults: &[vab_fault::ElementFault],
        f0: Hertz,
    ) -> Option<FrontEnd> {
        if faults.is_empty() {
            return None;
        }
        let mut faulted = self.array.clone()?;
        faulted.apply_element_faults(faults);
        Some(Self::from_array(faulted, f0))
    }

    /// System variant.
    pub fn kind(&self) -> SystemKind {
        self.kind
    }

    /// Direct access to the Van Atta array (ablation experiments).
    pub fn array(&self) -> Option<&VanAttaArray> {
        self.array.as_ref()
    }

    /// The transducer model shared by all variants.
    pub fn bvd(&self) -> &vab_piezo::bvd::Bvd {
        &self.transducer.bvd
    }

    /// Modulation depth |ΔΓ|/2 of this front end's switching states
    /// (through the switch for the array variants).
    pub fn modulation_depth(&self) -> f64 {
        match &self.array {
            Some(a) => a.modulation_depth(self.f0),
            None => self.states.modulation_depth(&self.transducer.bvd, self.f0),
        }
    }

    /// Backscatter array/pattern gain at incidence θ (amplitude relative to
    /// one ideal element, element pattern included; 1.0 for PAB broadside).
    pub fn array_gain(&self, theta: Degrees) -> f64 {
        let pat = theta.radians().cos().max(0.0).powf(0.35);
        match (&self.kind, &self.array) {
            (SystemKind::Vab { .. }, Some(a)) => a.retro_gain(theta, self.f0),
            (SystemKind::Pab, _) => pat * pat,
            (SystemKind::ConventionalArray { n_elements }, _) => {
                let g =
                    vab_core::array::ArrayGeometry::half_wavelength(*n_elements, self.f0, 1480.0);
                conventional_backscatter_factor(&g, theta, self.f0).abs() * pat * pat
            }
            (SystemKind::Vab { .. }, None) => unreachable!("VAB always has an array"),
        }
    }

    /// Backscattered **modulated amplitude** per unit incident amplitude at
    /// incidence angle θ — modulation depth × array factor. This is the
    /// quantity that enters the round-trip link budget (in dB as
    /// `20·log10`).
    pub fn modulated_amplitude(&self, theta: Degrees) -> f64 {
        self.modulation_depth() * self.array_gain(theta)
    }

    /// Modulated amplitude in dB (can be negative for weak states).
    pub fn modulated_gain_db(&self, theta: Degrees) -> f64 {
        20.0 * self.modulated_amplitude(theta).max(1e-12).log10()
    }

    /// Harvesting power available from an incident level at the node.
    /// Every element harvests in the absorb state.
    pub fn harvest_power(&self, incident_db_upa: Db) -> Watts {
        match &self.array {
            Some(a) => a.harvest_power(self.f0, incident_db_upa),
            None => {
                let frac = self.states.harvest_fraction(&self.transducer.bvd, self.f0);
                Watts(
                    self.transducer.available_power(self.f0, incident_db_upa)
                        * self.kind.n_elements() as f64
                        * frac,
                )
            }
        }
    }

    /// Mean (static) reflection coefficient — the un-modulated clutter the
    /// reader must cancel. Used by the sample-level simulator.
    pub fn static_gamma(&self) -> vab_util::complex::C64 {
        let gr = gamma(&self.transducer.bvd, self.states.reflect, self.f0);
        let ga = gamma(&self.transducer.bvd, self.states.absorb, self.f0);
        (gr + ga) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vab_util::approx_eq;

    const F0: Hertz = Hertz(18_500.0);

    #[test]
    fn vab_outguns_pab_at_broadside() {
        let vab = FrontEnd::new(SystemKind::Vab { n_pairs: 4 }, F0);
        let pab = FrontEnd::new(SystemKind::Pab, F0);
        let delta = vab.modulated_gain_db(Degrees(0.0)) - pab.modulated_gain_db(Degrees(0.0));
        // Array (18 dB) + depth advantage (~4–5 dB) ≈ 22–23 dB.
        assert!(delta > 18.0 && delta < 28.0, "Δ = {delta} dB");
    }

    #[test]
    fn vab_holds_gain_across_angles_conventional_does_not() {
        let vab = FrontEnd::new(SystemKind::Vab { n_pairs: 4 }, F0);
        let conv = FrontEnd::new(SystemKind::ConventionalArray { n_elements: 8 }, F0);
        let vab_drop = vab.modulated_gain_db(Degrees(0.0)) - vab.modulated_gain_db(Degrees(45.0));
        let conv_drop =
            conv.modulated_gain_db(Degrees(0.0)) - conv.modulated_gain_db(Degrees(45.0));
        assert!(vab_drop < 4.0, "VAB should be nearly flat, dropped {vab_drop} dB");
        assert!(conv_drop > 10.0, "conventional should collapse, dropped {conv_drop} dB");
    }

    #[test]
    fn pab_depth_is_the_harvest_first_compromise() {
        let pab = FrontEnd::new(SystemKind::Pab, F0);
        // |Γ_reflect|/2 = 0.35 — the always-harvesting design's depth.
        let depth = pab.modulated_amplitude(Degrees(0.0));
        assert!(depth > 0.3 && depth < 0.4, "PAB depth {depth}");
        // And it harvests meaningfully in *both* states.
        let fe_bvd = pab.bvd();
        let _ = fe_bvd; // depth assertion above is the contract
    }

    #[test]
    fn harvest_scales_with_aperture() {
        let vab = FrontEnd::new(SystemKind::Vab { n_pairs: 4 }, F0);
        let pab = FrontEnd::new(SystemKind::Pab, F0);
        let pv = vab.harvest_power(Db(150.0)).value();
        let pp = pab.harvest_power(Db(150.0)).value();
        // 8 elements at half the harvest fraction ≈ 4× PAB's single
        // full-harvest element.
        assert!(approx_eq(pv / pp, 4.0, 0.2), "ratio {}", pv / pp);
    }

    #[test]
    fn link_configs_match_the_systems() {
        assert_eq!(SystemKind::Vab { n_pairs: 4 }.link_config().fec, vab_link::fec::Fec::Conv);
        assert_eq!(SystemKind::Pab.link_config().fec, vab_link::fec::Fec::None);
        assert!(SystemKind::Pab.link_config().interleaver.is_none());
    }

    #[test]
    fn labels_are_informative() {
        assert!(SystemKind::Vab { n_pairs: 4 }.label().contains("4 pairs"));
        assert!(SystemKind::Pab.label().contains("PAB"));
    }

    #[test]
    fn static_gamma_finite_and_bounded() {
        for kind in [
            SystemKind::Vab { n_pairs: 2 },
            SystemKind::Pab,
            SystemKind::ConventionalArray { n_elements: 4 },
        ] {
            let fe = FrontEnd::new(kind, F0);
            let g = fe.static_gamma();
            assert!(g.is_finite());
            assert!(g.abs() <= 1.0 + 1e-9, "{kind:?}: |Γ̄| = {}", g.abs());
        }
    }

    /// `f64::to_bits` of every front-end query for each system at the
    /// paper's carrier: modulation depth, modulated gain at 0° and 45°,
    /// harvest power at 150 dB re µPa and the static Γ (re, im). Any change
    /// to how the load states are derived or stored must keep these.
    #[test]
    fn front_end_queries_are_pinned_bit_for_bit() {
        let pins: [(SystemKind, [u64; 6]); 3] = [
            (
                SystemKind::Vab { n_pairs: 4 },
                [
                    0x3feb2b3413b91aac,
                    0x403063e3fd760fa7,
                    0x402c90e3c1493c9f,
                    0x3eb767ce80c2dffc,
                    0xbfc29e4226026074,
                    0xbf916cb0a9eedff2,
                ],
            ),
            (
                SystemKind::Pab,
                [
                    0x3fd6666666666666,
                    0xc0223cbe440cacf1,
                    0xc02673a27daf8fa0,
                    0x3e9767ce80c2dffc,
                    0x3fd6666666666666,
                    0x0000000000000000,
                ],
            ),
            (
                SystemKind::ConventionalArray { n_elements: 8 },
                [
                    0x3feb504f333f9de7,
                    0x4030afb8ccd75b58,
                    0xc004c82f29c0b380,
                    0x3eb767ce80c2dffc,
                    0xbfc29e4226026074,
                    0xbf916cb0a9eedff2,
                ],
            ),
        ];
        for (kind, want) in pins {
            let fe = FrontEnd::new(kind, F0);
            let g = fe.static_gamma();
            let got = [
                fe.modulation_depth().to_bits(),
                fe.modulated_gain_db(Degrees(0.0)).to_bits(),
                fe.modulated_gain_db(Degrees(45.0)).to_bits(),
                fe.harvest_power(Db(150.0)).value().to_bits(),
                g.re.to_bits(),
                g.im.to_bits(),
            ];
            assert_eq!(got, want, "{kind:?}");
        }
    }
}
