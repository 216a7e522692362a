//! The sonar-equation fast path.
//!
//! For a backscatter round trip the received *modulated* level is
//!
//! ```text
//! RL = SL − TL(d) − TL(d) + 20·log10(modulation_depth × array_factor) + fade
//! ```
//!
//! and the noise the demodulator actually fights is the **larger** of the
//! ambient sea noise and the reader's own residual self-interference: the
//! projector's direct arrival sits 40–80 dB above the signal, and after
//! cancellation its fluctuation sidebands (platform motion, clutter) leave
//! a noise floor `SL + si_floor_rel_db` (dBc) that usually dominates — this
//! is the term that makes backscatter range so much shorter than one-way
//! communication range, and the term the Van Atta gain buys back.

use crate::baseline::FrontEnd;
use crate::scenario::Scenario;
use vab_util::db::power_db_sum;
use vab_util::units::{Db, Hertz, Meters};

/// Reader hardware parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReaderParams {
    /// Projector source level, dB re 1 µPa @ 1 m.
    pub source_level_db: f64,
    /// Residual self-interference noise floor relative to the source level,
    /// dBc/Hz after cancellation (combines projector–hydrophone coupling,
    /// carrier cancellation depth, and clutter fluctuation).
    pub si_floor_rel_db: f64,
}

impl ReaderParams {
    /// The reproduction's reader: 180 dB source (≈ 100 V drive on the
    /// default transducer), −80 dBc/Hz residual self-interference.
    pub fn vab_default() -> Self {
        Self { source_level_db: 180.0, si_floor_rel_db: -80.0 }
    }

    /// Effective self-interference noise PSD at the receiver,
    /// dB re 1 µPa²/Hz.
    pub fn si_floor_psd(&self) -> Db {
        Db(self.source_level_db + self.si_floor_rel_db)
    }
}

/// All the terms of one link-budget evaluation.
#[derive(Debug, Clone, Copy)]
pub struct LinkBudget {
    /// Projector source level, dB re µPa @ 1 m.
    pub source_level_db: f64,
    /// One-way transmission loss, dB.
    pub tl_one_way_db: f64,
    /// Incident level at the node, dB re µPa.
    pub incident_at_node_db: f64,
    /// 20·log10(modulation depth × array factor), dB.
    pub modulated_gain_db: f64,
    /// Received modulated-signal level at the hydrophone, dB re µPa.
    pub received_level_db: f64,
    /// Ambient-noise PSD, dB re µPa²/Hz.
    pub ambient_psd_db: f64,
    /// Self-interference floor PSD, dB re µPa²/Hz.
    pub si_psd_db: f64,
    /// Total effective noise PSD, dB re µPa²/Hz.
    pub noise_psd_db: f64,
    /// Information bit rate, bits/s.
    pub bit_rate: f64,
    /// Eb/N0 per *information* bit, dB (before any fading).
    pub ebn0_db: f64,
}

impl LinkBudget {
    /// Evaluates the budget for a scenario (static terms only; per-trial
    /// fading is applied by the Monte Carlo engine on top).
    pub fn compute(scenario: &Scenario) -> LinkBudget {
        let fe = scenario.front_end();
        Self::compute_with_front_end(scenario, &fe)
    }

    /// Budget with an externally-built front end (ablations pass modified
    /// arrays).
    pub fn compute_with_front_end(scenario: &Scenario, fe: &FrontEnd) -> LinkBudget {
        let f = scenario.carrier();
        let d = scenario.range();
        let sl = scenario.reader.source_level_db;
        let tl = scenario.env.transmission_loss(f, d).value();
        let incident = sl - tl;
        let gain = fe.modulated_gain_db(scenario.incidence_angle());
        let rl = sl - 2.0 * tl + gain;
        let ambient = scenario.env.noise_psd(f).value();
        let si = scenario.reader.si_floor_psd().value();
        let noise = power_db_sum([ambient, si]);
        let bit_rate = scenario.mod_params.bit_rate;
        let ebn0 = rl - noise - 10.0 * bit_rate.log10();
        LinkBudget {
            source_level_db: sl,
            tl_one_way_db: tl,
            incident_at_node_db: incident,
            modulated_gain_db: gain,
            received_level_db: rl,
            ambient_psd_db: ambient,
            si_psd_db: si,
            noise_psd_db: noise,
            bit_rate,
            ebn0_db: ebn0,
        }
    }

    /// Eb/N0 in linear units.
    pub fn ebn0_lin(&self) -> f64 {
        10f64.powf(self.ebn0_db / 10.0)
    }

    /// Uncoded channel BER predicted by noncoherent-orthogonal theory.
    pub fn uncoded_ber(&self) -> f64 {
        vab_phy::ber::ber_noncoherent_orthogonal(self.ebn0_lin())
    }

    /// The named rows of the budget, for Table T3.
    pub fn rows(&self) -> Vec<(&'static str, f64)> {
        vec![
            ("source level (dB re µPa @1m)", self.source_level_db),
            ("one-way TL (dB)", self.tl_one_way_db),
            ("incident at node (dB re µPa)", self.incident_at_node_db),
            ("modulated gain: depth × array (dB)", self.modulated_gain_db),
            ("received modulated level (dB re µPa)", self.received_level_db),
            ("ambient noise PSD (dB re µPa²/Hz)", self.ambient_psd_db),
            ("self-interference PSD (dB re µPa²/Hz)", self.si_psd_db),
            ("effective noise PSD (dB re µPa²/Hz)", self.noise_psd_db),
            ("bit rate (bps)", self.bit_rate),
            ("Eb/N0 (dB)", self.ebn0_db),
        ]
    }
}

/// Finds the maximum range (bisection, metres) at which `predicate(budget)`
/// still holds — e.g. "Eb/N0 above the BER-10⁻³ requirement". Only the
/// range may vary with the argument of `scenario_at`: the front end is
/// built once, from the first scenario, and serves every step.
pub fn max_range_where<F>(scenario_at: impl Fn(Meters) -> Scenario, predicate: F) -> Meters
where
    F: Fn(&LinkBudget) -> bool,
{
    let (mut lo, mut hi) = (1.0f64, 20_000.0f64);
    let first = scenario_at(Meters(lo));
    let fe = first.front_end();
    let holds = |s: &Scenario| predicate(&LinkBudget::compute_with_front_end(s, &fe));
    if !holds(&first) {
        return Meters(0.0);
    }
    if holds(&scenario_at(Meters(hi))) {
        return Meters(hi);
    }
    for _ in 0..60 {
        let mid = 0.5 * (lo + hi);
        if holds(&scenario_at(Meters(mid))) {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    Meters(0.5 * (lo + hi))
}

/// Harvested power at the node for a scenario (no fading), on the
/// scenario's front end `fe` (built once by callers that sweep range).
pub fn harvest_at(scenario: &Scenario, fe: &FrontEnd) -> vab_util::units::Watts {
    let budget = LinkBudget::compute_with_front_end(scenario, fe);
    fe.harvest_power(Db(budget.incident_at_node_db))
}

/// Convenience: the carrier used across the reproduction.
pub const VAB_CARRIER: Hertz = Hertz(18_500.0);

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baseline::SystemKind;
    use vab_phy::ber::required_ebn0_db;
    use vab_util::approx_eq;

    fn vab_at(d: f64) -> Scenario {
        Scenario::river(SystemKind::Vab { n_pairs: 4 }, Meters(d))
    }

    fn pab_at(d: f64) -> Scenario {
        Scenario::river(SystemKind::Pab, Meters(d))
    }

    #[test]
    fn budget_terms_consistent() {
        let b = LinkBudget::compute(&vab_at(100.0));
        assert!(approx_eq(
            b.received_level_db,
            b.source_level_db - 2.0 * b.tl_one_way_db + b.modulated_gain_db,
            1e-9
        ));
        assert!(approx_eq(b.incident_at_node_db, b.source_level_db - b.tl_one_way_db, 1e-9));
    }

    #[test]
    fn self_interference_dominates_ambient() {
        let b = LinkBudget::compute(&vab_at(100.0));
        assert!(b.si_psd_db > b.ambient_psd_db + 20.0);
        assert!(approx_eq(b.noise_psd_db, b.si_psd_db, 0.01));
    }

    #[test]
    fn ebn0_healthy_at_300m_for_vab() {
        // The headline: at 300 m / 100 bps VAB sits a few dB above the
        // uncoded requirement — coding closes the rest.
        let b = LinkBudget::compute(&vab_at(300.0));
        assert!(b.ebn0_db > 5.0 && b.ebn0_db < 12.0, "Eb/N0 = {} dB", b.ebn0_db);
    }

    #[test]
    fn pab_is_short_range() {
        let need = required_ebn0_db(1e-3);
        let r = max_range_where(|d: Meters| pab_at(d.value()), |b| b.ebn0_db >= need);
        assert!(r.value() > 10.0 && r.value() < 60.0, "PAB range {r}");
    }

    #[test]
    fn vab_beats_pab_by_order_of_magnitude_uncoded() {
        let need = required_ebn0_db(1e-3);
        let r_vab = max_range_where(|d: Meters| vab_at(d.value()), |b| b.ebn0_db >= need);
        let r_pab = max_range_where(|d: Meters| pab_at(d.value()), |b| b.ebn0_db >= need);
        let ratio = r_vab.value() / r_pab.value();
        // Uncoded-vs-uncoded isolates the physical-layer gain: ≈ 22.5 dB
        // round trip → ≈ 10× at the shallow-water spreading slope. VAB's
        // coding (counted in the Monte Carlo comparison) lifts it to ~15×.
        assert!(ratio > 6.0 && ratio < 20.0, "ratio {ratio}");
    }

    #[test]
    fn ebn0_monotonically_decreasing_with_range() {
        let mut prev = f64::INFINITY;
        for d in [10.0, 30.0, 100.0, 300.0, 1000.0] {
            let b = LinkBudget::compute(&vab_at(d));
            assert!(b.ebn0_db < prev);
            prev = b.ebn0_db;
        }
    }

    #[test]
    fn higher_bit_rate_costs_ebn0_db_for_db() {
        let b100 = LinkBudget::compute(&vab_at(200.0));
        let b1000 = LinkBudget::compute(&vab_at(200.0).with_bit_rate(1000.0));
        assert!(approx_eq(b100.ebn0_db - b1000.ebn0_db, -10.0 * (100.0f64 / 1000.0).log10(), 1e-9));
    }

    #[test]
    fn rotation_hurts_pab_little_and_conventional_a_lot() {
        let conv = |d: f64, rot: f64| {
            LinkBudget::compute(
                &Scenario::river(SystemKind::ConventionalArray { n_elements: 8 }, Meters(d))
                    .with_rotation(vab_util::units::Degrees(rot)),
            )
            .ebn0_db
        };
        let vab = |d: f64, rot: f64| {
            LinkBudget::compute(&vab_at(d).with_rotation(vab_util::units::Degrees(rot))).ebn0_db
        };
        assert!(vab(100.0, 0.0) - vab(100.0, 45.0) < 4.0);
        assert!(conv(100.0, 0.0) - conv(100.0, 45.0) > 10.0);
    }

    #[test]
    fn max_range_bisection_edges() {
        // A predicate that always fails → 0; always passes → cap.
        assert_eq!(max_range_where(|d: Meters| vab_at(d.value()), |_| false).value(), 0.0);
        assert_eq!(max_range_where(|d: Meters| vab_at(d.value()), |_| true).value(), 20_000.0);
    }

    #[test]
    fn harvest_declines_with_range() {
        let fe = vab_at(10.0).front_end();
        let near = harvest_at(&vab_at(10.0), &fe).value();
        let far = harvest_at(&vab_at(200.0), &fe).value();
        assert!(near > far * 10.0, "near {near} far {far}");
    }

    #[test]
    fn budget_rows_complete() {
        let rows = LinkBudget::compute(&vab_at(100.0)).rows();
        assert_eq!(rows.len(), 10);
        assert!(rows.iter().all(|(_, v)| v.is_finite()));
    }
}
