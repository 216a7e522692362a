//! Deployment environments: the river and ocean settings of the VAB
//! evaluation, bundled into one struct the simulator can query.

use crate::absorption::francois_garrison_db_per_km;
use crate::boundary::Medium;
use crate::noise::total_psd;
use crate::soundspeed::mackenzie;
use crate::spreading::{transmission_loss, Spreading};
use vab_util::units::{Db, Hertz, Meters};

/// Fresh vs. salt water — switches absorption regime and presets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WaterKind {
    /// Low-salinity river water.
    Fresh,
    /// Coastal sea water.
    Salt,
}

/// Douglas sea state 0–4 (the range a small-boat deployment survives),
/// mapped to RMS surface displacement and wind speed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum SeaState {
    /// Mirror-calm.
    Calm,
    /// Ripples (SS1).
    Rippled,
    /// Small wavelets (SS2).
    Smooth,
    /// Slight waves (SS3).
    Slight,
    /// Moderate waves (SS4).
    Moderate,
}

impl SeaState {
    /// RMS surface displacement in metres (≈ significant wave height / 4).
    pub fn wave_height_rms_m(self) -> f64 {
        match self {
            SeaState::Calm => 0.0,
            SeaState::Rippled => 0.025,
            SeaState::Smooth => 0.075,
            SeaState::Slight => 0.22,
            SeaState::Moderate => 0.47,
        }
    }

    /// Representative wind speed in m/s.
    pub fn wind_mps(self) -> f64 {
        match self {
            SeaState::Calm => 0.5,
            SeaState::Rippled => 2.0,
            SeaState::Smooth => 4.0,
            SeaState::Slight => 7.0,
            SeaState::Moderate => 10.0,
        }
    }

    /// Doppler spread of surface-interacting paths, as a fraction of the
    /// carrier — driven by surface particle velocity ~ wave height.
    pub fn doppler_spread_hz(self, carrier: Hertz) -> f64 {
        // v_surface ≈ π·H_rms / T_wave; take T_wave ≈ 3–6 s scaled by state.
        let v = match self {
            SeaState::Calm => 0.0,
            SeaState::Rippled => 0.03,
            SeaState::Smooth => 0.08,
            SeaState::Slight => 0.20,
            SeaState::Moderate => 0.40,
        };
        2.0 * v / 1500.0 * carrier.value()
    }

    /// Dominant surface-wave frequency, Hz (small ripples chop fast, big
    /// waves roll slowly).
    pub fn wave_freq_hz(self) -> f64 {
        match self {
            SeaState::Calm => 0.0,
            SeaState::Rippled => 2.0,
            SeaState::Smooth => 1.2,
            SeaState::Slight => 0.6,
            SeaState::Moderate => 0.4,
        }
    }

    /// All states, for sweeps.
    pub fn all() -> [SeaState; 5] {
        [SeaState::Calm, SeaState::Rippled, SeaState::Smooth, SeaState::Slight, SeaState::Moderate]
    }
}

/// A complete acoustic environment description.
#[derive(Debug, Clone)]
pub struct Environment {
    /// Fresh or salt water.
    pub kind: WaterKind,
    /// Water column depth, m.
    pub depth: Meters,
    /// Water temperature, °C.
    pub temp_c: f64,
    /// Salinity, ppt.
    pub salinity_ppt: f64,
    /// pH (absorption model input).
    pub ph: f64,
    /// Shipping activity factor in [0, 1] for the noise model.
    pub shipping: f64,
    /// Sea state (waves + wind noise + Doppler).
    pub sea_state: SeaState,
    /// Bottom material.
    pub bottom: Medium,
    /// Spreading law.
    pub spreading: Spreading,
}

impl Environment {
    /// The river evaluation setting: shallow, fresh, calm, quiet, mud bottom.
    /// Modeled on the Charles River deployments of the MIT underwater
    /// backscatter line of work.
    pub fn river() -> Self {
        Self {
            kind: WaterKind::Fresh,
            depth: Meters(4.0),
            temp_c: 15.0,
            salinity_ppt: 0.5,
            ph: 7.0,
            shipping: 0.2,
            sea_state: SeaState::Rippled,
            bottom: Medium::mud(),
            spreading: Spreading::Hybrid { transition_m: 4.0, far_k: 12.0 },
        }
    }

    /// The ocean evaluation setting: coastal salt water, sandy bottom,
    /// moderate shipping, configurable sea state.
    pub fn ocean(sea_state: SeaState) -> Self {
        Self {
            kind: WaterKind::Salt,
            depth: Meters(12.0),
            temp_c: 12.0,
            salinity_ppt: 35.0,
            ph: 8.0,
            shipping: 0.5,
            sea_state,
            bottom: Medium::sand(),
            spreading: Spreading::Hybrid { transition_m: 12.0, far_k: 13.0 },
        }
    }

    /// Sound speed at mid-column.
    pub fn sound_speed(&self) -> f64 {
        mackenzie(self.temp_c, self.salinity_ppt, self.depth.value() / 2.0)
    }

    /// Absorption coefficient at `f`, dB/km (Francois–Garrison — valid for
    /// both the fresh and salt presets).
    pub fn absorption_db_per_km(&self, f: Hertz) -> f64 {
        francois_garrison_db_per_km(
            f,
            self.temp_c,
            self.salinity_ppt,
            self.depth.value() / 2.0,
            self.ph,
        )
    }

    /// One-way transmission loss at `f` over distance `d` (dB re 1 m).
    pub fn transmission_loss(&self, f: Hertz, d: Meters) -> Db {
        transmission_loss(self.spreading, self.absorption_db_per_km(f), d)
    }

    /// Ambient-noise PSD at `f` (dB re 1 µPa²/Hz).
    pub fn noise_psd(&self, f: Hertz) -> Db {
        total_psd(f, self.shipping, self.sea_state.wind_mps())
    }

    /// Acoustic wavelength at `f`.
    pub fn wavelength(&self, f: Hertz) -> Meters {
        Meters(self.sound_speed() / f.value())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const F: Hertz = Hertz(18_500.0);

    #[test]
    fn river_absorbs_less_than_ocean() {
        let r = Environment::river().absorption_db_per_km(F);
        let o = Environment::ocean(SeaState::Smooth).absorption_db_per_km(F);
        assert!(r < o / 5.0, "river {r} vs ocean {o}");
    }

    #[test]
    fn tl_monotonic_in_distance() {
        let env = Environment::ocean(SeaState::Smooth);
        let mut prev = f64::NEG_INFINITY;
        for d in [1.0, 10.0, 50.0, 100.0, 300.0, 1000.0] {
            let tl = env.transmission_loss(F, Meters(d)).value();
            assert!(tl > prev, "TL not monotonic at {d} m");
            prev = tl;
        }
    }

    #[test]
    fn tl_at_300m_is_tens_of_db() {
        // Sanity for the headline range: one-way TL ~ 38 dB (15·log10(300) ≈ 37).
        let env = Environment::river();
        let tl = env.transmission_loss(F, Meters(300.0)).value();
        assert!(tl > 30.0 && tl < 45.0, "got {tl}");
    }

    #[test]
    fn rougher_sea_is_noisier() {
        let calm = Environment::ocean(SeaState::Calm).noise_psd(F).value();
        let rough = Environment::ocean(SeaState::Moderate).noise_psd(F).value();
        assert!(rough > calm + 3.0, "calm {calm}, rough {rough}");
    }

    #[test]
    fn sea_state_wave_heights_increase() {
        let all = SeaState::all();
        for w in all.windows(2) {
            assert!(w[0].wave_height_rms_m() <= w[1].wave_height_rms_m());
            assert!(w[0].wind_mps() < w[1].wind_mps());
        }
    }

    #[test]
    fn doppler_spread_scales_with_carrier_and_state() {
        assert_eq!(SeaState::Calm.doppler_spread_hz(F), 0.0);
        let slight = SeaState::Slight.doppler_spread_hz(F);
        let moderate = SeaState::Moderate.doppler_spread_hz(F);
        assert!(slight > 0.0 && moderate > slight);
        assert!(SeaState::Moderate.doppler_spread_hz(Hertz(37_000.0)) > moderate);
    }

    #[test]
    fn sound_speeds_plausible() {
        let r = Environment::river().sound_speed();
        let o = Environment::ocean(SeaState::Calm).sound_speed();
        assert!(r > 1400.0 && r < 1500.0, "river {r}");
        assert!(o > 1480.0 && o < 1520.0, "ocean {o}");
    }

    #[test]
    fn wavelength_at_carrier() {
        let lam = Environment::ocean(SeaState::Calm).wavelength(F).value();
        assert!(lam > 0.07 && lam < 0.09, "λ = {lam}");
    }
}
