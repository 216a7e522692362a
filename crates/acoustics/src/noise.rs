//! Ambient ocean noise — Wenz curves in Coates' parametric form.
//!
//! Four incoherent contributions: turbulence (very low frequency), distant
//! shipping, wind/surface agitation (dominant in the VAB band), and thermal
//! noise (takes over above ~100 kHz). Each is a power spectral density in
//! dB re 1 µPa²/Hz.

use vab_util::db::power_db_sum;
use vab_util::units::{Db, Hertz};

/// Turbulence noise PSD (significant only below ~10 Hz).
fn turbulence_psd(f: Hertz) -> Db {
    Db(17.0 - 30.0 * f.khz().log10())
}

/// Distant-shipping noise PSD. `shipping` is the activity factor in [0, 1].
fn shipping_psd(f: Hertz, shipping: f64) -> Db {
    let fk = f.khz();
    Db(40.0 + 20.0 * (shipping.clamp(0.0, 1.0) - 0.5) + 26.0 * fk.log10()
        - 60.0 * (fk + 0.03).log10())
}

/// Wind / sea-surface noise PSD. `wind_mps` is wind speed in m/s.
fn wind_psd(f: Hertz, wind_mps: f64) -> Db {
    let fk = f.khz();
    Db(50.0 + 7.5 * wind_mps.max(0.0).sqrt() + 20.0 * fk.log10() - 40.0 * (fk + 0.4).log10())
}

/// Thermal (molecular agitation) noise PSD.
fn thermal_psd(f: Hertz) -> Db {
    Db(-15.0 + 20.0 * f.khz().log10())
}

/// Total ambient noise PSD: incoherent sum of all four contributions.
pub fn total_psd(f: Hertz, shipping: f64, wind_mps: f64) -> Db {
    Db(power_db_sum([
        turbulence_psd(f).value(),
        shipping_psd(f, shipping).value(),
        wind_psd(f, wind_mps).value(),
        thermal_psd(f).value(),
    ]))
}

#[cfg(test)]
mod tests {
    use super::*;
    use vab_util::approx_eq;

    #[test]
    fn wind_noise_dominates_in_vab_band() {
        let f = Hertz::from_khz(18.5);
        let wind = wind_psd(f, 5.0).value();
        assert!(wind > turbulence_psd(f).value());
        assert!(wind > thermal_psd(f).value());
        assert!(wind > shipping_psd(f, 0.5).value());
    }

    #[test]
    fn more_wind_more_noise() {
        let f = Hertz::from_khz(18.5);
        assert!(wind_psd(f, 10.0).value() > wind_psd(f, 2.0).value());
    }

    #[test]
    fn psd_magnitude_is_plausible() {
        // Sea-state ~2 (5 m/s wind) at 18.5 kHz: ≈ 40–55 dB re µPa²/Hz.
        let psd = total_psd(Hertz::from_khz(18.5), 0.5, 5.0).value();
        assert!(psd > 35.0 && psd < 60.0, "got {psd}");
    }

    #[test]
    fn total_is_at_least_the_max_component() {
        let f = Hertz::from_khz(18.5);
        let t = total_psd(f, 0.5, 5.0).value();
        let w = wind_psd(f, 5.0).value();
        assert!(t >= w && t < w + 6.0);
    }

    #[test]
    fn thermal_rises_with_frequency_and_wins_high() {
        let f = Hertz::from_khz(300.0);
        assert!(thermal_psd(f).value() > wind_psd(f, 5.0).value());
    }

    #[test]
    fn shipping_activity_scales_level() {
        let f = Hertz::from_khz(0.1); // shipping band
        let quiet = shipping_psd(f, 0.0).value();
        let busy = shipping_psd(f, 1.0).value();
        assert!(approx_eq(busy - quiet, 20.0, 1e-9));
    }
}
