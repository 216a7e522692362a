//! Seawater absorption coefficients.
//!
//! Two models: Thorp's classic fit (salt water, mid frequencies — quick and
//! ubiquitous in link budgets) and the Francois–Garrison model (full
//! temperature / salinity / depth / pH dependence, valid for fresh water too,
//! which the river evaluation needs).

use vab_util::units::Hertz;

/// Francois & Garrison (1982) absorption in **dB/km**.
///
/// Sum of boric-acid, magnesium-sulfate and pure-water contributions, each
/// with its own relaxation frequency. Setting `salinity_ppt` near zero
/// collapses the model to the pure-water term — the correct behaviour for
/// the river environment.
///
/// * `f` — acoustic frequency
/// * `temp_c` — temperature, °C
/// * `salinity_ppt` — salinity, parts per thousand
/// * `depth_m` — depth, metres
/// * `ph` — acidity (nominal sea water: 8.0)
pub fn francois_garrison_db_per_km(
    f: Hertz,
    temp_c: f64,
    salinity_ppt: f64,
    depth_m: f64,
    ph: f64,
) -> f64 {
    let f_khz = f.khz();
    let t = temp_c;
    let s = salinity_ppt.max(0.0);
    let d = depth_m.max(0.0);
    let c = 1412.0 + 3.21 * t + 1.19 * s + 0.0167 * d; // sound speed used by the fit
    let theta = 273.15 + t;

    // --- Boric acid contribution (dominant below ~1 kHz in sea water).
    let a1 = 8.86 / c * 10f64.powf(0.78 * ph - 5.0);
    let p1 = 1.0;
    let f1 = 2.8 * (s / 35.0).sqrt() * 10f64.powf(4.0 - 1245.0 / theta);
    let boric = a1 * p1 * f1 * f_khz * f_khz / (f1 * f1 + f_khz * f_khz);

    // --- Magnesium sulfate contribution (dominant ~10–100 kHz in sea water).
    let a2 = 21.44 * s / c * (1.0 + 0.025 * t);
    let p2 = 1.0 - 1.37e-4 * d + 6.2e-9 * d * d;
    let f2 = 8.17 * 10f64.powf(8.0 - 1990.0 / theta) / (1.0 + 0.0018 * (s - 35.0));
    let mgso4 = a2 * p2 * f2 * f_khz * f_khz / (f2 * f2 + f_khz * f_khz);

    // --- Pure water contribution.
    let a3 = if t <= 20.0 {
        4.937e-4 - 2.59e-5 * t + 9.11e-7 * t * t - 1.50e-8 * t * t * t
    } else {
        3.964e-4 - 1.146e-5 * t + 1.45e-7 * t * t - 6.5e-10 * t * t * t
    };
    let p3 = 1.0 - 3.83e-5 * d + 4.9e-10 * d * d;
    let water = a3 * p3 * f_khz * f_khz;

    boric + mgso4 + water
}

#[cfg(test)]
mod tests {
    use super::*;
    use vab_util::units::Hertz;

    /// Thorp (1967) absorption in dB/km: the salt-water fit (about 4 °C,
    /// near the surface) that Francois–Garrison must agree with in order
    /// of magnitude.
    fn thorp_db_per_km(f: Hertz) -> f64 {
        let f2 = f.khz() * f.khz();
        0.11 * f2 / (1.0 + f2) + 44.0 * f2 / (4100.0 + f2) + 2.75e-4 * f2 + 0.003
    }

    #[test]
    fn fg_seawater_matches_thorp_order_of_magnitude() {
        let f = Hertz::from_khz(18.5);
        let fg = francois_garrison_db_per_km(f, 10.0, 35.0, 5.0, 8.0);
        let th = thorp_db_per_km(f);
        assert!(fg > 0.3 * th && fg < 3.0 * th, "FG {fg} vs Thorp {th}");
    }

    #[test]
    fn fresh_water_absorbs_far_less_than_sea_water() {
        let f = Hertz::from_khz(18.5);
        let fresh = francois_garrison_db_per_km(f, 15.0, 0.5, 2.0, 7.0);
        let sea = francois_garrison_db_per_km(f, 15.0, 35.0, 2.0, 8.0);
        assert!(
            fresh < sea / 5.0,
            "fresh {fresh} dB/km should be ≪ sea {sea} dB/km at mid frequencies"
        );
    }

    #[test]
    fn fresh_water_is_dominated_by_pure_water_term() {
        // With S→0 the relaxation terms vanish; α ≈ a3·f².
        let f = Hertz::from_khz(18.5);
        let a = francois_garrison_db_per_km(f, 15.0, 0.0, 2.0, 7.0);
        assert!(a > 0.01 && a < 0.5, "got {a} dB/km");
    }
}
