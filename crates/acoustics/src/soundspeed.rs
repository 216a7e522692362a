//! Sound speed in sea water.

/// Mackenzie (1981) nine-term equation for sound speed (m/s).
///
/// Valid for temperature −2…30 °C, salinity 25…40 ppt, depth 0…8000 m; it
/// degrades gracefully outside (we also use it for fresh river water, where
/// the salinity terms nearly vanish and the result lands within a few m/s of
/// dedicated freshwater formulas — irrelevant for link budgets).
///
/// * `temp_c` — temperature in °C
/// * `salinity_ppt` — salinity in parts per thousand
/// * `depth_m` — depth in metres
pub fn mackenzie(temp_c: f64, salinity_ppt: f64, depth_m: f64) -> f64 {
    let t = temp_c;
    let s = salinity_ppt;
    let d = depth_m;
    1448.96 + 4.591 * t - 5.304e-2 * t * t
        + 2.374e-4 * t * t * t
        + 1.340 * (s - 35.0)
        + 1.630e-2 * d
        + 1.675e-7 * d * d
        - 1.025e-2 * t * (s - 35.0)
        - 7.139e-13 * t * d * d * d
}

#[cfg(test)]
mod tests {
    use super::*;
    use vab_util::approx_eq;

    #[test]
    fn mackenzie_reference_point() {
        // Canonical check value: T=10°C, S=35 ppt, D=1000 m → ~1503.4 m/s.
        let c = mackenzie(10.0, 35.0, 1000.0);
        assert!(approx_eq(c, 1503.4, 0.5), "got {c}");
    }

    #[test]
    fn warmer_water_is_faster() {
        assert!(mackenzie(20.0, 35.0, 5.0) > mackenzie(5.0, 35.0, 5.0));
    }

    #[test]
    fn saltier_water_is_faster() {
        assert!(mackenzie(10.0, 35.0, 5.0) > mackenzie(10.0, 0.5, 5.0));
    }

    #[test]
    fn fresh_shallow_water_plausible() {
        // River-like: 15 °C, fresh, 3 m deep → mid-1460s m/s.
        let c = mackenzie(15.0, 0.5, 3.0);
        assert!(c > 1415.0 && c < 1490.0, "got {c}");
    }
}
