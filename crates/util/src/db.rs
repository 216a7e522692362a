//! Decibel ↔ linear conversions.
//!
//! Underwater acoustics mixes *power* quantities (source level, noise level,
//! SNR) and *amplitude* quantities (pressure, voltage). The two conversion
//! families differ by a factor of two in the exponent and confusing them is
//! the classic sonar-equation bug, so both are spelled out explicitly.

/// Converts a power ratio to decibels: `10·log10(x)`.
#[inline]
pub fn lin_pow_to_db(x: f64) -> f64 {
    10.0 * x.log10()
}

/// Converts decibels to a power ratio: `10^(x/10)`.
#[inline]
pub fn db_to_lin_pow(db: f64) -> f64 {
    10f64.powf(db / 10.0)
}

/// Converts an amplitude ratio (pressure, voltage) to decibels: `20·log10(x)`.
#[inline]
pub fn lin_amp_to_db(x: f64) -> f64 {
    20.0 * x.log10()
}

/// Converts decibels to an amplitude ratio: `10^(x/20)`.
#[inline]
pub fn db_to_lin_amp(db: f64) -> f64 {
    10f64.powf(db / 20.0)
}

/// Sums an arbitrary collection of incoherent power levels in dB.
///
/// Returns `f64::NEG_INFINITY` for an empty input (zero power).
pub fn power_db_sum<I: IntoIterator<Item = f64>>(levels_db: I) -> f64 {
    let total: f64 = levels_db.into_iter().map(db_to_lin_pow).sum();
    if total <= 0.0 {
        f64::NEG_INFINITY
    } else {
        lin_pow_to_db(total)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::approx_eq;

    #[test]
    fn power_roundtrip() {
        for db in [-120.0, -3.0, 0.0, 10.0, 96.5] {
            assert!(approx_eq(lin_pow_to_db(db_to_lin_pow(db)), db, 1e-12));
        }
    }

    #[test]
    fn amplitude_roundtrip() {
        for db in [-60.0, 0.0, 6.0, 40.0] {
            assert!(approx_eq(lin_amp_to_db(db_to_lin_amp(db)), db, 1e-12));
        }
    }

    #[test]
    fn amplitude_vs_power_factor_two() {
        // A 2× amplitude ratio is ~6.02 dB; a 2× power ratio is ~3.01 dB.
        assert!(approx_eq(lin_amp_to_db(2.0), 6.0206, 1e-4));
        assert!(approx_eq(lin_pow_to_db(2.0), 3.0103, 1e-4));
    }

    #[test]
    fn incoherent_addition() {
        assert!(approx_eq(power_db_sum([60.0, 60.0]), 63.0103, 1e-4));
        // A source 20 dB below another barely moves the total.
        assert!(power_db_sum([60.0, 40.0]) < 60.05);
    }

    #[test]
    fn power_sum_empty_is_neg_inf() {
        assert_eq!(power_db_sum(std::iter::empty()), f64::NEG_INFINITY);
    }

    #[test]
    fn power_sum_matches_pairwise() {
        let s = power_db_sum([50.0, 53.0, 47.0]);
        let pair = |a: f64, b: f64| lin_pow_to_db(db_to_lin_pow(a) + db_to_lin_pow(b));
        let p = pair(pair(50.0, 53.0), 47.0);
        assert!(approx_eq(s, p, 1e-12));
    }
}
