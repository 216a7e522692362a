//! Physical-layer capture: what the hydrophone actually hears when
//! several backscatter replies land in one slot.
//!
//! Replies are incoherent at the hydrophone (independent multipath,
//! centimetre-scale platform sway at an 18.5 kHz carrier), so colliding
//! powers superpose linearly. A reply is *captured* when its SINR —
//! signal over noise **plus** every other respondent's power — clears a
//! threshold; only then does the reader even attempt a decode. This
//! replaces the abstract "two respondents = collision" bit with the
//! capture effect real readers exhibit: a strong near node can punch
//! through a weak far one.

use vab_util::db::db_to_lin_pow;

/// Default capture threshold, dB. At ≥ 6 dB SINR the strongest reply is
/// at least four times everything else combined, so at most one reply
/// can be above threshold in any slot — capture is naturally exclusive.
pub const DEFAULT_CAPTURE_THRESHOLD_DB: f64 = 6.0;

/// SINR of a reply with linear received power `signal_lin` against
/// `interference_lin` (sum of the other respondents' powers) and
/// `noise_lin`, in dB.
pub fn sinr_db(signal_lin: f64, interference_lin: f64, noise_lin: f64) -> f64 {
    10.0 * (signal_lin / (noise_lin + interference_lin)).log10()
}

/// Half-width of the relative band around the linear threshold inside
/// which [`CaptureModel`] falls back to the dB comparison. It is about
/// 10⁶ times wider than the rounding error of `10·log10`, so outside the
/// band the linear comparison decides exactly what the dB one would.
const LINEAR_BAND_REL: f64 = 1e-9;

/// The SINR-threshold capture rule.
///
/// The rule is `10·log10(sinr) ≥ threshold_db`. Inventory applies it to
/// every occupied slot (millions per ocean deployment), so the model
/// compares the linear SINR with the linear threshold instead, and takes
/// the `log10` only inside a ±1e-9 relative band around it, where the two
/// comparisons could round differently. The band edges are derived once,
/// when the model is built, from the one private `threshold_db`, so they
/// cannot drift from it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CaptureModel {
    threshold_db: f64,
    /// SINRs below this do not capture (the band's lower edge).
    below: f64,
    /// SINRs above this capture (the band's upper edge).
    above: f64,
}

impl Default for CaptureModel {
    fn default() -> Self {
        Self::new(DEFAULT_CAPTURE_THRESHOLD_DB)
    }
}

impl CaptureModel {
    /// A capture rule with a minimum SINR of `threshold_db`.
    pub fn new(threshold_db: f64) -> Self {
        let threshold_lin = db_to_lin_pow(threshold_db);
        Self {
            threshold_db,
            below: threshold_lin * (1.0 - LINEAR_BAND_REL),
            above: threshold_lin * (1.0 + LINEAR_BAND_REL),
        }
    }

    /// Whether a reply at linear SINR `sinr_lin` captures: the same
    /// decision as `10·log10(sinr_lin) ≥ threshold_db`, which is taken
    /// only inside the band (and for NaN, which fails both edges).
    pub fn clears(&self, sinr_lin: f64) -> bool {
        if sinr_lin > self.above {
            true
        } else if sinr_lin < self.below {
            false
        } else {
            10.0 * sinr_lin.log10() >= self.threshold_db
        }
    }

    /// Picks the capture candidate among `respondents` (pairs of address
    /// and linear received power) against `noise_lin`.
    ///
    /// Returns the strongest respondent and its *linear* SINR when that
    /// SINR clears the threshold, `None` otherwise (including the empty
    /// slot). With a threshold ≥ ~5 dB at most one respondent can clear
    /// it, so "the strongest" is the only possible winner.
    pub fn capture_candidate(
        &self,
        respondents: &[(vab_mac::Addr, f64)],
        noise_lin: f64,
    ) -> Option<(vab_mac::Addr, f64)> {
        let total: f64 = respondents.iter().map(|&(_, p)| p).sum();
        let (addr, p) = respondents.iter().copied().max_by(|a, b| a.1.total_cmp(&b.1))?;
        let sinr_lin = p / (noise_lin + (total - p));
        self.clears(sinr_lin).then_some((addr, sinr_lin))
    }

    /// [`CaptureModel::capture_candidate`] for a slot with one respondent,
    /// `addr` at power `p`, bit for bit and without the slice. The float
    /// `Sum` of one power is `p` (it folds from −0.0, and `−0.0 + p` is
    /// `p` for every `p`, zero included), so the SINR is the general
    /// `p / (noise + (total − p))` with `total = p`: `NaN` for an infinite
    /// `p`, as there.
    pub(crate) fn capture_lone(
        &self,
        addr: vab_mac::Addr,
        p: f64,
        noise_lin: f64,
    ) -> Option<(vab_mac::Addr, f64)> {
        let total = p;
        let sinr_lin = p / (noise_lin + (total - p));
        self.clears(sinr_lin).then_some((addr, sinr_lin))
    }
}

/// Jain's fairness index of a non-negative allocation:
/// `(Σx)² / (n·Σx²)`, which is 1 for a perfectly even allocation and
/// `1/n` when one participant takes everything.
///
/// Degenerate inputs (empty, or all-zero — nobody got anything, which is
/// evenly "fair") return 1.0, so the index always lies in `(0, 1]`.
pub fn jain_fairness(xs: &[f64]) -> f64 {
    let sum: f64 = xs.iter().sum();
    let sq_sum: f64 = xs.iter().map(|x| x * x).sum();
    if xs.is_empty() || sq_sum <= 0.0 {
        return 1.0;
    }
    (sum * sum) / (xs.len() as f64 * sq_sum)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The dB capture test the linear one replaces: the oracle.
    fn clears_db(m: &CaptureModel, sinr_lin: f64) -> bool {
        10.0 * sinr_lin.log10() >= m.threshold_db
    }

    /// `x` moved by `k` units in the last place (positive `x` only).
    fn ulps(x: f64, k: i64) -> f64 {
        f64::from_bits((x.to_bits() as i64 + k) as u64)
    }

    #[test]
    fn linear_test_matches_the_db_test_around_many_thresholds() {
        // Every threshold on a 0.01 dB grid over ±40 dB, probed at the
        // linear threshold, ±1…64 ULPs of it and both band edges from
        // either side. A linear test without the band disagrees with the
        // dB test a few ULPs from some of these thresholds.
        for step in -4000..=4000 {
            let m = CaptureModel::new(step as f64 * 0.01);
            let t = db_to_lin_pow(m.threshold_db);
            let mut probes = vec![t, m.below, m.above];
            for k in 1..=64 {
                probes.extend([ulps(t, k), ulps(t, -k)]);
            }
            for edge in [m.below, m.above] {
                probes.extend([ulps(edge, 1), ulps(edge, -1)]);
            }
            for x in probes {
                assert_eq!(
                    m.clears(x),
                    clears_db(&m, x),
                    "threshold {} dB, sinr {x:e}",
                    m.threshold_db
                );
            }
        }
    }

    #[test]
    fn degenerate_sinrs_decide_like_the_db_test() {
        let m = CaptureModel::default();
        for x in [0.0, -1.0, f64::INFINITY, f64::NAN, f64::MIN_POSITIVE, f64::MAX] {
            assert_eq!(m.clears(x), clears_db(&m, x), "sinr {x:e}");
        }
    }

    proptest! {
        #[test]
        fn linear_test_matches_the_db_test(
            threshold_db in -60.0f64..60.0,
            k in -1000i64..1000,
            rel in -1e-6f64..1e-6,
            random_db in -80.0f64..80.0,
        ) {
            let m = CaptureModel::new(threshold_db);
            let t = db_to_lin_pow(threshold_db);
            for x in [t, ulps(t, k), t * (1.0 + rel), m.below, m.above, db_to_lin_pow(random_db)] {
                prop_assert_eq!(m.clears(x), clears_db(&m, x));
            }
        }
    }

    #[test]
    fn empty_slot_has_no_candidate() {
        assert!(CaptureModel::default().capture_candidate(&[], 1.0).is_none());
    }

    #[test]
    fn lone_strong_reply_captures() {
        let m = CaptureModel::default();
        let (addr, sinr) = m.capture_candidate(&[(7, 100.0)], 1.0).expect("captures");
        assert_eq!(addr, 7);
        assert!((10.0 * sinr.log10() - 20.0).abs() < 1e-9);
    }

    #[test]
    fn near_far_capture_and_symmetric_collision() {
        let m = CaptureModel::default();
        // 20 dB near-far gap: the near node captures through the far one.
        let (addr, _) = m.capture_candidate(&[(1, 100.0), (2, 1.0)], 0.1).expect("capture");
        assert_eq!(addr, 1);
        // Equal powers: SINR ≈ 0 dB each, below threshold — true collision.
        assert!(m.capture_candidate(&[(1, 50.0), (2, 50.0)], 0.1).is_none());
    }

    #[test]
    fn capture_is_monotone_in_power() {
        // More signal power never lowers SINR against fixed company.
        let noise = 0.5;
        let mut last = f64::NEG_INFINITY;
        for p in [1.0, 2.0, 4.0, 8.0, 64.0] {
            let s = sinr_db(p, 3.0, noise);
            assert!(s > last);
            last = s;
        }
    }

    #[test]
    fn jain_bounds_and_known_values() {
        assert_eq!(jain_fairness(&[]), 1.0);
        assert_eq!(jain_fairness(&[0.0, 0.0]), 1.0);
        assert!((jain_fairness(&[5.0, 5.0, 5.0]) - 1.0).abs() < 1e-12);
        // One of four takes everything → 1/4.
        assert!((jain_fairness(&[1.0, 0.0, 0.0, 0.0]) - 0.25).abs() < 1e-12);
    }
}
