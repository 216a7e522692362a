//! Carrier cancellation.
//!
//! The reader's hydrophone hears its own projector 40–80 dB louder than the
//! backscattered sidebands. At complex baseband the un-modulated carrier
//! (direct arrival plus every static reflection) is a DC term; the
//! information lives at ± the chip rate. Cancellation is therefore a DC/
//! slow-drift removal problem at baseband, or a narrow band-stop at the
//! carrier in passband.

use vab_util::complex::C64;
use vab_util::filter::{Band, Fir};
use vab_util::window::Window;

/// Subtracts the complex mean — ideal static-carrier cancellation.
#[cfg(test)]
pub(crate) fn remove_dc(x: &[C64]) -> Vec<C64> {
    if x.is_empty() {
        return Vec::new();
    }
    let mean = x.iter().copied().sum::<C64>() / x.len() as f64;
    x.iter().map(|&v| v - mean).collect()
}

/// Sliding-window DC removal: subtracts a local mean over `window` samples,
/// tracking slow carrier drift (clock offset, platform motion) that a global
/// mean would miss. `window` should span many chips but be shorter than the
/// drift timescale.
///
/// Sample `i`'s mean runs over `[i − h, i + h]` with `h = window / 2`,
/// clipped to the buffer, as `(P[hi] − P[lo]) / (hi − lo)` of the running
/// prefix sums `P[k] = x[0] + … + x[k − 1]`. One pass: the prefix sums are
/// added in order into a ring of the last `2h + 2` of them (a window
/// never spans more), so the scratch stays window-sized, not `n`-sized,
/// and the result is bit-identical to a full prefix array. Dividing by a
/// count is scaling by its reciprocal, so the interior windows' `1/(2h+1)`
/// is computed once.
pub fn remove_dc_sliding(x: &[C64], window: usize) -> Vec<C64> {
    let n = x.len();
    if n == 0 {
        return Vec::new();
    }
    let h = window.clamp(1, n) / 2;
    // `P[k]` lives in slot `k mod len`.
    let len = (2 * h + 2).min(n + 1);
    let mut ring = vec![C64::ZERO; len];
    let mut acc = C64::ZERO;
    // Sample 0's window ends at P[h + 1] (or P[n]).
    let first_hi = (h + 1).min(n);
    for (slot, &v) in ring[1..=first_hi].iter_mut().zip(x) {
        acc += v;
        *slot = acc;
    }
    let next = |slot: usize| if slot + 1 == len { 0 } else { slot + 1 };
    let (mut hi_slot, mut lo_slot) = (first_hi, 0);
    let interior = 1.0 / (2 * h + 1) as f64;
    let mut out = Vec::with_capacity(n);
    for (i, &v) in x.iter().enumerate() {
        let end = i + h + 1;
        if i > 0 && end <= n {
            acc += x[end - 1];
            hi_slot = next(hi_slot);
            ring[hi_slot] = acc;
        }
        if i > h {
            lo_slot = next(lo_slot);
        }
        let span = end.min(n) - i.saturating_sub(h);
        let inv = if span == 2 * h + 1 { interior } else { 1.0 / span as f64 };
        out.push(v - (ring[hi_slot] - ring[lo_slot]).scale(inv));
    }
    out
}

/// A passband carrier notch: band-stop FIR centred on the carrier with the
/// given half-width, at sample rate `fs`.
pub fn carrier_notch(carrier_hz: f64, half_width_hz: f64, fs: f64, taps: usize) -> Fir {
    let lo = ((carrier_hz - half_width_hz) / fs).clamp(1e-4, 0.4999);
    let hi = ((carrier_hz + half_width_hz) / fs).clamp(lo + 1e-4, 0.4999);
    Fir::design(Band::Bandstop { lo, hi }, taps, Window::Hamming)
}

#[cfg(test)]
mod tests {
    use super::*;
    use vab_util::rng::{complex_gaussian, seeded};
    use vab_util::TAU;

    #[test]
    fn remove_dc_zeroes_the_mean() {
        let x: Vec<C64> = (0..100).map(|i| C64::new(5.0 + (i as f64 * 0.3).sin(), -2.0)).collect();
        let y = remove_dc(&x);
        let mean = y.iter().copied().sum::<C64>() / y.len() as f64;
        assert!(mean.abs() < 1e-12);
    }

    #[test]
    fn remove_dc_preserves_modulation() {
        // DC + square modulation: after removal the square survives.
        let x: Vec<C64> =
            (0..64).map(|i| C64::real(100.0 + if (i / 8) % 2 == 0 { 1.0 } else { -1.0 })).collect();
        let y = remove_dc(&x);
        let swing = y.iter().map(|c| c.re).fold(f64::MIN, f64::max)
            - y.iter().map(|c| c.re).fold(f64::MAX, f64::min);
        assert!((swing - 2.0).abs() < 1e-9, "swing {swing}");
    }

    #[test]
    fn sliding_dc_tracks_drift() {
        // Carrier drifting linearly in phase; global mean can't cancel it,
        // sliding mean mostly can.
        let n = 2000;
        let x: Vec<C64> = (0..n)
            .map(|i| {
                let drift = C64::from_polar(50.0, 1e-3 * i as f64);
                let signal = C64::real(if (i / 20) % 2 == 0 { 1.0 } else { -1.0 });
                drift + signal
            })
            .collect();
        let global = remove_dc(&x);
        let sliding = remove_dc_sliding(&x, 200);
        let resid = |v: &[C64]| v.iter().map(|c| c.norm_sq()).sum::<f64>() / v.len() as f64;
        // Signal power is 1; global removal leaves large drift residual.
        assert!(
            resid(&sliding) < resid(&global) / 3.0,
            "sliding {} vs global {}",
            resid(&sliding),
            resid(&global)
        );
    }

    #[test]
    fn notch_kills_carrier_keeps_sidebands() {
        let fs = 96000.0;
        let f0 = 18500.0;
        let notch = carrier_notch(f0, 250.0, fs, 2401);
        let n = 8192;
        let carrier: Vec<f64> = (0..n).map(|i| (TAU * f0 * i as f64 / fs).sin()).collect();
        let sideband: Vec<f64> =
            (0..n).map(|i| (TAU * (f0 + 600.0) * i as f64 / fs).sin()).collect();
        let c_out = notch.filter_same(&carrier);
        let s_out = notch.filter_same(&sideband);
        // Evaluate in steady state, away from the filter's edge transients.
        let pow = |v: &[f64]| {
            let inner = &v[1500..v.len() - 1500];
            inner.iter().map(|x| x * x).sum::<f64>() / inner.len() as f64
        };
        assert!(pow(&c_out) < 1e-3 * pow(&carrier), "carrier leaked: {}", pow(&c_out));
        assert!(pow(&s_out) > 0.5 * pow(&sideband), "sideband damaged: {}", pow(&s_out));
    }

    /// The prefix-array sliding mean the one-pass ring replaced: an
    /// `n + 1`-entry prefix sum, then one division per sample. Kept as the
    /// bit-exactness oracle.
    fn remove_dc_sliding_prefix(x: &[C64], window: usize) -> Vec<C64> {
        let n = x.len();
        if n == 0 {
            return Vec::new();
        }
        let w = window.clamp(1, n);
        let mut prefix = Vec::with_capacity(n + 1);
        prefix.push(C64::ZERO);
        for &v in x {
            let last = *prefix.last().expect("nonempty");
            prefix.push(last + v);
        }
        (0..n)
            .map(|i| {
                let lo = i.saturating_sub(w / 2);
                let hi = (i + w / 2 + 1).min(n);
                let mean = (prefix[hi] - prefix[lo]) / (hi - lo) as f64;
                x[i] - mean
            })
            .collect()
    }

    fn bits(v: &[C64]) -> Vec<(u64, u64)> {
        v.iter().map(|c| (c.re.to_bits(), c.im.to_bits())).collect()
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(256))]
        #[test]
        fn sliding_dc_matches_the_prefix_array_oracle_bit_for_bit(
            n in 1usize..700,
            window in 0usize..1500,
            leak in 0.0f64..1e4,
            seed in proptest::prelude::any::<u64>(),
        ) {
            // Windows of 0 and 1 sample, odd and even, and at, past and far
            // past the buffer length (n = 1 included).
            let mut rng = seeded(seed);
            let x: Vec<C64> =
                (0..n).map(|_| C64::real(leak) + complex_gaussian(&mut rng, 1.0)).collect();
            proptest::prop_assert_eq!(
                bits(&remove_dc_sliding(&x, window)),
                bits(&remove_dc_sliding_prefix(&x, window))
            );
        }
    }

    #[test]
    fn sliding_dc_matches_the_oracle_at_every_edge_width() {
        let mut rng = seeded(4);
        for n in [1usize, 2, 3, 4, 5, 8, 33] {
            let x: Vec<C64> =
                (0..n).map(|_| C64::new(3.0, -1.0) + complex_gaussian(&mut rng, 0.5)).collect();
            for window in 0..=(2 * n + 3) {
                assert_eq!(
                    bits(&remove_dc_sliding(&x, window)),
                    bits(&remove_dc_sliding_prefix(&x, window)),
                    "n = {n}, window = {window}"
                );
            }
        }
    }

    #[test]
    fn empty_input_ok() {
        assert!(remove_dc(&[]).is_empty());
        assert!(remove_dc_sliding(&[], 10).is_empty());
    }
}
