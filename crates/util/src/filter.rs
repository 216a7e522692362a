//! FIR filter design (windowed-sinc) and filtering primitives.

use crate::window::Window;
use crate::TAU;

/// Filter pass-band specification. All frequencies are normalized to the
/// sample rate (cycles/sample, so 0.5 is Nyquist).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Band {
    /// Pass below `cutoff`.
    Lowpass { cutoff: f64 },
    /// Pass above `cutoff`.
    Highpass { cutoff: f64 },
    /// Pass between `lo` and `hi`.
    Bandpass { lo: f64, hi: f64 },
    /// Reject between `lo` and `hi`.
    Bandstop { lo: f64, hi: f64 },
}

/// A finite-impulse-response filter.
#[derive(Debug, Clone)]
pub struct Fir {
    taps: Vec<f64>,
}

impl Fir {
    /// Windowed-sinc design. `n_taps` should be odd for a symmetric
    /// (linear-phase, type-I) filter; it is bumped to odd if even.
    ///
    /// # Panics
    /// Panics when cutoffs are outside (0, 0.5) or badly ordered.
    pub fn design(band: Band, n_taps: usize, window: Window) -> Self {
        let n = if n_taps.is_multiple_of(2) { n_taps + 1 } else { n_taps }.max(3);
        let mid = (n - 1) as f64 / 2.0;
        let sinc_lp = |fc: f64, i: usize| -> f64 {
            let t = i as f64 - mid;
            if t == 0.0 {
                2.0 * fc
            } else {
                (TAU * fc * t).sin() / (std::f64::consts::PI * t)
            }
        };
        let check = |f: f64| assert!(f > 0.0 && f < 0.5, "cutoff must be in (0, 0.5), got {f}");
        let mut taps: Vec<f64> = match band {
            Band::Lowpass { cutoff } => {
                check(cutoff);
                (0..n).map(|i| sinc_lp(cutoff, i)).collect()
            }
            Band::Highpass { cutoff } => {
                check(cutoff);
                // Spectral inversion of a lowpass: δ[mid] - lp.
                (0..n)
                    .map(|i| {
                        let d = if i as f64 == mid { 1.0 } else { 0.0 };
                        d - sinc_lp(cutoff, i)
                    })
                    .collect()
            }
            Band::Bandpass { lo, hi } => {
                check(lo);
                check(hi);
                assert!(lo < hi, "bandpass needs lo < hi");
                (0..n).map(|i| sinc_lp(hi, i) - sinc_lp(lo, i)).collect()
            }
            Band::Bandstop { lo, hi } => {
                check(lo);
                check(hi);
                assert!(lo < hi, "bandstop needs lo < hi");
                (0..n)
                    .map(|i| {
                        let d = if i as f64 == mid { 1.0 } else { 0.0 };
                        d - (sinc_lp(hi, i) - sinc_lp(lo, i))
                    })
                    .collect()
            }
        };
        for (i, t) in taps.iter_mut().enumerate() {
            *t *= window.coeff(i, n);
        }
        Self { taps }
    }

    /// The filter taps.
    #[inline]
    pub fn taps(&self) -> &[f64] {
        &self.taps
    }

    /// Filters a signal, returning an output of the same length ("same" mode:
    /// output is aligned so that the group delay is compensated).
    ///
    /// Dispatches to the overlap-save FFT engine above
    /// [`crate::ola::FFT_CROSSOVER_TAPS`] taps; short filters keep the
    /// exact direct form.
    pub fn filter_same(&self, x: &[f64]) -> Vec<f64> {
        let full = crate::ola::convolve_auto(x, &self.taps);
        let delay = (self.taps.len() - 1) / 2;
        full[delay..delay + x.len()].to_vec()
    }
}

/// Direct-form full convolution `y = x ⊛ h`.
pub fn convolve(x: &[f64], h: &[f64]) -> Vec<f64> {
    if x.is_empty() || h.is_empty() {
        return Vec::new();
    }
    let mut y = vec![0.0; x.len() + h.len() - 1];
    for (i, &xi) in x.iter().enumerate() {
        if xi == 0.0 {
            continue;
        }
        for (j, &hj) in h.iter().enumerate() {
            y[i + j] += xi * hj;
        }
    }
    y
}

/// A single-pole DC-blocking IIR filter `y[n] = x[n] - x[n-1] + r·y[n-1]`.
///
/// Used by the reader front end to strip rectifier/bias drift before
/// correlation. `r` close to 1 gives a narrow notch at DC.
#[derive(Debug, Clone)]
pub struct DcBlocker {
    r: f64,
    x1: f64,
    y1: f64,
}

impl DcBlocker {
    /// Creates a DC blocker with pole radius `r` in (0, 1).
    pub fn new(r: f64) -> Self {
        assert!(r > 0.0 && r < 1.0, "pole radius must be in (0,1)");
        Self { r, x1: 0.0, y1: 0.0 }
    }

    /// Processes one sample.
    #[inline]
    pub fn step(&mut self, x: f64) -> f64 {
        let y = x - self.x1 + self.r * self.y1;
        self.x1 = x;
        self.y1 = y;
        y
    }

    /// Processes a whole buffer.
    pub fn process(&mut self, x: &[f64]) -> Vec<f64> {
        x.iter().map(|&v| self.step(v)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Magnitude response in dB at normalized frequency `f`.
    fn magnitude_db(fir: &Fir, f: f64) -> f64 {
        let h: crate::complex::C64 = fir
            .taps
            .iter()
            .enumerate()
            .map(|(i, &t)| t * crate::complex::C64::cis(-TAU * f * i as f64))
            .sum();
        20.0 * h.abs().log10()
    }

    #[test]
    fn convolution_identity() {
        let x = [1.0, 2.0, 3.0];
        assert_eq!(convolve(&x, &[1.0]), vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn convolution_known_result() {
        // [1,1] ⊛ [1,1] = [1,2,1]
        assert_eq!(convolve(&[1.0, 1.0], &[1.0, 1.0]), vec![1.0, 2.0, 1.0]);
    }

    #[test]
    fn convolution_commutes() {
        let a = [0.5, -1.0, 2.0, 0.25];
        let b = [1.0, 3.0, -2.0];
        assert_eq!(convolve(&a, &b), convolve(&b, &a));
    }

    #[test]
    fn lowpass_passes_low_blocks_high() {
        let f = Fir::design(Band::Lowpass { cutoff: 0.1 }, 101, Window::Hamming);
        assert!(magnitude_db(&f, 0.01) > -1.0, "passband droop");
        assert!(magnitude_db(&f, 0.25) < -40.0, "stopband leak");
    }

    #[test]
    fn highpass_blocks_dc() {
        let f = Fir::design(Band::Highpass { cutoff: 0.2 }, 101, Window::Hamming);
        assert!(magnitude_db(&f, 0.0) < -40.0);
        assert!(magnitude_db(&f, 0.35) > -1.0);
    }

    #[test]
    fn bandpass_selects_band() {
        let f = Fir::design(Band::Bandpass { lo: 0.15, hi: 0.25 }, 151, Window::Hamming);
        assert!(magnitude_db(&f, 0.2) > -1.0);
        assert!(magnitude_db(&f, 0.05) < -40.0);
        assert!(magnitude_db(&f, 0.4) < -40.0);
    }

    #[test]
    fn bandstop_notches_band() {
        let f = Fir::design(Band::Bandstop { lo: 0.18, hi: 0.22 }, 201, Window::Hamming);
        assert!(magnitude_db(&f, 0.2) < -20.0);
        assert!(magnitude_db(&f, 0.05) > -1.0);
        assert!(magnitude_db(&f, 0.4) > -1.0);
    }

    #[test]
    fn even_tap_request_is_bumped_to_odd() {
        let f = Fir::design(Band::Lowpass { cutoff: 0.1 }, 100, Window::Hann);
        assert_eq!(f.taps().len() % 2, 1);
    }

    #[test]
    fn filter_same_preserves_length_and_alignment() {
        let f = Fir::design(Band::Lowpass { cutoff: 0.2 }, 51, Window::Hamming);
        // A slow sine should come through nearly unchanged and aligned.
        let n = 400;
        let x: Vec<f64> = (0..n).map(|i| (TAU * 0.05 * i as f64).sin()).collect();
        let y = f.filter_same(&x);
        assert_eq!(y.len(), n);
        // Compare away from the edges.
        for i in 60..n - 60 {
            assert!((y[i] - x[i]).abs() < 0.02, "misaligned at {i}: {} vs {}", y[i], x[i]);
        }
    }

    #[test]
    fn dc_blocker_removes_offset_keeps_ac() {
        let mut blk = DcBlocker::new(0.995);
        let n = 4000;
        let x: Vec<f64> = (0..n).map(|i| 3.0 + (TAU * 0.05 * i as f64).sin()).collect();
        let y = blk.process(&x);
        let tail = &y[n / 2..];
        let mean: f64 = tail.iter().sum::<f64>() / tail.len() as f64;
        assert!(mean.abs() < 0.01, "residual DC {mean}");
        let peak = tail.iter().cloned().fold(f64::MIN, f64::max);
        assert!(peak > 0.9, "AC attenuated: {peak}");
    }

    #[test]
    #[should_panic(expected = "cutoff must be in")]
    fn bad_cutoff_panics() {
        let _ = Fir::design(Band::Lowpass { cutoff: 0.7 }, 11, Window::Hann);
    }
}
