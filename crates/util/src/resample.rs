//! Fractional delay and resampling.
//!
//! Multipath arrivals land between sample instants; applying an integer
//! round of the delay would bias phase by up to half a sample (several
//! degrees at the VAB carrier), so the channel simulator uses windowed-sinc
//! fractional delays from this module.

use crate::window::Window;

/// Delays a signal by a (possibly fractional) number of samples using a
/// windowed-sinc interpolator, returning a buffer of length
/// `x.len() + ceil(delay) + taps`.
///
/// `taps` controls interpolation quality; 16–32 is plenty for simulation.
pub fn fractional_delay(x: &[f64], delay_samples: f64, taps: usize) -> Vec<f64> {
    assert!(delay_samples >= 0.0, "delay must be non-negative");
    assert!(taps >= 4, "need at least 4 interpolator taps");
    let int_delay = delay_samples.floor() as usize;
    let frac = delay_samples - int_delay as f64;
    let out_len = x.len() + int_delay + taps;
    let mut y = vec![0.0; out_len];
    if x.is_empty() {
        return y;
    }
    if frac == 0.0 {
        y[int_delay..int_delay + x.len()].copy_from_slice(x);
        return y;
    }
    // Sinc kernel centered at `frac` within a `taps`-long window.
    let half = taps as f64 / 2.0;
    let kernel: Vec<f64> = (0..taps)
        .map(|i| {
            let t = i as f64 - (half - 1.0) - frac;
            let s = if t == 0.0 {
                1.0
            } else {
                (std::f64::consts::PI * t).sin() / (std::f64::consts::PI * t)
            };
            s * Window::Hann.coeff(i, taps)
        })
        .collect();
    // Normalize kernel DC gain to exactly 1 so long delays don't change level.
    let gain: f64 = kernel.iter().sum();
    let base = int_delay as isize - (half as isize - 1);
    // High-order interpolators are a plain convolution with the kernel
    // placed at `base`; route those through the overlap-save engine. The
    // short kernels every simulation call uses stay on the exact direct
    // loop.
    if taps >= crate::ola::FFT_CROSSOVER_TAPS && x.len() >= taps {
        let scaled: Vec<f64> = kernel.iter().map(|k| k / gain).collect();
        let conv = crate::ola::convolve_fft(x, &scaled);
        for (i, &v) in conv.iter().enumerate() {
            let idx = i as isize + base;
            if idx >= 0 && (idx as usize) < out_len {
                y[idx as usize] = v;
            }
        }
        return y;
    }
    for (i, &xi) in x.iter().enumerate() {
        if xi == 0.0 {
            continue;
        }
        for (j, &k) in kernel.iter().enumerate() {
            let idx = i as isize + base + j as isize;
            if idx >= 0 && (idx as usize) < out_len {
                y[idx as usize] += xi * k / gain;
            }
        }
    }
    y
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TAU;

    #[test]
    fn integer_delay_shifts_exactly() {
        let x = [1.0, 2.0, 3.0];
        let y = fractional_delay(&x, 2.0, 8);
        assert_eq!(&y[2..5], &[1.0, 2.0, 3.0]);
        assert!(y[..2].iter().all(|&v| v == 0.0));
    }

    #[test]
    fn fractional_delay_shifts_sine_phase() {
        let fs = 1000.0;
        let f = 50.0;
        let n = 512;
        let x: Vec<f64> = (0..n).map(|i| (TAU * f * i as f64 / fs).sin()).collect();
        let d = 3.37;
        let y = fractional_delay(&x, d, 32);
        // In the steady-state interior, y[i] ≈ sin(2πf(i-d)/fs).
        for (i, &yi) in y.iter().enumerate().take(400).skip(100) {
            let want = (TAU * f * (i as f64 - d) / fs).sin();
            assert!((yi - want).abs() < 5e-3, "i={i}: {yi} vs {want}");
        }
    }

    #[test]
    fn fractional_delay_preserves_amplitude() {
        let fs = 1000.0;
        let x: Vec<f64> = (0..800).map(|i| (TAU * 40.0 * i as f64 / fs).cos()).collect();
        let y = fractional_delay(&x, 0.5, 32);
        let peak = y[100..700].iter().cloned().fold(f64::MIN, f64::max);
        assert!((peak - 1.0).abs() < 0.01, "peak {peak}");
    }

    #[test]
    fn long_interpolator_fft_path_matches_sine_shift() {
        // 64 taps crosses the FFT dispatch threshold; the result must
        // still be the delayed sine to interpolator accuracy.
        let fs = 1000.0;
        let f = 50.0;
        let n = 512;
        let x: Vec<f64> = (0..n).map(|i| (TAU * f * i as f64 / fs).sin()).collect();
        let d = 7.41;
        let y = fractional_delay(&x, d, 64);
        for (i, &yi) in y.iter().enumerate().take(400).skip(120) {
            let want = (TAU * f * (i as f64 - d) / fs).sin();
            assert!((yi - want).abs() < 5e-3, "i={i}: {yi} vs {want}");
        }
    }

    #[test]
    fn empty_inputs_are_fine() {
        assert!(fractional_delay(&[], 1.5, 8).iter().all(|&v| v == 0.0));
    }
}
