//! Waveform synthesis: tones, pulses and chirps for the reader transmitter.

use vab_util::TAU;

/// A real sinusoid `amp·sin(2πft + φ)` of `n` samples at rate `fs`.
pub fn tone(freq_hz: f64, fs: f64, n: usize, amp: f64, phase: f64) -> Vec<f64> {
    (0..n).map(|i| amp * (TAU * freq_hz * i as f64 / fs + phase).sin()).collect()
}

/// A gated tone burst: `cycles` full cycles of `freq_hz`, zero-padded to `n`.
pub fn tone_burst(freq_hz: f64, fs: f64, cycles: usize, n: usize, amp: f64) -> Vec<f64> {
    let burst_len = ((cycles as f64 / freq_hz) * fs).round() as usize;
    let mut v = tone(freq_hz, fs, burst_len.min(n), amp, 0.0);
    v.resize(n, 0.0);
    v
}

/// A linear FM chirp sweeping `f0 → f1` over `n` samples (real passband).
/// Chirps make excellent sync preambles: their autocorrelation is a sharp
/// spike with processing gain ≈ time–bandwidth product.
pub fn chirp(f0: f64, f1: f64, fs: f64, n: usize, amp: f64) -> Vec<f64> {
    let t_total = n as f64 / fs;
    let k = (f1 - f0) / t_total;
    (0..n)
        .map(|i| {
            let t = i as f64 / fs;
            amp * (TAU * (f0 * t + 0.5 * k * t * t)).sin()
        })
        .collect()
}

/// A raised-cosine amplitude ramp applied in place over the first and last
/// `ramp` samples — projectors cannot step pressure instantaneously.
pub fn apply_ramps(x: &mut [f64], ramp: usize) {
    let n = x.len();
    let r = ramp.min(n / 2);
    for i in 0..r {
        let w = 0.5 - 0.5 * (std::f64::consts::PI * i as f64 / r as f64).cos();
        x[i] *= w;
        x[n - 1 - i] *= w;
    }
}

/// RMS of a real signal.
pub fn rms(x: &[f64]) -> f64 {
    if x.is_empty() {
        return 0.0;
    }
    (x.iter().map(|v| v * v).sum::<f64>() / x.len() as f64).sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;
    use vab_util::approx_eq;
    use vab_util::fft::goertzel_power;

    #[test]
    fn tone_frequency_is_right() {
        let fs = 48000.0;
        let x = tone(18500.0, fs, 4800, 1.0, 0.0);
        let on = goertzel_power(&x, 18500.0, fs);
        let off = goertzel_power(&x, 12000.0, fs);
        assert!(on > 1e4 * off);
    }

    #[test]
    fn tone_rms_is_amp_over_sqrt2() {
        let x = tone(1000.0, 48000.0, 48000, 2.0, 0.0);
        assert!(approx_eq(rms(&x), 2.0 / std::f64::consts::SQRT_2, 1e-3));
    }

    #[test]
    fn burst_is_zero_after_gate() {
        let x = tone_burst(1000.0, 48000.0, 10, 1000, 1.0);
        assert_eq!(x.len(), 1000);
        // 10 cycles at 1 kHz / 48 kHz = 480 samples.
        assert!(x[481..].iter().all(|&v| v == 0.0));
        assert!(rms(&x[..480]) > 0.5);
    }

    #[test]
    fn chirp_sweeps_band() {
        let fs = 48000.0;
        let x = chirp(15000.0, 22000.0, fs, 9600, 1.0);
        // Early part near f0, late part near f1.
        let early = &x[..1200];
        let late = &x[8400..];
        assert!(goertzel_power(early, 15400.0, fs) > goertzel_power(early, 21000.0, fs));
        assert!(goertzel_power(late, 21500.0, fs) > goertzel_power(late, 15400.0, fs));
    }

    #[test]
    fn chirp_autocorrelation_is_sharp() {
        let fs = 48000.0;
        let n = 4800;
        let x = chirp(15000.0, 22000.0, fs, n, 1.0);
        let corr = |lag: usize| -> f64 {
            x[..n - lag].iter().zip(&x[lag..]).map(|(a, b)| a * b).sum::<f64>().abs()
        };
        let peak = corr(0);
        assert!(corr(100) < 0.1 * peak);
        assert!(corr(500) < 0.1 * peak);
    }

    #[test]
    fn ramps_taper_edges() {
        let mut x = vec![1.0; 100];
        apply_ramps(&mut x, 10);
        assert_eq!(x[0], 0.0);
        assert_eq!(x[99], 0.0);
        assert!(x[5] > 0.0 && x[5] < 1.0);
        assert_eq!(x[50], 1.0);
    }
}
