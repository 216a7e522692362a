//! Window functions for FIR design and spectral analysis.

use crate::special::bessel_i0;
use crate::TAU;

/// The window families supported by the workspace.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Window {
    /// Rectangular (no taper).
    Rect,
    /// Hann (raised cosine).
    Hann,
    /// Hamming.
    Hamming,
    /// Blackman (three-term).
    Blackman,
    /// Kaiser with shape parameter β.
    Kaiser(f64),
}

impl Window {
    /// Evaluates the window at sample `i` of an `n`-point window.
    pub fn coeff(self, i: usize, n: usize) -> f64 {
        assert!(n > 0, "window length must be positive");
        if n == 1 {
            return 1.0;
        }
        let x = i as f64 / (n - 1) as f64; // 0..=1
        match self {
            Window::Rect => 1.0,
            Window::Hann => 0.5 - 0.5 * (TAU * x).cos(),
            Window::Hamming => 0.54 - 0.46 * (TAU * x).cos(),
            Window::Blackman => 0.42 - 0.5 * (TAU * x).cos() + 0.08 * (2.0 * TAU * x).cos(),
            Window::Kaiser(beta) => {
                let t = 2.0 * x - 1.0; // -1..=1
                bessel_i0(beta * (1.0 - t * t).sqrt()) / bessel_i0(beta)
            }
        }
    }

    /// Generates the full `n`-point window.
    pub fn generate(self, n: usize) -> Vec<f64> {
        (0..n).map(|i| self.coeff(i, n)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::approx_eq;

    #[test]
    fn windows_are_symmetric() {
        for w in [Window::Hann, Window::Hamming, Window::Blackman, Window::Kaiser(6.0)] {
            let v = w.generate(65);
            for i in 0..v.len() {
                assert!(approx_eq(v[i], v[v.len() - 1 - i], 1e-12), "{w:?} not symmetric at {i}");
            }
        }
    }

    #[test]
    fn hann_endpoints_are_zero_and_peak_is_one() {
        let v = Window::Hann.generate(33);
        assert!(v[0].abs() < 1e-12 && v[32].abs() < 1e-12);
        assert!(approx_eq(v[16], 1.0, 1e-12));
    }

    #[test]
    fn rect_is_all_ones() {
        assert!(Window::Rect.generate(10).iter().all(|&x| x == 1.0));
    }

    #[test]
    fn kaiser_beta_zero_is_rect() {
        let v = Window::Kaiser(0.0).generate(9);
        for x in v {
            assert!(approx_eq(x, 1.0, 1e-12));
        }
    }

    #[test]
    fn length_one_window_is_unity() {
        for w in [Window::Rect, Window::Hann, Window::Kaiser(8.0)] {
            assert_eq!(w.generate(1), vec![1.0]);
        }
    }
}
