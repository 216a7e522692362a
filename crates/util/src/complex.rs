//! Minimal complex-number type used throughout the workspace.
//!
//! The standard library has no complex type and the workspace deliberately
//! avoids `num-complex`; this covers everything the DSP and circuit code
//! needs: field arithmetic, polar forms, `exp`, conjugation and magnitudes.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, DivAssign, Mul, MulAssign, Neg, Sub, SubAssign};

/// A complex number with `f64` components.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct C64 {
    /// Real part.
    pub re: f64,
    /// Imaginary part.
    pub im: f64,
}

impl C64 {
    /// Zero.
    pub const ZERO: C64 = C64 { re: 0.0, im: 0.0 };
    /// Real unit.
    pub const ONE: C64 = C64 { re: 1.0, im: 0.0 };
    /// Imaginary unit.
    pub const I: C64 = C64 { re: 0.0, im: 1.0 };

    /// Creates `re + i·im`.
    #[inline]
    pub const fn new(re: f64, im: f64) -> Self {
        Self { re, im }
    }

    /// Creates a purely real complex number.
    #[inline]
    pub const fn real(re: f64) -> Self {
        Self { re, im: 0.0 }
    }

    /// Creates a purely imaginary complex number.
    #[inline]
    pub const fn imag(im: f64) -> Self {
        Self { re: 0.0, im }
    }

    /// Creates a complex number from magnitude and phase (radians).
    #[inline]
    pub fn from_polar(mag: f64, phase: f64) -> Self {
        let (s, c) = phase.sin_cos();
        Self::new(mag * c, mag * s)
    }

    /// `e^{i·phase}` — a unit phasor.
    #[inline]
    pub fn cis(phase: f64) -> Self {
        Self::from_polar(1.0, phase)
    }

    /// Complex conjugate.
    #[inline]
    pub fn conj(self) -> Self {
        Self::new(self.re, -self.im)
    }

    /// Squared magnitude `re² + im²` (avoids the sqrt of [`C64::abs`]).
    #[inline]
    pub fn norm_sq(self) -> f64 {
        self.re * self.re + self.im * self.im
    }

    /// Magnitude.
    #[inline]
    pub fn abs(self) -> f64 {
        self.re.hypot(self.im)
    }

    /// Phase angle in radians, in `(-π, π]`.
    #[inline]
    pub fn arg(self) -> f64 {
        self.im.atan2(self.re)
    }

    /// Complex exponential `e^{self}`.
    #[inline]
    pub fn exp(self) -> Self {
        Self::from_polar(self.re.exp(), self.im)
    }

    /// Principal square root.
    pub fn sqrt(self) -> Self {
        Self::from_polar(self.abs().sqrt(), self.arg() / 2.0)
    }

    /// Multiplicative inverse. Returns NaN components when `self` is zero.
    #[inline]
    pub fn inv(self) -> Self {
        let d = self.norm_sq();
        Self::new(self.re / d, -self.im / d)
    }

    /// Scales by a real factor.
    #[inline]
    pub fn scale(self, k: f64) -> Self {
        Self::new(self.re * k, self.im * k)
    }

    /// True if both components are finite.
    #[inline]
    pub fn is_finite(self) -> bool {
        self.re.is_finite() && self.im.is_finite()
    }
}

impl fmt::Display for C64 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.im >= 0.0 {
            write!(f, "{}+{}i", self.re, self.im)
        } else {
            write!(f, "{}{}i", self.re, self.im)
        }
    }
}

impl From<f64> for C64 {
    fn from(re: f64) -> Self {
        Self::real(re)
    }
}

impl Add for C64 {
    type Output = C64;
    #[inline]
    fn add(self, rhs: C64) -> C64 {
        C64::new(self.re + rhs.re, self.im + rhs.im)
    }
}

impl Sub for C64 {
    type Output = C64;
    #[inline]
    fn sub(self, rhs: C64) -> C64 {
        C64::new(self.re - rhs.re, self.im - rhs.im)
    }
}

impl Mul for C64 {
    type Output = C64;
    #[inline]
    fn mul(self, rhs: C64) -> C64 {
        C64::new(self.re * rhs.re - self.im * rhs.im, self.re * rhs.im + self.im * rhs.re)
    }
}

impl Div for C64 {
    type Output = C64;
    #[inline]
    #[allow(clippy::suspicious_arithmetic_impl)] // division via reciprocal is intended
    fn div(self, rhs: C64) -> C64 {
        self * rhs.inv()
    }
}

impl Neg for C64 {
    type Output = C64;
    #[inline]
    fn neg(self) -> C64 {
        C64::new(-self.re, -self.im)
    }
}

impl Mul<f64> for C64 {
    type Output = C64;
    #[inline]
    fn mul(self, rhs: f64) -> C64 {
        self.scale(rhs)
    }
}

impl Mul<C64> for f64 {
    type Output = C64;
    #[inline]
    fn mul(self, rhs: C64) -> C64 {
        rhs.scale(self)
    }
}

impl Div<f64> for C64 {
    type Output = C64;
    #[inline]
    fn div(self, rhs: f64) -> C64 {
        self.scale(1.0 / rhs)
    }
}

impl AddAssign for C64 {
    #[inline]
    fn add_assign(&mut self, rhs: C64) {
        *self = *self + rhs;
    }
}

impl SubAssign for C64 {
    #[inline]
    fn sub_assign(&mut self, rhs: C64) {
        *self = *self - rhs;
    }
}

impl MulAssign for C64 {
    #[inline]
    fn mul_assign(&mut self, rhs: C64) {
        *self = *self * rhs;
    }
}

impl DivAssign for C64 {
    #[inline]
    fn div_assign(&mut self, rhs: C64) {
        *self = *self / rhs;
    }
}

impl Sum for C64 {
    fn sum<I: Iterator<Item = C64>>(iter: I) -> C64 {
        iter.fold(C64::ZERO, |a, b| a + b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::approx_eq;

    fn c_approx(a: C64, b: C64, tol: f64) -> bool {
        approx_eq(a.re, b.re, tol) && approx_eq(a.im, b.im, tol)
    }

    #[test]
    fn field_arithmetic() {
        let a = C64::new(1.0, 2.0);
        let b = C64::new(-3.0, 0.5);
        assert_eq!(a + b, C64::new(-2.0, 2.5));
        assert_eq!(a - b, C64::new(4.0, 1.5));
        assert_eq!(a * b, C64::new(-3.0 - 1.0, 0.5 - 6.0));
        assert!(c_approx(a / b * b, a, 1e-12));
    }

    #[test]
    fn polar_roundtrip() {
        let z = C64::from_polar(2.5, 1.1);
        assert!(approx_eq(z.abs(), 2.5, 1e-12));
        assert!(approx_eq(z.arg(), 1.1, 1e-12));
    }

    #[test]
    fn cis_is_unit_magnitude() {
        for k in 0..16 {
            let z = C64::cis(k as f64 * 0.5);
            assert!(approx_eq(z.abs(), 1.0, 1e-12));
        }
    }

    #[test]
    fn exp_matches_euler() {
        let z = C64::new(0.3, std::f64::consts::PI / 3.0);
        let e = z.exp();
        let expected = C64::from_polar(0.3f64.exp(), std::f64::consts::PI / 3.0);
        assert!(c_approx(e, expected, 1e-12));
    }

    #[test]
    fn sqrt_squares_back() {
        let z = C64::new(-4.0, 3.0);
        let r = z.sqrt();
        assert!(c_approx(r * r, z, 1e-12));
    }

    #[test]
    fn conj_and_norms() {
        let z = C64::new(3.0, -4.0);
        assert_eq!(z.conj(), C64::new(3.0, 4.0));
        assert!(approx_eq(z.norm_sq(), 25.0, 1e-12));
        assert!(approx_eq(z.abs(), 5.0, 1e-12));
        // z * conj(z) is |z|² (purely real)
        let p = z * z.conj();
        assert!(approx_eq(p.re, 25.0, 1e-12));
        assert!(approx_eq(p.im, 0.0, 1e-12));
    }

    #[test]
    fn inverse_of_zero_is_nan() {
        let z = C64::ZERO.inv();
        assert!(z.re.is_nan() || z.im.is_nan());
    }

    #[test]
    fn sum_of_phasors_cancels() {
        // N-th roots of unity sum to zero.
        let n = 8;
        let s: C64 = (0..n).map(|k| C64::cis(crate::TAU * k as f64 / n as f64)).sum();
        assert!(s.abs() < 1e-12);
    }
}
