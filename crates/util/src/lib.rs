//! # vab-util — numerics substrate for the VAB reproduction
//!
//! Self-contained numerical building blocks shared by every other crate in
//! the workspace: complex arithmetic, dB conversions, unit newtypes, an FFT,
//! overlap-save FFT block convolution ([`ola`]), FIR filter design, windows,
//! fractional-delay resampling, statistics, special functions (erfc,
//! Marcum-Q, Bessel I0), seeded random-number helpers, a JSON
//! parser/serializer ([`json`]), FNV-1a content hashing ([`hash`]) and the
//! shared worker-thread sizing policy with the one compute pool every
//! parallel step runs on ([`mod@threads`]).
//!
//! Nothing in this crate knows about acoustics or backscatter; it exists so
//! that the domain crates can stay free of third-party DSP dependencies.

pub mod complex;
pub mod db;
pub mod fft;
pub mod filter;
pub mod hash;
pub mod json;
pub mod ola;
pub mod resample;
pub mod rng;
pub mod special;
pub mod stats;
pub mod threads;
pub mod units;
pub mod wide;
pub mod window;

pub use complex::C64;
pub use db::{db_to_lin_amp, db_to_lin_pow, lin_amp_to_db, lin_pow_to_db};
pub use hash::fnv1a64;
pub use threads::threads;
pub use units::{Db, Degrees, Hertz, Meters, Seconds, Watts};

/// Speed of sound placeholder used by tests that do not care about the
/// environment (m/s). Real code should use `vab-acoustics`.
pub const NOMINAL_SOUND_SPEED: f64 = 1500.0;

/// Two pi, re-exported because `std::f64::consts::TAU` reads worse in phase math.
pub const TAU: f64 = std::f64::consts::TAU;

/// Returns true if two floats agree to within `tol` absolutely or relatively.
///
/// Used pervasively in tests; lives here so every crate asserts the same way.
pub fn approx_eq(a: f64, b: f64, tol: f64) -> bool {
    let diff = (a - b).abs();
    diff <= tol || diff <= tol * a.abs().max(b.abs())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn approx_eq_absolute_and_relative() {
        assert!(approx_eq(1.0, 1.0 + 1e-12, 1e-9));
        assert!(approx_eq(1e12, 1e12 * (1.0 + 1e-10), 1e-9));
        assert!(!approx_eq(1.0, 1.1, 1e-3));
        assert!(approx_eq(0.0, 0.0, 0.0));
    }
}
