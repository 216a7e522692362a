//! Special functions used by BER theory and window design.
//!
//! Implementations follow Abramowitz & Stegun rational approximations,
//! accurate to well below the 1e-7 level — far tighter than anything a BER
//! curve needs.

/// Modified Bessel function of the first kind, order zero, I₀(x).
///
/// Power series for |x| < 3.75, asymptotic rational form beyond
/// (A&S 9.8.1 / 9.8.2).
pub fn bessel_i0(x: f64) -> f64 {
    let ax = x.abs();
    if ax < 3.75 {
        let t = (x / 3.75) * (x / 3.75);
        1.0 + t
            * (3.5156229
                + t * (3.0899424
                    + t * (1.2067492 + t * (0.2659732 + t * (0.0360768 + t * 0.0045813)))))
    } else {
        let t = 3.75 / ax;
        (ax.exp() / ax.sqrt())
            * (0.39894228
                + t * (0.01328592
                    + t * (0.00225319
                        + t * (-0.00157565
                            + t * (0.00916281
                                + t * (-0.02057706
                                    + t * (0.02635537 + t * (-0.01647633 + t * 0.00392377))))))))
    }
}

/// Complementary error function erfc(x) with ~1.2e-7 absolute accuracy
/// (A&S 7.1.26-style rational Chebyshev approximation).
pub fn erfc(x: f64) -> f64 {
    let z = x.abs();
    let t = 1.0 / (1.0 + 0.5 * z);
    let ans = t
        * (-z * z - 1.26551223
            + t * (1.00002368
                + t * (0.37409196
                    + t * (0.09678418
                        + t * (-0.18628806
                            + t * (0.27886807
                                + t * (-1.13520398
                                    + t * (1.48851587 + t * (-0.82215223 + t * 0.17087277)))))))))
            .exp();
    if x >= 0.0 {
        ans
    } else {
        2.0 - ans
    }
}

/// Gaussian tail probability Q(x) = P(N(0,1) > x) = ½·erfc(x/√2).
#[inline]
pub fn q_func(x: f64) -> f64 {
    0.5 * erfc(x / std::f64::consts::SQRT_2)
}

/// Inverse of [`q_func`] by bisection — used to convert a target BER into a
/// required SNR. Valid for p in (0, 0.5].
///
/// The bisection stops at its fixed point: once a step would leave the
/// bracket unchanged, every later step computes the same midpoint and takes
/// the same branch, so the result is bit-identical to running all 200 steps.
/// The bracket stops moving within 83 steps (p = 0.5, where it closes on
/// zero) and within about 70 for p in [1e-12, 0.5).
pub fn q_inv(p: f64) -> f64 {
    assert!(p > 0.0 && p <= 0.5, "q_inv domain is (0, 0.5], got {p}");
    let (mut lo, mut hi) = (0.0f64, 40.0f64);
    for _ in 0..200 {
        let mid = 0.5 * (lo + hi);
        if q_func(mid) > p {
            if mid == lo {
                break;
            }
            lo = mid;
        } else {
            if mid == hi {
                break;
            }
            hi = mid;
        }
    }
    0.5 * (lo + hi)
}

/// First-order Marcum Q function Q₁(a, b), used for noncoherent OOK detection
/// analysis. Computed by the canonical series in modified Bessel functions.
///
/// Q₁(a,b) = exp(-(a²+b²)/2) Σ_{k=0..∞} (a/b)^k I_k(ab)   for b > a.
/// For numerical robustness we integrate the Rician PDF directly instead,
/// which is accurate across the whole (a, b) range used by BER math.
pub fn marcum_q1(a: f64, b: f64) -> f64 {
    if b <= 0.0 {
        return 1.0;
    }
    // Q1(a,b) = ∫_b^∞ x·exp(-(x²+a²)/2)·I0(ax) dx. Integrate by Simpson on a
    // transformed grid out to where the integrand is negligible.
    let upper = (b + a + 12.0).max(b * 1.5);
    let n = 4000; // even
    let h = (upper - b) / n as f64;
    let f = |x: f64| {
        // exp-scaled I0 to avoid overflow: I0(ax)·exp(-(x-a)²/2 - ax + ax) etc.
        let log_i0 = if a * x > 700.0 {
            // asymptotic ln I0(z) ≈ z - ½ ln(2πz)
            a * x - 0.5 * (std::f64::consts::TAU * a * x).ln()
        } else {
            bessel_i0(a * x).ln()
        };
        let log_term = x.ln() - 0.5 * (x * x + a * a) + log_i0;
        log_term.exp()
    };
    let mut acc = f(b) + f(upper);
    for i in 1..n {
        let x = b + i as f64 * h;
        acc += if i % 2 == 1 { 4.0 } else { 2.0 } * f(x);
    }
    (acc * h / 3.0).clamp(0.0, 1.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::approx_eq;
    use proptest::prelude::*;

    #[test]
    fn bessel_i0_known_values() {
        assert!(approx_eq(bessel_i0(0.0), 1.0, 1e-9));
        assert!(approx_eq(bessel_i0(1.0), 1.2660658, 1e-6));
        assert!(approx_eq(bessel_i0(5.0), 27.239871, 1e-5));
        // symmetry
        assert!(approx_eq(bessel_i0(-2.5), bessel_i0(2.5), 1e-12));
    }

    #[test]
    fn erfc_known_values() {
        assert!(approx_eq(erfc(0.0), 1.0, 1e-7));
        assert!(approx_eq(erfc(1.0), 0.1572992, 1e-6));
        assert!(approx_eq(erfc(2.0), 0.0046777, 1e-6));
        assert!(approx_eq(erfc(-1.0), 2.0 - 0.1572992, 1e-6));
    }

    #[test]
    fn q_func_known_values() {
        assert!(approx_eq(q_func(0.0), 0.5, 1e-6));
        assert!(approx_eq(q_func(1.0), 0.158655, 1e-5));
        assert!(approx_eq(q_func(3.0), 1.3499e-3, 1e-4));
    }

    /// The fixed 200-step bisection that [`q_inv`] short-circuits, kept as
    /// its bit-for-bit oracle.
    fn q_inv_reference(p: f64) -> f64 {
        let (mut lo, mut hi) = (0.0f64, 40.0f64);
        for _ in 0..200 {
            let mid = 0.5 * (lo + hi);
            if q_func(mid) > p {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        0.5 * (lo + hi)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2000))]

        #[test]
        fn q_inv_is_bit_identical_to_the_full_bisection(u in 0.0f64..1.0) {
            // Log-uniform over [1e-12, 0.5]: the link-budget trial's range.
            let p = (1e-12f64.ln() + u * (0.5f64.ln() - 1e-12f64.ln())).exp().min(0.5);
            prop_assert_eq!(q_inv(p).to_bits(), q_inv_reference(p).to_bits(), "p = {:e}", p);
        }
    }

    #[test]
    fn q_inv_matches_the_full_bisection_at_the_endpoints() {
        for p in [1e-12, 0.5, f64::MIN_POSITIVE, 0.5 - f64::EPSILON / 4.0] {
            assert_eq!(q_inv(p).to_bits(), q_inv_reference(p).to_bits(), "p = {p:e}");
        }
    }

    #[test]
    fn q_inv_inverts_q() {
        for p in [0.4, 0.1, 1e-2, 1e-3, 1e-6] {
            let x = q_inv(p);
            assert!(approx_eq(q_func(x), p, 1e-6), "p={p}: Q({x})={}", q_func(x));
        }
    }

    #[test]
    fn marcum_q1_degenerate_cases() {
        // Q1(0, b) = exp(-b²/2)  (Rayleigh tail)
        for b in [0.5, 1.0, 2.0, 3.0] {
            let want = (-b * b / 2.0f64).exp();
            assert!(approx_eq(marcum_q1(0.0, b), want, 1e-4), "b={b}");
        }
        // Q1(a, 0) = 1
        assert!(approx_eq(marcum_q1(2.0, 0.0), 1.0, 1e-9));
    }

    #[test]
    fn marcum_q1_monotonicity() {
        // Increasing a (signal) raises detection prob; increasing b (threshold) lowers it.
        assert!(marcum_q1(3.0, 2.0) > marcum_q1(1.0, 2.0));
        assert!(marcum_q1(2.0, 1.0) > marcum_q1(2.0, 3.0));
        // Large signal, moderate threshold → near certain detection.
        assert!(marcum_q1(10.0, 3.0) > 0.999);
    }
}
