//! One function body compiled for wider x86-64 vector units, chosen at
//! run time.
//!
//! The workspace builds for the baseline x86-64 target (SSE2), so a hot
//! loop only reaches AVX2 or AVX-512 registers when a copy of it is
//! compiled with those features enabled. [`wide_bodies!`](crate::wide_bodies) writes those
//! copies for one `#[inline(always)]` body: a module with one accessor
//! per instruction set, each handing out a plain `fn` pointer only where
//! std's cached CPU detection finds every feature the copy enables.
//!
//! Every copy compiles the same source. Rust neither fuses a multiply and
//! an add nor reassociates floating-point arithmetic, so each lane of a
//! wider copy performs the same IEEE operations in the same order as the
//! baseline build: every copy returns the same bits. Callers keep the
//! baseline body as the fallback and as the oracle their tests compare
//! every copy the host can run against (see [`wide_bodies!`](crate::wide_bodies)'s `all`).

/// Writes module `$module` around the `#[inline(always)]` function
/// `$body` of the enclosing module:
///
/// * `Body`, the body's `fn` pointer type;
/// * `avx512()` and `avx2()`, the body compiled for AVX-512 (F + BW) and
///   for AVX2, each `Some` only when this CPU has the features it enables;
/// * `best()`, the widest copy this CPU runs, else `$body` itself;
/// * `all()`, every body of the build with its name, narrowest first
///   (`None` where this CPU lacks the features), for oracle tests.
///
/// On other architectures the module carries only `Body`, `best()` (the
/// baseline body) and `all()`.
///
/// ```
/// mod kernels {
///     #[inline(always)]
///     fn sum(x: &[f64]) -> f64 {
///         x.iter().sum()
///     }
///     vab_util::wide_bodies!(pub mod wide_sum for fn sum(x: &[f64]) -> f64);
/// }
/// assert_eq!(kernels::wide_sum::best()(&[1.0, 2.0]), 3.0);
/// ```
#[macro_export]
macro_rules! wide_bodies {
    ($vis:vis mod $module:ident for fn $body:ident($($arg:ident: $ty:ty),* $(,)?) $(-> $ret:ty)?) => {
        /// Run-time dispatched copies of the enclosing module's body of
        /// the same name (see `vab_util::wide_bodies!`).
        #[allow(dead_code, unused_imports)]
        $vis mod $module {
            use super::*;

            /// The body's signature.
            pub type Body = fn($($ty),*) $(-> $ret)?;

            /// AVX-512 (F for the 512-bit lanes and mask compares, BW for
            /// byte-wide mask stores), if this CPU has it.
            #[cfg(target_arch = "x86_64")]
            pub fn avx512() -> Option<Body> {
                #[target_feature(enable = "avx512f,avx512bw")]
                fn wide($($arg: $ty),*) $(-> $ret)? {
                    super::$body($($arg),*)
                }
                let detected = std::arch::is_x86_feature_detected!("avx512f")
                    && std::arch::is_x86_feature_detected!("avx512bw");
                // SAFETY: the pointer escapes only inside `Some`, i.e. only
                // when this CPU has every feature `wide` enables.
                detected.then_some(|$($arg),*| unsafe { wide($($arg),*) })
            }

            /// AVX2 (256-bit lanes), if this CPU has it.
            #[cfg(target_arch = "x86_64")]
            pub fn avx2() -> Option<Body> {
                #[target_feature(enable = "avx2")]
                fn wide($($arg: $ty),*) $(-> $ret)? {
                    super::$body($($arg),*)
                }
                // SAFETY: the pointer escapes only inside `Some`, i.e. only
                // when this CPU has AVX2, the one feature `wide` enables.
                std::arch::is_x86_feature_detected!("avx2")
                    .then_some(|$($arg),*| unsafe { wide($($arg),*) })
            }

            /// The widest body this CPU runs.
            pub fn best() -> Body {
                #[cfg(target_arch = "x86_64")]
                if let Some(wide) = avx512().or_else(avx2) {
                    return wide;
                }
                super::$body
            }

            /// Every body this build carries, narrowest first: `Some`
            /// where this CPU can run it.
            pub fn all() -> Vec<(&'static str, Option<Body>)> {
                #[allow(unused_mut)]
                let mut all = vec![("portable", Some(super::$body as Body))];
                #[cfg(target_arch = "x86_64")]
                all.extend([("avx2", avx2()), ("avx512", avx512())]);
                all
            }
        }
    };
}

#[cfg(test)]
mod tests {
    #[inline(always)]
    fn dot(a: &[f64], b: &[f64]) -> f64 {
        a.iter().zip(b).fold(0.0, |acc, (x, y)| acc + x * y)
    }

    wide_bodies!(mod wide_dot for fn dot(a: &[f64], b: &[f64]) -> f64);

    #[test]
    fn every_body_the_cpu_runs_returns_the_portable_bits() {
        let a: Vec<f64> = (0..1000).map(|i| (i as f64 * 0.37).sin() * 1e3).collect();
        let b: Vec<f64> = (0..1000).map(|i| (i as f64 * 0.11).cos() / 7.0).collect();
        let want = dot(&a, &b).to_bits();
        assert_eq!(wide_dot::best()(&a, &b).to_bits(), want);
        let all = wide_dot::all();
        assert_eq!(all[0].0, "portable");
        for (name, body) in all {
            if let Some(body) = body {
                assert_eq!(body(&a, &b).to_bits(), want, "{name}");
            }
        }
    }
}
