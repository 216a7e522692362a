//! Radix-2 decimation-in-time FFT and a Goertzel single-bin DFT.
//!
//! The FFT is the iterative Cooley–Tukey algorithm with a precomputed
//! bit-reversal permutation. It is not the fastest FFT in the world, but it
//! is allocation-free after planning, exact enough for simulation work, and
//! keeps the workspace free of FFT dependencies.

use crate::complex::C64;
use crate::TAU;
use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock};

/// Smallest power of two ≥ `n` (and ≥ 1).
#[inline]
pub fn next_pow2(n: usize) -> usize {
    n.max(1).next_power_of_two()
}

/// Process-wide plan cache: there are only ever a handful of distinct FFT
/// sizes in play (one per filter/replay size class), so planning each size
/// once and sharing the immutable plan removes the per-call allocation
/// that used to dominate the real-signal transform's profile.
static PLAN_CACHE: OnceLock<Mutex<HashMap<usize, Arc<Fft>>>> = OnceLock::new();

/// Returns the shared plan for size `n`, planning it on first use.
///
/// The returned plan is immutable and cheap to clone ([`Arc`]); hot loops
/// should hold it across iterations. Sizes must be powers of two.
///
/// # Panics
/// Panics if `n` is not a power of two or is zero.
pub fn plan(n: usize) -> Arc<Fft> {
    let cache = PLAN_CACHE.get_or_init(|| Mutex::new(HashMap::new()));
    let mut map = cache.lock().expect("FFT plan cache poisoned");
    map.entry(n).or_insert_with(|| Arc::new(Fft::new(n))).clone()
}

/// A reusable FFT plan for a fixed power-of-two size.
#[derive(Debug, Clone)]
pub struct Fft {
    n: usize,
    /// The bit-reversal permutation as its disjoint swaps `(i, rev(i))`,
    /// `i < rev(i)`, ordered by `33·i mod n`. Any order of disjoint swaps
    /// is the same permutation; in index order, consecutive swaps touch
    /// addresses a multiple of 4 KiB apart, and the loads stall on the
    /// preceding stores they appear to alias (about 3× slower at 8,192
    /// points).
    swaps: Vec<(u32, u32)>,
    /// Forward twiddles stage by stage: the stage of butterfly span `len`
    /// reads e^{-2πik/len} for k in 0..len/2 as one contiguous run, and
    /// the runs for len = 2, 4, …, n follow each other (n − 1 entries).
    /// Each entry is computed as the size-n table's entry k·n/len, so the
    /// butterflies see the same bits a strided walk of that table reads.
    twiddles: Vec<C64>,
    /// Conjugate twiddles (inverse direction), so the butterfly loop has
    /// no per-element direction branch.
    twiddles_inv: Vec<C64>,
}

impl Fft {
    /// Plans an FFT of size `n`.
    ///
    /// # Panics
    /// Panics if `n` is not a power of two or is zero.
    pub fn new(n: usize) -> Self {
        assert!(n.is_power_of_two() && n > 0, "FFT size must be a power of two, got {n}");
        let bits = n.trailing_zeros();
        let mut swaps: Vec<(u32, u32)> = Vec::with_capacity(n / 2);
        swaps.extend(
            (0..n as u32)
                .map(|i| (i, if n == 1 { 0 } else { i.reverse_bits() >> (32 - bits) }))
                .filter(|&(i, j)| i < j),
        );
        swaps.sort_unstable_by_key(|&(i, _)| (i as usize).wrapping_mul(33) % n);
        let mut twiddles: Vec<C64> = Vec::with_capacity(n.saturating_sub(1));
        let mut len = 2;
        while len <= n {
            let step = n / len;
            twiddles.extend((0..len / 2).map(|k| C64::cis(-TAU * (k * step) as f64 / n as f64)));
            len *= 2;
        }
        let twiddles_inv = twiddles.iter().map(|w| w.conj()).collect();
        Self { n, swaps, twiddles, twiddles_inv }
    }

    /// Planned transform size.
    #[inline]
    pub fn len(&self) -> usize {
        self.n
    }

    /// True when the planned size is 1 (the degenerate transform).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.n == 1
    }

    /// In-place forward FFT. `data.len()` must equal the planned size.
    ///
    /// On x86-64 the butterflies run compiled for the widest vector unit
    /// the CPU has (AVX-512 or AVX2, detected at run time), else for the
    /// baseline target; every build returns the same bits.
    pub fn forward(&self, data: &mut [C64]) {
        assert_eq!(data.len(), self.n, "buffer length must match planned FFT size");
        wide_transform::best()(data, &self.swaps, &self.twiddles);
    }

    /// In-place inverse FFT, including the 1/N normalization.
    pub fn inverse(&self, data: &mut [C64]) {
        assert_eq!(data.len(), self.n, "buffer length must match planned FFT size");
        wide_transform::best()(data, &self.swaps, &self.twiddles_inv);
        scale_by(data, 1.0 / self.n as f64);
    }

    /// Circular convolution in place: `data ← IFFT(FFT(data) · spectrum)`,
    /// the same bits as [`Fft::forward`], an elementwise product with
    /// `spectrum` and [`Fft::inverse`], as one run-time dispatched body
    /// (the overlap-save block step).
    pub(crate) fn filter(&self, data: &mut [C64], spectrum: &[C64]) {
        assert_eq!(data.len(), self.n, "buffer length must match planned FFT size");
        assert_eq!(spectrum.len(), self.n, "spectrum length must match planned FFT size");
        wide_filter::best()(data, spectrum, &self.swaps, &self.twiddles, &self.twiddles_inv);
    }
}

/// Radix-2 decimation-in-time butterflies over `data`, after the
/// bit-reversal permutation's `swaps`, with the per-stage twiddle runs of
/// [`Fft::twiddles`] (or their conjugates). Inlined into every compiled
/// copy (see [`wide_transform`]) so each instruction set compiles the
/// same source.
#[inline(always)]
fn transform(data: &mut [C64], swaps: &[(u32, u32)], twiddles: &[C64]) {
    let n = data.len();
    if n == 1 {
        return;
    }
    for &(i, j) in swaps {
        data.swap(i as usize, j as usize);
    }
    // Butterflies. Slice iteration (no index bounds checks) over one
    // contiguous twiddle run per stage keeps the inner loop branch-free
    // and its loads unit-stride.
    let mut len = 2;
    let mut stage = twiddles;
    while len <= n {
        let half = len / 2;
        let (w, rest) = stage.split_at(half);
        stage = rest;
        if half == 1 {
            // One butterfly per chunk: keep the twiddle in a register.
            let w = w[0];
            for pair in data.chunks_exact_mut(2) {
                let t = pair[1] * w;
                let u = pair[0];
                pair[0] = u + t;
                pair[1] = u - t;
            }
            len *= 2;
            continue;
        }
        for chunk in data.chunks_exact_mut(len) {
            let (lo, hi) = chunk.split_at_mut(half);
            for ((a, b), &w) in lo.iter_mut().zip(hi.iter_mut()).zip(w) {
                let t = *b * w;
                let u = *a;
                *a = u + t;
                *b = u - t;
            }
        }
        len *= 2;
    }
}

/// Multiplies every sample by `k` (the inverse transform's 1/N).
#[inline(always)]
fn scale_by(data: &mut [C64], k: f64) {
    for x in data.iter_mut() {
        *x = x.scale(k);
    }
}

/// [`Fft::filter`]'s body: forward transform, spectrum product, inverse
/// transform and 1/N, in the order the separate calls run them.
#[inline(always)]
fn filter(data: &mut [C64], spectrum: &[C64], swaps: &[(u32, u32)], fwd: &[C64], inv: &[C64]) {
    transform(data, swaps, fwd);
    for (s, h) in data.iter_mut().zip(spectrum) {
        *s *= *h;
    }
    transform(data, swaps, inv);
    scale_by(data, 1.0 / data.len() as f64);
}

crate::wide_bodies!(mod wide_transform for fn transform(
    data: &mut [C64],
    swaps: &[(u32, u32)],
    twiddles: &[C64],
));
crate::wide_bodies!(mod wide_filter for fn filter(
    data: &mut [C64],
    spectrum: &[C64],
    swaps: &[(u32, u32)],
    fwd: &[C64],
    inv: &[C64],
));

/// Goertzel algorithm: the DFT of `x` evaluated at a single frequency.
///
/// Much cheaper than a full FFT when only one tone matters — exactly the
/// situation of an OOK/FSK backscatter receiver watching one subcarrier.
/// Returns the complex DFT coefficient (same scaling as an FFT bin).
fn goertzel(x: &[f64], freq_hz: f64, fs: f64) -> C64 {
    let n = x.len();
    let w = TAU * freq_hz / fs;
    let coeff = 2.0 * w.cos();
    let (mut s_prev, mut s_prev2) = (0.0f64, 0.0f64);
    for &sample in x {
        let s = sample + coeff * s_prev - s_prev2;
        s_prev2 = s_prev;
        s_prev = s;
    }
    // Standard Goertzel finalization; phase referenced to the start of the block.
    let real = s_prev - s_prev2 * w.cos();
    let imag = s_prev2 * w.sin();
    // Rotate so the result matches sum x[m] e^{-j w m} over m=0..n-1.
    C64::new(real, imag) * C64::cis(-w * (n as f64 - 1.0))
}

/// Magnitude of the Goertzel bin — the usual tone-detection statistic.
#[inline]
pub fn goertzel_power(x: &[f64], freq_hz: f64, fs: f64) -> f64 {
    goertzel(x, freq_hz, fs).norm_sq()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::approx_eq;

    /// The full complex spectrum of a real signal, zero-padded to the next
    /// power of two.
    fn real_spectrum(x: &[f64]) -> Vec<C64> {
        let mut buf: Vec<C64> = x.iter().map(|&v| C64::real(v)).collect();
        buf.resize(next_pow2(x.len()), C64::ZERO);
        plan(buf.len()).forward(&mut buf);
        buf
    }

    fn naive_dft(x: &[C64]) -> Vec<C64> {
        let n = x.len();
        (0..n)
            .map(|k| (0..n).map(|m| x[m] * C64::cis(-TAU * (k * m) as f64 / n as f64)).sum())
            .collect()
    }

    #[test]
    fn matches_naive_dft() {
        for n in [1usize, 2, 4, 8, 32, 64] {
            let x: Vec<C64> =
                (0..n).map(|i| C64::new((i as f64 * 0.7).sin(), (i as f64 * 1.3).cos())).collect();
            let mut got = x.clone();
            Fft::new(n).forward(&mut got);
            let want = naive_dft(&x);
            for (g, w) in got.iter().zip(&want) {
                assert!((g.re - w.re).abs() < 1e-9 && (g.im - w.im).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn forward_inverse_roundtrip() {
        let n = 256;
        let x: Vec<C64> =
            (0..n).map(|i| C64::new((i as f64).sin(), (i as f64 * 0.1).cos())).collect();
        let mut buf = x.clone();
        let plan = Fft::new(n);
        plan.forward(&mut buf);
        plan.inverse(&mut buf);
        for (a, b) in buf.iter().zip(&x) {
            assert!((a.re - b.re).abs() < 1e-10 && (a.im - b.im).abs() < 1e-10);
        }
    }

    #[test]
    fn pure_tone_concentrates_in_one_bin() {
        let n = 128;
        let fs = 1000.0;
        let k = 10; // bin-centered tone
        let f = k as f64 * fs / n as f64;
        let x: Vec<f64> = (0..n).map(|i| (TAU * f * i as f64 / fs).cos()).collect();
        let spec = real_spectrum(&x);
        let mags: Vec<f64> = spec.iter().map(|c| c.abs()).collect();
        // Energy should be in bins k and n-k only.
        assert!(mags[k] > 60.0);
        assert!(mags[n - k] > 60.0);
        for (i, &m) in mags.iter().enumerate() {
            if i != k && i != n - k {
                assert!(m < 1e-9, "leakage at bin {i}: {m}");
            }
        }
    }

    #[test]
    fn goertzel_matches_fft_bin() {
        let n = 64;
        let fs = 8000.0;
        let x: Vec<f64> = (0..n)
            .map(|i| {
                (TAU * 1000.0 * i as f64 / fs).sin() + 0.5 * (TAU * 2500.0 * i as f64 / fs).cos()
            })
            .collect();
        let spec = real_spectrum(&x);
        for k in [8usize, 20] {
            let g = goertzel(&x, k as f64 * fs / n as f64, fs);
            assert!(
                approx_eq(g.abs(), spec[k].abs(), 1e-6),
                "k={k} g={} fft={}",
                g.abs(),
                spec[k].abs()
            );
        }
    }

    #[test]
    fn goertzel_detects_tone_presence() {
        let fs = 44100.0;
        let f = 18500.0;
        let n = 441;
        let on: Vec<f64> = (0..n).map(|i| (TAU * f * i as f64 / fs).sin()).collect();
        let off: Vec<f64> = (0..n).map(|i| (TAU * (f + 4000.0) * i as f64 / fs).sin()).collect();
        assert!(goertzel_power(&on, f, fs) > 100.0 * goertzel_power(&off, f, fs));
    }

    #[test]
    fn parseval_energy_is_preserved() {
        let n = 128;
        let x: Vec<f64> = (0..n).map(|i| ((i * i) as f64 * 0.01).sin()).collect();
        let time_energy: f64 = x.iter().map(|v| v * v).sum();
        let spec = real_spectrum(&x);
        let freq_energy: f64 = spec.iter().map(|c| c.norm_sq()).sum::<f64>() / n as f64;
        assert!(approx_eq(time_energy, freq_energy, 1e-9));
    }

    /// The size-n transform the per-stage twiddle runs replaced: one
    /// size-n/2 table walked with stride n/len. Kept as the bit-exactness
    /// oracle for every compiled body.
    fn transform_strided(data: &mut [C64], inverse: bool) {
        let n = data.len();
        let table: Vec<C64> = (0..n / 2)
            .map(|k| C64::cis(-TAU * k as f64 / n as f64))
            .map(|w| if inverse { w.conj() } else { w })
            .collect();
        let bits = n.trailing_zeros();
        for i in 0..n {
            let j = if n == 1 { 0 } else { (i as u32).reverse_bits() >> (32 - bits) } as usize;
            if i < j {
                data.swap(i, j);
            }
        }
        let mut len = 2;
        while len <= n {
            let half = len / 2;
            for chunk in data.chunks_exact_mut(len) {
                let (lo, hi) = chunk.split_at_mut(half);
                for ((a, b), &w) in
                    lo.iter_mut().zip(hi.iter_mut()).zip(table.iter().step_by(n / len))
                {
                    let t = *b * w;
                    let u = *a;
                    *a = u + t;
                    *b = u - t;
                }
            }
            len *= 2;
        }
    }

    fn bits(v: &[C64]) -> Vec<(u64, u64)> {
        v.iter().map(|c| (c.re.to_bits(), c.im.to_bits())).collect()
    }

    /// A broadband test signal spanning several decades of magnitude.
    fn signal(n: usize, seed: u64) -> Vec<C64> {
        let mut rng = crate::rng::seeded(seed);
        (0..n)
            .map(|i| crate::rng::complex_gaussian(&mut rng, 1.0).scale(1.0 + (i % 7) as f64 * 1e3))
            .collect()
    }

    #[test]
    fn every_fft_body_matches_the_strided_oracle_bit_for_bit() {
        for n in [1usize, 2, 4, 8, 64, 256, 512, 1024, 2048, 4096, 8192] {
            let plan = Fft::new(n);
            let x = signal(n, n as u64);
            for inverse in [false, true] {
                let mut want = x.clone();
                transform_strided(&mut want, inverse);
                let twiddles = if inverse { &plan.twiddles_inv } else { &plan.twiddles };
                for (name, body) in wide_transform::all() {
                    let Some(body) = body else {
                        eprintln!("{name}: not run (this CPU lacks its features)");
                        continue;
                    };
                    let mut got = x.clone();
                    body(&mut got, &plan.swaps, twiddles);
                    assert_eq!(bits(&got), bits(&want), "{name}, n = {n}, inverse {inverse}");
                }
            }
            let mut fwd = x.clone();
            plan.forward(&mut fwd);
            let mut want = x.clone();
            transform_strided(&mut want, false);
            assert_eq!(bits(&fwd), bits(&want), "dispatched forward, n = {n}");
        }
    }

    #[test]
    fn every_filter_body_is_forward_product_inverse_bit_for_bit() {
        for n in [1usize, 2, 256, 1024, 8192] {
            let plan = Fft::new(n);
            let x = signal(n, 7 + n as u64);
            let mut spectrum = signal(n, 99);
            plan.forward(&mut spectrum);
            let mut want = x.clone();
            plan.forward(&mut want);
            for (s, h) in want.iter_mut().zip(&spectrum) {
                *s *= *h;
            }
            plan.inverse(&mut want);
            let mut got = x.clone();
            plan.filter(&mut got, &spectrum);
            assert_eq!(bits(&got), bits(&want), "dispatched, n = {n}");
            for (name, body) in wide_filter::all() {
                if let Some(body) = body {
                    let mut got = x.clone();
                    body(&mut got, &spectrum, &plan.swaps, &plan.twiddles, &plan.twiddles_inv);
                    assert_eq!(bits(&got), bits(&want), "{name}, n = {n}");
                }
            }
        }
    }

    /// The dispatch target: the run-time chosen 8,192-point transform is
    /// no slower than the portable body, best of five. Gated behind
    /// `VAB_BENCH=1` because wall-clock assertions have no place in the
    /// default suite; run it with `--release`.
    #[test]
    fn fft_dispatch_meets_the_bench_speed_target() {
        if std::env::var("VAB_BENCH").is_err() {
            eprintln!("skipped: set VAB_BENCH=1 to run the FFT dispatch gate");
            return;
        }
        use std::hint::black_box;
        use std::time::Instant;
        const N: usize = 8192;
        const CALLS: usize = 200;
        let plan = Fft::new(N);
        let x = signal(N, 1);
        let mut buf = x.clone();
        let mut time = |body: wide_transform::Body| {
            let t = Instant::now();
            for _ in 0..CALLS {
                buf.copy_from_slice(&x);
                body(black_box(&mut buf), &plan.swaps, &plan.twiddles);
            }
            t.elapsed().as_secs_f64() / CALLS as f64
        };
        let mut best = [f64::INFINITY; 3];
        for _ in 0..5 {
            for (slot, (_, body)) in best.iter_mut().zip(wide_transform::all()) {
                if let Some(body) = body {
                    *slot = slot.min(time(body));
                }
            }
        }
        let dispatched = best.iter().copied().rfind(|t| t.is_finite()).expect("portable");
        eprintln!(
            "{N}-point FFT: portable {:.1} us, avx2 {:.1} us, avx512 {:.1} us (inf: not run)",
            best[0] * 1e6,
            best[1] * 1e6,
            best[2] * 1e6
        );
        assert!(
            dispatched <= best[0],
            "dispatched FFT {:.1} us slower than portable {:.1} us",
            dispatched * 1e6,
            best[0] * 1e6
        );
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_pow2_size_panics() {
        let _ = Fft::new(100);
    }

    #[test]
    fn plan_cache_returns_the_same_plan() {
        let a = plan(512);
        let b = plan(512);
        assert!(Arc::ptr_eq(&a, &b), "same size must share one plan");
        assert_eq!(a.len(), 512);
        assert!(!Arc::ptr_eq(&a, &plan(1024)));
    }
}
