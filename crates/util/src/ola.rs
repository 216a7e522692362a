//! Overlap-save FFT block convolution.
//!
//! Direct FIR convolution costs O(N·M) for an N-sample signal and M taps;
//! at the tap counts a replayed impulse-response bank or a sharp channel
//! filter needs, that dominates every sample-level experiment. The
//! overlap-save method factors the work through the FFT: pick a block size
//! `B = L − M + 1` for an FFT of length `L`, slide an `L`-sample window
//! over the input in steps of `B`, multiply by the precomputed tap
//! spectrum, and keep the last `B` samples of each inverse transform (the
//! first `M − 1` are circular wrap-around and are discarded). Cost drops
//! to O(N log L).
//!
//! [`OlaPlan`] owns the FFT plan, the tap spectrum and every scratch
//! buffer, so steady-state convolution performs **no allocation at all**
//! beyond (re)sizing the caller's output vector — the property the alloc
//! ratchet pins. [`convolve_auto`] picks direct vs FFT by tap count so
//! short filters keep their exact direct-form arithmetic.

use crate::complex::C64;
use crate::fft::{next_pow2, plan, Fft};
use std::ops::Range;
use std::sync::Arc;

/// Tap count at and above which [`convolve_auto`] switches from the exact
/// direct form to the overlap-save engine. Below this the direct loop is
/// both faster (no transform overhead) and bit-exact, which several
/// callers rely on.
pub const FFT_CROSSOVER_TAPS: usize = 64;

/// Chooses the FFT length for a given tap count: at least 4× the taps
/// (so ≥ 75 % of every block is useful output), and no smaller than 256
/// so tiny filters still amortize the transform.
fn fft_len_for(taps_len: usize) -> usize {
    next_pow2((4 * taps_len.max(1)).max(256))
}

/// A reusable overlap-save convolution plan for a fixed tap vector.
///
/// Construction performs all allocation (FFT plan lookup, tap spectrum,
/// scratch); [`OlaPlan::convolve_add_into`] then runs allocation-free. Swap
/// the taps without reallocating via [`OlaPlan::set_taps`] as long as the
/// tap count stays in the same FFT size class — exactly the pattern a
/// time-varying replay channel needs.
#[derive(Debug, Clone)]
pub struct OlaPlan {
    taps_len: usize,
    fft_n: usize,
    /// Valid output samples produced per block: `fft_n - taps_len + 1`.
    step: usize,
    fft: Arc<Fft>,
    /// Forward FFT of the zero-padded taps.
    h_spec: Vec<C64>,
    /// Block work buffer (`fft_n` long).
    scratch: Vec<C64>,
}

impl OlaPlan {
    /// Plans overlap-save convolution with complex `taps`.
    ///
    /// # Panics
    /// Panics when `taps` is empty.
    pub fn new(taps: &[C64]) -> Self {
        let mut plan = Self::untuned(taps.len());
        plan.set_taps(taps);
        plan
    }

    /// Plans overlap-save convolution for `taps_len` taps, with every
    /// buffer allocated but no tap spectrum computed: a caller that sets
    /// its taps with [`OlaPlan::set_taps`] before the first convolution
    /// (a replay channel retunes per segment) skips one transform. Until
    /// then the taps read as zero.
    ///
    /// # Panics
    /// Panics when `taps_len` is zero.
    pub fn untuned(taps_len: usize) -> Self {
        assert!(taps_len > 0, "overlap-save needs at least one tap");
        let fft_n = fft_len_for(taps_len);
        Self {
            taps_len,
            fft_n,
            step: fft_n - taps_len + 1,
            fft: plan(fft_n),
            h_spec: vec![C64::ZERO; fft_n],
            scratch: vec![C64::ZERO; fft_n],
        }
    }

    /// Plans overlap-save convolution with real `taps`.
    fn new_real(taps: &[f64]) -> Self {
        let c: Vec<C64> = taps.iter().map(|&t| C64::real(t)).collect();
        Self::new(&c)
    }

    /// Replaces the taps in place. Reuses the FFT plan and both buffers
    /// when the new tap count maps to the same FFT length (same size
    /// class); otherwise replans.
    pub fn set_taps(&mut self, taps: &[C64]) {
        assert!(!taps.is_empty(), "overlap-save needs at least one tap");
        if fft_len_for(taps.len()) != self.fft_n {
            *self = Self::new(taps);
            return;
        }
        self.taps_len = taps.len();
        self.step = self.fft_n - taps.len() + 1;
        self.h_spec[..taps.len()].copy_from_slice(taps);
        self.h_spec[taps.len()..].fill(C64::ZERO);
        self.fft.forward(&mut self.h_spec);
    }

    /// Planned tap count.
    #[inline]
    pub fn taps_len(&self) -> usize {
        self.taps_len
    }

    /// Full linear convolution `y = x ⊛ taps` into `out`
    /// (`out.len() == x.len() + taps_len − 1`; resized as needed).
    ///
    /// After the one-time construction, this performs no allocation
    /// beyond growing `out`.
    fn convolve_into(&mut self, x: &[C64], out: &mut Vec<C64>) {
        out.clear();
        if x.is_empty() {
            return;
        }
        out.resize(x.len() + self.taps_len - 1, C64::ZERO);
        self.for_each_block(
            x.len(),
            |dst, src| dst.copy_from_slice(&x[src]),
            |pos, block| out[pos..pos + block.len()].copy_from_slice(block),
        );
    }

    /// Full linear convolution `x ⊛ taps` *accumulated* into `out`
    /// (`out[j] += y[j]` for `j < x.len() + taps_len − 1`): each block adds
    /// straight into the caller's buffer, so a segmented convolution needs
    /// no per-segment output vector. Never allocates.
    ///
    /// # Panics
    /// Panics when `out` is shorter than the full convolution.
    pub fn convolve_add_into(&mut self, x: &[C64], out: &mut [C64]) {
        if x.is_empty() {
            return;
        }
        assert!(out.len() >= x.len() + self.taps_len - 1, "output too short for the convolution");
        self.for_each_block(
            x.len(),
            |dst, src| dst.copy_from_slice(&x[src]),
            |pos, block| {
                for (o, b) in out[pos..pos + block.len()].iter_mut().zip(block) {
                    *o += *b;
                }
            },
        );
    }

    /// Full linear convolution of a real signal against real taps,
    /// writing the real part of the product into `out`.
    pub fn convolve_real_into(&mut self, x: &[f64], out: &mut Vec<f64>) {
        out.clear();
        if x.is_empty() {
            return;
        }
        out.resize(x.len() + self.taps_len - 1, 0.0);
        self.for_each_block(
            x.len(),
            |dst, src| {
                for (d, &v) in dst.iter_mut().zip(&x[src]) {
                    *d = C64::real(v);
                }
            },
            |pos, block| {
                for (o, b) in out[pos..pos + block.len()].iter_mut().zip(block) {
                    *o = b.re;
                }
            },
        );
    }

    /// The overlap-save block loop over an `x_len`-sample input. Each
    /// window covers padded input `[pos − (m−1), pos + step)`; the virtual
    /// padding is `m−1` leading zeros plus a zero tail that flushes the
    /// final taps. `load(dst, range)` fills `dst` from input `range` (the
    /// rest of the window is zeroed); `emit(pos, block)` receives the valid
    /// output samples `[pos, pos + block.len())`.
    fn for_each_block(
        &mut self,
        x_len: usize,
        mut load: impl FnMut(&mut [C64], Range<usize>),
        mut emit: impl FnMut(usize, &[C64]),
    ) {
        let m = self.taps_len;
        let out_len = x_len + m - 1;
        let mut pos = 0usize; // next output index to produce
        while pos < out_len {
            let start = pos as isize - (m as isize - 1);
            let lo = start.max(0) as usize;
            let hi = (start + self.fft_n as isize).clamp(0, x_len as isize) as usize;
            self.scratch.fill(C64::ZERO);
            if lo < hi {
                let dst = (lo as isize - start) as usize;
                load(&mut self.scratch[dst..dst + (hi - lo)], lo..hi);
            }
            self.fft.filter(&mut self.scratch, &self.h_spec);
            let take = self.step.min(out_len - pos);
            emit(pos, &self.scratch[m - 1..m - 1 + take]);
            pos += take;
        }
    }
}

/// One-shot FFT convolution of real sequences (full mode). Allocates a
/// fresh plan; reuse [`OlaPlan`] in loops.
pub fn convolve_fft(x: &[f64], h: &[f64]) -> Vec<f64> {
    if x.is_empty() || h.is_empty() {
        return Vec::new();
    }
    let mut plan = OlaPlan::new_real(h);
    let mut out = Vec::new();
    plan.convolve_real_into(x, &mut out);
    out
}

/// One-shot FFT convolution of complex sequences (full mode).
pub fn convolve_fft_c64(x: &[C64], h: &[C64]) -> Vec<C64> {
    if x.is_empty() || h.is_empty() {
        return Vec::new();
    }
    let mut plan = OlaPlan::new(h);
    let mut out = Vec::new();
    plan.convolve_into(x, &mut out);
    out
}

/// Full convolution that dispatches on tap count: exact direct form below
/// [`FFT_CROSSOVER_TAPS`], overlap-save at or above it. The signal/taps
/// roles follow the shorter-is-taps convention so a long kernel against a
/// short burst still takes the fast path.
pub fn convolve_auto(x: &[f64], h: &[f64]) -> Vec<f64> {
    if x.is_empty() || h.is_empty() {
        return Vec::new();
    }
    let (sig, taps) = if h.len() <= x.len() { (x, h) } else { (h, x) };
    if taps.len() < FFT_CROSSOVER_TAPS {
        crate::filter::convolve(x, h)
    } else {
        convolve_fft(sig, taps)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::filter::convolve;

    fn direct_c64(x: &[C64], h: &[C64]) -> Vec<C64> {
        let mut y = vec![C64::ZERO; x.len() + h.len() - 1];
        for (i, &xi) in x.iter().enumerate() {
            for (j, &hj) in h.iter().enumerate() {
                y[i + j] += xi * hj;
            }
        }
        y
    }

    fn wave(n: usize, k: f64) -> Vec<f64> {
        (0..n).map(|i| (i as f64 * k).sin() + 0.3 * (i as f64 * 2.7 * k).cos()).collect()
    }

    #[test]
    fn matches_direct_convolution_real() {
        for (n, m) in [(1usize, 1usize), (7, 3), (100, 17), (500, 64), (1000, 257), (257, 1000)] {
            let x = wave(n, 0.13);
            let h = wave(m, 0.31);
            let got = convolve_fft(&x, &h);
            let want = convolve(&x, &h);
            assert_eq!(got.len(), want.len(), "n={n} m={m}");
            let scale: f64 = want.iter().map(|v| v.abs()).fold(1.0, f64::max);
            for (i, (g, w)) in got.iter().zip(&want).enumerate() {
                assert!((g - w).abs() / scale < 1e-10, "n={n} m={m} i={i}: {g} vs {w}");
            }
        }
    }

    #[test]
    fn matches_direct_convolution_complex() {
        let x: Vec<C64> =
            (0..400).map(|i| C64::new((i as f64 * 0.2).sin(), (i as f64 * 0.11).cos())).collect();
        let h: Vec<C64> =
            (0..90).map(|i| C64::new((i as f64 * 0.4).cos(), (i as f64 * 0.05).sin())).collect();
        let got = convolve_fft_c64(&x, &h);
        let want = direct_c64(&x, &h);
        for (g, w) in got.iter().zip(&want) {
            assert!((g.re - w.re).abs() < 1e-9 && (g.im - w.im).abs() < 1e-9);
        }
    }

    #[test]
    fn plan_reuse_and_set_taps_stay_correct() {
        let x: Vec<C64> = (0..300).map(|i| C64::new((i as f64 * 0.17).sin(), 0.0)).collect();
        let h1: Vec<C64> = (0..120).map(|i| C64::real((i as f64 * 0.23).cos())).collect();
        let h2: Vec<C64> = (0..120).map(|i| C64::new(0.0, (i as f64 * 0.19).sin())).collect();
        let mut plan = OlaPlan::new(&h1);
        let mut out = Vec::new();
        plan.convolve_into(&x, &mut out);
        let want1 = direct_c64(&x, &h1);
        for (g, w) in out.iter().zip(&want1) {
            assert!((g.re - w.re).abs() < 1e-9 && (g.im - w.im).abs() < 1e-9);
        }
        // Same size class: set_taps must not replan.
        let fft_before = plan.fft_n;
        plan.set_taps(&h2);
        assert_eq!(plan.fft_n, fft_before);
        plan.convolve_into(&x, &mut out);
        let want2 = direct_c64(&x, &h2);
        for (g, w) in out.iter().zip(&want2) {
            assert!((g.re - w.re).abs() < 1e-9 && (g.im - w.im).abs() < 1e-9);
        }
        // Different size class: replans transparently.
        let h3: Vec<C64> = (0..2048).map(|i| C64::real((i as f64 * 0.01).sin())).collect();
        plan.set_taps(&h3);
        assert_eq!(plan.taps_len(), 2048);
        plan.convolve_into(&x, &mut out);
        assert_eq!(out.len(), x.len() + 2048 - 1);
    }

    #[test]
    fn convolve_add_into_is_convolve_into_then_add() {
        let x: Vec<C64> =
            (0..700).map(|i| C64::new((i as f64 * 0.07).cos(), (i as f64 * 0.3).sin())).collect();
        let h: Vec<C64> = (0..150).map(|i| C64::new((i as f64 * 0.11).sin(), 0.2)).collect();
        let base: Vec<C64> =
            (0..x.len() + h.len() + 9).map(|i| C64::new(i as f64 * 0.5, -(i as f64))).collect();
        let mut plan = OlaPlan::new(&h);
        let mut y = Vec::new();
        plan.convolve_into(&x, &mut y);
        let mut want = base.clone();
        for (w, v) in want.iter_mut().zip(&y) {
            *w += *v;
        }
        let mut got = base;
        plan.convolve_add_into(&x, &mut got);
        // Bit for bit, including the untouched tail past the convolution.
        let bits =
            |v: &[C64]| v.iter().map(|c| (c.re.to_bits(), c.im.to_bits())).collect::<Vec<_>>();
        assert_eq!(bits(&got), bits(&want));
    }

    #[test]
    fn an_untuned_plan_set_to_taps_is_the_planned_one_bit_for_bit() {
        let x: Vec<C64> = (0..900).map(|i| C64::new((i as f64 * 0.3).sin(), 0.5)).collect();
        let h: Vec<C64> = (0..130).map(|i| C64::new(0.1, (i as f64 * 0.7).cos())).collect();
        let mut untuned = OlaPlan::untuned(h.len());
        let mut zeros = Vec::new();
        untuned.convolve_into(&x, &mut zeros);
        assert!(zeros.iter().all(|v| *v == C64::ZERO), "untuned taps read as zero");
        untuned.set_taps(&h);
        let (mut got, mut want) = (Vec::new(), Vec::new());
        untuned.convolve_into(&x, &mut got);
        OlaPlan::new(&h).convolve_into(&x, &mut want);
        let bits =
            |v: &[C64]| v.iter().map(|c| (c.re.to_bits(), c.im.to_bits())).collect::<Vec<_>>();
        assert_eq!(bits(&got), bits(&want));
    }

    #[test]
    fn auto_dispatch_is_exact_below_crossover() {
        // Below the crossover the result must be *bit-identical* to the
        // direct form — callers depend on that.
        let x = wave(200, 0.4);
        let h = wave(FFT_CROSSOVER_TAPS - 1, 0.7);
        assert_eq!(convolve_auto(&x, &h), convolve(&x, &h));
    }

    #[test]
    fn auto_dispatch_commutes_roles() {
        // Long kernel, short signal: the roles swap internally but the
        // linear convolution is symmetric.
        let x = wave(80, 0.3);
        let h = wave(700, 0.05);
        let got = convolve_auto(&x, &h);
        let want = convolve(&x, &h);
        assert_eq!(got.len(), want.len());
        let scale: f64 = want.iter().map(|v| v.abs()).fold(1.0, f64::max);
        for (g, w) in got.iter().zip(&want) {
            assert!((g - w).abs() / scale < 1e-10);
        }
    }

    #[test]
    fn impulse_taps_reproduce_the_signal() {
        let x: Vec<C64> = (0..513).map(|i| C64::new(i as f64, -(i as f64))).collect();
        let h = [C64::ONE];
        let got = convolve_fft_c64(&x, &h);
        for (g, w) in got.iter().zip(&x) {
            assert!((g.re - w.re).abs() < 1e-8 && (g.im - w.im).abs() < 1e-8);
        }
    }

    #[test]
    fn empty_inputs_yield_empty_output() {
        assert!(convolve_fft(&[], &[1.0]).is_empty());
        assert!(convolve_fft(&[1.0], &[]).is_empty());
        assert!(convolve_auto(&[], &[]).is_empty());
    }

    #[test]
    fn convolve_into_is_allocation_free_after_planning() {
        // Structural check: repeated calls with the same output vector
        // must not grow capacity once sized.
        let x: Vec<C64> = (0..1000).map(|i| C64::real((i as f64 * 0.01).sin())).collect();
        let h: Vec<C64> = (0..128).map(|i| C64::real((i as f64 * 0.1).cos())).collect();
        let mut plan = OlaPlan::new(&h);
        let mut out = Vec::new();
        plan.convolve_into(&x, &mut out);
        let cap = out.capacity();
        for _ in 0..3 {
            plan.convolve_into(&x, &mut out);
            assert_eq!(out.capacity(), cap);
        }
    }
}
