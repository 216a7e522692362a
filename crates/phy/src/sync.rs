//! Packet synchronization: preamble design and noncoherent acquisition.

use crate::fm0::fm0_encode;
use crate::modulation::ModParams;
use vab_util::complex::C64;

/// A known bit pattern prepended to every uplink frame.
///
/// Default is the 13-chip Barker code expressed as bits (optimal aperiodic
/// autocorrelation: sidelobes ≤ 1/13 of the peak).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Preamble {
    bits: Vec<bool>,
}

impl Preamble {
    /// Barker-13-based default preamble.
    pub fn barker13() -> Self {
        // +++++--++-+-+ → true×5, false×2, true×2, false, true, false, true
        let pattern =
            [true, true, true, true, true, false, false, true, true, false, true, false, true];
        Self { bits: pattern.to_vec() }
    }

    /// A custom preamble.
    pub fn from_bits(bits: Vec<bool>) -> Self {
        assert!(bits.len() >= 4, "preamble too short to acquire");
        Self { bits }
    }

    /// Preamble bits.
    pub fn bits(&self) -> &[bool] {
        &self.bits
    }

    /// Length in bits.
    pub fn len(&self) -> usize {
        self.bits.len()
    }

    /// Never empty (constructor enforces ≥ 4 bits).
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Noncoherent acquisition: slides the ±1 reference over the DC-removed
    /// baseband signal and returns the offset with the largest |correlation|,
    /// provided it clears `threshold` × the average correlation magnitude.
    ///
    /// Returns `(start_of_payload_sample, peak_metric)`.
    ///
    /// The result is defined by the exact scan (see `lane_scan`): each
    /// offset's correlation summed in reference order, its magnitude by
    /// `hypot`, the first largest offset, the mean of all magnitudes in
    /// offset order. [`Preamble::locate_fast`] decides almost every buffer
    /// with far fewer operations and provably the same bits; whatever it
    /// cannot decide goes to the exact scan.
    pub fn locate(
        &self,
        baseband: &[C64],
        params: &ModParams,
        threshold: f64,
    ) -> Option<(usize, f64)> {
        self.locate_fast(baseband, params, threshold).unwrap_or_else(|| {
            let chips = fm0_encode(&self.bits);
            lane_scan(&chips, params.samples_per_chip, baseband, threshold)
        })
    }

    /// The bounded fast path of [`Preamble::locate`] on its own: `Some`
    /// with `locate`'s result, bit for bit, when its error bound decides
    /// the buffer, `None` when `locate` falls back to the exact scan.
    ///
    /// Every offset's correlation comes from `samples_per_chip`-sample box
    /// sums (one term per chip instead of one per sample) and its
    /// magnitude from `sqrt(re² + im²)`. An a-priori bound δ on the gap
    /// to the exact magnitude, from the largest input component, picks the
    /// offsets within 2δ of the largest fast magnitude; only those are
    /// re-scored exactly, so the first exact maximum is found. A bound on
    /// the sum of all magnitudes then brackets the threshold test. The
    /// path declines non-finite inputs, inputs outside about 1e±150
    /// (where squaring under- or overflows), more than a handful of
    /// near-maximal offsets (ties, flat buffers) and a peak too close to
    /// the threshold to call.
    pub fn locate_fast(
        &self,
        baseband: &[C64],
        params: &ModParams,
        threshold: f64,
    ) -> Option<Option<(usize, f64)>> {
        let chips = fm0_encode(&self.bits);
        let spc = params.samples_per_chip;
        if baseband.len() < chips.len() * spc {
            return Some(None);
        }
        wide_box_scan::best()(&chips, spc, baseband, threshold)
    }
}

/// Offsets [`lane_scan`] correlates per pass.
const LANES: usize = 8;

/// Offsets [`lane_scan`] stages per scratch refill (a multiple of
/// [`LANES`]).
const BLOCK: usize = 128 * LANES;

/// Offsets [`box_scan`] correlates per scratch refill.
const BOX_BLOCK: usize = 512;

/// Most offsets [`box_scan`] re-scores exactly before it declines.
const MAX_CANDIDATES: usize = 16;

/// [`box_scan`] takes inputs whose largest `|re| + |im|` lies in
/// `[MIN_SCALE, MAX_SCALE]`: squares of correlations of such inputs
/// neither overflow nor lose more than [`UNDERFLOW`] to subnormals.
const MIN_SCALE: f64 = 1e-150;
const MAX_SCALE: f64 = 1e150;

/// Absolute error a subnormal square can add to `sqrt(re² + im²)`:
/// above `sqrt(3 · 2⁻¹⁰⁷⁴) ≈ 3.8e-162`.
const UNDERFLOW: f64 = 1e-160;

/// The exact acquisition scan: every offset's correlation in reference
/// order, `hypot` magnitudes, the first largest, and the mean in offset
/// order.
///
/// The scan correlates 8 consecutive offsets per pass, each in
/// its own accumulator, so the adds of neighbouring offsets overlap
/// instead of forming one serial chain per offset. Every lane adds its
/// terms in reference order from `0.0`, and a ±1 reference term is an
/// exact add or subtract, so each correlation is bit-identical to the
/// one-offset-at-a-time sum (the `locate_scalar` oracle in the tests).
fn lane_scan(chips: &[f64], spc: usize, baseband: &[C64], threshold: f64) -> Option<(usize, f64)> {
    let m = chips.len() * spc;
    let n = baseband.len();
    let offsets = n - m + 1;
    // A split re/im copy of one block of offsets' samples at a time,
    // zero-padded so the last pass's spare lanes (offsets past the
    // end, discarded below) read in bounds. One allocation, sized for
    // a full block and reused, so the scratch stays small in `n`.
    let mut split = Vec::with_capacity(2 * (BLOCK + m - 1));
    let mut best = (0usize, 0.0f64);
    let mut sum = 0.0f64;
    let mut count = 0usize;
    for block in (0..offsets).step_by(BLOCK) {
        let passes = BLOCK.min(offsets - block).div_ceil(LANES);
        let span = passes * LANES + m - 1;
        let samples = &baseband[block..n.min(block + span)];
        split.clear();
        split.extend(samples.iter().map(|x| x.re));
        split.resize(span, 0.0);
        split.extend(samples.iter().map(|x| x.im));
        split.resize(2 * span, 0.0);
        let (re, im) = split.split_at(span);
        for base in (0..passes * LANES).step_by(LANES) {
            let (acc_re, acc_im) = correlate_lanes(chips, spc, &re[base..], &im[base..]);
            for lane in 0..LANES.min(offsets - block - base) {
                let mag = C64::new(acc_re[lane], acc_im[lane]).abs();
                sum += mag;
                count += 1;
                if mag > best.1 {
                    best = (block + base + lane, mag);
                }
            }
        }
    }
    let mean = sum / count.max(1) as f64;
    if best.1 > threshold * mean.max(1e-300) {
        Some((best.0 + m, best.1))
    } else {
        None
    }
}

/// Correlates the ±1 chip sequence, each chip held for `spc` samples,
/// against [`LANES`] consecutive offsets: lane `l` sums
/// `chip(i)·x[l + i]` over `i` in reference order, for `x = re + j·im`.
/// Both slices hold at least `chips.len()·spc + LANES − 1` samples.
fn correlate_lanes(
    chips: &[f64],
    spc: usize,
    re: &[f64],
    im: &[f64],
) -> ([f64; LANES], [f64; LANES]) {
    let mut acc_re = [0.0f64; LANES];
    let mut acc_im = [0.0f64; LANES];
    for (k, &chip) in chips.iter().enumerate() {
        debug_assert!(chip == 1.0 || chip == -1.0, "FM0 chips are ±1");
        let run = k * spc..(k + 1) * spc;
        if chip > 0.0 {
            for i in run {
                let r: &[f64; LANES] = re[i..i + LANES].try_into().expect("lane window");
                let q: &[f64; LANES] = im[i..i + LANES].try_into().expect("lane window");
                for lane in 0..LANES {
                    acc_re[lane] += r[lane];
                    acc_im[lane] += q[lane];
                }
            }
        } else {
            for i in run {
                let r: &[f64; LANES] = re[i..i + LANES].try_into().expect("lane window");
                let q: &[f64; LANES] = im[i..i + LANES].try_into().expect("lane window");
                for lane in 0..LANES {
                    acc_re[lane] -= r[lane];
                    acc_im[lane] -= q[lane];
                }
            }
        }
    }
    (acc_re, acc_im)
}

/// One offset's exact metric: the lane fold of [`correlate_lanes`] for a
/// single lane (`chip(i)·x[off + i]` added in reference order from `0.0`)
/// and its `hypot` magnitude.
fn exact_metric(chips: &[f64], spc: usize, x: &[C64], off: usize) -> f64 {
    let (mut re, mut im) = (0.0f64, 0.0f64);
    for (&chip, run) in chips.iter().zip(x[off..].chunks_exact(spc)) {
        for v in run {
            if chip > 0.0 {
                re += v.re;
                im += v.im;
            } else {
                re -= v.re;
                im -= v.im;
            }
        }
    }
    C64::new(re, im).abs()
}

vab_util::wide_bodies!(mod wide_box_scan for fn box_scan(
    chips: &[f64],
    spc: usize,
    x: &[C64],
    threshold: f64,
) -> Option<Option<(usize, f64)>>);

/// `γ_k = k·u / (1 − k·u)`: the relative error bound of `k` rounded adds
/// or multiplies (Higham), `u` the unit roundoff.
fn gamma(k: usize) -> f64 {
    let ku = k as f64 * (f64::EPSILON / 2.0);
    ku / (1.0 - ku)
}

/// The bounded acquisition pass behind [`Preamble::locate_fast`]:
/// `Some(result)` when the bound decides, else `None`.
///
/// Error bound. Let `M` be the largest `|re| + |im|` of any sample, which
/// bounds every component, and `m` the reference length. Per component,
/// the exact scan's in-order fold of `m` terms is within `γ_{m+2}·m·M`
/// of the true correlation; so is this pass's two-level fold (box sums of
/// `spc` samples, then one term per chip: at most `m + 2` rounded adds on
/// any path). The two correlations are thus within `2√2·γ_{m+2}·m·M` of
/// each other as complex numbers, which bounds the gap of their
/// magnitudes.
/// `sqrt(re² + im²)` adds at most about `2u` relative (plus
/// [`UNDERFLOW`] absolute), `hypot` at most one ulp, and each correlation
/// is at most `√2·m·M`. δ is twice the sum of these terms.
///
/// Peak. Every offset holding the exact maximum `E` has a fast magnitude
/// `≥ E − δ ≥ F − 2δ`, `F` the largest fast magnitude. Offsets within
/// 2δ of the running fast maximum are kept (a running maximum is never
/// above `F`, so none is dropped early), and re-scoring them exactly in
/// ascending order with the exact scan's strict `>` finds the same first
/// maximal offset and the same metric bits.
///
/// Threshold. The exact in-order sum of `N` magnitudes and this pass's
/// sum of the fast ones (8 lanes per block, then across blocks: at most
/// `N + 16` adds on any path) are each within `γ_{N+16}` of their true
/// sums, which differ by at most `N·δ`; the bracket below is twice
/// that, plus a few ulps for its own rounding. Rounded division and
/// multiplication are monotone, so the exact `threshold · max(mean,
/// 1e-300)` lies between the values at the bracket's ends; when the
/// peak is above both or at most both, the test is decided.
#[inline(always)]
fn box_scan(chips: &[f64], spc: usize, x: &[C64], threshold: f64) -> Option<Option<(usize, f64)>> {
    let m = chips.len() * spc;
    let n = x.len();
    let offsets = n - m + 1;
    let mut scale = 0.0f64;
    let mut in_range = true;
    for v in x {
        let s = v.re.abs() + v.im.abs();
        in_range &= s <= MAX_SCALE; // false for NaN and ∞
        scale = scale.max(s);
    }
    if !in_range || scale < MIN_SCALE {
        return None;
    }
    let u = f64::EPSILON / 2.0;
    let peak = std::f64::consts::SQRT_2 * m as f64 * scale;
    let delta = 2.0 * (2.0 * gamma(m + 2) * peak + 4.0 * u * peak + UNDERFLOW);

    // Scratch: the block's box sums (re, im), then its correlations (re,
    // im), the real parts overwritten by the fast magnitudes. One
    // allocation, block-sized.
    let boxes = BOX_BLOCK + m - spc;
    let mut scratch = vec![0.0f64; 2 * boxes + 2 * BOX_BLOCK];
    let (box_re, rest) = scratch.split_at_mut(boxes);
    let (box_im, rest) = rest.split_at_mut(boxes);
    let (corr_re, corr_im) = rest.split_at_mut(BOX_BLOCK);

    let mut fast_max = 0.0f64;
    let mut fast_sum = 0.0f64;
    let mut kept = [(0usize, 0.0f64); MAX_CANDIDATES];
    let mut n_kept = 0usize;
    for block in (0..offsets).step_by(BOX_BLOCK) {
        let len = BOX_BLOCK.min(offsets - block);
        let n_boxes = len + m - spc;
        let (box_re, box_im) = (&mut box_re[..n_boxes], &mut box_im[..n_boxes]);
        // Box sums, `spc` samples each, added sample by sample across the
        // block so every pass is a unit-stride vector add.
        for ((r, q), v) in box_re.iter_mut().zip(box_im.iter_mut()).zip(&x[block..]) {
            *r = v.re;
            *q = v.im;
        }
        for i in 1..spc {
            for ((r, q), v) in box_re.iter_mut().zip(box_im.iter_mut()).zip(&x[block + i..]) {
                *r += v.re;
                *q += v.im;
            }
        }
        let (corr_re, corr_im) = (&mut corr_re[..len], &mut corr_im[..len]);
        corr_re.fill(0.0);
        corr_im.fill(0.0);
        for (k, &chip) in chips.iter().enumerate() {
            let boxes = box_re[k * spc..].iter().zip(&box_im[k * spc..]);
            let terms = corr_re.iter_mut().zip(corr_im.iter_mut()).zip(boxes);
            if chip > 0.0 {
                for ((r, q), (&a, &b)) in terms {
                    *r += a;
                    *q += b;
                }
            } else {
                for ((r, q), (&a, &b)) in terms {
                    *r -= a;
                    *q -= b;
                }
            }
        }
        for (r, &q) in corr_re.iter_mut().zip(corr_im.iter()) {
            *r = (*r * *r + q * q).sqrt();
        }
        let mags = &*corr_re;
        let mut partial = [0.0f64; 8];
        let mut block_max = 0.0f64;
        let mut lanes = mags.chunks_exact(8);
        for chunk in &mut lanes {
            for (p, &f) in partial.iter_mut().zip(chunk) {
                *p += f;
            }
            block_max = chunk.iter().fold(block_max, |a, &f| a.max(f));
        }
        for &f in lanes.remainder() {
            partial[0] += f;
            block_max = block_max.max(f);
        }
        fast_sum += partial.iter().sum::<f64>();
        if block_max > fast_max {
            fast_max = block_max;
            let cut = fast_max - 2.0 * delta;
            let mut kept_len = 0;
            for i in 0..n_kept {
                if kept[i].1 >= cut {
                    kept[kept_len] = kept[i];
                    kept_len += 1;
                }
            }
            n_kept = kept_len;
        }
        let cut = fast_max - 2.0 * delta;
        for (i, &f) in mags.iter().enumerate() {
            if f >= cut {
                if n_kept == MAX_CANDIDATES {
                    return None;
                }
                kept[n_kept] = (block + i, f);
                n_kept += 1;
            }
        }
    }

    let mut best = (0usize, 0.0f64);
    for &(off, _) in &kept[..n_kept] {
        let mag = exact_metric(chips, spc, x, off);
        if mag > best.1 {
            best = (off, mag);
        }
    }
    let count = offsets as f64;
    let slack = 2.0 * (count * delta + 2.0 * gamma(offsets + 16) * fast_sum) + 4.0 * u * fast_sum;
    let bar = |sum: f64| threshold * (sum / count).max(1e-300);
    let (a, b) = (bar(fast_sum - slack), bar(fast_sum + slack));
    if best.1 > a.max(b) {
        Some(Some((best.0 + m, best.1)))
    } else if best.1 <= a.min(b) {
        Some(None)
    } else {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::carrier::remove_dc;
    use crate::modulation::BackscatterModulator;
    use proptest::prelude::*;
    use rand::RngExt;
    use vab_util::rng::{complex_gaussian, seeded};

    fn params() -> ModParams {
        ModParams::vab_default()
    }

    /// What `locate` returns: payload start and peak metric, if acquired.
    type Acquired = Option<(usize, f64)>;

    /// The ±1 reference waveform at `samples_per_chip` oversampling.
    fn reference(p: &Preamble, params: &ModParams) -> Vec<f64> {
        let chips = fm0_encode(p.bits());
        let mut w = Vec::with_capacity(chips.len() * params.samples_per_chip);
        for c in chips {
            for _ in 0..params.samples_per_chip {
                w.push(c);
            }
        }
        w
    }

    /// The one-offset-at-a-time scan `locate` replaced: each offset's
    /// correlation is one fold over the expanded ±1 reference. Kept as the
    /// bit-exactness oracle and the speed gate's baseline.
    fn locate_scalar(
        p: &Preamble,
        baseband: &[C64],
        params: &ModParams,
        threshold: f64,
    ) -> Acquired {
        let reference = reference(p, params);
        let m = reference.len();
        if baseband.len() < m {
            return None;
        }
        let mut best = (0usize, 0.0f64);
        let mut sum = 0.0f64;
        let mut count = 0usize;
        for off in 0..=(baseband.len() - m) {
            let corr: C64 = reference.iter().enumerate().map(|(i, &r)| baseband[off + i] * r).sum();
            let mag = corr.abs();
            sum += mag;
            count += 1;
            if mag > best.1 {
                best = (off, mag);
            }
        }
        let mean = sum / count.max(1) as f64;
        if best.1 > threshold * mean.max(1e-300) {
            Some((best.0 + m, best.1))
        } else {
            None
        }
    }

    /// A received buffer of `len` samples: a phase-rotated preamble and
    /// payload at `delay` (clipped to the buffer), a carrier leak and
    /// complex Gaussian noise, DC-removed like the sample-level receiver.
    fn received(seed: u64, len: usize, delay: usize, leak: f64, sigma: f64) -> Vec<C64> {
        received_at(&params(), seed, len, delay, leak, sigma)
    }

    /// [`received`] at any chip oversampling.
    fn received_at(
        params: &ModParams,
        seed: u64,
        len: usize,
        delay: usize,
        leak: f64,
        sigma: f64,
    ) -> Vec<C64> {
        let mut rng = seeded(seed);
        let p = Preamble::barker13();
        let mut bits = p.bits().to_vec();
        bits.extend(vab_util::rng::random_bits(&mut rng, 24));
        let wave = BackscatterModulator::new(*params).switch_waveform(&bits);
        let rot = C64::cis(rng.random_range(0.0..std::f64::consts::TAU));
        let dc = C64::from_polar(leak, rng.random_range(0.0..std::f64::consts::TAU));
        let sig: Vec<C64> = (0..len)
            .map(|i| {
                let w = i.checked_sub(delay).and_then(|k| wave.get(k)).map_or(0.0, |&w| w);
                rot * w + dc + complex_gaussian(&mut rng, sigma)
            })
            .collect();
        remove_dc(&sig)
    }

    /// Bit-for-bit equality of two `locate` results.
    fn same_bits(a: Acquired, b: Acquired) -> bool {
        a.map(|(o, v)| (o, v.to_bits())) == b.map(|(o, v)| (o, v.to_bits()))
    }

    /// `locate` against the scalar oracle, and the bounded pass against
    /// both wherever it decides; returns whether it decided.
    fn assert_matches_oracle(p: &Preamble, x: &[C64], params: &ModParams, threshold: f64) -> bool {
        let want = locate_scalar(p, x, params, threshold);
        let got = p.locate(x, params, threshold);
        assert!(same_bits(got, want), "locate {got:?} vs oracle {want:?} at len {}", x.len());
        let chips = fm0_encode(p.bits());
        if x.len() >= chips.len() * params.samples_per_chip {
            let exact = lane_scan(&chips, params.samples_per_chip, x, threshold);
            assert!(same_bits(exact, want), "lane scan {exact:?} vs oracle {want:?}");
        }
        let fast = p.locate_fast(x, params, threshold);
        if x.len() >= chips.len() * params.samples_per_chip {
            // Every compiled body of the bounded pass decides alike.
            let key = |r: Option<Acquired>| r.map(|a| a.map(|(o, v)| (o, v.to_bits())));
            for (name, body) in wide_box_scan::all() {
                if let Some(body) = body {
                    let got = body(&chips, params.samples_per_chip, x, threshold);
                    assert_eq!(key(got), key(fast), "{name} box-sum body");
                }
            }
        }
        match fast {
            Some(fast) => {
                assert!(same_bits(fast, want), "fast {fast:?} vs oracle {want:?}");
                true
            }
            None => false,
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]
        #[test]
        fn lane_scan_matches_the_scalar_oracle_bit_for_bit(
            extra in 0usize..(3 * BLOCK),
            short in 0usize..6,
            delay in 0usize..(3 * BLOCK),
            leak in 0.0f64..30.0,
            sigma in 0usize..4,
            threshold in 0usize..4,
            spc in 1usize..11,
            seed in any::<u64>(),
        ) {
            let p = Preamble::barker13();
            // The default 8 samples per chip half the time, else 1 to 10.
            let params = ModParams { samples_per_chip: if spc > 5 { 8 } else { spc }, ..params() };
            let m = reference(&p, &params).len();
            // m − 1, m and m + 1 samples, then lengths of up to three
            // scratch blocks (most not a multiple of the lane count, so the
            // tail pass runs).
            let len = if short < 3 { m - 1 + short } else { m + extra };
            let sigma = [0.0, 0.05, 0.5, 3.0][sigma];
            let threshold = [0.0, 1.5, 3.0, 1e9][threshold];
            let x = received_at(&params, seed, len, delay, leak, sigma);
            assert_matches_oracle(&p, &x, &params, threshold);
        }
    }

    #[test]
    fn the_bounded_pass_declines_what_it_cannot_decide() {
        let p = Preamble::barker13();
        let params = params();
        let m = reference(&p, &params).len();
        let x = received(5, 3_000, 700, 25.0, 0.5);
        // A clean peak: the bounded pass decides, accepting and rejecting.
        assert!(assert_matches_oracle(&p, &x, &params, 2.5));
        assert!(assert_matches_oracle(&p, &x, &params, 1e9));
        // A threshold that puts the peak exactly on the bar: the bracket
        // straddles it, so the exact scan decides, on either side.
        let (_, peak) = locate_scalar(&p, &x, &params, 0.0).expect("peak");
        let chips = fm0_encode(p.bits());
        let offsets = x.len() - m + 1;
        let sum =
            (0..offsets).map(|o| exact_metric(&chips, params.samples_per_chip, &x, o)).sum::<f64>();
        let ratio = peak / (sum / offsets as f64);
        for threshold in [ratio, ratio * (1.0 - 1e-13), ratio * (1.0 + 1e-13)] {
            assert!(!assert_matches_oracle(&p, &x, &params, threshold), "threshold {threshold}");
        }
        assert!(!assert_matches_oracle(&p, &x, &params, f64::NAN));
        // Ties: a constant buffer ties every offset (the first one wins),
        // and an all-zero one has no peak at all.
        for x in [vec![C64::new(0.3, -0.2); m + BLOCK + 5], vec![C64::ZERO; m + 9 + BLOCK]] {
            for threshold in [0.0, 1.0] {
                assert!(!assert_matches_oracle(&p, &x, &params, threshold));
            }
        }
        // Magnitudes whose squares under- or overflow, and non-finite
        // samples.
        for scale in [1e-200, 1e-155, 1e155, 1e300] {
            let tiny: Vec<C64> = x.iter().map(|v| v.scale(scale)).collect();
            assert!(!assert_matches_oracle(&p, &tiny, &params, 2.5), "scale {scale}");
        }
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let mut y = x.clone();
            y[1_234].im = bad;
            assert!(!assert_matches_oracle(&p, &y, &params, 2.5), "{bad}");
        }
        // Just inside the range the bounded pass still decides.
        for scale in [1e-140, 1e140] {
            let y: Vec<C64> = x.iter().map(|v| v.scale(scale)).collect();
            assert!(assert_matches_oracle(&p, &y, &params, 2.5), "scale {scale}");
        }
    }

    #[test]
    fn oracle_comparison_covers_accept_reject_and_every_tail_width() {
        let p = Preamble::barker13();
        let m = reference(&p, &params()).len();
        // Every tail width of the first passes and around the first
        // scratch-block boundary.
        let lens =
            ((m - 1)..=(m + 2 * LANES + 1)).chain((m + BLOCK - LANES - 2)..=(m + BLOCK + LANES));
        let (mut accepted, mut rejected) = (0, 0);
        for len in lens {
            for threshold in [2.5, 1e9] {
                let x = received(len as u64, len, 0, 25.0, 0.1);
                assert_matches_oracle(&p, &x, &params(), threshold);
                match p.locate(&x, &params(), threshold) {
                    Some(_) => accepted += 1,
                    None => rejected += 1,
                }
            }
        }
        assert!(accepted > 0 && rejected > 0, "{accepted} accepted, {rejected} rejected");
        // Short constant and all-zero buffers (the all-zero one is out of
        // the bounded pass's range).
        for threshold in [0.0, 1.0] {
            assert_matches_oracle(&p, &vec![C64::new(0.3, -0.2); m + 5], &params(), threshold);
            assert!(!assert_matches_oracle(&p, &vec![C64::ZERO; m + 9], &params(), threshold));
        }
    }

    /// The speedup target: on a 300 m-sized receive buffer (17.9 k
    /// samples) `locate` beats the scalar oracle by at least 5×, best of
    /// three (about 8× with the portable box-sum body and 14–25× with
    /// AVX-512 on a noisy 2-core host). Gated behind `VAB_BENCH=1`
    /// because wall-clock assertions have no place in the default suite;
    /// run it with `--release`.
    #[test]
    fn preamble_acquisition_meets_the_bench_speedup_target() {
        if std::env::var("VAB_BENCH").is_err() {
            eprintln!("skipped: set VAB_BENCH=1 to run the speedup gate");
            return;
        }
        use std::hint::black_box;
        use std::time::Instant;
        let p = Preamble::barker13();
        let x = received(300, 17_900, 9_000, 25.0, 0.5);
        let lanes = p.locate(&x, &params(), 2.5);
        assert!(lanes.is_some());
        assert!(same_bits(lanes, locate_scalar(&p, &x, &params(), 2.5)));
        const CALLS: usize = 20;
        let time = |scan: &dyn Fn(&[C64]) -> Acquired| {
            let t = Instant::now();
            for _ in 0..CALLS {
                black_box(scan(black_box(&x)));
            }
            t.elapsed().as_secs_f64() / CALLS as f64
        };
        // Best of three, the scans alternating so all see the same host
        // load: the oracle, the exact lane scan, every box-sum body this
        // CPU runs, and `locate` itself.
        let chips = fm0_encode(p.bits());
        let spc = params().samples_per_chip;
        let bodies = wide_box_scan::all();
        let mut best = vec![f64::INFINITY; 3 + bodies.len()];
        for _ in 0..3 {
            best[0] = best[0].min(time(&|x| locate_scalar(&p, x, &params(), 2.5)));
            best[1] = best[1].min(time(&|x| lane_scan(&chips, spc, x, 2.5)));
            best[2] = best[2].min(time(&|x| p.locate(x, &params(), 2.5)));
            for (slot, (_, body)) in best[3..].iter_mut().zip(&bodies) {
                if let Some(body) = body {
                    *slot = slot.min(time(&|x| body(&chips, spc, x, 2.5).flatten()));
                }
            }
        }
        let speedup = best[0] / best[2].max(1e-12);
        let boxes: Vec<String> = bodies
            .iter()
            .zip(&best[3..])
            .map(|((name, _), t)| format!("{name} {:.2} ms", t * 1e3))
            .collect();
        eprintln!(
            "preamble acquisition, {} samples: scalar {:.2} ms, lane scan {:.2} ms, box sums [{}] \
             (inf: not run), locate {:.2} ms, speedup {speedup:.1}x",
            x.len(),
            best[0] * 1e3,
            best[1] * 1e3,
            boxes.join(", "),
            best[2] * 1e3
        );
        assert!(speedup >= 5.0, "acquisition speedup {speedup:.2}x < 5x");
    }

    #[test]
    fn barker13_has_13_bits() {
        assert_eq!(Preamble::barker13().len(), 13);
    }

    #[test]
    fn locates_preamble_in_clean_signal() {
        let p = Preamble::barker13();
        let m = BackscatterModulator::new(params());
        let delay = 37;
        // signal: silence, preamble, payload
        let mut bits = p.bits().to_vec();
        bits.extend([true, false, true, true]);
        let wave = m.switch_waveform(&bits);
        let mut sig = vec![C64::ZERO; delay];
        sig.extend(wave.iter().map(|&w| C64::from_polar(1.0, 0.7) * w));
        sig.extend(vec![C64::ZERO; 50]);
        let (start, _) = p.locate(&sig, &params(), 3.0).expect("should acquire");
        let expected = delay + p.len() * params().samples_per_bit();
        assert_eq!(start, expected);
    }

    #[test]
    fn locates_preamble_under_noise_and_phase() {
        let mut rng = seeded(11);
        let p = Preamble::barker13();
        let m = BackscatterModulator::new(params());
        let delay = 120;
        let mut bits = p.bits().to_vec();
        bits.extend([false, true, false, false, true, true]);
        let wave = m.switch_waveform(&bits);
        let mut sig = vec![C64::ZERO; delay];
        sig.extend(wave.iter().map(|&w| C64::from_polar(1.0, 2.1) * w));
        sig.extend(vec![C64::ZERO; 80]);
        // Carrier leak + noise.
        let noisy: Vec<C64> =
            sig.iter().map(|&s| s + C64::real(25.0) + complex_gaussian(&mut rng, 0.3)).collect();
        let clean = remove_dc(&noisy);
        let (start, _) = p.locate(&clean, &params(), 3.0).expect("acquire under noise");
        let expected = delay + p.len() * params().samples_per_bit();
        assert!((start as i64 - expected as i64).abs() <= 2, "start {start} vs {expected}");
    }

    #[test]
    fn no_false_acquisition_on_noise() {
        let mut rng = seeded(12);
        let p = Preamble::barker13();
        let noise: Vec<C64> = (0..2000).map(|_| complex_gaussian(&mut rng, 1.0)).collect();
        assert!(p.locate(&noise, &params(), 5.0).is_none());
    }

    #[test]
    fn too_short_buffer_returns_none() {
        let p = Preamble::barker13();
        let sig = vec![C64::ONE; 10];
        assert!(p.locate(&sig, &params(), 3.0).is_none());
    }

    #[test]
    #[should_panic(expected = "too short")]
    fn tiny_custom_preamble_rejected() {
        let _ = Preamble::from_bits(vec![true, false]);
    }
}
