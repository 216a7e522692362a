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
    /// The scan correlates 8 consecutive offsets per pass, each in
    /// its own accumulator, so the adds of neighbouring offsets overlap
    /// instead of forming one serial chain per offset. Every lane adds its
    /// terms in reference order from `0.0`, and a ±1 reference term is an
    /// exact add or subtract, so each correlation is bit-identical to the
    /// one-offset-at-a-time sum (the `locate_scalar` oracle in the tests).
    pub fn locate(
        &self,
        baseband: &[C64],
        params: &ModParams,
        threshold: f64,
    ) -> Option<(usize, f64)> {
        let chips = fm0_encode(&self.bits);
        let spc = params.samples_per_chip;
        let m = chips.len() * spc;
        let n = baseband.len();
        if n < m {
            return None;
        }
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
                let (acc_re, acc_im) = correlate_lanes(&chips, spc, &re[base..], &im[base..]);
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
}

/// Offsets [`Preamble::locate`] correlates per pass.
const LANES: usize = 8;

/// Offsets [`Preamble::locate`] stages per scratch refill (a multiple of
/// [`LANES`]).
const BLOCK: usize = 128 * LANES;

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
        let mut rng = seeded(seed);
        let p = Preamble::barker13();
        let mut bits = p.bits().to_vec();
        bits.extend(vab_util::rng::random_bits(&mut rng, 24));
        let wave = BackscatterModulator::new(params()).switch_waveform(&bits);
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
            seed in any::<u64>(),
        ) {
            let p = Preamble::barker13();
            let m = reference(&p, &params()).len();
            // m − 1, m and m + 1 samples, then lengths of up to three
            // scratch blocks (most not a multiple of the lane count, so the
            // tail pass runs).
            let len = if short < 3 { m - 1 + short } else { m + extra };
            let sigma = [0.0, 0.05, 0.5, 3.0][sigma];
            let threshold = [0.0, 1.5, 3.0, 1e9][threshold];
            let x = received(seed, len, delay, leak, sigma);
            let lanes = p.locate(&x, &params(), threshold);
            let scalar = locate_scalar(&p, &x, &params(), threshold);
            prop_assert!(same_bits(lanes, scalar), "{lanes:?} vs {scalar:?} at len {len}");
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
                let lanes = p.locate(&x, &params(), threshold);
                assert!(same_bits(lanes, locate_scalar(&p, &x, &params(), threshold)), "len {len}");
                match lanes {
                    Some(_) => accepted += 1,
                    None => rejected += 1,
                }
            }
        }
        assert!(accepted > 0 && rejected > 0, "{accepted} accepted, {rejected} rejected");
        // A constant buffer ties every offset (the first one wins); an
        // all-zero one has no peak at all.
        for x in [vec![C64::new(0.3, -0.2); m + BLOCK + 5], vec![C64::ZERO; m + 9]] {
            for threshold in [0.0, 1.0] {
                let lanes = p.locate(&x, &params(), threshold);
                assert!(same_bits(lanes, locate_scalar(&p, &x, &params(), threshold)), "{lanes:?}");
            }
        }
    }

    /// The speedup target: on a 300 m-sized receive buffer (17.9 k
    /// samples) the lane scan beats the scalar oracle by at least 2×,
    /// best of three. Gated behind `VAB_BENCH=1` because wall-clock
    /// assertions have no place in the default suite; run it with
    /// `--release`.
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
        // Best of three, the two scans alternating so both see the same
        // host load.
        let (mut scalar, mut lane) = (f64::INFINITY, f64::INFINITY);
        for _ in 0..3 {
            scalar = scalar.min(time(&|x| locate_scalar(&p, x, &params(), 2.5)));
            lane = lane.min(time(&|x| p.locate(x, &params(), 2.5)));
        }
        let speedup = scalar / lane.max(1e-12);
        eprintln!(
            "preamble acquisition, {} samples: scalar {:.2} ms, lanes {:.2} ms, speedup {speedup:.1}x",
            x.len(),
            scalar * 1e3,
            lane * 1e3
        );
        assert!(speedup >= 2.0, "lane-scan acquisition speedup {speedup:.2}x < 2x");
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
