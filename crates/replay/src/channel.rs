//! Replay by convolution against interpolated TVIR taps.
//!
//! A [`ReplayChannel`] walks a waveform through the bank's snapshot
//! timeline: each input segment falling between two snapshots is convolved
//! (overlap-save FFT, plan and scratch reused) with taps linearly
//! interpolated at the segment's midpoint, and the segment outputs
//! overlap-add into the result. Past the last snapshot the channel holds
//! that snapshot, so the whole tail after it is one more segment: an
//! `n`-snapshot bank retunes the FFT plan at most `n` times per call,
//! however long the waveform. A single-snapshot (static) bank collapses
//! to one convolution — which then matches the synthetic
//! `apply_baseband` path to FFT rounding.

use std::ops::Range;
use std::sync::Arc;

use vab_util::complex::C64;
use vab_util::ola::OlaPlan;

/// A stateful replay convolver over one tap matrix (one-way or round-trip).
///
/// Construction allocates the convolution buffers (FFT plan, tap
/// spectrum, interpolation buffer) but shares the snapshot rows and
/// computes no spectrum: the first [`ReplayChannel::apply`] tunes the
/// plan before it convolves. `apply` then allocates only its output
/// vector. Inside the bank the taps interpolate linearly between
/// snapshots; from the first sample at or after the last snapshot on, one
/// segment replays the last snapshot unchanged.
#[derive(Debug, Clone)]
pub struct ReplayChannel {
    /// Snapshot rows, shared with every other channel over the same bank.
    snaps: Arc<[Vec<C64>]>,
    /// Rows in use: all of them, or only the first for a static bank.
    n_snaps: usize,
    /// Snapshot spacing, seconds (zero for a static bank).
    dt: f64,
    fs: f64,
    /// Start offset into the bank timeline, seconds.
    t0: f64,
    taps_len: usize,
    plan: OlaPlan,
    interp: Vec<C64>,
}

impl ReplayChannel {
    /// Builds a replay channel over a copy of `snaps` (snapshot-major tap
    /// rows, all the same length) spaced `dt` seconds apart, replaying
    /// from bank time `t0` at sample rate `fs`. A zero `dt` replays the
    /// first snapshot as a static bank.
    ///
    /// # Panics
    /// Panics when `snaps` is empty, rows are ragged, or `fs`/`dt`/`t0`
    /// are unusable.
    pub fn new(snaps: &[Vec<C64>], dt: f64, fs: f64, t0: f64) -> Self {
        let used = if dt > 0.0 { snaps } else { &snaps[..snaps.len().min(1)] };
        Self::shared(used.iter().cloned().collect(), dt, fs, t0)
    }

    /// [`ReplayChannel::new`] over rows shared, not copied: building a
    /// channel per trial over one bank then never copies its taps.
    ///
    /// # Panics
    /// As [`ReplayChannel::new`].
    pub fn shared(snaps: Arc<[Vec<C64>]>, dt: f64, fs: f64, t0: f64) -> Self {
        assert!(!snaps.is_empty(), "replay needs at least one snapshot");
        let taps_len = snaps[0].len();
        assert!(taps_len > 0, "replay snapshots need at least one tap");
        assert!(snaps.iter().all(|s| s.len() == taps_len), "ragged snapshot rows");
        assert!(fs.is_finite() && fs > 0.0, "bad sample rate {fs}");
        assert!(dt.is_finite() && dt >= 0.0, "bad snapshot spacing {dt}");
        assert!(t0.is_finite() && t0 >= 0.0, "bad start time {t0}");
        let n_snaps = if dt > 0.0 { snaps.len() } else { 1 };
        Self {
            snaps,
            n_snaps,
            dt,
            fs,
            t0,
            taps_len,
            plan: OlaPlan::untuned(taps_len),
            interp: vec![C64::ZERO; taps_len],
        }
    }

    /// Tap count per snapshot.
    pub fn taps_len(&self) -> usize {
        self.taps_len
    }

    /// Splits a `len`-sample input into the runs that share one tap
    /// tuning, in order: `(samples, Some(k))` for the part of interpolation
    /// interval `k` (between snapshots `k` and `k + 1`) the input covers,
    /// then `(samples, None)` for everything from the first sample at or
    /// after the last snapshot on. Empty runs are skipped, so there are at
    /// most `n_snapshots` runs. Boundaries are computed in sample-index
    /// space, `⌈(bank time − t0)·fs⌉`, so float rounding cannot split a
    /// run.
    fn segments(&self, len: usize) -> impl Iterator<Item = (Range<usize>, Option<usize>)> {
        let intervals = self.n_snaps - 1;
        let (dt, fs, t0) = (self.dt, self.fs, self.t0);
        let mut start = 0usize;
        (0..=intervals).filter_map(move |k| {
            let end = if k < intervals {
                let boundary = (((k + 1) as f64 * dt - t0) * fs).ceil();
                boundary.clamp(0.0, len as f64) as usize
            } else {
                len
            };
            if end <= start {
                return None;
            }
            let run = start..end;
            start = end;
            Some((run, (k < intervals).then_some(k)))
        })
    }

    /// Retunes the convolution plan for `run`: taps linearly interpolated
    /// at the run's midpoint inside interval `k`, or the last snapshot.
    fn tune(&mut self, run: &Range<usize>, interval: Option<usize>) {
        let Some(k) = interval else {
            self.plan.set_taps(&self.snaps[self.n_snaps - 1]);
            return;
        };
        let mid = self.t0 + (run.start + run.end) as f64 / 2.0 / self.fs;
        let alpha = ((mid / self.dt) - k as f64).clamp(0.0, 1.0);
        let (a, b) = (&self.snaps[k], &self.snaps[k + 1]);
        for ((o, &x), &y) in self.interp.iter_mut().zip(a).zip(b) {
            *o = x.scale(1.0 - alpha) + y.scale(alpha);
        }
        self.plan.set_taps(&self.interp);
    }

    /// Replays `x` through the channel: output length
    /// `x.len() + taps_len − 1`, overlap-added across snapshot segments.
    pub fn apply(&mut self, x: &[C64]) -> Vec<C64> {
        let _t = vab_obs::time_stage("replay.apply");
        if x.is_empty() {
            return Vec::new();
        }
        let mut y = vec![C64::ZERO; x.len() + self.taps_len - 1];
        for (run, interval) in self.segments(x.len()) {
            self.tune(&run, interval);
            self.plan.convolve_add_into(&x[run.clone()], &mut y[run.start..]);
        }
        y
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tone(n: usize) -> Vec<C64> {
        (0..n).map(|i| C64::cis(i as f64 * 0.21) * (1.0 + 0.1 * (i as f64 * 0.03).sin())).collect()
    }

    fn direct(x: &[C64], h: &[C64]) -> Vec<C64> {
        let mut y = vec![C64::ZERO; x.len() + h.len() - 1];
        for (i, &xi) in x.iter().enumerate() {
            for (j, &hj) in h.iter().enumerate() {
                y[i + j] += xi * hj;
            }
        }
        y
    }

    #[test]
    fn static_bank_is_plain_convolution() {
        let taps: Vec<C64> = (0..90).map(|i| C64::new((i as f64 * 0.2).sin(), 0.1)).collect();
        let x = tone(400);
        let mut ch = ReplayChannel::new(std::slice::from_ref(&taps), 0.0, 1000.0, 0.0);
        let got = ch.apply(&x);
        let want = direct(&x, &taps);
        assert_eq!(got.len(), want.len());
        for (g, w) in got.iter().zip(&want) {
            assert!((*g - *w).abs() < 1e-9);
        }
    }

    #[test]
    fn apply_is_repeatable() {
        let taps: Vec<C64> = (0..70).map(|i| C64::new(0.0, (i as f64 * 0.3).cos())).collect();
        let snaps = vec![taps.clone(), taps.iter().map(|t| t.scale(0.5)).collect()];
        let x = tone(300);
        let mut ch = ReplayChannel::new(&snaps, 0.1, 1000.0, 0.02);
        let a = ch.apply(&x);
        let b = ch.apply(&x);
        assert_eq!(a, b, "replay must be bit-deterministic call to call");
    }

    #[test]
    fn interpolation_blends_between_snapshots() {
        // Two snapshots: identity tap scaled 1.0 and 3.0. Mid-bank replay
        // must land strictly between.
        let s0 = vec![C64::ONE];
        let s1 = vec![C64::real(3.0)];
        let x = vec![C64::ONE; 100];
        // t0 = 0.05 s into a 0.1 s interval at fs = 1000: alpha ≈ 0.5.
        let mut ch = ReplayChannel::new(&[s0, s1], 0.1, 1000.0, 0.049);
        let y = ch.apply(&x);
        let mid = y[20].re;
        assert!(mid > 1.2 && mid < 2.8, "expected a blended gain, got {mid}");
    }

    #[test]
    fn segments_walk_the_snapshot_timeline() {
        // Three snapshots over 0.2 s; a 0.3 s signal must see a rising
        // gain profile as the taps interpolate 1 → 2 → 4.
        let snaps = vec![vec![C64::ONE], vec![C64::real(2.0)], vec![C64::real(4.0)]];
        let x = vec![C64::ONE; 300];
        let mut ch = ReplayChannel::new(&snaps, 0.1, 1000.0, 0.0);
        let y = ch.apply(&x);
        assert!(y[10].re < y[150].re && y[150].re < y[250].re, "gain must rise along the bank");
    }

    /// Linear interpolation of two snapshot rows at weight `alpha`.
    fn lerp(a: &[C64], b: &[C64], alpha: f64) -> Vec<C64> {
        a.iter().zip(b).map(|(&x, &y)| x.scale(1.0 - alpha) + y.scale(alpha)).collect()
    }

    #[test]
    fn long_replay_is_segmentwise_direct_convolution() {
        // Three snapshots 0.125 s apart at fs = 1024: the interval
        // boundaries fall exactly on samples 128 and 256, and the input
        // runs on for ten times the bank's span.
        let snaps: Vec<Vec<C64>> = (0..3)
            .map(|s| {
                (0..40)
                    .map(|i| C64::new((i as f64 * 0.3 + s as f64).sin(), 0.1 * s as f64 + 0.05))
                    .collect()
            })
            .collect();
        let x = tone(2560);
        let mut ch = ReplayChannel::new(&snaps, 0.125, 1024.0, 0.0);
        let got = ch.apply(&x);
        // Each in-bank run is tuned at its midpoint (alpha = 0.5); the tail
        // replays the last snapshot.
        let mut want = vec![C64::ZERO; x.len() + 39];
        for (run, taps) in [
            (0..128, lerp(&snaps[0], &snaps[1], 0.5)),
            (128..256, lerp(&snaps[1], &snaps[2], 0.5)),
            (256..2560, snaps[2].clone()),
        ] {
            for (j, v) in direct(&x[run.clone()], &taps).into_iter().enumerate() {
                want[run.start + j] += v;
            }
        }
        assert_eq!(got.len(), want.len());
        let scale = want.iter().map(|v| v.abs()).fold(1.0, f64::max);
        for (i, (g, w)) in got.iter().zip(&want).enumerate() {
            assert!((*g - *w).abs() / scale < 1e-9, "sample {i}: {g:?} vs {w:?}");
        }
    }

    #[test]
    fn apply_tunes_at_most_once_per_snapshot() {
        let taps = vec![C64::ONE; 5];
        for n in [1usize, 2, 3, 8] {
            let snaps = vec![taps.clone(); n];
            for t0 in [0.0, 0.0003, 0.049, 0.1, 0.1 + 1e-12, 0.33, 0.7, 5.0] {
                for len in [1usize, 2, 99, 100, 101, 777, 19_000] {
                    let ch = ReplayChannel::new(&snaps, 0.1, 1000.0, t0);
                    let runs: Vec<_> = ch.segments(len).collect();
                    assert!(runs.len() <= n, "n={n} t0={t0} len={len}: {runs:?}");
                    // The runs tile the input in order, none empty.
                    let mut next = 0;
                    for (run, interval) in &runs {
                        assert_eq!(run.start, next, "n={n} t0={t0} len={len}: {runs:?}");
                        assert!(run.end > run.start);
                        next = run.end;
                        // An in-bank run lies inside its own interval.
                        if let Some(k) = interval {
                            let (lo, hi) = (*k as f64 * 0.1, (*k + 1) as f64 * 0.1);
                            let first = t0 + run.start as f64 / 1000.0;
                            let last = t0 + (run.end - 1) as f64 / 1000.0;
                            assert!(first >= lo - 1e-9 && last < hi + 1e-9, "{runs:?}");
                        }
                    }
                    assert_eq!(next, len);
                    // Only the last run may hold the last snapshot.
                    assert!(runs[..runs.len() - 1].iter().all(|(_, k)| k.is_some()));
                }
            }
        }
    }

    #[test]
    fn empty_input_is_fine() {
        let mut ch = ReplayChannel::new(&[vec![C64::ONE]], 0.0, 1000.0, 0.0);
        assert!(ch.apply(&[]).is_empty());
    }
}
