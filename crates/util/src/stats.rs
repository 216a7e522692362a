//! Streaming and batch statistics for Monte Carlo experiment results.

/// Welford online mean/variance accumulator.
///
/// Numerically stable for millions of samples; merging two accumulators is
/// supported so parallel Monte Carlo shards can be combined exactly.
#[derive(Debug, Clone, Copy, Default)]
pub struct RunningStats {
    n: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl RunningStats {
    /// Empty accumulator.
    pub fn new() -> Self {
        Self { n: 0, mean: 0.0, m2: 0.0, min: f64::INFINITY, max: f64::NEG_INFINITY }
    }

    /// Adds one observation.
    pub fn push(&mut self, x: f64) {
        self.n += 1;
        let delta = x - self.mean;
        self.mean += delta / self.n as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Merges another accumulator (Chan et al. parallel formula).
    pub fn merge(&mut self, other: &RunningStats) {
        if other.n == 0 {
            return;
        }
        if self.n == 0 {
            *self = *other;
            return;
        }
        let n1 = self.n as f64;
        let n2 = other.n as f64;
        let delta = other.mean - self.mean;
        let total = n1 + n2;
        self.mean += delta * n2 / total;
        self.m2 += other.m2 + delta * delta * n1 * n2 / total;
        self.n += other.n;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Sample mean (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Unbiased sample variance (0 when n < 2).
    pub fn variance(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            self.m2 / (self.n - 1) as f64
        }
    }

    /// Sample standard deviation.
    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Minimum observation (+∞ when empty).
    pub fn min(&self) -> f64 {
        self.min
    }

    /// Maximum observation (−∞ when empty).
    pub fn max(&self) -> f64 {
        self.max
    }
}

/// Percentile by linear interpolation on a sorted copy (p in [0, 100]).
pub fn percentile(data: &[f64], p: f64) -> f64 {
    assert!(!data.is_empty(), "percentile of empty slice");
    assert!((0.0..=100.0).contains(&p), "percentile must be in [0,100]");
    let mut v: Vec<f64> = data.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("NaN in percentile input"));
    let rank = p / 100.0 * (v.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    let frac = rank - lo as f64;
    v[lo] * (1.0 - frac) + v[hi] * frac
}

/// Median (50th percentile).
pub fn median(data: &[f64]) -> f64 {
    percentile(data, 50.0)
}

/// Arithmetic mean of a slice (0 for empty input).
pub fn mean(data: &[f64]) -> f64 {
    if data.is_empty() {
        0.0
    } else {
        data.iter().sum::<f64>() / data.len() as f64
    }
}

/// A fixed-bin histogram over a closed range; out-of-range samples clamp to
/// the edge bins so nothing is silently dropped.
#[derive(Debug, Clone)]
pub struct Histogram {
    lo: f64,
    hi: f64,
    counts: Vec<u64>,
}

impl Histogram {
    /// Creates a histogram over `[lo, hi]` with `bins` bins.
    pub fn new(lo: f64, hi: f64, bins: usize) -> Self {
        assert!(hi > lo && bins > 0);
        Self { lo, hi, counts: vec![0; bins] }
    }

    /// Adds a sample.
    pub fn push(&mut self, x: f64) {
        let bins = self.counts.len();
        let t = (x - self.lo) / (self.hi - self.lo);
        let idx = ((t * bins as f64).floor() as isize).clamp(0, bins as isize - 1) as usize;
        self.counts[idx] += 1;
    }

    /// Bin counts.
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// Total sample count.
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::approx_eq;

    #[test]
    fn running_stats_basic() {
        let mut s = RunningStats::new();
        for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
            s.push(x);
        }
        assert_eq!(s.count(), 8);
        assert!(approx_eq(s.mean(), 5.0, 1e-12));
        assert!(approx_eq(s.variance(), 32.0 / 7.0, 1e-12));
        assert_eq!(s.min(), 2.0);
        assert_eq!(s.max(), 9.0);
    }

    #[test]
    fn merge_equals_sequential() {
        let data: Vec<f64> = (0..100).map(|i| (i as f64 * 0.37).sin() * 10.0).collect();
        let mut whole = RunningStats::new();
        for &x in &data {
            whole.push(x);
        }
        let mut a = RunningStats::new();
        let mut b = RunningStats::new();
        for &x in &data[..37] {
            a.push(x);
        }
        for &x in &data[37..] {
            b.push(x);
        }
        a.merge(&b);
        assert_eq!(a.count(), whole.count());
        assert!(approx_eq(a.mean(), whole.mean(), 1e-12));
        assert!(approx_eq(a.variance(), whole.variance(), 1e-10));
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let mut a = RunningStats::new();
        a.push(1.0);
        a.push(3.0);
        let before = (a.count(), a.mean(), a.variance());
        a.merge(&RunningStats::new());
        assert_eq!(before, (a.count(), a.mean(), a.variance()));
    }

    #[test]
    fn percentile_and_median() {
        let data = [1.0, 2.0, 3.0, 4.0, 5.0];
        assert!(approx_eq(median(&data), 3.0, 1e-12));
        assert!(approx_eq(percentile(&data, 0.0), 1.0, 1e-12));
        assert!(approx_eq(percentile(&data, 100.0), 5.0, 1e-12));
        assert!(approx_eq(percentile(&data, 25.0), 2.0, 1e-12));
    }

    #[test]
    fn histogram_bins_and_clamping() {
        let mut h = Histogram::new(0.0, 10.0, 10);
        h.push(0.5);
        h.push(9.5);
        h.push(-3.0); // clamps into bin 0
        h.push(42.0); // clamps into bin 9
        assert_eq!(h.counts()[0], 2);
        assert_eq!(h.counts()[9], 2);
        assert_eq!(h.total(), 4);
    }

    #[test]
    fn empty_stats_are_sane() {
        let s = RunningStats::new();
        assert_eq!(s.count(), 0);
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.variance(), 0.0);
    }
}
