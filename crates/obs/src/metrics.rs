//! Global metrics registry: counters, gauges, fixed-bucket histograms.
//!
//! Instruments are looked up (and lazily created) by name in a global
//! registry; the instruments themselves are plain atomics, so recording
//! never blocks other threads. Call sites on hot paths should cache the
//! returned [`Arc`] instead of re-resolving the name per event.
//!
//! [`Snapshot::capture`] freezes everything into plain data. That one type
//! is `metrics.json`, the machine-readable report written next to the
//! campaign CSVs: [`Snapshot::to_json`] renders it through
//! `vab_util::json`, and [`Snapshot::parse`] reads it back for
//! `vab-obsctl`.

use crate::alloc::{AllocStageSnapshot, AllocTotals};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use vab_util::json::Json;

/// Monotone saturating counter (stops at `u64::MAX` instead of wrapping).
#[derive(Debug, Default)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    /// Adds `n`, saturating at `u64::MAX`.
    pub fn add(&self, n: u64) {
        let _ = self
            .value
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |v| Some(v.saturating_add(n)));
    }

    /// Increments by one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// Last-write-wins float gauge.
#[derive(Debug)]
pub struct Gauge {
    bits: AtomicU64,
}

impl Default for Gauge {
    fn default() -> Self {
        Gauge { bits: AtomicU64::new(0f64.to_bits()) }
    }
}

impl Gauge {
    /// Sets the gauge.
    pub fn set(&self, v: f64) {
        self.bits.store(v.to_bits(), Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> f64 {
        f64::from_bits(self.bits.load(Ordering::Relaxed))
    }
}

/// Fixed-bucket histogram: `bounds.len() + 1` buckets, the last catching
/// everything above the top bound. Bounds are upper-inclusive
/// (`v <= bound` lands at that bound's bucket), matching the cumulative
/// `le` convention of the JSON snapshot.
#[derive(Debug)]
pub struct Histogram {
    bounds: Vec<f64>,
    buckets: Vec<AtomicU64>,
    count: AtomicU64,
    sum_bits: AtomicU64,
}

impl Histogram {
    /// Creates a histogram with the given ascending upper bounds.
    pub fn new(bounds: &[f64]) -> Self {
        debug_assert!(bounds.windows(2).all(|w| w[0] < w[1]), "bounds must ascend");
        Histogram {
            bounds: bounds.to_vec(),
            buckets: (0..=bounds.len()).map(|_| AtomicU64::new(0)).collect(),
            count: AtomicU64::new(0),
            sum_bits: AtomicU64::new(0f64.to_bits()),
        }
    }

    /// Records one observation.
    pub fn observe(&self, v: f64) {
        let idx = self.bounds.partition_point(|b| v > *b);
        self.buckets[idx].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        let _ = self.sum_bits.fetch_update(Ordering::Relaxed, Ordering::Relaxed, |bits| {
            Some((f64::from_bits(bits) + v).to_bits())
        });
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of observations.
    pub fn sum(&self) -> f64 {
        f64::from_bits(self.sum_bits.load(Ordering::Relaxed))
    }

    /// Upper bounds (the final overflow bucket has none).
    pub fn bounds(&self) -> &[f64] {
        &self.bounds
    }

    /// Per-bucket counts (`bounds().len() + 1` entries).
    pub fn bucket_counts(&self) -> Vec<u64> {
        self.buckets.iter().map(|b| b.load(Ordering::Relaxed)).collect()
    }
}

#[derive(Default)]
struct Registry {
    counters: BTreeMap<&'static str, Arc<Counter>>,
    gauges: BTreeMap<&'static str, Arc<Gauge>>,
    histograms: BTreeMap<&'static str, Arc<Histogram>>,
    stages: BTreeMap<&'static str, Arc<Histogram>>,
}

fn registry() -> &'static Mutex<Registry> {
    static REGISTRY: OnceLock<Mutex<Registry>> = OnceLock::new();
    REGISTRY.get_or_init(|| Mutex::new(Registry::default()))
}

fn lock() -> std::sync::MutexGuard<'static, Registry> {
    registry().lock().unwrap_or_else(|e| e.into_inner())
}

/// Returns (creating if needed) the counter named `name`.
///
/// Registry lookups may allocate (first-touch instrument creation); they
/// run under an allocation-profiling pause so which thread first resolves
/// a name never shows up in per-stage allocation counts.
pub fn counter(name: &'static str) -> Arc<Counter> {
    let _p = crate::alloc::pause();
    lock().counters.entry(name).or_default().clone()
}

/// Returns (creating if needed) the gauge named `name`.
pub fn gauge(name: &'static str) -> Arc<Gauge> {
    let _p = crate::alloc::pause();
    lock().gauges.entry(name).or_default().clone()
}

/// Returns (creating if needed) the histogram named `name` with `bounds`.
/// The first caller's bounds win.
pub fn histogram(name: &'static str, bounds: &[f64]) -> Arc<Histogram> {
    let _p = crate::alloc::pause();
    lock().histograms.entry(name).or_insert_with(|| Arc::new(Histogram::new(bounds))).clone()
}

/// Returns (creating if needed) the per-stage wall-clock histogram for
/// `name`, in seconds with the standard stage buckets.
pub fn stage(name: &'static str) -> Arc<Histogram> {
    let _p = crate::alloc::pause();
    lock()
        .stages
        .entry(name)
        .or_insert_with(|| Arc::new(Histogram::new(crate::timer::STAGE_BUCKETS_S)))
        .clone()
}

/// Adds `n` to counter `name` when observability is enabled; no-op otherwise.
pub fn inc(name: &'static str, n: u64) {
    if crate::enabled() {
        counter(name).add(n);
    }
}

/// Sets gauge `name` when observability is enabled; no-op otherwise.
pub fn set(name: &'static str, v: f64) {
    if crate::enabled() {
        gauge(name).set(v);
    }
}

/// Clears every registered instrument. Test hook — snapshots taken after
/// a reset only see instruments touched since.
pub fn reset() {
    let _p = crate::alloc::pause();
    let mut reg = lock();
    *reg = Registry::default();
}

/// Frozen view of one histogram.
#[derive(Debug, Clone, PartialEq)]
pub struct HistogramSnapshot {
    /// Instrument name.
    pub name: String,
    /// Observation count.
    pub count: u64,
    /// Observation sum.
    pub sum: f64,
    /// Ascending upper bounds (overflow bucket excluded).
    pub bounds: Vec<f64>,
    /// Per-bucket counts (`bounds.len() + 1` entries).
    pub buckets: Vec<u64>,
}

impl HistogramSnapshot {
    /// Estimates the `q`-quantile (`0 < q <= 1`) from the bucket counts.
    ///
    /// The rank is interpolated *geometrically* inside the bucket it lands
    /// in — the right choice for log-spaced bounds like the stage buckets,
    /// where the midpoint of `[1 ms, 3.16 ms]` is ~1.78 ms, not 2.08 ms.
    /// The first bucket assumes one decade below its bound; observations in
    /// the overflow bucket clamp to the top bound. Returns `None` when the
    /// histogram is empty or `q` is out of range.
    pub fn percentile(&self, q: f64) -> Option<f64> {
        if self.count == 0 || !(0.0..=1.0).contains(&q) || q == 0.0 {
            return None;
        }
        let rank = q * self.count as f64;
        let mut seen = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            if n == 0 {
                continue;
            }
            let below = seen as f64;
            seen += n;
            if (seen as f64) < rank {
                continue;
            }
            let hi = match self.bounds.get(i) {
                Some(&b) => b,
                // Overflow bucket: no upper bound to interpolate toward.
                None => return Some(self.bounds.last().copied().unwrap_or(f64::INFINITY)),
            };
            let lo = if i > 0 { self.bounds[i - 1] } else { hi / 10.0 };
            let frac = ((rank - below) / n as f64).clamp(0.0, 1.0);
            return Some(if lo > 0.0 && hi > lo {
                lo * (hi / lo).powf(frac)
            } else {
                lo + (hi - lo) * frac
            });
        }
        self.bounds.last().copied().or(Some(f64::INFINITY))
    }

    /// The standard trio of latency quantiles: (p50, p95, p99).
    pub fn quantile_trio(&self) -> Option<(f64, f64, f64)> {
        Some((self.percentile(0.50)?, self.percentile(0.95)?, self.percentile(0.99)?))
    }
}

/// Frozen view of the whole registry, ready for JSON rendering.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Snapshot {
    /// Counter values by name.
    pub counters: Vec<(String, u64)>,
    /// Gauge values by name.
    pub gauges: Vec<(String, f64)>,
    /// General histograms.
    pub histograms: Vec<HistogramSnapshot>,
    /// Per-stage wall-clock histograms (seconds).
    pub stages: Vec<HistogramSnapshot>,
    /// Process-wide allocator totals (`None` unless allocation profiling
    /// recorded anything — see [`crate::alloc`]).
    pub alloc_totals: Option<AllocTotals>,
    /// Per-stage allocation counters (empty unless profiling recorded).
    pub alloc_stages: Vec<AllocStageSnapshot>,
}

fn freeze(map: &BTreeMap<&'static str, Arc<Histogram>>) -> Vec<HistogramSnapshot> {
    map.iter()
        .map(|(name, h)| HistogramSnapshot {
            name: (*name).to_string(),
            count: h.count(),
            sum: h.sum(),
            bounds: h.bounds().to_vec(),
            buckets: h.bucket_counts(),
        })
        .collect()
}

impl Snapshot {
    /// Captures the current state of every registered instrument, plus
    /// the allocation profile when [`crate::alloc`] has recorded one.
    pub fn capture() -> Snapshot {
        let _p = crate::alloc::pause();
        let totals = crate::alloc::totals();
        let (alloc_totals, alloc_stages) =
            if crate::alloc::profiling() || totals != AllocTotals::default() {
                (Some(totals), crate::alloc::snapshot_stages())
            } else {
                (None, Vec::new())
            };
        let reg = lock();
        Snapshot {
            counters: reg.counters.iter().map(|(n, c)| ((*n).to_string(), c.get())).collect(),
            gauges: reg.gauges.iter().map(|(n, g)| ((*n).to_string(), g.get())).collect(),
            histograms: freeze(&reg.histograms),
            stages: freeze(&reg.stages),
            alloc_totals,
            alloc_stages,
        }
    }

    /// Renders `metrics.json` through [`Json::render_pretty`]: counters
    /// and gauges as objects keyed by name; histograms and stages as
    /// arrays of `{name, count, sum, buckets: [{le, count}, …]}`, the
    /// overflow bucket's `le` being `"+inf"`; and an `alloc` section only
    /// when the snapshot carries an allocation profile. Quantiles are not
    /// written: readers derive them from the buckets with
    /// [`HistogramSnapshot::percentile`]. Integers are exact below 2^53; a
    /// non-finite float renders as `null` and reads back as NaN.
    pub fn to_json(&self) -> String {
        let int = |v: u64| Json::Num(v as f64);
        let hist = |h: &HistogramSnapshot| {
            let buckets = h.buckets.iter().enumerate().map(|(i, &n)| {
                let le =
                    h.bounds.get(i).map_or_else(|| Json::Str("+inf".into()), |&b| Json::Num(b));
                Json::obj([("le", le), ("count", int(n))])
            });
            Json::obj([
                ("name", Json::Str(h.name.clone())),
                ("count", int(h.count)),
                ("sum", Json::Num(h.sum)),
                ("buckets", Json::Arr(buckets.collect())),
            ])
        };
        let counters = self.counters.iter().map(|(n, v)| (n.clone(), int(*v)));
        let gauges = self.gauges.iter().map(|(n, v)| (n.clone(), Json::Num(*v)));
        let mut doc = vec![
            ("counters", Json::Obj(counters.collect())),
            ("gauges", Json::Obj(gauges.collect())),
            ("histograms", Json::Arr(self.histograms.iter().map(hist).collect())),
            ("stages", Json::Arr(self.stages.iter().map(hist).collect())),
        ];
        if let Some(t) = &self.alloc_totals {
            let stage = |s: &AllocStageSnapshot| {
                Json::obj([
                    ("name", Json::Str(s.name.clone())),
                    ("calls", int(s.calls)),
                    ("self_allocs", int(s.self_allocs)),
                    ("self_bytes", int(s.self_bytes)),
                    ("cum_allocs", int(s.cum_allocs)),
                    ("cum_bytes", int(s.cum_bytes)),
                ])
            };
            doc.push((
                "alloc",
                Json::obj([
                    ("allocs", int(t.allocs)),
                    ("frees", int(t.frees)),
                    ("bytes_allocated", int(t.bytes_allocated)),
                    ("bytes_freed", int(t.bytes_freed)),
                    ("live_bytes", int(t.live_bytes)),
                    ("peak_live_bytes", int(t.peak_live_bytes)),
                    ("stages", Json::Arr(self.alloc_stages.iter().map(stage).collect())),
                ]),
            ));
        }
        let mut out = Json::obj(doc).render_pretty();
        out.push('\n');
        out
    }

    /// Parses a `metrics.json` snapshot, the inverse of
    /// [`Snapshot::to_json`]. Lenient where older writers differ: absent
    /// sections read as empty, absent numbers as 0 (NaN for floats),
    /// embedded `p50`/`p95`/`p99` fields are ignored and a histogram
    /// without an overflow bucket had nothing past its top bound. A
    /// histogram with a missing name, count or bucket count, or with a
    /// `"+inf"` bound before its last bucket, is an error.
    pub fn parse(text: &str) -> Result<Snapshot, String> {
        let v = Json::parse(text).map_err(|e| e.to_string())?;
        let members = |key: &str| v.get(key).and_then(Json::as_obj).unwrap_or(&[]);
        let mut snap = Snapshot {
            counters: members("counters")
                .iter()
                .map(|(n, c)| (n.clone(), c.as_u64().unwrap_or(0)))
                .collect(),
            gauges: members("gauges")
                .iter()
                .map(|(n, g)| (n.clone(), g.as_f64().unwrap_or(f64::NAN)))
                .collect(),
            ..Snapshot::default()
        };
        for (key, dst) in [("histograms", &mut snap.histograms), ("stages", &mut snap.stages)] {
            for h in v.get(key).and_then(Json::as_arr).unwrap_or(&[]) {
                let parsed = histogram_from_json(h)
                    .ok_or_else(|| format!("malformed histogram entry in {key:?}"))?;
                dst.push(parsed);
            }
        }
        if let Some(alloc) = v.get("alloc") {
            let int = |o: &Json, key: &str| o.u64_field(key).unwrap_or(0);
            snap.alloc_totals = Some(AllocTotals {
                allocs: int(alloc, "allocs"),
                frees: int(alloc, "frees"),
                bytes_allocated: int(alloc, "bytes_allocated"),
                bytes_freed: int(alloc, "bytes_freed"),
                live_bytes: int(alloc, "live_bytes"),
                peak_live_bytes: int(alloc, "peak_live_bytes"),
            });
            for s in alloc.get("stages").and_then(Json::as_arr).unwrap_or(&[]) {
                snap.alloc_stages.push(AllocStageSnapshot {
                    name: s.str_field("name").ok_or("alloc stage without name")?.to_string(),
                    calls: int(s, "calls"),
                    self_allocs: int(s, "self_allocs"),
                    self_bytes: int(s, "self_bytes"),
                    cum_allocs: int(s, "cum_allocs"),
                    cum_bytes: int(s, "cum_bytes"),
                });
            }
        }
        Ok(snap)
    }

    /// Loads and parses the snapshot at `path`.
    pub fn load(path: &std::path::Path) -> Result<Snapshot, String> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        Snapshot::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
    }

    /// Writes the JSON snapshot to `path` (creating parent directories).
    pub fn write_json(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent)?;
            }
        }
        std::fs::write(path, self.to_json())
    }

    /// Human-readable per-stage time breakdown (one line per stage),
    /// or `None` when no stage has recorded anything.
    pub fn stage_summary(&self) -> Option<String> {
        let active: Vec<&HistogramSnapshot> = self.stages.iter().filter(|h| h.count > 0).collect();
        if active.is_empty() {
            return None;
        }
        let total: f64 = active.iter().map(|h| h.sum).sum();
        let mut out = String::from("stage breakdown (wall-clock):\n");
        for h in &active {
            let share = if total > 0.0 { 100.0 * h.sum / total } else { 0.0 };
            let mean_us = if h.count > 0 { 1e6 * h.sum / h.count as f64 } else { 0.0 };
            let _ = writeln!(
                out,
                "  {:<24} {:>10} calls  {:>10.3} s total  {:>10.1} us/call  {:>5.1}%",
                h.name, h.count, h.sum, mean_us, share
            );
        }
        Some(out)
    }
}

/// One histogram entry of `metrics.json`; `None` when malformed.
fn histogram_from_json(v: &Json) -> Option<HistogramSnapshot> {
    let entries = v.get("buckets").and_then(Json::as_arr)?;
    let (mut bounds, mut buckets) = (Vec::new(), Vec::new());
    for (i, b) in entries.iter().enumerate() {
        match b.get("le") {
            Some(Json::Num(x)) => bounds.push(*x),
            Some(Json::Str(s)) if s == "+inf" && i + 1 == entries.len() => {}
            _ => return None,
        }
        buckets.push(b.u64_field("count")?);
    }
    buckets.resize(bounds.len() + 1, 0);
    Some(HistogramSnapshot {
        name: v.str_field("name")?.to_string(),
        count: v.u64_field("count")?,
        sum: v.f64_field("sum").unwrap_or(f64::NAN),
        bounds,
        buckets,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Registry tests share global state with each other; reuse the crate
    /// test lock so parallel test threads do not interleave resets.
    fn guard() -> std::sync::MutexGuard<'static, ()> {
        crate::tests::test_guard()
    }

    #[test]
    fn counter_saturates_instead_of_wrapping() {
        let c = Counter::default();
        c.add(u64::MAX - 1);
        c.add(5);
        assert_eq!(c.get(), u64::MAX);
        c.inc();
        assert_eq!(c.get(), u64::MAX, "saturated counter must stay saturated");
    }

    #[test]
    fn gauge_stores_last_write() {
        let g = Gauge::default();
        assert_eq!(g.get(), 0.0);
        g.set(-2.5);
        assert_eq!(g.get(), -2.5);
    }

    #[test]
    fn histogram_bucket_boundaries_are_upper_inclusive() {
        let h = Histogram::new(&[1.0, 10.0, 100.0]);
        // v <= bound lands in that bound's bucket; above-top goes to overflow.
        for v in [0.5, 1.0] {
            h.observe(v); // bucket 0 (le 1.0)
        }
        h.observe(1.0000001); // bucket 1 (le 10.0)
        h.observe(10.0); // bucket 1
        h.observe(100.0); // bucket 2 (le 100.0)
        h.observe(100.5); // overflow bucket
        assert_eq!(h.bucket_counts(), vec![2, 2, 1, 1]);
        assert_eq!(h.count(), 6);
        let expected: f64 = 0.5 + 1.0 + 1.0000001 + 10.0 + 100.0 + 100.5;
        assert!((h.sum() - expected).abs() < 1e-9, "sum: {}", h.sum());
    }

    #[test]
    fn histogram_concurrent_observations_all_counted() {
        let h = Arc::new(Histogram::new(&[0.5]));
        std::thread::scope(|scope| {
            for _ in 0..8 {
                let h = h.clone();
                scope.spawn(move || {
                    for _ in 0..1000 {
                        h.observe(0.25);
                    }
                });
            }
        });
        assert_eq!(h.count(), 8000);
        assert_eq!(h.bucket_counts(), vec![8000, 0]);
        assert!((h.sum() - 2000.0).abs() < 1e-6);
    }

    #[test]
    fn registry_returns_same_instrument_for_same_name() {
        let _g = guard();
        reset();
        counter("pr2.same").add(3);
        counter("pr2.same").add(4);
        assert_eq!(counter("pr2.same").get(), 7);
        let h1 = histogram("pr2.h", &[1.0]);
        let h2 = histogram("pr2.h", &[99.0]); // first bounds win
        assert_eq!(h2.bounds(), h1.bounds());
        reset();
    }

    #[test]
    fn snapshot_json_is_valid_and_stable() {
        let _g = guard();
        reset();
        counter("pr2.trials").add(10);
        gauge("pr2.level").set(1.5);
        histogram("pr2.lat", &[0.001, 0.01]).observe(0.005);
        stage("pr2.stage_demod").observe(0.002);
        let snap = Snapshot::capture();
        let json = snap.to_json();
        let back = Snapshot::parse(&json).expect("snapshot parses");
        assert_eq!(back, snap, "json: {json}");
        assert_eq!(back.counters, [("pr2.trials".to_string(), 10)]);
        assert_eq!(back.gauges, [("pr2.level".to_string(), 1.5)]);
        assert_eq!(back.histograms[0].name, "pr2.lat");
        assert_eq!(back.histograms[0].buckets, [0, 1, 0], "overflow bucket survives");
        assert_eq!(back.stages[0].name, "pr2.stage_demod");
        assert_eq!(Snapshot::capture().to_json(), json, "rendering is stable");
        let summary = snap.stage_summary().expect("stage summary");
        assert!(summary.contains("pr2.stage_demod"), "summary: {summary}");
        reset();
    }

    #[test]
    fn percentiles_interpolate_log_buckets() {
        let snap = HistogramSnapshot {
            name: "t".into(),
            count: 100,
            sum: 0.0,
            bounds: vec![1e-3, 1e-2, 1e-1],
            buckets: vec![50, 45, 5, 0],
        };
        // p50 sits exactly on the first bucket's upper edge.
        let p50 = snap.percentile(0.5).expect("p50");
        assert!((p50 - 1e-3).abs() < 1e-9, "p50 = {p50}");
        // p95 lands on the second bucket's upper edge (50 + 45 = 95).
        let p95 = snap.percentile(0.95).expect("p95");
        assert!((p95 - 1e-2).abs() < 1e-9, "p95 = {p95}");
        // p99 interpolates geometrically inside (1e-2, 1e-1]:
        // frac = (99 - 95) / 5 = 0.8 → 1e-2 * 10^0.8.
        let p99 = snap.percentile(0.99).expect("p99");
        let expect = 1e-2 * 10f64.powf(0.8);
        assert!((p99 / expect - 1.0).abs() < 1e-9, "p99 = {p99}, want {expect}");
        let (q50, q95, q99) = snap.quantile_trio().expect("trio");
        assert_eq!((q50, q95, q99), (p50, p95, p99));
    }

    #[test]
    fn percentile_edge_cases() {
        let empty = HistogramSnapshot {
            name: "e".into(),
            count: 0,
            sum: 0.0,
            bounds: vec![1.0],
            buckets: vec![0, 0],
        };
        assert_eq!(empty.percentile(0.5), None);
        assert_eq!(empty.quantile_trio(), None);
        // Everything in the overflow bucket clamps to the top bound.
        let over = HistogramSnapshot {
            name: "o".into(),
            count: 4,
            sum: 0.0,
            bounds: vec![1.0, 10.0],
            buckets: vec![0, 0, 4],
        };
        assert_eq!(over.percentile(0.5), Some(10.0));
        // Out-of-range q is rejected.
        let h = HistogramSnapshot {
            name: "h".into(),
            count: 1,
            sum: 0.5,
            bounds: vec![1.0],
            buckets: vec![1, 0],
        };
        assert_eq!(h.percentile(0.0), None);
        assert_eq!(h.percentile(1.5), None);
        assert!(h.percentile(1.0).is_some());
    }

    #[test]
    fn percentile_single_bucket_interpolates_within_it() {
        // All mass in one interior bucket: every quantile interpolates
        // geometrically inside (1e-2, 1e-1], never outside it.
        let snap = HistogramSnapshot {
            name: "s".into(),
            count: 10,
            sum: 0.0,
            bounds: vec![1e-3, 1e-2, 1e-1],
            buckets: vec![0, 0, 10, 0],
        };
        for q in [0.01, 0.25, 0.5, 0.75, 0.99, 1.0] {
            let p = snap.percentile(q).expect("quantile");
            assert!((1e-2..=1e-1 + 1e-12).contains(&p), "q={q}: {p} escaped the bucket");
        }
        // q = 1.0 is the bucket's upper edge exactly (frac = 1).
        let p100 = snap.percentile(1.0).expect("p100");
        assert!((p100 - 1e-1).abs() < 1e-9, "p100 = {p100}");
        // The single first bucket assumes one decade below its bound.
        let first = HistogramSnapshot {
            name: "f".into(),
            count: 4,
            sum: 0.0,
            bounds: vec![1e-3, 1e-2],
            buckets: vec![4, 0, 0],
        };
        let p50 = first.percentile(0.5).expect("p50");
        assert!((1e-4..=1e-3).contains(&p50), "first-bucket p50 = {p50}");
    }

    #[test]
    fn percentile_saturated_top_bucket_clamps_to_top_bound() {
        // Mass split between an interior bucket and a saturated overflow
        // bucket: quantiles landing in the overflow clamp to the top
        // bound instead of extrapolating toward infinity.
        let snap = HistogramSnapshot {
            name: "sat".into(),
            count: 100,
            sum: 0.0,
            bounds: vec![1.0, 10.0],
            buckets: vec![0, 10, 90],
        };
        let p05 = snap.percentile(0.05).expect("p05");
        assert!((1.0..=10.0).contains(&p05), "p05 = {p05}");
        for q in [0.11, 0.5, 0.99, 1.0] {
            assert_eq!(snap.percentile(q), Some(10.0), "q={q} must clamp to the top bound");
        }
        let (p50, p95, p99) = snap.quantile_trio().expect("trio");
        assert_eq!((p50, p95, p99), (10.0, 10.0, 10.0));
    }

    #[test]
    fn snapshot_json_carries_quantiles() {
        // Quantiles travel as the buckets they are derived from.
        let _g = guard();
        reset();
        stage("pr3.q_stage").observe(0.002);
        let snap = Snapshot::capture();
        let back = Snapshot::parse(&snap.to_json()).expect("snapshot parses");
        let trio = back.stages[0].quantile_trio().expect("trio");
        assert_eq!(Some(trio), snap.stages[0].quantile_trio());
        assert!(trio.0 > 1e-3 && trio.2 <= 3.16e-3, "{trio:?}");
        reset();
    }

    #[test]
    fn snapshot_carries_alloc_profile_when_profiling() {
        let _g = guard();
        reset();
        crate::alloc::reset();
        crate::alloc::enable();
        {
            let tok = crate::alloc::stage_enter("pr8.alloc_stage").expect("profiling on");
            let v: Vec<u8> = Vec::with_capacity(256);
            std::hint::black_box(&v);
            drop(v);
            crate::alloc::stage_exit(tok);
        }
        let snap = Snapshot::capture();
        crate::alloc::disable();
        let totals = snap.alloc_totals.expect("profiling snapshot carries totals");
        assert!(totals.allocs >= 1);
        let stage = snap.alloc_stages.iter().find(|s| s.name == "pr8.alloc_stage").expect("stage");
        assert!(stage.self_allocs >= 1 && stage.self_bytes >= 256);
        let json = snap.to_json();
        let back = Snapshot::parse(&json).expect("snapshot parses");
        assert_eq!(back, snap, "json: {json}");
        assert_eq!(back.alloc_totals.map(|t| t.peak_live_bytes), Some(totals.peak_live_bytes));
        assert!(back.alloc_stages.iter().any(|s| s.name == "pr8.alloc_stage"), "json: {json}");
        crate::alloc::reset();
        reset();
    }

    #[test]
    fn parses_the_older_layout_with_embedded_quantiles() {
        let text = r#"{
  "counters": {"arq.retransmits": 12, "mc.trials": 150},
  "gauges": {"x": 1.5},
  "histograms": [],
  "stages": [
    {"name":"sim.linkbudget_trial","count":4,"sum":0.02,"p50":0.004,"p95":0.009,"p99":0.0099,"buckets":[{"le":0.001,"count":0},{"le":0.01,"count":3},{"le":"+inf","count":1}]}
  ]
}"#;
        let snap = Snapshot::parse(text).expect("parse");
        assert_eq!(snap.counters[0], ("arq.retransmits".to_string(), 12));
        assert!(snap.alloc_totals.is_none());
        let st = &snap.stages[0];
        assert_eq!((st.name.as_str(), st.count, st.sum), ("sim.linkbudget_trial", 4, 0.02));
        assert_eq!(st.bounds, [0.001, 0.01]);
        assert_eq!(st.buckets, [0, 3, 1]);
        // The embedded p50 (0.004) is not read: quantiles come from the buckets.
        let p50 = st.percentile(0.5).expect("p50");
        assert!((p50 - 0.001 * 10f64.powf(2.0 / 3.0)).abs() < 1e-15, "p50 {p50}");
        let p25 = st.percentile(0.25).expect("p25");
        assert!((p25 - 0.001 * 10f64.powf(1.0 / 3.0)).abs() < 1e-15, "p25 {p25}");
        assert_eq!(st.percentile(0.9), Some(0.01), "overflow clamps to the top bound");
    }

    #[test]
    fn an_inner_infinite_bucket_is_malformed() {
        let text = r#"{"stages":[{"name":"s","count":1,"sum":1.0,
            "buckets":[{"le":"+inf","count":1},{"le":0.01,"count":0}]}]}"#;
        assert!(Snapshot::parse(text).is_err());
    }

    #[test]
    fn empty_snapshot_has_no_stage_summary() {
        let _g = guard();
        reset();
        let snap = Snapshot::capture();
        assert!(snap.stage_summary().is_none());
        assert_eq!(Snapshot::parse(&snap.to_json()), Ok(Snapshot::default()));
        reset();
    }
}
