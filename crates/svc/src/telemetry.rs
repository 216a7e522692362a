//! The daemon's live telemetry plane: an in-process ring of metrics
//! samples served over the `metrics` / `watch` wire ops.
//!
//! A sampler thread (started by the server) calls [`TelemetryRing::record`]
//! on a fixed cadence; each sample freezes the pool's queue/throughput
//! counters, the cache's hit accounting, and — when observability is
//! enabled — the `svc.*` stage-latency histograms (p50/p95/p99 derived
//! here by `HistogramSnapshot::quantile_trio`, the log-bucket
//! interpolation every `metrics.json` reader uses; that file stores only
//! the buckets). Samples are plain JSON objects, so `vab-obsctl tail`
//! and the SLO gate consume exactly what a `nc` one-liner would see.
//!
//! Samples carry *cumulative* counters plus a monotone `tick` and a
//! milliseconds-since-start timestamp; watchers derive rates from deltas
//! between consecutive samples, which keeps the wire format trivially
//! mergeable and replayable.

use std::collections::VecDeque;
use std::sync::Mutex;
use std::time::Instant;

use vab_util::json::Json;

use crate::pool::WorkerPool;

/// Schema tag stamped on every telemetry sample.
pub const TELEMETRY_SCHEMA: &str = "vab-svc-telemetry/1";

/// Bounded ring of telemetry samples plus the clock they share.
pub struct TelemetryRing {
    samples: Mutex<VecDeque<(u64, Json)>>,
    capacity: usize,
    epoch: Instant,
}

impl TelemetryRing {
    /// An empty ring retaining at most `capacity` samples (min 1).
    pub fn new(capacity: usize) -> TelemetryRing {
        TelemetryRing {
            samples: Mutex::new(VecDeque::new()),
            capacity: capacity.max(1),
            epoch: Instant::now(),
        }
    }

    /// Captures one sample into the ring and returns its tick.
    pub fn record(&self, pool: &WorkerPool, malformed_frames: u64) -> u64 {
        let mut samples = self.samples.lock().unwrap_or_else(|e| e.into_inner());
        let tick = samples.back().map(|(t, _)| t + 1).unwrap_or(1);
        let sample = build_sample(tick, self.epoch, pool, malformed_frames);
        samples.push_back((tick, sample));
        while samples.len() > self.capacity {
            samples.pop_front();
        }
        tick
    }

    /// A fresh sample, captured on demand and *not* retained (the
    /// `metrics` op). Its tick is the latest recorded tick, so a watcher
    /// mixing `metrics` and `watch` never skips ring entries.
    pub fn sample_now(&self, pool: &WorkerPool, malformed_frames: u64) -> Json {
        let tick = self.latest_tick();
        build_sample(tick, self.epoch, pool, malformed_frames)
    }

    /// The newest recorded tick (0 = nothing recorded yet).
    pub fn latest_tick(&self) -> u64 {
        let samples = self.samples.lock().unwrap_or_else(|e| e.into_inner());
        samples.back().map(|(t, _)| *t).unwrap_or(0)
    }

    /// All retained samples with tick > `since`, oldest first, plus the
    /// newest tick (the watcher's next `since`).
    pub fn since(&self, since: u64) -> (u64, Vec<Json>) {
        let samples = self.samples.lock().unwrap_or_else(|e| e.into_inner());
        let latest = samples.back().map(|(t, _)| *t).unwrap_or(0);
        let out = samples.iter().filter(|(t, _)| *t > since).map(|(_, s)| s.clone()).collect();
        (latest, out)
    }
}

/// Freezes one telemetry sample. Pool and cache counters are always
/// present; stage quantiles appear only when observability is enabled
/// (they come from the in-process `vab-obs` registry).
fn build_sample(tick: u64, epoch: Instant, pool: &WorkerPool, malformed_frames: u64) -> Json {
    let (done, failed) = pool.totals();
    let cache = pool.cache().stats();
    let mut fields = vec![
        ("schema", Json::Str(TELEMETRY_SCHEMA.into())),
        ("tick", Json::Num(tick as f64)),
        ("t_ms", Json::Num(epoch.elapsed().as_millis() as f64)),
        ("workers", Json::Num(pool.workers() as f64)),
        ("queue_depth", Json::Num(pool.queue_depth() as f64)),
        ("jobs_done", Json::Num(done as f64)),
        ("jobs_failed", Json::Num(failed as f64)),
        ("malformed_frames", Json::Num(malformed_frames as f64)),
        (
            "cache",
            Json::obj([
                ("hits", Json::Num(cache.hits as f64)),
                ("misses", Json::Num(cache.misses as f64)),
                ("hit_rate", Json::Num(cache.hit_rate())),
                ("resident", Json::Num(cache.resident as f64)),
                ("quarantined", Json::Num(cache.quarantined as f64)),
                ("write_failures", Json::Num(cache.disk_write_failures as f64)),
            ]),
        ),
    ];
    let mut stages = Vec::new();
    if vab_obs::enabled() {
        let snap = vab_obs::metrics::Snapshot::capture();
        for h in &snap.stages {
            if !h.name.starts_with("svc.") || h.count == 0 {
                continue;
            }
            let mut entry = vec![
                ("count", Json::Num(h.count as f64)),
                ("mean_ms", Json::Num(1e3 * h.sum / h.count as f64)),
            ];
            if let Some((p50, p95, p99)) = h.quantile_trio() {
                entry.push(("p50_ms", Json::Num(1e3 * p50)));
                entry.push(("p95_ms", Json::Num(1e3 * p95)));
                entry.push(("p99_ms", Json::Num(1e3 * p99)));
            }
            stages.push((h.name.clone(), Json::obj(entry)));
        }
    }
    fields.push(("stages", Json::Obj(stages)));
    // Live allocator counters appear only under VAB_PROFILE=1, so
    // `vab-obsctl tail` can derive alloc rates the same way it derives
    // job rates.
    if vab_obs::alloc::profiling() {
        let totals = vab_obs::alloc::totals();
        fields.push((
            "alloc",
            Json::obj([
                ("allocs", Json::Num(totals.allocs as f64)),
                ("frees", Json::Num(totals.frees as f64)),
                ("bytes_allocated", Json::Num(totals.bytes_allocated as f64)),
                ("live_bytes", Json::Num(totals.live_bytes as f64)),
                ("peak_live_bytes", Json::Num(totals.peak_live_bytes as f64)),
            ]),
        ));
    }
    Json::obj(fields)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::ResultCache;
    use crate::exec::Executor;
    use crate::pool::PoolConfig;
    use std::sync::Arc;

    fn pool() -> WorkerPool {
        let cfg = PoolConfig { workers: 1, queue_cap: 4, retry_after_ms: 25 };
        WorkerPool::start(cfg, Executor::new(), Arc::new(ResultCache::in_memory(4)))
    }

    #[test]
    fn ring_records_monotone_ticks_and_bounds_retention() {
        let pool = pool();
        let ring = TelemetryRing::new(3);
        assert_eq!(ring.latest_tick(), 0);
        for want in 1..=5u64 {
            assert_eq!(ring.record(&pool, 0), want);
        }
        let (latest, samples) = ring.since(0);
        assert_eq!(latest, 5);
        let ticks: Vec<u64> = samples.iter().map(|s| s.u64_field("tick").unwrap()).collect();
        assert_eq!(ticks, vec![3, 4, 5], "capacity 3 keeps the newest three");
        let (_, newer) = ring.since(4);
        assert_eq!(newer.len(), 1);
        pool.shutdown();
    }

    #[test]
    fn samples_carry_pool_and_cache_facts() {
        let pool = pool();
        let ring = TelemetryRing::new(8);
        let sample = ring.sample_now(&pool, 2);
        assert_eq!(sample.str_field("schema"), Some(TELEMETRY_SCHEMA));
        assert_eq!(sample.u64_field("workers"), Some(1));
        assert_eq!(sample.u64_field("queue_depth"), Some(0));
        assert_eq!(sample.u64_field("malformed_frames"), Some(2));
        let cache = sample.get("cache").expect("cache object");
        assert!(cache.u64_field("hits").is_some());
        assert!(cache.f64_field("hit_rate").is_some());
        assert!(sample.get("stages").is_some());
        // The sample must survive a wire round-trip unchanged.
        let rendered = sample.render();
        assert_eq!(Json::parse(&rendered).expect("reparse").render(), rendered);
        pool.shutdown();
    }

    #[test]
    fn samples_carry_alloc_counters_only_when_profiling() {
        let pool = pool();
        let ring = TelemetryRing::new(8);
        let was_profiling = vab_obs::alloc::profiling();
        vab_obs::alloc::disable();
        let plain = ring.sample_now(&pool, 0);
        assert!(plain.get("alloc").is_none(), "no alloc section when profiling is off");
        vab_obs::alloc::enable();
        let profiled = ring.sample_now(&pool, 0);
        if !was_profiling {
            vab_obs::alloc::disable();
        }
        let alloc = profiled.get("alloc").expect("alloc object under profiling");
        assert!(alloc.u64_field("allocs").expect("allocs") > 0);
        assert!(alloc.u64_field("live_bytes").is_some());
        assert!(alloc.u64_field("peak_live_bytes").is_some());
        pool.shutdown();
    }
}
