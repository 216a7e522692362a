//! # vab-obs — observability for the VAB stack
//!
//! Structured event tracing, a metrics registry, and profiling hooks in one
//! crate whose only dependency is `vab-util` (FNV-1a for span ids, the JSON
//! codec for `metrics.json`). It sits just above `vab-util` at the bottom
//! of the workspace, so every layer (DSP, link, MAC, energy, simulation,
//! bench harness) can emit without new edges in the dependency graph.
//!
//! ## Design constraints
//!
//! The simulation's contract is bit-reproducibility: the same seed must
//! produce the same BER/PER regardless of thread count or whether anyone is
//! watching. Observability therefore
//!
//! * never touches an RNG stream — events, counters and timers are pure
//!   side channels;
//! * costs one relaxed atomic load per call site when disabled (the
//!   [`event!`] macro does not even evaluate its field expressions);
//! * is thread-safe without serializing the Monte Carlo workers: the JSONL
//!   sink buffers per shard (threads hash onto independent buffers) and
//!   metrics are plain atomics, so the 1-vs-8-thread determinism tests are
//!   untouched.
//!
//! ## The three layers
//!
//! 1. **Tracing** ([`event!`], [`Span`], [`sink`]): typed key=value events
//!    routed to a pluggable sink — null, stderr pretty-printer, or a JSONL
//!    file writer. [`span`] layers distributed-tracing identity on top:
//!    content-derived `trace_id`/`span_id`/`parent_span_id` triples
//!    ([`TraceContext`]) and drop-guard scopes ([`SpanScope`]) whose
//!    durations feed the stage histograms.
//! 2. **Metrics** ([`metrics`]): named counters (saturating), gauges and
//!    fixed-bucket histograms, snapshotted at campaign end into
//!    `metrics.json` next to the CSVs; [`metrics::Snapshot`] writes and
//!    reads that file.
//! 3. **Profiling** ([`time_stage`]): scoped wall-clock timers around the
//!    hot paths (channel realization, sample-level DSP, FEC, demod),
//!    aggregated into per-stage latency histograms.
//!
//! ## Switching it on
//!
//! ```text
//! VAB_OBS=off      # default: zero-overhead, bit-identical output
//! VAB_OBS=stderr   # human-readable event stream on stderr
//! VAB_OBS=jsonl    # results/trace.jsonl (override with VAB_OBS_PATH)
//! ```
//!
//! [`init_from_env`] reads the switch; library code only ever calls
//! [`enabled`] / [`emit`] / [`time_stage`] and works under any mode.

pub mod alloc;
pub mod event;
pub mod metrics;
pub mod sink;
pub mod span;
pub mod timer;

pub use alloc::CountingAlloc;
pub use event::{Event, Value};
pub use sink::{JsonlSink, NullSink, Sink, StderrSink};
pub use span::{span_begin, span_end, SpanScope, TraceContext};
pub use timer::{time_stage, Span, StageTimer};

/// The counting allocator wraps [`std::alloc::System`] for every binary
/// in the workspace. Costs one relaxed atomic load per allocator call
/// while profiling is off; see [`alloc`] for the accounting it performs
/// when `VAB_PROFILE=1`.
#[global_allocator]
static GLOBAL_ALLOC: CountingAlloc = CountingAlloc;

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock, RwLock};
use std::time::Instant;

/// Fast-path switch: one relaxed load decides whether any observability
/// work happens at all.
static ENABLED: AtomicBool = AtomicBool::new(false);

/// Monotone event sequence number (global, so interleaved shard buffers
/// can be re-ordered offline).
static SEQ: AtomicU64 = AtomicU64::new(0);

/// The installed sink. `None` ⇔ disabled.
static SINK: RwLock<Option<Arc<dyn Sink>>> = RwLock::new(None);

/// Process epoch for event timestamps (first use wins).
fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// True when a sink is installed and events/timers should be recorded.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Installs `sink` as the global event destination and enables tracing,
/// metrics snapshots and stage timers. Replaces (and flushes) any
/// previously installed sink.
pub fn install(sink: Arc<dyn Sink>) {
    let previous = {
        let mut guard = SINK.write().expect("obs sink lock");
        guard.replace(sink)
    };
    if let Some(prev) = previous {
        prev.flush();
    }
    let _ = epoch(); // pin the timestamp origin before the first event
    ENABLED.store(true, Ordering::Release);
}

/// Disables observability and drops the sink (flushing it first).
pub fn disable() {
    ENABLED.store(false, Ordering::Release);
    let previous = {
        let mut guard = SINK.write().expect("obs sink lock");
        guard.take()
    };
    if let Some(prev) = previous {
        prev.flush();
    }
}

/// Flushes the installed sink's buffers (shard buffers → file for JSONL).
pub fn flush() {
    let guard = SINK.read().expect("obs sink lock");
    if let Some(sink) = guard.as_ref() {
        sink.flush();
    }
}

/// Records one structured event. Prefer the [`event!`] macro, which skips
/// field evaluation entirely when disabled.
pub fn emit(target: &'static str, name: &'static str, fields: &[(&'static str, Value)]) {
    if !enabled() {
        return;
    }
    // Observability's own allocations (event rendering, sink buffers)
    // must never show up in allocation profiles — they would break the
    // deterministic per-stage counts the alloc baseline pins.
    let _p = alloc::pause();
    let e = Event {
        seq: SEQ.fetch_add(1, Ordering::Relaxed),
        t_us: epoch().elapsed().as_micros() as u64,
        target,
        name,
        fields,
    };
    let guard = SINK.read().expect("obs sink lock");
    if let Some(sink) = guard.as_ref() {
        sink.record(&e);
    }
}

/// How [`init_from_env`] resolved the `VAB_OBS` switch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ObsMode {
    /// Observability off (default).
    Off,
    /// Events pretty-printed to stderr.
    Stderr,
    /// Events appended to this JSONL file.
    Jsonl(std::path::PathBuf),
}

impl ObsMode {
    /// Short label for preamble lines.
    pub fn label(&self) -> &'static str {
        match self {
            ObsMode::Off => "off",
            ObsMode::Stderr => "stderr",
            ObsMode::Jsonl(_) => "jsonl",
        }
    }
}

/// Reads `VAB_OBS` (`off`|`stderr`|`jsonl`) and installs the matching
/// sink. `jsonl` writes to `VAB_OBS_PATH` when set, else
/// `results/trace.jsonl` (parent directories are created). Unknown values
/// warn on stderr and resolve to [`ObsMode::Off`].
pub fn init_from_env() -> std::io::Result<ObsMode> {
    match std::env::var("VAB_OBS").ok().as_deref() {
        None | Some("") | Some("off") | Some("0") => {
            disable();
            Ok(ObsMode::Off)
        }
        Some("stderr") => {
            install(Arc::new(StderrSink::new()));
            Ok(ObsMode::Stderr)
        }
        Some("jsonl") => {
            let path = std::env::var("VAB_OBS_PATH")
                .map(std::path::PathBuf::from)
                .unwrap_or_else(|_| std::path::PathBuf::from("results/trace.jsonl"));
            if let Some(parent) = path.parent() {
                if !parent.as_os_str().is_empty() {
                    std::fs::create_dir_all(parent)?;
                }
            }
            install(Arc::new(JsonlSink::create(&path)?));
            Ok(ObsMode::Jsonl(path))
        }
        Some(other) => {
            eprintln!(
                "vab-obs: unknown VAB_OBS={other:?} (expected off|stderr|jsonl); staying off"
            );
            disable();
            Ok(ObsMode::Off)
        }
    }
}

/// Emits a structured event with typed key=value fields — free when
/// observability is disabled (fields are not evaluated).
///
/// ```
/// vab_obs::event!("link.arq", "retransmit", seq = 1u64, retries = 3u64);
/// ```
#[macro_export]
macro_rules! event {
    ($target:expr, $name:expr $(, $k:ident = $v:expr)* $(,)?) => {
        if $crate::enabled() {
            // Field evaluation may allocate (owned strings); keep it out
            // of allocation profiles along with the emit itself.
            let _obs_pause = $crate::alloc::pause();
            $crate::emit($target, $name, &[$((stringify!($k), $crate::Value::from($v))),*]);
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    /// Unit tests share the global sink; serialize them.
    pub(crate) fn test_guard() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// A sink that appends rendered JSON lines to a shared buffer.
    #[derive(Default)]
    pub(crate) struct CaptureSink {
        pub lines: Mutex<Vec<String>>,
    }

    impl Sink for CaptureSink {
        fn record(&self, e: &Event<'_>) {
            let mut line = String::new();
            e.write_json_line(&mut line);
            self.lines.lock().expect("capture lock").push(line);
        }
    }

    #[test]
    fn disabled_by_default_and_emit_is_a_noop() {
        let _g = test_guard();
        disable();
        assert!(!enabled());
        emit("t", "n", &[]); // must not panic with no sink
    }

    #[test]
    fn install_routes_events_and_disable_stops_them() {
        let _g = test_guard();
        let cap = Arc::new(CaptureSink::default());
        install(cap.clone());
        assert!(enabled());
        event!("sim.test", "hello", x = 7u64, ok = true);
        disable();
        event!("sim.test", "after_disable", x = 1u64);
        let lines = cap.lines.lock().expect("lock");
        assert_eq!(lines.len(), 1, "only the pre-disable event lands");
        assert!(lines[0].contains("\"target\":\"sim.test\""));
        assert!(lines[0].contains("\"event\":\"hello\""));
        assert!(lines[0].contains("\"x\":7"));
        assert!(lines[0].contains("\"ok\":true"));
    }

    #[test]
    fn macro_skips_field_evaluation_when_disabled() {
        let _g = test_guard();
        disable();
        let mut evaluated = false;
        event!(
            "t",
            "n",
            v = {
                evaluated = true;
                1u64
            }
        );
        assert!(!evaluated, "disabled event! must not evaluate fields");
    }

    #[test]
    fn sequence_numbers_increase() {
        let _g = test_guard();
        let cap = Arc::new(CaptureSink::default());
        install(cap.clone());
        event!("t", "a");
        event!("t", "b");
        disable();
        let lines = cap.lines.lock().expect("lock");
        let seq = |s: &str| -> u64 {
            let tail = s.split("\"seq\":").nth(1).expect("seq field");
            tail.split(',').next().expect("value").parse().expect("number")
        };
        assert!(seq(&lines[1]) > seq(&lines[0]));
    }

    #[test]
    fn init_from_env_defaults_off() {
        let _g = test_guard();
        // The test harness does not set VAB_OBS.
        let mode = init_from_env().expect("init");
        assert_eq!(mode, ObsMode::Off);
        assert_eq!(mode.label(), "off");
        assert!(!enabled());
    }
}
