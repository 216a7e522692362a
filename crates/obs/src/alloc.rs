//! Deterministic allocation profiling: a counting [`GlobalAlloc`] wrapper
//! plus per-stage attribution.
//!
//! ## Why counts, not samples
//!
//! Sampling profilers answer "where does the *time* go" and their output
//! moves with machine load, clock resolution and worker count. The hot-path
//! work this stack optimizes (ROADMAP item 5) needs the other question:
//! *which stage allocates, how much, how often* — and those numbers are
//! **work-derived**, not time-derived. A fixed seed performs the same
//! allocations in the same stages no matter how many worker threads the
//! trials are sharded across, so per-stage counters are bit-identical at
//! `--jobs 1` and `--jobs 8` and can be pinned *exactly* in a committed
//! reference (`crates/bench/gate.json`). Any drift is a real
//! behavior change, never noise.
//!
//! ## The three pieces
//!
//! 1. [`CountingAlloc`] — a `#[global_allocator]` wrapper around
//!    [`System`] installed by this crate. When profiling is off (the
//!    default) every allocator call costs one relaxed atomic load and
//!    forwards straight through, mirroring the sink/span disabled-path
//!    discipline. When on, it maintains global relaxed-atomic totals
//!    (allocations, frees, bytes each way, live bytes and their
//!    high-water mark — a peak-RSS proxy) plus thread-local counters the
//!    stage stack snapshots.
//! 2. **The stage stack** — [`stage_enter`] / [`stage_exit`], driven by
//!    [`crate::time_stage`] and [`crate::SpanScope`], maintain a
//!    thread-local stack of open stages. On exit the thread-local counter
//!    delta splits into *self* (this stage minus its children) and
//!    *cumulative* (everything below the stage), folded into a global
//!    per-stage registry keyed by the same `&'static str` names the
//!    latency histograms use — every span name doubles as an allocation
//!    histogram.
//! 3. **Suppression** — [`pause`] returns a guard that stops counting on
//!    the current thread. All of `vab-obs`'s own work (event rendering,
//!    sink buffering, registry mutation, snapshotting) runs under a pause
//!    guard so the profile reflects *workload* allocations only; that
//!    exclusion is what makes the counts deterministic even with a JSONL
//!    sink attached, whose shard buffers grow with thread-dependent
//!    timing.
//!
//! ## Switching it on
//!
//! ```text
//! VAB_PROFILE=0|off   # default: one relaxed load per malloc, nothing recorded
//! VAB_PROFILE=1|on    # count + attribute allocations
//! ```
//!
//! [`init_from_env`] reads the switch; [`enable`] / [`disable`] drive it
//! programmatically (tests).

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// Master switch: one relaxed load on every allocator call decides
/// whether any accounting happens.
static PROFILING: AtomicBool = AtomicBool::new(false);

// Global process-wide totals (updated on every counted allocator call).
static ALLOCS: AtomicU64 = AtomicU64::new(0);
static FREES: AtomicU64 = AtomicU64::new(0);
static BYTES_ALLOCATED: AtomicU64 = AtomicU64::new(0);
static BYTES_FREED: AtomicU64 = AtomicU64::new(0);
/// Live bytes (allocated − freed since profiling started). Updated with
/// wrapping arithmetic: a free of a block allocated before profiling
/// started may transiently push it "negative" (a huge u64); readers clamp.
static LIVE_BYTES: AtomicU64 = AtomicU64::new(0);
/// High-water mark of [`LIVE_BYTES`] — the peak-RSS proxy.
static PEAK_LIVE_BYTES: AtomicU64 = AtomicU64::new(0);

thread_local! {
    /// Per-thread counters the stage stack snapshots. Const-initialized
    /// `Cell`s with no destructor: safe to touch from inside the
    /// allocator at any point in a thread's life.
    static TLS_ALLOCS: Cell<u64> = const { Cell::new(0) };
    static TLS_BYTES: Cell<u64> = const { Cell::new(0) };
    /// Re-entrancy / suppression depth: counting is skipped while > 0.
    static TLS_PAUSED: Cell<u32> = const { Cell::new(0) };
}

thread_local! {
    /// The open-stage stack for this thread (LIFO, one frame per live
    /// stage timer / span scope).
    static STAGE_STACK: RefCell<Vec<Frame>> = const { RefCell::new(Vec::new()) };
}

/// One open stage on a thread's stack.
struct Frame {
    name: &'static str,
    start_allocs: u64,
    start_bytes: u64,
    /// Cumulative counts already attributed to closed children, so the
    /// parent can compute its *self* share on exit.
    child_allocs: u64,
    child_bytes: u64,
}

/// True when allocation profiling is recording.
#[inline]
pub fn profiling() -> bool {
    PROFILING.load(Ordering::Relaxed)
}

/// Turns allocation accounting on, and makes the compute pool run every
/// task in `fresh_thread_context`.
pub fn enable() {
    vab_util::threads::set_task_context(fresh_thread_context);
    PROFILING.store(true, Ordering::Release);
}

/// Turns allocation accounting off. Registered totals and per-stage
/// counts are retained (snapshot after disabling is race-free).
pub fn disable() {
    PROFILING.store(false, Ordering::Release);
}

/// Reads `VAB_PROFILE` (`0|off` / `1|on|alloc`) and enables or disables
/// accordingly. Returns whether profiling ended up on. Unknown values
/// warn on stderr and resolve to off.
pub fn init_from_env() -> bool {
    match std::env::var("VAB_PROFILE").ok().as_deref() {
        None | Some("") | Some("0") | Some("off") => {
            disable();
            false
        }
        Some("1") | Some("on") | Some("alloc") => {
            enable();
            true
        }
        Some(other) => {
            eprintln!("vab-obs: unknown VAB_PROFILE={other:?} (expected 0|1); staying off");
            disable();
            false
        }
    }
}

/// RAII guard suppressing allocation accounting on this thread. Used
/// around all of `vab-obs`'s own allocations (event rendering, sink
/// buffers, registry mutation) so profiles count workload work only.
#[must_use = "counting resumes when the guard drops"]
pub struct PauseGuard {
    _not_send: std::marker::PhantomData<*const ()>,
}

/// Suspends counting on the current thread until the guard drops.
pub fn pause() -> PauseGuard {
    TLS_PAUSED.with(|p| p.set(p.get() + 1));
    PauseGuard { _not_send: std::marker::PhantomData }
}

impl Drop for PauseGuard {
    fn drop(&mut self) {
        TLS_PAUSED.with(|p| p.set(p.get().saturating_sub(1)));
    }
}

/// Runs `f` in the attribution context a freshly spawned thread starts
/// with: an empty stage stack and counting resumed. Afterwards this
/// thread's stack, pause depth and counters are restored, so none of
/// `f`'s allocations show in the stages open here; stages `f` itself
/// opens record as they would on any thread. This is the compute pool's
/// task context (`vab_util::threads::set_task_context`): a task run by a
/// waiting caller profiles exactly as one run by a helper thread, and the
/// pool's own bookkeeping stays out of the caller's stages.
fn fresh_thread_context(f: &mut dyn FnMut()) {
    struct Saved {
        stack: Vec<Frame>,
        allocs: u64,
        bytes: u64,
        paused: u32,
    }
    impl Drop for Saved {
        fn drop(&mut self) {
            // Paused while the task's (empty) stack buffer is freed.
            TLS_PAUSED.set(self.paused + 1);
            let own = std::mem::take(&mut self.stack);
            drop(STAGE_STACK.with(|s| std::mem::replace(&mut *s.borrow_mut(), own)));
            TLS_ALLOCS.set(self.allocs);
            TLS_BYTES.set(self.bytes);
            TLS_PAUSED.set(self.paused);
        }
    }
    let _saved = Saved {
        stack: STAGE_STACK.with(|s| std::mem::take(&mut *s.borrow_mut())),
        allocs: TLS_ALLOCS.get(),
        bytes: TLS_BYTES.get(),
        paused: TLS_PAUSED.replace(0),
    };
    f();
}

/// The counting allocator. Installed as the crate's
/// `#[global_allocator]`; every binary in the workspace that links
/// `vab-obs` gets allocation accounting for free (and pays one relaxed
/// load per call while it is off).
pub struct CountingAlloc;

impl CountingAlloc {
    #[inline]
    fn count_alloc(size: usize) {
        let size = size as u64;
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        BYTES_ALLOCATED.fetch_add(size, Ordering::Relaxed);
        let live = LIVE_BYTES.fetch_add(size, Ordering::Relaxed).wrapping_add(size);
        // High-water update: fetch_max keeps this wait-free. `live` reads
        // as a huge number while transiently "negative"; mask those out.
        if (live as i64) > 0 {
            PEAK_LIVE_BYTES.fetch_max(live, Ordering::Relaxed);
        }
        TLS_ALLOCS.with(|c| c.set(c.get() + 1));
        TLS_BYTES.with(|c| c.set(c.get() + size));
    }

    #[inline]
    fn count_free(size: usize) {
        FREES.fetch_add(1, Ordering::Relaxed);
        BYTES_FREED.fetch_add(size as u64, Ordering::Relaxed);
        LIVE_BYTES.fetch_sub(size as u64, Ordering::Relaxed);
    }

    #[inline]
    fn counting() -> bool {
        profiling() && TLS_PAUSED.with(|p| p.get()) == 0
    }
}

// SAFETY: pure pass-through to `System`; the accounting touches only
// atomics and const-initialized (destructor-free) thread-locals, so it
// never allocates, never re-enters, and is safe at any point in a
// thread's lifetime.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if Self::counting() {
            Self::count_alloc(layout.size());
        }
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        if Self::counting() {
            Self::count_alloc(layout.size());
        }
        System.alloc_zeroed(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        if Self::counting() {
            Self::count_free(layout.size());
        }
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if Self::counting() {
            // One alloc of the new size plus one free of the old: the
            // convention that keeps counts deterministic and live-byte
            // accounting exact regardless of in-place growth.
            Self::count_alloc(new_size);
            Self::count_free(layout.size());
        }
        System.realloc(ptr, layout, new_size)
    }
}

/// Opaque receipt for one [`stage_enter`]; redeemed by [`stage_exit`].
#[derive(Debug)]
pub struct StageToken {
    index: usize,
}

/// Pushes stage `name` onto this thread's attribution stack. Returns
/// `None` (and does nothing) when profiling is off — the caller stores
/// the `Option` and skips the exit, so a disabled site costs one load.
pub fn stage_enter(name: &'static str) -> Option<StageToken> {
    if !profiling() {
        return None;
    }
    let _p = pause(); // the stack Vec may grow; don't count our own push
    STAGE_STACK.with(|s| {
        let mut stack = s.borrow_mut();
        let index = stack.len();
        stack.push(Frame {
            name,
            start_allocs: TLS_ALLOCS.with(|c| c.get()),
            start_bytes: TLS_BYTES.with(|c| c.get()),
            child_allocs: 0,
            child_bytes: 0,
        });
        Some(StageToken { index })
    })
}

/// What one closed stage observed, in allocator events.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AllocDelta {
    /// Allocations inside the stage, children included.
    pub allocs: u64,
    /// Bytes requested inside the stage, children included.
    pub bytes: u64,
    /// Allocations attributed to this stage alone (children excluded).
    pub self_allocs: u64,
    /// Bytes attributed to this stage alone (children excluded).
    pub self_bytes: u64,
}

/// Pops the stage opened by `token`, folds its counts into the global
/// per-stage registry, credits the parent frame's child accumulator, and
/// returns the delta (for `span_end` events). Stages still open above
/// the token — possible only if guards were dropped out of LIFO order —
/// are force-closed first so the stack stays consistent.
pub fn stage_exit(token: StageToken) -> AllocDelta {
    let _p = pause();
    STAGE_STACK.with(|s| {
        let mut stack = s.borrow_mut();
        let mut own = AllocDelta::default();
        while stack.len() > token.index {
            let frame = stack.pop().expect("stack length checked");
            let allocs = TLS_ALLOCS.with(|c| c.get()) - frame.start_allocs;
            let bytes = TLS_BYTES.with(|c| c.get()) - frame.start_bytes;
            let delta = AllocDelta {
                allocs,
                bytes,
                self_allocs: allocs.saturating_sub(frame.child_allocs),
                self_bytes: bytes.saturating_sub(frame.child_bytes),
            };
            record_stage(frame.name, &delta);
            if let Some(parent) = stack.last_mut() {
                parent.child_allocs += allocs;
                parent.child_bytes += bytes;
            }
            if stack.len() == token.index {
                own = delta;
            }
        }
        own
    })
}

/// Per-stage accumulated allocation counters (global, all threads).
#[derive(Debug, Default)]
struct StageCounters {
    calls: AtomicU64,
    self_allocs: AtomicU64,
    self_bytes: AtomicU64,
    cum_allocs: AtomicU64,
    cum_bytes: AtomicU64,
}

fn registry() -> &'static Mutex<BTreeMap<&'static str, Arc<StageCounters>>> {
    static REGISTRY: OnceLock<Mutex<BTreeMap<&'static str, Arc<StageCounters>>>> = OnceLock::new();
    REGISTRY.get_or_init(|| Mutex::new(BTreeMap::new()))
}

fn record_stage(name: &'static str, delta: &AllocDelta) {
    let counters = {
        let mut reg = registry().lock().unwrap_or_else(|e| e.into_inner());
        reg.entry(name).or_default().clone()
    };
    counters.calls.fetch_add(1, Ordering::Relaxed);
    counters.self_allocs.fetch_add(delta.self_allocs, Ordering::Relaxed);
    counters.self_bytes.fetch_add(delta.self_bytes, Ordering::Relaxed);
    counters.cum_allocs.fetch_add(delta.allocs, Ordering::Relaxed);
    counters.cum_bytes.fetch_add(delta.bytes, Ordering::Relaxed);
}

/// Frozen process-wide allocator totals.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AllocTotals {
    /// Allocation calls counted.
    pub allocs: u64,
    /// Deallocation calls counted.
    pub frees: u64,
    /// Bytes requested across all counted allocations.
    pub bytes_allocated: u64,
    /// Bytes released across all counted frees.
    pub bytes_freed: u64,
    /// Live bytes right now (clamped at zero).
    pub live_bytes: u64,
    /// High-water mark of live bytes — the peak-RSS proxy.
    pub peak_live_bytes: u64,
}

/// Snapshots the global totals.
pub fn totals() -> AllocTotals {
    let live = LIVE_BYTES.load(Ordering::Relaxed);
    AllocTotals {
        allocs: ALLOCS.load(Ordering::Relaxed),
        frees: FREES.load(Ordering::Relaxed),
        bytes_allocated: BYTES_ALLOCATED.load(Ordering::Relaxed),
        bytes_freed: BYTES_FREED.load(Ordering::Relaxed),
        live_bytes: if (live as i64) < 0 { 0 } else { live },
        peak_live_bytes: PEAK_LIVE_BYTES.load(Ordering::Relaxed),
    }
}

/// Frozen per-stage allocation counters.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct AllocStageSnapshot {
    /// Stage name (shared with the latency histogram).
    pub name: String,
    /// Stage invocations recorded.
    pub calls: u64,
    /// Allocations attributed to the stage alone.
    pub self_allocs: u64,
    /// Bytes attributed to the stage alone.
    pub self_bytes: u64,
    /// Allocations inside the stage, children included.
    pub cum_allocs: u64,
    /// Bytes inside the stage, children included.
    pub cum_bytes: u64,
}

/// Snapshots every stage's accumulated counters (name-sorted).
pub fn snapshot_stages() -> Vec<AllocStageSnapshot> {
    let _p = pause();
    let reg = registry().lock().unwrap_or_else(|e| e.into_inner());
    reg.iter()
        .map(|(name, c)| AllocStageSnapshot {
            name: (*name).to_string(),
            calls: c.calls.load(Ordering::Relaxed),
            self_allocs: c.self_allocs.load(Ordering::Relaxed),
            self_bytes: c.self_bytes.load(Ordering::Relaxed),
            cum_allocs: c.cum_allocs.load(Ordering::Relaxed),
            cum_bytes: c.cum_bytes.load(Ordering::Relaxed),
        })
        .collect()
}

/// Clears the per-stage registry and global totals. Test hook — profiles
/// taken after a reset only see work since.
pub fn reset() {
    let _p = pause();
    registry().lock().unwrap_or_else(|e| e.into_inner()).clear();
    for c in [&ALLOCS, &FREES, &BYTES_ALLOCATED, &BYTES_FREED, &LIVE_BYTES, &PEAK_LIVE_BYTES] {
        c.store(0, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tests::test_guard;

    #[test]
    fn disabled_profiling_counts_nothing() {
        let _g = test_guard();
        disable();
        reset();
        let _v: Vec<u64> = (0..64).collect();
        assert_eq!(totals(), AllocTotals::default());
        assert!(snapshot_stages().is_empty());
        assert!(stage_enter("alloc.off_probe").is_none());
    }

    #[test]
    fn enabled_profiling_counts_and_attributes() {
        let _g = test_guard();
        reset();
        enable();
        let tok = stage_enter("alloc.test_outer").expect("profiling on");
        let outer: Vec<u8> = Vec::with_capacity(1024);
        let inner_delta = {
            let tok = stage_enter("alloc.test_inner").expect("profiling on");
            let _inner: Vec<u8> = Vec::with_capacity(512);
            stage_exit(tok)
        };
        let outer_delta = stage_exit(tok);
        disable();
        drop(outer);
        assert!(inner_delta.allocs >= 1 && inner_delta.bytes >= 512, "{inner_delta:?}");
        assert_eq!(inner_delta.allocs, inner_delta.self_allocs, "leaf stage: self == cum");
        assert!(outer_delta.allocs > inner_delta.allocs, "{outer_delta:?}");
        assert_eq!(
            outer_delta.self_allocs,
            outer_delta.allocs - inner_delta.allocs,
            "parent self excludes the child"
        );
        let stages = snapshot_stages();
        let outer_snap = stages.iter().find(|s| s.name == "alloc.test_outer").expect("outer");
        let inner_snap = stages.iter().find(|s| s.name == "alloc.test_inner").expect("inner");
        assert_eq!(outer_snap.calls, 1);
        assert_eq!(inner_snap.cum_allocs, inner_delta.allocs);
        assert_eq!(outer_snap.cum_allocs, outer_delta.allocs);
        assert_eq!(outer_snap.self_bytes, outer_delta.self_bytes);
        let t = totals();
        assert!(t.allocs >= outer_delta.allocs);
        assert!(t.peak_live_bytes >= 1024);
        reset();
    }

    #[test]
    fn pause_guard_suppresses_counting() {
        let _g = test_guard();
        reset();
        enable();
        let tok = stage_enter("alloc.test_paused").expect("profiling on");
        {
            let _p = pause();
            let _v: Vec<u8> = Vec::with_capacity(4096);
        }
        let delta = stage_exit(tok);
        disable();
        assert_eq!(delta.allocs, 0, "paused allocations must not attribute: {delta:?}");
        reset();
    }

    #[test]
    fn stage_counts_are_identical_across_thread_counts() {
        let _g = test_guard();
        // The determinism contract in miniature: the same per-item work
        // split across 1 vs 4 threads yields identical per-stage counts.
        let run = |threads: usize| -> Vec<AllocStageSnapshot> {
            reset();
            enable();
            let items: Vec<usize> = (0..32).collect();
            std::thread::scope(|scope| {
                for chunk in items.chunks(items.len().div_ceil(threads)) {
                    scope.spawn(move || {
                        for &i in chunk {
                            let tok = stage_enter("alloc.det_stage").expect("on");
                            let v: Vec<u64> = (0..(i % 7) + 3).map(|x| x as u64).collect();
                            std::hint::black_box(&v);
                            drop(v);
                            stage_exit(tok);
                        }
                    });
                }
            });
            disable();
            snapshot_stages()
        };
        let one = run(1);
        let four = run(4);
        assert_eq!(one, four, "per-stage alloc counts must not depend on thread count");
        reset();
    }

    #[test]
    fn out_of_order_drop_force_closes_inner_frames() {
        let _g = test_guard();
        reset();
        enable();
        let outer = stage_enter("alloc.test_ooo_outer").expect("on");
        let _inner = stage_enter("alloc.test_ooo_inner").expect("on");
        // Exit the outer token first: the inner frame must close too.
        let _ = stage_exit(outer);
        disable();
        let stages = snapshot_stages();
        assert!(stages.iter().any(|s| s.name == "alloc.test_ooo_inner" && s.calls == 1));
        assert!(stages.iter().any(|s| s.name == "alloc.test_ooo_outer" && s.calls == 1));
        reset();
    }

    #[test]
    fn init_from_env_defaults_off() {
        let _g = test_guard();
        // The test harness does not set VAB_PROFILE.
        assert!(!init_from_env());
        assert!(!profiling());
    }
}
