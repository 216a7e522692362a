//! Worker-thread sizing and the one compute pool every parallel step runs on.
//!
//! ## Sizing
//!
//! The Monte Carlo shards, network inventory, the `vab-svc` worker pool and
//! the bench fleet all need the same answer to "how many workers should I
//! start?". One resolution order, applied everywhere:
//!
//! 1. a process-wide override installed with [`set_jobs`] (the `--jobs N`
//!    CLI flag),
//! 2. the `VAB_THREADS` environment variable,
//! 3. [`std::thread::available_parallelism`],
//! 4. a fallback of 4 when the platform cannot say.
//!
//! Thread count never affects simulation *results* — every shard derives
//! its RNG stream from the master seed — so this is purely a throughput
//! and oversubscription knob.
//!
//! ## The pool
//!
//! [`par_map`] is the only way compute work fans out. It hands `n`
//! indexed tasks to one process-wide pool, started lazily, whose
//! [`threads`]` − 1` helper threads persist between calls; the calling
//! thread is the last worker. Rules that keep it exact and deadlock-free:
//!
//! * **Results come back in index order**, whichever thread ran a task,
//!   so a caller that merges them in order computes what a serial loop
//!   would.
//! * **The caller helps.** It claims its own batch's tasks while it
//!   waits, so a batch always finishes even with no helper free, and a
//!   `par_map` nested inside a task cannot deadlock: a waiting thread
//!   only ever runs tasks of the batch it waits on, whose own nested
//!   batches it can again finish alone.
//! * **One worker runs inline.** At [`threads`]` == 1`, or for a single
//!   task, no helper is involved.
//! * **FIFO, no timers.** Batches queue in arrival order and helpers
//!   claim tasks from the oldest one; threads block on one condition
//!   variable and nothing sleeps, spins or times out.
//! * **Panics come back.** A panicking task is caught and returned to the
//!   caller as that index's `Err`; the pool keeps serving.
//! * **Tasks start clean.** A task must see the thread-local context a
//!   freshly spawned thread would (allocation-profile stage stack,
//!   counters). Helpers are fresh threads; on the calling thread the
//!   whole call runs inside the wrapper installed with
//!   [`set_task_context`] (`vab-obs` installs one when allocation
//!   profiling turns on), which also keeps the pool's own bookkeeping out
//!   of the caller's open profile stages.

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard, OnceLock};

/// Process-wide `--jobs` override; 0 means "not set".
static JOBS_OVERRIDE: AtomicUsize = AtomicUsize::new(0);

/// Installs (or, with `0`, clears) the process-wide worker-count override.
/// Takes precedence over `VAB_THREADS` and the detected parallelism.
pub fn set_jobs(n: usize) {
    JOBS_OVERRIDE.store(n, Ordering::Relaxed);
}

/// Resolves the worker-thread count: [`set_jobs`] override, then a
/// positive integer in `VAB_THREADS`, then the available parallelism,
/// then 4. Invalid or zero `VAB_THREADS` values are ignored.
pub fn threads() -> usize {
    let forced = JOBS_OVERRIDE.load(Ordering::Relaxed);
    if forced > 0 {
        return forced;
    }
    if let Ok(raw) = std::env::var("VAB_THREADS") {
        if let Ok(n) = raw.trim().parse::<usize>() {
            if n > 0 {
                return n;
            }
        }
    }
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(4)
}

/// Wrapper that runs a closure in a fresh-thread context; see
/// [`set_task_context`].
pub type TaskContext = fn(&mut dyn FnMut());

static TASK_CONTEXT: OnceLock<TaskContext> = OnceLock::new();

/// Installs the wrapper every [`par_map`] call runs inside on its calling
/// thread. It must run its argument exactly once, as a freshly spawned
/// thread would see it, and leave the thread's own context as it found
/// it. The first installation wins; later ones are ignored.
pub fn set_task_context(wrap: TaskContext) {
    let _ = TASK_CONTEXT.set(wrap);
}

/// Runs `f(0)`, …, `f(n − 1)` on the compute pool and returns their
/// outcomes in index order; a task that panicked yields its payload as
/// `Err`. See the [module docs](self) for the pool's rules.
pub fn par_map<T, F>(n: usize, f: F) -> Vec<std::thread::Result<T>>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let mut out = None;
    let mut body = || out = Some(par_map_here(n, &f));
    match TASK_CONTEXT.get() {
        Some(wrap) => wrap(&mut body),
        None => body(),
    }
    out.expect("the task context runs its closure")
}

fn par_map_here<T: Send>(n: usize, f: &(dyn Fn(usize) -> T + Sync)) -> Vec<std::thread::Result<T>> {
    let run = |i| catch_unwind(AssertUnwindSafe(|| f(i)));
    let width = threads();
    if width <= 1 || n <= 1 {
        return (0..n).map(run).collect();
    }
    let batch = Batch {
        f,
        n,
        next: AtomicUsize::new(0),
        pending: AtomicUsize::new(n),
        slots: (0..n).map(|_| Mutex::new(None)).collect(),
    };
    let pool = Pool::get();
    // SAFETY: the batch is removed from the queue below, under the lock,
    // before this frame returns, and helpers claim tasks only under that
    // lock while the batch is queued; every claimed task is counted in
    // `pending`, which is waited to zero, so no helper touches the batch
    // after this function returns.
    let job = JobRef(unsafe { erase(&batch) });
    pool.submit(job, width - 1);
    while let Some(i) = batch.claim() {
        batch.run(i);
    }
    pool.finish(job, &batch.pending);
    batch
        .slots
        .into_iter()
        .map(|slot| lock(&slot).take().expect("every task of a finished batch stored its outcome"))
        .collect()
}

/// One `par_map` call's tasks, living on its caller's stack.
struct Batch<'f, T> {
    f: &'f (dyn Fn(usize) -> T + Sync),
    n: usize,
    /// Next unclaimed task index; claims past `n` fail.
    next: AtomicUsize,
    /// Tasks not yet finished.
    pending: AtomicUsize,
    slots: Vec<Mutex<Option<std::thread::Result<T>>>>,
}

/// A batch as the pool's threads see it.
trait Job: Sync {
    /// Claims the next task; `None` once every task is claimed.
    fn claim(&self) -> Option<usize>;
    /// Runs claimed task `i` and stores its outcome.
    fn run(&self, i: usize);
}

impl<T: Send> Job for Batch<'_, T> {
    fn claim(&self) -> Option<usize> {
        let i = self.next.fetch_add(1, Ordering::Relaxed);
        (i < self.n).then_some(i)
    }

    fn run(&self, i: usize) {
        let out = catch_unwind(AssertUnwindSafe(|| (self.f)(i)));
        *lock(&self.slots[i]) = Some(out);
        // Last touch of the batch: once `pending` reads zero its caller
        // may return and free it.
        if self.pending.fetch_sub(1, Ordering::AcqRel) == 1 {
            Pool::get().wake_all();
        }
    }
}

/// A lifetime-erased pointer to a queued batch.
#[derive(Clone, Copy)]
struct JobRef(*const (dyn Job + 'static));

// SAFETY: `Job: Sync`, and the pointer is only dereferenced while its
// batch is alive (see `par_map_here`).
unsafe impl Send for JobRef {}

/// Erases the borrow's lifetime so the batch can sit in the global queue.
///
/// # Safety
///
/// The caller must keep `job` alive until no pool thread can reach it.
unsafe fn erase<'a>(job: &'a (dyn Job + 'a)) -> *const (dyn Job + 'static) {
    // SAFETY: same pointer and vtable, only the lifetime bound changes.
    unsafe { std::mem::transmute::<*const (dyn Job + 'a), *const (dyn Job + 'static)>(job) }
}

struct Pool {
    state: Mutex<State>,
    /// Signals a queued batch (to helpers) and a finished one (to callers).
    wake: Condvar,
}

struct State {
    /// Batches with possibly unclaimed tasks, oldest first.
    queue: VecDeque<JobRef>,
    /// Helper threads started so far; they are never stopped.
    spawned: usize,
    /// Helpers that may claim tasks: `threads() − 1` as of the latest call.
    active: usize,
}

impl Pool {
    fn get() -> &'static Pool {
        static POOL: OnceLock<Pool> = OnceLock::new();
        POOL.get_or_init(|| Pool {
            state: Mutex::new(State { queue: VecDeque::new(), spawned: 0, active: 0 }),
            wake: Condvar::new(),
        })
    }

    /// Queues `job` and makes sure `helpers` helper threads exist and may
    /// claim tasks.
    fn submit(&'static self, job: JobRef, helpers: usize) {
        let mut st = lock(&self.state);
        st.queue.push_back(job);
        st.active = helpers;
        while st.spawned < helpers {
            let index = st.spawned;
            let spawned = std::thread::Builder::new()
                .name(format!("vab-pool-{index}"))
                .spawn(move || self.helper(index));
            if spawned.is_err() {
                // Fewer helpers only means the callers do more of the work.
                break;
            }
            st.spawned += 1;
        }
        drop(st);
        self.wake.notify_all();
    }

    /// Unqueues `job`, whose tasks are all claimed, and waits until the
    /// claimed ones have finished.
    fn finish(&self, job: JobRef, pending: &AtomicUsize) {
        let mut st = lock(&self.state);
        st.queue.retain(|queued| !std::ptr::addr_eq(queued.0, job.0));
        while pending.load(Ordering::Acquire) > 0 {
            st = self.wake.wait(st).unwrap_or_else(|e| e.into_inner());
        }
    }

    fn wake_all(&self) {
        // Taking the lock orders this wake after a waiter's last check.
        drop(lock(&self.state));
        self.wake.notify_all();
    }

    /// Helper `index`'s loop: run tasks from the oldest batch while it is
    /// among the active helpers, block otherwise.
    fn helper(&self, index: usize) {
        let mut st = lock(&self.state);
        loop {
            let front = if index < st.active { st.queue.front().copied() } else { None };
            let Some(job) = front else {
                st = self.wake.wait(st).unwrap_or_else(|e| e.into_inner());
                continue;
            };
            // SAFETY: the batch is queued and the lock is held, so its
            // caller has not passed `finish`; a successful claim is counted
            // in `pending`, which keeps the caller waiting until `run`
            // returns.
            let job = unsafe { &*job.0 };
            match job.claim() {
                Some(i) => {
                    drop(st);
                    job.run(i);
                    st = lock(&self.state);
                }
                None => {
                    st.queue.pop_front();
                }
            }
        }
    }
}

/// Locks `m`, ignoring poisoning: no pool lock is held while a task runs.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `set_jobs` is process-wide: tests that set it take turns.
    fn jobs_lock() -> MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        lock(&LOCK)
    }

    #[test]
    fn override_wins_and_clears() {
        let _g = jobs_lock();
        // The test harness does not set VAB_THREADS, so after clearing the
        // override we must fall through to detected parallelism (>= 1).
        set_jobs(3);
        assert_eq!(threads(), 3);
        set_jobs(0);
        assert!(threads() >= 1);
    }

    #[test]
    fn results_come_back_in_index_order_at_every_width() {
        let _g = jobs_lock();
        for jobs in [1, 2, 8] {
            set_jobs(jobs);
            let out: Vec<usize> = par_map(100, |i| i * i).into_iter().map(Result::unwrap).collect();
            assert_eq!(out, (0..100).map(|i| i * i).collect::<Vec<_>>(), "{jobs} jobs");
            assert!(par_map(0, |i| i).is_empty());
        }
        set_jobs(0);
    }

    #[test]
    fn one_worker_runs_inline_on_the_caller() {
        let _g = jobs_lock();
        set_jobs(1);
        let me = std::thread::current().id();
        let ran_on: Vec<_> = par_map(4, |_| std::thread::current().id()).into_iter().collect();
        set_jobs(0);
        assert!(ran_on.into_iter().all(|id| id.unwrap() == me));
    }

    #[test]
    fn nested_par_map_with_one_helper_finishes() {
        let _g = jobs_lock();
        // Two workers: one helper plus the caller. Every outer task waits
        // on an inner batch, so the helper and the caller both end up
        // waiting inside tasks; each must finish its own batch alone.
        set_jobs(2);
        let sums: Vec<usize> = par_map(6, |i| {
            par_map(5, |j| par_map(3, |k| i * 100 + j * 10 + k).into_iter().map(Result::unwrap))
                .into_iter()
                .flat_map(Result::unwrap)
                .sum()
        })
        .into_iter()
        .map(Result::unwrap)
        .collect();
        set_jobs(0);
        let expected: Vec<usize> = (0..6)
            .map(|i| (0..5).flat_map(|j| (0..3).map(move |k| i * 100 + j * 10 + k)).sum())
            .collect();
        assert_eq!(sums, expected);
    }

    #[test]
    fn a_panicking_task_comes_back_and_the_pool_keeps_serving() {
        let _g = jobs_lock();
        for jobs in [1, 2] {
            set_jobs(jobs);
            let out = par_map(8, |i| {
                if i == 5 {
                    panic!("task {i} failed");
                }
                i
            });
            let payload = out[5].as_ref().expect_err("task 5 panicked");
            assert_eq!(payload.downcast_ref::<String>().map(String::as_str), Some("task 5 failed"));
            for (i, r) in out.iter().enumerate().filter(|&(i, _)| i != 5) {
                assert_eq!(*r.as_ref().expect("other tasks succeed"), i);
            }
            let next: Vec<usize> = par_map(8, |i| i + 1).into_iter().map(Result::unwrap).collect();
            assert_eq!(next, (1..=8).collect::<Vec<_>>(), "{jobs} jobs: the next call still runs");
        }
        set_jobs(0);
    }

    #[test]
    fn tasks_run_inside_the_installed_task_context() {
        // Whatever the width, a task run by the caller sees the context
        // the wrapper sets up; one run by a helper sees a fresh thread.
        thread_local! {
            static DEPTH: std::cell::Cell<u32> = const { std::cell::Cell::new(0) };
        }
        fn fresh(f: &mut dyn FnMut()) {
            let saved = DEPTH.replace(0);
            f();
            DEPTH.set(saved);
        }
        let _g = jobs_lock();
        set_task_context(fresh);
        DEPTH.set(7);
        for jobs in [1, 2, 8] {
            set_jobs(jobs);
            let seen: Vec<u32> =
                par_map(16, |_| DEPTH.get()).into_iter().map(Result::unwrap).collect();
            assert!(seen.iter().all(|&d| d == 0), "{jobs} jobs: {seen:?}");
            assert_eq!(DEPTH.get(), 7, "the caller's context is restored");
        }
        set_jobs(0);
    }
}
