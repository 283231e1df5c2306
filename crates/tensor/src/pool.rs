//! Persistent worker pool behind every parallel kernel in this crate.
//!
//! The original execution policy spawned a fresh `std::thread::scope` for
//! every parallel region. That is correct but pays thread creation
//! (~50–100 µs) on every call — fatal for the sub-millisecond kernels a
//! training step is made of, and the reason BENCH_kernels.json showed
//! 4-thread `train_epoch` *losing* to serial. This module replaces the
//! per-call spawn with long-lived workers parked on a condvar:
//!
//! * [`run`]`(njobs, f)` executes `f(0) .. f(njobs - 1)`, each index exactly
//!   once, fanning the indices out over the parked workers plus the calling
//!   thread. Waking a parked worker is a futex wake (~5 µs), three orders of
//!   magnitude cheaper than spawning it.
//! * Workers are spawned lazily on first use and grow to
//!   `configured_threads() - 1`, so a single-threaded configuration
//!   (`PRIM_NUM_THREADS=1`) never starts a thread at all.
//! * **Determinism is the caller's contract, enforced by construction**: the
//!   pool only distributes *indices*; the caller partitions its output into
//!   per-index disjoint regions whose boundaries depend on the problem shape
//!   alone (never on the thread count or on claim order). Each output
//!   element is written by exactly one `f(i)` accumulating in serial order,
//!   so results are bitwise identical for any pool size — the same contract
//!   [`crate::kernel`] has always documented.
//! * Jobs are claimed with an atomic `fetch_add`, which load-balances
//!   ragged partitions without any determinism cost (claim order affects
//!   *who* computes an index, never *what* it computes).
//! * A panic inside `f` is caught on the worker, forwarded to the caller
//!   and re-raised there once the region completes, so `should_panic` tests
//!   and shape-assertion failures behave exactly as they did under scoped
//!   threads.
//!
//! Nested parallelism is folded to the inline path: a `run` issued from
//! inside a pool worker (or while another thread holds the submission lock)
//! executes serially on the calling thread. This keeps batch-level
//! parallelism in `prim-core` — which partitions *triples* across the pool
//! and calls matrix kernels from inside each job — deadlock-free by
//! construction: inner kernels simply run serially within their worker.
//!
//! Each worker additionally owns a thread-local [`Scratch`] arena (the
//! per-thread extension of the tape's `BufferPool`): size-keyed buffer
//! recycling so per-job temporaries are allocation-free in steady state.
//! [`stats`] exposes monotonic counters (runs, jobs, queue depth, worker vs
//! caller share) that `prim-obs` turns into per-phase utilization.

use std::any::Any;
use std::cell::{Cell, RefCell};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock, TryLockError};

use crate::kernel;

/// Hard cap on pool workers, far above any sane `set_threads` request.
const MAX_WORKERS: usize = 64;

/// A raw pointer that may cross into pool jobs.
///
/// Safety contract for users: each job index must dereference a region
/// disjoint from every other index's, the partition must depend only on the
/// problem shape (never the thread count), and the owning [`run`] call joins
/// all jobs before the underlying borrow ends. Every kernel helper and the
/// batch-parallel scorer uphold exactly this.
pub struct SendPtr<T>(*mut T);
unsafe impl<T> Send for SendPtr<T> {}
unsafe impl<T> Sync for SendPtr<T> {}
impl<T> SendPtr<T> {
    /// Wraps a pointer for use inside [`run`] jobs under the contract above.
    pub fn new(p: *mut T) -> Self {
        SendPtr(p)
    }

    /// The wrapped pointer.
    #[inline]
    pub fn get(&self) -> *mut T {
        self.0
    }
}

/// A lifetime-erased `&dyn Fn(usize)` that may cross threads.
///
/// Safety: [`run`] does not return until every `f(i)` has completed (the
/// `pending` counter reaches zero), so the borrow outlives every
/// dereference; workers never call through the pointer after claiming an
/// index `>= njobs`.
#[derive(Clone, Copy)]
struct RawTask(*const (dyn Fn(usize) + Sync));
unsafe impl Send for RawTask {}
unsafe impl Sync for RawTask {}

/// One parallel region in flight.
#[derive(Clone)]
struct Job {
    f: RawTask,
    njobs: usize,
    /// Next unclaimed index (fetch_add ticket dispenser).
    next: Arc<AtomicUsize>,
    /// Indices not yet *completed*; the caller returns when this hits zero.
    pending: Arc<AtomicUsize>,
    /// First panic payload raised inside `f`, re-raised by the caller.
    panic: Arc<Mutex<Option<Box<dyn Any + Send>>>>,
}

struct State {
    /// The job currently being distributed, if any.
    job: Option<Job>,
    /// Bumped once per published job so parked workers can tell a fresh
    /// job from the one they already drained.
    epoch: u64,
    /// Workers spawned so far.
    workers: usize,
}

struct Shared {
    state: Mutex<State>,
    /// Workers park here waiting for a new epoch.
    work: Condvar,
    /// The submitting thread parks here waiting for `pending == 0`.
    done: Condvar,
}

/// Monotonic pool counters (see [`stats`]).
#[derive(Clone, Copy, Debug, Default)]
pub struct PoolStats {
    /// Parallel regions distributed to the pool.
    pub parallel_runs: u64,
    /// Regions that ran inline on the caller (serial config, single job,
    /// nested call, or contended submission).
    pub inline_runs: u64,
    /// Job indices executed by pool workers.
    pub worker_jobs: u64,
    /// Job indices executed by the submitting thread itself.
    pub caller_jobs: u64,
    /// Total job indices enqueued to parallel regions.
    pub queued_jobs: u64,
    /// Largest single-region queue depth (njobs) seen so far.
    pub peak_queue_depth: u64,
    /// Workers currently alive.
    pub workers: u64,
}

#[derive(Default)]
struct Counters {
    parallel_runs: AtomicU64,
    inline_runs: AtomicU64,
    worker_jobs: AtomicU64,
    caller_jobs: AtomicU64,
    queued_jobs: AtomicU64,
    peak_queue_depth: AtomicU64,
}

static COUNTERS: Counters = Counters {
    parallel_runs: AtomicU64::new(0),
    inline_runs: AtomicU64::new(0),
    worker_jobs: AtomicU64::new(0),
    caller_jobs: AtomicU64::new(0),
    queued_jobs: AtomicU64::new(0),
    peak_queue_depth: AtomicU64::new(0),
};

static SHARED: OnceLock<Arc<Shared>> = OnceLock::new();
/// Serializes submitters. Held for the whole region by the submitting
/// thread; a contended (or self-held, i.e. nested) submission falls back to
/// the inline path instead of blocking, so the pool can never deadlock.
static SUBMIT: Mutex<()> = Mutex::new(());

thread_local! {
    /// True on pool worker threads: a nested [`run`] goes inline.
    static IN_POOL: Cell<bool> = const { Cell::new(false) };
    static SCRATCH: RefCell<Scratch> = RefCell::new(Scratch::new());
}

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    // A panic inside `f` unwinds through guard scopes and poisons these
    // mutexes; the pool state itself is always consistent (plain counters),
    // so poisoning is ignored.
    m.lock().unwrap_or_else(|e| e.into_inner())
}

fn shared() -> &'static Arc<Shared> {
    SHARED.get_or_init(|| {
        Arc::new(Shared {
            state: Mutex::new(State {
                job: None,
                epoch: 0,
                workers: 0,
            }),
            work: Condvar::new(),
            done: Condvar::new(),
        })
    })
}

/// True while executing on a pool worker thread.
pub fn in_worker() -> bool {
    IN_POOL.with(|f| f.get())
}

fn worker_loop(shared: Arc<Shared>) {
    IN_POOL.with(|f| f.set(true));
    let mut seen = 0u64;
    loop {
        let job = {
            let mut st = lock(&shared.state);
            loop {
                if st.epoch != seen {
                    seen = st.epoch;
                    if let Some(j) = st.job.clone() {
                        break j;
                    }
                    // Epoch advanced but the job was already retired;
                    // fall through and keep waiting.
                }
                st = shared.work.wait(st).unwrap_or_else(|e| e.into_inner());
            }
        };
        execute(&shared, &job, true);
    }
}

/// Claims and runs indices of `job` until the ticket dispenser runs dry.
fn execute(shared: &Shared, job: &Job, is_worker: bool) {
    // Safety: see `RawTask` — the submitting `run` call keeps the closure
    // alive until `pending` reaches zero, and we only dereference for
    // indices `< njobs`, each of which holds a unit of `pending`.
    let f = unsafe { &*job.f.0 };
    loop {
        let i = job.next.fetch_add(1, Ordering::Relaxed);
        if i >= job.njobs {
            break;
        }
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| f(i)));
        if let Err(payload) = result {
            let mut slot = lock(&job.panic);
            if slot.is_none() {
                *slot = Some(payload);
            }
        }
        if is_worker {
            COUNTERS.worker_jobs.fetch_add(1, Ordering::Relaxed);
        } else {
            COUNTERS.caller_jobs.fetch_add(1, Ordering::Relaxed);
        }
        if job.pending.fetch_sub(1, Ordering::AcqRel) == 1 {
            // Last index: wake the submitter. Taking the state lock orders
            // this wake after the submitter's wait registration.
            let _st = lock(&shared.state);
            shared.done.notify_all();
        }
    }
}

fn ensure_workers(shared: &Arc<Shared>, wanted: usize) {
    let wanted = wanted.min(MAX_WORKERS);
    let mut st = lock(&shared.state);
    while st.workers < wanted {
        let id = st.workers;
        let cloned = Arc::clone(shared);
        std::thread::Builder::new()
            .name(format!("prim-pool-{id}"))
            .spawn(move || worker_loop(cloned))
            .expect("failed to spawn pool worker");
        st.workers += 1;
    }
}

fn run_inline<F: Fn(usize)>(njobs: usize, f: F) {
    COUNTERS.inline_runs.fetch_add(1, Ordering::Relaxed);
    for i in 0..njobs {
        f(i);
    }
}

/// Executes `f(0) .. f(njobs - 1)`, each exactly once, across the persistent
/// pool plus the calling thread. Returns once every index has completed;
/// re-raises the first panic raised inside `f`.
///
/// Runs inline (serially, on the caller) when any of these hold: a
/// 1-thread configuration, a single job, a nested call from inside a pool
/// worker or from inside another region on this thread, or a concurrent
/// submitter already driving the pool. All of these produce
/// bitwise-identical results by the partitioning contract described in the
/// module docs.
pub fn run<F>(njobs: usize, f: F)
where
    F: Fn(usize) + Sync,
{
    if njobs == 0 {
        return;
    }
    let threads = kernel::configured_threads();
    if threads <= 1 || njobs == 1 || in_worker() {
        run_inline(njobs, f);
        return;
    }
    // One region at a time: a contended pool (another thread mid-region, or
    // a nested call from the submitting thread itself — `try_lock` on a
    // held std mutex is non-reentrant and returns `WouldBlock`) degrades to
    // the inline path rather than queueing.
    let _submit = match SUBMIT.try_lock() {
        Ok(guard) => guard,
        Err(TryLockError::Poisoned(p)) => p.into_inner(),
        Err(TryLockError::WouldBlock) => {
            run_inline(njobs, f);
            return;
        }
    };
    let shared = shared();
    ensure_workers(shared, threads.min(njobs) - 1);

    COUNTERS.parallel_runs.fetch_add(1, Ordering::Relaxed);
    COUNTERS
        .queued_jobs
        .fetch_add(njobs as u64, Ordering::Relaxed);
    COUNTERS
        .peak_queue_depth
        .fetch_max(njobs as u64, Ordering::Relaxed);

    let f_ref: &(dyn Fn(usize) + Sync) = &f;
    // Safety: lifetime erasure only; `run` joins the region before
    // returning, so the borrow outlives all uses (see `RawTask`).
    let raw = RawTask(unsafe {
        std::mem::transmute::<&(dyn Fn(usize) + Sync), *const (dyn Fn(usize) + Sync)>(f_ref)
    });
    let job = Job {
        f: raw,
        njobs,
        next: Arc::new(AtomicUsize::new(0)),
        pending: Arc::new(AtomicUsize::new(njobs)),
        panic: Arc::new(Mutex::new(None)),
    };
    {
        let mut st = lock(&shared.state);
        st.job = Some(job.clone());
        st.epoch = st.epoch.wrapping_add(1);
        shared.work.notify_all();
    }
    // The caller is a full participant — with N configured threads the
    // region runs on N-1 workers plus this thread.
    execute(shared, &job, false);
    {
        let mut st = lock(&shared.state);
        while job.pending.load(Ordering::Acquire) != 0 {
            st = shared.done.wait(st).unwrap_or_else(|e| e.into_inner());
        }
        st.job = None;
    }
    let payload = lock(&job.panic).take();
    if let Some(payload) = payload {
        std::panic::resume_unwind(payload);
    }
}

/// Snapshot of the monotonic pool counters. Deltas between snapshots give
/// per-phase utilization (worker share of executed jobs), which `prim-obs`
/// records alongside phase wall-times.
pub fn stats() -> PoolStats {
    let workers = SHARED
        .get()
        .map(|s| lock(&s.state).workers as u64)
        .unwrap_or(0);
    PoolStats {
        parallel_runs: COUNTERS.parallel_runs.load(Ordering::Relaxed),
        inline_runs: COUNTERS.inline_runs.load(Ordering::Relaxed),
        worker_jobs: COUNTERS.worker_jobs.load(Ordering::Relaxed),
        caller_jobs: COUNTERS.caller_jobs.load(Ordering::Relaxed),
        queued_jobs: COUNTERS.queued_jobs.load(Ordering::Relaxed),
        peak_queue_depth: COUNTERS.peak_queue_depth.load(Ordering::Relaxed),
        workers,
    }
}

impl PoolStats {
    /// Fraction of partitioned job indices absorbed by pool workers (vs the
    /// submitting thread) since `earlier`; `None` when nothing ran.
    pub fn worker_share_since(&self, earlier: &PoolStats) -> Option<f64> {
        let w = self.worker_jobs.saturating_sub(earlier.worker_jobs);
        let c = self.caller_jobs.saturating_sub(earlier.caller_jobs);
        let total = w + c;
        (total > 0).then(|| w as f64 / total as f64)
    }

    /// Parallel regions since `earlier`.
    pub fn parallel_runs_since(&self, earlier: &PoolStats) -> u64 {
        self.parallel_runs.saturating_sub(earlier.parallel_runs)
    }

    /// Inline (serial-path) regions since `earlier`.
    pub fn inline_runs_since(&self, earlier: &PoolStats) -> u64 {
        self.inline_runs.saturating_sub(earlier.inline_runs)
    }
}

/// Size-keyed recycling arena for per-thread scratch buffers — the
/// per-worker extension of the tape's `BufferPool`. `take` hands out a
/// zeroed buffer of exactly `len` (reusing a previously `put` buffer when
/// one of that size exists), so steady-state scratch use allocates nothing.
#[derive(Default)]
pub struct Scratch {
    buckets: HashMap<usize, Vec<Vec<f32>>>,
}

impl Scratch {
    fn new() -> Self {
        Scratch::default()
    }

    /// A zeroed buffer of length `len`, recycled when possible.
    pub fn take(&mut self, len: usize) -> Vec<f32> {
        match self.buckets.get_mut(&len).and_then(|b| b.pop()) {
            Some(mut v) => {
                v.iter_mut().for_each(|x| *x = 0.0);
                v
            }
            None => vec![0.0; len],
        }
    }

    /// Returns a buffer to the arena for reuse by later `take`s.
    pub fn put(&mut self, v: Vec<f32>) {
        self.buckets.entry(v.len()).or_default().push(v);
    }

    /// Buffers currently cached (test/diagnostic hook).
    pub fn cached(&self) -> usize {
        self.buckets.values().map(Vec::len).sum()
    }
}

/// Runs `f` with this thread's scratch arena. Every thread — pool workers
/// and callers alike — owns an independent arena, so scratch access is
/// lock-free and jobs on different workers never contend.
pub fn with_scratch<R>(f: impl FnOnce(&mut Scratch) -> R) -> R {
    SCRATCH.with(|s| f(&mut s.borrow_mut()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU32;

    #[test]
    fn run_covers_every_index_exactly_once() {
        let n = 97;
        let hits: Vec<AtomicU32> = (0..n).map(|_| AtomicU32::new(0)).collect();
        kernel::set_threads(4);
        run(n, |i| {
            hits[i].fetch_add(1, Ordering::Relaxed);
        });
        kernel::set_threads(0);
        for (i, h) in hits.iter().enumerate() {
            assert_eq!(h.load(Ordering::Relaxed), 1, "index {i}");
        }
    }

    #[test]
    fn zero_and_single_job_run_inline() {
        run(0, |_| panic!("must not be called"));
        let hit = AtomicU32::new(0);
        run(1, |i| {
            hit.store(i as u32 + 1, Ordering::Relaxed);
        });
        assert_eq!(hit.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn nested_run_goes_inline_and_completes() {
        kernel::set_threads(4);
        let total: Vec<AtomicU32> = (0..8).map(|_| AtomicU32::new(0)).collect();
        run(4, |outer| {
            // Nested region: must degrade to inline, not deadlock.
            run(2, |inner| {
                total[outer * 2 + inner].fetch_add(1, Ordering::Relaxed);
            });
        });
        kernel::set_threads(0);
        assert!(total.iter().all(|t| t.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn panics_propagate_to_the_caller() {
        kernel::set_threads(2);
        let result = std::panic::catch_unwind(|| {
            run(8, |i| {
                if i == 5 {
                    panic!("job 5 exploded");
                }
            });
        });
        kernel::set_threads(0);
        let payload = result.expect_err("panic must propagate");
        let msg = payload
            .downcast_ref::<&str>()
            .copied()
            .or_else(|| payload.downcast_ref::<String>().map(|s| s.as_str()))
            .unwrap_or("");
        assert!(msg.contains("job 5 exploded"), "{msg}");
        // The pool must still be usable after a panicked region.
        let ok = AtomicU32::new(0);
        kernel::set_threads(2);
        run(4, |_| {
            ok.fetch_add(1, Ordering::Relaxed);
        });
        kernel::set_threads(0);
        assert_eq!(ok.load(Ordering::Relaxed), 4);
    }

    #[test]
    fn scratch_recycles_buffers() {
        with_scratch(|s| {
            let a = s.take(128);
            assert_eq!(a.len(), 128);
            let ptr = a.as_ptr();
            s.put(a);
            let b = s.take(128);
            assert_eq!(b.as_ptr(), ptr, "same-size take must reuse the buffer");
            assert!(b.iter().all(|&x| x == 0.0), "recycled buffer is zeroed");
            s.put(b);
        });
    }

    #[test]
    fn stats_track_runs() {
        let before = stats();
        kernel::set_threads(2);
        run(16, |_| {});
        kernel::set_threads(0);
        let after = stats();
        assert!(
            after.parallel_runs + after.inline_runs > before.parallel_runs + before.inline_runs
        );
        assert!(after.queued_jobs >= before.queued_jobs);
    }
}
