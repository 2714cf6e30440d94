//! The persistent pool behind [`parallel_map`](crate::parallel_map).
//!
//! # Design
//!
//! One process-wide pool is built lazily on the first parallel fan-out and
//! lives for the rest of the process: `threads − 1` worker threads (the
//! submitting thread is the remaining compute slot) parked on a condvar
//! until work arrives. A fan-out call publishes a single job record into a
//! shared registry and wakes the workers; the job distributes its items
//! internally through a lock-free claim counter — every participant grabs
//! the next batch of `grain` indices with one `fetch_add`, so a slow item
//! never strands work behind it the way a static equal-chunk split would,
//! and the steal path costs one uncontended RMW instead of a lock.
//! This is the "sharded injector" flavour of work distribution: because the
//! only API is a fan-out over a slice, a per-worker Chase-Lev deque would
//! hold slices of the same job anyway — the claim counter gives the same
//! dynamic balance with no per-task allocation at all.
//!
//! # Nested parallelism
//!
//! A task already running on a pool worker may itself call
//! [`parallel_map`](crate::parallel_map). The nested call publishes its job
//! like any other and then *helps*: the calling worker executes batches from
//! its own job until nothing is left to claim, then parks on the job's
//! completion condvar while other workers finish the batches they claimed.
//! No thread is ever spawned by a nested call, so session-batch ×
//! candidate × extraction fan-outs compose at exactly the pool's
//! concurrency instead of multiplying it. The wait graph cannot cycle: a
//! thread only waits on a job it created inside the item it is currently
//! executing, and every claimed batch is being executed by a live thread,
//! so the innermost jobs always complete.
//!
//! # Determinism
//!
//! Scheduling is nondeterministic; results are not. Every item writes its
//! result into its own input-order slot and all reductions happen on the
//! calling thread in input order, so output bytes are identical at any
//! thread count (locked by `tests/determinism.rs` at caps 1, 2 and 4).
//!
//! # Thread-count governance
//!
//! The pool size is resolved once per process: the `MESA_THREADS`
//! environment variable wins, then a [`set_threads`] call made before the
//! first fan-out, then `std::thread::available_parallelism()`.
//! [`with_thread_cap`] additionally caps the concurrency of fan-outs in a
//! scope (and of everything nested beneath them — jobs propagate their cap
//! to the workers executing their items), which is how the scaling sweep
//! and the determinism tests force 1/2/4 threads inside one process.

use std::any::Any;
use std::cell::Cell;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, Once, OnceLock, PoisonError};

use crate::deadline::{current_deadline, install_deadline, Cancelled, Deadline};

/// Locks a mutex ignoring poisoning. Every mutex in this module guards
/// state that stays consistent across unwinds (flags, registries and
/// `Option` slots mutated in single statements), so a panic while holding
/// a guard never leaves partial state — recovering the inner value is
/// always safe and keeps a panicked job from wedging the whole pool.
fn lock_ignore_poison<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Process-wide thread count, resolved once (see [`resolve_threads`]).
static CONFIGURED_THREADS: OnceLock<usize> = OnceLock::new();

/// The lazily-built global pool.
static POOL: OnceLock<Pool> = OnceLock::new();

thread_local! {
    /// Concurrency cap inherited by fan-outs on this thread (0 = unset).
    /// Set by [`with_thread_cap`] on caller threads and by
    /// [`JobCore::run_batch`] on workers while they execute a capped job's
    /// items, so nested fan-outs observe the innermost enclosing cap.
    static THREAD_CAP: Cell<usize> = const { Cell::new(0) };
}

/// Parses one `MESA_THREADS` value: a positive integer (surrounding
/// whitespace tolerated). `None` for anything malformed.
fn parse_threads(raw: &str) -> Option<usize> {
    match raw.trim().parse::<usize>() {
        Ok(n) if n >= 1 => Some(n),
        _ => None,
    }
}

/// Reads `MESA_THREADS` if present. A malformed value is *not* fatal — a
/// serving process must come up even with a typo'd override — but it warns
/// on stderr (once per process) because the silent part of a silent
/// fallback is what would invalidate benchmarks recorded under it.
fn env_threads() -> Option<usize> {
    let raw = std::env::var("MESA_THREADS").ok()?;
    let parsed = parse_threads(&raw);
    if parsed.is_none() {
        static WARNED: Once = Once::new();
        WARNED.call_once(|| {
            eprintln!(
                "warning: MESA_THREADS must be a positive integer, got {raw:?}; \
                 ignoring it and using the default thread count"
            );
        });
    }
    parsed
}

/// The pool size: `MESA_THREADS` > [`set_threads`] > `available_parallelism`.
/// Cached on first call; later env changes have no effect.
fn resolve_threads() -> usize {
    *CONFIGURED_THREADS.get_or_init(|| {
        env_threads().unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        })
    })
}

/// Requests a pool size of `requested` threads and returns the count
/// actually in effect.
///
/// Must run before the first parallel fan-out to have any effect: the
/// first resolution wins and is permanent for the process. A set
/// `MESA_THREADS` environment variable takes precedence over the request
/// (that is what lets CI force the multithread paths on a single-core
/// runner without patching binaries). Benchmarks and tests call this to get
/// a deterministic pool size regardless of host core count.
///
/// # Panics
/// Panics if `requested` is 0.
pub fn set_threads(requested: usize) -> usize {
    // mesa-lint: allow(serving-panic-free) -- documented contract: a zero thread count is a caller bug, caught before any pool state changes
    assert!(requested >= 1, "thread count must be at least 1");
    let _ = CONFIGURED_THREADS.set(env_threads().unwrap_or(requested));
    resolve_threads()
}

/// Runs `f` with fan-out concurrency capped at `cap` threads (including the
/// calling thread). Nested fan-outs inherit the cap; `cap = 1` forces fully
/// serial execution. The cap cannot exceed the pool size — excess is
/// clamped. Restored on unwind.
///
/// # Panics
/// Panics if `cap` is 0.
pub fn with_thread_cap<R>(cap: usize, f: impl FnOnce() -> R) -> R {
    // mesa-lint: allow(serving-panic-free) -- documented contract: a zero cap is a caller bug, caught before the cap is installed
    assert!(cap >= 1, "thread cap must be at least 1");
    struct Restore(usize);
    impl Drop for Restore {
        fn drop(&mut self) {
            THREAD_CAP.with(|c| c.set(self.0));
        }
    }
    let _restore = Restore(THREAD_CAP.with(|c| c.replace(cap)));
    f()
}

/// The concurrency a fan-out issued from this thread would use right now:
/// the resolved pool size clamped by the innermost [`with_thread_cap`] (or
/// the cap of the job this worker is currently executing). `1` means
/// fan-outs run serially.
pub fn effective_threads() -> usize {
    let pool = resolve_threads();
    match THREAD_CAP.with(|c| c.get()) {
        0 => pool,
        cap => cap.min(pool),
    }
}

/// The process-wide pool: the shared worker state plus the resolved size.
struct Pool {
    shared: Arc<Shared>,
    threads: usize,
}

/// State shared between the workers and submitting threads.
struct Shared {
    /// Jobs with work left to claim (or still draining). Pushed on submit,
    /// removed by the submitter once complete; the vector stays as small as
    /// the number of concurrently active fan-outs.
    registry: Mutex<Vec<Arc<JobCore>>>,
    /// Workers park here when no registered job is claimable.
    work: Condvar,
}

fn global_pool() -> &'static Pool {
    POOL.get_or_init(|| {
        let threads = resolve_threads();
        let shared = Arc::new(Shared {
            registry: Mutex::new(Vec::new()),
            work: Condvar::new(),
        });
        // `threads - 1` workers: the thread that submits a job is the
        // remaining compute slot (it helps execute its own job), so total
        // live compute threads per fan-out equal the configured count.
        for i in 1..threads {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name(format!("mesa-pool-{i}"))
                .spawn(move || worker_loop(&shared))
                // mesa-lint: allow(serving-panic-free) -- worker spawn failure at first pool use is unrecoverable startup misconfiguration, not a request-path error
                .expect("failed to spawn pool worker");
        }
        Pool { shared, threads }
    })
}

/// Worker body: find a claimable job, drain it, repeat; park when idle.
/// Workers are persistent — they live until process exit.
fn worker_loop(shared: &Shared) {
    loop {
        let job = {
            let mut registry = lock_ignore_poison(&shared.registry);
            loop {
                if let Some(job) = registry.iter().find(|j| j.claimable()) {
                    break Arc::clone(job);
                }
                registry = shared
                    .work
                    .wait(registry)
                    .unwrap_or_else(PoisonError::into_inner);
            }
        };
        // The helper-slot count enforces the job's thread cap; losing the
        // race (another worker took the last slot) just re-enters the scan.
        if job.try_add_helper() {
            // mesa-lint: hot-loop(run_batch) -- deadline polled at every batch-claim boundary inside run_batch
            while job.run_batch() {}
        }
    }
}

/// Monomorphized item executor: `(ctx, i)` runs item `i` and writes its
/// result slot. SAFETY: callers must pass a `ctx` pointing at a live
/// [`Ctx`] of the matching concrete types.
type RunOne = unsafe fn(*const (), usize);

/// The borrowed, type-specific half of a job, kept on the submitting
/// thread's stack for the duration of the call.
struct Ctx<'a, T, R, F> {
    items: *const T,
    f: &'a F,
    /// Input-order result slots, one per item, written exactly once each.
    results: *mut Option<R>,
}

/// SAFETY: `ctx` must point at a live `Ctx<T, R, F>` whose items, closure
/// and results buffer outlive the call, and `i` must be an exclusively
/// claimed in-bounds index.
unsafe fn run_one<T, R, F>(ctx: *const (), i: usize)
where
    F: Fn(usize, &T) -> R,
{
    // SAFETY: the caller (run_batch, via JobCore) only invokes this while
    // the submitting thread keeps the Ctx, items, closure and results
    // buffer alive — i.e. before `finished` reaches `len` — and `i` was
    // claimed exclusively, so the slot write cannot race.
    let ctx = unsafe { &*ctx.cast::<Ctx<'_, T, R, F>>() };
    let item = unsafe { &*ctx.items.add(i) };
    let result = (ctx.f)(i, item);
    unsafe { ctx.results.add(i).write(Some(result)) };
}

/// The type-erased, shareable half of one fan-out: claim counter, progress
/// counter, completion signal and panic slot. `'static`, so it can sit in
/// the global registry while the item data it points to lives on the
/// submitting thread's stack — the safety protocol is that workers never
/// dereference `ctx` once every index has been claimed or the job poisoned,
/// and the submitter does not return before `finished == len`.
struct JobCore {
    run_one: RunOne,
    ctx: *const (),
    len: usize,
    /// Items claimed per `fetch_add` — the scheduling grain.
    grain: usize,
    /// Maximum threads (including the submitter) that may execute items.
    cap: usize,
    /// The deadline governing the submitting thread at submit time, if
    /// any. Checked at every batch-claim boundary and installed
    /// thread-locally while a batch's items run, so nested work and
    /// explicit [`checkpoint`](crate::deadline::checkpoint) calls observe
    /// it on workers too.
    deadline: Option<Deadline>,
    /// Next unclaimed item index; claims are `fetch_add(grain)`.
    next: AtomicUsize,
    /// Threads currently enrolled to execute items (submitter counts).
    helpers: AtomicUsize,
    /// Items finished (executed, skipped-after-poison included).
    finished: AtomicUsize,
    /// Set on the first panic; claimed-but-unrun items are skipped after.
    poisoned: AtomicBool,
    /// First panic payload, resumed on the submitting thread after drain.
    panic: Mutex<Option<Box<dyn Any + Send>>>,
    /// Completion flag + condvar the submitter (and nested callers) park on.
    done: Mutex<bool>,
    done_cv: Condvar,
}

// SAFETY: the raw pointers are only dereferenced under the protocol
// documented on the struct; the pointed-to Ctx requires `T: Sync` (shared
// item reads), `F: Sync` (shared closure calls) and `R: Send` (results move
// to the submitting thread) — enforced by `run_pooled`'s bounds before any
// JobCore is constructed.
unsafe impl Send for JobCore {}
unsafe impl Sync for JobCore {}

impl JobCore {
    /// Whether a scanning worker could still contribute: unclaimed items
    /// remain and a helper slot is free. Racy by design — the decisions
    /// are re-validated by `try_add_helper` / `run_batch`.
    fn claimable(&self) -> bool {
        self.next.load(Ordering::Relaxed) < self.len
            && self.helpers.load(Ordering::Relaxed) < self.cap
    }

    /// Enrolls the calling worker unless the thread cap is reached.
    fn try_add_helper(&self) -> bool {
        let mut current = self.helpers.load(Ordering::Relaxed);
        loop {
            if current >= self.cap {
                return false;
            }
            match self.helpers.compare_exchange_weak(
                current,
                current + 1,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => return true,
                Err(seen) => current = seen,
            }
        }
    }

    /// Poisons the job: later claims skip execution and `payload` (if it is
    /// the first) is resumed on the submitting thread after drain.
    fn poison(&self, payload: Box<dyn Any + Send>) {
        self.poisoned.store(true, Ordering::Relaxed);
        let mut slot = lock_ignore_poison(&self.panic);
        if slot.is_none() {
            *slot = Some(payload);
        }
    }

    /// Claims and executes one batch of items. Returns `false` once nothing
    /// is left to claim (the job may still be draining on other threads).
    fn run_batch(&self) -> bool {
        // Deadline check at the claim boundary: an expired budget poisons
        // the job with the `Cancelled` sentinel, so at most one in-flight
        // grain per thread runs past the deadline before the fan-out
        // unwinds on the submitter.
        if self.deadline.as_ref().is_some_and(Deadline::expired) {
            self.poison(Box::new(Cancelled));
        }
        let start = self.next.fetch_add(self.grain, Ordering::Relaxed);
        if start >= self.len {
            return false;
        }
        let end = (start + self.grain).min(self.len);
        // Nested fan-outs issued by these items inherit this job's cap and
        // deadline (the guard restores the worker's own deadline on drop).
        let inherited = THREAD_CAP.with(|c| c.replace(self.cap));
        let _deadline_scope = install_deadline(self.deadline.clone());
        for i in start..end {
            if !self.poisoned.load(Ordering::Relaxed) {
                // SAFETY: `i` was claimed exclusively above; the submitter
                // keeps the ctx alive until `finished == len`, which cannot
                // happen before this batch's `fetch_add` below.
                let item = AssertUnwindSafe(|| unsafe { (self.run_one)(self.ctx, i) });
                if let Err(payload) = catch_unwind(item) {
                    self.poison(payload);
                }
            }
        }
        THREAD_CAP.with(|c| c.set(inherited));
        // AcqRel: the final increment's read side forms a happens-before
        // edge with every earlier release increment, so the thread that
        // observes `finished == len` also observes every result write.
        let finished = self.finished.fetch_add(end - start, Ordering::AcqRel) + (end - start);
        if finished == self.len {
            *lock_ignore_poison(&self.done) = true;
            self.done_cv.notify_all();
        }
        true
    }

    /// Parks until every item has finished executing (not merely been
    /// claimed). Used by the submitting thread after it runs out of
    /// batches to claim itself.
    fn wait_done(&self) {
        let mut done = lock_ignore_poison(&self.done);
        while !*done {
            done = self
                .done_cv
                .wait(done)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }
}

/// Batch size for a fan-out of `len` items at concurrency `cap`: about 8
/// claims per participating thread, so one pathologically slow item strands
/// at most `len / (8·cap)` neighbours behind it while claim traffic stays
/// at O(cap) RMWs — the adaptive replacement for the old static
/// `len / threads` chunking.
fn adaptive_grain(len: usize, cap: usize) -> usize {
    (len / (cap * 8)).max(1)
}

/// Runs the fan-out on the global pool. Caller has already established
/// `items.len() >= 2` and `effective_threads() >= 2`.
pub(crate) fn run_pooled<T, R, F>(items: &[T], grain: Option<usize>, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    let pool = global_pool();
    let cap = effective_threads().min(pool.threads);
    let len = items.len();
    let grain = grain.unwrap_or_else(|| adaptive_grain(len, cap)).max(1);
    let mut results: Vec<Option<R>> = std::iter::repeat_with(|| None).take(len).collect();
    let ctx = Ctx {
        items: items.as_ptr(),
        f: &f,
        results: results.as_mut_ptr(),
    };
    let job = Arc::new(JobCore {
        run_one: run_one::<T, R, F>,
        ctx: (&ctx as *const Ctx<'_, T, R, F>).cast(),
        len,
        grain,
        cap,
        deadline: current_deadline(),
        next: AtomicUsize::new(0),
        helpers: AtomicUsize::new(1), // the submitting thread
        finished: AtomicUsize::new(0),
        poisoned: AtomicBool::new(false),
        panic: Mutex::new(None),
        done: Mutex::new(false),
        done_cv: Condvar::new(),
    });
    lock_ignore_poison(&pool.shared.registry).push(Arc::clone(&job));
    // Wake only as many parked workers as could actually enroll (the
    // submitter holds one helper slot and there are at most
    // ceil(len / grain) batches): waking the whole pool for a small nested
    // job just stampedes the registry lock. A worker that is already awake
    // rescans the registry on its own, so under-waking only costs idle
    // helpers, never progress — the submitter drains its own job
    // regardless.
    let wake = cap.min(len.div_ceil(grain)).saturating_sub(1);
    for _ in 0..wake {
        pool.shared.work.notify_one();
    }
    // Help: execute batches from our own job until none are claimable,
    // then park until the stragglers other threads claimed have finished.
    // mesa-lint: hot-loop(run_batch) -- deadline polled at every batch-claim boundary inside run_batch
    while job.run_batch() {}
    job.wait_done();
    lock_ignore_poison(&pool.shared.registry).retain(|j| !Arc::ptr_eq(j, &job));
    // All items have finished: no thread will touch `ctx` again (stray
    // registry scans and `run_batch` calls read only the atomics).
    if let Some(payload) = lock_ignore_poison(&job.panic).take() {
        resume_unwind(payload);
    }
    results
        .into_iter()
        // mesa-lint: allow(serving-panic-free) -- unreachable: every claimed index writes its slot before `finished` reaches `len`, and the panicking path resumed above
        .map(|slot| slot.expect("every slot is written on the non-panicking path"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::parse_threads;

    #[test]
    fn parse_threads_accepts_positive_integers() {
        assert_eq!(parse_threads("4"), Some(4));
        assert_eq!(parse_threads(" 8 "), Some(8));
        assert_eq!(parse_threads("1"), Some(1));
    }

    #[test]
    fn parse_threads_rejects_malformed_values() {
        assert_eq!(parse_threads("0"), None);
        assert_eq!(parse_threads(""), None);
        assert_eq!(parse_threads("four"), None);
        assert_eq!(parse_threads("-2"), None);
        assert_eq!(parse_threads("4.5"), None);
        assert_eq!(parse_threads("4 threads"), None);
    }
}
