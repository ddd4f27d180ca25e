//! Deterministic data-parallel executor.
//!
//! A std-only fork-join pool with rayon-like ergonomics, built for GEM's
//! determinism contract: **results must be identical for any thread
//! count.** Every combinator here assigns work by *index*, never by
//! arrival order, and writes each result into its own pre-assigned slot,
//! so the output of `par_map` is exactly `items.map(f)` regardless of
//! how the OS schedules workers.
//!
//! Design:
//! - One lazily-created global pool (`GEM_NUM_THREADS`, else
//!   `available_parallelism`, minus the calling thread which also
//!   works).
//! - Batch-claim dispatch: a parallel region publishes **one** batch of
//!   tasks to a shared queue; workers take the batch once and then claim
//!   task indices with a lock-free cursor. One lock acquisition per
//!   worker per region, instead of one per task — the per-job channel
//!   handoff of the previous design serialized fine-grained regions.
//! - Scoped execution: jobs may borrow from the caller's stack. A call
//!   blocks until every job completes before returning, which makes the
//!   lifetime erasure at the dispatch boundary sound.
//! - One inline path: every combinator asks [`effective_threads`] once.
//!   A region that cannot fan out (a cap of one, a one-thread pool, or a
//!   nested call on a worker, which would otherwise deadlock the pool)
//!   calls `f` on the calling thread in index order, with no task vector
//!   and no boxing. [`thread_cap`] bounds the threads a region may
//!   use without resizing the pool.
//! - Panics in jobs are captured and propagated to the caller after all
//!   jobs finish (no poisoned pool, no detached unwinding workers).

use std::cell::{Cell, UnsafeCell};
use std::collections::VecDeque;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};

// ---------------------------------------------------------------------------
// Pool
// ---------------------------------------------------------------------------

/// A type-erased unit of work with a stack lifetime that has been erased;
/// soundness comes from `scope_run` blocking until all jobs finish.
type Job = Box<dyn FnOnce() + Send>;

/// One published parallel region: a slab of claimable tasks.
///
/// Workers claim task indices through `cursor`; `fetch_add` hands out
/// each index to exactly one thread, which is what justifies the
/// `UnsafeCell` access in [`Batch::run_claimed`].
struct Batch {
    tasks: Vec<UnsafeCell<Option<Job>>>,
    cursor: AtomicUsize,
    /// Remaining worker seats: bounds how many pool workers may help
    /// this batch (the caller always participates without a seat), so
    /// [`thread_cap`] holds even when the pool is larger.
    seats: AtomicUsize,
}

// SAFETY: each task cell is accessed only by the thread that claimed its
// index through `cursor.fetch_add`, which hands out every index at most
// once.
unsafe impl Sync for Batch {}

impl Batch {
    fn exhausted(&self) -> bool {
        self.cursor.load(Ordering::Relaxed) >= self.tasks.len()
    }

    fn has_work(&self) -> bool {
        !self.exhausted() && self.seats.load(Ordering::Relaxed) > 0
    }

    fn take_seat(&self) -> bool {
        self.seats.fetch_update(Ordering::Relaxed, Ordering::Relaxed, |s| s.checked_sub(1)).is_ok()
    }

    /// Claims and runs tasks until the cursor is exhausted.
    fn run_claimed(&self) {
        loop {
            let idx = self.cursor.fetch_add(1, Ordering::AcqRel);
            if idx >= self.tasks.len() {
                return;
            }
            // SAFETY: `fetch_add` handed `idx` to this thread exclusively.
            if let Some(job) = unsafe { (*self.tasks[idx].get()).take() } {
                job();
            }
        }
    }
}

struct Shared {
    queue: Mutex<VecDeque<Arc<Batch>>>,
    available: Condvar,
}

struct Pool {
    shared: Arc<Shared>,
    workers: usize,
}

static POOL: OnceLock<Pool> = OnceLock::new();

thread_local! {
    /// True on pool worker threads; nested parallel calls run
    /// sequentially instead of re-entering the (possibly saturated) pool.
    static IN_WORKER: Cell<bool> = const { Cell::new(false) };
    /// Per-thread cap on region parallelism (including the caller);
    /// `usize::MAX` means uncapped. See [`thread_cap`].
    static THREAD_CAP: Cell<usize> = const { Cell::new(usize::MAX) };
}

fn worker_loop(shared: Arc<Shared>) {
    loop {
        let batch = {
            let mut q = shared.queue.lock().unwrap_or_else(|e| e.into_inner());
            'claim: loop {
                // Drop finished batches from the front so the queue
                // stays short-lived even under many publishers.
                while q.front().is_some_and(|b| b.exhausted()) {
                    q.pop_front();
                }
                for b in q.iter() {
                    if b.has_work() && b.take_seat() {
                        break 'claim Arc::clone(b);
                    }
                }
                q = shared.available.wait(q).unwrap_or_else(|e| e.into_inner());
            }
        };
        batch.run_claimed();
    }
}

fn pool() -> &'static Pool {
    POOL.get_or_init(|| {
        let workers = num_threads().saturating_sub(1);
        let shared =
            Arc::new(Shared { queue: Mutex::new(VecDeque::new()), available: Condvar::new() });
        for i in 0..workers {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name(format!("gem-par-{i}"))
                .spawn(move || {
                    IN_WORKER.with(|f| f.set(true));
                    worker_loop(shared);
                })
                .expect("spawn gem-par worker");
        }
        Pool { shared, workers }
    })
}

/// Effective parallelism: `GEM_NUM_THREADS` if set and >= 1, else the
/// machine's available parallelism. Read once per process, like the
/// pool it sizes, so that asking allocates nothing.
pub fn num_threads() -> usize {
    static THREADS: OnceLock<usize> = OnceLock::new();
    *THREADS.get_or_init(|| {
        std::env::var("GEM_NUM_THREADS")
            .ok()
            .and_then(|v| v.trim().parse::<usize>().ok())
            .filter(|&n| n >= 1)
            .unwrap_or_else(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
    })
}

/// True when called from inside a pool worker (nested parallel region).
fn in_parallel_region() -> bool {
    IN_WORKER.with(|f| f.get())
}

// ---------------------------------------------------------------------------
// Thread cap
// ---------------------------------------------------------------------------

/// RAII guard restoring the previous per-thread cap; see [`thread_cap`].
pub struct ThreadCapGuard {
    prev: usize,
}

impl Drop for ThreadCapGuard {
    fn drop(&mut self) {
        THREAD_CAP.with(|c| c.set(self.prev));
    }
}

/// Caps the parallelism (caller thread included) of every parallel
/// region entered from this thread until the guard drops. Nested caps
/// only tighten: `thread_cap(4)` inside `thread_cap(2)` stays at 2.
///
/// This is how callers ask for "exactly N threads" without resizing the
/// global pool: the train bench's 1/2/4-thread sweep and the
/// seq-vs-pool determinism proptests use it.
pub fn thread_cap(cap: usize) -> ThreadCapGuard {
    let cap = cap.max(1);
    let prev = THREAD_CAP.with(|c| {
        let p = c.get();
        c.set(cap.min(p));
        p
    });
    ThreadCapGuard { prev }
}

/// Parallelism the next region on this thread will actually use, the
/// caller included: [`num_threads`] tightened by any active
/// [`thread_cap`], and 1 (the region runs inline) on a pool worker.
pub fn effective_threads() -> usize {
    if in_parallel_region() {
        1
    } else {
        THREAD_CAP.with(|c| c.get()).min(num_threads())
    }
}

// ---------------------------------------------------------------------------
// Scoped fork-join core
// ---------------------------------------------------------------------------

struct Latch {
    remaining: AtomicUsize,
    mutex: Mutex<()>,
    cond: Condvar,
}

impl Latch {
    fn new(count: usize) -> Self {
        Latch { remaining: AtomicUsize::new(count), mutex: Mutex::new(()), cond: Condvar::new() }
    }

    fn count_down(&self) {
        if self.remaining.fetch_sub(1, Ordering::AcqRel) == 1 {
            let _guard = self.mutex.lock().unwrap_or_else(|e| e.into_inner());
            self.cond.notify_all();
        }
    }

    fn wait(&self) {
        let mut guard = self.mutex.lock().unwrap_or_else(|e| e.into_inner());
        while self.remaining.load(Ordering::Acquire) != 0 {
            guard = self.cond.wait(guard).unwrap_or_else(|e| e.into_inner());
        }
    }
}

/// Run `tasks.len()` closures to completion, using up to `width - 1`
/// pool workers plus the calling thread. Blocks until every task has
/// finished. Propagates the first panic (by task index) after all tasks
/// complete. Only regions that fan out get here: callers run inline when
/// [`effective_threads`] is 1 or when there is a single task.
///
/// Tasks are `FnOnce` closures that may borrow the caller's stack: the
/// blocking barrier is what makes the `'static` transmute sound.
fn scope_run(tasks: Vec<Box<dyn FnOnce() + Send + '_>>, width: usize) {
    let n = tasks.len();
    debug_assert!(n > 1 && width > 1, "an inline region reached the pool");
    let latch = Latch::new(n);
    let panics: Mutex<Vec<(usize, Box<dyn std::any::Any + Send>)>> = Mutex::new(Vec::new());

    {
        let latch_ref = &latch;
        let panics_ref = &panics;
        let mut jobs: Vec<UnsafeCell<Option<Job>>> = Vec::with_capacity(n);
        for (idx, task) in tasks.into_iter().enumerate() {
            let wrapped = move || {
                let result = panic::catch_unwind(AssertUnwindSafe(task));
                if let Err(payload) = result {
                    panics_ref.lock().unwrap_or_else(|e| e.into_inner()).push((idx, payload));
                }
                latch_ref.count_down();
            };
            // SAFETY: `wrapped` borrows `latch`, `panics`, and the
            // caller's stack through `task`. We block on `latch.wait()`
            // below before any of those borrows go out of scope, so the
            // closure never outlives the data it references. By the time
            // the latch opens every cell has been emptied, so the batch
            // an unwoken worker may still hold a reference to contains
            // no borrowed state.
            let job: Job = unsafe {
                std::mem::transmute::<Box<dyn FnOnce() + Send + '_>, Box<dyn FnOnce() + Send>>(
                    Box::new(wrapped),
                )
            };
            jobs.push(UnsafeCell::new(Some(job)));
        }
        let batch = Arc::new(Batch {
            tasks: jobs,
            cursor: AtomicUsize::new(0),
            // The caller participates without a seat; workers take the
            // rest, bounded by the active thread cap.
            seats: AtomicUsize::new(width.saturating_sub(1).min(pool().workers)),
        });
        {
            let mut q = pool().shared.queue.lock().unwrap_or_else(|e| e.into_inner());
            q.push_back(Arc::clone(&batch));
        }
        pool().shared.available.notify_all();

        // The calling thread claims tasks from its own batch (it would
        // otherwise idle inside `wait`).
        batch.run_claimed();
        latch.wait();

        // Every task has run; unlink the batch so the queue does not
        // accumulate exhausted batches between publishes.
        let mut q = pool().shared.queue.lock().unwrap_or_else(|e| e.into_inner());
        q.retain(|b| !Arc::ptr_eq(b, &batch));
    }

    let mut collected = panics.into_inner().unwrap_or_else(|e| e.into_inner());
    if !collected.is_empty() {
        collected.sort_by_key(|(idx, _)| *idx);
        let (_, payload) = collected.remove(0);
        panic::resume_unwind(payload);
    }
}

// ---------------------------------------------------------------------------
// Public combinators
// ---------------------------------------------------------------------------

/// Parallel map preserving input order: `par_map(items, f)[i] == f(&items[i])`.
///
/// Work is split into contiguous chunks, one per available thread, so
/// cache locality of sequential iteration is preserved within a chunk.
pub fn par_map<T: Sync, R: Send>(items: &[T], f: impl Fn(&T) -> R + Sync) -> Vec<R> {
    par_map_indexed(items, |_idx, item| f(item))
}

/// Parallel indexed map preserving input order.
pub fn par_map_indexed<T: Sync, R: Send>(items: &[T], f: impl Fn(usize, &T) -> R + Sync) -> Vec<R> {
    let n = items.len();
    let width = effective_threads();
    let chunk = chunk_size(n, width);
    if n <= chunk {
        return items.iter().enumerate().map(|(i, item)| f(i, item)).collect();
    }
    let mut out: Vec<Option<R>> = Vec::with_capacity(n);
    out.resize_with(n, || None);
    {
        let f_ref = &f;
        let mut tasks: Vec<Box<dyn FnOnce() + Send + '_>> = Vec::new();
        for (slot_chunk, (start, item_chunk)) in out
            .chunks_mut(chunk)
            .zip(items.chunks(chunk).enumerate().map(|(ci, c)| (ci * chunk, c)))
        {
            tasks.push(Box::new(move || {
                for (offset, (slot, item)) in
                    slot_chunk.iter_mut().zip(item_chunk.iter()).enumerate()
                {
                    *slot = Some(f_ref(start + offset, item));
                }
            }));
        }
        scope_run(tasks, width);
    }
    out.into_iter().map(|slot| slot.expect("gem-par: missing result slot")).collect()
}

/// Parallel for-each over mutable chunks of `data`, passing each task its
/// chunk index and the chunk. Chunk boundaries depend only on
/// `chunk_len`, so the decomposition is thread-count independent.
pub fn par_chunks_mut<T: Send>(
    data: &mut [T],
    chunk_len: usize,
    f: impl Fn(usize, &mut [T]) + Sync,
) {
    assert!(chunk_len > 0, "chunk_len must be positive");
    let width = effective_threads();
    if width == 1 || data.len() <= chunk_len {
        for (idx, chunk) in data.chunks_mut(chunk_len).enumerate() {
            f(idx, chunk);
        }
        return;
    }
    let f_ref = &f;
    let tasks: Vec<Box<dyn FnOnce() + Send + '_>> = data
        .chunks_mut(chunk_len)
        .enumerate()
        .map(|(idx, chunk)| {
            let task: Box<dyn FnOnce() + Send + '_> = Box::new(move || f_ref(idx, chunk));
            task
        })
        .collect();
    scope_run(tasks, width);
}

/// Parallel for-each over individual mutable items: runs `f(i, &mut
/// items[i])` for every index, one task per item. Use when each item is a
/// substantial unit of work (a training chunk, a tree build) that mutates
/// in place; for fine-grained items prefer [`par_chunks_mut`] with a
/// larger chunk so dispatch overhead amortizes.
pub fn par_for_each_mut<T: Send>(items: &mut [T], f: impl Fn(usize, &mut T) + Sync) {
    par_chunks_mut(items, 1, |idx, chunk| f(idx, &mut chunk[0]));
}

/// Chunk size that gives each of `width` threads one contiguous chunk
/// (bounded below to amortize dispatch overhead on tiny inputs).
/// Batch-claim dispatch makes finer splitting for load balance
/// unnecessary: a straggler's chunk is the only one left, and everything
/// else was claimed without extra locking anyway.
fn chunk_size(n: usize, width: usize) -> usize {
    if n == 0 {
        return 1;
    }
    n.div_ceil(width).clamp(64.min(n), n)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn par_map_matches_sequential() {
        let items: Vec<u64> = (0..10_000).collect();
        let expect: Vec<u64> = items.iter().map(|x| x * x + 1).collect();
        let got = par_map(&items, |x| x * x + 1);
        assert_eq!(got, expect);
    }

    #[test]
    fn par_map_indexed_sees_true_indices() {
        let items: Vec<u32> = (0..5000).collect();
        let got = par_map_indexed(&items, |i, &x| (i as u32, x));
        for (i, &(idx, x)) in got.iter().enumerate() {
            assert_eq!(idx as usize, i);
            assert_eq!(x as usize, i);
        }
    }

    #[test]
    fn par_chunks_mut_covers_everything_once() {
        let mut data = vec![0u32; 4097];
        par_chunks_mut(&mut data, 64, |_idx, chunk| {
            for v in chunk {
                *v += 1;
            }
        });
        assert!(data.iter().all(|&v| v == 1));
    }

    #[test]
    fn par_for_each_mut_runs_one_task_per_item() {
        let mut data: Vec<(usize, u32)> = (0..97).map(|i| (usize::MAX, i as u32)).collect();
        par_for_each_mut(&mut data, |idx, item| {
            item.0 = idx;
            item.1 *= 2;
        });
        for (i, &(idx, v)) in data.iter().enumerate() {
            assert_eq!(idx, i);
            assert_eq!(v as usize, 2 * i);
        }
    }

    #[test]
    fn nested_calls_do_not_deadlock() {
        let outer: Vec<usize> = (0..64).collect();
        let result = par_map(&outer, |&i| {
            let inner: Vec<usize> = (0..32).collect();
            par_map(&inner, |&j| i * 100 + j).iter().sum::<usize>()
        });
        assert_eq!(result.len(), 64);
        let expect: usize = (0..32).sum();
        assert_eq!(result[0], expect);
    }

    #[test]
    fn panics_propagate() {
        let items: Vec<u32> = (0..1000).collect();
        let caught = std::panic::catch_unwind(|| {
            par_map(&items, |&x| {
                if x == 567 {
                    panic!("boom at {x}");
                }
                x
            })
        });
        assert!(caught.is_err());
        // Pool must still be usable afterwards.
        let ok = par_map(&items, |&x| x + 1);
        assert_eq!(ok[999], 1000);
    }

    #[test]
    fn borrows_from_stack() {
        let base = vec![10u64; 256];
        let items: Vec<usize> = (0..256).collect();
        let got = par_map(&items, |&i| base[i] + i as u64);
        assert_eq!(got[255], 265);
    }

    #[test]
    fn thread_cap_tightens_and_restores() {
        let uncapped = effective_threads();
        {
            let _g = thread_cap(1);
            assert_eq!(effective_threads(), 1);
            {
                // Nested caps only tighten, never widen.
                let _g2 = thread_cap(8);
                assert_eq!(effective_threads(), 1);
            }
            assert_eq!(effective_threads(), 1);
        }
        assert_eq!(effective_threads(), uncapped);
    }

    #[test]
    fn thread_cap_one_still_computes_correctly() {
        // A cap of one runs every region inline: `f` on the calling
        // thread, in index order.
        let _g = thread_cap(1);
        let caller = std::thread::current().id();
        let items: Vec<u64> = (0..4096).collect();
        let got = par_map(&items, |x| {
            assert_eq!(std::thread::current().id(), caller);
            x * 3
        });
        let expect: Vec<u64> = items.iter().map(|x| x * 3).collect();
        assert_eq!(got, expect);
        let seen = Mutex::new(Vec::new());
        par_chunks_mut(&mut [0u32; 300], 7, |idx, _chunk| {
            assert_eq!(std::thread::current().id(), caller);
            seen.lock().unwrap().push(idx);
        });
        assert_eq!(seen.into_inner().unwrap(), (0..300usize.div_ceil(7)).collect::<Vec<_>>());
    }

    #[test]
    fn concurrent_regions_from_multiple_threads() {
        // Several non-pool threads each publish batches at once; every
        // region must see exactly its own results.
        let handles: Vec<_> = (0..4)
            .map(|t| {
                std::thread::spawn(move || {
                    for round in 0..8u64 {
                        let items: Vec<u64> = (0..512).collect();
                        let got = par_map(&items, |x| x * (t + 1) + round);
                        for (i, &v) in got.iter().enumerate() {
                            assert_eq!(v, i as u64 * (t + 1) + round);
                        }
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
    }
}
