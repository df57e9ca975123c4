//! A persistent, scoped thread pool for the query engine.
//!
//! The paper's online phase calls for parallel per-partition message
//! passing, and the offline phase partitions path enumeration across
//! workers. Both previously spawned fresh OS threads per use (crossbeam
//! scoped threads — per Jacobi *round* in the worst case). This crate
//! provides the replacement: pools whose workers live for the process
//! lifetime, with a scoped `for_each` / `map` that lets borrowing closures
//! run on them (the build environment has no registry access, so `rayon`
//! itself cannot be used; this is the minimal pool the engine needs).
//!
//! Guarantees relied on by the engine:
//!
//! * **Determinism of results** — `map` writes slot `i` from task `i`, so
//!   output order never depends on scheduling; `for_each(1, ..)` and pools
//!   with one lane run inline with zero synchronization.
//! * **Scoped borrows** — the submitting call blocks until every task has
//!   finished, so tasks may borrow from the submitter's stack (enforced by
//!   the `'scope` bound on [`ThreadPool::for_each`]).
//! * **Reentrancy** — a task may itself submit work to the same pool;
//!   participants always execute the tasks they claim, so nested batches
//!   drain bottom-up and cannot deadlock.
//! * **Panic transparency** — a panicking task aborts its batch's remaining
//!   unclaimed work and the submitter re-raises the original payload.

use std::any::Any;
use std::collections::{HashMap, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::thread::JoinHandle;

/// Lifetime-erased reference to a `Fn(usize) + Sync` task body.
///
/// Safety: the submitter blocks in [`ThreadPool::for_each`] until
/// `completed == n`, so the referent strictly outlives every dereference;
/// the `'static` here is a lie told only for storage.
#[derive(Clone, Copy)]
struct RawTask(&'static (dyn Fn(usize) + Sync));

unsafe impl Send for RawTask {}
unsafe impl Sync for RawTask {}

/// One submitted parallel-for: `n` index tasks claimed atomically.
struct Batch {
    task: RawTask,
    n: usize,
    next: AtomicUsize,
    completed: AtomicUsize,
    panic: Mutex<Option<Box<dyn Any + Send>>>,
    done: Mutex<bool>,
    done_cv: Condvar,
}

impl Batch {
    /// Claims and runs indices until none remain. Returns when the batch
    /// has no unclaimed work left (other claimants may still be running).
    fn participate(&self) {
        loop {
            let i = self.next.fetch_add(1, Ordering::Relaxed);
            if i >= self.n {
                return;
            }
            let result = catch_unwind(AssertUnwindSafe(|| (self.task.0)(i)));
            if let Err(payload) = result {
                let mut slot = self.panic.lock().unwrap();
                if slot.is_none() {
                    *slot = Some(payload);
                }
                drop(slot);
                // Abandon unclaimed indices; claimed ones still complete.
                let skipped = self.n.saturating_sub(self.next.swap(self.n, Ordering::Relaxed));
                if skipped > 0 {
                    self.finish_many(skipped);
                }
            }
            self.finish_many(1);
        }
    }

    fn finish_many(&self, k: usize) {
        if self.completed.fetch_add(k, Ordering::AcqRel) + k >= self.n {
            let mut done = self.done.lock().unwrap();
            *done = true;
            self.done_cv.notify_all();
        }
    }

    fn exhausted(&self) -> bool {
        self.next.load(Ordering::Relaxed) >= self.n
    }
}

struct Shared {
    queue: Mutex<VecDeque<Arc<Batch>>>,
    work_cv: Condvar,
    shutdown: AtomicBool,
}

/// A persistent pool of worker threads executing scoped parallel loops.
pub struct ThreadPool {
    shared: Arc<Shared>,
    workers: Mutex<Vec<JoinHandle<()>>>,
    lanes: usize,
}

impl ThreadPool {
    /// Creates a pool with `lanes` compute lanes (`0` =
    /// [`machine_lanes`]). The submitting thread always participates, so
    /// `lanes - 1` OS workers are spawned; one lane means fully inline
    /// execution with no worker threads at all.
    pub fn new(lanes: usize) -> Self {
        let lanes = resolve_lanes(lanes);
        let shared = Arc::new(Shared {
            queue: Mutex::new(VecDeque::new()),
            work_cv: Condvar::new(),
            shutdown: AtomicBool::new(false),
        });
        let workers = (1..lanes)
            .map(|i| {
                let shared = shared.clone();
                std::thread::Builder::new()
                    .name(format!("pegpool-{i}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("spawn pool worker")
            })
            .collect();
        Self { shared, workers: Mutex::new(workers), lanes }
    }

    /// Number of compute lanes (submitter included).
    pub fn lanes(&self) -> usize {
        self.lanes
    }

    /// Runs `task(i)` for every `i in 0..n`, in parallel across the pool's
    /// lanes, returning once all invocations finished. Panics from tasks
    /// are re-raised here with their original payload.
    pub fn for_each(&self, n: usize, task: &(dyn Fn(usize) + Sync)) {
        if n == 0 {
            return;
        }
        if self.lanes == 1 || n == 1 {
            for i in 0..n {
                task(i);
            }
            return;
        }
        // Erase the borrow to `'static` for storage: workers only call the
        // closure inside claims, all of which complete before we return.
        // Safety: see `RawTask`.
        let raw = RawTask(unsafe {
            std::mem::transmute::<&(dyn Fn(usize) + Sync), &'static (dyn Fn(usize) + Sync)>(task)
        });
        let batch = Arc::new(Batch {
            task: raw,
            n,
            next: AtomicUsize::new(0),
            completed: AtomicUsize::new(0),
            panic: Mutex::new(None),
            done: Mutex::new(false),
            done_cv: Condvar::new(),
        });
        {
            let mut q = self.shared.queue.lock().unwrap();
            q.push_back(batch.clone());
        }
        self.shared.work_cv.notify_all();

        batch.participate();

        let mut done = batch.done.lock().unwrap();
        while !*done {
            done = batch.done_cv.wait(done).unwrap();
        }
        drop(done);
        // Drop our queue entry if no worker already popped it.
        let mut q = self.shared.queue.lock().unwrap();
        q.retain(|b| !Arc::ptr_eq(b, &batch));
        drop(q);

        let payload = batch.panic.lock().unwrap().take();
        if let Some(payload) = payload {
            std::panic::resume_unwind(payload);
        }
    }

    /// Parallel map over `0..n`: returns `vec![f(0), f(1), .., f(n-1)]`.
    /// Output order is by index, independent of scheduling.
    pub fn map<T, F>(&self, n: usize, f: F) -> Vec<T>
    where
        T: Send,
        F: Fn(usize) -> T + Sync,
    {
        if n == 0 {
            return Vec::new();
        }
        if self.lanes == 1 || n == 1 {
            return (0..n).map(f).collect();
        }
        let mut slots: Vec<Option<T>> = Vec::new();
        slots.resize_with(n, || None);
        let out = SlotWriter(slots.as_mut_ptr());
        // Borrow the wrapper whole so the closure captures `&SlotWriter`
        // (whose `Sync` gate applies) rather than the raw field.
        let out = &out;
        self.for_each(n, &move |i| {
            // Safety: each index is claimed exactly once, so slot `i` has a
            // unique writer; the Vec outlives `for_each`'s blocking call.
            unsafe { *out.0.add(i) = Some(f(i)) };
        });
        slots.into_iter().map(|s| s.expect("pool task completed")).collect()
    }

    /// Splits `0..n` into at most `lanes * oversubscribe` contiguous chunks
    /// for coarse-grained loops; always yields at least one chunk when
    /// `n > 0`.
    pub fn chunks(&self, n: usize, oversubscribe: usize) -> Vec<std::ops::Range<usize>> {
        if n == 0 {
            return Vec::new();
        }
        let pieces = (self.lanes * oversubscribe.max(1)).clamp(1, n);
        let base = n / pieces;
        let extra = n % pieces;
        let mut out = Vec::with_capacity(pieces);
        let mut start = 0;
        for i in 0..pieces {
            let len = base + usize::from(i < extra);
            out.push(start..start + len);
            start += len;
        }
        out
    }
}

/// Shared `*mut` over result slots; uniqueness per index is guaranteed by
/// the batch claim protocol.
struct SlotWriter<T>(*mut Option<T>);
unsafe impl<T: Send> Send for SlotWriter<T> {}
unsafe impl<T: Send> Sync for SlotWriter<T> {}

impl Drop for ThreadPool {
    fn drop(&mut self) {
        // Set the flag under the queue lock: a worker checks it and goes to
        // sleep under that lock, so the store cannot fall between its check
        // and its wait and leave the join below waiting for a wakeup that
        // already went by.
        {
            let _queue = self.shared.queue.lock().unwrap_or_else(|e| e.into_inner());
            self.shared.shutdown.store(true, Ordering::Relaxed);
        }
        self.shared.work_cv.notify_all();
        for h in self.workers.lock().unwrap().drain(..) {
            let _ = h.join();
        }
    }
}

fn worker_loop(shared: &Shared) {
    loop {
        let batch: Arc<Batch> = {
            let mut q = shared.queue.lock().unwrap();
            loop {
                if shared.shutdown.load(Ordering::Relaxed) {
                    return;
                }
                // Drop exhausted batches, grab the first live one.
                while let Some(front) = q.front() {
                    if front.exhausted() {
                        q.pop_front();
                    } else {
                        break;
                    }
                }
                if let Some(front) = q.front() {
                    break front.clone();
                }
                q = shared.work_cv.wait(q).unwrap();
            }
        };
        batch.participate();
    }
}

/// The machine's parallelism, resolved once per process: the lane count
/// `0` stands for, and the ceiling the serving layer clamps a client's
/// `threads` to. `available_parallelism` reads cgroup files on every call
/// (≈10–20 µs), too dear for a per-request path, so the first call's
/// answer is kept; a CPU quota or affinity change after that is not seen.
pub fn machine_lanes() -> usize {
    static LANES: OnceLock<usize> = OnceLock::new();
    *LANES.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

fn resolve_lanes(requested: usize) -> usize {
    if requested == 0 {
        machine_lanes()
    } else {
        requested
    }
}

/// Process-wide pool cache: one persistent pool per lane count, so every
/// query at a given `threads` setting shares workers instead of spawning.
pub fn pool_with(lanes: usize) -> Arc<ThreadPool> {
    static POOLS: OnceLock<Mutex<HashMap<usize, Arc<ThreadPool>>>> = OnceLock::new();
    let lanes = resolve_lanes(lanes);
    let pools = POOLS.get_or_init(|| Mutex::new(HashMap::new()));
    let mut map = pools.lock().unwrap();
    map.entry(lanes).or_insert_with(|| Arc::new(ThreadPool::new(lanes))).clone()
}

/// The default shared pool (available parallelism).
pub fn global() -> Arc<ThreadPool> {
    pool_with(0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn for_each_covers_every_index_once() {
        let pool = ThreadPool::new(4);
        let hits: Vec<AtomicUsize> = (0..1000).map(|_| AtomicUsize::new(0)).collect();
        pool.for_each(1000, &|i| {
            hits[i].fetch_add(1, Ordering::Relaxed);
        });
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn map_preserves_index_order() {
        for lanes in [1, 2, 4] {
            let pool = ThreadPool::new(lanes);
            let out = pool.map(257, |i| i * i);
            assert_eq!(out, (0..257).map(|i| i * i).collect::<Vec<_>>());
        }
    }

    #[test]
    fn tasks_can_borrow_the_callers_stack() {
        let pool = ThreadPool::new(3);
        let data: Vec<u64> = (0..100).collect();
        let total = AtomicU64::new(0);
        pool.for_each(data.len(), &|i| {
            total.fetch_add(data[i], Ordering::Relaxed);
        });
        assert_eq!(total.load(Ordering::Relaxed), 4950);
    }

    #[test]
    fn nested_submission_completes() {
        let pool = Arc::new(ThreadPool::new(2));
        let inner_total = AtomicU64::new(0);
        let p2 = pool.clone();
        pool.for_each(4, &|_| {
            p2.for_each(8, &|j| {
                inner_total.fetch_add(j as u64, Ordering::Relaxed);
            });
        });
        assert_eq!(inner_total.load(Ordering::Relaxed), 4 * 28);
    }

    #[test]
    fn panics_propagate_with_payload() {
        let pool = ThreadPool::new(2);
        let err = std::panic::catch_unwind(AssertUnwindSafe(|| {
            pool.for_each(64, &|i| {
                if i == 13 {
                    panic!("boom at {i}");
                }
            });
        }))
        .unwrap_err();
        let msg = err.downcast_ref::<String>().expect("string payload");
        assert!(msg.contains("boom at 13"));
        // The pool stays usable after a panicked batch.
        let out = pool.map(10, |i| i + 1);
        assert_eq!(out[9], 10);
    }

    #[test]
    fn chunks_partition_the_range() {
        let pool = ThreadPool::new(3);
        for n in [1usize, 2, 7, 100] {
            let chunks = pool.chunks(n, 2);
            assert!(!chunks.is_empty());
            let mut covered = 0;
            for (k, c) in chunks.iter().enumerate() {
                assert_eq!(c.start, covered, "chunk {k} contiguous");
                covered = c.end;
            }
            assert_eq!(covered, n);
        }
        assert!(pool.chunks(0, 2).is_empty());
    }

    #[test]
    fn dropping_a_pool_wakes_every_worker() {
        // A worker between its shutdown check and its wait when the pool
        // drops must still be woken; a missed wakeup leaves `drop` joining
        // forever, so the loops run on threads the test can time out on.
        // Dropping straight after `new` catches workers on their way to
        // sleep, dropping after a batch catches them coming back from one,
        // and eight loops at once get a worker preempted inside that window
        // (with the flag set outside the queue lock this fails every time).
        let (done, finished) = std::sync::mpsc::channel();
        for _ in 0..8 {
            let done = done.clone();
            std::thread::spawn(move || {
                for round in 0..3000 {
                    let pool = ThreadPool::new(4);
                    if round % 2 == 1 {
                        pool.for_each(8, &|_| {});
                    }
                    drop(pool);
                }
                done.send(()).unwrap();
            });
        }
        for _ in 0..8 {
            finished
                .recv_timeout(std::time::Duration::from_secs(60))
                .expect("a pool drop is stuck joining a worker that missed its wakeup");
        }
    }

    #[test]
    fn machine_lanes_is_the_available_parallelism() {
        let machine = std::thread::available_parallelism().map_or(1, |n| n.get());
        assert_eq!(machine_lanes(), machine);
        assert_eq!(resolve_lanes(0), machine);
        assert_eq!(resolve_lanes(3), 3);
    }

    #[test]
    fn shared_pools_are_cached_per_size() {
        let a = pool_with(2);
        let b = pool_with(2);
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(pool_with(1).lanes(), 1);
    }
}
