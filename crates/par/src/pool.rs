//! A persistent work-stealing thread pool.
//!
//! Architecture (the classic Chase–Lev arrangement, as used by rayon):
//!
//! * one global [`crossbeam::deque::Injector`] receives jobs submitted from
//!   outside the pool;
//! * each worker owns a local LIFO [`crossbeam::deque::Worker`] deque and
//!   exposes a [`crossbeam::deque::Stealer`] to its siblings;
//! * an idle worker tries: local pop → injector steal → sibling steal, and
//!   parks on a condvar when everything is empty.
//!
//! Job completion is tracked with a `(Mutex<usize>, Condvar)` latch so
//! [`ThreadPool::join`] can block until the pool is quiescent.
//!
//! The pool accepts `'static` jobs. For borrowing data-parallel loops, use
//! [`crate::scope`] instead — the estimators do. Only tests use the pool;
//! it stays until `perfbench/Cargo.lock`, which lists `crossbeam` and
//! `parking_lot` under `mrw-par`, can drop them together with it.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

use crossbeam::deque::{Injector, Steal, Stealer, Worker};
use parking_lot::{Condvar, Mutex};

type Job = Box<dyn FnOnce() + Send + 'static>;

struct Shared {
    injector: Injector<Job>,
    stealers: Vec<Stealer<Job>>,
    /// Jobs submitted but not yet finished executing.
    pending: AtomicUsize,
    /// Set when the pool is shutting down.
    shutdown: AtomicBool,
    /// Sleep/wake machinery for idle workers.
    sleep_mutex: Mutex<()>,
    sleep_cv: Condvar,
    /// Quiescence latch for `join`.
    done_mutex: Mutex<()>,
    done_cv: Condvar,
}

impl Shared {
    fn notify_one(&self) {
        let _g = self.sleep_mutex.lock();
        self.sleep_cv.notify_one();
    }

    fn notify_all(&self) {
        let _g = self.sleep_mutex.lock();
        self.sleep_cv.notify_all();
    }

    fn job_finished(&self) {
        if self.pending.fetch_sub(1, Ordering::AcqRel) == 1 {
            let _g = self.done_mutex.lock();
            self.done_cv.notify_all();
        }
    }
}

/// A fixed-size work-stealing thread pool.
///
/// ```
/// use mrw_par::ThreadPool;
/// use std::sync::atomic::{AtomicU64, Ordering};
/// use std::sync::Arc;
///
/// let pool = ThreadPool::new(4);
/// let sum = Arc::new(AtomicU64::new(0));
/// for i in 0..100u64 {
///     let sum = Arc::clone(&sum);
///     pool.execute(move || {
///         sum.fetch_add(i, Ordering::Relaxed);
///     });
/// }
/// pool.join();
/// assert_eq!(sum.load(Ordering::Relaxed), 4950);
/// ```
pub struct ThreadPool {
    shared: Arc<Shared>,
    handles: Vec<JoinHandle<()>>,
    threads: usize,
}

impl ThreadPool {
    /// Spawns a pool with `threads` workers (`threads ≥ 1`).
    pub fn new(threads: usize) -> Self {
        assert!(threads >= 1, "pool needs at least one thread");
        let workers: Vec<Worker<Job>> = (0..threads).map(|_| Worker::new_lifo()).collect();
        let stealers: Vec<Stealer<Job>> = workers.iter().map(|w| w.stealer()).collect();
        let shared = Arc::new(Shared {
            injector: Injector::new(),
            stealers,
            pending: AtomicUsize::new(0),
            shutdown: AtomicBool::new(false),
            sleep_mutex: Mutex::new(()),
            sleep_cv: Condvar::new(),
            done_mutex: Mutex::new(()),
            done_cv: Condvar::new(),
        });
        let handles = workers
            .into_iter()
            .enumerate()
            .map(|(idx, local)| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("mrw-worker-{idx}"))
                    .spawn(move || worker_loop(idx, local, shared))
                    .expect("failed to spawn pool worker")
            })
            .collect();
        ThreadPool {
            shared,
            handles,
            threads,
        }
    }

    /// Spawns a pool sized to the machine
    /// (`std::thread::available_parallelism`).
    pub fn with_default_size() -> Self {
        Self::new(crate::scope::available_threads())
    }

    /// Number of worker threads.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Submits a job for execution.
    pub fn execute<F: FnOnce() + Send + 'static>(&self, job: F) {
        self.shared.pending.fetch_add(1, Ordering::AcqRel);
        self.shared.injector.push(Box::new(job));
        self.shared.notify_one();
    }

    /// Blocks until every submitted job has finished.
    ///
    /// Jobs may themselves submit more jobs; `join` waits for the transitive
    /// closure to drain.
    pub fn join(&self) {
        let mut guard = self.shared.done_mutex.lock();
        while self.shared.pending.load(Ordering::Acquire) != 0 {
            self.shared.done_cv.wait(&mut guard);
        }
    }

    /// Number of jobs submitted but not yet completed.
    pub fn pending(&self) -> usize {
        self.shared.pending.load(Ordering::Acquire)
    }
}

impl Drop for ThreadPool {
    fn drop(&mut self) {
        self.join();
        self.shared.shutdown.store(true, Ordering::Release);
        self.shared.notify_all();
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

fn find_job(idx: usize, local: &Worker<Job>, shared: &Shared) -> Option<Job> {
    if let Some(job) = local.pop() {
        return Some(job);
    }
    // Drain a batch from the injector into the local deque, then retry.
    loop {
        match shared.injector.steal_batch_and_pop(local) {
            Steal::Success(job) => return Some(job),
            Steal::Empty => break,
            Steal::Retry => continue,
        }
    }
    // Steal from siblings, starting after our own index to spread load.
    let n = shared.stealers.len();
    for off in 1..n {
        let victim = (idx + off) % n;
        loop {
            match shared.stealers[victim].steal() {
                Steal::Success(job) => return Some(job),
                Steal::Empty => break,
                Steal::Retry => continue,
            }
        }
    }
    None
}

fn worker_loop(idx: usize, local: Worker<Job>, shared: Arc<Shared>) {
    loop {
        if let Some(job) = find_job(idx, &local, &shared) {
            job();
            shared.job_finished();
            continue;
        }
        if shared.shutdown.load(Ordering::Acquire) {
            return;
        }
        // Park until new work arrives. Re-check the queues under the lock to
        // avoid a lost wakeup between the failed find_job and the wait.
        let mut guard = shared.sleep_mutex.lock();
        if shared.shutdown.load(Ordering::Acquire) {
            return;
        }
        if shared.injector.is_empty() && shared.pending.load(Ordering::Acquire) == 0 {
            shared.sleep_cv.wait(&mut guard);
        } else if shared.injector.is_empty() {
            // Pending jobs exist but are on other workers' deques; naps
            // bounded so we retry stealing soon.
            shared
                .sleep_cv
                .wait_for(&mut guard, std::time::Duration::from_millis(1));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn executes_all_jobs() {
        let pool = ThreadPool::new(4);
        let counter = Arc::new(AtomicU64::new(0));
        for _ in 0..1000 {
            let c = Arc::clone(&counter);
            pool.execute(move || {
                c.fetch_add(1, Ordering::Relaxed);
            });
        }
        pool.join();
        assert_eq!(counter.load(Ordering::Relaxed), 1000);
    }

    #[test]
    fn join_on_empty_pool_returns() {
        let pool = ThreadPool::new(2);
        pool.join();
        assert_eq!(pool.pending(), 0);
    }

    #[test]
    fn nested_submission() {
        let pool = Arc::new(ThreadPool::new(3));
        let counter = Arc::new(AtomicU64::new(0));
        for _ in 0..10 {
            let c = Arc::clone(&counter);
            let p = Arc::clone(&pool);
            pool.execute(move || {
                for _ in 0..10 {
                    let c2 = Arc::clone(&c);
                    p.execute(move || {
                        c2.fetch_add(1, Ordering::Relaxed);
                    });
                }
            });
        }
        pool.join();
        assert_eq!(counter.load(Ordering::Relaxed), 100);
    }

    #[test]
    fn single_thread_pool_works() {
        let pool = ThreadPool::new(1);
        let counter = Arc::new(AtomicU64::new(0));
        for i in 0..50u64 {
            let c = Arc::clone(&counter);
            pool.execute(move || {
                c.fetch_add(i, Ordering::Relaxed);
            });
        }
        pool.join();
        assert_eq!(counter.load(Ordering::Relaxed), 1225);
    }

    #[test]
    fn drop_joins_outstanding_work() {
        let counter = Arc::new(AtomicU64::new(0));
        {
            let pool = ThreadPool::new(2);
            for _ in 0..100 {
                let c = Arc::clone(&counter);
                pool.execute(move || {
                    std::thread::sleep(std::time::Duration::from_micros(100));
                    c.fetch_add(1, Ordering::Relaxed);
                });
            }
            // Dropped here without an explicit join.
        }
        assert_eq!(counter.load(Ordering::Relaxed), 100);
    }

    #[test]
    fn reuse_after_join() {
        let pool = ThreadPool::new(2);
        let counter = Arc::new(AtomicU64::new(0));
        for round in 0..3 {
            for _ in 0..100 {
                let c = Arc::clone(&counter);
                pool.execute(move || {
                    c.fetch_add(1, Ordering::Relaxed);
                });
            }
            pool.join();
            assert_eq!(counter.load(Ordering::Relaxed), (round + 1) * 100);
        }
    }

    #[test]
    #[should_panic(expected = "at least one thread")]
    fn zero_threads_rejected() {
        ThreadPool::new(0);
    }
}
