//! The two ways this crate runs work on other threads.
//!
//! * [`WorkerPool`] — N **persistent** workers fed through one shared
//!   injector channel, for request streams: the [`Service`](crate::Service)
//!   answers requests on one and the [`Portfolio`](crate::Portfolio)
//!   races its arms on another. Workers live as long as the pool;
//!   dropping the pool closes the channel, lets the workers drain what
//!   was already submitted, and joins them (graceful shutdown). A
//!   panicking job is **isolated**: the worker catches the unwind, counts
//!   it ([`WorkerPool::panicked_jobs`]) and keeps serving.
//! * [`parallel_map`] — the one batch fan-out: a `Vec` of items across
//!   scoped threads that live for one call, results in input order, a
//!   panic in the job re-raised on the caller. The
//!   [`Engine`](crate::Engine) batch path and the t1/t2 sweeps use it.
//!
//! A `threads` of 1 degrades to a plain in-order loop on the calling
//! thread — sequential baselines stay honest.

use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::thread::JoinHandle;

/// A unit of work: owns everything it touches (`'static`), so it can
/// cross the injector channel to whichever worker is free.
type Job = Box<dyn FnOnce() + Send + 'static>;

/// The shared injector: a closable MPMC queue (mutex + condvar — the
/// std mpsc receiver is single-consumer, and workers are many).
struct Injector {
    state: Mutex<InjectorState>,
    ready: Condvar,
}

struct InjectorState {
    queue: VecDeque<Job>,
    closed: bool,
}

impl Injector {
    fn new() -> Injector {
        Injector {
            state: Mutex::new(InjectorState {
                queue: VecDeque::new(),
                closed: false,
            }),
            ready: Condvar::new(),
        }
    }

    fn push(&self, job: Job) {
        let mut st = self.state.lock().expect("pool injector poisoned");
        debug_assert!(!st.closed, "submit after shutdown");
        st.queue.push_back(job);
        drop(st);
        self.ready.notify_one();
    }

    /// Blocks until a job is available or the channel is closed *and*
    /// drained (graceful shutdown finishes accepted work first).
    fn pop(&self) -> Option<Job> {
        let mut st = self.state.lock().expect("pool injector poisoned");
        loop {
            if let Some(job) = st.queue.pop_front() {
                return Some(job);
            }
            if st.closed {
                return None;
            }
            st = self.ready.wait(st).expect("pool injector poisoned");
        }
    }

    fn close(&self) {
        self.state.lock().expect("pool injector poisoned").closed = true;
        self.ready.notify_all();
    }
}

/// A persistent, channel-fed worker pool. See the module docs.
pub struct WorkerPool {
    injector: Arc<Injector>,
    workers: Vec<JoinHandle<()>>,
    panicked: Arc<AtomicU64>,
}

/// Resolves a configured thread count: 0 means one worker per available
/// core. The core count is read once per process: `available_parallelism`
/// re-reads the cgroup CPU quota on every call, a cost each one-query
/// `solve_batch` would otherwise pay.
fn effective_threads(threads: usize) -> usize {
    static CORES: OnceLock<usize> = OnceLock::new();
    if threads > 0 {
        threads
    } else {
        *CORES.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
    }
}

impl WorkerPool {
    /// Spawns a pool of `threads` persistent workers (0 = one per
    /// available core).
    pub fn new(threads: usize) -> WorkerPool {
        let threads = effective_threads(threads);
        let injector = Arc::new(Injector::new());
        let panicked = Arc::new(AtomicU64::new(0));
        let workers = (0..threads)
            .map(|i| {
                let injector = Arc::clone(&injector);
                let panicked = Arc::clone(&panicked);
                std::thread::Builder::new()
                    .name(format!("hsa-worker-{i}"))
                    .spawn(move || {
                        while let Some(job) = injector.pop() {
                            // Panic isolation: a poisoned job must not take
                            // its worker (or the whole pool) down with it.
                            if catch_unwind(AssertUnwindSafe(job)).is_err() {
                                panicked.fetch_add(1, Ordering::Relaxed);
                            }
                        }
                    })
                    .expect("spawn pool worker")
            })
            .collect();
        WorkerPool {
            injector,
            workers,
            panicked,
        }
    }

    /// Number of worker threads.
    pub fn size(&self) -> usize {
        self.workers.len()
    }

    /// Jobs that panicked since the pool started (each was isolated; the
    /// worker kept running).
    pub fn panicked_jobs(&self) -> u64 {
        self.panicked.load(Ordering::Relaxed)
    }

    /// Submits one fire-and-forget job to whichever worker frees up
    /// first. Result delivery (if any) is the job's own business — pair
    /// with an mpsc sender or a reply slot.
    pub fn submit(&self, job: impl FnOnce() + Send + 'static) {
        self.injector.push(Box::new(job));
    }
}

impl Drop for WorkerPool {
    /// Graceful shutdown: close the injector, let workers drain what was
    /// already accepted, join them all.
    ///
    /// A job may hold the last handle to its own pool (a reply callback
    /// that owns the service, say). That worker cannot join itself: it is
    /// left to finish the queue and exit on its own.
    fn drop(&mut self) {
        self.injector.close();
        let me = std::thread::current().id();
        for w in self.workers.drain(..) {
            if w.thread().id() != me {
                let _ = w.join();
            }
        }
    }
}

/// Runs `job` over `items` on `threads` workers, collecting results in
/// input order.
///
/// A `threads` of 0 means one worker per available core; the count is
/// capped at `items.len()`. The workers are scoped threads that live for
/// this call only — the caller is one of them — and claim items through
/// one shared index, so uneven items balance across whoever is free. A
/// batch of at most one item, or one thread, runs as a plain in-order
/// loop on the calling thread. A panic in `job` reaches the caller.
pub fn parallel_map<T, R, F>(items: Vec<T>, threads: usize, job: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    let n = items.len();
    let threads = effective_threads(threads).min(n);
    if threads <= 1 {
        return items.into_iter().map(job).collect();
    }
    // One slot per item, each taken by exactly one worker (so its lock is
    // never contended); `next` hands out the indices.
    let slots: Vec<Mutex<Option<T>>> = items.into_iter().map(|t| Mutex::new(Some(t))).collect();
    let next = AtomicUsize::new(0);
    let work = || {
        let mut done = Vec::new();
        loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            let Some(slot) = slots.get(i) else {
                return done;
            };
            let item = slot.lock().expect("batch slot poisoned").take();
            done.push((i, job(item.expect("each index is claimed once"))));
        }
    };
    let mut done = std::thread::scope(|s| {
        let helpers: Vec<_> = (1..threads).map(|_| s.spawn(work)).collect();
        let mut done = work();
        for helper in helpers {
            done.extend(
                helper
                    .join()
                    .unwrap_or_else(|payload| resume_unwind(payload)),
            );
        }
        done
    });
    done.sort_unstable_by_key(|&(i, _)| i);
    done.into_iter().map(|(_, r)| r).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc;
    use std::time::Duration;

    #[test]
    fn parallel_map_preserves_order() {
        let items: Vec<u64> = (0..100).collect();
        let out = parallel_map(items, 4, |x| x * 2);
        assert_eq!(out, (0..100).map(|x| x * 2).collect::<Vec<_>>());
        // Uneven jobs finish out of order; the results must not.
        let out = parallel_map((0..24u64).collect(), 3, |x| {
            std::thread::sleep(Duration::from_micros((x % 4) * 200));
            x + 1
        });
        assert_eq!(out, (1..=24).collect::<Vec<_>>());
    }

    #[test]
    fn parallel_map_handles_empty_and_single_thread() {
        let out: Vec<u32> = parallel_map(Vec::<u32>::new(), 3, |x| x);
        assert!(out.is_empty());
        let out = parallel_map(vec![5u32, 6], 0, |x| x + 1);
        assert_eq!(out, vec![6, 7]);
        let out = parallel_map(vec![5u32, 6], 1, |x| x + 1);
        assert_eq!(out, vec![6, 7]);
    }

    #[test]
    fn submitted_jobs_complete_before_shutdown() {
        let (tx, rx) = mpsc::channel();
        {
            let pool = WorkerPool::new(2);
            assert_eq!(pool.size(), 2);
            for i in 0..20u32 {
                let tx = tx.clone();
                pool.submit(move || {
                    let _ = tx.send(i);
                });
            }
            // Drop closes the injector and joins: every accepted job must
            // have run by the time the pool is gone.
        }
        drop(tx);
        let mut got: Vec<u32> = rx.iter().collect();
        got.sort_unstable();
        assert_eq!(got, (0..20).collect::<Vec<_>>());
    }

    #[test]
    fn pool_dropped_by_its_own_worker_shuts_down_cleanly() {
        let pool = Arc::new(WorkerPool::new(2));
        let last = Arc::clone(&pool);
        let (go_tx, go_rx) = mpsc::channel::<()>();
        let (done_tx, done_rx) = mpsc::channel();
        pool.submit(move || {
            go_rx.recv().unwrap();
            drop(last); // the last handle: this worker runs the pool's drop
            done_tx.send(()).unwrap();
        });
        drop(pool);
        go_tx.send(()).unwrap();
        // A self-join would panic (EDEADLK) before the send.
        done_rx
            .recv_timeout(Duration::from_secs(5))
            .expect("the drop on a worker returns");
    }

    #[test]
    fn panicking_job_is_isolated_and_counted() {
        // One worker: the FIFO injector runs the second job behind the
        // panicking one on the very worker that caught it, so its reply
        // orders the read below after the count — and proves the
        // panicking worker keeps serving.
        let pool = WorkerPool::new(1);
        assert_eq!(pool.panicked_jobs(), 0);
        pool.submit(|| panic!("boom"));
        let (tx, rx) = mpsc::channel();
        pool.submit(move || {
            let _ = tx.send([1u32, 2, 3].map(|x| x * 10));
        });
        assert_eq!(rx.recv().unwrap(), [10, 20, 30]);
        assert_eq!(pool.panicked_jobs(), 1);
    }

    #[test]
    fn batch_panic_propagates_to_the_caller() {
        let result = catch_unwind(|| {
            parallel_map(vec![0u32, 1, 2, 3], 2, |x| {
                assert!(x != 2, "poisoned item");
                x
            })
        });
        let payload = result.expect_err("the job's panic must reach the caller");
        // The job's own payload, not a generic scoped-thread message.
        let msg = (payload.downcast_ref::<&str>().copied())
            .or_else(|| payload.downcast_ref::<String>().map(String::as_str));
        assert_eq!(msg, Some("poisoned item"));
        // And the next batch runs as usual.
        let out = parallel_map(vec![7u32], 2, |x| x + 1);
        assert_eq!(out, vec![8]);
    }
}
