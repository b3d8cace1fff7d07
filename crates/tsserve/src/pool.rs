//! A hand-rolled bounded thread pool with rejecting submission.
//!
//! The queue has a hard capacity: [`BoundedPool::try_submit`] returns
//! the item back instead of blocking or growing without bound, which is
//! what lets the accept loop shed load with a 503 while still owning
//! the connection. Workers wrap every job in `catch_unwind`, so a
//! panicking request takes down neither its worker thread nor the
//! process.

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

struct PoolQueue<T> {
    items: VecDeque<T>,
    closed: bool,
}

struct PoolShared<T> {
    queue: Mutex<PoolQueue<T>>,
    ready: Condvar,
    capacity: usize,
    panics: AtomicU64,
}

/// Fixed worker threads draining a bounded queue of `T`.
pub struct BoundedPool<T: Send + 'static> {
    shared: Arc<PoolShared<T>>,
    workers: Vec<JoinHandle<()>>,
}

impl<T: Send + 'static> BoundedPool<T> {
    /// Spawns `workers` threads, each running `run` on dequeued items.
    /// At most `capacity` items wait in the queue at once.
    pub fn new<F>(workers: usize, capacity: usize, run: F) -> Self
    where
        F: Fn(T) + Send + Sync + 'static,
    {
        let shared = Arc::new(PoolShared {
            queue: Mutex::new(PoolQueue {
                items: VecDeque::with_capacity(capacity),
                closed: false,
            }),
            ready: Condvar::new(),
            capacity: capacity.max(1),
            panics: AtomicU64::new(0),
        });
        let run = Arc::new(run);
        let handles = (0..workers.max(1))
            .map(|i| {
                let shared = Arc::clone(&shared);
                let run = Arc::clone(&run);
                std::thread::Builder::new()
                    .name(format!("tsserve-worker-{i}"))
                    .spawn(move || worker_loop(&shared, &*run))
                    .expect("spawn pool worker")
            })
            .collect();
        BoundedPool {
            shared,
            workers: handles,
        }
    }

    /// Enqueues `item`, or hands it back when the queue is full or the
    /// pool is shutting down. `Ok` carries the queue depth after the
    /// push (for pressure accounting).
    pub fn try_submit(&self, item: T) -> Result<usize, T> {
        let mut q = lock_unpoisoned(&self.shared.queue);
        if q.closed || q.items.len() >= self.shared.capacity {
            return Err(item);
        }
        q.items.push_back(item);
        let depth = q.items.len();
        drop(q);
        self.shared.ready.notify_one();
        Ok(depth)
    }

    /// Items currently queued (not counting ones being executed).
    pub fn queue_len(&self) -> usize {
        lock_unpoisoned(&self.shared.queue).items.len()
    }

    /// Jobs that panicked (and were contained) since startup.
    pub fn panics(&self) -> u64 {
        self.shared.panics.load(Ordering::Relaxed)
    }

    /// Closes the queue, lets workers finish every already-queued item,
    /// and joins them. Returns the number of contained panics.
    pub fn shutdown(self) -> u64 {
        lock_unpoisoned(&self.shared.queue).closed = true;
        self.shared.ready.notify_all();
        for handle in self.workers {
            let _ = handle.join();
        }
        self.shared.panics.load(Ordering::Relaxed)
    }
}

fn worker_loop<T, F: Fn(T)>(shared: &PoolShared<T>, run: &F) {
    loop {
        let item = {
            let mut q = lock_unpoisoned(&shared.queue);
            loop {
                if let Some(item) = q.items.pop_front() {
                    break item;
                }
                if q.closed {
                    return;
                }
                q = shared
                    .ready
                    .wait(q)
                    .unwrap_or_else(std::sync::PoisonError::into_inner);
            }
        };
        if catch_unwind(AssertUnwindSafe(|| run(item))).is_err() {
            shared.panics.fetch_add(1, Ordering::Relaxed);
        }
    }
}

/// Pool state is plain data; a panicking job must not poison the queue
/// for every later request.
pub(crate) fn lock_unpoisoned<T>(mutex: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    mutex
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;
    use std::time::Duration;

    #[test]
    fn runs_jobs_and_drains_on_shutdown() {
        let done = Arc::new(AtomicUsize::new(0));
        let d = Arc::clone(&done);
        let pool = BoundedPool::new(3, 64, move |x: usize| {
            d.fetch_add(x, Ordering::SeqCst);
        });
        for _ in 0..50 {
            let mut item = 1usize;
            loop {
                match pool.try_submit(item) {
                    Ok(_) => break,
                    Err(back) => {
                        item = back;
                        std::thread::sleep(Duration::from_millis(1));
                    }
                }
            }
        }
        assert_eq!(pool.shutdown(), 0);
        assert_eq!(done.load(Ordering::SeqCst), 50);
    }

    #[test]
    fn rejects_when_saturated() {
        let gate = Arc::new(Mutex::new(()));
        let held = gate.lock().unwrap();
        let g = Arc::clone(&gate);
        let pool = BoundedPool::new(1, 2, move |_x: usize| {
            drop(g.lock().unwrap_or_else(std::sync::PoisonError::into_inner));
        });
        // One job blocks the worker; two fill the queue; the next is
        // rejected and handed back.
        pool.try_submit(0).unwrap();
        std::thread::sleep(Duration::from_millis(30));
        pool.try_submit(1).unwrap();
        pool.try_submit(2).unwrap();
        assert_eq!(pool.try_submit(3), Err(3));
        drop(held);
        pool.shutdown();
    }

    #[test]
    fn contains_panics_and_keeps_serving() {
        let done = Arc::new(AtomicUsize::new(0));
        let d = Arc::clone(&done);
        let pool = BoundedPool::new(1, 8, move |x: usize| {
            if x == 0 {
                panic!("probe");
            }
            d.fetch_add(1, Ordering::SeqCst);
        });
        pool.try_submit(0).unwrap();
        pool.try_submit(1).unwrap();
        pool.try_submit(0).unwrap();
        pool.try_submit(1).unwrap();
        assert_eq!(pool.shutdown(), 2);
        assert_eq!(done.load(Ordering::SeqCst), 2);
    }
}
