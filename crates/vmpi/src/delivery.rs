//! Deferred-completion engine.
//!
//! Messages under a non-instant [`crate::NetworkModel`] become available
//! some time after they were sent. The [`DeliveryService`] owns a single
//! background thread with a time-ordered job queue; each job completes a
//! request (writing the payload, firing callbacks) at its due time.

use parking_lot::{Condvar, Mutex};
use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::thread::JoinHandle;
use std::time::Instant;

type Job = Box<dyn FnOnce() + Send>;

struct QueuedJob {
    due: Instant,
    seq: u64,
    run: Job,
}

impl PartialEq for QueuedJob {
    fn eq(&self, other: &Self) -> bool {
        self.due == other.due && self.seq == other.seq
    }
}
impl Eq for QueuedJob {}
impl PartialOrd for QueuedJob {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for QueuedJob {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert so the earliest due time pops
        // first, with the insertion sequence as a deterministic tiebreak.
        other
            .due
            .cmp(&self.due)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

struct DeliveryInner {
    queue: BinaryHeap<QueuedJob>,
    next_seq: u64,
    shutdown: bool,
}

pub(crate) struct DeliveryService {
    inner: Mutex<DeliveryInner>,
    cond: Condvar,
    handle: Mutex<Option<JoinHandle<()>>>,
}

impl DeliveryService {
    pub(crate) fn new() -> std::sync::Arc<Self> {
        let service = std::sync::Arc::new(DeliveryService {
            inner: Mutex::new(DeliveryInner {
                queue: BinaryHeap::new(),
                next_seq: 0,
                shutdown: false,
            }),
            cond: Condvar::new(),
            handle: Mutex::new(None),
        });
        let worker = std::sync::Arc::clone(&service);
        let handle = std::thread::Builder::new()
            .name("vmpi-delivery".into())
            .spawn(move || {
                // Events emitted from deferred jobs land on the network lane.
                obs::set_thread_worker(obs::LANE_NET);
                worker.run_loop()
            })
            // Fails only when the OS refuses another thread: resource
            // exhaustion, stated under `World::with_chaos`'s `# Panics`.
            .expect("spawn vmpi delivery thread");
        *service.handle.lock() = Some(handle);
        service
    }

    /// Schedules `job` to run at `due`. Jobs whose due time has already
    /// passed run inline on the caller's thread, which keeps the instant
    /// network model free of cross-thread latency.
    pub(crate) fn schedule(&self, due: Instant, job: Job) {
        if due <= Instant::now() {
            job();
            return;
        }
        let mut inner = self.inner.lock();
        let seq = inner.next_seq;
        inner.next_seq += 1;
        inner.queue.push(QueuedJob { due, seq, run: job });
        drop(inner);
        self.cond.notify_one();
    }

    fn run_loop(&self) {
        loop {
            let job = {
                let mut inner = self.inner.lock();
                loop {
                    if let Some(top) = inner.queue.peek() {
                        // At shutdown every job is due: nothing waits any
                        // more for the time it models.
                        if inner.shutdown || top.due <= Instant::now() {
                            break inner.queue.pop().map(|j| j.run);
                        }
                        let due = top.due;
                        self.cond.wait_until(&mut inner, due);
                    } else if inner.shutdown {
                        return;
                    } else {
                        self.cond.wait(&mut inner);
                    }
                }
            };
            if let Some(job) = job {
                job();
            }
        }
    }

    /// Signals shutdown and joins the thread, which first runs every
    /// remaining job at once, the jobs those jobs schedule included, so
    /// any outstanding request completes.
    pub(crate) fn shutdown(&self) {
        self.inner.lock().shutdown = true;
        self.cond.notify_all();
        let handle = self.handle.lock().take();
        if let Some(h) = handle {
            let _ = h.join();
        }
    }
}
