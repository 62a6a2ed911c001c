//! Work-stealing scheduler.
//!
//! Each worker owns a queue it pushes to and pops from at the back
//! (LIFO); ready tasks from outside (the main thread, the delivery thread
//! of the communication substrate, another runtime's workers) land in a
//! global injector, while tasks unblocked by a completing task are pushed
//! to the completing worker's own queue — popped next because the owner's
//! end is LIFO. That is the *immediate successor* policy the paper
//! credits for the cache-locality (IPC) improvement of the data-flow
//! variant. A thief takes from the front of a sibling's queue. Every
//! queue is a `Mutex<VecDeque>`.
//!
//! ## Parking
//!
//! A push pays for a wake-up only when a worker is parked. A worker that
//! runs dry *announces* itself in `sleepers`, looks through the queues
//! once more, and only then parks on the condvar; a push enqueues first
//! and reads `sleepers` second. Both sides are sequentially consistent,
//! so either the push sees the announcement (and leaves a wake under the
//! park lock), or the worker's second look sees the task. The park is
//! bounded by [`PARK_TICK`] all the same, so any wake-up this argument
//! missed costs one tick, not a hang.

use crate::task::TaskShared;
use parking_lot::{Condvar, Mutex};
use std::cell::Cell;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

type TaskRef = Arc<TaskShared>;

/// Longest a worker parks before it looks at the queues again.
const PARK_TICK: Duration = Duration::from_millis(1);

struct ParkState {
    /// Wakes left for announced workers that have not reached the condvar
    /// yet (a notification only reaches a thread already waiting).
    pending_wakes: usize,
}

/// A worker's queue, on cache lines of its own: its owner locks it for
/// every push and pop, and must not contend with a neighbour's queue.
#[repr(align(128))]
struct Queue(Mutex<VecDeque<TaskRef>>);

pub(crate) struct Scheduler {
    /// One queue per worker, by worker index.
    queues: Box<[Queue]>,
    /// Ready tasks from outside the workers, FIFO; the high-priority
    /// injector is looked at first.
    injector: Mutex<VecDeque<TaskRef>>,
    hi_injector: Mutex<VecDeque<TaskRef>>,
    /// Workers that announced they are about to park (or are parked).
    sleepers: AtomicUsize,
    park_lock: Mutex<ParkState>,
    park_cond: Condvar,
    pub shutdown: AtomicBool,
    pub immediate_successor: bool,
}

thread_local! {
    /// The scheduler whose worker runs on this thread and that worker's
    /// index (a null scheduler on non-worker threads). A task of one
    /// runtime may release a task of another (an event hold dropped on a
    /// foreign worker), and the successor must not land on a queue its
    /// own workers do not pop.
    static LOCAL: Cell<(*const Scheduler, usize)> = const { Cell::new((std::ptr::null(), 0)) };
}

impl Scheduler {
    /// Creates the scheduler with one queue per worker.
    pub(crate) fn new(n_workers: usize, immediate_successor: bool) -> Scheduler {
        Scheduler {
            queues: (0..n_workers).map(|_| Queue(Mutex::default())).collect(),
            injector: Mutex::default(),
            hi_injector: Mutex::default(),
            sleepers: AtomicUsize::new(0),
            park_lock: Mutex::new(ParkState { pending_wakes: 0 }),
            park_cond: Condvar::new(),
            shutdown: AtomicBool::new(false),
            immediate_successor,
        }
    }

    /// Enqueues a ready task. `local_hint` marks the immediate successor
    /// of a task that just completed on this thread; it goes to this
    /// thread's queue only if one of this scheduler's workers owns it.
    pub(crate) fn push(&self, task: TaskRef, local_hint: bool) {
        if local_hint && self.immediate_successor {
            let (owner, index) = LOCAL.get();
            if std::ptr::eq(owner, self) {
                self.queues[index].0.lock().push_back(task);
                // Other workers may be idle; give them a chance to steal
                // the rest of this worker's backlog.
                self.notify();
                return;
            }
        }
        let injector = if task.desc.priority > 0 {
            &self.hi_injector
        } else {
            &self.injector
        };
        injector.lock().push_back(task);
        self.notify();
    }

    /// Wakes one parked worker, if any: with every worker busy a push
    /// takes no lock and makes no system call.
    fn notify(&self) {
        if self.sleepers.load(Ordering::SeqCst) == 0 {
            return;
        }
        let mut state = self.park_lock.lock();
        state.pending_wakes += 1;
        drop(state);
        self.park_cond.notify_one();
    }

    /// Wakes all workers; the caller has set `shutdown`.
    pub(crate) fn notify_all(&self) {
        // Through the park lock: a worker that read `shutdown` as false
        // under it is on the condvar by the time the lock is free again.
        drop(self.park_lock.lock());
        self.park_cond.notify_all();
    }

    /// Worker `index`'s next task: its own queue, then the injectors,
    /// then its siblings.
    fn find_task(&self, index: usize) -> Option<TaskRef> {
        let local = &self.queues[index].0;
        if let Some(t) = local.lock().pop_back() {
            return Some(t);
        }
        if let Some(t) = self.hi_injector.lock().pop_front() {
            return Some(t);
        }
        {
            let mut injector = self.injector.lock();
            if let Some(t) = injector.pop_front() {
                // Take half of the rest along, so the next few tasks cost
                // this worker no trip to the shared queue.
                let batch = injector.len() / 2;
                if batch > 0 {
                    local.lock().extend(injector.drain(..batch));
                }
                return Some(t);
            }
        }
        // Steal from siblings, starting after our own index to spread
        // contention.
        let n = self.queues.len();
        (1..n).find_map(|k| self.queues[(index + k) % n].0.lock().pop_front())
    }

    /// The worker main loop. `index` is the worker's queue.
    pub(crate) fn worker_loop(&self, index: usize) {
        // Timeline lane for events emitted while tasks run on this thread.
        obs::set_thread_worker(index as u32);
        LOCAL.set((self as *const Scheduler, index));
        loop {
            match self.find_task(index) {
                Some(t) => t.execute(),
                None => {
                    if self.shutdown.load(Ordering::Acquire) {
                        break;
                    }
                    self.park(index);
                }
            }
        }
        LOCAL.set((std::ptr::null(), 0));
    }

    /// Announce, look again, park (see the module docs). Returns to the
    /// worker loop, which looks through the queues whatever woke it.
    fn park(&self, index: usize) {
        self.sleepers.fetch_add(1, Ordering::SeqCst);
        let found = self.find_task(index);
        if found.is_none() {
            let mut state = self.park_lock.lock();
            if state.pending_wakes == 0 && !self.shutdown.load(Ordering::Acquire) {
                self.park_cond.wait_for(&mut state, PARK_TICK);
            }
            // Cleared, not decremented: the wakes were left for workers
            // that had run dry, and this one is about to look.
            state.pending_wakes = 0;
        }
        self.sleepers.fetch_sub(1, Ordering::SeqCst);
        if let Some(task) = found {
            task.execute();
        }
    }
}
