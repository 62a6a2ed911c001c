//! Work-stealing scheduler.
//!
//! Each worker owns a LIFO `crossbeam_deque::Worker`; ready tasks from
//! outside (the main thread, the delivery thread of the communication
//! substrate, another runtime's workers) land in a global injector, while
//! tasks unblocked by a completing task are pushed to the completing
//! worker's own deque — popped next because the deque is LIFO. That is
//! the *immediate successor* policy the paper credits for the
//! cache-locality (IPC) improvement of the data-flow variant.
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
use crossbeam_deque::{Injector, Stealer, Worker};
use parking_lot::{Condvar, Mutex};
use std::cell::RefCell;
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

pub(crate) struct Scheduler {
    injector: Injector<TaskRef>,
    hi_injector: Injector<TaskRef>,
    stealers: Vec<Stealer<TaskRef>>,
    /// Workers that announced they are about to park (or are parked).
    sleepers: AtomicUsize,
    park_lock: Mutex<ParkState>,
    park_cond: Condvar,
    pub shutdown: AtomicBool,
    pub immediate_successor: bool,
}

thread_local! {
    /// The local deque of the worker running on this thread, beside the
    /// address of the scheduler that owns it (None on non-worker threads).
    /// A task of one runtime may release a task of another (an event
    /// hold dropped on a foreign worker), and the successor must not land
    /// on a deque its own workers cannot reach.
    static LOCAL: RefCell<Option<(*const Scheduler, Worker<TaskRef>)>> =
        const { RefCell::new(None) };
}

impl Scheduler {
    /// Creates the scheduler and the per-worker deques; returns the
    /// scheduler plus the workers' local deques (handed to the worker
    /// threads).
    pub(crate) fn new(
        n_workers: usize,
        immediate_successor: bool,
    ) -> (Scheduler, Vec<Worker<TaskRef>>) {
        let locals: Vec<Worker<TaskRef>> = (0..n_workers).map(|_| Worker::new_lifo()).collect();
        let stealers = locals.iter().map(|w| w.stealer()).collect();
        (
            Scheduler {
                injector: Injector::new(),
                hi_injector: Injector::new(),
                stealers,
                sleepers: AtomicUsize::new(0),
                park_lock: Mutex::new(ParkState { pending_wakes: 0 }),
                park_cond: Condvar::new(),
                shutdown: AtomicBool::new(false),
                immediate_successor,
            },
            locals,
        )
    }

    /// Enqueues a ready task. `local_hint` marks the immediate successor
    /// of a task that just completed on this thread; it goes to this
    /// thread's deque only if one of this scheduler's workers owns it.
    pub(crate) fn push(&self, task: TaskRef, local_hint: bool) {
        let use_local = local_hint && self.immediate_successor;
        if use_local {
            let pushed = LOCAL.with(|l| match l.borrow().as_ref() {
                Some((owner, w)) if std::ptr::eq(*owner, self) => {
                    w.push(task.clone());
                    true
                }
                _ => false,
            });
            if pushed {
                // Other workers may be idle; give them a chance to steal
                // the rest of this worker's backlog.
                self.notify();
                return;
            }
        }
        if task.priority > 0 {
            self.hi_injector.push(task);
        } else {
            self.injector.push(task);
        }
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

    /// Worker `index`'s next task: its own deque, then the injectors,
    /// then its siblings.
    fn find_task(&self, index: usize) -> Option<TaskRef> {
        LOCAL.with(|l| {
            let borrow = l.borrow();
            // Invariant: only `worker_loop` calls this, after installing
            // its deque in `LOCAL` for the thread's lifetime.
            let (_, local) = borrow.as_ref().expect("worker deque installed");
            self.find_in(local, index)
        })
    }

    fn find_in(&self, local: &Worker<TaskRef>, index: usize) -> Option<TaskRef> {
        if let Some(t) = local.pop() {
            return Some(t);
        }
        loop {
            match self.hi_injector.steal() {
                crossbeam_deque::Steal::Success(t) => return Some(t),
                crossbeam_deque::Steal::Retry => continue,
                crossbeam_deque::Steal::Empty => break,
            }
        }
        loop {
            match self.injector.steal_batch_and_pop(local) {
                crossbeam_deque::Steal::Success(t) => return Some(t),
                crossbeam_deque::Steal::Retry => continue,
                crossbeam_deque::Steal::Empty => break,
            }
        }
        // Steal from siblings, starting after our own index to spread
        // contention.
        let n = self.stealers.len();
        for k in 1..n {
            let victim = (index + k) % n;
            loop {
                match self.stealers[victim].steal() {
                    crossbeam_deque::Steal::Success(t) => return Some(t),
                    crossbeam_deque::Steal::Retry => continue,
                    crossbeam_deque::Steal::Empty => break,
                }
            }
        }
        None
    }

    /// The worker main loop. `index` is the worker's position in the
    /// stealer array.
    pub(crate) fn worker_loop(&self, local: Worker<TaskRef>, index: usize) {
        // Timeline lane for events emitted while tasks run on this thread.
        obs::set_thread_worker(index as u32);
        LOCAL.with(|l| *l.borrow_mut() = Some((self as *const Scheduler, local)));
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
        LOCAL.with(|l| *l.borrow_mut() = None);
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
