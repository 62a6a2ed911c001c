//! Task objects and their lifecycle.
//!
//! A task moves through: *created* → (all predecessor dependencies
//! released) *ready* → *running* → (body finished **and** event count
//! zero) *released*. Release removes the task's accesses from the
//! dependency registry, decrements successors' pending counts, and wakes
//! `taskwait`ers.

use crate::region::Access;
use crate::runtime::RtInner;
use parking_lot::Mutex;
use smallvec::SmallVec;
use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;

/// What a task runs.
pub(crate) enum TaskBody {
    /// Runs once ([`crate::TaskBuilder::body`]): taken out by the
    /// execution.
    Once(Mutex<Option<Box<dyn FnOnce() + Send>>>),
    /// Re-runnable ([`crate::TaskBuilder::body_fn`]): called in place
    /// through `&self`, so it stays with the task object when a replay
    /// re-arms it, and is shared with the fresh object a replay allocates
    /// while the previous one is still live.
    Many(Arc<dyn Fn() + Send + Sync>),
}

impl TaskBody {
    pub(crate) fn once(body: impl FnOnce() + Send + 'static) -> TaskBody {
        TaskBody::Once(Mutex::new(Some(Box::new(body))))
    }
}

/// A task's declared accesses, with inline room for four: miniAMR's
/// per-message tasks declare 1–2 and cost no allocation for the list
/// (batches and multidep send tasks spill, and that is fine). Build a
/// long list as a `Vec` and convert it: the conversion keeps the
/// allocation.
pub type AccessList = SmallVec<[Access; 4]>;
/// Inline capacity for successor lists: spares the heap allocation that
/// a plain `Vec` would make on the first successor push of every task.
pub(crate) type SuccessorList = SmallVec<[Arc<TaskShared>; 4]>;

pub(crate) struct TaskShared {
    pub id: u64,
    /// depsan task id (0 while the sanitizer is disabled).
    pub san_id: u64,
    pub priority: i32,
    pub label: &'static str,
    pub accesses: AccessList,
    pub body: TaskBody,
    /// Predecessors not yet released, plus one registration guard.
    pub pending: AtomicUsize,
    /// Body (counted as 1) plus outstanding event holds.
    pub events: AtomicUsize,
    pub state: Mutex<TaskLinks>,
    /// True while the task is live but absent from the claim table
    /// (its edges were installed from a replayed trace).
    pub bypassed: AtomicBool,
    pub rt: Arc<RtInner>,
}

/// Task identity (the claim table's `deps::History` key): ids are unique
/// within a runtime, and a registry only ever holds its own runtime's
/// tasks.
impl PartialEq for TaskShared {
    fn eq(&self, other: &TaskShared) -> bool {
        self.id == other.id
    }
}

pub(crate) struct TaskLinks {
    pub released: bool,
    pub successors: SuccessorList,
}

impl TaskShared {
    /// Resets a released task object for its next run: what
    /// `RtInner::new_task` sets on a fresh one, without the allocation.
    /// The exclusive borrow is the proof that nothing else — scheduler,
    /// successor list, event hold, flush list — still refers to it.
    pub(crate) fn rearm(&mut self, id: u64, san_id: u64) {
        let links = self.state.get_mut();
        debug_assert!(
            links.released && links.successors.is_empty(),
            "task '{}' (id {}) re-armed before its release",
            self.label,
            self.id
        );
        links.released = false;
        self.id = id;
        self.san_id = san_id;
        *self.pending.get_mut() = 1;
        *self.events.get_mut() = 1;
    }

    /// Called when a predecessor releases; enqueues the task when its last
    /// dependency (or the registration guard) clears.
    pub(crate) fn dep_satisfied(self: &Arc<Self>, local_hint: bool) {
        if self.pending.fetch_sub(1, Ordering::AcqRel) == 1 {
            if let Some(bus) = obs::bus() {
                bus.emit_for_rank(self.rt.rank(), obs::EventData::TaskReady { id: self.id });
            }
            self.rt.enqueue_ready(Arc::clone(self), local_hint);
        }
    }

    /// Drops one event hold; the final drop (after the body finished)
    /// releases the task's dependencies.
    pub(crate) fn event_done(self: Arc<Self>) {
        if self.events.fetch_sub(1, Ordering::AcqRel) == 1 {
            self.release();
        }
    }

    /// Releases the task: removes its accesses from the registry, readies
    /// unblocked successors, and signals scope completion.
    fn release(self: Arc<Self>) {
        let rt = &self.rt;
        let successors = {
            let mut links = self.state.lock();
            debug_assert!(!links.released, "task released twice");
            links.released = true;
            std::mem::take(&mut links.successors)
        };
        // A replayed task has claim-table entries only if a flush inserted
        // them, and the flush clears `bypassed` before it inserts. With the
        // `released` flag visible (above) and never while holding the
        // task's own state lock (see the lock ordering note in
        // registry.rs), release and flush meet in one of three ways:
        //
        // * release clears `bypassed` first: the flush finds it clear and
        //   skips the task; there are no entries and none will come.
        // * the flush cleared it and has inserted: release finds it clear
        //   and removes the entries.
        // * the flush cleared it and is still inserting: release removes
        //   what is there; the flush's shard locks order it after that
        //   removal, so its own look at `released` afterwards sees the
        //   flag and removes the rest (removal is idempotent).
        if !(rt.trace.enabled && crate::trace::released_bypassed(rt, &self)) {
            rt.registry.remove_task(&self);
        }
        if let Some(bus) = obs::bus() {
            bus.emit_for_rank(rt.rank(), obs::EventData::TaskCompleted { id: self.id });
        }
        // The first unblocked successor is offered to the local worker
        // (immediate-successor locality policy); the rest go wherever the
        // scheduler decides.
        let n = successors.len();
        let ready = |(i, succ): (usize, Arc<TaskShared>)| succ.dep_satisfied(i + 1 == n);
        if successors.spilled() {
            // A list that outgrew its inline room goes back empty with its
            // heap room: the task object's next run (a re-arm) then links
            // its successors without allocating.
            let mut successors = successors.into_vec();
            successors.drain(..).enumerate().for_each(ready);
            self.state.lock().successors = successors.into();
        } else {
            successors.into_iter().enumerate().for_each(ready);
        }
        // Let go of the task object before the release is signalled: a
        // `taskwait` that this wakes may go straight on to re-arm the
        // object, which takes the only reference to it. (Its own runtime
        // is the one to tell, whichever thread got to run the task.)
        let (rt, id) = (Arc::clone(rt), self.id);
        drop(self);
        rt.task_released(id);
    }

    /// Runs the task body on the current thread.
    pub(crate) fn execute(self: Arc<Self>) {
        let once = match &self.body {
            TaskBody::Once(body) => Some(body.lock().take().unwrap_or_else(|| {
                panic!("task '{}' (id {}) executed twice", self.label, self.id)
            })),
            TaskBody::Many(_) => None,
        };
        let prev = CURRENT.with(|c| c.replace(Some(Arc::clone(&self))));
        // Publish the task id to the obs thread-task context so layers
        // below taskrt (vmpi message posts) can attribute events to it.
        // Gated like every other emit so the disabled path stays free.
        let prev_obs_task = obs::is_enabled().then(|| obs::set_thread_task(self.id));
        if let Some(bus) = obs::bus() {
            // Adopt the owning runtime's rank for the duration of the
            // body, so events emitted from inside it (message posts,
            // phase spans) attribute to this rank even on worker threads.
            obs::set_thread_rank(self.rt.rank());
            bus.emit_for_rank(
                self.rt.rank(),
                obs::EventData::TaskStart {
                    id: self.id,
                    label: self.label,
                },
            );
        }
        {
            // Sanitizer scope: buffer accesses made by the body attribute
            // to this task (guard restores the previous scope on drop,
            // panic-safe).
            let _san = (self.san_id != 0).then(|| depsan::enter_scope(self.san_id));
            // A panicking body must not kill the worker thread: the graph
            // has to keep draining so taskwait wakes and can rethrow on
            // the rank's main thread (elastic shrink relies on this for a
            // clean unwind when the world is torn down mid-timestep).
            let run = std::panic::AssertUnwindSafe(|| match (once, &self.body) {
                (Some(body), _) => body(),
                (None, TaskBody::Many(body)) => body(),
                (None, TaskBody::Once(_)) => unreachable!("a one-shot body is taken above"),
            });
            if let Err(payload) = std::panic::catch_unwind(run) {
                let msg: &str = if let Some(s) = payload.downcast_ref::<&str>() {
                    s
                } else if let Some(s) = payload.downcast_ref::<String>() {
                    s
                } else {
                    "non-string panic payload"
                };
                self.rt.poison(format!(
                    "task '{}' (id {}) panicked: {msg}",
                    self.label, self.id
                ));
            }
        }
        if let Some(bus) = obs::bus() {
            let rank = self.rt.rank();
            bus.emit_for_rank(
                rank,
                obs::EventData::TaskEnd {
                    id: self.id,
                    label: self.label,
                },
            );
            // Holds acquired by the body (tampi-bound requests) outlive it:
            // the task is now blocked-on-events rather than completed.
            let holds = self.events.load(Ordering::Acquire).saturating_sub(1);
            if holds > 0 {
                bus.emit_for_rank(
                    rank,
                    obs::EventData::TaskBlocked {
                        id: self.id,
                        holds: holds as u32,
                    },
                );
                if let Some(m) = &self.rt.obs_metrics {
                    m.blocked.inc();
                }
            }
        }
        if let Some(p) = prev_obs_task {
            obs::set_thread_task(p);
        }
        CURRENT.with(|c| *c.borrow_mut() = prev);
        self.event_done();
    }
}

thread_local! {
    static CURRENT: RefCell<Option<Arc<TaskShared>>> = const { RefCell::new(None) };
}

/// Id of the task currently executing on this thread, if any.
pub fn current_task_id() -> Option<u64> {
    CURRENT.with(|c| c.borrow().as_ref().map(|t| t.id))
}

pub(crate) fn current_task() -> Option<Arc<TaskShared>> {
    CURRENT.with(|c| c.borrow().clone())
}

pub(crate) fn current_event_hold() -> Option<crate::events::EventHold> {
    current_task().map(crate::events::EventHold::acquire)
}
