//! Task objects and their lifecycle.
//!
//! A task moves through: *created* → (all predecessor dependencies
//! released) *ready* → *running* → (body finished **and** event count
//! zero) *released*. Release removes the task's accesses from the
//! dependency registry, decrements successors' pending counts, and wakes
//! `taskwait`ers. A task with an on-ready gate
//! ([`crate::TaskBuilder::on_ready`]) takes one more step between the
//! first two: when its last predecessor releases, the gate runs and the
//! task waits for it to open before it is *ready*.

use crate::events::GateHold;
use crate::region::Access;
use crate::runtime::RtInner;
use parking_lot::Mutex;
use smallvec::SmallVec;
use std::cell::RefCell;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;

/// A re-runnable task body ([`TaskDesc::new`]): called through a shared
/// reference, so any number of task objects can run it.
pub type Body = Arc<dyn Fn() + Send + Sync>;

/// An on-ready gate ([`TaskDesc::on_ready`]): re-runnable like a
/// [`Body`], handed the hold that keeps the task out of the ready queue
/// until it opens.
pub type Gate = Arc<dyn Fn(GateHold) + Send + Sync>;

/// How a task body runs.
pub(crate) enum Run {
    /// Runs once ([`crate::TaskBuilder::body`]): taken out by the
    /// execution.
    Once(Mutex<Option<Box<dyn FnOnce() + Send>>>),
    /// Re-runnable ([`TaskDesc::new`]): called in place through `&self`,
    /// so any number of task objects can share it.
    Many(Body),
}

impl Run {
    pub(crate) fn once(body: impl FnOnce() + Send + 'static) -> Run {
        Run::Once(Mutex::new(Some(Box::new(body))))
    }
}

/// An access list under construction, with inline room for two:
/// miniAMR's per-message tasks declare 1–2 and cost no allocation for the
/// list (batches and multidep send tasks spill, and that is fine). A
/// [`TaskSpec`](crate::TaskSpec) and a [`TaskDesc`] carry one.
pub type AccessList = SmallVec<[Access; 2]>;

/// What a task declares and runs: its label, priority, accesses, body and
/// on-ready gate. A task object points at its description instead of
/// holding these, so a submitter that spawns one task many times (the
/// task of a template, in every call of it) builds the description once
/// and every spawn of it ([`crate::Runtime::spawn_desc`]) shares it: one
/// reference count, and a trace replay that matches its slot by pointer.
/// A [`crate::TaskBuilder`] spawn builds a description of its own.
pub struct TaskDesc {
    pub(crate) label: &'static str,
    pub(crate) priority: i32,
    pub(crate) accesses: AccessList,
    pub(crate) run: Run,
    pub(crate) gate: Option<Gate>,
}

impl TaskDesc {
    /// A re-runnable task: `body` runs once per spawn of the description,
    /// through a shared reference, so it must leave its captures in place
    /// (clone what it hands on). The access list is kept exact-size.
    pub fn new(
        label: &'static str,
        priority: i32,
        accesses: impl IntoIterator<Item = Access>,
        body: Body,
    ) -> TaskDesc {
        let mut accesses: AccessList = accesses.into_iter().collect();
        if accesses.spilled() {
            let mut exact = accesses.into_vec();
            exact.shrink_to_fit();
            accesses = exact.into();
        }
        TaskDesc {
            label,
            priority,
            accesses,
            run: Run::Many(body),
            gate: None,
        }
    }

    /// Adds an on-ready gate ([`crate::TaskBuilder::on_ready`]), which
    /// runs once per spawn of the description.
    pub fn on_ready(mut self, gate: Gate) -> TaskDesc {
        self.gate = Some(gate);
        self
    }

    /// Debug label shown in panics and traces.
    pub fn label(&self) -> &'static str {
        self.label
    }

    /// Runs the body on the calling thread, outside any runtime: what a
    /// serial schedule does with a task it does not spawn.
    pub fn run_inline(&self) {
        // Invariant: a one-shot body's description is the builder's own,
        // which never leaves the crate.
        let Run::Many(body) = &self.run else {
            unreachable!("a shared description has a re-runnable body")
        };
        body()
    }

    /// Whether a spawn of `self` repeats a task of `other`: the same
    /// label, priority and accesses (what a trace slot must see again).
    pub(crate) fn repeats(&self, other: &TaskDesc) -> bool {
        self.label == other.label
            && self.priority == other.priority
            && self.accesses[..] == other.accesses[..]
    }
}

/// What a spawn hands the runtime: a description shared with other spawns,
/// or one of the spawn's own (the builder's), allocated only when a task
/// object needs it — not when a replay re-arms its slot's object in place.
pub(crate) enum Spawn {
    Shared(Arc<TaskDesc>),
    Own(TaskDesc),
}

impl Spawn {
    pub(crate) fn desc(&self) -> &TaskDesc {
        match self {
            Spawn::Shared(desc) => desc,
            Spawn::Own(desc) => desc,
        }
    }

    pub(crate) fn into_shared(self) -> Arc<TaskDesc> {
        match self {
            Spawn::Shared(desc) => desc,
            Spawn::Own(desc) => Arc::new(desc),
        }
    }
}

/// Inline capacity for successor lists: spares the heap allocation that
/// a plain `Vec` would make on the first successor push of every task.
pub(crate) type SuccessorList = SmallVec<[Arc<TaskShared>; 4]>;

pub(crate) struct TaskShared {
    pub id: u64,
    /// depsan task id (0 while the sanitizer is disabled).
    pub san_id: u64,
    /// Label, priority, accesses, body and gate.
    pub desc: Arc<TaskDesc>,
    /// Predecessors not yet released, plus one registration guard.
    pub pending: AtomicUsize,
    /// Body (counted as 1 until it returns) plus outstanding event holds.
    pub events: AtomicUsize,
    /// Whether the body has returned in this run of the task: from then
    /// on, `events` counts holds alone. Stored (Release) before the
    /// body's count is dropped, and loaded after `events` (Acquire) by
    /// [`TaskShared::event_holds`], so a count without the body's share
    /// is always read with the flag set.
    pub body_returned: AtomicBool,
    /// Whether the on-ready gate has run in this run of the task (the
    /// `pending` count that reaches zero afterwards is the gate's).
    pub gate_posted: AtomicBool,
    pub state: Mutex<TaskLinks>,
    /// True while the task is live but absent from the claim table
    /// (its edges were installed from a replayed trace).
    pub bypassed: AtomicBool,
    pub rt: Arc<RtInner>,
}

// A replay trace keeps one task object per task of a timestep, thousands
// a rank: the object points at its description rather than holding it, so
// that with its reference counts it fits glibc's 144-byte chunk.
const _: () = assert!(std::mem::size_of::<TaskShared>() <= 120);

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
    /// Resets a released task object for its next run, with the
    /// description of `spawn`: what `RtInner::new_task` sets on a fresh
    /// one, without the allocation (a description of the spawn's own
    /// takes the place of the object's in place when nothing else holds
    /// that). The exclusive borrow is the proof that nothing else —
    /// scheduler, successor list, event hold, flush list — still refers
    /// to it.
    pub(crate) fn rearm(&mut self, id: u64, san_id: u64, spawn: Spawn) {
        let links = self.state.get_mut();
        debug_assert!(
            links.released && links.successors.is_empty(),
            "task '{}' (id {}) re-armed before its release",
            self.desc.label,
            self.id
        );
        match (spawn, Arc::get_mut(&mut self.desc)) {
            (Spawn::Shared(desc), _) => self.desc = desc,
            (Spawn::Own(desc), Some(own)) => *own = desc,
            (Spawn::Own(desc), None) => self.desc = Arc::new(desc),
        }
        links.released = false;
        self.id = id;
        self.san_id = san_id;
        *self.pending.get_mut() = 1;
        *self.events.get_mut() = 1;
        *self.body_returned.get_mut() = false;
        *self.gate_posted.get_mut() = false;
    }

    /// Called when a predecessor releases; enqueues the task when its last
    /// dependency (or the registration guard) clears — or, for a gated
    /// task whose gate has not run yet, runs the gate instead.
    pub(crate) fn dep_satisfied(self: &Arc<Self>, local_hint: bool) {
        if self.pending.fetch_sub(1, Ordering::AcqRel) != 1 {
            return;
        }
        if let Some(gate) = &self.desc.gate {
            if !self.gate_posted.load(Ordering::Acquire) {
                return self.post_gate(gate, local_hint);
            }
        }
        if let Some(bus) = obs::bus() {
            bus.emit_for_rank(self.rt.rank(), obs::EventData::TaskReady { id: self.id });
        }
        self.rt.enqueue_ready(Arc::clone(self), local_hint);
    }

    /// Runs the on-ready gate of a task whose predecessors have all
    /// released. The gate's hold is one more predecessor, and a guard
    /// count is held while the gate runs (as at registration), so a gate
    /// that opens at once, inside the call, readies the task only when
    /// the call is over. The gate runs as the task: under its sanitizer
    /// scope and, while observability is on, its obs rank and task id —
    /// so a receive it posts belongs to the task, whichever thread
    /// released the last predecessor — but not as the current task (the
    /// body has not started; there is nothing to bind an event hold to).
    /// A gate that panics poisons the runtime and opens: the graph keeps
    /// draining, and the next `taskwait` rethrows.
    fn post_gate(self: &Arc<Self>, gate: &Gate, local_hint: bool) {
        // Nothing else touches the two fields until the hold is handed
        // out; whichever thread opens it got it through a lock, and its
        // `fetch_sub` in `dep_satisfied` (AcqRel) reads these stores.
        self.pending.store(2, Ordering::Release);
        self.gate_posted.store(true, Ordering::Release);
        let prev_obs = obs::is_enabled().then(|| {
            let (rank, _) = obs::thread_ctx();
            obs::set_thread_rank(self.rt.rank());
            (rank, obs::set_thread_task(self.id))
        });
        {
            let _san = (self.san_id != 0).then(|| depsan::enter_scope(self.san_id));
            let hold = GateHold::new(Arc::clone(self));
            if let Err(payload) = catch_unwind(AssertUnwindSafe(|| gate(hold))) {
                self.rt.poison(format!(
                    "on-ready gate of task '{}' (id {}) panicked: {}",
                    self.desc.label,
                    self.id,
                    panic_message(&*payload)
                ));
            }
        }
        if let Some((rank, task)) = prev_obs {
            obs::set_thread_rank(rank);
            obs::set_thread_task(task);
        }
        self.dep_satisfied(local_hint);
    }

    /// Event holds the task has outstanding (diagnostics).
    pub(crate) fn event_holds(&self) -> usize {
        let events = self.events.load(Ordering::Acquire);
        if self.body_returned.load(Ordering::Acquire) {
            events
        } else {
            events.saturating_sub(1)
        }
    }

    /// Whether the task's gate has run and not yet opened (diagnostics).
    pub(crate) fn awaiting_gate(&self) -> bool {
        self.gate_posted.load(Ordering::Acquire) && self.pending.load(Ordering::Acquire) > 0
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
        if !(rt.trace.armed() && crate::trace::released_bypassed(rt, &self)) {
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
        // Invariant: a task is queued once per run (its `pending` count
        // reaches zero once), and a re-arm hands the task object the
        // matching spawn's body, so a one-shot body is still here.
        let once = match &self.desc.run {
            Run::Once(body) => Some(body.lock().take().unwrap_or_else(|| {
                panic!("task '{}' (id {}) executed twice", self.desc.label, self.id)
            })),
            Run::Many(_) => None,
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
                    label: self.desc.label,
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
            let run = AssertUnwindSafe(|| match (once, &self.desc.run) {
                (Some(body), _) => body(),
                (None, Run::Many(body)) => body(),
                // Invariant: `once` is `Some` exactly for a one-shot body.
                (None, Run::Once(_)) => unreachable!("a one-shot body is taken above"),
            });
            if let Err(payload) = catch_unwind(run) {
                self.rt.poison(format!(
                    "task '{}' (id {}) panicked: {}",
                    self.desc.label,
                    self.id,
                    panic_message(&*payload)
                ));
            }
        }
        if let Some(bus) = obs::bus() {
            bus.emit_for_rank(
                self.rt.rank(),
                obs::EventData::TaskEnd {
                    id: self.id,
                    label: self.desc.label,
                },
            );
        }
        // Holds acquired by the body (tampi-bound requests) outlive it:
        // the task is now blocked-on-events rather than completed.
        let holds = self.events.load(Ordering::Acquire).saturating_sub(1);
        if holds > 0 {
            self.rt
                .stat_blocked_on_events
                .fetch_add(1, Ordering::Relaxed);
            if let Some(bus) = obs::bus() {
                bus.emit_for_rank(
                    self.rt.rank(),
                    obs::EventData::TaskBlocked {
                        id: self.id,
                        holds: holds as u32,
                    },
                );
            }
        }
        if let Some(p) = prev_obs_task {
            obs::set_thread_task(p);
        }
        CURRENT.with(|c| *c.borrow_mut() = prev);
        self.body_returned.store(true, Ordering::Release);
        self.event_done();
    }
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> &str {
    if let Some(s) = payload.downcast_ref::<&str>() {
        s
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s
    } else {
        "non-string panic payload"
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
