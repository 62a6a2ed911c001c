//! External events: deferred dependency release, and deferred start.
//!
//! OmpSs-2 lets external agents (like a task-aware MPI library) bind a
//! task's dependency release to events that outlive the task body. An
//! [`EventHold`] is one such binding: while any hold on a task is alive,
//! the task's successors stay blocked even after the body returns. The
//! `tampi` crate acquires one hold per in-flight communication request
//! and drops it from the request's completion callback — exactly the
//! `TAMPI_Iwait` contract of the paper (§II-B).
//!
//! A [`GateHold`] binds the other end of a task to an event: the task's
//! on-ready gate receives one, and the task does not start before it is
//! dropped.

use crate::task::TaskShared;
use std::sync::Arc;

/// Keeps the dependencies of a task unreleased until dropped.
///
/// Holds are acquired from inside the task body (see
/// [`crate::current_event_hold`]) and may be released from any thread.
pub struct EventHold {
    task: Option<Arc<TaskShared>>,
}

impl EventHold {
    pub(crate) fn acquire(task: Arc<TaskShared>) -> EventHold {
        let prev = task
            .events
            .fetch_add(1, std::sync::atomic::Ordering::AcqRel);
        assert!(
            prev >= 1,
            "event hold acquired on a task whose body already finished"
        );
        task.rt
            .stat_holds_acquired
            .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        if let Some(bus) = obs::bus() {
            bus.emit_for_rank(
                task.rt.rank(),
                obs::EventData::HoldAcquire { task: task.id },
            );
        }
        EventHold { task: Some(task) }
    }

    /// Explicitly releases the hold (equivalent to dropping it).
    pub fn release(mut self) {
        self.release_inner();
    }

    /// Releases the hold while poisoning the owning runtime: the bound
    /// event failed (e.g. the communication request it guarded died with
    /// the world). The graph keeps draining, and the failure is rethrown
    /// by the next `taskwait` on the rank's main thread instead of
    /// killing the delivery thread that observed it.
    pub fn fail(mut self, msg: String) {
        if let Some(task) = &self.task {
            task.rt.poison(msg);
        }
        self.release_inner();
    }

    fn release_inner(&mut self) {
        if let Some(task) = self.task.take() {
            task.rt
                .stat_holds_released
                .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            if let Some(bus) = obs::bus() {
                bus.emit_for_rank(
                    task.rt.rank(),
                    obs::EventData::HoldRelease { task: task.id },
                );
            }
            task.event_done();
        }
    }
}

impl Drop for EventHold {
    fn drop(&mut self) {
        self.release_inner();
    }
}

impl std::fmt::Debug for EventHold {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.task {
            Some(t) => write!(f, "EventHold(task {})", t.id),
            None => write!(f, "EventHold(released)"),
        }
    }
}

/// Keeps a gated task out of the ready queue until dropped: the other
/// half of the external-event contract, deferring a task's *start*
/// rather than its release.
///
/// OmpSs-2's `onready` clause: a task declared with an on-ready gate
/// ([`crate::TaskBuilder::on_ready`]) runs the gate when its last
/// predecessor releases, handing it one of these, and becomes ready when
/// the hold opens. The `tampi` crate posts a receive there and opens the
/// hold from the request's completion, which makes the arriving message
/// one more predecessor of the task that consumes it. The gate runs again
/// after every re-arm of the task, and never while a predecessor is live
/// (inside `spawn` when none is): whatever they still read or write stays
/// theirs until then.
pub struct GateHold {
    task: Option<Arc<TaskShared>>,
}

impl GateHold {
    pub(crate) fn new(task: Arc<TaskShared>) -> GateHold {
        GateHold { task: Some(task) }
    }

    /// Opens the gate (equivalent to dropping the hold).
    pub fn open(mut self) {
        self.open_inner();
    }

    /// Opens the gate while poisoning the owning runtime: the event it
    /// waited for failed (the receive died with the world). The task still
    /// runs and the graph keeps draining; the next `taskwait` on the
    /// rank's main thread rethrows the failure.
    pub fn fail(mut self, msg: String) {
        if let Some(task) = &self.task {
            task.rt.poison(msg);
        }
        self.open_inner();
    }

    fn open_inner(&mut self) {
        if let Some(task) = self.task.take() {
            task.dep_satisfied(false);
        }
    }
}

impl Drop for GateHold {
    fn drop(&mut self) {
        self.open_inner();
    }
}
