//! # taskrt — a data-flow task runtime with region dependencies
//!
//! `taskrt` reimplements the subset of the OmpSs-2 tasking model that the
//! CLUSTER 2020 paper *"Towards Data-Flow Parallelization for Adaptive
//! Mesh Refinement Applications"* relies on:
//!
//! * **Tasks with data dependencies.** A task declares `in`/`out`/`inout`
//!   accesses on [`Region`]s — `(object id, element range)` pairs — and
//!   the runtime derives the execution ordering from range overlaps:
//!   writer→reader, reader→writer and writer→writer pairs on overlapping
//!   regions execute in spawn order; everything else runs concurrently.
//!   Listing many accesses on one task is exactly the *multi-dependency*
//!   mechanism the paper uses for aggregated communication tasks.
//! * **`taskwait` and `taskwait_on`.** A plain [`Runtime::taskwait`]
//!   blocks until every spawned task has released its dependencies. The
//!   OmpSs-2 *taskwait with dependencies* ([`Runtime::taskwait_on`])
//!   blocks only until the listed regions are quiescent — the feature the
//!   paper exploits to delay checksum validation by one stage (§IV-C).
//! * **External events.** A running task can acquire [`EventHold`]s; its
//!   dependencies are released only after the body finished *and* all
//!   holds were dropped. This is the hook the `tampi` crate uses to bind
//!   in-flight communication requests to tasks (`TAMPI_Iwait` semantics).
//!   The other end is an **on-ready gate** ([`TaskBuilder::on_ready`],
//!   OmpSs-2's `onready`): a re-runnable closure that runs when the
//!   task's last predecessor releases and holds the task back until the
//!   [`GateHold`] it is handed opens — `tampi` posts a receive there, and
//!   the message becomes one more predecessor of the task that reads it.
//! * **Work-stealing scheduling with an immediate-successor policy.**
//!   Each worker owns a LIFO deque and steals when idle; when a finishing
//!   task unblocks successors, the worker runs one of them next so data
//!   still hot in cache is reused — the locality heuristic the paper
//!   credits for the IPC improvement of the data-flow variant (§V-B,
//!   §VI). The policy can be disabled for ablation studies.
//! * **Task-graph trace & replay.** A [`Runtime::trace_scope`] brackets
//!   one iteration of a submission phase the caller knows repeats (one
//!   AMR timestep). A runtime caches one stream: the first scope records
//!   it, the second closes it and from then on a matching iteration
//!   re-arms the recorded task objects in place behind their recorded
//!   predecessors, without touching the claim table. A divergence falls
//!   back to fresh analysis for the rest of the scope, and the next
//!   scope records. A task object points at its
//!   accesses and body rather than holding them, so the spawns of a
//!   submitter that elaborates a repeated call once share one list and
//!   one closure ([`TaskBuilder::access_list`],
//!   [`TaskBuilder::body_shared`]). Regrid/repartition invalidate via
//!   [`Runtime::invalidate_traces`].
//!
//! ## Example
//!
//! ```
//! use taskrt::{Runtime, Region, ObjId};
//! use std::sync::atomic::{AtomicUsize, Ordering};
//! use std::sync::Arc;
//!
//! let rt = Runtime::new(2);
//! let data = ObjId::fresh();
//! let log = Arc::new(AtomicUsize::new(0));
//!
//! let l = Arc::clone(&log);
//! rt.task().out(Region::new(data, 0..100)).body(move || {
//!     l.store(1, Ordering::SeqCst);
//! }).spawn();
//!
//! let l = Arc::clone(&log);
//! rt.task().input(Region::new(data, 50..60)).body(move || {
//!     // Reader of an overlapping region: sees the writer's effect.
//!     assert_eq!(l.load(Ordering::SeqCst), 1);
//!     l.store(2, Ordering::SeqCst);
//! }).spawn();
//!
//! rt.taskwait();
//! assert_eq!(log.load(Ordering::SeqCst), 2);
//! ```

#![warn(missing_docs)]

pub mod deps;
mod events;
mod region;
mod registry;
mod runtime;
mod scheduler;
mod submit;
mod task;
mod trace;

pub use events::{EventHold, GateHold};
pub use region::{Access, AccessMode, ObjId, Region};
pub use runtime::{Runtime, RuntimeConfig, RuntimeStats, TaskBuilder};
pub use submit::{CommIntent, CommKind, Submitter, TaskSpec};
pub use task::{current_task_id, AccessList, Accesses, Body, Gate};
pub use trace::TraceScope;

/// Acquires an [`EventHold`] on the task currently executing on this
/// thread, deferring its dependency release until the hold is dropped.
///
/// # Panics
///
/// Panics when called outside a task body (there is nothing to bind to).
pub fn current_event_hold() -> EventHold {
    // Invariant: the binding calls (`tampi::iwait`, `tampi::irecv_with`)
    // are made from task bodies, whatever the input; only a caller that
    // breaks the documented contract gets here without a task.
    task::current_event_hold().expect("current_event_hold() called outside a task body")
}

/// Returns true when the calling thread is currently executing a task.
pub fn in_task() -> bool {
    task::current_task_id().is_some()
}
