//! The submission seam: one task stream, two consumers.
//!
//! The data-flow variant of the application describes each timestep as a
//! stream of *task specifications* — label, priority, declared
//! [`Access`] list, an optional communication endpoint, and a
//! variant-specific work descriptor. The [`Submitter`] trait abstracts
//! who consumes that stream:
//!
//! * the **live runtime** materializes each spec into a real task body
//!   and spawns it on [`crate::Runtime`] (see `miniamr`'s data-flow
//!   variant), and
//! * the **static recorder** (the `dfcheck` crate) captures the specs
//!   verbatim into a model and never executes anything.
//!
//! The stream holds tasks only. The barriers between them are issued by
//! the loop that drives the elaboration: the live side calls
//! `taskwait`/`taskwait_on` itself, and the static side records them
//! on the recorder directly.
//!
//! Because both sides consume the *same* elaboration code, the static
//! model cannot drift from what the runtime would actually see: any
//! change to task structure, declared accesses, tags or sizes flows into
//! both by construction.

use crate::task::AccessList;

/// Direction of a task-bound message endpoint.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CommKind {
    /// The task posts a send towards `peer`.
    Send,
    /// The task posts a receive from `peer`.
    Recv,
}

/// A task-aware communication endpoint bound to a task (TAMPI-style):
/// the task's dependencies are released only once the transfer
/// completes. Statically this is everything needed to match sends to
/// receives: the `(src, dst, tag)` triple plus the payload size.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct CommIntent {
    /// Send or receive.
    pub kind: CommKind,
    /// The remote rank (destination for sends, source for receives).
    pub peer: usize,
    /// The message tag.
    pub tag: i32,
    /// Payload size in elements (of the application's element type).
    pub elems: usize,
}

impl CommIntent {
    /// A send endpoint towards `peer`.
    pub fn send(peer: usize, tag: i32, elems: usize) -> CommIntent {
        CommIntent {
            kind: CommKind::Send,
            peer,
            tag,
            elems,
        }
    }

    /// A receive endpoint from `peer`.
    pub fn recv(peer: usize, tag: i32, elems: usize) -> CommIntent {
        CommIntent {
            kind: CommKind::Recv,
            peer,
            tag,
            elems,
        }
    }
}

/// One task in the submission stream. `W` is a variant-specific work
/// descriptor: the live submitter pattern-matches it to build the task
/// body; the static recorder stores it for diagnostics.
#[derive(Debug, Clone)]
pub struct TaskSpec<W> {
    /// Task label (also the obs/depsan label).
    pub label: &'static str,
    /// Scheduling priority (higher runs earlier when ready).
    pub priority: i32,
    /// Declared data accesses — the dependency contract.
    pub accesses: AccessList,
    /// Message endpoint bound to this task, if it communicates.
    pub comm: Option<CommIntent>,
    /// What the task actually does.
    pub work: W,
}

/// Consumer of a task-submission stream. Implemented by the live
/// runtime adapter (spawning real tasks) and by `dfcheck`'s recorder
/// (building the static model).
pub trait Submitter<W> {
    /// Consume one task specification, in program (spawn) order.
    fn submit(&mut self, spec: TaskSpec<W>);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn comm_intent_constructors() {
        let s = CommIntent::send(3, 42, 128);
        assert_eq!(s.kind, CommKind::Send);
        assert_eq!((s.peer, s.tag, s.elems), (3, 42, 128));
        let r = CommIntent::recv(1, 7, 64);
        assert_eq!(r.kind, CommKind::Recv);
        assert_eq!((r.peer, r.tag, r.elems), (1, 7, 64));
    }
}
