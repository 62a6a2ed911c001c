//! The wire: when one transmission's payload is on the far end.
//!
//! Every transmission of the send path — a plain send, and each frame
//! transmission, retransmission and duplicate of [`crate::reliable`] —
//! asks [`send`] for its [`Transit`], and [`when_drained`] runs what
//! follows once it has drained. This is the one place the send path
//! prices a message:
//!
//! - a self-send is due now;
//! - a same-node send, or any send when the world has no fabric, takes
//!   the scalar [`crate::FabricParams::wire_time`];
//! - an inter-node send on an installed fabric is a
//!   [`crate::fabric::Fabric`] flow, polled until it drains.

use crate::world::WorldShared;
use std::sync::Arc;
use std::time::Instant;

/// When a transmission's payload becomes available.
#[derive(Clone, Copy)]
pub(crate) struct Transit {
    pub due: Instant,
    /// Flow id in the contention-aware fabric, when the transmission went
    /// through it (`due` is then only the initial estimate).
    pub flow: Option<u64>,
}

impl Transit {
    /// A transmission that has already arrived.
    pub(crate) fn now() -> Transit {
        Transit {
            due: Instant::now(),
            flow: None,
        }
    }
}

/// Puts `bytes` from world rank `src` on the wire to world rank `dst`.
pub(crate) fn send(shared: &WorldShared, src: usize, dst: usize, bytes: usize) -> Transit {
    let fabric = shared.fabric.as_deref();
    let Some(fab) = fabric.filter(|f| src != dst && !f.params().same_node(src, dst)) else {
        let due = Instant::now() + shared.net.delay(bytes, src, dst);
        return Transit { due, flow: None };
    };
    let (id, due) = fab.inject(src, dst, bytes);
    Transit {
        due,
        flow: Some(id),
    }
}

/// Runs `then` once `t` has drained: at its due time (inline when that
/// has passed). A fabric flow is polled then instead: if concurrent
/// arrivals shrank its bandwidth share since `due` was predicted, the
/// poll returns the new estimate and the job reschedules, so the time
/// tracks the fair-share drain, not the first guess. The poll that finds
/// the flow drained retires it from the fabric.
pub(crate) fn when_drained<F>(shared: Arc<WorldShared>, t: Transit, then: F)
where
    F: FnOnce() + Send + 'static,
{
    let delivery = Arc::clone(&shared.delivery);
    delivery.schedule(
        t.due,
        Box::new(move || {
            let fabric = shared.fabric.as_ref();
            match t.flow.and_then(|id| fabric?.poll(id)) {
                Some(due) => when_drained(shared, Transit { due, ..t }, then),
                None => then(),
            }
        }),
    );
}
