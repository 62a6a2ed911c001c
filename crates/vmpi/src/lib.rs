//! # vmpi — an in-process message-passing substrate
//!
//! `vmpi` provides MPI-like semantics inside a single OS process: a fixed
//! set of *ranks*, each running on its own thread, exchange typed messages
//! through communicators. It exists because this reproduction of the
//! CLUSTER 2020 paper *"Towards Data-Flow Parallelization for Adaptive Mesh
//! Refinement Applications"* needs a message-passing layer with the exact
//! MPI feature set miniAMR uses — non-blocking point-to-point operations
//! with tags and request objects, `waitany`/`waitall`, wildcard receives,
//! and collectives — while no full MPI implementation is available to bind
//! against.
//!
//! ## Semantics
//!
//! * **Matching** follows MPI: a receive matches a message when the
//!   communicator, source and tag agree (`ANY_SOURCE` / `ANY_TAG`
//!   wildcards are supported) and messages between a given (source,
//!   destination, communicator) triple are *non-overtaking*: they match
//!   posted receives in send order.
//! * **Completion** is decoupled from matching through a configurable
//!   [`NetworkModel`]: a message becomes *available* `latency +
//!   bytes/bandwidth` after it was sent (or, on the contention-aware
//!   fabric, when its flow drains), which is what makes
//!   communication/computation overlap measurable on this substrate.
//! * **Requests** ([`Request`]) expose `wait`, `test`, completion
//!   callbacks (used by the `tampi` crate to bind requests to tasks), and
//!   the `waitany`/`waitall` combinators of the reference miniAMR code.
//! * **Collectives** (barrier, broadcast, reduce, allreduce, gather,
//!   allgather) are implemented on top of the point-to-point
//!   layer with binomial-tree / ring algorithms in a reserved tag space.
//!
//! ## Example
//!
//! ```
//! use vmpi::{World, NetworkModel};
//!
//! let world = World::new(4, NetworkModel::instant());
//! world.run(|comm| {
//!     let rank = comm.rank();
//!     let next = (rank + 1) % comm.size();
//!     let prev = (rank + comm.size() - 1) % comm.size();
//!     let send = comm.isend(&[rank as f64], next, 7).unwrap();
//!     let (data, status) = comm.recv::<f64>(prev as i32, 7).unwrap();
//!     assert_eq!(status.source, prev);
//!     assert_eq!(data[0], prev as f64);
//!     send.wait();
//!     let sum = comm.allreduce_scalar(rank as f64, vmpi::ReduceOp::Sum).unwrap();
//!     assert_eq!(sum, 0.0 + 1.0 + 2.0 + 3.0);
//! });
//! ```

#![warn(missing_docs)]

mod collective;
mod collshm;
mod comm;
mod datatype;
mod delivery;
mod error;
pub mod fabric;
pub mod fault;
mod mailbox;
mod net;
mod reliable;
mod request;
mod wire;
mod world;

pub use collective::Reducible;
pub use comm::{
    in_collective_tag_space, valid_user_tag, Comm, Status, ANY_SOURCE, ANY_TAG, COLL_TAG_BASE,
    TAG_UB,
};
pub use datatype::Pod;
pub use error::{Result, VmpiError};
pub use fabric::FabricParams;
pub use fault::{ChaosConfig, PeerLostAction, PeerLostReport};
pub use net::{CollAlgo, NetworkModel};
pub use request::{Request, RequestSet};
pub use shmem::{BufSlice, SharedBuffer};
pub use world::World;

/// Reduction operators supported by [`Comm::reduce`]/[`Comm::allreduce`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReduceOp {
    /// Elementwise sum.
    Sum,
    /// Elementwise minimum.
    Min,
    /// Elementwise maximum.
    Max,
    /// Elementwise product.
    Prod,
}

impl ReduceOp {
    /// Applies the operator to a pair of `f64` values.
    #[inline]
    pub fn apply_f64(self, a: f64, b: f64) -> f64 {
        match self {
            ReduceOp::Sum => a + b,
            ReduceOp::Min => a.min(b),
            ReduceOp::Max => a.max(b),
            ReduceOp::Prod => a * b,
        }
    }
}
