//! # simnet — a cluster performance simulator for AMR workloads
//!
//! The paper's evaluation runs on up to 256 MareNostrum4 nodes (12288
//! cores). The development host has two vCPUs, so wall-clock experiments
//! cannot reproduce the scaling *numbers*; what can be reproduced is the
//! *shape* — who wins, by what factor, and where the curves bend — by
//! simulating the three execution models over the **real workload**: the
//! actual mesh evolution (refinement plans, SFC load balancing) of the
//! `amr-mesh` engine, and the cross-rank face traffic of the
//! application's own communication plan (`miniamr::comm_plan`).
//!
//! The simulator advances per-rank clocks phase by phase:
//!
//! * a **stage** costs each rank its pack/unpack/copy/stencil work plus
//!   its exposed network time, combined according to the execution model
//!   (serial with partial overlap for MPI-only; divided by workers with
//!   barriers and master-only communication for fork-join; divided by
//!   workers with communication overlap and cross-stage imbalance
//!   smoothing for data-flow);
//! * a **refinement** costs control code and collectives, split/merge
//!   copies, and the ACK-based block exchange.
//!
//! Every mechanism has one cost constant ([`CostModel`]); there are *no
//! per-variant fudge factors* — the differences between variants emerge
//! from how each model composes the same costs, mirroring the structural
//! arguments of the paper (§V-B): phase overlap, communication
//! serialization, barrier overhead, and imbalance sensitivity.

#![warn(missing_docs)]

pub mod cost;
pub mod model;
pub mod workload;

pub use cost::CostModel;
pub use model::{simulate, ExecModel, SimResult};
pub use workload::{rank_grid_for, Workload, WorkloadParams};
