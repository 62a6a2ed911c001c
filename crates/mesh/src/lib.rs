//! # amr-mesh — a block-structured adaptive mesh refinement engine
//!
//! This crate reimplements the mesh machinery of the **miniAMR** proxy
//! application (Mantevo suite) that the CLUSTER 2020 paper *"Towards
//! Data-Flow Parallelization for Adaptive Mesh Refinement Applications"*
//! taskifies:
//!
//! * a rectangular mesh over the unit 3D cube, divided into equally-sized
//!   **blocks** ([`BlockId`], [`BlockData`]) that refine by splitting into
//!   eight children and coarsen by consolidating eight siblings
//!   ([`data::split_block`], [`data::merge_children`]);
//! * **moving objects** ([`Object`]) — rectangles, spheroids, cylinders,
//!   hemispheres, solid or surface-only — whose boundaries drive which
//!   blocks refine (§II-A);
//! * the global **mesh directory** ([`MeshDirectory`]) tracking active
//!   blocks, their owners and the refinement decision algorithm with the
//!   2:1 face-neighbor balance constraint;
//! * **stencils** (7-point and 27-point averages) and **face transfer
//!   operators** (same-level copy, fine→coarse restriction, coarse→fine
//!   prolongation) used by the communication phase;
//! * deterministic **checksums** and **partitioners** (Morton
//!   space-filling curve and recursive coordinate bisection) for the load
//!   balancing phase.
//!
//! ## Replicated directory substitution
//!
//! The reference miniAMR maintains *distributed* per-rank neighbor lists,
//! synchronized through messages during refinement. This implementation
//! replicates the (small — one entry per block) directory of active
//! blocks on every rank and keeps it consistent by running the identical
//! deterministic refinement decision everywhere. The resulting mesh
//! evolution, communication pattern (which faces cross which rank
//! boundary) and data movement (block exchange at load balancing) are the
//! same; only the metadata bookkeeping differs. See DESIGN.md §2.1.

#![warn(missing_docs)]

pub mod block_id;
pub mod checksum;
pub mod data;
pub mod directory;
pub mod face;
pub mod object;
pub mod params;
pub mod partition;
pub mod stencil;

pub use block_id::{BlockId, Dir, Side};
pub use data::BlockData;
pub use directory::{MeshDirectory, NeighborInfo, RefinePlan};
pub use object::{Object, Shape};
pub use params::MeshParams;
