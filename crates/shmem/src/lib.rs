//! # shmem — shared memory regions with dynamic race detection
//!
//! In the data-flow execution model of the reproduced paper (CLUSTER
//! 2020, miniAMR over TAMPI + OmpSs-2), *task dependencies* — not the
//! type system — guarantee that concurrent tasks touch disjoint data:
//! pack tasks write disjoint sections of one communication buffer,
//! stencil tasks update disjoint variable ranges of mesh blocks, and so
//! on. This crate provides the storage type that makes that model sound
//! in Rust:
//!
//! * [`SharedBuffer`] — a fixed-size slab of [`Pod`] elements with
//!   interior mutability, and
//! * [`BufSlice`] — a cloneable, `Send` handle to a region of it, whose
//!   every access acquires a read or write *claim* on the region's
//!   interval. Overlapping read/write or write/write claims panic
//!   immediately with a diagnostic, so a missing task dependency becomes
//!   a deterministic failure rather than silent data corruption.
//!
//! The claim check is always on: it is cheap (one compare-exchange to
//! publish the claim in an inline slot, a scan of the handful of other
//! slots, one store to release — a lock only once more claims are active
//! than there are slots) relative to the copies and stencil sweeps it
//! guards.
#![warn(missing_docs)]

//!
//! The crate also hosts the per-rank [`BufferPool`] of recyclable scratch
//! buffers used to keep the communication hot path allocation-free.

mod buffer;
mod pod;
mod pool;

pub use buffer::{BufSlice, SharedBuffer};
pub use pod::{as_bytes, copy_to_slice, from_bytes, Pod};
pub use pool::{BufferPool, PoolStats, PooledBuf};
