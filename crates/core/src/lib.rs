//! # miniamr — the proxy application, in three parallelizations
//!
//! A Rust reimplementation of the **miniAMR** adaptive-mesh-refinement
//! proxy application and of the data-flow taskification the CLUSTER 2020
//! paper *"Towards Data-Flow Parallelization for Adaptive Mesh Refinement
//! Applications"* (Sala, Rico, Beltran) builds on top of it.
//!
//! Each timestep runs several *stages* (ghost-face communication followed
//! by a stencil sweep, Algorithm 1), periodic *checksum* validation, and
//! periodic *refinement* — objects move through the unit-cube mesh,
//! blocks split/merge around their boundaries, and a load-balancing pass
//! redistributes blocks across ranks with an ACK-based exchange protocol
//! (§IV-B).
//!
//! Three variants share the identical numerical kernels, communication
//! plan and timestep loop ([`variant`]'s `run_span`, Algorithm 1 written
//! once), differing only in the executor that orchestrates each phase:
//!
//! * [`variant::fork_join`] without a worker pool — MPI-only, the
//!   reference: one rank per core, serial execution inside each rank,
//!   non-blocking sends/receives with the `waitany` consume loop of
//!   Algorithm 2.
//! * [`variant::fork_join`] with a pool — MPI + OpenMP-style: the same
//!   master-thread loop, its computation phases run as parallel loops
//!   over blocks/faces, each closed by a barrier.
//! * [`variant::dataflow`] — the paper's contribution (Algorithms 3, 4):
//!   every phase is decomposed into tasks connected by region
//!   dependencies; communication tasks bind in-flight transfers through
//!   the task-aware layer (`tampi`), so phases overlap naturally. The
//!   paper's new options `--separate_buffers`, `--send_faces` and
//!   `--max_comm_tasks` control communication-task granularity, and the
//!   OmpSs-2 `taskwait_on` trick delays checksum validation by one
//!   checkpoint (§IV-C).
//!
//! All variants produce **bitwise-identical checksums** for the same
//! configuration — the backbone of this repo's correctness argument.
//!
//! ```
//! use miniamr::{Config, Variant};
//! use vmpi::NetworkModel;
//!
//! let mut cfg = Config::smoke_test();
//! cfg.variant = Variant::DataFlow;
//! let stats = miniamr::run_world(&cfg, 2, NetworkModel::instant());
//! assert!(stats[0].checksums_passed > 0);
//! ```

#![warn(missing_docs)]

pub mod checkpoint;
pub mod cli;
pub mod comm_plan;
pub mod config;
pub mod elaborate;
pub mod elastic;
pub mod exchange;
pub mod rank;
pub mod skeleton;
pub mod staticcheck;
pub mod stats;
pub mod variant;

pub use config::{BalanceKind, Config, JobCtx, Variant};
pub use elastic::{ElasticOpts, PeerLostPolicy, ResizePlan, RunError};
pub use stats::{PhaseTimes, RunStats, Summary};

use vmpi::{Comm, NetworkModel};

/// Task-dependency object id of a mesh block.
///
/// Block uids come from `amr_mesh`'s own counter, which is independent
/// of the `taskrt::ObjId::fresh` counter backing communication-buffer
/// and checksum objects. The mesh counter starts at the high bit so the
/// two id spaces stay disjoint — an aliased id would invent dependency
/// edges between unrelated tasks and phantom races under depsan.
pub fn block_obj(uid: u64) -> taskrt::ObjId {
    debug_assert!(uid >> 63 == 1, "block uids live in the high id namespace");
    taskrt::ObjId(uid)
}

/// Runs one rank of the configured variant (call from inside
/// [`vmpi::World::run`] or an equivalent harness). The rank keeps its
/// checkpoints to itself; [`run_world`] is the driver that can act on
/// them.
pub fn run_rank(cfg: &Config, comm: Comm) -> RunStats {
    let ctx = elastic::RunCtx::default();
    run_rank_span(cfg, comm, None, cfg.num_tsteps, &ctx).0
}

/// Runs one *span* of the configured variant on one rank: from `start`
/// (or initial conditions) up to — not including — timestep `ts_end`.
/// The span primitive behind both [`run_rank`] (one span covering the
/// whole run) and [`elastic::run`] (a span per world segment).
pub(crate) fn run_rank_span(
    cfg: &Config,
    comm: Comm,
    start: Option<(RunStats, elastic::SpanStart)>,
    ts_end: usize,
    ctx: &elastic::RunCtx,
) -> (RunStats, elastic::SpanStart) {
    // Whether a send is eager is the transport's decision. A config that
    // promises more than the world's threshold is clamped to it: the task
    // stream fuses a send into its pack only when the send is eager, and
    // a pack holding its block behind a rendezvous send would wait for
    // the peer's pack doing the same.
    let clamped;
    let cfg = if cfg.eager_bytes > comm.eager_threshold() {
        clamped = Config {
            eager_bytes: comm.eager_threshold(),
            ..cfg.clone()
        };
        &clamped
    } else {
        cfg
    };
    obs::set_thread_rank(cfg.obs_rank(comm.rank()));
    let exec = variant::executor(cfg, comm.rank());
    variant::run_span(&*exec, cfg, comm, start, ts_end, ctx)
}

/// Convenience: builds a world of `n_ranks` and runs the configured
/// variant on every rank, returning per-rank statistics — the fixed-rank
/// run of [`elastic::run`], the one driver.
///
/// # Panics
///
/// With the [`RunError`]'s report if the run stops early: under a
/// [`Config::chaos`] plan, on an unrecoverable peer, or when the block
/// exchange would overfill [`Config::max_blocks`]. This is the
/// convenience's contract, not an invariant: tests, examples and the
/// bench run scenarios they expect to finish and fail loudly if one does
/// not. The CLI calls [`elastic::run`], which returns the error instead,
/// so CLI input never reaches this panic.
pub fn run_world(cfg: &Config, n_ranks: usize, net: NetworkModel) -> Vec<RunStats> {
    elastic::run(cfg, n_ranks, net, &ElasticOpts::default()).unwrap_or_else(|e| panic!("{e}"))
}
