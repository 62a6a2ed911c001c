//! The MPI + fork-join hybrid executor.
//!
//! This mirrors the experimental hybrid in the miniAMR repository that
//! the paper evaluates (§V): computation phases — stencil, local
//! checksum, face pack/unpack, intra-process copies, refinement
//! split/merge copies — are parallelized across worker threads, but every
//! phase ends in a barrier and **all MPI communication stays on the main
//! thread**. Phases never overlap; communication is serialized. That is
//! precisely the structural limitation the data-flow variant removes.
//! Because each phase closes its own barrier, the rank is quiescent
//! whenever the shared loop regains control and [`Exec::wait`] keeps its
//! no-op default.
//!
//! Parallel loops whose iterations may touch the same block (local
//! copies, unpack) run as dependency-protected tasks instead of a raw
//! static `for` — same barrier semantics, but safe under this runtime's
//! dynamic race checking.
//!
//! Every parallel loop is chunked by the grain rule of the shared
//! elaboration ([`grain_batches`]): one task per chunk of at least
//! `GRAIN_ELEMS` elements of work, a protected chunk declaring the union
//! of its members' accesses exactly as a data-flow batch does.

use crate::comm_plan::Endpoint::{Inbound, Outbound};
use crate::comm_plan::MsgPlan;
use crate::config::Config;
use crate::elaborate::{block_batches, copy_batches, fill_batches, grain_batches, union_accesses};
use crate::exchange::{run_refinement, BlockingMover};
use crate::rank::RankState;
use crate::stats::RunStats;
use crate::variant::{
    elab_ctx, fold_task_counts, rank_runtime, run_jobs_as_tasks, Exec, PhaseCtx, PhaseShared,
    SumSlots,
};
use amr_mesh::block_id::Dir;
use parking_lot::Mutex;
use std::cell::Cell;
use std::ops::Range;
use std::sync::Arc;
use taskrt::{Access, Runtime};
use vmpi::{Comm, RequestSet};

/// Parallel phases on a worker pool, each closed by a barrier.
pub(crate) struct ForkJoin {
    rt: Runtime,
    /// Members of chunks beyond the first (see `DataFlow::batched_items`).
    batched_items: Cell<u64>,
}

impl ForkJoin {
    pub(crate) fn new(cfg: &Config, rank: usize) -> ForkJoin {
        // Fork-join opens no trace scopes; keep the replay machinery inert.
        ForkJoin {
            rt: rank_runtime(cfg, rank, false),
            batched_items: Cell::new(0),
        }
    }

    /// Spawns one chunk of a parallel loop, labelled with the phase it
    /// runs (the data-flow variant's task vocabulary).
    fn spawn_chunk(
        &self,
        label: &'static str,
        chunk: &Range<usize>,
        deps: Vec<Access>,
        body: impl FnOnce() + Send + 'static,
    ) {
        self.batched_items
            .set(self.batched_items.get() + chunk.len() as u64 - 1);
        (self.rt.task().label(label))
            .access_list(deps.into())
            .body(body)
            .spawn();
    }
}

impl Exec for ForkJoin {
    /// Master-thread MPI, parallel pack/copy/unpack sub-phases each
    /// closed by a barrier.
    ///
    /// # Panics
    ///
    /// On a failed transport call: the designed unwind of a poisoned or
    /// lost-peer world, which `elastic::run_segment` turns into a
    /// [`crate::RunError`].
    fn communicate(&self, cx: &PhaseCtx, vars: Range<usize>) {
        let PhaseCtx {
            state,
            comm,
            plan,
            bufs,
        } = cx;
        let rt = &self.rt;
        let g = vars.len();
        let sh = PhaseShared::new(cx, vars.clone());
        let objs = sh.objs();
        let elab = elab_ctx(cx, &objs);
        for dir in Dir::ALL {
            let inbound: Vec<_> = plan.in_dir(state.rank, dir, Inbound).collect();
            let mut reqs = Vec::with_capacity(inbound.len());
            for (_, m) in &inbound {
                reqs.push(
                    comm.irecv_into(bufs.span(m, Inbound, g), m.src_rank as i32, m.tag)
                        .expect("post recv"),
                );
            }

            // Parallel pack (read-only on blocks, disjoint buffer sections).
            let outbound: Vec<_> = plan.in_dir(state.rank, dir, Outbound).collect();
            for &(mi, m) in &outbound {
                for chunk in face_chunks(m, g) {
                    let (sh, faces) = (Arc::clone(&sh), chunk.clone());
                    self.spawn_chunk("pack", &chunk, Vec::new(), move || {
                        faces.for_each(|ti| sh.pack(mi, ti))
                    });
                }
            }
            rt.taskwait();

            // Master sends.
            for (_, m) in &outbound {
                let req = comm
                    .isend_from(&bufs.span(m, Outbound, g), m.dst_rank, m.tag)
                    .expect("send faces");
                // Keep the request alive; completion is awaited below.
                reqs.push(req);
            }
            let n_recvs = inbound.len();

            // Intra-process copies: dependency-protected parallel loop.
            for chunk in copy_batches(plan, state.rank, dir, g) {
                let deps = elab.local_copy_accesses(plan, chunk.clone(), &vars);
                let (sh, transfers) = (Arc::clone(&sh), chunk.clone());
                self.spawn_chunk("local_copy", &chunk, deps, move || {
                    sh.local_copies(transfers)
                });
            }
            // Boundary fills join the same protected loop.
            for chunk in fill_batches(plan, &state.layout, state.rank, dir, g) {
                let deps = elab.boundary_accesses(plan, chunk.clone(), &vars);
                let (sh, fills) = (Arc::clone(&sh), chunk.clone());
                self.spawn_chunk("boundary", &chunk, deps, move || sh.boundaries(fills));
            }
            rt.taskwait();

            // Master waits for arrivals; unpack is a protected parallel loop
            // per arrived message.
            let mut set = RequestSet::new(reqs);
            let mut arrived = 0usize;
            while arrived < n_recvs {
                let Some((idx, _)) = obs::phase_span("wait", || set.waitany()) else {
                    break;
                };
                if idx >= n_recvs {
                    continue; // a send completed
                }
                arrived += 1;
                let (mi, m) = inbound[idx];
                for chunk in face_chunks(m, g) {
                    let deps = (chunk.clone())
                        .flat_map(|ti| elab.unpack_accesses(m, ti, bufs.recv_obj, &vars, false))
                        .collect();
                    let (sh, faces) = (Arc::clone(&sh), chunk.clone());
                    self.spawn_chunk("unpack", &chunk, union_accesses(deps), move || {
                        faces.for_each(|ti| sh.unpack(mi, ti))
                    });
                }
            }
            rt.taskwait();
            // Drain the remaining (send) requests before the next direction.
            set.waitall();
        }
    }

    /// Parallel stencil sweep with a closing barrier.
    fn stencil(&self, cx: &PhaseCtx, vars: Range<usize>) {
        let sh = PhaseShared::new(cx, vars);
        for chunk in block_batches(&sh.layout, sh.blocks.len(), sh.vars.len()) {
            let (sh, blocks) = (Arc::clone(&sh), chunk.clone());
            self.spawn_chunk("stencil", &chunk, Vec::new(), move || sh.stencils(blocks));
        }
        self.rt.taskwait();
    }

    /// Parallel per-block reduction into per-block slots (block-id
    /// order); the master performs the global reduction.
    fn local_sums(&self, cx: &PhaseCtx) -> SumSlots {
        let nv = cx.state.cfg.params.num_vars;
        let slots: SumSlots = Arc::new(Mutex::new(vec![Vec::new(); cx.state.blocks.len()]));
        let sh = PhaseShared::new(cx, 0..nv);
        for chunk in block_batches(&sh.layout, sh.blocks.len(), nv) {
            let (sh, out, blocks) = (Arc::clone(&sh), Arc::clone(&slots), chunk.clone());
            self.spawn_chunk("checksum_local", &chunk, Vec::new(), move || {
                sh.checksum_locals(blocks, &out)
            });
        }
        self.rt.taskwait();
        slots
    }

    fn refine(&self, state: &mut RankState, comm: &Arc<Comm>) -> u64 {
        run_refinement(
            state,
            comm,
            &mut BlockingMover::default(),
            &mut |state, jobs| run_jobs_as_tasks(&self.rt, state, jobs, |_| Vec::new()),
        )
    }

    fn finish(&self, stats: &mut RunStats) {
        fold_task_counts(stats, self.rt.stats().spawned, self.batched_items.get());
    }
}

/// Chunks of one message's faces (they tile its buffer section).
fn face_chunks(m: &MsgPlan, g: usize) -> impl Iterator<Item = Range<usize>> + '_ {
    grain_batches(0..m.transfers.len(), move |i| {
        m.transfers[i].elems_per_var * g
    })
}
