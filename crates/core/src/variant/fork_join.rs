//! The master-thread executor: MPI-only, and the MPI + fork-join hybrid.
//!
//! All communication stays on the rank's own thread, Algorithm 2: per
//! direction post the receives, pack and send, do the intra-process
//! copies and boundary fills while messages fly, then a `waitany` loop
//! unpacks messages as they arrive and a final wait drains the sends
//! (§II-A). Every phase has completed when its call returns, so
//! [`Exec::wait`] keeps its no-op default.
//!
//! The two variants differ only in who runs a chunk of work. MPI-only
//! runs it inline on the rank's thread. Fork-join mirrors the
//! experimental hybrid of the miniAMR repository the paper evaluates
//! (§V): it spawns the chunk on a worker pool and closes each sub-phase
//! with a barrier, so phases never overlap and communication stays
//! serialized, the structural limitation the data-flow variant removes.
//! Chunks that may touch the same block (local copies, boundary fills,
//! unpacks) declare their accesses, which keeps them safe under the
//! runtime's dynamic race checking; MPI-only builds no access list.
//!
//! Every loop is chunked by the grain rule of the shared elaboration
//! ([`grain_batches`]): one chunk per at least `GRAIN_ELEMS` elements of
//! work, a protected chunk declaring the union of its members' accesses
//! exactly as a data-flow batch does.

use crate::comm_plan::Endpoint::{Inbound, Outbound};
use crate::comm_plan::MsgPlan;
use crate::elaborate::{block_batches, copy_batches, fill_batches, grain_batches, union_accesses};
use crate::exchange::{run_jobs_serially, run_refinement, BlockingMover};
use crate::rank::RankState;
use crate::stats::RunStats;
use crate::variant::{
    elab_ctx, fold_task_counts, run_jobs_as_tasks, Exec, PhaseCtx, PhaseShared, SumSlots,
};
use amr_mesh::block_id::Dir;
use parking_lot::Mutex;
use std::cell::Cell;
use std::ops::Range;
use std::sync::Arc;
use taskrt::{Access, Runtime};
use vmpi::{Comm, RequestSet};

/// Master-thread MPI with serial or fork-join compute phases.
pub(crate) struct ForkJoin {
    /// The worker pool; `None` is MPI-only.
    rt: Option<Runtime>,
    /// Members of chunks beyond the first (see `DataFlow::batched_items`).
    batched_items: Cell<u64>,
}

impl ForkJoin {
    /// Fork-join on `rt`'s workers, or MPI-only without a pool.
    pub(crate) fn new(rt: Option<Runtime>) -> ForkJoin {
        ForkJoin {
            rt,
            batched_items: Cell::new(0),
        }
    }

    /// Runs one chunk of a loop, labelled with the phase it runs (the
    /// data-flow variant's task vocabulary): inline under a phase span
    /// without a pool, else as a task declaring `deps`.
    fn chunk(
        &self,
        label: &'static str,
        chunk: &Range<usize>,
        deps: impl FnOnce() -> Vec<Access>,
        body: impl FnOnce() + Send + 'static,
    ) {
        let Some(rt) = &self.rt else {
            return obs::phase_span(label, body);
        };
        self.batched_items
            .set(self.batched_items.get() + chunk.len() as u64 - 1);
        (rt.task().label(label))
            .access_list(deps().into())
            .body(body)
            .spawn();
    }

    /// Closes a loop: every chunk has run.
    fn barrier(&self) {
        if let Some(rt) = &self.rt {
            rt.taskwait();
        }
    }
}

impl Exec for ForkJoin {
    /// Algorithm 2: per-direction exchange with a `waitany` consume loop.
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

            // Pack straight into the send buffer's sections (read-only on
            // blocks, disjoint sections). A message is sent once its packs
            // are complete: right after them without a pool (Algorithm 2),
            // after the pack barrier with one, so that the packs of all
            // messages run in parallel.
            let outbound: Vec<_> = plan.in_dir(state.rank, dir, Outbound).collect();
            let send = |m: &MsgPlan| {
                comm.isend_from(&bufs.span(m, Outbound, g), m.dst_rank, m.tag)
                    .expect("send faces")
            };
            let mut sends = Vec::with_capacity(outbound.len());
            for &(mi, m) in &outbound {
                for chunk in face_chunks(m, g) {
                    let (sh, faces) = (Arc::clone(&sh), chunk.clone());
                    self.chunk("pack", &chunk, Vec::new, move || {
                        faces.for_each(|ti| sh.pack(mi, ti))
                    });
                }
                if self.rt.is_none() {
                    sends.push(send(m));
                }
            }
            self.barrier();
            sends.extend(outbound[sends.len()..].iter().map(|&(_, m)| send(m)));

            // Intra-process copies, block to block, and domain-boundary
            // fills while messages are in flight.
            for chunk in copy_batches(plan, state.rank, dir, g) {
                let deps = || elab.local_copy_accesses(plan, chunk.clone(), &vars);
                let (sh, transfers) = (Arc::clone(&sh), chunk.clone());
                self.chunk("local_copy", &chunk, deps, move || {
                    sh.local_copies(transfers)
                });
            }
            for chunk in fill_batches(plan, &state.layout, state.rank, dir, g) {
                let deps = || elab.boundary_accesses(plan, chunk.clone(), &vars);
                let (sh, fills) = (Arc::clone(&sh), chunk.clone());
                self.chunk("boundary", &chunk, deps, move || sh.boundaries(fills));
            }
            self.barrier();

            // Unpack each message as it arrives.
            let mut set = RequestSet::new(reqs);
            while let Some((idx, _)) = obs::phase_span("wait", || set.waitany()) {
                let (mi, m) = inbound[idx];
                for chunk in face_chunks(m, g) {
                    let deps = || {
                        let each = |ti| elab.unpack_accesses(m, ti, bufs.recv_obj, &vars, false);
                        union_accesses(chunk.clone().flat_map(each).collect())
                    };
                    let (sh, faces) = (Arc::clone(&sh), chunk.clone());
                    self.chunk("unpack", &chunk, deps, move || {
                        faces.for_each(|ti| sh.unpack(mi, ti))
                    });
                }
            }
            self.barrier();

            // Drain the sends before the next direction reuses the buffers.
            for r in sends {
                obs::phase_span("wait", || r.wait());
            }
        }
    }

    fn stencil(&self, cx: &PhaseCtx, vars: Range<usize>) {
        let sh = PhaseShared::new(cx, vars);
        for chunk in block_batches(&sh.layout, sh.blocks.len(), sh.vars.len()) {
            let (sh, blocks) = (Arc::clone(&sh), chunk.clone());
            self.chunk("stencil", &chunk, Vec::new, move || sh.stencils(blocks));
        }
        self.barrier();
    }

    /// Per-block reductions into per-block slots (block-id order); the
    /// master performs the global reduction.
    fn local_sums(&self, cx: &PhaseCtx) -> SumSlots {
        let nv = cx.state.cfg.params.num_vars;
        let slots: SumSlots = Arc::new(Mutex::new(vec![Vec::new(); cx.state.blocks.len()]));
        let sh = PhaseShared::new(cx, 0..nv);
        for chunk in block_batches(&sh.layout, sh.blocks.len(), nv) {
            let (sh, out, blocks) = (Arc::clone(&sh), Arc::clone(&slots), chunk.clone());
            self.chunk("checksum_local", &chunk, Vec::new, move || {
                sh.checksum_locals(blocks, &out)
            });
        }
        self.barrier();
        slots
    }

    /// Blocking moves; split/merge jobs serially or as one task each.
    fn refine(&self, state: &mut RankState, comm: &Arc<Comm>) -> u64 {
        let mover = &mut BlockingMover::default();
        run_refinement(state, comm, mover, &mut |state, jobs| match &self.rt {
            Some(rt) => run_jobs_as_tasks(rt, state, jobs, |_| Vec::new()),
            None => run_jobs_serially(state, jobs),
        })
    }

    fn finish(&self, stats: &mut RunStats) {
        if let Some(rt) = &self.rt {
            fold_task_counts(stats, rt.stats().spawned, self.batched_items.get());
        }
    }
}

/// Chunks of one message's faces (they tile its buffer section).
fn face_chunks(m: &MsgPlan, g: usize) -> impl Iterator<Item = Range<usize>> + '_ {
    grain_batches(0..m.transfers.len(), move |i| {
        m.transfers[i].elems_per_var * g
    })
}
