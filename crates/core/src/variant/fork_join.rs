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

use crate::comm_plan::MsgPlan;
use crate::config::Config;
use crate::exchange::{run_refinement, BlockingMover, RefineJob};
use crate::rank::{
    apply_boundary, apply_local_transfer, pack_transfer_into, unpack_transfer, RankState,
};
use crate::stats::RunStats;
use crate::trace::{record, Kind, Trace};
use crate::variant::{rank_runtime, Exec, PhaseCtx, SumSlots};
use amr_mesh::block_id::Dir;
use amr_mesh::data::BlockData;
use parking_lot::Mutex;
use std::ops::Range;
use std::sync::Arc;
use taskrt::{Region, Runtime};
use vmpi::{Comm, RequestSet};

/// Parallel phases on a worker pool, each closed by a barrier.
pub(crate) struct ForkJoin {
    rt: Runtime,
}

impl ForkJoin {
    pub(crate) fn new(cfg: &Config, rank: usize) -> ForkJoin {
        // Fork-join opens no trace scopes; keep the replay machinery inert.
        ForkJoin {
            rt: rank_runtime(cfg, rank, false),
        }
    }
}

impl Exec for ForkJoin {
    /// Master-thread MPI, parallel pack/copy/unpack sub-phases each
    /// closed by a barrier.
    fn communicate(&self, cx: &PhaseCtx, vars: Range<usize>) {
        let PhaseCtx {
            state,
            comm,
            plan,
            bufs,
            ..
        } = cx;
        let rt = &self.rt;
        let g = vars.len();
        for dir in Dir::ALL {
            let d = dir.index();
            let inbound: Vec<&MsgPlan> =
                plan.inbound(state.rank).filter(|m| m.dir == dir).collect();
            let mut reqs = Vec::with_capacity(inbound.len());
            for m in &inbound {
                let lo = m.recv_offset * g;
                let slice = bufs.recv[d].slice(lo..lo + m.elems_per_var * g);
                reqs.push(
                    comm.irecv_into(slice, m.src_rank as i32, m.tag)
                        .expect("post recv"),
                );
            }

            // Parallel pack (read-only on blocks, disjoint buffer sections).
            let outbound: Vec<&MsgPlan> =
                plan.outbound(state.rank).filter(|m| m.dir == dir).collect();
            for m in &outbound {
                for t in m.transfers.clone() {
                    let src = state.block(&t.src_block).clone();
                    let layout = state.layout;
                    let vars = vars.clone();
                    let slice = {
                        let lo = (m.send_offset + t.offset_in_msg) * g;
                        bufs.send[d].slice(lo..lo + t.elems_per_var * g)
                    };
                    let tr = cx.trace.clone();
                    rt.spawn(Vec::new(), move || {
                        record(tr.as_ref(), Kind::Pack, || {
                            slice.with_write(|dst| {
                                pack_transfer_into(&layout, &src, &t, vars.clone(), dst)
                            });
                        })
                    });
                }
            }
            rt.taskwait();

            // Master sends.
            for m in &outbound {
                let lo = m.send_offset * g;
                let slice = bufs.send[d].slice(lo..lo + m.elems_per_var * g);
                let req = comm
                    .isend_from(&slice, m.dst_rank, m.tag)
                    .expect("send faces");
                // Keep the request alive; completion is awaited below.
                reqs.push(req);
            }
            let n_recvs = inbound.len();

            // Intra-process copies: dependency-protected parallel loop.
            for t in plan
                .locals
                .iter()
                .filter(|t| t.dir == dir && t.src_rank == state.rank)
            {
                let src = state.block(&t.src_block).clone();
                let dst = state.block(&t.dst_block).clone();
                let layout = state.layout;
                let vars2 = vars.clone();
                let t = t.clone();
                let deps = vec![
                    taskrt::Access::read(Region::new(
                        crate::block_obj(src.uid),
                        layout.var_elem_range(vars2.clone()),
                    )),
                    taskrt::Access::read_write(Region::new(
                        crate::block_obj(dst.uid),
                        layout.var_elem_range(vars2.clone()),
                    )),
                ];
                let tr = cx.trace.clone();
                let pool = Arc::clone(&state.pool);
                rt.spawn(deps, move || {
                    record(tr.as_ref(), Kind::LocalCopy, || {
                        apply_local_transfer(&layout, &src, &dst, &t, vars2.clone(), &pool)
                    })
                });
            }
            // Boundary fills join the same protected loop.
            for (block, bdir, side) in plan
                .boundaries
                .iter()
                .filter(|(b, bd, _)| *bd == dir && state.dir.owner(b) == Some(state.rank))
            {
                let b = state.block(block).clone();
                let layout = state.layout;
                let vars2 = vars.clone();
                let (bdir, side) = (*bdir, *side);
                let deps = vec![taskrt::Access::read_write(Region::new(
                    crate::block_obj(b.uid),
                    layout.var_elem_range(vars2.clone()),
                ))];
                rt.spawn(deps, move || {
                    apply_boundary(&layout, &b, bdir, side, vars2.clone())
                });
            }
            rt.taskwait();

            // Master waits for arrivals; unpack is a protected parallel loop
            // per arrived message.
            let mut set = RequestSet::new(reqs);
            let mut arrived = 0usize;
            while arrived < n_recvs {
                let Some((idx, _)) = record(cx.trace.as_ref(), Kind::Wait, || set.waitany()) else {
                    break;
                };
                if idx >= n_recvs {
                    continue; // a send completed
                }
                arrived += 1;
                let m = inbound[idx];
                for t in m.transfers.clone() {
                    let dst = state.block(&t.dst_block).clone();
                    let layout = state.layout;
                    let vars2 = vars.clone();
                    let lo = (m.recv_offset + t.offset_in_msg) * g;
                    let slice = bufs.recv[d].slice(lo..lo + t.elems_per_var * g);
                    let deps = vec![
                        taskrt::Access::read(Region::new(
                            bufs.recv_obj[d],
                            lo..lo + t.elems_per_var * g,
                        )),
                        taskrt::Access::read_write(Region::new(
                            crate::block_obj(dst.uid),
                            layout.var_elem_range(vars2.clone()),
                        )),
                    ];
                    let tr = cx.trace.clone();
                    rt.spawn(deps, move || {
                        record(tr.as_ref(), Kind::Unpack, || {
                            slice.with_read(|payload| {
                                unpack_transfer(&layout, &dst, &t, vars2.clone(), payload)
                            });
                        })
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
        for block in cx.state.blocks.values() {
            let block = block.clone();
            let layout = cx.state.layout;
            let kind = cx.state.cfg.stencil;
            let vars = vars.clone();
            let tr = cx.trace.clone();
            self.rt.spawn(Vec::new(), move || {
                record(tr.as_ref(), Kind::Stencil, || {
                    amr_mesh::stencil::apply_stencil(&block, &layout, kind, vars)
                })
            });
        }
        self.rt.taskwait();
    }

    /// Parallel per-block reduction into per-block slots (block-id
    /// order); the master performs the global reduction.
    fn local_sums(&self, cx: &PhaseCtx) -> SumSlots {
        let nv = cx.state.cfg.params.num_vars;
        let slots: SumSlots = Arc::new(Mutex::new(vec![Vec::new(); cx.state.blocks.len()]));
        for (i, block) in cx.state.blocks.values().cloned().enumerate() {
            let layout = cx.state.layout;
            let slots = Arc::clone(&slots);
            let tr = cx.trace.clone();
            self.rt.spawn(Vec::new(), move || {
                let sums = record(tr.as_ref(), Kind::ChecksumLocal, || {
                    amr_mesh::checksum::block_sums(&block, &layout, 0..nv)
                });
                slots.lock()[i] = sums;
            });
        }
        self.rt.taskwait();
        slots
    }

    fn refine(&self, state: &mut RankState, comm: &Arc<Comm>, trace: Option<&Trace>) -> u64 {
        run_refinement(
            state,
            comm,
            &mut BlockingMover::default(),
            &mut |state, jobs| run_jobs_parallel(&self.rt, state, jobs, trace),
        )
    }

    fn finish(&self, stats: &mut RunStats) {
        stats.tasks_spawned += self.rt.stats().spawned;
    }
}

/// Runs split/merge data jobs as a parallel loop with a closing barrier.
fn run_jobs_parallel(
    rt: &Runtime,
    state: &RankState,
    jobs: Vec<RefineJob>,
    trace: Option<&Trace>,
) -> Vec<BlockData> {
    let results: Arc<Mutex<Vec<BlockData>>> = Arc::new(Mutex::new(Vec::new()));
    let params = state.cfg.params.clone();
    for job in jobs {
        let results = Arc::clone(&results);
        let params = params.clone();
        let tr = trace.cloned();
        rt.spawn(Vec::new(), move || {
            let out = record(tr.as_ref(), Kind::RefineCopy, || job.run(&params));
            results.lock().extend(out);
        });
    }
    rt.taskwait();
    // Deterministic insertion order regardless of task completion order.
    let mut out = std::mem::take(&mut *results.lock());
    out.sort_by_key(|b| b.id);
    out
}
