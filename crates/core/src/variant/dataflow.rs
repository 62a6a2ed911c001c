//! The data-flow executor: the paper's contribution (Algorithm 3, and
//! the barriers of Algorithm 4 behind [`Exec::wait`]).
//!
//! Every phase is decomposed into tasks connected through region
//! dependencies:
//!
//! * **communicate** (Algorithm 3) — per direction: *receive* tasks post
//!   task-aware receives into buffer sections (`out` on the section);
//!   *pack* tasks copy block faces into send-buffer sections (`in` block,
//!   `out` section); *send* tasks ship sections through the task-aware
//!   layer (`in` on all the sections of the message — multideps);
//!   *local-copy* tasks handle intra-rank neighbors; *unpack* tasks wait
//!   on the receive section and write the ghost plane (`inout` block).
//!   Since a receive task's dependencies only release when the payload
//!   has arrived, unpackers start exactly when their data is ready — no
//!   `waitany` loop exists anywhere (§IV-A).
//! * **stencil** tasks (`inout` block/vars) chain naturally behind the
//!   unpackers and in front of the next stage's packers; stages overlap
//!   without any barrier.
//! * **checksum** (Algorithm 4) — per-block local reductions write slots
//!   of a checksum structure; with `--delayed_checksum` the shared loop
//!   validates checkpoint *k* at checkpoint *k+1* behind an OmpSs-2-style
//!   `taskwait_on` (§IV-C), so even checksums do not drain the task
//!   graph.
//! * **refinement** (§IV-B) — split/coarsen copies run as dependent
//!   tasks; the block exchange sends control messages from the main
//!   thread while pack/send/receive/unpack of block data are tasks bound
//!   through the task-aware layer.

use crate::config::Config;
use crate::elaborate::{ElabCtx, Work};
use crate::exchange::{run_refinement, BlockMover, RefineJob};
use crate::rank::{
    apply_boundary, apply_local_transfer, pack_transfer_into, unpack_transfer, RankState,
};
use crate::stats::RunStats;
use crate::trace::{record, Kind, Trace};
use crate::variant::{rank_runtime, Exec, PhaseCtx, SumSlots};
use amr_mesh::data::{BlockData, BlockLayout};
use amr_mesh::BlockId;
use parking_lot::Mutex;
use std::ops::Range;
use std::sync::Arc;
use taskrt::{Access, BarrierKind, ObjId, Region, Runtime, Submitter, TaskSpec, TraceScope};
use vmpi::Comm;

/// Task streams elaborated into a runtime that orders them by their
/// declared accesses; only [`Exec::wait`] ever blocks the main thread.
pub(crate) struct DataFlow {
    rt: Runtime,
    /// One persistent dependency object for every checksum point's
    /// slots: a fresh ObjId per point would make each timestep's
    /// submission stream structurally unique and defeat trace replay.
    sums_obj: ObjId,
}

impl DataFlow {
    pub(crate) fn new(cfg: &Config, rank: usize) -> DataFlow {
        DataFlow {
            rt: rank_runtime(cfg, rank, cfg.replay),
            sums_obj: ObjId::fresh(),
        }
    }

    /// The two halves of one phase of the shared elaboration
    /// ([`crate::elaborate`]): the stream's source and its live consumer.
    fn live<'a>(
        &'a self,
        cx: &'a PhaseCtx,
        vars: Range<usize>,
        slots: Option<&'a SumSlots>,
    ) -> (ElabCtx<'a>, LiveSub<'a>) {
        let ctx = ElabCtx {
            cfg: &cx.state.cfg,
            layout: cx.state.layout,
            dir: &cx.state.dir,
            rank: cx.state.rank,
        };
        let sub = LiveSub {
            rt: &self.rt,
            cx,
            vars,
            slots,
        };
        (ctx, sub)
    }
}

impl Exec for DataFlow {
    /// Algorithm 3: the fully taskified communicate (see
    /// [`crate::elaborate::ElabCtx::communicate`] for the spawn-order and
    /// offset-stride invariants).
    fn communicate(&self, cx: &PhaseCtx, vars: Range<usize>) {
        let (ctx, mut sub) = self.live(cx, vars.clone(), None);
        ctx.communicate(
            &cx.plan,
            cx.bufs.send_obj,
            cx.bufs.recv_obj,
            vars,
            &mut live_obj_of(&cx.state),
            &mut sub,
        );
    }

    /// Stencil tasks chain behind the unpackers via block dependencies;
    /// no barrier.
    fn stencil(&self, cx: &PhaseCtx, vars: Range<usize>) {
        let (ctx, mut sub) = self.live(cx, vars.clone(), None);
        ctx.stencils(vars, &mut live_obj_of(&cx.state), &mut sub);
    }

    /// Spawns the per-block local reduction tasks of one checksum point;
    /// the i-th slot is the i-th local block in id order (see
    /// [`crate::elaborate::ElabCtx::checksum_locals`]).
    fn local_sums(&self, cx: &PhaseCtx) -> SumSlots {
        let nv = cx.state.cfg.params.num_vars;
        let slots: SumSlots = Arc::new(Mutex::new(vec![Vec::new(); cx.state.blocks.len()]));
        let (ctx, mut sub) = self.live(cx, 0..nv, Some(&slots));
        ctx.checksum_locals(self.sums_obj, &mut live_obj_of(&cx.state), &mut sub);
        slots
    }

    fn sums_obj(&self) -> Option<ObjId> {
        Some(self.sums_obj)
    }

    /// `taskwait`, or the OmpSs-2 `taskwait_on` of §IV-C when only one
    /// object's writers must have finished.
    fn wait(&self, on: Option<ObjId>) {
        match on {
            None => self.rt.taskwait(),
            Some(obj) => self.rt.taskwait_on(&[Region::whole(obj)]),
        }
    }

    /// One trace scope per timestep: after the stream stabilizes
    /// (unchanged mesh and plan), dependency edges replay from the cached
    /// trace instead of re-running claim-table analysis.
    fn timestep_scope(&self) -> Option<TraceScope<'_>> {
        Some(self.rt.trace_scope(0))
    }

    /// Refinement taskified like every other phase (§IV-B; the colorful
    /// region at the left of Fig. 1's lower trace).
    fn refine(&self, state: &mut RankState, comm: &Arc<Comm>, trace: Option<&Trace>) -> u64 {
        let rt = &self.rt;
        run_refinement(
            state,
            comm,
            &mut TaskMover { rt, trace },
            &mut |state, jobs| run_jobs_tasked(rt, state, jobs, trace),
        )
    }

    /// Regrid/load-balance changed block uids and buffer objects: every
    /// cached trace is structurally stale.
    fn mesh_changed(&self) {
        self.rt.invalidate_traces();
    }

    fn finish(&self, stats: &mut RunStats) {
        let rts = self.rt.stats();
        stats.tasks_spawned += rts.spawned;
        stats.tasks_replayed += rts.replayed_tasks;
        stats.trace_hits += rts.trace_hits;
        stats.trace_invalidations += rts.trace_invalidations;
    }
}

fn block_region(layout: &BlockLayout, block: &BlockData, vars: Range<usize>) -> Region {
    Region::new(crate::block_obj(block.uid), layout.var_elem_range(vars))
}

fn live_obj_of<'a>(state: &'a RankState) -> impl FnMut(&BlockId) -> ObjId + 'a {
    |id| crate::block_obj(state.block(id).uid)
}

/// The live consumer of the shared elaboration stream
/// ([`crate::elaborate`]): materializes each [`TaskSpec`] into a real
/// task body and spawns it. The static verifier consumes the *same*
/// stream with `dfcheck`'s recorder, so declared accesses, endpoints
/// and spawn order cannot drift between execution and analysis.
///
/// Buffer slices are derived from the spec's declared regions — the
/// "slice == declaration" invariant holds by construction.
struct LiveSub<'a> {
    rt: &'a Runtime,
    cx: &'a PhaseCtx,
    vars: Range<usize>,
    /// Checksum phase only.
    slots: Option<&'a SumSlots>,
}

impl Submitter<Work> for LiveSub<'_> {
    fn submit(&mut self, spec: TaskSpec<Work>) {
        let PhaseCtx {
            state,
            comm,
            plan,
            bufs,
            trace,
        } = self.cx;
        let builder = self.rt.task().label(spec.label).priority(spec.priority);
        let tr = trace.clone();
        let layout = state.layout;
        let vars = self.vars.clone();
        let task = match spec.work {
            Work::Recv { msg } => {
                let d = plan.msgs[msg].dir.index();
                let r = &spec.accesses[0].region;
                let slice = bufs.recv[d].slice(r.start..r.end);
                let intent = spec.comm.as_ref().expect("recv spec has an endpoint");
                let (src, tag) = (intent.peer, intent.tag);
                let comm = Arc::clone(comm);
                builder.body(move || {
                    record(tr.as_ref(), Kind::Recv, || {
                        tampi::irecv_into(&comm, slice, src as i32, tag).expect("recv task")
                    })
                })
            }
            Work::Pack { msg, transfer } => {
                let m = &plan.msgs[msg];
                let t = m.transfers[transfer].clone();
                let r = &spec.accesses[1].region;
                let slice = bufs.send[m.dir.index()].slice(r.start..r.end);
                let src = state.block(&t.src_block).clone();
                builder.body(move || {
                    record(tr.as_ref(), Kind::Pack, || {
                        slice.with_write(|dst| pack_transfer_into(&layout, &src, &t, vars, dst));
                    })
                })
            }
            Work::Send { msg } => {
                let d = plan.msgs[msg].dir.index();
                // The message span is the union of its packed sections
                // (they tile it contiguously).
                let lo = spec.accesses.iter().map(|a| a.region.start).min().unwrap();
                let hi = spec.accesses.iter().map(|a| a.region.end).max().unwrap();
                let slice = bufs.send[d].slice(lo..hi);
                let intent = spec.comm.as_ref().expect("send spec has an endpoint");
                let (dst, tag) = (intent.peer, intent.tag);
                let comm = Arc::clone(comm);
                builder.body(move || {
                    record(tr.as_ref(), Kind::Send, || {
                        tampi::isend_from(&comm, &slice, dst, tag).expect("send task")
                    })
                })
            }
            Work::LocalCopy { transfer } => {
                let t = plan.locals[transfer].clone();
                let src = state.block(&t.src_block).clone();
                let dst = state.block(&t.dst_block).clone();
                let pool = Arc::clone(&state.pool);
                builder.body(move || {
                    record(tr.as_ref(), Kind::LocalCopy, || {
                        apply_local_transfer(&layout, &src, &dst, &t, vars, &pool)
                    })
                })
            }
            Work::Boundary { boundary } => {
                let (block, bdir, side) = plan.boundaries[boundary];
                let b = state.block(&block).clone();
                builder.body(move || apply_boundary(&layout, &b, bdir, side, vars))
            }
            Work::Unpack { msg, transfer } => {
                let m = &plan.msgs[msg];
                let t = m.transfers[transfer].clone();
                let r = &spec.accesses[0].region;
                let slice = bufs.recv[m.dir.index()].slice(r.start..r.end);
                let dst = state.block(&t.dst_block).clone();
                builder.body(move || {
                    record(tr.as_ref(), Kind::Unpack, || {
                        slice
                            .with_read(|payload| unpack_transfer(&layout, &dst, &t, vars, payload));
                    })
                })
            }
            Work::Stencil { block } => {
                let block = state.block(&block).clone();
                let kind = state.cfg.stencil;
                builder.body(move || {
                    record(tr.as_ref(), Kind::Stencil, || {
                        amr_mesh::stencil::apply_stencil(&block, &layout, kind, vars)
                    })
                })
            }
            Work::ChecksumLocal { slot, block } => {
                let block = state.block(&block).clone();
                let slots = Arc::clone(self.slots.expect("checksum phase has slots"));
                builder.body(move || {
                    let sums = record(tr.as_ref(), Kind::ChecksumLocal, || {
                        amr_mesh::checksum::block_sums(&block, &layout, vars)
                    });
                    slots.lock()[slot] = sums;
                })
            }
        };
        task.accesses(spec.accesses).spawn();
    }

    fn barrier(&mut self, kind: BarrierKind) {
        // The shared loop issues its barriers through `Exec::wait`;
        // elaboration emits none. Kept for trait completeness.
        match kind {
            BarrierKind::Taskwait => self.rt.taskwait(),
            BarrierKind::TaskwaitOn(regions) => self.rt.taskwait_on(&regions),
        }
    }
}

/// Split/merge data operations as dependent tasks.
fn run_jobs_tasked(
    rt: &Runtime,
    state: &RankState,
    jobs: Vec<RefineJob>,
    trace: Option<&Trace>,
) -> Vec<BlockData> {
    let results: Arc<Mutex<Vec<BlockData>>> = Arc::new(Mutex::new(Vec::new()));
    let params = state.cfg.params.clone();
    let layout = state.layout;
    let nv = params.num_vars;
    for job in jobs {
        let deps: Vec<Access> = match &job {
            RefineJob::Split(parent) => vec![Access::read(block_region(&layout, parent, 0..nv))],
            RefineJob::Merge(children) => children
                .iter()
                .map(|c| Access::read(block_region(&layout, c, 0..nv)))
                .collect(),
        };
        let results = Arc::clone(&results);
        let params = params.clone();
        let tr = trace.cloned();
        rt.task()
            .label("refine_copy")
            .accesses(deps)
            .body(move || {
                let out = record(tr.as_ref(), Kind::RefineCopy, || job.run(&params));
                results.lock().extend(out);
            })
            .spawn();
    }
    rt.taskwait();
    let mut out = std::mem::take(&mut *results.lock());
    out.sort_by_key(|b| b.id);
    out
}

/// The taskified block mover of §IV-B: pack/send and receive/unpack are
/// tasks bound through the task-aware layer; `finish` closes the
/// parallelism before the exchange function returns.
struct TaskMover<'a> {
    rt: &'a Runtime,
    trace: Option<&'a Trace>,
}

impl BlockMover for TaskMover<'_> {
    fn send_block(
        &mut self,
        comm: &Arc<Comm>,
        state: &RankState,
        block: BlockData,
        to: usize,
        tag: i32,
    ) {
        let comm = Arc::clone(comm);
        let layout = state.layout;
        let nv = state.cfg.params.num_vars;
        let reg = block_region(&layout, &block, 0..nv);
        let tr = self.trace.cloned();
        let pool = Arc::clone(&state.pool);
        self.rt
            .task()
            .label("exchange_send")
            .input(reg)
            .body(move || {
                record(tr.as_ref(), Kind::RefineExchange, || {
                    // Pooled staging buffer, recycled when the task drops it.
                    let mut payload = pool.take(nv * layout.cells());
                    block.pack_interior_into(&layout, 0..nv, &mut payload);
                    tampi::isend(&comm, &payload, to, tag).expect("exchange send");
                })
            })
            .spawn();
    }

    fn recv_block(
        &mut self,
        comm: &Arc<Comm>,
        state: &RankState,
        id: amr_mesh::BlockId,
        from: usize,
        tag: i32,
    ) -> BlockData {
        let comm = Arc::clone(comm);
        let layout = state.layout;
        let nv = state.cfg.params.num_vars;
        let block = BlockData::empty(id, &state.cfg.params);
        let handle = block.clone();
        let reg = block_region(&layout, &block, 0..nv);
        let tr = self.trace.cloned();
        self.rt
            .task()
            .label("exchange_recv")
            .out(reg)
            .body(move || {
                record(tr.as_ref(), Kind::RefineExchange, || {
                    tampi::irecv_with::<f64, _>(&comm, from as i32, tag, move |payload| {
                        handle.unpack_interior(&layout, 0..nv, &payload);
                    })
                    .expect("exchange recv");
                })
            })
            .spawn();
        block
    }

    fn finish(&mut self, _comm: &Arc<Comm>) {
        self.rt.taskwait();
    }
}
