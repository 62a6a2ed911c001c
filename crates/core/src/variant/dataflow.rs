//! The data-flow executor: the paper's contribution (Algorithm 3, and
//! the barriers of Algorithm 4 behind [`Exec::wait`]).
//!
//! A phase call spawns the tasks of its template (the task program every
//! variant shares, [`super::template`]), which post their own message
//! endpoints; their region dependencies alone order them:
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
//!   `waitany` loop exists anywhere (§IV-A). A message of one section
//!   (`--send_faces`) is two tasks: its pack posts the send at the end of
//!   its body when the send is eager, and its unpack (`inout` section)
//!   posts the receive from an on-ready gate, so the message is one more
//!   predecessor of the unpack.
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
use crate::exchange::{run_refinement, BlockMover, RefineJob};
use crate::rank::RankState;
use crate::stats::RunStats;
use crate::variant::template::Template;
use crate::variant::{fold_task_counts, rank_runtime, run_jobs_as_tasks, Exec, PhaseCtx};
use amr_mesh::data::{BlockData, BlockLayout};
use std::cell::Cell;
use std::ops::Range;
use std::sync::Arc;
use taskrt::{Access, ObjId, Region, Runtime, TraceScope};
use vmpi::Comm;

/// Task streams spawned into a runtime that orders them by their
/// declared accesses; only [`Exec::wait`] ever blocks the main thread.
pub(crate) struct DataFlow {
    rt: Runtime,
    /// Members of batches beyond the first: what the tasks spawned fall
    /// short of the work items elaborated.
    batched_items: Cell<u64>,
}

impl DataFlow {
    pub(crate) fn new(cfg: &Config, rank: usize) -> DataFlow {
        DataFlow {
            rt: rank_runtime(cfg, rank, cfg.replay),
            batched_items: Cell::new(0),
        }
    }
}

impl Exec for DataFlow {
    /// Spawns a phase call's tasks: Algorithm 3's communicate (see
    /// [`crate::elaborate::ElabCtx::communicate`] for the spawn-order
    /// invariants), the stencils chained behind the unpackers through
    /// their block dependencies, or the per-block reductions of a checksum
    /// point — no barrier in any of them.
    ///
    /// # Panics
    ///
    /// If a task has no body: every task of a data-flow template posts
    /// its own endpoint, so every one has.
    fn run(&self, _cx: &PhaseCtx, call: &Template) {
        for task in &call.tasks {
            let body = task.body.as_ref().expect("a data-flow task has a body");
            let spawn = (self.rt.task().label(task.label).priority(task.priority))
                .access_list(Arc::clone(&task.accesses))
                .body_shared(Arc::clone(body));
            match &task.gate {
                Some(gate) => spawn.on_ready_shared(Arc::clone(gate)).spawn(),
                None => spawn.spawn(),
            }
        }
        (self.batched_items).set(self.batched_items.get() + call.batched_items);
    }

    /// `taskwait`, or the OmpSs-2 `taskwait_on` of §IV-C when only one
    /// object's writers must have finished.
    fn wait(&self, on: Option<ObjId>) {
        match on {
            None => self.rt.taskwait(),
            Some(obj) => self.rt.taskwait_on(&[Region::whole(obj)]),
        }
    }

    /// One trace scope per traced timestep: the first of a run of traced
    /// timesteps is recorded, and each spawn of a later one re-arms the
    /// task object its position recorded. A timestep whose neighbours
    /// spawn other streams, or that is alone in its epoch, has nothing to
    /// replay it, so it records nothing.
    fn timestep(&self, traced: bool) -> Option<TraceScope<'_>> {
        traced.then(|| self.rt.trace_scope(0))
    }

    /// Refinement taskified like every other phase (§IV-B; the colorful
    /// region at the left of Fig. 1's lower trace).
    fn refine(&self, state: &mut RankState, comm: &Arc<Comm>) -> u64 {
        let rt = &self.rt;
        run_refinement(state, comm, &mut TaskMover { rt }, &mut |state, jobs| {
            // Each job's task reads its source blocks.
            let (layout, nv) = (state.layout, state.cfg.params.num_vars);
            run_jobs_as_tasks(rt, state, jobs, |job| {
                let sources = match job {
                    RefineJob::Split(parent) => std::slice::from_ref(parent),
                    RefineJob::Merge(children) => &children[..],
                };
                let read = |b| Access::read(block_region(&layout, b, 0..nv));
                sources.iter().map(read).collect()
            })
        })
    }

    /// Regrid/load-balance changed block uids and buffer objects: every
    /// cached trace is structurally stale.
    fn mesh_changed(&self) {
        self.rt.invalidate_traces();
    }

    fn finish(&self, stats: &mut RunStats) {
        let rts = self.rt.stats();
        fold_task_counts(stats, rts.spawned, self.batched_items.get());
        stats.tasks_replayed += rts.replayed_tasks;
        stats.tasks_rearmed += rts.rearmed_tasks;
        stats.trace_hits += rts.trace_hits;
        stats.trace_records += rts.trace_records;
        stats.trace_closes += rts.trace_closes;
        stats.trace_freezes += rts.trace_freezes;
        stats.trace_divergences += rts.trace_divergences;
        stats.trace_invalidations += rts.trace_invalidations;
    }
}

fn block_region(layout: &BlockLayout, block: &BlockData, vars: Range<usize>) -> Region {
    Region::new(crate::block_obj(block.uid), layout.var_elem_range(vars))
}

/// The taskified block mover of §IV-B: pack/send and receive/unpack are
/// tasks bound through the task-aware layer; `finish` closes the
/// parallelism before the exchange function returns.
///
/// # Panics
///
/// A task body panics on a failed transport call: the designed unwind of
/// a poisoned or lost-peer world, which `elastic::run_segment` turns into
/// a [`crate::RunError`].
struct TaskMover<'a> {
    rt: &'a Runtime,
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
        let pool = Arc::clone(&state.pool);
        self.rt
            .task()
            .label("exchange_send")
            .input(reg)
            .body(move || {
                // Pooled staging buffer, recycled when the task drops it.
                let mut payload = pool.take(nv * layout.cells());
                block.pack_interior_into(&layout, 0..nv, &mut payload);
                tampi::isend(&comm, &payload, to, tag).expect("exchange send");
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
        self.rt
            .task()
            .label("exchange_recv")
            .out(reg)
            .body(move || {
                tampi::irecv_with::<f64, _>(&comm, from as i32, tag, move |payload| {
                    handle.unpack_interior(&layout, 0..nv, &payload);
                })
                .expect("exchange recv");
            })
            .spawn();
        block
    }

    fn finish(&mut self, _comm: &Arc<Comm>) {
        self.rt.taskwait();
    }
}
