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

use crate::comm_plan::Endpoint::{Inbound, Outbound};
use crate::config::Config;
use crate::elaborate::{self, ElabCtx, Work};
use crate::exchange::{run_refinement, BlockMover, RefineJob};
use crate::rank::RankState;
use crate::stats::RunStats;
use crate::variant::{
    elab_ctx, fold_task_counts, rank_runtime, run_jobs_as_tasks, Exec, PhaseCtx, PhaseShared,
    SumSlots,
};
use amr_mesh::data::{BlockData, BlockLayout};
use parking_lot::Mutex;
use std::cell::{Cell, RefCell};
use std::ops::Range;
use std::sync::Arc;
use taskrt::{Access, BarrierKind, ObjId, Region, Runtime, Submitter, TaskSpec, TraceScope};
use vmpi::Comm;

/// The three task-submitting calls of the timestep loop.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Phase {
    Communicate,
    Stencil,
    LocalSums,
}

/// One phase call as the call log remembers it: which call it was, where
/// its tasks sit in the runtime's trace, and what it must hand back
/// without running again. Counts, positions and slot handles — the tasks,
/// their accesses and their edges stay in `taskrt::trace`.
struct PhaseCall {
    phase: Phase,
    vars: Range<usize>,
    /// Trace position of the call's first task …
    start: usize,
    /// … and how many it spawned.
    tasks: usize,
    /// What the call added to `DataFlow::batched_items`.
    batched_items: u64,
    /// The slots a `LocalSums` call's tasks fill (every one of them, so
    /// each timestep's run of the call can hand out the same vector).
    slots: Option<SumSlots>,
}

/// Task streams elaborated into a runtime that orders them by their
/// declared accesses; only [`Exec::wait`] ever blocks the main thread.
pub(crate) struct DataFlow {
    rt: Runtime,
    /// One persistent dependency object for every checksum point's
    /// slots: a fresh ObjId per point would make each timestep's
    /// submission stream structurally unique and defeat trace replay.
    sums_obj: ObjId,
    /// Members of batches beyond the first: what the tasks spawned fall
    /// short of the work items elaborated.
    batched_items: Cell<u64>,
    /// The phase calls of one timestep of the current mesh epoch, in call
    /// order, each as its latest elaboration left it. While the runtime
    /// replays, a call found here is not elaborated again: its tasks are
    /// re-armed where they sit ([`Runtime::replay_tasks`]). That rests on
    /// what `staticcheck` rests on — within a mesh epoch the stream of a
    /// phase call is a function of (phase, vars) alone — and on the
    /// runtime refusing unless its trace stands exactly at `start`.
    calls: RefCell<Vec<PhaseCall>>,
    /// Index into `calls` of the timestep's next phase call.
    next_call: Cell<usize>,
}

impl DataFlow {
    pub(crate) fn new(cfg: &Config, rank: usize) -> DataFlow {
        DataFlow {
            rt: rank_runtime(cfg, rank, cfg.replay),
            sums_obj: ObjId::fresh(),
            batched_items: Cell::new(0),
            calls: RefCell::default(),
            next_call: Cell::new(0),
        }
    }

    /// Runs one phase of the shared elaboration ([`crate::elaborate`])
    /// into its live consumer — or, on a replay hit, re-arms the tasks the
    /// call spawned when it last ran. Returns the checksum slots of a
    /// `LocalSums` call.
    fn submit_phase(
        &self,
        cx: &PhaseCtx,
        phase: Phase,
        vars: Range<usize>,
        elaborate: impl FnOnce(&ElabCtx, &mut LiveSub),
    ) -> Option<SumSlots> {
        let k = self.next_call.replace(self.next_call.get() + 1);
        if let Some(call) = self.calls.borrow().get(k) {
            if (call.phase, &call.vars) == (phase, &vars)
                && self.rt.replay_tasks(call.start, call.tasks)
            {
                self.batched_items
                    .set(self.batched_items.get() + call.batched_items);
                return call.slots.clone();
            }
        }
        // This call's entry and the ones behind it describe tasks that
        // are about to be replaced.
        self.calls.borrow_mut().truncate(k);
        let start = self.rt.trace_position();
        let items_before = self.batched_items.get();
        let slots: Option<SumSlots> = (phase == Phase::LocalSums)
            .then(|| Arc::new(Mutex::new(vec![Vec::new(); cx.state.blocks.len()])));
        let shared = PhaseShared::new(cx, vars.clone());
        let objs = shared.objs();
        let mut sub = LiveSub {
            rt: &self.rt,
            cx,
            shared,
            slots: slots.as_ref(),
            batched_items: &self.batched_items,
        };
        elaborate(&elab_ctx(cx, &objs), &mut sub);
        // Logged only if the scope recorded (or replayed by fingerprint)
        // from the call's first task to its last.
        if let (Some(start), Some(end)) = (start, self.rt.trace_position()) {
            self.calls.borrow_mut().push(PhaseCall {
                phase,
                vars,
                start,
                tasks: end - start,
                batched_items: self.batched_items.get() - items_before,
                slots: slots.clone(),
            });
        }
        slots
    }
}

impl Exec for DataFlow {
    /// Algorithm 3: the fully taskified communicate (see
    /// [`crate::elaborate::ElabCtx::communicate`] for the spawn-order
    /// invariants, [`crate::comm_plan::BufferLayout`] for the regions).
    fn communicate(&self, cx: &PhaseCtx, vars: Range<usize>) {
        self.submit_phase(cx, Phase::Communicate, vars.clone(), |ctx, sub| {
            ctx.communicate(&cx.plan, cx.bufs.send_obj, cx.bufs.recv_obj, vars, sub)
        });
    }

    /// Stencil tasks chain behind the unpackers via block dependencies;
    /// no barrier.
    fn stencil(&self, cx: &PhaseCtx, vars: Range<usize>) {
        self.submit_phase(cx, Phase::Stencil, vars.clone(), |ctx, sub| {
            ctx.stencils(vars, sub)
        });
    }

    /// Spawns the per-block local reduction tasks of one checksum point;
    /// the i-th slot is the i-th local block in id order (see
    /// [`crate::elaborate::ElabCtx::checksum_locals`]).
    ///
    /// # Panics
    ///
    /// If `submit_phase` returned a `LocalSums` call no slots — it never
    /// does: it hands every such call its slots, fresh or from the log.
    fn local_sums(&self, cx: &PhaseCtx) -> SumSlots {
        let nv = cx.state.cfg.params.num_vars;
        self.submit_phase(cx, Phase::LocalSums, 0..nv, |ctx, sub| {
            ctx.checksum_locals(self.sums_obj, sub)
        })
        .expect("a LocalSums call has slots")
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

    /// One trace scope per traced timestep: the first timestep of a mesh
    /// epoch is recorded, the later ones re-arm its tasks phase call by
    /// phase call. (Re-arming a whole timestep at once would let stages
    /// run past an eager checksum's `taskwait` and turn it into a delayed
    /// one.) A timestep alone in its epoch has nothing to replay it, so it
    /// records nothing.
    fn timestep(&self, traced: bool) -> Option<TraceScope<'_>> {
        self.next_call.set(0);
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
        self.calls.borrow_mut().clear();
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
        stats.trace_invalidations += rts.trace_invalidations;
    }
}

fn block_region(layout: &BlockLayout, block: &BlockData, vars: Range<usize>) -> Region {
    Region::new(crate::block_obj(block.uid), layout.var_elem_range(vars))
}

/// The live consumer of the shared elaboration stream
/// ([`crate::elaborate`]): materializes each [`TaskSpec`] into a real
/// task body and spawns it. The static verifier consumes the *same*
/// stream with `dfcheck`'s recorder, so declared accesses, endpoints
/// and spawn order cannot drift between execution and analysis.
///
/// Buffer slices come from the buffers' [`crate::comm_plan::BufferLayout`],
/// which placed the spec's declared regions too: a slice is its task's
/// declaration by construction. Every body is re-runnable (`body_fn`): it
/// leaves its captures in place and clones the ranges and slices it hands
/// on, so a replay hit can run it again.
struct LiveSub<'a> {
    rt: &'a Runtime,
    cx: &'a PhaseCtx,
    shared: Arc<PhaseShared>,
    /// Checksum phase only.
    slots: Option<&'a SumSlots>,
    batched_items: &'a Cell<u64>,
}

impl Submitter<Work> for LiveSub<'_> {
    /// # Panics
    ///
    /// If a message-coupled spec comes without its endpoint, or a
    /// checksum spec outside a checksum phase: [`crate::elaborate`] emits
    /// neither. A task body panics on a failed transport call, the
    /// designed unwind of a poisoned or lost-peer world.
    fn submit(&mut self, spec: TaskSpec<Work>) {
        let PhaseCtx {
            comm, plan, bufs, ..
        } = self.cx;
        self.batched_items
            .set(self.batched_items.get() + elaborate::items(&spec) as u64 - 1);
        let builder = self.rt.task().label(spec.label).priority(spec.priority);
        let sh = Arc::clone(&self.shared);
        let g = sh.vars.len();
        let task = match spec.work {
            Work::Recv { msg } => {
                let slice = bufs.span(&plan.msgs[msg], Inbound, g);
                let intent = spec.comm.as_ref().expect("recv spec has an endpoint");
                let (src, tag) = (intent.peer, intent.tag);
                let comm = Arc::clone(comm);
                builder.body_fn(move || {
                    tampi::irecv_into(&comm, slice.clone(), src as i32, tag).expect("recv task")
                })
            }
            Work::Pack { msg, transfer } => {
                // A pack with an endpoint fills its whole message and sends
                // it as well.
                let send = (spec.comm.as_ref()).map(|i| {
                    let slice = bufs.span(&plan.msgs[msg], Outbound, g);
                    (Arc::clone(comm), slice, i.peer, i.tag)
                });
                builder.body_fn(move || {
                    sh.pack(msg, transfer);
                    if let Some((comm, slice, dst, tag)) = &send {
                        tampi::isend_from(comm, slice, *dst, *tag).expect("pack task")
                    }
                })
            }
            Work::Send { msg } => {
                let slice = bufs.span(&plan.msgs[msg], Outbound, g);
                let intent = spec.comm.as_ref().expect("send spec has an endpoint");
                let (dst, tag) = (intent.peer, intent.tag);
                let comm = Arc::clone(comm);
                builder
                    .body_fn(move || tampi::isend_from(&comm, &slice, dst, tag).expect("send task"))
            }
            Work::LocalCopies { transfers } => {
                builder.body_fn(move || sh.local_copies(transfers.clone()))
            }
            Work::Boundaries { fills } => builder.body_fn(move || sh.boundaries(fills.clone())),
            Work::Unpack { msg, transfer } => {
                // An unpack with an endpoint empties its whole message and
                // receives it too, from its on-ready gate.
                let builder = match &spec.comm {
                    Some(intent) => {
                        let (src, tag) = (intent.peer as i32, intent.tag);
                        let slice = bufs.span(&plan.msgs[msg], Inbound, g);
                        let comm = Arc::clone(comm);
                        builder.on_ready(move |gate| {
                            tampi::irecv_on_ready(&comm, slice.clone(), src, tag, gate)
                                .expect("unpack gate")
                        })
                    }
                    None => builder,
                };
                builder.body_fn(move || sh.unpack(msg, transfer))
            }
            Work::Stencils { blocks } => builder.body_fn(move || sh.stencils(blocks.clone())),
            Work::ChecksumLocals { slots } => {
                let out = Arc::clone(self.slots.expect("checksum phase has slots"));
                builder.body_fn(move || sh.checksum_locals(slots.clone(), &out))
            }
        };
        task.access_list(spec.accesses).spawn();
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
