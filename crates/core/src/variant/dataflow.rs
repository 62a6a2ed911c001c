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
use taskrt::{
    Access, Accesses, Body, Gate, GateHold, ObjId, Region, Runtime, Submitter, TaskSpec, TraceScope,
};
use vmpi::Comm;

/// The three task-submitting calls of the timestep loop.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Phase {
    Communicate,
    Stencil,
    LocalSums,
}

/// One task of a phase-call [`Template`]: what every task object spawned
/// from it points at instead of holding a copy.
struct TemplateTask {
    label: &'static str,
    priority: i32,
    /// Exact-size.
    accesses: Accesses,
    body: Body,
    gate: Option<Gate>,
}

/// The elaboration of one `(phase, vars)` call in the current mesh epoch:
/// every call of the pair until the mesh changes spawns its tasks from it.
/// That rests on what `staticcheck` rests on — within a mesh epoch the
/// stream of a phase call is a function of (phase, vars) alone.
struct Template {
    phase: Phase,
    vars: Range<usize>,
    /// What the bodies run on: one per `vars`, whichever phase built it.
    shared: Arc<PhaseShared>,
    tasks: Vec<TemplateTask>,
    /// Batch members beyond each batch's first, over the whole call.
    batched_items: u64,
    /// The slot vector a `LocalSums` template's bodies fill.
    slots: Option<SumSlots>,
}

impl Template {
    /// Whether the template can serve a call of `(phase, vars)`. A
    /// `LocalSums` template can only while no checksum point awaiting
    /// validation holds its slots — nothing but the template and its
    /// bodies — so two points in flight never share a slot vector, and the
    /// calls of later timesteps reuse it.
    fn serves(&self, phase: Phase, vars: &Range<usize>) -> bool {
        let idle = |slots: &SumSlots| Arc::strong_count(slots) == 1 + self.tasks.len();
        (self.phase, &self.vars) == (phase, vars) && self.slots.as_ref().is_none_or(idle)
    }
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
    /// The current mesh epoch's templates, one per `(phase, vars)` called.
    templates: RefCell<Vec<Template>>,
}

impl DataFlow {
    pub(crate) fn new(cfg: &Config, rank: usize) -> DataFlow {
        DataFlow {
            rt: rank_runtime(cfg, rank, cfg.replay),
            sums_obj: ObjId::fresh(),
            batched_items: Cell::new(0),
            templates: RefCell::default(),
        }
    }

    /// Spawns one phase call's tasks from the template of its `(phase,
    /// vars)`, elaborated ([`crate::elaborate`]) by this call if it is the
    /// pair's first in the mesh epoch. Returns the checksum slots of a
    /// `LocalSums` call.
    fn submit_phase(
        &self,
        cx: &PhaseCtx,
        phase: Phase,
        vars: Range<usize>,
        elaborate: impl FnOnce(&ElabCtx, &mut LiveSub),
    ) -> Option<SumSlots> {
        let mut templates = self.templates.borrow_mut();
        let t = match templates.iter().position(|t| t.serves(phase, &vars)) {
            Some(t) => t,
            None => {
                let shared = match templates.iter().find(|t| t.vars == vars) {
                    Some(t) => Arc::clone(&t.shared),
                    None => PhaseShared::new(cx, vars.clone()),
                };
                let slots: Option<SumSlots> = (phase == Phase::LocalSums)
                    .then(|| Arc::new(Mutex::new(vec![Vec::new(); cx.state.blocks.len()])));
                let objs = shared.objs();
                let mut sub = LiveSub {
                    cx,
                    shared: Arc::clone(&shared),
                    slots: slots.as_ref(),
                    tasks: Vec::new(),
                    batched_items: 0,
                };
                elaborate(&elab_ctx(cx, &objs), &mut sub);
                let (tasks, batched_items) = (sub.tasks, sub.batched_items);
                templates.push(Template {
                    phase,
                    vars,
                    shared,
                    tasks,
                    batched_items,
                    slots,
                });
                templates.len() - 1
            }
        };
        let template = &templates[t];
        for task in &template.tasks {
            let spawn = (self.rt.task().label(task.label).priority(task.priority))
                .access_list(Arc::clone(&task.accesses))
                .body_shared(Arc::clone(&task.body));
            match &task.gate {
                Some(gate) => spawn.on_ready_shared(Arc::clone(gate)).spawn(),
                None => spawn.spawn(),
            }
        }
        (self.batched_items).set(self.batched_items.get() + template.batched_items);
        template.slots.clone()
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
    /// does: every `LocalSums` template owns a slot vector.
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
        // The templates' bodies hold the blocks about to be split, merged
        // and sent away.
        self.templates.borrow_mut().clear();
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
    /// cached trace and template is structurally stale.
    fn mesh_changed(&self) {
        self.rt.invalidate_traces();
        self.templates.borrow_mut().clear();
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

/// The live consumer of the shared elaboration stream
/// ([`crate::elaborate`]): materializes each [`TaskSpec`] into a
/// [`TemplateTask`] with a real task body. The static verifier consumes the
/// *same* stream with `dfcheck`'s recorder, so declared accesses, endpoints
/// and spawn order cannot drift between execution and analysis.
///
/// Buffer slices come from the buffers' [`crate::comm_plan::BufferLayout`],
/// which placed the spec's declared regions too: a slice is its task's
/// declaration by construction. Every body is re-runnable: it leaves its
/// captures in place and clones the ranges and slices it hands on, so any
/// number of task objects — of one call or of many — can run it.
struct LiveSub<'a> {
    cx: &'a PhaseCtx,
    shared: Arc<PhaseShared>,
    /// Checksum phase only.
    slots: Option<&'a SumSlots>,
    tasks: Vec<TemplateTask>,
    batched_items: u64,
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
        self.batched_items += elaborate::items(&spec) as u64 - 1;
        let sh = Arc::clone(&self.shared);
        let g = sh.vars.len();
        let (body, gate): (Body, _) = match spec.work {
            Work::Recv { msg } => {
                let slice = bufs.span(&plan.msgs[msg], Inbound, g);
                let intent = spec.comm.as_ref().expect("recv spec has an endpoint");
                let (src, tag) = (intent.peer, intent.tag);
                let comm = Arc::clone(comm);
                let body = move || {
                    tampi::irecv_into(&comm, slice.clone(), src as i32, tag).expect("recv task")
                };
                (Arc::new(body), None)
            }
            Work::Pack { msg, transfer } => {
                // A pack with an endpoint fills its whole message and sends
                // it as well.
                let send = (spec.comm.as_ref()).map(|i| {
                    let slice = bufs.span(&plan.msgs[msg], Outbound, g);
                    (Arc::clone(comm), slice, i.peer, i.tag)
                });
                let body = move || {
                    sh.pack(msg, transfer);
                    if let Some((comm, slice, dst, tag)) = &send {
                        tampi::isend_from(comm, slice, *dst, *tag).expect("pack task")
                    }
                };
                (Arc::new(body), None)
            }
            Work::Send { msg } => {
                let slice = bufs.span(&plan.msgs[msg], Outbound, g);
                let intent = spec.comm.as_ref().expect("send spec has an endpoint");
                let (dst, tag) = (intent.peer, intent.tag);
                let comm = Arc::clone(comm);
                let body = move || tampi::isend_from(&comm, &slice, dst, tag).expect("send task");
                (Arc::new(body), None)
            }
            Work::LocalCopies { transfers } => {
                (Arc::new(move || sh.local_copies(transfers.clone())), None)
            }
            Work::Boundaries { fills } => (Arc::new(move || sh.boundaries(fills.clone())), None),
            Work::Unpack { msg, transfer } => {
                // An unpack with an endpoint empties its whole message and
                // receives it too, from its on-ready gate.
                let gate = spec.comm.as_ref().map(|intent| -> Gate {
                    let (src, tag) = (intent.peer as i32, intent.tag);
                    let slice = bufs.span(&plan.msgs[msg], Inbound, g);
                    let comm = Arc::clone(comm);
                    Arc::new(move |hold: GateHold| {
                        tampi::irecv_on_ready(&comm, slice.clone(), src, tag, hold)
                            .expect("unpack gate")
                    })
                });
                (Arc::new(move || sh.unpack(msg, transfer)), gate)
            }
            Work::Stencils { blocks } => (Arc::new(move || sh.stencils(blocks.clone())), None),
            Work::ChecksumLocals { slots } => {
                let out = Arc::clone(self.slots.expect("checksum phase has slots"));
                (
                    Arc::new(move || sh.checksum_locals(slots.clone(), &out)),
                    None,
                )
            }
        };
        self.tasks.push(TemplateTask {
            label: spec.label,
            priority: spec.priority,
            accesses: Arc::from(&spec.accesses[..]),
            body,
            gate,
        });
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Variant;
    use crate::variant::plan_and_buffers;
    use std::sync::Weak;
    use vmpi::{NetworkModel, World};

    /// Every call of one `(phase, vars)` in a mesh epoch spawns task
    /// objects that point at its template's accesses, the phases of one
    /// `vars` share what their bodies run on, two checksum points still
    /// get slots of their own, and a mesh change lets go of all of it.
    #[test]
    fn calls_of_one_pair_share_a_template_until_the_mesh_changes() {
        let mut cfg = Config::smoke_test();
        cfg.params.npx = 1;
        cfg.variant = Variant::DataFlow;
        World::new(1, NetworkModel::instant()).run(|comm| {
            let state = RankState::init(&cfg, 0, 1);
            let (plan, bufs) = plan_and_buffers(&state);
            let comm = Arc::new(comm);
            let cx = PhaseCtx {
                state,
                comm,
                plan,
                bufs,
            };
            let df = DataFlow::new(&cfg, 0);
            let vars = cfg.var_group(0);
            // A recorded timestep: the trace keeps every task object.
            let scope = df.timestep(true);
            for _ in 0..2 {
                df.communicate(&cx, vars.clone());
                df.stencil(&cx, vars.clone());
            }
            // A point still awaiting validation keeps its slots to itself;
            // once it lets go, the next point fills them again.
            let held = df.local_sums(&cx);
            let other = df.local_sums(&cx);
            assert!(
                !Arc::ptr_eq(&held, &other),
                "two points in flight share slots"
            );
            df.wait(None);
            let first = Arc::as_ptr(&held);
            drop(held);
            assert_eq!(Arc::as_ptr(&df.local_sums(&cx)), first);
            drop(scope);
            df.wait(None);

            let templates = df.templates.borrow();
            let phases: Vec<Phase> = templates.iter().map(|t| t.phase).collect();
            use Phase::{Communicate, LocalSums, Stencil};
            assert_eq!(phases, [Communicate, Stencil, LocalSums, LocalSums]);
            assert!(Arc::ptr_eq(&templates[0].shared, &templates[1].shared));
            // The template's own handle, and one per call's task object:
            // every template was called twice but the one of the point
            // that was left in flight.
            let mut accesses: Vec<Weak<[Access]>> = Vec::new();
            for (t, calls) in templates.iter().zip([2, 2, 2, 1]) {
                for task in &t.tasks {
                    assert_eq!(Arc::strong_count(&task.accesses), 1 + calls);
                    accesses.push(Arc::downgrade(&task.accesses));
                }
            }
            drop(templates);
            df.mesh_changed();
            assert!(df.templates.borrow().is_empty());
            assert!(accesses.iter().all(|a| a.strong_count() == 0));
        });
    }
}
