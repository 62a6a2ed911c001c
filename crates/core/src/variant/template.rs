//! The task program every variant runs: one template per `(phase, vars)`
//! call of the mesh epoch, elaborated once by [`crate::elaborate`] and
//! run by each variant's schedule (`Exec::run`) as often as the loop
//! calls the pair.
//!
//! A template holds the tasks of the call with their exact-size access
//! lists and re-runnable bodies. What the schedules do not share is who
//! posts a message endpoint: data-flow's tasks post their own through
//! the task-aware layer (a `recv` or `send` task, a pack that sends, an
//! unpack whose on-ready gate receives), while MPI-only and fork-join post
//! them from the rank's thread (Algorithm 2), so their templates keep the
//! endpoint beside a body that only computes.

use crate::comm_plan::Endpoint::{Inbound, Outbound};
use crate::config::Variant;
use crate::elaborate::{self, ElabCtx, Work};
use crate::variant::{PhaseCtx, PhaseShared, SumSlots};
use parking_lot::Mutex;
use shmem::BufSlice;
use std::ops::Range;
use std::sync::Arc;
use taskrt::{Accesses, Body, CommKind, Gate, GateHold, ObjId, Submitter, TaskSpec};

/// The three task-submitting calls of the timestep loop.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) enum Phase {
    Communicate,
    Stencil,
    LocalSums,
}

/// A message endpoint the rank's thread posts: the template task's
/// [`taskrt::CommIntent`], at its message's span of the buffers.
pub(crate) struct Endpoint {
    pub peer: usize,
    pub tag: i32,
    pub slice: BufSlice<f64>,
}

/// One task of a [`Template`]: what every task object spawned from it
/// points at instead of holding a copy.
pub(crate) struct TemplateTask {
    pub label: &'static str,
    pub priority: i32,
    /// Exact-size.
    pub accesses: Accesses,
    /// `None`: a `recv` or `send` task whose endpoint the rank's thread
    /// posts, with nothing to compute.
    pub body: Option<Body>,
    pub gate: Option<Gate>,
    /// The endpoint the rank's thread posts for the task; always `None`
    /// when the tasks post their own.
    pub endpoint: Option<Endpoint>,
    pub work: Work,
}

/// The elaboration of one `(phase, vars)` call in the current mesh epoch:
/// every call of the pair until the mesh changes runs its tasks from it.
/// That rests on what `staticcheck` rests on — within a mesh epoch the
/// stream of a phase call is a function of (phase, vars) alone.
pub(crate) struct Template {
    pub phase: Phase,
    pub vars: Range<usize>,
    /// What the bodies run on: one per `vars`, whichever phase built it.
    pub shared: Arc<PhaseShared>,
    pub tasks: Vec<TemplateTask>,
    /// Work items beyond each task's first, over the whole call: batch
    /// members, and the endpoint a task posts itself.
    pub batched_items: u64,
    /// The slot vector a `LocalSums` template's bodies fill.
    pub slots: Option<SumSlots>,
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

/// The current mesh epoch's templates, one per `(phase, vars)` called.
pub(crate) struct Templates {
    /// Whether the tasks post their own message endpoints (data-flow).
    bind: bool,
    /// One persistent dependency object for every checksum point's
    /// slots: a fresh ObjId per point would make each timestep's
    /// submission stream structurally unique and defeat trace replay.
    pub sums_obj: ObjId,
    list: Vec<Template>,
}

impl Templates {
    pub(crate) fn new(variant: Variant) -> Templates {
        Templates {
            bind: tasks_post_endpoints(variant),
            sums_obj: ObjId::fresh(),
            list: Vec::new(),
        }
    }

    /// The template of a call of `(phase, vars)`, elaborated
    /// ([`crate::elaborate`]) by this call if it is the pair's first in
    /// the mesh epoch.
    pub(crate) fn get(&mut self, cx: &PhaseCtx, phase: Phase, vars: Range<usize>) -> &Template {
        if let Some(t) = self.list.iter().position(|t| t.serves(phase, &vars)) {
            return &self.list[t];
        }
        let shared = match self.list.iter().find(|t| t.vars == vars) {
            Some(t) => Arc::clone(&t.shared),
            None => PhaseShared::new(cx, vars.clone()),
        };
        let slots: Option<SumSlots> = (phase == Phase::LocalSums)
            .then(|| Arc::new(Mutex::new(vec![Vec::new(); cx.state.blocks.len()])));
        let objs = shared.objs();
        let ctx = ElabCtx {
            cfg: &cx.state.cfg,
            layout: cx.state.layout,
            rank: cx.state.rank,
            objs: &objs,
        };
        let mut sub = LiveSub {
            cx,
            shared: Arc::clone(&shared),
            slots: slots.as_ref(),
            bind: self.bind,
            tasks: Vec::new(),
            batched_items: 0,
        };
        match phase {
            Phase::Communicate => {
                let (send, recv) = (cx.bufs.send_obj, cx.bufs.recv_obj);
                ctx.communicate(&cx.plan, send, recv, vars.clone(), &mut sub)
            }
            Phase::Stencil => ctx.stencils(vars.clone(), &mut sub),
            Phase::LocalSums => ctx.checksum_locals(self.sums_obj, &mut sub),
        }
        let (tasks, batched_items) = (sub.tasks, sub.batched_items);
        self.list.push(Template {
            phase,
            vars,
            shared,
            tasks,
            batched_items,
            slots,
        });
        self.list.last().expect("just pushed")
    }

    /// A regrid replaces blocks, plan and buffers: let go of every
    /// template, and with them the blocks their bodies hold.
    pub(crate) fn clear(&mut self) {
        self.list.clear();
    }
}

/// Whether `variant`'s tasks post their own message endpoints. Data-flow's
/// do, so its phase calls only submit and its rank's thread waits at the
/// cadence's waits alone. MPI-only's and fork-join's rank thread posts
/// them (Algorithm 2): a call has run when it returns, and the thread
/// blocks on other ranks only where it drains an exchange direction's
/// sends, at the end of each of [`crate::variant::directions`]. The
/// static model places its barriers by the same rule.
pub(crate) fn tasks_post_endpoints(variant: Variant) -> bool {
    variant == Variant::DataFlow
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
    /// Whether the bodies post the endpoints.
    bind: bool,
    tasks: Vec<TemplateTask>,
    batched_items: u64,
}

impl Submitter<Work> for LiveSub<'_> {
    /// # Panics
    ///
    /// If a checksum spec comes outside a checksum phase: [`crate::elaborate`]
    /// emits none. A task body panics on a failed transport call, the
    /// designed unwind of a poisoned or lost-peer world.
    fn submit(&mut self, spec: TaskSpec<Work>) {
        let PhaseCtx {
            comm, plan, bufs, ..
        } = self.cx;
        let sh = Arc::clone(&self.shared);
        let g = sh.vars.len();
        let mut endpoint = spec
            .comm
            .as_ref()
            .zip(spec.work.msg())
            .map(|(intent, msg)| {
                let end = match intent.kind {
                    CommKind::Recv => Inbound,
                    CommKind::Send => Outbound,
                };
                Endpoint {
                    peer: intent.peer,
                    tag: intent.tag,
                    slice: bufs.span(&plan.msgs[msg], end, g),
                }
            });
        // What the task posts itself, when it does.
        let bound = endpoint.take_if(|_| self.bind);
        let comm = Arc::clone(comm);
        let (body, gate): (Option<Body>, Option<Gate>) = match spec.work.clone() {
            Work::Recv { .. } => {
                let body = bound.map(|e| -> Body {
                    Arc::new(move || {
                        tampi::irecv_into(&comm, e.slice.clone(), e.peer as i32, e.tag)
                            .expect("recv task")
                    })
                });
                (body, None)
            }
            Work::Send { .. } => {
                let body = bound.map(|e| -> Body {
                    Arc::new(move || {
                        tampi::isend_from(&comm, &e.slice, e.peer, e.tag).expect("send task")
                    })
                });
                (body, None)
            }
            // A bound pack with an endpoint fills its whole message and
            // sends it as well.
            Work::Pack { msg, transfer } => {
                let body = move || {
                    sh.pack(msg, transfer);
                    if let Some(e) = &bound {
                        tampi::isend_from(&comm, &e.slice, e.peer, e.tag).expect("pack task")
                    }
                };
                (Some(Arc::new(body)), None)
            }
            Work::LocalCopies { transfers } => (
                Some(Arc::new(move || sh.local_copies(transfers.clone()))),
                None,
            ),
            Work::Boundaries { fills } => {
                (Some(Arc::new(move || sh.boundaries(fills.clone()))), None)
            }
            // A bound unpack with an endpoint empties its whole message
            // and receives it too, from its on-ready gate.
            Work::Unpack { msg, transfer } => {
                let gate = bound.map(|e| -> Gate {
                    Arc::new(move |hold: GateHold| {
                        tampi::irecv_on_ready(&comm, e.slice.clone(), e.peer as i32, e.tag, hold)
                            .expect("unpack gate")
                    })
                });
                (Some(Arc::new(move || sh.unpack(msg, transfer))), gate)
            }
            Work::Stencils { blocks } => {
                (Some(Arc::new(move || sh.stencils(blocks.clone()))), None)
            }
            Work::ChecksumLocals { slots } => {
                let out = Arc::clone(self.slots.expect("checksum phase has slots"));
                let body = move || sh.checksum_locals(slots.clone(), &out);
                (Some(Arc::new(body)), None)
            }
        };
        // An endpoint the rank's thread posts is no item of the task's.
        let items = elaborate::items(&spec) - usize::from(body.is_some() && endpoint.is_some());
        self.batched_items += items as u64 - 1;
        self.tasks.push(TemplateTask {
            label: spec.label,
            priority: spec.priority,
            accesses: Arc::from(&spec.accesses[..]),
            body,
            gate,
            endpoint,
            work: spec.work,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Config;
    use crate::rank::RankState;
    use crate::variant::{executor, plan_and_buffers};
    use std::sync::Weak;
    use taskrt::Access;
    use vmpi::{NetworkModel, World};

    /// Under every schedule, every call of one `(phase, vars)` in a mesh
    /// epoch runs its template, the phases of one `vars` share what their
    /// bodies run on, two checksum points still get slots of their own,
    /// and clearing the templates at a mesh change lets go of all of it.
    #[test]
    fn calls_of_one_pair_share_a_template_until_the_mesh_changes() {
        for variant in [Variant::MpiOnly, Variant::ForkJoin, Variant::DataFlow] {
            let mut cfg = Config::smoke_test();
            cfg.params.npx = 1;
            cfg.variant = variant;
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
                let exec = executor(&cfg, 0);
                let mut templates = Templates::new(variant);
                let (vars, nv) = (cfg.var_group(0), cfg.params.num_vars);
                // A recorded timestep: a data-flow trace keeps every task
                // object.
                let scope = exec.timestep(true);
                for _ in 0..2 {
                    exec.run(&cx, templates.get(&cx, Phase::Communicate, vars.clone()));
                    exec.run(&cx, templates.get(&cx, Phase::Stencil, vars.clone()));
                }
                let mut sums = || {
                    let call = templates.get(&cx, Phase::LocalSums, 0..nv);
                    exec.run(&cx, call);
                    Arc::clone(call.slots.as_ref().expect("a LocalSums call has slots"))
                };
                // A point still awaiting validation keeps its slots to
                // itself; once it lets go, the next point fills them again.
                let (held, other) = (sums(), sums());
                assert!(!Arc::ptr_eq(&held, &other), "{variant:?}: shared slots");
                exec.wait(None);
                let first = Arc::as_ptr(&held);
                drop(held);
                assert_eq!(Arc::as_ptr(&sums()), first);
                drop(scope);
                exec.wait(None);

                let list = &templates.list;
                let phases: Vec<Phase> = list.iter().map(|t| t.phase).collect();
                use Phase::{Communicate, LocalSums, Stencil};
                assert_eq!(phases, [Communicate, Stencil, LocalSums, LocalSums]);
                assert!(Arc::ptr_eq(&list[0].shared, &list[1].shared));
                // The template's own handle, and under data-flow one per
                // call's task object, which the trace keeps: every
                // template was called twice but the one of the point that
                // was left in flight. A serial schedule keeps none.
                let kept = |calls| calls * usize::from(variant == Variant::DataFlow);
                let mut accesses: Vec<Weak<[Access]>> = Vec::new();
                for (t, calls) in list.iter().zip([2, 2, 2, 1]) {
                    for task in &t.tasks {
                        let count = Arc::strong_count(&task.accesses);
                        assert_eq!(count, 1 + kept(calls), "{variant:?} {}", task.label);
                        accesses.push(Arc::downgrade(&task.accesses));
                    }
                }
                templates.clear();
                exec.mesh_changed();
                assert!(accesses.iter().all(|a| a.strong_count() == 0));
            });
        }
    }
}
