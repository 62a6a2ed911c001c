//! The timestep loop (Algorithm 1, with the barriers Algorithm 4 keeps)
//! and the three schedules that run its phases.
//!
//! The paper's three variants share one main loop — per timestep a few
//! stages of ghost exchange + stencil, a periodic checksum, a periodic
//! refinement — and one task program: every phase call runs the tasks of
//! its [`template`], elaborated once per mesh epoch by
//! [`crate::elaborate`]. [`run_span`] is that loop: it maps the steps of
//! [`crate::skeleton::cadence`] onto phase calls and waits, and hands
//! each call's template to [`Exec`], which holds everything that
//! differs:
//!
//! * [`fork_join`] — Algorithm 2 on the rank's own thread, which posts the
//!   template's endpoints and runs its tasks inline (MPI-only) or on a
//!   worker pool, each loop closed by a barrier (fork-join).
//! * [`dataflow::DataFlow`] — Algorithm 3: a call only spawns its tasks,
//!   which post their own endpoints, and the cadence's waits are the only
//!   barriers.

pub mod dataflow;
pub mod fork_join;
pub mod template;

use crate::comm_plan::{BufferLayout, CommPlan, Endpoint, MsgPlan};
use crate::config::{Config, Variant};
use crate::elaborate::Work;
use crate::elastic::{RunCtx, SpanStart};
use crate::exchange::RefineJob;
use crate::rank::{apply_boundary, local_transfer, pack_transfer_into, unpack_transfer, RankState};
use crate::skeleton::{self, Step};
use crate::stats::{RunStats, Stopwatch};
use amr_mesh::data::{BlockData, BlockLayout};
use amr_mesh::stencil::StencilKind;
use amr_mesh::{BlockId, Object};
use parking_lot::Mutex;
use shmem::{BufSlice, SharedBuffer};
use std::ops::Range;
use std::sync::Arc;
use taskrt::{Access, ObjId, Runtime, TraceScope};
use template::{Phase, Template, Templates};
use vmpi::Comm;

/// What a phase works on: the rank's mesh state plus the communication
/// plan and buffers of the current mesh epoch.
pub(crate) struct PhaseCtx {
    pub state: RankState,
    pub comm: Arc<Comm>,
    /// Shared with the task bodies of the hybrid executors, as are the
    /// buffers.
    pub plan: Arc<CommPlan>,
    pub bufs: Arc<Buffers>,
}

/// The communication plan and buffers of the current mesh: the
/// `regrid_rebuild` phase.
fn plan_and_buffers(state: &RankState) -> (Arc<CommPlan>, Arc<Buffers>) {
    obs::phase_span("regrid_rebuild", || {
        let plan = CommPlan::build(&state.cfg, &state.dir, state.n_ranks);
        let bufs = Buffers::alloc(&plan, state.rank, BufferLayout::of(&state.cfg));
        (Arc::new(plan), Arc::new(bufs))
    })
}

/// What the tasks of a phase call run on — of every call of one `vars`
/// in a mesh epoch (its templates share it): one `Arc` of it and an index
/// range is all a body captures. A member's block handles are indexed at
/// run time through the plan's positions, so a member costs the running
/// thread no lookup, no handle clone and no allocation.
pub(crate) struct PhaseShared {
    pub plan: Arc<CommPlan>,
    pub bufs: Arc<Buffers>,
    /// The rank's block handles in id order (the order the plan's
    /// positions index).
    pub blocks: Vec<BlockData>,
    pub layout: BlockLayout,
    pub vars: Range<usize>,
    stencil: StencilKind,
}

impl PhaseShared {
    pub(crate) fn new(cx: &PhaseCtx, vars: Range<usize>) -> Arc<PhaseShared> {
        Arc::new(PhaseShared {
            plan: Arc::clone(&cx.plan),
            bufs: Arc::clone(&cx.bufs),
            blocks: cx.state.local_blocks(),
            layout: cx.state.layout,
            vars,
            stencil: cx.state.cfg.stencil,
        })
    }

    /// The dependency object of every block, in `blocks` order.
    pub(crate) fn objs(&self) -> Vec<ObjId> {
        (self.blocks.iter())
            .map(|b| crate::block_obj(b.uid))
            .collect()
    }

    /// Packs transfer `ti` of message `mi` from its source block into its
    /// section of the send buffer.
    pub(crate) fn pack(&self, mi: usize, ti: usize) {
        let m = &self.plan.msgs[mi];
        let t = &m.transfers[ti];
        let section = self
            .bufs
            .section(m, ti, Endpoint::Outbound, self.vars.len());
        let src = &self.blocks[t.src_pos];
        section.with_write(|out| pack_transfer_into(&self.layout, src, t, self.vars.clone(), out));
    }

    /// Unpacks transfer `ti` of message `mi` out of its section of the
    /// receive buffer into its destination's ghost plane.
    pub(crate) fn unpack(&self, mi: usize, ti: usize) {
        let m = &self.plan.msgs[mi];
        let t = &m.transfers[ti];
        let section = self.bufs.section(m, ti, Endpoint::Inbound, self.vars.len());
        let dst = &self.blocks[t.dst_pos];
        section
            .with_read(|payload| unpack_transfer(&self.layout, dst, t, self.vars.clone(), payload));
    }

    /// Runs a batch of `plan.locals` in index order.
    pub(crate) fn local_copies(&self, transfers: Range<usize>) {
        for t in &self.plan.locals[transfers] {
            let (src, dst) = (&self.blocks[t.src_pos], &self.blocks[t.dst_pos]);
            local_transfer(&self.layout, src, dst, t, self.vars.clone());
        }
    }

    /// Runs a batch of `plan.boundaries`.
    pub(crate) fn boundaries(&self, fills: Range<usize>) {
        for b in &self.plan.boundaries[fills] {
            let block = &self.blocks[b.pos];
            apply_boundary(&self.layout, block, b.dir, b.side, self.vars.clone());
        }
    }

    /// Applies the stencil to a batch of blocks.
    pub(crate) fn stencils(&self, blocks: Range<usize>) {
        for block in &self.blocks[blocks] {
            amr_mesh::stencil::apply_stencil(block, &self.layout, self.stencil, self.vars.clone());
        }
    }

    /// Reduces a batch of blocks into their slots (block position = slot).
    pub(crate) fn checksum_locals(&self, slots: Range<usize>, out: &SumSlots) {
        let sums: Vec<Vec<f64>> = (self.blocks[slots.clone()].iter())
            .map(|b| amr_mesh::checksum::block_sums(b, &self.layout, self.vars.clone()))
            .collect();
        for (slot, sums) in out.lock()[slots].iter_mut().zip(sums) {
            *slot = sums;
        }
    }
}

/// Per-block local sums of one checksum point, in block-id order.
pub(crate) type SumSlots = Arc<Mutex<Vec<Vec<f64>>>>;

/// How the phase calls of the shared loop are scheduled: the part of a
/// variant that is not Algorithm 1 or the task program. Methods take
/// `&self` because the data-flow replay scope borrows the executor for a
/// whole timestep.
pub(crate) trait Exec {
    /// Runs one phase call from its template. A `LocalSums` call's slots
    /// are complete once a [`wait`](Exec::wait) issued after this call
    /// returns.
    fn run(&self, cx: &PhaseCtx, call: &Template);

    /// Blocks until all submitted work (`None`), or the work writing one
    /// object, has completed. Executors whose phases complete before
    /// they return have nothing to wait for.
    fn wait(&self, _on: Option<ObjId>) {}

    /// A timestep begins; the guard held over its submissions (the replay
    /// scope), opened only when it is `traced`.
    fn timestep(&self, _traced: bool) -> Option<TraceScope<'_>> {
        None
    }

    /// One refinement phase (split/merge, block exchange, load balance)
    /// on a quiescent rank; returns the blocks this rank moved.
    fn refine(&self, state: &mut RankState, comm: &Arc<Comm>) -> u64;

    /// A regrid replaced blocks, plan and buffers (and the templates).
    fn mesh_changed(&self) {}

    /// Folds the executor's counters into the span's statistics.
    fn finish(&self, _stats: &mut RunStats) {}
}

/// Folds a hybrid executor's task counts into the span's statistics:
/// `spawned` tasks, which ran `batched_items` work items more than that
/// (the members of batches beyond each batch's first).
fn fold_task_counts(stats: &mut RunStats, spawned: u64, batched_items: u64) {
    stats.tasks_spawned += spawned;
    stats.task_items += spawned + batched_items;
}

/// A communicate call's stream cut into its exchange directions, in
/// order: Algorithm 2 exchanges one direction at a time, and the serial
/// schedules drain a direction's sends at its end — their one wait on
/// other ranks, and the one barrier the static model gives them.
pub(crate) fn directions<'a, T>(
    stream: &'a [T],
    plan: &'a CommPlan,
    work: impl Fn(&T) -> &Work + 'a,
) -> impl Iterator<Item = &'a [T]> {
    stream.chunk_by(move |a, b| work(a).dir(plan) == work(b).dir(plan))
}

/// Runs split/merge jobs as one task each, then a barrier; returns the
/// produced blocks in id order, whatever order the tasks finished in.
/// `deps` declares what a job's task accesses.
pub(crate) fn run_jobs_as_tasks(
    rt: &Runtime,
    state: &RankState,
    jobs: Vec<RefineJob>,
    deps: impl Fn(&RefineJob) -> Vec<Access>,
) -> Vec<BlockData> {
    let results: Arc<Mutex<Vec<BlockData>>> = Arc::default();
    for job in jobs {
        let (results, params) = (Arc::clone(&results), state.cfg.params.clone());
        rt.task()
            .label("refine_copy")
            .accesses(deps(&job))
            .body(move || {
                let out = job.run(&params);
                results.lock().extend(out);
            })
            .spawn();
    }
    rt.taskwait();
    let mut out = std::mem::take(&mut *results.lock());
    out.sort_by_key(|b| b.id);
    out
}

/// The task runtime of a hybrid executor's rank.
fn rank_runtime(cfg: &Config, rank: usize, replay: bool) -> Runtime {
    let rt = Runtime::with_config(taskrt::RuntimeConfig {
        workers: cfg.workers.max(1),
        immediate_successor: cfg.immediate_successor,
        replay,
    });
    rt.set_obs_rank(cfg.obs_rank(rank));
    rt
}

/// The executor `cfg.variant` names.
pub(crate) fn executor(cfg: &Config, rank: usize) -> Box<dyn Exec> {
    match cfg.variant {
        Variant::MpiOnly => Box::new(fork_join::ForkJoin::new(None)),
        Variant::ForkJoin => {
            // Fork-join opens no trace scopes; keep the replay machinery inert.
            let rt = rank_runtime(cfg, rank, false);
            Box::new(fork_join::ForkJoin::new(Some(rt)))
        }
        Variant::DataFlow => Box::new(dataflow::DataFlow::new(cfg, rank)),
    }
}

/// Local sums of one checksum point awaiting validation.
struct LocalSums {
    /// Owning block ids, in slot order.
    ids: Vec<BlockId>,
    slots: SumSlots,
    /// Global cell count when the sums were taken (the normalization
    /// denominator; refinement may change it before a delayed validation
    /// runs).
    total_cells: f64,
    /// Mesh epoch when the sums were taken.
    epoch: u64,
}

/// Runs one *span* on one rank: from `start` (or initial conditions) up
/// to — not including — timestep `ts_end`, returning the stats so far
/// and the start an elastic resume continues from. The span ends fully
/// drained (final wait + delayed-checksum flush), so that start is a
/// quiescent resize point.
pub(crate) fn run_span(
    exec: &dyn Exec,
    cfg: &Config,
    comm: Comm,
    start: Option<(RunStats, SpanStart)>,
    ts_end: usize,
    ctx: &RunCtx,
) -> (RunStats, SpanStart) {
    let comm = Arc::new(comm);
    let resumed = start.is_some();
    let (
        mut stats,
        SpanStart {
            mut state,
            mut mesh_epoch,
            mut prev_checksum,
            next_ts: ts_start,
        },
    ) = start.unwrap_or_else(|| SpanStart::initial(cfg, &comm));

    let total_sw = Stopwatch::start();
    // Initial refinement phase: the mesh was refined locally during init;
    // load-balance it before the main loop starts (the block exchanges
    // visible at the left of the paper's Fig. 1). A resumed span restores
    // an already-balanced mesh.
    if !resumed {
        let sw = Stopwatch::start();
        stats.blocks_moved += exec.refine(&mut state, &comm);
        sw.stop(&mut stats.times.refine);
    }
    let (plan, bufs) = plan_and_buffers(&state);
    let mut templates = Templates::new(cfg.variant);
    let mut cx = PhaseCtx {
        state,
        comm,
        plan,
        bufs,
    };
    // Checksum points not yet validated: with delayed validation (§IV-C)
    // the previous one, possibly still being produced.
    let mut pending: Option<LocalSums> = None;
    let mut ts_scope = None;
    let steps = skeleton::cadence(cfg, ts_start, ts_end, ctx.publish_boundaries);
    for (i, &step) in steps.iter().enumerate() {
        let sw = Stopwatch::start();
        match step {
            // Only taken when a shrink recovery may need to rewind.
            Step::Boundary(t) => ctx.boundary(&cx.state, &stats, mesh_epoch, &prev_checksum, t),
            Step::Timestep { ts, traced } => {
                // Rank-0 marks delimit the perf analyzer's per-timestep
                // windows.
                if let Some(bus) = obs::bus() {
                    bus.emit_for_rank(
                        cx.state.rank as u32,
                        obs::EventData::TimestepMark { tstep: ts as u32 },
                    );
                }
                ts_scope = exec.timestep(traced);
            }
            Step::Stage(_) => {
                for g in 0..cfg.num_groups() {
                    let vars = cfg.var_group(g);
                    let sw = Stopwatch::start();
                    exec.run(&cx, templates.get(&cx, Phase::Communicate, vars.clone()));
                    for m in cx.plan.outbound(cx.state.rank) {
                        stats.msgs_sent += 1;
                        stats.elems_sent += (m.elems_per_var * vars.len()) as u64;
                    }
                    sw.stop(&mut stats.times.communicate);

                    let sw = Stopwatch::start();
                    exec.run(&cx, templates.get(&cx, Phase::Stencil, vars.clone()));
                    stats.flops += (cx.state.blocks.len() * cx.state.layout.cells() * vars.len())
                        as u64
                        * cfg.stencil.flops_per_cell();
                    sw.stop(&mut stats.times.stencil);
                }
            }
            Step::Sums => {
                let call = templates.get(&cx, Phase::LocalSums, 0..cfg.params.num_vars);
                exec.run(&cx, call);
                pending = Some(LocalSums {
                    ids: cx.state.blocks.keys().copied().collect(),
                    slots: Arc::clone(call.slots.as_ref().expect("a LocalSums call has slots")),
                    total_cells: cx.state.dir.total_cells() as f64,
                    epoch: mesh_epoch,
                });
            }
            Step::Wait => exec.wait(None),
            Step::WaitSums => exec.wait(Some(templates.sums_obj)),
            Step::Validate | Step::Flush => {
                if let Some(sums) = pending.take() {
                    validate(sums, &cx, &mut stats, &mut prev_checksum);
                }
            }
            Step::Checkpoint(ts, stage) => crate::checkpoint::take_and_publish(
                &ctx.checkpoints,
                &cx.state,
                &mut stats,
                stage,
                ts,
                mesh_epoch,
            ),
            Step::TimestepEnd => drop(ts_scope.take()),
            Step::Regrid => {
                cx.state.objects.iter_mut().for_each(Object::step);
                // The templates' bodies hold the blocks about to be split,
                // merged and sent away.
                templates.clear();
                stats.blocks_moved += exec.refine(&mut cx.state, &cx.comm);
                mesh_epoch += 1;
                (cx.plan, cx.bufs) = plan_and_buffers(&cx.state);
                exec.mesh_changed();
            }
        }
        // A checksum point's waits and validation count as checksum time,
        // the drain before a regrid as refinement time.
        let phase = match (step, steps.get(i + 1)) {
            (Step::Sums | Step::WaitSums | Step::Validate, _)
            | (Step::Wait, Some(Step::Validate)) => &mut stats.times.checksum,
            (Step::Regrid, _) | (Step::Wait, Some(Step::Regrid)) => &mut stats.times.refine,
            _ => continue,
        };
        sw.stop(phase);
    }
    total_sw.stop(&mut stats.times.total);
    exec.finish(&mut stats);
    stats.final_blocks = cx.state.blocks.len();
    stats.pool = cx.state.pool.stats();
    let next = SpanStart {
        mesh_epoch,
        prev_checksum,
        next_ts: ts_end,
        state: cx.state,
    };
    (stats, next)
}

/// A rank's per-direction send and receive buffers, their dependency
/// objects, and the [`BufferLayout`] that placed and sized them: the
/// slices every executor hands to the transport and to the pack and
/// unpack come from here.
pub(crate) struct Buffers {
    pub layout: BufferLayout,
    pub send: [Arc<SharedBuffer<f64>>; 3],
    pub recv: [Arc<SharedBuffer<f64>>; 3],
    pub send_obj: [ObjId; 3],
    pub recv_obj: [ObjId; 3],
}

impl Buffers {
    /// Allocates `rank`'s buffers for `plan` as `layout` sizes them, a
    /// direction that shares its dependency object sharing its allocation.
    pub fn alloc(plan: &CommPlan, rank: usize, layout: BufferLayout) -> Buffers {
        let mk = |end: Endpoint| -> ([Arc<SharedBuffer<f64>>; 3], [ObjId; 3]) {
            let (sizes, objs) = (layout.sizes(plan, rank, end), layout.objs());
            let new = |d: usize| {
                let buf = SharedBuffer::new(sizes[d]);
                buf.bind_obj(objs[d].0);
                buf
            };
            let x = new(0);
            let [y, z] = [1, 2].map(|d| {
                if objs[d] == objs[0] {
                    Arc::clone(&x)
                } else {
                    new(d)
                }
            });
            ([x, y, z], objs)
        };
        let (send, send_obj) = mk(Endpoint::Outbound);
        let (recv, recv_obj) = mk(Endpoint::Inbound);
        Buffers {
            layout,
            send,
            recv,
            send_obj,
            recv_obj,
        }
    }

    /// Where `m` of a group of `g` variables sits in `end`'s buffer.
    pub fn span(&self, m: &MsgPlan, end: Endpoint, g: usize) -> BufSlice<f64> {
        self.of(m, end).slice(self.layout.span(m, end, g))
    }

    /// Where transfer `ti` of `m` sits in `end`'s buffer.
    pub fn section(&self, m: &MsgPlan, ti: usize, end: Endpoint, g: usize) -> BufSlice<f64> {
        self.of(m, end).slice(self.layout.section(m, ti, end, g))
    }

    fn of(&self, m: &MsgPlan, end: Endpoint) -> &Arc<SharedBuffer<f64>> {
        &[&self.recv, &self.send][end as usize][m.dir.index()]
    }
}

/// Packs a block id into one sortable word (the same packing the
/// checkpoint digest uses): the global combination order below.
pub(crate) fn packed_id(id: &BlockId) -> u64 {
    ((id.level as u64) << 48) | ((id.x as u64) << 32) | ((id.y as u64) << 16) | id.z as u64
}

/// The global checksum combination, *ownership-independent*: every rank
/// contributes its per-block partial sums tagged with the block id; rank
/// 0 sorts all contributions into global block-id order and folds them in
/// that order, then broadcasts the totals.
///
/// Because the floating-point fold order is a property of the mesh alone
/// — never of which rank owns which block — the recorded checksums (and
/// therefore [`crate::stats::RunStats::checksum_digest`]) are bitwise
/// identical across rank counts, load balancers, and elastic resizes.
/// That invariance is the backbone of the elastic-mode digest guarantee.
///
/// # Panics
///
/// On a failed collective: the designed unwind of a poisoned or lost-peer
/// world. In debug builds, unless `per_block` holds one vector of `nv`
/// sums per id (the caller's slots are per block, over all variables).
pub(crate) fn checksum_remote_blocks(
    comm: &Comm,
    ids: &[BlockId],
    per_block: &[Vec<f64>],
    nv: usize,
) -> Vec<f64> {
    debug_assert_eq!(ids.len(), per_block.len());
    // Wire format: per block, one id word (as raw f64 bits) followed by
    // the `nv` per-variable sums.
    let mut flat = Vec::with_capacity(ids.len() * (nv + 1));
    for (id, sums) in ids.iter().zip(per_block) {
        debug_assert_eq!(sums.len(), nv);
        flat.push(f64::from_bits(packed_id(id)));
        flat.extend_from_slice(sums);
    }
    let gathered = comm.gather(&flat, 0).expect("checksum gather");
    let totals = gathered.map(|parts| {
        let mut entries: Vec<(u64, &[f64])> = parts
            .iter()
            .flat_map(|part| {
                part.chunks_exact(nv + 1)
                    .map(|chunk| (chunk[0].to_bits(), &chunk[1..]))
            })
            .collect();
        entries.sort_by_key(|(key, _)| *key);
        let mut acc = vec![0.0f64; nv];
        for (_, sums) in entries {
            for (a, s) in acc.iter_mut().zip(sums) {
                *a += s;
            }
        }
        acc
    });
    comm.bcast(totals.as_deref(), 0).expect("checksum bcast")
}

/// The previous checkpoint a fresh checksum is validated against.
#[derive(Clone)]
pub(crate) struct Checkpoint {
    /// Per-cell means at the previous checkpoint.
    pub means: Vec<f64>,
    /// Mesh epoch (refinement counter) the means were taken under.
    pub epoch: u64,
}

/// Relative tolerance of checksum validation.
const VALIDATE_TOL: f64 = 0.05;

/// Combines a checksum point's (now quiescent) per-block slots through
/// the ownership-independent global combination, validates it against
/// the previous checkpoint and records it.
///
/// Refinement changes the cell population (splitting a block multiplies
/// its cells by eight) and re-weights the per-cell mean, so checksums are
/// only comparable between checkpoints of the same *mesh epoch*. Within
/// an epoch the averaging stencil keeps the per-cell mean nearly
/// constant; corruption (a race, a lost message) shifts it by whole
/// cells. A checkpoint taken under a new epoch resets the baseline —
/// exactly the role of miniAMR's periodic validation. The raw sums are
/// recorded unconditionally (they are the cross-variant bitwise
/// fingerprint).
fn validate(sums: LocalSums, cx: &PhaseCtx, stats: &mut RunStats, prev: &mut Option<Checkpoint>) {
    let cfg = &cx.state.cfg;
    let per_block = sums.slots.lock();
    let current = obs::phase_span("checksum_remote", || {
        checksum_remote_blocks(&cx.comm, &sums.ids, &per_block, cfg.params.num_vars)
    });
    let (tol, epoch) = (VALIDATE_TOL, sums.epoch);
    let means: Vec<f64> = current.iter().map(|s| s / sums.total_cells).collect();
    match prev.as_ref() {
        Some(p) if p.epoch == epoch => match amr_mesh::checksum::validate(&p.means, &means, tol) {
            amr_mesh::checksum::Validation::Ok => stats.checksums_passed += 1,
            amr_mesh::checksum::Validation::Failed { var, rel_err } => {
                stats.checksums_failed += 1;
                eprintln!(
                    "rank {}: checksum validation FAILED: var {var} drifted {rel_err:.3e}",
                    stats.rank
                );
            }
        },
        _ => stats.checksums_passed += 1,
    }
    stats.checksums.push(current);
    *prev = Some(Checkpoint { means, epoch });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exchange::{run_jobs_serially, run_refinement, BlockingMover};
    use std::cell::RefCell;
    use template::tasks_post_endpoints;
    use vmpi::{NetworkModel, World};

    /// Logs what the loop asks of it: each phase call, and each wait of
    /// the schedule of `cfg.variant` on work it did not run — the loop's
    /// waits when the tasks post their own endpoints, else the drain at
    /// the end of each exchange direction. Tasks do not run, local sums
    /// are constant, refinement is MPI-only's (blocking moves, serial
    /// jobs).
    struct Logging {
        log: RefCell<Vec<&'static str>>,
        submits: bool,
    }

    impl Logging {
        fn push(&self, call: &'static str) {
            self.log.borrow_mut().push(call);
        }
    }

    impl Exec for Logging {
        fn run(&self, cx: &PhaseCtx, call: &Template) {
            self.push(match call.phase {
                Phase::Communicate => "comm",
                Phase::Stencil => "stencil",
                Phase::LocalSums => "sums",
            });
            if let Some(slots) = &call.slots {
                slots.lock().fill(vec![1.0; cx.state.cfg.params.num_vars]);
            }
            if call.phase == Phase::Communicate && !self.submits {
                for _ in directions(&call.tasks, &cx.plan, |t| &t.work) {
                    self.push("drain");
                }
            }
        }
        fn wait(&self, on: Option<ObjId>) {
            if self.submits {
                self.push(if on.is_some() { "wait_sums" } else { "wait" });
            }
        }
        fn refine(&self, state: &mut RankState, comm: &Arc<Comm>) -> u64 {
            self.push("refine");
            let mover = &mut BlockingMover::default();
            run_refinement(state, comm, mover, &mut run_jobs_serially)
        }
        fn mesh_changed(&self) {
            self.push("mesh_changed");
        }
    }

    /// Two timesteps of two stages on one rank: a checksum every second
    /// stage, a rank checkpoint at stage 4, a regrid after every timestep.
    fn skeleton_cfg(delayed: bool) -> Config {
        let mut cfg = Config::smoke_test();
        cfg.params.npx = 1;
        cfg.variant = Variant::DataFlow;
        cfg.num_tsteps = 2;
        cfg.stages_per_ts = 2;
        cfg.checksum_freq = 2;
        cfg.ckpt_freq = 4;
        cfg.refine_freq = 1;
        cfg.delayed_checksum = delayed;
        cfg
    }

    /// The calls the shared loop makes on a logging executor.
    fn skeleton(cfg: &Config) -> (Vec<&'static str>, RunStats) {
        let mut per_rank = World::new(1, NetworkModel::instant()).run(|comm| {
            let exec = Logging {
                log: RefCell::default(),
                submits: tasks_post_endpoints(cfg.variant),
            };
            let (stats, _) = run_span(&exec, cfg, comm, None, cfg.num_tsteps, &RunCtx::default());
            (exec.log.into_inner(), stats)
        });
        per_rank.pop().expect("one rank")
    }

    fn calls(s: &str) -> Vec<&str> {
        s.split_whitespace().collect()
    }

    #[test]
    fn eager_validation_drains_at_every_checksum() {
        let (log, stats) = skeleton(&skeleton_cfg(false));
        assert_eq!(
            log,
            calls(
                "refine \
                 comm stencil comm stencil sums wait \
                 wait refine mesh_changed \
                 comm stencil comm stencil sums wait wait \
                 wait refine mesh_changed \
                 wait"
            )
        );
        assert_eq!(stats.checksums.len(), 2);
        assert_eq!(stats.checkpoints_taken, 1);
    }

    #[test]
    fn delayed_validation_waits_only_on_the_previous_sums() {
        let (log, stats) = skeleton(&skeleton_cfg(true));
        assert_eq!(
            log,
            calls(
                "refine \
                 comm stencil comm stencil sums \
                 wait refine mesh_changed \
                 comm stencil comm stencil wait_sums sums wait \
                 wait refine mesh_changed \
                 wait"
            )
        );
        // The second point is validated by the final flush.
        assert_eq!(stats.checksums.len(), 2);
        assert_eq!(stats.checkpoints_taken, 1);
    }

    /// `staticcheck` walks the schedule skeleton a second time; for a
    /// scenario whose epochs it models in full, a rank's barriers and
    /// local-sum submissions must fall exactly where the loop puts them,
    /// under every schedule: data-flow's at the loop's waits, the serial
    /// schedules' at the end of each exchange direction.
    #[test]
    fn static_model_places_barriers_where_the_loop_does() {
        for variant in [Variant::DataFlow, Variant::MpiOnly, Variant::ForkJoin] {
            for delayed in [false, true] {
                let cfg = Config {
                    variant,
                    ..skeleton_cfg(delayed)
                };
                let live: Vec<&str> = skeleton(&cfg)
                    .0
                    .into_iter()
                    .filter(|c| ["sums", "wait", "wait_sums", "drain"].contains(c))
                    .collect();
                let model = crate::staticcheck::elaborate(&cfg).model;
                let taskwait = if tasks_post_endpoints(variant) {
                    "wait"
                } else {
                    "drain"
                };
                let mut modeled: Vec<&str> = model.by_rank[0]
                    .iter()
                    .filter_map(|&n| match model.nodes[n].label {
                        "checksum_local" => Some("sums"),
                        "taskwait" => Some(taskwait),
                        "taskwait_on" => Some("wait_sums"),
                        _ => None,
                    })
                    .collect();
                // The `checksum_local` batches of one point are one call.
                modeled.dedup_by(|a, b| *a == "sums" && *b == "sums");
                assert!(live.contains(&taskwait), "{variant:?}: no {taskwait}");
                assert_eq!(modeled, live, "{variant:?}, delayed_checksum = {delayed}");
            }
        }
    }
}
