//! The MPI + fork-join hybrid variant.
//!
//! This mirrors the experimental hybrid in the miniAMR repository that
//! the paper evaluates (§V): computation phases — stencil, local
//! checksum, face pack/unpack, intra-process copies, refinement
//! split/merge copies — are parallelized across worker threads, but every
//! phase ends in a barrier and **all MPI communication stays on the main
//! thread**. Phases never overlap; communication is serialized. That is
//! precisely the structural limitation the data-flow variant removes.
//!
//! Parallel loops whose iterations may touch the same block (local
//! copies, unpack) run as dependency-protected tasks instead of a raw
//! static `for` — same barrier semantics, but safe under this runtime's
//! dynamic race checking.

use crate::comm_plan::{CommPlan, MsgPlan};
use crate::config::Config;
use crate::elastic::{ElasticCtx, SpanCarry, SpanStart};
use crate::exchange::{run_refinement, BlockingMover, RefineJob};
use crate::rank::{
    apply_boundary, apply_local_transfer, pack_transfer_into, unpack_transfer, RankState,
};
use crate::stats::{RunStats, Stopwatch};
use crate::trace::{Kind, Trace};
use crate::variant::{checksum_remote_blocks, record_validation, Buffers};
use amr_mesh::block_id::Dir;
use amr_mesh::data::BlockData;
use amr_mesh::BlockId;
use parking_lot::Mutex;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use taskrt::{Region, Runtime};
use vmpi::{Comm, RequestSet};

/// Runs the fork-join hybrid variant on one rank, start to finish.
pub fn run(cfg: &Config, comm: Comm) -> RunStats {
    run_span(cfg, comm, None, cfg.num_tsteps, None).0
}

/// Runs one *span* of the fork-join variant: from `start` (or initial
/// conditions) up to — not including — timestep `ts_end`, returning the
/// stats so far and the carry an elastic resume continues from.
pub(crate) fn run_span(
    cfg: &Config,
    comm: Comm,
    start: Option<SpanStart>,
    ts_end: usize,
    elastic: Option<&ElasticCtx>,
) -> (RunStats, SpanCarry) {
    let comm = std::sync::Arc::new(comm);
    let rt = Runtime::with_config(taskrt::RuntimeConfig {
        workers: cfg.workers.max(1),
        immediate_successor: cfg.immediate_successor,
        // Fork-join opens no trace scopes; keep the machinery inert.
        replay: false,
    });
    rt.set_obs_rank(cfg.obs_rank(comm.rank()));
    let (
        mut state,
        mut stats,
        mut stage_counter,
        mut mesh_epoch,
        mut prev_checksum,
        ts_start,
        resumed,
    ) = SpanStart::unpack(start, cfg, &comm);
    let trace = match stats.trace.take() {
        t @ Some(_) => t,
        None => cfg.trace.then(Trace::new),
    };
    let gmax = cfg.var_group(0).len();
    let spawned_before = stats.tasks_spawned;

    let total_sw = Stopwatch::start();
    // Initial refinement phase with load balancing (paper Fig. 1). A
    // resumed span restores an already-balanced mesh.
    if !resumed {
        let sw = Stopwatch::start();
        let mut mover = BlockingMover::default();
        let rt_ref = &rt;
        let trace_ref = trace.clone();
        stats.blocks_moved += run_refinement(&mut state, &comm, &mut mover, &mut |state, jobs| {
            run_jobs_parallel(rt_ref, state, jobs, trace_ref.as_ref())
        });
        sw.stop(&mut stats.times.refine);
    }
    let mut plan = Arc::new(CommPlan::build(cfg, &state.dir, state.n_ranks));
    let mut bufs = Buffers::alloc(&plan, state.rank, gmax, cfg.separate_buffers);
    for ts in ts_start..ts_end {
        // Every fork-join phase ends in a barrier, so the rank is
        // quiescent at every timestep top.
        if let Some(e) = elastic {
            e.boundary(
                &state,
                &stats,
                stage_counter,
                mesh_epoch,
                &prev_checksum,
                ts,
            );
        }
        // Rank-0 marks delimit the perf analyzer's per-timestep windows.
        if let Some(bus) = obs::bus() {
            bus.emit_for_rank(
                state.rank as u32,
                obs::EventData::TimestepMark { tstep: ts as u32 },
            );
        }
        for _stage in 0..cfg.stages_per_ts {
            stage_counter += 1;
            for g in 0..cfg.num_groups() {
                let vars = cfg.var_group(g);
                let sw = Stopwatch::start();
                communicate(
                    &rt,
                    &state,
                    &comm,
                    &plan,
                    &bufs,
                    vars.clone(),
                    &mut stats,
                    trace.as_ref(),
                );
                sw.stop(&mut stats.times.communicate);

                // Parallel stencil sweep with a closing barrier.
                let sw = Stopwatch::start();
                let flops = Arc::new(AtomicU64::new(0));
                for block in state.blocks.values() {
                    let block = block.clone();
                    let layout = state.layout;
                    let kind = cfg.stencil;
                    let vars = vars.clone();
                    let flops = Arc::clone(&flops);
                    let tr = trace.clone();
                    rt.spawn(Vec::new(), move || {
                        let work = || {
                            amr_mesh::stencil::apply_stencil(&block, &layout, kind, vars.clone());
                            layout.cells() as u64 * vars.len() as u64 * kind.flops_per_cell()
                        };
                        let f = match &tr {
                            Some(t) => t.record(Kind::Stencil, work),
                            None => work(),
                        };
                        flops.fetch_add(f, Ordering::Relaxed);
                    });
                }
                rt.taskwait();
                stats.flops += flops.load(Ordering::Relaxed);
                sw.stop(&mut stats.times.stencil);
            }
            if stage_counter.is_multiple_of(cfg.checksum_freq) {
                let sw = Stopwatch::start();
                // Parallel local reduction into per-block slots, then the
                // master performs the global reduction.
                let (ids, per_block) = parallel_local_checksum(&rt, &state, cfg, trace.as_ref());
                let total = checksum_remote_blocks(&comm, &ids, &per_block, cfg.params.num_vars);
                let cells = (state.dir.len() * cfg.params.cells_per_block()) as f64;
                record_validation(
                    &mut stats,
                    &mut prev_checksum,
                    total,
                    cells,
                    mesh_epoch,
                    cfg.validate_tol,
                );
                sw.stop(&mut stats.times.checksum);
            }
            // Every fork-join phase ends in a barrier, so blocks are
            // quiescent here.
            crate::checkpoint::maybe_checkpoint(&state, &mut stats, stage_counter, ts, mesh_epoch);
        }
        if (ts + 1) % cfg.refine_freq == 0 {
            let sw = Stopwatch::start();
            state.move_objects();
            let mut mover = BlockingMover::default();
            let rt_ref = &rt;
            let trace_ref = trace.clone();
            let moved = run_refinement(&mut state, &comm, &mut mover, &mut |state, jobs| {
                run_jobs_parallel(rt_ref, state, jobs, trace_ref.as_ref())
            });
            stats.blocks_moved += moved;
            mesh_epoch += 1;
            plan = Arc::new(CommPlan::build(cfg, &state.dir, state.n_ranks));
            bufs = Buffers::alloc(&plan, state.rank, gmax, cfg.separate_buffers);
            sw.stop(&mut stats.times.refine);
        }
    }
    total_sw.stop(&mut stats.times.total);
    let rts = rt.stats();
    stats.tasks_spawned = spawned_before + rts.spawned;
    stats.final_blocks = state.blocks.len();
    stats.pool = state.pool.stats();
    stats.trace = trace;
    let carry = SpanCarry {
        stage_counter,
        mesh_epoch,
        prev_checksum: prev_checksum.as_ref().map(|c| (c.means.clone(), c.epoch)),
        next_ts: ts_end,
        state,
    };
    (stats, carry)
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
            let out = match &tr {
                Some(t) => t.record(Kind::RefineCopy, || job.run(&params)),
                None => job.run(&params),
            };
            results.lock().extend(out);
        });
    }
    rt.taskwait();
    // Deterministic insertion order regardless of task completion order.
    let mut out = std::mem::take(&mut *results.lock());
    out.sort_by_key(|b| b.id);
    out
}

/// Parallel per-block checksum reduction; slots stay in block-id order,
/// feeding the ownership-independent global combination.
fn parallel_local_checksum(
    rt: &Runtime,
    state: &RankState,
    cfg: &Config,
    trace: Option<&Trace>,
) -> (Vec<BlockId>, Vec<Vec<f64>>) {
    let nv = cfg.params.num_vars;
    let ids: Vec<BlockId> = state.blocks.keys().copied().collect();
    let blocks: Vec<BlockData> = state.local_blocks();
    let slots: Arc<Mutex<Vec<Option<Vec<f64>>>>> = Arc::new(Mutex::new(vec![None; blocks.len()]));
    for (i, block) in blocks.into_iter().enumerate() {
        let layout = state.layout;
        let slots = Arc::clone(&slots);
        let tr = trace.cloned();
        rt.spawn(Vec::new(), move || {
            let work = || amr_mesh::checksum::block_sums(&block, &layout, 0..nv);
            let sums = match &tr {
                Some(t) => t.record(Kind::ChecksumLocal, work),
                None => work(),
            };
            slots.lock()[i] = Some(sums);
        });
    }
    rt.taskwait();
    let slots = slots.lock();
    let per_block: Vec<Vec<f64>> = slots
        .iter()
        .map(|s| s.clone().expect("all slots filled"))
        .collect();
    (ids, per_block)
}

/// The fork-join communicate: master-thread MPI, parallel pack/copy/unpack
/// sub-phases each closed by a barrier.
#[allow(clippy::too_many_arguments)]
fn communicate(
    rt: &Runtime,
    state: &RankState,
    comm: &Comm,
    plan: &Arc<CommPlan>,
    bufs: &Buffers,
    vars: std::ops::Range<usize>,
    stats: &mut RunStats,
    trace: Option<&Trace>,
) {
    let g = vars.len();
    for dir in Dir::ALL {
        let d = dir.index();
        let inbound: Vec<MsgPlan> = plan
            .inbound(state.rank)
            .filter(|m| m.dir == dir)
            .cloned()
            .collect();
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
        let outbound: Vec<MsgPlan> = plan
            .outbound(state.rank)
            .filter(|m| m.dir == dir)
            .cloned()
            .collect();
        for m in &outbound {
            for t in m.transfers.clone() {
                let src = state.block(&t.src_block).clone();
                let layout = state.layout;
                let vars = vars.clone();
                let slice = {
                    let lo = (m.send_offset + t.offset_in_msg) * g;
                    bufs.send[d].slice(lo..lo + t.elems_per_var * g)
                };
                let tr = trace.cloned();
                rt.spawn(Vec::new(), move || {
                    let work = || {
                        slice.with_write(|dst| {
                            pack_transfer_into(&layout, &src, &t, vars.clone(), dst)
                        });
                    };
                    match &tr {
                        Some(trc) => trc.record(Kind::Pack, work),
                        None => work(),
                    }
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
            stats.msgs_sent += 1;
            stats.elems_sent += (m.elems_per_var * g) as u64;
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
            let tr = trace.cloned();
            let pool = Arc::clone(&state.pool);
            rt.spawn(deps, move || {
                let work = || apply_local_transfer(&layout, &src, &dst, &t, vars2.clone(), &pool);
                match &tr {
                    Some(trc) => trc.record(Kind::LocalCopy, work),
                    None => work(),
                }
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
            let Some((idx, _)) = (match trace {
                Some(tr) => tr.record(Kind::Wait, || set.waitany()),
                None => set.waitany(),
            }) else {
                break;
            };
            if idx >= n_recvs {
                continue; // a send completed
            }
            arrived += 1;
            let m = &inbound[idx];
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
                let tr = trace.cloned();
                rt.spawn(deps, move || {
                    let work = || {
                        slice.with_read(|payload| {
                            unpack_transfer(&layout, &dst, &t, vars2.clone(), payload)
                        });
                    };
                    match &tr {
                        Some(trc) => trc.record(Kind::Unpack, work),
                        None => work(),
                    }
                });
            }
        }
        rt.taskwait();
        // Drain the remaining (send) requests before the next direction.
        set.waitall();
    }
}
