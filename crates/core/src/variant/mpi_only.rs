//! The reference MPI-only executor (Algorithm 2 under the shared loop).
//!
//! One rank per core, everything serial inside a rank. The communicate
//! function processes the three directions sequentially over shared
//! buffers: post receives, pack and send, do the intra-process copies
//! while messages fly, then a `waitany` loop unpacks faces as they
//! arrive, and a final `waitall` drains the sends (§II-A, Algorithm 2).
//! Every phase has completed when its call returns, so [`Exec::wait`]
//! keeps its no-op default, and so does [`Exec::refine`] (blocking moves,
//! serial split/merge jobs).

use crate::comm_plan::MsgPlan;
use crate::rank::{
    apply_boundary, local_transfer, pack_transfer_into, transfer_payload_elems, unpack_transfer,
};
use crate::variant::{Exec, PhaseCtx, SumSlots};
use amr_mesh::block_id::Dir;
use amr_mesh::data::BlockData;
use parking_lot::Mutex;
use std::ops::Range;
use std::sync::Arc;
use vmpi::RequestSet;

/// Serial execution on the rank's own thread.
pub(crate) struct Serial;

impl Exec for Serial {
    /// Algorithm 2: per-direction exchange with a waitany consume loop.
    fn communicate(&self, cx: &PhaseCtx, vars: Range<usize>) {
        let PhaseCtx {
            state,
            comm,
            plan,
            bufs,
            ..
        } = cx;
        let g = vars.len();
        // The rank's blocks in id order: what the plan's `src_pos`,
        // `dst_pos` and `pos` index (as the hybrids' `PhaseShared::blocks`).
        let blocks: Vec<&BlockData> = state.blocks.values().collect();
        for dir in Dir::ALL {
            let d = dir.index();
            // Post all receives for this direction.
            let inbound: Vec<&MsgPlan> =
                plan.inbound(state.rank).filter(|m| m.dir == dir).collect();
            let mut reqs = Vec::with_capacity(inbound.len());
            for m in &inbound {
                let lo = m.recv_offset * g;
                let hi = lo + m.elems_per_var * g;
                let slice = bufs.recv[d].slice(lo..hi);
                reqs.push(
                    comm.irecv_into(slice, m.src_rank as i32, m.tag)
                        .expect("post recv"),
                );
            }

            // Pack straight into the send buffer sections and send — no
            // intermediate payload vector.
            let mut send_reqs = Vec::new();
            for m in plan.outbound(state.rank).filter(|m| m.dir == dir) {
                for t in &m.transfers {
                    let lo = (m.send_offset + t.offset_in_msg) * g;
                    let slice = bufs.send[d].slice(lo..lo + transfer_payload_elems(t, g));
                    obs::phase_span("pack", || {
                        slice.with_write(|dst| {
                            pack_transfer_into(
                                &state.layout,
                                blocks[t.src_pos],
                                t,
                                vars.clone(),
                                dst,
                            )
                        })
                    });
                }
                let lo = m.send_offset * g;
                let hi = lo + m.elems_per_var * g;
                let slice = bufs.send[d].slice(lo..hi);
                send_reqs.push(
                    comm.isend_from(&slice, m.dst_rank, m.tag)
                        .expect("send faces"),
                );
            }

            // Intra-process copies, block to block, and domain-boundary
            // fills while messages are in flight.
            for t in &plan.locals[plan.locals_of(state.rank, dir)] {
                let (src, dst) = (blocks[t.src_pos], blocks[t.dst_pos]);
                obs::phase_span("local_copy", || {
                    local_transfer(&state.layout, src, dst, t, vars.clone())
                });
            }
            for b in &plan.boundaries[plan.boundaries_of(state.rank, dir)] {
                apply_boundary(&state.layout, blocks[b.pos], b.dir, b.side, vars.clone());
            }

            // Waitany loop: unpack each message as it arrives.
            let mut set = RequestSet::new(reqs);
            while let Some((idx, _status)) = obs::phase_span("wait", || set.waitany()) {
                let m = inbound[idx];
                for t in &m.transfers {
                    let lo = (m.recv_offset + t.offset_in_msg) * g;
                    let slice = bufs.recv[d].slice(lo..lo + transfer_payload_elems(t, g));
                    let dst = blocks[t.dst_pos];
                    obs::phase_span("unpack", || {
                        slice.with_read(|payload| {
                            unpack_transfer(&state.layout, dst, t, vars.clone(), payload)
                        })
                    });
                }
            }

            // Wait for the sends before reusing the buffers for the next
            // direction.
            for r in send_reqs {
                obs::phase_span("wait", || r.wait());
            }
        }
    }

    fn stencil(&self, cx: &PhaseCtx, vars: Range<usize>) {
        for block in cx.state.blocks.values() {
            obs::phase_span("stencil", || cx.state.stencil_block(block, vars.clone()));
        }
    }

    fn local_sums(&self, cx: &PhaseCtx) -> SumSlots {
        let nv = cx.state.cfg.params.num_vars;
        Arc::new(Mutex::new(cx.state.block_checksums(0..nv).1))
    }
}
