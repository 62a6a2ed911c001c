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

use crate::comm_plan::Endpoint::{Inbound, Outbound};
use crate::rank::{apply_boundary, local_transfer};
use crate::variant::{Exec, PhaseCtx, PhaseShared, SumSlots};
use amr_mesh::block_id::Dir;
use parking_lot::Mutex;
use std::ops::Range;
use std::sync::Arc;
use vmpi::RequestSet;

/// Serial execution on the rank's own thread.
pub(crate) struct Serial;

impl Exec for Serial {
    /// Algorithm 2: per-direction exchange with a waitany consume loop.
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
        // `sh.blocks` are the rank's blocks in id order: what the plan's
        // `src_pos`, `dst_pos` and `pos` index.
        let sh = PhaseShared::new(cx, vars.clone());
        for dir in Dir::ALL {
            // Post all receives for this direction.
            let inbound: Vec<_> = plan.in_dir(state.rank, dir, Inbound).collect();
            let mut reqs = Vec::with_capacity(inbound.len());
            for (_, m) in &inbound {
                let slice = bufs.span(m, Inbound, g);
                reqs.push(
                    comm.irecv_into(slice, m.src_rank as i32, m.tag)
                        .expect("post recv"),
                );
            }

            // Pack straight into the send buffer sections and send — no
            // intermediate payload vector.
            let mut send_reqs = Vec::new();
            for (mi, m) in plan.in_dir(state.rank, dir, Outbound) {
                for ti in 0..m.transfers.len() {
                    obs::phase_span("pack", || sh.pack(mi, ti));
                }
                send_reqs.push(
                    comm.isend_from(&bufs.span(m, Outbound, g), m.dst_rank, m.tag)
                        .expect("send faces"),
                );
            }

            // Intra-process copies, block to block, and domain-boundary
            // fills while messages are in flight.
            for t in &plan.locals[plan.locals_of(state.rank, dir)] {
                let (src, dst) = (&sh.blocks[t.src_pos], &sh.blocks[t.dst_pos]);
                obs::phase_span("local_copy", || {
                    local_transfer(&state.layout, src, dst, t, vars.clone())
                });
            }
            for b in &plan.boundaries[plan.boundaries_of(state.rank, dir)] {
                let block = &sh.blocks[b.pos];
                apply_boundary(&state.layout, block, b.dir, b.side, vars.clone());
            }

            // Waitany loop: unpack each message as it arrives.
            let mut set = RequestSet::new(reqs);
            while let Some((idx, _status)) = obs::phase_span("wait", || set.waitany()) {
                let (mi, m) = inbound[idx];
                for ti in 0..m.transfers.len() {
                    obs::phase_span("unpack", || sh.unpack(mi, ti));
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
