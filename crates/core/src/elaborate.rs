//! Shared elaboration of the data-flow variant's task stream.
//!
//! The data-flow variant (Algorithm 3/4) and the static verifier
//! (`dfcheck`, `--staticcheck`) must agree *exactly* on the task
//! structure of a timestep: labels, priorities, declared accesses,
//! message endpoints and spawn order. Instead of keeping two copies of
//! that logic in sync, this module elaborates the stream once, feeding
//! any [`taskrt::Submitter`]:
//!
//! * `variant::dataflow::DataFlow` passes a live submitter that
//!   materializes each [`TaskSpec`] into a real task body and spawns
//!   it, and
//! * `staticcheck` passes `dfcheck`'s recorder, which captures the
//!   stream into a model with no workers, field data, or transport.
//!
//! [`Work`] is the variant-specific payload of a spec: indices into the
//! [`CommPlan`] (or block ids) that the live side resolves to buffers
//! and block data, and the static side uses for diagnostics.

use crate::comm_plan::CommPlan;
use crate::config::Config;
use amr_mesh::block_id::Dir;
use amr_mesh::data::BlockLayout;
use amr_mesh::directory::MeshDirectory;
use amr_mesh::BlockId;
use std::ops::Range;
use taskrt::{Access, ObjId, Region, Submitter, TaskSpec};

/// What a task in the data-flow stream actually does. Plan-indexed
/// variants reference `CommPlan::msgs` / `locals` / `boundaries`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Work {
    /// Post the task-aware receive of message `msg`.
    Recv {
        /// Index into `plan.msgs`.
        msg: usize,
    },
    /// Pack one face of a local block into a send-buffer section.
    Pack {
        /// Index into `plan.msgs`.
        msg: usize,
        /// Index into that message's `transfers`.
        transfer: usize,
    },
    /// Post the task-aware send of message `msg` (multidep on all its
    /// packed sections).
    Send {
        /// Index into `plan.msgs`.
        msg: usize,
    },
    /// Intra-rank face copy.
    LocalCopy {
        /// Index into `plan.locals`.
        transfer: usize,
    },
    /// Domain-boundary ghost fill.
    Boundary {
        /// Index into `plan.boundaries`.
        boundary: usize,
    },
    /// Unpack one received face into a local block's ghost plane.
    Unpack {
        /// Index into `plan.msgs`.
        msg: usize,
        /// Index into that message's `transfers`.
        transfer: usize,
    },
    /// Apply the stencil to one block.
    Stencil {
        /// The block id.
        block: BlockId,
    },
    /// Per-block local checksum reduction into slot `slot`.
    ChecksumLocal {
        /// Slot index in the checkpoint's slot vector.
        slot: usize,
        /// The block id.
        block: BlockId,
    },
}

/// The per-rank context every elaboration pass needs: configuration,
/// block layout, the mesh directory of the current epoch, and the rank.
pub struct ElabCtx<'a> {
    /// Scenario configuration.
    pub cfg: &'a Config,
    /// Block data layout (element ranges per variable).
    pub layout: BlockLayout,
    /// Mesh directory for the current epoch.
    pub dir: &'a MeshDirectory,
    /// This rank.
    pub rank: usize,
}

impl ElabCtx<'_> {
    fn block_region(&self, obj: ObjId, vars: Range<usize>) -> Region {
        Region::new(obj, self.layout.var_elem_range(vars))
    }

    /// Algorithm 3: the fully taskified communicate for one variable
    /// group. Spawn order is load-bearing (see the unpack comment) and
    /// mirrored exactly by both consumers.
    #[allow(clippy::too_many_arguments)]
    pub fn communicate(
        &self,
        plan: &CommPlan,
        send_obj: [ObjId; 3],
        recv_obj: [ObjId; 3],
        vars: Range<usize>,
        obj_of: &mut dyn FnMut(&BlockId) -> ObjId,
        sub: &mut dyn Submitter<Work>,
    ) {
        let g = vars.len();
        // Message base offsets use the *allocated* stride (the largest
        // group size), not the current group's size: buffer regions of
        // the same message must overlap across groups so the WAR edges
        // between one group's unpackers and the next group's receive
        // serialise posting order per tag. The seed used `g` here, which
        // made the last uneven group's regions disjoint and deadlocked
        // `--comm_vars --send_faces` runs (kept behind
        // `legacy_group_offsets` for the watchdog/staticcheck CI tests).
        // Intra-message section offsets stay in units of `g` — payload
        // layout and therefore checksums are unchanged.
        let gb = if self.cfg.legacy_group_offsets {
            g
        } else {
            self.cfg.var_group(0).len()
        };
        for dir in Dir::ALL {
            let d = dir.index();

            // Receive tasks: out-dependency on the buffer section; the
            // task-aware receive binds arrival to dependency release.
            // Communication tasks jump the ready queue (priority 1):
            // getting receives posted early maximizes overlap.
            for (mi, m) in in_dir(plan, self.rank, dir, Endpoint::Inbound) {
                let lo = m.recv_offset * gb;
                let hi = lo + m.elems_per_var * g;
                sub.submit(TaskSpec {
                    label: "recv",
                    priority: 1,
                    accesses: vec![Access::write(Region::new(recv_obj[d], lo..hi))],
                    comm: Some(tampi::irecv_intent(m.src_rank, m.tag, m.elems_per_var * g)),
                    work: Work::Recv { msg: mi },
                });
            }

            // Pack + send tasks. The send multi-depends on every section
            // the packers write (§IV-A).
            for (mi, m) in in_dir(plan, self.rank, dir, Endpoint::Outbound) {
                let mut section_accesses = Vec::with_capacity(m.transfers.len());
                for (ti, t) in m.transfers.iter().enumerate() {
                    let slo = m.send_offset * gb + t.offset_in_msg * g;
                    let shi = slo + t.elems_per_var * g;
                    let section = Region::new(send_obj[d], slo..shi);
                    section_accesses.push(Access::read(section.clone()));
                    sub.submit(TaskSpec {
                        label: "pack",
                        priority: 0,
                        accesses: vec![
                            Access::read(self.block_region(obj_of(&t.src_block), vars.clone())),
                            Access::write(section),
                        ],
                        comm: None,
                        work: Work::Pack {
                            msg: mi,
                            transfer: ti,
                        },
                    });
                }
                sub.submit(TaskSpec {
                    label: "send",
                    priority: 1,
                    accesses: section_accesses,
                    comm: Some(tampi::isend_intent(m.dst_rank, m.tag, m.elems_per_var * g)),
                    work: Work::Send { msg: mi },
                });
            }

            // Intra-process copies (already taskified by Rico et al.).
            for (li, t) in plan
                .locals
                .iter()
                .enumerate()
                .filter(|(_, t)| t.dir == dir && t.src_rank == self.rank)
            {
                sub.submit(TaskSpec {
                    label: "local_copy",
                    priority: 0,
                    accesses: vec![
                        Access::read(self.block_region(obj_of(&t.src_block), vars.clone())),
                        Access::read_write(self.block_region(obj_of(&t.dst_block), vars.clone())),
                    ],
                    comm: None,
                    work: Work::LocalCopy { transfer: li },
                });
            }

            // Domain-boundary ghost fills.
            for (bi, (block, _, _)) in plan
                .boundaries
                .iter()
                .enumerate()
                .filter(|(_, (b, bd, _))| *bd == dir && self.dir.owner(b) == Some(self.rank))
            {
                sub.submit(TaskSpec {
                    label: "boundary",
                    priority: 0,
                    accesses: vec![Access::read_write(
                        self.block_region(obj_of(block), vars.clone()),
                    )],
                    comm: None,
                    work: Work::Boundary { boundary: bi },
                });
            }

            // Unpack tasks are instantiated *last* within the direction
            // (Algorithm 3, lines 19-20). Spawn order matters: with
            // whole-block dependency granularity (§IV-D), an unpack
            // (`inout` block) spawned before this rank's packs (`in`
            // block) would make the packs — and through them the sends —
            // wait on data from the peer, closing a cross-rank cycle.
            for (mi, m) in in_dir(plan, self.rank, dir, Endpoint::Inbound) {
                for (ti, t) in m.transfers.iter().enumerate() {
                    let slo = m.recv_offset * gb + t.offset_in_msg * g;
                    let shi = slo + t.elems_per_var * g;
                    sub.submit(TaskSpec {
                        label: "unpack",
                        priority: 0,
                        accesses: vec![
                            Access::read(Region::new(recv_obj[d], slo..shi)),
                            Access::read_write(
                                self.block_region(obj_of(&t.dst_block), vars.clone()),
                            ),
                        ],
                        comm: None,
                        work: Work::Unpack {
                            msg: mi,
                            transfer: ti,
                        },
                    });
                }
            }
        }
    }

    /// Stencil tasks for one variable group: `inout` on the block so
    /// they chain behind the unpackers and in front of the next stage's
    /// packers, with no barrier.
    pub fn stencils(
        &self,
        vars: Range<usize>,
        obj_of: &mut dyn FnMut(&BlockId) -> ObjId,
        sub: &mut dyn Submitter<Work>,
    ) {
        for id in self.dir.blocks_of(self.rank) {
            sub.submit(TaskSpec {
                label: "stencil",
                priority: 0,
                accesses: vec![Access::read_write(
                    self.block_region(obj_of(&id), vars.clone()),
                )],
                comm: None,
                work: Work::Stencil { block: id },
            });
        }
    }

    /// Per-block local checksum reductions of one checkpoint, writing
    /// slot `i` of the checkpoint's slots object (Algorithm 4).
    pub fn checksum_locals(
        &self,
        obj: ObjId,
        obj_of: &mut dyn FnMut(&BlockId) -> ObjId,
        sub: &mut dyn Submitter<Work>,
    ) {
        let nv = self.cfg.params.num_vars;
        for (i, id) in self.dir.blocks_of(self.rank).into_iter().enumerate() {
            sub.submit(TaskSpec {
                label: "checksum_local",
                priority: 0,
                accesses: vec![
                    Access::read(self.block_region(obj_of(&id), 0..nv)),
                    Access::write(Region::new(obj, i..i + 1)),
                ],
                comm: None,
                work: Work::ChecksumLocal { slot: i, block: id },
            });
        }
    }
}

enum Endpoint {
    Inbound,
    Outbound,
}

/// `plan.inbound`/`outbound` restricted to one direction, with indices
/// into `plan.msgs` (the live side resolves buffers through the index,
/// the static side uses it for diagnostics).
fn in_dir(
    plan: &CommPlan,
    rank: usize,
    dir: Dir,
    which: Endpoint,
) -> impl Iterator<Item = (usize, &crate::comm_plan::MsgPlan)> {
    plan.msgs.iter().enumerate().filter(move |(_, m)| {
        m.dir == dir
            && match which {
                Endpoint::Inbound => m.dst_rank == rank,
                Endpoint::Outbound => m.src_rank == rank,
            }
    })
}
