//! The communication plan: which faces cross which rank boundary, how
//! they aggregate into messages, and where they live in the buffers.
//!
//! Every rank derives the *same* plan from the replicated mesh directory
//! (enumeration order is deterministic), then acts on its own slice of
//! it. The plan encodes the paper's communication-granularity options:
//!
//! * default: one message per `(source, destination, direction)` — the
//!   reference behavior of aggregating all faces for a neighbor;
//! * `--send_faces`: one message per face;
//! * `--send_faces --max_comm_tasks k`: at most `k` messages per neighbor
//!   and direction (§IV-A, Table II).
//!
//! Tags are drawn from three disjoint sub-spaces, one per direction, so
//! communication tasks of different directions can fly concurrently
//! (§IV-A). Where a message and each of its sections sit in the buffers is
//! [`BufferLayout`]'s to say.

use crate::config::Config;
use amr_mesh::block_id::{Dir, Side};
use amr_mesh::data::BlockLayout;
use amr_mesh::face;
use amr_mesh::{BlockId, MeshDirectory, NeighborInfo};
use std::collections::BTreeMap;
use std::ops::Range;
use taskrt::ObjId;

/// Tag sub-space size per direction. User tags must stay below
/// `vmpi::TAG_UB` (2^30); three direction spaces plus a control space fit.
pub const DIR_TAG_SPACE: i32 = 1 << 28;

/// Base tag of the refinement/load-balance control+data space.
pub const EXCHANGE_TAG_BASE: i32 = 3 * DIR_TAG_SPACE;

/// How a face is transformed in flight.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TransferKind {
    /// Same refinement level: plain copy.
    Same,
    /// Fine sender → coarse receiver: sender restricts (2×2 average), the
    /// data lands in `quarter` of the receiver's ghost plane.
    Restrict {
        /// Receiver ghost-plane quarter.
        quarter: usize,
    },
    /// Coarse sender → fine receiver: sender extracts `quarter` of its
    /// face, receiver prolongates over its whole ghost plane.
    Prolong {
        /// Sender face quarter.
        quarter: usize,
    },
}

/// One block-face transfer (possibly rank-local).
#[derive(Debug, Clone, PartialEq)]
pub struct FaceTransfer {
    /// Owner of the sending block.
    pub src_rank: usize,
    /// Owner of the receiving block.
    pub dst_rank: usize,
    /// Sending block.
    pub src_block: BlockId,
    /// Receiving block.
    pub dst_block: BlockId,
    /// Position of the sending block in `src_rank`'s id-ordered block list
    /// (the index of its handle in a rank's block table).
    pub src_pos: usize,
    /// Position of the receiving block in `dst_rank`'s id-ordered block
    /// list.
    pub dst_pos: usize,
    /// Exchange direction.
    pub dir: Dir,
    /// Side of the *receiver* where the ghost plane fills.
    pub dst_side: Side,
    /// In-flight transformation.
    pub kind: TransferKind,
    /// Elements per variable transmitted.
    pub elems_per_var: usize,
    /// Offset (per variable) of this face within its message payload.
    pub offset_in_msg: usize,
}

impl FaceTransfer {
    /// Side of the sender's face (opposite the receiver's ghost side).
    pub fn src_side(&self) -> Side {
        self.dst_side.opposite()
    }
}

/// One cross-rank message: an aggregated, contiguous run of transfers.
#[derive(Debug, Clone, PartialEq)]
pub struct MsgPlan {
    /// Sending rank.
    pub src_rank: usize,
    /// Receiving rank.
    pub dst_rank: usize,
    /// Direction (determines buffer + tag space).
    pub dir: Dir,
    /// Message tag.
    pub tag: i32,
    /// The faces in this message, in payload order.
    pub transfers: Vec<FaceTransfer>,
    /// Payload elements per variable.
    pub elems_per_var: usize,
    /// Offset (per variable) in the sender's send buffer for `dir`.
    pub send_offset: usize,
    /// Offset (per variable) in the receiver's recv buffer for `dir`.
    pub recv_offset: usize,
}

/// One domain-boundary ghost fill.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BoundaryFill {
    /// The block whose ghost plane is filled.
    pub block: BlockId,
    /// Position of the block in its owner's id-ordered block list.
    pub pos: usize,
    /// Direction of the boundary face.
    pub dir: Dir,
    /// Side of the boundary face.
    pub side: Side,
}

/// The complete exchange plan for one mesh configuration.
#[derive(Debug, Clone, Default)]
pub struct CommPlan {
    /// Cross-rank messages in deterministic global order.
    pub msgs: Vec<MsgPlan>,
    /// Rank-local copies (source and destination on the same rank),
    /// ordered by (rank, direction) and, within one, in the
    /// receiver-centric enumeration order: [`CommPlan::locals_of`] is a
    /// contiguous range.
    pub locals: Vec<FaceTransfer>,
    /// Domain-boundary ghost fills, ordered like `locals` by (owner,
    /// direction): see [`CommPlan::boundaries_of`].
    pub boundaries: Vec<BoundaryFill>,
    /// End index into `locals` of every (rank, direction) run, at
    /// `3 * rank + dir`.
    local_ends: Vec<usize>,
    /// End index into `boundaries` of every (rank, direction) run.
    boundary_ends: Vec<usize>,
    /// Per-rank, per-direction send buffer sizes (elements per variable).
    pub send_elems: Vec<[usize; 3]>,
    /// Per-rank, per-direction recv buffer sizes (elements per variable).
    pub recv_elems: Vec<[usize; 3]>,
}

impl CommPlan {
    /// Builds the plan for the current mesh.
    ///
    /// # Panics
    ///
    /// Never on any directory: a neighbour is an active block, and a
    /// group's `n` transfers are drawn into `n_msgs` chunks bounded at
    /// `n * c / n_msgs`, which tile `0..n` exactly.
    pub fn build(cfg: &Config, dir_map: &MeshDirectory, n_ranks: usize) -> CommPlan {
        let layout = BlockLayout::of(&cfg.params);
        let mut plan = CommPlan {
            send_elems: vec![[0; 3]; n_ranks],
            recv_elems: vec![[0; 3]; n_ranks],
            ..Default::default()
        };

        // Owner of every block and its position in that owner's id-ordered
        // block list, in directory order. The position is what a rank's
        // handle and dependency-object tables are indexed by, so that
        // running a transfer looks nothing up.
        let mut owned: Vec<Vec<BlockId>> = vec![Vec::new(); n_ranks];
        let home: Vec<(usize, usize)> = (dir_map.iter())
            .map(|(id, &owner)| {
                owned[owner].push(*id);
                (owner, owned[owner].len() - 1)
            })
            .collect();

        // Cross-rank transfers grouped by (src, dst, dir). The enumeration
        // is receiver-centric and, for one receiving rank and direction,
        // in block-id order — the order of every group, and of every
        // (rank, direction) run of `locals` and `boundaries`, which come
        // out contiguous because the rank and the direction are the outer
        // loops.
        let mut groups: BTreeMap<(usize, usize, usize), Vec<FaceTransfer>> = BTreeMap::new();

        for (owner, blocks) in owned.iter().enumerate() {
            for dir in Dir::ALL {
                let d = dir.index();
                let (n1, n2) = face::face_dims(&layout, dir);
                for (pos, block) in blocks.iter().enumerate() {
                    for side in Side::BOTH {
                        let mut push = |nb: BlockId, kind: TransferKind, elems_per_var: usize| {
                            let at = dir_map.position(&nb).expect("a neighbour is active");
                            let (src_rank, src_pos) = home[at];
                            let t = FaceTransfer {
                                src_rank,
                                dst_rank: owner,
                                src_block: nb,
                                dst_block: *block,
                                src_pos,
                                dst_pos: pos,
                                dir,
                                dst_side: side,
                                kind,
                                elems_per_var,
                                offset_in_msg: 0,
                            };
                            if src_rank == owner {
                                plan.locals.push(t);
                            } else {
                                groups.entry((src_rank, owner, d)).or_default().push(t);
                            }
                        };
                        match dir_map.neighbor_info(block, dir, side) {
                            NeighborInfo::Boundary => plan.boundaries.push(BoundaryFill {
                                block: *block,
                                pos,
                                dir,
                                side,
                            }),
                            NeighborInfo::Same(nb) => push(nb, TransferKind::Same, n1 * n2),
                            NeighborInfo::Coarser(nb) => {
                                let quarter = block.quarter_of_coarse_face(dir);
                                push(nb, TransferKind::Prolong { quarter }, (n1 / 2) * (n2 / 2));
                            }
                            NeighborInfo::Finer(fine) => {
                                for (quarter, nb) in fine.iter().enumerate() {
                                    let kind = TransferKind::Restrict { quarter };
                                    push(*nb, kind, (n1 / 2) * (n2 / 2));
                                }
                            }
                        }
                    }
                }
                plan.local_ends.push(plan.locals.len());
                plan.boundary_ends.push(plan.boundaries.len());
            }
        }

        // Chunk each group into messages per the granularity options.
        let mut tag_seq = [0i32; 3];
        for ((src, dst, d), transfers) in groups {
            let dir = Dir::ALL[d];
            let n = transfers.len();
            // Coalescing (`--coalesce on`): merge an *inter-node* rank
            // pair's per-face messages back into one flow per direction
            // once the aggregate payload is past the eager threshold —
            // one rendezvous handshake and one NIC injection instead of
            // one per face. Intra-node pairs keep the `--send_faces` /
            // `--max_comm_tasks` granularity: they bypass the NIC, so
            // fine splitting still buys task parallelism for free. The
            // byte estimate uses the full variable count (groups with
            // `--comm_vars` only shrink it), biasing toward merging.
            let group_elems: usize = transfers.iter().map(|t| t.elems_per_var).sum();
            let group_bytes = group_elems * cfg.params.num_vars * std::mem::size_of::<f64>();
            let coalesced =
                cfg.coalesce && !cfg.same_node(src, dst) && group_bytes > cfg.eager_bytes;
            let n_msgs = if coalesced || !cfg.send_faces {
                1
            } else if cfg.max_comm_tasks == 0 {
                n
            } else {
                cfg.max_comm_tasks.min(n)
            };
            let mut iter = transfers.into_iter();
            for c in 0..n_msgs {
                let lo = n * c / n_msgs;
                let hi = n * (c + 1) / n_msgs;
                let mut chunk: Vec<FaceTransfer> = Vec::with_capacity(hi - lo);
                let mut offset = 0usize;
                for _ in lo..hi {
                    let mut t = iter.next().expect("chunk arithmetic covers all transfers");
                    t.offset_in_msg = offset;
                    offset += t.elems_per_var;
                    chunk.push(t);
                }
                let tag = d as i32 * DIR_TAG_SPACE + tag_seq[d];
                tag_seq[d] += 1;
                let send_offset = plan.send_elems[src][d];
                let recv_offset = plan.recv_elems[dst][d];
                plan.send_elems[src][d] += offset;
                plan.recv_elems[dst][d] += offset;
                plan.msgs.push(MsgPlan {
                    src_rank: src,
                    dst_rank: dst,
                    dir,
                    tag,
                    transfers: chunk,
                    elems_per_var: offset,
                    send_offset,
                    recv_offset,
                });
            }
        }
        plan
    }

    /// Messages this rank receives, in plan order.
    pub fn inbound(&self, rank: usize) -> impl Iterator<Item = &MsgPlan> {
        self.msgs.iter().filter(move |m| m.dst_rank == rank)
    }

    /// Messages this rank sends, in plan order.
    pub fn outbound(&self, rank: usize) -> impl Iterator<Item = &MsgPlan> {
        self.msgs.iter().filter(move |m| m.src_rank == rank)
    }

    /// The index range of `rank`'s copies of direction `dir` in `locals`.
    pub fn locals_of(&self, rank: usize, dir: Dir) -> Range<usize> {
        run_of(&self.local_ends, rank, dir)
    }

    /// The index range of `rank`'s fills of direction `dir` in
    /// `boundaries`.
    pub fn boundaries_of(&self, rank: usize, dir: Dir) -> Range<usize> {
        run_of(&self.boundary_ends, rank, dir)
    }

    /// `plan.inbound`/`outbound` restricted to one direction, with each
    /// message's index into `msgs` (what task bodies and diagnostics
    /// name a message by).
    pub(crate) fn in_dir(
        &self,
        rank: usize,
        dir: Dir,
        end: Endpoint,
    ) -> impl Iterator<Item = (usize, &MsgPlan)> {
        self.msgs.iter().enumerate().filter(move |(_, m)| {
            m.dir == dir
                && match end {
                    Endpoint::Inbound => m.dst_rank == rank,
                    Endpoint::Outbound => m.src_rank == rank,
                }
        })
    }
}

/// Which end of a message a rank is at, and so which of its buffers holds
/// it; indexes a `[receive, send]` pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Endpoint {
    /// The destination's receive buffer.
    Inbound = 0,
    /// The source's send buffer.
    Outbound = 1,
}

/// Where the ghost exchange puts each message, and each of its sections,
/// in a rank's per-direction send and receive buffers: decided here once
/// for the three executors, the shared elaboration and the static
/// verifier, so a task's declared section and the slice its body touches
/// are one range (TAMPI binds a receive to the region its task declared).
///
/// * **Objects.** `--separate_buffers` gives each direction its own buffer
///   and dependency object, so communication tasks of different
///   directions are independent. Otherwise one allocation, sized for the
///   largest direction, and one object serve all three: the reference
///   behaviour, whose false dependency serialises the directions (§IV-A).
/// * **Stride.** Message `m` reserves a slot of `m.elems_per_var × stride`
///   elements at `offset × stride`; the stride is the largest group size.
/// * **Span.** For a group of `g` variables, `m` occupies `offset × stride
///   .. + m.elems_per_var × g`. The base uses the stride, not `g`, so the
///   spans of one message overlap across groups and the WAR edges between
///   one group's unpackers and the next group's receive serialise the
///   posting order per tag.
/// * **Section.** Transfer `t` sits `t.offset_in_msg × g` into the span:
///   the payload inside a message, and so every checksum, does not depend
///   on the group split.
/// * **Legacy stride.** `--legacy_group_offsets` bases a span at
///   `offset × g`, as the seed did: the last, smaller group of an uneven
///   split leaves its slot, loses its ordering edges, and `--comm_vars
///   --send_faces` runs deadlock — the known-bad input of the watchdog,
///   sanitizer and verifier self-tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct BufferLayout {
    stride: usize,
    separate: bool,
    legacy: bool,
}

impl BufferLayout {
    /// The layout `cfg`'s communication options ask for.
    pub(crate) fn of(cfg: &Config) -> BufferLayout {
        BufferLayout {
            stride: cfg.var_group(0).len(),
            separate: cfg.separate_buffers,
            legacy: cfg.legacy_group_offsets,
        }
    }

    /// Fresh dependency objects of one end's three direction buffers: one
    /// per direction, or one shared by all three.
    pub(crate) fn objs(&self) -> [ObjId; 3] {
        if self.separate {
            [ObjId::fresh(), ObjId::fresh(), ObjId::fresh()]
        } else {
            [ObjId::fresh(); 3]
        }
    }

    /// Allocation sizes, in elements, of `rank`'s three `end` buffers
    /// (shared buffers are all as large as the largest direction).
    pub(crate) fn sizes(&self, plan: &CommPlan, rank: usize, end: Endpoint) -> [usize; 3] {
        let per_var = [plan.recv_elems[rank], plan.send_elems[rank]][end as usize];
        let max = per_var.into_iter().max().unwrap_or(0);
        per_var.map(|elems| if self.separate { elems } else { max } * self.stride)
    }

    /// The slot `m` reserves in its `end` buffer.
    pub(crate) fn slot(&self, m: &MsgPlan, end: Endpoint) -> Range<usize> {
        let base = offset(m, end) * self.stride;
        base..base + m.elems_per_var * self.stride
    }

    /// Where `m` of a group of `g` variables sits in its `end` buffer.
    pub(crate) fn span(&self, m: &MsgPlan, end: Endpoint, g: usize) -> Range<usize> {
        let base = self.base(m, end, g);
        base..base + m.elems_per_var * g
    }

    /// Where transfer `transfer` of `m` sits in its `end` buffer.
    pub(crate) fn section(
        &self,
        m: &MsgPlan,
        transfer: usize,
        end: Endpoint,
        g: usize,
    ) -> Range<usize> {
        let t = &m.transfers[transfer];
        let lo = self.base(m, end, g) + t.offset_in_msg * g;
        lo..lo + crate::rank::transfer_payload_elems(t, g)
    }

    fn base(&self, m: &MsgPlan, end: Endpoint, g: usize) -> usize {
        offset(m, end) * if self.legacy { g } else { self.stride }
    }
}

/// `m`'s offset, in elements per variable, in its `end` buffer.
fn offset(m: &MsgPlan, end: Endpoint) -> usize {
    [m.recv_offset, m.send_offset][end as usize]
}

/// The run of (`rank`, `dir`) in a vector grouped by rank, then direction,
/// given every run's end index at `3 * rank + dir`.
fn run_of(ends: &[usize], rank: usize, dir: Dir) -> Range<usize> {
    let run = 3 * rank + dir.index();
    let start = if run == 0 { 0 } else { ends[run - 1] };
    start..ends[run]
}

#[cfg(test)]
mod tests {
    use super::*;
    use amr_mesh::Object;

    fn two_rank_cfg() -> Config {
        crate::config::Config::smoke_test()
    }

    fn build(cfg: &Config) -> (MeshDirectory, CommPlan) {
        let dir = MeshDirectory::initial(cfg.params.clone());
        let plan = CommPlan::build(cfg, &dir, cfg.params.num_ranks());
        (dir, plan)
    }

    #[test]
    fn aggregated_plan_has_one_message_per_neighbor_dir() {
        let cfg = two_rank_cfg();
        let (_, plan) = build(&cfg);
        // 2×1×1 rank grid, each rank a 1×2×2 brick: only X-direction
        // cross-rank faces. One aggregated message each way.
        let x_msgs: Vec<_> = plan.msgs.iter().filter(|m| m.dir == Dir::X).collect();
        assert_eq!(x_msgs.len(), 2);
        assert_eq!(
            x_msgs[0].transfers.len(),
            4,
            "4 face pairs cross the rank boundary"
        );
        assert!(plan.msgs.iter().all(|m| m.dir == Dir::X));
    }

    #[test]
    fn send_faces_splits_into_per_face_messages() {
        let mut cfg = two_rank_cfg();
        cfg.send_faces = true;
        let (_, plan) = build(&cfg);
        assert_eq!(plan.msgs.len(), 8, "one message per face, both directions");
        assert!(plan.msgs.iter().all(|m| m.transfers.len() == 1));
    }

    #[test]
    fn max_comm_tasks_caps_messages() {
        let mut cfg = two_rank_cfg();
        cfg.send_faces = true;
        cfg.max_comm_tasks = 2;
        let (_, plan) = build(&cfg);
        // 4 faces per (src,dst,dir) group capped at 2 messages.
        assert_eq!(plan.msgs.len(), 4);
        assert!(plan.msgs.iter().all(|m| m.transfers.len() == 2));
    }

    #[test]
    fn tags_are_unique_and_in_direction_spaces() {
        let mut cfg = two_rank_cfg();
        cfg.send_faces = true;
        let (_, plan) = build(&cfg);
        let mut tags: Vec<i32> = plan.msgs.iter().map(|m| m.tag).collect();
        tags.sort_unstable();
        tags.dedup();
        assert_eq!(tags.len(), plan.msgs.len(), "duplicate tags");
        for m in &plan.msgs {
            let space = m.tag / DIR_TAG_SPACE;
            assert_eq!(space as usize, m.dir.index());
        }
    }

    #[test]
    fn buffer_offsets_are_disjoint_per_rank_dir() {
        let mut cfg = two_rank_cfg();
        cfg.send_faces = true;
        cfg.max_comm_tasks = 3;
        let (_, plan) = build(&cfg);
        for rank in 0..2 {
            for d in 0..3 {
                let mut spans: Vec<(usize, usize)> = plan
                    .outbound(rank)
                    .filter(|m| m.dir.index() == d)
                    .map(|m| (m.send_offset, m.send_offset + m.elems_per_var))
                    .collect();
                spans.sort_unstable();
                for w in spans.windows(2) {
                    assert!(w[0].1 <= w[1].0, "overlapping send buffer spans");
                }
                let total: usize = spans.iter().map(|(a, b)| b - a).sum();
                assert_eq!(total, plan.send_elems[rank][d]);
            }
        }
    }

    /// With `--coalesce on`, an inter-node pair's `--send_faces` messages
    /// collapse back into the aggregated per-(neighbor, direction) form —
    /// the same transfer order and payload layout as the default plan.
    #[test]
    fn coalesce_merges_inter_node_send_faces() {
        let mut cfg = two_rank_cfg();
        cfg.send_faces = true;
        cfg.coalesce = true;
        cfg.ranks_per_node = 1; // the two ranks are on different nodes
        cfg.eager_bytes = 0; // every aggregate is past the threshold
        let (_, plan) = build(&cfg);

        let mut agg = two_rank_cfg();
        agg.send_faces = false;
        let (_, reference) = build(&agg);

        assert_eq!(plan.msgs.len(), reference.msgs.len());
        for (a, b) in plan.msgs.iter().zip(reference.msgs.iter()) {
            assert_eq!(
                (a.src_rank, a.dst_rank, a.dir, a.tag),
                (b.src_rank, b.dst_rank, b.dir, b.tag)
            );
            assert_eq!(a.elems_per_var, b.elems_per_var);
            assert_eq!(a.transfers.len(), b.transfers.len());
            for (ta, tb) in a.transfers.iter().zip(b.transfers.iter()) {
                assert_eq!(ta.src_block, tb.src_block);
                assert_eq!(ta.offset_in_msg, tb.offset_in_msg);
            }
        }
    }

    /// Aggregates at or below the eager threshold are left at the
    /// configured granularity — merging them saves no handshake.
    #[test]
    fn coalesce_respects_eager_threshold() {
        let mut cfg = two_rank_cfg();
        cfg.send_faces = true;
        cfg.coalesce = true;
        cfg.ranks_per_node = 1;
        cfg.eager_bytes = usize::MAX;
        let (_, plan) = build(&cfg);
        assert_eq!(plan.msgs.len(), 8, "sub-eager groups stay per-face");
    }

    /// Rank pairs sharing a node never coalesce: their transfers bypass
    /// the NIC, so per-face granularity keeps its task-parallelism win.
    #[test]
    fn coalesce_keeps_intra_node_granularity() {
        let mut cfg = two_rank_cfg();
        cfg.send_faces = true;
        cfg.coalesce = true;
        cfg.ranks_per_node = 2; // both ranks on node 0
        cfg.eager_bytes = 0;
        let (_, plan) = build(&cfg);
        assert_eq!(plan.msgs.len(), 8, "intra-node pairs keep send_faces");
    }

    #[test]
    fn refined_mesh_has_level_crossing_transfers() {
        let mut cfg = two_rank_cfg();
        let mut dir = MeshDirectory::initial(cfg.params.clone());
        let sphere = Object::sphere([0.1, 0.25, 0.25], 0.1, [0.0; 3]);
        dir.refine_to_fixpoint(&[sphere]);
        cfg.send_faces = true;
        let plan = CommPlan::build(&cfg, &dir, 2);
        let all: Vec<&FaceTransfer> = plan
            .msgs
            .iter()
            .flat_map(|m| m.transfers.iter())
            .chain(plan.locals.iter())
            .collect();
        assert!(all
            .iter()
            .any(|t| matches!(t.kind, TransferKind::Restrict { .. })));
        assert!(all
            .iter()
            .any(|t| matches!(t.kind, TransferKind::Prolong { .. })));
        // Restrict/Prolong pair up: a fine/coarse boundary seen from both
        // sides.
        let restricts = all
            .iter()
            .filter(|t| matches!(t.kind, TransferKind::Restrict { .. }))
            .count();
        let prolongs = all
            .iter()
            .filter(|t| matches!(t.kind, TransferKind::Prolong { .. }))
            .count();
        assert_eq!(restricts, prolongs);
    }

    #[test]
    fn every_active_face_is_covered_exactly_once() {
        let cfg = two_rank_cfg();
        let mut dir = MeshDirectory::initial(cfg.params.clone());
        let sphere = Object::sphere([0.4, 0.5, 0.5], 0.2, [0.0; 3]);
        dir.refine_to_fixpoint(&[sphere]);
        let plan = CommPlan::build(&cfg, &dir, 2);
        // Expected transfer count from the directory itself: one per
        // same/coarser neighbor face, four per finer face, one boundary
        // entry per boundary face.
        let mut expected_transfers = 0usize;
        let mut expected_boundaries = 0usize;
        for (b, _) in dir.iter() {
            for d in Dir::ALL {
                for s in Side::BOTH {
                    match dir.neighbor_info(b, d, s) {
                        amr_mesh::NeighborInfo::Boundary => expected_boundaries += 1,
                        amr_mesh::NeighborInfo::Finer(_) => expected_transfers += 4,
                        _ => expected_transfers += 1,
                    }
                }
            }
        }
        let msg_faces: usize = plan.msgs.iter().map(|m| m.transfers.len()).sum();
        assert_eq!(msg_faces + plan.locals.len(), expected_transfers);
        assert_eq!(plan.boundaries.len(), expected_boundaries);
    }

    /// `locals_of`/`boundaries_of` are the contiguous runs the executors
    /// used to find by scanning the whole plan, in the same relative
    /// order, and the positions name the block they say they name.
    #[test]
    fn rank_dir_ranges_equal_the_filter_scans() {
        let cfg = two_rank_cfg();
        let mut dir = MeshDirectory::initial(cfg.params.clone());
        let sphere = Object::sphere([0.4, 0.5, 0.5], 0.2, [0.0; 3]);
        dir.refine_to_fixpoint(&[sphere]);
        let plan = CommPlan::build(&cfg, &dir, 2);
        let (mut copies, mut fills) = (0, 0);
        for rank in 0..2 {
            let ids = dir.blocks_of(rank);
            for d in Dir::ALL {
                let run = &plan.locals[plan.locals_of(rank, d)];
                let scan: Vec<&FaceTransfer> = (plan.locals.iter())
                    .filter(|t| t.dir == d && t.src_rank == rank)
                    .collect();
                assert_eq!(run.len(), scan.len());
                for (a, b) in run.iter().zip(scan) {
                    assert!(
                        std::ptr::eq(a, b),
                        "run of rank {rank} {d:?} is not the scan"
                    );
                    assert_eq!((ids[a.src_pos], ids[a.dst_pos]), (a.src_block, a.dst_block));
                }
                copies += run.len();

                let run = &plan.boundaries[plan.boundaries_of(rank, d)];
                let scan: Vec<&BoundaryFill> = (plan.boundaries.iter())
                    .filter(|b| b.dir == d && dir.owner(&b.block) == Some(rank))
                    .collect();
                assert_eq!(run.iter().collect::<Vec<_>>(), scan);
                assert!(run.iter().all(|b| ids[b.pos] == b.block));
                fills += run.len();
            }
        }
        assert_eq!((copies, fills), (plan.locals.len(), plan.boundaries.len()));
        // Cross-rank transfers carry each end's position on its own rank.
        for t in plan.msgs.iter().flat_map(|m| &m.transfers) {
            assert_eq!(dir.blocks_of(t.src_rank)[t.src_pos], t.src_block);
            assert_eq!(dir.blocks_of(t.dst_rank)[t.dst_pos], t.dst_block);
        }
    }

    #[test]
    fn shared_buffer_sizing_takes_direction_max() {
        let mut cfg = two_rank_cfg();
        let (_, plan) = build(&cfg);
        let shared = BufferLayout::of(&cfg);
        cfg.separate_buffers = true;
        let separate = BufferLayout::of(&cfg);
        for end in [Endpoint::Inbound, Endpoint::Outbound] {
            let max = separate.sizes(&plan, 0, end).into_iter().max().unwrap();
            assert_eq!(shared.sizes(&plan, 0, end), [max; 3]);
        }
        let objs = shared.objs();
        assert!(objs.iter().all(|&o| o == objs[0]), "one shared object");
        let objs = separate.objs();
        assert!(objs[0] != objs[1] && objs[1] != objs[2] && objs[0] != objs[2]);
    }

    /// The layout's promises for `rank`'s `end` messages of direction `d`
    /// in a group of `g` variables.
    fn check_dir(
        plan: &CommPlan,
        layout: &BufferLayout,
        g: usize,
        end: Endpoint,
        rank: usize,
        d: Dir,
    ) {
        let mut spans = Vec::new();
        for (_, m) in plan.in_dir(rank, d, end) {
            let span = layout.span(m, end, g);
            let mut next = span.start;
            for t in 0..m.transfers.len() {
                let section = layout.section(m, t, end, g);
                assert_eq!(section.start, next, "a gap before section {t}");
                next = section.end;
            }
            assert_eq!(next, span.end, "the sections do not fill the span");
            let slot = layout.slot(m, end);
            assert!(slot.start <= span.start && span.end <= slot.end);
            assert!(slot.end <= layout.sizes(plan, rank, end)[d.index()]);
            spans.push(span);
        }
        spans.sort_by_key(|s| s.start);
        for w in spans.windows(2) {
            assert!(w[0].end <= w[1].start, "spans {w:?} overlap");
        }
    }

    /// Every group of an uneven split (8 variables in groups of 3, 3 and
    /// 2), at both ends of every message shape, on a row of three ranks
    /// (the middle one has two neighbours a direction): the sections tile
    /// the span, the span lies inside the message's slot, and the spans of
    /// one (rank, direction) are disjoint — while the legacy stride takes
    /// the last group out of its slot.
    #[test]
    fn sections_tile_spans_inside_disjoint_slots() {
        let ends = [Endpoint::Inbound, Endpoint::Outbound];
        for (send_faces, max_comm_tasks) in [(false, 0), (true, 0), (true, 2)] {
            let mut cfg = two_rank_cfg();
            (cfg.params.npx, cfg.params.num_vars, cfg.comm_vars) = (3, 8, 3);
            (cfg.send_faces, cfg.max_comm_tasks) = (send_faces, max_comm_tasks);
            let mut dir = MeshDirectory::initial(cfg.params.clone());
            dir.refine_to_fixpoint(&cfg.objects);
            let plan = CommPlan::build(&cfg, &dir, 3);
            let layout = BufferLayout::of(&cfg);
            let groups: Vec<usize> = (0..cfg.num_groups())
                .map(|g| cfg.var_group(g).len())
                .collect();
            assert_eq!(groups, [3, 3, 2]);
            for &g in &groups {
                for end in ends {
                    for rank in 0..3 {
                        for d in Dir::ALL {
                            check_dir(&plan, &layout, g, end, rank, d);
                        }
                    }
                }
            }
            // The seed's stride: the last group of a message past the first
            // of its buffer leaves the message's slot.
            cfg.legacy_group_offsets = true;
            let legacy = BufferLayout::of(&cfg);
            let m = (plan.msgs.iter())
                .find(|m| m.send_offset > 0)
                .expect("a buffer holds two messages");
            let end = Endpoint::Outbound;
            let (span, slot) = (legacy.span(m, end, 2), legacy.slot(m, end));
            assert!(span.start < slot.start, "{span:?} inside {slot:?}");
        }
    }
}
