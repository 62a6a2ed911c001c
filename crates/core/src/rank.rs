//! Per-rank application state and the shared numerical operations.
//!
//! Every variant drives the same [`RankState`] through the same sequence
//! of mesh mutations — only the orchestration (serial, fork-join,
//! data-flow) differs, which is what makes the cross-variant checksum
//! equivalence meaningful.

use crate::comm_plan::{FaceTransfer, TransferKind};
use crate::config::Config;
use crate::exchange::{run_jobs_serially, LiveRegrid};
use crate::skeleton::Walk;
use amr_mesh::block_id::{Dir, Side};
use amr_mesh::data::{BlockData, BlockLayout};
use amr_mesh::face;
use amr_mesh::stencil::apply_stencil;
use amr_mesh::{checksum, BlockId, MeshDirectory};
use shmem::BufferPool;
use std::collections::BTreeMap;
use std::ops::Range;
use std::sync::Arc;

/// The state one rank owns: the replicated directory, the local block
/// data, and the moving objects.
pub struct RankState {
    /// Run configuration.
    pub cfg: Config,
    /// Data layout of every block.
    pub layout: BlockLayout,
    /// Replicated directory of active blocks and owners.
    pub dir: MeshDirectory,
    /// The simulated objects (advanced identically on every rank).
    pub objects: Vec<amr_mesh::Object>,
    /// Blocks whose data lives on this rank.
    pub blocks: BTreeMap<BlockId, BlockData>,
    /// This rank.
    pub rank: usize,
    /// World size.
    pub n_ranks: usize,
    /// Recyclable scratch buffers for the payloads of block moves (local
    /// face transfers take none). Shared with worker tasks via `Arc`.
    pub pool: Arc<BufferPool>,
}

impl RankState {
    /// The one constructor: a rank's state over `blocks`, with the pool
    /// seeded with the one buffer a run may need later — a block-move
    /// payload — so the first regrid's move is already a hit.
    pub(crate) fn assemble(
        cfg: &Config,
        dir: MeshDirectory,
        objects: Vec<amr_mesh::Object>,
        blocks: BTreeMap<BlockId, BlockData>,
        rank: usize,
        n_ranks: usize,
    ) -> RankState {
        let layout = BlockLayout::of(&cfg.params);
        let pool = BufferPool::new();
        drop(pool.take(layout.num_vars * layout.cells()));
        RankState {
            cfg: cfg.clone(),
            layout,
            dir,
            objects,
            blocks,
            rank,
            n_ranks,
            pool,
        }
    }

    /// Builds the initial state: root blocks with analytic data, then the
    /// initial refinement around the objects' starting positions, with
    /// block data prolongated level by level. Purely local (the initial
    /// refinement plan is replicated), so all ranks stay consistent.
    pub fn init(cfg: &Config, rank: usize, n_ranks: usize) -> RankState {
        assert_eq!(n_ranks, cfg.params.num_ranks());
        let dir = MeshDirectory::initial(cfg.params.clone());
        let mut blocks = BTreeMap::new();
        for (id, &owner) in dir.iter() {
            if owner == rank {
                blocks.insert(*id, BlockData::initialized(*id, &cfg.params));
            }
        }
        let mut state = RankState::assemble(cfg, dir, cfg.objects.clone(), blocks, rank, n_ranks);
        Walk::initial(cfg).run(&mut LiveRegrid {
            state: &mut state,
            exchange: None,
            run_jobs: &mut run_jobs_serially,
            moved: 0,
        });
        state
    }

    /// The blocks this rank owns, in id order (cheap clones of handles).
    pub fn local_blocks(&self) -> Vec<BlockData> {
        self.blocks.values().cloned().collect()
    }

    /// Looks up a local block handle.
    pub fn block(&self, id: &BlockId) -> &BlockData {
        self.blocks
            .get(id)
            .unwrap_or_else(|| panic!("rank {} does not own {:?}", self.rank, id))
    }

    /// Applies the stencil to one block for a variable group and returns
    /// the flops executed.
    pub fn stencil_block(&self, block: &BlockData, vars: Range<usize>) -> u64 {
        let nvars = vars.len() as u64;
        apply_stencil(block, &self.layout, self.cfg.stencil, vars);
        self.layout.cells() as u64 * nvars * self.cfg.stencil.flops_per_cell()
    }

    /// Per-block checksum contributions in id order: the block ids and
    /// their per-variable sums, the inputs of the ownership-independent
    /// global combination (`variant::checksum_remote_blocks`).
    pub fn block_checksums(&self, vars: Range<usize>) -> (Vec<BlockId>, Vec<Vec<f64>>) {
        let ids: Vec<BlockId> = self.blocks.keys().copied().collect();
        let sums: Vec<Vec<f64>> = self
            .blocks
            .values()
            .map(|b| checksum::block_sums(b, &self.layout, vars.clone()))
            .collect();
        (ids, sums)
    }

    /// Local checksum contribution: per-block per-var sums in id order,
    /// combined in id order.
    pub fn local_checksum(&self, vars: Range<usize>) -> Vec<f64> {
        let per_block: Vec<Vec<f64>> = self
            .blocks
            .values()
            .map(|b| checksum::block_sums(b, &self.layout, vars.clone()))
            .collect();
        checksum::combine_block_sums(&per_block, vars.len())
    }
}

/// Number of payload elements a transfer carries for `nvars` variables
/// (what [`pack_transfer_into`] writes and [`unpack_transfer`] reads).
#[inline]
pub fn transfer_payload_elems(t: &FaceTransfer, nvars: usize) -> usize {
    t.elems_per_var * nvars
}

/// Extracts (and transforms) the payload of one face transfer from the
/// sending block into a caller-supplied buffer (a message-buffer section)
/// — the *pack* operation. No intermediate vector even for the restrict
/// path: restriction is fused with the face read.
pub fn pack_transfer_into(
    layout: &BlockLayout,
    src: &BlockData,
    t: &FaceTransfer,
    vars: Range<usize>,
    out: &mut [f64],
) {
    debug_assert_eq!(src.id, t.src_block);
    match t.kind {
        TransferKind::Same => face::extract_face_into(src, layout, t.dir, t.src_side(), vars, out),
        TransferKind::Restrict { .. } => {
            face::restrict_from_block_into(src, layout, t.dir, t.src_side(), vars, out)
        }
        TransferKind::Prolong { quarter } => {
            face::extract_face_quarter_into(src, layout, t.dir, t.src_side(), quarter, vars, out)
        }
    }
}

/// Injects a received payload into the receiving block's ghost plane —
/// the *unpack* operation. Allocation-free: the prolongation path writes
/// the duplicated coarse values straight into the ghost plane.
pub fn unpack_transfer(
    layout: &BlockLayout,
    dst: &BlockData,
    t: &FaceTransfer,
    vars: Range<usize>,
    payload: &[f64],
) {
    debug_assert_eq!(dst.id, t.dst_block);
    match t.kind {
        TransferKind::Same => {
            face::inject_ghost_face(dst, layout, t.dir, t.dst_side, vars, payload)
        }
        TransferKind::Restrict { quarter } => {
            face::inject_ghost_quarter(dst, layout, t.dir, t.dst_side, quarter, vars, payload)
        }
        TransferKind::Prolong { .. } => {
            face::inject_prolonged_face(dst, layout, t.dir, t.dst_side, vars, payload)
        }
    }
}

/// Performs a rank-local transfer — miniAMR's intra-process communication
/// — block to block: the fused face operator of the transfer's kind reads
/// the source's boundary plane and writes the destination's ghost plane
/// directly, bit for bit what [`pack_transfer_into`] → [`unpack_transfer`]
/// leave there, with no payload in between.
pub fn local_transfer(
    layout: &BlockLayout,
    src: &BlockData,
    dst: &BlockData,
    t: &FaceTransfer,
    vars: Range<usize>,
) {
    debug_assert_eq!((src.id, dst.id), (t.src_block, t.dst_block));
    let (dir, src_side, dst_side) = (t.dir, t.src_side(), t.dst_side);
    match t.kind {
        TransferKind::Same => {
            face::transfer_face_same(layout, dir, src, src_side, dst, dst_side, vars)
        }
        TransferKind::Restrict { quarter } => {
            face::transfer_face_restrict(layout, dir, src, src_side, dst, dst_side, quarter, vars)
        }
        TransferKind::Prolong { quarter } => {
            face::transfer_face_prolong(layout, dir, src, src_side, quarter, dst, dst_side, vars)
        }
    }
}

/// [`local_transfer`] under its earlier signature: the staging buffer the
/// pool used to supply is gone, the argument stays for callers outside
/// the crate.
pub fn apply_local_transfer(
    layout: &BlockLayout,
    src: &BlockData,
    dst: &BlockData,
    t: &FaceTransfer,
    vars: Range<usize>,
    _pool: &Arc<BufferPool>,
) {
    local_transfer(layout, src, dst, t, vars);
}

/// Fills a domain-boundary ghost plane (zero-gradient).
pub fn apply_boundary(
    layout: &BlockLayout,
    block: &BlockData,
    dir: Dir,
    side: Side,
    vars: Range<usize>,
) {
    block.fill_boundary_ghosts(layout, dir, side, vars);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::comm_plan::CommPlan;

    #[test]
    fn init_refines_around_object() {
        let cfg = Config::smoke_test();
        let s0 = RankState::init(&cfg, 0, 2);
        let s1 = RankState::init(&cfg, 1, 2);
        assert_eq!(s0.dir, s1.dir, "replicated directories must agree");
        assert!(s0.dir.len() > 8, "initial refinement did not trigger");
        // Every directory block is owned exactly once.
        let total = s0.blocks.len() + s1.blocks.len();
        assert_eq!(total, s0.dir.len());
        assert!(s0.dir.check_balance().is_ok());
    }

    /// Every local transfer of a refined two-rank plan, run block to
    /// block, leaves its destination bit for bit as packing into a
    /// payload and unpacking from it — the path a remote transfer takes —
    /// leaves a twin of that destination.
    #[test]
    fn local_transfer_matches_pack_then_unpack_bitwise() {
        // Two levels of refinement around four spheres: coarse and fine
        // blocks meet on both ranks.
        let mut params = Config::smoke_test().params;
        (params.init_x, params.num_refine) = (2, 2);
        let cfg = Config::four_spheres(params, 4);
        let vars = 0..cfg.params.num_vars;
        let mut kinds = [0; 3];
        for rank in 0..2 {
            let state = RankState::init(&cfg, rank, 2);
            let plan = CommPlan::build(&cfg, &state.dir, 2);
            for t in plan.locals.iter().filter(|t| t.src_rank == rank) {
                let (src, dst) = (state.block(&t.src_block), state.block(&t.dst_block));
                let twin = BlockData::empty(t.dst_block, &cfg.params);
                twin.buf.full().write_from(&dst.buf.full().to_vec());
                let mut payload = vec![0.0; transfer_payload_elems(t, vars.len())];
                pack_transfer_into(&state.layout, src, t, vars.clone(), &mut payload);
                unpack_transfer(&state.layout, &twin, t, vars.clone(), &payload);
                apply_local_transfer(&state.layout, src, dst, t, vars.clone(), &state.pool);
                let bits = |b: &BlockData| -> Vec<u64> {
                    b.buf
                        .full()
                        .with_read(|d| d.iter().map(|v| v.to_bits()).collect())
                };
                assert_eq!(bits(dst), bits(&twin), "local and staged {t:?} disagree");
                kinds[match t.kind {
                    TransferKind::Same => 0,
                    TransferKind::Restrict { .. } => 1,
                    TransferKind::Prolong { .. } => 2,
                }] += 1;
            }
        }
        assert!(
            kinds.iter().all(|&n| n > 0),
            "plan lacks a transfer kind (same, restrict, prolong): {kinds:?}"
        );
    }

    #[test]
    fn checksum_is_ghost_independent() {
        let cfg = Config::smoke_test();
        let state = RankState::init(&cfg, 0, 2);
        let before = state.local_checksum(0..cfg.params.num_vars);
        // Pollute every local ghost plane.
        for b in state.blocks.values() {
            for d in Dir::ALL {
                for s in Side::BOTH {
                    apply_boundary(&state.layout, b, d, s, 0..cfg.params.num_vars);
                }
            }
        }
        let after = state.local_checksum(0..cfg.params.num_vars);
        assert_eq!(before, after);
    }

    #[test]
    fn stencil_reports_flops() {
        let cfg = Config::smoke_test();
        let state = RankState::init(&cfg, 0, 2);
        let b = state.blocks.values().next().unwrap().clone();
        let flops = state.stencil_block(&b, 0..2);
        assert_eq!(flops, (4 * 4 * 4) as u64 * 2 * 7);
    }
}
