//! The replicated mesh directory and the refinement decision algorithm.
//!
//! Every rank holds an identical copy of the directory (active blocks +
//! owners) and runs the identical, deterministic refinement decision, so
//! no metadata communication is needed to agree on the new mesh — only
//! block *data* moves (splits, merges, load balancing), exactly the
//! expensive parts the paper taskifies in §IV-B.

use crate::block_id::{BlockId, Dir, Side};
use crate::object::Object;
use crate::params::MeshParams;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// What lies across a block face.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NeighborInfo {
    /// The domain boundary.
    Boundary,
    /// One neighbor at the same refinement level.
    Same(BlockId),
    /// One neighbor one level coarser.
    Coarser(BlockId),
    /// Four neighbors one level finer, in quarter order.
    Finer([BlockId; 4]),
}

/// The set of active blocks with their owning ranks: a list in id order
/// and a hashed index from an id to its position in that list.
#[derive(Debug, Clone)]
pub struct MeshDirectory {
    params: MeshParams,
    blocks: Vec<(BlockId, usize)>,
    index: HashMap<BlockId, u32, BuildHasherDefault<IdHasher>>,
}

impl PartialEq for MeshDirectory {
    /// The index is a function of the list.
    fn eq(&self, other: &Self) -> bool {
        (&self.params, &self.blocks) == (&other.params, &other.blocks)
    }
}

/// A multiply-rotate hasher for the index: a block id is four small
/// integers, and no key comes from outside the program.
#[derive(Default)]
struct IdHasher(u64);

impl Hasher for IdHasher {
    fn finish(&self) -> u64 {
        // Bring the well-mixed high bits down to the bucket bits.
        self.0.rotate_left(26)
    }
    fn write(&mut self, bytes: &[u8]) {
        bytes.iter().for_each(|&b| self.write_u32(b.into()));
    }
    fn write_u32(&mut self, n: u32) {
        self.0 = (self.0.rotate_left(5) ^ u64::from(n)).wrapping_mul(0x517c_c1b7_2722_0a95);
    }
}

/// One refinement step: which blocks split, which octets merge, and the
/// resulting directory.
#[derive(Debug, Clone, Default)]
pub struct RefinePlan {
    /// Blocks that split into their eight children (children keep the
    /// parent's owner).
    pub splits: Vec<BlockId>,
    /// Octets that merge into their parent. The parent is owned by the
    /// owner of the first child; data of the remaining children moves
    /// there.
    pub merges: Vec<BlockId>,
}

impl RefinePlan {
    /// True when the step changes nothing.
    pub fn is_empty(&self) -> bool {
        self.splits.is_empty() && self.merges.is_empty()
    }
}

impl MeshDirectory {
    /// The initial (coarsest) mesh with miniAMR's brick-per-rank owner
    /// layout.
    pub fn initial(params: MeshParams) -> MeshDirectory {
        params.validate().expect("invalid mesh parameters");
        let (bx, by, bz) = params.root_blocks();
        let mut blocks = Vec::with_capacity(bx * by * bz);
        for x in 0..bx {
            for y in 0..by {
                for z in 0..bz {
                    let id = BlockId::new(0, x as u32, y as u32, z as u32);
                    blocks.push((id, params.initial_owner(x, y, z)));
                }
            }
        }
        MeshDirectory::with_blocks(params, blocks)
    }

    /// The directory of `blocks`, which are in id order.
    fn with_blocks(params: MeshParams, blocks: Vec<(BlockId, usize)>) -> MeshDirectory {
        debug_assert!(blocks.windows(2).all(|w| w[0].0 < w[1].0));
        let positions = (blocks.iter().enumerate()).map(|(p, (id, _))| (*id, p as u32));
        let index = positions.collect();
        MeshDirectory {
            params,
            blocks,
            index,
        }
    }

    /// The mesh parameters.
    pub fn params(&self) -> &MeshParams {
        &self.params
    }

    /// Number of active blocks.
    pub fn len(&self) -> usize {
        self.blocks.len()
    }

    /// True when the mesh has no blocks (never the case after
    /// construction).
    pub fn is_empty(&self) -> bool {
        self.blocks.is_empty()
    }

    /// Position of an active block in [`Self::iter`]'s order.
    pub fn position(&self, id: &BlockId) -> Option<usize> {
        self.index.get(id).map(|&p| p as usize)
    }

    /// Owner rank of a block, if active.
    pub fn owner(&self, id: &BlockId) -> Option<usize> {
        self.position(id).map(|p| self.blocks[p].1)
    }

    /// True when `id` is an active block.
    pub fn contains(&self, id: &BlockId) -> bool {
        self.index.contains_key(id)
    }

    /// Iterates `(block, owner)` in BlockId order (deterministic).
    pub fn iter(&self) -> impl Iterator<Item = (&BlockId, &usize)> {
        self.blocks.iter().map(|(id, owner)| (id, owner))
    }

    /// The blocks owned by `rank`, in BlockId order.
    pub fn blocks_of(&self, rank: usize) -> Vec<BlockId> {
        self.blocks
            .iter()
            .filter_map(|&(id, o)| (o == rank).then_some(id))
            .collect()
    }

    /// Per-rank block counts (`ranks` entries).
    pub fn counts_per_rank(&self, ranks: usize) -> Vec<usize> {
        let mut counts = vec![0usize; ranks];
        for &(_, o) in &self.blocks {
            counts[o] += 1;
        }
        counts
    }

    /// Reassigns a block's owner (load balancing).
    pub fn set_owner(&mut self, id: BlockId, owner: usize) {
        let p = self.position(&id).expect("set_owner on inactive block");
        self.blocks[p].1 = owner;
    }

    /// Resolves what lies across a face, or `None` if the mesh structure
    /// is inconsistent there (a 2:1 invariant violation).
    pub fn try_neighbor_info(&self, id: &BlockId, dir: Dir, side: Side) -> Option<NeighborInfo> {
        let Some(same) = id.neighbor(dir, side, &self.params) else {
            return Some(NeighborInfo::Boundary);
        };
        if self.contains(&same) {
            return Some(NeighborInfo::Same(same));
        }
        if let Some(parent) = same.parent() {
            if self.contains(&parent) {
                return Some(NeighborInfo::Coarser(parent));
            }
        }
        if let Some(finer) = id.finer_neighbors(dir, side, &self.params) {
            if finer.iter().all(|f| self.contains(f)) {
                return Some(NeighborInfo::Finer(finer));
            }
        }
        None
    }

    /// Resolves what lies across a face.
    ///
    /// # Panics
    ///
    /// Panics on a mesh inconsistency (2:1 violation) — that indicates a
    /// bug in the refinement planner.
    pub fn neighbor_info(&self, id: &BlockId, dir: Dir, side: Side) -> NeighborInfo {
        self.try_neighbor_info(id, dir, side).unwrap_or_else(|| {
            panic!("mesh inconsistency: no neighbor across {dir:?}/{side:?} of {id:?}")
        })
    }

    /// Verifies the 2:1 face balance for the whole mesh. Returns the
    /// offending block on failure.
    pub fn check_balance(&self) -> Result<(), BlockId> {
        for (id, _) in &self.blocks {
            for dir in Dir::ALL {
                for side in Side::BOTH {
                    if self.try_neighbor_info(id, dir, side).is_none() {
                        return Err(*id);
                    }
                }
            }
        }
        Ok(())
    }

    /// Computes one refinement step (±1 level per block) from the current
    /// object positions: object-intersecting blocks refine, object-free
    /// octets coarsen, and the 2:1 constraint is enforced by propagation.
    /// Blocks are named by their positions throughout.
    pub fn plan_refinement(&self, objects: &[Object]) -> RefinePlan {
        let n = self.blocks.len();
        let level = |p: usize| self.blocks[p].0.level;
        // Desired post-step level per block.
        let refines = |id| (objects.iter()).any(|o| o.drives_refinement(id, &self.params));
        let mut desired: Vec<u8> = (self.blocks.iter())
            .map(|(id, _)| {
                if refines(id) {
                    (id.level + 1).min(self.params.num_refine)
                } else {
                    id.level.saturating_sub(1)
                }
            })
            .collect();
        // Every block's face neighbours, resolved once: block `p`'s are
        // `nbrs[ends[p]..ends[p + 1]]`.
        let at = |b: &BlockId| self.index[b];
        let (mut nbrs, mut ends) = (Vec::with_capacity(6 * n), Vec::with_capacity(n + 1));
        ends.push(0);
        for (id, _) in &self.blocks {
            for dir in Dir::ALL {
                for side in Side::BOTH {
                    match self.neighbor_info(id, dir, side) {
                        NeighborInfo::Boundary => {}
                        NeighborInfo::Same(b) | NeighborInfo::Coarser(b) => nbrs.push(at(&b)),
                        NeighborInfo::Finer(bs) => nbrs.extend(bs.iter().map(at)),
                    }
                }
            }
            ends.push(nbrs.len());
        }
        // Every block that wants to coarsen, with its octet if all eight
        // siblings are active. Desired levels only rise, so no other block
        // ever wants to.
        let octet = |parent: BlockId| -> Option<[u32; 8]> {
            let mut out = [0; 8];
            for (o, c) in out.iter_mut().zip(parent.children()) {
                *o = *self.index.get(&c)?;
            }
            Some(out)
        };
        let coarsening: Vec<(usize, Option<[u32; 8]>)> = (0..n)
            .filter(|&p| desired[p] < level(p))
            .map(|p| (p, self.blocks[p].0.parent().and_then(octet)))
            .collect();

        // Fixpoint over two interacting rules, both of which only *raise*
        // desired levels (so the loop terminates):
        //
        // 1. **2:1 propagation** — a block's resulting level may exceed a
        //    face neighbor's by at most one.
        // 2. **merge coherence** — coarsening requires the whole octet: a
        //    block desiring `level-1` whose siblings are not all active
        //    and coarsen-willing reverts to its current level.
        //
        // Rule 2 must run *inside* the fixpoint: a canceled merge raises
        // the block back to its current level, which can invalidate 2:1
        // constraints that were satisfied against the merged level.
        loop {
            let mut changed = false;
            for p in 0..n {
                let mine = desired[p];
                if mine <= 1 {
                    continue;
                }
                for &q in &nbrs[ends[p]..ends[p + 1]] {
                    let nd = &mut desired[q as usize];
                    if mine > *nd + 1 {
                        *nd = mine - 1;
                        changed = true;
                    }
                }
            }
            // Merge coherence: cancel coarsening of incoherent octets.
            let coherent = |o: &[u32; 8], lvl: u8| o.iter().all(|&c| desired[c as usize] == lvl);
            let cancels: Vec<usize> = (coarsening.iter())
                .filter(|(p, o)| {
                    desired[*p] < level(*p) && !o.is_some_and(|o| coherent(&o, level(*p) - 1))
                })
                .map(|&(p, _)| p)
                .collect();
            for &p in &cancels {
                desired[p] = level(p);
            }
            if !changed && cancels.is_empty() {
                break;
            }
        }

        // Splits: desire one level above current.
        let splits = (0..n).filter(|&p| desired[p] > level(p));
        // Merges: every octet still coarsening (so coherent, or the loop
        // would have gone on), named once, at its first child.
        let merges = coarsening.iter().filter_map(|&(p, o)| {
            let first = o?.into_iter().min() == Some(p as u32);
            let parent = self.blocks[p].0.parent();
            parent.filter(|_| first && desired[p] < level(p))
        });
        RefinePlan {
            splits: splits.map(|p| self.blocks[p].0).collect(),
            merges: merges.collect(),
        }
    }

    /// Applies a refinement plan, producing the updated directory.
    pub fn apply_plan(&mut self, plan: &RefinePlan) {
        let mut gone = vec![false; self.blocks.len()];
        let mut born = Vec::with_capacity(plan.merges.len() + 8 * plan.splits.len());
        let mut take = |id: &BlockId, what| {
            let p = self.position(id).expect(what);
            gone[p] = true;
            self.blocks[p].1
        };
        for parent in &plan.merges {
            let owners = parent
                .children()
                .map(|c| take(&c, "merged child was active"));
            born.push((*parent, owners[0]));
        }
        for id in &plan.splits {
            let owner = take(id, "split block was active");
            born.extend(id.children().map(|c| (c, owner)));
        }
        let kept = (self.blocks.iter().zip(&gone)).filter_map(|(b, &g)| (!g).then_some(*b));
        let mut blocks: Vec<(BlockId, usize)> = kept.chain(born).collect();
        blocks.sort_unstable_by_key(|&(id, _)| id);
        *self = MeshDirectory::with_blocks(self.params.clone(), blocks);
        debug_assert!(
            self.check_balance().is_ok(),
            "plan produced an unbalanced mesh"
        );
    }

    /// Runs refinement steps until the mesh no longer changes (used for
    /// the initial refinement before the main loop), bounded by
    /// `num_refine` steps.
    pub fn refine_to_fixpoint(&mut self, objects: &[Object]) -> usize {
        let mut steps = 0;
        for _ in 0..=self.params.num_refine {
            let plan = self.plan_refinement(objects);
            if plan.is_empty() {
                break;
            }
            self.apply_plan(&plan);
            steps += 1;
        }
        steps
    }

    /// Total cells across active blocks (each block has the same count;
    /// convenience for workload accounting).
    pub fn total_cells(&self) -> usize {
        self.len() * self.params.cells_per_block()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dir2() -> MeshDirectory {
        MeshDirectory::initial(MeshParams::test_small())
    }

    #[test]
    fn initial_mesh_is_root_grid() {
        let d = dir2();
        assert_eq!(d.len(), 8);
        assert!(d.check_balance().is_ok());
        assert_eq!(d.owner(&BlockId::new(0, 0, 0, 0)), Some(0));
    }

    #[test]
    fn neighbor_info_same_level() {
        let d = dir2();
        let b = BlockId::new(0, 0, 0, 0);
        assert_eq!(
            d.neighbor_info(&b, Dir::X, Side::Lo),
            NeighborInfo::Boundary
        );
        assert_eq!(
            d.neighbor_info(&b, Dir::X, Side::Hi),
            NeighborInfo::Same(BlockId::new(0, 1, 0, 0))
        );
    }

    #[test]
    fn refinement_splits_boundary_blocks() {
        let mut d = dir2();
        let sphere = Object::sphere([0.5, 0.5, 0.5], 0.3, [0.0; 3]);
        let plan = d.plan_refinement(&[sphere]);
        assert!(!plan.splits.is_empty());
        assert!(plan.merges.is_empty(), "nothing to coarsen at level 0");
        let before = d.len();
        d.apply_plan(&plan);
        // Each split adds 7 net blocks.
        assert_eq!(d.len(), before + 7 * plan.splits.len());
        assert!(d.check_balance().is_ok());
    }

    #[test]
    fn finer_neighbors_resolved_after_split() {
        let mut d = dir2();
        // Split exactly one corner block.
        let target = BlockId::new(0, 0, 0, 0);
        let plan = RefinePlan {
            splits: vec![target],
            merges: vec![],
        };
        d.apply_plan(&plan);
        let right = BlockId::new(0, 1, 0, 0);
        match d.neighbor_info(&right, Dir::X, Side::Lo) {
            NeighborInfo::Finer(f) => {
                for b in f {
                    assert_eq!(b.level, 1);
                    assert_eq!(b.x, 1);
                }
            }
            other => panic!("expected finer neighbors, got {other:?}"),
        }
        // And the fine block sees the coarse one.
        let fine = BlockId::new(1, 1, 0, 0);
        assert_eq!(
            d.neighbor_info(&fine, Dir::X, Side::Hi),
            NeighborInfo::Coarser(right)
        );
    }

    #[test]
    fn object_leaving_region_coarsens_it_back() {
        let mut d = dir2();
        let mut sphere = Object::sphere([0.25, 0.25, 0.25], 0.15, [0.5, 0.5, 0.5]);
        d.refine_to_fixpoint(&[sphere.clone()]);
        let refined = d.len();
        assert!(refined > 8);
        // Move the object away and re-plan: the old region coarsens.
        sphere.step(); // center now (0.75, 0.75, 0.75)
        let mut last = d.len();
        for _ in 0..4 {
            let plan = d.plan_refinement(&[sphere.clone()]);
            d.apply_plan(&plan);
            last = d.len();
        }
        assert!(d.check_balance().is_ok());
        // Still refined (object still in the mesh) but around the new
        // position; old corner went back toward level 0.
        let corner_children = BlockId::new(0, 0, 0, 0).children();
        let active_fine = corner_children.iter().filter(|c| d.contains(c)).count();
        assert_eq!(active_fine, 0, "old corner did not coarsen, {last} blocks");
    }

    #[test]
    fn two_to_one_propagation_forces_intermediate_levels() {
        let p = MeshParams {
            num_refine: 3,
            ..MeshParams::test_small()
        };
        let mut d = MeshDirectory::initial(p);
        // A tiny object in one corner, refined to the maximum level.
        let tiny = Object::sphere([0.06, 0.06, 0.06], 0.04, [0.0; 3]);
        d.refine_to_fixpoint(&[tiny]);
        assert!(d.check_balance().is_ok());
        // There must be blocks at intermediate levels forming the graded
        // transition.
        let mut levels: Vec<u8> = d.iter().map(|(b, _)| b.level).collect();
        levels.sort_unstable();
        levels.dedup();
        assert!(levels.contains(&3), "max level not reached: {levels:?}");
        assert!(
            levels.contains(&2) && levels.contains(&1),
            "no graded transition: {levels:?}"
        );
    }

    #[test]
    fn merges_keep_first_childs_owner() {
        let mut d = dir2();
        let target = BlockId::new(0, 1, 1, 1); // owned by rank 0 (single-rank mesh)
        d.apply_plan(&RefinePlan {
            splits: vec![target],
            merges: vec![],
        });
        // Reassign one child to a fictitious rank then merge back.
        let children = target.children();
        d.set_owner(children[0], 5);
        d.apply_plan(&RefinePlan {
            splits: vec![],
            merges: vec![target],
        });
        assert_eq!(d.owner(&target), Some(5));
        assert_eq!(d.len(), 8);
    }

    #[test]
    fn counts_per_rank_sum_to_len() {
        let p = MeshParams {
            npx: 2,
            npy: 1,
            npz: 1,
            init_x: 1,
            init_y: 2,
            init_z: 2,
            ..MeshParams::test_small()
        };
        let d = MeshDirectory::initial(p);
        let counts = d.counts_per_rank(2);
        assert_eq!(counts.iter().sum::<usize>(), d.len());
        assert_eq!(counts, vec![4, 4]);
    }

    #[test]
    fn refinement_is_deterministic() {
        let mk = || {
            let mut d = dir2();
            let sphere = Object::sphere([0.4, 0.6, 0.3], 0.25, [0.0; 3]);
            d.refine_to_fixpoint(&[sphere]);
            d
        };
        let a = mk();
        let b = mk();
        assert_eq!(a, b);
    }
}
