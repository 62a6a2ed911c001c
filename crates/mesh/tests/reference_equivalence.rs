//! The directory's position-indexed planner and the cached-key SFC sort
//! against the implementations they replaced, kept here as references: a
//! directory in a `BTreeMap`, a planner that looks every neighbour and
//! sibling up in it, and a sort that recomputes the Morton key at every
//! comparison. Over random objects and several plan/apply rounds, with
//! owners reassigned by the partition between rounds, the plans, the
//! directories (in iteration order) and the partitions must be equal.

use amr_mesh::block_id::{BlockId, Dir, Side};
use amr_mesh::partition::sfc_partition;
use amr_mesh::{MeshDirectory, MeshParams, NeighborInfo, Object, RefinePlan, Shape};
use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet};

/// The directory as a map from each active block to its owner.
struct Reference {
    params: MeshParams,
    blocks: BTreeMap<BlockId, usize>,
}

impl Reference {
    fn initial(params: MeshParams) -> Reference {
        let (bx, by, bz) = params.root_blocks();
        let mut blocks = BTreeMap::new();
        for z in 0..bz {
            for y in 0..by {
                for x in 0..bx {
                    let id = BlockId::new(0, x as u32, y as u32, z as u32);
                    blocks.insert(id, params.initial_owner(x, y, z));
                }
            }
        }
        Reference { params, blocks }
    }

    fn neighbor_info(&self, id: &BlockId, dir: Dir, side: Side) -> NeighborInfo {
        let Some(same) = id.neighbor(dir, side, &self.params) else {
            return NeighborInfo::Boundary;
        };
        if self.blocks.contains_key(&same) {
            return NeighborInfo::Same(same);
        }
        if let Some(parent) = same.parent() {
            if self.blocks.contains_key(&parent) {
                return NeighborInfo::Coarser(parent);
            }
        }
        let finer = (id.finer_neighbors(dir, side, &self.params))
            .filter(|f| f.iter().all(|b| self.blocks.contains_key(b)));
        NeighborInfo::Finer(finer.expect("the reference mesh is 2:1 balanced"))
    }

    fn plan_refinement(&self, objects: &[Object]) -> RefinePlan {
        let mut desired: BTreeMap<BlockId, u8> = BTreeMap::new();
        for id in self.blocks.keys() {
            let wants_refine = objects
                .iter()
                .any(|o| o.drives_refinement(id, &self.params));
            let level = if wants_refine {
                (id.level + 1).min(self.params.num_refine)
            } else if id.level > 0 {
                id.level - 1
            } else {
                0
            };
            desired.insert(*id, level);
        }
        loop {
            let mut changed = false;
            for id in self.blocks.keys() {
                let my_level = desired[id];
                if my_level <= 1 {
                    continue;
                }
                for dir in Dir::ALL {
                    for side in Side::BOTH {
                        let neighbors: Vec<BlockId> = match self.neighbor_info(id, dir, side) {
                            NeighborInfo::Boundary => continue,
                            NeighborInfo::Same(n) => vec![n],
                            NeighborInfo::Coarser(n) => vec![n],
                            NeighborInfo::Finer(ns) => ns.to_vec(),
                        };
                        for n in neighbors {
                            let nd = desired.get_mut(&n).expect("neighbor is active");
                            if my_level > *nd + 1 {
                                *nd = my_level - 1;
                                changed = true;
                            }
                        }
                    }
                }
            }
            let mut cancels: Vec<BlockId> = Vec::new();
            for (id, &lvl) in desired.iter() {
                if lvl >= id.level {
                    continue;
                }
                let parent = id.parent().expect("level > 0 since it wants to coarsen");
                let ok = parent
                    .children()
                    .iter()
                    .all(|c| self.blocks.contains_key(c) && desired.get(c) == Some(&parent.level));
                if !ok {
                    cancels.push(*id);
                }
            }
            for id in cancels {
                desired.insert(id, id.level);
                changed = true;
            }
            if !changed {
                break;
            }
        }
        let mut splits = Vec::new();
        for (id, &lvl) in desired.iter() {
            if lvl > id.level {
                splits.push(*id);
            }
        }
        let mut merges = Vec::new();
        let mut seen_parents = BTreeSet::new();
        for (id, &lvl) in desired.iter() {
            if lvl >= id.level {
                continue;
            }
            let parent = id.parent().expect("level > 0 since it wants to coarsen");
            if !seen_parents.insert(parent) {
                continue;
            }
            let ok = parent
                .children()
                .iter()
                .all(|c| self.blocks.contains_key(c) && desired.get(c) == Some(&(parent.level)));
            if ok {
                merges.push(parent);
            }
        }
        RefinePlan { splits, merges }
    }

    fn apply_plan(&mut self, plan: &RefinePlan) {
        for parent in &plan.merges {
            let children = parent.children();
            let owner = self.blocks[&children[0]];
            for c in &children {
                self.blocks.remove(c).expect("merged child was active");
            }
            self.blocks.insert(*parent, owner);
        }
        for id in &plan.splits {
            let owner = self.blocks.remove(id).expect("split block was active");
            for c in id.children() {
                self.blocks.insert(c, owner);
            }
        }
    }

    fn sfc_partition(&self, ranks: usize) -> BTreeMap<BlockId, usize> {
        let mut blocks: Vec<BlockId> = self.blocks.keys().copied().collect();
        blocks.sort_by_key(|b| b.morton_key(&self.params));
        let n = blocks.len();
        let mut out = BTreeMap::new();
        for (i, id) in blocks.into_iter().enumerate() {
            let owner = (i * ranks) / n.max(1);
            out.insert(id, owner.min(ranks - 1));
        }
        out
    }
}

fn arb_params() -> impl Strategy<Value = MeshParams> {
    (
        (1usize..=2, 1usize..=2, 1usize..=2),
        (1usize..=3, 2usize..=3),
    )
        .prop_map(|((npx, npy, npz), (init, num_refine))| MeshParams {
            npx,
            npy,
            npz,
            init_x: init,
            init_y: 2,
            init_z: 1 + init % 2,
            nx: 4,
            ny: 4,
            nz: 4,
            num_vars: 1,
            num_refine: num_refine as u8,
            block_change: 1,
        })
}

fn arb_object() -> impl Strategy<Value = Object> {
    (
        prop_oneof![
            Just(Shape::Rectangle),
            Just(Shape::Spheroid),
            Just(Shape::CylinderY),
            Just(Shape::HemisphereXPlus),
        ],
        any::<bool>(),
        (0.0f64..1.0, 0.0f64..1.0, 0.0f64..1.0),
        0.03f64..0.4,
        (-0.15f64..0.15, -0.15f64..0.15, -0.15f64..0.15),
    )
        .prop_map(|(shape, solid, (cx, cy, cz), r, (vx, vy, vz))| Object {
            shape,
            solid,
            center: [cx, cy, cz],
            size: [r, r * 0.7, r * 1.2],
            move_rate: [vx, vy, vz],
            growth: [0.0; 3],
            bounce: true,
        })
}

fn same_blocks(dir: &MeshDirectory, reference: &Reference) -> bool {
    dir.iter()
        .map(|(id, &owner)| (*id, owner))
        .eq(reference.blocks.iter().map(|(id, &owner)| (*id, owner)))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn fast_paths_equal_the_reference(
        params in arb_params(),
        objects in prop::collection::vec(arb_object(), 1..4),
        rounds in 2usize..7,
        ranks in 1usize..6,
    ) {
        let mut objects = objects;
        let mut dir = MeshDirectory::initial(params.clone());
        let mut reference = Reference::initial(params);
        prop_assert!(same_blocks(&dir, &reference), "initial directories differ");
        for round in 0..rounds {
            let plan = dir.plan_refinement(&objects);
            let expected = reference.plan_refinement(&objects);
            prop_assert_eq!(&plan.splits, &expected.splits, "round {} splits", round);
            prop_assert_eq!(&plan.merges, &expected.merges, "round {} merges", round);
            dir.apply_plan(&plan);
            reference.apply_plan(&expected);
            prop_assert!(same_blocks(&dir, &reference), "round {} directories differ", round);
            for (p, (id, _)) in dir.iter().enumerate() {
                prop_assert_eq!(dir.position(id), Some(p));
            }

            let part = sfc_partition(&dir, ranks);
            prop_assert_eq!(&part, &reference.sfc_partition(ranks), "round {} partition", round);
            for (id, &owner) in &part {
                dir.set_owner(*id, owner);
                reference.blocks.insert(*id, owner);
            }
            prop_assert!(same_blocks(&dir, &reference), "round {} owners differ", round);
            objects.iter_mut().for_each(Object::step);
        }
    }
}
