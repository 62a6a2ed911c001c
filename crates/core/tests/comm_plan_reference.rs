//! `CommPlan::build` takes each neighbour's owner and position from a
//! table in directory order, found through the directory's index; the
//! reference below is the build it replaced, which looked them up in a
//! `BTreeMap` made per build. On the meshes of random objects over
//! several plan, apply and balance rounds, under every message shape,
//! the two plans must be equal: messages, local copies, boundary fills,
//! every (rank, direction) run and every buffer size.

use amr_mesh::block_id::{Dir, Side};
use amr_mesh::data::BlockLayout;
use amr_mesh::partition::sfc_partition;
use amr_mesh::{face, BlockId, MeshDirectory, NeighborInfo, Object};
use miniamr::comm_plan::DIR_TAG_SPACE;
use miniamr::comm_plan::{BoundaryFill, CommPlan, FaceTransfer, MsgPlan, TransferKind};
use miniamr::Config;
use proptest::prelude::*;
use std::collections::BTreeMap;

/// What the reference build produces: `CommPlan`'s public parts, with
/// the (rank, direction) runs as index ranges.
#[derive(Debug, PartialEq)]
struct Plan {
    msgs: Vec<MsgPlan>,
    locals: Vec<FaceTransfer>,
    boundaries: Vec<BoundaryFill>,
    local_runs: Vec<std::ops::Range<usize>>,
    boundary_runs: Vec<std::ops::Range<usize>>,
    send_elems: Vec<[usize; 3]>,
    recv_elems: Vec<[usize; 3]>,
}

fn of_comm_plan(plan: CommPlan, n_ranks: usize) -> Plan {
    let runs = |f: &dyn Fn(usize, Dir) -> std::ops::Range<usize>| {
        (0..n_ranks)
            .flat_map(|r| Dir::ALL.map(|d| f(r, d)))
            .collect()
    };
    Plan {
        local_runs: runs(&|r, d| plan.locals_of(r, d)),
        boundary_runs: runs(&|r, d| plan.boundaries_of(r, d)),
        msgs: plan.msgs,
        locals: plan.locals,
        boundaries: plan.boundaries,
        send_elems: plan.send_elems,
        recv_elems: plan.recv_elems,
    }
}

fn reference_build(cfg: &Config, dir_map: &MeshDirectory, n_ranks: usize) -> Plan {
    let layout = BlockLayout::of(&cfg.params);
    let mut msgs = Vec::new();
    let (mut locals, mut boundaries) = (Vec::new(), Vec::new());
    let (mut local_ends, mut boundary_ends) = (Vec::new(), Vec::new());
    let mut send_elems = vec![[0; 3]; n_ranks];
    let mut recv_elems = vec![[0; 3]; n_ranks];

    let mut owned: Vec<Vec<BlockId>> = vec![Vec::new(); n_ranks];
    let home: BTreeMap<BlockId, (usize, usize)> = dir_map
        .iter()
        .map(|(id, &owner)| {
            owned[owner].push(*id);
            (*id, (owner, owned[owner].len() - 1))
        })
        .collect();

    let mut groups: BTreeMap<(usize, usize, usize), Vec<FaceTransfer>> = BTreeMap::new();
    for (owner, blocks) in owned.iter().enumerate() {
        for dir in Dir::ALL {
            let d = dir.index();
            let (n1, n2) = face::face_dims(&layout, dir);
            for (pos, block) in blocks.iter().enumerate() {
                for side in Side::BOTH {
                    let mut push = |nb: BlockId, kind: TransferKind, elems_per_var: usize| {
                        let (src_rank, src_pos) = home[&nb];
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
                            locals.push(t);
                        } else {
                            groups.entry((src_rank, owner, d)).or_default().push(t);
                        }
                    };
                    match dir_map.neighbor_info(block, dir, side) {
                        NeighborInfo::Boundary => boundaries.push(BoundaryFill {
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
            local_ends.push(locals.len());
            boundary_ends.push(boundaries.len());
        }
    }

    let mut tag_seq = [0i32; 3];
    for ((src, dst, d), transfers) in groups {
        let dir = Dir::ALL[d];
        let n = transfers.len();
        let group_elems: usize = transfers.iter().map(|t| t.elems_per_var).sum();
        let group_bytes = group_elems * cfg.params.num_vars * std::mem::size_of::<f64>();
        let coalesced = cfg.coalesce && !cfg.same_node(src, dst) && group_bytes > cfg.eager_bytes;
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
            let send_offset = send_elems[src][d];
            let recv_offset = recv_elems[dst][d];
            send_elems[src][d] += offset;
            recv_elems[dst][d] += offset;
            msgs.push(MsgPlan {
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
    let runs = |ends: &[usize]| -> Vec<std::ops::Range<usize>> {
        (0..ends.len())
            .map(|i| if i == 0 { 0 } else { ends[i - 1] }..ends[i])
            .collect()
    };
    Plan {
        msgs,
        locals,
        boundaries,
        local_runs: runs(&local_ends),
        boundary_runs: runs(&boundary_ends),
        send_elems,
        recv_elems,
    }
}

fn arb_object() -> impl Strategy<Value = Object> {
    (
        (0.0f64..1.0, 0.0f64..1.0, 0.0f64..1.0),
        0.05f64..0.35,
        (-0.12f64..0.12, -0.12f64..0.12, -0.12f64..0.12),
    )
        .prop_map(|(c, r, v)| Object::sphere([c.0, c.1, c.2], r, [v.0, v.1, v.2]))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn indexed_build_equals_the_reference(
        objects in prop::collection::vec(arb_object(), 1..3),
        npx in 1usize..4,
        shape in 0usize..4,
        rounds in 1usize..4,
    ) {
        let mut cfg = Config::smoke_test();
        (cfg.params.npx, cfg.params.num_refine) = (npx, 2);
        (cfg.send_faces, cfg.max_comm_tasks) = [(false, 0), (true, 0), (true, 2), (true, 3)][shape];
        // Coalescing every inter-node group of a one-rank-a-node layout.
        (cfg.coalesce, cfg.ranks_per_node, cfg.eager_bytes) = (shape == 3, 1, 0);
        let n = cfg.params.num_ranks();
        let mut objects = objects;
        let mut dir = MeshDirectory::initial(cfg.params.clone());
        for round in 0..rounds {
            dir.apply_plan(&dir.plan_refinement(&objects));
            for (id, owner) in sfc_partition(&dir, n) {
                dir.set_owner(id, owner);
            }
            let plan = of_comm_plan(CommPlan::build(&cfg, &dir, n), n);
            prop_assert_eq!(plan, reference_build(&cfg, &dir, n), "round {}", round);
            objects.iter_mut().for_each(Object::step);
        }
    }
}
