//! Focused tests of the §IV-B block-exchange protocol: move planning,
//! the capacity credit of outgoing blocks, and the directory/data
//! consistency contract.

use amr_mesh::MeshParams;
use miniamr::exchange::{balance_moves, exchange_blocks, merge_gather_moves, BlockingMover, Move};
use miniamr::rank::RankState;
use miniamr::Config;
use std::sync::Arc;
use vmpi::{NetworkModel, World};

fn two_rank_cfg() -> Config {
    let params = MeshParams {
        npx: 2,
        npy: 1,
        npz: 1,
        init_x: 2,
        init_y: 2,
        init_z: 2,
        nx: 4,
        ny: 4,
        nz: 4,
        num_vars: 2,
        num_refine: 1,
        block_change: 1,
    };
    let mut cfg = Config::new(params);
    cfg.objects = vec![amr_mesh::Object::sphere([0.3, 0.5, 0.5], 0.2, [0.0; 3])];
    cfg
}

/// Moving every block of rank 0 to rank 1 through the protocol preserves
/// the data bit-for-bit.
#[test]
fn full_migration_preserves_data() {
    let cfg = two_rank_cfg();
    let world = World::new(2, NetworkModel::cluster());
    world.run(|comm| {
        let comm = Arc::new(comm);
        let mut state = RankState::init(&cfg, comm.rank(), 2);
        let nv = cfg.params.num_vars;
        // Fingerprint rank 0's blocks before the move.
        let fingerprints: Vec<(amr_mesh::BlockId, Vec<f64>)> = state
            .dir
            .blocks_of(0)
            .iter()
            .filter(|id| state.dir.owner(id) == Some(0))
            .map(|id| {
                if comm.rank() == 0 {
                    (*id, state.block(id).pack_interior(&state.layout, 0..nv))
                } else {
                    (*id, Vec::new())
                }
            })
            .collect();
        let moves: Vec<Move> = state
            .dir
            .blocks_of(0)
            .into_iter()
            .enumerate()
            .map(|(seq, block)| Move {
                block,
                from: 0,
                to: 1,
                seq,
            })
            .collect();
        let mut mover = BlockingMover::default();
        let touched = exchange_blocks(&mut state, &comm, &moves, &mut mover);
        for m in &moves {
            state.dir.set_owner(m.block, m.to);
        }
        if comm.rank() == 0 {
            assert_eq!(touched as usize, moves.len());
            assert!(state.blocks.is_empty(), "sender kept blocks");
        } else {
            assert_eq!(state.blocks.len(), state.dir.len());
        }
        // Cross-rank verification: rank 0 sends fingerprints, rank 1
        // compares.
        if comm.rank() == 0 {
            for (id, data) in &fingerprints {
                let header = [id.level as u32, id.x, id.y, id.z];
                comm.send(&header, 1, 200).unwrap();
                comm.send(data.as_slice(), 1, 201).unwrap();
            }
        } else {
            for _ in 0..fingerprints.len() {
                let (h, _) = comm.recv::<u32>(0, 200).unwrap();
                let id = amr_mesh::BlockId::new(h[0] as u8, h[1], h[2], h[3]);
                let (want, _) = comm.recv::<f64>(0, 201).unwrap();
                let got = state.block(&id).pack_interior(&state.layout, 0..nv);
                assert_eq!(got, want, "block {id:?} corrupted in transit");
            }
        }
    });
}

/// A tight capacity: each rank has room for one block beyond its current
/// count, and its own outgoing blocks free the rest, so a 3-for-3 swap
/// completes in the one round.
#[test]
fn tight_capacity_swap_completes_in_one_round() {
    let cfg = two_rank_cfg();
    let world = World::new(2, NetworkModel::instant());
    world.run(|comm| {
        let comm = Arc::new(comm);
        let mut state = RankState::init(&cfg, comm.rank(), 2);
        let own0 = state.dir.blocks_of(0);
        let own1 = state.dir.blocks_of(1);
        let mut moves: Vec<Move> = own0
            .into_iter()
            .take(3)
            .enumerate()
            .map(|(seq, block)| Move {
                block,
                from: 0,
                to: 1,
                seq,
            })
            .collect();
        let base = moves.len();
        moves.extend(own1.into_iter().take(3).enumerate().map(|(i, block)| Move {
            block,
            from: 1,
            to: 0,
            seq: base + i,
        }));
        // One block of headroom per round.
        state.cfg.max_blocks = state.blocks.len() + 1;
        let mut mover = BlockingMover::default();
        let touched = exchange_blocks(&mut state, &comm, &moves, &mut mover);
        assert_eq!(touched, 6, "rank {} exchanged {touched}/6", comm.rank());
        for m in &moves {
            state.dir.set_owner(m.block, m.to);
        }
        assert_eq!(state.blocks.len(), state.dir.blocks_of(comm.rank()).len());
    });
}

/// Regression: two *exactly full* ranks swapping blocks must converge.
/// With zero headroom (`max_blocks == blocks.len()`) the old phase-A
/// check `blocks.len() + accepted < max_blocks` ignored blocks leaving
/// the rank the same round, so both sides NACKed each other forever.
/// Crediting the outgoing moves lets the swap complete in one round.
///
/// The second network makes every message a rendezvous (`--eager_kb 0`):
/// both ranks are senders and receivers in the same round, so a blocking
/// send of the block-id control message sat head-to-head with the peer's
/// and the run hung (each matching receive is in the peer's phase C).
#[test]
fn exactly_full_ranks_swap_converges() {
    let all_rendezvous = NetworkModel::instant().with_eager_threshold(0);
    for net in [NetworkModel::instant(), all_rendezvous] {
        exactly_full_swap_on(net);
    }
}

fn exactly_full_swap_on(net: NetworkModel) {
    let cfg = two_rank_cfg();
    let world = World::new(2, net);
    world.run(|comm| {
        let comm = Arc::new(comm);
        let mut state = RankState::init(&cfg, comm.rank(), 2);
        let own0 = state.dir.blocks_of(0);
        let own1 = state.dir.blocks_of(1);
        let n = own0.len().min(own1.len()).min(3);
        assert!(n > 0, "fixture must give both ranks blocks");
        let mut moves: Vec<Move> = own0
            .into_iter()
            .take(n)
            .enumerate()
            .map(|(seq, block)| Move {
                block,
                from: 0,
                to: 1,
                seq,
            })
            .collect();
        moves.extend(own1.into_iter().take(n).enumerate().map(|(i, block)| Move {
            block,
            from: 1,
            to: 0,
            seq: n + i,
        }));
        // No headroom at all: capacity exists only because outgoing
        // blocks are credited.
        state.cfg.max_blocks = state.blocks.len();
        let mut mover = BlockingMover::default();
        let touched = exchange_blocks(&mut state, &comm, &moves, &mut mover);
        assert_eq!(
            touched,
            2 * n as u64,
            "rank {} exchanged {touched}/{}",
            comm.rank(),
            2 * n
        );
        for m in &moves {
            state.dir.set_owner(m.block, m.to);
        }
        assert_eq!(state.blocks.len(), state.dir.blocks_of(comm.rank()).len());
        assert!(state.blocks.len() <= state.cfg.max_blocks);
    });
}

/// Merge gathering targets the first child's owner; balance moves follow
/// the SFC partition exactly.
#[test]
fn move_planning_is_consistent() {
    let cfg = two_rank_cfg();
    let world = World::new(2, NetworkModel::instant());
    world.run(|comm| {
        let mut state = RankState::init(&cfg, comm.rank(), 2);
        // Let the object leave so a coarsening plan appears.
        for o in state.objects.iter_mut() {
            *o = amr_mesh::Object::sphere([5.0, 5.0, 5.0], 0.1, [0.0; 3]);
        }
        let plan = state.dir.plan_refinement(&state.objects);
        let gathers = merge_gather_moves(&state.dir, &plan, 0);
        for m in &gathers {
            let first_child_owner = state
                .dir
                .owner(&m.block.parent().unwrap().children()[0])
                .unwrap();
            assert_eq!(m.to, first_child_owner);
            assert_ne!(m.from, m.to);
        }
        // Balance moves target the SFC partition.
        let moves = balance_moves(&state.dir, state.cfg.balance, state.n_ranks, 0);
        let part = amr_mesh::partition::sfc_partition(&state.dir, 2);
        for m in &moves {
            assert_eq!(part[&m.block], m.to);
            assert_eq!(state.dir.owner(&m.block), Some(m.from));
        }
        // Sequence numbers are unique (tag safety).
        let mut seqs: Vec<usize> = moves.iter().map(|m| m.seq).collect();
        seqs.sort_unstable();
        seqs.dedup();
        assert_eq!(seqs.len(), moves.len());
    });
}
