//! Refinement and load balancing: split/merge jobs plus the ACK-based
//! block exchange protocol of §IV-B.
//!
//! The exchange moves whole blocks between ranks. Per the paper: the
//! source and destination of each block are known beforehand (here: from
//! the replicated directory); the receiver sends an **ACK** indicating
//! whether it has space; on a positive ACK the sender transmits a control
//! message carrying the block identifier (the taskification's extra
//! control message, used to tag the data transfer) and then the block
//! data. Moves NACKed for lack of space retry in a later round; rounds
//! continue until a global reduction reports no pending moves.
//!
//! Control messages always travel on the main thread (to keep their
//! latency low, as the paper does): receives block, sends are posted and
//! waited at the end of the round, so two ranks swapping blocks cannot
//! sit in head-to-head rendezvous sends. The heavy data transfer goes
//! through a [`BlockMover`], which each variant implements — blocking in
//! MPI-only, taskified with data dependencies in the data-flow variant.

use crate::comm_plan::EXCHANGE_TAG_BASE;
use crate::config::BalanceKind;
use crate::rank::RankState;
use amr_mesh::data::{merge_children, split_block, BlockData};
use amr_mesh::directory::{MeshDirectory, RefinePlan};
use amr_mesh::partition;
use amr_mesh::BlockId;
use std::sync::Arc;
use vmpi::Comm;

/// One planned block relocation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Move {
    /// The block whose data moves.
    pub block: BlockId,
    /// Current owner.
    pub from: usize,
    /// New owner.
    pub to: usize,
    /// Global sequence number (tag derivation).
    pub seq: usize,
}

fn ack_tag(seq: usize) -> i32 {
    EXCHANGE_TAG_BASE + (seq as i32) * 3
}
fn ctrl_tag(seq: usize) -> i32 {
    EXCHANGE_TAG_BASE + (seq as i32) * 3 + 1
}
/// Tag of the block-data message of move `seq` (derived from the block
/// identifier the control message carries, as in §IV-B).
pub fn data_tag(seq: usize) -> i32 {
    EXCHANGE_TAG_BASE + (seq as i32) * 3 + 2
}

/// How block data travels: implemented per variant.
pub trait BlockMover {
    /// Ships a local block to `to` (tag from [`data_tag`]). The block has
    /// already been removed from the rank's map; the mover owns the
    /// handle until the transfer completes.
    fn send_block(
        &mut self,
        comm: &Arc<Comm>,
        state: &RankState,
        block: BlockData,
        to: usize,
        tag: i32,
    );
    /// Produces the local [`BlockData`] for a block arriving from `from`.
    /// The data need not have arrived when this returns (task-based
    /// movers fill it in asynchronously under dependency protection).
    fn recv_block(
        &mut self,
        comm: &Arc<Comm>,
        state: &RankState,
        id: BlockId,
        from: usize,
        tag: i32,
    ) -> BlockData;
    /// Blocks until every outstanding transfer issued through this mover
    /// has completed.
    fn finish(&mut self, comm: &Arc<Comm>);
}

/// The baseline mover: eager pack + non-blocking send, blocking receive +
/// immediate unpack.
#[derive(Default)]
pub struct BlockingMover {
    pending_sends: Vec<vmpi::Request>,
}

impl BlockMover for BlockingMover {
    fn send_block(
        &mut self,
        comm: &Arc<Comm>,
        state: &RankState,
        block: BlockData,
        to: usize,
        tag: i32,
    ) {
        // Stage through the rank's buffer pool: `isend` snapshots the
        // payload, so the pooled buffer recycles immediately.
        let nv = state.cfg.params.num_vars;
        let mut payload = state.pool.take(nv * state.layout.cells());
        block.pack_interior_into(&state.layout, 0..nv, &mut payload);
        self.pending_sends
            .push(comm.isend(&payload, to, tag).expect("send block"));
    }

    fn recv_block(
        &mut self,
        comm: &Arc<Comm>,
        state: &RankState,
        id: BlockId,
        from: usize,
        tag: i32,
    ) -> BlockData {
        let (payload, _) = comm.recv::<f64>(from as i32, tag).expect("recv block");
        let block = BlockData::empty(id, &state.cfg.params);
        block.unpack_interior(&state.layout, 0..state.cfg.params.num_vars, &payload);
        block
    }

    fn finish(&mut self, _comm: &Arc<Comm>) {
        for r in self.pending_sends.drain(..) {
            r.wait();
        }
    }
}

/// Executes the exchange protocol for a global move list. Returns the
/// number of moves involving this rank. `state.blocks` is updated; the
/// directory owners are **not** (callers update them from the same global
/// list so every rank stays consistent).
pub fn exchange_blocks(
    state: &mut RankState,
    comm: &Arc<Comm>,
    moves: &[Move],
    mover: &mut dyn BlockMover,
) -> u64 {
    // `moves` is the same deterministic list on every rank, so all ranks
    // agree on whether the protocol (and its round reductions) runs at
    // all. Each rank then only tracks the moves it participates in, but
    // every rank joins every round's reduction.
    if moves.iter().all(|m| m.from == m.to) {
        return 0;
    }
    let mut remaining: Vec<Move> = moves
        .iter()
        .copied()
        .filter(|m| m.from != m.to && (m.from == state.rank || m.to == state.rank))
        .collect();
    let mut touched = 0u64;
    let mut rounds = 0usize;
    loop {
        rounds += 1;
        assert!(
            rounds < 1000,
            "block exchange did not converge (capacity livelock?)"
        );

        // Phase A: receivers decide capacity and send ACKs. Blocks this
        // rank is *sending away* this same round count as free capacity:
        // without that credit, two exactly-full ranks swapping blocks
        // NACK each other forever (each waits for the other to make
        // room) and the round assert above fires. The credit can
        // transiently overshoot — an outgoing move a peer NACKs doesn't
        // actually leave — but the overshoot is bounded by the rank's
        // outgoing moves and drains as the swap completes, which is what
        // guarantees progress.
        let outgoing = remaining.iter().filter(|m| m.from == state.rank).count();
        let mut decisions: Vec<Option<bool>> = vec![None; remaining.len()];
        let mut ctrl_sends = Vec::new();
        let mut accepted = 0usize;
        for (i, m) in remaining.iter().enumerate() {
            if m.to == state.rank {
                let ok =
                    state.blocks.len() + accepted < state.cfg.max_blocks.saturating_add(outgoing);
                if ok {
                    accepted += 1;
                }
                decisions[i] = Some(ok);
                ctrl_sends.push(
                    comm.isend(&[ok as u8], m.from, ack_tag(m.seq))
                        .expect("send ack"),
                );
            }
        }

        // Phase B: senders read ACKs and ship accepted blocks.
        let mut next_remaining = Vec::new();
        for m in remaining.iter() {
            if m.from == state.rank {
                let (ack, _) = comm
                    .recv::<u8>(m.to as i32, ack_tag(m.seq))
                    .expect("recv ack");
                if ack[0] == 1 {
                    // Control message: the block identifier, used by both
                    // sides to tag the data exchange.
                    // Posted, not blocking: when two ranks swap blocks in
                    // one round both are here while the matching receive
                    // is in the peer's phase C, so a blocking rendezvous
                    // send (any eager limit under 16 bytes) deadlocks.
                    let idmsg = [m.block.level as u32, m.block.x, m.block.y, m.block.z];
                    ctrl_sends.push(
                        comm.isend(&idmsg, m.to, ctrl_tag(m.seq))
                            .expect("send ctrl"),
                    );
                    let block = state.blocks.remove(&m.block).unwrap_or_else(|| {
                        panic!("rank {} sending unowned {:?}", state.rank, m.block)
                    });
                    mover.send_block(comm, state, block, m.to, data_tag(m.seq));
                    touched += 1;
                } else {
                    next_remaining.push(*m);
                }
            }
        }

        // Phase C: receivers consume accepted blocks.
        for (i, m) in remaining.iter().enumerate() {
            if m.to == state.rank {
                if decisions[i] == Some(true) {
                    let (idmsg, _) = comm
                        .recv::<u32>(m.from as i32, ctrl_tag(m.seq))
                        .expect("recv ctrl");
                    let id = BlockId::new(idmsg[0] as u8, idmsg[1], idmsg[2], idmsg[3]);
                    assert_eq!(id, m.block, "control message names an unexpected block");
                    let block = mover.recv_block(comm, state, id, m.from, data_tag(m.seq));
                    state.blocks.insert(id, block);
                    touched += 1;
                } else {
                    next_remaining.push(*m);
                }
            }
        }

        for s in ctrl_sends {
            s.wait();
        }
        mover.finish(comm);

        // Global agreement on pending moves (counted once, on the
        // receiver side).
        let my_pending = next_remaining.iter().filter(|m| m.to == state.rank).count() as i64;
        let total = comm
            .allreduce_scalar(my_pending, vmpi::ReduceOp::Sum)
            .expect("exchange reduction");
        remaining = next_remaining;
        if total == 0 {
            break;
        }
    }
    touched
}

/// A split or merge data job; executing it yields the new block(s).
pub enum RefineJob {
    /// Split this parent into eight children.
    Split(BlockData),
    /// Merge these eight children (octant order) into their parent.
    Merge(Vec<BlockData>),
}

impl RefineJob {
    /// Runs the data operation.
    pub fn run(&self, state_params: &amr_mesh::MeshParams) -> Vec<BlockData> {
        match self {
            RefineJob::Split(parent) => split_block(parent, state_params),
            RefineJob::Merge(children) => vec![merge_children(children, state_params)],
        }
    }
}

/// Collects this rank's split/merge jobs for a plan. Merge jobs require
/// the gathering moves to have completed (all children local).
pub fn local_refine_jobs(state: &RankState, plan: &RefinePlan) -> Vec<RefineJob> {
    let mut jobs = Vec::new();
    for parent in &plan.merges {
        let children = parent.children();
        if state.dir.owner(&children[0]) == Some(state.rank) {
            let data: Vec<BlockData> = children.iter().map(|c| state.block(c).clone()).collect();
            jobs.push(RefineJob::Merge(data));
        }
    }
    for id in &plan.splits {
        if state.dir.owner(id) == Some(state.rank) {
            jobs.push(RefineJob::Split(state.block(id).clone()));
        }
    }
    jobs
}

/// Applies job results: removes consumed blocks, inserts produced ones.
pub fn apply_refine_results(state: &mut RankState, plan: &RefinePlan, results: Vec<BlockData>) {
    for parent in &plan.merges {
        if state.dir.owner(&parent.children()[0]) == Some(state.rank) {
            for c in parent.children() {
                state.blocks.remove(&c);
            }
        }
    }
    for id in &plan.splits {
        if state.dir.owner(id) == Some(state.rank) {
            state.blocks.remove(id);
        }
    }
    for b in results {
        state.blocks.insert(b.id, b);
    }
}

/// The moves that gather merge octets onto the first child's owner.
/// Directory-level and deterministic: the live refinement and the static
/// verifier's mesh-epoch evolution (`staticcheck`) both call this.
pub fn merge_gather_moves(dir: &MeshDirectory, plan: &RefinePlan, seq_base: usize) -> Vec<Move> {
    let mut moves = Vec::new();
    let mut seq = seq_base;
    for parent in &plan.merges {
        let children = parent.children();
        let target = dir.owner(&children[0]).expect("merge child active");
        for c in &children[1..] {
            let from = dir.owner(c).expect("merge child active");
            if from != target {
                moves.push(Move {
                    block: *c,
                    from,
                    to: target,
                    seq,
                });
                seq += 1;
            }
        }
    }
    moves
}

/// The moves realizing a load-balance partition. Directory-level and
/// deterministic, like [`merge_gather_moves`].
pub fn balance_moves(
    dir: &MeshDirectory,
    balance: BalanceKind,
    n_ranks: usize,
    seq_base: usize,
) -> Vec<Move> {
    let assignment = match balance {
        BalanceKind::Sfc => partition::sfc_partition(dir, n_ranks),
        BalanceKind::Rcb => partition::rcb_partition(dir, n_ranks),
        BalanceKind::None => return Vec::new(),
    };
    let mut moves = Vec::new();
    let mut seq = seq_base;
    for (id, &new_owner) in assignment.iter() {
        let cur = dir.owner(id).expect("assignment covers active blocks");
        if cur != new_owner {
            moves.push(Move {
                block: *id,
                from: cur,
                to: new_owner,
                seq,
            });
            seq += 1;
        }
    }
    moves
}

/// Runs one full refinement phase: repeated ±1-level plans (up to
/// `block_change`), merge gathering, split/merge data ops through
/// `run_jobs`, then load balancing. Returns blocks moved by this rank.
pub fn run_refinement(
    state: &mut RankState,
    comm: &Arc<Comm>,
    mover: &mut dyn BlockMover,
    run_jobs: &mut dyn FnMut(&RankState, Vec<RefineJob>) -> Vec<BlockData>,
) -> u64 {
    let mut moved = 0u64;
    for _ in 0..state.cfg.params.block_change.max(1) {
        let plan = state.dir.plan_refinement(&state.objects);
        // All ranks compute the same plan; an empty plan ends the loop on
        // every rank simultaneously — no reduction needed.
        if plan.is_empty() {
            break;
        }
        let gathers = merge_gather_moves(&state.dir, &plan, 0);
        moved += exchange_blocks(state, comm, &gathers, mover);
        for m in &gathers {
            state.dir.set_owner(m.block, m.to);
        }
        let jobs = local_refine_jobs(state, &plan);
        let results = run_jobs(state, jobs);
        apply_refine_results(state, &plan, results);
        state.dir.apply_plan(&plan);
    }

    let moves = balance_moves(&state.dir, state.cfg.balance, state.n_ranks, 0);
    moved += exchange_blocks(state, comm, &moves, mover);
    for m in &moves {
        state.dir.set_owner(m.block, m.to);
    }
    debug_assert_eq!(
        state.dir.blocks_of(state.rank).len(),
        state.blocks.len(),
        "directory and local data disagree after refinement"
    );
    moved
}
