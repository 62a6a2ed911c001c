//! Refinement and load balancing: split/merge jobs plus the ACK-based
//! block exchange protocol of §IV-B.
//!
//! The exchange moves whole blocks between ranks. Per the paper: the
//! source and destination of each block are known beforehand (here: from
//! the replicated directory); the receiver sends an **ACK** indicating
//! whether it has space; on a positive ACK the sender transmits a control
//! message carrying the block identifier (the taskification's extra
//! control message, used to tag the data transfer) and then the block
//! data; a global reduction closes the exchange. The regrid refuses a
//! move list that would leave a rank over `--max_blocks` before the
//! exchange starts, so every ACK is positive and one round moves every
//! block.
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
use crate::skeleton::{RegridHooks, Walk};
use crate::RunError;
use amr_mesh::data::{merge_children, split_block, BlockData};
use amr_mesh::directory::{MeshDirectory, RefinePlan};
use amr_mesh::partition;
use amr_mesh::{BlockId, Object};
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

/// Executes the exchange protocol for a global move list, in one round.
/// Returns the number of moves involving this rank. `state.blocks` is
/// updated; the directory owners are **not** (callers update them from the
/// same global list so every rank stays consistent).
///
/// # Panics
///
/// - On a failed transport call (here or in [`BlockingMover`]): the
///   designed unwind of a poisoned or lost-peer world, which
///   `elastic::run_segment`'s `catch_unwind` turns into a
///   [`crate::RunError`].
/// - If a move sends a block this rank does not hold, or a control
///   message names another block: a directory invariant, since every
///   rank plans from the same replicated directory.
/// - On a NACK, on both ends: a receiver refuses a block only when the
///   moves leave it over `max_blocks`, and [`LiveRegrid`] stops such a
///   run with [`RunError::OverCapacity`] before it calls this.
pub fn exchange_blocks(
    state: &mut RankState,
    comm: &Arc<Comm>,
    moves: &[Move],
    mover: &mut dyn BlockMover,
) -> u64 {
    // `moves` is the same deterministic list on every rank, so all ranks
    // agree on whether the protocol (and its closing reduction) runs at
    // all. Each rank then only handles the moves it participates in, but
    // every rank joins the reduction.
    if moves.iter().all(|m| m.from == m.to) {
        return 0;
    }
    let mine = moves
        .iter()
        .filter(|m| m.from != m.to && (m.from == state.rank || m.to == state.rank));
    let incoming: Vec<&Move> = mine.clone().filter(|m| m.to == state.rank).collect();
    let outgoing: Vec<&Move> = mine.filter(|m| m.from == state.rank).collect();
    let mut touched = 0u64;

    // Phase A: receivers decide capacity and send ACKs. Blocks this rank
    // is *sending away* count as free capacity: without that credit, two
    // exactly-full ranks swapping blocks would refuse each other.
    let room =
        (state.cfg.max_blocks.saturating_add(outgoing.len())).saturating_sub(state.blocks.len());
    let mut ctrl_sends = Vec::new();
    for (i, m) in incoming.iter().enumerate() {
        let ok = i < room;
        ctrl_sends.push(
            comm.isend(&[ok as u8], m.from, ack_tag(m.seq))
                .expect("send ack"),
        );
    }
    assert!(
        incoming.len() <= room,
        "rank {} cannot take {} blocks over --max_blocks {}",
        state.rank,
        incoming.len(),
        state.cfg.max_blocks
    );

    // Phase B: senders read ACKs and ship the blocks.
    for m in &outgoing {
        let (ack, _) = comm
            .recv::<u8>(m.to as i32, ack_tag(m.seq))
            .expect("recv ack");
        assert_eq!(ack[0], 1, "rank {} refused {:?}", m.to, m.block);
        // Control message: the block identifier, used by both sides to
        // tag the data exchange. Posted, not blocking: when two ranks swap
        // blocks both are here while the matching receive is in the
        // peer's phase C, so a blocking rendezvous send (any eager limit
        // under 16 bytes) deadlocks.
        let idmsg = [m.block.level as u32, m.block.x, m.block.y, m.block.z];
        ctrl_sends.push(
            comm.isend(&idmsg, m.to, ctrl_tag(m.seq))
                .expect("send ctrl"),
        );
        let block = (state.blocks.remove(&m.block))
            .unwrap_or_else(|| panic!("rank {} sending unowned {:?}", state.rank, m.block));
        mover.send_block(comm, state, block, m.to, data_tag(m.seq));
        touched += 1;
    }

    // Phase C: receivers consume the blocks.
    for m in &incoming {
        let (idmsg, _) = comm
            .recv::<u32>(m.from as i32, ctrl_tag(m.seq))
            .expect("recv ctrl");
        let id = BlockId::new(idmsg[0] as u8, idmsg[1], idmsg[2], idmsg[3]);
        assert_eq!(id, m.block, "control message names an unexpected block");
        let block = mover.recv_block(comm, state, id, m.from, data_tag(m.seq));
        state.blocks.insert(id, block);
        touched += 1;
    }

    for s in ctrl_sends {
        s.wait();
    }
    mover.finish(comm);

    // Global agreement that no move is pending, as the protocol ends its
    // rounds; after one round there is none.
    comm.allreduce_scalar(0i64, vmpi::ReduceOp::Sum)
        .expect("exchange reduction");
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

/// How a variant runs split/merge jobs: the produced blocks, in id order.
pub type RunJobs<'a> = dyn FnMut(&RankState, Vec<RefineJob>) -> Vec<BlockData> + 'a;

/// Runs split/merge jobs one after the other on the calling thread,
/// dropping each job (and its sources) once it has run.
pub fn run_jobs_serially(state: &RankState, jobs: Vec<RefineJob>) -> Vec<BlockData> {
    jobs.into_iter()
        .flat_map(|j| j.run(&state.cfg.params))
        .collect()
}

/// The moves that gather merge octets onto the first child's owner.
/// Directory-level and deterministic: [`crate::skeleton::Walk`] calls it
/// for every caller of the regrid walk.
///
/// # Panics
///
/// If a child of a planned merge is not active. A directory invariant:
/// `plan_refinement` only merges complete octets of active blocks.
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
///
/// # Panics
///
/// If the partition assigns a block that is not active. A directory
/// invariant: the partitioners assign exactly the active blocks.
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

/// The live regrid's hooks: the block exchange at each move list, the
/// split/merge data ops at each plan (the `regrid_exchange` and
/// `regrid_jobs` phases). The initial refinement runs them
/// without a world (`exchange` is `None`): a uniform mesh only refines,
/// so it moves no block.
pub(crate) struct LiveRegrid<'a, 'b> {
    pub state: &'a mut RankState,
    pub exchange: Option<(&'a Arc<Comm>, &'a mut dyn BlockMover)>,
    pub run_jobs: &'a mut RunJobs<'b>,
    pub moved: u64,
}

impl RegridHooks for LiveRegrid<'_, '_> {
    fn mesh(&mut self) -> (&mut MeshDirectory, &[Object]) {
        (&mut self.state.dir, &self.state.objects)
    }

    /// Exchanges the blocks of `moves`, unless they would leave a rank over
    /// `--max_blocks`: then every rank, planning from the same directory,
    /// moves and cap, unwinds before the first round with the
    /// [`RunError::OverCapacity`] that `elastic::run_segment` returns.
    ///
    /// # Panics
    ///
    /// If the initial refinement (no world) is handed a move: a uniform
    /// mesh only refines.
    fn moves(&mut self, moves: &[Move]) {
        let Some((comm, mover)) = &mut self.exchange else {
            assert!(moves.is_empty(), "no world to move blocks in");
            return;
        };
        if let Some(err) = over_capacity(self.state, moves) {
            std::panic::resume_unwind(Box::new(err));
        }
        self.moved += obs::phase_span("regrid_exchange", || {
            exchange_blocks(self.state, comm, moves, *mover)
        });
    }

    /// Runs this rank's split/merge jobs through `run_jobs`. Their sources
    /// leave `state.blocks` first, so a job frees them once it has run;
    /// the gathering moves made every merge octet local.
    fn plan(&mut self, plan: &RefinePlan) {
        let state = &mut *self.state;
        let (mut jobs, mut consumed) = (Vec::new(), Vec::new());
        let mine = |id: &BlockId| state.dir.owner(id) == Some(state.rank);
        for children in plan.merges.iter().map(BlockId::children) {
            if mine(&children[0]) {
                let data = children.iter().map(|c| state.block(c).clone()).collect();
                jobs.push(RefineJob::Merge(data));
                consumed.extend(children);
            }
        }
        for id in plan.splits.iter().filter(|id| mine(id)) {
            jobs.push(RefineJob::Split(state.block(id).clone()));
            consumed.push(*id);
        }
        for id in &consumed {
            state.blocks.remove(id);
        }
        let results = obs::phase_span("regrid_jobs", || (self.run_jobs)(state, jobs));
        state.blocks.extend(results.into_iter().map(|b| (b.id, b)));
    }
}

/// The first receiver of `moves` that would end them over `max_blocks`.
fn over_capacity(state: &RankState, moves: &[Move]) -> Option<RunError> {
    let mut held = vec![0usize; state.n_ranks];
    for (_, &owner) in state.dir.iter() {
        held[owner] += 1;
    }
    let moved = moves.iter().filter(|m| m.from != m.to);
    for m in moved.clone() {
        held[m.from] -= 1;
        held[m.to] += 1;
    }
    let max_blocks = state.cfg.max_blocks;
    let rank = moved.map(|m| m.to).find(|&r| held[r] > max_blocks)?;
    Some(RunError::OverCapacity {
        rank,
        blocks: held[rank],
        max_blocks,
    })
}

/// Runs one full refinement phase: the [`Walk::regrid`] walk with the
/// [`LiveRegrid`] hooks, `run_jobs` running the split/merge jobs.
/// Returns blocks moved by this rank.
///
/// # Panics
///
/// As [`exchange_blocks`] does; a move list over `--max_blocks` unwinds
/// with a [`RunError::OverCapacity`] payload instead.
pub fn run_refinement(
    state: &mut RankState,
    comm: &Arc<Comm>,
    mover: &mut dyn BlockMover,
    run_jobs: &mut RunJobs<'_>,
) -> u64 {
    let walk = Walk::regrid(&state.cfg, state.n_ranks);
    let mut live = LiveRegrid {
        state,
        exchange: Some((comm, mover)),
        run_jobs,
        moved: 0,
    };
    walk.run(&mut live);
    debug_assert_eq!(
        live.state.dir.blocks_of(live.state.rank).len(),
        live.state.blocks.len(),
        "directory and local data disagree after refinement"
    );
    live.moved
}
