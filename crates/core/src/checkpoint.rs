//! Per-rank in-memory checkpoints: the graceful-degradation half of the
//! chaos story.
//!
//! Every `--ckpt_freq` stages each rank snapshots its recoverable state —
//! the replicated directory, the object positions, and the full cell data
//! of every locally-owned block — into its run's [`CheckpointStore`],
//! fingerprinted with a deterministic digest. When the reliability layer
//! declares a peer unrecoverable (retry budget exhausted on a crashed
//! rank) and the world has unwound, the driver ([`crate::elastic::run`])
//! restores the reporting rank's state from its latest checkpoint,
//! re-verifies the digest, and puts the outcome into the
//! [`crate::RunError::PeerLost`] it returns.
//!
//! Checkpoints are pure reads of rank state: taking one cannot perturb
//! the numerics, so the cross-variant bitwise-equivalence guarantee is
//! unaffected by any `--ckpt_freq` setting.

use crate::config::{BalanceKind, Config};
use crate::rank::RankState;
use crate::RunError;
use amr_mesh::data::BlockData;
use amr_mesh::{partition, BlockId, MeshDirectory, Object};
use parking_lot::Mutex;
use std::collections::{BTreeMap, HashMap};
use std::sync::{Arc, OnceLock};

/// A deep snapshot of everything a rank needs to resume computation.
pub struct RankCheckpoint {
    /// Rank the snapshot belongs to.
    pub rank: usize,
    /// World size the snapshot was taken under (may differ from the
    /// `npx*npy*npz` rank grid after an elastic resize).
    pub n_ranks: usize,
    /// Timestep the snapshot was taken in.
    pub tstep: usize,
    /// Global stage counter at snapshot time.
    pub stage: usize,
    /// Mesh epoch (refinement counter) at snapshot time.
    pub mesh_epoch: u64,
    /// Deterministic fingerprint of the snapshot's cell data; restore
    /// re-derives it to prove integrity.
    pub digest: u64,
    cfg: Config,
    dir: MeshDirectory,
    objects: Vec<Object>,
    /// Full (ghosted) cell arrays of the locally-owned blocks, id order.
    blocks: Vec<(BlockId, Vec<f64>)>,
}

/// FNV-1a fold over a block set's ids and raw cell bits — the integrity
/// fingerprint stored in (and re-checked against) a checkpoint.
fn fold_blocks(blocks: &[(BlockId, Vec<f64>)]) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = OFFSET;
    let mut fold = |v: u64| {
        h ^= v;
        h = h.wrapping_mul(PRIME);
    };
    for (id, data) in blocks {
        fold(
            ((id.level as u64) << 48) | ((id.x as u64) << 32) | ((id.y as u64) << 16) | id.z as u64,
        );
        for x in data {
            fold(x.to_bits());
        }
    }
    h
}

/// Copies out the full (ghosted) cell arrays of a rank's blocks, id order.
fn snapshot(state: &RankState) -> Vec<(BlockId, Vec<f64>)> {
    let blocks = state.blocks.iter();
    blocks.map(|(id, b)| (*id, b.buf.full().to_vec())).collect()
}

/// The digest a checkpoint of `state` would carry — what a restored state
/// is verified against its source checkpoint with.
pub fn digest_of(state: &RankState) -> u64 {
    fold_blocks(&snapshot(state))
}

impl RankCheckpoint {
    /// Snapshots a rank's recoverable state. Pure reads; the caller is
    /// responsible for quiescence (no in-flight tasks mutating blocks).
    pub fn take(state: &RankState, tstep: usize, stage: usize, mesh_epoch: u64) -> RankCheckpoint {
        let blocks = snapshot(state);
        let digest = fold_blocks(&blocks);
        RankCheckpoint {
            rank: state.rank,
            n_ranks: state.n_ranks,
            tstep,
            stage,
            mesh_epoch,
            digest,
            cfg: state.cfg.clone(),
            dir: state.dir.clone(),
            objects: state.objects.clone(),
            blocks,
        }
    }

    /// Locally-owned blocks in the snapshot.
    pub fn num_blocks(&self) -> usize {
        self.blocks.len()
    }

    /// Payload size of the snapshot's cell data.
    pub fn bytes(&self) -> u64 {
        self.blocks
            .iter()
            .map(|(_, d)| (d.len() * std::mem::size_of::<f64>()) as u64)
            .sum()
    }

    /// The mismatch error unless `got` — a digest re-derived from this
    /// snapshot's cells, stored or restored — is the recorded one.
    /// Resuming from a corrupt snapshot silently would poison every
    /// digest downstream.
    pub(crate) fn check(&self, got: u64) -> Result<(), RunError> {
        if got == self.digest {
            return Ok(());
        }
        Err(RunError::CheckpointMismatch {
            job: self.cfg.job_id(),
            rank: self.rank,
            tstep: self.tstep,
            stage: self.stage,
            expected: self.digest,
            got,
        })
    }

    /// Re-derives the digest from the stored cell data and checks it.
    pub fn verify(&self) -> Result<(), RunError> {
        self.check(fold_blocks(&self.blocks))
    }

    /// Rebuilds a fresh [`RankState`] from the snapshot (new buffers, new
    /// dependency uids — the old allocations may be tied up in a wedged
    /// task graph). The caller resumes from `tstep`/`stage` and must
    /// rebuild the communication plan (the mesh epoch may since have
    /// advanced elsewhere).
    pub fn restore(&self) -> RankState {
        let mut blocks = BTreeMap::new();
        for (id, data) in &self.blocks {
            let b = BlockData::empty(*id, &self.cfg.params);
            b.buf.full().with_write(|dst| dst.copy_from_slice(data));
            blocks.insert(*id, b);
        }
        RankState::assemble(
            &self.cfg,
            self.dir.clone(),
            self.objects.clone(),
            blocks,
            self.rank,
            self.n_ranks,
        )
    }
}

/// Re-partitions a *coordinated* checkpoint set (one snapshot per rank of
/// the same world, taken at the same quiescent boundary) onto a world of
/// `new_n` ranks: pools every block, computes a fresh assignment with the
/// regular partitioners, and materializes one [`RankState`] per new rank.
///
/// This is the heart of an elastic resize (grow or shrink): the block
/// *data* is untouched — only ownership changes — so the ownership-
/// independent checksum combination guarantees the digest is unaffected.
/// Each snapshot's integrity digest is re-verified first; corruption is a
/// structured failure ([`RunError::CheckpointMismatch`]), never a silent
/// resume.
pub fn redistribute(
    ckpts: &[Arc<RankCheckpoint>],
    new_n: usize,
    balance: BalanceKind,
) -> Result<Vec<RankState>, RunError> {
    assert!(
        !ckpts.is_empty(),
        "redistribute needs at least one snapshot"
    );
    assert!(new_n >= 1, "cannot resize to an empty world");
    let base = &ckpts[0];
    for ck in ckpts {
        ck.verify()?;
        assert_eq!(
            ck.dir, base.dir,
            "coordinated checkpoints must share the replicated directory"
        );
    }
    let mut all: BTreeMap<BlockId, &[f64]> = BTreeMap::new();
    for ck in ckpts {
        for (id, data) in &ck.blocks {
            all.insert(*id, data.as_slice());
        }
    }
    assert_eq!(
        all.len(),
        base.dir.len(),
        "checkpoint set must cover every directory block exactly once"
    );
    // `BalanceKind::None` has no meaning for a resize (the old owners may
    // be out of range in the new world), so it falls back to SFC.
    let assignment = match balance {
        BalanceKind::Rcb => partition::rcb_partition(&base.dir, new_n),
        _ => partition::sfc_partition(&base.dir, new_n),
    };
    let mut dir = base.dir.clone();
    for (id, owner) in &assignment {
        dir.set_owner(*id, *owner);
    }
    let states = (0..new_n)
        .map(|rank| {
            let mut blocks = BTreeMap::new();
            for (id, data) in &all {
                if assignment[id] == rank {
                    let b = BlockData::empty(*id, &base.cfg.params);
                    b.buf.full().with_write(|dst| dst.copy_from_slice(data));
                    blocks.insert(*id, b);
                }
            }
            RankState::assemble(
                &base.cfg,
                dir.clone(),
                base.objects.clone(),
                blocks,
                rank,
                new_n,
            )
        })
        .collect();
    Ok(states)
}

/// The latest checkpoint per rank of one run; owned by the run's
/// [`crate::elastic::RunCtx`], so concurrent runs in one process cannot
/// restore each other's ranks.
#[derive(Default)]
pub struct CheckpointStore {
    slots: Mutex<HashMap<usize, Arc<RankCheckpoint>>>,
}

impl CheckpointStore {
    /// Publishes a fresh checkpoint, superseding the rank's previous one.
    pub fn publish(&self, ck: RankCheckpoint) {
        self.slots.lock().insert(ck.rank, Arc::new(ck));
    }

    /// The latest checkpoint a rank published, if any.
    pub fn latest(&self, rank: usize) -> Option<Arc<RankCheckpoint>> {
        self.slots.lock().get(&rank).cloned()
    }
}

/// Takes a checkpoint and publishes it into the run's `store` (the caller
/// tested [`Config::checkpoint_due`]); emits the `checkpoint_taken` obs
/// event and counter. The caller guarantees quiescence (the loop drains
/// the executor first).
pub(crate) fn take_and_publish(
    store: &CheckpointStore,
    state: &RankState,
    stats: &mut crate::stats::RunStats,
    stage_counter: usize,
    tstep: usize,
    mesh_epoch: u64,
) {
    let ck = RankCheckpoint::take(state, tstep, stage_counter, mesh_epoch);
    if obs::is_enabled() {
        checkpoints_counter().inc();
        if let Some(bus) = obs::bus() {
            bus.emit(obs::EventData::CheckpointTaken {
                rank: state.rank as u32,
                tstep: tstep as u32,
                stage: stage_counter as u32,
                blocks: ck.num_blocks() as u32,
                bytes: ck.bytes(),
            });
        }
    }
    store.publish(ck);
    stats.checkpoints_taken += 1;
}

/// Cached handle for the `core.checkpoints` counter.
fn checkpoints_counter() -> &'static obs::Counter {
    static COUNTER: OnceLock<obs::Counter> = OnceLock::new();
    COUNTER.get_or_init(|| obs::metrics().counter("core.checkpoints"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Config;

    /// Snapshot → perturb → restore reproduces the exact pre-perturbation
    /// state (digest equality over full cell arrays).
    #[test]
    fn restore_reverses_perturbation() {
        let cfg = Config::smoke_test();
        let state = RankState::init(&cfg, 0, 2);
        let ck = RankCheckpoint::take(&state, 3, 12, 1);
        assert_eq!(ck.digest, digest_of(&state));
        assert!(ck.num_blocks() > 0);
        assert!(ck.bytes() > 0);

        // Scribble over every block (a "torn" post-fault state).
        for b in state.blocks.values() {
            b.buf.full().with_write(|d| d.fill(-1.0));
        }
        assert_ne!(digest_of(&state), ck.digest);

        let restored = ck.restore();
        assert_eq!(digest_of(&restored), ck.digest);
        assert_eq!(restored.blocks.len(), state.blocks.len());
        assert_eq!(restored.dir, state.dir);
        assert_eq!(restored.rank, 0);
    }

    /// The store keeps the latest checkpoint per rank.
    #[test]
    fn store_supersedes_per_rank() {
        let cfg = Config::smoke_test();
        let state = RankState::init(&cfg, 1, 2);
        let s = CheckpointStore::default();
        s.publish(RankCheckpoint::take(&state, 0, 4, 0));
        s.publish(RankCheckpoint::take(&state, 1, 8, 0));
        let latest = s.latest(1).expect("checkpoint published");
        assert_eq!((latest.tstep, latest.stage), (1, 8));
        assert!(s.latest(0).is_none());
    }

    /// One flipped cell of a taken checkpoint trips the verify step — on
    /// the stored cells and on a state restored from them — with the
    /// structured one-line report as the error's `Display`.
    #[test]
    fn flipped_cell_is_a_structured_mismatch() {
        let cfg = Config::smoke_test();
        let state = RankState::init(&cfg, 1, 2);
        let mut ck = RankCheckpoint::take(&state, 2, 9, 0);
        assert!(ck.verify().is_ok());
        ck.blocks[0].1[0] += 1.0;
        let err = ck.verify().expect_err("a flipped cell must not verify");
        let restored = ck.check(digest_of(&ck.restore())).expect_err("nor restore");
        assert_eq!(restored.to_string(), err.to_string());
        let RunError::CheckpointMismatch { expected, got, .. } = err else {
            panic!("expected a mismatch, got {err:?}");
        };
        assert_eq!(expected, ck.digest);
        assert_ne!(got, expected);
        assert_eq!(
            err.to_string(),
            format!(
                "{{\"type\":\"miniamr-ckpt-mismatch\",\"job\":0,\"rank\":1,\"tstep\":2,\
                 \"stage\":9,\"expected\":\"{expected:016x}\",\"got\":\"{got:016x}\"}}"
            )
        );
        assert!(redistribute(&[Arc::new(ck)], 1, BalanceKind::Sfc).is_err());
    }
}
