//! Per-rank in-memory checkpoints: the graceful-degradation half of the
//! chaos story.
//!
//! Every `--ckpt_freq` stages each rank snapshots its recoverable state —
//! the replicated directory, the object positions, and the full cell data
//! of every locally-owned block — into its job's [`CheckpointStore`]
//! (see [`store_for`]), fingerprinted with a deterministic digest. When
//! the reliability layer declares a peer unrecoverable (retry budget
//! exhausted on a crashed rank), the registered recovery hook restores
//! the reporting rank's state from its latest checkpoint, re-verifies the
//! digest, and contributes the outcome to the structured report that
//! accompanies the [`vmpi::PEER_LOST_EXIT_CODE`] exit.
//!
//! Checkpoints are pure reads of rank state: taking one cannot perturb
//! the numerics, so the cross-variant bitwise-equivalence guarantee is
//! unaffected by any `--ckpt_freq` setting.

use crate::config::{BalanceKind, Config};
use crate::rank::RankState;
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
fn fold_blocks<'a>(blocks: impl Iterator<Item = (&'a BlockId, &'a [f64])>) -> u64 {
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

/// The digest a checkpoint of `state` would carry — used by the recovery
/// hook to verify a restored state against its source checkpoint.
pub fn digest_of(state: &RankState) -> u64 {
    let snap: Vec<(BlockId, Vec<f64>)> = state
        .blocks
        .iter()
        .map(|(id, b)| (*id, b.buf.full().to_vec()))
        .collect();
    fold_blocks(snap.iter().map(|(id, d)| (id, d.as_slice())))
}

impl RankCheckpoint {
    /// Snapshots a rank's recoverable state. Pure reads; the caller is
    /// responsible for quiescence (no in-flight tasks mutating blocks).
    pub fn take(state: &RankState, tstep: usize, stage: usize, mesh_epoch: u64) -> RankCheckpoint {
        let blocks: Vec<(BlockId, Vec<f64>)> = state
            .blocks
            .iter()
            .map(|(id, b)| (*id, b.buf.full().to_vec()))
            .collect();
        let digest = fold_blocks(blocks.iter().map(|(id, d)| (id, d.as_slice())));
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
/// structured failure ([`vmpi::PEER_LOST_EXIT_CODE`]), never a silent
/// resume.
pub fn redistribute(
    ckpts: &[Arc<RankCheckpoint>],
    new_n: usize,
    balance: BalanceKind,
) -> Vec<RankState> {
    assert!(
        !ckpts.is_empty(),
        "redistribute needs at least one snapshot"
    );
    assert!(new_n >= 1, "cannot resize to an empty world");
    let base = &ckpts[0];
    for ck in ckpts {
        verify_or_die(ck);
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
    (0..new_n)
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
        .collect()
}

/// Re-derives a checkpoint's digest from its stored cell data and fails
/// *structurally* on mismatch: a `PeerLostReport`-style JSON line on
/// stderr, then [`vmpi::PEER_LOST_EXIT_CODE`]. Restoring from a corrupt
/// snapshot silently would poison every digest downstream.
fn verify_or_die(ck: &RankCheckpoint) {
    let got = fold_blocks(ck.blocks.iter().map(|(id, d)| (id, d.as_slice())));
    if got != ck.digest {
        eprintln!("{}", mismatch_report_json(ck, got));
        std::process::exit(vmpi::PEER_LOST_EXIT_CODE);
    }
}

/// The structured checkpoint-mismatch report (stable shape, one line).
fn mismatch_report_json(ck: &RankCheckpoint, got: u64) -> String {
    format!(
        "{{\"type\":\"miniamr-ckpt-mismatch\",\"job\":{},\"rank\":{},\"tstep\":{},\
         \"stage\":{},\"expected\":\"{:016x}\",\"got\":\"{:016x}\"}}",
        ck.cfg.job_id(),
        ck.rank,
        ck.tstep,
        ck.stage,
        ck.digest,
        got
    )
}

/// Per-job registry of the latest checkpoint per rank.
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

    /// Drops all checkpoints (between runs sharing a process, e.g. tests).
    pub fn clear(&self) {
        self.slots.lock().clear();
    }
}

/// The checkpoint store of one job. Concurrent in-process jobs get
/// disjoint stores, so a recovery can never cross-restore another job's
/// ranks (the former process-global store did exactly that).
pub fn store_for(job: u64) -> Arc<CheckpointStore> {
    static REGISTRY: OnceLock<Mutex<HashMap<u64, Arc<CheckpointStore>>>> = OnceLock::new();
    let reg = REGISTRY.get_or_init(Default::default);
    Arc::clone(reg.lock().entry(job).or_default())
}

/// The default (job 0) checkpoint store.
pub fn store() -> Arc<CheckpointStore> {
    store_for(0)
}

/// Takes and publishes a checkpoint (the caller tested
/// [`Config::checkpoint_due`]); emits the `checkpoint_taken` obs event
/// and counter. The caller guarantees quiescence (the loop drains the
/// executor first).
pub(crate) fn take_and_publish(
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
    store_for(state.cfg.job_id()).publish(ck);
    stats.checkpoints_taken += 1;
}

/// Cached handle for the `core.checkpoints` counter.
fn checkpoints_counter() -> &'static obs::Counter {
    static COUNTER: OnceLock<obs::Counter> = OnceLock::new();
    COUNTER.get_or_init(|| obs::metrics().counter("core.checkpoints"))
}

/// Registers the chaos recovery hook: when the reliability layer gives up
/// on a peer, restore the reporting rank's latest checkpoint *from the
/// reporting job's store*, verify its digest, and contribute the outcome
/// to the structured exit report. A digest mismatch is a structured
/// failure — a `miniamr-ckpt-mismatch` JSON line and
/// [`vmpi::PEER_LOST_EXIT_CODE`] — never a silent resume from corrupt
/// state. Idempotent (the underlying hook slot is write-once).
pub fn install_recovery_hook() {
    vmpi::set_peer_lost_hook(|report| {
        let mut lines = Vec::new();
        match store_for(report.job).latest(report.reporter) {
            Some(ck) => {
                let restored = ck.restore();
                // Test-only fault injection: corrupt one restored cell so
                // CI can pin the mismatch-escalation path without a way
                // to corrupt a live store from outside the process.
                if std::env::var_os("MINIAMR_TEST_CORRUPT_CKPT").is_some() {
                    if let Some(b) = restored.blocks.values().next() {
                        b.buf.full().with_write(|d| {
                            if let Some(x) = d.first_mut() {
                                *x += 1.0;
                            }
                        });
                    }
                }
                let got = digest_of(&restored);
                if got != ck.digest {
                    eprintln!("{}", mismatch_report_json(&ck, got));
                    std::process::exit(vmpi::PEER_LOST_EXIT_CODE);
                }
                lines.push(format!(
                    "recovery: rank {} restored from checkpoint (tstep {}, stage {}, {} blocks, {} bytes)",
                    ck.rank,
                    ck.tstep,
                    ck.stage,
                    ck.num_blocks(),
                    ck.bytes(),
                ));
                lines.push(format!(
                    "recovery: checkpoint digest {:016x} verified after restore",
                    ck.digest
                ));
            }
            None => lines.push(
                "recovery: no checkpoint available (--ckpt_freq 0?); \
                 restart from initial conditions required"
                    .to_string(),
            ),
        }
        lines
    });
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
        s.clear();
        assert!(s.latest(1).is_none());
    }
}
