//! Per-rank in-memory checkpoints: the graceful-degradation half of the
//! chaos story.
//!
//! Every `--ckpt_freq` stages each rank snapshots its recoverable state —
//! the replicated directory, the object positions, and the interior cells
//! of every locally-owned block — into its run's [`CheckpointStore`],
//! fingerprinted with a deterministic digest. When the reliability layer
//! declares a peer unrecoverable (retry budget exhausted on a crashed
//! rank) and the world has unwound, the driver ([`crate::elastic::run`])
//! restores the reporting rank's state from its latest checkpoint,
//! re-verifies the digest, and puts the outcome into the
//! [`crate::RunError::PeerLost`] it returns. Ghost cells are dead at every
//! stage boundary (each stage's exchange rewrites them before the stencil
//! reads them), so restored ghosts start at zero, as after a block move.
//!
//! Checkpoints are pure reads of rank state: taking one cannot perturb
//! the numerics, so the cross-variant bitwise-equivalence guarantee is
//! unaffected by any `--ckpt_freq` setting.

use crate::config::{BalanceKind, Config};
use crate::rank::RankState;
use crate::variant::packed_id;
use crate::RunError;
use amr_mesh::data::{BlockData, BlockLayout};
use amr_mesh::{partition, BlockId, MeshDirectory, Object};
use parking_lot::Mutex;
use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

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
    /// The locally-owned blocks in id order, and their interiors: one
    /// [`BlockData::pack_interior`] slot per id, contiguous.
    ids: Vec<BlockId>,
    cells: Vec<f64>,
}

const LANES: usize = 4;

/// One FNV-1a step.
fn fnv(h: &mut u64, v: u64) {
    *h = (*h ^ v).wrapping_mul(0x0000_0100_0000_01b3);
}

/// The integrity fingerprint of a checkpoint: cell `i` of the stream of
/// raw cell bits feeds FNV-1a lane `i mod LANES` (neighbouring cells'
/// multiplies do not wait on each other), then one chain folds the block
/// ids and the lanes. Only the concatenation of the folded slices counts.
struct Digest([u64; LANES]);

impl Digest {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const NEW: Digest = Digest([Digest::OFFSET; LANES]);

    fn fold(&mut self, cells: &[f64]) {
        let (quads, rest) = cells.as_chunks::<LANES>();
        for quad in quads {
            for (h, x) in self.0.iter_mut().zip(quad) {
                fnv(h, x.to_bits());
            }
        }
        for (h, x) in self.0.iter_mut().zip(rest) {
            fnv(h, x.to_bits());
        }
        // Lane 0 stays the next cell's.
        self.0.rotate_left(rest.len());
    }

    fn finish<'a>(self, ids: impl IntoIterator<Item = &'a BlockId>) -> u64 {
        let mut h = Digest::OFFSET;
        ids.into_iter().for_each(|id| fnv(&mut h, packed_id(id)));
        self.0.into_iter().for_each(|lane| fnv(&mut h, lane));
        h
    }
}

/// The digest a checkpoint of `state` would carry — what a restored state
/// is verified against its source checkpoint with — folded straight from
/// the block buffers.
pub fn digest_of(state: &RankState) -> u64 {
    let (layout, mut digest) = (&state.layout, Digest::NEW);
    for b in state.blocks.values() {
        b.for_each_interior_row(layout, 0..layout.num_vars, |row| digest.fold(row));
    }
    digest.finish(state.blocks.keys())
}

impl RankCheckpoint {
    /// Snapshots a rank's recoverable state: [`RankCheckpoint::retake`]
    /// into empty storage. Pure reads; the caller is responsible for
    /// quiescence (no in-flight tasks mutating blocks).
    pub fn take(state: &RankState, tstep: usize, stage: usize, mesh_epoch: u64) -> RankCheckpoint {
        RankCheckpoint::retake(None, state, tstep, stage, mesh_epoch)
    }

    /// Snapshots into `old`'s storage when `old` is its last handle (the
    /// cell array is overwritten in place and never shrinks), else into
    /// fresh storage: one pass copies each block's interior into its slot
    /// and folds the slot into the digest while it is still in cache.
    pub(crate) fn retake(
        old: Option<Arc<RankCheckpoint>>,
        state: &RankState,
        tstep: usize,
        stage: usize,
        mesh_epoch: u64,
    ) -> RankCheckpoint {
        let (mut ids, mut cells) = match old.map(Arc::try_unwrap) {
            Some(Ok(ck)) => (ck.ids, ck.cells),
            _ => (Vec::new(), Vec::new()),
        };
        let layout = &state.layout;
        let len = layout.num_vars * layout.cells();
        ids.clear();
        ids.extend(state.blocks.keys());
        cells.resize(ids.len() * len, 0.0);
        let mut digest = Digest::NEW;
        for (b, slot) in state.blocks.values().zip(cells.chunks_exact_mut(len)) {
            b.pack_interior_into(layout, 0..layout.num_vars, slot);
            digest.fold(slot);
        }
        RankCheckpoint {
            rank: state.rank,
            n_ranks: state.n_ranks,
            tstep,
            stage,
            mesh_epoch,
            digest: digest.finish(&ids),
            cfg: state.cfg.clone(),
            dir: state.dir.clone(),
            objects: state.objects.clone(),
            ids,
            cells,
        }
    }

    /// The snapshot's blocks, unpacked into fresh buffers.
    fn blocks(&self) -> impl Iterator<Item = (BlockId, BlockData)> + '_ {
        let layout = BlockLayout::of(&self.cfg.params);
        let slots = self.cells.chunks_exact(layout.num_vars * layout.cells());
        self.ids.iter().zip(slots).map(move |(&id, cells)| {
            let b = BlockData::empty(id, &self.cfg.params);
            b.unpack_interior(&layout, 0..layout.num_vars, cells);
            (id, b)
        })
    }

    /// Locally-owned blocks in the snapshot.
    pub fn num_blocks(&self) -> usize {
        self.ids.len()
    }

    /// Payload size of the snapshot's cell data.
    pub fn bytes(&self) -> u64 {
        (self.cells.len() * std::mem::size_of::<f64>()) as u64
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
        let mut digest = Digest::NEW;
        digest.fold(&self.cells);
        self.check(digest.finish(&self.ids))
    }

    /// Rebuilds a fresh [`RankState`] from the snapshot (new buffers, new
    /// dependency uids — the old allocations may be tied up in a wedged
    /// task graph). The caller resumes from `tstep`/`stage` and must
    /// rebuild the communication plan (the mesh epoch may since have
    /// advanced elsewhere).
    pub fn restore(&self) -> RankState {
        let (dir, objects) = (self.dir.clone(), self.objects.clone());
        let blocks = self.blocks().collect();
        RankState::assemble(&self.cfg, dir, objects, blocks, self.rank, self.n_ranks)
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
///
/// # Panics
///
/// On an empty world or an uncoordinated set, which the one caller never
/// passes: `elastic::run` validates `new_n`, and a resize point or
/// `RunCtx::common_boundary` (which matches timestep and world size)
/// yields one snapshot per rank of one world at one quiescent boundary —
/// so they share its directory and their blocks cover it exactly once.
pub fn redistribute(
    ckpts: &[Arc<RankCheckpoint>],
    new_n: usize,
    balance: BalanceKind,
) -> Result<Vec<RankState>, RunError> {
    assert!(!ckpts.is_empty() && new_n >= 1, "nothing to redistribute");
    let base = &ckpts[0];
    for ck in ckpts {
        ck.verify()?;
        assert_eq!(
            ck.dir, base.dir,
            "coordinated checkpoints must share the replicated directory"
        );
    }
    let all: BTreeMap<BlockId, BlockData> = ckpts.iter().flat_map(|ck| ck.blocks()).collect();
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
    let mut owned = vec![BTreeMap::new(); new_n];
    for (id, b) in all {
        owned[assignment[&id]].insert(id, b);
    }
    let (cfg, objects) = (&base.cfg, &base.objects);
    let states = owned.into_iter().enumerate().map(|(r, blocks)| {
        RankState::assemble(cfg, dir.clone(), objects.clone(), blocks, r, new_n)
    });
    Ok(states.collect())
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

/// Takes a checkpoint and publishes it into the run's `store` (where
/// [`crate::skeleton::cadence`] places one); emits the `checkpoint_taken` obs
/// event and counter. The caller guarantees quiescence (the loop drains
/// the executor first). The rank's previous checkpoint leaves the store
/// and is retaken in place, so one copy per rank is alive; during a run
/// only the rank's own thread touches its slot, and the driver reads the
/// store only after every rank has stopped.
pub(crate) fn take_and_publish(
    store: &CheckpointStore,
    state: &RankState,
    stats: &mut crate::stats::RunStats,
    stage: usize,
    tstep: usize,
    mesh_epoch: u64,
) {
    let old = store.slots.lock().remove(&state.rank);
    let ck = RankCheckpoint::retake(old, state, tstep, stage, mesh_epoch);
    if let Some(bus) = obs::bus() {
        bus.emit(obs::EventData::CheckpointTaken {
            rank: state.rank as u32,
            tstep: tstep as u32,
            stage: stage as u32,
            blocks: ck.num_blocks() as u32,
            bytes: ck.bytes(),
        });
    }
    store.publish(ck);
    stats.checkpoints_taken += 1;
}

#[cfg(test)]
impl RankCheckpoint {
    /// Where the cell array lives (storage-reuse tests).
    pub(crate) fn cells_ptr(&self) -> *const f64 {
        self.cells.as_ptr()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Config;
    use crate::rank::apply_boundary;
    use amr_mesh::{Dir, Side};

    /// Rows six cells long: the digest's lanes wrap mid-row.
    fn odd_rows() -> Config {
        let mut cfg = Config::smoke_test();
        cfg.params.nx = 6;
        cfg
    }

    /// Fills every ghost plane of every block (zero-gradient copies of the
    /// interior — nonzero, unlike the zero ghosts of a fresh block).
    fn scribble_ghosts(state: &RankState) {
        let l = &state.layout;
        for b in state.blocks.values() {
            for dir in Dir::ALL {
                for side in [Side::Lo, Side::Hi] {
                    apply_boundary(l, b, dir, side, 0..l.num_vars);
                }
            }
        }
    }

    /// However the stream is sliced, the lanes end up the same.
    #[test]
    fn digest_depends_only_on_the_concatenation() {
        let cells: Vec<f64> = (0..23).map(|i| i as f64 * 0.5).collect();
        let mut whole = Digest::NEW;
        whole.fold(&cells);
        let mut sliced = Digest::NEW;
        for part in [&cells[..3], &cells[3..5], &cells[5..6], &cells[6..]] {
            sliced.fold(part);
        }
        assert_eq!(whole.0, sliced.0);
    }

    /// Snapshot → perturb → restore reproduces the exact pre-perturbation
    /// state (digest equality over the interiors).
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
        ck.cells[0] += 1.0;
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

    /// Two consecutive takes over an unchanged state: the second
    /// overwrites the first's cell array in place.
    #[test]
    fn consecutive_takes_reuse_the_storage() {
        let cfg = Config::smoke_test();
        let state = RankState::init(&cfg, 0, 2);
        let (store, mut stats) = (CheckpointStore::default(), Default::default());
        let cells = |store: &CheckpointStore| {
            let ck = store.latest(0).expect("checkpoint published");
            (ck.cells.as_ptr(), ck.cells.capacity(), ck.stage)
        };
        take_and_publish(&store, &state, &mut stats, 4, 1, 0);
        let (ptr, cap, _) = cells(&store);
        take_and_publish(&store, &state, &mut stats, 8, 2, 0);
        assert_eq!(cells(&store), (ptr, cap, 8));
        assert_eq!(stats.checkpoints_taken, 2);
        assert!(store.latest(0).unwrap().verify().is_ok());
    }

    /// A `latest` handle held across a take keeps its snapshot intact; the
    /// store gets a fresh one.
    #[test]
    fn held_snapshot_survives_a_take() {
        let cfg = Config::smoke_test();
        let state = RankState::init(&cfg, 0, 2);
        let (store, mut stats) = (CheckpointStore::default(), Default::default());
        take_and_publish(&store, &state, &mut stats, 4, 1, 0);
        let held = store.latest(0).expect("checkpoint published");
        let b = state.blocks.values().next().unwrap();
        b.buf
            .full()
            .with_write(|d| d[state.layout.idx(0, 1, 1, 1)] += 1.0);
        take_and_publish(&store, &state, &mut stats, 8, 2, 0);
        let fresh = store.latest(0).unwrap();
        assert!(held.verify().is_ok() && fresh.verify().is_ok());
        assert_eq!((held.stage, fresh.stage), (4, 8));
        assert_ne!(held.cells_ptr(), fresh.cells_ptr());
        assert_ne!(held.digest, fresh.digest);
        assert_eq!(fresh.digest, digest_of(&state));
    }

    /// Ghost planes are not part of a snapshot; interior cells are.
    #[test]
    fn digest_sees_interiors_not_ghosts() {
        let cfg = odd_rows();
        let state = RankState::init(&cfg, 0, 2);
        let before = digest_of(&state);
        assert_eq!(before, RankCheckpoint::take(&state, 0, 0, 0).digest);
        scribble_ghosts(&state);
        assert_eq!(digest_of(&state), before);
        let b = state.blocks.values().next().unwrap();
        b.buf
            .full()
            .with_write(|d| d[state.layout.idx(1, 2, 3, 4)] += 1.0);
        assert_ne!(digest_of(&state), before);
    }

    /// A restored block holds its source's interior bit for bit and zero
    /// ghosts, whatever the source's ghosts held.
    #[test]
    fn restore_is_bitwise_on_interiors_with_zero_ghosts() {
        let cfg = odd_rows();
        let state = RankState::init(&cfg, 1, 2);
        scribble_ghosts(&state);
        let restored = RankCheckpoint::take(&state, 0, 0, 0).restore();
        let l = &state.layout;
        let interior = |i: usize, n: usize| (1..=n).contains(&i);
        for (src, dst) in state.blocks.values().zip(restored.blocks.values()) {
            assert_eq!(src.id, dst.id);
            let (src, dst) = (src.buf.full().to_vec(), dst.buf.full().to_vec());
            for v in 0..l.num_vars {
                for z in 0..l.nz + 2 {
                    for y in 0..l.ny + 2 {
                        for x in 0..l.nx + 2 {
                            let i = l.idx(v, z, y, x);
                            let inside =
                                interior(z, l.nz) && interior(y, l.ny) && interior(x, l.nx);
                            let want = if inside { src[i] } else { 0.0 };
                            assert_eq!(dst[i].to_bits(), want.to_bits(), "at {v} {z} {y} {x}");
                        }
                    }
                }
            }
        }
    }
}
