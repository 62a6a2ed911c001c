//! Elastic execution: malleable rank counts over the checkpoint
//! substrate.
//!
//! A run is split into *spans* of whole timesteps. At a span boundary
//! every rank is quiescent (the data-flow variant drains its task graph
//! there), so the world can be torn down, the block directory
//! re-partitioned onto a different rank count with the regular
//! partitioners, and a fresh world respawned that resumes exactly where
//! the old one stopped — the resize protocol of DESIGN.md §16:
//!
//! ```text
//! quiescence → checkpoint → repartition → respawn
//! ```
//!
//! Because the global checksum combination is ownership-independent
//! ([`crate::variant`]'s per-block gather folded in global block-id
//! order) and a resize moves block *data* without touching a single cell,
//! the final [`crate::stats::RunStats::checksum_digest`] of an elastic
//! run is **bitwise identical** to the fixed-rank run of the same
//! scenario. That is the invariant the elastic soak tests pin.
//!
//! [`run`] drives every run — a fixed-rank run is the elastic run with
//! no resize point — through **planned resizes** ([`ResizePlan`] /
//! `--resize_at ts:N`, repeatable; grow or shrink), and it alone decides
//! what a lost peer means. The reliability layer poisons the world
//! ([`vmpi::PeerLostAction::AbortWorld`]), every rank closure unwinds,
//! and with all ranks stopped the driver follows the [`PeerLostPolicy`]:
//! **abort** (restore and verify the reporter's latest checkpoint, return
//! [`RunError::PeerLost`]) or **shrink** (`--on_peer_lost shrink`:
//! restore the latest *coordinated* boundary snapshot common to every
//! rank, shrink onto the survivors, resume fault-free).

use crate::checkpoint::{self, CheckpointStore, RankCheckpoint};
use crate::config::{BalanceKind, Config};
use crate::rank::RankState;
use crate::stats::RunStats;
use crate::variant::Checkpoint;
use parking_lot::Mutex;
use std::collections::{BTreeSet, HashMap};
use std::fmt;
use std::sync::Arc;
use vmpi::{Comm, NetworkModel, PeerLostReport, World};

/// How many boundary snapshots per rank a [`RunCtx`] retains;
/// recovery only ever needs the newest snapshot *common to all ranks*,
/// and ranks run at most a few timesteps apart.
const BOUNDARY_HISTORY: usize = 4;

/// Planned resize events: before computing timestep `ts`, resize the
/// world to `n` ranks (`--resize_at ts:N`, repeatable).
#[derive(Debug, Clone, Default)]
pub struct ResizePlan {
    /// `(timestep, new rank count)` pairs; a timestep listed twice keeps
    /// the last entry.
    pub events: Vec<(usize, usize)>,
}

impl ResizePlan {
    /// Builder-style: adds a resize to `n` ranks before timestep `ts`.
    pub fn at(mut self, ts: usize, n: usize) -> ResizePlan {
        self.events.push((ts, n));
        self
    }

    /// Parses one `--resize_at` operand of the form `ts:N`. The timestep
    /// must be at least 1 (the initial world size is fixed by the rank
    /// grid) and the new count at least 1.
    pub fn parse_event(s: &str) -> Result<(usize, usize), String> {
        let (ts, n) = s
            .split_once(':')
            .ok_or_else(|| format!("--resize_at wants ts:N, got '{s}'"))?;
        let ts: usize = ts
            .parse()
            .map_err(|_| format!("--resize_at: bad timestep '{ts}'"))?;
        let n: usize = n
            .parse()
            .map_err(|_| format!("--resize_at: bad rank count '{n}'"))?;
        if ts == 0 {
            return Err("--resize_at: the first resize point is ts 1 \
                        (the initial world matches the rank grid)"
                .to_string());
        }
        if n == 0 {
            return Err("--resize_at: cannot resize to 0 ranks".to_string());
        }
        Ok((ts, n))
    }
}

/// What to do when the reliability layer gives up on a peer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PeerLostPolicy {
    /// Stop the run: [`run`] returns [`RunError::PeerLost`] carrying the
    /// reports and the restore-and-verify outcome of the latest
    /// checkpoint.
    #[default]
    Abort,
    /// Shrink onto the surviving ranks from the latest coordinated
    /// boundary snapshot, and resume.
    Shrink,
}

/// Why a run stopped before its last timestep. `Display` is the report,
/// line for line as the driver's stderr reads; every variant maps to the
/// one [`RunError::exit_code`].
#[derive(Debug, Clone)]
pub enum RunError {
    /// A peer was declared unrecoverable under [`PeerLostPolicy::Abort`].
    PeerLost {
        /// Who gave up on whom ([`World::peer_lost_reports`]).
        reports: Vec<PeerLostReport>,
        /// The fault plan's position ([`World::chaos_plan_position`]),
        /// then the restore-and-verify outcome of the first reporter's
        /// latest checkpoint — produced after every rank had stopped.
        lines: Vec<String>,
    },
    /// A checkpoint about to be resumed from no longer folds to its
    /// recorded digest. `Display` is the structured one-line report.
    CheckpointMismatch {
        /// Job of the run ([`Config::job_id`]).
        job: u64,
        /// Rank the checkpoint belongs to.
        rank: usize,
        /// Timestep the checkpoint was taken in.
        tstep: usize,
        /// Global stage counter at checkpoint time.
        stage: usize,
        /// The digest recorded when the checkpoint was taken.
        expected: u64,
        /// The digest its cells fold to now.
        got: u64,
    },
    /// [`PeerLostPolicy::Shrink`], but the peer died before every rank
    /// had published its first boundary (e.g. during the initial
    /// refinement): there is nowhere to resume from.
    NoBoundary {
        /// Job of the run ([`Config::job_id`]).
        job: u64,
    },
    /// A regrid's block moves would leave a rank holding more blocks than
    /// `--max_blocks`, so its block exchange could never finish: a
    /// scenario rejected mid-run. Found before the first exchange round.
    OverCapacity {
        /// The rank.
        rank: usize,
        /// The blocks the moves would leave it.
        blocks: usize,
        /// `--max_blocks`.
        max_blocks: usize,
    },
}

impl RunError {
    /// The process exit code a CLI maps this error to: a rejected
    /// scenario's 2 for [`RunError::OverCapacity`], else the lost-peer
    /// class.
    pub fn exit_code(&self) -> i32 {
        match self {
            RunError::OverCapacity { .. } => 2,
            _ => vmpi::PEER_LOST_EXIT_CODE,
        }
    }
}

impl fmt::Display for RunError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RunError::PeerLost { lines, .. } => {
                let lines: Vec<String> = lines.iter().map(|l| format!("chaos: {l}")).collect();
                f.write_str(&lines.join("\n"))
            }
            RunError::CheckpointMismatch {
                job,
                rank,
                tstep,
                stage,
                expected,
                got,
            } => write!(
                f,
                "{{\"type\":\"miniamr-ckpt-mismatch\",\"job\":{job},\"rank\":{rank},\
                 \"tstep\":{tstep},\"stage\":{stage},\"expected\":\"{expected:016x}\",\
                 \"got\":\"{got:016x}\"}}"
            ),
            RunError::NoBoundary { job } => write!(
                f,
                "elastic: job {job}: no coordinated boundary snapshot \
                 predates the failure; cannot shrink"
            ),
            RunError::OverCapacity {
                rank,
                blocks,
                max_blocks,
            } => write!(
                f,
                "miniamr: the block exchange would leave rank {rank} holding {blocks} blocks, \
                 over --max_blocks {max_blocks}"
            ),
        }
    }
}

impl std::error::Error for RunError {}

/// Everything the elastic driver needs beyond the base [`Config`].
#[derive(Debug, Clone, Default)]
pub struct ElasticOpts {
    /// Planned resizes.
    pub plan: ResizePlan,
    /// Failure policy.
    pub on_peer_lost: PeerLostPolicy,
}

/// Where a rank's span resumes from, beside the stats so far: what one
/// span hands the next (possibly on another rank count) across world
/// teardown. `None` at [`crate::run_rank`]'s entry means "initial
/// conditions": build the state, run the initial refinement.
pub struct SpanStart {
    pub(crate) state: RankState,
    pub(crate) mesh_epoch: u64,
    /// The last validation baseline.
    pub(crate) prev_checksum: Option<Checkpoint>,
    /// The first timestep the span runs.
    pub(crate) next_ts: usize,
}

impl SpanStart {
    /// Initial conditions: the freshly built state at timestep 0, before
    /// the initial refinement, and empty stats.
    pub(crate) fn initial(cfg: &Config, comm: &Comm) -> (RunStats, SpanStart) {
        let state = RankState::init(cfg, comm.rank(), comm.size());
        let stats = RunStats {
            rank: state.rank,
            ..Default::default()
        };
        let start = SpanStart {
            state,
            mesh_epoch: 0,
            prev_checksum: None,
            next_ts: 0,
        };
        (stats, start)
    }
}

/// Per-run context threaded into the timestep loop: everything recovery
/// needs. Owned by the one [`run`] call that both publishes and reads it,
/// so concurrent runs in one process cannot see each other's recovery
/// points.
#[derive(Default)]
pub(crate) struct RunCtx {
    /// Publish a coordinated boundary snapshot at the top of every
    /// timestep (only needed when a shrink-on-failure recovery may have
    /// to rewind; the loop drains the rank first).
    pub publish_boundaries: bool,
    /// Rank → its newest boundary snapshots, oldest first.
    boundaries: Mutex<HashMap<usize, Vec<BoundarySnap>>>,
    /// The `--ckpt_freq` checkpoints: the latest per rank.
    pub checkpoints: CheckpointStore,
}

impl RunCtx {
    /// Publishes this rank's boundary snapshot for the timestep about to
    /// run. The caller guarantees quiescence (graph drained, delayed
    /// checksum flushed). With the ring full, the snapshot it evicts is
    /// retaken in place; only this rank's thread touches its ring during
    /// a run, so the eviction and the push need not share a lock.
    pub(crate) fn boundary(
        &self,
        state: &RankState,
        stats: &RunStats,
        mesh_epoch: u64,
        prev_checksum: &Option<Checkpoint>,
        next_ts: usize,
    ) {
        let evicted = {
            let mut reg = self.boundaries.lock();
            let snaps = reg.entry(state.rank).or_default();
            (snaps.len() >= BOUNDARY_HISTORY).then(|| snaps.remove(0).ck)
        };
        let snap = BoundarySnap::take(evicted, state, stats, mesh_epoch, prev_checksum, next_ts);
        self.boundaries
            .lock()
            .entry(state.rank)
            .or_default()
            .push(snap);
    }

    /// The newest boundary snapshot *common to all `n` ranks*: one
    /// snapshot per rank of the `n`-rank world, all taken at the top of the
    /// same timestep — what [`checkpoint::redistribute`] needs. Ranks
    /// progress at different speeds around a fault, so the newest common
    /// timestep is the coordinated recovery point. A ring may still hold
    /// snapshots of the world before a planned resize; they do not count.
    fn common_boundary(&self, n: usize) -> Option<Vec<BoundarySnap>> {
        let reg = self.boundaries.lock();
        let per_rank: Vec<Vec<&BoundarySnap>> = (0..n)
            .map(|r| Some(reg.get(&r)?.iter().filter(|s| s.ck.n_ranks == n).collect()))
            .collect::<Option<_>>()?;
        let common_ts = per_rank
            .iter()
            .map(|snaps| snaps.iter().map(|s| s.next_ts).collect::<BTreeSet<_>>())
            .reduce(|a, b| a.intersection(&b).copied().collect())?
            .into_iter()
            .next_back()?;
        Some(
            per_rank
                .iter()
                .map(|snaps| {
                    snaps
                        .iter()
                        .find(|s| s.next_ts == common_ts)
                        .map(|&s| s.clone())
                        .expect("timestep is common to all ranks")
                })
                .collect(),
        )
    }

    /// The abort policy's verdict on a lost world, reached with every
    /// rank stopped: the plan position, then the reporting rank's latest
    /// checkpoint restored and its digest re-verified (the restored state
    /// is dropped — there is no world left to resume it in).
    fn peer_lost(&self, (reports, mut lines): LostWorld) -> RunError {
        match self.checkpoints.latest(reports[0].reporter) {
            Some(ck) => {
                if let Err(mismatch) = ck.check(checkpoint::digest_of(&ck.restore())) {
                    return mismatch;
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
        RunError::PeerLost { reports, lines }
    }
}

/// What is left of a world that aborted on a lost peer: its reports and
/// its plan position.
type LostWorld = (Vec<PeerLostReport>, Vec<String>);

/// A coordinated per-rank snapshot taken at the top of a timestep: what a
/// resized world is respawned from, and the recovery point a
/// shrink-on-failure rewinds to.
#[derive(Clone)]
struct BoundarySnap {
    ck: Arc<RankCheckpoint>,
    stats: RunStats,
    prev_checksum: Option<Checkpoint>,
    next_ts: usize,
}

impl BoundarySnap {
    /// Takes the snapshot, into `old`'s storage when that is its last
    /// handle ([`RankCheckpoint::retake`]).
    fn take(
        old: Option<Arc<RankCheckpoint>>,
        state: &RankState,
        stats: &RunStats,
        mesh_epoch: u64,
        prev_checksum: &Option<Checkpoint>,
        next_ts: usize,
    ) -> BoundarySnap {
        // At the top of timestep `next_ts` the run has done this many
        // stages (the cadence numbers them from the run's start).
        let stage = next_ts * state.cfg.stages_per_ts;
        BoundarySnap {
            ck: Arc::new(RankCheckpoint::retake(
                old, state, next_ts, stage, mesh_epoch,
            )),
            stats: stats.clone(),
            prev_checksum: prev_checksum.clone(),
            next_ts,
        }
    }
}

/// Repartition → respawn: one resume point per rank of a world of `new_n`
/// ranks, from one coordinated snapshot per rank of the old world.
fn respawn(
    snaps: &[BoundarySnap],
    new_n: usize,
    balance: BalanceKind,
) -> Result<Vec<Option<(RunStats, SpanStart)>>, RunError> {
    let ckpts: Vec<Arc<RankCheckpoint>> = snaps.iter().map(|s| Arc::clone(&s.ck)).collect();
    let states = checkpoint::redistribute(&ckpts, new_n, balance)?;
    let starts = states.into_iter().enumerate().map(|(r, state)| {
        // Grown ranks inherit the replicated counters (checksums
        // history) from the last old rank.
        let src = &snaps[r.min(snaps.len() - 1)];
        let mut stats = src.stats.clone();
        stats.rank = r;
        let start = SpanStart {
            state,
            mesh_epoch: src.ck.mesh_epoch,
            prev_checksum: src.prev_checksum.clone(),
            next_ts: src.next_ts,
        };
        Some((stats, start))
    });
    Ok(starts.collect())
}

/// Runs one world segment of `[..ts_end)` and returns per-rank
/// `(stats, next start)` — or what the world left behind if it aborted on
/// a lost peer (`Ok(Err)`), or the [`RunError`] its ranks unwound with.
fn run_segment(
    cfg: &Config,
    n: usize,
    net: &NetworkModel,
    starts: Vec<Option<(RunStats, SpanStart)>>,
    ts_end: usize,
    ctx: &RunCtx,
) -> Result<Result<Vec<(RunStats, SpanStart)>, LostWorld>, RunError> {
    assert_eq!(starts.len(), n, "one resume point per rank");
    let world = World::with_chaos(n, net.clone(), cfg.chaos.clone());
    let slots = Mutex::new(starts);
    let run = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        world.run(|comm| {
            let start = slots.lock()[comm.rank()].take();
            crate::run_rank_span(cfg, comm, start, ts_end, ctx)
        })
    }));
    let payload = match run {
        Ok(results) => return Ok(Ok(results)),
        Err(payload) => match payload.downcast::<RunError>() {
            Ok(err) => return Err(*err),
            Err(payload) => payload,
        },
    };
    let reports = world.peer_lost_reports();
    if reports.is_empty() {
        // Not a peer-lost abort — an ordinary bug; don't mask it.
        std::panic::resume_unwind(payload);
    }
    Ok(Err((reports, world.chaos_plan_position())))
}

/// Runs the configured variant: the world starts at `n_ranks` (the
/// `npx*npy*npz` rank grid) and is resized at each [`ResizePlan`] event
/// and/or shrunk onto the survivors of a lost peer. Returns the final
/// world's per-rank statistics, or why the run stopped early. With an
/// empty plan this is one segment over the whole run — what
/// [`crate::run_world`] wraps.
pub fn run(
    cfg: &Config,
    n_ranks: usize,
    net: NetworkModel,
    opts: &ElasticOpts,
) -> Result<Vec<RunStats>, RunError> {
    assert_eq!(
        n_ranks,
        cfg.params.num_ranks(),
        "the initial world size must match the npx*npy*npz rank grid"
    );
    for &(ts, n) in &opts.plan.events {
        assert!(
            ts >= 1 && n >= 1,
            "resize points start at ts 1 (the initial world matches the rank grid) \
             and name at least one rank"
        );
    }
    let job = cfg.job_id();
    let shrink = opts.on_peer_lost == PeerLostPolicy::Shrink;
    let mut ctx = RunCtx {
        publish_boundaries: shrink && cfg.chaos.is_some(),
        ..RunCtx::default()
    };
    let mut seg_cfg = cfg.clone();
    if let Some(chaos) = seg_cfg.chaos.as_mut() {
        // Whatever the plan says, a lost peer must poison the world: the
        // ranks unwind and the policy is applied here.
        chaos.on_peer_lost = vmpi::PeerLostAction::AbortWorld;
    }

    let mut n = n_ranks;
    let mut ts = 0usize;
    let mut starts: Vec<Option<(RunStats, SpanStart)>> = (0..n).map(|_| None).collect();
    loop {
        let seg_end = opts
            .plan
            .events
            .iter()
            .map(|&(t, _)| t)
            .filter(|&t| t > ts && t < cfg.num_tsteps)
            .min()
            .unwrap_or(cfg.num_tsteps);
        match run_segment(&seg_cfg, n, &net, starts, seg_end, &ctx)? {
            Ok(results) => {
                if seg_end >= cfg.num_tsteps {
                    return Ok(results.into_iter().map(|(stats, _)| stats).collect());
                }
                // Planned resize: quiescence → checkpoint → repartition
                // → respawn.
                let new_n = opts
                    .plan
                    .events
                    .iter()
                    .filter(|&&(t, _)| t == seg_end)
                    .map(|&(_, m)| m)
                    .next_back()
                    .expect("segment ended at a resize point");
                let snaps: Vec<BoundarySnap> = results
                    .iter()
                    .map(|(stats, c)| {
                        assert_eq!(c.next_ts, seg_end, "a rank stopped off the resize point");
                        BoundarySnap::take(
                            None,
                            &c.state,
                            stats,
                            c.mesh_epoch,
                            &c.prev_checksum,
                            seg_end,
                        )
                    })
                    .collect();
                starts = respawn(&snaps, new_n, cfg.balance)?;
                (ts, n) = (seg_end, new_n);
            }
            Err(lost) if !shrink => return Err(ctx.peer_lost(lost)),
            Err((reports, _)) => {
                let dead: BTreeSet<usize> = reports.iter().map(|r| r.peer).collect();
                let new_n = n - dead.len();
                assert!(new_n >= 1, "no surviving ranks to shrink onto");
                eprintln!(
                    "elastic: job {job}: lost {:?}; shrinking {n} -> {new_n} ranks",
                    dead
                );
                // A peer that dies before every rank published its first
                // boundary (e.g. during initial refinement) leaves no
                // coordinated recovery point: stop rather than resume
                // from nowhere.
                let Some(snaps) = ctx.common_boundary(n) else {
                    return Err(RunError::NoBoundary { job });
                };
                starts = respawn(&snaps, new_n, cfg.balance)?;
                (ts, n) = (snaps[0].next_ts, new_n);
                // The chaos plan fired; the survivors resume fault-free
                // and no further rewind can be needed.
                seg_cfg.chaos = None;
                ctx.publish_boundaries = false;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn publishing() -> RunCtx {
        RunCtx {
            publish_boundaries: true,
            ..RunCtx::default()
        }
    }

    #[test]
    fn parse_resize_events() {
        assert_eq!(ResizePlan::parse_event("3:8"), Ok((3, 8)));
        assert!(ResizePlan::parse_event("0:8").is_err());
        assert!(ResizePlan::parse_event("3:0").is_err());
        assert!(ResizePlan::parse_event("3").is_err());
        assert!(ResizePlan::parse_event("x:8").is_err());
    }

    #[test]
    fn common_boundary_picks_newest_shared_timestep() {
        let cfg = crate::Config::smoke_test();
        let s0 = crate::rank::RankState::init(&cfg, 0, 2);
        let s1 = crate::rank::RankState::init(&cfg, 1, 2);
        let ctx = publishing();
        let stats = RunStats::default();
        // Rank 0 reaches ts 1..=3, rank 1 only ts 1..=2.
        for t in 1..=3usize {
            ctx.boundary(&s0, &stats, 0, &None, t);
        }
        for t in 1..=2usize {
            ctx.boundary(&s1, &stats, 0, &None, t);
        }
        let snaps = ctx.common_boundary(2).expect("common timestep exists");
        assert_eq!(snaps.len(), 2);
        assert!(snaps.iter().all(|s| s.next_ts == 2));
        assert_eq!(snaps[0].ck.rank, 0);
        assert_eq!(snaps[1].ck.rank, 1);
        // A third rank never published: no coordinated point.
        assert!(ctx.common_boundary(3).is_none());
    }

    /// Snapshots a rank's ring kept from the world before a resize are no
    /// coordinated point of the world after it: blocks of a larger world's
    /// other ranks would be missing from the set.
    #[test]
    fn common_boundary_ignores_an_earlier_world() {
        let cfg = crate::Config::smoke_test();
        let stats = RunStats::default();
        let ctx = publishing();
        for r in 0..2 {
            let mut old = crate::rank::RankState::init(&cfg, r, 2);
            old.n_ranks = 4;
            for t in 1..=2usize {
                ctx.boundary(&old, &stats, 0, &None, t);
            }
        }
        let s0 = crate::rank::RankState::init(&cfg, 0, 2);
        let s1 = crate::rank::RankState::init(&cfg, 1, 2);
        ctx.boundary(&s0, &stats, 1, &None, 3);
        assert!(ctx.common_boundary(2).is_none());
        ctx.boundary(&s1, &stats, 1, &None, 3);
        let snaps = ctx.common_boundary(2).expect("the new world's boundary");
        assert!(snaps.iter().all(|s| s.next_ts == 3 && s.ck.n_ranks == 2));
    }

    /// A full ring retakes the snapshot it evicts: the newest snapshot
    /// lives in the storage of the one that fell out.
    #[test]
    fn boundary_ring_recycles_the_evicted_snapshot() {
        let cfg = crate::Config::smoke_test();
        let s0 = crate::rank::RankState::init(&cfg, 0, 2);
        let ctx = publishing();
        let stats = RunStats::default();
        for t in 1..=BOUNDARY_HISTORY {
            ctx.boundary(&s0, &stats, 0, &None, t);
        }
        let oldest = ctx.boundaries.lock()[&0][0].ck.cells_ptr();
        ctx.boundary(&s0, &stats, 0, &None, 9);
        let reg = ctx.boundaries.lock();
        let newest = &reg[&0].last().unwrap().ck;
        assert_eq!((newest.tstep, newest.cells_ptr()), (9, oldest));
        assert!(newest.verify().is_ok());
    }

    #[test]
    fn boundary_history_is_bounded() {
        let cfg = crate::Config::smoke_test();
        let s0 = crate::rank::RankState::init(&cfg, 0, 2);
        let ctx = publishing();
        let stats = RunStats::default();
        for t in 1..=10usize {
            ctx.boundary(&s0, &stats, 0, &None, t);
        }
        let reg = ctx.boundaries.lock();
        let snaps = &reg[&0];
        assert_eq!(snaps.len(), BOUNDARY_HISTORY);
        assert_eq!(snaps.last().unwrap().next_ts, 10);
    }

    /// With delayed validation one checksum point is always in flight.
    /// Publishing a boundary must flush it first — a recovery resumes
    /// from the snapshot's stats, and a point missing there would be
    /// missing from the digest — and the early flush must not change the
    /// digest of an undisturbed run.
    #[test]
    fn boundary_publication_flushes_the_delayed_checksum() {
        let mut cfg = crate::Config::smoke_test();
        cfg.variant = crate::Variant::DataFlow;
        cfg.delayed_checksum = true;
        cfg.checksum_freq = 2;
        let fixed = crate::run_world(&cfg, 2, NetworkModel::instant());

        let ctx = publishing();
        let stats = World::new(2, NetworkModel::instant())
            .run(|comm| crate::run_rank_span(&cfg, comm, None, cfg.num_tsteps, &ctx).0);
        assert_eq!(stats[0].checksums, fixed[0].checksums);
        assert_eq!(stats[0].checksum_digest(), fixed[0].checksum_digest());

        let last_ts = cfg.num_tsteps - 1;
        let points_before = last_ts * cfg.stages_per_ts / cfg.checksum_freq;
        for snap in ctx.common_boundary(2).expect("both ranks published") {
            assert_eq!(snap.next_ts, last_ts);
            assert_eq!(snap.stats.checksums.len(), points_before);
        }
    }
}
