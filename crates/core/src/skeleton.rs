//! The run skeleton, written once: the timestep cadence (Algorithm 1,
//! with the barriers of Algorithm 4 and the delayed validation of §IV-C)
//! and the regrid's directory walk (§IV-B). The live loop
//! (`variant::run_span`), the static verifier ([`crate::staticcheck`])
//! and the simulator (`simnet`) walk them; each only says what it does
//! at a [`Step`] or a [`RegridHooks`] point.

use crate::config::{BalanceKind, Config, Variant};
use crate::exchange::{balance_moves, merge_gather_moves, Move};
use amr_mesh::directory::{MeshDirectory, RefinePlan};
use amr_mesh::Object;

/// One point of the run skeleton, in program order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Step {
    /// The drained top of timestep `ts`: a boundary snapshot.
    Boundary(usize),
    /// Timestep `ts` begins. `traced`: a neighbouring timestep of its
    /// mesh epoch, in the span, spawns the same stream, so a trace
    /// recorded in one of the two replays in the other.
    Timestep {
        /// The timestep.
        ts: usize,
        /// A data-flow rank opens a trace scope over it.
        traced: bool,
    },
    /// Per variable group, a ghost exchange then a stencil sweep; stages
    /// are numbered across the run from 1.
    Stage(usize),
    /// Take the local sums of a checksum point.
    Sums,
    /// Block until all submitted work has completed.
    Wait,
    /// Block until the checksum slots are written.
    WaitSums,
    /// Validate the oldest checksum point not yet validated.
    Validate,
    /// The same, outside a checksum point (a delayed point's flush).
    Flush,
    /// Take a rank checkpoint at (timestep, stage).
    Checkpoint(usize, usize),
    /// Every stage of the timestep has been issued.
    TimestepEnd,
    /// Advance the objects one timestep, then [`Walk::regrid`].
    Regrid,
}

/// The steps of timesteps `ts_start..ts_end`, then the final drain: a
/// checksum point every `checksum_freq` stages, a checkpoint every
/// `ckpt_freq` (none at 0), a regrid every `refine_freq` timesteps.
/// `drain_each_ts` starts each timestep drained (boundary snapshots).
/// Data-flow with `delayed_checksum` validates a point at the next one.
/// A timestep is traced when the timestep before or after it, in the
/// span and the same mesh epoch, spawns the same stream: the same
/// sequence of [`Step::Stage`], [`Step::Sums`] and [`Step::WaitSums`]
/// (whose wait spawns a waiter task; no other step spawns tasks).
/// Checksum points that fall at different stages of consecutive
/// timesteps leave them untraced.
pub fn cadence(cfg: &Config, ts_start: usize, ts_end: usize, drain_each_ts: bool) -> Vec<Step> {
    use Step::*;
    let delayed = cfg.variant == Variant::DataFlow && cfg.delayed_checksum;
    let (mut pending, mut steps) = (false, Vec::new());
    for ts in ts_start..ts_end {
        // A boundary snapshot needs quiescent blocks and a flushed delayed
        // checksum. The flush only records the delayed validation a little
        // earlier — same values, same order — so the digest is unaffected.
        if drain_each_ts {
            steps.push(Wait);
            if std::mem::take(&mut pending) {
                steps.push(Flush);
            }
            steps.push(Boundary(ts));
        }
        steps.push(Timestep { ts, traced: false });
        for stage in ts * cfg.stages_per_ts + 1..=(ts + 1) * cfg.stages_per_ts {
            steps.push(Stage(stage));
            if stage.is_multiple_of(cfg.checksum_freq) {
                if !delayed {
                    steps.extend([Sums, Wait, Validate]);
                } else {
                    // The previous point is validated before the new one's
                    // sums are submitted: the slots object is shared, so
                    // the waiter must see only earlier writers.
                    if pending {
                        steps.extend([WaitSums, Validate]);
                    }
                    steps.push(Sums);
                    pending = true;
                }
            }
            if cfg.ckpt_freq != 0 && stage.is_multiple_of(cfg.ckpt_freq) {
                steps.extend([Wait, Checkpoint(ts, stage)]);
            }
        }
        steps.push(TimestepEnd);
        if (ts + 1).is_multiple_of(cfg.refine_freq) {
            steps.extend([Wait, Regrid]);
        }
    }
    steps.push(Wait);
    if pending {
        steps.push(Flush);
    }
    for epoch in steps.split_mut(|s| *s == Regrid) {
        // Each timestep's spawning steps, stage numbers aside.
        let mut streams: Vec<Vec<Step>> = Vec::new();
        for step in epoch.iter() {
            match (step, streams.last_mut()) {
                (Timestep { .. }, _) => streams.push(Vec::new()),
                (Stage(_), Some(stream)) => stream.push(Stage(0)),
                (Sums | WaitSums, Some(stream)) => stream.push(*step),
                _ => {}
            }
        }
        let repeats = |i: usize| {
            (i > 0 && streams[i - 1] == streams[i]) || streams.get(i + 1) == Some(&streams[i])
        };
        let timesteps = epoch.iter_mut().filter_map(|s| match s {
            Timestep { traced, .. } => Some(traced),
            _ => None,
        });
        for (i, traced) in timesteps.enumerate() {
            *traced = repeats(i);
        }
    }
    steps
}

/// What a caller of the regrid's directory walk does where callers
/// differ; the walk itself only changes the directory.
pub trait RegridHooks {
    /// The directory the walk evolves, and the objects it refines around.
    fn mesh(&mut self) -> (&mut MeshDirectory, &[Object]);

    /// `moves` (a plan's merge gathering, or the load balance) are about
    /// to change owners.
    fn moves(&mut self, _moves: &[Move]) {}

    /// `plan` is about to be applied; its merge octets are gathered.
    fn plan(&mut self, _plan: &RefinePlan) {}
}

/// One directory walk: its plan rounds, then its load balance.
pub struct Walk {
    rounds: usize,
    balance: BalanceKind,
    n_ranks: usize,
}

impl Walk {
    /// The initial refinement: up to `num_refine + 1` plans, no balance.
    pub fn initial(cfg: &Config) -> Walk {
        Walk {
            rounds: cfg.params.num_refine as usize + 1,
            balance: BalanceKind::None,
            n_ranks: 1,
        }
    }

    /// A regrid on `n_ranks` ranks: up to `block_change` plans, then the
    /// `cfg.balance` moves.
    pub fn regrid(cfg: &Config, n_ranks: usize) -> Walk {
        Walk {
            rounds: cfg.params.block_change.max(1) as usize,
            balance: cfg.balance,
            n_ranks,
        }
    }

    /// Each round plans (an empty plan ends the walk on every rank at
    /// once), gathers the plan's merge octets and applies it; the load
    /// balance comes last. The directory work is a `regrid_plan` phase.
    pub fn run(self, h: &mut impl RegridHooks) {
        for _ in 0..self.rounds {
            let (dir, objects) = h.mesh();
            let (plan, gathers) = obs::phase_span("regrid_plan", || {
                let plan = dir.plan_refinement(objects);
                let gathers = merge_gather_moves(dir, &plan, 0);
                (plan, gathers)
            });
            if plan.is_empty() {
                break;
            }
            relocate(h, gathers);
            h.plan(&plan);
            obs::phase_span("regrid_plan", || h.mesh().0.apply_plan(&plan));
        }
        let moves = obs::phase_span("regrid_plan", || {
            balance_moves(h.mesh().0, self.balance, self.n_ranks, 0)
        });
        relocate(h, moves);
    }
}

fn relocate(h: &mut impl RegridHooks, moves: Vec<Move>) {
    h.moves(&moves);
    for m in moves {
        h.mesh().0.set_owner(m.block, m.to);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn steps(cfg: &Config, drain: bool) -> Vec<Step> {
        cadence(cfg, 0, cfg.num_tsteps, drain)
    }

    #[test]
    fn every_timestep_runs_its_stages_in_order() {
        let cfg = Config::smoke_test();
        let stages: Vec<usize> = (steps(&cfg, false).into_iter())
            .filter_map(|s| match s {
                Step::Stage(n) => Some(n),
                _ => None,
            })
            .collect();
        let all: Vec<usize> = (1..=cfg.num_tsteps * cfg.stages_per_ts).collect();
        assert_eq!(stages, all);
    }

    #[test]
    fn delayed_validation_is_data_flow_only() {
        let mut cfg = Config::smoke_test();
        cfg.delayed_checksum = true;
        assert!(!steps(&cfg, false).contains(&Step::WaitSums));
        cfg.variant = Variant::DataFlow;
        let s = steps(&cfg, false);
        assert!(s.contains(&Step::WaitSums));
        assert_eq!(s[s.len() - 2..], [Step::Wait, Step::Flush]);
    }

    /// The timesteps of `ts_start..ts_end` that open a trace scope.
    fn traced(refine_freq: usize, ts_start: usize, ts_end: usize) -> Vec<usize> {
        let cfg = Config {
            refine_freq,
            ..Config::smoke_test()
        };
        traced_in(&cfg, ts_start, ts_end)
    }

    fn traced_in(cfg: &Config, ts_start: usize, ts_end: usize) -> Vec<usize> {
        (cadence(cfg, ts_start, ts_end, false).into_iter())
            .filter_map(|s| match s {
                Step::Timestep { ts, traced: true } => Some(ts),
                _ => None,
            })
            .collect()
    }

    /// Only a timestep with another of its mesh epoch in the span can
    /// replay, so only such a timestep is traced.
    #[test]
    fn a_timestep_is_traced_when_its_epoch_repeats_in_the_span() {
        // A regrid after every timestep: no epoch repeats.
        assert_eq!(traced(1, 0, 8), Vec::<usize>::new());
        // Two epochs of four.
        assert_eq!(traced(4, 0, 8), (0..8).collect::<Vec<_>>());
        // The span ends one timestep into the second epoch.
        assert_eq!(traced(4, 0, 5), [0, 1, 2, 3]);
        // Resumed mid-epoch: one timestep of the first, then a full one.
        assert_eq!(traced(4, 3, 8), [4, 5, 6, 7]);
        assert_eq!(traced(4, 2, 8), (2..8).collect::<Vec<_>>());
        // Without regrids the span is one epoch.
        assert_eq!(traced(0, 0, 2), [0, 1]);
        assert_eq!(traced(0, 0, 1), Vec::<usize>::new());
    }

    /// A timestep is traced only when a neighbour of its epoch takes its
    /// checksum points at the same stages: with S stages a timestep and a
    /// point every C stages, the points drift through the timesteps
    /// unless C divides S.
    #[test]
    fn a_timestep_is_traced_when_a_neighbour_spawns_the_same_stream() {
        let traced = |stages_per_ts, checksum_freq| {
            let cfg = Config {
                stages_per_ts,
                checksum_freq,
                refine_freq: 1000,
                ..Config::smoke_test()
            };
            traced_in(&cfg, 0, 12)
        };
        // S=4, C=3: no two consecutive timesteps take their points at the
        // same stages.
        assert_eq!(traced(4, 3), Vec::<usize>::new());
        // S=4, C=12: every third timestep ends on a point; the two before
        // it repeat each other.
        assert_eq!(traced(4, 12), [0, 1, 3, 4, 6, 7, 9, 10]);
        // S=10, C=5: two points in every timestep.
        assert_eq!(traced(10, 5), (0..12).collect::<Vec<_>>());
        // Delayed, the run's first point waits on no earlier one.
        let cfg = Config {
            variant: Variant::DataFlow,
            delayed_checksum: true,
            stages_per_ts: 10,
            checksum_freq: 5,
            refine_freq: 1000,
            ..Config::smoke_test()
        };
        assert_eq!(traced_in(&cfg, 0, 12), (1..12).collect::<Vec<_>>());
    }

    #[test]
    fn a_drained_timestep_starts_with_nothing_pending() {
        let mut cfg = Config::smoke_test();
        cfg.variant = Variant::DataFlow;
        cfg.delayed_checksum = true;
        let s = steps(&cfg, true);
        // Each boundary flushes the previous timestep's point, so no
        // checksum point ever waits on an earlier one.
        assert!(!s.contains(&Step::WaitSums));
        let boundaries = s.iter().filter(|s| matches!(s, Step::Boundary(_))).count();
        assert_eq!(boundaries, cfg.num_tsteps);
    }
}
