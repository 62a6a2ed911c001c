//! Replay must be invisible to the numerics: `--replay on` and
//! `--replay off` produce bitwise-identical checksum digests, including
//! across regrids (trace invalidation) and checkpoint publication, and
//! both match the MPI-only reference.

use miniamr::config::{Config, Variant};
use miniamr::stats::RunStats;
use vmpi::NetworkModel;

fn base_config() -> Config {
    let mut cfg = Config::smoke_test();
    cfg.variant = Variant::DataFlow;
    // Two regrid epochs of five timesteps, each replaying from its
    // second (later with delayed validation, whose first epoch opens
    // without a waiter), with regrids and checkpoints mid-run exercising
    // invalidation.
    cfg.num_tsteps = 10;
    cfg.refine_freq = 5;
    cfg.ckpt_freq = 8;
    cfg.delayed_checksum = true;
    cfg
}

fn run(cfg: &Config) -> Vec<RunStats> {
    let stats = miniamr::run_world(cfg, cfg.params.num_ranks(), NetworkModel::instant());
    for s in &stats {
        assert_eq!(s.checksums_failed, 0, "rank {} failed validations", s.rank);
        assert!(s.checksums_passed > 0, "rank {} validated nothing", s.rank);
    }
    stats
}

#[test]
fn replay_on_off_digests_match() {
    let mut on = base_config();
    on.replay = true;
    let mut off = base_config();
    off.replay = false;

    let stats_on = run(&on);
    let stats_off = run(&off);

    let d_on = stats_on[0].checksum_digest();
    let d_off = stats_off[0].checksum_digest();
    for s in stats_on.iter().chain(&stats_off) {
        assert_eq!(
            s.checksum_digest(),
            d_on,
            "digest differs on rank {}",
            s.rank
        );
    }
    assert_eq!(d_on, d_off, "replay changed the numerics");

    // The replay run must actually have replayed (otherwise this parity
    // check is vacuous) and invalidated across the regrids.
    let replayed: u64 = stats_on.iter().map(|s| s.tasks_replayed).sum();
    let hits: u64 = stats_on.iter().map(|s| s.trace_hits).sum();
    let invalidations: u64 = stats_on.iter().map(|s| s.trace_invalidations).sum();
    assert!(replayed > 0, "replay never engaged: {stats_on:?}");
    assert!(hits > 0, "no full-iteration trace hit");
    assert!(invalidations > 0, "regrids did not invalidate the trace");

    // And the replay-off run must not have.
    assert_eq!(stats_off.iter().map(|s| s.tasks_replayed).sum::<u64>(), 0);
    assert_eq!(stats_off.iter().map(|s| s.trace_hits).sum::<u64>(), 0);
}

/// Cross-variant anchor: the data-flow variant with replay matches the
/// serial MPI-only reference bit for bit.
#[test]
fn replayed_dataflow_matches_mpi_only() {
    let mut df = base_config();
    df.replay = true;
    let mut mpi = base_config();
    mpi.variant = Variant::MpiOnly;
    mpi.delayed_checksum = false;

    let d_df = run(&df)[0].checksum_digest();
    let d_mpi = run(&mpi)[0].checksum_digest();
    assert_eq!(
        d_df, d_mpi,
        "replayed data-flow diverged from the reference"
    );
}

/// The `tasks_fine` shape — 4³-cell blocks of 4 variables, two refinement
/// levels, per-face messages over separate buffers, every intra-rank item
/// below the grain floor — over two mesh epochs of four timesteps with a
/// regrid between them, two checksum points per timestep.
fn fine_config() -> Config {
    let mut params = Config::smoke_test().params;
    (params.init_x, params.num_vars, params.num_refine) = (2, 4, 2);
    let mut cfg = Config::four_spheres(params, 8);
    cfg.variant = Variant::DataFlow;
    cfg.stages_per_ts = 4;
    cfg.checksum_freq = 2;
    cfg.refine_freq = 4;
    cfg.send_faces = true;
    cfg.separate_buffers = true;
    cfg.workers = 1;
    cfg
}

/// Re-arming is invisible to the numerics whichever way the cache goes:
/// hits from the second timestep of an epoch (defaults, three workers), a
/// waiter task between re-armed phases and tasks that outlive their
/// timestep (delayed validation), a stream whose close fails (uneven
/// variable groups) and one that never repeats (checksum points drifting
/// through the timestep) all reproduce the MPI-only digest.
#[test]
fn rearmed_fine_mesh_matches_mpi_only_under_every_option() {
    let sum = |stats: &[RunStats], f: fn(&RunStats) -> u64| stats.iter().map(f).sum::<u64>();
    let mut mpi = fine_config();
    mpi.variant = Variant::MpiOnly;
    let reference = run(&mpi);
    let blocks = |stats: &[RunStats]| stats.iter().map(|s| s.final_blocks).sum::<usize>();

    let defaults = run(&fine_config());
    assert_eq!(
        defaults[0].checksum_digest(),
        reference[0].checksum_digest()
    );
    assert_eq!(blocks(&defaults), blocks(&reference));
    // Two ranks, two epochs of four timesteps: every timestep but an
    // epoch's first is a hit, and with eager checksums draining the graph
    // every replayed task reuses its predecessor's object.
    assert_eq!(sum(&defaults, |s| s.trace_invalidations), 2 * 2);
    assert_eq!(sum(&defaults, |s| s.trace_hits), 2 * 2 * (4 - 1));
    assert_eq!(sum(&defaults, |s| s.trace_records), 2 * 2);
    assert_eq!(sum(&defaults, |s| s.trace_freezes), 2 * 2);
    let replayed = sum(&defaults, |s| s.tasks_replayed);
    assert!(replayed > 0);
    assert_eq!(sum(&defaults, |s| s.tasks_rearmed), replayed);

    type Tweak = fn(&mut Config);
    let options: [(&str, Tweak); 5] = [
        ("delayed_checksum", |c| c.delayed_checksum = true),
        ("comm_vars 3", |c| c.comm_vars = 3),
        ("checksum_freq 3", |c| c.checksum_freq = 3),
        ("3 workers", |c| c.workers = 3),
        ("replay off", |c| c.replay = false),
    ];
    for (name, tweak) in options {
        let (mut df, mut mpi) = (fine_config(), fine_config());
        tweak(&mut df);
        tweak(&mut mpi);
        mpi.variant = Variant::MpiOnly;
        mpi.delayed_checksum = false;
        let (df, mpi) = (run(&df), run(&mpi));
        assert_eq!(
            df[0].checksum_digest(),
            mpi[0].checksum_digest(),
            "data-flow with {name} diverged from the reference"
        );
        assert_eq!(df[0].checksums.len(), mpi[0].checksums.len(), "{name}");
    }
}

/// A timestep alone in its mesh epoch has nothing to replay it, so it
/// opens no trace scope: with a regrid after every timestep nothing is
/// recorded, every regrid still invalidates, and the run is MPI-only's.
#[test]
fn a_regrid_every_timestep_records_no_trace() {
    let sum = |stats: &[RunStats], f: fn(&RunStats) -> u64| stats.iter().map(f).sum::<u64>();
    let mut df = fine_config();
    (df.num_tsteps, df.refine_freq) = (4, 1);
    let mut mpi = df.clone();
    mpi.variant = Variant::MpiOnly;
    let (df, mpi) = (run(&df), run(&mpi));
    assert_eq!(df[0].checksum_digest(), mpi[0].checksum_digest());
    assert_eq!(sum(&df, |s| s.trace_records), 0);
    assert_eq!(sum(&df, |s| s.trace_hits), 0);
    assert_eq!(sum(&df, |s| s.trace_invalidations), 2 * 4);
}
