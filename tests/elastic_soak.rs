//! Elastic service mode, end to end: malleable rank counts must never
//! change the physics.
//!
//! The hard guarantee under test: a run that grows or shrinks its world
//! mid-flight — by plan (`--resize_at`) or by failure (`--on_peer_lost
//! shrink`) — produces a final checksum digest **bitwise identical** to
//! the fixed-rank, fault-free run of the same scenario. The digest is
//! ownership-invariant (per-block sums folded in global block-id order),
//! a resize moves block data without touching a cell, and recovery
//! rewinds to a coordinated timestep boundary; any divergence means one
//! of those three pillars cracked.
//!
//! The multi-job tests run several complete, concurrently-resizing
//! scenario instances in one process, which is what forces checkpoints
//! and boundary snapshots to belong to the run, and a lost peer to stop
//! only the run that lost it.

use amr_mesh::MeshParams;
use miniamr::{Config, ElasticOpts, JobCtx, PeerLostPolicy, ResizePlan, RunError, Variant};
use std::time::Duration;
use vmpi::{ChaosConfig, NetworkModel};

/// 2-rank base scenario (the smoke mesh): small enough to run many
/// elastic permutations, refining enough to exercise regrids.
fn base_cfg() -> Config {
    let mut cfg = Config::smoke_test();
    cfg.num_tsteps = 6;
    cfg.stages_per_ts = 3;
    cfg.checksum_freq = 3;
    cfg.refine_freq = 2;
    cfg.workers = 2;
    cfg
}

/// 4-rank scenario for the shrink-on-failure tests (a crash needs
/// survivors worth shrinking onto).
fn quad_cfg() -> Config {
    let params = MeshParams {
        npx: 2,
        npy: 2,
        npz: 1,
        init_x: 1,
        init_y: 1,
        init_z: 2,
        nx: 4,
        ny: 4,
        nz: 4,
        num_vars: 2,
        num_refine: 1,
        block_change: 1,
    };
    let mut cfg = Config::single_sphere(params, 6);
    cfg.stages_per_ts = 3;
    cfg.checksum_freq = 3;
    cfg.refine_freq = 2;
    cfg.workers = 2;
    cfg
}

fn fixed_digest(cfg: &Config, variant: Variant) -> u64 {
    let mut cfg = cfg.clone();
    cfg.variant = variant;
    let stats = miniamr::run_world(&cfg, cfg.params.num_ranks(), NetworkModel::instant());
    assert!(stats.iter().all(|s| s.checksums_failed == 0));
    stats[0].checksum_digest()
}

fn elastic_digest(cfg: &Config, variant: Variant, opts: &ElasticOpts) -> u64 {
    let mut cfg = cfg.clone();
    cfg.variant = variant;
    let stats = miniamr::elastic::run(&cfg, cfg.params.num_ranks(), NetworkModel::instant(), opts)
        .expect("run completes");
    assert!(
        stats.iter().all(|s| s.checksums_failed == 0),
        "elastic run failed validation"
    );
    // The final world's ranks must agree on the digest (it is broadcast).
    for s in &stats[1..] {
        assert_eq!(s.checksum_digest(), stats[0].checksum_digest());
    }
    stats[0].checksum_digest()
}

#[test]
fn grow_and_shrink_match_fixed_run_all_variants() {
    let base = base_cfg();
    for variant in [Variant::MpiOnly, Variant::ForkJoin, Variant::DataFlow] {
        let reference = fixed_digest(&base, variant);
        // Grow 2->6, shrink 6->3, shrink 3->2: exercises both directions
        // and a final world smaller than the start.
        let opts = ElasticOpts {
            plan: ResizePlan::default().at(2, 6).at(4, 3).at(5, 2),
            on_peer_lost: PeerLostPolicy::Abort,
        };
        let got = elastic_digest(&base, variant, &opts);
        assert_eq!(
            got, reference,
            "variant {variant:?}: elastic digest diverged from fixed-rank run"
        );
    }
}

#[test]
fn every_single_resize_point_is_digest_neutral() {
    // Property over the resize point: wherever the boundary falls
    // relative to regrids (refine_freq = 2 puts regrids at ts 2 and 4),
    // the digest must not move. This pins the checkpoint/restore
    // machinery across *changed* mesh epochs: resizing right after a
    // regrid restores a mesh that differs structurally from the initial
    // one, and the replay traces recorded before the boundary must not
    // leak through it.
    let base = base_cfg();
    let reference = fixed_digest(&base, Variant::DataFlow);
    for ts in 1..base.num_tsteps {
        for n in [3, 4] {
            let opts = ElasticOpts {
                plan: ResizePlan::default().at(ts, n),
                on_peer_lost: PeerLostPolicy::Abort,
            };
            let got = elastic_digest(&base, Variant::DataFlow, &opts);
            assert_eq!(
                got, reference,
                "resize to {n} ranks before ts {ts} changed the digest"
            );
        }
    }
}

#[test]
fn job_scoped_resize_across_regrid_boundary_matches_fixed_digest() {
    // Each resize renames every block uid, so dependency traces cached
    // before it would be structurally stale; the resumed span builds a
    // fresh runtime and must land on the fixed-run digest.
    let base = base_cfg();
    let reference = fixed_digest(&base, Variant::DataFlow);
    let mut cfg = base.clone();
    cfg.job = Some(JobCtx::new(7, 0));
    let opts = ElasticOpts {
        // ts 3 is right after the ts-2 regrid: the restored mesh's epoch
        // differs from the recorded traces' world.
        plan: ResizePlan::default().at(3, 4),
        on_peer_lost: PeerLostPolicy::Abort,
    };
    let got = elastic_digest(&cfg, Variant::DataFlow, &opts);
    assert_eq!(got, reference);
}

#[test]
fn four_concurrent_resizing_jobs_agree() {
    // The soak harness core: >= 4 complete scenario instances resizing
    // concurrently in one process. Each run owning its checkpoints and
    // boundary snapshots is exactly what this breaks without.
    let base = base_cfg();
    let reference = fixed_digest(&base, Variant::DataFlow);
    let n_ranks = base.params.num_ranks();
    let handles: Vec<_> = (0..4u64)
        .map(|j| {
            let mut cfg = base.clone();
            cfg.variant = Variant::DataFlow;
            cfg.job = Some(JobCtx::new(j, (j as u32) * n_ranks as u32));
            // Different jobs resize at different points (and one not at
            // all) so their worlds are permanently out of lockstep.
            let plan = match j {
                0 => ResizePlan::default(),
                1 => ResizePlan::default().at(2, 4),
                2 => ResizePlan::default().at(3, 5).at(5, 2),
                _ => ResizePlan::default().at(1, 3).at(4, 6),
            };
            std::thread::spawn(move || {
                let opts = ElasticOpts {
                    plan,
                    on_peer_lost: PeerLostPolicy::Abort,
                };
                let stats = miniamr::elastic::run(&cfg, n_ranks, NetworkModel::instant(), &opts)
                    .expect("run completes");
                assert!(stats.iter().all(|s| s.checksums_failed == 0));
                stats[0].checksum_digest()
            })
        })
        .collect();
    for (j, h) in handles.into_iter().enumerate() {
        let got = h.join().expect("job thread panicked");
        assert_eq!(got, reference, "job {j} diverged from the fixed-rank run");
    }
}

#[test]
fn shrink_on_failure_reproduces_fixed_digest() {
    // Kill rank 3's NIC mid-run; the shrink policy must rewind the
    // survivors to the latest coordinated boundary and still land on the
    // fault-free fixed-rank digest, for every variant (the data-flow
    // variant additionally exercises the poisoned-runtime unwind through
    // tampi holds and taskwait).
    let base = quad_cfg();
    for variant in [Variant::MpiOnly, Variant::ForkJoin, Variant::DataFlow] {
        let reference = fixed_digest(&base, variant);
        let mut cfg = base.clone();
        cfg.variant = variant;
        cfg.chaos = Some(ChaosConfig {
            seed: 7,
            crash_rank: Some(3),
            // Past the initial refinement exchange (so at least one
            // coordinated boundary exists) and well before the run ends
            // (rank 3 sends ~80 frames total in this scenario).
            crash_after: 40,
            retry_budget: 4,
            rto: Duration::from_millis(2),
            ..ChaosConfig::default()
        });
        let opts = ElasticOpts {
            plan: ResizePlan::default(),
            on_peer_lost: PeerLostPolicy::Shrink,
        };
        let stats =
            miniamr::elastic::run(&cfg, cfg.params.num_ranks(), NetworkModel::instant(), &opts)
                .expect("the survivors finish the run");
        // The world shrank: fewer ranks than the grid came back.
        assert!(
            stats.len() < cfg.params.num_ranks(),
            "variant {variant:?}: the world never shrank (crash too late?)"
        );
        assert!(stats.iter().all(|s| s.checksums_failed == 0));
        assert_eq!(
            stats[0].checksum_digest(),
            reference,
            "variant {variant:?}: shrink-on-failure diverged from the fixed-rank run"
        );
    }
}

#[test]
fn disabled_path_is_the_fixed_run() {
    // No plan, abort policy, no job: there is no short-circuit — one
    // driver runs both, and `run_world` is `elastic::run` with default
    // options — so parity here pins that default options add nothing to
    // the fixed-rank run the benchmark times.
    let base = base_cfg();
    let opts = ElasticOpts::default();
    for variant in [Variant::MpiOnly, Variant::DataFlow] {
        assert_eq!(
            elastic_digest(&base, variant, &opts),
            fixed_digest(&base, variant)
        );
    }
}

/// The unrecoverable-crash scenario of `scripts/ci.sh`, flag for flag (the
/// hang fixed with this test needs its message sizes and its timing): two
/// ranks, and rank 1's NIC dies on its tenth frame, in the first timestep.
fn early_crash_cfg(variant: Variant) -> Config {
    let mut sc = miniamr::cli::ScenarioArgs::default();
    (sc.params.init_x, sc.params.init_y, sc.params.init_z) = (2, 2, 2);
    (sc.num_tsteps, sc.stages_per_ts, sc.max_blocks) = (4, 4, 600);
    sc.variant = variant;
    let mut cfg = sc.config().expect("valid scenario");
    cfg.chaos = Some(ChaosConfig {
        seed: 42,
        crash_rank: Some(1),
        crash_after: 10,
        retry_budget: 3,
        rto: Duration::from_millis(1),
        ..ChaosConfig::default()
    });
    cfg
}

/// The digest and the size of the world that finished, or why none did.
/// On the CLI's network: faces above the eager threshold are rendezvous
/// sends whose requests are in flight — bound to tasks — when the peer
/// dies.
fn run_to_outcome(cfg: &Config, opts: &ElasticOpts) -> Result<(u64, usize), RunError> {
    let net = NetworkModel::cluster().with_ranks_per_node(0);
    miniamr::elastic::run(cfg, cfg.params.num_ranks(), net, opts)
        .map(|stats| (stats[0].checksum_digest(), stats.len()))
}

#[test]
fn lost_peer_under_abort_is_an_error_the_caller_survives() {
    // A lost peer used to end the process from the delivery thread; now
    // the ranks unwind and the driver returns — to a caller that is
    // still alive to look at what it got.
    for variant in [Variant::MpiOnly, Variant::ForkJoin, Variant::DataFlow] {
        for ckpt_freq in [1, 0] {
            let mut cfg = early_crash_cfg(variant);
            cfg.ckpt_freq = ckpt_freq;
            let err = run_to_outcome(&cfg, &ElasticOpts::default())
                .expect_err("rank 1 dies early; the abort policy stops the run");
            assert_eq!(err.exit_code(), miniamr::cli::exit::RUN_ERROR);
            let report = err.to_string();
            let RunError::PeerLost { reports, .. } = err else {
                panic!("{variant:?}: expected PeerLost, got {err:?}");
            };
            assert!(reports.iter().all(|r| r.peer == 1 && r.peer_crashed));
            assert!(!reports.is_empty());
            assert!(report.contains("chaos: peer rank 1 hard-crashed per plan (seed 42,"));
            assert!(report.contains("chaos: plan position: seed 42 | frames "));
            let restored = report.contains("restored from checkpoint")
                && report.contains("verified after restore");
            let none = report.contains("no checkpoint available");
            assert_eq!(
                (restored, none),
                (ckpt_freq > 0, ckpt_freq == 0),
                "{variant:?} ckpt_freq {ckpt_freq}: {report}"
            );
        }
    }
}

#[test]
fn one_jobs_lost_peer_leaves_the_other_job_running() {
    let healthy = {
        let mut cfg = early_crash_cfg(Variant::DataFlow);
        cfg.chaos = None;
        cfg
    };
    let reference = fixed_digest(&healthy, Variant::DataFlow);
    let jobs: Vec<_> = [early_crash_cfg(Variant::DataFlow), healthy]
        .into_iter()
        .enumerate()
        .map(|(j, mut cfg)| {
            cfg.job = Some(JobCtx::new(j as u64, 2 * j as u32));
            cfg.ckpt_freq = 1;
            std::thread::spawn(move || run_to_outcome(&cfg, &ElasticOpts::default()))
        })
        .collect();
    let outcomes: Vec<_> = jobs
        .into_iter()
        .map(|h| h.join().expect("job thread panicked"))
        .collect();
    assert!(matches!(outcomes[0], Err(RunError::PeerLost { .. })));
    assert_eq!(outcomes[1].as_ref().ok(), Some(&(reference, 2)));
}

#[test]
fn early_crash_of_a_two_rank_dataflow_run_always_shrinks_to_the_fixed_digest() {
    // The dead rank's own send is parked with the heartbeat detector when
    // the survivor declares the loss; left unfailed, the task bound to it
    // never retired and the dead rank's taskwait hung — one run in four
    // or more. 25 runs miss a 25 % hang with probability 0.75^25 < 1e-3.
    let mut healthy = early_crash_cfg(Variant::DataFlow);
    healthy.chaos = None;
    let reference = fixed_digest(&healthy, Variant::DataFlow);
    let mut cfg = early_crash_cfg(Variant::DataFlow);
    cfg.ckpt_freq = 1;
    let opts = ElasticOpts {
        plan: ResizePlan::default(),
        on_peer_lost: PeerLostPolicy::Shrink,
    };
    for run in 0..25 {
        let (tx, rx) = std::sync::mpsc::channel();
        let (cfg, opts) = (cfg.clone(), opts.clone());
        let runner = std::thread::spawn(move || tx.send(run_to_outcome(&cfg, &opts)));
        let outcome = rx
            .recv_timeout(Duration::from_secs(30))
            .unwrap_or_else(|_| panic!("run {run} hung in the shrink"));
        assert_eq!(outcome.ok(), Some((reference, 1)), "run {run}");
        runner.join().expect("runner panicked").expect("sent");
    }
}
