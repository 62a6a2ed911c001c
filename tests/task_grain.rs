//! The task-grain rule on a mesh far below the floor.
//!
//! 4³ cells × 4 variables on a two-level mesh: every intra-rank item
//! (a 64-element face copy, a 256-element stencil) is below
//! `elaborate::GRAIN_ELEMS`, so almost every data-flow task and fork-join
//! chunk is a batch, with `--send_faces --separate_buffers` keeping the
//! per-message tasks as fine as they get. Batching must be invisible in
//! the results — bitwise-equal checksums across the variants and across
//! everything that reshapes the stream — and visible only in the counts.

use amr_mesh::MeshParams;
use miniamr::{Config, RunStats, Variant};
use vmpi::NetworkModel;

/// The scenario of `scripts/ci.sh`'s "task grain" stage.
fn fine_cfg() -> Config {
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
        num_vars: 4,
        num_refine: 2,
        block_change: 1,
    };
    let mut cfg = Config::four_spheres(params, 4);
    cfg.stages_per_ts = 4;
    cfg.checksum_freq = 2;
    cfg.refine_freq = 2; // one regrid mid-run
    cfg.send_faces = true;
    cfg.separate_buffers = true;
    cfg.workers = 1;
    cfg
}

/// One way of reshaping the task stream.
type Tweak<'a> = &'a dyn Fn(&mut Config);

fn run(cfg: &Config) -> Vec<RunStats> {
    let stats = miniamr::run_world(cfg, cfg.params.num_ranks(), NetworkModel::instant());
    for s in &stats {
        assert_eq!(s.checksums_failed, 0, "{:?} failed validation", cfg.variant);
        assert_eq!(s.checksums, stats[0].checksums, "ranks disagree");
    }
    stats
}

/// A transport that sends nothing eagerly under a config that still says
/// 16 KiB (`run_world` takes the two separately): the run clamps the
/// config to the transport, so every send keeps its own task, and the run
/// finishes with MPI-only's checksums. Fused into its pack, a rendezvous
/// send held the pack's block until the peer's unpack posted the receive,
/// which waited for the peer's own packs doing the same.
#[test]
fn all_rendezvous_transport_finishes() {
    let mut cfg = fine_cfg();
    cfg.num_tsteps = 2;
    let reference = run(&cfg);
    cfg.variant = Variant::DataFlow;
    assert!(cfg.eager_bytes > 0);
    let (done, finished) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        let net = NetworkModel::instant().with_eager_threshold(0);
        let _ = done.send(miniamr::run_world(&cfg, cfg.params.num_ranks(), net));
    });
    let stats = finished
        .recv_timeout(std::time::Duration::from_secs(60))
        .expect("the all-rendezvous data-flow run hung");
    for s in &stats {
        assert_eq!(s.checksums, reference[0].checksums);
    }
}

/// One test, in this order: the sanitizer is process-global and cannot be
/// switched off again, and a sanitized run is an order of magnitude
/// slower, so the parity matrix runs before it is enabled.
#[test]
fn batched_streams_agree_bitwise_and_check_clean() {
    let with = |variant: Variant, tweak: Tweak| {
        let mut cfg = fine_cfg();
        cfg.variant = variant;
        tweak(&mut cfg);
        run(&cfg)
    };
    let reference = with(Variant::MpiOnly, &|_| {});
    assert!(!reference[0].checksums.is_empty());
    for s in &reference {
        assert_eq!(
            (s.tasks_spawned, s.task_items),
            (0, 0),
            "MPI-only spawned tasks"
        );
    }
    let blocks = |stats: &[RunStats]| stats.iter().map(|s| s.final_blocks).sum::<usize>();
    let unregridded = with(Variant::MpiOnly, &|c| c.refine_freq = 1000);
    assert_ne!(
        blocks(&reference),
        blocks(&unregridded),
        "the mid-run regrid left the mesh as it was"
    );
    let tweaks: [(&str, Tweak); 7] = [
        ("defaults", &|_| {}),
        ("replay off", &|c| c.replay = false),
        ("delayed checksum", &|c| c.delayed_checksum = true),
        ("comm_vars 3", &|c| c.comm_vars = 3),
        ("3 workers", &|c| c.workers = 3),
        ("3 workers, delayed, comm_vars 3", &|c| {
            c.workers = 3;
            c.delayed_checksum = true;
            c.comm_vars = 3;
        }),
        // Groups of 3 and 1 variables in one aggregated message per
        // neighbour and direction, all directions in one shared buffer:
        // the smaller group's message sits at the same base as the
        // larger one's.
        ("uneven groups, aggregated, shared buffer", &|c| {
            c.comm_vars = 3;
            c.send_faces = false;
            c.separate_buffers = false;
        }),
    ];
    for (name, tweak) in tweaks {
        for variant in [Variant::ForkJoin, Variant::DataFlow] {
            let stats = with(variant, tweak);
            assert_eq!(
                stats[0].checksums, reference[0].checksums,
                "{variant:?} with {name} diverged from MPI-only"
            );
            // Far below the floor both hybrids run mostly batches.
            let spawned: u64 = stats.iter().map(|s| s.tasks_spawned).sum();
            let items: u64 = stats.iter().map(|s| s.task_items).sum();
            assert!(
                spawned * 4 < items,
                "{variant:?} with {name}: {spawned} tasks for {items} items"
            );
        }
    }

    // The static model of the batched stream, then the stream itself
    // under the dynamic sanitizer.
    let mut cfg = fine_cfg();
    cfg.variant = Variant::DataFlow;
    cfg.workers = 2;
    let report = miniamr::staticcheck::check(&cfg);
    assert!(report.clean(), "{}", report.render_human());

    depsan::enable();
    let _ = depsan::take_violations();
    // Beside the scenario itself, variable groups of uneven size (5
    // variables in groups of 2, 2 and 1): a message's buffer slot and tag
    // are reused by the next group at another size, which is in order
    // only because the slot's WAR edge serialises the two sends.
    let uneven: [(&str, Tweak); 3] = [
        ("defaults", &|_| {}),
        ("uneven groups, send_faces", &|c| {
            (c.params.num_vars, c.comm_vars) = (5, 2);
        }),
        ("uneven groups, aggregated", &|c| {
            (c.params.num_vars, c.comm_vars, c.send_faces) = (5, 2, false);
        }),
    ];
    for (name, tweak) in uneven {
        let mut cfg = cfg.clone();
        tweak(&mut cfg);
        run(&cfg);
        let violations = depsan::take_violations();
        assert!(
            violations.is_empty(),
            "{name}: {} violation(s), first: {:?}",
            violations.len(),
            violations.first()
        );
    }
}
