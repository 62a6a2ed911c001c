//! Application-level scenarios beyond the basic equivalence matrix:
//! deeper meshes, Z-direction rank grids, the 27-point stencil, tight
//! block budgets, multi-level refinement, and the false dependency that
//! `--separate_buffers` removes. (Trace capture has its own binary,
//! `phase_spans.rs`: the event bus is process-global.)

use amr_mesh::MeshParams;
use miniamr::{Config, Variant};
use vmpi::NetworkModel;

fn run(cfg: &Config, net: NetworkModel) -> Vec<miniamr::RunStats> {
    let stats = miniamr::run_world(cfg, cfg.params.num_ranks(), net);
    for s in &stats {
        assert_eq!(s.checksums_failed, 0, "validation failed");
    }
    stats
}

/// Four ranks arranged along Z — exercises the Z-direction communication
/// plan, which the default X-split smoke config never does.
#[test]
fn z_direction_rank_grid() {
    let params = MeshParams {
        npx: 1,
        npy: 1,
        npz: 4,
        init_x: 2,
        init_y: 2,
        init_z: 1,
        nx: 4,
        ny: 4,
        nz: 4,
        num_vars: 2,
        num_refine: 1,
        block_change: 1,
    };
    let mut cfg = Config::four_spheres(params, 4);
    cfg.stages_per_ts = 2;
    cfg.checksum_freq = 2;
    cfg.refine_freq = 2;
    cfg.workers = 2;
    let a = run(&cfg, NetworkModel::instant());
    let mut dcfg = cfg.clone();
    dcfg.variant = Variant::DataFlow;
    let b = run(&dcfg, NetworkModel::instant());
    assert_eq!(a[0].checksums, b[0].checksums);
}

/// Two refinement levels + an object crossing the whole mesh: blocks are
/// created, coarsened and migrated repeatedly.
#[test]
fn deep_refinement_with_migration() {
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
        num_refine: 2,
        block_change: 1,
    };
    let mut cfg = Config::single_sphere(params, 8);
    cfg.stages_per_ts = 2;
    cfg.checksum_freq = 4;
    cfg.refine_freq = 2;
    cfg.workers = 2;
    cfg.variant = Variant::DataFlow;
    cfg.send_faces = true;
    cfg.separate_buffers = true;
    let stats = run(&cfg, NetworkModel::cluster());
    let moved: u64 = stats.iter().map(|s| s.blocks_moved).sum();
    assert!(moved > 0, "the crossing sphere must force load balancing");
    // Blocks exist on every rank at the end (balanced).
    for s in &stats {
        assert!(s.final_blocks > 0, "rank {} ended empty", s.rank);
    }
}

/// The 27-point stencil variant produces self-consistent results across
/// variants too.
#[test]
fn twenty_seven_point_stencil() {
    let mut cfg = Config::smoke_test();
    cfg.stencil = amr_mesh::stencil::StencilKind::TwentySevenPoint;
    cfg.workers = 2;
    let a = run(&cfg, NetworkModel::instant());
    let mut dcfg = cfg.clone();
    dcfg.variant = Variant::DataFlow;
    let b = run(&dcfg, NetworkModel::instant());
    assert_eq!(a[0].checksums, b[0].checksums);
    // 27-point flops per cell differ from 7-point.
    assert!(a[0].flops > 0);
}

/// An extremely tight block budget leaves the exchange protocol little
/// room beyond its outgoing-block credit — and must still give the same
/// answer.
#[test]
fn tight_block_budget_exchange() {
    let mut cfg = Config::smoke_test();
    cfg.num_tsteps = 4;
    cfg.refine_freq = 1;
    cfg.workers = 2;
    let reference = run(&cfg, NetworkModel::instant());
    // The mesh peaks around 15-40 blocks per rank in this config; the
    // budget sits just above the steady state.
    let mut tight = cfg.clone();
    tight.max_blocks = 40;
    let constrained = run(&tight, NetworkModel::instant());
    assert_eq!(reference[0].checksums, constrained[0].checksums);
}

/// block_change = 2: two ±1 plans per refinement phase.
#[test]
fn multi_step_refinement_phase() {
    let mut cfg = Config::smoke_test();
    cfg.params.num_refine = 2;
    cfg.params.block_change = 2;
    cfg.num_tsteps = 4;
    cfg.refine_freq = 2;
    cfg.workers = 2;
    let a = run(&cfg, NetworkModel::instant());
    let mut dcfg = cfg.clone();
    dcfg.variant = Variant::DataFlow;
    let b = run(&dcfg, NetworkModel::instant());
    assert_eq!(a[0].checksums, b[0].checksums);
}

/// Shared buffers serialize directions through a false dependency; with
/// separate buffers the same schedule admits more concurrency — but the
/// results must be identical either way (already covered) and the
/// shared-buffer run must not race (the claim checker would panic).
#[test]
fn shared_buffer_false_dependency_is_safe() {
    let mut cfg = Config::smoke_test();
    cfg.variant = Variant::DataFlow;
    cfg.workers = 4;
    cfg.separate_buffers = false; // the racy-if-wrong configuration
    cfg.num_tsteps = 3;
    cfg.stages_per_ts = 4;
    let _ = run(&cfg, NetworkModel::cluster());
}

/// Longer soak with latency: many stages and checkpoints, delayed
/// checksum pipeline crossing several refinements.
#[test]
fn delayed_checksum_soak() {
    let mut cfg = Config::smoke_test();
    cfg.variant = Variant::DataFlow;
    cfg.num_tsteps = 6;
    cfg.stages_per_ts = 5;
    cfg.checksum_freq = 3;
    cfg.refine_freq = 2;
    cfg.delayed_checksum = true;
    cfg.workers = 2;
    let stats = run(
        &cfg,
        NetworkModel::new(std::time::Duration::from_micros(50), 1.0e9),
    );
    // 6*5 = 30 stages, checkpoint every 3 stages = 10 checkpoints, all
    // eventually validated (the pipeline drains at the end).
    assert_eq!(stats[0].checksums.len(), 10);
    assert_eq!(stats[0].checksums_passed, 10);
}

/// Single-rank world: no cross-rank messages at all, every variant still
/// works (all transfers become local copies).
#[test]
fn single_rank_degenerate_case() {
    let params = MeshParams {
        npx: 1,
        npy: 1,
        npz: 1,
        init_x: 2,
        init_y: 2,
        init_z: 2,
        nx: 4,
        ny: 4,
        nz: 4,
        num_vars: 2,
        num_refine: 1,
        block_change: 1,
    };
    let mut cfg = Config::four_spheres(params, 3);
    cfg.stages_per_ts = 3;
    cfg.checksum_freq = 3;
    cfg.refine_freq = 2;
    cfg.workers = 2;
    let mut reference: Option<Vec<Vec<f64>>> = None;
    for v in [Variant::MpiOnly, Variant::ForkJoin, Variant::DataFlow] {
        let mut c = cfg.clone();
        c.variant = v;
        let stats = run(&c, NetworkModel::instant());
        assert_eq!(stats[0].msgs_sent, 0, "single rank must not send messages");
        match &reference {
            None => reference = Some(stats[0].checksums.clone()),
            Some(r) => assert_eq!(r, &stats[0].checksums),
        }
    }
}
