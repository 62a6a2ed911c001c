//! Cross-variant equivalence: the backbone of this reproduction's
//! correctness argument.
//!
//! All three parallelizations (MPI-only, fork-join, data-flow) of the
//! same configuration must produce **bitwise-identical checksum
//! histories** — the mesh evolution, refinement decisions, load balancing
//! and numerical kernels are shared; only the orchestration differs. Any
//! divergence indicates a race, a lost/duplicated message, or a missing
//! task dependency.

use miniamr::{Config, RunError, Variant};
use vmpi::NetworkModel;

fn checksums_of(cfg: &Config, variant: Variant, net: NetworkModel) -> Vec<Vec<f64>> {
    let mut cfg = cfg.clone();
    cfg.variant = variant;
    let stats = miniamr::run_world(&cfg, cfg.params.num_ranks(), net);
    for s in &stats {
        assert_eq!(
            s.checksums_failed, 0,
            "variant {variant:?} failed validation"
        );
    }
    // Checksums are broadcast: every rank returns the identical history.
    for s in &stats[1..] {
        assert_eq!(
            s.checksums, stats[0].checksums,
            "ranks disagree on checksums"
        );
    }
    stats[0].checksums.clone()
}

fn base_cfg() -> Config {
    let mut cfg = Config::smoke_test();
    cfg.num_tsteps = 4;
    cfg.stages_per_ts = 3;
    cfg.checksum_freq = 3;
    cfg.refine_freq = 2;
    cfg.workers = 2;
    cfg
}

#[test]
fn all_variants_agree_bitwise() {
    let cfg = base_cfg();
    let a = checksums_of(&cfg, Variant::MpiOnly, NetworkModel::instant());
    let b = checksums_of(&cfg, Variant::ForkJoin, NetworkModel::instant());
    let c = checksums_of(&cfg, Variant::DataFlow, NetworkModel::instant());
    assert!(!a.is_empty());
    assert_eq!(a, b, "fork-join diverged from MPI-only");
    assert_eq!(a, c, "data-flow diverged from MPI-only");
}

#[test]
fn agreement_survives_network_latency() {
    // Delayed message availability must reorder nothing observable.
    let cfg = base_cfg();
    let net = || NetworkModel::new(std::time::Duration::from_micros(200), 1.0e9);
    let a = checksums_of(&cfg, Variant::MpiOnly, net());
    let c = checksums_of(&cfg, Variant::DataFlow, net());
    assert_eq!(a, c);
}

#[test]
fn dataflow_options_do_not_change_results() {
    let base = base_cfg();
    let reference = checksums_of(&base, Variant::DataFlow, NetworkModel::instant());

    for (send_faces, separate, max_tasks) in [
        (true, true, 0),
        (true, false, 2),
        (false, true, 0),
        (true, true, 3),
    ] {
        let mut cfg = base.clone();
        cfg.send_faces = send_faces;
        cfg.separate_buffers = separate;
        cfg.max_comm_tasks = max_tasks;
        let got = checksums_of(&cfg, Variant::DataFlow, NetworkModel::instant());
        assert_eq!(
            got, reference,
            "options send_faces={send_faces} separate={separate} max_comm_tasks={max_tasks} changed results"
        );
    }
}

#[test]
fn delayed_checksum_validates_same_values() {
    let base = base_cfg();
    let eager = checksums_of(&base, Variant::DataFlow, NetworkModel::instant());
    let mut cfg = base.clone();
    cfg.delayed_checksum = true;
    let delayed = checksums_of(&cfg, Variant::DataFlow, NetworkModel::instant());
    assert_eq!(eager, delayed, "delayed validation saw different sums");
}

#[test]
fn worker_count_does_not_change_results() {
    let base = base_cfg();
    let mut one = base.clone();
    one.workers = 1;
    let mut four = base.clone();
    four.workers = 4;
    let a = checksums_of(&one, Variant::DataFlow, NetworkModel::instant());
    let b = checksums_of(&four, Variant::DataFlow, NetworkModel::instant());
    assert_eq!(a, b);
}

#[test]
fn rcb_balancer_matches_sfc_results() {
    // The balancer moves blocks differently but must not change physics.
    // The global checksum folds per-block sums in global block-id order
    // regardless of which rank owns each block, so the comparison is
    // bitwise — the same ownership-invariance the elastic resize
    // machinery relies on.
    let base = base_cfg();
    let sfc = checksums_of(&base, Variant::MpiOnly, NetworkModel::instant());
    let mut cfg = base.clone();
    cfg.balance = miniamr::BalanceKind::Rcb;
    let rcb = checksums_of(&cfg, Variant::MpiOnly, NetworkModel::instant());
    assert_eq!(sfc, rcb, "balancers diverged bitwise");
}

#[test]
fn capacity_limited_exchange_still_converges() {
    // A tight per-rank block budget: the exchange must still move every
    // block, crediting each rank's outgoing blocks as free capacity.
    let mut cfg = base_cfg();
    cfg.max_blocks = 64; // enough to hold the mesh, and little more
    let a = checksums_of(&cfg, Variant::MpiOnly, NetworkModel::instant());
    let mut unlimited = base_cfg();
    unlimited.max_blocks = usize::MAX;
    let b = checksums_of(&unlimited, Variant::MpiOnly, NetworkModel::instant());
    assert_eq!(a, b, "capacity-limited exchange changed results");
}

/// A cap below what the load balance hands a rank stops the run with an
/// error before the exchange starts, on every variant, instead of a
/// NACK and a panic.
#[test]
fn over_capacity_exchange_is_an_error() {
    let mut cfg = base_cfg();
    cfg.max_blocks = 4;
    for variant in [Variant::MpiOnly, Variant::ForkJoin, Variant::DataFlow] {
        cfg.variant = variant;
        let n = cfg.params.num_ranks();
        let opts = miniamr::ElasticOpts::default();
        let err = miniamr::elastic::run(&cfg, n, NetworkModel::instant(), &opts)
            .expect_err("a rank over --max_blocks must stop the run");
        let RunError::OverCapacity {
            blocks, max_blocks, ..
        } = err
        else {
            panic!("{variant:?}: {err:?}");
        };
        assert!(blocks > max_blocks && max_blocks == 4, "{err}");
        assert_eq!(err.exit_code(), 2, "a rejected scenario");
    }
}

#[test]
fn multiple_comm_groups_agree_with_single_group() {
    let mut grouped = base_cfg();
    grouped.comm_vars = 1; // one group per variable
    let a = checksums_of(&grouped, Variant::MpiOnly, NetworkModel::instant());
    let b = checksums_of(&base_cfg(), Variant::MpiOnly, NetworkModel::instant());
    assert_eq!(a, b);
    let c = checksums_of(&grouped, Variant::DataFlow, NetworkModel::instant());
    assert_eq!(a, c, "data-flow with per-var groups diverged");
}

#[test]
fn single_sphere_input_runs_all_variants() {
    let params = amr_mesh::MeshParams {
        npx: 2,
        npy: 1,
        npz: 1,
        init_x: 1,
        init_y: 2,
        init_z: 2,
        nx: 4,
        ny: 4,
        nz: 4,
        num_vars: 2,
        num_refine: 1,
        block_change: 1,
    };
    let mut cfg = Config::single_sphere(params, 4);
    cfg.stages_per_ts = 2;
    cfg.checksum_freq = 2;
    cfg.refine_freq = 2;
    cfg.workers = 2;
    let a = checksums_of(&cfg, Variant::MpiOnly, NetworkModel::instant());
    let b = checksums_of(&cfg, Variant::DataFlow, NetworkModel::instant());
    assert_eq!(a, b);
}
