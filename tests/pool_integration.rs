//! End-to-end behavior of the per-rank `BufferPool` under full variant
//! runs: block-move payloads are recycled (takes grow, allocations do
//! not) and pooling never perturbs the numerics (bitwise-equal
//! cross-variant checksums).

use miniamr::{Config, Variant};
use vmpi::NetworkModel;

fn cfg(tsteps: usize) -> Config {
    let mut cfg = Config::smoke_test();
    cfg.num_tsteps = tsteps;
    cfg.stages_per_ts = 3;
    cfg.checksum_freq = 3;
    cfg.refine_freq = 2;
    cfg.workers = 2;
    cfg
}

/// One sphere entering a mesh that regrids every timestep: blocks keep
/// moving between the ranks for as long as the run lasts.
fn churn_cfg(tsteps: usize) -> Config {
    let mut params = Config::smoke_test().params;
    (params.init_x, params.num_refine) = (2, 2);
    let mut cfg = Config::single_sphere(params, 12);
    cfg.num_tsteps = tsteps;
    cfg.stages_per_ts = 2;
    cfg.checksum_freq = 2;
    cfg.refine_freq = 1;
    cfg.workers = 2;
    cfg
}

/// Local face transfers copy block to block, so what a regridding run
/// takes from the pool is one buffer per block it moves, plus the one
/// each rank seeds the pool with: takes grow with the blocks moved, while
/// the allocations behind them (misses) stay at the seed plus at most one
/// per thread that can hold a payload at the same time.
#[test]
fn variant_runs_reach_high_pool_hit_rates() {
    for variant in [Variant::MpiOnly, Variant::ForkJoin, Variant::DataFlow] {
        let mut moved = Vec::new();
        for tsteps in [4, 8] {
            let mut c = churn_cfg(tsteps);
            c.variant = variant;
            let n_ranks = c.params.num_ranks();
            let stats = miniamr::run_world(&c, n_ranks, NetworkModel::instant());
            let takes: u64 = stats.iter().map(|s| s.pool.hits + s.pool.misses).sum();
            // `blocks_moved` is the world's count, the same on every rank.
            assert_eq!(
                takes,
                stats[0].blocks_moved + n_ranks as u64,
                "{variant:?}, {tsteps} timesteps: takes are not seeds + block moves"
            );
            for s in &stats {
                assert!(
                    (1..=1 + c.workers as u64).contains(&s.pool.misses),
                    "{variant:?} rank {}: {:?} after {} block moves",
                    s.rank,
                    s.pool,
                    s.blocks_moved
                );
            }
            moved.push(stats[0].blocks_moved);
        }
        assert!(
            moved[1] > moved[0] && moved[0] > 0,
            "{variant:?}: block moves {moved:?} did not grow with the run"
        );
    }
}

#[test]
fn variants_agree_bitwise_with_pooling() {
    // Cross-variant checksum equality with the buffer pool active on
    // every payload path.
    let base = cfg(4);
    let mut histories = Vec::new();
    for variant in [Variant::MpiOnly, Variant::ForkJoin, Variant::DataFlow] {
        let mut c = base.clone();
        c.variant = variant;
        let stats = miniamr::run_world(&c, c.params.num_ranks(), NetworkModel::instant());
        assert!(stats.iter().all(|s| s.checksums_failed == 0));
        histories.push(stats[0].checksums.clone());
    }
    assert!(!histories[0].is_empty());
    assert_eq!(
        histories[0], histories[1],
        "fork-join diverged under pooling"
    );
    assert_eq!(
        histories[0], histories[2],
        "data-flow diverged under pooling"
    );
}
