//! The two in-run speed gates of `scripts/ci.sh`, each a bound that a
//! companion or a fixed figure holds in the same process:
//!
//! * a stable 1 000-task `inout` chain, re-submitted inside a trace
//!   scope on a persistent runtime, replays in at most 1.5 ms (the
//!   claim-table path took ~7.7 ms);
//! * the hierarchical allreduce over 2 nodes × 4 ranks takes at most
//!   1.15 × its flat binomial companion on the same world shape.
//!
//! The bounds are release-build numbers, so the gates are `#[ignore]`d
//! and refuse a debug build:
//!
//! ```text
//! cargo test --release -p amr-bench --test gates -- --ignored --test-threads 1 --nocapture
//! ```
//!
//! One thread, because they time thread hand-offs; libtest runs them in
//! name order, the chain first. Each prints its reading and its bound.
//!
//! Estimator: one warm-up call sizes an inner loop to about 20 ms; of 10
//! such samples the fastest ns/iter is the reading.

use std::hint::black_box;
use std::time::{Duration, Instant};
use taskrt::{ObjId, Region, Runtime};
use vmpi::{CollAlgo, NetworkModel, ReduceOp, World};

const TARGET_SAMPLE: Duration = Duration::from_millis(20);
const SAMPLES: usize = 10;

/// Fastest ns per call of `routine` over [`SAMPLES`] inner loops of
/// about [`TARGET_SAMPLE`] each, sized by one timed warm-up call.
fn fastest_ns_per_iter<R>(mut routine: impl FnMut() -> R) -> f64 {
    let t0 = Instant::now();
    black_box(routine());
    let once = t0.elapsed().max(Duration::from_nanos(1));
    let per_sample = (TARGET_SAMPLE.as_nanos() / once.as_nanos()).clamp(1, 1_000_000) as u64;
    let mut best = f64::INFINITY;
    for _ in 0..SAMPLES {
        let start = Instant::now();
        for _ in 0..per_sample {
            black_box(routine());
        }
        best = best.min(start.elapsed().as_nanos() as f64 / per_sample as f64);
    }
    best
}

fn release_only() {
    if cfg!(debug_assertions) {
        panic!("the speed gates' bounds are release-build numbers: run them with `cargo test --release`");
    }
}

/// An 8-rank `allreduce_scalar` per call on `world`.
fn allreduce_8ranks(world: &World) -> f64 {
    fastest_ns_per_iter(|| {
        world.run(|comm| {
            comm.allreduce_scalar(comm.rank() as i64, ReduceOp::Sum)
                .unwrap()
        })
    })
}

#[test]
#[ignore = "release-mode speed gate; see the module docs"]
fn chained_spawns_replay_within_1_5_ms() {
    release_only();
    const BOUND_NS: f64 = 1_500_000.0;
    let rt = Runtime::new(2);
    let obj = ObjId::fresh();
    let chained = fastest_ns_per_iter(|| {
        let scope = rt.trace_scope(1);
        for _ in 0..1000 {
            rt.task().inout(Region::new(obj, 0..1)).body(|| {}).spawn();
        }
        drop(scope);
        rt.taskwait();
    });
    println!("gate spawn_1000_chained: {chained:.0} ns/iter (bound {BOUND_NS:.0})");
    assert!(
        chained <= BOUND_NS,
        "spawn_1000_chained too slow: {chained:.0} ns/iter"
    );
}

#[test]
#[ignore = "release-mode speed gate; see the module docs"]
fn hier_allreduce_within_1_15_of_flat() {
    release_only();
    const BOUND: f64 = 1.15;
    // Ranks sharing a node combine through an in-process slot, so only
    // the node leaders touch the message layer.
    let hier_net = NetworkModel::instant()
        .with_ranks_per_node(4)
        .with_coll(CollAlgo::Hier);
    let hier = allreduce_8ranks(&World::new(8, hier_net));
    let flat = allreduce_8ranks(&World::new(8, NetworkModel::instant()));
    println!(
        "gate allreduce_8ranks: hier {hier:.0} / flat {flat:.0} ns/iter = {:.3} (bound {BOUND})",
        hier / flat
    );
    assert!(
        hier <= flat * BOUND,
        "hier allreduce regressed past its flat companion: {hier:.0} vs {flat:.0} ns/iter"
    );
}
