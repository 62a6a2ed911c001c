//! Equivalence of hierarchical and flat collectives.
//!
//! For every world size × `ranks_per_node` combination — including
//! groupings that do not divide the size, and the degenerate `0`/`1`
//! groupings where every rank is its own node — `--coll hier` must
//! produce exactly what `--coll flat` produces:
//!
//! * allreduce over integers: bitwise-identical for any combination
//!   order (wrapping ops are associative and commutative), so the two
//!   trees must agree exactly;
//! * allreduce over f64 Min/Max and over small exactly-representable
//!   sums: identical because no rounding can occur;
//! * allgather / gather / barrier: pure data movement, identical by
//!   construction.
//!
//! Each case also runs on a lossy wire, the scalar one or the fabric,
//! under a fault plan the retry budget survives: the inter-node stage's
//! frames are dropped, duplicated and delayed, and the answers must not
//! move.
//!
//! This is the reproducibility contract the digest pipeline relies on:
//! everything digest-critical folds integers or routes through
//! order-stable gather-at-root paths, both of which are invariant to the
//! collective routing.

use proptest::prelude::*;
use std::time::Duration;
use vmpi::{ChaosConfig, CollAlgo, FabricParams, NetworkModel, PeerLostAction, ReduceOp, World};

/// The transport a case runs on.
#[derive(Clone, Copy, Debug)]
enum Wire {
    Instant,
    /// The scalar wire under a survivable fault plan.
    Lossy,
    /// The fabric under the same plan: each frame transmission is a flow.
    LossyFabric,
}

fn wire() -> impl Strategy<Value = Wire> {
    prop_oneof![
        Just(Wire::Instant),
        Just(Wire::Lossy),
        Just(Wire::LossyFabric)
    ]
}

/// A flat and a hierarchical world of `p` ranks, `rpn` to a node.
fn worlds(p: usize, rpn: usize, wire: Wire) -> (World, World) {
    let net = match wire {
        Wire::Instant => NetworkModel::instant().with_ranks_per_node(rpn),
        Wire::Lossy => NetworkModel::new(Duration::from_micros(20), 1.0e9).with_ranks_per_node(rpn),
        Wire::LossyFabric => {
            let fab = FabricParams {
                ranks_per_node: rpn,
                ..FabricParams::cluster()
            };
            NetworkModel::from_fabric(&fab).with_fabric(fab)
        }
    };
    let plan = (!matches!(wire, Wire::Instant)).then(|| ChaosConfig {
        seed: (p * 10 + rpn) as u64,
        drop_p: 0.05,
        dup_p: 0.05,
        delay_p: 0.1,
        retry_budget: 20,
        rto: Duration::from_millis(2),
        // An exhausted budget fails the case instead of the process.
        on_peer_lost: PeerLostAction::FailRequests,
        ..ChaosConfig::default()
    });
    let flat = World::with_chaos(p, net.clone(), plan.clone());
    let hier = World::with_chaos(p, net.with_coll(CollAlgo::Hier), plan);
    (flat, hier)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn allreduce_hier_matches_flat(
        p in 1usize..9,
        rpn in prop_oneof![Just(0usize), Just(1), Just(2), Just(3), Just(4), Just(8)],
        seed in 0u64..1_000_000,
        op in prop_oneof![
            Just(ReduceOp::Sum),
            Just(ReduceOp::Min),
            Just(ReduceOp::Max),
            Just(ReduceOp::Prod),
        ],
        wire in wire(),
    ) {
        let (flat, hier) = worlds(p, rpn, wire);
        let run = |world: &World| {
            world.run(|comm| {
                let r = comm.rank() as u64;
                // Per-rank vectors derived from the case seed; wrapping
                // integer ops make any fold order bitwise-identical.
                let mine: Vec<u64> = (0..5).map(|i| seed ^ (r << 32) ^ (i * 0x9e37)).collect();
                let ints = comm.allreduce(&mine, op).unwrap();
                // f64 min/max never round; small integers sum exactly.
                let fmin = comm
                    .allreduce_scalar((r as f64).sin(), ReduceOp::Min)
                    .unwrap();
                let fsum = comm
                    .allreduce_scalar((r % 7) as f64, ReduceOp::Sum)
                    .unwrap();
                (ints, fmin.to_bits(), fsum.to_bits())
            })
        };
        let a = run(&flat);
        let b = run(&hier);
        prop_assert_eq!(a, b);
    }

    #[test]
    fn allgather_and_gather_hier_match_flat(
        p in 1usize..9,
        rpn in prop_oneof![Just(0usize), Just(1), Just(2), Just(3), Just(5)],
        seed in 0u64..1_000_000,
        wire in wire(),
    ) {
        let (flat, hier) = worlds(p, rpn, wire);
        let root = seed as usize % p;
        let run = |world: &World| {
            world.run(|comm| {
                // Variable per-rank sizes exercise the framed node blobs.
                let r = comm.rank() as u64;
                let mine: Vec<u64> = (0..=comm.rank()).map(|i| seed + r * 100 + i as u64).collect();
                (comm.allgather(&mine).unwrap(), comm.gather(&mine, root).unwrap())
            })
        };
        prop_assert_eq!(run(&flat), run(&hier));
    }
}

/// Barrier under the hierarchical algorithm is a real barrier: no rank
/// exits before every rank has entered.
#[test]
fn hier_barrier_synchronizes() {
    use std::sync::atomic::{AtomicUsize, Ordering};
    let cases = [(4, 2), (6, 4), (8, 3), (5, 5), (7, 0), (3, 1)];
    let wires = [Wire::Instant, Wire::Lossy, Wire::LossyFabric];
    let mut retransmits = 0;
    for ((p, rpn), wire) in cases.into_iter().flat_map(|c| wires.map(|w| (c, w))) {
        let (_, world) = worlds(p, rpn, wire);
        let arrived = AtomicUsize::new(0);
        world.run(|comm| {
            for _ in 0..10 {
                arrived.fetch_add(1, Ordering::SeqCst);
                comm.barrier().unwrap();
                // Between barriers, every rank must observe all arrivals.
                assert!(arrived.load(Ordering::SeqCst) >= p);
                comm.barrier().unwrap();
            }
        });
        assert_eq!(arrived.load(Ordering::SeqCst), 10 * p);
        for line in world.chaos_plan_position() {
            let mut words = line.split_whitespace().skip_while(|w| *w != "retransmits");
            retransmits += words.nth(1).map_or(0, |n| n.parse::<u64>().unwrap());
        }
    }
    assert!(
        retransmits > 0,
        "the lossy wires lost no frame of a leader stage"
    );
}

/// Hierarchical collectives work on derived sub-communicators, whose
/// ranks may map onto nodes arbitrarily (`split` itself allgathers over
/// the parent, so this exercises nesting too).
#[test]
fn hier_collectives_on_split_comms() {
    let world = World::new(
        8,
        NetworkModel::instant()
            .with_ranks_per_node(4)
            .with_coll(CollAlgo::Hier),
    );
    world.run(|comm| {
        // Odd/even split: each sub-communicator's members straddle nodes.
        let sub = comm
            .split((comm.rank() % 2) as i64, comm.rank() as i64)
            .unwrap();
        let sum = sub
            .allreduce_scalar(comm.rank() as i64, ReduceOp::Sum)
            .unwrap();
        // evens: 0+2+4+6, odds: 1+3+5+7
        let expect = if comm.rank() % 2 == 0 { 12 } else { 16 };
        assert_eq!(sum, expect);
        let all = sub.allgather(&[comm.rank() as u32]).unwrap();
        assert_eq!(all.len(), 4);
        sub.barrier().unwrap();
        comm.barrier().unwrap();
    });
}

/// A length-mismatched reduce is a hard error on every build profile
/// (it used to be a `debug_assert!` that silently truncated in release).
#[test]
fn reduce_length_mismatch_is_hard_error() {
    let world = World::new(2, NetworkModel::instant());
    let results = world.run(|comm| {
        let mine: Vec<i64> = vec![1; 2 + comm.rank()];
        comm.reduce(&mine, ReduceOp::Sum, 0)
    });
    // Rank 1 only sends (it cannot see the mismatch); rank 0 folds and
    // must fail loudly instead of zip-truncating the tail.
    match &results[0] {
        Err(vmpi::VmpiError::Truncated {
            expected: 2,
            got: 3,
        }) => {}
        other => panic!("expected Truncated{{2,3}}, got {other:?}"),
    }
    assert!(results[1].is_ok());
}

/// Same contract on the hierarchical path: the leader detects the
/// mismatch and publishes the error, so members fail instead of hanging.
#[test]
fn hier_allreduce_length_mismatch_fails_everywhere() {
    let world = World::new(
        4,
        NetworkModel::instant()
            .with_ranks_per_node(4)
            .with_coll(CollAlgo::Hier),
    );
    let results = world.run(|comm| {
        let mine: Vec<i64> = vec![1; if comm.rank() == 2 { 5 } else { 3 }];
        comm.allreduce(&mine, ReduceOp::Sum)
    });
    for (r, res) in results.iter().enumerate() {
        assert!(
            matches!(res, Err(vmpi::VmpiError::Truncated { .. })),
            "rank {r} should fail, got {res:?}"
        );
    }
}

/// Many back-to-back collectives on one communicator: each invocation
/// gets an isolated derived channel, so nothing can alias even with the
/// old 2^23-invocation tag wraparound horizon removed. (Kept cheap: the
/// regression this pins is per-invocation isolation, not the horizon.)
#[test]
fn collective_channels_never_alias() {
    let world = World::new(3, NetworkModel::instant());
    world.run(|comm| {
        for i in 0..500i64 {
            let s = comm
                .allreduce_scalar(i + comm.rank() as i64, ReduceOp::Sum)
                .unwrap();
            assert_eq!(s, 3 * i + 3);
        }
    });
}
