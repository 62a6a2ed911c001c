//! Chaos-mode integration tests: the reliability layer must make every
//! seeded fault plan within the retry budget invisible to the program —
//! same payloads, same ordering, same collective results — and turn an
//! unrecoverable peer into a clean, inspectable failure instead of a
//! hang.

use std::time::Duration;
use vmpi::{ChaosConfig, NetworkModel, PeerLostAction, ReduceOp, VmpiError, World, ANY_SOURCE};

/// A lossy-but-recoverable plan: drops, duplicates, corruption, and
/// delay spikes, with a short RTO so tests stay fast.
fn lossy(seed: u64) -> ChaosConfig {
    ChaosConfig {
        seed,
        drop_p: 0.15,
        dup_p: 0.10,
        corrupt_p: 0.10,
        delay_p: 0.25,
        delay_factor: 8.0,
        rto: Duration::from_millis(1),
        retry_budget: 25,
        on_peer_lost: PeerLostAction::FailRequests,
        ..ChaosConfig::default()
    }
}

/// Every message arrives exactly once, intact and in order, under a plan
/// that drops, duplicates, and corrupts frames.
#[test]
fn message_conservation_under_faults() {
    for seed in [1u64, 2, 3, 4] {
        let net = NetworkModel::new(Duration::from_micros(20), 1.0e9);
        let world = World::with_chaos(3, net, Some(lossy(seed)));
        world.run(|comm| {
            let p = comm.size();
            let me = comm.rank();
            let mut sends = Vec::new();
            for dst in 0..p {
                if dst == me {
                    continue;
                }
                for m in 0..20i64 {
                    let val = (me * 1_000_000 + dst * 1_000) as i64 + m;
                    sends.push(comm.isend(&[val, val, val], dst, 9).unwrap());
                }
            }
            for src in 0..p {
                if src == me {
                    continue;
                }
                for m in 0..20i64 {
                    let (data, st) = comm.recv::<i64>(src as i32, 9).unwrap();
                    assert_eq!(st.source, src);
                    let expect = (src * 1_000_000 + me * 1_000) as i64 + m;
                    assert_eq!(
                        data,
                        vec![expect; 3],
                        "seed {seed}: message from {src} arrived corrupted, duplicated, or out of order"
                    );
                }
            }
            for s in sends {
                s.wait();
            }
        });
        assert!(
            world.peer_lost_reports().is_empty(),
            "seed {seed} exceeded the retry budget"
        );
    }
}

/// Rendezvous (above-threshold) sends complete exactly once on the first
/// ack even when the plan duplicates every frame.
#[test]
fn rendezvous_completion_is_exactly_once_under_duplication() {
    let cfg = ChaosConfig {
        seed: 11,
        dup_p: 1.0,
        rto: Duration::from_millis(2),
        on_peer_lost: PeerLostAction::FailRequests,
        ..ChaosConfig::default()
    };
    let net = NetworkModel::new(Duration::from_micros(50), 1.0e9).with_eager_threshold(64);
    let world = World::with_chaos(2, net, Some(cfg));
    world.run(|comm| {
        if comm.rank() == 0 {
            // 1 KiB payload: rendezvous, completes on ack. A duplicated
            // ack would double-complete and trip the debug assertion.
            let data = vec![7.5f64; 128];
            for _ in 0..10 {
                comm.isend(&data, 1, 3).unwrap().wait();
            }
        } else {
            for _ in 0..10 {
                let (data, _) = comm.recv::<f64>(0, 3).unwrap();
                assert_eq!(data, vec![7.5f64; 128]);
            }
        }
    });
}

/// Wildcard receives still see per-channel non-overtaking order under
/// heavy delay spikes (the reorder buffer releases strictly in sequence).
#[test]
fn wildcard_order_preserved_under_delay_spikes() {
    let cfg = ChaosConfig {
        seed: 5,
        delay_p: 0.5,
        delay_factor: 30.0,
        rto: Duration::from_millis(5),
        on_peer_lost: PeerLostAction::FailRequests,
        ..ChaosConfig::default()
    };
    let world = World::with_chaos(
        2,
        NetworkModel::new(Duration::from_micros(10), 1.0e9),
        Some(cfg),
    );
    world.run(|comm| {
        if comm.rank() == 0 {
            for i in 0..40i64 {
                comm.isend(&[i], 1, 7).unwrap();
            }
        } else {
            for i in 0..40i64 {
                let (d, _) = comm.recv::<i64>(ANY_SOURCE, 7).unwrap();
                assert_eq!(d[0], i, "messages overtook each other under chaos delays");
            }
        }
    });
}

/// Satellite: `allreduce` / `barrier` / `allgather` return identical
/// results across 16 random seeds with chaos delay spikes enabled.
#[test]
fn collectives_identical_across_16_seeds_with_delays() {
    let mut baseline: Option<Vec<(i64, Vec<i64>, f64)>> = None;
    for seed in 0..16u64 {
        let cfg = ChaosConfig {
            seed: 0x5eed_0000 + seed,
            delay_p: 0.35,
            delay_factor: 12.0,
            dup_p: 0.05,
            drop_p: 0.05,
            rto: Duration::from_millis(1),
            retry_budget: 25,
            on_peer_lost: PeerLostAction::FailRequests,
            ..ChaosConfig::default()
        };
        let net = NetworkModel::new(Duration::from_micros(15), 2.0e9);
        let world = World::with_chaos(4, net, Some(cfg));
        let results = world.run(|comm| {
            let r = comm.rank() as i64;
            comm.barrier().unwrap();
            let sum = comm.allreduce_scalar(r + 1, ReduceOp::Sum).unwrap();
            let all = comm.allgather(&[r * 10, r * 10 + 1]).unwrap();
            let flat: Vec<i64> = all.into_iter().flatten().collect();
            comm.barrier().unwrap();
            let fsum = comm
                .allreduce_scalar((r as f64) * 0.5, ReduceOp::Max)
                .unwrap();
            (sum, flat, fsum)
        });
        assert!(
            world.peer_lost_reports().is_empty(),
            "seed {seed} lost a peer"
        );
        match &baseline {
            None => baseline = Some(results),
            Some(base) => assert_eq!(&results, base, "collective results diverged at seed {seed}"),
        }
    }
    let base = baseline.unwrap();
    // Sanity: the baseline itself is the fault-free answer.
    assert!(base.iter().all(|(sum, _, _)| *sum == 1 + 2 + 3 + 4));
    assert!(base
        .iter()
        .all(|(_, flat, _)| flat == &[0, 1, 10, 11, 20, 21, 30, 31]));
}

/// A zero-probability plan (framing on, no faults) behaves exactly like
/// the fault-free substrate.
#[test]
fn framing_without_faults_is_transparent() {
    let world = World::with_chaos(
        3,
        NetworkModel::cluster(),
        Some(ChaosConfig {
            on_peer_lost: PeerLostAction::FailRequests,
            ..ChaosConfig::default()
        }),
    );
    let sums = world.run(|comm| {
        let p = comm.size();
        let next = (comm.rank() + 1) % p;
        let prev = (comm.rank() + p - 1) % p;
        let send = comm.isend(&[comm.rank() as i64], next, 1).unwrap();
        let (data, st) = comm.recv::<i64>(prev as i32, 1).unwrap();
        send.wait();
        assert_eq!(st.source, prev);
        comm.allreduce_scalar(data[0], ReduceOp::Sum).unwrap()
    });
    assert_eq!(sums, vec![3, 3, 3]);
    assert!(world.peer_lost_reports().is_empty());
}

/// A hard rank crash past the retry budget fails the senders' requests
/// with `PeerLost` (FailRequests mode) instead of hanging, and records a
/// structured report naming the dead peer.
#[test]
fn hard_crash_fails_requests_with_peer_lost() {
    let cfg = ChaosConfig {
        seed: 3,
        crash_rank: Some(1),
        crash_after: 0, // dead from its first frame
        retry_budget: 2,
        rto: Duration::from_millis(1),
        on_peer_lost: PeerLostAction::FailRequests,
        ..ChaosConfig::default()
    };
    // Rendezvous-size payload so the send completes only on ack.
    let net = NetworkModel::new(Duration::from_micros(10), 1.0e9).with_eager_threshold(8);
    let world = World::with_chaos(2, net, Some(cfg));
    world.run(|comm| {
        if comm.rank() == 0 {
            let req = comm.isend(&vec![1.0f64; 64], 1, 5).unwrap();
            let err = req
                .wait_checked()
                .expect_err("send to a crashed rank must fail");
            assert_eq!(
                err,
                VmpiError::PeerLost {
                    peer: 1,
                    attempts: 3
                }
            );
            // The channel is dead now: new sends fail fast.
            let req2 = comm.isend(&vec![2.0f64; 64], 1, 5).unwrap();
            assert!(matches!(
                req2.wait_checked(),
                Err(VmpiError::PeerLost { peer: 1, .. })
            ));
        }
        // Rank 1 is "crashed": it posts nothing and just returns.
    });
    let reports = world.peer_lost_reports();
    assert!(!reports.is_empty(), "expected a peer-lost report");
    assert_eq!(reports[0].peer, 1);
    assert_eq!(reports[0].reporter, 0);
    assert!(reports[0].peer_crashed);
    assert_eq!(reports[0].attempts, 3); // retry_budget + 1
}

/// A request must complete or fail, never vanish. The crashed rank's own
/// rendezvous send is swallowed by its dead NIC and waits for the
/// heartbeat detector; when the *survivor* declares the loss first and
/// poisons the world, the drain must find that record and fail it too.
/// (It used to sit with the detector, out of the in-flight map, and the
/// detector dropped it: a task bound to that send was never released.)
///
/// The survivor is first by the protocol's own arithmetic: a sender's
/// budget runs out `rto * (2^(budget+1) - 1)` after its send, the
/// heartbeat on a swallowed frame waits `rto * 2^(budget+1)` — one whole
/// `rto` longer, for two sends posted back to back.
#[test]
fn crashed_ranks_parked_send_fails_when_the_survivor_declares_first() {
    let cfg = ChaosConfig {
        seed: 3,
        crash_rank: Some(1),
        crash_after: 0,
        retry_budget: 2,
        rto: Duration::from_millis(20),
        on_peer_lost: PeerLostAction::AbortWorld,
        ..ChaosConfig::default()
    };
    let net = NetworkModel::new(Duration::from_micros(10), 1.0e9).with_eager_threshold(8);
    let world = World::with_chaos(2, net, Some(cfg));
    let (survivor, crashed) = (world.comm_for(0), world.comm_for(1));
    let lost = survivor.isend(&vec![1.0f64; 64], 1, 5).unwrap();
    let parked = crashed.isend(&vec![2.0f64; 64], 0, 6).unwrap();
    assert!(matches!(
        lost.wait_timeout(Duration::from_secs(5)),
        Err(VmpiError::PeerLost { peer: 1, .. })
    ));
    // `WorldDown` from the poison drain; `PeerLost` if a stalled delivery
    // thread let the heartbeat declare first after all. What it must not
    // do is time out.
    let parked = parked.wait_timeout(Duration::from_secs(5));
    assert!(
        matches!(
            parked,
            Err(VmpiError::WorldDown | VmpiError::PeerLost { .. })
        ),
        "the dead rank's send was neither completed nor failed: {parked:?}"
    );
    let reports = world.peer_lost_reports();
    assert_eq!((reports.len(), reports[0].reporter), (1, 0));
    let position = world.chaos_plan_position();
    assert!(position[0].starts_with("peer rank 1 hard-crashed per plan (seed 3,"));
    assert!(position[1].starts_with("plan position: seed 3 | frames "));
}

/// Satellite: `Request::wait_timeout` returns `VmpiError::Timeout`
/// instead of blocking forever on a receive whose message never comes.
#[test]
fn wait_timeout_returns_timeout_error() {
    let world = World::new(2, NetworkModel::instant());
    world.run(|comm| {
        if comm.rank() == 0 {
            let req = comm.irecv(1, 42).unwrap();
            let err = req
                .wait_timeout(Duration::from_millis(20))
                .expect_err("nothing was sent");
            assert!(matches!(err, VmpiError::Timeout { .. }));
            // `?`-style propagation compiles against std::error::Error.
            fn try_wait(r: &vmpi::Request) -> Result<vmpi::Status, Box<dyn std::error::Error>> {
                Ok(r.wait_timeout(Duration::from_millis(1))?)
            }
            assert!(try_wait(&req).is_err());
        }
    });
}
