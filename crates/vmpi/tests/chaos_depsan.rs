//! Regression: messages the fault plan destroyed must not show up as
//! depsan finalize leaks. When a sender exhausts its retry budget, the
//! reliability layer records the loss; the finalize scan then excuses
//! exactly one matching pending receive per recorded loss — and still
//! flags receives that leaked for ordinary reasons.
//!
//! The record of lost frames belongs to the world that lost them, so it
//! excuses nothing in the next world of the process.
//!
//! Sanitizer state is process-global, so the tests serialize on a lock
//! and reset state between runs (same idiom as tampi's depsan tests).

use parking_lot::Mutex;
use std::time::Duration;
use vmpi::{ChaosConfig, NetworkModel, PeerLostAction, VmpiError, World};

static TEST_LOCK: Mutex<()> = Mutex::new(());

fn setup() -> parking_lot::MutexGuard<'static, ()> {
    let guard = TEST_LOCK.lock();
    depsan::enable();
    depsan::reset_for_testing();
    guard
}

/// A receive whose message the fault plan destroyed (peer crashed, retry
/// budget exhausted) is excused from the finalize-leak lint.
#[test]
fn chaos_dropped_message_excuses_pending_recv() {
    let _guard = setup();
    let cfg = ChaosConfig {
        seed: 21,
        crash_rank: Some(1),
        crash_after: 0,
        retry_budget: 1,
        rto: Duration::from_millis(1),
        on_peer_lost: PeerLostAction::FailRequests,
        ..ChaosConfig::default()
    };
    // Rendezvous-size payload so the sender observably waits out the
    // retry budget before the world tears down.
    let net = NetworkModel::new(Duration::from_micros(10), 1.0e9).with_eager_threshold(8);
    let world = World::with_chaos(2, net, Some(cfg));
    world.run(|comm| {
        if comm.rank() == 0 {
            let req = comm.isend(&vec![4.0f64; 32], 1, 6).unwrap();
            let err = req.wait_checked().expect_err("peer is crashed");
            assert!(matches!(err, VmpiError::PeerLost { peer: 1, .. }));
        } else {
            // The receive for the destroyed message: left pending on
            // purpose. Without the loss record this is a finalize leak.
            let _req = comm.irecv(0, 6).unwrap();
        }
    });
    drop(world);
    let violations = depsan::take_violations();
    assert!(
        violations.is_empty(),
        "fault-plan losses must not report finalize leaks: {violations:?}"
    );
}

/// The excusal is per-loss, not a blanket pass: a second pending receive
/// with no matching loss record is still reported.
#[test]
fn unrelated_pending_recv_is_still_a_leak() {
    let _guard = setup();
    let cfg = ChaosConfig {
        seed: 22,
        crash_rank: Some(1),
        crash_after: 0,
        retry_budget: 1,
        rto: Duration::from_millis(1),
        on_peer_lost: PeerLostAction::FailRequests,
        ..ChaosConfig::default()
    };
    let net = NetworkModel::new(Duration::from_micros(10), 1.0e9).with_eager_threshold(8);
    let world = World::with_chaos(2, net, Some(cfg));
    world.run(|comm| {
        if comm.rank() == 0 {
            let req = comm.isend(&vec![4.0f64; 32], 1, 6).unwrap();
            assert!(req.wait_checked().is_err());
        } else {
            let _excused = comm.irecv(0, 6).unwrap();
            // Different tag: no loss record matches this one.
            let _leaked = comm.irecv(0, 99).unwrap();
        }
    });
    drop(world);
    let violations = depsan::take_violations();
    assert_eq!(
        violations.len(),
        1,
        "expected exactly one violation: {violations:?}"
    );
    assert_eq!(violations[0].kind, depsan::ViolationKind::FinalizeLeak);
    assert!(
        violations[0].detail.contains("1 receive(s) excused"),
        "detail should note the excused receive: {}",
        violations[0].detail
    );
}

/// A loss no receive matched stays with its world: it does not excuse a
/// genuinely leaked receive in the next world of the process (an elastic
/// respawn, another `--jobs` job), where every communicator id is the
/// world's 0 again.
#[test]
fn unmatched_loss_does_not_excuse_a_leak_in_the_next_world() {
    let _guard = setup();
    let cfg = ChaosConfig {
        seed: 23,
        crash_rank: Some(1),
        crash_after: 0,
        retry_budget: 1,
        rto: Duration::from_millis(1),
        on_peer_lost: PeerLostAction::FailRequests,
        ..ChaosConfig::default()
    };
    let net = NetworkModel::new(Duration::from_micros(10), 1.0e9).with_eager_threshold(8);
    let lossy = World::with_chaos(2, net, Some(cfg));
    lossy.run(|comm| {
        if comm.rank() == 0 {
            // Lost to the crashed peer, which posts nothing for it.
            let req = comm.isend(&vec![4.0f64; 32], 1, 6).unwrap();
            assert!(req.wait_checked().is_err());
        }
    });
    drop(lossy);
    assert!(depsan::take_violations().is_empty());

    let clean = World::new(2, NetworkModel::instant());
    clean.run(|comm| {
        if comm.rank() == 1 {
            // Nothing sends this: a leak, whatever the last world lost.
            let _leaked = comm.irecv(0, 6).unwrap();
        }
    });
    drop(clean);
    let violations = depsan::take_violations();
    let leaks = violations
        .iter()
        .filter(|v| v.kind == depsan::ViolationKind::FinalizeLeak);
    assert_eq!(leaks.count(), 1, "{violations:?}");
}
