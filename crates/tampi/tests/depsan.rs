//! End-to-end sanitizer coverage across the task/communication stack:
//! each canonical contract violation produces exactly one report.
//!
//! Record mode is used so the violations can be inspected instead of
//! terminating the process. The sanitizer state is global, so the tests
//! serialize on a lock and reset state between runs.

use parking_lot::Mutex;
use taskrt::{ObjId, Region, Runtime};
use vmpi::{NetworkModel, SharedBuffer, World};

static TEST_LOCK: Mutex<()> = Mutex::new(());

fn setup() -> parking_lot::MutexGuard<'static, ()> {
    let guard = TEST_LOCK.lock();
    depsan::enable(depsan::Mode::Record);
    depsan::reset_for_testing();
    guard
}

/// A task that writes outside its declared region is reported once.
#[test]
fn undeclared_write_is_reported() {
    let _guard = setup();
    let rt = Runtime::new(1);
    let buf = SharedBuffer::<f64>::new(8);
    let obj = ObjId::fresh();
    buf.bind_obj(obj.0);
    let slice = buf.full();
    rt.task()
        .out(Region::new(obj, 0..4))
        .body(move || {
            // Declared [0..4) but writes the whole buffer [0..8).
            slice.with_write(|d| d.fill(1.0));
        })
        .spawn();
    rt.taskwait();
    let violations = depsan::take_violations();
    assert_eq!(
        violations.len(),
        1,
        "expected exactly one violation: {violations:?}"
    );
    assert_eq!(violations[0].kind, depsan::ViolationKind::UndeclaredWrite);
    assert_eq!(violations[0].obj, obj.0);
}

/// Two tasks with no dependency edge writing the same region race.
#[test]
fn unordered_writes_race() {
    let _guard = setup();
    // One worker: execution is serial, so the always-on shmem claim
    // table sees no temporal overlap — only the sanitizer's
    // happens-before analysis can flag the missing edge.
    let rt = Runtime::new(1);
    let buf = SharedBuffer::<f64>::new(4);
    let obj = ObjId::fresh();
    buf.bind_obj(obj.0);
    for _ in 0..2 {
        let slice = buf.full();
        // Zero-declaration tasks are exempt from the declared check but
        // still race-checked.
        rt.spawn(Vec::new(), move || slice.with_write(|d| d.fill(2.0)));
    }
    rt.taskwait();
    let violations = depsan::take_violations();
    assert_eq!(
        violations.len(),
        1,
        "expected exactly one violation: {violations:?}"
    );
    assert_eq!(violations[0].kind, depsan::ViolationKind::Race);
}

/// Declaring the conflict removes the race: same two writers, but the
/// second declares an `out` on the region and is serialized behind an
/// identically-declared first.
#[test]
fn declared_writes_do_not_race() {
    let _guard = setup();
    let rt = Runtime::new(1);
    let buf = SharedBuffer::<f64>::new(4);
    let obj = ObjId::fresh();
    buf.bind_obj(obj.0);
    for _ in 0..2 {
        let slice = buf.full();
        rt.task()
            .out(Region::new(obj, 0..4))
            .body(move || slice.with_write(|d| d.fill(2.0)))
            .spawn();
    }
    rt.taskwait();
    let violations = depsan::take_violations();
    assert!(
        violations.is_empty(),
        "unexpected violations: {violations:?}"
    );
}

/// Two same-tag messages with different payload sizes queued at once
/// trigger the tag-size lint (the send-side signature of the legacy
/// group-offset bug).
#[test]
fn tag_size_mismatch_is_reported() {
    let _guard = setup();
    let world = World::new(1, NetworkModel::instant());
    world.run(|comm| {
        let r1 = comm.isend(&[1.0f64; 2], 0, 7).unwrap();
        let r2 = comm.isend(&[1.0f64; 3], 0, 7).unwrap();
        // Drain both so nothing is left for the finalize scan.
        let _ = comm.recv::<f64>(0, 7).unwrap();
        let _ = comm.recv::<f64>(0, 7).unwrap();
        r1.wait();
        r2.wait();
    });
    drop(world);
    let violations = depsan::take_violations();
    assert_eq!(
        violations.len(),
        1,
        "expected exactly one violation: {violations:?}"
    );
    assert_eq!(violations[0].kind, depsan::ViolationKind::TagSizeMismatch);
    assert!(
        violations[0].detail.contains("tag 7"),
        "detail: {}",
        violations[0].detail
    );
}

/// Two same-tag receives of different sizes whose posting tasks are not
/// ordered are ambiguous even when they are never in flight together:
/// here each message is sent just before its receive is posted, and the
/// second is sent only once the first receive has taken its message (the
/// main thread waits for it outside the task graph, so nothing orders the
/// two posting tasks). The same two posts ordered by a dependency are not.
#[test]
fn unordered_same_tag_receives_are_ambiguous_even_one_at_a_time() {
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;
    let _guard = setup();
    for ordered in [false, true] {
        let world = World::new(1, NetworkModel::instant());
        world.run(|comm| {
            let comm = Arc::new(comm);
            let rt = Runtime::new(1);
            let (a, b) = (ObjId::fresh(), ObjId::fresh());
            for (n, obj) in [(2, a), (3, b)] {
                comm.send(&vec![1.0f64; n], 0, 7).unwrap();
                let buf = SharedBuffer::<f64>::new(n);
                buf.bind_obj(obj.0);
                let (c, slice) = (Arc::clone(&comm), buf.full());
                let posted = Arc::new(AtomicBool::new(false));
                let p = Arc::clone(&posted);
                let mut task = rt.task().out(Region::new(obj, 0..n));
                if ordered && obj == b {
                    task = task.input(Region::new(a, 0..2));
                }
                task.body(move || {
                    // The message is queued: the receive matches it here.
                    tampi::irecv_into(&c, slice, 0, 7).unwrap();
                    p.store(true, Ordering::SeqCst);
                })
                .spawn();
                while !posted.load(Ordering::SeqCst) {
                    std::thread::yield_now();
                }
            }
            rt.taskwait();
        });
        drop(world);
        let violations = depsan::take_violations();
        if ordered {
            assert!(violations.is_empty(), "{violations:?}");
        } else {
            assert!(
                violations
                    .iter()
                    .any(|v| v.kind == depsan::ViolationKind::AmbiguousRecv
                        && v.detail.contains("not ordered")),
                "{violations:?}"
            );
        }
    }
}

/// A pending receive left unmatched at world teardown is a finalize
/// leak.
#[test]
fn unmatched_recv_leaks_at_finalize() {
    let _guard = setup();
    let world = World::new(1, NetworkModel::instant());
    world.run(|comm| {
        let _req = comm.irecv(0, 3).unwrap();
        // Never send the message; drop the request without waiting.
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
        violations[0].detail.contains("pending receive"),
        "detail: {}",
        violations[0].detail
    );
}
