//! The immediate-successor hint is runtime-keyed: a task whose last event
//! hold is dropped on another runtime's worker readies its successor on
//! its own runtime, not on the deque of the foreign worker that happened
//! to release it.

use std::sync::mpsc;
use std::thread::{self, ThreadId};
use taskrt::{EventHold, ObjId, Region, Runtime};

/// One runtime with a single worker, and that worker's thread id.
fn runtime() -> (Runtime, ThreadId) {
    let rt = Runtime::new(1);
    let (tx, rx) = mpsc::channel();
    rt.spawn(vec![], move || tx.send(thread::current().id()).unwrap());
    rt.taskwait();
    let id = rx.recv().unwrap();
    (rt, id)
}

/// Panics (poisoning the runtime, rethrown by its next `taskwait`) unless
/// the calling task body runs on `home`.
fn assert_on(home: ThreadId, what: &str) {
    assert_eq!(
        thread::current().id(),
        home,
        "{what} ran on a thread of the other runtime"
    );
}

#[test]
fn successor_released_from_a_foreign_worker_runs_at_home() {
    let (a, a_thread) = runtime();
    let (b, b_thread) = runtime();
    assert_ne!(a_thread, b_thread);
    let obj = ObjId::fresh();
    let (hand_over, handed) = mpsc::channel::<EventHold>();
    let (ran, runs) = mpsc::channel();

    // On A: a task binds its release to an event hold and hands it to B.
    a.task()
        .out(Region::new(obj, 0..4))
        .body(move || {
            assert_on(a_thread, "A's holder");
            hand_over.send(taskrt::current_event_hold()).unwrap();
        })
        .spawn();
    // On A: its successor, readied when the hold drops.
    a.task()
        .input(Region::new(obj, 0..4))
        .body(move || {
            assert_on(a_thread, "A's successor");
            ran.send(thread::current().id()).unwrap();
        })
        .spawn();
    // On B: the task that drops A's hold, on B's worker.
    b.spawn(vec![], move || {
        assert_on(b_thread, "B's releaser");
        drop(handed.recv().unwrap());
    });

    b.taskwait();
    a.taskwait();
    assert_eq!(runs.recv().unwrap(), a_thread);
}
