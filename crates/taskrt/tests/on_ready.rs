//! On-ready gates (`TaskBuilder::on_ready`): a gate runs when the task's
//! last predecessor releases, and the task becomes ready when the
//! `GateHold` it was handed opens — inside the gate call or later, from
//! any thread.

use parking_lot::Mutex;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc;
use std::sync::Arc;
use std::time::Duration;
use taskrt::{GateHold, ObjId, Region, Runtime};

/// Polls `cond` for up to five seconds.
fn eventually(what: &str, cond: impl Fn() -> bool) {
    for _ in 0..5000 {
        if cond() {
            return;
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    panic!("timed out waiting for {what}");
}

/// The gate runs once the predecessor has released — not at a spawn that
/// leaves it live — and the task runs only once the gate is open, however
/// long that takes.
#[test]
fn gated_task_is_not_enqueued_before_its_gate_opens() {
    let rt = Runtime::new(2);
    let obj = ObjId::fresh();
    let (release_pred, pred_waits) = mpsc::channel::<()>();
    let pred_done = Arc::new(AtomicBool::new(false));
    let done = Arc::clone(&pred_done);
    rt.task()
        .inout(Region::new(obj, 0..4))
        .body(move || {
            pred_waits.recv().unwrap();
            done.store(true, Ordering::SeqCst);
        })
        .spawn();

    let held: Arc<Mutex<Option<GateHold>>> = Arc::default();
    let gate_calls = Arc::new(AtomicUsize::new(0));
    let ran = Arc::new(AtomicBool::new(false));
    let (slot, calls, pred_done, r) = (
        Arc::clone(&held),
        Arc::clone(&gate_calls),
        Arc::clone(&pred_done),
        Arc::clone(&ran),
    );
    rt.task()
        .inout(Region::new(obj, 0..4))
        .on_ready(move |hold| {
            assert!(
                pred_done.load(Ordering::SeqCst),
                "gate ran before its predecessor released"
            );
            calls.fetch_add(1, Ordering::SeqCst);
            *slot.lock() = Some(hold);
        })
        .body(move || r.store(true, Ordering::SeqCst))
        .spawn();

    std::thread::sleep(Duration::from_millis(20));
    assert_eq!(
        gate_calls.load(Ordering::SeqCst),
        0,
        "gate ran with a live predecessor"
    );
    release_pred.send(()).unwrap();
    eventually("the gate", || gate_calls.load(Ordering::SeqCst) == 1);
    // Two idle workers, and the task is still not run: it waits for its
    // gate, and nothing else.
    std::thread::sleep(Duration::from_millis(20));
    assert!(!ran.load(Ordering::SeqCst), "task ran with its gate shut");
    assert_eq!(rt.stats().live_tasks, 1);

    // Opened from another thread than the one that ran the gate.
    let hold = held.lock().take().expect("the gate kept its hold");
    std::thread::spawn(move || hold.open()).join().unwrap();
    rt.taskwait();
    assert!(ran.load(Ordering::SeqCst));
    assert_eq!(
        gate_calls.load(Ordering::SeqCst),
        1,
        "one gate call per run"
    );
}

/// A gate that opens at once — explicitly or by dropping the hold — inside
/// the gate call readies the task after the call: a chain of such tasks
/// runs in order, every gate once.
#[test]
fn gate_opened_inside_the_call_readies_the_task() {
    const N: usize = 200;
    let rt = Runtime::new(2);
    let obj = ObjId::fresh();
    let log = Arc::new(Mutex::new(Vec::with_capacity(N)));
    let gates = Arc::new(AtomicUsize::new(0));
    for i in 0..N {
        let (log, gates) = (Arc::clone(&log), Arc::clone(&gates));
        rt.task()
            .inout(Region::new(obj, 0..1))
            .on_ready(move |hold| {
                gates.fetch_add(1, Ordering::SeqCst);
                if i % 2 == 0 {
                    hold.open();
                }
            })
            .body(move || log.lock().push(i))
            .spawn();
    }
    rt.taskwait();
    assert_eq!(*log.lock(), (0..N).collect::<Vec<_>>());
    assert_eq!(gates.load(Ordering::SeqCst), N);
}

/// A failed gate poisons the runtime and opens: the task runs, the graph
/// drains, and `taskwait` rethrows the failure. A gate that panics does
/// the same.
#[test]
fn failed_or_panicking_gate_poisons_and_taskwait_rethrows() {
    rethrows("receive failed: world down", |hold| {
        hold.fail("receive failed: world down".into())
    });
    rethrows("gate blew up", |_hold| panic!("gate blew up"));
}

/// A gated task and its successor both run, and `taskwait` rethrows
/// `msg`.
fn rethrows(msg: &str, gate: impl Fn(GateHold) + Send + Sync + 'static) {
    let rt = Runtime::new(1);
    let obj = ObjId::fresh();
    let ran = Arc::new(AtomicUsize::new(0));
    let r = Arc::clone(&ran);
    rt.task()
        .inout(Region::new(obj, 0..1))
        .on_ready(gate)
        .body(move || {
            r.fetch_add(1, Ordering::SeqCst);
        })
        .spawn();
    // Its successor still runs: the graph keeps draining.
    let r = Arc::clone(&ran);
    rt.task()
        .inout(Region::new(obj, 0..1))
        .body(move || {
            r.fetch_add(1, Ordering::SeqCst);
        })
        .spawn();
    let err = catch_unwind(AssertUnwindSafe(|| rt.taskwait())).expect_err("taskwait rethrows");
    let text = err.downcast_ref::<String>().cloned().unwrap_or_default();
    assert!(text.contains(msg), "rethrown as {text:?}");
    assert_eq!(ran.load(Ordering::SeqCst), 2);
    assert_eq!(rt.stats().live_tasks, 0);
}
