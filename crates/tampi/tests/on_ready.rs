//! Receives posted from on-ready gates (`tampi::irecv_on_ready`): the
//! message is one more predecessor of the task that reads it, and the
//! receive is posted only once that task's other predecessors are done.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Barrier};
use std::time::{Duration, Instant};
use taskrt::{Access, ObjId, Region, Runtime};
use vmpi::{ChaosConfig, NetworkModel, PeerLostAction, SharedBuffer, VmpiError, World};

/// Runs `f` on its own thread and fails the test if it does not finish
/// within `secs` seconds (a hang is how a lost ordering shows up here).
fn within<R: Send + 'static>(secs: u64, f: impl FnOnce() -> R + Send + 'static) -> R {
    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || {
        let _ = tx.send(catch_unwind(AssertUnwindSafe(f)));
    });
    match rx.recv_timeout(Duration::from_secs(secs)) {
        Ok(Ok(r)) => r,
        Ok(Err(panic)) => std::panic::resume_unwind(panic),
        Err(_) => panic!("did not finish within {secs} s"),
    }
}

/// The gated consumer posts its receive once its predecessor (a task
/// still writing the buffer) has released, and runs once the message,
/// 20 ms on the wire, has arrived.
#[test]
fn gated_consumer_posts_after_its_predecessor_and_runs_after_the_message() {
    let net = NetworkModel::new(Duration::from_millis(20), f64::INFINITY);
    World::new(2, net).run(|comm| {
        let comm = Arc::new(comm);
        let rt = Runtime::new(2);
        if comm.rank() == 0 {
            let c = Arc::clone(&comm);
            rt.task()
                .body(move || tampi::isend(&c, &[7.0f64, 8.0], 1, 3).unwrap())
                .spawn();
        } else {
            let t0 = Instant::now();
            let us = move || t0.elapsed().as_micros() as u64;
            let buf = SharedBuffer::<f64>::new(2);
            let obj = ObjId::fresh();
            let section = Region::new(obj, 0..2);
            let (pred_end, posted, ran) = (
                Arc::new(AtomicU64::new(0)),
                Arc::new(AtomicU64::new(0)),
                Arc::new(AtomicU64::new(0)),
            );
            let (slice, end) = (buf.full(), Arc::clone(&pred_end));
            rt.task()
                .out(section.clone())
                .body(move || {
                    slice.with_write(|s| s.fill(-1.0));
                    std::thread::sleep(Duration::from_millis(5));
                    end.store(us(), Ordering::SeqCst);
                })
                .spawn();
            let (c, slice, at) = (Arc::clone(&comm), buf.full(), Arc::clone(&posted));
            let (read, at_run) = (buf.full(), Arc::clone(&ran));
            rt.task()
                .inout(section)
                .on_ready(move |gate| {
                    at.store(us(), Ordering::SeqCst);
                    tampi::irecv_on_ready(&c, slice.clone(), 0, 3, gate).unwrap();
                })
                .body(move || {
                    assert_eq!(read.to_vec(), vec![7.0, 8.0]);
                    at_run.store(us(), Ordering::SeqCst);
                })
                .spawn();
            rt.taskwait();
            let (pred_end, posted, ran) = (
                pred_end.load(Ordering::SeqCst),
                posted.load(Ordering::SeqCst),
                ran.load(Ordering::SeqCst),
            );
            assert!(
                posted >= pred_end,
                "receive posted at {posted} us, predecessor ended at {pred_end} us"
            );
            assert!(
                ran >= 15_000,
                "consumer ran at {ran} us, before the 20 ms transit"
            );
        }
        rt.taskwait();
    });
}

/// The sender runs a stage ahead: the second message into the same
/// section is sent while the consumer of the first is still reading it.
/// Its receive is posted from the second consumer's gate, which runs only
/// once the first consumer has released the section it declared `inout`
/// — so the payload waits in the mailbox. Were the consumers to declare
/// the section `in`, both receives would be posted at once and the second
/// payload would land in the section mid-read (`SharedBuffer race`).
#[test]
fn sender_a_stage_ahead_waits_for_the_reader() {
    within(20, || {
        let reading = Arc::new(Barrier::new(2));
        World::new(2, NetworkModel::instant()).run(|comm| {
            let comm = Arc::new(comm);
            if comm.rank() == 0 {
                comm.send(&[1.0f64; 4], 1, 5).unwrap();
                reading.wait();
                // The second stage's message, during the first stage's read.
                comm.send(&[2.0f64; 4], 1, 5).unwrap();
                reading.wait();
                return;
            }
            let rt = Runtime::new(2);
            let buf = SharedBuffer::<f64>::new(4);
            let section = Region::new(ObjId::fresh(), 0..4);
            for stage in 1..=2 {
                let (c, slice, read) = (Arc::clone(&comm), buf.full(), buf.full());
                let reading = Arc::clone(&reading);
                rt.task()
                    .access(Access::read_write(section.clone()))
                    // The stage's own block: the two consumers are ordered
                    // through the section alone.
                    .inout(Region::new(ObjId::fresh(), 0..1))
                    .on_ready(move |gate| {
                        tampi::irecv_on_ready(&c, slice.clone(), 0, 5, gate).unwrap();
                    })
                    .body(move || {
                        read.with_read(|payload| {
                            if stage == 1 {
                                reading.wait();
                                reading.wait();
                                std::thread::sleep(Duration::from_millis(10));
                            }
                            assert_eq!(payload, &[stage as f64; 4][..], "stage {stage}");
                        })
                    })
                    .spawn();
            }
            rt.taskwait();
        });
    });
}

/// A gated receive that dies with the world (the peer crashed and the
/// survivor's abort policy tore the world down) poisons the runtime: the
/// consumer still runs, the graph drains, and `taskwait` rethrows.
#[test]
fn world_down_poisons_the_runtime_and_taskwait_rethrows() {
    let cfg = ChaosConfig {
        seed: 3,
        crash_rank: Some(1),
        crash_after: 0,
        retry_budget: 2,
        rto: Duration::from_millis(5),
        on_peer_lost: PeerLostAction::AbortWorld,
        ..ChaosConfig::default()
    };
    let net = NetworkModel::new(Duration::from_micros(10), 1.0e9).with_eager_threshold(8);
    let world = World::with_chaos(2, net, Some(cfg));
    let survivor = Arc::new(world.comm_for(0));
    let lost = survivor.isend(&[1.0f64; 64], 1, 5).unwrap();
    assert!(matches!(
        lost.wait_timeout(Duration::from_secs(5)),
        Err(VmpiError::PeerLost { peer: 1, .. })
    ));
    let rt = Runtime::new(1);
    let buf = SharedBuffer::<f64>::new(4);
    let (c, slice) = (Arc::clone(&survivor), buf.full());
    let ran = Arc::new(AtomicU64::new(0));
    let r = Arc::clone(&ran);
    rt.task()
        .inout(Region::new(ObjId::fresh(), 0..4))
        .on_ready(move |gate| tampi::irecv_on_ready(&c, slice.clone(), 1, 6, gate).unwrap())
        .body(move || {
            r.fetch_add(1, Ordering::SeqCst);
        })
        .spawn();
    let err = within(10, move || {
        let err = catch_unwind(AssertUnwindSafe(|| rt.taskwait())).expect_err("taskwait rethrows");
        assert_eq!(rt.stats().live_tasks, 0);
        err.downcast_ref::<String>().cloned().unwrap_or_default()
    });
    assert!(
        err.contains("tampi-bound receive failed"),
        "rethrown as {err:?}"
    );
    assert_eq!(ran.load(Ordering::SeqCst), 1);
}
