//! # tampi — Task-Aware MPI integration
//!
//! This crate reimplements the core mechanism of the TAMPI library
//! (Sala et al., *Parallel Computing* 85, 2019) on top of the `vmpi`
//! transport and the `taskrt` data-flow runtime: **binding the completion
//! of non-blocking communication operations to task completion**.
//!
//! A task that issues [`isend`]/[`irecv_into`] (the `TAMPI_Isend` /
//! `TAMPI_Irecv` wrappers) finishes its body immediately — but its
//! dependencies are *not released* until the underlying transfer
//! completes. Successor tasks (e.g. the face-unpack tasks of miniAMR)
//! therefore become ready exactly when the data they consume is present,
//! with no `MPI_Waitany` loop and no explicit request management in
//! application code. That is the programming-model contribution the paper
//! builds on (§II-B, §IV-A).
//!
//! The implementation acquires a [`taskrt::EventHold`] on the calling
//! task and releases it from the request's completion callback, which
//! runs on the transport's delivery thread — the analogue of TAMPI's
//! internal progress engine.
//!
//! A receive can also skip its task altogether: [`irecv_on_ready`] posts
//! it from the *consumer's* on-ready gate ([`taskrt::GateHold`], OmpSs-2's
//! `onready`), so the message becomes one more predecessor of the task
//! that reads it. The gate runs when that task's last predecessor
//! releases — never earlier, so the previous message into the same
//! buffer section has been read by then — and again on every replay
//! re-arm of the task. With the send issued at the end of the producing
//! task ([`isend_from`] after the pack, in the same body), a message costs
//! two tasks instead of four; "Integrating Blocking and Non-Blocking MPI
//! Primitives with Task-Based Programming Models" describes both shapes.
//!
//! ## Example: data-flow ring exchange
//!
//! ```
//! use taskrt::{Runtime, Region, ObjId};
//! use vmpi::{World, NetworkModel, SharedBuffer};
//! use std::sync::Arc;
//!
//! let world = World::new(2, NetworkModel::instant());
//! world.run(|comm| {
//!     let comm = Arc::new(comm);
//!     let rt = Runtime::new(2);
//!     let recv_buf = SharedBuffer::<f64>::new(4);
//!     let buf_obj = ObjId::fresh();
//!     let peer = 1 - comm.rank();
//!
//!     // Send task: binds the send to itself, returns immediately.
//!     let c = Arc::clone(&comm);
//!     let payload = vec![comm.rank() as f64; 4];
//!     rt.task().body(move || {
//!         tampi::isend(&c, &payload, peer, 9).unwrap();
//!     }).spawn();
//!
//!     // Receive task: declares an `out` dependency on the buffer region.
//!     let c = Arc::clone(&comm);
//!     let slice = recv_buf.full();
//!     rt.task().out(Region::new(buf_obj, 0..4)).body(move || {
//!         tampi::irecv_into(&c, slice, peer as i32, 9).unwrap();
//!     }).spawn();
//!
//!     // Consumer task: runs only once the message actually arrived.
//!     let slice = recv_buf.full();
//!     rt.task().input(Region::new(buf_obj, 0..4)).body(move || {
//!         assert_eq!(slice.to_vec(), vec![peer as f64; 4]);
//!     }).spawn();
//!
//!     rt.taskwait();
//! });
//! ```

#![warn(missing_docs)]

use shmem::{BufSlice, Pod};
use taskrt::CommIntent;
use vmpi::{Comm, Request, Result};

/// Static description of the endpoint a task-bound [`isend_from`] would
/// post: destination, tag and payload size in elements. Part of the
/// submission seam ([`taskrt::Submitter`]) — the elaboration code builds
/// intents through this constructor so the static analyzer (`dfcheck`)
/// sees exactly the triple the live call would use.
pub fn isend_intent(dst: usize, tag: i32, elems: usize) -> CommIntent {
    CommIntent::send(dst, tag, elems)
}

/// Static description of the endpoint a task-bound [`irecv_into`] would
/// post: source, tag and payload size in elements. See [`isend_intent`].
pub fn irecv_intent(src: usize, tag: i32, elems: usize) -> CommIntent {
    CommIntent::recv(src, tag, elems)
}

/// Binds an already-issued request to the calling task (`TAMPI_Iwait`):
/// the task's dependencies are released only after both the task body
/// finishes and the request completes.
///
/// Observability: the hold acquire/release pair surfaces through the
/// `taskrt` event stream (`hold_acquire`/`hold_release`), so bound
/// requests are visible on the task's timeline without extra events here;
/// this layer only contributes the `tampi.bound_requests` counter.
///
/// # Panics
///
/// Panics if called outside a task body, or (on the delivery thread) if
/// the transfer later fails with a protocol error — mirroring MPI's
/// fatal-error default. World-teardown failures ([`vmpi::VmpiError::WorldDown`],
/// [`vmpi::VmpiError::PeerLost`]) instead poison the task runtime and are
/// rethrown by the rank's next `taskwait`, so the delivery thread
/// survives and an elastic driver can unwind the rank cleanly.
pub fn iwait(request: &Request) {
    if obs::is_enabled() {
        bound_requests().inc();
    }
    let hold = taskrt::current_event_hold();
    let req = request.clone();
    request.on_complete(move |status| match outcome(&req, status, "transfer") {
        Ok(()) => hold.release(),
        Err(msg) => hold.fail(msg),
    });
}

/// What a bound request's completion means for its task: `Ok` to go on,
/// `Err` with the message to poison the task runtime with when the whole
/// rank world is going away (elastic teardown, peer loss) — that unwinds
/// gracefully through `taskwait`. Any other failure is a per-transfer
/// protocol error, like a truncated receive, and stays fatal on the
/// thread that completed the request.
fn outcome(req: &Request, status: &vmpi::Status, what: &str) -> std::result::Result<(), String> {
    if status.source != usize::MAX {
        return Ok(());
    }
    match req.error() {
        Some(e @ (vmpi::VmpiError::WorldDown | vmpi::VmpiError::PeerLost { .. })) => {
            Err(format!("tampi-bound {what} failed: {e}"))
        }
        Some(e) => panic!("tampi-bound {what} failed: {e}"),
        None => panic!("tampi-bound {what} failed"),
    }
}

/// Cached handle for the `tampi.bound_requests` counter.
fn bound_requests() -> &'static obs::Counter {
    static COUNTER: std::sync::OnceLock<obs::Counter> = std::sync::OnceLock::new();
    COUNTER.get_or_init(|| obs::metrics().counter("tampi.bound_requests"))
}

/// Binds every request in the slice to the calling task
/// (`TAMPI_Iwaitall`).
pub fn iwaitall(requests: &[Request]) {
    for r in requests {
        iwait(r);
    }
}

/// Non-blocking task-aware send (`TAMPI_Isend`): performs the send and
/// binds its completion to the calling task. The payload is copied at
/// call time, so `data` may be dropped as soon as the call returns.
pub fn isend<T: Pod>(comm: &Comm, data: &[T], dst: usize, tag: i32) -> Result<()> {
    let req = comm.isend(data, dst, tag)?;
    iwait(&req);
    Ok(())
}

/// Task-aware send sourcing from a shared-buffer region (the packed
/// face-buffer path of miniAMR).
pub fn isend_from<T: Pod>(comm: &Comm, slice: &BufSlice<T>, dst: usize, tag: i32) -> Result<()> {
    let req = comm.isend_from(slice, dst, tag)?;
    iwait(&req);
    Ok(())
}

/// Non-blocking task-aware receive into a shared-buffer region
/// (`TAMPI_Irecv`): the calling task's dependencies (typically an `out`
/// on the buffer region) release when the payload has been written.
pub fn irecv_into<T: Pod>(comm: &Comm, slice: BufSlice<T>, src: i32, tag: i32) -> Result<()> {
    let req = comm.irecv_into(slice, src, tag)?;
    iwait(&req);
    Ok(())
}

/// Task-aware receive that hands the payload to a closure when it
/// arrives. The closure runs on the delivery thread *before* the task's
/// dependencies release, so successors observe its effects.
pub fn irecv_with<T: Pod, F>(comm: &Comm, src: i32, tag: i32, consume: F) -> Result<()>
where
    F: FnOnce(Vec<T>) + Send + 'static,
{
    let req = comm.irecv(src, tag)?;
    if obs::is_enabled() {
        bound_requests().inc();
    }
    let hold = taskrt::current_event_hold();
    // Writes performed by `consume` on the delivery thread belong to the
    // posting task in the sanitizer's happens-before graph.
    let scope = if depsan::is_enabled() {
        depsan::current_scope()
    } else {
        0
    };
    let req2 = req.clone();
    req.on_complete(move |status| {
        if let Err(msg) = outcome(&req2, status, "receive") {
            return hold.fail(msg);
        }
        let data = req2.take_data::<T>().expect("typed payload");
        depsan::with_scope(scope, || consume(data));
        hold.release();
    });
    Ok(())
}

/// Task-aware receive posted from an on-ready gate
/// ([`taskrt::TaskBuilder::on_ready`], OmpSs-2's `onready`): posts the
/// receive into `slice` and opens `gate` when the payload has been
/// written, so the gated task — the consumer of the message — starts
/// exactly when its data is there, and no task of its own is spent on
/// posting the receive.
///
/// The gate runs once the consumer's last predecessor has released, so
/// the receive is posted after every earlier reader of `slice` is done:
/// a consumer that declares `slice` `inout` (it is written under the
/// consumer's own sanitizer scope, as the receive's) orders the next
/// message into the same buffer behind its own read. The gate runs as
/// the task (its sanitizer scope and obs task id), so the receive and its
/// delivery belong to the consumer in depsan's happens-before graph and
/// in the obs message records (`recv_task`).
///
/// Failures complete the gate the way [`iwait`] completes an event hold:
/// a world teardown poisons the runtime and opens the gate; a protocol
/// error panics.
pub fn irecv_on_ready<T: Pod>(
    comm: &Comm,
    slice: BufSlice<T>,
    src: i32,
    tag: i32,
    gate: taskrt::GateHold,
) -> Result<()> {
    let req = comm.irecv_into(slice, src, tag)?;
    if obs::is_enabled() {
        bound_requests().inc();
    }
    let req2 = req.clone();
    req.on_complete(move |status| match outcome(&req2, status, "receive") {
        Ok(()) => gate.open(),
        Err(msg) => gate.fail(msg),
    });
    Ok(())
}

#[cfg(test)]
mod tests {
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;
    use taskrt::{ObjId, Region, Runtime};
    use vmpi::{NetworkModel, ReduceOp, SharedBuffer, World};

    /// The unpack task must not run before the message is delivered, even
    /// though the receive task's body finishes immediately.
    #[test]
    fn successor_waits_for_delivery() {
        let world = World::new(
            2,
            NetworkModel::new(std::time::Duration::from_millis(20), f64::INFINITY),
        );
        world.run(|comm| {
            let comm = Arc::new(comm);
            let rt = Runtime::new(2);
            if comm.rank() == 0 {
                let c = Arc::clone(&comm);
                rt.task()
                    .body(move || {
                        super::isend(&c, &[123.0f64], 1, 3).unwrap();
                    })
                    .spawn();
                rt.taskwait();
            } else {
                let buf = SharedBuffer::<f64>::new(1);
                let obj = ObjId::fresh();
                let t_post = std::time::Instant::now();
                let c = Arc::clone(&comm);
                let slice = buf.full();
                rt.task()
                    .out(Region::new(obj, 0..1))
                    .body(move || {
                        super::irecv_into(&c, slice, 0, 3).unwrap();
                    })
                    .spawn();
                let slice = buf.full();
                let elapsed_when_consumed = Arc::new(AtomicUsize::new(0));
                let e = Arc::clone(&elapsed_when_consumed);
                rt.task()
                    .input(Region::new(obj, 0..1))
                    .body(move || {
                        assert_eq!(slice.to_vec(), vec![123.0]);
                        e.store(t_post.elapsed().as_millis() as usize, Ordering::SeqCst);
                    })
                    .spawn();
                rt.taskwait();
                assert!(
                    elapsed_when_consumed.load(Ordering::SeqCst) >= 15,
                    "consumer ran before the 20ms network latency elapsed"
                );
            }
        });
    }

    /// Many in-flight messages bound to distinct tasks, consumed by
    /// per-section unpack tasks — the aggregated-buffer pattern.
    #[test]
    fn many_sections_roundtrip() {
        let world = World::new(2, NetworkModel::cluster());
        world.run(|comm| {
            let comm = Arc::new(comm);
            let rt = Runtime::new(3);
            let n_msgs = 16usize;
            let sect = 32usize;
            if comm.rank() == 0 {
                for m in 0..n_msgs {
                    let c = Arc::clone(&comm);
                    rt.task()
                        .body(move || {
                            let data: Vec<f64> = (0..sect).map(|i| (m * sect + i) as f64).collect();
                            super::isend(&c, &data, 1, m as i32).unwrap();
                        })
                        .spawn();
                }
                rt.taskwait();
            } else {
                let buf = SharedBuffer::<f64>::new(n_msgs * sect);
                let obj = ObjId::fresh();
                let checked = Arc::new(AtomicUsize::new(0));
                for m in 0..n_msgs {
                    let c = Arc::clone(&comm);
                    let slice = buf.slice(m * sect..(m + 1) * sect);
                    rt.task()
                        .out(Region::new(obj, m * sect..(m + 1) * sect))
                        .body(move || {
                            super::irecv_into(&c, slice, 0, m as i32).unwrap();
                        })
                        .spawn();
                    let slice = buf.slice(m * sect..(m + 1) * sect);
                    let checked = Arc::clone(&checked);
                    rt.task()
                        .input(Region::new(obj, m * sect..(m + 1) * sect))
                        .body(move || {
                            let v = slice.to_vec();
                            for (i, x) in v.iter().enumerate() {
                                assert_eq!(*x, (m * sect + i) as f64);
                            }
                            checked.fetch_add(1, Ordering::SeqCst);
                        })
                        .spawn();
                }
                rt.taskwait();
                assert_eq!(checked.load(Ordering::SeqCst), n_msgs);
            }
        });
    }

    /// A task binding several requests releases only after all complete.
    #[test]
    fn multiple_holds_per_task() {
        let world = World::new(3, NetworkModel::cluster());
        world.run(|comm| {
            let comm = Arc::new(comm);
            let rt = Runtime::new(2);
            if comm.rank() == 0 {
                let obj = ObjId::fresh();
                let buf = SharedBuffer::<f64>::new(2);
                let c = Arc::clone(&comm);
                let s0 = buf.slice(0..1);
                let s1 = buf.slice(1..2);
                rt.task()
                    .out(Region::new(obj, 0..2))
                    .body(move || {
                        super::irecv_into(&c, s0, 1, 0).unwrap();
                        super::irecv_into(&c, s1, 2, 0).unwrap();
                    })
                    .spawn();
                let slice = buf.full();
                rt.task()
                    .input(Region::new(obj, 0..2))
                    .body(move || {
                        let v = slice.to_vec();
                        assert_eq!(v, vec![10.0, 20.0]);
                    })
                    .spawn();
                rt.taskwait();
            } else {
                let value = comm.rank() as f64 * 10.0;
                comm.send(&[value], 0, 0).unwrap();
                let rt2 = rt; // silence unused warnings symmetrically
                rt2.taskwait();
            }
        });
    }

    /// irecv_with consumes the payload on the delivery thread before
    /// releasing dependencies.
    #[test]
    fn irecv_with_consumes_before_release() {
        let world = World::new(2, NetworkModel::cluster());
        world.run(|comm| {
            let comm = Arc::new(comm);
            let rt = Runtime::new(2);
            if comm.rank() == 0 {
                comm.send(&[7i64, 8, 9], 1, 5).unwrap();
            } else {
                let obj = ObjId::fresh();
                let stash: Arc<parking_lot::Mutex<Vec<i64>>> =
                    Arc::new(parking_lot::Mutex::new(Vec::new()));
                let c = Arc::clone(&comm);
                let st = Arc::clone(&stash);
                rt.task()
                    .out(Region::whole(obj))
                    .body(move || {
                        super::irecv_with::<i64, _>(&c, 0, 5, move |data| {
                            *st.lock() = data;
                        })
                        .unwrap();
                    })
                    .spawn();
                let st = Arc::clone(&stash);
                rt.task()
                    .input(Region::whole(obj))
                    .body(move || {
                        assert_eq!(*st.lock(), vec![7, 8, 9]);
                    })
                    .spawn();
                rt.taskwait();
            }
        });
    }

    /// Sanity: collectives still work from the main thread while tasks
    /// fly (the checksum_remote pattern).
    #[test]
    fn collective_after_taskwait() {
        let world = World::new(4, NetworkModel::cluster());
        world.run(|comm| {
            let comm = Arc::new(comm);
            let rt = Runtime::new(2);
            let partial = Arc::new(AtomicUsize::new(0));
            for i in 0..10usize {
                let p = Arc::clone(&partial);
                rt.spawn(Vec::new(), move || {
                    p.fetch_add(i, Ordering::SeqCst);
                });
            }
            rt.taskwait();
            let local = partial.load(Ordering::SeqCst) as i64;
            let total = comm.allreduce_scalar(local, ReduceOp::Sum).unwrap();
            assert_eq!(total, 45 * 4);
        });
    }
}
