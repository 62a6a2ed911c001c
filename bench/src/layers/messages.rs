//! `vmpi` and `tampi` rungs. Rank threads stay alive inside **one**
//! `World::run` per rung; nothing spawns a thread per iteration.

use super::{sampled, time_call, Shapes, Values};
use crate::alloc::counted;
use crate::span::Spans;
use crate::stats::median;
use shmem::SharedBuffer;
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};
use taskrt::{ObjId, Region, Runtime};
use vmpi::{NetworkModel, ReduceOp, RequestSet, World};

/// Runs `f` on both ranks of a fresh 2-rank world and returns rank 0's
/// result. The ranks loop for the same wall-clock budget: rank 0 decides
/// when to stop and tells rank 1 in-band.
fn on_two_ranks<R: Send>(net: &NetworkModel, f: impl Fn(&vmpi::Comm) -> R + Send + Sync) -> R {
    let world = World::new(2, net.clone());
    world
        .run(|comm| f(&comm))
        .into_iter()
        .next()
        .expect("rank 0 result")
}

const TAG_DATA: i32 = 7;
const TAG_CTRL: i32 = 8;

/// A lock-step loop on two ranks: every iteration rank 0 first tells
/// rank 1 whether to go on (one 8-byte control message, outside the
/// timed region), then both run `step`. Returns rank 0's per-iteration
/// walls of `step`; rank 1 returns an empty vector.
fn lockstep(comm: &vmpi::Comm, budget: Duration, mut step: impl FnMut(&vmpi::Comm)) -> Vec<f64> {
    let mut walls = Vec::new();
    let start = Instant::now();
    loop {
        if comm.rank() == 0 {
            let go = walls.len() < 50 || start.elapsed() < budget;
            comm.send(&[u64::from(go)], 1, TAG_CTRL).expect("ctrl send");
            if !go {
                return walls;
            }
        } else {
            let (go, _) = comm.recv::<u64>(0, TAG_CTRL).expect("ctrl recv");
            if go[0] == 0 {
                return walls;
            }
        }
        let t = Instant::now();
        step(comm);
        walls.push(t.elapsed().as_secs_f64());
    }
}

/// One face exchange: each rank receives one message from its peer and
/// sends one, as `communicate` does per neighbour and direction.
fn face_exchange(comm: &vmpi::Comm, send: &vmpi::BufSlice<f64>, recv: &vmpi::BufSlice<f64>) {
    let peer = 1 - comm.rank();
    let r = comm
        .irecv_into(recv.clone(), peer as i32, TAG_DATA)
        .expect("post recv");
    let s = comm.isend_from(send, peer, TAG_DATA).expect("send");
    RequestSet::new(vec![r, s]).waitall();
}

pub(super) fn vmpi_rungs(sh: &Shapes, spans: &mut Spans, rung: Duration, out: &mut Values) -> f64 {
    let instant = NetworkModel::instant();
    let nv = sh.nv;
    let msg = sh.msg_elems;

    let walls = sampled(spans, "vmpi.pingpong", || {
        on_two_ranks(&instant, |comm| {
            lockstep(comm, rung, |comm| {
                if comm.rank() == 0 {
                    comm.send(&[1.0f64], 1, TAG_DATA).expect("ping");
                    black_box(comm.recv::<f64>(1, TAG_DATA).expect("pong"));
                } else {
                    black_box(comm.recv::<f64>(0, TAG_DATA).expect("ping"));
                    comm.send(&[2.0f64], 0, TAG_DATA).expect("pong");
                }
            })
        })
    });
    out.push(("vmpi.pingpong_us", median(&walls) * 1e6 / 2.0));

    let face = |comm: &vmpi::Comm, budget: Duration| {
        let send = SharedBuffer::<f64>::new(msg).full();
        let recv = SharedBuffer::<f64>::new(msg).full();
        lockstep(comm, budget, |comm| face_exchange(comm, &send, &recv))
    };
    let walls = sampled(spans, "vmpi.face_exchange", || {
        on_two_ranks(&instant, |comm| face(comm, rung))
    });
    let msg_us = median(&walls) * 1e6;
    out.push(("vmpi.msg_us.face", msg_us));

    const MB: usize = 128 * 1024;
    let walls = sampled(spans, "vmpi.transfer_1MB", || {
        on_two_ranks(&instant, |comm| {
            let mut buf = vec![0.0f64; MB];
            lockstep(comm, rung, |comm| {
                if comm.rank() == 0 {
                    comm.send(&buf, 1, TAG_DATA).expect("send 1MB");
                    black_box(comm.recv::<u64>(1, TAG_DATA).expect("ack"));
                } else {
                    comm.recv_into(&mut buf, 0, TAG_DATA).expect("recv 1MB");
                    comm.send(&[1u64], 0, TAG_DATA).expect("ack");
                }
            })
        })
    });
    out.push(("vmpi.bw_gbs.1MB", (MB * 8) as f64 / median(&walls) / 1e9));

    // Matching: rank 0 alone, sending to itself, first with an empty
    // unexpected queue, then with 256 messages of other tags in front of
    // every message it receives. Same thread, same world, back to back.
    const DEPTH: i32 = 256;
    let extra = spans.scope("vmpi.match_depth256", |_| {
        on_two_ranks(&instant, |comm| {
            if comm.rank() != 0 {
                return 0.0;
            }
            let matched = || {
                time_call(rung / 2, || {
                    comm.send(&[1.0f64], 0, TAG_DATA).expect("self send");
                    black_box(comm.recv::<f64>(0, TAG_DATA).expect("self recv"));
                })
                .0
            };
            let shallow = matched();
            for tag in 0..DEPTH {
                comm.send(&[0.0f64], 0, 100 + tag).expect("backlog");
            }
            let deep = matched();
            for tag in 0..DEPTH {
                black_box(comm.recv::<f64>(0, 100 + tag).expect("drain backlog"));
            }
            (deep - shallow) * 1e9
        })
    });
    out.push(("vmpi.match_ns.depth256", extra));

    // Allocation per message: count both ranks over a fixed number of
    // exchanges; the two control messages per iteration are subtracted
    // using a run of the same loop with an empty step.
    const EXCHANGES: usize = 2000;
    let count_loop = |exchange: bool| {
        let (_, c) = counted(|| {
            on_two_ranks(&instant, |comm| {
                let send = SharedBuffer::<f64>::new(msg).full();
                let recv = SharedBuffer::<f64>::new(msg).full();
                for _ in 0..EXCHANGES {
                    // The lockstep control message of the timed loops.
                    if comm.rank() == 0 {
                        comm.send(&[1u64], 1, TAG_CTRL).expect("ctrl");
                    } else {
                        black_box(comm.recv::<u64>(0, TAG_CTRL).expect("ctrl"));
                    }
                    if exchange {
                        face_exchange(comm, &send, &recv);
                    }
                }
            })
        });
        c
    };
    let (with, without) = spans.record("vmpi.alloc_count", |_| {
        ((count_loop(true), count_loop(false)), 2 * EXCHANGES as u64)
    });
    let msgs = (2 * EXCHANGES) as f64;
    out.push((
        "vmpi.allocs_per_msg",
        with.allocs.saturating_sub(without.allocs) as f64 / msgs,
    ));
    out.push((
        "vmpi.alloc_bytes_per_msg",
        with.bytes.saturating_sub(without.bytes) as f64 / msgs,
    ));

    let walls = sampled(spans, "vmpi.allreduce", || {
        on_two_ranks(&instant, |comm| {
            let data = vec![comm.rank() as f64; nv];
            lockstep(comm, rung, |comm| {
                black_box(comm.allreduce(&data, ReduceOp::Sum).expect("allreduce"));
            })
        })
    });
    out.push(("vmpi.allreduce_us", median(&walls) * 1e6));

    // Delivery lag under the workload's own network: the sender stamps
    // the payload with a clock both threads share; the receiver reads it
    // when the receive completes.
    let net = &sh.sc.net;
    let modelled = net.delay(msg * 8, 0, 1).as_secs_f64();
    let lags = sampled(spans, "vmpi.delivery_lag", || {
        let epoch = Instant::now();
        World::new(2, net.clone())
            .run(|comm| {
                let mut payload = vec![0.0f64; msg];
                let mut lags = Vec::new();
                lockstep(&comm, rung, |comm| {
                    if comm.rank() == 0 {
                        payload[0] = epoch.elapsed().as_secs_f64();
                        comm.send(&payload, 1, TAG_DATA).expect("stamped send");
                        black_box(comm.recv::<u64>(1, TAG_DATA).expect("ack"));
                    } else {
                        comm.recv_into(&mut payload, 0, TAG_DATA)
                            .expect("stamped recv");
                        lags.push(epoch.elapsed().as_secs_f64() - payload[0]);
                        comm.send(&[1u64], 0, TAG_DATA).expect("ack");
                    }
                });
                lags
            })
            .pop()
            .expect("rank 1 result")
    });
    out.push(("vmpi.delivery_lag_us", (median(&lags) - modelled) * 1e6));
    msg_us
}

pub(super) fn tampi_rungs(
    sh: &Shapes,
    msg_us: f64,
    spans: &mut Spans,
    rung: Duration,
    out: &mut Values,
) {
    let msg = sh.msg_elems;
    let walls = sampled(spans, "tampi.bound_exchange", || {
        World::new(2, NetworkModel::instant())
            .run(|comm| {
                let comm = Arc::new(comm);
                let rt = Runtime::new(1);
                let peer = 1 - comm.rank();
                let send = SharedBuffer::<f64>::new(msg).full();
                let recv = SharedBuffer::<f64>::new(msg).full();
                let (send_obj, recv_obj) = (ObjId::fresh(), ObjId::fresh());
                lockstep(&comm, rung, |_| {
                    let (c, s) = (Arc::clone(&comm), recv.clone());
                    rt.task()
                        .out(Region::new(recv_obj, 0..msg))
                        .body(move || {
                            tampi::irecv_into(&c, s, peer as i32, TAG_DATA).expect("bound recv")
                        })
                        .spawn();
                    let (c, s) = (Arc::clone(&comm), send.clone());
                    rt.task()
                        .input(Region::new(send_obj, 0..msg))
                        .body(move || {
                            tampi::isend_from(&c, &s, peer, TAG_DATA).expect("bound send")
                        })
                        .spawn();
                    let s = recv.clone();
                    rt.task()
                        .input(Region::new(recv_obj, 0..msg))
                        .body(move || {
                            black_box(s.with_read(|d| d[0]));
                        })
                        .spawn();
                    rt.taskwait();
                })
            })
            .into_iter()
            .next()
            .expect("rank 0 result")
    });
    let bound = median(&walls) * 1e6;
    out.push(("tampi.bound_msg_us", bound));
    out.push(("tampi.bind_overhead_us", bound - msg_us));
}
