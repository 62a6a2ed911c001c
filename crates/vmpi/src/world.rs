//! World setup: rank threads and shared infrastructure.

use crate::comm::Comm;
use crate::delivery::DeliveryService;
use crate::mailbox::Mailbox;
use crate::net::NetworkModel;
use std::sync::Arc;

/// Cached metric handles, present only when observability was enabled
/// before the world was built (the disabled path carries no atomics).
pub(crate) struct VmpiMetrics {
    pub sends: obs::Counter,
    pub recvs: obs::Counter,
    pub eager_sends: obs::Counter,
    pub rendezvous_sends: obs::Counter,
    pub bytes_sent: obs::Counter,
    pub matched_at_send: obs::Counter,
    pub matched_at_recv: obs::Counter,
}

pub(crate) struct WorldShared {
    pub n: usize,
    pub net: NetworkModel,
    pub mailboxes: Vec<Mailbox>,
    pub delivery: Arc<DeliveryService>,
    pub obs_metrics: Option<VmpiMetrics>,
    /// Present only when the world was built with a chaos config; the
    /// fault-free path never touches it beyond this `Option` check.
    pub fault: Option<Arc<crate::fault::FaultState>>,
    /// The contention-aware fabric, present only when the network model
    /// was built with [`NetworkModel::with_fabric`]; `instant()` and
    /// plain scalar models never touch it.
    pub fabric: Option<Arc<crate::fabric::Fabric>>,
    /// Intra-node combine slots for hierarchical collectives
    /// ([`crate::CollAlgo::Hier`]); empty whenever flat collectives run.
    pub coll_slots: crate::collshm::CollSlots,
}

/// A fixed-size group of ranks sharing one in-process "cluster".
///
/// `World::run` executes one closure per rank, each on its own OS thread,
/// handing each a [`Comm`] for the world communicator. The closure's
/// return values are collected in rank order — this is how benchmarks and
/// tests extract per-rank results.
pub struct World {
    shared: Arc<WorldShared>,
    /// Keeps the watchdog mailbox-dump callback registered for the
    /// world's lifetime (None when observability is disabled).
    _diag: Option<obs::DiagGuard>,
    /// Watchdog callback dumping the chaos retransmit queue + fault-plan
    /// position (None without chaos or observability).
    _chaos_diag: Option<obs::DiagGuard>,
}

impl World {
    /// Creates a world of `n` ranks with the given network model.
    /// Panics as [`World::with_chaos`] does.
    pub fn new(n: usize, net: NetworkModel) -> Self {
        Self::with_chaos(n, net, None)
    }

    /// Creates a world with an optional seeded fault-injection plan.
    /// With `Some(chaos)`, every cross-rank message travels through the
    /// CRC/ack/retransmit reliability layer and the plan's faults; with
    /// `None` this is exactly [`World::new`].
    ///
    /// # Panics
    ///
    /// If `n` is 0, or if the OS refuses the delivery thread (resource
    /// exhaustion).
    pub fn with_chaos(n: usize, net: NetworkModel, chaos: Option<crate::ChaosConfig>) -> Self {
        assert!(n > 0, "world needs at least one rank");
        let mailboxes = (0..n).map(|_| Mailbox::new()).collect();
        let fault = chaos.map(|cfg| crate::fault::FaultState::new(cfg, n));
        let fabric = net
            .fabric_params()
            .map(|p| Arc::new(crate::fabric::Fabric::new(p.clone(), n)));
        let shared = Arc::new(WorldShared {
            n,
            net,
            fabric,
            mailboxes,
            delivery: DeliveryService::new(),
            obs_metrics: obs::is_enabled().then(|| VmpiMetrics {
                sends: obs::metrics().counter("vmpi.sends_posted"),
                recvs: obs::metrics().counter("vmpi.recvs_posted"),
                eager_sends: obs::metrics().counter("vmpi.eager_sends"),
                rendezvous_sends: obs::metrics().counter("vmpi.rendezvous_sends"),
                bytes_sent: obs::metrics().counter("vmpi.bytes_sent"),
                matched_at_send: obs::metrics().counter("vmpi.matched_at_send"),
                matched_at_recv: obs::metrics().counter("vmpi.matched_at_recv"),
            }),
            fault,
            coll_slots: crate::collshm::CollSlots::default(),
        });
        let diag = obs::is_enabled().then(|| {
            let weak = Arc::downgrade(&shared);
            obs::diagnostics().register("vmpi mailboxes", move || {
                let Some(shared) = weak.upgrade() else {
                    return String::new();
                };
                let mut out = String::new();
                for (rank, mb) in shared.mailboxes.iter().enumerate() {
                    out.push_str(&mb.inner.lock().dump(rank));
                }
                out
            })
        });
        let chaos_diag = match (&shared.fault, obs::is_enabled()) {
            (Some(fault), true) => {
                let weak = Arc::downgrade(fault);
                Some(obs::diagnostics().register("vmpi chaos", move || {
                    weak.upgrade().map(|f| f.dump_pending()).unwrap_or_default()
                }))
            }
            _ => None,
        };
        World {
            shared,
            _diag: diag,
            _chaos_diag: chaos_diag,
        }
    }

    /// Number of ranks in the world.
    pub fn size(&self) -> usize {
        self.shared.n
    }

    /// Builds the world communicator handle for one rank. Prefer
    /// [`World::run`]; this is for tests driving ranks manually.
    ///
    /// # Panics
    ///
    /// If `rank` is not below the world's size.
    pub fn comm_for(&self, rank: usize) -> Comm {
        assert!(rank < self.shared.n, "rank {rank} out of range");
        let group: Arc<Vec<usize>> = Arc::new((0..self.shared.n).collect());
        Comm::new(Arc::clone(&self.shared), 0, rank, group)
    }

    /// Runs `f` once per rank, each invocation on its own OS thread, and
    /// returns the per-rank results in rank order.
    ///
    /// # Panics
    ///
    /// If any rank's closure panics, the first panic is propagated after
    /// all threads have been joined: the designed unwind of a world a
    /// lost peer poisoned, which the embedding driver catches. Also if
    /// the OS refuses a rank thread (resource exhaustion, like a failed
    /// allocation).
    pub fn run<F, R>(&self, f: F) -> Vec<R>
    where
        F: Fn(Comm) -> R + Send + Sync,
        R: Send,
    {
        std::thread::scope(|s| {
            let handles: Vec<_> = (0..self.shared.n)
                .map(|rank| {
                    let comm = self.comm_for(rank);
                    let f = &f;
                    std::thread::Builder::new()
                        .name(format!("vmpi-rank-{rank}"))
                        .spawn_scoped(s, move || {
                            // Attribute events from this thread to its rank's
                            // main timeline lane.
                            obs::set_thread_rank(rank as u32);
                            f(comm)
                        })
                        .expect("spawn rank thread")
                })
                .collect();
            let mut results = Vec::with_capacity(handles.len());
            let mut panic: Option<Box<dyn std::any::Any + Send>> = None;
            for h in handles {
                match h.join() {
                    Ok(r) => results.push(r),
                    Err(e) => {
                        panic.get_or_insert(e);
                    }
                }
            }
            if let Some(p) = panic {
                std::panic::resume_unwind(p);
            }
            results
        })
    }
}

impl World {
    /// One report per peer declared lost, under either
    /// [`crate::PeerLostAction`] (empty without chaos or when every frame
    /// was recovered within the retry budget).
    pub fn peer_lost_reports(&self) -> Vec<crate::PeerLostReport> {
        self.shared
            .fault
            .as_ref()
            .map(|f| f.reports.lock().clone())
            .unwrap_or_default()
    }

    /// Where the fault plan stands, for the embedder's peer-lost report:
    /// one line per rank the plan hard-crashed, then the plan-position
    /// line (seed and counters). Empty without chaos.
    pub fn chaos_plan_position(&self) -> Vec<String> {
        let Some(fault) = &self.shared.fault else {
            return Vec::new();
        };
        let cfg = &fault.cfg;
        let mut lines: Vec<String> = (0..self.shared.n)
            .filter(|&r| fault.crashed[r].load(std::sync::atomic::Ordering::SeqCst))
            .map(|r| {
                format!(
                    "peer rank {r} hard-crashed per plan (seed {}, crash_after {} frames)",
                    cfg.seed, cfg.crash_after
                )
            })
            .collect();
        lines.push(fault.plan_position());
        lines
    }
}

impl Drop for World {
    fn drop(&mut self) {
        // Stop the chaos retransmit timers *before* the delivery queue
        // drains, running every job at once: a drained retransmit job
        // that re-armed itself would resend (and possibly re-drop) forever.
        if let Some(fault) = &self.shared.fault {
            fault
                .shutdown
                .store(true, std::sync::atomic::Ordering::SeqCst);
        }
        // Release the fabric *before* the delivery queue drains: a drained
        // poll job whose flow still shows contention would reschedule
        // itself forever.
        if let Some(fabric) = &self.shared.fabric {
            fabric.release_all();
        }
        self.shared.delivery.shutdown();
        // With the delivery queue drained, the fault counts are final.
        if let (Some(fault), true) = (&self.shared.fault, obs::is_enabled()) {
            fault.publish_metrics();
        }
        // Finalize lint: with the delivery queue drained, anything still
        // unmatched is a leaked request (a send with no receive, or a
        // receive whose message never came). A world poisoned under
        // `PeerLostAction::AbortWorld` is exempt — its ranks unwound
        // mid-protocol by design, so leaks are expected, not bugs.
        let fault = self.shared.fault.as_ref();
        let poisoned = fault.is_some_and(|f| f.poisoned.load(std::sync::atomic::Ordering::SeqCst));
        if depsan::is_enabled() && !poisoned {
            let mut lost = fault
                .map(|f| std::mem::take(&mut *f.lost.lock()))
                .unwrap_or_default();
            for (rank, mb) in self.shared.mailboxes.iter().enumerate() {
                mb.inner.lock().san_check_finalize(rank, &mut lost);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ReduceOp, ANY_SOURCE, ANY_TAG};
    use std::time::{Duration, Instant};

    #[test]
    fn ring_pass() {
        let world = World::new(5, NetworkModel::instant());
        let sums = world.run(|comm| {
            let p = comm.size();
            let next = (comm.rank() + 1) % p;
            let prev = (comm.rank() + p - 1) % p;
            let send = comm.isend(&[comm.rank() as i64], next, 1).unwrap();
            let (data, st) = comm.recv::<i64>(prev as i32, 1).unwrap();
            send.wait();
            assert_eq!(st.source, prev);
            data[0]
        });
        assert_eq!(sums, vec![4, 0, 1, 2, 3]);
    }

    /// The layers of `Comm::isend_impl` as a table: which ones a message
    /// passes, by where it goes and what the world has installed. A
    /// self-send is local; under a fault plan every other send is a
    /// reliability frame; framed or not, only inter-node transmissions
    /// enter an installed fabric, one flow each.
    #[test]
    fn send_route_composition_table() {
        use crate::{ChaosConfig, FabricParams};
        use std::sync::atomic::Ordering::Relaxed;
        // Rank 0 shares node 0 with rank 1; rank 2 is alone on node 1.
        let topo = FabricParams {
            ranks_per_node: 2,
            ..FabricParams::cluster()
        };
        let scalar = NetworkModel::from_fabric(&topo);
        let fabric = scalar.clone().with_fabric(topo);
        let instant = NetworkModel::instant().with_ranks_per_node(2);
        let worlds = [
            ("instant", World::new(3, instant)),
            ("scalar", World::new(3, scalar)),
            ("fabric", World::new(3, fabric.clone())),
            (
                "chaos+fabric",
                World::with_chaos(3, fabric, Some(ChaosConfig::default())),
            ),
        ];
        for (name, world) in &worlds {
            let shared = &world.shared;
            let flows = || shared.fabric.as_ref().map_or(0, |f| f.flows_injected());
            let frames = || {
                let fault = shared.fault.as_ref();
                fault.map_or(0, |f| f.counters.frames.load(Relaxed))
            };
            for (dst, place) in [(0, "self"), (1, "intra-node"), (2, "inter-node")] {
                let (flows0, frames0) = (flows(), frames());
                let send = world.comm_for(0).isend(&[7u8], dst, 3).unwrap();
                let (data, _) = world.comm_for(dst).recv::<u8>(0, 3).unwrap();
                send.wait();
                assert_eq!(data, [7]);
                let on_fabric = shared.fabric.is_some() && dst == 2;
                assert_eq!(flows() - flows0, on_fabric as u64, "{name}/{place}: flows");
                let framed = shared.fault.is_some() && dst != 0;
                assert_eq!(frames() - frames0, framed as u64, "{name}/{place}: frames");
            }
            if let Some(fault) = &shared.fault {
                assert!(
                    !fault.channels.lock().contains_key(&(0, 0)),
                    "a self-send touches no reliability channel"
                );
            }
        }
    }

    /// Every frame transmission on the fabric is one flow, dropped ones,
    /// retransmissions and duplicates included, and a poll retires each:
    /// a lossy world on the fabric leaves no flow behind.
    #[test]
    fn a_lossy_world_on_the_fabric_leaves_no_flow_behind() {
        use crate::{ChaosConfig, FabricParams};
        use std::sync::atomic::Ordering::Relaxed;
        let topo = FabricParams {
            ranks_per_node: 1,
            ..FabricParams::cluster()
        };
        let net = NetworkModel::from_fabric(&topo).with_fabric(topo);
        let plan = ChaosConfig {
            seed: 3,
            drop_p: 0.3,
            dup_p: 0.3,
            retry_budget: 20,
            rto: Duration::from_millis(1),
            ..ChaosConfig::default()
        };
        let world = World::with_chaos(3, net, Some(plan));
        let fabric = Arc::clone(world.shared.fabric.as_ref().expect("fabric world"));
        let fault = Arc::clone(world.shared.fault.as_ref().expect("chaos world"));
        world.run(|comm| {
            let (next, prev) = ((comm.rank() + 1) % 3, (comm.rank() + 2) % 3);
            for i in 0..40i32 {
                let send = comm.isend(&[i; 64], next, i).unwrap();
                let (data, _) = comm.recv::<i32>(prev as i32, i).unwrap();
                assert_eq!(data, [i; 64]);
                send.wait_checked().unwrap();
            }
            comm.barrier().unwrap();
        });
        drop(world);
        let count = |c: &std::sync::atomic::AtomicU64| c.load(Relaxed);
        let c = &fault.counters;
        assert!(count(&c.drops) > 0 && count(&c.dups) > 0 && count(&c.retransmits) > 0);
        assert_eq!(fabric.flows_injected(), count(&c.frames) + count(&c.dups));
        assert_eq!(fabric.flows_in_flight(), 0, "a flow outlived its world");
    }

    /// Hierarchical collectives under a crash plan fail instead of
    /// hanging. Rank 2, node 1's leader, is dead from the start, and
    /// rank 1 waits for a message from it, so node 0's leader waits in
    /// its slot for a deposit that never comes. The heartbeat poisons the
    /// world, and every rank, that leader included, gets an error.
    #[test]
    fn hier_collectives_under_a_crash_fail_on_every_rank() {
        use crate::{ChaosConfig, CollAlgo, ReduceOp};
        let net = (NetworkModel::instant().with_ranks_per_node(2)).with_coll(CollAlgo::Hier);
        let plan = ChaosConfig {
            crash_rank: Some(2),
            retry_budget: 2,
            rto: Duration::from_millis(1),
            ..ChaosConfig::default()
        };
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let world = World::with_chaos(4, net, Some(plan));
            let _ = tx.send(world.run(|comm| {
                let run = || -> crate::Result<()> {
                    match comm.rank() {
                        2 => comm.send(&[1u8], 1, 0)?,
                        1 => drop(comm.recv::<u8>(2, 0)?),
                        _ => {}
                    }
                    for i in 0..1000i64 {
                        comm.allreduce_scalar(i, ReduceOp::Sum)?;
                        comm.barrier()?;
                    }
                    Ok(())
                };
                run().err()
            }));
        });
        let errors = (rx.recv_timeout(Duration::from_secs(30))).expect("a rank hung");
        assert!(errors.iter().all(Option::is_some), "{errors:?}");
    }

    /// A receive reads the poison flag under the mailbox lock the drain
    /// takes. Interleaved by hand: the receive's look at the flag from
    /// outside the lock (where the check used to be) sees a healthy
    /// world, the world is poisoned and drained, and only then does the
    /// receive reach `post` — which must fail it, not queue it behind
    /// the drain where nobody would ever complete it.
    #[test]
    fn receive_posted_across_the_poison_drain_fails() {
        use crate::mailbox::{PendingRecv, RecvSan, RecvTarget};
        use crate::request::RequestState;
        use crate::{ChaosConfig, Request, VmpiError};
        let world = World::with_chaos(2, NetworkModel::instant(), Some(ChaosConfig::default()));
        let shared = &world.shared;
        let fault = shared.fault.as_ref().expect("chaos world");
        // 1: the unlocked check.
        assert!(!fault.poisoned.load(std::sync::atomic::Ordering::SeqCst));
        // 2: flag up, every mailbox drained.
        crate::reliable::poison_world(shared, fault);
        // 3: the receive is queued — or, now, refused.
        let state = RequestState::new();
        let recv = PendingRecv {
            src: 1,
            tag: 3,
            comm: 0,
            state: Arc::clone(&state),
            target: RecvTarget::Owned,
            san: RecvSan::default(),
            obs_task: 0,
        };
        crate::mailbox::post(shared, 0, recv);
        let waited = Request::from_state(state).wait_timeout(Duration::from_millis(50));
        assert_eq!(waited, Err(VmpiError::WorldDown));
        assert_eq!(shared.mailboxes[0].inner.lock().dump(0), "");
    }

    #[test]
    fn self_send_does_not_deadlock() {
        let world = World::new(1, NetworkModel::cluster());
        world.run(|comm| {
            comm.send(&[1.0f64; 100_000], 0, 3).unwrap();
            let (data, _) = comm.recv::<f64>(0, 3).unwrap();
            assert_eq!(data.len(), 100_000);
        });
    }

    #[test]
    fn wildcard_receive_collects_all() {
        let world = World::new(4, NetworkModel::instant());
        world.run(|comm| {
            if comm.rank() == 0 {
                let mut seen = [false; 4];
                seen[0] = true;
                for _ in 0..3 {
                    let (data, st) = comm.recv::<u64>(ANY_SOURCE, ANY_TAG).unwrap();
                    assert_eq!(data[0] as usize, st.source);
                    seen[st.source] = true;
                }
                assert!(seen.iter().all(|&s| s));
            } else {
                comm.send(&[comm.rank() as u64], 0, comm.rank() as i32)
                    .unwrap();
            }
        });
    }

    #[test]
    fn network_model_delays_availability() {
        let world = World::new(
            2,
            NetworkModel::new(Duration::from_millis(30), f64::INFINITY),
        );
        world.run(|comm| {
            if comm.rank() == 0 {
                comm.isend(&[9u8], 1, 0).unwrap();
            } else {
                let t0 = Instant::now();
                let _ = comm.recv::<u8>(0, 0).unwrap();
                assert!(
                    t0.elapsed() >= Duration::from_millis(25),
                    "latency was not applied"
                );
            }
        });
    }

    #[test]
    fn collectives_roundtrip() {
        let world = World::new(6, NetworkModel::instant());
        world.run(|comm| {
            let r = comm.rank();
            comm.barrier().unwrap();
            // bcast
            let data = comm
                .bcast(
                    if r == 2 {
                        Some(&[10i64, 20, 30][..])
                    } else {
                        None
                    },
                    2,
                )
                .unwrap();
            assert_eq!(data, vec![10, 20, 30]);
            // reduce / allreduce
            let total = comm.allreduce_scalar(r as i64 + 1, ReduceOp::Sum).unwrap();
            assert_eq!(total, 21);
            let max = comm.allreduce_scalar(r as i64, ReduceOp::Max).unwrap();
            assert_eq!(max, 5);
            // gather (variable sizes)
            let mine: Vec<u32> = (0..r as u32).collect();
            let g = comm.gather(&mine, 1).unwrap();
            if r == 1 {
                let g = g.unwrap();
                for (i, v) in g.iter().enumerate() {
                    assert_eq!(v.len(), i);
                }
            } else {
                assert!(g.is_none());
            }
            // allgather
            let all = comm.allgather(&[r as i64]).unwrap();
            assert_eq!(all.len(), 6);
            for (i, v) in all.iter().enumerate() {
                assert_eq!(v[0], i as i64);
            }
        });
    }

    #[test]
    fn split_partitions_by_color() {
        let world = World::new(6, NetworkModel::instant());
        world.run(|comm| {
            let color = (comm.rank() % 2) as i64;
            let sub = comm.split(color, comm.rank() as i64).unwrap();
            assert_eq!(sub.size(), 3);
            let sum = sub
                .allreduce_scalar(comm.rank() as i64, ReduceOp::Sum)
                .unwrap();
            if color == 0 {
                assert_eq!(sum, 2 + 4);
            } else {
                assert_eq!(sum, 1 + 3 + 5);
            }
            // Sub-communicator traffic must not leak into the parent.
            comm.barrier().unwrap();
        });
    }

    #[test]
    fn dup_isolates_matching() {
        let world = World::new(2, NetworkModel::instant());
        world.run(|comm| {
            let dup = comm.dup();
            if comm.rank() == 0 {
                comm.send(&[1i32], 1, 0).unwrap();
                dup.send(&[2i32], 1, 0).unwrap();
            } else {
                // Receive in the opposite order: matching is per-communicator.
                let (d, _) = dup.recv::<i32>(0, 0).unwrap();
                let (c, _) = comm.recv::<i32>(0, 0).unwrap();
                assert_eq!(d, vec![2]);
                assert_eq!(c, vec![1]);
            }
        });
    }

    #[test]
    fn nonovertaking_order_preserved_under_latency() {
        let world = World::new(2, NetworkModel::new(Duration::from_millis(2), 1.0e6));
        world.run(|comm| {
            if comm.rank() == 0 {
                for i in 0..10i64 {
                    comm.isend(&[i], 1, 7).unwrap();
                }
            } else {
                for i in 0..10i64 {
                    let (d, _) = comm.recv::<i64>(0, 7).unwrap();
                    assert_eq!(d[0], i, "messages overtook each other");
                }
            }
        });
    }
}
