//! Contention-aware network fabric: node → NIC → switch topology.
//!
//! An independent `latency + bytes/bandwidth` cost per message misses the
//! three machine effects the paper credits for penalizing large
//! communication aggregates (§V-B, Table II):
//!
//! 1. **Rendezvous handshake** — messages above the eager threshold pay a
//!    request-to-send/clear-to-send round trip (plus the progress-engine
//!    reaction time) before the payload starts moving.
//! 2. **NIC serialization** — a node's ranks share one NIC; message
//!    injections queue behind each other and each pays a per-message
//!    overhead.
//! 3. **Shared links** — concurrently in-flight transfers fair-share the
//!    node's uplink/downlink bandwidth, so availability times come from a
//!    small event-driven drain loop, not a per-message formula.
//!
//! [`FabricParams`] is the one description of the modelled machine:
//! `vmpi::NetworkModel` holds one, `simnet::CostModel` embeds one, and
//! the miniamr CLI builds one, so the real execution (Table I, Figures
//! 1–3) and the simulated cluster (Table II, Figures 4–5) describe the
//! same machine. Each of its cost rules is written once: the scalar wire
//! time in [`FabricParams::wire_time`], the fair-share drain in one
//! private engine that both consumers run:
//!
//! * [`drain`] — the engine run to completion over aggregated [`Flow`]s,
//!   used by `simnet` once per simulated stage (the fluid limit of the
//!   per-packet fabric in flow-level simulators like htsim). A
//!   rendezvous flow *starts* a handshake late.
//! * [`Fabric`] — the live variant used by the real execution: sends
//!   inject flows as they happen (behind their node's NIC), delivery jobs
//!   *poll* their flow and reschedule if concurrent arrivals slowed it
//!   down. The handshake is an *offset* added after the drain.
//!
//! The two treat the handshake differently on purpose: moving either
//! onto the other's rule would move `simnet`'s output or the live
//! delivery times.

use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// Interconnect constants shared by the real execution and the simulator.
///
/// All times are in seconds, bandwidth in bytes per second. The defaults
/// ([`FabricParams::cluster`]) approximate a MareNostrum4-class machine
/// (100 Gb/s-class OmniPath: ~12 GB/s per node, ~1.5 µs latency).
#[derive(Debug, Clone, PartialEq)]
pub struct FabricParams {
    /// One-way wire latency per message.
    pub latency: f64,
    /// Bandwidth of each node's uplink/downlink in bytes/s.
    pub bandwidth: f64,
    /// Messages up to this many bytes use the eager protocol; larger
    /// messages pay the rendezvous handshake and complete their send
    /// request only when the transfer drains.
    pub eager_threshold: usize,
    /// Cost multiplier for transfers between ranks on the same node
    /// (shared-memory path; bypasses the NIC and the switch).
    pub intra_node_factor: f64,
    /// Consecutive ranks grouped into one node (0 = every rank its own
    /// node). The NIC and its links are shared per *node*, so this
    /// grouping is what makes many-ranks-per-node configurations pay for
    /// their aggregate message rate.
    pub ranks_per_node: usize,
    /// Per-message NIC injection overhead (descriptor setup, doorbell);
    /// messages leaving one node serialize through its NIC.
    pub nic_msg_overhead: f64,
    /// Rendezvous handshake round trip (RTS/CTS wire time plus the
    /// progress-engine reaction on both sides) paid before a
    /// super-eager-threshold payload starts moving.
    pub rendezvous_rtt: f64,
}

impl FabricParams {
    /// The canonical cluster calibration — the one machine description
    /// every layer shares.
    pub fn cluster() -> Self {
        FabricParams {
            latency: 1.5e-6,
            bandwidth: 12.0e9,
            eager_threshold: 16 * 1024,
            intra_node_factor: 0.25,
            ranks_per_node: 4,
            nic_msg_overhead: 1.0e-6,
            // RTS/CTS round trip (2 × latency) plus ~2 µs of
            // progress-engine reaction time on each side.
            rendezvous_rtt: 2.0 * 1.5e-6 + 4.0e-6,
        }
    }

    /// Validates the parameters, returning a human-readable error for
    /// values that would make the model meaningless (or panic later in
    /// `Duration::from_secs_f64`): non-finite or non-positive bandwidth,
    /// negative or non-finite times.
    pub fn validate(&self) -> Result<(), String> {
        if self.bandwidth.is_nan() || self.bandwidth <= 0.0 {
            return Err(format!(
                "bandwidth must be positive (got {}); use f64::INFINITY to disable the size term",
                self.bandwidth
            ));
        }
        for (name, v) in [
            ("latency", self.latency),
            ("nic_msg_overhead", self.nic_msg_overhead),
            ("rendezvous_rtt", self.rendezvous_rtt),
        ] {
            if !v.is_finite() || v < 0.0 {
                return Err(format!("{name} must be finite and non-negative (got {v})"));
            }
        }
        if !self.intra_node_factor.is_finite() || self.intra_node_factor < 0.0 {
            return Err(format!(
                "intra_node_factor must be finite and non-negative (got {})",
                self.intra_node_factor
            ));
        }
        Ok(())
    }

    /// Node index of a rank under the configured grouping.
    #[inline]
    pub fn node_of(&self, rank: usize) -> usize {
        rank.checked_div(self.ranks_per_node).unwrap_or(rank)
    }

    /// Whether two ranks share a node.
    #[inline]
    pub fn same_node(&self, a: usize, b: usize) -> bool {
        self.ranks_per_node > 0 && self.node_of(a) == self.node_of(b)
    }

    /// Whether a payload of `bytes` uses the eager protocol.
    #[inline]
    pub fn is_eager(&self, bytes: usize) -> bool {
        bytes <= self.eager_threshold
    }

    /// The scalar wire time of `msgs` messages carrying `bytes` in all:
    /// `(msgs × latency + bytes / bandwidth)`, times `intra_node_factor`
    /// when the traffic stays on one node. Infinite bandwidth drops the
    /// size term. No contention: this is the cost of a message outside
    /// the fabric, and `simnet`'s per-rank transfer sum.
    #[inline]
    pub fn wire_time(&self, msgs: f64, bytes: f64, same_node: bool) -> f64 {
        let t = msgs * self.latency + bytes / self.bandwidth;
        if same_node {
            t * self.intra_node_factor
        } else {
            t
        }
    }

    /// Number of nodes covering `ranks` ranks.
    #[inline]
    pub fn nodes_for(&self, ranks: usize) -> usize {
        if self.ranks_per_node == 0 {
            ranks
        } else {
            ranks.div_ceil(self.ranks_per_node)
        }
    }
}

impl Default for FabricParams {
    fn default() -> Self {
        FabricParams::cluster()
    }
}

// ---------------------------------------------------------------------
// Batch drain (the simulator's per-stage fluid model)
// ---------------------------------------------------------------------

/// One aggregated flow for [`drain`]: `msgs` messages totalling `bytes`
/// payload bytes from node `src` to node `dst`, of which `rdv_msgs` are
/// above the eager threshold.
#[derive(Debug, Clone)]
pub struct Flow {
    /// Source node.
    pub src: usize,
    /// Destination node.
    pub dst: usize,
    /// Total payload bytes of the flow.
    pub bytes: f64,
    /// Messages making up the flow (each pays NIC injection overhead).
    pub msgs: f64,
    /// Messages above the eager threshold (the flow starts after a
    /// handshake round trip if any).
    pub rdv_msgs: f64,
}

/// Above this many flows the event loop falls back to the closed-form
/// per-node drain (`max(in, out) bytes / bandwidth`), which is the exact
/// aggregate-completion limit of fair sharing when every flow is
/// concurrent. Keeps degenerate inputs (every rank its own node at 12k
/// ranks) from going quadratic.
const DRAIN_EVENT_CAP: usize = 16_384;

/// Runs the fair-share engine over `flows` to completion and returns,
/// per node, how long its NIC/links stay busy: the completion time of the
/// last flow touching the node plus the node's serialized injection
/// overhead. Eager flows join at time zero, flows with rendezvous
/// messages at `rendezvous_rtt`; a completion at exactly that time
/// retires before they start.
pub fn drain(p: &FabricParams, n_nodes: usize, flows: &[Flow]) -> Vec<f64> {
    let mut busy = vec![0.0f64; n_nodes];
    if flows.is_empty() {
        return busy;
    }
    // Serialized injection overhead per node, added on top of the drain.
    let mut inject = vec![0.0f64; n_nodes];
    for f in flows {
        inject[f.src] += f.msgs * p.nic_msg_overhead;
    }

    if flows.len() > DRAIN_EVENT_CAP || !p.bandwidth.is_finite() {
        // Fluid limit: the last byte leaves a link when the link has
        // moved all its bytes at full rate.
        let mut in_b = vec![0.0f64; n_nodes];
        let mut out_b = vec![0.0f64; n_nodes];
        let mut rdv = vec![false; n_nodes];
        for f in flows {
            out_b[f.src] += f.bytes;
            in_b[f.dst] += f.bytes;
            if f.rdv_msgs > 0.0 {
                rdv[f.src] = true;
                rdv[f.dst] = true;
            }
        }
        for m in 0..n_nodes {
            let drain_t = if p.bandwidth.is_finite() {
                in_b[m].max(out_b[m]) / p.bandwidth
            } else {
                0.0
            };
            let hs = if rdv[m] { p.rendezvous_rtt } else { 0.0 };
            busy[m] = if drain_t > 0.0 || inject[m] > 0.0 {
                hs + drain_t + inject[m] + p.latency
            } else {
                0.0
            };
        }
        return busy;
    }

    let mut links = Links::new(p.bandwidth, n_nodes);
    let mut late = Vec::new();
    for (id, f) in flows.iter().enumerate() {
        if f.rdv_msgs > 0.0 && p.rendezvous_rtt > 0.0 {
            late.push((id, f));
        } else {
            links.add(id as u64, f.src, f.dst, f.bytes);
        }
    }
    let mut retired = |f: &Active, t: f64| {
        busy[f.src] = busy[f.src].max(t);
        busy[f.dst] = busy[f.dst].max(t);
    };
    if !late.is_empty() {
        links.run(p.rendezvous_rtt, &mut retired);
        for (id, f) in late {
            links.add(id as u64, f.src, f.dst, f.bytes);
        }
    }
    links.run(f64::INFINITY, &mut retired);
    for m in 0..n_nodes {
        if busy[m] > 0.0 || inject[m] > 0.0 {
            busy[m] += inject[m] + p.latency;
        }
    }
    busy
}

// ---------------------------------------------------------------------
// The fair-share engine (both consumers)
// ---------------------------------------------------------------------

/// A flow on the links: `remaining` payload bytes from node `src` to node
/// `dst`.
struct Active {
    id: u64,
    src: usize,
    dst: usize,
    remaining: f64,
}

/// Per-node uplinks and downlinks fair-shared by the active flows. A
/// flow's rate is `bandwidth / max(active flows on its source uplink,
/// active flows on its destination downlink)`; the engine advances from
/// completion to completion and re-divides the bandwidth as flows retire.
/// Rates only change when a flow is added, retired or removed, so the
/// drain is exact between those events.
struct Links {
    bandwidth: f64,
    /// Engine time: every flow's `remaining` is as of this instant.
    now: f64,
    flows: Vec<Active>,
    up: Vec<u32>,
    dn: Vec<u32>,
}

impl Links {
    fn new(bandwidth: f64, n_nodes: usize) -> Links {
        Links {
            bandwidth,
            now: 0.0,
            flows: Vec::new(),
            up: vec![0; n_nodes],
            dn: vec![0; n_nodes],
        }
    }

    fn rate(bandwidth: f64, up: &[u32], dn: &[u32], f: &Active) -> f64 {
        bandwidth / f64::from(up[f.src].max(dn[f.dst]).max(1))
    }

    /// When `f` completes at the current rates.
    fn finish(&self, f: &Active) -> f64 {
        self.now + f.remaining / Self::rate(self.bandwidth, &self.up, &self.dn, f)
    }

    /// Starts a flow of `bytes` at the engine's current time.
    fn add(&mut self, id: u64, src: usize, dst: usize, bytes: f64) {
        self.up[src] += 1;
        self.dn[dst] += 1;
        self.flows.push(Active {
            id,
            src,
            dst,
            remaining: bytes.max(0.0),
        });
    }

    /// Takes flow `id` off the links, drained or not.
    fn remove(&mut self, id: u64) {
        if let Some(i) = self.flows.iter().position(|f| f.id == id) {
            let f = self.flows.swap_remove(i);
            self.up[f.src] -= 1;
            self.dn[f.dst] -= 1;
        }
    }

    /// Drains the links up to time `stop`: every flow that completes by
    /// then retires, in completion order (the first of equal minima
    /// defines an event), and `retired` sees it with its completion time.
    /// The engine then stands at `stop`, if that is later and finite.
    fn run(&mut self, stop: f64, retired: &mut impl FnMut(&Active, f64)) {
        loop {
            let mut first: Option<(usize, f64)> = None;
            for (i, f) in self.flows.iter().enumerate() {
                let t = self.finish(f);
                if first.is_none_or(|(_, best)| t < best) {
                    first = Some((i, t));
                }
            }
            let Some((i, t)) = first.filter(|&(_, t)| t <= stop) else {
                if self.now < stop && stop.is_finite() {
                    self.advance(stop);
                }
                return;
            };
            self.advance(t);
            // The flow defining the event completes *by construction*;
            // the subtraction in `advance` can leave an epsilon that
            // would stall the loop, so zero it explicitly.
            self.flows[i].remaining = 0.0;
            let mut j = 0;
            while j < self.flows.len() {
                if self.flows[j].remaining <= 0.0 {
                    let f = self.flows.swap_remove(j);
                    self.up[f.src] -= 1;
                    self.dn[f.dst] -= 1;
                    retired(&f, t);
                } else {
                    j += 1;
                }
            }
        }
    }

    /// Moves every flow's bytes at its current rate up to time `t`.
    fn advance(&mut self, t: f64) {
        let dt = t - self.now;
        let Links {
            bandwidth,
            flows,
            up,
            dn,
            ..
        } = self;
        for f in flows.iter_mut() {
            f.remaining = (f.remaining - dt * Self::rate(*bandwidth, up, dn, f)).max(0.0);
        }
        self.now = t;
    }
}

// ---------------------------------------------------------------------
// Online fabric (the real execution's delivery-time model)
// ---------------------------------------------------------------------

/// What the live fabric keeps of an injected message besides its bytes on
/// the [`Links`]; a flow no longer on them has drained.
struct OnlineFlow {
    src_node: usize,
    dst_node: usize,
    /// Fixed completion offset: NIC queueing + injection overhead +
    /// handshake + wire latency, applied on top of the drain finish.
    extra: f64,
}

struct OnlineState {
    /// The fair-share engine; its clock is seconds since
    /// `Fabric::origin`, advanced to the wall clock on every mutation.
    links: Links,
    flows: HashMap<u64, OnlineFlow>,
    /// Next free NIC injection slot per node.
    nic_free: Vec<f64>,
    next_id: u64,
}

/// The shared online fabric of one [`crate::World`].
///
/// Sends [`Fabric::inject`] a flow and schedule their delivery at the
/// predicted completion; the delivery job [`Fabric::poll`]s — if later
/// arrivals shrank the flow's bandwidth share, the poll returns a new
/// estimate and the job reschedules. Every mutation first runs the
/// fair-share engine to the wall clock, so the drain is exact between
/// mutations.
pub(crate) struct Fabric {
    p: FabricParams,
    origin: Instant,
    state: Mutex<OnlineState>,
    /// Set during world teardown: polls complete immediately so the
    /// delivery queue can drain without rescheduling forever.
    force_complete: AtomicBool,
}

impl Fabric {
    pub(crate) fn new(p: FabricParams, n_ranks: usize) -> Self {
        let n_nodes = p.nodes_for(n_ranks);
        Fabric {
            origin: Instant::now(),
            state: Mutex::new(OnlineState {
                links: Links::new(p.bandwidth, n_nodes),
                flows: HashMap::new(),
                nic_free: vec![0.0; n_nodes],
                next_id: 0,
            }),
            force_complete: AtomicBool::new(false),
            p,
        }
    }

    pub(crate) fn params(&self) -> &FabricParams {
        &self.p
    }

    /// Flows injected since the world was built.
    #[cfg(test)]
    pub(crate) fn flows_injected(&self) -> u64 {
        self.state.lock().next_id
    }

    /// Flows not yet retired by a poll, drained or not.
    #[cfg(test)]
    pub(crate) fn flows_in_flight(&self) -> usize {
        let s = self.state.lock();
        s.flows.len().max(s.links.flows.len())
    }

    /// Stops contention modelling: every subsequent poll reports its flow
    /// complete. Called before the delivery queue drains at shutdown.
    pub(crate) fn release_all(&self) {
        self.force_complete.store(true, Ordering::SeqCst);
    }

    /// Locks the state with the engine run to the wall clock.
    fn state_now(&self) -> (f64, parking_lot::MutexGuard<'_, OnlineState>) {
        let t = self.origin.elapsed().as_secs_f64();
        let mut s = self.state.lock();
        s.links.run(t, &mut |_, _| {});
        (t, s)
    }

    fn to_instant(&self, secs: f64) -> Instant {
        self.origin + Duration::try_from_secs_f64(secs.max(0.0)).unwrap_or(Duration::ZERO)
    }

    /// Registers a message leaving `src` for `dst` (world ranks on
    /// different nodes) and returns the flow id plus the predicted
    /// availability time. The prediction is optimistic: later arrivals
    /// can only push it out, which the delivery job discovers by polling.
    pub(crate) fn inject(&self, src: usize, dst: usize, bytes: usize) -> (u64, Instant) {
        let sn = self.p.node_of(src);
        let dnode = self.p.node_of(dst);
        let (t, mut s) = self.state_now();
        // NIC injection: serialize behind the node's previous messages.
        let start = s.nic_free[sn].max(t) + self.p.nic_msg_overhead;
        s.nic_free[sn] = start;
        let handshake = if self.p.is_eager(bytes) {
            0.0
        } else {
            self.p.rendezvous_rtt
        };
        let extra = (start - t) + handshake + self.p.latency;
        let id = s.next_id;
        s.next_id += 1;
        // Infinite bandwidth or an empty payload: only the fixed costs
        // apply; no link contention to track.
        let drain_end = if self.p.bandwidth.is_finite() && bytes > 0 {
            s.links.add(id, sn, dnode, bytes as f64);
            let f = s.links.flows.last().expect("just added");
            s.links.finish(f)
        } else {
            t
        };
        s.flows.insert(
            id,
            OnlineFlow {
                src_node: sn,
                dst_node: dnode,
                extra,
            },
        );
        self.emit_depth(&s, sn, dnode);
        (id, self.to_instant(drain_end + extra))
    }

    /// Checks whether a flow has drained. Returns `None` when the payload
    /// is available (the flow is retired from the fabric) or the new
    /// predicted availability time when contention pushed it out.
    pub(crate) fn poll(&self, id: u64) -> Option<Instant> {
        if self.force_complete.load(Ordering::SeqCst) {
            let mut s = self.state.lock();
            s.flows.remove(&id);
            s.links.remove(id);
            return None;
        }
        let (_, mut s) = self.state_now();
        let f = s.flows.get(&id)?; // None: already force-completed
        match s.links.flows.iter().find(|a| a.id == id) {
            Some(a) => Some(self.to_instant(s.links.finish(a) + f.extra)),
            None => {
                let f = s.flows.remove(&id).expect("checked above");
                self.emit_depth(&s, f.src_node, f.dst_node);
                None
            }
        }
    }

    /// Emits the in-flight-flow / queued-bytes counter tracks for the two
    /// nodes a flow event touched.
    fn emit_depth(&self, s: &OnlineState, src_node: usize, dst_node: usize) {
        let Some(bus) = obs::bus() else { return };
        for &node in &[src_node, dst_node] {
            let queued: f64 = (s.links.flows.iter())
                .filter(|f| f.src == node)
                .map(|f| f.remaining)
                .sum();
            bus.emit(obs::EventData::FabricDepth {
                node: node as u32,
                up_flows: s.links.up[node],
                down_flows: s.links.dn[node],
                queued_bytes: queued as u64,
            });
            if src_node == dst_node {
                break;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn params() -> FabricParams {
        FabricParams {
            latency: 1.0e-6,
            bandwidth: 1.0e9,
            eager_threshold: 1024,
            intra_node_factor: 0.25,
            ranks_per_node: 2,
            nic_msg_overhead: 1.0e-7,
            rendezvous_rtt: 2.0e-6,
        }
    }

    #[test]
    fn validate_rejects_bad_values() {
        let mut p = params();
        assert!(p.validate().is_ok());
        p.bandwidth = 0.0;
        assert!(p.validate().is_err());
        p.bandwidth = f64::NAN;
        assert!(p.validate().is_err());
        p = params();
        p.latency = -1.0;
        assert!(p.validate().is_err());
        p = params();
        p.bandwidth = f64::INFINITY;
        assert!(
            p.validate().is_ok(),
            "infinite bandwidth disables the size term"
        );
    }

    #[test]
    fn node_grouping() {
        let p = params();
        assert_eq!(p.node_of(0), 0);
        assert_eq!(p.node_of(3), 1);
        assert!(p.same_node(2, 3));
        assert!(!p.same_node(1, 2));
        assert_eq!(p.nodes_for(5), 3);
        let solo = FabricParams {
            ranks_per_node: 0,
            ..params()
        };
        assert!(!solo.same_node(0, 1));
        assert_eq!(solo.nodes_for(5), 5);
    }

    #[test]
    fn drain_single_flow_is_serial_time() {
        let p = params();
        // 1 MB eager-classified flow, one message.
        let flows = vec![Flow {
            src: 0,
            dst: 1,
            bytes: 1.0e6,
            msgs: 1.0,
            rdv_msgs: 0.0,
        }];
        let busy = drain(&p, 2, &flows);
        let expect = 1.0e6 / p.bandwidth + p.nic_msg_overhead + p.latency;
        assert!((busy[0] - expect).abs() < 1e-12, "{} vs {expect}", busy[0]);
        // Receiver pays the drain + latency but not the injection.
        assert!((busy[1] - (1.0e6 / p.bandwidth + p.latency)).abs() < 1e-12);
    }

    #[test]
    fn drain_shares_the_uplink() {
        let p = params();
        // Two flows out of node 0 to distinct destinations: the uplink is
        // shared, so node 0 stays busy for the sum of the bytes.
        let flows = vec![
            Flow {
                src: 0,
                dst: 1,
                bytes: 1.0e6,
                msgs: 1.0,
                rdv_msgs: 0.0,
            },
            Flow {
                src: 0,
                dst: 2,
                bytes: 1.0e6,
                msgs: 1.0,
                rdv_msgs: 0.0,
            },
        ];
        let busy = drain(&p, 3, &flows);
        let serial = 2.0e6 / p.bandwidth;
        assert!(
            busy[0] >= serial,
            "shared uplink must serialize: {} < {serial}",
            busy[0]
        );
        // Each destination's downlink only carries its own megabyte, but
        // its flow was slowed by the shared uplink.
        assert!(busy[1] > 1.0e6 / p.bandwidth);
    }

    #[test]
    fn drain_rendezvous_flows_start_late() {
        let p = params();
        let eager = vec![Flow {
            src: 0,
            dst: 1,
            bytes: 1.0e6,
            msgs: 1.0,
            rdv_msgs: 0.0,
        }];
        let rdv = vec![Flow {
            src: 0,
            dst: 1,
            bytes: 1.0e6,
            msgs: 1.0,
            rdv_msgs: 1.0,
        }];
        let be = drain(&p, 2, &eager);
        let br = drain(&p, 2, &rdv);
        assert!((br[0] - be[0] - p.rendezvous_rtt).abs() < 1e-9);
    }

    #[test]
    fn drain_matches_fluid_limit_past_the_cap() {
        let p = FabricParams {
            ranks_per_node: 0,
            ..params()
        };
        // One flow per node pair in a ring, far beyond the event cap.
        let n = DRAIN_EVENT_CAP + 7;
        let flows: Vec<Flow> = (0..n)
            .map(|i| Flow {
                src: i,
                dst: (i + 1) % n,
                bytes: 1000.0,
                msgs: 1.0,
                rdv_msgs: 0.0,
            })
            .collect();
        let busy = drain(&p, n, &flows);
        let expect = 1000.0 / p.bandwidth + p.nic_msg_overhead + p.latency;
        assert!((busy[0] - expect).abs() < 1e-12);
    }

    #[test]
    fn drain_empty_is_zero() {
        let p = params();
        assert_eq!(drain(&p, 4, &[]), vec![0.0; 4]);
    }

    #[test]
    fn online_inject_and_poll_complete() {
        let p = FabricParams {
            latency: 0.0,
            nic_msg_overhead: 0.0,
            ..params()
        };
        let fab = Fabric::new(p, 4);
        let (id, eta) = fab.inject(0, 2, 512);
        // 512 B at 1 GB/s is ~0.5 µs; after it elapses the poll retires
        // the flow.
        while Instant::now() < eta {
            std::thread::sleep(Duration::from_micros(50));
        }
        loop {
            match fab.poll(id) {
                None => break,
                Some(next) => {
                    while Instant::now() < next {
                        std::thread::sleep(Duration::from_micros(50));
                    }
                }
            }
        }
    }

    #[test]
    fn online_contention_pushes_completion_out() {
        // Slow fabric so both flows are in flight together.
        let p = FabricParams {
            latency: 0.0,
            nic_msg_overhead: 0.0,
            bandwidth: 1.0e6, // 1 MB/s
            eager_threshold: usize::MAX,
            ..params()
        };
        let fab = Fabric::new(p, 4);
        let (_a, eta_a) = fab.inject(0, 2, 10_000); // alone: 10 ms
        let (_b, eta_b) = fab.inject(0, 2, 10_000); // shares the uplink
        let d_a = eta_a.duration_since(fab.origin).as_secs_f64();
        let d_b = eta_b.duration_since(fab.origin).as_secs_f64();
        // The second prediction already sees the halved share.
        assert!(d_b > d_a, "{d_b} vs {d_a}");
    }

    #[test]
    fn online_release_all_completes_everything() {
        let p = FabricParams {
            bandwidth: 1.0,
            ..params()
        }; // 1 B/s: never drains
        let fab = Fabric::new(p, 2);
        let (id, _eta) = fab.inject(0, 1, 1 << 20);
        assert!(fab.poll(id).is_some(), "flow cannot have drained yet");
        fab.release_all();
        assert!(fab.poll(id).is_none(), "release_all must complete the flow");
    }

    /// A contended set on four nodes: eager and rendezvous flows, node 0's
    /// uplink shared by three flows, and an eager flow (1 → 3) that
    /// completes exactly at `rendezvous_rtt`, so it retires before the
    /// rendezvous flows start.
    fn contended_flows() -> Vec<Flow> {
        let flow = |src, dst, bytes, msgs, rdv_msgs| Flow {
            src,
            dst,
            bytes,
            msgs,
            rdv_msgs,
        };
        vec![
            flow(0, 1, 3.0e5, 3.0, 0.0),
            flow(0, 2, 1.2e5, 1.0, 0.0),
            flow(3, 2, 7.5e4, 4.0, 0.0),
            flow(1, 3, 1000.0, 1.0, 0.0),
            flow(2, 3, 2000.0, 2.0, 0.0),
            flow(0, 3, 8.0e5, 2.0, 2.0),
            flow(1, 2, 5.0e5, 1.0, 1.0),
            flow(2, 0, 2.5e5, 1.0, 1.0),
        ]
    }

    /// One flow past [`DRAIN_EVENT_CAP`] among four nodes: the closed-form
    /// path, with rendezvous traffic on some node pairs only.
    fn capped_flows() -> Vec<Flow> {
        (0..=DRAIN_EVENT_CAP)
            .map(|i| Flow {
                src: i % 4,
                dst: (i + 1 + i / 4 % 3) % 4,
                bytes: 1000.0 + (i % 7) as f64 * 37.5,
                msgs: 1.0 + (i % 3) as f64,
                rdv_msgs: if i % 5 == 0 && i % 4 != 3 { 1.0 } else { 0.0 },
            })
            .collect()
    }

    /// `drain` bit for bit: the golden files of the paper harnesses round
    /// to three significant digits and cannot see a change in the order
    /// of the engine's operations, so both paths are pinned to captured
    /// bits.
    #[test]
    fn drain_is_pinned_bit_for_bit() {
        let bits = |busy: Vec<f64>| busy.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(
            bits(drain(&params(), 4, &contended_flows())),
            [
                0x3f5403c3031f6f32,
                0x3f479979b92981da,
                0x3f478dbb3f05cf4d,
                0x3f5402ec438a994c
            ]
        );
        assert_eq!(
            bits(drain(&params(), 4, &capped_flows())),
            [
                0x3f76097ba9c489d7,
                0x3f7608362f66f5a8,
                0x3f760985babf83df,
                0x3f76082f796a4ef8
            ]
        );
    }

    #[test]
    fn wire_time_grows_with_size_and_is_discounted_on_a_node() {
        let p = params();
        assert!(p.wire_time(1.0, 1e6, false) > p.wire_time(1.0, 1e3, false));
        assert_eq!(
            p.wire_time(2.0, 1e6, true),
            p.wire_time(2.0, 1e6, false) * p.intra_node_factor
        );
        let infinite = FabricParams {
            bandwidth: f64::INFINITY,
            ..params()
        };
        assert_eq!(infinite.wire_time(3.0, 1e9, false), 3.0 * p.latency);
    }
}
