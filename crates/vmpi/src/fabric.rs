//! Contention-aware network fabric: node → NIC → switch topology.
//!
//! Both the real execution (vmpi's delivery engine) and the at-scale
//! simulation (`simnet`) used to charge each message an independent
//! `latency + bytes/bandwidth` cost, which misses the three machine
//! effects the paper credits for penalizing large communication
//! aggregates (§V-B, Table II):
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
//! This module is the *single source* for all interconnect constants
//! ([`FabricParams`]) — `vmpi::NetworkModel`, `simnet::CostModel` and the
//! miniamr CLI defaults all consume it, so the real execution (Table I,
//! Figures 1–3) and the simulated cluster (Table II, Figures 4–5)
//! describe the same machine.
//!
//! Two consumers, one topology:
//!
//! * [`drain`] — a batch drain loop over aggregated [`Flow`]s, used by
//!   `simnet` once per simulated stage (the fluid limit of the per-packet
//!   fabric in flow-level simulators like htsim).
//! * [`Fabric`] — the online variant used by the real execution: sends
//!   inject flows as they happen, delivery jobs *poll* their flow and
//!   reschedule if concurrent arrivals slowed it down.

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
// Batch drain loop (the simulator's per-stage fluid model)
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

/// Runs the event-driven drain loop over `flows` and returns, per node,
/// how long its NIC/links stay busy: the completion time of the last
/// flow touching the node plus the node's serialized injection overhead.
///
/// Fair sharing: an active flow's rate is `bandwidth / max(active flows
/// on its source uplink, active flows on its destination downlink)`; the
/// loop advances from completion to completion, re-dividing bandwidth as
/// flows finish. Flows with rendezvous messages join at
/// `rendezvous_rtt`; the rest at time zero.
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

    struct Active {
        src: usize,
        dst: usize,
        remaining: f64,
        /// Simulation time `remaining` was last reduced at.
        last: f64,
    }
    let mut active: Vec<Active> = Vec::with_capacity(flows.len());
    let mut pending: Vec<&Flow> = Vec::new(); // rendezvous flows, start at rtt
    let mut up = vec![0u32; n_nodes];
    let mut dn = vec![0u32; n_nodes];
    for f in flows {
        if f.rdv_msgs > 0.0 && p.rendezvous_rtt > 0.0 {
            pending.push(f);
        } else {
            up[f.src] += 1;
            dn[f.dst] += 1;
            active.push(Active {
                src: f.src,
                dst: f.dst,
                remaining: f.bytes.max(0.0),
                last: 0.0,
            });
        }
    }

    let mut start_at = p.rendezvous_rtt; // single pending-start event
    let rate = |up: &[u32], dn: &[u32], a: &Active| -> f64 {
        p.bandwidth / f64::from(up[a.src].max(dn[a.dst]).max(1))
    };
    loop {
        // Earliest completion among active flows at current rates.
        let mut next_done: Option<(usize, f64)> = None;
        for (i, a) in active.iter().enumerate() {
            let t = a.last + a.remaining / rate(&up, &dn, a);
            if next_done.is_none_or(|(_, best)| t < best) {
                next_done = Some((i, t));
            }
        }
        // The pending-start event may come first.
        let start_next = !pending.is_empty() && next_done.is_none_or(|(_, t)| start_at < t);
        let event_t = if start_next {
            start_at
        } else {
            match next_done {
                Some((_, t)) => t,
                None => break,
            }
        };
        // Advance every active flow to the event time at its current rate.
        for a in active.iter_mut() {
            a.remaining = (a.remaining - (event_t - a.last) * rate(&up, &dn, a)).max(0.0);
            a.last = event_t;
        }
        // The flow defining the event completes *by construction*; the
        // subtraction above can leave an epsilon that would stall the
        // loop, so zero it explicitly.
        if let Some((i, _)) = next_done {
            if !start_next {
                active[i].remaining = 0.0;
            }
        }
        if start_next {
            for f in pending.drain(..) {
                up[f.src] += 1;
                dn[f.dst] += 1;
                active.push(Active {
                    src: f.src,
                    dst: f.dst,
                    remaining: f.bytes.max(0.0),
                    last: event_t,
                });
            }
            start_at = f64::INFINITY;
            continue;
        }
        // Retire every flow that drained at this event (at least one).
        let mut i = 0;
        while i < active.len() {
            if active[i].remaining <= 0.0 {
                let a = active.swap_remove(i);
                up[a.src] -= 1;
                dn[a.dst] -= 1;
                busy[a.src] = busy[a.src].max(event_t);
                busy[a.dst] = busy[a.dst].max(event_t);
            } else {
                i += 1;
            }
        }
    }
    for m in 0..n_nodes {
        if busy[m] > 0.0 || inject[m] > 0.0 {
            busy[m] += inject[m] + p.latency;
        }
    }
    busy
}

// ---------------------------------------------------------------------
// Online fabric (the real execution's delivery-time model)
// ---------------------------------------------------------------------

struct OnlineFlow {
    src_node: usize,
    dst_node: usize,
    /// Payload bytes not yet drained through the links.
    remaining: f64,
    /// Fixed completion offset: NIC queueing + injection overhead +
    /// handshake + wire latency, applied on top of the drain finish.
    extra: f64,
    /// Set once the flow drained (awaiting its delivery job's poll).
    drained: bool,
}

struct OnlineState {
    /// Fabric clock, seconds since `Fabric::origin`. Advanced to the
    /// wall clock on every mutation, so fair-share rates are piecewise
    /// constant between mutations.
    now: f64,
    flows: HashMap<u64, OnlineFlow>,
    /// Active (un-drained) flow counts per node uplink/downlink.
    up: Vec<u32>,
    dn: Vec<u32>,
    /// Remaining bytes per node uplink (for the observability track).
    up_bytes: Vec<f64>,
    /// Next free NIC injection slot per node.
    nic_free: Vec<f64>,
    next_id: u64,
}

/// The shared online fabric of one [`crate::World`].
///
/// Sends [`Fabric::inject`] a flow and schedule their delivery at the
/// predicted completion; the delivery job [`Fabric::poll`]s — if later
/// arrivals shrank the flow's bandwidth share, the poll returns a new
/// estimate and the job reschedules. Rates only change when flows are
/// injected, drained, or polled, and every mutation first advances all
/// remaining byte counts to the wall clock, so the fair-share drain is
/// exact between mutations.
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
            p,
            origin: Instant::now(),
            state: Mutex::new(OnlineState {
                now: 0.0,
                flows: HashMap::new(),
                up: vec![0; n_nodes],
                dn: vec![0; n_nodes],
                up_bytes: vec![0.0; n_nodes],
                nic_free: vec![0.0; n_nodes],
                next_id: 0,
            }),
            force_complete: AtomicBool::new(false),
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

    /// Stops contention modelling: every subsequent poll reports its flow
    /// complete. Called before the delivery queue drains at shutdown.
    pub(crate) fn release_all(&self) {
        self.force_complete.store(true, Ordering::SeqCst);
    }

    fn rate(&self, up: &[u32], dn: &[u32], f: &OnlineFlow) -> f64 {
        self.p.bandwidth / f64::from(up[f.src_node].max(dn[f.dst_node]).max(1))
    }

    /// Advances all active flows to wall time `t`, retiring the ones that
    /// drain along the way (processing retirements in completion order so
    /// the freed bandwidth is re-shared mid-window).
    fn advance(&self, s: &mut OnlineState, t: f64) {
        while s.now < t {
            // Earliest in-window completion at current rates.
            let mut first: Option<(u64, f64)> = None;
            for (&id, f) in s.flows.iter() {
                if f.drained {
                    continue;
                }
                let done = s.now + f.remaining / self.rate(&s.up, &s.dn, f);
                if first.is_none_or(|(_, best)| done < best) {
                    first = Some((id, done));
                }
            }
            let until = match first {
                Some((_, done)) if done < t => done,
                _ => t,
            };
            let dt = until - s.now;
            if dt > 0.0 {
                let rates: Vec<(u64, f64)> = s
                    .flows
                    .iter()
                    .filter(|(_, f)| !f.drained)
                    .map(|(&id, f)| (id, self.rate(&s.up, &s.dn, f)))
                    .collect();
                for (id, r) in rates {
                    let f = s.flows.get_mut(&id).expect("flow exists");
                    let moved = (r * dt).min(f.remaining);
                    f.remaining -= moved;
                    s.up_bytes[f.src_node] = (s.up_bytes[f.src_node] - moved).max(0.0);
                }
            }
            s.now = until;
            // The flow defining the boundary completes *by construction*;
            // the subtraction above can leave an epsilon that would stall
            // this loop, so zero it explicitly.
            if let Some((id, done)) = first {
                if done <= until {
                    let f = s.flows.get_mut(&id).expect("flow exists");
                    s.up_bytes[f.src_node] = (s.up_bytes[f.src_node] - f.remaining).max(0.0);
                    f.remaining = 0.0;
                }
            }
            // Retire everything that hit zero at this boundary.
            let done_ids: Vec<u64> = s
                .flows
                .iter()
                .filter(|(_, f)| !f.drained && f.remaining <= 0.0)
                .map(|(&id, _)| id)
                .collect();
            for id in done_ids {
                let f = s.flows.get_mut(&id).expect("flow exists");
                f.drained = true;
                s.up[f.src_node] -= 1;
                s.dn[f.dst_node] -= 1;
            }
        }
    }

    fn predict(&self, s: &OnlineState, f: &OnlineFlow) -> f64 {
        if f.drained {
            s.now + f.extra
        } else {
            s.now + f.remaining / self.rate(&s.up, &s.dn, f) + f.extra
        }
    }

    fn to_instant(&self, secs: f64) -> Instant {
        self.origin + Duration::try_from_secs_f64(secs.max(0.0)).unwrap_or(Duration::ZERO)
    }

    /// Registers a message leaving `src` for `dst` (world ranks on
    /// different nodes) and returns the flow id plus the predicted
    /// availability time. The prediction is optimistic: later arrivals
    /// can only push it out, which the delivery job discovers by polling.
    pub(crate) fn inject(&self, src: usize, dst: usize, bytes: usize) -> (u64, Instant) {
        let t = self.origin.elapsed().as_secs_f64();
        let sn = self.p.node_of(src);
        let dnode = self.p.node_of(dst);
        let mut s = self.state.lock();
        self.advance(&mut s, t);
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
        let flow = OnlineFlow {
            src_node: sn,
            dst_node: dnode,
            remaining: bytes as f64,
            extra,
            drained: false,
        };
        let eta = if self.p.bandwidth.is_finite() && bytes > 0 {
            s.up[sn] += 1;
            s.dn[dnode] += 1;
            s.up_bytes[sn] += bytes as f64;
            let eta = self.predict(&s, &flow);
            s.flows.insert(id, flow);
            eta
        } else {
            // Infinite bandwidth: only the fixed costs apply; no link
            // contention to track.
            let mut flow = flow;
            flow.remaining = 0.0;
            flow.drained = true;
            let eta = t + extra;
            s.flows.insert(id, flow);
            eta
        };
        self.emit_depth(&s, sn, dnode);
        (id, self.to_instant(eta))
    }

    /// Checks whether a flow has drained. Returns `None` when the payload
    /// is available (the flow is retired from the fabric) or the new
    /// predicted availability time when contention pushed it out.
    pub(crate) fn poll(&self, id: u64) -> Option<Instant> {
        if self.force_complete.load(Ordering::SeqCst) {
            let mut s = self.state.lock();
            if let Some(f) = s.flows.remove(&id) {
                if !f.drained {
                    s.up[f.src_node] -= 1;
                    s.dn[f.dst_node] -= 1;
                    s.up_bytes[f.src_node] = (s.up_bytes[f.src_node] - f.remaining).max(0.0);
                }
            }
            return None;
        }
        let t = self.origin.elapsed().as_secs_f64();
        let mut s = self.state.lock();
        self.advance(&mut s, t);
        let Some(f) = s.flows.get(&id) else {
            return None; // already force-completed
        };
        if f.drained {
            let f = s.flows.remove(&id).expect("checked above");
            self.emit_depth(&s, f.src_node, f.dst_node);
            None
        } else {
            let eta = self.predict(&s, f);
            Some(self.to_instant(eta))
        }
    }

    /// Emits the in-flight-flow / queued-bytes counter tracks for the two
    /// nodes a flow event touched.
    fn emit_depth(&self, s: &OnlineState, src_node: usize, dst_node: usize) {
        let Some(bus) = obs::bus() else { return };
        for &node in &[src_node, dst_node] {
            bus.emit(obs::EventData::FabricDepth {
                node: node as u32,
                up_flows: s.up[node],
                down_flows: s.dn[node],
                queued_bytes: s.up_bytes[node] as u64,
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
}
