//! Network performance model.
//!
//! The substrate decouples message *matching* (which happens immediately,
//! preserving MPI ordering semantics) from message *availability* (when
//! the payload may be consumed and the receive request completes). The
//! gap between the two is governed by a [`NetworkModel`], which is how
//! this in-process substrate reproduces the communication costs that make
//! the paper's computation/communication overlap worth having.
//!
//! A `NetworkModel` is one [`FabricParams`] (the machine), the collective
//! family and a switch for the contention-aware fabric; every cost rule
//! it applies is the machine's own (`wire_time`, `is_eager`,
//! `same_node`, `validate`).

use crate::fabric::FabricParams;
use std::time::Duration;

/// Which algorithm family the collectives use.
///
/// `Flat` is the single-level shape: binomial trees and dissemination
/// rounds over the whole communicator, ignoring node placement. `Hier` is
/// topology-aware: ranks sharing a simulated node (per
/// [`FabricParams::ranks_per_node`]) combine through an in-process shared
/// slot first, then one *leader* per node runs the inter-node stage over
/// a binomial tree, and the result fans back out node-locally. Both
/// families use a fixed, deterministic combination order, so results are
/// identical on every rank and bitwise-reproducible run to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CollAlgo {
    /// Single-level binomial/dissemination algorithms (the default).
    #[default]
    Flat,
    /// Two-level node-aware algorithms (intra-node shared-memory stage,
    /// inter-node binomial stage). Falls back to `Flat` when the world
    /// has no node grouping (`ranks_per_node <= 1`).
    Hier,
}

/// The network a [`crate::World`] runs on: the machine, the collective
/// algorithm family, and whether inter-node messages go through the
/// contention-aware fabric.
///
/// Without the fabric, the availability delay of a message of `n` bytes
/// between ranks `a` and `b` is [`FabricParams::wire_time`] of one
/// message:
///
/// ```text
/// delay(n) = (latency + n / bandwidth) * factor(a, b)
/// ```
///
/// where `factor` is `intra_node_factor` if both ranks live on the same
/// simulated node (see [`NetworkModel::with_ranks_per_node`]) and `1.0`
/// otherwise. Messages of at most `eager_threshold` bytes complete their
/// *send* request immediately (eager protocol, the buffer is copied);
/// larger sends complete when the transfer drains (rendezvous-like).
#[derive(Debug, Clone)]
pub struct NetworkModel {
    /// The modelled machine. Its NIC overhead and rendezvous round trip
    /// only apply on the contention-aware fabric.
    pub params: FabricParams,
    /// Collective algorithm family (see [`CollAlgo`]).
    pub coll: CollAlgo,
    /// When set, inter-node transfers go through the contention-aware
    /// [`crate::fabric::Fabric`] (NIC serialization, shared-link fair
    /// sharing, rendezvous handshake) instead of the scalar delay.
    /// Intra-node and self transfers always take the scalar delay.
    contention: bool,
}

impl NetworkModel {
    /// A model with zero latency and infinite bandwidth: messages are
    /// available as soon as they are sent. Use this for correctness tests.
    pub fn instant() -> Self {
        NetworkModel::new(Duration::ZERO, f64::INFINITY).with_eager_threshold(usize::MAX)
    }

    /// A model resembling a commodity HPC interconnect: the canonical
    /// [`FabricParams::cluster`] calibration, so the real execution and
    /// the `simnet` simulator describe the same machine.
    pub fn cluster() -> Self {
        NetworkModel::from_fabric(&FabricParams::cluster())
    }

    /// The scalar model of the machine `p` (without enabling the
    /// contention-aware fabric — see [`NetworkModel::with_fabric`] for
    /// that).
    pub fn from_fabric(p: &FabricParams) -> Self {
        NetworkModel {
            params: p.clone(),
            coll: CollAlgo::Flat,
            contention: false,
        }
    }

    /// Creates a model with the given latency and bandwidth, a 16 KiB
    /// eager threshold and no node grouping.
    pub fn new(latency: Duration, bandwidth: f64) -> Self {
        NetworkModel::from_fabric(&FabricParams {
            latency: latency.as_secs_f64(),
            bandwidth,
            eager_threshold: 16 * 1024,
            intra_node_factor: 1.0,
            ranks_per_node: 0,
            nic_msg_overhead: 0.0,
            rendezvous_rtt: 0.0,
        })
    }

    /// Makes `p` the model's machine and routes inter-node transfers
    /// through the contention-aware fabric (NIC serialization,
    /// shared-link fair sharing, rendezvous handshake). Intra-node and
    /// self transfers keep the scalar delay of the same machine.
    pub fn with_fabric(mut self, p: FabricParams) -> Self {
        self.params = p;
        self.contention = true;
        self
    }

    /// The fabric parameters, when the contention-aware path is enabled.
    pub fn fabric_params(&self) -> Option<&FabricParams> {
        self.contention.then_some(&self.params)
    }

    /// Sets the node grouping used for the intra-node discount.
    pub fn with_ranks_per_node(mut self, ranks_per_node: usize) -> Self {
        self.params.ranks_per_node = ranks_per_node;
        self
    }

    /// Sets the intra-node transfer cost multiplier.
    pub fn with_intra_node_factor(mut self, factor: f64) -> Self {
        self.params.intra_node_factor = factor;
        self
    }

    /// Sets the eager-protocol threshold in bytes.
    pub fn with_eager_threshold(mut self, bytes: usize) -> Self {
        self.params.eager_threshold = bytes;
        self
    }

    /// Selects the collective algorithm family (see [`CollAlgo`]).
    pub fn with_coll(mut self, coll: CollAlgo) -> Self {
        self.coll = coll;
        self
    }

    /// Returns whether two ranks share a simulated node.
    #[inline]
    pub fn same_node(&self, a: usize, b: usize) -> bool {
        self.params.same_node(a, b)
    }

    /// Validates the machine ([`FabricParams::validate`]). Call this at
    /// configuration time; [`NetworkModel::delay`] only saturates
    /// defensively.
    pub fn validate(&self) -> Result<(), String> {
        self.params.validate()
    }

    /// Computes the scalar availability delay for `bytes` between `src`
    /// and `dst`.
    ///
    /// Defensive against mis-configured models that slipped past
    /// [`NetworkModel::validate`]: a non-finite or negative result
    /// saturates to zero (debug builds assert) instead of panicking on
    /// the delivery thread.
    pub fn delay(&self, bytes: usize, src: usize, dst: usize) -> Duration {
        if src == dst {
            return Duration::ZERO;
        }
        let secs = (self.params).wire_time(1.0, bytes as f64, self.same_node(src, dst));
        debug_assert!(
            secs.is_finite() && secs >= 0.0,
            "network delay computed as {secs} s ({:?}); validate() the model at configuration time",
            self.params,
        );
        Duration::try_from_secs_f64(secs).unwrap_or(Duration::ZERO)
    }

    /// Returns whether a message of `bytes` completes its send eagerly.
    #[inline]
    pub fn is_eager(&self, bytes: usize) -> bool {
        self.params.is_eager(bytes)
    }

    /// Returns true when the model never delays messages.
    pub fn is_instant(&self) -> bool {
        !self.contention && self.params.latency == 0.0 && !self.params.bandwidth.is_finite()
    }
}

impl Default for NetworkModel {
    fn default() -> Self {
        NetworkModel::instant()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn instant_model_has_zero_delay() {
        let m = NetworkModel::instant();
        assert!(m.is_instant());
        assert_eq!(m.delay(1 << 20, 0, 1), Duration::ZERO);
        assert!(m.is_eager(usize::MAX));
    }

    #[test]
    fn delay_scales_with_size() {
        let m = NetworkModel::new(Duration::from_micros(1), 1.0e9);
        let small = m.delay(1000, 0, 1);
        let large = m.delay(1_000_000, 0, 1);
        assert!(large > small);
        // 1 MB at 1 GB/s is 1 ms plus latency.
        assert!(large >= Duration::from_micros(1000));
    }

    #[test]
    fn self_messages_are_free() {
        let m = NetworkModel::cluster();
        assert_eq!(m.delay(1 << 30, 3, 3), Duration::ZERO);
    }

    #[test]
    fn intra_node_discount_applies() {
        let m = NetworkModel::new(Duration::from_micros(10), f64::INFINITY)
            .with_ranks_per_node(4)
            .with_intra_node_factor(0.1);
        assert!(m.same_node(0, 3));
        assert!(!m.same_node(3, 4));
        let intra = m.delay(0, 0, 3);
        let inter = m.delay(0, 3, 4);
        assert!(intra < inter);
        assert_eq!(intra, Duration::from_secs_f64(10e-6 * 0.1));
    }

    #[test]
    fn eager_threshold_boundary() {
        let m = NetworkModel::cluster();
        assert!(m.is_eager(16 * 1024));
        assert!(!m.is_eager(16 * 1024 + 1));
    }

    #[test]
    fn cluster_discount_is_reachable() {
        // Regression: cluster() used to pair an intra-node discount with
        // ranks_per_node = 0, so the discount could never apply.
        let m = NetworkModel::cluster();
        let rpn = m.params.ranks_per_node;
        assert!(rpn > 0, "cluster model needs a node grouping");
        assert!(m.same_node(0, rpn - 1));
        assert!(m.delay(0, 0, 1) < m.delay(0, 0, rpn));
    }

    #[test]
    fn cluster_matches_fabric_constants() {
        assert_eq!(NetworkModel::cluster().params, FabricParams::cluster());
    }

    #[test]
    fn with_fabric_makes_its_params_the_only_machine() {
        let p = FabricParams {
            latency: 4.0e-6,
            bandwidth: 2.0e9,
            ..FabricParams::cluster()
        };
        let m = NetworkModel::new(Duration::from_micros(50), 1.0e6).with_fabric(p.clone());
        assert_eq!(m.fabric_params(), Some(&p));
        // Intra-node messages take the scalar delay of the same machine.
        let intra = (4.0e-6 + 1000.0 / 2.0e9) * p.intra_node_factor;
        assert_eq!(m.delay(1000, 0, 1), Duration::from_secs_f64(intra));
        assert!(!m.is_instant());
    }

    #[test]
    fn validate_rejects_nonpositive_bandwidth() {
        let mut m = NetworkModel::new(Duration::from_micros(1), 0.0);
        assert!(m.validate().is_err());
        m.params.bandwidth = -3.0;
        assert!(m.validate().is_err());
        m.params.bandwidth = f64::NAN;
        assert!(m.validate().is_err());
        m.params.bandwidth = 1.0e9;
        assert!(m.validate().is_ok());
        m.params.intra_node_factor = f64::NAN;
        assert!(m.validate().is_err());
    }

    #[test]
    fn delay_saturates_instead_of_panicking() {
        // A zero-bandwidth model is invalid (validate() rejects it), but
        // if one slips through, delay() must not panic on the delivery
        // thread. Release builds saturate to zero; debug builds assert,
        // which is the documented contract.
        if cfg!(debug_assertions) {
            return;
        }
        let m = NetworkModel::new(Duration::from_micros(1), 0.0);
        assert_eq!(m.delay(100, 0, 1), Duration::ZERO);
    }
}
