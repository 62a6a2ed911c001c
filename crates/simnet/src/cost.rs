//! The cost model: one constant per mechanism.
//!
//! Defaults approximate a MareNostrum4-class machine (Intel Xeon
//! Platinum 8160 @ 2.1 GHz, 100 Gb/s-class interconnect). Absolute values
//! shift curves up or down; the variant *orderings* in the reproduced
//! tables and figures come from structure, and hold over a wide range of
//! constants (see the `cost_robustness` test in `model.rs`).
//!
//! Network constants are **not** duplicated here: everything about the
//! wire — latency, bandwidth, eager threshold, NIC injection overhead,
//! rendezvous handshake, node grouping — lives in the shared
//! [`FabricParams`] that the `vmpi` runtime uses for real execution. The
//! simulator and the runtime therefore price the same message the same
//! way by construction.

pub use vmpi::fabric::FabricParams;

/// Per-mechanism time constants, all in seconds.
#[derive(Debug, Clone)]
pub struct CostModel {
    /// Stencil cost per cell per variable (7-point sweep, memory-bound).
    pub stencil_per_cell_var: f64,
    /// Pack/unpack cost per element (face copy to/from buffers).
    pub pack_per_elem: f64,
    /// Intra-rank neighbor copy cost per element.
    pub copy_per_elem: f64,
    /// Shared network fabric parameters (latency, bandwidth, eager
    /// threshold, NIC injection overhead, rendezvous handshake, node
    /// grouping) — the same struct `vmpi` executes against.
    pub fabric: FabricParams,
    /// Fork-join parallel-region barrier cost per worker-doubling
    /// (cost = `barrier_base * log2(workers)` per region).
    pub barrier_base: f64,
    /// Task creation + scheduling overhead per task (data-flow and
    /// fork-join task loops).
    pub task_overhead: f64,
    /// Refinement control code per block (serial per rank).
    pub refine_ctrl_per_block: f64,
    /// Split/merge data copy cost per element.
    pub refine_copy_per_elem: f64,
    /// Collective operation cost factor: `latency * log2(ranks)` per
    /// collective round.
    pub collective_rounds_refine: f64,
    /// Local checksum reduction cost per cell per variable.
    pub checksum_per_cell_var: f64,
    /// Receive-side matching cost per posted-queue entry scanned. Every
    /// incoming message walks the posted-receive/unexpected queues, whose
    /// length grows with the messages in flight, so a stage receiving `m`
    /// messages pays `~m² × match_queue_per_entry` — the well-known
    /// long-match-queue wall that punishes one-message-per-face
    /// configurations (the `all` column of Table II).
    pub match_queue_per_entry: f64,
    /// Mean seconds between OS interruptions per core (jitter/daemons).
    pub noise_period: f64,
    /// Duration of one interruption. Bulk-synchronous execution amplifies
    /// noise: each stage waits for the unluckiest of all cores, while
    /// barrier-free data-flow execution absorbs interruptions locally —
    /// one of the imbalance-sensitivity mechanisms of §V-B.
    pub noise_duration: f64,
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel {
            // ~1.3 GB/s effective per core on a 7-point sweep ⇒ ~6 ns per
            // cell·var (8-byte values, ~7 reads + 1 write with cache reuse).
            stencil_per_cell_var: 6.0e-9,
            pack_per_elem: 1.0e-9,
            copy_per_elem: 1.2e-9,
            fabric: FabricParams::cluster(),
            barrier_base: 3.0e-6,
            task_overhead: 1.0e-6,
            refine_ctrl_per_block: 2.0e-6,
            refine_copy_per_elem: 1.5e-9,
            collective_rounds_refine: 6.0,
            checksum_per_cell_var: 1.0e-9,
            match_queue_per_entry: 1.5e-9,
            noise_period: 0.25,
            noise_duration: 250.0e-6,
        }
    }
}

impl CostModel {
    /// Cost of one `log2(ranks)`-depth collective (reduce, bcast,
    /// barrier) over a flat binomial tree.
    pub fn collective(&self, ranks: usize) -> f64 {
        self.fabric.latency * (ranks.max(2) as f64).log2()
    }

    /// Cost of one hierarchical two-level collective (`--coll hier`):
    /// an intra-node combine over `ranks_per_node` ranks priced at the
    /// shared-memory discount, then an inter-node binomial stage over
    /// the node leaders only. Falls back to the flat tree when the
    /// grouping is degenerate (0 or 1 rank per node).
    pub fn collective_hier(&self, ranks: usize, ranks_per_node: usize) -> f64 {
        if ranks_per_node <= 1 || ranks <= 1 {
            return self.collective(ranks);
        }
        let nodes = ranks.div_ceil(ranks_per_node);
        let rpn = ranks_per_node.min(ranks);
        let intra =
            self.fabric.latency * self.fabric.intra_node_factor * (rpn.max(2) as f64).log2();
        let inter = if nodes > 1 {
            self.fabric.latency * (nodes.max(2) as f64).log2()
        } else {
            0.0
        };
        intra + inter
    }

    /// Fork-join barrier cost for a worker team.
    pub fn barrier(&self, workers: usize) -> f64 {
        self.barrier_base * (workers.max(2) as f64).log2()
    }

    /// Expected noise added to a globally-synchronized step of base
    /// duration `t` across `cores` cores: the step waits for the
    /// unluckiest core, so the expected penalty approaches one full
    /// interruption as the core count grows.
    pub fn synchronized_noise(&self, t: f64, cores: usize) -> f64 {
        if self.noise_duration <= 0.0 || t <= 0.0 {
            return 0.0;
        }
        let q = (t / self.noise_period).min(1.0);
        self.noise_duration * (1.0 - (1.0 - q).powi(cores as i32))
    }

    /// Noise absorbed locally (no synchronization): each core just loses
    /// its duty-cycle share.
    pub fn absorbed_noise(&self, t: f64) -> f64 {
        if self.noise_duration <= 0.0 {
            return 0.0;
        }
        t * self.noise_duration / self.noise_period
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn collective_grows_logarithmically() {
        let c = CostModel::default();
        let t2 = c.collective(2);
        let t4096 = c.collective(4096);
        assert!(t4096 > t2);
        assert!((t4096 / t2 - 12.0).abs() < 0.01, "log2(4096)=12");
    }

    #[test]
    fn hier_collective_beats_flat_when_grouped() {
        let c = CostModel::default();
        // 256 ranks at 4/node: flat pays log2(256) = 8 latencies; hier
        // pays a discounted log2(4) intra stage plus log2(64) = 6
        // inter-node hops.
        assert!(c.collective_hier(256, 4) < c.collective(256));
        // Degenerate groupings fall back to the flat tree exactly.
        assert_eq!(c.collective_hier(256, 0), c.collective(256));
        assert_eq!(c.collective_hier(256, 1), c.collective(256));
        assert_eq!(c.collective_hier(1, 4), c.collective(1));
        // Single node: only the discounted intra stage remains.
        assert!(c.collective_hier(4, 4) < c.collective(4));
    }

    #[test]
    fn fabric_constants_are_shared_with_vmpi() {
        // One source of truth: the simulator's defaults ARE the runtime's
        // cluster profile, not a drifting copy.
        let c = CostModel::default();
        assert_eq!(c.fabric, FabricParams::cluster());
    }
}
