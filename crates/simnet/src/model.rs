//! The three execution models.
//!
//! All models consume the identical [`Workload`] and [`CostModel`]; they
//! differ only in how per-rank work and network time compose — the same
//! structural differences the paper identifies (§V-B):
//!
//! * **MPI-only** — serial ranks; network time overlaps only the
//!   intra-process copies (Algorithm 2's in-flight window); every stage
//!   is effectively neighbor-synchronized, so per-stage imbalance
//!   accumulates (`sum over stages of max over ranks`).
//! * **Fork-join** — computation divided by the worker count, one barrier
//!   per parallel region, and the master's communication fully exposed
//!   (no overlap — the defining limitation).
//! * **Data-flow** — work divided by workers with task overhead;
//!   communication overlapped down to a pipeline floor (first-message
//!   arrival + NIC bandwidth); and imbalance smoothed across each
//!   refinement interval (`max over ranks of sum over stages`), because
//!   no barrier separates stages (delayed checksums included).

use crate::cost::CostModel;
use crate::workload::{Interval, RefineStat, StageStat, Workload};

/// Which execution model to simulate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ExecModel {
    /// Reference MPI-only (one rank per core).
    MpiOnly,
    /// MPI + fork-join threads.
    ForkJoin {
        /// Worker threads per rank.
        workers: usize,
    },
    /// The data-flow taskification over task-aware communication.
    DataFlow {
        /// Worker threads per rank.
        workers: usize,
        /// Overlap communication with computation (disable for
        /// ablation).
        overlap: bool,
        /// Smooth imbalance across barrier-free intervals (disable for
        /// ablation).
        smooth_imbalance: bool,
    },
}

impl ExecModel {
    /// The paper's TAMPI+OSS configuration.
    pub fn dataflow(workers: usize) -> ExecModel {
        ExecModel::DataFlow {
            workers,
            overlap: true,
            smooth_imbalance: true,
        }
    }
}

/// Simulated phase times.
#[derive(Debug, Clone, Default)]
pub struct SimResult {
    /// Total simulated time (s).
    pub total: f64,
    /// Time in refinement phases.
    pub refine: f64,
    /// Time in checksum phases.
    pub checksum: f64,
    /// Stencil flops of the workload.
    pub flops: f64,
}

impl SimResult {
    /// Time outside refinement (the paper's "No Refine").
    pub fn non_refine(&self) -> f64 {
        self.total - self.refine
    }

    /// Throughput in GFLOPS.
    pub fn gflops(&self) -> f64 {
        self.flops / self.total / 1e9
    }
}

const BYTES: f64 = 8.0;

/// Cost of one collective under the workload's selected algorithm:
/// hierarchical two-level when `--coll hier` was extracted into the
/// workload, the flat binomial tree otherwise.
fn coll_time(w: &Workload, c: &CostModel) -> f64 {
    if w.coll_hier {
        c.collective_hier(w.n_ranks, w.ranks_per_node)
    } else {
        c.collective(w.n_ranks)
    }
}

struct StageCosts {
    /// Per-rank pack+unpack+copy+stencil compute seconds.
    work: Vec<f64>,
    /// Per-rank stencil-only seconds (for reporting).
    #[allow(dead_code)]
    stencil: Vec<f64>,
    /// Per-rank intra-process copy seconds.
    local: Vec<f64>,
    /// Per-rank exposed network seconds (all messages serialized).
    net: Vec<f64>,
    /// Per-rank time until the *first* aggregated message has fully
    /// arrived (the pipeline floor of the data-flow model).
    net_floor: Vec<f64>,
    /// Per-rank bandwidth floor: total received bytes / NIC bandwidth.
    net_bw: Vec<f64>,
    /// Per-rank message + face counts (task-overhead accounting).
    units: Vec<f64>,
    /// Per-rank NIC serialization time: the node's total inter-node
    /// message count × per-message injection overhead (the NIC is shared
    /// by all ranks of the node).
    nic: Vec<f64>,
    /// Per-rank incoming message count.
    msgs_in: Vec<f64>,
    /// Per-rank fabric drain time of the rank's *node*: how long the
    /// node's shared uplink/downlink stays busy under fair sharing with
    /// every concurrent flow of the stage (rendezvous handshake and NIC
    /// injection included). A stage cannot complete before its node's
    /// links drain, regardless of how many ranks share the NIC.
    node_busy: Vec<f64>,
    /// Per-rank rendezvous pipeline stall per stage: when the typical
    /// incoming inter-node message is above the eager threshold, the
    /// handshake round trip and the drain of that aggregate sit on the
    /// dependency chain (the payload only starts moving once the receive
    /// task posted, and its serial unpack only starts once the whole
    /// aggregate arrived), so each stage exposes
    /// `rendezvous_rtt + msg_bytes/bw + unpack(one aggregate)` — the
    /// coarse-granularity wall of Table II. Eager messages land in the
    /// runtime's early buffers and expose nothing.
    stall: Vec<f64>,
    /// Per-rank receive-side matching cost per stage: each of `m`
    /// incoming messages scans match queues whose length scales with
    /// `m`, so the cost is quadratic in the message count — the
    /// fine-granularity wall of Table II.
    matchq: Vec<f64>,
}

fn stage_costs(w: &Workload, s: &StageStat, c: &CostModel) -> StageCosts {
    let nv = w.num_vars as f64;
    let cells = w.cells_per_block as f64;
    let n = w.n_ranks;
    let fab = &c.fabric;
    let mut out = StageCosts {
        work: vec![0.0; n],
        stencil: vec![0.0; n],
        local: vec![0.0; n],
        net: vec![0.0; n],
        net_floor: vec![0.0; n],
        net_bw: vec![0.0; n],
        units: vec![0.0; n],
        nic: vec![0.0; n],
        msgs_in: vec![0.0; n],
        node_busy: vec![0.0; n],
        stall: vec![0.0; n],
        matchq: vec![0.0; n],
    };
    // Per-node inter-node message totals (in + out), charged to every
    // rank of the node: the NIC is a shared serial resource.
    let rpn = w.ranks_per_node.max(1);
    let n_nodes = n.div_ceil(rpn);
    let mut node_msgs = vec![0.0f64; n_nodes];
    for r in 0..n {
        node_msgs[r / rpn] += s.in_msgs_inter[r] + s.out_msgs_inter[r];
    }
    // Drain the stage's aggregate inter-node traffic through the shared
    // fabric: every concurrent flow fair-shares its node's uplink and
    // downlink, rendezvous flows join a handshake late.
    let flows: Vec<vmpi::fabric::Flow> = s
        .node_pairs
        .iter()
        .map(|&(sn, dn, msgs, elems)| {
            let bytes = elems * nv * BYTES;
            let rdv = if msgs > 0.0 && !fab.is_eager((bytes / msgs) as usize) {
                msgs
            } else {
                0.0
            };
            vmpi::fabric::Flow {
                src: sn,
                dst: dn,
                bytes,
                msgs,
                rdv_msgs: rdv,
            }
        })
        .collect();
    let busy = vmpi::fabric::drain(fab, n_nodes, &flows);
    for r in 0..n {
        let stencil = s.blocks[r] * cells * nv * c.stencil_per_cell_var;
        let pack = s.pack_elems[r] * nv * c.pack_per_elem;
        let local = s.local_elems[r] * nv * c.copy_per_elem;
        out.stencil[r] = stencil;
        out.local[r] = local;
        out.work[r] = stencil + pack + local;
        let inter_bytes = s.in_elems_inter[r] * nv * BYTES;
        let intra_bytes = s.in_elems_intra[r] * nv * BYTES;
        out.net[r] = fab.wire_time(s.in_msgs_inter[r], inter_bytes, false)
            + fab.wire_time(s.in_msgs_intra[r], intra_bytes, true);
        let msgs = (s.in_msgs_inter[r] + s.in_msgs_intra[r]).max(1.0);
        let total_bytes = inter_bytes + intra_bytes;
        // Typical incoming inter-node message; decides eager vs
        // rendezvous for this rank's traffic.
        let inter_msg_bytes = if s.in_msgs_inter[r] > 0.0 {
            inter_bytes / s.in_msgs_inter[r]
        } else {
            0.0
        };
        let rdv = inter_msg_bytes > 0.0 && !fab.is_eager(inter_msg_bytes as usize);
        let hs = if rdv { fab.rendezvous_rtt } else { 0.0 };
        out.net_floor[r] = if total_bytes > 0.0 {
            hs + fab.latency + (total_bytes / msgs) / fab.bandwidth
        } else {
            0.0
        };
        out.net_bw[r] = total_bytes / fab.bandwidth;
        out.units[r] =
            s.face_units[r] + s.out_msgs[r] + s.in_msgs_inter[r] + s.in_msgs_intra[r] + s.blocks[r];
        out.nic[r] = node_msgs[r / rpn] * fab.nic_msg_overhead;
        out.msgs_in[r] = s.in_msgs_inter[r] + s.in_msgs_intra[r];
        out.node_busy[r] = busy[r / rpn];
        out.stall[r] = if rdv {
            let unpack_chunk = (s.in_elems_inter[r] / s.in_msgs_inter[r]) * nv * c.pack_per_elem;
            hs + inter_msg_bytes / fab.bandwidth + unpack_chunk
        } else {
            0.0
        };
        let m_in = s.in_msgs_inter[r] + s.in_msgs_intra[r];
        out.matchq[r] = m_in * m_in * c.match_queue_per_entry;
    }
    out
}

fn checksum_cost(w: &Workload, s: &StageStat, c: &CostModel, workers: f64) -> f64 {
    let nv = w.num_vars as f64;
    let cells = w.cells_per_block as f64;
    let local = s
        .blocks
        .iter()
        .map(|b| b * cells * nv * c.checksum_per_cell_var / workers)
        .fold(0.0, f64::max);
    // Gather + broadcast.
    local + 2.0 * coll_time(w, c)
}

fn refine_cost(w: &Workload, r: &RefineStat, c: &CostModel, model: &ExecModel) -> f64 {
    let nv = w.num_vars as f64;
    let n = w.n_ranks;
    let coll = coll_time(w, c) * c.collective_rounds_refine * (r.plan_rounds.max(1) as f64);
    // Control code: the refinement decision scans the replicated
    // directory — every rank walks the *whole* active block list (the
    // serial, hard-to-parallelize part the paper measures at ~75% of the
    // refinement; §IV-B). It neither divides by workers nor by ranks.
    let total_blocks: f64 = r.ctrl_blocks.iter().sum();
    let ctrl = total_blocks * c.refine_ctrl_per_block * (r.plan_rounds.max(1) as f64);
    let mut worst = 0.0f64;
    for rank in 0..n {
        let jobs = r.job_elems[rank] * nv * c.refine_copy_per_elem;
        // ACK + control + data per move.
        let exch = r.move_msgs[rank] * 3.0 * c.fabric.latency
            + r.move_elems[rank] * nv * BYTES / c.fabric.bandwidth;
        let t = match model {
            ExecModel::MpiOnly => jobs + exch,
            ExecModel::ForkJoin { workers } => {
                jobs / *workers as f64 + exch + 2.0 * c.barrier(*workers)
            }
            ExecModel::DataFlow { workers, .. } => {
                // Split/merge copies overlap the exchange transfers.
                (jobs / *workers as f64).max(exch) + r.move_msgs[rank] * c.task_overhead
            }
        };
        worst = worst.max(t);
    }
    ctrl + worst + coll
}

fn interval_time(
    w: &Workload,
    iv: &Interval,
    c: &CostModel,
    model: &ExecModel,
    out: &mut SimResult,
) {
    let sc = stage_costs(w, &iv.stage, c);
    let n = w.n_ranks;
    let stages = iv.stages as f64;
    match *model {
        ExecModel::MpiOnly => {
            // Per-stage neighbor synchronization: the slowest rank paces
            // every stage. Network overlaps only the local copies; the
            // node NIC serializes message injection across all 48 ranks.
            let mut stage_t = 0.0f64;
            let mut link_floor = 0.0f64;
            for r in 0..n {
                let exposed = (sc.net[r] - sc.local[r]).max(0.0);
                stage_t =
                    stage_t.max(sc.work[r] + exposed + sc.nic[r] + sc.stall[r] + sc.matchq[r]);
                link_floor = link_floor.max(sc.node_busy[r]);
            }
            // The stage cannot end before the busiest node's shared links
            // drain, however the per-rank costs overlap.
            stage_t = stage_t.max(link_floor);
            stage_t += c.synchronized_noise(stage_t, n);
            out.total += stages * stage_t;
            let chk = checksum_cost(w, &iv.stage, c, 1.0);
            out.total += iv.checksums as f64 * chk;
            out.checksum += iv.checksums as f64 * chk;
        }
        ExecModel::ForkJoin { workers } => {
            let wk = workers as f64;
            let mut stage_t = 0.0f64;
            for r in 0..n {
                // Parallel regions per stage: pack, copies, stencil, plus
                // one dispatch+join per arrived message (the master's
                // waitany loop hands each message's unpack to the team,
                // Algorithm 2 under fork-join). Master-only communication
                // is fully exposed.
                let msgs = iv.stage.in_msgs_inter[r] + iv.stage.in_msgs_intra[r];
                let barriers = (3.0 + msgs) * c.barrier(workers);
                stage_t = stage_t
                    .max(
                        sc.work[r] / wk
                            + sc.net[r]
                            + sc.nic[r]
                            + sc.stall[r]
                            + sc.matchq[r]
                            + barriers,
                    )
                    .max(sc.node_busy[r]);
            }
            stage_t += c.synchronized_noise(stage_t, n * workers);
            out.total += stages * stage_t;
            let chk = checksum_cost(w, &iv.stage, c, wk) + c.barrier(workers);
            out.total += iv.checksums as f64 * chk;
            out.checksum += iv.checksums as f64 * chk;
        }
        ExecModel::DataFlow {
            workers,
            overlap,
            smooth_imbalance,
        } => {
            let wk = workers as f64;
            let mut t_interval = 0.0f64;
            if smooth_imbalance {
                // No barrier between stages: each rank's interval cost is
                // its own sum; the interval ends when the slowest rank
                // drains (taskwait before refinement). The NIC floor still
                // applies — tasks cannot inject messages faster than the
                // shared hardware.
                for r in 0..n {
                    let work_stage = (sc.work[r] + sc.units[r] * c.task_overhead) / wk;
                    let work = stages * work_stage;
                    // Pipeline floor per stage: the last message to drain
                    // through the NIC gates the work that depends on it —
                    // roughly 1/k of the stage with k messages. Coarse
                    // aggregation (small k) therefore lengthens the
                    // dependency tail (the Table II effect). The node's
                    // shared-link drain time is a floor of its own.
                    let tail = work_stage / sc.msgs_in[r].max(1.0);
                    let mut t = if overlap {
                        let floor = stages
                            * (sc.net_floor[r] + sc.net_bw[r] + tail)
                                .max(sc.nic[r])
                                .max(sc.node_busy[r]);
                        // Rendezvous stalls are exposed even with overlap:
                        // the WAR edge on the pack buffer is a dependency,
                        // not a resource the scheduler can hide.
                        work.max(floor) + stages * (sc.stall[r] + sc.matchq[r])
                    } else {
                        work + stages
                            * ((sc.net[r] + sc.nic[r]).max(sc.node_busy[r])
                                + sc.stall[r]
                                + sc.matchq[r])
                    };
                    // Interruptions are absorbed locally; only the final
                    // drain synchronizes once per interval.
                    t += c.absorbed_noise(t);
                    t_interval = t_interval.max(t);
                }
                t_interval += c
                    .synchronized_noise(t_interval, n * workers)
                    .min(c.noise_duration);
            } else {
                // Ablation: per-stage synchronization (imbalance per
                // stage accumulates like MPI-only).
                let mut stage_t = 0.0f64;
                for r in 0..n {
                    let work = (sc.work[r] + sc.units[r] * c.task_overhead) / wk;
                    let tail = work / sc.msgs_in[r].max(1.0);
                    let t = if overlap {
                        work.max(
                            (sc.net_floor[r] + sc.net_bw[r] + tail)
                                .max(sc.nic[r])
                                .max(sc.node_busy[r]),
                        ) + sc.stall[r]
                            + sc.matchq[r]
                    } else {
                        work + (sc.net[r] + sc.nic[r]).max(sc.node_busy[r])
                            + sc.stall[r]
                            + sc.matchq[r]
                    };
                    stage_t = stage_t.max(t);
                }
                stage_t += c.synchronized_noise(stage_t, n * workers);
                t_interval = stages * stage_t;
            }
            out.total += t_interval;
            // Delayed checksum: only the global reduction is exposed.
            let chk = 2.0 * coll_time(w, c);
            out.total += iv.checksums as f64 * chk;
            out.checksum += iv.checksums as f64 * chk;
        }
    }
    if let Some(refine) = &iv.refine {
        let t = refine_cost(w, refine, c, model);
        out.total += t;
        out.refine += t;
    }
}

/// Simulates the workload under the execution model.
pub fn simulate(w: &Workload, model: &ExecModel, c: &CostModel) -> SimResult {
    let mut out = SimResult {
        flops: w.total_flops,
        ..Default::default()
    };
    for iv in &w.intervals {
        interval_time(w, iv, c, model, &mut out);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{Workload, WorkloadParams};
    use amr_mesh::{MeshParams, Object};

    fn workload(ranks_per_node: usize) -> Workload {
        Workload::generate(&WorkloadParams {
            mesh: MeshParams {
                npx: 4,
                npy: 2,
                npz: 2,
                init_x: 1,
                init_y: 2,
                init_z: 2,
                // Paper-like task granularity (§V-B: 12^3-cell blocks,
                // tens of variables) — with toy blocks the per-task
                // overhead dominates and no tasking model would win.
                nx: 12,
                ny: 12,
                nz: 12,
                num_vars: 20,
                num_refine: 2,
                block_change: 1,
            },
            objects: vec![Object::sphere([0.3, 0.4, 0.5], 0.25, [0.03, 0.0, 0.0])],
            num_tsteps: 10,
            stages_per_ts: 10,
            checksum_freq: 10,
            refine_freq: 5,
            msgs_per_pair_dir: 0,
            ranks_per_node,
            coll_hier: false,
            coalesce: false,
            eager_bytes: 16 * 1024,
        })
    }

    #[test]
    fn hier_collectives_speed_up_grouped_runs() {
        let mut w = workload(4);
        let c = CostModel::default();
        let flat = simulate(&w, &ExecModel::dataflow(4), &c);
        w.coll_hier = true;
        let hier = simulate(&w, &ExecModel::dataflow(4), &c);
        assert!(
            hier.total < flat.total,
            "hier collectives must not slow the model: {} vs {}",
            hier.total,
            flat.total
        );
        // With one rank per node the two algorithms price identically.
        let mut solo = workload(0);
        let base = simulate(&solo, &ExecModel::MpiOnly, &c);
        solo.coll_hier = true;
        let same = simulate(&solo, &ExecModel::MpiOnly, &c);
        assert_eq!(base.total, same.total);
    }

    #[test]
    fn dataflow_beats_forkjoin_beats_nothing() {
        let w = workload(4);
        let c = CostModel::default();
        let mpi = simulate(&w, &ExecModel::MpiOnly, &c);
        let fj = simulate(&w, &ExecModel::ForkJoin { workers: 4 }, &c);
        let df = simulate(&w, &ExecModel::dataflow(4), &c);
        assert!(
            df.total < mpi.total,
            "data-flow must beat MPI-only: {df:?} vs {mpi:?}"
        );
        assert!(
            df.total < fj.total,
            "data-flow must beat fork-join: {df:?} vs {fj:?}"
        );
    }

    #[test]
    fn overlap_ablation_slows_dataflow() {
        let w = workload(4);
        let c = CostModel::default();
        let with = simulate(&w, &ExecModel::dataflow(4), &c);
        let without = simulate(
            &w,
            &ExecModel::DataFlow {
                workers: 4,
                overlap: false,
                smooth_imbalance: true,
            },
            &c,
        );
        assert!(without.total > with.total);
    }

    #[test]
    fn smoothing_ablation_slows_dataflow() {
        let w = workload(4);
        let c = CostModel::default();
        let with = simulate(&w, &ExecModel::dataflow(4), &c);
        let without = simulate(
            &w,
            &ExecModel::DataFlow {
                workers: 4,
                overlap: true,
                smooth_imbalance: false,
            },
            &c,
        );
        assert!(without.total >= with.total);
    }

    #[test]
    fn more_workers_reduce_hybrid_time() {
        let w = workload(4);
        let c = CostModel::default();
        let w2 = simulate(&w, &ExecModel::dataflow(2), &c);
        let w8 = simulate(&w, &ExecModel::dataflow(8), &c);
        assert!(w8.total < w2.total);
    }

    #[test]
    fn gflops_is_flops_over_time() {
        let w = workload(0);
        let c = CostModel::default();
        let r = simulate(&w, &ExecModel::MpiOnly, &c);
        assert!((r.gflops() - r.flops / r.total / 1e9).abs() < 1e-12);
        assert!(r.non_refine() < r.total);
        assert!(r.refine > 0.0);
    }

    /// The variant ordering must be robust to the cost constants, not an
    /// artifact of one calibration.
    #[test]
    fn cost_robustness() {
        let w = workload(4);
        for scale_lat in [0.5, 2.0] {
            for scale_cpu in [0.5, 2.0] {
                let mut c = CostModel::default();
                c.fabric.latency *= scale_lat;
                c.stencil_per_cell_var *= scale_cpu;
                let mpi = simulate(&w, &ExecModel::MpiOnly, &c);
                let df = simulate(&w, &ExecModel::dataflow(4), &c);
                assert!(
                    df.total < mpi.total * 1.05,
                    "data-flow fell behind at lat×{scale_lat} cpu×{scale_cpu}"
                );
            }
        }
    }
}
