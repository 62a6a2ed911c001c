//! The metric dictionary: every name the benchmark prints, with unit,
//! direction, and — for the per-layer rungs — the end-to-end metric and
//! workload each is predicted to move. `BENCHMARK.json` and the README
//! tables are generated from here (`ladder dictionary`), so the three
//! cannot drift.

/// One end-to-end metric.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
    pub what: &'static str,
}

/// All end-to-end metrics are "lower is better".
///
/// The three `run_s` bounds are the widest the benchmark contract allows,
/// not the 10 % the issue asked for: on the shared 2-core VM this was
/// sized on, whole contract runs drift together by 10–20 % for a minute
/// at a time (ten runs of one workload gave spreads of 2–22 %), and a
/// bound has to sit above the spread of the machine it is checked on.
pub const END_TO_END: [EndToEnd; 6] = [
    EndToEnd {
        name: "run_s.mpi",
        unit: "s",
        bound: 0.25,
        what: "median wall of one whole MPI-only run_world (set-up included) in a fresh process",
    },
    EndToEnd {
        name: "run_s.forkjoin",
        unit: "s",
        bound: 0.25,
        what: "same, fork-join variant",
    },
    EndToEnd {
        name: "run_s.dataflow",
        unit: "s",
        bound: 0.25,
        what: "same, data-flow variant",
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        bound: 0.25,
        what: "sum over the variants of the median wall of the scenario with num_tsteps = 0",
    },
    EndToEnd {
        name: "peak_rss_mb.mpi",
        unit: "MB",
        bound: 0.10,
        what: "median VmHWM of the MPI-only sample's process",
    },
    EndToEnd {
        name: "peak_rss_mb.dataflow",
        unit: "MB",
        bound: 0.10,
        what: "median VmHWM of the data-flow sample's process",
    },
];

/// One per-layer rung.
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    /// "lower" or "higher".
    pub better: &'static str,
    /// The public function timed (or the record read).
    pub measures: &'static str,
    /// End-to-end metric @ workload it should move; "≠" marks the
    /// workload where the prediction is no change.
    pub moves: &'static str,
    /// Exact count: identical between two runs of the same code and seed.
    pub exact: bool,
}

const fn rung(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    measures: &'static str,
    moves: &'static str,
) -> PerLayer {
    PerLayer {
        name,
        unit,
        better,
        measures,
        moves,
        exact: false,
    }
}

const fn count(name: &'static str, measures: &'static str, moves: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit: "count",
        better: "lower",
        measures,
        moves,
        exact: true,
    }
}

const MESH_KERNEL: &str = "run_s.*@coarse_compute ≠ tasks_fine";
const REGRID: &str = "run_s.*@regrid_churn, setup_s ≠ tasks_fine";
const MSG_PATH: &str = "run_s.*@tasks_fine ≠ coarse_compute";
const EXPLAINS_DF: &str = "explains run_s.dataflow on every workload";
const WORKLOAD_ID: &str = "a change means the workload changed, not the speed";

pub const PER_LAYER: [PerLayer; 69] = [
    // mesh
    rung("mesh.stencil_ns_per_cell", "ns", "lower", "stencil::apply_stencil per cell·variable, cycling the rank's blocks", MESH_KERNEL),
    rung("mesh.stencil_gbs", "GB/s", "higher", "same call; computed bytes (16 B per cell·variable), not measured traffic", MESH_KERNEL),
    rung("mesh.face_copy_ns_per_elem", "ns", "lower", "face::extract_face_into + inject_ghost_face, mean of X/Y/Z", "run_s.*@coarse_compute (ghost exchange is ~60% of MPI-only there)"),
    rung("mesh.face_restrict_ns_per_elem", "ns", "lower", "face::restrict_from_block_into + inject_ghost_quarter per element sent", "run_s.*@coarse_compute, regrid_churn"),
    rung("mesh.face_prolong_ns_per_elem", "ns", "lower", "face::extract_face_quarter_into + inject_prolonged_face per element sent", "run_s.*@coarse_compute, regrid_churn"),
    rung("mesh.split_us_per_block", "us", "lower", "data::split_block", REGRID),
    rung("mesh.merge_us_per_block", "us", "lower", "data::merge_children", REGRID),
    rung("mesh.plan_refinement_us", "us", "lower", "MeshDirectory::plan_refinement on the workload's mesh", REGRID),
    rung("mesh.partition_us", "us", "lower", "partition::sfc_partition on the workload's mesh", REGRID),
    rung("mesh.checksum_ns_per_cell", "ns", "lower", "checksum::block_sums per cell·variable", "run_s.*@regrid_churn"),
    // shmem
    rung("shmem.pool_take_hit_ns", "ns", "lower", "BufferPool::take served from a free list, at the median message size", MSG_PATH),
    rung("shmem.pool_take_miss_ns", "ns", "lower", "BufferPool::take that has to allocate", MSG_PATH),
    rung("shmem.claimed_write_gbs", "GB/s", "higher", "BufSlice::write_from over one block's array (payload bytes)", MSG_PATH),
    // taskrt
    rung("taskrt.task_ns.replay", "ns", "lower", "spawn + run of a stage-shaped stream inside trace_scope, after the trace froze", "run_s.dataflow@tasks_fine ≠ regrid_churn"),
    rung("taskrt.task_ns.record", "ns", "lower", "same stream, invalidate_traces() before every iteration", "run_s.dataflow@regrid_churn ≠ tasks_fine"),
    rung("taskrt.task_ns.noscope", "ns", "lower", "same stream outside any scope (claim-table analysis per spawn)", "run_s.forkjoin@tasks_fine"),
    rung("taskrt.parallel_for_us", "us", "lower", "Runtime::parallel_for over the rank's blocks, one chunk per block", "run_s.forkjoin@tasks_fine"),
    rung("taskrt.handoff_ns", "ns", "lower", "per link of a fully spawned dependent chain, head released last", "run_s.dataflow@tasks_fine"),
    count("taskrt.edges_per_task", "RuntimeStats edges / spawned over one stream iteration", "run_s.dataflow@tasks_fine"),
    rung("taskrt.allocs_per_task", "count", "lower", "allocator calls per task on the replay path", "run_s.dataflow, peak_rss_mb.dataflow@tasks_fine"),
    rung("taskrt.retained_bytes_per_task", "B", "lower", "allocator live bytes after the runtime is dropped / tasks, replay path", "peak_rss_mb.dataflow@tasks_fine"),
    rung("taskrt.retained_bytes_per_task.noscope", "B", "lower", "same without a trace scope (expected ~0)", "peak_rss_mb.forkjoin"),
    // vmpi
    rung("vmpi.pingpong_us", "us", "lower", "8-byte send/recv round trip / 2 between two live rank threads", MSG_PATH),
    rung("vmpi.msg_us.face", "us", "lower", "isend_from + irecv_into + RequestSet::waitall, one message each way, median message size", MSG_PATH),
    rung("vmpi.bw_gbs.1MB", "GB/s", "higher", "1 MiB send/recv_into", "run_s.*@regrid_churn (block moves)"),
    rung("vmpi.match_ns.depth256", "ns", "lower", "extra cost of a receive matched behind 256 unexpected messages", MSG_PATH),
    rung("vmpi.allocs_per_msg", "count", "lower", "allocator calls per face message, send through receive", MSG_PATH),
    rung("vmpi.alloc_bytes_per_msg", "B", "lower", "bytes allocated per face message (the payload to_vec in comm.rs)", MSG_PATH),
    rung("vmpi.allreduce_us", "us", "lower", "Comm::allreduce of num_vars f64 on 2 ranks", "run_s.*@regrid_churn"),
    rung("vmpi.delivery_lag_us", "us", "lower", "send to receive-complete minus NetworkModel::delay, under the workload's network", "run_s.*@net_overlap; the delivery thread is bypassed on the three instant-network workloads"),
    // tampi
    rung("tampi.bound_msg_us", "us", "lower", "task-bound exchange: isend_from task + irecv_into task + consumer task, one message each way", "run_s.dataflow@tasks_fine, net_overlap ≠ run_s.mpi anywhere"),
    rung("tampi.bind_overhead_us", "us", "lower", "tampi.bound_msg_us - vmpi.msg_us.face", "run_s.dataflow@tasks_fine, net_overlap ≠ run_s.mpi anywhere"),
    // core
    rung("core.rank_init_ms", "ms", "lower", "RankState::init of rank 0 (initial refinement included)", "setup_s, run_s.*@regrid_churn"),
    rung("core.comm_plan_build_ms", "ms", "lower", "CommPlan::build", "setup_s, run_s.*@regrid_churn"),
    rung("core.local_transfer_ns_per_elem", "ns", "lower", "rank::apply_local_transfer over the real plan's local transfers", "run_s.*@coarse_compute, net_overlap"),
    rung("core.pack_ns_per_elem", "ns", "lower", "rank::pack_transfer_into over the real plan's outbound transfers", "run_s.*@coarse_compute, net_overlap"),
    rung("core.unpack_ns_per_elem", "ns", "lower", "rank::unpack_transfer over the real plan's inbound transfers", "run_s.*@coarse_compute, net_overlap"),
    rung("core.checkpoint_take_ms", "ms", "lower", "RankCheckpoint::take", "run_s.*@regrid_churn"),
    rung("core.checkpoint_restore_ms", "ms", "lower", "RankCheckpoint::restore", "run_s.*@regrid_churn (recovery only)"),
    rung("core.checkpoint_mb", "MB", "lower", "RankCheckpoint::bytes", "peak_rss_mb.*@regrid_churn"),
    rung("core.phase_share.comm", "share", "lower", "RunStats: communicate / total, MPI-only, slowest rank", "names the phase run_s.mpi is spent in"),
    rung("core.phase_share.stencil", "share", "lower", "RunStats: stencil / total, MPI-only", "names the phase run_s.mpi is spent in"),
    rung("core.phase_share.checksum", "share", "lower", "RunStats: checksum / total, MPI-only", "names the phase run_s.mpi is spent in"),
    rung("core.phase_share.refine", "share", "lower", "RunStats: refine / total, MPI-only", "names the phase run_s.mpi is spent in"),
    rung("core.refine_ms_per_regrid", "ms", "lower", "RunStats: refine time / regrids (initial one included), MPI-only", "run_s.*@regrid_churn"),
    rung("core.pool_hit_rate", "share", "higher", "RunStats: pool hits / takes, MPI-only", MSG_PATH),
    count("core.tasks_per_step", "RunStats: data-flow tasks spawned / timesteps", WORKLOAD_ID),
    count("core.msgs_per_step", "RunStats: messages sent / timesteps", WORKLOAD_ID),
    count("core.elems_per_msg", "RunStats: elements sent / messages", WORKLOAD_ID),
    count("core.blocks_final", "RunStats: blocks at the end of the run", WORKLOAD_ID),
    count("core.blocks_moved", "RunStats: blocks moved by refinement and balancing", WORKLOAD_ID),
    rung("core.df_over_mpi", "ratio", "higher", "median of per-round run_s.mpi / run_s.dataflow: data-flow's speed relative to MPI-only, > 1 where it wins", "deliberately not end-to-end: speeding up MPI-only is never a regression"),
    rung("core.fj_over_mpi", "ratio", "higher", "median of per-round run_s.mpi / run_s.forkjoin", "deliberately not end-to-end"),
    rung("core.par_eff.mpi", "ratio", "higher", "1-rank run of the same global mesh / (2 x run_s.mpi)", "run_s.mpi: the share two ranks actually buy"),
    rung("core.rss_growth_mb_per_rerun.dataflow", "MB", "lower", "RSS growth per in-process rerun of the data-flow variant", "peak_rss_mb.dataflow, and --jobs N"),
    rung("core.ladder_pred_over_meas.mpi", "ratio", "higher", "sum of rung cost x count / run_s.mpi; flagged outside 0.8-1.25", "says whether the rungs add up to the run"),
    // obs
    rung("obs.overhead_ratio.dataflow", "ratio", "lower", "traced / untraced run_s.dataflow, ring sized for zero drops", "the cost of observing"),
    rung("obs.events_per_task", "count", "lower", "bus events / data-flow tasks", "obs.overhead_ratio.dataflow"),
    rung("obs.dropped_events", "count", "lower", "ring-overflow drops in the traced run", "must stay 0 for the decomposition to be whole"),
    rung("obs.report_build_ms", "ms", "lower", "PerfReport::from_events", "the cost of explaining"),
    rung("obs.crit_share.compute", "share", "higher", "perf report: compute share of the critical path", EXPLAINS_DF),
    rung("obs.crit_share.pack", "share", "lower", "perf report: pack share", EXPLAINS_DF),
    rung("obs.crit_share.transit", "share", "lower", "perf report: transit share (largest on net_overlap)", EXPLAINS_DF),
    rung("obs.crit_share.wait", "share", "lower", "perf report: wait share", EXPLAINS_DF),
    rung("obs.crit_share.runtime", "share", "lower", "perf report: runtime share (largest on tasks_fine)", EXPLAINS_DF),
    rung("obs.overlap_fraction", "share", "higher", "perf report: mean per-rank compute/communication overlap", "run_s.dataflow@net_overlap"),
    // simnet, dfcheck
    rung("simnet.pred_over_meas.mpi", "ratio", "higher", "Workload::generate + simulate(MpiOnly) / run_s.mpi", "prediction next to measurement"),
    rung("simnet.pred_over_meas.dataflow", "ratio", "higher", "simulate(DataFlow, 1 worker) / run_s.dataflow", "prediction next to measurement"),
    rung("dfcheck.check_ms", "ms", "lower", "miniamr::staticcheck::check of the data-flow scenario", "pre-flight cost, not part of run_s"),
];

pub fn per_layer(name: &str) -> Option<&'static PerLayer> {
    PER_LAYER.iter().find(|m| m.name == name)
}

pub fn end_to_end(name: &str) -> Option<&'static EndToEnd> {
    END_TO_END.iter().find(|m| m.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn valid_name(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 64
            && s.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn valid_unit(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 16
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    #[test]
    fn names_and_units_meet_the_contract() {
        let mut seen = std::collections::BTreeSet::new();
        for (name, unit) in END_TO_END
            .iter()
            .map(|m| (m.name, m.unit))
            .chain(PER_LAYER.iter().map(|m| (m.name, m.unit)))
        {
            assert!(valid_name(name), "bad name {name}");
            assert!(valid_unit(unit), "bad unit {unit} of {name}");
            assert!(seen.insert(name), "{name} used twice");
        }
        assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
        assert!(PER_LAYER.len() <= 128);
        assert!(PER_LAYER
            .iter()
            .all(|m| m.better == "lower" || m.better == "higher"));
    }
}
