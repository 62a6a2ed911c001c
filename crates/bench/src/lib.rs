//! # amr-bench — harnesses regenerating every table and figure
//!
//! One binary per experiment of the paper's evaluation (§V):
//!
//! | Binary | Reproduces |
//! |---|---|
//! | `table1` | Table I — ranks-per-node sweep on 4 nodes (single sphere) |
//! | `table2` | Table II — `--max_comm_tasks` sweep on 64 nodes |
//! | `trace_figs` | Figures 1–3 — phase/task timelines and overlap analysis (real execution) |
//! | `weak_scaling` | Figure 4 — weak-scaling throughput and efficiency, 1–256 nodes |
//! | `strong_scaling` | Figure 5 — strong-scaling speedup and efficiency, 1–256 nodes |
//! | `refine_ablation` | §IV-B — refinement taskification decomposition |
//! | `ablation` | §V-B — why the data-flow variant wins (overlap, smoothing, locality) |
//!
//! At-scale experiments run on the `simnet` performance model over
//! workloads extracted from the real mesh engine (a 2-vCPU host cannot
//! run paper-scale rank counts; see DESIGN.md §2); `trace_figs`,
//! `refine_ablation --real` and `table1 --real` drive the actual threaded
//! runtime.

#![warn(missing_docs)]

use amr_mesh::{MeshParams, Object};
use miniamr::config::four_spheres;
use simnet::workload::WorkloadParams;
use simnet::{rank_grid_for, CostModel, ExecModel, SimResult, Workload};

/// MareNostrum4-like node shape: 48 cores per node.
pub const CORES_PER_NODE: usize = 48;
/// Hybrid variants run 4 ranks per node (the optimum found in Table I).
pub const HYBRID_RANKS_PER_NODE: usize = 4;

/// Splits `48 * nodes` into a 3D factor grid, doubling dimensions
/// round-robin from the 1-node base `(4, 4, 3)` — the paper's weak
/// scaling doubles the total block count in one direction at a time
/// (§V-C).
pub fn root_blocks_for_nodes(nodes: usize) -> (usize, usize, usize) {
    assert!(
        nodes.is_power_of_two() && nodes <= 1024,
        "nodes must be a power of two"
    );
    let mut dims = [4usize, 4, 3];
    let mut n = 1;
    let mut axis = 0;
    while n < nodes {
        dims[axis] *= 2;
        axis = (axis + 1) % 3;
        n *= 2;
    }
    (dims[0], dims[1], dims[2])
}

/// A mesh layout for `ranks` ranks over the given root block grid.
pub fn mesh_for(
    roots: (usize, usize, usize),
    cells: usize,
    num_vars: usize,
    num_refine: u8,
    ranks: usize,
) -> MeshParams {
    rank_grid_for(roots, (cells, cells, cells), num_vars, num_refine, ranks)
        .unwrap_or_else(|| panic!("no rank grid for {ranks} ranks over {roots:?} blocks"))
}

/// Builds a workload for an experiment. Flat collectives, no
/// coalescing — the historical default every table uses unless it is
/// explicitly exercising the topology-aware paths.
#[allow(clippy::too_many_arguments)]
pub fn build_workload(
    roots: (usize, usize, usize),
    cells: usize,
    num_vars: usize,
    num_refine: u8,
    ranks: usize,
    ranks_per_node: usize,
    objects: Vec<Object>,
    num_tsteps: usize,
    stages_per_ts: usize,
    msgs_per_pair_dir: usize,
) -> Workload {
    build_workload_comm(
        roots,
        cells,
        num_vars,
        num_refine,
        ranks,
        ranks_per_node,
        objects,
        num_tsteps,
        stages_per_ts,
        msgs_per_pair_dir,
        false,
        false,
    )
}

/// [`build_workload`] with explicit collective/coalescing shape:
/// `coll_hier` prices checksums and refinement rounds on the two-level
/// tree, `coalesce` merges each inter-node neighbor group into one flow
/// above the fabric's eager threshold (`--coll hier --coalesce on`).
#[allow(clippy::too_many_arguments)]
pub fn build_workload_comm(
    roots: (usize, usize, usize),
    cells: usize,
    num_vars: usize,
    num_refine: u8,
    ranks: usize,
    ranks_per_node: usize,
    objects: Vec<Object>,
    num_tsteps: usize,
    stages_per_ts: usize,
    msgs_per_pair_dir: usize,
    coll_hier: bool,
    coalesce: bool,
) -> Workload {
    let mesh = mesh_for(roots, cells, num_vars, num_refine, ranks);
    Workload::generate(&WorkloadParams {
        mesh,
        objects,
        num_tsteps,
        stages_per_ts,
        checksum_freq: 10,
        refine_freq: 5,
        msgs_per_pair_dir,
        ranks_per_node,
        coll_hier,
        coalesce,
        eager_bytes: simnet::cost::FabricParams::cluster().eager_threshold,
    })
}

/// Simulated results of the three variants on one node count.
pub struct VariantResults {
    /// MPI-only (48 ranks/node).
    pub mpi: SimResult,
    /// Fork-join (4 ranks/node × 12 workers).
    pub forkjoin: SimResult,
    /// Data-flow (4 ranks/node × 12 workers).
    pub dataflow: SimResult,
}

/// Runs the standard three-variant comparison at `nodes` nodes for a
/// four-spheres workload.
pub fn compare_variants(
    nodes: usize,
    roots: (usize, usize, usize),
    cells: usize,
    num_vars: usize,
    num_tsteps: usize,
    stages_per_ts: usize,
    cost: &CostModel,
) -> VariantResults {
    let objects = four_spheres(num_tsteps);
    let workers = CORES_PER_NODE / HYBRID_RANKS_PER_NODE;

    let w_mpi = build_workload(
        roots,
        cells,
        num_vars,
        2,
        CORES_PER_NODE * nodes,
        CORES_PER_NODE,
        objects.clone(),
        num_tsteps,
        stages_per_ts,
        0,
    );
    let mpi = simnet::simulate(&w_mpi, &ExecModel::MpiOnly, cost);

    // Fork-join keeps the reference aggregation (one message per
    // neighbor and direction); the data-flow variant uses the paper's
    // tuned `--max_comm_tasks 8` (§V-B, Table II) plus the runtime's
    // topology-aware collectives (`--coll hier`). The MPI-only baseline
    // is the unmodified reference app: flat trees, no coalescing.
    let w_fj = build_workload(
        roots,
        cells,
        num_vars,
        2,
        HYBRID_RANKS_PER_NODE * nodes,
        HYBRID_RANKS_PER_NODE,
        objects.clone(),
        num_tsteps,
        stages_per_ts,
        0,
    );
    let forkjoin = simnet::simulate(&w_fj, &ExecModel::ForkJoin { workers }, cost);
    let w_df = build_workload_comm(
        roots,
        cells,
        num_vars,
        2,
        HYBRID_RANKS_PER_NODE * nodes,
        HYBRID_RANKS_PER_NODE,
        objects,
        num_tsteps,
        stages_per_ts,
        8,
        true,
        false,
    );
    let dataflow = simnet::simulate(&w_df, &ExecModel::dataflow(workers), cost);

    VariantResults {
        mpi,
        forkjoin,
        dataflow,
    }
}

/// Formats seconds with 3 decimals.
pub fn fmt_s(t: f64) -> String {
    format!("{t:.3}")
}

/// A PASS/FAIL shape-check line.
pub fn shape_check(name: &str, ok: bool) -> bool {
    println!("SHAPE {}\t{}", if ok { "PASS" } else { "FAIL" }, name);
    ok
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn root_blocks_double_with_nodes() {
        assert_eq!(root_blocks_for_nodes(1), (4, 4, 3));
        assert_eq!(root_blocks_for_nodes(2), (8, 4, 3));
        assert_eq!(root_blocks_for_nodes(4), (8, 8, 3));
        let (x, y, z) = root_blocks_for_nodes(256);
        assert_eq!(x * y * z, 48 * 256);
    }

    #[test]
    fn mesh_for_divides_exactly() {
        for nodes in [1, 2, 4] {
            let roots = root_blocks_for_nodes(nodes);
            let mpi = mesh_for(roots, 12, 40, 2, CORES_PER_NODE * nodes);
            assert_eq!(mpi.num_ranks(), CORES_PER_NODE * nodes);
            assert_eq!(mpi.root_blocks(), roots);
            let hybrid = mesh_for(roots, 12, 40, 2, HYBRID_RANKS_PER_NODE * nodes);
            assert_eq!(hybrid.root_blocks(), roots);
        }
    }

    #[test]
    fn small_scale_variant_comparison_has_paper_ordering() {
        // A fast (2-node) check that the harness pipeline works and the
        // ordering matches the paper: dataflow fastest. Paper-like task
        // granularity (12³ cells × 20 vars) — with toy blocks the
        // per-task overhead rightly dominates and no tasking model wins.
        let r = compare_variants(
            2,
            root_blocks_for_nodes(2),
            12,
            20,
            10,
            10,
            &CostModel::default(),
        );
        assert!(
            r.dataflow.total < r.mpi.total,
            "{} vs {}",
            r.dataflow.total,
            r.mpi.total
        );
        assert!(r.dataflow.total < r.forkjoin.total);
    }
}
