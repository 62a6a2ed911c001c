//! Collective/coalescing ablation at scale: what do the topology-aware
//! paths (`--coll hier`, `--coalesce on`) buy the data-flow variant on
//! the performance model?
//!
//! Two findings worth pinning:
//!
//! * Hierarchical collectives shave the checksum/refinement reduction
//!   rounds (intra-node hops at the shared-memory discount), a small but
//!   strictly positive gain at every node count. On the *real* runtime,
//!   where the inter-node stage runs over node leaders only, the
//!   `allreduce_8ranks` speed gate (`tests/gates.rs`) holds hier within
//!   1.15× of flat.
//! * Face coalescing merges each inter-node neighbor group into ONE
//!   rendezvous flow. For the data-flow variant that *undoes* the tuned
//!   `--max_comm_tasks 8` granularity and re-raises the coarse-message
//!   wall of Table II — so `compare_variants` runs df with `hier` only.
//!   Coalescing pays off for latency-bound many-small-face regimes, not
//!   for the already-aggregated bandwidth-bound exchange here.
//!
//! Usage: `coll_ablation [--quick]`

use amr_bench::{
    build_workload, build_workload_comm, shape_check, CORES_PER_NODE, HYBRID_RANKS_PER_NODE,
};
use miniamr::config::four_spheres;
use simnet::{CostModel, ExecModel};

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let nodes = if quick { 4 } else { 256 };
    let (tsteps, stages, cells, num_vars) = if quick {
        (10, 10, 8, 8)
    } else {
        (20, 20, 12, 40)
    };

    let roots = amr_bench::root_blocks_for_nodes(nodes);
    let objects = four_spheres(tsteps);
    let cost = CostModel::default();
    let ranks = HYBRID_RANKS_PER_NODE * nodes;
    let workers = CORES_PER_NODE / HYBRID_RANKS_PER_NODE;

    println!("# Collective/coalescing ablation ({nodes} nodes, four spheres, data-flow variant)");
    println!("config\ttotal_s\trefine_s\tno_refine_s");

    let mut rows = Vec::new();
    for (label, hier, coal) in [
        ("flat", false, false),
        ("hier", true, false),
        ("hier+coalesce", true, true),
    ] {
        let w = build_workload_comm(
            roots,
            cells,
            num_vars,
            2,
            ranks,
            HYBRID_RANKS_PER_NODE,
            objects.clone(),
            tsteps,
            stages,
            8,
            hier,
            coal,
        );
        let r = simnet::simulate(&w, &ExecModel::dataflow(workers), &cost);
        println!(
            "{label}\t{:.4}\t{:.4}\t{:.4}",
            r.total,
            r.refine,
            r.non_refine()
        );
        rows.push((label, r.total));
    }

    let w_mpi = build_workload(
        roots,
        cells,
        num_vars,
        2,
        CORES_PER_NODE * nodes,
        CORES_PER_NODE,
        objects,
        tsteps,
        stages,
        0,
    );
    let mpi = simnet::simulate(&w_mpi, &ExecModel::MpiOnly, &cost);
    println!(
        "mpi-flat\t{:.4}\t{:.4}\t{:.4}",
        mpi.total,
        mpi.refine,
        mpi.non_refine()
    );

    let flat = rows.iter().find(|(l, _)| *l == "flat").unwrap().1;
    let hier = rows.iter().find(|(l, _)| *l == "hier").unwrap().1;
    let coal = rows.iter().find(|(l, _)| *l == "hier+coalesce").unwrap().1;
    let mut ok = true;
    ok &= shape_check("hier collectives never slow the df variant", hier <= flat);
    if quick {
        // At toy scale coalescing is latency-bound and actually wins;
        // the coarse-granularity wall needs production message sizes.
        ok &= shape_check("coalescing helps the latency-bound toy run", coal <= hier);
    } else {
        ok &= shape_check(
            "coalescing re-raises the coarse-granularity wall (Table II)",
            coal >= hier,
        );
    }
    ok &= shape_check("df (any config) beats flat MPI", hier < mpi.total);
    std::process::exit(if ok { 0 } else { 1 });
}
