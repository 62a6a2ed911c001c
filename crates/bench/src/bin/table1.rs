//! Table I: execution time versus ranks per node on 4 nodes, single
//! sphere input.
//!
//! Paper setup: 20 timesteps × 60 stages, 18³-cell blocks, 60 variables,
//! refinement every 5 timesteps, checksum every 10 stages; both hybrid
//! variants swept over 1/2/4/8/16 ranks per node (48/24/12/6/3 workers).
//! Expected shape: one rank per node is the worst configuration for both
//! hybrids (two NUMA domains per node); fork-join improves with more
//! ranks per node; the data-flow total is flat across 2–8 ranks/node and
//! below fork-join; the data-flow refinement time falls as ranks per node
//! increase (refinement is only partially parallelized, so more ranks
//! divide its work).
//!
//! With `--real`, additionally runs a scaled-down wall-clock version on
//! the in-process runtime (2 "nodes" × small blocks) and prints the same
//! three columns per configuration.
//!
//! Usage: `table1 [--quick] [--real]`

use amr_bench::{build_workload, fmt_s, shape_check, CORES_PER_NODE};
use miniamr::config::single_sphere;
use simnet::{CostModel, ExecModel};

fn numa_penalty(ranks_per_node: usize, cost: &CostModel) -> CostModel {
    // One rank spanning both sockets pays a NUMA penalty on its
    // memory-bound kernels; MareNostrum4 nodes have two sockets, so only
    // the 1-rank/node configuration is affected (§V-A).
    let mut c = cost.clone();
    if ranks_per_node == 1 {
        c.stencil_per_cell_var *= 1.45;
        c.pack_per_elem *= 1.45;
        c.copy_per_elem *= 1.45;
    }
    c
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let real = args.iter().any(|a| a == "--real");
    let nodes = 4usize;
    let (tsteps, stages, cells, num_vars) = if quick {
        (8, 10, 8, 8)
    } else {
        (20, 60, 18, 60)
    };

    // Same initial mesh for every configuration: one block per MPI-only
    // rank (48/node), 4x4x3 per node scaled to 4 nodes -> (8, 8, 3)... use
    // the weak-scaling grid for 4 nodes.
    let roots = amr_bench::root_blocks_for_nodes(nodes);
    let objects = single_sphere(tsteps);
    let cost = CostModel::default();

    println!("# Table I: time (s) varying ranks per node on {nodes} nodes (single sphere)");
    println!(
        "ranks_per_node\tfj_total\tfj_refine\tfj_no_refine\tdf_total\tdf_refine\tdf_no_refine"
    );

    let mut rows = Vec::new();
    for rpn in [1usize, 2, 4, 8, 16] {
        let ranks = rpn * nodes;
        let workers = CORES_PER_NODE / rpn;
        let c = numa_penalty(rpn, &cost);
        let w_fj = build_workload(
            roots,
            cells,
            num_vars,
            2,
            ranks,
            rpn,
            objects.clone(),
            tsteps,
            stages,
            0,
        );
        let fj = simnet::simulate(&w_fj, &ExecModel::ForkJoin { workers }, &c);
        let w_df = build_workload(
            roots,
            cells,
            num_vars,
            2,
            ranks,
            rpn,
            objects.clone(),
            tsteps,
            stages,
            8,
        );
        let df = simnet::simulate(&w_df, &ExecModel::dataflow(workers), &c);
        println!(
            "{rpn}\t{}\t{}\t{}\t{}\t{}\t{}",
            fmt_s(fj.total),
            fmt_s(fj.refine),
            fmt_s(fj.non_refine()),
            fmt_s(df.total),
            fmt_s(df.refine),
            fmt_s(df.non_refine())
        );
        rows.push((rpn, fj.clone(), df.clone()));
    }

    let one = &rows[0];
    let four = rows.iter().find(|r| r.0 == 4).expect("4 ranks/node row");
    let mut ok = true;
    ok &= shape_check(
        "1 rank/node is worst for fork-join (NUMA)",
        one.1.total > four.1.total,
    );
    ok &= shape_check(
        "1 rank/node is worst for data-flow (NUMA)",
        one.2.total > four.2.total,
    );
    ok &= shape_check(
        "data-flow beats fork-join at the optimal configuration",
        four.2.total < four.1.total,
    );
    let df_refine_1 = one.2.refine;
    let df_refine_16 = rows.last().expect("16 ranks row").2.refine;
    ok &= shape_check(
        "refinement time falls with more ranks/node",
        df_refine_16 < df_refine_1,
    );

    if real {
        real_mode();
    }
    if !ok {
        std::process::exit(1);
    }
}

/// A scaled-down wall-clock rendition of the same sweep on the threaded
/// runtime: 2 simulated nodes of 4 cores, 1/2/4 ranks per node.
fn real_mode() {
    use miniamr::{Config, Variant};
    use vmpi::NetworkModel;

    println!("# Table I (--real): wall-clock on the in-process runtime (2 nodes x 4 cores)");
    println!("ranks_per_node\tvariant\ttotal_s\trefine_s\tno_refine_s");
    let cores_per_node = 4usize;
    for rpn in [1usize, 2, 4] {
        let ranks = rpn * 2;
        let workers = cores_per_node / rpn;
        let mesh = amr_bench::mesh_for((4, 2, 2), 8, 8, 1, ranks);
        for (variant, name) in [
            (Variant::ForkJoin, "forkjoin"),
            (Variant::DataFlow, "dataflow"),
        ] {
            let mut cfg = Config::new(mesh.clone());
            cfg.objects = single_sphere(6);
            cfg.num_tsteps = 6;
            cfg.stages_per_ts = 6;
            cfg.checksum_freq = 6;
            cfg.refine_freq = 3;
            cfg.workers = workers;
            cfg.variant = variant;
            if variant == Variant::DataFlow {
                cfg.send_faces = true;
                cfg.separate_buffers = true;
                cfg.max_comm_tasks = 8;
            }
            let net = NetworkModel::new(std::time::Duration::from_micros(30), 2.0e9)
                .with_ranks_per_node(rpn)
                .with_intra_node_factor(0.2);
            let stats = miniamr::run_world(&cfg, ranks, net);
            let total = stats
                .iter()
                .map(|s| s.times.total)
                .max()
                .unwrap_or_default();
            let refine = stats
                .iter()
                .map(|s| s.times.refine)
                .max()
                .unwrap_or_default();
            println!(
                "{rpn}\t{name}\t{:.3}\t{:.3}\t{:.3}",
                total.as_secs_f64(),
                refine.as_secs_f64(),
                (total - refine).as_secs_f64()
            );
        }
    }
}
