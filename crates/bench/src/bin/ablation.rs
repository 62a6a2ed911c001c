//! §V-B ablation: why the data-flow variant wins.
//!
//! The paper attributes the improvement to four causes: (1) phase
//! overlap, (2) communication-task reordering, (3) lower sensitivity to
//! load imbalance, and (4) higher IPC from the immediate-successor
//! locality policy. This harness switches the first three off one at a
//! time on the performance model (the overlap and imbalance-smoothing
//! mechanisms) and exercises the scheduler policy on the real runtime.
//!
//! Usage: `ablation [--quick]`

use amr_bench::{build_workload, shape_check, HYBRID_RANKS_PER_NODE};
use miniamr::config::four_spheres;
use simnet::{CostModel, ExecModel};

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let nodes = if quick { 4 } else { 64 };
    let (tsteps, stages, cells, num_vars) = if quick {
        (10, 10, 8, 8)
    } else {
        (40, 40, 12, 40)
    };

    let roots = amr_bench::root_blocks_for_nodes(nodes);
    let cost = CostModel::default();
    let ranks = HYBRID_RANKS_PER_NODE * nodes;
    let workers = amr_bench::CORES_PER_NODE / HYBRID_RANKS_PER_NODE;
    let w = build_workload(
        roots,
        cells,
        num_vars,
        2,
        ranks,
        HYBRID_RANKS_PER_NODE,
        four_spheres(tsteps),
        tsteps,
        stages,
        8,
    );

    let full = simnet::simulate(&w, &ExecModel::dataflow(workers), &cost);
    let no_overlap = simnet::simulate(
        &w,
        &ExecModel::DataFlow {
            workers,
            overlap: false,
            smooth_imbalance: true,
        },
        &cost,
    );
    let no_smooth = simnet::simulate(
        &w,
        &ExecModel::DataFlow {
            workers,
            overlap: true,
            smooth_imbalance: false,
        },
        &cost,
    );
    let neither = simnet::simulate(
        &w,
        &ExecModel::DataFlow {
            workers,
            overlap: false,
            smooth_imbalance: false,
        },
        &cost,
    );

    println!("# Data-flow ablation ({nodes} nodes, four spheres)");
    println!("configuration\ttotal_s\tslowdown_vs_full");
    for (name, r) in [
        ("full data-flow", &full),
        ("no comm/comp overlap", &no_overlap),
        ("no imbalance smoothing", &no_smooth),
        ("neither", &neither),
    ] {
        println!("{name}\t{:.3}\t{:.2}x", r.total, r.total / full.total);
    }

    let mut ok = true;
    ok &= shape_check("overlap contributes", no_overlap.total > full.total);
    ok &= shape_check(
        "imbalance smoothing contributes",
        no_smooth.total >= full.total,
    );
    ok &= shape_check(
        "effects compose",
        neither.total >= no_overlap.total.max(no_smooth.total),
    );

    // Cause (4): the immediate-successor policy, on the real runtime.
    println!("\n# Immediate-successor scheduling (real runtime, 2 ranks x 3 workers)");
    println!("policy\twall_s\tchecksums_ok");
    let mut walls = Vec::new();
    for immediate in [true, false] {
        let mesh = amr_bench::mesh_for((4, 2, 2), 8, 8, 1, 2);
        let mut cfg = miniamr::Config::new(mesh);
        cfg.objects = four_spheres(8);
        cfg.num_tsteps = 8;
        cfg.stages_per_ts = 8;
        cfg.checksum_freq = 8;
        cfg.refine_freq = 4;
        cfg.workers = 3;
        cfg.variant = miniamr::Variant::DataFlow;
        cfg.send_faces = true;
        cfg.separate_buffers = true;
        cfg.immediate_successor = immediate;
        let net = vmpi::NetworkModel::new(std::time::Duration::from_micros(20), 4.0e9);
        let t0 = std::time::Instant::now();
        let stats = miniamr::run_world(&cfg, 2, net);
        let wall = t0.elapsed().as_secs_f64();
        let passed = stats.iter().all(|s| s.checksums_failed == 0);
        println!(
            "{}\t{wall:.3}\t{passed}",
            if immediate {
                "immediate-successor"
            } else {
                "fifo"
            }
        );
        walls.push(wall);
        ok &= passed;
    }
    // On a 2-vCPU host running 2 ranks x 3 workers the wall-clock
    // difference is noise; the check is that both policies compute
    // identical results (asserted above).

    if !ok {
        std::process::exit(1);
    }
}
