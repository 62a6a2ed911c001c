//! Table II: non-refinement time versus communication tasks per neighbor
//! and direction (`--max_comm_tasks`), 64 nodes, four spheres.
//!
//! Paper values (s): 1 → 612.5, 2 → 600.0, 4 → 594.9, 8 → 595.5,
//! 16 → 597.8, all → 627.5 — a shallow U-shape whose best range is 4–16.
//! Too few messages give coarse dependency granularity (unpacking cannot
//! start until one huge aggregate arrives); one message per face pays
//! per-message latency and task overhead.
//!
//! The paper sweeps only the communication grain. `--real` adds the
//! compute-side companion on the threaded runtime: a *block-edge* sweep
//! at fixed total cells, which is how the task grain is varied without a
//! knob — the shared elaboration batches sub-floor work by one constant
//! (`miniamr::elaborate::GRAIN_ELEMS`), so the edge decides how many
//! items a task holds.
//!
//! Usage: `table2 [--quick] [--nodes N] [--real]`

use amr_bench::{build_workload, shape_check, HYBRID_RANKS_PER_NODE};
use miniamr::config::four_spheres;
use simnet::{CostModel, ExecModel};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let mut nodes = 64usize;
    if let Some(i) = args.iter().position(|a| a == "--nodes") {
        nodes = args[i + 1].parse().expect("node count");
    }
    let (tsteps, stages, cells, num_vars) = if quick {
        (10, 10, 8, 8)
    } else {
        (99, 40, 12, 40)
    };

    let roots = amr_bench::root_blocks_for_nodes(nodes);
    let objects = four_spheres(tsteps);
    let cost = CostModel::default();
    let ranks = HYBRID_RANKS_PER_NODE * nodes;
    let workers = amr_bench::CORES_PER_NODE / HYBRID_RANKS_PER_NODE;

    println!("# Table II: non-refinement time (s) vs comm tasks per neighbor+direction ({nodes} nodes, four spheres)");
    println!("tasks\tno_refine_s");

    let mut results = Vec::new();
    for k in [1usize, 2, 4, 8, 16, usize::MAX] {
        let w = build_workload(
            roots,
            cells,
            num_vars,
            2,
            ranks,
            HYBRID_RANKS_PER_NODE,
            objects.clone(),
            tsteps,
            stages,
            k,
        );
        let r = simnet::simulate(&w, &ExecModel::dataflow(workers), &cost);
        let label = if k == usize::MAX {
            "all".into()
        } else {
            k.to_string()
        };
        println!("{label}\t{:.3}", r.non_refine());
        results.push((k, r.non_refine()));
    }

    let t = |k: usize| results.iter().find(|(kk, _)| *kk == k).expect("swept").1;
    let best = results
        .iter()
        .min_by(|a, b| a.1.partial_cmp(&b.1).expect("finite"))
        .expect("swept");
    let label = if best.0 == usize::MAX {
        "all".into()
    } else {
        best.0.to_string()
    };
    println!("# observed optimum: {label} msgs/neighbor/dir (paper: 4..16; spread paper 5.5%, here {:.1}%)",
        (t(usize::MAX) / best.1 - 1.0) * 100.0);
    // The model reproduces both U-shape walls — the coarse-granularity
    // tail (k=1 never beats the optimum by much) and the per-message
    // overhead (one message per face is the worst). The compute-dominated
    // cost model makes the valley shallower than the measured 3-5%, so
    // only the robust wall is a hard check.
    let mut ok = true;
    ok &= shape_check("one message per face ('all') is the worst", {
        let worst = results.iter().map(|(_, t)| *t).fold(f64::MIN, f64::max);
        (t(usize::MAX) - worst).abs() < 1e-12
    });
    ok &= shape_check(
        "a bounded task count (<=16) is at least as good as unbounded",
        [1usize, 2, 4, 8, 16].iter().any(|&k| t(k) <= t(usize::MAX)),
    );
    // The paper's optimum band only holds at full problem size: the
    // rendezvous-stall wall needs real message volumes and the
    // match-queue wall needs real message counts; the --quick toy config
    // has neither.
    if !quick {
        ok &= shape_check(
            "observed optimum falls in the paper's 4..16 band",
            (4..=16).contains(&best.0),
        );
    }
    if args.iter().any(|a| a == "--real") {
        real_block_edge_sweep();
    }
    if !ok {
        std::process::exit(1);
    }
}

/// Wall-clock on the in-process runtime (2 ranks x 1 worker, instant
/// network): the same 96 x 48 x 48 cells x 4 variables cut into blocks of
/// edge `n`, unrefined, `--send_faces --separate_buffers`. Median of
/// three alternating runs per variant.
fn real_block_edge_sweep() {
    use miniamr::{Config, Variant};
    use vmpi::NetworkModel;

    const TSTEPS: usize = 2;
    println!("# Block-edge sweep (--real): 96x48x48 cells x 4 vars, 2 ranks x 1 worker, {TSTEPS} ts x 10 stages");
    println!("edge\tblocks\ttasks_per_step\titems_per_task\tmpi_s\tdataflow_s\tdf_over_mpi");
    for n in [4usize, 6, 8, 12, 16] {
        let params = amr_mesh::MeshParams {
            npx: 2,
            npy: 1,
            npz: 1,
            init_x: 96 / n / 2,
            init_y: 48 / n,
            init_z: 48 / n,
            nx: n,
            ny: n,
            nz: n,
            num_vars: 4,
            num_refine: 0,
            block_change: 1,
        };
        let run = |variant: Variant| {
            let mut cfg = Config::new(params.clone());
            cfg.variant = variant;
            cfg.num_tsteps = TSTEPS;
            cfg.stages_per_ts = 10;
            cfg.checksum_freq = 5;
            cfg.refine_freq = 1000;
            cfg.send_faces = true;
            cfg.separate_buffers = true;
            cfg.workers = 1;
            let start = std::time::Instant::now();
            let stats = miniamr::run_world(&cfg, 2, NetworkModel::instant());
            (start.elapsed().as_secs_f64(), stats)
        };
        let (mut mpi_s, mut df_s) = (Vec::new(), Vec::new());
        let mut df_stats = Vec::new();
        for _ in 0..3 {
            mpi_s.push(run(Variant::MpiOnly).0);
            let (s, stats) = run(Variant::DataFlow);
            df_s.push(s);
            df_stats = stats;
        }
        let median = |v: &mut Vec<f64>| {
            v.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
            v[v.len() / 2]
        };
        let (mpi, df) = (median(&mut mpi_s), median(&mut df_s));
        let spawned: u64 = df_stats.iter().map(|s| s.tasks_spawned).sum();
        let items: u64 = df_stats.iter().map(|s| s.task_items).sum();
        let blocks: usize = df_stats.iter().map(|s| s.final_blocks).sum();
        println!(
            "{n}\t{blocks}\t{}\t{:.2}\t{mpi:.3}\t{df:.3}\t{:.2}",
            spawned / TSTEPS as u64,
            items as f64 / spawned as f64,
            mpi / df
        );
    }
}
