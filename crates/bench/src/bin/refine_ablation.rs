//! §IV-B decomposition: what the refinement taskification buys.
//!
//! The paper reports that split/coarsen copies take ≈25% and the block
//! exchange ≈70% of the (sequential) refinement time, and that the
//! taskification removes ≈80% of it. This harness reproduces the
//! decomposition on the performance model (64 nodes, four spheres) and —
//! with `--real` — measures the refinement share of wall time on the
//! threaded runtime, followed by a regrid-interval sweep of the replay
//! cache (how much of a run re-arms recorded tasks, and what that buys,
//! as the mesh epochs get longer).
//!
//! Usage: `refine_ablation [--quick] [--real]`

use amr_bench::{build_workload, shape_check, HYBRID_RANKS_PER_NODE};
use miniamr::config::four_spheres;
use simnet::{CostModel, ExecModel};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let real = args.iter().any(|a| a == "--real");
    let nodes = if quick { 4 } else { 64 };
    let (tsteps, stages, cells, num_vars) = if quick {
        (10, 10, 8, 8)
    } else {
        (40, 40, 12, 40)
    };

    let roots = amr_bench::root_blocks_for_nodes(nodes);
    let objects = four_spheres(tsteps);
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
        objects,
        tsteps,
        stages,
        8,
    );

    // Sequential refinement = the fork-join model with one worker for the
    // refinement jobs (the paper's pre-taskification hybrid).
    let seq = simnet::simulate(&w, &ExecModel::ForkJoin { workers: 1 }, &cost);
    let fj = simnet::simulate(&w, &ExecModel::ForkJoin { workers }, &cost);
    let df = simnet::simulate(&w, &ExecModel::dataflow(workers), &cost);

    // The replicated-directory decision scan is common to every variant
    // of this implementation (DESIGN.md §2.1) and outside the scope of the
    // paper's "80% removed" claim, which concerns the split/coarsen
    // copies (~25%) and the block exchange (~70%). Isolate the
    // taskifiable portion by zeroing the control cost.
    let mut no_ctrl = cost.clone();
    no_ctrl.refine_ctrl_per_block = 0.0;
    let seq_task = simnet::simulate(&w, &ExecModel::ForkJoin { workers: 1 }, &no_ctrl);
    let df_task = simnet::simulate(&w, &ExecModel::dataflow(workers), &no_ctrl);

    println!("# Refinement taskification ({nodes} nodes, four spheres)");
    println!("variant\trefine_s\trefine_share\ttaskifiable_s");
    for (name, r, t) in [
        ("sequential", &seq, &seq_task),
        ("forkjoin", &fj, &fj),
        ("dataflow", &df, &df_task),
    ] {
        println!(
            "{name}\t{:.3}\t{:.1}%\t{:.3}",
            r.refine,
            100.0 * r.refine / r.total,
            t.refine
        );
    }
    let removed = 1.0 - df_task.refine / seq_task.refine;
    println!(
        "dataflow_removes\t{:.0}% of the taskifiable (copies + exchange) refinement time",
        removed * 100.0
    );

    let mut ok = true;
    ok &= shape_check(
        "taskified refinement is fastest",
        df.refine < fj.refine && df.refine < seq.refine,
    );
    ok &= shape_check(
        "taskification removes a large share of the copies+exchange time (>=40%)",
        removed >= 0.4,
    );
    ok &= shape_check(
        "refinement stays a minor share of the data-flow total (<20%)",
        df.refine / df.total < 0.2,
    );

    if real {
        real_mode();
        replay_sweep();
    }
    if !ok {
        std::process::exit(1);
    }
}

/// Wall-clock refinement share on the threaded runtime.
fn real_mode() {
    use miniamr::{Config, Variant};
    use vmpi::NetworkModel;

    println!("# --real: wall-clock refinement share (2 ranks x 3 workers)");
    println!("variant\ttotal_s\trefine_s\tshare");
    for (variant, name) in [
        (Variant::MpiOnly, "mpi"),
        (Variant::ForkJoin, "forkjoin"),
        (Variant::DataFlow, "dataflow"),
    ] {
        let mesh = amr_bench::mesh_for((4, 2, 2), 8, 8, 1, 2);
        let mut cfg = Config::new(mesh);
        cfg.objects = four_spheres(8);
        cfg.num_tsteps = 8;
        cfg.stages_per_ts = 8;
        cfg.checksum_freq = 8;
        cfg.refine_freq = 2;
        cfg.workers = 3;
        cfg.variant = variant;
        if variant == Variant::DataFlow {
            cfg.send_faces = true;
            cfg.separate_buffers = true;
            cfg.max_comm_tasks = 8;
        }
        let net = NetworkModel::new(std::time::Duration::from_micros(30), 2.0e9);
        let stats = miniamr::run_world(&cfg, 2, net);
        let total = stats
            .iter()
            .map(|s| s.times.total.as_secs_f64())
            .fold(0.0, f64::max);
        let refine = stats
            .iter()
            .map(|s| s.times.refine.as_secs_f64())
            .fold(0.0, f64::max);
        println!(
            "{name}\t{total:.3}\t{refine:.3}\t{:.1}%",
            100.0 * refine / total
        );
    }
}

/// Regrid interval × replay on/off on the `tasks_fine`-shaped mesh (4³
/// cells × 4 variables, two levels, one message per face, 2 ranks × 1
/// worker, instant network): the share of tasks the cache re-armed and
/// the wall time of the slowest rank, median of five runs, on and off
/// alternating.
fn replay_sweep() {
    use miniamr::{Config, Variant};
    use vmpi::NetworkModel;

    const TSTEPS: usize = 16;
    const ROUNDS: usize = 5;
    println!("# --real: regrid interval x replay ({TSTEPS} timesteps, 2 ranks x 1 worker)");
    println!("refine_freq\treplay\ttasks\treplayed_share\ttrace_hits\ttotal_s");
    for refine_freq in [1, 2, 4, 8, 1000] {
        let run = |replay: bool| {
            let mut cfg = Config::new(amr_bench::mesh_for((4, 4, 4), 4, 4, 2, 2));
            cfg.objects = four_spheres(TSTEPS);
            cfg.variant = Variant::DataFlow;
            cfg.num_tsteps = TSTEPS;
            cfg.stages_per_ts = 10;
            cfg.checksum_freq = 5;
            cfg.refine_freq = refine_freq;
            cfg.workers = 1;
            cfg.send_faces = true;
            cfg.separate_buffers = true;
            cfg.replay = replay;
            let stats = miniamr::run_world(&cfg, 2, NetworkModel::instant());
            let sum = |f: fn(&miniamr::RunStats) -> u64| stats.iter().map(f).sum::<u64>();
            let total = stats.iter().map(|s| s.times.total.as_secs_f64());
            (
                total.fold(0.0, f64::max),
                sum(|s| s.tasks_spawned),
                sum(|s| s.tasks_replayed),
                sum(|s| s.trace_hits),
            )
        };
        let mut runs = [Vec::new(), Vec::new()];
        for _ in 0..ROUNDS {
            runs[0].push(run(true));
            runs[1].push(run(false));
        }
        let every = match refine_freq {
            1000 => "never".to_string(),
            n => n.to_string(),
        };
        for (side, replay) in runs.iter_mut().zip(["on", "off"]) {
            side.sort_by(|a, b| a.0.total_cmp(&b.0));
            let (total, tasks, replayed, hits) = side[ROUNDS / 2];
            println!(
                "{every}\t{replay}\t{tasks}\t{:.1}%\t{hits}\t{total:.3}",
                100.0 * replayed as f64 / tasks as f64,
            );
        }
    }
}
