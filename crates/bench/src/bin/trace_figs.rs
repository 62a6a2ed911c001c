//! Figures 1–3: execution trace analysis of MPI-only versus data-flow on
//! two (simulated) nodes — **real execution** on the in-process runtime,
//! with the `obs` event bus standing in for Extrae/Paraver.
//!
//! Reported per variant, from one drained [`obs::span::SpanGraph`] —
//! tasks under their labels, main-thread phase spans under their kinds:
//! * per-kind busy time on the first rank (the palette of Figs. 1 and 3),
//! * non-refinement wall time and the data-flow speedup over MPI-only
//!   (the paper observes ≈1.3× on this small input),
//! * per rank, the fraction of busy time with ≥2 different kinds running
//!   simultaneously (the overlap that Fig. 3 visualizes; near zero for
//!   MPI-only, substantial for data-flow),
//! * per rank, the largest idle gap (the paper bounds the data-flow gaps
//!   at ~3 ms),
//! * the events collected and the events the rings dropped (0 for a
//!   whole timeline).
//!
//! Paper setup scaled to this container: the four-spheres problem, 9
//! timesteps × 20 stages, 12³-cell blocks, 20 variables, refinement every
//! 5 timesteps, checksum every 10 stages. `--trace-json PATH` writes both
//! runs as one Chrome trace (MPI-only ranks first, then the data-flow
//! ranks numbered after them) for Perfetto or `about:tracing`.
//!
//! Usage: `trace_figs [--quick] [--trace-json PATH]`

use miniamr::{Config, RunStats, Variant};
use obs::span::SpanGraph;
use obs::Event;
use std::collections::BTreeMap;
use vmpi::NetworkModel;

/// Per-stripe event-ring capacity: with the collector draining every
/// 2 ms, a full run drops nothing.
const OBS_RING: usize = 1 << 20;

/// One run of `cfg` on `n_ranks` with the event bus collected: the
/// ranks' stats, the events, and how many the rings dropped.
fn observed_run(
    cfg: &Config,
    n_ranks: usize,
    net: NetworkModel,
) -> (Vec<RunStats>, Vec<Event>, u64) {
    let bus = obs::enable_with_capacity(OBS_RING);
    let collector = obs::report::Collector::start(bus, None, 1);
    let stats = miniamr::run_world(cfg, n_ranks, net);
    let (events, dropped) = collector.finish();
    (stats, events, dropped)
}

/// Prints one variant's section; returns its non-refinement time and
/// its largest per-rank overlap.
fn report(name: &str, stats: &[RunStats], events: &[Event], dropped: u64) -> (f64, f64) {
    println!("\n## {name}");
    println!("events\t{}\tdropped_events\t{dropped}", events.len());
    let max = |f: fn(&RunStats) -> f64| stats.iter().map(f).fold(0.0, f64::max);
    let total = max(|s| s.times.total.as_secs_f64());
    let refine = max(|s| s.times.refine.as_secs_f64());
    println!(
        "total_s\t{total:.3}\trefine_s\t{refine:.3}\tno_refine_s\t{:.3}",
        total - refine
    );
    let graph = SpanGraph::build(events);
    let busy = graph.busy_intervals();
    if let Some(first) = busy.keys().min() {
        let mut per_kind: BTreeMap<&str, u64> = BTreeMap::new();
        for &(kind, start, end) in &busy[first] {
            *per_kind.entry(kind).or_default() += end - start;
        }
        println!("kind\tbusy_ms (rank {first})");
        for (kind, us) in per_kind {
            println!("{kind}\t{:.2}", us as f64 / 1e3);
        }
    }
    println!("rank\toverlap_fraction\tlargest_gap_ms");
    let ranks = graph.rank_stats();
    for r in &ranks {
        println!(
            "{}\t{:.3}\t{:.2}",
            r.rank,
            r.overlap_fraction,
            r.largest_gap_us as f64 / 1e3
        );
    }
    let overlap = ranks.iter().map(|r| r.overlap_fraction).fold(0.0, f64::max);
    (total - refine, overlap)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let trace_json = args
        .iter()
        .position(|a| a == "--trace-json")
        .map(|i| args.get(i + 1).expect("--trace-json needs a path").clone());

    // Two "nodes" of 4 cores each on this container; the paper used two
    // 48-core nodes.
    let cores_per_node = 4usize;
    let nodes = 2usize;
    let (tsteps, stages, cells, num_vars) = if quick { (4, 6, 8, 4) } else { (9, 20, 12, 20) };

    let net = || {
        NetworkModel::new(std::time::Duration::from_micros(50), 2.0e9).with_intra_node_factor(0.2)
    };

    println!("# Figures 1-3: trace analysis on {nodes} nodes x {cores_per_node} cores");

    // MPI-only: one rank per core.
    let mpi_ranks = nodes * cores_per_node;
    let mesh = amr_bench::mesh_for((4, 2, 2), cells, num_vars, 1, mpi_ranks);
    let mut cfg = Config::new(mesh);
    cfg.objects = miniamr::config::four_spheres(tsteps);
    cfg.num_tsteps = tsteps;
    cfg.stages_per_ts = stages;
    cfg.checksum_freq = 10;
    cfg.refine_freq = 5;
    cfg.variant = Variant::MpiOnly;
    let (mpi_stats, mpi_events, mpi_dropped) =
        observed_run(&cfg, mpi_ranks, net().with_ranks_per_node(cores_per_node));

    // Data-flow: one rank per node, cores-1 workers (one core drives the
    // main thread).
    let df_ranks = nodes;
    let mesh = amr_bench::mesh_for((4, 2, 2), cells, num_vars, 1, df_ranks);
    let mut cfg_df = Config::new(mesh);
    cfg_df.objects = miniamr::config::four_spheres(tsteps);
    cfg_df.num_tsteps = tsteps;
    cfg_df.stages_per_ts = stages;
    cfg_df.checksum_freq = 10;
    cfg_df.refine_freq = 5;
    cfg_df.variant = Variant::DataFlow;
    cfg_df.workers = cores_per_node;
    cfg_df.send_faces = true;
    cfg_df.separate_buffers = true;
    cfg_df.max_comm_tasks = 8;
    cfg_df.delayed_checksum = true;
    let (df_stats, mut df_events, df_dropped) =
        observed_run(&cfg_df, df_ranks, net().with_ranks_per_node(1));

    let (mpi_nr, _mpi_ov) = report(
        "MPI-only (Figs. 1 upper, 2)",
        &mpi_stats,
        &mpi_events,
        mpi_dropped,
    );
    let (df_nr, df_ov) = report(
        "Data-flow (Figs. 1 lower, 3)",
        &df_stats,
        &df_events,
        df_dropped,
    );

    println!("\n## Comparison");
    println!("non_refine_speedup_dataflow_vs_mpi\t{:.2}", mpi_nr / df_nr);
    let mut ok = true;
    ok &= amr_bench::shape_check(
        "data-flow overlaps phases (overlap fraction > 0.15)",
        df_ov > 0.15,
    );
    ok &= amr_bench::shape_check(
        "checksums pass in both variants",
        mpi_stats.iter().all(|s| s.checksums_failed == 0)
            && df_stats.iter().all(|s| s.checksums_failed == 0),
    );

    if let Some(path) = trace_json {
        // One timeline: the data-flow ranks follow the MPI-only ones (the
        // second run's events already follow the first's in sequence).
        for ev in &mut df_events {
            if ev.rank != obs::UNKNOWN_RANK {
                ev.rank += mpi_ranks as u32;
            }
        }
        let mut events = mpi_events;
        events.append(&mut df_events);
        std::fs::write(&path, obs::export_chrome(&events)).expect("write the Chrome trace");
        println!("wrote {path}");
    }
    if !ok {
        std::process::exit(1);
    }
}
