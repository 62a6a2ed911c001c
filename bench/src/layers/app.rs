//! `core` rungs: calls over the workload's real plan, the read-outs of
//! the `RunStats` the untraced rounds returned, and the two predictions
//! (ladder and `simnet`) set next to the measurement.

use super::{time_call, Shapes, Values};
use crate::e2e::Rounds;
use crate::span::Spans;
use miniamr::checkpoint::RankCheckpoint;
use miniamr::comm_plan::{CommPlan, FaceTransfer};
use miniamr::rank::{self, RankState};
use miniamr::Variant;
use std::hint::black_box;
use std::time::Duration;

pub(super) struct CoreCosts {
    local_ns: f64,
    pack_ns: f64,
    unpack_ns: f64,
    ckpt_take_s: f64,
    init_s: f64,
    plan_s: f64,
}

pub(super) fn core_rungs(
    sh: &Shapes,
    spans: &mut Spans,
    rung: Duration,
    out: &mut Values,
) -> CoreCosts {
    let cfg = &sh.mesh_cfg;
    let n_ranks = sh.state.n_ranks;
    let (l, nv) = (&sh.layout, sh.nv);

    let init_s = spans.record("core.rank_init", |_| {
        time_call(rung, || {
            black_box(RankState::init(cfg, 0, n_ranks).blocks.len());
        })
    });
    out.push(("core.rank_init_ms", init_s * 1e3));
    let plan_s = spans.record("core.comm_plan_build", |_| {
        time_call(rung, || {
            black_box(CommPlan::build(cfg, &sh.state.dir, n_ranks).msgs.len());
        })
    });
    out.push(("core.comm_plan_build_ms", plan_s * 1e3));

    // Sweeps over rank 0's share of the real plan; cost per element moved.
    let elems = |ts: &[&FaceTransfer]| -> f64 {
        ts.iter()
            .map(|t| rank::transfer_payload_elems(t, nv) as f64)
            .sum()
    };
    let mut sweep = |name: &str, ts: Vec<&FaceTransfer>, f: &mut dyn FnMut(&FaceTransfer)| {
        if ts.is_empty() {
            return 0.0;
        }
        let total = elems(&ts);
        spans.record(name, |_| {
            let (s, n) = time_call(rung, || ts.iter().for_each(|t| f(t)));
            (s * 1e9 / total, n * ts.len() as u64)
        })
    };
    let state = &sh.state;
    let locals: Vec<&FaceTransfer> = sh.plan.locals.iter().filter(|t| t.src_rank == 0).collect();
    let local_ns = sweep("core.apply_local_transfer", locals, &mut |t| {
        rank::apply_local_transfer(
            l,
            state.block(&t.src_block),
            state.block(&t.dst_block),
            t,
            0..nv,
            &state.pool,
        )
    });
    out.push(("core.local_transfer_ns_per_elem", local_ns));
    let largest = |ts: &[&FaceTransfer]| {
        ts.iter()
            .map(|t| rank::transfer_payload_elems(t, nv))
            .max()
            .unwrap_or(0)
    };
    let outbound: Vec<&FaceTransfer> = sh.plan.outbound(0).flat_map(|m| &m.transfers).collect();
    let mut scratch = vec![0.0; largest(&outbound)];
    let pack_ns = sweep("core.pack_transfer_into", outbound, &mut |t| {
        let n = rank::transfer_payload_elems(t, nv);
        rank::pack_transfer_into(l, state.block(&t.src_block), t, 0..nv, &mut scratch[..n])
    });
    out.push(("core.pack_ns_per_elem", pack_ns));
    let inbound: Vec<&FaceTransfer> = sh.plan.inbound(0).flat_map(|m| &m.transfers).collect();
    let payload = vec![1.0; largest(&inbound)];
    let unpack_ns = sweep("core.unpack_transfer", inbound, &mut |t| {
        let n = rank::transfer_payload_elems(t, nv);
        rank::unpack_transfer(l, state.block(&t.dst_block), t, 0..nv, &payload[..n])
    });
    out.push(("core.unpack_ns_per_elem", unpack_ns));

    let ckpt_take_s = spans.record("core.checkpoint_take", |_| {
        time_call(rung, || {
            black_box(RankCheckpoint::take(state, 0, 0, 0).digest);
        })
    });
    out.push(("core.checkpoint_take_ms", ckpt_take_s * 1e3));
    let ck = RankCheckpoint::take(state, 0, 0, 0);
    let s = spans.record("core.checkpoint_restore", |_| {
        time_call(rung, || {
            black_box(ck.restore().blocks.len());
        })
    });
    out.push(("core.checkpoint_restore_ms", s * 1e3));
    out.push(("core.checkpoint_mb", ck.bytes() as f64 / 1e6));
    CoreCosts {
        local_ns,
        pack_ns,
        unpack_ns,
        ckpt_take_s,
        init_s,
        plan_s,
    }
}

fn value(out: &Values, name: &str) -> f64 {
    out.iter()
        .find(|(n, _)| *n == name)
        .map_or(f64::NAN, |(_, v)| *v)
}

/// Read-outs of the returned `RunStats` and the paired ratios, from the
/// untraced rounds.
pub(super) fn runstats_rungs(sh: &Shapes, rounds: &Rounds, out: &mut Values) {
    let cfg = &sh.sc.cfg;
    let mpi = |field: &str| rounds.median_of(Variant::MpiOnly, field);
    let total = mpi("t_total_s");
    for (name, field) in [
        ("core.phase_share.comm", "t_comm_s"),
        ("core.phase_share.stencil", "t_stencil_s"),
        ("core.phase_share.checksum", "t_checksum_s"),
        ("core.phase_share.refine", "t_refine_s"),
    ] {
        out.push((name, mpi(field) / total));
    }
    let ts = cfg.num_tsteps as f64;
    let regrids = 1.0 + (cfg.num_tsteps / cfg.refine_freq) as f64;
    out.push((
        "core.refine_ms_per_regrid",
        mpi("t_refine_s") * 1e3 / regrids,
    ));
    out.push((
        "core.pool_hit_rate",
        mpi("pool_hits") / (mpi("pool_hits") + mpi("pool_misses")),
    ));
    out.push((
        "core.tasks_per_step",
        rounds.median_of(Variant::DataFlow, "tasks_spawned") / ts,
    ));
    out.push(("core.msgs_per_step", mpi("msgs_sent") / ts));
    out.push(("core.elems_per_msg", mpi("elems_sent") / mpi("msgs_sent")));
    out.push(("core.blocks_final", mpi("final_blocks")));
    out.push(("core.blocks_moved", mpi("blocks_moved")));
    let ratio = |v| rounds.paired_ratio(v, "wall_s").unwrap_or(f64::NAN);
    out.push(("core.df_over_mpi", ratio(Variant::DataFlow)));
    out.push(("core.fj_over_mpi", ratio(Variant::ForkJoin)));
}

/// Σ unit cost × count over the rungs above, for the slowest-rank view of
/// an MPI-only run. Rank 0's share of the plan stands for either rank.
pub(super) fn ladder_prediction(
    sh: &Shapes,
    core: &CoreCosts,
    out: &Values,
    rounds: &Rounds,
) -> f64 {
    let cfg = &sh.sc.cfg;
    let nv = sh.nv as f64;
    let v = |name: &str| value(out, name);
    let per_elem = |ts: Vec<&FaceTransfer>| -> f64 {
        ts.iter()
            .map(|t| rank::transfer_payload_elems(t, sh.nv) as f64)
            .sum()
    };
    let blocks = sh.blocks.len() as f64;
    let cell_vars = sh.layout.cells() as f64 * nv;
    let msgs_in = sh.plan.inbound(0).count() as f64;
    // MPI-only waits for its inbound bytes each stage: on the modelled
    // fabric they serialise through the NIC (zero on an instant network).
    let inbound_bytes: usize = sh
        .plan
        .inbound(0)
        .map(|m| m.elems_per_var * sh.nv * 8)
        .sum();
    let transit = sh.sc.net.delay(inbound_bytes, 0, 1).as_secs_f64();
    let stage = transit
        + blocks * cell_vars * v("mesh.stencil_ns_per_cell") * 1e-9
        + per_elem(sh.plan.locals.iter().filter(|t| t.src_rank == 0).collect())
            * core.local_ns
            * 1e-9
        + per_elem(sh.plan.outbound(0).flat_map(|m| &m.transfers).collect()) * core.pack_ns * 1e-9
        + per_elem(sh.plan.inbound(0).flat_map(|m| &m.transfers).collect()) * core.unpack_ns * 1e-9
        + msgs_in * v("vmpi.msg_us.face") * 1e-6;
    let stages = (cfg.num_tsteps * cfg.stages_per_ts) as f64;
    let checksum =
        blocks * cell_vars * v("mesh.checksum_ns_per_cell") * 1e-9 + v("vmpi.allreduce_us") * 1e-6;
    let checksums = (stages / cfg.checksum_freq as f64).floor();
    let ckpts = if cfg.ckpt_freq == 0 {
        0.0
    } else {
        (stages / cfg.ckpt_freq as f64).floor()
    };
    // A regrid: plan, partition, rebuild the comm plan, and move blocks;
    // a moved block is charged a split's worth of copying plus its bytes
    // at the measured transfer rate.
    let regrids = (cfg.num_tsteps / cfg.refine_freq) as f64;
    let moved_per_rank =
        rounds.median_of(Variant::MpiOnly, "blocks_moved") / sh.state.n_ranks as f64;
    let block_bytes = sh.layout.elems() as f64 * 8.0;
    let move_cost =
        v("mesh.split_us_per_block") * 1e-6 / 8.0 + block_bytes / (v("vmpi.bw_gbs.1MB") * 1e9);
    let regrid = (v("mesh.plan_refinement_us") + v("mesh.partition_us")) * 1e-6 + core.plan_s;
    core.init_s
        + core.plan_s
        + stages * stage
        + checksums * checksum
        + ckpts * core.ckpt_take_s
        + regrids * regrid
        + moved_per_rank * move_cost
}

pub(super) fn simnet_prediction(sh: &Shapes, model: simnet::ExecModel) -> f64 {
    let cfg = &sh.sc.cfg;
    let mut cost = simnet::CostModel::default();
    match &sh.sc.fabric {
        Some(fab) => cost.fabric = fab.clone(),
        None => {
            // The instant network: no latency, no NIC, unbounded links.
            cost.fabric.latency = 0.0;
            cost.fabric.nic_msg_overhead = 0.0;
            cost.fabric.rendezvous_rtt = 0.0;
            cost.fabric.bandwidth = 1e18;
            cost.fabric.eager_threshold = usize::MAX;
            cost.fabric.ranks_per_node = cfg.ranks_per_node;
        }
    }
    let w = simnet::Workload::generate(&simnet::WorkloadParams {
        mesh: cfg.params.clone(),
        objects: cfg.objects.clone(),
        num_tsteps: cfg.num_tsteps,
        stages_per_ts: cfg.stages_per_ts,
        checksum_freq: cfg.checksum_freq,
        refine_freq: cfg.refine_freq,
        msgs_per_pair_dir: match (cfg.send_faces, cfg.max_comm_tasks) {
            (false, _) => 0,
            (true, 0) => usize::MAX,
            (true, k) => k,
        },
        ranks_per_node: cfg.ranks_per_node,
        coll_hier: cfg.coll == vmpi::CollAlgo::Hier,
        coalesce: cfg.coalesce,
        eager_bytes: cfg.eager_bytes,
    });
    simnet::simulate(&w, &model, &cost).total
}
