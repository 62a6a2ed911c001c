//! The traced layers pass: one rung per layer, each timing calls into a
//! crate's public functions with the workload's own shapes (block size,
//! variables, blocks per rank, median message size, tasks per stage),
//! then the whole-run rungs that need child processes.
//!
//! Every rung runs inside a span (`<layer>.<rung>` under `layer.<layer>`
//! under `layers.<workload>`), so the written trace shows where the pass
//! itself spent its time, and self time separates a rung's measurement
//! from the input building around it.

mod app;
mod kernels;
mod messages;
mod tasks;

use app::{core_rungs, ladder_prediction, runstats_rungs, simnet_prediction};
use kernels::{mesh_rungs, shmem_rungs};
use messages::{tampi_rungs, vmpi_rungs};
use tasks::taskrt_rungs;

use crate::child::ChildSpec;
use crate::e2e::{run_child, sample_rounds, Budget, Ops, Rounds};
use crate::json::Json;
use crate::span::Spans;
use crate::stats::median;
use crate::workloads::{Scenario, Shape, Workload};
use amr_mesh::block_id::Dir;
use amr_mesh::data::{BlockData, BlockLayout};
use miniamr::comm_plan::CommPlan;
use miniamr::rank::RankState;
use miniamr::{Config, Variant};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// How much the pass spends.
#[derive(Clone, Copy)]
pub struct Effort {
    /// Measuring time per micro rung.
    pub rung: Duration,
    /// 1-rank runs behind `core.par_eff.mpi`.
    pub serial_runs: usize,
    /// In-process reruns behind `core.rss_growth_mb_per_rerun.dataflow`.
    pub reruns: usize,
    /// Shape of every child run (`--smoke` shortens them).
    pub shape: Shape,
}

/// The measured values, in rung order.
pub type Values = Vec<(&'static str, f64)>;

// ---------------------------------------------------------------------------
// Timing helpers.

/// Median seconds per operation. `batch(k)` performs `k` operations and
/// returns the time to count for them; batches are sized to at least
/// half a millisecond and repeated until `budget` is spent.
fn time_batched(budget: Duration, mut batch: impl FnMut(u64) -> Duration) -> (f64, u64) {
    let start = Instant::now();
    let mut k = 1u64;
    // Doubling doubles as cache warm-up; the first batch that is long
    // enough is the first sample, so a call slower than the whole budget
    // is still measured once.
    let mut first = batch(k);
    while first < Duration::from_micros(500) && k < 1 << 24 {
        k *= 2;
        first = batch(k);
    }
    let mut per_op = vec![first.as_secs_f64() / k as f64];
    while start.elapsed() < budget {
        per_op.push(batch(k).as_secs_f64() / k as f64);
    }
    (median(&per_op), k * per_op.len() as u64)
}

/// Median seconds per call of `f`.
fn time_call(budget: Duration, mut f: impl FnMut()) -> (f64, u64) {
    time_batched(budget, |k| {
        let start = Instant::now();
        for _ in 0..k {
            f();
        }
        start.elapsed()
    })
}

/// Runs `f` inside a span counted by the number of samples it returns.
fn sampled(spans: &mut Spans, name: &str, f: impl FnOnce() -> Vec<f64>) -> Vec<f64> {
    spans.record(name, |_| {
        let samples = f();
        let n = samples.len() as u64;
        (samples, n)
    })
}

// ---------------------------------------------------------------------------
// The workload's own shapes.

struct Shapes {
    sc: Scenario,
    /// The scenario's config with the objects where they are mid-run when
    /// the workload regrids, so the mesh below is a representative one.
    mesh_cfg: Config,
    /// Rank 0's state on that mesh.
    state: RankState,
    plan: CommPlan,
    layout: BlockLayout,
    blocks: Vec<BlockData>,
    nv: usize,
    /// Median elements of a cross-rank message.
    msg_elems: usize,
    stages_per_ts: usize,
}

fn shapes(wl: &Workload, seed: u64, shape: Shape) -> Shapes {
    let sc = wl.scenario(Variant::MpiOnly, seed, shape);
    let mut mesh_cfg = sc.cfg.clone();
    if mesh_cfg.refine_freq <= mesh_cfg.num_tsteps {
        for _ in 0..mesh_cfg.num_tsteps / 2 {
            mesh_cfg.objects.iter_mut().for_each(amr_mesh::Object::step);
        }
    }
    let n_ranks = mesh_cfg.params.num_ranks();
    let state = RankState::init(&mesh_cfg, 0, n_ranks);
    let plan = CommPlan::build(&mesh_cfg, &state.dir, n_ranks);
    let nv = mesh_cfg.params.num_vars;
    let mut sizes: Vec<f64> = plan
        .msgs
        .iter()
        .map(|m| (m.elems_per_var * nv) as f64)
        .collect();
    if sizes.is_empty() {
        sizes.push((state.layout.face_cells(Dir::X) * nv) as f64);
    }
    Shapes {
        layout: state.layout,
        blocks: state.local_blocks(),
        nv,
        msg_elems: median(&sizes) as usize,
        stages_per_ts: mesh_cfg.stages_per_ts,
        plan,
        state,
        mesh_cfg,
        sc,
    }
}

/// Last-level cache size in bytes, when the kernel exposes it.
pub fn llc_bytes() -> Option<u64> {
    (0..8)
        .rev()
        .filter_map(|i| {
            let s = std::fs::read_to_string(format!(
                "/sys/devices/system/cpu/cpu0/cache/index{i}/size"
            ))
            .ok()?;
            let s = s.trim();
            let (num, mult) = match s.as_bytes().last()? {
                b'K' => (&s[..s.len() - 1], 1 << 10),
                b'M' => (&s[..s.len() - 1], 1 << 20),
                _ => (s, 1),
            };
            num.parse::<u64>().ok().map(|n| n * mult)
        })
        .next()
}

/// The layers pass of one workload. `rounds` are untraced end-to-end
/// samples of the same workload and seed: the full run hands over its
/// end-to-end pass; the traced contract run passes `None` and one round
/// is taken here, after the micro rungs have warmed the machine up.
pub fn run(
    wl: &Workload,
    seed: u64,
    effort: Effort,
    rounds: Option<&Rounds>,
    spans: &mut Spans,
) -> (Values, Ops) {
    let mut out = Values::new();
    let mut ops = Ops::default();
    let root = format!("layers.{}", wl.name);
    spans.scope(&root, |spans| {
        let sh = spans.scope("layers.shapes", |_| shapes(wl, seed, effort.shape));
        let rung = effort.rung;
        spans.scope("layer.mesh", |s| mesh_rungs(&sh, s, rung, &mut out));
        spans.scope("layer.shmem", |s| shmem_rungs(&sh, s, rung, &mut out));
        spans.scope("layer.taskrt", |s| taskrt_rungs(&sh, s, rung, &mut out));
        let msg_us = spans.scope("layer.vmpi", |s| vmpi_rungs(&sh, s, rung, &mut out));
        spans.scope("layer.tampi", |s| {
            tampi_rungs(&sh, msg_us, s, rung, &mut out)
        });
        let core = spans.scope("layer.core", |s| core_rungs(&sh, s, rung, &mut out));

        let own_rounds;
        let rounds = match rounds {
            Some(rounds) => rounds,
            None => {
                own_rounds = spans.scope("layer.core.rounds", |s| {
                    sample_rounds(wl.name, seed, effort.shape, 0, Budget::Rounds(1), Some(s))
                });
                ops.absorb(own_rounds.ops.clone());
                &own_rounds
            }
        };
        runstats_rungs(&sh, rounds, &mut out);

        let run_mpi = rounds.median_of(Variant::MpiOnly, "wall_s");
        let run_df = rounds.median_of(Variant::DataFlow, "wall_s");

        // Children of the traced pass: each is one operation, checked
        // against the same MPI-only digest as the end-to-end samples.
        let mut child = |spans: &mut Spans, name: &str, spec: ChildSpec| -> Option<Json> {
            ops.attempted += 1;
            let result = spans.record(name, |_| (run_child(&spec), 1));
            let failure = match &result {
                Err(why) => Some(why.clone()),
                Ok(line) if line.num("checksums_failed") > 0.0 => {
                    Some(format!("{name}: checksums failed"))
                }
                Ok(line) => {
                    let digest = line.get("digest").and_then(Json::as_str);
                    (digest != rounds.reference_digest.as_deref())
                        .then(|| format!("{name}: digest differs from the mpi digest"))
                }
            };
            match failure {
                Some(why) => {
                    ops.failed += 1;
                    ops.failures.push(why);
                    None
                }
                None => result.ok(),
            }
        };

        spans.scope("layer.core.runs", |spans| {
            let mut serial = Vec::new();
            for _ in 0..effort.serial_runs {
                let mut spec = ChildSpec::new(wl.name, Variant::MpiOnly, seed);
                spec.shape = Shape {
                    serial: true,
                    ..effort.shape
                };
                if let Some(line) = child(spans, "e2e.run.mpi.serial", spec) {
                    serial.push(line.num("wall_s"));
                }
            }
            let eff = if serial.is_empty() {
                f64::NAN
            } else {
                median(&serial) / (2.0 * run_mpi)
            };
            out.push(("core.par_eff.mpi", eff));

            let mut spec = ChildSpec::new(wl.name, Variant::DataFlow, seed);
            spec.shape = effort.shape;
            spec.runs = effort.reruns;
            let growth = child(spans, "e2e.rerun.dataflow", spec).map_or(f64::NAN, |line| {
                let rss: Vec<f64> = line
                    .get("rerun_rss_kb")
                    .map_or(&[][..], Json::as_arr)
                    .iter()
                    .filter_map(Json::as_f64)
                    .collect();
                let steps: Vec<f64> = rss.windows(2).map(|w| (w[1] - w[0]) / 1024.0).collect();
                if steps.is_empty() {
                    f64::NAN
                } else {
                    median(&steps)
                }
            });
            out.push(("core.rss_growth_mb_per_rerun.dataflow", growth));
        });
        let predicted = ladder_prediction(&sh, &core, &out, rounds);
        out.push(("core.ladder_pred_over_meas.mpi", predicted / run_mpi));

        spans.scope("layer.obs", |spans| {
            let mut spec = ChildSpec::new(wl.name, Variant::DataFlow, seed);
            spec.shape = effort.shape;
            spec.obs = true;
            let line = child(spans, "e2e.run.dataflow.traced", spec);
            let get = |field: &str| line.as_ref().map_or(f64::NAN, |l| l.num(field));
            out.push(("obs.overhead_ratio.dataflow", get("wall_s") / run_df));
            out.push((
                "obs.events_per_task",
                get("obs_events") / get("tasks_spawned"),
            ));
            out.push(("obs.dropped_events", get("obs_dropped")));
            out.push(("obs.report_build_ms", get("obs_report_build_s") * 1e3));
            for (name, field) in [
                ("obs.crit_share.compute", "crit_compute"),
                ("obs.crit_share.pack", "crit_pack"),
                ("obs.crit_share.transit", "crit_transit"),
                ("obs.crit_share.wait", "crit_wait"),
                ("obs.crit_share.runtime", "crit_runtime"),
                ("obs.overlap_fraction", "obs_overlap_fraction"),
            ] {
                out.push((name, get(field)));
            }
        });

        spans.scope("layer.simnet", |spans| {
            let mpi = spans.scope("simnet.simulate.mpi", |_| {
                simnet_prediction(&sh, simnet::ExecModel::MpiOnly)
            });
            out.push(("simnet.pred_over_meas.mpi", mpi / run_mpi));
            let df = spans.scope("simnet.simulate.dataflow", |_| {
                simnet_prediction(&sh, simnet::ExecModel::dataflow(sh.sc.cfg.workers))
            });
            out.push(("simnet.pred_over_meas.dataflow", df / run_df));
        });
        spans.scope("layer.dfcheck", |spans| {
            let df = wl.scenario(Variant::DataFlow, seed, effort.shape);
            let s = spans.record("dfcheck.check", |_| {
                time_call(rung, || {
                    black_box(miniamr::staticcheck::check(&df.cfg).clean());
                })
            });
            out.push(("dfcheck.check_ms", s * 1e3));
        });
    });
    (out, ops)
}
