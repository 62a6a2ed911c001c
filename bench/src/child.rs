//! `ladder run-one`: one whole `miniamr::run_world` in this process, one
//! JSON line on stdout. Every end-to-end sample is a fresh process of
//! this: users pay process set-up per run, and in-process reruns of the
//! data-flow variant slow down run over run (see the README's findings).

use crate::json::Json;
use crate::workloads::{self, Shape};
use miniamr::{RunStats, Variant};
use std::time::{Duration, Instant};

pub const VARIANTS: [Variant; 3] = [Variant::MpiOnly, Variant::ForkJoin, Variant::DataFlow];

pub fn variant_name(v: Variant) -> &'static str {
    match v {
        Variant::MpiOnly => "mpi",
        Variant::ForkJoin => "forkjoin",
        Variant::DataFlow => "dataflow",
    }
}

pub fn parse_variant(s: &str) -> Option<Variant> {
    VARIANTS.into_iter().find(|v| variant_name(*v) == s)
}

/// Per-stripe event-ring capacity of a traced child: with the collector
/// draining every 2 ms this has never dropped an event on any workload
/// (the default 32 Ki ring lost 287 k of 6.5 M on `tasks_fine`).
const OBS_RING: usize = 1 << 20;

/// What one child run does.
#[derive(Clone)]
pub struct ChildSpec {
    pub workload: String,
    pub variant: Variant,
    pub seed: u64,
    pub shape: Shape,
    /// Whole runs in this one process (1 for every end-to-end sample;
    /// 3 for `core.rss_growth_mb_per_rerun.dataflow`).
    pub runs: usize,
    /// Run with the `obs` event bus on and build the perf report.
    pub obs: bool,
}

impl ChildSpec {
    pub fn new(workload: &str, variant: Variant, seed: u64) -> ChildSpec {
        ChildSpec {
            workload: workload.to_string(),
            variant,
            seed,
            shape: Shape::default(),
            runs: 1,
            obs: false,
        }
    }

    /// The `run-one` argument list that reproduces this spec.
    pub fn to_args(&self) -> Vec<String> {
        let mut a = vec![
            "run-one".to_string(),
            "--workload".into(),
            self.workload.clone(),
            "--variant".into(),
            variant_name(self.variant).into(),
            "--seed".into(),
            self.seed.to_string(),
            "--runs".into(),
            self.runs.to_string(),
        ];
        if let Some(ts) = self.shape.tsteps {
            a.extend(["--tsteps".into(), ts.to_string()]);
        }
        if self.shape.serial {
            a.push("--serial".into());
        }
        if self.obs {
            a.push("--obs".into());
        }
        a
    }

    pub fn from_args(args: &[String]) -> Result<ChildSpec, String> {
        let mut spec = ChildSpec::new("", Variant::MpiOnly, 1);
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
            let bad = |v: &String| format!("{flag}: invalid value {v}");
            match flag.as_str() {
                "--workload" => spec.workload = value()?.clone(),
                "--variant" => {
                    let v = value()?;
                    spec.variant = parse_variant(v).ok_or_else(|| bad(v))?;
                }
                "--seed" => {
                    let v = value()?;
                    spec.seed = v.parse().map_err(|_| bad(v))?;
                }
                "--runs" => {
                    let v = value()?;
                    spec.runs = v.parse().map_err(|_| bad(v))?;
                }
                "--tsteps" => {
                    let v = value()?;
                    spec.shape.tsteps = Some(v.parse().map_err(|_| bad(v))?);
                }
                "--serial" => spec.shape.serial = true,
                "--obs" => spec.obs = true,
                other => return Err(format!("run-one: unknown option {other}")),
            }
        }
        if spec.runs == 0 {
            return Err("--runs must be at least 1".into());
        }
        Ok(spec)
    }
}

/// A field of `/proc/self/status` in kB (`VmHWM`: peak resident set,
/// `VmRSS`: current).
fn proc_status_kb(field: &str) -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with(field))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|v| v.parse().ok())
        })
        .unwrap_or(0)
}

fn secs(d: Duration) -> Json {
    Json::Num(d.as_secs_f64())
}

/// The run's counters: sums over ranks, phase times as the slowest rank.
fn stats_json(stats: &[RunStats]) -> Vec<(&'static str, Json)> {
    let sum = |f: fn(&RunStats) -> u64| Json::from(stats.iter().map(f).sum::<u64>());
    let max = |f: fn(&RunStats) -> Duration| secs(stats.iter().map(f).max().unwrap_or_default());
    vec![
        (
            "digest",
            Json::Str(format!("{:016x}", stats[0].checksum_digest())),
        ),
        ("checksums_passed", sum(|s| s.checksums_passed as u64)),
        ("checksums_failed", sum(|s| s.checksums_failed as u64)),
        ("final_blocks", sum(|s| s.final_blocks as u64)),
        ("blocks_moved", sum(|s| s.blocks_moved)),
        ("msgs_sent", sum(|s| s.msgs_sent)),
        ("elems_sent", sum(|s| s.elems_sent)),
        ("checkpoints_taken", sum(|s| s.checkpoints_taken as u64)),
        ("tasks_spawned", sum(|s| s.tasks_spawned)),
        ("tasks_replayed", sum(|s| s.tasks_replayed)),
        ("trace_hits", sum(|s| s.trace_hits)),
        ("trace_invalidations", sum(|s| s.trace_invalidations)),
        ("pool_hits", sum(|s| s.pool.hits)),
        ("pool_misses", sum(|s| s.pool.misses)),
        ("t_total_s", max(|s| s.times.total)),
        ("t_comm_s", max(|s| s.times.communicate)),
        ("t_stencil_s", max(|s| s.times.stencil)),
        ("t_checksum_s", max(|s| s.times.checksum)),
        ("t_refine_s", max(|s| s.times.refine)),
    ]
}

/// The perf report's own decomposition, as shares of the critical path.
fn report_json(events: &[obs::Event], dropped: u64) -> Vec<(&'static str, Json)> {
    let start = Instant::now();
    let report = obs::report::PerfReport::from_events(events, dropped);
    let build = start.elapsed();
    let mut total = obs::critpath::Breakdown::default();
    for t in &report.timesteps {
        let b = &t.breakdown;
        total.compute_us += b.compute_us;
        total.pack_us += b.pack_us;
        total.transit_us += b.transit_us;
        total.wait_us += b.wait_us;
        total.runtime_us += b.runtime_us;
    }
    let share = |us: u64| Json::Num(us as f64 / total.total().max(1) as f64);
    vec![
        ("obs_events", Json::from(report.events)),
        ("obs_dropped", Json::from(report.dropped)),
        ("obs_report_build_s", secs(build)),
        ("obs_overlap_fraction", Json::Num(report.overlap_fraction)),
        ("crit_compute", share(total.compute_us)),
        ("crit_pack", share(total.pack_us)),
        ("crit_transit", share(total.transit_us)),
        ("crit_wait", share(total.wait_us)),
        ("crit_runtime", share(total.runtime_us)),
    ]
}

/// Runs the spec and returns its result line.
pub fn run_one(spec: &ChildSpec) -> Result<Json, String> {
    let wl = workloads::find(&spec.workload)
        .ok_or_else(|| format!("unknown workload {:?}", spec.workload))?;
    let collector = spec.obs.then(|| {
        // Before the world is built: runtimes cache their metric handles
        // at construction.
        let bus = obs::enable_with_capacity(OBS_RING);
        obs::report::Collector::start(bus, None, 1)
    });
    let mut walls = Vec::new();
    let mut rss_after = Vec::new();
    let mut last = Vec::new();
    for _ in 0..spec.runs {
        // Resolved per run, outside the timed region: the program under
        // test starts at `run_world`.
        let sc = wl.scenario(spec.variant, spec.seed, spec.shape);
        let n_ranks = sc.cfg.params.num_ranks();
        let start = Instant::now();
        last = miniamr::run_world(&sc.cfg, n_ranks, sc.net);
        walls.push(secs(start.elapsed()));
        rss_after.push(Json::from(proc_status_kb("VmRSS:")));
    }
    let mut fields = vec![
        ("workload", Json::str(wl.name)),
        ("variant", Json::str(variant_name(spec.variant))),
        ("seed", Json::from(spec.seed)),
        ("wall_s", walls[0].clone()),
    ];
    fields.extend(stats_json(&last));
    fields.push(("peak_rss_kb", Json::from(proc_status_kb("VmHWM:"))));
    if spec.runs > 1 {
        fields.push(("rerun_wall_s", Json::Arr(walls)));
        fields.push(("rerun_rss_kb", Json::Arr(rss_after)));
    }
    if let Some(collector) = collector {
        let (events, dropped) = collector.finish();
        fields.extend(report_json(&events, dropped));
    }
    Ok(Json::obj(fields))
}
