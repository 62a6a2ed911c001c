//! The command-line flags of `miniamr` and `dfcheck`, each declared once
//! as a [`Flag`] row: its name, value syntax, help line and setter. The
//! parsers, both `--help` texts and README's flag reference read the rows;
//! help quotes each default from the default arguments. The rows are
//! [`scenario_rows`] (what shapes a run's tasks and messages: both binaries
//! and the benchmark parse them, so the static verifier cannot drift from
//! the application), [`live_rows`] (`miniamr`'s network model,
//! observability, chaos and elastic flags) and [`check_rows`].

use crate::config::{four_spheres, single_sphere, BalanceKind as Lb, Config, Variant};
use crate::elastic::{ElasticOpts, PeerLostPolicy, ResizePlan};
use amr_mesh::stencil::StencilKind::{SevenPoint, TwentySevenPoint};
use amr_mesh::MeshParams;
use std::fmt::Display;
use std::str::FromStr;
use std::time::Duration;
use vmpi::{ChaosConfig, CollAlgo, FabricParams};
use PeerLostPolicy::{Abort, Shrink};
use Variant::{DataFlow, ForkJoin, MpiOnly};

/// The one exit table: every code a `miniamr` process can end with, as
/// constants for the code that exits and as [`exit::ROWS`] for the texts
/// that explain them (`--help` and README's table). Only the binaries'
/// `main` ends a process: the libraries return errors, and the two
/// monitors, which have no caller left to return to (a hung process, a
/// run whose next step is undefined), call the handlers `main` installed.
pub mod exit {
    /// A checksum validation failed, or an output file was not written.
    pub const FAILED: i32 = 1;
    /// Bad flags, a rejected scenario, or a meaningless machine.
    pub const USAGE: i32 = 2;
    /// `--watchdog_ms`: the stall watchdog saw no progress.
    pub const STALL: i32 = 86;
    /// The run returned a [`crate::RunError`] (its `exit_code`; a
    /// scenario the run rejects, over `--max_blocks`, exits [`USAGE`]).
    pub const RUN_ERROR: i32 = 88;
    /// `--staticcheck` or `dfcheck` found a defect before anything ran.
    pub const STATICCHECK: i32 = 95;
    /// `--sanitize`: depsan found a violation.
    pub const SANITIZER: i32 = 97;

    /// One exit code and what it means.
    pub struct Row {
        /// The code.
        pub code: i32,
        /// Its name in `--help`'s exit-status line.
        pub short: &'static str,
        /// When a process ends with it.
        pub when: &'static str,
        /// Who ends the process with it.
        pub decided_by: &'static str,
    }

    /// Every code, in ascending order.
    pub const ROWS: [Row; 6] = [
        Row {
            code: FAILED,
            short: "failed checksum or output file",
            when: "a checksum validation failed, or `--trace-json` / `--perf_report` \
                   could not be written",
            decided_by: "`miniamr`'s `main`",
        },
        Row {
            code: USAGE,
            short: "usage",
            when: "a bad flag or value, a refused flag combination, a meaningless \
                   machine description, or a scenario the run refuses \
                   (`RunError::OverCapacity`: a regrid would leave a rank over \
                   `--max_blocks`)",
            decided_by: "`miniamr`'s and `dfcheck`'s `main`; \
                         `RunError::exit_code` for the refusal",
        },
        Row {
            code: STALL,
            short: "stall",
            when: "`--watchdog_ms`: no event-bus progress for the window while \
                   work is pending",
            decided_by: "`miniamr`'s `main`, in the stall handler it gives \
                         `obs::Watchdog::start` (on the watchdog thread)",
        },
        Row {
            code: RUN_ERROR,
            short: "lost peer",
            when: "the run returned any other `RunError`: a lost peer (after the \
                   checkpoint restore and verify), a corrupt checkpoint, no \
                   boundary to shrink onto",
            decided_by: "`miniamr`'s `main`, from `RunError::exit_code`",
        },
        Row {
            code: STATICCHECK,
            short: "failed static check",
            when: "`--staticcheck` or `dfcheck` found a defect before anything ran",
            decided_by: "`miniamr`'s and `dfcheck`'s `main`",
        },
        Row {
            code: SANITIZER,
            short: "sanitizer violation",
            when: "`--sanitize`: the first depsan violation",
            decided_by: "`miniamr`'s `main`, in the handler it gives \
                         `depsan::on_first_violation` (on the violating thread)",
        },
    ];

    /// README's exit-code table.
    pub fn reference() -> String {
        let mut table = String::from("| code | when | decided by |\n|---|---|---|\n");
        for r in &ROWS {
            table += &format!("| {} | {} | {} |\n", r.code, r.when, r.decided_by);
        }
        table
    }

    /// The exit-status lines of `miniamr --help`: success and the first
    /// three codes, then the rest.
    pub(crate) fn status_lines() -> String {
        let codes: Vec<String> = ROWS
            .iter()
            .map(|r| format!("{} {}", r.code, r.short))
            .collect();
        let (first, rest) = codes.split_at(3);
        format!(
            "Exit status: 0 ok, {},\n{}.\n",
            first.join(", "),
            rest.join(", ")
        )
    }
}

type Keys<E> = &'static [(&'static str, E)];

/// The keywords of `--replay`, `--coalesce` and `--fabric`.
pub const ON_OFF: Keys<bool> = &[("on", true), ("off", false)];
/// The keywords of `--variant`.
pub const VARIANT: Keys<Variant> = &[
    ("mpi", MpiOnly),
    ("forkjoin", ForkJoin),
    ("dataflow", DataFlow),
];
/// The keywords of `--coll`.
pub const COLL: Keys<CollAlgo> = &[("flat", CollAlgo::Flat), ("hier", CollAlgo::Hier)];
/// The keywords of `--on_peer_lost`.
pub const PEER_LOST: Keys<PeerLostPolicy> = &[("abort", Abort), ("shrink", Shrink)];

/// The keyword of `value` in `keys`.
pub fn keyword<E: PartialEq>(keys: &[(&'static str, E)], v: E) -> &'static str {
    keys.iter().find(|(_, e)| *e == v).map_or("", |(k, _)| k)
}

/// Whether a row list took a flag, or why its value is bad.
pub type Taken = Result<bool, String>;

type Setter<T> = Box<dyn Fn(&mut T, &str) -> Result<(), String>>;
type Shower<T> = Box<dyn Fn(&mut T) -> String>;

/// What a number flag can be.
trait Number: FromStr + Display + Default + PartialEq + 'static {}
impl<N: FromStr + Display + Default + PartialEq + 'static> Number for N {}

/// What a keyword flag can be.
trait Keyword: Copy + PartialEq + 'static {}
impl<E: Copy + PartialEq + 'static> Keyword for E {}

/// One command-line flag of the arguments `T` it writes.
pub struct Flag<T> {
    /// The flag as typed (`--npx`).
    pub name: &'static str,
    /// The syntax of its value (`N`, `{on|off}`); empty for a switch.
    pub value: String,
    /// What it does.
    pub help: &'static str,
    /// Parses a value into the target; the error is the reason alone.
    set: Setter<T>,
    /// Renders the setting the flag writes, for help to quote from the
    /// default arguments; `None` where there is no default to quote.
    show: Option<Shower<T>>,
}

fn parse<N: FromStr>(v: &str) -> Result<N, String> {
    v.parse().map_err(|_| "invalid value".to_string())
}

/// Stores a parsed value in its setting.
fn put<V>(setting: &mut V, value: V) -> Result<(), String> {
    *setting = value;
    Ok(())
}

impl<T: 'static> Flag<T> {
    fn new(
        name: &'static str,
        value: &str,
        set: impl Fn(&mut T, &str) -> Result<(), String> + 'static,
    ) -> Self {
        Flag {
            name,
            value: value.to_string(),
            help: "",
            set: Box::new(set),
            show: None,
        }
    }

    fn help(mut self, help: &'static str) -> Self {
        self.help = help;
        self
    }

    /// Help quotes `show` of the default arguments as the default.
    fn shown(mut self, show: impl Fn(&mut T) -> String + 'static) -> Self {
        self.show = Some(Box::new(show));
        self
    }

    /// A number, stored as typed.
    fn num<N: Number>(name: &'static str, field: fn(&mut T) -> &mut N) -> Self {
        Flag::new(name, "N", move |t, v| put(field(t), parse(v)?))
            .shown(move |t| field(t).to_string())
    }

    /// A real number, stored times `scale` (`1e-6`: given in µs, stored in
    /// seconds).
    fn real(name: &'static str, scale: f64, field: fn(&mut T) -> &mut f64) -> Self {
        Flag::new(name, "F", move |t, v| {
            put(field(t), parse::<f64>(v)? * scale)
        })
        .shown(move |t| (*field(t) / scale).to_string())
    }

    /// A count: a zero is refused here rather than read as 1 further on.
    fn count<N: Number>(name: &'static str, field: fn(&mut T) -> &mut N) -> Self {
        Flag::new(name, "N", move |t, v| match parse(v)? {
            n if n == N::default() => Err("must be at least 1".to_string()),
            n => put(field(t), n),
        })
        .shown(move |t| field(t).to_string())
    }

    /// A switch without a value: present means on.
    fn switch(name: &'static str, field: fn(&mut T) -> &mut bool) -> Self {
        Flag::new(name, "", move |t, _| put(field(t), true))
    }

    /// An output file.
    fn path(name: &'static str, field: fn(&mut T) -> &mut Option<String>) -> Self {
        Flag::new(name, "PATH", move |t, v| put(field(t), Some(v.into())))
    }

    /// One of a fixed set of keywords.
    fn choice<E: Keyword>(name: &'static str, field: fn(&mut T) -> &mut E, keys: Keys<E>) -> Self {
        let syntax = keys.iter().map(|(k, _)| *k).collect::<Vec<_>>().join("|");
        Flag::new(name, &format!("{{{syntax}}}"), move |t, v| {
            let key = keys.iter().find(|(k, _)| *k == v).map(|(_, e)| *e);
            put(field(t), key.ok_or(format!("expected {syntax}, got {v}"))?)
        })
        .shown(move |t| keyword(keys, *field(t)).to_string())
    }
}

/// Shows a capacity whose default is no limit at all.
fn limit(n: usize) -> String {
    match n {
        usize::MAX => "unlimited".into(),
        n => n.to_string(),
    }
}

/// Offers the flag at `args[*i]` to `rows`. `Ok(true)`: a row took it
/// (and its value, advancing `*i` past it); `Ok(false)`: no row knows
/// it; `Err`: a row knows it, but its value is missing or invalid.
fn consume<T>(rows: &[Flag<T>], t: &mut T, args: &[String], i: &mut usize) -> Taken {
    let Some(row) = rows.iter().find(|r| r.name == args[*i]) else {
        return Ok(false);
    };
    let value = if row.value.is_empty() {
        ""
    } else {
        *i += 1;
        args.get(*i).ok_or(format!("{} needs a value", row.name))?
    };
    (row.set)(t, value).map_err(|e| format!("{}: {e}", row.name))?;
    Ok(true)
}

/// Parses `args` (the process's, less the program name) into a scenario
/// and into the binary's own `rows`. `--help`, an unknown flag or a bad
/// value is an error: what was wrong, then `usage`, for the binary to
/// print before it exits [`exit::USAGE`].
pub fn parse_args<U: Default>(
    args: &[String],
    usage: fn() -> String,
    rows: &[Flag<U>],
) -> Result<(ScenarioArgs, U), String> {
    let (mut sc, mut own) = (ScenarioArgs::default(), U::default());
    let mut i = 0;
    while i < args.len() {
        let taken = match sc.consume(args, &mut i) {
            Ok(false) => consume(rows, &mut own, args, &mut i),
            taken => taken,
        };
        let msg = match taken {
            Ok(true) => {
                i += 1;
                continue;
            }
            Err(e) => e + "\n",
            Ok(false) if matches!(args[i].as_str(), "--help" | "-h") => String::new(),
            Ok(false) => format!("unknown option: {}\n", args[i]),
        };
        return Err(msg + usage().trim_end());
    }
    Ok((sc, own))
}

/// The help of `rows` under `title`, quoting defaults from
/// `T::default()`: each flag and its value from column 2, its help from
/// column 38, wrapped at 80.
fn render<T: Default>(title: &str, rows: &[Flag<T>]) -> String {
    let mut defaults = T::default();
    let mut lines = vec![format!("{title}:")];
    for row in rows {
        let default = row.show.as_ref().map(|show| show(&mut defaults));
        let mut line = format!("  {} {}", row.name, row.value);
        let words = row.help.split(' ').map(str::to_string);
        for word in words.chain(default.map(|d| format!("(default {d})"))) {
            if line.len() >= 37 && line.len() + word.len() >= 80 {
                lines.push(std::mem::take(&mut line));
            }
            line = format!("{line:37} {word}");
        }
        lines.push(line);
    }
    lines.join("\n") + "\n"
}

/// The help of the three row lists, one titled section each.
fn sections() -> [String; 3] {
    [
        render("Scenario options (miniamr and dfcheck)", &scenario_rows()),
        render("Live-execution options (miniamr only)", &live_rows()),
        render("dfcheck options", &check_rows()),
    ]
}

/// The flag reference README.md carries.
pub fn reference() -> String {
    sections().join("\n")
}

/// `miniamr --help`.
pub fn miniamr_usage() -> String {
    let [scenario, live, _] = sections();
    let status = exit::status_lines();
    format!("usage: miniamr [options]\n\n{scenario}\n{live}\n{status}")
}

/// `dfcheck --help`.
pub fn dfcheck_usage() -> String {
    use exit::{STATICCHECK, USAGE};
    let [scenario, _, check] = sections();
    format!(
        "usage: dfcheck [scenario options] [--all]\n\n{scenario}\n{check}\n\
         Exit status: 0 clean, {STATICCHECK} failed check, {USAGE} usage.\n"
    )
}

/// `dfcheck`'s own flags; the target is whether to check all variants.
pub fn check_rows() -> Vec<Flag<bool>> {
    let all = Flag::switch("--all", |all| all);
    vec![all.help("check all three variants, not just the --variant one")]
}

/// The scenario: a run [`Config`] plus the name of its input problem,
/// whose objects [`ScenarioArgs::config`] resolves. The config's fields
/// are read and written through `Deref`.
#[derive(Debug, Clone)]
pub struct ScenarioArgs {
    cfg: Config,
    /// Input problem (`single_sphere` / `four_spheres`).
    pub input: String,
}

impl std::ops::Deref for ScenarioArgs {
    type Target = Config;
    fn deref(&self) -> &Config {
        &self.cfg
    }
}

impl std::ops::DerefMut for ScenarioArgs {
    fn deref_mut(&mut self) -> &mut Config {
        &mut self.cfg
    }
}

impl Default for ScenarioArgs {
    /// The `miniamr` defaults.
    fn default() -> Self {
        let params = MeshParams {
            npx: 2,
            npy: 1,
            npz: 1,
            init_x: 1,
            init_y: 2,
            init_z: 2,
            nx: 8,
            ny: 8,
            nz: 8,
            num_vars: 8,
            num_refine: 2,
            block_change: 1,
        };
        let cfg = Config {
            num_tsteps: 8,
            stages_per_ts: 10,
            checksum_freq: 5,
            refine_freq: 4,
            ranks_per_node: 0, // every rank its own node
            ..Config::new(params)
        };
        let input = "four_spheres".to_string();
        ScenarioArgs { cfg, input }
    }
}

impl ScenarioArgs {
    /// Tries to consume the flag at `args[*i]` (and its value, advancing
    /// `*i` past it). `Ok(true)`: consumed; `Ok(false)`: not a scenario
    /// flag — the caller's own parser should handle it; `Err`: the flag
    /// was recognized but its value is invalid.
    pub fn consume(&mut self, args: &[String], i: &mut usize) -> Taken {
        consume(&scenario_rows(), self, args, i)
    }

    /// Builds the validated [`Config`]: the scenario with its input's
    /// objects.
    pub fn config(&self) -> Result<Config, String> {
        let objects = match self.input.as_str() {
            "single_sphere" => single_sphere(self.num_tsteps),
            "four_spheres" => four_spheres(self.num_tsteps),
            other => return Err(format!("--input: unknown problem {other}")),
        };
        self.params
            .validate()
            .map_err(|e| format!("invalid mesh parameters: {e}"))?;
        // A period of zero timesteps means nothing by itself: the cadence
        // would read it as "never regrid" (only 0 is a multiple of 0) and
        // switch refinement off without a word. A period past
        // `--num_tsteps` is the way to run without regrids.
        if self.refine_freq == 0 {
            return Err("--refine_freq: must be at least 1".to_string());
        }
        let cfg = self.cfg.clone();
        Ok(Config { objects, ..cfg })
    }
}

/// What only a live `miniamr` run reads: the network model,
/// observability, chaos injection and elastic resizing.
#[derive(Debug, Clone)]
pub struct LiveArgs {
    /// The modelled machine, less the scenario's topology and eager size.
    pub fabric: FabricParams,
    /// The contention-aware fabric, or the scalar per-message model.
    pub fabric_on: bool,
    /// Chrome trace output.
    pub trace_json: Option<String>,
    /// Print the metrics registry.
    pub metrics: bool,
    /// Stall watchdog period in ms (0 = off).
    pub watchdog_ms: u64,
    /// Causal performance report output.
    pub perf_report: Option<String>,
    /// Interim JSONL report output.
    pub metrics_jsonl: Option<String>,
    /// Timesteps between JSONL report lines.
    pub report_interval: u32,
    /// Per-stripe event-bus ring capacity.
    pub obs_ring: usize,
    /// Pre-flight static verification.
    pub staticcheck: bool,
    /// Dependency sanitizer.
    pub sanitize: bool,
    /// Fault plan; any `--chaos_*` flag enables it.
    pub chaos: Option<ChaosConfig>,
    /// Resize plan and lost-peer policy.
    pub elastic: ElasticOpts,
    /// Concurrent jobs of the scenario.
    pub jobs: usize,
}

impl Default for LiveArgs {
    fn default() -> Self {
        LiveArgs {
            fabric: FabricParams::cluster(),
            fabric_on: true,
            trace_json: None,
            metrics: false,
            watchdog_ms: 0,
            perf_report: None,
            metrics_jsonl: None,
            report_interval: 1,
            obs_ring: obs::DEFAULT_RING_CAPACITY,
            staticcheck: false,
            sanitize: false,
            chaos: None,
            elastic: ElasticOpts::default(),
            jobs: 1,
        }
    }
}

impl LiveArgs {
    /// Whether the run's events are collected: traced, reported or streamed.
    pub fn collects(&self) -> bool {
        self.trace_json.is_some() || self.perf_report.is_some() || self.metrics_jsonl.is_some()
    }

    /// The fault plan, enabled with the defaults if no flag enabled it.
    fn chaos(&mut self) -> &mut ChaosConfig {
        self.chaos.get_or_insert_with(ChaosConfig::default)
    }
}

/// The scenario flags: what `miniamr`, `dfcheck` and the benchmark all parse.
pub fn scenario_rows() -> Vec<Flag<ScenarioArgs>> {
    type F = Flag<ScenarioArgs>;
    let balancers = &[("sfc", Lb::Sfc), ("rcb", Lb::Rcb), ("none", Lb::None)];
    let stencils = &[("7", SevenPoint), ("27", TwentySevenPoint)];
    vec![
        F::choice("--variant", |s| &mut s.variant, VARIANT).help("parallelization variant"),
        F::num("--npx", |s| &mut s.params.npx).help("ranks along x"),
        F::num("--npy", |s| &mut s.params.npy).help("ranks along y"),
        F::num("--npz", |s| &mut s.params.npz).help("ranks along z"),
        F::num("--init_x", |s| &mut s.params.init_x).help("initial blocks per rank along x"),
        F::num("--init_y", |s| &mut s.params.init_y).help("initial blocks per rank along y"),
        F::num("--init_z", |s| &mut s.params.init_z).help("initial blocks per rank along z"),
        F::num("--nx", |s| &mut s.params.nx).help("cells per block along x"),
        F::num("--ny", |s| &mut s.params.ny).help("cells per block along y"),
        F::num("--nz", |s| &mut s.params.nz).help("cells per block along z"),
        F::num("--num_vars", |s| &mut s.params.num_vars).help("variables per cell"),
        F::num("--num_refine", |s| &mut s.params.num_refine).help("maximum refinement level"),
        F::num("--block_change", |s| &mut s.params.block_change)
            .help("maximum level change per refinement stage"),
        F::num("--num_tsteps", |s| &mut s.num_tsteps).help("timesteps"),
        F::num("--stages_per_ts", |s| &mut s.stages_per_ts).help("stages per timestep"),
        F::num("--checksum_freq", |s| &mut s.checksum_freq).help("stages between checksums"),
        F::num("--refine_freq", |s| &mut s.refine_freq)
            .help("timesteps between refinements (at least 1)"),
        F::num("--comm_vars", |s| &mut s.comm_vars)
            .help("variables per communication group")
            .shown(|s| limit(s.comm_vars)),
        F::num("--max_blocks", |s| &mut s.max_blocks)
            .help("per-rank block capacity")
            .shown(|s| limit(s.max_blocks)),
        F::new("--input", "{single_sphere|four_spheres}", |s, v| {
            put(&mut s.input, v.into())
        })
        .help("input problem")
        .shown(|s| s.input.clone()),
        F::switch("--send_faces", |s| &mut s.send_faces).help("one message per face"),
        F::switch("--separate_buffers", |s| &mut s.separate_buffers)
            .help("per-direction communication buffers"),
        F::num("--max_comm_tasks", |s| &mut s.max_comm_tasks)
            .help("with --send_faces: comm tasks per neighbor+direction, 0 = one per face"),
        F::switch("--delayed_checksum", |s| &mut s.delayed_checksum)
            .help("validate the previous checkpoint (dataflow)"),
        F::choice("--lb", |s| &mut s.balance, balancers).help("load balancer"),
        F::count("--workers", |s| &mut s.workers).help("worker threads per rank"),
        F::choice("--replay", |s| &mut s.replay, ON_OFF)
            .help("task-graph trace & replay cache across repeated timesteps (dataflow)"),
        F::choice("--stencil", |s| &mut s.stencil, stencils).help("stencil kind"),
        F::num("--ckpt_freq", |s| &mut s.ckpt_freq)
            .help("checkpoint rank state every N stages (0 = off)"),
        F::choice("--coll", |s| &mut s.coll, COLL)
            .help("collective algorithm: flat trees, or an intra/inter-node hierarchy"),
        F::choice("--coalesce", |s| &mut s.coalesce, ON_OFF)
            .help("merge an inter-node neighbor's faces into one flow per direction"),
        F::num("--ranks_per_node", |s| &mut s.ranks_per_node)
            .help("ranks per node (0 = every rank its own node)"),
        F::new("--eager_kb", "N", |s, v| {
            put(&mut s.eager_bytes, parse::<usize>(v)?.saturating_mul(1024))
        })
        .help("eager/rendezvous protocol threshold in KiB")
        .shown(|s| (s.eager_bytes / 1024).to_string()),
        F::switch("--legacy_group_offsets", |s| &mut s.legacy_group_offsets)
            .help("reproduce the seed's buggy comm-buffer offsets (known deadlock)"),
    ]
}

/// The live-execution flags: `miniamr`'s alone.
pub fn live_rows() -> Vec<Flag<LiveArgs>> {
    type F = Flag<LiveArgs>;
    vec![
        F::real("--latency_us", 1e-6, |a| &mut a.fabric.latency).help("network latency in us"),
        F::real("--bandwidth_gbps", 1e9, |a| &mut a.fabric.bandwidth)
            .help("network bandwidth in GB/s; must be positive"),
        F::choice("--fabric", |a| &mut a.fabric_on, ON_OFF)
            .help("contention-aware fabric: shared links, NIC serialization, rendezvous"),
        F::real("--fabric_rtt_us", 1e-6, |a| &mut a.fabric.rendezvous_rtt)
            .help("rendezvous handshake round trip in us"),
        F::real("--fabric_nic_us", 1e-6, |a| &mut a.fabric.nic_msg_overhead)
            .help("per-message NIC injection overhead in us"),
        F::path("--trace-json", |a| &mut a.trace_json)
            .help("write a merged Chrome trace_event JSON of all ranks"),
        F::switch("--metrics", |a| &mut a.metrics).help("print the runtime metrics registry"),
        F::num("--watchdog_ms", |a| &mut a.watchdog_ms)
            .help("stall watchdog: dump and exit after N ms without progress (0 = off)"),
        F::path("--perf_report", |a| &mut a.perf_report)
            .help("write the causal performance report (critical paths, overlap) as JSON"),
        F::path("--metrics_jsonl", |a| &mut a.metrics_jsonl)
            .help("stream interim perf reports to PATH as JSONL"),
        F::count("--report_interval", |a| &mut a.report_interval)
            .help("timesteps between JSONL report lines"),
        F::count("--obs_ring", |a| &mut a.obs_ring)
            .help("per-stripe event-bus ring capacity (raise it on overflow drops)"),
        F::switch("--staticcheck", |a| &mut a.staticcheck)
            .help("verify the scenario statically first; exit on a failed check"),
        F::switch("--sanitize", |a| &mut a.sanitize)
            .help("dependency sanitizer: exit on the first race or comm hazard"),
        F::num("--chaos_seed", |a| &mut a.chaos().seed)
            .help("fault-injection seed (any --chaos_* flag enables injection)"),
        F::real("--chaos_drop", 1.0, |a| &mut a.chaos().drop_p).help("per-frame drop probability"),
        F::real("--chaos_dup", 1.0, |a| &mut a.chaos().dup_p)
            .help("per-frame duplication probability"),
        F::real("--chaos_corrupt", 1.0, |a| &mut a.chaos().corrupt_p)
            .help("per-frame single-bit corruption probability"),
        F::real("--chaos_delay", 1.0, |a| &mut a.chaos().delay_p)
            .help("per-frame delay-spike probability"),
        F::real("--chaos_delay_factor", 1.0, |a| &mut a.chaos().delay_factor)
            .help("delay-spike multiplier"),
        F::num("--chaos_stall_every", |a| &mut a.chaos().stall_every)
            .help("stall the sender every N frames (0 = off)"),
        F::new("--chaos_stall_ms", "N", |a, v| {
            put(&mut a.chaos().stall, Duration::from_millis(parse(v)?))
        })
        .help("stall duration in ms")
        .shown(|a| a.chaos().stall.as_millis().to_string()),
        F::new("--chaos_crash_rank", "N", |a, v| {
            put(&mut a.chaos().crash_rank, Some(parse(v)?))
        })
        .help("hard-crash rank N's NIC..."),
        F::num("--chaos_crash_after", |a| &mut a.chaos().crash_after)
            .help("...after it transmits N frames"),
        F::num("--chaos_retry", |a| &mut a.chaos().retry_budget)
            .help("retransmission budget per frame"),
        F::new("--chaos_rto_us", "N", |a, v| {
            put(&mut a.chaos().rto, Duration::from_micros(parse(v)?))
        })
        .help("base retransmit timeout in us")
        .shown(|a| a.chaos().rto.as_micros().to_string()),
        F::new("--resize_at", "TS:N", |a, v| {
            ResizePlan::parse_event(v).map(|event| a.elastic.plan.events.push(event))
        })
        .help("elastic: resize the world to N ranks before timestep TS (repeatable)"),
        F::choice("--on_peer_lost", |a| &mut a.elastic.on_peer_lost, PEER_LOST)
            .help("on an unrecoverable peer: abort, or shrink onto the survivors"),
        F::count("--jobs", |a| &mut a.jobs)
            .help("run N concurrent jobs of this scenario in one process"),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strs(v: &[&str]) -> Vec<String> {
        v.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn consumes_scenario_flags_and_skips_others() {
        let args = strs(&[
            "--variant",
            "dataflow",
            "--nx",
            "6",
            "--latency_us",
            "2.0",
            "--send_faces",
            // The benchmark parses the network flags itself, after
            // `consume` declines them.
            "--fabric",
            "on",
            "--bandwidth_gbps",
            "0.01",
        ]);
        let mut sc = ScenarioArgs::default();
        let mut i = 0;
        let mut skipped = Vec::new();
        while i < args.len() {
            match sc.consume(&args, &mut i) {
                Ok(true) => {}
                Ok(false) => skipped.push(args[i].clone()),
                Err(e) => panic!("{e}"),
            }
            i += 1;
        }
        assert_eq!(sc.variant, Variant::DataFlow);
        assert_eq!(sc.params.nx, 6);
        assert!(sc.send_faces);
        // The network flags and their values are left for the caller.
        assert_eq!(
            skipped,
            strs(&[
                "--latency_us",
                "2.0",
                "--fabric",
                "on",
                "--bandwidth_gbps",
                "0.01"
            ])
        );
    }

    #[test]
    fn bad_values_are_errors() {
        let mut sc = ScenarioArgs::default();
        let mut i = 0;
        assert!(sc.consume(&strs(&["--variant", "wat"]), &mut i).is_err());
        let mut i = 0;
        assert!(sc.consume(&strs(&["--nx"]), &mut i).is_err());
        let mut i = 0;
        assert!(sc.consume(&strs(&["--nx", "abc"]), &mut i).is_err());
        let mut i = 0;
        assert!(sc.consume(&strs(&["--refine_freq", "0"]), &mut i).is_ok());
        assert!(sc.config().is_err(), "a zero period would mean never");
    }

    #[test]
    fn a_zero_count_is_refused_with_the_flag_named() {
        let (mut sc, mut live) = (ScenarioArgs::default(), LiveArgs::default());
        let mut take = |args: &[String]| {
            let mut i = 0;
            match sc.consume(args, &mut i) {
                Ok(false) => consume(&live_rows(), &mut live, args, &mut i),
                taken => taken,
            }
        };
        for flag in ["--workers", "--jobs", "--obs_ring", "--report_interval"] {
            let e = take(&strs(&[flag, "0"])).expect_err("a zero count");
            assert_eq!(e, format!("{flag}: must be at least 1"));
            assert_eq!(take(&strs(&[flag, "1"])), Ok(true));
        }
    }

    #[test]
    fn coll_and_coalesce_flags_reach_the_config() {
        let args = strs(&[
            "--coll",
            "hier",
            "--coalesce",
            "on",
            "--ranks_per_node",
            "4",
            "--eager_kb",
            "32",
        ]);
        let mut sc = ScenarioArgs::default();
        let mut i = 0;
        while i < args.len() {
            assert!(sc.consume(&args, &mut i).expect("valid flags"));
            i += 1;
        }
        let cfg = sc.config().expect("valid config");
        assert_eq!(cfg.coll, vmpi::CollAlgo::Hier);
        assert!(cfg.coalesce);
        assert_eq!(cfg.ranks_per_node, 4);
        assert_eq!(cfg.eager_bytes, 32 * 1024);
        let mut i = 0;
        assert!(sc.consume(&strs(&["--coll", "wat"]), &mut i).is_err());
        let mut i = 0;
        assert!(sc.consume(&strs(&["--coalesce", "2"]), &mut i).is_err());
    }

    #[test]
    fn config_builds_and_validates() {
        let mut sc = ScenarioArgs {
            input: "single_sphere".to_string(),
            ..ScenarioArgs::default()
        };
        let cfg = sc.config().expect("valid defaults");
        assert_eq!(cfg.num_tsteps, 8);
        sc.params.npx = 0;
        assert!(sc.config().is_err());
    }
}
