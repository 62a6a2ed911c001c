//! The scenario table: end-to-end checks of the `miniamr` and `dfcheck`
//! binaries, one row each, a command line and what its run must produce.
//! An expectation is one of three kinds:
//!
//! - a digest-parity class: exit 0 and print the `checksum_digest` every
//!   other row of the class prints (a pinned class: the pinned one);
//! - an exit code;
//! - the set of finding codes the static verifier reports (exit 95 with
//!   findings, 0 without);
//!
//! and each row may add checks of its output: text it contains, a count
//! of the lines that contain a text, or a condition over the TSV counters.
//! Each row runs as a child process of the real binaries and is killed
//! at its timeout. The variant × feature matrix is generated: every
//! feature and every pair of features must keep the digest of the plain
//! run, or be refused with exit 2.

use miniamr::cli;
use std::collections::{BTreeSet, HashMap};
use std::io::Read;
use std::process::{Command, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};
use Expect::{Digest, Exit, Findings};

/// What a row's run must end with.
#[derive(Clone, Copy)]
enum Expect {
    /// Exit 0 with one digest (one per job too), the class's; a pinned
    /// class's digest is the pin.
    Digest(&'static str, Option<&'static str>),
    /// This exit code.
    Exit(i32),
    /// Exactly these finding codes in the static verifier's JSON reports.
    Findings(&'static [&'static str]),
}

/// One more thing a row's output must show.
enum Check {
    /// The output (stdout, then stderr) contains the text.
    Has(String),
    /// Exactly `n` lines contain the text.
    Lines(String, usize),
    /// A named condition over the run.
    Holds(&'static str, fn(&Run) -> bool),
}

/// One row: a command line and what its run must produce.
struct Row {
    bin: &'static str,
    args: Vec<String>,
    expect: Expect,
    checks: Vec<Check>,
    timeout_s: u64,
    repeat: usize,
}

fn row(bin: &'static str, args: impl AsRef<str>) -> Row {
    let args = args.as_ref().split_whitespace().map(String::from).collect();
    Row {
        bin,
        args,
        expect: Exit(0),
        checks: Vec::new(),
        timeout_s: 60,
        repeat: 1,
    }
}

fn miniamr(args: impl AsRef<str>) -> Row {
    row(env!("CARGO_BIN_EXE_miniamr"), args)
}

fn dfcheck(args: impl AsRef<str>) -> Row {
    row(env!("CARGO_BIN_EXE_dfcheck"), args)
}

impl Row {
    fn wants(mut self, expect: Expect) -> Self {
        self.expect = expect;
        self
    }
    fn check(mut self, check: Check) -> Self {
        self.checks.push(check);
        self
    }
    fn has(self, text: impl Into<String>) -> Self {
        self.check(Check::Has(text.into()))
    }
    fn lines(self, text: &str, n: usize) -> Self {
        self.check(Check::Lines(text.into(), n))
    }
    fn holds(self, what: &'static str, f: fn(&Run) -> bool) -> Self {
        self.check(Check::Holds(what, f))
    }
    fn timeout(self, timeout_s: u64) -> Self {
        Row { timeout_s, ..self }
    }
    fn repeat(self, repeat: usize) -> Self {
        Row { repeat, ..self }
    }
    fn command(&self) -> String {
        format!("{} {}", self.bin, self.args.join(" "))
    }
}

/// What one run of a row did.
struct Run {
    /// The exit code; `None` if it timed out or died by a signal.
    code: Option<i32>,
    timed_out: bool,
    out: String,
    err: String,
    secs: f64,
}

impl Run {
    fn text(&self) -> String {
        format!("{}\n{}", self.out, self.err)
    }
    /// A TSV counter of stdout (`key\tvalue`).
    fn num(&self, key: &str) -> Option<u64> {
        let mut fields = self.out.lines().filter_map(|l| l.split_once('\t'));
        fields.find(|(k, _)| *k == key)?.1.parse().ok()
    }
}

/// Runs `row` once, killing it at its timeout.
fn run(row: &Row) -> Run {
    let start = Instant::now();
    let mut child = Command::new(row.bin)
        .args(&row.args)
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn the binary");
    fn drain(mut pipe: impl Read + Send + 'static) -> std::thread::JoinHandle<String> {
        std::thread::spawn(move || {
            let mut bytes = Vec::new();
            pipe.read_to_end(&mut bytes).ok();
            String::from_utf8_lossy(&bytes).into_owned()
        })
    }
    let out = drain(child.stdout.take().expect("piped stdout"));
    let err = drain(child.stderr.take().expect("piped stderr"));
    let timeout = Duration::from_secs(row.timeout_s);
    let (status, timed_out) = loop {
        if let Some(status) = child.try_wait().expect("wait for the child") {
            break (status, false);
        }
        if start.elapsed() > timeout {
            child.kill().ok();
            break (child.wait().expect("reap the child"), true);
        }
        std::thread::sleep(Duration::from_millis(10));
    };
    let (out, err) = (out.join().unwrap(), err.join().unwrap());
    let (code, secs) = (status.code(), start.elapsed().as_secs_f64());
    Run {
        code: code.filter(|_| !timed_out),
        timed_out,
        out,
        err,
        secs,
    }
}

/// What is wrong with `run` of `row`, if anything. `classes` holds each
/// digest class's digest, set by its first row.
fn verdict(row: &Row, run: &Run, classes: &mut HashMap<&str, String>) -> Result<(), String> {
    let Some(code) = run.code else {
        return Err(match run.timed_out {
            true => format!("timed out after {} s", row.timeout_s),
            false => "killed by a signal".into(),
        });
    };
    let want = match row.expect {
        Exit(want) => want,
        Findings(codes) if !codes.is_empty() => dfcheck::STATIC_EXIT_CODE,
        _ => 0,
    };
    if code != want {
        return Err(format!("exit {code}, want {want}"));
    }
    match row.expect {
        Digest(class, pin) => {
            let tsv = run.out.lines().filter_map(|l| l.split_once('\t'));
            let digests = tsv.filter(|(k, _)| k.ends_with("checksum_digest"));
            let digests: BTreeSet<_> = digests.map(|(_, v)| v).collect();
            let [digest] = Vec::from_iter(&digests)[..] else {
                return Err(format!("digests {digests:?}, want one"));
            };
            let want = classes.entry(class).or_insert(pin.unwrap_or(digest).into());
            if *digest != want || pin.is_some_and(|pin| pin != *digest) {
                return Err(format!("digest {digest}, want {want} (class {class})"));
            }
        }
        Findings(codes) => {
            let reports = run
                .out
                .lines()
                .filter(|l| l.contains("miniamr-dfcheck-report"));
            let found: BTreeSet<_> = reports
                .flat_map(|l| l.split("\"code\":\"").skip(1))
                .filter_map(|c| c.split('"').next())
                .collect();
            if found != codes.iter().copied().collect() {
                return Err(format!("findings {found:?}, want {codes:?}"));
            }
        }
        Exit(_) => {}
    }
    let text = run.text();
    for check in &row.checks {
        match check {
            Check::Has(needle) if !text.contains(needle) => {
                return Err(format!("no output contains {needle:?}"));
            }
            Check::Lines(needle, n) => {
                let k = text.lines().filter(|l| l.contains(needle.as_str())).count();
                if k != *n {
                    return Err(format!("{k} lines contain {needle:?}, want {n}"));
                }
            }
            Check::Holds(what, f) if !f(run) => return Err(format!("does not hold: {what}")),
            _ => {}
        }
    }
    Ok(())
}

/// The last `n` lines of `text`, indented.
fn tail(text: &str, n: usize) -> String {
    let lines: Vec<_> = text.lines().collect();
    let tail = lines[lines.len().saturating_sub(n)..].iter();
    tail.map(|l| format!("    | {l}\n")).collect()
}

/// How many rows run at once.
const JOBS: usize = 2;

/// Runs every row (`repeat` times each, `JOBS` at a time) and returns one
/// report per run that failed, in table order: what is wrong, the command
/// line and its output's tail.
fn drive(rows: &[Row]) -> Vec<String> {
    let rows: Vec<&Row> = rows
        .iter()
        .flat_map(|r| std::iter::repeat_n(r, r.repeat))
        .collect();
    let next = AtomicUsize::new(0);
    let mut runs: Vec<(usize, Run)> = std::thread::scope(|s| {
        let worker = || {
            let mut done = Vec::new();
            loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(row) = rows.get(i) else { break done };
                done.push((i, run(row)));
            }
        };
        let workers: Vec<_> = (0..JOBS).map(|_| s.spawn(worker)).collect();
        workers
            .into_iter()
            .flat_map(|w| w.join().unwrap())
            .collect()
    });
    runs.sort_by_key(|(i, _)| *i);
    let mut classes = HashMap::new();
    let runs = rows.iter().zip(runs.iter().map(|(_, run)| run));
    runs.filter_map(|(row, run)| {
        let why = verdict(row, run, &mut classes).err()?;
        Some(format!(
            "{why}\n  $ {}\n  exit {:?} after {:.1} s; stdout ends:\n{}  stderr ends:\n{}",
            row.command(),
            run.code,
            run.secs,
            tail(&run.out, 8),
            tail(&run.err, 16)
        ))
    })
    .collect()
}

const VARIANTS: [&str; 3] = ["mpi", "forkjoin", "dataflow"];
const CLEAN: &str = "depsan: no violations detected";
const SMOKE: &str = "--npx 2 --npy 2 --nx 6 --ny 6 --nz 6 --num_vars 4 --num_tsteps 2 \
    --input single_sphere";
/// The seed's group-offset bug, kept behind `--legacy_group_offsets`.
const LEGACY: &str = "--variant dataflow --comm_vars 3 --send_faces --npx 2 --nx 6 --ny 6 \
    --nz 6 --num_vars 8 --num_tsteps 3 --input single_sphere --legacy_group_offsets";
const LEGACY_CODES: &[&str] = &["buffer-slot-overlap", "tag-collision"];
const CHAOS_MESH: &str = "--npx 2 --npy 1 --npz 1 --nx 8 --ny 8 --nz 8 --init_x 2 --init_y 2 \
    --init_z 2 --num_refine 2 --max_blocks 600 --num_tsteps 4 --stages_per_ts 4";
const CHAOS_PLAN: &str = "--chaos_drop 0.08 --chaos_dup 0.05 --chaos_corrupt 0.05 \
    --chaos_delay 0.2 --chaos_retry 20 --chaos_rto_us 2000 --ckpt_freq 4";
/// Rank 1 hard-crashes after 10 frames, past the initial refinement.
const CRASH_PLAN: &str = "--chaos_seed 42 --chaos_crash_rank 1 --chaos_crash_after 10 \
    --chaos_retry 3 --chaos_rto_us 1000 --ckpt_freq 1";
const FAB_MESH: &str = "--npx 2 --npy 2 --nx 6 --ny 6 --nz 6 --num_vars 4 --num_tsteps 3 \
    --input single_sphere --ranks_per_node 2";
const REPLAY_MESH: &str = "--npx 2 --npy 2 --nx 6 --ny 6 --nz 6 --num_vars 4 --num_tsteps 10 \
    --refine_freq 5 --ckpt_freq 8 --input single_sphere";
/// The `tasks_fine` shape (bench/src/workloads.rs) at 4 timesteps.
const FINE_MESH: &str = "--npx 2 --workers 1 --init_x 2 --init_y 4 --init_z 4 --nx 4 --ny 4 \
    --nz 4 --num_vars 4 --num_refine 2 --input four_spheres --num_tsteps 4 --stages_per_ts 10 \
    --checksum_freq 5 --refine_freq 1000 --send_faces --separate_buffers";
const GRAIN_MESH: &str = "--npx 2 --init_x 2 --init_y 2 --init_z 2 --nx 4 --ny 4 --nz 4 \
    --num_vars 4 --num_refine 2 --num_tsteps 4 --stages_per_ts 4 --checksum_freq 2 \
    --refine_freq 2 --send_faces --separate_buffers";
/// The `tasks_fine` workload's flags: the run gives the seed-1 digest.
const TF_MESH: &str = "--npx 2 --npy 1 --npz 1 --workers 1 --stencil 7 --init_x 2 --init_y 4 \
    --init_z 4 --nx 4 --ny 4 --nz 4 --num_vars 4 --num_refine 2 --input four_spheres \
    --num_tsteps 8 --stages_per_ts 10 --checksum_freq 5 --refine_freq 1000 --send_faces \
    --separate_buffers";
/// Checksum points at different stages of consecutive timesteps: no
/// timestep repeats its neighbour's stream, so none is traced.
const APERIODIC: &str = "--variant dataflow --npx 2 --init_x 2 --init_y 2 --init_z 2 --nx 4 \
    --ny 4 --nz 4 --num_vars 4 --num_refine 2 --num_tsteps 8 --stages_per_ts 4 \
    --checksum_freq 3 --refine_freq 3 --workers 2";
const EL_MESH: &str = "--npx 2 --npy 2 --npz 1 --nx 6 --ny 6 --nz 6 --num_vars 4 \
    --num_tsteps 6 --stages_per_ts 4 --checksum_freq 2 --refine_freq 2 --num_refine 2";
/// The matrix's plain run, and the features it combines.
const MATRIX: &str = "--npx 2 --npy 2 --nx 6 --ny 6 --nz 6 --num_vars 4 --num_tsteps 4 \
    --stages_per_ts 4 --checksum_freq 2 --refine_freq 2 --input single_sphere \
    --ranks_per_node 2";
const MATRIX_DIGEST: &str = "fab71b54d933cf4a";
const CHAOS: &str = "--chaos_seed 7 --chaos_drop 0.05 --chaos_dup 0.05 --chaos_corrupt 0.05 \
    --chaos_delay 0.1 --chaos_retry 20 --chaos_rto_us 2000 --ckpt_freq 4";
const FEATURES: [&str; 10] = [
    "--replay off",
    "--fabric off",
    CHAOS,
    "--coll hier",
    "--coalesce on --eager_kb 0",
    "--resize_at 2:3",
    "--sanitize",
    "--send_faces --comm_vars 3 --max_comm_tasks 2",
    "--lb rcb",
    "--delayed_checksum",
];

/// The checks `scripts/ci.sh` ran as shell stages, one stage a block.
#[rustfmt::skip]
fn ported() -> Vec<Row> {
    let mut t = Vec::new();
    // Sanitized smoke; uneven variable groups (5 variables in groups of 2, 2, 1).
    t.extend(VARIANTS.map(|v| miniamr(format!("--variant {v} --sanitize {SMOKE}")).has(CLEAN)));
    for faces in ["", "--send_faces"] {
        let uneven = "--sanitize --comm_vars 2 --num_vars 5 --num_tsteps 2 --stages_per_ts 4";
        t.extend(VARIANTS.map(|v| miniamr(format!("--variant {v} {uneven} {faces}")).has(CLEAN).timeout(120)));
    }
    // The legacy bug: depsan names it (before the 5 s watchdog), the static check flags it.
    t.push(miniamr(format!("{LEGACY} --sanitize --watchdog_ms 5000")).wants(Exit(97)).holds(
        "a depsan communication lint",
        |r| ["tag-size-mismatch", "ambiguous-recv", "size-mismatch"]
            .iter().any(|lint| r.err.contains(&format!("depsan: violation: {lint}"))),
    ));
    t.extend(VARIANTS.map(|v| miniamr(format!("--staticcheck --variant {v} {SMOKE}")).wants(Findings(&[])).has("staticcheck: clean")));
    t.push(miniamr(format!("--staticcheck {LEGACY}")).wants(Findings(LEGACY_CODES)));
    t.push(dfcheck(format!("--all {SMOKE}")).wants(Findings(&[])).lines("\"clean\":true", 3));
    t.push(dfcheck(LEGACY).wants(Findings(LEGACY_CODES)));
    // Chaos soak: faults within the retry budget are invisible in the digest.
    for v in VARIANTS {
        t.push(miniamr(format!("--variant {v} {CHAOS_MESH}")).wants(Digest("chaos_mesh", None)));
        for seed in [7, 42, 1337] {
            let chaos = format!("--variant {v} {CHAOS_MESH} --chaos_seed {seed} {CHAOS_PLAN}");
            t.push(miniamr(chaos).wants(Digest("chaos_mesh", None)).has("checkpoints_taken"));
        }
    }
    // Unrecoverable hard crash: a structured report and exit 88; under --jobs 2, both jobs'.
    let crash = |v: &str| miniamr(format!("--variant {v} {CHAOS_MESH} {CRASH_PLAN}")).wants(Exit(88));
    for v in VARIANTS {
        let needles = ["chaos: peer lost", "hard-crashed per plan", "restored from checkpoint",
                       "verified after restore", "exiting with code 88"];
        t.push(needles.into_iter().fold(crash(v), Row::has));
    }
    t.push(crash("dataflow --jobs 2").lines("miniamr: job 0 stopped early", 1)
        .lines("miniamr: job 1 stopped early", 1).lines("verified after restore", 2));
    // Fabric on/off; all-rendezvous (--eager_kb 0) against the default eager limit.
    for v in VARIANTS {
        for fabric in ["on", "off"] {
            t.push(miniamr(format!("--variant {v} {FAB_MESH} --fabric {fabric}")).wants(Digest("fab_mesh", None)));
        }
        for eager in ["--eager_kb 0", ""] {
            t.push(miniamr(format!("--variant {v} --npx 2 --num_tsteps 2 {eager}")).wants(Digest("swap", None)));
        }
    }
    // Validation: usage errors exit 2 at parse time, naming what is wrong.
    t.push(miniamr("--variant mpi --npx 2 --nx 6 --ny 6 --nz 6 --num_vars 4 --num_tsteps 1 \
        --input single_sphere --bandwidth_gbps 0").wants(Exit(2)).has("invalid network parameters"));
    t.push(miniamr("--variant mpi --refine_freq 0").wants(Exit(2)));
    for flag in ["--workers", "--jobs", "--obs_ring", "--report_interval"] {
        t.push(miniamr(format!("{flag} 0")).wants(Exit(2)).has(format!("{flag}: must be at least 1")));
    }
    // --help lists every row of the flag table, and dfcheck's scenario section is miniamr's.
    let reference = cli::reference();
    let scenario = reference.split("\n\n").next().unwrap();
    let names = |rows: Vec<&'static str>| rows.into_iter().map(|n| format!("\n  {n} "));
    let scenario_names: Vec<_> = cli::scenario_rows().iter().map(|r| r.name).collect();
    let live: Vec<_> = cli::live_rows().iter().map(|r| r.name).collect();
    let check: Vec<_> = cli::check_rows().iter().map(|r| r.name).collect();
    assert!(scenario_names.len() + live.len() + check.len() >= 64, "the flag table lost rows");
    let help = |r: Row, own: Vec<&'static str>| names([scenario_names.clone(), own].concat()).fold(r.wants(Exit(2)).has(scenario), Row::has);
    t.push(help(miniamr("--help"), live));
    t.push(help(dfcheck("--help"), check));
    // Hierarchical collectives + coalescing; sanitized; the coalesced plan statically.
    let coll = format!("{FAB_MESH} --send_faces --comm_vars 2");
    let hier = "--coll hier --coalesce on --eager_kb 0";
    for v in VARIANTS {
        t.push(miniamr(format!("--variant {v} {coll} --coll flat --coalesce off")).wants(Digest("coll", None)));
        t.push(miniamr(format!("--variant {v} {coll} {hier}")).wants(Digest("coll", None)));
    }
    t.push(miniamr(format!("--variant dataflow --sanitize {coll} {hier}")).has(CLEAN));
    t.push(dfcheck(format!("--all {coll} {hier}")).wants(Findings(&[])).timeout(120));
    // Replay on/off; data-flow replays (4 ranks x 2 epochs x 4 hits); sanitized replay.
    for v in VARIANTS {
        t.push(miniamr(format!("--variant {v} {REPLAY_MESH} --replay off")).wants(Digest("replay", None)));
        let on = miniamr(format!("--variant {v} {REPLAY_MESH} --replay on")).wants(Digest("replay", None));
        t.push(match v {
            "dataflow" => on.holds("tasks_replayed > 0, trace_hits == 32, tasks_rearmed > 0", |r| {
                r.num("tasks_replayed") > Some(0) && r.num("trace_hits") == Some(32) && r.num("tasks_rearmed") > Some(0)
            }),
            _ => on,
        });
    }
    t.push(miniamr(format!("--variant dataflow --sanitize {REPLAY_MESH} --replay on")).has(CLEAN));
    // Re-armed tasks_fine shape: one digest, delayed validation, sanitizer, static check.
    let fine = |run: &str| miniamr(format!("--variant {run} {FINE_MESH}")).wants(Digest("fine", None));
    t.extend(["mpi", "forkjoin", "dataflow --delayed_checksum"].map(fine));
    t.push(fine("dataflow").holds("trace_hits == 6", |r| r.num("trace_hits") == Some(6)));
    t.push(fine("dataflow --sanitize").has(CLEAN));
    t.extend(VARIANTS.map(|v| fine(&format!("{v} --staticcheck")).has("staticcheck: clean")));
    // Task grain: batching is invisible in the digest, visible in the counts.
    let grain = |run: &str| miniamr(format!("--variant {run} {GRAIN_MESH}")).wants(Digest("grain", None));
    t.extend(["mpi", "forkjoin"].map(grain));
    t.push(grain("dataflow").holds("tasks_spawned * 4 < task_items", |r| {
        matches!((r.num("tasks_spawned"), r.num("task_items")), (Some(s), Some(i)) if s * 4 < i)
    }));
    t.extend(VARIANTS.map(|v| grain(&format!("{v} --staticcheck")).has("dfcheck: PASS")));
    t.extend(["forkjoin", "dataflow"].map(|v| grain(&format!("{v} --sanitize")).has(CLEAN)));
    for (check, says) in [("", "checksum_digest"), ("--staticcheck", "dfcheck: PASS"), ("--sanitize", CLEAN)] {
        let tf = miniamr(format!("--variant dataflow {TF_MESH} {check}")).timeout(120);
        t.push(tf.wants(Digest("tasks_fine", Some("1dab3b4b13377138"))).has(says).holds(
            "tasks_spawned == 118236, task_items == 829884",
            |r| r.num("tasks_spawned") == Some(118236) && r.num("task_items") == Some(829884),
        ));
    }
    // A block's checksum read per variable group: a run of several groups replays.
    t.push(miniamr("--variant dataflow --npx 2 --comm_vars 1").wants(Digest("groups", Some("bfb9a55e5337a7f8")))
        .holds("tasks_replayed > 0, trace_divergences == 0", |r| {
            r.num("tasks_replayed") > Some(0) && r.num("trace_divergences") == Some(0)
        }));
    t.push(miniamr(APERIODIC).wants(Digest("aperiodic", Some("246a54477696eff4")))
        .holds("trace_records == 0, trace_divergences == 0", |r| {
            r.num("trace_records") == Some(0) && r.num("trace_divergences") == Some(0)
        }));
    // Elastic: grow, grow then shrink, shrink; shrink on failure; the early
    // crash every time; four sanitized jobs resizing at once.
    for v in VARIANTS {
        t.push(miniamr(format!("--variant {v} {EL_MESH}")).wants(Digest("elastic", None)));
        for plan in ["--resize_at 2:8", "--resize_at 2:8 --resize_at 4:4", "--resize_at 3:2"] {
            t.push(miniamr(format!("--variant {v} {EL_MESH} {plan}")).wants(Digest("elastic", None)).has("elastic plan"));
        }
    }
    t.push(miniamr(format!("--variant dataflow {EL_MESH} --chaos_seed 7 --chaos_crash_rank 3 \
        --chaos_crash_after 340 --chaos_retry 4 --chaos_rto_us 2000 --on_peer_lost shrink"))
        .wants(Digest("elastic", None)).has("shrinking 4 -> 3 ranks"));
    t.push(miniamr(format!("--variant dataflow {CHAOS_MESH} {CRASH_PLAN} --on_peer_lost shrink"))
        .wants(Digest("chaos_mesh", None)).timeout(20).repeat(10));
    t.push(miniamr(format!("--variant dataflow {EL_MESH} --sanitize --jobs 4 --resize_at 2:8 \
        --resize_at 4:3")).wants(Digest("elastic", None)).lines("_checksum_digest\t", 4).has(CLEAN).timeout(120));
    t
}

/// Each variant with every feature and every pair of features: the plain
/// run's digest, or exit 2 naming both flags where a fault plan would
/// silently switch the other feature off.
#[rustfmt::skip]
fn matrix() -> Vec<Row> {
    let mut sets: Vec<Vec<&str>> = FEATURES.iter().map(|f| vec![*f]).collect();
    for (i, a) in FEATURES.iter().enumerate() {
        sets.extend(FEATURES[i + 1..].iter().map(|b| vec![*a, *b]));
    }
    let mut t = Vec::new();
    for v in VARIANTS {
        for set in &sets {
            let r = miniamr(format!("--variant {v} {MATRIX} {}", set.join(" ")));
            let r = match (set.contains(&CHAOS), set.contains(&"--coll hier"), set.contains(&"--sanitize")) {
                (true, true, _) => r.wants(Exit(2)).has("--coll hier").has("--chaos_"),
                (true, _, _) if set.len() == 1 => r.wants(Digest("matrix", Some(MATRIX_DIGEST))).has("fabric=off"),
                (_, _, true) => r.wants(Digest("matrix", Some(MATRIX_DIGEST))).has(CLEAN),
                _ => r.wants(Digest("matrix", Some(MATRIX_DIGEST))),
            };
            // Every traced timestep of the matrix repeats its neighbour.
            t.push(match r.expect {
                Digest(..) if v == "dataflow" => r.holds("trace_divergences == 0", |r| r.num("trace_divergences") == Some(0)),
                _ => r,
            });
        }
    }
    t.push(miniamr(format!("--variant dataflow {MATRIX} {CHAOS} --fabric on")).wants(Exit(2)).has("--fabric on").has("--chaos_"));
    t
}

#[test]
fn every_row_holds() {
    let start = Instant::now();
    let mut rows = ported();
    rows.extend(matrix());
    let failures = drive(&rows);
    eprintln!(
        "scenarios: every row ran in {:.1} s",
        start.elapsed().as_secs_f64()
    );
    assert!(
        failures.is_empty(),
        "{} runs failed:\n\n{}",
        failures.len(),
        failures.join("\n")
    );
}

/// The table's size is pinned: a row that goes missing is a check dropped.
#[test]
fn the_table_size_is_pinned() {
    let runs = |rows: &[Row]| (rows.len(), rows.iter().map(|r| r.repeat).sum::<usize>());
    assert_eq!(runs(&ported()), (103, 112));
    assert_eq!(runs(&matrix()), (166, 166));
}

/// The table cannot pass vacuously: each wrong expectation is reported,
/// with a command line to paste and the tail of the run's output.
#[test]
fn wrong_expectations_are_reported() {
    let small = "--variant mpi --npx 1 --nx 4 --ny 4 --nz 4 --num_vars 2 --num_tsteps 1 \
        --input single_sphere";
    let reports = drive(&[
        miniamr("--variant mpi --refine_freq 0"),
        miniamr(small).wants(Digest("wrong", Some("0123456789abcdef"))),
        miniamr(small).has("no such line"),
    ]);
    let wrong = [
        ("exit 2, want 0", "--refine_freq: must be at least 1"),
        ("want 0123456789abcdef (class wrong)", "checksum_digest"),
        ("no output contains \"no such line\"", "msgs_sent"),
    ];
    assert_eq!(reports.len(), wrong.len(), "{reports:#?}");
    for (report, (why, tail)) in reports.iter().zip(wrong) {
        assert!(report.contains(why), "{report}");
        assert!(report.contains(&format!(
            "$ {} --variant mpi ",
            env!("CARGO_BIN_EXE_miniamr")
        )));
        assert!(report.contains(tail), "{report}");
    }
}
