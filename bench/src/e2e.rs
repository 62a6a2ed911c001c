//! End-to-end sampling: every sample is a fresh `ladder run-one` child.
//!
//! Noise protocol: one discarded warm-up round (the first processes after
//! idle are 20–70 % slow on the sizing VM), then rounds taken round-robin
//! across the three variants so drift hits all equally.

use crate::child::{variant_name, ChildSpec, VARIANTS};
use crate::json::Json;
use crate::span::Spans;
use crate::stats::median;
use crate::workloads::Shape;
use miniamr::Variant;
use std::collections::BTreeMap;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

/// A child that runs longer than this is killed and counted as failed.
const CHILD_TIMEOUT: Duration = Duration::from_secs(120);

/// Every timed child run is one operation.
#[derive(Debug, Default, Clone)]
pub struct Ops {
    pub attempted: u64,
    pub failed: u64,
    /// Why each failed operation failed.
    pub failures: Vec<String>,
}

impl Ops {
    pub fn absorb(&mut self, other: Ops) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.failures.extend(other.failures);
    }

    fn fail(&mut self, why: String) {
        self.failed += 1;
        self.failures.push(why);
    }
}

/// Runs one child to completion and parses its result line. `Err` names
/// the failure: spawn error, timeout, non-zero exit or unparsable output.
pub fn run_child(spec: &ChildSpec) -> Result<Json, String> {
    let what = format!(
        "{} {} seed {}",
        spec.workload,
        variant_name(spec.variant),
        spec.seed
    );
    let exe = std::env::current_exe().map_err(|e| format!("{what}: current_exe: {e}"))?;
    let mut child = Command::new(exe)
        .args(spec.to_args())
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .spawn()
        .map_err(|e| format!("{what}: spawn: {e}"))?;
    let start = Instant::now();
    // The child's walls are measured inside it; this poll only bounds
    // its lifetime. Its single result line fits the pipe buffer, so it
    // never blocks on a full pipe before exiting.
    let status = loop {
        match child.try_wait() {
            Ok(Some(status)) => break status,
            Ok(None) if start.elapsed() > CHILD_TIMEOUT => {
                // Kill and reap; both only fail if it already exited.
                let _ = child.kill();
                let _ = child.wait();
                return Err(format!("{what}: timed out after {CHILD_TIMEOUT:?}"));
            }
            Ok(None) => std::thread::sleep(Duration::from_millis(5)),
            Err(e) => return Err(format!("{what}: wait: {e}")),
        }
    };
    let mut out = String::new();
    if let Some(mut stdout) = child.stdout.take() {
        use std::io::Read;
        stdout
            .read_to_string(&mut out)
            .map_err(|e| format!("{what}: read: {e}"))?;
    }
    if !status.success() {
        return Err(format!("{what}: exit {status}"));
    }
    let line = out.lines().last().unwrap_or("");
    Json::parse(line).map_err(|e| format!("{what}: bad result line: {e}"))
}

/// The samples of one workload and seed: per variant, the result lines of
/// the rounds that counted.
#[derive(Default)]
pub struct Rounds {
    pub samples: BTreeMap<&'static str, Vec<Json>>,
    pub ops: Ops,
    /// MPI-only digest of this seed: the reference every sample must equal.
    pub reference_digest: Option<String>,
}

impl Rounds {
    pub fn of(&self, v: Variant) -> &[Json] {
        self.samples.get(variant_name(v)).map_or(&[], Vec::as_slice)
    }

    pub fn values(&self, v: Variant, field: &str) -> Vec<f64> {
        self.of(v).iter().map(|s| s.num(field)).collect()
    }

    /// Median of a field over a variant's samples; NaN without samples.
    pub fn median_of(&self, v: Variant, field: &str) -> f64 {
        let values = self.values(v, field);
        if values.is_empty() {
            f64::NAN
        } else {
            median(&values)
        }
    }

    /// Median of per-round ratios `field(MpiOnly) / field(v)` — for a wall
    /// time, `v`'s speed relative to MPI-only (> 1: `v` wins). Paired by
    /// round, so drift between rounds cancels.
    pub fn paired_ratio(&self, v: Variant, field: &str) -> Option<f64> {
        let ratios: Vec<f64> = self
            .values(v, field)
            .iter()
            .zip(self.values(Variant::MpiOnly, field))
            .map(|(own, mpi)| mpi / own)
            .collect();
        (!ratios.is_empty()).then(|| median(&ratios))
    }

    /// Checks one child result and files it. A run fails on
    /// `checksums_failed > 0` or a digest other than the reference.
    fn file(&mut self, spec: &ChildSpec, result: Result<Json, String>, keep: bool) {
        self.ops.attempted += 1;
        let line = match result {
            Ok(line) => line,
            Err(why) => return self.ops.fail(why),
        };
        let what = format!("{} {}", spec.workload, variant_name(spec.variant));
        let digest = line.get("digest").and_then(Json::as_str).unwrap_or("");
        let reference = self
            .reference_digest
            .get_or_insert_with(|| digest.to_string());
        if line.num("checksums_failed") > 0.0 {
            self.ops.fail(format!("{what}: checksums failed"));
        } else if digest != reference {
            self.ops
                .fail(format!("{what}: digest {digest} != mpi digest {reference}"));
        } else if keep {
            self.samples
                .entry(variant_name(spec.variant))
                .or_default()
                .push(line);
        }
    }
}

/// How many rounds to take.
#[derive(Clone, Copy)]
pub enum Budget {
    /// Exactly this many rounds.
    Rounds(usize),
    /// Rounds until the next one would end later than `secs` after the
    /// start (warm-up included), judged by the rounds before it; at least
    /// `min`, at most `max`.
    Seconds { secs: f64, min: usize, max: usize },
}

/// Rounds of a full run: n = 9.
pub const FULL_ROUNDS: usize = 9;

/// Rounds of mpi → forkjoin → dataflow, after `warmup` discarded runs
/// (the first `warmup` variants in that order: 3 is a whole warm-up
/// round, 1 a single MPI-only run). The first MPI-only run fixes the
/// reference digest. With `spans`, every child is recorded as an
/// `e2e.run.<variant>` span.
pub fn sample_rounds(
    workload: &str,
    seed: u64,
    shape: Shape,
    warmup: usize,
    budget: Budget,
    mut spans: Option<&mut Spans>,
) -> Rounds {
    let mut rounds = Rounds::default();
    let mut run = |rounds: &mut Rounds, variants: &[Variant], keep: bool| {
        for &v in variants {
            let mut spec = ChildSpec::new(workload, v, seed);
            spec.shape = shape;
            let result = match spans.as_deref_mut() {
                Some(spans) => spans.record(&format!("e2e.run.{}", variant_name(v)), |_| {
                    (run_child(&spec), 1)
                }),
                None => run_child(&spec),
            };
            rounds.file(&spec, result, keep);
        }
    };
    let start = Instant::now();
    run(&mut rounds, &VARIANTS[..warmup.min(VARIANTS.len())], false);
    let mut taken = 0;
    loop {
        let go = match budget {
            Budget::Rounds(n) => taken < n,
            Budget::Seconds { secs, min, max } => {
                let elapsed = start.elapsed().as_secs_f64();
                let per_round = elapsed / (taken as f64 + 0.5);
                taken < min || (taken < max && elapsed + per_round <= secs)
            }
        };
        if !go {
            return rounds;
        }
        run(&mut rounds, &VARIANTS, true);
        taken += 1;
    }
}
