//! Measuring one workload and reporting it: the end-to-end metrics from
//! the sampled rounds, the per-layer values, the result record written to
//! `bench/out/`, and the human-readable listing.

use crate::e2e::{sample_rounds, Budget, Ops, Rounds};
use crate::json::Json;
use crate::layers::{self, Effort, Values};
use crate::metrics::{self, END_TO_END};
use crate::span::Spans;
use crate::stats::{summarize, Summary};
use crate::workloads::{Shape, Workload};
use miniamr::Variant;
use std::path::Path;

/// Where result files and traces go (relative to the repo root, which
/// `bench/run.sh` makes the working directory).
pub const OUT_DIR: &str = "bench/out";

/// One end-to-end metric of one workload.
pub struct E2eValue {
    pub name: &'static str,
    pub unit: &'static str,
    pub summary: Summary,
    /// The values behind the summary, in round order (for pairing).
    pub samples: Vec<f64>,
}

/// Everything measured on one workload.
pub struct WorkloadResult {
    pub workload: &'static str,
    pub seed: u64,
    pub digest: String,
    pub end_to_end: Vec<E2eValue>,
    pub per_layer: Values,
    pub ops: Ops,
}

/// Rounds behind `setup_s` in a full run (n = 9 per variant).
pub const SETUP_ROUNDS: Budget = Budget::Rounds(9);

/// The end-to-end pass: timed rounds, then the set-up rounds (last, so
/// they run on a machine the timed rounds have warmed up).
pub fn end_to_end(
    wl: &Workload,
    seed: u64,
    shape: Shape,
    warmup: usize,
    budget: Budget,
    setup: Budget,
) -> (Vec<E2eValue>, Rounds, Ops) {
    let rounds = sample_rounds(wl.name, seed, shape, warmup, budget, None);
    let setup_shape = Shape {
        tsteps: Some(0),
        ..shape
    };
    let setup = sample_rounds(wl.name, seed, setup_shape, 0, setup, None);
    let mut ops = rounds.ops.clone();
    ops.absorb(setup.ops.clone());

    let mut values = Vec::new();
    let mut push = |name: &str, samples: Vec<f64>, summary: Summary| {
        let m = metrics::end_to_end(name).expect("a dictionary metric");
        values.push(E2eValue {
            name: m.name,
            unit: m.unit,
            summary,
            samples,
        });
    };
    for (name, v) in [
        ("run_s.mpi", Variant::MpiOnly),
        ("run_s.forkjoin", Variant::ForkJoin),
        ("run_s.dataflow", Variant::DataFlow),
    ] {
        let samples = rounds.values(v, "wall_s");
        if !samples.is_empty() {
            push(name, samples.clone(), summarize(&samples));
        }
    }
    // setup_s: the sum over the variants of each one's median; its
    // quartiles are summed the same way, its samples are per-round sums.
    let per_variant: Vec<Vec<f64>> = crate::child::VARIANTS
        .into_iter()
        .map(|v| setup.values(v, "wall_s"))
        .collect();
    if per_variant.iter().all(|s| !s.is_empty()) {
        let sums: Vec<Summary> = per_variant.iter().map(|s| summarize(s)).collect();
        let n = per_variant.iter().map(Vec::len).min().unwrap_or(0);
        let samples = (0..n)
            .map(|i| per_variant.iter().map(|s| s[i]).sum())
            .collect();
        let total = Summary {
            median: sums.iter().map(|s| s.median).sum(),
            q1: sums.iter().map(|s| s.q1).sum(),
            q3: sums.iter().map(|s| s.q3).sum(),
            n,
        };
        push("setup_s", samples, total);
    }
    for (name, v) in [
        ("peak_rss_mb.mpi", Variant::MpiOnly),
        ("peak_rss_mb.dataflow", Variant::DataFlow),
    ] {
        let samples: Vec<f64> = rounds
            .values(v, "peak_rss_kb")
            .iter()
            .map(|kb| kb / 1024.0)
            .collect();
        if !samples.is_empty() {
            push(name, samples.clone(), summarize(&samples));
        }
    }
    (values, rounds, ops)
}

/// Writes one JSON file into [`OUT_DIR`]; a failure is reported, not fatal
/// (the numbers are on stdout already).
pub fn write_out(name: &str, json: &Json) {
    let path = Path::new(OUT_DIR).join(name);
    let written =
        std::fs::create_dir_all(OUT_DIR).and_then(|()| std::fs::write(&path, format!("{json}\n")));
    match written {
        Ok(()) => println!("wrote {}", path.display()),
        Err(e) => eprintln!("ladder: cannot write {}: {e}", path.display()),
    }
}

/// The traced layers pass; writes `bench/out/trace-<workload>.json`.
pub fn layers_pass(
    wl: &Workload,
    seed: u64,
    effort: Effort,
    rounds: Option<&Rounds>,
) -> (Values, Ops, Spans) {
    let mut spans = Spans::new(wl.name);
    let (values, ops) = layers::run(wl, seed, effort, rounds, &mut spans);
    write_out(&format!("trace-{}.json", wl.name), &spans.to_chrome_json());
    (values, ops, spans)
}

// ---------------------------------------------------------------------------
// Output.

fn fmt_value(v: f64) -> String {
    if !v.is_finite() {
        "n/a".to_string()
    } else if v != 0.0 && v.abs() < 0.01 {
        format!("{v:.3e}")
    } else {
        format!("{v:.4}")
    }
}

pub fn print_end_to_end(values: &[E2eValue]) {
    for m in values {
        let s = &m.summary;
        println!(
            "  {:<38} {:>12} {:<6} q1 {} q3 {} n {} spread {:.1}%",
            m.name,
            fmt_value(s.median),
            m.unit,
            fmt_value(s.q1),
            fmt_value(s.q3),
            s.n,
            s.spread() * 100.0,
        );
    }
}

pub fn print_per_layer(values: &Values) {
    for (name, v) in values {
        let unit = metrics::per_layer(name).map_or("", |m| m.unit);
        let flag = match *name {
            "core.ladder_pred_over_meas.mpi" if !(0.8..=1.25).contains(v) => {
                "  <- outside 0.8-1.25: the rungs do not add up to the run"
            }
            _ => "",
        };
        println!("  {:<38} {:>12} {:<6}{flag}", name, fmt_value(*v), unit);
    }
}

/// Per-span self time, largest first.
pub fn print_self_times(spans: &Spans) {
    let selfs = spans.self_times_ns();
    let mut rows: Vec<(&str, u64, u64, u64)> = Vec::new();
    for (s, self_ns) in spans.spans().iter().zip(selfs) {
        match rows.iter_mut().find(|r| r.0 == s.name) {
            Some(r) => {
                r.1 += self_ns;
                r.2 += s.dur_ns();
                r.3 += s.count;
            }
            None => rows.push((&s.name, self_ns, s.dur_ns(), s.count)),
        }
    }
    rows.sort_by_key(|r| std::cmp::Reverse(r.1));
    println!("  span                                   self_ms     total_ms        count");
    for (name, self_ns, dur_ns, count) in rows {
        println!(
            "  {:<36} {:>9.2} {:>12.2} {:>12}",
            name,
            self_ns as f64 / 1e6,
            dur_ns as f64 / 1e6,
            count
        );
    }
}

pub fn print_ops(ops: &Ops) {
    println!(
        "  operations: {} attempted, {} failed",
        ops.attempted, ops.failed
    );
    for why in &ops.failures {
        println!("  FAILED: {why}");
    }
}

fn summary_json(m: &E2eValue) -> Json {
    Json::obj([
        ("unit", Json::str(m.unit)),
        ("median", Json::Num(m.summary.median)),
        ("q1", Json::Num(m.summary.q1)),
        ("q3", Json::Num(m.summary.q3)),
        ("n", Json::from(m.summary.n)),
        (
            "samples",
            Json::Arr(m.samples.iter().map(|v| Json::Num(*v)).collect()),
        ),
    ])
}

impl WorkloadResult {
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("seed", Json::from(self.seed)),
            ("digest", Json::str(&self.digest)),
            ("attempted", Json::from(self.ops.attempted)),
            ("failed", Json::from(self.ops.failed)),
            (
                "end_to_end",
                Json::obj(self.end_to_end.iter().map(|m| (m.name, summary_json(m)))),
            ),
            (
                "per_layer",
                Json::obj(self.per_layer.iter().map(|(name, v)| {
                    let unit = metrics::per_layer(name).map_or("", |m| m.unit);
                    (
                        *name,
                        Json::obj([("unit", Json::str(unit)), ("value", Json::Num(*v))]),
                    )
                })),
            ),
        ])
    }
}

/// True when every end-to-end metric of the dictionary was measured.
pub fn complete(values: &[E2eValue]) -> bool {
    END_TO_END
        .iter()
        .all(|m| values.iter().any(|v| v.name == m.name))
}
