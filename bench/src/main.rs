//! `ladder` — the repo's benchmark (see `bench/README.md`).
//!
//! ```text
//! ladder all [--seed N] [--rounds N] [--smoke]     every workload: end to end, then layers
//! ladder --workload W --seed N --seconds S --trace 0|1   one contract run, JSON on the last line
//! ladder compare OLD.json NEW.json                 bounds + pairing rule, exit 1 on regression
//! ladder self-check [--seed N]                     two full sets of the same build must agree
//! ladder dictionary [benchmark-json|markdown]      the metric dictionary
//! ladder run-one ...                               one run in this process (the sample child)
//! ```

mod alloc;
mod child;
mod compare;
mod e2e;
mod json;
mod layers;
mod metrics;
mod report;
mod span;
mod stats;
mod workloads;

use e2e::{Budget, Ops};
use json::Json;
use layers::Effort;
use metrics::{END_TO_END, PER_LAYER};
use report::{write_out, WorkloadResult, SETUP_ROUNDS};
use std::process::ExitCode;
use std::time::Duration;
use workloads::{Shape, Workload, WORKLOADS};

#[global_allocator]
static ALLOC: alloc::Counting = alloc::Counting;

/// Contract: how long one run measures (`run_seconds` of BENCHMARK.json).
const RUN_SECONDS: u64 = 28;

fn usage() -> ExitCode {
    eprintln!(
        "usage: ladder all [--seed N] [--rounds N] [--smoke]
       ladder --workload W --seed N --seconds S --trace 0|1
       ladder compare OLD.json NEW.json
       ladder self-check [--seed N]
       ladder dictionary [benchmark-json|markdown]
workloads: {}",
        WORKLOADS.map(|w| w.name).join(", ")
    );
    ExitCode::from(2)
}

// ---------------------------------------------------------------------------
// Host.

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

fn host_json() -> Json {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let env = |k: &str| std::env::var(k).unwrap_or_else(|_| "unknown".into());
    Json::obj([
        ("nproc", Json::from(nproc())),
        ("cpu", Json::Str(cpu)),
        (
            "llc_bytes",
            layers::llc_bytes().map_or(Json::Null, Json::from),
        ),
        // `bench/run.sh` exports these; a bare `ladder` has no way to know.
        ("rustc", Json::Str(env("LADDER_RUSTC"))),
        ("commit", Json::Str(env("LADDER_COMMIT"))),
        (
            "load",
            Json::str("2 ranks x 1 worker, closed loop, one parent process"),
        ),
    ])
}

fn print_host() {
    println!("host: {}", host_json());
}

// ---------------------------------------------------------------------------
// Measuring.

/// The seed-1 digest pinned for a workload at its own shape: bitwise
/// digest parity is the repo's correctness contract, so a changed digest
/// is a failed operation, not a new baseline.
fn check_pinned(wl: &Workload, seed: u64, shape: Shape, digest: &str, ops: &mut Ops) {
    if seed == 1 && shape.tsteps.is_none() && !shape.serial && digest != wl.seed1_digest {
        ops.failed += 1;
        ops.failures.push(format!(
            "{}: seed-1 digest {digest} differs from the pinned {}",
            wl.name, wl.seed1_digest
        ));
    }
}

struct Plan {
    seed: u64,
    /// Discarded warm-up runs before the timed rounds.
    warmup: usize,
    budget: Budget,
    setup: Budget,
    effort: Effort,
}

impl Plan {
    fn full(seed: u64, rounds: usize) -> Plan {
        Plan {
            seed,
            warmup: 3,
            budget: Budget::Rounds(rounds),
            setup: SETUP_ROUNDS,
            effort: Effort {
                rung: Duration::from_millis(300),
                serial_runs: 3,
                reruns: 3,
                shape: Shape::default(),
            },
        }
    }

    fn smoke(seed: u64) -> Plan {
        let shape = Shape {
            tsteps: Some(2),
            ..Shape::default()
        };
        Plan {
            seed,
            warmup: 0,
            budget: Budget::Rounds(1),
            setup: Budget::Rounds(1),
            effort: Effort {
                rung: Duration::from_millis(5),
                serial_runs: 1,
                reruns: 2,
                shape,
            },
        }
    }
}

/// End to end with tracing off, then the traced layers pass.
fn measure(wl: &'static Workload, plan: &Plan) -> WorkloadResult {
    println!("== {} (seed {}) — {}", wl.name, plan.seed, wl.why);
    println!("  miniamr {}", wl.flags());
    let (end_to_end, rounds, mut ops) = report::end_to_end(
        wl,
        plan.seed,
        plan.effort.shape,
        plan.warmup,
        plan.budget,
        plan.setup,
    );
    let digest = rounds.reference_digest.clone().unwrap_or_default();
    check_pinned(wl, plan.seed, plan.effort.shape, &digest, &mut ops);
    println!("  end to end (tracing off; n < 10 supports no tail percentile):");
    report::print_end_to_end(&end_to_end);
    println!("  digest {digest} on all variants");

    let (per_layer, layer_ops, spans) =
        report::layers_pass(wl, plan.seed, plan.effort, Some(&rounds));
    ops.absorb(layer_ops);
    println!("  per layer (traced pass):");
    report::print_per_layer(&per_layer);
    report::print_self_times(&spans);
    report::print_ops(&ops);
    WorkloadResult {
        workload: wl.name,
        seed: plan.seed,
        digest,
        end_to_end,
        per_layer,
        ops,
    }
}

fn results_json(results: &[WorkloadResult]) -> Json {
    Json::obj([
        ("host", host_json()),
        (
            "workloads",
            Json::obj(results.iter().map(|r| (r.workload, r.to_json()))),
        ),
    ])
}

fn measure_all(plan: &Plan) -> Vec<WorkloadResult> {
    WORKLOADS.iter().map(|wl| measure(wl, plan)).collect()
}

fn total_ops(results: &[WorkloadResult]) -> (u64, u64) {
    results
        .iter()
        .fold((0, 0), |(a, f), r| (a + r.ops.attempted, f + r.ops.failed))
}

fn cmd_all(args: &[String]) -> Result<ExitCode, String> {
    let (mut seed, mut rounds, mut smoke) = (1u64, e2e::FULL_ROUNDS, false);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--seed" => seed = parse(it.next(), "--seed")?,
            "--rounds" => rounds = parse(it.next(), "--rounds")?,
            "--smoke" => smoke = true,
            other => return Err(format!("all: unknown option {other}")),
        }
    }
    print_host();
    let plan = if smoke {
        Plan::smoke(seed)
    } else {
        Plan::full(seed, rounds.max(1))
    };
    let results = measure_all(&plan);
    write_out(
        if smoke { "smoke.json" } else { "results.json" },
        &results_json(&results),
    );
    let (attempted, failed) = total_ops(&results);
    println!("total: {attempted} operations attempted, {failed} failed");
    Ok(if failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

// ---------------------------------------------------------------------------
// The contract run.

fn parse<T: std::str::FromStr>(v: Option<&String>, flag: &str) -> Result<T, String> {
    v.ok_or_else(|| format!("{flag} needs a value"))?
        .parse()
        .map_err(|_| format!("{flag}: invalid value"))
}

fn cmd_contract(args: &[String]) -> Result<ExitCode, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 1u64, RUN_SECONDS, 0u8);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--workload" => workload = it.next().cloned(),
            "--seed" => seed = parse(it.next(), "--seed")?,
            "--seconds" => seconds = parse(it.next(), "--seconds")?,
            "--trace" => trace = parse(it.next(), "--trace")?,
            other => return Err(format!("unknown option {other}")),
        }
    }
    let name = workload.ok_or("--workload is required")?;
    let wl = workloads::find(&name).ok_or_else(|| format!("unknown workload {name}"))?;
    print_host();
    println!("== {} (seed {seed}) — {}", wl.name, wl.why);
    let shape = Shape::default();

    let (metrics, ops): (Vec<(&str, &str, f64)>, Ops) = if trace == 0 {
        let (values, rounds, mut ops) = report::end_to_end(
            wl,
            seed,
            shape,
            1,
            // The minimums are low on purpose: when the machine is in a
            // slow period a run shrinks its sample count, not the other
            // runs' share of the driver's total time.
            Budget::Seconds {
                secs: seconds as f64,
                min: 2,
                max: 15,
            },
            // Set-up runs take milliseconds: many of them, cheaply.
            Budget::Seconds {
                secs: 2.5,
                min: 5,
                max: 30,
            },
        );
        let digest = rounds.reference_digest.clone().unwrap_or_default();
        check_pinned(wl, seed, shape, &digest, &mut ops);
        report::print_end_to_end(&values);
        if !report::complete(&values) {
            report::print_ops(&ops);
            return Err("an end-to-end metric has no sample: every run of a variant failed".into());
        }
        let metrics = values
            .iter()
            .map(|m| (m.name, m.unit, m.summary.median))
            .collect();
        (metrics, ops)
    } else {
        // The contract's traced run has the same time budget as the
        // untraced one: about a sixth of it goes to the micro rungs.
        let effort = Effort {
            rung: Duration::from_millis(seconds * 4),
            serial_runs: 1,
            reruns: 2,
            shape,
        };
        let (values, mut ops, spans) = report::layers_pass(wl, seed, effort, None);
        report::print_per_layer(&values);
        report::print_self_times(&spans);
        let metrics = PER_LAYER
            .iter()
            .map(|m| {
                let v = values.iter().find(|(n, _)| *n == m.name).map(|(_, v)| *v);
                // A rung whose child failed has no value; the failure is
                // already counted, the line still needs a number.
                let v = v.filter(|v| v.is_finite()).unwrap_or_else(|| {
                    ops.failures.push(format!("{}: not measured", m.name));
                    0.0
                });
                (m.name, m.unit, v)
            })
            .collect();
        (metrics, ops)
    };
    report::print_ops(&ops);
    let correct = ops.failed == 0 && ops.failures.is_empty();
    let line = Json::obj([
        ("correct", Json::from(correct)),
        ("attempted", Json::from(ops.attempted.max(1))),
        ("failed", Json::from(ops.failed)),
        (
            "metrics",
            Json::obj(metrics.into_iter().map(|(name, unit, v)| {
                (
                    name,
                    Json::obj([("value", Json::Num(v)), ("unit", Json::str(unit))]),
                )
            })),
        ),
    ]);
    println!("{line}");
    Ok(ExitCode::SUCCESS)
}

// ---------------------------------------------------------------------------
// compare, self-check, dictionary.

fn read_json(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    Json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

fn cmd_compare(args: &[String]) -> Result<ExitCode, String> {
    let [old, new] = args else {
        return Err("compare needs OLD.json NEW.json".into());
    };
    let clean = compare::compare(&read_json(old)?, &read_json(new)?)?;
    Ok(if clean {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// Two full sets of the same build: every end-to-end median pair must
/// agree within the metric's bound, every exact count must be identical.
fn cmd_self_check(args: &[String]) -> Result<ExitCode, String> {
    let mut seed = 1u64;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--seed" => seed = parse(it.next(), "--seed")?,
            other => return Err(format!("self-check: unknown option {other}")),
        }
    }
    print_host();
    let plan = Plan::full(seed, e2e::FULL_ROUNDS);
    let sets = [measure_all(&plan), measure_all(&plan)];
    let mut disagreements = Vec::new();
    for (a, b) in sets[0].iter().zip(&sets[1]) {
        for m in &END_TO_END {
            let median = |r: &WorkloadResult| {
                r.end_to_end
                    .iter()
                    .find(|v| v.name == m.name)
                    .map(|v| v.summary.median)
            };
            match (median(a), median(b)) {
                (Some(x), Some(y)) => {
                    let gap = (x - y).abs() / x.min(y);
                    let ok = gap <= m.bound;
                    println!(
                        "{:<16} {:<22} {x:>10.4} {y:>10.4} gap {:>5.1}% bound {:>3.0}% {}",
                        a.workload,
                        m.name,
                        gap * 100.0,
                        m.bound * 100.0,
                        if ok { "agree" } else { "DISAGREE" }
                    );
                    if !ok {
                        disagreements.push(format!("{} {}", a.workload, m.name));
                    }
                }
                _ => disagreements.push(format!("{} {}: not measured", a.workload, m.name)),
            }
        }
        for m in PER_LAYER.iter().filter(|m| m.exact) {
            let value = |r: &WorkloadResult| {
                r.per_layer
                    .iter()
                    .find(|(n, _)| *n == m.name)
                    .map(|(_, v)| *v)
            };
            if value(a) != value(b) {
                println!(
                    "{:<16} {:<22} {:?} != {:?} COUNT DIFFERS",
                    a.workload,
                    m.name,
                    value(a),
                    value(b)
                );
                disagreements.push(format!("{} {}", a.workload, m.name));
            }
        }
    }
    let failed: u64 = sets.iter().map(|s| total_ops(s).1).sum();
    write_out(
        "self-check.json",
        &Json::obj([
            ("first", results_json(&sets[0])),
            ("second", results_json(&sets[1])),
            (
                "disagreements",
                Json::Arr(disagreements.iter().map(Json::str).collect()),
            ),
            ("failed_operations", Json::from(failed)),
        ]),
    );
    if disagreements.is_empty() && failed == 0 {
        println!("self-check: the two sets agree within every bound, counts identical");
        Ok(ExitCode::SUCCESS)
    } else {
        println!(
            "self-check: {} disagreements, {failed} failed operations",
            disagreements.len()
        );
        Ok(ExitCode::FAILURE)
    }
}

fn benchmark_json() -> String {
    let mut s = String::from("{\n");
    s += "  \"command\": [\"bash\", \"bench/run.sh\"],\n";
    s += "  \"paths\": [\"bench\"],\n";
    s += &format!("  \"run_seconds\": {RUN_SECONDS},\n");
    let rows = |rows: Vec<Json>| -> String {
        rows.iter()
            .map(|r| format!("    {r}"))
            .collect::<Vec<_>>()
            .join(",\n")
    };
    s += "  \"workloads\": [\n";
    s += &rows(
        WORKLOADS
            .iter()
            .map(|w| Json::obj([("name", Json::str(w.name)), ("why", Json::str(w.why))]))
            .collect(),
    );
    s += "\n  ],\n  \"end_to_end\": [\n";
    s += &rows(
        END_TO_END
            .iter()
            .map(|m| {
                Json::obj([
                    ("name", Json::str(m.name)),
                    ("unit", Json::str(m.unit)),
                    ("better", Json::str("lower")),
                    ("bound", Json::Num(m.bound)),
                ])
            })
            .collect(),
    );
    s += "\n  ],\n  \"per_layer\": [\n";
    s += &rows(
        PER_LAYER
            .iter()
            .map(|m| {
                Json::obj([
                    ("name", Json::str(m.name)),
                    ("unit", Json::str(m.unit)),
                    ("better", Json::str(m.better)),
                ])
            })
            .collect(),
    );
    s += "\n  ]\n}\n";
    s
}

fn cmd_dictionary(args: &[String]) -> Result<ExitCode, String> {
    match args.first().map(String::as_str) {
        Some("benchmark-json") => print!("{}", benchmark_json()),
        None | Some("markdown") => {
            println!("| end-to-end metric | unit | bound | what |\n|---|---|---|---|");
            for m in &END_TO_END {
                println!(
                    "| `{}` | {} | {:.0} % | {} |",
                    m.name,
                    m.unit,
                    m.bound * 100.0,
                    m.what
                );
            }
            println!("\n| per-layer metric | unit | better | measures | should move |\n|---|---|---|---|---|");
            for m in &PER_LAYER {
                println!(
                    "| `{}` | {} | {} | {} | {} |",
                    m.name, m.unit, m.better, m.measures, m.moves
                );
            }
        }
        Some(other) => return Err(format!("dictionary: unknown format {other}")),
    }
    Ok(ExitCode::SUCCESS)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (cmd, rest) = match args.split_first() {
        Some((cmd, rest)) => (cmd.as_str(), rest),
        None => ("all", &[][..]),
    };
    if cmd == "run-one" {
        return match child::ChildSpec::from_args(rest).and_then(|spec| child::run_one(&spec)) {
            Ok(line) => {
                println!("{line}");
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("ladder run-one: {e}");
                ExitCode::from(2)
            }
        };
    }
    let measures = matches!(cmd, "all" | "self-check") || cmd.starts_with("--");
    if measures && nproc() < 2 {
        eprintln!(
            "ladder: {} core available; the load is 2 ranks x 1 worker and needs 2",
            nproc()
        );
        return ExitCode::from(2);
    }
    let result = match cmd {
        "all" => cmd_all(rest),
        "compare" => cmd_compare(rest),
        "self-check" => cmd_self_check(rest),
        "dictionary" => cmd_dictionary(rest),
        _ if args.iter().any(|a| a == "--workload") => cmd_contract(&args),
        c if c.starts_with("--") => cmd_all(&args),
        _ => return usage(),
    };
    result.unwrap_or_else(|e| {
        eprintln!("ladder: {e}");
        ExitCode::from(2)
    })
}

#[cfg(test)]
mod tests {
    /// `BENCHMARK.json` is generated, never typed: regenerate it with
    /// `bench/run.sh dictionary benchmark-json > BENCHMARK.json`.
    #[test]
    fn benchmark_json_is_the_dictionary() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let on_disk = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert_eq!(on_disk, super::benchmark_json());
        assert!(on_disk.len() <= 64 * 1024);
        let parsed = super::Json::parse(&on_disk).expect("valid JSON");
        let keys: Vec<&str> = parsed.entries().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
    }
}
