//! `--metrics_jsonl`: a run streams an interim perf report to the file
//! every `--report_interval` timesteps of rank 0, one JSON object a line
//! with the report's top-level keys. Runs the real binary as a child
//! process, with a file of its own in the temporary directory.

use std::process::Command;

/// The top-level keys of `obs::report::PerfReport::to_json`, in order.
const KEYS: [&str; 12] = [
    "schema",
    "version",
    "ranks",
    "events",
    "dropped",
    "wall_us",
    "timesteps",
    "ranks_detail",
    "messages",
    "histograms",
    "overlap_fraction",
    "critical_path_wait_us",
];

/// The keys of the outermost object of a valid JSON text, in order.
fn top_level_keys(json: &str) -> Vec<String> {
    let (mut keys, mut depth, mut string) = (Vec::new(), 0, None::<String>);
    let mut chars = json.chars();
    while let Some(c) = chars.next() {
        if let Some(s) = &mut string {
            match c {
                '\\' => {
                    chars.next();
                }
                '"' => {
                    let s = string.take().expect("inside a string");
                    // A string at depth 1 followed by a colon is a key.
                    if depth == 1 && chars.clone().find(|c| !c.is_whitespace()) == Some(':') {
                        keys.push(s);
                    }
                }
                c => s.push(c),
            }
            continue;
        }
        match c {
            '"' => string = Some(String::new()),
            '{' | '[' => depth += 1,
            '}' | ']' => depth -= 1,
            _ => {}
        }
    }
    keys
}

#[test]
fn every_interim_report_line_is_one_perf_report_object() {
    let path = std::env::temp_dir().join(format!("miniamr-metrics-{}.jsonl", std::process::id()));
    let _ = std::fs::remove_file(&path);
    let out = Command::new(env!("CARGO_BIN_EXE_miniamr"))
        .args([
            "--variant",
            "dataflow",
            "--npx",
            "2",
            "--nx",
            "4",
            "--ny",
            "4",
            "--nz",
            "4",
        ])
        .args([
            "--num_vars",
            "4",
            "--num_tsteps",
            "4",
            "--stages_per_ts",
            "2",
        ])
        .args(["--report_interval", "1", "--metrics_jsonl"])
        .arg(&path)
        .output()
        .expect("run miniamr");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let body = std::fs::read_to_string(&path).expect("the JSONL file is written");
    std::fs::remove_file(&path).expect("remove the JSONL file");
    let lines: Vec<&str> = body.lines().collect();
    assert!(!lines.is_empty(), "no interim report in {}", path.display());
    for line in lines {
        obs::json::validate(line).unwrap_or_else(|e| panic!("{e}: {line}"));
        assert!(
            line.starts_with('{') && line.ends_with('}'),
            "not one object: {line}"
        );
        assert_eq!(top_level_keys(line), KEYS, "{line}");
        assert!(
            line.starts_with("{\"schema\":\"miniamr-perf-report\""),
            "{line}"
        );
    }
}
