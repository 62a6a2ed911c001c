#!/usr/bin/env bash
# Tier-1 CI gate: release build, full test suite, lint wall.
#
# Run from the repo root (or anywhere inside it). Mirrors what the
# driver enforces, plus `--workspace` so every crate's tests run, not
# just the root package's.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo build --release"
cargo build --release

# Speed gates, first: they time thread hand-offs, and after the minutes
# of sustained load of the stages below a shared 2-vCPU box runs those
# 2-3x slower and +-20% noisier than from idle (enough to flip the
# hier-vs-flat companion gate). Both bounds hold within one run, against
# a fixed figure or an in-run companion; speed against the parent commit
# is judged by alternating parent/change runs of the bench/ ladder.
# spawn_1000_chained replays a stable 1000-task chain and must stay under
# 1.5 ms/iter (the claim-table path took ~7.7 ms); the hierarchical
# allreduce must stay within 1.15x its flat companion (on the 2-vCPU box
# the two read about level, and the headroom absorbs scheduler noise).
echo "==> speed gates (spawn_1000_chained <= 1.5 ms, hier <= 1.15 x flat)"
cargo test --release -q -p amr-bench --test gates -- --ignored --test-threads 1 --nocapture

echo "==> cargo test -q (tier-1, root package)"
cargo test -q

# shmem maps its large arrays with mmap/munmap through FFI: its tests run
# optimised as well, where undefined behaviour in unsafe code tends to
# show that a debug build hides.
echo "==> cargo test --release -q -p shmem"
cargo test --release -q -p shmem

# This includes the scenario table (crates/core/tests/scenarios.rs): each
# run-and-compare check of the miniamr and dfcheck binaries is a row of it
# (digest parity, exit codes, output, static-check findings), as is the
# generated variant x feature matrix. What stays below needs the release
# binary or reads something a row cannot: a Chrome trace, a child's peak
# RSS, the harnesses' stdout.
echo "==> cargo test --workspace -q (all crates)"
cargo test --workspace -q

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo fmt --check"
cargo fmt --check

# Every intra-doc link must resolve (links to private items only warn).
echo "==> cargo doc (broken intra-doc links are errors)"
RUSTDOCFLAGS="-D rustdoc::broken_intra_doc_links" cargo doc --workspace --no-deps

# The benchmark ladder is a workspace of its own, so nothing above builds
# it: compile and test it against the crates, and check that a short run
# still reproduces its pinned digests.
echo "==> bench/run.sh test"
bench/run.sh test
echo "==> bench/run.sh --smoke"
bench/run.sh --smoke >/dev/null
# The traced contract pass is where every rung is checked for having been
# measured: `--smoke` exits 0 on a rung that is "not measured", while the
# pipeline reads `"correct"` off the last line of this run.
for workload in coarse_compute tasks_fine regrid_churn net_overlap; do
  echo "==> bench/run.sh --workload $workload --trace 1"
  verdict="$(bench/run.sh --workload "$workload" --seed 1 --seconds 4 --trace 1 | tail -1)"
  if ! grep -q '"correct": true' <<<"$verdict"; then
    echo "traced contract run of $workload is not correct" >&2
    echo "${verdict:0:2000}" >&2
    exit 1
  fi
done

# --- Traced smoke runs and the watchdog self-test ---------------------------
# The root `cargo build --release` only builds the root package; the
# miniamr CLI binary needs an explicit -p.
echo "==> cargo build --release -p miniamr"
cargo build --release -p miniamr
MINIAMR=target/release/miniamr

# Traced smoke run: each variant must produce a merged Chrome trace that
# parses as JSON and contains every rank's process metadata. On data-flow,
# `--metrics` must read the runtime's counts as the TSV does (each fact is
# counted once, by the runtime, and published when it is dropped), and
# print no `core.*` metric (RunStats is the record of those counts).
for variant in mpi forkjoin dataflow; do
  echo "==> traced smoke run: $variant"
  trace="$(mktemp /tmp/miniamr-trace-XXXXXX.json)"
  out="$("$MINIAMR" --variant "$variant" --npx 2 --npy 2 --nx 6 --ny 6 --nz 6 \
      --num_vars 4 --num_tsteps 2 --input single_sphere \
      --trace-json "$trace" --metrics)"
  python3 - "$trace" <<'PY'
import json, sys
events = json.load(open(sys.argv[1]))["traceEvents"]
ranks = {e["pid"] for e in events
         if e.get("ph") == "M" and e.get("name") == "process_name"
         and e["args"]["name"].startswith("rank ")}
assert ranks == {0, 1, 2, 3}, f"expected ranks 0..3 in trace, got {sorted(ranks)}"
PY
  rm -f "$trace"
  if [ "$variant" = dataflow ]; then
    python3 - "$out" <<'PY'
import sys
rows = dict(l.split("\t", 1) for l in sys.argv[1].splitlines() if "\t" in l)
for metric, tsv in [("taskrt.tasks_spawned", "tasks_spawned"),
                    ("taskrt.replayed_tasks", "tasks_replayed"),
                    ("taskrt.trace_records", "trace_records"),
                    ("taskrt.trace_hits", "trace_hits"),
                    ("taskrt.trace_closes", "trace_closes")]:
    assert rows["metric:" + metric] == rows[tsv], (
        f"metric:{metric} {rows['metric:' + metric]} != {tsv} {rows[tsv]}")
core = [k for k in rows if k.startswith("metric:core.")]
assert not core, f"core metrics are RunStats' to report: {core}"
PY
  fi
done

# Watchdog self-test: the seed's group-offset bug (kept behind
# --legacy_group_offsets) deadlocks the data-flow variant; the stall
# watchdog must detect it, dump blocked tasks + unmatched messages, and
# exit 86 instead of hanging. Exactly where the hang lands is
# scheduling-dependent — occasionally the mailboxes are drained and only
# blocked tasks remain — so retry until one run shows both sections. It
# runs here, on the release binary: a debug build can fail this scenario
# with a panic (exit 101) before the watchdog's 3 s are up.
echo "==> watchdog self-test (known-deadlock config)"
wd_ok=0
for attempt in 1 2 3; do
  set +e
  wd_out="$(timeout 60 "$MINIAMR" --variant dataflow --comm_vars 3 --send_faces \
      --npx 2 --nx 6 --ny 6 --nz 6 --num_vars 8 --num_tsteps 3 \
      --input single_sphere --legacy_group_offsets --watchdog_ms 3000 2>&1)"
  wd_rc=$?
  set -e
  if [ "$wd_rc" -ne 86 ]; then
    echo "watchdog self-test: expected exit 86, got $wd_rc (attempt $attempt)" >&2
    echo "$wd_out" >&2
    exit 1
  fi
  # No pipes here: with pipefail, `grep -q` exiting at the first match
  # SIGPIPEs the echo and fails the pipeline despite the match.
  if grep -q "unmatched" <<<"$wd_out" && grep -q "pending tasks" <<<"$wd_out"; then
    wd_ok=1
    break
  fi
  echo "    attempt $attempt: exit 86 but dump incomplete; retrying"
done
if [ "$wd_ok" -ne 1 ]; then
  echo "watchdog dump never showed both unmatched messages and pending tasks" >&2
  echo "$wd_out" >&2
  exit 1
fi

# --- Checkpoint storage ------------------------------------------------------
# A checkpoint is one copy of the rank's block interiors, retaken in place.
# On the regrid_churn flags (bench/src/workloads.rs, 2 ranks x 1 worker)
# --ckpt_freq 4 must print the digest of the checkpoint-free run on every
# variant, and MPI-only's peak RSS may be at most 1.6x the checkpoint-free
# run's: ghosted copies with two snapshots alive per rank read 2.37x,
# interior-only copies retaken in place 1.38x.
churn_mesh=(--npx 2 --workers 1 --init_x 2 --init_y 2 --init_z 2
            --nx 8 --ny 8 --nz 8 --num_vars 10 --num_refine 2
            --input single_sphere --num_tsteps 24 --stages_per_ts 2
            --checksum_freq 2 --refine_freq 1 --lb sfc)
echo "==> checkpoint storage: digests, MPI-only peak RSS <= 1.6 x --ckpt_freq 0"
timeout 300 python3 - "$MINIAMR" "${churn_mesh[@]}" <<'PY'
import os, subprocess, sys

miniamr, mesh = sys.argv[1], sys.argv[2:]

def run(variant, freq):
    """Digest and peak RSS (MB, the child's ru_maxrss) of one run."""
    args = [miniamr, "--variant", variant, *mesh, "--ckpt_freq", freq]
    child = subprocess.Popen(args, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    out = child.stdout.read()
    _, status, usage = os.wait4(child.pid, 0)
    digests = [l.split()[1] for l in out.splitlines() if l.startswith("checksum_digest")]
    if os.waitstatus_to_exitcode(status) != 0 or len(digests) != 1:
        sys.exit(f"checkpoint storage: {variant} --ckpt_freq {freq} failed:\n{out}")
    return digests[0], usage.ru_maxrss / 1024

for variant in ["mpi", "forkjoin", "dataflow"]:
    (with_ck, rss_ck), (without, rss_none) = run(variant, "4"), run(variant, "0")
    ratio = rss_ck / rss_none
    print(f"{variant}: digest {with_ck}, peak RSS {rss_ck:.1f} MB vs {rss_none:.1f} MB ({ratio:.2f}x)")
    if with_ck != without:
        sys.exit(f"checkpoint storage: {variant} digest {with_ck} != {without} without checkpoints")
    if variant == "mpi" and ratio > 1.6:
        sys.exit(f"checkpoint storage: MPI-only checkpoints cost {ratio:.2f}x peak RSS (> 1.6x)")
PY

# --- Paper harnesses on the simulator --------------------------------------
# Table II reproduction: the full-size granularity sweep must place the
# optimum message count inside the paper's 4..16 band with
# one-message-per-face worst. The binary's own shape_checks (including
# the optimum-band check, which only runs at full size) exit non-zero on
# failure; the grep below is a belt-and-braces guard on the headline.
# Its 64-node sweep drives the fabric's fair-share drain harder than any
# other harness, so its stdout is also pinned byte for byte.
echo "==> table2 granularity sweep (shared fabric cost model, stdout pinned)"
t2_out="$(cargo run --release -q -p amr-bench --bin table2)"
echo "$t2_out"
if ! grep -qE "^# observed optimum: (4|8|16) " <<<"$t2_out"; then
  echo "table2: observed optimum outside the paper's 4..16 band" >&2
  exit 1
fi
if ! diff <(printf '%s\n' "$t2_out") scripts/golden/table2.txt >&2; then
  echo "table2: stdout differs from the golden file" >&2
  exit 1
fi

# The only harness that drives coalesced and hierarchical plans through
# the simulator; its shape checks exit non-zero on failure.
echo "==> coll_ablation (hier collectives + coalescing, simulated)"
cargo run --release -q -p amr-bench --bin coll_ablation

# The simulator's regrid accounting (plan rounds, split/merge copies,
# block moves) priced per execution model; the harness exits non-zero
# when its shape checks fail.
echo "==> refine_ablation --quick (refinement costs, simulated)"
cargo run --release -q -p amr-bench --bin refine_ablation -- --quick

# The simulator at scale: to 64 nodes, weak_scaling --quick plans,
# partitions and builds the comm plan of meshes of 10k+ blocks, which no
# live test reaches. Its stdout is pinned byte for byte against the
# golden file. At --quick scale one shape check ("data-flow advantage
# grows with scale") fails and the harness exits 1; that line is part of
# the golden output, and any other non-zero exit (a panic) fails here.
echo "==> weak_scaling --quick --max-nodes 64 (stdout pinned)"
ws_rc=0
ws_out="$(cargo run --release -q -p amr-bench --bin weak_scaling -- --quick --max-nodes 64)" \
    || ws_rc=$?
if [ "$ws_rc" -gt 1 ]; then
  echo "weak_scaling --quick --max-nodes 64 exited $ws_rc" >&2
  exit 1
fi
if ! diff <(printf '%s\n' "$ws_out") scripts/golden/weak_scaling_quick_64.txt >&2; then
  echo "weak_scaling --quick --max-nodes 64: stdout differs from the golden file" >&2
  exit 1
fi

# --- Perf report: schema, telescoping, overlap, flow arrows -----------------
# The 4-rank data-flow smoke must emit a schema-valid perf report whose
# per-timestep critical-path categories telescope to the window's
# wall-clock exactly (so the 5% acceptance bound holds by construction),
# whose per-rank overlap fractions are fractions, and whose Perfetto
# export carries balanced send->recv flow arrows.
# --obs_ring 262144 keeps every event; the report's own "dropped" field
# is the overflow guard.
echo "==> causal perf analyzer: 4-rank dataflow report"
perf_json="$(mktemp /tmp/miniamr-perf-XXXXXX.json)"
perf_trace="$(mktemp /tmp/miniamr-perftrace-XXXXXX.json)"
timeout 120 "$MINIAMR" --variant dataflow --npx 2 --npy 2 \
    --nx 8 --ny 8 --nz 8 --num_vars 4 --num_tsteps 4 --input single_sphere \
    --obs_ring 262144 --perf_report "$perf_json" \
    --trace-json "$perf_trace" >/dev/null 2>&1
python3 - "$perf_json" "$perf_trace" <<'PY'
import json, sys
doc = json.load(open(sys.argv[1]))
assert doc.get("schema") == "miniamr-perf-report" and doc.get("version") == 1, "bad schema"
assert doc["dropped"] == 0, f"ring overflow dropped {doc['dropped']} events"
assert len(doc["timesteps"]) == 4, f"expected 4 windows, got {len(doc['timesteps'])}"
for t in doc["timesteps"]:
    cp = t["critical_path"]
    cats = (cp["compute_us"] + cp["pack_us"] + cp["transit_us"]
            + cp["wait_us"] + cp["runtime_us"])
    assert cats == cp["total_us"], (
        f"tstep {t['tstep']}: categories {cats} != total {cp['total_us']}")
    assert abs(cats - t["wall_us"]) <= 0.05 * t["wall_us"], (
        f"tstep {t['tstep']}: path {cats} vs wall {t['wall_us']}")
    assert cp["nodes"] > 0, f"tstep {t['tstep']} walked no nodes"
assert len(doc["ranks_detail"]) == 4, "expected 4 ranks in the report"
for r in doc["ranks_detail"]:
    assert 0.0 <= r["overlap_fraction"] <= 1.0, (
        f"rank {r['rank']}: overlap {r['overlap_fraction']} outside [0, 1]")
trace = open(sys.argv[2]).read()
s, f = trace.count('"ph":"s"'), trace.count('"ph":"f"')
assert s > 0 and s == f, f"flow arrows unbalanced: {s} starts vs {f} finishes"
PY

rm -f "$perf_json" "$perf_trace"

# --- Figures 1-3 on the one event bus ---------------------------------------
# The full trace_figs run reads every number of Figs. 1-3 from one drained
# span graph per variant (tasks under their labels, main-thread spans under
# their kinds). It must pass both SHAPE checks, lose no event, and write a
# Chrome export that parses. (--quick sits too close to the overlap bound.)
echo "==> trace_figs: Figs. 1-3 from the event bus"
figs_trace="$(mktemp /tmp/trace-figs-XXXXXX.json)"
figs_out="$(timeout 300 cargo run --release -q -p amr-bench --bin trace_figs -- \
    --trace-json "$figs_trace")"
echo "$figs_out"
FIGS_OUT="$figs_out" python3 - "$figs_trace" <<'PY'
import json, os, sys
out = os.environ["FIGS_OUT"].splitlines()
shapes = [l for l in out if l.startswith("SHAPE")]
assert len(shapes) == 2 and all(l.startswith("SHAPE PASS") for l in shapes), shapes
drops = [l.split("\t") for l in out if l.startswith("events\t")]
assert len(drops) == 2, f"expected two event counts, got {drops}"
for d in drops:
    assert d[3] == "0", f"the rings dropped {d[3]} of {d[1]} events"
doc = json.load(open(sys.argv[1]))
assert doc["traceEvents"], "empty Chrome export"
PY
rm -f "$figs_trace"

echo "CI OK"
