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

# Micro-bench gates, first: they time thread hand-offs, and after the
# minutes of sustained load of the stages below a shared 2-vCPU box runs
# those 2-3x slower and +-20% noisier than from idle (enough to flip the
# hier-vs-flat companion gate). Only in-run gates for the same reason —
# a BENCH_PRn.json was recorded in another machine state; speed against
# the parent commit is judged by alternating parent/change runs of the
# bench/ ladder.
# spawn_1000_chained replays a stable 1000-task chain and must stay
# under 1.5 ms/iter (the PR 5 claim-table path took ~7.7 ms).
echo "==> micro-bench gates (spawn_1000_chained <= 1.5 ms, hier <= 1.15 x flat)"
bench_json="$(mktemp /tmp/miniamr-bench-XXXXXX.json)"
rm -f "$bench_json"  # the shim appends; start clean
CRITERION_JSON="$bench_json" cargo bench -q -p amr-bench --bench runtime >/dev/null
python3 - "$bench_json" <<'PY'
import json, sys
runs = {(r["group"], r["name"]): r["ns_per_iter"]
        for r in map(json.loads, open(sys.argv[1]))}
chained = runs[("taskrt", "spawn_1000_chained")]
assert chained <= 1_500_000, f"spawn_1000_chained too slow: {chained:.0f} ns/iter"
# No replay-vs-fresh ratio any more: each write of the chain covers the
# entry before it, so fresh analysis scans one entry per spawn instead of
# the whole chain and costs about what replay does on this shape.
# Collective gate (PR 10): the hierarchical allreduce must not lose to
# its in-run flat companion. It typically wins by 3-10% (BENCH_PR10.json
# pins a measured run); the 15% headroom only absorbs scheduler noise on
# a shared single-core box — the companion controls for machine drift.
hier = runs[("vmpi", "allreduce_8ranks")]
flat = runs[("vmpi", "allreduce_8ranks_flat")]
assert hier <= flat * 1.15, (
    f"hier allreduce regressed past its flat companion: {hier:.0f} vs {flat:.0f} ns/iter")
PY
rm -f "$bench_json"

echo "==> cargo test -q (tier-1, root package)"
cargo test -q

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

# --- Observability smoke tests (PR 2) -------------------------------------
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
                    ("taskrt.replayed_tasks", "tasks_replayed")]:
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
# blocked tasks remain — so retry until one run shows both sections.
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

# --- Sanitizer smoke tests (PR 3) -----------------------------------------
# All three variants must run clean under --sanitize: zero violations,
# checksums still validated, exit 0.
for variant in mpi forkjoin dataflow; do
  echo "==> sanitized smoke run: $variant"
  san_out="$("$MINIAMR" --variant "$variant" --sanitize --npx 2 --npy 2 \
      --nx 6 --ny 6 --nz 6 --num_vars 4 --num_tsteps 2 \
      --input single_sphere 2>&1)"
  if ! grep -q "depsan: no violations detected" <<<"$san_out"; then
    echo "sanitized $variant run did not report a clean bill" >&2
    echo "$san_out" >&2
    exit 1
  fi
done

# Variable groups of uneven size (5 variables in groups of 2, 2, 1): a
# message's tag and buffer slot are reused at another size by the next
# group, in order only because the slot's WAR edge serialises the two
# sends. The tag-size lint used to flag exactly that (exit 97). Every
# variant takes its spans and sections from the one buffer layout, and
# fork-join's unpack chunks declare them, so all three are checked.
for variant in mpi forkjoin dataflow; do
  for faces in "" "--send_faces"; do
    echo "==> sanitized uneven variable groups: $variant $faces"
    # shellcheck disable=SC2086
    san_out="$(timeout 120 "$MINIAMR" --variant "$variant" --sanitize --comm_vars 2 \
        --num_vars 5 --num_tsteps 2 --stages_per_ts 4 $faces 2>&1)"
    if ! grep -q "depsan: no violations detected" <<<"$san_out"; then
      echo "sanitized uneven-group run $variant $faces did not report a clean bill" >&2
      echo "$san_out" >&2
      exit 1
    fi
  done
done

# Sanitizer regression: the same legacy group-offset bug the watchdog
# only times out on must be *diagnosed* by depsan — a communication lint
# naming the aliased same-tag traffic — and exit 97 before the watchdog
# (5 s) can fire.
echo "==> depsan legacy-bug regression (expect exit 97)"
set +e
san_out="$(timeout 60 "$MINIAMR" --variant dataflow --sanitize --comm_vars 3 \
    --send_faces --npx 2 --nx 6 --ny 6 --nz 6 --num_vars 8 --num_tsteps 3 \
    --input single_sphere --legacy_group_offsets --watchdog_ms 5000 2>&1)"
san_rc=$?
set -e
if [ "$san_rc" -ne 97 ]; then
  echo "depsan regression: expected exit 97, got $san_rc" >&2
  echo "$san_out" >&2
  exit 1
fi
if ! grep -Eq "depsan: violation: (tag-size-mismatch|ambiguous-recv|size-mismatch)" <<<"$san_out"; then
  echo "depsan regression: exit 97 but no communication-lint report" >&2
  echo "$san_out" >&2
  exit 1
fi

# --- Static verifier (PR 8) -------------------------------------------------
# Pre-flight on the clean smoke scenario: all three variants must pass the
# static check and then complete the run normally.
DFCHECK=target/release/dfcheck
for variant in mpi forkjoin dataflow; do
  echo "==> staticcheck pre-flight: $variant"
  sc_out="$(timeout 60 "$MINIAMR" --staticcheck --variant "$variant" --npx 2 --npy 2 \
      --nx 6 --ny 6 --nz 6 --num_vars 4 --num_tsteps 2 --input single_sphere 2>&1)"
  if ! grep -q "staticcheck: clean" <<<"$sc_out"; then
    echo "staticcheck pre-flight: $variant did not come back clean" >&2
    echo "$sc_out" >&2
    exit 1
  fi
done

# Static regression: the legacy group-offset bug must be flagged *before a
# single timestep runs* — exit 95, a tag-collision naming the aliased
# sends, and the slot-arithmetic warning, with no worker ever spawned.
echo "==> staticcheck legacy-bug regression (expect exit 95)"
set +e
sc_out="$(timeout 60 "$MINIAMR" --staticcheck --variant dataflow --comm_vars 3 \
    --send_faces --npx 2 --nx 6 --ny 6 --nz 6 --num_vars 8 --num_tsteps 3 \
    --input single_sphere --legacy_group_offsets 2>&1)"
sc_rc=$?
set -e
if [ "$sc_rc" -ne 95 ]; then
  echo "staticcheck regression: expected exit 95, got $sc_rc" >&2
  echo "$sc_out" >&2
  exit 1
fi
for needle in "tag-collision" "buffer-slot-overlap" "miniamr-dfcheck-report"; do
  if ! grep -q "$needle" <<<"$sc_out"; then
    echo "staticcheck regression: exit 95 but report lacks '$needle'" >&2
    echo "$sc_out" >&2
    exit 1
  fi
done

# dfcheck-vs-depsan agreement smoke: the standalone verifier and the
# dynamic sanitizer must agree on both sides of the legacy bug — the
# clean scenario passes both (dfcheck --all exit 0; the sanitized runs
# above already came back clean), and the buggy one fails both (exit 95
# statically, exit 97 dynamically per the depsan regression above).
echo "==> dfcheck standalone: clean scenario, all variants (expect exit 0)"
"$DFCHECK" --all --npx 2 --npy 2 --nx 6 --ny 6 --nz 6 --num_vars 4 \
    --num_tsteps 2 --input single_sphere >/dev/null
echo "==> dfcheck standalone: legacy scenario (expect exit 95)"
set +e
timeout 60 "$DFCHECK" --variant dataflow --comm_vars 3 --send_faces \
    --npx 2 --nx 6 --ny 6 --nz 6 --num_vars 8 --num_tsteps 3 \
    --input single_sphere --legacy_group_offsets >/dev/null 2>&1
df_rc=$?
set -e
if [ "$df_rc" -ne 95 ]; then
  echo "dfcheck standalone: expected exit 95 on the legacy scenario, got $df_rc" >&2
  exit 1
fi

# --- Chaos transport soak (PR 4) ------------------------------------------
# The headline reliability guarantee: under any seeded fault plan whose
# losses stay within the retry budget, every variant's checksum digest is
# bitwise-identical to its fault-free run — the ack/retransmit layer
# absorbs drops, duplicates, corruption and delay spikes invisibly.
chaos_mesh=(--npx 2 --npy 1 --npz 1 --nx 8 --ny 8 --nz 8
            --init_x 2 --init_y 2 --init_z 2 --num_refine 2
            --max_blocks 600 --num_tsteps 4 --stages_per_ts 4)
chaos_plan=(--chaos_drop 0.08 --chaos_dup 0.05 --chaos_corrupt 0.05
            --chaos_delay 0.2 --chaos_retry 20 --chaos_rto_us 2000
            --ckpt_freq 4)
for variant in mpi forkjoin dataflow; do
  echo "==> chaos soak: $variant"
  base_out="$(timeout 60 "$MINIAMR" --variant "$variant" "${chaos_mesh[@]}" 2>&1)"
  base_digest="$(awk '$1 == "checksum_digest" { print $2 }' <<<"$base_out")"
  if [ -z "$base_digest" ]; then
    echo "chaos soak: fault-free $variant run printed no checksum_digest" >&2
    echo "$base_out" >&2
    exit 1
  fi
  for seed in 7 42 1337; do
    chaos_out="$(timeout 60 "$MINIAMR" --variant "$variant" "${chaos_mesh[@]}" \
        --chaos_seed "$seed" "${chaos_plan[@]}" 2>&1)"
    chaos_digest="$(awk '$1 == "checksum_digest" { print $2 }' <<<"$chaos_out")"
    if [ "$chaos_digest" != "$base_digest" ]; then
      echo "chaos soak: $variant seed $seed digest '$chaos_digest' != fault-free '$base_digest'" >&2
      echo "$chaos_out" >&2
      exit 1
    fi
    if ! grep -q "checkpoints_taken" <<<"$chaos_out"; then
      echo "chaos soak: $variant seed $seed never took a checkpoint" >&2
      echo "$chaos_out" >&2
      exit 1
    fi
  done
done

# Unrecoverable hard-crash: rank 1 dies mid-run per plan. The survivor
# must detect it (retry-budget exhaustion or heartbeat timeout), the
# ranks unwind, the driver restores the survivor's latest checkpoint and
# verifies the digest, and miniamr prints the structured report and
# exits 88 — never hang. One path for all three variants.
crash_plan=(--chaos_seed 42 --chaos_crash_rank 1 --chaos_crash_after 10
            --chaos_retry 3 --chaos_rto_us 1000 --ckpt_freq 1)
for variant in mpi forkjoin dataflow; do
  echo "==> unrecoverable-crash case: $variant (expect exit 88, structured report)"
  set +e
  crash_out="$(timeout 60 "$MINIAMR" --variant "$variant" "${chaos_mesh[@]}" \
      "${crash_plan[@]}" 2>&1)"
  crash_rc=$?
  set -e
  if [ "$crash_rc" -ne 88 ]; then
    echo "unrecoverable-crash: $variant: expected exit 88, got $crash_rc" >&2
    echo "$crash_out" >&2
    exit 1
  fi
  for needle in "chaos: peer lost" "hard-crashed per plan" \
                "restored from checkpoint" "verified after restore" \
                "exiting with code 88"; do
    if ! grep -q "$needle" <<<"$crash_out"; then
      echo "unrecoverable-crash: $variant: exit 88 but report lacks '$needle'" >&2
      echo "$crash_out" >&2
      exit 1
    fi
  done
done

# The same plan under --jobs 2: both jobs lose their rank 1, both are
# joined and both report before the process exits with the first
# failure's code — no job is cut off mid-report and nothing hangs.
echo "==> unrecoverable-crash case: --jobs 2 (expect exit 88, two reports)"
set +e
crash_out="$(timeout 60 "$MINIAMR" --variant dataflow "${chaos_mesh[@]}" \
    "${crash_plan[@]}" --jobs 2 2>&1)"
crash_rc=$?
set -e
if [ "$crash_rc" -ne 88 ] ||
   [ "$(grep -c "miniamr: job [01] stopped early" <<<"$crash_out")" -ne 2 ] ||
   [ "$(grep -c "verified after restore" <<<"$crash_out")" -ne 2 ]; then
  echo "unrecoverable-crash --jobs 2: expected exit 88 and both jobs' reports, got $crash_rc" >&2
  echo "$crash_out" >&2
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

# --- Contention-aware fabric (PR 5) ----------------------------------------
# Table II reproduction: the full-size granularity sweep must place the
# optimum message count inside the paper's 4..16 band with
# one-message-per-face worst. The binary's own shape_checks (including
# the optimum-band check, which only runs at full size) exit non-zero on
# failure; the grep below is a belt-and-braces guard on the headline.
echo "==> table2 granularity sweep (shared fabric cost model)"
t2_out="$(cargo run --release -q -p amr-bench --bin table2)"
echo "$t2_out"
if ! grep -qE "^# observed optimum: (4|8|16) " <<<"$t2_out"; then
  echo "table2: observed optimum outside the paper's 4..16 band" >&2
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

# Fabric on/off digest parity: the contention model shifts *when*
# messages become available, never *what* they carry — every variant's
# checksum digest must be bitwise identical with the fabric on and off.
fab_mesh=(--npx 2 --npy 2 --nx 6 --ny 6 --nz 6 --num_vars 4
          --num_tsteps 3 --input single_sphere --ranks_per_node 2)
for variant in mpi forkjoin dataflow; do
  echo "==> fabric digest parity: $variant"
  on_out="$(timeout 60 "$MINIAMR" --variant "$variant" "${fab_mesh[@]}" --fabric on 2>&1)"
  off_out="$(timeout 60 "$MINIAMR" --variant "$variant" "${fab_mesh[@]}" --fabric off 2>&1)"
  d_on="$(awk '$1 == "checksum_digest" { print $2 }' <<<"$on_out")"
  d_off="$(awk '$1 == "checksum_digest" { print $2 }' <<<"$off_out")"
  if [ -z "$d_on" ] || [ "$d_on" != "$d_off" ]; then
    echo "fabric parity: $variant digest on='$d_on' off='$d_off'" >&2
    echo "$on_out" >&2
    exit 1
  fi
done

# All-rendezvous regression: on this mesh two ranks swap blocks in one
# exchange round, and with no eager limit a blocking control-message send
# on both sides used to hang every variant. The run must terminate with
# the digest of the default-eager run.
swap_mesh=(--npx 2 --num_tsteps 2)
for variant in mpi forkjoin dataflow; do
  echo "==> --eager_kb 0 digest parity: $variant"
  rdv_out="$(timeout 60 "$MINIAMR" --variant "$variant" "${swap_mesh[@]}" --eager_kb 0 2>&1)"
  def_out="$(timeout 60 "$MINIAMR" --variant "$variant" "${swap_mesh[@]}" 2>&1)"
  d_rdv="$(awk '$1 == "checksum_digest" { print $2 }' <<<"$rdv_out")"
  d_def="$(awk '$1 == "checksum_digest" { print $2 }' <<<"$def_out")"
  if [ -z "$d_rdv" ] || [ "$d_rdv" != "$d_def" ]; then
    echo "--eager_kb 0 parity: $variant digest rendezvous='$d_rdv' default='$d_def'" >&2
    echo "$rdv_out" >&2
    exit 1
  fi
done

# CLI validation regression: a meaningless bandwidth must be a usage
# error at parse time (exit 2), not a Duration::from_secs_f64 panic on
# the delivery thread mid-run.
echo "==> network-parameter validation (expect exit 2)"
set +e
bw_out="$(timeout 60 "$MINIAMR" --variant mpi --npx 2 --nx 6 --ny 6 --nz 6 \
    --num_vars 4 --num_tsteps 1 --input single_sphere --bandwidth_gbps 0 2>&1)"
bw_rc=$?
set -e
if [ "$bw_rc" -ne 2 ] || ! grep -q "invalid network parameters" <<<"$bw_out"; then
  echo "bandwidth validation: expected exit 2 with a usage error, got rc=$bw_rc" >&2
  echo "$bw_out" >&2
  exit 1
fi
rf_rc=0; timeout 60 "$MINIAMR" --variant mpi --refine_freq 0 >/dev/null 2>&1 || rf_rc=$?
[ "$rf_rc" -eq 2 ] || { echo "--refine_freq 0: expected exit 2, got $rf_rc" >&2; exit 1; }

# --- Topology-aware collectives & face coalescing (PR 10) ------------------
# `--coll hier --coalesce on` reshapes the transport only: two-level
# collectives over node leaders and one merged flow per inter-node
# neighbor group must leave every variant's checksum digest bitwise
# identical to the flat, uncoalesced reference. --ranks_per_node 2
# splits the 4 smoke ranks into 2 simulated nodes (both the intra-node
# slot stage and the inter-node leader stage run); --eager_kb 0 forces
# every inter-node group over the coalescing threshold; --send_faces
# --comm_vars 2 give the coalescer real per-face messages to merge. The
# intra-node per-face messages stay one section each and become
# rendezvous sends, which keep their own send task: a pack that held its
# block until such a send drained would wait for the peer's pack doing
# the same (this run hung that way, DESIGN.md §3.5.1).
coll_mesh=(--npx 2 --npy 2 --nx 6 --ny 6 --nz 6 --num_vars 4
           --num_tsteps 3 --input single_sphere --send_faces --comm_vars 2
           --ranks_per_node 2)
for variant in mpi forkjoin dataflow; do
  echo "==> collectives digest parity: $variant"
  flat_out="$(timeout 60 "$MINIAMR" --variant "$variant" "${coll_mesh[@]}" \
      --coll flat --coalesce off 2>&1)"
  hier_out="$(timeout 60 "$MINIAMR" --variant "$variant" "${coll_mesh[@]}" \
      --coll hier --coalesce on --eager_kb 0 2>&1)"
  d_flat="$(awk '$1 == "checksum_digest" { print $2 }' <<<"$flat_out")"
  d_hier="$(awk '$1 == "checksum_digest" { print $2 }' <<<"$hier_out")"
  if [ -z "$d_flat" ] || [ "$d_flat" != "$d_hier" ]; then
    echo "collectives parity: $variant digest flat='$d_flat' hier+coalesce='$d_hier'" >&2
    echo "$hier_out" >&2
    exit 1
  fi
done

# Sanitized hier smoke: the intra-node slot stage bypasses the message
# layer entirely; depsan must still come back clean on the reshaped
# plan.
echo "==> sanitized hier+coalesce smoke: dataflow"
san_out="$(timeout 60 "$MINIAMR" --variant dataflow --sanitize "${coll_mesh[@]}" \
    --coll hier --coalesce on --eager_kb 0 2>&1)"
if ! grep -q "depsan: no violations detected" <<<"$san_out"; then
  echo "sanitized hier+coalesce run did not report a clean bill" >&2
  echo "$san_out" >&2
  exit 1
fi

# dfcheck must accept and verify the reshaped (coalesced) plan — the
# scenario flags are shared, so the static model sees the merged flows.
echo "==> dfcheck on the coalesced plan (expect exit 0)"
timeout 120 "$DFCHECK" --all "${coll_mesh[@]}" \
    --coll hier --coalesce on --eager_kb 0 >/dev/null

# Exchange-livelock regression: two completely full ranks swapping
# equal block counts must converge instead of starving each other
# (Phase A credits this round's outgoing moves as capacity).
echo "==> exchange livelock regression (two-full-ranks swap)"
cargo test -q -p miniamr --test exchange_protocol \
    exactly_full_ranks_swap_converges >/dev/null

# --- Task-graph trace & replay cache ----------------------------------------
# Replay must be numerically invisible: over two regrid epochs of five
# timesteps (one recorded, four re-armed each), with regrids + checkpoints
# invalidating mid-run, every variant's checksum digest must be bitwise
# identical with --replay on and off.
replay_mesh=(--npx 2 --npy 2 --nx 6 --ny 6 --nz 6 --num_vars 4
             --num_tsteps 10 --refine_freq 5 --ckpt_freq 8
             --input single_sphere)
df_on_out=""
for variant in mpi forkjoin dataflow; do
  echo "==> replay digest parity: $variant"
  on_out="$(timeout 60 "$MINIAMR" --variant "$variant" "${replay_mesh[@]}" --replay on 2>&1)"
  off_out="$(timeout 60 "$MINIAMR" --variant "$variant" "${replay_mesh[@]}" --replay off 2>&1)"
  d_on="$(awk '$1 == "checksum_digest" { print $2 }' <<<"$on_out")"
  d_off="$(awk '$1 == "checksum_digest" { print $2 }' <<<"$off_out")"
  if [ -z "$d_on" ] || [ "$d_on" != "$d_off" ]; then
    echo "replay parity: $variant digest on='$d_on' off='$d_off'" >&2
    echo "$on_out" >&2
    exit 1
  fi
  if [ "$variant" = dataflow ]; then df_on_out="$on_out"; fi
done

# The parity check is vacuous unless the data-flow replay-on run actually
# replayed — assert the counters the binary prints: every timestep of an
# epoch but its first is a hit (4 ranks x 2 epochs x (5 - 1)), and hits
# re-arm task objects in place.
replayed="$(awk '$1 == "tasks_replayed" { print $2 }' <<<"$df_on_out")"
hits="$(awk '$1 == "trace_hits" { print $2 }' <<<"$df_on_out")"
rearmed="$(awk '$1 == "tasks_rearmed" { print $2 }' <<<"$df_on_out")"
if [ -z "$replayed" ] || [ "$replayed" -eq 0 ] || [ "$hits" != 32 ] \
    || [ -z "$rearmed" ] || [ "$rearmed" -eq 0 ]; then
  echo "replay parity: dataflow --replay on: tasks_replayed='$replayed', trace_hits='$hits' (want 32), tasks_rearmed='$rearmed'" >&2
  echo "$df_on_out" >&2
  exit 1
fi

# Sanitized replay: depsan re-verifies every replayed edge set against
# its own record-mode shadow, so --sanitize --replay on must still come
# back clean. (The depsan legacy-bug regression above already runs with
# replay at its default of on, proving real violations still exit 97.)
echo "==> sanitized replay smoke: dataflow"
san_out="$(timeout 60 "$MINIAMR" --variant dataflow --sanitize "${replay_mesh[@]}" --replay on 2>&1)"
if ! grep -q "depsan: no violations detected" <<<"$san_out"; then
  echo "sanitized replay run did not report a clean bill" >&2
  echo "$san_out" >&2
  exit 1
fi

# The tasks_fine shape (bench/src/workloads.rs) at 4 timesteps: a replay
# hit re-arms ~10 k tasks per rank without elaborating any of them. One
# digest for the three variants and for delayed validation (a waiter task
# between re-armed phases, tasks that outlive their timestep), a clean
# sanitizer, a clean static check.
fine_mesh=(--npx 2 --workers 1 --init_x 2 --init_y 4 --init_z 4 --nx 4 --ny 4 --nz 4
           --num_vars 4 --num_refine 2 --input four_spheres --num_tsteps 4
           --stages_per_ts 10 --checksum_freq 5 --refine_freq 1000
           --send_faces --separate_buffers)
fine_digest=""
for run in "mpi" "forkjoin" "dataflow" "dataflow --delayed_checksum" "dataflow --sanitize" \
           "dataflow --staticcheck"; do
  echo "==> re-armed tasks_fine shape: $run"
  # shellcheck disable=SC2086  # $run is a variant plus at most one flag
  out="$(timeout 60 "$MINIAMR" --variant $run "${fine_mesh[@]}" 2>&1)"
  d="$(awk '$1 == "checksum_digest" { print $2 }' <<<"$out")"
  if [ -z "$d" ] || { [ -n "$fine_digest" ] && [ "$d" != "$fine_digest" ]; }; then
    echo "re-armed tasks_fine shape: $run digest '$d' differs from '$fine_digest'" >&2
    echo "$out" >&2
    exit 1
  fi
  fine_digest="$d"
  case "$run" in
    *--sanitize) grep -q "depsan: no violations detected" <<<"$out" ;;
    *--staticcheck) grep -q "staticcheck: clean" <<<"$out" ;;
    dataflow) [ "$(awk '$1 == "trace_hits" { print $2 }' <<<"$out")" = 6 ] ;;
    *) true ;;
  esac || {
    echo "re-armed tasks_fine shape: $run did not report what it should" >&2
    echo "$out" >&2
    exit 1
  }
done

# --- Task grain ------------------------------------------------------------
# 4^3 cells x 4 variables on a two-level mesh: every intra-rank item is far
# below the grain floor (elaborate::GRAIN_ELEMS), so the data-flow stream
# is mostly batches, with a regrid mid-run. Batching must be invisible in
# the digest, to the static model and to the sanitizer, and visible in the
# counts: tasks_spawned (batches) below a quarter of task_items (members).
grain_mesh=(--npx 2 --init_x 2 --init_y 2 --init_z 2 --nx 4 --ny 4 --nz 4
            --num_vars 4 --num_refine 2 --num_tsteps 4 --stages_per_ts 4
            --checksum_freq 2 --refine_freq 2 --send_faces --separate_buffers)
grain_digest=""
df_grain_out=""
for variant in mpi forkjoin dataflow; do
  echo "==> task grain digest parity: $variant"
  out="$(timeout 60 "$MINIAMR" --variant "$variant" "${grain_mesh[@]}" 2>&1)"
  d="$(awk '$1 == "checksum_digest" { print $2 }' <<<"$out")"
  if [ -z "$d" ] || { [ -n "$grain_digest" ] && [ "$d" != "$grain_digest" ]; }; then
    echo "task grain: $variant digest '$d' differs from '$grain_digest'" >&2
    echo "$out" >&2
    exit 1
  fi
  grain_digest="$d"
  if [ "$variant" = dataflow ]; then df_grain_out="$out"; fi
done
spawned="$(awk '$1 == "tasks_spawned" { print $2 }' <<<"$df_grain_out")"
items="$(awk '$1 == "task_items" { print $2 }' <<<"$df_grain_out")"
if [ -z "$spawned" ] || [ -z "$items" ] || [ "$((spawned * 4))" -ge "$items" ]; then
  echo "task grain: dataflow spawned '$spawned' tasks for '$items' items (want < 1/4)" >&2
  echo "$df_grain_out" >&2
  exit 1
fi
echo "==> task grain staticcheck + sanitize: dataflow"
out="$(timeout 60 "$MINIAMR" --variant dataflow "${grain_mesh[@]}" --staticcheck 2>&1)"
if ! grep -q "dfcheck: PASS" <<<"$out" || ! grep -q "checksum_digest.$grain_digest" <<<"$out"; then
  echo "task grain: --staticcheck did not pass with digest '$grain_digest'" >&2
  echo "$out" >&2
  exit 1
fi
out="$(timeout 60 "$MINIAMR" --variant dataflow "${grain_mesh[@]}" --sanitize 2>&1)"
if ! grep -q "depsan: no violations detected" <<<"$out" || ! grep -q "checksum_digest.$grain_digest" <<<"$out"; then
  echo "task grain: sanitized run was not clean with digest '$grain_digest'" >&2
  echo "$out" >&2
  exit 1
fi

# The tasks_fine workload's flags (bench/src/workloads.rs; the run gives
# the seed-1 digest): every message has one section and costs two tasks,
# a pack that sends and an unpack whose on-ready gate receives. The counts
# are pinned (four tasks a message spawned 173276), `task_items` is the
# workload's and does not move; the same shape passes the static check
# and runs sanitizer-clean.
tf_mesh=(--npx 2 --npy 1 --npz 1 --workers 1 --stencil 7 --init_x 2 --init_y 4
         --init_z 4 --nx 4 --ny 4 --nz 4 --num_vars 4 --num_refine 2
         --input four_spheres --num_tsteps 8 --stages_per_ts 10 --checksum_freq 5
         --refine_freq 1000 --send_faces --separate_buffers)
for check in "" "--staticcheck" "--sanitize"; do
  echo "==> task grain: tasks_fine counts $check"
  # shellcheck disable=SC2086  # $check is empty or one flag
  out="$(timeout 120 "$MINIAMR" --variant dataflow "${tf_mesh[@]}" $check 2>&1)"
  counts="$(awk '$1 ~ /^(checksum_digest|tasks_spawned|task_items)$/ { printf "%s %s ", $1, $2 }' <<<"$out")"
  if [ "$counts" != "checksum_digest 1dab3b4b13377138 tasks_spawned 118236 task_items 829884 " ]; then
    echo "task grain: tasks_fine $check counts '$counts'" >&2
    echo "$out" >&2
    exit 1
  fi
  case "$check" in
    --staticcheck) grep -q "dfcheck: PASS" <<<"$out" ;;
    --sanitize) grep -q "depsan: no violations detected" <<<"$out" ;;
    *) true ;;
  esac || {
    echo "task grain: tasks_fine $check did not come back clean" >&2
    echo "$out" >&2
    exit 1
  }
done

# --- Causal perf analyzer (PR 7) -------------------------------------------
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

# Report-diff plumbing smoke: the same document compared to itself must
# come out all-1.00x and exit 0 (exercises bench_compare.py's
# perf-report path deterministically).
python3 scripts/bench_compare.py BENCH_PR10.json BENCH_PR10.json \
    --report-old "$perf_json" --report-new "$perf_json" --quiet >/dev/null
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

# --- Elastic service mode (PR 9) -------------------------------------------
# Malleability must be physics-neutral: a run that grows and/or shrinks
# its rank world mid-flight — by plan (--resize_at) or by failure
# (--on_peer_lost shrink after a hard crash) — must land on the exact
# checksum digest of the fixed-rank, fault-free run. The digest folds
# per-block sums in global block-id order, so ownership moves are
# invisible by construction; this stage is the end-to-end proof.
el_mesh=(--npx 2 --npy 2 --npz 1 --nx 6 --ny 6 --nz 6 --num_vars 4
         --num_tsteps 6 --stages_per_ts 4 --checksum_freq 2
         --refine_freq 2 --num_refine 2)
df_fixed=""
for variant in mpi forkjoin dataflow; do
  echo "==> elastic digest parity: $variant"
  fixed_out="$(timeout 60 "$MINIAMR" --variant "$variant" "${el_mesh[@]}" 2>&1)"
  fixed_digest="$(awk '$1 == "checksum_digest" { print $2 }' <<<"$fixed_out")"
  if [ -z "$fixed_digest" ]; then
    echo "elastic: fixed-rank $variant run printed no checksum_digest" >&2
    echo "$fixed_out" >&2
    exit 1
  fi
  if [ "$variant" = dataflow ]; then df_fixed="$fixed_digest"; fi
  # Grow 4->8; grow then shrink back 8->4; pure shrink 4->2.
  for plan in "--resize_at 2:8" \
              "--resize_at 2:8 --resize_at 4:4" \
              "--resize_at 3:2"; do
    # shellcheck disable=SC2086
    el_out="$(timeout 60 "$MINIAMR" --variant "$variant" "${el_mesh[@]}" $plan 2>&1)"
    el_digest="$(awk '$1 == "checksum_digest" { print $2 }' <<<"$el_out")"
    if ! grep -q "elastic plan" <<<"$el_out"; then
      echo "elastic: $variant '$plan' never armed the resize plan" >&2
      echo "$el_out" >&2
      exit 1
    fi
    if [ "$el_digest" != "$fixed_digest" ]; then
      echo "elastic: $variant '$plan' digest '$el_digest' != fixed '$fixed_digest'" >&2
      echo "$el_out" >&2
      exit 1
    fi
  done
done

# Shrink-on-failure: rank 3's NIC hard-crashes mid-run (frame 340 is
# past the initial refinement exchange, so a coordinated boundary
# snapshot exists). Instead of the exit-88 abort, the survivors rewind
# to the latest coordinated boundary, the world shrinks onto them, and
# the run must complete with the fault-free digest. The data-flow
# variant is the hard case: the failure surfaces on the delivery thread
# inside a tampi callback and has to unwind through the poisoned task
# runtime to taskwait.
echo "==> shrink-on-failure: dataflow (expect shrink + fixed digest)"
sh_out="$(timeout 60 "$MINIAMR" --variant dataflow "${el_mesh[@]}" \
    --chaos_seed 7 --chaos_crash_rank 3 --chaos_crash_after 340 \
    --chaos_retry 4 --chaos_rto_us 2000 --on_peer_lost shrink 2>&1)"
sh_digest="$(awk '$1 == "checksum_digest" { print $2 }' <<<"$sh_out")"
if ! grep -q "shrinking 4 -> 3 ranks" <<<"$sh_out"; then
  echo "shrink-on-failure: the world never shrank" >&2
  echo "$sh_out" >&2
  exit 1
fi
if [ "$sh_digest" != "$df_fixed" ]; then
  echo "shrink-on-failure: digest '$sh_digest' != fixed '$df_fixed'" >&2
  echo "$sh_out" >&2
  exit 1
fi

# The early crash on two ranks: the dead rank's own rendezvous send is
# parked with its heartbeat detector when the survivor declares the
# loss. Left un-failed it wedged the dead rank's taskwait in one run of
# four; every run must complete on the fault-free digest.
echo "==> shrink-on-failure: 2-rank early crash x10 (expect fixed digest, no hang)"
early_fixed="$(timeout 60 "$MINIAMR" --variant dataflow "${chaos_mesh[@]}" 2>/dev/null |
    awk '$1 == "checksum_digest" { print $2 }')"
for i in 1 2 3 4 5 6 7 8 9 10; do
  set +e
  sh_out="$(timeout 20 "$MINIAMR" --variant dataflow "${chaos_mesh[@]}" \
      "${crash_plan[@]}" --on_peer_lost shrink 2>&1)"
  sh_rc=$?
  set -e
  sh_digest="$(awk '$1 == "checksum_digest" { print $2 }' <<<"$sh_out")"
  if [ "$sh_rc" -ne 0 ] || [ -z "$early_fixed" ] || [ "$sh_digest" != "$early_fixed" ]; then
    echo "early-crash shrink run $i: exit $sh_rc, digest '$sh_digest' != fixed '$early_fixed'" >&2
    echo "$sh_out" >&2
    exit 1
  fi
done

# Sanitized multi-job soak: 4 complete scenario instances resize
# concurrently in one process under depsan. Each run owning its
# checkpoints and boundary snapshots is what this breaks without; every
# job's digest must equal the fixed-rank run's.
echo "==> sanitized 4-job elastic soak: dataflow"
soak_out="$(timeout 120 "$MINIAMR" --variant dataflow "${el_mesh[@]}" --sanitize \
    --jobs 4 --resize_at 2:8 --resize_at 4:3 2>&1)"
soak_digests="$(awk '$1 ~ /^job[0-9]+_checksum_digest$/ { print $2 }' <<<"$soak_out")"
if [ "$(wc -l <<<"$soak_digests")" -ne 4 ]; then
  echo "elastic soak: expected 4 per-job digests" >&2
  echo "$soak_out" >&2
  exit 1
fi
if [ "$(sort -u <<<"$soak_digests" | tr -d '[:space:]')" != "$df_fixed" ]; then
  echo "elastic soak: per-job digests diverged from fixed '$df_fixed':" >&2
  echo "$soak_digests" >&2
  echo "$soak_out" >&2
  exit 1
fi
if ! grep -q "depsan: no violations detected" <<<"$soak_out"; then
  echo "elastic soak: sanitized run did not report a clean bill" >&2
  echo "$soak_out" >&2
  exit 1
fi

echo "CI OK"
