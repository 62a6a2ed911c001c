//! End-to-end observability test: a 4-rank data-flow run with the event
//! bus enabled must export a merged, Perfetto-loadable Chrome trace with
//! per-rank processes, per-worker lanes, message events, and counter
//! tracks — and populate the metrics registry with the counts the run
//! returned.
//!
//! Lives in its own integration-test binary: enabling the bus is
//! process-global and sticky, so it must not leak into other tests.

use miniamr::{Config, Variant};
use vmpi::NetworkModel;

#[test]
fn four_rank_dataflow_exports_merged_chrome_trace() {
    // A 4-rank run emits a few hundred thousand events; size the rings so
    // nothing is dropped and the ordering assertions below see it all.
    obs::enable_with_capacity(1 << 18);

    let mut cfg = Config::smoke_test();
    cfg.params.npx = 2;
    cfg.params.npy = 2;
    cfg.params.npz = 1;
    cfg.variant = Variant::DataFlow;
    cfg.num_tsteps = 2;
    let n_ranks = cfg.params.num_ranks();
    assert_eq!(n_ranks, 4);

    let stats = miniamr::run_world(&cfg, n_ranks, NetworkModel::instant());
    assert!(stats.iter().all(|s| s.checksums_failed == 0));

    // The process-wide metrics registry is populated.
    let metrics = obs::metrics().snapshot();
    let get = |name: &str| -> i64 {
        metrics
            .iter()
            .find(|(n, _)| *n == name)
            .unwrap_or_else(|| panic!("metric {name} missing from {metrics:?}"))
            .1
    };
    assert!(get("taskrt.tasks_spawned") > 0);
    assert!(get("vmpi.sends_posted") > 0);
    assert!(get("tampi.bound_requests") > 0);
    // The runtimes' counts arrive once, when they are dropped, and are
    // the counts the run returned.
    let sum = |f: fn(&miniamr::RunStats) -> u64| stats.iter().map(f).sum::<u64>() as i64;
    assert_eq!(get("taskrt.tasks_spawned"), sum(|s| s.tasks_spawned));
    assert_eq!(get("taskrt.replayed_tasks"), sum(|s| s.tasks_replayed));
    assert_eq!(get("taskrt.trace_hits"), sum(|s| s.trace_hits));
    assert!(
        metrics.iter().all(|(name, _)| !name.starts_with("core.")),
        "RunStats is the record of the core counts: {metrics:?}"
    );

    let drained = obs::bus().expect("bus enabled").drain();
    assert_eq!(
        drained.dropped, 0,
        "smoke run must fit in the default rings"
    );
    assert!(!drained.events.is_empty());
    // drain() merges the stripes back into global sequence order.
    assert!(drained.events.windows(2).all(|w| w[0].seq < w[1].seq));

    let json = obs::export_chrome(&drained.events);
    obs::json::validate(&json).expect("export must be valid JSON");

    // One process per rank, every rank present.
    for rank in 0..4 {
        assert!(
            json.contains(&format!("\"name\":\"rank {rank}\"")),
            "rank {rank} process metadata missing"
        );
    }
    // No unattributed events: every emission carries a real rank.
    assert!(
        !json.contains("unattributed"),
        "events leaked without rank context"
    );
    // Worker lanes, the delivery lane, message lifecycle, task slices
    // under their labels, and counter tracks all make it into the merged
    // timeline.
    for needle in [
        "\"name\":\"worker 0\"",
        "\"name\":\"net\"",
        "send_posted",
        "recv_posted",
        "msg_matched",
        "msg_delivered",
        "\"name\":\"stencil\"",
        "tasks_running",
        "\"ph\":\"X\"",
        "\"ph\":\"C\"",
    ] {
        assert!(json.contains(needle), "{needle} missing from export");
    }

    // Instants are emitted in timestamp order (merged across ranks; one
    // record per line). Slices are back-dated to their start time, so
    // the ordering contract applies to instants only.
    let mut last_ts = 0u64;
    let mut seen = 0usize;
    for line in json.lines().filter(|l| l.contains("\"ph\":\"i\"")) {
        let part = &line[line.find("\"ts\":").expect("instant has ts") + 5..];
        let ts: u64 = part[..part.find(',').unwrap()].parse().unwrap();
        assert!(
            ts >= last_ts,
            "instant timestamps regressed: {ts} < {last_ts}"
        );
        last_ts = ts;
        seen += 1;
    }
    assert!(
        seen > 100,
        "expected a substantial number of instants, got {seen}"
    );
}
