//! End-to-end causal-analyzer test: a 4-rank data-flow run must produce
//! a schema-valid perf report whose per-timestep critical paths explain
//! wall-clock exactly, whose per-rank overlap is a fraction, and whose
//! message nodes stitch sends to deliveries across
//! ranks (the Perfetto flow arrows) — with aggregated messages, and with
//! `--send_faces`, where every message is sent by its pack and received
//! by its unpack's on-ready gate.
//!
//! Lives in its own integration-test binary: enabling the bus is
//! process-global and sticky, so it must not leak into other tests.

use miniamr::{Config, Variant};
use obs::report::PerfReport;
use obs::span::{Category, SpanGraph};
use obs::EventData;
use std::collections::HashMap;
use vmpi::NetworkModel;

#[test]
fn four_rank_dataflow_perf_report_is_schema_valid_and_consistent() {
    // Size the rings so nothing is dropped: the analyzer must see every
    // interval.
    obs::enable_with_capacity(1 << 18);
    for send_faces in [false, true] {
        check_run(send_faces);
    }
}

fn check_run(send_faces: bool) {
    let mut cfg = Config::smoke_test();
    cfg.params.npx = 2;
    cfg.params.npy = 2;
    cfg.params.npz = 1;
    cfg.variant = Variant::DataFlow;
    cfg.num_tsteps = 2;
    cfg.send_faces = send_faces;
    let n_ranks = cfg.params.num_ranks();
    assert_eq!(n_ranks, 4);

    let stats = miniamr::run_world(&cfg, n_ranks, NetworkModel::instant());
    assert!(stats.iter().all(|s| s.checksums_failed == 0));

    let drained = obs::bus().expect("bus enabled").drain();
    assert_eq!(drained.dropped, 0, "smoke run must fit in the sized rings");

    // --- Cross-rank flow edges -----------------------------------------
    let graph = SpanGraph::build(&drained.events);
    let delivered: Vec<_> = graph
        .messages
        .values()
        .filter(|m| m.delivered_us > 0)
        .collect();
    assert!(!delivered.is_empty(), "no matched messages in a 4-rank run");
    assert!(
        delivered.iter().any(|m| m.src != m.dst),
        "expected cross-rank message nodes"
    );
    for m in &delivered {
        assert!(
            m.delivered_us >= m.posted_us,
            "delivery precedes post on match {}",
            m.match_id
        );
    }
    // The same matches become Perfetto flow arrows in the Chrome export.
    let chrome = obs::export_chrome(&drained.events);
    obs::json::validate(&chrome).expect("chrome export must be valid JSON");
    assert_eq!(
        chrome.matches("\"ph\":\"s\"").count(),
        chrome.matches("\"ph\":\"f\"").count(),
        "every flow start needs its finish"
    );
    assert!(
        chrome.contains("\"ph\":\"s\""),
        "flow arrows missing from export"
    );

    if send_faces {
        // Every face message is posted by a pack (still Pack on the
        // critical path) and delivered into an unpack, which posted the
        // receive from its gate under its own task id. (Task ids are per
        // rank, so a task is named by its rank and id.)
        let labels: HashMap<(u32, u64), &str> = (drained.events.iter())
            .filter_map(|ev| match ev.data {
                EventData::TaskStart { id, label } => Some(((ev.rank, id), label)),
                _ => None,
            })
            .collect();
        let label = |rank: u32, id: u64| labels.get(&(rank, id)).copied().unwrap_or("");
        // Control messages and collectives are posted by the main thread
        // (task 0), moved blocks by `exchange_send` tasks.
        let faces: Vec<_> = (delivered.iter())
            .filter(|m| m.src != m.dst && m.send_task != 0)
            .filter(|m| label(m.src, m.send_task) != "exchange_send")
            .collect();
        assert!(!faces.is_empty(), "no face message between ranks");
        for m in &faces {
            let (sender, receiver) = (label(m.src, m.send_task), label(m.dst, m.recv_task));
            assert_eq!(sender, "pack", "match {}", m.match_id);
            assert_eq!(Category::of_label(sender), Category::Pack);
            assert_eq!(receiver, "unpack", "match {}", m.match_id);
        }
        let matched: HashMap<u64, u64> = (drained.events.iter())
            .filter_map(|ev| match ev.data {
                EventData::MsgMatched {
                    match_id,
                    recv_task,
                    ..
                } => Some((match_id, recv_task)),
                _ => None,
            })
            .collect();
        for m in &faces {
            assert_eq!(matched.get(&m.match_id), Some(&m.recv_task));
        }
    }

    // --- Report schema round-trip --------------------------------------
    let report = PerfReport::from_events(&drained.events, drained.dropped);
    let json = report.to_json();
    obs::json::validate(&json).expect("perf report must be valid JSON");
    assert!(json.contains("\"schema\":\"miniamr-perf-report\""));
    assert!(json.contains("\"version\":1"));
    assert!(!report.human_summary().is_empty());

    // --- Critical path explains wall-clock -----------------------------
    // One window per traced timestep (rank-0 marks), each decomposed into
    // categories that sum to the window span exactly — the 5% acceptance
    // bound is structural here.
    assert_eq!(
        report.timesteps.len(),
        cfg.num_tsteps,
        "one window per timestep"
    );
    for ts in &report.timesteps {
        let bd = &ts.breakdown;
        assert_eq!(
            bd.total(),
            ts.end_us - ts.start_us,
            "timestep {} categories must telescope to its wall-clock",
            ts.tstep
        );
        assert!(ts.nodes > 0, "timestep {} walked no nodes", ts.tstep);
    }

    // --- Per-rank overlap ----------------------------------------------
    assert_eq!(report.ranks_detail.len(), n_ranks);
    for s in &stats {
        let r = (report.ranks_detail.iter())
            .find(|r| r.rank == s.rank as u32)
            .unwrap_or_else(|| panic!("rank {} missing from report", s.rank));
        assert!(
            (0.0..=1.0).contains(&r.overlap_fraction),
            "rank {} overlap {} outside [0, 1]",
            s.rank,
            r.overlap_fraction
        );
    }
}
