//! Phase intervals on the event bus: work that runs as a task is its own
//! interval under its label, and only work on a rank's own thread is a
//! `Span` — so each phase interval is recorded once.
//!
//! Its own test binary: enabling the bus is process-global and sticky.

use miniamr::{Config, Variant};
use obs::span::SpanGraph;
use obs::{Event, EventData};
use std::collections::HashSet;
use std::time::Duration;
use vmpi::NetworkModel;

/// One smoke run of `variant`, drained from the bus.
fn drained_run(variant: Variant) -> Vec<Event> {
    let mut cfg = Config::smoke_test();
    cfg.num_tsteps = 3;
    cfg.stages_per_ts = 4;
    cfg.workers = 3;
    cfg.variant = variant;
    cfg.send_faces = true;
    cfg.separate_buffers = true;
    let net = NetworkModel::new(Duration::from_micros(100), 1.0e9);
    let stats = miniamr::run_world(&cfg, cfg.params.num_ranks(), net);
    assert!(stats.iter().all(|s| s.checksums_failed == 0), "{variant:?}");
    let drained = obs::bus().expect("bus enabled").drain();
    assert_eq!(
        drained.dropped, 0,
        "{variant:?}: the rings must hold the run"
    );
    drained.events
}

/// The kinds of the `Span`s in `events`.
fn span_kinds(events: &[Event]) -> HashSet<&'static str> {
    (events.iter())
        .filter_map(|ev| match ev.data {
            EventData::Span { kind, .. } => Some(kind),
            _ => None,
        })
        .collect()
}

/// The label of every task that started in `events`.
fn task_labels(events: &[Event]) -> Vec<&'static str> {
    (events.iter())
        .filter_map(|ev| match ev.data {
            EventData::TaskStart { label, .. } => Some(label),
            _ => None,
        })
        .collect()
}

#[test]
fn trace_capture_works() {
    obs::enable_with_capacity(1 << 18);

    // MPI-only runs every phase on the rank's own thread.
    let kinds = span_kinds(&drained_run(Variant::MpiOnly));
    for kind in ["stencil", "pack", "unpack"] {
        assert!(
            kinds.contains(kind),
            "MPI-only has no {kind} span: {kinds:?}"
        );
    }

    // Fork-join's parallel loops are tasks named like data-flow's.
    let labels = task_labels(&drained_run(Variant::ForkJoin));
    assert!(labels.iter().all(|l| !l.is_empty()), "an unlabelled task");
    for kind in ["stencil", "pack", "unpack"] {
        assert!(labels.contains(&kind), "fork-join has no {kind} task");
    }

    // Data-flow: a span is main-thread work, never inside a task of the
    // same rank and lane.
    let events = drained_run(Variant::DataFlow);
    let graph = SpanGraph::build(&events);
    let mut spans = 0;
    for ev in &events {
        let EventData::Span {
            kind,
            start_us,
            end_us,
        } = ev.data
        else {
            continue;
        };
        spans += 1;
        let inside = (graph.tasks.values()).find(|t| {
            (t.rank, t.worker) == (ev.rank, ev.worker)
                && t.start_us <= start_us
                && end_us <= t.end_us
        });
        assert!(
            inside.is_none(),
            "{kind} span [{start_us}, {end_us}] inside task {:?}",
            inside.map(|t| (t.id, t.label))
        );
    }
    assert!(spans > 0, "data-flow validated no checksum");
    let stats = graph.rank_stats();
    assert!(
        stats.iter().any(|r| r.overlap_fraction > 0.0),
        "no data-flow rank overlaps phases: {stats:?}"
    );
}
