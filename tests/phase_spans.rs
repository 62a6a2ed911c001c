//! Phase intervals on the event bus: work that runs as a task is its own
//! interval under its label, and only work on a rank's own thread is a
//! `Span` — so each phase interval is recorded once.
//!
//! Its own test binary: enabling the bus is process-global and sticky.

use miniamr::comm_plan::EXCHANGE_TAG_BASE;
use miniamr::{Config, Variant};
use obs::span::SpanGraph;
use obs::{Event, EventData};
use std::collections::{BTreeMap, HashMap, HashSet};
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

/// Whether `tag` is a ghost exchange's (not the block exchange's or a
/// collective's).
fn is_exchange(tag: i32) -> bool {
    (0..EXCHANGE_TAG_BASE).contains(&tag)
}

/// The ghost-exchange pack intervals and send posts of each rank, in
/// event order: `(true, send time)` or `(false, pack start)`.
fn packs_and_sends(events: &[Event]) -> BTreeMap<u32, Vec<(bool, u64)>> {
    let mut by_rank: BTreeMap<u32, Vec<(bool, u64)>> = BTreeMap::new();
    for ev in events {
        let entry = match ev.data {
            EventData::Span {
                kind: "pack",
                start_us,
                ..
            } => (false, start_us),
            EventData::SendPosted { tag, .. } if is_exchange(tag) => (true, ev.t_us),
            _ => continue,
        };
        by_rank.entry(ev.rank).or_default().push(entry);
    }
    by_rank
}

/// MPI-only sends each message as soon as its packs are done
/// (Algorithm 2). Under `--send_faces` a message is one face, packed in
/// one span, so on every rank packs and sends alternate, and each send
/// is posted before the next message's pack starts.
fn assert_send_per_packed_message(events: &[Event]) {
    let by_rank = packs_and_sends(events);
    assert!(!by_rank.is_empty(), "MPI-only packed and sent nothing");
    for (rank, seq) in by_rank {
        for (i, pair) in seq.windows(2).enumerate() {
            let [(a_send, a_us), (b_send, b_us)] = [pair[0], pair[1]];
            assert_ne!(
                a_send, b_send,
                "rank {rank}: two packs or two sends in a row at {i}"
            );
            assert!(
                !a_send || a_us <= b_us,
                "rank {rank}: pack started before a send at {i}"
            );
        }
        assert_eq!(
            seq.first().map(|e| e.0),
            Some(false),
            "rank {rank}: a send before its pack"
        );
    }
}

/// Fork-join closes the packs of a direction with a barrier before it
/// sends: every `pack` task of an exchange round ends before the round's
/// first send. A round is one direction of one exchange on the rank's
/// main thread: its receives, its pack spawns, then its sends.
fn assert_packs_end_before_sends(events: &[Event]) {
    // Task ids are per runtime, one runtime per rank.
    let ends: HashMap<(u32, u64), u64> = (events.iter())
        .filter_map(|ev| match ev.data {
            EventData::TaskEnd { id, label: "pack" } => Some(((ev.rank, id), ev.seq)),
            _ => None,
        })
        .collect();
    /// One rank's current round.
    #[derive(Default)]
    struct Round {
        packs: Vec<u64>,
        sent: bool,
        /// The rank's last exchange event was a receive post.
        receiving: bool,
    }
    let mut rounds: HashMap<u32, Round> = HashMap::new();
    let mut checked = 0;
    for ev in events {
        let round = rounds.entry(ev.rank).or_default();
        match ev.data {
            // The first receive after other exchange events opens a round.
            EventData::RecvPosted { tag, .. } if is_exchange(tag) && !round.receiving => {
                *round = Round {
                    receiving: true,
                    ..Round::default()
                };
            }
            EventData::TaskCreated {
                id, label: "pack", ..
            } => {
                // It would end after the send that is already posted.
                assert!(
                    !round.sent,
                    "rank {}: pack task {id} spawned after a send",
                    ev.rank
                );
                round.packs.push(id);
                round.receiving = false;
            }
            EventData::SendPosted { tag, .. } if is_exchange(tag) => {
                round.receiving = false;
                if std::mem::replace(&mut round.sent, true) {
                    continue;
                }
                for id in &round.packs {
                    let end = ends.get(&(ev.rank, *id)).copied().unwrap_or(u64::MAX);
                    assert!(
                        end < ev.seq,
                        "rank {}: pack task {id} ended after the round's first send",
                        ev.rank
                    );
                    checked += 1;
                }
            }
            _ => {}
        }
    }
    assert!(checked > 0, "fork-join packed nothing before a send");
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
    let events = drained_run(Variant::MpiOnly);
    assert_send_per_packed_message(&events);
    let kinds = span_kinds(&events);
    for kind in ["stencil", "pack", "unpack"] {
        assert!(
            kinds.contains(kind),
            "MPI-only has no {kind} span: {kinds:?}"
        );
    }

    // Fork-join's parallel loops are tasks named like data-flow's.
    let events = drained_run(Variant::ForkJoin);
    assert_packs_end_before_sends(&events);
    let labels = task_labels(&events);
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
