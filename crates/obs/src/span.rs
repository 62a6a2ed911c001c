//! Causal span graph — the analyzer's node/edge model.
//!
//! [`SpanGraph::build`] folds a seq-sorted event stream (one
//! [`crate::bus::EventBus::drain`] worth, or several concatenated) into
//! three node kinds:
//!
//! * **task nodes** — `[TaskStart, TaskEnd]` intervals, with an
//!   *effective finish* extended to `TaskCompleted` for tasks that ended
//!   blocked on event holds (the TAMPI_Iwait state);
//! * **message nodes** — `[SendPosted, MsgDelivered]` intervals keyed by
//!   the process-unique `match_id`, carrying both endpoints' task
//!   attribution (the cross-rank causal edges);
//! * **wait nodes** — `WaitSpan` intervals where a thread actually
//!   parked (request waits, waitany slow paths, taskwaits).
//!
//! Edges are predecessor lists: `DepEdge` for task → task, the message's
//! `recv_task` for message → task, and the send-side `task` for
//! task → message. [`crate::critpath`] walks these backwards to decompose
//! per-timestep critical paths; [`crate::report`] folds the same graph
//! into per-rank busy/idle/overlap attribution.
//!
//! A phase interval is recorded once: as its task's interval under the
//! task's label, or — for work a rank's own thread does outside any task
//! — as one `Span` under a kind named like the task that would do it.
//! [`SpanGraph::rank_stats`] folds both into one set of busy intervals
//! per rank: busy and idle time, the largest gap, and
//! [`overlap_fraction`], the sweep-line "fraction of busy time with ≥ 2
//! distinct kinds active" measure of the paper's Fig. 3.

use crate::event::{Event, EventData};
use std::collections::HashMap;

/// Critical-path cost category — the five-way split of the report.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Category {
    /// Useful numerical work: stencil sweeps, checksums, refinement
    /// copies.
    Compute,
    /// Marshalling: face pack/unpack and intra-rank copies.
    Pack,
    /// Message time on the wire (send post → delivery), fabric queueing
    /// included.
    Transit,
    /// Blocked time: parked waits and causal gaps on the critical path.
    Wait,
    /// Runtime overhead: send/recv issue tasks, exchange bookkeeping,
    /// and anything unclassified.
    Runtime,
}

impl Category {
    /// Stable lowercase name, used as the report's JSON key stem.
    pub fn name(&self) -> &'static str {
        match self {
            Category::Compute => "compute",
            Category::Pack => "pack",
            Category::Transit => "transit",
            Category::Wait => "wait",
            Category::Runtime => "runtime",
        }
    }

    /// Classifies a task label (or coarse span kind) into a category.
    /// Matching is by prefix so decorated labels ("stencil b12") land in
    /// the same bucket as their plain form.
    pub fn of_label(label: &str) -> Category {
        const COMPUTE: [&str; 5] = [
            "stencil",
            "checksum_local",
            "checksum_remote",
            "boundary",
            "refine_copy",
        ];
        const PACK: [&str; 3] = ["pack", "unpack", "local_copy"];
        if label.starts_with("wait") {
            return Category::Wait;
        }
        if COMPUTE.iter().any(|p| label.starts_with(p)) {
            return Category::Compute;
        }
        if PACK.iter().any(|p| label.starts_with(p)) {
            return Category::Pack;
        }
        Category::Runtime
    }
}

/// A task on the bus: its rank and its id. Every rank runs its own
/// `taskrt` runtime, and a runtime numbers its tasks from 1, so an id
/// alone names one task per rank.
pub type TaskKey = (u32, u64);

/// One task's lifetime as seen by the analyzer.
#[derive(Debug, Clone, Default)]
pub struct TaskNode {
    /// taskrt task id (unique within the task's rank).
    pub id: u64,
    /// Task label (empty if the TaskStart event was dropped).
    pub label: &'static str,
    /// Rank the task executed on.
    pub rank: u32,
    /// Worker lane the task executed on (tasks on one lane run in
    /// program order — the analyzer's resource-dependency fallback edge).
    pub worker: u32,
    /// Body start, bus microseconds.
    pub start_us: u64,
    /// Body end, bus microseconds.
    pub end_us: u64,
    /// Full release (TaskCompleted) — exceeds `end_us` for tasks that
    /// ended blocked on event holds. 0 if never observed.
    pub finish_us: u64,
    /// Time the body returned still holding event holds (TaskBlocked);
    /// 0 = never blocked. A task with `blocked_us > 0` and
    /// `finish_us == 0` is *currently* blocked — the watchdog's
    /// blocked-chain diagnosis starts from these.
    pub blocked_us: u64,
    /// Predecessor task ids on the same rank (DepEdge).
    pub preds: Vec<u64>,
    /// Match ids of messages delivered into this task's receives.
    pub msg_preds: Vec<u64>,
}

impl TaskNode {
    /// The task's key in [`SpanGraph::tasks`].
    pub fn key(&self) -> TaskKey {
        (self.rank, self.id)
    }

    /// The instant this task stopped holding up successors: body end, or
    /// the deferred release for blocked tasks.
    pub fn end_eff(&self) -> u64 {
        self.end_us.max(self.finish_us)
    }
}

/// One matched message's flight, keyed by `match_id`.
#[derive(Debug, Clone, Default)]
pub struct MessageNode {
    /// Process-unique match id (always > 0 here).
    pub match_id: u64,
    /// Task on `src` that posted the send (0 = outside any task).
    pub send_task: u64,
    /// Task on `dst` whose receive it satisfied (0 = outside any task).
    pub recv_task: u64,
    /// Sending rank.
    pub src: u32,
    /// Receiving rank.
    pub dst: u32,
    /// Payload bytes.
    pub bytes: u64,
    /// Send-post time, bus microseconds.
    pub posted_us: u64,
    /// Delivery time, bus microseconds (0 = still in flight).
    pub delivered_us: u64,
}

/// One parked-thread interval (request wait / waitany / taskwait).
#[derive(Debug, Clone)]
pub struct WaitNode {
    /// Rank whose thread parked.
    pub rank: u32,
    /// Wait kind name.
    pub kind: &'static str,
    /// Start, bus microseconds.
    pub start_us: u64,
    /// End, bus microseconds.
    pub end_us: u64,
}

/// Per-rank attribution summary derived from the graph.
#[derive(Debug, Clone)]
pub struct RankStats {
    /// Rank id.
    pub rank: u32,
    /// Union length of this rank's busy intervals, microseconds.
    pub busy_us: u64,
    /// Rank wall span minus busy, microseconds.
    pub idle_us: u64,
    /// Largest stretch inside the rank's wall span with no busy interval,
    /// microseconds (the "blank spaces" of the paper's Fig. 3).
    pub largest_gap_us: u64,
    /// Sweep-line overlap fraction of the rank's task intervals and
    /// phase spans, keyed by name ([`SpanGraph::rank_overlap`]).
    pub overlap_fraction: f64,
    /// Tasks executed on this rank.
    pub tasks: u64,
    /// Parked waits observed on this rank.
    pub waits: u64,
    /// Total parked time, microseconds.
    pub wait_us: u64,
}

/// The assembled cross-rank span graph.
#[derive(Debug, Default)]
pub struct SpanGraph {
    /// Task nodes by rank and taskrt id.
    pub tasks: HashMap<TaskKey, TaskNode>,
    /// Message nodes by match id.
    pub messages: HashMap<u64, MessageNode>,
    /// Parked-wait intervals.
    pub waits: Vec<WaitNode>,
    /// Phase spans: `(rank, kind, start_us, end_us)`.
    pub spans: Vec<(u32, &'static str, u64, u64)>,
    /// Rank-0 timestep marks `(tstep, t_us)`, sorted by time. These
    /// delimit the analyzer's per-timestep windows.
    pub timesteps: Vec<(u32, u64)>,
    /// Earliest observed timestamp, microseconds.
    pub min_us: u64,
    /// Latest observed timestamp, microseconds.
    pub max_us: u64,
}

impl SpanGraph {
    /// Folds a seq-sorted event slice into a graph. Tolerates ring
    /// overflow: a task whose `TaskStart` was dropped still gets a node
    /// from its later events, and a delivery without its send-post gets
    /// a zero-length message node.
    pub fn build(events: &[Event]) -> SpanGraph {
        let mut g = SpanGraph {
            min_us: u64::MAX,
            ..Default::default()
        };
        for ev in events {
            g.min_us = g.min_us.min(ev.t_us);
            g.max_us = g.max_us.max(ev.t_us);
            // Task events carry the task's rank.
            let tasks = &mut g.tasks;
            match &ev.data {
                EventData::TaskStart { id, label } => {
                    let t = task_node(tasks, ev.rank, *id);
                    t.label = label;
                    t.worker = ev.worker;
                    t.start_us = ev.t_us;
                }
                EventData::TaskEnd { id, label } => {
                    let t = task_node(tasks, ev.rank, *id);
                    if t.label.is_empty() {
                        t.label = label;
                        t.worker = ev.worker;
                    }
                    t.end_us = ev.t_us;
                }
                EventData::TaskCompleted { id } => {
                    task_node(tasks, ev.rank, *id).finish_us = ev.t_us;
                }
                EventData::TaskBlocked { id, .. } => {
                    task_node(tasks, ev.rank, *id).blocked_us = ev.t_us;
                }
                EventData::DepEdge { pred, succ } => {
                    task_node(tasks, ev.rank, *succ).preds.push(*pred);
                }
                EventData::SendPosted {
                    dst,
                    bytes,
                    match_id,
                    task,
                    ..
                } if *match_id > 0 => {
                    let m = g.messages.entry(*match_id).or_default();
                    m.match_id = *match_id;
                    m.send_task = *task;
                    m.src = ev.rank;
                    m.dst = *dst;
                    m.bytes = *bytes;
                    m.posted_us = ev.t_us;
                }
                EventData::MsgDelivered {
                    src,
                    bytes,
                    match_id,
                    recv_task,
                    ..
                } if *match_id > 0 => {
                    let m = g.messages.entry(*match_id).or_default();
                    m.match_id = *match_id;
                    m.recv_task = *recv_task;
                    m.dst = ev.rank;
                    m.bytes = *bytes;
                    m.delivered_us = ev.t_us;
                    if m.posted_us == 0 {
                        // Send-post dropped by ring overflow: degrade to a
                        // zero-length node so the edge survives.
                        m.posted_us = ev.t_us;
                        m.src = *src;
                    }
                    if *recv_task > 0 {
                        let t = task_node(tasks, ev.rank, *recv_task);
                        t.msg_preds.push(*match_id);
                    }
                }
                EventData::WaitSpan {
                    kind,
                    start_us,
                    end_us,
                } => {
                    g.max_us = g.max_us.max(*end_us);
                    g.waits.push(WaitNode {
                        rank: ev.rank,
                        kind,
                        start_us: *start_us,
                        end_us: *end_us,
                    });
                }
                EventData::Span {
                    kind,
                    start_us,
                    end_us,
                } => {
                    g.min_us = g.min_us.min(*start_us);
                    g.max_us = g.max_us.max(*end_us);
                    g.spans.push((ev.rank, kind, *start_us, *end_us));
                }
                EventData::TimestepMark { tstep } if ev.rank == 0 => {
                    g.timesteps.push((*tstep, ev.t_us));
                }
                _ => {}
            }
        }
        for t in g.tasks.values() {
            g.max_us = g.max_us.max(t.end_eff());
        }
        g.timesteps.sort_by_key(|&(_, t)| t);
        g.timesteps.dedup_by_key(|&mut (ts, _)| ts);
        if g.min_us == u64::MAX {
            g.min_us = 0;
        }
        g
    }

    /// Every rank's busy intervals, `(name, start_us, end_us)`: task
    /// bodies under their labels and phase spans under their kinds
    /// (zero-length ones left out).
    pub fn busy_intervals(&self) -> HashMap<u32, Vec<(&'static str, u64, u64)>> {
        let mut busy: HashMap<u32, Vec<(&'static str, u64, u64)>> = HashMap::new();
        let tasks = (self.tasks.values()).map(|t| (t.rank, t.label, t.start_us, t.end_us));
        for (rank, name, s, e) in tasks.chain(self.spans.iter().copied()) {
            if e > s {
                busy.entry(rank).or_default().push((name, s, e));
            }
        }
        busy
    }

    /// Per-rank busy/idle/gap/overlap attribution, sorted by rank.
    pub fn rank_stats(&self) -> Vec<RankStats> {
        let busy = self.busy_intervals();
        let mut tasks_per: HashMap<u32, u64> = HashMap::new();
        for t in self.tasks.values().filter(|t| t.end_us > t.start_us) {
            *tasks_per.entry(t.rank).or_default() += 1;
        }
        let mut ranks: Vec<u32> = busy.keys().copied().collect();
        ranks.sort_unstable();
        let mut out = Vec::with_capacity(ranks.len());
        for rank in ranks {
            let intervals = &busy[&rank];
            let (busy_us, largest_gap_us) = union_and_gap(intervals);
            let lo = intervals.iter().map(|&(_, s, _)| s).min().unwrap_or(0);
            let hi = intervals.iter().map(|&(_, _, e)| e).max().unwrap_or(0);
            let (waits, wait_us) = self
                .waits
                .iter()
                .filter(|w| w.rank == rank)
                .fold((0u64, 0u64), |(n, us), w| {
                    (n + 1, us + w.end_us.saturating_sub(w.start_us))
                });
            out.push(RankStats {
                rank,
                busy_us,
                idle_us: (hi - lo).saturating_sub(busy_us),
                largest_gap_us,
                overlap_fraction: overlap_by_name(intervals),
                tasks: tasks_per.get(&rank).copied().unwrap_or(0),
                waits,
                wait_us,
            });
        }
        out
    }

    /// Sweep-line overlap fraction for one rank: its task intervals and
    /// phase spans swept together, keyed by name (a `pack` task and a
    /// `pack` span are one kind).
    pub fn rank_overlap(&self, rank: u32) -> f64 {
        self.busy_intervals()
            .get(&rank)
            .map_or(0.0, |intervals| overlap_by_name(intervals))
    }
}

/// The node of task `id` on `rank`, created on first sight.
fn task_node(tasks: &mut HashMap<TaskKey, TaskNode>, rank: u32, id: u64) -> &mut TaskNode {
    let t = tasks.entry((rank, id)).or_default();
    (t.rank, t.id) = (rank, id);
    t
}

/// Total length of the union of named half-open intervals, and the
/// largest gap between two of its pieces.
fn union_and_gap(intervals: &[(&'static str, u64, u64)]) -> (u64, u64) {
    let mut sorted: Vec<(u64, u64)> = intervals.iter().map(|&(_, s, e)| (s, e)).collect();
    sorted.sort_unstable();
    let (mut total, mut gap) = (0u64, 0u64);
    let mut horizon: Option<u64> = None;
    for (s, e) in sorted {
        match horizon {
            Some(h) if s <= h => {
                if e > h {
                    total += e - h;
                    horizon = Some(e);
                }
            }
            _ => {
                if let Some(h) = horizon {
                    gap = gap.max(s - h);
                }
                total += e.saturating_sub(s);
                horizon = Some(e);
            }
        }
    }
    (total, gap)
}

/// [`overlap_fraction`] of named intervals: one kind per name.
fn overlap_by_name(intervals: &[(&'static str, u64, u64)]) -> f64 {
    let mut kinds: HashMap<&'static str, u32> = HashMap::new();
    let spans: Vec<(u32, u64, u64)> = (intervals.iter())
        .map(|&(name, s, e)| {
            let next = kinds.len() as u32;
            (*kinds.entry(name).or_insert(next), s, e)
        })
        .collect();
    overlap_fraction(&spans)
}

/// Fraction of busy time during which at least two spans of *different*
/// kinds were active — the "phases overlap" measure of the paper's
/// Fig. 3. Spans are `(kind_id, start, end)` in any consistent time
/// unit; returns 0 for fewer than two spans or zero busy time.
pub fn overlap_fraction(spans: &[(u32, u64, u64)]) -> f64 {
    if spans.len() < 2 {
        return 0.0;
    }
    // Edge ordering: ends sort before starts at equal timestamps, so
    // back-to-back spans of different kinds do not count as overlap.
    #[derive(PartialEq, Eq, PartialOrd, Ord)]
    enum Edge {
        End,
        Start,
    }
    let mut points: Vec<(u64, Edge, u32)> = Vec::with_capacity(spans.len() * 2);
    for &(kind, start, end) in spans {
        // Zero-measure spans contribute nothing, and their end edge would
        // sort *before* their start edge (see ordering above), leaving the
        // kind's active count wedged at one for the rest of the sweep.
        // Micro-second clocks produce these constantly for tiny intervals.
        if end <= start {
            continue;
        }
        points.push((start, Edge::Start, kind));
        points.push((end, Edge::End, kind));
    }
    if points.is_empty() {
        return 0.0;
    }
    points.sort_by(|a, b| a.0.cmp(&b.0).then_with(|| a.1.cmp(&b.1)));
    let mut active: HashMap<u32, usize> = HashMap::new();
    let mut overlap = 0u64;
    let mut busy = 0u64;
    let mut prev = points[0].0;
    for (t, edge, kind) in points {
        let span = t.saturating_sub(prev);
        let kinds_active = active.values().filter(|&&c| c > 0).count();
        if kinds_active >= 1 {
            busy += span;
        }
        if kinds_active >= 2 {
            overlap += span;
        }
        match edge {
            Edge::Start => *active.entry(kind).or_insert(0) += 1,
            Edge::End => {
                if let Some(c) = active.get_mut(&kind) {
                    *c = c.saturating_sub(1);
                }
            }
        }
        prev = t;
    }
    if busy == 0 {
        0.0
    } else {
        overlap as f64 / busy as f64
    }
}

/// Diagnoses a stall with the analyzer's own machinery: finds tasks
/// whose body returned still holding event holds (the TAMPI_Iwait
/// state) and that never completed, pairs each with the receives it
/// still has outstanding, and follows the awaited-sender links rank to
/// rank to render the longest currently-blocked causal chain
/// (task → awaited message → sender rank → its blocked task → …).
/// Returns an empty string when nothing is blocked, which the watchdog
/// treats as "no causal diagnosis available".
pub fn blocked_chain_report(events: &[Event]) -> String {
    use std::fmt::Write as _;

    let graph = SpanGraph::build(events);
    // Outstanding receives per task: posted minus delivered. Wildcard
    // receives (src -1 / tag -2) match any delivery.
    let mut pending: HashMap<TaskKey, Vec<(i32, i32)>> = HashMap::new();
    for ev in events {
        match &ev.data {
            EventData::RecvPosted { src, tag, task, .. } if *task > 0 => {
                pending
                    .entry((ev.rank, *task))
                    .or_default()
                    .push((*src, *tag));
            }
            EventData::MsgDelivered {
                src,
                tag,
                recv_task,
                ..
            } if *recv_task > 0 => {
                if let Some(v) = pending.get_mut(&(ev.rank, *recv_task)) {
                    if let Some(pos) = v
                        .iter()
                        .position(|&(s, t)| (s < 0 || s as u32 == *src) && (t == -2 || t == *tag))
                    {
                        v.swap_remove(pos);
                    }
                }
            }
            _ => {}
        }
    }

    let mut blocked: Vec<&TaskNode> = graph
        .tasks
        .values()
        .filter(|t| t.blocked_us > 0 && t.finish_us == 0)
        .collect();
    if blocked.is_empty() {
        return String::new();
    }
    blocked.sort_by_key(|t| (t.blocked_us, t.id));
    // Per rank, the oldest still-blocked task: the hop target when a
    // chain crosses to that rank.
    let mut oldest_by_rank: HashMap<u32, &TaskNode> = HashMap::new();
    for t in &blocked {
        oldest_by_rank.entry(t.rank).or_insert(t);
    }

    // Greedy walk from every blocked task; keep the longest chain.
    // Each rank is visited at most once per walk, so revisiting one
    // means the chain closed on itself — the deadlock cycle.
    let mut best: Vec<(&TaskNode, Option<(i32, i32)>)> = Vec::new();
    for start in &blocked {
        let mut chain: Vec<(&TaskNode, Option<(i32, i32)>)> = Vec::new();
        let mut seen = std::collections::HashSet::new();
        let mut cur: &TaskNode = start;
        loop {
            if !seen.insert(cur.rank) {
                break;
            }
            let awaiting = pending.get(&cur.key()).and_then(|v| v.first()).copied();
            chain.push((cur, awaiting));
            let Some((src, _)) = awaiting else { break };
            let Some(next) = (src >= 0)
                .then(|| oldest_by_rank.get(&(src as u32)))
                .flatten()
            else {
                break;
            };
            cur = next;
        }
        if chain.len() > best.len() {
            best = chain;
        }
    }

    let mut out = String::new();
    let _ = writeln!(
        out,
        "longest blocked chain ({} link(s); {} task(s) blocked on event holds):",
        best.len(),
        blocked.len()
    );
    for (i, (t, awaiting)) in best.iter().enumerate() {
        let label = if t.label.is_empty() { "?" } else { t.label };
        let arrow = if i == 0 { "  " } else { "  -> " };
        let _ = write!(
            out,
            "{arrow}rank {} task {} `{label}` blocked since t+{} us",
            t.rank, t.id, t.blocked_us
        );
        match awaiting {
            Some((src, tag)) => {
                let _ = writeln!(out, ", awaiting recv(src={src}, tag={tag})");
            }
            None => {
                let _ = writeln!(out, " (no outstanding receive attributed)");
            }
        }
    }
    if let Some(&(_, Some((src, _)))) = best.last() {
        if src >= 0 && best.len() > 1 && best.iter().any(|(t, _)| t.rank == src as u32) {
            let _ = writeln!(out, "  (the awaited sender is itself in the chain — cycle)");
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(seq: u64, t_us: u64, rank: u32, data: EventData) -> Event {
        Event {
            seq,
            t_us,
            rank,
            worker: 0,
            data,
        }
    }

    #[test]
    fn overlap_serial_is_zero() {
        assert_eq!(overlap_fraction(&[(0, 0, 10), (1, 10, 20)]), 0.0);
    }

    #[test]
    fn overlap_identical_is_one() {
        let f = overlap_fraction(&[(0, 1, 9), (1, 1, 9)]);
        assert!((f - 1.0).abs() < 1e-9, "{f}");
    }

    #[test]
    fn overlap_zero_length_and_short_inputs() {
        assert_eq!(overlap_fraction(&[]), 0.0);
        assert_eq!(overlap_fraction(&[(0, 0, 100)]), 0.0);
        assert_eq!(overlap_fraction(&[(0, 5, 5), (1, 5, 5)]), 0.0);
    }

    #[test]
    fn overlap_same_kind_concurrency_does_not_count() {
        // Two spans of the SAME kind overlapping: busy but not "overlap".
        assert_eq!(overlap_fraction(&[(0, 0, 10), (0, 0, 10)]), 0.0);
    }

    #[test]
    fn overlap_partial() {
        // Kind 0 over [0,10], kind 1 over [5,15]: overlap 5 of busy 15.
        let f = overlap_fraction(&[(0, 0, 10), (1, 5, 15)]);
        assert!((f - 5.0 / 15.0).abs() < 1e-9, "{f}");
    }

    #[test]
    fn category_mapping() {
        assert_eq!(Category::of_label("stencil"), Category::Compute);
        assert_eq!(Category::of_label("checksum_remote"), Category::Compute);
        assert_eq!(Category::of_label("pack"), Category::Pack);
        assert_eq!(Category::of_label("unpack b3"), Category::Pack);
        assert_eq!(Category::of_label("local_copy"), Category::Pack);
        assert_eq!(Category::of_label("waitany"), Category::Wait);
        assert_eq!(Category::of_label("send"), Category::Runtime);
        assert_eq!(Category::of_label("exchange_recv"), Category::Runtime);
        assert_eq!(Category::of_label("mystery"), Category::Runtime);
    }

    #[test]
    fn graph_builds_tasks_messages_and_edges() {
        let events = vec![
            ev(
                1,
                10,
                0,
                EventData::TaskStart {
                    id: 1,
                    label: "pack",
                },
            ),
            ev(
                2,
                20,
                0,
                EventData::TaskEnd {
                    id: 1,
                    label: "pack",
                },
            ),
            ev(3, 21, 0, EventData::TaskCompleted { id: 1 }),
            // An edge between two tasks of rank 1.
            ev(4, 22, 1, EventData::DepEdge { pred: 1, succ: 2 }),
            ev(
                5,
                25,
                0,
                EventData::SendPosted {
                    dst: 1,
                    tag: 7,
                    comm: 0,
                    bytes: 64,
                    eager: true,
                    match_id: 9,
                    task: 1,
                },
            ),
            ev(
                6,
                30,
                1,
                EventData::TaskStart {
                    id: 2,
                    label: "stencil",
                },
            ),
            ev(
                7,
                40,
                1,
                EventData::MsgDelivered {
                    src: 0,
                    tag: 7,
                    comm: 0,
                    bytes: 64,
                    match_id: 9,
                    recv_task: 2,
                    queue_us: 15,
                },
            ),
            ev(
                8,
                55,
                1,
                EventData::TaskEnd {
                    id: 2,
                    label: "stencil",
                },
            ),
            ev(9, 5, 0, EventData::TimestepMark { tstep: 0 }),
        ];
        let g = SpanGraph::build(&events);
        assert_eq!(g.tasks.len(), 2);
        assert_eq!(g.messages.len(), 1);
        let t1 = &g.tasks[&(0, 1)];
        assert_eq!((t1.start_us, t1.end_us, t1.finish_us), (10, 20, 21));
        assert_eq!(t1.end_eff(), 21);
        let t2 = &g.tasks[&(1, 2)];
        assert_eq!(t2.preds, vec![1]);
        assert_eq!(t2.msg_preds, vec![9]);
        let m = &g.messages[&9];
        assert_eq!((m.send_task, m.recv_task), (1, 2));
        assert_eq!((m.src, m.dst), (0, 1));
        assert_eq!((m.posted_us, m.delivered_us), (25, 40));
        assert_eq!(g.timesteps, vec![(0, 5)]);
        assert_eq!(g.min_us, 5);
        assert_eq!(g.max_us, 55);
    }

    #[test]
    fn graph_tolerates_dropped_send_post() {
        let events = vec![ev(
            1,
            40,
            1,
            EventData::MsgDelivered {
                src: 0,
                tag: 7,
                comm: 0,
                bytes: 8,
                match_id: 3,
                recv_task: 0,
                queue_us: 0,
            },
        )];
        let g = SpanGraph::build(&events);
        let m = &g.messages[&3];
        assert_eq!((m.posted_us, m.delivered_us), (40, 40));
        assert_eq!(m.src, 0);
    }

    #[test]
    fn blocked_task_extends_to_completion() {
        let events = vec![
            ev(
                1,
                0,
                0,
                EventData::TaskStart {
                    id: 5,
                    label: "send",
                },
            ),
            ev(
                2,
                10,
                0,
                EventData::TaskEnd {
                    id: 5,
                    label: "send",
                },
            ),
            ev(3, 10, 0, EventData::TaskBlocked { id: 5, holds: 1 }),
            ev(4, 90, 0, EventData::TaskCompleted { id: 5 }),
        ];
        let g = SpanGraph::build(&events);
        assert_eq!(g.tasks[&(0, 5)].end_eff(), 90);
        assert_eq!(g.max_us, 90);
    }

    #[test]
    fn one_task_id_on_two_ranks_is_two_tasks() {
        // Every rank's runtime numbers its tasks from 1.
        let events = vec![
            ev(
                1,
                0,
                0,
                EventData::TaskStart {
                    id: 1,
                    label: "pack",
                },
            ),
            ev(
                2,
                5,
                1,
                EventData::TaskStart {
                    id: 1,
                    label: "stencil",
                },
            ),
            ev(
                3,
                10,
                0,
                EventData::TaskEnd {
                    id: 1,
                    label: "pack",
                },
            ),
            ev(
                4,
                30,
                1,
                EventData::TaskEnd {
                    id: 1,
                    label: "stencil",
                },
            ),
        ];
        let g = SpanGraph::build(&events);
        assert_eq!(g.tasks.len(), 2);
        let (a, b) = (&g.tasks[&(0, 1)], &g.tasks[&(1, 1)]);
        assert_eq!((a.label, a.start_us, a.end_us), ("pack", 0, 10));
        assert_eq!((b.label, b.start_us, b.end_us), ("stencil", 5, 30));
        let busy: Vec<u64> = g.rank_stats().iter().map(|r| r.busy_us).collect();
        assert_eq!(busy, vec![10, 25]);
    }

    #[test]
    fn rank_stats_busy_and_waits() {
        let events = vec![
            ev(
                1,
                0,
                0,
                EventData::TaskStart {
                    id: 1,
                    label: "stencil",
                },
            ),
            ev(
                2,
                50,
                0,
                EventData::TaskEnd {
                    id: 1,
                    label: "stencil",
                },
            ),
            ev(
                3,
                60,
                0,
                EventData::TaskStart {
                    id: 2,
                    label: "pack",
                },
            ),
            ev(
                4,
                80,
                0,
                EventData::TaskEnd {
                    id: 2,
                    label: "pack",
                },
            ),
            ev(
                5,
                80,
                0,
                EventData::WaitSpan {
                    kind: "taskwait",
                    start_us: 50,
                    end_us: 60,
                },
            ),
        ];
        let g = SpanGraph::build(&events);
        let stats = g.rank_stats();
        assert_eq!(stats.len(), 1);
        let r = &stats[0];
        assert_eq!(r.rank, 0);
        assert_eq!(r.busy_us, 70);
        assert_eq!(r.idle_us, 10);
        assert_eq!(r.largest_gap_us, 10);
        assert_eq!(r.tasks, 2);
        assert_eq!((r.waits, r.wait_us), (1, 10));
        // Serial tasks of different labels: no overlap.
        assert_eq!(r.overlap_fraction, 0.0);
    }

    #[test]
    fn rank_overlap_sweeps_tasks_and_spans_together() {
        let task = |seq: u64, id: u64, label: &'static str, start: u64, end: u64| {
            [
                ev(seq, start, 0, EventData::TaskStart { id, label }),
                ev(seq + 1, end, 0, EventData::TaskEnd { id, label }),
            ]
        };
        let span = |seq: u64, kind: &'static str, start_us: u64, end_us: u64| {
            ev(
                seq,
                end_us,
                0,
                EventData::Span {
                    kind,
                    start_us,
                    end_us,
                },
            )
        };
        let mut events = Vec::new();
        // A stencil task under a main-thread checksum span: 50 us of two
        // kinds. A rank whose only span is the checksum still overlaps.
        events.extend(task(1, 1, "stencil", 0, 100));
        events.push(span(3, "checksum_remote", 50, 150));
        // A pack task and a pack span are one kind: busy, no overlap.
        events.extend(task(4, 2, "pack", 200, 220));
        events.push(span(6, "pack", 210, 230));
        let g = SpanGraph::build(&events);
        let f = g.rank_overlap(0);
        assert!((f - 50.0 / 180.0).abs() < 1e-9, "{f}");
        let stats = g.rank_stats();
        assert_eq!((stats[0].busy_us, stats[0].largest_gap_us), (180, 50));
        assert_eq!(stats[0].overlap_fraction, f);
    }

    #[test]
    fn union_and_gap_merges() {
        let iv = |v: &[(u64, u64)]| -> Vec<(&'static str, u64, u64)> {
            v.iter().map(|&(s, e)| ("k", s, e)).collect()
        };
        assert_eq!(union_and_gap(&iv(&[(0, 10), (5, 15), (20, 25)])), (20, 5));
        assert_eq!(union_and_gap(&iv(&[])), (0, 0));
        assert_eq!(union_and_gap(&iv(&[(3, 3)])), (0, 0));
        // Leading idle is no gap; a contained interval keeps the horizon.
        assert_eq!(union_and_gap(&iv(&[(35, 36), (12, 14), (10, 30)])), (21, 5));
    }

    #[test]
    fn blocked_chain_follows_awaited_senders_and_flags_cycles() {
        // Rank 0's exchange task awaits a recv from rank 1 whose own
        // exchange task awaits a recv from rank 0: the classic deadlock.
        let events = vec![
            ev(
                1,
                0,
                0,
                EventData::TaskStart {
                    id: 1,
                    label: "exchange_recv",
                },
            ),
            ev(
                2,
                5,
                0,
                EventData::RecvPosted {
                    src: 1,
                    tag: 7,
                    comm: 0,
                    task: 1,
                },
            ),
            ev(
                3,
                10,
                0,
                EventData::TaskEnd {
                    id: 1,
                    label: "exchange_recv",
                },
            ),
            ev(4, 10, 0, EventData::TaskBlocked { id: 1, holds: 1 }),
            ev(
                5,
                1,
                1,
                EventData::TaskStart {
                    id: 2,
                    label: "exchange_recv",
                },
            ),
            ev(
                6,
                6,
                1,
                EventData::RecvPosted {
                    src: 0,
                    tag: 7,
                    comm: 0,
                    task: 2,
                },
            ),
            ev(
                7,
                12,
                1,
                EventData::TaskEnd {
                    id: 2,
                    label: "exchange_recv",
                },
            ),
            ev(8, 12, 1, EventData::TaskBlocked { id: 2, holds: 1 }),
        ];
        let report = blocked_chain_report(&events);
        assert!(report.contains("2 link(s)"), "{report}");
        assert!(report.contains("rank 0 task 1"), "{report}");
        assert!(report.contains("rank 1 task 2"), "{report}");
        assert!(report.contains("awaiting recv(src=1, tag=7)"), "{report}");
        assert!(report.contains("cycle"), "{report}");
    }

    #[test]
    fn blocked_chain_ignores_completed_and_satisfied_tasks() {
        // A task that blocked but then completed, and one whose awaited
        // message was delivered, must not appear.
        let events = vec![
            ev(
                1,
                0,
                0,
                EventData::TaskStart {
                    id: 1,
                    label: "send",
                },
            ),
            ev(
                2,
                5,
                0,
                EventData::TaskEnd {
                    id: 1,
                    label: "send",
                },
            ),
            ev(3, 5, 0, EventData::TaskBlocked { id: 1, holds: 1 }),
            ev(4, 9, 0, EventData::TaskCompleted { id: 1 }),
            ev(
                5,
                0,
                1,
                EventData::TaskStart {
                    id: 2,
                    label: "recv",
                },
            ),
            ev(
                6,
                2,
                1,
                EventData::RecvPosted {
                    src: 0,
                    tag: 3,
                    comm: 0,
                    task: 2,
                },
            ),
            ev(
                7,
                6,
                1,
                EventData::TaskEnd {
                    id: 2,
                    label: "recv",
                },
            ),
            ev(8, 6, 1, EventData::TaskBlocked { id: 2, holds: 1 }),
            ev(
                9,
                8,
                1,
                EventData::MsgDelivered {
                    src: 0,
                    tag: 3,
                    comm: 0,
                    bytes: 8,
                    match_id: 4,
                    recv_task: 2,
                    queue_us: 0,
                },
            ),
        ];
        // Task 1 completed; task 2 is still "blocked" (no TaskCompleted)
        // but its receive was satisfied, so the chain stops at it with no
        // outstanding receive.
        let report = blocked_chain_report(&events);
        assert!(!report.contains("task 1 "), "{report}");
        assert!(report.contains("no outstanding receive"), "{report}");

        // Nothing blocked at all → empty diagnosis.
        assert_eq!(blocked_chain_report(&events[..4]), String::new());
    }

    #[test]
    fn zero_length_spans_do_not_wedge_the_sweep() {
        // Regression: a zero-measure span's end edge sorts before its
        // start edge, so the decrement saturated at zero and the start
        // left the kind "active" for the rest of the sweep — every later
        // disjoint span then counted as overlap. Common with micro-second
        // clocks where short intervals round to zero length.
        let spans = vec![(0u32, 5u64, 5u64), (1, 10, 20), (2, 30, 40)];
        assert_eq!(overlap_fraction(&spans), 0.0);
        // Purely zero-measure input degenerates to "no busy time".
        assert_eq!(overlap_fraction(&[(0, 1, 1), (1, 2, 2)]), 0.0);
    }
}
