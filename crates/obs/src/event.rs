//! Event vocabulary of the bus.
//!
//! One enum covers every layer: task lifecycle (taskrt), message
//! lifecycle (vmpi), event holds (tampi via taskrt), and the phase spans
//! a rank's own thread runs outside any task ([`crate::phase_span`]).
//! Variants carry only `Copy` payloads
//! plus `&'static str` labels so an [`Event`] is small and cheap to move
//! through the ring buffers.

/// Lane id of a rank's main thread (outside any task worker).
pub const LANE_MAIN: u32 = u32::MAX;
/// Lane id of the transport's delivery thread ("the network").
pub const LANE_NET: u32 = u32::MAX - 1;
/// Rank id used when the emitting thread has no rank context.
pub const UNKNOWN_RANK: u32 = u32::MAX;

/// One structured event, stamped with a global sequence number and a
/// microsecond timestamp relative to the bus epoch.
#[derive(Debug, Clone)]
pub struct Event {
    /// Global total-order sequence number (the watchdog's progress
    /// signal).
    pub seq: u64,
    /// Microseconds since the bus epoch.
    pub t_us: u64,
    /// Rank the event belongs to ([`UNKNOWN_RANK`] when not attributable).
    pub rank: u32,
    /// Worker lane within the rank ([`LANE_MAIN`], [`LANE_NET`], or a
    /// worker index).
    pub worker: u32,
    /// What happened.
    pub data: EventData,
}

/// The event payload: one variant per instrumented transition.
#[derive(Debug, Clone)]
pub enum EventData {
    /// taskrt: a task was spawned with `preds` unreleased predecessors.
    TaskCreated {
        /// Task id.
        id: u64,
        /// Task label.
        label: &'static str,
        /// Dependency edges created at registration.
        preds: u32,
        /// True when the edges were installed from a cached task trace
        /// instead of fresh claim-table analysis.
        replayed: bool,
    },
    /// taskrt: a task's last predecessor released; it is now schedulable.
    TaskReady {
        /// Task id.
        id: u64,
    },
    /// taskrt: a worker started executing the task body.
    TaskStart {
        /// Task id.
        id: u64,
        /// Task label.
        label: &'static str,
    },
    /// taskrt: the task body returned.
    TaskEnd {
        /// Task id.
        id: u64,
        /// Task label.
        label: &'static str,
    },
    /// taskrt: the body finished but `holds` event holds are still
    /// outstanding (blocked-on-event, the TAMPI_Iwait state).
    TaskBlocked {
        /// Task id.
        id: u64,
        /// Outstanding event holds.
        holds: u32,
    },
    /// taskrt: the task released its dependencies (fully complete).
    TaskCompleted {
        /// Task id.
        id: u64,
    },
    /// taskrt: a dependency edge `pred → succ` was created at spawn.
    DepEdge {
        /// Predecessor task id.
        pred: u64,
        /// Successor task id.
        succ: u64,
    },
    /// taskrt: an event hold was acquired on a task (deferred release).
    HoldAcquire {
        /// Task id the hold defers.
        task: u64,
    },
    /// taskrt: an event hold was dropped.
    HoldRelease {
        /// Task id the hold deferred.
        task: u64,
    },
    /// vmpi: a send was posted. `eager` marks sends that complete
    /// immediately (payload below the eager threshold or self-send);
    /// rendezvous sends complete when the transfer drains.
    SendPosted {
        /// Destination rank (communicator-local).
        dst: u32,
        /// Message tag.
        tag: i32,
        /// Communicator id.
        comm: u64,
        /// Payload size in bytes.
        bytes: u64,
        /// Eager (true) vs rendezvous (false) protocol.
        eager: bool,
        /// Process-unique match id tying this send to its eventual
        /// delivery (0 = unattributed; allocated only while tracing).
        match_id: u64,
        /// Task that posted the send (0 = outside any task).
        task: u64,
    },
    /// vmpi: a receive was posted.
    RecvPosted {
        /// Source rank, or the ANY_SOURCE wildcard (-1).
        src: i32,
        /// Message tag, or the ANY_TAG wildcard (-2).
        tag: i32,
        /// Communicator id.
        comm: u64,
        /// Task that posted the receive (0 = outside any task).
        task: u64,
    },
    /// vmpi: an envelope paired with a posted receive. `at_send` is true
    /// when the receive was already posted at send time.
    MsgMatched {
        /// Sending rank (communicator-local).
        src: u32,
        /// Message tag.
        tag: i32,
        /// Communicator id.
        comm: u64,
        /// Payload size in bytes.
        bytes: u64,
        /// Matched at send-post time (true) or recv-post time (false).
        at_send: bool,
        /// Match id from the paired [`EventData::SendPosted`] (0 = unknown).
        match_id: u64,
        /// Task that posted the matched receive (0 = outside any task).
        recv_task: u64,
    },
    /// vmpi: a matched payload was copied to its target and the requests
    /// completed (fires on the delivery lane).
    MsgDelivered {
        /// Sending rank (communicator-local).
        src: u32,
        /// Message tag.
        tag: i32,
        /// Communicator id.
        comm: u64,
        /// Payload size in bytes.
        bytes: u64,
        /// Match id from the paired [`EventData::SendPosted`] (0 = unknown).
        match_id: u64,
        /// Task that posted the matched receive (0 = outside any task).
        recv_task: u64,
        /// Fabric queue + transit time: delivery time minus send-post
        /// time, in bus microseconds (0 when unattributed).
        queue_us: u64,
    },
    /// vmpi: a `waitany` call woke up with a completed request.
    WaitanyWake {
        /// Index of the completed request within the set.
        index: u32,
    },
    /// vmpi: mailbox depth after a queue mutation (drives the
    /// requests-in-flight and bytes-queued counter tracks).
    QueueDepth {
        /// World rank owning the mailbox.
        mailbox: u32,
        /// Unmatched envelopes queued.
        msgs: u32,
        /// Posted-but-unmatched receives.
        recvs: u32,
        /// Total payload bytes queued in unmatched envelopes.
        bytes: u64,
    },
    /// vmpi fabric: per-node link state after a flow was injected or
    /// retired (drives the in-flight-flow and uplink-bytes counter
    /// tracks of the contention-aware network fabric).
    FabricDepth {
        /// Fabric node index (ranks grouped per `ranks_per_node`).
        node: u32,
        /// Flows currently draining through the node's uplink.
        up_flows: u32,
        /// Flows currently draining through the node's downlink.
        down_flows: u32,
        /// Payload bytes still queued on the node's uplink.
        queued_bytes: u64,
    },
    /// depsan: a data-flow contract violation (undeclared access, race,
    /// communication lint). Rare by construction — a correct run emits
    /// none — so the leaked `detail` string is acceptable.
    SanViolation {
        /// Violation kind (kebab-case, e.g. `"tag-size-mismatch"`).
        kind: &'static str,
        /// depsan task id of the offending scope (0 = outside any task).
        task: u64,
        /// Object involved (0 when not object-related).
        obj: u64,
        /// Human-readable description.
        detail: &'static str,
    },
    /// vmpi chaos: the fault plan acted on a frame. `kind` is the fault
    /// kind (`"drop"`, `"dup"`, `"corrupt"`, `"delay"`, `"stall"`,
    /// `"crash"`, `"crash-drop"`).
    FaultInjected {
        /// Fault kind.
        kind: &'static str,
        /// Sending world rank.
        src: u32,
        /// Destination world rank.
        dst: u32,
        /// Message tag.
        tag: i32,
        /// Reliability-layer sequence number on the (src, dst) channel.
        seq: u64,
    },
    /// vmpi chaos: the reliability layer re-sent an unacknowledged frame.
    Retransmit {
        /// Sending world rank.
        src: u32,
        /// Destination world rank.
        dst: u32,
        /// Message tag.
        tag: i32,
        /// Channel sequence number of the frame.
        seq: u64,
        /// Retransmission attempt (1 = first resend).
        attempt: u32,
    },
    /// core: a rank snapshotted its local mesh state for rollback.
    CheckpointTaken {
        /// Rank that took the checkpoint.
        rank: u32,
        /// Timestep at the snapshot.
        tstep: u32,
        /// Stage within the timestep.
        stage: u32,
        /// Blocks captured.
        blocks: u32,
        /// Approximate payload bytes captured.
        bytes: u64,
    },
    /// vmpi chaos: a frame was acknowledged after one or more
    /// retransmissions — the peer recovered within the retry budget.
    RankRecovered {
        /// Peer world rank that finally acknowledged.
        peer: u32,
        /// Retransmissions it took.
        retries: u32,
    },
    /// taskrt: a trace-cache transition (`"record"`, `"close"`, `"hit"`,
    /// `"divergence"`, `"invalidate"`). `tasks` is the number of tasks
    /// the transition covered: the trace length — for a `"close"` the
    /// tasks it froze, 0 when it parked the key instead — or 0 for
    /// invalidations.
    TraceMark {
        /// Transition kind.
        kind: &'static str,
        /// Trace scope key.
        key: u64,
        /// Tasks covered by the transition.
        tasks: u32,
    },
    /// core: a phase interval a rank's own thread ran outside any task
    /// ([`crate::phase_span`]; stencil, pack, unpack, ... — the Fig. 1–3
    /// palette, named like the tasks that do the same work).
    Span {
        /// Phase kind name.
        kind: &'static str,
        /// Start, microseconds since the bus epoch.
        start_us: u64,
        /// End, microseconds since the bus epoch.
        end_us: u64,
    },
    /// vmpi/taskrt: the calling thread blocked waiting for progress
    /// (`"request_wait"`, `"waitany"`, `"taskwait"`). Unlike [`EventData::Span`]
    /// these are emitted only when the wait actually parked the thread.
    WaitSpan {
        /// Wait kind name.
        kind: &'static str,
        /// Start of the blocked interval, bus microseconds.
        start_us: u64,
        /// End of the blocked interval, bus microseconds.
        end_us: u64,
    },
    /// core: a variant's main loop entered timestep `tstep` (rank-0 marks
    /// delimit the analyzer's per-timestep windows).
    TimestepMark {
        /// Timestep index about to run.
        tstep: u32,
    },
}

impl EventData {
    /// Short stable name of the variant (used by exporters).
    pub fn name(&self) -> &'static str {
        match self {
            EventData::TaskCreated { .. } => "task_created",
            EventData::TaskReady { .. } => "task_ready",
            EventData::TaskStart { .. } => "task_start",
            EventData::TaskEnd { .. } => "task_end",
            EventData::TaskBlocked { .. } => "task_blocked",
            EventData::TaskCompleted { .. } => "task_completed",
            EventData::DepEdge { .. } => "dep_edge",
            EventData::HoldAcquire { .. } => "hold_acquire",
            EventData::HoldRelease { .. } => "hold_release",
            EventData::SendPosted { .. } => "send_posted",
            EventData::RecvPosted { .. } => "recv_posted",
            EventData::MsgMatched { .. } => "msg_matched",
            EventData::MsgDelivered { .. } => "msg_delivered",
            EventData::WaitanyWake { .. } => "waitany_wake",
            EventData::QueueDepth { .. } => "queue_depth",
            EventData::FabricDepth { .. } => "fabric_depth",
            EventData::SanViolation { .. } => "san_violation",
            EventData::FaultInjected { .. } => "fault_injected",
            EventData::Retransmit { .. } => "retransmit",
            EventData::CheckpointTaken { .. } => "checkpoint_taken",
            EventData::RankRecovered { .. } => "rank_recovered",
            EventData::TraceMark { .. } => "trace_mark",
            EventData::Span { .. } => "span",
            EventData::WaitSpan { .. } => "wait_span",
            EventData::TimestepMark { .. } => "timestep",
        }
    }
}
