//! Per-rank message matching engine: the one place a message meets a
//! receive.
//!
//! Everything a sender hands to a mailbox goes through [`arrive`] (plain
//! sends and the frames [`crate::reliable`] releases in order); every
//! receive goes through [`post`]. Both match-or-queue under the
//! destination rank's mailbox lock, which makes matching order identical
//! to operation order and therefore preserves MPI's non-overtaking
//! guarantee, and both end in the same `matched` → `deliver` →
//! `complete` tail, run outside the lock. The payload only becomes
//! *available* at the envelope's due time (see [`crate::delivery`]).

use crate::comm::{Status, ANY_SOURCE, ANY_TAG};
use crate::error::{Result, VmpiError};
use crate::request::RequestState;
use crate::world::WorldShared;
use parking_lot::{Condvar, Mutex};
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Instant;

/// A closure that copies an arrived payload into user-provided storage.
pub(crate) type PayloadWriter = Box<dyn FnOnce(&[u8]) -> Result<()> + Send>;

/// Where a matched payload ends up.
pub(crate) enum RecvTarget {
    /// The request owns the payload; the user extracts it afterwards.
    Owned,
    /// A writer closure copies the payload into user-provided storage
    /// (a [`crate::BufSlice`] region or a borrowed slice).
    Writer(PayloadWriter),
}

/// What rides with every payload, by value, from send-post to delivery.
#[derive(Clone, Copy)]
pub(crate) struct MsgHeader {
    /// Communicator-local rank of the sender (what receives match on).
    pub src: usize,
    pub tag: i32,
    pub comm: u64,
    /// depsan scope of the posting task (0 = none / sanitizer disabled).
    pub san_scope: u64,
    /// Trace match id carried from send-post to delivery (0 = untraced).
    pub match_id: u64,
    /// Bus time the send was posted, for queue-time attribution
    /// (0 = untraced).
    pub posted_us: u64,
}

impl MsgHeader {
    /// Completion status of either end of a `bytes`-sized transfer.
    pub(crate) fn status(&self, bytes: usize) -> Status {
        Status {
            source: self.src,
            tag: self.tag,
            bytes,
        }
    }

    fn accepted_by(&self, src: i32, tag: i32, comm: u64) -> bool {
        comm == self.comm
            && (src == ANY_SOURCE || src as usize == self.src)
            && (tag == ANY_TAG || tag == self.tag)
    }
}

/// When a payload becomes available and what completes with it.
pub(crate) struct Transit {
    pub due: Instant,
    /// Flow id in the contention-aware fabric, when the transfer went
    /// through it (`due` is then only the initial estimate; the delivery
    /// job polls the fabric for the real drain time).
    pub flow: Option<u64>,
    /// Present for rendezvous sends: completed when the payload drains.
    pub send_state: Option<Arc<RequestState>>,
}

/// A message handed to a mailbox; queued there while unmatched.
pub(crate) struct Envelope {
    pub hdr: MsgHeader,
    pub payload: Vec<u8>,
    pub transit: Transit,
}

/// Sanitizer metadata of a receive: what it expects and who posted it.
/// Zero-valued while the sanitizer is disabled.
#[derive(Clone, Copy, Default)]
pub(crate) struct RecvSan {
    /// Exact payload size the receive expects, when known
    /// (`irecv_into` regions; `None` for owned-payload receives).
    pub expected_bytes: Option<usize>,
    /// `(obj, start, end)` of the destination region (obj 0 = none).
    pub region: (u64, usize, usize),
    /// depsan scope of the posting task.
    pub scope: u64,
}

/// A posted-but-unmatched receive.
pub(crate) struct PendingRecv {
    pub src: i32,
    pub tag: i32,
    pub comm: u64,
    pub state: Arc<RequestState>,
    pub target: RecvTarget,
    pub san: RecvSan,
    /// Task that posted the receive (`obs::thread_task()` at post time;
    /// 0 = outside any task or tracing disabled).
    pub obs_task: u64,
}

/// Which thread runs [`arrive`], and so where its events land.
#[derive(Clone, Copy)]
pub(crate) enum Lane {
    /// The sending thread, inside its `isend`: queue-depth events carry
    /// its own thread context, a match is booked to the receiving rank
    /// on the caller's lane.
    Caller,
    /// The reliability layer releasing a frame: everything is booked to
    /// the receiving rank's network lane.
    Net,
}

#[derive(Default)]
pub(crate) struct MailboxInner {
    msgs: VecDeque<Envelope>,
    recvs: VecDeque<PendingRecv>,
    /// The latest receive posted from a task for each specific
    /// `(src, tag, comm)` with a known size (sanitizer only).
    san_last_recv: HashMap<(i32, i32, u64), RecvSan>,
}

impl MailboxInner {
    /// Finds the first posted receive matching an incoming message.
    fn match_arriving(&mut self, hdr: &MsgHeader) -> Option<PendingRecv> {
        let idx = self
            .recvs
            .iter()
            .position(|r| hdr.accepted_by(r.src, r.tag, r.comm))?;
        self.recvs.remove(idx)
    }

    /// Finds the earliest-sent unmatched message matching a posted receive.
    fn match_posted(&mut self, src: i32, tag: i32, comm: u64) -> Option<Envelope> {
        let idx = self
            .msgs
            .iter()
            .position(|m| m.hdr.accepted_by(src, tag, comm))?;
        self.msgs.remove(idx)
    }

    /// Looks (without consuming) for a matching message whose payload is
    /// already available; used by `probe`/`iprobe`.
    pub(crate) fn peek_available(
        &self,
        src: i32,
        tag: i32,
        comm: u64,
        now: Instant,
    ) -> Option<Status> {
        self.msgs
            .iter()
            .find(|m| m.hdr.accepted_by(src, tag, comm) && m.transit.due <= now)
            .map(|m| m.hdr.status(m.payload.len()))
    }

    /// Earliest availability time of any matching message (for blocking
    /// probes that need to sleep until a payload drains).
    pub(crate) fn earliest_match(&self, src: i32, tag: i32, comm: u64) -> Option<Instant> {
        self.msgs
            .iter()
            .filter(|m| m.hdr.accepted_by(src, tag, comm))
            .map(|m| m.transit.due)
            .min()
    }

    /// Emits the queue-depth counter sample after a queue mutation
    /// (unmatched messages, posted receives, queued payload bytes).
    fn emit_depth(&self, rank: usize, lane: Lane) {
        let Some(bus) = obs::bus() else { return };
        let depth = obs::EventData::QueueDepth {
            mailbox: rank as u32,
            msgs: self.msgs.len() as u32,
            recvs: self.recvs.len() as u32,
            bytes: self.msgs.iter().map(|m| m.payload.len() as u64).sum(),
        };
        match lane {
            Lane::Caller => bus.emit(depth),
            Lane::Net => bus.emit_full(rank as u32, obs::LANE_NET, depth),
        }
    }

    /// depsan lint: the message about to be queued collides with an
    /// already-queued unmatched message on the same `(src, tag, comm)`
    /// but carries a different payload size. Same-tag messages are
    /// matched in send order, so a size difference means the receive
    /// posting order is load-bearing — exactly the situation a WAW/WAR
    /// serialisation edge between the sending tasks is supposed to
    /// prevent. Where that edge exists (the earlier sender
    /// happens-before this one: variable groups of uneven size reusing a
    /// message's buffer slot and tag in turn) the send order is fixed and
    /// the lint has nothing to ask for.
    fn san_check_envelope(&self, env: &Envelope, dst_rank: usize) {
        let hdr = &env.hdr;
        for m in &self.msgs {
            if m.hdr.src == hdr.src
                && m.hdr.tag == hdr.tag
                && m.hdr.comm == hdr.comm
                && m.payload.len() != env.payload.len()
                && !depsan::happens_before(m.hdr.san_scope, hdr.san_scope)
            {
                depsan::report(depsan::Violation {
                    kind: depsan::ViolationKind::TagSizeMismatch,
                    rank: dst_rank as u32,
                    task: 0,
                    label: String::new(),
                    obj: 0,
                    detail: format!(
                        "two unmatched messages queued for rank {dst_rank} share src {} tag {} comm {:#x} but differ in size: {} bytes (sent by {}) vs {} bytes (sent by {})\nsame-tag messages match in send order, so mismatched sizes make the receive pairing schedule-dependent — the sending tasks need a serialising WAW/WAR edge or distinct tags",
                        hdr.src, hdr.tag, hdr.comm,
                        m.payload.len(), depsan::describe_task(m.hdr.san_scope),
                        env.payload.len(), depsan::describe_task(hdr.san_scope),
                    ),
                });
                return;
            }
        }
    }

    /// depsan lint, on every receive a task posts: the previous receive
    /// for the same *specific* `(src, tag, comm)` expected a different
    /// exact size, and the task that posted it does not happen-before the
    /// task posting this one. Same-tag messages match in send order, so
    /// only that order between the posting tasks makes the pairing
    /// deterministic — whether or not this schedule put the two receives
    /// in flight at once (a receive posted from an on-ready gate is in
    /// flight only after its task's predecessors are done, which makes
    /// the overlap [`Self::san_check_recv`] looks for rare). Receives
    /// posted outside a task have no recorded order and are not compared.
    fn san_check_recv_order(&mut self, recv: &PendingRecv, dst_rank: usize) {
        let (Some(exp), false, false, false) = (
            recv.san.expected_bytes,
            recv.src == ANY_SOURCE,
            recv.tag == ANY_TAG,
            recv.san.scope == 0,
        ) else {
            return;
        };
        let key = (recv.src, recv.tag, recv.comm);
        let Some(prev) = self.san_last_recv.insert(key, recv.san) else {
            return;
        };
        if prev.expected_bytes == Some(exp) || depsan::happens_before(prev.scope, recv.san.scope) {
            return;
        }
        let (po, ps, pe) = prev.region;
        let (no, ns, ne) = recv.san.region;
        depsan::report(depsan::Violation {
            kind: depsan::ViolationKind::AmbiguousRecv,
            rank: dst_rank as u32,
            task: recv.san.scope,
            label: depsan::task_label(recv.san.scope),
            obj: no,
            detail: format!(
                "two receives for src {} tag {} comm {:#x} on rank {dst_rank} expect different sizes and their posting tasks are not ordered:\n  obj {po} [{ps}..{pe}) expecting {} bytes, posted earlier by {}\n  obj {no} [{ns}..{ne}) expecting {exp} bytes, posted by {}\nno dependency path orders the two posts, so which message each receive gets is schedule-dependent (aliased tag / group-offset bug)",
                recv.src,
                recv.tag,
                recv.comm,
                prev.expected_bytes.unwrap_or(0),
                depsan::describe_task(prev.scope),
                depsan::describe_task(recv.san.scope),
            ),
        });
    }

    /// depsan lint: the receive about to be posted collides with an
    /// already-pending receive for the same *specific* (non-wildcard)
    /// `(src, tag, comm)` while expecting a different exact size. The
    /// two destination regions are necessarily disjoint (else the posting
    /// tasks would have a WAW edge and never be in flight together), so
    /// whichever arrival order the schedule produces, one receive gets a
    /// wrong-size payload.
    fn san_check_recv(&self, recv: &PendingRecv, dst_rank: usize) {
        let (Some(exp), false, false) = (
            recv.san.expected_bytes,
            recv.src == ANY_SOURCE,
            recv.tag == ANY_TAG,
        ) else {
            return;
        };
        for r in &self.recvs {
            if r.src == recv.src && r.tag == recv.tag && r.comm == recv.comm {
                if let Some(prev_exp) = r.san.expected_bytes {
                    if prev_exp != exp {
                        let (po, ps, pe) = r.san.region;
                        let (no, ns, ne) = recv.san.region;
                        depsan::report(depsan::Violation {
                            kind: depsan::ViolationKind::AmbiguousRecv,
                            rank: dst_rank as u32,
                            task: recv.san.scope,
                            label: depsan::task_label(recv.san.scope),
                            obj: no,
                            detail: format!(
                                "two receives for src {} tag {} comm {:#x} are in flight on rank {dst_rank} with different sizes:\n  obj {po} [{ps}..{pe}) expecting {prev_exp} bytes, posted by {}\n  obj {no} [{ns}..{ne}) expecting {exp} bytes, posted by {}\nthe destination regions do not overlap, so no WAW/WAR edge serialises the posting tasks and the match order is schedule-dependent (aliased tag / group-offset bug)",
                                recv.src, recv.tag, recv.comm,
                                depsan::describe_task(r.san.scope),
                                depsan::describe_task(recv.san.scope),
                            ),
                        });
                        return;
                    }
                }
            }
        }
    }

    /// depsan finalize scan: anything still unmatched when the world is
    /// torn down is a leaked request — *except* receives whose messages
    /// the fault plan destroyed for good (a crashed sender or an
    /// exhausted retry budget). Each recorded loss excuses at most one
    /// matching pending receive; leaks beyond the recorded losses are
    /// still violations.
    pub(crate) fn san_check_finalize(&self, rank: usize) {
        if self.msgs.is_empty() && self.recvs.is_empty() {
            return;
        }
        let mut losses = depsan::take_chaos_losses_for(rank as u32);
        let mut excused = 0usize;
        let leaked_recvs: Vec<&PendingRecv> = self
            .recvs
            .iter()
            .filter(|r| {
                let hit = losses.iter().position(|l| {
                    l.comm == r.comm
                        && (r.src == ANY_SOURCE || r.src as usize == l.src)
                        && (r.tag == ANY_TAG || r.tag == l.tag)
                });
                match hit {
                    Some(i) => {
                        losses.swap_remove(i);
                        excused += 1;
                        false
                    }
                    None => true,
                }
            })
            .collect();
        if self.msgs.is_empty() && leaked_recvs.is_empty() {
            return;
        }
        use std::fmt::Write;
        let mut detail = format!(
            "{} unmatched message(s) and {} pending receive(s) at finalize",
            self.msgs.len(),
            leaked_recvs.len(),
        );
        if excused > 0 {
            let _ = write!(
                detail,
                " ({excused} receive(s) excused: fault plan dropped their messages)"
            );
        }
        detail.push_str(":\n");
        for m in &self.msgs {
            let _ = writeln!(
                detail,
                "rank {rank}: unmatched message from src {} tag {} comm {:#x} ({} bytes)",
                m.hdr.src,
                m.hdr.tag,
                m.hdr.comm,
                m.payload.len(),
            );
        }
        for r in &leaked_recvs {
            let _ = writeln!(
                detail,
                "rank {rank}: pending recv from src {} tag {} comm {:#x} (posted, unmatched)",
                r.src, r.tag, r.comm,
            );
        }
        depsan::report(depsan::Violation {
            kind: depsan::ViolationKind::FinalizeLeak,
            rank: rank as u32,
            task: 0,
            label: String::new(),
            obj: 0,
            detail: detail.trim_end().to_string(),
        });
    }

    /// World poisoning ([`crate::PeerLostAction::AbortWorld`]): drains
    /// everything unmatched, returning the receive request states and
    /// the rendezvous send states so the caller can fail them outside
    /// the mailbox lock. Receive targets (payload writers) are dropped
    /// unrun.
    pub(crate) fn drain_for_poison(&mut self) -> (Vec<Arc<RequestState>>, Vec<Arc<RequestState>>) {
        let recvs = self.recvs.drain(..).map(|r| r.state).collect();
        let sends = self
            .msgs
            .drain(..)
            .filter_map(|m| m.transit.send_state)
            .collect();
        (recvs, sends)
    }

    /// Human-readable snapshot of unmatched state for the stall
    /// watchdog. Empty when the mailbox is quiescent.
    pub(crate) fn dump(&self, rank: usize) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        for m in &self.msgs {
            let _ = writeln!(
                out,
                "rank {rank}: unmatched message from src {} tag {} comm {:#x} ({} bytes, {})",
                m.hdr.src,
                m.hdr.tag,
                m.hdr.comm,
                m.payload.len(),
                if m.transit.send_state.is_some() {
                    "rendezvous"
                } else {
                    "eager"
                },
            );
        }
        for r in &self.recvs {
            let _ = write!(
                out,
                "rank {rank}: pending recv from src {} tag {} comm {:#x} (posted, unmatched)",
                r.src, r.tag, r.comm,
            );
            if r.obs_task != 0 {
                let _ = write!(out, " posted by task {}", r.obs_task);
            }
            out.push('\n');
        }
        out
    }

    #[cfg(test)]
    pub(crate) fn queued_msgs(&self) -> usize {
        self.msgs.len()
    }
}

/// One rank's mailbox: matching state plus a condvar so blocking probes
/// can sleep until a new envelope arrives.
pub(crate) struct Mailbox {
    pub inner: Mutex<MailboxInner>,
    pub arrived: Condvar,
}

impl Mailbox {
    pub(crate) fn new() -> Self {
        Mailbox {
            inner: Mutex::new(MailboxInner::default()),
            arrived: Condvar::new(),
        }
    }
}

/// A message reaches mailbox `dst` (a world rank): pair it with the first
/// matching posted receive or queue it. Plain sends call this from
/// `isend`; the reliability layer calls it per frame released in order.
pub(crate) fn arrive(shared: &Arc<WorldShared>, dst: usize, env: Envelope, lane: Lane) {
    let mailbox = &shared.mailboxes[dst];
    let recv = {
        let mut inner = mailbox.inner.lock();
        match inner.match_arriving(&env.hdr) {
            Some(recv) => recv,
            None => {
                if depsan::is_enabled() {
                    inner.san_check_envelope(&env, dst);
                }
                inner.msgs.push_back(env);
                inner.emit_depth(dst, lane);
                drop(inner);
                mailbox.arrived.notify_all();
                return;
            }
        }
    };
    matched(shared, dst, env, recv, Some(lane));
}

/// Rank `me` (a world rank) posts a receive: pair it with the
/// earliest-sent matching message or queue it. In a poisoned world the
/// receive fails instead: `poison_world` raises the flag *before* it
/// drains each mailbox under this lock, so a receive that reads the flag
/// under the lock is either refused here or queued in time to be drained.
pub(crate) fn post(shared: &Arc<WorldShared>, me: usize, recv: PendingRecv) {
    let env = {
        let mut inner = shared.mailboxes[me].inner.lock();
        let fault = shared.fault.as_ref();
        if fault.is_some_and(|f| f.poisoned.load(Ordering::SeqCst)) {
            drop(inner);
            return recv.state.fail(VmpiError::WorldDown);
        }
        if depsan::is_enabled() {
            inner.san_check_recv_order(&recv, me);
        }
        match inner.match_posted(recv.src, recv.tag, recv.comm) {
            Some(env) => env,
            None => {
                if depsan::is_enabled() {
                    inner.san_check_recv(&recv, me);
                }
                inner.recvs.push_back(recv);
                inner.emit_depth(me, Lane::Caller);
                return;
            }
        }
    };
    matched(shared, me, env, recv, None);
}

/// The one pairing site, outside the mailbox lock. `arrived_on` is the
/// lane of the arriving message, or `None` when the receive found a
/// queued one.
fn matched(
    shared: &Arc<WorldShared>,
    dst: usize,
    env: Envelope,
    recv: PendingRecv,
    arrived_on: Option<Lane>,
) {
    if depsan::is_enabled() {
        san_check_match(dst, &env.hdr, env.payload.len(), &recv.san);
    }
    if let Some(bus) = obs::bus() {
        let (ctx_rank, ctx_lane) = obs::thread_ctx();
        let (rank, lane) = match arrived_on {
            None => (ctx_rank, ctx_lane),
            Some(Lane::Caller) => (dst as u32, ctx_lane),
            Some(Lane::Net) => (dst as u32, obs::LANE_NET),
        };
        bus.emit_full(
            rank,
            lane,
            obs::EventData::MsgMatched {
                src: env.hdr.src as u32,
                tag: env.hdr.tag,
                comm: env.hdr.comm,
                bytes: env.payload.len() as u64,
                at_send: arrived_on.is_some(),
                match_id: env.hdr.match_id,
                recv_task: recv.obs_task,
            },
        );
        if let Some(m) = &shared.obs_metrics {
            match arrived_on {
                Some(_) => m.matched_at_send.inc(),
                None => m.matched_at_recv.inc(),
            }
        }
    }
    deliver(Arc::clone(shared), dst, env, recv);
}

/// Schedules the completion of a matched pair at the envelope's due
/// time. Scalar-model transfers (`flow == None`) complete unconditionally
/// when the job fires, inline when the time has already passed. Fabric
/// transfers *poll* their flow instead: if concurrent arrivals shrank
/// the flow's bandwidth share since `due` was predicted, the poll returns
/// the new estimate and the job reschedules — the completion time tracks
/// the fair-share drain, not the first guess.
fn deliver(shared: Arc<WorldShared>, dst: usize, mut env: Envelope, recv: PendingRecv) {
    let delivery = Arc::clone(&shared.delivery);
    delivery.schedule(
        env.transit.due,
        Box::new(move || {
            if let Some(id) = env.transit.flow {
                if let Some(next) = shared.fabric.as_ref().and_then(|f| f.poll(id)) {
                    env.transit.due = next;
                    return deliver(shared, dst, env, recv);
                }
            }
            complete(dst, env, recv);
        }),
    );
}

/// Copies the payload to the receive's target and completes the receive
/// request and, for rendezvous sends, the send request.
fn complete(dst: usize, env: Envelope, recv: PendingRecv) {
    let Envelope {
        hdr,
        payload,
        transit,
    } = env;
    let status = hdr.status(payload.len());
    if let Some(bus) = obs::bus() {
        // Deliveries happen on the network (delivery) thread or inline on
        // the sender; either way the event belongs to the receiving rank's
        // network lane.
        let queue_us = if hdr.posted_us > 0 {
            bus.now_us().saturating_sub(hdr.posted_us)
        } else {
            0
        };
        bus.emit_full(
            dst as u32,
            obs::LANE_NET,
            obs::EventData::MsgDelivered {
                src: hdr.src as u32,
                tag: hdr.tag,
                comm: hdr.comm,
                bytes: status.bytes as u64,
                match_id: hdr.match_id,
                recv_task: recv.obs_task,
                queue_us,
            },
        );
        if hdr.match_id > 0 {
            static TRANSIT_US: std::sync::OnceLock<obs::Histogram> = std::sync::OnceLock::new();
            TRANSIT_US
                .get_or_init(|| obs::metrics().histogram("vmpi.transit_us"))
                .observe(queue_us);
        }
    }
    match recv.target {
        RecvTarget::Owned => recv.state.complete(status, Some(payload)),
        RecvTarget::Writer(writer) => match writer(&payload) {
            Ok(()) => recv.state.complete(status, None),
            Err(e) => recv.state.fail(e),
        },
    }
    if let Some(send) = transit.send_state {
        send.complete(status, None);
    }
}

/// depsan: a matched payload's size differs from the receive's exact
/// expectation. Reported at match time — *before* the transfer can fail
/// `Truncated` (or silently short-fill) — naming both endpoints, because
/// a wrong-size pairing means same-tag traffic was reordered relative to
/// the receives: the communication tasks lack a serialising edge.
fn san_check_match(dst_rank: usize, hdr: &MsgHeader, got: usize, recv: &RecvSan) {
    let Some(exp) = recv.expected_bytes else {
        return;
    };
    if got == exp {
        return;
    }
    let (obj, start, end) = recv.region;
    depsan::report(depsan::Violation {
        kind: depsan::ViolationKind::SizeMismatch,
        rank: dst_rank as u32,
        task: recv.scope,
        label: depsan::task_label(recv.scope),
        obj,
        detail: format!(
            "message src {} tag {} comm {:#x}: {got}-byte payload (sent by {}) matched a receive expecting exactly {exp} bytes into obj {obj} [{start}..{end}) (posted by {})\nsame-tag traffic was paired out of order — the posting tasks' regions do not overlap, so no WAW/WAR edge fixes the match order",
            hdr.src,
            hdr.tag,
            hdr.comm,
            depsan::describe_task(hdr.san_scope),
            depsan::describe_task(recv.scope),
        ),
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    fn env(src: usize, tag: i32, comm: u64) -> Envelope {
        Envelope {
            hdr: MsgHeader {
                src,
                tag,
                comm,
                san_scope: 0,
                match_id: 0,
                posted_us: 0,
            },
            payload: vec![0u8; 8],
            transit: Transit {
                due: Instant::now(),
                flow: None,
                send_state: None,
            },
        }
    }

    #[test]
    fn non_overtaking_same_tag() {
        let mut mb = MailboxInner::default();
        let mut e1 = env(0, 5, 0);
        e1.payload = vec![1];
        let mut e2 = env(0, 5, 0);
        e2.payload = vec![2];
        mb.msgs.push_back(e1);
        mb.msgs.push_back(e2);
        let first = mb.match_posted(0, 5, 0).unwrap();
        assert_eq!(first.payload, vec![1]);
        let second = mb.match_posted(0, 5, 0).unwrap();
        assert_eq!(second.payload, vec![2]);
    }

    #[test]
    fn wildcard_source_and_tag() {
        let mut mb = MailboxInner::default();
        mb.msgs.push_back(env(3, 9, 0));
        assert!(mb.match_posted(ANY_SOURCE, ANY_TAG, 0).is_some());
        assert!(mb.match_posted(ANY_SOURCE, ANY_TAG, 0).is_none());
    }

    #[test]
    fn communicator_isolation() {
        let mut mb = MailboxInner::default();
        mb.msgs.push_back(env(0, 1, 7));
        assert!(mb.match_posted(0, 1, 8).is_none());
        assert!(mb.match_posted(0, 1, 7).is_some());
    }

    #[test]
    fn tag_selectivity_skips_non_matching() {
        let mut mb = MailboxInner::default();
        mb.msgs.push_back(env(0, 1, 0));
        mb.msgs.push_back(env(0, 2, 0));
        let got = mb.match_posted(0, 2, 0).unwrap();
        assert_eq!(got.hdr.tag, 2);
        // The tag-1 message is still there.
        assert_eq!(mb.queued_msgs(), 1);
    }

    #[test]
    fn posted_recvs_match_in_post_order() {
        let mut mb = MailboxInner::default();
        let r1 = PendingRecv {
            src: ANY_SOURCE,
            tag: 5,
            comm: 0,
            state: RequestState::new(),
            target: RecvTarget::Owned,
            san: RecvSan::default(),
            obs_task: 0,
        };
        let r2 = PendingRecv {
            src: 0,
            tag: 5,
            comm: 0,
            state: RequestState::new(),
            target: RecvTarget::Owned,
            san: RecvSan::default(),
            obs_task: 0,
        };
        mb.recvs.push_back(r1);
        mb.recvs.push_back(r2);
        let m = mb.match_arriving(&env(0, 5, 0).hdr).unwrap();
        assert_eq!(m.src, ANY_SOURCE, "first posted receive wins");
    }
}
