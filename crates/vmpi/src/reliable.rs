//! Self-healing transport: the reliability layer under the request API.
//!
//! When a world is built with a [`crate::ChaosConfig`], every
//! cross-rank send becomes a *frame* on a directed `(src, dst)` channel:
//! a CRC-32 over the payload plus a per-channel sequence number. Frames
//! travel through the fault plan (which may drop, duplicate, corrupt,
//! or delay them), and the layer recovers:
//!
//! - **corruption** — the receiver verifies the CRC and silently rejects
//!   damaged frames (no ack, so the sender retransmits);
//! - **loss** — the sender keeps an in-flight record per frame and
//!   retransmits on an exponential-backoff timer until acked, up to a
//!   retry budget;
//! - **duplication** — the receiver suppresses frames it has already
//!   accepted (sequence below the release pointer or already held) and
//!   re-acks them so a lost ack cannot retransmit forever;
//! - **reordering** — accepted frames park in a reorder buffer and are
//!   released to the mailbox strictly in sequence order, preserving
//!   MPI's non-overtaking guarantee per channel.
//!
//! Acks are modelled as reliable and instantaneous (a direct state
//! update on the delivering thread): the fault plan attacks the data
//! path, which is where every recovery mechanism above is exercised.
//!
//! A frame whose retry budget exhausts declares the peer lost: the
//! report is recorded, the frame's send request fails with
//! [`VmpiError::PeerLost`], and — unless the plan asks for
//! [`crate::PeerLostAction::FailRequests`] — the world is poisoned, so
//! every other request fails with [`VmpiError::WorldDown`], the rank
//! closures unwind and the embedding driver decides what happens next.
//! Nothing here ends the process.
//!
//! Frames enter through [`send`] (the reliability layer of
//! `Comm::isend_impl`), take [`crate::wire`] once per transmission —
//! each transmission, retransmission and duplicate is its own flow on an
//! installed fabric — and leave, verified and in order, through
//! [`crate::mailbox::arrive`], the same match-or-queue step a plain send
//! takes. Nothing here matches, queues or completes a receive.

use crate::error::{Result, VmpiError};
use crate::fault::{crc32, salt, FaultState, Frame, Inflight, PeerLostAction, PeerLostReport};
use crate::mailbox::{self, Envelope, Lane};
use crate::request::RequestState;
use crate::wire::{self, Transit};
use crate::world::WorldShared;
use std::collections::hash_map::Entry;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Floor for an injected delay spike so that near-instant wires still
/// produce real reordering.
const MIN_SPIKE: Duration = Duration::from_micros(200);

/// The reliability layer of `Comm::isend_impl`: registers `rec` as the
/// next in-flight frame of the `(src, dst)` channel (world ranks) and
/// transmits it through the fault plan. Only called for cross-rank
/// traffic (self-sends complete locally and cannot be faulted). An `Err`
/// means nothing was sent: the channel already exhausted its budget
/// (`FailRequests` mode) or the world was poisoned, so the caller fails
/// the request instead of queueing onto a dead peer.
pub(crate) fn send(
    shared: &Arc<WorldShared>,
    fault: &Arc<FaultState>,
    src: usize,
    dst: usize,
    rec: Inflight,
) -> Result<()> {
    let seq = {
        let mut channels = fault.channels.lock();
        // Poison check under the channel lock: `poison_world` sets the
        // flag *before* taking this lock to drain in-flight frames, so a
        // frame registered here either observes the poison or is drained.
        let poisoned = fault.poisoned.load(Ordering::SeqCst);
        let ch = channels.entry((src, dst)).or_default();
        if ch.dead || poisoned {
            drop(channels);
            note_loss(fault, dst, &rec.frame);
            return Err(if poisoned {
                VmpiError::WorldDown
            } else {
                VmpiError::PeerLost {
                    peer: dst,
                    attempts: fault.cfg.retry_budget,
                }
            });
        }
        let seq = ch.next_seq;
        ch.next_seq += 1;
        ch.inflight.insert(seq, rec);
        seq
    };
    transmit(shared, fault, src, dst, seq);
    Ok(())
}

/// The fault plan destroyed this frame for good: into the world's ledger
/// of lost frames, which excuses one matching pending receive on `dst`
/// at finalize.
fn note_loss(fault: &FaultState, dst: usize, frame: &Frame) {
    if depsan::is_enabled() {
        fault.lost.lock().push((dst, frame.hdr));
    }
}

/// One transmission attempt of an in-flight frame: runs the fault plan's
/// decisions for this `(frame, attempt)` pair, puts the frame (and any
/// duplicate) on the wire, and, once it has left the wire, schedules its
/// arrival and arms the retransmit timer.
fn transmit(shared: &Arc<WorldShared>, fault: &Arc<FaultState>, src: usize, dst: usize, seq: u64) {
    // Snapshot the frame; it may have been acked by a racing delivery.
    let (frame, attempt) = {
        let channels = fault.channels.lock();
        match channels
            .get(&(src, dst))
            .and_then(|ch| ch.inflight.get(&seq))
        {
            Some(rec) => (rec.frame.clone(), rec.attempts),
            None => return,
        }
    };
    let tag = frame.hdr.tag;
    let cfg = &fault.cfg;
    // Hard-crash schedule: once the rank has transmitted `crash_after`
    // frames its NIC dies in both directions (the receive side is gated
    // in `deliver_frame` through the same `is_crashed` check).
    if fault.is_crashed(src) {
        fault.counters.crash_drops.fetch_add(1, Ordering::Relaxed);
        note_loss(fault, dst, &frame);
        emit_fault("crash-drop", src, dst, tag, seq);
        // No delivery and no retransmit timer: dead ranks do not retry.
        // But the *receiver* is now waiting for data that will never
        // come, and if it has no unacked send of its own toward the dead
        // rank, its retry budget never fires — so model failure
        // detection on the receiving side: a heartbeat timeout with the
        // same patience a sender's full backoff sequence gets.
        // Until then the frame stays in `ch.inflight`, where a poison
        // drain finds it: if somebody else declares the loss first, the
        // dead rank's own request fails with everything else — a request
        // bound to a task must complete or fail, never vanish.
        let patience = cfg
            .rto
            .saturating_mul(1u32 << cfg.retry_budget.saturating_add(1).min(16));
        let shared_hb = Arc::clone(shared);
        let fault_hb = Arc::clone(fault);
        shared.delivery.schedule(
            Instant::now() + patience,
            Box::new(move || {
                if fault_hb.shutdown.load(Ordering::SeqCst)
                    || fault_hb.poisoned.load(Ordering::SeqCst)
                {
                    return;
                }
                let mut channels = fault_hb.channels.lock();
                let ch = channels.get_mut(&(src, dst));
                let rec = ch.and_then(|ch| ch.inflight.remove(&seq));
                drop(channels);
                if let Some(rec) = rec {
                    heartbeat_detect(&shared_hb, &fault_hb, src, dst, seq, rec);
                }
            }),
        );
        return;
    }
    fault.counters.frames.fetch_add(1, Ordering::Relaxed);
    let rank_frames = fault.frames_sent[src].fetch_add(1, Ordering::Relaxed) + 1;

    // What the plan does to this transmission. A stall holds the frame a
    // fixed time, a delay spike a multiple of its own wire time; both
    // start when it leaves the wire.
    let mut stall = Duration::ZERO;
    let mut spike = false;
    let mut deliver = true;
    let mut dup = false;
    let mut corrupt: Option<(usize, u8)> = None;

    if cfg.stall_every > 0 && rank_frames.is_multiple_of(cfg.stall_every) {
        stall = cfg.stall;
        fault.counters.stalls.fetch_add(1, Ordering::Relaxed);
        emit_fault("stall", src, dst, tag, seq);
    }
    if cfg.delay_p > 0.0 && cfg.roll(salt::DELAY, src, dst, tag, seq, attempt) < cfg.delay_p {
        spike = true;
        fault.counters.delays.fetch_add(1, Ordering::Relaxed);
        emit_fault("delay", src, dst, tag, seq);
    }
    if cfg.drop_p > 0.0 && cfg.roll(salt::DROP, src, dst, tag, seq, attempt) < cfg.drop_p {
        deliver = false;
        fault.counters.drops.fetch_add(1, Ordering::Relaxed);
        emit_fault("drop", src, dst, tag, seq);
    }
    if deliver {
        if cfg.dup_p > 0.0 && cfg.roll(salt::DUP, src, dst, tag, seq, attempt) < cfg.dup_p {
            dup = true;
            fault.counters.dups.fetch_add(1, Ordering::Relaxed);
            emit_fault("dup", src, dst, tag, seq);
        }
        if !frame.payload.is_empty()
            && cfg.corrupt_p > 0.0
            && cfg.roll(salt::CORRUPT, src, dst, tag, seq, attempt) < cfg.corrupt_p
        {
            let h = cfg.hash(salt::BITPOS, src, dst, tag, seq, attempt);
            let bit = (h as usize) % (frame.payload.len() * 8);
            corrupt = Some((bit / 8, 1u8 << (bit % 8)));
            fault.counters.corrupts.fetch_add(1, Ordering::Relaxed);
            emit_fault("corrupt", src, dst, tag, seq);
        }
    }

    // Every transmission is its own flow on the wire: the original, which
    // drains even when the plan drops it, and a duplicate. The retransmit
    // timer starts when the original leaves the wire, so contention alone
    // never retransmits.
    let sent = Instant::now();
    for copy in 0..1 + dup as usize {
        let transit = wire::send(shared, src, dst, frame.payload.len());
        let (shared, fault, frame) = (Arc::clone(shared), Arc::clone(fault), frame.clone());
        wire::when_drained(Arc::clone(&shared), transit, move || {
            let cfg = &fault.cfg;
            let mut hold = stall;
            if spike {
                hold += sent.elapsed().mul_f64(cfg.delay_factor).max(MIN_SPIKE);
            }
            let arrival = Instant::now() + hold;
            // Exponential backoff: attempt k waits rto << k before resending.
            let rto = cfg.rto.saturating_mul(1u32 << attempt.min(16));
            let delivery = Arc::clone(&shared.delivery);
            let (shared_rto, fault_rto) = (Arc::clone(&shared), Arc::clone(&fault));
            if deliver {
                delivery.schedule(
                    arrival,
                    Box::new(move || deliver_frame(&shared, &fault, src, dst, seq, frame, corrupt)),
                );
            }
            if copy == 0 {
                delivery.schedule(
                    arrival + rto,
                    Box::new(move || on_rto(&shared_rto, &fault_rto, src, dst, seq)),
                );
            }
        });
    }
}

/// Frame arrival at the receiver: crash gate, CRC verification,
/// duplicate suppression, in-order acceptance, and the ack back to the
/// sender.
fn deliver_frame(
    shared: &Arc<WorldShared>,
    fault: &Arc<FaultState>,
    src: usize,
    dst: usize,
    seq: u64,
    frame: Frame,
    corrupt: Option<(usize, u8)>,
) {
    // A poisoned world accepts nothing: the mailboxes were drained and
    // every new receive fails fast, so releasing this frame could only
    // strand an unmatchable envelope.
    if fault.poisoned.load(Ordering::SeqCst) {
        return;
    }
    if fault.is_crashed(dst) {
        // A dead rank accepts nothing and acks nothing; the sender's
        // retry budget is what eventually notices.
        fault.counters.crash_drops.fetch_add(1, Ordering::Relaxed);
        return;
    }
    // CRC check: corruption happened "in flight", so verify the bytes as
    // they arrived. A rejected frame is not acked — the sender's
    // retransmit timer recovers it with a clean copy.
    if let Some((byte, mask)) = corrupt {
        let mut damaged: Vec<u8> = (*frame.payload).clone();
        damaged[byte] ^= mask;
        debug_assert_ne!(
            crc32(&damaged),
            frame.crc,
            "CRC-32 must catch a single-bit flip"
        );
        if crc32(&damaged) != frame.crc {
            fault.counters.crc_rejected.fetch_add(1, Ordering::Relaxed);
            return;
        }
    } else {
        debug_assert_eq!(crc32(&frame.payload), frame.crc, "clean frame CRC mismatch");
    }

    let (acked, flush) = {
        let mut channels = fault.channels.lock();
        let ch = channels.entry((src, dst)).or_default();
        let duplicate = seq < ch.recv_next || ch.reorder.contains_key(&seq);
        if duplicate {
            fault
                .counters
                .dup_suppressed
                .fetch_add(1, Ordering::Relaxed);
        } else {
            ch.reorder.insert(seq, frame);
            // Release pointer sweeps forward over every contiguously
            // accepted frame; later frames wait their turn, which is
            // what keeps chaos invisible to MPI's non-overtaking rule.
            while let Some(f) = ch.reorder.remove(&ch.recv_next) {
                ch.ready.push_back(f);
                ch.recv_next += 1;
            }
        }
        // Ack on acceptance (fresh *or* duplicate — re-acking a
        // duplicate stops retransmissions whose ack raced the dup).
        let acked = ch.inflight.remove(&seq);
        if acked.is_some() {
            fault.counters.acks.fetch_add(1, Ordering::Relaxed);
        }
        let flush = if !ch.ready.is_empty() && !ch.releasing {
            ch.releasing = true;
            true
        } else {
            false
        };
        (acked, flush)
    };

    if let Some(rec) = acked {
        if rec.attempts > 0 {
            // The peer answered within the retry budget: recovered.
            fault.counters.recovered.fetch_add(1, Ordering::Relaxed);
            if let Some(bus) = obs::bus() {
                bus.emit_full(
                    src as u32,
                    obs::LANE_NET,
                    obs::EventData::RankRecovered {
                        peer: dst as u32,
                        retries: rec.attempts,
                    },
                );
            }
        }
        // Exactly-once completion: the record leaves the in-flight map
        // under the channel lock, so a duplicate ack finds nothing and
        // a retransmitted completion can never double-release a TAMPI
        // event hold.
        if let Some(ss) = rec.send_state {
            let Frame { hdr, payload, .. } = rec.frame;
            ss.complete(hdr.status(payload.len()), None);
        }
    }
    if flush {
        flush_ready(shared, fault, src, dst);
    }
}

/// Drains a channel's in-order `ready` queue into the destination
/// mailbox through the shared [`mailbox::arrive`]. Only one thread
/// flushes a given channel at a time (the `releasing` flag), so
/// concurrent deliveries cannot interleave the release order.
fn flush_ready(shared: &Arc<WorldShared>, fault: &Arc<FaultState>, src: usize, dst: usize) {
    loop {
        let batch: Vec<Frame> = {
            let mut channels = fault.channels.lock();
            let ch = channels.entry((src, dst)).or_default();
            if ch.ready.is_empty() {
                ch.releasing = false;
                return;
            }
            ch.ready.drain(..).collect()
        };
        for Frame { hdr, payload, .. } in batch {
            let env = Envelope {
                hdr,
                payload: Arc::try_unwrap(payload).unwrap_or_else(|arc| (*arc).clone()),
                // The frame has already arrived: its network time was
                // served on the wire before `deliver_frame`, so a match
                // completes inline, and its send request completed at
                // post time or on the ack.
                transit: Transit::now(),
                send_state: None,
            };
            mailbox::arrive(shared, dst, env, Lane::Net);
        }
    }
}

/// Retransmit timer fired: if the frame is still unacked, either resend
/// it (budget remaining) or declare the peer lost.
fn on_rto(shared: &Arc<WorldShared>, fault: &Arc<FaultState>, src: usize, dst: usize, seq: u64) {
    // At world teardown the delivery queue runs every job at once;
    // rearming timers there would loop forever. A crashed rank does not retry,
    // and a poisoned world already failed every in-flight frame.
    if fault.shutdown.load(Ordering::SeqCst)
        || fault.poisoned.load(Ordering::SeqCst)
        || fault.is_crashed(src)
    {
        return;
    }
    enum Next {
        Resend { tag: i32, attempt: u32 },
        Lost(Box<Inflight>),
    }
    let next = {
        let mut channels = fault.channels.lock();
        let Some(ch) = channels.get_mut(&(src, dst)) else {
            return;
        };
        let Entry::Occupied(mut rec) = ch.inflight.entry(seq) else {
            return;
        };
        rec.get_mut().attempts += 1;
        if rec.get().attempts > fault.cfg.retry_budget {
            ch.dead = true;
            Next::Lost(Box::new(rec.remove()))
        } else {
            Next::Resend {
                tag: rec.get().frame.hdr.tag,
                attempt: rec.get().attempts,
            }
        }
    };
    match next {
        Next::Resend { tag, attempt } => {
            fault.counters.retransmits.fetch_add(1, Ordering::Relaxed);
            if let Some(bus) = obs::bus() {
                bus.emit_full(
                    src as u32,
                    obs::LANE_NET,
                    obs::EventData::Retransmit {
                        src: src as u32,
                        dst: dst as u32,
                        tag,
                        seq,
                        attempt,
                    },
                );
            }
            transmit(shared, fault, src, dst, seq);
        }
        Next::Lost(rec) => handle_peer_lost(shared, fault, src, dst, seq, *rec),
    }
}

/// The retry budget is exhausted: the peer is presumed dead.
fn handle_peer_lost(
    shared: &Arc<WorldShared>,
    fault: &Arc<FaultState>,
    src: usize,
    dst: usize,
    seq: u64,
    rec: Inflight,
) {
    note_loss(fault, dst, &rec.frame);
    let tag = rec.frame.hdr.tag;
    let report = PeerLostReport {
        reporter: src,
        peer: dst,
        tag,
        seq,
        attempts: rec.attempts,
        peer_crashed: fault.crashed[dst].load(Ordering::SeqCst),
    };
    let headline = format!(
        "peer lost: rank {src} gave up on rank {dst} after {} retransmission attempts (frame seq {seq} tag {tag})",
        rec.attempts
    );
    finish_peer_lost(shared, fault, report, headline, rec.send_state);
}

/// Receiver-side failure detection. A crashed rank's outbound frames are
/// silently dropped, so if the *survivor* has no unacked send of its own
/// toward the dead rank, no retry budget ever fires and the world wedges.
/// When a crash-drop swallows a frame, `transmit` schedules this detector
/// at the destination with the same patience a sender's full backoff
/// sequence gets; if the world hasn't shut down by then, the destination
/// declares the source lost.
fn heartbeat_detect(
    shared: &Arc<WorldShared>,
    fault: &Arc<FaultState>,
    dead: usize,
    survivor: usize,
    seq: u64,
    rec: Inflight,
) {
    // Fast-fail any later sends the survivor attempts toward the dead
    // rank, mirroring the sender-side budget-exhaustion path.
    fault
        .channels
        .lock()
        .entry((survivor, dead))
        .or_default()
        .dead = true;
    let attempts = fault.cfg.retry_budget + 1;
    let tag = rec.frame.hdr.tag;
    let report = PeerLostReport {
        reporter: survivor,
        peer: dead,
        tag,
        seq,
        attempts,
        peer_crashed: true,
    };
    let headline = format!(
        "peer lost: rank {survivor} detected rank {dead} dead (heartbeat timeout after {attempts} retransmission intervals; frame seq {seq} tag {tag} never arrived)"
    );
    // `rec.send_state` is the dead rank's own send request; failing it
    // unblocks that rank's thread if it is parked in a wait.
    finish_peer_lost(shared, fault, report, headline, rec.send_state);
}

/// Poisons the whole world under [`crate::PeerLostAction::AbortWorld`]:
/// marks every channel dead, fails every in-flight send, every queued
/// rendezvous send and every posted receive with
/// [`VmpiError::WorldDown`], and wakes blocked probes and the waits of
/// hierarchical collectives' intra-node slots. Rank threads
/// parked in waits observe the failures and unwind; the embedding
/// driver catches the unwind and reads
/// [`crate::World::peer_lost_reports`]. Idempotent: only the first
/// caller drains.
pub(crate) fn poison_world(shared: &Arc<WorldShared>, fault: &Arc<FaultState>) {
    if fault.poisoned.swap(true, Ordering::SeqCst) {
        return;
    }
    // Kill the channels first (under the lock, after the flag is up, so
    // no new frame can slip past both the flag and the drain).
    let send_states: Vec<Arc<RequestState>> = {
        let mut channels = fault.channels.lock();
        let mut out = Vec::new();
        for ch in channels.values_mut() {
            ch.dead = true;
            for (_, rec) in ch.inflight.drain() {
                if let Some(ss) = rec.send_state {
                    out.push(ss);
                }
            }
            ch.reorder.clear();
            ch.ready.clear();
        }
        out
    };
    for ss in send_states {
        ss.fail(VmpiError::WorldDown);
    }
    for mb in &shared.mailboxes {
        let (recvs, sends) = mb.inner.lock().drain_for_poison();
        for state in recvs {
            state.fail(VmpiError::WorldDown);
        }
        for ss in sends {
            ss.fail(VmpiError::WorldDown);
        }
        mb.arrived.notify_all();
    }
    shared.coll_slots.poison();
}

/// Shared tail of both peer-lost paths: record the report, fail the
/// frame's own send request, and — unless the plan asks for per-request
/// failures only — poison the world.
fn finish_peer_lost(
    shared: &Arc<WorldShared>,
    fault: &Arc<FaultState>,
    report: PeerLostReport,
    headline: String,
    send_state: Option<Arc<RequestState>>,
) {
    let (peer, attempts) = (report.peer, report.attempts);
    // Record the report *before* poisoning: the driver that catches the
    // rank unwinds reads it to learn who died.
    fault.reports.lock().push(report);
    if let Some(ss) = send_state {
        ss.fail(VmpiError::PeerLost { peer, attempts });
    }
    if fault.cfg.on_peer_lost == PeerLostAction::AbortWorld {
        eprintln!("chaos: {headline}");
        poison_world(shared, fault);
    }
}

/// Emits the obs `FaultInjected` event (on the source rank's network
/// lane). The per-kind counters are maintained by the caller.
fn emit_fault(kind: &'static str, src: usize, dst: usize, tag: i32, seq: u64) {
    if let Some(bus) = obs::bus() {
        bus.emit_full(
            src as u32,
            obs::LANE_NET,
            obs::EventData::FaultInjected {
                kind,
                src: src as u32,
                dst: dst as u32,
                tag,
                seq,
            },
        );
    }
}
