//! Deterministic fault injection: the chaos plan and its runtime state.
//!
//! A [`ChaosConfig`] describes a *seeded, fully deterministic* schedule
//! of network faults — message drops, duplication, reordering delay
//! spikes, payload bit-corruption, transient rank stalls, and hard rank
//! crashes. Every decision is a pure hash of
//! `(seed, fault kind, src, dst, tag, channel seq, attempt)`, so the
//! same seed injects the same faults on every run regardless of thread
//! scheduling. The plan gates *which* frames are molested; the
//! reliability layer in [`crate::reliable`] is what survives them
//! (CRC frames, ack/retransmit with exponential backoff, duplicate
//! suppression via per-channel sequence numbers).
//!
//! With no chaos config the whole subsystem is absent — the send path
//! never even constructs a frame, so the fault-free fast path is
//! bitwise-identical to a build without this module.

use crate::mailbox::MsgHeader;
use crate::request::RequestState;
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// What to do when a peer exhausts the retry budget.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PeerLostAction {
    /// Record the report and *poison the whole world*: every channel
    /// dies, every pending and future communication operation fails with
    /// [`crate::VmpiError::WorldDown`], and the rank closures unwind.
    /// The embedding driver catches the unwind, reads
    /// [`crate::World::peer_lost_reports`], and decides: report and stop,
    /// or shrink the job onto the surviving ranks.
    #[default]
    AbortWorld,
    /// Fail only the send request that exhausted its budget, with
    /// [`crate::VmpiError::PeerLost`], and record the report; the rest of
    /// the world keeps running. The per-request library behaviour, for
    /// programs that handle a failed request themselves.
    FailRequests,
}

/// Seeded fault-injection plan. All probabilities are per-frame in
/// `[0, 1]` and apply to all traffic, user point-to-point and internal
/// collectives alike. `Default` is an all-zero plan: the reliability
/// framing is active but no faults fire.
#[derive(Debug, Clone)]
pub struct ChaosConfig {
    /// Seed of every fault decision.
    pub seed: u64,
    /// Probability a frame transmission is silently dropped.
    pub drop_p: f64,
    /// Probability a frame is delivered twice.
    pub dup_p: f64,
    /// Probability one payload bit flips in flight (caught by CRC).
    pub corrupt_p: f64,
    /// Probability a frame's delivery is delayed by a spike.
    pub delay_p: f64,
    /// Delay-spike multiplier over the network model's base delay.
    pub delay_factor: f64,
    /// Every Nth frame a rank sends is held for [`ChaosConfig::stall`]
    /// (models a transient rank stall); 0 disables.
    pub stall_every: u64,
    /// Duration of an injected transient stall.
    pub stall: Duration,
    /// Hard-crash this world rank...
    pub crash_rank: Option<usize>,
    /// ...after it has transmitted this many frames. From then on its
    /// NIC is dead: nothing it sends leaves, nothing sent to it is
    /// accepted or acknowledged.
    pub crash_after: u64,
    /// Retransmissions attempted before a peer is declared lost.
    pub retry_budget: u32,
    /// Base retransmit timeout; attempt `k` waits `rto << k`.
    pub rto: Duration,
    /// Behaviour when the retry budget is exhausted.
    pub on_peer_lost: PeerLostAction,
}

impl Default for ChaosConfig {
    fn default() -> Self {
        ChaosConfig {
            seed: 0,
            drop_p: 0.0,
            dup_p: 0.0,
            corrupt_p: 0.0,
            delay_p: 0.0,
            delay_factor: 8.0,
            stall_every: 0,
            stall: Duration::from_millis(2),
            crash_rank: None,
            crash_after: 0,
            retry_budget: 8,
            rto: Duration::from_millis(5),
            on_peer_lost: PeerLostAction::default(),
        }
    }
}

fn mix64(mut x: u64) -> u64 {
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d049bb133111eb);
    x ^ (x >> 31)
}

/// Salts separating the fault kinds so e.g. the drop and duplicate
/// decisions of the same frame are independent.
pub(crate) mod salt {
    pub const DROP: u64 = 0xD509;
    pub const DUP: u64 = 0xD0B1;
    pub const CORRUPT: u64 = 0xC0557;
    pub const DELAY: u64 = 0xDE1A1;
    pub const BITPOS: u64 = 0xB17;
}

impl ChaosConfig {
    /// Deterministic uniform draw in `[0, 1)` for one `(kind, frame,
    /// attempt)` decision.
    pub(crate) fn roll(
        &self,
        kind: u64,
        src: usize,
        dst: usize,
        tag: i32,
        seq: u64,
        attempt: u32,
    ) -> f64 {
        let h = self.hash(kind, src, dst, tag, seq, attempt);
        (h >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Deterministic hash for non-probability choices (e.g. which bit to
    /// flip).
    pub(crate) fn hash(
        &self,
        kind: u64,
        src: usize,
        dst: usize,
        tag: i32,
        seq: u64,
        attempt: u32,
    ) -> u64 {
        let mut h = mix64(self.seed ^ 0x9e3779b97f4a7c15);
        h = mix64(h ^ kind);
        h = mix64(h ^ src as u64);
        h = mix64(h ^ dst as u64);
        h = mix64(h ^ tag as u32 as u64);
        h = mix64(h ^ seq);
        mix64(h ^ attempt as u64)
    }
}

/// CRC-32 (IEEE 802.3, reflected) lookup table, built at compile time so
/// the frame checksum needs no external crate.
static CRC_TABLE: [u32; 256] = {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xedb88320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
};

/// CRC-32 over a payload — the frame integrity check of the reliability
/// layer.
pub fn crc32(data: &[u8]) -> u32 {
    let mut c = 0xffff_ffffu32;
    for &b in data {
        c = CRC_TABLE[((c ^ b as u32) & 0xff) as usize] ^ (c >> 8);
    }
    c ^ 0xffff_ffff
}

/// A reliability frame: the message header, the payload shared between
/// the sender's record, the delivery jobs of every (re)transmission and
/// the receiver's reorder buffer, and the CRC-32 the receiver verifies.
#[derive(Clone)]
pub(crate) struct Frame {
    pub hdr: MsgHeader,
    pub payload: Arc<Vec<u8>>,
    pub crc: u32,
}

/// One sender-side in-flight (unacknowledged) frame record.
pub(crate) struct Inflight {
    pub frame: Frame,
    /// Present for rendezvous sends: completed on first ack.
    pub send_state: Option<Arc<RequestState>>,
    /// Retransmissions performed so far.
    pub attempts: u32,
}

impl Inflight {
    pub(crate) fn new(
        hdr: MsgHeader,
        payload: Vec<u8>,
        send_state: Option<Arc<RequestState>>,
    ) -> Self {
        Inflight {
            frame: Frame {
                hdr,
                crc: crc32(&payload),
                payload: Arc::new(payload),
            },
            send_state,
            attempts: 0,
        }
    }
}

/// Per-(src, dst) directed channel: sender-side retransmit state and
/// receiver-side in-order release state.
#[derive(Default)]
pub(crate) struct Channel {
    /// Next sequence number the sender will assign.
    pub next_seq: u64,
    /// Unacknowledged frames by sequence number.
    pub inflight: HashMap<u64, Inflight>,
    /// Next sequence number the receiver will release to the mailbox.
    pub recv_next: u64,
    /// Accepted out-of-order frames waiting for their turn.
    pub reorder: HashMap<u64, Frame>,
    /// In-order frames popped from `reorder`, waiting for a thread to
    /// flush them into the mailbox.
    pub ready: std::collections::VecDeque<Frame>,
    /// A thread is currently flushing `ready` (release stays ordered
    /// even when deliveries race on the delivery + sender threads).
    pub releasing: bool,
    /// The sender gave up on this peer; new sends fail immediately
    /// under [`PeerLostAction::FailRequests`].
    pub dead: bool,
}

/// Monotonic fault counters — the "fault-plan position" shown in the
/// watchdog dump and the peer-lost report.
#[derive(Default)]
pub(crate) struct FaultCounters {
    pub frames: AtomicU64,
    pub drops: AtomicU64,
    pub dups: AtomicU64,
    pub corrupts: AtomicU64,
    pub delays: AtomicU64,
    pub stalls: AtomicU64,
    pub crash_drops: AtomicU64,
    pub crc_rejected: AtomicU64,
    pub dup_suppressed: AtomicU64,
    pub retransmits: AtomicU64,
    pub acks: AtomicU64,
    pub recovered: AtomicU64,
}

/// Runtime state of the chaos subsystem, shared by all ranks of a world.
pub(crate) struct FaultState {
    pub cfg: ChaosConfig,
    pub channels: Mutex<HashMap<(usize, usize), Channel>>,
    /// Frames transmitted per world rank (drives stall/crash schedules).
    pub frames_sent: Vec<AtomicU64>,
    /// Rank's NIC is dead (hard crash tripped).
    pub crashed: Vec<AtomicBool>,
    /// Set before the delivery service drains at world teardown so
    /// retransmit timers stop rescheduling.
    pub shutdown: AtomicBool,
    /// The world was poisoned under [`PeerLostAction::AbortWorld`]:
    /// every communication op fails fast with
    /// [`crate::VmpiError::WorldDown`] from here on.
    pub poisoned: AtomicBool,
    pub counters: FaultCounters,
    /// One report per peer-lost declaration, in declaration order.
    pub reports: Mutex<Vec<PeerLostReport>>,
    /// The frames the plan destroyed for good, each with its destination
    /// world rank: a hard-crashed sender's frame, a frame whose retry
    /// budget ran out, a send onto a dead channel. The finalize scan
    /// excuses one matching pending receive per entry. Kept only while
    /// depsan is on, the scan being its one reader.
    pub lost: Mutex<Vec<(usize, MsgHeader)>>,
}

impl FaultState {
    /// Whether rank `r` has tripped the hard-crash schedule. The crash
    /// fires once the rank has transmitted `crash_after` frames (checked
    /// lazily on both the send and the receive side, so a rank that
    /// never sends still dies at `crash_after == 0`). From then on its
    /// NIC is dead in both directions.
    pub(crate) fn is_crashed(&self, r: usize) -> bool {
        if self.crashed[r].load(Ordering::SeqCst) {
            return true;
        }
        if self.cfg.crash_rank != Some(r) {
            return false;
        }
        let sent = self.frames_sent[r].load(Ordering::Relaxed);
        if sent < self.cfg.crash_after {
            return false;
        }
        if !self.crashed[r].swap(true, Ordering::SeqCst) {
            if let Some(bus) = obs::bus() {
                bus.emit_full(
                    r as u32,
                    obs::LANE_NET,
                    obs::EventData::FaultInjected {
                        kind: "crash",
                        src: r as u32,
                        dst: r as u32,
                        tag: -1,
                        seq: sent,
                    },
                );
            }
        }
        true
    }

    pub(crate) fn new(cfg: ChaosConfig, n: usize) -> Arc<Self> {
        Arc::new(FaultState {
            cfg,
            channels: Mutex::new(HashMap::new()),
            frames_sent: (0..n).map(|_| AtomicU64::new(0)).collect(),
            crashed: (0..n).map(|_| AtomicBool::new(false)).collect(),
            shutdown: AtomicBool::new(false),
            poisoned: AtomicBool::new(false),
            counters: FaultCounters::default(),
            reports: Mutex::new(Vec::new()),
            lost: Mutex::new(Vec::new()),
        })
    }

    /// The fault-plan position: the seed and every monotonic counter, on
    /// one line.
    pub(crate) fn plan_position(&self) -> String {
        let c = &self.counters;
        format!(
            "plan position: seed {} | frames {} | drops {} dups {} corrupts {} delays {} stalls {} crash-drops {} | crc-rejected {} dup-suppressed {} retransmits {} acks {} recovered {}",
            self.cfg.seed,
            c.frames.load(Ordering::Relaxed),
            c.drops.load(Ordering::Relaxed),
            c.dups.load(Ordering::Relaxed),
            c.corrupts.load(Ordering::Relaxed),
            c.delays.load(Ordering::Relaxed),
            c.stalls.load(Ordering::Relaxed),
            c.crash_drops.load(Ordering::Relaxed),
            c.crc_rejected.load(Ordering::Relaxed),
            c.dup_suppressed.load(Ordering::Relaxed),
            c.retransmits.load(Ordering::Relaxed),
            c.acks.load(Ordering::Relaxed),
            c.recovered.load(Ordering::Relaxed),
        )
    }

    /// Adds the plan's outcome to the process-wide registry under the
    /// `vmpi.chaos.*` names. [`crate::World`]'s drop calls this once, after
    /// the delivery service drained, while observability is on: the
    /// counters above are the only count of each fact. A fault injected is
    /// a drop, duplicate, corruption, delay spike, stall or crash-drop of
    /// a frame, or a rank the plan hard-crashed.
    pub(crate) fn publish_metrics(&self) {
        let c = &self.counters;
        let get = |counter: &AtomicU64| counter.load(Ordering::Relaxed);
        let frame_faults = [
            &c.drops,
            &c.dups,
            &c.corrupts,
            &c.delays,
            &c.stalls,
            &c.crash_drops,
        ];
        let crashed = self.crashed.iter().filter(|c| c.load(Ordering::SeqCst));
        let injected = frame_faults.map(get).iter().sum::<u64>() + crashed.count() as u64;
        let registry = obs::metrics();
        for (name, value) in [
            ("vmpi.chaos.frames", get(&c.frames)),
            ("vmpi.chaos.faults_injected", injected),
            ("vmpi.chaos.retransmits", get(&c.retransmits)),
            ("vmpi.chaos.crc_rejected", get(&c.crc_rejected)),
            ("vmpi.chaos.dup_suppressed", get(&c.dup_suppressed)),
            ("vmpi.chaos.recovered", get(&c.recovered)),
        ] {
            registry.counter(name).add(value);
        }
    }

    /// Human-readable snapshot of the pending retransmit queue plus the
    /// fault-plan position. Empty when no frame is awaiting an ack — the
    /// watchdog only prints non-empty sections, and an idle chaos layer
    /// is not evidence of a stall.
    pub(crate) fn dump_pending(&self) -> String {
        use std::fmt::Write;
        let channels = self.channels.lock();
        let mut lines = String::new();
        let mut inflight_total = 0usize;
        let mut keys: Vec<_> = channels.keys().copied().collect();
        keys.sort_unstable();
        for key in keys {
            let ch = &channels[&key];
            if ch.inflight.is_empty() && ch.reorder.is_empty() {
                continue;
            }
            inflight_total += ch.inflight.len();
            let mut seqs: Vec<_> = ch.inflight.iter().collect();
            seqs.sort_unstable_by_key(|(s, _)| **s);
            for (seq, rec) in seqs {
                let _ = writeln!(
                    lines,
                    "chaos {} -> {}: unacked frame seq {seq} tag {} ({} bytes, {} retransmit(s))",
                    key.0,
                    key.1,
                    rec.frame.hdr.tag,
                    rec.frame.payload.len(),
                    rec.attempts,
                );
            }
            if !ch.reorder.is_empty() {
                let mut held: Vec<_> = ch.reorder.keys().copied().collect();
                held.sort_unstable();
                let _ = writeln!(
                    lines,
                    "chaos {} -> {}: {} frame(s) held for reorder (next release seq {}, held {:?})",
                    key.0,
                    key.1,
                    ch.reorder.len(),
                    ch.recv_next,
                    held,
                );
            }
        }
        drop(channels);
        if lines.is_empty() {
            return lines;
        }
        let mut out = format!(
            "chaos {} | {inflight_total} unacked frame(s):\n",
            self.plan_position()
        );
        for (r, dead) in self.crashed.iter().enumerate() {
            if dead.load(Ordering::Relaxed) {
                out.push_str(&format!("chaos: rank {r} hard-crashed (NIC dead)\n"));
            }
        }
        out.push_str(&lines);
        out
    }
}

/// Structured description of an unrecoverable peer, recorded when the
/// peer is declared lost and read back through
/// [`crate::World::peer_lost_reports`].
#[derive(Debug, Clone)]
pub struct PeerLostReport {
    /// World rank that gave up.
    pub reporter: usize,
    /// The unresponsive peer's world rank.
    pub peer: usize,
    /// Tag of the frame that exhausted the budget.
    pub tag: i32,
    /// Channel sequence number of that frame.
    pub seq: u64,
    /// Retransmission attempts made.
    pub attempts: u32,
    /// Whether the peer had tripped the hard-crash schedule.
    pub peer_crashed: bool,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_known_vectors() {
        // Standard IEEE CRC-32 check values.
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xcbf43926);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414fa339
        );
    }

    #[test]
    fn crc32_detects_single_bit_flip() {
        let mut data = vec![0u8; 4096];
        for (i, b) in data.iter_mut().enumerate() {
            *b = (i * 31) as u8;
        }
        let clean = crc32(&data);
        for bit in [0usize, 7, 4095 * 8 + 3, 2048 * 8] {
            let mut bad = data.clone();
            bad[bit / 8] ^= 1 << (bit % 8);
            assert_ne!(crc32(&bad), clean, "bit {bit} flip went undetected");
        }
    }

    #[test]
    fn rolls_are_deterministic_and_independent() {
        let cfg = ChaosConfig {
            seed: 42,
            ..ChaosConfig::default()
        };
        let a = cfg.roll(salt::DROP, 0, 1, 7, 3, 0);
        assert_eq!(a, cfg.roll(salt::DROP, 0, 1, 7, 3, 0));
        assert!((0.0..1.0).contains(&a));
        // Different kinds, seqs, and attempts decorrelate.
        assert_ne!(a, cfg.roll(salt::DUP, 0, 1, 7, 3, 0));
        assert_ne!(a, cfg.roll(salt::DROP, 0, 1, 7, 4, 0));
        assert_ne!(a, cfg.roll(salt::DROP, 0, 1, 7, 3, 1));
        // Different seeds produce a different schedule.
        let other = ChaosConfig {
            seed: 43,
            ..ChaosConfig::default()
        };
        assert_ne!(a, other.roll(salt::DROP, 0, 1, 7, 3, 0));
    }

    #[test]
    fn drop_rate_tracks_probability() {
        let cfg = ChaosConfig {
            seed: 7,
            drop_p: 0.25,
            ..ChaosConfig::default()
        };
        let n = 20_000;
        let hits = (0..n)
            .filter(|&seq| cfg.roll(salt::DROP, 2, 5, 11, seq, 0) < cfg.drop_p)
            .count();
        let rate = hits as f64 / n as f64;
        assert!((rate - 0.25).abs() < 0.02, "drop rate {rate} far from 0.25");
    }
}
