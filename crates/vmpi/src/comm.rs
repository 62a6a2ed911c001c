//! Communicators and point-to-point operations.
//!
//! A send is one pipeline: `post_send` (header, eager test, `SendPosted`)
//! → the route `match` in `isend_impl` (self / reliability frame / fabric
//! / scalar delay) → [`crate::mailbox::arrive`]. A receive is
//! [`crate::mailbox::post`]. Matching, queueing, transit and completion
//! live in [`crate::mailbox`]; only the probes look into a mailbox here.

use crate::datatype::{self, Pod};
use crate::error::{Result, VmpiError};
use crate::fault::Inflight;
use crate::mailbox::{self, Envelope, Lane, MsgHeader, PendingRecv, RecvSan, RecvTarget, Transit};
use crate::reliable;
use crate::request::{Request, RequestState};
use crate::world::WorldShared;
use shmem::BufSlice;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Wildcard source for receives (`MPI_ANY_SOURCE`).
pub const ANY_SOURCE: i32 = -1;
/// Wildcard tag for receives (`MPI_ANY_TAG`).
pub const ANY_TAG: i32 = -2;

/// First tag reserved for internal collective traffic; user tags must be
/// in `0..TAG_UB`. Collective traffic additionally runs on a *derived
/// channel* (a per-invocation communicator id mixed from the collective
/// sequence number), so a tag in this range can never alias a different
/// collective invocation no matter how many collectives a long-running
/// job issues.
pub const COLL_TAG_BASE: i32 = 1 << 30;
/// Upper bound (exclusive) of the user tag space.
pub const TAG_UB: i32 = COLL_TAG_BASE;

/// Whether `tag` is a valid user-space tag (`0..TAG_UB`). Posting
/// outside this range fails at runtime with `VmpiError::InvalidTag`;
/// static plan validation (`dfcheck`) uses this to reject such plans at
/// admission time, before any process is spawned.
#[inline]
pub fn valid_user_tag(tag: i32) -> bool {
    (0..TAG_UB).contains(&tag)
}

/// Whether `tag` falls in the reserved collective tag space
/// (`[COLL_TAG_BASE, i32::MAX]`). User-declared communication can never
/// legally use such a tag; `dfcheck` reports it distinctly from a merely
/// negative/invalid tag.
#[inline]
pub fn in_collective_tag_space(tag: i32) -> bool {
    tag >= COLL_TAG_BASE
}

/// Completion information of a receive (or probe), like `MPI_Status`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Status {
    /// Rank (within the communicator) of the sender.
    pub source: usize,
    /// Message tag.
    pub tag: i32,
    /// Payload size in bytes.
    pub bytes: usize,
}

impl Status {
    /// Number of elements of type `T` in the payload (`MPI_Get_count`).
    pub fn count<T: Pod>(&self) -> usize {
        self.bytes / std::mem::size_of::<T>().max(1)
    }
}

/// Process-wide match-id counter for send→recv causal edges. Ids start
/// at 1 so 0 can mean "unattributed"; the counter is only advanced while
/// tracing is enabled, keeping the disabled path allocation- and
/// RMW-free. Process-wide rather than per world because the trace it
/// keys is: every world in the process (`--jobs N`, a resize's successor
/// world) emits into the one obs bus, and two edges must not share an id.
static MATCH_IDS: AtomicU64 = AtomicU64::new(1);

fn next_match_id() -> u64 {
    MATCH_IDS.fetch_add(1, Ordering::Relaxed)
}

fn mix64(mut x: u64) -> u64 {
    // splitmix64 finalizer — used to derive communicator ids
    // deterministically on every rank.
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d049bb133111eb);
    x ^ (x >> 31)
}

/// A communicator: an isolated message-matching context over a group of
/// ranks. Each rank holds its own `Comm` value (they are not shared
/// between ranks).
pub struct Comm {
    pub(crate) shared: Arc<WorldShared>,
    pub(crate) comm_id: u64,
    rank: usize,
    group: Arc<Vec<usize>>,
    /// Sequence number for collectives (same on all ranks because
    /// collectives are called in the same order on all ranks).
    pub(crate) coll_seq: AtomicU64,
    /// Sequence number for communicator derivation (`dup`/`split`).
    derive_seq: AtomicU64,
}

impl Comm {
    pub(crate) fn new(
        shared: Arc<WorldShared>,
        comm_id: u64,
        rank: usize,
        group: Arc<Vec<usize>>,
    ) -> Self {
        Comm {
            shared,
            comm_id,
            rank,
            group,
            coll_seq: AtomicU64::new(0),
            derive_seq: AtomicU64::new(0),
        }
    }

    /// This rank's index within the communicator.
    #[inline]
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Number of ranks in the communicator.
    #[inline]
    pub fn size(&self) -> usize {
        self.group.len()
    }

    /// Largest payload in bytes whose send completes eagerly, at post time
    /// (the world's [`crate::NetworkModel::eager_threshold`]); a larger one
    /// completes once the receiver has posted its receive.
    #[inline]
    pub fn eager_threshold(&self) -> usize {
        self.shared.net.eager_threshold
    }

    /// World rank backing a communicator rank.
    #[inline]
    pub fn world_rank_of(&self, comm_rank: usize) -> usize {
        self.group[comm_rank]
    }

    fn check_rank(&self, r: usize) -> Result<()> {
        if r >= self.size() {
            return Err(VmpiError::InvalidRank(r));
        }
        Ok(())
    }

    fn check_tag(&self, tag: i32) -> Result<()> {
        if !valid_user_tag(tag) {
            return Err(VmpiError::InvalidTag(tag));
        }
        Ok(())
    }

    // ---------------------------------------------------------------
    // sends
    // ---------------------------------------------------------------

    /// Non-blocking typed send (`MPI_Isend`). The payload is copied at
    /// call time (eager buffering), so the caller's slice is immediately
    /// reusable; the returned request still completes per the network
    /// model (rendezvous sends complete when the transfer drains).
    pub fn isend<T: Pod>(&self, data: &[T], dst: usize, tag: i32) -> Result<Request> {
        self.check_rank(dst)?;
        self.check_tag(tag)?;
        Ok(self.isend_impl(datatype::as_bytes(data).to_vec(), dst, tag))
    }

    /// Non-blocking send sourcing the payload from a shared-buffer region
    /// (the pack-buffer path of miniAMR's `communicate`).
    pub fn isend_from<T: Pod>(&self, slice: &BufSlice<T>, dst: usize, tag: i32) -> Result<Request> {
        self.check_rank(dst)?;
        self.check_tag(tag)?;
        let bytes = slice.with_read(|s| datatype::as_bytes(s).to_vec());
        Ok(self.isend_impl(bytes, dst, tag))
    }

    /// Blocking typed send (`MPI_Send`).
    pub fn send<T: Pod>(&self, data: &[T], dst: usize, tag: i32) -> Result<()> {
        let req = self.isend(data, dst, tag)?;
        req.wait_checked()?;
        Ok(())
    }

    /// The send prologue every route shares: builds the header that rides
    /// with the payload, decides eager vs rendezvous, and announces the
    /// send. `local` marks a self-send, which is always eager.
    fn post_send(
        &self,
        nbytes: usize,
        local: bool,
        dst_world: usize,
        tag: i32,
    ) -> (MsgHeader, bool) {
        let eager = local || self.shared.net.is_eager(nbytes);
        let mut hdr = MsgHeader {
            src: self.rank,
            tag,
            comm: self.comm_id,
            // Sends are posted from the sending task's body (the payload
            // copy already happened in its scope), so the current scope
            // identifies the sending task in lint reports.
            san_scope: if depsan::is_enabled() {
                depsan::current_scope()
            } else {
                0
            },
            match_id: 0,
            posted_us: 0,
        };
        if let Some(bus) = obs::bus() {
            // Causal-edge provenance, allocated only while tracing: a
            // process-unique match id ties this send to its delivery and
            // the post time feeds the queue-time stamp at delivery.
            hdr.match_id = next_match_id();
            hdr.posted_us = bus.now_us().max(1);
            bus.emit(obs::EventData::SendPosted {
                dst: dst_world as u32,
                tag,
                comm: self.comm_id,
                bytes: nbytes as u64,
                eager,
                match_id: hdr.match_id,
                task: obs::thread_task(),
            });
            if let Some(m) = &self.shared.obs_metrics {
                m.sends.inc();
                m.bytes_sent.add(nbytes as u64);
                if eager {
                    m.eager_sends.inc();
                } else {
                    m.rendezvous_sends.inc();
                }
            }
        }
        (hdr, eager)
    }

    fn isend_impl(&self, payload: Vec<u8>, dst: usize, tag: i32) -> Request {
        let (src_world, dst_world) = (self.group[self.rank], self.group[dst]);
        let local = src_world == dst_world;
        let nbytes = payload.len();
        let (hdr, eager) = self.post_send(nbytes, local, dst_world, tag);
        let send_state = RequestState::new();
        // Eager sends complete at the end of this call; a rendezvous send
        // travels with its message and completes when the payload drains
        // (or, as a reliability frame, on its first ack).
        let rendezvous = (!eager).then(|| Arc::clone(&send_state));
        let fabric = self
            .shared
            .fabric
            .as_deref()
            .filter(|fab| !fab.params().same_node(src_world, dst_world));
        // The route: which stage models this message's time on the wire.
        let (due, flow) = match (local, &self.shared.fault, fabric) {
            // A self-send is local: never faulted, never modelled.
            (true, _, _) => (Instant::now(), None),
            // Under a fault plan every other send is a reliability frame
            // (CRC, ack/retransmit, in-order release) that serves its own
            // network time, so chaos bypasses the fabric.
            (false, Some(fault), _) => {
                let frame = Inflight::new(hdr, payload, rendezvous);
                match reliable::send(&self.shared, fault, src_world, dst_world, frame) {
                    Ok(()) if eager => send_state.complete(hdr.status(nbytes), None),
                    Ok(()) => {}
                    Err(e) => send_state.fail(e),
                }
                return Request::from_state(send_state);
            }
            // Inter-node transfers go through the contention-aware fabric
            // when one is installed (NIC serialization, shared links,
            // rendezvous handshake).
            (false, None, Some(fab)) => {
                let (id, eta) = fab.inject(src_world, dst_world, nbytes);
                (eta, Some(id))
            }
            // Everything else takes the scalar delay.
            (false, None, None) => (
                Instant::now() + self.shared.net.delay(nbytes, src_world, dst_world),
                None,
            ),
        };
        let env = Envelope {
            hdr,
            payload,
            transit: Transit {
                due,
                flow,
                send_state: rendezvous,
            },
        };
        mailbox::arrive(&self.shared, dst_world, env, Lane::Caller);
        if eager {
            send_state.complete(hdr.status(nbytes), None);
        }
        Request::from_state(send_state)
    }

    // ---------------------------------------------------------------
    // receives
    // ---------------------------------------------------------------

    fn irecv_impl(&self, src: i32, tag: i32, target: RecvTarget, san: RecvSan) -> Request {
        let state = RequestState::new();
        let obs_task = if obs::is_enabled() {
            obs::thread_task()
        } else {
            0
        };
        if let Some(bus) = obs::bus() {
            bus.emit(obs::EventData::RecvPosted {
                src,
                tag,
                comm: self.comm_id,
                task: obs_task,
            });
            if let Some(m) = &self.shared.obs_metrics {
                m.recvs.inc();
            }
        }
        let recv = PendingRecv {
            src,
            tag,
            comm: self.comm_id,
            state: Arc::clone(&state),
            target,
            san,
            obs_task,
        };
        mailbox::post(&self.shared, self.group[self.rank], recv);
        Request::from_state(state)
    }

    /// Non-blocking typed receive (`MPI_Irecv`); the payload is owned by
    /// the request and extracted with [`Request::take_data`].
    pub fn irecv(&self, src: i32, tag: i32) -> Result<Request> {
        self.validate_recv(src, tag)?;
        Ok(self.irecv_impl(src, tag, RecvTarget::Owned, RecvSan::default()))
    }

    /// Non-blocking receive into a shared-buffer region. The payload is
    /// copied into `slice` when the message becomes available; the
    /// request fails with [`VmpiError::Truncated`] if the message is
    /// larger than the region.
    pub fn irecv_into<T: Pod>(&self, slice: BufSlice<T>, src: i32, tag: i32) -> Result<Request> {
        self.validate_recv(src, tag)?;
        // Capture the posting task's sanitizer scope: the payload writer
        // runs on the delivery thread (or inline on the sender), but the
        // write it performs belongs to the task that posted the receive —
        // that is how TAMPI message edges enter the happens-before graph.
        let san = if depsan::is_enabled() {
            RecvSan {
                expected_bytes: Some(slice.len() * std::mem::size_of::<T>()),
                region: slice.san_region(),
                scope: depsan::current_scope(),
            }
        } else {
            RecvSan::default()
        };
        let scope = san.scope;
        let writer: crate::mailbox::PayloadWriter = Box::new(move |payload| {
            let elem = std::mem::size_of::<T>();
            if elem == 0 || payload.len() % elem != 0 {
                return Err(VmpiError::TypeMismatch {
                    payload_bytes: payload.len(),
                    elem_bytes: elem,
                });
            }
            let n = payload.len() / elem;
            if n > slice.len() {
                return Err(VmpiError::Truncated {
                    expected: slice.len(),
                    got: n,
                });
            }
            depsan::with_scope(scope, || {
                slice.subslice(0..n).with_write(|dst| {
                    datatype::copy_to_slice(payload, dst).expect("length verified above");
                });
            });
            Ok(())
        });
        Ok(self.irecv_impl(src, tag, RecvTarget::Writer(writer), san))
    }

    /// Blocking typed receive returning an owned payload.
    pub fn recv<T: Pod>(&self, src: i32, tag: i32) -> Result<(Vec<T>, Status)> {
        let req = self.irecv(src, tag)?;
        let status = req.wait_checked()?;
        let data = req.take_data::<T>()?;
        Ok((data, status))
    }

    /// Blocking receive into a caller-provided slice; returns the status.
    /// Errors if the message holds more elements than `dst`.
    pub fn recv_into<T: Pod>(&self, dst: &mut [T], src: i32, tag: i32) -> Result<Status> {
        let (data, status) = self.recv::<T>(src, tag)?;
        if data.len() > dst.len() {
            return Err(VmpiError::Truncated {
                expected: dst.len(),
                got: data.len(),
            });
        }
        dst[..data.len()].copy_from_slice(&data);
        Ok(status)
    }

    fn validate_recv(&self, src: i32, tag: i32) -> Result<()> {
        if src != ANY_SOURCE {
            if src < 0 {
                return Err(VmpiError::InvalidRank(usize::MAX));
            }
            self.check_rank(src as usize)?;
        }
        if tag != ANY_TAG {
            self.check_tag(tag)?;
        }
        Ok(())
    }

    // ---------------------------------------------------------------
    // internal entry points for collectives (reserved tag space, so the
    // user-tag validation is skipped)
    // ---------------------------------------------------------------

    pub(crate) fn isend_coll_bytes(&self, payload: Vec<u8>, dst: usize, tag: i32) -> Request {
        debug_assert!(tag >= COLL_TAG_BASE);
        self.isend_impl(payload, dst, tag)
    }

    pub(crate) fn irecv_coll(&self, src: usize, tag: i32) -> Request {
        debug_assert!(tag >= COLL_TAG_BASE);
        self.irecv_impl(src as i32, tag, RecvTarget::Owned, RecvSan::default())
    }

    // ---------------------------------------------------------------
    // probes
    // ---------------------------------------------------------------

    /// Non-blocking probe: returns the status of a matching *available*
    /// message without consuming it.
    pub fn iprobe(&self, src: i32, tag: i32) -> Result<Option<Status>> {
        self.validate_recv(src, tag)?;
        let my_world = self.group[self.rank];
        let inner = self.shared.mailboxes[my_world].inner.lock();
        Ok(inner.peek_available(src, tag, self.comm_id, Instant::now()))
    }

    /// Blocking probe: waits until a matching message is available.
    pub fn probe(&self, src: i32, tag: i32) -> Result<Status> {
        self.validate_recv(src, tag)?;
        let my_world = self.group[self.rank];
        let mailbox = &self.shared.mailboxes[my_world];
        let mut inner = mailbox.inner.lock();
        loop {
            if let Some(fault) = &self.shared.fault {
                if fault.poisoned.load(Ordering::SeqCst) {
                    return Err(VmpiError::WorldDown);
                }
            }
            let now = Instant::now();
            if let Some(st) = inner.peek_available(src, tag, self.comm_id, now) {
                return Ok(st);
            }
            match inner.earliest_match(src, tag, self.comm_id) {
                Some(due) => {
                    mailbox.arrived.wait_until(&mut inner, due);
                }
                None => {
                    mailbox.arrived.wait(&mut inner);
                }
            }
        }
    }

    // ---------------------------------------------------------------
    // communicator derivation
    // ---------------------------------------------------------------

    /// Derives the isolated matching channel of one collective
    /// invocation: a lightweight clone of this communicator whose
    /// matching-context id mixes the collective sequence number into the
    /// communicator id. Every rank derives the same id for the same
    /// invocation (collectives are called in the same order on all
    /// ranks), and distinct invocations can never match each other's
    /// traffic — which is what retires the old `(seq * 64) % 2^29`
    /// tag-block scheme, whose blocks aliased after 2^23 collectives. The
    /// domain-separation constant keeps the ids disjoint from `dup`/
    /// `split` derivations.
    pub(crate) fn coll_channel(&self, seq: u64) -> Comm {
        let id = mix64(self.comm_id ^ mix64(seq) ^ 0xc011_ec71_4e5a_a917);
        Comm::new(
            Arc::clone(&self.shared),
            id,
            self.rank,
            Arc::clone(&self.group),
        )
    }

    /// Duplicates the communicator into an isolated matching context
    /// (`MPI_Comm_dup`). Must be called by all ranks in the same order.
    pub fn dup(&self) -> Comm {
        let seq = self.derive_seq.fetch_add(1, Ordering::Relaxed);
        let id = mix64(self.comm_id ^ mix64(seq.wrapping_mul(2) + 1));
        Comm::new(
            Arc::clone(&self.shared),
            id,
            self.rank,
            Arc::clone(&self.group),
        )
    }

    /// Splits the communicator by color (`MPI_Comm_split`); ranks with the
    /// same `color` land in the same sub-communicator, ordered by
    /// `(key, parent rank)`. Collective over the parent communicator.
    pub fn split(&self, color: i64, key: i64) -> Comm {
        let seq = self.derive_seq.fetch_add(1, Ordering::Relaxed);
        let mine = [color, key, self.rank as i64];
        let all = self.allgather(&mine).expect("split allgather");
        let mut members: Vec<(i64, i64)> = all
            .iter()
            .filter(|v| v[0] == color)
            .map(|v| (v[1], v[2]))
            .collect();
        members.sort_unstable();
        let group: Vec<usize> = members
            .iter()
            .map(|&(_, parent)| self.group[parent as usize])
            .collect();
        let new_rank = members
            .iter()
            .position(|&(_, parent)| parent as usize == self.rank)
            .expect("calling rank is in its own color group");
        // The domain separator keeps the mix input nonzero: without it,
        // (comm 0, first split, color 0) derived id 0 — the *world*
        // communicator's id — and the child shared the parent's matching
        // context (collective channels collided, cross-matching traffic).
        let id = mix64(
            self.comm_id
                ^ mix64(seq.wrapping_mul(2))
                ^ (color as u64).wrapping_mul(0x9e3779b97f4a7c15)
                ^ 0x5350_4c49_545f_4944,
        );
        Comm::new(Arc::clone(&self.shared), id, new_rank, Arc::new(group))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn status_count() {
        let st = Status {
            source: 0,
            tag: 0,
            bytes: 32,
        };
        assert_eq!(st.count::<f64>(), 4);
        assert_eq!(st.count::<u8>(), 32);
    }

    #[test]
    fn first_split_color_zero_is_not_the_world_comm() {
        // Regression: mix64(0 ^ mix64(0) ^ 0) == 0, so the first split's
        // color-0 child used to inherit the world communicator's id and
        // share its matching context.
        let world = crate::World::new(2, crate::NetworkModel::instant());
        world.run(|comm| {
            let sub = comm.split(0, comm.rank() as i64);
            assert_ne!(sub.comm_id, comm.comm_id);
        });
    }

    #[test]
    fn mix64_is_deterministic_and_spreads() {
        assert_eq!(mix64(42), mix64(42));
        assert_ne!(mix64(1), mix64(2));
        // Adjacent inputs land far apart (avalanche property).
        assert!(mix64(1).abs_diff(mix64(2)) > 1 << 32);
    }
}
