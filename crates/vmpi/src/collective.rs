//! Collective operations over the point-to-point layer.
//!
//! All collectives are blocking and must be invoked by every rank of the
//! communicator in the same order (the standard MPI contract). Each
//! invocation runs in a reserved tag space (`tag >= 1<<30`) on its own
//! *derived channel* — a matching-context id mixed from the communicator
//! id and the per-communicator collective sequence number — so collective
//! traffic can never match user receives, and no two invocations can
//! alias each other no matter how many collectives a long-running job
//! issues (the old `(seq * 64) % 2^29` tag-block scheme wrapped after
//! 2^23 collectives).
//!
//! Two algorithm families are available (selected with
//! [`crate::NetworkModel::with_coll`]):
//!
//! * [`CollAlgo::Flat`] — single-level binomial trees / dissemination
//!   rounds over the whole communicator.
//! * [`CollAlgo::Hier`] — topology-aware two-level algorithms: ranks
//!   sharing a simulated node combine through an in-process shared slot
//!   (see [`crate::collshm`]), one leader per node runs the inter-node
//!   binomial stage, and the result fans back out node-locally.
//!
//! Both families use a *fixed, deterministic* combination order, so a
//! given world produces bitwise-identical results on every rank and on
//! every run. The two families may parenthesize non-associative
//! floating-point reductions differently from each other (a standard MPI
//! allowance); integer reductions and all data-movement collectives
//! (bcast/gather/allgather/barrier) are bitwise-identical across
//! families.

use crate::comm::{Comm, COLL_TAG_BASE};
use crate::datatype::{self, Pod};
use crate::error::{Result, VmpiError};
use crate::net::CollAlgo;
use crate::ReduceOp;
use std::collections::BTreeMap;
use std::sync::atomic::Ordering;
use std::sync::Arc;

/// Element types that support [`ReduceOp`] combination in `reduce` /
/// `allreduce`.
pub trait Reducible: Pod {
    /// Combines two values under `op`.
    fn combine(op: ReduceOp, a: Self, b: Self) -> Self;
}

macro_rules! impl_reducible_int {
    ($($t:ty),*) => {$(
        impl Reducible for $t {
            #[inline]
            fn combine(op: ReduceOp, a: Self, b: Self) -> Self {
                match op {
                    ReduceOp::Sum => a.wrapping_add(b),
                    ReduceOp::Min => a.min(b),
                    ReduceOp::Max => a.max(b),
                    ReduceOp::Prod => a.wrapping_mul(b),
                }
            }
        }
    )*};
}
impl_reducible_int!(i32, i64, u32, u64, usize);

impl Reducible for f64 {
    #[inline]
    fn combine(op: ReduceOp, a: Self, b: Self) -> Self {
        op.apply_f64(a, b)
    }
}

impl Reducible for f32 {
    #[inline]
    fn combine(op: ReduceOp, a: Self, b: Self) -> Self {
        match op {
            ReduceOp::Sum => a + b,
            ReduceOp::Min => a.min(b),
            ReduceOp::Max => a.max(b),
            ReduceOp::Prod => a * b,
        }
    }
}

fn bytes_to_vec<T: Pod>(bytes: &[u8]) -> Result<Vec<T>> {
    datatype::from_bytes::<T>(bytes).ok_or(VmpiError::TypeMismatch {
        payload_bytes: bytes.len(),
        elem_bytes: std::mem::size_of::<T>(),
    })
}

/// `bytes` as exactly `n` elements (a reduction operand or result);
/// anything else is a hard [`VmpiError::Truncated`] on every build
/// profile.
fn exact_vec<T: Pod>(bytes: &[u8], n: usize) -> Result<Vec<T>> {
    let v = bytes_to_vec::<T>(bytes)?;
    if v.len() != n {
        return Err(VmpiError::Truncated {
            expected: n,
            got: v.len(),
        });
    }
    Ok(v)
}

/// Node grouping of a communicator, derived from the network model's
/// `ranks_per_node` over *world* ranks (so sub-communicators see the same
/// physical placement as the world).
struct NodeTopo {
    /// This rank's node id.
    node: usize,
    /// Communicator ranks sharing this rank's node, ascending.
    members: Vec<usize>,
    /// Lowest member rank of every node in the communicator, ascending
    /// by node id.
    leaders: Vec<usize>,
}

impl NodeTopo {
    /// This rank's node leader (the lowest comm rank on the node).
    fn leader(&self) -> usize {
        self.members[0]
    }

    /// This leader's index within `leaders`.
    fn leader_idx(&self) -> usize {
        self.leaders
            .iter()
            .position(|&l| l == self.leader())
            .expect("every node has its leader in the leader list")
    }
}

impl Comm {
    /// Starts a collective invocation: advances the per-communicator
    /// sequence number and derives the invocation's isolated matching
    /// channel.
    fn coll_begin(&self) -> (u64, Comm) {
        let seq = self.coll_seq.fetch_add(1, Ordering::Relaxed);
        (seq, self.coll_channel(seq))
    }

    /// Whether collectives on this communicator take the hierarchical
    /// path: they are asked to and there is a node grouping
    /// (`ranks_per_node > 1`). A fault plan changes nothing: the
    /// inter-node stage sends reliability frames like any message, and
    /// the intra-node slots fail their waits once the world is poisoned.
    /// A hard crash is a dead NIC, so only the inter-node stage sees it:
    /// a crashed node member still deposits into and takes from its
    /// node's slots, where on the flat path its frames are lost.
    fn hier_enabled(&self) -> bool {
        self.shared.net.coll == CollAlgo::Hier
            && self.shared.net.params.ranks_per_node > 1
            && self.size() > 1
    }

    fn node_topo(&self) -> NodeTopo {
        let rpn = self.shared.net.params.ranks_per_node;
        let node_of = |r: usize| {
            let w = self.world_rank_of(r);
            w.checked_div(rpn).unwrap_or(w)
        };
        let mut by_node: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
        for r in 0..self.size() {
            by_node.entry(node_of(r)).or_default().push(r);
        }
        let node = node_of(self.rank());
        let leaders = by_node.values().map(|v| v[0]).collect();
        let members = by_node.remove(&node).expect("own node is present");
        NodeTopo {
            node,
            members,
            leaders,
        }
    }

    pub(crate) fn send_coll<T: Pod>(&self, data: &[T], dst: usize, tag: i32) -> Result<()> {
        // Collective edges reuse the point-to-point machinery but skip the
        // user-tag validation (collective tags live above TAG_UB).
        let req = {
            let bytes = crate::datatype::as_bytes(data).to_vec();
            self.isend_coll_bytes(bytes, dst, tag)
        };
        req.wait_checked()?;
        Ok(())
    }

    pub(crate) fn recv_coll<T: Pod>(&self, src: usize, tag: i32) -> Result<Vec<T>> {
        let req = self.irecv_coll(src, tag);
        req.wait_checked()?;
        req.take_data::<T>()
    }

    /// The node-local frame of a hierarchical collective. A member
    /// deposits `mine` and takes what its leader publishes. The leader
    /// collects its members' deposits (ascending rank), runs `stage` over
    /// them and the inter-node leaders, and publishes its result, or the
    /// error, so no member waits on a collective its leader aborted.
    fn node_stage(
        &self,
        seq: u64,
        ch: &Comm,
        mine: &[u8],
        stage: impl FnOnce(&NodeTopo, Vec<(usize, Vec<u8>)>) -> Result<Vec<u8>>,
    ) -> Result<Arc<Vec<u8>>> {
        let topo = self.node_topo();
        let key = (ch.comm_id, seq, topo.node);
        let slots = &self.shared.coll_slots;
        let takers = topo.members.len() - 1;
        if self.rank() != topo.leader() {
            slots.deposit(key, self.rank(), mine.to_vec());
            return slots.take(key, takers);
        }
        let result = (slots.collect(key, takers)).and_then(|deposits| stage(&topo, deposits));
        let result = result.map(Arc::new);
        slots.publish(key, takers, result.clone());
        result
    }

    // ---------------------------------------------------------------
    // building blocks over an explicit rank subset (used by both the
    // flat algorithms, with the full rank list, and the inter-node
    // leader stage of the hierarchical ones)
    // ---------------------------------------------------------------

    /// Dissemination barrier over `ranks`; `idx` is this rank's position
    /// in the list.
    fn barrier_over(&self, ranks: &[usize], idx: usize, tag_base: i32) -> Result<()> {
        let q = ranks.len();
        if q <= 1 {
            return Ok(());
        }
        let token = [1u8];
        let mut round = 0;
        let mut dist = 1usize;
        while dist < q {
            let to = ranks[(idx + dist) % q];
            let from = ranks[(idx + q - dist) % q];
            let tag = tag_base + round;
            let send = self.isend_coll_bytes(token.to_vec(), to, tag);
            let _ = self.recv_coll::<u8>(from, tag)?;
            send.wait_checked()?;
            dist <<= 1;
            round += 1;
        }
        Ok(())
    }

    /// Binomial-tree reduction over `ranks`, folding into `acc` in a
    /// fixed order. Returns `true` on the rank holding the result
    /// (`ranks[0]`); other ranks' `acc` is consumed (sent to the parent).
    fn reduce_fold_over<T: Reducible>(
        &self,
        ranks: &[usize],
        idx: usize,
        tag: i32,
        op: ReduceOp,
        acc: &mut [T],
    ) -> Result<bool> {
        let q = ranks.len();
        let mut mask = 1usize;
        while mask < q {
            if idx & mask == 0 {
                let src_idx = idx | mask;
                if src_idx < q {
                    let incoming = self.recv_coll::<u8>(ranks[src_idx], tag)?;
                    let incoming = exact_vec::<T>(&incoming, acc.len())?;
                    for (a, b) in acc.iter_mut().zip(incoming.iter()) {
                        *a = T::combine(op, *a, *b);
                    }
                }
            } else {
                self.send_coll(acc, ranks[idx & !mask], tag)?;
                return Ok(false);
            }
            mask <<= 1;
        }
        Ok(true)
    }

    /// Binomial-tree broadcast of a raw payload over `ranks`, rooted at
    /// `ranks[0]` (which must pass `Some(payload)`).
    fn bcast_bytes_over(
        &self,
        ranks: &[usize],
        idx: usize,
        tag: i32,
        payload: Option<Vec<u8>>,
    ) -> Result<Vec<u8>> {
        let q = ranks.len();
        let mut buf = payload;
        let mut mask = 1usize;
        while mask < q {
            if idx & mask != 0 {
                let req = self.irecv_coll(ranks[idx - mask], tag);
                req.wait_checked()?;
                buf = Some(req.take_data::<u8>()?);
                break;
            }
            mask <<= 1;
        }
        let payload = buf.expect("every rank receives or roots the bcast payload");
        let mut m = mask >> 1;
        let mut sends = Vec::new();
        while m > 0 {
            if idx + m < q {
                sends.push(self.isend_coll_bytes(payload.clone(), ranks[idx + m], tag));
            }
            m >>= 1;
        }
        for s in sends {
            s.wait_checked()?;
        }
        Ok(payload)
    }

    // ---------------------------------------------------------------
    // public collectives
    // ---------------------------------------------------------------

    /// Synchronizes all ranks (`MPI_Barrier`): a dissemination barrier
    /// when flat, node-gather → leader dissemination → node-release when
    /// hierarchical.
    pub fn barrier(&self) -> Result<()> {
        let p = self.size();
        if p <= 1 {
            return Ok(());
        }
        let (seq, ch) = self.coll_begin();
        if self.hier_enabled() {
            // A member's deposit and take, and the leader's collect, only
            // complete once every rank has arrived: the barrier property.
            let release = self.node_stage(seq, &ch, &[], |topo, _| {
                ch.barrier_over(&topo.leaders, topo.leader_idx(), COLL_TAG_BASE)?;
                Ok(Vec::new())
            });
            return release.map(drop);
        }
        let all: Vec<usize> = (0..p).collect();
        ch.barrier_over(&all, self.rank(), COLL_TAG_BASE)
    }

    /// Broadcasts `data` from `root` to every rank (binomial tree,
    /// `MPI_Bcast`). Non-root ranks receive the payload into the returned
    /// vector; the root gets its input back.
    ///
    /// # Panics
    ///
    /// If the root passes `None`: a caller bug, not a transport failure.
    pub fn bcast<T: Pod>(&self, data: Option<&[T]>, root: usize) -> Result<Vec<T>> {
        let p = self.size();
        let (_, ch) = self.coll_begin();
        // Ranks in relative order around the root — this reproduces the
        // classic rel-rank binomial tree.
        let ranks: Vec<usize> = (0..p).map(|i| (root + i) % p).collect();
        let rel = (self.rank() + p - root) % p;
        let payload = if self.rank() == root {
            let data = data.expect("root must provide data to bcast");
            Some(datatype::as_bytes(data).to_vec())
        } else {
            None
        };
        let bytes = ch.bcast_bytes_over(&ranks, rel, COLL_TAG_BASE, payload)?;
        bytes_to_vec(&bytes)
    }

    /// Reduces elementwise to `root` (binomial tree, `MPI_Reduce`).
    /// Returns `Some(result)` on the root, `None` elsewhere. All ranks
    /// must contribute the same number of elements; a mismatch is a hard
    /// [`VmpiError::Truncated`] (on the combining rank) on every build
    /// profile — it used to be a `debug_assert!` that silently truncated
    /// the reduction tail in release builds.
    pub fn reduce<T: Reducible>(
        &self,
        data: &[T],
        op: ReduceOp,
        root: usize,
    ) -> Result<Option<Vec<T>>> {
        let p = self.size();
        let (_, ch) = self.coll_begin();
        let ranks: Vec<usize> = (0..p).map(|i| (root + i) % p).collect();
        let rel = (self.rank() + p - root) % p;
        let mut acc = data.to_vec();
        let rooted = ch.reduce_fold_over(&ranks, rel, COLL_TAG_BASE, op, &mut acc)?;
        Ok(rooted.then_some(acc))
    }

    /// Elementwise reduction visible on all ranks (`MPI_Allreduce`).
    ///
    /// Flat: reduce-to-0 followed by a broadcast. Hierarchical: node
    /// members fold at their leader (ascending rank order), leaders fold
    /// over an inter-node binomial tree, and the result broadcasts back
    /// through the same two levels. Either way the combination order is
    /// fixed, so every rank — and every run — sees bitwise-identical
    /// results for a given algorithm family.
    pub fn allreduce<T: Reducible>(&self, data: &[T], op: ReduceOp) -> Result<Vec<T>> {
        if self.hier_enabled() {
            let (seq, ch) = self.coll_begin();
            let out = self.node_stage(seq, &ch, datatype::as_bytes(data), |topo, deposits| {
                // Intra-node fold, ascending member rank order.
                let mut acc = data.to_vec();
                for (_, bytes) in deposits {
                    for (a, b) in acc.iter_mut().zip(exact_vec::<T>(&bytes, data.len())?) {
                        *a = T::combine(op, *a, b);
                    }
                }
                // Inter-node stage among node leaders.
                let li = topo.leader_idx();
                let rooted = ch.reduce_fold_over(&topo.leaders, li, COLL_TAG_BASE, op, &mut acc)?;
                let root = rooted.then(|| datatype::as_bytes(&acc).to_vec());
                ch.bcast_bytes_over(&topo.leaders, li, COLL_TAG_BASE + 1, root)
            })?;
            return exact_vec(&out, data.len());
        }
        let reduced = self.reduce(data, op, 0)?;
        self.bcast(reduced.as_deref(), 0)
    }

    /// Scalar convenience wrapper over [`Comm::allreduce`].
    pub fn allreduce_scalar<T: Reducible>(&self, value: T, op: ReduceOp) -> Result<T> {
        Ok(self.allreduce(&[value], op)?[0])
    }

    /// Gathers every rank's (possibly differently sized) contribution on
    /// `root` (`MPI_Gatherv`). Returns `Some(per-rank vectors)` on root.
    ///
    /// Hierarchical: the hierarchical [`Comm::allgather`], whose result
    /// only the root keeps: one leader broadcast more than a rooted
    /// gather needs, and no special case for a root that does not lead
    /// its node.
    pub fn gather<T: Pod>(&self, data: &[T], root: usize) -> Result<Option<Vec<Vec<T>>>> {
        if self.hier_enabled() {
            let all = self.allgather(data)?;
            return Ok((self.rank() == root).then_some(all));
        }
        let p = self.size();
        let (_, ch) = self.coll_begin();
        let tag = COLL_TAG_BASE;
        if self.rank() == root {
            let mut out: Vec<Vec<T>> = Vec::with_capacity(p);
            for r in 0..p {
                if r == root {
                    out.push(data.to_vec());
                } else {
                    out.push(ch.recv_coll::<T>(r, tag)?);
                }
            }
            Ok(Some(out))
        } else {
            ch.send_coll(data, root, tag)?;
            Ok(None)
        }
    }

    /// Gathers every rank's contribution on all ranks
    /// (`MPI_Allgatherv`).
    ///
    /// Flat: gather on rank 0 followed by a broadcast of the flattened
    /// payload plus per-rank counts. Hierarchical: node members deposit
    /// into their leader's slot, leaders gather framed node blobs at the
    /// first leader and broadcast the combined blob over the leader tree,
    /// then each node fans it out locally. Pure data movement — the
    /// output is `out[i] == rank i's input` regardless of routing.
    pub fn allgather<T: Pod>(&self, data: &[T]) -> Result<Vec<Vec<T>>> {
        if self.hier_enabled() {
            let (seq, ch) = self.coll_begin();
            let mine = datatype::as_bytes(data);
            let blob = self.node_stage(seq, &ch, mine, |topo, deposits| {
                // Frame this node's contributions: (rank, byte length,
                // bytes) per member, leader first then ascending member
                // order.
                let mut blob = Vec::new();
                frame_entry(&mut blob, self.rank(), mine);
                for (r, bytes) in deposits {
                    frame_entry(&mut blob, r, &bytes);
                }
                let li = topo.leader_idx();
                let combined = if li == 0 {
                    for &l in &topo.leaders[1..] {
                        blob.extend_from_slice(&ch.recv_coll::<u8>(l, COLL_TAG_BASE)?);
                    }
                    blob
                } else {
                    ch.send_coll(&blob, topo.leaders[0], COLL_TAG_BASE)?;
                    Vec::new()
                };
                let root = (li == 0).then_some(combined);
                ch.bcast_bytes_over(&topo.leaders, li, COLL_TAG_BASE + 1, root)
            })?;
            return unframe_allgather::<T>(&blob, self.size());
        }
        let p = self.size();
        let gathered = self.gather(data, 0)?;
        let (flat, counts): (Vec<T>, Vec<u64>) = match gathered {
            Some(parts) => {
                let counts = parts.iter().map(|v| v.len() as u64).collect();
                (parts.into_iter().flatten().collect(), counts)
            }
            None => (Vec::new(), Vec::new()),
        };
        let counts = self.bcast(
            if self.rank() == 0 {
                Some(&counts)
            } else {
                None
            },
            0,
        )?;
        let flat = self.bcast(if self.rank() == 0 { Some(&flat) } else { None }, 0)?;
        debug_assert_eq!(counts.len(), p);
        let mut out = Vec::with_capacity(p);
        let mut off = 0usize;
        for &c in &counts {
            let c = c as usize;
            out.push(flat[off..off + c].to_vec());
            off += c;
        }
        Ok(out)
    }
}

/// Appends one framed allgather entry: `(rank, nbytes, payload)` with
/// little-endian `u64` headers.
fn frame_entry(blob: &mut Vec<u8>, rank: usize, bytes: &[u8]) {
    blob.extend_from_slice(&(rank as u64).to_le_bytes());
    blob.extend_from_slice(&(bytes.len() as u64).to_le_bytes());
    blob.extend_from_slice(bytes);
}

/// Parses a combined allgather blob back into per-rank vectors, indexed
/// by communicator rank. Framing is a protocol invariant — a malformed
/// blob is a bug, not an input error — but element-size mismatches
/// surface as typed errors.
fn unframe_allgather<T: Pod>(blob: &[u8], p: usize) -> Result<Vec<Vec<T>>> {
    let mut out: Vec<Option<Vec<T>>> = (0..p).map(|_| None).collect();
    let mut off = 0usize;
    while off < blob.len() {
        let rank = u64::from_le_bytes(blob[off..off + 8].try_into().expect("framed header"));
        let len = u64::from_le_bytes(blob[off + 8..off + 16].try_into().expect("framed header"));
        off += 16;
        let end = off + len as usize;
        let bytes = &blob[off..end];
        out[rank as usize] = Some(bytes_to_vec::<T>(bytes)?);
        off = end;
    }
    Ok(out
        .into_iter()
        .map(|v| v.expect("every rank contributed to the allgather"))
        .collect())
}
