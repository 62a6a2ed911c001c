//! Shared communication buffers with dynamic race detection.
//!
//! miniAMR packs block faces into large contiguous communication buffers;
//! in the data-flow variant, *disjoint sections* of one buffer are written
//! and read concurrently by pack/send/receive/unpack tasks whose ordering
//! is guaranteed by task dependencies — not by the type system. A
//! [`SharedBuffer`] reproduces that model safely-in-practice: interior
//! mutability plus an always-on interval-claim checker that panics on any
//! genuinely overlapping concurrent access, turning a dependency-annotation
//! bug into an immediate, diagnosable failure instead of silent corruption.

use crate::pod::Pod;
use parking_lot::Mutex;
use std::cell::UnsafeCell;
use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Claim {
    start: usize,
    end: usize,
    write: bool,
}

impl Claim {
    /// Largest interval bound an inline slot can hold (31 bits).
    const MAX_PACKED: usize = (1 << 31) - 1;
    const OCCUPIED: u64 = 1 << 63;
    const WRITE: u64 = 1 << 62;

    /// One slot word: `occupied | write | start (31 bits) | end (31 bits)`.
    /// Never 0, the free slot.
    fn pack(self) -> u64 {
        debug_assert!(self.end <= Self::MAX_PACKED);
        let write = if self.write { Self::WRITE } else { 0 };
        Self::OCCUPIED | write | (self.start as u64) << 31 | self.end as u64
    }

    fn unpack(word: u64) -> Option<Claim> {
        (word != 0).then_some(Claim {
            start: (word >> 31) as usize & Self::MAX_PACKED,
            end: word as usize & Self::MAX_PACKED,
            write: word & Self::WRITE != 0,
        })
    }

    /// The race diagnostic if `self`, being acquired, may not coexist with
    /// the active claim `held`.
    fn check_against(self, held: Claim) -> Result<(), String> {
        let overlaps = held.start < self.end && self.start < held.end;
        if overlaps && (self.write || held.write) {
            let kind = |write| if write { "write" } else { "read" };
            return Err(format!(
                "SharedBuffer race: {} access to [{}, {}) overlaps active {} \
                 access to [{}, {}) — missing task dependency",
                kind(self.write),
                self.start,
                self.end,
                kind(held.write),
                held.start,
                held.end,
            ));
        }
        Ok(())
    }
}

/// Claims held inline: the common case is one or two per buffer (a task's
/// own access, a neighbour reading the same block).
const INLINE_SLOTS: usize = 4;

/// The active claims of one buffer.
///
/// A claim normally lives in one of [`INLINE_SLOTS`] atomic words and
/// costs its holder one compare-exchange, a scan of the other words and
/// one store — no lock. The protocol is *publish, then scan*: a claimant
/// first makes its interval visible (a `SeqCst` compare-exchange on a free
/// slot) and only then reads every other claim (`SeqCst` loads). All those
/// operations sit in one total order, so of two overlapping concurrent
/// claimants the one that published second scans after the first one's
/// publication and sees it (or sees the slot released, in which case the
/// claims did not overlap in time): at least one of the pair panics.
///
/// Claims that find no free slot (more than `INLINE_SLOTS` at once), and
/// intervals too long to pack, go to the locked `overflow` list instead:
/// pushed and counted in `overflowed` under the lock — the publication —
/// and then scanned for like any other. Every claimant reads the list
/// whenever `overflowed` is non-zero, so the argument above holds across
/// the two kinds as well.
struct ClaimTable {
    slots: [AtomicU64; INLINE_SLOTS],
    overflow: Mutex<Vec<(u64, Claim)>>,
    /// Length of `overflow`, readable without the lock.
    overflowed: AtomicU64,
    /// Ids of overflow claims; starts past the slot indices so a token
    /// names either a slot or a list entry.
    next_id: AtomicU64,
    /// Dependency-object id this buffer is bound to (0 = unbound). Both
    /// taskrt's `ObjId` counter and the mesh block-uid counter start at 1,
    /// so 0 is a safe sentinel. Used by the `depsan` sanitizer to turn
    /// claims into checked-view access records. Lives inside the claim
    /// table so the sanitizer hook rides the existing opaque `acquire`
    /// call: an extra call (or an inlined atomic load) at the generic
    /// `with_read`/`with_write` sites was observed to defeat dead-copy
    /// elimination in downstream crates' optimized builds.
    san_obj: AtomicU64,
}

impl ClaimTable {
    fn new() -> ClaimTable {
        ClaimTable {
            slots: std::array::from_fn(|_| AtomicU64::new(0)),
            overflow: Mutex::new(Vec::new()),
            overflowed: AtomicU64::new(0),
            next_id: AtomicU64::new(INLINE_SLOTS as u64),
            san_obj: AtomicU64::new(0),
        }
    }

    /// Publishes a claim and checks it against every other active claim;
    /// returns the token [`ClaimTable::release`] takes. A conflicting
    /// claim is withdrawn before the panic, as if never made.
    fn acquire(&self, start: usize, end: usize, write: bool) -> u64 {
        // Sanitizer hook (see `san_obj` above). Disabled cost: one relaxed
        // load and a never-taken branch inside an already-opaque call.
        if depsan::is_enabled() {
            let obj = self.san_obj.load(Ordering::Relaxed);
            if obj != 0 {
                depsan::record_access(obj, start, end, write);
            }
        }
        let claim = Claim { start, end, write };
        let token = self.publish(claim);
        if let Err(race) = self.scan(claim, token) {
            self.release(token);
            panic!("{race}");
        }
        token
    }

    /// Makes `claim` visible to every later scan: in a free inline slot,
    /// else in the overflow list.
    fn publish(&self, claim: Claim) -> u64 {
        if claim.end <= Claim::MAX_PACKED {
            let word = claim.pack();
            for (i, slot) in self.slots.iter().enumerate() {
                if slot.load(Ordering::Relaxed) == 0
                    && slot
                        .compare_exchange(0, word, Ordering::SeqCst, Ordering::Relaxed)
                        .is_ok()
                {
                    return i as u64;
                }
            }
        }
        let mut overflow = self.overflow.lock();
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        overflow.push((id, claim));
        self.overflowed.fetch_add(1, Ordering::SeqCst);
        id
    }

    /// Checks the published claim `token` against every other one.
    fn scan(&self, claim: Claim, token: u64) -> Result<(), String> {
        for (i, slot) in self.slots.iter().enumerate() {
            if i as u64 == token {
                continue;
            }
            if let Some(held) = Claim::unpack(slot.load(Ordering::SeqCst)) {
                claim.check_against(held)?;
            }
        }
        if self.overflowed.load(Ordering::SeqCst) > 0 {
            for (id, held) in self.overflow.lock().iter() {
                if *id != token {
                    claim.check_against(*held)?;
                }
            }
        }
        Ok(())
    }

    fn release(&self, token: u64) {
        if let Some(slot) = self.slots.get(token as usize) {
            // Release pairs with the acquire of the scan (or the
            // compare-exchange) that next reads this slot: the holder's
            // data accesses happen before those of whoever sees it free.
            slot.store(0, Ordering::Release);
            return;
        }
        let mut overflow = self.overflow.lock();
        if let Some(pos) = overflow.iter().position(|(id, _)| *id == token) {
            overflow.swap_remove(pos);
            self.overflowed.fetch_sub(1, Ordering::SeqCst);
        }
    }
}

/// A fixed-size buffer of `Pod` elements shared between threads, with
/// access mediated through [`BufSlice`] regions.
pub struct SharedBuffer<T: Pod> {
    data: UnsafeCell<Box<[T]>>,
    len: usize,
    claims: ClaimTable,
}

// SAFETY: all access to `data` goes through the claim table, which panics
// on overlapping read/write or write/write access; disjoint regions are
// distinct memory.
unsafe impl<T: Pod> Sync for SharedBuffer<T> {}
unsafe impl<T: Pod> Send for SharedBuffer<T> {}

impl<T: Pod + Default> SharedBuffer<T> {
    /// Allocates a zero-initialised shared buffer of `len` elements.
    pub fn new(len: usize) -> Arc<Self> {
        Arc::new(SharedBuffer {
            data: UnsafeCell::new(vec![T::default(); len].into_boxed_slice()),
            len,
            claims: ClaimTable::new(),
        })
    }
}

impl<T: Pod> SharedBuffer<T> {
    /// Total number of elements.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Returns true for a zero-length buffer.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// A [`BufSlice`] covering `range`.
    ///
    /// # Panics
    ///
    /// Panics if the range exceeds the buffer bounds.
    pub fn slice(self: &Arc<Self>, range: Range<usize>) -> BufSlice<T> {
        assert!(
            range.start <= range.end && range.end <= self.len,
            "slice out of bounds"
        );
        BufSlice {
            buf: Arc::clone(self),
            start: range.start,
            len: range.end - range.start,
        }
    }

    /// A [`BufSlice`] covering the whole buffer.
    pub fn full(self: &Arc<Self>) -> BufSlice<T> {
        self.slice(0..self.len)
    }

    /// Binds the buffer to a dependency-object id so the `depsan`
    /// sanitizer can check actual accesses against declared task regions.
    /// Idempotent; the last binding wins. A no-op beyond one atomic store
    /// while the sanitizer is disabled.
    pub fn bind_obj(&self, obj: u64) {
        self.claims.san_obj.store(obj, Ordering::Relaxed);
        if depsan::is_enabled() {
            depsan::object_bound(obj);
        }
    }

    /// The dependency-object id bound via [`Self::bind_obj`] (0 = none).
    pub fn san_obj(&self) -> u64 {
        self.claims.san_obj.load(Ordering::Relaxed)
    }
}

/// A region of a [`SharedBuffer`]. Cloneable and `Send`; every data access
/// acquires a read or write claim for the region's interval.
#[derive(Clone)]
pub struct BufSlice<T: Pod> {
    buf: Arc<SharedBuffer<T>>,
    start: usize,
    len: usize,
}

impl<T: Pod> BufSlice<T> {
    /// Number of elements in the region.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Returns true for an empty region.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Start offset inside the underlying buffer.
    pub fn offset(&self) -> usize {
        self.start
    }

    /// Narrows the region. `range` is relative to this slice.
    pub fn subslice(&self, range: Range<usize>) -> BufSlice<T> {
        assert!(
            range.start <= range.end && range.end <= self.len,
            "subslice out of bounds"
        );
        BufSlice {
            buf: Arc::clone(&self.buf),
            start: self.start + range.start,
            len: range.end - range.start,
        }
    }

    /// The sanitizer view of the region: `(bound object id, start, end)`
    /// in elements; object id 0 when the buffer is unbound.
    pub fn san_region(&self) -> (u64, usize, usize) {
        (self.buf.san_obj(), self.start, self.start + self.len)
    }

    /// Runs `f` with shared read access to the region.
    pub fn with_read<R>(&self, f: impl FnOnce(&[T]) -> R) -> R {
        let claim = self
            .buf
            .claims
            .acquire(self.start, self.start + self.len, false);
        // SAFETY: the claim table guarantees no concurrent writer overlaps
        // this interval for the duration of the claim.
        let result = {
            let data = unsafe { &*self.buf.data.get() };
            f(&data[self.start..self.start + self.len])
        };
        self.buf.claims.release(claim);
        result
    }

    /// Runs `f` with exclusive write access to the region.
    pub fn with_write<R>(&self, f: impl FnOnce(&mut [T]) -> R) -> R {
        let claim = self
            .buf
            .claims
            .acquire(self.start, self.start + self.len, true);
        // SAFETY: the claim table guarantees exclusive access to this
        // interval for the duration of the claim.
        let result = {
            let data = unsafe { &mut *self.buf.data.get() };
            f(&mut data[self.start..self.start + self.len])
        };
        self.buf.claims.release(claim);
        result
    }

    /// Copies `src` into the region (must match the region length).
    pub fn write_from(&self, src: &[T]) {
        assert_eq!(src.len(), self.len, "write_from length mismatch");
        self.with_write(|dst| dst.copy_from_slice(src));
    }

    /// Copies the region into a fresh vector.
    pub fn to_vec(&self) -> Vec<T> {
        self.with_read(|src| src.to_vec())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disjoint_writes_in_parallel() {
        let buf = SharedBuffer::<f64>::new(1000);
        std::thread::scope(|s| {
            for i in 0..4 {
                let slice = buf.slice(i * 250..(i + 1) * 250);
                s.spawn(move || {
                    slice.with_write(|w| {
                        for v in w.iter_mut() {
                            *v = i as f64;
                        }
                    });
                });
            }
        });
        let all = buf.full().to_vec();
        for (idx, v) in all.iter().enumerate() {
            assert_eq!(*v, (idx / 250) as f64);
        }
    }

    #[test]
    fn overlapping_reads_allowed() {
        let buf = SharedBuffer::<f64>::new(100);
        let a = buf.slice(0..80);
        let b = buf.slice(20..100);
        a.with_read(|_| {
            // Nested overlapping read must not panic.
            b.with_read(|_| {});
        });
    }

    #[test]
    #[should_panic(expected = "SharedBuffer race")]
    fn overlapping_write_write_panics() {
        let buf = SharedBuffer::<f64>::new(100);
        let a = buf.slice(0..60);
        let b = buf.slice(40..100);
        a.with_write(|_| {
            b.with_write(|_| {});
        });
    }

    #[test]
    #[should_panic(expected = "SharedBuffer race")]
    fn overlapping_read_write_panics() {
        let buf = SharedBuffer::<f64>::new(100);
        let a = buf.slice(0..60);
        let b = buf.slice(59..61);
        a.with_read(|_| {
            b.with_write(|_| {});
        });
    }

    #[test]
    fn adjacent_regions_do_not_conflict() {
        let buf = SharedBuffer::<f64>::new(100);
        let a = buf.slice(0..50);
        let b = buf.slice(50..100);
        a.with_write(|_| {
            b.with_write(|_| {});
        });
    }

    fn panics(f: impl FnOnce()) -> bool {
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)).is_err()
    }

    fn refused(table: &ClaimTable, start: usize, end: usize, write: bool) -> bool {
        panics(|| {
            table.acquire(start, end, write);
        })
    }

    /// Claims beyond the inline slots live in the overflow list; each kind
    /// detects a conflict with the other, and a refused claim leaves no
    /// trace behind.
    #[test]
    fn overflow_and_inline_claims_see_each_other() {
        let table = ClaimTable::new();
        let n = INLINE_SLOTS + 2;
        let tokens: Vec<u64> = (0..n)
            .map(|i| table.acquire(10 * i, 10 * i + 10, true))
            .collect();
        let inline = INLINE_SLOTS as u64;
        assert!(tokens[..INLINE_SLOTS].iter().all(|&t| t < inline));
        assert!(tokens[INLINE_SLOTS..].iter().all(|&t| t >= inline));
        // Slots full: the newcomer overflows and meets an inline claim,
        // then an overflow claim; a disjoint or read/read one is let in.
        assert!(refused(&table, 5, 6, false));
        assert!(refused(&table, 10 * n - 1, 10 * n + 5, true));
        let disjoint = table.acquire(10 * n, 10 * n + 5, true);
        assert_eq!(table.overflowed.load(Ordering::SeqCst), 3);
        table.release(disjoint);
        // A freed slot: the newcomer is inline and meets an overflow claim.
        table.release(tokens[0]);
        assert!(refused(&table, 10 * n - 1, 10 * n, false));
        assert_eq!(
            table.acquire(0, 10, true),
            tokens[0],
            "refused claim kept a slot"
        );
        for t in tokens {
            table.release(t);
        }
        assert_eq!(table.overflowed.load(Ordering::SeqCst), 0);
        assert!(table.overflow.lock().is_empty());
        assert!(table.slots.iter().all(|s| s.load(Ordering::SeqCst) == 0));
    }

    /// Intervals past the packable range take the locked list even with
    /// every slot free, and are checked like any other.
    #[test]
    fn unpackable_intervals_use_the_locked_list() {
        let table = ClaimTable::new();
        let far = Claim::MAX_PACKED;
        let edge = table.acquire(far - 10, far, true);
        assert!(
            edge < INLINE_SLOTS as u64,
            "the last packable bound is inline"
        );
        let long = table.acquire(far, far + 100, true);
        assert!(long >= INLINE_SLOTS as u64);
        assert!(refused(&table, far + 50, far + 60, false));
        assert!(refused(&table, far - 1, far + 1, true));
        assert!(refused(&table, 0, far + 200, false));
        let read = table.acquire(far + 100, far + 200, false);
        let read2 = table.acquire(far + 150, far + 300, false);
        for t in [edge, long, read, read2] {
            table.release(t);
        }
        assert!(table.overflow.lock().is_empty());
    }

    #[test]
    fn packed_claims_round_trip() {
        for claim in [
            Claim {
                start: 0,
                end: 0,
                write: false,
            },
            Claim {
                start: 7,
                end: 19,
                write: true,
            },
            Claim {
                start: Claim::MAX_PACKED,
                end: Claim::MAX_PACKED,
                write: true,
            },
        ] {
            assert_ne!(claim.pack(), 0);
            assert_eq!(Claim::unpack(claim.pack()), Some(claim));
        }
        assert_eq!(Claim::unpack(0), None);
    }

    /// More nested claims than inline slots through the public surface:
    /// the innermost ones overflow and still conflict with the outermost.
    #[test]
    fn deeply_nested_claims_still_conflict() {
        fn nest(buf: &Arc<SharedBuffer<f64>>, depth: usize, innermost: &dyn Fn()) {
            if depth == INLINE_SLOTS + 2 {
                return innermost();
            }
            buf.slice(10 * depth..10 * depth + 10)
                .with_read(|_| nest(buf, depth + 1, innermost));
        }
        let buf = SharedBuffer::<f64>::new(100);
        nest(&buf, 0, &|| buf.slice(0..100).with_read(|_| {}));
        assert!(panics(|| nest(&buf, 0, &|| buf
            .slice(3..4)
            .with_write(|_| {}))));
    }

    #[test]
    fn subslice_arithmetic() {
        let buf = SharedBuffer::<i32>::new(100);
        let s = buf.slice(10..60);
        let sub = s.subslice(5..15);
        assert_eq!(sub.offset(), 15);
        assert_eq!(sub.len(), 10);
        sub.write_from(&[7; 10]);
        assert_eq!(buf.slice(15..25).to_vec(), vec![7; 10]);
        assert_eq!(buf.slice(10..15).to_vec(), vec![0; 5]);
    }

    #[test]
    fn roundtrip_write_read() {
        let buf = SharedBuffer::<f64>::new(8);
        let s = buf.full();
        let data: Vec<f64> = (0..8).map(|i| i as f64 * 1.5).collect();
        s.write_from(&data);
        assert_eq!(s.to_vec(), data);
    }
}
