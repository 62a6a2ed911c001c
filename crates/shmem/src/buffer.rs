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
use std::alloc::Layout;
use std::ops::Range;
use std::ptr::NonNull;
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
/// Check-then-publish, the order a lock makes safe, would not do: two
/// claimants could each scan an empty table and then both publish.
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
    /// Dependency-object id this buffer is bound to (0 = unbound).
    /// taskrt's `ObjId` counter starts at 1 and the mesh block-uid
    /// counter at 2^63 + 1, so 0 is a safe sentinel. Used by the `depsan`
    /// sanitizer to turn claims into checked-view access records. Lives
    /// inside the claim table so the sanitizer hook rides the existing
    /// opaque `acquire` call: an extra call (or an inlined atomic load) at
    /// the generic `with_read`/`with_write` sites was observed to defeat
    /// dead-copy elimination in downstream crates' optimized builds.
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

    /// [`ClaimTable::acquire`] with the claim held by the returned guard.
    fn hold(&self, start: usize, end: usize, write: bool) -> Held<'_> {
        Held {
            table: self,
            token: self.acquire(start, end, write),
        }
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

/// A published claim, withdrawn when dropped: when the access returns,
/// and when a panic unwinds out of it, so a caught panic leaves no region
/// claimed for good.
struct Held<'a> {
    table: &'a ClaimTable,
    token: u64,
}

impl Drop for Held<'_> {
    fn drop(&mut self) {
        self.table.release(self.token);
    }
}

/// Calls `f` in a function of its own. Inlined into `with_read` or
/// `with_write`, every call in the closure that may unwind would become
/// an invoke with the claim guard's cleanup, which slowed the stencil and
/// copy loops: MPI-only's wall time on the `regrid_churn` flags read
/// ≈ 12 % higher on a 2-vCPU VM, and as low as before with the closure
/// out of line.
#[inline(never)]
fn outlined<A, R>(f: impl FnOnce(A) -> R, a: A) -> R {
    f(a)
}

/// Arrays of at least this many bytes get their own anonymous page
/// mapping (on Linux); smaller ones are boxed slices from the global
/// allocator. 128 KiB is glibc's default mmap threshold, the size from
/// which glibc itself maps a chunk until a free raises its threshold.
const MAPPED_BYTES: usize = 128 << 10;

/// The elements of a [`SharedBuffer`], allocated zeroed.
///
/// An array of at least [`MAPPED_BYTES`] on Linux is an anonymous private
/// page mapping of its own: the kernel fills a page with zeros when it is
/// first touched, so an array that is allocated early and written late
/// (a block whose receive is posted before its data arrives) holds no
/// resident memory until it is written, and `munmap` on drop returns its
/// pages to the kernel. Through the global allocator, glibc would serve it
/// from an arena that keeps the pages after the free as soon as one freed
/// mapped chunk had raised its dynamic mmap threshold past the array's
/// size, and it would write the zeros at once. A smaller array, and every
/// array on other targets, is a boxed slice.
///
/// A mapped array starts as all-zero bytes, and all-zero bytes are
/// `T::default()` for every [`Pod`] implementor (the primitive integers
/// and floats, whose default is 0). Which of the two allocations an array
/// has is a function of its byte length alone, so the drop needs no tag.
struct Storage<T: Pod> {
    ptr: NonNull<T>,
    len: usize,
}

impl<T: Pod + Default> Storage<T> {
    fn new(len: usize) -> Storage<T> {
        if Self::mapped(len) {
            return Storage {
                ptr: pages::map(Self::layout(len)).cast(),
                len,
            };
        }
        // `Drop` rebuilds the box from this pointer and `len`.
        let boxed = Box::leak(vec![T::default(); len].into_boxed_slice());
        Storage {
            ptr: NonNull::from(boxed).cast(),
            len,
        }
    }
}

impl<T: Pod> Storage<T> {
    fn layout(len: usize) -> Layout {
        Layout::array::<T>(len).expect("capacity overflow")
    }

    /// True when an array of `len` elements is a page mapping.
    fn mapped(len: usize) -> bool {
        pages::ENABLED && Self::layout(len).size() >= MAPPED_BYTES
    }

    /// The elements `start..start + len`, as a raw slice.
    ///
    /// # Safety
    ///
    /// `start + len` must not exceed the array's length.
    unsafe fn region(&self, start: usize, len: usize) -> *mut [T] {
        // SAFETY: the caller keeps the range inside the allocation.
        std::ptr::slice_from_raw_parts_mut(unsafe { self.ptr.as_ptr().add(start) }, len)
    }
}

impl<T: Pod> Drop for Storage<T> {
    fn drop(&mut self) {
        if Self::mapped(self.len) {
            // SAFETY: `new` mapped exactly this layout at `ptr`, and the
            // storage is dropped once.
            unsafe { pages::unmap(self.ptr.cast(), Self::layout(self.len)) };
        } else {
            // SAFETY: `new` made `ptr` and `len` from a leaked boxed
            // slice, and the storage is dropped once.
            drop(unsafe { Box::from_raw(self.region(0, self.len)) });
        }
    }
}

/// Anonymous page mappings, through the C library std already links.
#[cfg(target_os = "linux")]
mod pages {
    use std::alloc::{handle_alloc_error, Layout};
    use std::ffi::{c_int, c_long, c_void};
    use std::ptr::NonNull;

    pub const ENABLED: bool = true;

    // <sys/mman.h>; MIPS numbers MAP_ANONYMOUS apart from the others.
    const PROT_READ: c_int = 0x1;
    const PROT_WRITE: c_int = 0x2;
    const MAP_PRIVATE: c_int = 0x02;
    #[cfg(not(any(target_arch = "mips", target_arch = "mips64")))]
    const MAP_ANONYMOUS: c_int = 0x20;
    #[cfg(any(target_arch = "mips", target_arch = "mips64"))]
    const MAP_ANONYMOUS: c_int = 0x800;
    const MAP_FAILED: *mut c_void = !0 as *mut c_void;

    extern "C" {
        // `off_t` is a C `long` on Linux.
        fn mmap(
            addr: *mut c_void,
            len: usize,
            prot: c_int,
            flags: c_int,
            fd: c_int,
            offset: c_long,
        ) -> *mut c_void;
        fn munmap(addr: *mut c_void, len: usize) -> c_int;
    }

    /// Maps `layout.size()` bytes of fresh zero pages (page-aligned, so
    /// aligned for any element type). A failed mapping is an allocation
    /// failure, reported as `vec!` reports one.
    pub fn map(layout: Layout) -> NonNull<u8> {
        // SAFETY: an anonymous private mapping at an address of the
        // kernel's choice touches no existing memory.
        let addr = unsafe {
            mmap(
                std::ptr::null_mut(),
                layout.size(),
                PROT_READ | PROT_WRITE,
                MAP_PRIVATE | MAP_ANONYMOUS,
                -1,
                0,
            )
        };
        match NonNull::new(addr.cast()) {
            Some(ptr) if addr != MAP_FAILED => ptr,
            _ => handle_alloc_error(layout),
        }
    }

    /// Returns the pages of a [`map`]ping to the kernel.
    ///
    /// # Safety
    ///
    /// `ptr` and `layout` must be those of one earlier `map` call, and no
    /// reference into the mapping may outlive this call.
    pub unsafe fn unmap(ptr: NonNull<u8>, layout: Layout) {
        // SAFETY: the caller passes a live mapping of this length. Its
        // only failure, a range that is not a mapping, cannot happen then;
        // a drop must not panic, so the result is not checked.
        unsafe { munmap(ptr.as_ptr().cast(), layout.size()) };
    }
}

/// Without page mappings every array is a boxed slice.
#[cfg(not(target_os = "linux"))]
mod pages {
    use std::alloc::Layout;
    use std::ptr::NonNull;

    pub const ENABLED: bool = false;

    pub fn map(_: Layout) -> NonNull<u8> {
        unreachable!("no page mappings on this target")
    }

    pub unsafe fn unmap(_: NonNull<u8>, _: Layout) {
        unreachable!("no page mappings on this target")
    }
}

/// A fixed-size buffer of `Pod` elements shared between threads, with
/// access mediated through [`BufSlice`] regions.
pub struct SharedBuffer<T: Pod> {
    data: Storage<T>,
    claims: ClaimTable,
}

// SAFETY: `data` owns its array (a boxed slice or a page mapping, neither
// tied to the thread that made it) of `Pod`, hence `Send`, elements, so
// the buffer may be dropped on any thread. Every access to the elements
// goes through `claims`, itself thread-safe (atomics and a mutex), which
// panics on overlapping read/write or write/write access; disjoint
// regions are distinct memory.
unsafe impl<T: Pod> Sync for SharedBuffer<T> {}
unsafe impl<T: Pod> Send for SharedBuffer<T> {}

impl<T: Pod + Default> SharedBuffer<T> {
    /// Allocates a zero-initialised shared buffer of `len` elements.
    pub fn new(len: usize) -> Arc<Self> {
        Arc::new(SharedBuffer {
            data: Storage::new(len),
            claims: ClaimTable::new(),
        })
    }
}

impl<T: Pod> SharedBuffer<T> {
    /// Total number of elements.
    pub fn len(&self) -> usize {
        self.data.len
    }

    /// Returns true for a zero-length buffer.
    pub fn is_empty(&self) -> bool {
        self.data.len == 0
    }

    /// A [`BufSlice`] covering `range`.
    ///
    /// # Panics
    ///
    /// Panics if the range exceeds the buffer bounds.
    pub fn slice(self: &Arc<Self>, range: Range<usize>) -> BufSlice<T> {
        assert!(
            range.start <= range.end && range.end <= self.len(),
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
        self.slice(0..self.len())
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
        let _claim = (self.buf.claims).hold(self.start, self.start + self.len, false);
        // SAFETY: `slice`/`subslice` keep the region inside the buffer,
        // and the claim table guarantees no concurrent writer overlaps
        // this interval for the duration of the claim.
        let data = unsafe { &*self.buf.data.region(self.start, self.len) };
        outlined(f, data)
    }

    /// Runs `f` with exclusive write access to the region.
    pub fn with_write<R>(&self, f: impl FnOnce(&mut [T]) -> R) -> R {
        let _claim = (self.buf.claims).hold(self.start, self.start + self.len, true);
        // SAFETY: `slice`/`subslice` keep the region inside the buffer,
        // and the claim table guarantees exclusive access to this
        // interval for the duration of the claim.
        let data = unsafe { &mut *self.buf.data.region(self.start, self.len) };
        outlined(f, data)
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
    fn a_caught_panic_releases_its_claim() {
        let buf = SharedBuffer::<f64>::new(16);
        let slice = buf.slice(0..16);
        let panicked = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            slice.with_write(|_| panic!("task body failed mid-write"))
        }));
        assert!(panicked.is_err());
        // Both would report a race with the abandoned write claim.
        slice.with_write(|w| w[0] = 1.0);
        assert_eq!(slice.with_read(|r| r[0]), 1.0);
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

    /// The element count of the smallest mapped array of `T`.
    fn threshold<T: Pod>() -> usize {
        MAPPED_BYTES / std::mem::size_of::<T>()
    }

    fn reads_default_around_the_threshold<T>()
    where
        T: Pod + Default + PartialEq + std::fmt::Debug,
    {
        let at = threshold::<T>();
        for len in [at - 1, at, at + 1] {
            assert_eq!(Storage::<T>::mapped(len), pages::ENABLED && len >= at);
            let buf = SharedBuffer::<T>::new(len);
            assert_eq!(buf.len(), len);
            buf.full().with_read(|all| {
                assert_eq!(all.len(), len);
                assert!(all.iter().all(|v| *v == T::default()), "len {len}");
            });
        }
    }

    /// Mapped arrays start as zero bytes, boxed ones as `T::default()`:
    /// the same values, for every `Pod` type.
    #[test]
    fn every_pod_type_reads_default_around_the_threshold() {
        reads_default_around_the_threshold::<u8>();
        reads_default_around_the_threshold::<i8>();
        reads_default_around_the_threshold::<u16>();
        reads_default_around_the_threshold::<i16>();
        reads_default_around_the_threshold::<u32>();
        reads_default_around_the_threshold::<i32>();
        reads_default_around_the_threshold::<u64>();
        reads_default_around_the_threshold::<i64>();
        reads_default_around_the_threshold::<usize>();
        reads_default_around_the_threshold::<isize>();
        reads_default_around_the_threshold::<f32>();
        reads_default_around_the_threshold::<f64>();
    }

    /// Slicing, disjoint parallel writes, claim conflicts and the last
    /// element behave alike in a boxed and in a mapped array.
    #[test]
    fn slices_and_claims_agree_on_both_sides_of_the_threshold() {
        let at = threshold::<f64>();
        for len in [at - 1, at + 1] {
            let buf = SharedBuffer::<f64>::new(len);
            let quarter = len / 4;
            std::thread::scope(|s| {
                for i in 0..4 {
                    let end = if i == 3 { len } else { (i + 1) * quarter };
                    let slice = buf.slice(i * quarter..end);
                    s.spawn(move || slice.with_write(|w| w.fill(i as f64)));
                }
            });
            let all = buf.full().to_vec();
            for (idx, v) in all.iter().enumerate() {
                assert_eq!(*v, (idx / quarter).min(3) as f64, "len {len} idx {idx}");
            }
            let tail = buf.slice(len - 10..len).subslice(8..10);
            assert_eq!(tail.offset(), len - 2);
            tail.write_from(&[7.0, 8.0]);
            assert_eq!(buf.slice(len - 3..len).to_vec(), vec![3.0, 7.0, 8.0]);
            let (a, b) = (buf.slice(0..len / 2 + 1), buf.slice(len / 2..len));
            a.with_read(|_| b.with_read(|_| {}));
            // Last: the refused inner claim unwinds past the outer one's
            // release, which stays held.
            assert!(panics(|| a.with_write(|_| b.with_read(|_| {}))));
            // The buffer is `Send`: the last handle may drop anywhere.
            std::thread::spawn(move || drop((buf, a, b, tail)))
                .join()
                .unwrap();
        }
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
