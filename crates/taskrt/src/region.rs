//! Abstract data regions and access declarations.
//!
//! Dependencies in this runtime are *symbolic*: a [`Region`] names a range
//! of an abstract object (a mesh block's variable range, a communication
//! buffer section, a control structure), and the runtime orders tasks by
//! overlap — it never dereferences anything. This mirrors OmpSs-2, where
//! the `depend` clauses describe data, and matches the paper's note that
//! miniAMR tasks depend on "the range of variables in the block that they
//! are processing" rather than on exact geometric subsets (§IV-D).

use std::fmt;
use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};

/// Identifier of an abstract data object that tasks can depend on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ObjId(pub u64);

/// Process-global rather than per-runtime because an id is minted before,
/// and independently of, any runtime that sees it (static elaboration,
/// blocks migrating between ranks' runtimes, depsan's process-wide object
/// table), and it must be unique across all of them.
static NEXT_OBJ: AtomicU64 = AtomicU64::new(1);

impl ObjId {
    /// Allocates a process-unique object id.
    pub fn fresh() -> ObjId {
        ObjId(NEXT_OBJ.fetch_add(1, Ordering::Relaxed))
    }
}

impl From<u64> for ObjId {
    fn from(v: u64) -> Self {
        ObjId(v)
    }
}

/// A contiguous element range of an abstract object.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Region {
    /// The object this region belongs to.
    pub obj: ObjId,
    /// Start element (inclusive).
    pub start: usize,
    /// End element (exclusive).
    pub end: usize,
}

impl Region {
    /// Builds a region over `range` of object `obj`.
    pub fn new(obj: ObjId, range: Range<usize>) -> Region {
        debug_assert!(range.start <= range.end, "inverted region range");
        Region {
            obj,
            start: range.start,
            end: range.end,
        }
    }

    /// A region covering the whole (conceptually unbounded) object — use
    /// for scalar objects or whole-structure dependencies.
    pub fn whole(obj: ObjId) -> Region {
        Region {
            obj,
            start: 0,
            end: usize::MAX,
        }
    }

    /// Number of elements covered.
    pub fn len(&self) -> usize {
        self.end - self.start
    }

    /// Whether the region covers no elements.
    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }

    /// Range overlap test (same object and non-empty intersection; empty
    /// regions overlap nothing).
    #[inline]
    pub fn overlaps(&self, other: &Region) -> bool {
        let hit = self.obj == other.obj && self.start.max(other.start) < self.end.min(other.end);
        debug_assert!(
            !(hit && (self.is_empty() || other.is_empty())),
            "empty regions must not overlap: {self} vs {other}"
        );
        debug_assert_eq!(
            hit,
            other.obj == self.obj && other.start.max(self.start) < other.end.min(self.end),
            "Region::overlaps must be symmetric: {self} vs {other}"
        );
        hit
    }
}

impl fmt::Display for Region {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "obj{}[{}..{})", self.obj.0, self.start, self.end)
    }
}

/// How a task uses a region.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessMode {
    /// Read-only (`in` in OmpSs-2): orders after overlapping writers.
    In,
    /// Write-only (`out`): orders after overlapping readers and writers.
    Out,
    /// Read-write (`inout`): same ordering as `Out`.
    InOut,
}

impl AccessMode {
    /// Whether this access writes the region.
    #[inline]
    pub fn is_write(self) -> bool {
        !matches!(self, AccessMode::In)
    }
}

/// One declared access of a task.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Access {
    /// The region accessed.
    pub region: Region,
    /// Read/write mode.
    pub mode: AccessMode,
}

impl Access {
    /// Read access (`in`).
    pub fn read(region: Region) -> Access {
        Access {
            region,
            mode: AccessMode::In,
        }
    }

    /// Write access (`out`).
    pub fn write(region: Region) -> Access {
        Access {
            region,
            mode: AccessMode::Out,
        }
    }

    /// Read-write access (`inout`).
    pub fn read_write(region: Region) -> Access {
        Access {
            region,
            mode: AccessMode::InOut,
        }
    }

    /// Whether two accesses conflict (overlapping regions, at least one
    /// write): conflicting accesses execute in spawn order.
    #[inline]
    pub fn conflicts_with(&self, other: &Access) -> bool {
        let hit =
            (self.mode.is_write() || other.mode.is_write()) && self.region.overlaps(&other.region);
        debug_assert_eq!(
            hit,
            (other.mode.is_write() || self.mode.is_write()) && other.region.overlaps(&self.region),
            "Access::conflicts_with must be symmetric: {} vs {}",
            self.region,
            other.region
        );
        hit
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_ids_are_unique() {
        let a = ObjId::fresh();
        let b = ObjId::fresh();
        assert_ne!(a, b);
    }

    #[test]
    fn overlap_rules() {
        let o = ObjId::fresh();
        let p = ObjId::fresh();
        let a = Region::new(o, 0..10);
        assert!(a.overlaps(&Region::new(o, 9..20)));
        assert!(
            !a.overlaps(&Region::new(o, 10..20)),
            "adjacent ranges do not overlap"
        );
        assert!(
            !a.overlaps(&Region::new(p, 0..10)),
            "different objects never overlap"
        );
        assert!(Region::whole(o).overlaps(&a));
        assert!(
            !Region::new(o, 5..5).overlaps(&a),
            "empty region overlaps nothing"
        );
    }

    #[test]
    fn conflict_matrix() {
        let o = ObjId::fresh();
        let r = Region::new(o, 0..4);
        let read = Access::read(r.clone());
        let write = Access::write(r.clone());
        let inout = Access::read_write(r);
        assert!(!read.conflicts_with(&read));
        assert!(read.conflicts_with(&write));
        assert!(write.conflicts_with(&read));
        assert!(write.conflicts_with(&write));
        assert!(inout.conflicts_with(&read));
        assert!(inout.conflicts_with(&inout));
    }

    #[test]
    fn disjoint_writes_do_not_conflict() {
        let o = ObjId::fresh();
        let a = Access::write(Region::new(o, 0..4));
        let b = Access::write(Region::new(o, 4..8));
        assert!(!a.conflicts_with(&b));
    }

    #[test]
    fn empty_ranges_never_overlap() {
        let o = ObjId::fresh();
        let empty = Region::new(o, 3..3);
        // Empty vs itself, empty vs empty at the same point, empty inside,
        // at the boundary of, and outside a non-empty range: all disjoint.
        assert!(!empty.overlaps(&empty));
        assert!(!empty.overlaps(&Region::new(o, 3..3)));
        assert!(!empty.overlaps(&Region::new(o, 0..10)));
        assert!(!Region::new(o, 0..10).overlaps(&empty));
        assert!(!Region::new(o, 0..3).overlaps(&Region::new(o, 3..3)));
        assert!(!Region::new(o, 3..7).overlaps(&Region::new(o, 3..3)));
        assert!(!Region::new(o, 0..0).overlaps(&Region::whole(o)));
        assert!(!Region::whole(o).overlaps(&Region::new(o, usize::MAX..usize::MAX)));
    }

    #[test]
    fn empty_write_accesses_never_conflict() {
        let o = ObjId::fresh();
        let empty_w = Access::write(Region::new(o, 5..5));
        let full_w = Access::write(Region::new(o, 0..10));
        assert!(!empty_w.conflicts_with(&full_w));
        assert!(!full_w.conflicts_with(&empty_w));
        assert!(!empty_w.conflicts_with(&empty_w));
    }

    #[test]
    fn conflicts_with_is_symmetric() {
        let o = ObjId::fresh();
        let p = ObjId::fresh();
        let regions = [
            Region::new(o, 0..4),
            Region::new(o, 2..6),
            Region::new(o, 4..8),
            Region::new(o, 3..3),
            Region::whole(o),
            Region::new(p, 0..4),
        ];
        let modes = [AccessMode::In, AccessMode::Out, AccessMode::InOut];
        for ra in &regions {
            for rb in &regions {
                for &ma in &modes {
                    for &mb in &modes {
                        let a = Access {
                            region: ra.clone(),
                            mode: ma,
                        };
                        let b = Access {
                            region: rb.clone(),
                            mode: mb,
                        };
                        assert_eq!(
                            a.conflicts_with(&b),
                            b.conflicts_with(&a),
                            "asymmetric conflict: {ra} {ma:?} vs {rb} {mb:?}"
                        );
                    }
                }
            }
        }
    }
}
