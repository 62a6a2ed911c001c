//! The dependency kernel: one object's history of *uncovered* accesses.
//!
//! The ordering rule of the data-flow model is that two tasks whose
//! declared accesses overlap on an object, at least one of them writing
//! ([`Access::conflicts_with`]), run in spawn order. A [`History`] turns
//! a stream of accesses to one object into the predecessor edges that
//! enforce the rule, and it is the only place that does: the live claim
//! table (`registry`), the replay cache's shadow analysis (`trace`) and
//! `dfcheck`'s graph each keep a map of histories and differ only in the
//! key that names a task and in what they do with a reported edge.
//!
//! ## Covering
//!
//! [`History::record`] reports every earlier entry that conflicts with
//! the new access; a write then drops the entries its range fully
//! covers. Nothing is lost by the drop: whatever conflicts with a covered
//! entry overlaps the write's range too and so conflicts with the write,
//! which already took its edge to the entry — the ordering flows through
//! the write. The reported edges are therefore a transitive reduction of
//! the rule (same closure, fewer edges), and a history stays as short as
//! the number of disjoint pieces the object is accessed in.
//!
//! A caller that retires keys (the claim table, on task release) keeps
//! the argument intact because the covering write waits for the covered
//! task: by the time the write's own entry is retired, the covered task
//! has released and needs no edge any more.

use crate::region::Access;

/// Spawn-ordered uncovered accesses to one object, each tagged with the
/// caller's key for the task that declared it. Pure and single-threaded;
/// callers that share one provide the locking.
#[derive(Debug)]
pub struct History<K> {
    entries: Vec<(K, Access)>,
}

impl<K> Default for History<K> {
    fn default() -> Self {
        History {
            entries: Vec::new(),
        }
    }
}

impl<K: PartialEq> History<K> {
    /// Records `access` by task `key`: calls `pred` with the key of every
    /// earlier entry of *another* task that conflicts with it (once per
    /// conflicting entry, so a key can repeat), drops the entries a write
    /// fully covers, then appends the access. A task's own entries are
    /// neither reported nor dropped: a task may declare several accesses
    /// on one object and is never its own predecessor.
    pub fn record(&mut self, key: K, access: &Access, mut pred: impl FnMut(&K)) {
        debug_assert!(
            self.entries
                .last()
                .is_none_or(|(_, a)| a.region.obj == access.region.obj),
            "one History serves one object"
        );
        let covering = access.mode.is_write();
        let (start, end) = (access.region.start, access.region.end);
        self.entries.retain(|(k, prior)| {
            if *k == key {
                return true;
            }
            if prior.conflicts_with(access) {
                pred(k);
            }
            !(covering && start <= prior.region.start && prior.region.end <= end)
        });
        self.insert(key, access);
    }

    /// Appends `access` without reporting or dropping anything (for a
    /// task whose edges were decided elsewhere but which later accesses
    /// must still be ordered behind).
    pub fn insert(&mut self, key: K, access: &Access) {
        self.entries.push((key, access.clone()));
    }

    /// Removes every entry of task `key`.
    pub fn retire(&mut self, key: &K) {
        self.entries.retain(|(k, _)| k != key);
    }

    /// Whether no access is recorded.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::region::{ObjId, Region};

    fn preds(h: &mut History<u32>, key: u32, access: Access) -> Vec<u32> {
        let mut out = Vec::new();
        h.record(key, &access, |&k| out.push(k));
        out
    }

    #[test]
    fn readers_share_and_writers_order() {
        let o = ObjId::fresh();
        let mut h = History::default();
        assert!(preds(&mut h, 0, Access::write(Region::new(o, 0..8))).is_empty());
        assert_eq!(preds(&mut h, 1, Access::read(Region::new(o, 0..4))), [0]);
        assert_eq!(preds(&mut h, 2, Access::read(Region::new(o, 2..6))), [0]);
        // The next writer waits for the first writer and both readers.
        assert_eq!(
            preds(&mut h, 3, Access::write(Region::new(o, 0..8))),
            [0, 1, 2]
        );
        // ... and is all that a later access has to wait for.
        assert_eq!(preds(&mut h, 4, Access::read(Region::new(o, 0..8))), [3]);
    }

    #[test]
    fn own_entries_are_skipped_and_kept() {
        let o = ObjId::fresh();
        let mut h = History::default();
        assert!(preds(&mut h, 0, Access::read(Region::new(o, 0..8))).is_empty());
        assert!(preds(&mut h, 0, Access::write(Region::new(o, 0..8))).is_empty());
        assert_eq!(
            preds(&mut h, 1, Access::write(Region::new(o, 0..8))),
            [0, 0]
        );
    }

    #[test]
    fn insert_skips_the_scan_and_retire_forgets() {
        let o = ObjId::fresh();
        let mut h = History::default();
        h.insert(0, &Access::write(Region::new(o, 0..8)));
        h.insert(1, &Access::write(Region::new(o, 0..8)));
        assert_eq!(preds(&mut h, 2, Access::read(Region::new(o, 0..1))), [0, 1]);
        h.retire(&0);
        assert_eq!(preds(&mut h, 3, Access::read(Region::new(o, 0..1))), [1]);
        h.retire(&1);
        h.retire(&2);
        h.retire(&3);
        assert!(h.is_empty());
    }
}
