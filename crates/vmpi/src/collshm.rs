//! Intra-node combine slots for hierarchical collectives.
//!
//! Ranks grouped onto the same simulated node live in the same OS
//! process, so the intra-node stage of a hierarchical collective does not
//! need the mailbox machinery at all: members *deposit* their
//! contribution into a shared slot, the node leader *collects* the
//! deposits, runs the inter-node stage, and *publishes* the result the
//! members then *take*. This mirrors how real MPI implementations run
//! node-local collective stages over shared memory, and on this
//! single-process substrate it removes per-hop request allocation and
//! most of the context switches a mailbox round-trip costs.
//!
//! A slot is keyed by `(channel, seq, node)`: the per-collective derived
//! channel id plus the communicator-local collective sequence number make
//! every invocation's slots unique, so a rank racing ahead into the next
//! collective can never touch a slow peer's slot. Entries are created on
//! first touch and removed by the last member to take the published
//! result (or by the leader when the group has no members), keeping the
//! registry empty between collectives.

use crate::error::{Result, VmpiError};
use parking_lot::{Condvar, Mutex, MutexGuard};
use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// Key of one node-local slot of one collective invocation.
pub(crate) type SlotKey = (u64, u64, usize);

#[derive(Default)]
struct Slot {
    /// Contributions deposited by non-leader members, by communicator
    /// rank (ordered, so the leader folds in ascending rank order).
    deposits: BTreeMap<usize, Vec<u8>>,
    /// The leader's published result (or error), once available.
    result: Option<Result<Arc<Vec<u8>>>>,
    /// How many members have taken the result so far.
    taken: usize,
}

/// Registry of in-flight intra-node combine slots (one per world).
#[derive(Default)]
pub(crate) struct CollSlots {
    inner: Mutex<HashMap<SlotKey, Slot>>,
    changed: Condvar,
    /// The world was poisoned: a wait that cannot be served returns
    /// [`VmpiError::WorldDown`] instead of waiting for a peer that
    /// unwound. Written under `inner`'s lock, so no waiter misses it.
    down: AtomicBool,
}

impl CollSlots {
    /// Deposits a member contribution into the slot. Never blocks.
    pub fn deposit(&self, key: SlotKey, member_rank: usize, bytes: Vec<u8>) {
        let mut inner = self.inner.lock();
        let slot = inner.entry(key).or_default();
        let prev = slot.deposits.insert(member_rank, bytes);
        debug_assert!(prev.is_none(), "double deposit by rank {member_rank}");
        self.changed.notify_all();
    }

    /// Leader side: waits until all `expected` member deposits are in and
    /// returns them in ascending communicator-rank order.
    pub fn collect(&self, key: SlotKey, expected: usize) -> Result<Vec<(usize, Vec<u8>)>> {
        let mut inner = self.inner.lock();
        loop {
            if let Some(slot) = inner.get_mut(&key).filter(|s| s.deposits.len() >= expected) {
                debug_assert_eq!(slot.deposits.len(), expected, "more deposits than members");
                return Ok(std::mem::take(&mut slot.deposits).into_iter().collect());
            }
            if expected == 0 {
                return Ok(Vec::new());
            }
            self.wait(&mut inner)?;
        }
    }

    /// Wakes every waiter for good: the world was poisoned.
    pub fn poison(&self) {
        let _inner = self.inner.lock();
        self.down.store(true, Ordering::Relaxed);
        self.changed.notify_all();
    }

    fn wait(&self, inner: &mut MutexGuard<'_, HashMap<SlotKey, Slot>>) -> Result<()> {
        if self.down.load(Ordering::Relaxed) {
            return Err(VmpiError::WorldDown);
        }
        self.changed.wait(inner);
        Ok(())
    }

    /// Leader side: publishes the collective's result (or the error that
    /// aborted it) for `takers` members to pick up. With zero takers the
    /// slot is removed immediately.
    pub fn publish(&self, key: SlotKey, takers: usize, result: Result<Arc<Vec<u8>>>) {
        let mut inner = self.inner.lock();
        if takers == 0 {
            inner.remove(&key);
            return;
        }
        let slot = inner.entry(key).or_default();
        slot.result = Some(result);
        self.changed.notify_all();
    }

    /// Member side: waits for the published result. The last of `takers`
    /// members removes the slot.
    pub fn take(&self, key: SlotKey, takers: usize) -> Result<Arc<Vec<u8>>> {
        let mut inner = self.inner.lock();
        loop {
            if let Some(slot) = inner.get_mut(&key) {
                if let Some(result) = slot.result.clone() {
                    slot.taken += 1;
                    if slot.taken >= takers {
                        inner.remove(&key);
                    }
                    return result;
                }
            }
            self.wait(&mut inner)?;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deposit_collect_publish_take_roundtrip() {
        let slots = Arc::new(CollSlots::default());
        let key = (7, 3, 0);
        let s2 = Arc::clone(&slots);
        let member = std::thread::spawn(move || {
            s2.deposit(key, 1, vec![1, 2]);
            s2.take(key, 1).unwrap()
        });
        let deposits = slots.collect(key, 1).unwrap();
        assert_eq!(deposits, vec![(1, vec![1, 2])]);
        slots.publish(key, 1, Ok(Arc::new(vec![9])));
        assert_eq!(*member.join().unwrap(), vec![9]);
        // Last taker removed the slot.
        assert!(slots.inner.lock().is_empty());
    }

    #[test]
    fn errors_propagate_to_members() {
        let slots = CollSlots::default();
        let key = (1, 1, 1);
        slots.publish(
            key,
            1,
            Err(VmpiError::Truncated {
                expected: 4,
                got: 2,
            }),
        );
        assert_eq!(
            slots.take(key, 1),
            Err(VmpiError::Truncated {
                expected: 4,
                got: 2
            })
        );
        assert!(slots.inner.lock().is_empty());
    }

    #[test]
    fn poison_wakes_a_parked_leader_and_member() {
        let slots = Arc::new(CollSlots::default());
        let (leader, member) = (Arc::clone(&slots), Arc::clone(&slots));
        let leader = std::thread::spawn(move || leader.collect((2, 0, 0), 1));
        let member = std::thread::spawn(move || member.take((2, 0, 1), 1));
        std::thread::sleep(std::time::Duration::from_millis(20));
        slots.poison();
        assert_eq!(leader.join().unwrap(), Err(VmpiError::WorldDown));
        assert_eq!(member.join().unwrap(), Err(VmpiError::WorldDown));
    }

    #[test]
    fn zero_takers_removes_slot_immediately() {
        let slots = CollSlots::default();
        slots.publish((0, 0, 0), 0, Ok(Arc::new(vec![])));
        assert!(slots.inner.lock().is_empty());
    }
}
