//! The dependency registry: the live claim table.
//!
//! For every object with live (unreleased) accesses, the registry keeps a
//! [`History`] keyed by task. Registering a new task links it behind
//! every live predecessor the history reports; releasing a task retires
//! its entries.
//!
//! ## Lock ordering
//!
//! Registration takes *shard lock → predecessor task state lock*; release
//! takes the task's own state lock first, **drops it**, and only then
//! takes shard locks for removal. The two paths therefore never hold a
//! state lock and a shard lock in opposite order, which rules out
//! deadlock. Registration observing a task whose `released` flag is set
//! but whose registry entries are not yet removed simply skips the edge —
//! the data is already available.

use crate::deps::History;
use crate::region::ObjId;
use crate::task::TaskShared;
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::atomic::Ordering;
use std::sync::Arc;

const SHARDS: usize = 16;

type Shard = HashMap<ObjId, History<Arc<TaskShared>>>;

pub(crate) struct Registry {
    shards: Vec<Mutex<Shard>>,
}

impl Registry {
    pub(crate) fn new() -> Registry {
        Registry {
            shards: (0..SHARDS).map(|_| Mutex::new(Shard::new())).collect(),
        }
    }

    fn shard_of(&self, obj: ObjId) -> &Mutex<Shard> {
        // Scramble the id a little: sequential ObjIds would otherwise pile
        // into neighbouring shards in lockstep.
        let h = obj.0.wrapping_mul(0x9e3779b97f4a7c15);
        &self.shards[(h >> 56) as usize % SHARDS]
    }

    /// Registers all accesses of `task`, adding one pending count per
    /// live predecessor. Returns the number of predecessor edges created
    /// (for stats).
    pub(crate) fn register(&self, task: &Arc<TaskShared>) -> usize {
        let mut edges = 0;
        for access in task.accesses.iter() {
            let mut shard = self.shard_of(access.region.obj).lock();
            let live = shard.entry(access.region.obj).or_default();
            live.record(Arc::clone(task), access, |pred| {
                let mut links = pred.state.lock();
                // A released predecessor's data is already available; a
                // second edge between the same pair would double-count
                // in `pending`.
                if links.released || links.successors.iter().any(|s| s.id == task.id) {
                    return;
                }
                links.successors.push(Arc::clone(task));
                task.pending.fetch_add(1, Ordering::AcqRel);
                edges += 1;
                if let Some(bus) = obs::bus() {
                    bus.emit_for_rank(
                        task.rt.rank(),
                        obs::EventData::DepEdge {
                            pred: pred.id,
                            succ: task.id,
                        },
                    );
                }
            });
        }
        edges
    }

    /// Inserts the accesses of `task` as live entries *without* any edge
    /// scan — used by the trace layer to flush a replayed (bypassed)
    /// task back into the claim table so later fresh analysis can link
    /// behind it. The caller handles the race against release (see
    /// `trace::flush_bypassed`).
    pub(crate) fn insert_entries(&self, task: &Arc<TaskShared>) {
        for access in task.accesses.iter() {
            let mut shard = self.shard_of(access.region.obj).lock();
            shard
                .entry(access.region.obj)
                .or_default()
                .insert(Arc::clone(task), access);
        }
    }

    /// Removes all registry entries of a released task.
    pub(crate) fn remove_task(&self, task: &Arc<TaskShared>) {
        for access in task.accesses.iter() {
            let mut shard = self.shard_of(access.region.obj).lock();
            if let Some(live) = shard.get_mut(&access.region.obj) {
                live.retire(task);
                if live.is_empty() {
                    shard.remove(&access.region.obj);
                }
            }
        }
    }

    /// Number of objects with live accesses (diagnostics).
    pub(crate) fn live_objects(&self) -> usize {
        self.shards.iter().map(|s| s.lock().len()).sum()
    }
}
