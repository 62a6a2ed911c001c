//! Task-graph trace & replay cache.
//!
//! Between regrids, an AMR timestep re-submits the *same* task DAG over
//! the same regions, so the claim-table dependency analysis recomputes
//! the same answer every iteration. This module amortizes that cost:
//!
//! * A [`TraceScope`] (opened by the driver around one iteration's task
//!   submissions) **records** the submitted stream as a sequence of
//!   fingerprinted nodes — `hash(label, priority, accesses)` — each with
//!   the *structural* predecessor set derived from the declarations
//!   alone: a second set of [`History`] tables keyed by stream position
//!   that nothing is ever retired from. Structural edges, unlike the
//!   claim table's, are timing-independent: the claim table only links
//!   behind predecessors that happen to still be live, so its observed
//!   edge set varies run to run and cannot be replayed soundly.
//! * Once two consecutive iterations record identical node sequences
//!   (and every cross-iteration reference lands in an equally-shaped
//!   iteration), the trace **freezes**. Subsequent matching iterations
//!   **replay**: predecessor/successor links are installed straight from
//!   the trace — the claim table is never touched — with edges to
//!   already-released predecessors skipped, exactly as fresh
//!   registration would.
//! * Any divergence — a fingerprint mismatch, a longer or shorter
//!   stream, an unresolvable cross-iteration reference, or a concurrent
//!   untraced spawn — **falls back** transparently: live replayed tasks
//!   are flushed into the claim table (so fresh analysis sees them) and
//!   the key re-records from scratch.
//!
//! ## Invalidation
//!
//! Anything that changes the structural identity of the stream while
//! the runtime lives — regrid, load-balance/repartition (fresh buffer
//! `ObjId`s) — must invalidate through
//! [`crate::Runtime::invalidate_traces`]. A resize or a checkpoint
//! restore needs nothing: the rank world is torn down and every span
//! builds a fresh runtime, whose cache starts empty.
//!
//! ## Bypassed-task flush
//!
//! Replayed tasks are invisible to the claim table. While any of them
//! are live, a spawn that goes through fresh analysis first *flushes*
//! them: their accesses are inserted into the claim table, and a task
//! that released mid-flush is removed again (removal is idempotent), so
//! fresh analysis never misses a conflict with a live replayed task.

use crate::deps::History;
use crate::region::{Access, ObjId};
use crate::runtime::RtInner;
use crate::task::{SuccessorList, TaskShared};
use parking_lot::Mutex;
use std::cell::RefCell;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Weak};

/// After this many consecutive recordings that failed to stabilize, the
/// key goes dormant (no more recording) until the next invalidation —
/// a non-periodic stream (e.g. fresh `ObjId`s every iteration) would
/// otherwise grow the shadow table without bound and never replay.
const MAX_UNSTABLE: u32 = 16;

// ---------------------------------------------------------------------------
// Fingerprints.

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

#[inline]
fn mix(h: u64, v: u64) -> u64 {
    (h ^ v).wrapping_mul(FNV_PRIME)
}

/// Structural fingerprint of one submission. Labels are hashed by value
/// (not pointer) so identical streams from different call sites match.
fn fingerprint(label: &str, priority: i32, accesses: &[Access]) -> u64 {
    let mut h = FNV_OFFSET;
    for &b in label.as_bytes() {
        h = mix(h, u64::from(b));
    }
    h = mix(h, priority as u32 as u64);
    for a in accesses {
        h = mix(
            h,
            a.mode.is_write() as u64
                | ((matches!(a.mode, crate::region::AccessMode::Out) as u64) << 1),
        );
        h = mix(h, a.region.obj.0);
        h = mix(h, a.region.start as u64);
        h = mix(h, a.region.end as u64);
    }
    h
}

// ---------------------------------------------------------------------------
// Trace data.

/// One position of a recorded iteration: the submission fingerprint plus
/// structural predecessors as `(iteration delta, position)` — delta 0 is
/// the current iteration, 1 the previous, and so on.
#[derive(Clone, PartialEq, Eq, Debug)]
struct TraceNode {
    fp: u64,
    preds: Vec<(u32, u32)>,
}

/// A frozen, replayable iteration trace.
struct TaskTrace {
    nodes: Vec<TraceNode>,
}

/// Structural claim table of one key: per object, the uncovered accesses
/// of the stream so far, keyed by (absolute iteration, position within
/// it).
type ShadowTable = HashMap<ObjId, History<(u64, u32)>>;

/// Records the accesses of the submission at (`iter`, `pos`) and returns
/// its structural predecessors as `(delta, pos)`, deduplicated.
fn analyze(shadow: &mut ShadowTable, iter: u64, pos: u32, accesses: &[Access]) -> Vec<(u32, u32)> {
    let mut preds: Vec<(u32, u32)> = Vec::new();
    for a in accesses {
        shadow
            .entry(a.region.obj)
            .or_default()
            .record((iter, pos), a, |&(i, p)| preds.push(((iter - i) as u32, p)));
    }
    preds.sort_unstable();
    preds.dedup();
    preds
}

/// Per-key cache state (checked out into the active scope's thread
/// local while a scope is open, so spawns touch no locks).
#[derive(Default)]
struct KeyState {
    /// Absolute iteration counter (shadow entry timestamps).
    iter: u64,
    /// Frozen trace (replay source), once stable.
    trace: Option<Arc<TaskTrace>>,
    /// Previous recording, compared against for stability.
    last_nodes: Option<Vec<TraceNode>>,
    shadow: ShadowTable,
    /// Task instances of the previous iteration: the resolution targets
    /// of cross-iteration predecessor references (see [`replay_ready`]
    /// for why one iteration is all a frozen trace can reach).
    prev: Vec<Arc<TaskShared>>,
    /// Consecutive recordings that failed to stabilize.
    unstable: u32,
    /// Recording disabled until the next invalidation.
    dormant: bool,
    /// Untraced-spawn counter at the end of the key's last scope. A
    /// change by the next scope means out-of-band tasks were spawned in
    /// between; they may still be live yet are not in `prev`, so
    /// the key's history cannot be trusted any more.
    untraced_seen: u64,
}

impl KeyState {
    fn reset(&mut self) {
        let iter = self.iter;
        *self = KeyState::default();
        self.iter = iter;
    }
}

/// Per-runtime trace cache, embedded in `RtInner`.
pub(crate) struct TraceCache {
    /// Replay enabled ([`crate::RuntimeConfig::replay`]); when false the
    /// whole machinery is inert and scopes are no-ops.
    pub(crate) enabled: bool,
    keys: Mutex<HashMap<u64, KeyState>>,
    generation: AtomicU64,
    /// Live replayed tasks not present in the claim table.
    bypassed: Mutex<Vec<Weak<TaskShared>>>,
    pub(crate) bypassed_live: AtomicUsize,
    /// Spawns that went through fresh analysis outside the active scope
    /// (divergence guard for concurrent submitters).
    untraced_spawns: AtomicU64,
}

impl TraceCache {
    pub(crate) fn new(enabled: bool) -> TraceCache {
        TraceCache {
            enabled,
            keys: Mutex::new(HashMap::new()),
            generation: AtomicU64::new(0),
            bypassed: Mutex::new(Vec::new()),
            bypassed_live: AtomicUsize::new(0),
            untraced_spawns: AtomicU64::new(0),
        }
    }

    /// Drops every task reference the cache holds. A key's `prev` holds
    /// `Arc<TaskShared>`s, and every task holds its runtime: left alone,
    /// the cycle keeps the runtime and everything it ever traced alive.
    pub(crate) fn clear(&self) {
        self.keys.lock().clear();
        self.bypassed.lock().clear();
    }
}

// ---------------------------------------------------------------------------
// The active scope (thread-local: all scope-path work is lock-free).

enum ScopeMode {
    Record,
    Replay {
        trace: Arc<TaskTrace>,
        cursor: usize,
    },
    /// Diverged or dormant: remaining spawns take the fresh path.
    Inert,
}

struct ActiveScope {
    /// Identity of the runtime the scope belongs to (`Arc::as_ptr`).
    rt: *const RtInner,
    key: u64,
    generation: u64,
    untraced_at_start: u64,
    mode: ScopeMode,
    state: KeyState,
    /// Tasks submitted in this scope, in order.
    instance: Vec<Arc<TaskShared>>,
    /// Nodes recorded in this scope (record mode).
    nodes: Vec<TraceNode>,
}

thread_local! {
    static ACTIVE: RefCell<Option<ActiveScope>> = const { RefCell::new(None) };
}

/// RAII guard for one traced iteration: open around a periodic batch of
/// task submissions (one AMR timestep), drop before structural changes.
/// Obtained from [`crate::Runtime::trace_scope`]; scopes must not nest
/// on one thread and submissions from other threads while a scope is
/// open force the scope back to fresh analysis.
pub struct TraceScope<'rt> {
    rt: &'rt crate::Runtime,
}

impl Drop for TraceScope<'_> {
    fn drop(&mut self) {
        scope_end(self.rt.inner());
    }
}

/// How a spawn routes through the cache.
pub(crate) enum Route {
    /// No scope on this thread (or a different runtime's): fresh
    /// analysis, counted as untraced for the divergence guard.
    Untraced,
    /// Scope is inert/diverged: fresh analysis, not counted.
    Inert,
    /// Recording: fresh analysis plus shadow recording.
    Recording,
    /// Replay matched: install exactly these predecessors, skip the
    /// claim table. (A task list with inline room, like a successor
    /// list: most tasks have a handful of predecessors.)
    Replay(SuccessorList),
}

// ---------------------------------------------------------------------------
// Scope lifecycle.

pub(crate) fn scope_begin(inner: &Arc<RtInner>, key: u64) {
    let cache = &inner.trace;
    if !cache.enabled {
        return;
    }
    let mut state = {
        let mut keys = cache.keys.lock();
        keys.remove(&key).unwrap_or_default()
    };
    // Out-of-band spawns since the key's last scope: neither a frozen
    // trace nor the recorded history covers them, so start the key over
    // (counts toward dormancy, like a divergence).
    let untraced_now = cache.untraced_spawns.load(Ordering::Acquire);
    if untraced_now != state.untraced_seen {
        if state.trace.is_some() || state.last_nodes.is_some() || !state.prev.is_empty() {
            let unstable = state.unstable + 1;
            state.reset();
            state.unstable = unstable;
            state.dormant = unstable >= MAX_UNSTABLE;
        }
        state.untraced_seen = untraced_now;
    }
    let mode = if state.dormant {
        ScopeMode::Inert
    } else if let Some(trace) = state.trace.clone() {
        ScopeMode::Replay { trace, cursor: 0 }
    } else {
        ScopeMode::Record
    };
    if matches!(mode, ScopeMode::Record) {
        inner.stat_trace_records.fetch_add(1, Ordering::Relaxed);
        if let Some(m) = &inner.obs_metrics {
            m.trace_records.inc();
        }
        emit_mark(
            inner,
            "record",
            key,
            state.last_nodes.as_ref().map_or(0, |n| n.len()),
        );
    }
    let cap = match &mode {
        ScopeMode::Replay { trace, .. } => trace.nodes.len(),
        _ => state.last_nodes.as_ref().map_or(0, |n| n.len()),
    };
    state.iter += 1;
    let scope = ActiveScope {
        rt: Arc::as_ptr(inner),
        key,
        generation: cache.generation.load(Ordering::Acquire),
        untraced_at_start: cache.untraced_spawns.load(Ordering::Acquire),
        mode,
        state,
        instance: Vec::with_capacity(cap),
        nodes: Vec::with_capacity(cap),
    };
    ACTIVE.with(|a| {
        let mut slot = a.borrow_mut();
        assert!(slot.is_none(), "trace scopes must not nest on one thread");
        *slot = Some(scope);
    });
}

pub(crate) fn scope_end(inner: &Arc<RtInner>) {
    if !inner.trace.enabled {
        return;
    }
    let Some(mut scope) = ACTIVE.with(|a| a.borrow_mut().take()) else {
        return;
    };
    debug_assert_eq!(
        scope.rt,
        Arc::as_ptr(inner),
        "trace scope closed on a different runtime"
    );
    let cache = &inner.trace;
    // An invalidation while the scope was open (possible from a recovery
    // hook on another thread) makes the checked-out state stale: discard
    // it rather than resurrecting pre-invalidation traces.
    if cache.generation.load(Ordering::Acquire) != scope.generation {
        flush_bypassed(inner);
        return;
    }
    match std::mem::replace(&mut scope.mode, ScopeMode::Inert) {
        ScopeMode::Replay { trace, cursor } => {
            // The per-spawn untraced check cannot see out-of-band spawns
            // that landed after the last replayed submission; they taint
            // `prev` for *future* replays (this scope's edges are fine).
            let tainted = cache.untraced_spawns.load(Ordering::Acquire) != scope.untraced_at_start;
            if cursor == trace.nodes.len() && !tainted {
                inner.stat_trace_hits.fetch_add(1, Ordering::Relaxed);
                if let Some(m) = &inner.obs_metrics {
                    m.trace_hits.inc();
                }
                emit_mark(inner, "hit", scope.key, cursor);
                scope.state.unstable = 0;
                scope.state.prev = std::mem::take(&mut scope.instance);
                // Released tasks of earlier iterations need no flush any
                // more; without this the list (and each entry's task
                // allocation) would grow for as long as the key replays.
                cache.bypassed.lock().retain(|t| t.strong_count() > 0);
            } else {
                // Fewer submissions than the trace promised.
                diverge_scope(inner, &mut scope);
            }
        }
        ScopeMode::Record => {
            // Untraced spawns that interleaved with the recording taint
            // it: their (possibly still-live) tasks are not in the
            // recorded structure.
            if cache.untraced_spawns.load(Ordering::Acquire) != scope.untraced_at_start {
                diverge_scope(inner, &mut scope);
                let mut keys = cache.keys.lock();
                keys.insert(scope.key, std::mem::take(&mut scope.state));
                return;
            }
            let nodes = std::mem::take(&mut scope.nodes);
            let stable = scope.state.last_nodes.as_ref() == Some(&nodes);
            if stable && replay_ready(&nodes) {
                scope.state.trace = Some(Arc::new(TaskTrace { nodes }));
                scope.state.last_nodes = None;
                scope.state.shadow = ShadowTable::default();
                scope.state.unstable = 0;
            } else {
                if scope.state.last_nodes.is_some() && !stable {
                    scope.state.unstable += 1;
                }
                scope.state.last_nodes = Some(nodes);
            }
            scope.state.prev = std::mem::take(&mut scope.instance);
            if scope.state.unstable >= MAX_UNSTABLE {
                scope.state.reset();
                scope.state.dormant = true;
            }
        }
        // Dormant pass-through or post-divergence tail: nothing recorded.
        ScopeMode::Inert => {}
    }
    scope.state.untraced_seen = cache.untraced_spawns.load(Ordering::Acquire);
    let mut keys = cache.keys.lock();
    keys.insert(scope.key, std::mem::take(&mut scope.state));
}

/// A frozen trace is only usable if every reference resolves during
/// replay: within the iteration itself (`delta` 0) or in the one before
/// it (`delta` 1), which `prev` keeps.
///
/// A stable recording never reaches further back. Whether a write covers
/// an entry depends on the two ranges alone, so an entry that outlived
/// one whole pass of the stream has met every access of the stream
/// uncovered and will never be dropped; if anything conflicts with it,
/// that reference's `delta` grows by one per iteration and consecutive
/// recordings differ. The check stays because replay indexes by it.
fn replay_ready(nodes: &[TraceNode]) -> bool {
    let mut preds = nodes.iter().flat_map(|n| &n.preds);
    preds.all(|&(delta, pos)| delta <= 1 && (pos as usize) < nodes.len())
}

// ---------------------------------------------------------------------------
// Spawn-path hooks.

/// Classifies a spawn before the task object exists. Replay matching and
/// divergence detection happen here; the returned route tells the
/// runtime whether to register with the claim table.
pub(crate) fn route_spawn(
    inner: &Arc<RtInner>,
    label: &str,
    priority: i32,
    accesses: &[Access],
) -> Route {
    ACTIVE.with(|a| {
        let mut slot = a.borrow_mut();
        let Some(scope) = slot.as_mut() else {
            inner.trace.untraced_spawns.fetch_add(1, Ordering::AcqRel);
            return Route::Untraced;
        };
        if scope.rt != Arc::as_ptr(inner) {
            inner.trace.untraced_spawns.fetch_add(1, Ordering::AcqRel);
            return Route::Untraced;
        }
        match &mut scope.mode {
            ScopeMode::Inert => Route::Inert,
            ScopeMode::Record => Route::Recording,
            ScopeMode::Replay { trace, cursor } => {
                // A concurrent untraced spawn may conflict with replayed
                // tasks the claim table cannot see; fall back for the
                // rest of the scope.
                if inner.trace.untraced_spawns.load(Ordering::Acquire) != scope.untraced_at_start {
                    diverge_scope(inner, scope);
                    return Route::Inert;
                }
                let node = match trace.nodes.get(*cursor) {
                    Some(node) if node.fp == fingerprint(label, priority, accesses) => node,
                    _ => {
                        // Extra submission or fingerprint mismatch.
                        diverge_scope(inner, scope);
                        return Route::Inert;
                    }
                };
                let mut preds = SuccessorList::with_capacity(node.preds.len());
                for &(delta, pos) in &node.preds {
                    let from = if delta == 0 {
                        &scope.instance
                    } else {
                        &scope.state.prev
                    };
                    let task = from.get(pos as usize);
                    match task {
                        Some(t) => preds.push(Arc::clone(t)),
                        None => {
                            diverge_scope(inner, scope);
                            return Route::Inert;
                        }
                    }
                }
                *cursor += 1;
                Route::Replay(preds)
            }
        }
    })
}

/// Installs the replayed predecessor links of `task` (claim table
/// bypassed) and registers it for flushing. Returns the number of edges
/// actually installed (released predecessors are skipped, exactly as
/// fresh registration would skip them).
pub(crate) fn install_replayed(
    inner: &Arc<RtInner>,
    task: &Arc<TaskShared>,
    preds: &[Arc<TaskShared>],
) -> usize {
    let mut edges = 0;
    for pred in preds {
        let mut links = pred.state.lock();
        if links.released {
            continue;
        }
        links.successors.push(Arc::clone(task));
        task.pending.fetch_add(1, Ordering::AcqRel);
        edges += 1;
        if let Some(bus) = obs::bus() {
            bus.emit_for_rank(
                inner.rank(),
                obs::EventData::DepEdge {
                    pred: pred.id,
                    succ: task.id,
                },
            );
        }
    }
    // Visible to flushers before the registration guard drops (the task
    // cannot release while the guard is held).
    task.bypassed.store(true, Ordering::Release);
    inner.trace.bypassed_live.fetch_add(1, Ordering::AcqRel);
    inner.trace.bypassed.lock().push(Arc::downgrade(task));
    inner.stat_replayed_tasks.fetch_add(1, Ordering::Relaxed);
    if let Some(m) = &inner.obs_metrics {
        m.replayed_tasks.inc();
    }
    ACTIVE.with(|a| {
        if let Some(scope) = a.borrow_mut().as_mut() {
            scope.instance.push(Arc::clone(task));
        }
    });
    edges
}

/// Records a freshly-analyzed spawn into the open record-mode scope
/// (shadow analysis + node + instance).
pub(crate) fn record_spawn(inner: &Arc<RtInner>, task: &Arc<TaskShared>) {
    ACTIVE.with(|a| {
        let mut slot = a.borrow_mut();
        let Some(scope) = slot.as_mut() else { return };
        if scope.rt != Arc::as_ptr(inner) || !matches!(scope.mode, ScopeMode::Record) {
            return;
        }
        let pos = scope.instance.len() as u32;
        let preds = analyze(
            &mut scope.state.shadow,
            scope.state.iter,
            pos,
            &task.accesses,
        );
        scope.nodes.push(TraceNode {
            fp: fingerprint(task.label, task.priority, &task.accesses),
            preds,
        });
        scope.instance.push(Arc::clone(task));
    });
}

/// Marks the open scope diverged: flushes bypassed tasks into the claim
/// table and resets the key so it re-records from scratch.
fn diverge_scope(inner: &Arc<RtInner>, scope: &mut ActiveScope) {
    scope.mode = ScopeMode::Inert;
    // Divergences count toward dormancy too: a stream that freezes and
    // then keeps diverging must not thrash record/replay forever.
    let unstable = scope.state.unstable + 1;
    scope.state.reset();
    scope.state.unstable = unstable;
    scope.state.dormant = unstable >= MAX_UNSTABLE;
    scope.instance.clear();
    scope.nodes.clear();
    flush_bypassed(inner);
    inner.stat_trace_divergences.fetch_add(1, Ordering::Relaxed);
    if let Some(m) = &inner.obs_metrics {
        m.trace_divergences.inc();
    }
    emit_mark(inner, "divergence", scope.key, 0);
}

// ---------------------------------------------------------------------------
// Bypassed-task flush.

/// Inserts every live bypassed (replayed) task into the claim table so
/// fresh analysis can see it. Runs before any fresh registration while
/// bypassed tasks are live, and on divergence/invalidation. A task that
/// releases concurrently is removed again afterwards — removal is
/// idempotent — so no orphan entries survive.
pub(crate) fn flush_bypassed(inner: &RtInner) {
    if inner.trace.bypassed_live.load(Ordering::Acquire) != 0 {
        drain_bypassed(inner);
    }
}

/// The flush proper; also empties the list of its dead references.
fn drain_bypassed(inner: &RtInner) {
    let list = std::mem::take(&mut *inner.trace.bypassed.lock());
    for weak in list {
        let Some(task) = weak.upgrade() else { continue };
        if !task.bypassed.swap(false, Ordering::AcqRel) {
            continue; // released (or flushed by a racing flusher) already
        }
        inner.trace.bypassed_live.fetch_sub(1, Ordering::AcqRel);
        inner.registry.insert_entries(&task);
        // Releases observed from here on remove the entries themselves;
        // a release that won the race against the insert is cleaned up
        // now.
        if task.state.lock().released {
            inner.registry.remove_task(&task);
        }
    }
}

/// Release-path hook: forget a bypassed task that is going away.
pub(crate) fn released_bypassed(inner: &RtInner, task: &TaskShared) {
    if task.bypassed.swap(false, Ordering::AcqRel) {
        inner.trace.bypassed_live.fetch_sub(1, Ordering::AcqRel);
    }
}

// ---------------------------------------------------------------------------
// Invalidation.

/// Drops every cached trace of this runtime and flushes bypassed tasks.
pub(crate) fn invalidate(inner: &Arc<RtInner>) {
    let cache = &inner.trace;
    if !cache.enabled {
        return;
    }
    cache.generation.fetch_add(1, Ordering::AcqRel);
    cache.keys.lock().clear();
    drain_bypassed(inner);
    inner
        .stat_trace_invalidations
        .fetch_add(1, Ordering::Relaxed);
    if let Some(m) = &inner.obs_metrics {
        m.trace_invalidations.inc();
    }
    emit_mark(inner, "invalidate", 0, 0);
}

fn emit_mark(inner: &RtInner, kind: &'static str, key: u64, tasks: usize) {
    if let Some(bus) = obs::bus() {
        bus.emit_for_rank(
            inner.rank(),
            obs::EventData::TraceMark {
                kind,
                key,
                tasks: tasks as u32,
            },
        );
    }
}

impl crate::Runtime {
    /// Opens a trace scope for one iteration of a periodic submission
    /// stream (one AMR timestep). The first iterations after an
    /// invalidation record; once the stream stabilizes, matching
    /// iterations replay cached dependency edges without touching the
    /// claim table, falling back to fresh analysis on any divergence.
    ///
    /// Drop the returned guard when the iteration's submissions are
    /// done. Scopes must not nest on one thread.
    pub fn trace_scope(&self, key: u64) -> TraceScope<'_> {
        scope_begin(self.inner(), key);
        TraceScope { rt: self }
    }

    /// Invalidates every cached trace of this runtime. Call whenever the
    /// structural identity of the submission stream changes: regrid,
    /// load-balance/repartition.
    pub fn invalidate_traces(&self) {
        invalidate(self.inner());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::region::Region;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// What keeping a single previous iteration rests on (argued at
        /// [`replay_ready`]): once two consecutive recordings of a stream
        /// agree, no predecessor is more than one iteration back.
        #[test]
        fn stable_recordings_reach_one_iteration_back(
            specs in prop::collection::vec(
                prop::collection::vec((0u64..2, 0usize..5, 1usize..5, any::<bool>()), 1..4),
                1..7,
            ),
        ) {
            let stream: Vec<Vec<Access>> = specs
                .iter()
                .map(|task| {
                    task.iter()
                        .map(|&(obj, start, len, write)| {
                            let region = Region::new(ObjId(obj), start..start + len);
                            if write {
                                Access::write(region)
                            } else {
                                Access::read(region)
                            }
                        })
                        .collect()
                })
                .collect();
            let mut shadow = ShadowTable::default();
            let mut last = None;
            for iter in 1..=10 {
                let nodes: Vec<Vec<(u32, u32)>> = stream
                    .iter()
                    .enumerate()
                    .map(|(pos, accesses)| analyze(&mut shadow, iter, pos as u32, accesses))
                    .collect();
                if last.as_ref() == Some(&nodes) {
                    let deepest = nodes.iter().flatten().map(|&(delta, _)| delta).max();
                    prop_assert!(deepest.unwrap_or(0) <= 1, "stable at delta {deepest:?}");
                    break;
                }
                last = Some(nodes);
            }
        }
    }
}
