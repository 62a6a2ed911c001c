//! Task-graph trace & replay cache.
//!
//! Between regrids, an AMR timestep re-submits the *same* task DAG over
//! the same regions. The caller knows which submissions repeat and opens
//! a [`TraceScope`] only around those (in `miniamr` the run skeleton
//! marks a timestep traced when a neighbouring timestep of its mesh epoch
//! spawns the same stream). This module turns the second and every later
//! scope into a *re-arm* of the first: the task objects of the previous
//! iteration are reset in place and linked straight to their recorded
//! predecessors — no claim-table analysis and no allocation. A runtime
//! caches **one stream**: a vector of **slots**, one per stream position,
//! each holding the position's fingerprint and the task object of the
//! latest iteration that reached it, under the key of the scopes that
//! recorded it.
//!
//! * **Record.** A scope that finds no trace records: every spawn takes
//!   the claim-table analysis as outside a scope and is logged into its
//!   slot — `hash(label, priority, accesses)` and the task.
//! * **Close.** The next scope closes the recording, if nothing
//!   invalidated in between: three passes of the structural analysis
//!   ([`History`] tables keyed by stream position that nothing is ever
//!   retired from, so unlike the claim table's its edges do not depend on
//!   which predecessors happened to be live) over the logged access lists
//!   — a cold pass and two warm ones, the recordings of three iterations
//!   without running them. If the warm passes agree and [`replay_ready`]
//!   holds, the trace **freezes** and that scope already replays;
//!   otherwise the stream is **parked**: its scopes run inert until the
//!   next invalidation.
//! * **Re-arm.** A frozen stream **replays**: position *i* takes slot
//!   *i*'s task object, resets it under `Arc::get_mut` (or allocates a
//!   fresh one into the slot while the previous occupant is still live),
//!   and links it behind the slots its predecessor list names — lower
//!   positions already hold this iteration's tasks, positions at or above
//!   *i* still the previous iteration's — with edges to already-released
//!   predecessors skipped, exactly as fresh registration would.
//! * **Fall back.** A divergence — a fingerprint mismatch, a longer or
//!   shorter stream, an untraced spawn while the scope is open — flushes
//!   the replayed tasks into the claim table (so fresh analysis sees
//!   them), forgets the trace and runs the rest of the scope inert. The
//!   next scope records.
//!
//! A scope whose key is not the cached stream's forgets the stream and
//! records. Two keys never replay side by side: each would link its
//! tasks to its own previous iteration only, past the other key's
//! writes to the same regions.
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
//! fresh analysis never misses a conflict with a live replayed task. The
//! flush finds them in a list of strong references (a replay may push a
//! still-live task out of its slot, so the slots alone do not reach them
//! all); the list is pruned of released tasks whenever a scope begins,
//! because a reference kept there would make the slot's `get_mut` fail.

use crate::deps::History;
use crate::region::{Access, ObjId};
use crate::runtime::RtInner;
use crate::task::{Accesses, Declared, TaskBody, TaskShared};
use parking_lot::Mutex;
use std::cell::RefCell;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

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

/// Structural claim table of one close: per object, the uncovered accesses
/// of the stream so far, keyed by (pass, position within it).
type ShadowTable = HashMap<ObjId, History<(u32, u32)>>;

/// The structural predecessors of every position of one pass over a
/// stream, as `(iteration delta, position)` — delta 0 is the position's
/// own iteration, 1 the one before. Flat: position `i`'s run ends at
/// `ends[i]`.
#[derive(Default, PartialEq, Eq, Debug)]
struct Preds {
    flat: Vec<(u32, u32)>,
    ends: Vec<u32>,
}

impl Preds {
    fn of(&self, pos: usize) -> &[(u32, u32)] {
        let from = if pos == 0 { 0 } else { self.ends[pos - 1] };
        &self.flat[from as usize..self.ends[pos] as usize]
    }

    /// Records the accesses of the submission at (`pass`, next position)
    /// and appends its structural predecessors, sorted and deduplicated.
    fn analyze(&mut self, shadow: &mut ShadowTable, pass: u32, accesses: &[Access]) {
        let pos = self.ends.len() as u32;
        let from = self.flat.len();
        for a in accesses {
            shadow
                .entry(a.region.obj)
                .or_default()
                .record((pass, pos), a, |&(i, p)| self.flat.push((pass - i, p)));
        }
        self.flat[from..].sort();
        let mut kept = from;
        for i in from..self.flat.len() {
            if i == from || self.flat[i] != self.flat[kept - 1] {
                self.flat[kept] = self.flat[i];
                kept += 1;
            }
        }
        self.flat.truncate(kept);
        self.ends.push(kept as u32);
    }
}

/// Closes a logged stream symbolically: a cold pass and two warm passes
/// of the structural analysis over its access lists — what recording
/// three iterations of it would have produced. `Some` iff the warm passes
/// agree (the stream is stable) and the result can be replayed.
fn close_stream<'a>(stream: impl Iterator<Item = &'a [Access]> + Clone) -> Option<Preds> {
    let mut shadow = ShadowTable::default();
    let mut pass = |n: u32| {
        let mut preds = Preds::default();
        for accesses in stream.clone() {
            preds.analyze(&mut shadow, n, accesses);
        }
        preds
    };
    pass(1);
    let warm = pass(2);
    let again = pass(3);
    (warm == again && replay_ready(&again)).then_some(again)
}

/// A frozen trace is only usable if every reference resolves in the slot
/// vector *while it is being replayed*: at position `i`, the slots below
/// `i` hold this iteration's tasks and the slots from `i` up still hold
/// the previous iteration's. So a `delta` 0 predecessor must sit at a
/// lower position (it always does: it was submitted earlier), a `delta` 1
/// predecessor at the same or a higher one, and nothing may reach further
/// back.
///
/// A stable stream satisfies all of it (the **slot-order lemma**).
/// Whether a write covers an entry depends on the two ranges alone. An
/// entry at position `q` that a later iteration's position `p ≥ q` … `p`
/// sees from two iterations back, or that position `p > q` sees from the
/// previous iteration, has met every access of the stream once — the
/// positions after `q` in its own iteration, the ones up to `p` in the
/// next — and none covered it; none ever will, so the same conflict shows
/// up one `delta` deeper every iteration and the warm passes differ. Put
/// the other way round: a surviving earlier-position entry would have been
/// covered one iteration sooner. The check stays because replay indexes
/// by it.
fn replay_ready(preds: &Preds) -> bool {
    let n = preds.ends.len();
    (0..n).all(|pos| {
        preds.of(pos).iter().all(|&(delta, p)| match delta {
            0 => (p as usize) < pos,
            1 => (pos..n).contains(&(p as usize)),
            _ => false,
        })
    })
}

/// One stream position.
struct Slot {
    fp: u64,
    /// The task of the latest iteration that reached this position.
    task: Arc<TaskShared>,
}

/// How far the stream has come since its last invalidation.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
enum Stage {
    /// Nothing usable: the next scope records.
    #[default]
    Empty,
    /// The slots hold one whole recording: the next scope closes it.
    Logged,
    /// Closed: `preds` is the trace, scopes replay.
    Frozen,
    /// The close failed: scopes run inert until the next invalidation.
    Parked,
}

/// The runtime's one cached stream (checked out into the active scope's
/// thread local while a scope is open, so spawns touch no locks).
#[derive(Default)]
struct KeyState {
    /// The key of the scopes that recorded the stream.
    key: u64,
    slots: Vec<Slot>,
    /// The frozen trace: every position's structural predecessors.
    preds: Preds,
    stage: Stage,
    /// Untraced-spawn counter at the end of the last scope. A change by
    /// the next scope means out-of-band tasks were spawned in between;
    /// they may still be live yet are in no slot, so the stream cannot be
    /// built on any more.
    untraced_seen: u64,
}

impl KeyState {
    /// Lets go of the recorded stream (and of every task it holds).
    fn forget(&mut self, stage: Stage) {
        self.slots.clear();
        self.preds = Preds::default();
        self.stage = stage;
    }
}

/// Per-runtime trace cache, embedded in `RtInner`.
pub(crate) struct TraceCache {
    /// Replay enabled ([`crate::RuntimeConfig::replay`]); when false the
    /// whole machinery is inert and scopes are no-ops.
    pub(crate) enabled: bool,
    stream: Mutex<KeyState>,
    generation: AtomicU64,
    /// Replayed tasks since the last scope began: every live task absent
    /// from the claim table is in here (see the module docs).
    bypassed: Mutex<Vec<Arc<TaskShared>>>,
    pub(crate) bypassed_live: AtomicUsize,
    /// Spawns that went through fresh analysis outside the active scope
    /// (divergence guard for concurrent submitters).
    untraced_spawns: AtomicU64,
}

impl TraceCache {
    pub(crate) fn new(enabled: bool) -> TraceCache {
        TraceCache {
            enabled,
            stream: Mutex::default(),
            generation: AtomicU64::new(0),
            bypassed: Mutex::new(Vec::new()),
            bypassed_live: AtomicUsize::new(0),
            untraced_spawns: AtomicU64::new(0),
        }
    }

    /// Drops every task reference the cache holds. The slots and the
    /// flush list hold `Arc<TaskShared>`s, and every task holds its
    /// runtime: left alone, the cycle keeps the runtime and everything it
    /// ever traced alive.
    pub(crate) fn clear(&self) {
        *self.stream.lock() = KeyState::default();
        self.bypassed.lock().clear();
    }
}

// ---------------------------------------------------------------------------
// The active scope (thread-local: all scope-path work is lock-free).

enum ScopeMode {
    /// Logging every spawn into the next slot.
    Record,
    /// Re-arming the frozen trace from slot `cursor` on.
    Replay { cursor: usize },
    /// Parked stream or fallen-back scope: spawns take the fresh path
    /// unlogged.
    Inert,
}

struct ActiveScope {
    /// Identity of the runtime the scope belongs to (`Arc::as_ptr`).
    rt: *const RtInner,
    generation: u64,
    untraced_at_start: u64,
    mode: ScopeMode,
    state: KeyState,
}

thread_local! {
    static ACTIVE: RefCell<Option<ActiveScope>> = const { RefCell::new(None) };
}

/// Runs `f` on the scope this thread has open on `inner`, if any.
fn with_scope<R>(inner: &Arc<RtInner>, f: impl FnOnce(&mut ActiveScope) -> R) -> Option<R> {
    ACTIVE.with(|a| {
        let mut slot = a.borrow_mut();
        let scope = slot.as_mut().filter(|s| s.rt == Arc::as_ptr(inner))?;
        Some(f(scope))
    })
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
    /// Scope is inert: fresh analysis, not counted.
    Inert,
    /// Recording: fresh analysis, then [`record_spawn`] logs the task.
    Recording,
    /// The spawn matches the frozen trace at the cursor:
    /// [`replay_spawn`] re-arms that slot and the claim table is skipped.
    Replay,
}

// ---------------------------------------------------------------------------
// Scope lifecycle.

pub(crate) fn scope_begin(inner: &Arc<RtInner>, key: u64) {
    let cache = &inner.trace;
    if !cache.enabled {
        return;
    }
    let mut state = std::mem::take(&mut *cache.stream.lock());
    // Another key's stream, or out-of-band spawns since the last scope
    // (neither a frozen trace nor a recording covers them): start over.
    // A parked stream stays parked until the next invalidation.
    let untraced_now = cache.untraced_spawns.load(Ordering::Acquire);
    if state.key != key || (untraced_now != state.untraced_seen && state.stage != Stage::Parked) {
        state.forget(Stage::Empty);
        state.key = key;
    }
    // Released tasks need no flush any more, and a reference kept here
    // would stop their slot from re-arming them.
    cache
        .bypassed
        .lock()
        .retain(|t| t.bypassed.load(Ordering::Acquire));
    let mode = match state.stage {
        // Close here rather than where the recording ended: a stream that
        // is invalidated before its next scope (a regrid every timestep)
        // never pays for a close.
        Stage::Logged => close(inner, &mut state),
        Stage::Frozen => ScopeMode::Replay { cursor: 0 },
        Stage::Parked => ScopeMode::Inert,
        Stage::Empty => {
            inner.stat_trace_records.fetch_add(1, Ordering::Relaxed);
            emit_mark(inner, "record", key, 0);
            ScopeMode::Record
        }
    };
    let scope = ActiveScope {
        rt: Arc::as_ptr(inner),
        generation: cache.generation.load(Ordering::Acquire),
        untraced_at_start: untraced_now,
        mode,
        state,
    };
    ACTIVE.with(|a| {
        let mut slot = a.borrow_mut();
        assert!(slot.is_none(), "trace scopes must not nest on one thread");
        *slot = Some(scope);
    });
}

/// Freezes the logged stream, or parks it if it is not stable. Returns
/// how the scope that closed it goes on: replaying, or inert.
fn close(inner: &RtInner, state: &mut KeyState) -> ScopeMode {
    inner.stat_trace_closes.fetch_add(1, Ordering::Relaxed);
    let mode = match close_stream(state.slots.iter().map(|s| &s.task.accesses[..])) {
        Some(preds) => {
            state.preds = preds;
            state.stage = Stage::Frozen;
            inner.stat_trace_freezes.fetch_add(1, Ordering::Relaxed);
            ScopeMode::Replay { cursor: 0 }
        }
        None => {
            state.forget(Stage::Parked);
            ScopeMode::Inert
        }
    };
    // A close that parked the stream froze no task.
    emit_mark(inner, "close", state.key, state.slots.len());
    mode
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
    // The per-spawn untraced check cannot see out-of-band spawns that
    // landed after the scope's last submission. Their (possibly still
    // live) tasks are in no slot: a recording is unusable, a replayed
    // iteration (whose own edges are fine) no base for the next.
    let tainted = cache.untraced_spawns.load(Ordering::Acquire) != scope.untraced_at_start;
    match scope.mode {
        ScopeMode::Inert => {}
        _ if tainted => diverge_scope(inner, &mut scope),
        ScopeMode::Replay { cursor } if cursor == scope.state.slots.len() => {
            inner.stat_trace_hits.fetch_add(1, Ordering::Relaxed);
            emit_mark(inner, "hit", scope.state.key, cursor);
        }
        // Fewer submissions than the trace promised.
        ScopeMode::Replay { .. } => diverge_scope(inner, &mut scope),
        ScopeMode::Record => scope.state.stage = Stage::Logged,
    }
    scope.state.untraced_seen = cache.untraced_spawns.load(Ordering::Acquire);
    *cache.stream.lock() = scope.state;
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
    let route = with_scope(inner, |scope| match scope.mode {
        ScopeMode::Inert => Route::Inert,
        ScopeMode::Record => Route::Recording,
        ScopeMode::Replay { cursor } => {
            // A concurrent untraced spawn may conflict with replayed
            // tasks the claim table cannot see; so may an extra spawn or
            // a fingerprint mismatch with what the slots run next.
            let untraced = inner.trace.untraced_spawns.load(Ordering::Acquire);
            let expected = scope.state.slots.get(cursor).map(|slot| slot.fp);
            if untraced == scope.untraced_at_start
                && expected == Some(fingerprint(label, priority, accesses))
            {
                Route::Replay
            } else {
                diverge_scope(inner, scope);
                Route::Inert
            }
        }
    });
    route.unwrap_or_else(|| {
        inner.trace.untraced_spawns.fetch_add(1, Ordering::AcqRel);
        Route::Untraced
    })
}

/// Replays the slot at the cursor for a spawn [`route_spawn`] matched to
/// it, with the spawn's own declaration and body. Returns the task's
/// depsan id.
pub(crate) fn replay_spawn(
    inner: &Arc<RtInner>,
    label: &'static str,
    priority: i32,
    accesses: Declared,
    body: TaskBody,
) -> u64 {
    with_scope(inner, |scope| {
        // Invariant (both panics): `spawn_boxed` calls this right after
        // `route_spawn` returned `Replay` on the same thread, which it
        // does only for this runtime's open scope in replay mode, and
        // nothing in between closes the scope or changes its mode.
        let ScopeMode::Replay { cursor } = &mut scope.mode else {
            unreachable!("route_spawn matched a replaying scope");
        };
        let spawn = (label, priority, accesses, body);
        let mut flush_list = inner.trace.bypassed.lock();
        let san_id = replay_slot(inner, &mut scope.state, *cursor, spawn, &mut flush_list);
        *cursor += 1;
        san_id
    })
    .expect("route_spawn matched an open scope")
}

/// Replays position `pos` of the frozen stream: re-arms the slot's task
/// object — or, while its previous occupant is still referenced from
/// anywhere, allocates a fresh one into the slot — links it behind the
/// position's recorded predecessors (claim table bypassed, released
/// predecessors skipped exactly as fresh registration would skip them),
/// registers it for flushing (in `flush_list`, the cache's, locked by the
/// caller) and launches it, with the declaration, body and on-ready gate
/// of `spawn`, whose fingerprint matched the slot's (the gate runs anew
/// once the re-armed task's predecessors release). Returns the task's
/// depsan id.
fn replay_slot(
    inner: &Arc<RtInner>,
    state: &mut KeyState,
    pos: usize,
    (label, priority, accesses, body): (&'static str, i32, Declared, TaskBody),
    flush_list: &mut Vec<Arc<TaskShared>>,
) -> u64 {
    let KeyState { slots, preds, .. } = state;
    let preds = preds.of(pos);
    // The sanitizer re-checks the predecessor set about to be enforced
    // against the declared accesses; the ids are read before the slot's
    // own previous occupant (a possible predecessor) is reset.
    let san_id = if inner.san_rt != 0 {
        let pred_ids: Vec<u64> = (preds.iter())
            .map(|&(_, p)| slots[p as usize].task.san_id)
            .filter(|&s| s != 0)
            .collect();
        inner.san_spawned(label, &accesses, Some(&pred_ids))
    } else {
        0
    };
    let id = inner.next_task_id();
    let slot = &mut slots[pos].task;
    // `get_mut` succeeds iff no other strong or weak reference exists:
    // the previous occupant has released and been forgotten by the
    // scheduler, by every successor list, by its event holds and by the
    // flush list.
    let displaced = match Arc::get_mut(slot) {
        Some(task) => {
            task.rearm(id, san_id);
            (task.label, task.priority) = (label, priority);
            task.accesses = redeclare(&task.accesses, accesses);
            task.body = body;
            inner.stat_rearmed_tasks.fetch_add(1, Ordering::Relaxed);
            None
        }
        None => {
            let accesses = redeclare(&slot.accesses, accesses);
            let fresh = inner.new_task(id, san_id, priority, label, accesses, body);
            Some(std::mem::replace(slot, fresh))
        }
    };
    let task = &slots[pos].task;
    inner.task_born(task);
    let mut edges = 0;
    for &(_, p) in preds {
        // The slot order (`replay_ready`): lower slots hold this
        // iteration's tasks, higher ones the previous iteration's, and
        // this position's previous occupant — a predecessor when one
        // stream position conflicts with itself across iterations — is
        // either displaced or, re-armed in place, long released.
        let pred = match (p as usize == pos, &displaced) {
            (false, _) => &slots[p as usize].task,
            (true, Some(old)) => old,
            (true, None) => continue,
        };
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
    flush_list.push(Arc::clone(task));
    inner.stat_replayed_tasks.fetch_add(1, Ordering::Relaxed);
    inner.launch(task, edges, true);
    san_id
}

/// The accesses a replayed spawn declared, as the shared list its task
/// object keeps: the slot's own when a listed declaration repeats it (as it
/// does whenever the fingerprints matched), so such a replay copies none.
fn redeclare(slot: &Accesses, declared: Declared) -> Accesses {
    match declared {
        Declared::Listed(list) if list[..] == slot[..] => Arc::clone(slot),
        declared => declared.into_shared(),
    }
}

/// Logs a freshly-analyzed spawn into the open record-mode scope.
pub(crate) fn record_spawn(inner: &Arc<RtInner>, task: &Arc<TaskShared>) {
    with_scope(inner, |scope| {
        if let ScopeMode::Record = scope.mode {
            scope.state.slots.push(Slot {
                fp: fingerprint(task.label, task.priority, &task.accesses),
                task: Arc::clone(task),
            });
        }
    });
}

/// The scope's stream left the frozen trace, or an untraced spawn landed
/// while it was open: whatever the scope replayed or logged cannot be
/// built on. The replayed tasks are flushed into the claim table, the
/// trace is forgotten and the rest of the scope takes the fresh path
/// unlogged; the next scope records.
fn diverge_scope(inner: &Arc<RtInner>, scope: &mut ActiveScope) {
    scope.mode = ScopeMode::Inert;
    scope.state.forget(Stage::Empty);
    flush_bypassed(inner);
    inner.stat_trace_divergences.fetch_add(1, Ordering::Relaxed);
    emit_mark(inner, "divergence", scope.state.key, 0);
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

/// The flush proper; also empties the list.
fn drain_bypassed(inner: &RtInner) {
    let list = std::mem::take(&mut *inner.trace.bypassed.lock());
    for task in list {
        if !task.bypassed.swap(false, Ordering::AcqRel) {
            continue; // released (or flushed by a racing flusher) already
        }
        inner.trace.bypassed_live.fetch_sub(1, Ordering::AcqRel);
        inner.registry.insert_entries(&task);
        // Releases that find `bypassed` clear remove the entries
        // themselves; one that had already looked is cleaned up now (the
        // interleavings are spelled out in `TaskShared::release`).
        if task.state.lock().released {
            inner.registry.remove_task(&task);
        }
    }
}

/// Release-path hook: forgets a bypassed task that is going away. True
/// if it still was one, i.e. no flush has put it into the claim table.
pub(crate) fn released_bypassed(inner: &RtInner, task: &TaskShared) -> bool {
    let bypassed = task.bypassed.swap(false, Ordering::AcqRel);
    if bypassed {
        inner.trace.bypassed_live.fetch_sub(1, Ordering::AcqRel);
    }
    bypassed
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
    *cache.stream.lock() = KeyState::default();
    drain_bypassed(inner);
    inner
        .stat_trace_invalidations
        .fetch_add(1, Ordering::Relaxed);
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
    /// stream (one AMR timestep) under `key`. The first scope after an
    /// invalidation, a divergence or a scope of another key records; the
    /// next closes that recording, and from then on matching iterations
    /// re-arm the recorded tasks without touching the claim table,
    /// falling back to fresh analysis on any divergence.
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
    use crate::Runtime;
    use proptest::prelude::*;

    fn accesses(task: &[(u64, usize, usize, bool)]) -> Vec<Access> {
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
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// What re-arming in one slot vector rests on (argued at
        /// [`replay_ready`]): once two consecutive passes over a stream
        /// agree, no predecessor is more than one iteration back, and one
        /// that is one iteration back sits at the same or a higher
        /// position.
        #[test]
        fn stable_recordings_reach_one_iteration_back(
            specs in prop::collection::vec(
                prop::collection::vec((0u64..2, 0usize..5, 1usize..5, any::<bool>()), 1..4),
                1..7,
            ),
        ) {
            let stream: Vec<Vec<Access>> = specs.iter().map(|task| accesses(task)).collect();
            let mut shadow = ShadowTable::default();
            let mut last = None;
            for pass in 1..=10 {
                let mut preds = Preds::default();
                for task in &stream {
                    preds.analyze(&mut shadow, pass, task);
                }
                if last.as_ref() == Some(&preds) {
                    for pos in 0..stream.len() {
                        for &(delta, p) in preds.of(pos) {
                            prop_assert!(delta <= 1, "stable at delta {delta}");
                            prop_assert!(
                                if delta == 0 { (p as usize) < pos } else { p as usize >= pos },
                                "position {pos} waits for ({delta}, {p})"
                            );
                        }
                    }
                    prop_assert!(replay_ready(&preds));
                    break;
                }
                last = Some(preds);
            }
        }
    }

    /// One traced iteration of `stream` (empty bodies), drained.
    fn iterate(rt: &Runtime, stream: &[Vec<Access>]) {
        let scope = rt.trace_scope(1);
        for task in stream {
            rt.task().accesses(task.iter().cloned()).body(|| {}).spawn();
        }
        drop(scope);
        rt.taskwait();
    }

    /// A read that no write of the stream covers is seen from one
    /// iteration further back by every pass: the warm passes differ, the
    /// one close parks the stream and nothing is closed or recorded again
    /// until an invalidation.
    #[test]
    fn a_stream_that_never_settles_parks_after_one_close() {
        let stream = [accesses(&[(7, 0, 2, false)]), accesses(&[(7, 0, 1, true)])];
        let rt = Runtime::new(1);
        for _ in 0..5 {
            iterate(&rt, &stream);
        }
        let s = rt.stats();
        assert_eq!((s.trace_closes, s.trace_freezes), (1, 0), "{s:?}");
        assert_eq!((s.trace_records, s.trace_hits), (1, 0), "{s:?}");
        rt.invalidate_traces();
        iterate(&rt, &stream);
        iterate(&rt, &stream);
        let s = rt.stats();
        assert_eq!((s.trace_closes, s.trace_records), (2, 2), "{s:?}");
    }

    /// A divergence forgets the trace and runs the rest of its scope
    /// inert; the next scope records the new stream, and the scope after
    /// it closes that recording and replays it.
    #[test]
    fn a_divergence_records_at_the_next_scope() {
        let a = [accesses(&[(8, 0, 4, true)]), accesses(&[(8, 0, 2, true)])];
        let b = [accesses(&[(8, 0, 4, true)]), accesses(&[(8, 2, 2, true)])];
        let rt = Runtime::new(1);
        let counts = |rt: &Runtime| {
            let s = rt.stats();
            let counts = [s.trace_records, s.trace_closes, s.trace_hits];
            (counts, s.trace_divergences, s.replayed_tasks)
        };
        iterate(&rt, &a);
        iterate(&rt, &a);
        assert_eq!(counts(&rt), ([1, 1, 1], 0, 2));
        // `b` leaves the trace at its second task.
        iterate(&rt, &b);
        assert_eq!(counts(&rt), ([1, 1, 1], 1, 3));
        iterate(&rt, &b);
        assert_eq!(counts(&rt), ([2, 1, 1], 1, 3));
        iterate(&rt, &b);
        assert_eq!(counts(&rt), ([2, 2, 2], 1, 5));
        assert_eq!(rt.stats().trace_freezes, 2);
    }
}
