//! Task-graph trace & replay cache.
//!
//! Between regrids, an AMR timestep re-submits the *same* task DAG over
//! the same regions. This module turns the second and every later
//! submission of such a stream into a *re-arm* of the first: the task
//! objects of the previous iteration are reset in place and linked
//! straight to their recorded predecessors — no claim-table analysis, no
//! allocation and, with [`crate::Runtime::replay_tasks`], no elaboration
//! by the submitter. One structure carries it: a per-key vector of
//! **slots**, one per stream position, each holding the position's
//! fingerprint and the task object of the latest iteration that reached
//! it.
//!
//! * **Log.** A [`TraceScope`] (opened by the driver around one
//!   iteration's submissions) that finds no frozen trace *records*: every
//!   spawn takes the claim-table analysis as outside a scope and is logged
//!   into its slot — `hash(label, priority, accesses)` and the task.
//! * **Close.** When the key's next scope begins and nothing invalidated
//!   in between, the logged stream is closed symbolically: three passes of
//!   the structural analysis ([`History`] tables keyed by stream position
//!   that nothing is ever retired from, so unlike the claim table's its
//!   edges do not depend on which predecessors happened to be live) over
//!   the logged access lists — a cold pass and two warm ones, the
//!   recordings of three iterations without running them. If the warm
//!   passes agree and [`replay_ready`] holds, the trace **freezes**;
//!   otherwise the key is parked until the next invalidation. Closing
//!   after one recording bets that the stream repeats; a key that lost
//!   the bet ([`KeyState::optimistic`]) needs two recordings with equal
//!   fingerprints before its next close.
//! * **Re-arm.** A frozen key **replays**: position *i* takes slot *i*'s
//!   task object, resets it under `Arc::get_mut` (or allocates a fresh one
//!   into the slot while the previous occupant is still live), and links
//!   it behind the slots its predecessor list names — lower positions
//!   already hold this iteration's tasks, positions at or above *i* still
//!   the previous iteration's — with edges to already-released
//!   predecessors skipped, exactly as fresh registration would.
//! * Any divergence — a fingerprint mismatch, a longer or shorter stream,
//!   a concurrent untraced spawn — **falls back** transparently: live
//!   replayed tasks are flushed into the claim table (so fresh analysis
//!   sees them) and the rest of the scope is logged as a recording.
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
use crate::task::{AccessList, TaskBody, TaskShared};
use parking_lot::Mutex;
use std::cell::RefCell;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

/// After this many consecutive scopes that diverged or failed to repeat
/// the recording before them, the key is parked (no more recording) until
/// the next invalidation: a non-periodic stream would otherwise be logged
/// and compared forever without ever replaying.
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
        self.flat[from..].sort_unstable();
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

/// One stream position of a key.
struct Slot {
    fp: u64,
    /// The task of the latest iteration that reached this position.
    task: Arc<TaskShared>,
}

/// How far a key has come since its last invalidation.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Stage {
    /// Nothing usable: the next scope records.
    Empty,
    /// The slots hold one whole recording; `repeated` if it matched the
    /// recording before it fingerprint by fingerprint.
    Logged { repeated: bool },
    /// Closed: `preds` is the trace, scopes replay.
    Frozen,
    /// No recording until the next invalidation: the close failed, or the
    /// stream kept changing.
    Parked,
}

/// Per-key cache state (checked out into the active scope's thread
/// local while a scope is open, so spawns touch no locks).
struct KeyState {
    slots: Vec<Slot>,
    /// The frozen trace: every position's structural predecessors.
    preds: Preds,
    stage: Stage,
    /// Whether one recording is enough to close. Cleared when a replay
    /// diverges (the stream did not repeat after all), set again by the
    /// next full hit; survives invalidation, because a stream that
    /// alternates shapes does so in every mesh epoch.
    optimistic: bool,
    /// Consecutive scopes that diverged or did not repeat.
    unstable: u32,
    /// Untraced-spawn counter at the end of the key's last scope. A
    /// change by the next scope means out-of-band tasks were spawned in
    /// between; they may still be live yet are in no slot, so the key's
    /// history cannot be trusted any more.
    untraced_seen: u64,
}

impl Default for KeyState {
    fn default() -> KeyState {
        KeyState {
            slots: Vec::new(),
            preds: Preds::default(),
            stage: Stage::Empty,
            optimistic: true,
            unstable: 0,
            untraced_seen: 0,
        }
    }
}

impl KeyState {
    /// Lets go of the recorded stream (and of every task it holds).
    fn forget(&mut self, stage: Stage) {
        self.slots.clear();
        self.preds = Preds::default();
        self.stage = stage;
    }

    /// Counts one scope that did not repeat; parks the key at the limit.
    /// Returns whether it is parked now.
    fn strike(&mut self) -> bool {
        self.unstable += 1;
        if self.unstable >= MAX_UNSTABLE {
            self.forget(Stage::Parked);
        }
        self.stage == Stage::Parked
    }
}

/// Per-runtime trace cache, embedded in `RtInner`.
pub(crate) struct TraceCache {
    /// Replay enabled ([`crate::RuntimeConfig::replay`]); when false the
    /// whole machinery is inert and scopes are no-ops.
    pub(crate) enabled: bool,
    keys: Mutex<HashMap<u64, KeyState>>,
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
            keys: Mutex::new(HashMap::new()),
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
        self.keys.lock().clear();
        self.bypassed.lock().clear();
    }
}

// ---------------------------------------------------------------------------
// The active scope (thread-local: all scope-path work is lock-free).

enum ScopeMode {
    /// Logging: `pos` tasks so far, which `same` says all matched the
    /// fingerprints of the recording already in the slots.
    Record { pos: usize, same: bool },
    /// Re-arming the frozen trace from slot `cursor` on.
    Replay { cursor: usize },
    /// Parked key or tainted scope: spawns take the fresh path unlogged.
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
    let mut state = {
        let mut keys = cache.keys.lock();
        keys.remove(&key).unwrap_or_default()
    };
    // Out-of-band spawns since the key's last scope: neither a frozen
    // trace nor the recording covers them, so start the key over (counts
    // toward parking, like a divergence).
    let untraced_now = cache.untraced_spawns.load(Ordering::Acquire);
    if untraced_now != state.untraced_seen {
        if matches!(state.stage, Stage::Logged { .. } | Stage::Frozen) {
            state.forget(Stage::Empty);
            state.strike();
        }
        state.untraced_seen = untraced_now;
    }
    // Released tasks need no flush any more, and a reference kept here
    // would stop their slot from re-arming them.
    cache
        .bypassed
        .lock()
        .retain(|t| t.bypassed.load(Ordering::Acquire));
    // Close here rather than where the recording ended: a stream that is
    // invalidated before its next scope (a regrid every timestep) never
    // pays for a close.
    if let Stage::Logged { repeated } = state.stage {
        if state.optimistic || repeated {
            close(inner, key, &mut state);
        }
    }
    let mode = match state.stage {
        Stage::Frozen => ScopeMode::Replay { cursor: 0 },
        Stage::Parked => ScopeMode::Inert,
        Stage::Empty | Stage::Logged { .. } => {
            inner.stat_trace_records.fetch_add(1, Ordering::Relaxed);
            emit_mark(inner, "record", key, state.slots.len());
            ScopeMode::Record {
                pos: 0,
                same: matches!(state.stage, Stage::Logged { .. }),
            }
        }
    };
    let scope = ActiveScope {
        rt: Arc::as_ptr(inner),
        key,
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

/// Freezes the key's logged stream, or parks the key if the stream is
/// not stable.
fn close(inner: &RtInner, key: u64, state: &mut KeyState) {
    inner.stat_trace_closes.fetch_add(1, Ordering::Relaxed);
    match close_stream(state.slots.iter().map(|s| &s.task.accesses[..])) {
        Some(preds) => {
            state.preds = preds;
            state.stage = Stage::Frozen;
            inner.stat_trace_freezes.fetch_add(1, Ordering::Relaxed);
        }
        None => state.forget(Stage::Parked),
    }
    // A close that parked the key froze no task.
    emit_mark(inner, "close", key, state.slots.len());
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
    if tainted && !matches!(scope.mode, ScopeMode::Inert) {
        taint_scope(inner, &mut scope);
    }
    match scope.mode {
        ScopeMode::Replay { cursor } if cursor == scope.state.slots.len() => {
            inner.stat_trace_hits.fetch_add(1, Ordering::Relaxed);
            emit_mark(inner, "hit", scope.key, cursor);
            scope.state.unstable = 0;
            scope.state.optimistic = true;
        }
        ScopeMode::Replay { cursor } => {
            // Fewer submissions than the trace promised: the shorter
            // stream is what was recorded.
            if !diverge_scope(inner, &mut scope, cursor) {
                end_recording(&mut scope.state, cursor, false);
            }
        }
        ScopeMode::Record { pos, same } => end_recording(&mut scope.state, pos, same),
        // Parked pass-through or tainted scope: nothing recorded.
        ScopeMode::Inert => {}
    }
    scope.state.untraced_seen = cache.untraced_spawns.load(Ordering::Acquire);
    let mut keys = cache.keys.lock();
    keys.insert(scope.key, scope.state);
}

/// The scope logged `pos` tasks, which `same` says matched the recording
/// that was in the slots: they are the key's recording now.
fn end_recording(state: &mut KeyState, pos: usize, same: bool) {
    let repeated = same && pos == state.slots.len();
    state.slots.truncate(pos);
    let followed_one = matches!(state.stage, Stage::Logged { .. });
    state.stage = Stage::Logged { repeated };
    if followed_one && !repeated {
        state.strike();
    }
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
        ScopeMode::Record { .. } => Route::Recording,
        ScopeMode::Replay { cursor } => {
            // A concurrent untraced spawn may conflict with replayed
            // tasks the claim table cannot see; fall back for the rest
            // of the scope.
            if inner.trace.untraced_spawns.load(Ordering::Acquire) != scope.untraced_at_start {
                taint_scope(inner, scope);
                return Route::Inert;
            }
            let expected = scope.state.slots.get(cursor).map(|slot| slot.fp);
            if expected == Some(fingerprint(label, priority, accesses)) {
                Route::Replay
            } else if diverge_scope(inner, scope, cursor) {
                Route::Inert
            } else {
                // Extra submission or fingerprint mismatch: this one and
                // the rest of the scope are recorded.
                Route::Recording
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
    accesses: AccessList,
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
        let spawn = Some((label, priority, accesses, body));
        let mut flush_list = inner.trace.bypassed.lock();
        let san_id = replay_slot(inner, &mut scope.state, *cursor, spawn, &mut flush_list);
        *cursor += 1;
        san_id
    })
    .expect("route_spawn matched an open scope")
}

/// [`crate::Runtime::replay_tasks`].
pub(crate) fn replay_tasks(inner: &Arc<RtInner>, start: usize, n: usize) -> bool {
    let cache = &inner.trace;
    let replayed = with_scope(inner, |scope| {
        let ScopeMode::Replay { cursor } = &mut scope.mode else {
            return false;
        };
        if *cursor != start
            || cache.untraced_spawns.load(Ordering::Acquire) != scope.untraced_at_start
        {
            return false;
        }
        match scope.state.slots.get(start..start + n) {
            Some(run) if run.iter().all(|s| s.task.body.rerunnable()) => {}
            _ => return false,
        }
        // One lock for the batch: a flusher on another thread waits for
        // it and then finds every task launched here in the list.
        let mut flush_list = cache.bypassed.lock();
        for pos in start..start + n {
            replay_slot(inner, &mut scope.state, pos, None, &mut flush_list);
        }
        *cursor += n;
        true
    });
    replayed.unwrap_or(false)
}

/// [`crate::Runtime::trace_position`].
pub(crate) fn position(inner: &Arc<RtInner>) -> Option<usize> {
    with_scope(inner, |scope| match scope.mode {
        ScopeMode::Record { pos, .. } => Some(pos),
        ScopeMode::Replay { cursor } => Some(cursor),
        ScopeMode::Inert => None,
    })?
}

/// Replays position `pos` of a frozen key: re-arms the slot's task object
/// — or, while its previous occupant is still referenced from anywhere,
/// allocates a fresh one into the slot — links it behind the position's
/// recorded predecessors (claim table bypassed, released predecessors
/// skipped exactly as fresh registration would skip them), registers it
/// for flushing (in `flush_list`, the cache's, locked by the caller) and
/// launches it. `spawn` is the declaration and body of a spawn that
/// matched the slot's fingerprint; without one the slot's own re-runnable
/// body runs again, behind its own on-ready gate if it has one (the gate
/// runs anew once the re-armed task's predecessors release). Returns the
/// task's depsan id.
fn replay_slot(
    inner: &Arc<RtInner>,
    state: &mut KeyState,
    pos: usize,
    spawn: Option<(&'static str, i32, AccessList, TaskBody)>,
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
        let old = &slots[pos].task;
        let (label, accesses) = match &spawn {
            Some((label, _, accesses, _)) => (*label, &accesses[..]),
            None => (old.label, &old.accesses[..]),
        };
        inner.san_spawned(label, accesses, Some(&pred_ids))
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
            if let Some((label, priority, accesses, body)) = spawn {
                (task.label, task.priority) = (label, priority);
                task.accesses = accesses;
                task.body = body;
            }
            inner.stat_rearmed_tasks.fetch_add(1, Ordering::Relaxed);
            None
        }
        None => {
            let (label, priority, accesses, body) = spawn.unwrap_or_else(|| {
                // Invariant: without a spawn this is `replay_tasks`, which
                // checked that every slot it replays is re-runnable.
                let body =
                    (slot.body.share()).expect("replay_tasks re-arms re-runnable slots only");
                (slot.label, slot.priority, slot.accesses.clone(), body)
            });
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

/// Logs a freshly-analyzed spawn into the open record-mode scope.
pub(crate) fn record_spawn(inner: &Arc<RtInner>, task: &Arc<TaskShared>) {
    with_scope(inner, |scope| {
        let ScopeMode::Record { pos, same } = &mut scope.mode else {
            return;
        };
        let slot = Slot {
            fp: fingerprint(task.label, task.priority, &task.accesses),
            task: Arc::clone(task),
        };
        match scope.state.slots.get_mut(*pos) {
            Some(old) => {
                *same &= old.fp == slot.fp;
                *old = slot;
            }
            None => {
                *same = false;
                scope.state.slots.push(slot);
            }
        }
        *pos += 1;
    });
}

/// The replaying scope's stream left the frozen trace at slot `cursor`:
/// the tasks replayed so far stay as the head of a recording that the
/// rest of the scope continues (fresh analysis sees them: every fresh
/// spawn flushes first). Returns true if that parked the key instead.
fn diverge_scope(inner: &Arc<RtInner>, scope: &mut ActiveScope, cursor: usize) -> bool {
    let state = &mut scope.state;
    state.preds = Preds::default();
    state.stage = Stage::Empty;
    state.optimistic = false;
    // Divergences count toward parking: a stream that freezes and then
    // keeps diverging must not thrash record/replay forever.
    let parked = state.strike();
    scope.mode = if parked {
        ScopeMode::Inert
    } else {
        ScopeMode::Record {
            pos: cursor,
            same: false,
        }
    };
    note_divergence(inner, scope.key);
    parked
}

/// An untraced spawn landed while the scope was open: whatever the scope
/// replayed or logged cannot be built on. The key starts over and the
/// rest of the scope takes the fresh path unlogged.
fn taint_scope(inner: &Arc<RtInner>, scope: &mut ActiveScope) {
    scope.mode = ScopeMode::Inert;
    scope.state.forget(Stage::Empty);
    scope.state.strike();
    note_divergence(inner, scope.key);
}

fn note_divergence(inner: &Arc<RtInner>, key: u64) {
    flush_bypassed(inner);
    inner.stat_trace_divergences.fetch_add(1, Ordering::Relaxed);
    emit_mark(inner, "divergence", key, 0);
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
    for state in cache.keys.lock().values_mut() {
        *state = KeyState {
            optimistic: state.optimistic,
            ..KeyState::default()
        };
    }
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
    /// stream (one AMR timestep). The first iteration after an
    /// invalidation records; from the second on, matching iterations
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

    /// Where the trace scope this thread has open on the runtime stands:
    /// the number of tasks it has recorded or replayed so far. `None`
    /// without a scope, with `replay` off, and in a scope that is neither
    /// recording nor replaying. A submitter that notes the positions of a
    /// batch of spawns while they are recorded can have the same batch
    /// re-armed by [`Self::replay_tasks`] in later iterations.
    pub fn trace_position(&self) -> Option<usize> {
        position(self.inner())
    }

    /// Re-arms the `n` tasks recorded from position `start` on, without
    /// being handed them again: each runs the re-runnable body
    /// ([`crate::TaskBuilder::body_fn`]) it was spawned with, behind the
    /// predecessors of the frozen trace — and behind its on-ready gate
    /// ([`crate::TaskBuilder::on_ready`]), which runs again on every hit
    /// once those predecessors release. Returns false, having done
    /// nothing, unless the open scope is replaying and stands exactly at
    /// `start`, no untraced spawn intervened and all `n` positions hold
    /// re-runnable bodies; the caller then spawns the tasks as usual.
    ///
    /// The caller vouches that the `n` spawns it skips would have had the
    /// declarations recorded at these positions.
    pub fn replay_tasks(&self, start: usize, n: usize) -> bool {
        replay_tasks(self.inner(), start, n)
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
    /// one close parks the key and nothing is closed or recorded again
    /// until an invalidation.
    #[test]
    fn unstable_stream_parks_the_key_after_one_close() {
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

    /// A stream that alternates between two shapes loses the bet of its
    /// first close and is not closed again while it alternates; once it
    /// repeats it closes after two recordings, and the hit restores the
    /// close after one.
    #[test]
    fn alternating_stream_stops_closing_until_a_hit() {
        let a = [accesses(&[(8, 0, 4, true)]), accesses(&[(8, 0, 2, true)])];
        let b = [accesses(&[(8, 0, 4, true)]), accesses(&[(8, 2, 2, true)])];
        let rt = Runtime::new(1);
        for _ in 0..3 {
            iterate(&rt, &a);
            iterate(&rt, &b);
        }
        let s = rt.stats();
        assert_eq!((s.trace_closes, s.trace_divergences), (1, 1), "{s:?}");
        assert_eq!(s.trace_hits, 0, "{s:?}");
        // Repeats now: one recording that differs from `b`, one that
        // repeats it, then the close and the hit.
        for _ in 0..3 {
            iterate(&rt, &a);
        }
        let s = rt.stats();
        assert_eq!((s.trace_closes, s.trace_hits), (2, 1), "{s:?}");
        rt.invalidate_traces();
        iterate(&rt, &a);
        iterate(&rt, &a);
        let s = rt.stats();
        assert_eq!((s.trace_closes, s.trace_hits), (3, 2), "{s:?}");
    }
}
