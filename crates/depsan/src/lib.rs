//! `depsan` — a dependency-correctness sanitizer for the data-flow graph.
//!
//! The paper's premise is that declared `in`/`out`/`inout` regions (plus
//! TAMPI-bound communication) are a *complete* description of what every
//! task touches. When a declaration is wrong the data-flow variant
//! silently races or deadlocks — exactly the seed `--comm_vars
//! --send_faces` bug root-caused in PR 2, where buffer regions aliased
//! across variable groups, the WAW/WAR edges vanished, and receives
//! matched wrong-size payloads. This crate verifies the contract at run
//! time, under `--sanitize`:
//!
//! 1. **Declared-vs-actual access checking.** Checked views over `shmem`
//!    buffers ([`record_access`]) record every element range a task body
//!    actually reads or writes and flag any access not covered by the
//!    union of the task's declared regions on that object.
//! 2. **Happens-before race detection.** Every spawned task carries an
//!    *ancestor closure*: the set of tasks guaranteed to complete before
//!    it starts. Because tasks are spawned in a topological order of the
//!    declared dependency graph, the closure is computable entirely at
//!    spawn time — the closure of a task is the union of the closures of
//!    its declared-conflict predecessors, plus the runtime's `taskwait`
//!    base. This is a dense, exact variant of vector clocks: instead of
//!    one counter per thread we keep one bit per task, which is exact for
//!    the fork/join + region-dependency structure taskrt generates (no
//!    locks, no ad-hoc synchronisation to approximate). Two actual
//!    accesses to overlapping ranges of the same object, at least one a
//!    write, with neither task in the other's closure, are reported as a
//!    race.
//! 3. **Communication lints.** `vmpi` reports ambiguous in-flight
//!    receives (same specific `(src, tag, comm)` with different expected
//!    sizes — the direct signature of a missing WAW/WAR serialisation
//!    edge between posting tasks), queued same-tag messages with
//!    different payload sizes, exact-size mismatches detected at match
//!    time *before* the fatal `Truncated`, and unmatched messages or
//!    receives still pending at finalize.
//!
//! TAMPI message edges need no cross-rank clock exchange: buffer and
//! block objects are rank-local, and an arriving payload materialises as
//! a write *inside the scope of the receiving task* (the posting scope is
//! captured into the payload-writer closure), so the recv task's declared
//! out-region edges carry the happens-before to its successors.
//!
//! Scoping rules (what keeps default-config runs violation-free):
//!
//! * Accesses outside any task scope (main-thread init, the fork/join and
//!   MPI-only variants' pack/unpack loops, control messages) are exempt —
//!   the always-on `shmem` claim table still catches true temporal
//!   overlaps there. depsan verifies the *declared task graph*.
//! * Tasks that declare **no** accesses (fork/join-style children,
//!   `parallel_for` chunks) are exempt from the declared check but still
//!   race-checked.
//! * Objects bound while the accessing task itself was executing
//!   (blocks created inside split/merge tasks) are exempt for that task:
//!   creation-time initialisation precedes publication.
//!
//! Everything is off by default. The only cost on the disabled path is a
//! relaxed atomic load and a branch at sites that already take a lock.
//! Memory is bounded by purging history at every `taskwait`: tasks in
//! the barrier base can never race with the future, so their closures,
//! declared entries and actual-access entries are dropped. Worst case is
//! O(window²/8) bits between barriers — acceptable for sanitizer runs.

use parking_lot::{Mutex, MutexGuard};
use std::cell::Cell;
use std::collections::{HashMap, HashSet};
use std::fmt;
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::OnceLock;

/// Exit code used by [`Mode::Exit`] when a violation is reported
/// (distinct from the stall watchdog's 86).
pub const SAN_EXIT_CODE: i32 = 97;

/// What to do when a violation is detected.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Mode {
    /// Accumulate violations for [`take_violations`] (tests).
    Record,
    /// Print a structured report to stderr and exit with
    /// [`SAN_EXIT_CODE`] immediately (the `--sanitize` CLI flag). Exiting
    /// on the first violation matters: the bugs depsan exists to catch
    /// (missing edges, aliased tags) usually deadlock the run before an
    /// end-of-run report could be printed.
    Exit,
}

const MODE_OFF: u8 = 0;
const MODE_RECORD: u8 = 1;
const MODE_EXIT: u8 = 2;

static MODE: AtomicU8 = AtomicU8::new(MODE_OFF);

/// Turns the sanitizer on in the given mode (idempotent; the mode of the
/// last call wins).
pub fn enable(mode: Mode) {
    let m = match mode {
        Mode::Record => MODE_RECORD,
        Mode::Exit => MODE_EXIT,
    };
    MODE.store(m, Ordering::Release);
}

/// True once [`enable`] has been called. Cheap enough to gate every
/// instrumentation site with.
#[inline]
pub fn is_enabled() -> bool {
    MODE.load(Ordering::Relaxed) != MODE_OFF
}

/// A declared access, as seen by depsan. Raw ids keep this crate at the
/// bottom of the dependency graph (taskrt converts its `Access`es).
#[derive(Clone, Copy, Debug)]
pub struct DeclAccess {
    pub obj: u64,
    pub start: usize,
    pub end: usize,
    /// `out`/`inout` (any declaration also grants read permission:
    /// coverage for reads is the union of *all* declared regions).
    pub write: bool,
}

/// The category of a violation.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ViolationKind {
    /// A task read a range not covered by any of its declared regions.
    UndeclaredRead,
    /// A task wrote a range not covered by its declared out/inout regions.
    UndeclaredWrite,
    /// Two tasks with no happens-before edge made conflicting overlapping
    /// accesses to the same object.
    Race,
    /// Two receives for the same specific `(src, tag, comm)` were in
    /// flight simultaneously with different expected sizes: the posting
    /// tasks lack a WAW/WAR serialisation edge, so match order is
    /// schedule-dependent.
    AmbiguousRecv,
    /// Two unmatched messages with the same `(src, tag, comm)` but
    /// different payload sizes were queued simultaneously.
    TagSizeMismatch,
    /// A matched payload's size differs from the receive's exact
    /// expectation (reported before the transfer can fail `Truncated`).
    SizeMismatch,
    /// Unmatched messages / pending receives / unreleased holds at
    /// finalize.
    FinalizeLeak,
    /// A replayed task's cached predecessor set misses a declared-conflict
    /// predecessor: the trace replay installed fewer happens-before edges
    /// than the declared accesses require.
    ReplayMissingEdge,
}

impl ViolationKind {
    /// Stable kebab-case name (used in reports and trace events).
    pub fn name(self) -> &'static str {
        match self {
            ViolationKind::UndeclaredRead => "undeclared-read",
            ViolationKind::UndeclaredWrite => "undeclared-write",
            ViolationKind::Race => "race",
            ViolationKind::AmbiguousRecv => "ambiguous-recv",
            ViolationKind::TagSizeMismatch => "tag-size-mismatch",
            ViolationKind::SizeMismatch => "size-mismatch",
            ViolationKind::FinalizeLeak => "finalize-leak",
            ViolationKind::ReplayMissingEdge => "replay-missing-edge",
        }
    }
}

/// One detected violation of the data-flow contract.
#[derive(Clone, Debug)]
pub struct Violation {
    pub kind: ViolationKind,
    /// Rank the violation is attributed to (`u32::MAX` when unknown).
    pub rank: u32,
    /// depsan task id of the offending scope (0 = outside any task).
    pub task: u64,
    /// Label of the offending task, empty when outside any task.
    pub label: String,
    /// Object involved (0 when not object-related, e.g. comm lints).
    pub obj: u64,
    pub detail: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "depsan: violation: {}", self.kind.name())?;
        if self.rank != u32::MAX {
            write!(f, " (rank {})", self.rank)?;
        }
        writeln!(f)?;
        if self.task != 0 {
            writeln!(f, "depsan:   in task {} '{}'", self.task, self.label)?;
        }
        for line in self.detail.lines() {
            writeln!(f, "depsan:   {line}")?;
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Bitset over depsan task ids.

/// Growable dense bitset indexed by depsan task id. Ids are global across
/// runtimes (taskrt's per-rank ids collide between ranks), so one bit per
/// task ever spawned in the sanitized window.
#[derive(Clone, Default, Debug)]
struct BitSet {
    words: Vec<u64>,
}

impl BitSet {
    fn set(&mut self, i: u64) {
        let (w, b) = ((i / 64) as usize, i % 64);
        if w >= self.words.len() {
            self.words.resize(w + 1, 0);
        }
        self.words[w] |= 1 << b;
    }

    fn get(&self, i: u64) -> bool {
        let (w, b) = ((i / 64) as usize, i % 64);
        self.words.get(w).is_some_and(|word| word & (1 << b) != 0)
    }

    fn union_with(&mut self, other: &BitSet) {
        if other.words.len() > self.words.len() {
            self.words.resize(other.words.len(), 0);
        }
        for (dst, src) in self.words.iter_mut().zip(&other.words) {
            *dst |= src;
        }
    }
}

// ---------------------------------------------------------------------------
// Global state.

struct TaskInfo {
    label: String,
    rank: u32,
    /// Ancestor closure, *including* the task's own bit.
    closure: BitSet,
    decls: Vec<DeclAccess>,
}

#[derive(Default)]
struct RtState {
    /// Every task this runtime ever spawned (in the current window).
    all_spawned: BitSet,
    /// Tasks guaranteed complete before anything spawned from now on
    /// (updated at `taskwait` / `taskwait_on`).
    base: BitSet,
}

#[derive(Clone, Copy)]
struct DeclEntry {
    san: u64,
    start: usize,
    end: usize,
    write: bool,
}

#[derive(Clone, Copy, PartialEq, Eq)]
struct ActEntry {
    san: u64,
    start: usize,
    end: usize,
    write: bool,
}

#[derive(Default)]
struct ObjState {
    /// Scope that was executing when the object was bound (0 = none).
    created_by: u64,
    declared: Vec<DeclEntry>,
    actual: Vec<ActEntry>,
}

#[derive(Default)]
struct State {
    next_san: u64,
    next_rt: u64,
    tasks: HashMap<u64, TaskInfo>,
    runtimes: HashMap<u64, RtState>,
    objects: HashMap<u64, ObjState>,
    violations: Vec<Violation>,
    reported_undeclared: HashSet<(u64, u64, bool)>,
    reported_races: HashSet<(u64, u64)>,
    chaos_losses: Vec<ChaosLoss>,
}

fn state() -> MutexGuard<'static, State> {
    static STATE: OnceLock<Mutex<State>> = OnceLock::new();
    STATE.get_or_init(|| Mutex::new(State::default())).lock()
}

thread_local! {
    /// The depsan id of the task executing on this thread (0 = none).
    static SCOPE: Cell<u64> = const { Cell::new(0) };
}

fn overlap(a_start: usize, a_end: usize, b_start: usize, b_end: usize) -> bool {
    a_start.max(b_start) < a_end.min(b_end)
}

fn report_locked(st: &mut State, v: Violation) {
    if let Some(bus) = obs::bus() {
        // Violations are rare (a correct run has none), so leaking the
        // detail string for the 'static trace event is fine.
        bus.emit(obs::EventData::SanViolation {
            kind: v.kind.name(),
            task: v.task,
            obj: v.obj,
            detail: Box::leak(v.detail.clone().into_boxed_str()),
        });
    }
    match MODE.load(Ordering::Relaxed) {
        MODE_EXIT => {
            eprint!("{v}");
            eprintln!("depsan: exiting with code {SAN_EXIT_CODE}");
            std::process::exit(SAN_EXIT_CODE);
        }
        _ => st.violations.push(v),
    }
}

/// Reports a violation detected outside depsan itself (the `vmpi` comm
/// lints and finalize scans construct their own [`Violation`]s).
pub fn report(v: Violation) {
    report_locked(&mut state(), v);
}

/// Label of a task scope (empty for scope 0 or unknown tasks) — used to
/// fill [`Violation::label`] from outside depsan.
pub fn task_label(san: u64) -> String {
    if san == 0 {
        return String::new();
    }
    state()
        .tasks
        .get(&san)
        .map(|t| t.label.clone())
        .unwrap_or_default()
}

/// Human-readable description of a task scope for lint messages:
/// `task 12 'recv' (rank 0)`, or `main thread` for scope 0.
pub fn describe_task(san: u64) -> String {
    if san == 0 {
        return "main thread".to_string();
    }
    let st = state();
    match st.tasks.get(&san) {
        Some(t) => format!("task {} '{}' (rank {})", san, t.label, t.rank),
        None => format!("task {san}"),
    }
}

// ---------------------------------------------------------------------------
// Runtime / task lifecycle hooks (called by taskrt).

/// Registers a new `taskrt::Runtime`; returns its depsan runtime id.
pub fn runtime_created() -> u64 {
    let mut st = state();
    st.next_rt += 1;
    let id = st.next_rt;
    st.runtimes.insert(id, RtState::default());
    id
}

/// Registers a spawned task with its declared accesses and returns its
/// depsan task id. Must be called in spawn order: spawn order is a
/// topological order of the declared dependency graph, which is what
/// makes the ancestor closure computable here.
///
/// `enforced_preds` is `None` for a task the claim table analysed: its
/// happens-before closure is that of its declared-conflict predecessors
/// (any earlier declaration on the same object that overlaps with at
/// least one write involved), which is what the claim table enforces.
/// For a task whose edges were installed from a cached trace it is the
/// replayed predecessor set, and the closure is built from that set only
/// — exactly the ordering the runtime will enforce. Any declared conflict
/// the replayed closure does not cover is then reported as a
/// [`ViolationKind::ReplayMissingEdge`]: the cached trace promises less
/// ordering than the declared accesses require.
///
/// Predecessors already joined by a `taskwait` are in the runtime base
/// and therefore covered either way. `enforced_preds` may include
/// predecessors that had already released when the edge was installed
/// (and was therefore skipped by the runtime): their release happened
/// before this spawn, so their effects are ordered regardless.
pub fn task_spawned(
    rt: u64,
    label: &str,
    rank: u32,
    decls: &[DeclAccess],
    enforced_preds: Option<&[u64]>,
) -> u64 {
    let mut st = state();
    st.next_san += 1;
    let san = st.next_san;

    let mut closure = match st.runtimes.get_mut(&rt) {
        Some(r) => {
            r.all_spawned.set(san);
            r.base.clone()
        }
        None => BitSet::default(),
    };
    let mut conflicts: Vec<(DeclEntry, DeclAccess)> = Vec::new();
    for d in decls {
        if let Some(os) = st.objects.get(&d.obj) {
            for e in &os.declared {
                if (d.write || e.write) && overlap(d.start, d.end, e.start, e.end) {
                    conflicts.push((*e, *d));
                }
            }
        }
    }
    let enforced = match enforced_preds {
        Some(preds) => preds.to_vec(),
        None => conflicts.iter().map(|(e, _)| e.san).collect(),
    };
    for p in enforced {
        if let Some(t) = st.tasks.get(&p) {
            closure.union_with(&t.closure);
        }
    }
    // What the enforced closure leaves uncovered, one entry per
    // predecessor. Nothing under `None`: every conflict was just united
    // in (a predecessor purged at a taskwait takes its declarations with
    // it, so none of those is seen here).
    let mut missing: Vec<(DeclEntry, DeclAccess)> = Vec::new();
    for (e, d) in conflicts {
        if !closure.get(e.san) && !missing.iter().any(|(m, _)| m.san == e.san) {
            missing.push((e, d));
        }
    }
    closure.set(san);
    for d in decls {
        st.objects
            .entry(d.obj)
            .or_default()
            .declared
            .push(DeclEntry {
                san,
                start: d.start,
                end: d.end,
                write: d.write,
            });
    }
    st.tasks.insert(
        san,
        TaskInfo {
            label: label.to_string(),
            rank,
            closure,
            decls: decls.to_vec(),
        },
    );
    for (e, d) in missing {
        let (pred, obj) = (e.san, d.obj);
        let pred_label = st
            .tasks
            .get(&pred)
            .map(|t| t.label.clone())
            .unwrap_or_default();
        let rw = |write: bool| if write { "write" } else { "read" };
        let v = Violation {
            kind: ViolationKind::ReplayMissingEdge,
            rank,
            task: san,
            label: label.to_string(),
            obj,
            detail: format!(
                "replayed predecessor set misses declared-conflict predecessor \
                 task {pred} '{pred_label}' on obj {obj} ({} {}..{} vs its {} {}..{}) — the cached \
                 trace enforces less ordering than the declared accesses require",
                rw(d.write),
                d.start,
                d.end,
                rw(e.write),
                e.start,
                e.end,
            ),
        };
        report_locked(&mut st, v);
    }
    san
}

/// Called after a `taskwait` completed on a runtime: everything spawned
/// so far happens-before everything spawned from now on. History of the
/// joined tasks is purged — they can never race with the future.
pub fn taskwait_joined(rt: u64) {
    let mut st = state();
    let Some(r) = st.runtimes.get_mut(&rt) else {
        return;
    };
    r.base = r.all_spawned.clone();
    let dead = r.base.clone();
    st.tasks.retain(|san, _| !dead.get(*san));
    for os in st.objects.values_mut() {
        os.declared.retain(|e| !dead.get(e.san));
        os.actual.retain(|e| !dead.get(e.san));
    }
}

/// Called after a `taskwait_on` completed: the waiter task (and therefore
/// its whole ancestor closure) happens-before everything spawned from now
/// on.
pub fn taskwait_on_joined(rt: u64, waiter: u64) {
    let mut st = state();
    let waiter_closure = match st.tasks.get(&waiter) {
        Some(t) => t.closure.clone(),
        None => return,
    };
    if let Some(r) = st.runtimes.get_mut(&rt) {
        r.base.union_with(&waiter_closure);
    }
}

/// Whether task `earlier` happens-before task `later`: it is in `later`'s
/// ancestor closure (dependency edges, transitively, and everything a
/// `taskwait` had joined before `later` was spawned). False when either
/// scope is 0 — code outside any task has no recorded order.
pub fn happens_before(earlier: u64, later: u64) -> bool {
    let st = state();
    st.tasks.get(&later).is_some_and(|t| t.closure.get(earlier))
}

// ---------------------------------------------------------------------------
// Thread scope.

/// The depsan task id executing on this thread (0 = none). Captured by
/// communication layers at post time so deferred payload writers run in
/// the scope of the posting task, wherever the delivery thread executes
/// them.
#[inline]
pub fn current_scope() -> u64 {
    SCOPE.with(Cell::get)
}

/// Runs `f` with the thread scope set to `scope` (restores the previous
/// scope afterwards, panic-safe).
pub fn with_scope<R>(scope: u64, f: impl FnOnce() -> R) -> R {
    let _g = enter_scope(scope);
    f()
}

/// RAII guard: sets the thread scope, restoring the previous one on drop.
pub struct ScopeGuard {
    prev: u64,
}

/// Enters a task scope on the current thread (used by taskrt around task
/// bodies).
pub fn enter_scope(scope: u64) -> ScopeGuard {
    let prev = SCOPE.with(|s| s.replace(scope));
    ScopeGuard { prev }
}

impl Drop for ScopeGuard {
    fn drop(&mut self) {
        SCOPE.with(|s| s.set(self.prev));
    }
}

// ---------------------------------------------------------------------------
// Object binding and actual-access recording (called by shmem).

/// Records that an object id was bound to a buffer, remembering the task
/// scope (if any) that created it: the creator's initialisation accesses
/// precede publication and are exempt.
pub fn object_bound(obj: u64) {
    let scope = current_scope();
    let mut st = state();
    let os = st.objects.entry(obj).or_default();
    os.created_by = scope;
}

/// Records an actual element-range access from the current thread scope,
/// running the declared-coverage check and the happens-before race check.
pub fn record_access(obj: u64, start: usize, end: usize, write: bool) {
    let scope = current_scope();
    if scope == 0 || start >= end {
        return;
    }
    let mut st = state();
    let st = &mut *st;
    let Some(task) = st.tasks.get(&scope) else {
        return;
    };
    let os = st.objects.entry(obj).or_default();
    if os.created_by == scope {
        return;
    }

    // Declared-vs-actual: tasks that declare nothing are exempt (fork/join
    // children synchronise by taskwait, not regions); otherwise the access
    // must be covered by the union of the task's declared regions on this
    // object (write accesses by the union of its write declarations).
    if !task.decls.is_empty() {
        let mut ivs: Vec<(usize, usize)> = task
            .decls
            .iter()
            .filter(|d| d.obj == obj && (!write || d.write))
            .map(|d| (d.start, d.end))
            .collect();
        ivs.sort_unstable();
        let mut cursor = start;
        for (s, e) in ivs {
            if s > cursor {
                break;
            }
            cursor = cursor.max(e);
            if cursor >= end {
                break;
            }
        }
        if cursor < end && st.reported_undeclared.insert((scope, obj, write)) {
            let kind = if write {
                ViolationKind::UndeclaredWrite
            } else {
                ViolationKind::UndeclaredRead
            };
            let decls: Vec<String> = task
                .decls
                .iter()
                .filter(|d| d.obj == obj)
                .map(|d| {
                    format!(
                        "{}..{}{}",
                        d.start,
                        d.end,
                        if d.write { " (write)" } else { "" }
                    )
                })
                .collect();
            let v = Violation {
                kind,
                rank: task.rank,
                task: scope,
                label: task.label.clone(),
                obj,
                detail: format!(
                    "actual {} of obj {obj} range {start}..{end} not covered by declared regions [{}]",
                    if write { "write" } else { "read" },
                    decls.join(", "),
                ),
            };
            report_locked(st, v);
        }
    }

    // Happens-before race check: a prior conflicting overlapping access by
    // a task outside this task's ancestor closure has no ordering edge.
    let task = st.tasks.get(&scope).expect("scope checked above");
    let os = st.objects.get(&obj).expect("entry created above");
    let mut races: Vec<ActEntry> = Vec::new();
    for e in &os.actual {
        if e.san != scope
            && (write || e.write)
            && overlap(start, end, e.start, e.end)
            && !task.closure.get(e.san)
        {
            races.push(*e);
        }
    }
    let me = ActEntry {
        san: scope,
        start,
        end,
        write,
    };
    let os = st.objects.get_mut(&obj).expect("entry created above");
    if !os.actual.contains(&me) {
        os.actual.push(me);
    }
    for e in races {
        let pair = (e.san.min(scope), e.san.max(scope));
        if !st.reported_races.insert(pair) {
            continue;
        }
        let (label, rank) = st
            .tasks
            .get(&scope)
            .map(|t| (t.label.clone(), t.rank))
            .unwrap_or_default();
        let other = st
            .tasks
            .get(&e.san)
            .map(|t| format!("task {} '{}'", e.san, t.label))
            .unwrap_or_else(|| format!("task {}", e.san));
        let v = Violation {
            kind: ViolationKind::Race,
            rank,
            task: scope,
            label,
            obj,
            detail: format!(
                "{} {start}..{end} of obj {obj} conflicts with {} {}..{} by {other}; no dependency edge orders them",
                if write { "write" } else { "read" },
                if e.write { "write" } else { "read" },
                e.start,
                e.end,
            ),
        };
        report_locked(st, v);
    }
}

// ---------------------------------------------------------------------------
// Chaos-loss registry (fault-injection integration).

/// A message the fault plan permanently removed from the network — a
/// hard-crashed sender's frame or a frame whose retry budget exhausted.
/// The finalize-leak lint excuses one matching pending receive per
/// recorded loss: the receive leaked because chaos *intentionally*
/// destroyed its message, not because the program forgot a send.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ChaosLoss {
    /// World rank whose mailbox will be missing the message.
    pub dst_rank: u32,
    /// Communicator-local source rank of the lost message.
    pub src: usize,
    /// Tag of the lost message.
    pub tag: i32,
    /// Communicator id of the lost message.
    pub comm: u64,
}

/// Records a message the fault plan destroyed for good (called by the
/// vmpi reliability layer on `FaultInjected { kind: crash-drop }` and on
/// peer-lost). No-op while the sanitizer is disabled.
pub fn note_chaos_loss(dst_rank: u32, src: usize, tag: i32, comm: u64) {
    if !is_enabled() {
        return;
    }
    state().chaos_losses.push(ChaosLoss {
        dst_rank,
        src,
        tag,
        comm,
    });
}

/// Takes (consumes) the recorded losses destined for `dst_rank` — the
/// finalize scan of that rank's mailbox matches them against pending
/// receives exactly once.
pub fn take_chaos_losses_for(dst_rank: u32) -> Vec<ChaosLoss> {
    let mut st = state();
    let mut taken = Vec::new();
    st.chaos_losses.retain(|l| {
        if l.dst_rank == dst_rank {
            taken.push(*l);
            false
        } else {
            true
        }
    });
    taken
}

// ---------------------------------------------------------------------------
// Test / report plumbing.

/// Drains accumulated violations (Record mode).
pub fn take_violations() -> Vec<Violation> {
    std::mem::take(&mut state().violations)
}

/// Number of violations currently accumulated.
pub fn violation_count() -> usize {
    state().violations.len()
}

/// Clears all sanitizer state (tests only; tests sharing the process must
/// serialise around this).
pub fn reset_for_testing() {
    let mut st = state();
    *st = State::default();
}

#[cfg(test)]
mod tests {
    use super::*;

    // Serialise tests: they share the global state.
    static TEST_LOCK: Mutex<()> = Mutex::new(());

    fn setup() -> parking_lot::MutexGuard<'static, ()> {
        let g = TEST_LOCK.lock();
        enable(Mode::Record);
        reset_for_testing();
        g
    }

    fn decl(obj: u64, start: usize, end: usize, write: bool) -> DeclAccess {
        DeclAccess {
            obj,
            start,
            end,
            write,
        }
    }

    #[test]
    fn bitset_set_get_union() {
        let mut a = BitSet::default();
        a.set(3);
        a.set(200);
        assert!(a.get(3) && a.get(200) && !a.get(64));
        let mut b = BitSet::default();
        b.set(64);
        b.union_with(&a);
        assert!(b.get(3) && b.get(64) && b.get(200));
    }

    #[test]
    fn declared_edge_orders_tasks() {
        let _g = setup();
        let rt = runtime_created();
        let t1 = task_spawned(rt, "w1", 0, &[decl(7, 0, 10, true)], None);
        let t2 = task_spawned(rt, "w2", 0, &[decl(7, 0, 10, true)], None);
        with_scope(t1, || record_access(7, 0, 10, true));
        with_scope(t2, || record_access(7, 0, 10, true));
        assert!(take_violations().is_empty(), "WAW edge orders the writes");
    }

    #[test]
    fn replayed_task_with_complete_preds_is_clean() {
        let _g = setup();
        let rt = runtime_created();
        let t1 = task_spawned(rt, "w1", 0, &[decl(7, 0, 10, true)], None);
        // Transitive coverage: t3 names only t2, but t2's closure holds t1.
        let t2 = task_spawned(rt, "w2", 0, &[decl(7, 0, 10, true)], Some(&[t1]));
        let t3 = task_spawned(rt, "w3", 0, &[decl(7, 0, 10, true)], Some(&[t2]));
        with_scope(t1, || record_access(7, 0, 10, true));
        with_scope(t2, || record_access(7, 0, 10, true));
        with_scope(t3, || record_access(7, 0, 10, true));
        assert!(
            take_violations().is_empty(),
            "replayed edges cover the declared conflicts"
        );
    }

    #[test]
    fn replayed_task_missing_edge_is_reported() {
        let _g = setup();
        let rt = runtime_created();
        let t1 = task_spawned(rt, "writer", 0, &[decl(7, 0, 10, true)], None);
        let _ = t1;
        let t2 = task_spawned(rt, "replayed", 0, &[decl(7, 0, 10, true)], Some(&[]));
        let v = take_violations();
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].kind, ViolationKind::ReplayMissingEdge);
        assert_eq!(v[0].task, t2);
        assert_eq!(v[0].obj, 7);
    }

    #[test]
    fn replayed_task_pred_joined_by_taskwait_is_covered() {
        let _g = setup();
        let rt = runtime_created();
        let t1 = task_spawned(rt, "w1", 0, &[decl(7, 0, 10, true)], None);
        let _ = t1;
        taskwait_joined(rt);
        // The predecessor was purged into the runtime base; an empty
        // replayed pred set is still complete.
        let _t2 = task_spawned(rt, "w2", 0, &[decl(7, 0, 10, true)], Some(&[]));
        assert!(take_violations().is_empty());
    }

    #[test]
    fn unordered_conflict_is_a_race() {
        let _g = setup();
        let rt = runtime_created();
        let t1 = task_spawned(rt, "a", 0, &[], None);
        let t2 = task_spawned(rt, "b", 0, &[], None);
        with_scope(t1, || record_access(7, 0, 10, true));
        with_scope(t2, || record_access(7, 5, 15, true));
        let v = take_violations();
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].kind, ViolationKind::Race);
    }

    #[test]
    fn taskwait_joins_everything() {
        let _g = setup();
        let rt = runtime_created();
        let t1 = task_spawned(rt, "a", 0, &[], None);
        with_scope(t1, || record_access(7, 0, 10, true));
        taskwait_joined(rt);
        let t2 = task_spawned(rt, "b", 0, &[], None);
        with_scope(t2, || record_access(7, 0, 10, true));
        assert!(take_violations().is_empty(), "taskwait is a barrier");
    }

    #[test]
    fn taskwait_on_joins_waiter_closure_only() {
        let _g = setup();
        let rt = runtime_created();
        let t1 = task_spawned(rt, "writer", 0, &[decl(9, 0, 4, true)], None);
        let t2 = task_spawned(rt, "other", 0, &[], None);
        with_scope(t1, || record_access(9, 0, 4, true));
        with_scope(t2, || record_access(11, 0, 4, true));
        let w = task_spawned(rt, "taskwait_on", 0, &[decl(9, 0, usize::MAX, true)], None);
        taskwait_on_joined(rt, w);
        let t3 = task_spawned(rt, "after", 0, &[], None);
        // Ordered with t1 (through the waiter), but not with t2.
        with_scope(t3, || record_access(9, 0, 4, true));
        assert!(take_violations().is_empty());
        with_scope(t3, || record_access(11, 0, 4, true));
        let v = take_violations();
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].kind, ViolationKind::Race);
    }

    #[test]
    fn undeclared_write_reported_once() {
        let _g = setup();
        let rt = runtime_created();
        let t = task_spawned(rt, "bad", 0, &[decl(5, 0, 10, true)], None);
        with_scope(t, || {
            record_access(5, 10, 20, true);
            record_access(5, 10, 20, true);
        });
        let v = take_violations();
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].kind, ViolationKind::UndeclaredWrite);
        assert!(v[0].detail.contains("10..20"));
    }

    #[test]
    fn read_covered_by_union_of_declared_regions() {
        let _g = setup();
        let rt = runtime_created();
        // Two adjacent read sections plus a send-style union read.
        let t = task_spawned(
            rt,
            "send",
            0,
            &[decl(5, 0, 10, false), decl(5, 10, 20, false)],
            None,
        );
        with_scope(t, || record_access(5, 0, 20, false));
        assert!(take_violations().is_empty());
        // But a *write* is not covered by read declarations.
        with_scope(t, || record_access(5, 0, 4, true));
        let v = take_violations();
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].kind, ViolationKind::UndeclaredWrite);
    }

    #[test]
    fn creator_scope_is_exempt() {
        let _g = setup();
        let rt = runtime_created();
        let t = task_spawned(rt, "refine_copy", 0, &[decl(3, 0, 1, false)], None);
        with_scope(t, || {
            object_bound(42);
            record_access(42, 0, 100, true);
        });
        assert!(take_violations().is_empty());
    }

    #[test]
    fn zero_decl_task_skips_declared_check() {
        let _g = setup();
        let rt = runtime_created();
        let t = task_spawned(rt, "chunk", 0, &[], None);
        with_scope(t, || record_access(8, 0, 100, true));
        assert!(take_violations().is_empty());
    }

    #[test]
    fn purge_bounds_history() {
        let _g = setup();
        let rt = runtime_created();
        for _ in 0..10 {
            let t = task_spawned(rt, "w", 0, &[decl(6, 0, 4, true)], None);
            with_scope(t, || record_access(6, 0, 4, true));
            taskwait_joined(rt);
        }
        let st = state();
        assert!(st.tasks.is_empty());
        let os = st.objects.get(&6).unwrap();
        assert!(os.declared.is_empty() && os.actual.is_empty());
    }
}
