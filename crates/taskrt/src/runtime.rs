//! The runtime: spawning, task building, taskwait.

use crate::events::GateHold;
use crate::region::{Access, Region};
use crate::registry::Registry;
use crate::scheduler::Scheduler;
use crate::task::{
    AccessList, Accesses, Body, Declared, Gate, Run, SuccessorList, TaskBody, TaskLinks, TaskShared,
};
use crate::trace::{self, Route, TraceCache};
use parking_lot::{Condvar, Mutex};
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Weak};
use std::thread::JoinHandle;

/// Tuning knobs for a [`Runtime`].
#[derive(Debug, Clone)]
pub struct RuntimeConfig {
    /// Number of worker threads executing tasks.
    pub workers: usize,
    /// Whether a finishing task's first unblocked successor is executed
    /// next on the same worker (cache-locality policy). Disable for
    /// ablation studies.
    pub immediate_successor: bool,
    /// Whether the task-graph trace & replay cache is armed (see
    /// [`Runtime::trace_scope`]). When false, trace scopes are inert and
    /// every spawn takes fresh claim-table analysis.
    pub replay: bool,
}

impl RuntimeConfig {
    /// Default configuration with `workers` threads.
    pub fn with_workers(workers: usize) -> RuntimeConfig {
        RuntimeConfig {
            workers,
            immediate_successor: true,
            replay: true,
        }
    }
}

/// Counters accumulated over the runtime's lifetime.
#[derive(Debug, Clone, Default)]
pub struct RuntimeStats {
    /// Tasks spawned.
    pub spawned: u64,
    /// Dependency edges created at registration.
    pub edges: u64,
    /// Tasks that were ready immediately at spawn (no predecessors).
    pub ready_at_spawn: u64,
    /// Tasks not yet released (0 after a `taskwait`).
    pub live_tasks: u64,
    /// Event holds acquired over the runtime's lifetime.
    pub holds_acquired: u64,
    /// Holds acquired but not yet released (a nonzero value at shutdown
    /// means a leaked `EventHold`).
    pub outstanding_holds: u64,
    /// Trace-scope iterations that recorded (no frozen trace yet — the
    /// replay misses).
    pub trace_records: u64,
    /// Trace-scope iterations replayed entirely from a frozen trace.
    pub trace_hits: u64,
    /// Replay iterations abandoned mid-scope (submission stream diverged
    /// from the frozen trace; fell back to fresh analysis).
    pub trace_divergences: u64,
    /// Explicit trace invalidations (regrid, repartition). A resize or a
    /// checkpoint restore builds a fresh runtime instead.
    pub trace_invalidations: u64,
    /// Tasks whose dependency edges were installed from a replayed trace
    /// (claim table bypassed).
    pub replayed_tasks: u64,
    /// Recorded streams closed (the symbolic analysis was run on them) …
    pub trace_closes: u64,
    /// … and how many of those closes froze a trace; the others parked
    /// their key.
    pub trace_freezes: u64,
    /// Replayed tasks that reused the task object of the previous
    /// iteration in place (the rest were allocated: that object was still
    /// referenced).
    pub rearmed_tasks: u64,
    /// Most tasks live at once (spawned and not yet released).
    pub live_tasks_hwm: u64,
    /// Task bodies that returned still holding event holds (their
    /// release waited for a bound request to complete).
    pub tasks_blocked_on_events: u64,
}

impl RuntimeStats {
    /// Adds these counts to the process-wide registry, under the
    /// `taskrt.*` names (`live_tasks_hwm` as a high-water mark over every
    /// runtime). [`Runtime`]'s drop calls this once, while observability
    /// is on: the only place `taskrt` writes to the registry.
    fn publish(&self) {
        let registry = obs::metrics();
        for (name, value) in [
            ("taskrt.tasks_spawned", self.spawned),
            ("taskrt.dep_edges", self.edges),
            (
                "taskrt.tasks_blocked_on_events",
                self.tasks_blocked_on_events,
            ),
            ("taskrt.replayed_tasks", self.replayed_tasks),
            ("taskrt.rearmed_tasks", self.rearmed_tasks),
            ("taskrt.trace_records", self.trace_records),
            ("taskrt.trace_closes", self.trace_closes),
            ("taskrt.trace_hits", self.trace_hits),
            ("taskrt.trace_divergences", self.trace_divergences),
            ("taskrt.trace_invalidations", self.trace_invalidations),
        ] {
            registry.counter(name).add(value);
        }
        let hwm = i64::try_from(self.live_tasks_hwm).unwrap_or(i64::MAX);
        registry.gauge("taskrt.live_tasks_hwm").fetch_max(hwm);
    }
}

const LIVE_SHARDS: usize = 8;

/// Sharded id → task map of unreleased tasks, kept only for diagnostics
/// (watchdog dumps). Absent entirely in release builds without
/// observability, so the spawn/release hot path pays no lock for it.
struct LiveSet {
    shards: Vec<Mutex<HashMap<u64, Weak<TaskShared>>>>,
}

impl LiveSet {
    fn new() -> LiveSet {
        LiveSet {
            shards: (0..LIVE_SHARDS)
                .map(|_| Mutex::new(HashMap::new()))
                .collect(),
        }
    }

    #[inline]
    fn insert(&self, id: u64, task: Weak<TaskShared>) {
        self.shards[id as usize % LIVE_SHARDS]
            .lock()
            .insert(id, task);
    }

    #[inline]
    fn remove(&self, id: u64) {
        self.shards[id as usize % LIVE_SHARDS].lock().remove(&id);
    }

    /// Live tasks sorted by id (diagnostics only).
    fn snapshot(&self) -> Vec<Arc<TaskShared>> {
        let mut tasks: Vec<Arc<TaskShared>> = self
            .shards
            .iter()
            .flat_map(|s| {
                s.lock()
                    .values()
                    .filter_map(Weak::upgrade)
                    .collect::<Vec<_>>()
            })
            .collect();
        tasks.sort_unstable_by_key(|t| t.id);
        tasks
    }
}

pub(crate) struct RtInner {
    pub registry: Registry,
    pub scheduler: Scheduler,
    pub(crate) trace: TraceCache,
    next_id: AtomicU64,
    live: AtomicUsize,
    live_set: Option<LiveSet>,
    wait_lock: Mutex<()>,
    wait_cond: Condvar,
    stat_spawned: AtomicU64,
    stat_edges: AtomicU64,
    stat_ready_at_spawn: AtomicU64,
    pub(crate) stat_holds_acquired: AtomicU64,
    pub(crate) stat_holds_released: AtomicU64,
    pub(crate) stat_trace_records: AtomicU64,
    pub(crate) stat_trace_hits: AtomicU64,
    pub(crate) stat_trace_divergences: AtomicU64,
    pub(crate) stat_trace_invalidations: AtomicU64,
    pub(crate) stat_replayed_tasks: AtomicU64,
    pub(crate) stat_trace_closes: AtomicU64,
    pub(crate) stat_trace_freezes: AtomicU64,
    pub(crate) stat_rearmed_tasks: AtomicU64,
    stat_live_hwm: AtomicU64,
    pub(crate) stat_blocked_on_events: AtomicU64,
    /// Virtual rank this runtime serves, for event attribution
    /// ([`obs::UNKNOWN_RANK`] until [`Runtime::set_obs_rank`]).
    pub(crate) obs_rank: AtomicU32,
    /// depsan runtime id (0 while the sanitizer is disabled).
    pub(crate) san_rt: u64,
    /// First task-body panic, captured by [`TaskShared::execute`] so the
    /// worker survives and the graph keeps draining; rethrown on the
    /// rank's main thread by the next [`Runtime::taskwait`] /
    /// [`Runtime::taskwait_on`].
    pub(crate) poisoned: Mutex<Option<String>>,
}

impl RtInner {
    pub(crate) fn enqueue_ready(&self, task: Arc<TaskShared>, local_hint: bool) {
        self.scheduler.push(task, local_hint);
    }

    /// Rank to attribute this runtime's events to.
    #[inline]
    pub(crate) fn rank(&self) -> u32 {
        self.obs_rank.load(Ordering::Relaxed)
    }

    // The steps of a spawn, shared by `Runtime::spawn_boxed` and the
    // replay path (`trace::replay_slot`), which takes the task object
    // from the trace and its edges from there too.

    pub(crate) fn next_task_id(&self) -> u64 {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    /// Registers a spawn with the sanitizer (which must be on) and
    /// returns its depsan id. Spawn order is a topological order of the
    /// declared graph, which is what lets depsan compute happens-before
    /// closures at spawn time. A replayed spawn also hands over the
    /// predecessor set the trace is about to enforce, which depsan
    /// re-checks against the declared accesses.
    pub(crate) fn san_spawned(
        &self,
        label: &'static str,
        accesses: &[Access],
        replayed: Option<&[u64]>,
    ) -> u64 {
        let decls: Vec<depsan::DeclAccess> = accesses
            .iter()
            .map(|a| depsan::DeclAccess {
                obj: a.region.obj.0,
                start: a.region.start,
                end: a.region.end,
                write: a.mode.is_write(),
            })
            .collect();
        depsan::task_spawned(self.san_rt, label, self.rank(), &decls, replayed)
    }

    pub(crate) fn new_task(
        self: &Arc<Self>,
        id: u64,
        san_id: u64,
        priority: i32,
        label: &'static str,
        accesses: Accesses,
        body: TaskBody,
    ) -> Arc<TaskShared> {
        Arc::new(TaskShared {
            id,
            san_id,
            priority,
            label,
            accesses,
            body,
            // One guard count held through registration so the task cannot
            // become ready while its edges are still being created.
            pending: AtomicUsize::new(1),
            events: AtomicUsize::new(1),
            body_returned: AtomicBool::new(false),
            gate_posted: AtomicBool::new(false),
            state: Mutex::new(TaskLinks {
                released: false,
                successors: SuccessorList::new(),
            }),
            bypassed: AtomicBool::new(false),
            rt: Arc::clone(self),
        })
    }

    /// Counts a new (or re-armed) task live.
    pub(crate) fn task_born(&self, task: &Arc<TaskShared>) {
        let live_now = (self.live.fetch_add(1, Ordering::AcqRel) + 1) as u64;
        if live_now > self.stat_live_hwm.load(Ordering::Relaxed) {
            self.stat_live_hwm.fetch_max(live_now, Ordering::Relaxed);
        }
        if let Some(live_set) = &self.live_set {
            live_set.insert(task.id, Arc::downgrade(task));
        }
    }

    /// The end of every spawn: counters, the `TaskCreated` event, and the
    /// drop of the registration guard, which enqueues the task if none of
    /// its `edges` predecessors is still live.
    pub(crate) fn launch(&self, task: &Arc<TaskShared>, edges: usize, replayed: bool) {
        self.stat_spawned.fetch_add(1, Ordering::Relaxed);
        self.stat_edges.fetch_add(edges as u64, Ordering::Relaxed);
        if edges == 0 {
            self.stat_ready_at_spawn.fetch_add(1, Ordering::Relaxed);
        }
        if let Some(bus) = obs::bus() {
            bus.emit_for_rank(
                self.rank(),
                obs::EventData::TaskCreated {
                    id: task.id,
                    label: task.label,
                    preds: edges as u32,
                    replayed,
                },
            );
        }
        task.dep_satisfied(false);
    }

    /// Human-readable snapshot of unreleased tasks with their declared
    /// accesses — the watchdog's view into a stuck task graph. Empty when
    /// the graph is quiescent.
    fn dump_pending(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        let Some(live_set) = &self.live_set else {
            return out;
        };
        // What a task that holds up the graph on its own is waiting for: a
        // TAMPI event (its awaited message has not arrived, or its send
        // has not drained) or its on-ready gate (the receive it posted has
        // not been matched).
        let awaiting = |task: &TaskShared| -> Option<String> {
            let holds = task.event_holds();
            if task.awaiting_gate() {
                Some("[awaiting gate]".into())
            } else {
                (holds > 0).then(|| format!("[awaiting {holds} event hold(s)]"))
            }
        };
        for task in live_set.snapshot() {
            let pending = task.pending.load(Ordering::Relaxed);
            let label = if task.label.is_empty() {
                "<unlabeled>"
            } else {
                task.label
            };
            let _ = write!(
                out,
                "task {} '{}' pending_preds={} event_holds={}{} accesses=[",
                task.id,
                label,
                pending,
                task.event_holds(),
                if task.awaiting_gate() {
                    " awaiting_gate"
                } else {
                    ""
                },
            );
            for (i, a) in task.accesses.iter().enumerate() {
                let mode = match a.mode {
                    crate::region::AccessMode::In => "in",
                    crate::region::AccessMode::Out => "out",
                    crate::region::AccessMode::InOut => "inout",
                };
                let _ = write!(
                    out,
                    "{}{} {}",
                    if i > 0 { ", " } else { "" },
                    mode,
                    a.region
                );
            }
            out.push_str("]\n");
        }
        // Longest currently-blocked causal chain: a task still holding a
        // TAMPI event, or still waiting for its gate, transitively blocks
        // every successor downstream of it. Walking successor edges from
        // each such task names the chain the stall propagates through;
        // the awaited message itself shows up in the "vmpi mailboxes"
        // diag section, whose pending receives name their posting task —
        // together: task → awaited message → sender rank.
        fn longest_chain(
            task: &Arc<TaskShared>,
            memo: &mut HashMap<u64, Vec<(u64, &'static str)>>,
        ) -> Vec<(u64, &'static str)> {
            if let Some(c) = memo.get(&task.id) {
                return c.clone();
            }
            // Placeholder guards against revisiting mid-walk (the live
            // graph is a DAG, but diagnostics must never recurse forever).
            memo.insert(task.id, Vec::new());
            let succs: SuccessorList = {
                let links = task.state.lock();
                if links.released {
                    return Vec::new();
                }
                links.successors.clone()
            };
            let mut best: Vec<(u64, &'static str)> = Vec::new();
            for s in &succs {
                let c = longest_chain(s, memo);
                if c.len() > best.len() {
                    best = c;
                }
            }
            let mut chain = vec![(task.id, task.label)];
            chain.append(&mut best);
            memo.insert(task.id, chain.clone());
            chain
        }
        let mut memo: HashMap<u64, Vec<(u64, &'static str)>> = HashMap::new();
        let mut best: Vec<(u64, &'static str)> = Vec::new();
        let mut best_awaits = String::new();
        for t in live_set.snapshot() {
            let Some(awaits) = awaiting(&t) else {
                continue;
            };
            let chain = longest_chain(&t, &mut memo);
            if chain.len() > best.len() {
                best = chain;
                best_awaits = awaits;
            }
        }
        if !best.is_empty() {
            out.push_str("longest blocked chain: ");
            for (i, (id, label)) in best.iter().enumerate() {
                let label = if label.is_empty() {
                    "<unlabeled>"
                } else {
                    label
                };
                if i == 0 {
                    let _ = write!(out, "task {id} '{label}' {best_awaits}");
                } else {
                    let _ = write!(out, " -> task {id} '{label}'");
                }
            }
            out.push('\n');
        }
        out
    }

    pub(crate) fn task_released(&self, id: u64) {
        if let Some(live_set) = &self.live_set {
            live_set.remove(id);
        }
        if self.live.fetch_sub(1, Ordering::AcqRel) == 1 {
            let _guard = self.wait_lock.lock();
            self.wait_cond.notify_all();
        }
    }

    /// Records a fatal failure observed inside the graph (task-body panic,
    /// failed event hold). First message wins; it is rethrown by the next
    /// `taskwait`/`taskwait_on` on the rank's main thread.
    pub(crate) fn poison(&self, msg: String) {
        let mut p = self.poisoned.lock();
        if p.is_none() {
            *p = Some(msg);
        }
        drop(p);
        let _guard = self.wait_lock.lock();
        self.wait_cond.notify_all();
    }

    /// Rethrows a stored poison message (no-op on a healthy runtime).
    pub(crate) fn rethrow_poison(&self) {
        let poisoned = self.poisoned.lock().clone();
        if let Some(msg) = poisoned {
            // Not an invariant: this is how a task panic, or a hold that
            // failed because the world went down, reaches the rank. The
            // rank's thread unwinds, `World::run` resumes the panic on the
            // caller's, and `elastic::run` turns a lost peer into a
            // `RunError`; any other panic is a bug and stays one.
            panic!("taskrt: {msg}");
        }
    }
}

/// A data-flow task runtime: an OmpSs-2-like pool of workers executing
/// dependency-ordered tasks. See the crate docs for the model.
///
/// Dropping the runtime shuts the workers down; tasks still pending at
/// that point are abandoned — call [`Runtime::taskwait`] first.
pub struct Runtime {
    inner: Arc<RtInner>,
    workers: Vec<JoinHandle<()>>,
    /// Keeps the watchdog diagnostic callback registered for the
    /// runtime's lifetime (None when observability is disabled).
    _diag: Option<obs::DiagGuard>,
}

impl Runtime {
    /// Creates a runtime with `workers` worker threads and default
    /// configuration.
    pub fn new(workers: usize) -> Runtime {
        Runtime::with_config(RuntimeConfig::with_workers(workers))
    }

    /// Creates a runtime from an explicit configuration.
    pub fn with_config(config: RuntimeConfig) -> Runtime {
        assert!(config.workers >= 1, "runtime needs at least one worker");
        let (scheduler, locals) = Scheduler::new(config.workers, config.immediate_successor);
        // The live-task map exists for diagnostics only (watchdog dumps);
        // in release builds without observability it is skipped entirely
        // so spawning pays no global lock for it.
        let track_live = cfg!(debug_assertions) || obs::is_enabled();
        let inner = Arc::new(RtInner {
            registry: Registry::new(),
            scheduler,
            trace: TraceCache::new(config.replay),
            next_id: AtomicU64::new(1),
            live: AtomicUsize::new(0),
            live_set: track_live.then(LiveSet::new),
            wait_lock: Mutex::new(()),
            wait_cond: Condvar::new(),
            stat_spawned: AtomicU64::new(0),
            stat_edges: AtomicU64::new(0),
            stat_ready_at_spawn: AtomicU64::new(0),
            stat_holds_acquired: AtomicU64::new(0),
            stat_holds_released: AtomicU64::new(0),
            stat_trace_records: AtomicU64::new(0),
            stat_trace_hits: AtomicU64::new(0),
            stat_trace_divergences: AtomicU64::new(0),
            stat_trace_invalidations: AtomicU64::new(0),
            stat_replayed_tasks: AtomicU64::new(0),
            stat_trace_closes: AtomicU64::new(0),
            stat_trace_freezes: AtomicU64::new(0),
            stat_rearmed_tasks: AtomicU64::new(0),
            stat_live_hwm: AtomicU64::new(0),
            stat_blocked_on_events: AtomicU64::new(0),
            obs_rank: AtomicU32::new(obs::UNKNOWN_RANK),
            san_rt: if depsan::is_enabled() {
                depsan::runtime_created()
            } else {
                0
            },
            poisoned: Mutex::new(None),
        });
        let diag = obs::is_enabled().then(|| {
            let weak = Arc::downgrade(&inner);
            obs::diagnostics().register("taskrt pending tasks", move || {
                weak.upgrade()
                    .map(|rt| rt.dump_pending())
                    .unwrap_or_default()
            })
        });
        let workers = locals
            .into_iter()
            .enumerate()
            .map(|(i, local)| {
                let rt = Arc::clone(&inner);
                std::thread::Builder::new()
                    .name(format!("taskrt-worker-{i}"))
                    .spawn(move || rt.scheduler.worker_loop(local, i))
                    // Fails only when the OS refuses another thread (a
                    // `--workers` past its thread limit): resource
                    // exhaustion, like a failed allocation, not an error a
                    // run can recover from.
                    .expect("spawn worker thread")
            })
            .collect();
        Runtime {
            inner,
            workers,
            _diag: diag,
        }
    }

    /// Attributes this runtime's observability events to a virtual rank
    /// (one runtime serves one rank in the miniAMR variants). Idempotent;
    /// cheap; a no-op in effect while observability is disabled.
    pub fn set_obs_rank(&self, rank: u32) {
        self.inner.obs_rank.store(rank, Ordering::Relaxed);
    }

    /// Starts building a task; finish with [`TaskBuilder::spawn`].
    pub fn task(&self) -> TaskBuilder<'_> {
        TaskBuilder {
            rt: self,
            accesses: Declared::Listed(AccessList::new()),
            priority: 0,
            label: "",
            body: None,
            gate: None,
        }
    }

    /// Spawns a task with explicit accesses (convenience for the builder).
    pub fn spawn(&self, accesses: Vec<Access>, body: impl FnOnce() + Send + 'static) {
        let accesses = Declared::Listed(accesses.into());
        self.spawn_boxed(accesses, 0, "", TaskBody::once(body));
    }

    /// Shared reference to the runtime internals (trace layer plumbing).
    pub(crate) fn inner(&self) -> &Arc<RtInner> {
        &self.inner
    }

    /// Returns the task's depsan id (0 while the sanitizer is disabled).
    fn spawn_boxed(
        &self,
        accesses: Declared,
        priority: i32,
        label: &'static str,
        body: TaskBody,
    ) -> u64 {
        let inner = &self.inner;
        // Consult the trace cache first: inside a replaying scope the
        // spawn re-arms the task recorded at its position and the claim
        // table is bypassed entirely.
        let route = if inner.trace.enabled {
            trace::route_spawn(inner, label, priority, &accesses)
        } else {
            Route::Untraced
        };
        if matches!(route, Route::Replay) {
            return trace::replay_spawn(inner, label, priority, accesses, body);
        }
        let san_id = if inner.san_rt != 0 {
            inner.san_spawned(label, &accesses, None)
        } else {
            0
        };
        let id = inner.next_task_id();
        let task = inner.new_task(id, san_id, priority, label, accesses.into_shared(), body);
        inner.task_born(&task);
        // Fresh analysis must see any still-live replayed tasks in the
        // claim table, so flush them back in first.
        if inner.trace.enabled {
            trace::flush_bypassed(inner);
        }
        let edges = inner.registry.register(&task);
        if matches!(route, Route::Recording) {
            trace::record_spawn(inner, &task);
        }
        inner.launch(&task, edges, false);
        san_id
    }

    /// Blocks until every spawned task (including tasks spawned by tasks)
    /// has released its dependencies.
    ///
    /// Must be called from outside task bodies (the main thread of a
    /// rank); calling it from inside a task would stall a worker.
    pub fn taskwait(&self) {
        debug_assert!(
            crate::task::current_task_id().is_none(),
            "taskwait called from inside a task body"
        );
        let mut guard = self.inner.wait_lock.lock();
        // Only a taskwait that actually blocks becomes a wait span.
        let wait_from = if self.inner.live.load(Ordering::Acquire) != 0 {
            obs::bus().map(|b| b.now_us())
        } else {
            None
        };
        while self.inner.live.load(Ordering::Acquire) != 0 {
            self.inner.wait_cond.wait(&mut guard);
        }
        drop(guard);
        self.inner.rethrow_poison();
        if let (Some(start_us), Some(bus)) = (wait_from, obs::bus()) {
            bus.emit_for_rank(
                self.inner.rank(),
                obs::EventData::WaitSpan {
                    kind: "taskwait",
                    start_us,
                    end_us: bus.now_us(),
                },
            );
        }
        if self.inner.san_rt != 0 {
            // Everything spawned so far (including event holds, which keep
            // tasks live) happens-before everything spawned from now on.
            depsan::taskwait_joined(self.inner.san_rt);
        }
    }

    /// OmpSs-2 *taskwait with dependencies*: blocks until all live tasks
    /// conflicting with an `inout` access on `regions` have released —
    /// without draining the rest of the task graph.
    pub fn taskwait_on(&self, regions: &[Region]) {
        let done = Arc::new((Mutex::new(false), Condvar::new()));
        let signal = Arc::clone(&done);
        let accesses = regions.iter().cloned().map(Access::read_write).collect();
        let waiter_san = self.spawn_boxed(
            Declared::Listed(accesses),
            // Jump the queue: the waiter should run as soon as its inputs
            // are quiescent.
            i32::MAX,
            "taskwait_on",
            TaskBody::once(move || {
                let (lock, cond) = &*signal;
                *lock.lock() = true;
                cond.notify_all();
            }),
        );
        let (lock, cond) = &*done;
        let mut flag = lock.lock();
        while !*flag {
            cond.wait(&mut flag);
        }
        drop(flag);
        self.inner.rethrow_poison();
        if waiter_san != 0 {
            // The waiter (and transitively its whole ancestor closure)
            // happens-before everything spawned from now on.
            depsan::taskwait_on_joined(self.inner.san_rt, waiter_san);
        }
    }

    /// Fork-join helper: runs `f` over `range` split into `chunks`
    /// contiguous pieces (static schedule, like an OpenMP `for`), then
    /// waits for completion. Spawned chunks carry no data dependencies;
    /// note that the final wait is a full [`Runtime::taskwait`].
    pub fn parallel_for<F>(&self, range: std::ops::Range<usize>, chunks: usize, f: F)
    where
        F: Fn(std::ops::Range<usize>) + Send + Sync + 'static,
    {
        let n = range.len();
        if n == 0 {
            return;
        }
        let chunks = chunks.max(1).min(n);
        let f = Arc::new(f);
        let base = range.start;
        for c in 0..chunks {
            let lo = base + n * c / chunks;
            let hi = base + n * (c + 1) / chunks;
            let f = Arc::clone(&f);
            self.spawn(Vec::new(), move || f(lo..hi));
        }
        self.taskwait();
    }

    /// Number of worker threads.
    pub fn workers(&self) -> usize {
        self.workers.len()
    }

    /// Snapshot of lifetime counters.
    pub fn stats(&self) -> RuntimeStats {
        let acquired = self.inner.stat_holds_acquired.load(Ordering::Relaxed);
        let released = self.inner.stat_holds_released.load(Ordering::Relaxed);
        RuntimeStats {
            spawned: self.inner.stat_spawned.load(Ordering::Relaxed),
            edges: self.inner.stat_edges.load(Ordering::Relaxed),
            ready_at_spawn: self.inner.stat_ready_at_spawn.load(Ordering::Relaxed),
            live_tasks: self.inner.live.load(Ordering::Acquire) as u64,
            holds_acquired: acquired,
            outstanding_holds: acquired.saturating_sub(released),
            trace_records: self.inner.stat_trace_records.load(Ordering::Relaxed),
            trace_hits: self.inner.stat_trace_hits.load(Ordering::Relaxed),
            trace_divergences: self.inner.stat_trace_divergences.load(Ordering::Relaxed),
            trace_invalidations: self.inner.stat_trace_invalidations.load(Ordering::Relaxed),
            replayed_tasks: self.inner.stat_replayed_tasks.load(Ordering::Relaxed),
            trace_closes: self.inner.stat_trace_closes.load(Ordering::Relaxed),
            trace_freezes: self.inner.stat_trace_freezes.load(Ordering::Relaxed),
            rearmed_tasks: self.inner.stat_rearmed_tasks.load(Ordering::Relaxed),
            live_tasks_hwm: self.inner.stat_live_hwm.load(Ordering::Relaxed),
            tasks_blocked_on_events: self.inner.stat_blocked_on_events.load(Ordering::Relaxed),
        }
    }

    /// Number of objects with live accesses (diagnostics; 0 after a
    /// `taskwait`).
    pub fn live_objects(&self) -> usize {
        self.inner.registry.live_objects()
    }
}

impl Drop for Runtime {
    fn drop(&mut self) {
        self.inner.scheduler.shutdown.store(true, Ordering::Release);
        self.inner.scheduler.notify_all();
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
        // Tasks hold the runtime and the trace cache holds tasks: break
        // the cycle, or none of it is ever freed.
        self.inner.trace.clear();
        // With the workers joined, the counts are final.
        if obs::is_enabled() {
            self.stats().publish();
        }
        // Sanitizer finalize lint (all builds, when enabled): leaked
        // tasks/holds become a reported violation instead of silence.
        if self.inner.san_rt != 0 && !std::thread::panicking() {
            let live = self.inner.live.load(Ordering::Acquire);
            let acquired = self.inner.stat_holds_acquired.load(Ordering::Relaxed);
            let released = self.inner.stat_holds_released.load(Ordering::Relaxed);
            if live != 0 || acquired != released {
                depsan::report(depsan::Violation {
                    kind: depsan::ViolationKind::FinalizeLeak,
                    rank: self.inner.rank(),
                    task: 0,
                    label: String::new(),
                    obj: 0,
                    detail: format!(
                        "runtime dropped with {live} unreleased task(s) and {} outstanding event hold(s) — missing taskwait or leaked EventHold",
                        acquired.saturating_sub(released),
                    ),
                });
            }
        }
        // Leak check (debug builds): a runtime dropped with live tasks or
        // unreleased event holds abandoned work — almost always a missing
        // `taskwait` or a leaked `EventHold` whose completion callback
        // never fired.
        #[cfg(debug_assertions)]
        if !std::thread::panicking() {
            let live = self.inner.live.load(Ordering::Acquire);
            let acquired = self.inner.stat_holds_acquired.load(Ordering::Relaxed);
            let released = self.inner.stat_holds_released.load(Ordering::Relaxed);
            assert!(
                live == 0 && acquired == released,
                "Runtime dropped with {live} unreleased task(s) and {} outstanding event hold(s) \
                 — missing taskwait or leaked EventHold",
                acquired.saturating_sub(released),
            );
        }
    }
}

/// Fluent task construction: accesses, priority, label, body.
pub struct TaskBuilder<'rt> {
    rt: &'rt Runtime,
    accesses: Declared,
    priority: i32,
    label: &'static str,
    body: Option<TaskBody>,
    gate: Option<Gate>,
}

impl<'rt> TaskBuilder<'rt> {
    /// Declares a read (`in`) dependency.
    pub fn input(self, region: Region) -> Self {
        self.access(Access::read(region))
    }

    /// Declares a write (`out`) dependency.
    pub fn out(self, region: Region) -> Self {
        self.access(Access::write(region))
    }

    /// Declares a read-write (`inout`) dependency.
    pub fn inout(self, region: Region) -> Self {
        self.access(Access::read_write(region))
    }

    /// Adds a pre-built access (multi-dependency friendly).
    pub fn access(self, access: Access) -> Self {
        self.accesses(std::iter::once(access))
    }

    /// Adds many accesses at once (the paper's multideps).
    pub fn accesses(mut self, iter: impl IntoIterator<Item = Access>) -> Self {
        let mut list = match self.accesses {
            Declared::Listed(list) => list,
            Declared::Shared(shared) => shared.iter().cloned().collect(),
        };
        list.extend(iter);
        self.accesses = Declared::Listed(list);
        self
    }

    /// Declares a shared access list: the task points at it, as does every
    /// other task spawned with it, instead of holding a copy. Replaces
    /// anything declared before.
    pub fn access_list(mut self, accesses: Accesses) -> Self {
        self.accesses = Declared::Shared(accesses);
        self
    }

    /// Scheduling priority (higher runs earlier among ready tasks).
    pub fn priority(mut self, priority: i32) -> Self {
        self.priority = priority;
        self
    }

    /// Debug label shown in panics and traces.
    pub fn label(mut self, label: &'static str) -> Self {
        self.label = label;
        self
    }

    /// Sets the task body.
    pub fn body(mut self, body: impl FnOnce() + Send + 'static) -> Self {
        self.body = Some(TaskBody::once(body));
        self
    }

    /// Sets a re-runnable task body that other tasks may hold as well: any
    /// number of task objects, live at once or not, run the one closure
    /// (the tasks a template spawns in every call of it). It is called
    /// through a shared reference, so it must leave its captures in place
    /// (clone what it hands on).
    pub fn body_shared(mut self, body: Body) -> Self {
        self.body = Some(TaskBody {
            run: Run::Many(body),
            gate: None,
        });
        self
    }

    /// Sets an on-ready gate (OmpSs-2's `onready`): `gate` runs once the
    /// task's last predecessor has released — inside `spawn` when it has
    /// none left, never while one is still live — and the task becomes
    /// ready only once the [`GateHold`] it is handed opens (dropped,
    /// [`GateHold::open`] or [`GateHold::fail`]), from any thread, inside
    /// the call or later. The gate runs on whichever thread released that
    /// last predecessor (or spawned the task), under the task's sanitizer
    /// scope and obs task id, so it must be short and must not block. It
    /// runs once per run of the task object: a replay that re-arms the
    /// object runs the gate of the matching spawn, once the re-armed
    /// task's predecessors have released.
    pub fn on_ready(self, gate: impl Fn(GateHold) + Send + Sync + 'static) -> Self {
        self.on_ready_shared(Arc::new(gate))
    }

    /// [`Self::on_ready`] with a gate other tasks may hold as well.
    pub fn on_ready_shared(mut self, gate: Gate) -> Self {
        self.gate = Some(gate);
        self
    }

    /// Spawns the task.
    ///
    /// # Panics
    ///
    /// Panics if no body was set.
    pub fn spawn(self) {
        // Invariant: every spawn site sets a body; a builder without one
        // is a caller bug whatever the input.
        let mut body = self.body.expect("task spawned without a body");
        body.gate = self.gate;
        self.rt
            .spawn_boxed(self.accesses, self.priority, self.label, body);
    }
}
