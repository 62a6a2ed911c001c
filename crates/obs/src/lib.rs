//! `obs` — end-to-end data-flow observability for the miniAMR workspace.
//!
//! The paper's methodology leans on Extrae/Paraver traces to explain
//! *why* the data-flow variant overlaps communication with computation;
//! this crate is the equivalent instrument for our virtual-MPI world:
//!
//! * a lock-light structured **event bus** ([`EventBus`]) that taskrt,
//!   vmpi and tampi feed with task-lifecycle, message and hold events;
//! * a **Chrome `trace_event` exporter** ([`export_chrome`]) that merges
//!   every rank into one Perfetto-loadable timeline (one process per
//!   rank, one lane per worker, counter tracks for ready tasks,
//!   in-flight requests and queued bytes);
//! * a **metrics registry** ([`metrics`]) of named atomic counters and
//!   gauges surfaced in the CLI summary;
//! * a **stall watchdog** ([`Watchdog`]) that turns silent dataflow
//!   deadlocks into a diagnostic dump, handed to its owner.
//!
//! Everything is off by default. The *only* cost on the disabled path is
//! a relaxed atomic load and a branch (`bus()` returning `None`), so the
//! PR-1 zero-allocation hot paths and the kernel benchmarks are
//! unaffected until someone passes `--trace-json` / `--metrics` /
//! `--watchdog_ms`.

mod bus;
mod chrome;
pub mod critpath;
mod event;
pub mod json;
mod metrics;
pub mod report;
pub mod span;
mod watchdog;

pub use bus::{Drained, EventBus, DEFAULT_RING_CAPACITY};
pub use chrome::export_chrome;
pub use event::{Event, EventData, LANE_MAIN, LANE_NET, UNKNOWN_RANK};
pub use metrics::{metrics, Counter, Gauge, Histogram, HistogramSnapshot, MetricsRegistry};
pub use watchdog::{diagnostics, DiagGuard, DiagRegistry, Watchdog};

use std::cell::Cell;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::OnceLock;

// Process-wide because one trace spans the process: every world, runtime
// and job (`--jobs N`) emits into the one bus that `--trace-json` exports,
// and the disabled path must stay one relaxed load with no handle to pass.
static ENABLED: AtomicBool = AtomicBool::new(false);
static BUS: OnceLock<EventBus> = OnceLock::new();

/// Turns the global event bus on (idempotent) and returns it.
pub fn enable() -> &'static EventBus {
    enable_with_capacity(DEFAULT_RING_CAPACITY)
}

/// Turns the global event bus on with a per-stripe ring capacity. The
/// capacity is only honoured by the call that actually creates the bus.
pub fn enable_with_capacity(ring_capacity: usize) -> &'static EventBus {
    let bus = BUS.get_or_init(|| EventBus::new(ring_capacity));
    ENABLED.store(true, Ordering::Release);
    bus
}

/// True once [`enable`] has been called. Cheap enough to gate metric
/// increments with.
#[inline]
pub fn is_enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// The global event bus, or `None` while observability is disabled.
///
/// This is the instrumentation entry point: every emit site in taskrt /
/// vmpi / tampi is written as `if let Some(bus) = obs::bus() { ... }`,
/// which compiles down to a relaxed load and a predictable branch on the
/// disabled path.
#[inline]
pub fn bus() -> Option<&'static EventBus> {
    if is_enabled() {
        BUS.get()
    } else {
        None
    }
}

thread_local! {
    static THREAD_RANK: Cell<u32> = const { Cell::new(UNKNOWN_RANK) };
    static THREAD_WORKER: Cell<u32> = const { Cell::new(LANE_MAIN) };
    static THREAD_TASK: Cell<u64> = const { Cell::new(0) };
}

/// Runs `f` as one phase interval of `kind` on the calling thread: while
/// the bus is on, the interval becomes one [`EventData::Span`] on the bus
/// clock; while it is off, this costs what [`bus`] costs. For work a
/// rank's own thread does outside any task — a task's interval is its own
/// `TaskStart`/`TaskEnd` pair under its label.
#[inline]
pub fn phase_span<R>(kind: &'static str, f: impl FnOnce() -> R) -> R {
    let Some(bus) = bus() else {
        return f();
    };
    let start_us = bus.now_us();
    let out = f();
    bus.emit(EventData::Span {
        kind,
        start_us,
        end_us: bus.now_us(),
    });
    out
}

/// Declares which virtual rank the calling thread belongs to. Called by
/// `vmpi::World::run` when a rank thread starts, and inherited by taskrt
/// workers via [`set_thread_rank`] at runtime construction.
pub fn set_thread_rank(rank: u32) {
    THREAD_RANK.with(|r| r.set(rank));
}

/// Declares the calling thread's timeline lane: a taskrt worker index,
/// [`LANE_MAIN`] for a rank's main thread, or [`LANE_NET`] for the
/// delivery/network thread.
pub fn set_thread_worker(worker: u32) {
    THREAD_WORKER.with(|w| w.set(worker));
}

/// The calling thread's `(rank, worker)` attribution, defaulting to
/// `(UNKNOWN_RANK, LANE_MAIN)` for threads that never declared one.
#[inline]
pub fn thread_ctx() -> (u32, u32) {
    (THREAD_RANK.with(Cell::get), THREAD_WORKER.with(Cell::get))
}

/// Declares which task the calling thread is currently executing and
/// returns the previous value so nested executions can restore it.
///
/// `taskrt` sets this around task bodies (only while tracing is on) so
/// layers below it — `vmpi` in particular — can attribute message events
/// to the posting task without a dependency on the task runtime.
pub fn set_thread_task(task: u64) -> u64 {
    THREAD_TASK.with(|t| t.replace(task))
}

/// The task id the calling thread is executing, or 0 outside any task
/// (or when tracing is disabled — [`set_thread_task`] is gated).
#[inline]
pub fn thread_task() -> u64 {
    THREAD_TASK.with(Cell::get)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn thread_ctx_defaults_and_is_per_thread() {
        std::thread::spawn(|| {
            assert_eq!(thread_ctx(), (UNKNOWN_RANK, LANE_MAIN));
            set_thread_rank(3);
            set_thread_worker(1);
            assert_eq!(thread_ctx(), (3, 1));
        })
        .join()
        .unwrap();
        // This thread's context is untouched by the other thread.
        std::thread::spawn(|| {
            assert_eq!(thread_ctx(), (UNKNOWN_RANK, LANE_MAIN));
        })
        .join()
        .unwrap();
    }

    #[test]
    fn bus_is_none_until_enabled_then_sticky() {
        // Test processes share globals; other tests may already have
        // enabled the bus, so only assert the post-enable contract.
        let bus = enable();
        assert!(is_enabled());
        let again = enable_with_capacity(4);
        assert!(std::ptr::eq(bus, again), "enable is idempotent");
        assert!(std::ptr::eq(bus, super::bus().unwrap()));
    }
}
