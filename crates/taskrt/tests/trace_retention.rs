//! A runtime that traced and replayed, or compiled a trace it never
//! replayed, must free its tasks when dropped.
//!
//! The replay cache keeps `Arc`s to the latest iteration's tasks, and
//! every task keeps an `Arc` to its runtime: unless the cache lets go
//! when the runtime is dropped, that cycle keeps the runtime and every
//! task it ever traced alive. A counting global allocator (hence a test
//! binary of its own) measures what is still allocated afterwards.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicIsize, Ordering};
use std::sync::Arc;
use taskrt::{Access, Body, ObjId, Region, Runtime, TaskDesc};

/// Wraps the system allocator, tracking the bytes currently allocated
/// process-wide (tasks are allocated on the submitting thread and freed
/// on workers). `alloc_zeroed` and `realloc` keep their default bodies,
/// which go through the two methods below.
struct LiveBytes;

static LIVE: AtomicIsize = AtomicIsize::new(0);

unsafe impl GlobalAlloc for LiveBytes {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LIVE.fetch_add(layout.size() as isize, Ordering::Relaxed);
        // SAFETY: forwarded unchanged; the caller upholds `alloc`'s contract.
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size() as isize, Ordering::Relaxed);
        // SAFETY: forwarded unchanged; the caller upholds `dealloc`'s contract.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOC: LiveBytes = LiveBytes;

const TASKS: usize = 500;
const ITERS: usize = 8;

/// Builds a runtime, runs `ITERS` traced iterations of a chained stream
/// on it (one records, the rest replay) and drops it.
fn traced_run(obj: ObjId) {
    let rt = Runtime::new(2);
    for _ in 0..ITERS {
        let scope = rt.trace_scope(1);
        for i in 0..TASKS {
            rt.task()
                .inout(Region::new(obj, i % 4..i % 4 + 1))
                .body(|| {})
                .spawn();
        }
        drop(scope);
        rt.taskwait();
    }
    let s = rt.stats();
    assert!(
        s.trace_hits >= 4,
        "needs at least four replayed iterations: {s:?}"
    );
    drop(rt);
}

/// Builds a runtime, compiles a trace of `TASKS` descriptions on it and
/// drops it without opening a scope: every slot still holds its
/// placeholder, and every placeholder holds the runtime.
fn compiled_run(obj: ObjId) {
    let rt = Runtime::new(2);
    let body: Body = Arc::new(|| {});
    let descs: Vec<Arc<TaskDesc>> = (0..TASKS)
        .map(|i| {
            let write = Access::read_write(Region::new(obj, i % 4..i % 4 + 1));
            Arc::new(TaskDesc::new("", 0, [write], Arc::clone(&body)))
        })
        .collect();
    assert!(rt.compile_trace(1, &descs), "the stream froze");
    drop(rt);
}

/// One test function: the two runs must not overlap on the counter.
#[test]
fn dropped_runtime_frees_its_traced_tasks() {
    let obj = ObjId::fresh();
    for (what, run) in [
        ("replayed", traced_run as fn(ObjId)),
        ("compiled", compiled_run),
    ] {
        // Warm-up: whatever the process allocates once and keeps (thread
        // bookkeeping, lazily built tables) is allocated here.
        run(obj);
        let baseline = LIVE.load(Ordering::Relaxed);
        run(obj);
        let retained = LIVE.load(Ordering::Relaxed) - baseline;
        // One leaked task is some 200 bytes, a leaked run over 100 kB.
        assert!(
            retained < 1024,
            "{retained} bytes still allocated after the runtime of a {what} trace was \
             dropped ({TASKS} tasks a stream)"
        );
    }
}
