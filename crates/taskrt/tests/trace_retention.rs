//! A runtime that traced and replayed must free its tasks when dropped.
//!
//! The replay cache keeps `Arc`s to the latest iteration's tasks, and
//! every task keeps an `Arc` to its runtime: unless the cache lets go
//! when the runtime is dropped, that cycle keeps the runtime and every
//! task it ever traced alive. A counting global allocator (hence a test
//! binary of its own) measures what is still allocated afterwards.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicIsize, Ordering};
use taskrt::{ObjId, Region, Runtime};

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

#[test]
fn dropped_runtime_frees_its_traced_tasks() {
    let obj = ObjId::fresh();
    // Warm-up: whatever the process allocates once and keeps (thread
    // bookkeeping, lazily built tables) is allocated here.
    traced_run(obj);
    let baseline = LIVE.load(Ordering::Relaxed);
    traced_run(obj);
    let retained = LIVE.load(Ordering::Relaxed) - baseline;
    // One leaked task is some 300 bytes, a leaked run over a megabyte.
    assert!(
        retained < 1024,
        "{retained} bytes still allocated after the runtime was dropped \
         ({} tasks spawned)",
        TASKS * ITERS
    );
}
