//! Each `taskrt.*` fact reaches the process-wide metrics registry once: a
//! runtime keeps its own counters while it runs and adds them to the
//! registry when it is dropped.
//!
//! Lives in its own integration-test binary: enabling observability is
//! process-global and sticky, and the registry sums every runtime in the
//! process, so another test's runtime would change the totals.

use std::sync::mpsc;
use std::time::{Duration, Instant};
use taskrt::{ObjId, Region, Runtime, RuntimeStats};

/// `iters` traced iterations of a chain of `n` tasks (the first records,
/// the rest replay), one iteration with an extra task (a divergence), an
/// invalidation, and one task whose body returns holding an event hold.
/// Returns the runtime's counts once it is quiescent.
fn workload(rt: &Runtime, iters: usize, n: usize) -> RuntimeStats {
    let obj = ObjId::fresh();
    for extra in (0..iters).map(|i| usize::from(i + 1 == iters)) {
        let scope = rt.trace_scope(7);
        for _ in 0..n + extra {
            rt.task().inout(Region::new(obj, 0..1)).body(|| {}).spawn();
        }
        drop(scope);
        rt.taskwait();
    }
    rt.invalidate_traces();
    let (tx, rx) = mpsc::channel();
    rt.task()
        .out(Region::new(obj, 0..1))
        .body(move || tx.send(taskrt::current_event_hold()).unwrap())
        .spawn();
    let hold = rx.recv().unwrap();
    // Released only once the body has returned holding it.
    let deadline = Instant::now() + Duration::from_secs(10);
    while rt.stats().tasks_blocked_on_events == 0 {
        assert!(Instant::now() < deadline, "the body never returned");
        std::thread::sleep(Duration::from_millis(1));
    }
    hold.release();
    rt.taskwait();
    rt.stats()
}

fn registry_value(name: &str) -> Option<i64> {
    (obs::metrics().snapshot().into_iter())
        .find(|(n, _)| *n == name)
        .map(|(_, v)| v)
}

#[test]
fn dropped_runtimes_publish_their_final_counts_once() {
    obs::enable();
    let a = Runtime::new(2);
    let b = Runtime::new(1);
    let sa = workload(&a, 4, 50);
    let sb = workload(&b, 3, 200);
    let taskrt_names = || {
        (obs::metrics().snapshot().into_iter())
            .filter(|(n, _)| n.starts_with("taskrt."))
            .count()
    };
    assert_eq!(taskrt_names(), 0, "a live runtime adds nothing");
    drop(a);
    drop(b);

    let sum = |f: fn(&RuntimeStats) -> u64| (f(&sa) + f(&sb)) as i64;
    let expected: [(&str, i64); 10] = [
        ("taskrt.tasks_spawned", sum(|s| s.spawned)),
        ("taskrt.dep_edges", sum(|s| s.edges)),
        (
            "taskrt.tasks_blocked_on_events",
            sum(|s| s.tasks_blocked_on_events),
        ),
        ("taskrt.replayed_tasks", sum(|s| s.replayed_tasks)),
        ("taskrt.rearmed_tasks", sum(|s| s.rearmed_tasks)),
        ("taskrt.trace_records", sum(|s| s.trace_records)),
        ("taskrt.trace_closes", sum(|s| s.trace_closes)),
        ("taskrt.trace_hits", sum(|s| s.trace_hits)),
        ("taskrt.trace_divergences", sum(|s| s.trace_divergences)),
        ("taskrt.trace_invalidations", sum(|s| s.trace_invalidations)),
    ];
    for (name, value) in expected {
        assert_eq!(registry_value(name), Some(value), "{name}");
    }
    let hwm = sa.live_tasks_hwm.max(sb.live_tasks_hwm) as i64;
    assert_eq!(registry_value("taskrt.live_tasks_hwm"), Some(hwm));
    assert_eq!(taskrt_names(), expected.len() + 1);

    // The workload exercised every counter it could.
    assert!(sa.replayed_tasks > 0 && sb.replayed_tasks > 0);
    assert!(sa.trace_divergences > 0 && sa.trace_invalidations == 1);
    assert_eq!(sa.tasks_blocked_on_events, 1);
    assert!(sa.live_tasks_hwm >= 1 && sb.live_tasks_hwm >= 1);
}
