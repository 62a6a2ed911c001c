//! Dependency-ordering semantics of the task runtime.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use taskrt::{Access, ObjId, Region, Runtime, RuntimeConfig};

/// Spawns `writer then reader` on overlapping regions and checks order.
#[test]
fn raw_dependency_orders_writer_before_reader() {
    for _ in 0..20 {
        let rt = Runtime::new(4);
        let obj = ObjId::fresh();
        let cell = Arc::new(AtomicUsize::new(0));
        let c1 = Arc::clone(&cell);
        rt.task()
            .out(Region::new(obj, 0..10))
            .body(move || {
                std::thread::sleep(std::time::Duration::from_micros(50));
                c1.store(42, Ordering::SeqCst);
            })
            .spawn();
        let c2 = Arc::clone(&cell);
        let seen = Arc::new(AtomicUsize::new(0));
        let s2 = Arc::clone(&seen);
        rt.task()
            .input(Region::new(obj, 5..6))
            .body(move || {
                s2.store(c2.load(Ordering::SeqCst), Ordering::SeqCst);
            })
            .spawn();
        rt.taskwait();
        assert_eq!(seen.load(Ordering::SeqCst), 42);
    }
}

#[test]
fn war_dependency_orders_reader_before_writer() {
    for _ in 0..20 {
        let rt = Runtime::new(4);
        let obj = ObjId::fresh();
        let cell = Arc::new(AtomicUsize::new(7));
        let seen = Arc::new(AtomicUsize::new(0));
        let (c1, s1) = (Arc::clone(&cell), Arc::clone(&seen));
        rt.task()
            .input(Region::new(obj, 0..10))
            .body(move || {
                std::thread::sleep(std::time::Duration::from_micros(50));
                s1.store(c1.load(Ordering::SeqCst), Ordering::SeqCst);
            })
            .spawn();
        let c2 = Arc::clone(&cell);
        rt.task()
            .out(Region::new(obj, 0..10))
            .body(move || c2.store(99, Ordering::SeqCst))
            .spawn();
        rt.taskwait();
        assert_eq!(seen.load(Ordering::SeqCst), 7, "writer overtook the reader");
        assert_eq!(cell.load(Ordering::SeqCst), 99);
    }
}

#[test]
fn waw_chain_executes_in_spawn_order() {
    let rt = Runtime::new(4);
    let obj = ObjId::fresh();
    let log = Arc::new(Mutex::new(Vec::new()));
    for i in 0..16 {
        let log = Arc::clone(&log);
        rt.task()
            .inout(Region::new(obj, 0..1))
            .body(move || log.lock().unwrap().push(i))
            .spawn();
    }
    rt.taskwait();
    let log = log.lock().unwrap();
    assert_eq!(*log, (0..16).collect::<Vec<_>>());
}

#[test]
fn disjoint_regions_run_concurrently() {
    // With 4 workers and 4 tasks on disjoint regions, all four must be in
    // flight at once (each waits for the others at a barrier-like gate).
    let rt = Runtime::new(4);
    let obj = ObjId::fresh();
    let gate = Arc::new(AtomicUsize::new(0));
    for i in 0..4usize {
        let gate = Arc::clone(&gate);
        rt.task()
            .out(Region::new(obj, i * 10..(i + 1) * 10))
            .body(move || {
                gate.fetch_add(1, Ordering::SeqCst);
                let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
                while gate.load(Ordering::SeqCst) < 4 {
                    assert!(
                        std::time::Instant::now() < deadline,
                        "tasks did not run concurrently"
                    );
                    std::thread::yield_now();
                }
            })
            .spawn();
    }
    rt.taskwait();
    assert_eq!(gate.load(Ordering::SeqCst), 4);
}

#[test]
fn readers_share_then_writer_waits_for_all() {
    let rt = Runtime::new(4);
    let obj = ObjId::fresh();
    let readers_done = Arc::new(AtomicUsize::new(0));
    for _ in 0..6 {
        let rd = Arc::clone(&readers_done);
        rt.task()
            .input(Region::new(obj, 0..10))
            .body(move || {
                std::thread::sleep(std::time::Duration::from_micros(100));
                rd.fetch_add(1, Ordering::SeqCst);
            })
            .spawn();
    }
    let rd = Arc::clone(&readers_done);
    let writer_saw = Arc::new(AtomicUsize::new(usize::MAX));
    let ws = Arc::clone(&writer_saw);
    rt.task()
        .out(Region::new(obj, 0..10))
        .body(move || ws.store(rd.load(Ordering::SeqCst), Ordering::SeqCst))
        .spawn();
    rt.taskwait();
    assert_eq!(
        writer_saw.load(Ordering::SeqCst),
        6,
        "writer ran before all readers finished"
    );
}

#[test]
fn multidep_task_waits_for_all_producers() {
    let rt = Runtime::new(4);
    let objs: Vec<ObjId> = (0..8).map(|_| ObjId::fresh()).collect();
    let produced = Arc::new(AtomicUsize::new(0));
    for &obj in &objs {
        let p = Arc::clone(&produced);
        rt.task()
            .out(Region::new(obj, 0..4))
            .body(move || {
                std::thread::sleep(std::time::Duration::from_micros(30));
                p.fetch_add(1, Ordering::SeqCst);
            })
            .spawn();
    }
    // A single "aggregated send" task depending on all eight sections — the
    // paper's multi-dependency pattern.
    let p = Arc::clone(&produced);
    let saw = Arc::new(AtomicUsize::new(0));
    let s = Arc::clone(&saw);
    rt.task()
        .accesses(objs.iter().map(|&o| Access::read(Region::new(o, 0..4))))
        .body(move || s.store(p.load(Ordering::SeqCst), Ordering::SeqCst))
        .spawn();
    rt.taskwait();
    assert_eq!(saw.load(Ordering::SeqCst), 8);
}

#[test]
fn non_overlapping_ranges_of_same_object_are_independent() {
    let rt = Runtime::new(2);
    let obj = ObjId::fresh();
    let first_done = Arc::new(AtomicUsize::new(0));
    let fd = Arc::clone(&first_done);
    // A long-running writer on vars 0..20.
    rt.task()
        .out(Region::new(obj, 0..20))
        .body(move || {
            std::thread::sleep(std::time::Duration::from_millis(20));
            fd.store(1, Ordering::SeqCst);
        })
        .spawn();
    // A writer on vars 20..40 must not wait for it.
    let fd = Arc::clone(&first_done);
    let overlapped = Arc::new(AtomicUsize::new(0));
    let ov = Arc::clone(&overlapped);
    rt.task()
        .out(Region::new(obj, 20..40))
        .body(move || {
            ov.store(
                if fd.load(Ordering::SeqCst) == 0 { 1 } else { 0 },
                Ordering::SeqCst,
            );
        })
        .spawn();
    rt.taskwait();
    assert_eq!(
        overlapped.load(Ordering::SeqCst),
        1,
        "disjoint ranges were serialized"
    );
}

#[test]
fn taskwait_on_waits_only_for_named_regions() {
    let rt = Runtime::new(2);
    let fast = ObjId::fresh();
    let slow = ObjId::fresh();
    let slow_done = Arc::new(AtomicUsize::new(0));
    let fast_done = Arc::new(AtomicUsize::new(0));
    let sd = Arc::clone(&slow_done);
    rt.task()
        .out(Region::new(slow, 0..1))
        .body(move || {
            std::thread::sleep(std::time::Duration::from_millis(50));
            sd.store(1, Ordering::SeqCst);
        })
        .spawn();
    let fd = Arc::clone(&fast_done);
    rt.task()
        .out(Region::new(fast, 0..1))
        .body(move || fd.store(1, Ordering::SeqCst))
        .spawn();

    rt.taskwait_on(&[Region::new(fast, 0..1)]);
    assert_eq!(fast_done.load(Ordering::SeqCst), 1);
    assert_eq!(
        slow_done.load(Ordering::SeqCst),
        0,
        "taskwait_on drained unrelated work"
    );
    rt.taskwait();
    assert_eq!(slow_done.load(Ordering::SeqCst), 1);
}

#[test]
fn nested_spawns_are_awaited_by_taskwait() {
    let rt = Arc::new(Runtime::new(3));
    let count = Arc::new(AtomicUsize::new(0));
    let rt2 = Arc::clone(&rt);
    let c = Arc::clone(&count);
    rt.spawn(Vec::new(), move || {
        for _ in 0..10 {
            let c = Arc::clone(&c);
            rt2.spawn(Vec::new(), move || {
                std::thread::sleep(std::time::Duration::from_micros(100));
                c.fetch_add(1, Ordering::SeqCst);
            });
        }
    });
    rt.taskwait();
    assert_eq!(count.load(Ordering::SeqCst), 10);
}

#[test]
fn parallel_for_covers_range_exactly_once() {
    let rt = Runtime::new(4);
    let hits: Arc<Vec<AtomicUsize>> = Arc::new((0..1000).map(|_| AtomicUsize::new(0)).collect());
    let h = Arc::clone(&hits);
    rt.parallel_for(0..1000, 16, move |r| {
        for i in r {
            h[i].fetch_add(1, Ordering::SeqCst);
        }
    });
    for (i, h) in hits.iter().enumerate() {
        assert_eq!(
            h.load(Ordering::SeqCst),
            1,
            "index {i} covered wrong number of times"
        );
    }
}

#[test]
fn parallel_for_empty_range_is_noop() {
    let rt = Runtime::new(2);
    rt.parallel_for(5..5, 8, |_| panic!("must not run"));
}

#[test]
fn event_hold_defers_release() {
    let rt = Runtime::new(2);
    let obj = ObjId::fresh();
    let hold_slot: Arc<Mutex<Option<taskrt::EventHold>>> = Arc::new(Mutex::new(None));
    let hs = Arc::clone(&hold_slot);
    let successor_ran = Arc::new(AtomicUsize::new(0));
    rt.task()
        .out(Region::new(obj, 0..1))
        .body(move || {
            *hs.lock().unwrap() = Some(taskrt::current_event_hold());
        })
        .spawn();
    let sr = Arc::clone(&successor_ran);
    rt.task()
        .input(Region::new(obj, 0..1))
        .body(move || {
            sr.store(1, Ordering::SeqCst);
        })
        .spawn();

    // Give the first task time to finish its body; the successor must
    // still be blocked by the outstanding hold.
    std::thread::sleep(std::time::Duration::from_millis(30));
    assert_eq!(
        successor_ran.load(Ordering::SeqCst),
        0,
        "hold did not defer release"
    );
    hold_slot.lock().unwrap().take(); // drop the hold
    rt.taskwait();
    assert_eq!(successor_ran.load(Ordering::SeqCst), 1);
}

#[test]
fn event_hold_released_from_foreign_thread() {
    let rt = Runtime::new(2);
    let obj = ObjId::fresh();
    let (tx, rx) = std::sync::mpsc::channel::<taskrt::EventHold>();
    rt.task()
        .out(Region::new(obj, 0..1))
        .body(move || {
            tx.send(taskrt::current_event_hold()).unwrap();
        })
        .spawn();
    let done = Arc::new(AtomicUsize::new(0));
    let d = Arc::clone(&done);
    rt.task()
        .input(Region::new(obj, 0..1))
        .body(move || d.store(1, Ordering::SeqCst))
        .spawn();

    let hold = rx.recv().unwrap();
    // Simulates the communication substrate completing a request on its
    // own thread.
    let releaser = std::thread::spawn(move || {
        std::thread::sleep(std::time::Duration::from_millis(10));
        hold.release();
    });
    rt.taskwait();
    releaser.join().unwrap();
    assert_eq!(done.load(Ordering::SeqCst), 1);
}

#[test]
fn immediate_successor_can_be_disabled() {
    let rt = Runtime::with_config(RuntimeConfig {
        workers: 2,
        immediate_successor: false,
    });
    let obj = ObjId::fresh();
    let sum = Arc::new(AtomicUsize::new(0));
    for _ in 0..50 {
        let s = Arc::clone(&sum);
        rt.task()
            .inout(Region::new(obj, 0..1))
            .body(move || {
                s.fetch_add(1, Ordering::SeqCst);
            })
            .spawn();
    }
    rt.taskwait();
    assert_eq!(sum.load(Ordering::SeqCst), 50);
}

#[test]
fn stats_count_edges_and_spawns() {
    let rt = Runtime::new(2);
    let obj = ObjId::fresh();
    // Gate the writer so it cannot release before the reader registers —
    // otherwise no edge is created (correctly!) and the count is racy.
    let gate = Arc::new(AtomicUsize::new(0));
    let g = Arc::clone(&gate);
    rt.task()
        .out(Region::new(obj, 0..1))
        .body(move || {
            let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
            while g.load(Ordering::SeqCst) == 0 && std::time::Instant::now() < deadline {
                std::thread::yield_now();
            }
        })
        .spawn();
    rt.task().input(Region::new(obj, 0..1)).body(|| {}).spawn();
    gate.store(1, Ordering::SeqCst);
    rt.taskwait();
    let stats = rt.stats();
    assert_eq!(stats.spawned, 2);
    assert!(stats.edges >= 1);
    assert_eq!(
        rt.live_objects(),
        0,
        "registry must be empty after taskwait"
    );
}

#[test]
fn priority_tasks_run_before_backlog() {
    // Single worker: enqueue a blocker, a pile of normal tasks, then one
    // priority task; the priority task must run before the pile.
    let rt = Runtime::new(1);
    let order = Arc::new(Mutex::new(Vec::new()));
    let gate = Arc::new(AtomicUsize::new(0));
    let g = Arc::clone(&gate);
    let (started, blocker_runs) = std::sync::mpsc::channel();
    rt.spawn(Vec::new(), move || {
        // Hold the single worker until everything is enqueued.
        started.send(()).unwrap();
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
        while g.load(Ordering::SeqCst) == 0 && std::time::Instant::now() < deadline {
            std::thread::yield_now();
        }
    });
    // A worker that wakes late would take the blocker and part of the pile
    // in one batch and run that part before the priority task.
    blocker_runs.recv().unwrap();
    for i in 0..8 {
        let o = Arc::clone(&order);
        rt.spawn(Vec::new(), move || o.lock().unwrap().push(i));
    }
    let o = Arc::clone(&order);
    rt.task()
        .priority(10)
        .body(move || o.lock().unwrap().push(100))
        .spawn();
    gate.store(1, Ordering::SeqCst);
    rt.taskwait();
    let order = order.lock().unwrap();
    assert_eq!(
        order[0], 100,
        "priority task did not jump the queue: {order:?}"
    );
}

/// Randomized stress: build a random DAG over a handful of objects and
/// verify every conflicting pair executed in spawn order.
#[test]
fn randomized_conflict_ordering_stress() {
    use rand::{Rng, SeedableRng};
    let mut rng = rand::rngs::StdRng::seed_from_u64(0xA1237);
    for round in 0..8 {
        let rt = Runtime::new(4);
        let objs: Vec<ObjId> = (0..4).map(|_| ObjId::fresh()).collect();
        let n = 60;
        let seq = Arc::new(AtomicUsize::new(0));
        let finished: Arc<Vec<AtomicUsize>> =
            Arc::new((0..n).map(|_| AtomicUsize::new(0)).collect());
        let mut specs: Vec<Vec<Access>> = Vec::new();
        for _ in 0..n {
            let k = rng.gen_range(1..3);
            let mut acc = Vec::new();
            for _ in 0..k {
                let obj = objs[rng.gen_range(0..objs.len())];
                let start = rng.gen_range(0..20);
                let end = start + rng.gen_range(1..10);
                let region = Region::new(obj, start..end);
                acc.push(match rng.gen_range(0..3) {
                    0 => Access::read(region),
                    1 => Access::write(region),
                    _ => Access::read_write(region),
                });
            }
            acc.sort_by_key(|a| (a.region.obj, a.region.start));
            acc.dedup_by(|a, b| a.region == b.region);
            specs.push(acc);
        }
        for (i, acc) in specs.iter().enumerate() {
            let seq = Arc::clone(&seq);
            let fin = Arc::clone(&finished);
            rt.spawn(acc.clone(), move || {
                let stamp = seq.fetch_add(1, Ordering::SeqCst) + 1;
                fin[i].store(stamp, Ordering::SeqCst);
            });
        }
        rt.taskwait();
        // Check: for every conflicting pair (i < j), stamp(i) < stamp(j).
        for i in 0..n {
            for j in (i + 1)..n {
                let conflict = specs[i]
                    .iter()
                    .any(|a| specs[j].iter().any(|b| a.conflicts_with(b)));
                if conflict {
                    let si = finished[i].load(Ordering::SeqCst);
                    let sj = finished[j].load(Ordering::SeqCst);
                    assert!(
                        si < sj,
                        "round {round}: conflicting tasks {i} (stamp {si}) and {j} (stamp {sj}) ran out of order"
                    );
                }
            }
        }
    }
}
