//! Trace & replay cache: correctness under replay, divergence fallback,
//! explicit invalidation, cross-iteration edges, and interleaved untraced
//! spawns.
//!
//! Every test submits tasks whose bodies log their execution into a
//! shared vector; correctness is judged *after* `taskwait` by checking
//! the observed order against the declared dependency structure, so a
//! broken replay shows up as an ordering violation (or a deadlock → test
//! timeout), never as a panic inside a worker thread.

use parking_lot::{Condvar, Mutex};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use taskrt::{Access, Body, ObjId, Region, Runtime, RuntimeConfig};

/// Holds a task (and whatever waits behind it) until the test opens it.
struct Gate {
    open: Mutex<bool>,
    opened: Condvar,
}

impl Gate {
    fn new() -> Arc<Gate> {
        Arc::new(Gate {
            open: Mutex::new(true),
            opened: Condvar::new(),
        })
    }

    fn set(&self, open: bool) {
        *self.open.lock() = open;
        self.opened.notify_all();
    }

    fn pass(&self) {
        let mut open = self.open.lock();
        while !*open {
            self.opened.wait(&mut open);
        }
    }
}

/// Submits `n` tasks chained by `inout` on `obj`, each appending its
/// submission index to `log`, inside trace scope `key`.
fn chained_iteration(rt: &Runtime, key: u64, obj: ObjId, n: usize) -> Arc<Mutex<Vec<usize>>> {
    let log = Arc::new(Mutex::new(Vec::with_capacity(n)));
    let scope = rt.trace_scope(key);
    for i in 0..n {
        let log = Arc::clone(&log);
        rt.task()
            .inout(Region::new(obj, 0..1))
            .body(move || log.lock().push(i))
            .spawn();
    }
    drop(scope);
    rt.taskwait();
    log
}

fn assert_in_submission_order(log: &Arc<Mutex<Vec<usize>>>, n: usize, ctx: &str) {
    let got = log.lock().clone();
    let want: Vec<usize> = (0..n).collect();
    assert_eq!(
        got, want,
        "{ctx}: chained tasks ran out of submission order"
    );
}

/// A recording closes at the next scope: the first scope after an
/// invalidation records, the second closes that recording and is a hit
/// already.
#[test]
fn hits_start_at_the_second_scope() {
    let rt = Runtime::new(2);
    let obj = ObjId::fresh();
    const N: usize = 40;
    chained_iteration(&rt, 2, obj, N);
    let s = rt.stats();
    assert_eq!((s.trace_records, s.trace_closes, s.trace_hits), (1, 0, 0));
    let log = chained_iteration(&rt, 2, obj, N);
    assert_in_submission_order(&log, N, "first hit");
    let s = rt.stats();
    assert_eq!((s.trace_records, s.trace_closes, s.trace_hits), (1, 1, 1));
    assert_eq!((s.trace_freezes, s.replayed_tasks), (1, N as u64), "{s:?}");
    rt.invalidate_traces();
    chained_iteration(&rt, 2, obj, N);
    chained_iteration(&rt, 2, obj, N);
    let s = rt.stats();
    assert_eq!((s.trace_records, s.trace_closes, s.trace_hits), (2, 2, 2));
}

/// A stable chained stream replays after its one recording and the
/// replayed iterations execute in exactly the recorded order.
#[test]
fn replayed_chain_preserves_order() {
    let rt = Runtime::new(2);
    let obj = ObjId::fresh();
    const N: usize = 100;
    for iter in 0..10 {
        let log = chained_iteration(&rt, 1, obj, N);
        assert_in_submission_order(&log, N, &format!("iteration {iter}"));
    }
    let s = rt.stats();
    assert!(s.trace_hits > 0, "stable stream never replayed: {s:?}");
    assert!(
        s.replayed_tasks >= N as u64,
        "no tasks took the replay path: {s:?}"
    );
    assert_eq!(
        s.trace_divergences, 0,
        "stable stream should never diverge: {s:?}"
    );
}

/// With `replay: false` the cache is inert: scopes are free, nothing is
/// recorded, nothing replays.
#[test]
fn replay_disabled_is_inert() {
    let rt = Runtime::with_config(RuntimeConfig {
        workers: 2,
        immediate_successor: true,
        replay: false,
    });
    let obj = ObjId::fresh();
    for iter in 0..6 {
        let log = chained_iteration(&rt, 1, obj, 50);
        assert_in_submission_order(&log, 50, &format!("iteration {iter}"));
    }
    let s = rt.stats();
    assert_eq!(s.trace_hits, 0);
    assert_eq!(s.replayed_tasks, 0);
    assert_eq!(s.trace_records, 0);
}

/// Submitting a stream that differs from the frozen trace mid-scope must
/// fall back to fresh analysis without deadlocking or misordering: the
/// tasks replayed before the divergence point and the fresh tasks after
/// it still form one correctly ordered chain (the bypassed-task flush
/// re-inserts replayed claims before fresh analysis runs).
#[test]
fn divergent_submission_falls_back() {
    let rt = Runtime::new(2);
    let obj = ObjId::fresh();
    const N: usize = 80;

    // Stabilize stream A and confirm it replays.
    for _ in 0..5 {
        chained_iteration(&rt, 7, obj, N);
    }
    let before = rt.stats();
    assert!(before.trace_hits > 0, "stream A never froze: {before:?}");

    // Stream B: identical prefix, then a task with a different access
    // range — the fingerprint mismatches and the scope diverges with
    // half the chain already installed from the trace.
    let log = Arc::new(Mutex::new(Vec::new()));
    let scope = rt.trace_scope(7);
    for i in 0..N {
        let log = Arc::clone(&log);
        let range = if i == N / 2 { 0..2 } else { 0..1 };
        rt.task()
            .inout(Region::new(obj, range))
            .body(move || log.lock().push(i))
            .spawn();
    }
    drop(scope);
    rt.taskwait();
    assert_in_submission_order(&log, N, "divergent iteration");

    let after = rt.stats();
    assert!(
        after.trace_divergences > before.trace_divergences,
        "divergence not detected: {after:?}"
    );

    // Stream B is now the stable stream; it re-records and re-freezes.
    let hits_after_divergence = after.trace_hits;
    for _ in 0..6 {
        let log = Arc::new(Mutex::new(Vec::new()));
        let scope = rt.trace_scope(7);
        for i in 0..N {
            let log = Arc::clone(&log);
            let range = if i == N / 2 { 0..2 } else { 0..1 };
            rt.task()
                .inout(Region::new(obj, range))
                .body(move || log.lock().push(i))
                .spawn();
        }
        drop(scope);
        rt.taskwait();
        assert_in_submission_order(&log, N, "re-recorded iteration");
    }
    let s = rt.stats();
    assert!(
        s.trace_hits > hits_after_divergence,
        "stream B never re-froze: {s:?}"
    );
}

/// Two keys interleaved on one runtime, each scope one `inout` task on
/// the same region: the runtime caches one stream, so every scope of the
/// other key records afresh and the tasks run in submission order. A
/// cache per key would replay each key's chain behind its own previous
/// task only, and key 1's tasks would overtake key 2's slow ones.
#[test]
fn interleaved_keys_keep_submission_order() {
    let rt = Runtime::new(2);
    let obj = ObjId::fresh();
    const ROUNDS: usize = 6;
    let log = Arc::new(Mutex::new(Vec::with_capacity(2 * ROUNDS)));
    for round in 0..ROUNDS {
        for key in [1u64, 2] {
            let log = Arc::clone(&log);
            let scope = rt.trace_scope(key);
            rt.task()
                .inout(Region::new(obj, 0..1))
                .body(move || {
                    if key == 2 {
                        std::thread::sleep(std::time::Duration::from_millis(20));
                    }
                    log.lock().push((round, key));
                })
                .spawn();
            drop(scope);
        }
    }
    rt.taskwait();
    let want: Vec<(usize, u64)> = (0..ROUNDS).flat_map(|r| [(r, 1), (r, 2)]).collect();
    assert_eq!(*log.lock(), want, "interleaved keys ran out of order");
    let s = rt.stats();
    assert_eq!(
        (s.trace_records, s.trace_hits),
        (2 * ROUNDS as u64, 0),
        "{s:?}"
    );
}

/// `Runtime::invalidate_traces` (regrid / repartition) drops every frozen
/// trace: the next iterations record again, then replay resumes.
#[test]
fn explicit_invalidation_forces_rerecord() {
    let rt = Runtime::new(2);
    let obj = ObjId::fresh();
    const N: usize = 60;
    for _ in 0..5 {
        chained_iteration(&rt, 3, obj, N);
    }
    let before = rt.stats();
    assert!(before.trace_hits > 0);

    rt.invalidate_traces();

    // The iteration right after an invalidation must record, not hit.
    chained_iteration(&rt, 3, obj, N);
    let mid = rt.stats();
    assert_eq!(
        mid.trace_hits, before.trace_hits,
        "hit served from an invalidated trace"
    );
    assert!(mid.trace_invalidations > before.trace_invalidations);

    // After the one recording replay resumes.
    for iter in 0..5 {
        let log = chained_iteration(&rt, 3, obj, N);
        assert_in_submission_order(&log, N, &format!("post-invalidation iteration {iter}"));
    }
    let s = rt.stats();
    assert!(
        s.trace_hits > before.trace_hits,
        "replay never resumed after invalidation: {s:?}"
    );
}

/// Replayed edges that reach into the previous iteration are the only
/// thing ordering consecutive iterations when no barrier separates them:
/// the last write of iteration *k* must release before the first access of
/// iteration *k + 1* starts, through the task objects still sitting in the
/// key's slots. Each iteration's head dawdles, so a lost edge lets the
/// next iteration's head overtake it on the second worker.
///
/// Every third iteration starts on a drained runtime — its slots re-arm
/// the released task objects in place — and its head waits at a gate
/// until the iteration after it has been submitted, which therefore finds
/// every slot's occupant still live and allocates fresh ones. `shared`
/// spawns every iteration with the bodies built for the first (as a
/// submitter's template does), the others with one-shot bodies of their
/// own.
fn cross_iteration_edges(shared: bool) {
    let rt = Runtime::new(2);
    let obj = ObjId::fresh();
    const N: usize = 20;
    const ITERS: usize = 12;
    let log = Arc::new(Mutex::new(Vec::with_capacity(N * ITERS)));
    let gate = Gate::new();
    let bodies: Vec<Body> = (0..N)
        .map(|i| {
            let (log, gate) = (Arc::clone(&log), Arc::clone(&gate));
            Arc::new(move || {
                if i == 0 {
                    gate.pass();
                    std::thread::sleep(std::time::Duration::from_micros(200));
                }
                log.lock().push(i);
            }) as Body
        })
        .collect();
    for iter in 0..ITERS {
        if iter % 3 == 1 {
            rt.taskwait();
            gate.set(false);
        }
        let scope = rt.trace_scope(5);
        for (i, body) in bodies.iter().enumerate() {
            // Reads in the middle of the chain make the next writer wait
            // for several predecessors at once.
            let region = Region::new(obj, 0..1);
            let access = if i % 4 == 2 {
                Access::read(region)
            } else {
                Access::read_write(region)
            };
            let (task, body) = (rt.task().access(access), Arc::clone(body));
            if shared {
                task.body_shared(body).spawn();
            } else {
                task.body(move || body()).spawn();
            }
        }
        drop(scope);
        if iter % 3 == 2 {
            gate.set(true);
        }
    }
    rt.taskwait();
    let s = rt.stats();
    assert_eq!(s.trace_hits, ITERS as u64 - 1, "{s:?}");
    assert_eq!(s.trace_divergences, 0, "stable stream diverged: {s:?}");
    assert!(s.rearmed_tasks > 0, "no slot reused its task object: {s:?}");
    assert!(
        s.rearmed_tasks < s.replayed_tasks,
        "no slot replaced a live task object: {s:?}"
    );
    let got = log.lock().clone();
    let want: Vec<usize> = (0..N * ITERS).map(|t| t % N).collect();
    assert_eq!(got, want, "iterations overlapped or ran out of order");
}

#[test]
fn cross_iteration_edges_replay_without_a_barrier() {
    cross_iteration_edges(false);
}

#[test]
fn cross_iteration_edges_rearm_without_a_barrier() {
    cross_iteration_edges(true);
}

/// A replay re-arms slots with on-ready gates, and every re-armed task
/// runs its gate again: once per run, only once its predecessors have
/// released (never at the re-arm itself), and the task only after the
/// gate opens. Every iteration spawns with the gates and bodies built for
/// the first. Every other iteration is submitted before the previous one
/// has drained, so its slots' occupants are still live and the replay
/// allocates fresh task objects sharing the body and the gate; the others
/// re-arm the released objects in place.
#[test]
fn rearm_resets_the_gate_and_a_hit_runs_it_again() {
    const N: usize = 12;
    const ITERS: usize = 8;
    let rt = Runtime::new(2);
    let obj = ObjId::fresh();
    let log = Arc::new(Mutex::new(Vec::with_capacity(N * ITERS)));
    let gates = Arc::new(AtomicUsize::new(0));
    // Half the gates open from a thread of their own.
    let openers = Arc::new(Mutex::new(Vec::new()));
    let tasks: Vec<(taskrt::Gate, Body)> = (0..N)
        .map(|i| {
            let (log, gates, seen) = (Arc::clone(&log), Arc::clone(&gates), Arc::clone(&log));
            let openers = Arc::clone(&openers);
            let gate: taskrt::Gate = Arc::new(move |hold: taskrt::GateHold| {
                // Everything before this position has run; nothing after it
                // can have.
                let ran = seen.lock().len();
                assert_eq!(ran % N, i, "gate of {i} ran after {ran} bodies");
                gates.fetch_add(1, Ordering::SeqCst);
                if i % 2 == 1 {
                    openers.lock().push(std::thread::spawn(move || hold.open()));
                }
            });
            (gate, Arc::new(move || log.lock().push(i)) as Body)
        })
        .collect();
    for iter in 0..ITERS {
        if iter % 2 == 0 {
            rt.taskwait();
        }
        let scope = rt.trace_scope(12);
        for (gate, body) in &tasks {
            rt.task()
                .inout(Region::new(obj, 0..1))
                .on_ready_shared(Arc::clone(gate))
                .body_shared(Arc::clone(body))
                .spawn();
        }
        drop(scope);
    }
    rt.taskwait();
    for opener in std::mem::take(&mut *openers.lock()) {
        opener.join().expect("gate opener");
    }
    let got = log.lock().clone();
    assert_eq!(got, (0..N * ITERS).map(|t| t % N).collect::<Vec<_>>());
    assert_eq!(
        gates.load(Ordering::SeqCst),
        N * ITERS,
        "one gate call per run"
    );
    let s = rt.stats();
    assert_eq!(
        (s.trace_hits, s.trace_divergences),
        (ITERS as u64 - 1, 0),
        "{s:?}"
    );
    assert!(s.rearmed_tasks > 0, "no slot re-armed in place: {s:?}");
    assert!(
        s.rearmed_tasks < s.replayed_tasks,
        "no fresh object shared the gate: {s:?}"
    );
}

/// An untraced spawn between scopes that conflicts with the frozen stream
/// resets the key: the next scope records instead of replaying a trace
/// whose predecessor structure no longer reflects the claim table.
#[test]
fn untraced_spawn_between_scopes_resets_key() {
    let rt = Runtime::new(2);
    let obj = ObjId::fresh();
    const N: usize = 60;
    for _ in 0..5 {
        chained_iteration(&rt, 9, obj, N);
    }
    let before = rt.stats();
    assert!(before.trace_hits > 0);

    // Conflicting task outside any scope.
    rt.task().inout(Region::new(obj, 0..1)).body(|| {}).spawn();
    rt.taskwait();

    let log = chained_iteration(&rt, 9, obj, N);
    assert_in_submission_order(&log, N, "post-untraced iteration");
    let mid = rt.stats();
    assert_eq!(
        mid.trace_hits, before.trace_hits,
        "replayed over an untraced conflicting spawn"
    );

    // The key re-records and replay resumes once the stream re-freezes.
    for _ in 0..5 {
        chained_iteration(&rt, 9, obj, N);
    }
    let s = rt.stats();
    assert!(
        s.trace_hits > before.trace_hits,
        "replay never resumed after key reset: {s:?}"
    );
}

// ---------------------------------------------------------------------------
// Property test: replay preserves the declared partial order.

/// Deterministic xorshift generator — keeps the streams reproducible.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

#[derive(Clone, Copy)]
struct Decl {
    obj: usize,
    start: usize,
    end: usize,
    write: bool,
}

/// Two declarations conflict if they overlap on the same object and at
/// least one writes.
fn conflicts(a: &[Decl], b: &[Decl]) -> bool {
    a.iter().any(|x| {
        b.iter()
            .any(|y| x.obj == y.obj && x.start < y.end && y.start < x.end && (x.write || y.write))
    })
}

/// Random streams over a handful of objects, run repeatedly in one trace
/// scope: every iteration — recorded or replayed — must execute as a
/// linear extension of the partial order declared by the accesses. Each
/// task appends its index to a log from its body; a predecessor's body
/// completes before its successor starts, so for every conflicting pair
/// the earlier submission must appear earlier in the log.
///
/// Each iteration opens and ends with a full-range `inout` sweep per
/// object (the AMR shape: stencils rewrite every block every timestep).
/// Without the closing sweeps, reads that no later write fully covers
/// linger in the shadow tables with ever-growing iteration deltas and the
/// stream never closes — a documented limitation: the cache targets
/// periodic streams that overwrite their data each period.
///
/// Iterations run in pairs. The first of a pair starts on a drained
/// runtime (its slots re-arm the released task objects in place) and its
/// opening sweep waits at a gate until the second has been submitted too
/// (which finds every slot's occupant live and allocates fresh ones); the
/// pair is then checked as one stream of twice the length, so the edges
/// between the two iterations are checked with it. The *n*-th occurrence
/// of an index in the log is the *n*-th iteration's: two runs of one
/// position are ordered through the closing sweep between them. `shared`
/// spawns every iteration with the bodies built for the first.
fn linear_extensions(shared: bool) {
    const OBJECTS: usize = 4;
    const RANDOM_TASKS: usize = 56;
    const TASKS: usize = RANDOM_TASKS + 2 * OBJECTS;
    const PAIRS: usize = 4;
    const SEEDS: [u64; 3] = [0x9e3779b97f4a7c15, 0xdeadbeefcafef00d, 0x0123456789abcdef];

    for seed in SEEDS {
        let mut rng = Rng(seed);
        let objs: Vec<ObjId> = (0..OBJECTS).map(|_| ObjId::fresh()).collect();
        let sweep = |obj| {
            vec![Decl {
                obj,
                start: 0,
                end: 8,
                write: true,
            }]
        };

        // Generate the stream once; resubmit it identically each iteration.
        let mut stream: Vec<Vec<Decl>> = (0..OBJECTS).map(sweep).collect();
        stream.extend((0..RANDOM_TASKS).map(|_| {
            let n_acc = 1 + rng.below(2) as usize;
            (0..n_acc)
                .map(|_| {
                    let obj = rng.below(OBJECTS as u64) as usize;
                    let start = rng.below(4) as usize;
                    let end = start + 1 + rng.below(3) as usize;
                    let write = rng.below(3) != 0;
                    Decl {
                        obj,
                        start,
                        end,
                        write,
                    }
                })
                .collect::<Vec<Decl>>()
        }));
        stream.extend((0..OBJECTS).map(sweep));

        let rt = Runtime::new(3);
        let log: Arc<Mutex<Vec<usize>>> = Arc::new(Mutex::new(Vec::with_capacity(2 * TASKS)));
        let gate = Gate::new();
        let bodies: Vec<Body> = (0..TASKS)
            .map(|i| {
                let (log, gate) = (Arc::clone(&log), Arc::clone(&gate));
                Arc::new(move || {
                    if i < OBJECTS {
                        gate.pass();
                    }
                    log.lock().push(i);
                }) as Body
            })
            .collect();
        for pair in 0..PAIRS {
            gate.set(false);
            for _ in 0..2 {
                let scope = rt.trace_scope(42);
                for (decls, body) in stream.iter().zip(&bodies) {
                    let task = rt.task().accesses(decls.iter().map(|d| {
                        let r = Region::new(objs[d.obj], d.start..d.end);
                        if d.write {
                            Access::read_write(r)
                        } else {
                            Access::read(r)
                        }
                    }));
                    let body = Arc::clone(body);
                    if shared {
                        task.body_shared(body).spawn();
                    } else {
                        task.body(move || body()).spawn();
                    }
                }
                drop(scope);
            }
            gate.set(true);
            rt.taskwait();

            let order = std::mem::take(&mut *log.lock());
            assert_eq!(
                order.len(),
                2 * TASKS,
                "seed {seed:#x} pair {pair}: tasks lost"
            );
            // Position in the log of every task of the doubled stream.
            let mut pos = vec![usize::MAX; 2 * TASKS];
            for (p, &t) in order.iter().enumerate() {
                let run = if pos[t] == usize::MAX { t } else { TASKS + t };
                assert_eq!(pos[run], usize::MAX, "task {t} ran three times");
                pos[run] = p;
            }
            for i in 0..2 * TASKS {
                for j in (i + 1)..2 * TASKS {
                    if conflicts(&stream[i % TASKS], &stream[j % TASKS]) {
                        assert!(
                            pos[i] < pos[j],
                            "seed {seed:#x} pair {pair}: conflicting pair ({i}, {j}) \
                             executed out of submission order"
                        );
                    }
                }
            }
        }
        let s = rt.stats();
        assert_eq!(s.trace_hits, 2 * PAIRS as u64 - 1, "seed {seed:#x}: {s:?}");
        assert_eq!(
            s.trace_divergences, 0,
            "seed {seed:#x}: identical stream diverged: {s:?}"
        );
        assert!(s.rearmed_tasks > 0, "seed {seed:#x}: nothing reused: {s:?}");
        assert!(
            s.rearmed_tasks < s.replayed_tasks,
            "seed {seed:#x}: no live task object replaced: {s:?}"
        );
    }
}

#[test]
fn replayed_iterations_are_linear_extensions() {
    linear_extensions(false);
}

#[test]
fn rearmed_iterations_are_linear_extensions() {
    linear_extensions(true);
}
