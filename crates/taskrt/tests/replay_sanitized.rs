//! Sanitized replay: depsan re-verifies every replayed edge set.
//!
//! Own test binary: depsan's mode and task tables are process-global, so
//! this must not share a process with tests that expect the sanitizer
//! off. One test function keeps the global state single-threaded.
//!
//! The property under test is the record/replay equivalence contract:
//! for a replayed task, [`depsan::replayed_task`] recomputes — from
//! depsan's *own* shadow of every previously spawned task — which
//! predecessors a record-mode registration would have conflicted with,
//! and reports `ReplayMissingEdge` for any declared conflict the
//! replayed predecessor closure fails to cover. Zero violations across
//! iterations that demonstrably took the replay path therefore means the
//! replayed edge sets are (transitively) identical to what depsan
//! observes in record mode. A re-armed iteration — task objects reset in
//! place by matching spawns, with bodies of their own or with the bodies
//! the first iteration built — hands depsan its enforced predecessors
//! like any other.

use parking_lot::Mutex;
use std::sync::Arc;
use taskrt::{Access, Body, ObjId, Region, Runtime};

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

#[test]
fn sanitized_replay_matches_record_mode_edges() {
    depsan::reset_for_testing();
    depsan::enable(depsan::Mode::Record);

    const OBJECTS: usize = 4;
    const RANDOM_TASKS: usize = 46;
    const TASKS: usize = RANDOM_TASKS + OBJECTS;
    const ITERS: usize = 8;
    const SEEDS: [u64; 3] = [0xa5a5a5a5a5a5a5a5, 0x1234567890abcdef, 0xfeedface0badf00d];

    for seed in SEEDS {
        let mut rng = Rng(seed);
        let objs: Vec<ObjId> = (0..OBJECTS).map(|_| ObjId::fresh()).collect();
        // Mixed chains, fan-in, and fan-out: every task 1–2 accesses with
        // random mode/object/range, identical stream each iteration,
        // closed by a full-range write sweep per object so the shadow
        // tables turn over and the stream can freeze (the AMR shape).
        let mut stream: Vec<Vec<(usize, usize, usize, bool)>> = (0..RANDOM_TASKS)
            .map(|_| {
                (0..1 + rng.below(2) as usize)
                    .map(|_| {
                        let obj = rng.below(OBJECTS as u64) as usize;
                        let start = rng.below(4) as usize;
                        let end = start + 1 + rng.below(3) as usize;
                        (obj, start, end, rng.below(3) != 0)
                    })
                    .collect()
            })
            .collect();
        for obj in 0..OBJECTS {
            stream.push(vec![(obj, 0, 8, true)]);
        }

        // One-shot bodies first, then bodies shared by every iteration.
        for shared in [false, true] {
            // The sanitizer must be on *before* the runtime is built (the
            // runtime captures the depsan mode at creation).
            let rt = Runtime::new(3);
            let log: Arc<Mutex<Vec<usize>>> = Arc::new(Mutex::new(Vec::new()));
            let bodies: Vec<Body> = (0..TASKS)
                .map(|i| {
                    let log = Arc::clone(&log);
                    Arc::new(move || log.lock().push(i)) as Body
                })
                .collect();
            for _ in 0..ITERS {
                let scope = rt.trace_scope(11);
                for (decls, body) in stream.iter().zip(&bodies) {
                    let task = rt
                        .task()
                        .accesses(decls.iter().map(|&(obj, start, end, write)| {
                            let r = Region::new(objs[obj], start..end);
                            if write {
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
                rt.taskwait();
            }

            let s = rt.stats();
            assert_eq!(
                s.trace_hits,
                ITERS as u64 - 1,
                "seed {seed:#x}: stream did not replay from its second iteration: {s:?}"
            );
            assert!(
                s.rearmed_tasks > 0 && s.rearmed_tasks <= s.replayed_tasks,
                "seed {seed:#x}: no task object was re-armed: {s:?}"
            );
            assert_eq!(log.lock().len(), TASKS * ITERS);

            let violations = depsan::take_violations();
            assert!(
                violations.is_empty(),
                "seed {seed:#x} (shared: {shared}): depsan flagged replayed edges: {violations:?}"
            );
        }
    }
}
