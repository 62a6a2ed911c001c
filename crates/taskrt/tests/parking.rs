//! Worker parking under intermittent load: a push pays for a wake-up
//! only when a worker is parked (scheduler module docs), so the cases
//! that matter are the ones where workers *are* parked when work
//! arrives, from threads that are not workers.
//!
//! Two feeder threads each submit short dependent chains with idle gaps
//! longer than the park tick between them, so every chain's first task
//! meets parked workers. Every task must run, every wait must return,
//! and a chain must not take more than a few park ticks.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use taskrt::{ObjId, Region, Runtime};

/// The scheduler's bounded park (`scheduler::PARK_TICK`).
const PARK_TICK: Duration = Duration::from_millis(1);
const FEEDERS: usize = 2;
const ITERATIONS: usize = 40;
const CHAIN: usize = 16;

#[test]
fn chains_fed_to_parked_workers_run_promptly() {
    for workers in [1, 4] {
        let rt = Runtime::new(workers);
        let ran = Arc::new(AtomicUsize::new(0));
        let mut times: Vec<Duration> = std::thread::scope(|s| {
            let feeders: Vec<_> = (0..FEEDERS)
                .map(|_| {
                    let (rt, ran) = (&rt, &ran);
                    s.spawn(move || {
                        let chain = Region::whole(ObjId::fresh());
                        let mut times = Vec::with_capacity(ITERATIONS);
                        for _ in 0..ITERATIONS {
                            // Long enough for every worker to run dry and park.
                            std::thread::sleep(3 * PARK_TICK);
                            let start = Instant::now();
                            for _ in 0..CHAIN {
                                let ran = Arc::clone(ran);
                                rt.task()
                                    .inout(chain.clone())
                                    .body(move || {
                                        ran.fetch_add(1, Ordering::Relaxed);
                                    })
                                    .spawn();
                            }
                            // This feeder's chain only; the other feeder's
                            // may be anywhere.
                            rt.taskwait_on(std::slice::from_ref(&chain));
                            times.push(start.elapsed());
                        }
                        times
                    })
                })
                .collect();
            feeders
                .into_iter()
                .flat_map(|f| f.join().expect("feeder panicked"))
                .collect()
        });
        rt.taskwait();
        assert_eq!(
            ran.load(Ordering::Relaxed),
            FEEDERS * ITERATIONS * CHAIN,
            "{workers} worker(s): a task never ran"
        );
        // A wake-up that only the park timeout rescues costs one tick per
        // hand-off. The bound is held by nine iterations in ten, not by
        // all: on a shared two-core box a thread can lose the CPU for
        // longer than the bound without the scheduler being at fault.
        times.sort_unstable();
        let p90 = times[times.len() * 9 / 10];
        assert!(
            p90 <= 10 * PARK_TICK,
            "{workers} worker(s): a tenth of the chains took over {p90:?} (slowest {:?})",
            times[times.len() - 1]
        );
    }
}
