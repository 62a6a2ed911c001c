//! The lock-free claim check under real concurrency: two threads whose
//! claims are forced to coexist. Each holds its claim until the other has
//! *attempted* its own — succeeded (the flag is set inside the closure) or
//! been refused (the flag is set by a guard as the panic unwinds) — so the
//! two claims of a round always overlap in time and neither side can wait
//! forever.

use shmem::SharedBuffer;
use std::ops::Range;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;

/// Sets the flag when dropped, unwinding included.
struct SetOnDrop<'a>(&'a AtomicBool);

impl Drop for SetOnDrop<'_> {
    fn drop(&mut self) {
        self.0.store(true, Ordering::SeqCst);
    }
}

/// One round: both threads claim at once; returns which of them panicked.
fn round(buf: &Arc<SharedBuffer<f64>>, claims: [(Range<usize>, bool); 2]) -> [bool; 2] {
    let attempted = [AtomicBool::new(false), AtomicBool::new(false)];
    let ready = AtomicUsize::new(0);
    let attempt = |me: usize| {
        let (range, write) = claims[me].clone();
        let slice = buf.slice(range);
        // Leave together, so that the two acquisitions themselves race.
        ready.fetch_add(1, Ordering::SeqCst);
        while ready.load(Ordering::SeqCst) < 2 {
            std::hint::spin_loop();
        }
        let _attempted = SetOnDrop(&attempted[me]);
        let hold = || {
            attempted[me].store(true, Ordering::SeqCst);
            while !attempted[1 - me].load(Ordering::SeqCst) {
                std::thread::yield_now();
            }
        };
        if write {
            slice.with_write(|_| hold())
        } else {
            slice.with_read(|_| hold())
        }
    };
    std::thread::scope(|s| {
        let threads = [0, 1].map(|me| s.spawn(move || attempt(me)));
        threads.map(|t| t.join().is_err())
    })
}

const ROUNDS: usize = 2000;

#[test]
fn concurrent_overlapping_claims_always_trip_the_check() {
    let buf = SharedBuffer::<f64>::new(100);
    for i in 0..ROUNDS {
        let panicked = round(&buf, [(0..60, true), (40..100, true)]);
        assert!(
            panicked != [false; 2],
            "round {i}: write/write overlap missed"
        );
        let panicked = round(&buf, [(0..60, false), (59..61, true)]);
        assert!(
            panicked != [false; 2],
            "round {i}: read/write overlap missed"
        );
        // A refused or released claim is gone: the same buffer takes
        // compatible pairs straight afterwards.
        let panicked = round(&buf, [(0..50, true), (50..100, true)]);
        assert_eq!(panicked, [false; 2], "round {i}: disjoint writes refused");
        let panicked = round(&buf, [(0..80, false), (20..100, false)]);
        assert_eq!(panicked, [false; 2], "round {i}: read/read refused");
    }
}
