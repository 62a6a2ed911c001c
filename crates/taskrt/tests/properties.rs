//! Property-based tests: the runtime's execution order is always a
//! linearization of the dependency partial order, under arbitrary DAGs,
//! worker counts, scheduling policies, and external-event timing; and the
//! dependency kernel's edges order exactly what the all-pairs conflict
//! relation orders.

use proptest::prelude::*;
use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use taskrt::deps::History;
use taskrt::{Access, ObjId, Region, Runtime, RuntimeConfig};

#[derive(Debug, Clone)]
struct TaskSpec {
    accesses: Vec<(u8, u8, u8, u8)>, // (obj, start, len, mode 0=in 1=out 2=inout)
}

fn arb_spec() -> impl Strategy<Value = TaskSpec> {
    prop::collection::vec((0u8..4, 0u8..24, 1u8..8, 0u8..3), 1..4)
        .prop_map(|accesses| TaskSpec { accesses })
}

fn to_accesses(spec: &TaskSpec, objs: &[ObjId]) -> Vec<Access> {
    spec.accesses
        .iter()
        .map(|&(o, start, len, mode)| {
            let region = Region::new(objs[o as usize], start as usize..(start + len) as usize);
            match mode {
                0 => Access::read(region),
                1 => Access::write(region),
                _ => Access::read_write(region),
            }
        })
        .collect()
}

/// Transitive closure of a relation whose edges all point from a lower
/// to a higher index: `reach[j][i]` is true when `i` is ordered before `j`.
fn closure(n: usize, edges: impl Fn(usize, usize) -> bool) -> Vec<Vec<bool>> {
    let mut reach = vec![vec![false; n]; n];
    for j in 0..n {
        for i in 0..j {
            if edges(i, j) {
                let before_i = reach[i].clone();
                for (r, b) in reach[j].iter_mut().zip(before_i) {
                    *r |= b;
                }
                reach[j][i] = true;
            }
        }
    }
    reach
}

proptest! {
    /// The kernel against the brute-force reference: the edges
    /// `deps::History` reports order exactly the pairs that the all-pairs
    /// `Access::conflicts_with` relation orders (same transitive closure),
    /// and every reported edge is a conflict of that relation.
    #[test]
    fn kernel_edges_close_to_the_all_pairs_relation(
        specs in prop::collection::vec(arb_spec(), 2..30),
    ) {
        let objs: Vec<ObjId> = (0..4).map(|_| ObjId::fresh()).collect();
        let accesses: Vec<Vec<Access>> =
            specs.iter().map(|s| to_accesses(s, &objs)).collect();
        let n = accesses.len();
        let conflict = |i: usize, j: usize| {
            accesses[i]
                .iter()
                .any(|a| accesses[j].iter().any(|b| a.conflicts_with(b)))
        };
        let mut histories: HashMap<ObjId, History<usize>> = HashMap::new();
        let mut reported: Vec<(usize, usize)> = Vec::new();
        for (j, task) in accesses.iter().enumerate() {
            for a in task {
                let history = histories.entry(a.region.obj).or_default();
                history.record(j, a, |&i| reported.push((i, j)));
            }
        }
        for &(i, j) in &reported {
            prop_assert!(i < j && conflict(i, j), "edge {i}->{j} is not a conflict");
        }
        prop_assert_eq!(
            closure(n, |i, j| reported.contains(&(i, j))),
            closure(n, conflict)
        );
    }

    /// A write drops exactly the entries its range fully covers: a later
    /// access is ordered behind the write and behind every entry the write
    /// left partly or wholly uncovered, and behind nothing else.
    #[test]
    fn a_write_drops_covered_entries_only(
        reads in prop::collection::vec((0usize..24, 1usize..8), 1..12),
        start in 0usize..24,
        len in 1usize..16,
    ) {
        let obj = ObjId::fresh();
        let mut history = History::default();
        for (key, &(s, l)) in reads.iter().enumerate() {
            history.record(key, &Access::read(Region::new(obj, s..s + l)), |_| {});
        }
        let (writer, probe) = (reads.len(), reads.len() + 1);
        let end = start + len;
        history.record(writer, &Access::write(Region::new(obj, start..end)), |_| {});
        let mut seen = Vec::new();
        history.record(probe, &Access::write(Region::new(obj, 0..64)), |&k| seen.push(k));
        let mut want: Vec<usize> = (0..reads.len())
            .filter(|&k| {
                let (s, l) = reads[k];
                !(start <= s && s + l <= end)
            })
            .collect();
        want.push(writer);
        prop_assert_eq!(seen, want);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// For every conflicting pair (i earlier than j in spawn order), the
    /// completion stamps satisfy stamp(i) < stamp(j).
    #[test]
    fn execution_linearizes_the_partial_order(
        specs in prop::collection::vec(arb_spec(), 2..30),
        workers in 1usize..5,
        immediate in any::<bool>(),
    ) {
        let rt = Runtime::with_config(RuntimeConfig {
            workers,
            immediate_successor: immediate,
        });
        let objs: Vec<ObjId> = (0..4).map(|_| ObjId::fresh()).collect();
        let n = specs.len();
        let seq = Arc::new(AtomicUsize::new(0));
        let stamps: Arc<Vec<AtomicUsize>> = Arc::new((0..n).map(|_| AtomicUsize::new(0)).collect());
        let accesses: Vec<Vec<Access>> =
            specs.iter().map(|s| to_accesses(s, &objs)).collect();
        for (i, acc) in accesses.iter().enumerate() {
            let seq = Arc::clone(&seq);
            let stamps = Arc::clone(&stamps);
            rt.spawn(acc.clone(), move || {
                stamps[i].store(seq.fetch_add(1, Ordering::SeqCst) + 1, Ordering::SeqCst);
            });
        }
        rt.taskwait();
        for i in 0..n {
            for j in (i + 1)..n {
                let conflict = accesses[i]
                    .iter()
                    .any(|a| accesses[j].iter().any(|b| a.conflicts_with(b)));
                if conflict {
                    let (si, sj) = (
                        stamps[i].load(Ordering::SeqCst),
                        stamps[j].load(Ordering::SeqCst),
                    );
                    prop_assert!(si < sj, "conflicting tasks {i}->{j} ran as {si},{sj}");
                }
            }
        }
        prop_assert_eq!(rt.live_objects(), 0);
    }

    /// Event holds released from a foreign thread at arbitrary delays
    /// never break the ordering guarantee.
    #[test]
    fn event_holds_preserve_ordering(delay_us in 0u64..300, chain in 2usize..8) {
        let rt = Runtime::new(2);
        let obj = ObjId::fresh();
        let log = Arc::new(parking_lot::Mutex::new(Vec::new()));
        let (tx, rx) = std::sync::mpsc::channel::<taskrt::EventHold>();
        // First task defers its release through an external event.
        let l = Arc::clone(&log);
        rt.task()
            .out(Region::new(obj, 0..8))
            .body(move || {
                l.lock().push(0usize);
                tx.send(taskrt::current_event_hold()).unwrap();
            })
            .spawn();
        for i in 1..chain {
            let l = Arc::clone(&log);
            rt.task()
                .inout(Region::new(obj, 0..8))
                .body(move || l.lock().push(i))
                .spawn();
        }
        let hold = rx.recv().unwrap();
        let releaser = std::thread::spawn(move || {
            std::thread::sleep(std::time::Duration::from_micros(delay_us));
            hold.release();
        });
        rt.taskwait();
        releaser.join().unwrap();
        let log = log.lock();
        prop_assert_eq!(&*log, &(0..chain).collect::<Vec<_>>());
    }

    /// taskwait_on never returns before the named regions are quiescent.
    #[test]
    fn taskwait_on_quiescence(writers in 1usize..6) {
        let rt = Runtime::new(3);
        let obj = ObjId::fresh();
        let done = Arc::new(AtomicUsize::new(0));
        for _ in 0..writers {
            let done = Arc::clone(&done);
            rt.task()
                .inout(Region::new(obj, 0..4))
                .body(move || {
                    std::thread::sleep(std::time::Duration::from_micros(100));
                    done.fetch_add(1, Ordering::SeqCst);
                })
                .spawn();
        }
        rt.taskwait_on(&[Region::new(obj, 0..4)]);
        prop_assert_eq!(done.load(Ordering::SeqCst), writers);
        rt.taskwait();
    }
}
