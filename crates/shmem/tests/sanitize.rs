//! The `depsan` hook of the claim check: every claim — in an inline slot
//! or in the overflow list — records exactly its own access. (Its own
//! test binary: the sanitizer is process-global.)

use shmem::SharedBuffer;
use std::sync::Arc;

/// More nested claims than the claim table holds inline.
const CLAIMS: usize = 7;

fn nest(buf: &Arc<SharedBuffer<f64>>, writers: &[u64]) {
    let Some((&task, rest)) = writers.split_first() else {
        return;
    };
    let i = CLAIMS - writers.len();
    depsan::with_scope(task, || {
        buf.slice(10 * i..10 * i + 10)
            .with_write(|_| nest(buf, rest))
    });
}

#[test]
fn every_claim_records_one_access() {
    depsan::enable(depsan::Mode::Record);
    depsan::reset_for_testing();
    let rt = depsan::runtime_created();
    let task = |label: &str| depsan::task_spawned(rt, label, 0, &[], None);
    let buf = SharedBuffer::<f64>::new(10 * CLAIMS);
    buf.bind_obj(77);

    let writers: Vec<u64> = (0..CLAIMS).map(|_| task("writer")).collect();
    nest(&buf, &writers);
    assert_eq!(
        depsan::violation_count(),
        0,
        "one task per interval: no race"
    );

    // An unordered second writer per interval races with exactly the one
    // access its first writer's claim recorded.
    for i in 0..CLAIMS {
        depsan::with_scope(task("late"), || {
            buf.slice(10 * i..10 * i + 10).with_write(|_| {})
        });
    }
    let races = depsan::take_violations();
    assert_eq!(races.len(), CLAIMS, "{races:?}");
    for (i, v) in races.iter().enumerate() {
        assert_eq!((v.kind, v.obj), (depsan::ViolationKind::Race, 77));
        let range = format!("{}..{}", 10 * i, 10 * i + 10);
        assert!(v.detail.contains(&range), "race {i}: {}", v.detail);
    }
}
