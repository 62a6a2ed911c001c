//! A chaos world's fault counts reach the process-wide metrics registry
//! once, when the world is dropped, and read the same as the fault-plan
//! position line the world reports.
//!
//! Lives in its own integration-test binary: enabling observability is
//! process-global and sticky, and the registry sums every world in the
//! process, so another test's world would change the totals.

use std::time::{Duration, Instant};
use vmpi::{ChaosConfig, NetworkModel, PeerLostAction, World};

/// The number after `key` on a plan-position line.
fn field(line: &str, key: &str) -> i64 {
    let rest = &line[line.find(key).unwrap_or_else(|| panic!("{key} in {line}")) + key.len()..];
    let digits: String = rest
        .trim_start()
        .chars()
        .take_while(char::is_ascii_digit)
        .collect();
    digits.parse().unwrap()
}

fn registry_value(name: &str) -> Option<i64> {
    (obs::metrics().snapshot().into_iter())
        .find(|(n, _)| *n == name)
        .map(|(_, v)| v)
}

#[test]
fn dropped_world_publishes_the_plan_position() {
    obs::enable();
    let plan = ChaosConfig {
        seed: 5,
        drop_p: 0.2,
        rto: Duration::from_millis(1),
        retry_budget: 25,
        on_peer_lost: PeerLostAction::FailRequests,
        ..ChaosConfig::default()
    };
    let world = World::with_chaos(3, NetworkModel::instant(), Some(plan));
    world.run(|comm| {
        let (me, p) = (comm.rank(), comm.size());
        let sends: Vec<_> = (0..p)
            .filter(|&dst| dst != me)
            .flat_map(|dst| (0..20i64).map(move |m| (dst, m)))
            .map(|(dst, m)| comm.isend(&[m], dst, 4).unwrap())
            .collect();
        for src in (0..p).filter(|&src| src != me) {
            for m in 0..20i64 {
                assert_eq!(comm.recv::<i64>(src as i32, 4).unwrap().0, [m]);
            }
        }
        for s in sends {
            s.wait();
        }
    });
    assert!(world.peer_lost_reports().is_empty());
    // Every send was acked; wait out any stray retransmit timer.
    let deadline = Instant::now() + Duration::from_secs(5);
    let mut line = world.chaos_plan_position().pop().unwrap();
    loop {
        std::thread::sleep(Duration::from_millis(20));
        let again = world.chaos_plan_position().pop().unwrap();
        if again == line {
            break;
        }
        assert!(Instant::now() < deadline, "the fault plan never settled");
        line = again;
    }
    assert!(
        registry_value("vmpi.chaos.retransmits").is_none(),
        "a live world adds nothing"
    );
    drop(world);

    let injected = [
        "drops",
        "dups",
        "corrupts",
        "delays",
        "stalls",
        "crash-drops",
    ]
    .iter()
    .map(|key| field(&line, key))
    .sum::<i64>();
    assert!(
        field(&line, "drops") > 0,
        "the plan dropped nothing: {line}"
    );
    for (name, value) in [
        ("vmpi.chaos.faults_injected", injected),
        ("vmpi.chaos.retransmits", field(&line, "retransmits")),
        ("vmpi.chaos.crc_rejected", field(&line, "crc-rejected")),
        ("vmpi.chaos.dup_suppressed", field(&line, "dup-suppressed")),
        ("vmpi.chaos.recovered", field(&line, "recovered")),
    ] {
        assert_eq!(registry_value(name), Some(value), "{name}: {line}");
    }
}
