//! Agreement between the static verifier (`dfcheck`) and the dynamic
//! sanitizer (`depsan`).
//!
//! The static check elaborates the scenario symbolically and proves
//! ordering properties over the *modeled* task/message structure; depsan
//! watches the *actual* run. The two look at the same protocol from
//! opposite ends, so on scenarios the static model covers faithfully:
//!
//! * **dfcheck-clean ⇒ depsan-clean** — a scenario that passes the
//!   static check must run without a single dynamic violation;
//! * the seed's known `--legacy_group_offsets` bug must be flagged
//!   *statically*, as a tag collision naming both aliased sends, without
//!   ever spawning a worker or delivery thread.

use miniamr::{Config, Variant};
use rand::{rngs::StdRng, Rng, SeedableRng};
use vmpi::NetworkModel;

/// A random small scenario: every knob that shapes the task/message
/// structure is sampled, sizes kept small enough that the dynamic run
/// stays in test-time budget.
fn random_cfg(rng: &mut StdRng) -> Config {
    let mut cfg = Config::smoke_test();
    cfg.variant = [Variant::MpiOnly, Variant::ForkJoin, Variant::DataFlow][rng.gen_range(0..3)];
    cfg.params.npx = rng.gen_range(1..=2);
    cfg.params.npy = rng.gen_range(1..=2);
    cfg.params.nx = [4, 6][rng.gen_range(0..2)];
    cfg.params.ny = cfg.params.nx;
    cfg.params.nz = cfg.params.nx;
    cfg.params.num_vars = [2, 4, 8][rng.gen_range(0..3)];
    cfg.num_tsteps = rng.gen_range(2..=3);
    cfg.stages_per_ts = rng.gen_range(3..=6);
    cfg.checksum_freq = rng.gen_range(2..=3);
    cfg.refine_freq = 2;
    cfg.comm_vars = if rng.gen_range(0..2) == 0 {
        usize::MAX
    } else {
        rng.gen_range(1..=cfg.params.num_vars)
    };
    cfg.send_faces = rng.gen_range(0..2) == 0;
    cfg.separate_buffers = rng.gen_range(0..2) == 0;
    cfg.max_comm_tasks = [0, 2][rng.gen_range(0..2)];
    cfg.delayed_checksum = cfg.variant == Variant::DataFlow && rng.gen_range(0..2) == 0;
    cfg.workers = 2;
    cfg
}

/// Beside the random draws, data-flow with `--send_faces` every time:
/// one-section messages, each sent by its pack and received by its
/// unpack's on-ready gate — once with the payloads eager, once with
/// every send a rendezvous that keeps its own task.
fn send_faces_cfgs(rng: &mut StdRng) -> [Config; 2] {
    [usize::MAX, 0].map(|eager_bytes| {
        let mut cfg = random_cfg(rng);
        cfg.variant = Variant::DataFlow;
        cfg.send_faces = true;
        cfg.eager_bytes = eager_bytes;
        cfg
    })
}

#[test]
fn dfcheck_clean_implies_depsan_clean() {
    let mut rng = StdRng::seed_from_u64(0x5ca1ab1e);
    let mut cases: Vec<Config> = (0..8).map(|_| random_cfg(&mut rng)).collect();
    cases.extend(send_faces_cfgs(&mut rng));
    let mut checked = 0;
    for (case, cfg) in cases.into_iter().enumerate() {
        let report = miniamr::staticcheck::check(&cfg);
        assert!(
            report.clean(),
            "case {case}: static check flagged a stock scenario ({:?}): {}",
            cfg.variant,
            report.render_human()
        );
        // Dynamic side: the same scenario must run without a violation.
        depsan::enable(depsan::Mode::Record);
        let _ = depsan::take_violations();
        let stats = miniamr::run_world(&cfg, cfg.params.num_ranks(), NetworkModel::instant());
        let violations = depsan::take_violations();
        assert!(
            violations.is_empty(),
            "case {case}: dfcheck-clean scenario ({:?}) produced {} depsan violation(s): {:?}",
            cfg.variant,
            violations.len(),
            violations.first()
        );
        assert_eq!(stats.iter().map(|s| s.checksums_failed).sum::<usize>(), 0);
        checked += 1;
    }
    assert_eq!(checked, 10);
}

fn legacy_cfg() -> Config {
    let mut cfg = Config::smoke_test();
    cfg.variant = Variant::DataFlow;
    cfg.params.nx = 6;
    cfg.params.ny = 6;
    cfg.params.nz = 6;
    cfg.params.num_vars = 8;
    cfg.num_tsteps = 3;
    cfg.comm_vars = 3; // uneven groups: 3 + 3 + 2
    cfg.send_faces = true;
    cfg.legacy_group_offsets = true;
    cfg
}

#[test]
fn legacy_offsets_flagged_statically_naming_both_sends() {
    let report = miniamr::staticcheck::check(&legacy_cfg());
    assert!(
        !report.clean(),
        "the seed's aliasing bug must fail statically"
    );
    let collision = report
        .errors
        .iter()
        .find(|f| {
            f.code == "tag-collision" && f.sites.iter().filter(|s| s.label == "send").count() >= 2
        })
        .expect("a tag-collision finding naming at least two send sites");
    // The two unordered sends share the tag they would collide on and
    // live on the same rank (the static pairing also names the receives).
    let sends: Vec<_> = collision
        .sites
        .iter()
        .filter(|s| s.label == "send")
        .collect();
    assert_eq!(sends[0].tag, sends[1].tag);
    assert_eq!(sends[0].rank, sends[1].rank);

    // Same scenario without the flag is clean on all three variants.
    for variant in [Variant::MpiOnly, Variant::ForkJoin, Variant::DataFlow] {
        let mut cfg = legacy_cfg();
        cfg.legacy_group_offsets = false;
        cfg.variant = variant;
        let report = miniamr::staticcheck::check(&cfg);
        assert!(
            report.clean(),
            "{variant:?} with correct offsets must pass: {}",
            report.render_human()
        );
    }
}
