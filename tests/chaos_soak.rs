//! Chaos soak: the headline reliability guarantee, end to end.
//!
//! For any seeded fault plan whose losses stay within the retry budget,
//! every variant must produce **bitwise-identical checksum digests** to
//! its fault-free run — the reliability layer (CRC framing, ack/
//! retransmit, duplicate suppression) absorbs drops, duplicates,
//! corruption and delay spikes without perturbing the numerics, and
//! periodic checkpoints ride along without touching cell data.

use miniamr::{Config, Variant};
use std::time::Duration;
use vmpi::{ChaosConfig, FabricParams, NetworkModel, PeerLostAction};

fn soak_cfg() -> Config {
    let mut cfg = Config::smoke_test();
    cfg.num_tsteps = 3;
    cfg.stages_per_ts = 3;
    cfg.checksum_freq = 3;
    cfg.refine_freq = 2;
    cfg.workers = 2;
    cfg
}

/// A survivable fault plan: lossy enough to force retransmission and
/// reordering machinery through its paces, budgeted so no peer is ever
/// declared lost.
fn survivable_plan(seed: u64) -> ChaosConfig {
    ChaosConfig {
        seed,
        drop_p: 0.08,
        dup_p: 0.05,
        corrupt_p: 0.05,
        delay_p: 0.2,
        retry_budget: 20,
        rto: Duration::from_millis(2),
        // If the budget were ever exhausted the run should fail loudly in
        // the harness rather than kill the test process.
        on_peer_lost: PeerLostAction::FailRequests,
        ..ChaosConfig::default()
    }
}

/// The scalar wire.
fn scalar() -> NetworkModel {
    NetworkModel::new(Duration::from_micros(50), 1.0e9)
}

/// The contention-aware fabric, every rank on its own node: each frame
/// transmission is a flow.
fn fabric() -> NetworkModel {
    let p = FabricParams {
        ranks_per_node: 0,
        ..FabricParams::cluster()
    };
    NetworkModel::from_fabric(&p).with_fabric(p)
}

fn digest_of(cfg: &Config, variant: Variant, net: NetworkModel) -> u64 {
    let mut cfg = cfg.clone();
    cfg.variant = variant;
    let stats = miniamr::run_world(&cfg, cfg.params.num_ranks(), net);
    for s in &stats {
        assert_eq!(
            s.checksums_failed, 0,
            "variant {variant:?} failed validation"
        );
    }
    // Checksums are broadcast: every rank must agree on the digest.
    for s in &stats[1..] {
        assert_eq!(
            s.checksum_digest(),
            stats[0].checksum_digest(),
            "ranks disagree"
        );
    }
    if cfg.ckpt_freq != 0 {
        assert!(
            stats[0].checkpoints_taken > 0,
            "checkpoint cadence never fired"
        );
    }
    stats[0].checksum_digest()
}

#[test]
fn chaos_digests_match_fault_free_across_variants_and_seeds() {
    let base = soak_cfg();
    for variant in [Variant::MpiOnly, Variant::ForkJoin, Variant::DataFlow] {
        let reference = digest_of(&base, variant, scalar());
        for (wire, net) in [("scalar", scalar as fn() -> _), ("fabric", fabric)] {
            for seed in [11, 42, 1337] {
                let mut cfg = base.clone();
                cfg.chaos = Some(survivable_plan(seed));
                cfg.ckpt_freq = 4;
                let got = digest_of(&cfg, variant, net());
                assert_eq!(
                    got, reference,
                    "variant {variant:?} seed {seed} on the {wire} wire: chaos run diverged from fault-free digest"
                );
            }
        }
    }
}

#[test]
fn checkpoint_cadence_is_invisible_to_results() {
    // Checkpoints are pure reads; any frequency must leave the digest
    // untouched even without faults.
    let base = soak_cfg();
    let reference = digest_of(&base, Variant::DataFlow, scalar());
    for freq in [1, 5] {
        let mut cfg = base.clone();
        cfg.ckpt_freq = freq;
        assert_eq!(
            digest_of(&cfg, Variant::DataFlow, scalar()),
            reference,
            "ckpt_freq {freq} changed results"
        );
    }
}
