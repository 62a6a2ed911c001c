//! The four benchmark workloads, in `miniamr` flag vocabulary, and the
//! seed → `Config` mapping.
//!
//! Each workload is a flag string parsed through the same
//! [`miniamr::cli::ScenarioArgs`] the CLI uses, so the benchmark cannot
//! drift from what a user can type. The seed only jitters the objects
//! *after* parsing: the program never sees the seed, only the `Config`.

use miniamr::cli::ScenarioArgs;
use miniamr::{Config, Variant};
use vmpi::{FabricParams, NetworkModel};

/// Flags shared by every workload: the load shape (2 ranks × 1 worker).
const LOAD: &str = "--npx 2 --npy 1 --npz 1 --workers 1 --stencil 7";

/// One named workload.
pub struct Workload {
    pub name: &'static str,
    /// One line: why the workload exists.
    pub why: &'static str,
    /// Scenario + network flags, `miniamr` vocabulary. "Never regrid" is
    /// `--refine_freq 1000`: 0 is a rem-by-zero panic in the program,
    /// recorded in the README and routed around in no other way.
    flags: &'static str,
    /// `checksum_digest` of a seed-1 run (every variant), pinned.
    pub seed1_digest: &'static str,
}

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "coarse_compute",
        why: "36 blocks of 1.3 MB: stencil and ghost copies are >90% of the time, runtime and transport almost nothing",
        flags: "--init_x 1 --init_y 2 --init_z 2 --nx 16 --ny 16 --nz 16 --num_vars 40 \
                --num_refine 1 --input four_spheres --num_tsteps 4 --stages_per_ts 10 \
                --checksum_freq 10 --refine_freq 1000",
        seed1_digest: "2256e6a40cf23c11",
    },
    Workload {
        name: "tasks_fine",
        why: "1.2k blocks of 4^3x4: ~0.8M tasks and ~28k tiny messages, so taskrt, vmpi, tampi and the pool dominate",
        flags: "--init_x 2 --init_y 4 --init_z 4 --nx 4 --ny 4 --nz 4 --num_vars 4 \
                --num_refine 2 --input four_spheres --num_tsteps 8 --stages_per_ts 10 \
                --checksum_freq 5 --refine_freq 1000 --send_faces --separate_buffers",
        seed1_digest: "1dab3b4b13377138",
    },
    Workload {
        name: "regrid_churn",
        why: "regrids every timestep: traces never replay, plans rebuild, blocks move, checkpoints and collectives run",
        flags: "--init_x 2 --init_y 2 --init_z 2 --nx 8 --ny 8 --nz 8 --num_vars 10 \
                --num_refine 2 --input single_sphere --num_tsteps 24 --stages_per_ts 2 \
                --checksum_freq 2 --refine_freq 1 --ckpt_freq 4 --lb sfc",
        seed1_digest: "d38452ccbae95cb1",
    },
    Workload {
        name: "net_overlap",
        why: "the only workload on the modelled fabric; transit is about equal to compute, the paper's overlap case",
        flags: "--init_x 2 --init_y 2 --init_z 2 --nx 12 --ny 12 --nz 12 --num_vars 20 \
                --num_refine 1 --input four_spheres --num_tsteps 4 --stages_per_ts 10 \
                --checksum_freq 10 --refine_freq 1000 --send_faces --separate_buffers \
                --max_comm_tasks 8 \
                --ranks_per_node 1 --fabric on --bandwidth_gbps 0.01 --latency_us 20",
        seed1_digest: "3bc6f940386b1a22",
    },
];

pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// How a run deviates from the workload's flag string.
#[derive(Clone, Copy, Default)]
pub struct Shape {
    /// Override `--num_tsteps` (0 measures set-up alone; `--smoke` uses 2).
    pub tsteps: Option<usize>,
    /// One rank over the same global mesh (`npx 1`, `init_x` doubled):
    /// the serial baseline of `core.par_eff.mpi`.
    pub serial: bool,
}

/// A fully resolved scenario: what `miniamr::run_world` takes.
pub struct Scenario {
    pub cfg: Config,
    pub net: NetworkModel,
    /// The fabric parameters when the modelled fabric is on.
    pub fabric: Option<FabricParams>,
}

impl Workload {
    /// All flags of this workload, as a user would type them.
    pub fn flags(&self) -> String {
        format!("{LOAD} {}", self.flags)
    }

    /// Resolves the workload for one variant, seed and shape.
    pub fn scenario(&self, variant: Variant, seed: u64, shape: Shape) -> Scenario {
        let args: Vec<String> = self.flags().split(' ').map(str::to_string).collect();
        let mut sc = ScenarioArgs::default();
        // Network flags are the CLI's own (not scenario flags); the three
        // instant-network workloads name none of them.
        let mut fabric_on = false;
        let mut fab = FabricParams::cluster();
        let mut i = 0;
        while i < args.len() {
            let consumed = sc
                .consume(&args, &mut i)
                .unwrap_or_else(|e| panic!("workload {}: {e}", self.name));
            if !consumed {
                let flag = args[i].as_str();
                i += 1;
                let value = args[i].as_str();
                let num = || -> f64 { value.parse().expect("numeric network flag") };
                match flag {
                    "--fabric" => fabric_on = value == "on",
                    "--bandwidth_gbps" => fab.bandwidth = num() * 1e9,
                    "--latency_us" => fab.latency = num() * 1e-6,
                    other => panic!("workload {}: unknown flag {other}", self.name),
                }
            }
            i += 1;
        }
        sc.variant = variant;
        if let Some(ts) = shape.tsteps {
            sc.num_tsteps = ts;
        }
        if shape.serial {
            sc.params.init_x *= sc.params.npx;
            sc.params.npx = 1;
        }
        let mut cfg = sc
            .config()
            .unwrap_or_else(|e| panic!("workload {}: {e}", self.name));
        jitter_objects(&mut cfg.objects, seed);

        if !fabric_on {
            return Scenario {
                cfg,
                net: NetworkModel::instant(),
                fabric: None,
            };
        }
        // Mirrors the `miniamr` driver: the fabric describes the same
        // machine as the config.
        fab.ranks_per_node = cfg.ranks_per_node;
        fab.eager_threshold = cfg.eager_bytes;
        if cfg.ranks_per_node == 0 {
            fab.intra_node_factor = 1.0;
        }
        fab.validate().expect("workload fabric parameters");
        let net = NetworkModel::from_fabric(&fab)
            .with_coll(cfg.coll)
            .with_fabric(fab.clone());
        Scenario {
            cfg,
            net,
            fabric: Some(fab),
        }
    }
}

/// splitmix64: the seed stream behind the object jitter.
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Uniform in [-1, 1).
fn unit(state: &mut u64) -> f64 {
    (splitmix64(state) >> 11) as f64 / (1u64 << 52) as f64 - 1.0
}

/// Largest centre displacement per coordinate.
pub const CENTRE_JITTER: f64 = 0.01;
/// Largest relative radius change.
pub const RADIUS_JITTER: f64 = 0.01;

/// Moves every object's centre by at most [`CENTRE_JITTER`] per
/// coordinate and scales its size by at most [`RADIUS_JITTER`].
pub fn jitter_objects(objects: &mut [amr_mesh::Object], seed: u64) {
    let mut state = seed;
    for o in objects.iter_mut() {
        for c in o.center.iter_mut() {
            *c += CENTRE_JITTER * unit(&mut state);
        }
        let scale = 1.0 + RADIUS_JITTER * unit(&mut state);
        for s in o.size.iter_mut() {
            *s *= scale;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::child::VARIANTS;
    use miniamr::rank::RankState;

    #[test]
    fn every_workload_resolves_to_two_ranks_of_one_worker() {
        for wl in &WORKLOADS {
            for v in VARIANTS {
                let sc = wl.scenario(v, 1, Shape::default());
                assert_eq!(sc.cfg.params.num_ranks(), 2, "{}", wl.name);
                assert_eq!(sc.cfg.workers, 1, "{}", wl.name);
                assert_eq!(sc.cfg.variant, v);
                assert_eq!(sc.fabric.is_some(), wl.name == "net_overlap");
                assert_eq!(sc.net.is_instant(), wl.name != "net_overlap");
            }
            let serial = Shape {
                serial: true,
                ..Shape::default()
            };
            let one = wl.scenario(Variant::MpiOnly, 1, serial).cfg.params;
            let two = wl
                .scenario(Variant::MpiOnly, 1, Shape::default())
                .cfg
                .params;
            assert_eq!(one.num_ranks(), 1);
            assert_eq!(one.init_x, two.init_x * two.npx, "same global mesh");
        }
    }

    #[test]
    fn same_seed_same_objects_other_seed_other_objects() {
        for wl in &WORKLOADS {
            let objects = |seed| {
                wl.scenario(Variant::MpiOnly, seed, Shape::default())
                    .cfg
                    .objects
            };
            assert_eq!(objects(7), objects(7), "{}", wl.name);
            assert_ne!(objects(1), objects(2), "{}", wl.name);
        }
    }

    #[test]
    fn jitter_stays_inside_its_limits() {
        let base = vec![amr_mesh::Object::sphere([0.2, 0.3, 0.35], 0.12, [0.1, 0.0, 0.0]); 4];
        for seed in 0..64 {
            let mut moved = base.clone();
            jitter_objects(&mut moved, seed);
            for (a, b) in base.iter().zip(&moved) {
                for d in 0..3 {
                    assert!((a.center[d] - b.center[d]).abs() <= CENTRE_JITTER);
                    assert!((b.size[d] / a.size[d] - 1.0).abs() <= RADIUS_JITTER + 1e-12);
                }
                assert_eq!(a.move_rate, b.move_rate);
            }
        }
    }

    /// The jitter is smaller than the clearance between the spheres and
    /// the block faces around them, so the three workloads that never
    /// regrid keep one mesh — and one amount of work — on every seed.
    #[test]
    fn no_regrid_workloads_keep_their_mesh_on_every_seed() {
        for wl in WORKLOADS.iter().filter(|w| w.name != "regrid_churn") {
            let blocks = |seed| {
                let cfg = wl.scenario(Variant::MpiOnly, seed, Shape::default()).cfg;
                RankState::init(&cfg, 0, 2).dir.len()
            };
            let first = blocks(1);
            for seed in 2..=24 {
                assert_eq!(blocks(seed), first, "{} seed {seed}", wl.name);
            }
        }
    }

    /// Seeds 1 and 2 give different digests where the mesh follows the
    /// objects, and all three variants stay bitwise equal per seed.
    #[test]
    fn seeds_change_the_digest_and_variants_agree() {
        let wl = find("regrid_churn").unwrap();
        let shape = Shape {
            tsteps: Some(12),
            ..Shape::default()
        };
        let digest = |v, seed| {
            let sc = wl.scenario(v, seed, shape);
            let stats = miniamr::run_world(&sc.cfg, 2, sc.net);
            assert_eq!(stats[0].checksums_failed, 0);
            stats[0].checksum_digest()
        };
        let per_seed: Vec<u64> = [1, 2]
            .into_iter()
            .map(|seed| {
                let mpi = digest(Variant::MpiOnly, seed);
                assert_eq!(digest(Variant::ForkJoin, seed), mpi, "seed {seed}");
                assert_eq!(digest(Variant::DataFlow, seed), mpi, "seed {seed}");
                mpi
            })
            .collect();
        assert_ne!(per_seed[0], per_seed[1]);
    }
}
