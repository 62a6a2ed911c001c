//! Shared scenario-flag parsing for the `miniamr` and `dfcheck`
//! binaries.
//!
//! The *scenario* — everything that shapes the task/message structure of
//! a run: mesh geometry, variant, schedule cadence, communication
//! configuration — is parsed here once, so the static verifier's CLI
//! cannot drift from the application's. Flags that only affect live
//! execution (network model, observability, chaos injection) stay in
//! `miniamr`'s own parser.

use crate::config::{BalanceKind, Config, Variant};
use amr_mesh::MeshParams;

/// Scenario flags with the `miniamr` defaults.
#[derive(Debug, Clone)]
pub struct ScenarioArgs {
    /// Mesh geometry.
    pub params: MeshParams,
    /// Parallelization variant.
    pub variant: Variant,
    /// Input problem (`single_sphere` / `four_spheres`).
    pub input: String,
    /// Timesteps.
    pub num_tsteps: usize,
    /// Stages per timestep.
    pub stages_per_ts: usize,
    /// Stages between checksums.
    pub checksum_freq: usize,
    /// Timesteps between refinements.
    pub refine_freq: usize,
    /// Variables per communication group.
    pub comm_vars: usize,
    /// Per-rank block capacity.
    pub max_blocks: usize,
    /// One message per face.
    pub send_faces: bool,
    /// Per-direction communication buffers.
    pub separate_buffers: bool,
    /// Cap on comm tasks per neighbor+direction.
    pub max_comm_tasks: usize,
    /// Delayed checksum validation (dataflow).
    pub delayed_checksum: bool,
    /// Load balancer.
    pub balance: BalanceKind,
    /// Worker threads per rank.
    pub workers: usize,
    /// Task-graph trace & replay cache.
    pub replay: bool,
    /// Stencil kind.
    pub stencil: amr_mesh::stencil::StencilKind,
    /// Checkpoint period in stages.
    pub ckpt_freq: usize,
    /// Collective algorithm family (`--coll flat|hier`).
    pub coll: vmpi::CollAlgo,
    /// Coalesce inter-node per-face messages (`--coalesce on|off`).
    pub coalesce: bool,
    /// Consecutive ranks grouped into one node (0 = every rank its own
    /// node). A scenario flag — not just a network knob — because the
    /// coalescer shapes the message structure from it.
    pub ranks_per_node: usize,
    /// Eager-protocol threshold in KiB (scenario-visible for the same
    /// reason: the coalescer compares aggregates against it).
    pub eager_kb: usize,
    /// Reproduce the seed's buggy group-relative buffer offsets.
    pub legacy_group_offsets: bool,
}

impl Default for ScenarioArgs {
    fn default() -> Self {
        ScenarioArgs {
            params: MeshParams {
                npx: 2,
                npy: 1,
                npz: 1,
                init_x: 1,
                init_y: 2,
                init_z: 2,
                nx: 8,
                ny: 8,
                nz: 8,
                num_vars: 8,
                num_refine: 2,
                block_change: 1,
            },
            variant: Variant::MpiOnly,
            input: "four_spheres".to_string(),
            num_tsteps: 8,
            stages_per_ts: 10,
            checksum_freq: 5,
            refine_freq: 4,
            comm_vars: usize::MAX,
            max_blocks: usize::MAX,
            send_faces: false,
            separate_buffers: false,
            max_comm_tasks: 0,
            delayed_checksum: false,
            balance: BalanceKind::Sfc,
            workers: 2,
            replay: true,
            stencil: amr_mesh::stencil::StencilKind::SevenPoint,
            ckpt_freq: 0,
            coll: vmpi::CollAlgo::Flat,
            coalesce: false,
            ranks_per_node: 0,
            eager_kb: vmpi::FabricParams::cluster().eager_threshold / 1024,
            legacy_group_offsets: false,
        }
    }
}

fn val(args: &[String], i: &mut usize, flag: &str) -> Result<String, String> {
    *i += 1;
    args.get(*i)
        .cloned()
        .ok_or_else(|| format!("{flag} needs a value"))
}

fn num<T: std::str::FromStr>(args: &[String], i: &mut usize, flag: &str) -> Result<T, String> {
    val(args, i, flag)?
        .parse()
        .map_err(|_| format!("{flag}: invalid value"))
}

impl ScenarioArgs {
    /// Tries to consume the flag at `args[*i]` (and its value, advancing
    /// `*i` past it). `Ok(true)`: consumed; `Ok(false)`: not a scenario
    /// flag — the caller's own parser should handle it; `Err`: the flag
    /// was recognized but its value is invalid.
    pub fn consume(&mut self, args: &[String], i: &mut usize) -> Result<bool, String> {
        let flag = args[*i].clone();
        let f = flag.as_str();
        match f {
            "--variant" => {
                self.variant = match val(args, i, f)?.as_str() {
                    "mpi" => Variant::MpiOnly,
                    "forkjoin" => Variant::ForkJoin,
                    "dataflow" => Variant::DataFlow,
                    v => return Err(format!("--variant: unknown variant {v}")),
                }
            }
            "--npx" => self.params.npx = num(args, i, f)?,
            "--npy" => self.params.npy = num(args, i, f)?,
            "--npz" => self.params.npz = num(args, i, f)?,
            "--init_x" => self.params.init_x = num(args, i, f)?,
            "--init_y" => self.params.init_y = num(args, i, f)?,
            "--init_z" => self.params.init_z = num(args, i, f)?,
            "--nx" => self.params.nx = num(args, i, f)?,
            "--ny" => self.params.ny = num(args, i, f)?,
            "--nz" => self.params.nz = num(args, i, f)?,
            "--num_vars" => self.params.num_vars = num(args, i, f)?,
            "--num_refine" => self.params.num_refine = num(args, i, f)?,
            "--block_change" => self.params.block_change = num(args, i, f)?,
            "--num_tsteps" => self.num_tsteps = num(args, i, f)?,
            "--stages_per_ts" => self.stages_per_ts = num(args, i, f)?,
            "--checksum_freq" => self.checksum_freq = num(args, i, f)?,
            "--refine_freq" => self.refine_freq = num(args, i, f)?,
            "--comm_vars" => self.comm_vars = num(args, i, f)?,
            "--max_blocks" => self.max_blocks = num(args, i, f)?,
            "--input" => self.input = val(args, i, f)?,
            "--send_faces" => self.send_faces = true,
            "--separate_buffers" => self.separate_buffers = true,
            "--max_comm_tasks" => self.max_comm_tasks = num(args, i, f)?,
            "--delayed_checksum" => self.delayed_checksum = true,
            "--lb" => {
                self.balance = match val(args, i, f)?.as_str() {
                    "sfc" => BalanceKind::Sfc,
                    "rcb" => BalanceKind::Rcb,
                    "none" => BalanceKind::None,
                    v => return Err(format!("--lb: unknown balancer {v}")),
                }
            }
            "--workers" => self.workers = num(args, i, f)?,
            "--replay" => {
                self.replay = match val(args, i, f)?.as_str() {
                    "on" => true,
                    "off" => false,
                    v => return Err(format!("--replay: expected on|off, got {v}")),
                }
            }
            "--stencil" => {
                self.stencil = match val(args, i, f)?.as_str() {
                    "7" => amr_mesh::stencil::StencilKind::SevenPoint,
                    "27" => amr_mesh::stencil::StencilKind::TwentySevenPoint,
                    v => return Err(format!("--stencil: expected 7|27, got {v}")),
                }
            }
            "--ckpt_freq" => self.ckpt_freq = num(args, i, f)?,
            "--coll" => {
                self.coll = match val(args, i, f)?.as_str() {
                    "flat" => vmpi::CollAlgo::Flat,
                    "hier" => vmpi::CollAlgo::Hier,
                    v => return Err(format!("--coll: expected flat|hier, got {v}")),
                }
            }
            "--coalesce" => {
                self.coalesce = match val(args, i, f)?.as_str() {
                    "on" => true,
                    "off" => false,
                    v => return Err(format!("--coalesce: expected on|off, got {v}")),
                }
            }
            "--ranks_per_node" => self.ranks_per_node = num(args, i, f)?,
            "--eager_kb" => self.eager_kb = num(args, i, f)?,
            "--legacy_group_offsets" => self.legacy_group_offsets = true,
            _ => return Ok(false),
        }
        Ok(true)
    }

    /// Builds the validated [`Config`].
    pub fn config(&self) -> Result<Config, String> {
        let mut cfg = match self.input.as_str() {
            "single_sphere" => Config::single_sphere(self.params.clone(), self.num_tsteps),
            "four_spheres" => Config::four_spheres(self.params.clone(), self.num_tsteps),
            other => return Err(format!("--input: unknown problem {other}")),
        };
        cfg.variant = self.variant;
        cfg.num_tsteps = self.num_tsteps;
        cfg.stages_per_ts = self.stages_per_ts;
        cfg.checksum_freq = self.checksum_freq;
        cfg.refine_freq = self.refine_freq;
        cfg.comm_vars = self.comm_vars;
        cfg.max_blocks = self.max_blocks;
        cfg.send_faces = self.send_faces;
        cfg.separate_buffers = self.separate_buffers;
        cfg.max_comm_tasks = self.max_comm_tasks;
        cfg.delayed_checksum = self.delayed_checksum;
        cfg.balance = self.balance;
        cfg.workers = self.workers;
        cfg.replay = self.replay;
        cfg.stencil = self.stencil;
        cfg.ckpt_freq = self.ckpt_freq;
        cfg.coll = self.coll;
        cfg.coalesce = self.coalesce;
        cfg.ranks_per_node = self.ranks_per_node;
        cfg.eager_bytes = self.eager_kb.saturating_mul(1024);
        cfg.legacy_group_offsets = self.legacy_group_offsets;
        cfg.params
            .validate()
            .map_err(|e| format!("invalid mesh parameters: {e}"))?;
        // A period of zero timesteps means nothing by itself: the cadence
        // would read it as "never regrid" (only 0 is a multiple of 0) and
        // switch refinement off without a word. A period past
        // `--num_tsteps` is the way to run without regrids.
        if cfg.refine_freq == 0 {
            return Err("--refine_freq: must be at least 1".to_string());
        }
        Ok(cfg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strs(v: &[&str]) -> Vec<String> {
        v.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn consumes_scenario_flags_and_skips_others() {
        let args = strs(&[
            "--variant",
            "dataflow",
            "--nx",
            "6",
            "--latency_us",
            "2.0",
            "--send_faces",
        ]);
        let mut sc = ScenarioArgs::default();
        let mut i = 0;
        let mut skipped = Vec::new();
        while i < args.len() {
            match sc.consume(&args, &mut i) {
                Ok(true) => {}
                Ok(false) => skipped.push(args[i].clone()),
                Err(e) => panic!("{e}"),
            }
            i += 1;
        }
        assert_eq!(sc.variant, Variant::DataFlow);
        assert_eq!(sc.params.nx, 6);
        assert!(sc.send_faces);
        // `--latency_us` and its value are left for the caller.
        assert_eq!(skipped, strs(&["--latency_us", "2.0"]));
    }

    #[test]
    fn bad_values_are_errors() {
        let mut sc = ScenarioArgs::default();
        let mut i = 0;
        assert!(sc.consume(&strs(&["--variant", "wat"]), &mut i).is_err());
        let mut i = 0;
        assert!(sc.consume(&strs(&["--nx"]), &mut i).is_err());
        let mut i = 0;
        assert!(sc.consume(&strs(&["--nx", "abc"]), &mut i).is_err());
        let mut i = 0;
        assert!(sc.consume(&strs(&["--refine_freq", "0"]), &mut i).is_ok());
        assert!(sc.config().is_err(), "a zero period would mean never");
    }

    #[test]
    fn coll_and_coalesce_flags_reach_the_config() {
        let args = strs(&[
            "--coll",
            "hier",
            "--coalesce",
            "on",
            "--ranks_per_node",
            "4",
            "--eager_kb",
            "32",
        ]);
        let mut sc = ScenarioArgs::default();
        let mut i = 0;
        while i < args.len() {
            assert!(sc.consume(&args, &mut i).expect("valid flags"));
            i += 1;
        }
        let cfg = sc.config().expect("valid config");
        assert_eq!(cfg.coll, vmpi::CollAlgo::Hier);
        assert!(cfg.coalesce);
        assert_eq!(cfg.ranks_per_node, 4);
        assert_eq!(cfg.eager_bytes, 32 * 1024);
        let mut i = 0;
        assert!(sc.consume(&strs(&["--coll", "wat"]), &mut i).is_err());
        let mut i = 0;
        assert!(sc.consume(&strs(&["--coalesce", "2"]), &mut i).is_err());
    }

    #[test]
    fn config_builds_and_validates() {
        let mut sc = ScenarioArgs {
            input: "single_sphere".to_string(),
            ..ScenarioArgs::default()
        };
        let cfg = sc.config().expect("valid defaults");
        assert_eq!(cfg.num_tsteps, 8);
        sc.params.npx = 0;
        assert!(sc.config().is_err());
    }
}
