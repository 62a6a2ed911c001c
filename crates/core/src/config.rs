//! Run configuration: the miniAMR command-line surface plus the paper's
//! new options, and the two input problems used in the evaluation.

use amr_mesh::{MeshParams, Object};
use std::sync::Arc;

/// Identity of one *job* in a multi-job ("service mode") process.
///
/// It keys nothing: a run owns its checkpoints and boundary snapshots
/// ([`crate::elastic::run`]), so concurrent in-process jobs (the elastic
/// soak harness) cannot restore each other's ranks whatever their ids.
/// The `id` names the job in messages and reports; the `rank_base` keeps
/// the jobs' lanes apart on the one process-wide observability bus.
#[derive(Debug)]
pub struct JobCtx {
    /// Job id; 0 is the implicit single-job default.
    pub id: u64,
    /// Offset added to this job's rank numbers in obs events, giving
    /// concurrent jobs disjoint rank lanes in traces and reports.
    pub rank_base: u32,
}

impl JobCtx {
    /// A fresh job context.
    pub fn new(id: u64, rank_base: u32) -> Arc<JobCtx> {
        Arc::new(JobCtx { id, rank_base })
    }
}

/// Which parallelization runs (§V: the three compared variants).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Variant {
    /// Reference MPI-only execution (one rank per core).
    MpiOnly,
    /// MPI + fork-join shared-memory parallelism; serialized
    /// communication.
    ForkJoin,
    /// The paper's full data-flow taskification over the task-aware
    /// communication layer.
    DataFlow,
}

/// Load-balancing strategy applied after refinement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BalanceKind {
    /// Morton space-filling-curve repartition (primary).
    Sfc,
    /// Recursive coordinate bisection (the reference's strategy).
    Rcb,
    /// No load balancing (ablation).
    None,
}

/// Full configuration of a miniAMR run.
#[derive(Debug, Clone)]
pub struct Config {
    /// Mesh geometry (`--npx/--npy/--npz/--init_*/--nx/--ny/--nz/
    /// --num_vars/--num_refine/--block_change`).
    pub params: MeshParams,
    /// Timesteps to simulate (`--num_tsteps`).
    pub num_tsteps: usize,
    /// Stages per timestep (`--stages_per_ts`).
    pub stages_per_ts: usize,
    /// Checksum validation period in stages (`--checksum_freq`).
    pub checksum_freq: usize,
    /// Refinement period in timesteps (`--refine_freq`).
    pub refine_freq: usize,
    /// Variables per communication group (`--comm_vars`; the paper uses
    /// one group).
    pub comm_vars: usize,
    /// Stencil kind (7-point in all paper experiments).
    pub stencil: amr_mesh::stencil::StencilKind,
    /// One message per block face instead of one aggregated message per
    /// neighbor and direction (`--send_faces`).
    pub send_faces: bool,
    /// Separate communication buffers per direction, removing the false
    /// dependency that serializes directions (`--separate_buffers`,
    /// §IV-A).
    pub separate_buffers: bool,
    /// With `send_faces`: cap on communication tasks (messages) per
    /// neighbor and direction; 0 = one per face (`--max_comm_tasks`).
    pub max_comm_tasks: usize,
    /// Per-rank block capacity for the exchange protocol's ACK check
    /// (`--max_blocks`).
    pub max_blocks: usize,
    /// The simulated objects (`--num_objects` + specs).
    pub objects: Vec<Object>,
    /// Load balancing strategy (`--lb_opt`).
    pub balance: BalanceKind,
    /// Worker threads per rank for the hybrid variants.
    pub workers: usize,
    /// Variant under test.
    pub variant: Variant,
    /// Delay checksum validation one checkpoint using
    /// taskwait-with-dependencies (§IV-C; DataFlow only).
    pub delayed_checksum: bool,
    /// Run a finishing task's first unblocked successor next on the same
    /// worker (the locality policy credited for the IPC gain, §V-B);
    /// disable for ablation studies.
    pub immediate_successor: bool,
    /// Task-graph trace & replay cache (`--replay on|off`; DataFlow
    /// only). Once a timestep's submission stream stabilizes, dependency
    /// edges replay from a frozen trace instead of re-running claim-table
    /// analysis; regrid and checkpoint restore invalidate the cache.
    pub replay: bool,
    /// Checkpoint period in stages (`--ckpt_freq`; 0 = no checkpoints).
    /// Each rank snapshots its recoverable state into its run's
    /// [`crate::checkpoint::CheckpointStore`], which the driver restores
    /// and verifies when a peer is declared lost.
    pub ckpt_freq: usize,
    /// Deterministic fault plan for the transport layer (`--chaos_*`
    /// flags). `None` leaves the fault-free send/receive path untouched
    /// byte for byte.
    pub chaos: Option<vmpi::ChaosConfig>,
    /// The job this run belongs to in a multi-job process (`None`: the
    /// implicit job 0): a name for messages and an obs-lane offset; see
    /// [`JobCtx`].
    pub job: Option<Arc<JobCtx>>,
    /// Collective algorithm family (`--coll flat|hier`): `Hier` combines
    /// inside each node through shared-memory slots before the inter-node
    /// stage. Forwarded to [`vmpi::NetworkModel::with_coll`]; digest
    /// parity with `Flat` is pinned by tests and CI.
    pub coll: vmpi::CollAlgo,
    /// Merge the per-face messages of an inter-node rank pair back into
    /// one flow per direction when their aggregate payload is past the
    /// eager threshold (`--coalesce on|off`). Intra-node pairs keep the
    /// configured `--send_faces`/`--max_comm_tasks` granularity: their
    /// transfers bypass the NIC, so splitting them still buys task
    /// parallelism without paying per-message injection overhead.
    pub coalesce: bool,
    /// Consecutive ranks grouped into one node (0 = every rank its own
    /// node). Mirrors [`vmpi::FabricParams::ranks_per_node`]; the miniamr
    /// driver keeps the two in sync.
    pub ranks_per_node: usize,
    /// Eager-protocol threshold in bytes used by the coalescer to decide
    /// which aggregates are worth merging, and by the data-flow stream to
    /// decide which packs send (mirrors
    /// [`vmpi::FabricParams::eager_threshold`]; a run clamps it to its
    /// world's [`vmpi::NetworkModel::eager_threshold`]).
    pub eager_bytes: usize,
    /// Reproduce the seed's group-size-relative communication-buffer
    /// offsets (`--legacy_group_offsets`): the legacy stride of
    /// `comm_plan::BufferLayout`, which only the data-flow
    /// variant's ordering depends on.
    ///
    /// Buffers are allocated with a stride of the *largest* group size,
    /// but the seed computed message base offsets with the *current*
    /// group's size. With `--comm_vars` producing uneven groups plus
    /// `--send_faces`, the last group's buffer regions become disjoint
    /// from the other groups' regions for the same message tag, the WAR
    /// edges that serialize receive posting across groups disappear, and
    /// out-of-order receives match wrong-size payloads — a fatal
    /// `Truncated` transfer that kills the delivery thread and deadlocks
    /// the run. Kept as an ablation so the stall watchdog has a known
    /// in-tree deadlock to detect (see `scripts/ci.sh`); the stream keeps
    /// the seed's four tasks for every message too, whose receive tasks
    /// post up front and make the hang land the same way on every run.
    pub legacy_group_offsets: bool,
}

impl Config {
    /// Baseline configuration over the given mesh: sensible defaults for
    /// everything else.
    pub fn new(params: MeshParams) -> Config {
        Config {
            params,
            num_tsteps: 4,
            stages_per_ts: 4,
            checksum_freq: 4,
            refine_freq: 2,
            comm_vars: usize::MAX, // one group covering all vars
            stencil: amr_mesh::stencil::StencilKind::SevenPoint,
            send_faces: false,
            separate_buffers: false,
            max_comm_tasks: 0,
            max_blocks: usize::MAX,
            objects: Vec::new(),
            balance: BalanceKind::Sfc,
            workers: 2,
            variant: Variant::MpiOnly,
            delayed_checksum: false,
            immediate_successor: true,
            replay: true,
            ckpt_freq: 0,
            chaos: None,
            job: None,
            coll: vmpi::CollAlgo::Flat,
            coalesce: false,
            // Topology defaults match FabricParams::cluster(); the
            // miniamr driver overwrites both from the actual fabric.
            ranks_per_node: vmpi::FabricParams::cluster().ranks_per_node,
            eager_bytes: vmpi::FabricParams::cluster().eager_threshold,
            legacy_group_offsets: false,
        }
    }

    /// Tiny two-rank configuration for fast tests.
    pub fn smoke_test() -> Config {
        let params = MeshParams {
            npx: 2,
            npy: 1,
            npz: 1,
            init_x: 1,
            init_y: 2,
            init_z: 2,
            nx: 4,
            ny: 4,
            nz: 4,
            num_vars: 2,
            num_refine: 1,
            block_change: 1,
        };
        let mut cfg = Config::new(params);
        cfg.objects = vec![Object::sphere([0.3, 0.4, 0.5], 0.2, [0.05, 0.0, 0.0])];
        cfg
    }

    /// The [`single_sphere`] input over `params`.
    pub fn single_sphere(params: MeshParams, num_tsteps: usize) -> Config {
        let mut cfg = Config::new(params);
        cfg.num_tsteps = num_tsteps;
        cfg.objects = single_sphere(num_tsteps);
        cfg
    }

    /// The [`four_spheres`] input over `params`.
    pub fn four_spheres(params: MeshParams, num_tsteps: usize) -> Config {
        let mut cfg = Config::new(params);
        cfg.num_tsteps = num_tsteps;
        cfg.objects = four_spheres(num_tsteps);
        cfg
    }

    /// Number of variables in communication group `g`, and the variable
    /// range it covers.
    pub fn var_group(&self, g: usize) -> std::ops::Range<usize> {
        let per = self.comm_vars.min(self.params.num_vars).max(1);
        let start = g * per;
        let end = (start + per).min(self.params.num_vars);
        start..end
    }

    /// Number of communication groups per stage.
    pub fn num_groups(&self) -> usize {
        let per = self.comm_vars.min(self.params.num_vars).max(1);
        self.params.num_vars.div_ceil(per)
    }

    /// Node index of a rank under the configured grouping (0 ranks per
    /// node = every rank its own node, as in [`vmpi::FabricParams`]).
    #[inline]
    pub fn node_of(&self, rank: usize) -> usize {
        rank.checked_div(self.ranks_per_node).unwrap_or(rank)
    }

    /// Whether two ranks share a node.
    #[inline]
    pub fn same_node(&self, a: usize, b: usize) -> bool {
        self.ranks_per_node > 0 && self.node_of(a) == self.node_of(b)
    }

    /// The id of the job this run belongs to (0 unless set).
    pub fn job_id(&self) -> u64 {
        self.job.as_ref().map_or(0, |j| j.id)
    }

    /// The obs-lane rank of a world rank: the job's rank base plus the
    /// rank, so concurrent jobs occupy disjoint lanes.
    pub fn obs_rank(&self, rank: usize) -> u32 {
        self.job.as_ref().map_or(0, |j| j.rank_base) + rank as u32
    }
}

/// The objects of the *single sphere* input (Rico et al.; §V, Table I):
/// one big sphere entering the mesh from a lower corner, causing early
/// imbalance on the ranks owning that corner.
pub fn single_sphere(num_tsteps: usize) -> Vec<Object> {
    // Starts outside the corner and moves diagonally in, crossing the
    // mesh over the configured timesteps.
    let rate = 1.4 / num_tsteps.max(1) as f64;
    vec![Object::sphere([-0.3, -0.3, -0.3], 0.35, [rate, rate, rate])]
}

/// The objects of the *four spheres* input (Vaughan et al.; §V, Table II
/// and Figures 4–5): two spheres on one side moving along +X, two on the
/// opposite side moving along −X, placed so they pass near the center
/// without colliding; rates sized so they reach the opposite side
/// without leaving the mesh.
pub fn four_spheres(num_tsteps: usize) -> Vec<Object> {
    let travel = 0.6; // from x=0.2 to x=0.8 (and back side mirrored)
    let rate = travel / num_tsteps.max(1) as f64;
    let r = 0.12;
    vec![
        Object::sphere([0.2, 0.30, 0.35], r, [rate, 0.0, 0.0]),
        Object::sphere([0.2, 0.70, 0.65], r, [rate, 0.0, 0.0]),
        Object::sphere([0.8, 0.30, 0.65], r, [-rate, 0.0, 0.0]),
        Object::sphere([0.8, 0.70, 0.35], r, [-rate, 0.0, 0.0]),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn var_groups_cover_all_vars() {
        let mut cfg = Config::smoke_test();
        cfg.params.num_vars = 7;
        cfg.comm_vars = 3;
        assert_eq!(cfg.num_groups(), 3);
        assert_eq!(cfg.var_group(0), 0..3);
        assert_eq!(cfg.var_group(1), 3..6);
        assert_eq!(cfg.var_group(2), 6..7);
    }

    #[test]
    fn default_single_group() {
        let cfg = Config::smoke_test();
        assert_eq!(cfg.num_groups(), 1);
        assert_eq!(cfg.var_group(0), 0..2);
    }

    #[test]
    fn four_spheres_never_leave_the_mesh() {
        let params = MeshParams::test_small();
        let cfg = Config::four_spheres(params, 20);
        let mut objs = cfg.objects.clone();
        for _ in 0..20 {
            for o in objs.iter_mut() {
                o.step();
            }
        }
        for o in &objs {
            for d in 0..3 {
                assert!(
                    o.center[d] > 0.0 && o.center[d] < 1.0,
                    "sphere left the mesh: {:?}",
                    o.center
                );
            }
        }
    }
}
