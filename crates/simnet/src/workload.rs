//! Workload extraction: the real mesh evolution, reduced to per-rank
//! per-phase work and traffic statistics.
//!
//! The generator walks the application's run skeleton
//! (`miniamr::skeleton`) without touching cell data: the cadence's steps
//! count the stages and checksum points of each refinement interval, and
//! every regrid is the application's own directory walk, priced at its
//! hooks (block moves per move list, split/merge copies and a plan round
//! per plan). Within one refinement interval the mesh is static, so one
//! [`StageStat`], a reduction of that interval's communication plan
//! ([`CommPlan`]), describes every stage of the interval.

use amr_mesh::block_id::Dir;
use amr_mesh::data::BlockLayout;
use amr_mesh::directory::RefinePlan;
use amr_mesh::face::face_dims;
use amr_mesh::{MeshDirectory, MeshParams, Object};
use miniamr::comm_plan::CommPlan;
use miniamr::exchange::Move;
use miniamr::skeleton::{self, RegridHooks, Step, Walk};
use miniamr::Config;
use std::collections::BTreeMap;

/// Parameters of a workload generation run.
#[derive(Debug, Clone)]
pub struct WorkloadParams {
    /// Mesh geometry; `npx*npy*npz` is the rank count of this workload.
    pub mesh: MeshParams,
    /// Moving objects (advanced per timestep, like the app).
    pub objects: Vec<Object>,
    /// Timesteps.
    pub num_tsteps: usize,
    /// Stages per timestep.
    pub stages_per_ts: usize,
    /// Stages between checksums.
    pub checksum_freq: usize,
    /// Timesteps between refinements.
    pub refine_freq: usize,
    /// Messages per `(src, dst, direction)` pair: 0 = one aggregated
    /// message (the reference default), `k` = up to `k` (the
    /// `--max_comm_tasks` sweep of Table II), `usize::MAX` = one per
    /// face.
    pub msgs_per_pair_dir: usize,
    /// Ranks per node (for the intra-node message discount).
    pub ranks_per_node: usize,
    /// Hierarchical two-level collectives (`--coll hier`): intra-node
    /// combine at the shared-memory discount, then an inter-node stage
    /// over node leaders.
    pub coll_hier: bool,
    /// The application's `--coalesce on`: an inter-node `(src, dst,
    /// direction)` group past the eager threshold is one message.
    pub coalesce: bool,
    /// Eager-protocol threshold in bytes for the coalescing decision.
    pub eager_bytes: usize,
}

impl WorkloadParams {
    /// The application configuration whose plans this workload reduces.
    fn config(&self) -> Config {
        let mut cfg = Config::new(self.mesh.clone());
        cfg.objects = self.objects.clone();
        cfg.num_tsteps = self.num_tsteps;
        cfg.stages_per_ts = self.stages_per_ts;
        cfg.checksum_freq = self.checksum_freq;
        cfg.refine_freq = self.refine_freq;
        cfg.send_faces = self.msgs_per_pair_dir != 0;
        cfg.max_comm_tasks = match self.msgs_per_pair_dir {
            usize::MAX => 0,
            k => k,
        };
        cfg.coalesce = self.coalesce;
        cfg.ranks_per_node = self.ranks_per_node;
        cfg.eager_bytes = self.eager_bytes;
        cfg
    }
}

/// Per-rank statistics of one (repeated) stage.
#[derive(Debug, Clone, Default)]
pub struct StageStat {
    /// Blocks owned per rank.
    pub blocks: Vec<f64>,
    /// Face elements (per variable) packed + unpacked per rank.
    pub pack_elems: Vec<f64>,
    /// Intra-rank copy elements (per variable) per rank.
    pub local_elems: Vec<f64>,
    /// Inter-node elements (per variable) received per rank.
    pub in_elems_inter: Vec<f64>,
    /// Intra-node elements (per variable) received per rank.
    pub in_elems_intra: Vec<f64>,
    /// Inter-node messages received per rank.
    pub in_msgs_inter: Vec<f64>,
    /// Intra-node messages received per rank.
    pub in_msgs_intra: Vec<f64>,
    /// Messages sent per rank (all destinations).
    pub out_msgs: Vec<f64>,
    /// Inter-node messages sent per rank.
    pub out_msgs_inter: Vec<f64>,
    /// Face transfers touching each rank (task-count estimate).
    pub face_units: Vec<f64>,
    /// Inter-node traffic aggregated per directed node pair:
    /// `(src_node, dst_node, msgs, elems-per-variable)`. This is the flow
    /// list the shared fabric model drains to price link contention; node
    /// grouping follows `ranks_per_node` (0 ⇒ one rank per node).
    pub node_pairs: Vec<(usize, usize, f64, f64)>,
}

/// Per-rank statistics of one refinement phase.
#[derive(Debug, Clone, Default)]
pub struct RefineStat {
    /// Blocks per rank after the phase (control-code work).
    pub ctrl_blocks: Vec<f64>,
    /// Split/merge copy elements (per variable) per rank.
    pub job_elems: Vec<f64>,
    /// Block-exchange elements (per variable) moved out of each rank.
    pub move_elems: Vec<f64>,
    /// Block moves out of each rank.
    pub move_msgs: Vec<f64>,
    /// Plan iterations (collective agreement rounds).
    pub plan_rounds: usize,
}

/// One refinement interval: `stages` identical stages (with `checksums`
/// checkpoints among them) followed by an optional refinement phase.
#[derive(Debug, Clone)]
pub struct Interval {
    /// Number of stages in the interval.
    pub stages: usize,
    /// Checkpoints inside the interval.
    pub checksums: usize,
    /// Per-stage statistics.
    pub stage: StageStat,
    /// The refinement ending the interval, if any.
    pub refine: Option<RefineStat>,
}

/// The full extracted workload.
#[derive(Debug, Clone)]
pub struct Workload {
    /// Rank count.
    pub n_ranks: usize,
    /// Ranks per node.
    pub ranks_per_node: usize,
    /// Hierarchical collectives selected for this workload.
    pub coll_hier: bool,
    /// Variables per cell.
    pub num_vars: usize,
    /// Cells per block.
    pub cells_per_block: usize,
    /// The interval sequence.
    pub intervals: Vec<Interval>,
    /// Total stencil flops over the run.
    pub total_flops: f64,
    /// Peak blocks on any rank at any time.
    pub peak_blocks: f64,
}

impl Workload {
    /// Generates the workload by walking the application's run skeleton:
    /// its cadence, with every regrid's directory walk.
    pub fn generate(p: &WorkloadParams) -> Workload {
        let cfg = p.config();
        let n = p.mesh.num_ranks();
        let no_cost = || RefineStat {
            ctrl_blocks: vec![0.0; n],
            job_elems: vec![0.0; n],
            move_elems: vec![0.0; n],
            move_msgs: vec![0.0; n],
            plan_rounds: 0,
        };
        let mut mesh = SimMesh {
            dir: MeshDirectory::initial(p.mesh.clone()),
            objects: cfg.objects.clone(),
            cells: BlockLayout::of(&p.mesh).cells() as f64,
            cost: no_cost(),
        };
        // The initial refinement and the regrid that load-balances it
        // before the main loop (the block exchanges at the left of the
        // paper's Fig. 1) are not priced.
        Walk::initial(&cfg).run(&mut mesh);
        Walk::regrid(&cfg, n).run(&mut mesh);
        let interval = |dir: &MeshDirectory| Interval {
            stages: 0,
            checksums: 0,
            stage: compute_stage(&cfg, dir, n),
            refine: None,
        };
        let mut intervals = vec![interval(&mesh.dir)];
        let mut total_flops = 0.0;
        for step in skeleton::cadence(&cfg, 0, cfg.num_tsteps, false) {
            let open = intervals.last_mut().expect("an interval is open");
            match step {
                Step::Stage(_) => {
                    open.stages += 1;
                    let cells = mesh.dir.len() * p.mesh.cells_per_block();
                    total_flops += (cells * p.mesh.num_vars) as f64 * 7.0;
                }
                Step::Sums => open.checksums += 1,
                Step::Regrid => {
                    mesh.objects.iter_mut().for_each(Object::step);
                    mesh.cost = no_cost();
                    Walk::regrid(&cfg, n).run(&mut mesh);
                    let next = interval(&mesh.dir);
                    open.refine = Some(RefineStat {
                        ctrl_blocks: next.stage.blocks.clone(),
                        ..std::mem::take(&mut mesh.cost)
                    });
                    intervals.push(next);
                }
                _ => {}
            }
        }
        let peak_blocks = (intervals.iter())
            .flat_map(|i| i.stage.blocks.iter().copied())
            .fold(0.0, f64::max);
        // A run that ends on a regrid runs no stage on its mesh.
        if intervals.last().is_some_and(|i| i.stages == 0) {
            intervals.pop();
        }

        Workload {
            n_ranks: n,
            ranks_per_node: p.ranks_per_node,
            coll_hier: p.coll_hier,
            num_vars: p.mesh.num_vars,
            cells_per_block: p.mesh.cells_per_block(),
            intervals,
            total_flops,
            peak_blocks,
        }
    }
}

/// The simulated mesh: the directory the regrids walk, pricing each
/// into `cost`.
struct SimMesh {
    dir: MeshDirectory,
    objects: Vec<Object>,
    /// Cells per block.
    cells: f64,
    cost: RefineStat,
}

impl RegridHooks for SimMesh {
    fn mesh(&mut self) -> (&mut MeshDirectory, &[Object]) {
        (&mut self.dir, &self.objects)
    }

    fn moves(&mut self, moves: &[Move]) {
        for m in moves {
            self.cost.move_elems[m.from] += self.cells;
            self.cost.move_msgs[m.from] += 1.0;
        }
    }

    /// A merge restriction reads 8 children and writes 1 parent on the
    /// gathering rank; a split prolongation reads 1 and writes 8.
    fn plan(&mut self, plan: &RefinePlan) {
        self.cost.plan_rounds += 1;
        let first_children = plan.merges.iter().map(|parent| parent.children()[0]);
        for id in first_children.chain(plan.splits.iter().copied()) {
            self.cost.job_elems[self.dir.owner(&id).expect("active")] += 9.0 * self.cells;
        }
    }
}

/// Reduces the application's communication plan for the current mesh to
/// per-rank stage statistics.
fn compute_stage(cfg: &Config, dir: &MeshDirectory, n: usize) -> StageStat {
    let plan = CommPlan::build(cfg, dir, n);
    let layout = BlockLayout::of(&cfg.params);
    let mut s = StageStat {
        blocks: vec![0.0; n],
        pack_elems: vec![0.0; n],
        local_elems: vec![0.0; n],
        in_elems_inter: vec![0.0; n],
        in_elems_intra: vec![0.0; n],
        in_msgs_inter: vec![0.0; n],
        in_msgs_intra: vec![0.0; n],
        out_msgs: vec![0.0; n],
        out_msgs_inter: vec![0.0; n],
        face_units: vec![0.0; n],
        node_pairs: Vec::new(),
    };
    for (_, &owner) in dir.iter() {
        s.blocks[owner] += 1.0;
    }
    for rank in 0..n {
        for d in Dir::ALL {
            // A domain-boundary fill costs half a face copy.
            let (n1, n2) = face_dims(&layout, d);
            let fills = plan.boundaries_of(rank, d).len();
            s.local_elems[rank] += (fills * n1 * n2) as f64 * 0.5;
        }
    }
    for t in &plan.locals {
        s.face_units[t.dst_rank] += 1.0;
        s.local_elems[t.dst_rank] += t.elems_per_var as f64;
    }

    let mut node_pairs: BTreeMap<(usize, usize), (f64, f64)> = BTreeMap::new();
    for m in &plan.msgs {
        let (src, dst) = (m.src_rank, m.dst_rank);
        let (faces, elems) = (m.transfers.len() as f64, m.elems_per_var as f64);
        s.face_units[src] += faces;
        s.face_units[dst] += faces;
        s.pack_elems[src] += elems;
        s.pack_elems[dst] += elems;
        s.out_msgs[src] += 1.0;
        let nodes = (cfg.node_of(src), cfg.node_of(dst));
        if nodes.0 == nodes.1 {
            s.in_msgs_intra[dst] += 1.0;
            s.in_elems_intra[dst] += elems;
        } else {
            s.out_msgs_inter[src] += 1.0;
            s.in_msgs_inter[dst] += 1.0;
            s.in_elems_inter[dst] += elems;
            let e = node_pairs.entry(nodes).or_insert((0.0, 0.0));
            e.0 += 1.0;
            e.1 += elems;
        }
    }
    s.node_pairs = node_pairs
        .into_iter()
        .map(|((sn, dn), (m, e))| (sn, dn, m, e))
        .collect();
    s
}

/// Factors `ranks` into an `(npx, npy, npz)` grid dividing the given root
/// block counts, preferring near-cubic shapes; returns the mesh
/// parameters for that layout. This is how the paper keeps "the same
/// initial mesh" across variants with different ranks per node (§V-C).
pub fn rank_grid_for(
    root_blocks: (usize, usize, usize),
    cells: (usize, usize, usize),
    num_vars: usize,
    num_refine: u8,
    ranks: usize,
) -> Option<MeshParams> {
    let (bx, by, bz) = root_blocks;
    let mut best: Option<(f64, (usize, usize, usize))> = None;
    let mut px = 1;
    while px <= ranks {
        if ranks.is_multiple_of(px) && bx.is_multiple_of(px) {
            let rest = ranks / px;
            let mut py = 1;
            while py <= rest {
                if rest.is_multiple_of(py) && by.is_multiple_of(py) {
                    let pz = rest / py;
                    if bz % pz == 0 {
                        // Prefer balanced grids: minimize the max/min ratio
                        // of blocks per rank per dimension.
                        let dims = [bx / px, by / py, bz / pz];
                        let max = *dims.iter().max().expect("3 dims") as f64;
                        let min = *dims.iter().min().expect("3 dims") as f64;
                        let score = max / min;
                        if best.is_none_or(|(s, _)| score < s) {
                            best = Some((score, (px, py, pz)));
                        }
                    }
                }
                py += 1;
            }
        }
        px += 1;
    }
    let (_, (px, py, pz)) = best?;
    Some(MeshParams {
        npx: px,
        npy: py,
        npz: pz,
        init_x: bx / px,
        init_y: by / py,
        init_z: bz / pz,
        nx: cells.0,
        ny: cells.1,
        nz: cells.2,
        num_vars,
        num_refine,
        block_change: 1,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn params(ranks_per_node: usize) -> WorkloadParams {
        WorkloadParams {
            mesh: MeshParams {
                npx: 2,
                npy: 2,
                npz: 1,
                init_x: 2,
                init_y: 2,
                init_z: 4,
                nx: 4,
                ny: 4,
                nz: 4,
                num_vars: 4,
                num_refine: 2,
                block_change: 1,
            },
            objects: vec![Object::sphere([0.3, 0.4, 0.5], 0.2, [0.04, 0.0, 0.0])],
            num_tsteps: 6,
            stages_per_ts: 4,
            checksum_freq: 4,
            refine_freq: 2,
            msgs_per_pair_dir: 0,
            ranks_per_node,
            coll_hier: false,
            coalesce: false,
            eager_bytes: 16 * 1024,
        }
    }

    #[test]
    fn workload_covers_all_stages() {
        let p = params(0);
        let w = Workload::generate(&p);
        let stages: usize = w.intervals.iter().map(|i| i.stages).sum();
        assert_eq!(stages, 24);
        let checksums: usize = w.intervals.iter().map(|i| i.checksums).sum();
        assert_eq!(checksums, 6);
        assert!(w.total_flops > 0.0);
        assert_eq!(w.intervals.iter().filter(|i| i.refine.is_some()).count(), 3);
    }

    #[test]
    fn stage_traffic_is_symmetric_in_totals() {
        let p = params(0);
        let w = Workload::generate(&p);
        for i in &w.intervals {
            let sent_elems: f64 = i.stage.in_elems_inter.iter().sum::<f64>()
                + i.stage.in_elems_intra.iter().sum::<f64>();
            // pack_elems counts both the pack (sender) and unpack
            // (receiver) sides.
            let packed: f64 = i.stage.pack_elems.iter().sum();
            assert!((packed - 2.0 * sent_elems).abs() < 1e-6);
        }
    }

    #[test]
    fn refinement_moves_blocks() {
        let p = params(0);
        let w = Workload::generate(&p);
        let moved: f64 = w
            .intervals
            .iter()
            .filter_map(|i| i.refine.as_ref())
            .map(|r| r.move_msgs.iter().sum::<f64>())
            .sum();
        assert!(moved > 0.0, "the moving sphere must trigger load balancing");
    }

    #[test]
    fn intra_node_grouping_reclassifies_traffic() {
        let inter_only = Workload::generate(&params(0));
        let grouped = Workload::generate(&params(2));
        let inter_of = |w: &Workload| -> f64 {
            w.intervals
                .iter()
                .map(|i| i.stage.in_elems_inter.iter().sum::<f64>())
                .sum()
        };
        assert!(inter_of(&grouped) < inter_of(&inter_only));
    }

    #[test]
    fn msg_granularity_scales_message_counts() {
        let mut p1 = params(0);
        p1.msgs_per_pair_dir = 0;
        let mut pk = params(0);
        pk.msgs_per_pair_dir = 4;
        let w1 = Workload::generate(&p1);
        let wk = Workload::generate(&pk);
        let msgs = |w: &Workload| -> f64 {
            w.intervals
                .iter()
                .map(|i| i.stage.out_msgs.iter().sum::<f64>())
                .sum()
        };
        assert!(msgs(&wk) > msgs(&w1));
    }

    #[test]
    fn coalescing_collapses_inter_node_groups() {
        // Per-face granularity, then the coalescer merges every
        // above-threshold inter-node group back to one message.
        let mut split = params(2);
        split.msgs_per_pair_dir = usize::MAX;
        let mut merged = split.clone();
        merged.coalesce = true;
        merged.eager_bytes = 0;
        let ws = Workload::generate(&split);
        let wm = Workload::generate(&merged);
        let inter_msgs = |w: &Workload| -> f64 {
            w.intervals
                .iter()
                .map(|i| i.stage.in_msgs_inter.iter().sum::<f64>())
                .sum()
        };
        let intra_msgs = |w: &Workload| -> f64 {
            w.intervals
                .iter()
                .map(|i| i.stage.in_msgs_intra.iter().sum::<f64>())
                .sum()
        };
        let elems = |w: &Workload| -> f64 {
            w.intervals
                .iter()
                .map(|i| i.stage.in_elems_inter.iter().sum::<f64>())
                .sum()
        };
        assert!(
            inter_msgs(&wm) < inter_msgs(&ws),
            "coalescing must cut inter-node message counts"
        );
        assert_eq!(
            intra_msgs(&wm),
            intra_msgs(&ws),
            "intra-node granularity is untouched"
        );
        assert_eq!(elems(&wm), elems(&ws), "payload volume is unchanged");
        // A sky-high threshold disables the merge entirely.
        let mut off = merged;
        off.eager_bytes = usize::MAX;
        assert_eq!(inter_msgs(&Workload::generate(&off)), inter_msgs(&ws));
    }

    #[test]
    fn refine_freq_zero_is_one_interval_without_refinement() {
        let mut p = params(0);
        p.refine_freq = 0;
        let w = Workload::generate(&p);
        assert_eq!(w.intervals.len(), 1);
        assert_eq!(w.intervals[0].stages, 24);
        assert_eq!(w.intervals[0].checksums, 6);
        assert!(w.intervals[0].refine.is_none());
    }

    /// Sums over every interval and rank, split into the counters the
    /// message structure shapes — `out_msgs`, `out_msgs_inter`,
    /// `in_msgs_{inter,intra}`, `in_elems_{inter,intra}` and the node-pair
    /// flows (entries, messages, elements) — and those it leaves alone:
    /// `blocks`, `pack_elems`, `local_elems`, `face_units` and the
    /// refinement's `move_msgs`, `move_elems`, `job_elems`, `plan_rounds`.
    fn totals(w: &Workload) -> ([f64; 9], [f64; 8]) {
        let (mut msg, mut rest) = ([0.0; 9], [0.0; 8]);
        let sum = |v: &[f64]| v.iter().sum::<f64>();
        for i in &w.intervals {
            let s = &i.stage;
            let flows = &s.node_pairs;
            let m = [
                sum(&s.out_msgs),
                sum(&s.out_msgs_inter),
                sum(&s.in_msgs_inter),
                sum(&s.in_msgs_intra),
                sum(&s.in_elems_inter),
                sum(&s.in_elems_intra),
                flows.len() as f64,
                flows.iter().map(|f| f.2).sum(),
                flows.iter().map(|f| f.3).sum(),
            ];
            let r = i.refine.as_ref();
            let o = [
                sum(&s.blocks),
                sum(&s.pack_elems),
                sum(&s.local_elems),
                sum(&s.face_units),
                r.map_or(0.0, |r| sum(&r.move_msgs)),
                r.map_or(0.0, |r| sum(&r.move_elems)),
                r.map_or(0.0, |r| sum(&r.job_elems)),
                r.map_or(0.0, |r| r.plan_rounds as f64),
            ];
            msg.iter_mut().zip(m).for_each(|(a, b)| *a += b);
            rest.iter_mut().zip(o).for_each(|(a, b)| *a += b);
        }
        (msg, rest)
    }

    /// Exact totals over the granularity × coalescing × node-grouping
    /// grid. They were recorded from a generator that walked the faces
    /// itself, so they pin the plan reduction against an independent
    /// derivation; every summand is an integer or a half, so summation
    /// order cannot move them.
    #[test]
    fn reduction_totals_are_pinned() {
        const MAX: usize = usize::MAX;
        #[rustfmt::skip]
        let golden: [(usize, bool, usize, [f64; 9]); 12] = [
            (0, false, 0, [54., 54., 54., 0., 21608., 0., 30., 54., 21608.]),
            (0, false, 2, [54., 18., 18., 36., 8544., 13064., 6., 18., 8544.]),
            (0, true, 0, [54., 54., 54., 0., 21608., 0., 30., 54., 21608.]),
            (0, true, 2, [54., 18., 18., 36., 8544., 13064., 6., 18., 8544.]),
            (2, false, 0, [102., 102., 102., 0., 21608., 0., 30., 102., 21608.]),
            (2, false, 2, [102., 34., 34., 68., 8544., 13064., 6., 34., 8544.]),
            (2, true, 0, [54., 54., 54., 0., 21608., 0., 30., 54., 21608.]),
            (2, true, 2, [86., 18., 18., 68., 8544., 13064., 6., 18., 8544.]),
            (MAX, false, 0, [1526., 1526., 1526., 0., 21608., 0., 30., 1526., 21608.]),
            (MAX, false, 2, [1526., 534., 534., 992., 8544., 13064., 6., 534., 8544.]),
            (MAX, true, 0, [54., 54., 54., 0., 21608., 0., 30., 54., 21608.]),
            (MAX, true, 2, [1010., 18., 18., 992., 8544., 13064., 6., 18., 8544.]),
        ];
        let rest = [2222., 43216., 168520., 15272., 122., 7808., 24192., 3.];
        for (k, coalesce, rpn, msg) in golden {
            let mut p = params(rpn);
            p.msgs_per_pair_dir = k;
            if coalesce {
                p.coalesce = true;
                p.eager_bytes = 0;
            }
            let case = format!("msgs_per_pair_dir {k}, coalesce {coalesce}, ranks_per_node {rpn}");
            assert_eq!(totals(&Workload::generate(&p)), (msg, rest), "{case}");
        }
    }

    /// The simulated run and a live MPI-only run of the same
    /// configuration pass the same checksum points, regrid as often
    /// (counted live by a data-flow run, whose every regrid invalidates
    /// its replay traces once) and end on the same mesh: the last
    /// interval's, or the one its regrid leaves when the run ends on a
    /// regrid.
    #[test]
    fn workload_agrees_with_a_live_run() {
        for num_tsteps in [6, 7] {
            let mut p = params(0);
            p.num_tsteps = num_tsteps;
            let w = Workload::generate(&p);
            let mut cfg = p.config();
            let n = p.mesh.num_ranks();
            let live = miniamr::run_world(&cfg, n, vmpi::NetworkModel::instant());
            let checksums: usize = w.intervals.iter().map(|i| i.checksums).sum();
            let last = w.intervals.last().expect("one interval at least");
            let blocks = match &last.refine {
                Some(r) => &r.ctrl_blocks,
                None => &last.stage.blocks,
            };
            for rank in &live {
                assert_eq!(rank.checksums.len(), checksums, "{num_tsteps} timesteps");
                assert_eq!(
                    rank.final_blocks as f64, blocks[rank.rank],
                    "{num_tsteps} timesteps"
                );
            }
            cfg.variant = miniamr::Variant::DataFlow;
            let regrids = w.intervals.iter().filter(|i| i.refine.is_some()).count();
            for rank in miniamr::run_world(&cfg, n, vmpi::NetworkModel::instant()) {
                assert_eq!(
                    rank.trace_invalidations, regrids as u64,
                    "{num_tsteps} timesteps"
                );
            }
        }
    }

    #[test]
    fn rank_grid_factors_divide_blocks() {
        let p = rank_grid_for((8, 8, 4), (12, 12, 12), 40, 2, 16).expect("grid exists");
        assert_eq!(p.num_ranks(), 16);
        assert_eq!(p.root_blocks(), (8, 8, 4));
        assert!(
            rank_grid_for((3, 3, 3), (4, 4, 4), 1, 0, 16).is_none(),
            "16 does not divide 27"
        );
    }

    #[test]
    fn same_mesh_different_rank_grids_have_same_flops() {
        let base = params(0);
        let w1 = Workload::generate(&base);
        let mesh4 = rank_grid_for((4, 4, 4), (4, 4, 4), 4, 2, 8).expect("8-rank grid");
        let mut p8 = base.clone();
        p8.mesh = mesh4;
        let w8 = Workload::generate(&p8);
        assert_eq!(w1.total_flops, w8.total_flops, "same mesh ⇒ same flops");
    }
}
