//! Static pre-flight verification of a scenario (`--staticcheck`, the
//! `dfcheck` binary, and the library entry [`check`]).
//!
//! A scenario — mesh parameters, variant, communication configuration —
//! is *symbolically elaborated* into a [`dfcheck::Model`] by walking the
//! live run's skeleton ([`crate::skeleton`]): the cadence's steps place
//! the stages and barriers, the regrid walk evolves the mesh directory,
//! [`crate::comm_plan::CommPlan::build`] plans each mesh epoch, and each
//! rank's task stream is produced by the *same* [`crate::elaborate`]
//! code that drives the live runtime — recorded through the
//! [`taskrt::Submitter`] seam instead of spawned. No field data is
//! allocated, no worker or delivery thread starts, and no message is
//! sent.
//!
//! Every variant runs the same task program, so every variant's model is
//! its template stream; what differs is where the rank's thread blocks on
//! work it did not run. Data-flow blocks at the cadence's waits; MPI-only
//! and fork-join only at the end of each exchange direction, where they
//! drain its sends ([`crate::variant::directions`]; their barriers on
//! their own pool wait on local work alone and are not modeled).
//!
//! What the static visitor skips (soundness caveats, see `DESIGN.md`
//! §8.1): stages past the first few of each mesh epoch (tags and buffer
//! regions repeat identically every stage, so ordering proofs extend
//! inductively) and epochs past [`MAX_EPOCHS`]; validations,
//! checkpoints and boundary snapshots, which spawn no task. The
//! refinement block exchange is modeled as a full barrier, not as
//! endpoints, and MPI collectives (checksum reductions) are not modeled
//! at all.

use crate::comm_plan::Endpoint::{Inbound, Outbound};
use crate::comm_plan::{BufferLayout, CommPlan};
use crate::config::Config;
use crate::elaborate::{ElabCtx, Work};
use crate::exchange::{data_tag, Move};
use crate::skeleton::{self, RegridHooks, Step, Walk};
use crate::variant::{directions, template::tasks_post_endpoints};
use amr_mesh::data::BlockLayout;
use amr_mesh::directory::MeshDirectory;
use amr_mesh::{BlockId, Object};
use dfcheck::{BarrierKind, Event, Finding, Model, Recorder, Report, SchedCtx};
use std::collections::BTreeMap;
use taskrt::{Access, ObjId, Region, TaskSpec};

/// Mesh epochs modeled (initial mesh + up to three regrids). Beyond
/// this the stream repeats structurally: every epoch rebuilds the plan
/// from the same planner and resets tags the same way.
pub const MAX_EPOCHS: usize = 4;

/// Statically verifies a scenario. Returns the full report; the check
/// passed iff [`dfcheck::Report::clean`].
pub fn check(cfg: &Config) -> Report {
    let elaborated = elaborate(cfg);
    let mut report = dfcheck::check(&elaborated.model);
    report.warnings.extend(elaborated.slot_findings);
    // The exchange protocol derives its tags from move sequence numbers;
    // a scenario with enough moves would walk out of the transport's tag
    // range. (Three tags per move: ACK, control, data.)
    let max_move_seq = elaborated.max_move_seq;
    if max_move_seq > 0 && !vmpi::valid_user_tag(data_tag(max_move_seq - 1)) {
        report.push_error(Finding {
            code: "tag-out-of-range",
            message: format!(
                "block exchange needs {} move tags and walks past the transport's tag range [0, {})",
                max_move_seq,
                vmpi::TAG_UB
            ),
            sites: vec![],
            chain: vec![],
        });
    }
    report
}

/// What symbolic elaboration of a scenario yields.
pub(crate) struct Elaborated {
    /// Every rank's modeled task stream.
    pub model: Model,
    slot_findings: Vec<Finding>,
    max_move_seq: usize,
}

/// Per-rank static state that persists across epochs.
struct StaticRank {
    /// Block id → dependency object (the static stand-in for
    /// [`crate::block_obj`], which needs live block uids).
    objs: BTreeMap<BlockId, ObjId>,
    /// The one persistent checksum-slots object (mirrors the live
    /// templates' single `sums_obj`).
    ck_obj: ObjId,
}

/// The static mesh: the directory the regrids walk, and how many
/// exchange move sequence numbers they need.
struct StaticMesh {
    dir: MeshDirectory,
    objects: Vec<Object>,
    max_move_seq: usize,
}

impl RegridHooks for StaticMesh {
    fn mesh(&mut self) -> (&mut MeshDirectory, &[Object]) {
        (&mut self.dir, &self.objects)
    }

    /// A move list numbers its moves from 0.
    fn moves(&mut self, moves: &[Move]) {
        self.max_move_seq = self.max_move_seq.max(moves.len());
    }
}

/// Symbolically elaborates a scenario into its model by walking the run
/// skeleton: per mesh epoch (the steps up to a regrid), the recorded
/// task stream of every rank.
pub(crate) fn elaborate(cfg: &Config) -> Elaborated {
    let n_ranks = cfg.params.num_ranks();
    let (layout, nv) = (BlockLayout::of(&cfg.params), cfg.params.num_vars);
    let (submits, bufs) = (tasks_post_endpoints(cfg.variant), BufferLayout::of(cfg));
    // One checksum boundary plus a stage after it, and at least two
    // stages: tags and buffer regions repeat identically every stage, so
    // two consecutive instances prove the induction step.
    let stages_to_model = (cfg.checksum_freq + 1).clamp(2, 16);
    let mut model = Model::default();
    let mut slot_findings: Vec<Finding> = Vec::new();
    let mut ranks: Vec<StaticRank> = (0..n_ranks)
        .map(|_| StaticRank {
            objs: BTreeMap::new(),
            ck_obj: ObjId::fresh(),
        })
        .collect();
    let mut mesh = StaticMesh {
        dir: MeshDirectory::initial(cfg.params.clone()),
        objects: cfg.objects.clone(),
        max_move_seq: 0,
    };
    Walk::initial(cfg).run(&mut mesh);
    Walk::regrid(cfg, n_ranks).run(&mut mesh);

    let steps = skeleton::cadence(cfg, 0, cfg.num_tsteps, false);
    let epochs = steps.split_inclusive(|s| matches!(s, Step::Regrid));
    for (epoch, steps) in epochs.enumerate().take(MAX_EPOCHS) {
        let plan = CommPlan::build(cfg, &mesh.dir, n_ranks);
        // Every rank records its first `stages_to_model` stages and every
        // barrier outside the stages it skips. The block exchange of the
        // regrid ending the epoch is modeled as the barrier before it, not
        // as endpoints (soundness caveat).
        for (rank, st) in ranks.iter_mut().enumerate() {
            // The rank's blocks in id order, as the plan's positions index
            // them.
            let ids = mesh.dir.blocks_of(rank);
            let mut rec: Recorder<Work> = Recorder::new();
            rec.ctx.epoch = epoch as u32;
            // Fresh per-epoch buffer objects, as the live buffers take.
            let (send_obj, recv_obj) = (bufs.objs(), bufs.objs());
            let objs: Vec<ObjId> = (ids.iter())
                .map(|id| *st.objs.entry(*id).or_insert_with(ObjId::fresh))
                .collect();
            let ctx = ElabCtx {
                cfg,
                layout,
                rank,
                objs: &objs,
            };
            // Stages recorded so far, and whether the skeleton is inside a
            // stage past them.
            let (mut modeled, mut skipping) = (0, false);
            for &step in steps {
                match step {
                    Step::Stage(stage) => {
                        modeled += 1;
                        skipping = modeled > stages_to_model;
                        if skipping {
                            continue;
                        }
                        rec.ctx.stage = stage as u32;
                        for g in 0..cfg.num_groups() {
                            rec.ctx.group = g as u32;
                            let vars = cfg.var_group(g);
                            let mut call = Recorder {
                                ctx: rec.ctx,
                                stream: Vec::new(),
                            };
                            ctx.communicate(&plan, send_obj, recv_obj, vars.clone(), &mut call);
                            for dir in directions(&call.stream, &plan, event_work) {
                                rec.stream.extend_from_slice(dir);
                                if !submits {
                                    rec.barrier(BarrierKind::Taskwait);
                                }
                            }
                            ctx.stencils(vars, &mut rec);
                        }
                    }
                    Step::TimestepEnd => skipping = false,
                    _ if skipping => {}
                    Step::Sums => ctx.checksum_locals(st.ck_obj, &mut rec),
                    // A serial schedule's phase calls have run when they
                    // return: its cadence waits wait for nothing.
                    Step::Wait if submits => rec.barrier(BarrierKind::Taskwait),
                    Step::WaitSums if submits => {
                        rec.barrier(BarrierKind::TaskwaitOn(vec![Region::whole(st.ck_obj)]))
                    }
                    _ => {}
                }
            }
            // What a data-flow communication body touches in the buffers:
            // the slice the live submitter takes from the same layout.
            let buf_objs = [recv_obj, send_obj];
            let touches =
                |spec: &TaskSpec<Work>, c: &SchedCtx| footprint(cfg, &plan, buf_objs, spec, c);
            let site = |w: &Work| describe(w, &plan, &ids, nv);
            model.ingest(rank, rec.stream, &site, &touches);
        }
        lint_buffer_slots(cfg, &plan, epoch, &mut slot_findings);
        model.epochs = epoch + 1;
        if let Some(Step::Regrid) = steps.last() {
            mesh.objects.iter_mut().for_each(Object::step);
            Walk::regrid(cfg, n_ranks).run(&mut mesh);
        }
    }
    Elaborated {
        model,
        slot_findings,
        max_move_seq: mesh.max_move_seq,
    }
}

/// The buffer range a communication task touches (its body, or the
/// endpoint the rank's thread posts for it): its
/// message's span (receive, send) or its section (pack, unpack), written
/// by a receive or a pack, read by a send or an unpack — and written by
/// an unpack's receive when it carries one. `objs` are the buffers'
/// objects, indexed by [`crate::comm_plan::Endpoint`].
fn footprint(
    cfg: &Config,
    plan: &CommPlan,
    objs: [[ObjId; 3]; 2],
    spec: &TaskSpec<Work>,
    c: &SchedCtx,
) -> Vec<Access> {
    let (msg, transfer, end, writes) = match spec.work {
        Work::Recv { msg } => (msg, None, Inbound, true),
        Work::Send { msg } => (msg, None, Outbound, false),
        Work::Pack { msg, transfer } => (msg, Some(transfer), Outbound, true),
        Work::Unpack { msg, transfer } => (msg, Some(transfer), Inbound, spec.comm.is_some()),
        _ => return Vec::new(),
    };
    let (bufs, g) = (BufferLayout::of(cfg), cfg.var_group(c.group as usize).len());
    let m = &plan.msgs[msg];
    let range = transfer.map_or_else(|| bufs.span(m, end, g), |t| bufs.section(m, t, end, g));
    let region = Region::new(objs[end as usize][m.dir.index()], range);
    let access = if writes { Access::write } else { Access::read };
    vec![access(region)]
}

/// The work of a recorded task (a communicate call records no barrier).
fn event_work(ev: &Event<Work>) -> &Work {
    match ev {
        Event::Task(spec, _) => &spec.work,
        Event::Barrier(..) => unreachable!("a communicate call records tasks only"),
    }
}

/// Buffer-slot lint: every message owns a reserved slot of its buffer
/// ([`BufferLayout::slot`]). A group whose span the layout puts outside
/// that slot aliases a neighbor's — the `--legacy_group_offsets` bug
/// class. Reported as a warning: the hard failures it causes (lost
/// ordering edges → tag collisions) are caught by the matching pass as
/// errors.
fn lint_buffer_slots(cfg: &Config, plan: &CommPlan, epoch: usize, out: &mut Vec<Finding>) {
    let bufs = BufferLayout::of(cfg);
    for g in 0..cfg.num_groups() {
        let glen = cfg.var_group(g).len();
        for m in &plan.msgs {
            for (end, side) in [(Outbound, "send"), (Inbound, "recv")] {
                let (span, slot) = (bufs.span(m, end, glen), bufs.slot(m, end));
                let [lo, hi, rlo, rhi] = [span.start, span.end, slot.start, slot.end];
                if lo < rlo || hi > rhi {
                    out.push(Finding {
                        code: "buffer-slot-overlap",
                        message: format!(
                            "epoch {}: group {} of tag {} ({} side, rank {} -> rank {}) occupies \
                             [{}, {}) outside its reserved buffer slot [{}, {}) — it aliases a \
                             neighboring message's slot and loses the ordering edges that \
                             serialize same-tag communication",
                            epoch, g, m.tag, side, m.src_rank, m.dst_rank, lo, hi, rlo, rhi
                        ),
                        sites: vec![],
                        chain: vec![],
                    });
                    return; // one exemplar per epoch; the rest are echoes
                }
            }
        }
    }
}

/// Human site description of a task's work payload. `ids` are the
/// rank's blocks in id order; a batch is named by its first member.
fn describe(w: &Work, plan: &CommPlan, ids: &[BlockId], nv: usize) -> String {
    match w {
        Work::Recv { msg } => {
            let m = &plan.msgs[*msg];
            format!("{:?} msg {} from rank {}", m.dir, msg, m.src_rank)
        }
        Work::Send { msg } => {
            let m = &plan.msgs[*msg];
            format!("{:?} msg {} to rank {}", m.dir, msg, m.dst_rank)
        }
        Work::Pack { msg, transfer } => {
            let m = &plan.msgs[*msg];
            format!(
                "{:?} msg {} section {} of block {:?}",
                m.dir, msg, transfer, m.transfers[*transfer].src_block
            )
        }
        Work::Unpack { msg, transfer } => {
            let m = &plan.msgs[*msg];
            format!(
                "{:?} msg {} section {} into block {:?}",
                m.dir, msg, transfer, m.transfers[*transfer].dst_block
            )
        }
        Work::LocalCopies { transfers } => {
            let t = &plan.locals[transfers.start];
            format!(
                "{:?} {} copies from {:?} -> {:?}",
                t.dir,
                transfers.len(),
                t.src_block,
                t.dst_block
            )
        }
        Work::Boundaries { fills } => {
            let b = &plan.boundaries[fills.start];
            format!(
                "{:?} {} fills from {:?} block {:?}",
                b.dir,
                fills.len(),
                b.side,
                b.block
            )
        }
        Work::Stencils { blocks } => format!(
            "{} blocks from {:?} ({} vars)",
            blocks.len(),
            ids[blocks.start],
            nv
        ),
        Work::ChecksumLocals { slots } => format!(
            "slots {}..{} from block {:?}",
            slots.start, slots.end, ids[slots.start]
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Variant;

    fn legacy_cfg() -> Config {
        let mut cfg = Config::smoke_test();
        cfg.params.num_vars = 8;
        cfg.comm_vars = 3; // uneven groups: 3, 3, 2
        cfg.send_faces = true;
        cfg.variant = Variant::DataFlow;
        cfg.legacy_group_offsets = true;
        cfg
    }

    #[test]
    fn clean_scenario_passes_all_variants() {
        for variant in [Variant::DataFlow, Variant::MpiOnly, Variant::ForkJoin] {
            let mut cfg = Config::smoke_test();
            cfg.variant = variant;
            let report = check(&cfg);
            assert!(
                report.clean(),
                "{variant:?} flagged a clean scenario:\n{}",
                report.render_human()
            );
            assert!(report.stats.nodes > 0);
        }
    }

    #[test]
    fn clean_uneven_groups_pass() {
        let mut cfg = legacy_cfg();
        cfg.legacy_group_offsets = false;
        let report = check(&cfg);
        assert!(report.clean(), "{}", report.render_human());
    }

    #[test]
    fn legacy_offsets_flagged_as_tag_collision() {
        let report = check(&legacy_cfg());
        assert!(!report.clean());
        let collision = report
            .errors
            .iter()
            .find(|f| f.code == "tag-collision")
            .expect("legacy offsets must produce a tag collision");
        assert!(
            collision.sites.len() >= 2,
            "collision must name both aliased endpoints"
        );
        assert!(report
            .warnings
            .iter()
            .any(|f| f.code == "buffer-slot-overlap"));
    }

    /// The model's shape per scenario: `(nodes, edges, endpoints,
    /// epochs)` and the count of every finding code, errors and warnings
    /// together, in code order.
    fn shape(cfg: &Config) -> ([usize; 4], Vec<(&'static str, usize)>) {
        let report = check(cfg);
        let s = &report.stats;
        let mut codes: BTreeMap<&'static str, usize> = BTreeMap::new();
        for f in report.errors.iter().chain(&report.warnings) {
            *codes.entry(f.code).or_default() += 1;
        }
        (
            [s.nodes, s.edges, s.endpoints, s.epochs],
            codes.into_iter().collect(),
        )
    }

    /// Exact model shapes, recorded from the verifier that wrote its own
    /// copy of the timestep cadence and the regrid walk: they pin the
    /// model's stages, barriers and epochs against that independent
    /// derivation. The scenarios cover the legacy bug, the smoke scenario
    /// on every variant, delayed validation with checkpoints, and a run
    /// longer than [`MAX_EPOCHS`] epochs whose epochs are truncated to
    /// `stages_to_model` stages.
    #[test]
    fn model_shape_is_pinned() {
        let smoke = |variant| {
            let mut cfg = Config::smoke_test();
            cfg.variant = variant;
            cfg
        };
        let mut delayed = smoke(Variant::DataFlow);
        delayed.delayed_checksum = true;
        delayed.checksum_freq = 2;
        delayed.ckpt_freq = 3;
        delayed.separate_buffers = true;
        let mut long = smoke(Variant::DataFlow);
        long.num_tsteps = 8;
        long.checksum_freq = 2;
        long.delayed_checksum = true;
        long.send_faces = true;
        let collisions = vec![("buffer-slot-overlap", 3), ("tag-collision", 68)];
        let golden = [
            (legacy_cfg(), [3930, 18398, 1560, 3], collisions),
            (smoke(Variant::DataFlow), [794, 3730, 40, 3], vec![]),
            (smoke(Variant::MpiOnly), [844, 2862, 40, 3], vec![]),
            (smoke(Variant::ForkJoin), [844, 2862, 40, 3], vec![]),
            (delayed, [488, 2164, 24, 3], vec![]),
            (long, [1010, 4244, 696, 4], vec![]),
        ];
        for (i, (cfg, stats, codes)) in golden.into_iter().enumerate() {
            assert_eq!(shape(&cfg), (stats, codes), "scenario {i}");
        }
    }

    #[test]
    fn delayed_checksum_and_ckpt_barriers_stay_clean() {
        let mut cfg = Config::smoke_test();
        cfg.variant = Variant::DataFlow;
        cfg.delayed_checksum = true;
        cfg.checksum_freq = 2;
        cfg.ckpt_freq = 3;
        cfg.separate_buffers = true;
        let report = check(&cfg);
        assert!(report.clean(), "{}", report.render_human());
    }
}
