//! Shared elaboration of every variant's task program.
//!
//! The three variants run the same phases, and the static verifier
//! (`dfcheck`, `--staticcheck`) must agree *exactly* with what they run:
//! labels, priorities, declared accesses, message endpoints and spawn
//! order. Instead of keeping copies of that logic in sync, this module
//! elaborates the stream once, feeding any [`taskrt::Submitter`]:
//!
//! * `variant::template` materializes each [`TaskSpec`] into a task of a
//!   phase call's template, which each variant's schedule runs: inline
//!   (MPI-only), as pool tasks closed by barriers (fork-join), or through
//!   the dependency graph (data-flow), and
//! * `staticcheck` passes `dfcheck`'s recorder, which captures the
//!   stream into a model with no workers, field data, or transport.
//!
//! [`Work`] is the payload of a spec: indices into the [`CommPlan`] (or
//! positions in the rank's block list) that the live side resolves to
//! buffers and block data, and the static side uses for diagnostics.
//!
//! ## Task grain
//!
//! The intra-rank kinds — local copies, boundary fills, stencils, local
//! checksums — are emitted as *batches*: consecutive items of one label
//! (and, in `communicate`, one direction) fused by [`grain_batches`]
//! until they hold [`GRAIN_ELEMS`] elements of work. A batch declares the
//! union of its members' accesses and runs them in emission order, so a
//! block at or above the floor gets a batch of one and the stream of a
//! coarse mesh is the one-task-per-item stream. The message-coupled kinds
//! (`recv`, `pack`, `send`, `unpack`) are fused within a message, never
//! across it — an unpack fused across messages would wait for the slowest
//! of them. A message of one section is two tasks: the pack sends it
//! (when the send is eager) and the unpack's on-ready gate receives it
//! (DESIGN.md §7.4).
//!
//! Batching is safe by construction, not by an argument about a mesh:
//!
//! * members run in emission order inside the batch, on one thread, so
//!   whatever order the one-task-per-item stream imposed between two
//!   members still holds;
//! * a batch declares a superset of what each member declared, so tasks
//!   become more ordered, never less (depsan checks every member's actual
//!   accesses against the union, and dfcheck analyses this very stream);
//! * order inside one label of one direction carries no data dependence:
//!   every ghost plane has exactly one writer per direction (one local
//!   copy, boundary fill or unpack), and packers and copy sources read
//!   interior cells only, which no task of a communicate phase writes;
//! * the cross-rank order is untouched: within a (stage, direction)
//!   layer the stream is still recv → pack → send → local/boundary →
//!   unpack (a one-section message's `recv` and `send` folded into its
//!   unpack and pack), the order that keeps an `inout` unpack from being
//!   spawned ahead of the `in` packs of its block and closing a cycle
//!   through the peer;
//! * the declared graph was already coarser than the data: dependencies
//!   are on a block's variable range, not on the face cells a task
//!   touches, so a batch widens a claim from two blocks to a few tens and
//!   adds no new kind of false dependency.

use crate::comm_plan::Endpoint::{Inbound, Outbound};
use crate::comm_plan::{BufferLayout, CommPlan, MsgPlan};
use crate::config::Config;
use amr_mesh::block_id::Dir;
use amr_mesh::data::BlockLayout;
use std::ops::Range;
use taskrt::{Access, AccessList, AccessMode, ObjId, Region, Submitter, TaskSpec};

/// The task-grain floor, in elements of work: a batch of intra-rank items
/// closes as soon as it holds this much. About 8 µs of copying, against
/// the 1.2–3.6 µs the runtime spends to spawn and schedule a task
/// (DESIGN.md §7.4 has the derivation, EXPERIMENTS.md the sweep).
pub const GRAIN_ELEMS: usize = 1024;

/// Splits `items` into consecutive batches, closing each as soon as its
/// members' `weight`s add up to [`GRAIN_ELEMS`]. Only the last batch can
/// stay below the floor. The one grain rule of the repo, through
/// [`copy_batches`], [`fill_batches`] and [`block_batches`], which hold
/// the weights.
pub fn grain_batches(
    items: Range<usize>,
    weight: impl Fn(usize) -> usize,
) -> impl Iterator<Item = Range<usize>> {
    let mut next = items.start;
    std::iter::from_fn(move || {
        let start = next;
        let mut held = 0;
        while next < items.end && held < GRAIN_ELEMS {
            held += weight(next);
            next += 1;
        }
        (start < next).then_some(start..next)
    })
}

/// Batches of `rank`'s local copies of direction `dir` (indices into
/// `plan.locals`) for a group of `g` variables; a copy weighs the elements
/// it moves.
pub(crate) fn copy_batches(
    plan: &CommPlan,
    rank: usize,
    dir: Dir,
    g: usize,
) -> impl Iterator<Item = Range<usize>> + '_ {
    grain_batches(plan.locals_of(rank, dir), move |i| {
        plan.locals[i].elems_per_var * g
    })
}

/// Batches of `rank`'s boundary fills of direction `dir` (indices into
/// `plan.boundaries`); a fill weighs one face plane of `g` variables.
pub(crate) fn fill_batches(
    plan: &CommPlan,
    layout: &BlockLayout,
    rank: usize,
    dir: Dir,
    g: usize,
) -> impl Iterator<Item = Range<usize>> {
    let weight = layout.face_cells(dir) * g;
    grain_batches(plan.boundaries_of(rank, dir), move |_| weight)
}

/// Batches of a rank's `n_blocks` blocks (positions in its id-ordered
/// block list) for a sweep over `nvars` variables of every cell: the
/// stencil of one group, the checksum of all variables.
pub(crate) fn block_batches(
    layout: &BlockLayout,
    n_blocks: usize,
    nvars: usize,
) -> impl Iterator<Item = Range<usize>> {
    let weight = layout.cells() * nvars;
    grain_batches(0..n_blocks, move |_| weight)
}

/// The access list of a batch: the union of its members' accesses,
/// sorted by region and de-duplicated, a region declared in two modes
/// keeping the stronger (`inout`). A superset of what every member
/// declares, so batching only ever adds ordering. Exact-size: a batch of
/// local copies reserves two accesses a member, and its blocks repeat.
pub(crate) fn union_accesses(mut accesses: Vec<Access>) -> Vec<Access> {
    accesses.sort_unstable_by_key(|a| (a.region.obj, a.region.start, a.region.end));
    accesses.dedup_by(|dup, kept| {
        let same = dup.region == kept.region;
        if same && dup.mode != kept.mode {
            kept.mode = AccessMode::InOut;
        }
        same
    });
    accesses.shrink_to_fit();
    accesses
}

/// What a task of the stream actually does. Plan-indexed
/// variants reference `CommPlan::msgs` / `locals` / `boundaries`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Work {
    /// Post the task-aware receive of message `msg`.
    Recv {
        /// Index into `plan.msgs`.
        msg: usize,
    },
    /// Pack one face of a local block into a send-buffer section.
    Pack {
        /// Index into `plan.msgs`.
        msg: usize,
        /// Index into that message's `transfers`.
        transfer: usize,
    },
    /// Post the task-aware send of message `msg` (multidep on all its
    /// packed sections).
    Send {
        /// Index into `plan.msgs`.
        msg: usize,
    },
    /// A batch of intra-rank face copies, run in index order.
    LocalCopies {
        /// Indices into `plan.locals`.
        transfers: Range<usize>,
    },
    /// A batch of domain-boundary ghost fills.
    Boundaries {
        /// Indices into `plan.boundaries`.
        fills: Range<usize>,
    },
    /// Unpack one received face into a local block's ghost plane.
    Unpack {
        /// Index into `plan.msgs`.
        msg: usize,
        /// Index into that message's `transfers`.
        transfer: usize,
    },
    /// Apply the stencil to a batch of blocks.
    Stencils {
        /// Positions in the rank's id-ordered block list.
        blocks: Range<usize>,
    },
    /// Per-block local checksum reductions: the block at position `i`
    /// reduces into slot `i` of the checkpoint's slot vector.
    ChecksumLocals {
        /// Slot indices, which are block positions.
        slots: Range<usize>,
    },
}

impl Work {
    /// The message a task of the exchange names, if any.
    pub fn msg(&self) -> Option<usize> {
        match self {
            Work::Recv { msg } | Work::Send { msg } => Some(*msg),
            Work::Pack { msg, .. } | Work::Unpack { msg, .. } => Some(*msg),
            _ => None,
        }
    }

    /// The exchange direction a task of `plan` belongs to (`None`: a
    /// stencil or checksum task).
    pub fn dir(&self, plan: &CommPlan) -> Option<Dir> {
        match self {
            Work::LocalCopies { transfers } => Some(plan.locals[transfers.start].dir),
            Work::Boundaries { fills } => Some(plan.boundaries[fills.start].dir),
            Work::Stencils { .. } | Work::ChecksumLocals { .. } => None,
            _ => self.msg().map(|m| plan.msgs[m].dir),
        }
    }
}

/// Work items a task runs: the members of a batch, two for a pack or
/// unpack that also carries its message's endpoint (it sends or receives
/// a one-section message), one otherwise — what a one-task-per-item
/// elaboration would have spawned.
pub fn items(spec: &TaskSpec<Work>) -> usize {
    match &spec.work {
        Work::LocalCopies { transfers: r }
        | Work::Boundaries { fills: r }
        | Work::Stencils { blocks: r }
        | Work::ChecksumLocals { slots: r } => r.len(),
        Work::Pack { .. } | Work::Unpack { .. } => 1 + usize::from(spec.comm.is_some()),
        Work::Recv { .. } | Work::Send { .. } => 1,
    }
}

/// The per-rank context every elaboration pass needs: configuration,
/// block layout, the rank, and its blocks' dependency objects.
pub struct ElabCtx<'a> {
    /// Scenario configuration.
    pub cfg: &'a Config,
    /// Block data layout (element ranges per variable).
    pub layout: BlockLayout,
    /// This rank.
    pub rank: usize,
    /// Dependency object of every block the rank owns in the current mesh
    /// epoch, in block-id order: the order the plan's `*_pos` fields and
    /// the [`Work`] block ranges index.
    pub objs: &'a [ObjId],
}

impl ElabCtx<'_> {
    fn block_region(&self, obj: ObjId, vars: Range<usize>) -> Region {
        Region::new(obj, self.layout.var_elem_range(vars))
    }

    /// The `vars` of the block at position `pos`.
    fn block(&self, pos: usize, vars: &Range<usize>) -> Region {
        self.block_region(self.objs[pos], vars.clone())
    }

    /// One batch of an intra-rank kind.
    fn batch(label: &'static str, accesses: Vec<Access>, work: Work) -> TaskSpec<Work> {
        TaskSpec {
            label,
            priority: 0,
            accesses: accesses.into(),
            comm: None,
            work,
        }
    }

    /// Algorithm 3: the fully taskified communicate for one variable
    /// group, its buffer regions where `BufferLayout` puts them. Spawn
    /// order is load-bearing (see the unpack comment) and mirrored exactly
    /// by both consumers.
    pub fn communicate(
        &self,
        plan: &CommPlan,
        send_obj: [ObjId; 3],
        recv_obj: [ObjId; 3],
        vars: Range<usize>,
        sub: &mut dyn Submitter<Work>,
    ) {
        let (g, at) = (vars.len(), BufferLayout::of(self.cfg));
        // A message of one section is two tasks (a pack that sends, an
        // unpack that receives). `legacy_group_offsets` reproduces the
        // seed's stream as a whole, four tasks a message: its receive
        // tasks post every receive up front, which is what makes the
        // aliasing bug hang the same way on every run.
        let one_section = |m: &MsgPlan| m.transfers.len() == 1 && !self.cfg.legacy_group_offsets;
        for dir in Dir::ALL {
            let d = dir.index();

            // Receive tasks: out-dependency on the buffer section; the
            // task-aware receive binds arrival to dependency release.
            // The message-coupled kinds jump the ready queue (priority 1):
            // receives posted early maximize overlap, and a pack on the
            // way to a send or an unpack released by an arriving message
            // must not queue behind every ready interior copy and stencil
            // before the chain unpack → copies → stencil → pack → send of
            // the next stage can start. A one-section message has no
            // receive task: its unpack posts the receive (below).
            for (mi, m) in plan.in_dir(self.rank, dir, Inbound) {
                if one_section(m) {
                    continue;
                }
                let span = at.span(m, Inbound, g);
                let intent = tampi::irecv_intent(m.src_rank, m.tag, span.len());
                sub.submit(TaskSpec {
                    label: "recv",
                    priority: 1,
                    accesses: AccessList::from_iter([Access::write(Region::new(
                        recv_obj[d],
                        span,
                    ))]),
                    comm: Some(intent),
                    work: Work::Recv { msg: mi },
                });
            }

            // Pack + send tasks. The send multi-depends on every section
            // the packers write (§IV-A). A pack that fills a whole
            // message sends it too, when the send is eager (at most
            // `Config::eager_bytes`, which a run clamps to its transport's
            // threshold): one task, declaring what the two declared (the
            // block `in`, the section `inout`). A rendezvous send
            // completes only once the peer has posted the receive, which
            // the peer's unpack posts when its block is free of the peer's
            // own packs — so a pack that held its block until then would
            // wait for a pack that waits for it.
            for (mi, m) in plan.in_dir(self.rank, dir, Outbound) {
                let intent = tampi::isend_intent(m.dst_rank, m.tag, at.span(m, Outbound, g).len());
                let bytes = intent.elems * std::mem::size_of::<f64>();
                let sends = one_section(m) && bytes <= self.cfg.eager_bytes;
                let mut section_accesses = AccessList::with_capacity(m.transfers.len());
                for (ti, t) in m.transfers.iter().enumerate() {
                    let section = Region::new(send_obj[d], at.section(m, ti, Outbound, g));
                    let section = if sends {
                        Access::read_write(section)
                    } else {
                        section_accesses.push(Access::read(section.clone()));
                        Access::write(section)
                    };
                    let block = self.block(t.src_pos, &vars);
                    sub.submit(TaskSpec {
                        label: "pack",
                        priority: 1,
                        accesses: AccessList::from_iter([Access::read(block), section]),
                        comm: sends.then(|| intent.clone()),
                        work: Work::Pack {
                            msg: mi,
                            transfer: ti,
                        },
                    });
                }
                if !sends {
                    sub.submit(TaskSpec {
                        label: "send",
                        priority: 1,
                        accesses: section_accesses,
                        comm: Some(intent),
                        work: Work::Send { msg: mi },
                    });
                }
            }

            // Intra-process copies (already taskified by Rico et al.),
            // batched to the grain floor. Order inside a direction carries
            // no data dependence: every ghost plane has one writer per
            // direction and packers read interior cells only.
            // A copy declares `in` on its source block and `inout` on its
            // destination (the ghost plane is part of the block;
            // whole-block granularity, §IV-D).
            for transfers in copy_batches(plan, self.rank, dir, g) {
                let mut accesses = Vec::with_capacity(2 * transfers.len());
                for t in &plan.locals[transfers.clone()] {
                    let [src, dst] = [t.src_pos, t.dst_pos].map(|p| self.block(p, &vars));
                    accesses.extend([Access::read(src), Access::read_write(dst)]);
                }
                let work = Work::LocalCopies { transfers };
                sub.submit(Self::batch("local_copy", union_accesses(accesses), work));
            }

            // Domain-boundary ghost fills: `inout` on every filled block.
            for fills in fill_batches(plan, &self.layout, self.rank, dir, g) {
                let filled = plan.boundaries[fills.clone()].iter();
                let accesses = filled.map(|b| Access::read_write(self.block(b.pos, &vars)));
                let work = Work::Boundaries { fills };
                sub.submit(Self::batch(
                    "boundary",
                    union_accesses(accesses.collect()),
                    work,
                ));
            }

            // Unpack tasks are instantiated *last* within the direction
            // (Algorithm 3, lines 19-20). Spawn order matters: with
            // whole-block dependency granularity (§IV-D), an unpack
            // (`inout` block) spawned before this rank's packs (`in`
            // block) would make the packs — and through them the sends —
            // wait on data from the peer, closing a cross-rank cycle.
            // Batches keep that order: fusion stays inside one label of
            // one direction. The unpack of a one-section message receives
            // it as well, from its on-ready gate: the receive is posted
            // when the unpack's last predecessor has released, and the
            // message is one more predecessor. The section is `inout`,
            // because the receive writes it in the unpack's name: the
            // next message into it (the next group's or stage's) is then
            // received only after this unpack has read it.
            for (mi, m) in plan.in_dir(self.rank, dir, Inbound) {
                let (receives, elems) = (one_section(m), at.span(m, Inbound, g).len());
                for (ti, t) in m.transfers.iter().enumerate() {
                    let section = Region::new(recv_obj[d], at.section(m, ti, Inbound, g));
                    let section = match receives {
                        true => Access::read_write(section),
                        false => Access::read(section),
                    };
                    let block = Access::read_write(self.block(t.dst_pos, &vars));
                    sub.submit(TaskSpec {
                        label: "unpack",
                        priority: 1,
                        accesses: AccessList::from_iter([section, block]),
                        comm: receives.then(|| tampi::irecv_intent(m.src_rank, m.tag, elems)),
                        work: Work::Unpack {
                            msg: mi,
                            transfer: ti,
                        },
                    });
                }
            }
        }
    }

    /// Stencil tasks for one variable group: `inout` on the block so
    /// they chain behind the unpackers and in front of the next stage's
    /// packers, with no barrier.
    pub fn stencils(&self, vars: Range<usize>, sub: &mut dyn Submitter<Work>) {
        for blocks in block_batches(&self.layout, self.objs.len(), vars.len()) {
            let members = self.objs[blocks.clone()].iter();
            let accesses = members
                .map(|&obj| Access::read_write(self.block_region(obj, vars.clone())))
                .collect();
            sub.submit(Self::batch(
                "stencil",
                union_accesses(accesses),
                Work::Stencils { blocks },
            ));
        }
    }

    /// Per-block local checksum reductions of one checkpoint, the block
    /// at position `i` writing slot `i` of the checkpoint's slots object
    /// (Algorithm 4). A block is read once per variable group: each
    /// group's stencil writes exactly one of the reads, which is what
    /// lets a traced timestep of several groups close (its last writer of
    /// each region is known).
    pub fn checksum_locals(&self, obj: ObjId, sub: &mut dyn Submitter<Work>) {
        let (nv, groups) = (self.cfg.params.num_vars, self.cfg.num_groups());
        for slots in block_batches(&self.layout, self.objs.len(), nv) {
            let mut accesses = Vec::with_capacity(slots.len() * groups + 1);
            for &block in &self.objs[slots.clone()] {
                for g in 0..groups {
                    let vars = self.cfg.var_group(g);
                    accesses.push(Access::read(self.block_region(block, vars)));
                }
            }
            // The members' slots `i..i + 1` are contiguous: their union is
            // one region.
            accesses.push(Access::write(Region::new(obj, slots.clone())));
            sub.submit(Self::batch(
                "checksum_local",
                union_accesses(accesses),
                Work::ChecksumLocals { slots },
            ));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use amr_mesh::MeshDirectory;
    use dfcheck::{Event, Recorder};
    use proptest::prelude::*;
    use std::collections::BTreeMap;
    use taskrt::CommKind;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The grain rule: the batches tile the items in order, every
        /// batch but the last reaches the floor, and none holds an item
        /// more than it needed to reach it — so an item at or above the
        /// floor that opens a batch is alone in it.
        #[test]
        fn batches_tile_the_items_and_close_at_the_floor(
            weights in prop::collection::vec(0usize..3 * GRAIN_ELEMS / 2, 0..40),
            start in 0usize..5,
        ) {
            let items = start..start + weights.len();
            let weight = |i: usize| weights[i - start];
            let batches: Vec<Range<usize>> = grain_batches(items.clone(), weight).collect();
            let mut next = items.start;
            for (n, batch) in batches.iter().enumerate() {
                prop_assert_eq!(batch.start, next);
                prop_assert!(batch.end > batch.start);
                next = batch.end;
                let held: usize = batch.clone().map(weight).sum();
                if n + 1 < batches.len() {
                    prop_assert!(held >= GRAIN_ELEMS, "batch {:?} closed at {}", batch, held);
                }
                // Without its last member the batch was still open.
                prop_assert!(held - weight(batch.end - 1) < GRAIN_ELEMS);
                if weight(batch.start) >= GRAIN_ELEMS {
                    prop_assert_eq!(batch.len(), 1);
                }
            }
            prop_assert_eq!(next, items.end);
        }
    }

    fn key(a: &Access) -> (ObjId, usize, usize, bool, bool) {
        let (w, o) = (a.mode.is_write(), a.mode == AccessMode::Out);
        (a.region.obj, a.region.start, a.region.end, w, o)
    }

    #[test]
    fn union_keeps_the_stronger_mode_of_a_region_declared_twice() {
        let (a, b) = (ObjId::fresh(), ObjId::fresh());
        let r = |obj, range| Region::new(obj, range);
        let unioned = union_accesses(vec![
            Access::read(r(b, 0..8)),
            Access::read_write(r(a, 0..8)),
            Access::read(r(a, 0..8)),
            Access::read(r(b, 0..8)),
            Access::write(r(b, 8..16)),
        ]);
        let expected = [
            Access::read_write(r(a, 0..8)),
            Access::read(r(b, 0..8)),
            Access::write(r(b, 8..16)),
        ];
        assert_eq!(
            unioned.iter().map(key).collect::<Vec<_>>(),
            expected.iter().map(key).collect::<Vec<_>>()
        );
    }

    /// Above the floor nothing is fused: at 16³ cells × 40 variables every
    /// intra-rank item outweighs [`GRAIN_ELEMS`], every task has one
    /// member, and the stream is the one-task-per-item stream — written
    /// out here the way the elaboration emitted it before it batched,
    /// filter scans over the whole plan included.
    #[test]
    fn stream_above_the_floor_is_one_task_per_item() {
        let mut cfg = Config::smoke_test();
        (cfg.params.nx, cfg.params.ny, cfg.params.nz) = (16, 16, 16);
        cfg.params.num_vars = 40;
        let nv = cfg.params.num_vars;
        let layout = BlockLayout::of(&cfg.params);
        let mut dir = MeshDirectory::initial(cfg.params.clone());
        dir.refine_to_fixpoint(&cfg.objects);
        let plan = CommPlan::build(&cfg, &dir, 2);
        let block_vars = layout.var_elem_range(0..nv);

        let mut counts: BTreeMap<&str, usize> = BTreeMap::new();
        for rank in 0..2 {
            let ids = dir.blocks_of(rank);
            let objs: Vec<ObjId> = ids.iter().map(|_| ObjId::fresh()).collect();
            let obj_of = |id: &amr_mesh::BlockId| objs[ids.binary_search(id).expect("local block")];
            let (send_obj, recv_obj, sums_obj) = (
                [ObjId::fresh(), ObjId::fresh(), ObjId::fresh()],
                [ObjId::fresh(), ObjId::fresh(), ObjId::fresh()],
                ObjId::fresh(),
            );
            let ctx = ElabCtx {
                cfg: &cfg,
                layout,
                rank,
                objs: &objs,
            };
            let mut rec: Recorder<Work> = Recorder::new();
            ctx.communicate(&plan, send_obj, recv_obj, 0..nv, &mut rec);
            ctx.stencils(0..nv, &mut rec);
            ctx.checksum_locals(sums_obj, &mut rec);

            // The intra-rank tasks of the one-task-per-item stream.
            let block = |obj| Region::new(obj, block_vars.clone());
            let mut expected: Vec<(&str, Vec<Access>)> = Vec::new();
            for d in Dir::ALL {
                for t in plan
                    .locals
                    .iter()
                    .filter(|t| t.dir == d && t.src_rank == rank)
                {
                    let accesses = vec![
                        Access::read(block(obj_of(&t.src_block))),
                        Access::read_write(block(obj_of(&t.dst_block))),
                    ];
                    expected.push(("local_copy", accesses));
                }
                for b in &plan.boundaries {
                    if b.dir == d && dir.owner(&b.block) == Some(rank) {
                        let accesses = vec![Access::read_write(block(obj_of(&b.block)))];
                        expected.push(("boundary", accesses));
                    }
                }
            }
            for &obj in &objs {
                expected.push(("stencil", vec![Access::read_write(block(obj))]));
            }
            for (i, &obj) in objs.iter().enumerate() {
                let accesses = vec![
                    Access::read(block(obj)),
                    Access::write(Region::new(sums_obj, i..i + 1)),
                ];
                expected.push(("checksum_local", accesses));
            }

            let mut labels = Vec::new();
            for ev in &rec.stream {
                let Event::Task(spec, _) = ev else {
                    panic!("elaboration emits no barrier");
                };
                assert_eq!(items(spec), 1, "{} fused above the floor", spec.label);
                *counts.entry(spec.label).or_default() += 1;
                labels.push(spec.label);
            }
            // Only X crosses ranks on this rank grid, so the message tasks
            // are one direction's: receives first, then packs and sends,
            // then nothing but X's copies and fills until the unpacks (the
            // order that rules out cross-rank cycles).
            let first = |l: &str| labels.iter().position(|x| *x == l).expect("label present");
            let last = |l: &str| labels.iter().rposition(|x| *x == l).expect("label present");
            assert!(last("recv") < first("pack"));
            assert!(last("pack") < last("send"));
            assert!(last("unpack") < first("stencil"));
            let between = &labels[last("send") + 1..first("unpack")];
            assert!(between
                .iter()
                .all(|l| ["local_copy", "boundary"].contains(l)));
            let intra = ["local_copy", "boundary", "stencil", "checksum_local"];
            let got: Vec<_> = (rec.stream.iter())
                .filter_map(|ev| match ev {
                    Event::Task(spec, _) if intra.contains(&spec.label) => Some(spec),
                    _ => None,
                })
                .collect();
            assert_eq!(got.len(), expected.len(), "rank {rank}");
            for (spec, (label, accesses)) in got.iter().zip(&expected) {
                assert_eq!((spec.label, spec.priority), (*label, 0));
                // A batch lists its accesses sorted by region.
                let mut accesses: Vec<_> = accesses.iter().map(key).collect();
                accesses.sort_unstable();
                assert_eq!(spec.accesses.iter().map(key).collect::<Vec<_>>(), accesses);
            }
        }
        // Both ranks of the refined smoke mesh, one stage and one
        // checksum point.
        let pinned = [
            ("boundary", 60),
            ("checksum_local", 36),
            ("local_copy", 136),
            ("pack", 32),
            ("recv", 2),
            ("send", 2),
            ("stencil", 36),
            ("unpack", 32),
        ];
        assert_eq!(counts.into_iter().collect::<Vec<_>>(), pinned);
    }

    /// With `--send_faces` every message has one section: it takes two
    /// tasks, a pack that sends (block `in`, section `inout`, the send
    /// endpoint) and an unpack that receives (section `inout`, block
    /// `inout`, the receive endpoint), and no `recv` or `send` task —
    /// unless its send is a rendezvous, which keeps its own task, or the
    /// stream is the seed's (`legacy_group_offsets`).
    #[test]
    fn one_section_messages_take_two_tasks() {
        let mut cfg = Config::smoke_test();
        cfg.send_faces = true;
        let layout = BlockLayout::of(&cfg.params);
        let mut dir = MeshDirectory::initial(cfg.params.clone());
        dir.refine_to_fixpoint(&cfg.objects);
        let plan = CommPlan::build(&cfg, &dir, 2);
        let nv = cfg.params.num_vars;
        let stream = |cfg: &Config| {
            let mut counts: BTreeMap<&str, usize> = BTreeMap::new();
            for rank in 0..2 {
                let objs: Vec<ObjId> = dir.blocks_of(rank).iter().map(|_| ObjId::fresh()).collect();
                let ctx = ElabCtx {
                    cfg,
                    layout,
                    rank,
                    objs: &objs,
                };
                let (send_obj, recv_obj) = (ObjId::fresh(), ObjId::fresh());
                let mut rec: Recorder<Work> = Recorder::new();
                ctx.communicate(&plan, [send_obj; 3], [recv_obj; 3], 0..nv, &mut rec);
                for ev in &rec.stream {
                    let Event::Task(spec, _) = ev else {
                        panic!("elaboration emits no barrier");
                    };
                    *counts.entry(spec.label).or_default() += 1;
                    let modes: Vec<_> = spec.accesses.iter().map(|a| a.mode).collect();
                    let kind = spec.comm.as_ref().map(|c| c.kind);
                    match (&spec.work, kind) {
                        (Work::Pack { .. }, Some(CommKind::Send)) => {
                            assert_eq!(modes, [AccessMode::In, AccessMode::InOut]);
                            assert_eq!(spec.accesses[1].region.obj, send_obj);
                            assert_eq!(items(spec), 2);
                        }
                        (Work::Unpack { .. }, Some(CommKind::Recv)) => {
                            assert_eq!(modes, [AccessMode::InOut, AccessMode::InOut]);
                            assert_eq!(spec.accesses[0].region.obj, recv_obj);
                            assert_eq!(items(spec), 2);
                        }
                        (Work::Pack { .. } | Work::Unpack { .. }, None) => {
                            assert_eq!(items(spec), 1)
                        }
                        (Work::Send { .. }, Some(CommKind::Send))
                        | (Work::Recv { .. }, Some(CommKind::Recv)) => {}
                        (_, kind) => assert_eq!(kind, None, "{}", spec.label),
                    }
                }
            }
            counts
        };
        let eager = stream(&cfg);
        let msgs = plan.msgs.len();
        assert_eq!((eager["pack"], eager["unpack"]), (msgs, msgs));
        assert!(!eager.contains_key("recv") && !eager.contains_key("send"));
        // Every payload over the eager limit: the send keeps its task.
        let rendezvous = stream(&Config {
            eager_bytes: 0,
            ..cfg.clone()
        });
        assert_eq!(
            (rendezvous["pack"], rendezvous["send"], rendezvous["unpack"]),
            (msgs, msgs, msgs)
        );
        assert!(!rendezvous.contains_key("recv"));
        // The seed's stream under its offsets: four tasks a message.
        let legacy = stream(&Config {
            legacy_group_offsets: true,
            ..cfg.clone()
        });
        let four = ["pack", "recv", "send", "unpack"].map(|l| legacy[l]);
        assert_eq!(four, [msgs; 4]);
        // The refined smoke mesh of both ranks, one group: the 32 faces
        // that the aggregated stream packs into one message each way.
        let pinned = [
            ("boundary", 6),
            ("local_copy", 7),
            ("pack", 32),
            ("unpack", 32),
        ];
        assert_eq!(eager.into_iter().collect::<Vec<_>>(), pinned);
    }
}
