//! The serial schedules: MPI-only, and the MPI + fork-join hybrid.
//!
//! Both run a phase call's template with all communication on the rank's
//! own thread, Algorithm 2: per direction ([`directions`]) post the
//! receives of the template's endpoints, run the packs and send, run the
//! intra-process copies and boundary fills while messages fly, then a
//! `waitany` loop runs each arrived message's unpacks, and a final wait
//! drains the sends (§II-A). Every call has run when it returns, so
//! [`Exec::wait`] keeps its no-op default.
//!
//! The two variants differ only in who runs a template task. MPI-only
//! runs it inline on the rank's thread. Fork-join mirrors the
//! experimental hybrid of the miniAMR repository the paper evaluates
//! (§V): it spawns the task on a worker pool with the template's access
//! list and closes each loop with a barrier, so phases never overlap and
//! communication stays serialized, the structural limitation the
//! data-flow variant removes.

use crate::elaborate::Work;
use crate::exchange::{run_jobs_serially, run_refinement, BlockingMover};
use crate::rank::RankState;
use crate::stats::RunStats;
use crate::variant::template::{Endpoint, Phase, Template, TemplateTask};
use crate::variant::{directions, fold_task_counts, run_jobs_as_tasks, Exec, PhaseCtx};
use std::cell::Cell;
use std::sync::Arc;
use taskrt::Runtime;
use vmpi::{Comm, RequestSet};

/// Master-thread MPI with serial or fork-join compute phases.
pub(crate) struct ForkJoin {
    /// The worker pool; `None` is MPI-only.
    rt: Option<Runtime>,
    /// Members of batches beyond the first (see `DataFlow::batched_items`).
    batched_items: Cell<u64>,
}

impl ForkJoin {
    /// Fork-join on `rt`'s workers, or MPI-only without a pool.
    pub(crate) fn new(rt: Option<Runtime>) -> ForkJoin {
        ForkJoin {
            rt,
            batched_items: Cell::new(0),
        }
    }

    /// Runs one template task's body: inline under a phase span of its
    /// label without a pool, else as a spawn of its description.
    fn task(&self, t: &TemplateTask) {
        let Some(desc) = &t.desc else { return };
        match &self.rt {
            None => obs::phase_span(desc.label(), || desc.run_inline()),
            Some(rt) => rt.spawn_desc(desc),
        }
    }

    /// Closes a loop: every task has run.
    fn barrier(&self) {
        if let Some(rt) = &self.rt {
            rt.taskwait();
        }
    }

    /// Algorithm 2 over one direction of a communicate template.
    ///
    /// # Panics
    ///
    /// On a failed transport call: the designed unwind of a poisoned or
    /// lost-peer world, which `elastic::run_segment` turns into a
    /// [`crate::RunError`].
    fn exchange(&self, comm: &Comm, dir: &[TemplateTask]) {
        // The elaboration's order within a direction: receives, packs and
        // sends, copies and fills, unpacks.
        let stage = |t: &TemplateTask| match t.work {
            Work::Recv { .. } => 0,
            Work::Pack { .. } | Work::Send { .. } => 1,
            Work::Unpack { .. } => 3,
            _ => 2,
        };
        debug_assert!(dir.is_sorted_by_key(stage));
        let at = |s| dir.partition_point(|t| stage(t) < s);
        let (recvs, packs) = (&dir[..at(1)], &dir[at(1)..at(2)]);
        let (copies, unpacks) = (&dir[at(2)..at(3)], &dir[at(3)..]);

        // Every receive before the first send: a message's receive is its
        // `recv` task's endpoint, or its one unpack's (in the same order).
        let mut recv_tasks = recvs.iter();
        let n = unpacks.len();
        let (mut arrivals, mut reqs) = (Vec::with_capacity(n), Vec::with_capacity(n));
        for msg in unpacks.chunk_by(|a, b| a.work.msg() == b.work.msg()) {
            let owner = match msg[0].endpoint {
                Some(_) => &msg[0],
                None => recv_tasks.next().expect("a recv task per message"),
            };
            debug_assert_eq!(owner.work.msg(), msg[0].work.msg());
            let e = owner.endpoint.as_ref().expect("a receive endpoint");
            let req = comm.irecv_into(e.slice.clone(), e.peer as i32, e.tag);
            reqs.push(req.expect("post recv"));
            arrivals.push(msg);
        }

        // A message is sent once its packs are complete: right after them
        // without a pool (its `send` task or its last pack carries the
        // endpoint), after the pack barrier with one, so that the packs of
        // all messages run in parallel.
        let send = |e: &Endpoint| {
            comm.isend_from(&e.slice, e.peer, e.tag)
                .expect("send faces")
        };
        let mut sends = Vec::with_capacity(packs.len());
        for t in packs {
            self.task(t);
            if self.rt.is_none() {
                sends.extend(t.endpoint.as_ref().map(send));
            }
        }
        self.barrier();
        let rest = packs.iter().filter_map(|t| t.endpoint.as_ref());
        sends.extend(rest.skip(sends.len()).map(send));

        // Intra-process copies, block to block, and domain-boundary fills
        // while messages are in flight.
        copies.iter().for_each(|t| self.task(t));
        self.barrier();

        // Unpack each message as it arrives.
        let mut set = RequestSet::new(reqs);
        while let Some((idx, _)) = obs::phase_span("wait", || set.waitany()) {
            arrivals[idx].iter().for_each(|t| self.task(t));
        }
        self.barrier();

        // Drain the sends before the next direction reuses the buffers.
        for r in sends {
            obs::phase_span("wait", || r.wait());
        }
    }
}

impl Exec for ForkJoin {
    fn run(&self, cx: &PhaseCtx, call: &Template) {
        match call.phase {
            Phase::Communicate => {
                for dir in directions(&call.tasks, &cx.plan, |t| &t.work) {
                    self.exchange(&cx.comm, dir);
                }
            }
            Phase::Stencil | Phase::LocalSums => {
                call.tasks.iter().for_each(|t| self.task(t));
                self.barrier();
            }
        }
        if self.rt.is_some() {
            (self.batched_items).set(self.batched_items.get() + call.batched_items);
        }
    }

    /// Blocking moves; split/merge jobs serially or as one task each.
    fn refine(&self, state: &mut RankState, comm: &Arc<Comm>) -> u64 {
        let mover = &mut BlockingMover::default();
        run_refinement(state, comm, mover, &mut |state, jobs| match &self.rt {
            Some(rt) => run_jobs_as_tasks(rt, state, jobs, |_| Vec::new()),
            None => run_jobs_serially(state, jobs),
        })
    }

    fn finish(&self, stats: &mut RunStats) {
        if let Some(rt) = &self.rt {
            fold_task_counts(stats, rt.stats().spawned, self.batched_items.get());
        }
    }
}
