//! # dfcheck — static data-flow & communication-protocol verifier
//!
//! The paper's programming model is a *contract*: every real data access
//! of a task must be ordered by its declared `in`/`out`/`inout` regions,
//! and every task-bound receive must have exactly one live matching send
//! (Sala et al., CLUSTER 2020; the TAMPI model of arXiv:1901.03271).
//! The `depsan` crate enforces that contract dynamically — while the
//! workload runs. This crate enforces it *statically*: a scenario is
//! symbolically elaborated (no field data, no workers, no delivery
//! thread) into a [`Model`] of task nodes, message endpoints and
//! barriers, and a pass pipeline proves — or refutes — three properties:
//!
//! 1. **Send/receive matching** ([`passes::check_matching`]): per
//!    `(src, dst, tag)` endpoint group, sends and receives must be
//!    totally ordered by dependency paths (otherwise two operations with
//!    the same tag can be live concurrently and match out of order — a
//!    tag collision), counts must agree, and the k-th send's payload
//!    size must equal the k-th receive's.
//! 2. **Deadlock freedom** ([`passes::check_deadlock`]): the wait-for
//!    graph over task-dependency, barrier and send→receive message edges
//!    must be acyclic; a cycle is reported as a causal chain, like the
//!    runtime watchdog's blocked-chain dump.
//! 3. **Access coverage** ([`passes::check_access`]): footprints not
//!    covered by a declared region of a compatible mode, dead (empty)
//!    declared regions, and self-conflicting access lists.
//!
//! The model is recorded through the [`taskrt::Submitter`] seam: the
//! *same* elaboration code that drives the live runtime feeds the
//! [`Recorder`], so the model cannot drift from what would execute.
//!
//! Process exit code [`STATIC_EXIT_CODE`] (95) signals a failed check.

#![warn(missing_docs)]

pub mod graph;
pub mod model;
pub mod passes;
pub mod report;

pub use model::{BarrierKind, Event, Model, ModelStats, NodeKind, Recorder, SchedCtx, TaskNode};
pub use report::{Finding, Report, Site};

/// Process exit code of a failed static check (`miniamr --staticcheck`
/// and the `dfcheck` binary): distinct from usage errors (2), the stall
/// watchdog (86), peer loss (88) and the dynamic sanitizer (97).
pub const STATIC_EXIT_CODE: i32 = 95;

/// Runs the full pass pipeline over a model and returns the report.
pub fn check(model: &Model) -> Report {
    let graph = graph::Graph::build(model);
    let mut report = Report::new(model.stats());
    passes::check_matching(model, &graph, &mut report);
    passes::check_deadlock(model, &graph, &mut report);
    passes::check_access(model, &mut report);
    report.stats.edges = graph.edge_count();
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use taskrt::{Access, CommIntent, ObjId, Region, Submitter, TaskSpec};

    fn task(label: &'static str, accesses: Vec<Access>, comm: Option<CommIntent>) -> TaskSpec<()> {
        TaskSpec {
            label,
            priority: 0,
            accesses: accesses.into(),
            comm,
            work: (),
        }
    }

    fn ingest(model: &mut Model, rank: usize, rec: Recorder<()>) {
        model.ingest(rank, rec.stream, &|_| String::new(), &|_, _| Vec::new());
    }

    #[test]
    fn ordered_sends_pass_matching() {
        // Two same-tag sends chained by a conflicting access, and two
        // same-tag recvs likewise: a totally ordered group is clean.
        let buf = ObjId::fresh();
        let rbuf = ObjId::fresh();
        let mut m = Model::default();
        let mut r0 = Recorder::new();
        r0.submit(task(
            "send",
            vec![Access::read_write(Region::new(buf, 0..8))],
            Some(CommIntent::send(1, 7, 8)),
        ));
        r0.submit(task(
            "send",
            vec![Access::read_write(Region::new(buf, 0..8))],
            Some(CommIntent::send(1, 7, 8)),
        ));
        let mut r1 = Recorder::new();
        r1.submit(task(
            "recv",
            vec![Access::write(Region::new(rbuf, 0..8))],
            Some(CommIntent::recv(0, 7, 8)),
        ));
        r1.submit(task(
            "recv",
            vec![Access::write(Region::new(rbuf, 0..8))],
            Some(CommIntent::recv(0, 7, 8)),
        ));
        ingest(&mut m, 0, r0);
        ingest(&mut m, 1, r1);
        let report = check(&m);
        assert!(report.clean(), "{}", report.render_human());
    }

    #[test]
    fn unordered_same_tag_sends_are_a_collision() {
        // Disjoint buffers: nothing orders the two sends, so both can be
        // live at once — the transport may pair them out of order.
        let buf = ObjId::fresh();
        let rbuf = ObjId::fresh();
        let mut m = Model::default();
        let mut r0 = Recorder::new();
        r0.submit(task(
            "send",
            vec![Access::read(Region::new(buf, 0..8))],
            Some(CommIntent::send(1, 7, 8)),
        ));
        r0.submit(task(
            "send",
            vec![Access::read(Region::new(buf, 8..12))],
            Some(CommIntent::send(1, 7, 4)),
        ));
        let mut r1 = Recorder::new();
        r1.submit(task(
            "recv",
            vec![Access::write(Region::new(rbuf, 0..8))],
            Some(CommIntent::recv(0, 7, 8)),
        ));
        r1.submit(task(
            "recv",
            vec![Access::write(Region::new(rbuf, 8..12))],
            Some(CommIntent::recv(0, 7, 4)),
        ));
        ingest(&mut m, 0, r0);
        ingest(&mut m, 1, r1);
        let report = check(&m);
        assert!(!report.clean());
        let collision = report
            .errors
            .iter()
            .find(|f| f.code == "tag-collision")
            .expect("tag collision finding");
        // Both aliased sends (and their would-be receives) are named.
        assert!(collision.sites.len() >= 2);
        assert_eq!(collision.sites[0].label, "send");
        assert_eq!(collision.sites[1].label, "send");
    }

    #[test]
    fn taskwait_orders_same_tag_endpoints() {
        // Disjoint regions but a full taskwait between the sends (and
        // recvs): the barrier provides the total order.
        let buf = ObjId::fresh();
        let rbuf = ObjId::fresh();
        let mut m = Model::default();
        let mut r0 = Recorder::new();
        r0.submit(task(
            "send",
            vec![Access::read(Region::new(buf, 0..8))],
            Some(CommIntent::send(1, 7, 8)),
        ));
        r0.barrier(BarrierKind::Taskwait);
        r0.submit(task(
            "send",
            vec![Access::read(Region::new(buf, 8..16))],
            Some(CommIntent::send(1, 7, 8)),
        ));
        let mut r1 = Recorder::new();
        r1.submit(task(
            "recv",
            vec![Access::write(Region::new(rbuf, 0..8))],
            Some(CommIntent::recv(0, 7, 8)),
        ));
        r1.barrier(BarrierKind::Taskwait);
        r1.submit(task(
            "recv",
            vec![Access::write(Region::new(rbuf, 8..16))],
            Some(CommIntent::recv(0, 7, 8)),
        ));
        ingest(&mut m, 0, r0);
        ingest(&mut m, 1, r1);
        let report = check(&m);
        assert!(report.clean(), "{}", report.render_human());
    }

    #[test]
    fn taskwait_on_orders_conflicting_endpoints() {
        // taskwait_on the first send's buffer, then a send on a disjoint
        // buffer: ordering still holds because the main thread blocked.
        let buf = ObjId::fresh();
        let rbuf = ObjId::fresh();
        let mut m = Model::default();
        let mut r0 = Recorder::new();
        r0.submit(task(
            "send",
            vec![Access::read(Region::new(buf, 0..8))],
            Some(CommIntent::send(1, 7, 8)),
        ));
        r0.barrier(BarrierKind::TaskwaitOn(vec![Region::new(buf, 0..8)]));
        r0.submit(task(
            "send",
            vec![Access::read(Region::new(buf, 8..16))],
            Some(CommIntent::send(1, 7, 8)),
        ));
        let mut r1 = Recorder::new();
        r1.submit(task(
            "recv",
            vec![Access::write(Region::new(rbuf, 0..8))],
            Some(CommIntent::recv(0, 7, 8)),
        ));
        r1.barrier(BarrierKind::Taskwait);
        r1.submit(task(
            "recv",
            vec![Access::write(Region::new(rbuf, 8..16))],
            Some(CommIntent::recv(0, 7, 8)),
        ));
        ingest(&mut m, 0, r0);
        ingest(&mut m, 1, r1);
        let report = check(&m);
        assert!(report.clean(), "{}", report.render_human());
    }

    #[test]
    fn count_and_size_mismatches_are_errors() {
        let buf = ObjId::fresh();
        let rbuf = ObjId::fresh();
        let mut m = Model::default();
        let mut r0 = Recorder::new();
        r0.submit(task(
            "send",
            vec![Access::read(Region::new(buf, 0..8))],
            Some(CommIntent::send(1, 3, 8)),
        ));
        let mut r1 = Recorder::new();
        r1.submit(task(
            "recv",
            vec![Access::write(Region::new(rbuf, 0..6))],
            Some(CommIntent::recv(0, 3, 6)),
        ));
        r1.submit(task(
            "recv",
            vec![Access::write(Region::new(rbuf, 0..6))],
            Some(CommIntent::recv(0, 3, 6)),
        ));
        ingest(&mut m, 0, r0);
        ingest(&mut m, 1, r1);
        let report = check(&m);
        let codes: Vec<_> = report.errors.iter().map(|f| f.code).collect();
        assert!(codes.contains(&"unmatched-endpoint"), "{codes:?}");
        assert!(codes.contains(&"size-mismatch"), "{codes:?}");
    }

    #[test]
    fn cross_rank_wait_cycle_is_a_deadlock() {
        // rank0: recv(tag 0) -> send(tag 1); rank1: recv(tag 1) ->
        // send(tag 0). Message edges close a 4-node cycle.
        let a = ObjId::fresh();
        let b = ObjId::fresh();
        let mut m = Model::default();
        let mut r0 = Recorder::new();
        r0.submit(task(
            "recv",
            vec![Access::write(Region::new(a, 0..8))],
            Some(CommIntent::recv(1, 0, 8)),
        ));
        r0.submit(task(
            "send",
            vec![Access::read(Region::new(a, 0..8))],
            Some(CommIntent::send(1, 1, 8)),
        ));
        let mut r1 = Recorder::new();
        r1.submit(task(
            "recv",
            vec![Access::write(Region::new(b, 0..8))],
            Some(CommIntent::recv(0, 1, 8)),
        ));
        r1.submit(task(
            "send",
            vec![Access::read(Region::new(b, 0..8))],
            Some(CommIntent::send(0, 0, 8)),
        ));
        ingest(&mut m, 0, r0);
        ingest(&mut m, 1, r1);
        let report = check(&m);
        let dl = report
            .errors
            .iter()
            .find(|f| f.code == "deadlock-cycle")
            .expect("deadlock finding");
        assert_eq!(dl.sites.len(), 4);
        assert_eq!(dl.chain.len(), 4);
    }

    #[test]
    fn access_lints_fire() {
        let o = ObjId::fresh();
        let mut m = Model::default();
        let mut r0 = Recorder::<()>::new();
        // Dead region + self-conflict warnings.
        r0.submit(task(
            "stencil",
            vec![
                Access::write(Region::new(o, 4..4)),
                Access::read_write(Region::new(o, 0..8)),
                Access::write(Region::new(o, 6..10)),
            ],
            None,
        ));
        ingest(&mut m, 0, r0);
        // Undeclared footprint error.
        let mut r1 = Recorder::<()>::new();
        r1.submit(task("pack", vec![Access::read(Region::new(o, 0..8))], None));
        ingest(&mut m, 1, r1);
        let id = m.by_rank[1][0];
        m.nodes[id].footprint = vec![Access::write(Region::new(o, 0..8))];
        let report = check(&m);
        let wcodes: Vec<_> = report.warnings.iter().map(|f| f.code).collect();
        assert!(wcodes.contains(&"dead-region"), "{wcodes:?}");
        assert!(wcodes.contains(&"self-conflict"), "{wcodes:?}");
        let ecodes: Vec<_> = report.errors.iter().map(|f| f.code).collect();
        assert!(ecodes.contains(&"undeclared-access"), "{ecodes:?}");
    }

    #[test]
    fn footprint_union_coverage_accepted() {
        // Footprint covered by the union of two declared halves.
        let o = ObjId::fresh();
        let mut m = Model::default();
        let mut r0 = Recorder::<()>::new();
        r0.submit(task(
            "unpack",
            vec![
                Access::write(Region::new(o, 0..4)),
                Access::write(Region::new(o, 4..8)),
            ],
            None,
        ));
        ingest(&mut m, 0, r0);
        let id = m.by_rank[0][0];
        m.nodes[id].footprint = vec![Access::write(Region::new(o, 0..8))];
        let report = check(&m);
        assert!(report.clean(), "{}", report.render_human());
    }

    #[test]
    fn out_of_range_tag_flagged() {
        let o = ObjId::fresh();
        let mut m = Model::default();
        let mut r0 = Recorder::new();
        r0.submit(task(
            "send",
            vec![Access::read(Region::new(o, 0..4))],
            Some(CommIntent::send(1, -7, 4)),
        ));
        let mut r1 = Recorder::new();
        r1.submit(task(
            "recv",
            vec![Access::write(Region::new(o, 0..4))],
            Some(CommIntent::recv(0, -7, 4)),
        ));
        ingest(&mut m, 0, r0);
        ingest(&mut m, 1, r1);
        let report = check(&m);
        assert!(report.errors.iter().any(|f| f.code == "tag-out-of-range"));
    }

    #[test]
    fn collective_space_tag_flagged_distinctly() {
        // A tag at/above COLL_TAG_BASE is not just invalid — it could
        // pair with the runtime's internal collective rounds, so the
        // verifier names the reserved range explicitly.
        let o = ObjId::fresh();
        let mut m = Model::default();
        let mut r0 = Recorder::new();
        r0.submit(task(
            "send",
            vec![Access::read(Region::new(o, 0..4))],
            Some(CommIntent::send(1, vmpi::COLL_TAG_BASE, 4)),
        ));
        let mut r1 = Recorder::new();
        r1.submit(task(
            "recv",
            vec![Access::write(Region::new(o, 0..4))],
            Some(CommIntent::recv(0, vmpi::COLL_TAG_BASE, 4)),
        ));
        ingest(&mut m, 0, r0);
        ingest(&mut m, 1, r1);
        let report = check(&m);
        assert!(
            report
                .errors
                .iter()
                .any(|f| f.code == "tag-in-collective-space"
                    && f.message.contains(&vmpi::COLL_TAG_BASE.to_string())),
            "{}",
            report.render_human()
        );
        assert!(
            !report.errors.iter().any(|f| f.code == "tag-out-of-range"),
            "collective-space tags must not double-report as plain out-of-range"
        );
    }
}
