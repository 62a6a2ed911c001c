//! `taskrt` rungs: a persistent runtime with one worker and empty task
//! bodies, fed a stage-shaped submission stream.

use super::{time_call, Shapes, Values};
use crate::alloc::counted;
use crate::span::Spans;
use crate::stats::median;
use std::time::{Duration, Instant};
use taskrt::{ObjId, Region, Runtime};

/// A stage-shaped submission stream: per block one task writing the
/// whole block (the stencil) behind `faces` tasks that each read a
/// neighbour block and write one ghost slot of this one (the unpacks).
struct Stream {
    objs: Vec<ObjId>,
    faces: usize,
    stages: usize,
}

/// Elements of the synthetic block object: `GHOST` slots of one element
/// each, then the interior.
const GHOST: usize = 6;
const BLOCK: usize = 64;

impl Stream {
    fn tasks(&self) -> u64 {
        (self.stages * self.objs.len() * (1 + self.faces)) as u64
    }

    fn submit(&self, rt: &Runtime) {
        let n = self.objs.len();
        for _ in 0..self.stages {
            for (b, &obj) in self.objs.iter().enumerate() {
                for f in 0..self.faces {
                    // Alternate left and right neighbours.
                    let nb = self.objs[(b + n + if f % 2 == 0 { 1 } else { n - 1 }) % n];
                    rt.task()
                        .input(Region::new(nb, GHOST..BLOCK))
                        .inout(Region::new(obj, f..f + 1))
                        .body(|| {})
                        .spawn();
                }
            }
            for &obj in &self.objs {
                rt.task()
                    .inout(Region::new(obj, 0..BLOCK))
                    .body(|| {})
                    .spawn();
            }
        }
    }

    /// One iteration: the stream (inside a trace scope when `scoped`),
    /// then a full drain. Returns the wall of both.
    fn iterate(&self, rt: &Runtime, scoped: bool) -> Duration {
        let start = Instant::now();
        if scoped {
            let scope = rt.trace_scope(1);
            self.submit(rt);
            drop(scope);
        } else {
            self.submit(rt);
        }
        rt.taskwait();
        start.elapsed()
    }
}

pub(super) fn taskrt_rungs(sh: &Shapes, spans: &mut Spans, rung: Duration, out: &mut Values) {
    let n_blocks = sh.blocks.len().max(2);
    // Face tasks per block from the workload's own plan: every transfer
    // that touches rank 0 is a task there.
    let transfers = sh.plan.locals.iter().filter(|t| t.src_rank == 0).count()
        + sh.plan.inbound(0).map(|m| m.transfers.len()).sum::<usize>()
        + sh.plan
            .outbound(0)
            .map(|m| m.transfers.len())
            .sum::<usize>();
    let faces = (transfers as f64 / n_blocks as f64)
        .round()
        .clamp(1.0, GHOST as f64) as usize;
    let stream = Stream {
        objs: (0..n_blocks).map(|_| ObjId::fresh()).collect(),
        faces,
        // Long streams only dilute the per-iteration scope cost.
        stages: sh.stages_per_ts.min(4),
    };
    let tasks = stream.tasks();
    let per_task = |d: Vec<f64>| median(&d) * 1e9 / tasks as f64;
    let iterations = |rt: &Runtime, scoped: bool, before: &dyn Fn(&Runtime)| {
        let start = Instant::now();
        let mut walls = Vec::new();
        while walls.len() < 5 || start.elapsed() < rung {
            before(rt);
            walls.push(stream.iterate(rt, scoped).as_secs_f64());
        }
        walls
    };

    let rt = Runtime::new(1);
    let ns = spans.record("taskrt.stream.replay", |_| {
        // Three recordings freeze the trace; check that it did.
        for _ in 0..4 {
            stream.iterate(&rt, true);
        }
        let hits = rt.stats().trace_hits;
        let walls = iterations(&rt, true, &|_| {});
        assert!(
            rt.stats().trace_hits > hits,
            "the stage-shaped stream never replayed"
        );
        let n = walls.len() as u64 * tasks;
        (per_task(walls), n)
    });
    out.push(("taskrt.task_ns.replay", ns));
    let (_, c) = counted(|| stream.iterate(&rt, true));
    let allocs_per_task = c.allocs as f64 / tasks as f64;

    let ns = spans.record("taskrt.stream.record", |_| {
        let walls = iterations(&rt, true, &|rt| rt.invalidate_traces());
        let n = walls.len() as u64 * tasks;
        (per_task(walls), n)
    });
    out.push(("taskrt.task_ns.record", ns));
    drop(rt);

    let rt = Runtime::new(1);
    let ns = spans.record("taskrt.stream.noscope", |_| {
        let walls = iterations(&rt, false, &|_| {});
        let n = walls.len() as u64 * tasks;
        (per_task(walls), n)
    });
    out.push(("taskrt.task_ns.noscope", ns));

    let s = spans.record("taskrt.parallel_for", |_| {
        time_call(rung, || rt.parallel_for(0..n_blocks, n_blocks, |_| {}))
    });
    out.push(("taskrt.parallel_for_us", s * 1e6));

    // Hand-off: spawn the whole chain behind a gated head, then time from
    // opening the gate to the drain, so only successor release + dispatch
    // is counted, not the spawn path. The chain is kept short: claim
    // scans make both spawning and releasing a chain of unreleased tasks
    // grow with its length.
    const LINKS: u64 = 256;
    let ns = spans.record("taskrt.handoff", |_| {
        let chain = ObjId::fresh();
        let mut per_link = Vec::new();
        let start = Instant::now();
        while per_link.len() < 3 || start.elapsed() < rung {
            let (open, gate) = std::sync::mpsc::channel::<()>();
            rt.task()
                .inout(Region::new(chain, 0..1))
                .body(move || {
                    // A closed channel also opens the gate.
                    let _ = gate.recv();
                })
                .spawn();
            for _ in 0..LINKS {
                rt.task()
                    .inout(Region::new(chain, 0..1))
                    .body(|| {})
                    .spawn();
            }
            let t = Instant::now();
            drop(open);
            rt.taskwait();
            per_link.push(t.elapsed().as_secs_f64() / LINKS as f64);
        }
        let n = per_link.len() as u64 * LINKS;
        (median(&per_link) * 1e9, n)
    });
    out.push(("taskrt.handoff_ns", ns));

    // Edges are only created towards predecessors that have not released
    // yet, so the count is exact only if nothing runs while the stream is
    // submitted: a gate task holds the single worker until it is.
    let (open, gate) = std::sync::mpsc::channel::<()>();
    rt.spawn(Vec::new(), move || {
        let _ = gate.recv();
    });
    let before = rt.stats();
    stream.submit(&rt);
    let after = rt.stats();
    drop(open);
    rt.taskwait();
    out.push((
        "taskrt.edges_per_task",
        (after.edges - before.edges) as f64 / (after.spawned - before.spawned) as f64,
    ));
    drop(rt);
    out.push(("taskrt.allocs_per_task", allocs_per_task));

    // Retention: what the allocator still holds after a runtime that ran
    // `RUNS` iterations has been dropped.
    const RUNS: u64 = 8;
    for (name, scoped) in [
        ("taskrt.retained_bytes_per_task", true),
        ("taskrt.retained_bytes_per_task.noscope", false),
    ] {
        let bytes = spans.record("taskrt.retention", |_| {
            let (_, c) = counted(|| {
                let rt = Runtime::new(1);
                for _ in 0..RUNS {
                    stream.iterate(&rt, scoped);
                }
                drop(rt);
            });
            (c.live_bytes as f64 / (RUNS * tasks) as f64, RUNS * tasks)
        });
        out.push((name, bytes));
    }
}
